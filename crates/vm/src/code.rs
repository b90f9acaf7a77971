//! The pre-resolved linear bytecode executed by the interpreter.
//!
//! [`crate::lower`] compiles every function of a module into this form at
//! load time; [`crate::interp::Interp`] executes it with a single flat
//! `pc` per frame. The design goal is that **nothing that can be resolved
//! once at load is re-resolved per executed instruction**:
//!
//! * every operand is one frame-slot index: a function's IR registers
//!   keep their numbers, and its constants (pre-normalized immediates,
//!   nulls, function addresses and globals) follow them as read-only
//!   slots ([`FrameLayout`]), so reading any operand is one slot load,
//! * type sizes, struct field offsets, array element sizes, and scalar
//!   load/store kinds are baked into the op,
//! * block boundaries are gone — jump targets are absolute pcs into one
//!   module-wide op vector,
//! * callees are pre-resolved ([`FuncId`] / external-declaration index),
//! * `dpmr.check` sites carry stable check-site ids.
//!
//! The bytecode is a *pure* function of the IR module: the text format
//! remains the unlowered source of truth, and lowering the same module
//! twice yields identical code (so snapshots taken by one interpreter
//! restore into any other interpreter of the same module).
//!
//! Purity also makes op indices **stable site ids**: a pc into
//! [`LoweredCode::ops`] names the same operation in every interpreter of
//! the module. The fault-campaign engine leans on this — runtime faults
//! are armed at load/store pcs ([`crate::fault::ArmedFault::site`]) and
//! replay bit-identically — just as `dpmr.check` ops carry stable
//! check-site ids assigned at lowering.

use crate::value::Value;
use dpmr_ir::instr::{BinOp, CastOp, CmpPred};
use dpmr_ir::module::FuncId;
use std::ops::Range;
use std::sync::Arc;

/// An operand as the IR wrote it: the read-only view
/// [`LoweredCode::operand`] gives of a slot index. Ops carry only the
/// slot; analyses over lowered code (fault-site enumeration, the
/// optimizer) use this view to tell registers from constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Opnd {
    /// Virtual register `n` (slot `n`).
    Reg(u32),
    /// Immediate: integer constants pre-sign-normalized, floats widened,
    /// nulls and function addresses materialized as pointers.
    Imm(Value),
    /// Address of global `n` (filled into the slot when an interpreter
    /// allocates its globals).
    Global(u32),
}

/// The slot layout of one function's register frame: the IR registers
/// (slots `0..regs`, unset at entry) and then the function's constants
/// (slot `regs + i` holds `consts[i]`). Lowering deduplicates constants
/// by kind and bit pattern, so `0.0`, `-0.0` and NaNs with different
/// payloads keep separate slots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameLayout {
    /// Number of IR registers.
    pub regs: u32,
    /// The constant slots in order; each is an [`Opnd::Imm`] or an
    /// [`Opnd::Global`].
    pub consts: Vec<Opnd>,
}

impl FrameLayout {
    /// The operand that slot `slot` names, as the IR wrote it. Slots past
    /// the constants (hand-built code only) read as registers, which is
    /// how the interpreter treats them: unset.
    pub fn operand(&self, slot: u32) -> Opnd {
        slot.checked_sub(self.regs)
            .and_then(|i| self.consts.get(i as usize))
            .copied()
            .unwrap_or(Opnd::Reg(slot))
    }
}

/// The layout of a function without one: every slot reads as a register.
static NO_FRAME: FrameLayout = FrameLayout {
    regs: 0,
    consts: Vec::new(),
};

// The scalar memory encodings live in `crate::value` (one source of
// truth shared with global initialization); ops embed them.
pub use crate::value::{LoadKind, StoreKind};

/// One bytecode operation. Each IR instruction and each block terminator
/// lowers to exactly one `Op`, so instruction counts and virtual-cycle
/// accounting are bit-identical to the tree-walking engine this replaced.
/// Every operand field is a slot index into the executing function's
/// frame (see [`FrameLayout`]); `dst` fields are register slots.
///
/// The [`crate::opt`] pass rewrites ops *in place* — it never inserts
/// or removes slots — so every pc keeps its meaning in optimized code
/// too. The rewritten forms are [`Op::CheckElided`] (a check dropped by
/// profile-guided selection) and [`Op::LoadElided`] (a dropped site's
/// replica load).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Stack allocation; `size` = `sizeof(ty)` precomputed.
    Alloca {
        dst: u32,
        count: Option<u32>,
        size: u64,
    },
    /// Heap allocation; `esize` = `sizeof(elem)` precomputed.
    Malloc { dst: u32, count: u32, esize: u64 },
    /// Heap deallocation.
    Free { ptr: u32 },
    /// Scalar load; decode pre-resolved from the destination's type.
    Load { dst: u32, ptr: u32, kind: LoadKind },
    /// Scalar store; encode pre-resolved from the value operand's type.
    Store {
        ptr: u32,
        value: u32,
        kind: StoreKind,
    },
    /// Struct/union field address; `off` precomputed from the layout.
    FieldAddr { dst: u32, base: u32, off: u64 },
    /// Array element address; `esize` precomputed.
    IndexAddr {
        dst: u32,
        base: u32,
        index: u32,
        esize: u64,
    },
    /// Scalar conversion; `dbits` = destination width precomputed.
    Cast {
        dst: u32,
        op: CastOp,
        src: u32,
        dbits: u16,
    },
    /// Binary op; destination width and pointer-ness precomputed.
    Bin {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
        bits: u16,
        ptr_result: bool,
    },
    /// Comparison (i8 result, 0 or 1).
    Cmp {
        dst: u32,
        pred: CmpPred,
        lhs: u32,
        rhs: u32,
    },
    /// Register copy / immediate materialization.
    Copy { dst: u32, src: u32 },
    /// Direct IR-to-IR call (callee entry pc is `func_entry[f]`).
    CallDirect {
        dst: Option<u32>,
        f: FuncId,
        args: Box<[u32]>,
    },
    /// Indirect call through a function-pointer value.
    CallIndirect {
        dst: Option<u32>,
        target: u32,
        args: Box<[u32]>,
    },
    /// External call; `ext` indexes the interpreter's pre-resolved
    /// handler table (built from the module's external declarations).
    CallExternal {
        dst: Option<u32>,
        ext: u32,
        args: Box<[u32]>,
    },
    /// `dpmr.check` with a stable check-site id: compares the application
    /// operand `a` against `reps.len()` replica operands (variable arity —
    /// the interpreter compares all K+1 values). `ptrs`, when present,
    /// carries the application location plus one location per replica, in
    /// replica order. `a_reg` carries the in-flight register slot and its
    /// store encoding when the application operand is a register (the
    /// repair-from-replica and vote-repair paths).
    DpmrCheck {
        a: u32,
        reps: Box<[u32]>,
        ptrs: Option<(u32, Box<[u32]>)>,
        site: u32,
        a_reg: Option<(u32, StoreKind)>,
    },
    /// Uniform random integer in `[lo, hi]` from RNG stream `stream`
    /// (stream 0 is the run-seeded default; stream k > 0 is the replica-k
    /// diversity stream derived from `(run seed, k)`).
    RandInt {
        dst: u32,
        lo: u32,
        hi: u32,
        stream: u32,
    },
    /// Usable size of a live heap buffer.
    HeapBufSize { dst: u32, ptr: u32 },
    /// Append a scalar to the output channel.
    Output { value: u32 },
    /// Fault-injection site marker.
    FiMarker { site: u32 },
    /// Program-issued abort.
    Abort { code: i64 },
    /// Unconditional jump to an absolute pc.
    Jump { target: u32 },
    /// Conditional jump; nonzero `cond` takes `then_pc`.
    CondJump {
        cond: u32,
        then_pc: u32,
        else_pc: u32,
    },
    /// Function return with an optional value.
    Ret { value: Option<u32> },
    /// Unreachable control flow (traps if executed).
    Unreachable,
    /// Landing pad for a branch whose target block does not exist in the
    /// IR: preserves the tree-walker's runtime "jump to nonexistent
    /// block" trap (counted like any executed op, uncharged).
    BadBlock { block: u32 },
    /// An instruction whose types were invalid at lowering (e.g.
    /// `fieldaddr` through a non-pointer). Evaluates `args` in operand
    /// order — so use-of-unset-register traps still win — then raises
    /// `Invalid(msg)`, exactly as the tree-walker did at execution.
    Invalid { args: Box<[u32]>, msg: Box<str> },
    /// A `dpmr.check` dropped by profile-guided selection (produced only
    /// by [`crate::opt`], never by lowering). The op executes as a no-op
    /// with no virtual cost: the site's comparison and its `CHECK ×
    /// reps` cycles both disappear (the paper's overhead-budget
    /// tradeoff). `site` and `reps` are kept for diagnostics and
    /// [`LoweredCode::check_site_pcs`].
    CheckElided { site: u32, reps: u32 },
    /// A replica load whose only consumer was a profile-guided-dropped
    /// check (produced only by [`crate::opt`], never by lowering). The
    /// op executes as a no-op — no memory read, no register write, no
    /// virtual cost — so a dropped site sheds its whole access group,
    /// not just the comparison: the paper's partial-replication
    /// tradeoff applied per site. `dst` and `site` are kept for
    /// diagnostics and the dropped-site report.
    LoadElided { dst: u32, site: u32 },
}

/// A whole module compiled to linear bytecode.
///
/// The vectors are shared: cloning the code counts references instead of
/// copying them, so every interpreter, unit and trial of a build runs the
/// same bytecode. A rewrite ([`crate::opt::optimize`],
/// [`LoweredCode::rebuild_handler_ids`]) replaces or copies the vector it
/// writes, never one another clone still reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoweredCode {
    /// Every function's ops, concatenated; jump targets and
    /// [`LoweredCode::func_entry`] are absolute indices into this vector.
    pub ops: Arc<Vec<Op>>,
    /// Entry pc of each function, indexed by `FuncId`.
    pub func_entry: Arc<Vec<u32>>,
    /// Number of `dpmr.check` sites (site ids are `0..check_sites`,
    /// assigned in function-major, pc order — stable for a given module).
    pub check_sites: u32,
    /// `handler_ids[pc]` is the interpreter's handler id for `ops[pc]`:
    /// one byte per op in a flat side array, so the dispatch loop picks
    /// the handler without touching the (large, payload-carrying) `Op`.
    /// The id already fixes what the op's payload would otherwise
    /// decide on every execution (a load's width, a binary operator, a
    /// check's arity). Derived by [`LoweredCode::new`] and maintained by
    /// [`crate::opt::optimize`]; code built as a struct literal must call
    /// [`LoweredCode::rebuild_handler_ids`] (the interpreter re-derives
    /// it defensively when lengths disagree).
    pub handler_ids: Arc<Vec<u8>>,
    /// Each function's frame-slot layout, indexed by `FuncId`: where its
    /// registers end and which constant each later slot holds.
    pub frames: Arc<Vec<FrameLayout>>,
}

// Builds cross threads and are read from several at once.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<LoweredCode>();
};

impl LoweredCode {
    /// Code from its parts, with the handler ids derived from `ops`. The
    /// vectors are wrapped as they are, not copied.
    pub fn new(
        ops: Vec<Op>,
        func_entry: Vec<u32>,
        check_sites: u32,
        frames: Vec<FrameLayout>,
    ) -> LoweredCode {
        LoweredCode {
            handler_ids: Arc::new(ops.iter().map(crate::interp::handler_id).collect()),
            ops: Arc::new(ops),
            func_entry: Arc::new(func_entry),
            check_sites,
            frames: Arc::new(frames),
        }
    }

    /// Entry pc of function `f`.
    pub fn entry(&self, f: FuncId) -> u32 {
        self.func_entry[f.0 as usize]
    }

    /// Re-derive [`LoweredCode::handler_ids`] from [`LoweredCode::ops`]
    /// into a vector of this code's own. Call after rewriting `ops`.
    pub fn rebuild_handler_ids(&mut self) {
        self.handler_ids = Arc::new(self.ops.iter().map(crate::interp::handler_id).collect());
    }

    /// The function whose lowered range contains `pc`. Lowering
    /// concatenates functions in `FuncId` order, so `func_entry` is
    /// non-decreasing and the owner is the last entry at or before `pc`
    /// (telemetry uses this to attribute pc profiles to functions).
    pub fn func_of_pc(&self, pc: u32) -> FuncId {
        let i = self.func_entry.partition_point(|&e| e <= pc);
        FuncId(i.saturating_sub(1) as u32)
    }

    /// The operand that slot `slot` of the op at `pc` names, as the IR
    /// wrote it ([`FrameLayout::operand`] of the function holding `pc`).
    pub fn operand(&self, pc: u32, slot: u32) -> Opnd {
        self.frame(self.func_of_pc(pc).0 as usize).operand(slot)
    }

    fn frame(&self, f: usize) -> &FrameLayout {
        self.frames.get(f).unwrap_or(&NO_FRAME)
    }

    /// Each function's op range with its frame layout, in `FuncId` order.
    /// The ranges split `0..ops.len()` as [`LoweredCode::func_of_pc`]
    /// assigns pcs (given non-decreasing entries, as lowering lays them
    /// out), so a walk over them resolves operands as
    /// [`LoweredCode::operand`] does, without a search per pc.
    pub fn functions(&self) -> impl Iterator<Item = (Range<usize>, &FrameLayout)> {
        let n = self.ops.len();
        let entry = move |f: usize| self.func_entry.get(f).map_or(n, |&e| (e as usize).min(n));
        (0..self.func_entry.len().max(1)).map(move |f| {
            let start = if f == 0 { 0 } else { entry(f) };
            (start..entry(f + 1).max(start), self.frame(f))
        })
    }

    /// The pc of every `dpmr.check` op, indexed by check-site id (site
    /// ids are assigned in pc order at lowering, so the result is
    /// ascending). Telemetry reporters use this to locate site counters
    /// in the op stream. On optimized code this also resolves dropped
    /// checks, which keep their site id and pc.
    pub fn check_site_pcs(&self) -> Vec<u32> {
        let mut pcs = vec![0u32; self.check_sites as usize];
        for (pc, op) in self.ops.iter().enumerate() {
            if let Op::DpmrCheck { site, .. } | Op::CheckElided { site, .. } = op {
                pcs[*site as usize] = pc as u32;
            }
        }
        pcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clone of lowered code shares all of its vectors.
    #[test]
    fn clones_share_every_vector() {
        let code = LoweredCode::new(vec![Op::Ret { value: None }], vec![0], 0, Vec::new());
        let c = code.clone();
        assert!(Arc::ptr_eq(&code.ops, &c.ops));
        assert!(Arc::ptr_eq(&code.func_entry, &c.func_entry));
        assert!(Arc::ptr_eq(&code.handler_ids, &c.handler_ids));
        assert!(Arc::ptr_eq(&code.frames, &c.frames));
    }
}
