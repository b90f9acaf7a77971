//! Instructions of the DPMR register machine.
//!
//! Per the paper's program assumptions: virtual registers hold only scalars
//! (integers, floats, pointers); memory is accessed only through loads and
//! stores, each of which moves one scalar; programs allocate heap memory via
//! `malloc`, stack memory via `alloca`, and global-variable memory via global
//! declarations; functions return at most one scalar and take scalar
//! parameters.

use crate::module::{ExternalId, FuncId, GlobalId};
use crate::types::TypeId;

/// Index of a virtual register within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Integer constant of a specific width.
    Int { value: i64, bits: u16 },
    /// Float constant of a specific width.
    Float { value: f64, bits: u16 },
    /// The null pointer, typed as pointer-to-`pointee`.
    Null { pointee: TypeId },
}

impl Const {
    /// `i64` constant.
    pub fn i64(v: i64) -> Const {
        Const::Int { value: v, bits: 64 }
    }
    /// `i32` constant.
    pub fn i32(v: i32) -> Const {
        Const::Int {
            value: i64::from(v),
            bits: 32,
        }
    }
    /// `i8` constant.
    pub fn i8(v: i8) -> Const {
        Const::Int {
            value: i64::from(v),
            bits: 8,
        }
    }
    /// `f64` constant.
    pub fn f64(v: f64) -> Const {
        Const::Float { value: v, bits: 64 }
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(RegId),
    /// A constant.
    Const(Const),
    /// Address of a global variable (globals are pointers to memory).
    Global(GlobalId),
    /// Address of a function (for indirect calls).
    Func(FuncId),
}

impl From<RegId> for Operand {
    fn from(r: RegId) -> Self {
        Operand::Reg(r)
    }
}

impl From<Const> for Operand {
    fn from(c: Const) -> Self {
        Operand::Const(c)
    }
}

/// Binary arithmetic / bitwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

/// Comparison predicates; results are `i8` (0 or 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
    FOlt,
    FOle,
    FOgt,
    FOge,
    FOeq,
    FOne,
}

/// Scalar conversion operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Pointer-to-pointer cast (retype, no bits change).
    Bitcast,
    /// Pointer to 64-bit integer.
    PtrToInt,
    /// 64-bit integer to pointer (forbidden under SDS/MDS; allowed in
    /// original programs analysed by DSA).
    IntToPtr,
    /// Integer truncation.
    Trunc,
    /// Zero extension.
    Zext,
    /// Sign extension.
    Sext,
    /// Float to signed integer.
    FpToSi,
    /// Signed integer to float.
    SiToFp,
    /// Float width change.
    FpCast,
}

/// Who is being called.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// Direct call of a function within the module.
    Direct(FuncId),
    /// Indirect call through a function-pointer value.
    Indirect(Operand),
    /// Call of an external (non-transformed) function, by registry name.
    External(ExternalId),
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst <- alloca(ty [, count])` — stack allocation; yields `ty*`
    /// (with `count`, `ty[count]` elements, still typed `ty*`).
    Alloca {
        dst: RegId,
        ty: TypeId,
        count: Option<Operand>,
    },
    /// `dst <- malloc(elem, count)` — heap allocation of
    /// `count * sizeof(elem)` bytes; yields `elem*`.
    Malloc {
        dst: RegId,
        elem: TypeId,
        count: Operand,
    },
    /// `free(ptr)` — heap deallocation.
    Free { ptr: Operand },
    /// `dst <- *ptr` — loads one scalar; the type of `dst` dictates width
    /// and interpretation.
    Load { dst: RegId, ptr: Operand },
    /// `*ptr <- value` — stores one scalar.
    Store { ptr: Operand, value: Operand },
    /// `dst <- &(base->field)` — address of a struct field. `base` must be
    /// pointer-to-struct (or pointer-to-union, where the address is the
    /// base for every member).
    FieldAddr {
        dst: RegId,
        base: Operand,
        field: u32,
    },
    /// `dst <- &base[index]` — address of an array element; `base` is a
    /// pointer to an array type (sized or unsized).
    IndexAddr {
        dst: RegId,
        base: Operand,
        index: Operand,
    },
    /// `dst <- cast(src)`.
    Cast {
        dst: RegId,
        op: CastOp,
        src: Operand,
    },
    /// `dst <- lhs op rhs`.
    Bin {
        dst: RegId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst <- lhs pred rhs` (i8 result, 0 or 1).
    Cmp {
        dst: RegId,
        pred: CmpPred,
        lhs: Operand,
        rhs: Operand,
    },
    /// Register copy / constant materialisation (also `dst <- &fun` when
    /// `src` is [`Operand::Func`]).
    Copy { dst: RegId, src: Operand },
    /// Function call; `dst` receives the scalar return value if any.
    Call {
        dst: Option<RegId>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// DPMR runtime check: compares the application scalar `a` against
    /// `reps.len()` replica scalars bit-exactly; on any mismatch the VM
    /// raises a detection trap — terminal by default, resumable when a
    /// recovery trap handler is installed. Inserted by the transformation
    /// (the `assert(x == *pr)` of Table 2.6, generalized to K replicas).
    ///
    /// `ptrs`, when present, names the application location and the K
    /// replica locations (in replica order) the compared values were
    /// loaded from; it lets repair-from-replica write the replica value
    /// back over the divergent application location, and lets vote-based
    /// arbitration (K >= 2) repair whichever *copy* — application or a
    /// replica — the majority outvotes. The tuple is coupled so a
    /// one-sided (unserializable) state cannot exist, and `ptrs`, when
    /// present, always carries exactly one pointer per compared value.
    DpmrCheck {
        a: Operand,
        reps: Vec<Operand>,
        ptrs: Option<(Operand, Vec<Operand>)>,
    },
    /// `dst <- randint(lo, hi)` — uniform random integer in `[lo, hi]`
    /// (inclusive); runtime support for rearrange-heap (Table 2.8).
    ///
    /// `stream` selects the runtime RNG stream the draw comes from:
    /// stream 0 is the run-seeded default; stream `k > 0` is an
    /// independent stream derived from `(run seed, k)`. The transform
    /// gives replica `k` stream `k`, so multi-replica diversity draws are
    /// decorrelated between replicas, not just from the application.
    RandInt {
        dst: RegId,
        lo: Operand,
        hi: Operand,
        stream: u32,
    },
    /// `dst <- heapBufSize(ptr)` — usable size of a live heap buffer;
    /// runtime support for zero-before-free (Table 2.8).
    HeapBufSize { dst: RegId, ptr: Operand },
    /// Appends a scalar to the program's output channel (used by the
    /// correct-output metric and by workloads to report results).
    Output { value: Operand },
    /// Fault-injection site marker: records the virtual time of its first
    /// execution (the experiment's "successful fault injection" signal,
    /// Sec. 3.6). DPMR passes it through untouched.
    FiMarker { site: u32 },
    /// Aborts the program with an application-level error exit code
    /// (natural detection when nonzero).
    Abort { code: i64 },
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch; nonzero `cond` takes `then_bb`.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return, with an optional scalar value.
    Ret(Option<Operand>),
    /// Marks unreachable control flow (trap if executed).
    Unreachable,
}

impl Term {
    /// Block targets this terminator may transfer control to, in operand
    /// order (empty for returns and `unreachable`) — the control-flow
    /// metadata consumers like the verifier's block-reference checks and
    /// bytecode lowering need without matching every variant.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Br(t) => vec![*t],
            Term::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Term::Ret(_) | Term::Unreachable => Vec::new(),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Terminator.
    pub term: Term,
}

impl Block {
    /// An empty block terminated by `Unreachable` (builder patches it).
    pub fn new() -> Block {
        Block {
            instrs: Vec::new(),
            term: Term::Unreachable,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

impl Instr {
    /// The destination register, if the instruction defines one.
    pub fn dst(&self) -> Option<RegId> {
        match self {
            Instr::Alloca { dst, .. }
            | Instr::Malloc { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::FieldAddr { dst, .. }
            | Instr::IndexAddr { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::RandInt { dst, .. }
            | Instr::HeapBufSize { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            Instr::Free { .. }
            | Instr::Store { .. }
            | Instr::DpmrCheck { .. }
            | Instr::Output { .. }
            | Instr::FiMarker { .. }
            | Instr::Abort { .. } => None,
        }
    }

    /// All operands read by the instruction.
    pub fn operands(&self) -> Vec<Operand> {
        let mut v = Vec::new();
        self.for_each_operand(|op| v.push(*op));
        v
    }

    /// Calls `f` on every operand the instruction reads, in
    /// [`Instr::operands`] order, without collecting them.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Instr::Alloca { count, .. } => count.iter().for_each(f),
            Instr::Malloc { count: op, .. }
            | Instr::Free { ptr: op }
            | Instr::Load { ptr: op, .. }
            | Instr::FieldAddr { base: op, .. }
            | Instr::Cast { src: op, .. }
            | Instr::Copy { src: op, .. }
            | Instr::HeapBufSize { ptr: op, .. }
            | Instr::Output { value: op } => f(op),
            Instr::Store { ptr: a, value: b }
            | Instr::IndexAddr {
                base: a, index: b, ..
            }
            | Instr::Bin { lhs: a, rhs: b, .. }
            | Instr::Cmp { lhs: a, rhs: b, .. }
            | Instr::RandInt { lo: a, hi: b, .. } => {
                f(a);
                f(b);
            }
            Instr::Call { callee, args, .. } => {
                if let Callee::Indirect(op) = callee {
                    f(op);
                }
                args.iter().for_each(f);
            }
            Instr::DpmrCheck { a, reps, ptrs } => {
                f(a);
                reps.iter().for_each(&mut f);
                if let Some((ap, rps)) = ptrs {
                    f(ap);
                    rps.iter().for_each(f);
                }
            }
            Instr::FiMarker { .. } | Instr::Abort { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_helpers_have_expected_widths() {
        assert_eq!(Const::i8(3), Const::Int { value: 3, bits: 8 });
        assert_eq!(
            Const::i32(-1),
            Const::Int {
                value: -1,
                bits: 32
            }
        );
        assert_eq!(Const::i64(7), Const::Int { value: 7, bits: 64 });
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Term::Br(BlockId(3)).successors(), vec![BlockId(3)]);
        let cb = Term::CondBr {
            cond: Operand::Const(Const::i64(1)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Term::Ret(None).successors().is_empty());
        assert!(Term::Unreachable.successors().is_empty());
    }

    #[test]
    fn dst_and_operands_cover_all_cases() {
        let r0 = RegId(0);
        let r1 = RegId(1);
        let add = Instr::Bin {
            dst: r0,
            op: BinOp::Add,
            lhs: Operand::Reg(r1),
            rhs: Operand::Const(Const::i64(1)),
        };
        assert_eq!(add.dst(), Some(r0));
        assert_eq!(add.operands().len(), 2);

        let st = Instr::Store {
            ptr: Operand::Reg(r0),
            value: Operand::Reg(r1),
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.operands().len(), 2);
    }
}
