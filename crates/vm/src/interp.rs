//! The IR interpreter with virtual clock, run limits, and detection
//! accounting.
//!
//! The interpreter is the paper's "testbed": it executes original and
//! DPMR-transformed programs identically, records virtual time (the
//! `rdtsc`-style measurement of Sec. 3.6), detects natural crashes
//! (unmapped accesses, allocator aborts, invalid execution), honours
//! `dpmr.check` comparisons, and records the first execution of
//! fault-injection markers.
//!
//! # Execution engine
//!
//! Execution is a flat dispatch loop over an explicit stack of
//! [`Frame`]s, running the **pre-resolved linear bytecode** of
//! [`crate::code`] (compiled from the IR at module load by
//! [`crate::lower`]) — *not* host-stack recursion and *not* a per-visit
//! walk of the IR tree. Every piece of per-activation state (registers,
//! function id, flat program counter, simulated stack mark, return
//! destination) lives in the `Vec<Frame>`, which makes three things
//! possible that a recursive tree-walker cannot do:
//!
//! * **Mid-run checkpoints** — [`Interp::snapshot`] captures the live
//!   frames, so a checkpoint is valid between *any* two instructions, and
//!   [`Interp::resume`] continues a restored one bit-identically.
//! * **One stop point** — [`Interp::run_until`] and
//!   [`Interp::resume_until`] pause a run at the first top-level
//!   instruction boundary where the virtual clock reaches a bound, with
//!   the frames left live. The interpreter takes no checkpoints of its
//!   own: the recovery driver pauses at its cadence, snapshots, and keeps
//!   the checkpoints itself.
//! * **Deep IR recursion** — call depth is a frame-count check against
//!   [`RunConfig::max_depth`], not a host-stack limit; chains of 10⁵
//!   simulated calls run in constant host stack space.
//!
//! Because lowering is a pure function of the module, the `pc` stored in
//! each frame is portable: a snapshot taken by one interpreter restores
//! into any interpreter of the same module.
//!
//! External (libc) handlers may re-enter the interpreter through
//! [`Interp::call`]; such nested activations run their own bounded
//! dispatch loop and are the only place host recursion remains (bounded
//! by handler nesting, e.g. `qsort` calling an IR comparator).

use crate::alloc::{AllocStats, Allocator, FreeOutcome};
use crate::code::{LoadKind, LoweredCode, Op, Opnd, StoreKind};
use crate::external::{Handler, Registry};
use crate::fault::{fault_mix, ArmedFault, FaultModel};
use crate::mem::{Mem, MemConfig, MemFault, MemSnapshot, GLOBAL_BASE, HEAP_BASE, STACK_BASE};
use crate::telemetry::{Telemetry, TelemetryConfig, TraceEvent};
use crate::value::{normalize_int, scalar_bytes, Value};
use dpmr_ir::instr::{BinOp, CastOp, CmpPred};
use dpmr_ir::module::{ExternalId, FuncId, GlobalInit, Module};
use dpmr_ir::types::{LayoutError, TypeId, TypeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Pseudo-address base for function pointers (inside an unmapped gap, so
/// dereferencing a function pointer faults like real hardware).
pub const FUNC_BASE: u64 = 0x0f00_0000;

/// Reasons the simulated process crashed (natural detection).
#[derive(Debug, Clone, PartialEq)]
pub enum CrashKind {
    /// Hardware-style memory fault.
    MemFault(MemFault),
    /// The heap allocator's error checking fired (e.g. double free).
    AllocatorAbort(String),
    /// Invalid execution: bad indirect call, division by zero, use of an
    /// unset register, argument-count confusion.
    InvalidExec(String),
}

/// Final status of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExitStatus {
    /// `main` returned with the given value.
    Normal(i64),
    /// The program self-reported an error (`abort code`); natural
    /// detection in the paper's metrics.
    AppError(i64),
    /// A `dpmr.check` comparison failed: DPMR detected a memory error.
    DpmrDetected {
        /// The two differing raw values.
        got: u64,
        /// Replica value.
        replica: u64,
    },
    /// The simulated process crashed (natural detection).
    Crash(CrashKind),
    /// Instruction budget exhausted, or the virtual clock spent
    /// (`CLOCK_LIMIT`).
    Timeout,
}

impl ExitStatus {
    /// True for statuses the evaluation counts as *natural detection*
    /// (crash or self-reported error; Sec. 3.6).
    pub fn is_natural_detection(&self) -> bool {
        matches!(self, ExitStatus::Crash(_) | ExitStatus::AppError(_))
            || matches!(self, ExitStatus::Normal(code) if *code != 0)
    }

    /// True when DPMR raised the detection.
    pub fn is_dpmr_detection(&self) -> bool {
        matches!(self, ExitStatus::DpmrDetected { .. })
    }
}

/// One `dpmr.check` mismatch, delivered to an installed [`TrapHandler`]
/// *before* the run is torn down — the hook that makes detections
/// resumable instead of terminal.
///
/// The trap records *every* compared copy (`reps`, `rep_addrs`), so a
/// recovery policy can arbitrate: with K >= 2 replicas a majority vote
/// identifies which copy — the application's or a replica's — is the
/// corrupt one, which single-replica repair must assume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTrap {
    /// Divergent application value (raw bits).
    pub got: u64,
    /// First replica's value (raw bits) — the single-replica repair
    /// source, kept alongside `reps` for the K = 1 policies.
    pub replica: u64,
    /// All replica values (raw bits), in replica order (`reps[0]` equals
    /// `replica`).
    pub reps: Vec<u64>,
    /// Application memory location the value was loaded from, when the
    /// check instruction carries it.
    pub app_addr: Option<u64>,
    /// Replica memory locations, in replica order; empty when the check
    /// carries no locations.
    pub rep_addrs: Vec<u64>,
    /// Virtual cycle of the detection.
    pub cycle: u64,
    /// Instructions executed when the detection fired.
    pub instrs: u64,
    /// Stable id of the `dpmr.check` site that fired (assigned at
    /// lowering, in function-major pc order; identical across runs of the
    /// same module).
    pub site: u32,
}

impl DetectionTrap {
    /// The strict-majority value among the K+1 compared copies
    /// (application + replicas), or `None` when no value holds a strict
    /// majority (e.g. the K = 1 one-against-one tie, or three-way
    /// disagreement at K = 2).
    pub fn majority(&self) -> Option<u64> {
        let mut values: Vec<u64> = Vec::with_capacity(1 + self.reps.len());
        values.push(self.got);
        values.extend(self.reps.iter().copied());
        let need = values.len() / 2 + 1;
        for v in &values {
            if values.iter().filter(|x| *x == v).count() >= need {
                return Some(*v);
            }
        }
        None
    }
}

/// A trap handler's verdict on one detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapAction {
    /// Tear the run down with [`ExitStatus::DpmrDetected`] (the default
    /// behaviour when no handler is installed).
    Terminate,
    /// Repair and resume: the interpreter writes the first replica's value
    /// over the divergent application location (when the check names it),
    /// fixes the in-flight register, and continues executing. When the
    /// check carries no locations, only the in-flight register is fixed —
    /// memory stays divergent and later checked loads of it will trap
    /// again. A check with nothing fixable at all (no locations and a
    /// constant operand) terminates regardless of this verdict. Assumes
    /// replica 0 is the correct copy — the assumption vote-based
    /// arbitration removes.
    Repair,
    /// Vote-and-repair (K >= 2): take a strict majority over the K+1
    /// compared copies and repair every minority copy — the application
    /// location and in-flight register when the application is outvoted,
    /// and the *replica* locations holding minority values otherwise (so
    /// a corrupted replica is restored and later checks stay meaningful,
    /// which single-replica repair cannot do). Terminates when no strict
    /// majority exists or the check names no locations.
    Vote,
}

/// Recovery hook consulted on every `dpmr.check` mismatch.
pub trait TrapHandler {
    /// Decides what the interpreter does with this detection.
    fn on_detection(&mut self, trap: &DetectionTrap) -> TrapAction;
}

/// One live activation of an IR function: the state the recursive
/// interpreter used to keep on the host call stack, reified so it can be
/// cloned into checkpoints.
///
/// Layout: `pc` is the next op's absolute index into the module's lowered
/// bytecode ([`crate::code::LoweredCode::ops`]) — a single flat counter
/// replacing the old `(block, ip)` pair; because lowering is pure, the pc
/// means the same thing in every interpreter of the same module. `func`
/// names the function the pc lies in; `regs` holds the virtual registers
/// (parameters filled at entry, the rest unset until first assignment);
/// `stack_mark` is the simulated stack pointer at entry, released when
/// the frame pops; `ret_dst` names the caller register slot receiving the
/// return value, when the call has one.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Function being executed.
    pub func: FuncId,
    /// Absolute pc of the next op within the module's lowered code.
    pub pc: u32,
    regs: Vec<Reg>,
    stack_mark: usize,
    ret_dst: Option<u32>,
}

/// One virtual-register slot: the two words of a [`Value`] — `kind` is
/// its discriminant (0 while the register is unset), `bits` its payload.
///
/// Slots are written and read one word at a time, and a value never
/// passes through memory as one 16-byte unit: a 16-byte load of a value
/// just written by two 8-byte stores cannot be store-forwarded, and that
/// stall on nearly every op was the largest single cost of dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
struct Reg {
    kind: u64,
    bits: u64,
}

/// The slot kinds of a set register: `Value`'s discriminants.
const KIND_INT: u64 = 1;
const KIND_FLOAT: u64 = 2;
const KIND_PTR: u64 = 3;

impl Reg {
    /// A register not yet assigned.
    const UNSET: Reg = Reg { kind: 0, bits: 0 };

    /// The slot holding `v`. `Value`'s discriminants are the slot kinds,
    /// so this match compiles to two word moves.
    #[inline]
    fn of(v: Value) -> Reg {
        match v {
            Value::Int(i) => Reg {
                kind: KIND_INT,
                bits: i as u64,
            },
            Value::Float(f) => Reg {
                kind: KIND_FLOAT,
                bits: f.to_bits(),
            },
            Value::Ptr(p) => Reg {
                kind: KIND_PTR,
                bits: p,
            },
        }
    }

    #[inline]
    fn set(&mut self, v: Value) {
        let Reg { kind, bits } = Reg::of(v);
        self.kind = kind;
        self.bits = bits;
    }

    /// The held value, `None` while unset.
    #[inline]
    fn value(self) -> Option<Value> {
        match self.kind {
            KIND_INT => Some(Value::Int(self.bits as i64)),
            KIND_FLOAT => Some(Value::Float(f64::from_bits(self.bits))),
            KIND_PTR => Some(Value::Ptr(self.bits)),
            _ => None,
        }
    }
}

/// Per-function metadata pre-resolved when the interpreter loads a
/// module: what frame construction needs (everything the *ops* need is
/// already baked into the bytecode by [`crate::lower`]).
#[derive(Debug, Clone)]
struct FuncMeta {
    /// Register slots receiving the arguments, in order.
    params: Vec<u32>,
    /// A fresh frame's slots: the IR registers unset, then the function's
    /// constants (globals resolved to this interpreter's addresses). A
    /// call clones it.
    template: Box<[Reg]>,
}

/// A point-in-time copy of all interpreter state that lives *between*
/// instructions: memory, allocator, live frames, RNG, virtual clock,
/// instruction and detection counters, output channel, and the cache
/// model. Because the execution stack is explicit, a snapshot is valid
/// between *any* two top-level instructions, not just at run boundaries;
/// the recovery driver uses mid-run snapshots as rollback checkpoints and
/// [`Interp::resume`] continues one bit-identically.
#[derive(Debug, Clone)]
pub struct InterpSnapshot {
    mem: MemSnapshot,
    alloc: Allocator,
    frames: Vec<Frame>,
    rng: StdRng,
    aux_rngs: BTreeMap<u32, StdRng>,
    base_seed: u64,
    clock: u64,
    instrs: u64,
    output: Vec<u64>,
    first_fi_cycle: Option<u64>,
    fi_sites_hit: BTreeSet<u32>,
    cache_tags: Box<[u64; CACHE_SETS]>,
    detections: u64,
    repairs: u64,
    first_detection_cycle: Option<u64>,
    replica_repairs: u64,
    fault_fired: Option<u64>,
    fault_hits: u64,
    tele: Telemetry,
}

impl InterpSnapshot {
    /// Virtual cycle at which the snapshot was taken.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Instructions executed when the snapshot was taken.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Virtual cycle of the first fault-injection marker executed before
    /// the snapshot was taken, if any.
    pub fn first_fi_cycle(&self) -> Option<u64> {
        self.first_fi_cycle
    }

    /// True when the snapshot captures live frames (taken mid-run):
    /// restore it and continue with [`Interp::resume`]. A run-boundary
    /// snapshot (no frames) is replayed with [`Interp::run`] instead.
    pub fn is_mid_run(&self) -> bool {
        !self.frames.is_empty()
    }
}

/// Everything measured during one run (Table 3.2's components).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final status.
    pub status: ExitStatus,
    /// Raw output channel (bit images of `output` operands).
    pub output: Vec<u64>,
    /// Virtual cycles consumed.
    pub cycles: u64,
    /// Instructions executed.
    pub instrs: u64,
    /// Virtual cycle of the first executed fault-injection marker
    /// ("successful fault injection").
    pub first_fi_cycle: Option<u64>,
    /// All fault-injection sites that executed.
    pub fi_sites_hit: BTreeSet<u32>,
    /// Virtual cycle at which detection (DPMR or crash) occurred.
    pub detect_cycle: Option<u64>,
    /// Allocator statistics.
    pub alloc_stats: AllocStats,
    /// `dpmr.check` mismatches observed, including repaired ones.
    pub detections: u64,
    /// Detections repaired in place by an installed [`TrapHandler`].
    pub repairs: u64,
    /// Minority *replica* copies rewritten by vote-based arbitration
    /// ([`TrapAction::Vote`]); always 0 under the K = 1 policies, which
    /// can only write the application side.
    pub replica_repairs: u64,
    /// Virtual cycle of the *first* detection, terminal or repaired
    /// (`detect_cycle` only covers terminal ones). Time-to-recovery
    /// measurements run from here to completion.
    pub first_detection_cycle: Option<u64>,
    /// Virtual cycle at which the armed runtime fault first fired
    /// (also surfaced through `first_fi_cycle`, so campaign metrics
    /// treat runtime and compile-time injections uniformly).
    pub fault_fired_cycle: Option<u64>,
    /// Times the armed runtime fault mutated an access (recurring
    /// classes fire on every execution of the armed site).
    pub fault_hits: u64,
}

/// Run limits and inputs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Memory sizing and garbage seed.
    pub mem: MemConfig,
    /// Instruction budget (timeout).
    pub max_instrs: u64,
    /// Arguments passed to the entry function.
    pub args: Vec<Value>,
    /// Seed for the `randint` runtime (rearrange-heap diversity).
    pub seed: u64,
    /// Maximum call depth (a count of live [`Frame`]s, not host stack).
    pub max_depth: u32,
    /// Runtime fault armed for this run (the Mem/Interp-boundary
    /// injection hook; see [`crate::fault`]). `None` runs clean.
    pub fault: Option<ArmedFault>,
    /// Telemetry collection (off by default; nothing per op when off,
    /// the same discipline as the fault hook — see [`crate::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Run every op in its own one-op hazard window, so the dispatch
    /// top, where a cycle-bounded pause lands, runs between every two ops
    /// (see `Interp::dispatch`). Window length is invisible in every
    /// observable — outcomes, virtual cycles, instruction counts,
    /// snapshots, telemetry — so this exists only for differential
    /// testing of the window bookkeeping and for measuring what long
    /// windows win. Also settable process-wide with the
    /// `DPMR_PLAIN_DISPATCH` environment variable (any value but `0`).
    pub plain_dispatch: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            mem: MemConfig::default(),
            max_instrs: 200_000_000,
            args: Vec::new(),
            seed: 1,
            // Frames live on the heap (the engine is an explicit-frame
            // dispatch loop), so depth is bounded by host memory, not the
            // host stack. 2^17 frames admits any realistic workload
            // recursion (and the deep-chain acceptance test at 10^5)
            // while capping runaway no-alloca recursion — whose frames
            // the simulated stack capacity cannot catch — to tens of MB
            // of host heap even when checkpoints clone the frame vector.
            max_depth: 1 << 17,
            fault: None,
            telemetry: TelemetryConfig::off(),
            plain_dispatch: false,
        }
    }
}

/// Process-wide `DPMR_PLAIN_DISPATCH` override (read once): forces every
/// interpreter onto one-op windows, the differential-testing knob CI
/// uses to prove long windows change nothing observable.
fn plain_dispatch_env() -> bool {
    static PLAIN: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PLAIN.get_or_init(|| {
        std::env::var("DPMR_PLAIN_DISPATCH").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Internal control-flow escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Memory fault.
    Mem(MemFault),
    /// Allocator abort.
    Alloc(String),
    /// Invalid execution.
    Invalid(String),
    /// DPMR detection.
    Dpmr { got: u64, replica: u64 },
    /// Instruction budget exhausted.
    Timeout,
    /// Program-issued abort.
    AppAbort(i64),
}

impl From<MemFault> for Trap {
    fn from(f: MemFault) -> Self {
        Trap::Mem(f)
    }
}

/// The handlers' error conversion: out of line and cold, so a memory
/// fault costs the fast path one compare-and-branch and no live value
/// has to survive a call that rejoins it.
impl From<MemFault> for Box<Trap> {
    #[cold]
    #[inline(never)]
    fn from(f: MemFault) -> Self {
        Box::new(Trap::Mem(f))
    }
}

/// Stable status-class tag for [`TraceEvent::RunEnd`] records.
fn status_class(s: &ExitStatus) -> &'static str {
    match s {
        ExitStatus::Normal(_) => "normal",
        ExitStatus::AppError(_) => "app-error",
        ExitStatus::DpmrDetected { .. } => "dpmr-detected",
        ExitStatus::Crash(_) => "crash",
        ExitStatus::Timeout => "timeout",
    }
}

fn status_of(t: Trap) -> ExitStatus {
    match t {
        Trap::Mem(f) => ExitStatus::Crash(CrashKind::MemFault(f)),
        Trap::Alloc(m) => ExitStatus::Crash(CrashKind::AllocatorAbort(m)),
        Trap::Invalid(m) => ExitStatus::Crash(CrashKind::InvalidExec(m)),
        Trap::Dpmr { got, replica } => ExitStatus::DpmrDetected { got, replica },
        Trap::Timeout => ExitStatus::Timeout,
        Trap::AppAbort(c) => ExitStatus::AppError(c),
    }
}

/// Approximate cycle costs, coarse-grained in the spirit of a simple
/// in-order core. Only *relative* costs matter for overhead figures.
mod cost {
    pub const ALU: u64 = 1;
    /// Extra cycles for a simulated L2 cache miss (Table 3.1's 256 KB L2).
    pub const CACHE_MISS: u64 = 18;
    pub const MEM: u64 = 3;
    pub const ADDR: u64 = 1;
    pub const BRANCH: u64 = 1;
    pub const CALL: u64 = 6;
    pub const RET: u64 = 3;
    pub const MALLOC_BASE: u64 = 60;
    pub const FREE: u64 = 40;
    pub const CHECK: u64 = 1;
    pub const RAND: u64 = 12;
    pub const OUTPUT: u64 = 12;
}

/// The pc a handler returns when it parked a frame change or a trap in
/// `Interp::frame_op`. It lies outside every op stream, so a jump that
/// targets it (malformed code) still traps at the next fetch.
const FRAME_OP: u32 = u32::MAX;

/// A frame change or trap parked by a handler, settled by the dispatch
/// loop when the handler returns [`FRAME_OP`].
enum FrameOp {
    /// Push a new frame for an IR-to-IR call (direct or resolved
    /// indirect); the dispatch loop continues in the callee.
    Call {
        f: FuncId,
        args: Vec<Value>,
        dst: Option<u32>,
    },
    /// Pop the current frame, delivering an optional return value.
    Ret(Option<Value>),
    /// Unwind: the op trapped.
    Trap(Box<Trap>),
}

/// The virtual cycle at which a run's clock is spent: the window closes
/// there and the run ends with [`ExitStatus::Timeout`]. Large charges
/// (allocation sizes, external handlers) saturate, and the margin below
/// `u64::MAX` absorbs every fixed per-op charge, so the clock never
/// wraps. No real run comes near it.
const CLOCK_LIMIT: u64 = u64::MAX - (1 << 32);

/// Sets of the direct-mapped cache model (see `Interp::cache_tags`).
const CACHE_SETS: usize = 4096;

/// How a dispatch loop ended.
enum DispatchEnd {
    /// The base frame returned with this value.
    Returned(Option<Value>),
    /// The pause cycle was reached at a top-level instruction boundary
    /// (only with a bound from [`Interp::resume_until`]); frames stay
    /// live.
    Paused,
}

/// How one hazard window ([`Interp::run_window`]) ended. Traps —
/// including the instruction budget's timeout — propagate as `Err`;
/// these are the non-trap exits.
enum Window {
    /// The base activation returned with this value.
    Returned(Option<Value>),
    /// The window closed on a boundary the dispatch-loop *top* settles
    /// (the pause cycle reached, or the end of a one-op window): loop
    /// back to the top so the pause lands at exactly its instruction
    /// boundary, then reopen a window.
    Closed,
}

/// Uniform signature of an op handler, reachable through one indirect
/// call via [`HANDLERS`]. A handler gets its own pc and returns the next
/// one, or [`FRAME_OP`] after parking a call, a return or a trap: the
/// next pc comes back in a register, and the loop's one sentinel compare
/// covers every exit that is not straight-line.
type OpHandler = for<'a, 'b, 'c, 'm> fn(&'a mut Interp<'m>, &'b mut [Reg], &'c Op, u32) -> u32;

/// An op body's result: the next pc, or a boxed trap (one word, so the
/// error path never widens the fast path's return).
type Step = Result<u32, Box<Trap>>;

/// The interpreter.
pub struct Interp<'m> {
    /// Program being executed.
    pub module: &'m Module,
    /// Simulated memory.
    pub mem: Mem,
    /// Heap allocator.
    pub alloc: Allocator,
    global_addrs: Vec<u64>,
    /// Why the module's globals could not be laid out, when they could
    /// not: every run then ends at once with this as an invalid-execution
    /// crash.
    load_error: Option<String>,
    /// The module compiled to linear bytecode at load.
    code: Rc<LoweredCode>,
    /// Per-function frame-construction metadata.
    meta: Vec<FuncMeta>,
    /// External handlers pre-resolved per external declaration (`None`
    /// for names absent from the registry; calling one traps at the call
    /// site, as the per-call name lookup used to).
    ext_handlers: Vec<Option<Handler>>,
    rng: StdRng,
    /// Independent diversity RNG streams (stream k > 0 serves replica k's
    /// `randint.sk` draws), created lazily from `(base_seed, k)` so each
    /// replica's layout decisions decorrelate from the others'.
    aux_rngs: BTreeMap<u32, StdRng>,
    /// The seed the run (and every derived stream) was created from.
    base_seed: u64,
    clock: u64,
    instrs: u64,
    max_instrs: u64,
    output: Vec<u64>,
    first_fi_cycle: Option<u64>,
    fi_sites_hit: BTreeSet<u32>,
    /// The explicit execution stack.
    frames: Vec<Frame>,
    max_frames: u32,
    /// Direct-mapped cache tags: 4096 sets x 64-byte lines = 256 KB,
    /// matching the testbed's L2 (Table 3.1). Loads and stores that miss
    /// pay an extra latency, so memory-layout diversity (pad-malloc,
    /// rearrange-heap) has the locality cost the paper observes.
    cache_tags: Box<[u64; CACHE_SETS]>,
    trap_handler: Option<Rc<RefCell<dyn TrapHandler>>>,
    detections: u64,
    repairs: u64,
    replica_repairs: u64,
    first_detection_cycle: Option<u64>,
    /// Virtual cycle at which the top-level dispatch pauses (`u64::MAX`
    /// for an unbounded run, which the clock limit ends first).
    pause_at: u64,
    /// Runtime fault armed for this run, when any.
    armed: Option<ArmedFault>,
    /// The handler ids this run dispatches through, when they differ
    /// from the shared `code.handler_ids` (see [`run_handler_ids`]).
    run_ids: Option<Rc<[u8]>>,
    /// Under pc profiling, the id [`h_profile`] forwards each pc to: the
    /// table the run would dispatch through unprofiled. Empty otherwise.
    profiled_ids: Box<[u8]>,
    /// The call, return or trap the last handler parked (see
    /// [`FRAME_OP`]); always `None` between ops.
    frame_op: Option<FrameOp>,
    /// Virtual cycle of the first fault application on this timeline.
    fault_fired: Option<u64>,
    /// Fault applications on this timeline.
    fault_hits: u64,
    /// Telemetry collection flags (never change mid-run; a snapshot
    /// restore rolls back the *data*, not the configuration).
    tele_cfg: TelemetryConfig,
    /// Collected telemetry data (all-empty when collection is off, so
    /// snapshot clones stay free).
    tele: Telemetry,
    /// One-op hazard windows (config flag or `DPMR_PLAIN_DISPATCH`).
    plain_dispatch: bool,
}

impl<'m> Interp<'m> {
    /// Creates an interpreter: lowers the module to bytecode, allocates
    /// and initializes all globals, and pre-resolves per-function
    /// metadata and external handlers. Globals that cannot be laid out
    /// (an unsized type, more bytes than the global region holds, an
    /// initializer that does not fit the type) do not panic: every run
    /// of the interpreter ends at once as an invalid-execution crash
    /// that names the global.
    pub fn new(module: &'m Module, cfg: &RunConfig, externals: Rc<Registry>) -> Self {
        Self::with_code(module, Rc::new(crate::lower::lower(module)), cfg, externals)
    }

    /// Like [`Interp::new`] but reusing already-lowered bytecode (`code`
    /// must have been lowered from this `module`). Lowering is pure, so
    /// one `LoweredCode` can back any number of interpreters — callers
    /// that execute the same module many times (benchmark loops, trial
    /// campaigns) amortize the load-time compilation this way.
    pub fn with_code(
        module: &'m Module,
        code: Rc<LoweredCode>,
        cfg: &RunConfig,
        externals: Rc<Registry>,
    ) -> Self {
        // Hand-built code (tests construct `LoweredCode` literals) may
        // lack the handler-id side-table; re-derive it so the threaded
        // dispatcher can trust `handler_ids[pc] == handler_id(&ops[pc])`.
        let code = if code.handler_ids.len() == code.ops.len() {
            code
        } else {
            let mut c = (*code).clone();
            c.rebuild_handler_ids();
            Rc::new(c)
        };
        let mut mem = Mem::new(&cfg.mem);
        // Pass 1: allocate. A global that cannot be placed gets the null
        // address; the load error keeps any run from starting.
        let mut load_error = None;
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let addr = match module.types.size_of(g.ty) {
                Ok(size) => mem.alloc_global(size).ok_or_else(|| {
                    format!(
                        "{size} bytes do not fit the {}-byte global region",
                        cfg.mem.global_capacity
                    )
                }),
                Err(e) => Err(e.to_string()),
            };
            global_addrs.push(addr.unwrap_or_else(|e| {
                load_error.get_or_insert(format!("global {}: {e}", g.name));
                0
            }));
        }
        // Frame templates: lowered code lays each function's slots out in
        // `code.frames`; hand-built code without a layout gets the IR
        // registers alone.
        let meta = module
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let layout = code.frames.get(i);
                let nregs = layout.map_or(f.regs.len(), |l| l.regs as usize);
                let consts = layout.map_or(&[][..], |l| &l.consts[..]);
                let template = std::iter::repeat_n(Reg::UNSET, nregs)
                    .chain(consts.iter().map(|c| {
                        match *c {
                            Opnd::Imm(v) => Reg::of(v),
                            Opnd::Global(g) => global_addrs
                                .get(g as usize)
                                .map_or(Reg::UNSET, |&a| Reg::of(Value::Ptr(a))),
                            Opnd::Reg(_) => Reg::UNSET,
                        }
                    }))
                    .collect();
                FuncMeta {
                    params: f.params.iter().map(|p| p.0).collect(),
                    template,
                }
            })
            .collect();
        let ext_handlers = module
            .externals
            .iter()
            .map(|e| externals.get(&e.name))
            .collect();
        let (run_ids, profiled_ids) = run_handler_ids(&code, cfg);
        let mut it = Interp {
            module,
            mem,
            alloc: Allocator::new(),
            global_addrs,
            load_error,
            code,
            meta,
            ext_handlers,
            rng: StdRng::seed_from_u64(cfg.seed),
            aux_rngs: BTreeMap::new(),
            base_seed: cfg.seed,
            clock: 0,
            instrs: 0,
            max_instrs: cfg.max_instrs,
            output: Vec::new(),
            first_fi_cycle: None,
            fi_sites_hit: BTreeSet::new(),
            frames: Vec::new(),
            max_frames: cfg.max_depth,
            cache_tags: Box::new([u64::MAX; CACHE_SETS]),
            trap_handler: None,
            detections: 0,
            repairs: 0,
            replica_repairs: 0,
            first_detection_cycle: None,
            pause_at: u64::MAX,
            armed: cfg.fault,
            run_ids,
            profiled_ids,
            frame_op: None,
            fault_fired: None,
            fault_hits: 0,
            tele_cfg: cfg.telemetry,
            tele: Telemetry::default(),
            plain_dispatch: cfg.plain_dispatch || plain_dispatch_env(),
        };
        if it.tele_cfg.sites {
            it.tele.site_stats = vec![Default::default(); it.code.check_sites as usize];
        }
        if it.tele_cfg.profile {
            it.tele.pc_exec = vec![0; it.code.ops.len()];
        }
        // Pass 2: initialize, up to the first global that does not fit.
        for (i, g) in module.globals.iter().enumerate() {
            if it.load_error.is_some() {
                break;
            }
            let addr = it.global_addrs[i];
            if let Err(e) = it.init_global(g.ty, &g.init, addr) {
                it.load_error = Some(format!("global {}: {e}", g.name));
            }
        }
        it
    }

    /// Writes `init` as a value of type `ty` at `addr`, or says why it
    /// does not fit (an initializer the verifier rejects).
    fn init_global(&mut self, ty: TypeId, init: &GlobalInit, addr: u64) -> Result<(), String> {
        let tt = &self.module.types;
        let scalar = |v: Value| match StoreKind::of(tt, ty) {
            Some(kind) => Ok((kind, v)),
            None => Err(format!("scalar initializer for {:?}", tt.kind(ty))),
        };
        let written = match init {
            GlobalInit::Zero => {
                let n = tt.size_of(ty).map_err(|e| e.to_string())?;
                self.mem.write(addr, &vec![0u8; n as usize])
            }
            GlobalInit::Int(v) => {
                let (kind, v) = scalar(Value::Int(*v))?;
                crate::value::store_kind(&mut self.mem, kind, addr, v)
            }
            GlobalInit::Float(f) => {
                let (kind, v) = scalar(Value::Float(*f))?;
                crate::value::store_kind(&mut self.mem, kind, addr, v)
            }
            GlobalInit::Null => self.mem.write_u64(addr, 0),
            GlobalInit::Ref(g) => match self.global_addrs.get(g.0 as usize) {
                Some(&target) => self.mem.write_u64(addr, target),
                None => return Err(format!("reference to unknown global g{}", g.0)),
            },
            GlobalInit::FuncRef(f) => self.mem.write_u64(addr, FUNC_BASE + u64::from(f.0)),
            GlobalInit::Bytes(b) => self.mem.write(addr, b),
            GlobalInit::Composite(items) => {
                for (i, item) in items.iter().enumerate() {
                    let (field, off) = match tt.kind(ty) {
                        TypeKind::Struct { fields, .. } if fields.len() == items.len() => {
                            (fields[i], tt.field_offset(ty, i))
                        }
                        TypeKind::Array { elem, .. } => (
                            *elem,
                            tt.size_of(*elem).and_then(|n| {
                                n.checked_mul(i as u64).ok_or(LayoutError::Overflow(ty))
                            }),
                        ),
                        other => return Err(format!("composite initializer for {other:?}")),
                    };
                    let off = off.map_err(|e| e.to_string())?;
                    self.init_global(field, item, addr.wrapping_add(off))?;
                }
                Ok(())
            }
        };
        written.map_err(|e| e.to_string())
    }

    /// Address assigned to a global.
    pub fn global_addr(&self, g: dpmr_ir::module::GlobalId) -> u64 {
        self.global_addrs[g.0 as usize]
    }

    /// The module's lowered bytecode.
    pub fn code(&self) -> &LoweredCode {
        &self.code
    }

    /// Installs a recovery trap handler: `dpmr.check` mismatches become
    /// resumable [`DetectionTrap`]s delivered to the handler instead of
    /// unconditionally terminal exits.
    pub fn set_trap_handler(&mut self, handler: Rc<RefCell<dyn TrapHandler>>) {
        self.trap_handler = Some(handler);
    }

    /// Removes the recovery trap handler (detections become terminal again).
    pub fn clear_trap_handler(&mut self) {
        self.trap_handler = None;
    }

    /// Number of live frames (simulated call depth).
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    /// The virtual clock: cycles charged so far on this timeline.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Instructions executed so far on this timeline.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Captures a checkpoint of all between-instruction interpreter
    /// state, *including live frames*: valid between any two top-level
    /// instructions. The recovery driver replays from the nearest one on
    /// trap; a mid-run snapshot restores into [`Interp::resume`].
    pub fn snapshot(&self) -> InterpSnapshot {
        InterpSnapshot {
            mem: self.mem.snapshot(),
            alloc: self.alloc.clone(),
            frames: self.frames.clone(),
            rng: self.rng.clone(),
            aux_rngs: self.aux_rngs.clone(),
            base_seed: self.base_seed,
            clock: self.clock,
            instrs: self.instrs,
            output: self.output.clone(),
            first_fi_cycle: self.first_fi_cycle,
            fi_sites_hit: self.fi_sites_hit.clone(),
            cache_tags: self.cache_tags.clone(),
            detections: self.detections,
            repairs: self.repairs,
            replica_repairs: self.replica_repairs,
            first_detection_cycle: self.first_detection_cycle,
            fault_fired: self.fault_fired,
            fault_hits: self.fault_hits,
            tele: self.tele.clone(),
        }
    }

    /// Restores a checkpoint taken by [`Interp::snapshot`] on this
    /// interpreter (or one configured identically). Execution state —
    /// memory, allocator, frames, RNG, clocks, counters, output — returns
    /// to the captured point bit-for-bit, so a deterministic continuation
    /// ([`Interp::resume`] for mid-run snapshots, [`Interp::run`] for
    /// run-boundary ones) reproduces the original exactly.
    pub fn restore(&mut self, snap: &InterpSnapshot) {
        self.mem.restore(&snap.mem);
        self.alloc = snap.alloc.clone();
        self.frames = snap.frames.clone();
        self.rng = snap.rng.clone();
        self.aux_rngs = snap.aux_rngs.clone();
        self.base_seed = snap.base_seed;
        self.clock = snap.clock;
        self.instrs = snap.instrs;
        self.output = snap.output.clone();
        self.first_fi_cycle = snap.first_fi_cycle;
        self.fi_sites_hit = snap.fi_sites_hit.clone();
        self.cache_tags = snap.cache_tags.clone();
        self.detections = snap.detections;
        self.repairs = snap.repairs;
        self.replica_repairs = snap.replica_repairs;
        self.first_detection_cycle = snap.first_detection_cycle;
        // Restoring to a pre-fire point re-arms a one-shot fault: the
        // replay refires it at the same deterministic point, so rollback
        // timelines stay bit-identical to the original's prefix.
        self.fault_fired = snap.fault_fired;
        self.fault_hits = snap.fault_hits;
        // Telemetry rolls back with the rest of the state — profiles and
        // the event trace return to the captured prefix, so a replay
        // reproduces the original trace byte-identically. No restore
        // event is emitted here; the recovery driver records rollbacks
        // explicitly via [`Interp::record_event`] on the new timeline.
        self.tele = snap.tele.clone();
    }

    /// Re-seeds the runtime RNG and garbage-fill seed. A recovery retry
    /// calls this after [`Interp::restore`] so the replay runs in a
    /// *diverse* environment (different rearrange-heap draws and fresh-
    /// allocation garbage), the Rx-style avoidance that lets a replay
    /// succeed where the original layout corrupted live state.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        // Derived diversity streams re-derive from the new seed on their
        // next draw, so every replica's layout decisions diversify too.
        self.base_seed = seed;
        self.aux_rngs.clear();
        self.mem
            .set_fill_seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    }

    /// The active telemetry configuration (fixed at construction).
    pub fn telemetry_config(&self) -> TelemetryConfig {
        self.tele_cfg
    }

    /// The telemetry collected so far on this timeline (empty vectors
    /// when collection is off).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Takes the collected telemetry, leaving freshly-sized empty
    /// counters behind (callers that harvest between runs).
    pub fn take_telemetry(&mut self) -> Telemetry {
        let mut fresh = Telemetry::default();
        if self.tele_cfg.sites {
            fresh.site_stats = vec![Default::default(); self.code.check_sites as usize];
        }
        if self.tele_cfg.profile {
            fresh.pc_exec = vec![0; self.code.ops.len()];
        }
        std::mem::replace(&mut self.tele, fresh)
    }

    /// Appends an event to the trace when tracing is enabled. Public so
    /// drivers above the VM (the recovery retry loop) can record
    /// timeline-level events — rollback restores and escalations — that
    /// the interpreter itself must not emit (a [`Interp::restore`] rolls
    /// the trace back instead, keeping replays byte-identical).
    pub fn record_event(&mut self, ev: TraceEvent) {
        if self.tele_cfg.trace {
            self.tele.push(ev);
        }
    }

    /// Charges virtual cycles (used by external handlers). The charge
    /// saturates, and a run whose clock passes `CLOCK_LIMIT` ends with
    /// [`ExitStatus::Timeout`] at the next instruction boundary.
    pub fn charge(&mut self, cycles: u64) {
        self.clock = self.clock.saturating_add(cycles);
    }

    /// Simulates one cache access; misses cost extra cycles.
    pub fn touch(&mut self, addr: u64) {
        let set = ((addr >> 6) as usize) % CACHE_SETS;
        let tag = addr >> 18;
        if self.cache_tags[set] != tag {
            self.cache_tags[set] = tag;
            self.clock += cost::CACHE_MISS;
        }
    }

    /// Appends a scalar to the output channel.
    pub fn push_output(&mut self, v: Value) {
        self.output.push(v.to_bits());
    }

    /// Reads a NUL-terminated byte string from simulated memory.
    ///
    /// # Errors
    /// Traps when the scan runs off mapped memory.
    pub fn read_c_string(&self, addr: u64) -> Result<Vec<u8>, Trap> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.mem.read(a, 1)?[0];
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            a += 1;
            if out.len() > 1 << 20 {
                return Err(Trap::Invalid("unterminated string".into()));
            }
        }
    }

    /// Allocates heap memory (external-handler API).
    ///
    /// # Errors
    /// Traps on allocator-metadata faults.
    pub fn malloc_bytes(&mut self, size: u64) -> Result<u64, Trap> {
        // Saturating (see `charge`): a size no heap can hold still gets
        // a finite charge, and the allocation returns null.
        self.charge(cost::MALLOC_BASE + size / 16);
        Ok(self.alloc.malloc(&mut self.mem, size)?)
    }

    /// Frees heap memory (external-handler API), honouring the allocator's
    /// crash/corrupt semantics.
    ///
    /// # Errors
    /// Traps on allocator aborts.
    pub fn free_ptr(&mut self, ptr: u64) -> Result<(), Trap> {
        self.charge(cost::FREE);
        match self.alloc.free(&mut self.mem, ptr) {
            FreeOutcome::Ok | FreeOutcome::SilentCorruption => Ok(()),
            FreeOutcome::Abort(msg) => Err(Trap::Alloc(msg)),
        }
    }

    /// Calls a function through a function-pointer value (external-handler
    /// API; e.g. `qsort`'s comparator).
    ///
    /// # Errors
    /// Traps if the pointer does not reference a function.
    pub fn call_fn_ptr(&mut self, fnptr: u64, args: Vec<Value>) -> Result<Option<Value>, Trap> {
        match self.resolve_fn_ptr(fnptr) {
            Some(f) => self.call(f, args),
            None => Err(Trap::Invalid(format!(
                "indirect call of non-function address {fnptr:#x}"
            ))),
        }
    }

    fn resolve_fn_ptr(&self, fnptr: u64) -> Option<FuncId> {
        let idx = fnptr.wrapping_sub(FUNC_BASE);
        if (idx as usize) < self.module.funcs.len() {
            Some(FuncId(idx as u32))
        } else {
            None
        }
    }

    /// Uniform random integer in `[lo, hi]` from the run-seeded RNG
    /// (external-handler API mirroring the `randint` instruction).
    pub fn rand_range(&mut self, lo: i64, hi: i64) -> i64 {
        self.rand_range_stream(0, lo, hi)
    }

    /// Like [`Interp::rand_range`] but drawing from RNG stream `stream`.
    /// Stream 0 is the run-seeded default; stream `k > 0` is an
    /// independent stream derived from `(run seed, k)` on first use —
    /// replica `k`'s decorrelated diversity stream.
    pub fn rand_range_stream(&mut self, stream: u32, lo: i64, hi: i64) -> i64 {
        if lo >= hi {
            return lo;
        }
        let rng = if stream == 0 {
            &mut self.rng
        } else {
            let base = self.base_seed;
            self.aux_rngs.entry(stream).or_insert_with(|| {
                StdRng::seed_from_u64(crate::fault::fault_mix(base, u64::from(stream)))
            })
        };
        rng.gen_range(lo..=hi)
    }

    /// Runs the module's entry function with the configured arguments.
    pub fn run(&mut self, args: Vec<Value>) -> RunOutcome {
        self.run_until(args, u64::MAX)
            .expect("an unbounded run always completes")
    }

    /// Begins a run but pauses at the first top-level instruction boundary
    /// where the virtual clock has reached `cycle`. Returns the final
    /// outcome when the program finished first, `None` when paused
    /// mid-run — snapshot the paused state and/or continue it with
    /// [`Interp::resume`] or [`Interp::resume_until`]. The pause lands
    /// *between* two instructions of the outermost dispatch loop;
    /// external-handler re-entry is never split. A pause that falls due
    /// where the instruction budget runs out still lands: the budget's
    /// timeout follows on resuming.
    pub fn run_until(&mut self, args: Vec<Value>, cycle: u64) -> Option<RunOutcome> {
        match self.start(args) {
            None => self.resume_until(cycle),
            Some(out) => Some(out),
        }
    }

    /// Continues a paused or restored mid-run execution until completion.
    ///
    /// # Panics
    /// Panics when no frames are live (nothing to resume): pair it with
    /// [`Interp::run_until`] or a restored mid-run [`InterpSnapshot`].
    pub fn resume(&mut self) -> RunOutcome {
        self.resume_until(u64::MAX)
            .expect("an unbounded resume always completes")
    }

    /// Like [`Interp::resume`] but pauses again at the first top-level
    /// instruction boundary where the virtual clock has reached `cycle`;
    /// `None` means paused.
    ///
    /// # Panics
    /// Panics when no frames are live (nothing to resume).
    pub fn resume_until(&mut self, cycle: u64) -> Option<RunOutcome> {
        assert!(
            !self.frames.is_empty(),
            "resume requires live frames (a paused run or a mid-run restore)"
        );
        self.pause_at = cycle;
        match self.dispatch(0) {
            Ok(DispatchEnd::Paused) => None,
            Ok(DispatchEnd::Returned(v)) => {
                let code = match v {
                    Some(Value::Int(c)) => c,
                    _ => 0,
                };
                Some(self.finish(ExitStatus::Normal(code)))
            }
            Err(t) => Some(self.finish(status_of(t))),
        }
    }

    /// Clears stale frames and pushes the entry activation. Returns the
    /// terminal outcome when the run cannot even begin (no entry function
    /// or a rejected entry call), `None` when frames are live.
    fn start(&mut self, args: Vec<Value>) -> Option<RunOutcome> {
        self.unwind(0);
        if self.tele_cfg.trace {
            self.tele.push(TraceEvent::RunStart {
                cycle: self.clock,
                seed: self.base_seed,
            });
            if let Some(a) = self.armed {
                self.tele.push(TraceEvent::FaultArmed {
                    cycle: self.clock,
                    site: a.site,
                    class: a.fault.name(),
                });
            }
        }
        if let Some(e) = &self.load_error {
            let status = ExitStatus::Crash(CrashKind::InvalidExec(e.clone()));
            return Some(self.finish(status));
        }
        let entry = match self.module.entry {
            Some(e) => e,
            None => {
                return Some(self.finish(ExitStatus::Crash(CrashKind::InvalidExec(
                    "module has no entry function".into(),
                ))))
            }
        };
        match self.push_frame(entry, args, None) {
            Ok(()) => None,
            Err(t) => Some(self.finish(status_of(t))),
        }
    }

    fn finish(&mut self, status: ExitStatus) -> RunOutcome {
        if self.tele_cfg.trace {
            self.tele.push(TraceEvent::RunEnd {
                cycle: self.clock,
                status: status_class(&status),
            });
        }
        let detect_cycle = match &status {
            ExitStatus::DpmrDetected { .. } | ExitStatus::Crash(_) | ExitStatus::AppError(_) => {
                Some(self.clock)
            }
            _ => None,
        };
        RunOutcome {
            status,
            output: std::mem::take(&mut self.output),
            cycles: self.clock,
            instrs: self.instrs,
            first_fi_cycle: self.first_fi_cycle,
            fi_sites_hit: std::mem::take(&mut self.fi_sites_hit),
            detect_cycle,
            alloc_stats: self.alloc.stats,
            detections: self.detections,
            repairs: self.repairs,
            replica_repairs: self.replica_repairs,
            first_detection_cycle: self.first_detection_cycle,
            fault_fired_cycle: self.fault_fired,
            fault_hits: self.fault_hits,
        }
    }

    /// Calls function `f` with `args` and runs it to completion in a
    /// nested dispatch loop (external handlers re-enter through this; the
    /// nested activations live on the same explicit frame stack).
    ///
    /// # Errors
    /// Propagates any trap raised during execution.
    pub fn call(&mut self, f: FuncId, args: Vec<Value>) -> Result<Option<Value>, Trap> {
        let base = self.frames.len();
        self.push_frame(f, args, None)?;
        match self.dispatch(base)? {
            DispatchEnd::Returned(v) => Ok(v),
            DispatchEnd::Paused => unreachable!("nested dispatch never pauses"),
        }
    }

    /// Pushes a frame for `f` at its entry pc, enforcing the frame-count
    /// depth guard and the callee's arity.
    fn push_frame(
        &mut self,
        f: FuncId,
        args: Vec<Value>,
        ret_dst: Option<u32>,
    ) -> Result<(), Trap> {
        if self.frames.len() as u32 >= self.max_frames {
            return Err(Trap::Mem(MemFault {
                addr: 0,
                kind: crate::mem::MemFaultKind::StackOverflow,
            }));
        }
        let meta = &self.meta[f.0 as usize];
        if meta.params.len() != args.len() {
            return Err(Trap::Invalid(format!(
                "call of {} with {} args (expects {})",
                self.module.func(f).name,
                args.len(),
                meta.params.len()
            )));
        }
        let mut regs = meta.template.to_vec();
        for (&p, a) in meta.params.iter().zip(args) {
            set_reg(&mut regs, p, a);
        }
        self.frames.push(Frame {
            func: f,
            pc: self.code.entry(f),
            regs,
            stack_mark: self.mem.stack_mark(),
            ret_dst,
        });
        Ok(())
    }

    /// Pops frames down to `base`, releasing their simulated stack space
    /// (the explicit-stack equivalent of host-stack unwinding on a trap).
    fn unwind(&mut self, base: usize) {
        while self.frames.len() > base {
            let fr = self.frames.pop().expect("len checked");
            self.mem.stack_release(fr.stack_mark);
        }
    }

    /// The flat dispatch loop: executes the lowered bytecode of frames
    /// above `base` until the base activation returns, a trap unwinds to
    /// `base`, or (top level only) the clock reaches the pause cycle. All
    /// simulated execution state stays in `self.frames`; the host stack
    /// does not grow with simulated call depth.
    ///
    /// Each iteration settles the pause at the loop *top* (top level
    /// only) and then runs one hazard window ([`Interp::run_window`]),
    /// which executes ops until the nearest point where the pause, the
    /// instruction budget or the clock limit can fall due. Windows are
    /// one op long under [`RunConfig::plain_dispatch`]; otherwise they
    /// span everything up to the next hazard. Window length is invisible:
    /// every observable — instruction counts, virtual cycles, traps,
    /// telemetry, snapshots — is the same either way.
    fn dispatch(&mut self, base: usize) -> Result<DispatchEnd, Trap> {
        // The bytecode and the run's handler ids are behind an Rc so they
        // can be borrowed across the `&mut self` op execution (neither
        // changes during a run).
        let code = Rc::clone(&self.code);
        let run_ids = self.run_ids.clone();
        let ids = run_ids.as_deref().unwrap_or(&code.handler_ids);
        loop {
            // A spent clock never pauses: the window ends the run.
            if base == 0 && self.clock >= self.pause_at && self.clock < CLOCK_LIMIT {
                return Ok(DispatchEnd::Paused);
            }
            if let Window::Returned(v) = self.run_window(&code.ops, ids, base)? {
                return Ok(DispatchEnd::Returned(v));
            }
        }
    }

    /// One hazard window. On entry it computes the window bounds — the
    /// nearest instruction count and virtual cycle at which a dispatch-top
    /// concern can fire:
    ///
    /// * `instr_hazard` — the instruction budget, or under
    ///   [`RunConfig::plain_dispatch`] the next op boundary;
    /// * `cycle_hazard` — the pause cycle (top level only) or
    ///   [`CLOCK_LIMIT`], whichever is nearer.
    ///
    /// Until a bound is reached, ops execute with the frame index, pc,
    /// and registers cached in locals: one fetch from the run's handler
    /// ids and one indirect handler call per op, whose result is the next
    /// pc. Nothing else runs per op: the fault injection and the pc
    /// profile are entries of the run's own table ([`run_handler_ids`]),
    /// so only the armed site, or a profiled run, pays for them.
    /// Calls, returns and traps come back as [`FRAME_OP`] with the request
    /// in `frame_op`; settling a call or return re-caches the locals.
    /// Closing the window parks pc and registers back into the frame, so
    /// the state a caller observes is an exact instruction boundary
    /// (snapshots taken at the dispatch top stay valid and portable).
    #[inline(never)]
    fn run_window(&mut self, ops: &[Op], ids: &[u8], base: usize) -> Result<Window, Trap> {
        let mut instr_hazard = self.max_instrs;
        let mut cycle_hazard = CLOCK_LIMIT;
        if base == 0 {
            cycle_hazard = cycle_hazard.min(self.pause_at);
        }
        if self.plain_dispatch {
            instr_hazard = instr_hazard.min(self.instrs + 1);
        }
        let mut fi = self.frames.len() - 1;
        let mut pc = self.frames[fi].pc;
        let mut regs = std::mem::take(&mut self.frames[fi].regs);
        loop {
            if self.instrs >= instr_hazard || self.clock >= cycle_hazard {
                self.frames[fi].pc = pc;
                self.frames[fi].regs = regs;
                return self.close_window(base);
            }
            let (Some(op), Some(&id)) = (ops.get(pc as usize), ids.get(pc as usize)) else {
                self.unwind(base);
                return Err(pc_out_of_range(pc));
            };
            self.instrs += 1;
            let next = HANDLERS[usize::from(id)](self, &mut regs, op, pc);
            if next != FRAME_OP {
                pc = next;
                continue;
            }
            match self.frame_op.take() {
                Some(FrameOp::Call { f, args, dst }) => {
                    // Return lands on the op after the call.
                    self.frames[fi].pc = pc + 1;
                    self.frames[fi].regs = regs;
                    if let Err(t) = self.push_frame(f, args, dst) {
                        self.unwind(base);
                        return Err(t);
                    }
                    fi = self.frames.len() - 1;
                    pc = self.frames[fi].pc;
                    regs = std::mem::take(&mut self.frames[fi].regs);
                }
                Some(FrameOp::Ret(val)) => {
                    let fr = self.frames.pop().expect("a frame is live");
                    self.mem.stack_release(fr.stack_mark);
                    if self.frames.len() == base {
                        return Ok(Window::Returned(val));
                    }
                    fi = self.frames.len() - 1;
                    pc = self.frames[fi].pc;
                    regs = std::mem::take(&mut self.frames[fi].regs);
                    if let Some(d) = fr.ret_dst {
                        match val {
                            Some(v) => set_reg(&mut regs, d, v),
                            None => {
                                self.unwind(base);
                                return Err(*void_call_value());
                            }
                        }
                    }
                }
                Some(FrameOp::Trap(t)) => {
                    self.unwind(base);
                    return Err(*t);
                }
                // Nothing parked: a jump targeted the sentinel itself, and
                // the next fetch traps it like any pc outside the stream.
                None => pc = next,
            }
        }
    }

    /// Decides how a closed hazard window resumes (out of line: window
    /// closure is orders of magnitude rarer than op execution).
    #[cold]
    #[inline(never)]
    fn close_window(&mut self, base: usize) -> Result<Window, Trap> {
        // The virtual clock is spent: the run ends here, before any pause
        // (whose cycle it may be past for good) or further op.
        if self.clock >= CLOCK_LIMIT {
            self.unwind(base);
            return Err(Trap::Timeout);
        }
        // A due pause is the dispatch top's to settle, and it outranks
        // the instruction budget there.
        if (base == 0 && self.clock >= self.pause_at) || self.instrs < self.max_instrs {
            return Ok(Window::Closed);
        }
        // The instruction budget is spent: the next op times out, and is
        // counted as executed.
        self.instrs += 1;
        self.unwind(base);
        Err(Trap::Timeout)
    }

    /// Evaluates call arguments in operand order, then charges the call
    /// cost — the one definition of call accounting shared by direct,
    /// indirect, and external calls (their virtual-cycle behaviour must
    /// never desynchronize).
    fn eval_call_args(&mut self, regs: &[Reg], args: &[u32]) -> Result<Vec<Value>, Box<Trap>> {
        let mut vals = Vec::with_capacity(args.len());
        for &a in args {
            vals.push(eval(regs, a)?);
        }
        self.clock += cost::CALL + args.len() as u64;
        Ok(vals)
    }

    /// Decodes a scalar from memory per its pre-resolved kind.
    #[inline]
    fn load_kind(&self, kind: LoadKind, a: u64) -> Result<Value, Box<Trap>> {
        Ok(crate::value::load_kind(&self.mem, kind, a)?)
    }

    /// Encodes a scalar to memory per its pre-resolved kind.
    #[inline]
    fn store_kind(&mut self, a: u64, kind: StoreKind, v: Value) -> Result<(), Box<Trap>> {
        Ok(crate::value::store_kind(&mut self.mem, kind, a, v)?)
    }

    /// The armed fault, if its firing conditions hold at the current
    /// clock (arm cycle reached; one-shot classes not yet spent).
    fn fault_active(&self) -> Option<ArmedFault> {
        let armed = self.armed?;
        if self.clock < armed.arm_cycle {
            return None;
        }
        if armed.fault.one_shot() && self.fault_fired.is_some() {
            return None;
        }
        Some(armed)
    }

    /// Records one fault application at the current clock (the first one
    /// is surfaced through the FI accounting, so detection-latency and
    /// successful-injection metrics treat runtime faults exactly like
    /// compile-time markers).
    fn record_fault_fire(&mut self) {
        self.fault_hits += 1;
        if self.tele_cfg.trace {
            if let Some(a) = self.armed {
                self.tele.push(TraceEvent::FaultFired {
                    cycle: self.clock,
                    site: a.site,
                });
            }
        }
        if self.fault_fired.is_none() {
            self.fault_fired = Some(self.clock);
            if self.first_fi_cycle.is_none() {
                self.first_fi_cycle = Some(self.clock);
            }
            if let Some(a) = self.armed {
                self.fi_sites_hit.insert(a.site);
            }
        }
    }

    /// Flips one seed-chosen bit of the `width`-byte scalar at `addr` in
    /// simulated memory; fires only when the byte is mapped.
    #[cold]
    #[inline(never)]
    fn fault_flip_byte(&mut self, addr: u64, width: u64) {
        let Some(armed) = self.fault_active() else {
            return;
        };
        let h = fault_mix(armed.seed, addr);
        let byte = addr.wrapping_add(h % width.max(1));
        if let Ok(b) = self.mem.read(byte, 1) {
            let flipped = b[0] ^ (1u8 << ((h >> 8) & 7));
            self.mem.write(byte, &[flipped]).expect("byte just read");
            self.record_fault_fire();
        }
    }

    /// Applies the armed fault to a load access: may corrupt memory at
    /// `addr` (bit-flip), rewrite `addr` (off-by-N, dangling reuse), or
    /// return a forced value (uninitialized read). The real load still
    /// executes afterwards, so mapping traps keep their precedence.
    #[cold]
    #[inline(never)]
    fn fault_on_load(&mut self, addr: &mut u64, kind: LoadKind) -> Option<Value> {
        let armed = self.fault_active()?;
        let width = load_width(kind);
        match armed.fault {
            FaultModel::BitFlip { region } => {
                if self.mem.region_of(*addr) == Some(region) {
                    self.fault_flip_byte(*addr, width);
                }
                None
            }
            FaultModel::OffByN { n } => {
                *addr = addr.wrapping_add((i64::from(n) * width as i64) as u64);
                self.record_fault_fire();
                None
            }
            FaultModel::DanglingReuse => {
                if let Some(freed) = self.alloc.free_head() {
                    *addr = freed;
                    self.record_fault_fire();
                }
                None
            }
            FaultModel::UninitRead => {
                self.record_fault_fire();
                Some(garbage_value(kind, fault_mix(armed.seed, *addr)))
            }
            FaultModel::WildWrite => None, // store-only class
        }
    }

    /// Applies the armed fault to a store access: may rewrite `addr`
    /// (off-by-N, wild write, dangling reuse). Returns true when a
    /// region bit-flip must corrupt the stored bytes *after* the store
    /// lands (flipping beforehand would be overwritten).
    #[cold]
    #[inline(never)]
    fn fault_on_store(&mut self, addr: &mut u64, width: u64) -> bool {
        let Some(armed) = self.fault_active() else {
            return false;
        };
        match armed.fault {
            FaultModel::BitFlip { region } => self.mem.region_of(*addr) == Some(region),
            FaultModel::OffByN { n } => {
                *addr = addr.wrapping_add((i64::from(n) * width as i64) as u64);
                self.record_fault_fire();
                false
            }
            FaultModel::DanglingReuse => {
                if let Some(freed) = self.alloc.free_head() {
                    *addr = freed;
                    self.record_fault_fire();
                }
                false
            }
            FaultModel::WildWrite => {
                *addr = self.wild_addr(armed.seed, *addr);
                self.record_fault_fire();
                false
            }
            FaultModel::UninitRead => false, // load-only class
        }
    }

    /// A seed-derived wild address, biased across the three mapped
    /// regions with an unmapped tail (so wild writes sometimes corrupt
    /// silently and sometimes crash, like real stray pointers).
    fn wild_addr(&self, seed: u64, addr: u64) -> u64 {
        let h = fault_mix(seed, addr);
        let off = h >> 2;
        match h & 3 {
            0 => HEAP_BASE + off % (self.mem.brk().max(1) as u64),
            1 => GLOBAL_BASE + off % (self.mem.globals_len().max(1) as u64),
            2 => STACK_BASE + off % (self.mem.stack_size().max(1) as u64),
            _ => off & 0x7fff_ffff_ffff,
        }
    }

    /// Executes one `dpmr.check` comparison (the [`Op::DpmrCheck`]
    /// handler's body): compare, count, and on a mismatch consult the
    /// trap handler and repair or terminate.
    #[allow(clippy::too_many_lines)]
    fn exec_check(
        &mut self,
        regs: &mut [Reg],
        a: u32,
        reps: &[u32],
        ptrs: &Option<(u32, Box<[u32]>)>,
        site: u32,
        a_reg: &Option<(u32, StoreKind)>,
    ) -> Result<(), Box<Trap>> {
        let va = eval(regs, a)?;
        self.clock += cost::CHECK * reps.len() as u64;
        if self.tele_cfg.sites {
            let s = &mut self.tele.site_stats[site as usize];
            s.executions += 1;
            s.cycles += cost::CHECK * reps.len() as u64;
        }
        // Hot path: compare every replica against the application
        // value (K = 1 is one compare, exactly the old cost).
        let mut mismatch = false;
        for &r in reps {
            mismatch |= eval(regs, r)?.to_bits() != va.to_bits();
        }
        if mismatch {
            self.detections += 1;
            if self.tele_cfg.sites {
                self.tele.site_stats[site as usize].detections += 1;
            }
            if self.first_detection_cycle.is_none() {
                self.first_detection_cycle = Some(self.clock);
            }
            // Cold path: re-evaluate the replica values into a
            // vector (operand evaluation is a pure slot read).
            let mut vreps: Vec<Value> = Vec::with_capacity(reps.len());
            for &r in reps {
                vreps.push(eval(regs, r)?);
            }
            let first_bad = vreps
                .iter()
                .find(|v| v.to_bits() != va.to_bits())
                .copied()
                .unwrap_or(vreps[0]);
            let (app_addr, rep_addrs) = match ptrs {
                Some((ap, rps)) => {
                    let ap = eval_ptr(regs, *ap)?;
                    let mut addrs = Vec::with_capacity(rps.len());
                    for &rp in rps.iter() {
                        addrs.push(eval_ptr(regs, rp)?);
                    }
                    (Some(ap), addrs)
                }
                None => (None, Vec::new()),
            };
            let trap = DetectionTrap {
                got: va.to_bits(),
                replica: vreps[0].to_bits(),
                reps: vreps.iter().map(|v| v.to_bits()).collect(),
                app_addr,
                rep_addrs: rep_addrs.clone(),
                cycle: self.clock,
                instrs: self.instrs,
                site,
            };
            if self.tele_cfg.trace {
                self.tele.push(TraceEvent::TrapRaised {
                    cycle: self.clock,
                    site,
                    got: va.to_bits(),
                    replica: first_bad.to_bits(),
                });
            }
            let mut action = match &self.trap_handler {
                Some(h) => Rc::clone(h).borrow_mut().on_detection(&trap),
                None => TrapAction::Terminate,
            };
            // A repair that could fix neither memory nor a register
            // would be a no-op resume with an inflated counter;
            // force termination instead.
            if app_addr.is_none() && a_reg.is_none() {
                action = TrapAction::Terminate;
            }
            let terminal = Box::new(Trap::Dpmr {
                got: va.to_bits(),
                replica: first_bad.to_bits(),
            });
            match action {
                TrapAction::Terminate => {
                    if self.tele_cfg.sites {
                        self.tele.site_stats[site as usize].terminations += 1;
                    }
                    return Err(terminal);
                }
                TrapAction::Repair => {
                    // Replica 0 is assumed the redundant truth:
                    // copy its value over the divergent application
                    // location and the in-flight register, then
                    // resume as if the check had passed.
                    self.repairs += 1;
                    if self.tele_cfg.sites {
                        self.tele.site_stats[site as usize].repairs += 1;
                    }
                    if self.tele_cfg.trace {
                        self.tele.push(TraceEvent::Repaired {
                            cycle: self.clock,
                            site,
                            replica_repairs: 0,
                        });
                    }
                    let vb = vreps[0];
                    if let (Some(addr), Some((_, kind))) = (app_addr, a_reg) {
                        self.clock += cost::MEM;
                        self.touch(addr);
                        self.store_kind(addr, *kind, vb)?;
                    }
                    if let Some((slot, _)) = a_reg {
                        set_reg(regs, *slot, vb);
                    }
                }
                TrapAction::Vote => {
                    // Majority arbitration over the K+1 copies:
                    // the outvoted copies — application *or*
                    // replicas — are the corrupt ones; rewrite
                    // them with the majority value and resume.
                    let Some(win_bits) = trap.majority() else {
                        // The tie case: no strict majority among the
                        // K+1 copies. Record it in the trace, then
                        // terminate (the documented tie behaviour).
                        if self.tele_cfg.trace {
                            self.tele.push(TraceEvent::VoteTied {
                                cycle: self.clock,
                                site,
                                copies: reps.len() as u32 + 1,
                            });
                        }
                        if self.tele_cfg.sites {
                            self.tele.site_stats[site as usize].terminations += 1;
                        }
                        return Err(terminal);
                    };
                    let Some((slot, kind)) = a_reg else {
                        if self.tele_cfg.sites {
                            self.tele.site_stats[site as usize].terminations += 1;
                        }
                        return Err(terminal);
                    };
                    let winner = if va.to_bits() == win_bits {
                        va
                    } else {
                        *vreps
                            .iter()
                            .find(|v| v.to_bits() == win_bits)
                            .expect("majority value occurs among the copies")
                    };
                    if va.to_bits() != win_bits {
                        self.repairs += 1;
                        if self.tele_cfg.sites {
                            self.tele.site_stats[site as usize].repairs += 1;
                        }
                        if let Some(addr) = app_addr {
                            self.clock += cost::MEM;
                            self.touch(addr);
                            self.store_kind(addr, *kind, winner)?;
                        }
                        set_reg(regs, *slot, winner);
                    }
                    let mut voted_out = 0u64;
                    for (i, v) in vreps.iter().enumerate() {
                        if v.to_bits() != win_bits {
                            if let Some(addr) = rep_addrs.get(i).copied() {
                                self.clock += cost::MEM;
                                self.touch(addr);
                                self.store_kind(addr, *kind, winner)?;
                                self.repairs += 1;
                                self.replica_repairs += 1;
                                voted_out += 1;
                            }
                        }
                    }
                    if self.tele_cfg.sites {
                        let s = &mut self.tele.site_stats[site as usize];
                        s.repairs += voted_out;
                        s.replica_repairs += voted_out;
                    }
                    if self.tele_cfg.trace {
                        self.tele.push(TraceEvent::Repaired {
                            cycle: self.clock,
                            site,
                            replica_repairs: voted_out,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Marks a family's fallback instantiation: a const index past every
/// kind table, so the op's own payload decides the kind.
const ANY: u8 = u8::MAX;

/// The load kinds that get their own handler instantiation (by index):
/// the ones that dominate executed loads. Every other kind takes the
/// fallback entry, whose variable-length copy calls `memcpy`.
const LOAD_KINDS: [LoadKind; 4] = [
    LoadKind::Int { bytes: 8, bits: 64 },
    LoadKind::Ptr,
    LoadKind::F64,
    LoadKind::Int { bytes: 1, bits: 8 },
];

/// The store kinds with their own instantiation: 8-byte stores (i64,
/// f64 and pointers) and byte stores.
const STORE_KINDS: [StoreKind; 2] = [StoreKind::Raw(8), StoreKind::Raw(1)];

/// Every operator, predicate and cast, by index: each gets its own
/// instantiation, so a specialized entry never matches on the op.
const BIN_OPS: [BinOp; 17] = {
    use BinOp::*;
    [
        Add, Sub, Mul, SDiv, UDiv, SRem, URem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul,
        FDiv,
    ]
};
const CMP_PREDS: [CmpPred; 16] = {
    use CmpPred::*;
    [
        Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge, FOlt, FOle, FOgt, FOge, FOeq, FOne,
    ]
};
const CAST_OPS: [CastOp; 9] = {
    use CastOp::*;
    [
        Bitcast, PtrToInt, IntToPtr, Trunc, Zext, Sext, FpToSi, SiToFp, FpCast,
    ]
};

// `handler_id` indexes these tables by the enum discriminant.
const _: () = {
    let mut i = 0;
    while i < BIN_OPS.len() {
        assert!(BIN_OPS[i] as usize == i);
        i += 1;
    }
    let mut i = 0;
    while i < CMP_PREDS.len() {
        assert!(CMP_PREDS[i] as usize == i);
        i += 1;
    }
    let mut i = 0;
    while i < CAST_OPS.len() {
        assert!(CAST_OPS[i] as usize == i);
        i += 1;
    }
};

/// `dpmr.check` arities (K) with their own instantiation, `1..=` this.
const CHECK_ARITIES: usize = 2;

/// Handler ids: indices into [`HANDLERS`]. Ids below `LOAD_FIRST` are
/// each op shape's fallback entry, which reads every kind from the op;
/// the ranges after it are the specialized instantiations of the same
/// bodies.
mod hid {
    pub const ALLOCA: u8 = 0;
    pub const MALLOC: u8 = 1;
    pub const FREE: u8 = 2;
    pub const LOAD: u8 = 3;
    pub const STORE: u8 = 4;
    pub const FIELD_ADDR: u8 = 5;
    pub const INDEX_ADDR: u8 = 6;
    pub const CAST: u8 = 7;
    pub const BIN: u8 = 8;
    pub const CMP: u8 = 9;
    pub const COPY: u8 = 10;
    pub const CALL_DIRECT: u8 = 11;
    pub const CALL_INDIRECT: u8 = 12;
    pub const CALL_EXTERNAL: u8 = 13;
    pub const CHECK: u8 = 14;
    pub const RAND_INT: u8 = 15;
    pub const HEAP_BUF_SIZE: u8 = 16;
    pub const OUTPUT: u8 = 17;
    pub const FI_MARKER: u8 = 18;
    pub const ABORT: u8 = 19;
    pub const JUMP: u8 = 20;
    pub const COND_JUMP: u8 = 21;
    pub const RET: u8 = 22;
    pub const UNREACHABLE: u8 = 23;
    pub const BAD_BLOCK: u8 = 24;
    pub const INVALID: u8 = 25;
    /// `CheckElided` and `LoadElided` share one no-op entry.
    pub const ELIDED: u8 = 26;
    /// `LOAD_FIRST + i` serves `LOAD_KINDS[i]`.
    pub const LOAD_FIRST: u8 = 27;
    /// `STORE_FIRST + i` serves `STORE_KINDS[i]`.
    pub const STORE_FIRST: u8 = LOAD_FIRST + super::LOAD_KINDS.len() as u8;
    /// `CHECK_FIRST + k - 1` serves checks of arity `k`.
    pub const CHECK_FIRST: u8 = STORE_FIRST + super::STORE_KINDS.len() as u8;
    /// `BIN_FIRST + op` serves operator `op` with a result that is not a
    /// 64-bit integer (narrower, or a pointer, or a float).
    pub const BIN_FIRST: u8 = CHECK_FIRST + super::CHECK_ARITIES as u8;
    /// `BIN64_FIRST + op` serves operator `op` with a 64-bit integer
    /// result, which needs no renormalization.
    pub const BIN64_FIRST: u8 = BIN_FIRST + super::BIN_OPS.len() as u8;
    /// `CMP_FIRST + pred` serves predicate `pred`.
    pub const CMP_FIRST: u8 = BIN64_FIRST + super::BIN_OPS.len() as u8;
    /// `CAST_FIRST + op` serves cast `op`.
    pub const CAST_FIRST: u8 = CMP_FIRST + super::CMP_PREDS.len() as u8;
    /// The armed site's load, which applies the run's fault. Only a
    /// run's own ids hold it and the two after it (`run_handler_ids`).
    pub const LOAD_ARMED: u8 = CAST_FIRST + super::CAST_OPS.len() as u8;
    /// The armed site's store.
    pub const STORE_ARMED: u8 = LOAD_ARMED + 1;
    /// The pc-profile entry, which every pc of a profiled run maps to.
    pub const PROFILE: u8 = STORE_ARMED + 1;
    /// Table length.
    pub const COUNT: usize = PROFILE as usize + 1;
}

// Every id indexes `HANDLERS`.
const _: () = assert!(hid::COUNT <= 1 << u8::BITS);

/// Picks the handler for `op` — the one decision the dispatch loop would
/// otherwise repeat on every execution: a specialized entry when the
/// op's kind has one, its shape's fallback entry otherwise. Lowering and
/// the optimizer record it per op ([`LoweredCode::rebuild_handler_ids`]).
pub(crate) fn handler_id(op: &Op) -> u8 {
    let position = |found: Option<usize>, first: u8| found.map(|i| first + i as u8);
    let specialized = match op {
        Op::Load { kind, .. } => {
            position(LOAD_KINDS.iter().position(|k| k == kind), hid::LOAD_FIRST)
        }
        Op::Store { kind, .. } => {
            position(STORE_KINDS.iter().position(|k| k == kind), hid::STORE_FIRST)
        }
        Op::DpmrCheck { reps, .. } => position(
            (1..=CHECK_ARITIES).position(|k| k == reps.len()),
            hid::CHECK_FIRST,
        ),
        Op::Bin {
            op,
            bits,
            ptr_result,
            ..
        } => {
            let first = if *bits == 64 && !*ptr_result {
                hid::BIN64_FIRST
            } else {
                hid::BIN_FIRST
            };
            Some(first + *op as u8)
        }
        Op::Cmp { pred, .. } => Some(hid::CMP_FIRST + *pred as u8),
        Op::Cast { op, .. } => Some(hid::CAST_FIRST + *op as u8),
        _ => None,
    };
    specialized.unwrap_or_else(|| fallback_id(op))
}

/// The entry that serves every op of `op`'s shape, whatever its kind.
fn fallback_id(op: &Op) -> u8 {
    match op {
        Op::Alloca { .. } => hid::ALLOCA,
        Op::Malloc { .. } => hid::MALLOC,
        Op::Free { .. } => hid::FREE,
        Op::Load { .. } => hid::LOAD,
        Op::Store { .. } => hid::STORE,
        Op::FieldAddr { .. } => hid::FIELD_ADDR,
        Op::IndexAddr { .. } => hid::INDEX_ADDR,
        Op::Cast { .. } => hid::CAST,
        Op::Bin { .. } => hid::BIN,
        Op::Cmp { .. } => hid::CMP,
        Op::Copy { .. } => hid::COPY,
        Op::CallDirect { .. } => hid::CALL_DIRECT,
        Op::CallIndirect { .. } => hid::CALL_INDIRECT,
        Op::CallExternal { .. } => hid::CALL_EXTERNAL,
        Op::DpmrCheck { .. } => hid::CHECK,
        Op::RandInt { .. } => hid::RAND_INT,
        Op::HeapBufSize { .. } => hid::HEAP_BUF_SIZE,
        Op::Output { .. } => hid::OUTPUT,
        Op::FiMarker { .. } => hid::FI_MARKER,
        Op::Abort { .. } => hid::ABORT,
        Op::Jump { .. } => hid::JUMP,
        Op::CondJump { .. } => hid::COND_JUMP,
        Op::Ret { .. } => hid::RET,
        Op::Unreachable => hid::UNREACHABLE,
        Op::BadBlock { .. } => hid::BAD_BLOCK,
        Op::Invalid { .. } => hid::INVALID,
        Op::CheckElided { .. } | Op::LoadElided { .. } => hid::ELIDED,
    }
}

/// Defines the table entry for each op body. An entry inlines its body
/// (`#[inline(always)]`, returning [`Step`]) and hands back the next pc
/// in a register; a trapping body's boxed trap is parked by the cold
/// [`park_trap`], so no trap value rejoins the fast path. A generic
/// body's entry is generic over the same const parameters.
macro_rules! op_handlers {
    ($($entry:ident $(<$(const $p:ident: $t:ty),+>)? => $body:ident,)*) => {
        $(
            fn $entry $(<$(const $p: $t),+>)? (
                it: &mut Interp,
                regs: &mut [Reg],
                op: &Op,
                pc: u32,
            ) -> u32 {
                match $body $(::<$($p),+>)? (it, regs, op, pc) {
                    Ok(next) => next,
                    Err(t) => park_trap(it, t),
                }
            }
        )*
    };
}

op_handlers! {
    h_alloca => op_alloca,
    h_malloc => op_malloc,
    h_free => op_free,
    h_load<const K: u8, const ARMED: bool> => op_load,
    h_store<const K: u8, const ARMED: bool> => op_store,
    h_field_addr => op_field_addr,
    h_index_addr => op_index_addr,
    h_cast<const C: u8> => op_cast,
    h_bin<const B: u8, const INT64: bool> => op_bin,
    h_cmp<const P: u8> => op_cmp,
    h_copy => op_copy,
    h_call_direct => op_call_direct,
    h_call_indirect => op_call_indirect,
    h_call_external => op_call_external,
    h_dpmr_check<const K: usize> => op_dpmr_check,
    h_rand_int => op_rand_int,
    h_heap_buf_size => op_heap_buf_size,
    h_output => op_output,
    h_fi_marker => op_fi_marker,
    h_abort => op_abort,
    h_jump => op_jump,
    h_cond_jump => op_cond_jump,
    h_ret => op_ret,
    h_unreachable => op_unreachable,
    h_bad_block => op_bad_block,
    h_invalid => op_invalid,
    h_elided => op_elided,
}

/// Fills `t[first + i]` with `entry::<i>`, or `entry::<i, extra>`, for
/// each listed index.
macro_rules! kind_entries {
    ($t:ident, $first:expr, $entry:ident; $($i:literal)*) => {
        $($t[$first as usize + $i] = $entry::<$i>;)*
    };
    ($t:ident, $first:expr, $entry:ident, $extra:tt; $($i:literal)*) => {
        $($t[$first as usize + $i] = $entry::<$i, $extra>;)*
    };
}

/// The threaded dispatch table, indexed by handler id: one indirect
/// call per op (`HANDLERS[handler_ids[pc]]`). It has a slot for every
/// `u8`, so indexing by an id needs no bounds check. `dispatch_table_tests`
/// checks that every id's entry accepts the ops [`handler_id`] maps to
/// it and agrees with the fallback entry on them.
static HANDLERS: [OpHandler; 1 << u8::BITS] = {
    // Every id below `hid::COUNT` is assigned below; the fill value,
    // left in the slots past it, rejects any op but `Op::Invalid` as
    // malformed.
    let mut t: [OpHandler; 1 << u8::BITS] = [h_invalid; 1 << u8::BITS];
    t[hid::ALLOCA as usize] = h_alloca;
    t[hid::MALLOC as usize] = h_malloc;
    t[hid::FREE as usize] = h_free;
    t[hid::LOAD as usize] = h_load::<ANY, false>;
    t[hid::STORE as usize] = h_store::<ANY, false>;
    t[hid::FIELD_ADDR as usize] = h_field_addr;
    t[hid::INDEX_ADDR as usize] = h_index_addr;
    t[hid::CAST as usize] = h_cast::<ANY>;
    t[hid::BIN as usize] = h_bin::<ANY, false>;
    t[hid::CMP as usize] = h_cmp::<ANY>;
    t[hid::COPY as usize] = h_copy;
    t[hid::CALL_DIRECT as usize] = h_call_direct;
    t[hid::CALL_INDIRECT as usize] = h_call_indirect;
    t[hid::CALL_EXTERNAL as usize] = h_call_external;
    t[hid::CHECK as usize] = h_dpmr_check::<0>;
    t[hid::RAND_INT as usize] = h_rand_int;
    t[hid::HEAP_BUF_SIZE as usize] = h_heap_buf_size;
    t[hid::OUTPUT as usize] = h_output;
    t[hid::FI_MARKER as usize] = h_fi_marker;
    t[hid::ABORT as usize] = h_abort;
    t[hid::JUMP as usize] = h_jump;
    t[hid::COND_JUMP as usize] = h_cond_jump;
    t[hid::RET as usize] = h_ret;
    t[hid::UNREACHABLE as usize] = h_unreachable;
    t[hid::BAD_BLOCK as usize] = h_bad_block;
    t[hid::INVALID as usize] = h_invalid;
    t[hid::ELIDED as usize] = h_elided;
    kind_entries!(t, hid::LOAD_FIRST, h_load, false; 0 1 2 3);
    kind_entries!(t, hid::STORE_FIRST, h_store, false; 0 1);
    t[hid::CHECK_FIRST as usize] = h_dpmr_check::<1>;
    t[hid::CHECK_FIRST as usize + 1] = h_dpmr_check::<2>;
    kind_entries!(t, hid::CMP_FIRST, h_cmp; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    kind_entries!(t, hid::CAST_FIRST, h_cast; 0 1 2 3 4 5 6 7 8);
    macro_rules! bin_entries {
        ($($i:literal)*) => {$(
            t[hid::BIN_FIRST as usize + $i] = h_bin::<$i, false>;
            t[hid::BIN64_FIRST as usize + $i] = h_bin::<$i, true>;
        )*};
    }
    bin_entries!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    t[hid::LOAD_ARMED as usize] = h_load::<ANY, true>;
    t[hid::STORE_ARMED as usize] = h_store::<ANY, true>;
    t[hid::PROFILE as usize] = h_profile;
    t
};

/// The pc-profile entry: bumps the pc's counter, then forwards to the
/// entry the run would dispatch the op through unprofiled. `get_mut` and
/// `get` keep panic edges out (both tables are sized to the ops).
fn h_profile(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> u32 {
    if let Some(n) = it.tele.pc_exec.get_mut(pc as usize) {
        *n += 1;
    }
    let id = it.profiled_ids.get(pc as usize).copied();
    HANDLERS[usize::from(id.unwrap_or(hid::INVALID))](it, regs, op, pc)
}

/// The handler ids a run dispatches through when they differ from the
/// shared `code.handler_ids`, and the ids [`h_profile`] forwards to.
/// Arming a load or store maps that one pc to its armed entry, so no
/// other op tests for the fault; arming any other op changes nothing.
/// Profiling maps every pc to [`h_profile`], which forwards through the
/// table the run would use unprofiled. Built once per run, one byte per
/// op; an unarmed, unprofiled run builds nothing.
fn run_handler_ids(code: &LoweredCode, cfg: &RunConfig) -> (Option<Rc<[u8]>>, Box<[u8]>) {
    let armed = cfg.fault.and_then(|f| {
        let id = match code.ops.get(f.site as usize)? {
            Op::Load { .. } => hid::LOAD_ARMED,
            Op::Store { .. } => hid::STORE_ARMED,
            _ => return None,
        };
        let mut ids = code.handler_ids.clone();
        ids[f.site as usize] = id;
        Some(ids)
    });
    if !cfg.telemetry.profile {
        return (armed.map(Rc::from), Box::default());
    }
    let forward = armed.unwrap_or_else(|| code.handler_ids.clone());
    (
        Some(vec![hid::PROFILE; forward.len()].into()),
        forward.into(),
    )
}

/// Parks a trapping op's trap for the dispatch loop (see [`FRAME_OP`]).
#[cold]
#[inline(never)]
fn park_trap(it: &mut Interp, t: Box<Trap>) -> u32 {
    it.frame_op = Some(FrameOp::Trap(t));
    FRAME_OP
}

/// The slot read behind every operand: constants sit in their own slots
/// (set when the frame is built), so only a register not yet assigned —
/// or a slot past the frame, which hand-built code alone can name —
/// reads as unset. `get` keeps panic edges out of the dispatch hot path
/// (the PR-6 lesson).
#[inline(always)]
fn slot(regs: &[Reg], i: u32) -> Reg {
    regs.get(i as usize).copied().unwrap_or(Reg::UNSET)
}

/// Reads an operand: one slot load plus the unset check.
#[inline(always)]
fn eval(regs: &[Reg], i: u32) -> Result<Value, Box<Trap>> {
    match slot(regs, i).value() {
        Some(v) => Ok(v),
        None => Err(unset_register(i)),
    }
}

/// Reads an operand that must hold a value of kind `KIND` (a `Value`
/// discriminant) and returns its bits: one compare on the slot's kind
/// word. An unset register or a value of another kind (a module that
/// types a register one way and assigns it another) traps.
#[inline(always)]
fn eval_bits<const KIND: u64>(regs: &[Reg], i: u32) -> Result<u64, Box<Trap>> {
    let r = slot(regs, i);
    if r.kind == KIND {
        Ok(r.bits)
    } else {
        Err(wrong_kind(i, r, KIND))
    }
}

/// A pointer operand's address.
#[inline(always)]
fn eval_ptr(regs: &[Reg], i: u32) -> Result<u64, Box<Trap>> {
    eval_bits::<KIND_PTR>(regs, i)
}

/// An integer operand's value.
#[inline(always)]
fn eval_int(regs: &[Reg], i: u32) -> Result<i64, Box<Trap>> {
    Ok(eval_bits::<KIND_INT>(regs, i)? as i64)
}

/// `v` as an integer, or the kind-mismatch trap.
#[inline(always)]
fn int_of(v: Value) -> Result<i64, Box<Trap>> {
    match v {
        Value::Int(i) => Ok(i),
        other => Err(kind_mismatch(KIND_INT, other)),
    }
}

/// `v` as a float, or the kind-mismatch trap.
#[inline(always)]
fn float_of(v: Value) -> Result<f64, Box<Trap>> {
    match v {
        Value::Float(f) => Ok(f),
        other => Err(kind_mismatch(KIND_FLOAT, other)),
    }
}

/// Writes a register slot. Out-of-range destinations (impossible in
/// lowered code, which sizes the register file per function) drop the
/// write instead of panicking — no panic edges in the dispatch hot path.
#[inline]
fn set_reg(regs: &mut [Reg], dst: u32, v: Value) {
    if let Some(slot) = regs.get_mut(dst as usize) {
        slot.set(v);
    }
}

// Trap constructors, out of line and cold: the hot path keeps only a
// compare-and-branch per failure mode, with formatting and allocation
// behind a never-inlined call that returns one boxed word (the PR-6
// `get_mut` lesson generalized).

#[cold]
#[inline(never)]
fn unset_register(i: u32) -> Box<Trap> {
    Box::new(Trap::Invalid(format!("use of unset register r{i}")))
}

/// Operand `i` held `r` where a value of kind `want` was needed.
#[cold]
#[inline(never)]
fn wrong_kind(i: u32, r: Reg, want: u64) -> Box<Trap> {
    match r.value() {
        Some(v) => kind_mismatch(want, v),
        None => unset_register(i),
    }
}

#[cold]
#[inline(never)]
fn kind_mismatch(want: u64, got: Value) -> Box<Trap> {
    let want = match want {
        KIND_INT => "int",
        KIND_FLOAT => "float",
        _ => "pointer",
    };
    Box::new(Trap::Invalid(format!("expected {want}, got {got:?}")))
}

#[cold]
#[inline(never)]
fn void_call_value() -> Box<Trap> {
    Box::new(Trap::Invalid("void call used as value".into()))
}

#[cold]
#[inline(never)]
fn bad_indirect_call(p: u64) -> Box<Trap> {
    Box::new(Trap::Invalid(format!(
        "indirect call of non-function address {p:#x}"
    )))
}

#[cold]
#[inline(never)]
fn div_by_zero() -> Box<Trap> {
    Box::new(Trap::Invalid("division by zero".into()))
}

#[cold]
#[inline(never)]
fn rem_by_zero() -> Box<Trap> {
    Box::new(Trap::Invalid("remainder by zero".into()))
}

#[cold]
#[inline(never)]
fn pc_out_of_range(pc: u32) -> Trap {
    Trap::Invalid(format!("pc {pc} outside the op stream"))
}

/// An op whose payload does not match its handler: unreachable through
/// lowered code (the handler ids are derived from the ops), kept as a
/// trap so hand-built code cannot cause UB-adjacent surprises.
#[cold]
#[inline(never)]
fn malformed_op() -> Box<Trap> {
    Box::new(Trap::Invalid(
        "op/handler mismatch in threaded dispatch".into(),
    ))
}

/// A trap raised by an op body that is not on any hot path.
#[cold]
#[inline(never)]
fn trap(t: Trap) -> Box<Trap> {
    Box::new(t)
}

// The op bodies: one per op shape, each inlined into its table entry.
// Free functions (not methods) so their `Interp` lifetime stays
// late-bound and the entries coerce to the HRTB `OpHandler` signature.
// A generic body takes the kind its payload would decide as a const
// index into that kind's table (`ANY` for the fallback), so each
// instantiation is the same code with the kind folded in.

#[inline(always)]
fn op_alloca(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Alloca { dst, count, size } = op else {
        return Err(malformed_op());
    };
    let n = match count {
        Some(o) => u64::try_from(eval_int(regs, *o)?.max(0)).unwrap_or(0),
        None => 1,
    };
    // A count too large for the address space saturates: the charge
    // stays finite and the stack allocation traps as an overflow.
    let bytes = size.saturating_mul(n);
    it.clock = it.clock.saturating_add(cost::ALU + bytes / 64);
    let addr = it.mem.stack_alloc(bytes)?;
    set_reg(regs, *dst, Value::Ptr(addr));
    Ok(pc + 1)
}

#[inline(always)]
fn op_malloc(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Malloc { dst, count, esize } = op else {
        return Err(malformed_op());
    };
    let n = u64::try_from(eval_int(regs, *count)?.max(0)).unwrap_or(0);
    let size = esize.saturating_mul(n);
    // Saturating, like `op_alloca`: a size no heap can hold still gets
    // a finite charge, and the allocation returns null.
    it.clock = it.clock.saturating_add(cost::MALLOC_BASE + size / 16);
    let p = it.alloc.malloc(&mut it.mem, size)?;
    it.alloc.stats.peak_brk = it.alloc.stats.peak_brk.max(it.mem.brk() as u64);
    set_reg(regs, *dst, Value::Ptr(p));
    Ok(pc + 1)
}

#[inline(always)]
fn op_free(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Free { ptr } = op else {
        return Err(malformed_op());
    };
    let p = eval_ptr(regs, *ptr)?;
    it.clock += cost::FREE;
    match it.alloc.free(&mut it.mem, p) {
        FreeOutcome::Ok | FreeOutcome::SilentCorruption => Ok(pc + 1),
        FreeOutcome::Abort(m) => Err(trap(Trap::Alloc(m))),
    }
}

#[inline(always)]
fn op_load<const K: u8, const ARMED: bool>(
    it: &mut Interp,
    regs: &mut [Reg],
    op: &Op,
    pc: u32,
) -> Step {
    let Op::Load { dst, ptr, kind } = op else {
        return Err(malformed_op());
    };
    let kind = LOAD_KINDS.get(usize::from(K)).copied().unwrap_or(*kind);
    let mut a = eval_ptr(regs, *ptr)?;
    // Only the armed site's entry applies the fault: it may corrupt the
    // memory about to be read, skew the address, or force the value.
    let forced = if ARMED {
        it.fault_on_load(&mut a, kind)
    } else {
        None
    };
    it.clock += cost::MEM;
    it.touch(a);
    let v = it.load_kind(kind, a)?;
    set_reg(regs, *dst, forced.unwrap_or(v));
    Ok(pc + 1)
}

#[inline(always)]
fn op_store<const K: u8, const ARMED: bool>(
    it: &mut Interp,
    regs: &mut [Reg],
    op: &Op,
    pc: u32,
) -> Step {
    let Op::Store { ptr, value, kind } = op else {
        return Err(malformed_op());
    };
    let kind = STORE_KINDS.get(usize::from(K)).copied().unwrap_or(*kind);
    let mut a = eval_ptr(regs, *ptr)?;
    let v = eval(regs, *value)?;
    // Only the armed site's entry applies the fault: it may redirect the
    // store; a region bit-flip corrupts the stored bytes afterwards.
    let flip_after = if ARMED {
        it.fault_on_store(&mut a, store_width(kind))
    } else {
        false
    };
    it.clock += cost::MEM;
    it.touch(a);
    it.store_kind(a, kind, v)?;
    if flip_after {
        it.fault_flip_byte(a, store_width(kind));
    }
    Ok(pc + 1)
}

#[inline(always)]
fn op_field_addr(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::FieldAddr { dst, base, off } = op else {
        return Err(malformed_op());
    };
    let b = eval_ptr(regs, *base)?;
    it.clock += cost::ADDR;
    set_reg(regs, *dst, Value::Ptr(b.wrapping_add(*off)));
    Ok(pc + 1)
}

#[inline(always)]
fn op_index_addr(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::IndexAddr {
        dst,
        base,
        index,
        esize,
    } = op
    else {
        return Err(malformed_op());
    };
    let b = eval_ptr(regs, *base)?;
    let i = eval_int(regs, *index)?;
    it.clock += cost::ADDR;
    set_reg(
        regs,
        *dst,
        Value::Ptr(b.wrapping_add((*esize as i64).wrapping_mul(i) as u64)),
    );
    Ok(pc + 1)
}

#[inline(always)]
fn op_cast<const C: u8>(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Cast {
        dst,
        op: cast,
        src,
        dbits,
    } = op
    else {
        return Err(malformed_op());
    };
    let cast = CAST_OPS.get(usize::from(C)).copied().unwrap_or(*cast);
    let v = eval(regs, *src)?;
    let dbits = *dbits;
    it.clock += cost::ALU;
    let out = match cast {
        CastOp::Bitcast => v,
        CastOp::PtrToInt => Value::Int(normalize_int(v.to_bits() as i64, dbits)),
        CastOp::IntToPtr => Value::Ptr(v.to_bits()),
        CastOp::Trunc | CastOp::Sext => Value::Int(normalize_int(int_of(v)?, dbits)),
        CastOp::Zext => {
            // Mask without sign extension, then renormalize at
            // destination width.
            let raw = int_of(v)?;
            let masked = if dbits == 64 {
                raw
            } else {
                raw & ((1i64 << dbits) - 1)
            };
            Value::Int(normalize_int(masked, dbits))
        }
        CastOp::FpToSi => Value::Int(normalize_int(float_of(v)? as i64, dbits)),
        CastOp::SiToFp => Value::Float(int_of(v)? as f64),
        CastOp::FpCast => {
            let f = float_of(v)?;
            Value::Float(if dbits == 32 { f64::from(f as f32) } else { f })
        }
    };
    set_reg(regs, *dst, out);
    Ok(pc + 1)
}

#[inline(always)]
fn op_bin<const B: u8, const INT64: bool>(
    it: &mut Interp,
    regs: &mut [Reg],
    op: &Op,
    pc: u32,
) -> Step {
    let Op::Bin {
        dst,
        op: bin,
        lhs,
        rhs,
        bits,
        ptr_result,
    } = op
    else {
        return Err(malformed_op());
    };
    let bin = BIN_OPS.get(usize::from(B)).copied().unwrap_or(*bin);
    // `INT64` entries serve only 64-bit integer results.
    let (bits, ptr_result) = if INT64 {
        (64, false)
    } else {
        (*bits, *ptr_result)
    };
    let a = eval(regs, *lhs)?;
    let b = eval(regs, *rhs)?;
    it.clock += cost::ALU;
    let out = binop(bin, a, b, bits, ptr_result)?;
    set_reg(regs, *dst, out);
    Ok(pc + 1)
}

#[inline(always)]
fn op_cmp<const P: u8>(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Cmp {
        dst,
        pred,
        lhs,
        rhs,
    } = op
    else {
        return Err(malformed_op());
    };
    let pred = CMP_PREDS.get(usize::from(P)).copied().unwrap_or(*pred);
    let a = eval(regs, *lhs)?;
    let b = eval(regs, *rhs)?;
    it.clock += cost::ALU;
    set_reg(regs, *dst, Value::Int(i64::from(cmp(pred, a, b)?)));
    Ok(pc + 1)
}

#[inline(always)]
fn op_copy(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Copy { dst, src } = op else {
        return Err(malformed_op());
    };
    let v = eval(regs, *src)?;
    it.clock += cost::ALU;
    set_reg(regs, *dst, v);
    Ok(pc + 1)
}

#[inline(always)]
fn op_call_direct(it: &mut Interp, regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::CallDirect { dst, f, args } = op else {
        return Err(malformed_op());
    };
    let vals = it.eval_call_args(regs, args)?;
    it.frame_op = Some(FrameOp::Call {
        f: *f,
        args: vals,
        dst: *dst,
    });
    Ok(FRAME_OP)
}

#[inline(always)]
fn op_call_indirect(it: &mut Interp, regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::CallIndirect { dst, target, args } = op else {
        return Err(malformed_op());
    };
    let vals = it.eval_call_args(regs, args)?;
    let p = eval_ptr(regs, *target)?;
    let fid = it.resolve_fn_ptr(p).ok_or_else(|| bad_indirect_call(p))?;
    it.frame_op = Some(FrameOp::Call {
        f: fid,
        args: vals,
        dst: *dst,
    });
    Ok(FRAME_OP)
}

#[inline(always)]
fn op_call_external(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::CallExternal { dst, ext, args } = op else {
        return Err(malformed_op());
    };
    let vals = it.eval_call_args(regs, args)?;
    let handler = match it.ext_handlers.get(*ext as usize) {
        Some(Some(h)) => Rc::clone(h),
        // Declared but absent from the registry: the per-call name
        // lookup's miss, preserved verbatim.
        Some(None) => {
            let name = &it.module.external(ExternalId(*ext)).name;
            return Err(trap(Trap::Invalid(format!("unknown external {name}"))));
        }
        // An index outside the module's declarations (impossible in
        // lowered code): trap rather than panic.
        None => return Err(trap(Trap::Invalid(format!("unknown external #{ext}")))),
    };
    let ret = handler(it, &vals).map_err(trap)?;
    if let Some(d) = dst {
        set_reg(regs, *d, ret.ok_or_else(void_call_value)?);
    }
    Ok(pc + 1)
}

/// A `dpmr.check`. The `K` entries (K replicas, site telemetry off)
/// compare in a straight line and leave everything else — a mismatch,
/// an unset operand, site counters — to `exec_check`, which starts over
/// from the same state (nothing has been written yet); `K = 0` is the
/// fallback and always goes there.
#[inline(always)]
fn op_dpmr_check<const K: usize>(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::DpmrCheck {
        a,
        reps,
        ptrs,
        site,
        a_reg,
    } = op
    else {
        return Err(malformed_op());
    };
    if K > 0 && !it.tele_cfg.sites {
        if let Ok(reps) = <&[u32; K]>::try_from(&reps[..]) {
            let va = slot(regs, *a);
            let mut pass = va.kind != 0;
            for &r in reps {
                let vr = slot(regs, r);
                pass &= vr.kind != 0 && vr.bits == va.bits;
            }
            if pass {
                it.clock += cost::CHECK * K as u64;
                return Ok(pc + 1);
            }
        }
    }
    it.exec_check(regs, *a, reps, ptrs, *site, a_reg)?;
    Ok(pc + 1)
}

#[inline(always)]
fn op_rand_int(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::RandInt {
        dst,
        lo,
        hi,
        stream,
    } = op
    else {
        return Err(malformed_op());
    };
    let lo = eval_int(regs, *lo)?;
    let hi = eval_int(regs, *hi)?;
    it.clock += cost::RAND;
    let v = it.rand_range_stream(*stream, lo, hi);
    set_reg(regs, *dst, Value::Int(v));
    Ok(pc + 1)
}

#[inline(always)]
fn op_heap_buf_size(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::HeapBufSize { dst, ptr } = op else {
        return Err(malformed_op());
    };
    let p = eval_ptr(regs, *ptr)?;
    it.clock += cost::MEM;
    it.touch(p);
    let sz = it.alloc.buf_size(&it.mem, p)?;
    set_reg(regs, *dst, Value::Int(sz as i64));
    Ok(pc + 1)
}

#[inline(always)]
fn op_output(it: &mut Interp, regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::Output { value } = op else {
        return Err(malformed_op());
    };
    let v = eval(regs, *value)?;
    it.clock += cost::OUTPUT;
    it.output.push(v.to_bits());
    Ok(pc + 1)
}

#[inline(always)]
fn op_fi_marker(it: &mut Interp, _regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    let Op::FiMarker { site } = op else {
        return Err(malformed_op());
    };
    if it.first_fi_cycle.is_none() {
        it.first_fi_cycle = Some(it.clock);
    }
    it.fi_sites_hit.insert(*site);
    Ok(pc + 1)
}

#[inline(always)]
fn op_abort(_it: &mut Interp, _regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::Abort { code } = op else {
        return Err(malformed_op());
    };
    Err(trap(Trap::AppAbort(*code)))
}

#[inline(always)]
fn op_jump(it: &mut Interp, _regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::Jump { target } = op else {
        return Err(malformed_op());
    };
    it.clock += cost::BRANCH;
    Ok(*target)
}

#[inline(always)]
fn op_cond_jump(it: &mut Interp, regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::CondJump {
        cond,
        then_pc,
        else_pc,
    } = op
    else {
        return Err(malformed_op());
    };
    it.clock += cost::BRANCH;
    let c = eval(regs, *cond)?;
    Ok(if c.is_zero() { *else_pc } else { *then_pc })
}

#[inline(always)]
fn op_ret(it: &mut Interp, regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::Ret { value } = op else {
        return Err(malformed_op());
    };
    it.clock += cost::BRANCH + cost::RET;
    let val = match value {
        Some(o) => Some(eval(regs, *o)?),
        None => None,
    };
    it.frame_op = Some(FrameOp::Ret(val));
    Ok(FRAME_OP)
}

#[inline(always)]
fn op_unreachable(it: &mut Interp, _regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::Unreachable = op else {
        return Err(malformed_op());
    };
    it.clock += cost::BRANCH;
    Err(trap(Trap::Invalid("executed unreachable".into())))
}

#[inline(always)]
fn op_bad_block(_it: &mut Interp, _regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::BadBlock { block } = op else {
        return Err(malformed_op());
    };
    Err(trap(Trap::Invalid(format!(
        "jump to nonexistent block b{block}"
    ))))
}

#[inline(always)]
fn op_invalid(_it: &mut Interp, regs: &mut [Reg], op: &Op, _pc: u32) -> Step {
    let Op::Invalid { args, msg } = op else {
        return Err(malformed_op());
    };
    // Evaluate operands in order first: use-of-unset-register
    // traps take precedence, exactly as under the tree walker.
    for &a in args.iter() {
        eval(regs, a)?;
    }
    Err(trap(Trap::Invalid(msg.to_string())))
}

// An op the optimizer dropped (a check or one of its replica loads): no
// comparison, memory read or register write, and no virtual cost — the
// dispatch iteration (and its instruction count) is all that remains.
#[inline(always)]
fn op_elided(_it: &mut Interp, _regs: &mut [Reg], op: &Op, pc: u32) -> Step {
    if !matches!(op, Op::CheckElided { .. } | Op::LoadElided { .. }) {
        return Err(malformed_op());
    }
    Ok(pc + 1)
}

/// Bytes moved by a load of the given pre-resolved kind.
fn load_width(kind: LoadKind) -> u64 {
    match kind {
        LoadKind::Int { bytes, .. } => u64::from(bytes),
        LoadKind::F32 => 4,
        LoadKind::F64 | LoadKind::Ptr => 8,
    }
}

/// Bytes moved by a store of the given pre-resolved kind.
fn store_width(kind: StoreKind) -> u64 {
    match kind {
        StoreKind::Raw(n) => u64::from(n),
        StoreKind::F32 => 4,
    }
}

/// A deterministic garbage scalar matching the load kind's value shape
/// (the uninit-read fault's forced result; f32 garbage is widened exactly
/// as a real f32 load would widen it).
fn garbage_value(kind: LoadKind, bits: u64) -> Value {
    match kind {
        LoadKind::Int { bits: ty_bits, .. } => Value::Int(normalize_int(bits as i64, ty_bits)),
        LoadKind::F32 => Value::Float(f64::from(f32::from_bits(bits as u32))),
        LoadKind::F64 => Value::Float(f64::from_bits(bits)),
        LoadKind::Ptr => Value::Ptr(bits),
    }
}

/// Executes a binary op with the destination's pre-resolved width and
/// pointer-ness.
#[inline(always)]
fn binop(op: BinOp, a: Value, b: Value, bits: u16, ptr_result: bool) -> Result<Value, Box<Trap>> {
    let float = |f: fn(f64, f64) -> f64| Ok(Value::Float(f(float_of(a)?, float_of(b)?)));
    match op {
        BinOp::FAdd => return float(|x, y| x + y),
        BinOp::FSub => return float(|x, y| x - y),
        BinOp::FMul => return float(|x, y| x * y),
        BinOp::FDiv => return float(|x, y| x / y),
        _ => {}
    }
    // Pointer arithmetic: operands may mix pointers and ints; the
    // destination register's type decides the result kind.
    let (ai, bi) = match (a, b) {
        (Value::Ptr(p), v) => (p as i64, v.to_bits() as i64),
        (v, Value::Ptr(p)) => (v.to_bits() as i64, p as i64),
        (x, y) => (int_of(x)?, int_of(y)?),
    };
    let r = match op {
        BinOp::Add => ai.wrapping_add(bi),
        BinOp::Sub => ai.wrapping_sub(bi),
        BinOp::Mul => ai.wrapping_mul(bi),
        BinOp::SDiv => {
            if bi == 0 {
                return Err(div_by_zero());
            }
            ai.wrapping_div(bi)
        }
        BinOp::UDiv => {
            if bi == 0 {
                return Err(div_by_zero());
            }
            ((ai as u64) / (bi as u64)) as i64
        }
        BinOp::SRem => {
            if bi == 0 {
                return Err(rem_by_zero());
            }
            ai.wrapping_rem(bi)
        }
        BinOp::URem => {
            if bi == 0 {
                return Err(rem_by_zero());
            }
            ((ai as u64) % (bi as u64)) as i64
        }
        BinOp::And => ai & bi,
        BinOp::Or => ai | bi,
        BinOp::Xor => ai ^ bi,
        BinOp::Shl => ai.wrapping_shl(bi as u32 & 63),
        BinOp::LShr => ((ai as u64).wrapping_shr(bi as u32 & 63)) as i64,
        BinOp::AShr => ai.wrapping_shr(bi as u32 & 63),
        // The float operators returned above.
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => 0,
    };
    Ok(if ptr_result {
        // Pointer arithmetic (or an int result retyped as a pointer by
        // the program): keep the address value.
        Value::Ptr(r as u64)
    } else {
        Value::Int(normalize_int(r, bits))
    })
}

#[inline(always)]
fn cmp(pred: CmpPred, a: Value, b: Value) -> Result<bool, Box<Trap>> {
    use CmpPred::*;
    let float = |f: fn(&f64, &f64) -> bool| Ok(f(&float_of(a)?, &float_of(b)?));
    let signed = |f: fn(&i64, &i64) -> bool| Ok(f(&(a.to_bits() as i64), &(b.to_bits() as i64)));
    let unsigned = |f: fn(&u64, &u64) -> bool| Ok(f(&a.to_bits(), &b.to_bits()));
    match pred {
        Eq => unsigned(u64::eq),
        Ne => unsigned(u64::ne),
        Slt => signed(i64::lt),
        Sle => signed(i64::le),
        Sgt => signed(i64::gt),
        Sge => signed(i64::ge),
        Ult => unsigned(u64::lt),
        Ule => unsigned(u64::le),
        Ugt => unsigned(u64::gt),
        Uge => unsigned(u64::ge),
        FOlt => float(f64::lt),
        FOle => float(f64::le),
        FOgt => float(f64::gt),
        FOge => float(f64::ge),
        FOeq => float(f64::eq),
        FOne => float(f64::ne),
    }
}

/// Convenience entry point: builds an interpreter with the base external
/// registry and runs the module's entry function.
pub fn run_with_limits(module: &Module, cfg: &RunConfig) -> RunOutcome {
    let registry = Rc::new(Registry::with_base());
    run_with_registry(module, cfg, registry)
}

/// Like [`run_with_limits`] but with a caller-supplied registry (used when
/// DPMR external-function wrappers are installed).
pub fn run_with_registry(module: &Module, cfg: &RunConfig, registry: Rc<Registry>) -> RunOutcome {
    let mut interp = Interp::new(module, cfg, registry);
    interp.run(cfg.args.clone())
}

// `scalar_bytes` is re-exported for external handlers that size copies.
pub use crate::value::scalar_bytes as scalar_width;
const _: fn(&dpmr_ir::types::TypeTable, TypeId) -> usize = scalar_bytes;

#[cfg(test)]
mod dispatch_table_tests {
    use super::*;

    /// One op of every shape, plus one of every kind a specialized entry
    /// serves. Operand slots 1..=3 hold the integers 0..=2, slot 4 the
    /// null pointer (see `preset_regs`).
    fn samples() -> Vec<Op> {
        let imm = |v: u32| v + 1;
        let p = 4;
        let mut ops = vec![
            Op::Alloca {
                dst: 0,
                count: None,
                size: 8,
            },
            Op::Malloc {
                dst: 0,
                count: imm(1),
                esize: 8,
            },
            Op::Free { ptr: p },
            Op::Load {
                dst: 0,
                ptr: p,
                kind: LoadKind::F32,
            },
            Op::Store {
                ptr: p,
                value: imm(0),
                kind: StoreKind::F32,
            },
            Op::FieldAddr {
                dst: 0,
                base: p,
                off: 0,
            },
            Op::IndexAddr {
                dst: 0,
                base: p,
                index: imm(0),
                esize: 8,
            },
            Op::Copy {
                dst: 0,
                src: imm(1),
            },
            Op::CallDirect {
                dst: None,
                f: FuncId(0),
                args: Box::new([]),
            },
            Op::CallIndirect {
                dst: None,
                target: p,
                args: Box::new([]),
            },
            Op::CallExternal {
                dst: None,
                ext: 0,
                args: Box::new([]),
            },
            Op::RandInt {
                dst: 0,
                lo: imm(0),
                hi: imm(1),
                stream: 0,
            },
            Op::HeapBufSize { dst: 0, ptr: p },
            Op::Output { value: imm(1) },
            Op::FiMarker { site: 0 },
            Op::Abort { code: 1 },
            Op::Jump { target: 0 },
            Op::CondJump {
                cond: imm(1),
                then_pc: 0,
                else_pc: 0,
            },
            Op::Ret { value: None },
            Op::Unreachable,
            Op::BadBlock { block: 0 },
            Op::Invalid {
                args: Box::new([]),
                msg: "x".into(),
            },
            Op::CheckElided { site: 0, reps: 1 },
            Op::LoadElided { dst: 0, site: 0 },
        ];
        for kind in LOAD_KINDS {
            ops.push(Op::Load {
                dst: 0,
                ptr: p,
                kind,
            });
        }
        for kind in STORE_KINDS {
            ops.push(Op::Store {
                ptr: p,
                value: imm(0),
                kind,
            });
        }
        for k in 1..=CHECK_ARITIES + 1 {
            ops.push(Op::DpmrCheck {
                a: imm(1),
                reps: vec![imm(1); k].into(),
                ptrs: None,
                site: 0,
                a_reg: None,
            });
        }
        for op in BIN_OPS {
            for (bits, ptr_result) in [(64, false), (32, false), (64, true)] {
                ops.push(Op::Bin {
                    dst: 0,
                    op,
                    lhs: imm(1),
                    rhs: imm(2),
                    bits,
                    ptr_result,
                });
            }
        }
        for pred in CMP_PREDS {
            ops.push(Op::Cmp {
                dst: 0,
                pred,
                lhs: imm(1),
                rhs: imm(1),
            });
        }
        for op in CAST_OPS {
            ops.push(Op::Cast {
                dst: 0,
                op,
                src: imm(0),
                dbits: 64,
            });
        }
        ops
    }

    fn preset_regs() -> Vec<Reg> {
        let mut regs = vec![Reg::UNSET; 8];
        for (slot, v) in [Value::Int(0), Value::Int(1), Value::Int(2), Value::Ptr(0)]
            .into_iter()
            .enumerate()
        {
            regs[slot + 1].set(v);
        }
        regs
    }

    /// The entries `op` can run through: its chosen entry, its shape's
    /// fallback, and the ids a run armed at it and profiling it gives it
    /// (the profile entry, and the armed entry it forwards a load or
    /// store to). Returns them with the profile entry's forward table.
    fn entries(op: &Op) -> ([u8; 4], Box<[u8]>) {
        let mut code = LoweredCode {
            ops: vec![op.clone()],
            ..LoweredCode::default()
        };
        code.rebuild_handler_ids();
        let cfg = RunConfig {
            fault: Some(ArmedFault {
                site: 0,
                fault: FaultModel::OffByN { n: 0 },
                seed: 0,
                arm_cycle: 0,
            }),
            telemetry: TelemetryConfig {
                profile: true,
                ..TelemetryConfig::off()
            },
            ..RunConfig::default()
        };
        let (run, forward) = run_handler_ids(&code, &cfg);
        let run = run.expect("a profiled run has its own ids");
        (
            [handler_id(op), fallback_id(op), run[0], forward[0]],
            forward,
        )
    }

    /// Every id's entry accepts the ops `handler_id` maps to it: each
    /// sample runs through its chosen entry, its shape's fallback entry,
    /// and the armed and profile entries an armed, profiled run gives
    /// it. None may reject it as malformed (an entry of another shape
    /// parks `malformed_op`), all return the right next pc, and the
    /// profile entry counts the pc once. The samples reach every id, and
    /// only ids below `hid::COUNT`. `specialized_entries_match_the_fallback`
    /// checks that an entry of the right shape also serves the right
    /// kind, and that the armed entries of an unarmed run act as the
    /// fallback.
    #[test]
    fn handler_table_is_aligned() {
        let samples = samples();
        let mut reached = vec![false; hid::COUNT];
        for op in &samples {
            for id in entries(op).0 {
                reached[usize::from(id)] = true;
            }
        }
        assert_eq!(reached, vec![true; hid::COUNT], "an id no op maps to");
        let module = Module::new();
        let cfg = RunConfig::default();
        let mut it = Interp::new(&module, &cfg, Rc::new(Registry::with_base()));
        let mismatch = *malformed_op();
        for op in &samples {
            let (ids, forward) = entries(op);
            it.profiled_ids = forward;
            for id in ids {
                let mut regs = preset_regs();
                it.tele.pc_exec = vec![0];
                let next = HANDLERS[usize::from(id)](&mut it, &mut regs, op, 0);
                let counted = u64::from(id == hid::PROFILE);
                assert_eq!(it.tele.pc_exec, [counted], "{op:?} through entry {id}");
                match it.frame_op.take() {
                    Some(FrameOp::Trap(t)) => {
                        assert_eq!(next, FRAME_OP, "trap parked by {op:?}");
                        assert_ne!(*t, mismatch, "entry {id} rejects {op:?}");
                    }
                    parked => {
                        let want = match op {
                            Op::Jump { target } => *target,
                            Op::CondJump { then_pc, .. } => *then_pc,
                            Op::CallDirect { .. } | Op::CallIndirect { .. } | Op::Ret { .. } => {
                                FRAME_OP
                            }
                            _ => 1,
                        };
                        assert_eq!(next, want, "next pc of {op:?} through entry {id}");
                        assert_eq!(
                            parked.is_some(),
                            next == FRAME_OP,
                            "frame op parked by {op:?}"
                        );
                    }
                }
            }
        }
    }

    /// Everything one op execution can change.
    #[derive(Debug, PartialEq)]
    struct Effect {
        next: u32,
        regs: Vec<Reg>,
        clock: u64,
        heap: Vec<u8>,
        trap: Option<Trap>,
        detections: u64,
        repairs: u64,
        replica_repairs: u64,
        tele: Telemetry,
    }

    /// Payload bytes of the one heap block every differential run
    /// starts with.
    const BLOCK: u64 = 64;

    struct Fixed(TrapAction);

    impl TrapHandler for Fixed {
        fn on_detection(&mut self, _: &DetectionTrap) -> TrapAction {
            self.0
        }
    }

    /// Runs `op` through entry `id` on a fresh interpreter: one heap
    /// block of patterned bytes at `block`, the registers
    /// `regs(block)`, site telemetry per `sites`, and a trap handler
    /// answering `action` when given.
    fn run_entry(
        id: u8,
        op: &Op,
        regs: &dyn Fn(u64) -> Vec<Reg>,
        sites: bool,
        action: Option<TrapAction>,
    ) -> Effect {
        let module = Module::new();
        let cfg = RunConfig {
            telemetry: TelemetryConfig {
                sites,
                ..TelemetryConfig::off()
            },
            ..RunConfig::default()
        };
        let code = LoweredCode {
            check_sites: 1,
            ..LoweredCode::default()
        };
        let mut it = Interp::with_code(&module, Rc::new(code), &cfg, Rc::new(Registry::new()));
        if let Some(a) = action {
            it.set_trap_handler(Rc::new(RefCell::new(Fixed(a))));
        }
        let block = it.malloc_bytes(BLOCK).expect("heap block");
        let pattern: Vec<u8> = (0..BLOCK).map(|i| (i * 37 + 0x8b) as u8).collect();
        it.mem.write(block, &pattern).expect("block mapped");
        let mut regs = regs(block);
        let next = HANDLERS[usize::from(id)](&mut it, &mut regs, op, 0);
        let trap = match it.frame_op.take() {
            Some(FrameOp::Trap(t)) => Some(*t),
            _ => None,
        };
        Effect {
            next,
            regs,
            clock: it.clock,
            heap: it.mem.read(HEAP_BASE, it.mem.brk()).expect("heap").to_vec(),
            trap,
            detections: it.detections,
            repairs: it.repairs,
            replica_repairs: it.replica_repairs,
            tele: it.telemetry().clone(),
        }
    }

    /// Registers from operand values (`None` leaves a slot unset).
    fn regs_of(values: &[Option<Value>]) -> Vec<Reg> {
        values
            .iter()
            .map(|v| v.map_or(Reg::UNSET, Reg::of))
            .collect()
    }

    /// Runs `op` through its chosen entry, its fallback entry and, for a
    /// load or store, its armed entry from identical state and requires
    /// identical effects; returns whether the chosen entry is a
    /// specialized one.
    fn same_as_fallback(
        op: &Op,
        regs: &dyn Fn(u64) -> Vec<Reg>,
        sites: bool,
        action: Option<TrapAction>,
    ) -> bool {
        let (id, fallback) = (handler_id(op), fallback_id(op));
        let reference = run_entry(fallback, op, regs, sites, action);
        // The run is unarmed, so an armed entry must act as the fallback.
        let armed = match op {
            Op::Load { .. } => Some(hid::LOAD_ARMED),
            Op::Store { .. } => Some(hid::STORE_ARMED),
            _ => None,
        };
        for entry in std::iter::once(id).chain(armed) {
            let got = run_entry(entry, op, regs, sites, action);
            assert_eq!(got, reference, "{op:?} through entry {entry} vs {fallback}");
        }
        id != fallback
    }

    /// The differential test for the specialized entries: every load and
    /// store kind, every operator at every width with and without a
    /// pointer result and with mixed operands, every predicate and cast,
    /// and checks of arity 1 to 3 that match and mismatch, with and
    /// without site telemetry and a recovery handler, each run through
    /// its chosen entry and through the fallback from identical state:
    /// registers, clock, memory, trap and counters must agree. Bad
    /// operands (unset, the wrong kind, unmapped or null addresses) are
    /// among the cases, so traps must agree too.
    #[test]
    fn specialized_entries_match_the_fallback() {
        let mut specialized = 0;
        let int_kinds = [(1, 1), (1, 8), (2, 16), (4, 32), (8, 64)];
        let load_kinds = int_kinds
            .map(|(bytes, bits)| LoadKind::Int { bytes, bits })
            .into_iter()
            .chain([LoadKind::F32, LoadKind::F64, LoadKind::Ptr]);
        let addrs = |b: u64| {
            [
                Some(Value::Ptr(b)),
                Some(Value::Ptr(b + 5)),
                Some(Value::Ptr(b + BLOCK - 2)),
                Some(Value::Ptr(0)),
                Some(Value::Int(b as i64)),
                None,
            ]
        };
        for kind in load_kinds {
            let op = Op::Load {
                dst: 0,
                ptr: 1,
                kind,
            };
            for i in 0..addrs(0).len() {
                let regs = |b: u64| regs_of(&[None, addrs(b)[i]]);
                specialized += usize::from(same_as_fallback(&op, &regs, false, None));
            }
        }
        let store_kinds = [1, 2, 4, 8]
            .map(StoreKind::Raw)
            .into_iter()
            .chain([StoreKind::F32]);
        let stored = |b: u64| {
            [
                Some(Value::Int(-2)),
                Some(Value::Float(1.1)),
                Some(Value::Float(f64::from_bits(0x7ff8_0000_dead_beef))),
                Some(Value::Ptr(b)),
                None,
            ]
        };
        for kind in store_kinds {
            let op = Op::Store {
                ptr: 1,
                value: 2,
                kind,
            };
            for i in 0..addrs(0).len() {
                for j in 0..stored(0).len() {
                    let regs = |b: u64| regs_of(&[None, addrs(b)[i], stored(b)[j]]);
                    specialized += usize::from(same_as_fallback(&op, &regs, false, None));
                }
            }
        }
        let pairs = |b: u64| {
            [
                (Some(Value::Int(-7)), Some(Value::Int(3))),
                (Some(Value::Int(i64::MIN)), Some(Value::Int(-1))),
                (Some(Value::Int(5)), Some(Value::Int(0))),
                (Some(Value::Int(0x1234_5678_9abc)), Some(Value::Int(70))),
                (Some(Value::Ptr(b)), Some(Value::Int(8))),
                (Some(Value::Int(-8)), Some(Value::Ptr(b))),
                (Some(Value::Ptr(b)), Some(Value::Float(2.0))),
                (Some(Value::Float(2.5)), Some(Value::Float(-0.5))),
                (Some(Value::Float(f64::NAN)), Some(Value::Float(0.0))),
                (Some(Value::Float(1.0)), Some(Value::Int(1))),
                (Some(Value::Int(1)), Some(Value::Float(1.0))),
                (Some(Value::Int(1)), None),
                (None, Some(Value::Int(1))),
            ]
        };
        for bin in BIN_OPS {
            for bits in [1, 8, 32, 64] {
                for ptr_result in [false, true] {
                    let op = Op::Bin {
                        dst: 0,
                        op: bin,
                        lhs: 1,
                        rhs: 2,
                        bits,
                        ptr_result,
                    };
                    for i in 0..pairs(0).len() {
                        let regs = |b: u64| {
                            let (x, y) = pairs(b)[i];
                            regs_of(&[None, x, y])
                        };
                        specialized += usize::from(same_as_fallback(&op, &regs, false, None));
                    }
                }
            }
        }
        let cmp_pairs = |b: u64| {
            [
                (Some(Value::Int(-1)), Some(Value::Int(1))),
                (Some(Value::Int(3)), Some(Value::Int(3))),
                (Some(Value::Ptr(b)), Some(Value::Ptr(b + 8))),
                (Some(Value::Ptr(b)), Some(Value::Int(b as i64))),
                (Some(Value::Float(f64::NAN)), Some(Value::Float(1.0))),
                (Some(Value::Float(-0.0)), Some(Value::Float(0.0))),
                (Some(Value::Float(2.0)), Some(Value::Float(1.0))),
                (Some(Value::Int(1)), Some(Value::Float(1.0))),
                (Some(Value::Float(1.0)), Some(Value::Int(1))),
                (None, Some(Value::Int(1))),
            ]
        };
        for pred in CMP_PREDS {
            let op = Op::Cmp {
                dst: 0,
                pred,
                lhs: 1,
                rhs: 2,
            };
            for i in 0..cmp_pairs(0).len() {
                let regs = |b: u64| {
                    let (x, y) = cmp_pairs(b)[i];
                    regs_of(&[None, x, y])
                };
                specialized += usize::from(same_as_fallback(&op, &regs, false, None));
            }
        }
        let sources = |b: u64| {
            [
                Some(Value::Int(-300)),
                Some(Value::Int(i64::MAX)),
                Some(Value::Float(-2.75)),
                Some(Value::Float(1e300)),
                Some(Value::Float(f64::NAN)),
                Some(Value::Ptr(b)),
                None,
            ]
        };
        for cast in CAST_OPS {
            for dbits in [1, 8, 16, 32, 64] {
                let op = Op::Cast {
                    dst: 0,
                    op: cast,
                    src: 1,
                    dbits,
                };
                for i in 0..sources(0).len() {
                    let regs = |b: u64| regs_of(&[None, sources(b)[i]]);
                    specialized += usize::from(same_as_fallback(&op, &regs, false, None));
                }
            }
        }
        // Checks: the application value in slot 1 and its location in
        // slot 2; replica k's value in slot 3 + k and its location in
        // slot 3 + K + k. `bad` names the copy that differs (0 for the
        // application, k + 1 for replica k), `unset` one left unset.
        for k in 1..=3u32 {
            let op = Op::DpmrCheck {
                a: 1,
                reps: (0..k).map(|r| 3 + r).collect(),
                ptrs: Some((2, (0..k).map(|r| 3 + k + r).collect())),
                site: 0,
                a_reg: Some((1, StoreKind::Raw(8))),
            };
            for bad in 0..=k + 1 {
                for unset in [None, Some(3), Some(1)] {
                    let regs = |b: u64| {
                        let copy = |i: u32| Some(Value::Int(if i == bad { 7 } else { 9 }));
                        let mut values = vec![None, copy(0), Some(Value::Ptr(b))];
                        values.extend((0..k).map(|r| copy(r + 1)));
                        values.extend((0..k).map(|r| Some(Value::Ptr(b + 8 * u64::from(r + 1)))));
                        if let Some(u) = unset {
                            values[u] = None;
                        }
                        regs_of(&values)
                    };
                    for sites in [false, true] {
                        for action in [None, Some(TrapAction::Repair), Some(TrapAction::Vote)] {
                            specialized += usize::from(same_as_fallback(&op, &regs, sites, action));
                        }
                    }
                }
            }
        }
        // Every specialized family was exercised.
        assert!(specialized > 0);
    }

    /// A register slot holds every value bit-exactly, kind included:
    /// NaN payloads, signed zeros and the integer and pointer extremes.
    #[test]
    fn reg_round_trips_values_bit_exactly() {
        assert_eq!(std::mem::size_of::<Reg>(), std::mem::size_of::<Value>());
        let values = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::from_bits(0x7ff8_0000_dead_beef)),
            Value::Float(f64::from_bits(0xfff0_0000_0000_0001)),
            Value::Float(f64::NEG_INFINITY),
            Value::Ptr(0),
            Value::Ptr(u64::MAX),
        ];
        for v in values {
            let mut r = Reg::UNSET;
            r.set(v);
            assert_eq!(r, Reg::of(v));
            let back = r.value().expect("a set register holds a value");
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&v));
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        assert_eq!(Reg::UNSET.value(), None);
    }

    #[test]
    fn unset_register_read_traps() {
        let mut regs = vec![Reg::UNSET; 4];
        regs[1].set(Value::Int(5));
        assert_eq!(eval(&regs, 1), Ok(Value::Int(5)));
        let want = Err(Box::new(Trap::Invalid("use of unset register r3".into())));
        assert_eq!(eval(&regs, 3), want);
        // A slot past the frame reads as unset too.
        let want = Err(Box::new(Trap::Invalid("use of unset register r9".into())));
        assert_eq!(eval(&regs, 9), want);
    }

    /// A jump whose target is the frame-op sentinel is a pc outside the
    /// op stream, not a call or return, in any window length.
    #[test]
    fn jump_to_frame_op_sentinel_traps() {
        use crate::code::FrameLayout;
        use dpmr_ir::builder::FunctionBuilder;
        let mut module = Module::new();
        let i64t = module.types.int(64);
        for name in ["main", "callee"] {
            let mut b = FunctionBuilder::new(&mut module, name, i64t, &[]);
            b.ret(None);
            b.finish();
        }
        module.entry = Some(FuncId(0));
        // main calls callee, which jumps to the sentinel; a return taken
        // from it would resume main and exit normally.
        let code = LoweredCode {
            ops: vec![
                Op::CallDirect {
                    dst: None,
                    f: FuncId(1),
                    args: Box::new([]),
                },
                Op::Ret { value: Some(0) },
                Op::Jump { target: FRAME_OP },
            ],
            func_entry: vec![0, 2],
            check_sites: 0,
            handler_ids: Vec::new(),
            frames: vec![FrameLayout {
                regs: 0,
                consts: vec![Opnd::Imm(Value::Int(0))],
            }],
        };
        let code = Rc::new(code);
        for plain_dispatch in [false, true] {
            let cfg = RunConfig {
                plain_dispatch,
                ..RunConfig::default()
            };
            let mut it =
                Interp::with_code(&module, Rc::clone(&code), &cfg, Rc::new(Registry::new()));
            let out = it.run(vec![]);
            let msg = format!("pc {FRAME_OP} outside the op stream");
            assert_eq!(out.status, ExitStatus::Crash(CrashKind::InvalidExec(msg)));
            assert_eq!(out.instrs, 2);
            assert_eq!(it.frame_depth(), 0);
        }
    }
}
