//! # dpmr-vm
//!
//! The execution substrate for the DPMR reproduction: a simulated
//! byte-addressable address space, a deliberately fragile heap allocator
//! with in-band metadata, an IR interpreter with a virtual clock and run
//! limits, and an external-function registry with a native libc subset.
//!
//! The substrate replaces the paper's native x86 testbed (Table 3.1). What
//! matters for the evaluation is *how memory errors manifest*: overflows
//! silently corrupt neighbouring objects, frees of bad pointers abort or
//! corrupt allocator metadata, small requests are rounded up, dangling
//! reads observe free-list links, and accesses off the mapped regions
//! crash. All of those behaviours are reproduced here byte-for-byte in
//! simulation.
//!
//! # Examples
//!
//! ```
//! use dpmr_ir::prelude::*;
//! use dpmr_vm::prelude::*;
//!
//! let mut m = Module::new();
//! let i64t = m.types.int(64);
//! let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
//! let p = b.malloc(i64t, Const::i64(1).into(), "p");
//! b.store(p.into(), Const::i64(41).into());
//! let v = b.load(i64t, p.into(), "v");
//! let w = b.bin(BinOp::Add, i64t, v.into(), Const::i64(1).into());
//! b.output(w.into());
//! b.free(p.into());
//! b.ret(Some(Const::i64(0).into()));
//! let f = b.finish();
//! m.entry = Some(f);
//!
//! let out = run_with_limits(&m, &RunConfig::default());
//! assert_eq!(out.status, ExitStatus::Normal(0));
//! assert_eq!(out.output, vec![42]);
//! ```

pub mod alloc;
pub mod code;
pub mod external;
pub mod fault;
pub mod interp;
pub mod lower;
pub mod mem;
pub mod opt;
pub mod telemetry;
pub mod value;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::alloc::{AllocStats, Allocator, FreeOutcome};
    pub use crate::code::{FrameLayout, LoweredCode, Op, Opnd};
    pub use crate::external::Registry;
    pub use crate::fault::{ArmedFault, FaultModel};
    pub use crate::interp::{
        run_with_limits, run_with_registry, CrashKind, DetectionTrap, ExitStatus, Frame, Interp,
        InterpSnapshot, RunConfig, RunOutcome, Trap, TrapAction, TrapHandler, FUNC_BASE,
    };
    pub use crate::lower::lower;
    pub use crate::mem::{
        Mem, MemConfig, MemFault, MemFaultKind, MemRegion, MemSnapshot, MemUsage, GLOBAL_BASE,
        HEAP_BASE, STACK_BASE,
    };
    pub use crate::opt::{optimize, OptOutcome, PassConfig, ProfileGuided};
    pub use crate::telemetry::{SiteStats, Telemetry, TelemetryConfig, TraceEvent};
    pub use crate::value::{normalize_int, scalar_bytes, Value};
}
