//! # dpmr-core
//!
//! Diverse Partial Memory Replication (DPMR) — the paper's primary
//! contribution, as an IR-to-IR compiler transformation.
//!
//! DPMR replicates a program's data memory *inside its own address space*
//! (partial, intra-process replication; Sec. 2.1), applies a diversity
//! transformation to replica heap behaviour (Sec. 2.6), and detects memory
//! errors by comparing application and replica values at loads under a
//! configurable state comparison policy (Sec. 2.7). Two pointer-handling
//! designs are provided:
//!
//! * **SDS** (Shadow Data Structures, Ch. 2) — pointers stored in memory
//!   are comparable, with per-object shadow structures carrying replica
//!   object pointers (ROPs) and next shadow object pointers (NSOPs);
//! * **MDS** (Mirrored Data Structures, Ch. 4) — replica memory mirrors
//!   the application layout and stores ROPs directly.
//!
//! Modules:
//! * [`shadow`] — the `st`/`at`/`(st∘at)` type algebra (Tables 2.1–2.5),
//! * [`config`] — schemes, diversity transformations, comparison policies,
//!   and the DSA-derived replication plan,
//! * [`transform`] — the code transformation (Tables 2.6/2.7, 4.3/4.4),
//! * [`extsupport`] — the external code support library (Sec. 2.8).
//!
//! # Examples
//!
//! ```
//! use dpmr_ir::prelude::*;
//! use dpmr_core::prelude::*;
//! use dpmr_vm::prelude::*;
//! use std::rc::Rc;
//!
//! // A tiny program: allocate, store, load, free.
//! let mut m = Module::new();
//! let i64t = m.types.int(64);
//! let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
//! let p = b.malloc(i64t, Const::i64(1).into(), "p");
//! b.store(p.into(), Const::i64(7).into());
//! let v = b.load(i64t, p.into(), "v");
//! b.output(v.into());
//! b.free(p.into());
//! b.ret(Some(Const::i64(0).into()));
//! let f = b.finish();
//! m.entry = Some(f);
//!
//! // Transform with SDS and run: identical output, no detection.
//! let t = transform(&m, &DpmrConfig::sds()).unwrap();
//! let reg = Rc::new(registry_with_wrappers());
//! let out = run_with_registry(&t, &RunConfig::default(), reg);
//! assert_eq!(out.status, ExitStatus::Normal(0));
//! assert_eq!(out.output, vec![7]);
//! ```

pub mod config;
pub mod extsupport;
pub mod shadow;
pub mod transform;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::{
        Diversity, DpmrConfig, Policy, RecoveryConfig, RecoveryPolicy, ReplicationPlan, Scheme,
        SiteRef, MID_RUN_CADENCE_CYCLES,
    };
    pub use crate::extsupport::registry_with_wrappers;
    pub use crate::shadow::TypeAlgebra;
    pub use crate::transform::{transform, wrapper_name, TransformError, MAIN_AUG_SUFFIX};
}
