//! # dpmr — Diverse Partial Memory Replication
//!
//! Umbrella crate re-exporting the whole DPMR workspace: the IR, the
//! execution substrate, the DPMR transformation (SDS and MDS), Data
//! Structure Analysis, fault injection, the benchmark workloads, and the
//! experimental harness.
//!
//! See the workspace `README.md` for a tour and `DESIGN.md` for the mapping
//! from the paper to the code.
//!
//! # Examples
//!
//! Transform a program with DPMR and run it (see `examples/quickstart.rs`
//! for the full version):
//!
//! ```
//! use dpmr::prelude::*;
//!
//! // A program with a buffer overflow, built in the IR.
//! let module = dpmr_workloads::micro::overflow_writer(8, 12);
//! // Transform with SDS + rearrange-heap + all-loads checking.
//! let cfg = DpmrConfig::sds();
//! let transformed = transform(&module, &cfg).expect("transform");
//! // Execute: the overflow is detected — either a failing DPMR
//! // comparison or a crash the bare program would not exhibit.
//! let out = run_with_limits(&transformed, &RunConfig::default());
//! assert!(out.status.is_dpmr_detection() || out.status.is_natural_detection());
//! ```

pub use dpmr_core as core;
pub use dpmr_dsa as dsa;
pub use dpmr_fi as fi;
pub use dpmr_harness as harness;
pub use dpmr_ir as ir;
pub use dpmr_recovery as recovery;
pub use dpmr_vm as vm;
pub use dpmr_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dpmr_core::prelude::*;
    pub use dpmr_ir::prelude::*;
    pub use dpmr_vm::prelude::*;
}
