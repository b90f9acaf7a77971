//! # campaign-bench
//!
//! The repository's benchmark: the fault-injection campaigns people run
//! with `dpmr-harness`, driven unit by unit from outside the program so
//! that every layer's calls can be timed and every trial fails alone.
//! See `README.md` for the workloads, metrics and the layer map; `main.rs`
//! is the command.

pub mod campaign;
pub mod layers;
pub mod record;
pub mod report;
pub mod workloads;
