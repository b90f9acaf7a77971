//! Detect → repair → continue: the detection-to-recovery subsystem end to
//! end.
//!
//! A heap-array-resize fault is injected into a program (the compiler-based
//! injection of Sec. 3.4), shrinking an array to half its size so the
//! program's in-bounds writes become a buffer overflow. Under plain DPMR
//! the first checked load of corrupted memory *detects* the error and the
//! run terminates — the paper's endpoint. Under the
//! `RepairFromReplica` recovery policy the same detection becomes a
//! resumable trap: the replica's value is copied back over the divergent
//! application location, the load's register is fixed up, and execution
//! continues — to completion, with output identical to the fault-free
//! golden run.
//!
//! This subsumes the application-level re-execution pattern of
//! `examples/detect_and_retry.rs`: recovery here is a subsystem
//! (`dpmr-recovery`), not a hand-rolled loop, and it repairs *forward*
//! from replica state instead of restarting with padding.
//!
//! ```bash
//! cargo run --release --example recover_and_continue
//! ```

use dpmr::fi::FaultType;
use dpmr::prelude::*;
use dpmr_recovery::{RecoveryDriver, RecoveryPolicy};
use std::rc::Rc;

fn main() {
    // The service: writes a 16-slot work array, then serves a 12-slot
    // victim buffer whose sum is the observable output.
    let program = dpmr::workloads::micro::resize_victim(16, 12);
    let golden = run_with_limits(&program, &RunConfig::default());
    println!(
        "golden run:      {:?}, output {:?}",
        golden.status, golden.output
    );

    // Inject the paper's heap-array-resize fault (50% keep) at the first
    // manifesting allocation site: the work array shrinks to 8 slots and
    // the 16 writes overflow into neighbouring heap objects.
    let fault = FaultType::HeapArrayResize { keep_percent: 50 };
    let site = dpmr::fi::manifesting_sites(&program, fault)[0];
    let faulty = dpmr::fi::inject(&program, &site, fault);

    let bare = run_with_limits(&faulty, &RunConfig::default());
    println!(
        "faulty, no DPMR: {:?}, output {:?}  <- silent corruption",
        bare.status, bare.output
    );
    assert_ne!(bare.output, golden.output, "the fault corrupts the output");

    // Policy-only DPMR (the paper's configuration): detection terminates.
    let cfg = DpmrConfig::sds();
    let protected = transform(&faulty, &cfg).expect("transform");
    let detected = run_with_registry(
        &protected,
        &RunConfig::default(),
        Rc::new(registry_with_wrappers()),
    );
    println!(
        "DPMR, abort:     {:?}  <- detection ends the run",
        detected.status
    );
    assert!(
        detected.status.is_dpmr_detection(),
        "plain DPMR must terminate at detection"
    );

    // Detection-to-recovery: the same detections become resumable traps;
    // each one copies the replica's value over the divergent application
    // location and the run continues. The policy is the driver's; the
    // build is unchanged.
    let driver = RecoveryDriver::new(
        &protected,
        Rc::new(registry_with_wrappers()),
        RunConfig::default(),
        RecoveryConfig::policy(RecoveryPolicy::RepairFromReplica { max_repairs: 4096 }),
    );
    let out = driver.run();
    println!(
        "DPMR, repair:    {:?}, output {:?}  <- {} detection(s), {} repair(s), {} cycles to recover",
        out.last.status,
        out.last.output,
        out.detections,
        out.repairs,
        out.time_to_recovery.unwrap_or(0),
    );
    assert!(out.recovered(), "the run must survive the fault");
    assert_eq!(
        out.last.output, golden.output,
        "repaired output must equal the golden output"
    );
    println!("\nservice continued with correct output despite the injected fault ✓");
}
