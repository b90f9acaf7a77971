//! Detect-and-recover (the Rx integration the related-work section
//! sketches, and a Chapter 6 future possibility): DPMR *detects* a memory
//! error; an Rx-style recovery layer then re-executes the work in a
//! *diverse environment designed to avoid the error* — here, re-running
//! with a large pad-malloc so the overflow lands in padding.
//!
//! The combination turns a crash-or-corrupt bug into degraded-but-correct
//! service, without fixing the underlying fault.
//!
//! ```bash
//! cargo run --release --example detect_and_retry
//! ```

use dpmr::prelude::*;
use std::rc::Rc;

fn main() {
    // A request handler with an off-by-four overflow (writes 12 slots
    // into an 8-slot buffer) that corrupts a neighbouring object.
    let buggy = dpmr::workloads::micro::overflow_writer(8, 12);

    // First attempt: the monitored production configuration.
    let detect_cfg = DpmrConfig::sds(); // rearrange-heap + all loads
    println!("attempt 1 under {} ...", detect_cfg.name());
    let protected = transform(&buggy, &detect_cfg).expect("transform");
    let out = run_with_registry(
        &protected,
        &RunConfig::default(),
        Rc::new(registry_with_wrappers()),
    );
    let detected = out.status.is_dpmr_detection() || out.status.is_natural_detection();
    println!("  -> {:?} (detected: {detected})", out.status);
    assert!(detected, "the overflow must be detected on attempt 1");

    // Rx-style recovery: re-execute in an environment that avoids the
    // error. Pad every allocation generously — in the paper's framing,
    // "if a buffer overflow is detected, the overflowed buffer can be
    // padded" (Sec. 1.5.1 on Rx). We pad the *application's* environment
    // by transforming a padded variant: both app and replica requests
    // grow, so the 4-slot overflow lands in padding on both sides.
    println!("\nattempt 2: re-execution with overflow-absorbing padding ...");
    let recovered = retry_with_padding(&buggy);
    match recovered {
        Some(output) => {
            println!("  -> recovered; output {output:?}");
            assert_eq!(output, vec![40], "victim object survives under padding");
            println!("\nservice continued correctly despite the latent fault ✓");
        }
        None => panic!("recovery attempt failed"),
    }
}

/// Re-runs the program with every heap request padded so spatial errors
/// fall into slack space (the avoidance environment). Returns the output
/// when the re-execution completes cleanly.
fn retry_with_padding(buggy: &dpmr::ir::module::Module) -> Option<Vec<u64>> {
    // Build the avoidance environment: pad the application's own
    // allocations by rewriting malloc sites (+128 bytes each).
    let mut padded = buggy.clone();
    for f in &mut padded.funcs {
        for b in &mut std::sync::Arc::make_mut(f).blocks {
            for i in &mut b.instrs {
                if let dpmr::ir::instr::Instr::Malloc { count, elem, .. } = i {
                    // Grow the request: count' covers 16 extra elements.
                    if let dpmr::ir::instr::Operand::Const(dpmr::ir::instr::Const::Int {
                        value,
                        ..
                    }) = count
                    {
                        *value += 16;
                    }
                    let _ = elem;
                }
            }
        }
    }
    // Keep DPMR active during recovery (errors that padding cannot absorb
    // must still be caught).
    let cfg = DpmrConfig::sds().with_diversity(Diversity::PadMalloc(128));
    let t = transform(&padded, &cfg).expect("transform");
    let out = run_with_registry(&t, &RunConfig::default(), Rc::new(registry_with_wrappers()));
    if matches!(out.status, ExitStatus::Normal(0)) {
        Some(out.output)
    } else {
        println!("  -> recovery run status {:?}", out.status);
        None
    }
}
