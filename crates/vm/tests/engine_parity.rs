//! Differential engine parity against a recorded golden trace.
//!
//! A spread of workloads (plain, SDS-transformed, and the recovery
//! repair/retry/cadence paths) is executed and its absolute
//! status/instruction/cycle/output accounting compared byte-for-byte
//! against `engine_parity_golden.txt`, recorded from the engine that
//! validated the bytecode lowering against the original tree walker. An
//! engine refactor is accounting-compatible exactly when this test
//! passes.
//!
//! If an *intentional* accounting change lands (e.g. new cycle costs),
//! the failing test prints the complete new trace on stdout: replace the
//! golden file with it and say so in the commit.

const GOLDEN: &str = include_str!("engine_parity_golden.txt");

/// Builds the engine-parity differential trace: absolute
/// status/instruction/cycle/output accounting for a spread of workloads
/// (plain, SDS-transformed, and the recovery repair/retry/cadence paths).
fn engine_parity_trace() -> String {
    use dpmr::prelude::*;
    use std::fmt::Write as _;
    use std::rc::Rc;

    let mut out = String::new();

    // Recovery paths over an injected heap-array resize.
    {
        use dpmr::fi::FaultType;
        use dpmr::recovery::{RecoveryDriver, RecoveryPolicy};
        let m = dpmr::workloads::micro::resize_victim(16, 12);
        let fault = FaultType::HeapArrayResize { keep_percent: 50 };
        let site = dpmr::fi::manifesting_sites(&m, fault)[0];
        let faulty = dpmr::fi::inject(&m, &site, fault);
        let t = transform(&faulty, &DpmrConfig::sds()).unwrap();
        for (label, cfg) in [
            (
                "repair",
                RecoveryConfig::policy(RecoveryPolicy::RepairFromReplica { max_repairs: 64 }),
            ),
            (
                "retry",
                RecoveryConfig::policy(RecoveryPolicy::RetryFromCheckpoint { max_retries: 4 }),
            ),
            (
                "retry-mid",
                RecoveryConfig {
                    checkpoint_cadence: Some(500),
                    ..RecoveryConfig::policy(RecoveryPolicy::RetryFromCheckpoint { max_retries: 4 })
                },
            ),
        ] {
            let d = RecoveryDriver::new(
                &t,
                Rc::new(registry_with_wrappers()),
                RunConfig::default(),
                cfg,
            );
            let o = d.run();
            let _ = writeln!(
                out,
                "rec {label}: {:?} attempts={} det={} rep={} t2r={:?} cycles={} instrs={}",
                o.last.status,
                o.attempts,
                o.detections,
                o.repairs,
                o.time_to_recovery,
                o.last.cycles,
                o.last.instrs
            );
        }
    }

    // Plain and SDS accounting across the workload spread.
    let progs: Vec<(&str, dpmr::ir::module::Module)> = vec![
        ("ll", dpmr::workloads::micro::linked_list(50)),
        ("qsort", dpmr::workloads::micro::qsort_prog(24)),
        ("rv", dpmr::workloads::micro::resize_victim(16, 12)),
        ("mcf", dpmr::workloads::mcf::build(6, 3)),
        ("equake", dpmr::workloads::equake::build(6, 3)),
    ];
    for (name, m) in progs {
        let o = run_with_limits(&m, &RunConfig::default());
        let _ = writeln!(
            out,
            "{name} plain: {:?} instrs={} cycles={} out={:?}",
            o.status, o.instrs, o.cycles, o.output
        );
        let t = transform(
            &m,
            &DpmrConfig::sds().with_diversity(Diversity::RearrangeHeap),
        )
        .unwrap();
        let o = run_with_registry(&t, &RunConfig::default(), Rc::new(registry_with_wrappers()));
        let _ = writeln!(
            out,
            "{name} sds:   {:?} instrs={} cycles={} out={:?}",
            o.status, o.instrs, o.cycles, o.output
        );
    }
    out
}

#[test]
fn lowered_engine_matches_recorded_golden_traces() {
    let trace = engine_parity_trace();
    if trace != GOLDEN {
        print!("{trace}");
        // Diff line by line so the failing accounting is pinpointed.
        for (i, (got, want)) in trace.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "engine accounting diverged from the golden trace at line {}",
                i + 1
            );
        }
        assert_eq!(
            trace.lines().count(),
            GOLDEN.lines().count(),
            "trace length diverged from the golden trace"
        );
        // No line differed, yet the strings do: a terminator-only
        // divergence (trailing newline / CRLF). Surface the raw bytes.
        assert_eq!(
            trace, GOLDEN,
            "traces differ only in line terminators or trailing newline"
        );
    }
}
