//! Byte-identity golden for the recovery driver: FNV-1a of the whole
//! `RecoveryOutcome`'s `Debug` text, final attempt's telemetry included,
//! for every Table R.1 configuration and for a retry-with-cadence case
//! whose trace shows the checkpoint ring at work.
//!
//! The telemetry is collected in full (`TelemetryConfig::full`), so the
//! digests cover the event trace — cadence checkpoints, restores and
//! rollback escalations — as well as the pc profile and the per-site
//! counters. A change to the driver or to the interpreter's stop point
//! that is meant to leave recovery unchanged must keep this test passing.
//! If an *intentional* change moves an outcome, the failing test prints
//! the complete new table: replace `GOLDEN` with it and say so in the
//! commit.

use dpmr_core::prelude::*;
use dpmr_fi::FaultType;
use dpmr_ir::module::Module;
use dpmr_recovery::{RecoveryDriver, RecoveryOutcome, RecoveryPolicy};
use dpmr_vm::prelude::*;
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = "\
fail-stop: a24e49a838be9faa 1163
retry x8: ed3fde6f4a43aaec 1229
repair <=4096: c6b132833b7253be 1766
retry x8 mid: ed3fde6f4a43aaec 1229
abort k2: 45a44beec892d9c3 1365
vote <=64 k2: 3c9e77e3f863c99d 1969
retry x1 mid fine: 7fe039cf6d6e2a41 8989
retry x2 mid fine: 868aa75d2c61331b 7539
retry x3 mid fine: 32e6d7d22dfa30aa 8212
";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `resize_victim` with its first allocation halved: the overflow
/// corrupts the victim under every layout seed, so every replay
/// re-detects and a retry budget escalates through all three rungs.
fn injected_resize(cfg: &DpmrConfig) -> Module {
    let m = dpmr_workloads::micro::resize_victim(16, 12);
    let fault = FaultType::HeapArrayResize { keep_percent: 50 };
    let site = dpmr_fi::manifesting_sites(&m, fault)[0];
    transform(&dpmr_fi::inject(&m, &site, fault), cfg).expect("transform")
}

fn drive(m: &Module, rec: RecoveryConfig) -> RecoveryOutcome {
    let rc = RunConfig {
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    };
    RecoveryDriver::new(m, Rc::new(registry_with_wrappers()), rc, rec).run()
}

/// Cadence of the retry case: fine enough that a checkpoint precedes the
/// injection marker and dozens follow it before the detection.
const FINE_CADENCE: u64 = 5;

fn fine_retry(max_retries: u32) -> RecoveryConfig {
    RecoveryConfig {
        policy: RecoveryPolicy::RetryFromCheckpoint { max_retries },
        checkpoint_cadence: Some(FINE_CADENCE),
    }
}

fn cases() -> Vec<(String, RecoveryOutcome)> {
    let sds = injected_resize(&DpmrConfig::sds());
    let mut cases: Vec<(String, RecoveryOutcome)> = RecoveryConfig::paper_set()
        .into_iter()
        .map(|rec| (rec.name(), drive(&sds, rec)))
        .collect();
    let k2 = injected_resize(&DpmrConfig::sds().with_replicas(2));
    for policy in [
        RecoveryPolicy::Abort,
        RecoveryPolicy::VoteAndRepair { max_repairs: 64 },
    ] {
        let rec = RecoveryConfig::policy(policy);
        cases.push((format!("{} k2", rec.name()), drive(&k2, rec)));
    }
    for max_retries in 1..=3 {
        let rec = fine_retry(max_retries);
        cases.push((format!("{} fine", rec.name()), drive(&sds, rec)));
    }
    cases
}

fn table(cases: &[(String, RecoveryOutcome)]) -> String {
    let mut out = String::new();
    for (name, o) in cases {
        let text = format!("{o:?}");
        let _ = writeln!(
            out,
            "{name}: {:016x} {}",
            fnv1a(text.as_bytes()),
            text.len()
        );
    }
    out
}

#[test]
fn recovery_outcomes_match_the_golden() {
    let got = table(&cases());
    if got != GOLDEN {
        println!("{got}");
        panic!("recovery outcomes moved: the new table is printed above");
    }
}

fn restores(o: &RecoveryOutcome) -> Vec<(u64, u8)> {
    let ev = &o.telemetry.events;
    ev.iter()
        .zip(ev.iter().skip(1))
        .filter_map(|pair| match pair {
            (
                TraceEvent::CheckpointRestored { cycle },
                TraceEvent::RollbackEscalated { level, .. },
            ) => Some((*cycle, *level)),
            _ => None,
        })
        .collect()
}

/// The checkpoints the trace records before its rollback: those of the
/// timeline the final attempt was rolled back from.
fn checkpoints_before_rollback(o: &RecoveryOutcome) -> Vec<u64> {
    o.telemetry
        .events
        .iter()
        .take_while(|e| !matches!(e, TraceEvent::CheckpointRestored { .. }))
        .filter_map(|e| match e {
            TraceEvent::CheckpointTaken { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .collect()
}

#[test]
fn fine_cadence_retry_escalates_and_restores_the_pinned_checkpoint() {
    // A restore rolls the trace back with the rest of the state, so each
    // outcome's trace shows the rollback that began its final attempt:
    // budgets of 1, 2 and 3 retries end on rungs 0, 1 and 2.
    let sds = injected_resize(&DpmrConfig::sds());
    let outs: Vec<RecoveryOutcome> = (1..=3).map(|r| drive(&sds, fine_retry(r))).collect();
    for (rung, o) in outs.iter().enumerate() {
        assert!(o.fail_stopped, "every replay re-detects");
        assert_eq!(o.attempts, rung as u32 + 2);
        let r = restores(o);
        assert_eq!(r.len(), 1, "one rollback on the final timeline: {r:?}");
        assert_eq!(usize::from(r[0].1), rung, "escalation rung");
    }
    let fi = outs[0].last.first_fi_cycle.expect("the injection executed");

    // Rung 0 restored the first attempt's newest checkpoint, so its
    // trace lists every checkpoint up to it: more than a ring's worth
    // were taken after the injection marker...
    let first_attempt = checkpoints_before_rollback(&outs[0]);
    let after_fi = first_attempt.iter().filter(|&&c| c > fi).count();
    assert!(
        after_fi > 8,
        "only {after_fi} checkpoints after the injection"
    );
    assert_eq!(restores(&outs[0])[0].0, *first_attempt.last().unwrap());

    // ...yet rung 1 restored a mid-run checkpoint before the marker: the
    // one pinned when the ring rotated it out.
    let pinned = restores(&outs[1])[0].0;
    assert!(
        pinned > 0 && pinned <= fi,
        "pinned {pinned}, injection {fi}"
    );
    let newest_before_fi = first_attempt.iter().rev().find(|&&c| c <= fi);
    assert_eq!(Some(&pinned), newest_before_fi);

    // Rung 2 is the whole-run rollback.
    assert_eq!(restores(&outs[2])[0].0, 0);
}
