//! Telemetry subsystem behaviour: collection is opt-in and inert by
//! default, per-site counters and the event trace roll back with
//! snapshots (they are run state, not host state), and traces replay
//! bit-identically.

use dpmr::prelude::*;
use dpmr::workloads::micro;
use dpmr_vm::telemetry::{TelemetryConfig, TraceEvent};
use std::rc::Rc;

/// A transformed workload with live check sites and a full-telemetry
/// config.
fn setup() -> (dpmr::ir::module::Module, RunConfig, Rc<Registry>) {
    let m = micro::resize_victim(12, 8);
    let t = transform(&m, &DpmrConfig::sds()).expect("transform");
    let rc = RunConfig {
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    };
    (t, rc, Rc::new(registry_with_wrappers()))
}

#[test]
fn telemetry_is_empty_when_off() {
    let (t, _, reg) = setup();
    let mut it = Interp::new(&t, &RunConfig::default(), reg);
    let out = it.run(vec![]);
    assert!(matches!(out.status, ExitStatus::Normal(0)));
    let tele = it.telemetry();
    assert!(tele.site_stats.is_empty());
    assert!(tele.pc_exec.is_empty());
    assert!(tele.events.is_empty());
    assert_eq!(tele.events_dropped, 0);
}

#[test]
fn clean_run_counts_site_executions_and_pc_profile() {
    let (t, rc, reg) = setup();
    let mut it = Interp::new(&t, &rc, reg);
    let out = it.run(vec![]);
    assert!(matches!(out.status, ExitStatus::Normal(0)));
    let tele = it.telemetry();
    let total: u64 = tele.site_stats.iter().map(|s| s.executions).sum();
    assert!(total > 0, "check sites executed");
    assert!(tele.site_stats.iter().all(|s| s.detections == 0));
    // The pc profile retires exactly the counted instructions.
    let retired: u64 = tele.pc_exec.iter().sum();
    assert_eq!(retired, out.instrs);
    // The trace brackets the run.
    assert!(matches!(
        tele.events.first(),
        Some(TraceEvent::RunStart { .. })
    ));
    assert!(matches!(
        tele.events.last(),
        Some(TraceEvent::RunEnd {
            status: "normal",
            ..
        })
    ));
}

#[test]
fn site_counters_and_trace_survive_snapshot_restore() {
    let (t, rc, reg) = setup();

    // Reference: uninterrupted run.
    let mut fresh = Interp::new(&t, &rc, Rc::clone(&reg));
    let reference = fresh.run(vec![]);
    let ref_tele = fresh.telemetry().clone();

    // Pause mid-run, snapshot, restore into a new interpreter, resume:
    // the final counters and trace must be bit-identical — telemetry is
    // part of the timeline, not of the host interpreter.
    let mut it = Interp::new(&t, &rc, Rc::clone(&reg));
    let out = it.run_until(vec![], reference.cycles / 2);
    assert!(out.is_none(), "the cut is mid-run");
    let snap = it.snapshot();
    let mid: u64 = it.telemetry().site_stats.iter().map(|s| s.executions).sum();
    let fin: u64 = ref_tele.site_stats.iter().map(|s| s.executions).sum();
    assert!(mid < fin, "the cut lands before the last check");

    let mut restored = Interp::new(&t, &rc, reg);
    restored.restore(&snap);
    let replay = restored.resume();
    assert_eq!(replay.status, reference.status);
    let got = restored.telemetry();
    assert_eq!(got.site_stats, ref_tele.site_stats);
    assert_eq!(got.pc_exec, ref_tele.pc_exec);
    assert_eq!(got.trace_jsonl(), ref_tele.trace_jsonl());
}

#[test]
fn take_telemetry_leaves_sized_empty_collectors() {
    let (t, rc, reg) = setup();
    let mut it = Interp::new(&t, &rc, reg);
    it.run(vec![]);
    let taken = it.take_telemetry();
    assert!(!taken.events.is_empty());
    let left = it.telemetry();
    assert!(left.events.is_empty());
    assert_eq!(left.site_stats.len(), taken.site_stats.len());
    assert!(left.site_stats.iter().all(|s| s.executions == 0));
    assert_eq!(left.pc_exec.len(), taken.pc_exec.len());
    assert!(left.pc_exec.iter().all(|&n| n == 0));
}
