//! Observability artifacts: the check-site profile and trace sink must
//! be bit-identical at any worker count (the scheduler merges in unit
//! order), and the profile must actually carry the detection-usefulness
//! signal for the fault-campaign app set.

use dpmr_core::prelude::*;
use dpmr_harness::figures::{site_profile_table, trace_sink};
use dpmr_harness::metrics::{run_site_profile_study, run_trace_study, CampaignConfig};
use dpmr_workloads::fault_campaign_apps;

fn tiny(workers: usize) -> CampaignConfig {
    CampaignConfig {
        params: dpmr_workloads::WorkloadParams::quick(),
        runs: 1,
        max_sites: Some(2),
        workers,
    }
}

#[test]
fn site_profile_is_bit_identical_at_any_worker_count() {
    let apps = fault_campaign_apps();
    let base = DpmrConfig::sds();
    let one = site_profile_table(
        "t",
        &run_site_profile_study(&apps, &base, &tiny(1)).unwrap(),
    );
    for workers in [2, 8] {
        let many = site_profile_table(
            "t",
            &run_site_profile_study(&apps, &base, &tiny(workers)).unwrap(),
        );
        assert_eq!(one, many, "profS.1 diverged at {workers} workers");
    }
}

#[test]
fn trace_sink_is_bit_identical_at_any_worker_count() {
    let apps = fault_campaign_apps();
    let base = DpmrConfig::sds();
    let one = trace_sink("t", &run_trace_study(&apps, &base, &tiny(1)).unwrap());
    let eight = trace_sink("t", &run_trace_study(&apps, &base, &tiny(8)).unwrap());
    assert_eq!(one, eight, "traceE.1 diverged at 8 workers");
}

#[test]
fn site_profile_reports_executions_and_detections() {
    let apps = fault_campaign_apps();
    let res = run_site_profile_study(&apps, &DpmrConfig::sds(), &tiny(4)).unwrap();
    assert_eq!(res.apps.len(), apps.len());
    for app in &res.apps {
        let p = &res.profiles[app];
        assert!(!p.site_pcs.is_empty(), "{app}: transformed build has sites");
        assert_eq!(p.clean.len(), p.site_pcs.len());
        assert_eq!(p.armed.len(), p.site_pcs.len());
        let execs: u64 = p.clean.iter().map(|s| s.executions).sum();
        assert!(execs > 0, "{app}: clean run executed checks");
        assert!(p.trials > 0, "{app}: armed trials ran");
        assert!(p.clean_cycles > 0);
        assert!(p.funcs.iter().any(|(_, n)| *n > 0));
    }
    // The armed sweep detects somewhere across the app set (the
    // usefulness column is non-degenerate).
    let detections: u64 = res
        .profiles
        .values()
        .flat_map(|p| p.armed.iter().map(|s| s.detections))
        .sum();
    assert!(detections > 0, "no site ever detected an injected fault");
}

#[test]
fn trace_sink_lines_are_keyed_json_objects() {
    let apps = [dpmr_workloads::app_by_name("mcf").unwrap()];
    let res = run_trace_study(&apps, &DpmrConfig::sds(), &tiny(2)).unwrap();
    assert!(res.traces.iter().any(|t| t.config == "clean"));
    assert!(res.traces.iter().any(|t| t.config != "clean"));
    for t in &res.traces {
        assert_eq!(t.app, "mcf");
        for line in t.jsonl.lines() {
            assert!(
                line.starts_with(&format!(
                    "{{\"app\":\"mcf\",\"seed\":{},\"config\":\"{}\",\"event\":\"",
                    t.seed, t.config
                )),
                "unkeyed trace line: {line}"
            );
            assert!(line.ends_with('}'));
        }
        // Every run's trace brackets the run.
        assert!(t.jsonl.contains("\"event\":\"run-start\""));
        assert!(t.jsonl.contains("\"event\":\"run-end\""));
    }
}
