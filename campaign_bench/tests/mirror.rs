//! The benchmark measures the program the harness runs: at a small size
//! its per-(class, app) counts equal those of the harness's own studies,
//! and its determinism digest does not depend on the worker count.

use campaign_bench::campaign::{digest, run_pass, Kind, Trial};
use campaign_bench::workloads::{Sizing, Workload};
use dpmr_core::prelude::*;
use dpmr_harness::experiment::prepare;
use dpmr_harness::metrics::{
    diversity_variants, run_fault_campaign, run_recovery_study, run_study, CampaignConfig, CovAgg,
    FaultClassAgg, RecoveryAgg, REPLICA_CLASS,
};
use dpmr_workloads::WorkloadParams;
use std::collections::BTreeMap;

const SEED: u64 = 42;

fn sizing() -> Sizing {
    Sizing {
        scale: 1,
        runs: 1,
        max_sites: Some(2),
    }
}

fn harness_config() -> CampaignConfig {
    CampaignConfig {
        params: WorkloadParams {
            scale: 1,
            seed: SEED,
        },
        runs: 1,
        max_sites: Some(2),
        workers: 2,
    }
}

fn trials(w: Workload, workers: usize) -> Vec<Trial> {
    let c = w.setup(SEED, &sizing());
    let units: Vec<usize> = (0..c.units()).collect();
    let pass = run_pass(&*c, &units, workers, false, false);
    let trials: Vec<Trial> = pass.units.into_iter().flat_map(|u| u.trials).collect();
    assert!(
        trials.iter().all(|t| t.result.is_ok()),
        "{}: no trial may fail at this size",
        w.name()
    );
    trials
}

fn cov_fields(a: &CovAgg) -> (u32, u32, u32, u32, u64, u32) {
    (a.n, a.co, a.ndet, a.ddet, a.t2d_cycles, a.t2d_n)
}

fn fault_fields(a: &FaultClassAgg) -> [u64; 11] {
    [
        a.trials.into(),
        a.fired.into(),
        a.ddet.into(),
        a.ndet.into(),
        a.escaped.into(),
        a.benign.into(),
        a.timeouts.into(),
        a.latency_cycles,
        a.latency_n.into(),
        a.recovered.into(),
        a.wrong_repairs.into(),
    ]
}

fn recovery_fields(a: &RecoveryAgg) -> [u64; 8] {
    [
        a.n.into(),
        a.recovered.into(),
        a.survived_wrong.into(),
        a.fail_stops.into(),
        a.repairs,
        a.retries,
        a.t2r_cycles,
        a.t2r_n.into(),
    ]
}

#[test]
fn coverage_mirrors_run_study() {
    let res = run_study(
        &dpmr_workloads::all_apps(),
        &diversity_variants(Scheme::Sds),
        &harness_config(),
    );
    let mut cov: BTreeMap<(String, String, String), CovAgg> = BTreeMap::new();
    let mut overhead: BTreeMap<(String, String), u64> = BTreeMap::new();
    for t in trials(Workload::Coverage, 2) {
        if t.key.study != "sds-div" {
            continue;
        }
        let v = t.result.expect("checked above");
        match t.kind {
            Kind::Stdapp | Kind::Dpmr => cov
                .entry((t.key.cfg, t.key.app.to_string(), t.key.class))
                .or_default()
                .add(&v.m),
            Kind::Clean => {
                overhead.insert((t.key.cfg, t.key.app.to_string()), v.m.cycles);
            }
            Kind::Golden => {}
        }
    }
    assert_eq!(cov.len(), res.coverage.len());
    for (k, a) in &res.coverage {
        assert_eq!(cov_fields(&cov[k]), cov_fields(a), "{k:?}");
    }
    assert_eq!(overhead.len(), res.overhead.len());
    for app in dpmr_workloads::all_apps() {
        let golden = prepare(app, &harness_config().params).golden.cycles as f64;
        for (k, o) in res.overhead.iter().filter(|(k, _)| k.1 == app.name) {
            assert_eq!(overhead[k] as f64 / golden, *o, "{k:?}");
        }
    }
}

#[test]
fn fault_campaign_mirrors_run_fault_campaign() {
    let res = run_fault_campaign(
        &dpmr_workloads::fault_campaign_apps(),
        &DpmrConfig::sds(),
        &harness_config(),
    );
    let mut agg: BTreeMap<(String, String), FaultClassAgg> = BTreeMap::new();
    let mut diff: BTreeMap<String, (FaultClassAgg, FaultClassAgg)> = BTreeMap::new();
    for t in trials(Workload::FaultCampaign, 2) {
        let v = t.result.expect("checked above");
        let (recovered, wrong) = v
            .recovery
            .as_ref()
            .map_or((false, false), |r| (r.recovered_correct, r.survived_wrong));
        let app = t.key.app.to_string();
        match t.key.study {
            "tabF" => agg
                .entry((t.key.class, app))
                .or_default()
                .add(&v.m, recovered, wrong),
            "tabF-replica" => {
                let pair = diff.entry(app.clone()).or_default();
                if t.key.k == 1 {
                    pair.0.add(&v.m, recovered, wrong);
                    agg.entry((REPLICA_CLASS.to_string(), app))
                        .or_default()
                        .add(&v.m, recovered, wrong);
                } else {
                    pair.1.add(&v.m, recovered, wrong);
                }
            }
            _ => {}
        }
    }
    assert_eq!(agg.len(), res.agg.len());
    for (k, a) in &res.agg {
        assert_eq!(fault_fields(&agg[k]), fault_fields(a), "{k:?}");
    }
    assert!(
        res.agg.values().any(|a| a.fired > 0 && a.ddet > 0),
        "the mirrored sample must exercise detection"
    );
    assert_eq!(diff.len(), res.replica_differential.len());
    for (app, (k1, k2)) in &res.replica_differential {
        assert_eq!(fault_fields(&diff[app].0), fault_fields(k1), "{app} K=1");
        assert_eq!(fault_fields(&diff[app].1), fault_fields(k2), "{app} K=2");
    }
}

#[test]
fn rollback_mirrors_run_recovery_study() {
    let res = run_recovery_study(
        &dpmr_workloads::recovery_apps(),
        &DpmrConfig::sds(),
        &harness_config(),
    );
    let mut agg: BTreeMap<(String, String, String), RecoveryAgg> = BTreeMap::new();
    for t in trials(Workload::Rollback, 2) {
        if t.kind != Kind::Dpmr {
            continue;
        }
        let v = t.result.expect("checked above");
        let policy = t
            .key
            .cfg
            .split("; ")
            .nth(1)
            .expect("policy suffix")
            .to_string();
        agg.entry((policy, t.key.app.to_string(), t.key.class))
            .or_default()
            .add(v.recovery.as_ref().expect("recovery verdict"));
    }
    assert_eq!(agg.len(), res.agg.len());
    for (k, a) in &res.agg {
        assert_eq!(recovery_fields(&agg[k]), recovery_fields(a), "{k:?}");
    }
    assert!(res.agg.values().any(|a| a.recovered > 0));
}

#[test]
fn digest_is_the_same_at_one_and_two_workers() {
    for w in Workload::ALL {
        let one = digest(&trials(w, 1));
        let two = digest(&trials(w, 2));
        assert_eq!(one, two, "{}", w.name());
    }
}
