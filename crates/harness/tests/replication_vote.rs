//! Vote-based arbitration acceptance: a fault landing in *replica*
//! memory is exactly the class single-replica DPMR cannot survive —
//! `RepairFromReplica` must trust the corrupted copy, so it either
//! mis-repairs (completes with wrong output) or fail-stops — while
//! K = 2 `VoteAndRepair` outvotes the corrupt replica, rewrites it, and
//! completes with correct output. Plus the Table V.1 study's shape and
//! worker-count bit-identity.

use dpmr_core::prelude::*;
use dpmr_harness::figures;
use dpmr_harness::metrics::{
    run_fault_campaign, run_replication_degree_study, CampaignConfig, REPLICATION_DEGREES,
};
use dpmr_recovery::{RecoveryDriver, RecoveryPolicy};
use dpmr_vm::fault::{ArmedFault, FaultModel};
use dpmr_vm::interp::{ExitStatus, RunConfig};
use dpmr_vm::mem::MemRegion;
use dpmr_workloads::micro;
use std::rc::Rc;

/// Runs `resize_victim` with a one-shot heap bit-flip armed at the
/// build's first replica access, under the best repair policy the
/// build's replication degree admits.
fn replica_fault_outcome(k: usize) -> (dpmr_recovery::RecoveryOutcome, Vec<u64>) {
    let m = micro::resize_victim(16, 12);
    let golden = dpmr_vm::interp::run_with_limits(&m, &RunConfig::default());
    assert_eq!(golden.status, ExitStatus::Normal(0));
    let cfg = DpmrConfig::sds().with_replicas(k);
    let t = transform(&m, &cfg).expect("transform");
    let code = Rc::new(dpmr_vm::lower::lower(&t));
    let sites = dpmr_fi::enumerate_replica_sites(&code);
    assert!(!sites.is_empty(), "checked loads imply replica sites");
    let rc = RunConfig {
        fault: Some(ArmedFault {
            site: sites[0].pc,
            fault: FaultModel::BitFlip {
                region: MemRegion::Heap,
            },
            seed: 0xABCD,
            arm_cycle: 0,
        }),
        ..RunConfig::default()
    };
    let policy = if k >= 2 {
        RecoveryPolicy::VoteAndRepair { max_repairs: 4096 }
    } else {
        RecoveryPolicy::RepairFromReplica { max_repairs: 4096 }
    };
    let driver = RecoveryDriver::with_code(
        &t,
        code,
        Rc::new(registry_with_wrappers()),
        rc,
        dpmr_core::config::RecoveryConfig::policy(policy),
    );
    (driver.run(), golden.output)
}

#[test]
fn vote_and_repair_recovers_a_replica_fault_single_replica_repair_cannot() {
    // K = 1: repair-from-replica must assume the replica is the truth,
    // so a replica-memory corruption is copied over correct application
    // state — the run either ends wrong or fail-stops. It must NOT
    // recover with correct output.
    let (k1, golden) = replica_fault_outcome(1);
    assert!(
        k1.last.fault_fired_cycle.is_some(),
        "the armed replica flip fired"
    );
    assert!(k1.detections > 0, "the corruption was detected");
    let k1_correct = matches!(k1.last.status, ExitStatus::Normal(0)) && k1.last.output == golden;
    assert!(
        !k1_correct,
        "K = 1 must fail-stop or mis-repair, got {:?} {:?}",
        k1.last.status, k1.last.output
    );

    // K = 2: the vote identifies the corrupt copy as the outvoted
    // replica, rewrites *it*, and the run completes correctly.
    let (k2, golden2) = replica_fault_outcome(2);
    assert!(k2.last.fault_fired_cycle.is_some());
    assert!(k2.detections > 0);
    assert!(
        matches!(k2.last.status, ExitStatus::Normal(0)) && k2.last.output == golden2,
        "K = 2 vote-and-repair recovers correctly, got {:?} {:?}",
        k2.last.status,
        k2.last.output
    );
    assert!(
        k2.last.replica_repairs > 0,
        "the repair landed on the replica side"
    );
}

#[test]
fn vote_at_k1_fail_stops_instead_of_guessing() {
    // A K = 1 mismatch is a one-against-one tie: VoteAndRepair must
    // refuse to arbitrate (fail-stop), never silently pick a side.
    let m = micro::resize_victim(16, 12);
    let t = transform(&m, &DpmrConfig::sds()).expect("transform");
    let code = Rc::new(dpmr_vm::lower::lower(&t));
    let sites = dpmr_fi::enumerate_replica_sites(&code);
    let rc = RunConfig {
        fault: Some(ArmedFault {
            site: sites[0].pc,
            fault: FaultModel::BitFlip {
                region: MemRegion::Heap,
            },
            seed: 0xABCD,
            arm_cycle: 0,
        }),
        ..RunConfig::default()
    };
    let driver = RecoveryDriver::with_code(
        &t,
        code,
        Rc::new(registry_with_wrappers()),
        rc,
        dpmr_core::config::RecoveryConfig::policy(RecoveryPolicy::VoteAndRepair {
            max_repairs: 4096,
        }),
    );
    let out = driver.run();
    assert!(out.last.status.is_dpmr_detection(), "{:?}", out.last.status);
    assert!(out.fail_stopped, "a tie is a controlled stop");
    assert_eq!(out.repairs, 0, "no side was guessed");
}

fn tiny() -> CampaignConfig {
    CampaignConfig {
        params: dpmr_workloads::WorkloadParams::quick(),
        runs: 1,
        max_sites: Some(2),
        workers: 1,
    }
}

#[test]
fn replication_degree_study_shape_and_worker_bit_identity() {
    let apps = [dpmr_workloads::app_by_name("rvictim").unwrap()];
    let base = DpmrConfig::sds();
    let one = run_replication_degree_study(&apps, &base, &tiny()).unwrap();
    assert_eq!(one.variants.len(), 2 * REPLICATION_DEGREES.len());
    assert_eq!(one.classes.len(), 3);
    assert!(one.experiments > 0);
    // Overhead grows monotonically with K under no-diversity.
    let oh = |v: &str| one.overhead[&(v.to_string(), "rvictim".to_string())];
    assert!(oh("K=2/no-diversity") > oh("K=1/no-diversity"));
    assert!(oh("K=3/no-diversity") > oh("K=2/no-diversity"));
    // On replica-region flips, K >= 2 repair success strictly beats
    // K = 1 (which cannot repair a corrupted replica at all).
    let agg = |v: &str| {
        one.agg[&(
            v.to_string(),
            "rvictim".to_string(),
            "bit-flip replica".to_string(),
        )]
    };
    let k1 = agg("K=1/no-diversity");
    let k2 = agg("K=2/no-diversity");
    if k1.fired > 0 && k2.fired > 0 {
        assert!(
            k2.recovery_rate() > k1.recovery_rate(),
            "vote-repair beats single-replica repair on replica faults ({} vs {})",
            k2.recovery_rate(),
            k1.recovery_rate()
        );
        assert!(k2.unrecoverable_rate() <= k1.unrecoverable_rate());
    }
    // The rendered artifact is bit-identical at any worker count.
    let eight = run_replication_degree_study(&apps, &base, &tiny().with_workers(8)).unwrap();
    assert_eq!(
        figures::replication_table("t", &one),
        figures::replication_table("t", &eight)
    );
}

#[test]
fn fault_campaign_reports_the_replica_differential() {
    let apps = [dpmr_workloads::app_by_name("rvictim").unwrap()];
    let res = run_fault_campaign(&apps, &DpmrConfig::sds(), &tiny());
    let (k1, k2) = &res.replica_differential["rvictim"];
    assert!(k1.trials > 0 && k2.trials > 0);
    // The K = 1 leg cannot vote: every detected replica corruption it
    // "repairs" lands wrong; the K = 2 leg arbitrates.
    if k1.fired > 0 && k2.fired > 0 {
        assert!(k2.recovery_rate() >= k1.recovery_rate());
        assert!(k1.wrong_repairs + k1.escaped >= k2.wrong_repairs + k2.escaped);
    }
    // The replica pseudo-class rides the main table too.
    assert!(res.classes.iter().any(|c| c == "bit-flip replica"));
    let txt = figures::fault_campaign_table("t", &res);
    assert!(txt.contains("replica-region bit-flips"));
}
