//! # dpmr-recovery
//!
//! Detection-to-recovery: turns DPMR detections into survivable events.
//!
//! The paper's transformation *detects* memory errors by comparing
//! application and replica values at loads and then terminates (Sec. 3.6).
//! But the diverse replica it maintains is exactly the redundant state
//! needed to *repair* and continue — the direction replication-based
//! memory-protection schemes take (Volos & Sazeides, arXiv:2502.17138) and,
//! for partial replicas, the metadata-tracking designs of Xiang & Vaidya
//! (arXiv:1611.04022). This crate closes that loop over the simulation
//! substrate:
//!
//! * [`RecoveryPolicy`] (re-exported from `dpmr-core`) selects the
//!   reaction: terminate ([`RecoveryPolicy::Abort`] /
//!   [`RecoveryPolicy::FailStop`]), roll back and replay in a diverse
//!   environment ([`RecoveryPolicy::RetryFromCheckpoint`]), or copy the
//!   replica value over the divergent application location and resume
//!   ([`RecoveryPolicy::RepairFromReplica`]);
//! * [`RepairHandler`] implements the VM's `TrapHandler` hook, approving
//!   in-place repairs up to a budget;
//! * [`RecoveryDriver`] owns the checkpoint cadence — the VM's explicit
//!   frame stack makes checkpoints valid between *any* two instructions,
//!   so the driver snapshots every `checkpoint_cadence` virtual cycles
//!   and rolls back to the nearest usable checkpoint on trap (escalating
//!   toward whole-run rollback) — and reduces everything to a
//!   [`RecoveryOutcome`].
//!
//! # Examples
//!
//! A program with an injected heap-array-resize fault terminates under
//! plain DPMR but completes — with correct output — under
//! repair-from-replica:
//!
//! ```
//! use dpmr_core::prelude::*;
//! use dpmr_fi::FaultType;
//! use dpmr_recovery::{RecoveryDriver, RecoveryPolicy};
//! use dpmr_vm::prelude::*;
//! use std::rc::Rc;
//!
//! let m = dpmr_workloads::micro::resize_victim(16, 12);
//! let fault = FaultType::HeapArrayResize { keep_percent: 50 };
//! let site = dpmr_fi::manifesting_sites(&m, fault)[0];
//! let faulty = dpmr_fi::inject(&m, &site, fault);
//! let t = transform(&faulty, &DpmrConfig::sds()).expect("transform");
//!
//! // Detection alone: the run ends at the first mismatch.
//! let plain = run_with_registry(
//!     &t,
//!     &RunConfig::default(),
//!     Rc::new(registry_with_wrappers()),
//! );
//! assert!(plain.status.is_dpmr_detection());
//!
//! // Detection + repair: the run completes with the golden output.
//! let driver = RecoveryDriver::new(
//!     &t,
//!     Rc::new(registry_with_wrappers()),
//!     RunConfig::default(),
//!     RecoveryConfig::policy(RecoveryPolicy::RepairFromReplica { max_repairs: 64 }),
//! );
//! let out = driver.run();
//! assert!(matches!(out.last.status, ExitStatus::Normal(0)));
//! assert!(out.recovered());
//! assert_eq!(out.last.output, vec![60]);
//! ```

pub use dpmr_core::config::{RecoveryConfig, RecoveryPolicy};

use dpmr_core::config::DpmrConfig;
use dpmr_ir::module::Module;
use dpmr_vm::code::LoweredCode;
use dpmr_vm::external::Registry;
use dpmr_vm::interp::{
    DetectionTrap, ExitStatus, Interp, InterpSnapshot, RunConfig, RunOutcome, TrapAction,
    TrapHandler,
};
use dpmr_vm::telemetry::TraceEvent;
use std::cell::RefCell;
use std::rc::Rc;

/// Budgeted repair approver: grants its configured action
/// ([`TrapAction::Repair`] by default, [`TrapAction::Vote`] for
/// vote-based arbitration) until the per-run budget is exhausted, then
/// lets the detection terminate the run (the fail-stop fallback).
#[derive(Debug)]
pub struct RepairHandler {
    budget: u64,
    approved: u64,
    grant: TrapAction,
}

impl RepairHandler {
    /// Creates a handler allowing up to `budget` replica-0 repairs.
    pub fn new(budget: u64) -> RepairHandler {
        RepairHandler {
            budget,
            approved: 0,
            grant: TrapAction::Repair,
        }
    }

    /// Creates a handler allowing up to `budget` majority-vote repairs
    /// (the K >= 2 arbitration; the interpreter fail-stops each detection
    /// with no strict majority).
    pub fn voting(budget: u64) -> RepairHandler {
        RepairHandler {
            grant: TrapAction::Vote,
            ..RepairHandler::new(budget)
        }
    }

    /// Repairs approved so far.
    pub fn approved(&self) -> u64 {
        self.approved
    }
}

impl TrapHandler for RepairHandler {
    fn on_detection(&mut self, _trap: &DetectionTrap) -> TrapAction {
        if self.approved < self.budget {
            self.approved += 1;
            self.grant
        } else {
            TrapAction::Terminate
        }
    }
}

/// Everything a recovery run reduces to.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Outcome of the final attempt.
    pub last: RunOutcome,
    /// Attempts executed (1 = no replay).
    pub attempts: u32,
    /// Detections across all attempts, including repaired ones.
    pub detections: u64,
    /// In-place repairs applied across all attempts.
    pub repairs: u64,
    /// The policy hit its budget (retries or repairs) and stopped in a
    /// controlled way, or was `FailStop` and detected.
    pub fail_stopped: bool,
    /// Virtual cycles from the first detection to final completion,
    /// accumulated across failed attempts and the final one. `None` when
    /// nothing was detected or the run never completed.
    pub time_to_recovery: Option<u64>,
}

impl RecoveryOutcome {
    /// True when the run completed normally *after* at least one
    /// detection — the program survived a manifested memory error.
    /// (Output correctness is judged by the caller against a golden run.)
    pub fn recovered(&self) -> bool {
        matches!(self.last.status, ExitStatus::Normal(_)) && self.detections > 0
    }
}

/// Owns the checkpoint cadence and the detection-reaction loop for one
/// transformed module.
///
/// A runtime fault armed on the run configuration (`RunConfig::fault`)
/// rides into every attempt the driver makes: repairs face the same
/// deterministic corruption the detection saw, and a checkpoint restore
/// to a pre-fire point re-arms one-shot faults so rolled-back timelines
/// refire them at the same instant — which is what lets the fault
/// campaign measure recovery against the expanded fault model without
/// any driver-side special-casing.
///
/// The interpreter's execution stack is explicit, so a checkpoint taken
/// between any two instructions is a complete description of execution
/// state. With a configured cadence the driver collects mid-run
/// checkpoints and, when a detection terminates an attempt, rolls back
/// over an escalating distance — nearest checkpoint, nearest before the
/// injection, whole run — instead of always replaying from scratch.
/// Replays are *diverse*: each one re-seeds the runtime RNG and
/// garbage-fill, so a corruption that landed on live state in one layout
/// can land on slack in the next (the Rx avoidance model the paper's
/// related work describes).
pub struct RecoveryDriver<'m> {
    module: &'m Module,
    code: Rc<LoweredCode>,
    registry: Rc<Registry>,
    run_cfg: RunConfig,
    rec_cfg: RecoveryConfig,
}

impl<'m> RecoveryDriver<'m> {
    /// Creates a driver for an already-transformed module (lowering it to
    /// bytecode once; callers running the same module under several
    /// policies or seeds should share the lowering via
    /// [`RecoveryDriver::with_code`]).
    pub fn new(
        module: &'m Module,
        registry: Rc<Registry>,
        run_cfg: RunConfig,
        rec_cfg: RecoveryConfig,
    ) -> RecoveryDriver<'m> {
        let code = Rc::new(dpmr_vm::lower::lower(module));
        RecoveryDriver::with_code(module, code, registry, run_cfg, rec_cfg)
    }

    /// Like [`RecoveryDriver::new`] but reusing already-lowered bytecode
    /// (`code` must have been lowered from `module`).
    pub fn with_code(
        module: &'m Module,
        code: Rc<LoweredCode>,
        registry: Rc<Registry>,
        run_cfg: RunConfig,
        rec_cfg: RecoveryConfig,
    ) -> RecoveryDriver<'m> {
        RecoveryDriver {
            module,
            code,
            registry,
            run_cfg,
            rec_cfg,
        }
    }

    /// Creates a driver honouring the recovery policy carried by the DPMR
    /// build configuration (`DpmrConfig::with_recovery`) — the variant's
    /// recovery knob and its runtime behaviour stay in one place.
    pub fn from_dpmr_config(
        module: &'m Module,
        registry: Rc<Registry>,
        run_cfg: RunConfig,
        cfg: &DpmrConfig,
    ) -> RecoveryDriver<'m> {
        RecoveryDriver::new(module, registry, run_cfg, cfg.recovery)
    }

    /// Executes the module under the configured recovery policy.
    pub fn run(&self) -> RecoveryOutcome {
        let mut interp = Interp::with_code(
            self.module,
            Rc::clone(&self.code),
            &self.run_cfg,
            Rc::clone(&self.registry),
        );
        match self.rec_cfg.policy {
            RecoveryPolicy::Abort | RecoveryPolicy::FailStop => {
                let out = interp.run(self.run_cfg.args.clone());
                let fail_stopped = self.rec_cfg.policy == RecoveryPolicy::FailStop
                    && out.status.is_dpmr_detection();
                reduce(out, 1, fail_stopped)
            }
            RecoveryPolicy::RepairFromReplica { max_repairs } => {
                let handler = Rc::new(RefCell::new(RepairHandler::new(max_repairs)));
                interp.set_trap_handler(handler.clone());
                let out = interp.run(self.run_cfg.args.clone());
                // A terminal detection here means the budget ran dry.
                let fail_stopped = out.status.is_dpmr_detection();
                reduce(out, 1, fail_stopped)
            }
            RecoveryPolicy::VoteAndRepair { max_repairs } => {
                let handler = Rc::new(RefCell::new(RepairHandler::voting(max_repairs)));
                interp.set_trap_handler(handler.clone());
                let out = interp.run(self.run_cfg.args.clone());
                // A terminal detection: budget exhausted *or* no strict
                // majority to arbitrate with (always the case at K = 1).
                let fail_stopped = out.status.is_dpmr_detection();
                reduce(out, 1, fail_stopped)
            }
            RecoveryPolicy::RetryFromCheckpoint { max_retries } => {
                self.retry_loop(&mut interp, max_retries)
            }
        }
    }

    /// The rollback-and-replay loop. With no cadence configured this is
    /// whole-run rollback: checkpoint once after initialization, and on
    /// DPMR detection restore it, diversify the environment, and replay.
    ///
    /// With a mid-run cadence (`RecoveryConfig::checkpoint_cadence`), the
    /// interpreter snapshots itself every N virtual cycles and the loop
    /// rolls back over an *escalating distance*: first to the nearest
    /// checkpoint before the detection (cheapest replay — wins whenever
    /// the fault's manifestation depends on layout decisions made after
    /// it), then to the nearest checkpoint before the fault *injection*
    /// (re-randomizing every fault-relevant allocation), and finally to
    /// the initial whole-run checkpoint for all remaining retries. A
    /// doomed near replay is cheap — it re-detects almost immediately —
    /// so escalation costs little virtual time while bounded rollback
    /// shrinks time-to-recovery whenever a near replay succeeds.
    fn retry_loop(&self, interp: &mut Interp<'_>, max_retries: u32) -> RecoveryOutcome {
        let initial = interp.snapshot();
        interp.set_checkpoint_cadence(self.rec_cfg.checkpoint_cadence);
        let mut attempts = 0u32;
        let mut detections = 0u64;
        let mut repairs = 0u64;
        // Virtual cycles burned by completed (failed) attempts, each
        // counted from the clock its rollback checkpoint restored.
        let mut spent_cycles = 0u64;
        let mut attempt_base = 0u64;
        let mut first_detect: Option<u64> = None;
        // Checkpoints collected on the first attempt's timeline (the
        // canonical one); rollback candidates alongside `initial`.
        let mut pool: Vec<InterpSnapshot> = Vec::new();
        let mut fi_cycle: Option<u64> = None;
        // 0 = nearest checkpoint, 1 = nearest before injection,
        // 2 = whole-run. Bumped after every failed *replay*.
        let mut escalation = 0u8;
        loop {
            attempts += 1;
            // A mid-run rollback leaves live frames to resume; the first
            // attempt and whole-run rollbacks start from a boundary.
            let out = if interp.frame_depth() > 0 {
                interp.resume()
            } else {
                interp.run(self.run_cfg.args.clone())
            };
            if attempts == 1 {
                pool = interp.take_auto_checkpoints();
            }
            detections += out.detections;
            repairs += out.repairs;
            if fi_cycle.is_none() {
                fi_cycle = out.first_fi_cycle;
            }
            if first_detect.is_none() {
                first_detect = out
                    .first_detection_cycle
                    .map(|c| spent_cycles + (c - attempt_base));
            }
            let detected = out.status.is_dpmr_detection();
            if !detected || attempts > max_retries {
                let fail_stopped = detected;
                let time_to_recovery = match (first_detect, &out.status) {
                    (Some(f), ExitStatus::Normal(_)) => {
                        Some(spent_cycles + (out.cycles - attempt_base) - f)
                    }
                    _ => None,
                };
                return RecoveryOutcome {
                    last: out,
                    attempts,
                    detections,
                    repairs,
                    fail_stopped,
                    time_to_recovery,
                };
            }
            spent_cycles += out.cycles - attempt_base;
            let rollback = self.pick_rollback(&initial, &pool, escalation, fi_cycle);
            let rung = escalation;
            escalation = (escalation + 1).min(2);
            attempt_base = rollback.clock();
            interp.restore(rollback);
            // The restore rolled the event trace back with the rest of
            // the state; record the rollback itself on the new timeline
            // (the interpreter never self-emits these, so plain
            // snapshot/restore replays stay byte-identical).
            interp.record_event(TraceEvent::CheckpointRestored {
                cycle: rollback.clock(),
            });
            interp.record_event(TraceEvent::RollbackEscalated {
                cycle: rollback.clock(),
                level: rung,
            });
            // Replays collect their own cadence checkpoints; only the
            // canonical first-attempt pool feeds rollback selection.
            let _ = interp.take_auto_checkpoints();
            // Diversify the replay environment: new RNG stream and fresh
            // garbage, hence new rearrange-heap layouts for both the
            // application's replica objects and allocator reuse patterns.
            interp.reseed(
                self.run_cfg
                    .seed
                    .wrapping_add(u64::from(attempts).wrapping_mul(0x9e37_79b9)),
            );
        }
    }

    /// Chooses the rollback checkpoint for the next replay at the given
    /// escalation level. Falls back toward `initial` whenever the pool
    /// has no candidate at the requested distance.
    fn pick_rollback<'a>(
        &self,
        initial: &'a InterpSnapshot,
        pool: &'a [InterpSnapshot],
        escalation: u8,
        fi_cycle: Option<u64>,
    ) -> &'a InterpSnapshot {
        match escalation {
            0 => pool.last().unwrap_or(initial),
            1 => match fi_cycle {
                Some(fc) => pool
                    .iter()
                    .rev()
                    .find(|s| s.clock() <= fc)
                    .unwrap_or(initial),
                None => initial,
            },
            _ => initial,
        }
    }
}

/// Reduces a single-attempt run to a [`RecoveryOutcome`].
fn reduce(out: RunOutcome, attempts: u32, fail_stopped: bool) -> RecoveryOutcome {
    let time_to_recovery = match (&out.status, out.first_detection_cycle) {
        (ExitStatus::Normal(_), Some(f)) => Some(out.cycles - f),
        _ => None,
    };
    RecoveryOutcome {
        attempts,
        detections: out.detections,
        repairs: out.repairs,
        fail_stopped,
        time_to_recovery,
        last: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_core::prelude::*;
    use dpmr_fi::FaultType;
    use dpmr_ir::module::Module;
    use dpmr_workloads::micro;

    fn wrappers() -> Rc<Registry> {
        Rc::new(registry_with_wrappers())
    }

    fn transformed(m: &Module, cfg: &DpmrConfig) -> Module {
        transform(m, cfg).expect("transform")
    }

    /// `resize_victim` with a heap-array-resize injection at the first
    /// allocation: the overflow's replica-side writes corrupt the
    /// application victim while the victim's replica stays intact.
    fn injected_resize() -> Module {
        let m = micro::resize_victim(16, 12);
        let sites = dpmr_fi::manifesting_sites(&m, FaultType::HeapArrayResize { keep_percent: 50 });
        assert!(!sites.is_empty());
        dpmr_fi::inject(
            &m,
            &sites[0],
            FaultType::HeapArrayResize { keep_percent: 50 },
        )
    }

    #[test]
    fn abort_policy_terminates_at_detection() {
        let t = transformed(&injected_resize(), &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::Abort),
        );
        let out = driver.run();
        assert!(out.last.status.is_dpmr_detection());
        assert!(!out.recovered());
        assert!(!out.fail_stopped, "abort is not a controlled stop");
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn fail_stop_policy_marks_controlled_stop() {
        let t = transformed(&injected_resize(), &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::FailStop),
        );
        let out = driver.run();
        assert!(out.last.status.is_dpmr_detection());
        assert!(out.fail_stopped);
    }

    #[test]
    fn repair_from_replica_survives_injected_resize() {
        // The injected resize halves the array; its overflow corrupts the
        // application victim. Replica memory stays the truth, and repairing
        // from it at each checked load yields the correct final output.
        let t = transformed(&injected_resize(), &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::RepairFromReplica { max_repairs: 1024 }),
        );
        let out = driver.run();
        assert!(
            matches!(out.last.status, ExitStatus::Normal(0)),
            "{:?}",
            out.last.status
        );
        assert!(out.recovered());
        assert!(out.repairs > 0, "the overflow must have required repairs");
        assert_eq!(out.last.output, vec![60], "victim sums 12 x 5 after repair");
        assert!(out.time_to_recovery.is_some());
        assert!(out.last.first_fi_cycle.is_some(), "injection executed");
    }

    #[test]
    fn repair_budget_exhaustion_fail_stops() {
        let t = transformed(&injected_resize(), &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::RepairFromReplica { max_repairs: 1 }),
        );
        let out = driver.run();
        assert!(out.last.status.is_dpmr_detection());
        assert!(out.fail_stopped, "budget exhaustion is a controlled stop");
        assert_eq!(out.repairs, 1);
        assert!(out.detections >= 2);
    }

    #[test]
    fn retry_from_checkpoint_replays_deterministically_when_clean() {
        // A clean program never detects: one attempt, no retries.
        let t = transformed(&micro::linked_list(6), &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::RetryFromCheckpoint { max_retries: 3 }),
        );
        let out = driver.run();
        assert!(matches!(out.last.status, ExitStatus::Normal(0)));
        assert_eq!(out.attempts, 1);
        assert!(!out.recovered(), "nothing was detected, nothing recovered");
    }

    #[test]
    fn retry_from_checkpoint_exhausts_on_deterministic_fault() {
        // The injected resize manifests under every layout seed (the
        // corrupting values are program data, not garbage), so retries burn
        // down and the driver fail-stops after 1 + retries attempts.
        let t = transformed(&injected_resize(), &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::RetryFromCheckpoint { max_retries: 2 }),
        );
        let out = driver.run();
        assert_eq!(out.attempts, 3, "initial attempt + 2 retries");
        assert!(out.fail_stopped);
        assert!(out.detections >= 3, "each attempt detects at least once");
    }

    #[test]
    fn retry_attempts_observe_injected_faults_across_replays() {
        // An immediate-free injection makes a use-after-free whose
        // manifestation depends on allocator reuse; the retry loop replays
        // it under fresh layouts. Whether a given site recovers is
        // layout-dependent (that distribution is what the harness study
        // measures); structurally, every replayed attempt must re-execute
        // the injection marker.
        let m = micro::qsort_prog(12);
        let sites = dpmr_fi::manifesting_sites(&m, FaultType::ImmediateFree);
        assert!(!sites.is_empty());
        let faulty = dpmr_fi::inject(&m, &sites[0], FaultType::ImmediateFree);
        let t = transformed(&faulty, &DpmrConfig::sds());
        let driver = RecoveryDriver::new(
            &t,
            wrappers(),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::RetryFromCheckpoint { max_retries: 4 }),
        );
        let out = driver.run();
        assert!(out.last.first_fi_cycle.is_some(), "injection executed");
        assert!(out.attempts >= 1);
        if out.recovered() {
            assert!(out.attempts > 1, "recovery implies at least one replay");
            assert!(out.time_to_recovery.is_some());
        }
    }

    #[test]
    fn from_dpmr_config_honours_the_carried_policy() {
        // The recovery knob on DpmrConfig must actually drive behaviour.
        let cfg = DpmrConfig::sds()
            .with_recovery(RecoveryPolicy::RepairFromReplica { max_repairs: 1024 });
        let t = transformed(&injected_resize(), &cfg);
        let driver = RecoveryDriver::from_dpmr_config(&t, wrappers(), RunConfig::default(), &cfg);
        let out = driver.run();
        assert!(out.recovered(), "carried policy repaired the run");
        assert!(out.repairs > 0);
    }

    #[test]
    fn repair_handler_grants_until_budget() {
        let mut h = RepairHandler::new(2);
        let t = DetectionTrap {
            got: 1,
            replica: 2,
            reps: vec![2],
            app_addr: Some(0x1000_0010),
            rep_addrs: vec![0x1000_0110],
            cycle: 5,
            instrs: 3,
            site: 0,
        };
        assert_eq!(h.on_detection(&t), TrapAction::Repair);
        assert_eq!(h.on_detection(&t), TrapAction::Repair);
        assert_eq!(h.on_detection(&t), TrapAction::Terminate);
        assert_eq!(h.approved(), 2);
    }
}
