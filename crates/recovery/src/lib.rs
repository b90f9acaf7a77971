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
//! * [`RecoveryDriver`] owns the checkpoints — the VM's explicit frame
//!   stack makes checkpoints valid between *any* two instructions, so the
//!   driver pauses the run every `checkpoint_cadence` virtual cycles to
//!   snapshot it, and rolls back to the nearest usable checkpoint on trap
//!   (escalating toward whole-run rollback) — and reduces its attempts to
//!   a [`RecoveryOutcome`].
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

use dpmr_ir::module::Module;
use dpmr_vm::code::LoweredCode;
use dpmr_vm::external::Registry;
use dpmr_vm::interp::{
    DetectionTrap, ExitStatus, Interp, InterpSnapshot, RunConfig, RunOutcome, TrapAction,
    TrapHandler,
};
use dpmr_vm::telemetry::{Telemetry, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
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
    /// The run ended on a detection under any policy but `Abort`: a
    /// controlled stop, because the retry or repair budget ran dry, a
    /// vote found no strict majority, or the policy was `FailStop`.
    pub fail_stopped: bool,
    /// Virtual cycles from the first detection to final completion,
    /// accumulated across failed attempts and the final one. `None` when
    /// nothing was detected or the run never completed.
    pub time_to_recovery: Option<u64>,
    /// The final attempt's telemetry (see `RunConfig::telemetry`): its
    /// trace holds that timeline's cadence checkpoints and the rollback
    /// that began it. Empty when telemetry is off.
    pub telemetry: Telemetry,
}

impl RecoveryOutcome {
    /// True when the run completed normally *after* at least one
    /// detection — the program survived a manifested memory error.
    /// (Output correctness is judged by the caller against a golden run.)
    pub fn recovered(&self) -> bool {
        matches!(self.last.status, ExitStatus::Normal(_)) && self.detections > 0
    }
}

/// Mid-run checkpoints the driver keeps from a run (oldest dropped
/// first); bounds checkpoint memory to a few live-prefix copies.
const CHECKPOINTS_KEPT: usize = 8;

/// The first attempt's cadence checkpoints: a ring of the newest
/// [`CHECKPOINTS_KEPT`] plus one *pinned* checkpoint — the nearest one
/// preceding the first fault-injection marker, rescued when the ring
/// rotates it out — so the escalating rollback always finds a
/// pre-injection restore point, however long the run kept rotating after
/// the injection.
#[derive(Default)]
struct Checkpoints {
    ring: VecDeque<InterpSnapshot>,
    pinned: Option<InterpSnapshot>,
}

impl Checkpoints {
    /// Keeps `snap`. A full ring drops its oldest checkpoint, which is
    /// pinned when it precedes the injection marker `snap` has seen.
    fn push(&mut self, snap: InterpSnapshot) {
        if self.ring.len() == CHECKPOINTS_KEPT {
            let dropped = self.ring.pop_front().expect("len checked");
            if snap
                .first_fi_cycle()
                .is_some_and(|fc| dropped.clock() <= fc)
            {
                self.pinned = Some(dropped);
            }
        }
        self.ring.push_back(snap);
    }

    /// The rollback checkpoint at escalation rung 0 (the newest) or 1
    /// (the newest before the injection); `None` when none lies at that
    /// distance, which sends the replay back to the whole-run checkpoint.
    fn pick(&self, rung: u8, fi_cycle: Option<u64>) -> Option<&InterpSnapshot> {
        let mut newest_first = self.ring.iter().rev().chain(&self.pinned);
        match (rung, fi_cycle) {
            (0, _) => newest_first.next(),
            (1, Some(fc)) => newest_first.find(|s| s.clock() <= fc),
            _ => None,
        }
    }
}

/// Runs one transformed module under a recovery policy: the checkpoints,
/// the attempts and the reaction to each detection.
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
/// state. With a configured cadence the driver pauses the run every
/// `checkpoint_cadence` virtual cycles to take a checkpoint and, when a
/// detection terminates an attempt, rolls back over an escalating
/// distance — nearest checkpoint, nearest before the injection, whole
/// run — instead of always replaying from scratch. Replays are *diverse*:
/// each one re-seeds the runtime RNG and garbage-fill, so a corruption
/// that landed on live state in one layout can land on slack in the next
/// (the Rx avoidance model the paper's related work describes).
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

    /// Executes the module under the configured recovery policy, as a
    /// loop of attempts. The policy picks the trap handler (repair and
    /// vote approve in-place repairs up to their budget), the retry
    /// budget, and whether the run is checkpointed at all.
    ///
    /// Only [`RecoveryPolicy::RetryFromCheckpoint`] replays. With no
    /// cadence configured this is whole-run rollback: checkpoint once
    /// before the run, and on DPMR detection restore it, diversify the
    /// environment, and replay. With a mid-run cadence
    /// (`RecoveryConfig::checkpoint_cadence`) the first attempt also
    /// keeps cadence checkpoints, and the loop rolls back over an
    /// *escalating distance*: first to the nearest checkpoint before the
    /// detection (cheapest replay — wins whenever the fault's
    /// manifestation depends on layout decisions made after it), then to
    /// the nearest checkpoint before the fault *injection*
    /// (re-randomizing every fault-relevant allocation), and finally to
    /// the whole-run checkpoint for all remaining retries. A doomed near
    /// replay is cheap — it re-detects almost immediately — so escalation
    /// costs little virtual time while bounded rollback shrinks
    /// time-to-recovery whenever a near replay succeeds.
    pub fn run(&self) -> RecoveryOutcome {
        let mut interp = Interp::with_code(
            self.module,
            Rc::clone(&self.code),
            &self.run_cfg,
            Rc::clone(&self.registry),
        );
        let policy = self.rec_cfg.policy;
        let (handler, max_retries, checkpointed) = match policy {
            RecoveryPolicy::Abort | RecoveryPolicy::FailStop => (None, 0, false),
            RecoveryPolicy::RepairFromReplica { max_repairs } => {
                (Some(RepairHandler::new(max_repairs)), 0, false)
            }
            RecoveryPolicy::VoteAndRepair { max_repairs } => {
                (Some(RepairHandler::voting(max_repairs)), 0, false)
            }
            RecoveryPolicy::RetryFromCheckpoint { max_retries } => (None, max_retries, true),
        };
        if let Some(h) = handler {
            interp.set_trap_handler(Rc::new(RefCell::new(h)));
        }
        let initial = checkpointed.then(|| interp.snapshot());
        let cadence = self
            .rec_cfg
            .checkpoint_cadence
            .filter(|&c| checkpointed && c > 0);
        let mut checkpoints = Checkpoints::default();
        let mut attempts = 0u32;
        let mut detections = 0u64;
        let mut repairs = 0u64;
        // Virtual cycles burned by completed (failed) attempts, each
        // counted from the clock its rollback checkpoint restored.
        let mut spent_cycles = 0u64;
        let mut attempt_base = 0u64;
        let mut first_detect: Option<u64> = None;
        let mut fi_cycle: Option<u64> = None;
        // 0 = nearest checkpoint, 1 = nearest before injection,
        // 2 = whole-run. Bumped after every failed *replay*.
        let mut escalation = 0u8;
        loop {
            attempts += 1;
            // The first attempt's timeline is the canonical one: only its
            // checkpoints feed rollback selection.
            let keep = (attempts == 1).then_some(&mut checkpoints);
            let out = self.attempt(&mut interp, cadence, keep);
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
            // A terminal detection means the policy gave up: the retry or
            // repair budget ran dry, a vote found no strict majority, or
            // the policy stops at the first detection.
            let detected = out.status.is_dpmr_detection();
            if !detected || attempts > max_retries {
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
                    fail_stopped: detected && policy != RecoveryPolicy::Abort,
                    time_to_recovery,
                    telemetry: interp.take_telemetry(),
                };
            }
            spent_cycles += out.cycles - attempt_base;
            let initial = initial.as_ref().expect("only a checkpointed run replays");
            let rollback = checkpoints.pick(escalation, fi_cycle).unwrap_or(initial);
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

    /// Runs one attempt to its end: a fresh run, or the resumption of a
    /// mid-run rollback. Under a cadence it pauses every `cadence`
    /// virtual cycles to record a checkpoint on the trace, and keeps the
    /// checkpoint itself in `keep` when given one.
    fn attempt(
        &self,
        interp: &mut Interp<'_>,
        cadence: Option<u64>,
        mut keep: Option<&mut Checkpoints>,
    ) -> RunOutcome {
        let next = |it: &Interp<'_>| cadence.map_or(u64::MAX, |c| it.clock().saturating_add(c));
        // A mid-run rollback leaves live frames to resume; the first
        // attempt and whole-run rollbacks start from a boundary.
        let mut paused = if interp.frame_depth() > 0 {
            interp.resume_until(next(interp))
        } else {
            interp.run_until(self.run_cfg.args.clone(), next(interp))
        };
        loop {
            if let Some(out) = paused {
                return out;
            }
            // Record the event *before* capturing, so the snapshot
            // contains its own checkpoint-taken record and a restored
            // replay's trace still ends with it.
            interp.record_event(TraceEvent::CheckpointTaken {
                cycle: interp.clock(),
                instrs: interp.instrs(),
            });
            if let Some(k) = keep.as_deref_mut() {
                k.push(interp.snapshot());
            }
            paused = interp.resume_until(next(interp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_core::prelude::*;
    use dpmr_fi::FaultType;
    use dpmr_ir::prelude::*;
    use dpmr_vm::interp::run_with_limits;
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

    /// Runs `m`'s first attempt the way the driver does under a cadence,
    /// keeping its checkpoints.
    fn first_attempt(m: &Module, cadence: u64) -> (RunOutcome, Checkpoints) {
        let driver = RecoveryDriver::new(
            m,
            Rc::new(Registry::with_base()),
            RunConfig::default(),
            RecoveryConfig::policy(RecoveryPolicy::RetryFromCheckpoint { max_retries: 0 }),
        );
        let mut interp = Interp::with_code(
            m,
            Rc::clone(&driver.code),
            &driver.run_cfg,
            Rc::clone(&driver.registry),
        );
        let mut kept = Checkpoints::default();
        let out = driver.attempt(&mut interp, Some(cadence), Some(&mut kept));
        (out, kept)
    }

    /// Restores `snap` into a fresh interpreter and runs it to the end.
    fn replay_from(m: &Module, snap: &InterpSnapshot) -> RunOutcome {
        let mut it = Interp::new(m, &RunConfig::default(), Rc::new(Registry::with_base()));
        it.restore(snap);
        it.resume()
    }

    #[test]
    fn checkpoint_cadence_collects_bounded_ring() {
        let m = micro::linked_list(40);
        let (out, kept) = first_attempt(&m, 200);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert!(!kept.ring.is_empty(), "cadence 200 fires on a 40-node list");
        assert!(kept.ring.len() <= CHECKPOINTS_KEPT);
        assert!(kept.pinned.is_none(), "nothing to pin without an injection");
        assert!(
            kept.ring
                .iter()
                .zip(kept.ring.iter().skip(1))
                .all(|(a, b)| a.clock() < b.clock()),
            "checkpoints are ordered by virtual time"
        );
        // A cadence checkpoint resumes to the same completion.
        let reference = run_with_limits(&m, &RunConfig::default());
        let replay = replay_from(&m, &kept.ring[kept.ring.len() / 2]);
        assert_eq!(replay.output, reference.output);
        assert_eq!(replay.cycles, reference.cycles);
    }

    #[test]
    fn ring_rotation_pins_nearest_pre_injection_checkpoint() {
        // A fault-injection marker fires early, then a long loop keeps the
        // ring rotating. Without pinning, every checkpoint preceding the
        // marker would rotate out of the bounded ring; rung 1 must still
        // find one taken at or before the marker's cycle.
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let sum = b.reg(i64t, "sum");
        b.assign(sum, Const::i64(0).into());
        let add_up_to = |b: &mut FunctionBuilder<'_>, n: i64| {
            b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
                let s = b.bin(BinOp::Add, i64t, sum.into(), i.into());
                b.assign(sum, s.into());
            });
        };
        // Warm-up work so checkpoints exist before the injection...
        add_up_to(&mut b, 2_000);
        b.emit(Instr::FiMarker { site: 7 });
        // ...and enough afterwards to rotate all of them out of the ring.
        add_up_to(&mut b, 20_000);
        b.output(sum.into());
        b.ret(Some(Const::i64(0).into()));
        let f = b.finish();
        m.entry = Some(f);

        let (out, kept) = first_attempt(&m, 100);
        assert_eq!(out.status, ExitStatus::Normal(0));
        let fi_cycle = out.first_fi_cycle.expect("marker executed");
        let pinned = kept
            .pinned
            .as_ref()
            .expect("a pre-injection checkpoint was pinned");
        assert!(pinned.clock() <= fi_cycle);
        assert_eq!(kept.ring.len(), CHECKPOINTS_KEPT);
        assert!(
            kept.ring.iter().all(|s| s.clock() > fi_cycle),
            "ring fully rotated past the injection"
        );
        // Rung 0 rolls back to the newest checkpoint, rung 1 to the pinned
        // one, rung 2 to the whole-run checkpoint.
        let newest = kept.ring.back();
        assert!(std::ptr::eq(
            kept.pick(0, Some(fi_cycle)).unwrap(),
            newest.unwrap()
        ));
        assert!(std::ptr::eq(kept.pick(1, Some(fi_cycle)).unwrap(), pinned));
        assert!(kept.pick(2, Some(fi_cycle)).is_none());
        // The pinned checkpoint is a real restore point.
        let reference = run_with_limits(&m, &RunConfig::default());
        let replay = replay_from(&m, pinned);
        assert_eq!(replay.output, reference.output);
        assert_eq!(replay.cycles, reference.cycles);
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
