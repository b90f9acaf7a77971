//! Configuration of the DPMR transformation: pointer scheme, diversity
//! transformation, state comparison policy, and the DSA-derived
//! replication plan.

pub use crate::shadow::Scheme;
use std::collections::HashSet;

/// A diversity transformation applied to replica heap behaviour
/// (Table 2.8). Beyond these, intra-process replication already provides
/// *implicit* diversity (Sec. 2.1, Fig. 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Diversity {
    /// No explicit diversity; rely on implicit layout diversity.
    None,
    /// `pad-malloc-y`: grow every replica heap request by `y` bytes.
    PadMalloc(u64),
    /// `zero-before-free`: zero the replica buffer before deallocation.
    ZeroBeforeFree,
    /// `rearrange-heap`: give each replica heap object a randomized
    /// location by allocating and freeing 1..=20 decoy blocks around it.
    RearrangeHeap,
}

impl Diversity {
    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            Diversity::None => "no-diversity".into(),
            Diversity::PadMalloc(y) => format!("pad-malloc {y}"),
            Diversity::ZeroBeforeFree => "zero-before-free".into(),
            Diversity::RearrangeHeap => "rearrange-heap".into(),
        }
    }

    /// The set evaluated in Sections 3.7 / 4.5.
    pub fn paper_set() -> Vec<Diversity> {
        vec![
            Diversity::None,
            Diversity::ZeroBeforeFree,
            Diversity::RearrangeHeap,
            Diversity::PadMalloc(8),
            Diversity::PadMalloc(32),
            Diversity::PadMalloc(256),
            Diversity::PadMalloc(1024),
        ]
    }
}

/// A state comparison policy (Sec. 2.7): which loads are replicated and
/// compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Replicate and compare every load.
    AllLoads,
    /// Temporal load-checking: a global counter walks the bits of `mask`;
    /// a load is checked when its bit is set (Table 2.9).
    Temporal {
        /// 64-bit check mask.
        mask: u64,
    },
    /// Static load-checking: each load *site* is instrumented with the
    /// given probability, decided at transform time with a seeded RNG.
    Static {
        /// Percentage of load sites instrumented (0–100).
        percent: u8,
    },
    /// The Fig. 3.16 ablation: periodic checking with the branch and
    /// counter eliminated — every `period`-th load site is checked
    /// round-robin at compile time, so the temporal fraction 1/period is
    /// achieved with zero per-load branching.
    StaticPeriodic {
        /// Check every `period`-th load site.
        period: u32,
    },
}

impl Policy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            Policy::AllLoads => "all loads".into(),
            Policy::Temporal { mask } => {
                let frac = mask.count_ones();
                format!("temporal {frac}/64")
            }
            Policy::Static { percent } => format!("static {percent}%"),
            Policy::StaticPeriodic { period } => format!("periodic 1/{period}"),
        }
    }

    /// Temporal 1/8 (mask `0x8080808080808080`-style; the paper's
    /// 64-bit masks check 8, 32, and 56 of every 64 loads).
    pub fn temporal_eighth() -> Policy {
        Policy::Temporal {
            mask: 0x8080_8080_8080_8080,
        }
    }
    /// Temporal 1/2.
    pub fn temporal_half() -> Policy {
        Policy::Temporal {
            mask: 0xAAAA_AAAA_AAAA_AAAA,
        }
    }
    /// Temporal 7/8.
    pub fn temporal_seven_eighths() -> Policy {
        Policy::Temporal {
            mask: 0xFEFE_FEFE_FEFE_FEFE,
        }
    }

    /// The policy set evaluated in Sections 3.8 / 4.5.
    pub fn paper_set() -> Vec<Policy> {
        vec![
            Policy::AllLoads,
            Policy::temporal_eighth(),
            Policy::temporal_half(),
            Policy::temporal_seven_eighths(),
            Policy::Static { percent: 10 },
            Policy::Static { percent: 50 },
            Policy::Static { percent: 90 },
        ]
    }
}

/// What the runtime does when a `dpmr.check` detection fires (the
/// detection-to-recovery extension; the paper stops at detection, Sec. 3.6,
/// while its related-work chapter sketches exactly this Rx-style
/// continuation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Terminate at the first detection (the paper's behaviour).
    Abort,
    /// Roll back to the last checkpoint and replay in a re-seeded (diverse)
    /// environment, up to `max_retries` times; fail-stop when exhausted.
    RetryFromCheckpoint {
        /// Replays attempted before giving up.
        max_retries: u32,
    },
    /// Copy the replica value over the divergent application location at
    /// each detection and resume, up to `max_repairs` per run; fail-stop
    /// when exhausted.
    RepairFromReplica {
        /// Repairs allowed before the run is declared unrecoverable.
        max_repairs: u64,
    },
    /// Majority vote across the application and all K replicas at each
    /// detection: the outvoted copies — application *or* replicas — are
    /// rewritten with the majority value, so a corrupted *replica* is
    /// repaired too (which [`RecoveryPolicy::RepairFromReplica`] cannot do
    /// at all). Fail-stop when no strict majority exists (e.g. at K = 1,
    /// where a mismatch is always a one-against-one tie) or the budget is
    /// exhausted.
    VoteAndRepair {
        /// Repairs allowed before the run is declared unrecoverable.
        max_repairs: u64,
    },
    /// Terminate at the first detection, recording a *controlled* stop
    /// (the explicit fallback state retries and repairs degrade to).
    FailStop,
}

impl RecoveryPolicy {
    /// Display name for recovery tables.
    pub fn name(self) -> String {
        match self {
            RecoveryPolicy::Abort => "abort".into(),
            RecoveryPolicy::RetryFromCheckpoint { max_retries } => {
                format!("retry x{max_retries}")
            }
            RecoveryPolicy::RepairFromReplica { max_repairs } => {
                format!("repair <={max_repairs}")
            }
            RecoveryPolicy::VoteAndRepair { max_repairs } => {
                format!("vote <={max_repairs}")
            }
            RecoveryPolicy::FailStop => "fail-stop".into(),
        }
    }

    /// The recovery-study policy set (Table R.1). Eight replays give the
    /// diverse re-execution a realistic chance of finding a layout that
    /// avoids the fault (per-replay cost is one bounded re-run).
    pub fn paper_set() -> Vec<RecoveryPolicy> {
        vec![
            RecoveryPolicy::FailStop,
            RecoveryPolicy::RetryFromCheckpoint { max_retries: 8 },
            RecoveryPolicy::RepairFromReplica { max_repairs: 4096 },
        ]
    }
}

/// Recovery configuration carried by a DPMR build variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Reaction to detections.
    pub policy: RecoveryPolicy,
    /// Mid-run checkpoint cadence in virtual cycles for
    /// [`RecoveryPolicy::RetryFromCheckpoint`]: the recovery driver pauses
    /// the run every `cadence` cycles to take a checkpoint, and rolls
    /// back to the *nearest* usable checkpoint instead of replaying the
    /// whole run (escalating toward whole-run rollback when near replays
    /// keep re-detecting). `None` (the default) keeps the run-boundary
    /// checkpoint only — whole-run rollback.
    pub checkpoint_cadence: Option<u64>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            policy: RecoveryPolicy::Abort,
            checkpoint_cadence: None,
        }
    }
}

impl RecoveryConfig {
    /// A configuration with the given policy and no mid-run cadence.
    pub fn policy(policy: RecoveryPolicy) -> RecoveryConfig {
        RecoveryConfig {
            policy,
            checkpoint_cadence: None,
        }
    }

    /// Display name for recovery tables: the policy name, suffixed with
    /// `mid` when a mid-run checkpoint cadence is active.
    pub fn name(&self) -> String {
        match self.checkpoint_cadence {
            Some(_) => format!("{} mid", self.policy.name()),
            None => self.policy.name(),
        }
    }

    /// The Table R.1 configuration set: every policy of
    /// [`RecoveryPolicy::paper_set`] with run-boundary checkpoints, plus
    /// the retry policy again under the mid-run cadence
    /// ([`MID_RUN_CADENCE_CYCLES`]) — the row that isolates what bounded
    /// rollback distance buys in time-to-recovery.
    pub fn paper_set() -> Vec<RecoveryConfig> {
        let mut set: Vec<RecoveryConfig> = RecoveryPolicy::paper_set()
            .into_iter()
            .map(RecoveryConfig::policy)
            .collect();
        set.push(RecoveryConfig {
            policy: RecoveryPolicy::RetryFromCheckpoint { max_retries: 8 },
            checkpoint_cadence: Some(MID_RUN_CADENCE_CYCLES),
        });
        set
    }
}

/// Default mid-run checkpoint cadence (virtual cycles) for the recovery
/// study's bounded-rollback row: a few checkpoints per millisecond of
/// simulated time, small enough that every recovery app collects several
/// per run, large enough that checkpoint copying stays a minority cost.
pub const MID_RUN_CADENCE_CYCLES: u64 = 25_000;

/// A reference to an instruction site in the *original* module:
/// `(function index, block index, instruction index)`.
pub type SiteRef = (u32, u32, u32);

/// The partial-replication refinement produced by Data Structure Analysis
/// (Chapter 5): allocation sites whose objects cannot be reasoned about
/// are excluded from replication, loads that would compare unreplicated
/// memory are left unchecked, and int-to-pointer casts become legal
/// (their results alias application memory).
#[derive(Debug, Clone, Default)]
pub struct ReplicationPlan {
    /// Allocation sites excluded from replication (their ROP aliases the
    /// application pointer and their NSOP is null).
    pub exclude_allocs: HashSet<SiteRef>,
    /// Load sites that must not be checked (they may observe unreplicated
    /// memory).
    pub uncheck_loads: HashSet<SiteRef>,
    /// Permit int-to-pointer casts (results treated as unreplicated).
    pub allow_int_to_ptr: bool,
    /// Permit raw pointer arithmetic under SDS (results lose their shadow
    /// handle; their NSOP becomes null).
    pub allow_raw_ptr_arith: bool,
}

/// Full configuration of one DPMR build variant (the paper's
/// "configuration" of Sec. 3.5: scheme + diversity + comparison policy).
#[derive(Debug, Clone)]
pub struct DpmrConfig {
    /// Pointer-handling design.
    pub scheme: Scheme,
    /// Diversity transformation for replica heap behaviour.
    pub diversity: Diversity,
    /// State comparison policy.
    pub policy: Policy,
    /// Transform-time seed (static load-checking site selection and the
    /// per-replica diversity-jitter streams).
    pub seed: u64,
    /// Replication degree K: how many diverse replicas each replicated
    /// object gets. 1 (the default) is the paper's single-replica DPMR,
    /// bit-for-bit; K >= 2 turns each `dpmr.check` into a K+1-way
    /// comparison whose divergences a majority vote can arbitrate
    /// ([`RecoveryPolicy::VoteAndRepair`]). Each replica draws its
    /// diversity decisions from an independent stream derived from
    /// `(seed, replica_index)`, so replica layouts diverge from *each
    /// other*, not just from the application.
    pub replicas: usize,
    /// DSA-derived replication refinement.
    pub plan: ReplicationPlan,
    /// Runtime reaction to detections (defaults to the paper's
    /// terminate-on-detection).
    pub recovery: RecoveryConfig,
}

impl DpmrConfig {
    /// SDS with rearrange-heap and all-loads — the paper's
    /// best-coverage configuration.
    pub fn sds() -> DpmrConfig {
        DpmrConfig {
            scheme: Scheme::Sds,
            diversity: Diversity::RearrangeHeap,
            policy: Policy::AllLoads,
            seed: 0xD12A,
            replicas: 1,
            plan: ReplicationPlan::default(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// MDS with rearrange-heap and all-loads.
    pub fn mds() -> DpmrConfig {
        DpmrConfig {
            scheme: Scheme::Mds,
            ..DpmrConfig::sds()
        }
    }

    /// Variant display name, e.g. `sds/rearrange-heap/all loads`; a
    /// replication degree above 1 shows as a scheme suffix
    /// (`sds x2/rearrange-heap/all loads`).
    pub fn name(&self) -> String {
        let s = match self.scheme {
            Scheme::Sds => "sds",
            Scheme::Mds => "mds",
        };
        let k = if self.replicas > 1 {
            format!(" x{}", self.replicas)
        } else {
            String::new()
        };
        format!("{s}{k}/{}/{}", self.diversity.name(), self.policy.name())
    }

    /// Replaces the diversity transformation.
    pub fn with_diversity(mut self, d: Diversity) -> DpmrConfig {
        self.diversity = d;
        self
    }

    /// Replaces the comparison policy.
    pub fn with_policy(mut self, p: Policy) -> DpmrConfig {
        self.policy = p;
        self
    }

    /// Replaces the recovery policy, keeping the checkpoint cadence.
    pub fn with_recovery(mut self, r: RecoveryPolicy) -> DpmrConfig {
        self.recovery.policy = r;
        self
    }

    /// Replaces the mid-run checkpoint cadence (virtual cycles) used by
    /// retry-from-checkpoint recovery; `None` means whole-run rollback.
    pub fn with_checkpoint_cadence(mut self, cadence: Option<u64>) -> DpmrConfig {
        self.recovery.checkpoint_cadence = cadence;
        self
    }

    /// Replaces the replication degree (clamped to at least 1).
    pub fn with_replicas(mut self, k: usize) -> DpmrConfig {
        self.replicas = k.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_vocabulary() {
        assert_eq!(Diversity::None.name(), "no-diversity");
        assert_eq!(Diversity::PadMalloc(32).name(), "pad-malloc 32");
        assert_eq!(Policy::AllLoads.name(), "all loads");
        assert_eq!(Policy::Static { percent: 10 }.name(), "static 10%");
        assert_eq!(Policy::temporal_half().name(), "temporal 32/64");
    }

    #[test]
    fn paper_sets_have_expected_sizes() {
        assert_eq!(Diversity::paper_set().len(), 7);
        assert_eq!(Policy::paper_set().len(), 7);
    }

    #[test]
    fn temporal_masks_check_expected_fractions() {
        let m = match Policy::temporal_eighth() {
            Policy::Temporal { mask } => mask,
            _ => unreachable!(),
        };
        assert_eq!(m.count_ones(), 8);
        let m = match Policy::temporal_seven_eighths() {
            Policy::Temporal { mask } => mask,
            _ => unreachable!(),
        };
        assert_eq!(m.count_ones(), 56);
    }

    #[test]
    fn config_builders() {
        let c = DpmrConfig::sds()
            .with_diversity(Diversity::PadMalloc(8))
            .with_policy(Policy::Static { percent: 50 });
        assert_eq!(c.name(), "sds/pad-malloc 8/static 50%");
        assert_eq!(DpmrConfig::mds().scheme, Scheme::Mds);
    }

    #[test]
    fn recovery_defaults_to_abort_and_builds() {
        assert_eq!(DpmrConfig::sds().recovery.policy, RecoveryPolicy::Abort);
        let c =
            DpmrConfig::sds().with_recovery(RecoveryPolicy::RepairFromReplica { max_repairs: 16 });
        assert_eq!(
            c.recovery.policy,
            RecoveryPolicy::RepairFromReplica { max_repairs: 16 }
        );
        assert_eq!(c.recovery.policy.name(), "repair <=16");
        assert_eq!(RecoveryPolicy::paper_set().len(), 3);
    }

    #[test]
    fn recovery_config_set_adds_the_mid_run_retry_row() {
        let set = RecoveryConfig::paper_set();
        assert_eq!(set.len(), 4);
        assert!(set[..3].iter().all(|c| c.checkpoint_cadence.is_none()));
        let mid = set.last().expect("nonempty");
        assert_eq!(mid.checkpoint_cadence, Some(MID_RUN_CADENCE_CYCLES));
        assert_eq!(mid.name(), "retry x8 mid");
    }

    #[test]
    fn cadence_plumbs_through_dpmr_config() {
        let c = DpmrConfig::sds()
            .with_checkpoint_cadence(Some(10_000))
            .with_recovery(RecoveryPolicy::RetryFromCheckpoint { max_retries: 2 });
        assert_eq!(c.recovery.checkpoint_cadence, Some(10_000));
        assert_eq!(
            c.recovery.policy,
            RecoveryPolicy::RetryFromCheckpoint { max_retries: 2 }
        );
    }
}
