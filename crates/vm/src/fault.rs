//! Runtime fault models armed at the Mem/Interp boundary.
//!
//! The compile-time injector (`dpmr-fi`) edits the *input program*; the
//! models here corrupt a *running execution* instead, which is how
//! hardware bit-flips and latent pointer bugs actually manifest. A fault
//! is **armed** at an `(op site, trial seed, virtual cycle)` triple
//! ([`ArmedFault`]) carried by the run configuration: when the op at the
//! armed pc executes with the virtual clock at or past `arm_cycle`, the
//! fault mutates the access — and nothing else about the run changes, so
//! the same triple replays bit-identically on any interpreter of the same
//! module (site pcs are stable because lowering is pure).
//!
//! The mutation applied per class:
//!
//! | class | eligible sites | effect | recurrence |
//! |---|---|---|---|
//! | [`FaultModel::BitFlip`] | loads + stores | flip a seed-chosen bit of the accessed scalar, in the named region | one-shot |
//! | [`FaultModel::DanglingReuse`] | loads + stores | redirect the access to the most recently freed heap block | every execution |
//! | [`FaultModel::OffByN`] | loads + stores | skew the address by `n` scalar widths | every execution |
//! | [`FaultModel::UninitRead`] | loads | replace the loaded value with seed-derived garbage | every execution |
//! | [`FaultModel::WildWrite`] | stores | redirect the store to a seed-derived wild address | one-shot |
//!
//! One-shot classes model transient hardware faults (they fire at the
//! first eligible execution and never again — unless a checkpoint restore
//! rolls the `fired` state back, in which case the replay refires at the
//! same point, keeping rollback timelines deterministic). The recurring
//! classes model latent software bugs, matching `dpmr-fi`'s "the faulty
//! code executes every time" semantics.

use crate::mem::MemRegion;

/// The expanded fault taxonomy (one variant per memory-error class the
/// campaign engine sweeps). See the module table for per-class semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Transient bit-flip in the named memory region: the accessed
    /// scalar has one seed-chosen bit inverted in memory (before a load
    /// decodes it; after a store encodes it). Fires only when the access
    /// actually lands in `region`.
    BitFlip {
        /// Region the flip is constrained to.
        region: MemRegion,
    },
    /// Dangling-pointer reuse: the access is redirected to the most
    /// recently freed heap block (whose payload holds free-list
    /// metadata), modelling a stale pointer into recycled memory. Fires
    /// only while the free list is non-empty.
    DanglingReuse,
    /// Off-by-`n` indexing bug: the address is skewed by `n` scalar
    /// widths (negative `n` underflows), the classic boundary error.
    OffByN {
        /// Element skew; `1` is the textbook off-by-one overflow.
        n: i8,
    },
    /// Uninitialized read: the loaded value is replaced with
    /// deterministic seed-derived garbage, as if the location had never
    /// been written (the memory itself is left untouched).
    UninitRead,
    /// Wild write: the store is redirected to a seed-derived address —
    /// biased across the three mapped regions with a wild-unmapped
    /// tail — modelling a corrupted pointer used exactly once.
    WildWrite,
}

impl FaultModel {
    /// Display name used in campaign tables.
    pub fn name(self) -> String {
        match self {
            FaultModel::BitFlip { region } => format!("bit-flip {}", region.name()),
            FaultModel::DanglingReuse => "dangling reuse".into(),
            FaultModel::OffByN { n } => format!("off-by-{n}"),
            FaultModel::UninitRead => "uninit read".into(),
            FaultModel::WildWrite => "wild write".into(),
        }
    }

    /// The campaign's fault-class sweep: bit-flips in all three regions,
    /// dangling reuse, off-by-one overflow, uninitialized read, and wild
    /// write.
    pub fn paper_set() -> Vec<FaultModel> {
        vec![
            FaultModel::BitFlip {
                region: MemRegion::Heap,
            },
            FaultModel::BitFlip {
                region: MemRegion::Stack,
            },
            FaultModel::BitFlip {
                region: MemRegion::Globals,
            },
            FaultModel::DanglingReuse,
            FaultModel::OffByN { n: 1 },
            FaultModel::UninitRead,
            FaultModel::WildWrite,
        ]
    }

    /// True when the class fires at most once per timeline (transient
    /// hardware faults); recurring classes re-apply at every execution of
    /// the armed site (latent software bugs).
    pub fn one_shot(self) -> bool {
        matches!(self, FaultModel::BitFlip { .. } | FaultModel::WildWrite)
    }

    /// True when load ops are eligible arming sites for this class.
    pub fn applies_to_loads(self) -> bool {
        !matches!(self, FaultModel::WildWrite)
    }

    /// True when store ops are eligible arming sites for this class.
    pub fn applies_to_stores(self) -> bool {
        !matches!(self, FaultModel::UninitRead)
    }
}

/// A fault armed for one run: the `(site, seed, cycle)` triple that makes
/// runtime injections replayable. `site` is an absolute pc into the
/// module's lowered op stream (see [`crate::code::LoweredCode::ops`]);
/// the op there must be a load or store for the fault to ever fire. The
/// interpreter gives that one pc an armed handler entry in the run's own
/// dispatch table, so no other op of the run tests for the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedFault {
    /// Absolute pc of the armed load/store op.
    pub site: u32,
    /// Fault class applied when the site executes.
    pub fault: FaultModel,
    /// Trial seed: drives every seed-derived choice (flipped bit, garbage
    /// value, wild address) so distinct trials at one site diverge while
    /// each trial replays bit-identically.
    pub seed: u64,
    /// The fault is dormant until the virtual clock reaches this cycle.
    pub arm_cycle: u64,
}

/// Deterministic mixer for seed-derived fault choices (splitmix64 over
/// `seed ^ addr`); shared by the interpreter's mutations and by tests
/// that predict them.
pub fn fault_mix(seed: u64, addr: u64) -> u64 {
    let mut x =
        (seed ^ addr.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_covers_every_class_with_unique_names() {
        let set = FaultModel::paper_set();
        assert_eq!(set.len(), 7);
        let names: std::collections::BTreeSet<String> = set.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 7, "class names must be distinct");
        assert!(names.contains("bit-flip heap"));
        assert!(names.contains("wild write"));
    }

    #[test]
    fn eligibility_matches_class_semantics() {
        assert!(!FaultModel::WildWrite.applies_to_loads());
        assert!(FaultModel::WildWrite.applies_to_stores());
        assert!(FaultModel::UninitRead.applies_to_loads());
        assert!(!FaultModel::UninitRead.applies_to_stores());
        for f in FaultModel::paper_set() {
            assert!(f.applies_to_loads() || f.applies_to_stores());
        }
    }

    #[test]
    fn one_shot_split_is_hardware_vs_software() {
        assert!(FaultModel::BitFlip {
            region: MemRegion::Heap
        }
        .one_shot());
        assert!(FaultModel::WildWrite.one_shot());
        assert!(!FaultModel::OffByN { n: 1 }.one_shot());
        assert!(!FaultModel::DanglingReuse.one_shot());
        assert!(!FaultModel::UninitRead.one_shot());
    }

    #[test]
    fn fault_mix_is_deterministic_and_spreads() {
        assert_eq!(fault_mix(1, 2), fault_mix(1, 2));
        assert_ne!(fault_mix(1, 2), fault_mix(2, 2));
        assert_ne!(fault_mix(1, 2), fault_mix(1, 3));
    }
}
