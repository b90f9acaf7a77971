//! Deterministic, zero-cost-when-off runtime telemetry.
//!
//! Two complementary views of one execution, both keyed by the stable
//! identifiers the pure lowering guarantees ([`crate::code`]):
//!
//! * **Profiles** — per-pc execution counts and per-`dpmr.check`-site
//!   counters ([`SiteStats`]): executions, detections, repair outcomes,
//!   and the virtual cycles the check compares charged. These are the
//!   data profile-guided site selection ([`crate::opt`]) and cost-aware
//!   partial replication consume: a site that executes millions of times
//!   and never detects is a candidate for removal; a hot function whose
//!   checks carry all the detections is where a `Partial(n)` set should
//!   concentrate.
//! * **Event traces** — ordered [`TraceEvent`] records stamped with the
//!   *virtual* clock (never wall time), covering run boundaries,
//!   checkpoints, detection traps, repairs, fault arming/firing, and
//!   rollback escalations.
//!
//! Both views obey the same determinism contract as the rest of the VM:
//! they are a pure function of `(module, RunConfig)`. Virtual-cycle
//! timestamps make traces machine-independent, and the collected state
//! rides inside [`crate::interp::InterpSnapshot`], so restoring a
//! checkpoint rolls the profile *and* the trace back to the captured
//! prefix — a rollback replay reproduces the original trace
//! byte-identically. Nothing here draws from an RNG or reads a host
//! clock.
//!
//! Collection is off by default and gated per concern by
//! [`TelemetryConfig`] on [`crate::interp::RunConfig`]. The pc profile's
//! per-op bump shares the fault hook's dispatch-loop instantiation, so a
//! run that neither profiles nor arms a fault pays nothing per op; the
//! other concerns cost one flag branch per relevant event when off (the
//! counters and the event vector are empty, so snapshot clones stay free
//! too).

/// Which telemetry concerns an interpreter collects. All flags default
/// to off; each costs one branch per relevant event when disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Per-`dpmr.check`-site counters ([`SiteStats`]).
    pub sites: bool,
    /// Per-pc execution counts over the lowered op stream (function
    /// attribution is derived via [`crate::code::LoweredCode::func_of_pc`]).
    pub profile: bool,
    /// The ordered [`TraceEvent`] record.
    pub trace: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    /// Every concern on.
    pub fn full() -> TelemetryConfig {
        TelemetryConfig {
            sites: true,
            profile: true,
            trace: true,
        }
    }

    /// True when any concern is enabled.
    pub fn any(self) -> bool {
        self.sites || self.profile || self.trace
    }
}

/// Counters for one `dpmr.check` site (keyed by the stable site id
/// assigned at lowering; see [`crate::code::LoweredCode::check_sites`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Times the site executed.
    pub executions: u64,
    /// Mismatches the site raised (terminal or repaired).
    pub detections: u64,
    /// In-place repairs granted at the site (copy-back or vote winner).
    pub repairs: u64,
    /// Minority replica copies rewritten by vote arbitration here.
    pub replica_repairs: u64,
    /// Detections that ended the run (no handler, or the handler chose
    /// termination).
    pub terminations: u64,
    /// Virtual cycles the site's compares charged (`cost::CHECK x K` per
    /// execution; repair stores are charged to the memory system, not
    /// here).
    pub cycles: u64,
}

/// One ordered trace record. Every variant carries `cycle`, the virtual
/// clock at emission — traces are timestamped in simulated time only, so
/// the same `(module, RunConfig)` yields the same byte sequence on any
/// host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A run began (fresh frames pushed for the entry function).
    RunStart {
        /// Virtual clock at emission.
        cycle: u64,
        /// The run seed (drives every RNG-derived choice).
        seed: u64,
    },
    /// A run ended with the named status class.
    RunEnd {
        /// Virtual clock at emission.
        cycle: u64,
        /// Status class: `normal`, `app-error`, `dpmr-detected`, `crash`,
        /// or `timeout`.
        status: &'static str,
    },
    /// A cadence checkpoint was captured (the snapshot *contains* this
    /// event, so a restore replays a trace whose last checkpoint event is
    /// its own).
    CheckpointTaken {
        /// Virtual clock at emission.
        cycle: u64,
        /// Instructions retired at the checkpoint.
        instrs: u64,
    },
    /// A checkpoint was restored over this interpreter (recorded by the
    /// recovery driver *after* the rollback, on the new timeline).
    CheckpointRestored {
        /// Virtual clock after the restore (the checkpoint's clock).
        cycle: u64,
    },
    /// The rollback ladder escalated: `0` = nearest checkpoint, `1` =
    /// nearest pre-injection checkpoint, `2` = whole-run restart.
    RollbackEscalated {
        /// Virtual clock at emission.
        cycle: u64,
        /// Escalation rung for the *next* replay.
        level: u8,
    },
    /// A `dpmr.check` mismatch was raised.
    TrapRaised {
        /// Virtual clock at emission.
        cycle: u64,
        /// Check-site id.
        site: u32,
        /// Application-side raw value.
        got: u64,
        /// First divergent replica raw value.
        replica: u64,
    },
    /// A detection was repaired in place (copy-back or vote).
    Repaired {
        /// Virtual clock at emission.
        cycle: u64,
        /// Check-site id.
        site: u32,
        /// Minority replica copies rewritten (0 for copy-back repair).
        replica_repairs: u64,
    },
    /// A runtime fault was armed for this run (emitted at run start).
    FaultArmed {
        /// Virtual clock at emission.
        cycle: u64,
        /// Armed op-site pc.
        site: u32,
        /// Fault-class display name.
        class: String,
    },
    /// The armed runtime fault mutated an access.
    FaultFired {
        /// Virtual clock at emission.
        cycle: u64,
        /// Armed op-site pc.
        site: u32,
    },
    /// A `TrapAction::Vote` arbitration found no strict majority among
    /// the K+1 compared copies (the even-K tie case) — the run
    /// terminates.
    VoteTied {
        /// Virtual clock at emission.
        cycle: u64,
        /// Check-site id.
        site: u32,
        /// Copies compared (K + 1).
        copies: u32,
    },
}

impl TraceEvent {
    /// The virtual-cycle timestamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::RunStart { cycle, .. }
            | TraceEvent::RunEnd { cycle, .. }
            | TraceEvent::CheckpointTaken { cycle, .. }
            | TraceEvent::CheckpointRestored { cycle }
            | TraceEvent::RollbackEscalated { cycle, .. }
            | TraceEvent::TrapRaised { cycle, .. }
            | TraceEvent::Repaired { cycle, .. }
            | TraceEvent::FaultArmed { cycle, .. }
            | TraceEvent::FaultFired { cycle, .. }
            | TraceEvent::VoteTied { cycle, .. } => cycle,
        }
    }

    /// Stable kind tag (the JSON `event` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run-start",
            TraceEvent::RunEnd { .. } => "run-end",
            TraceEvent::CheckpointTaken { .. } => "checkpoint-taken",
            TraceEvent::CheckpointRestored { .. } => "checkpoint-restored",
            TraceEvent::RollbackEscalated { .. } => "rollback-escalated",
            TraceEvent::TrapRaised { .. } => "trap-raised",
            TraceEvent::Repaired { .. } => "repaired",
            TraceEvent::FaultArmed { .. } => "fault-armed",
            TraceEvent::FaultFired { .. } => "fault-fired",
            TraceEvent::VoteTied { .. } => "vote-tied",
        }
    }

    /// Renders the event as one JSON object (hand-rolled — the workspace
    /// is offline and vendors no serde; every field is a number except
    /// the two tag strings, so escaping reduces to the fault-class name,
    /// which contains no quotes by construction).
    pub fn to_json(&self) -> String {
        let head = format!("{{\"event\":\"{}\",\"cycle\":{}", self.kind(), self.cycle());
        let tail = match self {
            TraceEvent::RunStart { seed, .. } => format!(",\"seed\":{seed}"),
            TraceEvent::RunEnd { status, .. } => format!(",\"status\":\"{status}\""),
            TraceEvent::CheckpointTaken { instrs, .. } => format!(",\"instrs\":{instrs}"),
            TraceEvent::CheckpointRestored { .. } => String::new(),
            TraceEvent::RollbackEscalated { level, .. } => format!(",\"level\":{level}"),
            TraceEvent::TrapRaised {
                site, got, replica, ..
            } => format!(",\"site\":{site},\"got\":{got},\"replica\":{replica}"),
            TraceEvent::Repaired {
                site,
                replica_repairs,
                ..
            } => format!(",\"site\":{site},\"replica_repairs\":{replica_repairs}"),
            TraceEvent::FaultArmed { site, class, .. } => {
                format!(",\"site\":{site},\"class\":\"{class}\"")
            }
            TraceEvent::FaultFired { site, .. } => format!(",\"site\":{site}"),
            TraceEvent::VoteTied { site, copies, .. } => {
                format!(",\"site\":{site},\"copies\":{copies}")
            }
        };
        format!("{head}{tail}}}")
    }
}

/// A pc profile was attributed against a `LoweredCode` it was not
/// collected over (the profile length and the op-stream length
/// disagree). Returned by [`Telemetry::func_totals`] instead of
/// panicking or silently mis-attributing counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileMismatch {
    /// Length of the collected pc profile.
    pub profile_len: usize,
    /// Op count of the code the caller attributed against.
    pub ops_len: usize,
}

impl std::fmt::Display for ProfileMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pc profile of length {} cannot be attributed over code with {} ops \
             (profile taken from a different LoweredCode?)",
            self.profile_len, self.ops_len
        )
    }
}

impl std::error::Error for ProfileMismatch {}

/// The collected telemetry of one interpreter: data only (the
/// [`TelemetryConfig`] stays on the interpreter, so restoring a snapshot
/// never toggles collection). Cloned wholesale into
/// [`crate::interp::InterpSnapshot`]; with collection off every vector is
/// empty and the clone is a few pointer-sized moves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Per-check-site counters, indexed by site id (sized to
    /// `check_sites` when site collection is on, empty otherwise).
    pub site_stats: Vec<SiteStats>,
    /// Per-pc execution counts over the lowered op stream (sized to
    /// `ops.len()` when profiling is on, empty otherwise).
    pub pc_exec: Vec<u64>,
    /// The ordered event trace (bounded by [`Telemetry::EVENT_CAP`]).
    pub events: Vec<TraceEvent>,
    /// Events discarded after the trace filled (the cap keeps a runaway
    /// trace from dominating checkpoint clones; the count itself stays
    /// deterministic).
    pub events_dropped: u64,
}

impl Telemetry {
    /// Maximum retained trace events per timeline; later events only
    /// bump [`Telemetry::events_dropped`].
    pub const EVENT_CAP: usize = 1 << 16;

    /// Appends an event, honouring the retention cap.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < Telemetry::EVENT_CAP {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Per-function execution totals derived from the pc profile
    /// (indexed by `FuncId`; empty when profiling was off).
    ///
    /// The profile is only meaningful against the `LoweredCode` it was
    /// collected over: a profile from a different module (or a different
    /// pass configuration's op count) would silently mis-attribute
    /// counts, so a length mismatch is a checked error, never a panic or
    /// a wrong table.
    pub fn func_totals(
        &self,
        code: &crate::code::LoweredCode,
    ) -> Result<Vec<u64>, ProfileMismatch> {
        if self.pc_exec.is_empty() {
            return Ok(Vec::new());
        }
        if self.pc_exec.len() != code.ops.len() {
            return Err(ProfileMismatch {
                profile_len: self.pc_exec.len(),
                ops_len: code.ops.len(),
            });
        }
        let mut totals = vec![0u64; code.func_entry.len()];
        for (pc, &n) in self.pc_exec.iter().enumerate() {
            if n > 0 {
                let f = code.func_of_pc(pc as u32).0 as usize;
                match totals.get_mut(f) {
                    Some(t) => *t += n,
                    None => {
                        return Err(ProfileMismatch {
                            profile_len: self.pc_exec.len(),
                            ops_len: code.ops.len(),
                        })
                    }
                }
            }
        }
        Ok(totals)
    }

    /// The event trace rendered as JSON lines (one object per event),
    /// with a final `trace-truncated` object when the cap dropped any.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        if self.events_dropped > 0 {
            out.push_str(&format!(
                "{{\"event\":\"trace-truncated\",\"dropped\":{}}}\n",
                self.events_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off() {
        assert!(!TelemetryConfig::default().any());
        assert!(!TelemetryConfig::off().any());
        assert!(TelemetryConfig::full().any());
    }

    #[test]
    fn event_json_is_one_object_per_event() {
        let evs = [
            TraceEvent::RunStart { cycle: 0, seed: 7 },
            TraceEvent::TrapRaised {
                cycle: 10,
                site: 3,
                got: 1,
                replica: 2,
            },
            TraceEvent::FaultArmed {
                cycle: 0,
                site: 9,
                class: "bit-flip heap".into(),
            },
            TraceEvent::RunEnd {
                cycle: 11,
                status: "normal",
            },
        ];
        for ev in &evs {
            let j = ev.to_json();
            assert!(
                j.starts_with(&format!("{{\"event\":\"{}\"", ev.kind())),
                "{j}"
            );
            assert!(j.ends_with('}'), "{j}");
            assert!(j.contains(&format!("\"cycle\":{}", ev.cycle())), "{j}");
        }
    }

    #[test]
    fn func_totals_rejects_profile_from_different_code() {
        use crate::code::{LoweredCode, Op};
        let code = LoweredCode::new(
            vec![Op::Ret { value: None }, Op::Ret { value: None }],
            vec![0],
            0,
            Vec::new(),
        );
        // A profile of the wrong length (taken from different code) is a
        // checked error, not a panic or a silently wrong table.
        let mut t = Telemetry {
            pc_exec: vec![5, 6, 7],
            ..Telemetry::default()
        };
        let err = t.func_totals(&code).unwrap_err();
        assert_eq!((err.profile_len, err.ops_len), (3, 2));
        assert!(err.to_string().contains("different LoweredCode"));
        // A matching profile attributes normally.
        t.pc_exec = vec![5, 6];
        assert_eq!(t.func_totals(&code).unwrap(), vec![11]);
        // Profiling off: empty result, never an error.
        t.pc_exec.clear();
        assert!(t.func_totals(&code).unwrap().is_empty());
    }

    #[test]
    fn vote_tied_event_renders() {
        let ev = TraceEvent::VoteTied {
            cycle: 42,
            site: 3,
            copies: 3,
        };
        assert_eq!(ev.kind(), "vote-tied");
        assert_eq!(ev.cycle(), 42);
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"vote-tied\",\"cycle\":42,\"site\":3,\"copies\":3}"
        );
    }

    #[test]
    fn event_cap_drops_deterministically() {
        let mut t = Telemetry::default();
        for i in 0..(Telemetry::EVENT_CAP as u64 + 5) {
            t.push(TraceEvent::FaultFired { cycle: i, site: 0 });
        }
        assert_eq!(t.events.len(), Telemetry::EVENT_CAP);
        assert_eq!(t.events_dropped, 5);
        assert!(t.trace_jsonl().ends_with("\"dropped\":5}\n"));
    }
}
