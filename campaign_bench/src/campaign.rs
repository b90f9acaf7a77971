//! Trials, their replay keys, and the pass runner that fans a workload's
//! units over the harness scheduler.

use crate::record::{self, Failure, Record};
use dpmr_harness::experiment::{Measurement, PreparedApp, RecoveryMeasurement};
use dpmr_vm::interp::{ExitStatus, RunOutcome};
use std::fmt;
use std::time::Instant;

/// Everything needed to replay one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// Study the unit belongs to (`sds-div`, `tabF`, `tabR`, `long`, or
    /// `ref` for the in-run reference runs).
    pub study: &'static str,
    /// Application.
    pub app: &'static str,
    /// Build variant: `golden`, `stdapp`, or the DPMR configuration name
    /// (scheme, replication degree, diversity, policy), with any pass or
    /// recovery-policy suffix.
    pub cfg: String,
    /// Replication degree (0 for untransformed builds).
    pub k: usize,
    /// Fault class, IR fault type, or `clean`.
    pub class: String,
    /// Armed op pc, or the IR injection site id.
    pub site: u32,
    /// Run number (RN).
    pub run: u32,
    /// Armed-fault seed, or the VM seed of unarmed runs.
    pub seed: u64,
    /// Virtual cycle the fault is armed at (armed trials only).
    pub arm_cycle: Option<u64>,
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "study={} app={} cfg=\"{}\" k={} class=\"{}\" site={} run={} seed={}",
            self.study, self.app, self.cfg, self.k, self.class, self.site, self.run, self.seed
        )?;
        if let Some(a) = self.arm_cycle {
            write!(f, " arm_cycle={a}")?;
        }
        Ok(())
    }
}

/// What a trial contributes to the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Clean run of the untransformed program (the overhead denominator).
    Golden,
    /// Clean run of a transformed build (checked against the golden output).
    Clean,
    /// Fault trial of the untransformed program (`stdapp`).
    Stdapp,
    /// Fault trial of a DPMR build.
    Dpmr,
}

/// A finished trial, reduced.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The harness's reduction of the (last) run.
    pub m: Measurement,
    /// Exit-status class of the (last) run.
    pub status: &'static str,
    /// Host time of the interpreter run (0 for recovery-driver runs).
    pub host_ns: u64,
    /// Completed normally with the golden output.
    pub output_ok: bool,
    /// DPMR detected the fault (on any attempt).
    pub detected: bool,
    /// Verdict of the recovery leg or recovery run, when one ran.
    pub recovery: Option<RecoveryMeasurement>,
}

impl Verdict {
    /// Reduces a plain run against `p`'s golden reference.
    pub fn of_run(p: &PreparedApp, out: &RunOutcome, host_ns: u64) -> Verdict {
        Verdict {
            m: p.measure(out),
            status: status_class(&out.status),
            host_ns,
            output_ok: out.status == ExitStatus::Normal(0) && out.output == p.golden.output,
            detected: out.status.is_dpmr_detection(),
            recovery: None,
        }
    }

    /// Everything but host time, for determinism and engine-parity checks.
    pub fn fingerprint(&self) -> String {
        format!(
            "{} {:?} ok={} det={} {:?}",
            self.status, self.m, self.output_ok, self.detected, self.recovery
        )
    }
}

fn status_class(s: &ExitStatus) -> &'static str {
    match s {
        ExitStatus::Normal(_) => "normal",
        ExitStatus::AppError(_) => "app-error",
        ExitStatus::DpmrDetected { .. } => "dpmr-detected",
        ExitStatus::Crash(_) => "crash",
        ExitStatus::Timeout => "timeout",
    }
}

/// One trial: its key, its role, and its verdict or panic message.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Replay key.
    pub key: Key,
    /// Role in the metrics.
    pub kind: Kind,
    /// Verdict, or the panic the trial ended in.
    pub result: Result<Verdict, Failure>,
}

/// Collects a unit's trials, each run behind its own panic boundary.
#[derive(Default)]
pub struct TrialSink {
    /// Trials so far, in execution order.
    pub trials: Vec<Trial>,
}

impl TrialSink {
    /// Runs one trial; a panic in `f` becomes a failed trial.
    pub fn trial(&mut self, key: Key, kind: Kind, f: impl FnOnce() -> Verdict) {
        let ordinal = u32::try_from(self.trials.len()).expect("trial count fits u32");
        let result = record::guard(Some(ordinal), f);
        self.trials.push(Trial { key, kind, result });
    }
}

/// A workload after set-up: a fixed list of independent units.
pub trait Campaign: Sync {
    /// Number of units in one pass.
    fn units(&self) -> usize;
    /// Runs unit `unit`, on the plain dispatch loop when `plain`.
    fn run_unit(&self, unit: usize, plain: bool, sink: &mut TrialSink);
    /// A key naming unit `unit` as a whole (for a panic outside any trial).
    fn unit_key(&self, unit: usize) -> Key;
    /// `(detected, fired)` of armed trials run during set-up.
    fn setup_detections(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Re-runs up to `n` evenly spaced armed runs made during set-up on the
    /// plain dispatch loop. Returns how many ran and one line per run whose
    /// outcome differs from the threaded engine's.
    fn setup_parity(&self, _n: usize) -> (usize, Vec<String>) {
        (0, Vec::new())
    }
}

/// One unit's output.
pub struct UnitOut {
    /// Trials in execution order.
    pub trials: Vec<Trial>,
    /// Spans and counters.
    pub rec: Record,
    /// Host time the unit kept its worker busy.
    pub busy_ns: u64,
}

/// One pass over (a selection of) a campaign's units.
pub struct Pass {
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Spans were recorded.
    pub traced: bool,
    /// Unit outputs, in unit order.
    pub units: Vec<UnitOut>,
}

/// Runs `units` of `c` once, fanned over `workers` threads by the harness
/// scheduler (`dpmr_harness::sched::run_indexed`), outputs in unit order.
pub fn run_pass(
    c: &dyn Campaign,
    units: &[usize],
    workers: usize,
    plain: bool,
    traced: bool,
) -> Pass {
    record::set_tracing(traced);
    let t0 = Instant::now();
    let units = dpmr_harness::sched::run_indexed(units, workers, |&u| {
        let start = Instant::now();
        let mut sink = TrialSink::default();
        if let Err(f) = record::guard(None, || c.run_unit(u, plain, &mut sink)) {
            sink.trials.push(Trial {
                key: c.unit_key(u),
                kind: Kind::Dpmr,
                result: Err(f),
            });
        }
        UnitOut {
            trials: sink.trials,
            busy_ns: elapsed_ns(start),
            rec: record::take(),
        }
    });
    let wall_ns = elapsed_ns(t0);
    record::set_tracing(false);
    Pass {
        wall_ns,
        traced,
        units,
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a, 64-bit: a digest stable across builds and platforms.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes` (plus a separator).
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every trial's key and verdict (or failure), in unit order.
pub fn digest<'a>(trials: impl IntoIterator<Item = &'a Trial>) -> u64 {
    let mut h = Fnv::default();
    for t in trials {
        h.feed(t.key.to_string().as_bytes());
        match &t.result {
            Ok(v) => h.feed(v.fingerprint().as_bytes()),
            Err(f) => h.feed(format!("failed: {}", f.msg).as_bytes()),
        }
    }
    h.0
}
