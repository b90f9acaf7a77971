//! Experiment execution (Secs. 3.5–3.6): the golden preparation of an
//! application, the transform-and-lower build of a DPMR variant, the two
//! run entry points every experiment descriptor `(W, C, D, I, RN)` goes
//! through, and the per-run measurement components of Table 3.2.

use dpmr_core::prelude::*;
use dpmr_fi::{enumerate_heap_alloc_sites, may_manifest, FaultType, InjectionSite, OpSite};
use dpmr_ir::module::Module;
use dpmr_recovery::{RecoveryDriver, RecoveryOutcome};
use dpmr_vm::prelude::*;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::rc::Rc;

/// Simulated CPU frequency used to convert virtual cycles to the paper's
/// millisecond units (the testbed's 2 GHz Athlon, Table 3.1).
pub const CYCLES_PER_MSEC: f64 = 2.0e6;

/// Raw per-run measurements (Table 3.2's random variables).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Successful fault injection: the marker executed at least once.
    pub sf: bool,
    /// Correct output (literal: output bytes equal the golden run's).
    pub co: bool,
    /// Natural detection: crash or self-reported error.
    pub ndet: bool,
    /// DPMR detection.
    pub ddet: bool,
    /// Run timed out.
    pub timeout: bool,
    /// Time to fault detection in virtual cycles (detection time minus
    /// first-successful-injection time), when detected.
    pub t2d: Option<u64>,
    /// Total virtual cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub instrs: u64,
}

/// Raw measurements of one recovery experiment (the Table R.1 random
/// variables).
#[derive(Debug, Clone)]
pub struct RecoveryMeasurement {
    /// Successful fault injection (the marker executed).
    pub sf: bool,
    /// Completed normally after at least one detection, with output equal
    /// to the golden run's — the run *survived* the fault.
    pub recovered_correct: bool,
    /// Completed after detection but with wrong output (a mis-repair:
    /// the replica side was the corrupted one).
    pub survived_wrong: bool,
    /// The policy stopped the run in a controlled way (fail-stop or an
    /// exhausted retry/repair budget).
    pub fail_stopped: bool,
    /// In-place repairs applied.
    pub repairs: u64,
    /// Checkpoint replays performed (attempts - 1).
    pub retries: u64,
    /// Virtual cycles from first detection to completion, when recovered.
    pub t2r: Option<u64>,
}

/// One interpreter run: the raw outcome plus everything the telemetry
/// layer collected (nothing when telemetry is off).
pub(crate) struct RunRecord {
    /// Raw run outcome.
    pub out: RunOutcome,
    /// Collected per-site/per-pc profiles and the event trace.
    pub telemetry: Telemetry,
    /// Simulated region footprint at run end.
    pub mem: MemUsage,
    /// The VM seed the run used (trace-sink key component).
    pub seed: u64,
}

/// A DPMR-transformed module and its lowered bytecode, stored plain (not
/// `Rc`-wrapped) so builds stay `Send` and `Sync` for the study
/// scheduler. Function bodies and bytecode are shared by reference
/// count, so a clone copies neither.
#[derive(Clone)]
pub(crate) struct Build {
    /// The transformed module.
    pub module: Module,
    /// Its lowered bytecode.
    pub code: LoweredCode,
}

/// Transforms `module` under `cfg` and lowers the result: the build of
/// every `nofi-dpmr` and `fi-dpmr` variant.
///
/// # Panics
/// Panics if the transformation rejects the module (a workload bug).
pub(crate) fn build(module: &Module, cfg: &DpmrConfig) -> Build {
    let module = transform(module, cfg).expect("transform");
    let code = dpmr_vm::lower::lower(&module);
    Build { module, code }
}

impl Build {
    /// This build, ready to run. The bytecode is shared with the build,
    /// not copied: each unit's `Rc` holds a clone that counts references.
    pub(crate) fn exe(&self) -> Exe<'_> {
        Exe::dpmr(&self.module, self.code.clone())
    }
}

/// A module ready to run: its lowered bytecode and the registry of
/// externals it links against. A unit makes one and shares it across its
/// runs and legs; the bytecode itself is shared with the [`Build`] it
/// came from.
pub(crate) struct Exe<'m> {
    /// The module (`code` was lowered from it).
    pub module: &'m Module,
    /// Its lowered bytecode.
    pub code: Rc<LoweredCode>,
    /// The externals the module calls.
    pub registry: Rc<Registry>,
}

impl<'m> Exe<'m> {
    /// A DPMR-transformed `module`, linked against the wrapper registry.
    pub(crate) fn dpmr(module: &'m Module, code: LoweredCode) -> Exe<'m> {
        Exe {
            module,
            code: Rc::new(code),
            registry: Rc::new(registry_with_wrappers()),
        }
    }

    /// An untransformed `module` (`golden`, `fi-stdapp`), linked against
    /// the base registry.
    pub(crate) fn plain(module: &'m Module, code: LoweredCode) -> Exe<'m> {
        Exe {
            module,
            code: Rc::new(code),
            registry: Rc::new(Registry::with_base()),
        }
    }
}

/// A prepared application: golden module, its lowered bytecode, golden
/// run, and injection sites.
pub struct PreparedApp {
    /// Application spec.
    pub app: AppSpec,
    /// Unmodified module.
    pub module: Module,
    /// The golden module's lowered bytecode (the static filter consults
    /// it; stored plain — not `Rc`-wrapped — so prepared apps stay `Send`
    /// and `Sync` for the study scheduler).
    pub code: LoweredCode,
    /// Golden run outcome.
    pub golden: RunOutcome,
    /// Injectable sites that may manifest, per fault type.
    pub sites: Vec<InjectionSite>,
    /// Workload parameters used.
    pub params: WorkloadParams,
}

/// Exactly [`dpmr_vm::lower::lower`]: a configuration carries no
/// optimizer settings. Kept for campaign_bench; remove in its next
/// change.
pub fn lower_with_passes(module: &Module, _cfg: &DpmrConfig) -> LoweredCode {
    dpmr_vm::lower::lower(module)
}

/// An application whose golden run did not end cleanly: with no golden
/// output there is nothing to judge its trials against. A workload
/// scaled past the golden budget (`--scale`) times out this way.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareError {
    /// The application.
    pub app: &'static str,
    /// How its golden run ended.
    pub status: ExitStatus,
    /// The golden run's instruction budget.
    pub budget: u64,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: the golden run ended {:?}, not Normal(0), within its {}-instruction budget",
            self.app, self.status, self.budget
        )
    }
}

impl std::error::Error for PrepareError {}

/// Builds and measures the golden variant of an application.
///
/// # Panics
/// Panics with the [`PrepareError`] when the golden run is not clean.
/// Kept for campaign_bench's mirror test; the harness's studies prepare
/// through the fallible version. Remove in campaign_bench's next change.
pub fn prepare(app: AppSpec, params: &WorkloadParams) -> PreparedApp {
    try_prepare(app, params).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds and measures the golden variant of an application, or says
/// why its golden run, under [`RunConfig::default`]'s budget, did not
/// end with `Normal(0)`.
pub(crate) fn try_prepare(
    app: AppSpec,
    params: &WorkloadParams,
) -> Result<PreparedApp, PrepareError> {
    let module = (app.build)(params);
    let code = dpmr_vm::lower::lower(&module);
    let rc = RunConfig::default();
    let golden = {
        let mut interp = Interp::with_code(
            &module,
            Rc::new(code.clone()),
            &rc,
            Rc::new(Registry::with_base()),
        );
        interp.run(rc.args.clone())
    };
    if golden.status != ExitStatus::Normal(0) {
        return Err(PrepareError {
            app: app.name,
            status: golden.status,
            budget: rc.max_instrs,
        });
    }
    let sites = enumerate_heap_alloc_sites(&module);
    Ok(PreparedApp {
        app,
        module,
        code,
        golden,
        sites,
        params: *params,
    })
}

impl PreparedApp {
    /// Sites where `fault` may manifest (static filter, Sec. 3.4, applied
    /// against the prepared lowering).
    pub fn manifest_sites(&self, fault: FaultType) -> Vec<InjectionSite> {
        self.sites
            .iter()
            .copied()
            .filter(|s| may_manifest(&self.module, &self.code, s, fault))
            .collect()
    }

    /// Run budget: ~20× the golden running time (Sec. 3.6's timeout).
    pub fn budget(&self) -> u64 {
        self.golden.instrs.saturating_mul(20).max(1_000_000)
    }

    /// The runtime fault of trial `run` of `runs` armed at `site`: seeded
    /// by `(pc, run)` and armed `run/runs` of the way into the golden
    /// running time, so trial 0 is armed from the first cycle. The armed
    /// triple makes the trial exactly replayable.
    pub(crate) fn arm(&self, fault: FaultModel, site: OpSite, run: u32, runs: u32) -> ArmedFault {
        ArmedFault {
            site: site.pc,
            fault,
            seed: dpmr_fi::trial_seed(site.pc, run),
            arm_cycle: self.golden.cycles * u64::from(run) / u64::from(runs.max(1)),
        }
    }

    /// The configuration of run `run` (its seeds), with `fault` armed at
    /// the Mem/Interp boundary.
    fn run_config(&self, fault: Option<ArmedFault>, run: u32) -> RunConfig {
        let mut rc = RunConfig {
            max_instrs: self.budget(),
            seed: u64::from(run) + 1,
            fault,
            ..RunConfig::default()
        };
        rc.mem.fill_seed = (u64::from(run) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        rc
    }

    /// Runs `exe` once with run `run`'s seeds, `fault` armed (if any) and
    /// `telemetry` collected.
    pub(crate) fn run(
        &self,
        exe: &Exe,
        fault: Option<ArmedFault>,
        telemetry: TelemetryConfig,
        run: u32,
    ) -> RunRecord {
        let mut rc = self.run_config(fault, run);
        rc.telemetry = telemetry;
        let mut interp = Interp::with_code(
            exe.module,
            Rc::clone(&exe.code),
            &rc,
            Rc::clone(&exe.registry),
        );
        let out = interp.run(rc.args.clone());
        RunRecord {
            out,
            mem: interp.mem.usage(),
            telemetry: interp.take_telemetry(),
            seed: rc.seed,
        }
    }

    /// Runs `exe` once under recovery configuration `rec` through the
    /// [`RecoveryDriver`], with run `run`'s seeds and `fault` armed (if
    /// any): repairs and checkpoint replays face the same deterministic
    /// corruption a detection run saw. Reduces against the golden
    /// reference.
    pub(crate) fn run_recovery(
        &self,
        exe: &Exe,
        fault: Option<ArmedFault>,
        rec: RecoveryConfig,
        run: u32,
    ) -> RecoveryMeasurement {
        let rc = self.run_config(fault, run);
        let driver = RecoveryDriver::with_code(
            exe.module,
            Rc::clone(&exe.code),
            Rc::clone(&exe.registry),
            rc,
            rec,
        );
        self.measure_recovery(driver.run())
    }

    /// Reduces a raw run outcome against the golden reference.
    pub fn measure(&self, out: &RunOutcome) -> Measurement {
        let co = matches!(out.status, ExitStatus::Normal(0)) && out.output == self.golden.output;
        let ndet = out.status.is_natural_detection();
        let ddet = out.status.is_dpmr_detection();
        let timeout = matches!(out.status, ExitStatus::Timeout);
        let t2d = match (out.detect_cycle, out.first_fi_cycle) {
            (Some(d), Some(f)) if d >= f => Some(d - f),
            (Some(d), None) => Some(d),
            _ => None,
        };
        Measurement {
            sf: out.first_fi_cycle.is_some(),
            co,
            ndet,
            ddet,
            timeout,
            t2d,
            cycles: out.cycles,
            instrs: out.instrs,
        }
    }

    /// Reduces a raw recovery outcome against the golden reference.
    pub fn measure_recovery(&self, out: RecoveryOutcome) -> RecoveryMeasurement {
        let correct = matches!(out.last.status, ExitStatus::Normal(0))
            && out.last.output == self.golden.output;
        RecoveryMeasurement {
            sf: out.last.first_fi_cycle.is_some(),
            recovered_correct: out.recovered() && correct,
            survived_wrong: out.recovered() && !correct,
            fail_stopped: out.fail_stopped,
            repairs: out.repairs,
            retries: u64::from(out.attempts.saturating_sub(1)),
            t2r: out.time_to_recovery,
        }
    }

    /// Overhead of a DPMR build (`nofi-dpmr`): the cycles of its clean
    /// run 0 divided by the golden cycles (Eq. 3.1).
    pub(crate) fn overhead(&self, exe: &Exe) -> f64 {
        let out = self.run(exe, None, TelemetryConfig::off(), 0).out;
        out.cycles as f64 / self.golden.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_workloads::app_by_name;

    /// A golden run that does not end with `Normal(0)` is an error that
    /// names the app, its status and the budget, not a panic.
    #[test]
    fn unclean_golden_run_is_an_error() {
        fn exits_one(_: &WorkloadParams) -> Module {
            let mut m = Module::new();
            let i64t = m.types.int(64);
            let mut b = dpmr_ir::builder::FunctionBuilder::new(&mut m, "main", i64t, &[]);
            b.ret(Some(dpmr_ir::instr::Const::i64(1).into()));
            m.entry = Some(b.finish());
            m
        }
        let app = AppSpec {
            name: "exits-one",
            build: exits_one,
        };
        let e = try_prepare(app, &WorkloadParams::quick())
            .err()
            .expect("not clean");
        assert_eq!(e.status, ExitStatus::Normal(1));
        assert_eq!(
            e.to_string(),
            "exits-one: the golden run ended Normal(1), not Normal(0), \
             within its 200000000-instruction budget"
        );
    }

    #[test]
    fn prepare_builds_golden_and_sites() {
        let app = app_by_name("bzip2").expect("bzip2");
        let p = prepare(app, &WorkloadParams::quick());
        assert!(!p.sites.is_empty(), "bzip2 has heap allocation sites");
        assert!(p.budget() > p.golden.instrs);
    }

    #[test]
    fn overhead_is_above_one_under_dpmr() {
        let app = app_by_name("art").expect("art");
        let p = prepare(app, &WorkloadParams::quick());
        let b = build(
            &p.module,
            &DpmrConfig::sds().with_diversity(Diversity::None),
        );
        let o = p.overhead(&b.exe());
        assert!(o > 1.2, "DPMR must cost something, got {o}");
        assert!(o < 20.0, "DPMR overhead out of range, got {o}");
    }

    #[test]
    fn fault_injection_experiment_measures() {
        let app = app_by_name("mcf").expect("mcf");
        let p = prepare(app, &WorkloadParams::quick());
        let sites = p.manifest_sites(FaultType::ImmediateFree);
        assert!(!sites.is_empty());
        // fi-stdapp: the injected, untransformed build.
        let faulty = dpmr_fi::inject(&p.module, &sites[0], FaultType::ImmediateFree);
        let exe = Exe::plain(&faulty, dpmr_vm::lower::lower(&faulty));
        let m = p.measure(&p.run(&exe, None, TelemetryConfig::off(), 0).out);
        assert!(m.sf, "the first mcf allocation site always executes");
    }
}
