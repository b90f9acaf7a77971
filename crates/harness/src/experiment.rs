//! Experiment execution: variant builds (Sec. 3.5), experiment
//! descriptors `(W, C, D, I, RN)` (Sec. 3.6), and the per-run measurement
//! components of Table 3.2.

use dpmr_core::prelude::*;
use dpmr_fi::{enumerate_heap_alloc_sites, inject, may_manifest, FaultType, InjectionSite};
use dpmr_ir::module::Module;
use dpmr_recovery::{RecoveryDriver, RecoveryOutcome};
use dpmr_vm::prelude::*;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::rc::Rc;

/// Simulated CPU frequency used to convert virtual cycles to the paper's
/// millisecond units (the testbed's 2 GHz Athlon, Table 3.1).
pub const CYCLES_PER_MSEC: f64 = 2.0e6;

/// The four variant classes of Sec. 3.5 / Fig. 3.5.
#[derive(Debug, Clone)]
pub enum Variant {
    /// `golden`: the unmodified application.
    Golden,
    /// `fi-stdapp`: fault-injection build without DPMR.
    FiStdapp,
    /// `nofi-dpmr`: DPMR build without fault injection (overhead runs).
    NofiDpmr(DpmrConfig),
    /// `fi-dpmr`: fault-injection + DPMR build.
    FiDpmr(DpmrConfig),
}

impl Variant {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Variant::Golden => "golden".into(),
            Variant::FiStdapp => "stdapp".into(),
            Variant::NofiDpmr(c) | Variant::FiDpmr(c) => c.name(),
        }
    }
}

/// One experiment's identity: workload, comparison policy + diversity
/// (inside the DPMR config), injection, run number.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Application under test.
    pub app: &'static str,
    /// Variant (carries C and D).
    pub variant: Variant,
    /// Injected fault, if any (I).
    pub fault: Option<(InjectionSite, FaultType)>,
    /// Run number (RN) — seeds the VM.
    pub run: u32,
}

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

/// One fully instrumented run: the raw outcome plus everything the
/// telemetry layer collected (see [`PreparedApp::run_instrumented`]).
pub struct InstrumentedRun {
    /// Raw run outcome.
    pub out: RunOutcome,
    /// Collected per-site/per-pc profiles and the event trace.
    pub telemetry: Telemetry,
    /// Simulated region footprint at run end.
    pub mem: MemUsage,
    /// The VM seed the run used (trace-sink key component).
    pub seed: u64,
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
    /// for the study scheduler).
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

/// Builds and measures the golden variant of an application.
///
/// # Panics
/// Panics if the golden run is not clean (a workload bug).
pub fn prepare(app: AppSpec, params: &WorkloadParams) -> PreparedApp {
    let module = (app.build)(params);
    let code_rc = Rc::new(dpmr_vm::lower::lower(&module));
    let golden = {
        let rc = RunConfig::default();
        let mut interp = Interp::with_code(
            &module,
            Rc::clone(&code_rc),
            &rc,
            Rc::new(Registry::with_base()),
        );
        interp.run(rc.args.clone())
    };
    // The golden interpreter is gone; reclaim the lowering it shared.
    let code = Rc::try_unwrap(code_rc).expect("golden interpreter dropped");
    assert_eq!(
        golden.status,
        ExitStatus::Normal(0),
        "{}: golden run must be clean",
        app.name
    );
    let sites = enumerate_heap_alloc_sites(&module);
    PreparedApp {
        app,
        module,
        code,
        golden,
        sites,
        params: *params,
    }
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

    fn run_config(&self, run: u32) -> RunConfig {
        let mut rc = RunConfig {
            max_instrs: self.budget(),
            seed: u64::from(run) + 1,
            ..RunConfig::default()
        };
        rc.mem.fill_seed = (u64::from(run) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        rc
    }

    /// Executes one experiment and reduces it to a [`Measurement`].
    pub fn run(&self, exp: &Experiment) -> Measurement {
        let faulty;
        let base: &Module = match &exp.fault {
            Some((site, fault)) => {
                faulty = inject(&self.module, site, *fault);
                &faulty
            }
            None => &self.module,
        };
        let transformed;
        let (module, registry): (&Module, Rc<Registry>) = match &exp.variant {
            Variant::Golden | Variant::FiStdapp => (base, Rc::new(Registry::with_base())),
            Variant::NofiDpmr(cfg) | Variant::FiDpmr(cfg) => {
                transformed = transform(base, cfg).expect("transform");
                (&transformed, Rc::new(registry_with_wrappers()))
            }
        };
        let rc = self.run_config(exp.run);
        let out = run_with_registry(module, &rc, registry);
        self.measure(&out)
    }

    /// Runs an already injected/transformed module with shared
    /// pre-lowered bytecode (`code` must have been lowered from `module`)
    /// under `registry`, using run `run`'s seeds, and reduces it against
    /// the golden reference. Campaigns use this to hoist injection,
    /// transformation, and lowering out of their per-run loops.
    pub fn run_built(
        &self,
        module: &Module,
        code: Rc<LoweredCode>,
        registry: Rc<Registry>,
        run: u32,
    ) -> Measurement {
        let rc = self.run_config(run);
        let mut interp = Interp::with_code(module, code, &rc, registry);
        let out = interp.run(rc.args.clone());
        self.measure(&out)
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

    /// Injects `fault` at `site` and applies the DPMR transformation —
    /// the expensive, policy-independent half of a recovery experiment.
    /// Campaigns hoist this out of their per-(policy, run) loops.
    pub fn prepare_recovery(
        &self,
        site: &InjectionSite,
        fault: FaultType,
        cfg: &DpmrConfig,
    ) -> Module {
        let faulty = inject(&self.module, site, fault);
        transform(&faulty, cfg).expect("transform")
    }

    /// Executes one *recovery* experiment: injects `fault` at `site`,
    /// transforms with `cfg`, and runs under `rec` through the
    /// [`RecoveryDriver`], reducing against the golden reference.
    pub fn run_recovery(
        &self,
        site: &InjectionSite,
        fault: FaultType,
        cfg: &DpmrConfig,
        rec: RecoveryConfig,
        run: u32,
    ) -> RecoveryMeasurement {
        let transformed = self.prepare_recovery(site, fault, cfg);
        let code = Rc::new(dpmr_vm::lower::lower(&transformed));
        let registry = Rc::new(registry_with_wrappers());
        self.run_recovery_lowered(&transformed, code, registry, rec, run)
    }

    /// Runs a recovery experiment on an already injected-and-transformed
    /// module (see [`PreparedApp::prepare_recovery`]), lowering it to
    /// bytecode for this run only. Campaigns that replay one transformed
    /// module across policies and seeds should lower once and use
    /// [`PreparedApp::run_recovery_lowered`].
    pub fn run_recovery_prepared(
        &self,
        transformed: &Module,
        rec: RecoveryConfig,
        run: u32,
    ) -> RecoveryMeasurement {
        let code = Rc::new(dpmr_vm::lower::lower(transformed));
        let registry = Rc::new(registry_with_wrappers());
        self.run_recovery_lowered(transformed, code, registry, rec, run)
    }

    /// Runs a recovery experiment on an already injected-and-transformed
    /// module with shared pre-lowered bytecode (`code` must have been
    /// lowered from `transformed`) and a shared wrapper registry.
    pub fn run_recovery_lowered(
        &self,
        transformed: &Module,
        code: Rc<LoweredCode>,
        registry: Rc<Registry>,
        rec: RecoveryConfig,
        run: u32,
    ) -> RecoveryMeasurement {
        let rc = self.run_config(run);
        let driver = RecoveryDriver::with_code(transformed, code, registry, rc, rec);
        self.measure_recovery(driver.run())
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

    /// Executes one *runtime-fault* trial: runs `module` (shared lowered
    /// `code`, shared `registry`) with `fault` armed in the run
    /// configuration — the Mem/Interp-boundary injection hook — using run
    /// `run`'s seeds, and reduces against the golden reference. The armed
    /// triple makes the trial exactly replayable.
    pub fn run_armed(
        &self,
        module: &Module,
        code: Rc<LoweredCode>,
        registry: Rc<Registry>,
        fault: ArmedFault,
        run: u32,
    ) -> Measurement {
        let mut rc = self.run_config(run);
        rc.fault = Some(fault);
        let mut interp = Interp::with_code(module, code, &rc, registry);
        let out = interp.run(rc.args.clone());
        self.measure(&out)
    }

    /// Like [`PreparedApp::run_armed`] but executing under a recovery
    /// policy: the armed fault rides the run configuration into the
    /// [`RecoveryDriver`], so repairs and checkpoint replays face the
    /// same deterministic corruption the detection trial saw.
    pub fn run_armed_recovery(
        &self,
        module: &Module,
        code: Rc<LoweredCode>,
        registry: Rc<Registry>,
        fault: ArmedFault,
        rec: RecoveryConfig,
        run: u32,
    ) -> RecoveryMeasurement {
        let mut rc = self.run_config(run);
        rc.fault = Some(fault);
        let driver = RecoveryDriver::with_code(module, code, registry, rc, rec);
        self.measure_recovery(driver.run())
    }

    /// Executes one run with **full telemetry** enabled: the per-site and
    /// per-pc profiles plus the event trace of [`dpmr_vm::telemetry`],
    /// alongside the raw outcome and the region footprint. Clean profile
    /// runs (`fault: None`) feed the hot/cold columns of `profS.1`; armed
    /// runs feed its detection-usefulness columns and the trace sink.
    pub fn run_instrumented(
        &self,
        module: &Module,
        code: Rc<LoweredCode>,
        registry: Rc<Registry>,
        fault: Option<ArmedFault>,
        run: u32,
    ) -> InstrumentedRun {
        let mut rc = self.run_config(run);
        rc.fault = fault;
        rc.telemetry = TelemetryConfig::full();
        let mut interp = Interp::with_code(module, code, &rc, registry);
        let out = interp.run(rc.args.clone());
        let mem = interp.mem.usage();
        let telemetry = interp.take_telemetry();
        InstrumentedRun {
            out,
            telemetry,
            mem,
            seed: rc.seed,
        }
    }

    /// Overhead of a DPMR configuration: mean execution time of the
    /// transformed, non-faulty build divided by the golden time (Eq. 3.1).
    pub fn overhead(&self, cfg: &DpmrConfig) -> f64 {
        let exp = Experiment {
            app: self.app.name,
            variant: Variant::NofiDpmr(cfg.clone()),
            fault: None,
            run: 0,
        };
        let m = self.run(&exp);
        m.cycles as f64 / self.golden.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_workloads::app_by_name;

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
        let o = p.overhead(&DpmrConfig::sds().with_diversity(Diversity::None));
        assert!(o > 1.2, "DPMR must cost something, got {o}");
        assert!(o < 20.0, "DPMR overhead out of range, got {o}");
    }

    #[test]
    fn fault_injection_experiment_measures() {
        let app = app_by_name("mcf").expect("mcf");
        let p = prepare(app, &WorkloadParams::quick());
        let sites = p.manifest_sites(FaultType::ImmediateFree);
        assert!(!sites.is_empty());
        let exp = Experiment {
            app: "mcf",
            variant: Variant::FiStdapp,
            fault: Some((sites[0], FaultType::ImmediateFree)),
            run: 0,
        };
        let m = p.run(&exp);
        assert!(m.sf, "the first mcf allocation site always executes");
    }
}
