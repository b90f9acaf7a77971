//! Metric aggregation (Sec. 3.6): coverage, conditional coverage,
//! overhead, and detection latency, computed from fault-injection
//! campaigns across variant builds.

use crate::experiment::{prepare, Measurement, PreparedApp, RecoveryMeasurement, CYCLES_PER_MSEC};
use dpmr_core::prelude::*;
use dpmr_fi::{ArmedFault, FaultModel, FaultType, OpSite};
use dpmr_ir::module::Module;
use dpmr_vm::code::LoweredCode;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::collections::BTreeMap;

/// Coverage accumulator for one (variant, app, fault) population.
#[derive(Debug, Clone, Copy, Default)]
pub struct CovAgg {
    /// Successful-injection experiments observed.
    pub n: u32,
    /// Correct output.
    pub co: u32,
    /// Natural detection without correct output.
    pub ndet: u32,
    /// DPMR detection without correct output.
    pub ddet: u32,
    /// Sum of detection latencies (cycles) over detected experiments.
    pub t2d_cycles: u64,
    /// Number of detected experiments contributing to `t2d_cycles`.
    pub t2d_n: u32,
}

impl CovAgg {
    /// Adds one measurement.
    pub fn add(&mut self, m: &Measurement) {
        if !m.sf {
            return;
        }
        self.n += 1;
        if m.co {
            self.co += 1;
        } else if m.ndet {
            self.ndet += 1;
        } else if m.ddet {
            self.ddet += 1;
        }
        if !m.co && (m.ndet || m.ddet) {
            if let Some(t) = m.t2d {
                self.t2d_cycles += t;
                self.t2d_n += 1;
            }
        }
    }

    /// Fraction with correct output.
    pub fn co_frac(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.co) / f64::from(self.n)
    }
    /// Fraction naturally detected (and not CO).
    pub fn ndet_frac(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.ndet) / f64::from(self.n)
    }
    /// Fraction DPMR-detected (and not CO/NatDet).
    pub fn ddet_frac(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.ddet) / f64::from(self.n)
    }
    /// Total coverage (Eq. 3.2): CO ∨ NatDet ∨ DpmrDet.
    pub fn coverage(&self) -> f64 {
        self.co_frac() + self.ndet_frac() + self.ddet_frac()
    }
    /// Mean time to detection in milliseconds (Eq. 3.4), if any.
    pub fn mttd_msec(&self) -> Option<f64> {
        if self.t2d_n == 0 {
            None
        } else {
            Some(self.t2d_cycles as f64 / f64::from(self.t2d_n) / CYCLES_PER_MSEC)
        }
    }
}

/// One study: a list of named variants measured over all apps and both
/// fault types, with conditional aggregates and overheads.
#[derive(Debug, Default)]
pub struct StudyResults {
    /// Variant display names, in presentation order.
    pub variants: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Coverage per (variant, app, fault-name).
    pub coverage: BTreeMap<(String, String, String), CovAgg>,
    /// Conditional coverage per (variant, fault-name), combined across
    /// apps (Eq. 3.3: conditioned on `StdNotAllDet`).
    pub conditional: BTreeMap<(String, String), CovAgg>,
    /// Overhead per (variant, app) (Eq. 3.1); absent for stdapp.
    pub overhead: BTreeMap<(String, String), f64>,
    /// Experiments executed.
    pub experiments: u64,
}

/// Campaign sizing.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload sizing.
    pub params: WorkloadParams,
    /// Runs per (variant, site, fault) setting (RN values).
    pub runs: u32,
    /// Optional cap on injection sites per (app, fault) to bound time.
    pub max_sites: Option<usize>,
    /// Worker threads for the study scheduler (`1` = run inline). Results
    /// are bit-identical at any worker count (see [`crate::sched`]).
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            params: WorkloadParams::quick(),
            runs: 2,
            max_sites: None,
            workers: 1,
        }
    }
}

impl CampaignConfig {
    /// Small campaign for tests.
    pub fn tiny() -> CampaignConfig {
        CampaignConfig {
            params: WorkloadParams::quick(),
            runs: 1,
            max_sites: Some(3),
            workers: 1,
        }
    }

    /// Replaces the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> CampaignConfig {
        self.workers = workers.max(1);
        self
    }
}

/// One parallel unit of a coverage study: every run of every variant at a
/// single injection site. Sites are independent; the stdapp→variant
/// dependency (`StdNotAllDet`) is *within* a unit, so fan-out never
/// reorders it.
struct SiteUnit {
    app_idx: usize,
    fault: FaultType,
    site: dpmr_fi::InjectionSite,
}

/// Measurements produced by one [`SiteUnit`], in the serial campaign's
/// recording order.
struct SiteOutcome {
    std_measurements: Vec<Measurement>,
    std_not_all_det: bool,
    variant_measurements: Vec<Vec<Measurement>>,
}

/// Runs a fault-injection study over `apps` × `variants` × both fault
/// types, fanning trials across `cc.workers` threads. The stdapp variant
/// is always included first (it defines `StdNotAllDet` and the
/// natural-detection baseline). Results are merged in deterministic unit
/// order: the artifacts are bit-identical at any worker count.
pub fn run_study(
    apps: &[AppSpec],
    variants: &[(String, DpmrConfig)],
    cc: &CampaignConfig,
) -> StudyResults {
    let mut res = StudyResults {
        variants: std::iter::once("stdapp".to_string())
            .chain(variants.iter().map(|(n, _)| n.clone()))
            .collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..StudyResults::default()
    };
    // Phase 1: prepare every app (module build + golden run) in parallel.
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));

    // Phase 2: overheads (non-faulty runs), one unit per (app, variant).
    let oh_units: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|ai| (0..variants.len()).map(move |vi| (ai, vi)))
        .collect();
    let overheads = crate::sched::run_indexed(&oh_units, cc.workers, |&(ai, vi)| {
        prepared[ai].overhead(&variants[vi].1)
    });
    for (&(ai, vi), o) in oh_units.iter().zip(overheads) {
        res.overhead
            .insert((variants[vi].0.clone(), apps[ai].name.to_string()), o);
        res.experiments += 1;
    }

    // Phase 3: fault-injection trials, one unit per injection site.
    let mut units = Vec::new();
    for (app_idx, p) in prepared.iter().enumerate() {
        for fault in FaultType::paper_set() {
            let mut sites = p.manifest_sites(fault);
            if let Some(cap) = cc.max_sites {
                sites.truncate(cap);
            }
            units.extend(sites.into_iter().map(|site| SiteUnit {
                app_idx,
                fault,
                site,
            }));
        }
    }
    let outcomes = crate::sched::run_indexed(&units, cc.workers, |u| {
        run_site_unit(u, &prepared[u.app_idx], variants, cc)
    });
    for (u, oc) in units.iter().zip(outcomes) {
        let app = apps[u.app_idx].name;
        let fault = u.fault.name();
        res.experiments += (oc.std_measurements.len()
            + oc.variant_measurements.iter().map(Vec::len).sum::<usize>())
            as u64;
        record(
            &mut res,
            "stdapp",
            app,
            &fault,
            &oc.std_measurements,
            oc.std_not_all_det,
        );
        for ((vname, _), ms) in variants.iter().zip(&oc.variant_measurements) {
            record(&mut res, vname, app, &fault, ms, oc.std_not_all_det);
        }
    }
    res
}

fn run_site_unit(
    u: &SiteUnit,
    p: &PreparedApp,
    variants: &[(String, DpmrConfig)],
    cc: &CampaignConfig,
) -> SiteOutcome {
    use std::rc::Rc;
    // Injection depends only on (site, fault), each variant's transform +
    // bytecode lowering only on the injected module, and the external
    // registries on nothing at all: build each once, not once per run.
    let faulty = dpmr_fi::inject(&p.module, &u.site, u.fault);
    let faulty_code = Rc::new(dpmr_vm::lower::lower(&faulty));
    let base_reg = Rc::new(dpmr_vm::external::Registry::with_base());
    let wrap_reg = Rc::new(registry_with_wrappers());
    // stdapp first: establishes StdNotAllDet for this site.
    let mut std_not_all_det = false;
    let mut std_measurements = Vec::new();
    for run in 0..cc.runs {
        let m = p.run_built(&faulty, Rc::clone(&faulty_code), Rc::clone(&base_reg), run);
        if m.sf && !m.co && !m.ndet {
            std_not_all_det = true;
        }
        std_measurements.push(m);
    }
    let variant_measurements = variants
        .iter()
        .map(|(_, cfg)| {
            let transformed = transform(&faulty, cfg).expect("transform");
            let code = Rc::new(dpmr_vm::lower::lower(&transformed));
            (0..cc.runs)
                .map(|run| p.run_built(&transformed, Rc::clone(&code), Rc::clone(&wrap_reg), run))
                .collect()
        })
        .collect();
    SiteOutcome {
        std_measurements,
        std_not_all_det,
        variant_measurements,
    }
}

/// The diversity study (Figs. 3.6–3.10 / 4.5, 4.7–4.10): all seven
/// diversity transformations under the all-loads policy, over the four
/// SPEC analogues.
pub fn run_diversity_study(scheme: Scheme, cc: &CampaignConfig) -> StudyResults {
    run_study(&dpmr_workloads::all_apps(), &diversity_variants(scheme), cc)
}

/// The comparison-policy study (Figs. 3.11–3.15 / 4.6, 4.11–4.14): all
/// seven policies under rearrange-heap, over the four SPEC analogues.
pub fn run_policy_study(scheme: Scheme, cc: &CampaignConfig) -> StudyResults {
    run_study(&dpmr_workloads::all_apps(), &policy_variants(scheme), cc)
}

fn record(
    res: &mut StudyResults,
    variant: &str,
    app: &str,
    fault: &str,
    ms: &[Measurement],
    std_not_all_det: bool,
) {
    let key = (variant.to_string(), app.to_string(), fault.to_string());
    let agg = res.coverage.entry(key).or_default();
    for m in ms {
        agg.add(m);
    }
    if std_not_all_det {
        let ckey = (variant.to_string(), fault.to_string());
        let cagg = res.conditional.entry(ckey).or_default();
        for m in ms {
            cagg.add(m);
        }
    }
}

/// Recovery accumulator for one (policy, app, fault) population
/// (Table R.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryAgg {
    /// Successful-injection experiments observed.
    pub n: u32,
    /// Runs that completed with correct output after >= 1 detection.
    pub recovered: u32,
    /// Runs that survived detection but produced wrong output
    /// (mis-repairs).
    pub survived_wrong: u32,
    /// Controlled stops (fail-stop policy or exhausted budgets).
    pub fail_stops: u32,
    /// Total in-place repairs applied.
    pub repairs: u64,
    /// Total checkpoint replays performed.
    pub retries: u64,
    /// Sum of time-to-recovery over recovered runs (virtual cycles).
    pub t2r_cycles: u64,
    /// Recovered runs contributing to `t2r_cycles`.
    pub t2r_n: u32,
}

impl RecoveryAgg {
    /// Adds one measurement (unsuccessful injections are excluded, as in
    /// the coverage metrics).
    pub fn add(&mut self, m: &RecoveryMeasurement) {
        if !m.sf {
            return;
        }
        self.n += 1;
        if m.recovered_correct {
            self.recovered += 1;
        }
        if m.survived_wrong {
            self.survived_wrong += 1;
        }
        if m.fail_stopped {
            self.fail_stops += 1;
        }
        self.repairs += m.repairs;
        self.retries += m.retries;
        if m.recovered_correct {
            if let Some(t) = m.t2r {
                self.t2r_cycles += t;
                self.t2r_n += 1;
            }
        }
    }

    /// Recovery success rate: fraction of successfully injected runs that
    /// completed with correct output after detecting.
    pub fn success_rate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.recovered) / f64::from(self.n)
    }

    /// Mean repairs per successfully injected run.
    pub fn repairs_per_run(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.repairs as f64 / f64::from(self.n)
    }

    /// Mean checkpoint replays per successfully injected run.
    pub fn retries_per_run(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.retries as f64 / f64::from(self.n)
    }

    /// Mean time to recovery in virtual cycles, over recovered runs.
    pub fn mean_t2r_cycles(&self) -> Option<f64> {
        if self.t2r_n == 0 {
            None
        } else {
            Some(self.t2r_cycles as f64 / f64::from(self.t2r_n))
        }
    }
}

/// A recovery study: policies x apps x both fault types under one DPMR
/// base configuration.
#[derive(Debug, Default)]
pub struct RecoveryStudyResults {
    /// Policy display names, in presentation order.
    pub policies: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Aggregates per (policy, app, fault-name).
    pub agg: BTreeMap<(String, String, String), RecoveryAgg>,
    /// Experiments executed.
    pub experiments: u64,
}

/// Runs the detection-to-recovery study (Table R.1): every recovery
/// configuration in [`RecoveryConfig::paper_set`] (the three policies
/// plus retry under the mid-run checkpoint cadence) over `apps` x both
/// fault types, under the given DPMR base configuration.
pub fn run_recovery_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> RecoveryStudyResults {
    let configs = RecoveryConfig::paper_set();
    let mut res = RecoveryStudyResults {
        policies: configs.iter().map(RecoveryConfig::name).collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..RecoveryStudyResults::default()
    };
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));
    let mut units = Vec::new();
    for (app_idx, p) in prepared.iter().enumerate() {
        for fault in FaultType::paper_set() {
            let mut sites = p.manifest_sites(fault);
            if let Some(cap) = cc.max_sites {
                sites.truncate(cap);
            }
            units.extend(sites.into_iter().map(|site| SiteUnit {
                app_idx,
                fault,
                site,
            }));
        }
    }
    let outcomes = crate::sched::run_indexed(&units, cc.workers, |u| {
        run_recovery_site_unit(u, &prepared[u.app_idx], base, &configs, cc)
    });
    for (u, ms) in units.iter().zip(outcomes) {
        for (rec_name, m) in ms {
            res.experiments += 1;
            res.agg
                .entry((rec_name, apps[u.app_idx].name.to_string(), u.fault.name()))
                .or_default()
                .add(&m);
        }
    }
    res
}

fn run_recovery_site_unit(
    u: &SiteUnit,
    p: &PreparedApp,
    base: &DpmrConfig,
    configs: &[RecoveryConfig],
    cc: &CampaignConfig,
) -> Vec<(String, RecoveryMeasurement)> {
    // Injection, transformation, bytecode lowering, and the wrapper
    // registry depend only on (site, fault, base): build them once, not
    // once per (config, run).
    let transformed = p.prepare_recovery(&u.site, u.fault, base);
    let code = std::rc::Rc::new(dpmr_vm::lower::lower(&transformed));
    let registry = std::rc::Rc::new(registry_with_wrappers());
    let mut out = Vec::new();
    for rec in configs {
        for run in 0..cc.runs {
            let m = p.run_recovery_lowered(
                &transformed,
                std::rc::Rc::clone(&code),
                std::rc::Rc::clone(&registry),
                *rec,
                run,
            );
            out.push((rec.name(), m));
        }
    }
    out
}

/// Default cap on armed sites per (app, fault class) when the campaign
/// configuration sets no explicit `max_sites`: the op-stream enumeration
/// yields *every* load/store pc — hundreds per app — so, unlike the
/// allocation-site studies, an uncapped sweep is never the intent.
/// Sampling is even-strided across the stream (see
/// [`dpmr_fi::sample_sites`]).
pub const FAULT_SITES_PER_CLASS: usize = 6;

/// Repair budget of the campaign's recovery leg.
const CAMPAIGN_REPAIR_BUDGET: u64 = 4096;

/// Accumulator for one (fault class, app) population of the runtime
/// fault campaign (Table F.1). All rate denominators are *fired* trials
/// (the armed fault actually mutated an access), mirroring how the
/// coverage metrics exclude unsuccessful injections.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultClassAgg {
    /// Trials executed (fired or not).
    pub trials: u32,
    /// Trials whose armed fault fired at least once.
    pub fired: u32,
    /// Fired trials ending in a `dpmr.check` detection.
    pub ddet: u32,
    /// Fired trials ending in natural detection (crash / self-report).
    pub ndet: u32,
    /// Fired trials that completed normally with **wrong** output —
    /// silent corruptions that escaped every detector.
    pub escaped: u32,
    /// Fired trials that completed normally with correct output.
    pub benign: u32,
    /// Fired trials that exhausted the instruction budget.
    pub timeouts: u32,
    /// Sum of detection latencies (first fire → detection, in virtual
    /// cycles) over detected fired trials.
    pub latency_cycles: u64,
    /// Detected fired trials contributing to `latency_cycles`.
    pub latency_n: u32,
    /// Fired trials whose recovery leg completed with correct output.
    pub recovered: u32,
    /// Fired trials whose recovery leg *survived with wrong output* — a
    /// mis-repair, e.g. single-replica repair writing a corrupted replica
    /// value over correct application state.
    pub wrong_repairs: u32,
}

impl FaultClassAgg {
    /// Adds one trial: the detection-leg measurement plus the recovery
    /// leg's verdict (survived with correct output / survived with wrong
    /// output).
    pub fn add(&mut self, m: &Measurement, recovered: bool, wrong_repair: bool) {
        self.trials += 1;
        if !m.sf {
            return;
        }
        self.fired += 1;
        if m.co {
            self.benign += 1;
        } else if m.ndet {
            self.ndet += 1;
        } else if m.ddet {
            self.ddet += 1;
        } else if m.timeout {
            self.timeouts += 1;
        } else {
            self.escaped += 1;
        }
        if !m.co && (m.ndet || m.ddet) {
            if let Some(t) = m.t2d {
                self.latency_cycles += t;
                self.latency_n += 1;
            }
        }
        if recovered {
            self.recovered += 1;
        }
        if wrong_repair {
            self.wrong_repairs += 1;
        }
    }

    fn frac(&self, num: u32) -> f64 {
        if self.fired == 0 {
            0.0
        } else {
            f64::from(num) / f64::from(self.fired)
        }
    }

    /// Fraction of fired trials detected at all (DPMR or natural).
    pub fn detection_rate(&self) -> f64 {
        self.frac(self.ddet + self.ndet)
    }
    /// Fraction of fired trials detected by a `dpmr.check`.
    pub fn dpmr_rate(&self) -> f64 {
        self.frac(self.ddet)
    }
    /// Fraction of fired trials detected naturally.
    pub fn natural_rate(&self) -> f64 {
        self.frac(self.ndet)
    }
    /// Fraction of fired trials that escaped silently (wrong output,
    /// no detection).
    pub fn escape_rate(&self) -> f64 {
        self.frac(self.escaped)
    }
    /// Fraction of fired trials whose corruption was benign.
    pub fn benign_rate(&self) -> f64 {
        self.frac(self.benign)
    }
    /// Fraction of fired trials that exhausted the instruction budget
    /// (with the other four outcome rates, accounts for every fired
    /// trial).
    pub fn timeout_rate(&self) -> f64 {
        self.frac(self.timeouts)
    }
    /// Fraction of fired trials whose recovery leg survived correctly.
    pub fn recovery_rate(&self) -> f64 {
        self.frac(self.recovered)
    }
    /// Fraction of fired trials whose recovery leg survived with *wrong*
    /// output (silent mis-repair).
    pub fn wrong_repair_rate(&self) -> f64 {
        self.frac(self.wrong_repairs)
    }
    /// Fraction of fired trials with an *unrecoverable or silently wrong*
    /// end state: silent escapes of the detection leg plus mis-repairs of
    /// the recovery leg. The replication-degree study's headline number —
    /// votes with K >= 2 shrink it by turning mis-repairs into replica
    /// repairs.
    pub fn unrecoverable_rate(&self) -> f64 {
        self.frac(self.escaped + self.wrong_repairs)
    }
    /// Mean detection latency in virtual cycles over detected trials.
    pub fn mean_latency_cycles(&self) -> Option<f64> {
        if self.latency_n == 0 {
            None
        } else {
            Some(self.latency_cycles as f64 / f64::from(self.latency_n))
        }
    }
}

/// Display name of the replica-region pseudo-class: heap bit-flips armed
/// specifically at *replica* accesses ([`dpmr_fi::enumerate_replica_sites`]).
pub const REPLICA_CLASS: &str = "bit-flip replica";

/// The runtime fault campaign: fault classes x apps under one DPMR base
/// configuration (Table F.1).
#[derive(Debug, Default)]
pub struct FaultCampaignResults {
    /// Fault-class display names, in taxonomy order (the replica-region
    /// pseudo-class [`REPLICA_CLASS`] last).
    pub classes: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Aggregates per (class-name, app).
    pub agg: BTreeMap<(String, String), FaultClassAgg>,
    /// The replication-degree differential on replica-region bit-flips:
    /// per app, the K = 1 aggregate (repair-from-replica recovery leg)
    /// against the K = 2 aggregate (vote-and-repair recovery leg). The
    /// single-replica side mis-repairs — it must trust the corrupted
    /// copy — where the vote identifies and rewrites it.
    pub replica_differential: BTreeMap<String, (FaultClassAgg, FaultClassAgg)>,
    /// Trial executions performed (detection + recovery legs).
    pub experiments: u64,
}

/// One parallel unit of the fault campaign: every trial of one fault
/// class armed at one op site of one app's transformed build.
struct FaultUnit {
    app_idx: usize,
    class: FaultModel,
    site: OpSite,
}

/// One trial's reduced outcome.
struct FaultTrial {
    m: Measurement,
    recovered: bool,
    wrong_repair: bool,
    ran_recovery: bool,
}

/// Runs the runtime fault-injection campaign: every class of
/// [`FaultModel::paper_set`] armed across an even sample of its eligible
/// load/store sites in each app's DPMR-transformed build, with
/// `cc.runs` trials per site (trial `r` arms at `r/runs` of the golden
/// running time under a trial-derived seed). Each trial runs a detection
/// leg and — when DPMR detected — a repair-from-replica recovery leg.
/// Units fan across the study scheduler and merge in unit order, so the
/// artifact is bit-identical at any worker count.
pub fn run_fault_campaign(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> FaultCampaignResults {
    let classes = FaultModel::paper_set();
    let mut res = FaultCampaignResults {
        classes: classes
            .iter()
            .map(|c| c.name())
            .chain(std::iter::once(REPLICA_CLASS.to_string()))
            .collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..FaultCampaignResults::default()
    };
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));
    // Transformation and lowering depend only on (app, base): build each
    // once, in parallel (stored plain so the results stay `Send`; units
    // clone the bytecode into their own `Rc`). The K = 2 builds back the
    // replica-region differential.
    let built: Vec<(Module, LoweredCode)> = crate::sched::run_indexed(&prepared, cc.workers, |p| {
        let t = transform(&p.module, base).expect("transform");
        let code = dpmr_vm::lower::lower(&t);
        (t, code)
    });
    let base_k2 = base.clone().with_replicas(2);
    let built_k2: Vec<(Module, LoweredCode)> =
        crate::sched::run_indexed(&prepared, cc.workers, |p| {
            let t = transform(&p.module, &base_k2).expect("transform");
            let code = dpmr_vm::lower::lower(&t);
            (t, code)
        });
    let cap = cc.max_sites.unwrap_or(FAULT_SITES_PER_CLASS);
    let mut units = Vec::new();
    for (app_idx, (_, code)) in built.iter().enumerate() {
        for class in &classes {
            let sites = dpmr_fi::enumerate_op_sites(code, *class);
            units.extend(
                dpmr_fi::sample_sites(&sites, cap)
                    .into_iter()
                    .map(|site| FaultUnit {
                        app_idx,
                        class: *class,
                        site,
                    }),
            );
        }
    }
    let outcomes = crate::sched::run_indexed(&units, cc.workers, |u| {
        run_fault_unit(u, &prepared[u.app_idx], &built[u.app_idx], base, 1, cc)
    });
    for (u, trials) in units.iter().zip(outcomes) {
        let key = (u.class.name(), apps[u.app_idx].name.to_string());
        let agg = res.agg.entry(key).or_default();
        for t in trials {
            res.experiments += 1 + u64::from(t.ran_recovery);
            agg.add(&t.m, t.recovered, t.wrong_repair);
        }
    }
    // Replica-region bit-flips: arm each build's own replica-access
    // sites (the replica surface differs between K = 1 and K = 2 builds)
    // and compare the recovery verdicts — K = 1 repair-from-replica vs
    // K = 2 vote-and-repair.
    let heap_flip = FaultModel::BitFlip {
        region: dpmr_fi::MemRegion::Heap,
    };
    let mut rep_units = Vec::new();
    for (app_idx, ((_, code1), (_, code2))) in built.iter().zip(&built_k2).enumerate() {
        for (degree, code) in [(1usize, code1), (2usize, code2)] {
            let sites = dpmr_fi::enumerate_replica_sites(code);
            rep_units.extend(dpmr_fi::sample_sites(&sites, cap).into_iter().map(|site| {
                (
                    FaultUnit {
                        app_idx,
                        class: heap_flip,
                        site,
                    },
                    degree,
                )
            }));
        }
    }
    let rep_outcomes = crate::sched::run_indexed(&rep_units, cc.workers, |(u, degree)| {
        let b = if *degree == 1 {
            &built[u.app_idx]
        } else {
            &built_k2[u.app_idx]
        };
        run_fault_unit(u, &prepared[u.app_idx], b, base, *degree, cc)
    });
    for ((u, degree), trials) in rep_units.iter().zip(rep_outcomes) {
        let app = apps[u.app_idx].name.to_string();
        let pair = res.replica_differential.entry(app.clone()).or_default();
        let diff_agg = if *degree == 1 {
            &mut pair.0
        } else {
            &mut pair.1
        };
        for t in trials {
            res.experiments += 1 + u64::from(t.ran_recovery);
            diff_agg.add(&t.m, t.recovered, t.wrong_repair);
            if *degree == 1 {
                // The K = 1 replica-region rows also feed the main table
                // as the REPLICA_CLASS pseudo-class.
                res.agg
                    .entry((REPLICA_CLASS.to_string(), app.clone()))
                    .or_default()
                    .add(&t.m, t.recovered, t.wrong_repair);
            }
        }
    }
    res
}

fn run_fault_unit(
    u: &FaultUnit,
    p: &PreparedApp,
    built: &(Module, LoweredCode),
    base: &DpmrConfig,
    degree: usize,
    cc: &CampaignConfig,
) -> Vec<FaultTrial> {
    use std::rc::Rc;
    let (transformed, code) = built;
    let code = Rc::new(code.clone());
    let registry = Rc::new(registry_with_wrappers());
    let mut rec = base.recovery;
    // The best repair policy available at the build's replication
    // degree: single-replica copy-back at K = 1, majority vote above.
    rec.policy = if degree >= 2 {
        RecoveryPolicy::VoteAndRepair {
            max_repairs: CAMPAIGN_REPAIR_BUDGET,
        }
    } else {
        RecoveryPolicy::RepairFromReplica {
            max_repairs: CAMPAIGN_REPAIR_BUDGET,
        }
    };
    (0..cc.runs)
        .map(|run| {
            let armed = ArmedFault {
                site: u.site.pc,
                fault: u.class,
                seed: dpmr_fi::trial_seed(u.site.pc, run),
                // Trial r arms r/runs of the way into the golden running
                // time (trial 0 is armed from the first cycle).
                arm_cycle: p.golden.cycles * u64::from(run) / u64::from(cc.runs.max(1)),
            };
            let m = p.run_armed(
                transformed,
                Rc::clone(&code),
                Rc::clone(&registry),
                armed,
                run,
            );
            // The recovery leg only makes sense for DPMR detections —
            // crashes are not resumable and escapes never trap.
            let ran_recovery = m.sf && m.ddet;
            let (recovered, wrong_repair) = if ran_recovery {
                let r = p.run_armed_recovery(
                    transformed,
                    Rc::clone(&code),
                    Rc::clone(&registry),
                    armed,
                    rec,
                    run,
                );
                (r.recovered_correct, r.survived_wrong)
            } else {
                (false, false)
            };
            FaultTrial {
                m,
                recovered,
                wrong_repair,
                ran_recovery,
            }
        })
        .collect()
}

/// The replication degrees the Table V.1 sweep covers.
pub const REPLICATION_DEGREES: &[usize] = &[1, 2, 3];

/// The replication-degree study: per (K x diversity) variant and app,
/// overhead plus fault-class aggregates (Table V.1).
#[derive(Debug, Default)]
pub struct ReplicationStudyResults {
    /// Variant display names (`K=1/no-diversity` ... `K=3/rearrange-heap`),
    /// in sweep order.
    pub variants: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Fault-class display names covered by the sweep.
    pub classes: Vec<String>,
    /// Overhead (transformed cycles / golden cycles) per (variant, app).
    pub overhead: BTreeMap<(String, String), f64>,
    /// Aggregates per (variant, app, class-name).
    pub agg: BTreeMap<(String, String, String), FaultClassAgg>,
    /// Trial executions performed.
    pub experiments: u64,
}

/// The Table V.1 variant grid: K in [`REPLICATION_DEGREES`] crossed with
/// the diversity poles (none vs rearrange-heap) over `base`.
pub fn replication_variants(base: &DpmrConfig) -> Vec<(String, DpmrConfig)> {
    let mut v = Vec::new();
    for &k in REPLICATION_DEGREES {
        for d in [Diversity::None, Diversity::RearrangeHeap] {
            v.push((
                format!("K={k}/{}", d.name()),
                base.clone().with_replicas(k).with_diversity(d),
            ));
        }
    }
    v
}

/// One parallel unit of the replication-degree study.
struct RepDegreeUnit {
    app_idx: usize,
    var_idx: usize,
    /// Display name of the armed class (the replica pseudo-class arms
    /// heap bit-flips at replica sites).
    class_name: String,
    fault: FaultModel,
    site: OpSite,
}

/// Runs the replication-degree study (Table V.1): the variant grid of
/// [`replication_variants`] over `apps`, measuring overhead scaling and —
/// for the classes the vote story is about (heap bit-flips at arbitrary
/// and at *replica* sites, plus wild writes) — detection coverage,
/// silent-escape rate, and repair success under the best repair policy
/// the degree admits (repair-from-replica at K = 1, vote-and-repair at
/// K >= 2). Units fan across the study scheduler and merge in unit
/// order, so the artifact is bit-identical at any worker count.
pub fn run_replication_degree_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> ReplicationStudyResults {
    let variants = replication_variants(base);
    let heap_flip = FaultModel::BitFlip {
        region: dpmr_fi::MemRegion::Heap,
    };
    let classes: Vec<(String, Option<FaultModel>)> = vec![
        (heap_flip.name(), Some(heap_flip)),
        (REPLICA_CLASS.to_string(), None), // replica sites, heap flips
        (FaultModel::WildWrite.name(), Some(FaultModel::WildWrite)),
    ];
    let mut res = ReplicationStudyResults {
        variants: variants.iter().map(|(n, _)| n.clone()).collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        classes: classes.iter().map(|(n, _)| n.clone()).collect(),
        ..ReplicationStudyResults::default()
    };
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));
    // One transformed build per (app, variant), in parallel.
    let build_units: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|ai| (0..variants.len()).map(move |vi| (ai, vi)))
        .collect();
    let built: Vec<(Module, LoweredCode)> =
        crate::sched::run_indexed(&build_units, cc.workers, |&(ai, vi)| {
            let t = transform(&prepared[ai].module, &variants[vi].1).expect("transform");
            let code = dpmr_vm::lower::lower(&t);
            (t, code)
        });
    let built_of = |ai: usize, vi: usize| &built[ai * variants.len() + vi];
    // Overheads (clean runs) per (app, variant).
    let overheads = crate::sched::run_indexed(&build_units, cc.workers, |&(ai, vi)| {
        let (t, code) = built_of(ai, vi);
        let m = prepared[ai].run_built(
            t,
            std::rc::Rc::new(code.clone()),
            std::rc::Rc::new(registry_with_wrappers()),
            0,
        );
        m.cycles as f64 / prepared[ai].golden.cycles as f64
    });
    for (&(ai, vi), o) in build_units.iter().zip(overheads) {
        res.overhead
            .insert((variants[vi].0.clone(), apps[ai].name.to_string()), o);
        res.experiments += 1;
    }
    // Fault trials: per (app, variant, class), an even sample of the
    // class's sites in *that build* (replica surfaces differ per K).
    let cap = cc.max_sites.unwrap_or(FAULT_SITES_PER_CLASS);
    let mut units = Vec::new();
    for ai in 0..prepared.len() {
        for vi in 0..variants.len() {
            let (_, code) = built_of(ai, vi);
            for (cname, model) in &classes {
                let sites = match model {
                    Some(m) => dpmr_fi::enumerate_op_sites(code, *m),
                    None => dpmr_fi::enumerate_replica_sites(code),
                };
                units.extend(dpmr_fi::sample_sites(&sites, cap).into_iter().map(|site| {
                    RepDegreeUnit {
                        app_idx: ai,
                        var_idx: vi,
                        class_name: cname.clone(),
                        fault: model.unwrap_or(heap_flip),
                        site,
                    }
                }));
            }
        }
    }
    let outcomes = crate::sched::run_indexed(&units, cc.workers, |u| {
        let fu = FaultUnit {
            app_idx: u.app_idx,
            class: u.fault,
            site: u.site,
        };
        let degree = variants[u.var_idx].1.replicas;
        run_fault_unit(
            &fu,
            &prepared[u.app_idx],
            built_of(u.app_idx, u.var_idx),
            base,
            degree,
            cc,
        )
    });
    for (u, trials) in units.iter().zip(outcomes) {
        let key = (
            variants[u.var_idx].0.clone(),
            apps[u.app_idx].name.to_string(),
            u.class_name.clone(),
        );
        let agg = res.agg.entry(key).or_default();
        for t in trials {
            res.experiments += 1 + u64::from(t.ran_recovery);
            agg.add(&t.m, t.recovered, t.wrong_repair);
        }
    }
    res
}

/// The diversity-study variant list (Sections 3.7 / 4.5): all seven
/// diversity transformations under the all-loads policy.
pub fn diversity_variants(scheme: Scheme) -> Vec<(String, DpmrConfig)> {
    Diversity::paper_set()
        .into_iter()
        .map(|d| {
            let base = match scheme {
                Scheme::Sds => DpmrConfig::sds(),
                Scheme::Mds => DpmrConfig::mds(),
            };
            (
                d.name(),
                base.with_diversity(d).with_policy(Policy::AllLoads),
            )
        })
        .collect()
}

/// One app's aggregated check-site profile (the `profS.1` rows).
#[derive(Debug, Clone, Default)]
pub struct AppSiteProfile {
    /// pc of every check site in the transformed build's lowered code,
    /// indexed by site id.
    pub site_pcs: Vec<u32>,
    /// Display name of the function owning each site.
    pub site_funcs: Vec<String>,
    /// Clean-run per-site counters (executions and check cycles).
    pub clean: Vec<dpmr_vm::telemetry::SiteStats>,
    /// Per-site counters accumulated over every armed-fault trial
    /// (detections, repair outcomes — the detection-usefulness signal).
    pub armed: Vec<dpmr_vm::telemetry::SiteStats>,
    /// Armed trials aggregated into `armed`.
    pub trials: u64,
    /// Clean-run virtual cycles (per-site cost shares are relative to
    /// this).
    pub clean_cycles: u64,
    /// Per-function executed-op totals from the clean run's pc profile,
    /// in `FuncId` order, paired with function names.
    pub funcs: Vec<(String, u64)>,
    /// Simulated region footprint after the clean run.
    pub mem: dpmr_vm::mem::MemUsage,
}

/// The site-profile study results (`profS.1`): per app, hot/cold check
/// sites and their detection usefulness under the runtime fault sweep.
#[derive(Debug, Default)]
pub struct SiteProfileResults {
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Profiles per app.
    pub profiles: BTreeMap<String, AppSiteProfile>,
    /// Instrumented executions performed.
    pub experiments: u64,
}

/// One parallel unit of the site-profile study: the clean instrumented
/// run (`armed: None`) or every trial of one fault class at one site.
struct ProfileUnit {
    app_idx: usize,
    armed: Option<(FaultModel, OpSite)>,
}

/// Runs the site-profile study: each app's DPMR-transformed build is
/// executed once cleanly with full telemetry (per-site execution counts,
/// per-function pc profile, region footprint), then re-executed under
/// the runtime fault sweep of [`FaultModel::paper_set`] — `cc.runs`
/// armed trials per sampled site — accumulating per-site *detection*
/// counters. The split answers the two questions check elimination and
/// `Partial(n)` selection need: which sites are hot (clean columns) and
/// which sites ever detect (armed columns). Units fan across the study
/// scheduler and merge in unit order: bit-identical at any worker count.
pub fn run_site_profile_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> SiteProfileResults {
    use std::rc::Rc;
    let mut res = SiteProfileResults {
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..SiteProfileResults::default()
    };
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));
    let built: Vec<(Module, LoweredCode)> = crate::sched::run_indexed(&prepared, cc.workers, |p| {
        let t = transform(&p.module, base).expect("transform");
        let code = dpmr_vm::lower::lower(&t);
        (t, code)
    });
    let cap = cc.max_sites.unwrap_or(FAULT_SITES_PER_CLASS);
    let mut units = Vec::new();
    for (app_idx, (_, code)) in built.iter().enumerate() {
        units.push(ProfileUnit {
            app_idx,
            armed: None,
        });
        for class in FaultModel::paper_set() {
            let sites = dpmr_fi::enumerate_op_sites(code, class);
            units.extend(
                dpmr_fi::sample_sites(&sites, cap)
                    .into_iter()
                    .map(|site| ProfileUnit {
                        app_idx,
                        armed: Some((class, site)),
                    }),
            );
        }
    }
    let outcomes = crate::sched::run_indexed(&units, cc.workers, |u| {
        let p = &prepared[u.app_idx];
        let (transformed, code) = &built[u.app_idx];
        let code = Rc::new(code.clone());
        let registry = Rc::new(registry_with_wrappers());
        match u.armed {
            None => vec![p.run_instrumented(transformed, code, registry, None, 0)],
            Some((class, site)) => (0..cc.runs)
                .map(|run| {
                    let armed = ArmedFault {
                        site: site.pc,
                        fault: class,
                        seed: dpmr_fi::trial_seed(site.pc, run),
                        arm_cycle: p.golden.cycles * u64::from(run) / u64::from(cc.runs.max(1)),
                    };
                    p.run_instrumented(
                        transformed,
                        Rc::clone(&code),
                        Rc::clone(&registry),
                        Some(armed),
                        run,
                    )
                })
                .collect(),
        }
    });
    for (u, runs) in units.iter().zip(outcomes) {
        let app = apps[u.app_idx].name.to_string();
        let (transformed, code) = &built[u.app_idx];
        let prof = res.profiles.entry(app).or_insert_with(|| {
            let site_pcs = code.check_site_pcs();
            let site_funcs = site_pcs
                .iter()
                .map(|&pc| transformed.func(code.func_of_pc(pc)).name.clone())
                .collect();
            AppSiteProfile {
                site_pcs,
                site_funcs,
                armed: vec![Default::default(); code.check_sites as usize],
                ..AppSiteProfile::default()
            }
        });
        for r in runs {
            res.experiments += 1;
            match u.armed {
                None => {
                    prof.clean = r.telemetry.site_stats.clone();
                    prof.clean_cycles = r.out.cycles;
                    prof.mem = r.mem;
                    prof.funcs = r
                        .telemetry
                        .func_totals(code)
                        .unwrap_or_else(|e| {
                            eprintln!("[harness] func attribution skipped: {e}");
                            Vec::new()
                        })
                        .into_iter()
                        .enumerate()
                        .map(|(f, n)| {
                            (
                                transformed
                                    .func(dpmr_ir::module::FuncId(f as u32))
                                    .name
                                    .clone(),
                                n,
                            )
                        })
                        .collect();
                }
                Some(_) => {
                    prof.trials += 1;
                    for (agg, s) in prof.armed.iter_mut().zip(&r.telemetry.site_stats) {
                        agg.executions += s.executions;
                        agg.detections += s.detections;
                        agg.repairs += s.repairs;
                        agg.replica_repairs += s.replica_repairs;
                        agg.terminations += s.terminations;
                        agg.cycles += s.cycles;
                    }
                }
            }
        }
    }
    res
}

/// One keyed trace of the trace study: the JSONL block for a single
/// `(app, seed, config)` run.
#[derive(Debug, Clone)]
pub struct KeyedTrace {
    /// Application name.
    pub app: String,
    /// VM seed the traced run used.
    pub seed: u64,
    /// Configuration tag (`clean`, or the armed fault-class name).
    pub config: String,
    /// The event trace, one JSON object per line, each carrying the
    /// `(app, seed, config)` key.
    pub jsonl: String,
}

/// The trace-study results (`traceE.1`): structured event traces of each
/// app's DPMR build, clean and under one armed fault per class.
#[derive(Debug, Default)]
pub struct TraceStudyResults {
    /// Keyed traces, in deterministic (app, config) unit order.
    pub traces: Vec<KeyedTrace>,
    /// Traced executions performed.
    pub experiments: u64,
}

/// Prefixes every event line of `telemetry`'s trace with the
/// `(app, seed, config)` key, yielding self-describing JSONL.
fn keyed_jsonl(app: &str, seed: u64, config: &str, tele: &dpmr_vm::telemetry::Telemetry) -> String {
    let key = format!("{{\"app\":\"{app}\",\"seed\":{seed},\"config\":\"{config}\",");
    tele.trace_jsonl()
        .lines()
        .map(|line| {
            // Splice the key into each event object (every line is one
            // `{...}` object by construction).
            format!("{}{}\n", key, &line[1..])
        })
        .collect()
}

/// Runs the trace study: per app, a clean traced run of the
/// DPMR-transformed build plus one traced armed run per fault class of
/// [`FaultModel::paper_set`] (first sampled site, run 0 — a
/// representative corruption timeline per class, not a sweep). Units fan
/// across the study scheduler and merge in unit order, so the sink is
/// bit-identical at any worker count.
pub fn run_trace_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> TraceStudyResults {
    use std::rc::Rc;
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));
    let built: Vec<(Module, LoweredCode)> = crate::sched::run_indexed(&prepared, cc.workers, |p| {
        let t = transform(&p.module, base).expect("transform");
        let code = dpmr_vm::lower::lower(&t);
        (t, code)
    });
    let mut units: Vec<(usize, Option<FaultModel>)> = Vec::new();
    for app_idx in 0..prepared.len() {
        units.push((app_idx, None));
        for class in FaultModel::paper_set() {
            units.push((app_idx, Some(class)));
        }
    }
    let outcomes = crate::sched::run_indexed(&units, cc.workers, |&(app_idx, class)| {
        let p = &prepared[app_idx];
        let (transformed, code) = &built[app_idx];
        let code = Rc::new(code.clone());
        let registry = Rc::new(registry_with_wrappers());
        let armed = class.and_then(|c| {
            let sites = dpmr_fi::enumerate_op_sites(&code, c);
            dpmr_fi::sample_sites(&sites, 1)
                .first()
                .map(|s| ArmedFault {
                    site: s.pc,
                    fault: c,
                    seed: dpmr_fi::trial_seed(s.pc, 0),
                    arm_cycle: 0,
                })
        });
        if class.is_some() && armed.is_none() {
            // No eligible site for this class in this app: record an
            // empty trace so the unit list (and artifact) stays stable.
            return None;
        }
        Some(p.run_instrumented(transformed, code, registry, armed, 0))
    });
    let mut res = TraceStudyResults::default();
    for (&(app_idx, class), run) in units.iter().zip(&outcomes) {
        let Some(run) = run else { continue };
        let app = apps[app_idx].name;
        let config = class.map_or_else(|| "clean".to_string(), FaultModel::name);
        res.experiments += 1;
        res.traces.push(KeyedTrace {
            app: app.to_string(),
            seed: run.seed,
            config: config.clone(),
            jsonl: keyed_jsonl(app, run.seed, &config, &run.telemetry),
        });
    }
    res
}

/// One (app, pass-combination) row of the optimizer study (`optP.1`).
#[derive(Debug, Clone, Default)]
pub struct OptComboRow {
    /// Check sites still comparing after the pass.
    pub live_checks: u64,
    /// Sites dropped by profile-guided selection.
    pub dropped: u64,
    /// Dynamic check executions of the clean instrumented run.
    pub check_execs: u64,
    /// Virtual cycles of the clean run.
    pub cycles: u64,
    /// Instructions retired by the clean run (invariant across the
    /// combinations: dropped slots still dispatch).
    pub instrs: u64,
    /// The run completed cleanly with the golden output.
    pub output_ok: bool,
}

/// The optimizer study results (`optP.1`): per app, the check-count,
/// virtual-cycle, and virtual-MIPS deltas of every pass combination,
/// plus the machine-readable dropped-site report of the profile-guided
/// combination. Virtual (not wall-clock) figures keep the artifact
/// bit-identical at any worker count; host-time deltas are measured end
/// to end by `campaign_bench`'s `long_run` workload (`+pgo` builds).
#[derive(Debug, Default)]
pub struct OptStudyResults {
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Pass-combination tags, in presentation order.
    pub combos: Vec<String>,
    /// Rows per (app, combo tag).
    pub rows: BTreeMap<(String, String), OptComboRow>,
    /// Dropped-site JSONL report per app (profile-guided combination).
    pub dropped_reports: BTreeMap<String, String>,
    /// Instrumented executions performed.
    pub experiments: u64,
}

/// The pass combination run at `combo_idx` for `app`: off, or the
/// profile-guided pass against that app's usefulness weights (sites that
/// never detected during the armed sweep drop at threshold 0; an app
/// with no profile keeps every site).
fn opt_combo(
    combo_idx: usize,
    app: &str,
    usefulness: &BTreeMap<String, Vec<f64>>,
) -> dpmr_vm::opt::PassConfig {
    use dpmr_vm::opt::{PassConfig, ProfileGuided};
    match combo_idx {
        0 => PassConfig::none(),
        _ => PassConfig::none().with_profile(ProfileGuided {
            usefulness: usefulness.get(app).cloned().unwrap_or_default(),
            threshold: 0.0,
        }),
    }
}

/// Runs the optimizer study (`optP.1`): each app's DPMR-transformed
/// build runs with the optimizer off and with the profile-guided pass
/// fed by the profS.1 armed-sweep detection counts, each executed once
/// cleanly with full telemetry. Rows report static (live/dropped check
/// counts) and dynamic (check executions, virtual cycles, instructions)
/// effects per combination.
/// Units fan across the study scheduler and merge in unit order:
/// bit-identical at any worker count.
pub fn run_opt_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    usefulness: &BTreeMap<String, Vec<f64>>,
    cc: &CampaignConfig,
) -> OptStudyResults {
    use std::rc::Rc;
    const COMBOS: usize = 2;
    let prepared: Vec<PreparedApp> =
        crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params));
    // Lower once: each combination applies its own configuration.
    let built: Vec<(Module, LoweredCode)> = crate::sched::run_indexed(&prepared, cc.workers, |p| {
        let t = transform(&p.module, base).expect("transform");
        let code = dpmr_vm::lower::lower(&t);
        (t, code)
    });
    let units: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|ai| (0..COMBOS).map(move |ci| (ai, ci)))
        .collect();
    let outcomes: Vec<(OptComboRow, Option<String>)> =
        crate::sched::run_indexed(&units, cc.workers, |&(ai, ci)| {
            let p = &prepared[ai];
            let (transformed, code) = &built[ai];
            let cfg = opt_combo(ci, apps[ai].name, usefulness);
            let mut opt = dpmr_vm::opt::optimize(code, &cfg);
            let report = (!opt.dropped.is_empty()).then(|| opt.dropped_report_jsonl());
            let live_checks = opt.live_checks();
            let optimized = std::mem::take(&mut opt.code);
            let run = p.run_instrumented(
                transformed,
                Rc::new(optimized),
                Rc::new(registry_with_wrappers()),
                None,
                0,
            );
            let row = OptComboRow {
                live_checks,
                dropped: opt.dropped.len() as u64,
                check_execs: run.telemetry.site_stats.iter().map(|s| s.executions).sum(),
                cycles: run.out.cycles,
                instrs: run.out.instrs,
                output_ok: matches!(run.out.status, dpmr_vm::interp::ExitStatus::Normal(0))
                    && run.out.output == p.golden.output,
            };
            (row, report)
        });
    let mut res = OptStudyResults {
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        combos: (0..COMBOS)
            .map(|ci| opt_combo(ci, "", &BTreeMap::new()).tag())
            .collect(),
        ..OptStudyResults::default()
    };
    for (&(ai, ci), (row, report)) in units.iter().zip(outcomes) {
        let app = apps[ai].name.to_string();
        res.experiments += 1;
        if let Some(report) = report {
            res.dropped_reports.insert(app.clone(), report);
        }
        res.rows.insert((app, res.combos[ci].clone()), row);
    }
    res
}

/// The policy-study variant list (Sections 3.8 / 4.5): all seven
/// comparison policies under rearrange-heap (the best diversity).
pub fn policy_variants(scheme: Scheme) -> Vec<(String, DpmrConfig)> {
    Policy::paper_set()
        .into_iter()
        .map(|pol| {
            let base = match scheme {
                Scheme::Sds => DpmrConfig::sds(),
                Scheme::Mds => DpmrConfig::mds(),
            };
            (
                pol.name(),
                base.with_diversity(Diversity::RearrangeHeap)
                    .with_policy(pol),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_workloads::app_by_name;

    #[test]
    fn cov_agg_accumulates_components() {
        let mut a = CovAgg::default();
        a.add(&Measurement {
            sf: true,
            co: true,
            ndet: false,
            ddet: false,
            timeout: false,
            t2d: None,
            cycles: 10,
            instrs: 10,
        });
        a.add(&Measurement {
            sf: true,
            co: false,
            ndet: false,
            ddet: true,
            timeout: false,
            t2d: Some(500),
            cycles: 10,
            instrs: 10,
        });
        a.add(&Measurement {
            sf: false,
            co: false,
            ndet: false,
            ddet: false,
            timeout: false,
            t2d: None,
            cycles: 1,
            instrs: 1,
        });
        assert_eq!(a.n, 2, "unsuccessful injections are excluded");
        assert!((a.coverage() - 1.0).abs() < 1e-9);
        assert!((a.co_frac() - 0.5).abs() < 1e-9);
        assert!((a.ddet_frac() - 0.5).abs() < 1e-9);
        assert!(a.mttd_msec().is_some());
    }

    #[test]
    fn variant_lists_have_paper_sizes() {
        assert_eq!(diversity_variants(Scheme::Sds).len(), 7);
        assert_eq!(policy_variants(Scheme::Mds).len(), 7);
    }

    #[test]
    fn fault_class_agg_rates_are_fired_denominated() {
        let mut a = FaultClassAgg::default();
        let m = |sf, co, ndet, ddet, t2d| Measurement {
            sf,
            co,
            ndet,
            ddet,
            timeout: false,
            t2d,
            cycles: 1,
            instrs: 1,
        };
        a.add(&m(false, false, false, false, None), false, false); // unfired
        a.add(&m(true, false, false, true, Some(100)), true, false); // dpmr, recovered
        a.add(&m(true, false, true, false, Some(300)), false, false); // natural
        a.add(&m(true, false, false, false, None), false, false); // escape
        a.add(&m(true, true, false, false, None), false, false); // benign
        assert_eq!(a.trials, 5);
        assert_eq!(a.fired, 4);
        assert!((a.detection_rate() - 0.5).abs() < 1e-9);
        assert!((a.dpmr_rate() - 0.25).abs() < 1e-9);
        assert!((a.escape_rate() - 0.25).abs() < 1e-9);
        assert!((a.benign_rate() - 0.25).abs() < 1e-9);
        assert!((a.recovery_rate() - 0.25).abs() < 1e-9);
        assert_eq!(a.mean_latency_cycles(), Some(200.0));
        // A detected-but-mis-repaired trial counts toward the
        // unrecoverable tally alongside silent escapes.
        a.add(&m(true, false, false, true, Some(100)), false, true);
        assert_eq!(a.wrong_repairs, 1);
        assert!((a.wrong_repair_rate() - 0.2).abs() < 1e-9);
        assert!((a.unrecoverable_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn tiny_fault_campaign_runs_end_to_end() {
        let app = app_by_name("pchase").expect("pchase");
        let cc = CampaignConfig {
            max_sites: Some(2),
            ..CampaignConfig::tiny()
        };
        let res = run_fault_campaign(&[app], &DpmrConfig::sds(), &cc);
        // The taxonomy classes plus the replica-region pseudo-class.
        assert_eq!(res.classes.len(), FaultModel::paper_set().len() + 1);
        assert!(res.experiments > 0);
        assert!(
            res.agg.values().any(|a| a.fired > 0),
            "some class must fire on pchase"
        );
        // Every (class, app) population the campaign armed is present.
        for class in &res.classes {
            assert!(
                res.agg.contains_key(&(class.clone(), "pchase".to_string())),
                "{class} missing from the aggregate"
            );
        }
    }

    #[test]
    fn tiny_opt_study_is_invariant_across_preserving_combos() {
        let app = app_by_name("bzip2").expect("bzip2");
        let res = run_opt_study(
            &[app],
            &DpmrConfig::sds(),
            &BTreeMap::new(),
            &CampaignConfig::tiny(),
        );
        assert_eq!(res.experiments, 2);
        let row = |combo: &str| &res.rows[&("bzip2".to_string(), combo.to_string())];
        let (off, pgo) = (row("off"), row("pgo"));
        assert!(off.output_ok && pgo.output_ok);
        // With no usefulness weights the profile-guided leg
        // conservatively keeps every site, so it changes neither the
        // virtual clock nor the dynamic check/instruction counts.
        assert_eq!(pgo.dropped, 0);
        assert!(res.dropped_reports.is_empty());
        assert_eq!(
            (off.check_execs, off.cycles, off.instrs),
            (pgo.check_execs, pgo.cycles, pgo.instrs)
        );
    }

    #[test]
    fn tiny_study_runs_end_to_end() {
        let app = app_by_name("bzip2").expect("bzip2");
        let variants = vec![(
            "no-diversity".to_string(),
            DpmrConfig::sds().with_diversity(Diversity::None),
        )];
        let res = run_study(&[app], &variants, &CampaignConfig::tiny());
        assert!(res.experiments > 0);
        assert!(!res.coverage.is_empty());
        let o = res.overhead[&("no-diversity".to_string(), "bzip2".to_string())];
        assert!(o > 1.0);
    }
}
