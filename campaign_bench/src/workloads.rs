//! The four workloads, each reproducing the unit decomposition of the
//! harness study it is named after.

use crate::campaign::{Campaign, Key, Kind, TrialSink, Verdict};
use crate::layers::{self, run_config};
use crate::record;
use dpmr_core::prelude::*;
use dpmr_fi::{FaultType, InjectionSite, OpSite};
use dpmr_harness::experiment::PreparedApp;
use dpmr_harness::metrics::{
    diversity_variants, policy_variants, replication_variants, FAULT_SITES_PER_CLASS, REPLICA_CLASS,
};
use dpmr_ir::module::Module;
use dpmr_vm::prelude::*;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::rc::Rc;

/// Repair budget of the fault campaign's recovery leg (the harness's).
const CAMPAIGN_REPAIR_BUDGET: u64 = 4096;

/// Armed sites per (app, K) in `long_run`'s set-up sweep.
const SWEEP_SITES: usize = 8;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Chapter 3/4 injection study (figs 3.6-3.15, 4.3-4.14).
    Coverage,
    /// The runtime fault model (tabF.1 and tabV.1).
    FaultCampaign,
    /// The recovery study (tabR.1).
    Rollback,
    /// Long clean runs of the SPEC analogues and the scrub kernel.
    LongRun,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::Coverage,
        Workload::FaultCampaign,
        Workload::Rollback,
        Workload::LongRun,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Coverage => "coverage",
            Workload::FaultCampaign => "fault_campaign",
            Workload::Rollback => "rollback",
            Workload::LongRun => "long_run",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The sizing the benchmark runs: the harness's default campaign
    /// (scale 1, two runs per setting, uncapped sites) except `long_run`,
    /// whose point is long runs.
    pub fn sizing(self) -> Sizing {
        match self {
            Workload::LongRun => Sizing {
                scale: 8,
                runs: 1,
                max_sites: None,
            },
            _ => Sizing {
                scale: 1,
                runs: 2,
                max_sites: None,
            },
        }
    }

    /// Builds the workload: prepares its apps, hoists what the harness
    /// hoists, and lists its units. This is the set-up that `setup_s`
    /// times; it runs on one thread, which keeps its time steady.
    pub fn setup(self, seed: u64, sizing: &Sizing) -> Box<dyn Campaign> {
        let params = WorkloadParams {
            scale: sizing.scale,
            seed,
        };
        match self {
            Workload::Coverage => Box::new(Coverage::new(&params, sizing)),
            Workload::FaultCampaign => Box::new(FaultCampaign::new(&params, sizing)),
            Workload::Rollback => Box::new(Rollback::new(&params, sizing)),
            Workload::LongRun => Box::new(LongRun::new(&params, sizing)),
        }
    }
}

/// Campaign sizing (the harness's `CampaignConfig` minus the workers).
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Workload scale (`WorkloadParams::scale`).
    pub scale: i64,
    /// Runs per setting.
    pub runs: u32,
    /// Cap on sites per (app, fault); `None` is the harness default.
    pub max_sites: Option<usize>,
}

fn prepare_all(apps: &[AppSpec], params: &WorkloadParams) -> Vec<PreparedApp> {
    apps.iter().map(|a| layers::prepare(*a, params)).collect()
}

fn key(study: &'static str, app: &'static str, cfg: String, k: usize, class: String) -> Key {
    Key {
        study,
        app,
        cfg,
        k,
        class,
        site: 0,
        run: 0,
        seed: 1,
        arm_cycle: None,
    }
}

/// A clean run of `build` with run 0's seeds, checked against the golden
/// output: untransformed under the base registry for `Kind::Golden`,
/// transformed under the DPMR wrappers otherwise.
fn clean_trial(
    sink: &mut TrialSink,
    p: &PreparedApp,
    key: Key,
    kind: Kind,
    (module, code): (&Module, &LoweredCode),
    plain: bool,
) {
    let registry = Rc::new(if kind == Kind::Golden {
        Registry::with_base()
    } else {
        registry_with_wrappers()
    });
    sink.trial(key, kind, || {
        let e = layers::exec(
            module,
            Rc::new(code.clone()),
            &run_config(p, 0, plain),
            registry,
        );
        Verdict::of_run(p, &e.out, e.host_ns)
    });
}

/// The in-run rerun of `p`'s untransformed program.
fn golden_trial(sink: &mut TrialSink, p: &PreparedApp, plain: bool) {
    let build = (&p.module, &p.code);
    clean_trial(sink, p, golden_key(p), Kind::Golden, build, plain);
}

fn golden_key(p: &PreparedApp) -> Key {
    key("ref", p.app.name, "golden".into(), 0, "clean".into())
}

// ---------------------------------------------------------------- coverage

enum CovUnit {
    Golden(usize),
    Overhead {
        study: usize,
        app: usize,
        variant: usize,
    },
    Site {
        study: usize,
        app: usize,
        fault: FaultType,
        site: InjectionSite,
    },
}

/// `run_study` four times, as `dpmr-harness all` runs it: SDS and MDS, each
/// over the diversity and the comparison-policy variants.
pub struct Coverage {
    runs: u32,
    apps: Vec<PreparedApp>,
    studies: Vec<(&'static str, Vec<(String, DpmrConfig)>)>,
    units: Vec<CovUnit>,
}

impl Coverage {
    fn new(params: &WorkloadParams, sizing: &Sizing) -> Coverage {
        let apps = prepare_all(&dpmr_workloads::all_apps(), params);
        let studies = vec![
            ("sds-div", diversity_variants(Scheme::Sds)),
            ("sds-pol", policy_variants(Scheme::Sds)),
            ("mds-div", diversity_variants(Scheme::Mds)),
            ("mds-pol", policy_variants(Scheme::Mds)),
        ];
        let sites: Vec<(usize, FaultType, InjectionSite)> = apps
            .iter()
            .enumerate()
            .flat_map(|(ai, p)| {
                FaultType::paper_set().into_iter().flat_map(move |fault| {
                    layers::manifest_sites(p, fault, sizing.max_sites)
                        .into_iter()
                        .map(move |site| (ai, fault, site))
                })
            })
            .collect();
        let mut units: Vec<CovUnit> = (0..apps.len()).map(CovUnit::Golden).collect();
        for (study, (_, variants)) in studies.iter().enumerate() {
            for app in 0..apps.len() {
                units.extend((0..variants.len()).map(|variant| CovUnit::Overhead {
                    study,
                    app,
                    variant,
                }));
            }
            units.extend(sites.iter().map(|&(app, fault, site)| CovUnit::Site {
                study,
                app,
                fault,
                site,
            }));
        }
        Coverage {
            runs: sizing.runs,
            apps,
            studies,
            units,
        }
    }

    /// The stdapp runs and every variant's runs at one injection site (the
    /// harness's `run_site_unit`).
    fn site_unit(
        &self,
        study: usize,
        p: &PreparedApp,
        fault: FaultType,
        site: &InjectionSite,
        plain: bool,
        sink: &mut TrialSink,
    ) {
        let (study_name, variants) = &self.studies[study];
        let faulty = layers::inject(&p.module, site, fault);
        let faulty_code = Rc::new(layers::lower(&faulty));
        let base_reg = Rc::new(Registry::with_base());
        let wrap_reg = Rc::new(registry_with_wrappers());
        let site_key = |cfg: String, k: usize, run: u32| Key {
            site: site.site_id,
            run,
            seed: u64::from(run) + 1,
            ..key(study_name, p.app.name, cfg, k, fault.name())
        };
        for run in 0..self.runs {
            sink.trial(site_key("stdapp".into(), 0, run), Kind::Stdapp, || {
                let e = layers::exec(
                    &faulty,
                    Rc::clone(&faulty_code),
                    &run_config(p, run, plain),
                    Rc::clone(&base_reg),
                );
                Verdict::of_run(p, &e.out, e.host_ns)
            });
        }
        for (name, cfg) in variants {
            let transformed = layers::transform(&faulty, cfg);
            let code = Rc::new(layers::lower_with_passes(&transformed, cfg));
            for run in 0..self.runs {
                sink.trial(
                    site_key(name.clone(), cfg.replicas, run),
                    Kind::Dpmr,
                    || {
                        let e = layers::exec(
                            &transformed,
                            Rc::clone(&code),
                            &run_config(p, run, plain),
                            Rc::clone(&wrap_reg),
                        );
                        Verdict::of_run(p, &e.out, e.host_ns)
                    },
                );
            }
        }
    }
}

impl Campaign for Coverage {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn run_unit(&self, unit: usize, plain: bool, sink: &mut TrialSink) {
        match &self.units[unit] {
            CovUnit::Golden(ai) => {
                golden_trial(sink, &self.apps[*ai], plain);
            }
            CovUnit::Overhead {
                study,
                app,
                variant,
            } => {
                // `PreparedApp::overhead`: transform and lower per call.
                let p = &self.apps[*app];
                let (study_name, variants) = &self.studies[*study];
                let (name, cfg) = &variants[*variant];
                let t = layers::transform(&p.module, cfg);
                let code = layers::lower(&t);
                let k = key(
                    study_name,
                    p.app.name,
                    name.clone(),
                    cfg.replicas,
                    "clean".into(),
                );
                clean_trial(sink, p, k, Kind::Clean, (&t, &code), plain);
            }
            CovUnit::Site {
                study,
                app,
                fault,
                site,
            } => self.site_unit(*study, &self.apps[*app], *fault, site, plain, sink),
        }
    }

    fn unit_key(&self, unit: usize) -> Key {
        match &self.units[unit] {
            CovUnit::Golden(ai) => golden_key(&self.apps[*ai]),
            CovUnit::Overhead { study, app, .. } => key(
                self.studies[*study].0,
                self.apps[*app].app.name,
                "overhead".into(),
                0,
                "clean".into(),
            ),
            CovUnit::Site {
                study,
                app,
                fault,
                site,
            } => Key {
                site: site.site_id,
                ..key(
                    self.studies[*study].0,
                    self.apps[*app].app.name,
                    "site".into(),
                    0,
                    fault.name(),
                )
            },
        }
    }
}

// ---------------------------------------------------------- fault_campaign

enum FcUnit {
    Golden(usize),
    Clean {
        app: usize,
        conf: usize,
    },
    Armed {
        study: &'static str,
        app: usize,
        conf: usize,
        class: FaultModel,
        class_name: String,
        site: OpSite,
    },
}

/// `run_fault_campaign` (tabF.1) and `run_replication_degree_study`
/// (tabV.1) over the fault-campaign apps, with transformation and lowering
/// hoisted into set-up.
pub struct FaultCampaign {
    runs: u32,
    apps: Vec<PreparedApp>,
    configs: Vec<(String, DpmrConfig)>,
    /// Transformed module and lowering per (app, config), app-major.
    built: Vec<(Module, LoweredCode)>,
    units: Vec<FcUnit>,
}

impl FaultCampaign {
    fn new(params: &WorkloadParams, sizing: &Sizing) -> FaultCampaign {
        let apps = prepare_all(&dpmr_workloads::fault_campaign_apps(), params);
        // The tabV.1 grid; tabF.1's K = 1 base (`DpmrConfig::sds()`) and
        // its K = 2 replica-differential build are two of its cells.
        let base = DpmrConfig::sds();
        let configs = replication_variants(&base);
        let conf_of = |k: usize| {
            configs
                .iter()
                .position(|(_, c)| c.replicas == k && c.diversity == base.diversity)
                .expect("the grid holds the base diversity at every K")
        };
        let (k1, k2) = (conf_of(1), conf_of(2));
        let pairs: Vec<(usize, usize)> = (0..apps.len())
            .flat_map(|a| (0..configs.len()).map(move |c| (a, c)))
            .collect();
        let built: Vec<(Module, LoweredCode)> = pairs
            .iter()
            .map(|&(a, c)| {
                let t = layers::transform(&apps[a].module, &configs[c].1);
                let code = layers::lower_with_passes(&t, &configs[c].1);
                (t, code)
            })
            .collect();
        let nconf = configs.len();
        let code_of = |a: usize, c: usize| &built[a * nconf + c].1;
        let cap = sizing.max_sites.unwrap_or(FAULT_SITES_PER_CLASS);
        let heap_flip = FaultModel::BitFlip {
            region: MemRegion::Heap,
        };
        let mut units: Vec<FcUnit> = (0..apps.len()).map(FcUnit::Golden).collect();
        for app in 0..apps.len() {
            units.extend((0..nconf).map(|conf| FcUnit::Clean { app, conf }));
        }
        let mut armed = |study, app, conf, class: Option<FaultModel>, name: String| {
            let sites = layers::op_sites(code_of(app, conf), class, cap);
            units.extend(sites.into_iter().map(|site| FcUnit::Armed {
                study,
                app,
                conf,
                class: class.unwrap_or(heap_flip),
                class_name: name.clone(),
                site,
            }));
        };
        for app in 0..apps.len() {
            for class in FaultModel::paper_set() {
                armed("tabF", app, k1, Some(class), class.name());
            }
        }
        for app in 0..apps.len() {
            for conf in [k1, k2] {
                armed("tabF-replica", app, conf, None, REPLICA_CLASS.into());
            }
        }
        let tab_v_classes = [
            (Some(heap_flip), heap_flip.name()),
            (None, REPLICA_CLASS.to_string()),
            (Some(FaultModel::WildWrite), FaultModel::WildWrite.name()),
        ];
        for app in 0..apps.len() {
            for conf in 0..nconf {
                for (class, name) in &tab_v_classes {
                    armed("tabV", app, conf, *class, name.clone());
                }
            }
        }
        FaultCampaign {
            runs: sizing.runs,
            apps,
            configs,
            built,
            units,
        }
    }
}

impl Campaign for FaultCampaign {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn run_unit(&self, unit: usize, plain: bool, sink: &mut TrialSink) {
        let nconf = self.configs.len();
        match &self.units[unit] {
            FcUnit::Golden(ai) => {
                golden_trial(sink, &self.apps[*ai], plain);
            }
            FcUnit::Clean { app, conf } => {
                let p = &self.apps[*app];
                let (name, cfg) = &self.configs[*conf];
                let (t, code) = &self.built[app * nconf + conf];
                let k = key(
                    "tabV",
                    p.app.name,
                    name.clone(),
                    cfg.replicas,
                    "clean".into(),
                );
                clean_trial(sink, p, k, Kind::Clean, (t, code), plain);
            }
            FcUnit::Armed {
                study,
                app,
                conf,
                class,
                class_name,
                site,
            } => {
                // The harness's `run_fault_unit`.
                let p = &self.apps[*app];
                let (name, cfg) = &self.configs[*conf];
                let (transformed, code) = &self.built[app * nconf + conf];
                let code = Rc::new(code.clone());
                let registry = Rc::new(registry_with_wrappers());
                let rec = RecoveryConfig::policy(if cfg.replicas >= 2 {
                    RecoveryPolicy::VoteAndRepair {
                        max_repairs: CAMPAIGN_REPAIR_BUDGET,
                    }
                } else {
                    RecoveryPolicy::RepairFromReplica {
                        max_repairs: CAMPAIGN_REPAIR_BUDGET,
                    }
                });
                for run in 0..self.runs {
                    let armed = ArmedFault {
                        site: site.pc,
                        fault: *class,
                        seed: dpmr_fi::trial_seed(site.pc, run),
                        arm_cycle: p.golden.cycles * u64::from(run) / u64::from(self.runs.max(1)),
                    };
                    let k = Key {
                        site: site.pc,
                        run,
                        seed: armed.seed,
                        arm_cycle: Some(armed.arm_cycle),
                        ..key(
                            study,
                            p.app.name,
                            name.clone(),
                            cfg.replicas,
                            class_name.clone(),
                        )
                    };
                    sink.trial(k, Kind::Dpmr, || {
                        let mut rc = run_config(p, run, plain);
                        rc.fault = Some(armed);
                        let e =
                            layers::exec(transformed, Rc::clone(&code), &rc, Rc::clone(&registry));
                        let mut v = Verdict::of_run(p, &e.out, e.host_ns);
                        // The recovery leg runs only for DPMR detections.
                        if v.m.sf && v.m.ddet {
                            let out = layers::recover(
                                transformed,
                                Rc::clone(&code),
                                Rc::clone(&registry),
                                rc,
                                rec,
                            );
                            v.recovery = Some(p.measure_recovery(out));
                        }
                        v
                    });
                }
            }
        }
    }

    fn unit_key(&self, unit: usize) -> Key {
        match &self.units[unit] {
            FcUnit::Golden(ai) => golden_key(&self.apps[*ai]),
            FcUnit::Clean { app, conf } => key(
                "tabV",
                self.apps[*app].app.name,
                self.configs[*conf].0.clone(),
                self.configs[*conf].1.replicas,
                "clean".into(),
            ),
            FcUnit::Armed {
                study,
                app,
                conf,
                class_name,
                site,
                ..
            } => Key {
                site: site.pc,
                ..key(
                    study,
                    self.apps[*app].app.name,
                    self.configs[*conf].0.clone(),
                    self.configs[*conf].1.replicas,
                    class_name.clone(),
                )
            },
        }
    }
}

// ---------------------------------------------------------------- rollback

enum RbUnit {
    Golden(usize),
    Clean(usize),
    Site {
        app: usize,
        fault: FaultType,
        site: InjectionSite,
    },
}

/// `run_recovery_study` (tabR.1) over the recovery apps, plus one clean run
/// of each app's base build for the overhead ratios.
pub struct Rollback {
    runs: u32,
    apps: Vec<PreparedApp>,
    base: DpmrConfig,
    configs: Vec<RecoveryConfig>,
    /// Clean base build per app.
    clean: Vec<(Module, LoweredCode)>,
    units: Vec<RbUnit>,
}

impl Rollback {
    fn new(params: &WorkloadParams, sizing: &Sizing) -> Rollback {
        let apps = prepare_all(&dpmr_workloads::recovery_apps(), params);
        let base = DpmrConfig::sds();
        let clean = apps
            .iter()
            .map(|p| {
                let t = layers::transform(&p.module, &base);
                let code = layers::lower_with_passes(&t, &base);
                (t, code)
            })
            .collect();
        let mut units: Vec<RbUnit> = (0..apps.len()).map(RbUnit::Golden).collect();
        units.extend((0..apps.len()).map(RbUnit::Clean));
        for (app, p) in apps.iter().enumerate() {
            for fault in FaultType::paper_set() {
                let sites = layers::manifest_sites(p, fault, sizing.max_sites);
                units.extend(
                    sites
                        .into_iter()
                        .map(|site| RbUnit::Site { app, fault, site }),
                );
            }
        }
        Rollback {
            runs: sizing.runs,
            apps,
            base,
            configs: RecoveryConfig::paper_set(),
            clean,
            units,
        }
    }
}

impl Campaign for Rollback {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn run_unit(&self, unit: usize, plain: bool, sink: &mut TrialSink) {
        match &self.units[unit] {
            RbUnit::Golden(ai) => {
                golden_trial(sink, &self.apps[*ai], plain);
            }
            RbUnit::Clean(ai) => {
                let p = &self.apps[*ai];
                let (t, code) = &self.clean[*ai];
                let k = key("tabR", p.app.name, self.base.name(), 1, "clean".into());
                clean_trial(sink, p, k, Kind::Clean, (t, code), plain);
            }
            RbUnit::Site { app, fault, site } => {
                // The harness's `run_recovery_site_unit`.
                let p = &self.apps[*app];
                let faulty = layers::inject(&p.module, site, *fault);
                let transformed = layers::transform(&faulty, &self.base);
                let code = Rc::new(layers::lower_with_passes(&transformed, &self.base));
                let registry = Rc::new(registry_with_wrappers());
                for rec in &self.configs {
                    for run in 0..self.runs {
                        let k = Key {
                            site: site.site_id,
                            run,
                            seed: u64::from(run) + 1,
                            ..key(
                                "tabR",
                                p.app.name,
                                format!("{}; {}", self.base.name(), rec.name()),
                                self.base.replicas,
                                fault.name(),
                            )
                        };
                        sink.trial(k, Kind::Dpmr, || {
                            let out = layers::recover(
                                &transformed,
                                Rc::clone(&code),
                                Rc::clone(&registry),
                                run_config(p, run, plain),
                                *rec,
                            );
                            let mut v = Verdict::of_run(p, &out.last, 0);
                            v.detected = out.detections > 0;
                            v.recovery = Some(p.measure_recovery(out));
                            v
                        });
                    }
                }
            }
        }
    }

    fn unit_key(&self, unit: usize) -> Key {
        match &self.units[unit] {
            RbUnit::Golden(ai) => golden_key(&self.apps[*ai]),
            RbUnit::Clean(ai) => key(
                "tabR",
                self.apps[*ai].app.name,
                self.base.name(),
                1,
                "clean".into(),
            ),
            RbUnit::Site { app, fault, site } => Key {
                site: site.site_id,
                ..key(
                    "tabR",
                    self.apps[*app].app.name,
                    self.base.name(),
                    1,
                    fault.name(),
                )
            },
        }
    }
}

// ---------------------------------------------------------------- long_run

/// One `long_run` build: the untransformed program (`module: None`) or a
/// transformed, lowered and optionally optimized one.
struct LongBuild {
    app: usize,
    cfg: String,
    k: usize,
    module: Option<Module>,
    code: LoweredCode,
}

/// Long clean runs: each app untransformed and under SDS at K in {1, 2} x
/// passes {off, all, profile-guided}.
pub struct LongRun {
    apps: Vec<PreparedApp>,
    builds: Vec<LongBuild>,
    sweep: (u64, u64),
    /// Every armed run of the set-up sweep: the `+off` build it ran, the
    /// armed pc, and its outcome's fingerprint.
    sweep_runs: Vec<(usize, u32, String)>,
}

fn heap_flip() -> FaultModel {
    FaultModel::BitFlip {
        region: MemRegion::Heap,
    }
}

/// One armed run of `long_run`'s set-up sweep: a heap bit-flip at `pc`,
/// collecting per-check-site detections.
fn sweep_run(
    p: &PreparedApp,
    (module, code): (&Module, Rc<LoweredCode>),
    reg: Rc<Registry>,
    pc: u32,
    plain: bool,
) -> layers::Exec {
    let mut rc = run_config(p, 0, plain);
    rc.fault = Some(ArmedFault {
        site: pc,
        fault: heap_flip(),
        seed: dpmr_fi::trial_seed(pc, 0),
        arm_cycle: 0,
    });
    rc.telemetry.sites = true;
    layers::exec(module, code, &rc, reg)
}

/// What the engine-parity check compares of a sweep run.
fn sweep_fingerprint(p: &PreparedApp, e: &layers::Exec) -> String {
    format!(
        "{} sites={:?}",
        Verdict::of_run(p, &e.out, 0).fingerprint(),
        e.site_detections
    )
}

/// The `long_run` apps: the four SPEC analogues, the recovery workbench
/// the legacy `dpmr_check_*` interpreter points ran, and the scrub kernel
/// of the `dpmr_scrub_k2*` points.
pub fn long_run_apps() -> Vec<AppSpec> {
    let mut apps = dpmr_workloads::all_apps();
    apps.push(AppSpec {
        name: "rvictim",
        build: |p| dpmr_workloads::micro::resize_victim(16 * p.scale.max(1), 12 * p.scale.max(1)),
    });
    apps.push(AppSpec {
        name: "scrub",
        build: |p| dpmr_workloads::micro::table_scrub(64 * p.scale.max(1), 32 * p.scale.max(1)),
    });
    apps
}

impl LongRun {
    fn new(params: &WorkloadParams, _sizing: &Sizing) -> LongRun {
        let apps = prepare_all(&long_run_apps(), params);
        let pairs: Vec<(usize, usize)> = (0..apps.len())
            .flat_map(|a| [1usize, 2].into_iter().map(move |k| (a, k)))
            .collect();
        // Per (app, K): transform, lower, sweep armed heap bit-flips over
        // sampled access sites for per-check-site usefulness, then run the
        // two pass pipelines.
        let per_k: Vec<_> = pairs
            .iter()
            .map(|&(a, k)| {
                let p = &apps[a];
                let cfg = DpmrConfig::sds().with_replicas(k);
                let t = layers::transform(&p.module, &cfg);
                let code = layers::lower(&t);
                let mut usefulness = vec![0.0; code.check_sites as usize];
                let (mut detected, mut fired) = (0u64, 0u64);
                let mut runs = Vec::new();
                let shared = Rc::new(code.clone());
                let reg = Rc::new(registry_with_wrappers());
                for site in layers::op_sites(&code, Some(heap_flip()), SWEEP_SITES) {
                    let e = sweep_run(p, (&t, Rc::clone(&shared)), Rc::clone(&reg), site.pc, false);
                    for (u, d) in usefulness.iter_mut().zip(&e.site_detections) {
                        *u += *d as f64;
                    }
                    fired += u64::from(e.out.fault_fired_cycle.is_some());
                    detected += u64::from(
                        e.out.fault_fired_cycle.is_some() && e.out.status.is_dpmr_detection(),
                    );
                    runs.push((site.pc, sweep_fingerprint(p, &e)));
                }
                let all = layers::optimize(&code, &PassConfig::all()).code;
                let pgo = PassConfig::all().with_profile(ProfileGuided {
                    usefulness,
                    threshold: 0.0,
                });
                let pgo = layers::optimize(&code, &pgo).code;
                (
                    t,
                    [("off", code), ("all", all), ("pgo", pgo)],
                    (detected, fired),
                    runs,
                )
            })
            .collect();
        let mut builds: Vec<LongBuild> = (0..apps.len())
            .map(|app| LongBuild {
                app,
                cfg: "golden".into(),
                k: 0,
                module: None,
                code: apps[app].code.clone(),
            })
            .collect();
        let mut sweep = (0, 0);
        let mut sweep_runs = Vec::new();
        for (&(app, k), (t, codes, (d, f), runs)) in pairs.iter().zip(per_k) {
            sweep.0 += d;
            sweep.1 += f;
            // The `+off` build, pushed first, is the one the sweep ran.
            let off = builds.len();
            sweep_runs.extend(runs.into_iter().map(|(pc, fp)| (off, pc, fp)));
            for (tag, code) in codes {
                builds.push(LongBuild {
                    app,
                    cfg: format!("{} +{tag}", DpmrConfig::sds().with_replicas(k).name()),
                    k,
                    module: Some(t.clone()),
                    code,
                });
            }
        }
        LongRun {
            apps,
            builds,
            sweep,
            sweep_runs,
        }
    }
}

impl Campaign for LongRun {
    fn units(&self) -> usize {
        self.builds.len()
    }

    fn run_unit(&self, unit: usize, plain: bool, sink: &mut TrialSink) {
        let b = &self.builds[unit];
        let p = &self.apps[b.app];
        let (module, kind) = match &b.module {
            Some(m) => (m, Kind::Clean),
            None => (&p.module, Kind::Golden),
        };
        clean_trial(sink, p, self.unit_key(unit), kind, (module, &b.code), plain);
    }

    fn unit_key(&self, unit: usize) -> Key {
        let b = &self.builds[unit];
        let study = if b.module.is_some() { "long" } else { "ref" };
        key(
            study,
            self.apps[b.app].app.name,
            b.cfg.clone(),
            b.k,
            "clean".into(),
        )
    }

    fn setup_detections(&self) -> (u64, u64) {
        self.sweep
    }

    fn setup_parity(&self, n: usize) -> (usize, Vec<String>) {
        let total = self.sweep_runs.len();
        let m = n.min(total);
        let sample: Vec<usize> = (0..m).map(|i| i * total / m).collect();
        let reg = Rc::new(registry_with_wrappers());
        let mismatches = sample
            .iter()
            .filter_map(|&i| {
                let (build, pc, threaded) = &self.sweep_runs[i];
                let b = &self.builds[*build];
                let p = &self.apps[b.app];
                let module = b.module.as_ref().expect("the sweep ran a transformed build");
                let plain = record::guard(None, || {
                    let code = Rc::new(b.code.clone());
                    sweep_fingerprint(p, &sweep_run(p, (module, code), Rc::clone(&reg), *pc, true))
                })
                .unwrap_or_else(|f| format!("panic: {f}"));
                (plain != *threaded).then(|| {
                    format!(
                        "long_run set-up sweep app={} cfg=\"{}\" site={pc}\n  threaded: {threaded}\n  plain:    {plain}",
                        p.app.name, b.cfg
                    )
                })
            })
            .collect();
        (sample.len(), mismatches)
    }
}
