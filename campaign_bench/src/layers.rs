//! The calls into each layer, each wrapped in its span and its counters.
//!
//! The benchmark drives the program only through these wrappers, so every
//! layer is timed from outside at the same boundary. `prepare` and the
//! `PreparedApp::run_*` methods are reproduced from their public parts
//! (the app build, lowering, the golden run, site enumeration,
//! `Interp::{with_code, run}`, `RecoveryDriver::run` and
//! `PreparedApp::measure*`) so that each part shows as its own layer; the
//! mirror test checks the results equal the harness's own studies.

use crate::record::{count, max, span};
use dpmr_core::prelude::{DpmrConfig, RecoveryConfig, RecoveryPolicy};
use dpmr_fi::{FaultType, InjectionSite, OpSite};
use dpmr_harness::experiment::PreparedApp;
use dpmr_ir::module::Module;
use dpmr_recovery::{RecoveryDriver, RecoveryOutcome};
use dpmr_vm::prelude::*;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::rc::Rc;
use std::time::Instant;

/// IR instructions (block bodies plus terminators) of a module.
fn ir_size(m: &Module) -> u64 {
    m.funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.instrs.len() as u64 + 1)
        .sum()
}

/// `AppSpec::build`.
pub fn build(app: &AppSpec, params: &WorkloadParams) -> Module {
    span("workloads.build", || (app.build)(params))
}

/// `dpmr_harness::experiment::prepare`, from its parts: build, lower, the
/// golden run, and heap-allocation site enumeration.
///
/// # Panics
/// Panics if the golden run is not clean (a workload bug).
pub fn prepare(app: AppSpec, params: &WorkloadParams) -> PreparedApp {
    span("experiment.prepare", || {
        let module = build(&app, params);
        let code = Rc::new(lower(&module));
        let golden = exec(
            &module,
            Rc::clone(&code),
            &RunConfig::default(),
            Rc::new(Registry::with_base()),
        )
        .out;
        let code = Rc::try_unwrap(code).expect("golden interpreter dropped");
        assert_eq!(
            golden.status,
            ExitStatus::Normal(0),
            "{}: golden run must be clean",
            app.name
        );
        let sites = span("fi.enumerate", || {
            dpmr_fi::enumerate_heap_alloc_sites(&module)
        });
        count("fi.sites", sites.len() as u64);
        PreparedApp {
            app,
            module,
            code,
            golden,
            sites,
            params: *params,
        }
    })
}

/// The run configuration `PreparedApp` gives run number `run`, optionally
/// forced onto the plain (checked, one op at a time) dispatch loop.
pub fn run_config(p: &PreparedApp, run: u32, plain: bool) -> RunConfig {
    let mut rc = RunConfig {
        max_instrs: p.budget(),
        seed: u64::from(run) + 1,
        plain_dispatch: plain,
        ..RunConfig::default()
    };
    rc.mem.fill_seed = (u64::from(run) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    rc
}

/// `dpmr_core::transform::transform`.
///
/// # Panics
/// Panics if the transformation fails (the trial boundary records it).
pub fn transform(m: &Module, cfg: &DpmrConfig) -> Module {
    let t = span("transform", || {
        dpmr_core::transform::transform(m, cfg).expect("transform")
    });
    count("transform.calls", 1);
    count("transform.ir_in", ir_size(m));
    count("transform.ir_out", ir_size(&t));
    t
}

fn note_lowered(code: &LoweredCode) {
    count("lower.calls", 1);
    count("lower.ops", code.ops.len() as u64);
    count("lower.check_sites", u64::from(code.check_sites));
}

/// `dpmr_vm::lower::lower`.
pub fn lower(m: &Module) -> LoweredCode {
    let code = span("lower", || dpmr_vm::lower::lower(m));
    note_lowered(&code);
    code
}

/// `dpmr_harness::experiment::lower_with_passes` (lowering alone when the
/// configuration's passes are off, as in every campaign).
pub fn lower_with_passes(m: &Module, cfg: &DpmrConfig) -> LoweredCode {
    let code = span("lower", || {
        dpmr_harness::experiment::lower_with_passes(m, cfg)
    });
    note_lowered(&code);
    code
}

/// `dpmr_vm::opt::optimize`.
pub fn optimize(code: &LoweredCode, passes: &PassConfig) -> OptOutcome {
    let out = span("opt", || dpmr_vm::opt::optimize(code, passes));
    count("opt.calls", 1);
    count("opt.elided", out.elided.len() as u64);
    count(
        "opt.fused",
        (out.fused_load_checks.len() + out.fused_store_pairs.len() + out.fused_groups.len()) as u64,
    );
    count("opt.dropped", out.dropped.len() as u64);
    out
}

/// `dpmr_fi::inject`.
pub fn inject(m: &Module, site: &InjectionSite, fault: FaultType) -> Module {
    span("fi.inject", || dpmr_fi::inject(m, site, fault))
}

/// `PreparedApp::manifest_sites` (heap-allocation sites where `fault` may
/// manifest), capped like the harness's `max_sites`.
pub fn manifest_sites(p: &PreparedApp, fault: FaultType, cap: Option<usize>) -> Vec<InjectionSite> {
    let mut sites = span("fi.enumerate", || p.manifest_sites(fault));
    if let Some(cap) = cap {
        sites.truncate(cap);
    }
    count("fi.sites", sites.len() as u64);
    sites
}

/// `dpmr_fi::{enumerate_op_sites, sample_sites}`, or
/// `enumerate_replica_sites` when `model` is `None`.
pub fn op_sites(code: &LoweredCode, model: Option<FaultModel>, cap: usize) -> Vec<OpSite> {
    let sites = span("fi.enumerate", || {
        let all = match model {
            Some(m) => dpmr_fi::enumerate_op_sites(code, m),
            None => dpmr_fi::enumerate_replica_sites(code),
        };
        dpmr_fi::sample_sites(&all, cap)
    });
    count("fi.sites", sites.len() as u64);
    sites
}

fn note_run(out: &RunOutcome) {
    count("interp.runs", 1);
    count("interp.instrs", out.instrs);
    count("interp.vcycles", out.cycles);
    count("alloc.mallocs", out.alloc_stats.mallocs);
    count("alloc.frees", out.alloc_stats.frees);
    count("alloc.bytes", out.alloc_stats.bytes_allocated);
    count("fault.hits", out.fault_hits);
    count("check.detections", out.detections);
}

/// One interpreter run and what it leaves behind.
pub struct Exec {
    /// The run's outcome.
    pub out: RunOutcome,
    /// Host time of `Interp::run` alone.
    pub host_ns: u64,
    /// Per-check-site detections, when the run configuration collects
    /// site telemetry (empty otherwise).
    pub site_detections: Vec<u64>,
}

/// `Interp::with_code` then `Interp::run`.
pub fn exec(module: &Module, code: Rc<LoweredCode>, rc: &RunConfig, reg: Rc<Registry>) -> Exec {
    let mut interp = span("interp.new", || Interp::with_code(module, code, rc, reg));
    let t0 = Instant::now();
    let out = span("interp.run", || interp.run(rc.args.clone()));
    let host_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let usage = interp.mem.usage();
    max("mem.heap_brk_bytes", usage.heap_brk as u64);
    max("mem.stack_hw_bytes", usage.stack_high_water as u64);
    note_run(&out);
    count("interp.run_instrs", out.instrs);
    if rc.fault.is_some() {
        count("fault.armed", 1);
        count("fault.fired", u64::from(out.fault_fired_cycle.is_some()));
    }
    let site_detections = if rc.telemetry.sites {
        interp
            .telemetry()
            .site_stats
            .iter()
            .map(|s| s.detections)
            .collect()
    } else {
        Vec::new()
    };
    Exec {
        out,
        host_ns,
        site_detections,
    }
}

/// The layer name a recovery configuration's runs are timed under.
pub fn recovery_layer(rec: &RecoveryConfig) -> &'static str {
    match (rec.policy, rec.checkpoint_cadence) {
        (RecoveryPolicy::RetryFromCheckpoint { .. }, Some(_)) => "recovery.retry_mid",
        (RecoveryPolicy::RetryFromCheckpoint { .. }, None) => "recovery.retry",
        (RecoveryPolicy::RepairFromReplica { .. }, _) => "recovery.repair",
        (RecoveryPolicy::VoteAndRepair { .. }, _) => "recovery.vote",
        (RecoveryPolicy::Abort | RecoveryPolicy::FailStop, _) => "recovery.failstop",
    }
}

/// `RecoveryDriver::with_code(..).run()`.
///
/// A run the driver replayed (more than one attempt) stays out of the
/// run counters: each rollback rewinds the interpreter's instruction,
/// cycle, allocation and fault-hit counters, so `RecoveryOutcome` holds
/// only the last attempt's and the rolled-back work cannot be counted from
/// outside the VM. Such runs count under `recovery.replayed_runs`, and
/// their host time under `recovery.replayed_ns`, which `guest_mips` leaves
/// out of its denominator.
pub fn recover(
    module: &Module,
    code: Rc<LoweredCode>,
    reg: Rc<Registry>,
    rc: RunConfig,
    rec: RecoveryConfig,
) -> RecoveryOutcome {
    let t0 = Instant::now();
    let out = span(recovery_layer(&rec), || {
        RecoveryDriver::with_code(module, code, reg, rc, rec).run()
    });
    if out.attempts > 1 {
        count("recovery.replayed_runs", 1);
        count(
            "recovery.replayed_ns",
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        count("check.detections", out.detections);
    } else {
        note_run(&out.last);
    }
    count("recovery.runs", 1);
    count("recovery.attempts", u64::from(out.attempts));
    count("recovery.repairs", out.repairs);
    count("recovery.replica_repairs", out.last.replica_repairs);
    if let Some(t) = out.time_to_recovery {
        count("recovery.ttr_vcycles", t);
        count("recovery.ttr_n", 1);
    }
    out
}
