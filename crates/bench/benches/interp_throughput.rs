//! Interpreter throughput microbenchmark over the micro workloads.
//!
//! Records the speed envelope of the execution engine so interpreter
//! refactors (recursive → flat dispatch → pre-resolved linear bytecode)
//! leave a measured trajectory: alongside the criterion samples, each
//! workload prints a machine-greppable `BENCH_INTERP_<NAME>_MIPS=<n>`
//! line (simulated instructions retired per wall-clock second, in
//! millions) **and appends a machine-readable point to
//! `BENCH_INTERP.json`** at the workspace root (one JSON object per line:
//! workload, mips, git rev, an explicit `dirty` flag for points measured
//! on an uncommitted tree, mode), so the trajectory accumulates across
//! engine generations. Override the file location with
//! `BENCH_INTERP_JSON=<path>` (empty disables persistence).
//! Measurements are interleaved round-robin across workloads and the
//! recorded MIPS is the per-workload **median over the rounds**, so a
//! burst of host contention is confined to the rounds it lands in
//! instead of dragging the recorded point.
//!
//! Set `BENCH_SMOKE=1` to shrink the measurement to a CI-friendly smoke
//! run. Set `BENCH_ASSERT_RATIO=<r>` to fail the bench when any
//! workload's MIPS drops below `r ×` the recorded seed baseline for the
//! active mode (CI runs the smoke mode with a ratio of 1.0 as a
//! regression gate for the lowered engine).

use criterion::{criterion_group, criterion_main, Criterion};
use dpmr_core::prelude::*;
use dpmr_ir::module::Module;
use dpmr_vm::prelude::*;
use dpmr_workloads::micro;
use std::io::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Recorded baselines per mode: the denominator of the
/// `BENCH_ASSERT_RATIO` regression gate. The floors lock in the
/// threaded-dispatch engine: every one sits at ~0.7× the full-mode
/// median (or ~0.6× the weaker of two smoke runs) measured on the
/// reference container after the hazard-window rework, and the
/// `dpmr_check_*` floors sit *above* the plain-dispatch engine's
/// recorded medians (46.6/35.3 MIPS at the previous revision, see
/// `BENCH_INTERP.json`) — losing the threaded loop fails the gate at
/// ratio 1.0, while runner noise does not. The `dpmr_scrub_k2_pgo`
/// floor stays ≥ 1.2× the `dpmr_scrub_k2` floor: the optimizer's
/// acceptance margin is encoded in the gate, not just in the
/// trajectory file. The numbers are absolute MIPS from one machine, so
/// the gate assumes a comparable runner — a much slower runner would
/// need a lower ratio. Workloads without a recorded baseline (`None`)
/// skip the gate until one is recorded here.
fn seed_baseline_mips(workload: &str) -> Option<f64> {
    match (workload, smoke()) {
        ("linked_list", false) => Some(52.0),
        ("qsort", false) => Some(34.0),
        ("resize_victim", false) => Some(55.0),
        ("dpmr_check_k1", false) => Some(48.0),
        ("dpmr_check_k2", false) => Some(40.0),
        ("dpmr_check_k1_pgo", false) => Some(51.0),
        ("dpmr_check_k2_pgo", false) => Some(43.0),
        ("dpmr_scrub_k2", false) => Some(65.0),
        ("dpmr_scrub_k2_pgo", false) => Some(78.0),
        ("linked_list", true) => Some(30.0),
        ("qsort", true) => Some(19.0),
        ("resize_victim", true) => Some(24.0),
        ("dpmr_check_k1", true) => Some(25.0),
        ("dpmr_check_k2", true) => Some(23.0),
        ("dpmr_check_k1_pgo", true) => Some(29.0),
        ("dpmr_check_k2_pgo", true) => Some(26.0),
        ("dpmr_scrub_k2", true) => Some(35.0),
        ("dpmr_scrub_k2_pgo", true) => Some(42.0),
        _ => None,
    }
}

/// One benchmark point. The historical points carry only a module and
/// lower inside every measured run; the `_pgo` points carry pre-lowered,
/// optimized bytecode (lowering and optimization are pure, one-time load
/// work — the deployment shape the harness uses for campaigns), with the
/// unoptimized `dpmr_check_k1`/`k2` and `dpmr_scrub_k2` points as their
/// reference.
struct Workload {
    name: &'static str,
    module: Module,
    /// Pre-lowered bytecode shared across runs; `None` lowers per run.
    code: Option<Rc<LoweredCode>>,
    /// Whether the run needs the DPMR wrapper registry.
    wrappers: bool,
}

/// Per-check-site usefulness for the profile-guided bench point, from a
/// small deterministic armed sweep: heap bit-flips armed one at a time
/// at (a sample of) the load pcs of the unoptimized bytecode, with
/// per-site telemetry on; a site's usefulness is the detections it
/// raised across the sweep. This mirrors the harness's profS.1-derived
/// profile without depending on the campaign crate from a bench.
fn armed_usefulness(module: &Module, code: &Rc<LoweredCode>, reg: &Rc<Registry>) -> Vec<f64> {
    let load_pcs: Vec<u32> = code
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Load { .. }))
        .map(|(pc, _)| pc as u32)
        .collect();
    let mut usefulness = vec![0.0; code.check_sites as usize];
    // Evenly sampled arming sites keep the sweep's cost flat as the
    // workload scales; the sample is a pure function of the bytecode.
    let step = (load_pcs.len() / 24).max(1);
    for &pc in load_pcs.iter().step_by(step) {
        let rc = RunConfig {
            fault: Some(ArmedFault {
                site: pc,
                fault: FaultModel::BitFlip {
                    region: MemRegion::Heap,
                },
                seed: u64::from(pc) ^ 0x9E37_79B9,
                arm_cycle: 0,
            }),
            telemetry: TelemetryConfig {
                sites: true,
                ..TelemetryConfig::off()
            },
            ..RunConfig::default()
        };
        let args = rc.args.clone();
        let mut it = Interp::with_code(module, Rc::clone(code), &rc, Rc::clone(reg));
        let _ = it.run(args);
        for (site, stats) in it.telemetry().site_stats.iter().enumerate() {
            usefulness[site] += stats.detections as f64;
        }
    }
    usefulness
}

/// The micro workloads under measurement: list/pointer chasing, an
/// external-call-heavy sort, the recovery workbench (store/check dense
/// under DPMR-shaped access patterns), and the *transformed* workbench at
/// replication degrees 1 and 2 — the `dpmr.check` compare loop is the
/// interpreter's hot path under DPMR, and the K = 1 vs K = 2 pair tracks
/// what the variable-arity check op costs as the degree grows.
///
/// The `_pgo` points run the same transformed modules with the check
/// sites a deterministic armed sweep found useless dropped
/// ([`armed_usefulness`]).
fn workloads() -> Vec<Workload> {
    let scale = if smoke() { 1 } else { 4 };
    let victim = micro::resize_victim(16 * scale, 12 * scale);
    let scrub = micro::table_scrub(64 * scale, 32 * scale);
    let dpmr_k1 = transform(&victim, &DpmrConfig::sds()).expect("transform");
    let dpmr_k2 = transform(&victim, &DpmrConfig::sds().with_replicas(2)).expect("transform");
    let scrub_k2 = transform(&scrub, &DpmrConfig::sds().with_replicas(2)).expect("transform");
    let reg = Rc::new(registry_with_wrappers());
    let pgo = |m: &Module| {
        let code = Rc::new(lower(m));
        let cfg = PassConfig::none().with_profile(ProfileGuided {
            usefulness: armed_usefulness(m, &code, &reg),
            threshold: 0.0,
        });
        Some(Rc::new(optimize(&code, &cfg).code))
    };
    let plain = |name, module| Workload {
        name,
        module,
        code: None,
        wrappers: false,
    };
    vec![
        plain("linked_list", micro::linked_list(50 * scale)),
        plain("qsort", micro::qsort_prog(12 * scale)),
        plain("resize_victim", victim),
        Workload {
            name: "dpmr_check_k1",
            module: dpmr_k1.clone(),
            code: None,
            wrappers: true,
        },
        Workload {
            name: "dpmr_check_k2",
            module: dpmr_k2.clone(),
            code: None,
            wrappers: true,
        },
        Workload {
            name: "dpmr_check_k1_pgo",
            code: pgo(&dpmr_k1),
            module: dpmr_k1,
            wrappers: true,
        },
        Workload {
            name: "dpmr_check_k2_pgo",
            code: pgo(&dpmr_k2),
            module: dpmr_k2,
            wrappers: true,
        },
        // The scrub pair is the optimizer's acceptance point: a
        // checked-memory-traffic-dense kernel where profile-guided site
        // selection has the most surface.
        Workload {
            name: "dpmr_scrub_k2",
            module: scrub_k2.clone(),
            code: None,
            wrappers: true,
        },
        Workload {
            name: "dpmr_scrub_k2_pgo",
            code: pgo(&scrub_k2),
            module: scrub_k2,
            wrappers: true,
        },
    ]
}

/// One measured run (wrapper registry only for transformed workloads —
/// building it per run would be measured overhead, so it is shared; the
/// same goes for pre-lowered bytecode on the optimized points).
fn run_once(w: &Workload, registry: Option<&Rc<Registry>>) -> RunOutcome {
    let rc = RunConfig::default();
    match (&w.code, registry) {
        (Some(code), Some(r)) => {
            let args = rc.args.clone();
            Interp::with_code(&w.module, Rc::clone(code), &rc, Rc::clone(r)).run(args)
        }
        (Some(code), None) => {
            let args = rc.args.clone();
            let r = Rc::new(Registry::new());
            Interp::with_code(&w.module, Rc::clone(code), &rc, r).run(args)
        }
        (None, Some(r)) => run_with_registry(&w.module, &rc, Rc::clone(r)),
        (None, None) => run_with_limits(&w.module, &rc),
    }
}

fn throughput(c: &mut Criterion) {
    for w in workloads() {
        let reg = w.wrappers.then(|| Rc::new(registry_with_wrappers()));
        c.bench_function(format!("interp-throughput/{}", w.name), |b| {
            b.iter(|| run_once(&w, reg.as_ref()).instrs)
        });
    }
}

/// The trajectory file at the workspace root (two directories above this
/// crate), unless overridden by `BENCH_INTERP_JSON`.
fn trajectory_path() -> Option<std::path::PathBuf> {
    match std::env::var("BENCH_INTERP_JSON") {
        Ok(p) if p.is_empty() => None,
        Ok(p) => Some(p.into()),
        Err(_) => {
            Some(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_INTERP.json"))
        }
    }
}

/// Short git revision of the workspace and whether the tree had
/// uncommitted changes when measured, for trajectory points. Keeping the
/// dirty bit a separate field (instead of a `-dirty` rev suffix) leaves
/// `git_rev` always a real commit id, so trajectory tooling can join
/// points against history while still excluding mid-development points.
fn git_rev() -> (String, bool) {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return ("unknown".to_string(), true);
    };
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    (rev.trim().to_string(), dirty)
}

/// Appends one trajectory point as a JSON line.
fn persist_point(path: &std::path::Path, workload: &str, mips: f64, rev: &str, dirty: bool) {
    let mode = if smoke() { "smoke" } else { "full" };
    let line = format!(
        "{{\"workload\":\"{workload}\",\"mips\":{mips:.2},\"git_rev\":\"{rev}\",\"dirty\":{dirty},\"mode\":\"{mode}\"}}\n"
    );
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = res {
        eprintln!("[bench] could not append to {}: {e}", path.display());
    }
}

/// Prints the `BENCH_*` trajectory points, persists them to
/// `BENCH_INTERP.json`, and applies the optional seed-ratio gate (not a
/// criterion target shape; it takes the `Criterion` handle only to ride
/// in the same group).
fn trajectory(_c: &mut Criterion) {
    let budget = if smoke() {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(500)
    };
    let json = trajectory_path();
    let (rev, dirty) = git_rev();
    // A malformed ratio must fail loudly, not silently disable the gate.
    let min_ratio: Option<f64> = std::env::var("BENCH_ASSERT_RATIO").ok().map(|r| {
        r.parse()
            .unwrap_or_else(|e| panic!("BENCH_ASSERT_RATIO={r:?} is not a number: {e}"))
    });
    // Interleave the workloads round-robin instead of measuring each
    // to completion: host-load drift then hits every point about
    // equally, so the *ratios* between points (the thing the optimizer
    // acceptance gate and the trajectory comparisons consume) stay
    // meaningful even when absolute MIPS wobbles. Each round yields its
    // own MIPS sample per workload, and the recorded number is the
    // median of the rounds — a burst of host contention contaminates
    // the rounds it lands in without dragging the recorded point, where
    // a plain mean would absorb the full stall.
    const ROUNDS: u32 = 8;
    // (workload, registry, instrs per run, per-round (runs, seconds))
    type Point = (Workload, Option<Rc<Registry>>, u64, Vec<(u64, f64)>);
    let mut points: Vec<Point> = workloads()
        .into_iter()
        .map(|w| {
            let reg = w.wrappers.then(|| Rc::new(registry_with_wrappers()));
            let out = run_once(&w, reg.as_ref());
            assert!(
                matches!(out.status, ExitStatus::Normal(0)),
                "{}: bench run not clean: {:?}",
                w.name,
                out.status
            );
            (w, reg, out.instrs, Vec::with_capacity(ROUNDS as usize))
        })
        .collect();
    for _ in 0..ROUNDS {
        for (w, reg, per_run, rounds) in &mut points {
            let t0 = Instant::now();
            let mut runs = 0u64;
            while t0.elapsed() < budget / ROUNDS {
                let out = run_once(w, reg.as_ref());
                assert_eq!(out.instrs, *per_run, "{}: nondeterministic run", w.name);
                runs += 1;
            }
            rounds.push((runs, t0.elapsed().as_secs_f64()));
        }
    }
    for (w, _, per_run, rounds) in points {
        let name = w.name;
        let samples = rounds.len();
        let mut per_round: Vec<f64> = rounds
            .iter()
            .map(|(runs, secs)| (per_run * runs) as f64 / secs / 1.0e6)
            .collect();
        per_round.sort_by(f64::total_cmp);
        // Median (even count: mean of the middle pair).
        let mips = if samples % 2 == 1 {
            per_round[samples / 2]
        } else {
            (per_round[samples / 2 - 1] + per_round[samples / 2]) / 2.0
        };
        println!(
            "BENCH_INTERP_{}_MIPS={mips:.2}",
            name.to_uppercase().replace('-', "_")
        );
        if let Some(path) = &json {
            persist_point(path, name, mips, &rev, dirty);
        }
        if let Some(r) = min_ratio {
            let mode = if smoke() { "smoke" } else { "full" };
            match seed_baseline_mips(name) {
                Some(baseline) => assert!(
                    mips >= r * baseline,
                    "{name}: {mips:.2} MIPS regressed below {r} x seed baseline \
                     (workload {name:?}, mode {mode:?}, baseline {baseline:.2} MIPS \
                     from seed_baseline_mips)"
                ),
                None => eprintln!("[bench] {name}: no seed baseline recorded; ratio gate skipped"),
            }
        }
    }
}

criterion_group! {
    name = benches;
    config = {
        let mut c = Criterion::default();
        if std::env::var_os("BENCH_SMOKE").is_some() {
            c = c
                .sample_size(2)
                .warm_up_time(std::time::Duration::from_millis(10))
                .measurement_time(std::time::Duration::from_millis(30));
        } else {
            c = c
                .sample_size(10)
                .warm_up_time(std::time::Duration::from_millis(200))
                .measurement_time(std::time::Duration::from_millis(600));
        }
        c
    };
    targets = throughput, trajectory
}
criterion_main!(benches);
