//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload coverage --seed 42 --seconds 12 --trace 0
//! ```
//!
//! Sets the workload up several times (reporting the median as
//! `setup_s`), then runs passes over all of its units for `--seconds`,
//! checks outputs, determinism and engine parity, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 when a check fails, 2 on a
//! usage error.

use campaign_bench::campaign::{run_pass, Campaign, Pass};
use campaign_bench::record::{self, Record};
use campaign_bench::report::{
    host_overhead, host_speed, json_num, json_str, layer_times, median, peak_rss_mb, percentile,
    result_line, LayerTime, Metric, PassStats,
};
use campaign_bench::workloads::{Sizing, Workload};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: campaign-bench --workload <coverage|fault_campaign|rollback|long_run> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run: at least `MIN_SETUPS`, then more (up to `MAX_SETUPS`)
/// until `SETUP_BUDGET_S` seconds are spent; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;

/// The host speed (`report::host_speed`, M kernel iterations/s per
/// thread) that host times are scaled to.
const REF_HOST_SPEED: f64 = 60.0;

/// Units, and armed set-up runs, re-run on the plain dispatch loop for the
/// engine-parity check.
const PARITY_UNITS: usize = 8;

/// Workers the campaign's units fan over: at most this many, and at most
/// `nproc`.
const MAX_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::Coverage,
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    record::install_silent_panic_hook();
    std::process::exit(run(&args));
}

/// `(rev, dirty)` of the checkout, when it is a git work tree.
fn git_state() -> (String, String) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".into(), "unknown".into());
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .map_or_else(|| "unknown".into(), |s| (!s.is_empty()).to_string());
    (rev, dirty)
}

fn manifest(a: &Args, sizing: &Sizing, workers: usize, units: usize, setups: usize) -> String {
    let (rev, dirty) = git_state();
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"git_rev\": {}, \"dirty\": {}, \"nproc\": {}, \"workers\": {}, \
\"seed\": {}, \"scale\": {}, \"runs\": {}, \"max_sites\": {}, \"units\": {}, \"setups\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(a.workload.name()),
        json_str(&rev),
        json_str(&dirty),
        nproc(),
        workers,
        a.seed,
        sizing.scale,
        sizing.runs,
        sizing.max_sites.map_or_else(|| "null".to_string(), |c| c.to_string()),
        units,
        setups,
        json_num(a.seconds),
        a.trace
    )
}

fn run(a: &Args) -> i32 {
    let name = a.workload.name();
    let sizing = a.workload.sizing();

    // Set-up, repeated: at least `MIN_SETUPS` times and until
    // `SETUP_BUDGET_S` is spent, so even a millisecond set-up gets a
    // steady median. The last one is kept, and traced in a traced run.
    let mut setup_s = Vec::new();
    let mut kept: Option<Box<dyn Campaign>> = None;
    let mut setup_rec = Record::default();
    // The host speed on the set-up's thread around each set-up.
    let mut setup_speed = vec![host_speed(1)];
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(a.workload.setup(a.seed, &sizing));
        setup_s.push(t0.elapsed().as_secs_f64());
        record::take();
        setup_speed.push(host_speed(1));
    }
    let mut c = kept.expect("at least one set-up ran");
    let mut traced_setup_s = 0.0;
    if a.trace {
        drop(c);
        record::set_tracing(true);
        let t0 = Instant::now();
        c = a.workload.setup(a.seed, &sizing);
        traced_setup_s = t0.elapsed().as_secs_f64();
        record::set_tracing(false);
        setup_rec = record::take();
    }
    let units: Vec<usize> = (0..c.units()).collect();
    let workers = nproc().min(MAX_WORKERS).min(units.len()).max(1);
    println!(
        "{}",
        manifest(a, &sizing, workers, units.len(), setup_s.len())
    );

    // Campaign phase: whole passes until the time is up. A traced run
    // alternates untraced and traced passes and keeps them all; an
    // untraced run keeps only the first (for the parity check), so the
    // peak resident set does not grow with the pass count.
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut stats: Vec<PassStats> = Vec::new();
    loop {
        let traced = a.trace && stats.len() % 2 == 1;
        let before = host_speed(workers);
        let pass = run_pass(&*c, &units, workers, false, traced);
        let mut st = PassStats::of(&pass, name);
        st.host_speed = (before + host_speed(workers)) / 2.0;
        stats.push(st);
        if a.trace || passes.is_empty() {
            passes.push(pass);
        }
        if t0.elapsed().as_secs_f64() >= a.seconds && stats.len() >= if a.trace { 4 } else { 3 } {
            break;
        }
    }

    // Checks: one digest across passes, engine parity on a sample of
    // units and of the armed runs made during set-up, and golden outputs
    // from every clean transformed run.
    let deterministic = stats.iter().all(|s| s.digest == stats[0].digest);
    if !deterministic {
        let ds: Vec<String> = stats.iter().map(|s| format!("{:016x}", s.digest)).collect();
        println!(
            "CHECK FAILED determinism: pass digests differ: {}",
            ds.join(" ")
        );
    }
    let mut sample: Vec<usize> = (0..PARITY_UNITS)
        .map(|i| i * units.len() / PARITY_UNITS)
        .collect();
    sample.dedup();
    let plain = run_pass(&*c, &sample, workers, true, false);
    let mut parity_mismatches = 0;
    for (&u, out) in sample.iter().zip(&plain.units) {
        let threaded = &passes[0].units[u].trials;
        for (t, p) in threaded.iter().zip(&out.trials) {
            let (ft, fp) = match (&t.result, &p.result) {
                (Ok(a), Ok(b)) => (a.fingerprint(), b.fingerprint()),
                (a, b) => (format!("{a:?}"), format!("{b:?}")),
            };
            if ft != fp || t.key != p.key {
                parity_mismatches += 1;
                println!("CHECK FAILED engine parity: workload={name} {}\n  threaded: {ft}\n  plain:    {fp}", t.key);
            }
        }
        if threaded.len() != out.trials.len() {
            parity_mismatches += 1;
            println!("CHECK FAILED engine parity: unit {u} trial counts differ");
        }
    }
    let (setup_parity_runs, setup_mismatches) = c.setup_parity(PARITY_UNITS);
    for m in &setup_mismatches {
        parity_mismatches += 1;
        println!("CHECK FAILED engine parity: {m}");
    }
    for w in &stats[0].wrong_outputs {
        println!("CHECK FAILED golden output: {w}");
    }
    for f in &stats[0].failed {
        println!("FAILED TRIAL {f}");
    }
    let correct = deterministic && parity_mismatches == 0 && stats[0].wrong_outputs.is_empty();
    // The workload's distinct trials, counted once: every pass re-runs the
    // same trials (the digest check above proves it), so these counts
    // depend on the seed alone, not on how many passes fit in the time.
    let attempted = stats[0].trials;
    let failed = stats[0].failed.len() as u64;
    println!(
        "workload={name} passes={} trials/pass={} failed/pass={} digest={:016x} parity_units={} parity_setup_runs={setup_parity_runs} correct={correct}",
        stats.len(),
        stats[0].trials,
        stats[0].failed.len(),
        stats[0].digest,
        sample.len()
    );

    if a.workload == Workload::LongRun {
        // Per-build interpreter speed: the successor of the legacy
        // BENCH_INTERP points (see README.md for the mapping).
        for (i, run) in stats[0].clean.iter().enumerate() {
            let label = &run.label;
            let mips: Vec<f64> = stats
                .iter()
                .map(|s| s.clean[i].instrs as f64 * 1e3 / s.clean[i].host_ns.max(1) as f64)
                .collect();
            println!(
                "clean run {label:<48} {:>9.2} MIPS (median of {})",
                median(&mips),
                mips.len()
            );
        }
    }
    let walls: Vec<String> = stats.iter().map(|s| format!("{:.3}", s.wall_s)).collect();
    println!("pass wall (s): {}", walls.join(" "));
    let metrics = if a.trace {
        per_layer(a, &passes, &stats, &setup_rec, traced_setup_s, workers)
    } else {
        end_to_end(&*c, &stats, &setup_s, &setup_speed)
    };
    for m in &metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    let _ = std::io::stdout().flush();
    i32::from(!correct)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics. Host times are scaled to a host of
/// `REF_HOST_SPEED` by the host speed measured around the same work (the
/// raw figures are printed alongside): on a shared host the effective
/// speed drifts by tens of percent between runs, which would otherwise
/// swamp every change worth measuring.
fn end_to_end(
    c: &dyn Campaign,
    stats: &[PassStats],
    setup_s: &[f64],
    setup_speed: &[f64],
) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&PassStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    let trials_per_s = |s: &PassStats| s.trials as f64 / s.wall_s;
    let mips = |s: &PassStats| s.instrs as f64 / s.counted_wall_s() / 1e6;
    println!(
        "raw: setup_s={:.6} trials_per_s={:.2} guest_mips={:.2} host_speed setup={:.1} passes={:.1} (ref {REF_HOST_SPEED})",
        median(setup_s),
        per_pass(&trials_per_s),
        per_pass(&mips),
        median(setup_speed),
        per_pass(&|s| s.host_speed)
    );
    // Each set-up is scaled by the mean of the readings taken just
    // before and just after it.
    let scaled_setups: Vec<f64> = setup_s
        .iter()
        .zip(setup_speed.windows(2))
        .map(|(t, w)| t * (w[0] + w[1]) / 2.0 / REF_HOST_SPEED)
        .collect();
    let (sd, sf) = c.setup_detections();
    let s0 = &stats[0];
    vec![
        metric("setup_s", median(&scaled_setups), "s"),
        metric(
            "trials_per_s",
            per_pass(&|s| trials_per_s(s) * REF_HOST_SPEED / s.host_speed),
            "trials/s",
        ),
        metric(
            "guest_mips",
            per_pass(&|s| mips(s) * REF_HOST_SPEED / s.host_speed),
            "Minstr/s",
        ),
        metric("host_overhead", host_overhead(stats), "x"),
        metric("vcycle_overhead", s0.vcycle_overhead, "x"),
        metric(
            "detect_ratio",
            ratio((s0.detected + sd) as f64, (s0.fired + sf) as f64),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Merges the records of a pass's units.
fn pass_record(p: &Pass) -> Record {
    let mut rec = Record::default();
    let mut base = 0u32;
    for u in &p.units {
        let n = u32::try_from(u.trials.len()).expect("trial count fits u32");
        rec.absorb(&u.rec, base);
        base += n;
    }
    rec
}

#[allow(clippy::too_many_lines)]
fn per_layer(
    a: &Args,
    passes: &[Pass],
    stats: &[PassStats],
    setup_rec: &Record,
    setup_wall_s: f64,
    workers: usize,
) -> Vec<Metric> {
    let traced: Vec<usize> = (0..passes.len()).filter(|&i| passes[i].traced).collect();
    let untraced: Vec<usize> = (0..passes.len()).filter(|&i| !passes[i].traced).collect();
    let nt = traced.len() as f64;

    // Layer times: one set-up plus the mean traced pass.
    let (setup_layers, setup_roots) = layer_times(setup_rec);
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut pass_roots = 0u64;
    let mut pass_wall_ns = 0u64;
    for &i in &traced {
        let rec = pass_record(&passes[i]);
        let (l, roots) = layer_times(&rec);
        pass_roots += roots;
        pass_wall_ns += passes[i].wall_ns;
        for (k, v) in l {
            let e = layers.entry(k).or_default();
            e.total_ns += v.total_ns;
            e.self_ns += v.self_ns;
            e.calls += v.calls;
            e.per_call.extend(v.per_call);
        }
    }
    let names: Vec<&'static str> = setup_layers
        .keys()
        .chain(layers.keys())
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let ms = |ns: u64| ns as f64 * 1e-6;
    let layer_ms = |n: &str, total: bool| {
        let pick =
            |l: Option<&LayerTime>| l.map_or(0, |l| if total { l.total_ns } else { l.self_ns });
        ms(pick(setup_layers.get(n))) + ms(pick(layers.get(n))) / nt
    };
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "layer (setup + mean traced pass)", "calls", "total_ms", "self_ms", "p50_us", "p99_us"
    );
    for n in &names {
        let calls = setup_layers.get(n).map_or(0, |l| l.calls) as f64
            + layers.get(n).map_or(0, |l| l.calls) as f64 / nt;
        let per_call: Vec<f64> = layers.get(n).map_or_else(Vec::new, |l| {
            l.per_call.iter().map(|&d| d as f64 * 1e-3).collect()
        });
        println!(
            "{:<24} {:>10.1} {:>12.3} {:>12.3} {:>12.1} {:>12.1}",
            n,
            calls,
            layer_ms(n, true),
            layer_ms(n, false),
            percentile(&per_call, 50.0),
            percentile(&per_call, 99.0)
        );
    }
    let self_sum: f64 = names.iter().map(|n| layer_ms(n, false)).sum();
    let pct = |n: &str| 100.0 * ratio(layer_ms(n, false), self_sum);
    let run_us: Vec<f64> = layers.get("interp.run").map_or_else(Vec::new, |l| {
        l.per_call.iter().map(|&d| d as f64 * 1e-3).collect()
    });
    let setup_uncovered = 100.0 * (1.0 - ratio(ms(setup_roots), setup_wall_s * 1e3));
    let uncovered = 100.0 * (1.0 - ratio(pass_roots as f64, pass_wall_ns as f64 * workers as f64));
    println!("set-up wall not covered by a span: {setup_uncovered:.2}%");

    // Counts: one set-up plus one pass.
    let mut rec = Record::default();
    rec.add_counts(setup_rec);
    for u in &passes[untraced[0]].units {
        rec.add_counts(&u.rec);
    }
    let n = |k: &str| rec.count(k) as f64;
    let s0 = &stats[untraced[0]];
    let med = |idx: &[usize], f: &dyn Fn(usize) -> f64| {
        median(&idx.iter().map(|&i| f(i)).collect::<Vec<_>>())
    };
    let unit_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|&i| stats[i].unit_ms.iter().copied())
        .collect();
    let trace_overhead = ratio(
        med(&traced, &|i| stats[i].wall_s),
        med(&untraced, &|i| stats[i].wall_s),
    );
    let run_self_s = layers
        .get("interp.run")
        .map_or(0.0, |l| l.self_ns as f64 * 1e-9)
        / nt
        + setup_layers
            .get("interp.run")
            .map_or(0.0, |l| l.self_ns as f64 * 1e-9);
    write_spans(&spans_path(a.workload), setup_rec, &passes[traced[0]]);
    vec![
        metric(
            "workloads.build_ms",
            layer_ms("workloads.build", false),
            "ms",
        ),
        metric(
            "experiment.prepare_ms",
            layer_ms("experiment.prepare", true),
            "ms",
        ),
        metric("transform.ms", layer_ms("transform", false), "ms"),
        metric("lower.ms", layer_ms("lower", false), "ms"),
        metric("interp.new_ms", layer_ms("interp.new", false), "ms"),
        metric("interp.run_ms", layer_ms("interp.run", false), "ms"),
        metric("interp.run_p50_us", percentile(&run_us, 50.0), "us"),
        metric("interp.run_p99_us", percentile(&run_us, 99.0), "us"),
        metric("fi.enumerate_ms", layer_ms("fi.enumerate", false), "ms"),
        metric("opt.self_pct", pct("opt"), "%"),
        metric("fi.inject_self_pct", pct("fi.inject"), "%"),
        metric("recovery.repair_self_pct", pct("recovery.repair"), "%"),
        metric("recovery.vote_self_pct", pct("recovery.vote"), "%"),
        metric("recovery.retry_self_pct", pct("recovery.retry"), "%"),
        metric(
            "recovery.retry_mid_self_pct",
            pct("recovery.retry_mid"),
            "%",
        ),
        metric("recovery.failstop_self_pct", pct("recovery.failstop"), "%"),
        metric("transform.calls", n("transform.calls"), "count"),
        metric(
            "transform.ir_growth",
            ratio(n("transform.ir_out"), n("transform.ir_in")),
            "x",
        ),
        metric("lower.ops", n("lower.ops"), "count"),
        metric("lower.check_sites", n("lower.check_sites"), "count"),
        metric("opt.elided", n("opt.elided"), "count"),
        metric("opt.fused", n("opt.fused"), "count"),
        metric("opt.dropped", n("opt.dropped"), "count"),
        metric("interp.instrs", n("interp.instrs"), "count"),
        metric("interp.vcycles", n("interp.vcycles"), "count"),
        metric(
            "interp.mips",
            ratio(n("interp.run_instrs"), run_self_s) * 1e-6,
            "Minstr/s",
        ),
        metric(
            "mem.heap_brk_bytes",
            rec.maximum("mem.heap_brk_bytes") as f64,
            "bytes",
        ),
        metric(
            "mem.stack_hw_bytes",
            rec.maximum("mem.stack_hw_bytes") as f64,
            "bytes",
        ),
        metric("alloc.mallocs", n("alloc.mallocs"), "count"),
        metric("alloc.frees", n("alloc.frees"), "count"),
        metric("alloc.bytes", n("alloc.bytes"), "bytes"),
        metric("fi.sites", n("fi.sites"), "count"),
        metric(
            "fault.fired_ratio",
            ratio(n("fault.fired"), n("fault.armed")),
            "ratio",
        ),
        metric("fault.hits", n("fault.hits"), "count"),
        metric("check.detections", n("check.detections"), "count"),
        metric("recovery.attempts", n("recovery.attempts"), "count"),
        metric(
            "recovery.replayed_runs",
            n("recovery.replayed_runs"),
            "count",
        ),
        metric("recovery.repairs", n("recovery.repairs"), "count"),
        metric(
            "recovery.replica_repairs",
            n("recovery.replica_repairs"),
            "count",
        ),
        metric(
            "recovery.ttr_vcycles",
            ratio(n("recovery.ttr_vcycles"), n("recovery.ttr_n")),
            "vcycles",
        ),
        metric(
            "recovered_ratio",
            ratio(s0.recovered as f64, s0.recovery_detected as f64),
            "ratio",
        ),
        metric(
            "trial_fail_ratio",
            ratio(s0.failed.len() as f64, s0.trials as f64),
            "ratio",
        ),
        metric(
            "sched.busy_ratio",
            med(&untraced, &|i| {
                ratio(stats[i].busy_s, stats[i].wall_s * workers as f64)
            }),
            "ratio",
        ),
        metric("sched.unit_ms_p50", percentile(&unit_ms, 50.0), "ms"),
        metric("sched.unit_ms_p99", percentile(&unit_ms, 99.0), "ms"),
        metric(
            "sched.idle_ms",
            med(&untraced, &|i| {
                (stats[i].wall_s * workers as f64 - stats[i].busy_s) * 1e3
            }),
            "ms",
        ),
        metric("trace.overhead", trace_overhead, "x"),
        metric("trace.uncovered_pct", uncovered, "%"),
    ]
}

/// `$CARGO_TARGET_DIR/campaign-spans-<workload>.jsonl`, or under
/// `campaign_bench/target` when the variable is unset.
fn spans_path(w: Workload) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("campaign_bench/target"), PathBuf::from)
        .join(format!("campaign-spans-{}.jsonl", w.name()))
}

/// Writes the traced set-up's spans and one traced pass's spans, one JSON
/// object per line; spans of a trial carry its replay key.
fn write_spans(path: &std::path::Path, setup: &Record, pass: &Pass) {
    let mut out = String::new();
    let mut line = |phase: &str, rec: &Record, keys: &[String]| {
        for s in &rec.spans {
            let key = s
                .trial
                .and_then(|t| keys.get(t as usize))
                .map_or_else(|| "null".to_string(), |k| json_str(k));
            out.push_str(&format!(
                "{{\"phase\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"key\": {}}}\n",
                json_str(phase),
                json_str(s.name),
                s.start,
                s.end,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                key
            ));
        }
    };
    line("setup", setup, &[]);
    let keys: Vec<String> = pass
        .units
        .iter()
        .flat_map(|u| u.trials.iter().map(|t| t.key.to_string()))
        .collect();
    line("pass", &pass_record(pass), &keys);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, out));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
