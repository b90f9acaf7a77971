//! Reduction of passes to metrics, and the output formats.

use crate::campaign::{digest, Kind, Pass, Trial};
use crate::record::Record;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// What one pass amounts to.
pub struct PassStats {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Trials attempted.
    pub trials: u64,
    /// Trials that panicked, with their keys and messages.
    pub failed: Vec<String>,
    /// Digest of every trial's key and verdict.
    pub digest: u64,
    /// Guest instructions retired, outside replayed recovery runs.
    pub instrs: u64,
    /// Host time of replayed recovery runs, seconds (`layers::recover`).
    pub replayed_s: f64,
    /// Geomean over (app, transformed build) of clean virtual-cycle ratios.
    pub vcycle_overhead: f64,
    /// DPMR-detected fired trials of DPMR builds.
    pub detected: u64,
    /// Fired trials of DPMR builds.
    pub fired: u64,
    /// Trials whose recovery verdict is "recovered with correct output".
    pub recovered: u64,
    /// Trials that ran a recovery leg or recovery run and were detected.
    pub recovery_detected: u64,
    /// Clean runs whose output differed from the golden output.
    pub wrong_outputs: Vec<String>,
    /// Summed unit busy time, seconds.
    pub busy_s: f64,
    /// Per-unit busy times, milliseconds.
    pub unit_ms: Vec<f64>,
    /// Every clean run (untransformed and transformed), in unit order.
    pub clean: Vec<CleanRun>,
    /// Host speed around the pass ([`host_speed`]).
    pub host_speed: f64,
}

impl PassStats {
    /// Reduces `pass`.
    pub fn of(pass: &Pass, workload: &str) -> PassStats {
        let trials: Vec<&Trial> = pass.units.iter().flat_map(|u| &u.trials).collect();
        let mut golden: BTreeMap<&str, f64> = BTreeMap::new();
        for t in &trials {
            if let (Kind::Golden, Ok(v)) = (t.kind, &t.result) {
                golden.insert(t.key.app, v.m.cycles as f64);
            }
        }
        let mut vcyc = Vec::new();
        let mut s = PassStats {
            wall_s: pass.wall_ns as f64 * 1e-9,
            trials: trials.len() as u64,
            failed: Vec::new(),
            digest: digest(trials.iter().copied()),
            instrs: pass
                .units
                .iter()
                .map(|u| u.rec.count("interp.instrs"))
                .sum(),
            replayed_s: pass
                .units
                .iter()
                .map(|u| u.rec.count("recovery.replayed_ns") as f64 * 1e-9)
                .sum(),
            vcycle_overhead: 0.0,
            detected: 0,
            fired: 0,
            recovered: 0,
            recovery_detected: 0,
            wrong_outputs: Vec::new(),
            busy_s: pass.units.iter().map(|u| u.busy_ns as f64 * 1e-9).sum(),
            unit_ms: pass.units.iter().map(|u| u.busy_ns as f64 * 1e-6).collect(),
            clean: Vec::new(),
            host_speed: 0.0,
        };
        for t in &trials {
            let v = match &t.result {
                Ok(v) => v,
                Err(f) => {
                    s.failed
                        .push(format!("workload={workload} {} :: {f}", t.key));
                    continue;
                }
            };
            match t.kind {
                Kind::Golden | Kind::Clean => {
                    s.clean.push(CleanRun {
                        label: format!("{} {} {}", t.key.study, t.key.app, t.key.cfg),
                        app: t.key.app,
                        golden: t.kind == Kind::Golden,
                        host_ns: v.host_ns,
                        instrs: v.m.instrs,
                    });
                    if !v.output_ok {
                        s.wrong_outputs
                            .push(format!("workload={workload} {} status={}", t.key, v.status));
                    }
                    if let (Kind::Clean, Some(&gc)) = (t.kind, golden.get(t.key.app)) {
                        vcyc.push(v.m.cycles as f64 / gc);
                    }
                }
                Kind::Dpmr if v.m.sf => {
                    s.fired += 1;
                    s.detected += u64::from(v.detected);
                    if let (true, Some(r)) = (v.detected, &v.recovery) {
                        s.recovery_detected += 1;
                        s.recovered += u64::from(r.recovered_correct);
                    }
                }
                Kind::Dpmr | Kind::Stdapp => {}
            }
        }
        s.vcycle_overhead = geomean(&vcyc);
        s
    }

    /// The part of the pass's wall time, seconds, whose guest instructions
    /// are counted: all of it less the busy share of replayed recovery
    /// runs.
    pub fn counted_wall_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.wall_s * (1.0 - self.replayed_s / self.busy_s)
        } else {
            self.wall_s
        }
    }
}

/// One clean run's host-side figures.
pub struct CleanRun {
    /// `study app cfg`.
    pub label: String,
    /// Application.
    pub app: &'static str,
    /// The untransformed program (else a transformed build).
    pub golden: bool,
    /// Host time of `Interp::run`.
    pub host_ns: u64,
    /// Guest instructions retired.
    pub instrs: u64,
}

/// Geomean over (app, transformed build) of the build's median clean host
/// time over the untransformed program's, each taken over all `passes`
/// (the runs are short, so a burst of host interference can hit any one
/// of them; the median ignores it).
pub fn host_overhead(passes: &[PassStats]) -> f64 {
    let mut golden: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut built: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for r in passes.iter().flat_map(|p| &p.clean) {
        let times = if r.golden {
            golden.entry(r.app).or_default()
        } else {
            built.entry((r.app, r.label.as_str())).or_default()
        };
        times.push(r.host_ns as f64);
    }
    let ratios: Vec<f64> = built
        .iter()
        .filter_map(|(&(app, _), b)| golden.get(app).map(|g| median(b) / median(g)))
        .collect();
    geomean(&ratios)
}

/// Per-layer timing from the spans of traced work.
#[derive(Default, Clone)]
pub struct LayerTime {
    /// Summed inclusive span time, ns.
    pub total_ns: u64,
    /// Summed self time (inclusive minus child spans), ns.
    pub self_ns: u64,
    /// Span count.
    pub calls: u64,
    /// Inclusive time of each call, ns.
    pub per_call: Vec<u64>,
}

/// Per-layer span times of `rec`, and the summed duration of its root
/// spans.
pub fn layer_times(rec: &Record) -> (BTreeMap<&'static str, LayerTime>, u64) {
    let mut child_ns = vec![0u64; rec.spans.len()];
    let mut roots = 0u64;
    for s in &rec.spans {
        let d = s.end.saturating_sub(s.start);
        match s.parent {
            Some(p) => child_ns[p as usize] += d,
            None => roots += d,
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, c) in rec.spans.iter().zip(child_ns) {
        let d = s.end.saturating_sub(s.start);
        let l = out.entry(s.name).or_default();
        l.total_ns += d;
        l.self_ns += d.saturating_sub(c);
        l.calls += 1;
        l.per_call.push(d);
    }
    (out, roots)
}

/// Peak resident set of this process, MB (Linux `VmHWM`; 0 elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of the host-speed kernel per timing.
const CAL_ITERS: u64 = 1_000_000;

/// A fixed kernel independent of the program under test, shaped like an
/// interpreter's inner loop: a dispatch `match` over a random 64 Ki-op
/// program, a 16-register file, loads and stores into a 256 KiB memory,
/// and data-dependent branches.
fn calibration_kernel(iters: u64) -> u64 {
    const OPS: usize = 1 << 16;
    const MEM: usize = 1 << 15;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let code: Vec<(u8, u8, u8)> = (0..OPS)
        .map(|_| {
            let r = next();
            (
                (r % 10) as u8,
                ((r >> 8) & 15) as u8,
                ((r >> 16) & 15) as u8,
            )
        })
        .collect();
    let mut mem = vec![0u64; MEM];
    let mut regs = [0u64; 16];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = next() ^ i as u64;
    }
    let mut pc = 0usize;
    for _ in 0..iters {
        let (op, a, b) = code[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^= regs[b].rotate_left(7),
            2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            3 | 4 => regs[a] = mem[(regs[b] as usize) & (MEM - 1)],
            5 | 6 => mem[(regs[a] as usize) & (MEM - 1)] = regs[b],
            7 => regs[a] = regs[b] >> (regs[a] & 31),
            8 => {
                if regs[a] & 1 == 0 {
                    pc = (pc + (regs[b] as usize & 255)) & (OPS - 1);
                }
            }
            _ => regs[a] = regs[a].wrapping_sub(regs[b] ^ pc as u64),
        }
        pc = (pc + 1) & (OPS - 1);
    }
    regs.iter().fold(0, |h, r| h ^ r)
}

/// The host's current speed: million kernel iterations per second, the
/// median over `workers` threads running the kernel at once (as the
/// campaign's workers do).
pub fn host_speed(workers: usize) -> f64 {
    let rates: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(calibration_kernel(std::hint::black_box(CAL_ITERS)));
                    CAL_ITERS as f64 / t0.elapsed().as_secs_f64() / 1e6
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    median(&rates)
}

/// One named metric value with its unit.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let ms: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ms.join(", ")
    )
}
