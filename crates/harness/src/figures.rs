//! Table/figure emitters: one function per paper artifact, printing the
//! same rows/series the dissertation reports (ASCII renderings of the
//! stacked-bar figures and latency tables).

use crate::metrics::{
    FaultCampaignResults, OptStudyResults, RecoveryStudyResults, ReplicationStudyResults,
    SiteProfileResults, StudyResults, TraceStudyResults,
};
use std::fmt::Write as _;

fn bar(frac: f64, width: usize) -> String {
    let n = (frac * width as f64).round().clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

/// Renders a coverage figure (the stacked CO/NatDet/DpmrDet bars of
/// Figs. 3.6/3.7, 3.11/3.12, 4.7/4.8, 4.11/4.12) for one fault type.
pub fn coverage_figure(title: &str, res: &StudyResults, fault: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<18} {:<7} {:>6} {:>7} {:>8} {:>9}  stacked (CO=#, Nat=+, Dpmr=*)",
        "variant", "app", "CO", "NatDet", "DpmrDet", "coverage"
    );
    for v in &res.variants {
        for a in &res.apps {
            let key = (v.clone(), a.clone(), fault.to_string());
            let Some(c) = res.coverage.get(&key) else {
                continue;
            };
            let sco = bar(c.co_frac(), 20);
            let snd = "+".repeat((c.ndet_frac() * 20.0).round() as usize);
            let sdd = "*".repeat((c.ddet_frac() * 20.0).round() as usize);
            let _ = writeln!(
                out,
                "{:<18} {:<7} {:>6.2} {:>7.2} {:>8.2} {:>9.2}  |{sco}{snd}{sdd}|",
                v,
                a,
                c.co_frac(),
                c.ndet_frac(),
                c.ddet_frac(),
                c.coverage()
            );
        }
    }
    out
}

/// Renders a conditional-coverage figure (Figs. 3.8/3.9, 3.13/3.14,
/// 4.9/4.10, 4.13/4.14): combined across apps, conditioned on
/// `StdNotAllDet`.
pub fn conditional_figure(title: &str, res: &StudyResults, fault: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>7} {:>8} {:>9}",
        "variant", "CO", "NatDet", "DpmrDet", "coverage"
    );
    for v in &res.variants {
        let key = (v.clone(), fault.to_string());
        let Some(c) = res.conditional.get(&key) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<18} {:>6.2} {:>7.2} {:>8.2} {:>9.2}",
            v,
            c.co_frac(),
            c.ndet_frac(),
            c.ddet_frac(),
            c.coverage()
        );
    }
    out
}

/// Renders an overhead figure (Figs. 3.10, 3.15, 4.5, 4.6): execution-time
/// ratio to the golden build per variant and app.
pub fn overhead_figure(title: &str, res: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:<18}", "variant");
    for a in &res.apps {
        let _ = write!(header, " {a:>8}");
    }
    let _ = writeln!(out, "{header}");
    let _ = write!(out, "{:<18}", "golden");
    for _ in &res.apps {
        let _ = write!(out, " {:>7.2}x", 1.0);
    }
    let _ = writeln!(out);
    for v in &res.variants {
        if v == "stdapp" {
            continue;
        }
        let _ = write!(out, "{v:<18}");
        for a in &res.apps {
            match res.overhead.get(&(v.clone(), a.clone())) {
                Some(o) => {
                    let _ = write!(out, " {o:>7.2}x");
                }
                None => {
                    let _ = write!(out, " {:>8}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders side-by-side overheads of two studies (Figs. 4.3 and 4.4).
pub fn side_by_side_overhead(
    title: &str,
    sds: &StudyResults,
    mds: &StudyResults,
    variants: &[String],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:<18}", "variant");
    for a in &sds.apps {
        let _ = write!(header, " {:>8}/sds {:>8}/mds", a, a);
    }
    let _ = writeln!(out, "{header}");
    for v in variants {
        let _ = write!(out, "{v:<18}");
        for a in &sds.apps {
            let s = sds.overhead.get(&(v.clone(), a.clone()));
            let m = mds.overhead.get(&(v.clone(), a.clone()));
            match (s, m) {
                (Some(s), Some(m)) => {
                    let _ = write!(out, " {s:>11.2} {m:>11.2}");
                }
                _ => {
                    let _ = write!(out, " {:>11} {:>11}", "-", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a mean-time-to-detection table (Tables 3.3, 3.4, 4.5, 4.6):
/// milliseconds per variant × app, split by fault type.
pub fn mttd_table(title: &str, res: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for fault in ["heap array resize 50%", "immediate free"] {
        let _ = writeln!(out, "  [{fault}]");
        let mut header = format!("  {:<18}", "variant");
        for a in &res.apps {
            let _ = write!(header, " {a:>9}");
        }
        let _ = writeln!(out, "{header} (msecs)");
        for v in &res.variants {
            if v == "stdapp" {
                continue;
            }
            let _ = write!(out, "  {v:<18}");
            for a in &res.apps {
                let key = (v.clone(), a.clone(), fault.to_string());
                match res.coverage.get(&key).and_then(|c| c.mttd_msec()) {
                    Some(ms) => {
                        let _ = write!(out, " {ms:>9.2}");
                    }
                    None => {
                        let _ = write!(out, " {:>9}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Renders the recovery table (Table R.1): per policy x app x fault,
/// recovery success rate, repairs and replays per run, and mean
/// time-to-recovery in virtual cycles.
pub fn recovery_table(title: &str, res: &RecoveryStudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for fault in ["heap array resize 50%", "immediate free"] {
        let _ = writeln!(out, "  [{fault}]");
        let _ = writeln!(
            out,
            "  {:<14} {:<7} {:>5} {:>7} {:>7} {:>9} {:>9} {:>9} {:>12}",
            "policy", "app", "n", "recov", "wrong", "failstop", "rep/run", "rtr/run", "t2r(cyc)"
        );
        for pol in &res.policies {
            for app in &res.apps {
                let key = (pol.clone(), app.clone(), fault.to_string());
                let Some(a) = res.agg.get(&key) else {
                    continue;
                };
                let t2r = match a.mean_t2r_cycles() {
                    Some(c) => format!("{c:.0}"),
                    None => "-".into(),
                };
                let _ = writeln!(
                    out,
                    "  {:<14} {:<7} {:>5} {:>7.2} {:>7.2} {:>9} {:>9.2} {:>9.2} {:>12}",
                    pol,
                    app,
                    a.n,
                    a.success_rate(),
                    if a.n == 0 {
                        0.0
                    } else {
                        f64::from(a.survived_wrong) / f64::from(a.n)
                    },
                    a.fail_stops,
                    a.repairs_per_run(),
                    a.retries_per_run(),
                    t2r
                );
            }
        }
    }
    out
}

/// Renders the runtime fault-campaign table (Table F.1): per fault class
/// x app, fired trials, detection split (DPMR vs natural), escape,
/// benign, and timeout rates, recovery success, and mean detection
/// latency in virtual cycles. Rates are fractions of *fired* trials
/// (dpmr + nat + escape + benign + t/o accounts for every fired trial);
/// (class, app) pairs with zero eligible sites are omitted.
pub fn fault_campaign_table(title: &str, res: &FaultCampaignResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<16} {:<8} {:>6} {:>6} {:>6} {:>5} {:>7} {:>7} {:>5} {:>6} {:>13}",
        "fault class",
        "app",
        "trials",
        "fired",
        "dpmr",
        "nat",
        "escape",
        "benign",
        "t/o",
        "recov",
        "latency(cyc)"
    );
    for class in &res.classes {
        for app in &res.apps {
            let key = (class.clone(), app.clone());
            let Some(a) = res.agg.get(&key) else {
                continue;
            };
            let latency = match a.mean_latency_cycles() {
                Some(c) => format!("{c:.0}"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "  {:<16} {:<8} {:>6} {:>6} {:>6.2} {:>5.2} {:>7.2} {:>7.2} {:>5.2} {:>6.2} {:>13}",
                class,
                app,
                a.trials,
                a.fired,
                a.dpmr_rate(),
                a.natural_rate(),
                a.escape_rate(),
                a.benign_rate(),
                a.timeout_rate(),
                a.recovery_rate(),
                latency
            );
        }
    }
    if !res.replica_differential.is_empty() {
        out.push_str(&replica_differential_section(res));
    }
    out
}

/// Renders the replication-degree table (Table V.1): per (K x diversity)
/// variant and app, overhead, and per fault class the detection split,
/// silent-escape rate, repair success, mis-repair rate, and the combined
/// unrecoverable rate (escapes + mis-repairs) the degree sweep is about.
pub fn replication_table(title: &str, res: &ReplicationStudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  [overhead vs golden]");
    let mut header = format!("  {:<22}", "variant");
    for a in &res.apps {
        let _ = write!(header, " {a:>8}");
    }
    let _ = writeln!(out, "{header}");
    for v in &res.variants {
        let _ = write!(out, "  {v:<22}");
        for a in &res.apps {
            match res.overhead.get(&(v.clone(), a.clone())) {
                Some(o) => {
                    let _ = write!(out, " {o:>7.2}x");
                }
                None => {
                    let _ = write!(out, " {:>8}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    for class in &res.classes {
        let _ = writeln!(out, "  [{class}]");
        let _ = writeln!(
            out,
            "  {:<22} {:<8} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6} {:>7}",
            "variant", "app", "trials", "fired", "det", "escape", "recov", "wrong", "unrecov"
        );
        for v in &res.variants {
            for a in &res.apps {
                let key = (v.clone(), a.clone(), class.clone());
                let Some(g) = res.agg.get(&key) else {
                    continue;
                };
                let _ = writeln!(
                    out,
                    "  {:<22} {:<8} {:>6} {:>6} {:>6.2} {:>7.2} {:>6.2} {:>6.2} {:>7.2}",
                    v,
                    a,
                    g.trials,
                    g.fired,
                    g.detection_rate(),
                    g.escape_rate(),
                    g.recovery_rate(),
                    g.wrong_repair_rate(),
                    g.unrecoverable_rate()
                );
            }
        }
    }
    out
}

/// Renders the K = 1 vs K = 2 replica-region differential appended to
/// Table F.1: per app, side-by-side escape / recovery / mis-repair /
/// unrecoverable rates on heap bit-flips armed at replica accesses —
/// the corruption class where single-replica repair must trust the
/// corrupted copy and vote-based arbitration does not.
pub fn replica_differential_section(res: &FaultCampaignResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  [replica-region bit-flips: K=1 repair-from-replica vs K=2 vote-and-repair]"
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>3} {:>6} {:>6} {:>7} {:>6} {:>6} {:>7}",
        "app", "K", "trials", "fired", "escape", "recov", "wrong", "unrecov"
    );
    for (app, (k1, k2)) in &res.replica_differential {
        for (k, g) in [(1, k1), (2, k2)] {
            let _ = writeln!(
                out,
                "  {:<8} {:>3} {:>6} {:>6} {:>7.2} {:>6.2} {:>6.2} {:>7.2}",
                app,
                k,
                g.trials,
                g.fired,
                g.escape_rate(),
                g.recovery_rate(),
                g.wrong_repair_rate(),
                g.unrecoverable_rate()
            );
        }
    }
    out
}

/// Renders the check-site profile table (profS.1): per app and check
/// site, clean-run execution counts and check-cycle shares next to the
/// armed-sweep detection/repair counters, classified hot/warm/cold by
/// execution share and flagged `useful`/`never` by whether the site ever
/// detected an injected fault. A per-function execution profile and the
/// simulated region footprint follow each app's site rows.
pub fn site_profile_table(title: &str, res: &SiteProfileResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for app in &res.apps {
        let Some(p) = res.profiles.get(app) else {
            continue;
        };
        let total_execs: u64 = p.clean.iter().map(|s| s.executions).sum();
        let _ = writeln!(
            out,
            "  [{app}: {} sites, {} clean check execs, {} armed trials]",
            p.site_pcs.len(),
            total_execs,
            p.trials
        );
        let _ = writeln!(
            out,
            "  {:<5} {:>6} {:<14} {:>9} {:>6} {:>10} {:>7} {:>7} {:>7} {:>5} {:>7}",
            "site",
            "pc",
            "func",
            "execs",
            "share",
            "chk-cyc",
            "det",
            "repair",
            "r-rep",
            "term",
            "class"
        );
        for site in 0..p.site_pcs.len() {
            let clean = p.clean.get(site).copied().unwrap_or_default();
            let armed = p.armed.get(site).copied().unwrap_or_default();
            let share = if total_execs == 0 {
                0.0
            } else {
                clean.executions as f64 / total_execs as f64
            };
            let class = if share >= 0.10 {
                "hot"
            } else if clean.executions > 1 {
                "warm"
            } else {
                "cold"
            };
            let useful = if armed.detections > 0 {
                "useful"
            } else {
                "never"
            };
            let _ = writeln!(
                out,
                "  {:<5} {:>6} {:<14} {:>9} {:>6.3} {:>10} {:>7} {:>7} {:>7} {:>5} {:>7} {useful}",
                site,
                p.site_pcs[site],
                p.site_funcs.get(site).map_or("?", String::as_str),
                clean.executions,
                share,
                clean.cycles,
                armed.detections,
                armed.repairs,
                armed.replica_repairs,
                armed.terminations,
                class
            );
        }
        let _ = writeln!(
            out,
            "  [functions: executed ops of {} clean cycles]",
            p.clean_cycles
        );
        for (name, n) in &p.funcs {
            if *n > 0 {
                let _ = writeln!(out, "    {name:<20} {n:>10}");
            }
        }
        let _ = writeln!(
            out,
            "  [mem: heap brk {} B, globals {} B, stack high-water {} B]",
            p.mem.heap_brk, p.mem.globals_len, p.mem.stack_high_water
        );
    }
    let _ = writeln!(out, "  [{} instrumented executions]", res.experiments);
    out
}

/// Renders the optimizer study table (optP.1): per app and pass
/// combination, the static check counts (live / dropped) next
/// to the clean run's dynamic check executions, virtual cycles, and
/// virtual MIPS, with cycle deltas relative to the all-off row. The
/// profile-guided combination's dropped-site report follows each app as
/// machine-readable JSONL.
pub fn opt_table(title: &str, res: &OptStudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for app in &res.apps {
        let off = res.rows.get(&(app.clone(), "off".to_string()));
        let _ = writeln!(out, "  [{app}]");
        let _ = writeln!(
            out,
            "  {:<16} {:>6} {:>7} {:>10} {:>12} {:>8} {:>7} {:>3}",
            "passes", "checks", "dropped", "chk-execs", "cycles", "vMIPS", "delta", "ok"
        );
        for combo in &res.combos {
            let Some(r) = res.rows.get(&(app.clone(), combo.clone())) else {
                continue;
            };
            // Instructions per virtual second, in millions: the virtual
            // clock runs at CYCLES_PER_MSEC cycles per millisecond.
            let vmips = |row: &crate::metrics::OptComboRow| {
                if row.cycles == 0 {
                    return 0.0;
                }
                let msec = row.cycles as f64 / crate::experiment::CYCLES_PER_MSEC;
                row.instrs as f64 / msec * 1e3 / 1e6
            };
            let delta = match off {
                Some(o) if o.cycles > 0 => r.cycles as f64 / o.cycles as f64,
                _ => 1.0,
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>6} {:>7} {:>10} {:>12} {:>8.2} {:>6.3}x {:>3}",
                combo,
                r.live_checks,
                r.dropped,
                r.check_execs,
                r.cycles,
                vmips(r),
                delta,
                if r.output_ok { "ok" } else { "BAD" }
            );
        }
        if let Some(report) = res.dropped_reports.get(app) {
            let _ = writeln!(out, "  [dropped sites ({app}), one JSON object per line]");
            for line in report.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    let _ = writeln!(out, "  [{} instrumented executions]", res.experiments);
    out
}

/// Renders the event-trace sink (traceE.1): the keyed JSONL blocks of
/// every traced run, in deterministic (app, config) order, preceded by a
/// one-line comment header. Every non-header line is a standalone JSON
/// object carrying its own `(app, seed, config)` key, so the sink can be
/// split or grepped without block context.
pub fn trace_sink(title: &str, res: &TraceStudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {title}: {} traced runs, one JSON event per line",
        res.experiments
    );
    for t in &res.traces {
        out.push_str(&t.jsonl);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CovAgg, FaultClassAgg, RecoveryAgg, RecoveryStudyResults, StudyResults};

    fn fake_results() -> StudyResults {
        let mut res = StudyResults {
            variants: vec!["stdapp".into(), "no-diversity".into()],
            apps: vec!["art".into()],
            ..StudyResults::default()
        };
        let agg = CovAgg {
            n: 4,
            co: 1,
            ndet: 1,
            ddet: 2,
            t2d_cycles: 4_000_000,
            t2d_n: 2,
        };
        res.coverage.insert(
            (
                "no-diversity".into(),
                "art".into(),
                "heap array resize 50%".into(),
            ),
            agg,
        );
        res.conditional
            .insert(("no-diversity".into(), "heap array resize 50%".into()), agg);
        res.overhead
            .insert(("no-diversity".into(), "art".into()), 3.1);
        res
    }

    #[test]
    fn coverage_figure_renders_rows() {
        let res = fake_results();
        let txt = coverage_figure("Fig test", &res, "heap array resize 50%");
        assert!(txt.contains("no-diversity"));
        assert!(txt.contains("0.25"));
        assert!(txt.contains("1.00"));
    }

    #[test]
    fn overhead_figure_renders_ratio() {
        let res = fake_results();
        let txt = overhead_figure("Fig overhead", &res);
        assert!(txt.contains("3.10x"));
        assert!(txt.contains("golden"));
    }

    #[test]
    fn mttd_table_converts_to_msec() {
        let res = fake_results();
        let txt = mttd_table("Table test", &res);
        assert!(txt.contains("1.00"), "{txt}"); // 4M cycles / 2 / 2e6 = 1ms
    }

    #[test]
    fn conditional_figure_renders() {
        let res = fake_results();
        let txt = conditional_figure("Fig cond", &res, "heap array resize 50%");
        assert!(txt.contains("no-diversity"));
    }

    #[test]
    fn fault_campaign_table_renders_rates_and_latency() {
        let mut res = FaultCampaignResults {
            classes: vec!["bit-flip heap".into()],
            apps: vec!["pchase".into()],
            ..FaultCampaignResults::default()
        };
        res.agg.insert(
            ("bit-flip heap".into(), "pchase".into()),
            FaultClassAgg {
                trials: 5,
                fired: 4,
                ddet: 2,
                ndet: 1,
                escaped: 1,
                benign: 0,
                timeouts: 0,
                latency_cycles: 9_000,
                latency_n: 3,
                recovered: 2,
                wrong_repairs: 0,
            },
        );
        let txt = fault_campaign_table("Table F.1 test", &res);
        assert!(txt.contains("bit-flip heap"));
        assert!(txt.contains("0.50"), "dpmr rate, {txt}");
        assert!(txt.contains("0.25"), "escape rate, {txt}");
        assert!(txt.contains("3000"), "mean latency, {txt}");
    }

    #[test]
    fn recovery_table_renders_rates_and_t2r() {
        let mut res = RecoveryStudyResults {
            policies: vec!["repair <=4096".into()],
            apps: vec!["art".into()],
            ..RecoveryStudyResults::default()
        };
        let agg = RecoveryAgg {
            n: 4,
            recovered: 3,
            survived_wrong: 1,
            fail_stops: 0,
            repairs: 12,
            retries: 0,
            t2r_cycles: 3_000,
            t2r_n: 3,
        };
        res.agg.insert(
            (
                "repair <=4096".into(),
                "art".into(),
                "heap array resize 50%".into(),
            ),
            agg,
        );
        let txt = recovery_table("Table R.1 test", &res);
        assert!(txt.contains("repair <=4096"));
        assert!(txt.contains("0.75"), "{txt}");
        assert!(txt.contains("1000"), "mean t2r cycles, {txt}");
    }
}
