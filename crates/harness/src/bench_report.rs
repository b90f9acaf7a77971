//! `bench-report`: renders the interpreter-throughput trajectory.
//!
//! The `interp_throughput` bench appends one JSON line per measured
//! workload to `BENCH_INTERP.json` at the workspace root (workload,
//! MIPS, git rev, dirty flag, mode). This module turns
//! that append-only log into a per-workload trajectory table: one
//! column per revision in measurement order, dirty revisions flagged
//! (`*`), and a final delta of the newest measurement against the
//! previous *clean* revision — the number a reviewer actually wants
//! when judging an engine change.
//!
//! Every line has the same five fields; a line missing one is skipped.

use std::fmt::Write as _;

/// One decoded trajectory line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Workload name (`dpmr_check_k1`, ...).
    pub workload: String,
    /// Recorded MIPS (median over rounds on current generations).
    pub mips: f64,
    /// Short git revision of the measured tree.
    pub git_rev: String,
    /// Whether the tree had uncommitted changes.
    pub dirty: bool,
    /// Measurement mode (`full` or `smoke`).
    pub mode: String,
}

/// Pulls the raw text of `"key":<value>` out of a single-line JSON
/// object: enough for the flat records the bench writes, with no
/// dependency on a JSON crate. Returns the value with string quotes
/// stripped.
fn json_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(stripped[..end].to_string())
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    }
}

/// Decodes one trajectory line; `None` for blank or undecodable lines
/// (the report skips them rather than failing).
pub fn parse_line(line: &str) -> Option<BenchPoint> {
    Some(BenchPoint {
        workload: json_field(line, "workload")?,
        mips: json_field(line, "mips")?.parse().ok()?,
        git_rev: json_field(line, "git_rev")?,
        dirty: json_field(line, "dirty")?.parse().ok()?,
        mode: json_field(line, "mode")?,
    })
}

/// Renders the trajectory table for one mode (`full`/`smoke`) from the
/// raw file contents. Columns are `(rev, dirty)` groups in first-
/// appearance order; when a revision was measured twice the later
/// measurement wins (re-runs supersede). Dirty columns are flagged `*`
/// and excluded from delta baselines.
pub fn render_report(contents: &str, mode: &str) -> String {
    let points: Vec<BenchPoint> = contents
        .lines()
        .filter_map(parse_line)
        .filter(|p| p.mode == mode)
        .collect();
    if points.is_empty() {
        return format!("no {mode}-mode points recorded\n");
    }
    // Column order = first appearance; row order = first appearance.
    let mut revs: Vec<(String, bool)> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    for p in &points {
        let col = (p.git_rev.clone(), p.dirty);
        if !revs.contains(&col) {
            revs.push(col);
        }
        if !workloads.contains(&p.workload) {
            workloads.push(p.workload.clone());
        }
    }
    let cell = |w: &str, rev: &(String, bool)| -> Option<&BenchPoint> {
        points
            .iter()
            .rfind(|p| p.workload == w && p.git_rev == rev.0 && p.dirty == rev.1)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "interpreter throughput trajectory ({mode} mode, MIPS; * = dirty tree)"
    );
    let wcol = workloads.iter().map(|w| w.len()).max().unwrap_or(8).max(8);
    let _ = write!(out, "{:<wcol$}", "workload");
    for (rev, dirty) in &revs {
        let flag = if *dirty { "*" } else { "" };
        let _ = write!(out, "  {:>9}", format!("{rev}{flag}"));
    }
    let _ = writeln!(out, "  {:>9}", "delta");
    for w in &workloads {
        let _ = write!(out, "{w:<wcol$}");
        for rev in &revs {
            match cell(w, rev) {
                Some(p) => {
                    let _ = write!(out, "  {:>9.2}", p.mips);
                }
                None => {
                    let _ = write!(out, "  {:>9}", "-");
                }
            }
        }
        // Delta: newest measurement of this workload vs the previous
        // clean revision that also measured it.
        let newest = revs.iter().rev().find_map(|r| cell(w, r));
        let baseline = match newest {
            Some(n) => revs
                .iter()
                .rev()
                .filter(|(_, dirty)| !dirty)
                .filter_map(|r| cell(w, r))
                .find(|p| !std::ptr::eq(*p, n)),
            None => None,
        };
        match (newest, baseline) {
            (Some(n), Some(b)) if b.mips > 0.0 => {
                let _ = writeln!(out, "  {:>+8.1}%", (n.mips / b.mips - 1.0) * 100.0);
            }
            _ => {
                let _ = writeln!(out, "  {:>9}", "-");
            }
        }
    }
    out
}

/// The default trajectory file location (workspace root), overridable
/// with `BENCH_INTERP_JSON` — the same override the bench honors when
/// writing, so a redirected record is read back from the same place.
pub fn trajectory_path() -> std::path::PathBuf {
    match std::env::var("BENCH_INTERP_JSON") {
        Ok(p) if !p.is_empty() => p.into(),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_INTERP.json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_line_generation() {
        let p = parse_line(
            r#"{"workload":"qsort","mips":50.52,"git_rev":"c3b6f70","dirty":true,"mode":"full"}"#,
        )
        .unwrap();
        assert_eq!(
            p,
            BenchPoint {
                workload: "qsort".into(),
                mips: 50.52,
                git_rev: "c3b6f70".into(),
                dirty: true,
                mode: "full".into(),
            }
        );
        // The retired formats (no `dirty` field, dirtiness as a `-dirty`
        // rev suffix) no longer decode: every line carries every field.
        assert!(parse_line(
            r#"{"workload":"qsort","mips":10.76,"git_rev":"ee19ef2","mode":"full"}"#
        )
        .is_none());
        assert!(parse_line(
            r#"{"workload":"qsort","mips":50.52,"git_rev":"c3b6f70","dirty":yes,"mode":"full"}"#
        )
        .is_none());
        assert!(parse_line("").is_none());
        assert!(parse_line("not json").is_none());
        // The checked-in trajectory is all in the one format.
        let log = include_str!("../../../BENCH_INTERP.json");
        assert!(log.lines().all(|l| parse_line(l).is_some()));
    }

    #[test]
    fn report_orders_revs_flags_dirty_and_deltas_vs_previous_clean() {
        let log = concat!(
            "{\"workload\":\"a\",\"mips\":10.0,\"git_rev\":\"r1\",\"dirty\":false,\"mode\":\"full\"}\n",
            "{\"workload\":\"a\",\"mips\":12.0,\"git_rev\":\"r2\",\"dirty\":true,\"mode\":\"full\"}\n",
            "{\"workload\":\"a\",\"mips\":15.0,\"git_rev\":\"r3\",\"dirty\":false,\"mode\":\"full\"}\n",
            "{\"workload\":\"a\",\"mips\":99.0,\"git_rev\":\"r9\",\"dirty\":false,\"mode\":\"smoke\"}\n",
        );
        let r = render_report(log, "full");
        // Columns in measurement order, dirty flagged.
        assert!(r.contains("r1"), "{r}");
        assert!(r.contains("r2*"), "{r}");
        // The delta is newest (15.0 at r3) vs previous clean (10.0 at
        // r1) — the dirty r2 point must not be the baseline, and the
        // smoke point must not leak into the full table.
        assert!(r.contains("+50.0%"), "{r}");
        assert!(!r.contains("99.00"), "{r}");
    }

    #[test]
    fn report_survives_rerun_of_the_same_rev() {
        let log = concat!(
            "{\"workload\":\"a\",\"mips\":10.0,\"git_rev\":\"r1\",\"dirty\":false,\"mode\":\"full\"}\n",
            "{\"workload\":\"a\",\"mips\":11.0,\"git_rev\":\"r1\",\"dirty\":false,\"mode\":\"full\"}\n",
        );
        let r = render_report(log, "full");
        // Later measurement of the same rev supersedes; with a single
        // distinct clean rev there is no baseline, so no delta.
        assert!(r.contains("11.00"), "{r}");
        assert!(!r.contains("10.00"), "{r}");
    }

    #[test]
    fn empty_log_reports_cleanly() {
        assert!(render_report("", "full").contains("no full-mode points"));
    }
}
