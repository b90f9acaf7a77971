//! Every artifact through `reproduce`, at the CLI's default `all` budget
//! in release builds (tiny campaigns in debug builds, where studies run
//! 10–20× slower), plus the byte-level report golden.
//!
//! `report_golden.txt` is `reproduce(all ids, CampaignConfig::tiny())`
//! (the stdout of `dpmr-harness all --runs 1 --max-sites 3 --quiet`
//! without its trailing newline). A refactor of the studies or emitters
//! is output-compatible exactly when it matches. If an *intentional*
//! output change lands, the failing test prints the complete new report
//! on stdout: replace the golden file with it and say so in the commit.

use dpmr_harness::metrics::CampaignConfig;
use dpmr_harness::sched::default_workers;
use dpmr_harness::{all_ids, reproduce};
use std::collections::BTreeSet;

const GOLDEN: &str = include_str!("report_golden.txt");

/// The line an artifact's section opens with: `fig3.6` → `Figure 3.6:`,
/// `tabR.1`/`profS.1`/`optP.1` → `Table R.1:`/`Table S.1:`/`Table P.1:`.
fn heading(id: &str) -> String {
    let number = id.trim_start_matches(|c: char| c.is_ascii_lowercase());
    match &id[..id.len() - number.len()] {
        "fig" => format!("Figure {number}:"),
        "ch" => format!("Chapter {number}:"),
        "trace" => format!("# {id} "),
        _ => format!("Table {number}:"),
    }
}

/// Compares a tiny-budget report with the golden, printing the whole new
/// report and pinpointing the first differing line on a mismatch.
fn assert_matches_golden(report: &str) {
    if report == GOLDEN {
        return;
    }
    print!("{report}");
    for (i, (got, want)) in report.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "the tiny report diverged from the golden at line {}",
            i + 1
        );
    }
    assert_eq!(
        report.lines().count(),
        GOLDEN.lines().count(),
        "the tiny report's length diverged from the golden"
    );
    assert_eq!(
        report, GOLDEN,
        "reports differ only in line terminators or trailing newline"
    );
}

#[test]
fn all_reproduces_every_artifact() {
    let cc = if cfg!(debug_assertions) {
        CampaignConfig::tiny()
    } else {
        CampaignConfig::default().with_workers(default_workers())
    };
    let ids: BTreeSet<String> = all_ids().into_iter().map(String::from).collect();
    let report = reproduce(&ids, &cc).unwrap();
    for id in all_ids() {
        let heading = heading(id);
        assert!(
            report.lines().any(|l| l.starts_with(&heading)),
            "{id}: no section opening with {heading:?} in the `all` report"
        );
    }
    let tiny = if cfg!(debug_assertions) {
        report
    } else {
        reproduce(&ids, &CampaignConfig::tiny()).unwrap()
    };
    assert_matches_golden(&tiny);
}
