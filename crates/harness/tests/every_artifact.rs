//! Every artifact through `reproduce`, at the CLI's default `all` budget
//! in release builds (tiny campaigns in debug builds, where studies run
//! 10–20× slower).

use dpmr_harness::metrics::CampaignConfig;
use dpmr_harness::sched::default_workers;
use dpmr_harness::{all_ids, reproduce};
use std::collections::BTreeSet;

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

#[test]
fn all_reproduces_every_artifact() {
    let cc = if cfg!(debug_assertions) {
        CampaignConfig::tiny()
    } else {
        CampaignConfig::default().with_workers(default_workers())
    };
    let ids: BTreeSet<String> = all_ids().into_iter().map(String::from).collect();
    let report = reproduce(&ids, &cc);
    for id in all_ids() {
        let heading = heading(id);
        assert!(
            report.lines().any(|l| l.starts_with(&heading)),
            "{id}: no section opening with {heading:?} in the `all` report"
        );
    }
}
