//! CLI: regenerates the paper's tables and figures.
//!
//! ```bash
//! dpmr-harness all                 # every artifact, default campaign
//! dpmr-harness quick               # every artifact, reduced campaign
//! dpmr-harness fig3.10 tab3.3      # selected artifacts
//! dpmr-harness profile             # check-site profile (alias: profS.1)
//! dpmr-harness trace               # event-trace sink (alias: traceE.1)
//! dpmr-harness optimize            # optimizer study (alias: optP.1)
//! dpmr-harness all --runs 3 --scale 2 --max-sites 8 --workers 8 --quiet
//! ```
//!
//! Long campaigns report `[sched] units done/total` progress on stderr;
//! `--quiet` suppresses it. Artifact stdout never carries progress.
//!
//! Usage errors exit with code 2. So does a `--scale` at which an app's
//! golden run does not end cleanly within its instruction budget: the
//! message names the app, how its golden run ended, and the budget.

use dpmr_harness::metrics::CampaignConfig;
use dpmr_harness::{all_ids, artifact_descriptions, reproduce};
use dpmr_workloads::WorkloadParams;
use std::collections::BTreeSet;

const USAGE: &str = "usage: dpmr-harness <all|quick|list|profile|trace|optimize|ids...> [--runs N] [--scale N] [--max-sites N] [--workers N] [--quiet]";

/// What a command line asks for.
#[derive(Debug)]
enum Command {
    /// Print the known artifacts with their descriptions.
    List,
    /// Reproduce `ids` under `cc`; `quiet` suppresses scheduler progress.
    Reproduce {
        ids: BTreeSet<String>,
        cc: CampaignConfig,
        quiet: bool,
    },
}

/// The value of flag `args[i]`, or an error when it is missing or
/// unparsable.
fn flag_value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
    args.get(i)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} requires a numeric value"))
}

/// Like [`flag_value`], rejecting 0: a campaign needs at least one run
/// and one site.
fn positive_flag_value<T>(args: &[String], i: usize, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let v: T = flag_value(args, i, flag)?;
    if v == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(v)
}

/// Parses the arguments after the program name. `quick` only sets
/// defaults: `--runs` and `--max-sites` override it wherever they stand.
fn parse(args: &[String]) -> Result<Command, String> {
    if args.is_empty() {
        return Err("no artifact requested".to_string());
    }
    let mut ids: BTreeSet<String> = BTreeSet::new();
    let mut quiet = false;
    let mut cc = CampaignConfig {
        params: WorkloadParams::quick(),
        runs: 2,
        max_sites: None,
        workers: dpmr_harness::sched::default_workers(),
    };
    let (mut runs, mut max_sites) = (None, None);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "list" => return Ok(Command::List),
            "all" => ids.extend(all_ids().into_iter().map(String::from)),
            "quick" => {
                ids.extend(all_ids().into_iter().map(String::from));
                cc.runs = 1;
                cc.max_sites = Some(4);
            }
            "profile" => {
                ids.insert("profS.1".to_string());
            }
            "trace" => {
                ids.insert("traceE.1".to_string());
            }
            "optimize" => {
                ids.insert("optP.1".to_string());
            }
            "--quiet" => quiet = true,
            "--runs" => {
                i += 1;
                runs = Some(positive_flag_value(args, i, "--runs")?);
            }
            "--scale" => {
                i += 1;
                cc.params.scale = flag_value(args, i, "--scale")?;
            }
            "--max-sites" => {
                i += 1;
                max_sites = Some(positive_flag_value(args, i, "--max-sites")?);
            }
            "--workers" => {
                i += 1;
                cc.workers = flag_value::<usize>(args, i, "--workers")?.max(1);
            }
            id if all_ids().contains(&id) => {
                ids.insert(id.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    cc.runs = runs.unwrap_or(cc.runs);
    cc.max_sites = max_sites.or(cc.max_sites);
    Ok(Command::Reproduce { ids, cc, quiet })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, cc, quiet) = match parse(&args) {
        Ok(Command::Reproduce { ids, cc, quiet }) => (ids, cc, quiet),
        Ok(Command::List) => {
            println!("known artifact ids:");
            for (id, descr) in artifact_descriptions() {
                println!("  {id:<8} {descr}");
            }
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            eprintln!("known artifact ids: {}", all_ids().join(", "));
            std::process::exit(2);
        }
    };

    dpmr_harness::sched::set_progress(!quiet);
    let t0 = std::time::Instant::now();
    let report = match reproduce(&ids, &cc) {
        Ok(report) => report,
        Err(e) => {
            // A workload too large for its golden budget is a usage
            // error: the scale asked for cannot be measured.
            eprintln!("dpmr-harness: {e} (at --scale {})", cc.params.scale);
            std::process::exit(2);
        }
    };
    println!("{report}");
    eprintln!(
        "[harness] reproduced {} artifact(s) in {:.1}s",
        ids.len(),
        t0.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn budget(line: &str) -> (u32, Option<usize>) {
        match parse_words(line) {
            Ok(Command::Reproduce { cc, .. }) => (cc.runs, cc.max_sites),
            other => panic!("{line:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn explicit_flags_override_quick_in_either_order_and_zero_budgets_are_errors() {
        assert_eq!(budget("quick"), (1, Some(4)));
        assert_eq!(budget("all"), (2, None));
        assert_eq!(budget("--max-sites 1 --runs 3 quick"), (3, Some(1)));
        assert_eq!(budget("quick --max-sites 1 --runs 3"), (3, Some(1)));
        assert_eq!(budget("--runs 3 quick"), (3, Some(4)));
        for line in [
            "tabR.1 --runs 0",
            "tabR.1 --max-sites 0",
            "quick --runs 0",
            "--max-sites 0 quick",
            "tabR.1 --runs",
            "tabR.1 --runs x",
            "nonsense",
            "bench-report",
            "",
        ] {
            assert!(parse_words(line).is_err(), "{line:?} must be a usage error");
        }
    }
}
