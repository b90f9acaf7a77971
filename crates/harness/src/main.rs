//! CLI: regenerates the paper's tables and figures.
//!
//! ```bash
//! dpmr-harness all                 # every artifact, default campaign
//! dpmr-harness quick               # every artifact, reduced campaign
//! dpmr-harness fig3.10 tab3.3      # selected artifacts
//! dpmr-harness profile             # check-site profile (alias: profS.1)
//! dpmr-harness trace               # event-trace sink (alias: traceE.1)
//! dpmr-harness optimize            # optimizer study (alias: optP.1)
//! dpmr-harness bench-report        # interpreter throughput trajectory
//! dpmr-harness all --runs 3 --scale 2 --max-sites 8 --workers 8 --quiet
//! ```
//!
//! Long campaigns report `[sched] units done/total` progress on stderr;
//! `--quiet` suppresses it. Artifact stdout never carries progress.

use dpmr_harness::metrics::CampaignConfig;
use dpmr_harness::{all_ids, artifact_descriptions, reproduce};
use dpmr_workloads::WorkloadParams;
use std::collections::BTreeSet;

const USAGE: &str = "usage: dpmr-harness <all|quick|list|profile|trace|optimize|bench-report|ids...> [--runs N] [--scale N] [--max-sites N] [--workers N] [--quiet]";

/// The value of flag `args[i]`, or a usage error and exit 2 when the
/// value is missing or unparsable.
fn flag_value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    match args.get(i).map(|v| v.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} requires a numeric value");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("known ids: {}", all_ids().join(", "));
        std::process::exit(2);
    }

    let mut ids: BTreeSet<String> = BTreeSet::new();
    let mut quiet = false;
    let mut cc = CampaignConfig {
        params: WorkloadParams::quick(),
        runs: 2,
        max_sites: None,
        workers: dpmr_harness::sched::default_workers(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "list" => {
                println!("known artifact ids:");
                for (id, descr) in artifact_descriptions() {
                    println!("  {id:<8} {descr}");
                }
                std::process::exit(0);
            }
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
            "bench-report" => {
                // Pure file rendering — no campaign config applies.
                let path = dpmr_harness::bench_report::trajectory_path();
                match std::fs::read_to_string(&path) {
                    Ok(contents) => {
                        print!(
                            "{}",
                            dpmr_harness::bench_report::render_report(&contents, "full")
                        );
                        let smoke = dpmr_harness::bench_report::render_report(&contents, "smoke");
                        if !smoke.starts_with("no ") {
                            println!();
                            print!("{smoke}");
                        }
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("bench-report: cannot read {}: {e}", path.display());
                        eprintln!("run `cargo bench --bench interp_throughput` to record points");
                        std::process::exit(1);
                    }
                }
            }
            "--quiet" => quiet = true,
            "--runs" => {
                i += 1;
                cc.runs = flag_value(&args, i, "--runs");
            }
            "--scale" => {
                i += 1;
                cc.params.scale = flag_value(&args, i, "--scale");
            }
            "--max-sites" => {
                i += 1;
                cc.max_sites = Some(flag_value(&args, i, "--max-sites"));
            }
            "--workers" => {
                i += 1;
                cc.workers = flag_value::<usize>(&args, i, "--workers").max(1);
            }
            id if all_ids().contains(&id) => {
                ids.insert(id.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("{USAGE}");
                eprintln!("known artifact ids: {}", all_ids().join(", "));
                std::process::exit(2);
            }
        }
        i += 1;
    }

    dpmr_harness::sched::set_progress(!quiet);
    let t0 = std::time::Instant::now();
    let report = reproduce(&ids, &cc);
    println!("{report}");
    eprintln!(
        "[harness] reproduced {} artifact(s) in {:.1}s",
        ids.len(),
        t0.elapsed().as_secs_f64()
    );
}
