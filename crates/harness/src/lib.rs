//! # dpmr-harness
//!
//! The experimental framework of Chapter 3: variant builds (Sec. 3.5),
//! fault-injection campaigns (Sec. 3.4), evaluation metrics (Sec. 3.6),
//! and emitters that regenerate **every table and figure** of the
//! dissertation's evaluation (Chapters 3 and 4, plus a Chapter 5 DSA
//! demonstration). See `DESIGN.md` for the experiment index.
//!
//! Run everything with:
//!
//! ```bash
//! cargo run -p dpmr-harness --release -- all
//! ```
//!
//! or a single artifact (`fig3.6`, `tab4.5`, ...):
//!
//! ```bash
//! cargo run -p dpmr-harness --release -- fig3.10 tab3.3
//! ```

pub mod experiment;
pub mod figures;
pub mod metrics;
pub mod sched;

use dpmr_core::prelude::*;
use experiment::PrepareError;
use metrics::{
    run_diversity_study, run_opt_study, run_policy_study, run_replication_degree_study,
    run_site_profile_study, run_trace_study, try_run_fault_campaign, try_run_recovery_study,
    CampaignConfig, FaultCampaignResults, OptStudyResults, RecoveryStudyResults,
    ReplicationStudyResults, SiteProfileResults, StudyResults, TraceStudyResults,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders one artifact from its title, running (or reusing) the studies
/// it reads.
type Render = fn(&str, &mut Studies, &CampaignConfig) -> Result<String, PrepareError>;

/// Every reproducible artifact in paper order: (id, one-line description
/// for `list`, title, renderer).
const ARTIFACTS: &[(&str, &str, &str, Render)] = &[
    (
        "fig3.6",
        "mean heap-array-resize coverage of diversity transformations (SDS)",
        "Figure 3.6: Mean heap array resize coverage of diversity transformations (SDS)",
        |t, s, cc| Ok(figures::coverage_figure(t, s.sds_div(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig3.7",
        "mean immediate-free coverage of diversity transformations (SDS)",
        "Figure 3.7: Mean immediate free coverage of diversity transformations (SDS)",
        |t, s, cc| Ok(figures::coverage_figure(t, s.sds_div(cc)?, IMM_FREE)),
    ),
    (
        "fig3.8",
        "heap-array-resize conditional coverage of diversity transformations (SDS)",
        "Figure 3.8: Mean heap array resize conditional coverage of diversity transformations (SDS)",
        |t, s, cc| Ok(figures::conditional_figure(t, s.sds_div(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig3.9",
        "immediate-free conditional coverage of diversity transformations (SDS)",
        "Figure 3.9: Mean immediate free conditional coverage of diversity transformations (SDS)",
        |t, s, cc| Ok(figures::conditional_figure(t, s.sds_div(cc)?, IMM_FREE)),
    ),
    (
        "fig3.10",
        "overhead of diversity transformations (SDS, all loads)",
        "Figure 3.10: Overhead of diversity transformations (SDS, all loads)",
        |t, s, cc| Ok(figures::overhead_figure(t, s.sds_div(cc)?)),
    ),
    (
        "tab3.3",
        "mean time to detection of diversity transformations (SDS)",
        "Table 3.3: Mean time to detection of diversity transformations (SDS)",
        |t, s, cc| Ok(figures::mttd_table(t, s.sds_div(cc)?)),
    ),
    (
        "fig3.11",
        "heap-array-resize coverage of comparison policies (SDS, rearrange-heap)",
        "Figure 3.11: Mean heap array resize coverage of state comparison policies (SDS, rearrange-heap)",
        |t, s, cc| Ok(figures::coverage_figure(t, s.sds_pol(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig3.12",
        "immediate-free coverage of comparison policies (SDS, rearrange-heap)",
        "Figure 3.12: Mean immediate free coverage of state comparison policies (SDS, rearrange-heap)",
        |t, s, cc| Ok(figures::coverage_figure(t, s.sds_pol(cc)?, IMM_FREE)),
    ),
    (
        "fig3.13",
        "heap-array-resize conditional coverage of comparison policies (SDS)",
        "Figure 3.13: Mean heap array resize conditional coverage of state comparison policies (SDS)",
        |t, s, cc| Ok(figures::conditional_figure(t, s.sds_pol(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig3.14",
        "immediate-free conditional coverage of comparison policies (SDS)",
        "Figure 3.14: Mean immediate free conditional coverage of state comparison policies (SDS)",
        |t, s, cc| Ok(figures::conditional_figure(t, s.sds_pol(cc)?, IMM_FREE)),
    ),
    (
        "fig3.15",
        "overhead of comparison policies (SDS, rearrange-heap)",
        "Figure 3.15: Overhead of state comparison policies (SDS, rearrange-heap)",
        |t, s, cc| Ok(figures::overhead_figure(t, s.sds_pol(cc)?)),
    ),
    (
        "tab3.4",
        "mean time to detection of comparison policies (SDS)",
        "Table 3.4: Mean time to detection of state comparison policies (SDS)",
        |t, s, cc| Ok(figures::mttd_table(t, s.sds_pol(cc)?)),
    ),
    (
        "fig4.3",
        "side-by-side diversity-transformation overheads of SDS and MDS",
        "Figure 4.3: Side-by-side diversity transformation overheads of SDS and MDS",
        |t, s, cc| {
            let variants = ["no-diversity", "zero-before-free", "rearrange-heap", "pad-malloc 32"];
            let sds = s.sds_div(cc)?.clone();
            let mds = s.mds_div(cc)?;
            Ok(figures::side_by_side_overhead(t, &sds, mds, &variants.map(String::from)))
        },
    ),
    (
        "fig4.4",
        "side-by-side comparison-policy overheads of SDS and MDS",
        "Figure 4.4: Side-by-side comparison policy overheads of SDS and MDS",
        |t, s, cc| {
            let variants = ["static 10%", "static 50%", "static 90%", "all loads"];
            let sds = s.sds_pol(cc)?.clone();
            let mds = s.mds_pol(cc)?;
            Ok(figures::side_by_side_overhead(t, &sds, mds, &variants.map(String::from)))
        },
    ),
    (
        "fig4.5",
        "MDS overhead of diversity transformations",
        "Figure 4.5: MDS overhead of diversity transformations",
        |t, s, cc| Ok(figures::overhead_figure(t, s.mds_div(cc)?)),
    ),
    (
        "fig4.6",
        "MDS overhead of comparison policies",
        "Figure 4.6: MDS overhead of state comparison policies",
        |t, s, cc| Ok(figures::overhead_figure(t, s.mds_pol(cc)?)),
    ),
    (
        "fig4.7",
        "MDS heap-array-resize coverage of diversity transformations",
        "Figure 4.7: Mean MDS heap array resize coverage of diversity transformations",
        |t, s, cc| Ok(figures::coverage_figure(t, s.mds_div(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig4.8",
        "MDS immediate-free coverage of diversity transformations",
        "Figure 4.8: Mean MDS immediate free coverage of diversity transformations",
        |t, s, cc| Ok(figures::coverage_figure(t, s.mds_div(cc)?, IMM_FREE)),
    ),
    (
        "fig4.9",
        "MDS heap-array-resize conditional coverage of diversity transformations",
        "Figure 4.9: Mean MDS heap array resize conditional coverage of diversity transformations",
        |t, s, cc| Ok(figures::conditional_figure(t, s.mds_div(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig4.10",
        "MDS immediate-free conditional coverage of diversity transformations",
        "Figure 4.10: Mean MDS immediate free conditional coverage of diversity transformations",
        |t, s, cc| Ok(figures::conditional_figure(t, s.mds_div(cc)?, IMM_FREE)),
    ),
    (
        "fig4.11",
        "MDS heap-array-resize coverage of comparison policies",
        "Figure 4.11: Mean MDS heap array resize coverage of state comparison policies",
        |t, s, cc| Ok(figures::coverage_figure(t, s.mds_pol(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig4.12",
        "MDS immediate-free coverage of comparison policies",
        "Figure 4.12: Mean MDS immediate free coverage of state comparison policies",
        |t, s, cc| Ok(figures::coverage_figure(t, s.mds_pol(cc)?, IMM_FREE)),
    ),
    (
        "fig4.13",
        "MDS heap-array-resize conditional coverage of comparison policies",
        "Figure 4.13: Mean MDS heap array resize conditional coverage of state comparison policies",
        |t, s, cc| Ok(figures::conditional_figure(t, s.mds_pol(cc)?, HEAP_RESIZE)),
    ),
    (
        "fig4.14",
        "MDS immediate-free conditional coverage of comparison policies",
        "Figure 4.14: Mean MDS immediate free conditional coverage of state comparison policies",
        |t, s, cc| Ok(figures::conditional_figure(t, s.mds_pol(cc)?, IMM_FREE)),
    ),
    (
        "tab4.5",
        "mean time to detection of diversity transformations under MDS",
        "Table 4.5: Mean time to detection of diversity transformations under MDS",
        |t, s, cc| Ok(figures::mttd_table(t, s.mds_div(cc)?)),
    ),
    (
        "tab4.6",
        "mean time to detection of comparison policies under MDS",
        "Table 4.6: Mean time to detection of state comparison policies under MDS",
        |t, s, cc| Ok(figures::mttd_table(t, s.mds_pol(cc)?)),
    ),
    (
        "ch5",
        "DSA scope-expansion demonstration (DS graph, markX, refined transform)",
        "Chapter 5: scope expansion through Data Structure Analysis",
        |t, _, _| Ok(chapter5_demo(t)),
    ),
    (
        "tabR.1",
        "detection-to-recovery study (fail-stop / retry / repair / mid-run cadence)",
        "Table R.1: Detection-to-recovery of injected faults (SDS, rearrange-heap, all loads)",
        |t, s, cc| Ok(figures::recovery_table(t, s.recovery(cc)?)),
    ),
    (
        "tabF.1",
        "runtime fault campaign: per-class detection, escape, latency, recovery (SDS)",
        "Table F.1: Runtime fault campaign across the expanded fault model (SDS, rearrange-heap, all loads)",
        |t, s, cc| Ok(figures::fault_campaign_table(t, s.fault(cc)?)),
    ),
    (
        "tabV.1",
        "replication-degree sweep: K in {1,2,3} x diversity — overhead scaling, escape, vote-repair success",
        "Table V.1: Replication-degree sweep (SDS, all loads): K in {1,2,3} x diversity",
        |t, s, cc| Ok(figures::replication_table(t, s.replication(cc)?)),
    ),
    (
        "profS.1",
        "check-site profile: per-app hot/cold site execution counts x armed-sweep detection usefulness",
        "Table S.1: Check-site profile (SDS, rearrange-heap): clean hot/cold x armed detection usefulness",
        |t, s, cc| Ok(figures::site_profile_table(t, s.site_profile(cc)?)),
    ),
    (
        "traceE.1",
        "structured event-trace sink: keyed JSONL of clean + per-class armed runs (virtual-cycle timestamps)",
        "traceE.1 event-trace sink (SDS, rearrange-heap)",
        |t, s, cc| Ok(figures::trace_sink(t, s.trace(cc)?)),
    ),
    (
        "optP.1",
        "optimizer study: per-app check-count and virtual-MIPS deltas at each pass combination, with the profile-guided dropped-site report",
        "Table P.1: Optimizer study (SDS, rearrange-heap): check-count and virtual-MIPS deltas per pass combination",
        |t, s, cc| Ok(figures::opt_table(t, s.opt(cc)?)),
    ),
];

/// All reproducible artifacts with one-line descriptions, in paper order
/// (the `list` subcommand's table).
pub fn artifact_descriptions() -> Vec<(&'static str, &'static str)> {
    ARTIFACTS
        .iter()
        .map(|&(id, descr, ..)| (id, descr))
        .collect()
}

/// All reproducible artifact ids, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    ARTIFACTS.iter().map(|&(id, ..)| id).collect()
}

const HEAP_RESIZE: &str = "heap array resize 50%";
const IMM_FREE: &str = "immediate free";

/// The studies behind the artifacts, each run on first use and shared by
/// every artifact that reads it.
#[derive(Default)]
struct Studies {
    sds_div: Option<StudyResults>,
    sds_pol: Option<StudyResults>,
    mds_div: Option<StudyResults>,
    mds_pol: Option<StudyResults>,
    recovery: Option<RecoveryStudyResults>,
    fault: Option<FaultCampaignResults>,
    replication: Option<ReplicationStudyResults>,
    site_profile: Option<SiteProfileResults>,
    trace: Option<TraceStudyResults>,
    opt: Option<OptStudyResults>,
}

/// `slot`'s study, running it with `run` (announced on stderr as `what`)
/// on first use.
fn cached<'a, T>(
    slot: &'a mut Option<T>,
    what: &str,
    run: impl FnOnce() -> Result<T, PrepareError>,
) -> Result<&'a T, PrepareError> {
    if slot.is_none() {
        eprintln!("[harness] running {what}...");
        *slot = Some(run()?);
    }
    Ok(slot.as_ref().expect("just run"))
}

impl Studies {
    fn sds_div(&mut self, cc: &CampaignConfig) -> Result<&StudyResults, PrepareError> {
        cached(&mut self.sds_div, "SDS diversity study", || {
            run_diversity_study(Scheme::Sds, cc)
        })
    }
    fn sds_pol(&mut self, cc: &CampaignConfig) -> Result<&StudyResults, PrepareError> {
        cached(&mut self.sds_pol, "SDS comparison-policy study", || {
            run_policy_study(Scheme::Sds, cc)
        })
    }
    fn mds_div(&mut self, cc: &CampaignConfig) -> Result<&StudyResults, PrepareError> {
        cached(&mut self.mds_div, "MDS diversity study", || {
            run_diversity_study(Scheme::Mds, cc)
        })
    }
    fn mds_pol(&mut self, cc: &CampaignConfig) -> Result<&StudyResults, PrepareError> {
        cached(&mut self.mds_pol, "MDS comparison-policy study", || {
            run_policy_study(Scheme::Mds, cc)
        })
    }
    fn recovery(&mut self, cc: &CampaignConfig) -> Result<&RecoveryStudyResults, PrepareError> {
        cached(&mut self.recovery, "detection-to-recovery study", || {
            try_run_recovery_study(&dpmr_workloads::recovery_apps(), &DpmrConfig::sds(), cc)
        })
    }
    fn fault(&mut self, cc: &CampaignConfig) -> Result<&FaultCampaignResults, PrepareError> {
        cached(&mut self.fault, "runtime fault campaign", || {
            let apps = dpmr_workloads::fault_campaign_apps();
            try_run_fault_campaign(&apps, &DpmrConfig::sds(), cc)
        })
    }
    fn replication(
        &mut self,
        cc: &CampaignConfig,
    ) -> Result<&ReplicationStudyResults, PrepareError> {
        cached(&mut self.replication, "replication-degree study", || {
            let apps = dpmr_workloads::fault_campaign_apps();
            run_replication_degree_study(&apps, &DpmrConfig::sds(), cc)
        })
    }
    fn site_profile(&mut self, cc: &CampaignConfig) -> Result<&SiteProfileResults, PrepareError> {
        cached(&mut self.site_profile, "check-site profile study", || {
            let apps = dpmr_workloads::fault_campaign_apps();
            run_site_profile_study(&apps, &DpmrConfig::sds(), cc)
        })
    }
    fn trace(&mut self, cc: &CampaignConfig) -> Result<&TraceStudyResults, PrepareError> {
        cached(&mut self.trace, "event-trace study", || {
            let apps = dpmr_workloads::fault_campaign_apps();
            run_trace_study(&apps, &DpmrConfig::sds(), cc)
        })
    }
    fn opt(&mut self, cc: &CampaignConfig) -> Result<&OptStudyResults, PrepareError> {
        // The profile-guided leg consumes profS.1's armed-sweep detection
        // counts as per-site usefulness weights.
        self.site_profile(cc)?;
        let profiles = &self.site_profile.as_ref().expect("just run").profiles;
        cached(&mut self.opt, "optimizer study", || {
            let usefulness = profiles
                .iter()
                .map(|(app, p)| {
                    let weights = p.armed.iter().map(|s| s.detections as f64).collect();
                    (app.clone(), weights)
                })
                .collect();
            let apps = dpmr_workloads::fault_campaign_apps();
            run_opt_study(&apps, &DpmrConfig::sds(), &usefulness, cc)
        })
    }
}

/// Reproduces the requested artifacts (see [`all_ids`]) and returns the
/// rendered report.
///
/// # Errors
/// An app a requested artifact needs has no clean golden run under
/// `cc.params` (a scale whose golden run outlasts its budget).
pub fn reproduce(ids: &BTreeSet<String>, cc: &CampaignConfig) -> Result<String, PrepareError> {
    let mut studies = Studies::default();
    let mut out = String::new();
    for (id, _, title, render) in ARTIFACTS {
        if ids.contains(*id) {
            let _ = writeln!(out, "{}", render(title, &mut studies, cc)?);
        }
    }
    Ok(out)
}

/// Chapter 5 demonstration: DS graphs and `markX` over a program with
/// int-to-pointer behaviour, and the resulting replication-plan
/// refinement, under `title`.
pub fn chapter5_demo(title: &str) -> String {
    use dpmr_ir::prelude::*;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");

    // A program mixing clean memory with an int-to-pointer-reconstructed
    // pointer (Fig. 5.1(a) style).
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let clean = b.malloc(i64t, Const::i64(4).into(), "clean");
    b.store(clean.into(), Const::i64(11).into());
    let dirty = b.malloc(i64t, Const::i64(4).into(), "dirty");
    b.store(dirty.into(), Const::i64(22).into());
    let as_int = b.cast(CastOp::PtrToInt, i64t, dirty.into(), "asInt");
    let pty = b.operand_ty(dirty.into());
    let back = b.cast(CastOp::IntToPtr, pty, as_int.into(), "back");
    let v1 = b.load(i64t, clean.into(), "v1");
    let v2 = b.load(i64t, back.into(), "v2");
    b.output(v1.into());
    b.output(v2.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    let dsa = dpmr_dsa::analyze(&m);
    let _ = writeln!(out, "\nDS graph for main():");
    let _ = writeln!(out, "{}", dsa.graph(f).render());
    let report = dsa.mark_x();
    let _ = writeln!(
        out,
        "markX: {} of {} nodes excluded; {} alloc site(s) unreplicated, {} load site(s) unchecked",
        report.x_nodes,
        report.total_nodes,
        report.exclude_allocs.len(),
        report.uncheck_loads.len()
    );

    // Apply the refinement and run under SDS: the program (illegal under
    // plain SDS) now transforms and detects nothing spurious.
    let plan = plan_from_report(&report);
    let mut cfg = DpmrConfig::sds();
    cfg.plan = plan;
    let t = dpmr_core::transform::transform(&m, &cfg).expect("refined transform");
    let reg = std::rc::Rc::new(registry_with_wrappers());
    let o = dpmr_vm::interp::run_with_registry(&t, &dpmr_vm::interp::RunConfig::default(), reg);
    let _ = writeln!(
        out,
        "refined SDS run: status {:?}, output {:?} (expected Normal(0), [11, 22])",
        o.status, o.output
    );
    out
}

/// Converts a DSA [`dpmr_dsa::ExclusionReport`] into a transform
/// [`ReplicationPlan`] (the Chapter 5 glue).
pub fn plan_from_report(r: &dpmr_dsa::ExclusionReport) -> ReplicationPlan {
    ReplicationPlan {
        exclude_allocs: r.exclude_allocs.iter().copied().collect(),
        uncheck_loads: r.uncheck_loads.iter().copied().collect(),
        allow_int_to_ptr: true,
        allow_raw_ptr_arith: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_complete() {
        let ids = all_ids();
        assert_eq!(ids.len(), 33);
        assert!(ids.contains(&"fig3.6"));
        assert!(ids.contains(&"tab4.6"));
        assert!(ids.contains(&"ch5"));
        assert!(ids.contains(&"tabR.1"));
        assert!(ids.contains(&"tabF.1"));
        assert!(ids.contains(&"tabV.1"));
        assert!(ids.contains(&"profS.1"));
        assert!(ids.contains(&"traceE.1"));
        assert!(ids.contains(&"optP.1"));
    }

    #[test]
    fn every_artifact_has_a_nonempty_description() {
        let descr = artifact_descriptions();
        assert_eq!(descr.len(), all_ids().len());
        for (id, d) in descr {
            assert!(!d.is_empty(), "{id} needs a description");
        }
    }

    #[test]
    fn chapter5_demo_runs_refined_program() {
        let txt = chapter5_demo("Chapter 5");
        assert!(txt.contains("markX"));
        assert!(txt.contains("Normal(0)"));
        assert!(txt.contains("[11, 22]"));
    }

    #[test]
    fn reproduce_single_figure() {
        let ids: BTreeSet<String> = ["ch5".to_string()].into_iter().collect();
        let txt = reproduce(&ids, &CampaignConfig::tiny()).unwrap();
        assert!(txt.contains("Chapter 5"));
    }
}
