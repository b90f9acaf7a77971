//! Profile-guided check-site selection over [`LoweredCode`].
//!
//! The optimizer is one pass: [`optimize`] takes a profS.1-style site
//! profile ([`PassConfig::profile_guided`]) and keeps only the check
//! sites whose usefulness exceeds a threshold. A dropped site becomes
//! [`Op::CheckElided`], which costs no virtual cycles, and replica loads
//! whose only consumer was the dropped comparison become no-op
//! [`Op::LoadElided`] slots, so the site sheds its whole access group.
//! The pass intentionally changes semantics: it trades coverage for
//! overhead, the paper's partial-replication tradeoff, and reports every
//! dropped site, with its elided replica loads, machine-readably. With
//! no profile, [`optimize`] is the identity, so the engine-parity golden
//! and every artifact are byte-identical to the unoptimized engine.
//!
//! # Pc stability
//!
//! The pass rewrites ops **in place** and never inserts or removes
//! slots, so absolute pcs keep their meaning in optimized code: armed
//! faults, check-site ids, and pc profiles all stay comparable across
//! configurations. The one portability caveat: snapshots restore only
//! into interpreters sharing *(module, `PassConfig`)*, not just the
//! module.

use crate::code::{LoweredCode, Op, Opnd};
use std::collections::HashMap;
use std::sync::Arc;

/// The optimizer's configuration. The default has no profile:
/// `optimize` returns the input unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassConfig {
    /// Profile-guided site selection, when a profile is supplied.
    pub profile_guided: Option<ProfileGuided>,
}

impl PassConfig {
    /// No profile (the default; `optimize` is the identity).
    pub fn none() -> PassConfig {
        PassConfig::default()
    }

    /// Equals [`PassConfig::none`]. Kept for campaign_bench; remove in
    /// its next change.
    pub fn all() -> PassConfig {
        PassConfig::none()
    }

    /// Adds profile-guided selection with the given per-site usefulness
    /// weights and threshold.
    pub fn with_profile(mut self, profile: ProfileGuided) -> PassConfig {
        self.profile_guided = Some(profile);
        self
    }

    /// Short display tag: `off`, or `pgo` with a profile.
    pub fn tag(&self) -> String {
        if self.profile_guided.is_some() {
            "pgo".into()
        } else {
            "off".into()
        }
    }
}

/// Input to the profile-guided pass: a usefulness weight per check site
/// (indexed by check-site id) and the keep threshold. The canonical
/// weight is the site's detection count from a profS.1 armed sweep;
/// sites *beyond* the vector (a profile from a smaller module, or no
/// data) are conservatively kept.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileGuided {
    /// Usefulness per check-site id.
    pub usefulness: Vec<f64>,
    /// Sites are kept when `usefulness > threshold` (strictly above).
    pub threshold: f64,
}

/// One check site dropped by profile-guided selection.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedSite {
    /// Check-site id.
    pub site: u32,
    /// Pc of the dropped check.
    pub pc: u32,
    /// Function (FuncId index) containing the site.
    pub func: u32,
    /// The site's usefulness weight from the supplied profile.
    pub usefulness: f64,
    /// The threshold it failed to exceed.
    pub threshold: f64,
    /// Pcs of replica loads elided along with the check because the
    /// dropped comparison was their only consumer: the whole access
    /// group's cost disappears, not just the comparison's.
    pub elided_load_pcs: Vec<u32>,
}

/// Everything [`optimize`] produced: the rewritten code plus a
/// machine-readable account of the dropped sites.
#[derive(Debug, Clone, PartialEq)]
pub struct OptOutcome {
    /// The optimized bytecode (same length as the input).
    pub code: LoweredCode,
    /// Sites dropped by profile-guided selection.
    pub dropped: Vec<DroppedSite>,
    /// Always empty: the pipeline has no elision pass. Kept for
    /// campaign_bench, which reports `opt.elided` from it; remove in its
    /// next change.
    pub elided: [u32; 0],
    /// Always empty: the pipeline has no fusion pass. Kept, with the two
    /// fields below, for campaign_bench, which reports `opt.fused` from
    /// them; remove in its next change.
    pub fused_load_checks: [u32; 0],
    /// Always empty (see `fused_load_checks`).
    pub fused_store_pairs: [u32; 0],
    /// Always empty (see `fused_load_checks`).
    pub fused_groups: [u32; 0],
}

impl OptOutcome {
    /// The dropped-sites report as JSON lines (one object per dropped
    /// site), the machine-readable artifact of the profile-guided pass.
    pub fn dropped_report_jsonl(&self) -> String {
        let mut s = String::new();
        for d in &self.dropped {
            let loads = d
                .elided_load_pcs
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",");
            s.push_str(&format!(
                "{{\"site\":{},\"pc\":{},\"func\":{},\"usefulness\":{},\"threshold\":{},\
                 \"elided_load_pcs\":[{loads}]}}\n",
                d.site, d.pc, d.func, d.usefulness, d.threshold
            ));
        }
        s
    }

    /// Number of live (non-dropped) check comparisons in the optimized
    /// code.
    pub fn live_checks(&self) -> u64 {
        self.code
            .ops
            .iter()
            .filter(|op| matches!(op, Op::DpmrCheck { .. }))
            .count() as u64
    }
}

/// Runs profile-guided selection over `code` when `cfg` carries a
/// profile. Without one this is the identity: a clone of the input,
/// sharing its bytecode. The pass copies the ops only when it drops a
/// site.
pub fn optimize(code: &LoweredCode, cfg: &PassConfig) -> OptOutcome {
    let mut out = OptOutcome {
        code: code.clone(),
        dropped: Vec::new(),
        elided: [],
        fused_load_checks: [],
        fused_store_pairs: [],
        fused_groups: [],
    };
    let Some(p) = &cfg.profile_guided else {
        return out;
    };
    out.dropped = profile_guided_select(&mut out.code, p);
    // The pass rewrote ops in its own copy; refresh the handler ids the
    // dispatch loop indexes by.
    if !out.dropped.is_empty() {
        out.code.rebuild_handler_ids();
    }
    out
}

/// Profile-guided site selection. Keeps a check only when its
/// usefulness weight is strictly above the threshold; dropped sites lose
/// their virtual cost. Sites without a weight are conservatively kept.
///
/// A dropped check also sheds its replica loads: any `Op::Load` in the
/// same function whose destination register has no remaining reader
/// (the dropped comparisons were its only consumers) becomes
/// [`Op::LoadElided`] — the whole replica access group's cost
/// disappears, which is the paper's partial-replication tradeoff applied
/// site by site.
fn profile_guided_select(code: &mut LoweredCode, p: &ProfileGuided) -> Vec<DroppedSite> {
    let mut dropped: Vec<DroppedSite> = Vec::new();
    // Replica value registers of each dropped live check, per function
    // (register numbers are function-scoped).
    let mut candidates: HashMap<u32, Vec<(usize, u32)>> = HashMap::new();
    for pc in 0..code.ops.len() {
        let Op::DpmrCheck { site, reps, .. } = &code.ops[pc] else {
            continue;
        };
        let site = *site;
        let Some(&u) = p.usefulness.get(site as usize) else {
            continue;
        };
        if u > p.threshold {
            continue;
        }
        let func = code.func_of_pc(pc as u32).0;
        let n_reps = reps.len() as u32;
        for &o in reps.iter() {
            if let Opnd::Reg(r) = code.operand(pc as u32, o) {
                candidates.entry(func).or_default().push((dropped.len(), r));
            }
        }
        dropped.push(DroppedSite {
            site,
            pc: pc as u32,
            func,
            usefulness: u,
            threshold: p.threshold,
            elided_load_pcs: Vec::new(),
        });
        Arc::make_mut(&mut code.ops)[pc] = Op::CheckElided { site, reps: n_reps };
    }
    // With the dropped comparisons already rewritten away, a candidate
    // register with zero remaining uses in its function is provably
    // dead: no surviving op can observe the loaded value, so every load
    // defining it can be elided. Iterate functions in index order for a
    // deterministic report.
    let mut funcs: Vec<u32> = candidates.keys().copied().collect();
    funcs.sort_unstable();
    for func in funcs {
        let start = code.func_entry[func as usize] as usize;
        let end = code
            .func_entry
            .get(func as usize + 1)
            .map_or(code.ops.len(), |&e| e as usize);
        let mut used: HashMap<u32, u32> = HashMap::new();
        for pc in start..end {
            for_each_use(code, pc as u32, &mut |r| *used.entry(r).or_insert(0) += 1);
        }
        for &(di, r) in &candidates[&func] {
            if used.get(&r).copied().unwrap_or(0) > 0 {
                continue;
            }
            for pc in start..end {
                if let Op::Load { dst, .. } = code.ops[pc] {
                    if dst == r {
                        Arc::make_mut(&mut code.ops)[pc] = Op::LoadElided {
                            dst: r,
                            site: dropped[di].site,
                        };
                        dropped[di].elided_load_pcs.push(pc as u32);
                    }
                }
            }
        }
        for d in &mut dropped {
            d.elided_load_pcs.sort_unstable();
            d.elided_load_pcs.dedup();
        }
    }
    dropped
}

/// Calls `f` with every register the op at `pc` *reads* (operand uses
/// only — destinations and repair write-back slots are defs, not uses).
fn for_each_use(code: &LoweredCode, pc: u32, f: &mut impl FnMut(u32)) {
    let mut o = |&slot: &u32| {
        if let Opnd::Reg(r) = code.operand(pc, slot) {
            f(r);
        }
    };
    match &code.ops[pc as usize] {
        Op::Alloca { count, .. } => {
            if let Some(c) = count {
                o(c);
            }
        }
        Op::Malloc { count, .. } => o(count),
        Op::Free { ptr } => o(ptr),
        Op::Load { ptr, .. } => o(ptr),
        Op::Store { ptr, value, .. } => {
            o(ptr);
            o(value);
        }
        Op::FieldAddr { base, .. } => o(base),
        Op::IndexAddr { base, index, .. } => {
            o(base);
            o(index);
        }
        Op::Cast { src, .. } => o(src),
        Op::Bin { lhs, rhs, .. } => {
            o(lhs);
            o(rhs);
        }
        Op::Cmp { lhs, rhs, .. } => {
            o(lhs);
            o(rhs);
        }
        Op::Copy { src, .. } => o(src),
        Op::CallDirect { args, .. } | Op::CallExternal { args, .. } => {
            args.iter().for_each(o);
        }
        Op::CallIndirect { target, args, .. } => {
            o(target);
            args.iter().for_each(o);
        }
        Op::DpmrCheck { a, reps, ptrs, .. } => {
            o(a);
            reps.iter().for_each(&mut o);
            if let Some((ap, rps)) = ptrs {
                o(ap);
                rps.iter().for_each(o);
            }
        }
        Op::RandInt { lo, hi, .. } => {
            o(lo);
            o(hi);
        }
        Op::HeapBufSize { ptr, .. } => o(ptr),
        Op::Output { value } => o(value),
        Op::CondJump { cond, .. } => o(cond),
        Op::Ret { value } => {
            if let Some(v) = value {
                o(v);
            }
        }
        Op::Invalid { args, .. } => args.iter().for_each(o),
        Op::FiMarker { .. }
        | Op::Abort { .. }
        | Op::Jump { .. }
        | Op::Unreachable
        | Op::BadBlock { .. }
        | Op::CheckElided { .. }
        | Op::LoadElided { .. } => {}
    }
}

#[cfg(test)]
mod tests;
