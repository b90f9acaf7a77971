//! Optimizing pass pipeline over [`LoweredCode`].
//!
//! Kirin-style rewrite passes: each pass consumes a `LoweredCode` and
//! produces a `LoweredCode`, each independently toggleable through
//! [`PassConfig`] (carried on the DPMR build configuration). With every
//! pass off, [`optimize`] is the identity — the engine-parity golden and
//! every existing artifact are byte-identical to the unoptimized engine.
//!
//! # Pc stability
//!
//! Passes rewrite ops **in place** and never insert or remove slots, so
//! absolute pcs keep their meaning in optimized code: armed faults,
//! check-site ids, and pc profiles all stay comparable across pass
//! combinations. The one portability caveat: snapshots restore only
//! into interpreters sharing *(module, `PassConfig`)*, not just the
//! module.
//!
//! # The passes, in pipeline order
//!
//! 1. **Redundant-check elimination** ([`PassConfig::elide_redundant_checks`]):
//!    replaces a `dpmr.check` with [`Op::CheckElided`] (`charge = true`)
//!    when an earlier check of the *same locations* in the same
//!    straight-line region proves the comparison must repeat its result.
//!    The elided op still consumes the original `CHECK × K` virtual
//!    cycles and site-stat accounting, so clean-run [`RunOutcome`]s —
//!    cycles included — are identical by construction; the win is host
//!    time only. See the safety argument on `elide_redundant_checks`.
//! 2. **Profile-guided selection** ([`PassConfig::profile_guided`]):
//!    takes a profS.1-style site profile and keeps only check sites
//!    whose usefulness exceeds a threshold; dropped sites become
//!    [`Op::CheckElided`] with `charge = false` — their virtual cost
//!    disappears too, and replica loads whose only consumer was the
//!    dropped comparison become no-op [`Op::LoadElided`] slots, so the
//!    site sheds its whole access group. This pass intentionally
//!    changes semantics (it trades coverage for overhead, the paper's
//!    partial-replication tradeoff) and reports every dropped site —
//!    with its elided replica loads — machine-readably.
//!
//! [`RunOutcome`]: crate::interp::RunOutcome

use crate::code::{LoweredCode, Op, Opnd};
use crate::value::LoadKind;
use std::collections::HashMap;

/// Toggles for each rewrite pass. The default is all-off: `optimize`
/// returns the input unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassConfig {
    /// Pass 1: replace provably redundant `dpmr.check` comparisons with
    /// cost-preserving [`Op::CheckElided`] ops.
    pub elide_redundant_checks: bool,
    /// Pass 2: profile-guided site selection, when a profile is supplied.
    pub profile_guided: Option<ProfileGuided>,
}

impl PassConfig {
    /// All passes off (the default; `optimize` is the identity).
    pub fn none() -> PassConfig {
        PassConfig::default()
    }

    /// The semantics-preserving pass on (redundant-check elision), no
    /// profile-guided selection.
    pub fn all() -> PassConfig {
        PassConfig {
            elide_redundant_checks: true,
            profile_guided: None,
        }
    }

    /// Adds profile-guided selection with the given per-site usefulness
    /// weights and threshold.
    pub fn with_profile(mut self, profile: ProfileGuided) -> PassConfig {
        self.profile_guided = Some(profile);
        self
    }

    /// True when no pass is enabled ([`optimize`] is the identity).
    pub fn is_noop(&self) -> bool {
        !self.elide_redundant_checks && self.profile_guided.is_none()
    }

    /// Short display tag, e.g. `off`, `elide`, `elide+pgo` (pipeline
    /// order).
    pub fn tag(&self) -> String {
        let mut parts = Vec::new();
        if self.elide_redundant_checks {
            parts.push("elide");
        }
        if self.profile_guided.is_some() {
            parts.push("pgo");
        }
        if parts.is_empty() {
            "off".into()
        } else {
            parts.join("+")
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

/// One check comparison removed by redundant-check elimination.
#[derive(Debug, Clone, PartialEq)]
pub struct ElidedCheck {
    /// Site id of the elided check.
    pub site: u32,
    /// Pc of the elided check.
    pub pc: u32,
    /// Site id of the earlier check that proves it redundant.
    pub kept_site: u32,
    /// Pc of the proving check.
    pub kept_pc: u32,
    /// Pcs of the loads feeding the elided comparison (empty for the
    /// identical-operands form). A fault armed at one of these pcs can
    /// corrupt a value only the elided comparison would have seen, so
    /// differential harnesses scope armed-run equivalence to faults
    /// armed elsewhere.
    pub backing_load_pcs: Vec<u32>,
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
/// machine-readable account of what each pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct OptOutcome {
    /// The optimized bytecode (same length as the input).
    pub code: LoweredCode,
    /// Checks elided by pass 1 (cost-preserving).
    pub elided: Vec<ElidedCheck>,
    /// Sites dropped by pass 2 (cost-removing).
    pub dropped: Vec<DroppedSite>,
    /// Always empty: the pipeline has no fusion pass. Kept, with the two
    /// fields below, for reports that still print a fused-op count.
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

    /// Number of live (non-elided, non-dropped) check comparisons in the
    /// optimized code.
    pub fn live_checks(&self) -> u64 {
        live_check_count(&self.code)
    }
}

/// Counts live check comparisons (`DpmrCheck` ops) in a code object.
pub fn live_check_count(code: &LoweredCode) -> u64 {
    code.ops
        .iter()
        .filter(|op| matches!(op, Op::DpmrCheck { .. }))
        .count() as u64
}

/// Runs the enabled passes over `code` in pipeline order (elision →
/// profile-guided selection). With all passes off this is the identity
/// (a clone of the input).
pub fn optimize(code: &LoweredCode, cfg: &PassConfig) -> OptOutcome {
    let mut out = OptOutcome {
        code: code.clone(),
        elided: Vec::new(),
        dropped: Vec::new(),
        fused_load_checks: [],
        fused_store_pairs: [],
        fused_groups: [],
    };
    if cfg.is_noop() {
        return out;
    }
    let leaders = leaders(&out.code);
    if cfg.elide_redundant_checks {
        out.elided = elide_redundant_checks(&mut out.code, &leaders);
    }
    if let Some(p) = &cfg.profile_guided {
        out.dropped = profile_guided_select(&mut out.code, p);
    }
    // Passes rewrite ops in place; refresh the dense discriminants the
    // dispatch loop indexes by.
    out.code.rebuild_opcodes();
    out
}

/// Convenience: lowers `module` and optimizes the result in one step.
pub fn optimize_module(module: &dpmr_ir::module::Module, cfg: &PassConfig) -> OptOutcome {
    optimize(&crate::lower::lower(module), cfg)
}

/// Marks every pc that can be entered from somewhere other than the
/// preceding op: function entries and jump targets. These delimit the
/// straight-line regions the elision pass reasons over.
fn leaders(code: &LoweredCode) -> Vec<bool> {
    let mut l = vec![false; code.ops.len()];
    for &e in &code.func_entry {
        if let Some(s) = l.get_mut(e as usize) {
            *s = true;
        }
    }
    for op in &code.ops {
        match op {
            Op::Jump { target } => {
                if let Some(s) = l.get_mut(*target as usize) {
                    *s = true;
                }
            }
            Op::CondJump {
                then_pc, else_pc, ..
            } => {
                if let Some(s) = l.get_mut(*then_pc as usize) {
                    *s = true;
                }
                if let Some(s) = l.get_mut(*else_pc as usize) {
                    *s = true;
                }
            }
            _ => {}
        }
    }
    l
}

/// The register an op writes, if any (used to invalidate facts that
/// mention it). A `dpmr.check` counts as writing its in-flight register
/// slot — the repair paths do.
fn def_reg(op: &Op) -> Option<u32> {
    match op {
        Op::Alloca { dst, .. }
        | Op::Malloc { dst, .. }
        | Op::Load { dst, .. }
        | Op::FieldAddr { dst, .. }
        | Op::IndexAddr { dst, .. }
        | Op::Cast { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Cmp { dst, .. }
        | Op::Copy { dst, .. }
        | Op::RandInt { dst, .. }
        | Op::HeapBufSize { dst, .. } => Some(*dst),
        Op::CallDirect { dst, .. }
        | Op::CallIndirect { dst, .. }
        | Op::CallExternal { dst, .. } => *dst,
        Op::DpmrCheck { a_reg, .. } => a_reg.map(|(slot, _)| slot),
        _ => None,
    }
}

/// True when the check op reads register `d` in any operand position
/// (application value, replicas, or locations).
fn check_reads_reg(op: &Op, d: u32) -> bool {
    let Op::DpmrCheck { a, reps, ptrs, .. } = op else {
        return false;
    };
    let is_d = |o: &Opnd| matches!(o, Opnd::Reg(r) if *r == d);
    if is_d(a) || reps.iter().any(&is_d) {
        return true;
    }
    match ptrs {
        Some((ap, rps)) => is_d(ap) || rps.iter().any(is_d),
        None => false,
    }
}

/// Where a register's value was last loaded from, while that fact is
/// still valid (no intervening memory write, call, or redefinition of
/// the address register).
#[derive(Debug, Clone, PartialEq)]
struct LoadedFrom {
    loc: Opnd,
    kind: LoadKind,
    pc: u32,
}

/// The location signature of a check whose compared values are all
/// freshly loaded from the locations the check itself names.
#[derive(Debug, Clone, PartialEq)]
struct Anchor {
    app_loc: Opnd,
    rep_locs: Vec<Opnd>,
    kinds: Vec<LoadKind>,
    load_pcs: Vec<u32>,
}

/// Computes the location anchor of a check at `pc`, if every compared
/// operand is a register whose current value is a still-valid load from
/// the corresponding location the check names.
fn anchor_of(op: &Op, loaded: &HashMap<u32, LoadedFrom>) -> Option<Anchor> {
    let Op::DpmrCheck {
        a,
        reps,
        ptrs: Some((ap, rps)),
        ..
    } = op
    else {
        return None;
    };
    if rps.len() != reps.len() {
        return None;
    }
    let mut kinds = Vec::with_capacity(1 + reps.len());
    let mut load_pcs = Vec::with_capacity(1 + reps.len());
    let resolve = |value: &Opnd, loc: &Opnd| -> Option<(LoadKind, u32)> {
        let Opnd::Reg(r) = value else { return None };
        let lf = loaded.get(r)?;
        (lf.loc == *loc).then_some((lf.kind, lf.pc))
    };
    let (k, p) = resolve(a, ap)?;
    kinds.push(k);
    load_pcs.push(p);
    for (rv, rl) in reps.iter().zip(rps.iter()) {
        let (k, p) = resolve(rv, rl)?;
        kinds.push(k);
        load_pcs.push(p);
    }
    Some(Anchor {
        app_loc: *ap,
        rep_locs: rps.to_vec(),
        kinds,
        load_pcs,
    })
}

/// An earlier check still available as elision evidence.
#[derive(Debug, Clone)]
struct AvailCheck {
    pc: u32,
    site: u32,
    anchor: Option<Anchor>,
}

/// Pass 1: redundant-check elimination.
///
/// # Safety argument
///
/// A check `C2` is elided only when an earlier check `C1` in the same
/// straight-line region (no intervening leader) proves its comparison
/// outcome, under one of two rules:
///
/// * **Same locations, fresh loads.** Both checks are *anchored*: every
///   compared register is a still-valid load from exactly the location
///   operand the check names (tracked through the pre-resolved
///   [`LoadKind`] metadata), the two checks name equal location operand
///   tuples with equal load kinds, and `C2`'s loads all execute *after*
///   `C1`. Since `C1` compared the then-current contents of those
///   locations and no op between them can write memory — stores,
///   `malloc`/`free` (in-band allocator metadata), `alloca` (fresh
///   stack space is garbage-filled), and every call (conservative
///   across calls and external handlers) clear the fact set — `C2`
///   reloads unchanged bytes and must repeat `C1`'s verdict. If `C1`
///   detected and a handler repaired, the repair wrote the winning
///   value back to the very locations `C2` reloads, so `C2` passes.
/// * **Identical operands.** `C2` reads exactly the operands of `C1`
///   (same registers/immediates for value, replicas, and locations)
///   and none of those registers is redefined in between, so the
///   compared bits are literally the same.
///
/// Either way a clean run's behaviour is bit-identical; the replacement
/// [`Op::CheckElided`] keeps `charge = true` so the virtual clock and
/// site stats are too. Under *armed faults*, a fault at one of `C2`'s
/// backing load pcs can corrupt a value only `C2` would have compared —
/// those pcs are reported per elision so differential harnesses can
/// scope armed-run equivalence to faults armed at surviving sites.
fn elide_redundant_checks(code: &mut LoweredCode, leaders: &[bool]) -> Vec<ElidedCheck> {
    let mut loaded: HashMap<u32, LoadedFrom> = HashMap::new();
    let mut avail: Vec<AvailCheck> = Vec::new();
    let mut elisions: Vec<ElidedCheck> = Vec::new();

    for (pc, &leader) in leaders.iter().enumerate().take(code.ops.len()) {
        if leader {
            loaded.clear();
            avail.clear();
        }
        let op = &code.ops[pc];
        match op {
            Op::DpmrCheck { site, .. } => {
                let site = *site;
                let anchor = anchor_of(op, &loaded);
                let matched = avail
                    .iter()
                    .find(|c| {
                        match (&c.anchor, &anchor) {
                            // Same locations, same kinds, and every backing
                            // load of the candidate is fresher than the
                            // proving check.
                            (Some(k), Some(a)) => {
                                k.app_loc == a.app_loc
                                    && k.rep_locs == a.rep_locs
                                    && k.kinds == a.kinds
                                    && a.load_pcs.iter().all(|&lp| lp > c.pc)
                            }
                            // Identical operand tuples (site id aside).
                            _ => same_check_operands(&code.ops[c.pc as usize], op),
                        }
                    })
                    .map(|kept| (kept.site, kept.pc));
                // The repair paths may write the in-flight register: drop
                // loaded-from facts and *other* available checks that read
                // it. This check itself stays available — a repair writes
                // the winning value to both the register and the named
                // locations, so its anchor (and the identity rule, which
                // can at worst duplicate a detection, never flip a
                // verdict) remain valid evidence.
                if let Some(d) = def_reg(&code.ops[pc]) {
                    invalidate_reg(&mut loaded, &mut avail, code, d);
                }
                if let Some((kept_site, kept_pc)) = matched {
                    elisions.push(ElidedCheck {
                        site,
                        pc: pc as u32,
                        kept_site,
                        kept_pc,
                        backing_load_pcs: anchor.map(|a| a.load_pcs).unwrap_or_default(),
                    });
                } else {
                    avail.push(AvailCheck {
                        pc: pc as u32,
                        site,
                        anchor,
                    });
                }
            }
            // Memory writers and calls end every fact's validity:
            // stores (any address), the allocator's in-band metadata
            // (malloc/free), alloca's garbage fill, and anything a
            // callee or external handler might write.
            Op::Store { .. }
            | Op::Malloc { .. }
            | Op::Free { .. }
            | Op::Alloca { .. }
            | Op::CallDirect { .. }
            | Op::CallIndirect { .. }
            | Op::CallExternal { .. } => {
                loaded.clear();
                avail.clear();
            }
            // Control transfers end the region.
            Op::Jump { .. }
            | Op::CondJump { .. }
            | Op::Ret { .. }
            | Op::Unreachable
            | Op::Abort { .. }
            | Op::BadBlock { .. }
            | Op::Invalid { .. } => {
                loaded.clear();
                avail.clear();
            }
            Op::Load { dst, ptr, kind } => {
                let (dst, ptr, kind) = (*dst, *ptr, *kind);
                invalidate_reg(&mut loaded, &mut avail, code, dst);
                // `load r <- *r` consumes the address; the fact would
                // name a register that no longer holds it.
                if !matches!(ptr, Opnd::Reg(r) if r == dst) {
                    loaded.insert(
                        dst,
                        LoadedFrom {
                            loc: ptr,
                            kind,
                            pc: pc as u32,
                        },
                    );
                }
            }
            _ => {
                if let Some(d) = def_reg(op) {
                    invalidate_reg(&mut loaded, &mut avail, code, d);
                }
            }
        }
    }

    for e in &elisions {
        let reps = match &code.ops[e.pc as usize] {
            Op::DpmrCheck { reps, .. } => reps.len() as u32,
            _ => unreachable!("elision recorded at a non-check pc"),
        };
        code.ops[e.pc as usize] = Op::CheckElided {
            site: e.site,
            reps,
            charge: true,
        };
    }
    elisions
}

/// Drops every fact mentioning register `d`: its own last-load entry,
/// entries whose address register it is, and available checks reading it.
fn invalidate_reg(
    loaded: &mut HashMap<u32, LoadedFrom>,
    avail: &mut Vec<AvailCheck>,
    code: &LoweredCode,
    d: u32,
) {
    loaded.remove(&d);
    loaded.retain(|_, lf| !matches!(lf.loc, Opnd::Reg(r) if r == d));
    avail.retain(|c| !check_reads_reg(&code.ops[c.pc as usize], d));
}

/// True when two checks read identical operand tuples (everything but
/// the site id).
fn same_check_operands(kept: &Op, cand: &Op) -> bool {
    let (
        Op::DpmrCheck {
            a: a1,
            reps: r1,
            ptrs: p1,
            a_reg: g1,
            ..
        },
        Op::DpmrCheck {
            a: a2,
            reps: r2,
            ptrs: p2,
            a_reg: g2,
            ..
        },
    ) = (kept, cand)
    else {
        return false;
    };
    a1 == a2 && r1 == r2 && p1 == p2 && g1 == g2
}

/// Pass 2: profile-guided site selection. Keeps a check only when its
/// usefulness weight is strictly above the threshold; dropped sites
/// (including sites pass 1 already elided) lose their virtual cost
/// (`charge = false`). Sites without a weight are conservatively kept.
///
/// A dropped check that was still live also sheds its replica loads:
/// any `Op::Load` in the same function whose destination register has
/// no remaining reader (the dropped comparisons were its only
/// consumers) becomes [`Op::LoadElided`] — the whole replica access
/// group's cost disappears, which is the paper's partial-replication
/// tradeoff applied site by site. Checks pass 1 already elided carry no
/// operands anymore, so their backing loads are left in place (pass 1
/// is cost-preserving and they still charge the clock).
fn profile_guided_select(code: &mut LoweredCode, p: &ProfileGuided) -> Vec<DroppedSite> {
    let mut dropped: Vec<DroppedSite> = Vec::new();
    // Replica value registers of each dropped live check, per function
    // (register numbers are function-scoped).
    let mut candidates: HashMap<u32, Vec<(usize, u32)>> = HashMap::new();
    for pc in 0..code.ops.len() {
        let (site, reps, rep_regs) = match &code.ops[pc] {
            Op::DpmrCheck { site, reps, .. } => (
                *site,
                reps.len() as u32,
                reps.iter()
                    .filter_map(|o| match o {
                        Opnd::Reg(r) => Some(*r),
                        _ => None,
                    })
                    .collect::<Vec<_>>(),
            ),
            Op::CheckElided {
                site,
                reps,
                charge: true,
            } => (*site, *reps, Vec::new()),
            _ => continue,
        };
        let Some(&u) = p.usefulness.get(site as usize) else {
            continue;
        };
        if u > p.threshold {
            continue;
        }
        let func = code.func_of_pc(pc as u32).0;
        for r in rep_regs {
            candidates.entry(func).or_default().push((dropped.len(), r));
        }
        dropped.push(DroppedSite {
            site,
            pc: pc as u32,
            func,
            usefulness: u,
            threshold: p.threshold,
            elided_load_pcs: Vec::new(),
        });
        code.ops[pc] = Op::CheckElided {
            site,
            reps,
            charge: false,
        };
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
        for op in &code.ops[start..end] {
            for_each_use(op, &mut |r| *used.entry(r).or_insert(0) += 1);
        }
        for &(di, r) in &candidates[&func] {
            if used.get(&r).copied().unwrap_or(0) > 0 {
                continue;
            }
            for pc in start..end {
                if let Op::Load { dst, .. } = code.ops[pc] {
                    if dst == r {
                        code.ops[pc] = Op::LoadElided {
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

/// Calls `f` with every register an op *reads* (operand uses only —
/// destinations and repair write-back slots are defs, not uses).
fn for_each_use(op: &Op, f: &mut impl FnMut(u32)) {
    let mut o = |o: &Opnd| {
        if let Opnd::Reg(r) = o {
            f(*r);
        }
    };
    match op {
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
