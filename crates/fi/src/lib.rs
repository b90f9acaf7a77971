//! # dpmr-fi
//!
//! The compiler-based fault-injection framework of Sec. 3.4.
//!
//! Faults are injected into the *input program, prior to the DPMR
//! transformation*, just as real software bugs would be present before
//! compilation, and the faulty code executes **every time** the injected
//! location runs (unlike one-shot runtime injectors, which cannot model
//! software memory faults). Two fault types are implemented, matching the
//! dissertation's evaluation:
//!
//! * **heap array resize** — reduces the number of objects requested at a
//!   heap array allocation site (by a percentage), producing out-of-bounds
//!   accesses downstream;
//! * **immediate free** — deallocates a heap buffer immediately after its
//!   allocation, producing reads/writes/frees after free.
//!
//! Every injected site is preceded by an [`Instr::FiMarker`]
//! so the VM can record the time of the first *successful* injection
//! (Table 3.2's `SF` and the time-to-detection baseline). A static filter
//! mirrors the paper's: injections that provably cannot manifest (the
//! allocator's size rounding grants the reduced request the same block)
//! are reported so the harness can skip them.
//!
//! # The campaign engine: runtime fault classes
//!
//! Beyond the two compile-time faults, this crate plans *campaigns* over
//! the expanded runtime taxonomy of [`FaultModel`] (bit-flips per memory
//! region, dangling-pointer reuse, off-by-N overflow, uninitialized read,
//! wild write — the mutation mechanics live at the VM's Mem/Interp
//! boundary, `dpmr_vm::fault`, because the interpreter applies them).
//! Sites for those classes are **ops of the lowered bytecode**, not IR
//! positions: [`enumerate_op_sites`] walks a [`LoweredCode`]'s op stream
//! and yields every load/store pc the class can hit. Lowering is pure, so
//! the pcs are stable ids; arming one as an
//! [`ArmedFault`] `(site, seed, cycle)` triple replays bit-identically.
//! [`sample_sites`] bounds a sweep with an even deterministic stride, and
//! `dpmr-harness`'s `run_fault_campaign` fans the trials across the study
//! scheduler.

pub use dpmr_vm::fault::{fault_mix, ArmedFault, FaultModel};
pub use dpmr_vm::mem::MemRegion;

use dpmr_ir::instr::{BinOp, Const, Instr, Operand, RegId};
use dpmr_ir::module::{FuncId, Module, RegInfo, RegName};
use dpmr_vm::code::{LoweredCode, Op, Opnd};
use dpmr_vm::value::Value;

/// The fault model of the evaluation (Sec. 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// Reduce a heap array allocation request to `keep_percent`% of its
    /// size (the dissertation evaluates 50 %).
    HeapArrayResize {
        /// Percentage of the original request that is kept.
        keep_percent: u8,
    },
    /// Free the allocated buffer immediately after the allocation.
    ImmediateFree,
}

impl FaultType {
    /// Display name matching the paper.
    pub fn name(self) -> String {
        match self {
            FaultType::HeapArrayResize { keep_percent } => {
                format!("heap array resize {}%", 100 - u32::from(keep_percent))
            }
            FaultType::ImmediateFree => "immediate free".into(),
        }
    }

    /// The two paper fault types (resize keeps 50 %).
    pub fn paper_set() -> Vec<FaultType> {
        vec![
            FaultType::HeapArrayResize { keep_percent: 50 },
            FaultType::ImmediateFree,
        ]
    }
}

/// One heap allocation site eligible for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectionSite {
    /// Function containing the allocation.
    pub func: FuncId,
    /// Block index.
    pub block: u32,
    /// Instruction index within the block.
    pub instr: u32,
    /// Stable site id (used as the marker id).
    pub site_id: u32,
}

/// Enumerates every heap allocation site in the module, in deterministic
/// program order.
pub fn enumerate_heap_alloc_sites(m: &Module) -> Vec<InjectionSite> {
    let mut sites = Vec::new();
    let mut id = 0u32;
    for (fi, f) in m.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, ins) in b.instrs.iter().enumerate() {
                if matches!(ins, Instr::Malloc { .. }) {
                    sites.push(InjectionSite {
                        func: FuncId(fi as u32),
                        block: bi as u32,
                        instr: ii as u32,
                        site_id: id,
                    });
                    id += 1;
                }
            }
        }
    }
    sites
}

/// The absolute pc of an IR injection site within the module's lowered
/// bytecode (one op per instruction and per terminator, so the mapping is
/// exact; see `dpmr_vm::lower`).
fn site_pc(m: &Module, code: &LoweredCode, site: &InjectionSite) -> u32 {
    let f = m.func(site.func);
    let starts = f.linear_block_starts();
    code.entry(site.func) + starts[site.block as usize] + site.instr
}

/// Statically filters injections that provably cannot manifest: a resize
/// whose reduced request is still granted the same rounded block size
/// (`malloc`'s minimum-payload and granularity rounding; Sec. 3.4's
/// example of the 24-byte minimum masking a 16-byte request).
///
/// Consults the lowered op at the site — `lower.rs` already resolved the
/// element size and pre-normalized a constant count into an immediate
/// (read back through [`LoweredCode::operand`]), so the filter no longer
/// re-derives type layout from the IR. `code` must
/// be lowered from `m` (campaigns lower once and filter every site
/// against it).
///
/// Returns `false` (filter out) only when non-manifestation is provable
/// from a constant allocation count.
pub fn may_manifest(
    m: &Module,
    code: &LoweredCode,
    site: &InjectionSite,
    fault: FaultType,
) -> bool {
    let FaultType::HeapArrayResize { keep_percent } = fault else {
        return true;
    };
    let pc = site_pc(m, code, site);
    let Op::Malloc { count, esize, .. } = &code.ops[pc as usize] else {
        return true;
    };
    let Opnd::Imm(Value::Int(value)) = code.operand(pc, *count) else {
        return true; // dynamic request size: cannot filter
    };
    let orig = esize * u64::try_from(value.max(0)).unwrap_or(0);
    let reduced = orig * u64::from(keep_percent) / 100;
    let round = |sz: u64| {
        sz.max(dpmr_vm::alloc::MIN_PAYLOAD)
            .next_multiple_of(dpmr_vm::alloc::GRANULE)
    };
    round(orig) != round(reduced)
}

/// All heap allocation sites where `fault` may manifest: enumeration
/// combined with the static filter (the module is lowered once for the
/// whole scan). Recovery campaigns iterate exactly this set — injecting a
/// filtered site only wastes runs on experiments that count as
/// unsuccessful injections. Callers scanning several fault types should
/// lower once themselves and use [`manifesting_sites_lowered`].
pub fn manifesting_sites(m: &Module, fault: FaultType) -> Vec<InjectionSite> {
    manifesting_sites_lowered(m, &dpmr_vm::lower::lower(m), fault)
}

/// Like [`manifesting_sites`] but against an already-lowered `code`
/// (which must come from `m`) — the per-fault-type loop shape, where
/// re-lowering the module for every fault would be pure waste.
pub fn manifesting_sites_lowered(
    m: &Module,
    code: &LoweredCode,
    fault: FaultType,
) -> Vec<InjectionSite> {
    enumerate_heap_alloc_sites(m)
        .into_iter()
        .filter(|s| may_manifest(m, code, s, fault))
        .collect()
}

/// Which access an [`OpSite`] performs (the site-kind axis of the
/// runtime-fault enumeration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A scalar load op.
    Load,
    /// A scalar store op.
    Store,
}

/// One load/store op of the lowered bytecode, eligible for arming a
/// runtime fault. `pc` is the stable absolute op index ([`ArmedFault`]'s
/// `site`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSite {
    /// Absolute pc into [`LoweredCode::ops`].
    pub pc: u32,
    /// Load or store.
    pub access: AccessKind,
}

/// The access an op performs and its pointer slot, for loads and stores.
fn access(op: &Op) -> Option<(AccessKind, u32)> {
    match op {
        Op::Load { ptr, .. } => Some((AccessKind::Load, *ptr)),
        Op::Store { ptr, .. } => Some((AccessKind::Store, *ptr)),
        _ => None,
    }
}

/// Enumerates every op of the lowered stream where `model` can be armed,
/// in pc order: loads and/or stores per the class's eligibility (a wild
/// write needs a store, an uninitialized read needs a load, the rest
/// take both). A globals-region bit-flip is additionally restricted to
/// direct global accesses (`Opnd::Global` pointers) — the one case where
/// the target region is statically knowable, so trials are never wasted
/// arming sites that provably cannot land in the region.
pub fn enumerate_op_sites(code: &LoweredCode, model: FaultModel) -> Vec<OpSite> {
    let globals_only = model
        == FaultModel::BitFlip {
            region: MemRegion::Globals,
        };
    let mut out = Vec::new();
    for (range, frame) in code.functions() {
        for (pc, op) in range.clone().zip(&code.ops[range]) {
            let Some((access, ptr)) = access(op) else {
                continue;
            };
            let eligible = match access {
                AccessKind::Load => model.applies_to_loads(),
                AccessKind::Store => model.applies_to_stores(),
            };
            if eligible && (!globals_only || matches!(frame.operand(ptr), Opnd::Global(_))) {
                out.push(OpSite {
                    pc: pc as u32,
                    access,
                });
            }
        }
    }
    out
}

/// Enumerates the load/store ops that access *replica* memory: ops whose
/// pointer register also appears as a replica-pointer operand of some
/// `dpmr.check` in the same function (register slots are per-function, so
/// the match is scoped to each function's op range). These are the sites
/// where an armed fault corrupts the *redundant* copy rather than the
/// application's — the class single-replica repair-from-replica handles
/// worst (it would write the corrupted replica value over correct
/// application state), and the class vote-based arbitration with K >= 2
/// exists to fix.
pub fn enumerate_replica_sites(code: &LoweredCode) -> Vec<OpSite> {
    let mut out = Vec::new();
    // One pass per function: it marks replica-pointer registers and
    // collects register-addressed accesses, which are kept once the whole
    // function is marked (a check may follow its access). The frame's
    // registers are marked in a bitmap; a slot past its constants, which
    // only hand-built code names, in a list.
    let mut replica: Vec<u64> = Vec::new();
    let mut beyond: Vec<u32> = Vec::new();
    let mut accesses: Vec<(OpSite, u32)> = Vec::new();
    for (range, frame) in code.functions() {
        replica.clear();
        replica.resize((frame.regs as usize).div_ceil(64), 0);
        beyond.clear();
        accesses.clear();
        for (pc, op) in range.clone().zip(&code.ops[range]) {
            if let Op::DpmrCheck {
                ptrs: Some((_, rps)),
                ..
            } = op
            {
                for &rp in rps.iter() {
                    match frame.operand(rp) {
                        Opnd::Reg(r) if r < frame.regs => replica[r as usize / 64] |= 1 << (r % 64),
                        Opnd::Reg(r) => beyond.push(r),
                        _ => {}
                    }
                }
            } else if let Some((access, ptr)) = access(op) {
                if let Opnd::Reg(r) = frame.operand(ptr) {
                    let site = OpSite {
                        pc: pc as u32,
                        access,
                    };
                    accesses.push((site, r));
                }
            }
        }
        out.extend(accesses.iter().filter_map(|&(site, r)| {
            let marked = if r < frame.regs {
                replica[r as usize / 64] & (1 << (r % 64)) != 0
            } else {
                beyond.contains(&r)
            };
            marked.then_some(site)
        }));
    }
    out
}

/// Deterministically samples at most `cap` sites with an even stride, so
/// a bounded sweep still spans the whole program instead of clustering at
/// its entry (plain truncation would only ever fault the prologue).
pub fn sample_sites(sites: &[OpSite], cap: usize) -> Vec<OpSite> {
    if cap == 0 || sites.is_empty() {
        return Vec::new();
    }
    if sites.len() <= cap {
        return sites.to_vec();
    }
    (0..cap).map(|i| sites[i * sites.len() / cap]).collect()
}

/// Derives the deterministic per-trial seed of a campaign run (shared by
/// the harness campaign and the tests that replay its trials).
pub fn trial_seed(site_pc: u32, run: u32) -> u64 {
    fault_mix(u64::from(site_pc), u64::from(run).wrapping_add(1) << 32)
}

/// Injects `fault` at `site`, returning the faulty program. The injected
/// code is preceded by a [`Instr::FiMarker`] carrying the site id.
///
/// # Panics
/// Panics if `site` does not name a `malloc` instruction of `m` (sites
/// must come from [`enumerate_heap_alloc_sites`] on the same module).
pub fn inject(m: &Module, site: &InjectionSite, fault: FaultType) -> Module {
    let mut out = m.clone();
    let i64t = out.types.int(64);
    // Copy-on-write: only the edited function stops being shared with `m`.
    let f = out.func_mut(site.func);
    let idx = site.instr as usize;
    let Instr::Malloc { dst, elem, count } = f.blocks[site.block as usize].instrs[idx].clone()
    else {
        panic!("injection site does not name a malloc");
    };
    match fault {
        FaultType::HeapArrayResize { keep_percent } => {
            // count' = count * keep / 100, computed at runtime so dynamic
            // request sizes are faulted too.
            let scaled = RegId(f.regs.len() as u32);
            f.regs.push(RegInfo {
                ty: i64t,
                name: RegName::from(format!("fi.scaled.{}", site.site_id).as_str()),
            });
            let reduced = RegId(f.regs.len() as u32);
            f.regs.push(RegInfo {
                ty: i64t,
                name: RegName::from(format!("fi.reduced.{}", site.site_id).as_str()),
            });
            f.blocks[site.block as usize].instrs.splice(
                idx..=idx,
                vec![
                    Instr::FiMarker { site: site.site_id },
                    Instr::Bin {
                        dst: scaled,
                        op: BinOp::Mul,
                        lhs: count,
                        rhs: Const::i64(i64::from(keep_percent)).into(),
                    },
                    Instr::Bin {
                        dst: reduced,
                        op: BinOp::SDiv,
                        lhs: Operand::Reg(scaled),
                        rhs: Const::i64(100).into(),
                    },
                    Instr::Malloc {
                        dst,
                        elem,
                        count: Operand::Reg(reduced),
                    },
                ],
            );
        }
        FaultType::ImmediateFree => {
            f.blocks[site.block as usize].instrs.splice(
                idx..=idx,
                vec![
                    Instr::Malloc { dst, elem, count },
                    Instr::FiMarker { site: site.site_id },
                    Instr::Free {
                        ptr: Operand::Reg(dst),
                    },
                ],
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_ir::prelude::*;
    use dpmr_ir::verify::verify_module;
    use dpmr_vm::prelude::*;

    fn two_alloc_program() -> Module {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let p = b.malloc(i64t, Const::i64(8).into(), "p");
        let q = b.malloc(i64t, Const::i64(2).into(), "q");
        b.store(p.into(), Const::i64(1).into());
        b.store(q.into(), Const::i64(2).into());
        let v = b.load(i64t, p.into(), "v");
        b.output(v.into());
        b.free(p.into());
        b.free(q.into());
        b.ret(Some(Const::i64(0).into()));
        let f = b.finish();
        m.entry = Some(f);
        m
    }

    #[test]
    fn enumerates_sites_in_order() {
        let m = two_alloc_program();
        let sites = enumerate_heap_alloc_sites(&m);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].site_id, 0);
        assert_eq!(sites[1].site_id, 1);
        assert!(sites[0].instr < sites[1].instr);
    }

    #[test]
    fn resize_injection_verifies_and_marks() {
        let m = two_alloc_program();
        let sites = enumerate_heap_alloc_sites(&m);
        let f = inject(
            &m,
            &sites[0],
            FaultType::HeapArrayResize { keep_percent: 50 },
        );
        assert!(verify_module(&f).is_ok());
        let out = run_with_limits(&f, &RunConfig::default());
        assert_eq!(out.fi_sites_hit.len(), 1);
        assert!(out.first_fi_cycle.is_some(), "marker records first hit");
    }

    /// Injection copies only the function it edits: every other function
    /// body stays shared with the source module, which reads as before.
    #[test]
    fn injection_copies_only_the_edited_function() {
        let mut m = two_alloc_program();
        let void = m.types.void();
        let mut b = FunctionBuilder::new(&mut m, "idle", void, &[]);
        b.ret(None);
        b.finish();
        let text = dpmr_ir::printer::print_module(&m);
        let sites = enumerate_heap_alloc_sites(&m);
        let f = inject(&m, &sites[1], FaultType::ImmediateFree);
        for (i, (a, b)) in m.funcs.iter().zip(&f.funcs).enumerate() {
            let shared = std::sync::Arc::ptr_eq(a, b);
            assert_eq!(shared, i != sites[1].func.0 as usize, "function {i}");
        }
        assert_eq!(dpmr_ir::printer::print_module(&m), text);
    }

    #[test]
    fn immediate_free_injection_causes_double_free() {
        let m = two_alloc_program();
        let sites = enumerate_heap_alloc_sites(&m);
        let f = inject(&m, &sites[0], FaultType::ImmediateFree);
        assert!(verify_module(&f).is_ok());
        let out = run_with_limits(&f, &RunConfig::default());
        // p is freed twice (immediately + at the end): allocator abort.
        assert!(
            matches!(out.status, ExitStatus::Crash(CrashKind::AllocatorAbort(_))),
            "{:?}",
            out.status
        );
    }

    #[test]
    fn static_filter_masks_rounded_requests() {
        // 2 * 8 = 16 bytes -> min payload 24 either way: filtered.
        let m = two_alloc_program();
        let code = dpmr_vm::lower::lower(&m);
        let sites = enumerate_heap_alloc_sites(&m);
        assert!(!may_manifest(
            &m,
            &code,
            &sites[1],
            FaultType::HeapArrayResize { keep_percent: 50 }
        ));
        // 8 * 8 = 64 bytes -> 32 after resize: manifests.
        assert!(may_manifest(
            &m,
            &code,
            &sites[0],
            FaultType::HeapArrayResize { keep_percent: 50 }
        ));
        // Immediate frees always may manifest.
        assert!(may_manifest(&m, &code, &sites[1], FaultType::ImmediateFree));
    }

    #[test]
    fn op_site_enumeration_respects_class_eligibility() {
        let m = two_alloc_program();
        let code = dpmr_vm::lower::lower(&m);
        let both = enumerate_op_sites(&code, FaultModel::OffByN { n: 1 });
        assert!(both.iter().any(|s| s.access == AccessKind::Load));
        assert!(both.iter().any(|s| s.access == AccessKind::Store));
        // Every site names a load/store op of the stream.
        for s in &both {
            assert!(matches!(
                code.ops[s.pc as usize],
                Op::Load { .. } | Op::Store { .. }
            ));
        }
        // Globals bit-flips arm only direct global accesses; this
        // program has none, so the class has no sites here.
        assert!(enumerate_op_sites(
            &code,
            FaultModel::BitFlip {
                region: MemRegion::Globals
            }
        )
        .is_empty());
        let loads_only = enumerate_op_sites(&code, FaultModel::UninitRead);
        assert!(loads_only.iter().all(|s| s.access == AccessKind::Load));
        let stores_only = enumerate_op_sites(&code, FaultModel::WildWrite);
        assert!(stores_only.iter().all(|s| s.access == AccessKind::Store));
        // Pure: same module, same sites.
        assert_eq!(
            both,
            enumerate_op_sites(&dpmr_vm::lower::lower(&m), FaultModel::OffByN { n: 1 })
        );
    }

    #[test]
    fn replica_sites_name_replica_accesses_only() {
        // Transform a checked program: the replica loads feeding each
        // dpmr.check are exactly the accesses whose pointer register
        // reappears as a check's replica pointer.
        let m = two_alloc_program();
        let t = dpmr_core::transform::transform(&m, &dpmr_core::config::DpmrConfig::sds())
            .expect("transform");
        let code = dpmr_vm::lower::lower(&t);
        let sites = enumerate_replica_sites(&code);
        assert!(!sites.is_empty(), "checked loads imply replica sites");
        for s in &sites {
            assert!(matches!(
                code.ops[s.pc as usize],
                Op::Load { .. } | Op::Store { .. }
            ));
        }
        // At K = 2 every checked load has two replica loads.
        let t2 = dpmr_core::transform::transform(
            &m,
            &dpmr_core::config::DpmrConfig::sds().with_replicas(2),
        )
        .expect("transform");
        let code2 = dpmr_vm::lower::lower(&t2);
        let sites2 = enumerate_replica_sites(&code2);
        assert!(
            sites2.len() >= 2 * sites.len(),
            "K = 2 at least doubles the replica-access surface ({} vs {})",
            sites2.len(),
            sites.len()
        );
        // Purity: same module, same sites.
        assert_eq!(sites, enumerate_replica_sites(&dpmr_vm::lower::lower(&t)));
    }

    #[test]
    fn sample_sites_is_even_and_deterministic() {
        let sites: Vec<OpSite> = (0..100)
            .map(|pc| OpSite {
                pc,
                access: AccessKind::Load,
            })
            .collect();
        let s = sample_sites(&sites, 4);
        assert_eq!(
            s.iter().map(|x| x.pc).collect::<Vec<_>>(),
            vec![0, 25, 50, 75],
            "even stride across the stream"
        );
        assert_eq!(sample_sites(&sites, 4), s);
        assert_eq!(
            sample_sites(&sites[..3], 8).len(),
            3,
            "cap above len is all"
        );
        assert!(sample_sites(&sites, 0).is_empty());
    }

    #[test]
    fn replica_sites_match_slots_past_the_constants_too() {
        // Hand-built code: slot 0 is a register, slot 2 the one constant,
        // and slot 9 lies past both (an unset register to the
        // interpreter). Accesses through either kind of replica pointer
        // count; one through the application pointer (slot 1) does not.
        use dpmr_vm::code::{FrameLayout, LoadKind, StoreKind};
        let check = |rep| Op::DpmrCheck {
            a: 2,
            reps: vec![2].into(),
            ptrs: Some((1, vec![rep].into())),
            site: 0,
            a_reg: None,
        };
        let load = |ptr| Op::Load {
            dst: 0,
            ptr,
            kind: LoadKind::Ptr,
        };
        let store = |ptr| Op::Store {
            ptr,
            value: 2,
            kind: StoreKind::Raw(8),
        };
        let code = LoweredCode::new(
            vec![load(9), check(9), store(1), check(0), store(0)],
            vec![0],
            0,
            vec![FrameLayout {
                regs: 2,
                consts: vec![Opnd::Imm(Value::Int(0))],
            }],
        );
        let pcs: Vec<u32> = enumerate_replica_sites(&code)
            .iter()
            .map(|s| s.pc)
            .collect();
        assert_eq!(pcs, [0, 4]);
    }

    #[test]
    fn injection_survives_dpmr_transform() {
        // The marker must pass through the transformation untouched.
        let m = two_alloc_program();
        let sites = enumerate_heap_alloc_sites(&m);
        let f = inject(
            &m,
            &sites[0],
            FaultType::HeapArrayResize { keep_percent: 50 },
        );
        let t = dpmr_core::transform::transform(&f, &dpmr_core::config::DpmrConfig::sds())
            .expect("transform");
        let markers: usize = t
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, Instr::FiMarker { .. }))
            .count();
        assert_eq!(markers, 1);
    }
}
