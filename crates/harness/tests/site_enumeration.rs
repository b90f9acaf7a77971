//! Differential check of runtime-fault site enumeration.
//!
//! `dpmr_fi::enumerate_op_sites` and `enumerate_replica_sites` walk each
//! function's op range once and resolve slots through its frame layout.
//! The reference versions below resolve every operand through
//! `LoweredCode::operand` (a function search per operand) and collect
//! replica registers in an ordered set. Both must yield the same sites, in
//! the same order, for every evaluated app under every replication variant
//! and every paper fault class.

use dpmr_core::prelude::*;
use dpmr_fi::{AccessKind, FaultModel, MemRegion, OpSite};
use dpmr_harness::metrics::replication_variants;
use dpmr_vm::code::{LoweredCode, Op, Opnd};
use dpmr_vm::lower::lower;
use dpmr_workloads::WorkloadParams;
use std::collections::BTreeSet;

mod common;

fn reference_op_sites(code: &LoweredCode, model: FaultModel) -> Vec<OpSite> {
    code.ops
        .iter()
        .enumerate()
        .filter_map(|(pc, op)| {
            let (access, ptr) = match op {
                Op::Load { ptr, .. } => (AccessKind::Load, ptr),
                Op::Store { ptr, .. } => (AccessKind::Store, ptr),
                _ => return None,
            };
            let mut eligible = match access {
                AccessKind::Load => model.applies_to_loads(),
                AccessKind::Store => model.applies_to_stores(),
            };
            if let FaultModel::BitFlip {
                region: MemRegion::Globals,
            } = model
            {
                eligible &= matches!(code.operand(pc as u32, *ptr), Opnd::Global(_));
            }
            eligible.then_some(OpSite {
                pc: pc as u32,
                access,
            })
        })
        .collect()
}

fn reference_replica_sites(code: &LoweredCode) -> Vec<OpSite> {
    let mut out = Vec::new();
    let nfuncs = code.func_entry.len();
    for fi in 0..nfuncs {
        let start = code.func_entry[fi] as usize;
        let end = if fi + 1 < nfuncs {
            code.func_entry[fi + 1] as usize
        } else {
            code.ops.len()
        };
        let mut rep_regs = BTreeSet::new();
        for (pc, op) in code.ops.iter().enumerate().take(end).skip(start) {
            if let Op::DpmrCheck {
                ptrs: Some((_, rps)),
                ..
            } = op
            {
                for &rp in rps.iter() {
                    if let Opnd::Reg(r) = code.operand(pc as u32, rp) {
                        rep_regs.insert(r);
                    }
                }
            }
        }
        for (pc, op) in code.ops.iter().enumerate().take(end).skip(start) {
            let (access, ptr) = match op {
                Op::Load { ptr, .. } => (AccessKind::Load, ptr),
                Op::Store { ptr, .. } => (AccessKind::Store, ptr),
                _ => continue,
            };
            if let Opnd::Reg(r) = code.operand(pc as u32, *ptr) {
                if rep_regs.contains(&r) {
                    out.push(OpSite {
                        pc: pc as u32,
                        access,
                    });
                }
            }
        }
    }
    out
}

#[test]
fn site_enumeration_matches_the_reference_on_every_build() {
    let params = WorkloadParams::default();
    let (mut builds, mut replica_sites, mut globals_sites) = (0, 0, 0);
    for app in common::golden_apps() {
        let m = (app.build)(&params);
        for (name, cfg) in replication_variants(&DpmrConfig::sds()) {
            let Ok(t) = transform(&m, &cfg) else {
                continue;
            };
            let code = lower(&t);
            builds += 1;
            for model in FaultModel::paper_set() {
                let sites = dpmr_fi::enumerate_op_sites(&code, model);
                assert_eq!(
                    sites,
                    reference_op_sites(&code, model),
                    "{} {name}: {model:?} sites",
                    app.name
                );
                if model
                    == (FaultModel::BitFlip {
                        region: MemRegion::Globals,
                    })
                {
                    globals_sites += sites.len();
                }
            }
            let sites = dpmr_fi::enumerate_replica_sites(&code);
            assert_eq!(
                sites,
                reference_replica_sites(&code),
                "{} {name}: replica sites",
                app.name
            );
            replica_sites += sites.len();
        }
    }
    // The comparison must have had something to compare.
    assert!(builds > 0 && replica_sites > 0 && globals_sites > 0);
}
