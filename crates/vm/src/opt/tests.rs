//! Unit tests for the pass pipeline, over hand-built `LoweredCode`
//! fragments with precisely controlled op patterns.

use super::*;
use crate::value::StoreKind;

const I64: LoadKind = LoadKind::Int { bytes: 8, bits: 64 };

/// A checked-load pattern: app load, replica load, check — the shape the
/// DPMR transform lowers to. Registers are fresh per call (SSA-like).
fn checked_load(ops: &mut Vec<Op>, site: u32, app: u32, rep: u32, next_reg: &mut u32) {
    let (ra, rr) = (*next_reg, *next_reg + 1);
    *next_reg += 2;
    ops.push(Op::Load {
        dst: ra,
        ptr: Opnd::Global(app),
        kind: I64,
    });
    ops.push(Op::Load {
        dst: rr,
        ptr: Opnd::Global(rep),
        kind: I64,
    });
    ops.push(Op::DpmrCheck {
        a: Opnd::Reg(ra),
        reps: Box::new([Opnd::Reg(rr)]),
        ptrs: Some((Opnd::Global(app), Box::new([Opnd::Global(rep)]))),
        site,
        a_reg: Some((ra, StoreKind::Raw(8))),
    });
}

fn code_of(ops: Vec<Op>, check_sites: u32) -> LoweredCode {
    let mut lc = LoweredCode {
        ops,
        func_entry: vec![0],
        check_sites,
        opcodes: Vec::new(),
    };
    lc.rebuild_opcodes();
    lc
}

#[test]
fn all_passes_off_is_identity() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let code = code_of(ops, 1);
    let out = optimize(&code, &PassConfig::none());
    assert_eq!(out.code, code);
    assert!(out.elided.is_empty());
    assert!(out.dropped.is_empty());
}

#[test]
fn elides_anchored_recheck_of_same_locations() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    checked_load(&mut ops, 1, 0, 1, &mut reg); // same locations, fresh regs
    ops.push(Op::Ret { value: None });
    let mut cfg = PassConfig::none();
    cfg.elide_redundant_checks = true;
    let out = optimize(&code_of(ops, 2), &cfg);
    assert_eq!(out.elided.len(), 1);
    let e = &out.elided[0];
    assert_eq!((e.site, e.kept_site), (1, 0));
    assert_eq!(e.backing_load_pcs, vec![3, 4]);
    assert!(matches!(
        out.code.ops[e.pc as usize],
        Op::CheckElided {
            site: 1,
            reps: 1,
            charge: true
        }
    ));
    // The proving check survives.
    assert!(matches!(
        out.code.ops[e.kept_pc as usize],
        Op::DpmrCheck { site: 0, .. }
    ));
}

#[test]
fn different_locations_are_not_elided() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    checked_load(&mut ops, 1, 2, 3, &mut reg); // different globals
    ops.push(Op::Ret { value: None });
    let mut cfg = PassConfig::none();
    cfg.elide_redundant_checks = true;
    let out = optimize(&code_of(ops, 2), &cfg);
    assert!(out.elided.is_empty());
}

#[test]
fn store_between_checks_blocks_elision() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    ops.push(Op::Store {
        ptr: Opnd::Global(5),
        value: Opnd::Imm(crate::value::Value::Int(7)),
        kind: StoreKind::Raw(8),
    });
    checked_load(&mut ops, 1, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let mut cfg = PassConfig::none();
    cfg.elide_redundant_checks = true;
    let out = optimize(&code_of(ops, 2), &cfg);
    assert!(out.elided.is_empty(), "a store invalidates all load facts");
}

#[test]
fn region_boundary_blocks_elision() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    let target = ops.len() as u32 + 1;
    ops.push(Op::Jump { target }); // the next op becomes a leader
    checked_load(&mut ops, 1, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let mut cfg = PassConfig::none();
    cfg.elide_redundant_checks = true;
    let out = optimize(&code_of(ops, 2), &cfg);
    assert!(out.elided.is_empty(), "leaders clear the evidence set");
}

#[test]
fn identical_operand_recheck_is_elided() {
    // Two checks reading the same registers with no reload in between.
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    let check = ops.last().unwrap().clone();
    let Op::DpmrCheck {
        a,
        reps,
        ptrs,
        a_reg,
        ..
    } = check
    else {
        unreachable!()
    };
    ops.push(Op::DpmrCheck {
        a,
        reps,
        ptrs,
        site: 1,
        a_reg,
    });
    ops.push(Op::Ret { value: None });
    let mut cfg = PassConfig::none();
    cfg.elide_redundant_checks = true;
    let out = optimize(&code_of(ops, 2), &cfg);
    assert_eq!(out.elided.len(), 1);
    assert!(out.elided[0].backing_load_pcs.is_empty());
}

#[test]
fn single_check_of_a_location_is_never_elided() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let mut cfg = PassConfig::all();
    cfg.profile_guided = None;
    let out = optimize(&code_of(ops, 1), &cfg);
    assert!(out.elided.is_empty());
    assert_eq!(out.live_checks(), 1);
}

#[test]
fn profile_guided_drops_only_sites_at_or_below_threshold() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    checked_load(&mut ops, 1, 2, 3, &mut reg);
    checked_load(&mut ops, 2, 4, 5, &mut reg);
    ops.push(Op::Ret { value: None });
    let cfg = PassConfig::none().with_profile(ProfileGuided {
        usefulness: vec![0.0, 3.0], // site 2 has no weight: kept
        threshold: 0.0,
    });
    let out = optimize(&code_of(ops, 3), &cfg);
    assert_eq!(out.dropped.len(), 1);
    assert_eq!(out.dropped[0].site, 0);
    assert!(matches!(
        out.code.ops[out.dropped[0].pc as usize],
        Op::CheckElided { charge: false, .. }
    ));
    // The dropped comparison was the replica load's only consumer, so
    // the load at pc 1 goes too; the app load (pc 0) has its register
    // read elsewhere only via the check's repair slot, which is a def,
    // but its value also backs nothing else here — it still survives
    // because only *replica* operand registers are candidates.
    assert_eq!(out.dropped[0].elided_load_pcs, vec![1]);
    assert!(matches!(
        out.code.ops[1],
        Op::LoadElided { dst: 1, site: 0 }
    ));
    assert!(matches!(out.code.ops[0], Op::Load { .. }));
    // Surviving sites keep their replica loads.
    assert!(matches!(out.code.ops[4], Op::Load { .. }));
    assert!(matches!(out.code.ops[7], Op::Load { .. }));
    let report = out.dropped_report_jsonl();
    assert!(report.contains("\"site\":0"));
    assert!(report.contains("\"elided_load_pcs\":[1]"));
    assert_eq!(report.lines().count(), 1);
}

#[test]
fn pgo_keeps_replica_loads_with_surviving_readers() {
    // Two checks compare the *same* replica register; only one site is
    // dropped, so the backing load must survive for the kept check.
    let mut ops = Vec::new();
    ops.push(Op::Load {
        dst: 0,
        ptr: Opnd::Global(0),
        kind: I64,
    });
    ops.push(Op::Load {
        dst: 1,
        ptr: Opnd::Global(1),
        kind: I64,
    });
    for site in 0..2u32 {
        ops.push(Op::DpmrCheck {
            a: Opnd::Reg(0),
            reps: Box::new([Opnd::Reg(1)]),
            ptrs: Some((Opnd::Global(0), Box::new([Opnd::Global(1)]))),
            site,
            a_reg: None,
        });
    }
    ops.push(Op::Ret { value: None });
    let cfg = PassConfig::none().with_profile(ProfileGuided {
        usefulness: vec![0.0, 5.0],
        threshold: 0.0,
    });
    let out = optimize(&code_of(ops, 2), &cfg);
    assert_eq!(out.dropped.len(), 1);
    assert!(out.dropped[0].elided_load_pcs.is_empty());
    assert!(matches!(out.code.ops[1], Op::Load { .. }));
}

#[test]
fn optimize_is_deterministic() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    checked_load(&mut ops, 1, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let code = code_of(ops, 2);
    let cfg = PassConfig::all().with_profile(ProfileGuided {
        usefulness: vec![1.0, 1.0],
        threshold: 0.5,
    });
    let a = optimize(&code, &cfg);
    let b = optimize(&code, &cfg);
    assert_eq!(a, b);
}

#[test]
fn pass_config_tags() {
    assert_eq!(PassConfig::none().tag(), "off");
    assert_eq!(PassConfig::all().tag(), "elide");
    let pgo = PassConfig::all().with_profile(ProfileGuided::default());
    assert_eq!(pgo.tag(), "elide+pgo");
}
