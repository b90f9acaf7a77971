//! Unit tests for the optimizer, over hand-built `LoweredCode`
//! fragments with precisely controlled op patterns.

use super::*;
use crate::code::FrameLayout;
use crate::value::{LoadKind, StoreKind};

const I64: LoadKind = LoadKind::Int { bytes: 8, bits: 64 };

/// Registers of the hand-built function; globals 0..8 are the constant
/// slots after them.
const REGS: u32 = 64;

/// The slot holding the address of global `g`.
fn global(g: u32) -> u32 {
    REGS + g
}

/// A checked-load pattern: app load, replica load, check — the shape the
/// DPMR transform lowers to. Registers are fresh per call (SSA-like).
fn checked_load(ops: &mut Vec<Op>, site: u32, app: u32, rep: u32, next_reg: &mut u32) {
    let (ra, rr) = (*next_reg, *next_reg + 1);
    *next_reg += 2;
    ops.push(Op::Load {
        dst: ra,
        ptr: global(app),
        kind: I64,
    });
    ops.push(Op::Load {
        dst: rr,
        ptr: global(rep),
        kind: I64,
    });
    ops.push(Op::DpmrCheck {
        a: ra,
        reps: Box::new([rr]),
        ptrs: Some((global(app), Box::new([global(rep)]))),
        site,
        a_reg: Some((ra, StoreKind::Raw(8))),
    });
}

fn code_of(ops: Vec<Op>, check_sites: u32) -> LoweredCode {
    LoweredCode::new(
        ops,
        vec![0],
        check_sites,
        vec![FrameLayout {
            regs: REGS,
            consts: (0..8).map(Opnd::Global).collect(),
        }],
    )
}

#[test]
fn all_passes_off_is_identity() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let code = code_of(ops, 1);
    // `all()` equals `none()`: `long_run`'s `+all` build is its `+off`
    // build.
    for cfg in [PassConfig::none(), PassConfig::all()] {
        let out = optimize(&code, &cfg);
        assert_eq!(out.code, code);
        assert!(out.dropped.is_empty());
        assert_eq!(out.live_checks(), 1);
    }
}

/// Code the pass leaves alone is shared with its input, not copied; code
/// it rewrites is its own copy, and the input reads as before.
#[test]
fn optimize_shares_the_bytecode_it_does_not_rewrite() {
    let mut ops = Vec::new();
    let mut reg = 0;
    checked_load(&mut ops, 0, 0, 1, &mut reg);
    ops.push(Op::Ret { value: None });
    let code = code_of(ops, 1);
    let before = code.ops.to_vec();
    let profile = |u: f64| {
        PassConfig::none().with_profile(ProfileGuided {
            usefulness: vec![u],
            threshold: 0.0,
        })
    };
    for cfg in [PassConfig::none(), profile(1.0)] {
        let out = optimize(&code, &cfg).code;
        assert!(Arc::ptr_eq(&out.ops, &code.ops), "{cfg:?}");
        assert!(Arc::ptr_eq(&out.handler_ids, &code.handler_ids), "{cfg:?}");
        assert!(Arc::ptr_eq(&out.func_entry, &code.func_entry), "{cfg:?}");
        assert!(Arc::ptr_eq(&out.frames, &code.frames), "{cfg:?}");
    }
    let out = optimize(&code, &profile(0.0)).code;
    assert!(!Arc::ptr_eq(&out.ops, &code.ops));
    assert!(!Arc::ptr_eq(&out.handler_ids, &code.handler_ids));
    assert!(matches!(out.ops[2], Op::CheckElided { .. }));
    assert_eq!(*code.ops, before);
    assert!(Arc::ptr_eq(&out.frames, &code.frames));
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
        Op::CheckElided { site: 0, reps: 1 }
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
        ptr: global(0),
        kind: I64,
    });
    ops.push(Op::Load {
        dst: 1,
        ptr: global(1),
        kind: I64,
    });
    for site in 0..2u32 {
        ops.push(Op::DpmrCheck {
            a: 0,
            reps: Box::new([1]),
            ptrs: Some((global(0), Box::new([global(1)]))),
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
    let cfg = PassConfig::none().with_profile(ProfileGuided {
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
    assert_eq!(PassConfig::all().tag(), "off");
    let pgo = PassConfig::none().with_profile(ProfileGuided::default());
    assert_eq!(pgo.tag(), "pgo");
}
