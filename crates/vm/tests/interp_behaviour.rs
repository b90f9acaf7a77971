//! Interpreter behaviour tests: one test per instruction family, plus the
//! trap taxonomy (memory faults, allocator aborts, invalid execution,
//! timeouts) that the evaluation's natural-detection metric depends on.

use dpmr_ir::prelude::*;
use dpmr_vm::prelude::*;

fn module_with_main(build: impl FnOnce(&mut FunctionBuilder<'_>)) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    build(&mut b);
    let f = b.finish();
    m.entry = Some(f);
    m
}

fn run(m: &Module) -> RunOutcome {
    run_with_limits(m, &RunConfig::default())
}

#[test]
fn arithmetic_width_semantics() {
    let m = module_with_main(|b| {
        let i8t = b.module.types.int(8);
        let i64t = b.module.types.int(64);
        // i8 overflow wraps: 127 + 1 = -128.
        let x = b.bin(BinOp::Add, i8t, Const::i8(127).into(), Const::i8(1).into());
        let wide = b.cast(CastOp::Sext, i64t, x.into(), "wide");
        b.output(wide.into());
        // Unsigned shift of a negative value.
        let sh = b.bin(
            BinOp::LShr,
            i64t,
            Const::i64(-1).into(),
            Const::i64(60).into(),
        );
        b.output(sh.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::Normal(0));
    assert_eq!(out.output[0] as i64, -128);
    assert_eq!(out.output[1], 15);
}

#[test]
fn division_by_zero_crashes() {
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let z = b.bin(
            BinOp::SDiv,
            i64t,
            Const::i64(1).into(),
            Const::i64(0).into(),
        );
        b.output(z.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert!(matches!(
        out.status,
        ExitStatus::Crash(CrashKind::InvalidExec(_))
    ));
    assert!(out.status.is_natural_detection());
}

#[test]
fn float_roundtrip_through_f32_loses_precision() {
    let m = module_with_main(|b| {
        let f32t = b.module.types.float(32);
        let f64t = b.module.types.float(64);
        let i64t = b.module.types.int(64);
        let p = b.alloca(f32t, "slot");
        b.store(
            p.into(),
            Const::Float {
                value: 1.000000119,
                bits: 32,
            }
            .into(),
        );
        let v = b.load(f32t, p.into(), "v");
        let wide = b.cast(CastOp::FpCast, f64t, v.into(), "wide");
        let scaled = b.bin(BinOp::FMul, f64t, wide.into(), Const::f64(1.0e9).into());
        let i = b.cast(CastOp::FpToSi, i64t, scaled.into(), "i");
        b.output(i.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::Normal(0));
    // f32 rounds 1.000000119 to exactly 1.0000001192...
    assert_eq!(out.output[0], 1_000_000_119);
}

#[test]
fn struct_field_addressing_respects_layout() {
    let m = module_with_main(|b| {
        let i8t = b.module.types.int(8);
        let i64t = b.module.types.int(64);
        let s = b.module.types.struct_type("s", vec![i8t, i64t]);
        let p = b.alloca(s, "s");
        let f0 = b.field_addr(p.into(), 0, "f0");
        b.store(f0.into(), Const::i8(7).into());
        let f1 = b.field_addr(p.into(), 1, "f1");
        b.store(f1.into(), Const::i64(1234).into());
        let v0 = b.load(i8t, f0.into(), "v0");
        let v1 = b.load(i64t, f1.into(), "v1");
        let v0w = b.cast(CastOp::Sext, i64t, v0.into(), "v0w");
        b.output(v0w.into());
        b.output(v1.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.output, vec![7, 1234]);
}

#[test]
fn union_members_share_storage() {
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let f64t = b.module.types.float(64);
        let u = b.module.types.union_type("u", vec![i64t, f64t]);
        let p = b.alloca(u, "u");
        let fi = b.field_addr(p.into(), 0, "fi");
        let ff = b.field_addr(p.into(), 1, "ff");
        b.store(ff.into(), Const::f64(1.0).into());
        let raw = b.load(i64t, fi.into(), "raw");
        b.output(raw.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.output[0], 1.0f64.to_bits());
}

#[test]
fn indirect_call_through_function_pointer() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let callee = {
        let mut b = FunctionBuilder::new(&mut m, "twice", i64t, &[("x", i64t)]);
        let x = b.param(0);
        let y = b.bin(BinOp::Mul, i64t, x.into(), Const::i64(2).into());
        b.ret(Some(y.into()));
        b.finish()
    };
    let main = {
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let fn_ty = b.module.types.function(i64t, vec![i64t]);
        let fp_ty = b.module.types.pointer(fn_ty);
        let fp = b.copy(fp_ty, Operand::Func(callee), "fp");
        let r = b
            .call(
                Callee::Indirect(fp.into()),
                vec![Const::i64(21).into()],
                Some(i64t),
                "r",
            )
            .expect("r");
        b.output(r.into());
        b.ret(Some(Const::i64(0).into()));
        b.finish()
    };
    m.entry = Some(main);
    let out = run(&m);
    assert_eq!(out.output, vec![42]);
}

#[test]
fn indirect_call_of_bad_pointer_crashes() {
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let fn_ty = b.module.types.function(i64t, vec![]);
        let fp_ty = b.module.types.pointer(fn_ty);
        let bogus = b.cast(CastOp::IntToPtr, fp_ty, Const::i64(0x1234).into(), "bogus");
        let r = b.call(Callee::Indirect(bogus.into()), vec![], Some(i64t), "r");
        b.output(r.expect("reg").into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert!(matches!(
        out.status,
        ExitStatus::Crash(CrashKind::InvalidExec(_))
    ));
}

#[test]
fn deep_recursion_overflows_stack() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    // fn rec(n) { if n == 0 { 0 } else { rec(n - 1) } } — placeholder
    // built by self-call: create with a body that calls function id 0.
    let mut b = FunctionBuilder::new(&mut m, "rec", i64t, &[("n", i64t)]);
    let n = b.param(0);
    // Burn stack per frame.
    let _big = b.alloca_n(i64t, Const::i64(64).into(), "frame");
    let done = b.cmp(CmpPred::Eq, n.into(), Const::i64(0).into());
    let base_bb = b.block();
    let rec_bb = b.block();
    b.cond_br(done.into(), base_bb, rec_bb);
    b.switch_to(base_bb);
    b.ret(Some(Const::i64(0).into()));
    b.switch_to(rec_bb);
    let n1 = b.bin(BinOp::Sub, i64t, n.into(), Const::i64(1).into());
    let r = b
        .call(Callee::Direct(FuncId(0)), vec![n1.into()], Some(i64t), "r")
        .expect("r");
    b.ret(Some(r.into()));
    let rec = b.finish();
    assert_eq!(rec, FuncId(0));
    let main = {
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let r = b
            .call(
                Callee::Direct(rec),
                vec![Const::i64(1_000_000).into()],
                Some(i64t),
                "r",
            )
            .expect("r");
        b.ret(Some(r.into()));
        b.finish()
    };
    m.entry = Some(main);
    let out = run(&m);
    assert!(
        matches!(
            out.status,
            ExitStatus::Crash(CrashKind::MemFault(MemFault {
                kind: MemFaultKind::StackOverflow,
                ..
            }))
        ),
        "{:?}",
        out.status
    );
}

#[test]
fn infinite_loop_times_out() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let loop_bb = b.block();
    b.br(loop_bb);
    b.switch_to(loop_bb);
    b.br(loop_bb);
    let f = b.finish();
    m.entry = Some(f);
    let rc = RunConfig {
        max_instrs: 10_000,
        ..RunConfig::default()
    };
    let out = run_with_limits(&m, &rc);
    assert_eq!(out.status, ExitStatus::Timeout);
    assert!(!out.status.is_natural_detection());
    // The op that would exceed the budget counts as executed, whatever
    // the hazard-window length.
    assert_eq!(out.instrs, 10_001);
    let plain = run_with_limits(
        &m,
        &RunConfig {
            plain_dispatch: true,
            ..rc
        },
    );
    assert_eq!((plain.status, plain.instrs), (ExitStatus::Timeout, 10_001));
}

#[test]
fn malformed_control_flow_traps_instead_of_panicking() {
    // A branch to a block the function does not have lands on a pad
    // that traps as invalid execution, like any other op.
    let m = module_with_main(|b| b.br(BlockId(7)));
    let out = run(&m);
    assert_eq!(
        out.status,
        ExitStatus::Crash(CrashKind::InvalidExec(
            "jump to nonexistent block b7".into()
        ))
    );
    assert_eq!(out.instrs, 2);
    // Hand-built code that runs off the end of the op stream traps too.
    let m = module_with_main(|b| b.ret(Some(Const::i64(0).into())));
    let code = LoweredCode::new(
        vec![Op::Copy { dst: 0, src: 1 }],
        vec![0],
        0,
        vec![FrameLayout {
            regs: 1,
            consts: vec![Opnd::Imm(Value::Int(1))],
        }],
    );
    let rc = RunConfig::default();
    let out = Interp::with_code(
        &m,
        std::rc::Rc::new(code),
        &rc,
        std::rc::Rc::new(Registry::new()),
    )
    .run(vec![]);
    assert_eq!(
        out.status,
        ExitStatus::Crash(CrashKind::InvalidExec("pc 1 outside the op stream".into()))
    );
}

#[test]
fn abort_is_app_error_and_natural_detection() {
    let m = module_with_main(|b| {
        b.emit(Instr::Abort { code: 3 });
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::AppError(3));
    assert!(out.status.is_natural_detection());
}

#[test]
fn nonzero_main_return_counts_as_natural_detection() {
    let m = module_with_main(|b| {
        b.ret(Some(Const::i64(9).into()));
    });
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::Normal(9));
    assert!(out.status.is_natural_detection());
}

#[test]
fn dpmr_check_passes_equal_and_fails_unequal() {
    let ok = module_with_main(|b| {
        b.emit(Instr::DpmrCheck {
            a: Const::i64(5).into(),
            reps: vec![Const::i64(5).into()],
            ptrs: None,
        });
        b.ret(Some(Const::i64(0).into()));
    });
    assert_eq!(run(&ok).status, ExitStatus::Normal(0));

    let bad = module_with_main(|b| {
        b.emit(Instr::DpmrCheck {
            a: Const::i64(5).into(),
            reps: vec![Const::i64(6).into()],
            ptrs: None,
        });
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&bad);
    assert!(matches!(
        out.status,
        ExitStatus::DpmrDetected { got: 5, replica: 6 }
    ));
    assert!(out.status.is_dpmr_detection());
    assert!(out.detect_cycle.is_some());
}

/// A trap whose copies are `got` plus `reps`, for majority() pinning.
fn trap_with(got: u64, reps: &[u64]) -> DetectionTrap {
    DetectionTrap {
        got,
        replica: reps[0],
        reps: reps.to_vec(),
        app_addr: None,
        rep_addrs: Vec::new(),
        cycle: 0,
        instrs: 0,
        site: 0,
    }
}

#[test]
fn majority_tie_is_none_for_each_replication_degree() {
    // K = 1: one against one is always a tie.
    assert_eq!(trap_with(1, &[2]).majority(), None);
    // K = 2: three-way disagreement has no strict majority...
    assert_eq!(trap_with(1, &[2, 3]).majority(), None);
    // ...but 2-of-3 agreement does, whichever side the app is on.
    assert_eq!(trap_with(1, &[2, 1]).majority(), Some(1));
    assert_eq!(trap_with(1, &[2, 2]).majority(), Some(2));
    // K = 3: a 2-2 split needs 3 of 4 and has none.
    assert_eq!(trap_with(1, &[1, 2, 2]).majority(), None);
    assert_eq!(trap_with(1, &[2, 1, 1]).majority(), Some(1));
}

#[test]
fn vote_tie_terminates_and_traces() {
    use dpmr_vm::telemetry::{TelemetryConfig, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct AlwaysVote;
    impl TrapHandler for AlwaysVote {
        fn on_detection(&mut self, _trap: &DetectionTrap) -> TrapAction {
            TrapAction::Vote
        }
    }

    // K = 2 with three-way disagreement: the vote finds no strict
    // majority, so the documented tie behaviour is to terminate — and
    // with tracing on, the tie itself lands in the event trace.
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        // The application value must live in a register: a check with
        // nothing fixable (no locations, constant operand) terminates
        // before the handler's verdict is consulted.
        let a = b.bin(BinOp::Add, i64t, Const::i64(1).into(), Const::i64(0).into());
        b.emit(Instr::DpmrCheck {
            a: a.into(),
            reps: vec![Const::i64(2).into(), Const::i64(3).into()],
            ptrs: None,
        });
        b.ret(Some(Const::i64(0).into()));
    });
    let rc = RunConfig {
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    };
    let mut it = Interp::new(&m, &rc, Rc::new(Registry::with_base()));
    it.set_trap_handler(Rc::new(RefCell::new(AlwaysVote)));
    let out = it.run(vec![]);
    assert!(matches!(
        out.status,
        ExitStatus::DpmrDetected { got: 1, .. }
    ));
    let tele = it.telemetry();
    assert_eq!(tele.site_stats[0].terminations, 1);
    let tie = tele
        .events
        .iter()
        .find(|e| matches!(e, TraceEvent::VoteTied { .. }))
        .expect("tie recorded in the trace");
    assert!(matches!(
        tie,
        TraceEvent::VoteTied {
            site: 0,
            copies: 3,
            ..
        }
    ));
}

#[test]
fn randint_respects_bounds_and_seed() {
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        for _ in 0..8 {
            let r = b.reg(i64t, "");
            b.emit(Instr::RandInt {
                dst: r,
                lo: Const::i64(1).into(),
                hi: Const::i64(20).into(),
                stream: 0,
            });
            b.output(r.into());
        }
        b.ret(Some(Const::i64(0).into()));
    });
    let mut rc = RunConfig {
        seed: 7,
        ..RunConfig::default()
    };
    let a = run_with_limits(&m, &rc);
    let b2 = run_with_limits(&m, &rc);
    assert_eq!(a.output, b2.output, "seeded determinism");
    for &v in &a.output {
        assert!((1..=20).contains(&(v as i64)));
    }
    rc.seed = 8;
    let c = run_with_limits(&m, &rc);
    assert_ne!(a.output, c.output, "different seeds diverge");
}

#[test]
fn heap_buf_size_reads_live_header() {
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let p = b.malloc(i64t, Const::i64(10).into(), "p");
        let sz = b.reg(i64t, "sz");
        b.emit(Instr::HeapBufSize {
            dst: sz,
            ptr: p.into(),
        });
        b.output(sz.into());
        b.free(p.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.output, vec![80]);
}

#[test]
fn global_composite_initialization() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let arr3 = m.types.array(i64t, 3);
    let g = m.add_global(Global {
        name: "g".into(),
        ty: arr3,
        init: GlobalInit::Composite(vec![
            GlobalInit::Int(10),
            GlobalInit::Int(20),
            GlobalInit::Int(30),
        ]),
    });
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(3).into(), |b, i| {
        let p = b.index_addr(Operand::Global(g), i.into(), "p");
        let v = b.load(i64t, p.into(), "v");
        let s = b.bin(BinOp::Add, i64t, sum.into(), v.into());
        b.assign(sum, s.into());
    });
    b.output(sum.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    let out = run(&m);
    assert_eq!(out.output, vec![60]);
}

#[test]
fn uninitialized_heap_reads_are_arbitrary_but_deterministic() {
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let p = b.malloc(i64t, Const::i64(2).into(), "p");
        let v = b.load(i64t, p.into(), "v");
        b.output(v.into());
        b.free(p.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let a = run_with_limits(&m, &RunConfig::default());
    let b2 = run_with_limits(&m, &RunConfig::default());
    assert_eq!(a.output, b2.output, "same seed, same garbage");
    let mut rc = RunConfig::default();
    rc.mem.fill_seed = 999;
    let c = run_with_limits(&m, &rc);
    assert_ne!(
        a.output, c.output,
        "different fill seeds, different garbage"
    );
}

#[test]
fn output_channel_preserves_order_and_bits() {
    let m = module_with_main(|b| {
        b.output(Const::i64(-1).into());
        b.output(Const::f64(2.5).into());
        b.output(Const::i64(3).into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.output.len(), 3);
    assert_eq!(out.output[0], u64::MAX);
    assert_eq!(out.output[1], 2.5f64.to_bits());
    assert_eq!(out.output[2], 3);
}

#[test]
fn qsort_external_sorts_through_comparator() {
    let m = dpmr_workloads::micro::qsort_prog(12);
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::Normal(0));
    assert_eq!(out.output[0], 1);
}

#[test]
fn virtual_clock_monotone_with_work() {
    let small = dpmr_workloads::micro::linked_list(5);
    let large = dpmr_workloads::micro::linked_list(50);
    let a = run(&small);
    let b = run(&large);
    assert!(b.cycles > a.cycles);
    assert!(b.instrs > a.instrs);
}

#[test]
fn cache_model_charges_misses_for_scattered_access() {
    // Two programs doing the same number of loads: one walks a small
    // array repeatedly (cache-resident), the other strides across a large
    // allocation (one miss per line). The strided program must cost more
    // virtual cycles.
    let build = |n: i64, stride: i64, iters: i64| {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let arr = m.types.unsized_array(i64t);
        let arrp = m.types.pointer(arr);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let raw = b.malloc(i64t, Const::i64(n).into(), "buf");
        let a = b.cast(CastOp::Bitcast, arrp, raw.into(), "arr");
        let sum = b.reg(i64t, "sum");
        b.assign(sum, Const::i64(0).into());
        b.for_loop(Const::i64(0).into(), Const::i64(iters).into(), |b, i| {
            let idx = b.bin(BinOp::Mul, i64t, i.into(), Const::i64(stride).into());
            let wrapped = b.bin(BinOp::SRem, i64t, idx.into(), Const::i64(n).into());
            let p = b.index_addr(a.into(), wrapped.into(), "p");
            let v = b.load(i64t, p.into(), "v");
            let s = b.bin(BinOp::Add, i64t, sum.into(), v.into());
            b.assign(sum, s.into());
        });
        b.output(sum.into());
        b.ret(Some(Const::i64(0).into()));
        let f = b.finish();
        m.entry = Some(f);
        m
    };
    // Same iteration count; dense hits one line repeatedly, sparse
    // strides 64 slots (=512B, 8 lines) through a large buffer.
    let dense = build(8, 1, 4000);
    let sparse = build(200_000, 64, 4000);
    let dout = run_with_limits(&dense, &RunConfig::default());
    let sout = run_with_limits(&sparse, &RunConfig::default());
    assert_eq!(dout.status, ExitStatus::Normal(0));
    assert_eq!(sout.status, ExitStatus::Normal(0));
    // Instruction counts are nearly identical; cycles must not be.
    let di = dout.instrs as f64;
    let si = sout.instrs as f64;
    assert!((di - si).abs() / di < 0.05, "similar instruction counts");
    assert!(
        sout.cycles as f64 > dout.cycles as f64 * 1.2,
        "strided access must pay cache misses ({} vs {})",
        sout.cycles,
        dout.cycles
    );
}

/// Builds `rec(n) = n == 0 ? 0 : rec(n - 1) + 1` — a pure IR call chain
/// with no per-frame allocas, so only the frame-count guard bounds it.
fn countdown_module() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "rec", i64t, &[("n", i64t)]);
    let n = b.param(0);
    let done = b.cmp(CmpPred::Eq, n.into(), Const::i64(0).into());
    let base_bb = b.block();
    let rec_bb = b.block();
    b.cond_br(done.into(), base_bb, rec_bb);
    b.switch_to(base_bb);
    b.ret(Some(Const::i64(0).into()));
    b.switch_to(rec_bb);
    let n1 = b.bin(BinOp::Sub, i64t, n.into(), Const::i64(1).into());
    let r = b
        .call(Callee::Direct(FuncId(0)), vec![n1.into()], Some(i64t), "r")
        .expect("r");
    let r1 = b.bin(BinOp::Add, i64t, r.into(), Const::i64(1).into());
    b.ret(Some(r1.into()));
    let rec = b.finish();
    assert_eq!(rec, FuncId(0));
    let main = {
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let r = b
            .call(
                Callee::Direct(rec),
                vec![Const::i64(100_000).into()],
                Some(i64t),
                "r",
            )
            .expect("r");
        b.output(r.into());
        b.ret(Some(Const::i64(0).into()));
        b.finish()
    };
    m.entry = Some(main);
    m
}

#[test]
fn deep_ir_call_chain_runs_without_host_recursion() {
    // Depth 10^5 would overflow any host-stack-recursive interpreter
    // (test threads default to 2 MB stacks); the explicit-frame engine
    // completes it and returns the full count back up the chain.
    let out = run_with_limits(&countdown_module(), &RunConfig::default());
    assert_eq!(out.status, ExitStatus::Normal(0), "{:?}", out.status);
    assert_eq!(out.output, vec![100_000]);
}

#[test]
fn frame_count_guard_bounds_simulated_depth() {
    let rc = RunConfig {
        max_depth: 1000,
        ..RunConfig::default()
    };
    let out = run_with_limits(&countdown_module(), &rc);
    assert!(
        matches!(
            out.status,
            ExitStatus::Crash(CrashKind::MemFault(MemFault {
                kind: MemFaultKind::StackOverflow,
                ..
            }))
        ),
        "{:?}",
        out.status
    );
}

#[test]
fn run_until_pauses_and_resume_completes_identically() {
    let m = dpmr_workloads::micro::linked_list(20);
    let reference = run_with_limits(&m, &RunConfig::default());

    let mut it = Interp::new(
        &m,
        &RunConfig::default(),
        std::rc::Rc::new(Registry::with_base()),
    );
    let paused = it.run_until(vec![], 500);
    assert!(paused.is_none(), "a 20-node list runs >500 cycles");
    assert!(it.frame_depth() >= 1, "paused with live frames");
    assert!(
        it.clock() >= 500,
        "paused at the first boundary past the bound"
    );
    let out = it.resume();
    assert_eq!(out.status, reference.status);
    assert_eq!(out.output, reference.output);
    assert_eq!(out.cycles, reference.cycles);
    assert_eq!(out.instrs, reference.instrs);
}

#[test]
fn midrun_snapshot_restores_into_fresh_interpreter() {
    let m = dpmr_workloads::micro::qsort_prog(12);
    let rc = RunConfig::default();
    let reference = run_with_limits(&m, &rc);

    let mut it = Interp::new(&m, &rc, std::rc::Rc::new(Registry::with_base()));
    assert!(it.run_until(vec![], reference.cycles / 2).is_none());
    let snap = it.snapshot();
    assert!(snap.is_mid_run());
    // The paused original keeps going...
    let cont = it.resume();
    assert_eq!(cont.output, reference.output);
    // ...and the snapshot replays bit-identically in a different interp.
    let mut other = Interp::new(&m, &rc, std::rc::Rc::new(Registry::with_base()));
    other.restore(&snap);
    let replay = other.resume();
    assert_eq!(replay.status, reference.status);
    assert_eq!(replay.output, reference.output);
    assert_eq!(replay.cycles, reference.cycles);
    assert_eq!(replay.instrs, reference.instrs);
}

#[test]
fn pause_due_where_the_budget_runs_out_still_times_out_identically() {
    // The pause falls due at the very boundary where the instruction
    // budget is spent. It outranks the budget there: the run pauses, and
    // resuming times out exactly as the unpaused run does.
    let m = dpmr_workloads::micro::linked_list(20);
    let rc = RunConfig {
        max_instrs: 300,
        ..RunConfig::default()
    };
    let reference = run_with_limits(&m, &rc);
    assert_eq!(reference.status, ExitStatus::Timeout);

    let mut it = Interp::new(&m, &rc, std::rc::Rc::new(Registry::with_base()));
    // The budget's timeout leaves the clock where the last op left it.
    assert!(it.run_until(vec![], reference.cycles).is_none());
    assert_eq!(
        it.instrs(),
        rc.max_instrs,
        "paused where the budget ran out"
    );
    let out = it.resume();
    assert_eq!(out.status, ExitStatus::Timeout);
    assert_eq!(out.instrs, reference.instrs);
    assert_eq!(out.cycles, reference.cycles);
}

/// An `alloca` whose byte size overflows the address space traps as a
/// stack overflow: it neither panics on the multiplication nor wraps to
/// a tiny allocation that runs on.
#[test]
fn huge_alloca_counts_overflow_the_stack() {
    for count in [1i64 << 40, 1 << 61, 1 << 62, i64::MAX] {
        let m = module_with_main(|b| {
            let i64t = b.module.types.int(64);
            let p = b.alloca_n(i64t, Const::i64(count).into(), "p");
            b.store(p.into(), Const::i64(1).into());
            b.ret(Some(Const::i64(0).into()));
        });
        let out = run(&m);
        assert!(
            matches!(
                out.status,
                ExitStatus::Crash(CrashKind::MemFault(MemFault {
                    kind: MemFaultKind::StackOverflow,
                    ..
                }))
            ),
            "count {count}: {:?}",
            out.status
        );
    }
}

/// Constants live in frame slots deduplicated by kind and bit pattern:
/// signed zeros and NaN payloads each keep their own slot, so every
/// output is its constant's exact bit image.
#[test]
fn constant_slots_keep_exact_bits() {
    let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
    let nan_b = f64::from_bits(0x7ff8_0000_dead_beef);
    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        for v in [0.0, -0.0, nan_a, nan_b] {
            b.output(Const::f64(v).into());
        }
        b.output(Const::i64(0).into());
        b.output(Const::Null { pointee: i64t }.into());
        b.ret(Some(Const::i64(0).into()));
    });
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::Normal(0));
    let want = [
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        nan_a.to_bits(),
        nan_b.to_bits(),
        0,
        0,
    ];
    assert_eq!(out.output, want);
    // One slot per distinct (kind, bits): the return's `i64 0` shares
    // the output's slot, nothing else merges.
    assert_eq!(lower(&m).frames[0].consts.len(), 6);
}

/// An operand naming a global the module does not declare traps "use of
/// unknown global", after the operands evaluated before it — and never
/// panics lowering, whatever type analysis the op needs.
#[test]
fn undeclared_global_operands_trap_in_evaluation_order() {
    let g99 = Operand::Global(GlobalId(99));
    // The module's first register, r0, is never assigned.
    let unset = Operand::Reg(RegId(0));
    let trap = |build: &dyn Fn(&mut FunctionBuilder<'_>)| {
        let m = module_with_main(|b| {
            let i64t = b.module.types.int(64);
            b.reg(i64t, "unset");
            build(b);
            b.ret(Some(Const::i64(0).into()));
        });
        match run(&m).status {
            ExitStatus::Crash(CrashKind::InvalidExec(msg)) => msg,
            other => panic!("expected an invalid-execution crash, got {other:?}"),
        }
    };
    let bin = |lhs: Operand, rhs: Operand| {
        move |b: &mut FunctionBuilder<'_>| {
            let i64t = b.module.types.int(64);
            let dst = b.reg(i64t, "sum");
            b.emit(Instr::Bin {
                dst,
                op: BinOp::Add,
                lhs,
                rhs,
            });
        }
    };
    assert_eq!(trap(&bin(unset, g99)), "use of unset register r0");
    assert_eq!(trap(&bin(g99, unset)), "use of unknown global g99");
    let field_addr = |b: &mut FunctionBuilder<'_>| {
        let i64t = b.module.types.int(64);
        let p = b.module.types.pointer(i64t);
        let dst = b.reg(p, "f");
        b.emit(Instr::FieldAddr {
            dst,
            base: g99,
            field: 0,
        });
    };
    assert_eq!(trap(&field_addr), "use of unknown global g99");
}

/// A register whose declared kind disagrees with the value assigned to
/// it is a guest fault, not a VM panic: each module passes the
/// verifier, and using the value traps as invalid execution.
#[test]
fn kind_mismatched_operands_trap() {
    let crash = |m: &Module| {
        let verified = dpmr_ir::verify::verify_module(m);
        assert!(verified.is_ok(), "{verified:?}");
        match run(m).status {
            ExitStatus::Crash(CrashKind::InvalidExec(msg)) => msg,
            other => panic!("expected an invalid-execution crash, got {other:?}"),
        }
    };
    // An int assigned to a pointer register, then loaded through.
    let load = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let pty = b.module.types.pointer(i64t);
        let p = b.copy(pty, Const::Null { pointee: i64t }.into(), "p");
        b.assign(p, Const::i64(4096).into());
        let v = b.load(i64t, p.into(), "v");
        b.output(v.into());
        b.ret(Some(Const::i64(0).into()));
    });
    assert_eq!(crash(&load), "expected pointer, got Int(4096)");
    // An int assigned to an f64 register, then added.
    let fadd = module_with_main(|b| {
        let f64t = b.module.types.float(64);
        let x = b.copy(f64t, Const::f64(1.5).into(), "x");
        b.assign(x, Const::i64(3).into());
        let y = b.bin(BinOp::FAdd, f64t, x.into(), Const::f64(1.0).into());
        b.output(y.into());
        b.ret(Some(Const::i64(0).into()));
    });
    assert_eq!(crash(&fadd), "expected float, got Int(3)");
}

/// A `malloc` no heap can hold returns null, however its byte count
/// overflows: the rounding would wrap (`malloc(i64, 1 << 62)` asks for
/// 2^65 bytes), or the block header would not fit.
#[test]
fn huge_malloc_sizes_return_null() {
    for (bits, count) in [(64, 1i64 << 62), (8, i64::MAX), (8, -1), (64, i64::MAX)] {
        let m = module_with_main(|b| {
            let elem = b.module.types.int(bits);
            let p = b.malloc(elem, Const::i64(count).into(), "p");
            let i64t = b.module.types.int(64);
            let bits = b.cast(CastOp::PtrToInt, i64t, p.into(), "bits");
            b.output(bits.into());
            b.ret(Some(Const::i64(0).into()));
        });
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0), "i{bits} x {count}");
        // A negative count clamps to zero, which still gets a block.
        let null = count >= 0;
        assert_eq!(out.output[0] == 0, null, "i{bits} x {count}: {out:?}");
    }
}

/// Charges for huge allocation sizes saturate the virtual clock instead
/// of wrapping it; a run whose clock is spent ends as a timeout at the
/// next instruction boundary.
#[test]
fn huge_malloc_charges_saturate_the_clock() {
    let m = module_with_main(|b| {
        let i8t = b.module.types.int(8);
        for _ in 0..40 {
            b.malloc(i8t, Const::i64(i64::MAX).into(), "p");
        }
        b.ret(Some(Const::i64(0).into()));
    });
    for plain_dispatch in [false, true] {
        let cfg = RunConfig {
            plain_dispatch,
            ..RunConfig::default()
        };
        let out = run_with_limits(&m, &cfg);
        assert_eq!(out.status, ExitStatus::Timeout);
        // Each call charges about 2^59 cycles: the 32nd spends the clock
        // and is the last op to run.
        assert_eq!(out.instrs, 32);
        assert!(out.cycles > u64::MAX / 2, "{}", out.cycles);
        assert_eq!(out.alloc_stats.mallocs, 0);
    }
    // The clock stays spent: another run on the same interpreter times
    // out at once, even with its pause already due.
    let mut it = Interp::new(
        &m,
        &RunConfig::default(),
        std::rc::Rc::new(Registry::with_base()),
    );
    assert_eq!(it.run(vec![]).status, ExitStatus::Timeout);
    let again = it.run_until(vec![], 0).expect("a spent clock never pauses");
    assert_eq!(again.status, ExitStatus::Timeout);
    assert_eq!(it.run(vec![]).status, ExitStatus::Timeout);
}

/// `main` calling `memset(malloc(32), 1, len)` and returning 0.
fn memset_module(len: i64) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let vp = m.types.void_ptr();
    let memset_ty = m.types.function(vp, vec![vp, i64t, i64t]);
    let memset = m.declare_external("memset", memset_ty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let buf = b.malloc(i8t, Const::i64(32).into(), "buf");
    let bv = b.cast(CastOp::Bitcast, vp, buf.into(), "bv");
    b.call(
        Callee::External(memset),
        vec![bv.into(), Const::i64(1).into(), Const::i64(len).into()],
        Some(vp),
        "",
    );
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// A `memset` longer than any region traps as an unmapped access; it
/// never asks the host for a buffer of that length.
#[test]
fn huge_memset_traps_without_allocating() {
    assert_eq!(run(&memset_module(32)).status, ExitStatus::Normal(0));
    let out = run(&memset_module(1 << 38));
    assert!(
        matches!(
            out.status,
            ExitStatus::Crash(CrashKind::MemFault(MemFault {
                kind: MemFaultKind::Unmapped,
                ..
            }))
        ),
        "{:?}",
        out.status
    );
}

/// `atoi` of the most negative 64-bit integer wraps instead of
/// overflowing.
#[test]
fn atoi_of_the_most_negative_integer_wraps() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let text = b"-9223372036854775808\0";
    let i8t = m.types.int(8);
    let arr = m.types.array(i8t, text.len() as u64);
    let g = m.add_global(Global {
        name: "s".into(),
        ty: arr,
        init: GlobalInit::Bytes(text.to_vec()),
    });
    let vp = m.types.void_ptr();
    let atoi_ty = m.types.function(i64t, vec![vp]);
    let atoi = m.declare_external("atoi", atoi_ty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let s = b.cast(CastOp::Bitcast, vp, Operand::Global(g), "s");
    let v = b
        .call(Callee::External(atoi), vec![s.into()], Some(i64t), "v")
        .expect("v");
    b.output(v.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    let out = run(&m);
    assert_eq!(out.status, ExitStatus::Normal(0));
    assert_eq!(out.output, vec![i64::MIN as u64]);
}

/// `qsort` with an element size whose addresses wrap: element addresses
/// wrap like `indexaddr`'s, and a comparator that never asks for a swap
/// leaves them unaccessed, so the call returns.
#[test]
fn qsort_with_wrapping_element_addresses_returns() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let vp = m.types.void_ptr();
    let void = m.types.void();
    let cmp = {
        let mut b = FunctionBuilder::new(&mut m, "cmp", i64t, &[("a", vp), ("b", vp)]);
        b.ret(Some(Const::i64(0).into()));
        b.finish()
    };
    let cmp_ty = m.types.function(i64t, vec![vp, vp]);
    let cmp_ptr_ty = m.types.pointer(cmp_ty);
    let qsort_ty = m.types.function(void, vec![vp, i64t, i64t, cmp_ptr_ty]);
    let qsort = m.declare_external("qsort", qsort_ty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let i8t = b.module.types.int(8);
    let buf = b.malloc(i8t, Const::i64(32).into(), "buf");
    let bv = b.cast(CastOp::Bitcast, vp, buf.into(), "bv");
    let cp = b.copy(cmp_ptr_ty, Operand::Func(cmp), "cp");
    b.call(
        Callee::External(qsort),
        vec![
            bv.into(),
            Const::i64(5).into(),
            Const::i64(1 << 62).into(),
            cp.into(),
        ],
        None,
        "",
    );
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    assert_eq!(run(&m).status, ExitStatus::Normal(0));
}

/// `main` sums a three-element global array through a stack slot: loads
/// from globals and from the stack, and stores to the stack.
fn global_sum_module() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let arr3 = m.types.array(i64t, 3);
    let g = m.add_global(Global {
        name: "g".into(),
        ty: arr3,
        init: GlobalInit::Composite(vec![
            GlobalInit::Int(10),
            GlobalInit::Int(20),
            GlobalInit::Int(30),
        ]),
    });
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let sum = b.alloca(i64t, "sum");
    b.store(sum.into(), Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(3).into(), |b, i| {
        let p = b.index_addr(Operand::Global(g), i.into(), "p");
        let v = b.load(i64t, p.into(), "v");
        let s = b.load(i64t, sum.into(), "s");
        let t = b.bin(BinOp::Add, i64t, s.into(), v.into());
        b.store(sum.into(), t.into());
    });
    let total = b.load(i64t, sum.into(), "total");
    b.output(total.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Only a load or store can be an armed site: every fault class armed
/// at every other pc, or past the end of the op stream, gives exactly
/// the unarmed outcome, while the same arming at a load does change the
/// run.
#[test]
fn arming_an_op_that_is_not_a_load_or_store_changes_nothing() {
    let m = global_sum_module();
    let code = lower(&m);
    let run = |fault: Option<ArmedFault>| {
        let rc = RunConfig {
            fault,
            ..RunConfig::default()
        };
        format!("{:?}", run_with_limits(&m, &rc))
    };
    let unarmed = run(None);
    assert!(unarmed.contains("output: [60]"), "{unarmed}");
    let arm = |site: usize, fault: FaultModel| {
        Some(ArmedFault {
            site: site as u32,
            fault,
            seed: 7,
            arm_cycle: 0,
        })
    };
    let others = (0..code.ops.len() + 2)
        .filter(|&pc| !matches!(code.ops.get(pc), Some(Op::Load { .. } | Op::Store { .. })));
    for pc in others {
        for fault in FaultModel::paper_set() {
            assert_eq!(run(arm(pc, fault)), unarmed, "{} at pc {pc}", fault.name());
        }
    }
    let load = code.ops.iter().position(|op| matches!(op, Op::Load { .. }));
    let load = load.expect("the module loads");
    assert_ne!(run(arm(load, FaultModel::UninitRead)), unarmed);
}

/// An unverified module may load into, store from, or check a register
/// of non-scalar type. Lowering turns each such op into a trap, after
/// evaluating the operands the op reads first, as it does for other
/// ill-typed operands; it never panics.
#[test]
fn non_scalar_memory_ops_lower_to_traps() {
    let trap = |build: &dyn Fn(&mut FunctionBuilder<'_>, RegId, RegId)| {
        let m = module_with_main(|b| {
            let i64t = b.module.types.int(64);
            let pair = b.module.types.struct_type("pair", vec![i64t, i64t]);
            let slot = b.alloca(i64t, "slot");
            let v = b.reg(pair, "v");
            build(b, slot, v);
            b.ret(Some(Const::i64(0).into()));
        });
        assert!(dpmr_ir::verify::verify_module(&m).is_err());
        match run(&m).status {
            ExitStatus::Crash(CrashKind::InvalidExec(msg)) => msg,
            other => panic!("expected an invalid-execution crash, got {other:?}"),
        }
    };
    let load = trap(&|b, slot, v| {
        b.emit(Instr::Load {
            dst: v,
            ptr: slot.into(),
        })
    });
    assert!(load.starts_with("load of non-scalar type Struct"), "{load}");
    // The store's value register is unset: that trap comes first.
    let unset = trap(&|b, slot, v| {
        b.emit(Instr::Store {
            ptr: slot.into(),
            value: v.into(),
        })
    });
    assert!(unset.starts_with("use of unset register"), "{unset}");
    let store = trap(&|b, slot, v| {
        b.assign(v, Const::i64(1).into());
        b.emit(Instr::Store {
            ptr: slot.into(),
            value: v.into(),
        });
    });
    assert!(
        store.starts_with("store of non-scalar type Struct"),
        "{store}"
    );
    let check = trap(&|b, _, v| {
        b.assign(v, Const::i64(1).into());
        b.emit(Instr::DpmrCheck {
            a: v.into(),
            reps: vec![v.into()],
            ptrs: None,
        });
    });
    assert!(
        check.starts_with("check of non-scalar type Struct"),
        "{check}"
    );
}

/// A type larger than 2^64 bytes is a layout error naming it, not an
/// overflow panic or a wrapped size. As a global it fails verification,
/// and unverified, it is a load error that ends every run as an
/// invalid-execution crash; as an alloca it lowers to an op that traps
/// the same way when reached.
#[test]
fn layouts_past_2_pow_64_bytes_fail_every_run() {
    let mut m = module_with_main(|b| b.ret(Some(Const::i64(0).into())));
    let i64t = m.types.int(64);
    let huge = m.types.array(i64t, u64::MAX / 4);
    m.add_global(Global {
        name: "huge".into(),
        ty: huge,
        init: GlobalInit::Zero,
    });
    let errs = dpmr_ir::verify::verify_module(&m).expect_err("unsized global");
    assert_eq!(
        errs[0].msg,
        format!("global @huge: type t{} is larger than 2^64 bytes", huge.0)
    );
    let mut it = Interp::new(
        &m,
        &RunConfig::default(),
        std::rc::Rc::new(Registry::with_base()),
    );
    let want = format!("global huge: type t{} is larger than 2^64 bytes", huge.0);
    for _ in 0..2 {
        match it.run(vec![]).status {
            ExitStatus::Crash(CrashKind::InvalidExec(msg)) => assert_eq!(msg, want),
            other => panic!("expected a load error, got {other:?}"),
        }
    }

    let m = module_with_main(|b| {
        let i64t = b.module.types.int(64);
        let rows = b.module.types.array(i64t, 1 << 40);
        let grid = b.module.types.array(rows, 1 << 40);
        b.alloca(grid, "grid");
        b.ret(Some(Const::i64(0).into()));
    });
    assert!(dpmr_ir::verify::verify_module(&m).is_ok());
    match run(&m).status {
        ExitStatus::Crash(CrashKind::InvalidExec(msg)) => {
            assert!(msg.contains("is larger than 2^64 bytes"), "{msg}");
        }
        other => panic!("expected an invalid-execution crash, got {other:?}"),
    }
}

/// Globals the global region cannot hold are a load error, not a panic
/// in the constructor: every run of the interpreter ends at once as an
/// invalid-execution crash naming the first global that did not fit,
/// whether it overruns the region or its end overflows an address.
#[test]
fn globals_beyond_the_global_region_fail_every_run() {
    let capacity = MemConfig::default().global_capacity as u64;
    for (len, want) in [
        (capacity, "global big: 1048576 bytes"),
        (u64::MAX - 8, "global big: 1844"),
    ] {
        let mut m = module_with_main(|b| b.ret(Some(Const::i64(0).into())));
        let i8t = m.types.int(8);
        let i64t = m.types.int(64);
        let big = m.types.array(i8t, len);
        for (name, ty) in [("small", i64t), ("big", big), ("after", i64t)] {
            m.add_global(Global {
                name: name.into(),
                ty,
                init: GlobalInit::Zero,
            });
        }
        assert!(dpmr_ir::verify::verify_module(&m).is_ok());
        let mut it = Interp::new(
            &m,
            &RunConfig::default(),
            std::rc::Rc::new(Registry::with_base()),
        );
        for _ in 0..2 {
            match it.run(vec![]).status {
                ExitStatus::Crash(CrashKind::InvalidExec(msg)) => {
                    assert!(msg.starts_with(want), "{msg}");
                    assert!(msg.ends_with("do not fit the 1048576-byte global region"));
                }
                other => panic!("expected a load error, got {other:?}"),
            }
        }
    }
}
