//! Fine-grained transformation tests: each rule of Tables 2.6/2.7 (SDS)
//! and 4.3/4.4 (MDS) is checked structurally on the emitted IR, plus the
//! global-replication rules, policy emission, and the special external
//! argument conventions.

use dpmr_core::prelude::*;
use dpmr_ir::instr::{Callee, Instr};
use dpmr_ir::module::{GlobalInit, Module};
use dpmr_ir::prelude::*;
use dpmr_vm::prelude::*;
use dpmr_workloads::micro;
use std::rc::Rc;

/// Counts instructions matching a predicate across the module.
fn count_instrs(m: &Module, pred: impl Fn(&Instr) -> bool) -> usize {
    m.funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.instrs.iter())
        .filter(|i| pred(i))
        .count()
}

fn simple_store_load() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let p = b.malloc(i64t, Const::i64(1).into(), "p");
    b.store(p.into(), Const::i64(5).into());
    let v = b.load(i64t, p.into(), "v");
    b.output(v.into());
    b.free(p.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

fn ptr_store_load() -> Module {
    // Stores a pointer into heap memory and loads it back: exercises the
    // shadow ROP/NSOP stores/loads.
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i64p = m.types.pointer(i64t);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let slot = b.malloc(i64p, Const::i64(1).into(), "slot");
    let data = b.malloc(i64t, Const::i64(1).into(), "data");
    b.store(data.into(), Const::i64(99).into());
    b.store(slot.into(), data.into());
    let got = b.load(i64p, slot.into(), "got");
    let v = b.load(i64t, got.into(), "v");
    b.output(v.into());
    b.free(data.into());
    b.free(slot.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

#[test]
fn sds_scalar_store_is_duplicated_not_tripled() {
    let m = simple_store_load();
    let orig_stores = count_instrs(&m, |i| matches!(i, Instr::Store { .. }));
    let t = transform(&m, &DpmrConfig::sds().with_diversity(Diversity::None)).expect("t");
    let new_stores = count_instrs(&t, |i| matches!(i, Instr::Store { .. }));
    // Non-pointer stores double (app + replica); no shadow stores.
    assert_eq!(new_stores, 2 * orig_stores);
}

#[test]
fn sds_pointer_store_adds_two_shadow_stores() {
    let m = ptr_store_load();
    let t = transform(&m, &DpmrConfig::sds().with_diversity(Diversity::None)).expect("t");
    // Original: 1 scalar store + 1 pointer store = 2.
    // SDS: scalar -> 2; pointer -> 2 + 2 shadow = 4. Total 6.
    let main_aug = t.func_by_name("mainAug").expect("mainAug");
    let stores = t
        .func(main_aug)
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i, Instr::Store { .. }))
        .count();
    assert_eq!(stores, 6);
}

#[test]
fn mds_pointer_store_stores_rop_only() {
    let m = ptr_store_load();
    let t = transform(&m, &DpmrConfig::mds().with_diversity(Diversity::None)).expect("t");
    let main_aug = t.func_by_name("mainAug").expect("mainAug");
    let stores = t
        .func(main_aug)
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| matches!(i, Instr::Store { .. }))
        .count();
    // MDS: every store doubles, nothing else. 2 originals -> 4.
    assert_eq!(stores, 4);
}

#[test]
fn all_loads_inserts_one_check_per_load_sds() {
    let m = ptr_store_load();
    let orig_loads = count_instrs(&m, |i| matches!(i, Instr::Load { .. }));
    let t = transform(&m, &DpmrConfig::sds().with_diversity(Diversity::None)).expect("t");
    let checks = count_instrs(&t, |i| matches!(i, Instr::DpmrCheck { .. }));
    // SDS checks pointer loads too: one check per original load.
    assert_eq!(checks, orig_loads);
}

#[test]
fn mds_never_checks_pointer_loads() {
    let m = ptr_store_load();
    let t = transform(&m, &DpmrConfig::mds().with_diversity(Diversity::None)).expect("t");
    let checks = count_instrs(&t, |i| matches!(i, Instr::DpmrCheck { .. }));
    // Only the scalar load is checked; the pointer load is not.
    assert_eq!(checks, 1);
}

#[test]
fn static_policy_checks_subset_of_sites() {
    let m = micro::linked_list(4);
    let all = transform(&m, &DpmrConfig::sds().with_policy(Policy::AllLoads)).expect("t");
    let half = transform(
        &m,
        &DpmrConfig::sds().with_policy(Policy::Static { percent: 50 }),
    )
    .expect("t");
    let none = transform(
        &m,
        &DpmrConfig::sds().with_policy(Policy::Static { percent: 0 }),
    )
    .expect("t");
    let c_all = count_instrs(&all, |i| matches!(i, Instr::DpmrCheck { .. }));
    let c_half = count_instrs(&half, |i| matches!(i, Instr::DpmrCheck { .. }));
    let c_none = count_instrs(&none, |i| matches!(i, Instr::DpmrCheck { .. }));
    assert!(c_all > 0);
    assert!(c_half < c_all, "static 50% checks fewer sites");
    assert_eq!(c_none, 0, "static 0% checks nothing");
}

#[test]
fn static_policy_is_seed_deterministic() {
    let m = micro::linked_list(4);
    let cfg = DpmrConfig::sds().with_policy(Policy::Static { percent: 50 });
    let a = transform(&m, &cfg).expect("a");
    let b = transform(&m, &cfg).expect("b");
    assert_eq!(
        dpmr_ir::printer::print_module(&a),
        dpmr_ir::printer::print_module(&b),
        "same seed, same site selection"
    );
    let mut cfg2 = cfg.clone();
    cfg2.seed = 999;
    let c = transform(&m, &cfg2).expect("c");
    assert_ne!(
        dpmr_ir::printer::print_module(&a),
        dpmr_ir::printer::print_module(&c),
        "different seed, different site selection"
    );
}

#[test]
fn temporal_policy_emits_mask_counter_global() {
    let m = simple_store_load();
    let t = transform(&m, &DpmrConfig::sds().with_policy(Policy::temporal_half())).expect("t");
    assert!(
        t.global_by_name("dpmr.maskCounter").is_some(),
        "Table 2.9's counter global must exist"
    );
    // The gate adds shift/and arithmetic per load site.
    let shifts = count_instrs(&t, |i| {
        matches!(
            i,
            Instr::Bin {
                op: BinOp::Shl | BinOp::LShr,
                ..
            }
        )
    });
    assert!(shifts >= 2, "mask-bit extraction code present");
}

#[test]
fn rearrange_heap_emits_decoy_buffer_global() {
    let m = simple_store_load();
    let t = transform(
        &m,
        &DpmrConfig::sds().with_diversity(Diversity::RearrangeHeap),
    )
    .expect("t");
    assert!(t.global_by_name("dpmr.rearrangeBuf").is_some());
    let randints = count_instrs(&t, |i| matches!(i, Instr::RandInt { .. }));
    assert_eq!(randints, 1, "one randint per heap allocation site");
}

#[test]
fn zero_before_free_emits_heapbufsize() {
    let m = simple_store_load();
    let t = transform(
        &m,
        &DpmrConfig::sds().with_diversity(Diversity::ZeroBeforeFree),
    )
    .expect("t");
    let sizes = count_instrs(&t, |i| matches!(i, Instr::HeapBufSize { .. }));
    assert_eq!(sizes, 1, "one heapBufSize per free site");
}

#[test]
fn pad_malloc_grows_replica_requests_only() {
    let m = simple_store_load();
    let t = transform(
        &m,
        &DpmrConfig::sds().with_diversity(Diversity::PadMalloc(256)),
    )
    .expect("t");
    let reg = Rc::new(registry_with_wrappers());
    let out = run_with_registry(&t, &RunConfig::default(), reg);
    assert_eq!(out.status, ExitStatus::Normal(0));
    // App request (24 rounded) + padded replica (8 + 256) => noticeably
    // more allocated bytes than twice the app's.
    assert!(out.alloc_stats.bytes_allocated >= 24 + 264);
}

#[test]
fn globals_get_replicas_and_shadows_under_sds() {
    let m = micro::global_graph();
    let t = transform(&m, &DpmrConfig::sds()).expect("t");
    for name in ["ga", "gb", "gc"] {
        assert!(t.global_by_name(name).is_some(), "{name} kept");
        assert!(
            t.global_by_name(&format!("{name}.rep")).is_some(),
            "{name}.rep created"
        );
        assert!(
            t.global_by_name(&format!("{name}.sdw")).is_some(),
            "{name}.sdw created (the struct holds a pointer)"
        );
    }
}

#[test]
fn mds_global_replica_points_at_replica_globals() {
    let m = micro::global_graph();
    let t = transform(&m, &DpmrConfig::mds()).expect("t");
    let gb_rep = t.global_by_name("gb.rep").expect("gb.rep");
    let gc_rep = t.global_by_name("gc.rep").expect("gc.rep");
    // gb.rep's pointer field must reference gc.rep (the ROP), not gc.
    match &t.global(gb_rep).init {
        GlobalInit::Composite(items) => match &items[1] {
            GlobalInit::Ref(target) => assert_eq!(*target, gc_rep),
            other => panic!("expected Ref, got {other:?}"),
        },
        other => panic!("expected composite, got {other:?}"),
    }
    // No shadow globals under MDS.
    assert!(t.global_by_name("gb.sdw").is_none());
}

#[test]
fn sds_global_replica_keeps_comparable_pointers() {
    let m = micro::global_graph();
    let t = transform(&m, &DpmrConfig::sds()).expect("t");
    let gb_rep = t.global_by_name("gb.rep").expect("gb.rep");
    let gc = t.global_by_name("gc").expect("gc");
    match &t.global(gb_rep).init {
        GlobalInit::Composite(items) => match &items[1] {
            GlobalInit::Ref(target) => assert_eq!(
                *target, gc,
                "SDS replica stores the SAME pointer (comparable)"
            ),
            other => panic!("expected Ref, got {other:?}"),
        },
        other => panic!("expected composite, got {other:?}"),
    }
}

#[test]
fn qsort_call_gains_sdw_size_argument_under_sds() {
    let m = micro::qsort_prog(8);
    let t = transform(&m, &DpmrConfig::sds()).expect("t");
    // Find the qsort wrapper call.
    let mut found = false;
    for f in &t.funcs {
        for b in &f.blocks {
            for i in &b.instrs {
                if let Instr::Call {
                    callee: Callee::External(eid),
                    args,
                    ..
                } = i
                {
                    if t.external(*eid).name.starts_with("qsort") {
                        found = true;
                        // sdwSize, base,base_r,base_s, nmemb, size,
                        // cmp,cmp_r,cmp_s = 9 args.
                        assert_eq!(args.len(), 9, "qsort wrapper arity");
                        // pair{i64,i64} has a null shadow: sdwSize == 0.
                        assert_eq!(
                            args[0],
                            Operand::Const(Const::i64(0)),
                            "scalar pairs need no shadow sorting"
                        );
                    }
                }
            }
        }
    }
    assert!(found, "qsort call present");
}

#[test]
fn qsort_with_pointer_elements_gets_nonzero_sdw_size() {
    // Build a program sorting an array of POINTERS: sdwSize must be the
    // size of the pointer-shadow struct (16 bytes).
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i64p = m.types.pointer(i64t);
    let i64pp = m.types.pointer(i64p);
    let vp = m.types.void_ptr();
    let void = m.types.void();
    // Elements ARE pointers, so the comparator receives pointers to
    // pointers and double-dereferences (exercising shadow NSOP loads).
    let cmp = {
        let mut b = FunctionBuilder::new(&mut m, "cmp", i64t, &[("a", i64pp), ("b", i64pp)]);
        let a = b.param(0);
        let bb = b.param(1);
        let pa = b.load(i64p, a.into(), "pa");
        let pb = b.load(i64p, bb.into(), "pb");
        let va = b.load(i64t, pa.into(), "va");
        let vb = b.load(i64t, pb.into(), "vb");
        let d = b.bin(BinOp::Sub, i64t, va.into(), vb.into());
        b.ret(Some(d.into()));
        b.finish()
    };
    let qsort_ty = {
        let cfn = m.types.function(i64t, vec![i64pp, i64pp]);
        let cp = m.types.pointer(cfn);
        m.types.function(void, vec![vp, i64t, i64t, cp])
    };
    let qsort = m.declare_external("qsort", qsort_ty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let arr = b.malloc(i64p, Const::i64(4).into(), "arr"); // array of pointers!
    let base = b.cast(CastOp::Bitcast, vp, arr.into(), "base");
    let cfn = b.module.types.function(i64t, vec![i64pp, i64pp]);
    let cpt = b.module.types.pointer(cfn);
    let cptr = b.copy(cpt, Operand::Func(cmp), "cptr");
    // Fill with pointers to fresh cells first.
    let parr_ty = {
        let ua = b.module.types.unsized_array(i64p);
        b.module.types.pointer(ua)
    };
    let tarr = b.cast(CastOp::Bitcast, parr_ty, arr.into(), "tarr");
    b.for_loop(Const::i64(0).into(), Const::i64(4).into(), |b, i| {
        let cell = b.malloc(i64t, Const::i64(1).into(), "cell");
        let neg = b.bin(BinOp::Sub, i64t, Const::i64(0).into(), i.into());
        b.store(cell.into(), neg.into());
        let slot = b.index_addr(tarr.into(), i.into(), "slot");
        b.store(slot.into(), cell.into());
    });
    b.call(
        Callee::External(qsort),
        vec![
            base.into(),
            Const::i64(4).into(),
            Const::i64(8).into(),
            cptr.into(),
        ],
        None,
        "",
    );
    // Verify sorted ascending by pointee.
    let prev = b.reg(i64t, "prev");
    b.assign(prev, Const::i64(i64::MIN).into());
    let ok = b.reg(i64t, "ok");
    b.assign(ok, Const::i64(1).into());
    b.for_loop(Const::i64(0).into(), Const::i64(4).into(), |b, i| {
        let slot = b.index_addr(tarr.into(), i.into(), "slot");
        let cell = b.load(i64p, slot.into(), "cell");
        let v = b.load(i64t, cell.into(), "v");
        let bad = b.cmp(CmpPred::Slt, v.into(), prev.into());
        b.if_then(bad.into(), |b| b.assign(ok, Const::i64(0).into()));
        b.assign(prev, v.into());
    });
    b.output(ok.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    // Structural: the sdwSize argument is 16 (pointer shadow pair).
    let t = transform(&m, &DpmrConfig::sds()).expect("t");
    let mut saw = false;
    for f in &t.funcs {
        for blk in &f.blocks {
            for i in &blk.instrs {
                if let Instr::Call {
                    callee: Callee::External(eid),
                    args,
                    ..
                } = i
                {
                    if t.external(*eid).name.starts_with("qsort") {
                        saw = true;
                        assert_eq!(args[0], Operand::Const(Const::i64(16)));
                    }
                }
            }
        }
    }
    assert!(saw);

    // Behavioural: the golden and SDS runs both sort correctly (shadow
    // array kept in lock-step by the wrapper).
    let golden = run_with_limits(&m, &RunConfig::default());
    assert_eq!(golden.status, ExitStatus::Normal(0));
    assert_eq!(golden.output, vec![1]);
    let reg = Rc::new(registry_with_wrappers());
    let out = run_with_registry(&t, &RunConfig::default(), reg);
    assert_eq!(out.status, ExitStatus::Normal(0), "{:?}", out.status);
    assert_eq!(out.output, vec![1]);
}

#[test]
fn excluded_allocation_sites_alias_the_application_object() {
    // Chapter 5 refinement: an excluded site's replica IS the app object;
    // loads from it must not be checked (else false positives).
    let m = simple_store_load();
    let mut cfg = DpmrConfig::sds();
    // Site (0,0,0) is the malloc; the load site is (0,0,2).
    cfg.plan.exclude_allocs.insert((0, 0, 0));
    cfg.plan.uncheck_loads.insert((0, 0, 2));
    let t = transform(&m, &cfg).expect("t");
    let reg = Rc::new(registry_with_wrappers());
    let out = run_with_registry(&t, &RunConfig::default(), reg);
    assert_eq!(out.status, ExitStatus::Normal(0));
    assert_eq!(out.output, vec![5]);
    // Only ONE heap allocation happens (replica aliases the app object).
    assert_eq!(out.alloc_stats.mallocs, 1);
}

#[test]
fn partial_replication_by_priority_reduces_overhead() {
    // The tunability extension of Sec. 1.2: replicate only high-priority
    // components. Excluding the biggest allocation site of `art` (the
    // image) cuts overhead while the module still runs clean.
    let spec = dpmr_workloads::app_by_name("art").expect("art");
    let m = (spec.build)(&dpmr_workloads::WorkloadParams::quick());
    let golden = run_with_limits(&m, &RunConfig::default());

    let full = transform(&m, &DpmrConfig::sds().with_diversity(Diversity::None)).expect("t");
    let reg = Rc::new(registry_with_wrappers());
    let full_out = run_with_registry(&full, &RunConfig::default(), reg);
    assert_eq!(full_out.status, ExitStatus::Normal(0));

    let mut cfg = DpmrConfig::sds().with_diversity(Diversity::None);
    // Exclude every allocation site (degenerate lowest priority) and
    // uncheck all loads: overhead must drop strictly.
    for site in dpmr_fi::enumerate_heap_alloc_sites(&m) {
        cfg.plan
            .exclude_allocs
            .insert((site.func.0, site.block, site.instr));
    }
    for (fi, f) in m.funcs.iter().enumerate() {
        for (bi, blk) in f.blocks.iter().enumerate() {
            for (ii, ins) in blk.instrs.iter().enumerate() {
                if matches!(ins, Instr::Load { .. }) {
                    cfg.plan
                        .uncheck_loads
                        .insert((fi as u32, bi as u32, ii as u32));
                }
            }
        }
    }
    let partial = transform(&m, &cfg).expect("t");
    let reg = Rc::new(registry_with_wrappers());
    let partial_out = run_with_registry(&partial, &RunConfig::default(), reg);
    assert_eq!(partial_out.status, ExitStatus::Normal(0));
    assert_eq!(partial_out.output, golden.output);
    assert!(
        partial_out.cycles < full_out.cycles,
        "priority-tuned partial replica must cost less ({} vs {})",
        partial_out.cycles,
        full_out.cycles
    );
}

#[test]
fn rv_slots_are_hoisted_to_the_entry_block() {
    // Call-site rvSop allocas live in the entry block so loops of calls
    // cannot grow the frame unboundedly.
    let m = micro::linked_list(4);
    let t = transform(&m, &DpmrConfig::sds()).expect("t");
    let main_aug = t.func_by_name("mainAug").expect("mainAug");
    let f = t.func(main_aug);
    let entry_allocas = f.blocks[0]
        .instrs
        .iter()
        .filter(|i| matches!(i, Instr::Alloca { .. }))
        .count();
    assert!(
        entry_allocas >= 1,
        "the createNode call slot is hoisted (got {entry_allocas})"
    );
    // No allocas inside the loop blocks.
    for (bi, b) in f.blocks.iter().enumerate().skip(1) {
        for i in &b.instrs {
            assert!(
                !matches!(i, Instr::Alloca { .. }),
                "alloca found in loop block b{bi}"
            );
        }
    }
}

#[test]
fn variant_name_reflects_configuration() {
    let cfg = DpmrConfig::mds()
        .with_diversity(Diversity::PadMalloc(256))
        .with_policy(Policy::temporal_eighth());
    assert_eq!(cfg.name(), "mds/pad-malloc 256/temporal 8/64");
}

#[test]
fn temporal_mask_checks_the_configured_runtime_fraction() {
    // A loop with one checkable load per iteration: the number of executed
    // checks (visible as extra instructions) must scale with the mask's
    // set-bit fraction (Table 2.9 semantics).
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let p = b.malloc(i64t, Const::i64(1).into(), "p");
    b.store(p.into(), Const::i64(5).into());
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(640).into(), |b, _i| {
        let v = b.load(i64t, p.into(), "v");
        let s = b.bin(BinOp::Add, i64t, sum.into(), v.into());
        b.assign(sum, s.into());
    });
    b.output(sum.into());
    b.free(p.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    let run = |mask: u64| {
        let cfg = DpmrConfig::sds()
            .with_diversity(Diversity::None)
            .with_policy(Policy::Temporal { mask });
        let t = transform(&m, &cfg).expect("t");
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&t, &RunConfig::default(), reg);
        assert_eq!(out.status, ExitStatus::Normal(0));
        out.instrs
    };
    let never = run(0);
    let half = run(0xAAAA_AAAA_AAAA_AAAA);
    let always = run(u64::MAX);
    // Each executed check adds exactly three instructions (replica load,
    // comparison, and the check block's branch); 640 iterations => ~1920
    // extra at full checking.
    let full_extra = always - never;
    let half_extra = half - never;
    assert!(
        (1800..=2100).contains(&full_extra),
        "full-mask extra work out of range: {full_extra}"
    );
    let ratio = half_extra as f64 / full_extra as f64;
    assert!(
        (0.45..=0.55).contains(&ratio),
        "temporal 1/2 must check about half the loads, got {ratio:.3}"
    );
}

/// A constant needs no type of its width in the module's table: the
/// verifier accepts `1:i16` in a module without `i16`, so the transform
/// must too. It once looked the constant's type up by kind in the source
/// table and panicked ("type Int { bits: 16 } not interned in source
/// module").
#[test]
fn constant_of_a_width_the_table_lacks_transforms_and_runs() {
    let text = "fn main() -> i64 {\n  reg %p: i64*\nb0:\n  %p = alloca i64\n  \
                store %p, 1:i16\n  ret 0:i64\n}\nentry main\n";
    let m = dpmr_ir::parser::parse_module(text).expect("parses");
    dpmr_ir::verify::verify_module(&m).expect("verifies");
    for cfg in [DpmrConfig::sds(), DpmrConfig::mds()] {
        let t = transform(&m, &cfg).expect("transforms");
        assert!(lower(&t).ops.len() >= t.static_instr_count());
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&t, &RunConfig::default(), reg);
        assert_eq!(out.status, ExitStatus::Normal(0), "{:?}", cfg.scheme);
    }
}
