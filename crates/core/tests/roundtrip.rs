//! Differential correctness tests: under error-free execution a
//! DPMR-transformed program must behave exactly like the original — same
//! output, normal exit, and **no** detections. This is the paper's core
//! soundness requirement ("the states of the application memory and
//! replica memory do not diverge under error-free execution", Sec. 1.1),
//! validated across every scheme, diversity transformation, and state
//! comparison policy on every workload.

use dpmr_core::prelude::*;
use dpmr_ir::module::Module;
use dpmr_ir::printer::print_module;
use dpmr_vm::prelude::*;
use dpmr_workloads::{all_apps, micro, WorkloadParams};
use std::rc::Rc;

fn run_golden(m: &Module) -> RunOutcome {
    run_with_limits(m, &RunConfig::default())
}

fn run_dpmr(m: &Module, cfg: &DpmrConfig) -> RunOutcome {
    let t = transform(m, cfg).unwrap_or_else(|e| {
        panic!("transform failed under {}: {e}", cfg.name());
    });
    let reg = Rc::new(registry_with_wrappers());
    run_with_registry(&t, &RunConfig::default(), reg)
}

fn assert_equivalent(m: &Module, cfg: &DpmrConfig, label: &str) {
    let golden = run_golden(m);
    assert_eq!(
        golden.status,
        ExitStatus::Normal(0),
        "{label}: golden run must be clean"
    );
    let out = run_dpmr(m, cfg);
    assert_eq!(
        out.status,
        ExitStatus::Normal(0),
        "{label} under {}: transformed run must be clean (no false detection)",
        cfg.name()
    );
    assert_eq!(
        out.output,
        golden.output,
        "{label} under {}: output must match the original",
        cfg.name()
    );
    assert!(
        out.instrs >= golden.instrs,
        "{label}: replication cannot shrink work"
    );
}

fn micro_programs() -> Vec<(&'static str, Module)> {
    vec![
        ("linked_list", micro::linked_list(12)),
        ("overflow_writer(in-bounds)", micro::overflow_writer(8, 8)),
        ("string_play", micro::string_play()),
        ("qsort_prog", micro::qsort_prog(16)),
        ("global_graph", micro::global_graph()),
    ]
}

#[test]
fn sds_all_diversities_preserve_behaviour_on_micros() {
    for (name, m) in micro_programs() {
        for d in Diversity::paper_set() {
            let cfg = DpmrConfig::sds().with_diversity(d);
            assert_equivalent(&m, &cfg, name);
        }
    }
}

#[test]
fn mds_all_diversities_preserve_behaviour_on_micros() {
    for (name, m) in micro_programs() {
        for d in Diversity::paper_set() {
            let cfg = DpmrConfig::mds().with_diversity(d);
            assert_equivalent(&m, &cfg, name);
        }
    }
}

#[test]
fn sds_all_policies_preserve_behaviour_on_micros() {
    for (name, m) in micro_programs() {
        for p in Policy::paper_set() {
            let cfg = DpmrConfig::sds().with_policy(p);
            assert_equivalent(&m, &cfg, name);
        }
    }
}

#[test]
fn mds_all_policies_preserve_behaviour_on_micros() {
    for (name, m) in micro_programs() {
        for p in Policy::paper_set() {
            let cfg = DpmrConfig::mds().with_policy(p);
            assert_equivalent(&m, &cfg, name);
        }
    }
}

#[test]
fn sds_preserves_behaviour_on_all_apps() {
    for app in all_apps() {
        let m = (app.build)(&WorkloadParams::quick());
        assert_equivalent(&m, &DpmrConfig::sds(), app.name);
    }
}

#[test]
fn mds_preserves_behaviour_on_all_apps() {
    for app in all_apps() {
        let m = (app.build)(&WorkloadParams::quick());
        assert_equivalent(&m, &DpmrConfig::mds(), app.name);
    }
}

#[test]
fn apps_survive_every_diversity_under_both_schemes() {
    for app in all_apps() {
        let m = (app.build)(&WorkloadParams::quick());
        for d in [
            Diversity::None,
            Diversity::ZeroBeforeFree,
            Diversity::PadMalloc(32),
            Diversity::PadMalloc(1024),
        ] {
            assert_equivalent(&m, &DpmrConfig::sds().with_diversity(d), app.name);
            assert_equivalent(&m, &DpmrConfig::mds().with_diversity(d), app.name);
        }
    }
}

#[test]
fn apps_survive_reduced_checking_policies() {
    for app in all_apps() {
        let m = (app.build)(&WorkloadParams::quick());
        for p in [
            Policy::temporal_eighth(),
            Policy::Static { percent: 10 },
            Policy::StaticPeriodic { period: 2 },
        ] {
            assert_equivalent(&m, &DpmrConfig::sds().with_policy(p), app.name);
            assert_equivalent(&m, &DpmrConfig::mds().with_policy(p), app.name);
        }
    }
}

#[test]
fn transformed_linked_list_matches_paper_figures() {
    // Fig. 2.9/2.10: createNode/getSum gain rvSop, ROP and NSOP params and
    // shadow stores under SDS; Fig. 4.1/4.2: rvRopPtr and ROPs under MDS.
    let m = micro::linked_list(3);
    let sds = transform(&m, &DpmrConfig::sds()).expect("sds");
    let text = print_module(&sds);
    assert!(text.contains("rvSop"), "SDS adds the rvSop parameter");
    assert!(text.contains("%last_r"), "SDS adds ROP parameters");
    assert!(text.contains("%last_s"), "SDS adds NSOP parameters");
    assert!(text.contains("mainAug"), "main is renamed to mainAug");
    assert!(text.contains("dpmr.check"), "load checks inserted");

    let mds = transform(&m, &DpmrConfig::mds()).expect("mds");
    let text = print_module(&mds);
    assert!(text.contains("rvRopPtr"), "MDS adds the rvRopPtr parameter");
    assert!(text.contains("%last_r"), "MDS adds ROP parameters");
    assert!(
        !text.contains("%last_s"),
        "MDS has no shadow (NSOP) parameters"
    );
}

#[test]
fn transform_rejects_int_to_ptr_without_plan() {
    use dpmr_ir::prelude::*;
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let p = b.malloc(i64t, Const::i64(1).into(), "p");
    let as_int = b.cast(CastOp::PtrToInt, i64t, p.into(), "asInt");
    let pty = b.operand_ty(p.into());
    let back = b.cast(CastOp::IntToPtr, pty, as_int.into(), "back");
    let v = b.load(i64t, back.into(), "v");
    b.output(v.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    let err = transform(&m, &DpmrConfig::sds()).unwrap_err();
    assert!(matches!(err, TransformError::IntToPtrCast { .. }));

    // With the DSA-style plan relaxation it becomes legal.
    let mut cfg = DpmrConfig::sds();
    cfg.plan.allow_int_to_ptr = true;
    let t = transform(&m, &cfg).expect("plan permits int-to-ptr");
    let reg = Rc::new(registry_with_wrappers());
    let out = run_with_registry(&t, &RunConfig::default(), reg);
    assert_eq!(out.status, ExitStatus::Normal(0));
}

#[test]
fn argv_replication_roundtrips() {
    // Feed an argv program through the entry wrapper: the wrapper builds
    // replica/shadow argv (Fig. 3.1). We simulate process argv by placing
    // the strings and the argv array in globals and passing their address.
    use dpmr_ir::prelude::*;
    let mut m = micro::argv_echo();
    // argv strings as globals.
    let i8t = m.types.int(8);
    let s1_ty = m.types.array(i8t, 4);
    let s1 = m.add_global(Global {
        name: "a1".into(),
        ty: s1_ty,
        init: GlobalInit::Bytes(b"17\0\0".to_vec()),
    });
    let s2 = m.add_global(Global {
        name: "a2".into(),
        ty: s1_ty,
        init: GlobalInit::Bytes(b"25\0\0".to_vec()),
    });
    let str_arr = m.types.unsized_array(i8t);
    let strp = m.types.pointer(str_arr);
    let argv_ty = m.types.array(strp, 2);
    let argv = m.add_global(Global {
        name: "argvData".into(),
        ty: argv_ty,
        init: GlobalInit::Composite(vec![GlobalInit::Ref(s1), GlobalInit::Ref(s2)]),
    });
    // A new top-level entry that calls the old main(2, &argvData).
    let old_main = m.entry.expect("entry");
    m.func_mut(old_main).name = "appMain".into();
    let i64t = m.types.int(64);
    let argv_unsized = m.types.unsized_array(strp);
    let argvp = m.types.pointer(argv_unsized);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let ap = b.cast(CastOp::Bitcast, argvp, Operand::Global(argv), "ap");
    let rv = b
        .call(
            Callee::Direct(old_main),
            vec![Const::i64(2).into(), ap.into()],
            Some(i64t),
            "rv",
        )
        .expect("rv");
    b.ret(Some(rv.into()));
    let f = b.finish();
    m.entry = Some(f);

    let golden = run_golden(&m);
    assert_eq!(golden.status, ExitStatus::Normal(0));
    assert_eq!(golden.output, vec![42]);
    for cfg in [DpmrConfig::sds(), DpmrConfig::mds()] {
        let out = run_dpmr(&m, &cfg);
        assert_eq!(out.status, ExitStatus::Normal(0), "{}", cfg.name());
        assert_eq!(out.output, vec![42], "{}", cfg.name());
    }
}
