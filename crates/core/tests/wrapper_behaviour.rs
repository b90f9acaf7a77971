//! External-function-wrapper behaviour tests (Sec. 2.8, 3.1.5, 4.3):
//! every wrapped libc function must keep application, replica, and shadow
//! state coherent — including the hard cases where copied memory contains
//! pointers whose shadow data must travel with them.

use dpmr_core::prelude::*;
use dpmr_ir::module::Module;
use dpmr_ir::prelude::*;
use dpmr_vm::prelude::*;
use std::rc::Rc;

fn run_both_schemes(m: &Module, expected: &[u64]) {
    let golden = run_with_limits(m, &RunConfig::default());
    assert_eq!(golden.status, ExitStatus::Normal(0), "golden");
    assert_eq!(golden.output, expected, "golden output");
    for cfg in [DpmrConfig::sds(), DpmrConfig::mds()] {
        let t = transform(m, &cfg).expect("transform");
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&t, &RunConfig::default(), reg);
        assert_eq!(out.status, ExitStatus::Normal(0), "{}", cfg.name());
        assert_eq!(out.output, expected, "{}", cfg.name());
    }
}

#[test]
fn memcpy_propagates_shadow_data_for_pointer_arrays() {
    // Copy an array of pointers with memcpy, then dereference the COPIES.
    // Under SDS the wrapper must copy the shadow (ROP/NSOP) array too, or
    // the post-copy pointer loads would have no replica handles.
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i64p = m.types.pointer(i64t);
    let vp = m.types.void_ptr();
    let memcpy_ty = m.types.function(vp, vec![vp, vp, i64t]);
    let memcpy = m.declare_external("memcpy", memcpy_ty);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let n = 4i64;
    let src = b.malloc(i64p, Const::i64(n).into(), "src");
    let dst = b.malloc(i64p, Const::i64(n).into(), "dst");
    let parr = {
        let ua = b.module.types.unsized_array(i64p);
        b.module.types.pointer(ua)
    };
    let src_a = b.cast(CastOp::Bitcast, parr, src.into(), "srcA");
    let dst_a = b.cast(CastOp::Bitcast, parr, dst.into(), "dstA");
    // Fill src with pointers to fresh cells holding i*11.
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let cell = b.malloc(i64t, Const::i64(1).into(), "cell");
        let v = b.bin(BinOp::Mul, i64t, i.into(), Const::i64(11).into());
        b.store(cell.into(), v.into());
        let slot = b.index_addr(src_a.into(), i.into(), "slot");
        b.store(slot.into(), cell.into());
    });
    // memcpy the pointer array.
    let dv = b.cast(CastOp::Bitcast, vp, dst.into(), "dv");
    let sv = b.cast(CastOp::Bitcast, vp, src.into(), "sv");
    b.call(
        Callee::External(memcpy),
        vec![dv.into(), sv.into(), Const::i64(n * 8).into()],
        Some(vp),
        "",
    );
    // Dereference through the copies.
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let slot = b.index_addr(dst_a.into(), i.into(), "slot");
        let cell = b.load(i64p, slot.into(), "cell");
        let v = b.load(i64t, cell.into(), "v");
        let s = b.bin(BinOp::Add, i64t, sum.into(), v.into());
        b.assign(sum, s.into());
    });
    b.output(sum.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    run_both_schemes(&m, &[66]); // 0+11+22+33
}

#[test]
fn memmove_behaves_like_memcpy_for_disjoint_ranges() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let vp = m.types.void_ptr();
    let memmove_ty = m.types.function(vp, vec![vp, vp, i64t]);
    let memmove = m.declare_external("memmove", memmove_ty);
    let barr = m.types.unsized_array(i8t);
    let barrp = m.types.pointer(barr);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let buf = b.malloc(i8t, Const::i64(16).into(), "buf");
    let arr = b.cast(CastOp::Bitcast, barrp, buf.into(), "arr");
    b.for_loop(Const::i64(0).into(), Const::i64(8).into(), |b, i| {
        let p = b.index_addr(arr.into(), i.into(), "p");
        let v = b.cast(CastOp::Trunc, i8t, i.into(), "v");
        b.store(p.into(), v.into());
    });
    let front = b.cast(CastOp::Bitcast, vp, buf.into(), "front");
    let back_slot = b.index_addr(arr.into(), Const::i64(8).into(), "backSlot");
    let back = b.cast(CastOp::Bitcast, vp, back_slot.into(), "back");
    b.call(
        Callee::External(memmove),
        vec![back.into(), front.into(), Const::i64(8).into()],
        Some(vp),
        "",
    );
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(16).into(), |b, i| {
        let p = b.index_addr(arr.into(), i.into(), "p");
        let v = b.load(i8t, p.into(), "v");
        let w = b.cast(CastOp::Zext, i64t, v.into(), "w");
        let s = b.bin(BinOp::Add, i64t, sum.into(), w.into());
        b.assign(sum, s.into());
    });
    b.output(sum.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    run_both_schemes(&m, &[56]); // 2 * (0+..+7)
}

#[test]
fn memset_clears_app_and_replica() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let vp = m.types.void_ptr();
    let memset_ty = m.types.function(vp, vec![vp, i64t, i64t]);
    let memset = m.declare_external("memset", memset_ty);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let buf = b.malloc(i64t, Const::i64(4).into(), "buf");
    b.store(buf.into(), Const::i64(-1).into());
    let bv = b.cast(CastOp::Bitcast, vp, buf.into(), "bv");
    b.call(
        Callee::External(memset),
        vec![bv.into(), Const::i64(0).into(), Const::i64(32).into()],
        Some(vp),
        "",
    );
    // The load check would fire if app and replica disagreed.
    let v = b.load(i64t, buf.into(), "v");
    b.output(v.into());
    b.free(buf.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    let _ = i8t;

    run_both_schemes(&m, &[0]);
}

#[test]
fn strlen_and_atoi_roundtrip_under_wrappers() {
    let m = dpmr_workloads::micro::string_play();
    let golden = run_with_limits(&m, &RunConfig::default());
    run_both_schemes(&m, &golden.output);
}

#[test]
fn wrapper_detection_fires_before_external_side_effects() {
    // If application and replica strings already diverged (prior memory
    // error), the strcpy wrapper's read-check must fire BEFORE the copy
    // corrupts anything further: the detection is a DPMR detection, not a
    // downstream crash.
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let sarr = m.types.unsized_array(i8t);
    let sp = m.types.pointer(sarr);
    let strcpy_ty = m.types.function(sp, vec![sp, sp]);
    let strcpy = m.declare_external("strcpy", strcpy_ty);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let src_raw = b.malloc(i8t, Const::i64(8).into(), "src");
    let src = b.cast(CastOp::Bitcast, sp, src_raw.into(), "srcS");
    for (i, ch) in [b'h', b'i', 0].iter().enumerate() {
        let p = b.index_addr(src.into(), Const::i64(i as i64).into(), "p");
        b.store(p.into(), Const::i8(*ch as i8).into());
    }
    let dst_raw = b.malloc(i8t, Const::i64(8).into(), "dst");
    let dst = b.cast(CastOp::Bitcast, sp, dst_raw.into(), "dstS");
    // Corrupt the APP copy of src via a wild-ish overwrite that the
    // replica does not see: simulate with a direct poke through a second
    // pointer derived by pointer identity (still well-typed, but after
    // transformation only the app side is written because we use a raw
    // byte store through an aliasing i8 pointer obtained by ptr-to-int
    // laundering is illegal; instead overflow from a neighbour).
    // Simplest legal corruption: overflow out of a neighbouring buffer.
    let evil_raw = b.malloc(i8t, Const::i64(4).into(), "evil");
    let evil = b.cast(CastOp::Bitcast, sp, evil_raw.into(), "evilS");
    b.for_loop(Const::i64(0).into(), Const::i64(48).into(), |b, i| {
        let p = b.index_addr(evil.into(), i.into(), "p");
        b.store(p.into(), Const::i8(0x41).into());
    });
    // NUL-terminate so strcpy's scan ends.
    let endp = b.index_addr(evil.into(), Const::i64(48).into(), "endp");
    b.store(endp.into(), Const::i8(0).into());
    b.call(
        Callee::External(strcpy),
        vec![dst.into(), src.into()],
        Some(sp),
        "",
    );
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    let t = transform(&m, &DpmrConfig::sds().with_diversity(Diversity::None)).expect("t");
    let reg = Rc::new(registry_with_wrappers());
    let out = run_with_registry(&t, &RunConfig::default(), reg);
    assert!(
        out.status.is_dpmr_detection() || out.status.is_natural_detection(),
        "the corruption must be detected: {:?}",
        out.status
    );
}

#[test]
fn sqrt_wrapper_matches_base() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let f64t = m.types.float(64);
    let sqrt_ty = m.types.function(f64t, vec![f64t]);
    let sqrt = m.declare_external("sqrt", sqrt_ty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let r = b
        .call(
            Callee::External(sqrt),
            vec![Const::f64(144.0).into()],
            Some(f64t),
            "r",
        )
        .expect("r");
    let i = b.cast(CastOp::FpToSi, i64t, r.into(), "i");
    b.output(i.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    run_both_schemes(&m, &[12]);
}

/// The SDS and MDS `memset` wrappers trap on a length longer than any
/// region, as the base `memset` does, without a host buffer that long.
#[test]
fn huge_memset_traps_under_wrappers() {
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
        vec![bv.into(), Const::i64(1).into(), Const::i64(1 << 38).into()],
        Some(vp),
        "",
    );
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    for cfg in [DpmrConfig::sds(), DpmrConfig::mds()] {
        let t = transform(&m, &cfg).expect("transform");
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&t, &RunConfig::default(), reg);
        assert!(
            matches!(
                out.status,
                ExitStatus::Crash(CrashKind::MemFault(MemFault {
                    kind: MemFaultKind::Unmapped,
                    ..
                }))
            ),
            "{}: {:?}",
            cfg.name(),
            out.status
        );
    }
}

/// `atoi` of `i64::MIN`'s digits: the magnitude wraps to `i64::MIN`, and
/// the sign is applied with a wrapping multiply, as the base `atoi`
/// does, instead of overflowing inside the wrapper.
#[test]
fn atoi_wrapper_wraps_at_i64_min() {
    let digits = b"-9223372036854775808\0";
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let sarr = m.types.unsized_array(i8t);
    let sp = m.types.pointer(sarr);
    let atoi_ty = m.types.function(i64t, vec![sp]);
    let atoi = m.declare_external("atoi", atoi_ty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let raw = b.malloc(i8t, Const::i64(digits.len() as i64).into(), "raw");
    let s = b.cast(CastOp::Bitcast, sp, raw.into(), "s");
    for (i, &c) in digits.iter().enumerate() {
        let p = b.index_addr(s.into(), Const::i64(i as i64).into(), "p");
        b.store(p.into(), Const::i8(c as i8).into());
    }
    let v = b
        .call(Callee::External(atoi), vec![s.into()], Some(i64t), "v")
        .expect("v");
    b.output(v.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    run_both_schemes(&m, &[i64::MIN as u64]);
}

/// A hand-written SDS `memcpy`/`memmove` call at K = 8 asking for
/// `i64::MAX` bytes: the load check's per-replica charge saturates
/// instead of overflowing, and the first divergent byte is detected.
#[test]
fn huge_sds_copy_charge_saturates() {
    const K: usize = 8;
    for name in ["memcpy", "memmove"] {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let vp = m.types.void_ptr();
        // (sdwSize, rvSop, dest, dest_r*K, dest_s, src, src_r*K, src_s, n)
        let fty = m.types.function(vp, vec![vp; 7 + 2 * K]);
        let ext = m.declare_external(wrapper_name(name, Scheme::Sds), fty);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let word = |b: &mut FunctionBuilder<'_>, v: i64| {
            let p = b.malloc(i64t, Const::i64(K as i64 + 1).into(), "p");
            b.store(p.into(), Const::i64(v).into());
            Operand::Reg(p)
        };
        let (rv, dest, app, rep) = (
            word(&mut b, 0),
            word(&mut b, 0),
            word(&mut b, 1),
            word(&mut b, 2),
        );
        let null = Operand::Const(Const::Null { pointee: i64t });
        let mut args = vec![Const::i64(0).into(), rv, dest];
        args.extend([dest; K]);
        args.extend([null, app]);
        args.extend([rep; K]);
        args.extend([null, Const::i64(i64::MAX).into()]);
        b.call(Callee::External(ext), args, Some(vp), "r");
        b.ret(Some(Const::i64(0).into()));
        let f = b.finish();
        m.entry = Some(f);
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&m, &RunConfig::default(), reg);
        assert_eq!(
            out.status,
            ExitStatus::DpmrDetected { got: 1, replica: 2 },
            "{name}"
        );
        assert_eq!(out.cycles, u64::MAX, "{name}: the charge saturates");
    }
}
