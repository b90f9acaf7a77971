//! Byte-identity golden for the external-function wrappers: FNV-1a of
//! the whole `RunOutcome`'s `Debug` text (status, output, cycles,
//! instructions, allocator statistics) for one direct call of every
//! wrapper under SDS and MDS at K = 1, 2, 3.
//!
//! Each case is a small module that lays out the wrapper's augmented
//! arguments by hand, calls the wrapper by name, and outputs the result,
//! every buffer it passed (application, each replica, the shadow under
//! SDS) and the return-value slot. A clean case gives every replica the
//! application's bytes; a corrupt case changes one byte of the last
//! replica of every pointer argument, which pins the order of reads,
//! charges and traps. The misfit-arity table pins the trap text of a
//! call whose arity fits no replication degree, for every wrapper name.
//!
//! A change to the wrappers that is meant to leave them unchanged must
//! keep this test passing. If an *intentional* change moves an outcome,
//! the failing test prints the complete new table: replace
//! `wrapper_digest.txt` with it and say so in the commit.

use dpmr_core::prelude::*;
use dpmr_core::transform::SIZE_CARRYING_EXTERNALS;
use dpmr_ir::module::Module;
use dpmr_ir::prelude::*;
use dpmr_vm::prelude::*;
use std::fmt::Write as _;
use std::rc::Rc;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One argument of the original (unaugmented) external.
#[derive(Clone, Copy)]
enum Arg {
    /// A pointer to a 32-byte buffer holding these bytes (zero-padded).
    Bytes(&'static [u8]),
    /// A pointer to a 32-byte buffer holding these four words.
    Words([i64; 4]),
    Int(i64),
    Float(f64),
    /// A pointer to the module's comparator function.
    Cmp,
}

impl Arg {
    fn is_ptr(self) -> bool {
        !matches!(self, Arg::Int(_) | Arg::Float(_))
    }

    /// The buffer's initial words (little-endian for byte buffers).
    fn words(self) -> [i64; 4] {
        match self {
            Arg::Bytes(b) => {
                let mut w = [0i64; 4];
                for (i, &c) in b.iter().enumerate() {
                    w[i / 8] |= i64::from(c) << (8 * (i % 8));
                }
                w
            }
            Arg::Words(w) => w,
            _ => unreachable!("not a buffer"),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Ret {
    Int,
    Float,
    Ptr,
    Void,
}

/// Every wrapped external with the arguments its case passes.
const CASES: &[(&str, &[Arg], Ret)] = &[
    ("strlen", &[Arg::Bytes(b"hello")], Ret::Int),
    (
        "strcpy",
        &[Arg::Bytes(b"zzzzzzzzzzzz"), Arg::Bytes(b"copy me")],
        Ret::Ptr,
    ),
    (
        "strcmp",
        &[Arg::Bytes(b"abcd"), Arg::Bytes(b"abce")],
        Ret::Int,
    ),
    (
        "memcpy",
        &[Arg::Words([0; 4]), Arg::Words([1, 2, 3, 4]), Arg::Int(24)],
        Ret::Ptr,
    ),
    (
        "memmove",
        &[Arg::Words([9; 4]), Arg::Words([5, 6, 7, 8]), Arg::Int(20)],
        Ret::Ptr,
    ),
    (
        "memset",
        &[Arg::Words([-1; 4]), Arg::Int(0x5a), Arg::Int(20)],
        Ret::Ptr,
    ),
    ("atoi", &[Arg::Bytes(b"-4711x")], Ret::Int),
    ("sqrt", &[Arg::Float(2.0)], Ret::Float),
    (
        "qsort",
        &[Arg::Words([3, 1, 2, 0]), Arg::Int(4), Arg::Int(8), Arg::Cmp],
        Ret::Void,
    ),
];

/// `sdwSize` passed to the size-carrying wrappers under SDS.
const SDW_SIZE: i64 = 8;

/// The comparator the `qsort` wrapper calls: augmented like every
/// transformed function, it compares the two application elements.
fn comparator(m: &mut Module, scheme: Scheme, k: usize) -> FuncId {
    let i64t = m.types.int(64);
    let i64p = m.types.pointer(i64t);
    let per = 1 + k + usize::from(scheme == Scheme::Sds);
    let names: Vec<String> = (0..2 * per).map(|i| format!("p{i}")).collect();
    let params: Vec<(&str, TypeId)> = names.iter().map(|n| (n.as_str(), i64p)).collect();
    let mut b = FunctionBuilder::new(m, "cmp", i64t, &params);
    let (pa, pb) = (b.param(0), b.param(per));
    let a = b.load(i64t, pa.into(), "a");
    let c = b.load(i64t, pb.into(), "b");
    let d = b.bin(BinOp::Sub, i64t, a.into(), c.into());
    b.ret(Some(d.into()));
    b.finish()
}

/// A module making one call of `base`'s wrapper at degree `k`; with
/// `corrupt`, the last replica of every pointer argument differs from
/// the application in its second byte.
fn wrapper_call(
    base: &str,
    args: &[Arg],
    ret: Ret,
    scheme: Scheme,
    k: usize,
    corrupt: bool,
) -> Module {
    let sds = scheme == Scheme::Sds;
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let f64t = m.types.float(64);
    let vp = m.types.void_ptr();
    let words = {
        let ua = m.types.unsized_array(i64t);
        m.types.pointer(ua)
    };
    let cmp = args
        .iter()
        .any(|a| matches!(a, Arg::Cmp))
        .then(|| comparator(&mut m, scheme, k));

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    // A 4-word buffer holding `w`, as a word array.
    let buffer = |b: &mut FunctionBuilder<'_>, w: [i64; 4]| {
        let raw = b.malloc(i64t, Const::i64(4).into(), "buf");
        let arr = b.cast(CastOp::Bitcast, words, raw.into(), "arr");
        for (i, &v) in w.iter().enumerate() {
            let slot = b.index_addr(arr.into(), Const::i64(i as i64).into(), "slot");
            b.store(slot.into(), Const::i64(v).into());
        }
        arr
    };

    let mut call_args: Vec<Operand> = Vec::new();
    let mut shown: Vec<RegId> = Vec::new();
    if sds && SIZE_CARRYING_EXTERNALS.contains(&base) {
        call_args.push(Const::i64(SDW_SIZE).into());
    }
    let rv = (ret == Ret::Ptr).then(|| buffer(&mut b, [0; 4]));
    if let Some(rv) = rv {
        call_args.push(rv.into());
    }
    for (ai, &a) in args.iter().enumerate() {
        match a {
            Arg::Int(v) => call_args.push(Const::i64(v).into()),
            Arg::Float(v) => call_args.push(Const::f64(v).into()),
            Arg::Cmp => {
                let f = Operand::Func(cmp.expect("comparator"));
                call_args.extend(std::iter::repeat_n(f, 1 + k));
                if sds {
                    call_args.push(Const::Null { pointee: i64t }.into());
                }
            }
            Arg::Bytes(_) | Arg::Words(_) => {
                let w = a.words();
                for r in 0..=k {
                    let mut w = w;
                    if corrupt && r == k {
                        w[0] ^= 0x100;
                    }
                    let buf = buffer(&mut b, w);
                    call_args.push(buf.into());
                    shown.push(buf);
                }
                if sds {
                    let tag = 0x5000 + 0x10 * ai as i64;
                    let s = buffer(&mut b, [tag, tag + 1, tag + 2, tag + 3]);
                    call_args.push(s.into());
                    shown.push(s);
                }
            }
        }
    }

    let param_tys: Vec<TypeId> = call_args
        .iter()
        .map(|op| match op {
            Operand::Const(Const::Int { .. }) => i64t,
            Operand::Const(Const::Float { .. }) => f64t,
            _ => vp,
        })
        .collect();
    let ret_ty = match ret {
        Ret::Int => Some(i64t),
        Ret::Float => Some(f64t),
        Ret::Ptr => Some(vp),
        Ret::Void => None,
    };
    let void = b.module.types.void();
    let fty = b.module.types.function(ret_ty.unwrap_or(void), param_tys);
    let ext = b.module.declare_external(wrapper_name(base, scheme), fty);
    if let Some(r) = b.call(Callee::External(ext), call_args, ret_ty, "r") {
        b.output(r.into());
    }
    for buf in shown.into_iter().chain(rv) {
        for i in 0..4 {
            let slot = b.index_addr(buf.into(), Const::i64(i).into(), "slot");
            let v = b.load(i64t, slot.into(), "v");
            b.output(v.into());
        }
    }
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// A module calling `name` with `arity` zero arguments.
fn misfit_call(name: &str, arity: usize) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let fty = m.types.function(i64t, vec![i64t; arity]);
    let ext = m.declare_external(name, fty);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    b.call(
        Callee::External(ext),
        vec![Const::i64(0).into(); arity],
        Some(i64t),
        "r",
    );
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

fn run(m: &Module) -> RunOutcome {
    dpmr_ir::verify::verify_module(m).expect("case module verifies");
    run_with_registry(m, &RunConfig::default(), Rc::new(registry_with_wrappers()))
}

/// Arity of `base`'s wrapper call at degree `k`, by the convention's
/// layout rule.
fn arity(base: &str, args: &[Arg], ret: Ret, scheme: Scheme, k: usize) -> usize {
    let sds = scheme == Scheme::Sds;
    let sized = usize::from(sds && SIZE_CARRYING_EXTERNALS.contains(&base));
    let ptrs = args.iter().filter(|a| a.is_ptr()).count();
    sized + usize::from(ret == Ret::Ptr) + (args.len() - ptrs) + ptrs * (1 + k + usize::from(sds))
}

fn digest_table() -> String {
    let mut out = String::new();
    for &(base, args, ret) in CASES {
        for scheme in [Scheme::Sds, Scheme::Mds] {
            let name = wrapper_name(base, scheme);
            for k in 1..=3 {
                for corrupt in [false, true] {
                    let o = run(&wrapper_call(base, args, ret, scheme, k, corrupt));
                    let _ = writeln!(
                        out,
                        "{name} K={k} {}: {:016x} {:?}",
                        if corrupt { "corrupt" } else { "clean" },
                        fnv1a(format!("{o:?}").as_bytes()),
                        o.status
                    );
                }
            }
            // Every arity up to one past K = 3's that fits no degree (a
            // scalar-only call fits every degree; it misfits only empty).
            let fits = |n: usize| (1..=n.max(1)).any(|k| arity(base, args, ret, scheme, k) == n);
            let top = if args.iter().any(|a| a.is_ptr()) {
                arity(base, args, ret, scheme, 3) + 1
            } else {
                0
            };
            for n in (0..=top).filter(|&n| !fits(n)) {
                let o = run(&misfit_call(&name, n));
                let _ = writeln!(out, "{name} arity {n}: {:?}", o.status);
            }
        }
    }
    out
}

const GOLDEN: &str = include_str!("wrapper_digest.txt");

#[test]
fn every_wrapper_call_matches_the_recorded_digest() {
    let table = digest_table();
    if table != GOLDEN {
        print!("{table}");
        for (i, (got, want)) in table.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(got, want, "wrapper digest diverged at line {}", i + 1);
        }
        assert_eq!(table, GOLDEN, "wrapper digest table length diverged");
    }
}
