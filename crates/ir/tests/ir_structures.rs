//! IR-level integration tests: printer output, verifier negative space,
//! structured-control-flow builder helpers, and type-table edge cases.

use dpmr_ir::parser::parse_module;
use dpmr_ir::prelude::*;
use dpmr_ir::printer::{print_function, print_module};
use dpmr_ir::verify::verify_module;

#[test]
fn printer_renders_every_instruction_kind() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let s = m.types.struct_type("s", vec![i64t, i64t]);
    let arr = m.types.array(i64t, 4);
    let g = m.add_global(Global {
        name: "g".into(),
        ty: i64t,
        init: GlobalInit::Int(5),
    });
    let strlen_ty = m.types.function(i64t, vec![]);
    let ext = m.declare_external("mystery", strlen_ty);

    let mut b = FunctionBuilder::new(&mut m, "kitchen_sink", i64t, &[("x", i64t)]);
    let x = b.param(0);
    let st = b.alloca(s, "st");
    let a = b.alloca_n(i64t, Const::i64(4).into(), "arr");
    let h = b.malloc(i64t, Const::i64(2).into(), "h");
    let f0 = b.field_addr(st.into(), 0, "f0");
    b.store(f0.into(), x.into());
    let arr_p = {
        let at = b.module.types.pointer(arr);
        b.cast(CastOp::Bitcast, at, a.into(), "arrp")
    };
    let e1 = b.index_addr(arr_p.into(), Const::i64(1).into(), "e1");
    b.store(e1.into(), Const::i64(7).into());
    let v = b.load(i64t, f0.into(), "v");
    let sum = b.bin(BinOp::Add, i64t, v.into(), Const::i64(1).into());
    let c = b.cmp(CmpPred::Slt, sum.into(), Const::i64(100).into());
    let narrowed = b.cast(CastOp::Trunc, i8t, sum.into(), "narrowed");
    let _widened = b.cast(CastOp::Zext, i64t, narrowed.into(), "widened");
    let gv = b.load(i64t, Operand::Global(g), "gv");
    let r = b.call(Callee::External(ext), vec![], Some(i64t), "r");
    b.emit(Instr::DpmrCheck {
        a: v.into(),
        reps: vec![v.into()],
        ptrs: None,
    });
    let ri = b.reg(i64t, "ri");
    b.emit(Instr::RandInt {
        dst: ri,
        lo: Const::i64(0).into(),
        hi: Const::i64(9).into(),
        stream: 0,
    });
    let hs = b.reg(i64t, "hs");
    b.emit(Instr::HeapBufSize {
        dst: hs,
        ptr: h.into(),
    });
    b.emit(Instr::FiMarker { site: 3 });
    b.output(gv.into());
    b.free(h.into());
    let then_bb = b.block();
    let else_bb = b.block();
    b.cond_br(c.into(), then_bb, else_bb);
    b.switch_to(then_bb);
    b.ret(Some(r.expect("r").into()));
    b.switch_to(else_bb);
    b.emit(Instr::Abort { code: 1 });
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    assert!(verify_module(&m).is_ok());
    let txt = print_module(&m);
    for needle in [
        "alloca",
        "malloc",
        "free",
        "load",
        "store",
        "fieldaddr",
        "indexaddr",
        "bitcast",
        "trunc",
        "zext",
        "add",
        "cmp.slt",
        "call ext:mystery",
        "dpmr.check",
        "randint",
        "heapbufsize",
        "output",
        "fi.marker 3",
        "abort 1",
        "condbr",
        "global @g",
        "ret",
    ] {
        assert!(txt.contains(needle), "printer missing `{needle}`:\n{txt}");
    }
}

#[test]
fn print_function_names_parameters() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "f", i64t, &[("alpha", i64t), ("beta", i64t)]);
    let a = b.param(0);
    b.ret(Some(a.into()));
    let f = b.finish();
    let txt = print_function(&m, m.func(f));
    assert!(txt.contains("%alpha: i64"));
    assert!(txt.contains("%beta: i64"));
}

#[test]
fn repeated_register_names_never_print_a_taken_name() {
    // `x`, `x`, `x.2`: the repeat must not print as `x.2`, which the third
    // register spells, or the text merges two registers on parsing.
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let regs = [b.reg(i64t, "x"), b.reg(i64t, "x"), b.reg(i64t, "x.2")];
    let mut sum: Operand = Const::i64(0).into();
    for (i, &r) in regs.iter().enumerate() {
        b.assign(r, Const::i64(1 << i).into());
        sum = b.bin(BinOp::Add, i64t, sum, r.into()).into();
    }
    b.ret(Some(sum));
    let f = b.finish();
    m.entry = Some(f);
    let txt = print_module(&m);
    for decl in ["reg %x: i64", "reg %x.3: i64", "reg %x.2: i64"] {
        assert!(txt.contains(decl), "missing `{decl}`:\n{txt}");
    }
    let back = parse_module(&txt).expect("printed text parses");
    assert_eq!(back.func(f).regs.len(), m.func(f).regs.len());
    assert_eq!(print_module(&back), txt);
}

#[test]
fn repeated_type_names_never_print_a_taken_name() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    for (name, field) in [("S", i64t), ("S", i8t), ("S.2", i64t)] {
        let s = m.types.opaque_struct(name);
        m.types.set_struct_body(s, vec![field, i64t]);
        let g = format!("g{}", m.globals.len());
        m.add_global(Global {
            name: g,
            ty: s,
            init: GlobalInit::Zero,
        });
    }
    let txt = print_module(&m);
    let back = parse_module(&txt).expect("printed text parses");
    assert_eq!(print_module(&back), txt);
    assert!(txt.contains("type %S.3 = { i8, i64 }"), "{txt}");
}

#[test]
fn derived_register_names_spell_from_their_base() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let pt = m.types.pointer(i64t);
    let named = |name| RegInfo { ty: pt, name };
    let companion = |base, role| {
        named(RegName::Companion {
            base: RegId(base),
            role,
        })
    };
    let f = Function {
        name: "f".into(),
        ty: m.types.function(i64t, vec![]),
        params: vec![],
        regs: vec![
            named(RegName::Numbered("v", 7)),
            companion(0, CompanionRole::Replica(0)),
            companion(0, CompanionRole::Replica(2)),
            companion(0, CompanionRole::Shadow),
            named(RegName::Static("p")),
            companion(4, CompanionRole::Replica(1)),
            companion(1, CompanionRole::Shadow),
            // A base that does not come earlier spells as unnamed.
            companion(8, CompanionRole::Shadow),
            named(RegName::Unnamed),
        ],
        blocks: vec![Block::new()],
    };
    let spelled: Vec<String> = (0..f.regs.len() as u32)
        .map(|r| f.reg_name(RegId(r)))
        .collect();
    assert_eq!(
        spelled,
        ["v7", "v7_r", "v7_r3", "v7_s", "p", "p_r2", "v7_r_s", "r7", "r8"]
    );
}

#[test]
fn parser_rejects_duplicate_symbols() {
    let body = "b0:\n  ret 0:i64\n}\n";
    let cases = [
        (
            format!("global @g: i64 = 1\nglobal @g: i64 = 2\nfn main() -> i64 {{\n{body}"),
            "duplicate global @g",
        ),
        (
            format!("fn main() -> i64 {{\n  reg %x: i64\n  reg %x: i64\n{body}"),
            "duplicate register %x",
        ),
        (
            format!("fn f(%x: i64, %x: i64) -> i64 {{\n{body}"),
            "duplicate register %x",
        ),
        (
            format!("fn f(%x: i64) -> i64 {{\n  reg %x: i64\n{body}"),
            "duplicate register %x",
        ),
        (
            format!("fn f() -> i64 {{\n{body}fn f() -> i64 {{\n{body}"),
            "duplicate function f",
        ),
        (
            format!("extern g: i64()\nextern g: void(i64)\nfn f() -> i64 {{\n{body}"),
            "duplicate extern g",
        ),
    ];
    for (text, want) in cases {
        match parse_module(&text) {
            Ok(_) => panic!("parsed despite {want}:\n{text}"),
            Err(e) => assert!(e.msg.contains(want), "{e} for:\n{text}"),
        }
    }
}

#[test]
fn for_loop_helper_generates_correct_counts() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let count = b.reg(i64t, "count");
    b.assign(count, Const::i64(0).into());
    b.for_loop(Const::i64(3).into(), Const::i64(9).into(), |b, _i| {
        let c = b.bin(BinOp::Add, i64t, count.into(), Const::i64(1).into());
        b.assign(count, c.into());
    });
    b.output(count.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    let out = dpmr_vm::interp::run_with_limits(&m, &dpmr_vm::interp::RunConfig::default());
    assert_eq!(out.output, vec![6]); // 9 - 3 iterations
}

#[test]
fn nested_loops_and_conditionals_compose() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let acc = b.reg(i64t, "acc");
    b.assign(acc, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(4).into(), |b, i| {
        b.for_loop(Const::i64(0).into(), Const::i64(4).into(), |b, j| {
            let eq = b.cmp(CmpPred::Eq, i.into(), j.into());
            b.if_then_else(
                eq.into(),
                |b| {
                    let a = b.bin(BinOp::Add, i64t, acc.into(), Const::i64(10).into());
                    b.assign(acc, a.into());
                },
                |b| {
                    let a = b.bin(BinOp::Add, i64t, acc.into(), Const::i64(1).into());
                    b.assign(acc, a.into());
                },
            );
        });
    });
    b.output(acc.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    let out = dpmr_vm::interp::run_with_limits(&m, &dpmr_vm::interp::RunConfig::default());
    // 4 diagonal cells * 10 + 12 off-diagonal * 1 = 52.
    assert_eq!(out.output, vec![52]);
}

#[test]
fn verifier_rejects_branch_out_of_range() {
    let mut m = Module::new();
    let void = m.types.void();
    let mut b = FunctionBuilder::new(&mut m, "f", void, &[]);
    b.ret(None);
    let f = b.finish();
    m.func_mut(f).blocks[0].term = Term::Br(BlockId(7));
    let errs = verify_module(&m).unwrap_err();
    assert!(errs.iter().any(|e| e.msg.contains("nonexistent block")));
}

#[test]
fn verifier_rejects_field_index_out_of_range() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let s = m.types.struct_type("s", vec![i64t]);
    let void = m.types.void();
    let mut b = FunctionBuilder::new(&mut m, "f", void, &[]);
    let p = b.alloca(s, "p");
    b.ret(None);
    let f = b.finish();
    // Forge a bad field index directly.
    let bogus_dst = {
        let ty = m.types.pointer(i64t);
        let fmut = m.func_mut(f);
        let id = RegId(fmut.regs.len() as u32);
        fmut.regs.push(RegInfo {
            ty,
            name: RegName::Unnamed,
        });
        id
    };
    m.func_mut(f).blocks[0].instrs.push(Instr::FieldAddr {
        dst: bogus_dst,
        base: p.into(),
        field: 9,
    });
    let errs = verify_module(&m).unwrap_err();
    assert!(errs.iter().any(|e| e.msg.contains("field index")));
}

#[test]
fn verifier_rejects_bad_cast_shapes() {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let f64t = m.types.float(64);
    let void = m.types.void();
    let mut b = FunctionBuilder::new(&mut m, "f", void, &[("x", i64t)]);
    let x = b.param(0);
    // Bitcast of an int is invalid (bitcast is pointer-to-pointer).
    let bad = b.reg(f64t, "bad");
    b.emit(Instr::Cast {
        dst: bad,
        op: CastOp::Bitcast,
        src: x.into(),
    });
    b.ret(None);
    b.finish();
    let errs = verify_module(&m).unwrap_err();
    assert!(errs.iter().any(|e| e.msg.contains("invalid Bitcast")));
}

#[test]
fn type_table_field_offsets_align_nested_structs() {
    let mut m = Module::new();
    let i8t = m.types.int(8);
    let i32t = m.types.int(32);
    let i64t = m.types.int(64);
    let inner = m.types.struct_type("inner", vec![i8t, i64t]); // size 16 align 8
    let outer = m.types.struct_type("outer", vec![i32t, inner, i8t]);
    assert_eq!(m.types.field_offset(outer, 0).unwrap(), 0);
    assert_eq!(m.types.field_offset(outer, 1).unwrap(), 8);
    assert_eq!(m.types.field_offset(outer, 2).unwrap(), 24);
    assert_eq!(m.types.size_of(outer).unwrap(), 32);
}

#[test]
fn static_instr_count_counts_terminators() {
    let m = dpmr_workloads::micro::linked_list(1);
    let n = m.static_instr_count();
    assert!(n > 30, "linked list program is nontrivial: {n}");
}
