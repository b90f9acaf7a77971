//! Human-readable text rendering of modules and functions.
//!
//! The output is re-parseable by [`crate::parser`] (print → parse round
//! trips are tested at workspace level), and is used by golden tests that
//! reproduce the paper's before/after transformation listings
//! (Figures 2.9, 2.10, 4.1, 4.2).

use crate::instr::{Callee, Const, Instr, Operand, Term};
use crate::module::{Function, Global, GlobalInit, Module};
use crate::types::{TypeId, TypeKind};
use std::fmt::Write as _;

/// Per-function display names for registers: the spelled name
/// ([`Function::reg_name`]) when it is unique within the function, `name.N`
/// for repeats, skipping any `name.N` another register already spells.
fn reg_names(f: &Function) -> Vec<String> {
    unique_names((0..f.regs.len()).map(|i| f.reg_name(crate::instr::RegId(i as u32))))
}

/// Makes `names` unique: the first occurrence of a name keeps it, a repeat
/// takes the lowest `name.N` (N >= 2, counting on from the name's last
/// suffix) that no name in the list and no earlier result has.
fn unique_names(names: impl Iterator<Item = String>) -> Vec<String> {
    let names: Vec<String> = names.collect();
    let mut taken: std::collections::HashSet<String> = names.iter().cloned().collect();
    let mut last = std::collections::HashMap::<&str, u32>::new();
    let mut out = Vec::with_capacity(names.len());
    for name in &names {
        let n = last.entry(name).or_insert(0);
        if *n == 0 {
            *n = 1;
            out.push(name.clone());
            continue;
        }
        loop {
            *n += 1;
            let candidate = format!("{name}.{n}");
            if taken.insert(candidate.clone()) {
                out.push(candidate);
                break;
            }
        }
    }
    out
}

fn op_str(
    m: &Module,
    names: &[String],
    tnames: &std::collections::HashMap<u32, String>,
    op: &Operand,
) -> String {
    match op {
        Operand::Reg(r) => format!("%{}", names[r.0 as usize]),
        Operand::Const(Const::Int { value, bits }) => format!("{value}:i{bits}"),
        Operand::Const(Const::Float { value, bits }) => {
            if value.fract() == 0.0 && value.is_finite() {
                format!("{value:.1}:f{bits}")
            } else {
                format!("{value}:f{bits}")
            }
        }
        Operand::Const(Const::Null { pointee }) => format!("null:{}", ty_str(m, tnames, *pointee)),
        Operand::Global(g) => format!("@{}", m.global(*g).name),
        Operand::Func(fid) => format!("&{}", m.func(*fid).name),
    }
}

/// Module-wide unique display names for nominal types: a repeated struct
/// or union name gets a `.N` suffix (as [`unique_names`] assigns it) so the
/// text format can address each identity (the type algebra legitimately
/// mints structurally equal twins for recursive shadow types).
fn type_names(m: &Module) -> std::collections::HashMap<u32, String> {
    let named: Vec<(u32, &str)> = (0..m.types.len() as u32)
        .filter_map(|i| match m.types.kind(TypeId(i)) {
            TypeKind::Struct { name, .. } | TypeKind::Union { name, .. } => {
                Some((i, name.as_str()))
            }
            _ => None,
        })
        .collect();
    let unique = unique_names(named.iter().map(|(_, name)| (*name).to_string()));
    named.iter().map(|(i, _)| *i).zip(unique).collect()
}

/// Short type spelling (named aggregates by unique display name).
fn ty_str(m: &Module, names: &std::collections::HashMap<u32, String>, t: TypeId) -> String {
    match m.types.kind(t) {
        TypeKind::Void => "void".into(),
        TypeKind::Int { bits } => format!("i{bits}"),
        TypeKind::Float { bits } => format!("f{bits}"),
        TypeKind::Pointer { pointee } => format!("{}*", ty_str(m, names, *pointee)),
        TypeKind::Array { elem, len } => match len {
            Some(n) => format!("[{} x {}]", n, ty_str(m, names, *elem)),
            None => format!("{}[]", ty_str(m, names, *elem)),
        },
        TypeKind::Struct { .. } | TypeKind::Union { .. } => {
            format!("%{}", names[&t.0])
        }
        TypeKind::Function { ret, params } => {
            let ps = params
                .iter()
                .map(|&p| ty_str(m, names, p))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{}({})", ty_str(m, names, *ret), ps)
        }
    }
}

/// Renders one instruction using precomputed register display names.
fn instr_str(
    m: &Module,
    names: &[String],
    tnames: &std::collections::HashMap<u32, String>,
    ins: &Instr,
) -> String {
    let o = |op: &Operand| op_str(m, names, tnames, op);
    let d = |r: crate::instr::RegId| format!("%{}", names[r.0 as usize]);
    match ins {
        Instr::Alloca { dst, ty, count } => match count {
            Some(c) => format!("{} = alloca {}, {}", d(*dst), ty_str(m, tnames, *ty), o(c)),
            None => format!("{} = alloca {}", d(*dst), ty_str(m, tnames, *ty)),
        },
        Instr::Malloc { dst, elem, count } => {
            format!(
                "{} = malloc {}, {}",
                d(*dst),
                ty_str(m, tnames, *elem),
                o(count)
            )
        }
        Instr::Free { ptr } => format!("free {}", o(ptr)),
        Instr::Load { dst, ptr } => format!("{} = load {}", d(*dst), o(ptr)),
        Instr::Store { ptr, value } => format!("store {}, {}", o(ptr), o(value)),
        Instr::FieldAddr { dst, base, field } => {
            format!("{} = fieldaddr {}, {}", d(*dst), o(base), field)
        }
        Instr::IndexAddr { dst, base, index } => {
            format!("{} = indexaddr {}, {}", d(*dst), o(base), o(index))
        }
        Instr::Cast { dst, op, src } => {
            // The destination register's type disambiguates the cast.
            let fty = None::<TypeId>;
            let _ = fty;
            format!(
                "{} = {} {}",
                d(*dst),
                format!("{op:?}").to_lowercase(),
                o(src)
            )
        }
        Instr::Bin { dst, op, lhs, rhs } => format!(
            "{} = {} {}, {}",
            d(*dst),
            format!("{op:?}").to_lowercase(),
            o(lhs),
            o(rhs)
        ),
        Instr::Cmp {
            dst,
            pred,
            lhs,
            rhs,
        } => format!(
            "{} = cmp.{} {}, {}",
            d(*dst),
            format!("{pred:?}").to_lowercase(),
            o(lhs),
            o(rhs)
        ),
        Instr::Copy { dst, src } => format!("{} = {}", d(*dst), o(src)),
        Instr::Call { dst, callee, args } => {
            let name = match callee {
                Callee::Direct(fid) => m.func(*fid).name.clone(),
                Callee::Indirect(op2) => format!("*{}", o(op2)),
                Callee::External(eid) => format!("ext:{}", m.external(*eid).name),
            };
            let args = args.iter().map(o).collect::<Vec<_>>().join(", ");
            match dst {
                Some(r) => format!("{} = call {}({})", d(*r), name, args),
                None => format!("call {name}({args})"),
            }
        }
        Instr::DpmrCheck { a, reps, ptrs } => {
            // K = 1 keeps the legacy mnemonic and operand layout
            // byte-for-byte; K >= 2 carries the arity in the mnemonic
            // (`dpmr.check2 a, b1, b2[, ap, rp1, rp2]`) so the operand
            // count alone never has to disambiguate value-only from
            // with-pointers forms.
            let mnemonic = if reps.len() == 1 {
                "dpmr.check".to_string()
            } else {
                format!("dpmr.check{}", reps.len())
            };
            let mut ops: Vec<String> = Vec::with_capacity(2 * reps.len() + 2);
            ops.push(o(a));
            ops.extend(reps.iter().map(&o));
            if let Some((ap, rps)) = ptrs {
                ops.push(o(ap));
                ops.extend(rps.iter().map(&o));
            }
            format!("{mnemonic} {}", ops.join(", "))
        }
        Instr::RandInt {
            dst,
            lo,
            hi,
            stream,
        } => match stream {
            0 => format!("{} = randint {}, {}", d(*dst), o(lo), o(hi)),
            s => format!("{} = randint.s{s} {}, {}", d(*dst), o(lo), o(hi)),
        },
        Instr::HeapBufSize { dst, ptr } => format!("{} = heapbufsize {}", d(*dst), o(ptr)),
        Instr::Output { value } => format!("output {}", o(value)),
        Instr::FiMarker { site } => format!("fi.marker {site}"),
        Instr::Abort { code } => format!("abort {code}"),
    }
}

/// Renders one function.
pub fn print_function(m: &Module, f: &Function) -> String {
    let names = reg_names(f);
    let tnames = type_names(m);
    let mut out = String::new();
    let params = f
        .params
        .iter()
        .map(|&p| {
            format!(
                "%{}: {}",
                names[p.0 as usize],
                ty_str(m, &tnames, f.reg_ty(p))
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "fn {}({}) -> {} {{",
        f.name,
        params,
        ty_str(m, &tnames, f.ret_ty(&m.types))
    );
    // Registers are function-scoped mutable slots; declare the non-param
    // ones up front so a definition later in block order than a use (a
    // loop-carried or cross-branch register) parses cleanly.
    for (i, r) in f.regs.iter().enumerate() {
        let rid = crate::instr::RegId(i as u32);
        if f.params.contains(&rid) {
            continue;
        }
        let _ = writeln!(out, "  reg %{}: {}", names[i], ty_str(m, &tnames, r.ty));
    }
    for (bi, block) in f.blocks.iter().enumerate() {
        let _ = writeln!(out, "b{bi}:");
        for ins in &block.instrs {
            let mut txt = instr_str(m, &names, &tnames, ins);
            if let Instr::Cast { dst, .. } = ins {
                let _ = write!(txt, " : {}", ty_str(m, &tnames, f.reg_ty(*dst)));
            }
            let _ = writeln!(out, "  {txt}");
        }
        let term = match &block.term {
            Term::Br(t) => format!("br b{}", t.0),
            Term::CondBr {
                cond,
                then_bb,
                else_bb,
            } => format!(
                "condbr {}, b{}, b{}",
                op_str(m, &names, &tnames, cond),
                then_bb.0,
                else_bb.0
            ),
            Term::Ret(Some(v)) => format!("ret {}", op_str(m, &names, &tnames, v)),
            Term::Ret(None) => "ret".to_string(),
            Term::Unreachable => "unreachable".to_string(),
        };
        let _ = writeln!(out, "  {term}");
    }
    let _ = writeln!(out, "}}");
    out
}

fn init_str(m: &Module, init: &GlobalInit) -> String {
    match init {
        GlobalInit::Zero => "zero".into(),
        GlobalInit::Int(v) => format!("{v}"),
        GlobalInit::Float(v) => format!("{v}"),
        GlobalInit::Null => "null".into(),
        GlobalInit::Ref(g) => format!("@{}", m.global(*g).name),
        GlobalInit::FuncRef(f) => format!("&{}", m.func(*f).name),
        GlobalInit::Composite(items) => {
            let inner = items
                .iter()
                .map(|i| init_str(m, i))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{{inner}}}")
        }
        GlobalInit::Bytes(b) => {
            let hex = b
                .iter()
                .map(|x| format!("{x:02x}"))
                .collect::<Vec<_>>()
                .join(" ");
            format!("bytes {hex}")
        }
    }
}

fn print_global(m: &Module, tnames: &std::collections::HashMap<u32, String>, g: &Global) -> String {
    format!(
        "global @{}: {} = {}",
        g.name,
        ty_str(m, tnames, g.ty),
        init_str(m, &g.init)
    )
}

/// Renders a whole module in the parser's grammar: named-type
/// declarations, globals (with initializers), externals, functions, and
/// the entry directive.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let tnames = type_names(m);
    // Named aggregate declarations, in table order (the parser pre-scans
    // names, so forward references are fine).
    for i in 0..m.types.len() {
        let t = TypeId(i as u32);
        match m.types.kind(t) {
            TypeKind::Struct { fields, .. } => {
                let body = fields
                    .iter()
                    .map(|&f| ty_str(m, &tnames, f))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "type %{} = {{ {body} }}", tnames[&t.0]);
            }
            TypeKind::Union { members, .. } => {
                let body = members
                    .iter()
                    .map(|&f| ty_str(m, &tnames, f))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "type %{} = union {{ {body} }}", tnames[&t.0]);
            }
            _ => {}
        }
    }
    for g in &m.globals {
        let _ = writeln!(out, "{}", print_global(m, &tnames, g));
    }
    for e in &m.externals {
        let _ = writeln!(out, "extern {}: {}", e.name, ty_str(m, &tnames, e.ty));
    }
    for f in &m.funcs {
        out.push('\n');
        out.push_str(&print_function(m, f));
    }
    if let Some(e) = m.entry {
        let _ = writeln!(out, "entry {}", m.func(e).name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, Const};
    use crate::module::Module;

    #[test]
    fn prints_function_text() {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "inc", i64t, &[("x", i64t)]);
        let x = b.param(0);
        let y = b.bin(BinOp::Add, i64t, x.into(), Const::i64(1).into());
        b.ret(Some(y.into()));
        b.finish();
        let txt = print_module(&m);
        assert!(txt.contains("fn inc(%x: i64) -> i64 {"));
        assert!(txt.contains("add %x, 1:i64"));
        assert!(txt.contains("ret %r1"));
    }

    #[test]
    fn duplicate_register_names_are_disambiguated() {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "f", i64t, &[]);
        let a = b.reg(i64t, "v");
        let c = b.reg(i64t, "v");
        b.assign(a, Const::i64(1).into());
        b.assign(c, Const::i64(2).into());
        b.ret(Some(c.into()));
        let f = b.finish();
        let txt = print_function(&m, m.func(f));
        assert!(txt.contains("%v ="));
        assert!(txt.contains("%v.2 ="));
    }

    #[test]
    fn globals_render_initializers() {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let g = m.add_global(Global {
            name: "a".into(),
            ty: i64t,
            init: GlobalInit::Int(7),
        });
        let _ = g;
        let txt = print_module(&m);
        assert!(txt.contains("global @a: i64 = 7"));
    }
}
