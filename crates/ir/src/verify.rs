//! Module verifier: structural and type well-formedness checks.
//!
//! The verifier enforces the paper's program assumptions — registers hold
//! scalars, loads/stores move scalars, calls match augmented or original
//! signatures — so that both input programs and DPMR-transformed output can
//! be validated after every pass.

use crate::instr::{BlockId, Callee, CastOp, Const, Instr, Operand, Term};
use crate::module::{FuncId, Function, GlobalInit, Module};
use crate::types::{TypeId, TypeKind};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred, if any.
    pub func: Option<String>,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in function {}: {}", name, self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

struct Ctx<'a> {
    module: &'a Module,
    func: &'a Function,
    /// The module's types of [`INT_WIDTHS`] and [`FLOAT_WIDTHS`], looked
    /// up once per module: constants need them, and hashing costs more.
    int_tys: [Option<TypeId>; 5],
    float_tys: [Option<TypeId>; 2],
    errors: Vec<VerifyError>,
}

/// The only integer widths a type table holds
/// ([`crate::types::TypeTable::int`] asserts them).
const INT_WIDTHS: [u16; 5] = [1, 8, 16, 32, 64];
/// The only float widths a type table holds
/// ([`crate::types::TypeTable::float`] asserts them).
const FLOAT_WIDTHS: [u16; 2] = [32, 64];

impl Ctx<'_> {
    fn err(&mut self, msg: String) {
        self.errors.push(VerifyError {
            func: Some(self.func.name.clone()),
            msg,
        });
    }

    fn operand_ty(&mut self, op: &Operand) -> Option<TypeId> {
        match op {
            Operand::Reg(r) => {
                if (r.0 as usize) < self.func.regs.len() {
                    Some(self.func.reg_ty(*r))
                } else {
                    self.err(format!("register r{} out of range", r.0));
                    None
                }
            }
            Operand::Const(Const::Int { bits, .. }) => self.find_int(*bits),
            Operand::Const(Const::Float { bits, .. }) => self.find_float(*bits),
            Operand::Const(Const::Null { pointee }) => self.find_pointer(*pointee),
            Operand::Global(g) => {
                if (g.0 as usize) < self.module.globals.len() {
                    self.find_pointer(self.module.global(*g).ty)
                } else {
                    self.err(format!("global g{} out of range", g.0));
                    None
                }
            }
            Operand::Func(f) => {
                if (f.0 as usize) < self.module.funcs.len() {
                    self.find_pointer(self.module.func(*f).ty)
                } else {
                    self.err(format!("function f{} out of range", f.0));
                    None
                }
            }
        }
    }

    // Lookup-only type finders (the verifier must not mutate the table).
    fn find(&self, kind: &TypeKind) -> Option<TypeId> {
        self.module.types.lookup(kind)
    }
    fn find_int(&self, bits: u16) -> Option<TypeId> {
        self.int_tys[INT_WIDTHS.iter().position(|&w| w == bits)?]
    }
    fn find_float(&self, bits: u16) -> Option<TypeId> {
        self.float_tys[FLOAT_WIDTHS.iter().position(|&w| w == bits)?]
    }
    fn find_pointer(&self, pointee: TypeId) -> Option<TypeId> {
        self.find(&TypeKind::Pointer { pointee })
    }

    fn check_block_ref(&mut self, b: BlockId) {
        if (b.0 as usize) >= self.func.blocks.len() {
            self.err(format!("branch to nonexistent block b{}", b.0));
        }
    }

    fn check_scalar_reg(&mut self, r: crate::instr::RegId, what: &str) {
        if (r.0 as usize) >= self.func.regs.len() {
            self.err(format!("{what}: register r{} out of range", r.0));
            return;
        }
        let ty = self.func.reg_ty(r);
        if !self.module.types.is_scalar(ty) {
            self.err(format!(
                "{what}: register r{} has non-scalar type {}",
                r.0,
                self.module.types.display(ty)
            ));
        }
    }
}

/// Verifies a whole module.
///
/// # Errors
/// Returns every problem found (does not stop at the first).
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    if let Some(e) = m.entry {
        if (e.0 as usize) >= m.funcs.len() {
            errors.push(VerifyError {
                func: None,
                msg: format!("entry function f{} out of range", e.0),
            });
        }
    }
    for g in &m.globals {
        // The interpreter lays every global out at load, so its type
        // needs a size before its initializer can fit it.
        let fits = match m.types.size_of(g.ty) {
            Ok(_) => check_init(m, g.ty, &g.init),
            Err(e) => Err(e.to_string()),
        };
        if let Err(msg) = fits {
            errors.push(VerifyError {
                func: None,
                msg: format!("global @{}: {msg}", g.name),
            });
        }
    }
    let int_tys = INT_WIDTHS.map(|bits| m.types.lookup(&TypeKind::Int { bits }));
    let float_tys = FLOAT_WIDTHS.map(|bits| m.types.lookup(&TypeKind::Float { bits }));
    for (i, f) in m.funcs.iter().enumerate() {
        let mut ctx = Ctx {
            module: m,
            func: f,
            int_tys,
            float_tys,
            errors: Vec::new(),
        };
        verify_function(&mut ctx, FuncId(i as u32));
        errors.extend(ctx.errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Checks that `init` has the shape of a value of type `ty`, as the
/// interpreter writes it at load: a scalar for a scalar, eight bytes for
/// a pointer-valued initializer, one item per struct field, and no item
/// or byte past the end of the type.
fn check_init(m: &Module, ty: TypeId, init: &GlobalInit) -> Result<(), String> {
    let tt = &m.types;
    let shown = || tt.display(ty);
    match init {
        GlobalInit::Zero => Ok(()),
        GlobalInit::Int(_) | GlobalInit::Float(_) if !tt.is_scalar(ty) => Err(format!(
            "scalar initializer for non-scalar type {}",
            shown()
        )),
        GlobalInit::Null | GlobalInit::Ref(_) | GlobalInit::FuncRef(_)
            if !(tt.is_scalar(ty) && tt.size_of(ty) == Ok(8)) =>
        {
            Err(format!(
                "pointer-valued initializer for {}, not an 8-byte scalar",
                shown()
            ))
        }
        GlobalInit::Ref(g) if g.0 as usize >= m.globals.len() => {
            Err(format!("reference to unknown global g{}", g.0))
        }
        GlobalInit::Bytes(b) if matches!(tt.size_of(ty), Ok(n) if b.len() as u64 > n) => {
            Err(format!("{} bytes overrun type {}", b.len(), shown()))
        }
        GlobalInit::Composite(items) => match tt.kind(ty) {
            TypeKind::Struct { fields, .. } if fields.len() != items.len() => Err(format!(
                "{} items for the {} fields of {}",
                items.len(),
                fields.len(),
                shown()
            )),
            TypeKind::Struct { fields, .. } => fields
                .iter()
                .zip(items)
                .try_for_each(|(&f, item)| check_init(m, f, item)),
            TypeKind::Array { len: Some(n), .. } if items.len() as u64 > *n => {
                Err(format!("{} items overrun type {}", items.len(), shown()))
            }
            TypeKind::Array { elem, .. } => {
                items.iter().try_for_each(|item| check_init(m, *elem, item))
            }
            _ => Err(format!(
                "composite initializer for non-aggregate type {}",
                shown()
            )),
        },
        _ => Ok(()),
    }
}

fn verify_function(ctx: &mut Ctx<'_>, _id: FuncId) {
    let f = ctx.func;
    let m = ctx.module;
    // Signature sanity.
    match m.types.kind(f.ty) {
        TypeKind::Function { params, .. } => {
            if params.len() != f.params.len() {
                ctx.err(format!(
                    "declared {} params but function type has {}",
                    f.params.len(),
                    params.len()
                ));
            } else {
                for (i, (&pr, &pt)) in f.params.iter().zip(params.iter()).enumerate() {
                    if (pr.0 as usize) >= f.regs.len() {
                        ctx.err(format!("param {i} register out of range"));
                    } else if f.reg_ty(pr) != pt {
                        ctx.err(format!("param {i} register type mismatch"));
                    }
                }
            }
        }
        _ => ctx.err("function type is not a function".into()),
    }
    // Registers must be scalar-typed.
    for (i, r) in f.regs.iter().enumerate() {
        if !m.types.is_scalar(r.ty) {
            ctx.err(format!(
                "register r{i} has non-scalar type {}",
                m.types.display(r.ty)
            ));
        }
    }
    if f.blocks.is_empty() {
        ctx.err("function has no blocks".into());
        return;
    }
    for (bi, block) in f.blocks.iter().enumerate() {
        for ins in &block.instrs {
            verify_instr(ctx, ins, bi);
        }
        match &block.term {
            Term::Br(t) => ctx.check_block_ref(*t),
            Term::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                ctx.check_block_ref(*then_bb);
                ctx.check_block_ref(*else_bb);
                ctx.operand_ty(cond);
            }
            Term::Ret(v) => {
                let ret = f.ret_ty(&m.types);
                let is_void = matches!(m.types.kind(ret), TypeKind::Void);
                match (v, is_void) {
                    (None, false) => ctx.err("missing return value".into()),
                    (Some(_), true) => ctx.err("returning value from void function".into()),
                    _ => {}
                }
            }
            Term::Unreachable => {}
        }
    }
}

fn verify_instr(ctx: &mut Ctx<'_>, ins: &Instr, bi: usize) {
    // All operands must resolve.
    ins.for_each_operand(|op| {
        ctx.operand_ty(op);
    });
    if let Some(d) = ins.dst() {
        ctx.check_scalar_reg(d, "destination");
    }
    match ins {
        Instr::Load { dst, ptr } => {
            if let (Some(pt), true) = (ctx.operand_ty(ptr), (dst.0 as usize) < ctx.func.regs.len())
            {
                if !ctx.module.types.is_pointer(pt) {
                    ctx.err(format!("b{bi}: load from non-pointer"));
                }
            }
        }
        Instr::Store { ptr, value } => {
            if let Some(pt) = ctx.operand_ty(ptr) {
                if !ctx.module.types.is_pointer(pt) {
                    ctx.err(format!("b{bi}: store to non-pointer"));
                }
            }
            if let Some(vt) = ctx.operand_ty(value) {
                if !ctx.module.types.is_scalar(vt) {
                    ctx.err(format!("b{bi}: storing non-scalar"));
                }
            }
        }
        Instr::FieldAddr { base, field, .. } => {
            if let Some(bt) = ctx.operand_ty(base) {
                match ctx.module.types.pointee(bt) {
                    Some(p) => match ctx.module.types.kind(p) {
                        TypeKind::Struct { fields: ms, .. }
                        | TypeKind::Union { members: ms, .. } => {
                            if (*field as usize) >= ms.len() {
                                ctx.err(format!("b{bi}: field index {field} out of range"));
                            }
                        }
                        _ => ctx.err(format!("b{bi}: field_addr into non-aggregate")),
                    },
                    None => ctx.err(format!("b{bi}: field_addr base not a pointer")),
                }
            }
        }
        Instr::IndexAddr { base, .. } => {
            if let Some(bt) = ctx.operand_ty(base) {
                match ctx.module.types.pointee(bt) {
                    Some(p) => {
                        if !matches!(ctx.module.types.kind(p), TypeKind::Array { .. }) {
                            ctx.err(format!("b{bi}: index_addr into non-array"));
                        }
                    }
                    None => ctx.err(format!("b{bi}: index_addr base not a pointer")),
                }
            }
        }
        Instr::Cast { op, src, dst } => {
            let st = ctx.operand_ty(src);
            let dt = if (dst.0 as usize) < ctx.func.regs.len() {
                Some(ctx.func.reg_ty(*dst))
            } else {
                None
            };
            if let (Some(st), Some(dt)) = (st, dt) {
                let tys = &ctx.module.types;
                let ok = match op {
                    CastOp::Bitcast => tys.is_pointer(st) && tys.is_pointer(dt),
                    CastOp::PtrToInt => tys.is_pointer(st) && tys.is_int(dt),
                    CastOp::IntToPtr => tys.is_int(st) && tys.is_pointer(dt),
                    CastOp::Trunc | CastOp::Zext | CastOp::Sext => tys.is_int(st) && tys.is_int(dt),
                    CastOp::FpToSi => tys.is_float(st) && tys.is_int(dt),
                    CastOp::SiToFp => tys.is_int(st) && tys.is_float(dt),
                    CastOp::FpCast => tys.is_float(st) && tys.is_float(dt),
                };
                if !ok {
                    ctx.err(format!("b{bi}: invalid {op:?} cast"));
                }
            }
        }
        Instr::Call { callee, args, dst } => {
            let fty = match callee {
                Callee::Direct(fid) => {
                    if (fid.0 as usize) < ctx.module.funcs.len() {
                        Some(ctx.module.func(*fid).ty)
                    } else {
                        ctx.err(format!("b{bi}: call of nonexistent function f{}", fid.0));
                        None
                    }
                }
                Callee::External(eid) => {
                    if (eid.0 as usize) < ctx.module.externals.len() {
                        Some(ctx.module.external(*eid).ty)
                    } else {
                        ctx.err(format!("b{bi}: call of nonexistent external e{}", eid.0));
                        None
                    }
                }
                Callee::Indirect(op) => ctx.operand_ty(op).and_then(|t| {
                    let p = ctx.module.types.pointee(t);
                    if p.is_none() {
                        ctx.err(format!("b{bi}: indirect call through non-pointer"));
                    }
                    p
                }),
            };
            if let Some(fty) = fty {
                let types = &ctx.module.types;
                if let TypeKind::Function { ret, params } = types.kind(fty) {
                    if params.len() != args.len() {
                        ctx.err(format!(
                            "b{bi}: call arity mismatch ({} args, {} params)",
                            args.len(),
                            params.len()
                        ));
                    }
                    let is_void = matches!(types.kind(*ret), TypeKind::Void);
                    if dst.is_some() && is_void {
                        ctx.err(format!("b{bi}: capturing result of void call"));
                    }
                } else {
                    ctx.err(format!("b{bi}: callee is not of function type"));
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, RegId};
    use crate::module::Module;

    fn ok_module() -> Module {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "f", i64t, &[("x", i64t)]);
        let x = b.param(0);
        let y = b.bin(BinOp::Add, i64t, x.into(), Const::i64(1).into());
        b.ret(Some(y.into()));
        let id = b.finish();
        m.entry = Some(id);
        m
    }

    #[test]
    fn verifies_good_module() {
        assert!(verify_module(&ok_module()).is_ok());
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut m = ok_module();
        m.func_mut(FuncId(0)).blocks[0].instrs.push(Instr::Store {
            ptr: Operand::Reg(RegId(99)),
            value: Const::i64(0).into(),
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("out of range")));
    }

    #[test]
    fn rejects_missing_return_value() {
        let mut m = ok_module();
        m.func_mut(FuncId(0)).blocks[0].term = Term::Ret(None);
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("missing return value")));
    }

    #[test]
    fn rejects_store_to_non_pointer() {
        let mut m = ok_module();
        let r = m.funcs[0].params[0];
        m.func_mut(FuncId(0)).blocks[0].instrs.push(Instr::Store {
            ptr: Operand::Reg(r),
            value: Const::i64(0).into(),
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("non-pointer")));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = ok_module();
        let f0 = FuncId(0);
        m.func_mut(f0).blocks[0].instrs.push(Instr::Call {
            dst: None,
            callee: Callee::Direct(f0),
            args: vec![],
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("arity")));
    }

    /// Every global initializer shape the interpreter cannot lay out at
    /// load is an error of the module, naming the global.
    #[test]
    fn rejects_global_initializers_that_do_not_fit_their_type() {
        let cases = [
            (
                "type %S = { i64*, i64* }\nglobal @g: %S = {null}",
                "1 items for the 2 fields",
            ),
            (
                "type %S = { i64 }\nglobal @g: %S = {1, 2}",
                "2 items for the 1 fields",
            ),
            (
                "global @g: [2 x i64] = 7",
                "scalar initializer for non-scalar",
            ),
            (
                "global @g: [2 x i64] = 1.5",
                "scalar initializer for non-scalar",
            ),
            ("global @g: [2 x i64] = null", "not an 8-byte scalar"),
            ("global @g: i32 = null", "not an 8-byte scalar"),
            (
                "global @g: i64 = {1}",
                "composite initializer for non-aggregate",
            ),
            ("global @g: [2 x i64] = {1, 2, 3}", "3 items overrun"),
            ("global @g: [2 x i8] = bytes 01 02 03", "3 bytes overrun"),
            (
                "type %S = { i64, [1 x i8] }\nglobal @g: %S = {1, {2, 3}}",
                "2 items overrun",
            ),
            // No layout size: the interpreter cannot place the global,
            // whatever its initializer.
            ("global @g: i64[] = zero", "has no size"),
            ("global @g: i64[] = {1, 2}", "has no size"),
            ("global @g: void = zero", "has no size"),
        ];
        for (decls, want) in cases {
            let text = format!("{decls}\nfn main() -> i64 {{\nb0:\n  ret 0:i64\n}}\nentry main\n");
            let m = crate::parser::parse_module(&text).expect("parse");
            let errs = verify_module(&m).expect_err(decls);
            assert!(
                errs.iter().any(|e| e.func.is_none()
                    && e.msg.starts_with("global @g: ")
                    && e.msg.contains(want)),
                "{decls}: {errs:?}"
            );
        }
    }

    /// Initializers that fit, including short arrays and byte strings,
    /// which the rest of the type leaves zero.
    #[test]
    fn accepts_global_initializers_that_fit_their_type() {
        let text = "type %S = { i64, i8*, [4 x i8] }\nglobal @a: [4 x i64] = {1, 2}\n\
                    global @b: %S = {-1, @a, bytes 68 69}\nglobal @c: [3 x i8] = bytes 68 69 00\n\
                    global @d: i64* = @a\nglobal @e: f32 = 2.5\nglobal @f: %S = zero\n\
                    fn main() -> i64 {\nb0:\n  ret 0:i64\n}\nentry main\n";
        let m = crate::parser::parse_module(text).expect("parse");
        assert_eq!(verify_module(&m), Ok(()));
    }
}
