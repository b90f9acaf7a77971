//! Compiles IR modules into the pre-resolved linear bytecode of
//! [`crate::code`].
//!
//! Lowering runs once at module load ([`crate::interp::Interp::new`]) and
//! performs every resolution the old tree-walking engine repeated per
//! executed instruction: constant normalization, register typing, type
//! layout (sizes, field offsets, element sizes), scalar load/store
//! encodings, block-to-pc resolution, callee resolution, and per-site
//! `dpmr.check` id assignment.
//!
//! Every operand becomes a frame-slot index. IR register `rN` is slot
//! `N`; each distinct constant of a function (immediate, null, function
//! address or global) gets one slot after the registers, recorded in the
//! function's [`FrameLayout`]. Constants are deduplicated by kind and bit
//! pattern, never by `f64 ==`, so `0.0`/`-0.0` and NaN payloads stay
//! distinct.
//!
//! # Invariants
//!
//! * **Pure**: the bytecode depends only on the [`Module`]; lowering the
//!   same module twice yields identical code, so frame pcs in snapshots
//!   are portable across interpreters of the same module.
//! * **One op per IR slot**: each instruction and each terminator lowers
//!   to exactly one [`Op`], in block order, so dynamic instruction counts
//!   and virtual-cycle accounting match the tree-walker bit-for-bit. A
//!   function's op range is laid out per
//!   [`dpmr_ir::module::Function::linear_block_starts`] (landing pads for
//!   branches to nonexistent blocks follow the function's blocks).
//! * **Ill-typed ≠ ill-formed**: instructions whose operand *types* are
//!   invalid (e.g. `fieldaddr` through a non-pointer) lower to
//!   [`Op::Invalid`], which reproduces the tree-walker's runtime trap —
//!   including evaluating operands first so use-of-unset-register traps
//!   still take precedence. An operand naming a global the module does
//!   not declare does the same: the op becomes [`Op::Invalid`] carrying
//!   the operands its handler evaluates before that one, and traps "use
//!   of unknown global gN". So does a load, store or check whose register
//!   has a non-scalar type (which only an unverified module can hold):
//!   lowering never panics on a module's types.
//!
//! What stays runtime-resolved: global addresses (allocated per run and
//! written into each function's constant slots when an interpreter
//! builds its frame templates), external handler bindings (per
//! registry), and all value-dependent behaviour (indirect-call targets,
//! memory faults, division by zero).

use crate::code::{FrameLayout, LoadKind, LoweredCode, Op, Opnd, StoreKind};
use crate::interp::FUNC_BASE;
use crate::value::{normalize_int, Value};
use dpmr_ir::instr::{Callee, Const, Instr, Operand, Term};
use dpmr_ir::module::{Function, Module};
use dpmr_ir::types::{FxHashMap, LayoutError, TypeId, TypeKind, TypeTable};

/// Lowers a whole module. See the module docs for the invariants.
pub fn lower(module: &Module) -> LoweredCode {
    let mut ops = Vec::with_capacity(module.static_instr_count());
    let mut check_sites = 0;
    let mut func_entry = Vec::with_capacity(module.funcs.len());
    let mut frames = Vec::with_capacity(module.funcs.len());
    let mut layouts = Layouts::new(&module.types);
    for f in &module.funcs {
        func_entry.push(ops.len() as u32);
        frames.push(lower_function(
            module,
            f,
            &mut ops,
            &mut check_sites,
            &mut layouts,
        ));
    }
    LoweredCode::new(ops, func_entry, check_sites, frames)
}

/// An IR operand as [`LoweredCode::operand`] reports it: constants
/// pre-normalized into immediates, globals kept symbolic.
fn view(op: &Operand) -> Opnd {
    match op {
        Operand::Reg(r) => Opnd::Reg(r.0),
        Operand::Const(Const::Int { value, bits }) => {
            Opnd::Imm(Value::Int(normalize_int(*value, *bits)))
        }
        Operand::Const(Const::Float { value, .. }) => Opnd::Imm(Value::Float(*value)),
        Operand::Const(Const::Null { .. }) => Opnd::Imm(Value::Ptr(0)),
        Operand::Global(g) => Opnd::Global(g.0),
        Operand::Func(fid) => Opnd::Imm(Value::Ptr(FUNC_BASE + u64::from(fid.0))),
    }
}

/// A size or offset, or why the type has none.
type Bytes = Result<u64, LayoutError>;

/// Type layouts of one lowering, each computed once: every alloca,
/// malloc, field address and element address asks for one.
struct Layouts<'t> {
    tt: &'t TypeTable,
    sizes: Vec<Option<Bytes>>,
    offsets: FxHashMap<(TypeId, usize), Bytes>,
}

impl<'t> Layouts<'t> {
    fn new(tt: &'t TypeTable) -> Layouts<'t> {
        Layouts {
            tt,
            sizes: vec![None; tt.len()],
            offsets: FxHashMap::default(),
        }
    }

    /// [`TypeTable::size_of`].
    fn size_of(&mut self, t: TypeId) -> Bytes {
        let tt = self.tt;
        self.sizes[t.index()]
            .get_or_insert_with(|| tt.size_of(t))
            .clone()
    }

    /// [`TypeTable::field_offset`].
    fn field_offset(&mut self, s: TypeId, idx: usize) -> Bytes {
        let tt = self.tt;
        self.offsets
            .entry((s, idx))
            .or_insert_with(|| tt.field_offset(s, idx))
            .clone()
    }
}

/// One function's frame slots while it is lowered: registers keep their
/// numbers, and each distinct constant is appended after them.
struct Slots {
    layout: FrameLayout,
    /// Constant slot by (kind, bit pattern): exact bits, so the interning
    /// never merges `0.0` with `-0.0` or one NaN payload with another.
    index: FxHashMap<(u8, u64), u32>,
    /// Number of globals the module declares.
    globals: u32,
    /// The first undeclared global an operand of the current op named.
    unknown_global: Option<u32>,
}

impl Slots {
    fn new(f: &Function, globals: usize) -> Slots {
        Slots {
            layout: FrameLayout {
                regs: f.regs.len() as u32,
                consts: Vec::new(),
            },
            index: FxHashMap::default(),
            globals: globals as u32,
            unknown_global: None,
        }
    }

    /// The slot holding `op`. An undeclared global gets no slot: it is
    /// recorded, and [`Slots::checked`] replaces the op naming it.
    fn of(&mut self, op: &Operand) -> u32 {
        let c = view(op);
        let key = match c {
            Opnd::Reg(r) => return r,
            Opnd::Imm(Value::Int(i)) => (1, i as u64),
            Opnd::Imm(Value::Float(x)) => (2, x.to_bits()),
            Opnd::Imm(Value::Ptr(p)) => (3, p),
            Opnd::Global(g) if g >= self.globals => {
                self.unknown_global.get_or_insert(g);
                return u32::MAX;
            }
            Opnd::Global(g) => (4, u64::from(g)),
        };
        let Slots { layout, index, .. } = self;
        *index.entry(key).or_insert_with(|| {
            layout.consts.push(c);
            layout.regs + layout.consts.len() as u32 - 1
        })
    }

    fn all(&mut self, ops: &[Operand]) -> Box<[u32]> {
        ops.iter().map(|o| self.of(o)).collect()
    }

    /// `op`, or — when one of its operands named an undeclared global —
    /// an [`Op::Invalid`] that evaluates the operands before that global
    /// (in the handler's evaluation order, which `operands` yields), then
    /// traps "use of unknown global gN" as evaluating the global did.
    fn checked(&mut self, op: Op, operands: impl FnOnce() -> Vec<Operand>) -> Op {
        let Some(g) = self.unknown_global.take() else {
            return op;
        };
        let operands = operands();
        let (first, g) = operands
            .iter()
            .enumerate()
            .find_map(|(i, o)| match o {
                Operand::Global(x) if x.0 >= self.globals => Some((i, x.0)),
                _ => None,
            })
            .unwrap_or((operands.len(), g));
        Op::Invalid {
            args: self.all(&operands[..first]),
            msg: format!("use of unknown global g{g}").into(),
        }
    }
}

/// The trap message of a `what` through a register of type `ty`, which
/// is not scalar.
fn non_scalar(tt: &TypeTable, what: &str, ty: TypeId) -> String {
    format!("{what} of non-scalar type {:?}", tt.kind(ty))
}

/// Memory encoding of a store *value operand* (the tree-walker matched on
/// the operand form; constants encode by their own width, registers by
/// their declared type, and address-valued operands are pointer-width).
/// `Err` names a register type that is not scalar.
fn store_value_kind(tt: &TypeTable, f: &Function, value: &Operand) -> Result<StoreKind, String> {
    Ok(match value {
        Operand::Reg(r) => {
            let ty = f.reg_ty(*r);
            StoreKind::of(tt, ty).ok_or_else(|| non_scalar(tt, "store", ty))?
        }
        Operand::Const(Const::Int { bits, .. }) => {
            StoreKind::Raw(usize::from(*bits).div_ceil(8).max(1) as u8)
        }
        Operand::Const(Const::Float { bits: 32, .. }) => StoreKind::F32,
        // Float64, null, globals, function addresses: pointer-width raw.
        _ => StoreKind::Raw(8),
    })
}

/// Pointee type of a pointer-valued operand (`None` when the operand
/// cannot carry one — the ill-typed case that traps at runtime — or
/// names an undeclared global, which [`Slots::checked`] traps instead).
fn operand_pointee_ty(module: &Module, f: &Function, op: &Operand) -> Option<TypeId> {
    match op {
        Operand::Reg(r) => module.types.pointee(f.reg_ty(*r)),
        Operand::Const(Const::Null { pointee }) => Some(*pointee),
        Operand::Global(g) => module.globals.get(g.0 as usize).map(|g| g.ty),
        Operand::Func(fid) => Some(module.func(*fid).ty),
        Operand::Const(_) => None,
    }
}

/// An op that evaluates `args` in order, then traps `Invalid(msg)`.
fn invalid(slots: &mut Slots, args: &[&Operand], msg: impl Into<Box<str>>) -> Op {
    Op::Invalid {
        args: args.iter().map(|a| slots.of(a)).collect(),
        msg: msg.into(),
    }
}

/// The operands of `ins` in the order its handler evaluates them: the
/// IR's operand order, except that an indirect call evaluates its
/// arguments before the target.
fn eval_order(ins: &Instr) -> Vec<Operand> {
    let mut v = ins.operands();
    if let Instr::Call {
        callee: Callee::Indirect(_),
        ..
    } = ins
    {
        v.rotate_left(1);
    }
    v
}

/// Destination width for casts and binary ops (the scalar bit width of
/// the destination register's type; 64 for pointers).
fn dst_bits(tt: &TypeTable, ty: TypeId) -> u16 {
    match tt.kind(ty) {
        TypeKind::Int { bits } | TypeKind::Float { bits } => *bits,
        _ => 64,
    }
}

#[allow(clippy::too_many_lines)]
fn lower_function(
    module: &Module,
    f: &Function,
    ops: &mut Vec<Op>,
    check_sites: &mut u32,
    layouts: &mut Layouts<'_>,
) -> FrameLayout {
    let entry = ops.len() as u32;
    let tt = &module.types;
    let mut slots = Slots::new(f, module.globals.len());
    if f.blocks.is_empty() {
        // The tree-walker trapped "jump to nonexistent block b0" on entry.
        ops.push(Op::BadBlock { block: 0 });
        return slots.layout;
    }
    let starts = f.linear_block_starts();
    // Branch targets out of block range jump to a landing pad appended
    // after the function body; the pad raises the tree-walker's runtime
    // trap only if control actually reaches it.
    let mut pads: Vec<u32> = Vec::new();
    let body_len = starts[f.blocks.len()];
    let pc_of = |b: u32, pads: &mut Vec<u32>| -> u32 {
        if (b as usize) < f.blocks.len() {
            entry + starts[b as usize]
        } else {
            let pad = pads.iter().position(|&p| p == b).unwrap_or_else(|| {
                pads.push(b);
                pads.len() - 1
            });
            entry + body_len + pad as u32
        }
    };
    for block in &f.blocks {
        for ins in &block.instrs {
            let s = &mut slots;
            let op = match ins {
                Instr::Alloca { dst, ty, count } => match layouts.size_of(*ty) {
                    Ok(size) => Op::Alloca {
                        dst: dst.0,
                        count: count.as_ref().map(|c| s.of(c)),
                        size,
                    },
                    Err(e) => invalid(
                        s,
                        &count.as_ref().map(|c| vec![c]).unwrap_or_default(),
                        e.to_string(),
                    ),
                },
                Instr::Malloc { dst, elem, count } => match layouts.size_of(*elem) {
                    Ok(esize) => Op::Malloc {
                        dst: dst.0,
                        count: s.of(count),
                        esize,
                    },
                    Err(e) => invalid(s, &[count], e.to_string()),
                },
                Instr::Free { ptr } => Op::Free { ptr: s.of(ptr) },
                Instr::Load { dst, ptr } => match LoadKind::of(tt, f.reg_ty(*dst)) {
                    Some(kind) => Op::Load {
                        dst: dst.0,
                        ptr: s.of(ptr),
                        kind,
                    },
                    None => invalid(s, &[ptr], non_scalar(tt, "load", f.reg_ty(*dst))),
                },
                Instr::Store { ptr, value } => match store_value_kind(tt, f, value) {
                    Ok(kind) => Op::Store {
                        ptr: s.of(ptr),
                        value: s.of(value),
                        kind,
                    },
                    Err(msg) => invalid(s, &[ptr, value], msg),
                },
                Instr::FieldAddr { dst, base, field } => {
                    match operand_pointee_ty(module, f, base) {
                        None => invalid(s, &[base], "field_addr through non-pointer"),
                        Some(pointee) => match tt.kind(pointee) {
                            TypeKind::Struct { .. } => {
                                match layouts.field_offset(pointee, *field as usize) {
                                    Ok(off) => Op::FieldAddr {
                                        dst: dst.0,
                                        base: s.of(base),
                                        off,
                                    },
                                    Err(e) => invalid(s, &[base], e.to_string()),
                                }
                            }
                            TypeKind::Union { .. } => Op::FieldAddr {
                                dst: dst.0,
                                base: s.of(base),
                                off: 0,
                            },
                            other => invalid(s, &[base], format!("field_addr into {other:?}")),
                        },
                    }
                }
                Instr::IndexAddr { dst, base, index } => {
                    match operand_pointee_ty(module, f, base) {
                        None => invalid(s, &[base, index], "index_addr through non-pointer"),
                        Some(pointee) => match tt.kind(pointee) {
                            TypeKind::Array { elem, .. } => match layouts.size_of(*elem) {
                                Ok(esize) => Op::IndexAddr {
                                    dst: dst.0,
                                    base: s.of(base),
                                    index: s.of(index),
                                    esize,
                                },
                                Err(e) => invalid(s, &[base, index], e.to_string()),
                            },
                            other => {
                                invalid(s, &[base, index], format!("index_addr into {other:?}"))
                            }
                        },
                    }
                }
                Instr::Cast { dst, op, src } => Op::Cast {
                    dst: dst.0,
                    op: *op,
                    src: s.of(src),
                    dbits: dst_bits(tt, f.reg_ty(*dst)),
                },
                Instr::Bin { dst, op, lhs, rhs } => {
                    let dty = f.reg_ty(*dst);
                    Op::Bin {
                        dst: dst.0,
                        op: *op,
                        lhs: s.of(lhs),
                        rhs: s.of(rhs),
                        bits: match tt.kind(dty) {
                            TypeKind::Int { bits } => *bits,
                            _ => 64,
                        },
                        ptr_result: tt.is_pointer(dty),
                    }
                }
                Instr::Cmp {
                    dst,
                    pred,
                    lhs,
                    rhs,
                } => Op::Cmp {
                    dst: dst.0,
                    pred: *pred,
                    lhs: s.of(lhs),
                    rhs: s.of(rhs),
                },
                Instr::Copy { dst, src } => Op::Copy {
                    dst: dst.0,
                    src: s.of(src),
                },
                Instr::Call { dst, callee, args } => {
                    let largs = s.all(args);
                    let dst = dst.map(|r| r.0);
                    match callee {
                        Callee::Direct(fid) => Op::CallDirect {
                            dst,
                            f: *fid,
                            args: largs,
                        },
                        Callee::Indirect(op) => Op::CallIndirect {
                            dst,
                            target: s.of(op),
                            args: largs,
                        },
                        Callee::External(eid) => Op::CallExternal {
                            dst,
                            ext: eid.0,
                            args: largs,
                        },
                    }
                }
                Instr::DpmrCheck { a, reps, ptrs } => {
                    let site = *check_sites;
                    *check_sites += 1;
                    let a_reg = match a {
                        Operand::Reg(r) => {
                            let ty = f.reg_ty(*r);
                            StoreKind::of(tt, ty)
                                .map(|kind| Some((r.0, kind)))
                                .ok_or_else(|| non_scalar(tt, "check", ty))
                        }
                        _ => Ok(None),
                    };
                    match a_reg {
                        Ok(a_reg) => Op::DpmrCheck {
                            a: s.of(a),
                            reps: s.all(reps),
                            ptrs: ptrs.as_ref().map(|(ap, rps)| (s.of(ap), s.all(rps))),
                            site,
                            a_reg,
                        },
                        Err(msg) => invalid(s, &[a], msg),
                    }
                }
                Instr::RandInt {
                    dst,
                    lo,
                    hi,
                    stream,
                } => Op::RandInt {
                    dst: dst.0,
                    lo: s.of(lo),
                    hi: s.of(hi),
                    stream: *stream,
                },
                Instr::HeapBufSize { dst, ptr } => Op::HeapBufSize {
                    dst: dst.0,
                    ptr: s.of(ptr),
                },
                Instr::Output { value } => Op::Output { value: s.of(value) },
                Instr::FiMarker { site } => Op::FiMarker { site: *site },
                Instr::Abort { code } => Op::Abort { code: *code },
            };
            ops.push(slots.checked(op, || eval_order(ins)));
        }
        let s = &mut slots;
        let term = match &block.term {
            Term::Br(t) => Op::Jump {
                target: pc_of(t.0, &mut pads),
            },
            Term::CondBr {
                cond,
                then_bb,
                else_bb,
            } => Op::CondJump {
                cond: s.of(cond),
                then_pc: pc_of(then_bb.0, &mut pads),
                else_pc: pc_of(else_bb.0, &mut pads),
            },
            Term::Ret(v) => Op::Ret {
                value: v.as_ref().map(|v| s.of(v)),
            },
            Term::Unreachable => Op::Unreachable,
        };
        let read = match &block.term {
            Term::CondBr { cond, .. } => Some(*cond),
            Term::Ret(v) => *v,
            Term::Br(_) | Term::Unreachable => None,
        };
        ops.push(slots.checked(term, || read.into_iter().collect()));
    }
    for b in pads {
        ops.push(Op::BadBlock { block: b });
    }
    slots.layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_ir::builder::FunctionBuilder;
    use dpmr_ir::instr::BinOp;

    #[test]
    fn lowering_is_one_op_per_ir_slot_and_pure() {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let p = b.malloc(i64t, Const::i64(1).into(), "p");
        b.store(p.into(), Const::i64(41).into());
        let v = b.load(i64t, p.into(), "v");
        let w = b.bin(BinOp::Add, i64t, v.into(), Const::i64(1).into());
        b.output(w.into());
        b.free(p.into());
        b.ret(Some(Const::i64(0).into()));
        let f = b.finish();
        m.entry = Some(f);

        let a = lower(&m);
        assert_eq!(a.ops.len(), m.static_instr_count());
        assert_eq!(*a.func_entry, vec![0]);
        // Purity: lowering twice yields identical pc layout and sites.
        let c = lower(&m);
        assert_eq!(a.func_entry, c.func_entry);
        assert_eq!(a.ops.len(), c.ops.len());
        assert_eq!(a.check_sites, c.check_sites);
    }

    #[test]
    fn constants_are_prenormalized() {
        let op = view(&Operand::Const(Const::Int {
            value: 0xFF,
            bits: 8,
        }));
        assert_eq!(op, Opnd::Imm(Value::Int(-1)));
        assert_eq!(
            view(&Operand::Const(Const::Null { pointee: TypeId(0) })),
            Opnd::Imm(Value::Ptr(0))
        );
    }

    /// Constants get one slot each after the registers, shared by every
    /// use of the same bits, and `operand` reads them back as written.
    #[test]
    fn constants_get_deduplicated_slots_after_the_registers() {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let x = b.bin(BinOp::Add, i64t, Const::i64(7).into(), Const::i64(7).into());
        b.output(Const::i64(7).into());
        b.output(Const::f64(0.0).into());
        b.output(Const::f64(-0.0).into());
        b.ret(Some(x.into()));
        let f = b.finish();
        m.entry = Some(f);
        let lc = lower(&m);
        let regs = m.func(f).regs.len() as u32;
        assert_eq!(lc.frames[0].regs, regs);
        assert_eq!(
            lc.frames[0].consts,
            vec![
                Opnd::Imm(Value::Int(7)),
                Opnd::Imm(Value::Float(0.0)),
                Opnd::Imm(Value::Float(-0.0)),
            ]
        );
        let Op::Bin { lhs, rhs, .. } = lc.ops[0] else {
            panic!("expected a bin op, got {:?}", lc.ops[0]);
        };
        assert_eq!((lhs, rhs), (regs, regs));
        assert_eq!(lc.operand(0, lhs), Opnd::Imm(Value::Int(7)));
        assert_eq!(lc.operand(0, x.0), Opnd::Reg(x.0));
        assert!(matches!(lc.ops[3], Op::Output { value } if value == regs + 2));
    }

    #[test]
    fn check_sites_are_stable_sequential_ids() {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        for _ in 0..3 {
            b.emit(Instr::DpmrCheck {
                a: Const::i64(1).into(),
                reps: vec![Const::i64(1).into()],
                ptrs: None,
            });
        }
        b.ret(Some(Const::i64(0).into()));
        let f = b.finish();
        m.entry = Some(f);
        let lc = lower(&m);
        assert_eq!(lc.check_sites, 3);
        let sites: Vec<u32> = lc
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::DpmrCheck { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, vec![0, 1, 2]);
    }
}
