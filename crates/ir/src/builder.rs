//! Convenience builder for constructing IR functions.
//!
//! Used by the workload programs, the DPMR transformation, and tests. The
//! builder tracks the current block, allocates typed registers, and infers
//! result types for addressing instructions.

use crate::instr::{
    BinOp, Block, BlockId, Callee, CastOp, CmpPred, Const, Instr, Operand, RegId, Term,
};
use crate::module::{FuncId, Function, Module, RegInfo, RegName};
use crate::types::{TypeId, TypeKind};

/// Builds one function into a [`Module`].
///
/// # Examples
///
/// ```
/// use dpmr_ir::prelude::*;
/// let mut m = Module::new();
/// let i32t = m.types.int(32);
/// let mut b = FunctionBuilder::new(&mut m, "add1", i32t, &[("x", i32t)]);
/// let x = b.param(0);
/// let y = b.bin(BinOp::Add, i32t, x.into(), Const::i32(1).into());
/// b.ret(Some(y.into()));
/// let f = b.finish();
/// assert_eq!(m.func(f).name, "add1");
/// ```
pub struct FunctionBuilder<'m> {
    /// The module being extended (types and external declarations are
    /// reachable through it while building).
    pub module: &'m mut Module,
    func: Function,
    cur: BlockId,
    terminated: Vec<bool>,
}

impl<'m> FunctionBuilder<'m> {
    /// Starts a new function with the given return type and named scalar
    /// parameters. The entry block is created and selected.
    ///
    /// # Panics
    /// Panics if a parameter type is not scalar (the paper's assumption:
    /// function parameters are scalars).
    pub fn new(
        module: &'m mut Module,
        name: impl Into<String>,
        ret: TypeId,
        params: &[(&str, TypeId)],
    ) -> Self {
        let mut regs = Vec::new();
        let mut param_regs = Vec::new();
        for (pname, pty) in params {
            assert!(
                module.types.is_scalar(*pty),
                "parameter {pname} must be scalar"
            );
            param_regs.push(RegId(regs.len() as u32));
            regs.push(RegInfo {
                ty: *pty,
                name: RegName::from(*pname),
            });
        }
        let ptys: Vec<TypeId> = params.iter().map(|(_, t)| *t).collect();
        let fty = module.types.function(ret, ptys);
        let func = Function {
            name: name.into(),
            ty: fty,
            params: param_regs,
            regs,
            blocks: vec![Block::new()],
        };
        FunctionBuilder {
            module,
            func,
            cur: BlockId(0),
            terminated: vec![false],
        }
    }

    /// The i-th parameter register.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn param(&self, i: usize) -> RegId {
        self.func.params[i]
    }

    /// Allocates a fresh register of type `ty`.
    pub fn reg(&mut self, ty: TypeId, name: &str) -> RegId {
        let id = RegId(self.func.regs.len() as u32);
        self.func.regs.push(RegInfo {
            ty,
            name: RegName::from(name),
        });
        id
    }

    /// Creates a new (empty, unselected) block.
    pub fn block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::new());
        self.terminated.push(false);
        id
    }

    /// Selects the block that subsequent emissions append to.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// The currently selected block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Type of an operand as seen by the builder.
    ///
    /// # Panics
    /// Panics for [`Operand::Func`] operands (use the function's pointer
    /// type explicitly when needed).
    pub fn operand_ty(&mut self, op: Operand) -> TypeId {
        match op {
            Operand::Reg(r) => self.func.reg_ty(r),
            Operand::Const(Const::Int { bits, .. }) => self.module.types.int(bits),
            Operand::Const(Const::Float { bits, .. }) => self.module.types.float(bits),
            Operand::Const(Const::Null { pointee }) => self.module.types.pointer(pointee),
            Operand::Global(g) => {
                let t = self.module.global(g).ty;
                self.module.types.pointer(t)
            }
            Operand::Func(f) => {
                let t = self.module.func(f).ty;
                self.module.types.pointer(t)
            }
        }
    }

    /// Appends a raw instruction to the current block.
    pub fn emit(&mut self, i: Instr) {
        assert!(
            !self.terminated[self.cur.0 as usize],
            "emitting into terminated block b{}",
            self.cur.0
        );
        self.func.blocks[self.cur.0 as usize].instrs.push(i);
    }

    /// `alloca(ty)` — one object on the stack; result is `ty*`.
    pub fn alloca(&mut self, ty: TypeId, name: &str) -> RegId {
        let pty = self.module.types.pointer(ty);
        let dst = self.reg(pty, name);
        self.emit(Instr::Alloca {
            dst,
            ty,
            count: None,
        });
        dst
    }

    /// `alloca(ty, count)` — an array on the stack; result is `ty*`.
    pub fn alloca_n(&mut self, ty: TypeId, count: Operand, name: &str) -> RegId {
        let pty = self.module.types.pointer(ty);
        let dst = self.reg(pty, name);
        self.emit(Instr::Alloca {
            dst,
            ty,
            count: Some(count),
        });
        dst
    }

    /// `malloc(elem, count)` — heap allocation; result is `elem*`.
    pub fn malloc(&mut self, elem: TypeId, count: Operand, name: &str) -> RegId {
        let pty = self.module.types.pointer(elem);
        let dst = self.reg(pty, name);
        self.emit(Instr::Malloc { dst, elem, count });
        dst
    }

    /// `free(ptr)`.
    pub fn free(&mut self, ptr: Operand) {
        self.emit(Instr::Free { ptr });
    }

    /// `dst <- *ptr`, loading a scalar of type `ty`.
    pub fn load(&mut self, ty: TypeId, ptr: Operand, name: &str) -> RegId {
        let dst = self.reg(ty, name);
        self.emit(Instr::Load { dst, ptr });
        dst
    }

    /// `*ptr <- value`.
    pub fn store(&mut self, ptr: Operand, value: Operand) {
        self.emit(Instr::Store { ptr, value });
    }

    /// `&(base->field)` with the result type inferred from `base`.
    ///
    /// # Panics
    /// Panics if `base` is not a pointer to a struct or union.
    pub fn field_addr(&mut self, base: Operand, field: u32, name: &str) -> RegId {
        let bty = self.operand_ty(base);
        let pointee = self
            .module
            .types
            .pointee(bty)
            .unwrap_or_else(|| panic!("field_addr base is not a pointer"));
        let fty = match self.module.types.kind(pointee) {
            TypeKind::Struct { fields, .. } => fields[field as usize],
            TypeKind::Union { members, .. } => members[field as usize],
            other => panic!("field_addr into non-aggregate {other:?}"),
        };
        let rty = self.module.types.pointer(fty);
        let dst = self.reg(rty, name);
        self.emit(Instr::FieldAddr { dst, base, field });
        dst
    }

    /// `&base[index]` with the result type inferred from `base`
    /// (pointer-to-array yields pointer-to-element).
    ///
    /// # Panics
    /// Panics if `base` is not a pointer to an array.
    pub fn index_addr(&mut self, base: Operand, index: Operand, name: &str) -> RegId {
        let bty = self.operand_ty(base);
        let pointee = self
            .module
            .types
            .pointee(bty)
            .unwrap_or_else(|| panic!("index_addr base is not a pointer"));
        let ety = match self.module.types.kind(pointee) {
            TypeKind::Array { elem, .. } => *elem,
            other => panic!("index_addr into non-array {other:?}"),
        };
        let rty = self.module.types.pointer(ety);
        let dst = self.reg(rty, name);
        self.emit(Instr::IndexAddr { dst, base, index });
        dst
    }

    /// `dst <- lhs op rhs` with result type `ty`.
    pub fn bin(&mut self, op: BinOp, ty: TypeId, lhs: Operand, rhs: Operand) -> RegId {
        let dst = self.reg(ty, "");
        self.emit(Instr::Bin { dst, op, lhs, rhs });
        dst
    }

    /// `dst <- lhs pred rhs` (i8 result).
    pub fn cmp(&mut self, pred: CmpPred, lhs: Operand, rhs: Operand) -> RegId {
        let i8t = self.module.types.int(8);
        let dst = self.reg(i8t, "");
        self.emit(Instr::Cmp {
            dst,
            pred,
            lhs,
            rhs,
        });
        dst
    }

    /// `dst <- cast(src)` with result type `ty`.
    pub fn cast(&mut self, op: CastOp, ty: TypeId, src: Operand, name: &str) -> RegId {
        let dst = self.reg(ty, name);
        self.emit(Instr::Cast { dst, op, src });
        dst
    }

    /// Register copy (or address-of-function when `src` is a function).
    pub fn copy(&mut self, ty: TypeId, src: Operand, name: &str) -> RegId {
        let dst = self.reg(ty, name);
        self.emit(Instr::Copy { dst, src });
        dst
    }

    /// Emits a call. `ret_ty` of `None` means the callee returns void.
    pub fn call(
        &mut self,
        callee: Callee,
        args: Vec<Operand>,
        ret_ty: Option<TypeId>,
        name: &str,
    ) -> Option<RegId> {
        let dst = ret_ty.map(|t| self.reg(t, name));
        self.emit(Instr::Call { dst, callee, args });
        dst
    }

    /// Emits `output(value)`.
    pub fn output(&mut self, value: Operand) {
        self.emit(Instr::Output { value });
    }

    fn terminate(&mut self, t: Term) {
        assert!(
            !self.terminated[self.cur.0 as usize],
            "block b{} terminated twice",
            self.cur.0
        );
        self.func.blocks[self.cur.0 as usize].term = t;
        self.terminated[self.cur.0 as usize] = true;
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Term::Br(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Term::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.terminate(Term::Ret(value));
    }

    /// Structured counting loop: `for i in [start, end) { body }` with an
    /// `i64` induction register handed to the body closure.
    ///
    /// The builder is left positioned in the loop's exit block.
    pub fn for_loop(&mut self, start: Operand, end: Operand, body: impl FnOnce(&mut Self, RegId)) {
        let i64t = self.module.types.int(64);
        let i = self.reg(i64t, "i");
        self.emit(Instr::Copy { dst: i, src: start });
        let head = self.block();
        let body_bb = self.block();
        let exit = self.block();
        self.br(head);
        self.switch_to(head);
        let c = self.cmp(CmpPred::Slt, i.into(), end);
        self.cond_br(c.into(), body_bb, exit);
        self.switch_to(body_bb);
        body(self, i);
        let i2 = self.bin(BinOp::Add, i64t, i.into(), Const::i64(1).into());
        self.emit(Instr::Copy {
            dst: i,
            src: i2.into(),
        });
        self.br(head);
        self.switch_to(exit);
    }

    /// Structured conditional: `if cond != 0 { then }`.
    ///
    /// The builder is left positioned in the join block.
    pub fn if_then(&mut self, cond: Operand, then: impl FnOnce(&mut Self)) {
        let then_bb = self.block();
        let join = self.block();
        self.cond_br(cond, then_bb, join);
        self.switch_to(then_bb);
        then(self);
        self.br(join);
        self.switch_to(join);
    }

    /// Structured conditional with both arms.
    ///
    /// The builder is left positioned in the join block.
    pub fn if_then_else(
        &mut self,
        cond: Operand,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let then_bb = self.block();
        let else_bb = self.block();
        let join = self.block();
        self.cond_br(cond, then_bb, else_bb);
        self.switch_to(then_bb);
        then(self);
        self.br(join);
        self.switch_to(else_bb);
        els(self);
        self.br(join);
        self.switch_to(join);
    }

    /// Overwrites an existing register (mutable-register assignment).
    pub fn assign(&mut self, dst: RegId, src: Operand) {
        self.emit(Instr::Copy { dst, src });
    }

    /// Finishes the function, adds it to the module, and returns its id.
    ///
    /// # Panics
    /// Panics if any block lacks a terminator.
    pub fn finish(self) -> FuncId {
        for (i, done) in self.terminated.iter().enumerate() {
            assert!(
                *done,
                "function {}: block b{i} has no terminator",
                self.func.name
            );
        }
        self.module.add_function(self.func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn build_loop_function() {
        // sum = 0; for i in 0..n { sum += i }; return sum
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let mut b = FunctionBuilder::new(&mut m, "tri", i64t, &[("n", i64t)]);
        let n = b.param(0);
        let sum = b.reg(i64t, "sum");
        let i = b.reg(i64t, "i");
        b.emit(Instr::Copy {
            dst: sum,
            src: Const::i64(0).into(),
        });
        b.emit(Instr::Copy {
            dst: i,
            src: Const::i64(0).into(),
        });
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpPred::Slt, i.into(), n.into());
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, i64t, sum.into(), i.into());
        b.emit(Instr::Copy {
            dst: sum,
            src: s2.into(),
        });
        let i2 = b.bin(BinOp::Add, i64t, i.into(), Const::i64(1).into());
        b.emit(Instr::Copy {
            dst: i,
            src: i2.into(),
        });
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(sum.into()));
        let f = b.finish();
        assert_eq!(m.func(f).blocks.len(), 4);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut m = Module::new();
        let void = m.types.void();
        let mut b = FunctionBuilder::new(&mut m, "f", void, &[]);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    fn field_addr_infers_type() {
        let mut m = Module::new();
        let i32t = m.types.int(32);
        let ll = m.types.opaque_struct("LL");
        let llp = m.types.pointer(ll);
        m.types.set_struct_body(ll, vec![i32t, llp]);
        let void = m.types.void();
        let mut b = FunctionBuilder::new(&mut m, "f", void, &[("n", llp)]);
        let n = b.param(0);
        let d = b.field_addr(n.into(), 0, "dataPtr");
        let nx = b.field_addr(n.into(), 1, "nxtPtr");
        b.ret(None);
        let i32p = {
            let t = b.module.types.int(32);
            b.module.types.pointer(t)
        };
        let llpp = b.module.types.pointer(llp);
        assert_eq!(b.func.reg_ty(d), i32p);
        assert_eq!(b.func.reg_ty(nx), llpp);
        b.finish();
    }
}
