//! # dpmr-ir
//!
//! The intermediate representation on which Diverse Partial Memory
//! Replication (DPMR) is defined.
//!
//! The DPMR dissertation specifies its transformation against an abstract,
//! LLVM-like program model (Chapter 2): a type system with sized primitive
//! integers and floats, `void`, and five derived types (pointer, struct,
//! union, array, function); virtual registers that hold only scalars; and
//! memory reachable only through loads and stores of single scalars, with
//! heap (`malloc`), stack (`alloca`), and global allocation. This crate
//! implements exactly that model:
//!
//! * [`types`] — the interned type system with C-like layout rules and the
//!   placeholder mechanism needed for recursive type construction,
//! * [`instr`] — the instruction set, including the DPMR runtime primitives
//!   (`dpmr.check`, `randint`, `heapbufsize`) and the fault-injection
//!   marker,
//! * [`module`] — functions, globals, external declarations,
//! * [`builder`] — an ergonomic construction API,
//! * [`verify`] — a verifier run after every transformation pass,
//! * [`printer`] / [`parser`] — textual rendering and parsing (golden
//!   tests reproduce the paper's before/after listings; small programs
//!   can be written as text).
//!
//! # Examples
//!
//! ```
//! use dpmr_ir::prelude::*;
//!
//! let mut m = Module::new();
//! let i64t = m.types.int(64);
//! let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
//! let p = b.malloc(i64t, Const::i64(1).into(), "p");
//! b.store(p.into(), Const::i64(42).into());
//! let v = b.load(i64t, p.into(), "v");
//! b.free(p.into());
//! b.ret(Some(v.into()));
//! let f = b.finish();
//! m.entry = Some(f);
//! assert!(dpmr_ir::verify::verify_module(&m).is_ok());
//! ```

pub mod builder;
pub mod instr;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::builder::FunctionBuilder;
    pub use crate::instr::{
        BinOp, Block, BlockId, Callee, CastOp, CmpPred, Const, Instr, Operand, RegId, Term,
    };
    pub use crate::module::{
        CompanionRole, ExternalDecl, ExternalId, FuncId, Function, Global, GlobalId, GlobalInit,
        Module, RegInfo, RegName,
    };
    pub use crate::types::{TypeId, TypeKind, TypeTable, PTR_BYTES};
}
