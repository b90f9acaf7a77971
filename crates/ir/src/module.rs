//! Functions, globals, external declarations, and the module container.

use crate::instr::{Block, BlockId, RegId};
use crate::types::{TypeId, TypeKind, TypeTable};
use std::fmt::Write as _;
use std::sync::Arc;

/// Index of a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a global variable within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Index of an external function declaration within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExternalId(pub u32);

/// Metadata for one virtual register.
#[derive(Debug, Clone, PartialEq)]
pub struct RegInfo {
    /// Scalar type held by the register.
    pub ty: TypeId,
    /// Human-readable name (printer output).
    pub name: RegName,
}

/// A register's name as stored. Only the printer reads names, so derived
/// forms record what they derive from and [`Function::reg_name`] spells
/// them out: building a module allocates no text for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegName {
    /// No name: spelled `rN` after the register's index.
    Unnamed,
    /// Fixed text.
    Static(&'static str),
    /// Text shared (not copied) by the modules derived from this one.
    Text(Arc<str>),
    /// The prefix followed by the number in decimal (`v7`, `a0`).
    Numbered(&'static str, u32),
    /// `{prefix}.{block}.{instr}`: a register made for the instruction at
    /// that position of a source function (`csSop.2.5`).
    AtInstr(&'static str, u32, u32),
    /// A companion of register `base` of the same function: the base's
    /// name followed by the role's suffix.
    Companion {
        /// The register the name derives from; it must come earlier in
        /// the function (a later one spells as unnamed).
        base: RegId,
        /// Which companion.
        role: CompanionRole,
    },
}

/// The companion registers the DPMR transformation gives a pointer
/// register, by the suffix each adds to its base's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompanionRole {
    /// Replica `k`'s object pointer: `_r` for replica 0, `_r{k+1}` after.
    Replica(u32),
    /// The shadow object pointer: `_s`.
    Shadow,
}

impl From<&str> for RegName {
    /// Text of its own; the empty string is no name.
    fn from(s: &str) -> RegName {
        if s.is_empty() {
            RegName::Unnamed
        } else {
            RegName::Text(s.into())
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Function type (must be `TypeKind::Function`).
    pub ty: TypeId,
    /// Registers that receive the arguments, in order.
    pub params: Vec<RegId>,
    /// All virtual registers of the function.
    pub regs: Vec<RegInfo>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Type of a register.
    ///
    /// # Panics
    /// Panics if the register does not belong to this function.
    pub fn reg_ty(&self, r: RegId) -> TypeId {
        self.regs[r.0 as usize].ty
    }

    /// Register `r`'s name spelled out, with `rN` for an unnamed one.
    /// Names need not be unique: the printer makes them so.
    pub fn reg_name(&self, r: RegId) -> String {
        // Companion roles from `r` down to a register named on its own.
        let mut roles = Vec::new();
        let mut cur = r;
        let mut out = String::new();
        loop {
            match self.regs.get(cur.0 as usize).map(|ri| &ri.name) {
                Some(RegName::Companion { base, role }) if base.0 < cur.0 => {
                    roles.push(*role);
                    cur = *base;
                    continue;
                }
                Some(RegName::Static(s)) => out.push_str(s),
                Some(RegName::Text(s)) => out.push_str(s),
                Some(RegName::Numbered(prefix, n)) => {
                    let _ = write!(out, "{prefix}{n}");
                }
                Some(RegName::AtInstr(prefix, block, instr)) => {
                    let _ = write!(out, "{prefix}.{block}.{instr}");
                }
                _ => {
                    let _ = write!(out, "r{}", cur.0);
                }
            }
            break;
        }
        for role in roles.iter().rev() {
            match role {
                CompanionRole::Replica(0) => out.push_str("_r"),
                CompanionRole::Replica(k) => {
                    let _ = write!(out, "_r{}", u64::from(*k) + 1);
                }
                CompanionRole::Shadow => out.push_str("_s"),
            }
        }
        out
    }

    /// Start offsets of each basic block in a linearized layout of the
    /// function where every instruction and every terminator occupies one
    /// slot: block `b` begins at `starts[b]`, and the slot after the last
    /// block is `starts[blocks.len()]` (the total linear length). This is
    /// the pc layout contract between the IR and bytecode-lowering layers.
    pub fn linear_block_starts(&self) -> Vec<u32> {
        let mut starts = Vec::with_capacity(self.blocks.len() + 1);
        let mut pc = 0u32;
        for b in &self.blocks {
            starts.push(pc);
            pc += b.instrs.len() as u32 + 1;
        }
        starts.push(pc);
        starts
    }

    /// Return type of the function, looked up in `tt`.
    pub fn ret_ty(&self, tt: &TypeTable) -> TypeId {
        match tt.kind(self.ty) {
            TypeKind::Function { ret, .. } => *ret,
            _ => unreachable!("function with non-function type"),
        }
    }

    /// Parameter types of the function, looked up in `tt`.
    pub fn param_tys(&self, tt: &TypeTable) -> Vec<TypeId> {
        match tt.kind(self.ty) {
            TypeKind::Function { params, .. } => params.clone(),
            _ => unreachable!("function with non-function type"),
        }
    }
}

/// Initial value of a global variable (the compile-time store sequence the
/// paper describes for global-variable initialization, Sec. 2.4).
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// Zero-filled.
    Zero,
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Null pointer.
    Null,
    /// Address of another global (a pointer stored in global memory).
    Ref(GlobalId),
    /// Address of a function.
    FuncRef(FuncId),
    /// Aggregate: one initializer per field/element, in layout order.
    Composite(Vec<GlobalInit>),
    /// Raw bytes (e.g. string literals).
    Bytes(Vec<u8>),
}

/// A global variable declaration. Per the paper's assumptions, a global
/// *is a pointer* to memory of type `ty`.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Pointee type (the memory allocated for the global).
    pub ty: TypeId,
    /// Initial contents.
    pub init: GlobalInit,
}

/// Declaration of an external (non-transformed) function, resolved by name
/// in the VM's external registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalDecl {
    /// Registry name.
    pub name: String,
    /// Function type.
    pub ty: TypeId,
}

/// A whole program: types, globals, external declarations, and functions.
///
/// Function bodies are shared: cloning a module counts references to its
/// functions instead of copying them, and [`Module::func_mut`] copies the
/// one function it hands out only while another module still shares it.
/// The type table, globals and externals are small and stay owned.
#[derive(Debug, Clone)]
pub struct Module {
    /// The type table owning every type referenced by the module.
    pub types: TypeTable,
    /// Function definitions, shared with the module's clones.
    pub funcs: Vec<Arc<Function>>,
    /// Global variables.
    pub globals: Vec<Global>,
    /// External function declarations.
    pub externals: Vec<ExternalDecl>,
    /// Entry function (`main`).
    pub entry: Option<FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module {
            types: TypeTable::new(),
            funcs: Vec::new(),
            globals: Vec::new(),
            externals: Vec::new(),
            entry: None,
        }
    }

    /// Adds a function and returns its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(Arc::new(f));
        id
    }

    /// Adds a global and returns its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Declares an external function (idempotent per name).
    pub fn declare_external(&mut self, name: impl Into<String>, ty: TypeId) -> ExternalId {
        let name = name.into();
        if let Some((i, _)) = self
            .externals
            .iter()
            .enumerate()
            .find(|(_, e)| e.name == name)
        {
            return ExternalId(i as u32);
        }
        let id = ExternalId(self.externals.len() as u32);
        self.externals.push(ExternalDecl { name, ty });
        id
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Function reference.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable function reference. A function still shared with another
    /// module is copied first (copy-on-write), so the write never shows
    /// in any other module.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        Arc::make_mut(&mut self.funcs[id.0 as usize])
    }

    /// Global reference.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// External declaration reference.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn external(&self, id: ExternalId) -> &ExternalDecl {
        &self.externals[id.0 as usize]
    }

    /// Total number of instructions across all functions (static size).
    pub fn static_instr_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.instrs.len() + 1).sum::<usize>())
            .sum()
    }
}

// Builds cross threads and are read from several at once.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Module>();
};

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_declaration_is_idempotent() {
        let mut m = Module::new();
        let i32t = m.types.int(32);
        let fty = m.types.function(i32t, vec![]);
        let a = m.declare_external("strcmp", fty);
        let b = m.declare_external("strcmp", fty);
        assert_eq!(a, b);
        assert_eq!(m.externals.len(), 1);
    }

    #[test]
    fn linear_block_starts_count_instrs_and_terminators() {
        use crate::instr::{Instr, Term};
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let fty = m.types.function(i64t, vec![]);
        let mut b0 = Block::new();
        b0.instrs.push(Instr::Abort { code: 0 });
        b0.instrs.push(Instr::Abort { code: 0 });
        b0.term = Term::Br(crate::instr::BlockId(1));
        let mut b1 = Block::new();
        b1.term = Term::Ret(None);
        let f = Function {
            name: "f".into(),
            ty: fty,
            params: vec![],
            regs: vec![],
            blocks: vec![b0, b1],
        };
        // b0 holds 2 instrs + 1 terminator, b1 holds 1 terminator.
        assert_eq!(f.linear_block_starts(), vec![0, 3, 4]);
    }

    /// A module clone shares every function body; a write through
    /// `func_mut` copies that one function and never shows in the other
    /// clone.
    #[test]
    fn clones_share_functions_until_written() {
        let mut m = crate::parser::parse_module(
            "fn f() -> i64 {\nb0:\n  ret 1:i64\n}\nfn main() -> i64 {\nb0:\n  ret 0:i64\n}\n\
             entry main\n",
        )
        .expect("parse");
        let c = m.clone();
        assert!(m.funcs.iter().zip(&c.funcs).all(|(a, b)| Arc::ptr_eq(a, b)));
        let text = crate::printer::print_module(&c);
        m.func_mut(FuncId(0)).name = "g".into();
        assert_eq!(crate::printer::print_module(&c), text);
        assert_ne!(crate::printer::print_module(&m), text);
        assert!(!Arc::ptr_eq(&m.funcs[0], &c.funcs[0]));
        assert!(Arc::ptr_eq(&m.funcs[1], &c.funcs[1]));
    }

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new();
        let void = m.types.void();
        let fty = m.types.function(void, vec![]);
        let f = Function {
            name: "main".into(),
            ty: fty,
            params: vec![],
            regs: vec![],
            blocks: vec![Block::new()],
        };
        let id = m.add_function(f);
        assert_eq!(m.func_by_name("main"), Some(id));
        assert_eq!(m.func_by_name("other"), None);
    }
}
