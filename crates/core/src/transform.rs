//! The DPMR code transformation (Tables 2.6/2.7 for SDS, Tables 4.3/4.4
//! for MDS), including diversity transformations (Table 2.8), state
//! comparison policies (Table 2.9 and Sec. 2.7), external-function wrapper
//! rewiring (Sec. 2.8), `main` handling (Sec. 3.1.1), and global-variable
//! replication (Sec. 2.4).
//!
//! For every virtual register `p` holding a pointer, the transformation
//! maintains companion registers `p_r` (replica object pointer) and — under
//! SDS — `p_s` (shadow object pointer). Instructions are rewritten
//! case-by-case exactly as the paper's tables specify.

use crate::config::{Diversity, DpmrConfig, Policy, Scheme, SiteRef};
use crate::shadow::TypeAlgebra;
use dpmr_ir::instr::{
    BinOp, Block, BlockId, Callee, CastOp, CmpPred, Const, Instr, Operand, RegId, Term,
};
use dpmr_ir::module::{
    CompanionRole, ExternalId, FuncId, Function, Global, GlobalId, GlobalInit, Module, RegInfo,
    RegName,
};
use dpmr_ir::types::{TypeId, TypeKind};
use dpmr_ir::verify::{verify_module, VerifyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Failure modes of the transformation (the input-program restrictions of
/// Sections 2.9 and 4.4).
#[derive(Debug)]
pub enum TransformError {
    /// Int-to-pointer casts are forbidden under SDS and MDS (both schemes)
    /// unless a DSA replication plan permits them (Ch. 5).
    IntToPtrCast {
        /// Function containing the cast.
        func: String,
    },
    /// Raw (untyped) pointer arithmetic is forbidden under SDS unless the
    /// plan relaxes it (MDS always allows it, Sec. 4.4).
    RawPointerArithmetic {
        /// Function containing the arithmetic.
        func: String,
    },
    /// The entry function's pointer parameters do not match the supported
    /// argv shape (Sec. 3.1.1).
    UnsupportedEntrySignature {
        /// Entry function name.
        func: String,
    },
    /// A pointer is loaded from or stored to memory not typed as a
    /// pointer. The verifier accepts such type-punned accesses, but under
    /// SDS the pointer's companions have no slot in that memory's shadow
    /// (Table 2.1).
    PointerTypePun {
        /// Function containing the access.
        func: String,
    },
    /// The transformed module failed verification (an internal bug).
    Verify(Vec<VerifyError>),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::IntToPtrCast { func } => {
                write!(f, "int-to-pointer cast in {func} (forbidden, Sec. 2.9)")
            }
            TransformError::RawPointerArithmetic { func } => {
                write!(f, "raw pointer arithmetic in {func} (forbidden under SDS)")
            }
            TransformError::UnsupportedEntrySignature { func } => {
                write!(f, "unsupported entry signature for {func}")
            }
            TransformError::PointerTypePun { func } => {
                write!(f, "pointer moved through non-pointer memory in {func}")
            }
            TransformError::Verify(errs) => {
                write!(f, "transformed module failed verification: {errs:?}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// External functions that need the extra shadow-size parameter under SDS
/// (Sec. 3.1.5, Fig. 3.3).
pub const SIZE_CARRYING_EXTERNALS: &[&str] = &["qsort", "memcpy", "memmove"];

/// Wrapper registry name for an external function under a scheme.
pub fn wrapper_name(orig: &str, scheme: Scheme) -> String {
    match scheme {
        Scheme::Sds => format!("{orig}.sds.efw"),
        Scheme::Mds => format!("{orig}.mds.efw"),
    }
}

/// Suffix appended to the renamed entry function (`main` → `mainAug`).
pub const MAIN_AUG_SUFFIX: &str = "Aug";

/// Companion registers for one original register: one replica object
/// pointer per replica (`nrops` of them, none for non-pointers) plus —
/// under SDS — the shadow object pointer. The ROP registers directly
/// follow `app`.
#[derive(Debug, Clone, Copy)]
struct Companions {
    app: RegId,
    nrops: u32,
    sop: Option<RegId>,
}

impl Companions {
    /// Replica `k`'s ROP register.
    fn rop(&self, k: usize) -> RegId {
        debug_assert!(
            k < self.nrops as usize,
            "ROP {k} of a {}-ROP register",
            self.nrops
        );
        RegId(self.app.0 + 1 + k as u32)
    }

    /// The ROP registers in replica order.
    fn rops(&self) -> impl Iterator<Item = RegId> {
        let first = self.app.0 + 1;
        (first..first + self.nrops).map(RegId)
    }
}

/// The replica side of a mapped operand, by the rule that yields replica
/// `k`'s operand (so mapping an operand allocates nothing).
#[derive(Debug, Clone, Copy)]
enum Rops {
    /// No replica side (plain scalars): every replica reads the
    /// application operand.
    App,
    /// A register's companions.
    Regs(Companions),
    /// The same operand for every replica.
    Same(Operand),
    /// Replica `k`'s copy of global `g` in a module of `n` application
    /// globals (see [`replica_global`]).
    Global { g: GlobalId, n: u32 },
}

/// Replica `r`'s copy of application global `g` in a module with `n`
/// application globals: the replica sets follow the application globals
/// in replica order, so replica `r`'s copy of `g` has id `n*(1+r) + g`.
fn replica_global(n: u32, r: usize, g: GlobalId) -> GlobalId {
    GlobalId(g.0 + (1 + r as u32) * n)
}

/// Member `i` of an aggregate initializer: zero unless it is composite.
/// A composite too short for its type (which the verifier accepts and
/// the interpreter refuses to lay out) reads zero past its end.
fn member_init(init: &GlobalInit, i: usize) -> &GlobalInit {
    static ZERO: GlobalInit = GlobalInit::Zero;
    match init {
        GlobalInit::Composite(items) => items.get(i).unwrap_or(&ZERO),
        _ => &ZERO,
    }
}

/// Companion operands for one original operand.
#[derive(Debug, Clone, Copy)]
struct Ops {
    app: Operand,
    rops: Rops,
    sop: Option<Operand>,
}

impl Ops {
    /// Replica `k`'s operand, falling back to the application operand for
    /// operands without replica companions (e.g. excluded or scalar).
    fn rop(&self, k: usize) -> Operand {
        match self.rops {
            Rops::Regs(c) if k < c.nrops as usize => Operand::Reg(c.rop(k)),
            Rops::Same(op) => op,
            Rops::Global { g, n } => Operand::Global(replica_global(n, k, g)),
            Rops::App | Rops::Regs(..) => self.app,
        }
    }
}

/// Growable buffers the transformer lends to each function's [`Emit`].
#[derive(Default)]
struct Scratch {
    regs: Vec<RegInfo>,
    instrs: Vec<Instr>,
}

/// Function-under-construction emitter with block chaining.
///
/// Registers, and the current block's instructions, grow in [`Scratch`]
/// buffers reused across functions; a block receives its instructions,
/// in one exactly sized vector, when emission leaves it.
struct Emit {
    regs: Vec<RegInfo>,
    blocks: Vec<Block>,
    cur: usize,
    /// Instructions emitted into block `cur` so far.
    pending: Vec<Instr>,
}

impl Emit {
    fn new(blocks: Vec<Block>, scratch: &mut Scratch) -> Emit {
        Emit {
            regs: std::mem::take(&mut scratch.regs),
            blocks,
            cur: 0,
            pending: std::mem::take(&mut scratch.instrs),
        }
    }

    /// The function's registers and blocks; the buffers go back to
    /// `scratch`.
    fn finish(mut self, scratch: &mut Scratch) -> (Vec<RegInfo>, Vec<Block>) {
        self.flush();
        let regs = self.regs.drain(..).collect();
        scratch.regs = self.regs;
        scratch.instrs = self.pending;
        (regs, self.blocks)
    }

    fn flush(&mut self) {
        self.blocks[self.cur].instrs.append(&mut self.pending);
    }

    fn reg(&mut self, ty: TypeId, name: RegName) -> RegId {
        let id = RegId(self.regs.len() as u32);
        self.regs.push(RegInfo { ty, name });
        id
    }

    fn ins(&mut self, i: Instr) {
        self.pending.push(i);
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    fn term(&mut self, t: Term) {
        self.blocks[self.cur].term = t;
    }

    fn start(&mut self, b: BlockId) {
        self.flush();
        self.cur = b.0 as usize;
        // Block 0 is re-entered after the hoisted rv-slot allocas.
        self.pending.append(&mut self.blocks[self.cur].instrs);
    }

    fn reg_ty(&self, r: RegId) -> TypeId {
        self.regs[r.0 as usize].ty
    }
}

/// Transforms `module` with DPMR according to `cfg`.
///
/// The returned module is fully self-contained: augmented function types,
/// replica (and shadow) globals, wrapper external declarations, and a
/// fresh entry wrapper (the paper's `main` handling).
///
/// # Errors
/// Returns a [`TransformError`] when the input violates the scheme's
/// restrictions or the output fails verification.
pub fn transform(module: &Module, cfg: &DpmrConfig) -> Result<Module, TransformError> {
    Transformer::new(module, cfg).run()
}

struct Transformer<'a> {
    src: &'a Module,
    cfg: &'a DpmrConfig,
    /// Replication degree K (>= 1).
    nreps: usize,
    out: Module,
    alg: TypeAlgebra,
    rng: StdRng,
    /// Per-replica transform-time diversity streams for replicas 1..K
    /// (replica 0 keeps the legacy behaviour exactly): `pad_rngs[k - 1]`
    /// is replica `k`'s stream, seeded from `(seed, k)`.
    pad_rngs: Vec<StdRng>,
    shadow_globals: Vec<Option<GlobalId>>,
    rearrange_buf: Option<GlobalId>,
    mask_counter: Option<GlobalId>,
    ext_map: Vec<ExternalId>,
    load_site_counter: u64,
    scratch: Scratch,
}

impl<'a> Transformer<'a> {
    fn new(src: &'a Module, cfg: &'a DpmrConfig) -> Self {
        let mut out = Module::new();
        out.types = src.types.clone();
        let nreps = cfg.replicas.max(1);
        Transformer {
            src,
            cfg,
            nreps,
            out,
            alg: TypeAlgebra::with_replicas(cfg.scheme, nreps),
            rng: StdRng::seed_from_u64(cfg.seed),
            pad_rngs: (1..nreps)
                .map(|k| {
                    StdRng::seed_from_u64(
                        cfg.seed
                            .wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    )
                })
                .collect(),
            shadow_globals: Vec::new(),
            rearrange_buf: None,
            mask_counter: None,
            ext_map: Vec::new(),
            load_site_counter: 0,
            scratch: Scratch::default(),
        }
    }

    fn run(mut self) -> Result<Module, TransformError> {
        self.create_globals();
        self.create_support_globals();
        self.map_externals();
        for i in 0..self.src.funcs.len() {
            let f = self.transform_function(FuncId(i as u32))?;
            self.out.add_function(f);
        }
        if let Some(entry) = self.src.entry {
            let wrapper = self.build_main_wrapper(entry)?;
            self.out.entry = Some(wrapper);
        }
        verify_module(&self.out).map_err(TransformError::Verify)?;
        Ok(self.out)
    }

    // ----- globals ------------------------------------------------------

    fn create_globals(&mut self) {
        let src: &'a Module = self.src;
        // Application globals keep their ids; types become augmented.
        for g in &src.globals {
            let aty = self.alg.at(&mut self.out.types, g.ty);
            self.out.add_global(Global {
                name: g.name.clone(),
                ty: aty,
                init: g.init.clone(),
            });
        }
        // Replica globals: one full set per replica, appended in replica
        // order so replica r's copy of global g has id n*(1+r) + g.
        let n = src.globals.len();
        for r in 0..self.nreps {
            for (i, g) in src.globals.iter().enumerate() {
                let aty = self.alg.at(&mut self.out.types, g.ty);
                let init = self.replica_init(r, g.ty, &g.init);
                let name = if r == 0 {
                    format!("{}.rep", g.name)
                } else {
                    format!("{}.rep{}", g.name, r + 1)
                };
                let id = self.out.add_global(Global {
                    name,
                    ty: aty,
                    init,
                });
                debug_assert_eq!(id, replica_global(n as u32, r, GlobalId(i as u32)));
            }
        }
        // Shadow globals (SDS).
        for g in &src.globals {
            if self.cfg.scheme != Scheme::Sds {
                self.shadow_globals.push(None);
                continue;
            }
            match self.alg.sat(&mut self.out.types, g.ty) {
                Some(sty) => {
                    let id = self.out.add_global(Global {
                        name: format!("{}.sdw", g.name),
                        ty: sty,
                        init: GlobalInit::Zero, // patched below
                    });
                    self.shadow_globals.push(Some(id));
                }
                None => self.shadow_globals.push(None),
            }
        }
        // Patch shadow inits now that replica/shadow ids all exist.
        for (i, g) in src.globals.iter().enumerate() {
            if let Some(id) = self.shadow_globals[i] {
                let init = self.shadow_init(g.ty, &g.init);
                self.out.globals[id.0 as usize].init = init;
            }
        }
    }

    /// Replica `r`'s initializer: identical under SDS (pointers are
    /// comparable); pointer references retarget to replica `r`'s globals
    /// under MDS.
    fn replica_init(&mut self, r: usize, ty: TypeId, init: &GlobalInit) -> GlobalInit {
        match self.cfg.scheme {
            Scheme::Sds => init.clone(),
            Scheme::Mds => self.mds_replica_init(r, ty, init),
        }
    }

    fn mds_replica_init(&mut self, r: usize, ty: TypeId, init: &GlobalInit) -> GlobalInit {
        match init {
            GlobalInit::Ref(g) => {
                GlobalInit::Ref(replica_global(self.src.globals.len() as u32, r, *g))
            }
            GlobalInit::Composite(items) => {
                let member_tys: Vec<TypeId> = match self.out.types.kind(ty) {
                    TypeKind::Struct { fields, .. } => fields.clone(),
                    TypeKind::Array { elem, .. } => vec![*elem; items.len()],
                    TypeKind::Union { members, .. } => members.clone(),
                    _ => vec![ty; items.len()],
                };
                GlobalInit::Composite(
                    items
                        .iter()
                        .zip(member_tys)
                        .map(|(it, t)| self.mds_replica_init(r, t, it))
                        .collect(),
                )
            }
            other => other.clone(),
        }
    }

    /// Shadow initializer for a global of type `ty` with app init `init`.
    fn shadow_init(&mut self, ty: TypeId, init: &GlobalInit) -> GlobalInit {
        let kind = self.out.types.kind(ty).clone();
        match kind {
            TypeKind::Pointer { .. } => {
                // One ROP initializer per replica, then the NSOP.
                let mut items: Vec<GlobalInit> = Vec::with_capacity(self.nreps + 1);
                match init {
                    GlobalInit::Ref(g) => {
                        for r in 0..self.nreps {
                            let n = self.src.globals.len() as u32;
                            items.push(GlobalInit::Ref(replica_global(n, r, *g)));
                        }
                        items.push(match self.shadow_globals[g.0 as usize] {
                            Some(s) => GlobalInit::Ref(s),
                            None => GlobalInit::Null,
                        });
                    }
                    GlobalInit::FuncRef(f) => {
                        for _ in 0..self.nreps {
                            items.push(GlobalInit::FuncRef(*f));
                        }
                        items.push(GlobalInit::Null);
                    }
                    _ => {
                        for _ in 0..=self.nreps {
                            items.push(GlobalInit::Null);
                        }
                    }
                }
                GlobalInit::Composite(items)
            }
            TypeKind::Struct { fields, .. } => {
                let items: Vec<(usize, TypeId)> = fields
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(_, f)| self.alg.sat(&mut self.out.types, *f).is_some())
                    .collect();
                GlobalInit::Composite(
                    items
                        .into_iter()
                        .map(|(i, f)| self.shadow_init(f, member_init(init, i)))
                        .collect(),
                )
            }
            TypeKind::Array { elem, .. } => match init {
                GlobalInit::Composite(its) => {
                    GlobalInit::Composite(its.iter().map(|it| self.shadow_init(elem, it)).collect())
                }
                _ => GlobalInit::Zero,
            },
            _ => GlobalInit::Zero,
        }
    }

    fn create_support_globals(&mut self) {
        if self.cfg.diversity == Diversity::RearrangeHeap {
            let vp = self.out.types.void_ptr();
            let arr = self.out.types.array(vp, 20);
            let id = self.out.add_global(Global {
                name: "dpmr.rearrangeBuf".into(),
                ty: arr,
                init: GlobalInit::Zero,
            });
            self.rearrange_buf = Some(id);
        }
        if matches!(self.cfg.policy, Policy::Temporal { .. }) {
            let i64t = self.out.types.int(64);
            let id = self.out.add_global(Global {
                name: "dpmr.maskCounter".into(),
                ty: i64t,
                init: GlobalInit::Int(0),
            });
            self.mask_counter = Some(id);
        }
    }

    // ----- externals ------------------------------------------------------

    fn map_externals(&mut self) {
        let src: &'a Module = self.src;
        for e in &src.externals {
            let mut aty = self.alg.at(&mut self.out.types, e.ty);
            if self.cfg.scheme == Scheme::Sds && SIZE_CARRYING_EXTERNALS.contains(&e.name.as_str())
            {
                // Prepend the sdwSize parameter (Fig. 3.3).
                let (ret, mut params) = match self.out.types.kind(aty).clone() {
                    TypeKind::Function { ret, params } => (ret, params),
                    _ => unreachable!("external with non-function type"),
                };
                let i64t = self.out.types.int(64);
                params.insert(0, i64t);
                aty = self.out.types.function(ret, params);
            }
            let name = wrapper_name(&e.name, self.cfg.scheme);
            let id = self.out.declare_external(name, aty);
            self.ext_map.push(id);
        }
    }

    // ----- functions ------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn transform_function(&mut self, fid: FuncId) -> Result<Function, TransformError> {
        let f = self.src.func(fid);
        let fname = f.name.clone();
        let orig_fty = f.ty;
        let aug_fty = self.alg.at(&mut self.out.types, orig_fty);
        let ret_ty = f.ret_ty(&self.src.types);
        let ret_is_ptr = self.src.types.is_pointer(ret_ty);

        let blocks = (0..f.blocks.len().max(1)).map(|_| Block::new()).collect();
        let mut em = Emit::new(blocks, &mut self.scratch);

        // --- parameter registers in augmented order -----------------------
        let mut params: Vec<RegId> = Vec::new();
        let mut rv_slot_param: Option<RegId> = None;
        if ret_is_ptr {
            let slot_ty = match self.cfg.scheme {
                Scheme::Sds => {
                    let sat = self
                        .alg
                        .sat(&mut self.out.types, ret_ty)
                        .expect("pointer sat non-null");
                    self.out.types.pointer(sat)
                }
                Scheme::Mds => {
                    let aret = self.alg.at(&mut self.out.types, ret_ty);
                    if self.nreps > 1 {
                        let arr = self.out.types.array(aret, self.nreps as u64);
                        self.out.types.pointer(arr)
                    } else {
                        self.out.types.pointer(aret)
                    }
                }
            };
            let name = match self.cfg.scheme {
                Scheme::Sds => "rvSop",
                Scheme::Mds => "rvRopPtr",
            };
            let r = em.reg(slot_ty, RegName::Static(name));
            params.push(r);
            rv_slot_param = Some(r);
        }

        // Companion map for all original registers; parameters first so
        // their ids line up with the augmented parameter order.
        let mut comps: Vec<Option<Companions>> = vec![None; f.regs.len()];
        for &p in &f.params {
            let c = self.make_companions(&mut em, f, p, true, &mut params);
            comps[p.0 as usize] = Some(c);
        }
        for (i, slot) in comps.iter_mut().enumerate() {
            if slot.is_none() {
                let c = self.make_companions(&mut em, f, RegId(i as u32), false, &mut params);
                *slot = Some(c);
            }
        }
        let comps: Vec<Companions> = comps.into_iter().map(|c| c.expect("filled")).collect();

        // --- rv slots for call sites returning pointers (hoisted allocas) --
        // Keyed by (block, instruction), pushed in that order: sorted.
        let mut rv_slots: Vec<((u32, u32), RegId)> = Vec::new();
        for (bi, block) in f.blocks.iter().enumerate() {
            for (ii, ins) in block.instrs.iter().enumerate() {
                if let Instr::Call { callee, .. } = ins {
                    let (cret, _) = self.callee_sig(f, callee);
                    if self.src.types.is_pointer(cret) {
                        let (slot_pointee, nm) = match self.cfg.scheme {
                            Scheme::Sds => (
                                self.alg
                                    .sat(&mut self.out.types, cret)
                                    .expect("pointer sat"),
                                "csSop",
                            ),
                            Scheme::Mds => {
                                let aret = self.alg.at(&mut self.out.types, cret);
                                let pointee = if self.nreps > 1 {
                                    self.out.types.array(aret, self.nreps as u64)
                                } else {
                                    aret
                                };
                                (pointee, "csRopSlot")
                            }
                        };
                        let pty = self.out.types.pointer(slot_pointee);
                        let name = RegName::AtInstr(nm, bi as u32, ii as u32);
                        let slot = em.reg(pty, name);
                        em.start(BlockId(0));
                        em.ins(Instr::Alloca {
                            dst: slot,
                            ty: slot_pointee,
                            count: None,
                        });
                        rv_slots.push(((bi as u32, ii as u32), slot));
                    }
                }
            }
        }

        // --- instruction-by-instruction transformation --------------------
        for bi in 0..f.blocks.len() {
            em.start(BlockId(bi as u32));
            // Continue after any prologue emitted into block 0.
            for (ii, ins) in f.blocks[bi].instrs.iter().enumerate() {
                let site: SiteRef = (fid.0, bi as u32, ii as u32);
                self.xform_instr(&mut em, f, &fname, &comps, ins, site, &rv_slots)?;
            }
            let term = &f.blocks[bi].term;
            self.xform_term(&mut em, &comps, term, rv_slot_param, ret_is_ptr);
        }

        let (regs, blocks) = em.finish(&mut self.scratch);
        Ok(Function {
            name: fname,
            ty: aug_fty,
            params,
            regs,
            blocks,
        })
    }

    fn make_companions(
        &mut self,
        em: &mut Emit,
        f: &Function,
        r: RegId,
        is_param: bool,
        params: &mut Vec<RegId>,
    ) -> Companions {
        let ty = f.reg_ty(r);
        let aty = self.alg.at(&mut self.out.types, ty);
        let name = match &f.regs[r.0 as usize].name {
            RegName::Unnamed => RegName::Numbered("v", r.0),
            // Its base is a register of the source function.
            RegName::Companion { .. } => RegName::from(f.reg_name(r).as_str()),
            name => name.clone(),
        };
        let app = em.reg(aty, name);
        if is_param {
            params.push(app);
        }
        if !self.src.types.is_pointer(ty) {
            return Companions {
                app,
                nrops: 0,
                sop: None,
            };
        }
        for k in 0..self.nreps as u32 {
            let role = CompanionRole::Replica(k);
            let rop = em.reg(aty, RegName::Companion { base: app, role });
            if is_param {
                params.push(rop);
            }
        }
        let sop = if self.cfg.scheme == Scheme::Sds {
            let pointee = self.src.types.pointee(ty).expect("pointer");
            let sty = match self.alg.sat(&mut self.out.types, pointee) {
                Some(s) => self.out.types.pointer(s),
                None => self.out.types.void_ptr(),
            };
            let role = CompanionRole::Shadow;
            let s = em.reg(sty, RegName::Companion { base: app, role });
            if is_param {
                params.push(s);
            }
            Some(s)
        } else {
            None
        };
        Companions {
            app,
            nrops: self.nreps as u32,
            sop,
        }
    }

    /// Return and parameter types of a call's callee in the ORIGINAL
    /// module.
    fn callee_sig(&self, f: &Function, callee: &Callee) -> (TypeId, &'a [TypeId]) {
        let src: &'a Module = self.src;
        let fty = match callee {
            Callee::Direct(id) => src.func(*id).ty,
            Callee::External(id) => src.external(*id).ty,
            Callee::Indirect(op) => self.orig_pointee(f, op).expect("function pointer"),
        };
        match src.types.kind(fty) {
            TypeKind::Function { ret, params } => (*ret, params),
            _ => unreachable!("callee not of function type"),
        }
    }

    /// The pointee of an operand's static type in the ORIGINAL module, or
    /// `None` when the operand is not a pointer. It reads the operand
    /// itself (a register's type, a null's pointee, a global's or a
    /// function's type), so a constant needs no type of its width in the
    /// table.
    fn orig_pointee(&self, f: &Function, op: &Operand) -> Option<TypeId> {
        match op {
            Operand::Reg(r) => self.src.types.pointee(f.reg_ty(*r)),
            Operand::Const(Const::Null { pointee }) => Some(*pointee),
            Operand::Const(Const::Int { .. } | Const::Float { .. }) => None,
            Operand::Global(g) => Some(self.src.global(*g).ty),
            Operand::Func(fid) => Some(self.src.func(*fid).ty),
        }
    }

    /// Fails unless `ptr` points to a pointer: the only memory whose
    /// shadow holds a moved pointer's companions under SDS.
    fn check_pointer_slot(
        &self,
        f: &Function,
        fname: &str,
        ptr: &Operand,
    ) -> Result<(), TransformError> {
        match self.orig_pointee(f, ptr) {
            Some(t) if self.src.types.is_pointer(t) => Ok(()),
            _ => Err(TransformError::PointerTypePun {
                func: fname.to_string(),
            }),
        }
    }

    /// Maps an original operand to its companions in the new function.
    fn map_operand(&mut self, comps: &[Companions], op: &Operand) -> Ops {
        match op {
            Operand::Reg(r) => {
                let c = comps[r.0 as usize];
                Ops {
                    app: Operand::Reg(c.app),
                    rops: Rops::Regs(c),
                    sop: c.sop.map(Operand::Reg),
                }
            }
            Operand::Const(Const::Null { pointee }) => {
                let ap = self.alg.at(&mut self.out.types, *pointee);
                let void = self.out.types.void();
                let sop_pointee = self.alg.sat(&mut self.out.types, *pointee).unwrap_or(void);
                Ops {
                    app: Operand::Const(Const::Null { pointee: ap }),
                    rops: Rops::Same(Operand::Const(Const::Null { pointee: ap })),
                    sop: Some(Operand::Const(Const::Null {
                        pointee: sop_pointee,
                    })),
                }
            }
            Operand::Const(c) => Ops {
                app: Operand::Const(*c),
                rops: Rops::App,
                sop: None,
            },
            Operand::Global(g) => {
                let sop = match self.shadow_globals[g.0 as usize] {
                    Some(s) => Operand::Global(s),
                    None => {
                        let void = self.out.types.void();
                        Operand::Const(Const::Null { pointee: void })
                    }
                };
                Ops {
                    app: Operand::Global(*g),
                    rops: Rops::Global {
                        g: *g,
                        n: self.src.globals.len() as u32,
                    },
                    sop: Some(sop),
                }
            }
            Operand::Func(fid) => {
                // Address of a function: every ROP is the same address,
                // NSOP null (Table 2.6 "address of a function").
                let void = self.out.types.void();
                Ops {
                    app: Operand::Func(*fid),
                    rops: Rops::Same(Operand::Func(*fid)),
                    sop: Some(Operand::Const(Const::Null { pointee: void })),
                }
            }
        }
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn xform_instr(
        &mut self,
        em: &mut Emit,
        f: &Function,
        fname: &str,
        comps: &[Companions],
        ins: &Instr,
        site: SiteRef,
        rv_slots: &[((u32, u32), RegId)],
    ) -> Result<(), TransformError> {
        let sds = self.cfg.scheme == Scheme::Sds;
        match ins {
            // ---- allocation (Table 2.7 / 4.4) ----------------------------
            Instr::Alloca { dst, ty, count } => {
                let c = &comps[dst.0 as usize];
                let aty = self.alg.at(&mut self.out.types, *ty);
                let cnt = count.map(|op| self.map_operand(comps, &op).app);
                em.ins(Instr::Alloca {
                    dst: c.app,
                    ty: aty,
                    count: cnt,
                });
                if self.excluded(site) {
                    self.alias_companions(em, c);
                    return Ok(());
                }
                for k in 0..self.nreps {
                    em.ins(Instr::Alloca {
                        dst: c.rop(k),
                        ty: aty,
                        count: cnt,
                    });
                }
                if sds {
                    self.emit_shadow_alloc(em, c, aty, cnt, false);
                }
            }
            Instr::Malloc { dst, elem, count } => {
                let c = &comps[dst.0 as usize];
                let aty = self.alg.at(&mut self.out.types, *elem);
                let cnt = self.map_operand(comps, count).app;
                em.ins(Instr::Malloc {
                    dst: c.app,
                    elem: aty,
                    count: cnt,
                });
                if self.excluded(site) {
                    self.alias_companions(em, c);
                    return Ok(());
                }
                for k in 0..self.nreps {
                    self.emit_replica_malloc(em, c.rop(k), aty, cnt, k);
                }
                if sds {
                    self.emit_shadow_alloc(em, c, aty, Some(cnt), true);
                }
            }
            // ---- heap deallocation (Table 2.6 / 4.3) ----------------------
            Instr::Free { ptr } => {
                let o = self.map_operand(comps, ptr);
                em.ins(Instr::Free { ptr: o.app });
                // Under a DSA-refined plan an excluded object's replicas
                // alias the application object (Ch. 5); freeing one again
                // would double-free, so each replica free is guarded by a
                // runtime aliasing check whenever exclusions are in play.
                for k in 0..self.nreps {
                    let rop = o.rop(k);
                    let free_rop = move |t: &mut Self, em: &mut Emit| {
                        if t.cfg.diversity == Diversity::ZeroBeforeFree {
                            t.emit_zero_before_free(em, rop);
                        }
                        em.ins(Instr::Free { ptr: rop });
                    };
                    if self.cfg.plan.exclude_allocs.is_empty() {
                        free_rop(self, em);
                    } else {
                        let i8t = self.out.types.int(8);
                        let differs = em.reg(i8t, RegName::Unnamed);
                        em.ins(Instr::Cmp {
                            dst: differs,
                            pred: CmpPred::Ne,
                            lhs: rop,
                            rhs: o.app,
                        });
                        self.emit_if(em, Operand::Reg(differs), free_rop);
                    }
                }
                if sds {
                    // if (ps != null) free(ps)
                    let sop = o.sop.expect("sds companion");
                    let i8t = self.out.types.int(8);
                    let cnd = em.reg(i8t, RegName::Unnamed);
                    let void = self.out.types.void();
                    em.ins(Instr::Cmp {
                        dst: cnd,
                        pred: CmpPred::Ne,
                        lhs: sop,
                        rhs: Operand::Const(Const::Null { pointee: void }),
                    });
                    self.emit_if(em, Operand::Reg(cnd), |_, em| {
                        em.ins(Instr::Free { ptr: sop });
                    });
                }
            }
            // ---- store (Table 2.6 / 4.3) ----------------------------------
            Instr::Store { ptr, value } => {
                let p = self.map_operand(comps, ptr);
                let v = self.map_operand(comps, value);
                em.ins(Instr::Store {
                    ptr: p.app,
                    value: v.app,
                });
                let v_is_ptr = self.orig_pointee(f, value).is_some();
                if sds {
                    // Same value to every replica memory (comparable
                    // pointers).
                    for k in 0..self.nreps {
                        em.ins(Instr::Store {
                            ptr: p.rop(k),
                            value: v.app,
                        });
                    }
                    if v_is_ptr {
                        // (ps->rop_k) <- x_rk ; (ps->nsop) <- x_s
                        let psop = p.sop.expect("sds companion");
                        if !matches!(psop, Operand::Reg(_)) {
                            // Shadow of a pointer always exists; a null
                            // const would mean the program stores a
                            // pointer through a shadow-less pointer.
                            return self.store_ptr_via_const_shadow(em, psop, v);
                        }
                        self.check_pointer_slot(f, fname, ptr)?;
                        for k in 0..self.nreps {
                            let fk = self.shadow_field_addr(em, psop, k as u32);
                            em.ins(Instr::Store {
                                ptr: fk,
                                value: v.rop(k),
                            });
                        }
                        let fn_ = self.shadow_field_addr(em, psop, self.nreps as u32);
                        em.ins(Instr::Store {
                            ptr: fn_,
                            value: v.sop.expect("pointer value sop"),
                        });
                    }
                } else {
                    // MDS: replica k stores its own ROP for pointers, the
                    // same value otherwise (Table 4.3).
                    for k in 0..self.nreps {
                        let rep_val = if v_is_ptr { v.rop(k) } else { v.app };
                        em.ins(Instr::Store {
                            ptr: p.rop(k),
                            value: rep_val,
                        });
                    }
                }
            }
            // ---- load (Table 2.6 / 4.3) -----------------------------------
            Instr::Load { dst, ptr } => {
                let p = self.map_operand(comps, ptr);
                let c = &comps[dst.0 as usize];
                em.ins(Instr::Load {
                    dst: c.app,
                    ptr: p.app,
                });
                let dty = f.reg_ty(*dst);
                let d_is_ptr = self.src.types.is_pointer(dty);
                // Load check (policy-gated). SDS checks pointer loads too;
                // MDS never checks pointer loads (they differ by design).
                let checkable = sds || !d_is_ptr;
                if checkable && !self.cfg.plan.uncheck_loads.contains(&site) {
                    self.emit_load_check(em, c.app, p);
                }
                if d_is_ptr {
                    if sds {
                        self.check_pointer_slot(f, fname, ptr)?;
                        let psop = p.sop.expect("sds companion");
                        for k in 0..self.nreps {
                            let fk = self.shadow_field_addr(em, psop, k as u32);
                            em.ins(Instr::Load {
                                dst: c.rop(k),
                                ptr: fk,
                            });
                        }
                        let fn_ = self.shadow_field_addr(em, psop, self.nreps as u32);
                        em.ins(Instr::Load {
                            dst: c.sop.expect("sop"),
                            ptr: fn_,
                        });
                    } else {
                        for k in 0..self.nreps {
                            em.ins(Instr::Load {
                                dst: c.rop(k),
                                ptr: p.rop(k),
                            });
                        }
                    }
                }
            }
            // ---- address of a struct field (Table 2.6 / 4.3) --------------
            Instr::FieldAddr { dst, base, field } => {
                let b = self.map_operand(comps, base);
                let c = &comps[dst.0 as usize];
                em.ins(Instr::FieldAddr {
                    dst: c.app,
                    base: b.app,
                    field: *field,
                });
                for k in 0..self.nreps {
                    em.ins(Instr::FieldAddr {
                        dst: c.rop(k),
                        base: b.rop(k),
                        field: *field,
                    });
                }
                if sds {
                    let pointee = self.orig_pointee(f, base).expect("pointer base");
                    let apointee = self.alg.at(&mut self.out.types, pointee);
                    let phi = self.alg.phi(&mut self.out.types, apointee, *field);
                    match phi {
                        Some(idx) => {
                            em.ins(Instr::FieldAddr {
                                dst: c.sop.expect("sop"),
                                base: b.sop.expect("base sop"),
                                field: idx,
                            });
                        }
                        None => {
                            let void = self.out.types.void();
                            em.ins(Instr::Copy {
                                dst: c.sop.expect("sop"),
                                src: Operand::Const(Const::Null { pointee: void }),
                            });
                        }
                    }
                }
            }
            // ---- address of an array element ------------------------------
            Instr::IndexAddr { dst, base, index } => {
                let b = self.map_operand(comps, base);
                let idx = self.map_operand(comps, index).app;
                let c = &comps[dst.0 as usize];
                em.ins(Instr::IndexAddr {
                    dst: c.app,
                    base: b.app,
                    index: idx,
                });
                for k in 0..self.nreps {
                    em.ins(Instr::IndexAddr {
                        dst: c.rop(k),
                        base: b.rop(k),
                        index: idx,
                    });
                }
                if sds {
                    let pointee = self.orig_pointee(f, base).expect("pointer base");
                    let elem = match self.src.types.kind(pointee) {
                        TypeKind::Array { elem, .. } => *elem,
                        _ => pointee,
                    };
                    let has_shadow = self.alg.sat(&mut self.out.types, elem).is_some();
                    if has_shadow {
                        em.ins(Instr::IndexAddr {
                            dst: c.sop.expect("sop"),
                            base: b.sop.expect("base sop"),
                            index: idx,
                        });
                    } else {
                        let void = self.out.types.void();
                        em.ins(Instr::Copy {
                            dst: c.sop.expect("sop"),
                            src: Operand::Const(Const::Null { pointee: void }),
                        });
                    }
                }
            }
            // ---- casts (Table 2.7 / 4.4) ----------------------------------
            Instr::Cast { dst, op, src } => {
                let s = self.map_operand(comps, src);
                let c = &comps[dst.0 as usize];
                match op {
                    CastOp::Bitcast => {
                        em.ins(Instr::Cast {
                            dst: c.app,
                            op: CastOp::Bitcast,
                            src: s.app,
                        });
                        for k in 0..self.nreps {
                            em.ins(Instr::Cast {
                                dst: c.rop(k),
                                op: CastOp::Bitcast,
                                src: s.rop(k),
                            });
                        }
                        if sds {
                            em.ins(Instr::Cast {
                                dst: c.sop.expect("sop"),
                                op: CastOp::Bitcast,
                                src: s.sop.expect("src sop"),
                            });
                        }
                    }
                    CastOp::IntToPtr => {
                        if !self.cfg.plan.allow_int_to_ptr {
                            return Err(TransformError::IntToPtrCast {
                                func: fname.to_string(),
                            });
                        }
                        // DSA-refined mode: the result aliases application
                        // memory; its replicas are itself, its shadow null.
                        em.ins(Instr::Cast {
                            dst: c.app,
                            op: CastOp::IntToPtr,
                            src: s.app,
                        });
                        for k in 0..self.nreps {
                            em.ins(Instr::Copy {
                                dst: c.rop(k),
                                src: Operand::Reg(c.app),
                            });
                        }
                        if sds {
                            let void = self.out.types.void();
                            em.ins(Instr::Copy {
                                dst: c.sop.expect("sop"),
                                src: Operand::Const(Const::Null { pointee: void }),
                            });
                        }
                    }
                    _ => {
                        // Scalar casts (incl. PtrToInt): application only.
                        em.ins(Instr::Cast {
                            dst: c.app,
                            op: *op,
                            src: s.app,
                        });
                    }
                }
            }
            // ---- arithmetic -----------------------------------------------
            Instr::Bin { dst, op, lhs, rhs } => {
                let l = self.map_operand(comps, lhs);
                let r = self.map_operand(comps, rhs);
                let c = &comps[dst.0 as usize];
                em.ins(Instr::Bin {
                    dst: c.app,
                    op: *op,
                    lhs: l.app,
                    rhs: r.app,
                });
                if self.src.types.is_pointer(f.reg_ty(*dst)) {
                    // Raw pointer arithmetic: forbidden under SDS unless the
                    // DSA plan relaxes it (the result loses its shadow).
                    if sds && !self.cfg.plan.allow_raw_ptr_arith {
                        return Err(TransformError::RawPointerArithmetic {
                            func: fname.to_string(),
                        });
                    }
                    for k in 0..self.nreps {
                        em.ins(Instr::Bin {
                            dst: c.rop(k),
                            op: *op,
                            lhs: l.rop(k),
                            rhs: r.rop(k),
                        });
                    }
                    if sds {
                        let void = self.out.types.void();
                        em.ins(Instr::Copy {
                            dst: c.sop.expect("sop"),
                            src: Operand::Const(Const::Null { pointee: void }),
                        });
                    }
                }
            }
            Instr::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                let l = self.map_operand(comps, lhs).app;
                let r = self.map_operand(comps, rhs).app;
                let c = &comps[dst.0 as usize];
                em.ins(Instr::Cmp {
                    dst: c.app,
                    pred: *pred,
                    lhs: l,
                    rhs: r,
                });
            }
            Instr::Copy { dst, src } => {
                let s = self.map_operand(comps, src);
                let c = &comps[dst.0 as usize];
                em.ins(Instr::Copy {
                    dst: c.app,
                    src: s.app,
                });
                for (k, rop) in c.rops().enumerate() {
                    em.ins(Instr::Copy {
                        dst: rop,
                        src: s.rop(k),
                    });
                }
                if let Some(sop) = c.sop {
                    let void = self.out.types.void();
                    em.ins(Instr::Copy {
                        dst: sop,
                        src: s
                            .sop
                            .unwrap_or(Operand::Const(Const::Null { pointee: void })),
                    });
                }
            }
            // ---- calls (Table 2.7 / 4.4) ----------------------------------
            Instr::Call { dst, callee, args } => {
                self.xform_call(em, f, comps, dst, callee, args, site, rv_slots);
            }
            // ---- passthrough ----------------------------------------------
            Instr::DpmrCheck { a, reps, ptrs } => {
                let a = self.map_operand(comps, a).app;
                let reps = reps
                    .iter()
                    .map(|r| self.map_operand(comps, r).app)
                    .collect();
                let ptrs = ptrs.as_ref().map(|(ap, rps)| {
                    (
                        self.map_operand(comps, ap).app,
                        rps.iter()
                            .map(|rp| self.map_operand(comps, rp).app)
                            .collect(),
                    )
                });
                em.ins(Instr::DpmrCheck { a, reps, ptrs });
            }
            Instr::RandInt {
                dst,
                lo,
                hi,
                stream,
            } => {
                let lo = self.map_operand(comps, lo).app;
                let hi = self.map_operand(comps, hi).app;
                em.ins(Instr::RandInt {
                    dst: comps[dst.0 as usize].app,
                    lo,
                    hi,
                    stream: *stream,
                });
            }
            Instr::HeapBufSize { dst, ptr } => {
                let p = self.map_operand(comps, ptr).app;
                em.ins(Instr::HeapBufSize {
                    dst: comps[dst.0 as usize].app,
                    ptr: p,
                });
            }
            Instr::Output { value } => {
                let v = self.map_operand(comps, value).app;
                em.ins(Instr::Output { value: v });
            }
            Instr::FiMarker { site } => {
                em.ins(Instr::FiMarker { site: *site });
            }
            Instr::Abort { code } => {
                em.ins(Instr::Abort { code: *code });
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn xform_call(
        &mut self,
        em: &mut Emit,
        f: &Function,
        comps: &[Companions],
        dst: &Option<RegId>,
        callee: &Callee,
        args: &[Operand],
        site: SiteRef,
        rv_slots: &[((u32, u32), RegId)],
    ) {
        let sds = self.cfg.scheme == Scheme::Sds;
        let (cret, param_tys) = self.callee_sig(f, callee);
        let ret_is_ptr = self.src.types.is_pointer(cret);

        // At most: sdwSize, the rv slot, and each argument with its ROPs
        // and shadow.
        let mut new_args: Vec<Operand> = Vec::with_capacity(2 + args.len() * (2 + self.nreps));

        // Extra sdwSize parameter for size-carrying externals (SDS).
        if sds {
            if let Callee::External(eid) = callee {
                let src: &'a Module = self.src;
                let ename = src.external(*eid).name.as_str();
                if SIZE_CARRYING_EXTERNALS.contains(&ename) {
                    let sz = self.compute_sdw_size_operand(em, f, comps, ename, args);
                    new_args.push(sz);
                }
            }
        }

        let slot = if ret_is_ptr {
            let at = rv_slots
                .binary_search_by_key(&(site.1, site.2), |&(k, _)| k)
                .expect("rv slot for a pointer-returning call");
            let slot = rv_slots[at].1;
            new_args.push(Operand::Reg(slot));
            Some(slot)
        } else {
            None
        };

        for (i, a) in args.iter().enumerate() {
            let o = self.map_operand(comps, a);
            new_args.push(o.app);
            let pt = param_tys.get(i).copied();
            let is_ptr_param = pt.map(|t| self.src.types.is_pointer(t)).unwrap_or(false);
            if is_ptr_param {
                for k in 0..self.nreps {
                    new_args.push(o.rop(k));
                }
                if sds {
                    let void = self.out.types.void();
                    new_args.push(
                        o.sop
                            .unwrap_or(Operand::Const(Const::Null { pointee: void })),
                    );
                }
            }
        }

        let new_callee = match callee {
            Callee::Direct(fid) => Callee::Direct(*fid),
            Callee::Indirect(op) => Callee::Indirect(self.map_operand(comps, op).app),
            Callee::External(eid) => Callee::External(self.ext_map[eid.0 as usize]),
        };

        let c = dst.map(|d| &comps[d.0 as usize]);
        em.ins(Instr::Call {
            dst: c.map(|c| c.app),
            callee: new_callee,
            args: new_args,
        });

        if ret_is_ptr {
            if let Some(c) = c {
                let slot = Operand::Reg(slot.expect("slot for ptr return"));
                if sds {
                    for k in 0..self.nreps {
                        let fk = self.shadow_field_addr(em, slot, k as u32);
                        em.ins(Instr::Load {
                            dst: c.rop(k),
                            ptr: fk,
                        });
                    }
                    let fn_ = self.shadow_field_addr(em, slot, self.nreps as u32);
                    em.ins(Instr::Load {
                        dst: c.sop.expect("sop"),
                        ptr: fn_,
                    });
                } else if self.nreps == 1 {
                    em.ins(Instr::Load {
                        dst: c.rop(0),
                        ptr: slot,
                    });
                } else {
                    // The MDS slot is an array of K ROPs.
                    for (k, rop) in c.rops().enumerate() {
                        let ek = self.mds_slot_elem_addr(em, slot, k);
                        em.ins(Instr::Load { dst: rop, ptr: ek });
                    }
                }
            }
        }
    }

    /// Emits `&slot[k]` for an MDS multi-replica return-value slot
    /// (`at(r)[K]*`), yielding an `at(r)*` element address.
    fn mds_slot_elem_addr(&mut self, em: &mut Emit, slot: Operand, k: usize) -> Operand {
        let sty = match slot {
            Operand::Reg(r) => em.reg_ty(r),
            _ => unreachable!("MDS rv slot is a register"),
        };
        let arr = self.out.types.pointee(sty).expect("slot pointer");
        let elem = match self.out.types.kind(arr) {
            TypeKind::Array { elem, .. } => *elem,
            _ => unreachable!("MDS multi-replica slot points at an array"),
        };
        let pe = self.out.types.pointer(elem);
        let dst = em.reg(pe, RegName::Unnamed);
        em.ins(Instr::IndexAddr {
            dst,
            base: slot,
            index: Operand::Const(Const::i64(k as i64)),
        });
        Operand::Reg(dst)
    }

    /// Computes the sdwSize operand for qsort/memcpy/memmove (Sec. 3.1.5):
    /// qsort passes the shadow size of one element; memcpy/memmove pass the
    /// total shadow bytes for the copied range.
    fn compute_sdw_size_operand(
        &mut self,
        em: &mut Emit,
        f: &Function,
        comps: &[Companions],
        ename: &str,
        args: &[Operand],
    ) -> Operand {
        // The element type of the memory an argument points to; `None`
        // for a non-pointer argument, whose shadow size is 0.
        let elem_of = |me: &Self, op: &Operand| -> Option<TypeId> {
            // "The real type of the memory passed" (Sec. 3.1.5): the
            // argument is usually a void* produced by a bitcast, so trace
            // single-definition bitcast/copy chains back to a typed
            // pointer before reading the element type.
            let traced = me.trace_typed_pointer(f, op, 8);
            let pointee = me.orig_pointee(f, &traced)?;
            Some(match me.src.types.kind(pointee) {
                TypeKind::Array { elem, .. } => *elem,
                _ => pointee,
            })
        };
        let i64t = self.out.types.int(64);
        let Some(elem) = elem_of(self, &args[0]) else {
            return Operand::Const(Const::i64(0));
        };
        match ename {
            "qsort" => {
                let aelem = self.alg.at(&mut self.out.types, elem);
                let ssz = self
                    .alg
                    .sat(&mut self.out.types, aelem)
                    .map(|s| self.out.types.size_of(s).unwrap_or(0))
                    .unwrap_or(0);
                Operand::Const(Const::i64(ssz as i64))
            }
            _ => {
                // memcpy/memmove: sdwBytes = n / sizeof(elem) * sizeof(sat).
                let aelem = self.alg.at(&mut self.out.types, elem);
                let esz = self.out.types.size_of(aelem).unwrap_or(1).max(1);
                let ssz = self
                    .alg
                    .sat(&mut self.out.types, aelem)
                    .map(|s| self.out.types.size_of(s).unwrap_or(0))
                    .unwrap_or(0);
                if ssz == 0 {
                    return Operand::Const(Const::i64(0));
                }
                let n = self.map_operand(comps, &args[2]).app;
                let q = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: q,
                    op: BinOp::SDiv,
                    lhs: n,
                    rhs: Operand::Const(Const::i64(esz as i64)),
                });
                let m = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: m,
                    op: BinOp::Mul,
                    lhs: Operand::Reg(q),
                    rhs: Operand::Const(Const::i64(ssz as i64)),
                });
                Operand::Reg(m)
            }
        }
    }

    /// Traces an operand back through single-definition bitcasts/copies to
    /// the most precisely typed pointer available (bounded depth). Used to
    /// recover element types erased by `void*` casts at size-carrying
    /// external call sites.
    fn trace_typed_pointer(&self, f: &Function, op: &Operand, depth: u32) -> Operand {
        if depth == 0 {
            return *op;
        }
        let Operand::Reg(r) = op else {
            return *op;
        };
        // The current static type is already informative?
        let t = f.reg_ty(*r);
        if let Some(p) = self.src.types.pointee(t) {
            if !matches!(self.src.types.kind(p), TypeKind::Void) {
                return *op;
            }
        }
        // Find the register's definitions among casts/copies.
        let mut defs = Vec::new();
        for b in &f.blocks {
            for i in &b.instrs {
                match i {
                    Instr::Cast {
                        dst,
                        op: CastOp::Bitcast,
                        src,
                    } if dst == r => defs.push(*src),
                    Instr::Copy { dst, src } if dst == r => defs.push(*src),
                    other => {
                        if other.dst() == Some(*r) {
                            // Defined by something we cannot see through.
                            return *op;
                        }
                    }
                }
            }
        }
        match defs.as_slice() {
            [single] => self.trace_typed_pointer(f, single, depth - 1),
            _ => *op,
        }
    }

    fn xform_term(
        &mut self,
        em: &mut Emit,
        comps: &[Companions],
        term: &Term,
        rv_slot: Option<RegId>,
        ret_is_ptr: bool,
    ) {
        match term {
            Term::Br(t) => em.term(Term::Br(*t)),
            Term::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.map_operand(comps, cond).app;
                em.term(Term::CondBr {
                    cond: c,
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                });
            }
            Term::Ret(v) => {
                if ret_is_ptr {
                    let v = v.as_ref().expect("pointer return has a value");
                    let o = self.map_operand(comps, v);
                    let slot = Operand::Reg(rv_slot.expect("rv slot param"));
                    if self.cfg.scheme == Scheme::Sds {
                        for k in 0..self.nreps {
                            let fk = self.shadow_field_addr(em, slot, k as u32);
                            em.ins(Instr::Store {
                                ptr: fk,
                                value: o.rop(k),
                            });
                        }
                        let fn_ = self.shadow_field_addr(em, slot, self.nreps as u32);
                        em.ins(Instr::Store {
                            ptr: fn_,
                            value: o.sop.expect("ret sop"),
                        });
                    } else if self.nreps == 1 {
                        em.ins(Instr::Store {
                            ptr: slot,
                            value: o.rop(0),
                        });
                    } else {
                        for k in 0..self.nreps {
                            let ek = self.mds_slot_elem_addr(em, slot, k);
                            em.ins(Instr::Store {
                                ptr: ek,
                                value: o.rop(k),
                            });
                        }
                    }
                    em.term(Term::Ret(Some(o.app)));
                } else {
                    let v = v.as_ref().map(|v| self.map_operand(comps, v).app);
                    em.term(Term::Ret(v));
                }
            }
            Term::Unreachable => em.term(Term::Unreachable),
        }
    }

    // ----- helpers -------------------------------------------------------

    fn excluded(&self, site: SiteRef) -> bool {
        self.cfg.plan.exclude_allocs.contains(&site)
    }

    /// For an excluded allocation: every replica aliases the app object;
    /// shadow null (Ch. 5 refinement).
    fn alias_companions(&mut self, em: &mut Emit, c: &Companions) {
        for rop in c.rops() {
            em.ins(Instr::Copy {
                dst: rop,
                src: Operand::Reg(c.app),
            });
        }
        if let Some(sop) = c.sop {
            let void = self.out.types.void();
            em.ins(Instr::Copy {
                dst: sop,
                src: Operand::Const(Const::Null { pointee: void }),
            });
        }
    }

    /// Emits the shadow allocation for an allocation of `aty` (the
    /// augmented element type), or a null copy when no shadow is needed.
    fn emit_shadow_alloc(
        &mut self,
        em: &mut Emit,
        c: &Companions,
        aty: TypeId,
        count: Option<Operand>,
        heap: bool,
    ) {
        let sop = c.sop.expect("sds companion");
        match self.alg.sat(&mut self.out.types, aty) {
            Some(sty) => {
                if heap {
                    em.ins(Instr::Malloc {
                        dst: sop,
                        elem: sty,
                        count: count.unwrap_or(Operand::Const(Const::i64(1))),
                    });
                } else {
                    em.ins(Instr::Alloca {
                        dst: sop,
                        ty: sty,
                        count,
                    });
                }
            }
            None => {
                let void = self.out.types.void();
                em.ins(Instr::Copy {
                    dst: sop,
                    src: Operand::Const(Const::Null { pointee: void }),
                });
            }
        }
    }

    /// Emits replica `k`'s heap allocation under the configured diversity
    /// transformation (Table 2.8). Replica 0 reproduces the single-replica
    /// emission bit-for-bit; replicas above 0 decorrelate their diversity
    /// decisions — pad-malloc amounts jitter per site from the replica's
    /// `(seed, k)` transform-time stream, and rearrange-heap decoy counts
    /// draw from the replica's independent runtime stream (`randint.sk`).
    fn emit_replica_malloc(
        &mut self,
        em: &mut Emit,
        rop: RegId,
        aty: TypeId,
        count: Operand,
        k: usize,
    ) {
        match self.cfg.diversity {
            Diversity::None | Diversity::ZeroBeforeFree => {
                em.ins(Instr::Malloc {
                    dst: rop,
                    elem: aty,
                    count,
                });
            }
            Diversity::PadMalloc(y) => {
                // xr <- (at(τ)*) malloc(int8[sizeof(at(τ))*count + y_k]),
                // where y_0 = y and y_k (k > 0) adds per-site jitter drawn
                // from replica k's stream so replica layouts shear apart.
                let pad = if k == 0 {
                    y
                } else {
                    y + self.pad_rngs[k - 1].gen_range(1..=y.max(8))
                };
                let i64t = self.out.types.int(64);
                let i8t = self.out.types.int(8);
                let esz = self.out.types.size_of(aty).unwrap_or(1);
                let bytes = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: bytes,
                    op: BinOp::Mul,
                    lhs: count,
                    rhs: Operand::Const(Const::i64(esz as i64)),
                });
                let padded = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: padded,
                    op: BinOp::Add,
                    lhs: Operand::Reg(bytes),
                    rhs: Operand::Const(Const::i64(pad as i64)),
                });
                let i8p = self.out.types.pointer(i8t);
                let raw = em.reg(i8p, RegName::Unnamed);
                em.ins(Instr::Malloc {
                    dst: raw,
                    elem: i8t,
                    count: Operand::Reg(padded),
                });
                em.ins(Instr::Cast {
                    dst: rop,
                    op: CastOp::Bitcast,
                    src: Operand::Reg(raw),
                });
            }
            Diversity::RearrangeHeap => {
                // tmp1 <- randint(1,20); allocate tmp1 decoys into B;
                // xr <- malloc(at(τ), count); free the decoys.
                let i64t = self.out.types.int(64);
                let buf = self.rearrange_buf.expect("rearrange buffer global");
                let n = em.reg(i64t, RegName::Static("rh.n"));
                em.ins(Instr::RandInt {
                    dst: n,
                    lo: Operand::Const(Const::i64(1)),
                    hi: Operand::Const(Const::i64(20)),
                    // Replica k draws from its own runtime stream so the
                    // decoy counts — hence placements — of distinct
                    // replicas decorrelate (stream 0 is the legacy draw).
                    stream: k as u32,
                });
                let i = em.reg(i64t, RegName::Static("rh.i"));
                let vp = self.out.types.void_ptr();
                // Allocation loop.
                self.emit_loop(em, i, Operand::Reg(n), |t, em| {
                    let decoy = em.reg(t.out.types.pointer(aty), RegName::Unnamed);
                    em.ins(Instr::Malloc {
                        dst: decoy,
                        elem: aty,
                        count,
                    });
                    let decoy_v = em.reg(vp, RegName::Unnamed);
                    em.ins(Instr::Cast {
                        dst: decoy_v,
                        op: CastOp::Bitcast,
                        src: Operand::Reg(decoy),
                    });
                    let slot = em.reg(t.out.types.pointer(vp), RegName::Unnamed);
                    em.ins(Instr::IndexAddr {
                        dst: slot,
                        base: Operand::Global(buf),
                        index: Operand::Reg(i),
                    });
                    em.ins(Instr::Store {
                        ptr: Operand::Reg(slot),
                        value: Operand::Reg(decoy_v),
                    });
                });
                // The replica allocation itself.
                em.ins(Instr::Malloc {
                    dst: rop,
                    elem: aty,
                    count,
                });
                // Free loop.
                self.emit_loop(em, i, Operand::Reg(n), |t, em| {
                    let slot = em.reg(t.out.types.pointer(vp), RegName::Unnamed);
                    em.ins(Instr::IndexAddr {
                        dst: slot,
                        base: Operand::Global(buf),
                        index: Operand::Reg(i),
                    });
                    let d = em.reg(vp, RegName::Unnamed);
                    em.ins(Instr::Load {
                        dst: d,
                        ptr: Operand::Reg(slot),
                    });
                    em.ins(Instr::Free {
                        ptr: Operand::Reg(d),
                    });
                });
            }
        }
    }

    /// Emits the zero-before-free loop over the replica buffer
    /// (Table 2.8).
    fn emit_zero_before_free(&mut self, em: &mut Emit, rop: Operand) {
        let i64t = self.out.types.int(64);
        let i8t = self.out.types.int(8);
        let size = em.reg(i64t, RegName::Static("zbf.size"));
        em.ins(Instr::HeapBufSize {
            dst: size,
            ptr: rop,
        });
        let arr = self.out.types.unsized_array(i8t);
        let arrp = self.out.types.pointer(arr);
        let bytes = em.reg(arrp, RegName::Unnamed);
        em.ins(Instr::Cast {
            dst: bytes,
            op: CastOp::Bitcast,
            src: rop,
        });
        let i = em.reg(i64t, RegName::Static("zbf.i"));
        self.emit_loop(em, i, Operand::Reg(size), |t, em| {
            let slot = em.reg(t.out.types.pointer(i8t), RegName::Unnamed);
            em.ins(Instr::IndexAddr {
                dst: slot,
                base: Operand::Reg(bytes),
                index: Operand::Reg(i),
            });
            em.ins(Instr::Store {
                ptr: Operand::Reg(slot),
                value: Operand::Const(Const::i8(0)),
            });
        });
    }

    /// Emits the counted loop `for (i = 0; i < end; i++) body` on the
    /// caller's counter `i`, leaving emission in the loop's exit block.
    fn emit_loop(
        &mut self,
        em: &mut Emit,
        i: RegId,
        end: Operand,
        body: impl FnOnce(&mut Self, &mut Emit),
    ) {
        em.ins(Instr::Copy {
            dst: i,
            src: Operand::Const(Const::i64(0)),
        });
        let head = em.new_block();
        let body_bb = em.new_block();
        let exit = em.new_block();
        em.term(Term::Br(head));
        em.start(head);
        let c = em.reg(self.out.types.int(8), RegName::Unnamed);
        em.ins(Instr::Cmp {
            dst: c,
            pred: CmpPred::Slt,
            lhs: Operand::Reg(i),
            rhs: end,
        });
        em.term(Term::CondBr {
            cond: Operand::Reg(c),
            then_bb: body_bb,
            else_bb: exit,
        });
        em.start(body_bb);
        body(self, em);
        let next = em.reg(self.out.types.int(64), RegName::Unnamed);
        em.ins(Instr::Bin {
            dst: next,
            op: BinOp::Add,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(Const::i64(1)),
        });
        em.ins(Instr::Copy {
            dst: i,
            src: Operand::Reg(next),
        });
        em.term(Term::Br(head));
        em.start(exit);
    }

    /// Emits `if (cond) then`, leaving emission in the join block.
    fn emit_if(&mut self, em: &mut Emit, cond: Operand, then: impl FnOnce(&mut Self, &mut Emit)) {
        let then_bb = em.new_block();
        let join = em.new_block();
        em.term(Term::CondBr {
            cond,
            then_bb,
            else_bb: join,
        });
        em.start(then_bb);
        then(self, em);
        em.term(Term::Br(join));
        em.start(join);
    }

    /// Emits the policy-gated load check: one replica load per replica +
    /// a K+1-way comparison (the `assert(x == *pr)` of Table 2.6 under
    /// the configured policy, generalized over the replication degree).
    /// `ptr` is the mapped pointer operand the application value was
    /// loaded through.
    fn emit_load_check(&mut self, em: &mut Emit, app: RegId, ptr: Ops) {
        self.load_site_counter += 1;
        match self.cfg.policy {
            Policy::AllLoads => {
                self.emit_check_now(em, app, ptr);
            }
            Policy::Static { percent } => {
                if self.rng.gen_range(0u32..100) < u32::from(percent) {
                    self.emit_check_now(em, app, ptr);
                }
            }
            Policy::StaticPeriodic { period } => {
                if self
                    .load_site_counter
                    .is_multiple_of(u64::from(period.max(1)))
                {
                    self.emit_check_now(em, app, ptr);
                }
            }
            Policy::Temporal { mask } => {
                // Table 2.9: bit = (mask << (64 - c - 1)) >> 63.
                let i64t = self.out.types.int(64);
                let i8t = self.out.types.int(8);
                let counter = self.mask_counter.expect("mask counter global");
                let c = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Load {
                    dst: c,
                    ptr: Operand::Global(counter),
                });
                let t1 = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: t1,
                    op: BinOp::Sub,
                    lhs: Operand::Const(Const::i64(63)),
                    rhs: Operand::Reg(c),
                });
                let t2 = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: t2,
                    op: BinOp::Shl,
                    lhs: Operand::Const(Const::i64(mask as i64)),
                    rhs: Operand::Reg(t1),
                });
                let bit = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: bit,
                    op: BinOp::LShr,
                    lhs: Operand::Reg(t2),
                    rhs: Operand::Const(Const::i64(63)),
                });
                let cnd = em.reg(i8t, RegName::Unnamed);
                em.ins(Instr::Cmp {
                    dst: cnd,
                    pred: CmpPred::Ne,
                    lhs: Operand::Reg(bit),
                    rhs: Operand::Const(Const::i64(0)),
                });
                self.emit_if(em, Operand::Reg(cnd), |t, em| {
                    t.emit_check_now(em, app, ptr);
                });
                // maskCounter <- (maskCounter + 1) % 64 (always).
                let c1 = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: c1,
                    op: BinOp::Add,
                    lhs: Operand::Reg(c),
                    rhs: Operand::Const(Const::i64(1)),
                });
                let c2 = em.reg(i64t, RegName::Unnamed);
                em.ins(Instr::Bin {
                    dst: c2,
                    op: BinOp::SRem,
                    lhs: Operand::Reg(c1),
                    rhs: Operand::Const(Const::i64(64)),
                });
                em.ins(Instr::Store {
                    ptr: Operand::Global(counter),
                    value: Operand::Reg(c2),
                });
            }
        }
    }

    fn emit_check_now(&mut self, em: &mut Emit, app: RegId, ptr: Ops) {
        let ty = em.reg_ty(app);
        let mut reps = Vec::with_capacity(self.nreps);
        let mut rop_ptrs = Vec::with_capacity(self.nreps);
        for k in 0..self.nreps {
            let rp = ptr.rop(k);
            let rep = em.reg(ty, RegName::Unnamed);
            em.ins(Instr::Load { dst: rep, ptr: rp });
            reps.push(Operand::Reg(rep));
            rop_ptrs.push(rp);
        }
        // The check names every source location so a recovery trap handler
        // can repair the divergent application memory from a replica — or,
        // with K >= 2, arbitrate by majority vote and repair whichever
        // copy (application or replica) is the outvoted one.
        em.ins(Instr::DpmrCheck {
            a: Operand::Reg(app),
            reps,
            ptrs: Some((ptr.app, rop_ptrs)),
        });
    }

    /// Emits `&(shadow->field)` where `shadow` points to a two-field
    /// shadow struct `{rop, nsop}`.
    fn shadow_field_addr(&mut self, em: &mut Emit, shadow: Operand, field: u32) -> Operand {
        let sty = match shadow {
            Operand::Reg(r) => em.reg_ty(r),
            Operand::Const(Const::Null { pointee }) => self.out.types.pointer(pointee),
            _ => unreachable!("shadow operand shape"),
        };
        let pointee = self.out.types.pointee(sty).expect("shadow pointer");
        let fty = match self.out.types.kind(pointee) {
            TypeKind::Struct { fields: ms, .. } | TypeKind::Union { members: ms, .. } => {
                ms[field as usize]
            }
            other => panic!("shadow pointer to non-aggregate {other:?}"),
        };
        let pfty = self.out.types.pointer(fty);
        let dst = em.reg(pfty, RegName::Unnamed);
        em.ins(Instr::FieldAddr {
            dst,
            base: shadow,
            field,
        });
        Operand::Reg(dst)
    }

    fn store_ptr_via_const_shadow(
        &mut self,
        _em: &mut Emit,
        _psop: Operand,
        _v: Ops,
    ) -> Result<(), TransformError> {
        // Storing a pointer through a pointer whose shadow is a null
        // constant would violate the SDS store restriction (Sec. 2.9).
        Err(TransformError::RawPointerArithmetic {
            func: "<store through shadow-less pointer>".into(),
        })
    }

    // ----- main handling (Sec. 3.1.1) -------------------------------------

    #[allow(clippy::too_many_lines)]
    fn build_main_wrapper(&mut self, entry: FuncId) -> Result<FuncId, TransformError> {
        let orig_name = self.src.func(entry).name.clone();
        let orig_ty = self.src.func(entry).ty;
        // Rename the transformed entry: main -> mainAug.
        self.out.func_mut(entry).name = format!("{orig_name}{MAIN_AUG_SUFFIX}");

        let (ret, param_tys) = match self.src.types.kind(orig_ty) {
            TypeKind::Function { ret, params } => (*ret, params.clone()),
            _ => unreachable!("entry with non-function type"),
        };
        if self.src.types.is_pointer(ret) {
            return Err(TransformError::UnsupportedEntrySignature { func: orig_name });
        }

        // Detect the argv pattern: (int argc, i8[]*[]* argv).
        let argv_shape = param_tys.len() == 2
            && self.src.types.is_int(param_tys[0])
            && self.is_argv_type(param_tys[1]);
        let all_scalar_nonptr = param_tys
            .iter()
            .all(|&t| self.src.types.is_int(t) || self.src.types.is_float(t));
        if !all_scalar_nonptr && !argv_shape {
            return Err(TransformError::UnsupportedEntrySignature { func: orig_name });
        }

        let mut em = Emit::new(vec![Block::new()], &mut self.scratch);
        let mut params = Vec::new();
        for (i, &t) in param_tys.iter().enumerate() {
            let at = self.alg.at(&mut self.out.types, t);
            let r = em.reg(at, RegName::Numbered("a", i as u32));
            params.push(r);
        }

        let mut call_args: Vec<Operand> = Vec::new();
        if argv_shape {
            let argc = params[0];
            let argv = params[1];
            let (argv_rs, argv_s) = self.emit_argv_replication(&mut em, argc, argv);
            call_args.push(Operand::Reg(argc));
            call_args.push(Operand::Reg(argv));
            for argv_r in argv_rs {
                call_args.push(Operand::Reg(argv_r));
            }
            if self.cfg.scheme == Scheme::Sds {
                call_args.push(Operand::Reg(argv_s.expect("sds argv shadow")));
            }
        } else {
            for &p in &params {
                call_args.push(Operand::Reg(p));
            }
        }

        let aret = self.alg.at(&mut self.out.types, ret);
        let ret_void = matches!(self.out.types.kind(aret), TypeKind::Void);
        let dst = if ret_void {
            None
        } else {
            Some(em.reg(aret, RegName::Static("rv")))
        };
        em.ins(Instr::Call {
            dst,
            callee: Callee::Direct(entry),
            args: call_args,
        });
        em.term(Term::Ret(dst.map(Operand::Reg)));

        let mapped_params = param_tys_map(&mut self.alg, &mut self.out.types, &param_tys);
        let fty = self.out.types.function(aret, mapped_params);
        let (regs, blocks) = em.finish(&mut self.scratch);
        let id = self.out.add_function(Function {
            name: orig_name,
            ty: fty,
            params,
            regs,
            blocks,
        });
        Ok(id)
    }

    /// True for `i8[]*[]*`-shaped types (pointer to array of pointers to
    /// i8 arrays) — the supported argv shape.
    fn is_argv_type(&self, t: TypeId) -> bool {
        let Some(arr) = self.src.types.pointee(t) else {
            return false;
        };
        let TypeKind::Array { elem, .. } = self.src.types.kind(arr) else {
            return false;
        };
        let Some(inner_arr) = self.src.types.pointee(*elem) else {
            return false;
        };
        matches!(
            self.src.types.kind(inner_arr),
            TypeKind::Array { elem, .. } if matches!(self.src.types.kind(*elem), TypeKind::Int { bits: 8 })
        )
    }

    /// Emits the Fig. 3.1 argv replication: one replica argv array per
    /// replica and (under SDS) a shadow array whose ROP fields point at
    /// per-replica heap copies of each argument string.
    fn emit_argv_replication(
        &mut self,
        em: &mut Emit,
        argc: RegId,
        argv: RegId,
    ) -> (Vec<RegId>, Option<RegId>) {
        let sds = self.cfg.scheme == Scheme::Sds;
        let i64t = self.out.types.int(64);
        let i8t = self.out.types.int(8);
        let str_arr = self.out.types.unsized_array(i8t);
        let strp = self.out.types.pointer(str_arr); // i8[]*
        let argv_arr = self.out.types.unsized_array(strp);
        let argv_ty = self.out.types.pointer(argv_arr); // i8[]*[]*

        // Replica argv storage: one heap array of argc pointers per
        // replica.
        let mut argv_rs = Vec::with_capacity(self.nreps);
        for k in 0..self.nreps {
            let raw_r = em.reg(self.out.types.pointer(strp), RegName::Unnamed);
            em.ins(Instr::Malloc {
                dst: raw_r,
                elem: strp,
                count: Operand::Reg(argc),
            });
            let name = if k == 0 {
                RegName::Static("argv_r")
            } else {
                RegName::Numbered("argv_r", k as u32 + 1)
            };
            let argv_r = em.reg(argv_ty, name);
            em.ins(Instr::Cast {
                dst: argv_r,
                op: CastOp::Bitcast,
                src: Operand::Reg(raw_r),
            });
            argv_rs.push(argv_r);
        }

        // Shadow argv storage (SDS): array of {rop, nsop} pairs.
        let sat_elem = self.alg.sat(&mut self.out.types, strp);
        let argv_s = if sds {
            let se = sat_elem.expect("pointer sat");
            let sarr = self.out.types.unsized_array(se);
            let sarrp = self.out.types.pointer(sarr);
            let raw_s = em.reg(self.out.types.pointer(se), RegName::Unnamed);
            em.ins(Instr::Malloc {
                dst: raw_s,
                elem: se,
                count: Operand::Reg(argc),
            });
            let argv_s = em.reg(sarrp, RegName::Static("argv_s"));
            em.ins(Instr::Cast {
                dst: argv_s,
                op: CastOp::Bitcast,
                src: Operand::Reg(raw_s),
            });
            Some(argv_s)
        } else {
            None
        };

        // Per-argument loop.
        let strlen_ty = self.out.types.function(i64t, vec![strp]);
        let strlen = self.out.declare_external("strlen", strlen_ty);
        let strcpy_ty = self.out.types.function(strp, vec![strp, strp]);
        let strcpy = self.out.declare_external("strcpy", strcpy_ty);

        let i = em.reg(i64t, RegName::Static("ar.i"));
        self.emit_loop(em, i, Operand::Reg(argc), |t, em| {
            // ai = argv[i]
            let slot = em.reg(t.out.types.pointer(strp), RegName::Unnamed);
            em.ins(Instr::IndexAddr {
                dst: slot,
                base: Operand::Reg(argv),
                index: Operand::Reg(i),
            });
            let ai = em.reg(strp, RegName::Unnamed);
            em.ins(Instr::Load {
                dst: ai,
                ptr: Operand::Reg(slot),
            });
            // Replica strings on the heap: one copy per replica.
            let len = em.reg(i64t, RegName::Unnamed);
            em.ins(Instr::Call {
                dst: Some(len),
                callee: Callee::External(strlen),
                args: vec![Operand::Reg(ai)],
            });
            let len1 = em.reg(i64t, RegName::Unnamed);
            em.ins(Instr::Bin {
                dst: len1,
                op: BinOp::Add,
                lhs: Operand::Reg(len),
                rhs: Operand::Const(Const::i64(1)),
            });
            let mut bufs = Vec::with_capacity(t.nreps);
            for _ in 0..t.nreps {
                let buf_raw = em.reg(t.out.types.pointer(i8t), RegName::Unnamed);
                em.ins(Instr::Malloc {
                    dst: buf_raw,
                    elem: i8t,
                    count: Operand::Reg(len1),
                });
                let buf = em.reg(strp, RegName::Unnamed);
                em.ins(Instr::Cast {
                    dst: buf,
                    op: CastOp::Bitcast,
                    src: Operand::Reg(buf_raw),
                });
                em.ins(Instr::Call {
                    dst: None,
                    callee: Callee::External(strcpy),
                    args: vec![Operand::Reg(buf), Operand::Reg(ai)],
                });
                bufs.push(buf);
            }
            // argv_r_k[i]: SDS stores the identical pointer (comparable); MDS
            // stores replica k's string pointer (its ROP).
            for k in 0..t.nreps {
                let rslot = em.reg(t.out.types.pointer(strp), RegName::Unnamed);
                em.ins(Instr::IndexAddr {
                    dst: rslot,
                    base: Operand::Reg(argv_rs[k]),
                    index: Operand::Reg(i),
                });
                let stored = if sds { ai } else { bufs[k] };
                em.ins(Instr::Store {
                    ptr: Operand::Reg(rslot),
                    value: Operand::Reg(stored),
                });
            }
            if let Some(argv_s) = argv_s {
                let sslot = em.reg(
                    t.out.types.pointer(sat_elem.expect("sat")),
                    RegName::Unnamed,
                );
                em.ins(Instr::IndexAddr {
                    dst: sslot,
                    base: Operand::Reg(argv_s),
                    index: Operand::Reg(i),
                });
                for (k, &buf) in bufs.iter().enumerate() {
                    let fk = t.shadow_field_addr(em, Operand::Reg(sslot), k as u32);
                    em.ins(Instr::Store {
                        ptr: fk,
                        value: Operand::Reg(buf),
                    });
                }
                let fn_ = t.shadow_field_addr(em, Operand::Reg(sslot), t.nreps as u32);
                let void = t.out.types.void();
                em.ins(Instr::Store {
                    ptr: fn_,
                    value: Operand::Const(Const::Null { pointee: void }),
                });
            }
        });
        (argv_rs, argv_s)
    }
}

fn param_tys_map(
    alg: &mut TypeAlgebra,
    tt: &mut dpmr_ir::types::TypeTable,
    param_tys: &[TypeId],
) -> Vec<TypeId> {
    param_tys.iter().map(|&t| alg.at(tt, t)).collect()
}
