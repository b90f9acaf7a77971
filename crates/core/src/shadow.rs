//! The DPMR type algebra: shadow types `st()`, augmented types `at()`, and
//! the composed `(st ∘ at)()`.
//!
//! Implements Tables 2.1 (shadow types), 2.3 (SDS augmented types), 2.5
//! (composed types), and 4.1 (MDS augmented types), with the
//! placeholder-resolution strategy of Figures 2.5–2.8 realised through the
//! type table's opaque nominal structs: when a recursive type is
//! encountered, the result struct is created opaque, registered as
//! in-progress, and its body is filled in once the recursive computation
//! finishes.
//!
//! The derived-type *null-dropping* rule from the paper applies throughout:
//! if an element of a derived type has a null shadow type it drops out of
//! the derived shadow type, and a derived type whose elements are all null
//! is itself null (`None` here).

use dpmr_ir::types::{TypeId, TypeKind, TypeTable};

/// Which pointer-handling design is in force (Sec. 2.2 vs Ch. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Shadow Data Structures: comparable pointers + shadow objects
    /// carrying ROP/NSOP pairs.
    Sds,
    /// Mirrored Data Structures: replica memory mirrors application layout
    /// and stores ROPs directly; no shadow objects.
    Mds,
}

/// A map keyed by [`TypeId`], stored densely: the ids of a table are
/// consecutive indices, so a vector indexed by id replaces hashing.
struct DenseMap<V>(Vec<Option<V>>);

impl<V: Copy> DenseMap<V> {
    fn new() -> Self {
        DenseMap(Vec::new())
    }

    fn get(&self, t: TypeId) -> Option<V> {
        self.0.get(t.index()).copied().flatten()
    }

    /// Sets `t`'s entry, returning the one it replaces.
    fn insert(&mut self, t: TypeId, v: V) -> Option<V> {
        if t.index() >= self.0.len() {
            self.0.resize(t.index() + 1, None);
        }
        self.0[t.index()].replace(v)
    }

    fn remove(&mut self, t: TypeId) {
        if let Some(slot) = self.0.get_mut(t.index()) {
            *slot = None;
        }
    }

    fn len(&self) -> usize {
        self.0.iter().filter(|v| v.is_some()).count()
    }
}

/// Computes and memoizes `st`, `at`, and `st ∘ at` over one [`TypeTable`].
///
/// The algebra is parameterized by the replication degree K
/// ([`TypeAlgebra::with_replicas`]): a pointer's shadow struct carries one
/// ROP field *per replica* followed by the NSOP (`{rop_0..rop_{K-1},
/// nsop}`), and augmented function types gain K ROP parameters per
/// pointer parameter. K = 1 reproduces the paper's tables exactly.
pub struct TypeAlgebra {
    scheme: Scheme,
    replicas: usize,
    st_memo: DenseMap<Option<TypeId>>,
    st_inprogress: DenseMap<TypeId>,
    at_memo: DenseMap<TypeId>,
    at_inprogress: DenseMap<TypeId>,
    sat_memo: DenseMap<Option<TypeId>>,
    fun_inprogress: DenseMap<()>,
    /// Visit marks of [`TypeAlgebra::contains_function_type`]: a type is
    /// visited in the current walk when its mark equals `walk`.
    visit: Vec<u32>,
    walk: u32,
}

impl std::fmt::Debug for TypeAlgebra {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TypeAlgebra({:?}, {} st, {} at, {} sat)",
            self.scheme,
            self.st_memo.len(),
            self.at_memo.len(),
            self.sat_memo.len()
        )
    }
}

impl TypeAlgebra {
    /// Creates an algebra for the given scheme at replication degree 1.
    pub fn new(scheme: Scheme) -> TypeAlgebra {
        TypeAlgebra::with_replicas(scheme, 1)
    }

    /// Creates an algebra for the given scheme and replication degree
    /// (clamped to at least 1).
    pub fn with_replicas(scheme: Scheme, replicas: usize) -> TypeAlgebra {
        TypeAlgebra {
            scheme,
            replicas: replicas.max(1),
            st_memo: DenseMap::new(),
            st_inprogress: DenseMap::new(),
            at_memo: DenseMap::new(),
            at_inprogress: DenseMap::new(),
            sat_memo: DenseMap::new(),
            fun_inprogress: DenseMap::new(),
            visit: Vec::new(),
            walk: 0,
        }
    }

    /// The scheme this algebra serves.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The replication degree K this algebra serves.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// `st(t)` — the shadow type of `t` (Table 2.1); `None` is the paper's
    /// null shadow type ∅.
    pub fn st(&mut self, tt: &mut TypeTable, t: TypeId) -> Option<TypeId> {
        if let Some(m) = self.st_memo.get(t) {
            return m;
        }
        let result = match tt.kind(t).clone() {
            TypeKind::Pointer { pointee } => {
                if let Some(r) = self.st_inprogress.get(t) {
                    return Some(r);
                }
                let r = tt.fresh_opaque("sdw.ptr");
                self.st_inprogress.insert(t, r);
                let inner = self.st(tt, pointee);
                let nsop = match inner {
                    Some(s) => tt.pointer(s),
                    None => tt.void_ptr(),
                };
                // One ROP field per replica, then the NSOP (K = 1 is the
                // paper's two-field `{rop, nsop}` exactly).
                let mut body = vec![t; self.replicas];
                body.push(nsop);
                tt.set_struct_body(r, body);
                self.st_inprogress.remove(t);
                Some(r)
            }
            TypeKind::Array { elem, len } => {
                let se = self.st(tt, elem)?;
                Some(match len {
                    Some(n) => tt.array(se, n),
                    None => tt.unsized_array(se),
                })
            }
            TypeKind::Struct { name, fields } => {
                let shadows: Vec<TypeId> = fields.iter().filter_map(|&f| self.st(tt, f)).collect();
                if shadows.is_empty() {
                    None
                } else {
                    Some(tt.struct_type(format!("{name}.sdw"), shadows))
                }
            }
            TypeKind::Union { name, members } => {
                let shadows: Vec<TypeId> = members.iter().filter_map(|&m| self.st(tt, m)).collect();
                if shadows.is_empty() {
                    None
                } else {
                    Some(tt.union_type(format!("{name}.sdw"), shadows))
                }
            }
            TypeKind::Int { .. }
            | TypeKind::Float { .. }
            | TypeKind::Void
            | TypeKind::Function { .. } => None,
        };
        self.st_memo.insert(t, result);
        result
    }

    /// `at(t)` — the augmented type of `t` (Table 2.3 for SDS, Table 4.1
    /// for MDS). Only types containing function types actually change.
    ///
    /// # Panics
    /// Panics on mutually recursive function types routed through their own
    /// signatures (e.g. a struct holding a function pointer whose parameter
    /// is a pointer to that struct *and* whose augmented computation
    /// re-enters itself) — a corner the paper handles with named type
    /// placeholders and which none of the evaluated programs exhibit.
    pub fn at(&mut self, tt: &mut TypeTable, t: TypeId) -> TypeId {
        if let Some(m) = self.at_memo.get(t) {
            return m;
        }
        // Only types containing function types actually change (Sec. 2.3).
        if !self.contains_function_type(tt, t) {
            self.at_memo.insert(t, t);
            return t;
        }
        let result = match tt.kind(t).clone() {
            TypeKind::Int { .. } | TypeKind::Float { .. } | TypeKind::Void => t,
            TypeKind::Pointer { pointee } => {
                let ap = self.at(tt, pointee);
                tt.pointer(ap)
            }
            TypeKind::Array { elem, len } => {
                let ae = self.at(tt, elem);
                match len {
                    Some(n) => tt.array(ae, n),
                    None => tt.unsized_array(ae),
                }
            }
            TypeKind::Struct { name, fields } => {
                if let Some(r) = self.at_inprogress.get(t) {
                    return r;
                }
                // Fast path: unchanged when no function types occur inside
                // (checked by attempting member-wise identity below).
                let r = tt.fresh_opaque(&format!("{name}.aug"));
                self.at_inprogress.insert(t, r);
                let augs: Vec<TypeId> = fields.iter().map(|&f| self.at(tt, f)).collect();
                self.at_inprogress.remove(t);
                if augs == fields {
                    // Identity: discard the opaque wrapper (it stays
                    // body-less and unreferenced only if no recursion hit
                    // it; if recursion did reference it, keep the rebuild).
                    if !Self::type_referenced(tt, r) {
                        self.at_memo.insert(t, t);
                        return t;
                    }
                }
                tt.set_struct_body(r, augs);
                r
            }
            TypeKind::Union { name, members } => {
                if let Some(r) = self.at_inprogress.get(t) {
                    return r;
                }
                let r = tt.opaque_union(format!("{name}.aug"));
                self.at_inprogress.insert(t, r);
                let augs: Vec<TypeId> = members.iter().map(|&m| self.at(tt, m)).collect();
                self.at_inprogress.remove(t);
                if augs == members && !Self::type_referenced(tt, r) {
                    self.at_memo.insert(t, t);
                    return t;
                }
                tt.set_union_body(r, augs);
                r
            }
            TypeKind::Function { ret, params } => {
                assert!(
                    self.fun_inprogress.insert(t, ()).is_none(),
                    "unsupported recursive function type {}",
                    tt.display(t)
                );
                let r = self.aug_function_type(tt, ret, &params);
                self.fun_inprogress.remove(t);
                r
            }
        };
        self.at_memo.insert(t, result);
        result
    }

    /// Builds the augmented function type (`getAugFunTypeImpl`, Fig. 2.7;
    /// Table 4.1 for MDS).
    fn aug_function_type(&mut self, tt: &mut TypeTable, ret: TypeId, params: &[TypeId]) -> TypeId {
        let aret = self.at(tt, ret);
        let mut arglist: Vec<TypeId> = Vec::new();
        if tt.is_pointer(ret) {
            match self.scheme {
                Scheme::Sds => {
                    // rvSop: st(at(r))* — pointer shadow types are never
                    // null, so this is always a concrete struct pointer
                    // (and already carries K ROP fields).
                    let sat = self.sat(tt, ret).expect("pointer shadow type is non-null");
                    arglist.push(tt.pointer(sat));
                }
                Scheme::Mds => {
                    // rvRopPtr: at(r)* (a slot the callee stores the ROP
                    // to); with K >= 2 replicas the slot is an array of K
                    // ROPs (`at(r)[K]*`).
                    if self.replicas > 1 {
                        let arr = tt.array(aret, self.replicas as u64);
                        arglist.push(tt.pointer(arr));
                    } else {
                        arglist.push(tt.pointer(aret));
                    }
                }
            }
        }
        for &p in params {
            let ap = self.at(tt, p);
            arglist.push(ap);
            if tt.is_pointer(p) {
                // rpt(p) = at(p) (each ROP has the augmented pointer
                // type); one ROP parameter per replica.
                for _ in 0..self.replicas {
                    arglist.push(ap);
                }
                if self.scheme == Scheme::Sds {
                    // spt(p) = st(at(pointee))* or void*.
                    let pointee = tt.pointee(p).expect("pointer");
                    let apointee = self.at(tt, pointee);
                    let sp = match self.st(tt, apointee) {
                        Some(s) => tt.pointer(s),
                        None => tt.void_ptr(),
                    };
                    arglist.push(sp);
                }
            }
        }
        tt.function(aret, arglist)
    }

    /// `(st ∘ at)(t)` — the shadow type of the augmented type (Table 2.5,
    /// `getShadowAugType` of Fig. 2.8).
    ///
    /// The paper computes the composition *fused* so that placeholders from
    /// an in-progress `at` computation can be threaded through (its `P1`
    /// map). Here `at` fully resolves every type it returns except the
    /// recursive function-pointer corner (which `at` rejects), so the
    /// composition can be computed directly — and must be, so that the
    /// nominal shadow structs produced for `st(at(t))` are the *same*
    /// types whether reached through `sat` or through `st` (function
    /// parameter NSOP types must match register NSOP types).
    pub fn sat(&mut self, tt: &mut TypeTable, t: TypeId) -> Option<TypeId> {
        if let Some(m) = self.sat_memo.get(t) {
            return m;
        }
        let a = self.at(tt, t);
        assert!(
            tt.has_body(a)
                || !matches!(tt.kind(a), TypeKind::Struct { .. } | TypeKind::Union { .. }),
            "st∘at of an in-progress augmented type (unsupported recursive function-pointer type)"
        );
        let result = self.st(tt, a);
        self.sat_memo.insert(t, result);
        result
    }

    /// `φ(t, i)` — converts an application struct field index into the
    /// corresponding shadow struct field index (Equation 2.2): the number
    /// of preceding fields with non-null `(st ∘ at)` shadow types.
    ///
    /// Returns `None` when the field itself has a null shadow type (there
    /// is no shadow field to address).
    pub fn phi(&mut self, tt: &mut TypeTable, struct_ty: TypeId, field: u32) -> Option<u32> {
        // Members are read by index: `sat` may grow the table.
        let member = |tt: &TypeTable, i: u32| match tt.kind(struct_ty) {
            TypeKind::Struct { fields: ms, .. } | TypeKind::Union { members: ms, .. } => {
                ms[i as usize]
            }
            other => panic!("phi on non-aggregate {other:?}"),
        };
        self.sat(tt, member(tt, field))?;
        let mut idx = 0u32;
        for i in 0..field {
            if self.sat(tt, member(tt, i)).is_some() {
                idx += 1;
            }
        }
        Some(idx)
    }

    /// True when a function type occurs anywhere inside `t` (through
    /// pointers, arrays, structs, and unions).
    fn contains_function_type(&mut self, tt: &TypeTable, t: TypeId) -> bool {
        self.walk += 1;
        self.visit.resize(self.visit.len().max(tt.len()), 0);
        self.cft_impl(tt, t)
    }

    fn cft_impl(&mut self, tt: &TypeTable, t: TypeId) -> bool {
        if std::mem::replace(&mut self.visit[t.index()], self.walk) == self.walk {
            return false;
        }
        match tt.kind(t) {
            TypeKind::Function { .. } => true,
            TypeKind::Pointer { pointee } => self.cft_impl(tt, *pointee),
            TypeKind::Array { elem, .. } => self.cft_impl(tt, *elem),
            TypeKind::Struct { fields: ms, .. } | TypeKind::Union { members: ms, .. } => {
                ms.iter().any(|&m| self.cft_impl(tt, m))
            }
            _ => false,
        }
    }

    /// True when any struct/union body in the table references type `r`
    /// (used to decide whether an identity-augmented opaque can be
    /// discarded).
    fn type_referenced(tt: &TypeTable, r: TypeId) -> bool {
        for i in 0..tt.len() {
            let id = TypeId(i as u32);
            if id == r {
                continue;
            }
            match tt.kind(id) {
                TypeKind::Pointer { pointee } if *pointee == r => {
                    return true;
                }
                TypeKind::Array { elem, .. } if *elem == r => {
                    return true;
                }
                TypeKind::Struct { fields, .. } if fields.contains(&r) => {
                    return true;
                }
                TypeKind::Union { members, .. } if members.contains(&r) => {
                    return true;
                }
                TypeKind::Function { ret, params } if (*ret == r || params.contains(&r)) => {
                    return true;
                }
                _ => {}
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TypeTable, TypeAlgebra) {
        (TypeTable::new(), TypeAlgebra::new(Scheme::Sds))
    }

    #[test]
    fn shadow_of_primitives_is_null() {
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let f64t = tt.float(64);
        let v = tt.void();
        assert_eq!(alg.st(&mut tt, i32t), None);
        assert_eq!(alg.st(&mut tt, f64t), None);
        assert_eq!(alg.st(&mut tt, v), None);
    }

    #[test]
    fn shadow_of_int8_array_ptr_matches_table_2_2() {
        // st(int8[]*) = struct{ int8[]* rop; void* nsop }
        let (mut tt, mut alg) = setup();
        let i8t = tt.int(8);
        let arr = tt.unsized_array(i8t);
        let p = tt.pointer(arr);
        let s = alg.st(&mut tt, p).expect("pointer shadows are non-null");
        let fields = tt.members(s);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0], p, "ROP has the original pointer type");
        let vp = tt.void_ptr();
        assert_eq!(fields[1], vp, "NSOP falls back to void* for null inner");
    }

    #[test]
    fn shadow_of_double_pointer_matches_table_2_2() {
        // st(int8[]**) = struct{ int8[]** rop; st(int8[]*)* nsop }
        let (mut tt, mut alg) = setup();
        let i8t = tt.int(8);
        let arr = tt.unsized_array(i8t);
        let p = tt.pointer(arr);
        let pp = tt.pointer(p);
        let sp = alg.st(&mut tt, p).unwrap();
        let spp = alg.st(&mut tt, pp).unwrap();
        let fields = tt.members(spp);
        assert_eq!(fields[0], pp);
        let expect_nsop = tt.pointer(sp);
        assert_eq!(fields[1], expect_nsop);
    }

    #[test]
    fn shadow_of_linked_list_matches_table_2_2() {
        // struct LL { int32 data; LL* nxt } ->
        // LLSdwTy { struct { LL* rop; LLSdwTy* nsop } nxtSdwObj }
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let ll = tt.opaque_struct("LL");
        let llp = tt.pointer(ll);
        tt.set_struct_body(ll, vec![i32t, llp]);

        let sll = alg.st(&mut tt, ll).expect("LL shadow is non-null");
        let outer = tt.members(sll);
        assert_eq!(outer.len(), 1, "the int32 field drops out");
        let inner = tt.members(outer[0]);
        assert_eq!(inner.len(), 2);
        assert_eq!(inner[0], llp, "ROP typed LL*");
        // NSOP must point at a struct structurally equal to sll.
        let nsop_pointee = tt.pointee(inner[1]).expect("NSOP is a pointer");
        let nsop_members = tt.members(nsop_pointee);
        assert_eq!(nsop_members.len(), 1, "recursive shadow shape matches");
        assert_eq!(
            tt.size_of(nsop_pointee).unwrap(),
            tt.size_of(sll).unwrap(),
            "recursive shadow layout matches"
        );
    }

    #[test]
    fn shadow_of_file_struct_matches_table_2_2() {
        // struct file { int8[]* name; int32 size; struct dir* parent }
        let (mut tt, mut alg) = setup();
        let i8t = tt.int(8);
        let i32t = tt.int(32);
        let arr = tt.unsized_array(i8t);
        let namep = tt.pointer(arr);
        let dir = tt.opaque_struct("dir");
        let dirp = tt.pointer(dir);
        tt.set_struct_body(dir, vec![i32t]); // opaque in the paper; any body
        let file = tt.struct_type("file", vec![namep, i32t, dirp]);

        let sfile = alg.st(&mut tt, file).unwrap();
        let fields = tt.members(sfile);
        assert_eq!(fields.len(), 2, "int32 size drops out");
        // First field: shadow of int8[]*.
        let f0 = tt.members(fields[0]);
        assert_eq!(f0[0], namep);
        // Second: shadow of dir*; dir has no pointers -> NSOP is void*.
        let f1 = tt.members(fields[1]);
        assert_eq!(f1[0], dirp);
        let vp = tt.void_ptr();
        assert_eq!(f1[1], vp);
    }

    #[test]
    fn augmented_type_is_identity_without_function_types() {
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let ll = tt.opaque_struct("LL");
        let llp = tt.pointer(ll);
        tt.set_struct_body(ll, vec![i32t, llp]);
        assert_eq!(alg.at(&mut tt, ll), ll);
        assert_eq!(alg.at(&mut tt, llp), llp);
        assert_eq!(alg.at(&mut tt, i32t), i32t);
    }

    #[test]
    fn augmented_function_type_matches_table_2_4() {
        // int8[]* (int8[]* s1, int8[]* s2) becomes
        // int8[]* (st* rvSop, int8[]* s1, int8[]* s1Rop, void* s1Nsop,
        //          int8[]* s2, int8[]* s2Rop, void* s2Nsop)
        let (mut tt, mut alg) = setup();
        let i8t = tt.int(8);
        let arr = tt.unsized_array(i8t);
        let p = tt.pointer(arr);
        let fty = tt.function(p, vec![p, p]);
        let aug = alg.at(&mut tt, fty);
        let TypeKind::Function { ret, params } = tt.kind(aug).clone() else {
            panic!("augmented type is a function");
        };
        assert_eq!(ret, p);
        assert_eq!(params.len(), 7, "rvSop + 2 * (orig, rop, nsop)");
        // rvSop points to the shadow of int8[]*.
        let sat = alg.sat(&mut tt, p).unwrap();
        assert_eq!(params[0], tt.pointer(sat));
        assert_eq!(params[1], p);
        assert_eq!(params[2], p, "ROP parameter typed like the original");
        let vp = tt.void_ptr();
        assert_eq!(params[3], vp, "NSOP for a pointer to pointer-free data");
        assert_eq!(&params[4..7], &[p, p, vp]);
    }

    #[test]
    fn mds_augmented_function_type_matches_table_4_2() {
        // MDS: int8[]* (int8[]** rvRopPtr, s1, s1Rop, s2, s2Rop)
        let mut tt = TypeTable::new();
        let mut alg = TypeAlgebra::new(Scheme::Mds);
        let i8t = tt.int(8);
        let arr = tt.unsized_array(i8t);
        let p = tt.pointer(arr);
        let fty = tt.function(p, vec![p, p]);
        let aug = alg.at(&mut tt, fty);
        let TypeKind::Function { ret, params } = tt.kind(aug).clone() else {
            panic!("function");
        };
        assert_eq!(ret, p);
        let pp = tt.pointer(p);
        assert_eq!(params, vec![pp, p, p, p, p]);
    }

    #[test]
    fn non_pointer_function_types_gain_nothing() {
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let fty = tt.function(i32t, vec![i32t, i32t]);
        assert_eq!(alg.at(&mut tt, fty), fty);
    }

    #[test]
    fn phi_counts_preceding_non_null_shadows() {
        // struct { int8[]* name; int32 size; dir* parent }:
        //   phi(0) = 0, phi(1) = None (int has no shadow), phi(2) = 1.
        let (mut tt, mut alg) = setup();
        let i8t = tt.int(8);
        let i32t = tt.int(32);
        let arr = tt.unsized_array(i8t);
        let namep = tt.pointer(arr);
        let dir = tt.struct_type("dir", vec![i32t]);
        let dirp = tt.pointer(dir);
        let file = tt.struct_type("file", vec![namep, i32t, dirp]);
        assert_eq!(alg.phi(&mut tt, file, 0), Some(0));
        assert_eq!(alg.phi(&mut tt, file, 1), None);
        assert_eq!(alg.phi(&mut tt, file, 2), Some(1));
    }

    #[test]
    fn sat_equals_st_when_no_function_types() {
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let ll = tt.opaque_struct("LL");
        let llp = tt.pointer(ll);
        tt.set_struct_body(ll, vec![i32t, llp]);
        let st = alg.st(&mut tt, ll).unwrap();
        let sat = alg.sat(&mut tt, ll).unwrap();
        assert_eq!(
            tt.size_of(st).unwrap(),
            tt.size_of(sat).unwrap(),
            "st and st∘at agree structurally when at is identity"
        );
    }

    #[test]
    fn array_shadow_maps_elementwise() {
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let s = tt.struct_type("node", vec![i32t]);
        let sp = tt.pointer(s);
        let arr = tt.array(sp, 5);
        let sarr = alg.st(&mut tt, arr).unwrap();
        match tt.kind(sarr) {
            TypeKind::Array { len: Some(5), .. } => {}
            other => panic!("expected [5 x shadow], got {other:?}"),
        }
    }

    #[test]
    fn shadow_memoization_is_stable() {
        let (mut tt, mut alg) = setup();
        let i32t = tt.int(32);
        let ll = tt.opaque_struct("LL");
        let llp = tt.pointer(ll);
        tt.set_struct_body(ll, vec![i32t, llp]);
        let a = alg.st(&mut tt, ll);
        let b = alg.st(&mut tt, ll);
        assert_eq!(a, b);
        let c = alg.st(&mut tt, llp);
        let d = alg.st(&mut tt, llp);
        assert_eq!(c, d);
    }
}
