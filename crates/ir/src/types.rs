//! The type system assumed by the DPMR paper (Chapter 2, introduction).
//!
//! The system contains primitive integer and floating-point types of
//! predefined sizes, a `void` type, and five derived types: pointers,
//! structures, unions, arrays, and functions. All pointer types have the
//! same predefined size. Array types do **not** decay to pointers (the type
//! `struct{int32; int32; int32;}` is layout-equivalent to `int32[3]`).
//!
//! Types are interned in a [`TypeTable`]. Scalar and derived types are
//! hash-consed (structural identity); structs and unions are *nominal* so
//! that recursive types (e.g. a linked list) can be built by first creating
//! an opaque named struct and later filling in its body — exactly the
//! placeholder-resolution mechanism used by the paper's `getShadowType`
//! algorithm (Figure 2.5).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Width of every pointer, in bytes (the paper's "predefined size").
pub const PTR_BYTES: u64 = 8;

/// An interned reference to a type inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Raw index of the type within its table (useful as a map key).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a type. Obtain via [`TypeTable::kind`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// The `void` type. Not sized; only usable behind a pointer or as a
    /// function return type.
    Void,
    /// An integer of 8, 16, 32, or 64 bits.
    Int { bits: u16 },
    /// A float of 32 or 64 bits.
    Float { bits: u16 },
    /// A pointer to `pointee`.
    Pointer { pointee: TypeId },
    /// A fixed-length array `elem[len]`. `len == None` is the unsized
    /// array `elem[]` used behind pointers (e.g. the paper's `int8[]*`).
    Array { elem: TypeId, len: Option<u64> },
    /// A nominal structure. `fields` is empty while the struct is opaque
    /// (under construction); see [`TypeTable::opaque_struct`].
    Struct { name: String, fields: Vec<TypeId> },
    /// A nominal union; size is the maximum member size.
    Union { name: String, members: Vec<TypeId> },
    /// A function type `ret(params...)`.
    Function { ret: TypeId, params: Vec<TypeId> },
}

/// Errors produced by layout queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The type has no size (void, function, unsized array, opaque struct).
    Unsized(TypeId),
    /// The type's size, or an offset inside it, does not fit in 64 bits.
    Overflow(TypeId),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Unsized(t) => write!(f, "type t{} has no size", t.0),
            LayoutError::Overflow(t) => write!(f, "type t{} is larger than 2^64 bytes", t.0),
        }
    }
}

impl std::error::Error for LayoutError {}

/// A fixed, deterministic multiply-rotate hasher (the Fx hash of the
/// Rust compiler) for maps keyed by small ids and type shapes, where
/// std's keyed SipHash costs more than the lookup it serves. Its output
/// depends only on the bytes written, so a map's contents never depend
/// on the process; no output iterates over such a map.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// The integer writes fold one word each; only `write` sees byte strings
/// (struct names, never hashed on the hot paths).
impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[derive(Default, Clone)]
struct Interner {
    map: FxHashMap<TypeKind, TypeId>,
}

/// Interning table that owns every type of a module.
///
/// # Examples
///
/// ```
/// use dpmr_ir::types::TypeTable;
/// let mut tt = TypeTable::new();
/// let i32t = tt.int(32);
/// let p = tt.pointer(i32t);
/// assert_eq!(tt.size_of(p).unwrap(), 8);
/// assert_eq!(tt.size_of(i32t).unwrap(), 4);
/// ```
#[derive(Clone)]
pub struct TypeTable {
    kinds: Vec<TypeKind>,
    interner: Interner,
    /// Structs/unions whose body has been set (false while opaque).
    body_set: Vec<bool>,
    next_anon: u64,
}

impl Default for TypeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TypeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeTable({} types)", self.kinds.len())
    }
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable {
            kinds: Vec::new(),
            interner: Interner::default(),
            body_set: Vec::new(),
            next_anon: 0,
        }
    }

    /// Number of types interned so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no types have been interned.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Returns the kind of `id`.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this table.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.0 as usize]
    }

    /// The interned type of shape `kind`, if the table holds one: the
    /// lookup-only counterpart of the interning constructors (nominal
    /// structs and unions are never found).
    pub(crate) fn lookup(&self, kind: &TypeKind) -> Option<TypeId> {
        self.interner.map.get(kind).copied()
    }

    fn push(&mut self, kind: TypeKind) -> TypeId {
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.body_set.push(true);
        id
    }

    fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.interner.map.get(&kind) {
            return id;
        }
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.body_set.push(true);
        self.interner.map.insert(kind, id);
        id
    }

    /// The `void` type.
    pub fn void(&mut self) -> TypeId {
        self.intern(TypeKind::Void)
    }

    /// An integer type of the given bit width (8/16/32/64).
    ///
    /// # Panics
    /// Panics on an unsupported width.
    pub fn int(&mut self, bits: u16) -> TypeId {
        assert!(
            matches!(bits, 1 | 8 | 16 | 32 | 64),
            "unsupported int width {bits}"
        );
        self.intern(TypeKind::Int { bits })
    }

    /// A float type of the given bit width (32/64).
    ///
    /// # Panics
    /// Panics on an unsupported width.
    pub fn float(&mut self, bits: u16) -> TypeId {
        assert!(matches!(bits, 32 | 64), "unsupported float width {bits}");
        self.intern(TypeKind::Float { bits })
    }

    /// A pointer to `pointee`.
    pub fn pointer(&mut self, pointee: TypeId) -> TypeId {
        self.intern(TypeKind::Pointer { pointee })
    }

    /// The ubiquitous `void*`.
    pub fn void_ptr(&mut self) -> TypeId {
        let v = self.void();
        self.pointer(v)
    }

    /// A fixed-length array `elem[len]`.
    pub fn array(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(TypeKind::Array {
            elem,
            len: Some(len),
        })
    }

    /// The unsized array `elem[]` (only valid behind a pointer).
    pub fn unsized_array(&mut self, elem: TypeId) -> TypeId {
        self.intern(TypeKind::Array { elem, len: None })
    }

    /// A function type `ret(params...)`.
    pub fn function(&mut self, ret: TypeId, params: Vec<TypeId>) -> TypeId {
        self.intern(TypeKind::Function { ret, params })
    }

    /// Creates a *nominal* struct with a fresh identity and the given body.
    pub fn struct_type(&mut self, name: impl Into<String>, fields: Vec<TypeId>) -> TypeId {
        self.push(TypeKind::Struct {
            name: name.into(),
            fields,
        })
    }

    /// Creates an opaque (body-less) struct to be filled in later with
    /// [`TypeTable::set_struct_body`]. This is the placeholder mechanism
    /// used when constructing recursive shadow/augmented types.
    pub fn opaque_struct(&mut self, name: impl Into<String>) -> TypeId {
        let id = self.push(TypeKind::Struct {
            name: name.into(),
            fields: Vec::new(),
        });
        self.body_set[id.0 as usize] = false;
        id
    }

    /// Generates an opaque struct with a unique synthetic name.
    pub fn fresh_opaque(&mut self, prefix: &str) -> TypeId {
        let n = self.next_anon;
        self.next_anon += 1;
        self.opaque_struct(format!("{prefix}.{n}"))
    }

    /// Resolves an opaque struct created by [`TypeTable::opaque_struct`].
    ///
    /// # Panics
    /// Panics if `id` is not a struct or its body was already set.
    pub fn set_struct_body(&mut self, id: TypeId, fields: Vec<TypeId>) {
        assert!(
            !self.body_set[id.0 as usize],
            "struct body set twice for t{}",
            id.0
        );
        match &mut self.kinds[id.0 as usize] {
            TypeKind::Struct { fields: f, .. } => *f = fields,
            other => panic!("set_struct_body on non-struct {other:?}"),
        }
        self.body_set[id.0 as usize] = true;
    }

    /// True if the struct/union body has been provided (non-opaque).
    pub fn has_body(&self, id: TypeId) -> bool {
        self.body_set[id.0 as usize]
    }

    /// Creates a nominal union with the given members.
    pub fn union_type(&mut self, name: impl Into<String>, members: Vec<TypeId>) -> TypeId {
        self.push(TypeKind::Union {
            name: name.into(),
            members,
        })
    }

    /// Creates an opaque (body-less) union, resolved later with
    /// [`TypeTable::set_union_body`].
    pub fn opaque_union(&mut self, name: impl Into<String>) -> TypeId {
        let id = self.push(TypeKind::Union {
            name: name.into(),
            members: Vec::new(),
        });
        self.body_set[id.0 as usize] = false;
        id
    }

    /// Resolves an opaque union created by [`TypeTable::opaque_union`].
    ///
    /// # Panics
    /// Panics if `id` is not a union or its body was already set.
    pub fn set_union_body(&mut self, id: TypeId, members: Vec<TypeId>) {
        assert!(
            !self.body_set[id.0 as usize],
            "union body set twice for t{}",
            id.0
        );
        match &mut self.kinds[id.0 as usize] {
            TypeKind::Union { members: m, .. } => *m = members,
            other => panic!("set_union_body on non-union {other:?}"),
        }
        self.body_set[id.0 as usize] = true;
    }

    /// True for integer types.
    pub fn is_int(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Int { .. })
    }

    /// True for float types.
    pub fn is_float(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Float { .. })
    }

    /// True for pointer types.
    pub fn is_pointer(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Pointer { .. })
    }

    /// True for scalar types — the only types virtual registers may hold
    /// (integers, floats, and pointers; paper Ch. 2 assumptions).
    pub fn is_scalar(&self, id: TypeId) -> bool {
        matches!(
            self.kind(id),
            TypeKind::Int { .. } | TypeKind::Float { .. } | TypeKind::Pointer { .. }
        )
    }

    /// The pointee of a pointer type, if `id` is a pointer.
    pub fn pointee(&self, id: TypeId) -> Option<TypeId> {
        match self.kind(id) {
            TypeKind::Pointer { pointee } => Some(*pointee),
            _ => None,
        }
    }

    /// Alignment of a type in bytes.
    ///
    /// # Errors
    /// Returns [`LayoutError::Unsized`] for void/function/opaque types.
    pub fn align_of(&self, id: TypeId) -> Result<u64, LayoutError> {
        match self.kind(id) {
            TypeKind::Void | TypeKind::Function { .. } => Err(LayoutError::Unsized(id)),
            TypeKind::Int { bits } => Ok(u64::from(*bits).div_ceil(8).max(1)),
            TypeKind::Float { bits } => Ok(u64::from(*bits) / 8),
            TypeKind::Pointer { .. } => Ok(PTR_BYTES),
            TypeKind::Array { elem, .. } => self.align_of(*elem),
            TypeKind::Struct { fields, .. } => {
                if !self.has_body(id) {
                    return Err(LayoutError::Unsized(id));
                }
                let mut a = 1;
                for &f in fields {
                    a = a.max(self.align_of(f)?);
                }
                Ok(a)
            }
            TypeKind::Union { members, .. } => {
                let mut a = 1;
                for &m in members {
                    a = a.max(self.align_of(m)?);
                }
                Ok(a)
            }
        }
    }

    /// Size of a type in bytes, including alignment padding — the paper's
    /// `sizeof()` (List of Symbols).
    ///
    /// # Errors
    /// Returns [`LayoutError::Unsized`] for void/function/unsized-array/
    /// opaque types, and [`LayoutError::Overflow`] for a type whose size
    /// does not fit in 64 bits.
    pub fn size_of(&self, id: TypeId) -> Result<u64, LayoutError> {
        let overflow = || LayoutError::Overflow(id);
        match self.kind(id) {
            TypeKind::Void | TypeKind::Function { .. } => Err(LayoutError::Unsized(id)),
            TypeKind::Int { bits } => Ok(u64::from(*bits).div_ceil(8).max(1)),
            TypeKind::Float { bits } => Ok(u64::from(*bits) / 8),
            TypeKind::Pointer { .. } => Ok(PTR_BYTES),
            TypeKind::Array { elem, len } => match len {
                Some(n) => self.size_of(*elem)?.checked_mul(*n).ok_or_else(overflow),
                None => Err(LayoutError::Unsized(id)),
            },
            TypeKind::Struct { fields, .. } => {
                if !self.has_body(id) {
                    return Err(LayoutError::Unsized(id));
                }
                let mut off = 0u64;
                let mut align = 1u64;
                for &f in fields {
                    let fa = self.align_of(f)?;
                    align = align.max(fa);
                    let size = self.size_of(f)?;
                    off = off
                        .checked_next_multiple_of(fa)
                        .and_then(|o| o.checked_add(size))
                        .ok_or_else(overflow)?;
                }
                off.checked_next_multiple_of(align).ok_or_else(overflow)
            }
            TypeKind::Union { members, .. } => {
                if !self.has_body(id) {
                    return Err(LayoutError::Unsized(id));
                }
                let mut sz = 0u64;
                let mut align = 1u64;
                for &m in members {
                    align = align.max(self.align_of(m)?);
                    sz = sz.max(self.size_of(m)?);
                }
                sz.checked_next_multiple_of(align).ok_or_else(overflow)
            }
        }
    }

    /// Byte offset of struct field `idx` within struct `id`.
    ///
    /// # Errors
    /// Returns [`LayoutError`] if layout cannot be computed, including
    /// an offset that does not fit in 64 bits.
    ///
    /// # Panics
    /// Panics if `id` is not a struct or `idx` is out of range.
    pub fn field_offset(&self, id: TypeId, idx: usize) -> Result<u64, LayoutError> {
        let fields = match self.kind(id) {
            TypeKind::Struct { fields, .. } => fields,
            other => panic!("field_offset on non-struct {other:?}"),
        };
        assert!(idx < fields.len(), "field index {idx} out of range");
        let overflow = || LayoutError::Overflow(id);
        let mut off = 0u64;
        for (i, f) in fields.iter().enumerate() {
            let fa = self.align_of(*f)?;
            off = off.checked_next_multiple_of(fa).ok_or_else(overflow)?;
            if i == idx {
                return Ok(off);
            }
            off = off.checked_add(self.size_of(*f)?).ok_or_else(overflow)?;
        }
        unreachable!()
    }

    /// Struct/union member type list (empty for other kinds).
    pub fn members(&self, id: TypeId) -> Vec<TypeId> {
        match self.kind(id) {
            TypeKind::Struct { fields, .. } => fields.clone(),
            TypeKind::Union { members, .. } => members.clone(),
            _ => Vec::new(),
        }
    }

    /// True when the type contains a pointer anywhere outside function
    /// types — the `containsPointerOutsideFunType` predicate of Figure 2.5.
    pub fn contains_pointer_outside_fun(&self, id: TypeId) -> bool {
        let mut visited = vec![false; self.len()];
        self.cpof_impl(id, &mut visited)
    }

    fn cpof_impl(&self, id: TypeId, visited: &mut [bool]) -> bool {
        if std::mem::replace(&mut visited[id.index()], true) {
            return false;
        }
        match self.kind(id) {
            TypeKind::Pointer { .. } => true,
            TypeKind::Array { elem, .. } => self.cpof_impl(*elem, visited),
            TypeKind::Struct { fields: ms, .. } | TypeKind::Union { members: ms, .. } => {
                ms.iter().any(|&m| self.cpof_impl(m, visited))
            }
            _ => false,
        }
    }

    /// Renders a type as human-readable text (used by the IR printer).
    pub fn display(&self, id: TypeId) -> String {
        let mut seen = Vec::new();
        self.display_impl(id, &mut seen, false)
    }

    fn display_impl(&self, id: TypeId, stack: &mut Vec<TypeId>, short: bool) -> String {
        match self.kind(id) {
            TypeKind::Void => "void".into(),
            TypeKind::Int { bits } => format!("i{bits}"),
            TypeKind::Float { bits } => format!("f{bits}"),
            TypeKind::Pointer { pointee } => {
                format!("{}*", self.display_impl(*pointee, stack, true))
            }
            TypeKind::Array { elem, len } => match len {
                Some(n) => format!("[{} x {}]", n, self.display_impl(*elem, stack, true)),
                None => format!("{}[]", self.display_impl(*elem, stack, true)),
            },
            TypeKind::Struct { name, fields } => {
                if short || stack.contains(&id) {
                    return format!("%{name}");
                }
                stack.push(id);
                let body = fields
                    .iter()
                    .map(|&f| self.display_impl(f, stack, true))
                    .collect::<Vec<_>>()
                    .join(", ");
                stack.pop();
                format!("%{name}{{{body}}}")
            }
            TypeKind::Union { name, members } => {
                if short || stack.contains(&id) {
                    return format!("%u.{name}");
                }
                stack.push(id);
                let body = members
                    .iter()
                    .map(|&m| self.display_impl(m, stack, true))
                    .collect::<Vec<_>>()
                    .join(" | ");
                stack.pop();
                format!("%u.{name}{{{body}}}")
            }
            TypeKind::Function { ret, params } => {
                let ps = params
                    .iter()
                    .map(|&p| self.display_impl(p, stack, true))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{}({})", self.display_impl(*ret, stack, true), ps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_layout() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let i32t = tt.int(32);
        let i64t = tt.int(64);
        let f64t = tt.float(64);
        assert_eq!(tt.size_of(i8t).unwrap(), 1);
        assert_eq!(tt.size_of(i32t).unwrap(), 4);
        assert_eq!(tt.size_of(i64t).unwrap(), 8);
        assert_eq!(tt.size_of(f64t).unwrap(), 8);
        let p = tt.pointer(i8t);
        assert_eq!(tt.size_of(p).unwrap(), PTR_BYTES);
    }

    #[test]
    fn interning_dedups_structural_types() {
        let mut tt = TypeTable::new();
        let a = tt.int(32);
        let b = tt.int(32);
        assert_eq!(a, b);
        let p1 = tt.pointer(a);
        let p2 = tt.pointer(b);
        assert_eq!(p1, p2);
    }

    #[test]
    fn structs_are_nominal() {
        let mut tt = TypeTable::new();
        let i32t = tt.int(32);
        let s1 = tt.struct_type("a", vec![i32t]);
        let s2 = tt.struct_type("a", vec![i32t]);
        assert_ne!(s1, s2, "each struct_type call creates a fresh identity");
    }

    #[test]
    fn struct_layout_with_padding() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let i32t = tt.int(32);
        let i64t = tt.int(64);
        // struct { i8; i32; i64 } -> offsets 0, 4, 8; size 16
        let s = tt.struct_type("s", vec![i8t, i32t, i64t]);
        assert_eq!(tt.field_offset(s, 0).unwrap(), 0);
        assert_eq!(tt.field_offset(s, 1).unwrap(), 4);
        assert_eq!(tt.field_offset(s, 2).unwrap(), 8);
        assert_eq!(tt.size_of(s).unwrap(), 16);
        assert_eq!(tt.align_of(s).unwrap(), 8);
    }

    #[test]
    fn array_struct_equivalence() {
        // The paper: struct{int32;int32;int32;} is layout-equivalent to int32[3].
        let mut tt = TypeTable::new();
        let i32t = tt.int(32);
        let arr = tt.array(i32t, 3);
        let s = tt.struct_type("t", vec![i32t, i32t, i32t]);
        assert_eq!(tt.size_of(arr).unwrap(), tt.size_of(s).unwrap());
    }

    #[test]
    fn union_layout() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let i64t = tt.int(64);
        let u = tt.union_type("u", vec![i8t, i64t]);
        assert_eq!(tt.size_of(u).unwrap(), 8);
        assert_eq!(tt.align_of(u).unwrap(), 8);
    }

    #[test]
    fn recursive_struct_via_opaque() {
        let mut tt = TypeTable::new();
        let i32t = tt.int(32);
        let ll = tt.opaque_struct("LinkedList");
        let llp = tt.pointer(ll);
        assert!(!tt.has_body(ll));
        tt.set_struct_body(ll, vec![i32t, llp]);
        assert!(tt.has_body(ll));
        assert_eq!(tt.size_of(ll).unwrap(), 16);
        assert!(tt.contains_pointer_outside_fun(ll));
    }

    #[test]
    fn unsized_array_has_no_size() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let ua = tt.unsized_array(i8t);
        assert!(tt.size_of(ua).is_err());
        let p = tt.pointer(ua);
        assert_eq!(tt.size_of(p).unwrap(), 8);
    }

    /// A layout whose size or an offset inside it passes 2^64 bytes is an
    /// error naming the type that overflowed, never a panic or a wrapped
    /// size: flat and nested arrays, struct sums and field offsets.
    #[test]
    fn oversized_layouts_are_overflow_errors() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let i64t = tt.int(64);
        let flat = tt.array(i64t, u64::MAX / 4);
        assert_eq!(tt.size_of(flat), Err(LayoutError::Overflow(flat)));
        let half = tt.array(i8t, 1 << 63);
        assert_eq!(tt.size_of(half).unwrap(), 1 << 63);
        let rows = tt.array(i64t, 1 << 40);
        let nested = tt.array(rows, 1 << 40);
        assert_eq!(tt.size_of(nested), Err(LayoutError::Overflow(nested)));
        let inner_bad = tt.array(flat, 2);
        assert_eq!(tt.size_of(inner_bad), Err(LayoutError::Overflow(flat)));
        let pair = tt.struct_type("pair", vec![half, half]);
        assert_eq!(tt.size_of(pair), Err(LayoutError::Overflow(pair)));
        let after = tt.struct_type("after", vec![half, half, i64t]);
        assert_eq!(tt.field_offset(after, 1).unwrap(), 1 << 63);
        assert_eq!(tt.field_offset(after, 2), Err(LayoutError::Overflow(after)));
        let odd = tt.array(i8t, u64::MAX);
        let padded = tt.union_type("padded", vec![odd, i64t]);
        assert_eq!(tt.size_of(padded), Err(LayoutError::Overflow(padded)));
        assert!(LayoutError::Overflow(flat)
            .to_string()
            .contains("larger than"));
    }

    #[test]
    fn contains_pointer_ignores_function_types() {
        let mut tt = TypeTable::new();
        let i32t = tt.int(32);
        let f = tt.function(i32t, vec![i32t]);
        let s = tt.struct_type("cb", vec![i32t, f]);
        assert!(!tt.contains_pointer_outside_fun(s));
    }

    #[test]
    fn display_renders_recursion() {
        let mut tt = TypeTable::new();
        let i32t = tt.int(32);
        let ll = tt.opaque_struct("LL");
        let llp = tt.pointer(ll);
        tt.set_struct_body(ll, vec![i32t, llp]);
        assert_eq!(tt.display(ll), "%LL{i32, %LL*}");
    }
}
