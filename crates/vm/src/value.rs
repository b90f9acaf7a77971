//! Runtime scalar values and their memory encoding.

use crate::mem::{Mem, MemFault};
use dpmr_ir::types::{TypeId, TypeKind, TypeTable};

/// A runtime scalar: the only kinds of values a virtual register may hold
/// (paper Ch. 2 assumptions: integers, floats, pointers).
///
/// The `u64` tag and its nonzero discriminants give a value the same two
/// words as the interpreter's register slots (kind, then bits; kind 0
/// marks an unset slot), so moving a value into or out of a slot is two
/// word moves with no remapping.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u64)]
pub enum Value {
    /// Integer (stored sign-extended to 64 bits).
    Int(i64) = 1,
    /// Floating-point (stored as f64; 32-bit floats round at loads/stores).
    Float(f64) = 2,
    /// Pointer (a simulated address).
    Ptr(u64) = 3,
}

impl Value {
    /// Raw 64-bit image used for bit-exact comparison (`dpmr.check`) and
    /// the output channel.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(f) => f.to_bits(),
            Value::Ptr(p) => p,
        }
    }

    /// True for `Int(0)`, `Ptr(0)`, and `Float(0.0)`.
    pub fn is_zero(self) -> bool {
        match self {
            Value::Int(v) => v == 0,
            Value::Float(f) => f == 0.0,
            Value::Ptr(p) => p == 0,
        }
    }
}

/// Sign-extends the low `bits` of `v`.
pub fn normalize_int(v: i64, bits: u16) -> i64 {
    match bits {
        64 => v,
        1 => v & 1,
        _ => {
            let shift = 64 - u32::from(bits);
            (v << shift) >> shift
        }
    }
}

/// Number of bytes a scalar of type `ty` occupies in memory.
///
/// # Panics
/// Panics if `ty` is not scalar.
pub fn scalar_bytes(tt: &TypeTable, ty: TypeId) -> usize {
    match tt.kind(ty) {
        TypeKind::Int { bits } => usize::from(*bits).div_ceil(8).max(1),
        TypeKind::Float { bits } => usize::from(*bits) / 8,
        TypeKind::Pointer { .. } => 8,
        other => panic!("scalar_bytes of non-scalar {other:?}"),
    }
}

/// How a scalar of some IR type is decoded from memory — the single
/// source of truth for the encoding: the bytecode lowering bakes it into
/// each load op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// Little-endian integer of `bytes` bytes, sign-extended from `bits`.
    Int { bytes: u8, bits: u16 },
    /// 32-bit float, widened to f64.
    F32,
    /// 64-bit float.
    F64,
    /// Pointer (8 bytes).
    Ptr,
}

impl LoadKind {
    /// Memory decoding of scalar type `ty` (`None` for non-scalar types).
    pub fn of(tt: &TypeTable, ty: TypeId) -> Option<LoadKind> {
        Some(match tt.kind(ty) {
            TypeKind::Int { bits } => LoadKind::Int {
                bytes: usize::from(*bits).div_ceil(8).max(1) as u8,
                bits: *bits,
            },
            TypeKind::Float { bits: 32 } => LoadKind::F32,
            TypeKind::Float { .. } => LoadKind::F64,
            TypeKind::Pointer { .. } => LoadKind::Ptr,
            _ => return None,
        })
    }
}

/// How a scalar is encoded to memory (the store half of the contract).
/// Integer, f64, and pointer stores all write the value's raw low bytes —
/// for type-punned non-matching values too — so they collapse to
/// [`StoreKind::Raw`]; only f32 stores convert numerically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Low `n` bytes of the value's 64-bit image.
    Raw(u8),
    /// Numeric f64→f32 conversion for float values, low 4 raw bytes for
    /// type-punned non-float values.
    F32,
}

impl StoreKind {
    /// Memory encoding of scalar type `ty` (`None` for non-scalar types).
    pub fn of(tt: &TypeTable, ty: TypeId) -> Option<StoreKind> {
        Some(match tt.kind(ty) {
            TypeKind::Int { bits } => StoreKind::Raw(usize::from(*bits).div_ceil(8).max(1) as u8),
            TypeKind::Float { bits: 32 } => StoreKind::F32,
            TypeKind::Float { .. } | TypeKind::Pointer { .. } => StoreKind::Raw(8),
            _ => return None,
        })
    }
}

/// Decodes a scalar from memory per its pre-resolved kind.
///
/// # Errors
/// Traps if the range is unmapped.
#[inline]
pub fn load_kind(mem: &Mem, kind: LoadKind, addr: u64) -> Result<Value, MemFault> {
    Ok(match kind {
        LoadKind::Int { bytes, bits } => {
            let b = mem.read(addr, bytes as usize)?;
            let mut raw = [0u8; 8];
            raw[..bytes as usize].copy_from_slice(b);
            Value::Int(normalize_int(i64::from_le_bytes(raw), bits))
        }
        LoadKind::F32 => {
            let b = mem.read(addr, 4)?;
            Value::Float(f64::from(f32::from_le_bytes(
                b.try_into().expect("4 bytes"),
            )))
        }
        LoadKind::F64 => {
            let b = mem.read(addr, 8)?;
            Value::Float(f64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        LoadKind::Ptr => Value::Ptr(mem.read_u64(addr)?),
    })
}

/// Encodes a scalar to memory per its pre-resolved kind.
///
/// # Errors
/// Traps if the range is unmapped.
#[inline]
pub fn store_kind(mem: &mut Mem, kind: StoreKind, addr: u64, v: Value) -> Result<(), MemFault> {
    match kind {
        StoreKind::Raw(n) => mem.write(addr, &v.to_bits().to_le_bytes()[..n as usize]),
        StoreKind::F32 => {
            let f = match v {
                Value::Float(f) => f as f32,
                // Type-punned stores can happen in corrupted executions.
                other => f32::from_bits(other.to_bits() as u32),
            };
            mem.write(addr, &f.to_le_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemConfig, HEAP_BASE};

    #[test]
    fn normalize_sign_extends() {
        assert_eq!(normalize_int(0xFF, 8), -1);
        assert_eq!(normalize_int(0x7F, 8), 127);
        assert_eq!(normalize_int(0xFFFF_FFFF, 32), -1);
        assert_eq!(normalize_int(-1, 64), -1);
    }

    /// Stores `v` as a scalar of type `ty` at `a`, then loads it back.
    fn roundtrip(mem: &mut Mem, tt: &TypeTable, ty: TypeId, a: u64, v: Value) -> Value {
        store_kind(mem, StoreKind::of(tt, ty).unwrap(), a, v).unwrap();
        load_kind(mem, LoadKind::of(tt, ty).unwrap(), a).unwrap()
    }

    #[test]
    fn scalar_roundtrip() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let i32t = tt.int(32);
        let f32t = tt.float(32);
        let f64t = tt.float(64);
        let p = tt.void_ptr();

        let mut mem = Mem::new(&MemConfig::default());
        mem.grow_heap(64).unwrap();
        let a = HEAP_BASE;
        for (ty, v) in [
            (i8t, Value::Int(-5)),
            (i32t, Value::Int(123_456)),
            (f64t, Value::Float(3.25)),
            (f32t, Value::Float(1.5)),
            (p, Value::Ptr(0xdead_0000)),
        ] {
            assert_eq!(roundtrip(&mut mem, &tt, ty, a, v), v);
        }
    }

    #[test]
    fn narrow_int_store_truncates() {
        let mut tt = TypeTable::new();
        let i8t = tt.int(8);
        let mut mem = Mem::new(&MemConfig::default());
        mem.grow_heap(64).unwrap();
        let v = roundtrip(&mut mem, &tt, i8t, HEAP_BASE, Value::Int(0x1FF));
        assert_eq!(v, Value::Int(-1));
    }
}
