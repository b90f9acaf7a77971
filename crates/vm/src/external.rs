//! External (non-transformed) function registry and the native libc
//! subset.
//!
//! DPMR is an interprocedural transformation; code outside the program
//! (libc here) is not transformed. The VM resolves `Callee::External`
//! calls by name through this registry. The *base* registry holds native
//! implementations of a libc subset operating directly on simulated
//! memory; the DPMR external-code support library (in `dpmr-core`)
//! registers *wrapper* versions that add the replica/shadow behaviour of
//! Sec. 2.8.

use crate::interp::{Interp, Trap};
use crate::value::Value;
use std::collections::HashMap;
use std::rc::Rc;

/// An external function implementation.
pub type Handler =
    Rc<dyn for<'a, 'm> Fn(&'a mut Interp<'m>, &'a [Value]) -> Result<Option<Value>, Trap>>;

/// Name-to-handler registry.
#[derive(Default, Clone)]
pub struct Registry {
    map: HashMap<String, Handler>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.map.keys().cloned().collect();
        names.sort();
        write!(f, "Registry({names:?})")
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Creates a registry preloaded with the native libc subset.
    pub fn with_base() -> Registry {
        let mut r = Registry::new();
        register_base(&mut r);
        r
    }

    /// Registers (or replaces) a handler.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        handler: impl for<'a, 'm> Fn(&'a mut Interp<'m>, &'a [Value]) -> Result<Option<Value>, Trap>
            + 'static,
    ) {
        self.map.insert(name.into(), Rc::new(handler));
    }

    /// Looks up a handler by name.
    pub fn get(&self, name: &str) -> Option<Handler> {
        self.map.get(name).cloned()
    }

    /// All registered names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.map.keys().cloned().collect();
        v.sort();
        v
    }
}

fn arg_ptr(args: &[Value], i: usize) -> Result<u64, Trap> {
    match args.get(i) {
        Some(Value::Ptr(p)) => Ok(*p),
        Some(v) => Ok(v.to_bits()),
        None => Err(Trap::Invalid(format!("external: missing argument {i}"))),
    }
}

fn arg_int(args: &[Value], i: usize) -> Result<i64, Trap> {
    match args.get(i) {
        Some(Value::Int(v)) => Ok(*v),
        Some(v) => Ok(v.to_bits() as i64),
        None => Err(Trap::Invalid(format!("external: missing argument {i}"))),
    }
}

/// Registers the native libc subset into `r`.
#[allow(clippy::too_many_lines)]
fn register_base(r: &mut Registry) {
    r.register("strlen", |it, args| {
        let p = arg_ptr(args, 0)?;
        let s = it.read_c_string(p)?;
        it.charge(s.len() as u64);
        Ok(Some(Value::Int(s.len() as i64)))
    });

    r.register("strcpy", |it, args| {
        let dest = arg_ptr(args, 0)?;
        let src = arg_ptr(args, 1)?;
        let s = it.read_c_string(src)?;
        it.charge(2 * s.len() as u64 + 2);
        it.mem.write(dest, &s)?;
        it.mem.write(dest + s.len() as u64, &[0])?;
        Ok(Some(Value::Ptr(dest)))
    });

    r.register("strcmp", |it, args| {
        let a = arg_ptr(args, 0)?;
        let b = arg_ptr(args, 1)?;
        // Byte-by-byte, stopping at the first difference or NUL — does NOT
        // assume termination beyond what it reads (Sec. 3.1.5).
        let mut i = 0u64;
        loop {
            let ca = it.mem.read(a + i, 1)?[0];
            let cb = it.mem.read(b + i, 1)?[0];
            it.charge(2);
            if ca != cb {
                return Ok(Some(Value::Int(i64::from(ca) - i64::from(cb))));
            }
            if ca == 0 {
                return Ok(Some(Value::Int(0)));
            }
            i += 1;
            if i > 1 << 20 {
                return Err(Trap::Invalid("strcmp runaway".into()));
            }
        }
    });

    r.register("memcpy", |it, args| {
        let dest = arg_ptr(args, 0)?;
        let src = arg_ptr(args, 1)?;
        let n = u64::try_from(arg_int(args, 2)?.max(0)).unwrap_or(0);
        it.charge(n / 4 + 2);
        let bytes = it.mem.read(src, n as usize)?.to_vec();
        it.mem.write(dest, &bytes)?;
        Ok(Some(Value::Ptr(dest)))
    });

    r.register("memmove", |it, args| {
        let dest = arg_ptr(args, 0)?;
        let src = arg_ptr(args, 1)?;
        let n = u64::try_from(arg_int(args, 2)?.max(0)).unwrap_or(0);
        it.charge(n / 4 + 2);
        let bytes = it.mem.read(src, n as usize)?.to_vec();
        it.mem.write(dest, &bytes)?;
        Ok(Some(Value::Ptr(dest)))
    });

    r.register("memset", |it, args| {
        let dest = arg_ptr(args, 0)?;
        let c = arg_int(args, 1)? as u8;
        let n = u64::try_from(arg_int(args, 2)?.max(0)).unwrap_or(0);
        it.charge(n / 8 + 2);
        it.mem.fill(dest, n as usize, c)?;
        Ok(Some(Value::Ptr(dest)))
    });

    r.register("atoi", |it, args| {
        let p = arg_ptr(args, 0)?;
        // Parses like atoi: optional sign, digits, stops at the first
        // non-digit — reads only as much of the string as it consumes.
        let mut i = 0u64;
        let mut sign = 1i64;
        let mut val = 0i64;
        let first = it.mem.read(p, 1)?[0];
        if first == b'-' {
            sign = -1;
            i = 1;
        } else if first == b'+' {
            i = 1;
        }
        loop {
            let c = it.mem.read(p + i, 1)?[0];
            it.charge(1);
            if !c.is_ascii_digit() {
                break;
            }
            val = val.wrapping_mul(10).wrapping_add(i64::from(c - b'0'));
            i += 1;
            if i > 32 {
                break;
            }
        }
        Ok(Some(Value::Int(sign.wrapping_mul(val))))
    });

    r.register("sqrt", |it, args| {
        let v = match args.first() {
            Some(Value::Float(f)) => *f,
            Some(v) => f64::from_bits(v.to_bits()),
            None => return Err(Trap::Invalid("sqrt: missing argument".into())),
        };
        it.charge(20);
        Ok(Some(Value::Float(v.sqrt())))
    });

    r.register("qsort", qsort_native);
}

/// The native `qsort`: in-place insertion sort over simulated memory,
/// calling back into the IR comparator through its function pointer.
///
/// # Errors
/// Traps on memory faults or bad comparator pointers.
fn qsort_native(it: &mut Interp<'_>, args: &[Value]) -> Result<Option<Value>, Trap> {
    let base = arg_ptr(args, 0)?;
    let nmemb = u64::try_from(arg_int(args, 1)?.max(0)).unwrap_or(0);
    let size = u64::try_from(arg_int(args, 2)?.max(0)).unwrap_or(0);
    let cmp = arg_ptr(args, 3)?;
    if size == 0 || nmemb <= 1 {
        return Ok(None);
    }
    // Insertion sort: O(n^2) but deterministic and simple; workload sizes
    // are small. Element addresses wrap, as `indexaddr` does, so a wild
    // one faults when it is accessed.
    let elem = |j: u64| base.wrapping_add(j.wrapping_mul(size));
    for i in 1..nmemb {
        let mut j = i;
        while j > 0 {
            let a = elem(j - 1);
            let b = elem(j);
            let r = it.call_fn_ptr(cmp, vec![Value::Ptr(a), Value::Ptr(b)])?;
            let r = match r {
                Some(Value::Int(v)) => v,
                Some(v) => v.to_bits() as i64,
                None => return Err(Trap::Invalid("qsort comparator returned void".into())),
            };
            if r <= 0 {
                break;
            }
            // Swap elements a and b.
            let ab = it.mem.read(a, size as usize)?.to_vec();
            let bb = it.mem.read(b, size as usize)?.to_vec();
            it.mem.write(a, &bb)?;
            it.mem.write(b, &ab)?;
            it.charge(size / 2 + 4);
            j -= 1;
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_register_and_lookup() {
        let mut r = Registry::new();
        assert!(r.get("f").is_none());
        r.register("f", |_, _| Ok(Some(Value::Int(7))));
        assert!(r.get("f").is_some());
        assert_eq!(r.names(), vec!["f".to_string()]);
    }

    #[test]
    fn base_registry_has_libc_subset() {
        let r = Registry::with_base();
        for name in [
            "strlen", "strcpy", "strcmp", "memcpy", "memmove", "memset", "atoi", "qsort", "sqrt",
        ] {
            assert!(r.get(name).is_some(), "{name} missing from base registry");
        }
    }
}
