//! The DPMR external code support library (Sec. 2.8, 3.1.5, 4.3).
//!
//! For every external function the input program uses, DPMR substitutes an
//! *external function wrapper* that (1) performs the original behaviour,
//! and (2) performs the application-visible DPMR behaviour the external
//! function would have exhibited had it been transformed: replica stores,
//! shadow ROP/NSOP updates, load checks on memory it reads, and
//! ROP/NSOP (or ROP) propagation for pointer return values.
//!
//! # Calling convention
//!
//! A wrapper call passes, in order: `sdwSize` (only for the
//! size-carrying externals under SDS, Fig. 3.3), the return-value slot
//! (only for an external returning a pointer: `rvSop` under SDS, an array
//! of K ROPs under MDS), then the external's own arguments, each scalar
//! as itself and each pointer augmented to `p, p_r0..p_r{K-1}` plus
//! `p_s` under SDS. With K the replication degree, a call's arity is
//!
//! `sized + rv + scalars + ptrs * (1 + K + [SDS])`,
//!
//! which `transform.rs` emits and `WrapperArgs` alone decodes: the
//! registry is keyed by name alone, so one handler serves every degree,
//! derives K from the arity, checks reads against *every* replica, and
//! mirrors writes into every replica. At K = 1 the behaviour — including
//! virtual-cycle charges — is bit-identical to the single-replica
//! wrappers.

use crate::config::Scheme;
use crate::transform::{wrapper_name, SIZE_CARRYING_EXTERNALS};
use dpmr_vm::external::Registry;
use dpmr_vm::interp::{Interp, Trap};
use dpmr_vm::value::Value;

/// Builds a registry containing the native libc subset plus the SDS and
/// MDS wrapper implementations for all supported externals.
pub fn registry_with_wrappers() -> Registry {
    let mut r = Registry::with_base();
    register_wrappers(&mut r);
    r
}

/// A wrapped external's parameters: how many are pointers and how many
/// scalars, and whether it returns a pointer.
#[derive(Clone, Copy)]
struct Shape {
    ptrs: usize,
    scalars: usize,
    ret_ptr: bool,
}

const fn shape(ptrs: usize, scalars: usize, ret_ptr: bool) -> Shape {
    Shape {
        ptrs,
        scalars,
        ret_ptr,
    }
}

/// The shape of every external with a wrapper of its own (`sqrt` has no
/// pointer to replicate, so its wrappers are the base `sqrt`).
const SHAPES: &[(&str, Shape)] = &[
    ("strlen", shape(1, 0, false)),
    ("strcpy", shape(2, 0, true)),
    ("strcmp", shape(2, 0, false)),
    ("memcpy", shape(2, 1, true)),
    ("memmove", shape(2, 1, true)),
    ("memset", shape(1, 2, true)),
    ("atoi", shape(1, 0, false)),
    ("qsort", shape(2, 2, false)),
];

/// One augmented pointer argument: the application pointer, its K
/// replica object pointers and, under SDS, its shadow object pointer.
struct AugPtr<'a> {
    app: u64,
    reps: &'a [Value],
    shadow: Option<u64>,
}

impl AugPtr<'_> {
    /// The replica object pointers in replica order.
    fn reps(&self) -> impl Iterator<Item = u64> + '_ {
        self.reps.iter().map(|v| v.to_bits())
    }
}

/// The arguments of one wrapper call, decoded by the calling convention
/// of the module doc: K comes from the arity, then [`WrapperArgs::int`]
/// and [`WrapperArgs::ptr`] hand out the external's own arguments in
/// call order.
struct WrapperArgs<'a> {
    args: &'a [Value],
    next: usize,
    k: usize,
    sds: bool,
    /// `sdwSize`, for the size-carrying externals under SDS (else 0).
    sdw_size: u64,
    /// The `rvSop`/`rvRopPtr` slot, for pointer-returning externals.
    rv: u64,
}

impl<'a> WrapperArgs<'a> {
    /// # Errors
    /// Traps when the arity fits `shape` at no K >= 1.
    fn decode(
        name: &str,
        scheme: Scheme,
        shape: Shape,
        args: &'a [Value],
    ) -> Result<WrapperArgs<'a>, Trap> {
        let sds = scheme == Scheme::Sds;
        let sized = sds && SIZE_CARRYING_EXTERNALS.contains(&name);
        let base = usize::from(sized)
            + usize::from(shape.ret_ptr)
            + shape.scalars
            + shape.ptrs * (1 + usize::from(sds));
        let len = args.len();
        if len <= base || !(len - base).is_multiple_of(shape.ptrs) {
            return Err(Trap::Invalid(format!(
                "wrapper {name}: arity {len} fits no replication degree"
            )));
        }
        let mut a = WrapperArgs {
            args,
            next: 0,
            k: (len - base) / shape.ptrs,
            sds,
            sdw_size: 0,
            rv: 0,
        };
        if sized {
            a.sdw_size = a.size();
        }
        if shape.ret_ptr {
            a.rv = a.word();
        }
        Ok(a)
    }

    fn word(&mut self) -> u64 {
        self.next += 1;
        self.args[self.next - 1].to_bits()
    }

    /// The next scalar argument.
    fn int(&mut self) -> i64 {
        self.word() as i64
    }

    /// The next scalar argument as a count (a negative one is 0).
    fn size(&mut self) -> u64 {
        u64::try_from(self.int().max(0)).unwrap_or(0)
    }

    /// The next augmented pointer argument.
    fn ptr(&mut self) -> AugPtr<'a> {
        let app = self.word();
        let reps = &self.args[self.next..self.next + self.k];
        self.next += self.k;
        let shadow = self.sds.then(|| self.word());
        AugPtr { app, reps, shadow }
    }
}

/// The byte at offset `k` of application memory, compared with each
/// replica in turn: the first mismatch is a DPMR detection (the
/// wrapper-level load check of Sec. 2.8).
fn check_byte(it: &mut Interp<'_>, p: &AugPtr<'_>, k: u64) -> Result<u8, Trap> {
    let a = it.mem.read(p.app + k, 1)?[0];
    for rep in p.reps() {
        let b = it.mem.read(rep + k, 1)?[0];
        if a != b {
            return Err(mismatch(a, b));
        }
    }
    Ok(a)
}

/// Checks `n` bytes with [`check_byte`]. The charge is per replica, so
/// K = 1 costs what the single-replica wrapper charged.
fn check_bytes(it: &mut Interp<'_>, p: &AugPtr<'_>, n: u64) -> Result<(), Trap> {
    it.charge((n / 4 + 1).saturating_mul(p.reps.len() as u64));
    for k in 0..n {
        check_byte(it, p, k)?;
    }
    Ok(())
}

/// Reads the byte at offset `k` of the application and of every replica
/// (all reads come before the verdict, so mapping traps keep their
/// precedence over DPMR detections) and returns the application byte
/// with the first divergent replica byte, if any.
fn read_checked(it: &mut Interp<'_>, p: &AugPtr<'_>, k: u64) -> Result<(u8, Option<u8>), Trap> {
    let a = it.mem.read(p.app + k, 1)?[0];
    let mut bad = None;
    for rep in p.reps() {
        let b = it.mem.read(rep + k, 1)?[0];
        if bad.is_none() && a != b {
            bad = Some(b);
        }
    }
    Ok((a, bad))
}

fn mismatch(got: u8, replica: u8) -> Trap {
    Trap::Dpmr {
        got: u64::from(got),
        replica: u64::from(replica),
    }
}

/// Reads a NUL-terminated string while simultaneously checking each byte
/// against every replica (emulated string parsing, Sec. 3.1.5: only the
/// bytes actually read are compared).
fn read_checked_string(it: &mut Interp<'_>, p: &AugPtr<'_>) -> Result<Vec<u8>, Trap> {
    let mut out = Vec::new();
    let mut k = 0u64;
    loop {
        let (a, bad) = read_checked(it, p, k)?;
        it.charge(1 + p.reps.len() as u64);
        if let Some(b) = bad {
            return Err(mismatch(a, b));
        }
        if a == 0 {
            return Ok(out);
        }
        out.push(a);
        k += 1;
        if out.len() > 1 << 20 {
            return Err(Trap::Invalid("unterminated string".into()));
        }
    }
}

/// Stores the ROPs of a returned pointer through the `rvSop`/`rvRopPtr`
/// slot, then under SDS its NSOP (the shadow struct lays the ROP fields
/// out first, then the NSOP).
fn store_rv(it: &mut Interp<'_>, rv: u64, p: &AugPtr<'_>) -> Result<(), Trap> {
    for (i, rop) in p.reps().chain(p.shadow).enumerate() {
        it.mem.write_u64(rv.wrapping_add(8 * i as u64), rop)?;
    }
    Ok(())
}

type Body = fn(&mut Interp<'_>, &mut WrapperArgs<'_>) -> Result<Option<Value>, Trap>;

/// Registers `body` as `name`'s SDS and MDS wrappers.
fn register(r: &mut Registry, name: &'static str, body: Body) {
    let (name, shape) = SHAPES.iter().find(|s| s.0 == name).expect("shape");
    for scheme in [Scheme::Sds, Scheme::Mds] {
        r.register(wrapper_name(name, scheme), move |it, args| {
            body(it, &mut WrapperArgs::decode(name, scheme, *shape, args)?)
        });
    }
}

fn register_wrappers(r: &mut Registry) {
    register(r, "strlen", |it, a| {
        let s = read_checked_string(it, &a.ptr())?;
        Ok(Some(Value::Int(s.len() as i64)))
    });

    // Fig. 2.11.
    register(r, "strcpy", |it, a| {
        let (dest, src) = (a.ptr(), a.ptr());
        // src is read: assert(strcmp(src, src_rk) == 0) for every replica.
        let s = read_checked_string(it, &src)?;
        it.charge(2 * s.len() as u64 + 2);
        // Original behaviour: copy into dest.
        it.mem.write(dest.app, &s)?;
        it.mem.write(dest.app + s.len() as u64, &[0])?;
        // dest is written: mimic in every replica memory (copy from dest).
        let written = it.mem.read(dest.app, s.len() + 1)?.to_vec();
        for d_r in dest.reps() {
            it.mem.write(d_r, &written)?;
        }
        store_rv(it, a.rv, &dest)?;
        Ok(Some(Value::Ptr(dest.app)))
    });

    // Emulates the parse to know exactly how much was read (Sec. 3.1.5).
    register(r, "strcmp", |it, a| {
        let (x, y) = (a.ptr(), a.ptr());
        let mut k = 0u64;
        loop {
            // Read order mirrors the single-replica wrapper exactly
            // (x, x_r.., y, y_r..) so mapping traps keep their
            // precedence at K = 1.
            let (cx, bad_x) = read_checked(it, &x, k)?;
            let (cy, bad_y) = read_checked(it, &y, k)?;
            it.charge(2 * (1 + a.k as u64));
            if let Some(b) = bad_x {
                return Err(mismatch(cx, b));
            }
            if let Some(b) = bad_y {
                return Err(mismatch(cy, b));
            }
            if cx != cy {
                return Ok(Some(Value::Int(i64::from(cx) - i64::from(cy))));
            }
            if cx == 0 {
                return Ok(Some(Value::Int(0)));
            }
            k += 1;
            if k > 1 << 20 {
                return Err(Trap::Invalid("strcmp runaway".into()));
            }
        }
    });

    for name in ["memcpy", "memmove"] {
        register(r, name, |it, a| {
            if a.sds {
                copy_sds(it, a)
            } else {
                copy_mds(it, a)
            }
        });
    }

    register(r, "memset", |it, a| {
        let dest = a.ptr();
        let c = a.int() as u8;
        let n = a.size();
        it.charge(n / 4 + 2);
        it.mem.fill(dest.app, n as usize, c)?;
        for d_r in dest.reps() {
            it.mem.fill(d_r, n as usize, c)?;
        }
        store_rv(it, a.rv, &dest)?;
        Ok(Some(Value::Ptr(dest.app)))
    });

    // Reads only the characters it consumes (like the atof discussion of
    // Sec. 3.1.5), checking each against every replica.
    register(r, "atoi", |it, a| {
        let p = a.ptr();
        let mut k = 0u64;
        let mut sign = 1i64;
        let mut val = 0i64;
        let first = check_byte(it, &p, 0)?;
        if first == b'-' {
            sign = -1;
            k = 1;
        } else if first == b'+' {
            k = 1;
        }
        loop {
            let c = check_byte(it, &p, k)?;
            it.charge(2);
            if !c.is_ascii_digit() {
                break;
            }
            val = val.wrapping_mul(10).wrapping_add(i64::from(c - b'0'));
            k += 1;
            if k > 32 {
                break;
            }
        }
        Ok(Some(Value::Int(sign.wrapping_mul(val))))
    });

    // Fig. 3.3: an in-place insertion sort keeping the application,
    // every replica and the shadow array in lock-step, calling the
    // *augmented* comparator.
    register(r, "qsort", |it, a| {
        let base = a.ptr();
        let (nmemb, size) = (a.size(), a.size());
        let cmp = a.ptr().app;
        if size == 0 || nmemb <= 1 {
            return Ok(None);
        }
        let shadow = (base.shadow)
            .filter(|&s| s != 0 && a.sdw_size > 0)
            .map(|s| (s, a.sdw_size));
        // Element addresses wrap, as `indexaddr` does, so a wild one
        // faults when it is accessed.
        let elem = |b: u64, j: u64, size: u64| b.wrapping_add(j.wrapping_mul(size));
        let bases: Vec<u64> = std::iter::once(base.app).chain(base.reps()).collect();
        let elem_args = |j: u64, k: u64| -> Vec<Value> {
            let mut v = Vec::with_capacity(2 * (bases.len() + 1));
            for e in [j, k] {
                v.extend(bases.iter().map(|&b| Value::Ptr(elem(b, e, size))));
                if base.shadow.is_some() {
                    let s = shadow.map_or(0, |(sb, ss)| elem(sb, e, ss));
                    v.push(Value::Ptr(s));
                }
            }
            v
        };
        for i in 1..nmemb {
            let mut j = i;
            while j > 0 {
                let r = it.call_fn_ptr(cmp, elem_args(j - 1, j))?;
                if r.map_or(0, |v| v.to_bits() as i64) <= 0 {
                    break;
                }
                for &b in &bases {
                    swap(it, elem(b, j - 1, size), elem(b, j, size), size)?;
                }
                if let Some((sb, ss)) = shadow {
                    swap(it, elem(sb, j - 1, ss), elem(sb, j, ss), ss)?;
                }
                it.charge(size + 6);
                j -= 1;
            }
        }
        Ok(None)
    });

    // No pointer arguments: the wrapper is the original behaviour.
    let sqrt = r.get("sqrt").expect("base sqrt");
    for scheme in [Scheme::Sds, Scheme::Mds] {
        let sqrt = sqrt.clone();
        r.register(wrapper_name("sqrt", scheme), move |it, args| sqrt(it, args));
    }
}

/// SDS `memcpy`/`memmove`: the source is load-checked against every
/// replica, the application bytes are written to every destination, and
/// the shadow data follow the copy.
fn copy_sds(it: &mut Interp<'_>, a: &mut WrapperArgs<'_>) -> Result<Option<Value>, Trap> {
    let (dest, src) = (a.ptr(), a.ptr());
    let n = a.size();
    check_bytes(it, &src, n)?;
    let bytes = it.mem.read(src.app, n as usize)?.to_vec();
    it.charge(n / 2 + 4);
    it.mem.write(dest.app, &bytes)?;
    for d_r in dest.reps() {
        it.mem.write(d_r, &bytes)?;
    }
    if let (Some(dest_s), Some(src_s)) = (dest.shadow, src.shadow) {
        if a.sdw_size > 0 && dest_s != 0 && src_s != 0 {
            let sbytes = it.mem.read(src_s, a.sdw_size as usize)?.to_vec();
            it.mem.write(dest_s, &sbytes)?;
        }
    }
    store_rv(it, a.rv, &dest)?;
    Ok(Some(Value::Ptr(dest.app)))
}

/// MDS `memcpy`/`memmove`: generic-type operations apply identically to
/// replica memory (Sec. 4.3), so each replica's copy comes from its own
/// source replica and stored ROPs stay consistent.
fn copy_mds(it: &mut Interp<'_>, a: &mut WrapperArgs<'_>) -> Result<Option<Value>, Trap> {
    let (dest, src) = (a.ptr(), a.ptr());
    let n = a.size();
    // Read every source — application and replicas — *before* any
    // write: under a DSA exclusion plan a replica can alias the
    // application buffer, and a memmove with overlapping ranges must not
    // observe its own destination writes.
    let bytes = it.mem.read(src.app, n as usize)?.to_vec();
    let rbytes: Vec<Vec<u8>> = src
        .reps()
        .map(|s_r| it.mem.read(s_r, n as usize).map(<[u8]>::to_vec))
        .collect::<Result<_, _>>()?;
    it.charge(n / 2 + 4);
    it.mem.write(dest.app, &bytes)?;
    for (d_r, rb) in dest.reps().zip(&rbytes) {
        it.mem.write(d_r, rb)?;
    }
    store_rv(it, a.rv, &dest)?;
    Ok(Some(Value::Ptr(dest.app)))
}

/// Swaps the `n`-byte elements at `a` and `b`.
fn swap(it: &mut Interp<'_>, a: u64, b: u64, n: u64) -> Result<(), Trap> {
    let ab = it.mem.read(a, n as usize)?.to_vec();
    let bb = it.mem.read(b, n as usize)?.to_vec();
    it.mem.write(a, &bb)?;
    it.mem.write(b, &ab)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpmrConfig;
    use crate::transform::transform;
    use dpmr_ir::module::Module;
    use dpmr_ir::types::TypeKind;

    #[test]
    fn wrapper_registry_contains_both_schemes() {
        let r = registry_with_wrappers();
        for base in [
            "strlen", "strcpy", "strcmp", "memcpy", "memmove", "memset", "atoi", "qsort", "sqrt",
        ] {
            assert!(
                r.get(&wrapper_name(base, Scheme::Sds)).is_some(),
                "missing SDS wrapper for {base}"
            );
            assert!(
                r.get(&wrapper_name(base, Scheme::Mds)).is_some(),
                "missing MDS wrapper for {base}"
            );
            assert!(r.get(base).is_some(), "missing base handler for {base}");
        }
    }

    /// Every wrapped external with its libc signature, transformed at
    /// `cfg`: the wrapper declarations are the emitter's side of the
    /// calling convention.
    fn emitted_arities(cfg: &DpmrConfig) -> Vec<(&'static str, usize)> {
        let mut m = Module::new();
        let i64t = m.types.int(64);
        let vp = m.types.void_ptr();
        let i8t = m.types.int(8);
        let str_arr = m.types.unsized_array(i8t);
        let sp = m.types.pointer(str_arr);
        let cmp_ty = m.types.function(i64t, vec![vp, vp]);
        let cmp = m.types.pointer(cmp_ty);
        let void = m.types.void();
        for (name, ret, params) in [
            ("strlen", i64t, vec![sp]),
            ("strcpy", sp, vec![sp, sp]),
            ("strcmp", i64t, vec![sp, sp]),
            ("memcpy", vp, vec![vp, vp, i64t]),
            ("memmove", vp, vec![vp, vp, i64t]),
            ("memset", vp, vec![vp, i64t, i64t]),
            ("atoi", i64t, vec![sp]),
            ("qsort", void, vec![vp, i64t, i64t, cmp]),
        ] {
            let ty = m.types.function(ret, params);
            m.declare_external(name, ty);
        }
        let t = transform(&m, cfg).expect("transform");
        SHAPES
            .iter()
            .map(|&(name, _)| {
                let wrapper = wrapper_name(name, cfg.scheme);
                let e = t.externals.iter().find(|e| e.name == wrapper);
                match t.types.kind(e.expect("wrapper declared").ty) {
                    TypeKind::Function { params, .. } => (name, params.len()),
                    other => panic!("{wrapper}: {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn decoder_agrees_with_the_emitted_arities() {
        for base in [DpmrConfig::sds(), DpmrConfig::mds()] {
            let scheme = base.scheme;
            let by_k: Vec<_> = (1..=3)
                .map(|k| emitted_arities(&base.clone().with_replicas(k)))
                .collect();
            for (i, &(name, shape)) in SHAPES.iter().enumerate() {
                let fits: Vec<usize> = by_k.iter().map(|a| a[i].1).collect();
                for (k, &len) in (1..).zip(&fits) {
                    // K is recovered, and the external's own arguments
                    // use up the call exactly.
                    let args = vec![Value::Int(0); len];
                    let mut a = WrapperArgs::decode(name, scheme, shape, &args)
                        .unwrap_or_else(|e| panic!("{name} K={k}: {e:?}"));
                    assert_eq!(a.k, k, "{name} {scheme:?}");
                    for _ in 0..shape.ptrs {
                        assert_eq!(a.ptr().reps.len(), k);
                    }
                    for _ in 0..shape.scalars {
                        a.int();
                    }
                    assert_eq!(a.next, len, "{name} {scheme:?} K={k}");
                }
                // Every arity below K = 3's that no K emits traps.
                for len in (0..fits[2]).filter(|n| !fits.contains(n)) {
                    let args = vec![Value::Int(0); len];
                    match WrapperArgs::decode(name, scheme, shape, &args) {
                        Err(Trap::Invalid(msg)) => assert_eq!(
                            msg,
                            format!("wrapper {name}: arity {len} fits no replication degree")
                        ),
                        Err(e) => panic!("{name} arity {len}: {e:?}"),
                        Ok(a) => panic!("{name} arity {len} decoded as K = {}", a.k),
                    }
                }
            }
        }
    }
}
