//! The DPMR external code support library (Sec. 2.8, 3.1.5, 4.3).
//!
//! For every external function the input program uses, DPMR substitutes an
//! *external function wrapper* that (1) performs the original behaviour,
//! and (2) performs the application-visible DPMR behaviour the external
//! function would have exhibited had it been transformed: replica stores,
//! shadow ROP/NSOP updates, load checks on memory it reads, and
//! ROP/NSOP (or ROP) propagation for pointer return values.
//!
//! Wrapper argument conventions (must match `transform.rs`), with K the
//! replication degree:
//!
//! * SDS: `[sdwSize]? [rvSop]? (arg, arg_r0..arg_r{K-1}, arg_s?)*` —
//!   `sdwSize` only for the size-carrying externals `qsort`/`memcpy`/
//!   `memmove` (Fig. 3.3), `rvSop` only when the external returns a
//!   pointer, `arg_s` only for pointer arguments.
//! * MDS: `[rvRopPtr]? (arg, arg_r0..arg_r{K-1}?)*` — with K >= 2 the
//!   `rvRopPtr` slot is an array of K ROPs.
//!
//! The wrapper registry is keyed by name alone, so one handler serves
//! every replication degree: each wrapper derives K from its call arity
//! (the shapes above make the arity a strictly increasing function of K),
//! checks reads against *every* replica, and mirrors writes into every
//! replica. At K = 1 the behaviour — including virtual-cycle charges — is
//! bit-identical to the single-replica wrappers.

use crate::config::Scheme;
use crate::transform::wrapper_name;
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

fn vptr(args: &[Value], i: usize) -> Result<u64, Trap> {
    args.get(i)
        .map(|v| v.to_bits())
        .ok_or_else(|| Trap::Invalid(format!("wrapper: missing argument {i}")))
}

fn vint(args: &[Value], i: usize) -> Result<i64, Trap> {
    args.get(i)
        .map(|v| v.to_bits() as i64)
        .ok_or_else(|| Trap::Invalid(format!("wrapper: missing argument {i}")))
}

/// A contiguous run of K replica pointers starting at argument `i`.
fn vptrs(args: &[Value], i: usize, k: usize) -> Result<Vec<u64>, Trap> {
    (i..i + k).map(|j| vptr(args, j)).collect()
}

/// Derives the replication degree K from a wrapper's call arity given the
/// arity formula `len = k_coeff * K + base` of its convention.
///
/// # Errors
/// Traps when the arity does not fit the convention for any K >= 1.
fn arity_k(name: &str, len: usize, k_coeff: usize, base: usize) -> Result<usize, Trap> {
    if len > base && (len - base).is_multiple_of(k_coeff) {
        Ok((len - base) / k_coeff)
    } else {
        Err(Trap::Invalid(format!(
            "wrapper {name}: arity {len} fits no replication degree"
        )))
    }
}

/// Compares `n` bytes of application memory against each replica; a
/// mismatch is a DPMR detection (the wrapper-level load check of
/// Sec. 2.8). The charge is per replica, so K = 1 costs what the
/// single-replica wrapper charged.
fn check_bytes(it: &mut Interp<'_>, app: u64, reps: &[u64], n: u64) -> Result<(), Trap> {
    it.charge((n / 4 + 1) * reps.len() as u64);
    for k in 0..n {
        let a = it.mem.read(app + k, 1)?[0];
        for &rep in reps {
            let b = it.mem.read(rep + k, 1)?[0];
            if a != b {
                return Err(Trap::Dpmr {
                    got: u64::from(a),
                    replica: u64::from(b),
                });
            }
        }
    }
    Ok(())
}

/// Reads a NUL-terminated string while simultaneously checking each byte
/// against every replica (emulated string parsing, Sec. 3.1.5: only the
/// bytes actually read are compared).
fn read_checked_string(it: &mut Interp<'_>, app: u64, reps: &[u64]) -> Result<Vec<u8>, Trap> {
    let mut out = Vec::new();
    let mut k = 0u64;
    loop {
        // All reads happen before the mismatch verdict (mapping traps
        // keep their precedence over DPMR detections), but only the
        // first divergent byte is remembered — no per-byte allocation.
        let a = it.mem.read(app + k, 1)?[0];
        let mut bad: Option<u8> = None;
        for &rep in reps {
            let b = it.mem.read(rep + k, 1)?[0];
            if bad.is_none() && a != b {
                bad = Some(b);
            }
        }
        it.charge(1 + reps.len() as u64);
        if let Some(b) = bad {
            return Err(Trap::Dpmr {
                got: u64::from(a),
                replica: u64::from(b),
            });
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

/// Stores K ROPs and the NSOP through an SDS `rvSop` argument (the shadow
/// struct lays the ROP fields out first, then the NSOP).
fn store_rv_sop(it: &mut Interp<'_>, rv_sop: u64, rops: &[u64], nsop: u64) -> Result<(), Trap> {
    for (k, &rop) in rops.iter().enumerate() {
        it.mem.write_u64(rv_sop + 8 * k as u64, rop)?;
    }
    it.mem.write_u64(rv_sop + 8 * rops.len() as u64, nsop)?;
    Ok(())
}

/// Stores K ROPs through an MDS `rvRopPtr` argument (a single slot at
/// K = 1, an array of K slots otherwise).
fn store_rv_rops(it: &mut Interp<'_>, rv_rop_ptr: u64, rops: &[u64]) -> Result<(), Trap> {
    for (k, &rop) in rops.iter().enumerate() {
        it.mem.write_u64(rv_rop_ptr + 8 * k as u64, rop)?;
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn register_wrappers(r: &mut Registry) {
    // ---------------- strlen ------------------------------------------
    // SDS: (p, p_r*K, p_s) ; MDS: (p, p_r*K)
    for (scheme, base) in [(Scheme::Sds, 2usize), (Scheme::Mds, 1usize)] {
        r.register(wrapper_name("strlen", scheme), move |it, args| {
            let k = arity_k("strlen", args.len(), 1, base)?;
            let p = vptr(args, 0)?;
            let p_r = vptrs(args, 1, k)?;
            let s = read_checked_string(it, p, &p_r)?;
            Ok(Some(Value::Int(s.len() as i64)))
        });
    }

    // ---------------- strcpy (Fig. 2.11) -------------------------------
    // SDS: (rvSop, dest, dest_r*K, dest_s, src, src_r*K, src_s) -> dest
    r.register(wrapper_name("strcpy", Scheme::Sds), |it, args| {
        let k = arity_k("strcpy", args.len(), 2, 5)?;
        let rv_sop = vptr(args, 0)?;
        let dest = vptr(args, 1)?;
        let dest_r = vptrs(args, 2, k)?;
        let dest_s = vptr(args, 2 + k)?;
        let src = vptr(args, 3 + k)?;
        let src_r = vptrs(args, 4 + k, k)?;
        // src is read: assert(strcmp(src, src_rk) == 0) for every replica.
        let s = read_checked_string(it, src, &src_r)?;
        it.charge(2 * s.len() as u64 + 2);
        // Original behaviour: copy into dest.
        it.mem.write(dest, &s)?;
        it.mem.write(dest + s.len() as u64, &[0])?;
        // dest is written: mimic in every replica memory (copy from dest).
        let written = it.mem.read(dest, s.len() + 1)?.to_vec();
        for &d_r in &dest_r {
            it.mem.write(d_r, &written)?;
        }
        // Return-value ROPs/NSOP.
        store_rv_sop(it, rv_sop, &dest_r, dest_s)?;
        Ok(Some(Value::Ptr(dest)))
    });
    // MDS: (rvRopPtr, dest, dest_r*K, src, src_r*K) -> dest
    r.register(wrapper_name("strcpy", Scheme::Mds), |it, args| {
        let k = arity_k("strcpy", args.len(), 2, 3)?;
        let rv_rop_ptr = vptr(args, 0)?;
        let dest = vptr(args, 1)?;
        let dest_r = vptrs(args, 2, k)?;
        let src = vptr(args, 2 + k)?;
        let src_r = vptrs(args, 3 + k, k)?;
        let s = read_checked_string(it, src, &src_r)?;
        it.charge(2 * s.len() as u64 + 2);
        it.mem.write(dest, &s)?;
        it.mem.write(dest + s.len() as u64, &[0])?;
        let written = it.mem.read(dest, s.len() + 1)?.to_vec();
        for &d_r in &dest_r {
            it.mem.write(d_r, &written)?;
        }
        store_rv_rops(it, rv_rop_ptr, &dest_r)?;
        Ok(Some(Value::Ptr(dest)))
    });

    // ---------------- strcmp -------------------------------------------
    // Emulates the parse to know exactly how much was read (Sec. 3.1.5).
    // SDS: (a, a_r*K, a_s, b, b_r*K, b_s); MDS: (a, a_r*K, b, b_r*K)
    for (scheme, k_coeff, base, skip_s) in [
        (Scheme::Sds, 2usize, 4usize, 1usize),
        (Scheme::Mds, 2, 2, 0),
    ] {
        r.register(wrapper_name("strcmp", scheme), move |it, args| {
            let kk = arity_k("strcmp", args.len(), k_coeff, base)?;
            let a = vptr(args, 0)?;
            let a_r = vptrs(args, 1, kk)?;
            let b_off = 1 + kk + skip_s;
            let b = vptr(args, b_off)?;
            let b_r = vptrs(args, b_off + 1, kk)?;
            let mut k = 0u64;
            loop {
                // Read order mirrors the single-replica wrapper exactly
                // (a, a_r.., b, b_r..) so mapping traps keep their
                // precedence at K = 1; only the first divergence per
                // side is remembered (no per-character allocation).
                let ca = it.mem.read(a + k, 1)?[0];
                let mut bad_a: Option<u8> = None;
                for &r in &a_r {
                    let ca_r = it.mem.read(r + k, 1)?[0];
                    if bad_a.is_none() && ca != ca_r {
                        bad_a = Some(ca_r);
                    }
                }
                let cb = it.mem.read(b + k, 1)?[0];
                let mut bad_b: Option<u8> = None;
                for &r in &b_r {
                    let cb_r = it.mem.read(r + k, 1)?[0];
                    if bad_b.is_none() && cb != cb_r {
                        bad_b = Some(cb_r);
                    }
                }
                it.charge(2 * (1 + kk as u64));
                if let Some(ca_r) = bad_a {
                    return Err(Trap::Dpmr {
                        got: u64::from(ca),
                        replica: u64::from(ca_r),
                    });
                }
                if let Some(cb_r) = bad_b {
                    return Err(Trap::Dpmr {
                        got: u64::from(cb),
                        replica: u64::from(cb_r),
                    });
                }
                if ca != cb {
                    return Ok(Some(Value::Int(i64::from(ca) - i64::from(cb))));
                }
                if ca == 0 {
                    return Ok(Some(Value::Int(0)));
                }
                k += 1;
                if k > 1 << 20 {
                    return Err(Trap::Invalid("strcmp runaway".into()));
                }
            }
        });
    }

    // ---------------- memcpy / memmove ---------------------------------
    // SDS: (sdwBytes, rvSop, dest, dest_r*K, dest_s, src, src_r*K, src_s, n)
    for name in ["memcpy", "memmove"] {
        r.register(wrapper_name(name, Scheme::Sds), move |it, args| {
            let k = arity_k(name, args.len(), 2, 7)?;
            let sdw_bytes = u64::try_from(vint(args, 0)?.max(0)).unwrap_or(0);
            let rv_sop = vptr(args, 1)?;
            let dest = vptr(args, 2)?;
            let dest_r = vptrs(args, 3, k)?;
            let dest_s = vptr(args, 3 + k)?;
            let src = vptr(args, 4 + k)?;
            let src_r = vptrs(args, 5 + k, k)?;
            let src_s = vptr(args, 5 + 2 * k)?;
            let n = u64::try_from(vint(args, 6 + 2 * k)?.max(0)).unwrap_or(0);
            // src is read: load-check it against every replica.
            check_bytes(it, src, &src_r, n)?;
            let bytes = it.mem.read(src, n as usize)?.to_vec();
            it.charge(n / 2 + 4);
            it.mem.write(dest, &bytes)?;
            for &d_r in &dest_r {
                it.mem.write(d_r, &bytes)?;
            }
            // Shadow data follow the copy.
            if sdw_bytes > 0 && dest_s != 0 && src_s != 0 {
                let sbytes = it.mem.read(src_s, sdw_bytes as usize)?.to_vec();
                it.mem.write(dest_s, &sbytes)?;
            }
            store_rv_sop(it, rv_sop, &dest_r, dest_s)?;
            Ok(Some(Value::Ptr(dest)))
        });
        // MDS: (rvRopPtr, dest, dest_r*K, src, src_r*K, n) — generic-type
        // operations apply identically to replica memory (Sec. 4.3); each
        // replica's copy comes from its own src_rk so stored ROPs stay
        // consistent.
        r.register(wrapper_name(name, Scheme::Mds), move |it, args| {
            let k = arity_k(name, args.len(), 2, 4)?;
            let rv_rop_ptr = vptr(args, 0)?;
            let dest = vptr(args, 1)?;
            let dest_r = vptrs(args, 2, k)?;
            let src = vptr(args, 2 + k)?;
            let src_r = vptrs(args, 3 + k, k)?;
            let n = u64::try_from(vint(args, 3 + 2 * k)?.max(0)).unwrap_or(0);
            // Read every source — application and replicas — *before* any
            // write: under a DSA exclusion plan a replica can alias the
            // application buffer, and a memmove with overlapping ranges
            // must not observe its own destination writes.
            let bytes = it.mem.read(src, n as usize)?.to_vec();
            let rbytes: Vec<Vec<u8>> = src_r
                .iter()
                .map(|&s_r| it.mem.read(s_r, n as usize).map(<[u8]>::to_vec))
                .collect::<Result<_, _>>()?;
            it.charge(n / 2 + 4);
            it.mem.write(dest, &bytes)?;
            for (d_r, rb) in dest_r.iter().zip(&rbytes) {
                it.mem.write(*d_r, rb)?;
            }
            store_rv_rops(it, rv_rop_ptr, &dest_r)?;
            Ok(Some(Value::Ptr(dest)))
        });
    }

    // ---------------- memset -------------------------------------------
    // SDS: (rvSop, dest, dest_r*K, dest_s, c, n)
    // MDS: (rvRopPtr, dest, dest_r*K, c, n)
    r.register(wrapper_name("memset", Scheme::Sds), |it, args| {
        let k = arity_k("memset", args.len(), 1, 5)?;
        let rv_sop = vptr(args, 0)?;
        let dest = vptr(args, 1)?;
        let dest_r = vptrs(args, 2, k)?;
        let dest_s = vptr(args, 2 + k)?;
        let c = vint(args, 3 + k)? as u8;
        let n = u64::try_from(vint(args, 4 + k)?.max(0)).unwrap_or(0);
        it.charge(n / 4 + 2);
        it.mem.fill(dest, n as usize, c)?;
        for &d_r in &dest_r {
            it.mem.fill(d_r, n as usize, c)?;
        }
        store_rv_sop(it, rv_sop, &dest_r, dest_s)?;
        Ok(Some(Value::Ptr(dest)))
    });
    r.register(wrapper_name("memset", Scheme::Mds), |it, args| {
        let k = arity_k("memset", args.len(), 1, 4)?;
        let rv_rop_ptr = vptr(args, 0)?;
        let dest = vptr(args, 1)?;
        let dest_r = vptrs(args, 2, k)?;
        let c = vint(args, 2 + k)? as u8;
        let n = u64::try_from(vint(args, 3 + k)?.max(0)).unwrap_or(0);
        it.charge(n / 4 + 2);
        it.mem.fill(dest, n as usize, c)?;
        for &d_r in &dest_r {
            it.mem.fill(d_r, n as usize, c)?;
        }
        store_rv_rops(it, rv_rop_ptr, &dest_r)?;
        Ok(Some(Value::Ptr(dest)))
    });

    // ---------------- atoi ----------------------------------------------
    // Reads only the characters it consumes (like the atof discussion of
    // Sec. 3.1.5), checking each against every replica.
    for (scheme, base) in [(Scheme::Sds, 2usize), (Scheme::Mds, 1usize)] {
        r.register(wrapper_name("atoi", scheme), move |it, args| {
            let kk = arity_k("atoi", args.len(), 1, base)?;
            let p = vptr(args, 0)?;
            let p_r = vptrs(args, 1, kk)?;
            let mut k = 0u64;
            let mut sign = 1i64;
            let mut val = 0i64;
            let check = |it: &mut Interp<'_>, k: u64| -> Result<u8, Trap> {
                let a = it.mem.read(p + k, 1)?[0];
                for &r in &p_r {
                    let b = it.mem.read(r + k, 1)?[0];
                    if a != b {
                        return Err(Trap::Dpmr {
                            got: u64::from(a),
                            replica: u64::from(b),
                        });
                    }
                }
                Ok(a)
            };
            let first = check(it, 0)?;
            if first == b'-' {
                sign = -1;
                k = 1;
            } else if first == b'+' {
                k = 1;
            }
            loop {
                let c = check(it, k)?;
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
            Ok(Some(Value::Int(sign * val)))
        });
    }

    // ---------------- sqrt ----------------------------------------------
    // No pointer arguments: the wrapper is the original behaviour.
    for scheme in [Scheme::Sds, Scheme::Mds] {
        r.register(wrapper_name("sqrt", scheme), |it, args| {
            let v = f64::from_bits(
                args.first()
                    .ok_or_else(|| Trap::Invalid("sqrt: missing argument".into()))?
                    .to_bits(),
            );
            let v = match args.first() {
                Some(Value::Float(f)) => *f,
                _ => v,
            };
            it.charge(20);
            Ok(Some(Value::Float(v.sqrt())))
        });
    }

    // ---------------- qsort (Fig. 3.3) -----------------------------------
    // SDS: (sdwSize, base, base_r*K, base_s, nmemb, size, cmp, cmp_r*K, cmp_s)
    r.register(wrapper_name("qsort", Scheme::Sds), |it, args| {
        let k = arity_k("qsort", args.len(), 2, 7)?;
        let sdw_size = u64::try_from(vint(args, 0)?.max(0)).unwrap_or(0);
        let base = vptr(args, 1)?;
        let base_r = vptrs(args, 2, k)?;
        let base_s = vptr(args, 2 + k)?;
        let nmemb = u64::try_from(vint(args, 3 + k)?.max(0)).unwrap_or(0);
        let size = u64::try_from(vint(args, 4 + k)?.max(0)).unwrap_or(0);
        let cmp = vptr(args, 5 + k)?;
        qsort_wrapper(
            it,
            base,
            &base_r,
            (base_s != 0 && sdw_size > 0).then_some((base_s, sdw_size)),
            nmemb,
            size,
            cmp,
            Scheme::Sds,
        )
    });
    // MDS: (base, base_r*K, nmemb, size, cmp, cmp_r*K)
    r.register(wrapper_name("qsort", Scheme::Mds), |it, args| {
        let k = arity_k("qsort", args.len(), 2, 4)?;
        let base = vptr(args, 0)?;
        let base_r = vptrs(args, 1, k)?;
        let nmemb = u64::try_from(vint(args, 1 + k)?.max(0)).unwrap_or(0);
        let size = u64::try_from(vint(args, 2 + k)?.max(0)).unwrap_or(0);
        let cmp = vptr(args, 3 + k)?;
        qsort_wrapper(it, base, &base_r, None, nmemb, size, cmp, Scheme::Mds)
    });
}

/// In-place insertion sort keeping application, every replica, and shadow
/// arrays in lock-step, calling the *augmented* comparator.
#[allow(clippy::too_many_arguments)]
fn qsort_wrapper(
    it: &mut Interp<'_>,
    base: u64,
    base_r: &[u64],
    shadow: Option<(u64, u64)>,
    nmemb: u64,
    size: u64,
    cmp: u64,
    scheme: Scheme,
) -> Result<Option<Value>, Trap> {
    if size == 0 || nmemb <= 1 {
        return Ok(None);
    }
    // Element addresses wrap, as `indexaddr` does, so a wild one faults
    // when it is accessed.
    let elem = |base: u64, j: u64, size: u64| base.wrapping_add(j.wrapping_mul(size));
    let elem_args = |j: u64, k: u64| -> Vec<Value> {
        let mut v = Vec::with_capacity(2 * (base_r.len() + 2));
        for e in [j, k] {
            v.push(Value::Ptr(elem(base, e, size)));
            for &b_r in base_r {
                v.push(Value::Ptr(elem(b_r, e, size)));
            }
            if scheme == Scheme::Sds {
                let s = match shadow {
                    Some((sb, ss)) => elem(sb, e, ss),
                    None => 0,
                };
                v.push(Value::Ptr(s));
            }
        }
        v
    };
    let mut bases = Vec::with_capacity(base_r.len() + 1);
    bases.push(base);
    bases.extend_from_slice(base_r);
    for i in 1..nmemb {
        let mut j = i;
        while j > 0 {
            let r = it.call_fn_ptr(cmp, elem_args(j - 1, j))?;
            let r = r.map(|v| v.to_bits() as i64).unwrap_or(0);
            if r <= 0 {
                break;
            }
            // Swap in every space.
            for &b0 in &bases {
                let a = elem(b0, j - 1, size);
                let b = elem(b0, j, size);
                let ab = it.mem.read(a, size as usize)?.to_vec();
                let bb = it.mem.read(b, size as usize)?.to_vec();
                it.mem.write(a, &bb)?;
                it.mem.write(b, &ab)?;
            }
            if let Some((sb, ss)) = shadow {
                let a = elem(sb, j - 1, ss);
                let b = elem(sb, j, ss);
                let ab = it.mem.read(a, ss as usize)?.to_vec();
                let bb = it.mem.read(b, ss as usize)?.to_vec();
                it.mem.write(a, &bb)?;
                it.mem.write(b, &ab)?;
            }
            it.charge(size + 6);
            j -= 1;
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn arity_formulas_recover_k() {
        // strlen SDS: len = K + 2.
        assert_eq!(arity_k("strlen", 3, 1, 2).unwrap(), 1);
        assert_eq!(arity_k("strlen", 4, 1, 2).unwrap(), 2);
        // qsort SDS: len = 2K + 7.
        assert_eq!(arity_k("qsort", 9, 2, 7).unwrap(), 1);
        assert_eq!(arity_k("qsort", 11, 2, 7).unwrap(), 2);
        // A misfit arity must trap, not mis-index.
        assert!(arity_k("qsort", 10, 2, 7).is_err());
        assert!(arity_k("strlen", 2, 1, 2).is_err());
    }
}
