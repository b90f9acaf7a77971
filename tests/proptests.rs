//! Property-based tests (proptest) on the core data structures and
//! invariants: the shadow/augmented type algebra, the heap allocator,
//! scalar encoding, and end-to-end behaviour preservation over randomized
//! program parameters.

use dpmr::prelude::*;
use dpmr::vm::alloc::{Allocator, FreeOutcome, GRANULE, MIN_PAYLOAD};
use dpmr::vm::mem::{Mem, MemConfig};
use dpmr::vm::value::normalize_int;
use dpmr::workloads::micro;
use proptest::prelude::*;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Type algebra properties
// ---------------------------------------------------------------------

/// A recipe for building a random type tree inside a fresh table.
#[derive(Debug, Clone)]
enum TyRecipe {
    I8,
    I32,
    I64,
    F64,
    Ptr(Box<TyRecipe>),
    Array(Box<TyRecipe>, u8),
    Struct(Vec<TyRecipe>),
}

fn recipe_strategy() -> impl Strategy<Value = TyRecipe> {
    let leaf = prop_oneof![
        Just(TyRecipe::I8),
        Just(TyRecipe::I32),
        Just(TyRecipe::I64),
        Just(TyRecipe::F64),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|t| TyRecipe::Ptr(Box::new(t))),
            (inner.clone(), 1u8..5).prop_map(|(t, n)| TyRecipe::Array(Box::new(t), n)),
            proptest::collection::vec(inner, 1..4).prop_map(TyRecipe::Struct),
        ]
    })
}

fn build_ty(tt: &mut TypeTable, r: &TyRecipe) -> TypeId {
    match r {
        TyRecipe::I8 => tt.int(8),
        TyRecipe::I32 => tt.int(32),
        TyRecipe::I64 => tt.int(64),
        TyRecipe::F64 => tt.float(64),
        TyRecipe::Ptr(t) => {
            let inner = build_ty(tt, t);
            tt.pointer(inner)
        }
        TyRecipe::Array(t, n) => {
            let inner = build_ty(tt, t);
            tt.array(inner, u64::from(*n))
        }
        TyRecipe::Struct(fs) => {
            let fields: Vec<TypeId> = fs.iter().map(|f| build_ty(tt, f)).collect();
            tt.struct_type("p", fields)
        }
    }
}

proptest! {
    /// `at` is the identity on function-free types (Sec. 2.3: "most
    /// program types remain the same").
    #[test]
    fn at_is_identity_without_function_types(r in recipe_strategy()) {
        let mut tt = TypeTable::new();
        let t = build_ty(&mut tt, &r);
        let mut alg = TypeAlgebra::new(Scheme::Sds);
        prop_assert_eq!(alg.at(&mut tt, t), t);
    }

    /// `st(t)` is null exactly when `t` contains no pointer outside
    /// function types (Table 2.1's null-dropping rule).
    #[test]
    fn st_null_iff_no_pointers(r in recipe_strategy()) {
        let mut tt = TypeTable::new();
        let t = build_ty(&mut tt, &r);
        let mut alg = TypeAlgebra::new(Scheme::Sds);
        let has_ptr = tt.contains_pointer_outside_fun(t);
        prop_assert_eq!(alg.st(&mut tt, t).is_some(), has_ptr);
    }

    /// The Sec. 2.9 bound: 2 × sizeof(at(t)) bytes always suffice for the
    /// shadow object (the case where everything is a pointer).
    #[test]
    fn shadow_size_bounded_by_twice_augmented(r in recipe_strategy()) {
        let mut tt = TypeTable::new();
        let t = build_ty(&mut tt, &r);
        let mut alg = TypeAlgebra::new(Scheme::Sds);
        if let Some(s) = alg.sat(&mut tt, t) {
            let at = alg.at(&mut tt, t);
            let ssz = tt.size_of(s).unwrap();
            let asz = tt.size_of(at).unwrap();
            prop_assert!(
                ssz <= 2 * asz,
                "sizeof(sat)={ssz} > 2*sizeof(at)={}", 2 * asz
            );
        }
    }

    /// `st` is memo-stable: two computations agree.
    #[test]
    fn st_is_deterministic(r in recipe_strategy()) {
        let mut tt = TypeTable::new();
        let t = build_ty(&mut tt, &r);
        let mut alg = TypeAlgebra::new(Scheme::Sds);
        let a = alg.st(&mut tt, t);
        let b = alg.st(&mut tt, t);
        prop_assert_eq!(a, b);
    }

    /// Shadow structs of pointers always have exactly two fields (ROP and
    /// NSOP), each pointer-sized.
    #[test]
    fn pointer_shadows_are_rop_nsop_pairs(r in recipe_strategy()) {
        let mut tt = TypeTable::new();
        let inner = build_ty(&mut tt, &r);
        let p = tt.pointer(inner);
        let mut alg = TypeAlgebra::new(Scheme::Sds);
        let s = alg.st(&mut tt, p).expect("pointer shadows are non-null");
        let fields = tt.members(s);
        prop_assert_eq!(fields.len(), 2);
        prop_assert_eq!(tt.size_of(s).unwrap(), 16);
    }
}

// ---------------------------------------------------------------------
// Allocator properties
// ---------------------------------------------------------------------

proptest! {
    /// Live payloads never overlap, all are within the heap, and
    /// `buf_size` is at least the request.
    #[test]
    fn allocator_live_blocks_are_disjoint(
        sizes in proptest::collection::vec(1u64..600, 1..40),
        free_mask in proptest::collection::vec(any::<bool>(), 40)
    ) {
        let mut mem = Mem::new(&MemConfig::default());
        let mut a = Allocator::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let p = a.malloc(&mut mem, sz).expect("no metadata faults");
            prop_assert_ne!(p, 0);
            let usable = a.buf_size(&mem, p).expect("header readable");
            prop_assert!(usable >= sz.max(MIN_PAYLOAD).next_multiple_of(GRANULE) || usable >= sz);
            // Check disjointness against live blocks.
            for &(q, qsz) in &live {
                let disjoint = p + usable <= q || q + qsz <= p;
                prop_assert!(disjoint, "blocks {p:#x}+{usable} and {q:#x}+{qsz} overlap");
            }
            live.push((p, usable));
            // Optionally free one block.
            if free_mask.get(i).copied().unwrap_or(false) && !live.is_empty() {
                let (q, _) = live.swap_remove(i % live.len().max(1));
                prop_assert_eq!(a.free(&mut mem, q), FreeOutcome::Ok);
            }
        }
    }

    /// free-then-malloc of the same size reuses memory without
    /// corrupting other live blocks' contents.
    #[test]
    fn allocator_reuse_preserves_other_blocks(sz in 24u64..256) {
        let mut mem = Mem::new(&MemConfig::default());
        let mut a = Allocator::new();
        let keep = a.malloc(&mut mem, sz).unwrap();
        mem.write(keep, &vec![0xAB; sz as usize]).unwrap();
        let tmp = a.malloc(&mut mem, sz).unwrap();
        a.free(&mut mem, tmp);
        let _new = a.malloc(&mut mem, sz).unwrap();
        let bytes = mem.read(keep, sz as usize).unwrap();
        prop_assert!(bytes.iter().all(|&b| b == 0xAB));
    }
}

// ---------------------------------------------------------------------
// Simulated memory: faulted addresses trap, never panic
// ---------------------------------------------------------------------

/// Globals, heap break and stack end of the address space built by
/// `mem_accesses_never_panic`, plus the region bases: the edges where a
/// range check can go wrong.
const MEM_EDGES: [u64; 6] = [
    dpmr::vm::mem::GLOBAL_BASE,
    dpmr::vm::mem::GLOBAL_BASE + 100,
    dpmr::vm::mem::HEAP_BASE,
    dpmr::vm::mem::HEAP_BASE + 256,
    dpmr::vm::mem::STACK_BASE,
    dpmr::vm::mem::STACK_BASE + 4096,
];

/// Any 64-bit address, biased toward region edges and the top of the
/// address space (where `addr + len` wraps).
fn probe_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (0u64..64).prop_map(|d| u64::MAX - d),
        (0usize..MEM_EDGES.len(), -40i64..40)
            .prop_map(|(e, d)| MEM_EDGES[e].wrapping_add_signed(d)),
    ]
}

proptest! {
    /// Every access width at every address either succeeds inside one
    /// mapped region or traps; none panics, and read, write and garbage
    /// fill agree on which ranges are mapped.
    #[test]
    fn mem_accesses_never_panic(addr in probe_addr(), width in 0usize..=16) {
        let mut mem = Mem::new(&MemConfig {
            global_capacity: 4096,
            heap_capacity: 65536,
            stack_capacity: 4096,
            fill_seed: 7,
        });
        mem.alloc_global(100).expect("global capacity");
        mem.grow_heap(256).expect("heap capacity");
        let read = mem.read(addr, width).map(<[u8]>::len);
        let region = mem.region_of(addr);
        prop_assert_eq!(mem.write(addr, &[0xA5; 16][..width]).is_ok(), read.is_ok());
        prop_assert_eq!(mem.garbage_fill(addr, width).is_ok(), read.is_ok());
        if let Ok(n) = read {
            prop_assert_eq!(n, width);
            if width > 0 {
                prop_assert!(region.is_some());
                prop_assert_eq!(mem.region_of(addr + width as u64 - 1), region);
            }
        }
    }
}

/// Stack capacity of `recycled_stacks_read_all_zero`: not a whole
/// number of pages, so the last page is partial.
const STACK_CAP: usize = 40_000;

/// One step of `recycled_stacks_read_all_zero`. Offsets are from the
/// stack base; ranges may run past the region's end and fault.
#[derive(Debug, Clone)]
enum StackOp {
    Write(usize, usize),
    Fill(usize, usize),
    GarbageFill(usize, usize),
    Alloc(usize),
    Snapshot,
    Restore,
    /// Returns the buffers to the thread's pool and takes them back.
    Recycle,
}

/// Any stack offset, biased toward page boundaries and the region's end.
fn stack_offset() -> impl Strategy<Value = usize> {
    prop_oneof![
        0..STACK_CAP + 16,
        (1usize..10, 0usize..16).prop_map(|(page, d)| page * 4096 + d - 8),
        (0usize..16).prop_map(|d| STACK_CAP - d),
    ]
}

fn stack_op() -> impl Strategy<Value = StackOp> {
    prop_oneof![
        (stack_offset(), 0usize..=16).prop_map(|(o, n)| StackOp::Write(o, n)),
        (stack_offset(), 0usize..3 * 4096).prop_map(|(o, n)| StackOp::Fill(o, n)),
        (stack_offset(), 0usize..3 * 4096).prop_map(|(o, n)| StackOp::GarbageFill(o, n)),
        (0usize..6000).prop_map(StackOp::Alloc),
        Just(StackOp::Snapshot),
        Just(StackOp::Restore),
        Just(StackOp::Recycle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Whatever lands on the stack, by store, fill, garbage fill or
    /// frame push, at any offset: the stack reads exactly what was
    /// written (restores included, into the same space or a recycled
    /// one), its high-water mark is the largest end written since the
    /// space was made or last restored (a restore sets it to the
    /// checkpoint's `sp`), and a recycled space reads all-zero.
    #[test]
    fn recycled_stacks_read_all_zero(ops in proptest::collection::vec(stack_op(), 1..40)) {
        use dpmr::vm::mem::STACK_BASE;
        let cfg = MemConfig {
            global_capacity: 4096,
            heap_capacity: 4096,
            stack_capacity: STACK_CAP,
            fill_seed: 11,
        };
        let mut mem = Mem::new(&cfg);
        let mut model = vec![0u8; STACK_CAP];
        let mut high_water = 0;
        let mut checkpoint = None;
        for op in ops {
            let mut wrote = |mem: &Mem, off: usize, len: usize| {
                let got = mem.read(STACK_BASE + off as u64, len).expect("written bytes are mapped");
                model[off..off + len].copy_from_slice(got);
                high_water = high_water.max(off + len);
            };
            match op {
                StackOp::Write(off, len) => {
                    let bytes: Vec<u8> = (1..=len as u8).collect();
                    if mem.write(STACK_BASE + off as u64, &bytes).is_ok() {
                        wrote(&mem, off, len);
                    }
                }
                StackOp::Fill(off, len) => {
                    if mem.fill(STACK_BASE + off as u64, len, 0xA5).is_ok() {
                        wrote(&mem, off, len);
                    }
                }
                StackOp::GarbageFill(off, len) => {
                    if mem.garbage_fill(STACK_BASE + off as u64, len).is_ok() {
                        wrote(&mem, off, len);
                    }
                }
                StackOp::Alloc(len) => {
                    if let Ok(addr) = mem.stack_alloc(len as u64) {
                        wrote(&mem, (addr - STACK_BASE) as usize, len);
                    }
                }
                StackOp::Snapshot => {
                    let sp = mem.stack_mark();
                    checkpoint = Some((mem.snapshot(), model[..sp].to_vec()));
                }
                StackOp::Restore => {
                    if let Some((snap, captured)) = &checkpoint {
                        mem.restore(snap);
                        model[..captured.len()].copy_from_slice(captured);
                        model[captured.len()..].fill(0);
                        high_water = captured.len();
                    }
                }
                StackOp::Recycle => {
                    drop(mem);
                    mem = Mem::new(&cfg);
                    model.fill(0);
                    high_water = 0;
                }
            }
            prop_assert_eq!(mem.usage().stack_high_water, high_water);
            prop_assert!(mem.read(STACK_BASE, STACK_CAP).expect("mapped") == &model[..]);
        }
    }
}

// ---------------------------------------------------------------------
// Scalar encoding properties
// ---------------------------------------------------------------------

proptest! {
    /// Sign-extension normalization is idempotent and respects width.
    #[test]
    fn normalize_int_idempotent(v in any::<i64>(), bits in prop_oneof![Just(8u16), Just(16), Just(32), Just(64)]) {
        let once = normalize_int(v, bits);
        let twice = normalize_int(once, bits);
        prop_assert_eq!(once, twice);
        if bits < 64 {
            let bound = 1i64 << (bits - 1);
            prop_assert!(once >= -bound && once < bound);
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end behaviour preservation over randomized parameters
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Any in-bounds overflow_writer(n, w<=n) behaves identically under
    /// SDS and MDS with any diversity.
    #[test]
    fn clean_programs_preserved_under_random_sizes(
        n in 1i64..24,
        scheme_mds in any::<bool>(),
        div in 0usize..4,
    ) {
        let m = micro::overflow_writer(n, n);
        let golden = run_with_limits(&m, &RunConfig::default());
        prop_assert_eq!(&golden.status, &ExitStatus::Normal(0));
        let base = if scheme_mds { DpmrConfig::mds() } else { DpmrConfig::sds() };
        let d = [
            Diversity::None,
            Diversity::ZeroBeforeFree,
            Diversity::RearrangeHeap,
            Diversity::PadMalloc(32),
        ][div];
        let t = transform(&m, &base.with_diversity(d)).expect("transform");
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&t, &RunConfig::default(), reg);
        prop_assert_eq!(&out.status, &ExitStatus::Normal(0));
        prop_assert_eq!(out.output, golden.output);
    }

    #[test]
    fn linked_lists_of_any_length_roundtrip(n in 0i64..40) {
        let m = micro::linked_list(n);
        let golden = run_with_limits(&m, &RunConfig::default());
        let expected = n * (n - 1) / 2;
        prop_assert_eq!(golden.output[0] as i64, expected);
        let t = transform(&m, &DpmrConfig::sds()).expect("transform");
        let reg = Rc::new(registry_with_wrappers());
        let out = run_with_registry(&t, &RunConfig::default(), reg);
        prop_assert_eq!(out.output[0] as i64, expected);
    }
}

// ---------------------------------------------------------------------
// Checkpoint/restore determinism
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// snapshot → run (mutating everything) → restore → re-run is
    /// bit-identical to a fresh run: the virtual clock, RNG stream,
    /// garbage fill, allocator state, and output channel all roll back
    /// exactly. This is the property the recovery driver's replay loop
    /// stands on.
    #[test]
    fn snapshot_restore_rerun_is_bit_identical(
        n in 2i64..20,
        seed in 1u64..1_000,
        prog in 0usize..3,
    ) {
        let m = match prog {
            0 => micro::linked_list(n),
            1 => micro::overflow_writer(n, n),
            _ => micro::resize_victim(n, n),
        };
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let mut rc = RunConfig {
            seed,
            ..RunConfig::default()
        };
        rc.mem.fill_seed = seed ^ 0xabcd_1234;
        let reg = Rc::new(registry_with_wrappers());

        // Reference: a fresh interpreter, run once.
        let mut fresh = Interp::new(&t, &rc, reg.clone());
        let reference = fresh.run(vec![]);

        // Snapshot, run (mutates memory, clock, RNG, output), restore,
        // and run again from the restored checkpoint.
        let mut it = Interp::new(&t, &rc, reg);
        let snap = it.snapshot();
        let first = it.run(vec![]);
        it.restore(&snap);
        let replay = it.run(vec![]);

        prop_assert_eq!(&first.status, &reference.status);
        prop_assert_eq!(&replay.status, &reference.status);
        prop_assert_eq!(&replay.output, &reference.output);
        prop_assert_eq!(replay.cycles, reference.cycles);
        prop_assert_eq!(replay.instrs, reference.instrs);
        prop_assert_eq!(replay.detections, reference.detections);
        prop_assert_eq!(replay.first_detection_cycle, reference.first_detection_cycle);
    }

    /// Reseeding after a restore changes the replay's environment (the
    /// diverse-replay lever) without breaking determinism: two replays
    /// reseeded identically are bit-identical to each other.
    #[test]
    fn reseeded_replays_are_mutually_deterministic(
        n in 2i64..16,
        seed in 1u64..1_000,
        reseed in 1u64..1_000,
    ) {
        let m = micro::linked_list(n);
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let rc = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let reg = Rc::new(registry_with_wrappers());
        let mut it = Interp::new(&t, &rc, reg);
        let snap = it.snapshot();
        let _ = it.run(vec![]);
        it.restore(&snap);
        it.reseed(reseed);
        let a = it.run(vec![]);
        it.restore(&snap);
        it.reseed(reseed);
        let b = it.run(vec![]);
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.cycles, b.cycles);
    }
}

// ---------------------------------------------------------------------
// Threaded vs plain dispatch differential
// ---------------------------------------------------------------------

/// A run configuration for the dispatch differential: the same seeds
/// and limits on both sides, with every telemetry concern on (site
/// stats, the event trace, and the per-pc profile, whose bump runs in
/// the dispatch loop itself).
fn dispatch_cfg(seed: u64, plain: bool) -> RunConfig {
    let mut rc = RunConfig {
        seed,
        plain_dispatch: plain,
        telemetry: TelemetryConfig::full(),
        ..RunConfig::default()
    };
    rc.mem.fill_seed = seed ^ 0x5a5a_1234;
    rc
}

/// Everything observable about a finished run, as one comparable blob:
/// the full outcome plus the telemetry (site stats and event trace).
fn observe(it: &mut Interp, out: &RunOutcome) -> String {
    format!("{out:?}|{:?}", it.telemetry())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Long hazard windows are observationally identical to one-op
    /// windows (`plain_dispatch`) on random transformed modules: same
    /// outcome, same virtual cycles, same site stats, same event trace,
    /// same pc profile.
    #[test]
    fn threaded_dispatch_matches_plain_on_random_modules(
        n in 2i64..20,
        seed in 1u64..1_000,
        prog in 0usize..3,
        k in 1usize..3,
    ) {
        let m = match prog {
            0 => micro::linked_list(n),
            1 => micro::overflow_writer(n, n),
            _ => micro::resize_victim(n, n),
        };
        let t = transform(&m, &DpmrConfig::sds().with_replicas(k))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let reg = Rc::new(registry_with_wrappers());
        let mut plain = Interp::new(&t, &dispatch_cfg(seed, true), reg.clone());
        let ref_out = plain.run(vec![]);
        let mut thr = Interp::new(&t, &dispatch_cfg(seed, false), reg);
        let thr_out = thr.run(vec![]);
        prop_assert_eq!(observe(&mut plain, &ref_out), observe(&mut thr, &thr_out));
    }

    /// An armed, profiled run dispatches the armed site through the
    /// profile entry, which forwards to the armed entry: long hazard
    /// windows and one-op windows give the same outcome, telemetry and
    /// pc profile, and the profile counts the armed site whenever the
    /// fault fired.
    #[test]
    fn armed_profiled_runs_match_under_threaded_and_plain_dispatch(
        prog in 0usize..3,
        class_pick in 0usize..16,
        site_pick in 0usize..64,
        seed in 1u64..100_000,
    ) {
        use dpmr::fi::{enumerate_op_sites, ArmedFault, FaultModel};
        let t = transform(&fi_program(prog), &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let code = Rc::new(dpmr::vm::lower::lower(&t));
        let classes = FaultModel::paper_set();
        let class = classes[class_pick % classes.len()];
        let sites = enumerate_op_sites(&code, class);
        if sites.is_empty() {
            return Ok(());
        }
        let site = sites[site_pick % sites.len()].pc;
        let fault = Some(ArmedFault { site, fault: class, seed, arm_cycle: 0 });
        let reg = Rc::new(registry_with_wrappers());
        let mut runs = [true, false].map(|plain| {
            let rc = RunConfig { fault, ..dispatch_cfg(seed, plain) };
            let mut it = Interp::with_code(&t, Rc::clone(&code), &rc, Rc::clone(&reg));
            let out = it.run(vec![]);
            (it, out)
        });
        let [(plain, plain_out), (thr, thr_out)] = &mut runs;
        prop_assert_eq!(observe(plain, plain_out), observe(thr, thr_out));
        if thr_out.fault_hits > 0 {
            prop_assert!(thr.telemetry().pc_exec[site as usize] > 0);
        }
    }

    /// Pausing and resuming at arbitrary virtual-cycle bounds cuts
    /// hazard windows at arbitrary points; the parked interpreter state
    /// (the whole snapshot, frames and registers included) and the
    /// final outcome must match a plain engine paused at the very same
    /// boundaries. Each cut is a cycle distance from the last pause.
    #[test]
    fn pause_resume_cuts_are_invisible_to_the_threaded_engine(
        n in 2i64..14,
        seed in 1u64..500,
        cuts in proptest::collection::vec(1u64..1_500, 1..6),
    ) {
        let m = micro::resize_victim(n, n);
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let reg = Rc::new(registry_with_wrappers());
        let mut plain = Interp::new(&t, &dispatch_cfg(seed, true), reg.clone());
        let mut thr = Interp::new(&t, &dispatch_cfg(seed, false), reg);
        let mut plain_out = plain.run_until(vec![], cuts[0]);
        let mut thr_out = thr.run_until(vec![], cuts[0]);
        for c in &cuts[1..] {
            prop_assert_eq!(plain_out.is_none(), thr_out.is_none());
            if plain_out.is_some() {
                break;
            }
            // Parked mid-run state is an exact instruction boundary
            // under both window lengths: snapshots must capture
            // identical bytes.
            prop_assert_eq!(
                format!("{:?}", plain.snapshot()),
                format!("{:?}", thr.snapshot())
            );
            prop_assert_eq!(plain.clock(), thr.clock());
            plain_out = plain.resume_until(plain.clock() + c);
            thr_out = thr.resume_until(thr.clock() + c);
        }
        let plain_fin = match plain_out {
            Some(out) => out,
            None => plain.resume(),
        };
        let thr_fin = match thr_out {
            Some(out) => out,
            None => thr.resume(),
        };
        prop_assert_eq!(observe(&mut plain, &plain_fin), observe(&mut thr, &thr_fin));
    }

    /// An armed runtime fault whose site pc lands in the middle of a
    /// hazard window fires identically under long and one-op windows:
    /// same fault hits, same fire cycle, same detection evidence. (The
    /// window loop compiles the armed-pc compare in via a const-generic
    /// instantiation; this is the test that the instantiation is
    /// selected and wired correctly.)
    #[test]
    fn armed_faults_fire_identically_mid_window(
        n in 2i64..14,
        seed in 1u64..500,
        fault_idx in 0usize..7,
        site_sel in any::<u64>(),
        arm in 0u64..2_000,
    ) {
        let m = micro::resize_victim(n, n);
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let code = lower(&t);
        let sites: Vec<u32> = code
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Load { .. } | Op::Store { .. }))
            .map(|(pc, _)| pc as u32)
            .collect();
        prop_assert!(!sites.is_empty(), "workload has no load/store sites");
        let fault = ArmedFault {
            site: sites[(site_sel % sites.len() as u64) as usize],
            fault: FaultModel::paper_set()[fault_idx],
            seed: seed ^ 0x00ff_00ff,
            arm_cycle: arm,
        };
        let reg = Rc::new(registry_with_wrappers());
        let mut cfg_p = dispatch_cfg(seed, true);
        cfg_p.fault = Some(fault);
        let mut cfg_t = dispatch_cfg(seed, false);
        cfg_t.fault = Some(fault);
        let mut plain = Interp::new(&t, &cfg_p, reg.clone());
        let ref_out = plain.run(vec![]);
        let mut thr = Interp::new(&t, &cfg_t, reg);
        let thr_out = thr.run(vec![]);
        prop_assert_eq!(observe(&mut plain, &ref_out), observe(&mut thr, &thr_out));
    }
}

// ---------------------------------------------------------------------
// Printer/parser round-trip over random straight-line programs
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SlOp {
    Add(i64),
    Mul(i64),
    Xor(i64),
    Shl(u8),
    StoreLoad,
    Output,
}

fn sl_strategy() -> impl Strategy<Value = Vec<SlOp>> {
    proptest::collection::vec(
        prop_oneof![
            (-100i64..100).prop_map(SlOp::Add),
            (1i64..7).prop_map(SlOp::Mul),
            proptest::num::i64::ANY.prop_map(SlOp::Xor),
            (0u8..20).prop_map(SlOp::Shl),
            Just(SlOp::StoreLoad),
            Just(SlOp::Output),
        ],
        1..24,
    )
}

fn build_straightline(ops: &[SlOp]) -> dpmr::ir::module::Module {
    use dpmr::ir::prelude::*;
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let acc = b.reg(i64t, "acc");
    b.assign(acc, Const::i64(1).into());
    let cell = b.malloc(i64t, Const::i64(1).into(), "cell");
    for op in ops {
        match op {
            SlOp::Add(v) => {
                let r = b.bin(BinOp::Add, i64t, acc.into(), Const::i64(*v).into());
                b.assign(acc, r.into());
            }
            SlOp::Mul(v) => {
                let r = b.bin(BinOp::Mul, i64t, acc.into(), Const::i64(*v).into());
                b.assign(acc, r.into());
            }
            SlOp::Xor(v) => {
                let r = b.bin(BinOp::Xor, i64t, acc.into(), Const::i64(*v).into());
                b.assign(acc, r.into());
            }
            SlOp::Shl(v) => {
                let r = b.bin(
                    BinOp::Shl,
                    i64t,
                    acc.into(),
                    Const::i64(i64::from(*v)).into(),
                );
                b.assign(acc, r.into());
            }
            SlOp::StoreLoad => {
                b.store(cell.into(), acc.into());
                let v = b.load(i64t, cell.into(), "v");
                b.assign(acc, v.into());
            }
            SlOp::Output => b.output(acc.into()),
        }
    }
    b.output(acc.into());
    b.free(cell.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Any straight-line program survives print -> parse -> run with
    /// identical behaviour (the text format is faithful).
    #[test]
    fn straightline_programs_roundtrip_through_text(ops in sl_strategy()) {
        let m = build_straightline(&ops);
        let text = dpmr::ir::printer::print_module(&m);
        let reparsed = dpmr::ir::parser::parse_module(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let a = run_with_limits(&m, &RunConfig::default());
        let b = run_with_limits(&reparsed, &RunConfig::default());
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(a.output, b.output);
    }

    /// The DPMR transform also survives the text format on random
    /// straight-line programs.
    #[test]
    fn transformed_straightline_programs_roundtrip(ops in sl_strategy()) {
        let m = build_straightline(&ops);
        let t = transform(&m, &DpmrConfig::sds()).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let text = dpmr::ir::printer::print_module(&t);
        let reparsed = dpmr::ir::parser::parse_module(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let reg = || Rc::new(registry_with_wrappers());
        let a = run_with_registry(&t, &RunConfig::default(), reg());
        let b = run_with_registry(&reparsed, &RunConfig::default(), reg());
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(a.output, b.output);
    }

    /// A K-replica transformed module (K in 1..=3, both schemes, the
    /// rearrange-heap diversity whose per-replica `randint.sk` streams
    /// stress the text format hardest) survives print -> parse -> print
    /// as a fixpoint, and the reparsed module runs bit-identically — the
    /// K-ary `dpmr.checkK` / replica-pointer syntax is a stable, faithful
    /// encoding.
    #[test]
    fn k_replica_transform_print_parse_print_fixpoint(
        ops in sl_strategy(),
        k in 1usize..=3,
        mds in 0usize..2,
    ) {
        let m = build_straightline(&ops);
        let base = if mds == 1 { DpmrConfig::mds() } else { DpmrConfig::sds() };
        let cfg = base.with_replicas(k);
        let t = transform(&m, &cfg).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let text1 = dpmr::ir::printer::print_module(&t);
        let reparsed = dpmr::ir::parser::parse_module(&text1)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(dpmr::ir::verify::verify_module(&reparsed).is_ok());
        let text2 = dpmr::ir::printer::print_module(&reparsed);
        prop_assert_eq!(&text1, &text2);
        let reg = || Rc::new(registry_with_wrappers());
        let a = run_with_registry(&t, &RunConfig::default(), reg());
        let b = run_with_registry(&reparsed, &RunConfig::default(), reg());
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.cycles, b.cycles);
    }
}

// ---------------------------------------------------------------------
// Printer→parser textual fixpoint over random well-typed programs
// ---------------------------------------------------------------------

/// One step of a random well-typed instruction sequence, covering the
/// instruction families the bytecode layer leans on the text format for:
/// arithmetic, comparisons (via `cmp.*` + sign-extension casts),
/// store/load pairs, and `dpmr.check` in all three shapes (register
/// operands with and without `app_ptr`/`rep_ptr`, and constant operands).
#[derive(Debug, Clone)]
enum FixOp {
    Arith(u8, i64),
    CmpSext(u8, i64),
    CastChain,
    StoreLoad,
    CheckPlain,
    CheckPtrs,
    CheckConst(i64),
    OutputFloat(i64),
    Output,
}

fn fix_strategy() -> impl Strategy<Value = Vec<FixOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..4, -1000i64..1000).prop_map(|(o, v)| FixOp::Arith(o, v)),
            (0u8..6, -50i64..50).prop_map(|(o, v)| FixOp::CmpSext(o, v)),
            Just(FixOp::CastChain),
            Just(FixOp::StoreLoad),
            Just(FixOp::CheckPlain),
            Just(FixOp::CheckPtrs),
            (-99i64..99).prop_map(FixOp::CheckConst),
            (-8i64..8).prop_map(FixOp::OutputFloat),
            Just(FixOp::Output),
        ],
        1..24,
    )
}

fn build_fixpoint_program(ops: &[FixOp]) -> dpmr::ir::module::Module {
    use dpmr::ir::prelude::*;
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i32t = m.types.int(32);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let acc = b.reg(i64t, "acc");
    b.assign(acc, Const::i64(1).into());
    let cell = b.malloc(i64t, Const::i64(1).into(), "cell");
    b.store(cell.into(), acc.into());
    for op in ops {
        match op {
            FixOp::Arith(o, v) => {
                let bo = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor][*o as usize];
                let r = b.bin(bo, i64t, acc.into(), Const::i64(*v).into());
                b.assign(acc, r.into());
            }
            FixOp::CmpSext(p, v) => {
                let pred = [
                    CmpPred::Eq,
                    CmpPred::Ne,
                    CmpPred::Slt,
                    CmpPred::Sge,
                    CmpPred::Ult,
                    CmpPred::Uge,
                ][*p as usize];
                let c = b.cmp(pred, acc.into(), Const::i64(*v).into());
                let w = b.cast(CastOp::Sext, i64t, c.into(), "w");
                let r = b.bin(BinOp::Add, i64t, acc.into(), w.into());
                b.assign(acc, r.into());
            }
            FixOp::CastChain => {
                let t = b.cast(CastOp::Trunc, i32t, acc.into(), "t");
                let w = b.cast(CastOp::Sext, i64t, t.into(), "w");
                b.assign(acc, w.into());
            }
            FixOp::StoreLoad => {
                b.store(cell.into(), acc.into());
                let v = b.load(i64t, cell.into(), "v");
                b.assign(acc, v.into());
            }
            FixOp::CheckPlain => {
                b.store(cell.into(), acc.into());
                let v = b.load(i64t, cell.into(), "v");
                b.emit(Instr::DpmrCheck {
                    a: v.into(),
                    reps: vec![acc.into()],
                    ptrs: None,
                });
            }
            FixOp::CheckPtrs => {
                b.store(cell.into(), acc.into());
                let v = b.load(i64t, cell.into(), "v");
                b.emit(Instr::DpmrCheck {
                    a: v.into(),
                    reps: vec![acc.into()],
                    ptrs: Some((cell.into(), vec![cell.into()])),
                });
            }
            FixOp::CheckConst(v) => {
                b.emit(Instr::DpmrCheck {
                    a: Const::i64(*v).into(),
                    reps: vec![Const::i64(*v).into()],
                    ptrs: None,
                });
            }
            FixOp::OutputFloat(v) => {
                b.output(Const::f64(*v as f64 * 0.5).into());
            }
            FixOp::Output => b.output(acc.into()),
        }
    }
    b.output(acc.into());
    b.free(cell.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// print → parse → print reaches a fixpoint on the first print: the
    /// text format is a stable, faithful encoding (what lets the bytecode
    /// layer treat it as the unlowered source of truth). Behaviour is
    /// checked too: the reparsed module runs bit-identically, including
    /// the `dpmr.check` sites.
    #[test]
    fn print_parse_print_is_a_fixpoint(ops in fix_strategy()) {
        let m = build_fixpoint_program(&ops);
        let text1 = dpmr::ir::printer::print_module(&m);
        let reparsed = dpmr::ir::parser::parse_module(&text1)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text1}")))?;
        prop_assert!(dpmr::ir::verify::verify_module(&reparsed).is_ok());
        let text2 = dpmr::ir::printer::print_module(&reparsed);
        prop_assert_eq!(&text1, &text2);
        let a = run_with_limits(&m, &RunConfig::default());
        let b = run_with_limits(&reparsed, &RunConfig::default());
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.detections, b.detections);
    }
}

// ---------------------------------------------------------------------
// Mid-run checkpoint equivalence
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Pause a run at a random virtual-cycle bound, snapshot, restore the
    /// snapshot into a *fresh* interpreter, and resume: the continuation
    /// must produce a byte-identical `RunOutcome` to the uninterrupted
    /// run. This is the property that makes mid-run checkpoints (and the
    /// recovery driver's bounded rollback) sound: a snapshot between any
    /// two instructions is a complete description of execution state.
    ///
    /// A cycle bound pauses only after an op that advanced the clock.
    /// `op_fi_marker` charges no cycles, so no pause lands between a
    /// fault-injection marker and the op after it: the cut reaches every
    /// boundary but those that follow a zero-cycle op.
    #[test]
    fn midrun_snapshot_restore_replay_is_bit_identical(
        n in 2i64..20,
        seed in 1u64..1_000,
        cut in 1u64..20_000,
        prog in 0usize..3,
    ) {
        let m = match prog {
            0 => micro::linked_list(n),
            1 => micro::overflow_writer(n, n),
            _ => micro::resize_victim(n, n),
        };
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let mut rc = RunConfig {
            seed,
            ..RunConfig::default()
        };
        rc.mem.fill_seed = seed ^ 0xabcd_1234;
        let reg = Rc::new(registry_with_wrappers());

        // Reference: a fresh interpreter, run uninterrupted.
        let mut fresh = Interp::new(&t, &rc, reg.clone());
        let reference = fresh.run(vec![]);

        let mut it = Interp::new(&t, &rc, reg.clone());
        let outcome = match it.run_until(vec![], cut) {
            // The program finished inside the budget: nothing was paused,
            // and the outcome must already match.
            Some(done) => done,
            None => {
                let snap = it.snapshot();
                prop_assert!(snap.is_mid_run(), "paused runs have live frames");
                prop_assert!(snap.clock() >= cut);
                let mut restored = Interp::new(&t, &rc, reg);
                restored.restore(&snap);
                restored.resume()
            }
        };
        prop_assert_eq!(&outcome.status, &reference.status);
        prop_assert_eq!(&outcome.output, &reference.output);
        prop_assert_eq!(outcome.cycles, reference.cycles);
        prop_assert_eq!(outcome.instrs, reference.instrs);
        prop_assert_eq!(outcome.detections, reference.detections);
        prop_assert_eq!(outcome.repairs, reference.repairs);
        prop_assert_eq!(outcome.first_fi_cycle, reference.first_fi_cycle);
        prop_assert_eq!(&outcome.fi_sites_hit, &reference.fi_sites_hit);
        prop_assert_eq!(outcome.detect_cycle, reference.detect_cycle);
        prop_assert_eq!(outcome.first_detection_cycle, reference.first_detection_cycle);
    }

    /// Chained pauses: splitting one run into slices of `slice` virtual
    /// cycles never changes the result — execution state is fully
    /// carried by the explicit frames, never by the pause structure.
    #[test]
    fn sliced_execution_equals_straight_execution(
        n in 2i64..16,
        seed in 1u64..1_000,
        slice in 250u64..4_500,
    ) {
        let m = micro::qsort_prog(n.max(4));
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let rc = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let reg = Rc::new(registry_with_wrappers());
        let mut fresh = Interp::new(&t, &rc, reg.clone());
        let reference = fresh.run(vec![]);

        let mut it = Interp::new(&t, &rc, reg);
        let mut out = it.run_until(vec![], slice);
        let mut slices = 1u32;
        while out.is_none() {
            out = it.resume_until(it.clock() + slice);
            slices += 1;
            prop_assert!(slices < 1_000_000, "runaway slicing");
        }
        let out = out.expect("loop exits with an outcome");
        prop_assert_eq!(&out.status, &reference.status);
        prop_assert_eq!(&out.output, &reference.output);
        prop_assert_eq!(out.cycles, reference.cycles);
        prop_assert_eq!(out.instrs, reference.instrs);
    }
}

// ---------------------------------------------------------------------
// Fault-injection determinism (compile-time and runtime)
// ---------------------------------------------------------------------

/// The micro-program pool the injection properties draw from.
fn fi_program(pick: usize) -> dpmr::ir::module::Module {
    match pick % 3 {
        0 => micro::linked_list(6),
        1 => micro::resize_victim(12, 8),
        _ => micro::pointer_chase(9, 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Compile-time injection is deterministic and pure: the same
    /// (module, site, fault) yields byte-identical printed modules, and
    /// injection commutes with print → parse round-trips — injecting a
    /// reparsed module prints the same text as reparsing an injected one.
    #[test]
    fn inject_is_pure_and_commutes_with_text_roundtrip(
        prog in 0usize..3,
        site_pick in 0usize..64,
        fault_pick in 0usize..4,
    ) {
        use dpmr::fi::{enumerate_heap_alloc_sites, inject, FaultType};
        let m = fi_program(prog);
        let sites = enumerate_heap_alloc_sites(&m);
        prop_assert!(!sites.is_empty());
        let site = sites[site_pick % sites.len()];
        let fault = match fault_pick {
            0 => FaultType::HeapArrayResize { keep_percent: 50 },
            1 => FaultType::HeapArrayResize { keep_percent: 25 },
            2 => FaultType::HeapArrayResize { keep_percent: 80 },
            _ => FaultType::ImmediateFree,
        };
        let printed = dpmr::ir::printer::print_module(&inject(&m, &site, fault));
        // Deterministic: repeating the injection reprints identically.
        prop_assert_eq!(
            &printed,
            &dpmr::ir::printer::print_module(&inject(&m, &site, fault))
        );
        // Commutes with a pre-injection round-trip (site ids survive the
        // text format, so the same site names the same malloc)...
        let reparsed = dpmr::ir::parser::parse_module(&dpmr::ir::printer::print_module(&m))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(
            &printed,
            &dpmr::ir::printer::print_module(&inject(&reparsed, &site, fault))
        );
        // ...and with a post-injection round-trip (faulty modules are
        // themselves faithful text).
        let rt = dpmr::ir::parser::parse_module(&printed)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&printed, &dpmr::ir::printer::print_module(&rt));
    }

    /// Runtime faults replay bit-identically: the same
    /// (module, site, fault class, seed, arm cycle) triple produces the
    /// same status, output, accounting, and fire cycle on two fresh
    /// interpreters — the property that makes campaign trials replayable
    /// evidence rather than one-off observations.
    #[test]
    fn armed_runtime_faults_replay_bit_identically(
        prog in 0usize..3,
        class_pick in 0usize..16,
        site_pick in 0usize..64,
        seed in 1u64..100_000,
        arm_frac in 0u64..4,
    ) {
        use dpmr::fi::{enumerate_op_sites, ArmedFault, FaultModel};
        let m = fi_program(prog);
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let code = Rc::new(dpmr::vm::lower::lower(&t));
        let classes = FaultModel::paper_set();
        let class = classes[class_pick % classes.len()];
        let sites = enumerate_op_sites(&code, class);
        if sites.is_empty() {
            // Some (program, class) pairs have no armable sites (e.g. a
            // globals bit-flip on a global-free program): nothing to test.
            return Ok(());
        }
        let site = sites[site_pick % sites.len()];
        let golden = run_with_registry(
            &t,
            &RunConfig::default(),
            Rc::new(registry_with_wrappers()),
        );
        let rc = RunConfig {
            seed,
            fault: Some(ArmedFault {
                site: site.pc,
                fault: class,
                seed,
                arm_cycle: golden.cycles * arm_frac / 4,
            }),
            ..RunConfig::default()
        };
        let run = || {
            let reg = Rc::new(registry_with_wrappers());
            let mut it = Interp::with_code(&t, Rc::clone(&code), &rc, reg);
            it.run(vec![])
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(&a.output, &b.output);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.instrs, b.instrs);
        prop_assert_eq!(a.first_fi_cycle, b.first_fi_cycle);
        prop_assert_eq!(a.fault_fired_cycle, b.fault_fired_cycle);
        prop_assert_eq!(a.fault_hits, b.fault_hits);
    }
}

proptest! {
    // Each case is ~2,800 armed runs (most on the pointer-chase
    // program), so a few cases keep the debug-profile suite quick.
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// No armed fault panics the VM. On the injection programs and a
    /// random fixpoint program, transformed at every K in {1, 2, 3}, a
    /// fault of every class armed at every op site the class enumerates
    /// runs to a status: a corrupted guest becomes a trap, never an
    /// unwind out of `Interp::run`.
    #[test]
    fn armed_faults_never_panic_the_vm(ops in fix_strategy(), seed in 1u64..100_000) {
        use dpmr::fi::{enumerate_op_sites, ArmedFault, FaultModel};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let modules = [fi_program(0), fi_program(1), fi_program(2), build_fixpoint_program(&ops)];
        let reg = Rc::new(registry_with_wrappers());
        for (mi, m) in modules.iter().enumerate() {
            for k in 1usize..=3 {
                let t = transform(m, &DpmrConfig::sds().with_replicas(k))
                    .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                let code = Rc::new(dpmr::vm::lower::lower(&t));
                for class in FaultModel::paper_set() {
                    for site in enumerate_op_sites(&code, class) {
                        let rc = RunConfig {
                            seed,
                            fault: Some(ArmedFault { site: site.pc, fault: class, seed, arm_cycle: 0 }),
                            ..RunConfig::default()
                        };
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            Interp::with_code(&t, Rc::clone(&code), &rc, Rc::clone(&reg)).run(vec![])
                        }));
                        prop_assert!(
                            ran.is_ok(),
                            "module {} K={} {} armed at pc {} panicked", mi, k, class.name(), site.pc
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Optimizer properties
// ---------------------------------------------------------------------

/// The pass combinations the optimizer properties sweep: off, and the
/// drop-all profile-guided pass (usefulness 0 for every site — the most
/// aggressive partial-replication configuration).
fn prop_pass_combo(pick: usize, check_sites: u32) -> PassConfig {
    match pick % 2 {
        0 => PassConfig::none(),
        _ => PassConfig::none().with_profile(ProfileGuided {
            usefulness: vec![0.0; check_sites as usize],
            threshold: 0.0,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// print → parse → lower → optimize is deterministic under both
    /// pass combinations: optimizing twice agrees, and optimizing the
    /// text round-trip of the module produces the identical optimized
    /// bytecode. Pcs, site ids, and pass reports are all stable through
    /// the text format.
    #[test]
    fn print_lower_optimize_is_deterministic_per_combo(
        ops in fix_strategy(),
        k in 1usize..=2,
        combo in 0usize..2,
    ) {
        let m = build_fixpoint_program(&ops);
        let t = transform(&m, &DpmrConfig::sds().with_replicas(k))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let code = dpmr::vm::lower::lower(&t);
        let cfg = prop_pass_combo(combo, code.check_sites);
        let a = optimize(&code, &cfg);
        let b = optimize(&code, &cfg);
        prop_assert_eq!(&a, &b);
        let reparsed = dpmr::ir::parser::parse_module(&dpmr::ir::printer::print_module(&t))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let c = optimize(&dpmr::vm::lower::lower(&reparsed), &cfg);
        prop_assert_eq!(&a.code, &c.code);
        prop_assert_eq!(a.dropped.len(), c.dropped.len());
    }

    /// The drop-all profile-guided pass changes only what it is
    /// licensed to change on clean runs: program result and output are
    /// preserved, the instruction count is invariant (elided slots
    /// still dispatch), and the virtual clock can only get cheaper.
    #[test]
    fn pgo_drop_all_preserves_result_and_instr_count(
        prog in 0usize..3,
        k in 1usize..=2,
        seed in 1u64..100_000,
    ) {
        let m = fi_program(prog);
        let t = transform(&m, &DpmrConfig::sds().with_replicas(k))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let code = Rc::new(dpmr::vm::lower::lower(&t));
        let pgo = Rc::new(optimize(&code, &prop_pass_combo(1, code.check_sites)).code);
        let run = |code: &Rc<LoweredCode>| {
            let rc = RunConfig { seed, ..RunConfig::default() };
            let reg = Rc::new(registry_with_wrappers());
            Interp::with_code(&t, Rc::clone(code), &rc, reg).run(vec![])
        };
        let (a, b) = (run(&code), run(&pgo));
        prop_assert_eq!(&a.status, &b.status);
        prop_assert_eq!(&a.output, &b.output);
        prop_assert_eq!(a.instrs, b.instrs);
        prop_assert!(b.cycles <= a.cycles);
    }
}

// ---------------------------------------------------------------------
// Telemetry determinism
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Telemetry collection is observation, not interference: the same
    /// (program, seed, fault) run with telemetry fully on and fully off
    /// produces the identical `RunOutcome` — same status, output, and
    /// virtual-time accounting.
    #[test]
    fn telemetry_never_changes_outcomes(
        prog in 0usize..3,
        class_pick in 0usize..16,
        site_pick in 0usize..64,
        seed in 1u64..100_000,
    ) {
        use dpmr::fi::{enumerate_op_sites, ArmedFault, FaultModel};
        use dpmr::vm::telemetry::TelemetryConfig;
        let m = fi_program(prog);
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let code = Rc::new(dpmr::vm::lower::lower(&t));
        let classes = FaultModel::paper_set();
        let class = classes[class_pick % classes.len()];
        let sites = enumerate_op_sites(&code, class);
        let fault = (!sites.is_empty()).then(|| {
            let site = sites[site_pick % sites.len()];
            ArmedFault { site: site.pc, fault: class, seed, arm_cycle: 0 }
        });
        let run = |telemetry: TelemetryConfig| {
            let rc = RunConfig { seed, fault, telemetry, ..RunConfig::default() };
            let reg = Rc::new(registry_with_wrappers());
            let mut it = Interp::with_code(&t, Rc::clone(&code), &rc, reg);
            it.run(vec![])
        };
        let off = run(TelemetryConfig::off());
        let on = run(TelemetryConfig::full());
        prop_assert_eq!(&off.status, &on.status);
        prop_assert_eq!(&off.output, &on.output);
        prop_assert_eq!(off.cycles, on.cycles);
        prop_assert_eq!(off.instrs, on.instrs);
        prop_assert_eq!(off.detections, on.detections);
        prop_assert_eq!(off.repairs, on.repairs);
        prop_assert_eq!(off.fault_fired_cycle, on.fault_fired_cycle);
        prop_assert_eq!(off.fault_hits, on.fault_hits);
    }

    /// The event trace is timeline state: a run paused at a random cut,
    /// snapshotted, restored into a fresh interpreter, and resumed yields
    /// the byte-identical trace (and per-site counters) of the
    /// uninterrupted run — rollback replay reproduces the trace rather
    /// than duplicating or losing events.
    #[test]
    fn trace_is_bit_identical_under_snapshot_restore_replay(
        n in 2i64..16,
        seed in 1u64..1_000,
        cut in 1u64..15_000,
        prog in 0usize..3,
    ) {
        use dpmr::vm::telemetry::TelemetryConfig;
        let m = match prog {
            0 => micro::linked_list(n),
            1 => micro::qsort_prog(n.max(4)),
            _ => micro::resize_victim(n, n),
        };
        let t = transform(&m, &DpmrConfig::sds())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let rc = RunConfig {
            seed,
            telemetry: TelemetryConfig::full(),
            ..RunConfig::default()
        };
        let reg = Rc::new(registry_with_wrappers());

        let mut fresh = Interp::new(&t, &rc, reg.clone());
        let reference = fresh.run(vec![]);
        let ref_tele = fresh.telemetry().clone();

        let mut it = Interp::new(&t, &rc, reg.clone());
        match it.run_until(vec![], cut) {
            Some(done) => {
                // Finished inside the budget: the traces must already
                // agree.
                prop_assert_eq!(&done.status, &reference.status);
                prop_assert_eq!(it.telemetry().trace_jsonl(), ref_tele.trace_jsonl());
            }
            None => {
                let snap = it.snapshot();
                let mut restored = Interp::new(&t, &rc, reg);
                restored.restore(&snap);
                let replay = restored.resume();
                prop_assert_eq!(&replay.status, &reference.status);
                prop_assert_eq!(replay.cycles, reference.cycles);
                let got = restored.telemetry();
                prop_assert_eq!(got.trace_jsonl(), ref_tele.trace_jsonl());
                prop_assert_eq!(&got.site_stats, &ref_tele.site_stats);
                prop_assert_eq!(&got.pc_exec, &ref_tele.pc_exec);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random-edit fuzzing of printed modules
// ---------------------------------------------------------------------

/// The fuzz corpus, printed once: the four SPEC analogues, their SDS
/// builds, `linked_list` and `qsort`.
fn fuzz_corpus() -> &'static [(String, String)] {
    static CORPUS: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        use dpmr::ir::printer::print_module;
        let params = dpmr::workloads::WorkloadParams::quick();
        let mut corpus = Vec::new();
        for app in dpmr::workloads::all_apps() {
            let m = (app.build)(&params);
            let sds = transform(&m, &DpmrConfig::sds()).expect("SDS build");
            corpus.push((app.name.to_string(), print_module(&m)));
            corpus.push((format!("{} sds", app.name), print_module(&sds)));
        }
        corpus.push(("linked_list".into(), print_module(&micro::linked_list(7))));
        corpus.push(("qsort".into(), print_module(&micro::qsort_prog(10))));
        corpus
    })
}

/// Integer literals an edit substitutes: zero, signs, and the edges of
/// every width a constant or an array length can carry.
const EDGE_INTS: [i128; 12] = [
    0,
    1,
    -1,
    2,
    127,
    -129,
    i32::MAX as i128,
    i32::MIN as i128 - 1,
    u32::MAX as i128 + 1,
    i64::MAX as i128,
    i64::MIN as i128,
    u64::MAX as i128,
];

/// Byte ranges of the integer literals in `text`: maximal digit runs,
/// with a leading `-`, that no letter, digit, `_`, `%` or `.` touches
/// (so register, block and type names and float literals never match).
fn int_literal_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let glued = |c: u8| c.is_ascii_alphanumeric() || b"_%.".contains(&c);
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || (i > 0 && glued(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = if i > 0 && bytes[i - 1] == b'-' {
            i - 1
        } else {
            i
        };
        let mut end = i;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if bytes.get(end).is_none_or(|&c| !glued(c)) {
            spans.push(start..end);
        }
        i = end;
    }
    spans
}

/// Applies integer-coded edits to printed IR. Each edit is
/// `(kind, a, b)`: kind 0 deletes line `a`, 1 duplicates it, 2 swaps
/// lines `a` and `b`, 3 replaces integer literal `a` with edge value
/// `b` (indices taken modulo what the text holds).
fn apply_edits(text: &str, edits: &[(u8, u32, u32)]) -> String {
    let mut text = text.to_string();
    for &(kind, a, b) in edits {
        let (a, b) = (a as usize, b as usize);
        if kind == 3 {
            let spans = int_literal_spans(&text);
            if let Some(span) = spans.get(a % spans.len().max(1)) {
                let edge = EDGE_INTS[b % EDGE_INTS.len()].to_string();
                text.replace_range(span.clone(), &edge);
            }
            continue;
        }
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            continue;
        }
        let (a, b) = (a % lines.len(), b % lines.len());
        match kind {
            0 => {
                lines.remove(a);
            }
            1 => lines.insert(a, lines[a]),
            _ => lines.swap(a, b),
        }
        text = lines.join("\n");
    }
    text
}

/// Parses, verifies and runs edited IR, then SDS-transforms and runs it
/// when it verifies, each run within a 2M-instruction budget. Rejected
/// text and failed transforms are fine; a panic anywhere is not.
fn exercise_edited(text: &str) {
    use dpmr::ir::{parser::parse_module, verify::verify_module};
    let Ok(m) = parse_module(text) else {
        return;
    };
    if verify_module(&m).is_err() {
        return;
    }
    let cfg = RunConfig {
        max_instrs: 2_000_000,
        ..RunConfig::default()
    };
    let reg = Rc::new(registry_with_wrappers());
    run_with_registry(&m, &cfg, Rc::clone(&reg));
    if let Ok(t) = transform(&m, &DpmrConfig::sds()) {
        if verify_module(&t).is_ok() {
            run_with_registry(&t, &cfg, reg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FUZZ_CASES))]
    /// No edited module panics the pipeline: 1-3 random line deletions,
    /// duplications, swaps or integer-literal replacements of a printed
    /// corpus module parse, verify, run, transform and run to errors and
    /// statuses. Edits are integers, so a failing case shrinks to the
    /// fewest, earliest edits that still panic.
    #[test]
    fn random_edits_never_panic_the_pipeline(
        module in 0usize..10,
        edits in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..4),
    ) {
        let (name, text) = &fuzz_corpus()[module];
        let edited = apply_edits(text, &edits);
        let ran = std::panic::catch_unwind(|| exercise_edited(&edited));
        prop_assert!(ran.is_ok(), "{} with edits {:?} panicked", name, edits);
    }
}

/// Cases of [`random_edits_never_panic_the_pipeline`]: about 5 s in a
/// debug build.
const FUZZ_CASES: u32 = 320;

/// A pointer loaded from or stored to memory typed as an integer is a
/// transform error under SDS, not a panic. The verifier accepts the
/// type pun, as it does in the edited `mcf` the fuzzer found (a
/// `fieldaddr` retargeted to an `i64` field, feeding a pointer load).
#[test]
fn pointer_type_puns_are_transform_errors() {
    for access in ["%q = load %f", "store %f, %n"] {
        let text = format!(
            "type %L = {{ i64, %L* }}\nfn main() -> i64 {{\n  reg %n: %L*\n  reg %f: i64*\n  \
             reg %q: %L*\nb0:\n  %n = malloc %L, 1:i64\n  %f = fieldaddr %n, 0\n  {access}\n  \
             ret 0:i64\n}}\nentry main\n"
        );
        let m = dpmr::ir::parser::parse_module(&text).expect("parse");
        assert!(dpmr::ir::verify::verify_module(&m).is_ok(), "{access}");
        let err = transform(&m, &DpmrConfig::sds()).expect_err(access);
        assert!(
            matches!(err, TransformError::PointerTypePun { .. }),
            "{access}: {err}"
        );
    }
}

/// A struct global whose initializer has fewer members than the struct
/// has fields is a verifier error. The transform used to index past its
/// end; it now returns the verifier's error for its output instead of
/// panicking, and the plain build still ends at load with a crash.
#[test]
fn short_struct_initializers_do_not_panic_the_transform() {
    let text = "type %S = { i64*, i64* }\nglobal @g: %S = {null}\nfn main() -> i64 {\nb0:\n  \
                ret 0:i64\n}\nentry main\n";
    let m = dpmr::ir::parser::parse_module(text).expect("parse");
    let errs = dpmr::ir::verify::verify_module(&m).expect_err("short initializer");
    assert!(
        errs.iter()
            .any(|e| e.msg.contains("1 items for the 2 fields")),
        "{errs:?}"
    );
    let err = transform(&m, &DpmrConfig::sds()).expect_err("unverifiable output");
    assert!(matches!(err, TransformError::Verify(_)), "{err}");
    let plain = run_with_registry(&m, &RunConfig::default(), Rc::new(Registry::with_base())).status;
    assert!(
        matches!(plain, ExitStatus::Crash(CrashKind::InvalidExec(_))),
        "{plain:?}"
    );
}

/// A zero-initialized array of pointers gets a zero shadow, however long
/// the array. The transform used to build one null shadow per element,
/// so an edit to `[4294967296 x i64*]` asked it for 128 GiB and aborted
/// the process; the module now transforms at once and its run ends
/// because the global does not fit.
#[test]
fn zero_initialized_pointer_arrays_get_a_zero_shadow() {
    use dpmr::ir::module::GlobalInit;
    for len in [3u64, 1 << 32] {
        let text = format!(
            "global @t: [{len} x i64*] = zero\nfn main() -> i64 {{\nb0:\n  ret 0:i64\n}}\nentry main\n"
        );
        let m = dpmr::ir::parser::parse_module(&text).expect("parse");
        let t = transform(&m, &DpmrConfig::sds()).expect("transform");
        let shadow = t.global_by_name("t.sdw").expect("shadow global");
        assert_eq!(t.global(shadow).init, GlobalInit::Zero, "len {len}");
        let out = run_with_registry(&t, &RunConfig::default(), Rc::new(registry_with_wrappers()));
        let fits = len == 3;
        assert_eq!(
            out.status == ExitStatus::Normal(0),
            fits,
            "len {len}: {:?}",
            out.status
        );
    }
}
