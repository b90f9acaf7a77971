//! Allocation-count golden for the build pipeline.
//!
//! A counting global allocator (this test binary's own) records how many
//! allocations the DPMR transform (including the `verify_module` it runs on
//! its output) and lowering make for every `fault_campaign` app under every
//! replication variant, at the benchmark's sizing
//! ([`WorkloadParams::quick`]), and what cloning each build costs: the
//! transformed module (`clone_module`) and its bytecode (`clone_code`).
//! The counts are a deterministic measure of build cost that no host's
//! speed moves.
//!
//! The test fails when any count differs from `alloc_golden.txt`: a rise is
//! a regression, and a fall must be recorded so that the table keeps
//! pinning it. After an intentional change, replace the table with the one
//! the failing test prints on stdout and say why in the commit. The counts
//! also follow the standard library's collection growth, so a toolchain
//! update may move them (the table was recorded with Rust 1.95).

use dpmr_core::prelude::*;
use dpmr_harness::metrics::replication_variants;
use dpmr_ir::module::Module;
use dpmr_vm::prelude::*;
use dpmr_workloads::{fault_campaign_apps, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = include_str!("alloc_golden.txt");

/// The system allocator, counting the allocations (`alloc`,
/// `alloc_zeroed`, `realloc`) made on the current thread and keeping the
/// largest size asked for.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn bump(size: usize) {
    // `try_with`: the slots may be gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which neither allocates nor takes a lock.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `f`'s result and the largest single allocation it made on this
/// thread (0 for none).
fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LARGEST.with(|n| n.replace(0));
    let out = f();
    let size = LARGEST.with(|n| n.replace(before.max(n.get())));
    (out, size)
}

/// Every `fault_campaign` app under every replication variant: its label,
/// transformed module and bytecode, and the allocations that made them.
fn builds() -> Vec<(String, Module, LoweredCode, [u64; 2])> {
    let params = WorkloadParams::quick();
    let mut out = Vec::new();
    for app in fault_campaign_apps() {
        let m = (app.build)(&params);
        for (name, cfg) in replication_variants(&DpmrConfig::sds()) {
            let (t, transform_allocs) = counted(|| transform(&m, &cfg).expect("transform"));
            let (code, lower_allocs) = counted(|| lower(&t));
            let label = format!("{} {name}", app.name);
            out.push((label, t, code, [transform_allocs, lower_allocs]));
        }
    }
    out
}

fn alloc_table() -> String {
    let mut out = String::new();
    let mut totals = [0; 4];
    for (label, t, code, [transform, lower]) in builds() {
        let (_, clone_module) = counted(|| t.clone());
        let (_, clone_code) = counted(|| code.clone());
        let _ = writeln!(
            out,
            "{label}: transform={transform} lower={lower} clone_module={clone_module} \
             clone_code={clone_code}"
        );
        for (total, n) in totals
            .iter_mut()
            .zip([transform, lower, clone_module, clone_code])
        {
            *total += n;
        }
    }
    let [transform, lower, clone_module, clone_code] = totals;
    let _ = writeln!(
        out,
        "total: transform={transform} lower={lower} clone_module={clone_module} \
         clone_code={clone_code}"
    );
    out
}

/// Each row's counts by name (`transform`, `lower`), keyed by its label.
fn rows(table: &str) -> Vec<(&str, Vec<(&str, u64)>)> {
    table
        .lines()
        .map(|line| {
            let (label, counts) = line.rsplit_once(": ").expect("`label: counts` row");
            let counts = counts
                .split(' ')
                .map(|kv| {
                    let (k, v) = kv.split_once('=').expect("`name=count`");
                    (k, v.parse().expect("count"))
                })
                .collect();
            (label, counts)
        })
        .collect()
}

#[test]
fn build_allocations_match_the_recorded_golden() {
    let table = alloc_table();
    if table == GOLDEN {
        return;
    }
    print!("{table}");
    let (got, want) = (rows(&table), rows(GOLDEN));
    assert_eq!(
        got.iter().map(|r| r.0).collect::<Vec<_>>(),
        want.iter().map(|r| r.0).collect::<Vec<_>>(),
        "the builds differ from the golden's rows"
    );
    for ((label, now), (_, then)) in got.iter().zip(&want) {
        for (&(name, n), &(_, was)) in now.iter().zip(then) {
            assert!(
                n <= was,
                "{label}: {name} allocations rose from {was} to {n}"
            );
        }
    }
    panic!("allocation counts fell: record the table printed above in alloc_golden.txt");
}

/// Cloning a build copies no function body and no bytecode: the code
/// clone allocates nothing, and the module clone allocates one function
/// vector on top of copying its type table, globals and externals.
#[test]
fn build_clones_allocate_nothing_per_function_or_op() {
    for (label, t, code, _) in builds() {
        let (_, parts) = counted(|| (t.types.clone(), t.globals.clone(), t.externals.clone()));
        let (_, module) = counted(|| t.clone());
        assert_eq!(module, parts + 1, "{label}: module clone");
        let (_, code) = counted(|| code.clone());
        assert_eq!(code, 0, "{label}: bytecode clone");
    }
}

/// A zero-initialized global costs its interpreter no buffer of its size:
/// the global region it is placed in is handed out zeroed.
#[test]
fn zero_initialized_globals_allocate_nothing_at_load() {
    const GLOBAL_BYTES: usize = 256 << 10;
    let text = format!(
        "global @z: [{} x i64] = zero\nfn main() -> i64 {{\nb0:\n  ret 0:i64\n}}\nentry main\n",
        GLOBAL_BYTES / 8
    );
    let m = dpmr_ir::parser::parse_module(&text).expect("parse");
    let code = Rc::new(lower(&m));
    let cfg = RunConfig::default();
    let reg = Rc::new(Registry::with_base());
    let load = || Interp::with_code(&m, Rc::clone(&code), &cfg, Rc::clone(&reg));
    // The first interpreter on this thread maps the region buffers; the
    // next one takes them from the thread's pool.
    drop(load());
    let (mut it, size) = largest(load);
    assert!(
        size < GLOBAL_BYTES,
        "loading allocated {size} bytes for a {GLOBAL_BYTES}-byte zero global"
    );
    assert_eq!(it.run(Vec::new()).status, ExitStatus::Normal(0));
}
