//! Allocation-count golden for the build pipeline.
//!
//! A counting global allocator (this test binary's own) records how many
//! allocations the DPMR transform (including the `verify_module` it runs on
//! its output) and lowering make for every `fault_campaign` app under every
//! replication variant, at the benchmark's sizing
//! ([`WorkloadParams::quick`]). The counts are a deterministic measure of
//! build cost that no host's speed moves.
//!
//! The test fails when any count differs from `alloc_golden.txt`: a rise is
//! a regression, and a fall must be recorded so that the table keeps
//! pinning it. After an intentional change, replace the table with the one
//! the failing test prints on stdout and say why in the commit. The counts
//! also follow the standard library's collection growth, so a toolchain
//! update may move them (the table was recorded with Rust 1.95).

use dpmr_core::prelude::*;
use dpmr_harness::metrics::replication_variants;
use dpmr_vm::lower::lower;
use dpmr_workloads::{fault_campaign_apps, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("alloc_golden.txt");

/// The system allocator, counting the allocations (`alloc`,
/// `alloc_zeroed`, `realloc`) made on the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which neither allocates nor takes a lock.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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

fn alloc_table() -> String {
    let params = WorkloadParams::quick();
    let mut out = String::new();
    let (mut transform_total, mut lower_total) = (0, 0);
    for app in fault_campaign_apps() {
        let m = (app.build)(&params);
        for (name, cfg) in replication_variants(&DpmrConfig::sds()) {
            let (t, transform_allocs) = counted(|| transform(&m, &cfg).expect("transform"));
            let (code, lower_allocs) = counted(|| lower(&t));
            drop(code);
            let _ = writeln!(
                out,
                "{} {name}: transform={transform_allocs} lower={lower_allocs}",
                app.name
            );
            transform_total += transform_allocs;
            lower_total += lower_allocs;
        }
    }
    let _ = writeln!(
        out,
        "total: transform={transform_total} lower={lower_total}"
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
