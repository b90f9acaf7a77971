//! Byte-identity golden for the build pipeline: DPMR transform,
//! verification and lowering of every evaluated app under every study
//! variant.
//!
//! Each line is one build: the app, the variant group and name, FNV-1a of
//! the printed transformed module, FNV-1a of the lowered ops' `Debug`
//! text, the op count and the check-site count. The apps are
//! `common::golden_apps`, at the default workload sizing. The variants
//! are the SDS and MDS diversity and policy grids plus the replication
//! grid over SDS. Two micro programs follow: `argv_echo` under SDS and
//! MDS at K = 1 and 2, and `linked_list` with its first allocation site
//! excluded from replication. A transform error is recorded as such.
//!
//! A change to the transform, the type algebra, the verifier or lowering
//! that is meant to leave every build unchanged must keep this test
//! passing. If an *intentional* change moves the output, the failing test
//! prints the complete new table on stdout: replace
//! `build_golden.txt` with it and say so in the commit.

use dpmr_core::prelude::*;
use dpmr_harness::metrics::{diversity_variants, policy_variants, replication_variants};
use dpmr_ir::module::Module;
use dpmr_ir::printer::print_module;
use dpmr_vm::lower::lower;
use dpmr_workloads::{micro, WorkloadParams};
use std::fmt::Write as _;

mod common;

const GOLDEN: &str = include_str!("build_golden.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn build_table() -> String {
    let apps = common::golden_apps();
    let mut variants = Vec::new();
    for scheme in [Scheme::Sds, Scheme::Mds] {
        let tag = format!("{scheme:?}").to_lowercase();
        for (name, cfg) in diversity_variants(scheme) {
            variants.push((format!("{tag}-div"), name, cfg));
        }
        for (name, cfg) in policy_variants(scheme) {
            variants.push((format!("{tag}-pol"), name, cfg));
        }
    }
    for (name, cfg) in replication_variants(&DpmrConfig::sds()) {
        variants.push(("sds-rep".to_string(), name, cfg));
    }

    let params = WorkloadParams::default();
    let mut out = String::new();
    for app in &apps {
        let m = (app.build)(&params);
        for (group, name, cfg) in &variants {
            write_row(&mut out, app.name, group, name, &m, cfg);
        }
    }

    // Two shapes no golden app has: an entry taking `argv` (the entry
    // wrapper's argv replication) and a freed allocation site under an
    // exclusion plan (the guarded replica free).
    let argv = micro::argv_echo();
    let list = micro::linked_list(4);
    let mut excluded = Vec::new();
    for base in [DpmrConfig::sds(), DpmrConfig::mds()] {
        let tag = format!("{:?}", base.scheme).to_lowercase();
        for k in [1, 2] {
            let cfg = base.clone().with_replicas(k);
            write_row(
                &mut out,
                "argv_echo",
                &format!("{tag}-argv"),
                &format!("K={k}"),
                &argv,
                &cfg,
            );
        }
        for d in [Diversity::None, Diversity::ZeroBeforeFree] {
            let mut cfg = base.clone().with_diversity(d);
            let site = dpmr_fi::enumerate_heap_alloc_sites(&list)[0];
            cfg.plan
                .exclude_allocs
                .insert((site.func.0, site.block, site.instr));
            excluded.push((format!("{tag}-excl"), d.name(), cfg));
        }
    }
    for (group, name, cfg) in &excluded {
        write_row(&mut out, "linked_list", group, name, &list, cfg);
    }
    out
}

/// Appends one build's row: transform, lower, and digest, or the
/// transform error.
fn write_row(out: &mut String, app: &str, group: &str, name: &str, m: &Module, cfg: &DpmrConfig) {
    let _ = write!(out, "{app} {group} {name}: ");
    match transform(m, cfg) {
        Ok(t) => {
            let lc = lower(&t);
            let _ = writeln!(
                out,
                "ir={:016x} ops={:016x} n={} checks={}",
                fnv1a(print_module(&t).as_bytes()),
                fnv1a(format!("{:?}", lc.ops).as_bytes()),
                lc.ops.len(),
                lc.check_sites
            );
        }
        Err(e) => {
            let _ = writeln!(out, "error {e}");
        }
    }
}

#[test]
fn every_build_matches_the_recorded_golden() {
    let table = build_table();
    if table != GOLDEN {
        print!("{table}");
        for (i, (got, want)) in table.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "build diverged from the golden at line {}",
                i + 1
            );
        }
        assert_eq!(
            table.lines().count(),
            GOLDEN.lines().count(),
            "build table length diverged from the golden"
        );
        assert_eq!(
            table, GOLDEN,
            "tables differ only in line terminators or trailing newline"
        );
    }
}
