//! Interpreter throughput: the threaded-dispatch gate.
//!
//! ```bash
//! cargo bench --bench interp_throughput                  # full size
//! BENCH_SMOKE=1 cargo bench --bench interp_throughput    # CI size
//! ```
//!
//! Six micro points run pre-lowered bytecode through `Interp::with_code`:
//! list/pointer chasing, an external-call-heavy sort, the recovery
//! workbench untransformed and transformed at replication degrees 1 and
//! 2 (the `dpmr.check` compare loop is the hot path under DPMR), and the
//! check-dense `table_scrub` kernel at K = 2.
//!
//! **The gate is a paired ratio, not a floor.** Absolute MIPS move with
//! the host between invocations of the same build, so none is printed or
//! kept. Points are measured interleaved round-robin, so a burst of host
//! contention lands in a round or two instead of one point's whole
//! measurement. Every round runs every point twice on the same bytecode:
//! once as-is and once with `RunConfig::plain_dispatch` (one-op hazard
//! windows), alternating which side goes first. Each point prints the
//! median of its per-round `threaded / plain` MIPS ratios with their
//! range as `BENCH_INTERP_<NAME>_WINDOW_SPEEDUP=<median> [<min>, <max>]`.
//! The bench fails when the median of all pooled ratios falls below
//! [`MIN_WINDOW_SPEEDUP`], which is what losing the hazard-window loop
//! does on any host.
//!
//! Beside the pooled median it prints a 95% bootstrap interval (fixed
//! seed, [`BOOTSTRAP_RESAMPLES`] resamples of the pooled ratios), and
//! "no resolvable difference" when that interval spans 1.0.

use dpmr_core::prelude::*;
use dpmr_ir::module::Module;
use dpmr_vm::prelude::*;
use dpmr_workloads::micro;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Interleaved measurement rounds per point.
const ROUNDS: u32 = 8;

/// Lower bound on the pooled median of per-round `threaded / plain`
/// MIPS ratios. Measured on a 2-CPU x86-64 container over three
/// invocations each: per-point medians of 1.40–2.77 at full size and
/// 1.62–2.28 at smoke size, pooled medians 1.90–2.03. With both sides
/// forced onto one-op windows (`DPMR_PLAIN_DISPATCH=1`) the pooled median
/// reads 1.00, yet single rounds still reach 1.59 and an earlier
/// prototype saw one noisy invocation read 1.97 on a single point —
/// hence a pooled median rather than a per-point gate.
const MIN_WINDOW_SPEEDUP: f64 = 1.2;

/// Resamples behind the pooled median's bootstrap interval.
const BOOTSTRAP_RESAMPLES: usize = 2000;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// One benchmark point with its per-round samples.
struct Point {
    name: &'static str,
    module: Module,
    code: Rc<LoweredCode>,
    registry: Rc<Registry>,
    /// Instructions retired per run (checked on every run).
    instrs: u64,
    /// Per-round `threaded / plain` MIPS.
    speedup: Vec<f64>,
}

impl Point {
    fn new(name: &'static str, module: Module, registry: Registry) -> Point {
        let mut p = Point {
            name,
            code: Rc::new(lower(&module)),
            module,
            registry: Rc::new(registry),
            instrs: 0,
            speedup: Vec::with_capacity(ROUNDS as usize),
        };
        let (threaded, plain) = (p.run(false), p.run(true));
        assert!(
            matches!(threaded.status, ExitStatus::Normal(0)),
            "{name}: bench run not clean: {:?}",
            threaded.status
        );
        assert_eq!(
            (threaded.instrs, threaded.cycles),
            (plain.instrs, plain.cycles),
            "{name}: threaded and plain dispatch disagree"
        );
        p.instrs = threaded.instrs;
        p
    }

    fn run(&self, plain_dispatch: bool) -> RunOutcome {
        let rc = RunConfig {
            plain_dispatch,
            ..RunConfig::default()
        };
        let args = rc.args.clone();
        Interp::with_code(
            &self.module,
            Rc::clone(&self.code),
            &rc,
            Rc::clone(&self.registry),
        )
        .run(args)
    }

    /// MIPS over as many runs as fit in `budget`.
    fn measure(&self, plain_dispatch: bool, budget: Duration) -> f64 {
        let t0 = Instant::now();
        let mut runs = 0u64;
        while t0.elapsed() < budget {
            let out = self.run(plain_dispatch);
            assert_eq!(
                out.instrs, self.instrs,
                "{}: nondeterministic run",
                self.name
            );
            runs += 1;
        }
        (self.instrs * runs) as f64 / t0.elapsed().as_secs_f64() / 1.0e6
    }
}

fn points() -> Vec<Point> {
    let scale = if smoke() { 1 } else { 4 };
    let victim = micro::resize_victim(16 * scale, 12 * scale);
    let scrub = micro::table_scrub(64 * scale, 32 * scale);
    let k2 = DpmrConfig::sds().with_replicas(2);
    let dpmr = |m: &Module, cfg: &DpmrConfig| transform(m, cfg).expect("transform");
    vec![
        Point::new(
            "linked_list",
            micro::linked_list(50 * scale),
            Registry::with_base(),
        ),
        Point::new(
            "qsort",
            micro::qsort_prog(12 * scale),
            Registry::with_base(),
        ),
        Point::new("resize_victim", victim.clone(), Registry::with_base()),
        Point::new(
            "dpmr_check_k1",
            dpmr(&victim, &DpmrConfig::sds()),
            registry_with_wrappers(),
        ),
        Point::new(
            "dpmr_check_k2",
            dpmr(&victim, &k2),
            registry_with_wrappers(),
        ),
        Point::new("dpmr_scrub_k2", dpmr(&scrub, &k2), registry_with_wrappers()),
    ]
}

/// Median (even count: mean of the middle pair).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 95% percentile-bootstrap interval of the median of `xs`, drawn
/// from a fixed seed so the same ratios always print the same interval.
fn bootstrap_median_ci(xs: &[f64]) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x5eed_b007);
    let mut resample = vec![0.0; xs.len()];
    let mut medians: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| {
            for r in &mut resample {
                *r = xs[rng.gen_range(0..xs.len())];
            }
            median(&resample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let at = |q: f64| medians[((medians.len() - 1) as f64 * q).round() as usize];
    (at(0.025), at(0.975))
}

fn main() {
    let budget = if smoke() {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(500)
    } / ROUNDS;
    let mut points = points();
    for round in 0..ROUNDS {
        for p in &mut points {
            let plain_first = round % 2 == 1;
            let first = p.measure(plain_first, budget);
            let second = p.measure(!plain_first, budget);
            let (threaded, plain) = if plain_first {
                (second, first)
            } else {
                (first, second)
            };
            p.speedup.push(threaded / plain);
        }
    }
    for p in &points {
        let name = p.name.to_uppercase();
        let (lo, hi) = p
            .speedup
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        println!(
            "BENCH_INTERP_{name}_WINDOW_SPEEDUP={:.2} [{lo:.2}, {hi:.2}]",
            median(&p.speedup)
        );
    }
    let pooled: Vec<f64> = points
        .iter()
        .flat_map(|p| p.speedup.iter().copied())
        .collect();
    let pooled_median = median(&pooled);
    let (ci_lo, ci_hi) = bootstrap_median_ci(&pooled);
    println!(
        "pooled window speedup {pooled_median:.2} [95% CI {ci_lo:.2}, {ci_hi:.2}] over {} pairs \
         (gate >= {MIN_WINDOW_SPEEDUP})",
        pooled.len()
    );
    if ci_lo <= 1.0 && 1.0 <= ci_hi {
        println!("pooled window speedup: no resolvable difference (the interval spans 1.0)");
    }
    if pooled_median < MIN_WINDOW_SPEEDUP {
        eprintln!(
            "[bench] FAILED: pooled threaded/plain speedup {pooled_median:.2} is below \
             MIN_WINDOW_SPEEDUP = {MIN_WINDOW_SPEEDUP}: the hazard-window dispatch loop \
             is not paying for itself"
        );
        std::process::exit(1);
    }
}
