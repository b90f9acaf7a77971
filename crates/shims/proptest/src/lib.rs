//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a miniature property-testing engine exposing the subset of the
//! proptest 1.x API its tests use: the [`Strategy`] trait with `prop_map`,
//! `prop_recursive`, and `boxed`; `Just`, ranges, tuples, and
//! [`collection::vec`] as strategies; `prop_oneof!`, `proptest!`, and the
//! `prop_assert*` macros; [`ProptestConfig`]; and [`TestCaseError`].
//!
//! Differences from real proptest, deliberately accepted:
//! * shrinking is simpler: integers (ranges and `any`), `bool`s, `Vec`s
//!   and tuples of them shrink ([`Strategy::shrink`]); mapped, boxed and
//!   union strategies do not, and their values are reported as generated.
//!   A failing case is shrunk greedily, one simpler candidate at a time,
//!   and reported with the input it was generated from;
//! * generation is driven by a fixed per-test deterministic RNG (seeded
//!   from the test's module path and name), so failures reproduce exactly
//!   on re-run;
//! * `prop_recursive` builds a depth-bounded strategy eagerly rather than
//!   steering recursion by a size budget.

use std::fmt;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------

/// Test-case RNG: xoshiro256** seeded via splitmix64.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates an RNG whose stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates an RNG seeded from a test name (FNV-1a hash).
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::seed_from_u64(h)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }
}

// ---------------------------------------------------------------------
// Errors and configuration
// ---------------------------------------------------------------------

/// A failed (or rejected) test case.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Assertion failure with its message.
    Fail(String),
    /// Case rejected (unused by this workspace, kept for API parity).
    Reject(String),
}

impl TestCaseError {
    /// Creates a failure.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Creates a rejection.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

// ---------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Values this strategy can generate that are simpler than `value`,
    /// most simplifying first. Empty when the strategy cannot shrink.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `recurse` receives a strategy for the
    /// inner levels and returns the expanded one. The result is bounded to
    /// `depth` levels of expansion; the remaining parameters (proptest's
    /// size-budget steering) are accepted for API parity and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let base = self.boxed();
        let mut cur = base.clone();
        for _ in 0..depth {
            let expanded = recurse(cur).boxed();
            let leaf = base.clone();
            cur = BoxedStrategy::new(move |rng: &mut TestRng| {
                // Mix leaves back in at every level so shallow values stay
                // reachable (proptest steers this by size budget).
                if rng.below(4) == 0 {
                    leaf.generate(rng)
                } else {
                    expanded.generate(rng)
                }
            });
        }
        cur
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let s = self;
        BoxedStrategy::new(move |rng: &mut TestRng| s.generate(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    gen_fn: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> BoxedStrategy<T> {
    /// Wraps a generation closure.
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> BoxedStrategy<T> {
        BoxedStrategy { gen_fn: Rc::new(f) }
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen_fn: Rc::clone(&self.gen_fn),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen_fn)(rng)
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Mapped strategy (see [`Strategy::prop_map`]).
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed alternatives (see `prop_oneof!`).
pub struct Union<T> {
    opts: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics when empty.
    pub fn new(opts: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!opts.is_empty(), "prop_oneof! of zero strategies");
        Union { opts }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            opts: self.opts.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.opts.len() as u64) as usize;
        self.opts[i].generate(rng)
    }
}

/// Integers between `value` and `target`, from `target` itself towards
/// `value` by halving steps (`value - d`, `value - d/2`, ..., `value - 1`
/// for `d = value - target`), so a greedy shrinker binary-searches the
/// boundary of a failure.
fn shrink_int(value: i128, target: i128) -> impl Iterator<Item = i128> {
    let d = value - target;
    std::iter::successors((d != 0).then_some(d), |&k| Some(k / 2).filter(|&k| k != 0))
        .map(move |k| value - k)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + off) as $t
            }
            /// Towards zero, or the range's end nearest to it.
            #[allow(clippy::cast_possible_truncation)]
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let target = 0.clamp(self.start as i128, self.end as i128 - 1);
                shrink_int(*value as i128, target).map(|v| v as $t).collect()
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + off) as $t
            }
            /// Towards zero, or the range's end nearest to it.
            #[allow(clippy::cast_possible_truncation)]
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let target = 0.clamp(*self.start() as i128, *self.end() as i128);
                shrink_int(*value as i128, target).map(|v| v as $t).collect()
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone),+
        {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            /// One component at a time, in order, the others unchanged.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for c in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = c;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

// ---------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// The canonical strategy type.
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy value.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-domain `bool` strategy.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! impl_any_int {
    ($($name:ident => $t:ty),*) => {$(
        /// Full-domain integer strategy.
        #[derive(Debug, Clone, Copy)]
        pub struct $name;

        impl Strategy for $name {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
            /// Towards zero.
            #[allow(clippy::cast_possible_truncation)]
            fn shrink(&self, value: &$t) -> Vec<$t> {
                crate::shrink_int(*value as i128, 0).map(|v| v as $t).collect()
            }
        }

        impl Arbitrary for $t {
            type Strategy = $name;
            fn arbitrary() -> $name {
                $name
            }
        }
    )*};
}

impl_any_int! {
    AnyU8 => u8, AnyU16 => u16, AnyU32 => u32, AnyU64 => u64,
    AnyI8 => i8, AnyI16 => i16, AnyI32 => i32, AnyI64 => i64,
    AnyUsize => usize
}

/// Full-domain numeric strategies, mirroring `proptest::num`.
pub mod num {
    /// `i64` strategies.
    pub mod i64 {
        /// The full-domain `i64` strategy.
        pub const ANY: crate::AnyI64 = crate::AnyI64;
    }
    /// `u64` strategies.
    pub mod u64 {
        /// The full-domain `u64` strategy.
        pub const ANY: crate::AnyU64 = crate::AnyU64;
    }
}

// ---------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_excl: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_excl: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_excl: r.end() + 1,
            }
        }
    }

    /// Strategy generating `Vec`s of `elem` with length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_excl - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
        /// Shorter first: every run of `len/2`, `len/4`, ..., 1 elements
        /// removed (down to the minimum length); then each element shrunk
        /// in place.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let len = value.len();
            let runs = std::iter::successors(Some(len.div_ceil(2)), |&r| Some(r / 2));
            for run in runs.take_while(|&r| r > 0) {
                if len - run < self.size.lo {
                    continue;
                }
                for start in (0..=len - run).step_by(run) {
                    let mut v = value[..start].to_vec();
                    v.extend_from_slice(&value[start + run..]);
                    out.push(v);
                }
            }
            for (i, x) in value.iter().enumerate() {
                for c in self.elem.shrink(x) {
                    let mut v = value.clone();
                    v[i] = c;
                    out.push(v);
                }
            }
            out
        }
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// Asserts a condition inside a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Asserts inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that generates inputs and checks the body. A
/// failing case is shrunk (up to six arguments, each `Clone`) and
/// reported with the input it was generated from.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: fixes a test body's argument
/// type to the strategy's value type.
#[doc(hidden)]
pub fn __runner<S, F>(_strategy: &S, check: F) -> F
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), TestCaseError>,
{
    check
}

/// Implementation detail of [`proptest!`]: shrinks a failing `value`
/// greedily, taking the first simpler candidate that still fails until
/// none does (or a budget of runs is spent). Returns the simplest failing
/// value found, the number of shrink steps taken, and its failure.
#[doc(hidden)]
pub fn __shrink<S: Strategy>(
    strategy: &S,
    mut value: S::Value,
    mut error: TestCaseError,
    check: impl Fn(&S::Value) -> Result<(), TestCaseError>,
) -> (S::Value, u32, TestCaseError) {
    const MAX_RUNS: u32 = 4096;
    let (mut steps, mut runs) = (0, 0);
    'shrink: loop {
        for candidate in strategy.shrink(&value) {
            if runs == MAX_RUNS {
                break 'shrink;
            }
            runs += 1;
            if let Err(e @ TestCaseError::Fail(_)) = check(&candidate) {
                value = candidate;
                error = e;
                steps += 1;
                continue 'shrink;
            }
        }
        break;
    }
    (value, steps, error)
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            let strategy = ($($strat,)+);
            let check = $crate::__runner(&strategy, |args| {
                let ($($arg,)+) = ::std::clone::Clone::clone(args);
                $body
                ::std::result::Result::Ok(())
            });
            for case in 0..config.cases {
                let generated = $crate::Strategy::generate(&strategy, &mut rng);
                let error = match check(&generated) {
                    ::std::result::Result::Err(e @ $crate::TestCaseError::Fail(_)) => e,
                    _ => continue,
                };
                let (minimal, steps, error) = $crate::__shrink(
                    &strategy,
                    ::std::clone::Clone::clone(&generated),
                    error,
                    &check,
                );
                let shown = {
                    let ($($arg,)+) = &minimal;
                    format!(concat!($(stringify!($arg), " = {:?}; "),+), $($arg),+)
                };
                let from = {
                    let ($($arg,)+) = &generated;
                    format!(concat!($(stringify!($arg), " = {:?}; "),+), $($arg),+)
                };
                panic!(
                    "proptest {} failed at case {}/{} with {}(shrunk in {} steps from {}): {}",
                    stringify!($name),
                    case + 1,
                    config.cases,
                    shown,
                    steps,
                    from,
                    error
                );
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_unions_generate_in_bounds() {
        let mut rng = crate::TestRng::from_name("shim::bounds");
        let s = prop_oneof![1i64..10, Just(42i64)];
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((1..10).contains(&v) || v == 42);
        }
    }

    #[test]
    fn vec_sizes_respect_range() {
        let mut rng = crate::TestRng::from_name("shim::vec");
        let s = crate::collection::vec(any::<bool>(), 3..6);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..6).contains(&v.len()));
        }
        let fixed = crate::collection::vec(any::<bool>(), 7);
        assert_eq!(fixed.generate(&mut rng).len(), 7);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            #[allow(dead_code)]
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let s = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 4, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = crate::TestRng::from_name("shim::recursive");
        for _ in 0..100 {
            assert!(depth(&s.generate(&mut rng)) <= 4);
        }
    }

    proptest! {
        /// The macro itself works end to end.
        #[test]
        fn macro_generates_and_checks(x in 0i64..100, flip in any::<bool>()) {
            prop_assert!(x >= 0);
            prop_assert_ne!(x, 100);
            if flip {
                prop_assert_eq!(x, x);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Not a test itself: `failing_vec_property_reports_a_minimal_case`
        // runs it and reads its report.
        fn no_element_reaches_100(xs in crate::collection::vec(-1000i64..1000, 0..20)) {
            prop_assert!(xs.iter().all(|&x| x < 100), "an element reaches 100");
        }
    }

    #[test]
    fn failing_vec_property_reports_a_minimal_case() {
        let report = std::panic::catch_unwind(no_element_reaches_100)
            .expect_err("some generated vector has an element of at least 100");
        let report = report
            .downcast_ref::<String>()
            .expect("the report is a formatted message");
        assert!(
            report.contains("with xs = [100]; (shrunk in"),
            "not minimal: {report}"
        );
    }

    #[test]
    fn integers_shrink_towards_zero_within_their_range() {
        assert_eq!((-50i64..50).shrink(&20), vec![0, 10, 15, 18, 19]);
        assert_eq!((-50i64..50).shrink(&-3), vec![0, -2]);
        assert_eq!((5u8..=9).shrink(&9), vec![5, 7, 8]);
        assert!((5u8..=9).shrink(&5).is_empty());
        assert_eq!(any::<i16>().shrink(&-4), vec![0, -2, -3]);
    }

    #[test]
    fn vecs_shrink_by_removal_before_elements() {
        let s = crate::collection::vec(0i64..10, 1..5);
        let c = s.shrink(&vec![3, 4]);
        assert_eq!(c[..2], [vec![4], vec![3]]);
        assert!(c[2..].iter().all(|v| v.len() == 2));
        // The minimum length holds.
        assert!(s.shrink(&vec![0]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn configured_case_count_runs(x in 0u8..10) {
            prop_assert!(x < 10);
        }
    }
}
