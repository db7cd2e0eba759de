//! Dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment cannot reach a crates.io mirror, so the
//! workspace vendors the API subset its property tests use: the
//! [`Strategy`](strategy::Strategy) combinators (`prop_map`, `prop_flat_map`,
//! `prop_recursive`, `boxed`), [`strategy::Just`], range and tuple and
//! `Vec` strategies, `prop::collection::vec`, regex-literal string
//! strategies, `any::<T>()`, and the `proptest!` / `prop_assert!` /
//! `prop_oneof!` macros.
//!
//! Differences from upstream, by design:
//!
//! - **Minimal shrinking.** A failing case is greedily minimised via
//!   [`shrink::Shrink`] (integers halve towards zero, `Vec`s and
//!   `String`s truncate, tuples shrink component-wise) under a fixed
//!   candidate budget, then reported alongside the original sampled
//!   inputs and the deterministic seed. Value types outside the
//!   [`shrink::Shrink`] impls are reported unshrunk. There is no value
//!   tree: shrinking re-runs the property body on candidate values.
//! - **Deterministic seeding.** Case `i` of test `t` always runs with
//!   seed `fnv1a(t) ^ mix(i)`, so failures reproduce across runs and
//!   machines without a regressions file.
//! - **Regex strategies** support the subset this workspace writes:
//!   character classes with ranges, `.`, literals, and the `{n}` /
//!   `{m,n}` / `?` / `*` / `+` quantifiers.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Case runner, configuration and failure type.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runner configuration. Only `cases` is honoured by the shim; the
    /// other knobs exist for source compatibility.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Upstream defaults to 256; the shim trims unannotated
            // blocks for CI latency. Tests that need more set it via
            // `ProptestConfig::with_cases`.
            Config { cases: 64 }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Fails the current case with `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError(reason.into())
        }

        /// Upstream-compatible alias; the shim treats rejection as failure.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError(format!("rejected: {}", reason.into()))
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Convenience alias matching upstream.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The RNG handed to strategies while sampling a case.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// A generator for one deterministic case.
        pub fn new(seed: u64) -> Self {
            TestRng(StdRng::seed_from_u64(seed))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    }

    /// Runs `case` `config.cases` times with deterministic seeds,
    /// panicking with the sampled inputs on the first failure.
    ///
    /// `case` receives the per-case RNG and a scratch string it must
    /// fill with a `Debug` rendering of the sampled inputs *before*
    /// running the property body, so the report survives panics.
    pub fn run_cases<F>(config: Config, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng, &mut String) -> TestCaseResult,
    {
        let base = fnv1a(name);
        let total = config.cases;
        for i in 0..total {
            let seed = base ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = TestRng::new(seed);
            let mut inputs = String::new();
            let outcome = catch_unwind(AssertUnwindSafe(|| case(&mut rng, &mut inputs)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(err)) => panic!(
                    "property `{name}` failed at case {i}/{total} (seed {seed:#x}): {err}\n  inputs: {inputs}"
                ),
                Err(payload) => panic!(
                    "property `{name}` panicked at case {i}/{total} (seed {seed:#x}): {}\n  inputs: {inputs}",
                    panic_message(payload.as_ref())
                ),
            }
        }
    }
}

pub mod shrink {
    //! Greedy counterexample minimisation.
    //!
    //! Upstream proptest shrinks through a lazily-built value tree; the
    //! shim instead re-runs the property body on candidate values
    //! derived from the failing input: each [`Shrink`] impl proposes a
    //! short, deterministic candidate list ordered most-aggressive
    //! first, and [`Wrap::run`] walks greedily to a local minimum under
    //! a fixed budget. Because candidates are a pure function of the
    //! failing value, shrinking is as deterministic as the seeds.
    //!
    //! Dispatch is by inherent-over-trait method resolution: the
    //! `proptest!` macro calls `Wrap(vals).run(..)`, which binds to the
    //! inherent shrinking impl when the sampled tuple implements
    //! [`Shrink`] and silently falls back to the single-run
    //! [`RunCase`] impl otherwise (e.g. `prop_map` into a non-`Clone`
    //! domain type).

    use crate::test_runner::{panic_message, TestCaseError, TestCaseResult};
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Maximum number of candidate re-executions per failing case.
    pub const SHRINK_BUDGET: usize = 256;

    /// Values that can propose smaller versions of themselves.
    pub trait Shrink: Clone + Debug {
        /// Candidate simplifications, most aggressive first. An empty
        /// list means the value is already minimal.
        fn shrink_candidates(&self) -> Vec<Self>;
    }

    macro_rules! unsigned_shrink {
        ($($t:ty),*) => {$(
            impl Shrink for $t {
                fn shrink_candidates(&self) -> Vec<Self> {
                    let mut out = Vec::new();
                    if *self != 0 {
                        out.push(0);
                        if *self > 1 {
                            out.push(*self / 2);
                        }
                        out.push(*self - 1);
                    }
                    out.dedup();
                    out
                }
            }
        )*};
    }

    unsigned_shrink!(u8, u16, u32, u64, u128, usize);

    macro_rules! signed_shrink {
        ($($t:ty),*) => {$(
            impl Shrink for $t {
                fn shrink_candidates(&self) -> Vec<Self> {
                    let mut out = Vec::new();
                    if *self != 0 {
                        out.push(0);
                        if self.unsigned_abs() > 1 {
                            out.push(*self / 2);
                        }
                        out.push(*self - self.signum());
                    }
                    out.dedup();
                    out
                }
            }
        )*};
    }

    signed_shrink!(i8, i16, i32, i64, i128, isize);

    impl Shrink for f64 {
        fn shrink_candidates(&self) -> Vec<Self> {
            if *self == 0.0 || !self.is_finite() {
                return Vec::new();
            }
            let mut out = vec![0.0, *self / 2.0];
            let trunc = self.trunc();
            if trunc != *self {
                out.push(trunc);
            }
            out
        }
    }

    impl Shrink for bool {
        fn shrink_candidates(&self) -> Vec<Self> {
            if *self {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    impl Shrink for char {
        fn shrink_candidates(&self) -> Vec<Self> {
            if *self == 'a' {
                Vec::new()
            } else {
                vec!['a']
            }
        }
    }

    impl Shrink for String {
        fn shrink_candidates(&self) -> Vec<Self> {
            if self.is_empty() {
                return Vec::new();
            }
            let mut out = vec![String::new()];
            let chars: Vec<char> = self.chars().collect();
            if chars.len() > 1 {
                out.push(chars[..chars.len() / 2].iter().collect());
                out.push(chars[..chars.len() - 1].iter().collect());
            }
            out
        }
    }

    impl<T: Shrink> Shrink for Vec<T> {
        fn shrink_candidates(&self) -> Vec<Self> {
            if self.is_empty() {
                return Vec::new();
            }
            let mut out = vec![Vec::new()];
            if self.len() > 1 {
                out.push(self[..self.len() / 2].to_vec());
                out.push(self[..self.len() - 1].to_vec());
            }
            for (i, elem) in self.iter().enumerate() {
                for candidate in elem.shrink_candidates() {
                    let mut next = self.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }

    impl<T: Shrink> Shrink for Option<T> {
        fn shrink_candidates(&self) -> Vec<Self> {
            match self {
                None => Vec::new(),
                Some(v) => std::iter::once(None)
                    .chain(v.shrink_candidates().into_iter().map(Some))
                    .collect(),
            }
        }
    }

    macro_rules! tuple_shrink {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Shrink),+> Shrink for ($($s,)+) {
                fn shrink_candidates(&self) -> Vec<Self> {
                    let mut out = Vec::new();
                    $(
                        for candidate in self.$idx.shrink_candidates() {
                            let mut next = self.clone();
                            next.$idx = candidate;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    tuple_shrink! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6, S7 7)
    }

    /// Runs the property body once, converting a panic into a failure
    /// so the shrink loop can keep probing candidates.
    fn run_once<T>(value: T, body: &mut dyn FnMut(T) -> TestCaseResult) -> Result<(), String> {
        match catch_unwind(AssertUnwindSafe(|| body(value))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(err)) => Err(err.to_string()),
            Err(payload) => Err(panic_message(payload.as_ref())),
        }
    }

    /// Pins the body closure's argument type to the sampled tuple's
    /// type so the macro expansion infers (`&_witness` is the tuple
    /// about to be moved into [`Wrap`]).
    #[doc(hidden)]
    pub fn bind_body<T, F>(_witness: &T, body: F) -> F
    where
        F: FnMut(T) -> TestCaseResult,
    {
        body
    }

    /// The dispatch point the `proptest!` macro expands to. Holds the
    /// sampled value tuple by value.
    pub struct Wrap<T>(pub T);

    impl<T: Shrink> Wrap<T> {
        /// Runs the case and, on failure, greedily minimises the
        /// counterexample, rewriting `inputs` to report both the
        /// shrunk and the originally sampled values.
        pub fn run(
            self,
            body: &mut dyn FnMut(T) -> TestCaseResult,
            inputs: &mut String,
        ) -> TestCaseResult {
            let original = self.0;
            let first_err = match run_once(original.clone(), body) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let sampled_repr = inputs.clone();
            let mut current = original;
            let mut current_err = first_err;
            let mut steps = 0usize;
            let mut budget = SHRINK_BUDGET;
            'minimise: while budget > 0 {
                for candidate in current.shrink_candidates() {
                    if budget == 0 {
                        break 'minimise;
                    }
                    budget -= 1;
                    if let Err(e) = run_once(candidate.clone(), body) {
                        current = candidate;
                        current_err = e;
                        steps += 1;
                        continue 'minimise;
                    }
                }
                // Every candidate passes: `current` is locally minimal.
                break;
            }
            if steps > 0 {
                *inputs = format!("{current:?} (shrunk {steps} step(s) from {sampled_repr})");
            }
            Err(TestCaseError::fail(current_err))
        }
    }

    /// Fallback for sampled tuples with no [`Shrink`] impl: run the
    /// case once and report it unshrunk. Inherent-method resolution
    /// prefers [`Wrap::run`] whenever it applies, so this only binds
    /// for non-shrinkable value types.
    pub trait RunCase {
        /// The sampled value tuple.
        type Vals;

        /// Runs the property body once with the sampled values.
        fn run(
            self,
            body: &mut dyn FnMut(Self::Vals) -> TestCaseResult,
            inputs: &mut String,
        ) -> TestCaseResult;
    }

    impl<T> RunCase for Wrap<T> {
        type Vals = T;

        fn run(
            self,
            body: &mut dyn FnMut(T) -> TestCaseResult,
            _inputs: &mut String,
        ) -> TestCaseResult {
            run_once(self.0, body).map_err(TestCaseError::fail)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A recipe for sampling random values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree and no shrinking: a
    /// strategy is just a sampler.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Samples one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms every sampled value through `map`.
        fn prop_map<O, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, map }
        }

        /// Feeds every sampled value into `flat` to pick a second
        /// strategy, then samples that.
        fn prop_flat_map<S, F>(self, flat: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { source: self, flat }
        }

        /// Builds a recursive strategy: `self` is the leaf case and
        /// `recurse` wraps an inner strategy into a branch case. The
        /// tree depth is bounded by `depth`; `_desired_size` and
        /// `_expected_branch_size` are accepted for source
        /// compatibility only.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            // Innermost layer is pure leaf, so sampling always
            // terminates within `depth` recursions.
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let branch = recurse(strat).boxed();
                strat = Union::new(vec![(1, leaf.clone()), (2, branch)]).boxed();
            }
            strat
        }

        /// Type-erases this strategy behind a cheaply clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Rc::new(self),
            }
        }
    }

    /// A type-erased, clonable strategy handle.
    pub struct BoxedStrategy<T> {
        inner: Rc<dyn Strategy<Value = T>>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                inner: Rc::clone(&self.inner),
            }
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        source: S,
        flat: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.flat)(self.source.sample(rng)).sample(rng)
        }
    }

    /// Weighted choice between strategies of a common value type.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Union<T> {
        /// A union over weighted arms.
        ///
        /// # Panics
        ///
        /// Panics when `arms` is empty or the weights sum to zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! requires at least one weighted arm");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.gen_range(0..total);
            for (weight, arm) in &self.arms {
                let weight = u64::from(*weight);
                if pick < weight {
                    return arm.sample(rng);
                }
                pick -= weight;
            }
            unreachable!("weighted pick exceeded total weight")
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_strategies!(usize, u64, u32, u16, u8, i64, i32, f64);

    macro_rules! tuple_strategies {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($( self.$idx.sample(rng), )+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6, S7 7)
    }

    /// A `Vec` of strategies samples element-wise, preserving order.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            self.iter().map(|s| s.sample(rng)).collect()
        }
    }

    /// A `&'static str` is interpreted as a regex (subset) and samples
    /// matching strings.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_regex(self, rng)
        }
    }

    // --- Regex-subset sampling -------------------------------------------

    enum Atom {
        /// Inclusive character ranges; single chars are `(c, c)`.
        Class(Vec<(char, char)>),
        /// `.` — any character, biased towards printable ASCII.
        AnyChar,
        Literal(char),
    }

    struct Quantified {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse_regex(pattern: &str) -> Vec<Quantified> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let c = if chars[i] == '\\' && i + 1 < chars.len() {
                            i += 1;
                            chars[i]
                        } else {
                            chars[i]
                        };
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((c, chars[i + 2]));
                            i += 3;
                        } else {
                            ranges.push((c, c));
                            i += 1;
                        }
                    }
                    assert!(
                        i < chars.len(),
                        "unterminated character class in {pattern:?}"
                    );
                    i += 1; // consume ']'
                    Atom::Class(ranges)
                }
                '.' => {
                    i += 1;
                    Atom::AnyChar
                }
                '\\' => {
                    assert!(i + 1 < chars.len(), "dangling escape in {pattern:?}");
                    i += 2;
                    Atom::Literal(chars[i - 1])
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Optional quantifier.
            let (min, max) = if i < chars.len() {
                match chars[i] {
                    '{' => {
                        let close = chars[i..]
                            .iter()
                            .position(|&c| c == '}')
                            .map(|p| i + p)
                            .unwrap_or_else(|| panic!("unterminated quantifier in {pattern:?}"));
                        let body: String = chars[i + 1..close].iter().collect();
                        i = close + 1;
                        match body.split_once(',') {
                            Some((lo, hi)) => (
                                lo.trim().parse().expect("quantifier lower bound"),
                                hi.trim().parse().expect("quantifier upper bound"),
                            ),
                            None => {
                                let n = body.trim().parse().expect("quantifier count");
                                (n, n)
                            }
                        }
                    }
                    '?' => {
                        i += 1;
                        (0, 1)
                    }
                    '*' => {
                        i += 1;
                        (0, 8)
                    }
                    '+' => {
                        i += 1;
                        (1, 8)
                    }
                    _ => (1, 1),
                }
            } else {
                (1, 1)
            };
            atoms.push(Quantified { atom, min, max });
        }
        atoms
    }

    fn sample_class(ranges: &[(char, char)], rng: &mut TestRng) -> char {
        let total: u32 = ranges
            .iter()
            .map(|(lo, hi)| *hi as u32 - *lo as u32 + 1)
            .sum();
        let mut pick = rng.gen_range(0..total);
        for (lo, hi) in ranges {
            let span = *hi as u32 - *lo as u32 + 1;
            if pick < span {
                return char::from_u32(*lo as u32 + pick)
                    .expect("character class range crosses surrogates");
            }
            pick -= span;
        }
        unreachable!("class pick exceeded total span")
    }

    fn sample_any_char(rng: &mut TestRng) -> char {
        const MARKUP: &[char] = &['<', '>', '&', ';', '"', '\'', '=', '/', '\n', '\t'];
        match rng.gen_range(0u32..100) {
            // Mostly printable ASCII so parser tests see realistic text...
            0..=91 => char::from_u32(rng.gen_range(0x20u32..=0x7E)).unwrap(),
            // ...with a deliberate bias towards markup metacharacters...
            92..=96 => MARKUP[rng.gen_range(0..MARKUP.len())],
            // ...and an occasional arbitrary Unicode scalar.
            _ => loop {
                if let Some(c) = char::from_u32(rng.gen_range(0u32..=0x0010_FFFF)) {
                    break c;
                }
            },
        }
    }

    fn sample_regex(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for q in parse_regex(pattern) {
            let count = rng.gen_range(q.min..=q.max);
            for _ in 0..count {
                match &q.atom {
                    Atom::Class(ranges) => out.push(sample_class(ranges, rng)),
                    Atom::AnyChar => out.push(sample_any_char(rng)),
                    Atom::Literal(c) => out.push(*c),
                }
            }
        }
        out
    }
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::{Rng, RngCore};
    use std::marker::PhantomData;

    /// Types with a canonical "whole domain" strategy.
    pub trait Arbitrary: Sized {
        /// Samples one value from the full domain.
        fn arbitrary_with(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_with(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_with(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_with(rng: &mut TestRng) -> Self {
            // Finite, uniform in [-1e9, 1e9] — friendlier to numeric
            // properties than raw bit patterns (upstream's choice).
            rng.gen_range(-1.0e9..=1.0e9)
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<A>(PhantomData<A>);

    impl<A> Clone for Any<A> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<A> Copy for Any<A> {}

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn sample(&self, rng: &mut TestRng) -> A {
            A::arbitrary_with(rng)
        }
    }

    /// A strategy over the whole domain of `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Samples `Vec`s whose length is uniform in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace re-export so `prop::collection::vec(..)` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]`-able function running [`test_runner::run_cases`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::test_runner::Config::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            $crate::test_runner::run_cases(__config, stringify!($name), |__rng, __inputs| {
                let __vals = ( $( $crate::strategy::Strategy::sample(&($strat), __rng), )+ );
                *__inputs = format!("{:?}", __vals);
                let mut __body = $crate::shrink::bind_body(&__vals, |__v| {
                    let ( $($pat,)+ ) = __v;
                    let __case = || -> $crate::test_runner::TestCaseResult {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __case()
                });
                // Inherent-over-trait dispatch: shrinks when the
                // sampled tuple implements `Shrink`, single-runs
                // otherwise.
                #[allow(unused_imports)]
                use $crate::shrink::RunCase as _;
                $crate::shrink::Wrap(__vals).run(&mut __body, __inputs)
            });
        }
    )*};
}

/// Fails the current case (by early `return`) when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case when the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            __l,
            __r,
            format!($($fmt)+)
        );
    }};
}

/// Fails the current case when the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            __l
        );
    }};
}

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( ($weight as u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn regex_subset_samples_match_their_pattern() {
        let mut rng = TestRng::new(11);
        for _ in 0..200 {
            let ident = Strategy::sample(&"[a-zA-Z][a-zA-Z0-9_.-]{0,10}", &mut rng);
            let mut chars = ident.chars();
            let head = chars.next().expect("head atom has {1,1} quantifier");
            assert!(head.is_ascii_alphabetic(), "{ident:?}");
            assert!(ident.len() <= 11, "{ident:?}");
            for c in chars {
                assert!(
                    c.is_ascii_alphanumeric() || "_.-".contains(c),
                    "{ident:?} contains {c:?}"
                );
            }
            let free = Strategy::sample(&".{0,5}", &mut rng);
            assert!(free.chars().count() <= 5, "{free:?}");
        }
    }

    #[test]
    fn union_respects_zero_weight_arms_absence() {
        let mut rng = TestRng::new(5);
        let union = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[Strategy::sample(&union, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let strat = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 16, 3, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = TestRng::new(77);
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let mut saw_node = false;
        for _ in 0..100 {
            let t = Strategy::sample(&strat, &mut rng);
            assert!(depth(&t) <= 5);
            saw_node |= matches!(t, Tree::Node(_));
        }
        assert!(saw_node, "recursion never branched in 100 samples");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_samples_every_binding(
            (a, b) in (0usize..10, 10usize..20),
            v in prop::collection::vec(0u64..5, 1..4),
            s in "[a-c]{2,3}",
        ) {
            prop_assert!(a < 10 && (10..20).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert!(v.iter().all(|&x| x < 5));
            prop_assert!((2..=3).contains(&s.len()));
            prop_assert_eq!(s.chars().filter(|c| ('a'..='c').contains(c)).count(), s.len());
        }
    }

    #[test]
    fn shrinker_reaches_the_boundary_counterexample() {
        use crate::shrink::Wrap;
        // Fails iff x >= 10; greedy halving from 57 must land exactly
        // on the boundary value 10.
        let mut body = |(x,): (u32,)| {
            if x >= 10 {
                Err(TestCaseError::fail("too big"))
            } else {
                Ok(())
            }
        };
        let mut inputs = format!("{:?}", (57u32,));
        let result = Wrap((57u32,)).run(&mut body, &mut inputs);
        assert!(result.is_err());
        assert!(inputs.starts_with("(10,)"), "{inputs}");
        assert!(
            inputs.contains("shrunk") && inputs.contains("(57,)"),
            "{inputs}"
        );
    }

    #[test]
    fn shrinker_truncates_vecs_and_minimises_elements() {
        use crate::shrink::Wrap;
        let mut body = |(v,): (Vec<u32>,)| {
            if v.iter().any(|&x| x >= 5) {
                Err(TestCaseError::fail("element too big"))
            } else {
                Ok(())
            }
        };
        let sampled = vec![7u32, 1, 9, 3];
        let mut inputs = format!("{:?}", (sampled.clone(),));
        let result = Wrap((sampled,)).run(&mut body, &mut inputs);
        assert!(result.is_err());
        assert!(inputs.starts_with("([5],)"), "{inputs}");
    }

    #[test]
    fn shrinking_is_deterministic() {
        use crate::shrink::Wrap;
        let run = || {
            let mut body = |(x, v): (i64, Vec<u8>)| {
                if x.unsigned_abs() as usize + v.len() > 6 {
                    Err(TestCaseError::fail("sum too big"))
                } else {
                    Ok(())
                }
            };
            let mut inputs = format!("{:?}", (-40i64, vec![1u8, 2, 3]));
            let _ = Wrap((-40i64, vec![1u8, 2, 3])).run(&mut body, &mut inputs);
            inputs
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shrinker_shrinks_panicking_bodies() {
        use crate::shrink::Wrap;
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let mut body = |(x,): (u32,)| {
            assert!(x < 10, "boundary");
            Ok(())
        };
        let mut inputs = format!("{:?}", (200u32,));
        let result = Wrap((200u32,)).run(&mut body, &mut inputs);
        std::panic::set_hook(hook);
        assert!(result.is_err());
        assert!(inputs.starts_with("(10,)"), "{inputs}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn non_shrinkable_values_fall_back_to_a_single_run(
            v in (0u32..5).prop_map(NoClone),
        ) {
            prop_assert!(v.0 < 5);
        }
    }

    /// Deliberately neither `Clone` nor `Shrink`: exercises the
    /// `RunCase` fallback path of the macro expansion.
    #[derive(Debug)]
    struct NoClone(u32);

    #[test]
    fn failing_property_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            crate::test_runner::run_cases(
                ProptestConfig::with_cases(8),
                "always_fails",
                |rng, inputs| {
                    let v = Strategy::sample(&(0u32..100), rng);
                    *inputs = format!("{v:?}");
                    Err(TestCaseError::fail("nope"))
                },
            );
        });
        let msg = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic carries a String"),
            Ok(()) => panic!("runner swallowed the failure"),
        };
        assert!(
            msg.contains("always_fails") && msg.contains("nope"),
            "{msg}"
        );
        assert!(msg.contains("inputs:"), "{msg}");
    }
}
