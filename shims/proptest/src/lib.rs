//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate
//! re-implements the subset of proptest's API the workspace's property
//! tests use: the [`strategy::Strategy`] trait with `prop_map`,
//! `prop_recursive` and `boxed`; strategies for ranges, tuples, string
//! regexes, collections and options; [`arbitrary::Arbitrary`] with
//! [`any`]; and the `proptest!`, `prop_oneof!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_assert_ne!` and `prop_assume!` macros.
//!
//! Differences from real proptest, deliberate for an offline shim:
//!
//! * **No shrinking.** A failing case reports its generated inputs
//!   (`Debug`) and the deterministic per-test seed instead of a minimized
//!   counterexample.
//! * **Deterministic by default.** Each test derives its RNG seed from the
//!   test's module path, so CI runs are reproducible; set `PROPTEST_SEED`
//!   to explore a different stream and `PROPTEST_CASES` to change the
//!   case count.
//! * **Regex strategies** support the subset used here: literal
//!   characters, character classes with ranges and escapes, `\PC`
//!   (any printable), `\d`, `\w`, and the `{n}`/`{m,n}`/`?`/`*`/`+`
//!   quantifiers.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration, RNG and case-level error plumbing.

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// Cases after applying the `PROPTEST_CASES` env override.
        pub fn resolved_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES") {
                Ok(v) => v.parse().unwrap_or(self.cases),
                Err(_) => self.cases,
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// A failing case with a message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError::Fail(message.into())
        }

        /// A rejected (skipped) case.
        pub fn reject(message: impl Into<String>) -> Self {
            TestCaseError::Reject(message.into())
        }
    }

    /// Deterministic per-test random source handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// RNG for the named test: seeded from the test path so runs are
        /// reproducible, XORed with `PROPTEST_SEED` when set.
        pub fn for_test(test_path: &str) -> Self {
            let mut hash: u64 = 0xcbf29ce484222325;
            for b in test_path.bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
            let env_seed: u64 = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            TestRng(StdRng::seed_from_u64(hash ^ env_seed))
        }

        /// Raw 64-bit draw.
        pub fn random_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform value in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            self.0.gen::<f64>()
        }

        /// Uniform index in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics when `bound` is zero.
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0, "below(0)");
            self.0.gen_range(0..bound)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::sync::Arc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type (must be printable for failure reports).
        type Value: Debug;

        /// Draws one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Send + Sync + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Builds a recursive strategy: at each of `depth` levels, values
        /// come either from the base strategy or from `expand` applied to
        /// the previous level (50/50), bounding recursion depth.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            expand: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Send + Sync + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + Send + Sync + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let base = self.boxed();
            let mut current = base.clone();
            for _ in 0..depth {
                let deeper = expand(current).boxed();
                current = Union::new(vec![base.clone(), deeper]).boxed();
            }
            current
        }
    }

    /// Object-safe strategy view used by [`BoxedStrategy`].
    trait DynStrategy<T>: Send + Sync {
        fn gen_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<T, S> DynStrategy<T> for S
    where
        T: Debug,
        S: Strategy<Value = T> + Send + Sync,
    {
        fn gen_dyn(&self, rng: &mut TestRng) -> T {
            self.gen_value(rng)
        }
    }

    /// A type-erased, shareable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            self.0.gen_dyn(rng)
        }
    }

    impl<T> Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy(..)")
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        U: Debug,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn gen_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Chooses uniformly (or by weight) among alternative strategies.
    pub struct Union<T> {
        variants: Vec<(u32, BoxedStrategy<T>)>,
        total_weight: u64,
    }

    impl<T: Debug> Union<T> {
        /// Uniform choice among `variants`.
        ///
        /// # Panics
        ///
        /// Panics when `variants` is empty.
        pub fn new(variants: Vec<BoxedStrategy<T>>) -> Self {
            Self::weighted(variants.into_iter().map(|v| (1, v)).collect())
        }

        /// Weighted choice among `variants`.
        ///
        /// # Panics
        ///
        /// Panics when `variants` is empty or all weights are zero.
        pub fn weighted(variants: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!variants.is_empty(), "prop_oneof! of zero strategies");
            let total_weight: u64 = variants.iter().map(|(w, _)| *w as u64).sum();
            assert!(total_weight > 0, "prop_oneof! weights sum to zero");
            Union {
                variants,
                total_weight,
            }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            let mut pick = (rng.random_u64() % self.total_weight) as i64;
            for (weight, variant) in &self.variants {
                pick -= *weight as i64;
                if pick < 0 {
                    return variant.gen_value(rng);
                }
            }
            self.variants[self.variants.len() - 1].1.gen_value(rng)
        }
    }

    impl<T> Debug for Union<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Union({} variants)", self.variants.len())
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = ((rng.random_u64() as u128 * span) >> 64) as i128;
                    (self.start as i128 + offset) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    if start == end { return start; }
                    let span = (end as i128 - start as i128 + 1) as u128;
                    let offset = ((rng.random_u64() as u128 * span) >> 64) as i128;
                    (start as i128 + offset) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn gen_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;

        fn gen_value(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit() as f32) * (self.end - self.start)
        }
    }

    /// String literals are regex strategies generating matching strings.
    impl Strategy for &'static str {
        type Value = String;

        fn gen_value(&self, rng: &mut TestRng) -> String {
            crate::string::string_regex(self)
                .unwrap_or_else(|e| panic!("invalid regex strategy {self:?}: {e}"))
                .gen_value(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5)
    }

    /// Strategy for [`crate::arbitrary::Arbitrary`] types (see [`crate::any`]).
    pub struct ArbitraryStrategy<A>(pub(crate) PhantomData<A>);

    impl<A> Debug for ArbitraryStrategy<A> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("ArbitraryStrategy")
        }
    }

    impl<A: crate::arbitrary::Arbitrary> Strategy for ArbitraryStrategy<A> {
        type Value = A;

        fn gen_value(&self, rng: &mut TestRng) -> A {
            A::arbitrary_with_rng(rng)
        }
    }
}

pub mod arbitrary {
    //! Default strategies per type.

    use crate::test_runner::TestRng;
    use std::fmt::Debug;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized + Debug {
        /// Draws an arbitrary value.
        fn arbitrary_with_rng(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_with_rng(rng: &mut TestRng) -> Self {
                    rng.random_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_with_rng(rng: &mut TestRng) -> Self {
            rng.random_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary_with_rng(rng: &mut TestRng) -> Self {
            // Printable ASCII keeps generated ids readable.
            char::from_u32(0x20 + (rng.random_u64() % 0x5f) as u32).unwrap_or('?')
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary_with_rng(rng: &mut TestRng) -> Self {
            std::array::from_fn(|_| T::arbitrary_with_rng(rng))
        }
    }
}

/// The canonical strategy for `A`: any value.
pub fn any<A: arbitrary::Arbitrary>() -> strategy::ArbitraryStrategy<A> {
    strategy::ArbitraryStrategy(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    /// Inclusive-exclusive bounds on a generated collection size.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            if self.max_exclusive <= self.min + 1 {
                self.min
            } else {
                self.min + rng.below(self.max_exclusive - self.min)
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: r.end().saturating_add(1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`; duplicate keys
    /// collapse, so the final size may be below the sampled size.
    pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        BTreeMapStrategy {
            keys,
            values,
            size: size.into(),
        }
    }

    /// See [`btree_map`].
    #[derive(Debug)]
    pub struct BTreeMapStrategy<K, V> {
        keys: K,
        values: V,
        size: SizeRange,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n)
                .map(|_| (self.keys.gen_value(rng), self.values.gen_value(rng)))
                .collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.gen_value(rng))
            }
        }
    }
}

pub mod string {
    //! Regex-derived string strategies (generation only, subset syntax).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A regex the shim's parser does not understand.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InvalidRegex(String);

    impl std::fmt::Display for InvalidRegex {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "unsupported regex: {}", self.0)
        }
    }

    impl std::error::Error for InvalidRegex {}

    #[derive(Debug, Clone)]
    struct Atom {
        choices: Vec<char>,
        min: usize,
        max: usize,
    }

    /// Strategy generating strings matching a regex subset; see
    /// [`string_regex`].
    #[derive(Debug, Clone)]
    pub struct RegexGeneratorStrategy {
        atoms: Vec<Atom>,
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;

        fn gen_value(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for atom in &self.atoms {
                let n = if atom.max > atom.min {
                    atom.min + rng.below(atom.max - atom.min + 1)
                } else {
                    atom.min
                };
                for _ in 0..n {
                    out.push(atom.choices[rng.below(atom.choices.len())]);
                }
            }
            out
        }
    }

    fn printable_choices() -> Vec<char> {
        // `\PC`: anything that is not a control character. Printable ASCII
        // plus a few multi-byte scalars to exercise UTF-8 handling.
        let mut v: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
        v.extend(['é', 'λ', '–', '☃']);
        v
    }

    fn class_escape(c: char) -> Result<Vec<char>, InvalidRegex> {
        Ok(match c {
            'd' => ('0'..='9').collect(),
            'w' => ('a'..='z')
                .chain('A'..='Z')
                .chain('0'..='9')
                .chain(std::iter::once('_'))
                .collect(),
            's' => vec![' ', '\t'],
            'n' => vec!['\n'],
            't' => vec!['\t'],
            // Any other escaped char is itself (covers \- \. \" \\ etc.).
            other => vec![other],
        })
    }

    fn parse_class(
        chars: &mut std::iter::Peekable<std::str::Chars>,
    ) -> Result<Vec<char>, InvalidRegex> {
        let mut set = Vec::new();
        let mut prev: Option<char> = None;
        loop {
            let c = chars
                .next()
                .ok_or_else(|| InvalidRegex("unterminated character class".into()))?;
            match c {
                ']' => return Ok(set),
                '\\' => {
                    let esc = chars
                        .next()
                        .ok_or_else(|| InvalidRegex("trailing backslash in class".into()))?;
                    let mut expanded = class_escape(esc)?;
                    prev = if expanded.len() == 1 {
                        Some(expanded[0])
                    } else {
                        None
                    };
                    set.append(&mut expanded);
                }
                '-' => {
                    // A range if squeezed between two literals, else literal.
                    match (prev, chars.peek().copied()) {
                        (Some(lo), Some(hi)) if hi != ']' && hi != '\\' => {
                            chars.next();
                            if (lo as u32) > (hi as u32) {
                                return Err(InvalidRegex(format!("bad range {lo}-{hi}")));
                            }
                            for code in (lo as u32 + 1)..=(hi as u32) {
                                if let Some(ch) = char::from_u32(code) {
                                    set.push(ch);
                                }
                            }
                            prev = None;
                        }
                        _ => {
                            set.push('-');
                            prev = Some('-');
                        }
                    }
                }
                other => {
                    set.push(other);
                    prev = Some(other);
                }
            }
        }
    }

    fn parse_quantifier(
        chars: &mut std::iter::Peekable<std::str::Chars>,
    ) -> Result<(usize, usize), InvalidRegex> {
        match chars.peek() {
            Some('{') => {
                chars.next();
                let mut body = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        let (min, max) =
                            match body.split_once(',') {
                                None => {
                                    let n: usize = body.trim().parse().map_err(|_| {
                                        InvalidRegex(format!("bad count {{{body}}}"))
                                    })?;
                                    (n, n)
                                }
                                Some((lo, hi)) => {
                                    let min = lo.trim().parse().map_err(|_| {
                                        InvalidRegex(format!("bad bound {{{body}}}"))
                                    })?;
                                    let max = if hi.trim().is_empty() {
                                        min + 8
                                    } else {
                                        hi.trim().parse().map_err(|_| {
                                            InvalidRegex(format!("bad bound {{{body}}}"))
                                        })?
                                    };
                                    (min, max)
                                }
                            };
                        if max < min {
                            return Err(InvalidRegex(format!("inverted bounds {{{body}}}")));
                        }
                        return Ok((min, max));
                    }
                    body.push(c);
                }
                Err(InvalidRegex("unterminated quantifier".into()))
            }
            Some('*') => {
                chars.next();
                Ok((0, 8))
            }
            Some('+') => {
                chars.next();
                Ok((1, 8))
            }
            Some('?') => {
                chars.next();
                Ok((0, 1))
            }
            _ => Ok((1, 1)),
        }
    }

    /// Parses `pattern` into a generator strategy.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRegex`] on syntax outside the supported subset
    /// (alternation, groups, anchors...).
    pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, InvalidRegex> {
        let mut chars = pattern.chars().peekable();
        let mut atoms = Vec::new();
        while let Some(c) = chars.next() {
            let choices = match c {
                '[' => {
                    let set = parse_class(&mut chars)?;
                    if set.is_empty() {
                        return Err(InvalidRegex("empty character class".into()));
                    }
                    set
                }
                '\\' => {
                    let esc = chars
                        .next()
                        .ok_or_else(|| InvalidRegex("trailing backslash".into()))?;
                    if esc == 'P' {
                        match chars.next() {
                            Some('C') => printable_choices(),
                            other => {
                                return Err(InvalidRegex(format!(
                                    "unsupported category \\P{other:?}"
                                )))
                            }
                        }
                    } else {
                        class_escape(esc)?
                    }
                }
                '.' => printable_choices(),
                '(' | ')' | '|' | '^' | '$' => {
                    return Err(InvalidRegex(format!("unsupported metachar {c:?}")))
                }
                literal => vec![literal],
            };
            let (min, max) = parse_quantifier(&mut chars)?;
            atoms.push(Atom { choices, min, max });
        }
        Ok(RegexGeneratorStrategy { atoms })
    }
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate::any;
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// panicking directly) so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `{:?}` != `{:?}`",
                    __l,
                    __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, $($fmt)*);
            }
        }
    };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(*__l != *__r, "assertion failed: `{:?}` == `{:?}`", __l, __r);
            }
        }
    };
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform (or weighted, with `weight => strategy` arms) choice among
/// strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(binding in strategy, ...)` runs
/// the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$attr:meta])*
        fn $name:ident( $($bind:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __cases = __config.resolved_cases();
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __cases {
                __attempts += 1;
                assert!(
                    __attempts <= __cases.saturating_mul(16) + 64,
                    "proptest {}: too many rejected cases ({} attempts)",
                    stringify!($name),
                    __attempts,
                );
                let __vals = ($($crate::strategy::Strategy::gen_value(&($strat), &mut __rng),)*);
                let __case_desc = format!("{:?}", &__vals);
                let __run = move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    let ($($bind,)*) = __vals;
                    $body
                    ::core::result::Result::Ok(())
                };
                match __run() {
                    ::core::result::Result::Ok(()) => __accepted += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest {} failed at case {}/{}:\n  {}\n  inputs: {}\n  (re-run deterministically; override stream with PROPTEST_SEED)",
                            stringify!($name),
                            __accepted + 1,
                            __cases,
                            __msg,
                            __case_desc,
                        );
                    }
                }
            }
            let _ = &mut __rng;
            let _ = __attempts;
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::for_test("proptest::selftest")
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = rng();
        for _ in 0..500 {
            let v = (3usize..9).gen_value(&mut rng);
            assert!((3..9).contains(&v));
            let f = (-1.0f64..1.0).gen_value(&mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = rng();
        let strat = crate::string::string_regex("[a-c]{2,4}x\\d?").unwrap();
        for _ in 0..200 {
            let s = strat.gen_value(&mut rng);
            let prefix_len = s.chars().take_while(|c| ('a'..='c').contains(c)).count();
            assert!((2..=4).contains(&prefix_len), "{s:?}");
            let rest: Vec<char> = s.chars().skip(prefix_len).collect();
            assert_eq!(rest[0], 'x', "{s:?}");
            assert!(rest.len() <= 2);
        }
    }

    #[test]
    fn regex_class_with_escapes() {
        let mut rng = rng();
        let strat = crate::string::string_regex("[a-z0-9\\-\\.\"\\\\]{1,12}").unwrap();
        for _ in 0..200 {
            let s = strat.gen_value(&mut rng);
            assert!(!s.is_empty() && s.len() <= 12);
            for c in s.chars() {
                assert!(
                    c.is_ascii_lowercase() || c.is_ascii_digit() || "-.\"\\".contains(c),
                    "unexpected char {c:?} in {s:?}"
                );
            }
        }
    }

    #[test]
    fn unsupported_regex_rejected() {
        assert!(crate::string::string_regex("(a|b)").is_err());
        assert!(crate::string::string_regex("[unterminated").is_err());
    }

    #[test]
    fn collections_and_options() {
        let mut rng = rng();
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u8>(), 2..5).gen_value(&mut rng);
            assert!((2..5).contains(&v.len()));
            let m = crate::collection::btree_map("[ab]", any::<u8>(), 0..4).gen_value(&mut rng);
            assert!(m.len() < 4);
        }
        let opts: Vec<Option<u8>> = (0..200)
            .map(|_| crate::option::of(any::<u8>()).gen_value(&mut rng))
            .collect();
        assert!(opts.iter().any(Option::is_some));
        assert!(opts.iter().any(Option::is_none));
    }

    #[test]
    fn union_hits_all_variants() {
        let mut rng = rng();
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.gen_value(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(#[allow(dead_code)] u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = rng();
        for _ in 0..200 {
            assert!(depth(&strat.gen_value(&mut rng)) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(mut v in crate::collection::vec(any::<u16>(), 0..20), flag in any::<bool>()) {
            let before = v.clone();
            v.reverse();
            v.reverse();
            prop_assert_eq!(&v, &before);
            prop_assert!(v.len() < 20);
            if flag {
                prop_assert_ne!(v.len(), usize::MAX);
            }
        }

        #[test]
        fn assume_skips_cases(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest always_fails failed")]
    fn failing_case_reports_inputs() {
        proptest! {
            #[allow(unused)]
            fn always_fails(n in 0u32..10) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
        always_fails();
    }
}
