//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate vendors
//! the subset of proptest's API that the workspace's property tests use:
//! the [`proptest!`] macro, `prop_assert*`, range/vec/tuple/select/oneof
//! strategies, `prop_map`/`prop_flat_map`, [`any`], and simple
//! regex-shaped string strategies (char classes and `{m,n}` repetition).
//!
//! Semantics differ from upstream in two deliberate ways: case generation
//! is deterministic (seeded from the test name, so failures reproduce
//! without a regressions file), and there is no shrinking — a failing case
//! panics with the standard assertion message. Each test runs
//! `ProptestConfig::cases` generated inputs (default 256).

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Per-test configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated inputs per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-test generator (xoshiro256++ seeded from the test
/// name via FNV-1a, so every test draws an independent, stable stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Generator for the named test.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self::from_seed(h)
    }

    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A generator of test inputs. Unlike upstream there is no shrinking, so a
/// strategy is just "a way to draw a value from the RNG".
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then use it to build the strategy that produces
    /// the final value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + rng.unit_f64() * (hi - lo)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "arbitrary" strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64() * 2e6 - 1e6
    }
}

/// Strategy for the full domain of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// An arbitrary value of `T` — the shim's `proptest::arbitrary::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// One arm of a [`prop_oneof!`] union.
pub type UnionArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// A uniform choice between strategies with a common value type (built by
/// [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<UnionArm<V>>,
}

impl<V> Union<V> {
    /// A union over the given arms (at least one).
    pub fn new(arms: Vec<UnionArm<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

/// String strategies from a simple regex subset: literal characters,
/// `.` (printable ASCII), `[...]` classes with ranges, and the
/// quantifiers `{n}`, `{m,n}`, `?`, `*`, `+` (the latter two capped at 8
/// repetitions).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

mod pattern {
    use super::TestRng;

    const PRINTABLE: (u8, u8) = (0x20, 0x7e);

    enum Atom {
        Literal(char),
        AnyChar,
        Class(Vec<(char, char)>),
    }

    impl Atom {
        fn emit(&self, rng: &mut TestRng, out: &mut String) {
            match self {
                Atom::Literal(c) => out.push(*c),
                Atom::AnyChar => {
                    let span = (PRINTABLE.1 - PRINTABLE.0 + 1) as u64;
                    out.push((PRINTABLE.0 + rng.below(span) as u8) as char);
                }
                Atom::Class(ranges) => {
                    let total: u64 = ranges
                        .iter()
                        .map(|&(a, b)| (b as u64) - (a as u64) + 1)
                        .sum();
                    let mut pick = rng.below(total);
                    for &(a, b) in ranges {
                        let span = (b as u64) - (a as u64) + 1;
                        if pick < span {
                            out.push(char::from_u32(a as u32 + pick as u32).expect("ascii"));
                            return;
                        }
                        pick -= span;
                    }
                    unreachable!("pick < total");
                }
            }
        }
    }

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::AnyChar,
                '[' => {
                    let mut raw = Vec::new();
                    for d in chars.by_ref() {
                        if d == ']' {
                            break;
                        }
                        raw.push(d);
                    }
                    Atom::Class(class_ranges(&raw))
                }
                '\\' => Atom::Literal(chars.next().unwrap_or('\\')),
                c => Atom::Literal(c),
            };
            let (lo, hi) = quantifier(&mut chars);
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                atom.emit(rng, &mut out);
            }
        }
        out
    }

    /// Turn the raw contents of a `[...]` class into ranges: "x-y" triples
    /// become ranges (a `-` first or last is a literal).
    fn class_ranges(chars: &[char]) -> Vec<(char, char)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if chars.get(i + 1) == Some(&'-') && i + 2 < chars.len() {
                let (a, b) = (chars[i], chars[i + 2]);
                assert!(a <= b, "inverted class range {a}-{b}");
                out.push((a, b));
                i += 3;
            } else {
                out.push((chars[i], chars[i]));
                i += 1;
            }
        }
        assert!(!out.is_empty(), "empty character class");
        out
    }

    fn quantifier(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> (usize, usize) {
        match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for d in chars.by_ref() {
                    if d == '}' {
                        break;
                    }
                    spec.push(d);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => {
                        let lo = lo.trim().parse().expect("bad {m,n} quantifier");
                        let hi = hi.trim().parse().expect("bad {m,n} quantifier");
                        assert!(lo <= hi, "inverted quantifier {{{spec}}}");
                        (lo, hi)
                    }
                    None => {
                        let n = spec.trim().parse().expect("bad {n} quantifier");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            _ => (1, 1),
        }
    }
}

/// Namespaced strategy constructors mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Admissible length specifications for [`vec()`].
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec length range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty vec length range");
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        /// Strategy for vectors of `element` values (see [`vec()`]).
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo + 1) as u64;
                let len = self.size.lo + rng.below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Vectors whose length is drawn from `size` and whose elements
        /// come from `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::{Strategy, TestRng};

        /// Strategy choosing uniformly from a fixed list (see [`select`]).
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }

        /// Uniform choice from `options` (at least one).
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Assert inside a property (no shrinking here, so this is `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice between strategies sharing a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let mut arms: Vec<$crate::UnionArm<_>> = Vec::new();
        $({
            let s = $strategy;
            arms.push(Box::new(move |rng: &mut $crate::TestRng| {
                $crate::Strategy::generate(&s, rng)
            }));
        })+
        $crate::Union::new(arms)
    }};
}

/// Define property tests: each `fn` runs its body for `cases` generated
/// inputs (default 256, or `#![proptest_config(...)]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                let _ = __case;
                $(let $pat = $crate::Strategy::generate(&($strategy), &mut rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 5u64..=6), x in -1.0..1.0f64) {
            prop_assert!(a < 10);
            prop_assert!(b == 5 || b == 6);
            prop_assert!((-1.0..1.0).contains(&x));
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0u8..4, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 4));
        }

        #[test]
        fn flat_map_dependent((n, v) in (1u32..4).prop_flat_map(|n| {
            let len = 1usize << n;
            prop::collection::vec(0.0..1.0f64, len..=len).prop_map(move |v| (n, v))
        })) {
            prop_assert_eq!(v.len(), 1usize << n);
        }

        #[test]
        fn oneof_and_select(
            s in prop_oneof![Just("fixed".to_owned()), "[a-c]{2}"],
            pick in prop::sample::select(vec![8usize, 16, 32]),
        ) {
            prop_assert!(s == "fixed" || (s.len() == 2 && s.chars().all(|c| ('a'..='c').contains(&c))));
            prop_assert!([8usize, 16, 32].contains(&pick));
        }

        #[test]
        fn string_patterns(s in "--[a-z0-9:.-]{0,12}") {
            prop_assert!(s.starts_with("--"));
            prop_assert!(s.len() <= 14);
            for c in s[2..].chars() {
                prop_assert!(c.is_ascii_lowercase() || c.is_ascii_digit() || ":.-".contains(c));
            }
        }

        #[test]
        fn any_values(x in any::<u64>(), y in any::<u8>()) {
            let _ = (x, y);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let draw = || {
            let mut rng = crate::TestRng::for_test("stable");
            crate::Strategy::generate(&(0u64..1_000_000), &mut rng)
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn dot_pattern_is_printable() {
        let mut rng = crate::TestRng::for_test("dot");
        for _ in 0..200 {
            let s = crate::Strategy::generate(&".{0,24}", &mut rng);
            assert!(s.len() <= 24);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
    }
}
