//! Offline in-tree substitute for the `proptest` crate.
//!
//! Reimplements the subset the FlexER workspace's property tests use:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map`, range and tuple
//! strategies, `prop::collection::vec`, simple `[class]{m,n}` string
//! strategies, [`any`], `prop_assert!`/`prop_assert_eq!`/`prop_assume!`,
//! and [`ProptestConfig::with_cases`].
//!
//! Unlike upstream there is no shrinking: cases are generated from a
//! deterministic per-test seed sequence, so failures reproduce exactly on
//! every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a generated case did not complete.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the runner draws a fresh case.
    Reject,
    /// `prop_assert!`-style failure with its message.
    Fail(String),
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each test must pass.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adaptor.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),* $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// String strategy from a `[class]{m,n}` pattern (e.g. `"[a-z]{2,8}"`).
/// Supports a single character class of literals and `x-y` ranges plus an
/// optional `{m,n}` repetition (default exactly 1).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let (chars, min, max) = parse_pattern(self);
        let len = rng.gen_range(min..=max);
        (0..len).map(|_| chars[rng.gen_range(0..chars.len())]).collect()
    }
}

fn parse_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    let rest = pattern.strip_prefix('[').unwrap_or_else(|| {
        panic!("unsupported string pattern {pattern:?}: expected `[class]{{m,n}}`")
    });
    let (class, rest) = rest
        .split_once(']')
        .unwrap_or_else(|| panic!("unterminated character class in {pattern:?}"));
    let mut chars = Vec::new();
    let mut it = class.chars().peekable();
    while let Some(c) = it.next() {
        if it.peek() == Some(&'-') {
            let mut ahead = it.clone();
            ahead.next();
            if let Some(&hi) = ahead.peek() {
                it = ahead;
                it.next();
                assert!(c <= hi, "bad range {c}-{hi} in {pattern:?}");
                chars.extend((c..=hi).filter(|ch| ch.is_ascii()));
                continue;
            }
        }
        chars.push(c);
    }
    assert!(!chars.is_empty(), "empty character class in {pattern:?}");
    if rest.is_empty() {
        return (chars, 1, 1);
    }
    let body = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported repetition in {pattern:?}"));
    let (m, n) = body.split_once(',').unwrap_or((body, body));
    let min: usize = m.trim().parse().expect("repetition lower bound");
    let max: usize = n.trim().parse().expect("repetition upper bound");
    assert!(min <= max, "bad repetition {{{min},{max}}} in {pattern:?}");
    (chars, min, max)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )*};
}
arbitrary_via_standard!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Strategy over every value of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Collection strategies and the `prop::` namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Element-count argument for [`vec()`]: a fixed size or a half-open
        /// range.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            min: usize,
            max_exclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { min: n, max_exclusive: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                Self { min: r.start, max_exclusive: r.end }
            }
        }

        /// Strategy producing `Vec`s of `element` draws.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.min..self.size.max_exclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, size)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any,
        Arbitrary, ProptestConfig, Strategy, TestCaseError,
    };
}

/// FNV-1a over the test name — a stable per-test seed base.
#[doc(hidden)]
pub fn seed_for(test_name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h ^ case.wrapping_mul(0x9E3779B97F4A7C15)
}

#[doc(hidden)]
pub fn new_case_rng(test_name: &str, case: u64) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_name, case))
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of `#[test] fn name(pat in
/// strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut accepted: u32 = 0;
            let mut attempt: u64 = 0;
            let max_attempts = (config.cases as u64) * 20 + 100;
            while accepted < config.cases {
                attempt += 1;
                assert!(
                    attempt <= max_attempts,
                    "proptest {}: too many rejected cases ({} accepted of {})",
                    stringify!($name), accepted, config.cases,
                );
                let mut __rng = $crate::new_case_rng(concat!(module_path!(), "::", stringify!($name)), attempt);
                $(let $arg = $crate::Strategy::generate(&$strat, &mut __rng);)+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest {} failed on case {}: {}", stringify!($name), attempt, msg)
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: left {:?} != right {:?}: {}",
            a, b, format!($($fmt)*)
        );
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Rejects the current case unless `cond` holds; the runner draws a new one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_pattern_parser() {
        let mut rng = crate::new_case_rng("string_pattern_parser", 1);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{2,8}", &mut rng);
            assert!((2..=8).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = Strategy::generate(&"[a-d]{1,3}", &mut rng);
            assert!((1..=3).contains(&t.len()));
            assert!(t.chars().all(|c| ('a'..='d').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro wires strategies, assume and asserts together.
        #[test]
        fn runner_accepts_and_rejects(x in 0usize..100, flag in any::<bool>()) {
            prop_assume!(x != 3);
            prop_assert!(x < 100);
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(x, 100);
        }

        #[test]
        fn vec_and_map_strategies(
            v in prop::collection::vec((0u32..6, -2.0f32..2.0), 0..12),
            s in prop::collection::vec("[a-z]{2,8}", 1..7).prop_map(|w| w.join(" ")),
        ) {
            prop_assert!(v.len() < 12);
            for (a, b) in &v {
                prop_assert!(*a < 6);
                prop_assert!((-2.0..2.0).contains(b));
            }
            prop_assert!(!s.is_empty());
        }
    }

    #[test]
    fn failing_assertions_surface_as_errors() {
        let run = |x: usize| -> Result<(), TestCaseError> {
            prop_assume!(x != 1);
            prop_assert!(x > 100, "x was {}", x);
            Ok(())
        };
        assert!(matches!(run(1), Err(TestCaseError::Reject)));
        match run(2) {
            Err(TestCaseError::Fail(msg)) => assert!(msg.contains("x was 2")),
            other => panic!("expected failure, got {other:?}"),
        }
    }
}
