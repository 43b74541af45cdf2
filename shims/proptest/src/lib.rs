//! Vendored shim for the subset of `proptest` this workspace uses.
//!
//! The build container has no network and an empty registry, so the
//! real crate cannot be fetched. This shim implements a small,
//! deterministic property-testing engine with the same *surface*:
//! the [`proptest!`] macro (including `#![proptest_config(..)]`),
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`/`prop_assume!`,
//! [`any`], numeric-range strategies, `prop::collection::vec` and
//! character-class string strategies like `"[a-z]{1,6}"`.
//!
//! Differences from real proptest, deliberately accepted:
//! * no shrinking — a failing case reports its inputs but is not
//!   minimised;
//! * the RNG seed is a deterministic hash of the test name, so runs
//!   are reproducible by construction (CI-friendly) rather than
//!   randomised per invocation.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use parc_util::rng::{SplitMix64, Xoshiro256};

pub mod test_runner {
    //! Runner configuration and the deterministic test RNG.

    use super::{SplitMix64, Xoshiro256};

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Deterministic RNG: seeded from the property's name so each test
    /// explores its own reproducible stream.
    pub struct TestRng {
        inner: Xoshiro256,
    }

    impl TestRng {
        /// Seed from an arbitrary name (typically the test function).
        #[must_use]
        pub fn deterministic(name: &str) -> Self {
            let mut seed = 0x5EED_CAFE_F00D_u64;
            for b in name.bytes() {
                seed = SplitMix64::mix(seed ^ u64::from(b));
            }
            Self {
                inner: Xoshiro256::seed_from_u64(seed),
            }
        }

        /// Seed from an explicit numeric seed — for harnesses (like
        /// corpus generators) that take seeds on the command line
        /// rather than deriving them from a test name.
        #[must_use]
        pub fn with_seed(seed: u64) -> Self {
            Self {
                inner: Xoshiro256::seed_from_u64(seed),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }

        /// Uniform in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.inner.next_below(bound)
        }

        /// Uniform `f64` in `[lo, hi)`.
        pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
            self.inner.gen_range_f64(lo..hi)
        }
    }
}

use test_runner::TestRng;

/// A generator of values for one property argument.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// A strategy always yielding clones of one value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a whole-domain default strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, symmetric around zero, spanning many magnitudes.
        let mag = rng.range_f64(-308.0, 308.0);
        let sign = if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 };
        sign * 10f64.powf(mag / 16.0)
    }
}

/// The `any::<T>()` whole-domain strategy.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy over `T`'s whole domain.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.below(span);
                (self.start as i128 + off as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                let off = rng.below(span);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.range_f64(self.start, self.end)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    #[allow(clippy::cast_possible_truncation)]
    fn generate(&self, rng: &mut TestRng) -> f32 {
        rng.range_f64(f64::from(self.start), f64::from(self.end)) as f32
    }
}

/// A `&str` is a character-class pattern strategy: a sequence of
/// `[class]{m,n}` / `[class]{m}` / `[class]` atoms (plus bare literal
/// characters), generating a matching `String`. This covers the
/// pattern subset used as proptest string strategies in this
/// workspace; unsupported syntax panics loudly at generation time.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let (choices, next) = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .map(|p| i + p)
                        .unwrap_or_else(|| panic!("unclosed [ in pattern {self:?}"));
                    (parse_class(&chars[i + 1..close], self), close + 1)
                }
                '{' | '}' | ']' => panic!("unsupported pattern syntax in {self:?}"),
                c => (vec![c], i + 1),
            };
            let (lo, hi, next) = parse_repeat(&chars, next, self);
            let count = if lo == hi {
                lo
            } else {
                lo + rng.below((hi - lo + 1) as u64) as usize
            };
            for _ in 0..count {
                out.push(choices[rng.below(choices.len() as u64) as usize]);
            }
            i = next;
        }
        out
    }
}

fn parse_class(body: &[char], pattern: &str) -> Vec<char> {
    let mut choices = Vec::new();
    let mut j = 0;
    while j < body.len() {
        if j + 2 < body.len() && body[j + 1] == '-' {
            let (lo, hi) = (body[j] as u32, body[j + 2] as u32);
            assert!(lo <= hi, "inverted class range in {pattern:?}");
            for c in lo..=hi {
                choices.push(char::from_u32(c).expect("valid class char"));
            }
            j += 3;
        } else {
            choices.push(body[j]);
            j += 1;
        }
    }
    assert!(!choices.is_empty(), "empty class in {pattern:?}");
    choices
}

fn parse_repeat(chars: &[char], at: usize, pattern: &str) -> (usize, usize, usize) {
    if at >= chars.len() || chars[at] != '{' {
        return (1, 1, at);
    }
    let close = chars[at..]
        .iter()
        .position(|&c| c == '}')
        .map(|p| at + p)
        .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"));
    let body: String = chars[at + 1..close].iter().collect();
    let (lo, hi) = match body.split_once(',') {
        Some((l, h)) => (
            l.trim().parse().expect("repeat lower bound"),
            h.trim().parse().expect("repeat upper bound"),
        ),
        None => {
            let n = body.trim().parse().expect("repeat count");
            (n, n)
        }
    };
    (lo, hi, close + 1)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Accepted size specifications for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive.
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    /// Strategy yielding vectors of `elem`-generated values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(elem, size)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Arbitrary, Just, Strategy};

    /// The `prop::` module path (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert a condition inside a property; failure reports the condition
/// (and optional formatted message) with the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(l == r) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{:?}` != `{:?}`",
                        l,
                        r
                    ));
                }
            }
        }
    };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if l == r {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{:?}` == `{:?}`",
                        l,
                        r
                    ));
                }
            }
        }
    };
}

/// Skip the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// The property-test declaration macro. Each `fn name(pat in strategy,
/// ...) { body }` becomes a `#[test]` running `config.cases`
/// deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::deterministic(::std::stringify!($name));
            for case in 0..config.cases {
                let outcome = (|| -> ::std::result::Result<(), ::std::string::String> {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = outcome {
                    ::std::panic!(
                        "property {} failed on case {}/{}: {}",
                        ::std::stringify!($name),
                        case + 1,
                        config.cases,
                        msg
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u64..17, b in -5i64..5, c in 1usize..=4) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-5..5).contains(&b));
            prop_assert!((1..=4).contains(&c));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(any::<u32>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn string_patterns_match_class(s in "[a-c]{2,5}") {
            prop_assert!(s.len() >= 2 && s.len() <= 5, "len {}", s.len());
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn assume_skips_cases(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        let mut c = crate::test_runner::TestRng::deterministic("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn pattern_with_space_class() {
        let mut rng = crate::test_runner::TestRng::deterministic("space");
        for _ in 0..50 {
            let s = crate::Strategy::generate(&"[a-z ]{0,6}", &mut rng);
            assert!(s.len() <= 6);
            assert!(s.chars().all(|c| c == ' ' || c.is_ascii_lowercase()));
        }
    }
}
