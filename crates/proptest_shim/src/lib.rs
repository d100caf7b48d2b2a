//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] macro over range and
//! tuple strategies plus [`collection::vec`], with `prop_assert!` /
//! `prop_assert_eq!` in test bodies. Cases are generated from a
//! deterministic per-test seed (derived from the test name), so failures
//! reproduce across runs. No shrinking is performed: a failing case
//! reports its case index and the generated inputs' `Debug` rendering
//! where available via the assertion message.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Test-runner types: configuration and the deterministic case RNG.
pub mod test_runner {
    /// Mirror of `proptest::test_runner::ProptestConfig` — only `cases`
    /// is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; 64 keeps the opt-level-2 test
            // builds fast while still sweeping a meaningful input space.
            ProptestConfig { cases: 64 }
        }
    }

    /// A failed test case, produced by `prop_assert!` and friends.
    /// Mirrors `proptest::test_runner::TestCaseError` closely enough that
    /// bodies returning `Result<_, TestCaseError>` type-check.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fmt(f)
        }
    }

    /// Deterministic case generator (SplitMix64 over an FNV-hashed name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name, so every test draws an
        /// independent, reproducible stream.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

/// The strategy abstraction: a recipe for generating one value.
pub mod strategy {
    use super::test_runner::TestRng;
    use super::{Range, RangeInclusive};

    /// A value generator (the subset of `proptest::strategy::Strategy`
    /// this workspace relies on).
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (u128::from(rng.next_u64()) * span) >> 64;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty strategy range");
                    let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                    let off = (u128::from(rng.next_u64()) * span) >> 64;
                    (*self.start() as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty, $shift:expr, $den:expr);*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let u = (rng.next_u64() >> $shift) as $t / $den;
                    self.start + u * (self.end - self.start)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty strategy range");
                    let u = (rng.next_u64() >> $shift) as $t / $den;
                    self.start() + u * (self.end() - self.start())
                }
            }
        )*};
    }

    float_range_strategy!(f32, 40, (1u64 << 24) as f32; f64, 11, (1u64 << 53) as f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// The `Just` strategy: always yields a clone of its value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use super::Range;

    /// Length specifications accepted by [`vec`](fn@vec): a fixed `usize` or a
    /// `Range<usize>`.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Mirror of `proptest::collection::vec`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Mirror of `proptest::prop_assert!`: early-returns
/// `Err(TestCaseError)` from the enclosing `Result` closure (the
/// `proptest!` macro wraps each test body in one, and user closures with
/// a trailing `Ok(())` work the same way as with upstream proptest).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Mirror of `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(*lhs == *rhs, "assertion failed: {:?} != {:?}", lhs, rhs);
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(*lhs == *rhs, $($fmt)+);
    }};
}

/// Mirror of `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(*lhs != *rhs, "assertion failed: {:?} == {:?}", lhs, rhs);
    }};
}

/// Mirror of the `proptest!` macro: each `#[test] fn name(arg in strategy,
/// ...)` item becomes a plain test running `cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg = $cfg;
                let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    // Matches upstream: the body runs in a Result closure
                    // so prop_assert! can early-return Err. No shrinking —
                    // the per-name stream makes the case reproducible.
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!("proptest case {} of {}: {}", __case + 1, __cfg.cases, e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, f in -1.5f64..2.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.5..2.5).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn vec_lengths_follow_spec(
            fixed in collection::vec(0u8..=255, 5),
            ranged in collection::vec(-1.0f32..1.0, 2..9),
            pairs in collection::vec((0usize..4, 0.0f64..1.0), 3),
        ) {
            prop_assert_eq!(fixed.len(), 5);
            prop_assert!(ranged.len() >= 2 && ranged.len() < 9);
            prop_assert_eq!(pairs.len(), 3);
            for (i, v) in pairs {
                prop_assert!(i < 4 && (0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn streams_are_deterministic_per_name() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut a = TestRng::from_name("alpha");
        let mut b = TestRng::from_name("alpha");
        let mut c = TestRng::from_name("beta");
        let s = 0u64..1000;
        let av: Vec<u64> = (0..16).map(|_| s.generate(&mut a)).collect();
        let bv: Vec<u64> = (0..16).map(|_| s.generate(&mut b)).collect();
        let cv: Vec<u64> = (0..16).map(|_| s.generate(&mut c)).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }
}
