//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset of the proptest API this workspace uses: range and
//! tuple strategies, `prop_map`, `collection::vec`, `bool::ANY`, the
//! `proptest!` macro, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from real proptest, deliberate for a hermetic build:
//! - no shrinking — a failing case panics with its inputs' debug description
//!   left to the assertion message, and the deterministic per-case seed means
//!   a failure replays by rerunning the same test binary;
//! - no persistence — `*.proptest-regressions` files are ignored;
//! - case generation is seeded from the test's module path and name, so runs
//!   are reproducible across processes without any state files.

/// Deterministic per-case random source (splitmix64 over a derived seed).
pub mod test_runner {
    /// Runner configuration; only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Splitmix64 stream seeded from (test name, case index).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Derive the stream for one named test case.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            // FNV-1a over the name, then mix in the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut rng = Self {
                state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            // burn one output so near-identical seeds decorrelate
            rng.next_u64();
            rng
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // widening-multiply map; bias is irrelevant for test-input generation
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with a function.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy producing one fixed (cloned) value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
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

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (lo as i64).wrapping_add(rng.below(span + 1) as i64) as $t
                }
            }
        )*};
    }

    signed_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    $(let $v = $s.generate(rng);)+
                    ($($v,)+)
                }
            }
        };
    }

    tuple_strategy!(A / a);
    tuple_strategy!(A / a, B / b);
    tuple_strategy!(A / a, B / b, C / c);
    tuple_strategy!(A / a, B / b, C / c, D / d);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g, H / h);
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive length bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector whose length and elements are independently random.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `true` or `false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// A uniformly random boolean.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The usual glob import: strategies, config, and the macros.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define property tests: each `fn name(args in strategies) { body }` becomes
/// a test that runs `body` over `config.cases` deterministic random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (config = ($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::test_runner::ProptestConfig = $config;
            let __pt_strats = ($($strat,)+);
            let __pt_name = concat!(module_path!(), "::", stringify!($name));
            for __pt_case in 0..__pt_config.cases {
                let mut __pt_rng =
                    $crate::test_runner::TestRng::for_case(__pt_name, __pt_case as u64);
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&__pt_strats, &mut __pt_rng);
                // IIFE so prop_assume! can `return` out of just this case
                let __pt_case_fn = move || $body;
                __pt_case_fn();
            }
        }
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
}

/// Assert a condition inside a property; panics (failing the case) otherwise.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Assert two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Assert two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Skip the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds; tuples and prop_map compose.
        #[test]
        fn ranges_in_bounds(
            a in 2usize..=64,
            b in 1u32..8,
            (lo, hi) in (0u64..100, 100u64..200).prop_map(|(x, y)| (x, y)),
            xs in crate::collection::vec(0u32..=6, 1..=12),
            flag in crate::bool::ANY,
            f in 1.0f64..3.0,
        ) {
            prop_assert!((2..=64).contains(&a));
            prop_assert!(b < 8 && b >= 1);
            prop_assert!(lo < 100 && (100..200).contains(&hi));
            prop_assert!(!xs.is_empty() && xs.len() <= 12 && xs.iter().all(|&x| x <= 6));
            prop_assert!(flag || !flag);
            prop_assert!((1.0..3.0).contains(&f));
        }

        /// prop_assume skips cases without failing the test.
        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut r1 = crate::test_runner::TestRng::for_case("t", 3);
        let mut r2 = crate::test_runner::TestRng::for_case("t", 3);
        let s = 0u64..=u64::MAX;
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }
}
