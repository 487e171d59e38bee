//! Offline stand-in for `proptest`.
//!
//! Supports the subset of the proptest API this workspace uses: the
//! [`proptest!`] macro with `pat in strategy` arguments and an optional
//! `#![proptest_config(...)]` header, range strategies over numbers,
//! [`collection::vec`], and [`prop_assert!`]. Cases are generated from a
//! seeded RNG (seed derived from the test name, so runs are
//! deterministic); there is no shrinking — a failing case reports its
//! index and generated values are reported by the assertion message.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values (no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_strategy!(usize, u64, u32, i64, i32);

    /// A constant strategy (stand-in for `proptest::strategy::Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: an exact `usize` or a range.
    pub trait SizeRange {
        /// Picks a length.
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Creates a `Vec` strategy with the given element strategy and length
    /// (exact or range), mirroring `proptest::collection::vec`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runner configuration (the `cases` knob is the only one honored).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Drives the case loop of one `proptest!` test.
    #[derive(Debug)]
    pub struct TestRunner {
        cases: u32,
        rng: StdRng,
    }

    impl TestRunner {
        /// Creates a runner whose RNG seed is derived from `name` (FNV-1a),
        /// so each test gets a stable, distinct stream.
        pub fn new(config: ProptestConfig, name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325_u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x1000_0000_01b3);
            }
            Self { cases: config.cases, rng: StdRng::seed_from_u64(seed) }
        }

        /// Number of cases to run.
        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// The case RNG.
        pub fn rng(&mut self) -> &mut StdRng {
            &mut self.rng
        }
    }
}

/// Everything a `proptest!` test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts inside a `proptest!` body; failure aborts the current case with
/// a message instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if $cond {
        } else {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                ::std::stringify!($left),
                ::std::stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// The proptest test-block macro: expands each `fn name(pat in strategy)`
/// into a `#[test]` that runs `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $($(#[$meta:meta])+ fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner =
                    $crate::test_runner::TestRunner::new(config, ::std::stringify!($name));
                for case in 0..runner.cases() {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), runner.rng());
                    )+
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        ::std::panic!(
                            "proptest {} failed at case {}/{}: {}",
                            ::std::stringify!($name),
                            case + 1,
                            runner.cases(),
                            msg
                        );
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
        fn ranges_respect_bounds(x in -0.5f64..0.5, n in 0u64..1000) {
            prop_assert!((-0.5..0.5).contains(&x));
            prop_assert!(n < 1000);
        }

        #[test]
        fn vec_lengths_honored(
            v in collection::vec(0.0f64..1.0, 1..20),
            w in collection::vec(0.0f64..1.0, 4),
        ) {
            prop_assert!((1..20).contains(&v.len()));
            prop_assert_eq!(w.len(), 4);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn config_header_parses(seed in 0u64..100) {
            prop_assert!(seed < 100);
        }
    }

    proptest! {
        #[test]
        #[should_panic(expected = "failed at case")]
        fn failing_property_panics_with_case_info(x in 0.0f64..1.0) {
            prop_assert!(x < 0.0, "x was {}", x);
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        use crate::strategy::Strategy;
        use crate::test_runner::{ProptestConfig, TestRunner};
        let draw = |name: &str| {
            let mut r = TestRunner::new(ProptestConfig::default(), name);
            (0..5).map(|_| (0.0f64..1.0).generate(r.rng())).collect::<Vec<_>>()
        };
        assert_eq!(draw("a"), draw("a"));
        assert_ne!(draw("a"), draw("b"));
    }
}
