//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate implements the subset of proptest's API the Anvil workspace's
//! property tests use: the [`proptest!`] macro (with `pat in strategy`
//! arguments), [`strategy::Strategy`] with `prop_map`, [`prop_oneof!`],
//! `any::<T>()`,
//! `prop::collection::vec`, `prop::option::of`, `prop::sample::Index`, and
//! `ProptestConfig::with_cases`.
//!
//! Differences from real proptest: cases are generated from a fixed
//! per-test seed (fully deterministic, no `PROPTEST_CASES` env), and
//! failing inputs are not shrunk — the failure message reports the case
//! number so the deterministic stream can be replayed under a debugger.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test execution support: RNG, config, and failure type.

    /// Deterministic RNG used to generate test cases (splitmix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded for one named test.
        pub fn seed(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A failed property within a test case.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    /// How many cases each property runs.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Stable 64-bit hash of a test name, used as its RNG seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;

    /// Generates values of one type from random bits.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through a function.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn DynStrategy<T>>;

    /// Object-safe strategy surface.
    pub trait DynStrategy<T> {
        /// Draws one value.
        fn dyn_value(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.as_ref().dyn_value(rng)
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Uniform choice among several strategies of one value type.
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over the given options.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty());
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].new_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

pub mod arbitrary {
    //! `any::<T>()` — canonical strategies per type.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the canonical distribution.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod prop {
    //! The `prop::` namespace: collections, options, samples.

    pub mod collection {
        //! Collection strategies.

        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// A size specification: exact or a range.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> SizeRange {
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        /// Strategy for `Vec<T>` with sizes drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// A vector strategy over an element strategy.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo).max(1) as u64;
                let n = self.size.lo + (rng.next_u64() % span) as usize;
                (0..n).map(|_| self.element.new_value(rng)).collect()
            }
        }
    }

    pub mod option {
        //! `Option<T>` strategies.

        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy for `Option<T>` (3/4 `Some`).
        pub struct OptionStrategy<S>(S);

        /// An option strategy over an inner strategy.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_u64().is_multiple_of(4) {
                    None
                } else {
                    Some(self.0.new_value(rng))
                }
            }
        }
    }

    pub mod sample {
        //! Index sampling.

        use crate::arbitrary::Arbitrary;
        use crate::test_runner::TestRng;

        /// An abstract index resolved against a concrete length later.
        #[derive(Clone, Copy, Debug)]
        pub struct Index(usize);

        impl Index {
            /// This index within a collection of `len` elements.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "cannot index an empty collection");
                self.0 % len
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut TestRng) -> Self {
                Index(rng.next_u64() as usize)
            }
        }
    }
}

pub mod prelude {
    //! Everything the tests import.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines deterministic property tests.
///
/// Supports an optional leading `#![proptest_config(expr)]` and any number
/// of `#[test] fn name(args) { body }` items, where each argument is
/// either `pat in strategy` or `name: Type` (shorthand for
/// `name in any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($args:tt)* ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::seed(
                    $crate::test_runner::seed_for(stringify!($name)),
                );
                for case in 0..config.cases {
                    let result: ::core::result::Result<(), $crate::test_runner::TestCaseError> = {
                        $crate::proptest!(@args rng; $($args)*);
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })()
                    };
                    if let Err(e) = result {
                        panic!("property `{}` failed at case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e.0);
                    }
                }
            }
        )*
    };
    // Argument munchers: one `let` binding per parameter.
    (@args $rng:ident; ) => {};
    (@args $rng:ident; $pname:ident : $ty:ty) => {
        let $pname: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
    };
    (@args $rng:ident; $pname:ident : $ty:ty, $($rest:tt)*) => {
        let $pname: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
        $crate::proptest!(@args $rng; $($rest)*);
    };
    (@args $rng:ident; $arg:pat in $strat:expr) => {
        let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut $rng);
    };
    (@args $rng:ident; $arg:pat in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut $rng);
        $crate::proptest!(@args $rng; $($rest)*);
    };
    (@ $($rest:tt)*) => {
        compile_error!("unsupported proptest! syntax");
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Asserts a condition inside a property, failing the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{:?} != {:?}: {}", a, b, format!($($fmt)*));
    }};
}

/// Uniform choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn oneof_and_map_compose(
            v in prop_oneof![
                (0u64..5).prop_map(|x| x * 2),
                (10u64..20).prop_map(|x| x + 1),
            ],
        ) {
            prop_assert!(v < 10 && v % 2 == 0 || (11..=20).contains(&v));
        }

        #[test]
        fn index_resolves(i in any::<prop::sample::Index>(), opt in prop::option::of(0u8..9)) {
            prop_assert!(i.index(7) < 7);
            if let Some(x) = opt {
                prop_assert!(x < 9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        proptest! {
            @cfg (ProptestConfig::with_cases(4));
            #[allow(unused)]
            fn always_fails(x in 0u8..2) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
