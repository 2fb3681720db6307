//! Offline drop-in replacement for the subset of `proptest` used by this
//! workspace's property tests.
//!
//! The build environment has no crates.io access, so the real `proptest`
//! cannot be resolved. This shim keeps the same test-author surface —
//! `proptest!`, `prop_assert!`, `prop_assert_eq!`, `prop_oneof!`, `Just`,
//! `any`, `prop::collection::vec`, `Strategy::{prop_map, prop_flat_map}`
//! and `ProptestConfig::with_cases` — but runs plain randomized cases with
//! a per-test deterministic seed and **no shrinking**: a failing case
//! reports its case number, and re-running reproduces it exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration (only the case count is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of randomized cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` randomized cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property within a test case (produced by `prop_assert!`).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Compile-time FNV-1a hash used to derive a per-test seed from its name.
pub const fn fnv1a(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
        i += 1;
    }
    hash
}

/// The deterministic per-case generator handed to strategies.
pub fn case_rng(test_seed: u64, case: u32) -> StdRng {
    StdRng::seed_from_u64(
        test_seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

// ---- strategies ----------------------------------------------------------

/// A generator of random values for one test parameter.
///
/// Unlike the real crate there is no value tree: `generate` draws directly,
/// and failing cases are replayed by seed rather than shrunk.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then generates from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
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
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
}

/// `Strategy::prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `Strategy::prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(*self.start()..=*self.end())
            }
        }
    )*};
}
range_strategy!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
arbitrary_int!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy over the whole domain of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, StdRng};
    use rand::Rng;

    /// Inclusive length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of `element` values; `size` may be an exact
    /// `usize`, a `Range`, or a `RangeInclusive`.
    pub fn vec<S: Strategy>(
        element: S,
        size: impl Into<SizeRange>,
    ) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Combinator strategies (mirrors `proptest::strategy`).
pub mod strategy {
    use super::{BoxedStrategy, StdRng, Strategy};
    use rand::Rng;

    /// Uniform choice between type-erased alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a uniform union over the given alternatives.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].generate(rng)
        }
    }
}

// ---- macros --------------------------------------------------------------

/// Asserts a property inside a `proptest!` body; failures abort the case
/// with a message rather than unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` randomized, seed-deterministic
/// repetitions of the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::ProptestConfig::default(); $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __seed = $crate::fnv1a(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::case_rng(__seed, __case);
                $(
                    let $pat =
                        $crate::Strategy::generate(&($strat), &mut __rng);
                )+
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name), __case, __cfg.cases, e
                    );
                }
            }
        }
    )*};
}

/// The glob-import surface test files use (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(
            x in 0.25f32..0.75,
            n in 3usize..7,
            b in any::<bool>(),
        ) {
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!((3..7).contains(&n));
            prop_assert!(b || !b);
        }

        #[test]
        fn vec_lengths_and_maps(
            v in prop::collection::vec(0i8..10, 2..5),
            w in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0), 1..4),
            m in (1u8..4).prop_map(|x| x * 2),
        ) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
            prop_assert!((1..4).contains(&w.len()));
            prop_assert!([2, 4, 6].contains(&m));
        }

        #[test]
        fn oneof_and_flat_map(
            x in prop_oneof![0.1f32..0.2, 0.8f32..0.9],
            v in (2usize..5).prop_flat_map(|n| {
                prop::collection::vec(0usize..10, n..=n)
            }),
        ) {
            prop_assert!((0.1..0.2).contains(&x) || (0.8..0.9).contains(&x));
            prop_assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let s = crate::collection::vec(0.0f32..1.0, 4);
        let a: Vec<f32> = Strategy::generate(&s, &mut crate::case_rng(9, 3));
        let b: Vec<f32> = Strategy::generate(&s, &mut crate::case_rng(9, 3));
        assert_eq!(a, b);
    }
}
