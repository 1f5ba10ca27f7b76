//! A vendored, dependency-free subset of the `proptest` crate.
//!
//! The build environment has no network access to a crates.io mirror, so the
//! workspace vendors the small slice of proptest's API that the test suite
//! actually uses: the `proptest!` / `prop_assert*` / `prop_oneof!` macros,
//! range and tuple strategies, `Just`, `any::<T>()`,
//! `proptest::collection::vec`, and a loose string strategy. Cases are
//! generated from a deterministic SplitMix64 stream seeded per test name, so
//! failures reproduce exactly across runs. There is no shrinking: the panic
//! message carries the failing inputs instead.

pub mod test_runner {
    /// Deterministic SplitMix64 generator driving case generation.
    #[derive(Debug, Clone)]
    pub struct Rng {
        state: u64,
    }

    impl Rng {
        pub fn new(seed: u64) -> Rng {
            Rng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// FNV-1a over a test's name: stable per-test seeds without global state.
    pub fn seed_from_name(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// A failed property case (carries the formatted assertion message).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Runner configuration; only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    pub use crate::test_runner::Rng;

    /// A generator of values for property tests. Unlike upstream proptest
    /// there is no value tree or shrinking; a strategy just samples.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut Rng) -> Self::Value;
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut Rng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut Rng) -> f64 {
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            self.start + unit * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $idx:tt),+)),+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut Rng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy!(
        (A / 0, B / 1),
        (A / 0, B / 1, C / 2),
        (A / 0, B / 1, C / 2, D / 3)
    );

    /// Types with a canonical "anything goes" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut Rng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut Rng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut Rng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Any<T> {
            Any(std::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }

    /// A boxed sampling closure — one `prop_oneof!` arm.
    pub type UnionArm<V> = Box<dyn Fn(&mut Rng) -> V>;

    /// `prop_oneof!` support: picks one of several same-typed strategies.
    pub struct Union<V> {
        options: Vec<UnionArm<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<UnionArm<V>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut Rng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            (self.options[i])(rng)
        }
    }

    /// String literals act as regex strategies upstream. We honor only the
    /// common `...{lo,hi}` length suffix and draw from a printable pool
    /// (including multi-byte code points, so UTF-8 handling is exercised);
    /// the character-class body is otherwise ignored.
    impl Strategy for &str {
        type Value = String;
        fn sample(&self, rng: &mut Rng) -> String {
            let (lo, hi) = parse_repeat_suffix(self).unwrap_or((0, 8));
            let pool: &[char] = &[
                'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '.', ',', '!', '?', '/', '\\',
                '"', '\'', 'é', 'ß', 'λ', '中', '🦀',
            ];
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len)
                .map(|_| pool[rng.below(pool.len() as u64) as usize])
                .collect()
        }
    }

    fn parse_repeat_suffix(pat: &str) -> Option<(usize, usize)> {
        let body = pat.strip_suffix('}')?;
        let brace = body.rfind('{')?;
        let mut parts = body[brace + 1..].splitn(2, ',');
        let lo: usize = parts.next()?.trim().parse().ok()?;
        let hi: usize = match parts.next() {
            Some(s) => s.trim().parse().ok()?,
            None => lo,
        };
        (lo <= hi).then_some((lo, hi))
    }
}

pub mod collection {
    use crate::strategy::{Rng, Strategy};

    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// Size bounds accepted by [`vec()`]: `a..b`, `a..=b`, or an exact `usize`.
    pub trait IntoSizeRange {
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use test_runner::Rng;

/// The entry macro: a block of `#[test] fn name(arg in strategy, ...) { .. }`
/// items, optionally preceded by `#![proptest_config(..)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])+ fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::Rng::new(
                    $crate::test_runner::seed_from_name(concat!(module_path!(), "::", stringify!($name))),
                );
                for case in 0..cfg.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}, ",)+ ""),
                        $(&$arg,)+
                    );
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest case {}/{} failed: {}\n  inputs: {}",
                            case + 1, cfg.cases, e, inputs,
                        );
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest runner (with input echo).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {{
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            lhs,
            rhs
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs != *rhs,
            "assertion failed: `left != right`\n  both: `{:?}`",
            lhs
        );
    }};
}

/// Pick uniformly among same-typed strategies: `prop_oneof![a, b, c]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $({
                let s = $strat;
                ::std::boxed::Box::new(move |rng: &mut $crate::test_runner::Rng| {
                    $crate::strategy::Strategy::sample(&s, rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::Rng) -> _>
            }),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::Rng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let v = Strategy::sample(&(-50i64..50), &mut rng);
            assert!((-50..50).contains(&v));
            let u = Strategy::sample(&(1usize..20), &mut rng);
            assert!((1..20).contains(&u));
        }
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let mut rng = Rng::new(2);
        for _ in 0..1_000 {
            let v = Strategy::sample(&crate::collection::vec(0i64..10, 3..7), &mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn string_pattern_length_suffix_honored() {
        let mut rng = Rng::new(3);
        for _ in 0..1_000 {
            let s = Strategy::sample(&"\\PC{0,40}", &mut rng);
            assert!(s.chars().count() <= 40);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let s = (0i64..1000, 0u8..4);
        for _ in 0..100 {
            assert_eq!(Strategy::sample(&s, &mut a), Strategy::sample(&s, &mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_roundtrip(xs in crate::collection::vec(0i64..100, 0..20),
                           pick in prop_oneof![Just(1usize), Just(7usize)]) {
            prop_assert!(pick == 1usize || pick == 7usize);
            for x in &xs {
                prop_assert!((0..100).contains(x));
            }
            prop_assert_eq!(xs.len(), xs.len());
        }
    }
}
