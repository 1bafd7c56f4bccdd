//! The `Strategy` trait, combinators and primitive strategies.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// How many times a filtering strategy retries before giving up.
const MAX_FILTER_TRIES: u32 = 1_000;

/// A generator of values for property tests.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }

    fn prop_filter_map<U, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_filter` adapter: regenerates until the predicate accepts.
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..MAX_FILTER_TRIES {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({}) rejected {MAX_FILTER_TRIES} candidates",
            self.whence
        );
    }
}

/// `prop_filter_map` adapter: regenerates until the map returns `Some`.
pub struct FilterMap<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F, U> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        for _ in 0..MAX_FILTER_TRIES {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map({}) rejected {MAX_FILTER_TRIES} candidates",
            self.whence
        );
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice between boxed strategies; built by `prop_oneof!`.
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> Union<V> {
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! weights sum to zero");
        Union { arms, total }
    }
}

/// Boxes one `prop_oneof!` arm. A free function (not an associated fn
/// on `Union`) so the arm's value type can be inferred independently of
/// the union's.
pub fn wrap_arm<S>(strategy: S) -> BoxedStrategy<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(strategy)
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (weight, arm) in &self.arms {
            if pick < *weight as u64 {
                return arm.generate(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

// ---------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Bias toward boundary values one time in eight: uniform
                // draws essentially never hit 0 / MIN / MAX on wide types.
                if rng.below(8) == 0 {
                    match rng.below(4) {
                        0 => 0 as $t,
                        1 => 1 as $t,
                        2 => <$t>::MAX,
                        _ => <$t>::MIN,
                    }
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.below(2) == 1
    }
}

// ---------------------------------------------------------------------
// Integer ranges
// ---------------------------------------------------------------------

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = self.end as i128 - self.start as i128;
                assert!(span > 0, "empty range strategy");
                (self.start as i128 + rng.below(span as u64) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64; // 0 means the full u64 span
                let off = if span == 0 { rng.next_u64() } else { rng.below(span) };
                (lo + off as i128) as $t
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

// ---------------------------------------------------------------------
// String patterns
// ---------------------------------------------------------------------

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::generate(self, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let v = (3u8..7).generate(&mut rng);
            assert!((3..7).contains(&v));
            let w = (1u8..=34).generate(&mut rng);
            assert!((1..=34).contains(&w));
            let x = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn map_and_filter_compose() {
        let mut rng = TestRng::new(2);
        let s = (0u32..10)
            .prop_map(|v| v * 2)
            .prop_filter("nonzero", |v| *v != 0);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v != 0 && v < 20);
        }
    }

    #[test]
    fn filter_map_retries() {
        let mut rng = TestRng::new(3);
        let s = (0u32..100).prop_filter_map("odd", |v| (v % 2 == 1).then_some(v));
        for _ in 0..100 {
            assert!(s.generate(&mut rng) % 2 == 1);
        }
    }

    #[test]
    fn union_respects_weights() {
        let mut rng = TestRng::new(4);
        let s = Union::new(vec![(9, wrap_arm(Just(1u32))), (1, wrap_arm(Just(2u32)))]);
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!(ones > 700, "weight-9 arm picked only {ones}/1000 times");
    }

    #[test]
    fn arbitrary_hits_boundaries() {
        let mut rng = TestRng::new(5);
        let mut saw_extreme = false;
        for _ in 0..200 {
            let v = u32::arbitrary(&mut rng);
            if v == 0 || v == u32::MAX {
                saw_extreme = true;
            }
        }
        assert!(saw_extreme);
    }
}
