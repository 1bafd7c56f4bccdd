//! The workspace's one seeded random engine.
//!
//! Every random choice the simulator makes — which fault fires
//! (`simnet::fault`), where the random policy migrates
//! (`apps::policy::Random`) — and every generated test input (the
//! superblock corpus, mutated dumps, the property tests) draws from a
//! [`SplitMix64`] seeded explicitly by its owner. There is no host
//! entropy anywhere near it, so every seeded history replays from its
//! seed alone.

use core::ops::{Range, RangeInclusive};

/// splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom
/// number generators", OOPSLA 2014): a 64-bit counter stepped by the
/// golden-ratio increment, each step mixed into one output.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose first output mixes `seed` plus one increment.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 well-mixed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`, by remainder. Panics when `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One element of `from`, uniformly. Panics when `from` is empty.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// Any value of an integer type, biased toward its edges: one draw
    /// in eight is 0, 1, MAX or MIN (uniform draws of a wide type
    /// essentially never hit them), the rest are uniform.
    pub fn int<T: Int>(&mut self) -> T {
        if self.below(8) == 0 {
            T::EDGES[self.below(4) as usize]
        } else {
            T::truncate(self.next_u64())
        }
    }

    /// A length in `len`, uniformly.
    fn len(&mut self, len: Range<usize>) -> usize {
        len.start + self.below((len.end - len.start) as u64) as usize
    }

    /// Bytes drawn by [`int`](Self::int), as many as a uniform draw
    /// from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        (0..self.len(len)).map(|_| self.int()).collect()
    }

    /// A string of characters drawn uniformly from the union of the
    /// byte ranges in `alphabet`, its length a uniform draw from `len`:
    /// `string(&[b'a'..=b'z'], 1..=8)` is the regex `[a-z]{1,8}`.
    pub fn string(
        &mut self,
        alphabet: &[RangeInclusive<u8>],
        len: RangeInclusive<usize>,
    ) -> String {
        let chars: Vec<u8> = alphabet.iter().cloned().flatten().collect();
        (0..self.len(*len.start()..len.end() + 1))
            .map(|_| self.pick(&chars) as char)
            .collect()
    }
}

/// An integer type [`SplitMix64::int`] draws.
pub trait Int: Copy {
    /// 0, 1, MAX and MIN.
    const EDGES: [Self; 4];

    /// The low bits of `x`.
    fn truncate(x: u64) -> Self;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const EDGES: [$t; 4] = [0, 1, <$t>::MAX, <$t>::MIN];

            fn truncate(x: u64) -> $t {
                x as $t
            }
        }
    )*};
}

int!(u8, u16, u32, u64, i32);

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn seed_zero_gives_the_published_outputs() {
        let mut rng = SplitMix64::new(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn below_stays_below() {
        let mut rng = SplitMix64::new(7);
        for n in 1..=1000 {
            assert!(rng.below(n) < n, "bound {n}");
        }
    }

    #[test]
    fn int_hits_every_edge() {
        // 1 000 draws at seed 1 expect about 31 of each edge.
        let mut rng = SplitMix64::new(1);
        let draws: Vec<i32> = (0..1000).map(|_| rng.int()).collect();
        for edge in [0, 1, i32::MIN, i32::MAX] {
            assert!(draws.contains(&edge), "{edge} never drawn");
        }
    }
}
