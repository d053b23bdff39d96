//! Dietzfelbinger's strongly universal multiply-shift hashing.
//!
//! For a power-of-two range `2^d`, `h(x) = (a·x + b mod 2^64) >> (64 - d)`
//! with `a, b` uniform 64-bit values is 2-wise independent ("strongly
//! universal"), and costs one multiply and one shift — no 128-bit products
//! and no modulo. This is the fast path the sketch's hot loop uses when
//! `b` is rounded to a power of two; the polynomial family remains the
//! reference construction for arbitrary ranges.
//!
//! Reference: Dietzfelbinger, "Universal hashing and k-wise independent
//! random variables via integer arithmetic without primes" (STACS '96).

use crate::seed::SeedSequence;
use crate::traits::BucketHasher;

/// A strongly universal multiply-shift hash into `2^d` buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplyShift {
    a: u64,
    b: u64,
    /// log2 of the number of buckets; shift amount is `64 - d`.
    d: u32,
}

impl MultiplyShift {
    /// Draws a fresh function into `2^d` buckets.
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > 32` (the sketch never needs more than
    /// 2^32 buckets and `usize` conversions stay trivially safe).
    pub fn draw(seeds: &mut SeedSequence, d: u32) -> Self {
        assert!((1..=32).contains(&d), "d must be in [1, 32], got {d}");
        Self {
            a: seeds.next_seed(),
            b: seeds.next_seed(),
            d,
        }
    }

    /// Draws a function into the smallest power of two `>= range`.
    /// Returns the function together with the actual bucket count used.
    pub fn draw_at_least(seeds: &mut SeedSequence, range: usize) -> (Self, usize) {
        assert!(range >= 2, "need at least two buckets");
        let d = (range as u64).next_power_of_two().trailing_zeros();
        let h = Self::draw(seeds, d);
        (h, 1usize << d)
    }

    /// log2 of the bucket count.
    pub fn log2_buckets(&self) -> u32 {
        self.d
    }
}

impl BucketHasher for MultiplyShift {
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (self.a.wrapping_mul(key).wrapping_add(self.b) >> (64 - self.d)) as usize
    }

    fn num_buckets(&self) -> usize {
        1usize << self.d
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_in_range() {
        let mut seeds = SeedSequence::new(1);
        for d in [1u32, 4, 10, 20, 32] {
            let h = MultiplyShift::draw(&mut seeds, d);
            assert_eq!(h.num_buckets(), 1usize << d);
            for key in 0..1000u64 {
                assert!(h.bucket(key) < h.num_buckets());
            }
        }
    }

    #[test]
    fn draw_at_least_rounds_up() {
        let mut seeds = SeedSequence::new(2);
        let (h, n) = MultiplyShift::draw_at_least(&mut seeds, 100);
        assert_eq!(n, 128);
        assert_eq!(h.num_buckets(), 128);
        let (_, n) = MultiplyShift::draw_at_least(&mut seeds, 128);
        assert_eq!(n, 128);
        let (_, n) = MultiplyShift::draw_at_least(&mut seeds, 129);
        assert_eq!(n, 256);
    }

    #[test]
    #[should_panic(expected = "d must be in [1, 32]")]
    fn oversized_d_rejected() {
        MultiplyShift::draw(&mut SeedSequence::new(0), 33);
    }

    #[test]
    fn uniformity_chi_square() {
        let h = MultiplyShift::draw(&mut SeedSequence::new(42), 6); // 64 buckets
        let n = 65_536u64;
        let mut counts = [0u64; 64];
        for key in 0..n {
            counts[h.bucket(key)] += 1;
        }
        let expected = n as f64 / 64.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let diff = c as f64 - expected;
                diff * diff / expected
            })
            .sum();
        assert!(chi2 < 130.0, "chi2 = {chi2}");
    }

    #[test]
    fn collision_rate_matches_pairwise() {
        // Strong universality guarantees Pr[h(x)=h(y)] = 1/r over the
        // family draw; use random (not consecutive) key pairs so the
        // collision indicators are roughly independent across pairs.
        let r = 64usize;
        let mut seeds = SeedSequence::new(3);
        let mut keys = SeedSequence::new(1234);
        let mut collisions = 0usize;
        let funcs = 16;
        let pairs = 2000u64;
        for _ in 0..funcs {
            let h = MultiplyShift::draw(&mut seeds, 6);
            for _ in 0..pairs {
                if h.bucket(keys.next_seed()) == h.bucket(keys.next_seed()) {
                    collisions += 1;
                }
            }
        }
        let rate = collisions as f64 / (funcs as f64 * pairs as f64);
        assert!((rate - 1.0 / r as f64).abs() < 0.01, "rate = {rate}");
    }

    proptest! {
        #[test]
        fn prop_bucket_in_range(seed: u64, key: u64, d in 1u32..=32) {
            let h = MultiplyShift::draw(&mut SeedSequence::new(seed), d);
            prop_assert!(h.bucket(key) < h.num_buckets());
        }

        #[test]
        fn prop_deterministic(seed: u64, key: u64) {
            let h1 = MultiplyShift::draw(&mut SeedSequence::new(seed), 12);
            let h2 = MultiplyShift::draw(&mut SeedSequence::new(seed), 12);
            prop_assert_eq!(h1.bucket(key), h2.bucket(key));
        }
    }
}
