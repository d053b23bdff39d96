//! Simple tabulation hashing.
//!
//! The 64-bit key is split into 8 bytes; each byte indexes a table of 256
//! random 64-bit words, and the results are XORed. Simple tabulation is
//! 3-wise independent and — by Pǎtraşcu–Thorup, "The power of simple
//! tabulation hashing" — behaves like a fully random function in many
//! applications (chaining, linear probing, Count-Sketch-style estimators).
//! It is included as a third construction for the hash ablations: fast
//! (no multiplies), more space (8 × 256 words), stronger empirically.

use crate::seed::SeedSequence;
use crate::traits::{BucketHasher, SignHasher};

const BYTES: usize = 8;
const TABLE: usize = 256;

/// A simple tabulation hash into an arbitrary range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    /// 8 tables of 256 random words, flattened row-major.
    tables: Vec<u64>,
    range: u64,
}

impl TabulationHash {
    /// Draws fresh random tables for a hash into `[0, range)`.
    ///
    /// # Panics
    /// Panics if `range == 0`.
    pub fn draw(seeds: &mut SeedSequence, range: usize) -> Self {
        assert!(range > 0, "range must be positive");
        let tables = (0..BYTES * TABLE).map(|_| seeds.next_seed()).collect();
        Self {
            tables,
            range: range as u64,
        }
    }

    /// The raw 64-bit tabulation value, before range reduction.
    #[inline]
    pub fn raw(&self, key: u64) -> u64 {
        let mut acc = 0u64;
        for byte in 0..BYTES {
            let idx = ((key >> (8 * byte)) & 0xFF) as usize;
            acc ^= self.tables[byte * TABLE + idx];
        }
        acc
    }
}

impl BucketHasher for TabulationHash {
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Multiply-high reduction avoids the modulo bias concentrating on
        // low buckets and is faster than `%` for arbitrary ranges.
        ((u128::from(self.raw(key)) * u128::from(self.range)) >> 64) as usize
    }

    fn num_buckets(&self) -> usize {
        self.range as usize
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tables.capacity() * std::mem::size_of::<u64>()
    }
}

impl SignHasher for TabulationHash {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        1 - 2 * ((self.raw(key) & 1) as i64)
    }

    fn space_bytes(&self) -> usize {
        BucketHasher::space_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_in_range() {
        let mut seeds = SeedSequence::new(1);
        for range in [1usize, 2, 100, 1 << 16] {
            let h = TabulationHash::draw(&mut seeds, range);
            for key in 0..500u64 {
                assert!(h.bucket(key) < range);
            }
        }
    }

    #[test]
    fn raw_xors_all_byte_tables() {
        let h = TabulationHash::draw(&mut SeedSequence::new(4), 10);
        // key with distinct bytes: check manual xor.
        let key = 0x0102_0304_0506_0708u64;
        let mut want = 0u64;
        for byte in 0..BYTES {
            let idx = ((key >> (8 * byte)) & 0xFF) as usize;
            want ^= h.tables[byte * TABLE + idx];
        }
        assert_eq!(h.raw(key), want);
    }

    #[test]
    fn signs_balanced() {
        let h = TabulationHash::draw(&mut SeedSequence::new(9), 2);
        let n = 40_000u64;
        let sum: i64 = (0..n).map(|k| h.sign(k)).sum();
        assert!((sum as f64).abs() < 4.0 * (n as f64).sqrt(), "sum = {sum}");
    }

    #[test]
    fn uniformity_chi_square() {
        let h = TabulationHash::draw(&mut SeedSequence::new(42), 64);
        let n = 65_536u64;
        let mut counts = [0u64; 64];
        for key in 0..n {
            counts[h.bucket(key)] += 1;
        }
        let expected = n as f64 / 64.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 130.0, "chi2 = {chi2}");
    }

    #[test]
    fn space_accounts_for_tables() {
        let h = TabulationHash::draw(&mut SeedSequence::new(0), 10);
        assert!(BucketHasher::space_bytes(&h) >= BYTES * TABLE * 8);
    }

    proptest! {
        #[test]
        fn prop_bucket_in_range(seed: u64, key: u64, range in 1usize..1_000_000) {
            let h = TabulationHash::draw(&mut SeedSequence::new(seed), range);
            prop_assert!(h.bucket(key) < range);
        }

        #[test]
        fn prop_deterministic(seed: u64, key: u64) {
            let h1 = TabulationHash::draw(&mut SeedSequence::new(seed), 333);
            let h2 = TabulationHash::draw(&mut SeedSequence::new(seed), 333);
            prop_assert_eq!(h1.bucket(key), h2.bucket(key));
            prop_assert_eq!(h1.sign(key), h2.sign(key));
        }
    }
}
