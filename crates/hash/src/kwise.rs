//! k-wise independent polynomial hash families over `GF(2^61 - 1)`.
//!
//! A uniformly random degree-(k-1) polynomial evaluated over a prime field
//! is a k-wise independent map. The paper only needs pairwise (k = 2)
//! independence for its lemmas, but 4-wise sign hashes are a standard
//! strengthening (they make the *variance* analysis of the estimator exact
//! rather than only the expectation, cf. Alon–Matias–Szegedy); see
//! [`crate::sign::FourWiseSign`].

use crate::prime;
use crate::seed::SeedSequence;
use crate::traits::BucketHasher;

/// A hash function drawn from a k-wise independent polynomial family.
///
/// The independence level equals the number of coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolynomialHash {
    /// Coefficients `c_0 .. c_{k-1}`, low degree first; `c_{k-1} != 0`.
    coeffs: Vec<u64>,
    range: u64,
}

impl PolynomialHash {
    /// Draws a fresh k-wise independent function with the given range.
    ///
    /// # Panics
    /// Panics if `k == 0`, `range == 0`, or `range >= P`.
    pub fn draw(seeds: &mut SeedSequence, k: usize, range: usize) -> Self {
        assert!(k >= 1, "independence level must be at least 1");
        let range = range as u64;
        assert!(range > 0 && range < prime::P);
        let mut coeffs: Vec<u64> = (0..k).map(|_| seeds.next_below(prime::P)).collect();
        // A zero leading coefficient degrades the family to (k-1)-wise.
        let last = coeffs.last_mut().expect("k >= 1");
        if *last == 0 {
            *last = seeds.next_nonzero_below(prime::P);
        }
        Self { coeffs, range }
    }

    /// Builds a function from explicit coefficients (for tests).
    pub fn from_coefficients(coeffs: Vec<u64>, range: usize) -> Self {
        assert!(!coeffs.is_empty());
        assert!(range > 0 && (range as u64) < prime::P);
        let coeffs: Vec<u64> = coeffs.into_iter().map(prime::fold).collect();
        assert!(
            *coeffs.last().unwrap() != 0,
            "leading coefficient must be nonzero"
        );
        Self {
            coeffs,
            range: range as u64,
        }
    }

    /// The independence level (number of coefficients) of this function.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the polynomial over the field, before range reduction.
    #[inline]
    pub fn field_eval(&self, key: u64) -> u64 {
        prime::poly_eval(&self.coeffs, key)
    }
}

impl BucketHasher for PolynomialHash {
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (self.field_eval(key) % self.range) as usize
    }

    fn num_buckets(&self) -> usize {
        self.range as usize
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.coeffs.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn independence_level_reported() {
        let mut seeds = SeedSequence::new(3);
        for k in 1..=6 {
            let h = PolynomialHash::draw(&mut seeds, k, 100);
            assert_eq!(h.independence(), k);
        }
    }

    #[test]
    fn degree_one_matches_pairwise_formula() {
        let h = PolynomialHash::from_coefficients(vec![5, 3], 7);
        for key in 0..200u64 {
            let want = ((3 * key + 5) % prime::P % 7) as usize;
            assert_eq!(h.bucket(key), want);
        }
    }

    #[test]
    fn leading_coefficient_never_zero_after_draw() {
        // Force many draws; the fix-up path must keep the leading
        // coefficient nonzero every time.
        let mut seeds = SeedSequence::new(11);
        for _ in 0..200 {
            let h = PolynomialHash::draw(&mut seeds, 4, 64);
            assert_ne!(*h.coeffs.last().unwrap(), 0);
        }
    }

    #[test]
    fn four_wise_uniformity_chi_square() {
        let h = PolynomialHash::draw(&mut SeedSequence::new(21), 4, 32);
        let n = 32_768u64;
        let mut counts = [0u64; 32];
        for key in 0..n {
            counts[h.bucket(key)] += 1;
        }
        let expected = n as f64 / 32.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // df = 31; mean 31, sd ~ 7.9; allow ~6 sd.
        assert!(chi2 < 80.0, "chi2 = {chi2}");
    }

    #[test]
    #[should_panic(expected = "independence level must be at least 1")]
    fn zero_independence_rejected() {
        PolynomialHash::draw(&mut SeedSequence::new(0), 0, 10);
    }

    proptest! {
        #[test]
        fn prop_bucket_in_range(seed: u64, key: u64, k in 1usize..6, range in 1usize..10_000) {
            let h = PolynomialHash::draw(&mut SeedSequence::new(seed), k, range);
            prop_assert!(h.bucket(key) < range);
        }

        #[test]
        fn prop_deterministic(seed: u64, key: u64) {
            let h1 = PolynomialHash::draw(&mut SeedSequence::new(seed), 4, 977);
            let h2 = PolynomialHash::draw(&mut SeedSequence::new(seed), 4, 977);
            prop_assert_eq!(h1.bucket(key), h2.bucket(key));
        }
    }
}
