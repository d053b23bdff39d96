//! Statistical independence testing for hash families.
//!
//! The paper's guarantees rest on the `h_i`/`s_i` families being pairwise
//! independent; these helpers quantify how close a concrete construction
//! comes, and back the empirical tests across the workspace:
//!
//! * [`chi_square_uniformity`] — goodness-of-fit of bucket occupancy,
//! * [`pairwise_collision_rate`] — `Pr[h(x) = h(y)]` over random pairs
//!   (must be ≈ `1/b` for a universal family),
//! * [`sign_balance`] — `E[s(x)]` (must be ≈ 0),
//! * [`sign_pair_correlation`] — `E[s(x)·s(y)]` over fresh function
//!   draws (must be ≈ 0 for pairwise independence).

use crate::seed::SeedSequence;
use crate::traits::{BucketHasher, SignHasher};

/// The chi-square statistic of bucket occupancy for `n` sequential keys,
/// together with the degrees of freedom (`buckets - 1`).
///
/// For a healthy function the statistic is close to the degrees of
/// freedom; values several standard deviations (`sqrt(2·df)`) above
/// indicate non-uniformity.
pub fn chi_square_uniformity<H: BucketHasher>(h: &H, n: u64) -> (f64, usize) {
    let b = h.num_buckets();
    assert!(b >= 2, "need at least two buckets");
    let mut counts = vec![0u64; b];
    for key in 0..n {
        counts[h.bucket(key)] += 1;
    }
    let expected = n as f64 / b as f64;
    let chi2 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    (chi2, b - 1)
}

/// Empirical `Pr[h(x) = h(y)]` over `pairs` random key pairs, averaged
/// over `funcs` fresh function draws.
pub fn pairwise_collision_rate<H: BucketHasher>(
    mut draw: impl FnMut(&mut SeedSequence) -> H,
    funcs: usize,
    pairs: usize,
    seed: u64,
) -> f64 {
    let mut seeds = SeedSequence::new(seed);
    let mut keys = SeedSequence::new(seed ^ 0xFEED_FACE);
    let mut collisions = 0usize;
    for _ in 0..funcs {
        let h = draw(&mut seeds);
        for _ in 0..pairs {
            if h.bucket(keys.next_seed()) == h.bucket(keys.next_seed()) {
                collisions += 1;
            }
        }
    }
    collisions as f64 / (funcs * pairs) as f64
}

/// Empirical `E[s(x)]` over `n` sequential keys.
pub fn sign_balance<S: SignHasher>(s: &S, n: u64) -> f64 {
    let sum: i64 = (0..n).map(|k| s.sign(k)).sum();
    sum as f64 / n as f64
}

/// Empirical `E[s(x)·s(y)]` for a fixed key pair over `funcs` fresh
/// function draws — the pairwise-independence cross term the sketch's
/// unbiasedness relies on (§3.1).
pub fn sign_pair_correlation<S: SignHasher>(
    mut draw: impl FnMut(&mut SeedSequence) -> S,
    funcs: usize,
    x: u64,
    y: u64,
    seed: u64,
) -> f64 {
    assert!(x != y, "correlation of a key with itself is trivially 1");
    let mut seeds = SeedSequence::new(seed);
    let mut sum = 0i64;
    for _ in 0..funcs {
        let s = draw(&mut seeds);
        sum += s.sign(x) * s.sign(y);
    }
    sum as f64 / funcs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::PairwiseHash;
    use crate::sign::PairwiseSign;

    #[test]
    fn chi_square_accepts_good_function() {
        let h = PairwiseHash::draw(&mut SeedSequence::new(1), 64);
        let (chi2, df) = chi_square_uniformity(&h, 65_536);
        let sd = (2.0 * df as f64).sqrt();
        assert!(chi2 < df as f64 + 6.0 * sd, "chi2 {chi2}, df {df}");
    }

    #[test]
    fn chi_square_rejects_constant_function() {
        struct Constant;
        impl BucketHasher for Constant {
            fn bucket(&self, _: u64) -> usize {
                0
            }
            fn num_buckets(&self) -> usize {
                16
            }
            fn space_bytes(&self) -> usize {
                0
            }
        }
        let (chi2, df) = chi_square_uniformity(&Constant, 1000);
        assert!(chi2 > 100.0 * df as f64, "constant map must fail: {chi2}");
    }

    #[test]
    fn collision_rate_near_one_over_b() {
        let rate = pairwise_collision_rate(|s| PairwiseHash::draw(s, 32), 32, 1000, 7);
        assert!((rate - 1.0 / 32.0).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sign_balance_near_zero() {
        let s = PairwiseSign::draw(&mut SeedSequence::new(3));
        let bal = sign_balance(&s, 40_000);
        assert!(bal.abs() < 0.03, "balance {bal}");
    }

    #[test]
    fn sign_correlation_near_zero() {
        let corr = sign_pair_correlation(PairwiseSign::draw, 2_000, 123, 456, 11);
        // sd = 1/sqrt(2000) ≈ 0.022; allow 4 sd.
        assert!(corr.abs() < 0.09, "correlation {corr}");
    }

    #[test]
    #[should_panic(expected = "correlation of a key with itself")]
    fn same_key_correlation_rejected() {
        sign_pair_correlation(PairwiseSign::draw, 10, 5, 5, 0);
    }
}
