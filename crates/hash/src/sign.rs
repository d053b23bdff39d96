//! ±1 sign hashes `s_i : O -> {+1, -1}`.
//!
//! The paper requires each `s_i` to be pairwise independent: that makes
//! every row estimate unbiased (`E[C[i][h_i(q)]·s_i(q)] = n_q`, §3.1) and
//! bounds its variance by the second moment of the colliding items
//! (Lemma 1). We derive signs from a polynomial hash into a range of
//! `2^61 - 2` values by taking the low bit — the parity of a (near-)uniform
//! field element — which preserves the family's independence level up to a
//! `2/p` bias.

use crate::kwise::PolynomialHash;
use crate::pairwise::PairwiseHash;
use crate::seed::SeedSequence;
use crate::traits::{BucketHasher, SignHasher};

/// A sign value, `+1` or `-1`.
///
/// Newtype so call sites cannot accidentally feed an arbitrary integer
/// where a sign is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sign(i8);

impl Sign {
    /// The `+1` sign.
    pub const PLUS: Sign = Sign(1);
    /// The `-1` sign.
    pub const MINUS: Sign = Sign(-1);

    /// Constructs a sign from the parity of a value (even → `+1`).
    #[inline]
    pub fn from_parity(v: u64) -> Sign {
        if v & 1 == 0 {
            Sign::PLUS
        } else {
            Sign::MINUS
        }
    }

    /// This sign as an `i64` multiplier.
    #[inline]
    pub fn as_i64(self) -> i64 {
        i64::from(self.0)
    }
}

impl std::ops::Mul<i64> for Sign {
    type Output = i64;
    #[inline]
    fn mul(self, rhs: i64) -> i64 {
        self.as_i64() * rhs
    }
}

impl std::ops::Neg for Sign {
    type Output = Sign;
    #[inline]
    fn neg(self) -> Sign {
        Sign(-self.0)
    }
}

/// Pairwise-independent sign hash — exactly what the paper's analysis uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseSign {
    inner: PairwiseHash,
}

impl PairwiseSign {
    /// Draws a fresh pairwise-independent sign function.
    pub fn draw(seeds: &mut SeedSequence) -> Self {
        // Range p-1 (even) so parity is exactly balanced over the range.
        Self {
            inner: PairwiseHash::draw(seeds, (crate::prime::P - 1) as usize),
        }
    }
}

impl SignHasher for PairwiseSign {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        Sign::from_parity(self.inner.field_eval(key)).as_i64()
    }

    #[inline]
    fn canon(&self, key: u64) -> u64 {
        crate::prime::fold(key)
    }

    #[inline]
    fn sign_canon(&self, key: u64) -> i64 {
        1 - 2 * ((self.inner.field_eval_canon(key) & 1) as i64)
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// 4-wise independent sign hash (Alon–Matias–Szegedy style): more
/// independence than the paper's bounds need (they use pairwise), for
/// checking whether extra independence changes the empirical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FourWiseSign {
    inner: PolynomialHash,
}

impl FourWiseSign {
    /// Draws a fresh 4-wise independent sign function.
    pub fn draw(seeds: &mut SeedSequence) -> Self {
        Self {
            inner: PolynomialHash::draw(seeds, 4, (crate::prime::P - 1) as usize),
        }
    }
}

impl SignHasher for FourWiseSign {
    #[inline]
    fn sign(&self, key: u64) -> i64 {
        Sign::from_parity(self.inner.field_eval(key)).as_i64()
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_values_are_plus_minus_one() {
        let s = PairwiseSign::draw(&mut SeedSequence::new(5));
        for key in 0..1000u64 {
            let v = s.sign(key);
            assert!(v == 1 || v == -1);
        }
    }

    #[test]
    fn sign_newtype_arithmetic() {
        assert_eq!(Sign::PLUS * 7, 7);
        assert_eq!(Sign::MINUS * 7, -7);
        assert_eq!(-Sign::PLUS, Sign::MINUS);
        assert_eq!(Sign::from_parity(4), Sign::PLUS);
        assert_eq!(Sign::from_parity(9), Sign::MINUS);
    }

    #[test]
    fn signs_are_balanced() {
        // E[s(x)] = 0 up to O(1/p); over n keys the empirical mean should
        // be within ~4/sqrt(n).
        let n = 40_000u64;
        let mut seeds = SeedSequence::new(8);
        let s = PairwiseSign::draw(&mut seeds);
        let sum: i64 = (0..n).map(|k| s.sign(k)).sum();
        let bound = 4.0 * (n as f64).sqrt();
        assert!((sum as f64).abs() < bound, "sum = {sum}, bound = {bound}");
    }

    #[test]
    fn pairwise_signs_are_uncorrelated() {
        // E[s(x)s(y)] = 0 for x != y; average over functions to check.
        let funcs = 200usize;
        let mut seeds = SeedSequence::new(77);
        let mut corr = 0i64;
        for _ in 0..funcs {
            let s = PairwiseSign::draw(&mut seeds);
            corr += s.sign(123) * s.sign(456);
        }
        // Sum of ±1 with mean 0: sd = sqrt(funcs) ~ 14; allow 4 sd.
        assert!(corr.abs() < 60, "corr sum = {corr}");
    }

    #[test]
    fn four_wise_signs_are_balanced() {
        let s = FourWiseSign::draw(&mut SeedSequence::new(15));
        let n = 40_000u64;
        let sum: i64 = (0..n).map(|k| s.sign(k)).sum();
        assert!((sum as f64).abs() < 4.0 * (n as f64).sqrt());
    }

    #[test]
    fn deterministic_given_seed() {
        let s1 = FourWiseSign::draw(&mut SeedSequence::new(2));
        let s2 = FourWiseSign::draw(&mut SeedSequence::new(2));
        for key in 0..200u64 {
            assert_eq!(s1.sign(key), s2.sign(key));
        }
    }

    proptest! {
        #[test]
        fn prop_sign_is_plus_minus_one(seed: u64, key: u64) {
            let s = PairwiseSign::draw(&mut SeedSequence::new(seed));
            let v = s.sign(key);
            prop_assert!(v == 1 || v == -1);
            let f = FourWiseSign::draw(&mut SeedSequence::new(seed));
            let v = f.sign(key);
            prop_assert!(v == 1 || v == -1);
        }

        #[test]
        fn prop_redraw_from_same_seed_is_identical(seed: u64, key: u64) {
            // Snapshot recovery redraws sign hashes from the stored seed;
            // the draw must be a pure function of the seed sequence.
            let s = PairwiseSign::draw(&mut SeedSequence::new(seed));
            let back = PairwiseSign::draw(&mut SeedSequence::new(seed));
            prop_assert_eq!(s.sign(key), back.sign(key));
        }
    }
}
