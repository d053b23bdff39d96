//! Row-estimate combiners.
//!
//! The paper takes the **median** of the `t` row estimates and explains
//! why (§3.2): collisions with very frequent items still corrupt a few
//! rows, "the mean is very sensitive to outliers, while the median is
//! sufficiently robust". The mean and a trimmed mean are provided for the
//! ablation benchmark that demonstrates exactly this.
//!
//! All combiners accumulate in `i128`, so summing `t` row estimates of
//! `i64::MAX` cannot wrap. Saturated *cells* are a different concern,
//! handled upstream: the sketch flags them and
//! `GenericCountSketch::estimate_checked` combines only clean rows.

/// Strategy for combining the `t` per-row estimates into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Combiner {
    /// The paper's choice: the median.
    #[default]
    Median,
    /// Plain average — the §3.1 "first attempt" the paper rejects.
    Mean,
    /// Mean of the middle half (drop the top and bottom quartiles).
    TrimmedMean,
}

/// Combines row estimates according to the strategy. The median and the
/// trimmed mean reorder `estimates` in place, so a caller stages its
/// column once and keeps no scratch buffer.
///
/// # Panics
/// Panics if `estimates` is empty.
pub fn combine(combiner: Combiner, estimates: &mut [i64]) -> i64 {
    assert!(!estimates.is_empty(), "need at least one row estimate");
    match combiner {
        Combiner::Median => median(estimates),
        Combiner::Mean => mean(estimates),
        Combiner::TrimmedMean => trimmed_mean(estimates),
    }
}

/// The median of a slice, which it reorders. For even lengths, the mean
/// of the two middle values (rounded toward zero) — deterministic and
/// symmetric, so the estimator stays unbiased for symmetric error
/// distributions.
pub fn median(values: &mut [i64]) -> i64 {
    assert!(!values.is_empty());
    // The common sketch depths take a branch-free median-selection
    // network; the rest sort in place.
    if let Some(m) = median_network(values) {
        return m;
    }
    values.sort_unstable();
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        midpoint(values[mid - 1], values[mid])
    }
}

/// Branch-free median for the common fixed sketch depths `t ∈ {3,5,7,9}`,
/// or `None` for every other length (the generic [`median`] path covers
/// those). The lengths handled here are odd, so the median is a unique
/// element of the input and the result is bit-identical to sorting and
/// taking the middle — no even-length midpoint arises.
///
/// Each length runs a fixed median-selection network of `min`/`max`
/// compare-exchanges (Paeth's networks: 3/7/13/19 exchanges), so the
/// estimate hot loop does not mispredict on its row values.
#[inline]
pub fn median_network(values: &[i64]) -> Option<i64> {
    match values.len() {
        3 => Some(median3([values[0], values[1], values[2]])),
        5 => {
            let mut v = [0i64; 5];
            v.copy_from_slice(values);
            Some(median5(v))
        }
        7 => {
            let mut v = [0i64; 7];
            v.copy_from_slice(values);
            Some(median7(v))
        }
        9 => {
            let mut v = [0i64; 9];
            v.copy_from_slice(values);
            Some(median9(v))
        }
        _ => None,
    }
}

/// One compare-exchange: after the call `v[i] <= v[j]`. `min`/`max` on
/// `i64` compile to conditional moves, not branches.
#[inline(always)]
fn cx(v: &mut [i64], i: usize, j: usize) {
    let (a, b) = (v[i], v[j]);
    v[i] = a.min(b);
    v[j] = a.max(b);
}

#[inline]
fn median3(mut v: [i64; 3]) -> i64 {
    cx(&mut v, 0, 1);
    cx(&mut v, 1, 2);
    cx(&mut v, 0, 1);
    v[1]
}

#[inline]
fn median5(mut v: [i64; 5]) -> i64 {
    cx(&mut v, 0, 1);
    cx(&mut v, 3, 4);
    cx(&mut v, 0, 3);
    cx(&mut v, 1, 4);
    cx(&mut v, 1, 2);
    cx(&mut v, 2, 3);
    cx(&mut v, 1, 2);
    v[2]
}

#[inline]
fn median7(mut v: [i64; 7]) -> i64 {
    cx(&mut v, 0, 5);
    cx(&mut v, 0, 3);
    cx(&mut v, 1, 6);
    cx(&mut v, 2, 4);
    cx(&mut v, 0, 1);
    cx(&mut v, 3, 5);
    cx(&mut v, 2, 6);
    cx(&mut v, 2, 3);
    cx(&mut v, 3, 6);
    cx(&mut v, 4, 5);
    cx(&mut v, 1, 4);
    cx(&mut v, 1, 3);
    cx(&mut v, 3, 4);
    v[3]
}

#[inline]
fn median9(mut v: [i64; 9]) -> i64 {
    cx(&mut v, 1, 2);
    cx(&mut v, 4, 5);
    cx(&mut v, 7, 8);
    cx(&mut v, 0, 1);
    cx(&mut v, 3, 4);
    cx(&mut v, 6, 7);
    cx(&mut v, 1, 2);
    cx(&mut v, 4, 5);
    cx(&mut v, 7, 8);
    cx(&mut v, 0, 3);
    cx(&mut v, 5, 8);
    cx(&mut v, 4, 7);
    cx(&mut v, 3, 6);
    cx(&mut v, 1, 4);
    cx(&mut v, 2, 5);
    cx(&mut v, 4, 7);
    cx(&mut v, 4, 2);
    cx(&mut v, 6, 4);
    cx(&mut v, 4, 2);
    v[4]
}

/// The arithmetic mean, computed in i128 then rounded toward zero.
pub fn mean(values: &[i64]) -> i64 {
    assert!(!values.is_empty());
    let sum: i128 = values.iter().map(|&v| i128::from(v)).sum();
    (sum / values.len() as i128) as i64
}

/// Mean of the middle half: sort in place, drop ⌊n/4⌋ from each end,
/// average the rest.
pub fn trimmed_mean(values: &mut [i64]) -> i64 {
    assert!(!values.is_empty());
    values.sort_unstable();
    let drop = values.len() / 4;
    mean(&values[drop..values.len() - drop])
}

/// Midpoint of two i64 values without overflow, rounded toward zero.
#[inline]
fn midpoint(a: i64, b: i64) -> i64 {
    ((i128::from(a) + i128::from(b)) / 2) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn med(v: &[i64]) -> i64 {
        median(&mut v.to_vec())
    }

    #[test]
    fn median_odd_lengths() {
        assert_eq!(med(&[3]), 3);
        assert_eq!(med(&[3, 1, 2]), 2);
        assert_eq!(med(&[5, -10, 0, 100, 7]), 5);
    }

    #[test]
    fn median_even_lengths() {
        assert_eq!(med(&[1, 3]), 2);
        assert_eq!(med(&[4, 1, 3, 2]), 2); // (2+3)/2 rounded toward zero
        assert_eq!(med(&[-1, -3]), -2);
        assert_eq!(med(&[0, 0, 10, 10]), 5);
    }

    #[test]
    fn median_even_rounds_toward_zero() {
        assert_eq!(med(&[1, 2]), 1); // 1.5 → 1
        assert_eq!(med(&[-1, -2]), -1); // -1.5 → -1
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        // The §3.2 story: one corrupted row cannot move the median far.
        assert_eq!(med(&[10, 11, 9, 1_000_000, 10]), 10);
        assert_eq!(mean(&[10, 11, 9, 1_000_000, 10]), 200_008);
    }

    #[test]
    fn median_no_overflow_at_extremes() {
        assert_eq!(med(&[i64::MAX, i64::MAX]), i64::MAX);
        assert_eq!(med(&[i64::MIN, i64::MAX]), 0);
    }

    #[test]
    fn small_and_select_paths_agree() {
        // Lengths through the networks and the in-place sort, against a
        // full sort of a copy.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in 1..=32 {
            let v: Vec<i64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 16) as i64 - (1 << 46)
                })
                .collect();
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let want = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                midpoint(sorted[n / 2 - 1], sorted[n / 2])
            };
            assert_eq!(med(&v), want, "n = {n}");
        }
    }

    #[test]
    fn network_lengths_route_through_networks() {
        for n in [3usize, 5, 7, 9] {
            let v: Vec<i64> = (0..n as i64).rev().collect();
            assert_eq!(median_network(&v), Some(n as i64 / 2), "n = {n}");
        }
        for n in [1usize, 2, 4, 6, 8, 10, 17] {
            let v = vec![0i64; n];
            assert_eq!(median_network(&v), None, "n = {n} must fall back");
        }
    }

    #[test]
    fn networks_correct_on_all_01_inputs() {
        // The 0-1 principle: a min/max comparison network selects the
        // median for every input iff it does for every 0/1 input, so the
        // 2^n binary vectors are an exhaustive correctness proof.
        for n in [3usize, 5, 7, 9] {
            for bits in 0u32..(1 << n) {
                let v: Vec<i64> = (0..n).map(|i| i64::from(bits >> i & 1)).collect();
                let ones = bits.count_ones() as usize;
                let want = i64::from(ones > n / 2);
                assert_eq!(median_network(&v), Some(want), "n = {n}, pattern {bits:#b}");
            }
        }
    }

    #[test]
    fn networks_handle_extremes() {
        assert_eq!(median_network(&[i64::MIN, i64::MAX, 0]), Some(0));
        assert_eq!(
            median_network(&[i64::MAX, i64::MAX, i64::MAX, i64::MIN, i64::MIN]),
            Some(i64::MAX)
        );
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1, 2, 3]), 2);
        assert_eq!(mean(&[1, 2]), 1); // 1.5 toward zero
        assert_eq!(mean(&[-3, -4]), -3); // -3.5 toward zero
    }

    #[test]
    fn mean_no_overflow() {
        assert_eq!(mean(&[i64::MAX, i64::MAX]), i64::MAX);
        assert_eq!(mean(&[i64::MIN, i64::MIN]), i64::MIN);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // 8 values, drop 2 from each end.
        let v = [-1_000_000, 1, 2, 3, 4, 5, 6, 1_000_000];
        assert_eq!(trimmed_mean(&mut v.clone()), 3); // mean(2,3,4,5)=3.5→3
    }

    #[test]
    fn trimmed_mean_short_slices() {
        assert_eq!(trimmed_mean(&mut [7]), 7);
        assert_eq!(trimmed_mean(&mut [1, 5]), 3);
        assert_eq!(trimmed_mean(&mut [1, 5, 9]), 5);
    }

    #[test]
    fn combine_dispatches() {
        let v = [1, 100, 2];
        assert_eq!(combine(Combiner::Median, &mut v.clone()), 2);
        assert_eq!(combine(Combiner::Mean, &mut v.clone()), 34);
        assert_eq!(combine(Combiner::TrimmedMean, &mut v.clone()), 34);
    }

    #[test]
    #[should_panic(expected = "need at least one row estimate")]
    fn combine_empty_panics() {
        combine(Combiner::Median, &mut []);
    }

    #[test]
    fn default_combiner_is_median() {
        assert_eq!(Combiner::default(), Combiner::Median);
    }

    proptest! {
        #[test]
        fn prop_median_matches_naive(mut v in prop::collection::vec(any::<i64>(), 1..50)) {
            let got = med(&v);
            v.sort_unstable();
            let n = v.len();
            let want = if n % 2 == 1 {
                v[n / 2]
            } else {
                ((i128::from(v[n / 2 - 1]) + i128::from(v[n / 2])) / 2) as i64
            };
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_network_matches_naive(
            n_idx in 0usize..4,
            raw in prop::collection::vec(any::<i64>(), 9),
        ) {
            let n = [3usize, 5, 7, 9][n_idx];
            let v = &raw[..n];
            let mut sorted = v.to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(median_network(v), Some(sorted[n / 2]));
        }

        #[test]
        fn prop_median_bounded_by_extremes(v in prop::collection::vec(-1000i64..1000, 1..50)) {
            let m = med(&v);
            let lo = *v.iter().min().unwrap();
            let hi = *v.iter().max().unwrap();
            prop_assert!(m >= lo && m <= hi);
        }

        #[test]
        fn prop_median_permutation_invariant(v in prop::collection::vec(any::<i64>(), 1..30)) {
            let mut rev = v.clone();
            rev.reverse();
            prop_assert_eq!(med(&v), med(&rev));
        }

        #[test]
        fn prop_all_combiners_bounded(v in prop::collection::vec(-10_000i64..10_000, 1..40)) {
            let lo = *v.iter().min().unwrap();
            let hi = *v.iter().max().unwrap();
            for c in [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean] {
                let x = combine(c, &mut v.clone());
                prop_assert!(x >= lo && x <= hi, "{c:?} gave {x} outside [{lo},{hi}]");
            }
        }
    }
}
