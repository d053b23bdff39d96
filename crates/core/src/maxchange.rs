//! The two-pass max-change algorithm (§4.2).
//!
//! Given streams `S1, S2`, find the items maximizing `|n_q^{S2} - n_q^{S1}|`.
//!
//! **Pass 1** — update counters only: for each `q` in `S1`,
//! `h_i[q] -= s_i[q]`; for each `q` in `S2`, `h_i[q] += s_i[q]`. The
//! sketch now holds the *difference vector* (this is sketch additivity:
//! `sketch(S2) - sketch(S1)`).
//!
//! **Pass 2** — over `S1` and `S2`: keep the set `A` of `l` objects with
//! the largest `|n̂_q|`, `n̂_q = median_i{h_i[q]·s_i[q]}`, and exact
//! occurrence counts in each stream for every item in `A`. Because `n̂_q`
//! is *fixed* during pass 2 and the admission threshold (the smallest
//! tracked `|n̂|`) only rises, an item's membership is decided at its
//! first occurrence and "once an item is removed it is never added
//! back", so the survivors' counts are exact. An arrival therefore
//! costs one tracker lookup: a tracked key is counted, and an untracked
//! one is estimated once and admitted only if it beats the threshold.
//!
//! Finally report the `k` items with the largest `|n_q^{S2} - n_q^{S1}|`
//! among `A`.

use crate::params::SketchParams;
use crate::sketch::CountSketch;
use crate::topk::TopKTracker;
use cs_hash::ItemKey;
use cs_stream::Stream;

/// One reported max-change item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeItem {
    /// The item.
    pub key: ItemKey,
    /// Exact signed change `n_q^{S2} - n_q^{S1}` (from pass 2 counting).
    pub exact_change: i64,
    /// The sketch's estimate `n̂_q` of the signed change.
    pub estimated_change: i64,
}

/// Result of the max-change algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxChangeResult {
    /// Top-`k` items by exact |change| among the `l` candidates,
    /// non-increasing in |change|.
    pub items: Vec<ChangeItem>,
    /// All `l` surviving candidates (superset of `items`).
    pub candidates: Vec<ChangeItem>,
}

/// A Count-Sketch of the difference `S2 - S1`, built incrementally.
#[derive(Debug, Clone)]
pub struct DiffSketch {
    sketch: CountSketch,
}

impl DiffSketch {
    /// Creates an empty difference sketch.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        Self {
            sketch: CountSketch::new(params, seed),
        }
    }

    /// Pass-1 step over a run of occurrences: `h_i[q] += weight·s_i[q]`
    /// for each, in order. `weight` is −1 for `S1` and +1 for `S2`; a
    /// stream absorbed run by run gives the same sketch as one call.
    pub fn absorb_keys(&mut self, keys: &[ItemKey], weight: i64) {
        for &key in keys {
            self.sketch.update(key, weight);
        }
    }

    /// [`Self::absorb_keys`] over a run whose row cells were hashed
    /// ahead by a [`RowHasher`](crate::sketch::RowHasher) of this
    /// sketch: `cells` holds `t` words an occurrence.
    pub fn absorb_cells(&mut self, cells: &[u32], weight: i64) {
        debug_assert_eq!(cells.len() % self.sketch.rows(), 0);
        for key_cells in cells.chunks_exact(self.sketch.rows()) {
            self.sketch.update_with(key_cells, weight);
        }
    }

    /// Pass-1 step over `S1`: `h_i[q] -= s_i[q]` for each occurrence.
    pub fn absorb_first(&mut self, stream: &Stream) {
        self.absorb_keys(stream.as_slice(), -1);
    }

    /// Pass-1 step over `S2`: `h_i[q] += s_i[q]` for each occurrence.
    pub fn absorb_second(&mut self, stream: &Stream) {
        self.absorb_keys(stream.as_slice(), 1);
    }

    /// Builds the difference sketch from two separately-built sketches
    /// (e.g. sketched on different days and stored): `sketch2 - sketch1`.
    pub fn from_sketches(
        sketch1: &CountSketch,
        sketch2: &CountSketch,
    ) -> Result<Self, crate::error::CoreError> {
        let mut diff = sketch2.clone();
        diff.subtract(sketch1)?;
        Ok(Self { sketch: diff })
    }

    /// The estimated signed change `n̂_q` of an item.
    pub fn estimate_change(&self, key: ItemKey) -> i64 {
        self.sketch.estimate(key)
    }

    /// Access to the underlying sketch.
    pub fn sketch(&self) -> &CountSketch {
        &self.sketch
    }

    /// Pass 2 + final selection. `l` is the candidate-set size (the paper
    /// keeps `l ≥ k` to absorb estimation error; §4.1 suggests `l = O(k)`).
    pub fn top_changes(&self, s1: &Stream, s2: &Stream, k: usize, l: usize) -> MaxChangeResult {
        assert!(l >= k, "need l >= k");
        // |i64::MIN| saturates: that estimate ranks highest, not lowest.
        let tracked = pass_two(s1, s2, l, |key| {
            let est = self.sketch.estimate(key);
            (est.saturating_abs(), est)
        });
        let mut candidates: Vec<ChangeItem> = tracked
            .into_iter()
            .map(|(key, [c1, c2], estimated_change)| ChangeItem {
                key,
                exact_change: c2 as i64 - c1 as i64,
                estimated_change,
            })
            .collect();
        candidates.sort_unstable_by(|a, b| {
            b.exact_change
                .unsigned_abs()
                .cmp(&a.exact_change.unsigned_abs())
                .then(a.key.cmp(&b.key))
        });
        let items = candidates.iter().take(k).copied().collect();
        MaxChangeResult { items, candidates }
    }
}

/// Pass 2 over `S1` then `S2`, shared by max-change and the
/// relative-change objectives. `rank(key)` scores an untracked arrival
/// as `(value, estimate)`, and the tracker keeps the `l` largest values.
/// Returns the survivors, in no particular order, as
/// `(key, [count in S1, count in S2], estimate)`.
pub(crate) fn pass_two(
    s1: &Stream,
    s2: &Stream,
    l: usize,
    mut rank: impl FnMut(ItemKey) -> (i64, i64),
) -> Vec<(ItemKey, [u64; 2], i64)> {
    let mut tracker = TopKTracker::new(l);
    // Parallel to the tracker's slots: an admitted key takes the slot of
    // the minimum it evicts, so its counts start afresh.
    let mut slots: Vec<([u64; 2], i64)> = Vec::new();
    for (which, stream) in [s1, s2].into_iter().enumerate() {
        for &key in stream.as_slice() {
            if let Some(s) = tracker.slot(key) {
                slots[s].0[which] += 1;
                continue;
            }
            let (value, estimate) = rank(key);
            let Some(s) = tracker.admit(key, value) else {
                continue;
            };
            let mut counts = [0; 2];
            counts[which] = 1;
            if s == slots.len() {
                slots.push((counts, estimate));
            } else {
                slots[s] = (counts, estimate);
            }
        }
    }
    tracker
        .keys()
        .zip(slots)
        .map(|(key, (counts, estimate))| (key, counts, estimate))
        .collect()
}

/// The complete two-pass algorithm in one call.
///
/// ```
/// use cs_core::maxchange::max_change;
/// use cs_core::SketchParams;
/// use cs_stream::Stream;
///
/// // Yesterday item 1 dominated; today item 2 does.
/// let s1 = Stream::from_ids(std::iter::repeat(1).take(300).chain([2, 3]));
/// let s2 = Stream::from_ids(std::iter::repeat(2).take(400).chain([1, 3]));
/// let result = max_change(&s1, &s2, 2, 8, SketchParams::new(5, 64), 7);
/// assert_eq!(result.items[0].key.raw(), 2);
/// assert_eq!(result.items[0].exact_change, 399);
/// assert_eq!(result.items[1].exact_change, -299);
/// ```
pub fn max_change(
    s1: &Stream,
    s2: &Stream,
    k: usize,
    l: usize,
    params: SketchParams,
    seed: u64,
) -> MaxChangeResult {
    let mut diff = DiffSketch::new(params, seed);
    diff.absorb_first(s1);
    diff.absorb_second(s2);
    diff.top_changes(s1, s2, k, l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::median::Combiner;
    use cs_stream::{ChangeSpec, ExactCounter, StreamPair};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn planted_pair() -> StreamPair {
        StreamPair::zipf_background(
            200,
            1.0,
            20_000,
            vec![
                ChangeSpec {
                    item: 10_000,
                    count_s1: 0,
                    count_s2: 3000,
                },
                ChangeSpec {
                    item: 10_001,
                    count_s1: 2500,
                    count_s2: 0,
                },
                ChangeSpec {
                    item: 10_002,
                    count_s1: 100,
                    count_s2: 2100,
                },
            ],
            99,
        )
    }

    #[test]
    fn finds_planted_changes() {
        let pair = planted_pair();
        let result = max_change(&pair.s1, &pair.s2, 3, 30, SketchParams::new(7, 1024), 5);
        let keys: Vec<u64> = result.items.iter().map(|c| c.key.raw()).collect();
        assert_eq!(keys, vec![10_000, 10_001, 10_002]);
        assert_eq!(result.items[0].exact_change, 3000);
        assert_eq!(result.items[1].exact_change, -2500);
        assert_eq!(result.items[2].exact_change, 2000);
    }

    #[test]
    fn exact_changes_match_oracle() {
        let pair = planted_pair();
        let e1 = ExactCounter::from_stream(&pair.s1);
        let e2 = ExactCounter::from_stream(&pair.s2);
        let result = max_change(&pair.s1, &pair.s2, 5, 50, SketchParams::new(7, 2048), 8);
        for item in &result.items {
            let want = e2.count(item.key) as i64 - e1.count(item.key) as i64;
            assert_eq!(
                item.exact_change, want,
                "pass-2 exact count wrong for {:?}",
                item.key
            );
        }
    }

    #[test]
    fn estimated_change_tracks_exact_change() {
        let pair = planted_pair();
        let result = max_change(&pair.s1, &pair.s2, 3, 30, SketchParams::new(9, 2048), 3);
        for item in &result.items {
            let err = (item.estimated_change - item.exact_change).abs();
            assert!(
                err < 500,
                "estimate {} far from exact {} for {:?}",
                item.estimated_change,
                item.exact_change,
                item.key
            );
        }
    }

    #[test]
    fn diff_sketch_is_additive() {
        // Building via absorb == building from two separate sketches.
        let pair = planted_pair();
        let params = SketchParams::new(5, 512);
        let mut incremental = DiffSketch::new(params, 7);
        incremental.absorb_first(&pair.s1);
        incremental.absorb_second(&pair.s2);

        let mut sk1 = CountSketch::new(params, 7);
        sk1.absorb(&pair.s1, 1);
        let mut sk2 = CountSketch::new(params, 7);
        sk2.absorb(&pair.s2, 1);
        let from_sketches = DiffSketch::from_sketches(&sk1, &sk2).unwrap();

        assert_eq!(
            incremental.sketch().counters(),
            from_sketches.sketch().counters()
        );

        // Cells hashed ahead, in runs, build the same sketch.
        let mut hashed = DiffSketch::new(params, 7);
        let hasher = hashed.sketch().row_hasher().unwrap();
        let mut cells = Vec::new();
        for (stream, weight) in [(&pair.s1, -1), (&pair.s2, 1)] {
            for run in stream.as_slice().chunks(1000) {
                hasher.hash_keys(run, &mut cells);
                hashed.absorb_cells(&cells, weight);
            }
        }
        assert_eq!(hashed.sketch().counters(), incremental.sketch().counters());
    }

    #[test]
    fn from_sketches_rejects_mismatched() {
        let a = CountSketch::new(SketchParams::new(5, 64), 1);
        let b = CountSketch::new(SketchParams::new(5, 64), 2);
        assert!(DiffSketch::from_sketches(&a, &b).is_err());
    }

    #[test]
    fn identical_streams_give_near_zero_changes() {
        let zipf = cs_stream::Zipf::new(100, 1.0);
        let s = zipf.stream(10_000, 4, cs_stream::ZipfStreamKind::Sampled);
        let result = max_change(&s, &s, 5, 20, SketchParams::new(5, 512), 2);
        for item in &result.items {
            assert_eq!(item.exact_change, 0);
        }
    }

    #[test]
    fn vanishing_item_detected_with_negative_sign() {
        let pair = StreamPair::zipf_background(
            100,
            1.0,
            5000,
            vec![ChangeSpec {
                item: 9999,
                count_s1: 2000,
                count_s2: 0,
            }],
            1,
        );
        let result = max_change(&pair.s1, &pair.s2, 1, 10, SketchParams::new(7, 512), 6);
        assert_eq!(result.items[0].key.raw(), 9999);
        assert_eq!(result.items[0].exact_change, -2000);
        assert!(result.items[0].estimated_change < 0);
    }

    #[test]
    fn empty_streams() {
        let result = max_change(
            &Stream::new(),
            &Stream::new(),
            3,
            10,
            SketchParams::new(3, 16),
            0,
        );
        assert!(result.items.is_empty());
    }

    #[test]
    fn item_only_in_s2_gets_exact_count() {
        // An item absent from S1 must still have exact_s1 = 0 and exact
        // s2 count: membership decided at its first (S2) occurrence.
        let s1 = Stream::from_ids(std::iter::repeat_n(1, 100));
        let s2 = Stream::from_ids(std::iter::repeat_n(2, 300));
        let result = max_change(&s1, &s2, 2, 5, SketchParams::new(5, 64), 3);
        let by_key: HashMap<u64, i64> = result
            .items
            .iter()
            .map(|c| (c.key.raw(), c.exact_change))
            .collect();
        assert_eq!(by_key[&2], 300);
        assert_eq!(by_key[&1], -100);
    }

    #[test]
    #[should_panic(expected = "need l >= k")]
    fn l_below_k_rejected() {
        let s = Stream::new();
        max_change(&s, &s, 5, 3, SketchParams::new(3, 16), 0);
    }

    #[test]
    fn min_estimate_keeps_the_largest_change() {
        // |i64::MIN| saturates to i64::MAX: the key must be admitted, not
        // overflow in debug or rank as 0 in release.
        let mut s2 = CountSketch::new(SketchParams::new(5, 64), 7);
        s2.update(ItemKey(2), i64::MIN);
        let d =
            DiffSketch::from_sketches(&CountSketch::new(SketchParams::new(5, 64), 7), &s2).unwrap();
        assert_eq!(d.estimate_change(ItemKey(2)), i64::MIN);
        let (s1, s2) = (
            Stream::from_ids([100, 101]),
            Stream::from_ids([2, 100, 101]),
        );
        let result = d.top_changes(&s1, &s2, 1, 1);
        assert_eq!(result, reference_top_changes(d.sketch(), &s1, &s2, 1, 1));
        assert_eq!(
            result.items,
            vec![ChangeItem {
                key: ItemKey(2),
                exact_change: 1,
                estimated_change: i64::MIN,
            }]
        );
    }

    /// The pass 2 this module used to run, kept as the reference: a
    /// scalar `estimate` per untracked arrival, `offer`, and exact counts
    /// for tracked keys.
    fn reference_top_changes(
        sketch: &CountSketch,
        s1: &Stream,
        s2: &Stream,
        k: usize,
        l: usize,
    ) -> MaxChangeResult {
        let mut tracker = TopKTracker::new(l);
        let mut exact: HashMap<ItemKey, [u64; 2]> = HashMap::new();
        let mut estimates: HashMap<ItemKey, i64> = HashMap::new();
        for (which, stream) in [s1, s2].into_iter().enumerate() {
            for key in stream.iter() {
                if !tracker.contains(key) {
                    let est = sketch.estimate(key);
                    if let Some((evicted, _)) = tracker.offer(key, est.saturating_abs()) {
                        exact.remove(&evicted);
                        estimates.remove(&evicted);
                    }
                    if tracker.contains(key) {
                        exact.insert(key, [0, 0]);
                        estimates.insert(key, est);
                    }
                }
                if let Some(counts) = exact.get_mut(&key) {
                    counts[which] += 1;
                }
            }
        }
        let mut candidates: Vec<ChangeItem> = tracker
            .items_desc()
            .into_iter()
            .map(|(key, _)| ChangeItem {
                key,
                exact_change: exact[&key][1] as i64 - exact[&key][0] as i64,
                estimated_change: estimates[&key],
            })
            .collect();
        candidates.sort_unstable_by(|a, b| {
            b.exact_change
                .unsigned_abs()
                .cmp(&a.exact_change.unsigned_abs())
                .then(a.key.cmp(&b.key))
        });
        let items = candidates.iter().take(k).copied().collect();
        MaxChangeResult { items, candidates }
    }

    /// Weights that drive cells to the `i64` limits and flag them.
    const EXTREME: [i64; 5] = [i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1, 1 << 62];

    proptest! {
        #[test]
        fn prop_top_changes_matches_reference(
            rows in 1usize..=9,
            buckets in 1usize..48,
            combiner_pick in 0u8..3,
            seed in 0u64..1000,
            key_space in 1u64..160,
            raw1 in prop::collection::vec(0u64..1_000_000, 0..400),
            raw2 in prop::collection::vec(0u64..1_000_000, 0..400),
            k in 1usize..=8,
            l_pick in 0u8..4,
            extremes in prop::collection::vec((0u64..1_000_000, 0usize..5, 0u8..2), 0..4),
        ) {
            // Keys from a small space and few buckets: estimates collide,
            // many tie at the admission threshold, and the tracker evicts.
            let combiner = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean]
                [combiner_pick as usize];
            let l = [1, k, 33, 64][l_pick as usize].max(k);
            let s1 = Stream::from_ids(raw1.iter().map(|r| r % key_space));
            let s2 = Stream::from_ids(raw2.iter().map(|r| r % key_space));
            let params = SketchParams::new(rows, buckets);

            // One-sketch pass 1.
            let mut diff = DiffSketch::new(params, seed);
            diff.absorb_first(&s1);
            diff.absorb_second(&s2);
            diff.sketch = diff.sketch.with_combiner(combiner);
            prop_assert_eq!(
                diff.top_changes(&s1, &s2, k, l),
                reference_top_changes(diff.sketch(), &s1, &s2, k, l)
            );

            // Two stored sketches, some cells saturated at the limits.
            let mut sk = [CountSketch::new(params, seed), CountSketch::new(params, seed)];
            sk[0].absorb(&s1, 1);
            sk[1].absorb(&s2, 1);
            for &(raw, w, side) in &extremes {
                sk[side as usize].update(ItemKey(raw % key_space), EXTREME[w]);
            }
            let sk2 = sk[1].clone().with_combiner(combiner);
            let diff = DiffSketch::from_sketches(&sk[0], &sk2)
                .unwrap_or_else(|_| DiffSketch::from_sketches(&CountSketch::new(params, seed), &sk2).unwrap());
            prop_assert_eq!(
                diff.top_changes(&s1, &s2, k, l),
                reference_top_changes(diff.sketch(), &s1, &s2, k, l)
            );
        }
    }
}
