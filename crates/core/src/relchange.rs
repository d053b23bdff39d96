//! Extension: relative- and balanced-change objectives (§5's open
//! problem).
//!
//! The paper closes with: *"there is still an open problem of finding the
//! elements with the max-percent change, or other objective functions
//! that somehow balance absolute and relative changes."* This module
//! implements the natural sketch-based attack on that problem, as an
//! extension beyond the paper's text:
//!
//! * maintain the §4.2 difference sketch for `n̂_q ≈ n_q^{S2} - n_q^{S1}`,
//!   plus a *sum* sketch for `m̂_q ≈ n_q^{S2} + n_q^{S1}` (additivity again);
//! * rank candidates in pass 2 by a [`ChangeObjective`]:
//!   - [`ChangeObjective::Absolute`] — the paper's `|Δ|`;
//!   - [`ChangeObjective::Percent`] — `|Δ| / (n^{S1} + c)` with an
//!     additive smoothing constant `c` (pure percent change is
//!     ill-posed: any new item has infinite percent change — which is
//!     exactly why the paper calls balancing an open problem);
//!   - [`ChangeObjective::Balanced`] — `|Δ| / sqrt(total + c)`, the
//!     variance-stabilized score (a Poisson-count z-score): large for
//!     changes that are improbable under the item's own volume.
//!
//! The guarantee inherited from Lemma 4 is additive (`±8γ` on each of
//! the two sketch reads), so the scores of low-volume items are noisy —
//! the smoothing constant should be chosen `≳ 8γ`. The pass-2 candidate
//! set uses exact re-counts exactly as §4.2 does, so the *final ranking*
//! among the `l` candidates is exact for every objective.

use crate::maxchange::pass_two;
use crate::params::SketchParams;
use crate::sketch::CountSketch;
use cs_hash::ItemKey;
use cs_stream::Stream;

/// How to score a change between two streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChangeObjective {
    /// The paper's §4.2 objective: `|Δ|`.
    Absolute,
    /// Smoothed percent change: `|Δ| / (n^{S1} + c)`.
    Percent {
        /// Additive smoothing constant `c > 0` (choose `≳ 8γ`).
        smoothing: f64,
    },
    /// Variance-stabilized score: `|Δ| / sqrt(n^{S1} + n^{S2} + c)`.
    Balanced {
        /// Additive smoothing constant `c > 0`.
        smoothing: f64,
    },
}

impl ChangeObjective {
    /// Scores a change given the two (estimated or exact) stream counts.
    /// Counts are clamped at 0 (sketch estimates can be negative).
    pub fn score(&self, count_s1: i64, count_s2: i64) -> f64 {
        let c1 = count_s1.max(0) as f64;
        let c2 = count_s2.max(0) as f64;
        let delta = (c2 - c1).abs();
        match *self {
            ChangeObjective::Absolute => delta,
            ChangeObjective::Percent { smoothing } => {
                assert!(smoothing > 0.0, "smoothing must be positive");
                delta / (c1 + smoothing)
            }
            ChangeObjective::Balanced { smoothing } => {
                assert!(smoothing > 0.0, "smoothing must be positive");
                delta / (c1 + c2 + smoothing).sqrt()
            }
        }
    }
}

/// One scored change item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredChange {
    /// The item.
    pub key: ItemKey,
    /// Exact count in `S1` (pass-2 re-count).
    pub count_s1: u64,
    /// Exact count in `S2` (pass-2 re-count).
    pub count_s2: u64,
    /// The objective value computed from the exact counts.
    pub score: f64,
}

/// Difference + sum sketches over a stream pair, for relative-change
/// queries.
#[derive(Debug, Clone)]
pub struct RelChangeSketch {
    /// Estimates `n^{S2} - n^{S1}`.
    diff: CountSketch,
    /// Estimates `n^{S2} + n^{S1}`.
    sum: CountSketch,
}

impl RelChangeSketch {
    /// Creates the pair of sketches (same dimensions; independent hash
    /// functions derived from `seed`).
    pub fn new(params: SketchParams, seed: u64) -> Self {
        Self {
            diff: CountSketch::new(params, seed),
            sum: CountSketch::new(params, seed ^ 0x5EED_0002),
        }
    }

    /// Pass-1 step over `S1`.
    pub fn absorb_first(&mut self, stream: &Stream) {
        self.diff.absorb(stream, -1);
        self.sum.absorb(stream, 1);
    }

    /// Pass-1 step over `S2`.
    pub fn absorb_second(&mut self, stream: &Stream) {
        self.diff.absorb(stream, 1);
        self.sum.absorb(stream, 1);
    }

    /// Sketch-only estimates of `(Δ, total)` for an item.
    pub fn estimate(&self, key: ItemKey) -> (i64, i64) {
        (self.diff.estimate(key), self.sum.estimate(key))
    }

    /// Sketch-only score of an item under an objective (reconstructs
    /// per-stream counts from the diff/sum estimates).
    pub fn estimate_score(&self, key: ItemKey, objective: ChangeObjective) -> f64 {
        let (delta, total) = self.estimate(key);
        let c1 = (total - delta) / 2;
        let c2 = (total + delta) / 2;
        objective.score(c1, c2)
    }

    /// Pass 2 (§4.2-style): keep the `l` items with the largest
    /// *estimated* score, exact-count them, and return the top `k` by
    /// exact score. Scores are tracked in fixed point (×2¹⁶) inside the
    /// integer heap.
    pub fn top_changes(
        &self,
        s1: &Stream,
        s2: &Stream,
        k: usize,
        l: usize,
        objective: ChangeObjective,
    ) -> Vec<ScoredChange> {
        assert!(l >= k, "need l >= k");
        const FIXED: f64 = 65_536.0;
        let tracked = pass_two(s1, s2, l, |key| {
            let (delta, total) = self.estimate(key);
            let score = objective.score((total - delta) / 2, (total + delta) / 2);
            ((score * FIXED).min(i64::MAX as f64) as i64, delta)
        });
        let mut scored: Vec<ScoredChange> = tracked
            .into_iter()
            .map(|(key, [c1, c2], _)| ScoredChange {
                key,
                count_s1: c1,
                count_s2: c2,
                score: objective.score(c1 as i64, c2 as i64),
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(a.key.cmp(&b.key))
        });
        scored.truncate(k);
        scored
    }
}

/// The complete two-pass relative-change query in one call.
pub fn max_relative_change(
    s1: &Stream,
    s2: &Stream,
    k: usize,
    l: usize,
    objective: ChangeObjective,
    params: SketchParams,
    seed: u64,
) -> Vec<ScoredChange> {
    let mut sketch = RelChangeSketch::new(params, seed);
    sketch.absorb_first(s1);
    sketch.absorb_second(s2);
    sketch.top_changes(s1, s2, k, l, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::median::Combiner;
    use cs_stream::{ChangeSpec, StreamPair};
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn objective_scores() {
        // Δ = 90, from 10 to 100.
        assert_eq!(ChangeObjective::Absolute.score(10, 100), 90.0);
        let pct = ChangeObjective::Percent { smoothing: 10.0 }.score(10, 100);
        assert!((pct - 90.0 / 20.0).abs() < 1e-12);
        let bal = ChangeObjective::Balanced { smoothing: 10.0 }.score(10, 100);
        assert!((bal - 90.0 / (120f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn negative_estimates_clamped() {
        assert_eq!(ChangeObjective::Absolute.score(-5, 10), 10.0);
    }

    #[test]
    #[should_panic(expected = "smoothing must be positive")]
    fn zero_smoothing_rejected() {
        ChangeObjective::Percent { smoothing: 0.0 }.score(1, 2);
    }

    fn pair() -> StreamPair {
        StreamPair::zipf_background(
            500,
            1.0,
            20_000,
            vec![
                // Big absolute change, small relative change (heavy item).
                ChangeSpec {
                    item: 90_000,
                    count_s1: 5_000,
                    count_s2: 7_000,
                },
                // Small absolute change, huge relative change.
                ChangeSpec {
                    item: 90_001,
                    count_s1: 10,
                    count_s2: 600,
                },
            ],
            9,
        )
    }

    #[test]
    fn absolute_and_percent_rank_differently() {
        let p = pair();
        let params = SketchParams::new(7, 2048);
        let abs = max_relative_change(&p.s1, &p.s2, 1, 20, ChangeObjective::Absolute, params, 3);
        assert_eq!(abs[0].key.raw(), 90_000, "absolute objective: heavy item");
        let pct = max_relative_change(
            &p.s1,
            &p.s2,
            1,
            20,
            ChangeObjective::Percent { smoothing: 50.0 },
            params,
            3,
        );
        assert_eq!(
            pct[0].key.raw(),
            90_001,
            "percent objective: exploding item"
        );
    }

    #[test]
    fn balanced_finds_both_planted_items() {
        let p = pair();
        let top = max_relative_change(
            &p.s1,
            &p.s2,
            2,
            30,
            ChangeObjective::Balanced { smoothing: 50.0 },
            SketchParams::new(7, 2048),
            5,
        );
        let keys: Vec<u64> = top.iter().map(|c| c.key.raw()).collect();
        assert!(keys.contains(&90_000), "balanced must keep the heavy mover");
        assert!(
            keys.contains(&90_001),
            "balanced must keep the relative mover"
        );
    }

    #[test]
    fn exact_counts_in_result_are_exact() {
        let p = pair();
        let top = max_relative_change(
            &p.s1,
            &p.s2,
            2,
            30,
            ChangeObjective::Absolute,
            SketchParams::new(7, 2048),
            7,
        );
        let e1 = cs_stream::ExactCounter::from_stream(&p.s1);
        let e2 = cs_stream::ExactCounter::from_stream(&p.s2);
        for item in &top {
            assert_eq!(item.count_s1, e1.count(item.key));
            assert_eq!(item.count_s2, e2.count(item.key));
        }
    }

    #[test]
    fn absolute_objective_matches_maxchange_module() {
        // The Absolute objective must agree with the §4.2 implementation
        // on the reported key set.
        let p = pair();
        let params = SketchParams::new(7, 4096);
        let via_rel =
            max_relative_change(&p.s1, &p.s2, 2, 30, ChangeObjective::Absolute, params, 11);
        let via_42 = crate::maxchange::max_change(&p.s1, &p.s2, 2, 30, params, 11);
        let rel_keys: std::collections::HashSet<_> = via_rel.iter().map(|c| c.key).collect();
        let mc_keys: std::collections::HashSet<_> = via_42.items.iter().map(|c| c.key).collect();
        assert_eq!(rel_keys, mc_keys);
    }

    #[test]
    fn estimate_score_tracks_exact_score() {
        let p = pair();
        let mut sk = RelChangeSketch::new(SketchParams::new(9, 4096), 13);
        sk.absorb_first(&p.s1);
        sk.absorb_second(&p.s2);
        let obj = ChangeObjective::Balanced { smoothing: 100.0 };
        let est = sk.estimate_score(ItemKey(90_000), obj);
        let exact = obj.score(5_000, 7_000);
        assert!(
            (est - exact).abs() / exact < 0.3,
            "estimated score {est} vs exact {exact}"
        );
    }

    #[test]
    fn inner_sketches_snapshot_roundtrip() {
        // The relative-change sketch persists through the snapshot codec
        // of its constituent sketches.
        let mut sk = RelChangeSketch::new(SketchParams::new(3, 32), 1);
        sk.absorb_first(&Stream::from_ids([4, 4, 4]));
        sk.absorb_second(&Stream::from_ids([4, 5]));
        let back =
            crate::sketch::CountSketch::from_snapshot_bytes(&sk.diff.to_snapshot_bytes()).unwrap();
        assert_eq!(back.counters(), sk.diff.counters());
    }

    /// The pass 2 this module used to run, kept as the reference: scalar
    /// diff and sum estimates per untracked arrival, `offer`, and exact
    /// counts for tracked keys.
    fn reference_top_changes(
        sk: &RelChangeSketch,
        s1: &Stream,
        s2: &Stream,
        k: usize,
        l: usize,
        objective: ChangeObjective,
    ) -> Vec<ScoredChange> {
        let mut tracker = crate::topk::TopKTracker::new(l);
        let mut exact: HashMap<ItemKey, [u64; 2]> = HashMap::new();
        for (which, stream) in [s1, s2].into_iter().enumerate() {
            for key in stream.iter() {
                if !tracker.contains(key) {
                    let (delta, total) = sk.estimate(key);
                    let score = objective.score((total - delta) / 2, (total + delta) / 2);
                    let fixed = (score * 65_536.0).min(i64::MAX as f64) as i64;
                    if let Some((evicted, _)) = tracker.offer(key, fixed) {
                        exact.remove(&evicted);
                    }
                    if tracker.contains(key) {
                        exact.insert(key, [0, 0]);
                    }
                }
                if let Some(counts) = exact.get_mut(&key) {
                    counts[which] += 1;
                }
            }
        }
        let mut scored: Vec<ScoredChange> = exact
            .into_iter()
            .map(|(key, [c1, c2])| ScoredChange {
                key,
                count_s1: c1,
                count_s2: c2,
                score: objective.score(c1 as i64, c2 as i64),
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.key.cmp(&b.key))
        });
        scored.truncate(k);
        scored
    }

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
            objective_pick in 0u8..3,
            smoothing in 0.5f64..200.0,
        ) {
            let combiner = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean]
                [combiner_pick as usize];
            let objective = [
                ChangeObjective::Absolute,
                ChangeObjective::Percent { smoothing },
                ChangeObjective::Balanced { smoothing },
            ][objective_pick as usize];
            let l = [1, k, 33, 64][l_pick as usize].max(k);
            let s1 = Stream::from_ids(raw1.iter().map(|r| r % key_space));
            let s2 = Stream::from_ids(raw2.iter().map(|r| r % key_space));
            let mut sk = RelChangeSketch::new(SketchParams::new(rows, buckets), seed);
            sk.absorb_first(&s1);
            sk.absorb_second(&s2);
            sk.diff = sk.diff.with_combiner(combiner);
            sk.sum = sk.sum.with_combiner(combiner);
            prop_assert_eq!(
                sk.top_changes(&s1, &s2, k, l, objective),
                reference_top_changes(&sk, &s1, &s2, k, l, objective)
            );
        }
    }
}
