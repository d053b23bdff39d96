//! The one-pass APPROXTOP(S, k, ε) algorithm (§3.2).
//!
//! Given a stream, an integer `k` and `ε > 0`, output a list of `k`
//! elements such that every listed element has `n_q ≥ (1-ε)·n_k`; with
//! the paper's stronger guarantee, every element with `n_q ≥ (1+ε)·n_k`
//! appears in the list. Correctness (Lemma 5) holds w.h.p. when the
//! sketch is dimensioned by [`SketchParams::for_approx_top`].
//!
//! The algorithm is the paper's, verbatim: for each arriving `q_j`,
//! `ADD(C, q_j)`; then if `q_j` is tracked, increment its stored count,
//! else offer `ESTIMATE(C, q_j)` to the k-slot heap.
//!
//! [`ApproxTopProcessor::observe`] (and `observe_stream`, its loop) is
//! that per-item rule: tracker state depends only on the stream prefix,
//! so snapshots resumed mid-stream stay bit-identical to an
//! uninterrupted run. It hashes each row once per arrival. Membership
//! does not depend on the sketch, so the tracker is asked first: a
//! tracked arrival is a plain `ADD`; an untracked one runs the fused
//! `ADD`+`ESTIMATE` kernel, which reads the estimate back from the `t`
//! cells it just wrote. The state is bit-identical to separate calls.
//! The tracker ([`TopKTracker`]) is a flat array with a cached minimum
//! and does not hash the key at small `k`.
//! [`ApproxTopProcessor::observe_cells`] applies the same rule to a key
//! whose row cells were hashed ahead, so the caller can hash on another
//! thread.

use crate::median::Combiner;
use crate::params::SketchParams;
use crate::sketch::{CountSketch, GenericCountSketch, RowCells};
use crate::topk::TopKTracker;
use cs_hash::ItemKey;
use cs_stream::Stream;

/// How the heap is maintained as items arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapPolicy {
    /// The paper's rule: tracked items are *incremented*; only untracked
    /// arrivals are re-estimated. One sketch probe per untracked arrival.
    #[default]
    IncrementTracked,
    /// Ablation: re-estimate on every arrival, tracked or not. More sketch
    /// probes, but stored values never drift from the sketch.
    AlwaysReEstimate,
}

/// Result of a one-pass APPROXTOP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxTopResult {
    /// The reported items with their estimated counts, non-increasing.
    pub items: Vec<(ItemKey, i64)>,
    /// Counters + heap bytes actually used.
    pub space_bytes: usize,
}

impl ApproxTopResult {
    /// Just the keys, most frequent (by estimate) first.
    pub fn keys(&self) -> Vec<ItemKey> {
        self.items.iter().map(|&(k, _)| k).collect()
    }
}

/// An incremental APPROXTOP processor: feed occurrences one at a time.
///
/// Generic over the sketch's hash constructions; `ApproxTopProcessor` with
/// the defaults is obtained from [`approx_top`] or
/// [`ApproxTopProcessor::new`].
#[derive(Debug, Clone)]
pub struct ApproxTopProcessor<H = cs_hash::PairwiseHash, S = cs_hash::PairwiseSign> {
    sketch: GenericCountSketch<H, S>,
    tracker: TopKTracker,
    policy: HeapPolicy,
}

impl ApproxTopProcessor<cs_hash::PairwiseHash, cs_hash::PairwiseSign> {
    /// Creates a processor with the paper-faithful sketch.
    pub fn new(params: SketchParams, k: usize, seed: u64) -> Self {
        Self::with_sketch(CountSketch::new(params, seed), k)
    }
}

impl<H, S> ApproxTopProcessor<H, S>
where
    H: cs_hash::BucketHasher,
    S: cs_hash::SignHasher,
{
    /// Wraps an existing (empty) sketch.
    pub fn with_sketch(sketch: GenericCountSketch<H, S>, k: usize) -> Self {
        Self {
            sketch,
            tracker: TopKTracker::new(k),
            policy: HeapPolicy::default(),
        }
    }

    /// Selects the heap maintenance policy (default: the paper's).
    pub fn with_policy(mut self, policy: HeapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the row combiner (default: median).
    pub fn with_combiner(mut self, combiner: Combiner) -> Self {
        self.sketch = self.sketch.with_combiner(combiner);
        self
    }

    /// Processes one arrival: the paper's two steps. Tracker membership
    /// does not depend on the sketch, so it is checked first: a tracked
    /// arrival is incremented and added, an untracked one is added and
    /// estimated in one fused pass over its `t` cells.
    pub fn observe(&mut self, key: ItemKey) {
        self.observe_with(key, self.sketch.key_cells(key));
    }

    /// [`Self::observe`] of an arrival whose row cells were computed
    /// ahead, by a [`RowHasher`](crate::sketch::RowHasher) of this
    /// processor's sketch: `cells` holds the key's `t` words. The state
    /// is bit-identical to `observe(key)`.
    pub fn observe_cells(&mut self, key: ItemKey, cells: &[u32]) {
        self.observe_with(key, cells);
    }

    /// The per-arrival rule, with `key`'s row cells read from `cells`.
    #[inline]
    fn observe_with(&mut self, key: ItemKey, cells: impl RowCells) {
        if self.policy == HeapPolicy::IncrementTracked && self.tracker.increment(key) {
            self.sketch.update_with(cells, 1);
        } else {
            let est = self.sketch.update_estimate_with(cells, 1);
            self.tracker.offer(key, est);
        }
    }

    /// Processes a whole stream, one arrival at a time.
    pub fn observe_stream(&mut self, stream: &Stream) {
        for key in stream.iter() {
            self.observe(key);
        }
    }

    /// The current top-k snapshot.
    pub fn result(&self) -> ApproxTopResult {
        ApproxTopResult {
            items: self.tracker.items_desc(),
            space_bytes: self
                .sketch
                .space_bytes()
                .saturating_add(self.tracker.space_bytes()),
        }
    }

    /// Read access to the underlying sketch.
    pub fn sketch(&self) -> &GenericCountSketch<H, S> {
        &self.sketch
    }

    /// Read access to the tracker.
    pub fn tracker(&self) -> &TopKTracker {
        &self.tracker
    }

    /// The active heap policy.
    pub fn policy(&self) -> HeapPolicy {
        self.policy
    }

    /// Reassembles a processor from its parts — used by the snapshot
    /// codec and by callers that rebuild a processor around an
    /// already-merged sketch (e.g. the parallel pipeline's resumable CLI
    /// path).
    pub fn from_parts(
        sketch: GenericCountSketch<H, S>,
        tracker: TopKTracker,
        policy: HeapPolicy,
    ) -> Self {
        Self {
            sketch,
            tracker,
            policy,
        }
    }

    /// Decomposes the processor into sketch, tracker and policy — the
    /// threaded CLI path merges a resumed processor's sketch into the
    /// pool's, so it needs the parts, not the whole.
    pub fn into_parts(self) -> (GenericCountSketch<H, S>, TopKTracker, HeapPolicy) {
        (self.sketch, self.tracker, self.policy)
    }
}

/// One-shot APPROXTOP over a stream with explicit sketch dimensions.
pub fn approx_top(stream: &Stream, k: usize, params: SketchParams, seed: u64) -> ApproxTopResult {
    let mut p = ApproxTopProcessor::new(params, k, seed);
    p.observe_stream(stream);
    p.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_stream::{ExactCounter, Zipf, ZipfStreamKind};
    use std::collections::HashSet;

    fn recall_at_k(result: &ApproxTopResult, exact: &ExactCounter, k: usize) -> f64 {
        let truth: HashSet<ItemKey> = exact.top_k(k).into_iter().map(|(k, _)| k).collect();
        let got: HashSet<ItemKey> = result.keys().into_iter().collect();
        truth.intersection(&got).count() as f64 / truth.len() as f64
    }

    #[test]
    fn finds_dominant_items_zipf() {
        let zipf = Zipf::new(1000, 1.2);
        let stream = zipf.stream(50_000, 5, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let result = approx_top(&stream, 10, SketchParams::new(7, 1024), 42);
        assert_eq!(result.items.len(), 10);
        let r = recall_at_k(&result, &exact, 10);
        assert!(r >= 0.9, "recall = {r}");
    }

    #[test]
    fn lemma5_dimensioning_yields_guarantee() {
        // Size b by Lemma 5 and check: every reported item has
        // n_q >= (1 - eps) * n_k.
        let zipf = Zipf::new(2000, 1.0);
        let stream = zipf.stream(100_000, 6, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let (k, eps) = (10usize, 0.25f64);
        let nk = exact.nk(k);
        let res_f2 = cs_stream::moments::residual_f2(&exact, k) as f64;
        let params = SketchParams::for_approx_top(k, res_f2, nk, eps, stream.len() as u64, 0.05);
        let result = approx_top(&stream, k, params, 17);
        let floor = ((1.0 - eps) * nk as f64).floor() as u64;
        for &(key, _) in &result.items {
            let truth = exact.count(key);
            assert!(
                truth >= floor,
                "item {key:?} has true count {truth} < (1-ε)n_k = {floor}"
            );
        }
        // Stronger guarantee: every item with n_q >= (1+eps) n_k reported.
        let ceil = ((1.0 + eps) * nk as f64).ceil() as u64;
        let reported: HashSet<ItemKey> = result.keys().into_iter().collect();
        for (key, count) in exact.top_k(2 * k) {
            if count >= ceil {
                assert!(
                    reported.contains(&key),
                    "item {key:?} with count {count} >= (1+ε)n_k = {ceil} missing"
                );
            }
        }
    }

    #[test]
    fn exact_on_stream_with_k_distinct_items() {
        // k distinct items, k slots: everything tracked, counts exact
        // under the increment policy.
        let stream = Stream::from_ids([1, 2, 3, 1, 2, 1]);
        let result = approx_top(&stream, 3, SketchParams::new(5, 64), 1);
        let items: std::collections::HashMap<_, _> = result.items.into_iter().collect();
        assert_eq!(items[&ItemKey(1)], 3);
        assert_eq!(items[&ItemKey(2)], 2);
        assert_eq!(items[&ItemKey(3)], 1);
    }

    #[test]
    fn empty_stream_gives_empty_result() {
        let result = approx_top(&Stream::new(), 5, SketchParams::new(3, 16), 0);
        assert!(result.items.is_empty());
    }

    #[test]
    fn both_policies_find_the_heavy_hitter() {
        let zipf = Zipf::new(200, 1.5);
        let stream = zipf.stream(20_000, 3, ZipfStreamKind::DeterministicRounded);
        for policy in [HeapPolicy::IncrementTracked, HeapPolicy::AlwaysReEstimate] {
            let mut p =
                ApproxTopProcessor::new(SketchParams::new(5, 512), 5, 9).with_policy(policy);
            p.observe_stream(&stream);
            let keys = p.result().keys();
            assert!(
                keys.contains(&ItemKey(0)),
                "policy {policy:?} missed the top item"
            );
        }
    }

    #[test]
    fn result_space_accounts_sketch_and_heap() {
        let result = approx_top(&Stream::from_ids([1, 2]), 2, SketchParams::new(3, 128), 0);
        assert!(result.space_bytes >= 3 * 128 * 8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let zipf = Zipf::new(100, 1.0);
        let stream = zipf.stream(5000, 11, ZipfStreamKind::Sampled);
        let mut p = ApproxTopProcessor::new(SketchParams::new(5, 256), 8, 21);
        for key in stream.iter() {
            p.observe(key);
        }
        let one_shot = approx_top(&stream, 8, SketchParams::new(5, 256), 21);
        assert_eq!(p.result().items, one_shot.items);
    }

    /// The paper's rule spelled out with separate ADD and ESTIMATE calls
    /// (the pre-fusion loop), assembled into a processor for comparison.
    fn add_then_estimate(
        ids: &[u64],
        params: SketchParams,
        k: usize,
        combiner: Combiner,
        policy: HeapPolicy,
    ) -> ApproxTopProcessor {
        let mut sketch = CountSketch::new(params, 29).with_combiner(combiner);
        let mut tracker = TopKTracker::new(k);
        for &id in ids {
            let key = ItemKey(id);
            sketch.add(key);
            if policy == HeapPolicy::AlwaysReEstimate || !tracker.increment(key) {
                tracker.offer(key, sketch.estimate(key));
            }
        }
        ApproxTopProcessor::from_parts(sketch, tracker, policy)
    }

    proptest::proptest! {
        #[test]
        fn prop_observe_matches_add_then_estimate(
            ids in proptest::prop::collection::vec(0u64..80, 0..400),
            rows in 1usize..12,
            buckets in 1usize..64,
            k in 1usize..12,
            comb in 0usize..3,
            always in proptest::prelude::any::<bool>(),
        ) {
            let params = SketchParams::new(rows, buckets);
            let combiner = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean][comb];
            let policy = if always {
                HeapPolicy::AlwaysReEstimate
            } else {
                HeapPolicy::IncrementTracked
            };
            let mut p = ApproxTopProcessor::new(params, k, 29)
                .with_combiner(combiner)
                .with_policy(policy);
            for &id in &ids {
                p.observe(ItemKey(id));
            }
            let want = add_then_estimate(&ids, params, k, combiner, policy);
            proptest::prop_assert_eq!(p.result(), want.result());
            proptest::prop_assert_eq!(p.to_snapshot_bytes(), want.to_snapshot_bytes());
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_observe_cells_matches_observe(
            ids in proptest::prop::collection::vec(0u64..80, 0..400),
            rows in 1usize..20,
            buckets in 1usize..64,
            k in 1usize..12,
            comb in 0usize..3,
            always in proptest::prelude::any::<bool>(),
            run in 1usize..50,
        ) {
            // Cells hashed ahead, a run at a time as `fi`'s scanner
            // hashes them, give the state of one `observe(key)` per key.
            let params = SketchParams::new(rows, buckets);
            let combiner = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean][comb];
            let policy = if always {
                HeapPolicy::AlwaysReEstimate
            } else {
                HeapPolicy::IncrementTracked
            };
            let fresh = || {
                ApproxTopProcessor::new(params, k, 29)
                    .with_combiner(combiner)
                    .with_policy(policy)
            };
            let (mut by_key, mut by_cells) = (fresh(), fresh());
            let hasher = by_cells.sketch().row_hasher().unwrap();
            let keys: Vec<ItemKey> = ids.iter().map(|&id| ItemKey(id)).collect();
            let mut cells = Vec::new();
            for chunk in keys.chunks(run) {
                hasher.hash_keys(chunk, &mut cells);
                for (&key, key_cells) in chunk.iter().zip(cells.chunks_exact(rows)) {
                    by_cells.observe_cells(key, key_cells);
                    by_key.observe(key);
                }
            }
            proptest::prop_assert_eq!(by_cells.result(), by_key.result());
            proptest::prop_assert_eq!(by_cells.to_snapshot_bytes(), by_key.to_snapshot_bytes());
        }
    }

    #[test]
    fn tracker_never_exceeds_k() {
        let zipf = Zipf::new(500, 0.8);
        let stream = zipf.stream(10_000, 2, ZipfStreamKind::Sampled);
        let mut p = ApproxTopProcessor::new(SketchParams::new(3, 128), 7, 5);
        for key in stream.iter() {
            p.observe(key);
            assert!(p.tracker().len() <= 7);
        }
    }
}
