//! Extension: iceberg queries on a Count-Sketch.
//!
//! §2 of the paper discusses Fang et al.'s *iceberg queries* — "all items
//! in a data stream which occur with frequency above some fixed
//! threshold" — and the KPS/Lossy-Counting algorithms built for them.
//! This module provides the same query shape on top of the Count-Sketch
//! machinery, so the library serves both interfaces:
//!
//! * one pass with an `l`-slot candidate heap sized for the threshold
//!   (any item above `φ·n` has rank at most `1/φ`, so `l ≥ 1/φ` slots
//!   suffice up to estimation error — we provision a slack factor);
//! * report every candidate whose estimate clears `(φ - ε)·n`.
//!
//! Unlike KPS/Lossy Counting the estimates are unbiased rather than
//! one-sided, and the same sketch simultaneously answers point queries
//! and APPROXTOP.

use crate::approx_top::ApproxTopProcessor;
use crate::params::SketchParams;
use crate::sketch::CountSketch;
use cs_hash::ItemKey;
use cs_stream::Stream;

/// Result of an iceberg query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcebergResult {
    /// Items whose estimated count clears the reporting threshold,
    /// estimates non-increasing.
    pub items: Vec<(ItemKey, i64)>,
    /// The reporting threshold `(φ - ε)·n` that was applied.
    pub threshold: i64,
    /// Occurrences processed.
    pub n: u64,
}

/// One-pass iceberg query processor: an APPROXTOP processor with
/// `l` candidate slots, plus the occurrence count the threshold needs.
#[derive(Debug, Clone)]
pub struct IcebergProcessor {
    top: ApproxTopProcessor,
    phi: f64,
    eps: f64,
    n: u64,
}

impl IcebergProcessor {
    /// Creates a processor for support threshold `φ` with slack `ε < φ`
    /// (report everything estimated above `(φ-ε)·n`). `slack` multiplies
    /// the `⌈1/φ⌉` candidate budget (2 is a good default).
    pub fn new(params: SketchParams, phi: f64, eps: f64, slack: usize, seed: u64) -> Self {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
        assert!(eps >= 0.0 && eps < phi, "need 0 <= eps < phi");
        assert!(slack >= 1);
        let l = ((1.0 / phi).ceil() as usize).max(1) * slack;
        Self {
            top: ApproxTopProcessor::new(params, l, seed),
            phi,
            eps,
            n: 0,
        }
    }

    /// Read access to the underlying sketch.
    pub fn sketch(&self) -> &CountSketch {
        self.top.sketch()
    }

    /// The candidate budget `l`.
    pub fn candidate_budget(&self) -> usize {
        self.top.tracker().capacity()
    }

    /// Feeds one occurrence (the §3.2 heap rule).
    pub fn observe(&mut self, key: ItemKey) {
        self.n += 1;
        self.top.observe(key);
    }

    /// [`Self::observe`] of an occurrence whose row cells were hashed
    /// ahead (see [`ApproxTopProcessor::observe_cells`]).
    pub fn observe_cells(&mut self, key: ItemKey, cells: &[u32]) {
        self.n += 1;
        self.top.observe_cells(key, cells);
    }

    /// Feeds a whole stream, one occurrence at a time.
    pub fn observe_stream(&mut self, stream: &Stream) {
        for key in stream.iter() {
            self.observe(key);
        }
    }

    /// Answers the iceberg query: candidates re-estimated against the
    /// final sketch, filtered at `(φ - ε)·n`.
    pub fn result(&self) -> IcebergResult {
        let threshold = ((self.phi - self.eps) * self.n as f64).ceil() as i64;
        let sketch = self.top.sketch();
        let mut items: Vec<(ItemKey, i64)> = self
            .top
            .tracker()
            .items_desc()
            .into_iter()
            .map(|(key, _)| (key, sketch.estimate(key)))
            .filter(|&(_, est)| est >= threshold)
            .collect();
        items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        IcebergResult {
            items,
            threshold,
            n: self.n,
        }
    }
}

/// One-shot iceberg query over a stream.
pub fn iceberg(
    stream: &Stream,
    phi: f64,
    eps: f64,
    params: SketchParams,
    seed: u64,
) -> IcebergResult {
    let mut p = IcebergProcessor::new(params, phi, eps, 2, seed);
    p.observe_stream(stream);
    p.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_top::HeapPolicy;
    use crate::topk::TopKTracker;
    use cs_stream::{ExactCounter, Zipf, ZipfStreamKind};

    proptest::proptest! {
        #[test]
        fn prop_observe_matches_add_then_estimate(
            ids in proptest::prop::collection::vec(0u64..60, 0..400),
            buckets in 1usize..64,
            phi_pick in 0usize..3,
        ) {
            let phi = [0.05, 0.2, 0.5][phi_pick];
            let params = SketchParams::new(5, buckets);
            let mut p = IcebergProcessor::new(params, phi, phi / 4.0, 2, 8);
            // Reference: the same sketch and tracker driven through
            // separate ADD and ESTIMATE calls.
            let mut sketch = CountSketch::new(params, 8);
            let mut tracker = TopKTracker::new(p.candidate_budget());
            for &id in &ids {
                let key = ItemKey(id);
                p.observe(key);
                sketch.add(key);
                if !tracker.increment(key) {
                    tracker.offer(key, sketch.estimate(key));
                }
            }
            proptest::prop_assert_eq!(p.top.sketch().counters(), sketch.counters());
            proptest::prop_assert_eq!(p.top.tracker().items_desc(), tracker.items_desc());
            let r = IcebergProcessor {
                top: ApproxTopProcessor::from_parts(sketch, tracker, HeapPolicy::IncrementTracked),
                phi,
                eps: phi / 4.0,
                n: ids.len() as u64,
            };
            proptest::prop_assert_eq!(p.result(), r.result());
        }
    }

    #[test]
    fn reports_items_above_threshold() {
        // counts: 1→500, 2→300, 3→100, rest → 1; n = 1000.
        let mut ids = Vec::new();
        ids.extend(std::iter::repeat_n(1u64, 500));
        ids.extend(std::iter::repeat_n(2u64, 300));
        ids.extend(std::iter::repeat_n(3u64, 100));
        ids.extend(4..104u64);
        let stream = Stream::from_ids(ids);
        let result = iceberg(&stream, 0.25, 0.05, SketchParams::new(5, 256), 1);
        let keys: Vec<u64> = result.items.iter().map(|&(k, _)| k.raw()).collect();
        assert!(keys.contains(&1));
        assert!(keys.contains(&2));
        assert!(!keys.contains(&3), "10% item below 20% reporting threshold");
    }

    #[test]
    fn all_true_heavy_items_reported_on_zipf() {
        let zipf = Zipf::new(2_000, 1.0);
        let stream = zipf.stream(100_000, 5, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let (phi, eps) = (0.02, 0.005);
        let result = iceberg(&stream, phi, eps, SketchParams::new(7, 2048), 3);
        let keys: Vec<ItemKey> = result.items.iter().map(|&(k, _)| k).collect();
        for (&key, &count) in exact.counts() {
            if count as f64 >= phi * stream.len() as f64 {
                assert!(keys.contains(&key), "missed heavy item {key:?} ({count})");
            }
        }
        // And nothing far below the slack threshold sneaks in.
        for &(key, _) in &result.items {
            let truth = exact.count(key) as f64;
            assert!(
                truth >= (phi - 2.0 * eps) * stream.len() as f64,
                "reported too-light item {key:?} ({truth})"
            );
        }
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let result = iceberg(&Stream::new(), 0.1, 0.01, SketchParams::new(3, 16), 0);
        assert!(result.items.is_empty());
        assert_eq!(result.n, 0);
    }

    #[test]
    fn candidate_budget_formula() {
        let p = IcebergProcessor::new(SketchParams::new(3, 16), 0.1, 0.01, 2, 0);
        assert_eq!(p.candidate_budget(), 20);
        let p = IcebergProcessor::new(SketchParams::new(3, 16), 0.5, 0.1, 1, 0);
        assert_eq!(p.candidate_budget(), 2);
    }

    #[test]
    fn threshold_arithmetic() {
        let mut p = IcebergProcessor::new(SketchParams::new(3, 64), 0.5, 0.1, 2, 1);
        for _ in 0..80 {
            p.observe(ItemKey(1));
        }
        for _ in 0..20 {
            p.observe(ItemKey(2));
        }
        let r = p.result();
        assert_eq!(r.n, 100);
        assert_eq!(r.threshold, 40);
        assert_eq!(r.items, vec![(ItemKey(1), 80)]);
    }

    #[test]
    #[should_panic(expected = "need 0 <= eps < phi")]
    fn eps_at_least_phi_rejected() {
        IcebergProcessor::new(SketchParams::new(1, 1), 0.1, 0.1, 1, 0);
    }

    #[test]
    fn result_sorted_desc() {
        let zipf = Zipf::new(100, 1.5);
        let stream = zipf.stream(10_000, 2, ZipfStreamKind::DeterministicRounded);
        let result = iceberg(&stream, 0.01, 0.002, SketchParams::new(5, 512), 4);
        assert!(result.items.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(!result.items.is_empty());
    }
}
