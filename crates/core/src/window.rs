//! Extension: sliding-window frequent items via epoch sketches.
//!
//! The paper's motivating application is "the most frequent queries
//! handled [by a search engine] in some period of time" (§1), and §4.2
//! already manipulates sketches of *time periods* (two consecutive days).
//! This module pushes that idea to a sliding window: the stream is cut
//! into fixed-size **epochs**, each epoch gets its own Count-Sketch
//! (same seed ⇒ same hash functions), and the window sketch is their
//! running sum. When an epoch leaves the window its sketch is
//! *subtracted* — additivity (§3.2) makes expiry O(t·b), independent of
//! how many occurrences the epoch held.
//!
//! Space: `(window_epochs + 1) · t · b` counters plus an `l`-slot
//! candidate set. The candidate set is refreshed from the window sketch
//! at every epoch boundary, so items whose mass has expired are evicted;
//! between boundaries it is maintained with the §3.2 heap rule.

use crate::params::SketchParams;
use crate::sketch::CountSketch;
use crate::topk::TopKTracker;
use cs_hash::ItemKey;
use std::collections::VecDeque;

/// A sliding-window Count-Sketch with top-k tracking.
///
/// ```
/// use cs_core::window::SlidingSketch;
/// use cs_core::SketchParams;
/// use cs_hash::ItemKey;
///
/// // Window of 2 epochs × 100 occurrences.
/// let mut w = SlidingSketch::new(SketchParams::new(5, 64), 1, 100, 2, 3);
/// for _ in 0..100 {
///     w.observe(ItemKey(1)); // epoch 1: all item 1
/// }
/// for _ in 0..150 {
///     w.observe(ItemKey(2)); // epochs 2-3: item 2
/// }
/// // Epoch 1 expired with the roll into epoch 3.
/// assert_eq!(w.estimate(ItemKey(1)), 0);
/// assert_eq!(w.estimate(ItemKey(2)), 150);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingSketch {
    params: SketchParams,
    seed: u64,
    /// Occurrences per epoch.
    epoch_len: usize,
    /// Window size in epochs (the window covers the current, partial
    /// epoch plus the `window_epochs - 1` most recent complete ones).
    window_epochs: usize,
    /// Completed epochs still inside the window, oldest first.
    completed: VecDeque<CountSketch>,
    /// The in-progress epoch.
    current: CountSketch,
    /// Sum of `completed` + `current` (maintained incrementally).
    window: CountSketch,
    /// Occurrences in the current epoch so far.
    filled: usize,
    /// Candidate tracker over the window.
    tracker: TopKTracker,
    capacity: usize,
}

impl SlidingSketch {
    /// Creates a sliding sketch: `window_epochs` epochs of `epoch_len`
    /// occurrences, tracking `k` candidates.
    pub fn new(
        params: SketchParams,
        seed: u64,
        epoch_len: usize,
        window_epochs: usize,
        k: usize,
    ) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        assert!(window_epochs > 0, "window must hold at least one epoch");
        assert!(k > 0, "k must be positive");
        Self {
            params,
            seed,
            epoch_len,
            window_epochs,
            completed: VecDeque::new(),
            current: CountSketch::new(params, seed),
            window: CountSketch::new(params, seed),
            filled: 0,
            tracker: TopKTracker::new(k),
            capacity: k,
        }
    }

    /// Number of completed epochs currently in the window.
    pub fn completed_epochs(&self) -> usize {
        self.completed.len()
    }

    /// Occurrences currently covered by the window (current partial
    /// epoch plus completed epochs).
    pub fn window_occurrences(&self) -> usize {
        self.completed.len() * self.epoch_len + self.filled
    }

    /// Feeds one occurrence.
    pub fn observe(&mut self, key: ItemKey) {
        self.current.add(key);
        self.filled += 1;

        // Maintain the candidate set with the §3.2 heap rule against the
        // window estimate (fused with the window add for untracked keys).
        if self.tracker.increment(key) {
            self.window.add(key);
        } else {
            let est = self.window.update_estimate(key, 1);
            self.tracker.offer(key, est);
        }

        if self.filled == self.epoch_len {
            self.roll_epoch();
        }
    }

    /// Closes the current epoch and expires the oldest if the window is
    /// over-full.
    fn roll_epoch(&mut self) {
        let finished =
            std::mem::replace(&mut self.current, CountSketch::new(self.params, self.seed));
        self.completed.push_back(finished);
        self.filled = 0;
        if self.completed.len() >= self.window_epochs {
            let expired = self.completed.pop_front().expect("non-empty");
            self.window
                .subtract(&expired)
                .expect("same params and seed by construction");
        }
        // Refresh the candidate set: re-estimate every tracked item
        // against the post-expiry window, dropping items whose mass left.
        let tracked = self.tracker.items_desc();
        let mut fresh = TopKTracker::new(self.capacity);
        for (key, _) in tracked {
            let est = self.window.estimate(key);
            if est > 0 {
                fresh.offer(key, est);
            }
        }
        self.tracker = fresh;
    }

    /// The window estimate of an item's count.
    pub fn estimate(&self, key: ItemKey) -> i64 {
        self.window.estimate(key)
    }

    /// The current top-k candidates `(key, windowed estimate)`,
    /// non-increasing. Estimates are refreshed against the live window.
    pub fn top_k(&self) -> Vec<(ItemKey, i64)> {
        let mut items: Vec<(ItemKey, i64)> = self
            .tracker
            .items_desc()
            .into_iter()
            .map(|(key, _)| (key, self.window.estimate(key)))
            .collect();
        items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items
    }

    /// Heap + counter bytes held.
    pub fn space_bytes(&self) -> usize {
        let per_sketch = self.window.space_bytes();
        (per_sketch * (self.completed.len() + 2)).saturating_add(self.tracker.space_bytes())
    }

    // Snapshot plumbing: the CSNP codec in `crate::snapshot` serializes
    // every field and reassembles via [`WindowParts`], so restore is
    // bit-identical to an uninterrupted run (including saturation flags,
    // which is why the window sum is stored rather than recomputed).

    pub(crate) fn window_sketch(&self) -> &CountSketch {
        &self.window
    }

    pub(crate) fn completed_sketches(&self) -> &VecDeque<CountSketch> {
        &self.completed
    }

    pub(crate) fn current_sketch(&self) -> &CountSketch {
        &self.current
    }

    pub(crate) fn tracker(&self) -> &TopKTracker {
        &self.tracker
    }

    pub(crate) fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    pub(crate) fn window_epochs(&self) -> usize {
        self.window_epochs
    }

    pub(crate) fn filled(&self) -> usize {
        self.filled
    }

    pub(crate) fn tracker_capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn from_parts(parts: WindowParts) -> Self {
        Self {
            params: parts.params,
            seed: parts.seed,
            epoch_len: parts.epoch_len,
            window_epochs: parts.window_epochs,
            completed: parts.completed,
            current: parts.current,
            window: parts.window,
            filled: parts.filled,
            tracker: parts.tracker,
            capacity: parts.capacity,
        }
    }
}

/// Restored state for [`SlidingSketch::from_parts`]; every field is
/// validated by the snapshot loader before assembly.
pub(crate) struct WindowParts {
    pub(crate) params: SketchParams,
    pub(crate) seed: u64,
    pub(crate) epoch_len: usize,
    pub(crate) window_epochs: usize,
    pub(crate) completed: VecDeque<CountSketch>,
    pub(crate) current: CountSketch,
    pub(crate) window: CountSketch,
    pub(crate) filled: usize,
    pub(crate) tracker: TopKTracker,
    pub(crate) capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        #[test]
        fn prop_observe_matches_add_then_estimate(
            ids in proptest::prop::collection::vec(0u64..40, 0..500),
            buckets in 1usize..48,
            epoch_len in 1usize..60,
            window_epochs in 1usize..4,
            k in 1usize..8,
        ) {
            let params = SketchParams::new(3, buckets);
            let mut s = SlidingSketch::new(params, 4, epoch_len, window_epochs, k);
            // Reference: the same window driven through separate ADD and
            // ESTIMATE calls on the window sketch.
            let mut r = SlidingSketch::new(params, 4, epoch_len, window_epochs, k);
            for &id in &ids {
                let key = ItemKey(id);
                s.observe(key);
                r.current.add(key);
                r.window.add(key);
                r.filled += 1;
                if !r.tracker.increment(key) {
                    let est = r.window.estimate(key);
                    r.tracker.offer(key, est);
                }
                if r.filled == r.epoch_len {
                    r.roll_epoch();
                }
            }
            proptest::prop_assert_eq!(s.top_k(), r.top_k());
            proptest::prop_assert_eq!(s.to_snapshot_bytes(), r.to_snapshot_bytes());
        }
    }

    fn feed(s: &mut SlidingSketch, key: u64, times: usize) {
        for _ in 0..times {
            s.observe(ItemKey(key));
        }
    }

    #[test]
    fn window_sums_recent_epochs_only() {
        // epoch 100, window 3 epochs: after 5 epochs, only the last 3
        // (incl. partial) remain.
        let mut s = SlidingSketch::new(SketchParams::new(5, 64), 1, 100, 3, 5);
        feed(&mut s, 7, 100); // epoch 1: all item 7 — will expire
        feed(&mut s, 8, 100); // epoch 2
        feed(&mut s, 8, 100); // epoch 3
        feed(&mut s, 8, 100); // epoch 4
        feed(&mut s, 9, 50); // partial epoch 5
                             // Window = epochs {3, 4} + partial: item 7 fully expired.
        assert_eq!(s.estimate(ItemKey(7)), 0);
        assert_eq!(s.estimate(ItemKey(8)), 200);
        assert_eq!(s.estimate(ItemKey(9)), 50);
    }

    #[test]
    fn expired_heavy_item_leaves_top_k() {
        let mut s = SlidingSketch::new(SketchParams::new(5, 256), 2, 1000, 2, 3);
        // Old star: dominates the first epoch.
        feed(&mut s, 1, 1000);
        // New items dominate later epochs.
        for _ in 0..2 {
            feed(&mut s, 2, 600);
            feed(&mut s, 3, 400);
        }
        let top: Vec<u64> = s.top_k().iter().map(|&(k, _)| k.raw()).collect();
        assert!(top.contains(&2));
        assert!(top.contains(&3));
        assert!(
            !top.contains(&1),
            "expired item must leave the top-k: {top:?}"
        );
    }

    #[test]
    fn window_occurrences_tracks_coverage() {
        let mut s = SlidingSketch::new(SketchParams::new(3, 32), 0, 10, 2, 2);
        assert_eq!(s.window_occurrences(), 0);
        feed(&mut s, 1, 25);
        // 2 complete epochs → one expired, one kept (window holds 1
        // complete + partial of 5).
        assert_eq!(s.completed_epochs(), 1);
        assert_eq!(s.window_occurrences(), 15);
    }

    #[test]
    fn window_of_one_epoch_resets_each_epoch() {
        let mut s = SlidingSketch::new(SketchParams::new(3, 32), 4, 10, 1, 2);
        feed(&mut s, 5, 10); // completes epoch → immediately expires
        assert_eq!(s.estimate(ItemKey(5)), 0);
        feed(&mut s, 6, 5);
        assert_eq!(s.estimate(ItemKey(6)), 5);
    }

    #[test]
    fn estimates_match_manual_epoch_arithmetic() {
        // The window sketch must equal sum(completed) + current, which by
        // additivity equals a sketch of just the surviving occurrences.
        let params = SketchParams::new(5, 64);
        let mut s = SlidingSketch::new(params, 9, 50, 2, 3);
        for i in 0..125u64 {
            s.observe(ItemKey(i % 10));
        }
        // 2 complete epochs (one expired), 25 in the partial epoch:
        // surviving occurrences are positions 50..125.
        let mut manual = CountSketch::new(params, 9);
        for i in 50..125u64 {
            manual.add(ItemKey(i % 10));
        }
        for id in 0..10u64 {
            assert_eq!(
                s.estimate(ItemKey(id)),
                manual.estimate(ItemKey(id)),
                "id {id}"
            );
        }
    }

    #[test]
    fn top_k_sorted_desc() {
        let mut s = SlidingSketch::new(SketchParams::new(5, 128), 3, 1000, 4, 4);
        feed(&mut s, 1, 300);
        feed(&mut s, 2, 200);
        feed(&mut s, 3, 100);
        let top = s.top_k();
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(top[0].0, ItemKey(1));
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_rejected() {
        SlidingSketch::new(SketchParams::new(1, 1), 0, 0, 1, 1);
    }

    #[test]
    fn space_scales_with_window_epochs() {
        let small = SlidingSketch::new(SketchParams::new(3, 64), 0, 10, 2, 2);
        let mut large = SlidingSketch::new(SketchParams::new(3, 64), 0, 10, 8, 2);
        for i in 0..60u64 {
            large.observe(ItemKey(i));
        }
        assert!(large.space_bytes() > small.space_bytes());
    }
}
