//! The common interface all frequent-items algorithms implement.

use cs_hash::ItemKey;
use cs_stream::Stream;

/// A one-pass stream summary that can report candidate frequent items.
///
/// ```
/// use cs_baselines::{SpaceSaving, StreamSummary};
/// use cs_stream::Stream;
///
/// let mut alg = SpaceSaving::new(4);
/// alg.process_stream(&Stream::from_ids([1, 1, 1, 2, 2, 3]));
/// assert_eq!(alg.top_k_keys(1)[0].raw(), 1);
/// assert!(alg.estimate(cs_hash::ItemKey(1)).unwrap() >= 3);
/// ```
///
/// Semantics shared by all implementations:
///
/// * [`StreamSummary::process`] consumes one occurrence;
/// * [`StreamSummary::estimate`] returns the algorithm's estimate of an
///   item's count, or `None` if the algorithm retains no information
///   about the item (counter-based algorithms drop items; sketches answer
///   for everything);
/// * [`StreamSummary::candidates`] returns the retained items ordered by
///   estimated count (non-increasing, ties by key) — a
///   CANDIDATETOP-style answer is its prefix;
/// * [`StreamSummary::space_bytes`] is the *current* memory footprint,
///   the quantity Table 1 compares.
pub trait StreamSummary {
    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Consumes one stream occurrence.
    fn process(&mut self, key: ItemKey);

    /// The algorithm's estimate of `key`'s count, if it retains any.
    fn estimate(&self, key: ItemKey) -> Option<u64>;

    /// Retained items by estimated count, non-increasing (ties: key asc).
    fn candidates(&self) -> Vec<(ItemKey, u64)>;

    /// Current memory footprint in bytes.
    fn space_bytes(&self) -> usize;

    /// Consumes a block of occurrences. The default forwards to
    /// [`StreamSummary::process`] per key; implementations with a
    /// cheaper bulk path override this, and the throughput harness feeds
    /// every algorithm through it so such paths are exercised end-to-end.
    fn process_batch(&mut self, keys: &[ItemKey]) {
        for &key in keys {
            self.process(key);
        }
    }

    /// Convenience: consumes a whole stream via
    /// [`StreamSummary::process_batch`].
    fn process_stream(&mut self, stream: &Stream) {
        self.process_batch(stream.as_slice());
    }

    /// Convenience: the top `k` candidates' keys.
    fn top_k_keys(&self, k: usize) -> Vec<ItemKey> {
        self.candidates()
            .into_iter()
            .take(k)
            .map(|(key, _)| key)
            .collect()
    }
}

/// Sorts `(key, count)` pairs into the canonical candidate order:
/// count non-increasing, then key ascending.
pub fn sort_candidates(v: &mut [(ItemKey, u64)]) {
    v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Exact(std::collections::HashMap<ItemKey, u64>);
    impl StreamSummary for Exact {
        fn name(&self) -> &'static str {
            "exact"
        }
        fn process(&mut self, key: ItemKey) {
            *self.0.entry(key).or_insert(0) += 1;
        }
        fn estimate(&self, key: ItemKey) -> Option<u64> {
            self.0.get(&key).copied()
        }
        fn candidates(&self) -> Vec<(ItemKey, u64)> {
            let mut v: Vec<_> = self.0.iter().map(|(&k, &c)| (k, c)).collect();
            sort_candidates(&mut v);
            v
        }
        fn space_bytes(&self) -> usize {
            self.0.len() * 16
        }
    }

    #[test]
    fn process_stream_default_impl() {
        let mut e = Exact(Default::default());
        e.process_stream(&Stream::from_ids([1, 1, 2]));
        assert_eq!(e.estimate(ItemKey(1)), Some(2));
        assert_eq!(e.estimate(ItemKey(2)), Some(1));
        assert_eq!(e.estimate(ItemKey(3)), None);
    }

    #[test]
    fn process_batch_equals_per_item() {
        let keys: Vec<ItemKey> = [5u64, 5, 7, 5, 9, 7].into_iter().map(ItemKey).collect();
        let mut a = Exact(Default::default());
        let mut b = Exact(Default::default());
        for &k in &keys {
            a.process(k);
        }
        b.process_batch(&keys);
        assert_eq!(a.candidates(), b.candidates());
    }

    #[test]
    fn top_k_keys_default_impl() {
        let mut e = Exact(Default::default());
        e.process_stream(&Stream::from_ids([1, 1, 2, 3, 3, 3]));
        assert_eq!(e.top_k_keys(2), vec![ItemKey(3), ItemKey(1)]);
    }

    #[test]
    fn sort_candidates_order() {
        let mut v = vec![(ItemKey(5), 2), (ItemKey(1), 2), (ItemKey(9), 7)];
        sort_candidates(&mut v);
        assert_eq!(v, vec![(ItemKey(9), 7), (ItemKey(1), 2), (ItemKey(5), 2)]);
    }
}
