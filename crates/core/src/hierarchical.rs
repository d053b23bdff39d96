//! Extension: hierarchical Count-Sketch — heavy-hitter recovery *from
//! the sketch alone*, with no second pass.
//!
//! The paper's algorithms identify candidates by streaming: APPROXTOP
//! re-estimates arriving items, and the §4.2 max-change algorithm makes
//! a second pass over `S1` and `S2` to find the items with large
//! `|n̂_q|`. When the streams cannot be replayed (they were sketched on
//! another machine and only the sketch was shipped — precisely the
//! §4.2 deployment), recovery must come from the sketch itself.
//!
//! The standard fix (dyadic decomposition, as in Cormode–Muthukrishnan's
//! hierarchical search and the group-testing structures of Gilbert et
//! al. \[9\]) is one Count-Sketch per *prefix level* of the key space:
//! level `ℓ` sketches the `2^ℓ` length-`ℓ` key prefixes. An item update
//! touches one node per level; a query walks the prefix tree from the
//! root, descending into a child only when its estimated weight clears
//! the threshold — `O(bits · candidates)` sketch probes instead of a
//! stream pass.
//!
//! **Signed streams and cancellation.** A difference stream `S2 − S1`
//! carries positive and negative mass, and opposite-signed items under
//! one prefix cancel in a single hierarchy — a +600 trender can hide a
//! −800 vanisher in the same subtree. To keep descent sound we maintain
//! *two* hierarchies, one for positive updates and one for (absolute)
//! negative updates: the descent criterion `pos + neg ≥ threshold` never
//! cancels, so no item with `|Δ| ≥ threshold` is pruned (up to sketch
//! error); the leaf estimate is `pos − neg`, the signed change. Cost:
//! 2× the counters — the price of removing the second pass.

use crate::params::SketchParams;
use crate::sketch::CountSketch;
use cs_hash::ItemKey;
use cs_stream::Stream;

/// A recovered heavy item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyItem {
    /// The full key.
    pub key: ItemKey,
    /// The leaf-level estimate of its signed weight.
    pub estimate: i64,
}

/// A dyadic hierarchy of Count-Sketch pairs over the key space
/// `[0, 2^bits)`.
///
/// ```
/// use cs_core::hierarchical::HierarchicalCountSketch;
/// use cs_core::SketchParams;
/// use cs_hash::ItemKey;
///
/// let mut h = HierarchicalCountSketch::new(16, SketchParams::new(5, 256), 1);
/// h.update(ItemKey(4242), 900);    // a trender
/// h.update(ItemKey(999), -700);    // a vanisher
/// // Recover both from the sketch alone — no stream replay.
/// let heavy = h.heavy_items(500, 10);
/// assert_eq!(heavy[0].key, ItemKey(4242));
/// assert_eq!(heavy[1].key, ItemKey(999));
/// assert!(heavy[1].estimate < 0);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalCountSketch {
    bits: u32,
    /// `pos[ℓ]` sketches positive mass of length-`ℓ+1` prefixes.
    pos: Vec<CountSketch>,
    /// `neg[ℓ]` sketches absolute negative mass.
    neg: Vec<CountSketch>,
    /// Signed total weight (the root node, exact).
    total: i64,
}

impl HierarchicalCountSketch {
    /// Creates the hierarchy for keys in `[0, 2^bits)`, each level a
    /// pair of `params`-sized sketches. Typical use:
    /// `bits = ⌈log₂(universe)⌉`.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or exceeds 63.
    pub fn new(bits: u32, params: SketchParams, seed: u64) -> Self {
        assert!((1..=63).contains(&bits), "bits must be in [1, 63]");
        // Positive and negative sketches at the same level share hash
        // functions (same derived seed) so their difference estimates
        // the signed weight of a prefix consistently.
        let level_seed = |level: u32| seed ^ 0x1E7E_1000u64.wrapping_add(level as u64);
        let pos = (0..bits)
            .map(|l| CountSketch::new(params, level_seed(l)))
            .collect();
        let neg = (0..bits)
            .map(|l| CountSketch::new(params, level_seed(l)))
            .collect();
        Self {
            bits,
            pos,
            neg,
            total: 0,
        }
    }

    /// Key-space width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Adds `weight` occurrences of `key` (negative for deletions /
    /// first-stream absorption).
    ///
    /// # Panics
    /// Panics if the key is outside `[0, 2^bits)`.
    pub fn update(&mut self, key: ItemKey, weight: i64) {
        let k = key.raw();
        assert!(
            self.bits == 63 || k < (1u64 << self.bits),
            "key {k} outside [0, 2^{})",
            self.bits
        );
        self.total += weight;
        let (side, magnitude) = if weight >= 0 {
            (&mut self.pos, weight)
        } else {
            (&mut self.neg, -weight)
        };
        for level in 0..self.bits {
            let prefix = k >> (self.bits - 1 - level);
            side[level as usize].update(ItemKey(prefix), magnitude);
        }
    }

    /// Absorbs a whole stream with the given weight per occurrence.
    pub fn absorb(&mut self, stream: &Stream, weight: i64) {
        for key in stream.iter() {
            self.update(key, weight);
        }
    }

    /// Merges another hierarchy built with the same `(bits, params,
    /// seed)`.
    pub fn merge(&mut self, other: &Self) -> Result<(), crate::error::CoreError> {
        if self.bits != other.bits {
            return Err(crate::error::CoreError::InvalidParameter(format!(
                "bits mismatch: {} vs {}",
                self.bits, other.bits
            )));
        }
        for (a, b) in self.pos.iter_mut().zip(&other.pos) {
            a.merge(b)?;
        }
        for (a, b) in self.neg.iter_mut().zip(&other.neg) {
            a.merge(b)?;
        }
        self.total += other.total;
        Ok(())
    }

    /// The signed mass estimate of a prefix at a level, and the
    /// non-cancelling descent mass `pos + neg` (both clamped at 0).
    fn probe(&self, level: u32, prefix: u64) -> (i64, u64) {
        let p = self.pos[level as usize].estimate(ItemKey(prefix)).max(0);
        let n = self.neg[level as usize].estimate(ItemKey(prefix)).max(0);
        (p - n, p as u64 + n as u64)
    }

    /// The leaf-level signed point estimate for a full key.
    pub fn estimate(&self, key: ItemKey) -> i64 {
        self.probe(self.bits - 1, key.raw()).0
    }

    /// Recovers all keys whose |signed weight estimate| is at least
    /// `threshold`, by descending the prefix tree. Descent prunes on the
    /// *non-cancelling* mass `pos + neg ≥ threshold` (so a heavy change
    /// can never be masked by an opposite change in the same subtree),
    /// and leaves are filtered by the signed estimate — an item whose
    /// inserts and deletes cancel is touched-heavy but not reported.
    /// `max_results` bounds the output (and, together with `threshold`,
    /// the work).
    ///
    /// Results are sorted by |signed estimate| descending (ties: key
    /// ascending).
    pub fn heavy_items(&self, threshold: i64, max_results: usize) -> Vec<HeavyItem> {
        assert!(threshold > 0, "threshold must be positive");
        let mut out: Vec<HeavyItem> = Vec::new();
        let mut frontier: Vec<u64> = vec![0, 1];
        for level in 0..self.bits {
            let mut next = Vec::new();
            for &prefix in &frontier {
                let (signed, mass) = self.probe(level, prefix);
                if mass < threshold as u64 {
                    continue;
                }
                if level == self.bits - 1 {
                    if signed.unsigned_abs() >= threshold as u64 {
                        out.push(HeavyItem {
                            key: ItemKey(prefix),
                            estimate: signed,
                        });
                    }
                } else {
                    next.push(prefix << 1);
                    next.push((prefix << 1) | 1);
                }
            }
            // Work cap: keep the strongest prefixes if the frontier
            // explodes (threshold set below the noise floor).
            let cap = 4 * max_results.max(1);
            if next.len() > 2 * cap {
                let lvl = (level + 1).min(self.bits - 1);
                next.sort_by_key(|&p| std::cmp::Reverse(self.probe(lvl, p).1));
                next.truncate(2 * cap);
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out.sort_by(|a, b| {
            b.estimate
                .unsigned_abs()
                .cmp(&a.estimate.unsigned_abs())
                .then(a.key.cmp(&b.key))
        });
        out.truncate(max_results);
        out
    }

    /// Total signed stream weight (exact).
    pub fn total_weight(&self) -> i64 {
        self.total
    }

    /// Counter + hash bytes across all levels (both sign sides).
    pub fn space_bytes(&self) -> usize {
        self.pos.iter().map(|s| s.space_bytes()).sum::<usize>()
            + self.neg.iter().map(|s| s.space_bytes()).sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_stream::{Zipf, ZipfStreamKind};

    fn hierarchy(bits: u32) -> HierarchicalCountSketch {
        HierarchicalCountSketch::new(bits, SketchParams::new(5, 256), 42)
    }

    #[test]
    fn recovers_single_heavy_item() {
        let mut h = hierarchy(16);
        h.update(ItemKey(12345), 1000);
        for i in 0..200u64 {
            h.update(ItemKey(i), 1);
        }
        let heavy = h.heavy_items(500, 10);
        assert_eq!(heavy.len(), 1);
        assert_eq!(heavy[0].key, ItemKey(12345));
        assert!((heavy[0].estimate - 1000).abs() <= 50);
    }

    #[test]
    fn recovers_multiple_heavy_items_sorted() {
        let mut h = hierarchy(16);
        h.update(ItemKey(100), 900);
        h.update(ItemKey(20_000), 700);
        h.update(ItemKey(65_535), 500);
        for i in 1000..1400u64 {
            h.update(ItemKey(i), 1);
        }
        let heavy = h.heavy_items(300, 10);
        let keys: Vec<u64> = heavy.iter().map(|x| x.key.raw()).collect();
        assert_eq!(keys, vec![100, 20_000, 65_535]);
    }

    #[test]
    fn negative_weights_recovered_by_magnitude() {
        // The §4.2 use case: a difference stream with a vanishing item.
        // Keys 7 and 9 share high-level prefixes, so a single signed
        // hierarchy would cancel them (-800 + 600 = -200 < threshold);
        // the pos/neg split must still find both.
        let mut h = hierarchy(12);
        h.update(ItemKey(7), -800);
        h.update(ItemKey(9), 600);
        let heavy = h.heavy_items(400, 10);
        assert_eq!(heavy.len(), 2);
        assert_eq!(heavy[0].key, ItemKey(7));
        assert!(heavy[0].estimate < 0);
        assert_eq!(heavy[1].key, ItemKey(9));
        assert!(heavy[1].estimate > 0);
    }

    #[test]
    fn one_pass_max_change_from_sketches_only() {
        // Absorb S1 with -1 and S2 with +1; recover the planted change
        // without ever re-reading the streams.
        let zipf = Zipf::new(2_000, 1.0);
        let s1 = zipf.stream(20_000, 1, ZipfStreamKind::Sampled);
        let s2 = zipf.stream(20_000, 2, ZipfStreamKind::Sampled);
        let mut h = HierarchicalCountSketch::new(16, SketchParams::new(7, 1024), 9);
        h.absorb(&s1, -1);
        h.absorb(&s2, 1);
        // Plant a trender; its mass must dominate pos+neg of the
        // background prefixes (each background prefix holds ~2n/2^ℓ
        // touched mass at level ℓ, so the threshold must clear the
        // level-1 mass of ~20k per child... we instead ask only for the
        // top result, which the cap-and-sort path handles).
        h.update(ItemKey(60_000), 8_000);
        let heavy = h.heavy_items(6_000, 5);
        assert!(
            heavy.iter().any(|x| x.key == ItemKey(60_000)),
            "planted trender missing from {heavy:?}"
        );
    }

    #[test]
    fn merge_combines_hierarchies() {
        let mut a = hierarchy(10);
        let mut b = hierarchy(10);
        a.update(ItemKey(5), 400);
        b.update(ItemKey(5), 400);
        b.update(ItemKey(6), 100);
        a.merge(&b).unwrap();
        assert_eq!(a.total_weight(), 900);
        let heavy = a.heavy_items(500, 5);
        assert_eq!(heavy[0].key, ItemKey(5));
        assert!((heavy[0].estimate - 800).abs() <= 20);
    }

    #[test]
    fn merge_rejects_bits_mismatch() {
        let mut a = hierarchy(10);
        let b = hierarchy(12);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn empty_hierarchy_reports_nothing() {
        let h = hierarchy(8);
        assert!(h.heavy_items(1, 10).is_empty());
        assert_eq!(h.total_weight(), 0);
    }

    #[test]
    fn cancelled_item_not_reported() {
        // Equal positive and negative mass on the SAME key: descent may
        // reach the leaf (mass = 1000) but the signed estimate is 0, so
        // it must not be reported.
        let mut h = hierarchy(8);
        h.update(ItemKey(3), 500);
        h.update(ItemKey(3), -500);
        assert!(h.heavy_items(100, 10).is_empty());
        assert_eq!(h.estimate(ItemKey(3)), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn key_out_of_range_rejected() {
        hierarchy(8).update(ItemKey(256), 1);
    }

    #[test]
    fn max_results_caps_output() {
        let mut h = hierarchy(10);
        for i in 0..20u64 {
            h.update(ItemKey(i * 37), 1000);
        }
        let heavy = h.heavy_items(500, 5);
        assert_eq!(heavy.len(), 5);
    }

    #[test]
    fn leaf_estimate_matches_update() {
        let mut h = hierarchy(12);
        h.update(ItemKey(77), 123);
        assert_eq!(h.estimate(ItemKey(77)), 123);
        h.update(ItemKey(77), -23);
        assert_eq!(h.estimate(ItemKey(77)), 100);
    }

    #[test]
    fn space_scales_with_bits() {
        assert!(hierarchy(16).space_bytes() > hierarchy(8).space_bytes());
    }

    #[test]
    fn rebuild_from_seed_is_deterministic() {
        // All state is (params, seed) + the applied updates: replaying
        // the updates into a fresh instance reproduces the structure,
        // which is what the distributed/persistence paths rely on.
        let mut h = hierarchy(8);
        h.update(ItemKey(9), 300);
        let mut again = hierarchy(8);
        again.update(ItemKey(9), 300);
        assert_eq!(again.heavy_items(100, 5), h.heavy_items(100, 5));
    }
}
