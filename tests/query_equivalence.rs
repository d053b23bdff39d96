//! End-to-end equivalence of the read-path query kernel with scalar
//! `estimate`, across the public API surface: the batched ESTIMATE
//! kernel for every combiner and depth (network and generic), extreme
//! weights up to `±i64::MAX` (saturated counters included), and block
//! boundary lengths.

use frequent_items::prelude::*;
use proptest::prelude::*;

/// Read-path block length mirrored from the kernel (`READ_BLOCK`); the
/// boundary cases below bracket it and half of it.
const BLOCK: usize = 64;

fn zipf_stream(n: usize, seed: u64) -> Stream {
    Zipf::new(500, 1.0).stream(n, seed, ZipfStreamKind::Sampled)
}

#[test]
fn batch_matches_scalar_for_all_combiners_and_depths() {
    let stream = zipf_stream(20_000, 11);
    // Depths cover every sorting network (3/5/7/9), a non-network odd
    // depth (11), even depths (4, 8), and the tall fallback (17).
    for rows in [3usize, 4, 5, 7, 8, 9, 11, 17] {
        for combiner in [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean] {
            let mut s = CountSketch::new(SketchParams::new(rows, 128), 7).with_combiner(combiner);
            s.absorb(&stream, 1);
            let keys: Vec<ItemKey> = (0..700u64).map(ItemKey).collect();
            let batch = s.estimate_batch(&keys);
            for (j, &key) in keys.iter().enumerate() {
                assert_eq!(
                    batch[j],
                    s.estimate(key),
                    "rows {rows} {combiner:?} key {key:?}"
                );
            }
        }
    }
}

#[test]
fn batch_matches_scalar_on_saturated_counters() {
    // Drive every counter a hot key touches to the clamp rails from both
    // sides: estimates then involve `±1 · i64::MIN/MAX` row products,
    // where the kernel's mask arithmetic must saturate exactly like the
    // scalar path's `saturating_mul`.
    let mut s = CountSketch::new(SketchParams::new(5, 32), 3);
    for key in 0..16u64 {
        s.update(ItemKey(key), i64::MAX);
        s.update(ItemKey(key), i64::MAX);
        s.update(ItemKey(key + 16), i64::MIN);
        s.update(ItemKey(key + 16), i64::MIN);
    }
    let keys: Vec<ItemKey> = (0..64u64).map(ItemKey).collect();
    let batch = s.estimate_batch(&keys);
    for (j, &key) in keys.iter().enumerate() {
        assert_eq!(batch[j], s.estimate(key), "saturated key {key:?}");
    }
}

proptest! {
    /// The batch kernel is bit-identical to scalar `estimate` for every
    /// combiner under arbitrary signed weights — including the
    /// `±i64::MAX` extremes that saturate counters — at probe-set
    /// lengths bracketing the kernel's block boundaries.
    #[test]
    fn prop_batch_equals_scalar(
        seed: u64,
        widx in 0usize..7,
        raw in prop::collection::vec(0u64..64, 1..120),
        lidx in 0usize..7,
        cidx in 0usize..3,
    ) {
        let weight = [1i64, -1, 1000, -1000, i64::MAX, i64::MIN + 1, i64::MAX / 2][widx];
        let len = [0usize, 1, BLOCK / 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7][lidx];
        let combiner = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean][cidx];
        let mut s = CountSketch::new(SketchParams::new(5, 32), seed).with_combiner(combiner);
        for &k in &raw {
            s.update(ItemKey(k), weight);
        }
        let keys: Vec<ItemKey> = (0..len as u64).map(ItemKey).collect();
        let batch = s.estimate_batch(&keys);
        prop_assert_eq!(batch.len(), keys.len());
        for (j, &key) in keys.iter().enumerate() {
            prop_assert_eq!(batch[j], s.estimate(key), "{:?} len {} key {:?}", combiner, len, key);
        }
    }
}
