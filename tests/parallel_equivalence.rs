//! Property tests of the parallel ingestion pipeline: pool and
//! sequential ingestion must agree on counters and saturation flags —
//! including under adversarial weights at the `i64` limits and across
//! mid-stream snapshot/restore.
//!
//! The determinism contract under saturation is layered (see
//! `cs_core::parallel`): bounded-mass streams are fully bit-identical at
//! every worker count; for adversarial streams every *unflagged* cell
//! must hold the exact signed sum (checked against an `i128` oracle).

use frequent_items::prelude::*;
use frequent_items::sketch::parallel::sketch_stream_pooled;
use proptest::prelude::*;

/// Counters and saturation flags both agree.
fn assert_identical(a: &CountSketch, b: &CountSketch, ctx: &str) {
    assert_eq!(a.counters(), b.counters(), "{ctx}: counters diverge");
    for row in 0..a.rows() {
        for bucket in 0..a.buckets() {
            assert_eq!(
                a.is_cell_saturated(row, bucket),
                b.is_cell_saturated(row, bucket),
                "{ctx}: flag diverges at ({row}, {bucket})"
            );
        }
    }
}

/// Exact `i128` per-cell sums for a list of signed updates, laid out
/// like the sketch's row-major counters.
fn i128_oracle(template: &CountSketch, updates: &[(ItemKey, i64)]) -> Vec<i128> {
    let mut cells = vec![0i128; template.rows() * template.buckets()];
    for &(key, w) in updates {
        for (row, (bucket, sign)) in template.row_cells(key).enumerate() {
            cells[row * template.buckets() + bucket] += i128::from(sign) * i128::from(w);
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Healthy regime: pool ingestion is bit-identical to sequential —
    /// counters AND flags — at every worker count, for weighted streams.
    #[test]
    fn prop_pool_matches_sequential_weighted(
        seed: u64,
        weight in -1000i64..1000,
        ids in prop::collection::vec(0u64..200, 0..600),
    ) {
        let params = SketchParams::new(3, 64);
        let stream = Stream::from_ids(ids.iter().copied());
        let mut sequential = CountSketch::new(params, seed);
        sequential.absorb(&stream, weight);
        for workers in [1usize, 2, 4, 8] {
            let mut pool = SketchPool::new(params, seed, workers);
            pool.ingest_weighted(stream.as_slice(), weight);
            assert_identical(&pool.finish(), &sequential, &format!("workers = {workers}"));
        }
    }

    /// Healthy regime, turnstile: signed per-item deltas agree too.
    #[test]
    fn prop_pool_matches_sequential_turnstile(
        seed: u64,
        events in prop::collection::vec((0u64..100, -500i64..500), 0..400),
    ) {
        use frequent_items::stream::turnstile::{TurnstileStream, Update};
        let updates: Vec<Update> = events
            .iter()
            .map(|&(id, delta)| Update { key: ItemKey(id), delta })
            .collect();
        let turnstile = TurnstileStream::from_updates(updates.clone());
        let params = SketchParams::new(3, 32);
        let mut sequential = CountSketch::new(params, seed);
        sequential.absorb_turnstile(&turnstile);
        for workers in [1usize, 2, 4, 8] {
            let mut pool = SketchPool::new(params, seed, workers);
            pool.ingest_updates(&updates);
            assert_identical(&pool.finish(), &sequential, &format!("workers = {workers}"));
        }
    }

    /// Adversarial weights (up to ±i64::MAX): both paths — pool at
    /// several worker counts, and sequential — must keep all unflagged cells exactly equal to the i128 oracle
    /// (no silent wraparound, ever), and each path must be reproducible.
    #[test]
    fn prop_unflagged_cells_are_exact_under_adversarial_weights(
        seed: u64,
        events in prop::collection::vec((0u64..8, 0u8..5, any::<i64>()), 0..40),
    ) {
        let params = SketchParams::new(3, 16);
        // Selector-driven weights: the extreme points of the i64 range
        // mixed with arbitrary and small weights.
        let updates: Vec<(ItemKey, i64)> = events
            .iter()
            .map(|&(id, sel, raw)| {
                let w = match sel {
                    0 => i64::MAX,
                    1 => i64::MIN + 1,
                    2 => -i64::MAX,
                    3 => raw,
                    _ => raw % 1000,
                };
                (ItemKey(id), w)
            })
            .collect();
        let template = CountSketch::new(params, seed);
        let oracle = i128_oracle(&template, &updates);

        let check = |sketch: &CountSketch, ctx: &str| {
            for row in 0..sketch.rows() {
                for bucket in 0..sketch.buckets() {
                    if !sketch.is_cell_saturated(row, bucket) {
                        let idx = row * sketch.buckets() + bucket;
                        assert_eq!(
                            i128::from(sketch.counters()[idx]),
                            oracle[idx],
                            "{ctx}: unflagged cell ({row}, {bucket}) is not the exact sum"
                        );
                    }
                }
            }
        };

        let mut sequential = CountSketch::new(params, seed);
        for &(key, w) in &updates {
            sequential.update(key, w);
        }
        check(&sequential, "sequential");

        for workers in [2usize, 4] {
            let mut pool = SketchPool::new(params, seed, workers);
            for &(key, w) in &updates {
                pool.ingest_weighted(&[key], w);
            }
            let merged = pool.finish();
            check(&merged, &format!("pool workers = {workers}"));
            // Reproducible: same inputs, same worker count, same bits.
            let mut again = SketchPool::new(params, seed, workers);
            for &(key, w) in &updates {
                again.ingest_weighted(&[key], w);
            }
            assert_identical(&again.finish(), &merged, "pool rerun");
        }
    }

    /// Mid-stream snapshot/restore commutes with pooled ingestion: pool
    /// the prefix, snapshot-roundtrip the merged sketch, pool the suffix
    /// into a fresh pool and merge — bit-identical to pooling the whole
    /// stream, at any worker count and any cut point.
    #[test]
    fn prop_pool_snapshot_restore_midstream(
        seed: u64,
        workers in 1usize..5,
        cut_frac in 0.0f64..1.0,
        ids in prop::collection::vec(0u64..100, 0..500),
    ) {
        let params = SketchParams::new(3, 32);
        let stream = Stream::from_ids(ids.iter().copied());
        let cut = (stream.len() as f64 * cut_frac) as usize;

        let mut first = SketchPool::new(params, seed, workers);
        first.ingest(&stream.as_slice()[..cut]);
        let bytes = first.finish().to_snapshot_bytes();
        let mut restored = CountSketch::from_snapshot_bytes(&bytes).unwrap();

        let mut second = SketchPool::new(params, seed, workers);
        second.ingest(&stream.as_slice()[cut..]);
        restored.merge(&second.finish()).unwrap();

        let whole = sketch_stream_pooled(&stream, params, seed, workers);
        assert_identical(&restored, &whole, "snapshot/restore mid-stream");
    }
}

#[test]
fn pool_single_key_saturation_matches_sequential_at_any_worker_count() {
    // Key-hash sharding keeps all of a key's mass on one worker, so even
    // a saturating key reproduces sequential clamp-and-flag states.
    let params = SketchParams::new(3, 32);
    let key = ItemKey(123);
    let mut sequential = CountSketch::new(params, 7);
    for _ in 0..4 {
        sequential.update(key, i64::MAX);
    }
    assert!(sequential.health().saturated_cells > 0);
    for workers in [1usize, 2, 4, 8] {
        let mut pool = SketchPool::new(params, 7, workers);
        for _ in 0..4 {
            pool.ingest_weighted(&[key], i64::MAX);
        }
        assert_identical(
            &pool.finish(),
            &sequential,
            &format!("saturating key, workers = {workers}"),
        );
    }
}
