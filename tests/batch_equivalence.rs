//! End-to-end equivalence of the bulk write paths with a per-key
//! `update` loop, across the public API surface: `absorb`,
//! `absorb_turnstile`, the worker pool, the max-change `DiffSketch`, the
//! APPROXTOP processor, and mid-stream snapshots.

use frequent_items::prelude::*;
use frequent_items::stream::turnstile::{TurnstileStream, Update};
use proptest::prelude::*;

fn zipf_stream(n: usize, seed: u64) -> Stream {
    Zipf::new(500, 1.0).stream(n, seed, ZipfStreamKind::Sampled)
}

fn scalar_sketch(stream: &Stream, params: SketchParams, seed: u64) -> CountSketch {
    let mut s = CountSketch::new(params, seed);
    for key in stream.iter() {
        s.update(key, 1);
    }
    s
}

/// Counters, saturation words and the overflow watermark all agree.
fn assert_identical(want: &CountSketch, got: &CountSketch, ctx: &str) {
    assert_eq!(want.counters(), got.counters(), "{ctx}: counters diverge");
    assert_eq!(
        want.saturated_words(),
        got.saturated_words(),
        "{ctx}: saturation words diverge"
    );
    assert_eq!(want.abs_mass(), got.abs_mass(), "{ctx}: abs_mass diverges");
}

#[test]
fn absorb_is_bit_identical_to_scalar_updates() {
    let stream = zipf_stream(20_000, 3);
    let params = SketchParams::new(5, 256);
    let seq = scalar_sketch(&stream, params, 9);
    let mut bat = CountSketch::new(params, 9);
    bat.absorb(&stream, 1);
    assert_identical(&seq, &bat, "absorb");
    for id in 0..500u64 {
        assert_eq!(seq.estimate(ItemKey(id)), bat.estimate(ItemKey(id)));
    }
}

#[test]
fn parallel_batched_workers_equal_sequential_scalar() {
    // The pool's workers apply their shard's jobs one key at a time; the
    // merged result must still match a scalar one-thread pass.
    let stream = zipf_stream(30_000, 5);
    let params = SketchParams::new(5, 512);
    let want = scalar_sketch(&stream, params, 13);
    for threads in [1usize, 2, 4, 7] {
        let got = sketch_stream_pooled(&stream, params, 13, threads);
        assert_identical(&want, &got, &format!("threads = {threads}"));
    }
}

#[test]
fn snapshot_mid_batch_resumes_identically() {
    // Update with half the stream, snapshot, restore, and finish on the
    // restored sketch — counters must equal one uninterrupted run.
    let stream = zipf_stream(10_000, 8);
    let keys = stream.as_slice();
    let params = SketchParams::new(5, 256);

    let mut first_half = CountSketch::new(params, 21);
    for &key in &keys[..5_000] {
        first_half.update(key, 1);
    }
    let bytes = first_half.to_snapshot_bytes();
    let mut restored = CountSketch::from_snapshot_bytes(&bytes).expect("snapshot roundtrip");
    for &key in &keys[5_000..] {
        restored.update(key, 1);
    }

    let uninterrupted = scalar_sketch(&stream, params, 21);
    assert_eq!(uninterrupted.counters(), restored.counters());
    for id in 0..500u64 {
        assert_eq!(
            uninterrupted.estimate(ItemKey(id)),
            restored.estimate(ItemKey(id))
        );
    }
}

#[test]
fn approx_top_batched_stream_finds_same_heavy_hitters() {
    let stream = zipf_stream(40_000, 2);
    let exact = ExactCounter::from_stream(&stream);
    let params = SketchParams::new(7, 1024);

    let mut per_item = ApproxTopProcessor::new(params, 10, 4);
    for key in stream.iter() {
        per_item.observe(key);
    }
    let mut streamed = ApproxTopProcessor::new(params, 10, 4);
    streamed.observe_stream(&stream);

    // The sketches must agree exactly; the reported sets must both cover
    // the unambiguous heavy hitters.
    assert_eq!(per_item.sketch().counters(), streamed.sketch().counters());
    let truth: Vec<ItemKey> = exact.top_k(5).into_iter().map(|(k, _)| k).collect();
    for keys in [per_item.result().keys(), streamed.result().keys()] {
        for t in &truth {
            assert!(keys.contains(t), "missing heavy hitter {t:?}");
        }
    }
}

/// Weights from the unit case to both `i64` limits: the ones near the
/// limits exhaust the watermark and send later updates down the
/// clamp-and-flag tier.
const WEIGHTS: [i64; 8] = [
    1,
    -1,
    3,
    1 << 40,
    i64::MAX - 1,
    i64::MAX,
    i64::MIN + 1,
    i64::MIN,
];

proptest! {
    /// Every bulk write path, fed the keys in two slices split at `cut`,
    /// ends bit-identical (counters, saturation words, `abs_mass`) to a
    /// per-key `update` loop — which itself matches the always-exact
    /// `update_exact` loop, so the watermark never admits a clamping
    /// update. The pool is held to this only under its documented
    /// condition that the stream's total mass fits in `i64`.
    #[test]
    fn prop_chunked_batches_equal_scalar(
        seed: u64,
        weight_idx in 0usize..8,
        raw in prop::collection::vec(0u64..64, 0..300),
        cut in 0usize..300,
    ) {
        let weight = WEIGHTS[weight_idx];
        let keys: Vec<ItemKey> = raw.into_iter().map(ItemKey).collect();
        let cut = cut.min(keys.len());
        let (head, tail) = keys.split_at(cut);
        let params = SketchParams::new(3, 32);

        let mut want = CountSketch::new(params, seed);
        let mut exact = CountSketch::new(params, seed);
        for &k in &keys {
            want.update(k, weight);
            exact.update_exact(k, weight);
        }
        assert_identical(&want, &exact, "update_exact loop");

        let mut absorbed = CountSketch::new(params, seed);
        absorbed.absorb(&Stream::from_keys(head.to_vec()), weight);
        absorbed.absorb(&Stream::from_keys(tail.to_vec()), weight);
        assert_identical(&want, &absorbed, "absorb");

        let updates = |part: &[ItemKey]| {
            let deltas = part.iter().map(|&key| Update { key, delta: weight });
            TurnstileStream::from_updates(deltas.collect())
        };
        let mut turnstile = CountSketch::new(params, seed);
        turnstile.absorb_turnstile(&updates(head));
        turnstile.absorb_turnstile(&updates(tail));
        assert_identical(&want, &turnstile, "absorb_turnstile");

        let mass = keys.len() as u128 * u128::from(weight.unsigned_abs());
        if mass <= i64::MAX as u128 {
            for workers in [1usize, 2, 4] {
                let mut pool = SketchPool::new(params, seed, workers);
                pool.ingest_weighted(head, weight);
                pool.ingest_weighted(tail, weight);
                assert_identical(&want, &pool.finish(), &format!("pool, workers = {workers}"));
            }
        }

        // Max-change pass 1: −1 per occurrence of S1, +1 per one of S2.
        let mut diff_want = CountSketch::new(params, seed);
        for &k in head {
            diff_want.update(k, -1);
        }
        for &k in tail {
            diff_want.update(k, 1);
        }
        let mut diff = DiffSketch::new(params, seed);
        diff.absorb_first(&Stream::from_keys(head.to_vec()));
        diff.absorb_second(&Stream::from_keys(tail.to_vec()));
        assert_identical(&diff_want, diff.sketch(), "DiffSketch");
    }
}
