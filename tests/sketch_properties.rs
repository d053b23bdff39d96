//! Property-based integration tests of the core sketch invariants,
//! exercised through the public facade.

use frequent_items::prelude::*;
use frequent_items::sketch::parallel::sketch_stream_pooled;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Additivity (§3.2): sketch(S1 ++ S2) == sketch(S1) + sketch(S2).
    #[test]
    fn merge_equals_concatenation(
        seed: u64,
        ids1 in prop::collection::vec(0u64..100, 0..300),
        ids2 in prop::collection::vec(0u64..100, 0..300),
    ) {
        let params = SketchParams::new(3, 64);
        let s1 = Stream::from_ids(ids1.iter().copied());
        let s2 = Stream::from_ids(ids2.iter().copied());

        let mut merged = CountSketch::new(params, seed);
        merged.absorb(&s1, 1);
        let mut other = CountSketch::new(params, seed);
        other.absorb(&s2, 1);
        merged.merge(&other).unwrap();

        let mut whole = CountSketch::new(params, seed);
        whole.absorb(&s1, 1);
        whole.absorb(&s2, 1);
        prop_assert_eq!(merged.counters(), whole.counters());
    }

    /// Subtracting a stream's own sketch zeroes everything (turnstile).
    #[test]
    fn self_subtraction_is_zero(
        seed: u64,
        ids in prop::collection::vec(0u64..50, 0..200),
    ) {
        let params = SketchParams::new(3, 32);
        let stream = Stream::from_ids(ids.iter().copied());
        let mut a = CountSketch::new(params, seed);
        a.absorb(&stream, 1);
        let b = a.clone();
        a.subtract(&b).unwrap();
        prop_assert!(a.counters().iter().all(|&c| c == 0));
    }

    /// Weighted absorb(-1) inverts absorb(+1).
    #[test]
    fn negative_weight_inverts(
        seed: u64,
        ids in prop::collection::vec(0u64..50, 0..200),
    ) {
        let stream = Stream::from_ids(ids.iter().copied());
        let mut s = CountSketch::new(SketchParams::new(3, 32), seed);
        s.absorb(&stream, 1);
        s.absorb(&stream, -1);
        prop_assert!(s.counters().iter().all(|&c| c == 0));
    }

    /// Parallel sketching is bit-identical to sequential for any thread
    /// count.
    #[test]
    fn parallel_equals_sequential(
        seed: u64,
        threads in 1usize..6,
        ids in prop::collection::vec(0u64..200, 0..500),
    ) {
        let params = SketchParams::new(3, 64);
        let stream = Stream::from_ids(ids.iter().copied());
        let par = sketch_stream_pooled(&stream, params, seed, threads);
        let mut seq = CountSketch::new(params, seed);
        seq.absorb(&stream, 1);
        prop_assert_eq!(par.counters(), seq.counters());
    }

    /// Snapshot round-trips preserve every counter and every estimate.
    #[test]
    fn snapshot_preserves_sketch(
        seed: u64,
        ids in prop::collection::vec(0u64..50, 0..150),
    ) {
        let mut s = CountSketch::new(SketchParams::new(3, 32), seed);
        s.absorb(&Stream::from_ids(ids.iter().copied()), 1);
        let back = CountSketch::from_snapshot_bytes(&s.to_snapshot_bytes()).unwrap();
        prop_assert_eq!(s.counters(), back.counters());
        for id in 0..50u64 {
            prop_assert_eq!(s.estimate(ItemKey(id)), back.estimate(ItemKey(id)));
        }
    }

    /// A single heavy item with no competition is estimated exactly, for
    /// any dimensions.
    #[test]
    fn lone_item_estimated_exactly(
        seed: u64,
        t in 1usize..8,
        b in 1usize..64,
        count in 1i64..500,
    ) {
        let mut s = CountSketch::new(SketchParams::new(t, b), seed);
        s.update(ItemKey(7), count);
        prop_assert_eq!(s.estimate(ItemKey(7)), count);
    }

    /// The wire format round-trips any stream.
    #[test]
    fn stream_io_roundtrip(ids in prop::collection::vec(any::<u64>(), 0..300)) {
        use frequent_items::stream::io;
        let stream = Stream::from_ids(ids.iter().copied());
        let bytes = io::encode(&stream);
        prop_assert_eq!(io::decode(&bytes).unwrap(), stream);
    }

    /// Linearity ⇒ order invariance: any permutation of the stream
    /// produces bit-identical counters (the heap algorithm is order
    /// sensitive; the sketch itself must never be).
    #[test]
    fn prop_sketch_is_order_invariant(
        seed: u64,
        mut ids in prop::collection::vec(0u64..40, 0..200),
    ) {
        let params = SketchParams::new(3, 32);
        let mut forward = CountSketch::new(params, seed);
        forward.absorb(&Stream::from_ids(ids.iter().copied()), 1);
        ids.reverse();
        let mut backward = CountSketch::new(params, seed);
        backward.absorb(&Stream::from_ids(ids.iter().copied()), 1);
        prop_assert_eq!(forward.counters(), backward.counters());
    }
}

#[test]
fn estimate_error_bounded_by_stream_l1() {
    // Trivial sanity: |estimate| can never exceed the stream length.
    let zipf = Zipf::new(500, 1.0);
    let stream = zipf.stream(10_000, 5, ZipfStreamKind::Sampled);
    let mut s = CountSketch::new(SketchParams::new(5, 128), 3);
    s.absorb(&stream, 1);
    for id in 0..500u64 {
        assert!(s.estimate(ItemKey(id)).unsigned_abs() <= 10_000);
    }
}
