//! Integration tests for the extension modules (iceberg, hierarchical)
//! and the stream transforms, exercised together through the facade and
//! against the exact oracle.

use frequent_items::prelude::*;
use frequent_items::sketch::hierarchical::HierarchicalCountSketch;
use frequent_items::sketch::iceberg::iceberg;
use frequent_items::stream::transforms;
use frequent_items::stream::{ChangeSpec, StreamPair};

#[test]
fn iceberg_agrees_with_exact_oracle_on_zipf() {
    let zipf = Zipf::new(1_000, 1.2);
    let stream = zipf.stream(50_000, 7, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    let phi = 0.03;
    let result = iceberg(&stream, phi, 0.005, SketchParams::new(7, 2048), 2);
    let reported: Vec<ItemKey> = result.items.iter().map(|&(k, _)| k).collect();
    for (&key, &count) in exact.counts() {
        if count as f64 >= phi * stream.len() as f64 {
            assert!(reported.contains(&key), "iceberg missed {key:?} ({count})");
        }
    }
}

#[test]
fn hierarchical_recovers_diff_heavy_hitters_from_interleaved_pair() {
    // Build a pair, interleave each stream (order must not matter),
    // absorb into a hierarchy with signs, and recover the planted
    // changes from the sketch alone.
    let pair = StreamPair::zipf_background(
        1_000,
        1.0,
        30_000,
        vec![
            ChangeSpec {
                item: 50_000,
                count_s1: 0,
                count_s2: 9_000,
            },
            ChangeSpec {
                item: 50_001,
                count_s1: 8_000,
                count_s2: 0,
            },
        ],
        5,
    );
    let s1 = transforms::interleave(&pair.s1, &Stream::new(), 1);
    let s2 = transforms::interleave(&pair.s2, &Stream::new(), 2);
    let mut h = HierarchicalCountSketch::new(16, SketchParams::new(7, 1024), 3);
    h.absorb(&s1, -1);
    h.absorb(&s2, 1);
    let heavy = h.heavy_items(4_000, 4);
    let keys: Vec<u64> = heavy.iter().map(|x| x.key.raw()).collect();
    assert!(keys.contains(&50_000), "trender missing: {keys:?}");
    assert!(keys.contains(&50_001), "vanisher missing: {keys:?}");
    // Signs must be correct.
    for item in &heavy {
        match item.key.raw() {
            50_000 => assert!(item.estimate > 0),
            50_001 => assert!(item.estimate < 0),
            _ => {}
        }
    }
}

#[test]
fn repeat_transform_scales_sketch_estimates_linearly() {
    let base = Stream::from_ids([1, 1, 1, 2]);
    let tripled = transforms::repeat(&base, 3);
    let params = SketchParams::new(5, 64);
    let mut a = CountSketch::new(params, 1);
    a.absorb(&base, 1);
    let mut b = CountSketch::new(params, 1);
    b.absorb(&tripled, 1);
    assert_eq!(b.estimate(ItemKey(1)), 3 * a.estimate(ItemKey(1)));
}
