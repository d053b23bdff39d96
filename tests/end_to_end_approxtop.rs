//! End-to-end APPROXTOP pipeline: workload generation → Lemma 5
//! dimensioning → one-pass algorithm → validity metrics. Spans
//! cs-stream, cs-core and cs-metrics through the facade crate.

use frequent_items::metrics::recall::ApproxTopValidity;
use frequent_items::metrics::{precision_at_k, recall_at_k};
use frequent_items::prelude::*;
use frequent_items::stream::moments;

fn run_pipeline(z: f64, eps: f64, seed: u64) -> (ApproxTopValidity, f64) {
    let (m, n, k) = (5_000usize, 100_000usize, 10usize);
    let zipf = Zipf::new(m, z);
    let stream = zipf.stream(n, seed, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    let nk = exact.nk(k);
    let res_f2 = moments::residual_f2(&exact, k) as f64;
    let params = SketchParams::for_approx_top(k, res_f2, nk, eps, n as u64, 0.02);
    let result = approx_top(&stream, k, params, seed ^ 0xFEED);
    let validity = ApproxTopValidity::check(&result.keys(), &exact, k, eps);
    let recall = recall_at_k(&result.keys(), &exact, k);
    (validity, recall)
}

#[test]
fn lemma5_validity_across_zipf_regimes() {
    for z in [0.75, 1.0, 1.25] {
        let (validity, _) = run_pipeline(z, 0.25, 11);
        assert!(
            validity.valid(),
            "z = {z}: light_reported={}, heavy_missing={}",
            validity.light_reported,
            validity.heavy_missing
        );
    }
}

#[test]
fn high_skew_gives_perfect_recall() {
    let (_, recall) = run_pipeline(1.5, 0.1, 3);
    assert_eq!(recall, 1.0);
}

#[test]
fn scrambled_ids_change_nothing() {
    // The sketch must not depend on item ids being small/dense: run the
    // same workload with ids mapped through a 64-bit bijection.
    let (m, n, k) = (2_000usize, 50_000usize, 8usize);
    let zipf = Zipf::new(m, 1.0);
    let stream = zipf.stream_scrambled(n, 9, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    let result = approx_top(&stream, k, SketchParams::new(7, 1024), 21);
    let recall = recall_at_k(&result.keys(), &exact, k);
    assert!(recall >= 0.8, "recall with scrambled ids = {recall}");
}

#[test]
fn precision_matches_recall_when_list_sizes_equal() {
    // |reported| == |truth| == k ⇒ precision == recall.
    let (m, n, k) = (2_000usize, 50_000usize, 10usize);
    let zipf = Zipf::new(m, 1.0);
    let stream = zipf.stream(n, 5, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    let result = approx_top(&stream, k, SketchParams::new(5, 512), 13);
    assert_eq!(result.items.len(), k);
    let r = recall_at_k(&result.keys(), &exact, k);
    let p = precision_at_k(&result.keys(), &exact, k);
    assert!((r - p).abs() < 1e-12);
}

#[test]
fn candidate_top_two_pass_beats_one_pass() {
    // The §4.1 two-pass refinement can only improve the top-k set.
    let (m, n, k) = (5_000usize, 100_000usize, 10usize);
    let zipf = Zipf::new(m, 0.8); // low skew: hard case
    let stream = zipf.stream(n, 17, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    let params = SketchParams::new(7, 2048);

    let one_pass = approx_top(&stream, k, params, 29);
    let two_pass = candidate_top_two_pass(&stream, k, 4 * k, params, 29);
    let keys_two: Vec<ItemKey> = two_pass.top_k.iter().map(|&(key, _)| key).collect();

    let r1 = recall_at_k(&one_pass.keys(), &exact, k);
    let r2 = recall_at_k(&keys_two, &exact, k);
    assert!(
        r2 >= r1,
        "two-pass recall {r2} must be >= one-pass recall {r1}"
    );
    // And two-pass counts are exact.
    for &(key, count) in &two_pass.top_k {
        assert_eq!(count, exact.count(key));
    }
}

#[test]
fn builder_pipeline_works_through_facade() {
    let stream = Stream::from_items(["x", "x", "x", "y", "y", "z"]);
    let mut p = ApproxTopProcessor::new(SketchParams::new(5, 64), 2, 4);
    p.observe_stream(&stream);
    let result = p.result();
    assert_eq!(result.items[0].0, ItemKey::of("x"));
    assert_eq!(result.items[1].0, ItemKey::of("y"));
}
