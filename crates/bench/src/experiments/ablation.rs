//! **Ablations** — the design choices DESIGN.md calls out, each isolated
//! on the same Zipf(1.0) workload.
//!
//! 1. **Row combiner** (median vs mean vs trimmed mean): §3.1–3.2's
//!    motivation for the median. Expected: the mean's max error explodes
//!    (heavy-item collisions are outliers); median and trimmed mean stay
//!    near the `8γ` scale.
//! 2. **Sign hashes** (Count-Sketch vs Count-Min at equal `(t, b)`):
//!    what the ±1 hashes buy. Expected: on tail items Count-Min's
//!    one-sided bias dominates; the Count-Sketch is unbiased.
//! 3. **Heap policy** (paper's increment-tracked vs always-re-estimate).
//! 4. **Arrival order** (shuffled vs bursty vs temporal locality).

use crate::config::Scale;
use crate::experiments::ExperimentOutput;
use cs_baselines::{CountMinSketch, StreamSummary};
use cs_core::approx_top::{ApproxTopProcessor, HeapPolicy};
use cs_core::median::Combiner;
use cs_core::{CountSketch, SketchParams};
use cs_hash::ItemKey;
use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::recall::recall_at_k;
use cs_metrics::table::fmt_num;
use cs_metrics::{ErrorReport, Table};
use cs_stream::{ExactCounter, Stream, Zipf, ZipfStreamKind};

struct Workload {
    stream: Stream,
    exact: ExactCounter,
    top: Vec<ItemKey>,
    tail: Vec<ItemKey>,
}

fn workload(scale: &Scale) -> Workload {
    let zipf = Zipf::new(scale.m, 1.0);
    let stream = zipf.stream(scale.n, 0xAB1, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    let top: Vec<ItemKey> = (0..scale.k as u64).map(ItemKey).collect();
    let tail: Vec<ItemKey> = (0..scale.k as u64)
        .map(|i| ItemKey((scale.m as u64 / 2) + i))
        .collect();
    Workload {
        stream,
        exact,
        top,
        tail,
    }
}

/// Ablation 1: row combiner.
pub fn run_combiner(scale: &Scale, b: usize, t: usize) -> ExperimentOutput {
    let w = workload(scale);
    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!(
            "Ablation: row combiner (t={t}, b={b}, top-{} probes)",
            scale.k
        ),
        &["combiner", "max|err|", "mean|err|"],
    );
    for (name, combiner) in [
        ("median", Combiner::Median),
        ("mean", Combiner::Mean),
        ("trimmed-mean", Combiner::TrimmedMean),
    ] {
        let mut ests: Vec<(ItemKey, i64)> = Vec::new();
        for trial in 0..scale.trials {
            let mut sketch =
                CountSketch::new(SketchParams::new(t, b), 0xAB ^ trial).with_combiner(combiner);
            sketch.absorb(&w.stream, 1);
            ests.extend(w.top.iter().map(|&key| (key, sketch.estimate(key))));
        }
        let report = ErrorReport::measure(&ests, &w.exact);
        table.row(&[
            name.into(),
            fmt_num(report.max_abs),
            fmt_num(report.mean_abs),
        ]);
        out.records.push(
            ExperimentRecord::new("ablation_combiner", name)
                .param("b", b as f64)
                .param("t", t as f64)
                .metric("max_abs", report.max_abs)
                .metric("mean_abs", report.mean_abs),
        );
    }
    out.tables.push(table);
    out
}

/// Ablation 2: sign hashes (Count-Sketch) vs none (Count-Min), equal
/// `(t, b)`, probing tail items where Count-Min's bias concentrates.
pub fn run_signs(scale: &Scale, b: usize, t: usize) -> ExperimentOutput {
    let w = workload(scale);
    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!("Ablation: ±1 sign hashes, equal t={t}, b={b}; probes are tail ranks around m/2"),
        &[
            "sketch",
            "mean|err| (tail)",
            "max|err| (tail)",
            "mean signed bias",
        ],
    );
    for variant in ["count-sketch", "count-min"] {
        let mut ests: Vec<(ItemKey, i64)> = Vec::new();
        let mut bias = 0.0;
        for trial in 0..scale.trials {
            match variant {
                "count-sketch" => {
                    let mut s = CountSketch::new(SketchParams::new(t, b), 0x51 ^ trial);
                    s.absorb(&w.stream, 1);
                    for &key in &w.tail {
                        let e = s.estimate(key);
                        bias += e as f64 - w.exact.count(key) as f64;
                        ests.push((key, e));
                    }
                }
                _ => {
                    let mut s = CountMinSketch::new(t, b, scale.k, 0x51 ^ trial);
                    s.process_stream(&w.stream);
                    for &key in &w.tail {
                        let e = s.point_query(key) as i64;
                        bias += e as f64 - w.exact.count(key) as f64;
                        ests.push((key, e));
                    }
                }
            }
        }
        let report = ErrorReport::measure(&ests, &w.exact);
        let mean_bias = bias / ests.len() as f64;
        table.row(&[
            variant.into(),
            fmt_num(report.mean_abs),
            fmt_num(report.max_abs),
            fmt_num(mean_bias),
        ]);
        out.records.push(
            ExperimentRecord::new("ablation_signs", variant)
                .param("b", b as f64)
                .param("t", t as f64)
                .metric("mean_abs_tail", report.mean_abs)
                .metric("max_abs_tail", report.max_abs)
                .metric("mean_bias", mean_bias),
        );
    }
    out.tables.push(table);
    out
}

/// Ablation 3: heap maintenance policy.
pub fn run_heap_policy(scale: &Scale, b: usize, t: usize) -> ExperimentOutput {
    let w = workload(scale);
    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!("Ablation: heap policy (t={t}, b={b})"),
        &["policy", "recall@k", "mean|stored - true|"],
    );
    for (name, policy) in [
        ("increment-tracked", HeapPolicy::IncrementTracked),
        ("always-re-estimate", HeapPolicy::AlwaysReEstimate),
    ] {
        let mut recall_sum = 0.0;
        let mut errs: Vec<f64> = Vec::new();
        for trial in 0..scale.trials {
            let mut p = ApproxTopProcessor::new(SketchParams::new(t, b), scale.k, 0x4E ^ trial)
                .with_policy(policy);
            p.observe_stream(&w.stream);
            let result = p.result();
            recall_sum += recall_at_k(&result.keys(), &w.exact, scale.k);
            for &(key, stored) in &result.items {
                errs.push((stored as f64 - w.exact.count(key) as f64).abs());
            }
        }
        let recall = recall_sum / scale.trials as f64;
        let mean_err = cs_metrics::stats::mean(&errs);
        table.row(&[name.into(), format!("{recall:.3}"), fmt_num(mean_err)]);
        out.records.push(
            ExperimentRecord::new("ablation_heap", name)
                .param("b", b as f64)
                .metric("recall", recall)
                .metric("mean_stored_err", mean_err),
        );
    }
    out.tables.push(table);
    out
}

/// Ablation 4: arrival-order sensitivity. The sketch is linear (order
/// cannot matter), but the §3.2 *heap* admits items by their estimate at
/// arrival time — early arrivals of an item see a partial stream. Same
/// multiset of occurrences, three orders: i.i.d. shuffled, bursty
/// (contiguous per-item runs), and high temporal locality.
pub fn run_order(scale: &Scale, b: usize, t: usize) -> ExperimentOutput {
    use cs_stream::generators::bursty_stream;
    use cs_stream::locality::locality_stream;
    use cs_stream::Zipf;

    let zipf = Zipf::new(scale.m, 1.0);
    let counts = zipf.rounded_counts(scale.n);
    let shuffled = zipf.stream(
        scale.n,
        0x0D,
        cs_stream::ZipfStreamKind::DeterministicRounded,
    );
    let bursty = bursty_stream(&counts, 0x0D);
    let local = locality_stream(scale.m, scale.n, 1.0, 0.7, 64, 0x0D);

    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!("Ablation: arrival order (t={t}, b={b}, same Zipf(1.0) counts except locality)"),
        &["order", "recall@k"],
    );
    for (name, stream) in [
        ("shuffled", &shuffled),
        ("bursty-runs", &bursty),
        ("temporal-locality", &local),
    ] {
        let exact = ExactCounter::from_stream(stream);
        let mut recall_sum = 0.0;
        for trial in 0..scale.trials {
            let mut p = ApproxTopProcessor::new(SketchParams::new(t, b), scale.k, 0x0DD ^ trial);
            p.observe_stream(stream);
            recall_sum += recall_at_k(&p.result().keys(), &exact, scale.k);
        }
        let recall = recall_sum / scale.trials as f64;
        table.row(&[name.into(), format!("{recall:.3}")]);
        out.records.push(
            ExperimentRecord::new("ablation_order", name)
                .param("b", b as f64)
                .metric("recall", recall),
        );
    }
    out.tables.push(table);
    out
}

/// All four ablations with default dimensions.
pub fn run(scale: &Scale) -> ExperimentOutput {
    let b = 1024;
    let t = 7;
    let mut out = ExperimentOutput::default();
    for one in [
        run_combiner(scale, b, t),
        run_signs(scale, b, t),
        run_heap_policy(scale, b, t),
        run_order(scale, b, t),
    ] {
        out.tables.extend(one.tables);
        out.records.extend(one.records);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(out: &ExperimentOutput, alg: &str, m: &str) -> f64 {
        out.records
            .iter()
            .find(|r| r.algorithm == alg)
            .unwrap_or_else(|| panic!("no record for {alg}"))
            .metrics[m]
    }

    #[test]
    fn median_beats_mean_on_max_error() {
        // §3.2: the mean is sensitive to heavy-collision outliers. Use a
        // narrow sketch so collisions with the top item are common.
        let out = run_combiner(&Scale::small(), 64, 5);
        let median_max = metric(&out, "median", "max_abs");
        let mean_max = metric(&out, "mean", "max_abs");
        assert!(
            median_max <= mean_max,
            "median max err {median_max} should not exceed mean's {mean_max}"
        );
    }

    #[test]
    fn count_min_is_positively_biased_on_tail() {
        let out = run_signs(&Scale::small(), 256, 5);
        let cm_bias = metric(&out, "count-min", "mean_bias");
        let cs_bias = metric(&out, "count-sketch", "mean_bias").abs();
        assert!(
            cm_bias > 0.0,
            "Count-Min tail bias must be positive: {cm_bias}"
        );
        assert!(
            cs_bias <= cm_bias,
            "Count-Sketch |bias| {cs_bias} should be below Count-Min's {cm_bias}"
        );
    }

    #[test]
    fn both_heap_policies_work() {
        let out = run_heap_policy(&Scale::small(), 1024, 7);
        for alg in ["increment-tracked", "always-re-estimate"] {
            assert!(metric(&out, alg, "recall") >= 0.6, "{alg} recall too low");
        }
    }

    #[test]
    fn full_ablation_produces_all_tables() {
        let out = run(&Scale::small());
        assert_eq!(out.tables.len(), 4);
    }

    #[test]
    fn order_ablation_covers_three_orders() {
        let out = run_order(&Scale::small(), 512, 5);
        assert_eq!(out.records.len(), 3);
        for r in &out.records {
            assert!(
                r.metrics["recall"] >= 0.4,
                "{} recall collapsed: {}",
                r.algorithm,
                r.metrics["recall"]
            );
        }
    }
}
