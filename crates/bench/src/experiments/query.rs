//! **Read-path query throughput** — point-estimate rates of the two
//! ESTIMATE paths in `cs_core`, sweeping the sketch depth `t`:
//!
//! * `scalar` — `CountSketch::estimate` per probe, the pre-kernel read
//!   path (one hash-and-gather pass plus a combine per call, with
//!   per-call allocation);
//! * `batch` — `estimate_batch_with_scratch`: the block kernel that
//!   hashes a whole block of probes up front, gathers counters
//!   row-major, and combines per column out of a reusable scratch.
//!
//! Each variant runs against two probe mixes over the same ingested
//! Zipf(1.0) sketch: `zipf` (probes drawn from the skewed distribution —
//! the repeat-heavy traffic a serving tier actually sees) and `uniform`
//! (probes spread evenly over the universe). Both variants run once per
//! round, interleaved, for `scale.trials` rounds. Each rate is the
//! **best** round: the minimum elapsed time is the closest observation
//! of the code's actual cost on a shared host. The batch/scalar ratio
//! (`speedup_vs_scalar`) is the **median of the per-round ratios**: the
//! two passes of one round share that round's host state, so their ratio
//! cancels a slow round, where a ratio of two best-of rates mixes rounds.
//! The harness serializes the sweep as `BENCH_query.json` (header from
//! [`bench_header`], codec in [`crate::bench_file`]); `harness
//! check-query` gates CI on it, including the ≥ 2× batch-over-scalar
//! kernel guarantee at `t = 5`.

use crate::config::Scale;
use crate::experiments::ExperimentOutput;
use cs_core::sketch::EstimateBatchScratch;
use cs_core::{CountSketch, SketchParams};
use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::stats::median;
use cs_metrics::table::fmt_num;
use cs_metrics::Table;
use cs_stream::{Zipf, ZipfStreamKind};
use std::time::Instant;

/// Buckets per row, shared by every depth (same as the throughput
/// table); the depth axis is what the sweep varies.
const BUCKETS: usize = 1024;
/// Sketch depths swept: the sorting-network sizes, which are also the
/// depths anyone actually deploys (Lemma 3 failure decay is exponential
/// in `t`).
pub const DEPTHS: [usize; 4] = [3, 5, 7, 9];
/// Cap on the probe-set length: long enough that query wall time
/// dominates setup, short enough for the full-scale harness.
const MAX_PROBES: usize = 1_000_000;

/// Probe-set length for the sweep: 4× the scale's `n`, capped.
pub fn probe_len(scale: &Scale) -> usize {
    scale.n.saturating_mul(4).min(MAX_PROBES)
}

/// One timed run of `probe`, as a rate in Mops/s.
fn time_once(n: usize, probe: impl FnOnce()) -> f64 {
    let start = Instant::now();
    probe();
    n as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Runs the query-throughput sweep.
pub fn run(scale: &Scale) -> ExperimentOutput {
    let probes = probe_len(scale);
    let zipf = Zipf::new(scale.m, 1.0);
    let ingest = zipf.stream(scale.n, 0x5eed, ZipfStreamKind::Sampled);
    let mixes = [
        ("zipf", zipf.stream(probes, 0xca11, ZipfStreamKind::Sampled)),
        (
            "uniform",
            Zipf::new(scale.m, 0.0).stream(probes, 0xca11, ZipfStreamKind::Sampled),
        ),
    ];
    let trials = scale.trials.max(1) as usize;

    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!(
            "Query throughput on a Zipf(1.0) sketch, n={}, m={}, {probes} probes \
             (Mops/s, best of {trials} interleaved rounds; batch/scalar = median \
             of the per-round ratios)",
            scale.n, scale.m
        ),
        &["mix", "t", "scalar Mops/s", "batch Mops/s", "batch/scalar"],
    );

    for &rows in &DEPTHS {
        let mut sketch = CountSketch::new(SketchParams::new(rows, BUCKETS), 1);
        sketch.absorb(&ingest, 1);
        for (mix, probe_stream) in &mixes {
            let keys = probe_stream.as_slice();

            let mut scratch = EstimateBatchScratch::new();
            let mut ests = Vec::with_capacity(keys.len());
            let (mut scalar, mut batch) = (0.0f64, 0.0f64);
            let mut ratios = Vec::with_capacity(trials);
            for _ in 0..trials {
                let s = time_once(probes, || {
                    for &key in keys {
                        std::hint::black_box(sketch.estimate(key));
                    }
                });
                let b = time_once(probes, || {
                    sketch.estimate_batch_with_scratch(keys, &mut scratch, &mut ests);
                    std::hint::black_box(&ests);
                });
                scalar = scalar.max(s);
                batch = batch.max(b);
                ratios.push(b / s);
            }
            let ratio = median(&ratios);

            table.row(&[
                (*mix).into(),
                rows.to_string(),
                fmt_num(scalar),
                fmt_num(batch),
                format!("{ratio:.2}x"),
            ]);
            for (variant, mops, speedup) in [("scalar", scalar, 1.0), ("batch", batch, ratio)] {
                let record = ExperimentRecord::new("query", format!("{variant}-{mix}"))
                    .param("n", scale.n as f64)
                    .param("m", scale.m as f64)
                    .param("probes", probes as f64)
                    .param("trials", trials as f64)
                    .param("rows", rows as f64)
                    .param("buckets", BUCKETS as f64)
                    .metric("query_mops", mops)
                    .metric("speedup_vs_scalar", speedup);
                out.records.push(record);
            }
        }
    }

    out.tables.push(table);
    out
}

/// The header fields of `BENCH_query.json` after `schema` and
/// `git_rev`: the workload and the sketch shape.
pub fn bench_header(scale: &Scale) -> Vec<(&'static str, String)> {
    vec![
        (
            "workload",
            format!(
                "{{\"distribution\": \"zipf\", \"z\": 1.0, \"n\": {}, \"m\": {}, \"probes\": {}, \"trials\": {}}}",
                scale.n,
                scale.m,
                probe_len(scale),
                scale.trials.max(1)
            ),
        ),
        (
            "sketch",
            format!("{{\"buckets\": {BUCKETS}, \"depths\": [3, 5, 7, 9]}}"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_runs_and_reports_positive_rates() {
        let out = run(&Scale::small().with_n(2_000));
        assert_eq!(out.tables.len(), 1);
        // 2 variants × 2 mixes × 4 depths.
        assert_eq!(out.records.len(), 16);
        for r in &out.records {
            assert!(
                r.metrics["query_mops"] > 0.0,
                "{} reported non-positive throughput",
                r.algorithm
            );
            assert!(r.metrics["speedup_vs_scalar"] > 0.0);
        }
        let variants: std::collections::BTreeSet<&str> =
            out.records.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(
            variants,
            [
                "scalar-zipf",
                "batch-zipf",
                "scalar-uniform",
                "batch-uniform"
            ]
            .into()
        );
    }
}
