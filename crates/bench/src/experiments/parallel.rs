//! **Parallel-ingestion scaling** — wall-clock ingest throughput of the
//! multi-core path in `cs_core` against the sequential reference,
//! sweeping the thread count:
//!
//! * `sequential` — `CountSketch::absorb` on one thread (the baseline
//!   every speedup is ultimately judged against);
//! * `pool` — [`cs_core::parallel::SketchPool`] via
//!   `sketch_stream_pooled`: key-hash sharded workers, each with a
//!   private sketch, merged additively at the end (§3.2 additivity).
//!
//! Every number is the **median of `scale.trials` timed runs** (fresh
//! state per run), like the throughput table. The stream is 10× the
//! scale's `n` (capped at 2M items) so per-ingest wall time dominates
//! thread startup. The harness serializes the sweep as
//! `BENCH_parallel.json` (see [`bench_json`]); `harness check-parallel`
//! gates CI on it.
//!
//! Interpreting the numbers requires knowing the host: on a single
//! hardware thread the pool *loses* to sequential (channel
//! hops and cache traffic buy nothing), which is why the JSON records
//! `host_cores` and the speedup gate only arms on hosts with ≥ 4 cores.

use crate::config::Scale;
use crate::experiments::ExperimentOutput;
use cs_core::parallel::sketch_stream_pooled;
use cs_core::{CountSketch, SketchParams};
use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::stats::median;
use cs_metrics::table::fmt_num;
use cs_metrics::Table;
use cs_stream::{Zipf, ZipfStreamKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sketch shape shared by both variants (same as the throughput table).
const ROWS: usize = 5;
const BUCKETS: usize = 1024;
/// Cap on the sweep's stream length: long enough that ingest wall time
/// dominates thread startup, short enough for the full-scale harness.
const MAX_STREAM: usize = 2_000_000;

/// Hardware threads on this host (1 when the query fails).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Stream length for the sweep: 10× the scale's `n`, capped.
pub fn stream_len(scale: &Scale) -> usize {
    scale.n.saturating_mul(10).min(MAX_STREAM)
}

/// Thread counts swept: 1, 2, 4, plus 8 on hosts that have it.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    if host_cores() >= 8 {
        counts.push(8);
    }
    counts
}

/// Median ingest rate (Mops/s) over `trials` runs of `ingest`.
fn measure(trials: usize, n: usize, mut ingest: impl FnMut()) -> f64 {
    let mut rates = Vec::with_capacity(trials);
    for _ in 0..trials {
        let start = Instant::now();
        ingest();
        rates.push(n as f64 / start.elapsed().as_secs_f64() / 1e6);
    }
    median(&rates)
}

/// Runs the scaling sweep.
pub fn run(scale: &Scale) -> ExperimentOutput {
    let n = stream_len(scale);
    let zipf = Zipf::new(scale.m, 1.0);
    let stream = zipf.stream(n, 0x5eed, ZipfStreamKind::Sampled);
    let params = SketchParams::new(ROWS, BUCKETS);
    let trials = scale.trials.max(1) as usize;
    let threads = thread_counts();
    let cores = host_cores();

    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!(
            "Parallel ingestion on Zipf(1.0), n={n}, m={}, {cores} host core(s) \
             (Mops/s, median of {trials} trials)",
            scale.m
        ),
        &["variant", "threads", "update Mops/s", "speedup vs 1 thread"],
    );

    // (variant, threads, Mops/s, speedup vs that variant's 1-thread run)
    let mut rows: Vec<(&str, usize, f64, f64)> = Vec::new();

    // Sequential reference: the plain absorb path on one thread.
    let seq = measure(trials, n, || {
        let mut s = CountSketch::new(params, 1);
        s.absorb(&stream, 1);
        std::hint::black_box(&s);
    });
    rows.push(("sequential", 1, seq, 1.0));

    let mut base = f64::NAN;
    for &t in &threads {
        let mops = measure(trials, n, || {
            let s = sketch_stream_pooled(&stream, params, 1, t);
            std::hint::black_box(&s);
        });
        if t == threads[0] {
            base = mops;
        }
        rows.push(("pool", t, mops, mops / base));
    }

    for (variant, t, mops, speedup) in rows {
        table.row(&[
            variant.into(),
            t.to_string(),
            fmt_num(mops),
            format!("{speedup:.2}x"),
        ]);
        out.records.push(
            ExperimentRecord::new("parallel", variant)
                .param("n", n as f64)
                .param("m", scale.m as f64)
                .param("z", 1.0)
                .param("trials", trials as f64)
                .param("rows", ROWS as f64)
                .param("buckets", BUCKETS as f64)
                .param("threads", t as f64)
                .metric("update_mops", mops)
                .metric("speedup_vs_1t", speedup),
        );
    }

    out.tables.push(table);
    out
}

/// Renders the `BENCH_parallel.json` payload — the same shape as
/// `BENCH_throughput.json` (schema header, workload, git revision, one
/// record per line) plus a `host_cores` field, because parallel numbers
/// are meaningless without knowing how many hardware threads the host
/// actually had. [`parse_bench_json`] and `harness check-parallel`
/// recover everything without a full JSON parser.
pub fn bench_json(out: &ExperimentOutput, scale: &Scale, git_rev: &str, host_cores: usize) -> String {
    let rev: String = git_rev
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"bench-parallel-v1\",\n");
    s.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!(
        "  \"workload\": {{\"distribution\": \"zipf\", \"z\": 1.0, \"n\": {}, \"m\": {}, \"trials\": {}}},\n",
        stream_len(scale),
        scale.m,
        scale.trials.max(1)
    ));
    s.push_str(&format!(
        "  \"sketch\": {{\"rows\": {ROWS}, \"buckets\": {BUCKETS}}},\n"
    ));
    s.push_str("  \"records\": [\n");
    let lines: Vec<String> = out
        .records
        .iter()
        .filter(|r| r.experiment == "parallel")
        .map(|r| format!("    {}", r.to_json_line()))
        .collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Recovers `"variant@threads" → update Mops/s` (e.g. `"pool@4"`) from a
/// [`bench_json`] payload. Non-record lines are skipped, so the whole
/// file can be fed in as-is.
pub fn parse_bench_json(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with("{\"experiment\"") {
                return None;
            }
            ExperimentRecord::from_json_line(line).ok()
        })
        .filter_map(|r| {
            let mops = r.metrics.get("update_mops").copied()?;
            let threads = r.params.get("threads").copied()? as u64;
            Some((format!("{}@{threads}", r.algorithm), mops))
        })
        .collect()
}

/// Recovers the `host_cores` header field from a [`bench_json`] payload.
pub fn parse_host_cores(text: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.trim().strip_prefix("\"host_cores\":")?;
        rest.trim().trim_end_matches(',').parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_runs_and_reports_positive_rates() {
        // 10× multiplier makes even `small` long; shrink further for CI.
        let out = run(&Scale::small().with_n(2_000));
        assert_eq!(out.tables.len(), 1);
        // sequential@1 plus >= 3 pool thread counts.
        assert!(out.records.len() >= 4);
        for r in &out.records {
            assert!(
                r.metrics["update_mops"] > 0.0,
                "{} reported non-positive throughput",
                r.algorithm
            );
            assert!(r.params["threads"] >= 1.0);
        }
        let variants: std::collections::BTreeSet<&str> =
            out.records.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(variants, ["sequential", "pool"].into());
        // Speedup is defined relative to the variant's own 1-thread run.
        for r in &out.records {
            if r.params["threads"] == 1.0 {
                assert!((r.metrics["speedup_vs_1t"] - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bench_json_roundtrips_through_parser() {
        let mut out = ExperimentOutput::default();
        for (threads, mops) in [(1u64, 10.0), (4, 31.5)] {
            out.records.push(
                ExperimentRecord::new("parallel", "pool")
                    .param("threads", threads as f64)
                    .metric("update_mops", mops)
                    .metric("speedup_vs_1t", mops / 10.0),
            );
        }
        // Records from other experiments must not leak in.
        out.records
            .push(ExperimentRecord::new("throughput", "pool").metric("update_mops", 999.0));
        let json = bench_json(&out, &Scale::small(), "abc123", 8);
        assert!(json.contains("\"schema\": \"bench-parallel-v1\""));
        assert!(json.contains("\"git_rev\": \"abc123\""));
        let parsed = parse_bench_json(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["pool@1"], 10.0);
        assert_eq!(parsed["pool@4"], 31.5);
        assert_eq!(parse_host_cores(&json), Some(8));
    }

    #[test]
    fn host_cores_missing_is_none() {
        assert_eq!(parse_host_cores("{\n  \"schema\": \"x\"\n}"), None);
    }
}
