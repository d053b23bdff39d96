//! **Runtime table** — wall-clock update and query throughput of every
//! algorithm on one Zipf(1.0) stream, plus the Count-Sketch's exact
//! overflow tier on its own, in one comparable table.
//!
//! Every number is the **best of `scale.trials` timed rounds** (fresh
//! algorithm instance per run), with every algorithm interleaved inside
//! each round: single-shot wall-clock timings on
//! shared/virtualized hardware swing by tens of percent, the fastest
//! observation is the closest to the code's actual cost, and
//! interleaving lands a scheduler or thermal stall on every algorithm of
//! the round rather than on one. The harness additionally
//! serializes the table as `BENCH_throughput.json` (header from
//! [`bench_header`], codec in [`crate::bench_file`]) so the perf
//! trajectory is machine-checkable across revisions.

use crate::config::Scale;
use crate::experiments::ExperimentOutput;
use cs_baselines::{
    ConciseSamples, CountMinSketch, CountingSamples, KpsFrequent, LossyCounting, MultiHashIceberg,
    SamplingAlgorithm, SpaceSaving, StickySampling, StreamSummary,
};
use cs_core::approx_top::ApproxTopProcessor;
use cs_core::{CountSketch, FastCountSketch, SketchParams};
use cs_hash::ItemKey;
use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::table::fmt_num;
use cs_metrics::Table;
use cs_stream::{Stream, Zipf, ZipfStreamKind};
use std::time::Instant;

/// Rows × buckets every sketch-shaped algorithm in the table uses.
const ROWS: usize = 5;
const BUCKETS: usize = 1024;
/// Each query trial runs this many passes over the 1000 probe keys.
const QUERY_ROUNDS: usize = 100;

fn mops(ops: usize, secs: f64) -> f64 {
    ops as f64 / secs / 1e6
}

/// Optional point-query closure handed to [`time_once`].
type QueryFn<'a, A> = Option<&'a dyn Fn(&A, ItemKey) -> u64>;

/// One table row: its name and one timed run of it.
type Variant<'a> = (&'a str, Box<dyn Fn() -> (f64, f64) + 'a>);

/// One timed run: a fresh ingest of `stream`, then (optionally)
/// `QUERY_ROUNDS` sweeps of the probes. Returns `(update Mops/s, query
/// Mops/s)`, the query half `NaN` when `query` is `None`.
fn time_once<A>(
    stream: &Stream,
    probes: &[ItemKey],
    ingest: impl FnOnce(&Stream) -> A,
    query: QueryFn<'_, A>,
) -> (f64, f64) {
    let start = Instant::now();
    let alg = ingest(stream);
    let upd = mops(stream.len(), start.elapsed().as_secs_f64());
    let mut qry = f64::NAN;
    if let Some(q) = query {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..QUERY_ROUNDS {
            for &p in probes {
                acc = acc.wrapping_add(q(&alg, p));
            }
        }
        qry = mops(QUERY_ROUNDS * probes.len(), start.elapsed().as_secs_f64());
        std::hint::black_box(acc);
    }
    std::hint::black_box(&alg);
    (upd, qry)
}

/// Runs the throughput table.
pub fn run(scale: &Scale) -> ExperimentOutput {
    let zipf = Zipf::new(scale.m, 1.0);
    let stream = zipf.stream(scale.n, 0x77, ZipfStreamKind::Sampled);
    let probes: Vec<ItemKey> = (0..1000u64).map(ItemKey).collect();
    let params = SketchParams::new(ROWS, BUCKETS);
    let trials = scale.trials.max(1) as usize;

    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!(
            "Throughput on Zipf(1.0), n={}, m={} (Mops/s, best of {} interleaved rounds; query = 1000 point probes)",
            scale.n, scale.m, trials
        ),
        &["algorithm", "update Mops/s", "query Mops/s"],
    );

    let (stream, probes) = (&stream, &probes[..]);
    let k = scale.k;
    let mut variants: Vec<Variant> = vec![
        // Count-Sketch (one `update` per occurrence) and its fast-hash
        // variant.
        (
            "count-sketch",
            Box::new(move || {
                time_once(
                    stream,
                    probes,
                    |st| {
                        let mut s = CountSketch::new(params, 1);
                        s.absorb(st, 1);
                        s
                    },
                    Some(&|s: &CountSketch, p| s.estimate(p) as u64),
                )
            }),
        ),
        (
            "count-sketch (fast hashes)",
            Box::new(move || {
                time_once(
                    stream,
                    probes,
                    |st| {
                        let mut s = FastCountSketch::new(params, 1);
                        s.absorb(st, 1);
                        s
                    },
                    Some(&|s: &FastCountSketch, p| s.estimate(p) as u64),
                )
            }),
        ),
        // The exact tier alone: `update_exact` once per key, the
        // always-clamping `i128` path `update` falls back to when the
        // headroom watermark runs out. Its gap to `count-sketch` is what
        // the watermark saves (update only).
        (
            "count-sketch (exact tier)",
            Box::new(move || {
                time_once(
                    stream,
                    probes,
                    |st| {
                        let mut s = CountSketch::new(params, 1);
                        for &key in st.as_slice() {
                            s.update_exact(key, 1);
                        }
                        s
                    },
                    None::<&dyn Fn(&CountSketch, ItemKey) -> u64>,
                )
            }),
        ),
        // The full APPROXTOP loop (sketch + heap maintenance, the
        // paper's per-item rule; no point queries).
        (
            "count-sketch + heap (per-item)",
            Box::new(move || {
                time_once(
                    stream,
                    probes,
                    |st| {
                        let mut p = ApproxTopProcessor::new(params, k, 1);
                        p.observe_stream(st);
                        p
                    },
                    None::<&dyn Fn(&ApproxTopProcessor, ItemKey) -> u64>,
                )
            }),
        ),
    ];

    // Baselines through the trait (process_stream feeds the batch path,
    // which defaults to the per-item loop for all of these).
    type Factory = Box<dyn Fn() -> Box<dyn StreamSummary>>;
    let baselines: Vec<(&str, Factory)> = vec![
        (
            "sampling",
            Box::new(|| Box::new(SamplingAlgorithm::new(0.01, 2))),
        ),
        (
            "concise-samples",
            Box::new(|| Box::new(ConciseSamples::new(1000, 0.9, 3))),
        ),
        (
            "counting-samples",
            Box::new(|| Box::new(CountingSamples::new(1000, 0.9, 4))),
        ),
        (
            "kps-frequent",
            Box::new(|| Box::new(KpsFrequent::with_capacity(1000))),
        ),
        (
            "lossy-counting",
            Box::new(|| Box::new(LossyCounting::new(0.001))),
        ),
        (
            "sticky-sampling",
            Box::new(|| Box::new(StickySampling::new(0.01, 0.001, 0.1, 5))),
        ),
        (
            "count-min",
            Box::new(move || Box::new(CountMinSketch::new(ROWS, BUCKETS, k, 6))),
        ),
        (
            "space-saving",
            Box::new(|| Box::new(SpaceSaving::new(1000))),
        ),
        ("multihash-iceberg", {
            let n = scale.n;
            Box::new(move || {
                Box::new(MultiHashIceberg::new(
                    ROWS,
                    BUCKETS,
                    (n / 200) as u64,
                    1000,
                    7,
                ))
            })
        }),
    ];
    // `time_once`'s state type here is the boxed trait object itself, so
    // the query closure necessarily sees `&Box<dyn _>`.
    #[allow(clippy::borrowed_box)]
    fn query_boxed(alg: &Box<dyn StreamSummary>, p: ItemKey) -> u64 {
        alg.estimate(p).unwrap_or(0)
    }
    for (name, factory) in baselines {
        variants.push((
            name,
            Box::new(move || {
                time_once(
                    stream,
                    probes,
                    |st| {
                        let mut alg = factory();
                        alg.process_stream(st);
                        alg
                    },
                    Some(&query_boxed),
                )
            }),
        ));
    }

    // Best (highest) rate per algorithm over interleaved rounds;
    // `f64::max` keeps the query half `NaN` for update-only rows.
    let mut best = vec![(0.0f64, f64::NAN); variants.len()];
    for _ in 0..trials {
        for ((_, run), (upd, qry)) in variants.iter().zip(&mut best) {
            let (u, q) = run();
            *upd = upd.max(u);
            *qry = qry.max(q);
        }
    }

    for ((name, _), (update, query)) in variants.iter().zip(best) {
        table.row(&[
            (*name).into(),
            fmt_num(update),
            if query.is_nan() {
                "—".into()
            } else {
                fmt_num(query)
            },
        ]);
        out.records.push(
            ExperimentRecord::new("throughput", *name)
                .param("n", scale.n as f64)
                .param("m", scale.m as f64)
                .param("z", 1.0)
                .param("trials", trials as f64)
                .param("rows", ROWS as f64)
                .param("buckets", BUCKETS as f64)
                .metric("update_mops", update)
                .metric("query_mops", if query.is_nan() { -1.0 } else { query }),
        );
    }

    out.tables.push(table);
    out
}

/// The header fields of `BENCH_throughput.json` after `schema` and
/// `git_rev`: the workload and the sketch shape.
pub fn bench_header(scale: &Scale) -> Vec<(&'static str, String)> {
    vec![
        (
            "workload",
            format!(
                "{{\"distribution\": \"zipf\", \"z\": 1.0, \"n\": {}, \"m\": {}, \"trials\": {}}}",
                scale.n,
                scale.m,
                scale.trials.max(1)
            ),
        ),
        (
            "sketch",
            format!("{{\"rows\": {ROWS}, \"buckets\": {BUCKETS}}}"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_runs_and_reports_positive_rates() {
        let out = run(&Scale::small());
        assert_eq!(out.tables.len(), 1);
        assert!(out.records.len() >= 13);
        let exact = out
            .records
            .iter()
            .find(|r| r.algorithm == "count-sketch (exact tier)")
            .expect("exact-tier row");
        assert_eq!(exact.metrics["query_mops"], -1.0, "update-only row");
        for r in &out.records {
            assert!(
                r.metrics["update_mops"] > 0.0,
                "{} reported non-positive throughput",
                r.algorithm
            );
        }
    }
}
