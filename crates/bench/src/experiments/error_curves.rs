//! **Fig E1** — the Lemma 3/4 error bound, empirically.
//!
//! Two sweeps on a Zipf(1.0) stream:
//!
//! * `error vs b` at fixed `t`: max/mean absolute estimate error over the
//!   top-k and over random tail items, against the theoretical `8γ` with
//!   `γ = sqrt(F₂^{res(k)}/b)` (eq. 5). Expected shape: error scales as
//!   `1/sqrt(b)` and stays below `8γ`.
//! * `error vs t` at fixed `b`: the fraction of items whose error exceeds
//!   `8γ`, which Lemma 3's Chernoff argument says decays exponentially
//!   in `t`.

use crate::config::Scale;
use crate::experiments::ExperimentOutput;
use cs_core::{CountSketch, SketchParams};
use cs_hash::ItemKey;
use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::table::fmt_num;
use cs_metrics::{ErrorReport, Table};
use cs_stream::{moments, ExactCounter, Zipf, ZipfStreamKind};

/// Default bucket sweep.
pub const DEFAULT_BS: [usize; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];
/// Default row sweep.
pub const DEFAULT_TS: [usize; 6] = [1, 3, 5, 9, 15, 25];

struct Workload {
    stream: cs_stream::Stream,
    exact: ExactCounter,
    probes: Vec<ItemKey>,
}

fn workload(scale: &Scale) -> Workload {
    let zipf = Zipf::new(scale.m, 1.0);
    let stream = zipf.stream(scale.n, 0xE1, ZipfStreamKind::DeterministicRounded);
    let exact = ExactCounter::from_stream(&stream);
    // Probe the top-k plus a spread of tail ranks.
    let mut probes: Vec<ItemKey> = (0..scale.k as u64).map(ItemKey).collect();
    let mut rank = scale.k * 2;
    while rank < scale.m {
        probes.push(ItemKey(rank as u64));
        rank *= 2;
    }
    Workload {
        stream,
        exact,
        probes,
    }
}

fn measure(w: &Workload, params: SketchParams, trials: u64, k: usize) -> (ErrorReport, f64, f64) {
    let gamma = moments::gamma(&w.exact, k, params.buckets);
    let mut all_estimates: Vec<(ItemKey, i64)> = Vec::new();
    let mut exceed = 0.0;
    for trial in 0..trials {
        let mut sketch = CountSketch::new(params, 0xEC ^ trial);
        sketch.absorb(&w.stream, 1);
        let ests: Vec<(ItemKey, i64)> = w
            .probes
            .iter()
            .map(|&key| (key, sketch.estimate(key)))
            .collect();
        exceed += ErrorReport::fraction_exceeding(&ests, &w.exact, 8.0 * gamma);
        all_estimates.extend(ests);
    }
    let report = ErrorReport::measure(&all_estimates, &w.exact);
    (report, gamma, exceed / trials as f64)
}

/// Sweep `b` at fixed `t`.
pub fn run_error_vs_b(scale: &Scale, t: usize, bs: &[usize]) -> ExperimentOutput {
    let w = workload(scale);
    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!(
            "Error vs b (t={t}, Zipf z=1.0, n={}, m={}, k={}): Lemma 4 bound 8γ",
            scale.n, scale.m, scale.k
        ),
        &["b", "8γ", "max|err|", "mean|err|", "P(err>8γ)"],
    );
    for &b in bs {
        let (report, gamma, exceed) = measure(&w, SketchParams::new(t, b), scale.trials, scale.k);
        table.row(&[
            fmt_num(b as f64),
            fmt_num(8.0 * gamma),
            fmt_num(report.max_abs),
            fmt_num(report.mean_abs),
            format!("{exceed:.3}"),
        ]);
        out.records.push(
            ExperimentRecord::new("error_vs_b", "count-sketch")
                .param("b", b as f64)
                .param("t", t as f64)
                .param("k", scale.k as f64)
                .metric("gamma8", 8.0 * gamma)
                .metric("max_abs", report.max_abs)
                .metric("mean_abs", report.mean_abs)
                .metric("exceed_frac", exceed),
        );
    }
    out.tables.push(table);
    out
}

/// Sweep `t` at fixed `b`.
pub fn run_error_vs_t(scale: &Scale, b: usize, ts: &[usize]) -> ExperimentOutput {
    let w = workload(scale);
    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!("Error vs t (b={b}, Zipf z=1.0): Lemma 3 failure decay",),
        &["t", "max|err|", "mean|err|", "P(err>8γ)"],
    );
    for &t in ts {
        let (report, _gamma, exceed) = measure(&w, SketchParams::new(t, b), scale.trials, scale.k);
        table.row(&[
            fmt_num(t as f64),
            fmt_num(report.max_abs),
            fmt_num(report.mean_abs),
            format!("{exceed:.3}"),
        ]);
        out.records.push(
            ExperimentRecord::new("error_vs_t", "count-sketch")
                .param("b", b as f64)
                .param("t", t as f64)
                .metric("max_abs", report.max_abs)
                .metric("mean_abs", report.mean_abs)
                .metric("exceed_frac", exceed),
        );
    }
    out.tables.push(table);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_decreases_with_b() {
        let scale = Scale::small();
        let out = run_error_vs_b(&scale, 5, &[32, 2048]);
        let small_b = &out.records[0].metrics;
        let large_b = &out.records[1].metrics;
        assert!(
            large_b["mean_abs"] <= small_b["mean_abs"],
            "mean error must not grow with b: {} -> {}",
            small_b["mean_abs"],
            large_b["mean_abs"]
        );
    }

    #[test]
    fn exceed_fraction_is_small_at_reasonable_t() {
        let scale = Scale::small();
        let out = run_error_vs_b(&scale, 9, &[512]);
        let exceed = out.records[0].metrics["exceed_frac"];
        assert!(exceed <= 0.1, "P(err > 8γ) = {exceed}");
    }

    #[test]
    fn failure_rate_non_increasing_in_t() {
        let scale = Scale::small();
        let out = run_error_vs_t(&scale, 128, &[1, 15]);
        let f1 = out.records[0].metrics["exceed_frac"];
        let f15 = out.records[1].metrics["exceed_frac"];
        assert!(f15 <= f1 + 0.05, "t=1 gives {f1}, t=15 gives {f15}");
    }

    #[test]
    fn tables_render() {
        let out = run_error_vs_t(&Scale::small(), 64, &[3]);
        assert!(out.render().contains("Error vs t"));
    }
}
