//! Metric names and units, and the JSON lines the benchmark prints.
//!
//! These tables are the one source of the printed names; the tests check
//! them against `BENCHMARK.json`.

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("tok_per_s", "tokens/s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("topk_recall", "fraction"),
    ("count_accuracy", "fraction"),
    ("ok_rate", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. README.md
/// names the public call behind each and the metric it should move.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("cli.read.s", "s"),
    ("cli.read.bytes", "bytes"),
    ("cli.tokenize.s", "s"),
    ("cli.tokenize.tokens", "count"),
    ("cli.tokenize.labels", "count"),
    ("hash.item_key.s", "s"),
    ("core.approx_top.observe.s", "s"),
    ("core.approx_top.observe.items", "count"),
    ("core.sketch.add.s", "s"),
    ("core.approx_top.result.s", "s"),
    ("core.snapshot.encode.s", "s"),
    ("core.snapshot.bytes", "bytes"),
    ("core.snapshot.write.s", "s"),
    ("core.parallel.ingest.s", "s"),
    ("core.parallel.items", "count"),
    ("cli.candidates.s", "s"),
    ("core.sketch.estimate_batch.s", "s"),
    ("core.sketch.estimate_batch.keys", "count"),
    ("core.topk.offer.s", "s"),
    ("core.maxchange.absorb.s", "s"),
    ("core.maxchange.top_changes.s", "s"),
    ("core.maxchange.items", "count"),
    ("core.distributed.site_report.s", "s"),
    ("net.frame.encode.s", "s"),
    ("net.frame.bytes", "bytes"),
    ("net.frame.decode.s", "s"),
    ("net.agent.ship.s", "s"),
    ("net.agent.attempts", "count"),
    ("net.agent.failed", "count"),
    ("core.distributed.deliver.s", "s"),
    ("core.distributed.finalize.s", "s"),
    ("core.distributed.top_k.s", "s"),
    ("net.server.drain.s", "s"),
    ("cli.report.s", "s"),
    ("cli.free.s", "s"),
    ("trace.wall.s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a per-layer metric.
pub fn is_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|&(n, _)| n == name)
}

/// The median of `values` (0 when there are none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON, with all its digits (non-finite values print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
