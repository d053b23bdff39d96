//! The `BENCH_*.json` codec shared by the throughput and parallel
//! experiments and by their CI gates.
//!
//! A bench file is a JSON object whose header fields (`schema`,
//! `git_rev`, then whatever the experiment adds: `host_cores`,
//! `workload`, `sketch`) sit one per line, followed by a `records` array
//! holding one [`ExperimentRecord`] JSON line per row. That layout lets
//! [`rows`] and [`header_field`] read a file line by line, without a
//! full JSON parser.

use cs_metrics::experiment::ExperimentRecord;
use std::collections::BTreeMap;

/// Renders a bench file for `experiment`: the `bench-<experiment>-v1`
/// schema, `git_rev` (kept to ASCII alphanumerics and `-`, so a hostile
/// revision string cannot break the JSON), the `header` fields in order
/// (each value already JSON), then one line per record.
pub fn write(
    experiment: &str,
    git_rev: &str,
    header: &[(&str, String)],
    records: &[ExperimentRecord],
) -> String {
    let rev: String = git_rev
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    let mut s =
        format!("{{\n  \"schema\": \"bench-{experiment}-v1\",\n  \"git_rev\": \"{rev}\",\n");
    for (name, value) in header {
        s.push_str(&format!("  \"{name}\": {value},\n"));
    }
    s.push_str("  \"records\": [\n");
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json_line()))
        .collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The records of a bench file, in file order. Lines that are not record
/// objects are skipped, so the whole file can be fed in as-is.
fn records(text: &str) -> impl Iterator<Item = ExperimentRecord> + '_ {
    text.lines().filter_map(|line| {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"experiment\"") {
            return None;
        }
        ExperimentRecord::from_json_line(line).ok()
    })
}

/// `row → metric` over a bench file's records. A row is the record's
/// algorithm, suffixed with `@` and the value of the `at` parameter when
/// one is given (`"pool@4"`). Records that lack the metric or the
/// parameter are skipped.
pub fn rows(text: &str, metric: &str, at: Option<&str>) -> BTreeMap<String, f64> {
    records(text)
        .filter_map(|r| {
            let value = r.metrics.get(metric).copied()?;
            let row = match at {
                None => r.algorithm,
                Some(param) => format!("{}@{}", r.algorithm, r.params.get(param).copied()? as u64),
            };
            Some((row, value))
        })
        .collect()
}

/// The value of a header field, with a string's quotes removed. `None`
/// when the field is absent or empty.
pub fn header_field(text: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\":");
    text.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(key.as_str())?;
        let value = rest.trim().trim_end_matches(',').trim_matches('"');
        (!value.is_empty()).then(|| value.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bench file in the repository: the committed artifacts and
    /// the CI baselines, each with the metric and row parameter its gate
    /// reads.
    const FILES: [(&str, &str, &str, Option<&str>); 4] = [
        (
            "BENCH_throughput.json",
            include_str!("../../../BENCH_throughput.json"),
            "update_mops",
            None,
        ),
        (
            "ci/throughput_baseline.json",
            include_str!("../../../ci/throughput_baseline.json"),
            "update_mops",
            None,
        ),
        (
            "BENCH_parallel.json",
            include_str!("../../../BENCH_parallel.json"),
            "update_mops",
            Some("threads"),
        ),
        (
            "ci/parallel_baseline.json",
            include_str!("../../../ci/parallel_baseline.json"),
            "update_mops",
            Some("threads"),
        ),
    ];

    /// The per-experiment readers this module replaced, folded into one
    /// function: each scanned for record lines and keyed them the same
    /// way. Kept here as the reference [`rows`] must agree with.
    fn reference_rows(text: &str, metric: &str, at: Option<&str>) -> BTreeMap<String, f64> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with("{\"experiment\"") {
                continue;
            }
            let Ok(r) = ExperimentRecord::from_json_line(line) else {
                continue;
            };
            let Some(&value) = r.metrics.get(metric) else {
                continue;
            };
            let key = match at {
                None => r.algorithm.clone(),
                Some(p) => match r.params.get(p) {
                    Some(&v) => format!("{}@{}", r.algorithm, v as u64),
                    None => continue,
                },
            };
            map.insert(key, value);
        }
        map
    }

    #[test]
    fn rows_match_the_reference_reader_on_every_committed_file() {
        for (name, text, metric, at) in FILES {
            let got = rows(text, metric, at);
            assert!(!got.is_empty(), "{name}: no rows");
            assert_eq!(got, reference_rows(text, metric, at), "{name}");
        }
    }

    #[test]
    fn write_reproduces_every_committed_file_byte_for_byte() {
        for (name, text, _, _) in FILES {
            let schema = header_field(text, "schema").unwrap();
            let experiment = schema
                .strip_prefix("bench-")
                .and_then(|s| s.strip_suffix("-v1"))
                .unwrap();
            let header: Vec<(&str, String)> = ["host_cores", "workload", "sketch"]
                .into_iter()
                .filter_map(|f| Some((f, header_field(text, f)?)))
                .collect();
            let recs: Vec<ExperimentRecord> = records(text).collect();
            let rev = header_field(text, "git_rev").unwrap();
            assert_eq!(write(experiment, &rev, &header, &recs), text, "{name}");
        }
    }

    #[test]
    fn header_fields_and_rows_roundtrip_through_write() {
        let recs = [
            ExperimentRecord::new("parallel", "pool")
                .param("threads", 1.0)
                .metric("update_mops", 10.0),
            ExperimentRecord::new("parallel", "pool")
                .param("threads", 4.0)
                .metric("update_mops", 31.5),
            // No `threads` parameter: not a row of the parallel map.
            ExperimentRecord::new("parallel", "sequential").metric("update_mops", 9.0),
        ];
        let text = write("parallel", "abc123", &[("host_cores", "8".into())], &recs);
        assert_eq!(
            header_field(&text, "schema").as_deref(),
            Some("bench-parallel-v1")
        );
        assert_eq!(header_field(&text, "git_rev").as_deref(), Some("abc123"));
        assert_eq!(header_field(&text, "host_cores").as_deref(), Some("8"));
        assert_eq!(header_field(&text, "sketch"), None);
        assert_eq!(records(&text).count(), 3);
        let by_threads = rows(&text, "update_mops", Some("threads"));
        assert_eq!(by_threads.len(), 2);
        assert_eq!(by_threads["pool@1"], 10.0);
        assert_eq!(by_threads["pool@4"], 31.5);
        assert_eq!(rows(&text, "update_mops", None)["sequential"], 9.0);
        assert!(rows(&text, "query_mops", None).is_empty());
    }

    #[test]
    fn write_sanitizes_git_rev_and_empty_rev_reads_as_absent() {
        let text = write("throughput", "abc\"123\n$(rm)", &[], &[]);
        assert!(text.contains("\"git_rev\": \"abc123rm\""));
        assert_eq!(header_field("{}", "git_rev"), None);
        assert_eq!(
            header_field(&write("parallel", "", &[], &[]), "git_rev"),
            None
        );
    }
}
