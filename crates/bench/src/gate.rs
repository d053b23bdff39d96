//! The CI gates over the `BENCH_*.json` files.
//!
//! `check-throughput`, `check-parallel` and `check-query` share one path:
//! flag parsing, the stale-`git_rev` refusal (a gate that passes on stale
//! numbers certifies a revision nobody benchmarked) and the
//! `base·(1 − tolerance)` floor on one row of `--current` against the
//! same row of `--baseline`. Each gate then adds at most one assertion
//! of its own:
//!
//! | gate | files (defaults) | tolerance | floor row | own assertion |
//! |---|---|---|---|---|
//! | `check-throughput` | `ci/throughput_baseline.json`, `BENCH_throughput.json` | 0.2 | `--algorithm` (`count-sketch`) update rate | — |
//! | `check-parallel` | `ci/parallel_baseline.json`, `BENCH_parallel.json` | 0.5 | `pool@1` update rate | `pool@4 / pool@1 ≥ --min-speedup` (1.7), armed only when the file's `host_cores ≥ 4` |
//! | `check-query` | `ci/query_baseline.json`, `BENCH_query.json` | 0.5 | `scalar-zipf@5` query rate | `batch-zipf@5`'s `speedup_vs_scalar ≥ --min-ratio` (2.0) |
//!
//! The parallel speedup compares the pool against itself at one thread:
//! comparing against plain sequential would conflate channel overhead
//! (gated by the floor) with scaling, and speedup measured on fewer than
//! four cores is noise, so there the gate warns instead. The query ratio
//! compares two single-threaded paths over the same probes in one
//! process, so it is armed on every host.

use crate::bench_file;
use std::collections::BTreeMap;

/// One line of a gate's verdict, in the order the gate produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Note {
    /// A passed check, for stdout.
    Ok(String),
    /// A warning that does not fail the gate, for stderr.
    Warn(String),
    /// The failure that ends the gate, for stderr.
    Fail(String),
}

/// Which gate runs.
#[derive(Clone, Copy)]
enum Gate {
    Throughput,
    Parallel,
    Query,
}

/// Runs the gate `name` (`check-throughput`, `check-parallel` or
/// `check-query`) over `args`, the flags after the name. `head` is the
/// checkout's short revision, `"unknown"` outside a checkout (the
/// freshness check then only warns). Returns `None` for any other name;
/// otherwise the gate's notes, which end at the first [`Note::Fail`].
pub fn check(name: &str, args: &[String], head: &str) -> Option<Vec<Note>> {
    let gate = match name {
        "check-throughput" => Gate::Throughput,
        "check-parallel" => Gate::Parallel,
        "check-query" => Gate::Query,
        _ => return None,
    };
    let experiment = &name["check-".len()..];
    let mut notes = Vec::new();
    if let Err(failure) = run(gate, experiment, args, head, &mut notes) {
        notes.push(Note::Fail(failure));
    }
    Some(notes)
}

/// The value after `name` in `args`.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The number after `name` in `args`, or `default` when the flag is absent.
fn number(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    flag(args, name).map_or(Ok(default), |s| {
        s.parse().map_err(|_| format!("{name} must be a number"))
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn pick(map: &BTreeMap<String, f64>, row: &str, path: &str) -> Result<f64, String> {
    map.get(row)
        .copied()
        .ok_or_else(|| format!("no '{row}' record in {path}"))
}

/// Refuses a `--current` file benchmarked at any revision but `head`.
fn fresh(head: &str, path: &str, text: &str, notes: &mut Vec<Note>) -> Result<(), String> {
    if head == "unknown" {
        notes.push(Note::Warn(format!(
            "warning: not in a git checkout; cannot verify {path} is fresh"
        )));
        return Ok(());
    }
    match bench_file::header_field(text, "git_rev") {
        Some(rev) if rev == head => Ok(()),
        Some(rev) => Err(format!(
            "FAIL: {path} was benchmarked at git rev {rev} but HEAD is {head}; \
             stale numbers cannot pass a gate — regenerate the file at HEAD"
        )),
        None => Err(format!(
            "FAIL: {path} has no git_rev header; regenerate it with the harness"
        )),
    }
}

fn run(
    gate: Gate,
    experiment: &str,
    args: &[String],
    head: &str,
    notes: &mut Vec<Note>,
) -> Result<(), String> {
    // The default tolerance, and the metric and row parameter the floor
    // reads.
    let (tolerance, metric, at) = match gate {
        Gate::Throughput => (0.2, "update_mops", None),
        Gate::Parallel => (0.5, "update_mops", Some("threads")),
        Gate::Query => (0.5, "query_mops", Some("rows")),
    };
    let baseline_path =
        flag(args, "--baseline").unwrap_or_else(|| format!("ci/{experiment}_baseline.json"));
    let current_path =
        flag(args, "--current").unwrap_or_else(|| format!("BENCH_{experiment}.json"));
    let tolerance = number(args, "--tolerance", tolerance)?;
    let current_text = read(&current_path)?;
    fresh(head, &current_path, &current_text, notes)?;
    let baseline = bench_file::rows(&read(&baseline_path)?, metric, at);
    let current = bench_file::rows(&current_text, metric, at);

    let (row, what) = match gate {
        Gate::Throughput => {
            let algorithm = flag(args, "--algorithm").unwrap_or_else(|| "count-sketch".into());
            let what = format!("{algorithm} update throughput");
            (algorithm, what)
        }
        Gate::Parallel => ("pool@1".into(), "pool 1-thread ingest".into()),
        Gate::Query => ("scalar-zipf@5".into(), "scalar t=5 query throughput".into()),
    };
    let base = pick(&baseline, &row, &baseline_path)?;
    let cur = pick(&current, &row, &current_path)?;
    let floor = base * (1.0 - tolerance);
    let margin = format!(
        "({:.0}% tolerance on baseline {base:.1})",
        tolerance * 100.0
    );
    if cur < floor {
        return Err(format!(
            "FAIL: {what} {cur:.1} Mops/s is below {floor:.1} Mops/s {margin}"
        ));
    }
    notes.push(Note::Ok(format!(
        "ok: {what} {cur:.1} Mops/s >= {floor:.1} Mops/s {margin}"
    )));

    match gate {
        Gate::Throughput => Ok(()),
        Gate::Parallel => {
            let min_speedup = number(args, "--min-speedup", 1.7)?;
            let cores: u64 = bench_file::header_field(&current_text, "host_cores")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            if cores < 4 {
                notes.push(Note::Warn(format!(
                    "WARNING: {current_path} was benchmarked on a {cores}-core host; the \
                     {min_speedup:.2}x 4-thread speedup gate is NOT armed (needs >= 4 cores) — \
                     parallel speedup measured on an oversubscribed box is noise, not signal"
                )));
                return Ok(());
            }
            let cur4 = pick(&current, "pool@4", &current_path)?;
            let speedup = cur4 / cur;
            let detail = format!("{speedup:.2}x ({cur4:.1} / {cur:.1} Mops/s)");
            if speedup < min_speedup {
                return Err(format!(
                    "FAIL: pool 4-thread speedup {detail} is below the required \
                     {min_speedup:.2}x on a {cores}-core host"
                ));
            }
            notes.push(Note::Ok(format!(
                "ok: pool 4-thread speedup {detail} >= {min_speedup:.2}x on a {cores}-core host"
            )));
            Ok(())
        }
        Gate::Query => {
            let min_ratio = number(args, "--min-ratio", 2.0)?;
            let row = "batch-zipf@5";
            let cur_batch = pick(&current, row, &current_path)?;
            let ratios = bench_file::rows(&current_text, "speedup_vs_scalar", at);
            let ratio = pick(&ratios, row, &current_path)?;
            let detail = format!("{ratio:.2}x ({cur_batch:.1} / {cur:.1} Mops/s) at t=5");
            if ratio < min_ratio {
                return Err(format!(
                    "FAIL: batch/scalar kernel ratio {detail} is below the required {min_ratio:.2}x"
                ));
            }
            notes.push(Note::Ok(format!(
                "ok: batch/scalar kernel ratio {detail} >= {min_ratio:.2}x"
            )));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_metrics::experiment::ExperimentRecord;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A bench file on disk, removed on drop.
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(text: &str) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "cs-bench-gate-{}-{}.json",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, text).unwrap();
            TempFile(path)
        }

        fn arg(&self) -> String {
            self.0.to_str().unwrap().to_string()
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn throughput_file(rev: &str, mops: f64) -> String {
        let r = ExperimentRecord::new("throughput", "count-sketch")
            .metric("update_mops", mops)
            .metric("query_mops", 1.0);
        bench_file::write("throughput", rev, &[], &[r])
    }

    fn parallel_file(rev: &str, cores: usize, pool1: f64, pool4: f64) -> String {
        let recs: Vec<ExperimentRecord> = [(1.0, pool1), (4.0, pool4)]
            .into_iter()
            .map(|(t, mops)| {
                ExperimentRecord::new("parallel", "pool")
                    .param("threads", t)
                    .metric("update_mops", mops)
            })
            .collect();
        bench_file::write("parallel", rev, &[("host_cores", cores.to_string())], &recs)
    }

    fn query_file(rev: &str, scalar: f64, batch: f64, ratio: f64) -> String {
        let recs: Vec<ExperimentRecord> =
            [("scalar-zipf", scalar, 1.0), ("batch-zipf", batch, ratio)]
                .into_iter()
                .map(|(v, mops, speedup)| {
                    ExperimentRecord::new("query", v)
                        .param("rows", 5.0)
                        .metric("query_mops", mops)
                        .metric("speedup_vs_scalar", speedup)
                })
                .collect();
        bench_file::write("query", rev, &[], &recs)
    }

    /// Runs `gate` on `current` against `baseline` with `extra` flags at
    /// HEAD `abc123`.
    fn verdict(gate: &str, baseline: &str, current: &str, extra: &[&str]) -> Vec<Note> {
        let (b, c) = (TempFile::new(baseline), TempFile::new(current));
        let mut args = vec!["--baseline".into(), b.arg(), "--current".into(), c.arg()];
        args.extend(extra.iter().map(|s| s.to_string()));
        check(gate, &args, "abc123").unwrap()
    }

    fn failure(notes: &[Note]) -> Option<&str> {
        match notes.last() {
            Some(Note::Fail(f)) => Some(f),
            _ => None,
        }
    }

    #[test]
    fn each_gate_refuses_stale_slow_and_its_own_failure_and_passes_otherwise() {
        let (t, p, q) = ("check-throughput", "check-parallel", "check-query");
        let tb = throughput_file("old", 40.0); // floor 32.0 at tolerance 0.2
        let pb = parallel_file("old", 1, 20.0, 20.0); // floor 10.0 at 0.5
        let qb = query_file("old", 10.0, 25.0, 2.5); // floor 5.0 at 0.5
        let (tf, pf, qf) = (throughput_file, parallel_file, query_file);
        let no: &[&str] = &[];
        // (gate, baseline, current, extra flags, failure it must contain)
        let cases = [
            (t, &tb, tf("abc123", 33.0), no, None),
            (
                t,
                &tb,
                tf("def456", 33.0),
                no,
                Some("git rev def456 but HEAD is abc123"),
            ),
            (t, &tb, tf("", 33.0), no, Some("has no git_rev header")),
            (
                t,
                &tb,
                tf("abc123", 31.0),
                no,
                Some("FAIL: count-sketch update throughput 31.0"),
            ),
            (
                t,
                &tb,
                tf("abc123", 33.0),
                &["--algorithm", "x"],
                Some("no 'x' record in "),
            ),
            (
                t,
                &tb,
                tf("abc123", 33.0),
                &["--tolerance", "x"],
                Some("must be a number"),
            ),
            (p, &pb, pf("abc123", 4, 12.0, 24.0), no, None),
            (
                p,
                &pb,
                pf("old", 4, 12.0, 24.0),
                no,
                Some("stale numbers cannot pass"),
            ),
            (
                p,
                &pb,
                pf("abc123", 4, 9.0, 24.0),
                no,
                Some("FAIL: pool 1-thread ingest 9.0"),
            ),
            (
                p,
                &pb,
                pf("abc123", 4, 12.0, 18.0),
                no,
                Some("FAIL: pool 4-thread speedup 1.50x"),
            ),
            (
                p,
                &pb,
                pf("abc123", 4, 12.0, 18.0),
                &["--min-speedup", "1.4"],
                None,
            ),
            // The speedup gate is not armed below 4 cores.
            (p, &pb, pf("abc123", 2, 12.0, 18.0), no, None),
            (q, &qb, qf("abc123", 12.0, 30.0, 2.2), no, None),
            (
                q,
                &qb,
                qf("def456", 12.0, 30.0, 2.2),
                no,
                Some("git rev def456"),
            ),
            (
                q,
                &qb,
                qf("abc123", 4.0, 30.0, 2.2),
                no,
                Some("FAIL: scalar t=5 query throughput 4.0"),
            ),
            // The recorded ratio counts, not batch/scalar of the rates (2.5).
            (
                q,
                &qb,
                qf("abc123", 12.0, 30.0, 1.9),
                no,
                Some("FAIL: batch/scalar kernel ratio 1.90x"),
            ),
            (
                q,
                &qb,
                qf("abc123", 12.0, 30.0, 1.9),
                &["--min-ratio", "1.5"],
                None,
            ),
        ];
        for (gate, base, cur, extra, want) in cases {
            let notes = verdict(gate, base, &cur, extra);
            match (failure(&notes), want) {
                (None, None) => {}
                (Some(got), Some(want)) if got.contains(want) => {}
                _ => panic!("{gate} {extra:?}: want failure {want:?}, got {notes:?}"),
            }
        }
    }

    #[test]
    fn passing_gates_print_their_checks() {
        let notes = verdict(
            "check-query",
            &query_file("old", 10.0, 25.0, 2.5),
            &query_file("abc123", 12.0, 30.0, 2.2),
            &[],
        );
        assert_eq!(
            notes,
            [
                Note::Ok("ok: scalar t=5 query throughput 12.0 Mops/s >= 5.0 Mops/s (50% tolerance on baseline 10.0)".into()),
                Note::Ok("ok: batch/scalar kernel ratio 2.20x (30.0 / 12.0 Mops/s) at t=5 >= 2.00x".into()),
            ]
        );
        let pb = parallel_file("old", 1, 20.0, 20.0);
        let small = verdict(
            "check-parallel",
            &pb,
            &parallel_file("abc123", 2, 12.0, 18.0),
            &[],
        );
        assert!(
            matches!(&small[1], Note::Warn(s) if s.contains("2-core host") && s.contains("NOT armed"))
        );
    }

    #[test]
    fn unknown_gate_unreadable_file_and_no_checkout() {
        assert_eq!(check("check-e2e", &[], "abc123"), None);
        let args = ["--current", "/nonexistent/BENCH.json"].map(String::from);
        let unread = check("check-query", &args, "abc123").unwrap();
        assert!(failure(&unread)
            .unwrap()
            .starts_with("cannot read /nonexistent/BENCH.json"));
        // Outside a checkout freshness is unverifiable: warn, then gate.
        let (b, c) = (
            TempFile::new(&throughput_file("old", 40.0)),
            TempFile::new(&throughput_file("x", 33.0)),
        );
        let args = ["--baseline".into(), b.arg(), "--current".into(), c.arg()];
        let notes = check("check-throughput", &args, "unknown").unwrap();
        assert!(
            matches!(&notes[0], Note::Warn(s) if s.starts_with("warning: not in a git checkout"))
        );
        assert_eq!(failure(&notes), None);
    }
}
