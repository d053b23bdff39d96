//! The CI gates over the `BENCH_*.json` files.
//!
//! `check-throughput` and `check-parallel` share one path: flag parsing,
//! the stale-`git_rev` refusal (a gate that passes on stale numbers
//! certifies a revision nobody benchmarked) and the
//! `base·(1 − tolerance)` floor on one row of `--current` against the
//! same row of `--baseline`. `check-parallel` then adds one assertion of
//! its own:
//!
//! | gate | files (defaults) | tolerance | floored row: metrics | own assertion |
//! |---|---|---|---|---|
//! | `check-throughput` | `ci/throughput_baseline.json`, `BENCH_throughput.json` | 0.2 | `--algorithm` (`count-sketch`): update and query rates | — |
//! | `check-parallel` | `ci/parallel_baseline.json`, `BENCH_parallel.json` | 0.5 | `pool@1`: update rate | `pool@4 / pool@1 ≥ --min-speedup` (1.7), armed only when the file's `host_cores ≥ 4` |
//!
//! The throughput table records no query rate (`-1`) for its update-only
//! rows; a row whose baseline says so is floored on its update rate
//! alone. The parallel speedup compares the pool against itself at one
//! thread: comparing against plain sequential would conflate channel
//! overhead (gated by the floor) with scaling, and speedup measured on
//! fewer than four cores is noise, so there the gate warns instead.

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
}

/// Runs the gate `name` (`check-throughput` or `check-parallel`) over
/// `args`, the flags after the name. `head` is the checkout's short
/// revision, `"unknown"` outside a checkout (the freshness check then
/// only warns). Returns `None` for any other name; otherwise the gate's
/// notes, which end at the first [`Note::Fail`].
pub fn check(name: &str, args: &[String], head: &str) -> Option<Vec<Note>> {
    let gate = match name {
        "check-throughput" => Gate::Throughput,
        "check-parallel" => Gate::Parallel,
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
    // The default tolerance, and the row parameter the files are keyed by.
    let (tolerance, at) = match gate {
        Gate::Throughput => (0.2, None),
        Gate::Parallel => (0.5, Some("threads")),
    };
    let baseline_path =
        flag(args, "--baseline").unwrap_or_else(|| format!("ci/{experiment}_baseline.json"));
    let current_path =
        flag(args, "--current").unwrap_or_else(|| format!("BENCH_{experiment}.json"));
    let tolerance = number(args, "--tolerance", tolerance)?;
    let current_text = read(&current_path)?;
    fresh(head, &current_path, &current_text, notes)?;
    let baseline_text = read(&baseline_path)?;

    // Floors `metric` of `row` at `base·(1 − tolerance)` and returns the
    // current value. A negative baseline (a rate the row does not
    // record) is not floored.
    let mut floor = |metric: &str, row: &str, what: &str| -> Result<f64, String> {
        let base = pick(
            &bench_file::rows(&baseline_text, metric, at),
            row,
            &baseline_path,
        )?;
        let cur = pick(
            &bench_file::rows(&current_text, metric, at),
            row,
            &current_path,
        )?;
        if base < 0.0 {
            notes.push(Note::Ok(format!("ok: no {what} recorded; not floored")));
            return Ok(cur);
        }
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
        Ok(cur)
    };

    match gate {
        Gate::Throughput => {
            let algorithm = flag(args, "--algorithm").unwrap_or_else(|| "count-sketch".into());
            for rate in ["update", "query"] {
                let what = format!("{algorithm} {rate} throughput");
                floor(&format!("{rate}_mops"), &algorithm, &what)?;
            }
            Ok(())
        }
        Gate::Parallel => {
            let cur = floor("update_mops", "pool@1", "pool 1-thread ingest")?;
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
            let current = bench_file::rows(&current_text, "update_mops", at);
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

    /// A `count-sketch` row with both rates, and an update-only row that
    /// records its query rate as `-1` like the throughput table does.
    fn throughput_file(rev: &str, update: f64, query: f64) -> String {
        let recs = [("count-sketch", query), ("update-only", -1.0)].map(|(alg, q)| {
            ExperimentRecord::new("throughput", alg)
                .metric("update_mops", update)
                .metric("query_mops", q)
        });
        bench_file::write("throughput", rev, &[], &recs)
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
        let (t, p) = ("check-throughput", "check-parallel");
        let tb = throughput_file("old", 40.0, 10.0); // floors 32.0 and 8.0 at 0.2
        let pb = parallel_file("old", 1, 20.0, 20.0); // floor 10.0 at 0.5
        let (tf, pf) = (throughput_file, parallel_file);
        let no: &[&str] = &[];
        // (gate, baseline, current, extra flags, failure it must contain)
        let cases = [
            (t, &tb, tf("abc123", 33.0, 9.0), no, None),
            (
                t,
                &tb,
                tf("def456", 33.0, 9.0),
                no,
                Some("git rev def456 but HEAD is abc123"),
            ),
            (t, &tb, tf("", 33.0, 9.0), no, Some("has no git_rev header")),
            (
                t,
                &tb,
                tf("abc123", 31.0, 9.0),
                no,
                Some("FAIL: count-sketch update throughput 31.0"),
            ),
            (
                t,
                &tb,
                tf("abc123", 33.0, 7.0),
                no,
                Some("FAIL: count-sketch query throughput 7.0"),
            ),
            (
                t,
                &tb,
                tf("abc123", 33.0, 7.0),
                &["--tolerance", "0.5"],
                None,
            ),
            // An update-only row is floored on its update rate alone.
            (
                t,
                &tb,
                tf("abc123", 33.0, 7.0),
                &["--algorithm", "update-only"],
                None,
            ),
            (
                t,
                &tb,
                tf("abc123", 31.0, 9.0),
                &["--algorithm", "update-only"],
                Some("FAIL: update-only update throughput 31.0"),
            ),
            (
                t,
                &tb,
                tf("abc123", 33.0, 9.0),
                &["--algorithm", "x"],
                Some("no 'x' record in "),
            ),
            (
                t,
                &tb,
                tf("abc123", 33.0, 9.0),
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
        let tb = throughput_file("old", 40.0, 10.0);
        let notes = verdict(
            "check-throughput",
            &tb,
            &throughput_file("abc123", 33.0, 12.0),
            &[],
        );
        assert_eq!(
            notes,
            [
                Note::Ok("ok: count-sketch update throughput 33.0 Mops/s >= 32.0 Mops/s (20% tolerance on baseline 40.0)".into()),
                Note::Ok("ok: count-sketch query throughput 12.0 Mops/s >= 8.0 Mops/s (20% tolerance on baseline 10.0)".into()),
            ]
        );
        let update_only = ["--algorithm", "update-only"];
        let notes = verdict(
            "check-throughput",
            &tb,
            &throughput_file("abc123", 33.0, 12.0),
            &update_only,
        );
        assert_eq!(
            notes[1],
            Note::Ok("ok: no update-only query throughput recorded; not floored".into())
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
        assert_eq!(check("check-query", &[], "abc123"), None);
        let args = ["--current", "/nonexistent/BENCH.json"].map(String::from);
        let unread = check("check-throughput", &args, "abc123").unwrap();
        assert!(failure(&unread)
            .unwrap()
            .starts_with("cannot read /nonexistent/BENCH.json"));
        // Outside a checkout freshness is unverifiable: warn, then gate.
        let (b, c) = (
            TempFile::new(&throughput_file("old", 40.0, 10.0)),
            TempFile::new(&throughput_file("x", 33.0, 9.0)),
        );
        let args = ["--baseline".into(), b.arg(), "--current".into(), c.arg()];
        let notes = check("check-throughput", &args, "unknown").unwrap();
        assert!(
            matches!(&notes[0], Note::Warn(s) if s.starts_with("warning: not in a git checkout"))
        );
        assert_eq!(failure(&notes), None);
    }
}
