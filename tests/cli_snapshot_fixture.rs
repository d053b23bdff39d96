//! `fi` against committed CSNP files. `tests/fixtures/unicode_day1.csnp`
//! is a v1 snapshot, written by `fi top -t 3 -b 64 --snapshot` over
//! `tests/fixtures/unicode_day1.txt` at commit 1849ff0, and
//! `unicode_day1_inspect.out` is what that commit's `fi inspect` printed
//! for it: it pins that snapshots already on disk still load.
//! `unicode_day1.v2.csnp` is the same state as `fi` writes it today (CSNP
//! v2, varint counters), with its `fi inspect` output in
//! `unicode_day1_v2_inspect.out`: it pins the current layout. Any change
//! to either layout or its checksum breaks these tests.

use frequent_items::prelude::ApproxTopProcessor;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SNAPSHOT: &str = "tests/fixtures/unicode_day1.csnp";
const SNAPSHOT_V2: &str = "tests/fixtures/unicode_day1.v2.csnp";
const INPUT: &str = "tests/fixtures/unicode_day1.txt";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `fi` from the repository root, so relative fixture paths (which
/// `fi inspect` echoes) match the committed output.
fn fi(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_fi"))
        .current_dir(root())
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "fi {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fi-fixture-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn top_writes_the_committed_snapshot_byte_for_byte() {
    let dir = scratch_dir("write");
    let written: PathBuf = dir.join("s.csnp");
    let path = written.to_str().unwrap();
    fi(&["top", "-t", "3", "-b", "64", "--snapshot", path, INPUT]);
    let want = std::fs::read(root().join(SNAPSHOT_V2)).unwrap();
    assert_eq!(std::fs::read(&written).unwrap(), want);
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_inspect_prints(snapshot: &str, want: &str) {
    let got = fi(&["inspect", snapshot]).stdout;
    let want = std::fs::read(root().join(want)).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
}

#[test]
fn inspect_prints_the_committed_output() {
    assert_inspect_prints(SNAPSHOT, "tests/fixtures/unicode_day1_inspect.out");
}

#[test]
fn inspect_prints_the_committed_v2_output() {
    assert_inspect_prints(SNAPSHOT_V2, "tests/fixtures/unicode_day1_v2_inspect.out");
}

#[test]
fn v1_and_its_v2_reencoding_resume_identically() {
    // The v2 fixture is the v1 fixture's state, re-encoded.
    let v1 = std::fs::read(root().join(SNAPSHOT)).unwrap();
    let v2 = std::fs::read(root().join(SNAPSHOT_V2)).unwrap();
    let state = ApproxTopProcessor::from_snapshot_bytes(&v1).unwrap();
    assert_eq!(state.to_snapshot_bytes(), v2);

    let dir = scratch_dir("resume");
    let run = |from: &str, to: &str| {
        let to = dir.join(to);
        let report = fi(&[
            "top",
            "-t",
            "3",
            "-b",
            "64",
            "--resume",
            from,
            "--snapshot",
            to.to_str().unwrap(),
            "tests/fixtures/unicode_day2.txt",
        ])
        .stdout;
        (report, std::fs::read(to).unwrap())
    };
    let (report_v1, written_v1) = run(SNAPSHOT, "from_v1.csnp");
    let (report_v2, written_v2) = run(SNAPSHOT_V2, "from_v2.csnp");
    assert!(!report_v1.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&report_v1),
        String::from_utf8_lossy(&report_v2)
    );
    assert_eq!(written_v1, written_v2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_snapshot_resumes() {
    let report = fi(&["top", "-t", "3", "-b", "64", "--resume", SNAPSHOT, INPUT]).stdout;
    // The resumed counts continue from the stored 1500 occurrences.
    assert!(
        String::from_utf8_lossy(&report).contains("744  alpha"),
        "{}",
        String::from_utf8_lossy(&report)
    );
}
