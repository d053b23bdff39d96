//! `fi` against a committed CSNP file. `tests/fixtures/unicode_day1.csnp`
//! was written by `fi top -t 3 -b 64 --snapshot` over
//! `tests/fixtures/unicode_day1.txt` at commit 1849ff0, and
//! `unicode_day1_inspect.out` is what that commit's `fi inspect` printed
//! for it. Any change to the snapshot layout or its checksum breaks
//! snapshots already on disk; these tests catch it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SNAPSHOT: &str = "tests/fixtures/unicode_day1.csnp";
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

#[test]
fn top_writes_the_committed_snapshot_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("fi-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let written: PathBuf = dir.join("s.csnp");
    let path = written.to_str().unwrap();
    fi(&["top", "-t", "3", "-b", "64", "--snapshot", path, INPUT]);
    let want = std::fs::read(root().join(SNAPSHOT)).unwrap();
    assert_eq!(std::fs::read(&written).unwrap(), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_prints_the_committed_output() {
    let got = fi(&["inspect", SNAPSHOT]).stdout;
    let want = std::fs::read(root().join("tests/fixtures/unicode_day1_inspect.out")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
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
