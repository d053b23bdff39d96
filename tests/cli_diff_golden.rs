//! `fi diff` on a collision-heavy day pair. The fixtures
//! `tests/fixtures/collide_day{1,2}.txt` hold about 7 200 tokens each
//! over 2 300 distinct words (a 1/rank law with planted risers and
//! fallers). At `-k 5 -t 5 -b 64` the 20-slot pass-2 tracker fills on
//! day one, and most admission decisions are made against noisy
//! estimates close to its minimum. `collide_diff.out` is the report
//! printed by the block-batched pass 2 (commit 1eb4804); every later
//! pass 2 must print the same bytes.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn collision_heavy_diff_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_fi"))
        .args(["diff", "-k", "5", "-t", "5", "-b", "64"])
        .arg(fixture("collide_day1.txt"))
        .arg(fixture("collide_day2.txt"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = std::fs::read(fixture("collide_diff.out")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
    assert_eq!(out.stdout, want);
}
