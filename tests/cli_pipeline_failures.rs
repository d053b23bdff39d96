//! `fi top` failures on inputs long enough to start the scanner thread.
//! A `--snapshot-every` checkpoint that cannot be written must end the
//! process with exit 3 while the scanner thread is still running: the
//! failed sink drops the run receiver, the scanner's next send fails,
//! and the thread is joined. A `--resume` of a missing file exits 3
//! too. Each child is polled against a deadline, so a hang fails the
//! test instead of stalling the suite.

use frequent_items::cli::CHUNK;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Waits for `child` to exit, killing it and failing the test if it is
/// still running after `limit`.
fn wait_with_deadline(mut child: Child, limit: Duration) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > limit {
            child.kill().ok();
            child.wait().ok();
            panic!("fi still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fi_top(args: &[&str], input: &Path) -> ExitStatus {
    let child = Command::new(env!("CARGO_BIN_EXE_fi"))
        .arg("top")
        .args(args)
        .arg(input)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_with_deadline(child, Duration::from_secs(60))
}

#[test]
fn failed_checkpoint_and_missing_resume_exit_3_without_hanging() {
    let dir = std::env::temp_dir().join(format!("fi-pipeline-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Twenty runs of input, so the scanner thread has runs left to send
    // when the first checkpoint fails.
    let input = dir.join("input.txt");
    let text: String = (0..20 * CHUNK).map(|i| format!("t{} ", i % 1000)).collect();
    std::fs::write(&input, text).unwrap();
    // A path under a regular file fails with ENOTDIR, for root too.
    let file = dir.join("plain");
    std::fs::write(&file, "not a directory").unwrap();
    let unwritable = file.join("x").to_string_lossy().into_owned();
    let status = fi_top(
        &["--snapshot-every", "1000", "--snapshot", &unwritable],
        &input,
    );
    assert_eq!(status.code(), Some(3), "--snapshot-every to {unwritable}");

    let missing = dir.join("absent.csnp").to_string_lossy().into_owned();
    let status = fi_top(&["--resume", &missing], &input);
    assert_eq!(status.code(), Some(3), "--resume {missing}");
    std::fs::remove_dir_all(&dir).ok();
}
