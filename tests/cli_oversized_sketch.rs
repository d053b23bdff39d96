//! `fi` with a sketch too large to build. A 9 × 1 048 576 sketch
//! snapshots to up to 95 551 532 bytes (ten bytes a counter in the
//! worst case), over the 64 MiB payload limit:
//! `fi ship` and `fi serve` must refuse it as a bad invocation (exit 2),
//! before sketching or binding anything, and never panic (exit 101).
//! The other commands refuse a bucket count the hash field cannot draw
//! and a sketch over the `MAX_CELLS` policy limit the same way, never
//! panicking (101) or aborting on a failed allocation (134).

use std::process::Command;

#[test]
fn serve_and_ship_reject_a_sketch_no_frame_can_carry() {
    let dir = std::env::temp_dir().join(format!("fi-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("tiny.txt");
    std::fs::write(&input, "a b a\n").unwrap();
    let sketch = ["--sites", "1", "-t", "9", "-b", "1048576"];
    let serve = Command::new(env!("CARGO_BIN_EXE_fi"))
        .args(["serve", "--listen", "127.0.0.1:0", "--deadline-ms", "200"])
        .args(sketch)
        .output()
        .unwrap();
    let ship = Command::new(env!("CARGO_BIN_EXE_fi"))
        .args([
            "ship",
            "--to",
            "127.0.0.1:9",
            "--site-id",
            "0",
            "--timeout-ms",
            "200",
        ])
        .args(sketch)
        .arg(&input)
        .output()
        .unwrap();
    for (name, out) in [("serve", serve), ("ship", ship)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fi {name}: {stderr}");
        assert!(
            stderr.contains("up to 95551532 bytes"),
            "fi {name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "fi {name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sketching_commands_reject_geometry_over_the_cell_limit() {
    let dir = std::env::temp_dir().join(format!("fi-geometry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("tiny.txt");
    std::fs::write(&input, "a b a\n").unwrap();
    for flags in [
        &["-t", "3", "-b", "4611686018427387904"][..],
        &["-b", "2305843009213693951"],
        &["-b", "2305843009213693950"],
        &["-b", "1000000000000"],
    ] {
        for (cmd, files) in [("top", 1), ("diff", 2), ("iceberg", 1), ("coordinate", 1)] {
            let out = Command::new(env!("CARGO_BIN_EXE_fi"))
                .arg(cmd)
                .args(flags)
                .args(std::iter::repeat_n(&input, files))
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "fi {cmd} {flags:?}: {stderr}");
            assert!(stderr.contains("-b "), "fi {cmd} {flags:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "fi {cmd} {flags:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
