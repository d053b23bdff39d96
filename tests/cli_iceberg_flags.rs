//! `fi iceberg` with a threshold its processor cannot take: `--phi`
//! at or below the default `--eps` (0.002) is a bad invocation (exit 2)
//! named at argument parsing, never a panic (exit 101).

use std::process::Command;

#[test]
fn iceberg_rejects_phi_below_eps_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("fi-iceberg-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("tiny.txt");
    std::fs::write(&input, "a b a\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fi"))
        .args(["iceberg", "--phi", "0.001"])
        .arg(&input)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--eps"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
