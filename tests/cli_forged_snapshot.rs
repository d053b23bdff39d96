//! `fi` run as a process on a forged snapshot. A CRC-valid snapshot with
//! a hostile field may give a typed error (exit 4) or a normal run,
//! never a panic (exit 101).

use std::process::Command;

fn fi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fi"))
}

#[test]
fn forged_tracker_capacity_is_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("fi-forged-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.txt");
    let text: String = (0..3000u64)
        .map(|i| format!("w{} ", (i * i) % 97))
        .collect();
    std::fs::write(&input, text).unwrap();
    let snap = dir.join("s.csnp");
    let out = fi()
        .args(["top", "-k", "777", "--snapshot"])
        .arg(&snap)
        .arg(&input)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Header: magic, version, kind, combiner (u32 each), then rows,
    // buckets, seed (u64 each); counters and saturation words follow,
    // then the heap policy (u32) and the tracker capacity (u64).
    let mut bytes = std::fs::read(&snap).unwrap();
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let cells = field(16) * field(24);
    let at = 40 + cells * 8 + cells.div_ceil(64) * 8 + 4;
    assert_eq!(bytes[at..at + 8], 777u64.to_le_bytes());
    bytes[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
    let n = bytes.len();
    let crc = frequent_items::hash::crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();

    for args in [&["top", "--resume"][..], &["inspect"][..]] {
        let mut cmd = fi();
        cmd.args(args).arg(&snap);
        if args[0] == "top" {
            cmd.arg(&input);
        }
        let out = cmd.output().unwrap();
        let code = out.status.code();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(code, Some(101), "fi {args:?} panicked: {stderr}");
        assert!(
            matches!(code, Some(0) | Some(4)),
            "fi {args:?} exited {code:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
