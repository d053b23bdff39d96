//! `fi` run as a process on a forged snapshot. A CRC-valid snapshot with
//! a hostile field may give a typed error (exit 4) or a normal run,
//! never a panic (exit 101) or an abort on a failed allocation (134),
//! and `fi inspect` exits exactly as `fi top --resume` does.

use frequent_items::prelude::{inspect_snapshot_bytes, ApproxTopProcessor, CoreError, CountSketch};
use std::path::Path;
use std::process::{Command, Output};

fn fi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fi"))
}

fn field(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Offset of the first byte after a CSNP v2 snapshot's first counter
/// and saturation sections. Header: magic, version, kind, combiner (u32
/// each), then rows, buckets, seed (u64 each); then one varint per
/// counter (high bit set on every byte but the last) and one u64
/// saturation word per 64 cells.
fn after_counters(bytes: &[u8]) -> usize {
    let cells = field(bytes, 16) * field(bytes, 24);
    let mut at = 40;
    for _ in 0..cells {
        while bytes[at] & 0x80 != 0 {
            at += 1;
        }
        at += 1;
    }
    at + cells.div_ceil(64) * 8
}

/// Re-seals the trailing CRC-32 so the structural decoder, not the
/// checksum, sees a forged field.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = frequent_items::hash::crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

/// Runs `fi top --resume` and `fi inspect` on `snap`. Both read the
/// snapshot through the same decoder, so they must exit alike, and
/// never with a panic (101) or an abort (134).
fn resume_and_inspect(snap: &Path, input: &Path) -> [(&'static str, Output); 2] {
    let top = fi()
        .args(["top", "--resume"])
        .arg(snap)
        .arg(input)
        .output()
        .unwrap();
    let inspect = fi().arg("inspect").arg(snap).output().unwrap();
    let codes = [top.status.code(), inspect.status.code()];
    for (args, out) in [("top --resume", &top), ("inspect", &inspect)] {
        let code = out.status.code();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(code, Some(0) | Some(4)),
            "fi {args} exited {code:?}: {stderr}"
        );
    }
    assert_eq!(
        codes[0],
        codes[1],
        "top --resume and inspect disagree: {}",
        String::from_utf8_lossy(&[top.stderr.as_slice(), &inspect.stderr].concat())
    );
    [("top --resume", top), ("inspect", inspect)]
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

    // The counter sections are followed by the heap policy (u32), the
    // tracker capacity and the entry count (u64 each).
    let clean = std::fs::read(&snap).unwrap();
    let at = after_counters(&clean) + 4;
    assert_eq!(clean[at..at + 8], 777u64.to_le_bytes());

    // A huge capacity is well-formed: the tracker grows with its entries.
    let mut bytes = clean.clone();
    bytes[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&snap, &bytes).unwrap();
    resume_and_inspect(&snap, &input);

    // Capacity 0 with no entries: a tracker that can hold nothing.
    let mut bytes = clean[..at + 16].to_vec();
    bytes[at..at + 16].fill(0);
    bytes.extend_from_slice(&[0; 4]);
    reseal(&mut bytes);
    std::fs::write(&snap, &bytes).unwrap();
    for (args, out) in resume_and_inspect(&snap, &input) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "fi {args}: {stderr}");
        assert!(stderr.contains("capacity must be positive"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_geometry_beyond_the_bytes_present_is_rejected_before_allocation() {
    let dir = std::env::temp_dir().join(format!("fi-forged-geo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.txt");
    std::fs::write(&input, "a b a c a b\n").unwrap();
    let snap = dir.join("s.csnp");
    let out = fi()
        .args(["top", "-t", "3", "-b", "64", "--snapshot"])
        .arg(&snap)
        .arg(&input)
        .output()
        .unwrap();
    assert!(out.status.success());
    let clean = std::fs::read(&snap).unwrap();
    // 192 mostly-zero cells take about 192 bytes. Each forged geometry
    // needs more than the file holds even at one byte a counter: one
    // just past it, and 2^40 cells (8 TiB as i64), which an allocation
    // attempt would abort on.
    let present = clean.len() - 44;
    for (rows, buckets) in [(1, present as u64), (1 << 20, 1 << 20)] {
        let mut bytes = clean.clone();
        bytes[16..24].copy_from_slice(&(rows as u64).to_le_bytes());
        bytes[24..32].copy_from_slice(&buckets.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&snap, &bytes).unwrap();
        for (args, out) in resume_and_inspect(&snap, &input) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(4),
                "fi {args} {rows}x{buckets}: {stderr}"
            );
            assert!(
                stderr.contains("counter section needs at least"),
                "fi {args} {rows}x{buckets}: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_window_kind_is_a_typed_error_for_every_reader() {
    let dir = std::env::temp_dir().join(format!("fi-forged-kind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.txt");
    std::fs::write(&input, "a b a c a b\n").unwrap();
    let snap = dir.join("s.csnp");
    let out = fi()
        .args(["top", "--snapshot"])
        .arg(&snap)
        .arg(&input)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Kind 3 (the sliding window) in the header, with a valid CRC.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bytes);
    let retired = |e: CoreError| e == CoreError::CorruptSnapshot("retired snapshot kind 3".into());
    assert!(CountSketch::from_snapshot_bytes(&bytes).is_err_and(retired));
    assert!(ApproxTopProcessor::from_snapshot_bytes(&bytes).is_err_and(retired));
    assert!(inspect_snapshot_bytes(&bytes, 3).is_err_and(retired));

    std::fs::write(&snap, &bytes).unwrap();
    for (args, out) in resume_and_inspect(&snap, &input) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "fi {args}: {stderr}");
        assert!(stderr.contains("retired snapshot kind 3"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
