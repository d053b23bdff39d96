//! `fi` run as a process on text split by Unicode whitespace. The
//! fixtures `tests/fixtures/unicode_day{1,2}.txt` separate multi-byte
//! tokens (U+200B inside a token, decomposed and precomposed `é`, CJK,
//! emoji, a 0x1C control byte) with every kind of whitespace `fi`
//! splits on. The `.out` files are the reports the `split_whitespace`
//! tokenizer produced (commit 5b927d0); the byte scanner must print
//! the same bytes.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fi(args: &[&str], files: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_fi"))
        .args(args)
        .args(files.iter().map(|f| fixture(f)))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "fi {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_golden(args: &[&str], files: &[&str], expected: &str) {
    let got = fi(args, files);
    let want = std::fs::read(fixture(expected)).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want),
        "fi {args:?} differs from {expected}"
    );
    assert_eq!(got, want);
}

#[test]
fn fixture_has_the_whitespace_it_claims() {
    let text = std::fs::read_to_string(fixture("unicode_day1.txt")).unwrap();
    for ws in [
        '\u{0B}', '\u{85}', '\u{A0}', '\u{1680}', '\u{2003}', '\u{2028}', '\u{202F}', '\u{205F}',
        '\u{3000}',
    ] {
        assert!(text.contains(ws), "fixture lacks {ws:?}");
    }
    assert!(text.contains("a\u{200B}b"));
}

#[test]
fn top_matches_golden() {
    assert_golden(&["top"], &["unicode_day1.txt"], "unicode_top.out");
}

#[test]
fn threaded_top_matches_golden() {
    assert_golden(
        &["top", "--threads", "2"],
        &["unicode_day1.txt"],
        "unicode_top_threads2.out",
    );
}

#[test]
fn iceberg_matches_golden() {
    assert_golden(&["iceberg"], &["unicode_day1.txt"], "unicode_iceberg.out");
}

#[test]
fn diff_matches_golden() {
    assert_golden(
        &["diff"],
        &["unicode_day1.txt", "unicode_day2.txt"],
        "unicode_diff.out",
    );
}

#[test]
fn invalid_utf8_is_corrupt_input_with_its_offset() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_fi"))
        .arg("top")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"a \xff b").unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("byte offset 2"), "{stderr}");
    assert!(out.stdout.is_empty());
}
