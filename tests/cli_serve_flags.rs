//! `fi serve` and `fi ship` collect on one clock, a deadline in
//! milliseconds: `--deadline-ms 0` and the removed `--tick-ms` are bad
//! invocations (exit 2) at argument parsing, before anything binds or
//! connects.

use std::process::Command;

#[test]
fn serve_and_ship_refuse_clock_flags_they_do_not_have() {
    for (argv, named) in [
        (
            "serve --listen 127.0.0.1:0 --deadline-ms 0",
            "--deadline-ms must be positive",
        ),
        (
            "serve --listen 127.0.0.1:0 --tick-ms 5",
            "unknown flag '--tick-ms'",
        ),
        (
            "ship --to 127.0.0.1:9 --site-id 0 --tick-ms 5",
            "unknown flag '--tick-ms'",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fi"))
            .args(argv.split(' '))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fi {argv:?}: {stderr}");
        assert!(stderr.contains(named), "fi {argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "fi {argv:?}");
    }
}
