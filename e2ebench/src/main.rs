//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the provenance line and then the result line; see README.md.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Helper for the peak-RSS self-test: allocate and touch N MiB, exit.
    if let [flag, mib] = argv.as_slice() {
        if flag == "--alloc-mib" {
            return match mib.parse() {
                Ok(mib) => {
                    e2ebench::child::touch_memory(mib);
                    ExitCode::SUCCESS
                }
                Err(_) => ExitCode::from(2),
            };
        }
    }
    match e2ebench::Args::parse(&argv).and_then(|args| e2ebench::run(&args)) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
