//! The experiment harness: one subcommand per table/figure.
//!
//! ```text
//! harness <experiment> [--small] [--records <path>] [--bench-json <path>]
//!
//! experiments:
//!   table1            empirical Table 1 (SAMPLING / KPS / Count-Sketch / Space-Saving)
//!   table1-theory     the paper's analytic Table 1 on the same grid
//!   error-vs-b        Lemma 4: estimate error against the 8γ bound, sweeping b
//!   error-vs-t        Lemma 3: failure-rate decay, sweeping t
//!   approxtop         Lemma 5: APPROXTOP guarantee vs bucket provisioning
//!   maxchange         §4.2: two-pass max-change on planted query streams
//!   space-vs-payload  §5: total space including stored objects, sweeping Φ
//!   crossover         SAMPLING/Count-Sketch min-space ratio on a fine z grid
//!   ablation          combiner / sign-hash / heap-policy / hash-family ablations
//!   list-size         §4.1's candidate-list-size formula vs measured minimum
//!   hierarchical      1-pass hierarchical max-change vs the 2-pass §4.2 algorithm
//!   throughput        update/query throughput of every algorithm
//!   parallel          multi-core ingestion scaling sweep (sequential vs pool)
//!   fault-matrix      recovery + merged accuracy vs failed sites over loopback TCP
//!   report            re-render stored --records JSONL as tables
//!   check-throughput  gate a BENCH_throughput.json: update + query regression
//!   check-parallel    gate a BENCH_parallel.json: regression + 4-thread speedup
//!   all               every experiment above
//! ```
//!
//! `--small` runs the reduced test-scale workload (seconds instead of
//! minutes). `--records <path>` appends JSON-line records for each data
//! point. The throughput and parallel experiments additionally write a
//! machine-readable `BENCH_throughput.json` / `BENCH_parallel.json`
//! (default: current directory; override with `--bench-json <path>`). Under `--small` the
//! defaults become `BENCH_*.small.json`: the committed full-scale
//! artifacts are only ever written by a full-scale run, so a CI smoke
//! sweep (`harness all --small`) cannot clobber them.
//!
//! The two gates share one path (`cs_bench::gate`): each refuses a
//! `--current` file benchmarked at another git revision than HEAD
//! (stale numbers must never pass a gate — regenerate them at HEAD),
//! checks one row against `--baseline` within `--tolerance`, and exits
//! non-zero on any failure:
//!
//! ```text
//! harness check-throughput [--baseline ci/throughput_baseline.json]
//!                          [--current BENCH_throughput.json]
//!                          [--algorithm count-sketch] [--tolerance 0.2]
//! harness check-parallel   [--baseline ci/parallel_baseline.json]
//!                          [--current BENCH_parallel.json]
//!                          [--tolerance 0.5] [--min-speedup 1.7]
//! ```
//!
//! `check-throughput` floors the row's update and query rates (the
//! scalar `estimate` for the `count-sketch` row). `check-parallel` also
//! requires a pool 4-thread/1-thread speedup of at least
//! `--min-speedup`, armed only when the benchmarked host had ≥ 4 cores
//! (on smaller hosts it warns).

use cs_bench::experiments::{
    ablation, approxtop, crossover, error_curves, fault_matrix, hierarchical, list_size, maxchange,
    parallel, payload, table1, throughput, ExperimentOutput,
};
use cs_bench::gate::{self, Note};
use cs_bench::{artifact_path, bench_file, Scale};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: harness <table1|table1-theory|error-vs-b|error-vs-t|approxtop|maxchange|space-vs-payload|crossover|ablation|list-size|hierarchical|throughput|parallel|fault-matrix|report|check-throughput|check-parallel|all> [--small] [--records <path>] [--bench-json <path>]"
    );
    std::process::exit(2);
}

/// The current short git revision, or `"unknown"` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run_experiment(name: &str, scale: &Scale) -> Option<ExperimentOutput> {
    match name {
        "table1" => Some(table1::run(scale, &table1::DEFAULT_ZS)),
        "table1-theory" => Some(table1::run_theory(scale, &table1::DEFAULT_ZS)),
        "error-vs-b" => Some(error_curves::run_error_vs_b(
            scale,
            7,
            &error_curves::DEFAULT_BS,
        )),
        "error-vs-t" => Some(error_curves::run_error_vs_t(
            scale,
            1024,
            &error_curves::DEFAULT_TS,
        )),
        "approxtop" => Some(approxtop::run(scale, &[0.75, 1.0, 1.25], &[0.1, 0.25, 0.5])),
        "maxchange" => Some(maxchange::run(scale, &[256, 1024, 4096], &[1, 2, 4])),
        "space-vs-payload" => Some(payload::run(scale, &payload::DEFAULT_PAYLOADS)),
        "crossover" => Some(crossover::run(scale, &crossover::DEFAULT_ZS)),
        "ablation" => Some(ablation::run(scale)),
        "list-size" => Some(list_size::run(scale, &[0.6, 0.8, 1.0, 1.25, 1.5], 0.5)),
        "hierarchical" => Some(hierarchical::run(scale, &[256, 1024, 4096])),
        "throughput" => Some(throughput::run(scale)),
        "parallel" => Some(parallel::run(scale)),
        "fault-matrix" => Some(fault_matrix::run(scale)),
        _ => None,
    }
}

const ALL: [&str; 14] = [
    "throughput",
    "parallel",
    "fault-matrix",
    "hierarchical",
    "list-size",
    "table1",
    "table1-theory",
    "error-vs-b",
    "error-vs-t",
    "approxtop",
    "maxchange",
    "space-vs-payload",
    "crossover",
    "ablation",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].as_str();
    if let Some(notes) = gate::check(experiment, &args[1..], &git_rev()) {
        let mut passed = true;
        for note in notes {
            match note {
                Note::Ok(line) => println!("{line}"),
                Note::Warn(line) => eprintln!("{line}"),
                Note::Fail(line) => {
                    eprintln!("{line}");
                    passed = false;
                }
            }
        }
        std::process::exit(if passed { 0 } else { 1 });
    }
    // `harness report --records <path>` re-renders stored records
    // without running anything.
    if experiment == "report" {
        let path = args
            .iter()
            .position(|a| a == "--records")
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| {
                eprintln!("usage: harness report --records <path>");
                std::process::exit(2);
            });
        let jsonl = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        print!("{}", cs_metrics::report::render_report(&jsonl));
        return;
    }
    let small = args.iter().any(|a| a == "--small");
    let records_path = args
        .iter()
        .position(|a| a == "--records")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let scale = if small { Scale::small() } else { Scale::full() };

    let names: Vec<&str> = if experiment == "all" {
        ALL.to_vec()
    } else {
        vec![experiment]
    };

    let mut records_file = records_path.map(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&p)
            .unwrap_or_else(|e| panic!("cannot open {p}: {e}"))
    });

    for name in names {
        eprintln!(
            "[harness] running {name} (scale: {})",
            if small { "small" } else { "full" }
        );
        let start = std::time::Instant::now();
        let Some(out) = run_experiment(name, &scale) else {
            usage();
        };
        println!("{}", out.render());
        eprintln!("[harness] {name} finished in {:.1?}", start.elapsed());
        if let Some(f) = records_file.as_mut() {
            for r in &out.records {
                writeln!(f, "{}", r.to_json_line()).expect("write records");
            }
        }
        // Defaults go through `artifact_path` so `--small` runs write
        // `BENCH_*.small.json` and can never overwrite the committed
        // full-scale artifacts (the `harness all --small` clobber bug).
        let header = match name {
            "throughput" => Some(throughput::bench_header(&scale)),
            "parallel" => Some(parallel::bench_header(&scale)),
            _ => None,
        };
        let bench_json_payload = header.map(|header| {
            (
                artifact_path(&format!("BENCH_{name}"), "json", small),
                bench_file::write(name, &git_rev(), &header, &out.records),
            )
        });
        if let Some((default_path, json)) = bench_json_payload {
            let path = args
                .iter()
                .position(|a| a == "--bench-json")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or(default_path);
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("[harness] wrote {path}");
        }
    }
}
