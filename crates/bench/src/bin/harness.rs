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
//!   query             read-path ESTIMATE throughput (scalar/batch × depth)
//!   fault-matrix      recovery + merged accuracy vs failed sites over loopback TCP
//!   report            re-render stored --records JSONL as tables
//!   check-throughput  compare a BENCH_throughput.json against a baseline
//!   check-parallel    gate a BENCH_parallel.json: regression + 4-thread speedup
//!   check-query       gate a BENCH_query.json: regression + 2x batch kernel speedup
//!   all               every experiment above
//! ```
//!
//! `--small` runs the reduced test-scale workload (seconds instead of
//! minutes). `--records <path>` appends JSON-line records for each data
//! point. The throughput, parallel and query experiments additionally
//! write a machine-readable `BENCH_throughput.json` /
//! `BENCH_parallel.json` / `BENCH_query.json` (default: current
//! directory; override with `--bench-json <path>`). Under `--small` the
//! defaults become `BENCH_*.small.json`: the committed full-scale
//! artifacts are only ever written by a full-scale run, so a CI smoke
//! sweep (`harness all --small`) cannot clobber them.
//!
//! `check-throughput` is the CI regression gate:
//!
//! ```text
//! harness check-throughput [--baseline ci/throughput_baseline.json]
//!                          [--current BENCH_throughput.json]
//!                          [--algorithm count-sketch] [--tolerance 0.2]
//! ```
//!
//! exits non-zero if the algorithm's update throughput in `--current`
//! falls more than `tolerance` below the baseline, or if `--current` was
//! benchmarked at a different git revision than the checkout (stale
//! numbers must never pass a gate — regenerate them at HEAD).
//!
//! `check-parallel` gates the scaling sweep the same way:
//!
//! ```text
//! harness check-parallel [--baseline ci/parallel_baseline.json]
//!                        [--current BENCH_parallel.json]
//!                        [--tolerance 0.5] [--min-speedup 1.7]
//! ```
//!
//! fails on a stale git revision, on a 1-thread pool regression beyond
//! `--tolerance`, and — only when the benchmarked host had ≥ 4 cores —
//! on a pool 4-thread/1-thread speedup below `--min-speedup`. On smaller
//! hosts the speedup gate prints a loud warning instead of arming, since
//! parallel speedup on a 1-core box is noise.
//!
//! `check-query` gates the read path:
//!
//! ```text
//! harness check-query [--baseline ci/query_baseline.json]
//!                     [--current BENCH_query.json]
//!                     [--tolerance 0.5] [--min-ratio 2.0]
//! ```
//!
//! fails on a stale git revision, on a scalar `t = 5` Zipf-mix
//! regression beyond `--tolerance`, and on a batch/scalar kernel ratio
//! at `t = 5` below `--min-ratio`. The ratio gate is *always* armed: it
//! compares two single-threaded paths over the same probes in the same
//! process, so unlike parallel speedup it is meaningful on any host.

use cs_bench::experiments::{
    ablation, approxtop, crossover, error_curves, fault_matrix, hierarchical, list_size, maxchange,
    parallel, payload, query, table1, throughput, ExperimentOutput,
};
use cs_bench::{artifact_path, Scale};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: harness <table1|table1-theory|error-vs-b|error-vs-t|approxtop|maxchange|space-vs-payload|crossover|ablation|list-size|hierarchical|throughput|parallel|query|fault-matrix|report|check-throughput|check-parallel|check-query|all> [--small] [--records <path>] [--bench-json <path>]"
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

/// Reads a file or exits loudly.
fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// Fails loudly when `path`'s recorded `git_rev` differs from the
/// checkout's HEAD: a gate that passes on stale numbers is worse than no
/// gate, because it certifies a revision nobody benchmarked. Outside a
/// checkout (rev `unknown`) the check degrades to a warning.
fn assert_fresh_rev(path: &str, text: &str) {
    let head = git_rev();
    if head == "unknown" {
        eprintln!("warning: not in a git checkout; cannot verify {path} is fresh");
        return;
    }
    match throughput::parse_git_rev(text) {
        Some(rev) if rev == head => {}
        Some(rev) => {
            eprintln!(
                "FAIL: {path} was benchmarked at git rev {rev} but HEAD is {head}; \
                 stale numbers cannot pass a gate — regenerate the file at HEAD"
            );
            std::process::exit(1);
        }
        None => {
            eprintln!("FAIL: {path} has no git_rev header; regenerate it with the harness");
            std::process::exit(1);
        }
    }
}

/// `check-throughput`: compares the `count-sketch` (or `--algorithm`)
/// update rate in `--current` against `--baseline`, failing the process
/// if it regressed by more than `--tolerance` (fraction, default 0.2) or
/// if `--current` is stale with respect to HEAD.
fn check_throughput(args: &[String]) -> ! {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = get("--baseline").unwrap_or_else(|| "ci/throughput_baseline.json".into());
    let current_path = get("--current").unwrap_or_else(|| "BENCH_throughput.json".into());
    let algorithm = get("--algorithm").unwrap_or_else(|| "count-sketch".into());
    let tolerance: f64 = get("--tolerance")
        .map(|s| s.parse().expect("--tolerance must be a number"))
        .unwrap_or(0.2);
    let current_text = read_or_die(&current_path);
    assert_fresh_rev(&current_path, &current_text);
    let baseline = throughput::parse_bench_json(&read_or_die(&baseline_path));
    let current = throughput::parse_bench_json(&current_text);
    let pick = |map: &std::collections::BTreeMap<String, f64>, path: &str| {
        *map.get(&algorithm).unwrap_or_else(|| {
            eprintln!("no '{algorithm}' record in {path}");
            std::process::exit(1);
        })
    };
    let base = pick(&baseline, &baseline_path);
    let cur = pick(&current, &current_path);
    let floor = base * (1.0 - tolerance);
    if cur < floor {
        eprintln!(
            "FAIL: {algorithm} update throughput {cur:.1} Mops/s is below \
             {floor:.1} Mops/s ({:.0}% tolerance on baseline {base:.1})",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "ok: {algorithm} update throughput {cur:.1} Mops/s >= {floor:.1} Mops/s \
         ({:.0}% tolerance on baseline {base:.1})",
        tolerance * 100.0
    );
    std::process::exit(0);
}

/// `check-parallel`: the scaling-sweep gate. Three checks, in order:
/// `--current` must have been benchmarked at HEAD; the 1-thread pool
/// rate must be within `--tolerance` of the baseline (the pool's serial
/// overhead must not creep); and on hosts with ≥ 4 cores the pool's
/// 4-thread/1-thread speedup must reach `--min-speedup`. The speedup
/// gate deliberately compares the pool against *itself* at 1 thread —
/// comparing against plain sequential would conflate channel overhead
/// (gated separately via the baseline) with scaling.
fn check_parallel(args: &[String]) -> ! {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = get("--baseline").unwrap_or_else(|| "ci/parallel_baseline.json".into());
    let current_path = get("--current").unwrap_or_else(|| "BENCH_parallel.json".into());
    let tolerance: f64 = get("--tolerance")
        .map(|s| s.parse().expect("--tolerance must be a number"))
        .unwrap_or(0.5);
    let min_speedup: f64 = get("--min-speedup")
        .map(|s| s.parse().expect("--min-speedup must be a number"))
        .unwrap_or(1.7);
    let current_text = read_or_die(&current_path);
    assert_fresh_rev(&current_path, &current_text);
    let baseline = parallel::parse_bench_json(&read_or_die(&baseline_path));
    let current = parallel::parse_bench_json(&current_text);
    let pick = |map: &std::collections::BTreeMap<String, f64>, key: &str, path: &str| {
        *map.get(key).unwrap_or_else(|| {
            eprintln!("no '{key}' record in {path}");
            std::process::exit(1);
        })
    };
    let base1 = pick(&baseline, "pool@1", &baseline_path);
    let cur1 = pick(&current, "pool@1", &current_path);
    let floor = base1 * (1.0 - tolerance);
    if cur1 < floor {
        eprintln!(
            "FAIL: pool 1-thread ingest {cur1:.1} Mops/s is below {floor:.1} Mops/s \
             ({:.0}% tolerance on baseline {base1:.1})",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "ok: pool 1-thread ingest {cur1:.1} Mops/s >= {floor:.1} Mops/s \
         ({:.0}% tolerance on baseline {base1:.1})",
        tolerance * 100.0
    );
    let cores = parallel::parse_host_cores(&current_text).unwrap_or(1);
    if cores >= 4 {
        let cur4 = pick(&current, "pool@4", &current_path);
        let speedup = cur4 / cur1;
        if speedup < min_speedup {
            eprintln!(
                "FAIL: pool 4-thread speedup {speedup:.2}x ({cur4:.1} / {cur1:.1} Mops/s) \
                 is below the required {min_speedup:.2}x on a {cores}-core host"
            );
            std::process::exit(1);
        }
        println!(
            "ok: pool 4-thread speedup {speedup:.2}x ({cur4:.1} / {cur1:.1} Mops/s) \
             >= {min_speedup:.2}x on a {cores}-core host"
        );
    } else {
        eprintln!(
            "WARNING: {current_path} was benchmarked on a {cores}-core host; the \
             {min_speedup:.2}x 4-thread speedup gate is NOT armed (needs >= 4 cores) — \
             parallel speedup measured on an oversubscribed box is noise, not signal"
        );
    }
    std::process::exit(0);
}

/// `check-query`: the read-path gate. Three checks, in order:
/// `--current` must have been benchmarked at HEAD; the scalar `t = 5`
/// Zipf-mix rate must be within `--tolerance` of the baseline (the
/// baseline read path must not creep); and the batch/scalar ratio at
/// `t = 5` must reach `--min-ratio` (default 2.0) — the batched kernel's
/// reason to exist, measured within one process so it is armed on every
/// host.
fn check_query(args: &[String]) -> ! {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = get("--baseline").unwrap_or_else(|| "ci/query_baseline.json".into());
    let current_path = get("--current").unwrap_or_else(|| "BENCH_query.json".into());
    let tolerance: f64 = get("--tolerance")
        .map(|s| s.parse().expect("--tolerance must be a number"))
        .unwrap_or(0.5);
    let min_ratio: f64 = get("--min-ratio")
        .map(|s| s.parse().expect("--min-ratio must be a number"))
        .unwrap_or(2.0);
    let current_text = read_or_die(&current_path);
    assert_fresh_rev(&current_path, &current_text);
    let baseline = query::parse_bench_json(&read_or_die(&baseline_path));
    let current = query::parse_bench_json(&current_text);
    let pick = |map: &std::collections::BTreeMap<String, f64>, key: &str, path: &str| {
        *map.get(key).unwrap_or_else(|| {
            eprintln!("no '{key}' record in {path}");
            std::process::exit(1);
        })
    };
    let base_scalar = pick(&baseline, "scalar-zipf@5", &baseline_path);
    let cur_scalar = pick(&current, "scalar-zipf@5", &current_path);
    let floor = base_scalar * (1.0 - tolerance);
    if cur_scalar < floor {
        eprintln!(
            "FAIL: scalar t=5 query throughput {cur_scalar:.1} Mops/s is below \
             {floor:.1} Mops/s ({:.0}% tolerance on baseline {base_scalar:.1})",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "ok: scalar t=5 query throughput {cur_scalar:.1} Mops/s >= {floor:.1} Mops/s \
         ({:.0}% tolerance on baseline {base_scalar:.1})",
        tolerance * 100.0
    );
    let cur_batch = pick(&current, "batch-zipf@5", &current_path);
    let ratio = cur_batch / cur_scalar;
    if ratio < min_ratio {
        eprintln!(
            "FAIL: batch/scalar kernel ratio {ratio:.2}x ({cur_batch:.1} / {cur_scalar:.1} \
             Mops/s) at t=5 is below the required {min_ratio:.2}x"
        );
        std::process::exit(1);
    }
    println!(
        "ok: batch/scalar kernel ratio {ratio:.2}x ({cur_batch:.1} / {cur_scalar:.1} Mops/s) \
         at t=5 >= {min_ratio:.2}x"
    );
    std::process::exit(0);
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
        "query" => Some(query::run(scale)),
        "fault-matrix" => Some(fault_matrix::run(scale)),
        _ => None,
    }
}

const ALL: [&str; 15] = [
    "throughput",
    "parallel",
    "query",
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
    if experiment == "check-throughput" {
        check_throughput(&args[1..]);
    }
    if experiment == "check-parallel" {
        check_parallel(&args[1..]);
    }
    if experiment == "check-query" {
        check_query(&args[1..]);
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
        let bench_json_payload = match name {
            "throughput" => Some((
                artifact_path("BENCH_throughput", "json", small),
                throughput::bench_json(&out, &scale, &git_rev()),
            )),
            "parallel" => Some((
                artifact_path("BENCH_parallel", "json", small),
                parallel::bench_json(&out, &scale, &git_rev(), parallel::host_cores()),
            )),
            "query" => Some((
                artifact_path("BENCH_query", "json", small),
                query::bench_json(&out, &scale, &git_rev()),
            )),
            _ => None,
        };
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
