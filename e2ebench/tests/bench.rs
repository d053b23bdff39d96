//! The benchmark's own tests: peak-RSS capture, input determinism, the
//! metric names against `BENCHMARK.json`, and trace coverage at small
//! scale.

use e2ebench::workload::{Workload, NAMES};
use e2ebench::{child, metrics, trace};
use std::fs;
use std::path::{Path, PathBuf};

/// Input sizes in tests, as a share of the benchmark's.
const SMALL: f64 = 0.01;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create a test directory");
    dir
}

#[test]
fn peak_rss_tracks_a_child_of_known_allocation() {
    let exe = Path::new(env!("CARGO_BIN_EXE_e2ebench"));
    let cwd = Path::new(env!("CARGO_MANIFEST_DIR"));
    let peak_mib = |mib: usize| {
        let done = child::run(exe, &["--alloc-mib".to_string(), mib.to_string()], cwd).unwrap();
        assert!(done.status.success(), "{}", done.stderr);
        done.peak_rss_kib / 1024
    };
    let small = peak_mib(4);
    let big = peak_mib(96);
    assert!(
        (96..96 + 24).contains(&big),
        "a 96 MiB child peaked at {big} MiB"
    );
    assert!(small < 4 + 24, "a 4 MiB child peaked at {small} MiB");
}

#[test]
fn inputs_depend_only_on_the_seed() {
    for name in NAMES {
        let dirs: Vec<PathBuf> = ["a", "b", "c"]
            .iter()
            .map(|d| scratch(&format!("seed-{name}-{d}")))
            .collect();
        for (dir, seed) in dirs.iter().zip([5, 5, 6]) {
            Workload::generate(name, seed, dir, SMALL).unwrap();
        }
        let mut files: Vec<_> = fs::read_dir(&dirs[0])
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        files.sort();
        assert!(!files.is_empty());
        let sorted_lines = |bytes: &[u8]| {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
            lines.sort_unstable();
            lines
        };
        for file in files {
            let read = |dir: &Path| fs::read(dir.join(&file)).unwrap();
            let (a, b, c) = (read(&dirs[0]), read(&dirs[1]), read(&dirs[2]));
            assert_eq!(a, b, "{name}/{file:?}: one seed gave two inputs");
            assert_eq!(
                sorted_lines(&a),
                sorted_lines(&c),
                "{name}/{file:?}: tokens changed"
            );
            if !a.is_empty() {
                assert_ne!(a, c, "{name}/{file:?}: another seed kept the order");
            }
        }
    }
}

/// The `(name, unit)` pairs of one array of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let open = start + json[start..].find('[').unwrap();
    let close = open + json[open..].find(']').unwrap();
    json[open..close]
        .split('}')
        .filter(|object| object.contains("\"name\""))
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

/// A string field of one JSON object (empty when absent).
fn field(object: &str, key: &str) -> String {
    let Some(at) = object.find(&format!("\"{key}\"")) else {
        return String::new();
    };
    let rest = &object[at + key.len() + 2..];
    let open = rest.find('"').unwrap() + 1;
    let len = rest[open..].find('"').unwrap();
    rest[open..open + len].to_string()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = fs::read_to_string(path).unwrap();
    let workloads: Vec<String> = listed(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, NAMES);
    for (key, printed) in [
        ("end_to_end", &metrics::END_TO_END[..]),
        ("per_layer", &metrics::PER_LAYER[..]),
    ] {
        let expected: Vec<(String, String)> = printed
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&json, key), expected, "{key}");
        let values: Vec<(&str, &str, f64)> = printed.iter().map(|&(n, u)| (n, u, 0.5)).collect();
        let line = metrics::result_line(true, 1, 0, &values);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for (n, u) in printed {
            let entry = format!("\"{n}\": {{\"value\": 0.5, \"unit\": \"{u}\"}}");
            assert!(line.contains(&entry), "{line}");
        }
    }
}

#[test]
fn traced_layers_cover_the_wall_time_at_small_scale() {
    for name in NAMES {
        let dir = scratch(&format!("trace-{name}"));
        let w = Workload::generate(name, 3, &dir, SMALL).unwrap();
        let t = trace::trace(&w).unwrap();
        w.check(&t.report).unwrap_or_else(|e| panic!("{name}: {e}"));
        let coverage = t.coverage();
        assert!(
            (0.9..=1.0 + 1e-9).contains(&coverage),
            "{name}: coverage {coverage}"
        );
        for (metric, unit) in metrics::PER_LAYER {
            if unit == "s" && !metric.starts_with("trace.") {
                assert!(t.get(metric) > 0.0, "{name}: {metric} was not measured");
            }
        }
    }
}
