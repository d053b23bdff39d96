//! Experiment scale presets.

/// Workload scale shared by all experiments.
///
/// `full()` is the scale EXPERIMENTS.md reports; `small()` keeps the same
/// code paths fast enough to run inside `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Stream length `n`.
    pub n: usize,
    /// Universe size `m`.
    pub m: usize,
    /// Monte-Carlo trials per configuration.
    pub trials: u64,
    /// Top-k size for the headline experiments.
    pub k: usize,
}

impl Scale {
    /// Test scale: seconds, not minutes.
    pub fn small() -> Self {
        Self {
            n: 20_000,
            m: 2_000,
            trials: 3,
            k: 5,
        }
    }

    /// Report scale (used by the harness by default).
    pub fn full() -> Self {
        Self {
            n: 1_000_000,
            m: 100_000,
            trials: 5,
            k: 20,
        }
    }

    /// A scale with overridden stream length.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }
}

/// Default filename for a harness artifact at a given scale.
///
/// Full-scale runs own the committed `{stem}.{ext}` artifacts
/// (`BENCH_throughput.json`, `results/fault_matrix.txt`, …); `--small`
/// runs get `{stem}.small.{ext}` so a CI smoke sweep can never clobber
/// the committed full-scale numbers. `--bench-json` still overrides
/// either default explicitly.
pub fn artifact_path(stem: &str, ext: &str, small: bool) -> String {
    if small {
        format!("{stem}.small.{ext}")
    } else {
        format!("{stem}.{ext}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let s = Scale::small();
        let f = Scale::full();
        assert!(s.n < f.n);
        assert!(s.m < f.m);
        assert!(s.k >= 1 && f.k >= 1);
        assert!(s.trials >= 1);
    }

    #[test]
    fn with_n_overrides() {
        assert_eq!(Scale::small().with_n(42).n, 42);
    }

    /// Regression check for the `harness all --small` clobber bug: a
    /// small-scale run must never resolve to a committed full-scale
    /// artifact path.
    #[test]
    fn small_artifacts_never_collide_with_committed_ones() {
        for stem in ["BENCH_throughput", "BENCH_parallel"] {
            let full = artifact_path(stem, "json", false);
            let small = artifact_path(stem, "json", true);
            assert_eq!(full, format!("{stem}.json"));
            assert_eq!(small, format!("{stem}.small.json"));
            assert_ne!(full, small);
        }
        assert_eq!(
            artifact_path("results/fault_matrix", "txt", true),
            "results/fault_matrix.small.txt"
        );
    }
}
