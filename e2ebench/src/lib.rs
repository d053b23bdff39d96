//! End-to-end benchmark of the `fi` CLI with per-layer attribution.
//!
//! [`run`] builds `fi` from the checkout, generates one workload's inputs
//! from the seed, runs `fi` in a closed loop for the requested time,
//! checks every report against the exact oracle, and returns the
//! provenance and result lines. With tracing on, every loop iteration
//! also replays the job in-process ([`trace`]) and the result carries the
//! per-layer metrics instead. README.md describes workloads and metrics.

pub mod child;
pub mod gen;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workload;

use metrics::{json_str, median, END_TO_END, PER_LAYER};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, NAMES};

/// Jobs a run measures at least, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// Empty-input runs per job of a batch workload, sampled for `setup_s`.
const SETUP_REPS: usize = 1;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' (one of {})",
                NAMES.join(", ")
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Counts and samples gathered over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    walls: Vec<f64>,
    setups: Vec<f64>,
    peaks_mib: Vec<f64>,
    /// The run's first report; every later one must equal it.
    first: Option<String>,
    /// `(topk_recall, count_accuracy)` of the first report.
    quality: (f64, f64),
    traces: Vec<trace::Trace>,
}

impl Tally {
    fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        eprintln!("e2ebench: {what}: {err}");
    }
}

/// Runs the benchmark; returns the provenance line and the result line.
pub fn run(args: &Args) -> Result<[String; 2], String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark has no parent directory")?
        .to_path_buf();
    let fi = build_fi(&root)?;
    let work = WorkDir::create(&root, &args.workload)?;
    let mut w = Workload::generate(&args.workload, args.seed, work.path(), 1.0)
        .map_err(|e| format!("generating inputs: {e}"))?;
    if let workload::Job::Ship { .. } = w.job {
        let reference = w.coordinate(&fi, &root)?;
        w.check(&reference)
            .map_err(|e| format!("fi coordinate: {e}"))?;
        w.reference = Some(reference);
    }
    let mut t = Tally::default();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut jobs = 0;
    while jobs < MIN_JOBS || started.elapsed() < budget {
        jobs += 1;
        measure_job(&w, &fi, &root, &mut t);
        if args.trace {
            trace_job(&w, &mut t);
        }
    }
    let values = if args.trace {
        layer_metrics(&t)
    } else {
        end_to_end_metrics(&w, &t)
    };
    let correct = t.failed == 0 && !t.walls.is_empty();
    Ok([
        provenance(&root, args, &w, &t.walls),
        metrics::result_line(correct, t.attempted, t.failed, &values),
    ])
}

/// Set-up samples (batch workloads), then one checked job.
fn measure_job(w: &Workload, fi: &Path, root: &Path, t: &mut Tally) {
    for _ in 0..SETUP_REPS {
        let Some(sample) = w.run_setup(fi, root) else {
            break;
        };
        t.attempted += 1;
        match sample {
            Ok(s) => t.setups.push(s),
            Err(e) => t.fail("set-up run", &e),
        }
    }
    t.attempted += 1;
    let outcome = match w.run_job(fi, root) {
        Ok(o) => o,
        Err(e) => return t.fail("job", &e),
    };
    let rows = match w.check(&outcome.report) {
        Ok(rows) => rows,
        Err(e) => return t.fail("report check", &e),
    };
    if t.first
        .as_ref()
        .is_some_and(|first| *first != outcome.report)
    {
        return t.fail(
            "report check",
            "report differs from this run's first report",
        );
    }
    if t.first.is_none() {
        t.quality = report::quality(&rows, &w.oracle, w.k);
        t.first = Some(outcome.report);
    }
    t.walls.push(outcome.wall_s);
    t.peaks_mib.push(outcome.peak_rss_kib as f64 / 1024.0);
    t.setups.extend(outcome.setup_s);
}

/// One traced replay, whose report must equal `fi`'s.
fn trace_job(w: &Workload, t: &mut Tally) {
    t.attempted += 1;
    match trace::trace(w) {
        Ok(tr) if t.first.as_deref() == Some(tr.report.as_str()) => t.traces.push(tr),
        Ok(_) => t.fail("traced pass", "replayed report differs from fi's"),
        Err(e) => t.fail("traced pass", &e),
    }
}

fn end_to_end_metrics(w: &Workload, t: &Tally) -> Vec<(&'static str, &'static str, f64)> {
    let wall = median(&t.walls);
    let values = [
        if wall > 0.0 {
            w.tokens as f64 / wall
        } else {
            0.0
        },
        wall,
        median(&t.peaks_mib),
        median(&t.setups),
        t.quality.0,
        t.quality.1,
        1.0 - t.failed as f64 / t.attempted.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

fn layer_metrics(t: &Tally) -> Vec<(&'static str, &'static str, f64)> {
    let over_traces =
        |f: &dyn Fn(&trace::Trace) -> f64| median(&t.traces.iter().map(f).collect::<Vec<_>>());
    let traced_wall = over_traces(&|tr: &trace::Trace| tr.wall_s);
    let untraced_wall = median(&t.walls);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.wall.s" => traced_wall,
                "trace.coverage" => over_traces(&|tr: &trace::Trace| tr.coverage()),
                "trace.overhead" if untraced_wall > 0.0 => traced_wall / untraced_wall,
                "trace.overhead" => 0.0,
                _ => over_traces(&|tr: &trace::Trace| tr.get(name)),
            };
            (name, unit, value)
        })
        .collect()
}

/// The provenance record every result carries, with every job time.
fn provenance(root: &Path, args: &Args, w: &Workload, walls: &[f64]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let argvs: Vec<String> = w
        .argvs()
        .iter()
        .map(|argv| {
            let words: Vec<String> = argv.iter().map(|a| json_str(a)).collect();
            format!("[{}]", words.join(", "))
        })
        .collect();
    format!(
        "{{\"provenance\": {{\"git_rev\": {}, \"host_cores\": {cores}, \"workload\": {}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"job_s\": [{}], \
         \"input_tokens\": {}, \"input_bytes\": {}, \"fi_argv\": [{}]}}}}",
        json_str(&git_rev(root)),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        walls
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        w.tokens,
        w.bytes,
        argvs.join(", ")
    )
}

/// Builds `fi` from the checkout with `cargo build --release` and returns
/// the binary. It gets a target directory of its own under this package's:
/// the two workspaces fingerprint the shared crates differently, so one
/// directory would rebuild them on every switch.
fn build_fi(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating e2ebench: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("e2ebench is not inside a cargo target directory")?
        .join("fi-build");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "fi"])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fi failed: {status}"));
    }
    Ok(target.join("release").join("fi"))
}

/// The checked-out commit, read from `.git`; `unknown` outside a git
/// checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split(' ').next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's directory for generated inputs, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, workload: &str) -> Result<Self, String> {
        let dir = root
            .join(".e2ebench-work")
            .join(format!("{workload}-{}", std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}
