//! The four workloads: their seeded inputs, the `fi` commands that run
//! them, and the checks on what `fi` prints.
//!
//! Every job is a closed loop of one client: the next `fi` process starts
//! when the previous one has exited, except that ship-merge keeps up to
//! [`SHIP_LANES`] `fi ship` processes running at once.

use crate::child::{self, Finished, Proc};
use crate::gen::{self, Oracle, Shape};
use crate::report::{self, Row};
use frequent_items::hash::ItemKey;
use std::fs;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["top-zipf", "top-wide", "diff-shift", "ship-merge"];
/// The hash seed every `fi` command gets: the CLI's default, spelled out.
pub const SKETCH_SEED: u64 = 1;
/// `fi ship` processes running at once in ship-merge: one per vCPU of
/// the 2-vCPU host the benchmark was sized on.
pub const SHIP_LANES: usize = 2;
/// Sites in ship-merge.
const SITES: usize = 8;
/// Rows every report lists (`-k`).
const K: usize = 10;

/// What one job runs.
#[derive(Debug, Clone)]
pub enum Job {
    /// `fi top` over one file.
    Top {
        input: PathBuf,
        snapshot: Option<PathBuf>,
        threads: usize,
    },
    /// `fi diff` over two files.
    Diff { day1: PathBuf, day2: PathBuf },
    /// `fi serve`, then one `fi ship` per site file.
    Ship { sites: Vec<PathBuf> },
}

/// How often each token of a workload occurs.
struct Profile {
    shape: Shape,
    distinct: usize,
    z: f64,
    tokens: u64,
}

/// A workload with its inputs generated.
#[derive(Debug)]
pub struct Workload {
    pub k: usize,
    pub rows: usize,
    pub buckets: usize,
    pub job: Job,
    /// The same command on empty input, sampled for `setup_s` (batch
    /// workloads; ship-merge samples the start of `fi serve` instead).
    setup: Option<Job>,
    pub oracle: Oracle,
    /// The first line every report must have.
    header: String,
    /// `fi diff` prints exact changes, which must equal the oracle's.
    exact_values: bool,
    /// Occurrences over all input files.
    pub tokens: u64,
    /// Bytes over all input files.
    pub bytes: u64,
    /// ship-merge: the report of `fi coordinate` over the same site files,
    /// which every served report must equal byte for byte.
    pub reference: Option<String>,
}

/// One finished job.
#[derive(Debug)]
pub struct Outcome {
    pub report: String,
    pub wall_s: f64,
    /// ship-merge: from spawning `fi serve` to its listening line.
    pub setup_s: Option<f64>,
    /// The largest kernel high-water RSS over the job's `fi` processes.
    pub peak_rss_kib: u64,
}

impl Workload {
    /// Generates the inputs of workload `name` for `seed` into `dir`.
    /// `scale` multiplies every size: 1.0 in the benchmark, a small
    /// fraction in tests.
    pub fn generate(name: &str, seed: u64, dir: &Path, scale: f64) -> io::Result<Self> {
        let n = |x: f64| ((x * scale).round() as u64).max(1);
        match name {
            "top-zipf" => {
                let profile = Profile {
                    shape: Shape::Short,
                    distinct: n(1e5) as usize,
                    z: 1.1,
                    tokens: n(1.5e6),
                };
                Self::top(seed, dir, &profile, (7, 65_536), 1, true)
            }
            "top-wide" => {
                let profile = Profile {
                    shape: Shape::Url,
                    distinct: n(6e5) as usize,
                    z: 0.7,
                    tokens: n(1e6),
                };
                Self::top(seed, dir, &profile, (5, 4096), 2, false)
            }
            "diff-shift" => Self::diff(seed, dir, n(1e5) as usize, n(8e5)),
            "ship-merge" => Self::ship(seed, dir, n(1e5) as usize, n(2e6)),
            other => Err(io::Error::other(format!("unknown workload '{other}'"))),
        }
    }

    fn top(
        seed: u64,
        dir: &Path,
        p: &Profile,
        (rows, buckets): (usize, usize),
        threads: usize,
        snapshot: bool,
    ) -> io::Result<Self> {
        let counts = gen::zipf_counts(p.distinct, p.z, p.tokens, 0.5);
        let input = dir.join("input.txt");
        let bytes = gen::write_tokens(&input, p.shape, &gen::shuffled_ranks(&counts, seed))?;
        let empty = empty_file(dir)?;
        let oracle = Oracle::counts(p.shape, &counts);
        Ok(Self {
            k: K,
            rows,
            buckets,
            header: format!(
                "# top-{K} of {} occurrences ({} distinct seen, algorithm: count-sketch)",
                p.tokens,
                oracle.len()
            ),
            job: Job::Top {
                input,
                snapshot: snapshot.then(|| dir.join("state.csnp")),
                threads,
            },
            setup: Some(Job::Top {
                input: empty,
                snapshot: snapshot.then(|| dir.join("empty.csnp")),
                threads,
            }),
            oracle,
            exact_values: false,
            tokens: p.tokens,
            bytes,
            reference: None,
        })
    }

    fn diff(seed: u64, dir: &Path, distinct: usize, tokens: u64) -> io::Result<Self> {
        let day1 = gen::zipf_counts(distinct, 1.0, tokens, 0.25);
        let mut day2 = gen::zipf_counts(distinct, 1.0, tokens, 0.75);
        // The planted shift: the top 200 ranks trade places mirror-wise,
        // rank r taking the count of rank 199 - r. Elsewhere the two days
        // differ only by the sampling phase, by at most one occurrence.
        let planted = (distinct / 2).min(100) * 2;
        day2[..planted].reverse();
        let (path1, path2) = (dir.join("day1.txt"), dir.join("day2.txt"));
        let bytes = gen::write_tokens(&path1, Shape::Short, &gen::shuffled_ranks(&day1, seed))?
            + gen::write_tokens(&path2, Shape::Short, &gen::shuffled_ranks(&day2, !seed))?;
        let empty = empty_file(dir)?;
        let changes = day1
            .iter()
            .zip(&day2)
            .map(|(&a, &b)| i64::from(b) - i64::from(a));
        Ok(Self {
            k: K,
            rows: 5,
            buckets: 4096,
            header: format!("# top-{K} changes ({tokens} -> {tokens} occurrences)"),
            job: Job::Diff {
                day1: path1,
                day2: path2,
            },
            setup: Some(Job::Diff {
                day1: empty.clone(),
                day2: empty,
            }),
            oracle: Oracle::from_rank_values(Shape::Short, changes),
            exact_values: true,
            tokens: 2 * tokens,
            bytes,
            reference: None,
        })
    }

    fn ship(seed: u64, dir: &Path, distinct: usize, tokens: u64) -> io::Result<Self> {
        let counts = gen::zipf_counts(distinct, 1.0, tokens, 0.5);
        let site_of = gen::site_of_ranks(Shape::Short, distinct, SITES);
        let mut per_site = vec![Vec::new(); SITES];
        for rank in gen::shuffled_ranks(&counts, seed) {
            per_site[site_of[rank as usize]].push(rank);
        }
        let mut sites = Vec::with_capacity(SITES);
        let mut bytes = 0;
        for (i, ranks) in per_site.iter().enumerate() {
            let path = dir.join(format!("site.{i}.txt"));
            bytes += gen::write_tokens(&path, Shape::Short, ranks)?;
            sites.push(path);
        }
        Ok(Self {
            k: K,
            rows: 7,
            buckets: 65_536,
            header: format!("# top-{K} of {tokens} occurrences across {SITES} site(s)"),
            job: Job::Ship { sites },
            setup: None,
            oracle: Oracle::counts(Shape::Short, &counts),
            exact_values: false,
            tokens,
            bytes,
            reference: None,
        })
    }

    /// Runs the job once.
    pub fn run_job(&self, fi: &Path, cwd: &Path) -> Result<Outcome, String> {
        if let Job::Ship { sites } = &self.job {
            return self.run_ship(fi, cwd, sites);
        }
        let done = run_fi(fi, &self.batch_argv(&self.job), cwd)?;
        Ok(Outcome {
            report: done.stdout,
            wall_s: done.wall_s,
            setup_s: None,
            peak_rss_kib: done.peak_rss_kib,
        })
    }

    /// Runs the job's command once on empty input; returns its wall time.
    /// `None` for ship-merge, whose set-up is sampled inside each job.
    pub fn run_setup(&self, fi: &Path, cwd: &Path) -> Option<Result<f64, String>> {
        let job = self.setup.as_ref()?;
        Some(run_fi(fi, &self.batch_argv(job), cwd).map(|done| done.wall_s))
    }

    /// ship-merge: `fi coordinate` over the site files.
    pub fn coordinate(&self, fi: &Path, cwd: &Path) -> Result<String, String> {
        let Job::Ship { sites } = &self.job else {
            return Err("only ship-merge has a coordinate reference".into());
        };
        Ok(run_fi(fi, &self.coordinate_argv(sites), cwd)?.stdout)
    }

    /// Checks a report: header, row count, every item against the oracle,
    /// and (ship-merge) byte identity with `fi coordinate`. Returns the
    /// rows.
    pub fn check(&self, report: &str) -> Result<Vec<Row>, String> {
        let key_of: fn(&str) -> Option<ItemKey> = match self.job {
            Job::Ship { .. } => report::hex_key,
            _ => report::label_key,
        };
        let rows = report::parse(report, &self.header, self.k.min(self.oracle.len()), key_of)?;
        for &(key, value) in &rows {
            let exact = self.oracle.value(key);
            if self.exact_values && value != exact {
                return Err(format!(
                    "reported change {value} for {key:?}, exact {exact}"
                ));
            }
            if !self.exact_values && exact == 0 {
                return Err(format!("reported {key:?}, which never occurs"));
            }
        }
        if let Some(reference) = &self.reference {
            if report != reference {
                return Err("served report differs from fi coordinate".into());
            }
        }
        Ok(rows)
    }

    /// Every `fi` command line a run uses, for the provenance record.
    pub fn argvs(&self) -> Vec<Vec<String>> {
        match &self.job {
            Job::Ship { sites } => {
                let mut all = vec![self.serve_argv(sites.len())];
                all.extend(
                    sites
                        .iter()
                        .enumerate()
                        .map(|(i, file)| self.ship_argv(i, sites.len(), "ADDR", file)),
                );
                all.push(self.coordinate_argv(sites));
                all
            }
            job => std::iter::once(job)
                .chain(&self.setup)
                .map(|j| self.batch_argv(j))
                .collect(),
        }
    }

    fn run_ship(&self, fi: &Path, cwd: &Path, sites: &[PathBuf]) -> Result<Outcome, String> {
        let mut serve = Proc::spawn(fi, &self.serve_argv(sites.len()), cwd)
            .map_err(|e| format!("spawning fi serve: {e}"))?;
        // Held until the end, so later writes of `fi serve` to stderr land.
        let mut stderr = BufReader::new(serve.take_stderr().ok_or("fi serve has no stderr")?);
        let mut line = String::new();
        stderr
            .read_line(&mut line)
            .map_err(|e| format!("reading fi serve: {e}"))?;
        let setup_s = serve.elapsed_s();
        let addr = line
            .strip_prefix("# coordinator listening on ")
            .and_then(|rest| rest.split_once(": "))
            .map(|(addr, _)| addr.to_string())
            .ok_or_else(|| format!("fi serve did not start: {line:?}"))?;
        let started = Instant::now();
        let lanes: Vec<Result<u64, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SHIP_LANES)
                .map(|lane| {
                    let addr = addr.as_str();
                    s.spawn(move || self.ship_lane(fi, cwd, sites, lane, addr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ship lane panicked"))
                .collect()
        });
        let served = serve
            .finish()
            .map_err(|e| format!("waiting for fi serve: {e}"))?;
        let wall_s = started.elapsed().as_secs_f64();
        let mut peak_rss_kib = served.peak_rss_kib;
        for lane in lanes {
            peak_rss_kib = peak_rss_kib.max(lane?);
        }
        if !served.status.success() {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            return Err(format!(
                "fi serve exited with {}: {}",
                served.status,
                rest.trim()
            ));
        }
        Ok(Outcome {
            report: served.stdout,
            wall_s,
            setup_s: Some(setup_s),
            peak_rss_kib,
        })
    }

    /// Ships sites `lane, lane + SHIP_LANES, ...` one after another;
    /// returns the largest peak RSS among them.
    fn ship_lane(
        &self,
        fi: &Path,
        cwd: &Path,
        sites: &[PathBuf],
        lane: usize,
        addr: &str,
    ) -> Result<u64, String> {
        let mut peak = 0;
        for site in (lane..sites.len()).step_by(SHIP_LANES) {
            let done = run_fi(
                fi,
                &self.ship_argv(site, sites.len(), addr, &sites[site]),
                cwd,
            )?;
            if !done.stdout.trim_end().ends_with(": accepted") {
                return Err(format!(
                    "site {site} was not accepted: {}",
                    done.stdout.trim()
                ));
            }
            peak = peak.max(done.peak_rss_kib);
        }
        Ok(peak)
    }

    /// `-k -t -b --seed`, shared by every command.
    fn sketch_args(&self) -> Vec<String> {
        vec![
            "-k".into(),
            self.k.to_string(),
            "-t".into(),
            self.rows.to_string(),
            "-b".into(),
            self.buckets.to_string(),
            "--seed".into(),
            SKETCH_SEED.to_string(),
        ]
    }

    fn batch_argv(&self, job: &Job) -> Vec<String> {
        let mut argv = Vec::new();
        match job {
            Job::Top {
                input,
                snapshot,
                threads,
            } => {
                argv.push("top".to_string());
                argv.extend(self.sketch_args());
                if *threads > 1 {
                    argv.extend(["--threads".to_string(), threads.to_string()]);
                }
                if let Some(path) = snapshot {
                    argv.extend(["--snapshot".to_string(), path_arg(path)]);
                }
                argv.push(path_arg(input));
            }
            Job::Diff { day1, day2 } => {
                argv.push("diff".to_string());
                argv.extend(self.sketch_args());
                argv.extend([path_arg(day1), path_arg(day2)]);
            }
            Job::Ship { .. } => unreachable!("ship-merge runs fi serve and fi ship"),
        }
        argv
    }

    fn serve_argv(&self, sites: usize) -> Vec<String> {
        let mut argv: Vec<String> = ["serve", "--listen", "127.0.0.1:0", "--sites"]
            .map(String::from)
            .to_vec();
        argv.push(sites.to_string());
        argv.extend(self.sketch_args());
        argv
    }

    fn ship_argv(&self, site: usize, sites: usize, addr: &str, file: &Path) -> Vec<String> {
        let mut argv = vec![
            "ship".to_string(),
            "--to".into(),
            addr.into(),
            "--site-id".into(),
            site.to_string(),
            "--sites".into(),
            sites.to_string(),
        ];
        argv.extend(self.sketch_args());
        argv.push(path_arg(file));
        argv
    }

    fn coordinate_argv(&self, files: &[PathBuf]) -> Vec<String> {
        let mut argv = vec!["coordinate".to_string()];
        argv.extend(self.sketch_args());
        argv.extend(files.iter().map(|f| path_arg(f)));
        argv
    }
}

/// Runs one `fi` command; a non-zero exit is an error.
fn run_fi(fi: &Path, argv: &[String], cwd: &Path) -> Result<Finished, String> {
    let done = child::run(fi, argv, cwd).map_err(|e| format!("running fi {}: {e}", argv[0]))?;
    if !done.status.success() {
        return Err(format!(
            "fi {} exited with {}: {}",
            argv[0],
            done.status,
            done.stderr.trim()
        ));
    }
    Ok(done)
}

fn empty_file(dir: &Path) -> io::Result<PathBuf> {
    let path = dir.join("empty.txt");
    fs::write(&path, "")?;
    Ok(path)
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}
