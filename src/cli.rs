//! Implementation of the `fi` command-line tool.
//!
//! Lives in the library (rather than the binary) so the parsing and the
//! text pipeline are unit-testable; `src/bin/fi.rs` is a thin shell.
//!
//! ```text
//! fi top [-k N] [-t ROWS] [-b BUCKETS] [--seed S] [--threads N]
//!        [--snapshot PATH] [--snapshot-every N] [--resume PATH] [FILE]
//!     one-pass APPROXTOP over whitespace-separated items
//! fi diff [-k N] [-t ROWS] [-b BUCKETS] [--seed S] FILE1 FILE2
//!     §4.2 max-change between two item files
//! fi iceberg --phi P [--eps E] [-t ROWS] [-b BUCKETS] [FILE]
//!     items above a frequency threshold
//! fi inspect [-k N] SNAPSHOT
//!     summarize a CSNP snapshot: header, geometry, health, top counters
//! fi serve --listen ADDR --sites N [--quorum Q] [--deadline-ms MS] [...]
//!     run the quorum coordinator; print the merged top-k when done
//! fi ship --to ADDR --site-id I --sites N [--fault SPEC] [FILE]
//!     sketch a local item file and ship it to the coordinator
//! fi coordinate [-k N] FILE...
//!     the in-process reference merge over the same site files
//! fi shard --sites N --out-prefix P [FILE]
//!     split an item file into per-site files by key shard
//! ```
//!
//! `serve`/`ship` speak the CSWP framed protocol from [`cs_net`]; the
//! report `serve` prints is **byte-identical** to `coordinate` run over
//! the same per-site files (exclusion comment lines aside), which the
//! CI net-smoke job asserts with a literal `diff`.
//!
//! `--resume` restores APPROXTOP state from a checksummed snapshot
//! written by an earlier `--snapshot` run, so a long-lived counting job
//! survives restarts without rereading history; `--snapshot-every N`
//! additionally persists the state after every N observed items, so a
//! crash loses at most N items of progress; the report and the final
//! snapshot are the same with or without it. Failures map to distinct
//! exit codes (see [`CliError`]): bad invocation, I/O failure, and
//! corrupt input are distinguishable to calling scripts.
//!
//! Every text path reads its input once and runs it through one byte
//! scanner ([`Tokens::scan`]), which splits, keys and de-duplicates the
//! tokens in a single pass and hands the keys to the command's sketch in
//! runs of [`CHUNK`], in input order. On an input longer than one run a
//! second thread scans a few runs ahead of the sketch. No command
//! stores its key stream except `fi diff`, whose pass 2 reads both days
//! again. No token is copied: the scanner keeps, per distinct key, the
//! byte offset of its first occurrence, and a report resolves the label
//! of each printed key by slicing the input there
//! (`fi diff` looks in the second file first, then the first). A key no
//! input of this run contains, such as a tracked key restored by
//! `--resume`, prints as `<?>`.

use crate::prelude::*;
use crate::sketch::iceberg::IcebergProcessor;
use cs_core::snapshot::sketch_snapshot_len;
use cs_core::RowHasher;
use cs_net::frame::MAX_PAYLOAD;
use std::convert::Infallible;
use std::path::Path;

mod scan;
use scan::for_each_token;
pub use scan::{tokenize, Tokens, CHUNK};

/// A CLI failure, carrying the distinct process exit code for its class.
///
/// The codes are part of the tool's contract: wrapper scripts retry
/// `Io`, alert on `Corrupt`, and fix their invocation on `Usage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself is wrong (exit code 2).
    Usage(String),
    /// The OS refused a read or write (exit code 3).
    Io {
        /// File involved, or `-` for stdin.
        path: String,
        /// The underlying OS error.
        message: String,
    },
    /// A file was read fine but its contents are invalid — a torn or
    /// bit-flipped snapshot, or input text that is not UTF-8 (exit code
    /// 4). Retrying cannot help.
    Corrupt {
        /// The offending file.
        path: String,
        /// The typed decode error.
        message: String,
    },
}

/// Exit code for [`CliError::Usage`].
pub const EXIT_USAGE: i32 = 2;
/// Exit code for [`CliError::Io`].
pub const EXIT_IO: i32 = 3;
/// Exit code for [`CliError::Corrupt`].
pub const EXIT_CORRUPT: i32 = 4;

impl CliError {
    /// The process exit code this error class maps to (never 0).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Io { .. } => EXIT_IO,
            CliError::Corrupt { .. } => EXIT_CORRUPT,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, message } => write!(f, "{path}: {message}"),
            CliError::Corrupt { path, message } => write!(f, "{path}: corrupt: {message}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand: `top`, `diff`, `iceberg` or `inspect`.
    pub command: String,
    /// Top-k size.
    pub k: usize,
    /// Sketch rows.
    pub rows: usize,
    /// Sketch buckets.
    pub buckets: usize,
    /// Seed.
    pub seed: u64,
    /// Iceberg support threshold φ.
    pub phi: f64,
    /// Iceberg slack ε.
    pub eps: f64,
    /// Algorithm for `top`: count-sketch (default), space-saving, kps,
    /// lossy.
    pub algorithm: String,
    /// Write a state snapshot here after processing (`top` only).
    pub snapshot: Option<String>,
    /// Also write the snapshot after every N observed items (0 = only
    /// at the end; requires `--snapshot`).
    pub snapshot_every: usize,
    /// Restore state from this snapshot before processing (`top` only).
    pub resume: Option<String>,
    /// Sketch worker threads of the sharded pool (`top` with
    /// count-sketch only; 1 = the per-item path). The scanner thread
    /// is not one of them.
    pub threads: usize,
    /// Coordinator listen address (`serve` only).
    pub listen: Option<String>,
    /// Coordinator address to ship to (`ship` only).
    pub to: Option<String>,
    /// This agent's site index (`ship` only).
    pub site_id: Option<usize>,
    /// Total sites in the deployment (`serve`, `ship`, `shard`).
    pub sites: usize,
    /// Minimum validated reports for a usable merge (`serve`; 0 = all
    /// sites).
    pub quorum: usize,
    /// Collection deadline in milliseconds (`serve`); positive.
    pub deadline_ms: u64,
    /// Per-connection socket timeout in milliseconds.
    pub timeout_ms: u64,
    /// Link-fault spec for `ship` (`cut:BYTES` | `flip:FROM_BYTE` |
    /// `stall:MILLIS`), pre-validated at parse time.
    pub fault: Option<String>,
    /// Seed for the link-fault injector.
    pub fault_seed: u64,
    /// Output path prefix for `shard` (`PREFIX.I.txt` per site).
    pub out_prefix: Option<String>,
    /// Positional file arguments.
    pub files: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            command: String::new(),
            k: 10,
            rows: 5,
            buckets: 4096,
            seed: 1,
            phi: 0.01,
            eps: 0.002,
            algorithm: "count-sketch".into(),
            snapshot: None,
            snapshot_every: 0,
            resume: None,
            threads: 1,
            listen: None,
            to: None,
            site_id: None,
            sites: 1,
            quorum: 0,
            deadline_ms: 10_000,
            timeout_ms: 5_000,
            fault: None,
            fault_seed: 1,
            out_prefix: None,
            files: Vec::new(),
        }
    }
}

/// The largest sketch `fi` builds, in counters (`t·b`): 2 GiB of `i64`
/// cells. This is a policy limit, not a hardware one. It is about 600×
/// the largest sketch the benchmarks use (`-t 7 -b 65536`), and it makes
/// a mistyped `-b` exit 2 at parsing instead of aborting on a failed
/// allocation or exhausting a shared host. A larger host could build
/// more (`-t 5 -b 100000000` is 4 GB); raise the constant to allow it.
/// The limit counts every sketch: `top --threads N` builds one per
/// worker, so N·t·b must fit. `serve` and `ship` are held to the smaller
/// frame limit.
pub const MAX_CELLS: usize = 1 << 28;

/// The most `top --threads` workers `fi` starts, each an OS thread with
/// its own sketch: a policy limit, far above any host's useful count,
/// that makes a mistyped `--threads` exit 2 at parsing instead of asking
/// the host for thousands of threads.
pub const MAX_THREADS: usize = 256;

// Every `-b` under the cell maximum is a range `PairwiseHash` can draw.
const _: () = assert!((MAX_CELLS as u64) < cs_hash::prime::P);

/// Parses arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it
        .next()
        .ok_or_else(|| {
            "missing subcommand (top | diff | iceberg | inspect | serve | ship | coordinate | shard)"
                .to_string()
        })?
        .clone();
    if !matches!(
        opts.command.as_str(),
        "top" | "diff" | "iceberg" | "inspect" | "serve" | "ship" | "coordinate" | "shard"
    ) {
        return Err(format!("unknown subcommand '{}'", opts.command));
    }
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-k" => opts.k = flag_value("-k")?.parse().map_err(|e| format!("-k: {e}"))?,
            "-t" => opts.rows = flag_value("-t")?.parse().map_err(|e| format!("-t: {e}"))?,
            "-b" => opts.buckets = flag_value("-b")?.parse().map_err(|e| format!("-b: {e}"))?,
            "--seed" => {
                opts.seed = flag_value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--phi" => {
                opts.phi = flag_value("--phi")?
                    .parse()
                    .map_err(|e| format!("--phi: {e}"))?
            }
            "--eps" => {
                opts.eps = flag_value("--eps")?
                    .parse()
                    .map_err(|e| format!("--eps: {e}"))?
            }
            "--algorithm" => {
                opts.algorithm = flag_value("--algorithm")?.clone();
                if !matches!(
                    opts.algorithm.as_str(),
                    "count-sketch" | "space-saving" | "kps" | "lossy"
                ) {
                    return Err(format!("unknown algorithm '{}'", opts.algorithm));
                }
            }
            "--snapshot" => opts.snapshot = Some(flag_value("--snapshot")?.clone()),
            "--snapshot-every" => {
                opts.snapshot_every = flag_value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?
            }
            "--resume" => opts.resume = Some(flag_value("--resume")?.clone()),
            "--threads" => {
                opts.threads = flag_value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--listen" => opts.listen = Some(flag_value("--listen")?.clone()),
            "--to" => opts.to = Some(flag_value("--to")?.clone()),
            "--site-id" => {
                opts.site_id = Some(
                    flag_value("--site-id")?
                        .parse()
                        .map_err(|e| format!("--site-id: {e}"))?,
                )
            }
            "--sites" => {
                opts.sites = flag_value("--sites")?
                    .parse()
                    .map_err(|e| format!("--sites: {e}"))?
            }
            "--quorum" => {
                opts.quorum = flag_value("--quorum")?
                    .parse()
                    .map_err(|e| format!("--quorum: {e}"))?
            }
            "--deadline-ms" => {
                opts.deadline_ms = flag_value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--timeout-ms" => {
                opts.timeout_ms = flag_value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--fault" => {
                let spec = flag_value("--fault")?.clone();
                LinkFault::parse(&spec).map_err(|e| format!("--fault: {e}"))?;
                opts.fault = Some(spec);
            }
            "--fault-seed" => {
                opts.fault_seed = flag_value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?
            }
            "--out-prefix" => opts.out_prefix = Some(flag_value("--out-prefix")?.clone()),
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.k == 0 || opts.rows == 0 || opts.buckets == 0 {
        return Err("k, rows and buckets must be positive".into());
    }
    if (opts.snapshot.is_some() || opts.resume.is_some())
        && (opts.command != "top" || opts.algorithm != "count-sketch")
    {
        return Err("--snapshot/--resume require 'top' with the count-sketch algorithm".into());
    }
    if args.iter().any(|a| a == "--snapshot-every") {
        if opts.snapshot_every == 0 {
            return Err("--snapshot-every must be positive".into());
        }
        if opts.snapshot.is_none() {
            return Err("--snapshot-every needs --snapshot PATH for the periodic writes".into());
        }
    }
    if opts.threads == 0 || opts.threads > MAX_THREADS {
        return Err(format!(
            "--threads {} must be between 1 and {MAX_THREADS}",
            opts.threads
        ));
    }
    if opts.threads > 1 && (opts.command != "top" || opts.algorithm != "count-sketch") {
        return Err("--threads > 1 requires 'top' with the count-sketch algorithm".into());
    }
    if opts.snapshot_every > 0 && opts.threads > 1 {
        // The sharded pool ingests the whole stream in one shot; there is
        // no mid-stream point at which a consistent snapshot exists.
        return Err("--snapshot-every requires --threads 1".into());
    }
    if opts.sites == 0 {
        return Err("--sites must be at least 1".into());
    }
    if opts.command == "iceberg" {
        // Written so that NaN fails both checks.
        if !(opts.phi > 0.0 && opts.phi <= 1.0) {
            return Err(format!("--phi {} must be in (0, 1]", opts.phi));
        }
        if !(opts.eps >= 0.0 && opts.eps < opts.phi) {
            return Err(format!(
                "--eps {} must be at least 0 and below --phi {}",
                opts.eps, opts.phi
            ));
        }
    }
    if matches!(opts.command.as_str(), "serve" | "ship") {
        // A site ships its sketch as one CSWP frame; refuse a geometry
        // whose longest snapshot no frame can carry before sketching
        // anything, so the answer depends on the flags, not the data.
        match sketch_snapshot_len(opts.rows, opts.buckets) {
            Some(len) if len <= MAX_PAYLOAD => {}
            len => {
                return Err(format!(
                    "-t {} -b {}: the sketch snapshot (up to {} bytes) exceeds the {MAX_PAYLOAD}-byte frame payload limit",
                    opts.rows,
                    opts.buckets,
                    len.map_or("over usize::MAX".into(), |l| l.to_string())
                ))
            }
        }
    } else {
        // Refuse sketches over the policy limit before sketching
        // anything (one per `--threads` worker); this also keeps `-b` a
        // range the hash field can draw.
        let cells = opts.rows.checked_mul(opts.buckets);
        match cells.and_then(|c| c.checked_mul(opts.threads)) {
            Some(total) if total <= MAX_CELLS => {}
            total => {
                let workers = match opts.threads {
                    1 => String::new(),
                    n => format!(" --threads {n}"),
                };
                return Err(format!(
                    "-t {} -b {}{workers}: {} sketch cells exceed the {MAX_CELLS}-cell maximum",
                    opts.rows,
                    opts.buckets,
                    total.map_or("over usize::MAX".into(), |c| c.to_string())
                ));
            }
        }
    }
    match opts.command.as_str() {
        "serve" => {
            if opts.listen.is_none() {
                return Err("serve needs --listen ADDR".into());
            }
            if opts.quorum > opts.sites {
                return Err(format!(
                    "--quorum {} exceeds --sites {}",
                    opts.quorum, opts.sites
                ));
            }
            if opts.deadline_ms == 0 {
                return Err("--deadline-ms must be positive".into());
            }
            if !opts.files.is_empty() {
                return Err("serve takes no input files".into());
            }
        }
        "ship" => {
            if opts.to.is_none() {
                return Err("ship needs --to ADDR".into());
            }
            let site = opts.site_id.ok_or("ship needs --site-id I")?;
            if site >= opts.sites {
                return Err(format!(
                    "--site-id {site} out of range for --sites {}",
                    opts.sites
                ));
            }
        }
        "shard" => {
            if opts.out_prefix.is_none() {
                return Err("shard needs --out-prefix P".into());
            }
        }
        _ => {
            if opts.fault.is_some() {
                return Err("--fault only applies to ship".into());
            }
        }
    }
    match opts.command.as_str() {
        "diff" if opts.files.len() != 2 => Err("diff needs exactly two files".into()),
        "inspect" if opts.files.len() != 1 => Err("inspect needs exactly one snapshot file".into()),
        "coordinate" if opts.files.is_empty() => {
            Err("coordinate needs at least one site file".into())
        }
        "top" | "iceberg" | "ship" | "shard" if opts.files.len() > 1 => {
            Err("at most one input file (or stdin)".into())
        }
        _ => Ok(opts),
    }
}

/// Label printed for a reported key that no input of this run contains.
const UNKNOWN_LABEL: &str = "<?>";

/// Validates input bytes as UTF-8. An invalid sequence is corrupt input
/// ([`CliError::Corrupt`]), named by the byte offset where it starts.
fn utf8(path: &str, bytes: Vec<u8>) -> Result<String, CliError> {
    String::from_utf8(bytes).map_err(|e| CliError::Corrupt {
        path: path.into(),
        message: format!(
            "invalid UTF-8 at byte offset {}",
            e.utf8_error().valid_up_to()
        ),
    })
}

fn read_file(path: &str) -> Result<String, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io {
        path: path.into(),
        message: e.to_string(),
    })?;
    utf8(path, bytes)
}

fn read_stdin() -> Result<String, CliError> {
    use std::io::Read;
    let mut buf = Vec::new();
    std::io::stdin()
        .read_to_end(&mut buf)
        .map_err(|e| CliError::Io {
            path: "-".into(),
            message: e.to_string(),
        })?;
    utf8("-", buf)
}

fn read_input(path: Option<&String>) -> Result<String, CliError> {
    match path {
        Some(p) => read_file(p),
        None => read_stdin(),
    }
}

/// Parses, dispatches and runs a full invocation (including file/stdin
/// I/O); the binary maps the error to its exit code.
pub fn run(opts: &Options) -> Result<String, CliError> {
    match opts.command.as_str() {
        "top" => {
            let text = read_input(opts.files.first())?;
            run_top(opts, &text)
        }
        "diff" => {
            let t1 = read_file(&opts.files[0])?;
            let t2 = read_file(&opts.files[1])?;
            run_diff(opts, &t1, &t2)
        }
        "iceberg" => {
            let text = read_input(opts.files.first())?;
            run_iceberg(opts, &text)
        }
        "inspect" => run_inspect(opts),
        "serve" => run_serve(opts),
        "ship" => {
            let text = read_input(opts.files.first())?;
            run_ship(opts, &text)
        }
        "coordinate" => run_coordinate(opts),
        "shard" => {
            let text = read_input(opts.files.first())?;
            run_shard(opts, &text)
        }
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

/// Runs `fi top` over input text; returns the report. With
/// `opts.resume` the processor state is restored from a snapshot first
/// (a torn or bit-flipped file yields [`CliError::Corrupt`], never a
/// panic or silently wrong counts); with `opts.snapshot` the final
/// state is persisted atomically afterwards.
pub fn run_top(opts: &Options, text: &str) -> Result<String, CliError> {
    use cs_baselines::{KpsFrequent, LossyCounting, SpaceSaving};
    let (tokens, items): (Tokens, Vec<(ItemKey, i64)>) = match opts.algorithm.as_str() {
        "count-sketch" => {
            let (tokens, p) = top_processor(opts, text)?;
            if let Some(path) = &opts.snapshot {
                save_snapshot(path, &p)?;
            }
            (tokens, p.result().items)
        }
        other => {
            let mut alg: Box<dyn StreamSummary> = match other {
                "space-saving" => Box::new(SpaceSaving::new(4 * opts.k)),
                "kps" => Box::new(KpsFrequent::with_capacity(4 * opts.k)),
                "lossy" => Box::new(LossyCounting::new((1.0 / (4 * opts.k) as f64).min(0.5))),
                _ => unreachable!("parse_args validates the algorithm"),
            };
            let Ok(tokens) = Tokens::scan(text, None, |keys, _| {
                alg.process_batch(keys);
                Ok::<_, Infallible>(())
            });
            let items = alg
                .candidates()
                .into_iter()
                .take(opts.k)
                .map(|(key, est)| (key, est as i64))
                .collect();
            (tokens, items)
        }
    };
    let mut out = format!(
        "# top-{} of {} occurrences ({} distinct seen, algorithm: {})\n",
        opts.k,
        tokens.occurrences(),
        tokens.distinct(),
        opts.algorithm
    );
    for (key, est) in &items {
        let label = tokens.label(*key).unwrap_or(UNKNOWN_LABEL);
        out.push_str(&format!("{est:>10}  {label}\n"));
    }
    Ok(out)
}

/// The count-sketch `fi top` state after `text`: restored from
/// `--resume` before the scan, then fed every key in input order, with
/// `--snapshot-every` checkpoints or through the `--threads` pool.
fn top_processor<'a>(
    opts: &Options,
    text: &'a str,
) -> Result<(Tokens<'a>, ApproxTopProcessor), CliError> {
    let restored = opts.resume.as_deref().map(load_snapshot).transpose()?;
    if opts.threads > 1 {
        return run_top_parallel(opts, text, restored);
    }
    let mut p = restored.unwrap_or_else(|| {
        ApproxTopProcessor::new(
            SketchParams::new(opts.rows, opts.buckets),
            opts.k,
            opts.seed,
        )
    });
    // The processor that ingests supplies the hash functions: under
    // `--resume` the restored sketch, whose geometry overrides -t/-b.
    let hasher = row_hasher(p.sketch())?;
    let tokens = match (&opts.snapshot, opts.snapshot_every) {
        (Some(path), every) if every > 0 => {
            // Periodic persistence: after every `every` items the state
            // hits disk through the same atomic tmp-then-rename path as
            // the final write, so a crash loses at most `every` items of
            // progress. Runs are split where a window ends, so the
            // checkpoints fall at the same items whatever the run length.
            // The tail shorter than a window is covered by the final
            // write. The per-item rule's state depends only on the
            // stream prefix, so the report and the final snapshot equal
            // a run without checkpoints.
            let mut due = every;
            Tokens::scan(text, Some(&hasher), |keys, cells| {
                observe_with_checkpoints(&mut p, keys, cells, every, &mut due, |p| {
                    save_snapshot(path, p)
                })
            })?
        }
        _ => {
            let Ok(tokens) = Tokens::scan(text, Some(&hasher), |keys, cells| {
                observe_run(&mut p, keys, cells);
                Ok::<_, Infallible>(())
            });
            tokens
        }
    };
    Ok((tokens, p))
}

/// A copy of `sketch`'s hash functions for [`Tokens::scan`], so the
/// scanning thread computes each key's row cells. Every sketch `fi`
/// builds from flags fits a cell word; only a resumed snapshot of more
/// than 2³¹ cells does not.
fn row_hasher(sketch: &CountSketch) -> Result<RowHasher, CliError> {
    sketch.row_hasher().ok_or_else(|| {
        CliError::Usage(format!(
            "a {} x {} sketch has more cells than a row cell can address",
            sketch.rows(),
            sketch.buckets()
        ))
    })
}

/// Observes a run's keys into `p`, each with its cell words.
fn observe_run(p: &mut ApproxTopProcessor, keys: &[ItemKey], cells: &[u32]) {
    let rows = p.sketch().rows();
    for (&key, cells) in keys.iter().zip(cells.chunks_exact(rows)) {
        p.observe_cells(key, cells);
    }
}

/// Observes a run's keys and cell words into `p`, calling `save(p)`
/// each time `p` has seen another `every` items. `due`, the items left
/// until the next call, carries over from one run to the next.
fn observe_with_checkpoints<E>(
    p: &mut ApproxTopProcessor,
    mut keys: &[ItemKey],
    mut cells: &[u32],
    every: usize,
    due: &mut usize,
    mut save: impl FnMut(&ApproxTopProcessor) -> Result<(), E>,
) -> Result<(), E> {
    let rows = p.sketch().rows();
    while !keys.is_empty() {
        let n = (*due).min(keys.len());
        let (window, rest) = keys.split_at(n);
        let (window_cells, rest_cells) = cells.split_at(n * rows);
        observe_run(p, window, window_cells);
        *due -= n;
        if *due == 0 {
            save(p)?;
            *due = every;
        }
        (keys, cells) = (rest, rest_cells);
    }
    Ok(())
}

/// Restores an APPROXTOP processor from the snapshot at `path`.
fn load_snapshot(path: &str) -> Result<ApproxTopProcessor, CliError> {
    let bytes = read_snapshot_file(Path::new(path)).map_err(|e| CliError::Io {
        path: path.into(),
        message: e.to_string(),
    })?;
    <ApproxTopProcessor>::from_snapshot_bytes(&bytes).map_err(|e| CliError::Corrupt {
        path: path.into(),
        message: e.to_string(),
    })
}

/// Writes `p`'s snapshot to `path`, atomically.
fn save_snapshot(path: &str, p: &ApproxTopProcessor) -> Result<(), CliError> {
    write_snapshot_file(Path::new(path), &p.to_snapshot_bytes()).map_err(|e| CliError::Io {
        path: path.into(),
        message: e.to_string(),
    })
}

/// The `--threads > 1` ingestion path: sketch every run through the
/// sharded worker pool ([`SketchPool`]), merge any resumed state in, and
/// resolve the top-k by re-estimating the candidate set against the
/// merged sketch.
///
/// Determinism: the pool-merged sketch is bit-identical to the
/// sequential sketch, the candidate set (every distinct key the scanner
/// saw in this run, plus any resumed tracked keys) does not depend on
/// the thread count, and candidates are resolved in sorted-key order —
/// so the report and any written snapshot are byte-identical for every
/// `--threads N > 1`.
fn run_top_parallel<'a>(
    opts: &Options,
    text: &'a str,
    restored: Option<ApproxTopProcessor>,
) -> Result<(Tokens<'a>, ApproxTopProcessor), CliError> {
    let params = SketchParams::new(opts.rows, opts.buckets);
    let mut pool = SketchPool::new(params, opts.seed, opts.threads);
    let Ok(tokens) = Tokens::scan(text, None, |keys, _| {
        pool.ingest(keys);
        Ok::<_, Infallible>(())
    });
    let mut merged = pool.finish();
    let mut candidates: Vec<ItemKey> = tokens.keys().collect();
    if let Some(p) = restored {
        let (prior_sketch, prior_tracker, _) = p.into_parts();
        match merged.merge(&prior_sketch) {
            Ok(()) => {}
            Err(CoreError::CounterSaturated { .. }) => merged
                .merge_saturating(&prior_sketch)
                .expect("dimensions already validated by the failed strict merge"),
            Err(e) => {
                // The snapshot's sketch geometry/seed wins over -t/-b in
                // the sequential path; in the parallel path the pool was
                // already built from the flags, so a mismatch is fatal.
                return Err(CliError::Usage(format!(
                    "--resume snapshot incompatible with sketch options: {e}"
                )));
            }
        }
        candidates.extend(prior_tracker.items_desc().into_iter().map(|(k, _)| k));
    }
    candidates.sort_unstable();
    candidates.dedup();
    let mut tracker = TopKTracker::new(opts.k);
    for key in candidates {
        tracker.offer(key, merged.estimate(key));
    }
    let p = ApproxTopProcessor::from_parts(merged, tracker, HeapPolicy::default());
    Ok((tokens, p))
}

/// Runs `fi inspect` over a snapshot file; returns a human-readable
/// summary of the header, sketch geometry, per-row health, the top
/// `opts.k` counters by magnitude and (for processor snapshots) the
/// tracked entries. A missing file is [`CliError::Io`]; a torn or
/// bit-flipped one is [`CliError::Corrupt`].
pub fn run_inspect(opts: &Options) -> Result<String, CliError> {
    let path = &opts.files[0];
    let bytes = read_snapshot_file(Path::new(path)).map_err(|e| CliError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    let info = inspect_snapshot_bytes(&bytes, opts.k).map_err(|e| CliError::Corrupt {
        path: path.clone(),
        message: e.to_string(),
    })?;
    let combiner = match info.combiner {
        Combiner::Median => "median",
        Combiner::Mean => "mean",
        Combiner::TrimmedMean => "trimmed-mean",
    };
    let mut out = format!(
        "# {path}: CSNP v{} {} snapshot ({} bytes)\n",
        info.version, info.kind, info.total_bytes
    );
    out.push_str(&format!(
        "sketch:     {} rows x {} buckets, seed {}, combiner {}\n",
        info.rows, info.buckets, info.seed, combiner
    ));
    let health: String = info
        .row_saturated
        .iter()
        .map(|&n| if n == 0 { '1' } else { '0' })
        .collect();
    let clean = info.row_saturated.iter().filter(|&&n| n == 0).count();
    out.push_str(&format!(
        "health:     [{}] {}/{} rows clean, {} saturated cells\n",
        health,
        clean,
        info.rows,
        info.saturated_cells()
    ));
    if let (Some(policy), Some(capacity)) = (info.policy, info.tracker_capacity) {
        let policy = match policy {
            HeapPolicy::IncrementTracked => "increment-tracked",
            HeapPolicy::AlwaysReEstimate => "always-re-estimate",
        };
        out.push_str(&format!(
            "tracker:    {} of {} entries, policy {}\n",
            info.tracked.len(),
            capacity,
            policy
        ));
        for (key, value) in &info.tracked {
            out.push_str(&format!("{value:>12}  key {:#018x}\n", key.raw()));
        }
    }
    out.push_str(&format!("# top {} counters by |value|\n", opts.k));
    for &(row, bucket, value) in &info.top_counters {
        out.push_str(&format!("{value:>+12}  row {row}  bucket {bucket}\n"));
    }
    Ok(out)
}

/// Builds a [`ServeConfig`] from parsed options. `--quorum 0` (the
/// default) means every site must report.
fn serve_config(opts: &Options) -> ServeConfig {
    let quorum = if opts.quorum == 0 {
        opts.sites
    } else {
        opts.quorum
    };
    let mut config = ServeConfig::new(
        opts.sites,
        quorum,
        SketchParams::new(opts.rows, opts.buckets),
        opts.seed,
    );
    config.deadline_ms = opts.deadline_ms;
    config.timeout_ms = opts.timeout_ms;
    config
}

/// Runs `fi serve`: binds the coordinator, collects site reports over
/// the CSWP transport until quorum-or-deadline, and returns the merged
/// top-k report (with `# excluded` lines for any dropped sites). The
/// listening address goes to stderr before blocking so wrapper scripts
/// can wait for readiness. A finished-below-quorum run maps to
/// [`CliError::Corrupt`] (the merge is unusable), socket failures to
/// [`CliError::Io`].
pub fn run_serve(opts: &Options) -> Result<String, CliError> {
    let addr = opts
        .listen
        .as_deref()
        .expect("parse_args requires --listen");
    let server = CoordinatorServer::bind(addr, serve_config(opts)).map_err(|e| CliError::Io {
        path: addr.into(),
        message: e.to_string(),
    })?;
    let local = server.local_addr().map_err(|e| CliError::Io {
        path: addr.into(),
        message: e.to_string(),
    })?;
    eprintln!(
        "# coordinator listening on {local}: {} site(s), quorum {}",
        opts.sites,
        serve_config(opts).quorum
    );
    let outcome = server.run().map_err(|e| match e {
        NetError::QuorumNotMet { .. } => CliError::Corrupt {
            path: addr.into(),
            message: e.to_string(),
        },
        other => CliError::Io {
            path: addr.into(),
            message: other.to_string(),
        },
    })?;
    Ok(render_report(
        &outcome.sketch,
        opts.k,
        &outcome.report.excluded,
    ))
}

/// Runs `fi ship` over input text: sketches the site's local stream,
/// ships the report to the coordinator with retry/backoff, and returns
/// a one-line summary. `--fault SPEC` routes the connection through a
/// misbehaving [`LinkFault`] link for fault-matrix experiments.
pub fn run_ship(opts: &Options, text: &str) -> Result<String, CliError> {
    let to = opts.to.as_deref().expect("parse_args requires --to");
    let site_id = opts.site_id.expect("parse_args requires --site-id");
    let report = scan_site(opts, text)?;
    let mut agent = SiteAgent::new(site_id, opts.sites);
    agent.timeout_ms = opts.timeout_ms;
    agent.fault_seed = opts.fault_seed;
    if let Some(spec) = &opts.fault {
        agent.fault = Some(LinkFault::parse(spec).map_err(CliError::Usage)?);
    }
    let outcome = agent.ship(to, &report).map_err(|e| CliError::Io {
        path: to.into(),
        message: e.to_string(),
    })?;
    let verdict = match outcome {
        ShipOutcome::Accepted => "accepted",
        ShipOutcome::Excluded => "excluded",
    };
    Ok(format!(
        "# site {site_id}: shipped {} occurrences ({} candidates) to {to}: {verdict}\n",
        report.local_n,
        report.candidates.len()
    ))
}

/// Runs `fi coordinate` over per-site item files: the in-process
/// reference merge ([`DistributedSketch::coordinate`]) whose output the
/// wire path (`serve` + `ship` over the same files, site `i` shipping
/// file `i`) must reproduce byte-for-byte.
pub fn run_coordinate(opts: &Options) -> Result<String, CliError> {
    let mut reports = Vec::with_capacity(opts.files.len());
    for path in &opts.files {
        reports.push(scan_site(opts, &read_file(path)?)?);
    }
    let merged = DistributedSketch::coordinate(&reports)
        .map_err(|e| CliError::Usage(format!("coordinate: {e}")))?;
    Ok(render_report(&merged, opts.k, &[]))
}

/// One site's report over its item text, as `fi ship` sends it and
/// `fi coordinate` merges it: [`site_report`] over the text's keys.
fn scan_site(opts: &Options, text: &str) -> Result<SiteReport, CliError> {
    let mut p = ApproxTopProcessor::new(
        SketchParams::new(opts.rows, opts.buckets),
        opts.k,
        opts.seed,
    );
    let hasher = row_hasher(p.sketch())?;
    let Ok(tokens) = Tokens::scan(text, Some(&hasher), |keys, cells| {
        observe_run(&mut p, keys, cells);
        Ok::<_, Infallible>(())
    });
    Ok(SiteReport::from_processor(p, tokens.occurrences() as u64))
}

/// Runs `fi shard` over input text: splits the items into `--sites`
/// per-site files (`PREFIX.I.txt`, one token per line) by key shard, so
/// every occurrence of a token lands on one site — the same
/// [`cs_hash::shard_of`] routing the parallel ingestion pool uses.
pub fn run_shard(opts: &Options, text: &str) -> Result<String, CliError> {
    let prefix = opts
        .out_prefix
        .as_deref()
        .expect("parse_args requires --out-prefix");
    let mut shards: Vec<String> = vec![String::new(); opts.sites];
    let mut counts = vec![0usize; opts.sites];
    for_each_token(text, |key, span| {
        let site = cs_hash::shard_of(key, opts.sites);
        shards[site].push_str(&text[span]);
        shards[site].push('\n');
        counts[site] += 1;
    });
    let mut out = String::new();
    for (i, content) in shards.iter().enumerate() {
        let path = format!("{prefix}.{i}.txt");
        std::fs::write(&path, content).map_err(|e| CliError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        out.push_str(&format!("{path}: {} occurrences\n", counts[i]));
    }
    Ok(out)
}

/// Runs `fi diff` over two input texts; returns the report. A key's
/// label is its first occurrence in the second text, else in the first.
/// Pass 1 absorbs each run as it is scanned; pass 2 reads the two key
/// vectors kept for it.
pub fn run_diff(opts: &Options, text1: &str, text2: &str) -> Result<String, CliError> {
    let mut diff = DiffSketch::new(SketchParams::new(opts.rows, opts.buckets), opts.seed);
    let hasher = row_hasher(diff.sketch())?;
    let (day1, s1) = diff_pass_one(&mut diff, &hasher, text1, -1);
    let (day2, s2) = diff_pass_one(&mut diff, &hasher, text2, 1);
    let result = diff.top_changes(&s1, &s2, opts.k, 4 * opts.k);
    let mut out = format!(
        "# top-{} changes ({} -> {} occurrences)\n",
        opts.k,
        s1.len(),
        s2.len()
    );
    for item in &result.items {
        let label = day2
            .label(item.key)
            .or_else(|| day1.label(item.key))
            .unwrap_or(UNKNOWN_LABEL);
        out.push_str(&format!("{:>+10}  {label}\n", item.exact_change));
    }
    Ok(out)
}

/// Pass 1 of `fi diff` over one day: absorbs every key's cells, which
/// `hasher` computes on the scanning thread, into `diff` with `weight`
/// and collects the keys for pass 2.
fn diff_pass_one<'a>(
    diff: &mut DiffSketch,
    hasher: &RowHasher,
    text: &'a str,
    weight: i64,
) -> (Tokens<'a>, Stream) {
    // A token is at least one byte and all but the last are followed by
    // a separator, so `text` holds at most (len + 1) / 2 of them: the
    // vector never regrows, and only the pages it fills are touched.
    let mut keys = Vec::with_capacity(text.len().div_ceil(2));
    let Ok(tokens) = Tokens::scan(text, Some(hasher), |run, cells| {
        diff.absorb_cells(cells, weight);
        keys.extend_from_slice(run);
        Ok::<_, Infallible>(())
    });
    (tokens, Stream::from_keys(keys))
}

/// Runs `fi iceberg` over input text; returns the report.
pub fn run_iceberg(opts: &Options, text: &str) -> Result<String, CliError> {
    let mut p = IcebergProcessor::new(
        SketchParams::new(opts.rows, opts.buckets),
        opts.phi,
        opts.eps,
        2,
        opts.seed,
    );
    let hasher = row_hasher(p.sketch())?;
    let rows = hasher.rows();
    let Ok(tokens) = Tokens::scan(text, Some(&hasher), |keys, cells| {
        for (&key, cells) in keys.iter().zip(cells.chunks_exact(rows)) {
            p.observe_cells(key, cells);
        }
        Ok::<_, Infallible>(())
    });
    let result = p.result();
    let mut out = format!(
        "# items above {:.2}% of {} occurrences (threshold {})\n",
        opts.phi * 100.0,
        result.n,
        result.threshold
    );
    for (key, est) in &result.items {
        let label = tokens.label(*key).unwrap_or(UNKNOWN_LABEL);
        out.push_str(&format!("{est:>10}  {label}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse_args(&args("top")).unwrap();
        assert_eq!(o.command, "top");
        assert_eq!(o.k, 10);
        assert!(o.files.is_empty());
    }

    #[test]
    fn parse_flags_and_files() {
        let o = parse_args(&args("diff -k 3 -t 7 -b 1024 --seed 9 a.txt b.txt")).unwrap();
        assert_eq!(o.k, 3);
        assert_eq!(o.rows, 7);
        assert_eq!(o.buckets, 1024);
        assert_eq!(o.seed, 9);
        assert_eq!(o.files, vec!["a.txt", "b.txt"]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args("bogus")).is_err());
        assert!(parse_args(&args("top --wat")).is_err());
        assert!(parse_args(&args("top -k")).is_err());
        assert!(parse_args(&args("top -k zero")).is_err());
        assert!(parse_args(&args("top -k 0")).is_err());
        assert!(parse_args(&args("diff only-one.txt")).is_err());
        assert!(parse_args(&args("top a.txt b.txt")).is_err());
        // Collection stops at a positive deadline in milliseconds.
        let err = parse_args(&args("serve --listen a --deadline-ms 0")).unwrap_err();
        assert!(err.starts_with("--deadline-ms"), "{err}");
        // The iceberg threshold needs 0 < phi <= 1 and 0 <= eps < phi
        // (the default eps is 0.002).
        for (flags, named) in [
            ("--phi 0.001", "--eps"),
            ("--phi 1.5", "--phi"),
            ("--phi NaN", "--phi"),
            ("--eps -1", "--eps"),
        ] {
            let err = parse_args(&args(&format!("iceberg {flags}"))).unwrap_err();
            assert!(err.starts_with(named), "iceberg {flags}: {err}");
        }
        assert!(parse_args(&args("iceberg --phi 1 --eps 0")).is_ok());
        // A geometry whose bucket range the hash field cannot draw, or
        // whose counters exceed the policy limit, names the flags.
        for cmd in ["top", "diff a b", "iceberg", "coordinate a"] {
            for flags in [
                "-t 3 -b 4611686018427387904",
                "-b 2305843009213693951",
                "-b 2305843009213693950",
                "-b 1000000000000",
                "-t 2 -b 134217729",
            ] {
                let err = parse_args(&args(&format!("{cmd} {flags}"))).unwrap_err();
                assert!(err.starts_with("-t "), "{cmd} {flags}: {err}");
                assert!(err.contains(" -b "), "{cmd} {flags}: {err}");
            }
            assert!(parse_args(&args(&format!("{cmd} -t 2 -b 134217728"))).is_ok());
        }
    }

    #[test]
    fn tokenize_counts_and_labels() {
        let (stream, labels) = tokenize("a b a\nc a");
        assert_eq!(stream.len(), 5);
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[&ItemKey::of("a")], "a");
    }

    #[test]
    fn top_finds_dominant_token() {
        let opts = Options {
            command: "top".into(),
            k: 2,
            ..Default::default()
        };
        let text = "x ".repeat(100) + &"y ".repeat(30) + "z";
        let report = run_top(&opts, &text).unwrap();
        let first_line = report.lines().nth(1).unwrap();
        assert!(first_line.contains('x'), "{report}");
        assert!(first_line.trim().starts_with("100"), "{report}");
    }

    #[test]
    fn diff_reports_signed_changes() {
        let opts = Options {
            command: "diff".into(),
            k: 2,
            ..Default::default()
        };
        let day1 = "old ".repeat(50) + &"stable ".repeat(20);
        let day2 = "new ".repeat(60) + &"stable ".repeat(20);
        let report = run_diff(&opts, &day1, &day2).unwrap();
        assert!(report.contains("+60  new"), "{report}");
        assert!(report.contains("-50  old"), "{report}");
    }

    #[test]
    fn iceberg_filters_by_phi() {
        let opts = Options {
            command: "iceberg".into(),
            phi: 0.3,
            eps: 0.05,
            ..Default::default()
        };
        let text = "big ".repeat(60) + &"small ".repeat(5) + &"mid ".repeat(35);
        let report = run_iceberg(&opts, &text).unwrap();
        assert!(report.contains("big"));
        assert!(report.contains("mid"));
        assert!(!report.contains("small"), "{report}");
    }

    #[test]
    fn empty_input_is_graceful() {
        let opts = Options {
            command: "top".into(),
            ..Default::default()
        };
        let report = run_top(&opts, "").unwrap();
        assert!(report.contains("top-10 of 0 occurrences"));
    }

    #[test]
    fn parse_snapshot_and_resume_flags() {
        let o = parse_args(&args("top --snapshot s.csnp --resume r.csnp in.txt")).unwrap();
        assert_eq!(o.snapshot.as_deref(), Some("s.csnp"));
        assert_eq!(o.resume.as_deref(), Some("r.csnp"));
        // Only `top` with the count-sketch algorithm has resumable state.
        assert!(parse_args(&args("diff --snapshot s.csnp a b")).is_err());
        assert!(parse_args(&args("top --algorithm lossy --resume r.csnp")).is_err());
        assert!(parse_args(&args("top --snapshot")).is_err());
    }

    #[test]
    fn parse_threads_flag() {
        let o = parse_args(&args("top --threads 4")).unwrap();
        assert_eq!(o.threads, 4);
        assert_eq!(parse_args(&args("top")).unwrap().threads, 1);
        assert!(parse_args(&args("top --threads 0")).is_err());
        assert!(parse_args(&args("top --threads nope")).is_err());
        // Only the count-sketch `top` path is sharded.
        assert!(parse_args(&args("diff --threads 2 a b")).is_err());
        assert!(parse_args(&args("iceberg --threads 2")).is_err());
        assert!(parse_args(&args("top --algorithm lossy --threads 2")).is_err());
        // threads = 1 is the sequential default, allowed anywhere.
        assert!(parse_args(&args("iceberg --threads 1")).is_ok());
    }

    #[test]
    fn threads_are_bounded_by_the_thread_and_cell_limits() {
        // Parsed only, never run: each worker is a thread with its own
        // t·b sketch.
        assert!(parse_args(&args("top --threads 256")).is_ok());
        for n in ["257", "100000", "18446744073709551615"] {
            let err = parse_args(&args(&format!("top --threads {n}"))).unwrap_err();
            assert!(err.contains("between 1 and 256"), "{n}: {err}");
        }
        // 16 · 2^24 = 2^28 cells: one sketch fits, two do not.
        let tall = "top -t 16 -b 16777216";
        assert!(parse_args(&args(tall)).is_ok());
        let err = parse_args(&args(&format!("{tall} --threads 2"))).unwrap_err();
        assert!(
            err.contains("--threads 2: 536870912 sketch cells exceed"),
            "{err}"
        );
        // 256 · 8 · 2^17 = 2^28 exactly; one more bucket is over.
        assert!(parse_args(&args("top -t 8 -b 131072 --threads 256")).is_ok());
        let err = parse_args(&args("top -t 8 -b 131073 --threads 256")).unwrap_err();
        assert!(err.contains("268437504 sketch cells exceed"), "{err}");
    }

    #[test]
    fn threaded_top_reports_match_sequential() {
        let text = "x ".repeat(100) + &"y ".repeat(30) + &"z ".repeat(7) + "w";
        let mut opts = Options {
            command: "top".into(),
            k: 3,
            ..Default::default()
        };
        let sequential = run_top(&opts, &text).unwrap();
        for threads in [2, 4, 8] {
            opts.threads = threads;
            let report = run_top(&opts, &text).unwrap();
            assert_eq!(report, sequential, "threads = {threads}");
        }
        // Several runs: the pool is fed a run at a time while the scanner
        // thread runs ahead. 40 distinct tokens in 4096 buckets count
        // exactly on both paths.
        let text = zipf_text(3 * CHUNK + 17, 40, 1.0, 3);
        opts.threads = 1;
        let sequential = run_top(&opts, &text).unwrap();
        assert!(sequential.starts_with(&format!("# top-3 of {} ", 3 * CHUNK + 17)));
        for threads in [2, 4] {
            opts.threads = threads;
            assert_eq!(
                run_top(&opts, &text).unwrap(),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn threaded_snapshot_resume_is_thread_count_invariant() {
        let dir = std::env::temp_dir().join(format!("fi-cli-threads-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text1 = "x ".repeat(60) + &"y ".repeat(25);
        let text2 = "x ".repeat(40) + &"y ".repeat(5) + &"z ".repeat(33);

        // Snapshots written at different thread counts are byte-identical:
        // the pool-merged sketch is bit-identical to sequential and the
        // tracker resolution is thread-count-invariant.
        let mut snaps = Vec::new();
        for threads in [2, 4] {
            let snap = dir
                .join(format!("t{threads}.csnp"))
                .to_string_lossy()
                .into_owned();
            let opts = Options {
                command: "top".into(),
                k: 2,
                threads,
                snapshot: Some(snap.clone()),
                ..Default::default()
            };
            run_top(&opts, &text1).unwrap();
            snaps.push(std::fs::read(&snap).unwrap());
        }
        assert_eq!(
            snaps[0], snaps[1],
            "snapshot bytes differ across thread counts"
        );

        // On a multi-run input the pool, fed a run at a time, builds the
        // sequential sketch: the snapshots' counters agree at 1, 2 and 4
        // threads, and 2 and 4 threads write the same bytes.
        let text = zipf_text(3 * CHUNK + 17, 2_000, 0.8, 5);
        let snapshot_at = |threads: usize| {
            let snap = dir
                .join(format!("multi{threads}.csnp"))
                .to_string_lossy()
                .into_owned();
            let opts = Options {
                command: "top".into(),
                k: 5,
                buckets: 256,
                threads,
                snapshot: Some(snap.clone()),
                ..Default::default()
            };
            run_top(&opts, &text).unwrap();
            std::fs::read(&snap).unwrap()
        };
        let sequential = snapshot_at(1);
        let threaded = snapshot_at(2);
        assert_eq!(snapshot_at(4), threaded);
        let counters = |bytes: &[u8]| {
            <ApproxTopProcessor>::from_snapshot_bytes(bytes)
                .unwrap()
                .sketch()
                .counters()
                .to_vec()
        };
        assert_eq!(counters(&threaded), counters(&sequential));

        // Resuming a threaded snapshot — at any thread count, including
        // sequentially — continues the count across both sessions.
        let snap = dir.join("t2.csnp").to_string_lossy().into_owned();
        for threads in [1, 2, 4] {
            let opts = Options {
                command: "top".into(),
                k: 2,
                threads,
                resume: Some(snap.clone()),
                ..Default::default()
            };
            let report = run_top(&opts, &text2).unwrap();
            let first = report.lines().nth(1).unwrap();
            assert!(
                first.contains("100") && first.contains('x'),
                "threads = {threads}: {report}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_snapshot_every_flag() {
        let o = parse_args(&args("top --snapshot s.csnp --snapshot-every 500")).unwrap();
        assert_eq!(o.snapshot_every, 500);
        assert_eq!(parse_args(&args("top")).unwrap().snapshot_every, 0);
        assert!(parse_args(&args("top --snapshot s.csnp --snapshot-every 0")).is_err());
        assert!(parse_args(&args("top --snapshot-every 500")).is_err());
        assert!(parse_args(&args("top --snapshot s --snapshot-every 5 --threads 2")).is_err());
        assert!(parse_args(&args("diff --snapshot-every 5 a b")).is_err());
    }

    #[test]
    fn parse_inspect_subcommand() {
        let o = parse_args(&args("inspect -k 5 state.csnp")).unwrap();
        assert_eq!(o.command, "inspect");
        assert_eq!(o.k, 5);
        assert_eq!(o.files, vec!["state.csnp"]);
        assert!(parse_args(&args("inspect")).is_err());
        assert!(parse_args(&args("inspect a.csnp b.csnp")).is_err());
    }

    #[test]
    fn snapshot_every_checkpoints_match_one_shot() {
        let dir = std::env::temp_dir().join(format!("fi-cli-every-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("every.csnp").to_string_lossy().into_owned();
        let text = "x ".repeat(70) + &"y ".repeat(25) + &"z ".repeat(8);

        let opts = Options {
            command: "top".into(),
            k: 2,
            snapshot: Some(snap.clone()),
            snapshot_every: 13, // deliberately not a divisor of the length
            ..Default::default()
        };
        let report = run_top(&opts, &text).unwrap();
        let oneshot_opts = Options {
            command: "top".into(),
            k: 2,
            snapshot: Some(dir.join("once.csnp").to_string_lossy().into_owned()),
            ..Default::default()
        };
        let oneshot = run_top(&oneshot_opts, &text).unwrap();
        // Chunked observation is bit-identical to one-shot: same report,
        // and the final checkpoint equals the end-of-run snapshot.
        assert_eq!(report, oneshot);
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            std::fs::read(dir.join("once.csnp")).unwrap()
        );

        // Several runs, with windows that divide a run, equal one, and
        // straddle every run boundary.
        let text = zipf_text(3 * CHUNK + 17, 3_000, 0.9, 11);
        let oneshot = run_top(&oneshot_opts, &text).unwrap();
        let once = std::fs::read(dir.join("once.csnp")).unwrap();
        for every in [997, CHUNK, CHUNK + 1] {
            let opts = Options {
                snapshot_every: every,
                ..opts.clone()
            };
            assert_eq!(run_top(&opts, &text).unwrap(), oneshot, "every = {every}");
            assert_eq!(std::fs::read(&snap).unwrap(), once, "every = {every}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `n` tokens `t0..t{distinct-1}` drawn with Zipf(`z`) weights by a
    /// seeded LCG and inverse-CDF sampling.
    fn zipf_text(n: usize, distinct: usize, z: f64, seed: u64) -> String {
        let cdf: Vec<f64> = (1..=distinct)
            .scan(0.0, |acc, r| {
                *acc += (r as f64).powf(-z);
                Some(*acc)
            })
            .collect();
        let total = cdf[distinct - 1];
        let mut state = seed;
        let mut text = String::new();
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cdf.partition_point(|&c| c < u).min(distinct - 1);
            text.push_str(&format!("t{rank} "));
        }
        text
    }

    #[test]
    fn checkpoints_fall_after_every_window_across_runs() {
        // Whatever the run lengths, the n-th checkpoint holds the state
        // after exactly n·every items.
        let keys: Vec<ItemKey> = zipf_text(3 * CHUNK + 17, 500, 1.0, 9)
            .split_whitespace()
            .map(ItemKey::of)
            .collect();
        let fresh = || ApproxTopProcessor::new(SketchParams::new(5, 256), 4, 1);
        let hasher = fresh().sketch().row_hasher().unwrap();
        let mut cells = Vec::new();
        for every in [997, CHUNK, CHUNK + 1] {
            let mut expected = Vec::new();
            let mut one_by_one = fresh();
            for (i, &key) in keys.iter().enumerate() {
                one_by_one.observe(key);
                if (i + 1) % every == 0 {
                    expected.push(one_by_one.to_snapshot_bytes());
                }
            }
            for run_len in [CHUNK, 1000, 7] {
                let mut p = fresh();
                let (mut due, mut saved) = (every, Vec::new());
                for run in keys.chunks(run_len) {
                    hasher.hash_keys(run, &mut cells);
                    observe_with_checkpoints(&mut p, run, &cells, every, &mut due, |p| {
                        saved.push(p.to_snapshot_bytes());
                        Ok::<_, Infallible>(())
                    })
                    .unwrap();
                }
                assert!(saved == expected, "every {every}, runs of {run_len}");
            }
        }
    }

    #[test]
    fn snapshot_every_is_invisible_on_collision_heavy_input() {
        // b = 64 over 2000 distinct tokens: nearly every estimate carries
        // collision noise, so any dependence of the heap on where the
        // checkpoints fall would change the report.
        let dir = std::env::temp_dir().join(format!("fi-cli-every-b64-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = zipf_text(30_000, 2_000, 0.8, 7);
        let run = |name: &str, every: usize| {
            let snap = dir.join(name).to_string_lossy().into_owned();
            let opts = Options {
                command: "top".into(),
                k: 20,
                buckets: 64,
                snapshot: Some(snap.clone()),
                snapshot_every: every,
                ..Default::default()
            };
            (
                run_top(&opts, &text).unwrap(),
                std::fs::read(&snap).unwrap(),
            )
        };
        let (plain_report, plain_snap) = run("plain.csnp", 0);
        let (every_report, every_snap) = run("every.csnp", 1000);
        assert_eq!(every_report, plain_report);
        assert_eq!(every_snap, plain_snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_run_commands_equal_whole_stream_library_calls() {
        // `fi diff`, `fi iceberg`, `fi coordinate` and `fi top` sketch
        // each run as the scanner hands it over, with the row cells the
        // scanning thread computed; over several runs their reports (and
        // `top`'s snapshots, with and without checkpoints) equal the
        // library's key-by-key calls over the whole key stream.
        let dir = std::env::temp_dir().join(format!("fi-cli-multi-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Forty tokens as frequent on both days as the planted change
        // `t77`: they head the totals but not the changes.
        let stable: String = (0..40).map(|i| format!("s{i} ").repeat(600)).collect();
        let day1 = zipf_text(3 * CHUNK + 17, 1_500, 1.0, 21) + &stable;
        let day2 = zipf_text(2 * CHUNK + 5, 1_500, 1.0, 22) + &"t77 ".repeat(CHUNK) + &stable;
        let keys =
            |text: &str| Stream::from_keys(text.split_whitespace().map(ItemKey::of).collect());
        let label = |key: ItemKey| {
            day2.split_whitespace()
                .chain(day1.split_whitespace())
                .find(|tok| ItemKey::of(tok) == key)
                .unwrap_or(UNKNOWN_LABEL)
                .to_string()
        };
        let opts = Options {
            k: 8,
            buckets: 512,
            phi: 0.02,
            eps: 0.005,
            ..Default::default()
        };
        let params = SketchParams::new(opts.rows, opts.buckets);

        let (s1, s2) = (keys(&day1), keys(&day2));
        let changes = max_change(&s1, &s2, opts.k, 4 * opts.k, params, opts.seed);
        let mut expected = format!(
            "# top-8 changes ({} -> {} occurrences)\n",
            s1.len(),
            s2.len()
        );
        for item in &changes.items {
            expected.push_str(&format!(
                "{:>+10}  {}\n",
                item.exact_change,
                label(item.key)
            ));
        }
        assert_eq!(run_diff(&opts, &day1, &day2).unwrap(), expected);

        let mut iceberg = IcebergProcessor::new(params, opts.phi, opts.eps, 2, opts.seed);
        iceberg.observe_stream(&s1);
        let result = iceberg.result();
        let mut expected = format!(
            "# items above 2.00% of {} occurrences (threshold {})\n",
            result.n, result.threshold
        );
        for (key, est) in &result.items {
            expected.push_str(&format!("{est:>10}  {}\n", label(*key)));
        }
        assert_eq!(run_iceberg(&opts, &day1).unwrap(), expected);

        let files: Vec<String> = [&day1, &day2]
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let path = dir.join(format!("site.{i}.txt"));
                std::fs::write(&path, text).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let reports = [&s1, &s2].map(|s| site_report(s, opts.k, params, opts.seed));
        let merged = DistributedSketch::coordinate(&reports).unwrap();
        let coordinate = Options {
            files,
            ..opts.clone()
        };
        assert_eq!(
            run_coordinate(&coordinate).unwrap(),
            render_report(&merged, opts.k, &[])
        );

        let mut top = ApproxTopProcessor::new(params, opts.k, opts.seed);
        top.observe_stream(&s2);
        let distinct: std::collections::HashSet<&str> = day2.split_whitespace().collect();
        let mut expected = format!(
            "# top-8 of {} occurrences ({} distinct seen, algorithm: count-sketch)\n",
            s2.len(),
            distinct.len()
        );
        for (key, est) in top.result().items {
            expected.push_str(&format!("{est:>10}  {}\n", label(key)));
        }
        let snap = dir.join("top.csnp").to_string_lossy().into_owned();
        for every in [0, 997] {
            let opts = Options {
                snapshot: Some(snap.clone()),
                snapshot_every: every,
                ..opts.clone()
            };
            assert_eq!(run_top(&opts, &day2).unwrap(), expected, "every = {every}");
            let written = std::fs::read(&snap).unwrap();
            assert!(written == top.to_snapshot_bytes(), "every = {every}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_hashes_with_the_restored_geometry() {
        // The snapshot's -t 3 -b 64 overrides the default -t 5 -b 4096,
        // so the scanner must hash with the restored sketch's functions:
        // over several runs, with and without checkpoints, the report and
        // the snapshot equal the library's restore-then-observe.
        let dir = std::env::temp_dir().join(format!("fi-cli-resume-geo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let day1 = zipf_text(2 * CHUNK + 3, 600, 1.0, 31);
        let day2 = zipf_text(3 * CHUNK + 17, 600, 1.0, 32);
        let first = Options {
            command: "top".into(),
            k: 5,
            rows: 3,
            buckets: 64,
            snapshot: Some(path("small.csnp")),
            ..Default::default()
        };
        run_top(&first, &day1).unwrap();
        let restored = std::fs::read(path("small.csnp")).unwrap();

        let mut p = <ApproxTopProcessor>::from_snapshot_bytes(&restored).unwrap();
        assert_eq!((p.sketch().rows(), p.sketch().buckets()), (3, 64));
        for tok in day2.split_whitespace() {
            p.observe(ItemKey::of(tok));
        }
        let distinct: std::collections::HashSet<&str> = day2.split_whitespace().collect();
        let mut expected = format!(
            "# top-5 of {} occurrences ({} distinct seen, algorithm: count-sketch)\n",
            3 * CHUNK + 17,
            distinct.len()
        );
        for (key, est) in p.result().items {
            let label = distinct.iter().find(|tok| ItemKey::of(tok) == key);
            expected.push_str(&format!("{est:>10}  {}\n", label.unwrap_or(&UNKNOWN_LABEL)));
        }
        for every in [0, 997] {
            let opts = Options {
                command: "top".into(),
                k: 5,
                resume: Some(path("small.csnp")),
                snapshot: Some(path("resumed.csnp")),
                snapshot_every: every,
                ..Default::default()
            };
            assert_eq!(run_top(&opts, &day2).unwrap(), expected, "every = {every}");
            let written = std::fs::read(path("resumed.csnp")).unwrap();
            assert!(written == p.to_snapshot_bytes(), "every = {every}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_summarizes_a_snapshot() {
        let dir = std::env::temp_dir().join(format!("fi-cli-inspect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.csnp").to_string_lossy().into_owned();
        let opts = Options {
            command: "top".into(),
            k: 3,
            snapshot: Some(snap.clone()),
            ..Default::default()
        };
        run_top(&opts, &("hot ".repeat(90) + &"cold ".repeat(4))).unwrap();

        let inspect = parse_args(&args(&format!("inspect -k 4 {snap}"))).unwrap();
        let report = run(&inspect).unwrap();
        assert!(report.contains("processor snapshot"), "{report}");
        assert!(report.contains("5 rows x 4096 buckets"), "{report}");
        assert!(report.contains("combiner median"), "{report}");
        assert!(report.contains("5/5 rows clean"), "{report}");
        assert!(report.contains("policy increment-tracked"), "{report}");
        // The dominant token's count shows up among the tracked entries.
        assert!(report.contains("90"), "{report}");

        // Corruption is the typed Corrupt error, not a panic.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        match run(&inspect) {
            Err(e @ CliError::Corrupt { .. }) => assert_eq!(e.exit_code(), EXIT_CORRUPT),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        // A missing snapshot is an I/O error.
        let gone = parse_args(&args("inspect /nonexistent/fi-inspect.csnp")).unwrap();
        match run(&gone) {
            Err(e @ CliError::Io { .. }) => assert_eq!(e.exit_code(), EXIT_IO),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve_subcommand() {
        let o = parse_args(&args(
            "serve --listen 127.0.0.1:7700 --sites 3 --quorum 2 --deadline-ms 2000",
        ))
        .unwrap();
        assert_eq!(o.command, "serve");
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7700"));
        assert_eq!((o.sites, o.quorum), (3, 2));
        assert_eq!(o.deadline_ms, 2000);
        assert_eq!(serve_config(&o).deadline_ms, 2000);
        // Quorum defaults to all sites.
        let all = parse_args(&args("serve --listen 127.0.0.1:0 --sites 3")).unwrap();
        assert_eq!(serve_config(&all).quorum, 3);
        assert!(parse_args(&args("serve --sites 3")).is_err());
        assert!(parse_args(&args("serve --listen a --sites 2 --quorum 3")).is_err());
        assert!(parse_args(&args("serve --listen a --sites 0")).is_err());
        assert!(parse_args(&args("serve --listen a --sites 1 f.txt")).is_err());
    }

    #[test]
    fn parse_ship_subcommand() {
        let o = parse_args(&args(
            "ship --to 127.0.0.1:7700 --site-id 1 --sites 3 --fault flip:100 --fault-seed 9 s.txt",
        ))
        .unwrap();
        assert_eq!(o.command, "ship");
        assert_eq!(o.to.as_deref(), Some("127.0.0.1:7700"));
        assert_eq!(o.site_id, Some(1));
        assert_eq!(o.fault.as_deref(), Some("flip:100"));
        assert_eq!(o.fault_seed, 9);
        assert!(parse_args(&args("ship --site-id 0")).is_err());
        assert!(parse_args(&args("ship --to a")).is_err());
        assert!(parse_args(&args("ship --to a --site-id 3 --sites 3")).is_err());
        // Fault specs are validated at parse time, and only for ship.
        assert!(parse_args(&args("ship --to a --site-id 0 --fault melt:3")).is_err());
        assert!(parse_args(&args("top --fault cut:10")).is_err());
    }

    #[test]
    fn serve_and_ship_reject_sketches_no_frame_can_carry() {
        // 1 × 6 628 031 cells snapshot to at most 67 108 858 bytes (ten
        // bytes a counter), the largest at most MAX_PAYLOAD; one more
        // cell can be 10 bytes over it.
        for cmd in ["serve --listen a", "ship --to a --site-id 0"] {
            assert!(parse_args(&args(&format!("{cmd} -t 1 -b 6628031"))).is_ok());
            let err = parse_args(&args(&format!("{cmd} -t 1 -b 6628032"))).unwrap_err();
            assert!(err.contains("up to 67108868 bytes"), "{err}");
            let err = parse_args(&args(&format!("{cmd} -t 4294967296 -b 4294967296"))).unwrap_err();
            assert!(err.contains("over usize::MAX"), "{err}");
        }
        // Commands that ship nothing keep any geometry.
        assert!(parse_args(&args("top -t 9 -b 1048576")).is_ok());
    }

    #[test]
    fn parse_coordinate_and_shard_subcommands() {
        let o = parse_args(&args("coordinate -k 5 a.txt b.txt c.txt")).unwrap();
        assert_eq!(o.command, "coordinate");
        assert_eq!(o.files.len(), 3);
        assert!(parse_args(&args("coordinate")).is_err());

        let s = parse_args(&args("shard --sites 4 --out-prefix site in.txt")).unwrap();
        assert_eq!(s.sites, 4);
        assert_eq!(s.out_prefix.as_deref(), Some("site"));
        assert!(parse_args(&args("shard --sites 4")).is_err());
        assert!(parse_args(&args("shard --out-prefix p a.txt b.txt")).is_err());
    }

    #[test]
    fn shard_then_coordinate_recovers_the_global_top_k() {
        let dir = std::env::temp_dir().join(format!("fi-cli-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("site").to_string_lossy().into_owned();
        let text = "hot ".repeat(90) + &"warm ".repeat(40) + &"cold ".repeat(5);

        let shard_opts = Options {
            command: "shard".into(),
            sites: 3,
            out_prefix: Some(prefix.clone()),
            ..Default::default()
        };
        let summary = run_shard(&shard_opts, &text).unwrap();
        assert_eq!(summary.lines().count(), 3, "{summary}");

        let coord_opts = Options {
            command: "coordinate".into(),
            k: 2,
            files: (0..3).map(|i| format!("{prefix}.{i}.txt")).collect(),
            ..Default::default()
        };
        let report = run_coordinate(&coord_opts).unwrap();
        assert!(
            report.starts_with("# top-2 of 135 occurrences across 3 site(s)"),
            "{report}"
        );
        let first = report.lines().nth(1).unwrap();
        assert!(first.trim().starts_with("90"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_ship_over_loopback_match_coordinate() {
        let dir = std::env::temp_dir().join(format!("fi-cli-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("site").to_string_lossy().into_owned();
        let text = "hot ".repeat(80) + &"warm ".repeat(30) + &"cold ".repeat(9);
        let shard_opts = Options {
            command: "shard".into(),
            sites: 2,
            out_prefix: Some(prefix.clone()),
            ..Default::default()
        };
        run_shard(&shard_opts, &text).unwrap();

        // Pre-bind on port 0 to learn a free port, matching the CI flow.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let serve_opts = Options {
            command: "serve".into(),
            k: 2,
            listen: Some(addr.clone()),
            sites: 2,
            deadline_ms: 5_000,
            ..Default::default()
        };
        let server = std::thread::spawn(move || run_serve(&serve_opts));
        let mut shippers = Vec::new();
        for i in 0..2 {
            let text = std::fs::read_to_string(format!("{prefix}.{i}.txt")).unwrap();
            let opts = Options {
                command: "ship".into(),
                k: 2,
                to: Some(addr.clone()),
                site_id: Some(i),
                sites: 2,
                ..Default::default()
            };
            shippers.push(std::thread::spawn(move || run_ship(&opts, &text)));
        }
        for s in shippers {
            let line = s.join().unwrap().unwrap();
            assert!(line.contains("accepted"), "{line}");
        }
        let served = server.join().unwrap().unwrap();

        let coord_opts = Options {
            command: "coordinate".into(),
            k: 2,
            files: (0..2).map(|i| format!("{prefix}.{i}.txt")).collect(),
            ..Default::default()
        };
        assert_eq!(
            served,
            run_coordinate(&coord_opts).unwrap(),
            "wire report must be byte-identical to the in-process merge"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let codes = [
            CliError::Usage("x".into()).exit_code(),
            CliError::Io {
                path: "f".into(),
                message: "m".into(),
            }
            .exit_code(),
            CliError::Corrupt {
                path: "f".into(),
                message: "m".into(),
            }
            .exit_code(),
        ];
        assert!(codes.iter().all(|&c| c != 0 && c != 1));
        let mut unique = codes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
    }

    #[test]
    fn cli_error_display_names_the_file() {
        let e = CliError::Corrupt {
            path: "state.csnp".into(),
            message: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("state.csnp") && msg.contains("corrupt"),
            "{msg}"
        );
    }

    #[test]
    fn run_reports_invalid_utf8_as_corrupt_input() {
        // Deterministic bad bytes are not retryable: exit 4, not 3, and
        // the message names where the bad sequence starts.
        let dir = std::env::temp_dir().join(format!("fi-cli-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, b"ok tok\xe2\x80 b").unwrap();
        let good = dir.join("good.txt");
        std::fs::write(&good, "ok").unwrap();
        let (bad, good) = (bad.to_string_lossy(), good.to_string_lossy());
        for line in [
            format!("top {bad}"),
            format!("iceberg {bad}"),
            format!("diff {good} {bad}"),
            format!("coordinate {good} {bad}"),
        ] {
            match run(&parse_args(&args(&line)).unwrap()) {
                Err(e @ CliError::Corrupt { .. }) => {
                    assert_eq!(e.exit_code(), EXIT_CORRUPT);
                    let msg = e.to_string();
                    assert!(
                        msg.contains("bad.txt") && msg.contains("byte offset 6"),
                        "{msg}"
                    );
                }
                other => panic!("{line}: expected Corrupt error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_missing_file_as_io_error() {
        let opts = parse_args(&args("top /nonexistent/fi-test-input.txt")).unwrap();
        match run(&opts) {
            Err(CliError::Io { path, .. }) => assert!(path.contains("nonexistent")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_then_resume_continues_the_count() {
        let dir = std::env::temp_dir().join(format!("fi-cli-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.csnp").to_string_lossy().into_owned();

        // Session 1: count and persist.
        let mut opts = Options {
            command: "top".into(),
            k: 2,
            snapshot: Some(snap.clone()),
            ..Default::default()
        };
        run_top(&opts, &"x ".repeat(60)).unwrap();

        // Session 2: resume and keep counting; totals span both runs.
        opts.snapshot = None;
        opts.resume = Some(snap.clone());
        let report = run_top(&opts, &"x ".repeat(40)).unwrap();
        assert!(report.contains("100"), "expected combined count: {report}");

        // One uninterrupted session over everything agrees.
        let oneshot = run_top(
            &Options {
                command: "top".into(),
                k: 2,
                ..Default::default()
            },
            &"x ".repeat(100),
        )
        .unwrap();
        assert_eq!(report.lines().nth(1), oneshot.lines().nth(1));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_corrupt_snapshot_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("fi-cli-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.csnp").to_string_lossy().into_owned();

        let mut opts = Options {
            command: "top".into(),
            snapshot: Some(snap.clone()),
            ..Default::default()
        };
        run_top(&opts, "a b c").unwrap();

        // Flip one byte mid-file: detection, not a panic or bad counts.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();

        opts.snapshot = None;
        opts.resume = Some(snap.clone());
        match run_top(&opts, "d e f") {
            Err(e @ CliError::Corrupt { .. }) => assert_eq!(e.exit_code(), EXIT_CORRUPT),
            other => panic!("expected Corrupt error, got {other:?}"),
        }

        // A missing snapshot is an I/O error, distinct from corruption.
        opts.resume = Some(dir.join("absent.csnp").to_string_lossy().into_owned());
        match run_top(&opts, "d e f") {
            Err(e @ CliError::Io { .. }) => assert_eq!(e.exit_code(), EXIT_IO),
            other => panic!("expected Io error, got {other:?}"),
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod algorithm_tests {
    use super::*;

    #[test]
    fn parse_algorithm_flag() {
        let args: Vec<String> = "top --algorithm space-saving"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.algorithm, "space-saving");
        let bad: Vec<String> = "top --algorithm bogus"
            .split_whitespace()
            .map(String::from)
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn every_algorithm_finds_the_heavy_token() {
        let text = "hot ".repeat(200) + &"cold ".repeat(10) + "once";
        for alg in ["count-sketch", "space-saving", "kps", "lossy"] {
            let opts = Options {
                command: "top".into(),
                k: 1,
                algorithm: alg.into(),
                ..Default::default()
            };
            let report = run_top(&opts, &text).unwrap();
            let first = report.lines().nth(1).unwrap_or("");
            assert!(first.contains("hot"), "{alg}: {report}");
        }
    }
}
