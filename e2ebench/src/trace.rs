//! The traced run: a workload's job replayed in-process through the
//! workspace crates, timing each public call the CLI makes, in the CLI's
//! order.
//!
//! *Spans* are the calls on the job's blocking path. They run back to
//! back, so their sum over the traced wall time (`trace.coverage`) shows
//! how much of the job the named layers account for. *Replays* re-run one
//! public call over the same data to split a span further (key hashing
//! inside tokenize, the bare sketch update inside observe, the frame and
//! coordinator steps inside a ship); they are reported but kept out of
//! that sum.

use crate::metrics;
use crate::workload::{Job, Workload, SHIP_LANES, SKETCH_SEED};
use frequent_items::cli;
use frequent_items::net::{decode_frame, encode_frame, Frame};
use frequent_items::prelude::*;
use frequent_items::stream::io as stream_io;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One traced pass over a workload's job.
#[derive(Debug, Default)]
pub struct Trace {
    values: BTreeMap<&'static str, f64>,
    blocking_s: f64,
    /// Wall time of the job's blocking path.
    pub wall_s: f64,
    /// The report the replayed job rendered; it must equal `fi`'s.
    pub report: String,
}

impl Trace {
    fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::is_layer(name), "{name} is not a per-layer metric");
        *self.values.entry(name).or_default() += value;
    }

    /// Runs `f` as a span on the blocking path.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let s = started.elapsed().as_secs_f64();
        self.add(name, s);
        self.blocking_s += s;
        out
    }

    /// Runs `f` as a replay: timed and reported, off the blocking path.
    fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    fn count(&mut self, name: &'static str, n: usize) {
        self.add(name, n as f64);
    }

    /// A per-layer value; 0 for a count the job never made.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The share of the wall time the blocking-path spans account for.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.blocking_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Replays `w`'s job once.
pub fn trace(w: &Workload) -> Result<Trace, String> {
    let params = SketchParams::new(w.rows, w.buckets);
    let mut tr = match &w.job {
        Job::Top {
            input,
            snapshot,
            threads,
        } => trace_top(w, params, input, snapshot.as_deref(), *threads),
        Job::Diff { day1, day2 } => trace_diff(w, params, day1, day2),
        Job::Ship { sites } => trace_ship(w, params, sites),
    }?;
    // A layer this job never reaches reads the cost of an empty timed
    // span (tens of nanoseconds), so every printed time is measured.
    for &(name, unit) in &metrics::PER_LAYER {
        if unit == "s" && !name.starts_with("trace.") && !tr.values.contains_key(name) {
            tr.replay(name, || ());
        }
    }
    Ok(tr)
}

fn read(tr: &mut Trace, path: &Path) -> Result<String, String> {
    let text = tr
        .span("cli.read.s", || std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    tr.count("cli.read.bytes", text.len());
    Ok(text)
}

fn tokenize(tr: &mut Trace, text: &str) -> (Stream, HashMap<ItemKey, String>) {
    let (stream, labels) = tr.span("cli.tokenize.s", || cli::tokenize(text));
    tr.count("cli.tokenize.tokens", stream.len());
    tr.count("cli.tokenize.labels", labels.len());
    (stream, labels)
}

fn label(labels: &HashMap<ItemKey, String>, key: ItemKey) -> &str {
    labels.get(&key).map(String::as_str).unwrap_or("<?>")
}

/// Replays key hashing and the bare sketch update over the job's tokens.
fn replay_kernels(tr: &mut Trace, texts: &[&str], streams: &[&Stream], params: SketchParams) {
    let tokens: Vec<&str> = texts.iter().flat_map(|t| t.split_whitespace()).collect();
    tr.replay("hash.item_key.s", || {
        tokens
            .iter()
            .fold(0u64, |acc, tok| acc ^ ItemKey::of(*tok).raw())
    });
    tr.replay("core.sketch.add.s", || {
        let mut sketch = CountSketch::new(params, SKETCH_SEED);
        for stream in streams {
            for key in stream.iter() {
                sketch.add(key);
            }
        }
        sketch
    });
}

/// `fi top`: sequential APPROXTOP, or the `--threads` pool path.
fn trace_top(
    w: &Workload,
    params: SketchParams,
    input: &Path,
    snapshot: Option<&Path>,
    threads: usize,
) -> Result<Trace, String> {
    let mut tr = Trace::default();
    let started = Instant::now();
    let text = read(&mut tr, input)?;
    let (stream, labels) = tokenize(&mut tr, &text);
    let p = if threads > 1 {
        let merged = tr.span("core.parallel.ingest.s", || {
            let mut pool = SketchPool::new(params, SKETCH_SEED, threads);
            pool.ingest_stream(&stream);
            pool.finish()
        });
        tr.count("core.parallel.items", stream.len());
        let candidates = tr.span("cli.candidates.s", || {
            let mut keys: Vec<ItemKey> = labels.keys().copied().collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        });
        let estimates = tr.span("core.sketch.estimate_batch.s", || {
            merged.estimate_batch(&candidates)
        });
        tr.count("core.sketch.estimate_batch.keys", candidates.len());
        let tracker = tr.span("core.topk.offer.s", || {
            let mut tracker = TopKTracker::new(w.k);
            for (&key, &est) in candidates.iter().zip(&estimates) {
                tracker.offer(key, est);
            }
            tracker
        });
        ApproxTopProcessor::from_parts(merged, tracker, HeapPolicy::default())
    } else {
        let p = tr.span("core.approx_top.observe.s", || {
            let mut p = ApproxTopProcessor::new(params, w.k, SKETCH_SEED);
            p.observe_stream(&stream);
            p
        });
        tr.count("core.approx_top.observe.items", stream.len());
        p
    };
    if let Some(path) = snapshot {
        let bytes = tr.span("core.snapshot.encode.s", || p.to_snapshot_bytes());
        tr.count("core.snapshot.bytes", bytes.len());
        tr.span("core.snapshot.write.s", || {
            write_snapshot_file(path, &bytes)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let items = tr.span("core.approx_top.result.s", || p.result().items);
    tr.report = tr.span("cli.report.s", || {
        let mut out = format!(
            "# top-{} of {} occurrences ({} distinct seen, algorithm: count-sketch)\n",
            w.k,
            stream.len(),
            labels.len()
        );
        for (key, est) in &items {
            out.push_str(&format!("{:>10}  {}\n", est, label(&labels, *key)));
        }
        out
    });
    let blocking = started.elapsed().as_secs_f64();
    replay_kernels(&mut tr, &[&text], &[&stream], params);
    tr.span("cli.free.s", move || drop((text, stream, labels, p)));
    tr.wall_s = blocking + tr.get("cli.free.s");
    Ok(tr)
}

/// `fi diff`: the two-pass max-change.
fn trace_diff(
    w: &Workload,
    params: SketchParams,
    day1: &Path,
    day2: &Path,
) -> Result<Trace, String> {
    let mut tr = Trace::default();
    let started = Instant::now();
    let text1 = read(&mut tr, day1)?;
    let text2 = read(&mut tr, day2)?;
    let (s1, mut labels) = tokenize(&mut tr, &text1);
    let (s2, labels2) = tokenize(&mut tr, &text2);
    tr.span("cli.tokenize.s", || labels.extend(labels2));
    let diff = tr.span("core.maxchange.absorb.s", || {
        let mut diff = DiffSketch::new(params, SKETCH_SEED);
        diff.absorb_first(&s1);
        diff.absorb_second(&s2);
        diff
    });
    tr.count("core.maxchange.items", s1.len() + s2.len());
    let result = tr.span("core.maxchange.top_changes.s", || {
        diff.top_changes(&s1, &s2, w.k, 4 * w.k)
    });
    tr.report = tr.span("cli.report.s", || {
        let mut out = format!(
            "# top-{} changes ({} -> {} occurrences)\n",
            w.k,
            s1.len(),
            s2.len()
        );
        for item in &result.items {
            out.push_str(&format!(
                "{:>+10}  {}\n",
                item.exact_change,
                label(&labels, item.key)
            ));
        }
        out
    });
    let blocking = started.elapsed().as_secs_f64();
    replay_kernels(&mut tr, &[&text1, &text2], &[&s1, &s2], params);
    tr.span("cli.free.s", move || {
        drop((text1, text2, s1, s2, labels, diff))
    });
    tr.wall_s = blocking + tr.get("cli.free.s");
    Ok(tr)
}

/// One shipper thread's share of a traced ship-merge.
struct Lane {
    trace: Trace,
    reports: Vec<(usize, SiteReport)>,
    finished: Instant,
}

/// What `fi ship` does, for sites `lane, lane + SHIP_LANES, ...`.
fn ship_lane(
    k: usize,
    params: SketchParams,
    files: &[PathBuf],
    lane: usize,
    addr: &str,
) -> Result<Lane, String> {
    let mut tr = Trace::default();
    let mut reports = Vec::new();
    for site in (lane..files.len()).step_by(SHIP_LANES) {
        let text = read(&mut tr, &files[site])?;
        let (stream, labels) = tokenize(&mut tr, &text);
        let report = tr.span("core.distributed.site_report.s", || {
            site_report(&stream, k, params, SKETCH_SEED)
        });
        let agent = SiteAgent::new(site, files.len());
        tr.count("net.agent.attempts", 1);
        let shipped = tr.span("net.agent.ship.s", || agent.ship(addr, &report));
        if !matches!(shipped, Ok(ShipOutcome::Accepted)) {
            tr.count("net.agent.failed", 1);
            return Err(format!("site {site}: ship ended with {shipped:?}"));
        }
        tr.span("cli.free.s", move || drop((text, stream, labels)));
        reports.push((site, report));
    }
    Ok(Lane {
        trace: tr,
        reports,
        finished: Instant::now(),
    })
}

/// `fi serve` plus the `fi ship` runs, as an in-process coordinator and
/// [`SHIP_LANES`] shipper threads over loopback.
fn trace_ship(w: &Workload, params: SketchParams, files: &[PathBuf]) -> Result<Trace, String> {
    let sites = files.len();
    let config = ServeConfig::new(sites, sites, params, SKETCH_SEED);
    let server =
        CoordinatorServer::bind("127.0.0.1:0", config).map_err(|e| format!("coordinator: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("coordinator: {e}"))?
        .to_string();
    let started = Instant::now();
    let (served, served_at, lanes) = std::thread::scope(|s| {
        let coordinator = s.spawn(move || (server.run(), Instant::now()));
        let lanes: Vec<_> = (0..SHIP_LANES)
            .map(|lane| {
                let addr = addr.as_str();
                s.spawn(move || ship_lane(w.k, params, files, lane, addr))
            })
            .collect();
        let lanes: Vec<Result<Lane, String>> = lanes
            .into_iter()
            .map(|h| h.join().expect("ship lane panicked"))
            .collect();
        let (served, served_at) = coordinator.join().expect("coordinator thread panicked");
        (served, served_at, lanes)
    });
    let lanes = lanes.into_iter().collect::<Result<Vec<Lane>, String>>()?;
    let outcome = served.map_err(|e| format!("coordinator: {e}"))?;
    // The job waits for the lane that finishes last; the other lane's
    // spans overlap it, so they count as work but not as blocking time.
    let critical = (0..lanes.len()).max_by_key(|&i| lanes[i].finished);
    let last_lane_end = critical.map_or(started, |i| lanes[i].finished);
    let mut tr = Trace::default();
    let mut reports = Vec::new();
    for (i, lane) in lanes.into_iter().enumerate() {
        if Some(i) == critical {
            tr.blocking_s += lane.trace.blocking_s;
        }
        for (name, value) in lane.trace.values {
            tr.add(name, value);
        }
        reports.extend(lane.reports);
    }
    let drain = served_at
        .saturating_duration_since(last_lane_end)
        .as_secs_f64();
    tr.add("net.server.drain.s", drain);
    tr.blocking_s += drain;
    tr.report = tr.span("cli.report.s", || {
        render_report(&outcome.sketch, w.k, &outcome.report.excluded)
    });
    tr.wall_s = started.elapsed().as_secs_f64();
    replay_wire(&mut tr, w.k, params, reports, &outcome)?;
    Ok(tr)
}

/// Replays the steps inside `SiteAgent::ship` and `CoordinatorServer::run`
/// over the same site reports: snapshot and frame encoding on the agent
/// side; frame decoding, delivery (CRC, decode, validate), the merge and
/// the top-k on the coordinator side.
fn replay_wire(
    tr: &mut Trace,
    k: usize,
    params: SketchParams,
    mut reports: Vec<(usize, SiteReport)>,
    outcome: &QuorumOutcome,
) -> Result<(), String> {
    reports.sort_by_key(|&(site, _)| site);
    tr.replay("core.distributed.top_k.s", || outcome.sketch.top_k(k));
    let sites = reports.len();
    let mut coordinator =
        QuorumCoordinator::new(sites, sites, params, SKETCH_SEED, RetryPolicy::default())
            .map_err(|e| e.to_string())?;
    for (site, report) in reports {
        let snapshot = tr.replay("core.snapshot.encode.s", || {
            report.sketch.to_snapshot_bytes()
        });
        tr.count("core.snapshot.bytes", snapshot.len());
        let frames = [
            Frame::Snapshot(snapshot.clone()),
            Frame::Report {
                local_n: report.local_n,
                candidates: stream_io::encode(&Stream::from_keys(report.candidates.clone())),
            },
        ];
        for frame in &frames {
            let bytes = tr.replay("net.frame.encode.s", || encode_frame(frame));
            tr.count("net.frame.bytes", bytes.len());
            let (decoded, _) = tr
                .replay("net.frame.decode.s", || decode_frame(&bytes))
                .map_err(|e| e.to_string())?;
            if decoded != *frame {
                return Err("a frame changed in an encode/decode round trip".into());
            }
        }
        tr.replay("core.distributed.deliver.s", || {
            coordinator.deliver_snapshot(site, &snapshot, report.candidates.clone(), report.local_n)
        })
        .map_err(|e| e.to_string())?;
    }
    let merged = tr
        .replay("core.distributed.finalize.s", || coordinator.finalize())
        .map_err(|e| e.to_string())?;
    if render_report(&merged.sketch, k, &[])
        != render_report(&outcome.sketch, k, &outcome.report.excluded)
    {
        return Err("the replayed merge differs from the served one".into());
    }
    Ok(())
}
