//! Multi-core sharded ingestion through a worker pool.
//!
//! §3.2's additivity (sketches built with the same hash functions merge
//! by counter addition) is a parallelization license: partition the
//! stream, sketch the shards independently with the same `(params,
//! seed)`, and add. [`SketchPool`] turns that license into a long-lived
//! pipeline.
//!
//! ## Sharding
//!
//! Streams are partitioned **by key hash** ([`cs_hash::shard_of`]), not
//! by position: every occurrence of a key lands on one worker, in stream
//! order, so each worker's sketch sees a key's updates as a contiguous
//! subsequence and per-key sequential semantics (e.g. single-key
//! saturation) are preserved exactly.
//!
//! ## Determinism contract
//!
//! The guarantees are layered, strongest first:
//!
//! 1. **Healthy regime** — if the stream's total absolute mass `Σ|w|`
//!    fits in `i64` (no counter can clamp on any path), the pool-merged
//!    sketch is **bit-identical** to the sequential sketch — counters
//!    *and* (all-zero) saturation flags — at every worker count. All
//!    tier-1 workloads live here.
//! 2. **Single-key saturation** — a key whose own mass overflows still
//!    behaves bit-identically to sequential at any worker count: all its
//!    occurrences are on one worker (key sharding), and merging with the
//!    other workers' disjoint-key sketches reproduces the sequential
//!    clamp-and-flag cell states.
//! 3. **General saturating streams** — exact bit-identity to the
//!    *stream-order* sequential run is impossible for any sharding: a
//!    cell that clamps under one interleaving of ±`i64::MAX` updates
//!    holds a different value under another (clamping is not
//!    associative). What is guaranteed — and property-tested — is that
//!    every **unflagged cell holds the exact signed sum** of its
//!    updates (no silent wraparound, same invariant as the scalar
//!    two-tier path), and that the result is a pure function of
//!    `(stream, params, seed, worker count)` — reruns are reproducible.

use crate::params::SketchParams;
use crate::sketch::CountSketch;
use cs_hash::{shard_of, ItemKey};
use cs_stream::turnstile::Update;
use cs_stream::{Stream, TurnstileStream};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Keys buffered per shard before a job is sent to the worker.
const FLUSH_LEN: usize = 1024;

/// Bounded depth of each worker's job channel: enough to keep a worker
/// busy while the router fills the next buffer, small enough to
/// backpressure the router instead of ballooning memory.
const CHANNEL_DEPTH: usize = 2;

/// A job routed to one pool worker. Per-shard channels are FIFO, so a
/// worker applies its jobs in routing order.
enum Job {
    /// `weight` occurrences of each key, in stream order.
    Weighted(Stream, i64),
    /// Signed turnstile updates, in stream order.
    Turnstile(TurnstileStream),
}

/// A long-lived pool of sketch workers fed by bounded channels.
///
/// Each worker owns a private [`CountSketch`] built from the same
/// `(params, seed)` and applies each job of its key-hash shard with
/// [`CountSketch::absorb`] or [`CountSketch::absorb_turnstile`]: one
/// [`CountSketch::update`] per key. [`SketchPool::finish`] joins the workers
/// and merges additively; see the module docs for the exact determinism
/// contract.
///
/// ```
/// use cs_core::parallel::SketchPool;
/// use cs_core::{CountSketch, SketchParams};
/// use cs_stream::Stream;
///
/// let params = SketchParams::new(5, 256);
/// let stream = Stream::from_ids((0..10_000).map(|i| i % 97));
/// let mut pool = SketchPool::new(params, 42, 4);
/// pool.ingest_stream(&stream);
/// let mut sequential = CountSketch::new(params, 42);
/// sequential.absorb(&stream, 1);
/// assert_eq!(pool.finish().counters(), sequential.counters());
/// ```
pub struct SketchPool {
    senders: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<CountSketch>>,
    keys: Vec<Vec<ItemKey>>,
    weight: i64,
    updates: Vec<Vec<Update>>,
}

impl SketchPool {
    /// Spawns `workers` sketch workers, each with a private
    /// `CountSketch::new(params, seed)`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(params: SketchParams, seed: u64, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx): (SyncSender<Job>, Receiver<Job>) = sync_channel(CHANNEL_DEPTH);
            let handle = std::thread::Builder::new()
                .name(format!("cs-pool-{w}"))
                .spawn(move || {
                    let mut sketch = CountSketch::new(params, seed);
                    while let Ok(job) = rx.recv() {
                        match job {
                            Job::Weighted(keys, weight) => sketch.absorb(&keys, weight),
                            Job::Turnstile(updates) => sketch.absorb_turnstile(&updates),
                        }
                    }
                    sketch
                })
                .expect("failed to spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            senders,
            handles,
            keys: vec![Vec::new(); workers],
            weight: 1,
            updates: vec![Vec::new(); workers],
        }
    }

    /// The number of workers (= shards).
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Routes unit-weight occurrences to their shards.
    pub fn ingest(&mut self, keys: &[ItemKey]) {
        self.ingest_weighted(keys, 1);
    }

    /// Routes a whole stream of unit-weight occurrences.
    pub fn ingest_stream(&mut self, stream: &Stream) {
        self.ingest(stream.as_slice());
    }

    /// Routes `weight` occurrences of each key to its shard.
    pub fn ingest_weighted(&mut self, keys: &[ItemKey], weight: i64) {
        if weight != self.weight {
            // Pending keys carry the previous weight: flush before
            // retagging the buffers.
            for shard in 0..self.workers() {
                self.flush_keys(shard);
            }
            self.weight = weight;
        }
        for &key in keys {
            let shard = shard_of(key, self.workers());
            // Per-shard FIFO across job kinds: turnstile updates buffered
            // for this shard precede these keys in stream order.
            self.flush_updates(shard);
            self.keys[shard].push(key);
            if self.keys[shard].len() == FLUSH_LEN {
                self.flush_keys(shard);
            }
        }
    }

    /// Routes signed turnstile updates to their shards.
    pub fn ingest_updates(&mut self, updates: &[Update]) {
        for &u in updates {
            let shard = shard_of(u.key, self.workers());
            self.flush_keys(shard);
            self.updates[shard].push(u);
            if self.updates[shard].len() == FLUSH_LEN {
                self.flush_updates(shard);
            }
        }
    }

    /// Routes a whole turnstile stream.
    pub fn ingest_turnstile(&mut self, stream: &TurnstileStream) {
        let updates: Vec<Update> = stream.iter().collect();
        self.ingest_updates(&updates);
    }

    fn flush_keys(&mut self, shard: usize) {
        if !self.keys[shard].is_empty() {
            let batch = std::mem::take(&mut self.keys[shard]);
            self.senders[shard]
                .send(Job::Weighted(Stream::from_keys(batch), self.weight))
                .expect("pool worker hung up");
        }
    }

    fn flush_updates(&mut self, shard: usize) {
        if !self.updates[shard].is_empty() {
            let batch = std::mem::take(&mut self.updates[shard]);
            self.senders[shard]
                .send(Job::Turnstile(TurnstileStream::from_updates(batch)))
                .expect("pool worker hung up");
        }
    }

    /// Flushes the routing buffers, joins the workers, and merges their
    /// sketches additively (strict [`CountSketch::merge`]; falls back to
    /// [`CountSketch::merge_saturating`] only if the combined mass
    /// overflows a cell, which clamps and flags it exactly like the
    /// scalar slow tier would).
    pub fn finish(mut self) -> CountSketch {
        for shard in 0..self.workers() {
            self.flush_keys(shard);
            self.flush_updates(shard);
        }
        // Closing the channels is each worker's shutdown signal.
        drop(std::mem::take(&mut self.senders));
        let mut partials: Vec<CountSketch> = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("pool worker panicked"))
            .collect();
        let mut merged = partials.remove(0);
        for p in &partials {
            if merged.merge(p).is_err() {
                merged
                    .merge_saturating(p)
                    .expect("pool sketches share params and seed");
            }
        }
        merged
    }
}

/// One-shot pooled sketching: routes `stream` through a fresh
/// [`SketchPool`] and returns the merged sketch.
pub fn sketch_stream_pooled(
    stream: &Stream,
    params: SketchParams,
    seed: u64,
    workers: usize,
) -> CountSketch {
    let mut pool = SketchPool::new(params, seed, workers);
    pool.ingest_stream(stream);
    pool.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_stream::{Zipf, ZipfStreamKind};

    fn zipf_stream(n: usize, seed: u64) -> Stream {
        Zipf::new(300, 1.1).stream(n, seed, ZipfStreamKind::Sampled)
    }

    /// Counters and saturation flags must both agree.
    fn assert_sketch_identical(a: &CountSketch, b: &CountSketch, ctx: &str) {
        assert_eq!(a.counters(), b.counters(), "{ctx}: counters diverge");
        for row in 0..a.rows() {
            for bucket in 0..a.buckets() {
                assert_eq!(
                    a.is_cell_saturated(row, bucket),
                    b.is_cell_saturated(row, bucket),
                    "{ctx}: saturation flag diverges at ({row}, {bucket})"
                );
            }
        }
    }

    #[test]
    fn pool_matches_sequential_across_worker_counts() {
        let stream = zipf_stream(30_000, 4);
        let params = SketchParams::new(5, 256);
        let mut sequential = CountSketch::new(params, 9);
        sequential.absorb(&stream, 1);
        for workers in [1, 2, 4, 8] {
            let pooled = sketch_stream_pooled(&stream, params, 9, workers);
            assert_sketch_identical(&pooled, &sequential, &format!("workers = {workers}"));
        }
    }

    #[test]
    fn pool_weighted_matches_sequential() {
        let stream = zipf_stream(10_000, 6);
        let params = SketchParams::new(5, 128);
        let mut sequential = CountSketch::new(params, 3);
        sequential.absorb(&stream, 7);
        sequential.absorb(&stream, -2);
        for workers in [1, 2, 4, 8] {
            let mut pool = SketchPool::new(params, 3, workers);
            pool.ingest_weighted(stream.as_slice(), 7);
            pool.ingest_weighted(stream.as_slice(), -2);
            assert_sketch_identical(
                &pool.finish(),
                &sequential,
                &format!("weighted, workers = {workers}"),
            );
        }
    }

    #[test]
    fn pool_turnstile_matches_sequential() {
        let base = zipf_stream(8_000, 12);
        let turnstile = TurnstileStream::difference(&zipf_stream(4_000, 13), &base);
        let params = SketchParams::new(5, 128);
        let mut sequential = CountSketch::new(params, 21);
        sequential.absorb_turnstile(&turnstile);
        for workers in [1, 2, 4, 8] {
            let mut pool = SketchPool::new(params, 21, workers);
            pool.ingest_turnstile(&turnstile);
            assert_sketch_identical(
                &pool.finish(),
                &sequential,
                &format!("turnstile, workers = {workers}"),
            );
        }
    }

    #[test]
    fn pool_mixed_job_kinds_keep_per_shard_order() {
        // Interleave weighted and turnstile ingestion; per-shard FIFO
        // must preserve the relative order so the sums stay exact.
        let a = zipf_stream(3_000, 1);
        let b = TurnstileStream::difference(&zipf_stream(3_000, 2), &Stream::new());
        let c = zipf_stream(3_000, 3);
        let params = SketchParams::new(5, 128);
        let mut sequential = CountSketch::new(params, 5);
        sequential.absorb(&a, 2);
        sequential.absorb_turnstile(&b);
        sequential.absorb(&c, 1);
        for workers in [1, 3, 4] {
            let mut pool = SketchPool::new(params, 5, workers);
            pool.ingest_weighted(a.as_slice(), 2);
            pool.ingest_turnstile(&b);
            pool.ingest(c.as_slice());
            assert_sketch_identical(
                &pool.finish(),
                &sequential,
                &format!("mixed, workers = {workers}"),
            );
        }
    }

    #[test]
    fn pool_call_slicing_does_not_matter() {
        // Ragged ingest calls vs one call: the merged sketch must not
        // depend on how callers slice their input.
        let stream = zipf_stream(10_000, 8);
        let keys = stream.as_slice();
        let params = SketchParams::new(5, 128);
        let mut one_call = SketchPool::new(params, 2, 4);
        one_call.ingest(keys);
        let mut ragged = SketchPool::new(params, 2, 4);
        let mut at = 0usize;
        for len in [1, 31, 1000, 1024, 2500] {
            ragged.ingest(&keys[at..at + len]);
            at += len;
        }
        ragged.ingest(&keys[at..]);
        assert_sketch_identical(&ragged.finish(), &one_call.finish(), "ragged slicing");
    }

    #[test]
    fn pool_single_key_saturation_is_bit_identical() {
        // All of one key's mass lands on one worker, so even a clamping
        // key reproduces the sequential cell states at any worker count.
        let key = ItemKey(77);
        let params = SketchParams::new(3, 32);
        let mut sequential = CountSketch::new(params, 1);
        for _ in 0..3 {
            sequential.update(key, i64::MAX);
        }
        assert!(sequential.health().saturated_cells > 0);
        for workers in [1, 2, 4, 8] {
            let mut pool = SketchPool::new(params, 1, workers);
            for _ in 0..3 {
                pool.ingest_weighted(&[key], i64::MAX);
            }
            assert_sketch_identical(
                &pool.finish(),
                &sequential,
                &format!("saturating key, workers = {workers}"),
            );
        }
    }

    #[test]
    fn pool_empty_stream() {
        let params = SketchParams::new(3, 16);
        let pool = SketchPool::new(params, 0, 4);
        let merged = pool.finish();
        assert!(merged.counters().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn pool_zero_workers_rejected() {
        SketchPool::new(SketchParams::new(1, 1), 0, 0);
    }
}
