//! The COUNT SKETCH data structure (§3.2 of the paper).
//!
//! A `t × b` array of signed counters. Row `i` owns a pairwise-independent
//! bucket hash `h_i` and sign hash `s_i`. The two operations are exactly
//! the paper's:
//!
//! ```text
//! ADD(C, q):      for i in 1..=t { C[i][h_i(q)] += s_i(q) }
//! ESTIMATE(C, q): median_i { C[i][h_i(q)] · s_i(q) }
//! ```
//!
//! The structure additionally supports weighted and negative updates
//! (needed verbatim by the §4.2 max-change first pass, which does
//! `h_i[q] -= s_i(q)` over `S1`), and addition/subtraction of whole
//! sketches that share hash functions — the additivity §3.2 points out.
//!
//! The sketch is generic over the hash constructions via
//! [`DrawBucketHasher`]/[`DrawSignHasher`]; [`CountSketch`] is the
//! paper-faithful pairwise-polynomial instantiation and
//! [`FastCountSketch`] the multiply-shift/tabulation fast path (buckets
//! rounded up to a power of two).

use crate::error::CoreError;
use crate::median::{combine, Combiner};
use crate::params::SketchParams;
use cs_hash::{
    BucketHasher, ItemKey, MultiplyShift, PairwiseHash, PairwiseSign, SeedSequence, SignHasher,
    TabulationHash,
};
use cs_stream::Stream;

/// A bucket-hash construction the sketch can draw rows from.
///
/// `draw_for` may round the requested bucket count up (multiply-shift
/// requires powers of two) and returns the count actually used.
pub trait DrawBucketHasher: BucketHasher + Sized {
    /// Draws one row hash aiming at `buckets` buckets.
    fn draw_for(seeds: &mut SeedSequence, buckets: usize) -> Self;
}

/// A sign-hash construction the sketch can draw rows from.
pub trait DrawSignHasher: SignHasher + Sized {
    /// Draws one row sign hash.
    fn draw_for(seeds: &mut SeedSequence) -> Self;
}

impl DrawBucketHasher for PairwiseHash {
    fn draw_for(seeds: &mut SeedSequence, buckets: usize) -> Self {
        PairwiseHash::draw(seeds, buckets)
    }
}

impl DrawBucketHasher for MultiplyShift {
    fn draw_for(seeds: &mut SeedSequence, buckets: usize) -> Self {
        let (h, _) = MultiplyShift::draw_at_least(seeds, buckets.max(2));
        h
    }
}

impl DrawBucketHasher for TabulationHash {
    fn draw_for(seeds: &mut SeedSequence, buckets: usize) -> Self {
        TabulationHash::draw(seeds, buckets)
    }
}

impl DrawSignHasher for PairwiseSign {
    fn draw_for(seeds: &mut SeedSequence) -> Self {
        PairwiseSign::draw(seeds)
    }
}

impl DrawSignHasher for cs_hash::FourWiseSign {
    fn draw_for(seeds: &mut SeedSequence) -> Self {
        cs_hash::FourWiseSign::draw(seeds)
    }
}

impl DrawSignHasher for TabulationHash {
    fn draw_for(seeds: &mut SeedSequence) -> Self {
        // Range is irrelevant for sign use; 2 keeps it cheap.
        TabulationHash::draw(seeds, 2)
    }
}

/// The Count-Sketch, generic over hash constructions.
///
/// ```
/// use cs_core::{CountSketch, SketchParams};
/// use cs_hash::ItemKey;
///
/// let mut sketch = CountSketch::new(SketchParams::new(5, 256), 42);
/// for _ in 0..500 {
///     sketch.add(ItemKey(7));
/// }
/// sketch.update(ItemKey(7), -100); // turnstile deletion
/// assert_eq!(sketch.estimate(ItemKey(7)), 400);
///
/// // Additivity: same (params, seed) sketches can be merged.
/// let other = CountSketch::new(SketchParams::new(5, 256), 42);
/// sketch.merge(&other).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct GenericCountSketch<H, S> {
    pub(crate) rows: usize,
    pub(crate) buckets: usize,
    /// Row-major `rows × buckets` counters.
    pub(crate) counters: Vec<i64>,
    /// One bit per counter, set when that counter has ever been clamped
    /// at `i64::MAX`/`i64::MIN` instead of silently wrapping. A saturated
    /// cell no longer tracks its true signed mass, so estimates that
    /// probe it are suspect — [`GenericCountSketch::estimate_checked`]
    /// excludes such rows and [`GenericCountSketch::health`] reports them.
    pub(crate) saturated: Vec<u64>,
    pub(crate) hashers: Vec<H>,
    pub(crate) signs: Vec<S>,
    pub(crate) seed: u64,
    pub(crate) combiner: Combiner,
    /// Upper bound on `|counter|` over every cell: the saturating sum of
    /// `|weight|` across all updates ever absorbed (refreshed to the
    /// tight `max |counter|` after bulk counter writes). While
    /// `abs_mass + |w| ≤ i64::MAX` an update of weight `w` provably
    /// cannot overflow any cell, so it may take the branch-free
    /// pure-`i64` path and skip the per-cell `i128` clamp-and-flag
    /// entirely — the two-tier overflow scheme.
    pub(crate) abs_mass: u64,
}

/// Saturation report for a sketch: which fraction of the structure still
/// carries exact signed mass.
///
/// The paper's Lemma-3/4 analysis needs the median to be taken over rows
/// whose probed counters are exact; a saturated counter is effectively an
/// adversarially corrupted row. The median tolerates corrupted rows only
/// while the clean rows still form a strict majority, so the confidence
/// of an estimate degrades as `degraded_rows` grows — quantified by
/// [`SketchHealth::error_bound_widening`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchHealth {
    /// Total rows `t`.
    pub rows: usize,
    /// Buckets per row `b`.
    pub buckets: usize,
    /// Counters that have been clamped at least once.
    pub saturated_cells: usize,
    /// Rows containing at least one saturated counter.
    pub degraded_rows: usize,
}

impl SketchHealth {
    /// No counter has ever saturated: every guarantee holds as analyzed.
    pub fn is_healthy(&self) -> bool {
        self.saturated_cells == 0
    }

    /// Rows with no saturated counters — the rows whose estimates are
    /// still exact signed sums.
    pub fn clean_rows(&self) -> usize {
        self.rows - self.degraded_rows
    }

    /// The factor by which the estimate's failure-probability exponent
    /// widens. A degraded row can out-vote a clean one, so the median's
    /// margin shrinks from `t` to `t - 2·degraded`; the bound widens by
    /// `t / (t - 2·degraded)`, and becomes vacuous (`+∞`) once the clean
    /// rows no longer form a strict majority.
    pub fn error_bound_widening(&self) -> f64 {
        let margin = self.rows as i64 - 2 * self.degraded_rows as i64;
        if margin <= 0 {
            f64::INFINITY
        } else {
            self.rows as f64 / margin as f64
        }
    }
}

/// An estimate plus the evidence behind it, from
/// [`GenericCountSketch::estimate_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedEstimate {
    /// The combined estimate, computed over the clean rows only (all
    /// rows, if every probed cell is saturated).
    pub value: i64,
    /// Rows whose probed counter was exact.
    pub clean_rows: usize,
    /// Rows whose probed counter had saturated.
    pub saturated_rows: usize,
}

impl CheckedEstimate {
    /// Whether the estimate carries the full analyzed guarantee: no
    /// probed counter had saturated.
    pub fn is_exact_evidence(&self) -> bool {
        self.saturated_rows == 0
    }
}

/// The paper-faithful instantiation: pairwise-independent polynomial
/// bucket hashes and pairwise-independent sign hashes.
pub type CountSketch = GenericCountSketch<PairwiseHash, PairwiseSign>;

/// Fast instantiation: multiply-shift bucket hashes (buckets rounded up to
/// a power of two) and tabulation sign hashes.
pub type FastCountSketch = GenericCountSketch<MultiplyShift, TabulationHash>;

impl<H: DrawBucketHasher, S: DrawSignHasher> GenericCountSketch<H, S> {
    /// Creates a sketch with the given dimensions, drawing all `2t` hash
    /// functions deterministically from `seed`. Two sketches created with
    /// equal `(params, seed)` share hash functions and may be added or
    /// subtracted.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let mut seeds = SeedSequence::new(seed);
        let hashers: Vec<H> = (0..params.rows)
            .map(|_| H::draw_for(&mut seeds, params.buckets))
            .collect();
        let signs: Vec<S> = (0..params.rows).map(|_| S::draw_for(&mut seeds)).collect();
        // Constructions may round the bucket count up; take the real one.
        let buckets = hashers
            .first()
            .map(|h| h.num_buckets())
            .unwrap_or(params.buckets);
        debug_assert!(hashers.iter().all(|h| h.num_buckets() == buckets));
        Self {
            rows: params.rows,
            buckets,
            counters: vec![0; params.rows * buckets],
            saturated: vec![0; (params.rows * buckets).div_ceil(64)],
            hashers,
            signs,
            seed,
            combiner: Combiner::default(),
            abs_mass: 0,
        }
    }
}

impl<H: BucketHasher, S: SignHasher> GenericCountSketch<H, S> {
    /// Replaces the row combiner (default: the paper's median). Used by
    /// the mean-vs-median ablation.
    pub fn with_combiner(mut self, combiner: Combiner) -> Self {
        self.combiner = combiner;
        self
    }

    /// Number of rows `t`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of buckets per row `b` (after any rounding by the hash
    /// construction).
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The seed all hash functions were drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The active row combiner.
    pub fn combiner(&self) -> Combiner {
        self.combiner
    }

    /// The paper's `ADD(C, q)`.
    #[inline]
    pub fn add(&mut self, key: ItemKey) {
        self.update(key, 1);
    }

    /// Removes one occurrence (`h_i[q] -= s_i[q]`, the §4.2 first-pass
    /// step over `S1`).
    #[inline]
    pub fn remove(&mut self, key: ItemKey) {
        self.update(key, -1);
    }

    /// General turnstile update: adds `weight` occurrences (may be
    /// negative).
    ///
    /// Counters never wrap. Two-tier overflow handling: while the
    /// `abs_mass` watermark proves no cell can reach the `i64` limits the
    /// additions run branch-free in pure `i64`; once headroom is exhausted
    /// every update falls back to [`Self::update_exact`], whose `i128`
    /// clamp-and-flag is surfaced by [`Self::health`] and
    /// [`Self::estimate_checked`]. Both tiers produce bit-identical
    /// counters — the fast tier is only taken when clamping cannot occur.
    #[inline]
    pub fn update(&mut self, key: ItemKey, weight: i64) {
        match self.headroom_after(weight) {
            Some(mass) => {
                self.abs_mass = mass;
                // Canonicalize the key once per hash family, not once per
                // row (see `BucketHasher::canon`).
                let k = key.raw();
                let (kb, ks) = (self.hashers[0].canon(k), self.signs[0].canon(k));
                for (i, (h, sg)) in self.hashers.iter().zip(&self.signs).enumerate() {
                    self.counters[i * self.buckets + h.bucket_canon(kb)] +=
                        sg.sign_canon(ks) * weight;
                }
            }
            None => self.update_exact(key, weight),
        }
    }

    /// `update(key, weight)` followed by `ESTIMATE(C, key)` in one pass:
    /// the estimate reads back the `t` cells the update just wrote, so
    /// each row is hashed once instead of twice. Same two-tier overflow
    /// scheme as [`Self::update`]: while the `abs_mass` watermark proves
    /// no cell can clamp, the row estimates `s_i(q)·C[i][h_i(q)]` come
    /// straight from the fresh cells (a stack column, sketch depths up to
    /// `FUSED_ROWS`); otherwise, and for taller sketches, it falls back
    /// to [`Self::update`] plus [`Self::estimate_with_scratch`]. Counters,
    /// saturation flags, `abs_mass` and the returned value are
    /// bit-identical to that pair of calls in either tier.
    #[inline]
    pub(crate) fn update_estimate(
        &mut self,
        key: ItemKey,
        weight: i64,
        scratch: &mut EstimateScratch,
    ) -> i64 {
        match self.headroom_after(weight) {
            Some(mass) if self.rows <= FUSED_ROWS => {
                self.abs_mass = mass;
                let k = key.raw();
                let (kb, ks) = (self.hashers[0].canon(k), self.signs[0].canon(k));
                let mut ests = [0i64; FUSED_ROWS];
                for (i, ((h, sg), e)) in self
                    .hashers
                    .iter()
                    .zip(&self.signs)
                    .zip(&mut ests)
                    .enumerate()
                {
                    let sign = sg.sign_canon(ks);
                    let cell = &mut self.counters[i * self.buckets + h.bucket_canon(kb)];
                    *cell += sign * weight;
                    // |cell| ≤ abs_mass ≤ i64::MAX, so the product is exact.
                    *e = sign * *cell;
                }
                combine(self.combiner, &ests[..self.rows], &mut scratch.sort)
            }
            _ => {
                self.update(key, weight);
                self.estimate_with_scratch(key, scratch)
            }
        }
    }

    /// The exact slow tier: carries every cell sum in `i128` so even
    /// `sign · i64::MIN` is handled correctly, clamping and flagging any
    /// cell that would overflow. Public so `harness throughput` can
    /// time the tiers directly; [`Self::update`] dispatches here
    /// automatically when headroom runs out.
    #[inline]
    pub fn update_exact(&mut self, key: ItemKey, weight: i64) {
        self.abs_mass = self.abs_mass.saturating_add(weight.unsigned_abs());
        let k = key.raw();
        for i in 0..self.rows {
            let bucket = self.hashers[i].bucket(k);
            let sign = self.signs[i].sign(k);
            let idx = i * self.buckets + bucket;
            let sum = i128::from(self.counters[idx]) + i128::from(sign) * i128::from(weight);
            self.counters[idx] = self.clamp_and_flag(idx, sum);
        }
    }

    /// The watermark after absorbing one update of `weight`, or `None`
    /// if some cell could then exceed the `i64` range. Since
    /// `|counter| ≤ abs_mass` holds for every cell, `Some` proves the
    /// update is clamp-free.
    #[inline]
    fn headroom_after(&self, weight: i64) -> Option<u64> {
        self.abs_mass
            .checked_add(weight.unsigned_abs())
            .filter(|&total| total <= i64::MAX as u64)
    }

    /// Restores the `abs_mass` invariant (`|counter| ≤ abs_mass` for all
    /// cells) after counters were overwritten wholesale — snapshot
    /// restore. The tight bound
    /// `max |counter|` is the most headroom the invariant allows us to
    /// reclaim without replaying the stream.
    pub(crate) fn refresh_mass_floor(&mut self) {
        self.abs_mass = self
            .counters
            .iter()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0);
    }

    /// Clamps an exact `i128` cell value into `i64`, flagging the cell as
    /// saturated if clamping happened.
    #[inline]
    fn clamp_and_flag(&mut self, idx: usize, exact: i128) -> i64 {
        if exact > i128::from(i64::MAX) {
            self.flag_saturated(idx);
            i64::MAX
        } else if exact < i128::from(i64::MIN) {
            self.flag_saturated(idx);
            i64::MIN
        } else {
            exact as i64
        }
    }

    /// Records that cell `idx` has been clamped.
    #[inline]
    fn flag_saturated(&mut self, idx: usize) {
        self.saturated[idx / 64] |= 1 << (idx % 64);
    }

    /// Whether the counter at `(row, bucket)` has ever been clamped.
    pub fn is_cell_saturated(&self, row: usize, bucket: usize) -> bool {
        let idx = row * self.buckets + bucket;
        self.saturated[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Saturation report: how much of the structure still carries exact
    /// signed mass, and how far the error bound has widened.
    pub fn health(&self) -> SketchHealth {
        let mut saturated_cells = 0;
        let mut degraded_rows = 0;
        for row in 0..self.rows {
            let mut row_hit = false;
            for bucket in 0..self.buckets {
                if self.is_cell_saturated(row, bucket) {
                    saturated_cells += 1;
                    row_hit = true;
                }
            }
            if row_hit {
                degraded_rows += 1;
            }
        }
        SketchHealth {
            rows: self.rows,
            buckets: self.buckets,
            saturated_cells,
            degraded_rows,
        }
    }

    /// Adds every occurrence of a stream, each with `weight`: one
    /// [`Self::update`] per occurrence.
    pub fn absorb(&mut self, stream: &Stream, weight: i64) {
        for key in stream.iter() {
            self.update(key, weight);
        }
    }

    /// Applies every signed update of a turnstile stream (the sketch is
    /// linear, so insertions and deletions are the same operation).
    pub fn absorb_turnstile(&mut self, stream: &cs_stream::TurnstileStream) {
        for u in stream.iter() {
            self.update(u.key, u.delta);
        }
    }

    /// Writes the `t` per-row estimates `C[i][h_i(q)]·s_i(q)` into `out`.
    pub fn row_estimates(&self, key: ItemKey, out: &mut Vec<i64>) {
        out.clear();
        let k = key.raw();
        for i in 0..self.rows {
            let bucket = self.hashers[i].bucket(k);
            let sign = self.signs[i].sign(k);
            // saturating: −1 · i64::MIN must not wrap (a clamped cell can
            // legitimately hold i64::MIN).
            out.push(sign.saturating_mul(self.counters[i * self.buckets + bucket]));
        }
    }

    /// The paper's `ESTIMATE(C, q)`: the combiner (median by default) of
    /// the per-row estimates.
    pub fn estimate(&self, key: ItemKey) -> i64 {
        let mut rows = Vec::with_capacity(self.rows);
        let mut scratch = Vec::with_capacity(self.rows);
        self.row_estimates(key, &mut rows);
        combine(self.combiner, &rows, &mut scratch)
    }

    /// Overflow-aware estimate: rows whose probed counter has saturated
    /// are excluded from the combine (they no longer carry the true
    /// signed mass), and the returned [`CheckedEstimate`] says how many
    /// rows of exact evidence back the value. If *every* probed cell is
    /// saturated the value falls back to combining the clamped counters —
    /// still the best available answer, but flagged as zero clean rows.
    pub fn estimate_checked(&self, key: ItemKey) -> CheckedEstimate {
        let k = key.raw();
        let mut clean = Vec::with_capacity(self.rows);
        let mut all = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let bucket = self.hashers[i].bucket(k);
            let sign = self.signs[i].sign(k);
            let est = sign.saturating_mul(self.counters[i * self.buckets + bucket]);
            all.push(est);
            if !self.is_cell_saturated(i, bucket) {
                clean.push(est);
            }
        }
        let mut scratch = Vec::with_capacity(self.rows);
        let evidence = if clean.is_empty() { &all } else { &clean };
        CheckedEstimate {
            value: combine(self.combiner, evidence, &mut scratch),
            clean_rows: clean.len(),
            saturated_rows: self.rows - clean.len(),
        }
    }

    /// Allocation-free estimate for hot loops: both buffers are reused.
    #[inline]
    pub fn estimate_with_scratch(&self, key: ItemKey, scratch: &mut EstimateScratch) -> i64 {
        self.row_estimates(key, &mut scratch.rows);
        combine(self.combiner, &scratch.rows, &mut scratch.sort)
    }

    /// Whether two sketches share dimensions and hash functions (equal
    /// seeds of the same construction imply equal functions).
    pub fn compatible<H2: BucketHasher, S2: SignHasher>(
        &self,
        other: &GenericCountSketch<H2, S2>,
    ) -> Result<(), CoreError> {
        if self.rows != other.rows || self.buckets != other.buckets {
            return Err(CoreError::DimensionMismatch {
                left: (self.rows, self.buckets),
                right: (other.rows, other.buckets),
            });
        }
        if self.seed != other.seed {
            return Err(CoreError::SeedMismatch {
                left: self.seed,
                right: other.seed,
            });
        }
        Ok(())
    }

    /// Adds another sketch into this one (`C += D`). The sketches must
    /// have been created with equal `(params, seed)` — §3.2: "if two
    /// sketches share the same hash functions ... we can add and subtract
    /// them".
    ///
    /// Strict about overflow: the whole addition is validated first, and
    /// if any cell would overflow `i64` the merge is refused with
    /// [`CoreError::CounterSaturated`] and `self` is left untouched
    /// (validate-then-apply, so a failed merge never half-applies). Use
    /// [`Self::merge_saturating`] when clamped degradation is preferred
    /// to refusal.
    pub fn merge(&mut self, other: &Self) -> Result<(), CoreError> {
        self.compatible(other)?;
        for (idx, (&c, &d)) in self.counters.iter().zip(&other.counters).enumerate() {
            if c.checked_add(d).is_none() {
                return Err(CoreError::CounterSaturated {
                    row: idx / self.buckets,
                    bucket: idx % self.buckets,
                });
            }
        }
        for (c, &d) in self.counters.iter_mut().zip(&other.counters) {
            *c += d;
        }
        for (w, &o) in self.saturated.iter_mut().zip(&other.saturated) {
            *w |= o;
        }
        // |c + d| ≤ |c| + |d| ≤ abs_mass + other.abs_mass cell-wise.
        self.abs_mass = self.abs_mass.saturating_add(other.abs_mass);
        Ok(())
    }

    /// Adds another sketch, clamping any overflowing cell at the `i64`
    /// limits and flagging it instead of refusing. The degradation is
    /// visible through [`Self::health`].
    pub fn merge_saturating(&mut self, other: &Self) -> Result<(), CoreError> {
        self.compatible(other)?;
        for idx in 0..self.counters.len() {
            let sum = i128::from(self.counters[idx]) + i128::from(other.counters[idx]);
            self.counters[idx] = self.clamp_and_flag(idx, sum);
        }
        for (w, &o) in self.saturated.iter_mut().zip(&other.saturated) {
            *w |= o;
        }
        self.abs_mass = self.abs_mass.saturating_add(other.abs_mass);
        Ok(())
    }

    /// Subtracts another sketch (`C -= D`), yielding a sketch of the
    /// difference of the two streams — the basis of the max-change
    /// algorithm. Validate-then-apply like [`Self::merge`]: refused with
    /// [`CoreError::CounterSaturated`] if any cell would overflow.
    pub fn subtract(&mut self, other: &Self) -> Result<(), CoreError> {
        self.compatible(other)?;
        for (idx, (&c, &d)) in self.counters.iter().zip(&other.counters).enumerate() {
            if c.checked_sub(d).is_none() {
                return Err(CoreError::CounterSaturated {
                    row: idx / self.buckets,
                    bucket: idx % self.buckets,
                });
            }
        }
        for (c, &d) in self.counters.iter_mut().zip(&other.counters) {
            *c -= d;
        }
        for (w, &o) in self.saturated.iter_mut().zip(&other.saturated) {
            *w |= o;
        }
        // |c − d| ≤ |c| + |d|, same bound as merge.
        self.abs_mass = self.abs_mass.saturating_add(other.abs_mass);
        Ok(())
    }

    /// Resets all counters to zero (hash functions are kept), including
    /// saturation flags. Headroom for the fast ingestion tier is fully
    /// restored.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.saturated.fill(0);
        self.abs_mass = 0;
    }

    /// Raw counter array (row-major), for tests and diagnostics.
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Mutable counter array — crate-internal, used by the snapshot
    /// codec.
    pub(crate) fn counters_mut(&mut self) -> &mut [i64] {
        &mut self.counters
    }

    /// Saturation bitset words (row-major cell order, 64 cells per word),
    /// for tests and diagnostics; persisted by the snapshot codec.
    pub fn saturated_words(&self) -> &[u64] {
        &self.saturated
    }

    /// The overflow watermark: an upper bound on `|counter|` over every
    /// cell, for tests and diagnostics. Updates take the pure-`i64` tier
    /// while it stays at most `i64::MAX`.
    pub fn abs_mass(&self) -> u64 {
        self.abs_mass
    }

    /// Mutable saturation bitset — crate-internal, restored by the
    /// snapshot codec.
    pub(crate) fn saturated_words_mut(&mut self) -> &mut [u64] {
        &mut self.saturated
    }

    /// The `(bucket, sign)` cell a key maps to in each row, in row order.
    /// Exposes the hash functions without exposing the hasher types.
    pub fn row_cells(&self, key: ItemKey) -> impl Iterator<Item = (usize, i64)> + '_ {
        let k = key.raw();
        (0..self.rows).map(move |i| (self.hashers[i].bucket(k), self.signs[i].sign(k)))
    }

    /// Heap + inline bytes: counters plus the stored hash functions. This
    /// is the `O(tb)` term of the paper's space bound, with real constants.
    pub fn space_bytes(&self) -> usize {
        let counters = self.counters.capacity() * std::mem::size_of::<i64>();
        let hashers: usize = self.hashers.iter().map(|h| h.space_bytes()).sum();
        let signs: usize = self.signs.iter().map(|s| SignHasher::space_bytes(s)).sum();
        std::mem::size_of::<Self>() + counters + hashers + signs
    }
}

/// Deepest sketch whose row estimates [`GenericCountSketch::update_estimate`]
/// stages on the stack; taller sketches take its two-call fallback.
const FUSED_ROWS: usize = 16;

/// Reusable buffers for [`GenericCountSketch::estimate_with_scratch`].
#[derive(Debug, Default, Clone)]
pub struct EstimateScratch {
    pub(crate) rows: Vec<i64>,
    pub(crate) sort: Vec<i64>,
}

impl EstimateScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable lanes for [`GenericCountSketch::estimate_batch_with_scratch`].
/// Row-major: lane `i*READ_BLOCK + j` holds row `i`'s sign-tagged bucket (and later its
/// signed row estimate) for the j-th key of the current block. Create
/// once and reuse; zeroing ~16 KiB of lanes per call would eat the
/// batch win.
#[derive(Debug, Clone)]
pub struct EstimateBatchScratch {
    /// Bucket index with the row's ±1 sign packed into bit 63 (a bucket
    /// index never reaches 2^63). One lane instead of two halves the
    /// staging traffic between the hash and gather passes, and the
    /// gather recovers the sign mask with a single arithmetic shift.
    pub(crate) buckets: [usize; BATCH_LANES],
    pub(crate) ests: [i64; BATCH_LANES],
    /// Per-key column buffer handed to the combiner (`t` values).
    pub(crate) rows: Vec<i64>,
    /// Combiner sort scratch (unused at network depths).
    pub(crate) sort: Vec<i64>,
}

/// Keys per read-path block. The gather pass lives on memory-level
/// parallelism once the counter array outgrows L1, and a wide block
/// keeps many independent counter loads in flight.
pub(crate) const READ_BLOCK: usize = 64;

/// Widest sketch the read-path lanes cover. Taller sketches (rare: the
/// paper's `t` is `O(log n/δ)`, and the repo's experiments top out at
/// `t = 11`) take the scalar path per key.
const LANE_ROWS: usize = 16;

/// Lane count: one read block per row, sketch depths up to
/// [`LANE_ROWS`].
const BATCH_LANES: usize = READ_BLOCK * LANE_ROWS;

impl EstimateBatchScratch {
    /// Fresh (zeroed) lanes and empty combiner buffers.
    pub fn new() -> Self {
        Self {
            buckets: [0; BATCH_LANES],
            ests: [0; BATCH_LANES],
            rows: Vec::new(),
            sort: Vec::new(),
        }
    }
}

impl Default for EstimateBatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl<H: BucketHasher, S: SignHasher> GenericCountSketch<H, S> {
    /// Batched `ESTIMATE(C, q)` over a block of keys: the answer for
    /// `keys[j]` lands in `out[j]`. Bit-identical to calling
    /// [`Self::estimate`] per key, for every combiner — the same row
    /// estimates `s_i(q)·C[i][h_i(q)]` (saturating multiply included)
    /// feed the same combiner; only the order of memory traffic changes.
    ///
    /// Each block of 64 keys is canonicalized once per hash family and hashed into the scratch
    /// lanes rows-outer (every key's `2t` multiply chains are
    /// independent and pipeline), then the counters are gathered
    /// **row-major** — each row's bucket array is walked for the whole
    /// block, keeping a block's worth of independent counter loads in
    /// flight per row — and finally each key's column is combined, at
    /// the common depths through a branch-free sorting-network median.
    /// Sketches taller than the lanes (t > 16) take the scalar path per
    /// key.
    ///
    /// `out` is cleared and refilled; no allocation happens beyond its
    /// (reused) capacity.
    pub fn estimate_batch_with_scratch(
        &self,
        keys: &[ItemKey],
        scratch: &mut EstimateBatchScratch,
        out: &mut Vec<i64>,
    ) {
        const BLOCK: usize = READ_BLOCK;
        out.clear();
        let lanes_fit = self.rows <= LANE_ROWS;
        if !lanes_fit {
            for &key in keys {
                self.row_estimates(key, &mut scratch.rows);
                out.push(combine(self.combiner, &scratch.rows, &mut scratch.sort));
            }
            return;
        }
        // Results are written through a pre-sized slice rather than
        // `push`: the per-key capacity-and-length bookkeeping is the kind
        // of overhead this kernel exists to amortize away.
        out.resize(keys.len(), 0);
        let mut done = 0usize;
        let EstimateBatchScratch {
            buckets,
            ests,
            rows,
            sort,
        } = scratch;
        // At the network depths (median combiner, t ∈ {3,5,7,9}) the
        // combine pass is a fixed branch-free sorting network dispatched
        // once per call, and the gather stays block-wide: a whole chunk's
        // counter loads are independent and in flight together, which is
        // what keeps the kernel fast once the sketch outgrows L1.
        let network = self.combiner == Combiner::Median && matches!(self.rows, 3 | 5 | 7 | 9);
        let mut braw = [0u64; BLOCK];
        let mut sraw = [0u64; BLOCK];
        for chunk in keys.chunks(BLOCK) {
            let n = chunk.len();
            // Hash pass: each key is canonicalized ONCE per hash family
            // (for the Mersenne-field families that is the `mod p` fold,
            // which is idempotent) and the canonical value feeds all `t`
            // row functions — the scalar path re-folds inside every one
            // of the `2t` evaluations. Rows outer keeps the per-key
            // multiply chains independent so they pipeline.
            for ((b, s), key) in braw.iter_mut().zip(&mut sraw).zip(chunk) {
                let k = key.raw();
                *b = self.hashers[0].canon(k);
                *s = self.signs[0].canon(k);
            }
            for (i, (h, sg)) in self.hashers.iter().zip(&self.signs).enumerate() {
                let bl = &mut buckets[i * BLOCK..i * BLOCK + n];
                for ((&k, &ks), b) in braw[..n].iter().zip(&sraw[..n]).zip(bl) {
                    // Sign −1 sets bit 63 of the lane (`±1 >> 1` is the
                    // 0/−1 mask); the bucket index lives in the low bits.
                    *b = h.bucket_canon(k) | (((sg.sign_canon(ks) >> 1) as usize) & (1usize << 63));
                }
            }
            // Gather pass: row-major counter reads, branch-free row
            // estimates. The lane's sign bit arithmetic-shifts back into
            // a 0/−1 mask, and the ±1 multiply is mask arithmetic (m = 0
            // keeps v, m = −1 two's-complement negates, and the wrapping
            // `fix` turns the one overflow, −i64::MIN, into i64::MAX
            // exactly like `saturating_mul(-1, ·)`) — branch-free, which
            // matters because the sign is a fair coin, and off the
            // multiply port the hash chains keep saturated.
            for (i, row) in self.counters.chunks_exact(self.buckets).enumerate() {
                let bl = &buckets[i * BLOCK..i * BLOCK + n];
                let el = &mut ests[i * BLOCK..i * BLOCK + n];
                for (&b, e) in bl.iter().zip(el) {
                    let m = (b as i64) >> 63;
                    let v = row[b & (usize::MAX >> 1)];
                    let w = (v ^ m).wrapping_sub(m);
                    let fix = ((v == i64::MIN) as i64).wrapping_neg() & m;
                    *e = w.wrapping_add(fix);
                }
            }
            // Combine pass: transpose one key's column out of the lanes
            // (t strided L1 reads) and run the combiner — at the network
            // depths that is a branch-free sorting network whose input
            // array fills straight from the transposed reads.
            let dst = &mut out[done..done + n];
            if network {
                macro_rules! net {
                    ($f:ident, $($i:literal),+) => {
                        for (j, d) in dst.iter_mut().enumerate() {
                            *d = crate::median::$f([$(ests[$i * BLOCK + j]),+]);
                        }
                    };
                }
                match self.rows {
                    3 => net!(median3, 0, 1, 2),
                    5 => net!(median5, 0, 1, 2, 3, 4),
                    7 => net!(median7, 0, 1, 2, 3, 4, 5, 6),
                    9 => net!(median9, 0, 1, 2, 3, 4, 5, 6, 7, 8),
                    _ => unreachable!("the network guard admits only 3/5/7/9"),
                }
            } else {
                for (j, d) in dst.iter_mut().enumerate() {
                    rows.clear();
                    for i in 0..self.rows {
                        rows.push(ests[i * BLOCK + j]);
                    }
                    *d = combine(self.combiner, rows, sort);
                }
            }
            done += n;
        }
    }

    /// Convenience wrapper around [`Self::estimate_batch_with_scratch`]
    /// that allocates its own scratch and output. Per-call cost makes it
    /// the wrong entry point for hot loops; callers with a standing
    /// scratch should use the `_with_scratch` form.
    pub fn estimate_batch(&self, keys: &[ItemKey]) -> Vec<i64> {
        let mut scratch = EstimateBatchScratch::new();
        let mut out = Vec::with_capacity(keys.len());
        self.estimate_batch_with_scratch(keys, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_stream::{ExactCounter, Zipf, ZipfStreamKind};
    use proptest::prelude::*;

    fn small() -> CountSketch {
        CountSketch::new(SketchParams::new(5, 64), 42)
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = small();
        assert_eq!(s.estimate(ItemKey(1)), 0);
        assert_eq!(s.estimate(ItemKey(999)), 0);
    }

    #[test]
    fn single_item_exact_without_collisions() {
        let mut s = small();
        for _ in 0..100 {
            s.add(ItemKey(7));
        }
        // Only one item in the sketch: every row estimate is exact.
        assert_eq!(s.estimate(ItemKey(7)), 100);
    }

    #[test]
    fn add_then_remove_cancels() {
        let mut s = small();
        for _ in 0..10 {
            s.add(ItemKey(3));
        }
        for _ in 0..10 {
            s.remove(ItemKey(3));
        }
        assert!(s.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn update_weight_equals_repeated_add() {
        let mut a = small();
        let mut b = small();
        for _ in 0..25 {
            a.add(ItemKey(9));
        }
        b.update(ItemKey(9), 25);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn counter_sum_per_row_tracks_signed_mass() {
        // Each add changes exactly one counter per row by ±1, so each
        // row's L1 mass equals the number of updates when no cancellation.
        let mut s = small();
        s.add(ItemKey(1));
        let nonzero = s.counters().iter().filter(|&&c| c != 0).count();
        assert_eq!(nonzero, 5, "one counter per row");
    }

    #[test]
    fn estimates_unbiased_on_zipf() {
        // Average the estimate of the top item over several seeds: should
        // land near the true count.
        let zipf = Zipf::new(500, 1.0);
        let stream = zipf.stream(20_000, 9, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let truth = exact.count(ItemKey(0)) as f64;
        let mut total = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let mut s = CountSketch::new(SketchParams::new(5, 512), seed);
            s.absorb(&stream, 1);
            total += s.estimate(ItemKey(0)) as f64;
        }
        let avg = total / trials as f64;
        assert!(
            (avg - truth).abs() < 0.05 * truth,
            "avg {avg} vs truth {truth}"
        );
    }

    #[test]
    fn error_within_8_gamma_on_zipf() {
        // Lemma 4's bound, checked empirically for the top-20 items.
        let zipf = Zipf::new(2000, 1.0);
        let stream = zipf.stream(50_000, 3, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let k = 20;
        let b = 1024;
        let gamma = cs_stream::moments::gamma(&exact, k, b);
        let mut s = CountSketch::new(SketchParams::new(11, b), 77);
        s.absorb(&stream, 1);
        for rank in 0..k as u64 {
            let truth = exact.count(ItemKey(rank)) as i64;
            let est = s.estimate(ItemKey(rank));
            assert!(
                (est - truth).abs() as f64 <= 8.0 * gamma,
                "rank {rank}: est {est}, truth {truth}, 8γ = {}",
                8.0 * gamma
            );
        }
    }

    #[test]
    fn merge_equals_sketching_concatenation() {
        let zipf = Zipf::new(100, 1.0);
        let s1 = zipf.stream(2000, 1, ZipfStreamKind::Sampled);
        let s2 = zipf.stream(2000, 2, ZipfStreamKind::Sampled);
        let params = SketchParams::new(5, 128);
        let mut a = CountSketch::new(params, 7);
        a.absorb(&s1, 1);
        let mut b = CountSketch::new(params, 7);
        b.absorb(&s2, 1);
        a.merge(&b).unwrap();

        let mut whole = CountSketch::new(params, 7);
        whole.absorb(&s1, 1);
        whole.absorb(&s2, 1);
        assert_eq!(a.counters(), whole.counters());
    }

    #[test]
    fn subtract_sketches_difference_vector() {
        let params = SketchParams::new(5, 128);
        let mut a = CountSketch::new(params, 3);
        let mut b = CountSketch::new(params, 3);
        for _ in 0..50 {
            a.add(ItemKey(1));
        }
        for _ in 0..20 {
            b.add(ItemKey(1));
        }
        a.subtract(&b).unwrap();
        assert_eq!(a.estimate(ItemKey(1)), 30);
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = CountSketch::new(SketchParams::new(5, 64), 1);
        let b = CountSketch::new(SketchParams::new(5, 128), 1);
        assert!(matches!(
            a.merge(&b),
            Err(CoreError::DimensionMismatch { .. })
        ));
        let c = CountSketch::new(SketchParams::new(7, 64), 1);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn merge_rejects_seed_mismatch() {
        let mut a = CountSketch::new(SketchParams::new(5, 64), 1);
        let b = CountSketch::new(SketchParams::new(5, 64), 2);
        assert_eq!(
            a.merge(&b),
            Err(CoreError::SeedMismatch { left: 1, right: 2 })
        );
    }

    #[test]
    fn clear_zeroes_but_keeps_functions() {
        let mut s = small();
        s.add(ItemKey(5));
        s.clear();
        assert!(s.counters().iter().all(|&c| c == 0));
        // Same hash functions: a fresh add lands in the same cells.
        let mut fresh = small();
        s.add(ItemKey(5));
        fresh.add(ItemKey(5));
        assert_eq!(s.counters(), fresh.counters());
    }

    #[test]
    fn same_seed_same_functions() {
        let mut a = small();
        let mut b = small();
        let zipf = Zipf::new(50, 1.0);
        let stream = zipf.stream(1000, 4, ZipfStreamKind::Sampled);
        a.absorb(&stream, 1);
        b.absorb(&stream, 1);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn fast_sketch_rounds_buckets_to_power_of_two() {
        let s = FastCountSketch::new(SketchParams::new(3, 100), 5);
        assert_eq!(s.buckets(), 128);
        assert_eq!(s.counters().len(), 3 * 128);
    }

    #[test]
    fn fast_sketch_estimates_reasonably() {
        let zipf = Zipf::new(500, 1.0);
        let stream = zipf.stream(20_000, 6, ZipfStreamKind::DeterministicRounded);
        let exact = ExactCounter::from_stream(&stream);
        let mut s = FastCountSketch::new(SketchParams::new(7, 512), 11);
        s.absorb(&stream, 1);
        let truth = exact.count(ItemKey(0)) as i64;
        let est = s.estimate(ItemKey(0));
        assert!(
            (est - truth).abs() < truth / 5,
            "est {est} vs truth {truth}"
        );
    }

    #[test]
    fn scratch_estimate_matches_plain() {
        let zipf = Zipf::new(100, 1.0);
        let stream = zipf.stream(5000, 8, ZipfStreamKind::Sampled);
        let mut s = small();
        s.absorb(&stream, 1);
        let mut scratch = EstimateScratch::new();
        for id in 0..100u64 {
            assert_eq!(
                s.estimate(ItemKey(id)),
                s.estimate_with_scratch(ItemKey(id), &mut scratch)
            );
        }
    }

    #[test]
    fn batch_estimate_matches_scalar_all_combiners() {
        let zipf = Zipf::new(200, 1.0);
        let stream = zipf.stream(10_000, 13, ZipfStreamKind::Sampled);
        for combiner in [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean] {
            let mut s = small().with_combiner(combiner);
            s.absorb(&stream, 1);
            let keys: Vec<ItemKey> = (0..300u64).map(ItemKey).collect();
            let batch = s.estimate_batch(&keys);
            for (j, &key) in keys.iter().enumerate() {
                assert_eq!(batch[j], s.estimate(key), "{combiner:?} key {key:?}");
            }
        }
    }

    #[test]
    fn batch_estimate_block_boundaries() {
        use super::READ_BLOCK as BLOCK;
        let mut s = small();
        let stream = Zipf::new(100, 1.0).stream(5_000, 4, ZipfStreamKind::Sampled);
        s.absorb(&stream, 1);
        let mut scratch = EstimateBatchScratch::new();
        let mut out = Vec::new();
        for len in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let keys: Vec<ItemKey> = (0..len as u64).map(ItemKey).collect();
            s.estimate_batch_with_scratch(&keys, &mut scratch, &mut out);
            assert_eq!(out.len(), len);
            for (j, &key) in keys.iter().enumerate() {
                assert_eq!(out[j], s.estimate(key), "len {len} key {key:?}");
            }
        }
    }

    #[test]
    fn batch_estimate_tall_sketch_takes_scalar_path() {
        // 17 rows exceeds the lane height; the fallback must agree too.
        let mut s = CountSketch::new(SketchParams::new(17, 32), 9);
        let stream = Zipf::new(50, 1.0).stream(2_000, 6, ZipfStreamKind::Sampled);
        s.absorb(&stream, 1);
        let keys: Vec<ItemKey> = (0..80u64).map(ItemKey).collect();
        let batch = s.estimate_batch(&keys);
        for (j, &key) in keys.iter().enumerate() {
            assert_eq!(batch[j], s.estimate(key));
        }
    }

    #[test]
    fn batch_estimate_matches_scalar_on_saturated_cells() {
        let mut s = CountSketch::new(SketchParams::new(3, 4), 5);
        for id in 0..16u64 {
            s.update(ItemKey(id), i64::MAX);
            s.update(ItemKey(id), i64::MAX);
            s.update(ItemKey(id + 100), i64::MIN);
        }
        assert!(!s.health().is_healthy());
        let keys: Vec<ItemKey> = (0..200u64).map(ItemKey).collect();
        let batch = s.estimate_batch(&keys);
        for (j, &key) in keys.iter().enumerate() {
            assert_eq!(batch[j], s.estimate(key), "key {key:?}");
        }
    }

    #[test]
    fn combiner_can_be_swapped() {
        let s = small().with_combiner(Combiner::Mean);
        assert_eq!(s.combiner(), Combiner::Mean);
    }

    #[test]
    fn space_bytes_grows_with_dimensions() {
        let small = CountSketch::new(SketchParams::new(3, 64), 0);
        let big = CountSketch::new(SketchParams::new(9, 4096), 0);
        assert!(big.space_bytes() > small.space_bytes());
        assert!(small.space_bytes() >= 3 * 64 * 8);
    }

    #[test]
    fn snapshot_roundtrip_preserves_estimates() {
        let mut s = small();
        let zipf = Zipf::new(50, 1.0);
        s.absorb(&zipf.stream(1000, 2, ZipfStreamKind::Sampled), 1);
        let bytes = s.to_snapshot_bytes();
        let back = CountSketch::from_snapshot_bytes(&bytes).unwrap();
        for id in 0..50u64 {
            assert_eq!(s.estimate(ItemKey(id)), back.estimate(ItemKey(id)));
        }
    }

    #[test]
    fn update_saturates_instead_of_wrapping() {
        let mut s = CountSketch::new(SketchParams::new(1, 1), 0);
        s.update(ItemKey(1), i64::MAX);
        s.update(ItemKey(1), i64::MAX);
        let c = s.counters()[0];
        assert!(c == i64::MAX || c == i64::MIN, "clamped, not wrapped: {c}");
        assert!(s.is_cell_saturated(0, 0));
        let health = s.health();
        assert_eq!(health.saturated_cells, 1);
        assert_eq!(health.degraded_rows, 1);
        assert!(!health.is_healthy());
        // Estimating must not panic even on the clamped cell.
        let _ = s.estimate(ItemKey(1));
    }

    #[test]
    fn negative_saturation_clamps_at_min() {
        let mut s = CountSketch::new(SketchParams::new(1, 1), 0);
        s.update(ItemKey(1), i64::MIN);
        s.update(ItemKey(1), i64::MIN);
        let c = s.counters()[0];
        assert!(c == i64::MIN || c == i64::MAX);
        assert!(s.is_cell_saturated(0, 0));
        // −1 · i64::MIN inside row_estimates must not overflow either.
        let _ = s.estimate(ItemKey(2));
    }

    #[test]
    fn strict_merge_refuses_overflow_and_leaves_self_untouched() {
        let params = SketchParams::new(1, 1);
        let mut a = CountSketch::new(params, 0);
        let mut b = CountSketch::new(params, 0);
        a.update(ItemKey(1), i64::MAX);
        b.update(ItemKey(1), i64::MAX);
        let before = a.counters().to_vec();
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err, CoreError::CounterSaturated { row: 0, bucket: 0 });
        assert_eq!(a.counters(), &before[..], "validate-then-apply");
        // The saturating variant degrades gracefully instead.
        a.merge_saturating(&b).unwrap();
        assert!(a.is_cell_saturated(0, 0));
        assert!(!a.health().is_healthy());
    }

    #[test]
    fn subtract_refuses_overflow() {
        let params = SketchParams::new(1, 1);
        let mut a = CountSketch::new(params, 0);
        let mut b = CountSketch::new(params, 0);
        a.update(ItemKey(1), i64::MAX);
        b.update(ItemKey(1), i64::MIN);
        assert!(matches!(
            a.subtract(&b),
            Err(CoreError::CounterSaturated { .. })
        ));
    }

    #[test]
    fn estimate_checked_excludes_saturated_rows() {
        // Row 0 of a 3-row sketch saturates; the checked estimate should
        // report 2 clean rows and still produce a sane value.
        let mut s = CountSketch::new(SketchParams::new(3, 4), 5);
        for _ in 0..10 {
            s.add(ItemKey(9));
        }
        let clean = s.estimate_checked(ItemKey(9));
        assert_eq!(clean.saturated_rows, 0);
        assert_eq!(clean.clean_rows, 3);
        assert!(clean.is_exact_evidence());
        assert_eq!(clean.value, s.estimate(ItemKey(9)));

        // Saturate every cell of the sketch via massive updates on many keys.
        for id in 0..64u64 {
            s.update(ItemKey(id), i64::MAX);
            s.update(ItemKey(id), i64::MAX);
        }
        let degraded = s.estimate_checked(ItemKey(9));
        assert!(degraded.saturated_rows > 0);
        assert!(!degraded.is_exact_evidence());
    }

    #[test]
    fn clear_resets_saturation() {
        let mut s = CountSketch::new(SketchParams::new(1, 1), 0);
        s.update(ItemKey(1), i64::MAX);
        s.update(ItemKey(1), i64::MAX);
        assert!(!s.health().is_healthy());
        s.clear();
        assert!(s.health().is_healthy());
        assert!(!s.is_cell_saturated(0, 0));
    }

    #[test]
    fn health_widening_math() {
        let h = SketchHealth {
            rows: 5,
            buckets: 64,
            saturated_cells: 0,
            degraded_rows: 0,
        };
        assert!(h.is_healthy());
        assert_eq!(h.error_bound_widening(), 1.0);
        let h = SketchHealth {
            rows: 5,
            buckets: 64,
            saturated_cells: 3,
            degraded_rows: 1,
        };
        assert_eq!(h.clean_rows(), 4);
        assert!((h.error_bound_widening() - 5.0 / 3.0).abs() < 1e-12);
        let h = SketchHealth {
            rows: 5,
            buckets: 64,
            saturated_cells: 9,
            degraded_rows: 3,
        };
        assert!(h.error_bound_widening().is_infinite());
    }

    /// Depths covering the stack column, every median network and both
    /// sides of the generic median path; the 17-row sketch takes the
    /// fused kernel's two-call fallback.
    const FUSED_DEPTHS: [usize; 8] = [1, 2, 3, 5, 7, 9, 11, 17];
    const COMBINERS: [Combiner; 3] = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean];

    /// Drives `update_estimate` on one copy of `sketch` and `update` then
    /// `estimate_with_scratch` on another, asserting equal answers and
    /// equal state (counters, saturation bits, watermark) after every op.
    fn assert_fused_matches_split<H: BucketHasher + Clone, S: SignHasher + Clone>(
        sketch: GenericCountSketch<H, S>,
        ops: &[(u64, i64)],
    ) {
        let mut fused = sketch.clone();
        let mut split = sketch;
        let (mut fs, mut ss) = (EstimateScratch::new(), EstimateScratch::new());
        for &(id, weight) in ops {
            let key = ItemKey(id);
            let got = fused.update_estimate(key, weight, &mut fs);
            split.update(key, weight);
            let want = split.estimate_with_scratch(key, &mut ss);
            assert_eq!(got, want, "estimate after ({id}, {weight})");
            assert_eq!(fused.counters, split.counters);
            assert_eq!(fused.saturated, split.saturated);
            assert_eq!(fused.abs_mass, split.abs_mass);
        }
    }

    #[test]
    fn fused_kernel_crosses_into_the_slow_tier() {
        // Unit weights on the fast tier, then weights near ±i64::MAX that
        // exhaust the watermark and clamp cells, then unit weights again
        // on the slow tier — for every depth and combiner.
        let mut ops: Vec<(u64, i64)> = (0..200u64).map(|i| (i % 13, 1)).collect();
        ops.extend([
            (3, i64::MAX - 1),
            (3, i64::MAX),
            (4, -i64::MAX),
            (5, i64::MIN),
        ]);
        ops.extend((0..50u64).map(|i| (i % 7, if i % 2 == 0 { 1 } else { -1 })));
        for rows in FUSED_DEPTHS {
            for combiner in COMBINERS {
                let params = SketchParams::new(rows, 8);
                assert_fused_matches_split(
                    CountSketch::new(params, 11).with_combiner(combiner),
                    &ops,
                );
                assert_fused_matches_split(
                    FastCountSketch::new(params, 11).with_combiner(combiner),
                    &ops,
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_update_estimate_equals_update_then_estimate(
            seed: u64,
            depth in 0usize..8,
            comb in 0usize..3,
            buckets in 1usize..40,
            ops in prop::collection::vec((0u64..60, 0u8..24), 1..200),
        ) {
            // Mostly ±1 (the fast tier); now and then a weight near
            // ±i64::MAX, which exhausts the watermark for good and sends
            // every later op down the slow tier.
            let weight = |w: u8| match w {
                0..=13 => 1,
                14..=21 => -1,
                22 => i64::MAX - 2,
                _ => -(i64::MAX - 2),
            };
            let ops: Vec<(u64, i64)> = ops.into_iter().map(|(id, w)| (id, weight(w))).collect();
            let params = SketchParams::new(FUSED_DEPTHS[depth], buckets);
            let combiner = COMBINERS[comb];
            assert_fused_matches_split(CountSketch::new(params, seed).with_combiner(combiner), &ops);
            assert_fused_matches_split(
                FastCountSketch::new(params, seed).with_combiner(combiner),
                &ops,
            );
        }


        #[test]
        fn prop_turnstile_net_zero(ids in prop::collection::vec(0u64..50, 0..100)) {
            // Adding then removing every occurrence leaves all counters 0.
            let mut s = CountSketch::new(SketchParams::new(3, 32), 1);
            for &id in &ids {
                s.add(ItemKey(id));
            }
            for &id in &ids {
                s.remove(ItemKey(id));
            }
            prop_assert!(s.counters().iter().all(|&c| c == 0));
        }

        #[test]
        fn prop_merge_commutes(seed: u64, ids1 in prop::collection::vec(0u64..20, 0..50),
                               ids2 in prop::collection::vec(0u64..20, 0..50)) {
            let params = SketchParams::new(3, 16);
            let mut a = CountSketch::new(params, seed);
            let mut b = CountSketch::new(params, seed);
            for &id in &ids1 { a.add(ItemKey(id)); }
            for &id in &ids2 { b.add(ItemKey(id)); }
            let mut ab = a.clone();
            ab.merge(&b).unwrap();
            let mut ba = b.clone();
            ba.merge(&a).unwrap();
            prop_assert_eq!(ab.counters(), ba.counters());
        }

        #[test]
        fn prop_single_row_single_bucket_is_signed_sum(ids in prop::collection::vec(0u64..10, 0..50)) {
            // With b = 1 every item hits the same counter: the estimate of
            // q is sum_j s(q_j) * s(q) — check internal consistency: the
            // counter equals the signed sum.
            let mut s = CountSketch::new(SketchParams::new(1, 1), 3);
            for &id in &ids {
                s.add(ItemKey(id));
            }
            let total: i64 = s.counters().iter().sum();
            let mut expect = 0i64;
            let probe = CountSketch::new(SketchParams::new(1, 1), 3);
            // Recompute via fresh per-item single adds.
            for &id in &ids {
                let mut one = probe.clone();
                one.add(ItemKey(id));
                expect += one.counters()[0];
            }
            prop_assert_eq!(total, expect);
        }
    }
}
