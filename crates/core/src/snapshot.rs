//! Versioned, checksummed binary snapshots of sketch state.
//!
//! A long-running sketch (or the [`crate::approx_top::ApproxTopProcessor`]
//! built around one) needs to survive process restarts without replaying
//! its stream. §3.2 additivity makes this safe: the sketch's state is
//! exactly its counter array plus the `(params, seed)` the hash functions
//! are drawn from, so *resume-from-snapshot is bit-identical to an
//! uninterrupted run* — a property the crate's proptests assert rather
//! than assume.
//!
//! ## Wire layout (`CSNP` v2, all fixed-width integers little-endian)
//!
//! ```text
//! magic      u32  = 0x4353_4E50 ("CSNP")
//! version    u32  = 2
//! kind       u32  = 1 (sketch) | 2 (approx-top processor)
//! combiner   u32  = 0 median | 1 mean | 2 trimmed mean
//! rows       u64
//! buckets    u64
//! seed       u64
//! counters   rows·buckets × varint
//! saturation ⌈rows·buckets/64⌉ × u64   -- overflow flags, 1 bit per cell
//! [kind 2 only]
//!   policy   u32  = 0 increment-tracked | 1 always-re-estimate
//!   capacity u64
//!   entries  u64
//!   entry    entries × (key u64, value i64)
//! crc32      u32  -- CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! Kind 3, a sliding-window sketch, is retired: every reader rejects it
//! as [`CoreError::CorruptSnapshot`] ("retired snapshot kind 3").
//!
//! A counter section is dense: one varint per cell, row-major. Each
//! varint is the counter's zigzag code (`0, -1, 1, -2, …` → `0, 1, 2,
//! 3, …`) in unsigned LEB128, seven bits per byte, low group first, the
//! high bit set on every byte but the last. Most cells of a real sketch
//! are near zero, so most take one byte; `i64::MIN` and `i64::MAX` take
//! ten. The reader accepts exactly the encoding the writer emits: a
//! varint longer than ten bytes, one whose tenth byte carries bits past
//! 64, and a non-minimal one (a final `00` byte after the first, as in
//! `80 00` for 0) are [`CoreError::CorruptSnapshot`], so every state
//! has exactly one encoding and decode → encode is byte-identical.
//!
//! **v1** differs only in its version word and in storing each counter
//! as a raw `i64` (8 bytes). Writers emit v2 only; the loaders read
//! both, and decode either straight into the sketch's counter array.
//!
//! Each section has one writer and one reader, and each kind one
//! decoder over them, which its `from_snapshot_bytes` loader runs.
//! [`inspect_snapshot_bytes`] reads through the same decoders and
//! summarizes the value they return, so `fi inspect` accepts exactly
//! the files that load.
//!
//! Hash functions are *not* serialized: they are reconstructed
//! deterministically from `(rows, buckets, seed)`, which both shrinks the
//! snapshot and makes it impossible for a corrupted snapshot to smuggle
//! in mismatched hash functions.
//!
//! ## Failure semantics
//!
//! Loading is total: any byte sequence produces either a valid value or
//! a typed [`CoreError`] — never a panic, never a silently wrong sketch.
//! Structural problems (bad magic/version/kind, impossible lengths)
//! yield [`CoreError::CorruptSnapshot`]; any corruption of an otherwise
//! well-formed snapshot is caught by the trailing CRC-32 and yields
//! [`CoreError::ChecksumMismatch`]. [`write_snapshot_file`] writes
//! through a temporary file and renames, so a crash mid-write leaves
//! either the old snapshot or a detectably torn temp file — never a
//! half-written snapshot under the final name.

use crate::approx_top::{ApproxTopProcessor, HeapPolicy};
use crate::error::CoreError;
use crate::median::Combiner;
use crate::params::SketchParams;
use crate::sketch::CountSketch;
use crate::topk::TopKTracker;
use cs_hash::crc32::crc32;
use cs_hash::ItemKey;
use std::io;
use std::path::Path;

const MAGIC: u32 = 0x4353_4E50; // "CSNP"
/// The version writers emit: counters as zigzag LEB128 varints.
const VERSION: u32 = 2;
/// The first layout, counters as raw `i64`; still read.
const VERSION_RAW: u32 = 1;
/// The longest varint: ⌈64 / 7⌉ bytes.
const MAX_VARINT: usize = 10;
const KIND_SKETCH: u32 = 1;
const KIND_PROCESSOR: u32 = 2;
/// The sliding-window kind, no longer read or written.
const KIND_RETIRED: u32 = 3;
const HEADER: usize = 40;

fn combiner_code(c: Combiner) -> u32 {
    match c {
        Combiner::Median => 0,
        Combiner::Mean => 1,
        Combiner::TrimmedMean => 2,
    }
}

fn combiner_from(code: u32) -> Result<Combiner, CoreError> {
    match code {
        0 => Ok(Combiner::Median),
        1 => Ok(Combiner::Mean),
        2 => Ok(Combiner::TrimmedMean),
        other => Err(CoreError::CorruptSnapshot(format!(
            "unknown combiner code {other}"
        ))),
    }
}

fn policy_code(p: HeapPolicy) -> u32 {
    match p {
        HeapPolicy::IncrementTracked => 0,
        HeapPolicy::AlwaysReEstimate => 1,
    }
}

fn policy_from(code: u32) -> Result<HeapPolicy, CoreError> {
    match code {
        0 => Ok(HeapPolicy::IncrementTracked),
        1 => Ok(HeapPolicy::AlwaysReEstimate),
        other => Err(CoreError::CorruptSnapshot(format!(
            "unknown heap policy code {other}"
        ))),
    }
}

/// Maps signed to unsigned so that small magnitudes of either sign get
/// small codes: `0, -1, 1, -2, …` → `0, 1, 2, 3, …`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Bytes the LEB128 varint of `z` takes: one per started 7-bit group.
fn varint_len(z: u64) -> usize {
    (64 - (z | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decodes the LEB128 varint at `body[pos..]`; returns it and the
/// position after it. Rejects a truncated, over-long, overflowing or
/// non-minimal encoding, so each value has exactly one.
#[inline]
fn read_varint(body: &[u8], mut pos: usize) -> Result<(u64, usize), CoreError> {
    let mut value = 0u64;
    let mut shift = 0;
    loop {
        let Some(&byte) = body.get(pos) else {
            return Err(CoreError::CorruptSnapshot(
                "counter section truncated".into(),
            ));
        };
        pos += 1;
        if byte < 0x80 {
            if byte == 0 && shift > 0 {
                return Err(CoreError::CorruptSnapshot("non-minimal varint".into()));
            }
            if shift == 63 && byte > 1 {
                return Err(CoreError::CorruptSnapshot(
                    "varint overflows 64 bits".into(),
                ));
            }
            return Ok((value | u64::from(byte) << shift, pos));
        }
        if shift == 63 {
            return Err(CoreError::CorruptSnapshot(format!(
                "varint longer than {MAX_VARINT} bytes"
            )));
        }
        value |= u64::from(byte & 0x7f) << shift;
        shift += 7;
    }
}

/// Exact bytes of a sketch's counter and saturation sections as
/// [`push_sketch_body`] writes them, so every writer sizes its buffer once.
fn counters_len(sketch: &CountSketch) -> usize {
    let varints: usize = sketch
        .counters()
        .iter()
        .map(|&c| varint_len(zigzag(c)))
        .sum();
    varints + sketch.saturated_words().len() * 8
}

/// Appends the header and a sketch's counter and saturation sections.
fn push_sketch_body(buf: &mut Vec<u8>, kind: u32, sketch: &CountSketch) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&combiner_code(sketch.combiner()).to_le_bytes());
    buf.extend_from_slice(&(sketch.rows() as u64).to_le_bytes());
    buf.extend_from_slice(&(sketch.buckets() as u64).to_le_bytes());
    buf.extend_from_slice(&sketch.seed().to_le_bytes());
    for &c in sketch.counters() {
        let mut z = zigzag(c);
        while z >= 0x80 {
            buf.push(z as u8 | 0x80);
            z >>= 7;
        }
        buf.push(z as u8);
    }
    for &w in sketch.saturated_words() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A validated, checksummed view over snapshot bytes; parsing happens
/// against this after the CRC has been verified.
struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
    /// [`VERSION`] or [`VERSION_RAW`]: only how counters are read differs.
    version: u32,
}

impl<'a> Reader<'a> {
    /// Verifies magic, version and CRC, and that the kind is not the
    /// retired one; returns a reader over the body (everything between
    /// the magic and the trailing checksum) plus the snapshot's kind
    /// code, without constraining what that kind is.
    fn open_any(bytes: &'a [u8]) -> Result<(Self, u32), CoreError> {
        if bytes.len() < HEADER + 4 {
            return Err(CoreError::CorruptSnapshot(format!(
                "snapshot too short: {} bytes, need at least {}",
                bytes.len(),
                HEADER + 4
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(CoreError::CorruptSnapshot(format!(
                "bad magic 0x{magic:08x}"
            )));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION && version != VERSION_RAW {
            return Err(CoreError::CorruptSnapshot(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let body_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..body_end]);
        if stored != computed {
            return Err(CoreError::ChecksumMismatch { stored, computed });
        }
        let kind = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if kind == KIND_RETIRED {
            return Err(CoreError::CorruptSnapshot(format!(
                "retired snapshot kind {KIND_RETIRED}"
            )));
        }
        Ok((
            Self {
                body: &bytes[..body_end],
                pos: 12,
                version,
            },
            kind,
        ))
    }

    /// [`Reader::open_any`] plus a kind check: loading a processor
    /// snapshot as a bare sketch (or vice versa) is a structural error.
    fn open(bytes: &'a [u8], want_kind: u32) -> Result<Self, CoreError> {
        let (r, kind) = Self::open_any(bytes)?;
        if kind != want_kind {
            return Err(CoreError::CorruptSnapshot(format!(
                "snapshot kind {kind}, expected {want_kind}"
            )));
        }
        Ok(r)
    }

    /// Runs one kind's decoder over the body and checks that it
    /// consumed every byte.
    fn decode<T>(
        mut self,
        decoder: impl FnOnce(&mut Self) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let value = decoder(&mut self)?;
        if self.remaining() != 0 {
            return Err(CoreError::CorruptSnapshot(format!(
                "{} unexpected trailing bytes",
                self.remaining()
            )));
        }
        Ok(value)
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// The next `n` bytes, after one bounds check.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.remaining() < n {
            return Err(CoreError::CorruptSnapshot("section truncated".into()));
        }
        let bytes = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// The fewest bytes a counter+saturation section of `cells` cells
    /// can take in this version (exact for v1), or `None` if it
    /// overflows `usize`.
    fn min_section_bytes(&self, cells: usize) -> Option<usize> {
        let per_cell = if self.version == VERSION_RAW { 8 } else { 1 };
        section_bytes(cells, per_cell)
    }

    /// Fills `out` from one counter section, decoding in place: no
    /// intermediate buffer.
    fn counters(&mut self, out: &mut [i64]) -> Result<(), CoreError> {
        if self.version == VERSION_RAW {
            let raw = self.take(out.len() * 8)?;
            for (c, b) in out.iter_mut().zip(raw.chunks_exact(8)) {
                *c = i64::from_le_bytes(b.try_into().expect("8 bytes"));
            }
            return Ok(());
        }
        let mut pos = self.pos;
        for c in out {
            let (z, next) = read_varint(self.body, pos)?;
            *c = unzigzag(z);
            pos = next;
        }
        self.pos = pos;
        Ok(())
    }

    /// Fills `out` from one section of raw saturation words.
    fn words(&mut self, out: &mut [u64]) -> Result<(), CoreError> {
        let raw = self.take(out.len() * 8)?;
        for (w, b) in out.iter_mut().zip(raw.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        Ok(())
    }
}

/// Reads the header's geometry and the first counter section: the whole
/// of a kind-1 snapshot, and the start of every other kind. The
/// dimensions are validated, and the smallest counter section they imply
/// is checked against the buffer, before anything is sized from them, so
/// a forged length cannot trigger a huge allocation.
fn read_sketch(r: &mut Reader<'_>) -> Result<CountSketch, CoreError> {
    let combiner = combiner_from(r.u32()?)?;
    let rows = r.u64()? as usize;
    let buckets = r.u64()? as usize;
    let seed = r.u64()?;
    if rows == 0 || buckets == 0 {
        return Err(CoreError::CorruptSnapshot(format!(
            "sketch dimensions ({rows}, {buckets}) must be positive"
        )));
    }
    let cells = rows
        .checked_mul(buckets)
        .ok_or_else(|| CoreError::CorruptSnapshot("rows × buckets overflows".into()))?;
    let min_section = r
        .min_section_bytes(cells)
        .ok_or_else(|| CoreError::CorruptSnapshot("section size overflows".into()))?;
    if r.remaining() < min_section {
        return Err(CoreError::CorruptSnapshot(format!(
            "counter section needs at least {min_section} bytes, {} remain",
            r.remaining()
        )));
    }
    let mut sketch =
        CountSketch::new(SketchParams::new(rows, buckets), seed).with_combiner(combiner);
    r.counters(sketch.counters_mut())?;
    r.words(sketch.saturated_words_mut())?;
    // The counters were filled wholesale: re-establish the headroom
    // watermark the pure-`i64` update tier relies on.
    sketch.refresh_mass_floor();
    Ok(sketch)
}

/// Bytes of a tracker section as [`push_tracker`] writes it.
fn tracker_len(tracker: &TopKTracker) -> usize {
    8 + tracker.len() * 16
}

/// Appends a tracker section: the entry count, then each `(key, value)`
/// in [`TopKTracker::items_desc`] order. The capacity is a field of the
/// kind that owns the tracker.
fn push_tracker(buf: &mut Vec<u8>, tracker: &TopKTracker) {
    let items = tracker.items_desc();
    buf.extend_from_slice(&(items.len() as u64).to_le_bytes());
    for (key, value) in items {
        buf.extend_from_slice(&key.raw().to_le_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
    }
}

/// Reads a tracker section into a tracker of `capacity` slots. The
/// capacity must be positive and hold every entry, and the entries must
/// fit in the bytes left, before any is read. A key may appear once: a
/// second entry would silently replace the first one's value.
fn read_tracker(r: &mut Reader<'_>, capacity: usize) -> Result<TopKTracker, CoreError> {
    if capacity == 0 {
        return Err(CoreError::CorruptSnapshot(
            "tracker capacity must be positive".into(),
        ));
    }
    let entries = r.u64()? as usize;
    if entries > capacity {
        return Err(CoreError::CorruptSnapshot(format!(
            "{entries} tracker entries exceed capacity {capacity}"
        )));
    }
    if entries.checked_mul(16).is_none_or(|n| n > r.remaining()) {
        return Err(CoreError::CorruptSnapshot(format!(
            "{entries} tracker entries overrun the {} bytes left",
            r.remaining()
        )));
    }
    let mut tracker = TopKTracker::new(capacity);
    for _ in 0..entries {
        let key = ItemKey(r.u64()?);
        let value = r.u64()? as i64;
        if tracker.contains(key) {
            return Err(CoreError::CorruptSnapshot(format!(
                "tracker key {:#x} appears twice",
                key.raw()
            )));
        }
        // entries ≤ capacity, so every offer lands in the has-room
        // branch and the rebuilt tracker state is exact.
        tracker.offer(key, value);
    }
    Ok(tracker)
}

/// The kind-2 decoder: a sketch, then the policy and capacity fields and
/// a tracker section.
fn read_processor(r: &mut Reader<'_>) -> Result<ApproxTopProcessor, CoreError> {
    let sketch = read_sketch(r)?;
    let policy = policy_from(r.u32()?)?;
    let capacity = r.u64()? as usize;
    let tracker = read_tracker(r, capacity)?;
    Ok(ApproxTopProcessor::from_parts(sketch, tracker, policy))
}

/// Bytes of a counter+saturation section of `cells` cells at
/// `per_cell` bytes a counter, or `None` if it overflows `usize`.
fn section_bytes(cells: usize, per_cell: usize) -> Option<usize> {
    cells
        .checked_mul(per_cell)?
        .checked_add(cells.div_ceil(64) * 8)
}

/// The longest kind-1 snapshot [`CountSketch::to_snapshot_bytes`] can
/// write for a `rows × buckets` sketch — header, ten-byte varints (every
/// counter at `|c| ≥ 2⁶²`), saturation words and checksum — or `None`
/// if it overflows `usize`. Lets a caller bound a sketch's wire size
/// from its geometry alone, before allocating it.
pub fn sketch_snapshot_len(rows: usize, buckets: usize) -> Option<usize> {
    section_bytes(rows.checked_mul(buckets)?, MAX_VARINT)?.checked_add(HEADER + 4)
}

impl CountSketch {
    /// Serializes the sketch to the checksummed `CSNP` snapshot format.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER + counters_len(self) + 4);
        push_sketch_body(&mut buf, KIND_SKETCH, self);
        seal(buf)
    }

    /// Restores a sketch from snapshot bytes, verifying the checksum and
    /// every structural invariant. Total: returns a typed [`CoreError`]
    /// on any malformed input, never panics.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        Reader::open(bytes, KIND_SKETCH)?.decode(read_sketch)
    }
}

impl ApproxTopProcessor {
    /// Serializes the processor (sketch + top-k tracker + policy) to the
    /// checksummed `CSNP` snapshot format.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let sketch = self.sketch();
        let tracker = self.tracker();
        // The policy (u32) and capacity (u64) fields, and the CRC.
        let mut buf =
            Vec::with_capacity(HEADER + counters_len(sketch) + 12 + tracker_len(tracker) + 4);
        push_sketch_body(&mut buf, KIND_PROCESSOR, sketch);
        buf.extend_from_slice(&policy_code(self.policy()).to_le_bytes());
        buf.extend_from_slice(&(tracker.capacity() as u64).to_le_bytes());
        push_tracker(&mut buf, tracker);
        seal(buf)
    }

    /// Restores a processor from snapshot bytes. Resuming observation
    /// afterwards is bit-identical to never having stopped (asserted by
    /// the fault-recovery proptests).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        Reader::open(bytes, KIND_PROCESSOR)?.decode(read_processor)
    }
}

/// Writes snapshot bytes to `path` crash-safely: the bytes go to a
/// sibling temporary file which is fsync'd and renamed into place, so a
/// crash mid-write never leaves a torn file under the final name.
pub fn write_snapshot_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("csnp.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads snapshot bytes back from `path`. I/O errors (missing file,
/// permissions) surface as `io::Error`; corruption is detected later by
/// the `from_snapshot_bytes` checksum verification.
pub fn read_snapshot_file(path: &Path) -> io::Result<Vec<u8>> {
    std::fs::read(path)
}

/// What a `CSNP` snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A bare sketch (`kind = 1`).
    Sketch,
    /// An approx-top processor: sketch plus tracker (`kind = 2`).
    Processor,
}

impl std::fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotKind::Sketch => write!(f, "sketch"),
            SnapshotKind::Processor => write!(f, "processor"),
        }
    }
}

/// A decoded-for-display summary of a snapshot, produced by
/// [`inspect_snapshot_bytes`]. Drives `fi inspect`.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// Format version the snapshot was written in: 1 (raw `i64`
    /// counters) or 2 (varint counters).
    pub version: u32,
    /// Snapshot kind (sketch or processor).
    pub kind: SnapshotKind,
    /// The estimate combiner the sketch was configured with.
    pub combiner: Combiner,
    /// Sketch depth `t`.
    pub rows: usize,
    /// Buckets per row `b`.
    pub buckets: usize,
    /// Hash-function seed.
    pub seed: u64,
    /// Total snapshot size in bytes, checksum included.
    pub total_bytes: usize,
    /// Saturated (overflowed) cells per row; the per-row health bitset
    /// in count form — a row is healthy iff its entry is zero.
    pub row_saturated: Vec<usize>,
    /// Largest-magnitude counters as `(row, bucket, value)`, magnitude
    /// descending.
    pub top_counters: Vec<(usize, usize, i64)>,
    /// The tracker: `Some` exactly for [`SnapshotKind::Processor`].
    pub tracker: Option<TrackerInfo>,
}

/// A processor snapshot's tracker, as [`SnapshotInfo`] summarizes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerInfo {
    /// Eviction policy.
    pub policy: HeapPolicy,
    /// Capacity `k`.
    pub capacity: usize,
    /// Tracked `(key, estimate)` entries, estimate descending.
    pub tracked: Vec<(ItemKey, i64)>,
}

impl SnapshotInfo {
    /// Total number of saturated cells across all rows.
    pub fn saturated_cells(&self) -> usize {
        self.row_saturated.iter().sum()
    }
}

/// Summarizes snapshot bytes for display: header fields, sketch
/// geometry, per-row saturation, the `top` largest-magnitude counters,
/// and (for processor snapshots) the tracked entries. The
/// bytes are decoded by the same per-kind reader the kind's
/// `from_snapshot_bytes` loader runs, so a file is summarized exactly
/// when it loads, and a torn, bit-flipped or forged one yields the
/// loader's typed [`CoreError`], never a panic.
pub fn inspect_snapshot_bytes(bytes: &[u8], top: usize) -> Result<SnapshotInfo, CoreError> {
    let (r, kind) = Reader::open_any(bytes)?;
    let version = r.version;
    let summary = |kind, sketch: &CountSketch| SnapshotInfo {
        version,
        kind,
        combiner: sketch.combiner(),
        rows: sketch.rows(),
        buckets: sketch.buckets(),
        seed: sketch.seed(),
        total_bytes: bytes.len(),
        row_saturated: row_saturation(sketch),
        top_counters: largest_counters(sketch, top),
        tracker: None,
    };
    Ok(match kind {
        KIND_SKETCH => summary(SnapshotKind::Sketch, &r.decode(read_sketch)?),
        KIND_PROCESSOR => {
            let p = r.decode(read_processor)?;
            SnapshotInfo {
                tracker: Some(TrackerInfo {
                    policy: p.policy(),
                    capacity: p.tracker().capacity(),
                    tracked: tracked(p.tracker()),
                }),
                ..summary(SnapshotKind::Processor, p.sketch())
            }
        }
        other => {
            return Err(CoreError::CorruptSnapshot(format!(
                "unknown snapshot kind {other}"
            )))
        }
    })
}

/// Saturated cells in each row of `sketch`.
fn row_saturation(sketch: &CountSketch) -> Vec<usize> {
    (0..sketch.rows())
        .map(|row| {
            (0..sketch.buckets())
                .filter(|&bucket| sketch.is_cell_saturated(row, bucket))
                .count()
        })
        .collect()
}

/// The `top` nonzero counters of `sketch` as `(row, bucket, value)`,
/// magnitude descending, then row and bucket ascending.
fn largest_counters(sketch: &CountSketch, top: usize) -> Vec<(usize, usize, i64)> {
    let buckets = sketch.buckets();
    let mut ranked: Vec<(usize, usize, i64)> = sketch
        .counters()
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &v)| (i / buckets, i % buckets, v))
        .collect();
    ranked.sort_by(|a, b| {
        b.2.unsigned_abs()
            .cmp(&a.2.unsigned_abs())
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    ranked.truncate(top);
    ranked
}

/// A tracker's entries, value descending, then key ascending.
fn tracked(tracker: &TopKTracker) -> Vec<(ItemKey, i64)> {
    let mut items = tracker.items_desc();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::CountSketch;
    use cs_stream::{Stream, Zipf, ZipfStreamKind};
    use proptest::prelude::*;

    const PARAMS: SketchParams = SketchParams {
        rows: 5,
        buckets: 64,
    };

    fn sketched(stream: &Stream) -> CountSketch {
        let mut s = CountSketch::new(PARAMS, 42);
        s.absorb(stream, 1);
        s
    }

    #[test]
    fn sketch_roundtrip_is_bit_identical() {
        let zipf = Zipf::new(200, 1.0);
        let s = sketched(&zipf.stream(10_000, 3, ZipfStreamKind::Sampled));
        let back = CountSketch::from_snapshot_bytes(&s.to_snapshot_bytes()).unwrap();
        assert_eq!(s.counters(), back.counters());
        assert_eq!(s.seed(), back.seed());
        assert_eq!(s.combiner(), back.combiner());
        assert_eq!((s.rows(), s.buckets()), (back.rows(), back.buckets()));
    }

    #[test]
    fn snapshot_length_is_known_before_encoding() {
        for (rows, buckets) in [(1, 1), (1, 64), (3, 65), (5, 64), (7, 1000)] {
            let mut s = CountSketch::new(SketchParams::new(rows, buckets), 1);
            let words = (rows * buckets).div_ceil(64);
            // An empty sketch takes one byte a counter...
            let bytes = s.to_snapshot_bytes();
            assert_eq!(bytes.len(), HEADER + rows * buckets + words * 8 + 4);
            // Sized exactly up front: sealing never regrows the buffer.
            assert_eq!(bytes.capacity(), bytes.len(), "{rows} x {buckets}");
            // ...and one whose every |counter| is at least 2^62 takes ten:
            // the bound is reached.
            for (i, c) in s.counters_mut().iter_mut().enumerate() {
                *c = [i64::MIN, i64::MAX, 1 << 62, -(1 << 62) - 1][i % 4];
            }
            let bytes = s.to_snapshot_bytes();
            assert_eq!(sketch_snapshot_len(rows, buckets), Some(bytes.len()));
            assert_eq!(bytes.capacity(), bytes.len(), "{rows} x {buckets}");
        }
        assert_eq!(sketch_snapshot_len(usize::MAX, 2), None);
        assert_eq!(sketch_snapshot_len(1, usize::MAX / 10 + 1), None);
    }

    #[test]
    fn saturation_flags_survive_the_roundtrip() {
        let mut s = CountSketch::new(SketchParams::new(1, 1), 0);
        s.update(ItemKey(1), i64::MAX);
        s.update(ItemKey(1), i64::MAX);
        assert!(!s.health().is_healthy());
        let back = CountSketch::from_snapshot_bytes(&s.to_snapshot_bytes()).unwrap();
        assert_eq!(back.health(), s.health());
        assert!(back.is_cell_saturated(0, 0));
    }

    #[test]
    fn combiner_survives_the_roundtrip() {
        let s = CountSketch::new(PARAMS, 7).with_combiner(Combiner::TrimmedMean);
        let back = CountSketch::from_snapshot_bytes(&s.to_snapshot_bytes()).unwrap();
        assert_eq!(back.combiner(), Combiner::TrimmedMean);
    }

    #[test]
    fn processor_roundtrip_preserves_all_state() {
        let zipf = Zipf::new(100, 1.2);
        let stream = zipf.stream(5_000, 9, ZipfStreamKind::Sampled);
        let mut p =
            ApproxTopProcessor::new(PARAMS, 8, 11).with_policy(HeapPolicy::AlwaysReEstimate);
        p.observe_stream(&stream);
        let back = ApproxTopProcessor::from_snapshot_bytes(&p.to_snapshot_bytes()).unwrap();
        assert_eq!(back.sketch().counters(), p.sketch().counters());
        assert_eq!(back.result().items, p.result().items);
        assert_eq!(back.policy(), p.policy());
        assert_eq!(back.tracker().capacity(), p.tracker().capacity());
    }

    #[test]
    fn payload_corruption_is_checksum_mismatch() {
        let s = sketched(&Stream::from_ids(0..50));
        let mut bytes = s.to_snapshot_bytes();
        bytes[HEADER + 3] ^= 0x40;
        assert!(matches!(
            CountSketch::from_snapshot_bytes(&bytes),
            Err(CoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn structural_garbage_is_corrupt_snapshot() {
        assert!(matches!(
            CountSketch::from_snapshot_bytes(b"not a snapshot"),
            Err(CoreError::CorruptSnapshot(_))
        ));
        assert!(matches!(
            CountSketch::from_snapshot_bytes(&[]),
            Err(CoreError::CorruptSnapshot(_))
        ));
        // Valid checksum but wrong kind: a processor snapshot is not a
        // sketch snapshot.
        let mut p = ApproxTopProcessor::new(PARAMS, 4, 1);
        p.observe(ItemKey(5));
        assert!(matches!(
            CountSketch::from_snapshot_bytes(&p.to_snapshot_bytes()),
            Err(CoreError::CorruptSnapshot(_))
        ));
    }

    /// Overwrites the u64 fields at `edits` and re-seals the CRC, so the
    /// structural decoder (not the checksum) sees the forged values.
    fn forge(clean: &[u8], edits: &[(usize, u64)]) -> Vec<u8> {
        let mut body = clean[..clean.len() - 4].to_vec();
        for &(at, value) in edits {
            body[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        seal(body)
    }

    #[test]
    fn zero_dimensions_are_corrupt_not_a_panic() {
        // rows = 0 (or buckets = 0) with an empty counter section and a
        // valid CRC: a typed error, not the SketchParams assertion.
        let s = CountSketch::new(SketchParams::new(1, 1), 0);
        let bytes = s.to_snapshot_bytes();
        for (rows, buckets) in [(0u64, 1u64), (1, 0), (0, 0)] {
            // The header alone, then the four bytes `forge` reseals.
            let forged = forge(&bytes[..HEADER + 4], &[(16, rows), (24, buckets)]);
            assert!(matches!(
                CountSketch::from_snapshot_bytes(&forged),
                Err(CoreError::CorruptSnapshot(_))
            ));
        }
    }

    #[test]
    fn processor_forged_tracker_capacity_never_preallocates() {
        // A CRC-valid processor snapshot whose tracker capacity says 2^61:
        // the decoder must not size anything from that field. The tracker
        // grows with its entries, so the processor loads and keeps running.
        let mut p = ApproxTopProcessor::new(PARAMS, 777, 5);
        p.observe_stream(&Stream::from_ids((0..500u64).map(|i| i % 37)));
        let clean = p.to_snapshot_bytes();
        let at = HEADER + counters_len(p.sketch()) + 4; // after policy
        assert_eq!(clean[at..at + 8], 777u64.to_le_bytes());
        let bytes = forge(&clean, &[(at, 1 << 61)]);
        let mut back: ApproxTopProcessor = ApproxTopProcessor::from_snapshot_bytes(&bytes)
            .expect("a huge capacity is well-formed");
        assert_eq!(back.tracker().capacity(), 1 << 61);
        back.observe(ItemKey(99));
        let result = back.result();
        assert_eq!(result.items.len(), 38);
        assert!(result.space_bytes > 0);
    }

    #[test]
    fn inspect_reports_sketch_header_and_top_counters() {
        let zipf = Zipf::new(100, 1.2);
        let s = sketched(&zipf.stream(5_000, 3, ZipfStreamKind::Sampled));
        let bytes = s.to_snapshot_bytes();
        let info = inspect_snapshot_bytes(&bytes, 5).unwrap();
        assert_eq!(info.kind, SnapshotKind::Sketch);
        assert_eq!(info.combiner, s.combiner());
        assert_eq!((info.rows, info.buckets), (s.rows(), s.buckets()));
        assert_eq!(info.seed, s.seed());
        assert_eq!(info.total_bytes, bytes.len());
        assert_eq!(info.row_saturated.len(), s.rows());
        assert!(info.tracker.is_none());
        assert_eq!(info.top_counters.len(), 5);
        // Magnitude-descending, and each entry matches the live sketch.
        for pair in info.top_counters.windows(2) {
            assert!(pair[0].2.unsigned_abs() >= pair[1].2.unsigned_abs());
        }
        for &(row, bucket, value) in &info.top_counters {
            assert_eq!(s.counters()[row * s.buckets() + bucket], value);
        }
    }

    #[test]
    fn inspect_reports_processor_tracker() {
        let zipf = Zipf::new(50, 1.3);
        let mut p = ApproxTopProcessor::new(PARAMS, 6, 17);
        p.observe_stream(&zipf.stream(3_000, 5, ZipfStreamKind::Sampled));
        let info = inspect_snapshot_bytes(&p.to_snapshot_bytes(), 3).unwrap();
        assert_eq!(info.kind, SnapshotKind::Processor);
        // The tracked entries (estimate-descending) are exactly the
        // processor's report.
        assert_eq!(
            info.tracker,
            Some(TrackerInfo {
                policy: p.policy(),
                capacity: 6,
                tracked: p.result().items,
            })
        );
    }

    #[test]
    fn inspect_counts_saturated_cells_per_row() {
        let mut s = CountSketch::new(SketchParams::new(1, 1), 0);
        s.update(ItemKey(1), i64::MAX);
        s.update(ItemKey(1), i64::MAX);
        let info = inspect_snapshot_bytes(&s.to_snapshot_bytes(), 1).unwrap();
        assert_eq!(info.row_saturated, vec![1]);
        assert_eq!(info.saturated_cells(), 1);
    }

    #[test]
    fn inspect_rejects_corruption_like_the_loaders() {
        let s = sketched(&Stream::from_ids(0..50));
        let mut bytes = s.to_snapshot_bytes();
        bytes[HEADER + 3] ^= 0x40;
        assert!(matches!(
            inspect_snapshot_bytes(&bytes, 10),
            Err(CoreError::ChecksumMismatch { .. })
        ));
        assert!(inspect_snapshot_bytes(b"junk", 10).is_err());
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("cs_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sketch.csnp");
        let s = sketched(&Stream::from_ids(0..100));
        write_snapshot_file(&path, &s.to_snapshot_bytes()).unwrap();
        let bytes = read_snapshot_file(&path).unwrap();
        let back = CountSketch::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.counters(), s.counters());
        std::fs::remove_file(&path).ok();
    }

    /// Re-encodes v2 snapshot bytes in the v1 layout (raw `i64`
    /// counters), as a writer from before v2 wrote the same state.
    fn to_v1(v2: &[u8]) -> Vec<u8> {
        let (mut r, _) = Reader::open_any(v2).unwrap();
        assert_eq!(r.version, VERSION);
        let mut out = v2[..HEADER].to_vec();
        out[4..8].copy_from_slice(&VERSION_RAW.to_le_bytes());
        let raw = |s: &CountSketch, out: &mut Vec<u8>| {
            out.extend(s.counters().iter().flat_map(|c| c.to_le_bytes()));
            out.extend(s.saturated_words().iter().flat_map(|w| w.to_le_bytes()));
        };
        raw(&read_sketch(&mut r).unwrap(), &mut out);
        // The tracker section is the same in both versions.
        out.extend_from_slice(&r.body[r.pos..]);
        seal(out)
    }

    /// A `rows × buckets` sketch snapshot whose counter and saturation
    /// sections are `sections`, sealed with a valid CRC so the structural
    /// decoder, not the checksum, judges them.
    fn forged(rows: usize, buckets: usize, sections: &[u8]) -> Vec<u8> {
        let clean = CountSketch::new(SketchParams::new(rows, buckets), 0).to_snapshot_bytes();
        let mut body = clean[..HEADER].to_vec();
        body.extend_from_slice(sections);
        seal(body)
    }

    fn corrupt_message(bytes: &[u8]) -> String {
        match CountSketch::from_snapshot_bytes(bytes) {
            Err(CoreError::CorruptSnapshot(message)) => message,
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
    }

    fn one_sketch_of_each_kind() -> [(&'static str, Vec<u8>); 2] {
        let zipf = Zipf::new(80, 1.1);
        let stream = zipf.stream(4_000, 2, ZipfStreamKind::Sampled);
        let mut p = ApproxTopProcessor::new(PARAMS, 6, 3);
        p.observe_stream(&stream);
        [
            ("sketch", sketched(&stream).to_snapshot_bytes()),
            ("processor", p.to_snapshot_bytes()),
        ]
    }

    /// One snapshot of each kind, small enough that a random tail often
    /// reaches its tracker fields.
    fn small_snapshots() -> [(&'static str, Vec<u8>); 2] {
        let params = SketchParams::new(2, 3);
        let mut s = CountSketch::new(params, 1);
        let mut p = ApproxTopProcessor::new(params, 2, 1);
        for id in [1, 2, 1, 3, 1, 2] {
            s.add(ItemKey(id));
            p.observe(ItemKey(id));
        }
        [
            ("sketch", s.to_snapshot_bytes()),
            ("processor", p.to_snapshot_bytes()),
        ]
    }

    /// Decodes `bytes` as `kind` and encodes the result again.
    fn reencode(kind: &str, bytes: &[u8]) -> Result<Vec<u8>, CoreError> {
        Ok(match kind {
            "sketch" => CountSketch::from_snapshot_bytes(bytes)?.to_snapshot_bytes(),
            _ => ApproxTopProcessor::from_snapshot_bytes(bytes)?.to_snapshot_bytes(),
        })
    }

    #[test]
    fn every_kind_is_sized_exactly_up_front() {
        for (kind, bytes) in one_sketch_of_each_kind() {
            assert_eq!(bytes.capacity(), bytes.len(), "{kind}");
        }
    }

    #[test]
    fn v1_snapshots_of_every_kind_still_load() {
        for (kind, v2) in one_sketch_of_each_kind() {
            let v1 = to_v1(&v2);
            assert!(
                v1.len() > 3 * v2.len(),
                "{kind}: {} vs {}",
                v1.len(),
                v2.len()
            );
            // The same state, so it re-encodes to the same v2 bytes.
            assert_eq!(reencode(kind, &v1).unwrap(), v2, "{kind}");
            let (old, new) = (
                inspect_snapshot_bytes(&v1, 10).unwrap(),
                inspect_snapshot_bytes(&v2, 10).unwrap(),
            );
            assert_eq!((old.version, new.version), (1, 2), "{kind}");
            assert_eq!(old.top_counters, new.top_counters, "{kind}");
            assert_eq!(old.tracker, new.tracker, "{kind}");
        }
    }

    #[test]
    fn varints_decode_at_both_extremes() {
        let mut min = vec![0xff; 9];
        min.push(0x01);
        min.extend_from_slice(&[0; 8]);
        let mut max = vec![0xfe];
        max.extend_from_slice(&[0xff; 8]);
        max.push(0x01);
        max.extend_from_slice(&[0; 8]);
        for (section, want) in [(min, i64::MIN), (max, i64::MAX)] {
            let bytes = forged(1, 1, &section);
            let s = CountSketch::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(s.counters(), [want]);
            assert_eq!(s.to_snapshot_bytes(), bytes);
        }
    }

    #[test]
    fn malformed_varints_are_corrupt_snapshots() {
        let words = [0u8; 8];
        let with_words = |varint: &[u8]| [varint, &words[..]].concat();
        let mut eleven = vec![0xff; 10];
        eleven.push(0x01);
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        let mut long_zero = vec![0x80; 9];
        long_zero.push(0x00);
        for (varint, want) in [
            (eleven, "longer than 10 bytes"),
            (overflow, "overflows 64 bits"),
            (vec![0x80, 0x00], "non-minimal"),
            (vec![0x81, 0x00], "non-minimal"),
            (long_zero, "non-minimal"),
        ] {
            let message = corrupt_message(&forged(1, 1, &with_words(&varint)));
            assert!(message.contains(want), "{varint:02x?}: {message}");
        }
        // Two cells whose first varint runs to the end of the section.
        let mut section = vec![0xff; 9];
        section.push(0x01);
        let message = corrupt_message(&forged(1, 2, &section));
        assert!(message.contains("truncated"), "{message}");
    }

    #[test]
    fn forged_geometry_is_rejected_before_allocation() {
        // The loader must reject these from the length check, not
        // attempt the allocation. 1 × 64 cells need at least 64 + 8
        // bytes; forging 1 × 65 asks for 65 + 16 of the 72 present, and
        // 2^30 × 2^30 for 2^60.
        let clean = CountSketch::new(SketchParams::new(1, 64), 0).to_snapshot_bytes();
        for (rows, buckets) in [(1u64, 65u64), (1 << 30, 1 << 30)] {
            let bytes = forge(&clean, &[(16, rows), (24, buckets)]);
            let message = corrupt_message(&bytes);
            assert!(message.contains("needs at least"), "{message}");
            assert!(inspect_snapshot_bytes(&bytes, 1).is_err());
        }
    }

    fn field(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    #[test]
    fn forged_fields_fail_alike_in_the_loader_and_inspect() {
        // Processor fields follow the counters: policy (u32), capacity,
        // entries, then (key, value) pairs.
        let mut p = ApproxTopProcessor::new(PARAMS, 6, 3);
        let empty = p.to_snapshot_bytes();
        p.observe_stream(&Stream::from_ids((0..200u64).map(|i| i % 9)));
        let full = p.to_snapshot_bytes();
        let cap = HEADER + counters_len(p.sketch()) + 4;
        let cases = [
            ("processor", "capacity 0", forge(&empty, &[(cap, 0)])),
            (
                "processor",
                "2^60 entries",
                forge(&full, &[(cap, u64::MAX), (cap + 8, 1 << 60)]),
            ),
            (
                "processor",
                "entries > capacity",
                forge(&full, &[(cap + 8, 7)]),
            ),
            (
                "processor",
                "a key twice",
                forge(&full, &[(cap + 32, field(&full, cap + 16))]),
            ),
        ];
        for (kind, what, bytes) in cases {
            let loaded = reencode(kind, &bytes);
            assert!(
                matches!(loaded, Err(CoreError::CorruptSnapshot(_))),
                "{kind} {what}: {loaded:?}"
            );
            let inspected = inspect_snapshot_bytes(&bytes, 3);
            assert!(
                matches!(inspected, Err(CoreError::CorruptSnapshot(_))),
                "{kind} {what}: {inspected:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected_for_every_kind() {
        for (kind, clean) in one_sketch_of_each_kind() {
            let mut body = clean[..clean.len() - 4].to_vec();
            body.push(0);
            let bytes = seal(body);
            match reencode(kind, &bytes) {
                Err(CoreError::CorruptSnapshot(m)) => assert!(m.contains("trailing"), "{m}"),
                other => panic!("{kind}: {other:?}"),
            }
            assert!(inspect_snapshot_bytes(&bytes, 1).is_err(), "{kind}");
        }
    }

    #[test]
    fn every_truncation_of_every_kind_is_rejected() {
        for (kind, clean) in one_sketch_of_each_kind() {
            let body = clean.len() - 4;
            for cut in 0..clean.len() {
                assert!(reencode(kind, &clean[..cut]).is_err(), "{kind} cut {cut}");
                // Re-sealed, a cut body reaches the structural decoder.
                if cut < body {
                    let resealed = seal(clean[..cut].to_vec());
                    assert!(reencode(kind, &resealed).is_err(), "{kind} resealed {cut}");
                    assert!(
                        inspect_snapshot_bytes(&resealed, 3).is_err(),
                        "{kind} {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_bit_flip_of_every_kind_is_rejected() {
        for (kind, clean) in one_sketch_of_each_kind() {
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut corrupt = clean.clone();
                    corrupt[byte] ^= 1 << bit;
                    assert!(reencode(kind, &corrupt).is_err(), "{kind} {byte}:{bit}");
                }
            }
        }
    }

    #[test]
    fn resealed_flips_in_counters_reencode_byte_for_byte() {
        // With the CRC fixed up, a flipped counter byte either breaks the
        // varint structure or decodes to a state whose encoding is
        // exactly the flipped bytes: there is no second encoding.
        let (kind, clean) = &one_sketch_of_each_kind()[0];
        let section_end = clean.len() - 4 - (PARAMS.rows * PARAMS.buckets).div_ceil(64) * 8;
        let (mut loaded, mut rejected) = (0, 0);
        for byte in HEADER..section_end {
            for bit in 0..8 {
                let mut body = clean[..clean.len() - 4].to_vec();
                body[byte] ^= 1 << bit;
                let bytes = seal(body);
                match reencode(kind, &bytes) {
                    Ok(again) => {
                        assert_eq!(again, bytes, "{byte}:{bit}");
                        loaded += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(
            loaded > 0 && rejected > 0,
            "{loaded} loaded, {rejected} rejected"
        );
    }

    /// A counter value drawn to cover every varint length: the two
    /// extremes, small values of either sign, and any magnitude.
    fn cell_value(tag: u8, v: i64) -> i64 {
        match tag % 4 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => v % 100,
            _ => v >> (v as u64 % 64),
        }
    }

    /// A sketch filled from `values` (cycled) with saturation bits from
    /// `sat`, only on cells that exist.
    fn filled_sketch(
        rows: usize,
        buckets: usize,
        seed: u64,
        values: &[(u8, i64)],
        sat: u64,
    ) -> CountSketch {
        let mut s = CountSketch::new(SketchParams::new(rows, buckets), seed);
        for (i, c) in s.counters_mut().iter_mut().enumerate() {
            let (tag, v) = values[(i * 7 + seed as usize) % values.len()];
            *c = cell_value(tag, v);
        }
        let cells = rows * buckets;
        for (i, w) in s.saturated_words_mut().iter_mut().enumerate() {
            let live = (cells - i * 64).min(64);
            *w = sat.rotate_left(i as u32) & (u64::MAX >> (64 - live));
        }
        s.refresh_mass_floor();
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_sketch_codec_roundtrips(
            rows in 1usize..4,
            buckets in 1usize..90,
            seed: u64,
            values in prop::collection::vec((any::<u8>(), any::<i64>()), 1..40),
            sat: u64,
        ) {
            let s = filled_sketch(rows, buckets, seed, &values, sat);
            let bytes = s.to_snapshot_bytes();
            let back = CountSketch::from_snapshot_bytes(&bytes).unwrap();
            prop_assert_eq!(back.counters(), s.counters());
            prop_assert_eq!(back.saturated_words(), s.saturated_words());
            prop_assert_eq!(back.abs_mass(), s.abs_mass());
            prop_assert_eq!(back.to_snapshot_bytes(), bytes.clone());
            let old = CountSketch::from_snapshot_bytes(&to_v1(&bytes)).unwrap();
            prop_assert_eq!(old.to_snapshot_bytes(), bytes);
        }

        #[test]
        fn prop_processor_codec_roundtrips(
            rows in 1usize..4,
            buckets in 1usize..90,
            values in prop::collection::vec((any::<u8>(), any::<i64>()), 1..40),
            sat: u64,
            spare in 0usize..5,
            always in any::<bool>(),
        ) {
            let sketch = filled_sketch(rows, buckets, 9, &values, sat);
            let mut tracker = TopKTracker::new(values.len() + spare);
            for (i, &(tag, v)) in values.iter().enumerate() {
                tracker.offer(ItemKey(v as u64 ^ i as u64), cell_value(tag, v));
            }
            let policy = if always { HeapPolicy::AlwaysReEstimate } else { HeapPolicy::IncrementTracked };
            let p = ApproxTopProcessor::from_parts(sketch, tracker, policy);
            let bytes = p.to_snapshot_bytes();
            let back = ApproxTopProcessor::from_snapshot_bytes(&bytes).unwrap();
            prop_assert_eq!(back.sketch().counters(), p.sketch().counters());
            prop_assert_eq!(back.sketch().saturated_words(), p.sketch().saturated_words());
            prop_assert_eq!(back.tracker().items_desc(), p.tracker().items_desc());
            prop_assert_eq!(back.tracker().capacity(), p.tracker().capacity());
            prop_assert_eq!(back.policy(), p.policy());
            prop_assert_eq!(back.to_snapshot_bytes(), bytes.clone());
            let old = ApproxTopProcessor::from_snapshot_bytes(&to_v1(&bytes)).unwrap();
            prop_assert_eq!(old.to_snapshot_bytes(), bytes);
        }

        #[test]
        fn prop_decodable_counter_bytes_reencode_byte_for_byte(
            values in prop::collection::vec((any::<u8>(), any::<i64>()), 1..40),
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            // Any CRC-valid bytes the decoder accepts are the one
            // encoding of the state they decode to.
            let s = filled_sketch(2, 40, 1, &values, 0);
            let clean = s.to_snapshot_bytes();
            let end = clean.len() - 4 - 16;
            let mut body = clean[..clean.len() - 4].to_vec();
            for &(at, xor) in &edits {
                body[HEADER + at % (end - HEADER)] ^= xor;
            }
            let bytes = seal(body);
            if let Ok(back) = CountSketch::from_snapshot_bytes(&bytes) {
                prop_assert_eq!(back.to_snapshot_bytes(), bytes);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_resume_is_bit_identical(
            ids in prop::collection::vec(0u64..200, 1..300),
            split_frac in 0.0f64..1.0,
        ) {
            // Sketch the prefix, snapshot, restore, sketch the suffix:
            // counters must equal the uninterrupted run exactly.
            let split = ((ids.len() as f64) * split_frac) as usize;
            let mut interrupted = CountSketch::new(PARAMS, 21);
            for &id in &ids[..split] {
                interrupted.add(ItemKey(id));
            }
            let mut resumed =
                CountSketch::from_snapshot_bytes(&interrupted.to_snapshot_bytes()).unwrap();
            for &id in &ids[split..] {
                resumed.add(ItemKey(id));
            }
            let mut uninterrupted = CountSketch::new(PARAMS, 21);
            for &id in &ids {
                uninterrupted.add(ItemKey(id));
            }
            prop_assert_eq!(resumed.counters(), uninterrupted.counters());
        }

        #[test]
        fn prop_processor_resume_is_bit_identical(
            ids in prop::collection::vec(0u64..100, 1..200),
            split_frac in 0.0f64..1.0,
        ) {
            let split = ((ids.len() as f64) * split_frac) as usize;
            let mut interrupted = ApproxTopProcessor::new(PARAMS, 5, 33);
            for &id in &ids[..split] {
                interrupted.observe(ItemKey(id));
            }
            let mut resumed =
                ApproxTopProcessor::from_snapshot_bytes(&interrupted.to_snapshot_bytes()).unwrap();
            for &id in &ids[split..] {
                resumed.observe(ItemKey(id));
            }
            let mut uninterrupted = ApproxTopProcessor::new(PARAMS, 5, 33);
            for &id in &ids {
                uninterrupted.observe(ItemKey(id));
            }
            prop_assert_eq!(resumed.sketch().counters(), uninterrupted.sketch().counters());
            prop_assert_eq!(resumed.result().items, uninterrupted.result().items);
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            pick in 0usize..2,
            keep: usize,
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let _ = CountSketch::from_snapshot_bytes(&bytes);
            let _ = ApproxTopProcessor::from_snapshot_bytes(&bytes);
            let _ = inspect_snapshot_bytes(&bytes, 3);
            // A valid header and part of the body of one kind, then
            // random bytes, resealed so the structural decoder judges
            // them: inspect accepts exactly what the loader accepts.
            let (kind, clean) = &small_snapshots()[pick];
            let body = clean.len() - 4;
            let mut forged = clean[..HEADER + keep % (body - HEADER + 1)].to_vec();
            forged.extend_from_slice(&tail);
            let forged = seal(forged);
            prop_assert_eq!(
                inspect_snapshot_bytes(&forged, 3).is_ok(),
                reencode(kind, &forged).is_ok()
            );
        }
    }
}
