//! One reference for the one read path. `estimate`, `estimate_batch`
//! and `estimate_checked` are checked against ESTIMATE by definition,
//! rebuilt from the public `row_cells` and `counters()`: each row's
//! `s_i(q)·C[i][h_i(q)]` clamped from its exact `i128` product, sorted,
//! and combined. The depths lie on both sides of the 16-row stack
//! column; every combiner runs; the hash families are the paper's
//! (`CountSketch`), the fast ones (`FastCountSketch`) and a pairing whose
//! bucket and sign families canonicalize keys differently; and the
//! counters include cells clamped at `i64::MIN`/`i64::MAX`.

use frequent_items::hash::{BucketHasher, PairwiseHash, SignHasher, TabulationHash};
use frequent_items::prelude::*;
use frequent_items::sketch::GenericCountSketch;
use proptest::prelude::*;

const DEPTHS: [usize; 12] = [1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 17, 20];
const COMBINERS: [Combiner; 3] = [Combiner::Median, Combiner::Mean, Combiner::TrimmedMean];

/// Bucket keys are folded into the prime field, sign keys are not, so a
/// read that canonicalizes a key with the wrong family misreads keys at
/// or above the field's prime.
type MixedSketch = GenericCountSketch<PairwiseHash, TabulationHash>;

/// ESTIMATE by definition over the rows `keep(row, bucket)` admits, or
/// `None` if it admits none.
fn reference<H: BucketHasher, S: SignHasher>(
    s: &GenericCountSketch<H, S>,
    key: ItemKey,
    keep: impl Fn(usize, usize) -> bool,
) -> Option<i64> {
    let mut column: Vec<i64> = s
        .row_cells(key)
        .enumerate()
        .filter(|&(row, (bucket, _))| keep(row, bucket))
        .map(|(row, (bucket, sign))| {
            let exact = i128::from(sign) * i128::from(s.counters()[row * s.buckets() + bucket]);
            exact.clamp(i64::MIN.into(), i64::MAX.into()) as i64
        })
        .collect();
    if column.is_empty() {
        return None;
    }
    column.sort_unstable();
    let n = column.len();
    let mean =
        |v: &[i64]| (v.iter().map(|&x| i128::from(x)).sum::<i128>() / v.len() as i128) as i64;
    Some(match s.combiner() {
        Combiner::Median if n % 2 == 1 => column[n / 2],
        Combiner::Median => mean(&column[n / 2 - 1..=n / 2]),
        Combiner::Mean => mean(&column),
        Combiner::TrimmedMean => mean(&column[n / 4..n - n / 4]),
    })
}

/// What the saturated-counter cases must have exercised.
#[derive(Default)]
struct Seen {
    /// A row estimate `−1 · i64::MIN`, which must saturate to `i64::MAX`.
    negated_min: bool,
    /// A checked estimate over some but not all rows.
    partly_clean: bool,
    /// A checked estimate with every probed cell saturated.
    none_clean: bool,
}

/// Asserts that all three reads of every key in `keys` equal the
/// reference, and records what the probes covered.
fn assert_reads_match_reference<H: BucketHasher, S: SignHasher>(
    s: &GenericCountSketch<H, S>,
    keys: &[ItemKey],
    seen: &mut Seen,
) {
    let batch = s.estimate_batch(keys);
    assert_eq!(batch.len(), keys.len());
    let clean = |row, bucket| !s.is_cell_saturated(row, bucket);
    for (&key, &batched) in keys.iter().zip(&batch) {
        let ctx = format!("t = {} {:?} key {key:?}", s.rows(), s.combiner());
        let want = reference(s, key, |_, _| true).unwrap();
        assert_eq!(s.estimate(key), want, "estimate, {ctx}");
        assert_eq!(batched, want, "estimate_batch, {ctx}");

        let checked = s.estimate_checked(key);
        let clean_rows = s
            .row_cells(key)
            .enumerate()
            .filter(|&(row, (bucket, _))| clean(row, bucket))
            .count();
        assert_eq!(checked.clean_rows, clean_rows, "clean rows, {ctx}");
        assert_eq!(checked.saturated_rows, s.rows() - clean_rows, "{ctx}");
        let want_checked = reference(s, key, clean).unwrap_or(want);
        assert_eq!(checked.value, want_checked, "estimate_checked, {ctx}");

        seen.negated_min |= s.row_cells(key).enumerate().any(|(row, (bucket, sign))| {
            sign == -1 && s.counters()[row * s.buckets() + bucket] == i64::MIN
        });
        seen.partly_clean |= clean_rows > 0 && clean_rows < s.rows();
        seen.none_clean |= clean_rows == 0;
    }
}

/// Small ids, keys at and above the prime field's modulus, and keys
/// spread over the whole `u64` range.
fn probe_keys(n: u64) -> Vec<ItemKey> {
    (0..n)
        .flat_map(|i| {
            [
                i,
                u64::MAX - i,
                (1 << 61) - 1 + i,
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ]
        })
        .map(ItemKey)
        .collect()
}

/// Runs `check` on a fresh sketch of every depth, combiner and hash
/// family pairing.
fn for_every_sketch(buckets: usize, seed: u64, mut check: impl FnMut(&mut dyn Sketch)) {
    for rows in DEPTHS {
        for combiner in COMBINERS {
            let params = SketchParams::new(rows, buckets);
            check(&mut CountSketch::new(params, seed).with_combiner(combiner));
            check(&mut FastCountSketch::new(params, seed).with_combiner(combiner));
            check(&mut MixedSketch::new(params, seed).with_combiner(combiner));
        }
    }
}

/// The operations the cases drive, over any hash family pairing.
trait Sketch {
    fn update(&mut self, key: ItemKey, weight: i64);
    fn assert_reads(&self, keys: &[ItemKey], seen: &mut Seen);
}

impl<H: BucketHasher, S: SignHasher> Sketch for GenericCountSketch<H, S> {
    fn update(&mut self, key: ItemKey, weight: i64) {
        GenericCountSketch::update(self, key, weight);
    }

    fn assert_reads(&self, keys: &[ItemKey], seen: &mut Seen) {
        assert_reads_match_reference(self, keys, seen);
    }
}

#[test]
fn batch_matches_scalar_for_all_combiners_and_depths() {
    let stream = Zipf::new(500, 1.0).stream(4_000, 11, ZipfStreamKind::Sampled);
    let keys = probe_keys(80);
    for_every_sketch(64, 7, |s| {
        for key in stream.iter() {
            s.update(key, 1);
        }
        for (i, &key) in keys.iter().enumerate().step_by(3) {
            s.update(key, i as i64 % 5 - 2);
        }
        s.assert_reads(&keys, &mut Seen::default());
    });
}

#[test]
fn batch_matches_scalar_on_saturated_counters() {
    // Drive the cells of some keys to the clamp rails from both sides,
    // leave others untouched: rows then read `±1 · i64::MIN/MAX`, and the
    // checked estimate meets clean, partly clean and fully saturated
    // columns.
    let mut seen = Seen::default();
    let keys = probe_keys(24);
    for_every_sketch(8, 3, |s| {
        for (i, &key) in keys.iter().enumerate().step_by(5) {
            let weight = if i % 2 == 0 { i64::MAX } else { i64::MIN };
            s.update(key, weight);
            s.update(key, weight);
        }
        s.assert_reads(&keys, &mut seen);
    });
    assert!(seen.negated_min, "no row read −1 · i64::MIN");
    assert!(seen.partly_clean, "no partly saturated column");
    assert!(seen.none_clean, "no fully saturated column");
}

proptest! {
    /// The three reads equal the reference for every combiner, depth and
    /// hash family pairing under arbitrary signed weights, the
    /// `±i64::MAX` extremes that saturate counters included, at probe-set
    /// lengths from empty up.
    #[test]
    fn prop_batch_equals_scalar(
        seed: u64,
        widx in 0usize..7,
        raw in prop::collection::vec(any::<u64>(), 1..120),
        len in 0usize..40,
        cidx in 0usize..3,
        didx in 0usize..12,
        family in 0usize..3,
    ) {
        let weight = [1i64, -1, 1000, -1000, i64::MAX, i64::MIN + 1, i64::MAX / 2][widx];
        let params = SketchParams::new(DEPTHS[didx], 32);
        let combiner = COMBINERS[cidx];
        let mut s: Box<dyn Sketch> = match family {
            0 => Box::new(CountSketch::new(params, seed).with_combiner(combiner)),
            1 => Box::new(FastCountSketch::new(params, seed).with_combiner(combiner)),
            _ => Box::new(MixedSketch::new(params, seed).with_combiner(combiner)),
        };
        // Raw keys below 64 collide often; the rest spread over u64.
        let key = |k: u64| ItemKey(if k & 1 == 0 { k % 64 } else { k });
        for &k in &raw {
            s.update(key(k), weight);
        }
        let keys: Vec<ItemKey> = raw.iter().cycle().take(len).map(|&k| key(k)).collect();
        s.assert_reads(&keys, &mut Seen::default());
    }
}
