//! Seeded input generation and the exact oracle.
//!
//! Each workload fixes a token *profile*: how often every rank occurs.
//! Counts come from systematic sampling of a Zipf law (`z = 0` is the
//! uniform law), so they sum to the requested length exactly and need no
//! random draw. The run's seed then picks the order the tokens arrive in
//! (a Fisher-Yates shuffle). Exact counts, and with them every
//! answer-quality metric, are therefore the same on every seed, while the
//! order that one pass over the input sees changes from seed to seed.
//!
//! The generator is kept here, not taken from the workspace, so that a
//! change to the code under test cannot change the inputs.

use frequent_items::hash::{shard_of, ItemKey};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// SplitMix64: a small, fast, seedable generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// What a token looks like on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Short words: `w` and the rank in hex (2 to 6 bytes).
    Short,
    /// URL-like paths of 29 bytes.
    Url,
}

/// Writes the token of `rank` (no separator).
pub fn write_token(w: &mut impl Write, shape: Shape, rank: u32) -> io::Result<()> {
    match shape {
        Shape::Short => write!(w, "w{rank:x}"),
        Shape::Url => {
            let dir = SplitMix64::new(u64::from(rank)).next_u64() & 0xff_ffff;
            write!(w, "/shop/{dir:06x}/item/{rank:07}.htm")
        }
    }
}

/// The token of `rank` as a string.
pub fn token(shape: Shape, rank: u32) -> String {
    let mut buf = Vec::with_capacity(32);
    write_token(&mut buf, shape, rank).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("tokens are ASCII")
}

/// Per-rank counts (rank 0 most frequent) of `tokens` occurrences spread
/// over `distinct` ranks by Zipf(`z`). Systematic sampling with offset
/// `phase` in `[0, 1)`: rank `r` gets the number of grid points
/// `phase + j` that fall into its share of `[0, tokens)`, so a rank whose
/// expected count is below one occurs once or not at all.
pub fn zipf_counts(distinct: usize, z: f64, tokens: u64, phase: f64) -> Vec<u32> {
    let weights: Vec<f64> = (1..=distinct).map(|r| (r as f64).powf(-z)).collect();
    let scale = tokens as f64 / weights.iter().sum::<f64>();
    let mut counts = Vec::with_capacity(distinct);
    let mut cum = 0.0;
    let mut prev_edge = 0u64;
    for (r, w) in weights.iter().enumerate() {
        cum += w;
        let edge = if r + 1 == distinct {
            tokens
        } else {
            ((cum * scale + phase).floor() as u64).min(tokens)
        };
        counts.push((edge - prev_edge) as u32);
        prev_edge = edge;
    }
    counts
}

/// Every occurrence of the profile, as ranks, in seeded random order.
pub fn shuffled_ranks(counts: &[u32], seed: u64) -> Vec<u32> {
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    let mut ranks = Vec::with_capacity(total);
    for (r, &c) in counts.iter().enumerate() {
        ranks.extend(std::iter::repeat_n(r as u32, c as usize));
    }
    let mut rng = SplitMix64::new(seed);
    for i in (1..ranks.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ranks.swap(i, j);
    }
    ranks
}

/// Writes the tokens of `ranks`, one per line; returns the bytes written.
pub fn write_tokens(path: &Path, shape: Shape, ranks: &[u32]) -> io::Result<u64> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    let mut line = Vec::with_capacity(32);
    let mut bytes = 0u64;
    for &r in ranks {
        line.clear();
        write_token(&mut line, shape, r)?;
        line.push(b'\n');
        w.write_all(&line)?;
        bytes += line.len() as u64;
    }
    w.flush()?;
    Ok(bytes)
}

/// The site each rank's token goes to: `cs_hash::shard_of` over
/// `ItemKey::of(token)`, the routing `fi shard` uses.
pub fn site_of_ranks(shape: Shape, distinct: usize, sites: usize) -> Vec<usize> {
    (0..distinct as u32)
        .map(|r| shard_of(ItemKey::of(token(shape, r).as_str()), sites))
        .collect()
}

/// Exact per-key values: occurrence counts for `top`, signed changes for
/// `diff`. Keys are `ItemKey::of(token)`, as `fi` derives them.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Sorted by key; zero values are left out.
    by_key: Vec<(ItemKey, i64)>,
}

impl Oracle {
    /// Builds the oracle from per-rank values.
    pub fn from_rank_values(shape: Shape, values: impl IntoIterator<Item = i64>) -> Self {
        let mut by_key: Vec<(ItemKey, i64)> = values
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v != 0)
            .map(|(r, v)| (ItemKey::of(token(shape, r as u32).as_str()), v))
            .collect();
        by_key.sort_unstable();
        Self { by_key }
    }

    /// The occurrence counts of a profile.
    pub fn counts(shape: Shape, counts: &[u32]) -> Self {
        Self::from_rank_values(shape, counts.iter().map(|&c| i64::from(c)))
    }

    /// The exact value of `key` (0 if it never occurs).
    pub fn value(&self, key: ItemKey) -> i64 {
        match self.by_key.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.by_key[i].1,
            Err(_) => 0,
        }
    }

    /// Keys with a non-zero value.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no key has a non-zero value.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// The `k`-th largest `|value|`: every key at or above it belongs to
    /// an exact top-k (ties at the boundary all count).
    pub fn kth_magnitude(&self, k: usize) -> u64 {
        let mut mags: Vec<u64> = self.by_key.iter().map(|&(_, v)| v.unsigned_abs()).collect();
        if k == 0 || mags.len() < k {
            return 0;
        }
        let (_, kth, _) = mags.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        *kth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zipf_counts_sum_exactly_and_follow_the_law() {
        let c = zipf_counts(1000, 1.1, 50_000, 0.5);
        assert_eq!(c.iter().map(|&x| u64::from(x)).sum::<u64>(), 50_000);
        assert!(c[0] > c[10] && c[10] > c[100]);
        // z = 0 is the uniform law.
        assert!(zipf_counts(100, 0.0, 1_000, 0.5).iter().all(|&x| x == 10));
    }

    #[test]
    fn same_seed_same_order_other_seed_same_multiset() {
        let counts = zipf_counts(50, 1.0, 2_000, 0.5);
        let a = shuffled_ranks(&counts, 7);
        assert_eq!(a, shuffled_ranks(&counts, 7));
        let b = shuffled_ranks(&counts, 8);
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }

    #[test]
    fn oracle_matches_brute_force_counts() {
        for shape in [Shape::Short, Shape::Url] {
            let counts = zipf_counts(40, 0.9, 500, 0.25);
            let mut brute: HashMap<String, i64> = HashMap::new();
            for r in shuffled_ranks(&counts, 3) {
                *brute.entry(token(shape, r)).or_default() += 1;
            }
            let oracle = Oracle::counts(shape, &counts);
            assert_eq!(oracle.len(), brute.len());
            for (tok, n) in &brute {
                assert_eq!(oracle.value(ItemKey::of(tok.as_str())), *n, "{tok}");
            }
            let mut sorted: Vec<i64> = brute.values().copied().collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(oracle.kth_magnitude(5), sorted[4] as u64);
        }
    }

    #[test]
    fn tokens_have_the_documented_shape() {
        assert_eq!(token(Shape::Url, 12345).len(), 29);
        assert_eq!(token(Shape::Short, 255), "wff");
    }
}
