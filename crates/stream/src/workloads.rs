//! Canned workload recipes for the paper's three §1 motivations.
//!
//! Each builder returns seeded, reproducible streams shaped like the
//! application the paper names:
//!
//! * [`search_queries`] — "streams of queries sent to the search
//!   engine": Zipfian with `z < 1` (the paper's citation \[17\] reports
//!   real query streams are Zipfian with parameter below 1), plus a
//!   diurnal trending component.
//! * [`balanced_shards`] — "load balancing in a distributed database":
//!   a key-access stream plus its split across shards by key hash; the
//!   frequent-items question is which keys make a shard hot.

use crate::item::Stream;
use crate::transforms;
use crate::zipf::{Zipf, ZipfStreamKind};
use cs_hash::{BucketHasher, ItemKey, PairwiseHash, SeedSequence};

/// A search-query stream: Zipf(z) background (default z = 0.8) with a
/// planted trending query ramping up through the stream.
pub fn search_queries(m: usize, n: usize, z: f64, seed: u64) -> Stream {
    assert!(m >= 1 && n >= 1);
    let zipf = Zipf::new(m, z);
    let background = zipf.stream(n, seed, ZipfStreamKind::Sampled);
    // The trending query (id = m) ramps: absent in the first half,
    // ~2% of traffic in the second half.
    let ramp = n / 50;
    let trend = Stream::from_keys(vec![ItemKey(m as u64); ramp]);
    let (first, second) = {
        let half = background.len() / 2;
        let keys = background.as_slice();
        (
            Stream::from_keys(keys[..half].to_vec()),
            Stream::from_keys(keys[half..].to_vec()),
        )
    };
    let second = transforms::interleave(&second, &trend, seed ^ 1);
    transforms::concat(&[first, second])
}

/// A distributed key-access workload: the global stream plus its split
/// into `shards` sub-streams by a pairwise hash of the key (how a
/// distributed database routes accesses). The hot keys of each shard
/// are the load-balancing signal.
pub fn balanced_shards(
    m: usize,
    n: usize,
    z: f64,
    shards: usize,
    seed: u64,
) -> (Stream, Vec<Stream>) {
    assert!(shards >= 1);
    let zipf = Zipf::new(m, z);
    let global = zipf.stream(n, seed, ZipfStreamKind::Sampled);
    let router = PairwiseHash::draw(&mut SeedSequence::new(seed ^ 0x5AAD), shards);
    let mut parts: Vec<Vec<ItemKey>> = vec![Vec::new(); shards];
    for key in global.iter() {
        parts[router.bucket(key.raw())].push(key);
    }
    (global, parts.into_iter().map(Stream::from_keys).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactCounter;

    #[test]
    fn search_queries_has_trend_in_second_half_only() {
        let (m, n) = (1_000, 100_000);
        let s = search_queries(m, n, 0.8, 3);
        let trend = ItemKey(m as u64);
        let keys = s.as_slice();
        let first_half = keys[..n / 2].iter().filter(|&&k| k == trend).count();
        let second_half = keys[n / 2..].iter().filter(|&&k| k == trend).count();
        assert_eq!(first_half, 0, "trend must be absent early");
        assert_eq!(second_half, n / 50, "trend volume fixed");
    }

    #[test]
    fn search_queries_total_length() {
        let s = search_queries(100, 10_000, 0.8, 1);
        assert_eq!(s.len(), 10_000 + 10_000 / 50);
    }

    #[test]
    fn shards_partition_the_global_stream() {
        let (global, shards) = balanced_shards(200, 20_000, 1.0, 4, 5);
        let total: usize = shards.iter().map(Stream::len).sum();
        assert_eq!(total, global.len());
        // Every key lands in exactly one shard.
        let g = ExactCounter::from_stream(&global);
        for (&key, &count) in g.counts() {
            let holders = shards.iter().filter(|s| s.iter().any(|k| k == key)).count();
            assert_eq!(holders, 1, "key {key:?} in {holders} shards");
            let shard_count: u64 = shards
                .iter()
                .map(|s| ExactCounter::from_stream(s).count(key))
                .sum();
            assert_eq!(shard_count, count);
        }
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        assert_eq!(
            search_queries(50, 1000, 0.8, 9),
            search_queries(50, 1000, 0.8, 9)
        );
        let (g1, s1) = balanced_shards(50, 1000, 1.0, 3, 9);
        let (g2, s2) = balanced_shards(50, 1000, 1.0, 3, 9);
        assert_eq!(g1, g2);
        assert_eq!(s1, s2);
    }
}
