//! Non-Zipfian stream generators used by tests and experiments.
//!
//! Besides the Zipfian workloads of §4.1 the experiments need: uniform
//! streams (the z→0 limit where sketching is hardest), degenerate streams
//! (constant, all-distinct) as unit-test fixtures, the *adversarial
//! boundary* construction from §1 (the instance showing CANDIDATETOP is
//! hard when `n_k = n_{l+1} + 1`), and bursty streams whose items arrive
//! clustered rather than i.i.d. (heap behaviour differs when an item's
//! occurrences are contiguous).

use crate::item::Stream;
use cs_hash::ItemKey;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A uniform stream: `n` positions drawn i.i.d. from `m` items.
pub fn uniform_stream(m: usize, n: usize, seed: u64) -> Stream {
    assert!(m > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| ItemKey(rng.gen_range(0..m as u64)))
        .collect()
}

/// A constant stream: item 0 repeated `n` times.
pub fn constant_stream(n: usize) -> Stream {
    Stream::from_keys(vec![ItemKey(0); n])
}

/// A sequential stream: items `0..n`, each occurring exactly once.
pub fn sequential_stream(n: usize) -> Stream {
    Stream::from_ids(0..n as u64)
}

/// The §1 adversarial boundary instance for CANDIDATETOP(S, k, l):
/// the `k`-th most frequent item occurs `base + 1` times while items
/// `k+1 ..= l+1` occur `base` times — distinguishing rank `k` from rank
/// `l+1` requires resolving a single occurrence. Items `1..k` get strictly
/// larger counts so ranks are otherwise unambiguous. Shuffled with `seed`.
pub fn adversarial_boundary_stream(k: usize, l: usize, base: u64, seed: u64) -> Stream {
    assert!(k >= 1 && l >= k, "need 1 <= k <= l");
    assert!(base >= 1);
    let mut items: Vec<ItemKey> = Vec::new();
    // Ranks 0..k-1 (ids 0..k-1): counts base+1+ (k-1-r) separation.
    for r in 0..k {
        let count = base + 1 + (k - 1 - r) as u64;
        items.extend(std::iter::repeat_n(ItemKey(r as u64), count as usize));
    }
    // Ranks k..l (ids k..l): the near-ties at `base`.
    for r in k..=l {
        items.extend(std::iter::repeat_n(ItemKey(r as u64), base as usize));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    items.shuffle(&mut rng);
    Stream::from_keys(items)
}

/// A bursty stream: each item's occurrences arrive as a contiguous run,
/// runs ordered randomly. `counts[r]` occurrences of item `r`.
pub fn bursty_stream(counts: &[u64], seed: u64) -> Stream {
    let mut order: Vec<usize> = (0..counts.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut items = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
    for r in order {
        items.extend(std::iter::repeat_n(ItemKey(r as u64), counts[r] as usize));
    }
    Stream::from_keys(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactCounter;

    #[test]
    fn uniform_stream_covers_universe() {
        let s = uniform_stream(10, 10_000, 1);
        assert_eq!(s.len(), 10_000);
        let ex = ExactCounter::from_stream(&s);
        assert_eq!(ex.distinct(), 10);
        for id in 0..10u64 {
            let c = ex.count(ItemKey(id));
            assert!((c as f64 - 1000.0).abs() < 200.0, "id {id}: {c}");
        }
    }

    #[test]
    fn constant_stream_is_single_item() {
        let s = constant_stream(42);
        assert_eq!(s.len(), 42);
        assert!(s.iter().all(|k| k == ItemKey(0)));
    }

    #[test]
    fn sequential_stream_all_distinct() {
        let s = sequential_stream(100);
        let ex = ExactCounter::from_stream(&s);
        assert_eq!(ex.distinct(), 100);
        assert!(ex.counts().values().all(|&c| c == 1));
    }

    #[test]
    fn adversarial_boundary_counts() {
        let (k, l, base) = (3usize, 9usize, 10u64);
        let s = adversarial_boundary_stream(k, l, base, 5);
        let ex = ExactCounter::from_stream(&s);
        // Rank k-1 (id 2) occurs base+1 times; ranks k..l occur base times.
        assert_eq!(ex.count(ItemKey(2)), base + 1);
        for id in k..=l {
            assert_eq!(ex.count(ItemKey(id as u64)), base, "id {id}");
        }
        // Top ranks strictly decreasing.
        assert_eq!(ex.count(ItemKey(0)), base + 1 + 2);
        assert_eq!(ex.count(ItemKey(1)), base + 1 + 1);
    }

    #[test]
    fn adversarial_boundary_gap_is_one() {
        let s = adversarial_boundary_stream(5, 20, 50, 0);
        let ex = ExactCounter::from_stream(&s);
        let top = ex.top_k(5);
        let kth = top.last().unwrap().1;
        assert_eq!(ex.count(ItemKey(5)), kth - 1, "l+1-st is one below n_k");
    }

    #[test]
    fn bursty_stream_runs_are_contiguous() {
        let counts = [5u64, 3, 7];
        let s = bursty_stream(&counts, 2);
        assert_eq!(s.len(), 15);
        // Count the number of adjacent-position item changes: exactly
        // (#items - 1) boundaries if all runs are contiguous.
        let slice = s.as_slice();
        let changes = slice.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(changes, 2);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_stream(7, 100, 3), uniform_stream(7, 100, 3));
        assert_eq!(
            adversarial_boundary_stream(2, 5, 4, 1),
            adversarial_boundary_stream(2, 5, 4, 1)
        );
        assert_eq!(bursty_stream(&[1, 2], 0), bursty_stream(&[1, 2], 0));
    }

    #[test]
    #[should_panic(expected = "need 1 <= k <= l")]
    fn adversarial_rejects_l_below_k() {
        adversarial_boundary_stream(5, 4, 10, 0);
    }
}
