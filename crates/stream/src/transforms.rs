//! Stream transforms used by experiments and examples.
//!
//! Pure functions from streams to streams: concatenation, seeded
//! interleaving (merging two time periods into one stream while
//! preserving per-item counts), and repetition.

use crate::item::Stream;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Concatenates streams in order.
pub fn concat(streams: &[Stream]) -> Stream {
    let mut out = Stream::new();
    for s in streams {
        out.extend_from(s);
    }
    out
}

/// Interleaves two streams in a seeded uniformly random order,
/// preserving each stream's internal occurrence order.
pub fn interleave(a: &Stream, b: &Stream, seed: u64) -> Stream {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Positions: true = draw from a, false = from b; shuffled multiset.
    let mut picks: Vec<bool> = std::iter::repeat_n(true, a.len())
        .chain(std::iter::repeat_n(false, b.len()))
        .collect();
    picks.shuffle(&mut rng);
    let mut ia = a.iter();
    let mut ib = b.iter();
    picks
        .into_iter()
        .map(|from_a| {
            if from_a {
                ia.next().expect("counted")
            } else {
                ib.next().expect("counted")
            }
        })
        .collect()
}

/// Repeats a stream `times` times (longer synthetic workloads with
/// identical relative frequencies).
pub fn repeat(stream: &Stream, times: usize) -> Stream {
    let mut out = Stream::new();
    for _ in 0..times {
        out.extend_from(stream);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactCounter;
    use cs_hash::ItemKey;

    #[test]
    fn concat_preserves_order_and_counts() {
        let a = Stream::from_ids([1, 2]);
        let b = Stream::from_ids([3]);
        let c = concat(&[a, b]);
        assert_eq!(c, Stream::from_ids([1, 2, 3]));
        assert!(concat(&[]).is_empty());
    }

    #[test]
    fn interleave_preserves_multiset_and_suborder() {
        let a = Stream::from_ids([1, 1, 2]);
        let b = Stream::from_ids([9, 9, 9, 9]);
        let m = interleave(&a, &b, 5);
        assert_eq!(m.len(), 7);
        let ex = ExactCounter::from_stream(&m);
        assert_eq!(ex.count(ItemKey(1)), 2);
        assert_eq!(ex.count(ItemKey(2)), 1);
        assert_eq!(ex.count(ItemKey(9)), 4);
        // a's occurrences keep their relative order: 1,1,2.
        let from_a: Vec<u64> = m.iter().filter(|k| k.raw() != 9).map(|k| k.raw()).collect();
        assert_eq!(from_a, vec![1, 1, 2]);
    }

    #[test]
    fn interleave_is_seed_deterministic() {
        let a = Stream::from_ids(0..50);
        let b = Stream::from_ids(50..100);
        assert_eq!(interleave(&a, &b, 7), interleave(&a, &b, 7));
        assert_ne!(interleave(&a, &b, 7), interleave(&a, &b, 8));
    }

    #[test]
    fn repeat_multiplies_counts() {
        let s = Stream::from_ids([5, 5, 6]);
        let r = repeat(&s, 3);
        assert_eq!(r.len(), 9);
        let ex = ExactCounter::from_stream(&r);
        assert_eq!(ex.count(ItemKey(5)), 6);
        assert!(repeat(&s, 0).is_empty());
    }
}
