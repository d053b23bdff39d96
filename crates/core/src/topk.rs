//! The top-k heap the one-pass algorithm maintains alongside the sketch.
//!
//! Paper §3.2: *"For each element, we use the COUNT SKETCH data structure
//! to estimate its count, and keep a heap of the top k elements seen so
//! far."* The per-arrival rule is:
//!
//! 1. if `q` is in the heap, increment its stored count;
//! 2. else if `ESTIMATE(C, q)` exceeds the smallest stored count, evict
//!    the minimum and insert `q` with its estimate.
//!
//! Implemented as one flat array of `(value, key)` entries with a cached
//! minimum, not a pointer heap:
//!
//! - **Membership.** At the paper's small `k` a key is found by scanning
//!   the array, a few cache lines, which beats hashing it. Past 32
//!   entries an open-addressed `key → slot` index takes over.
//! - **Minimum.** Each block of 32 slots caches the slot of its smallest
//!   entry, and the tracker caches the smallest of those. An increment
//!   moves the minima only when it raises a block's minimum; an eviction
//!   rescans one block and the block minima. At `k ≤ 32` this is a single
//!   cached minimum over one flat array.
//!
//! Every decision is a function of the set of `(value, key)` pairs,
//! never of slot order: an offer must beat the minimum value strictly,
//! the evicted entry is the smallest `(value, key)`, and
//! [`TopKTracker::items_desc`] sorts. So a tracker rebuilt from a
//! snapshot behaves exactly like the one that wrote it. This is the
//! `O(k)` part of the paper's `O(tb + k)` space bound; the array and the
//! index grow with their entries, so a capacity read from an untrusted
//! snapshot allocates nothing up front.

use cs_hash::ItemKey;

/// A fixed-capacity tracker of the items with the largest values.
#[derive(Debug, Clone, Default)]
pub struct TopKTracker {
    capacity: usize,
    /// Tracked `(value, key)` pairs in no particular order; keys unique.
    entries: Vec<(i64, ItemKey)>,
    /// Slot of the smallest entry in each block of `MIN_BLOCK` slots.
    block_min: Vec<usize>,
    /// Slot of the smallest entry overall (0 when empty).
    min: usize,
    /// Key → slot lookup for `entries`, kept only while the tracker
    /// holds more than `SCAN_MAX` entries (empty otherwise).
    index: SlotIndex,
}

/// Up to this many entries a key is found by scanning `entries`, which
/// at the paper's small `k` beats hashing it.
const SCAN_MAX: usize = 32;

/// Slots per block of the two-level minimum. When a block's smallest
/// entry grows or is evicted, only that block and the block minima are
/// rescanned; at `k ≤ MIN_BLOCK` there is one block and the layout is a
/// plain flat array with a cached minimum.
const MIN_BLOCK: usize = 32;

/// The slot among `slots` (non-empty) holding the smallest entry. The
/// running minimum is carried by value and selected without branches:
/// which slot wins is data-dependent, so a branch would mispredict.
#[inline]
fn argmin(entries: &[(i64, ItemKey)], mut slots: impl Iterator<Item = usize>) -> usize {
    let mut m = slots.next().expect("non-empty slot set");
    let mut best = entries[m];
    for s in slots {
        let e = entries[s];
        let less = e < best;
        m = if less { s } else { m };
        best = if less { e } else { best };
    }
    m
}

/// Marks an empty [`SlotIndex`] cell.
const EMPTY: usize = usize::MAX;

/// One `(key, slot)` cell of a [`SlotIndex`]. The key is stored beside
/// the slot so a probe never leaves the table.
type SlotCell = (ItemKey, usize);

/// Open-addressed `key → slot` map: linear probing from a
/// multiplicative (Fibonacci) hash of the key, kept at most a quarter
/// full (short probe runs) and rebuilt larger as the tracker fills.
#[derive(Debug, Clone, Default)]
struct SlotIndex {
    /// `slot == EMPTY` marks a free cell.
    cells: Vec<SlotCell>,
    /// `64 - log2(cells.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl SlotIndex {
    /// Table size for `len` keys: at most a quarter full, a power of two.
    fn cells_for(len: usize) -> Option<usize> {
        len.checked_mul(4)?.checked_next_power_of_two()
    }

    #[inline]
    fn home(&self, key: ItemKey) -> usize {
        (key.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The cell holding `key`, or the free cell where it would go.
    #[inline]
    fn probe(&self, key: ItemKey) -> usize {
        let mask = self.cells.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, s) = self.cells[i];
            if s == EMPTY || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, key: ItemKey) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let s = self.cells[self.probe(key)].1;
        (s != EMPTY).then_some(s)
    }

    /// Maps `key` to `slot`, inserting or overwriting. `entries` is the
    /// tracker's array with `key` already at `slot`; a table that
    /// outgrew its quarter load is first rebuilt from it.
    fn set(&mut self, key: ItemKey, slot: usize, entries: &[(i64, ItemKey)]) {
        if 4 * entries.len() > self.cells.len() {
            let size = Self::cells_for(entries.len()).expect("entries fit in memory");
            self.cells = vec![(ItemKey(0), EMPTY); size];
            self.shift = 64 - size.trailing_zeros();
            for (s, &(_, k)) in entries.iter().enumerate() {
                let i = self.probe(k);
                self.cells[i] = (k, s);
            }
        }
        let i = self.probe(key);
        self.cells[i] = (key, slot);
    }

    /// Unmaps `key` (which must be mapped), shifting later cells of its
    /// probe run back so no lookup ever stops early.
    fn remove(&mut self, key: ItemKey) {
        let mask = self.cells.len() - 1;
        let mut hole = self.probe(key);
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (k, s) = self.cells[j];
            if s == EMPTY {
                break;
            }
            // The cell at `j` may fill the hole unless its home lies
            // cyclically after the hole.
            if (j.wrapping_sub(self.home(k)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.cells[hole] = (k, s);
                hole = j;
            }
        }
        self.cells[hole].1 = EMPTY;
    }
}

impl TopKTracker {
    /// Creates a tracker holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            entries: Vec::new(),
            block_min: Vec::new(),
            min: 0,
            index: SlotIndex::default(),
        }
    }

    /// Maximum number of items tracked.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is currently tracked.
    pub fn contains(&self, key: ItemKey) -> bool {
        self.slot(key).is_some()
    }

    /// The stored value for `key`, if tracked.
    pub fn value(&self, key: ItemKey) -> Option<i64> {
        self.slot(key).map(|s| self.entries[s].0)
    }

    /// Step 1 of the paper's rule: increment the stored count of a
    /// tracked item. Returns `true` if the item was tracked.
    #[inline]
    pub fn increment(&mut self, key: ItemKey) -> bool {
        self.add_to(key, 1)
    }

    /// Adds `delta` to the stored count of a tracked item. Returns `true`
    /// if the item was tracked.
    #[inline]
    pub fn add_to(&mut self, key: ItemKey, delta: i64) -> bool {
        match self.slot(key) {
            Some(s) => {
                self.set(s, self.entries[s].0 + delta);
                true
            }
            None => false,
        }
    }

    /// Step 2 of the paper's rule: offer an untracked item with its
    /// estimate. Inserts if there is room, or if `value` beats the current
    /// minimum (evicting it). Returns the evicted item, if any.
    ///
    /// Offering an already-tracked key replaces its stored value instead
    /// (used by the "always re-estimate" ablation policy).
    pub fn offer(&mut self, key: ItemKey, value: i64) -> Option<(ItemKey, i64)> {
        if let Some(s) = self.slot(key) {
            self.set(s, value);
            return None;
        }
        let min = (self.entries.len() == self.capacity).then(|| self.entries[self.min]);
        self.admit(key, value)?;
        min.map(|(v, k)| (k, v))
    }

    /// Step 2 for a key known to be untracked: inserts it if there is
    /// room, or if `value` beats the current minimum (taking the evicted
    /// minimum's slot). Returns the slot `key` now holds, if admitted.
    #[inline]
    pub(crate) fn admit(&mut self, key: ItemKey, value: i64) -> Option<usize> {
        if self.entries.len() < self.capacity {
            let s = self.entries.len();
            self.entries.push((value, key));
            if self.entries.len() > SCAN_MAX {
                self.index.set(key, s, &self.entries);
            }
            if s / MIN_BLOCK == self.block_min.len() {
                self.block_min.push(s);
            }
            self.lowered(s);
            return Some(s);
        }
        let m = self.min;
        let (min_v, min_k) = self.entries[m];
        if value > min_v {
            self.entries[m] = (value, key);
            if self.entries.len() > SCAN_MAX {
                self.index.remove(min_k);
                self.index.set(key, m, &self.entries);
            }
            self.raised(m);
            Some(m)
        } else {
            None
        }
    }

    /// All tracked items, values non-increasing; equal values list the
    /// larger key first (descending `(value, key)` order).
    pub fn items_desc(&self) -> Vec<(ItemKey, i64)> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.into_iter().map(|(v, k)| (k, v)).collect()
    }

    /// Heap bytes used at full occupancy (the `O(k)` term of the space
    /// bound): the entry array, plus the key index past `SCAN_MAX`
    /// entries.
    pub fn space_bytes(&self) -> usize {
        let entries = self
            .capacity
            .saturating_mul(std::mem::size_of::<(i64, ItemKey)>());
        let index = if self.capacity > SCAN_MAX {
            SlotIndex::cells_for(self.capacity).map_or(usize::MAX, |c| {
                c.saturating_mul(std::mem::size_of::<SlotCell>())
            })
        } else {
            0
        };
        std::mem::size_of::<Self>()
            .saturating_add(entries)
            .saturating_add(index)
    }

    /// The tracked keys in slot order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = ItemKey> + '_ {
        self.entries.iter().map(|&(_, k)| k)
    }

    /// The slot holding `key`, if tracked.
    #[inline]
    pub(crate) fn slot(&self, key: ItemKey) -> Option<usize> {
        if self.entries.len() > SCAN_MAX {
            self.index.get(key)
        } else {
            self.entries.iter().position(|&(_, k)| k == key)
        }
    }

    /// Stores `value` in slot `s` and restores the minima.
    #[inline]
    fn set(&mut self, s: usize, value: i64) {
        let old = self.entries[s].0;
        self.entries[s].0 = value;
        if value > old {
            self.raised(s);
        } else {
            self.lowered(s);
        }
    }

    /// Restores the minima after the entry in slot `s` grew. Only a
    /// block minimum that grew moves anything.
    #[inline]
    fn raised(&mut self, s: usize) {
        let b = s / MIN_BLOCK;
        if self.block_min[b] == s {
            self.rescan_block(b);
            if self.min == s {
                self.rescan_min();
            }
        }
    }

    /// Restores the minima after the entry in slot `s` shrank or arrived.
    #[inline]
    fn lowered(&mut self, s: usize) {
        let b = s / MIN_BLOCK;
        if self.entries[s] < self.entries[self.block_min[b]] {
            self.block_min[b] = s;
        }
        if self.entries[s] < self.entries[self.min] {
            self.min = s;
        }
    }

    fn rescan_block(&mut self, b: usize) {
        let lo = b * MIN_BLOCK;
        let hi = (lo + MIN_BLOCK).min(self.entries.len());
        self.block_min[b] = argmin(&self.entries, lo..hi);
    }

    fn rescan_min(&mut self) {
        self.min = argmin(&self.entries, self.block_min.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The smallest stored value, as the minimum structure holds it.
    fn min_value(t: &TopKTracker) -> Option<i64> {
        t.entries.get(t.min).map(|&(v, _)| v)
    }

    #[test]
    fn fills_up_to_capacity() {
        let mut t = TopKTracker::new(3);
        assert!(t.is_empty());
        t.offer(ItemKey(1), 10);
        t.offer(ItemKey(2), 5);
        t.offer(ItemKey(3), 8);
        assert_eq!(t.len(), 3);
        assert_eq!(min_value(&t), Some(5));
    }

    #[test]
    fn evicts_minimum_when_full() {
        let mut t = TopKTracker::new(2);
        t.offer(ItemKey(1), 10);
        t.offer(ItemKey(2), 5);
        let evicted = t.offer(ItemKey(3), 7);
        assert_eq!(evicted, Some((ItemKey(2), 5)));
        assert!(t.contains(ItemKey(1)));
        assert!(t.contains(ItemKey(3)));
        assert!(!t.contains(ItemKey(2)));
    }

    #[test]
    fn rejects_offer_not_beating_min() {
        let mut t = TopKTracker::new(2);
        t.offer(ItemKey(1), 10);
        t.offer(ItemKey(2), 5);
        // Equal to min: paper says "greater than", so no insert.
        assert_eq!(t.offer(ItemKey(3), 5), None);
        assert!(!t.contains(ItemKey(3)));
        assert_eq!(t.offer(ItemKey(4), 4), None);
        assert!(!t.contains(ItemKey(4)));
    }

    #[test]
    fn increment_only_touches_tracked() {
        let mut t = TopKTracker::new(2);
        t.offer(ItemKey(1), 10);
        assert!(t.increment(ItemKey(1)));
        assert_eq!(t.value(ItemKey(1)), Some(11));
        assert!(!t.increment(ItemKey(99)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn increment_updates_ordering() {
        let mut t = TopKTracker::new(2);
        t.offer(ItemKey(1), 5);
        t.offer(ItemKey(2), 6);
        // Raise item 1 above item 2; min should become item 2.
        t.increment(ItemKey(1));
        t.increment(ItemKey(1));
        assert_eq!(min_value(&t), Some(6));
        let evicted = t.offer(ItemKey(3), 100);
        assert_eq!(evicted, Some((ItemKey(2), 6)));
    }

    #[test]
    fn offer_tracked_key_replaces_value() {
        let mut t = TopKTracker::new(2);
        t.offer(ItemKey(1), 5);
        t.offer(ItemKey(1), 9);
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(ItemKey(1)), Some(9));
    }

    #[test]
    fn items_desc_sorted() {
        let mut t = TopKTracker::new(5);
        t.offer(ItemKey(1), 3);
        t.offer(ItemKey(2), 9);
        t.offer(ItemKey(3), 6);
        assert_eq!(
            t.items_desc(),
            vec![(ItemKey(2), 9), (ItemKey(3), 6), (ItemKey(1), 3)]
        );
    }

    #[test]
    fn negative_values_supported() {
        // Max-change tracking uses |estimates|, but the tracker itself
        // must handle any i64 correctly.
        let mut t = TopKTracker::new(2);
        t.offer(ItemKey(1), -5);
        t.offer(ItemKey(2), -10);
        let evicted = t.offer(ItemKey(3), -1);
        assert_eq!(evicted, Some((ItemKey(2), -10)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TopKTracker::new(0);
    }

    #[test]
    fn items_desc_lists_larger_key_first_on_ties() {
        // Reports and CSNP snapshots are written in this order, so it is
        // pinned: descending (value, key).
        let mut t = TopKTracker::new(4);
        t.offer(ItemKey(2), 7);
        t.offer(ItemKey(9), 7);
        t.offer(ItemKey(5), 7);
        t.offer(ItemKey(1), 8);
        assert_eq!(
            t.items_desc(),
            vec![
                (ItemKey(1), 8),
                (ItemKey(9), 7),
                (ItemKey(5), 7),
                (ItemKey(2), 7)
            ]
        );
        // And the smallest (value, key) is the one evicted.
        assert_eq!(t.offer(ItemKey(3), 8), Some((ItemKey(2), 7)));
    }

    #[test]
    fn huge_capacity_allocates_nothing_up_front() {
        let mut t = TopKTracker::new(1 << 61);
        t.offer(ItemKey(1), 3);
        assert_eq!(t.len(), 1);
        assert!(t.space_bytes() > 0);
    }

    /// Reference model: the tracked `(value, key)` pairs kept sorted
    /// ascending in a plain `Vec`, with the paper's rule spelled out.
    #[derive(Default)]
    struct Model(Vec<(i64, ItemKey)>);

    impl Model {
        fn pos(&self, key: ItemKey) -> Option<usize> {
            self.0.iter().position(|&(_, k)| k == key)
        }

        fn offer(&mut self, cap: usize, key: ItemKey, v: i64) -> Option<(ItemKey, i64)> {
            if let Some(p) = self.pos(key) {
                self.0[p].0 = v;
                self.0.sort_unstable();
                return None;
            }
            if self.0.len() < cap {
                self.0.push((v, key));
                self.0.sort_unstable();
                return None;
            }
            let (min_v, min_k) = self.0[0];
            if v > min_v {
                self.0[0] = (v, key);
                self.0.sort_unstable();
                Some((min_k, min_v))
            } else {
                None
            }
        }

        fn add_to(&mut self, key: ItemKey, delta: i64) -> bool {
            match self.pos(key) {
                Some(p) => {
                    self.0[p].0 += delta;
                    self.0.sort_unstable();
                    true
                }
                None => false,
            }
        }

        fn items_desc(&self) -> Vec<(ItemKey, i64)> {
            self.0.iter().rev().map(|&(v, k)| (k, v)).collect()
        }
    }

    proptest! {
        #[test]
        fn prop_never_exceeds_capacity(
            cap in 1usize..10,
            offers in prop::collection::vec((0u64..50, -100i64..100), 0..200),
        ) {
            let mut t = TopKTracker::new(cap);
            for (id, v) in offers {
                t.offer(ItemKey(id), v);
                prop_assert!(t.len() <= cap);
            }
        }

        #[test]
        fn prop_matches_sorted_vec_model(
            cap_pick in 1usize..66,
            ops in prop::collection::vec((0u8..3, 0u64..4096, -100i64..100), 0..3000),
        ) {
            // Capacities 1..=64, plus 1024 (a pick of 65). Keys are drawn
            // from about twice the capacity so offers both fill the
            // tracker and fight over its minimum.
            let cap = if cap_pick == 65 { 1024 } else { cap_pick };
            let key_space = 2 * cap as u64 + 2;
            let mut t = TopKTracker::new(cap);
            let mut model = Model::default();
            for (op, raw, v) in ops {
                let key = ItemKey(raw % key_space);
                match op {
                    0 => prop_assert_eq!(t.offer(key, v), model.offer(cap, key, v)),
                    1 => prop_assert_eq!(t.increment(key), model.add_to(key, 1)),
                    _ => prop_assert_eq!(t.add_to(key, v), model.add_to(key, v)),
                }
                prop_assert_eq!(t.len(), model.0.len());
                prop_assert_eq!(min_value(&t), model.0.first().map(|&(v, _)| v));
                prop_assert_eq!(t.items_desc(), model.items_desc());
                prop_assert!(t.len() <= cap);
            }
        }

        #[test]
        fn prop_tracker_keeps_maxima_of_distinct_offers(
            mut vals in prop::collection::vec(-1000i64..1000, 1..50),
        ) {
            // Offer distinct keys with given values; tracker must end up
            // holding exactly the top-cap values.
            let cap = 5usize;
            let mut t = TopKTracker::new(cap);
            for (i, &v) in vals.iter().enumerate() {
                t.offer(ItemKey(i as u64), v);
            }
            vals.sort_unstable_by(|a, b| b.cmp(a));
            let want: Vec<i64> = vals.iter().copied().take(cap).collect();
            let got: Vec<i64> = t.items_desc().iter().map(|&(_, v)| v).collect();
            // Multisets must agree except that equal-to-min offers may be
            // rejected in favour of earlier arrivals — compare sorted
            // values directly, which are identical either way.
            prop_assert_eq!(got, want);
        }
    }
}
