//! Deterministic fault injection for robustness testing.
//!
//! The distributed pipeline's failure model: a site report (or stream
//! file, or snapshot) can be **truncated** by a torn write, **bit-flipped**
//! in transit or at rest, **duplicated** by an at-least-once transport,
//! **reordered** by retries racing each other, or **delayed** by a
//! straggling site that fails an attempt before it delivers. [`FaultInjector`] produces all of these from one
//! seeded generator, so a failing test case reproduces from its seed
//! alone — the same engine drives both `tests/robustness.rs` and
//! `tests/fault_recovery.rs`.
//!
//! The injector deliberately knows nothing about the formats it breaks:
//! byte-level faults operate on any `Vec<u8>` payload (wire streams,
//! snapshots), collection-level faults on any `Vec<T>` (site reports,
//! update batches).

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Cut the payload short, as a torn write or interrupted transfer
    /// would.
    Truncate,
    /// Flip this many random bits in place.
    BitFlip {
        /// Number of bits to flip (each drawn uniformly).
        flips: usize,
    },
    /// Deliver one element twice (at-least-once transport).
    Duplicate,
    /// Shuffle element order (racing retries).
    Reorder,
    /// Deliver late: one failed attempt, then the intact payload
    /// (straggling site).
    Straggle,
    /// Never deliver at all.
    Drop,
}

/// A fault policy for a byte-stream *connection* (as opposed to the
/// one-shot payload faults of [`Fault`]): how an unreliable link
/// misbehaves while a transport writes through it.
///
/// The policy itself is pure data — `cs-net`'s `FaultyConn` interprets
/// it against a live `Read + Write` connection, and the CLI parses it
/// from a `--fault` spec string so multi-process tests can stand up
/// misbehaving links without code changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The link dies after delivering this many bytes (a site killed
    /// mid-ship, a torn connection). Spec: `cut:BYTES`.
    CutAfter {
        /// Bytes delivered before the link fails.
        bytes: u64,
    },
    /// Every write landing at or past this stream offset has one bit
    /// flipped (a corrupting middlebox or failing NIC). Spec:
    /// `flip:FROM_BYTE`.
    FlipBits {
        /// Stream offset past which writes are corrupted.
        from_byte: u64,
    },
    /// Every write is delayed by this many milliseconds (a congested or
    /// straggling link). Spec: `stall:MILLIS`.
    StallMs {
        /// Delay per write.
        millis: u64,
    },
}

impl LinkFault {
    /// Parses a `--fault` spec: `cut:BYTES`, `flip:FROM_BYTE` or
    /// `stall:MILLIS`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, value) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec '{spec}' is not KIND:VALUE"))?;
        let value: u64 = value
            .parse()
            .map_err(|e| format!("fault spec '{spec}': {e}"))?;
        match kind {
            "cut" => Ok(LinkFault::CutAfter { bytes: value }),
            "flip" => Ok(LinkFault::FlipBits { from_byte: value }),
            "stall" => Ok(LinkFault::StallMs { millis: value }),
            other => Err(format!(
                "unknown fault kind '{other}' (expected cut | flip | stall)"
            )),
        }
    }
}

impl std::fmt::Display for LinkFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkFault::CutAfter { bytes } => write!(f, "cut:{bytes}"),
            LinkFault::FlipBits { from_byte } => write!(f, "flip:{from_byte}"),
            LinkFault::StallMs { millis } => write!(f, "stall:{millis}"),
        }
    }
}

/// Seeded deterministic fault generator (SplitMix64 underneath).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// An injector whose whole fault sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Bernoulli draw.
    pub fn happens(&mut self, probability: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < probability
    }

    /// Truncates the payload at a uniformly drawn point (possibly to
    /// empty; a no-op on an already-empty payload). Returns the new
    /// length.
    pub fn truncate(&mut self, payload: &mut Vec<u8>) -> usize {
        if !payload.is_empty() {
            let keep = self.pick(0, payload.len() as u64) as usize;
            payload.truncate(keep);
        }
        payload.len()
    }

    /// Flips `flips` uniformly drawn bits in place; returns the
    /// `(byte, bit)` positions flipped. A no-op on an empty payload.
    pub fn flip_bits(&mut self, payload: &mut [u8], flips: usize) -> Vec<(usize, u8)> {
        if payload.is_empty() {
            return Vec::new();
        }
        (0..flips)
            .map(|_| {
                let byte = self.pick(0, payload.len() as u64) as usize;
                let bit = self.pick(0, 8) as u8;
                payload[byte] ^= 1 << bit;
                (byte, bit)
            })
            .collect()
    }

    /// Duplicates one uniformly drawn element, appending the copy at a
    /// uniformly drawn position. A no-op on an empty collection.
    pub fn duplicate<T: Clone>(&mut self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        let src = self.pick(0, items.len() as u64) as usize;
        let dst = self.pick(0, items.len() as u64 + 1) as usize;
        let copy = items[src].clone();
        items.insert(dst, copy);
    }

    /// Fisher–Yates shuffle of the collection.
    pub fn reorder<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.pick(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Draws one fault uniformly from the full byte-and-collection
    /// matrix.
    pub fn any_fault(&mut self) -> Fault {
        match self.pick(0, 6) {
            0 => Fault::Truncate,
            1 => Fault::BitFlip {
                flips: self.pick(1, 9) as usize,
            },
            2 => Fault::Duplicate,
            3 => Fault::Reorder,
            4 => Fault::Straggle,
            _ => Fault::Drop,
        }
    }

    /// Applies a byte-level fault to a payload. Collection-level faults
    /// (`Duplicate`, `Reorder`) and delivery faults (`Straggle`, `Drop`)
    /// leave the bytes untouched — they are about *when and how often*
    /// the payload arrives, which the caller's delivery loop models.
    pub fn corrupt(&mut self, fault: Fault, payload: &mut Vec<u8>) {
        match fault {
            Fault::Truncate => {
                self.truncate(payload);
            }
            Fault::BitFlip { flips } => {
                self.flip_bits(payload, flips);
            }
            Fault::Duplicate | Fault::Reorder | Fault::Straggle | Fault::Drop => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_fault_specs_roundtrip() {
        for (spec, want) in [
            ("cut:64", LinkFault::CutAfter { bytes: 64 }),
            ("flip:100", LinkFault::FlipBits { from_byte: 100 }),
            ("stall:25", LinkFault::StallMs { millis: 25 }),
        ] {
            let parsed = LinkFault::parse(spec).unwrap();
            assert_eq!(parsed, want);
            assert_eq!(parsed.to_string(), spec);
        }
        assert!(LinkFault::parse("cut").is_err());
        assert!(LinkFault::parse("cut:lots").is_err());
        assert!(LinkFault::parse("melt:3").is_err());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        for _ in 0..100 {
            assert_eq!(a.any_fault(), b.any_fault());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(1);
        let mut b = FaultInjector::new(2);
        let fa: Vec<Fault> = (0..20).map(|_| a.any_fault()).collect();
        let fb: Vec<Fault> = (0..20).map(|_| b.any_fault()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn truncate_shortens() {
        let mut inj = FaultInjector::new(3);
        let mut payload = vec![0xAB; 100];
        let n = inj.truncate(&mut payload);
        assert!(n < 100);
        assert_eq!(payload.len(), n);
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(inj.truncate(&mut empty), 0);
    }

    #[test]
    fn flip_bits_changes_exactly_reported_positions() {
        let mut inj = FaultInjector::new(5);
        let clean = vec![0u8; 64];
        let mut corrupt = clean.clone();
        let flips = inj.flip_bits(&mut corrupt, 3);
        assert_eq!(flips.len(), 3);
        // Undo the reported flips: must restore the original (an odd
        // number of flips on the same bit still differs; xor is its own
        // inverse either way).
        for (byte, bit) in flips {
            corrupt[byte] ^= 1 << bit;
        }
        assert_eq!(corrupt, clean);
    }

    #[test]
    fn duplicate_grows_by_one_and_preserves_multiset_plus_copy() {
        let mut inj = FaultInjector::new(9);
        let mut items = vec![1, 2, 3, 4];
        inj.duplicate(&mut items);
        assert_eq!(items.len(), 5);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        // Exactly one element appears one extra time.
        let dupes = sorted.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(dupes, 1);
    }

    #[test]
    fn reorder_is_a_permutation() {
        let mut inj = FaultInjector::new(11);
        let mut items: Vec<u32> = (0..50).collect();
        inj.reorder(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(items, sorted, "50 elements virtually never stay put");
    }

    #[test]
    fn any_fault_covers_the_matrix() {
        let mut inj = FaultInjector::new(17);
        let mut seen_discriminants = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen_discriminants.insert(match inj.any_fault() {
                Fault::Truncate => 0,
                Fault::BitFlip { .. } => 1,
                Fault::Duplicate => 2,
                Fault::Reorder => 3,
                Fault::Straggle => 4,
                Fault::Drop => 5,
            });
        }
        assert_eq!(seen_discriminants.len(), 6, "all six fault kinds drawn");
    }

    #[test]
    fn corrupt_dispatches_byte_faults_only() {
        let mut inj = FaultInjector::new(19);
        let mut payload = vec![0xFF; 32];
        inj.corrupt(Fault::Reorder, &mut payload);
        inj.corrupt(Fault::Drop, &mut payload);
        inj.corrupt(Fault::Straggle, &mut payload);
        inj.corrupt(Fault::Duplicate, &mut payload);
        assert_eq!(payload, vec![0xFF; 32], "delivery faults keep bytes");
        inj.corrupt(Fault::BitFlip { flips: 1 }, &mut payload);
        assert_ne!(payload, vec![0xFF; 32]);
    }
}
