//! CRC-32 (IEEE 802.3 polynomial), the integrity checksum used by the
//! stream wire format (`cs-stream::io`, CSTR v2) and the sketch snapshot
//! format (`cs-core::snapshot`).
//!
//! A checksum is the cheapest fault detector the pipeline has: a site
//! report or a checkpoint that was truncated, bit-flipped in transit, or
//! torn by a crash mid-write must be *detected* before its counters are
//! merged into a global sketch — a silently corrupted counter array
//! skews every subsequent estimate. CRC-32 detects all single-bit errors
//! and all burst errors up to 32 bits, which covers the fault model the
//! robustness tests inject.
//!
//! The implementation is slicing-by-16: sixteen 256-entry tables, built
//! at compile time, fold sixteen input bytes per step with independent
//! lookups, and the tail is finished with the classic byte-at-a-time
//! table. Every site sketch passes through this loop four times on its way
//! from `fi ship` to `fi serve` (snapshot seal, frame encode, frame decode,
//! snapshot open), so its speed is the ship→serve path's speed. There is
//! one portable path — no `std::arch`, no CPU-feature detection, no
//! option: a carry-less-multiply variant would be a second implementation
//! to keep bit-identical, and it has not been shown to beat this one on
//! any end-to-end number.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC
/// contribution of byte `i` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Incremental CRC-32 state, for checksumming data produced in pieces
/// (e.g. a snapshot written section by section).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(SLICES);
        for b in &mut blocks {
            let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop this module shipped before
    /// slicing-by-16: the reference every slicing result must equal.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Inputs long enough to reach the 16-byte loop; values printed by
        // the byte-at-a-time implementation.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let all: Vec<u8> = (0u8..=255).collect();
        assert_eq!(crc32(&all), 0x2905_8C73);
        let seq: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(crc32(&seq), 0x17BC_2A46);
    }

    #[test]
    fn byte_table_is_the_bitwise_polynomial() {
        // Pins TABLES[0] independently of the table builder.
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & 0u32.wrapping_sub(crc & 1));
            }
            assert_eq!(TABLES[0][i as usize], crc, "entry {i}");
        }
    }

    #[test]
    fn every_short_length_and_split_matches_the_reference() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let want = reference(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "length {len}");
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finalize(), want, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data: Vec<u8> = (0u8..=255).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn detects_truncation() {
        let data = vec![0xAB; 64];
        let clean = crc32(&data);
        for cut in 0..64 {
            assert_ne!(crc32(&data[..cut]), clean, "truncation at {cut} undetected");
        }
    }

    proptest! {
        #[test]
        fn prop_slicing_equals_reference_under_any_split(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            cut_a in 0.0f64..1.0,
            cut_b in 0.0f64..1.0,
        ) {
            prop_assert_eq!(crc32(&data), reference(&data));
            // Two split points anywhere, so most pieces start and end off
            // a 16-byte boundary.
            let a = (data.len() as f64 * cut_a) as usize;
            let b = a + ((data.len() - a) as f64 * cut_b) as usize;
            let mut c = Crc32::new();
            c.update(&data[..a]);
            c.update(&data[a..b]);
            c.update(&data[b..]);
            prop_assert_eq!(c.finalize(), reference(&data));
        }
    }
}
