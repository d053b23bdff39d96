//! Robustness and failure-injection tests: malformed wire data, corrupted
//! serialized sketches, and mismatched merges must fail cleanly — never
//! panic, never silently corrupt.

use frequent_items::prelude::*;
use frequent_items::stream::io;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the stream decoder.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = io::decode(&bytes);
    }

    /// Truncating a valid encoding at any point yields an error (or, for
    /// cuts at the exact end, the full stream) — never garbage.
    #[test]
    fn decode_truncations_fail_cleanly(
        ids in prop::collection::vec(any::<u64>(), 0..50),
        cut in 0usize..500,
    ) {
        let stream = Stream::from_ids(ids.iter().copied());
        let bytes = io::encode(&stream);
        let cut = cut.min(bytes.len());
        if let Ok(decoded) = io::decode(&bytes[..cut]) { prop_assert_eq!(decoded, stream, "only a full read may succeed") }
    }

    /// Bit-flipping an encoded stream is *detected*: since the v2 wire
    /// format carries a trailing CRC-32, any single flipped bit must
    /// yield a typed error, never a silently different stream.
    #[test]
    fn decode_bitflips_are_detected(
        ids in prop::collection::vec(any::<u64>(), 1..50),
        byte_idx: usize,
        bit in 0u8..8,
    ) {
        let stream = Stream::from_ids(ids.iter().copied());
        let mut bytes = io::encode(&stream).to_vec();
        let i = byte_idx % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(io::decode(&bytes).is_err(), "flip at byte {i} bit {bit} went undetected");
    }

    /// Truncating a sketch snapshot at any point errors cleanly.
    #[test]
    fn sketch_snapshot_corruption_fails_cleanly(
        seed: u64,
        cut in 1usize..800,
    ) {
        let mut s = CountSketch::new(SketchParams::new(3, 16), seed);
        s.add(ItemKey(1));
        let bytes = s.to_snapshot_bytes();
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(CountSketch::from_snapshot_bytes(&bytes[..cut]).is_err());
    }

    /// The fault injector's whole byte-level matrix against the stream
    /// decoder: every corrupted payload either still decodes to the
    /// original (delivery faults leave bytes intact) or errors — never
    /// panics, never yields a different stream.
    #[test]
    fn injected_stream_faults_never_yield_wrong_data(
        ids in prop::collection::vec(any::<u64>(), 0..60),
        seed: u64,
    ) {
        let stream = Stream::from_ids(ids.iter().copied());
        let clean = io::encode(&stream);
        let mut inj = FaultInjector::new(seed);
        for _ in 0..8 {
            let fault = inj.any_fault();
            let mut bytes = clean.clone();
            inj.corrupt(fault, &mut bytes);
            // Typed decode failure is the expected outcome; a success
            // must be the unaltered original.
            if let Ok(decoded) = io::decode(&bytes) {
                prop_assert_eq!(&decoded, &stream, "fault {:?} altered data silently", fault);
            }
        }
    }
}

#[test]
fn merge_after_snapshot_restore_respects_compatibility() {
    // A sketch restored from a snapshot must still merge with a fresh
    // same-seed sketch, and refuse a different-seed one.
    let params = SketchParams::new(3, 32);
    let mut original = CountSketch::new(params, 5);
    original.add(ItemKey(9));
    let restored = CountSketch::from_snapshot_bytes(&original.to_snapshot_bytes()).unwrap();

    let mut same = CountSketch::new(params, 5);
    same.add(ItemKey(9));
    assert!(same.merge(&restored).is_ok());

    let mut different = CountSketch::new(params, 6);
    assert!(different.merge(&restored).is_err());
}

#[test]
fn decode_rejects_huge_length_header_without_allocating() {
    // A length field of u64::MAX must error, not attempt a 2^67-byte
    // allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&0x4353_5452u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    let start = std::time::Instant::now();
    assert!(io::decode(&bytes).is_err());
    assert!(start.elapsed().as_secs() < 1, "must fail fast");
}

#[test]
fn zero_weight_updates_are_noops() {
    let mut s = CountSketch::new(SketchParams::new(3, 16), 1);
    s.update(ItemKey(5), 0);
    assert!(s.counters().iter().all(|&c| c == 0));
}

#[test]
fn extreme_weights_do_not_overflow_quickly() {
    // Single large weights work; counters are i64 and a weight of
    // ±2^40 is representable without wrap.
    let mut s = CountSketch::new(SketchParams::new(3, 16), 2);
    let w = 1i64 << 40;
    s.update(ItemKey(7), w);
    assert_eq!(s.estimate(ItemKey(7)), w);
    s.update(ItemKey(7), -w);
    assert_eq!(s.estimate(ItemKey(7)), 0);
}
