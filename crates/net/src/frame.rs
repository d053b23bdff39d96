//! The `CSWP` v1 frame protocol: length-prefixed, CRC-guarded frames.
//!
//! Every message on a cs-net connection is one frame:
//!
//! ```text
//! magic    u32  = 0x4353_5750 ("CSWP")
//! version  u32  = 1
//! type     u32  = 1 HELLO | 2 SNAPSHOT | 3 REPORT | 4 ACK | 5 NACK | 6 BYE
//! length   u32  -- payload bytes (bounded by MAX_PAYLOAD)
//! payload  length × u8
//! crc32    u32  -- CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! The payload of SNAPSHOT is a complete `CSNP` snapshot and the
//! candidate list inside REPORT is a complete `CSTR` stream — both carry
//! their own trailing checksums, which stay in force. The frame-level
//! CRC exists so that truncation and mid-stream corruption are detected
//! *before* any payload decode runs: a torn or bit-flipped frame is a
//! typed [`NetError`], never a panic and never a silently wrong sketch.
//!
//! Decoding is total and allocation-safe: the length field is validated
//! against [`MAX_PAYLOAD`] and against the bytes actually present before
//! any buffer is sized from it, so a forged length cannot trigger a huge
//! allocation or an out-of-bounds read.

use crate::NetError;
use cs_hash::crc32::{crc32, Crc32};
use std::borrow::Cow;
use std::io::{Read, Write};

/// Frame magic, "CSWP" in the byte order of the sibling `CSNP`/`CSTR`
/// formats.
pub const MAGIC: u32 = 0x4353_5750;
/// Protocol version this implementation speaks.
pub const VERSION: u32 = 1;
/// Hard cap on a frame payload. A site ships one sketch snapshot plus a
/// candidate list — megabytes at most; anything claiming more is a
/// corrupt or hostile length field.
pub const MAX_PAYLOAD: usize = 64 << 20;
/// Fixed frame header size: magic + version + type + length.
pub const HEADER: usize = 16;

const TYPE_HELLO: u32 = 1;
const TYPE_SNAPSHOT: u32 = 2;
const TYPE_REPORT: u32 = 3;
const TYPE_ACK: u32 = 4;
const TYPE_NACK: u32 = 5;
const TYPE_BYE: u32 = 6;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection opener: who is shipping, and the sketch configuration
    /// it was built with (advisory — the coordinator validates the
    /// decoded payloads, not the greeting).
    Hello {
        /// The shipping site's index in `0..sites`.
        site_id: u64,
        /// How many sites the agent believes the deployment has.
        sites: u64,
        /// Sketch depth `t` at the site.
        rows: u64,
        /// Buckets per row `b` at the site.
        buckets: u64,
        /// Hash-function seed at the site.
        seed: u64,
    },
    /// The site's sketch as complete `CSNP` snapshot bytes.
    Snapshot(Vec<u8>),
    /// The rest of the site report: local stream length plus the
    /// candidate keys as complete `CSTR` stream bytes.
    Report {
        /// Occurrences the site's sketch covers.
        local_n: u64,
        /// Candidate keys, `CSTR`-encoded.
        candidates: Vec<u8>,
    },
    /// Coordinator's verdict on a delivered report.
    Ack {
        /// `true` if the report was accepted into the merge; `false` if
        /// the coordinator recorded a permanent exclusion (retrying will
        /// not help — first delivery wins).
        accepted: bool,
    },
    /// Coordinator-side failure the agent should treat as a failed
    /// attempt (frame corruption, protocol violation).
    Nack {
        /// Human-readable reason, for logs.
        reason: String,
    },
    /// Polite close after the final ACK.
    Bye,
}

impl Frame {
    fn type_code(&self) -> u32 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::Snapshot(_) => TYPE_SNAPSHOT,
            Frame::Report { .. } => TYPE_REPORT,
            Frame::Ack { .. } => TYPE_ACK,
            Frame::Nack { .. } => TYPE_NACK,
            Frame::Bye => TYPE_BYE,
        }
    }

    /// The payload bytes; a SNAPSHOT or NACK payload is borrowed, not
    /// copied.
    fn payload(&self) -> Cow<'_, [u8]> {
        match self {
            Frame::Hello {
                site_id,
                sites,
                rows,
                buckets,
                seed,
            } => {
                let mut p = Vec::with_capacity(40);
                for v in [site_id, sites, rows, buckets, seed] {
                    p.extend_from_slice(&v.to_le_bytes());
                }
                Cow::Owned(p)
            }
            Frame::Snapshot(bytes) => Cow::Borrowed(bytes),
            Frame::Report {
                local_n,
                candidates,
            } => {
                let mut p = Vec::with_capacity(8 + candidates.len());
                p.extend_from_slice(&local_n.to_le_bytes());
                p.extend_from_slice(candidates);
                Cow::Owned(p)
            }
            Frame::Ack { accepted } => Cow::Owned(u32::from(!*accepted).to_le_bytes().to_vec()),
            Frame::Nack { reason } => Cow::Borrowed(reason.as_bytes()),
            Frame::Bye => Cow::Borrowed(&[]),
        }
    }

    /// Builds a frame from its type code and payload; a SNAPSHOT keeps
    /// the payload buffer itself.
    fn from_parts(code: u32, mut payload: Vec<u8>) -> Result<Self, NetError> {
        let exact = |want: usize| {
            if payload.len() == want {
                Ok(())
            } else {
                Err(NetError::BadPayload(format!(
                    "frame type {code} payload is {} bytes, expected {want}",
                    payload.len()
                )))
            }
        };
        match code {
            TYPE_HELLO => {
                exact(40)?;
                let u = |i: usize| {
                    u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
                };
                Ok(Frame::Hello {
                    site_id: u(0),
                    sites: u(1),
                    rows: u(2),
                    buckets: u(3),
                    seed: u(4),
                })
            }
            TYPE_SNAPSHOT => Ok(Frame::Snapshot(payload)),
            TYPE_REPORT => {
                if payload.len() < 8 {
                    return Err(NetError::BadPayload(format!(
                        "REPORT payload is {} bytes, need at least 8",
                        payload.len()
                    )));
                }
                let local_n = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                payload.drain(..8);
                Ok(Frame::Report {
                    local_n,
                    candidates: payload,
                })
            }
            TYPE_ACK => {
                exact(4)?;
                match u32::from_le_bytes(payload[..].try_into().expect("4 bytes")) {
                    0 => Ok(Frame::Ack { accepted: true }),
                    1 => Ok(Frame::Ack { accepted: false }),
                    other => Err(NetError::BadPayload(format!("unknown ACK status {other}"))),
                }
            }
            TYPE_NACK => match String::from_utf8(payload) {
                Ok(reason) => Ok(Frame::Nack { reason }),
                Err(e) => Err(NetError::BadPayload(format!("NACK reason not UTF-8: {e}"))),
            },
            TYPE_BYE => {
                exact(0)?;
                Ok(Frame::Bye)
            }
            other => Err(NetError::BadFrameType(other)),
        }
    }
}

/// Checks a frame header's magic, version and declared length; returns
/// the type code and the payload length. Nothing is sized from the
/// length before this accepts it.
fn check_header(header: &[u8; HEADER]) -> Result<(u32, usize), NetError> {
    let field = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
    let magic = field(0);
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = field(4);
    if version != VERSION {
        return Err(NetError::BadVersion(version));
    }
    let len = field(12) as usize;
    if len > MAX_PAYLOAD {
        return Err(NetError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((field(8), len))
}

/// Encodes a frame to its complete wire bytes (header, payload, CRC).
///
/// # Panics
///
/// If the payload exceeds [`MAX_PAYLOAD`]; [`try_encode_frame`] returns
/// [`NetError::Oversized`] instead.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    try_encode_frame(frame).expect("frame payload exceeds MAX_PAYLOAD")
}

/// Encodes a frame to its complete wire bytes (header, payload, CRC), or
/// [`NetError::Oversized`] if the payload exceeds [`MAX_PAYLOAD`].
pub fn try_encode_frame(frame: &Frame) -> Result<Vec<u8>, NetError> {
    let payload = frame.payload();
    if payload.len() > MAX_PAYLOAD {
        return Err(NetError::Oversized {
            len: payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    let mut buf = Vec::with_capacity(HEADER + payload.len() + 4);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&frame.type_code().to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Decodes one frame from the front of `bytes`; returns the frame and
/// how many bytes it consumed.
///
/// Total: every input yields either a frame or a typed [`NetError`] —
/// truncation at any point is [`NetError::Truncated`], any single-bit
/// corruption of a well-formed frame fails the magic/version/length
/// checks or the CRC. No length field is trusted before it is checked
/// against [`MAX_PAYLOAD`] and the bytes actually present.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Truncated {
            needed: HEADER,
            available: bytes.len(),
        });
    }
    let (code, len) = check_header(bytes[..HEADER].try_into().expect("HEADER bytes"))?;
    let total = HEADER + len + 4;
    if bytes.len() < total {
        return Err(NetError::Truncated {
            needed: total,
            available: bytes.len(),
        });
    }
    let stored = u32::from_le_bytes(bytes[total - 4..total].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..total - 4]);
    if stored != computed {
        return Err(NetError::ChecksumMismatch { stored, computed });
    }
    let frame = Frame::from_parts(code, bytes[HEADER..HEADER + len].to_vec())?;
    Ok((frame, total))
}

/// Writes one frame to a (socket) writer; a payload over
/// [`MAX_PAYLOAD`] is [`NetError::Oversized`] and writes nothing.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    write_encoded(w, &try_encode_frame(frame)?)
}

/// Writes the wire bytes of one frame, as [`try_encode_frame`] made
/// them, in a single `write_all` — so a link fault that acts once per
/// write call acts once per frame.
pub fn write_encoded(w: &mut impl Write, bytes: &[u8]) -> Result<(), NetError> {
    w.write_all(bytes).map_err(NetError::from_io)?;
    w.flush().map_err(NetError::from_io)
}

/// Reads one complete frame from a (socket) reader.
///
/// A clean end-of-stream *at a frame boundary* is [`NetError::Closed`];
/// mid-frame EOF, timeouts and OS errors are [`NetError::Io`]. The
/// header is validated before the payload buffer is allocated, so a
/// corrupt length cannot drive a huge allocation. The CRC runs over the
/// header and the payload where they were received, and a SNAPSHOT
/// payload is moved into the frame, not copied: one buffer per frame.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    let mut header = [0u8; HEADER];
    let mut got = 0;
    while got < HEADER {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(NetError::Closed),
            Ok(0) => {
                return Err(NetError::Truncated {
                    needed: HEADER,
                    available: got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::from_io(e)),
        }
    }
    let (code, len) = check_header(&header)?;
    let mut rest = vec![0u8; len + 4];
    r.read_exact(&mut rest).map_err(NetError::from_io)?;
    let stored = u32::from_le_bytes(rest[len..].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(&rest[..len]);
    let computed = crc.finalize();
    if stored != computed {
        return Err(NetError::ChecksumMismatch { stored, computed });
    }
    rest.truncate(len);
    Frame::from_parts(code, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                site_id: 2,
                sites: 5,
                rows: 5,
                buckets: 512,
                seed: 99,
            },
            Frame::Snapshot(vec![1, 2, 3, 4, 5, 6, 7]),
            Frame::Snapshot(Vec::new()),
            Frame::Report {
                local_n: 123_456,
                candidates: vec![0xAA; 33],
            },
            Frame::Ack { accepted: true },
            Frame::Ack { accepted: false },
            Frame::Nack {
                reason: "checksum mismatch".into(),
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let (back, used) = decode_frame(&bytes).unwrap();
            assert_eq!(back, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn stream_io_roundtrips_a_conversation() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            write_frame(&mut wire, &frame).unwrap();
        }
        let mut r = wire.as_slice();
        for frame in sample_frames() {
            assert_eq!(read_frame(&mut r).unwrap(), frame);
        }
        assert!(matches!(read_frame(&mut r), Err(NetError::Closed)));
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        for frame in sample_frames() {
            let clean = encode_frame(&frame);
            for cut in 0..clean.len() {
                match decode_frame(&clean[..cut]) {
                    Err(NetError::Truncated { .. }) => {}
                    other => panic!("truncation to {cut} bytes: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        // Flip every bit of every byte of a representative frame: the
        // decoder must reject each mutation with a typed error. (Length
        // corruptions that claim *more* bytes than present surface as
        // Truncated; everything else as a header check or CRC mismatch.)
        let clean = encode_frame(&Frame::Report {
            local_n: 42,
            candidates: vec![7; 24],
        });
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&corrupt).is_err(),
                    "flip at {byte}:{bit} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn stream_reader_rejects_the_same_corruptions() {
        let clean = encode_frame(&Frame::Snapshot(vec![9; 16]));
        for byte in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[byte] ^= 0x10;
            assert!(
                read_frame(&mut corrupt.as_slice()).is_err(),
                "flip at byte {byte} read successfully"
            );
        }
    }

    #[test]
    fn forged_length_never_allocates() {
        // Claim a 3 GiB payload: rejected from the length check alone.
        let mut bytes = encode_frame(&Frame::Bye);
        bytes[12..16].copy_from_slice(&(3u32 << 30).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(NetError::Oversized { .. })
        ));
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(NetError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_payload_is_a_typed_error_and_writes_nothing() {
        // Zeroed pages: the length check fires before any byte is read.
        let frame = Frame::Snapshot(vec![0; MAX_PAYLOAD + 1]);
        let mut wire = Vec::new();
        assert_eq!(
            write_frame(&mut wire, &frame),
            Err(NetError::Oversized {
                len: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD
            })
        );
        assert!(wire.is_empty());
    }

    /// Both decoders' verdict on `bytes`: the slice decoder's error must
    /// be the stream reader's.
    fn both_reject(bytes: &[u8]) -> NetError {
        let sliced = decode_frame(bytes).unwrap_err();
        assert_eq!(read_frame(&mut &bytes[..]).unwrap_err(), sliced);
        sliced
    }

    #[test]
    fn alien_magic_and_version_are_typed() {
        let mut bytes = encode_frame(&Frame::Bye);
        bytes[0] = b'X';
        assert!(matches!(both_reject(&bytes), NetError::BadMagic(_)));
        let mut bytes = encode_frame(&Frame::Bye);
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        // Version check runs before the CRC, so a future-versioned frame
        // is reported as such rather than as generic corruption.
        assert_eq!(both_reject(&bytes), NetError::BadVersion(9));
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        // Re-seal the CRC so the type check is what fires.
        let mut bytes = encode_frame(&Frame::Bye);
        bytes[8..12].copy_from_slice(&77u32.to_le_bytes());
        let n = bytes.len();
        let crc = cs_hash::crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(both_reject(&bytes), NetError::BadFrameType(77));
    }

    proptest! {
        #[test]
        fn prop_payloads_roundtrip(
            snapshot in prop::collection::vec(any::<u8>(), 0..512),
            candidates in prop::collection::vec(any::<u8>(), 0..256),
            local_n in any::<u64>(),
        ) {
            for frame in [
                Frame::Snapshot(snapshot.clone()),
                Frame::Report { local_n, candidates: candidates.clone() },
            ] {
                let bytes = encode_frame(&frame);
                let (back, used) = decode_frame(&bytes).unwrap();
                prop_assert_eq!(back, frame);
                prop_assert_eq!(used, bytes.len());
            }
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..128),
        ) {
            let _ = decode_frame(&bytes);
            let _ = read_frame(&mut bytes.as_slice());
        }

        #[test]
        fn prop_single_bit_flips_never_decode(
            payload in prop::collection::vec(any::<u8>(), 0..64),
            byte_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let clean = encode_frame(&Frame::Snapshot(payload));
            let byte = ((clean.len() as f64) * byte_frac) as usize % clean.len();
            let mut corrupt = clean.clone();
            corrupt[byte] ^= 1 << bit;
            prop_assert!(decode_frame(&corrupt).is_err());
        }
    }
}
