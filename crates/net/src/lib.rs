//! Wire transport for distributed sketch shipping.
//!
//! Count-Sketch's additivity (paper §3.2) makes the distributed story
//! cheap: each site ships `O(b·t)` counters plus its candidate list,
//! and the coordinator merges by addition. This crate gives that story
//! a real transport:
//!
//! * **CSWP v1** ([`frame`]) — a length-prefixed, CRC-guarded frame
//!   protocol carrying the existing CSNP snapshot and CSTR candidate
//!   payloads. Truncation and corruption are detected at the frame
//!   layer, before any payload decoding.
//! * **Site agents** ([`agent`]) — [`SiteAgent::ship`] delivers a
//!   [`SiteReport`](cs_core::distributed::SiteReport) over TCP with
//!   [`RetryPolicy`](cs_core::distributed::RetryPolicy)-driven
//!   reconnect/backoff wired to real connect/write failures.
//! * **Coordinator server** ([`server`]) — a threaded accept loop
//!   driving [`QuorumCoordinator`](cs_core::distributed::QuorumCoordinator)
//!   off real sockets until every site is resolved or a deadline in
//!   milliseconds passes.
//! * **Fault-injected links** ([`conn`]) — [`FaultyConn`] wraps any
//!   connection with a [`LinkFault`](cs_stream::LinkFault) policy
//!   (cut, bit-flip, stall) so robustness tests exercise the real
//!   transport path.
//!
//! Std-only: `std::net` + `std::thread`, explicit timeouts everywhere,
//! no unbounded blocking, no external dependencies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod conn;
pub mod frame;
pub mod server;

pub use agent::{ShipOutcome, SiteAgent};
pub use conn::FaultyConn;
pub use frame::{
    decode_frame, encode_frame, read_frame, try_encode_frame, write_encoded, write_frame, Frame,
};
pub use server::{render_report, CoordinatorServer, ServeConfig};

/// Errors from the wire transport.
///
/// Frame-level decode failures are fully typed so tests can assert the
/// *kind* of rejection (truncation vs corruption vs protocol abuse) —
/// a damaged frame must never panic or silently yield a wrong sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Fewer bytes than a complete frame requires.
    Truncated {
        /// Bytes the frame (or header) needs.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The leading magic was not `CSWP`.
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u32),
    /// Unknown frame type code.
    BadFrameType(u32),
    /// Declared payload length exceeds the protocol ceiling.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// Maximum the protocol accepts.
        max: usize,
    },
    /// Frame CRC-32 mismatch: bytes were corrupted in transit.
    ChecksumMismatch {
        /// CRC stored in the frame trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Frame type and CRC were fine but the payload is malformed.
    BadPayload(String),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A socket operation failed (connect, read, write, timeout).
    Io(String),
    /// The peer violated the conversation protocol.
    Protocol(String),
    /// The coordinator refused the delivery with a NACK.
    Rejected(String),
    /// Collection finished below the configured quorum.
    QuorumNotMet {
        /// Sites that validated and were merged.
        validated: usize,
        /// Sites required by the configured quorum.
        required: usize,
    },
    /// Invalid server or agent configuration.
    Config(String),
}

impl NetError {
    /// Wraps an I/O error, preserving its rendered message.
    pub fn from_io(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated { needed, available } => {
                write!(f, "truncated frame: need {needed} bytes, have {available}")
            }
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            NetError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            NetError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte ceiling")
            }
            NetError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            NetError::BadPayload(msg) => write!(f, "bad frame payload: {msg}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Io(msg) => write!(f, "i/o error: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Rejected(reason) => write!(f, "coordinator rejected delivery: {reason}"),
            NetError::QuorumNotMet {
                validated,
                required,
            } => write!(
                f,
                "quorum not met: {validated} site(s) validated, {required} required"
            ),
            NetError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_diagnostics() {
        let cases: Vec<(NetError, &str)> = vec![
            (
                NetError::Truncated {
                    needed: 16,
                    available: 3,
                },
                "16",
            ),
            (NetError::BadMagic(0xdead_beef), "0xdeadbeef"),
            (NetError::BadVersion(9), "9"),
            (NetError::BadFrameType(77), "77"),
            (NetError::Oversized { len: 100, max: 64 }, "ceiling"),
            (
                NetError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (NetError::BadPayload("short".into()), "short"),
            (NetError::Closed, "closed"),
            (NetError::Io("refused".into()), "refused"),
            (NetError::Protocol("bad order".into()), "bad order"),
            (NetError::Rejected("topology".into()), "topology"),
            (
                NetError::QuorumNotMet {
                    validated: 1,
                    required: 3,
                },
                "quorum",
            ),
            (NetError::Config("quorum > sites".into()), "quorum > sites"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn from_io_preserves_the_message() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "nope");
        assert!(matches!(NetError::from_io(io), NetError::Io(m) if m.contains("nope")));
    }
}
