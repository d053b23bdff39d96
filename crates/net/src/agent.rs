//! The shipping side: a site agent that delivers its report to the
//! coordinator over TCP, with [`RetryPolicy`]-driven reconnect/backoff.
//!
//! One delivery attempt is the fixed conversation
//! `HELLO → SNAPSHOT → REPORT → (ACK | NACK) → BYE`. Any connect,
//! write, read or NACK failure is one *failed attempt*; the agent then
//! sleeps the policy's backoff in milliseconds and reconnects from
//! scratch, until the policy's attempt budget runs out — the same
//! `max_attempts` the coordinator uses to decide when a site becomes a
//! straggler, wired to real socket failures.
//!
//! Every socket operation carries an explicit timeout: connect via
//! [`TcpStream::connect_timeout`], reads and writes via per-socket
//! deadlines. Nothing blocks unboundedly.

use crate::conn::FaultyConn;
use crate::frame::{read_frame, try_encode_frame, write_encoded, write_frame, Frame};
use crate::NetError;
use cs_core::distributed::{RetryPolicy, SiteReport};
use cs_stream::{io as stream_io, LinkFault, Stream};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How a shipped report was received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipOutcome {
    /// The coordinator validated and merged the report.
    Accepted,
    /// The coordinator received the report but recorded a permanent
    /// exclusion (incompatible configuration, a merge that would
    /// overflow a counter, or another delivery for this site already
    /// won). Retrying cannot change this.
    Excluded,
}

/// A site-side shipping agent.
#[derive(Debug, Clone)]
pub struct SiteAgent {
    /// This site's index in `0..sites`.
    pub site_id: usize,
    /// Total sites in the deployment (echoed in HELLO; the coordinator
    /// rejects a mismatched topology before reading payloads).
    pub sites: usize,
    /// Retry schedule for failed delivery attempts.
    pub policy: RetryPolicy,
    /// Per-socket connect/read/write timeout in milliseconds.
    pub timeout_ms: u64,
    /// Optional link-fault policy: when set, every connection is wrapped
    /// in a [`FaultyConn`] so tests drive the real transport through a
    /// misbehaving link.
    pub fault: Option<LinkFault>,
    /// Seed for the fault injector's deterministic choices.
    pub fault_seed: u64,
}

impl SiteAgent {
    /// An agent with the default retry policy (3 attempts, backoffs of
    /// 50 and 100 ms) and 5 s socket timeouts.
    pub fn new(site_id: usize, sites: usize) -> Self {
        Self {
            site_id,
            sites,
            policy: RetryPolicy::default(),
            timeout_ms: 5_000,
            fault: None,
            fault_seed: 1,
        }
    }

    /// Ships `report` to the coordinator at `addr`, retrying per the
    /// agent's [`RetryPolicy`]. Returns how the final successful
    /// delivery was received, or the last attempt's error once the
    /// budget is exhausted. The SNAPSHOT frame is encoded once, before
    /// the first attempt; a sketch too large for one frame is
    /// [`NetError::Oversized`] without any attempt.
    pub fn ship(&self, addr: &str, report: &SiteReport) -> Result<ShipOutcome, NetError> {
        let snapshot = try_encode_frame(&Frame::Snapshot(report.sketch.to_snapshot_bytes()))?;
        let mut attempt: u32 = 0;
        loop {
            match self.try_ship(addr, report, &snapshot) {
                Ok(outcome) => return Ok(outcome),
                Err(err) => match self.policy.backoff_ms(attempt) {
                    Some(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                        attempt += 1;
                    }
                    None => return Err(err),
                },
            }
        }
    }

    /// One delivery attempt over one fresh connection; `snapshot` is the
    /// encoded SNAPSHOT frame.
    fn try_ship(
        &self,
        addr: &str,
        report: &SiteReport,
        snapshot: &[u8],
    ) -> Result<ShipOutcome, NetError> {
        let timeout = Duration::from_millis(self.timeout_ms.max(1));
        let sock_addr = resolve(addr)?;
        let sock = TcpStream::connect_timeout(&sock_addr, timeout).map_err(NetError::from_io)?;
        sock.set_read_timeout(Some(timeout))
            .map_err(NetError::from_io)?;
        sock.set_write_timeout(Some(timeout))
            .map_err(NetError::from_io)?;
        sock.set_nodelay(true).ok();
        match self.fault {
            Some(fault) => {
                let mut conn = FaultyConn::new(sock, fault, self.fault_seed);
                self.converse(&mut conn, report, snapshot)
            }
            None => {
                let mut conn = sock;
                self.converse(&mut conn, report, snapshot)
            }
        }
    }

    /// Runs the shipping conversation over an established connection.
    fn converse<C: Read + Write>(
        &self,
        conn: &mut C,
        report: &SiteReport,
        snapshot: &[u8],
    ) -> Result<ShipOutcome, NetError> {
        write_frame(
            conn,
            &Frame::Hello {
                site_id: self.site_id as u64,
                sites: self.sites as u64,
                rows: report.sketch.rows() as u64,
                buckets: report.sketch.buckets() as u64,
                seed: report.sketch.seed(),
            },
        )?;
        write_encoded(conn, snapshot)?;
        let candidates = stream_io::encode(&Stream::from_keys(report.candidates.clone()));
        write_frame(
            conn,
            &Frame::Report {
                local_n: report.local_n,
                candidates,
            },
        )?;
        match read_frame(conn)? {
            Frame::Ack { accepted } => {
                // Best-effort polite close; the verdict already landed.
                let _ = write_frame(conn, &Frame::Bye);
                Ok(if accepted {
                    ShipOutcome::Accepted
                } else {
                    ShipOutcome::Excluded
                })
            }
            Frame::Nack { reason } => Err(NetError::Rejected(reason)),
            other => Err(NetError::Protocol(format!(
                "expected ACK or NACK, got {other:?}"
            ))),
        }
    }
}

/// Resolves `addr` to a socket address (required by `connect_timeout`).
fn resolve(addr: &str) -> Result<SocketAddr, NetError> {
    addr.to_socket_addrs()
        .map_err(NetError::from_io)?
        .next()
        .ok_or_else(|| NetError::Io(format!("{addr}: no usable address")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_core::distributed::site_report;
    use cs_core::SketchParams;
    use std::net::TcpListener;

    fn report() -> SiteReport {
        site_report(&Stream::from_ids([1, 1, 2]), 2, SketchParams::new(3, 64), 7)
    }

    #[test]
    fn unreachable_coordinator_exhausts_the_retry_budget() {
        // Bind-then-drop reserves a port with nothing listening.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut agent = SiteAgent::new(0, 1);
        agent.policy.base_backoff_ms = 1;
        agent.timeout_ms = 200;
        let t0 = std::time::Instant::now();
        let err = agent.ship(&format!("127.0.0.1:{port}"), &report());
        assert!(err.is_err(), "{err:?}");
        // 3 attempts with backoffs of 1 and 2 ms.
        assert!(
            t0.elapsed() >= Duration::from_millis(3),
            "backoff must actually sleep"
        );
    }

    #[test]
    fn unresolvable_address_is_a_typed_error() {
        let agent = SiteAgent::new(0, 1);
        assert!(matches!(
            agent.ship("not-an-address", &report()),
            Err(NetError::Io(_))
        ));
    }
}
