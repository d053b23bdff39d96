//! The coordinator server: a threaded accept loop that drives the
//! [`QuorumCoordinator`] off real sockets.
//!
//! Each accepted connection is handled on its own thread and walks the
//! shipping conversation (`HELLO → SNAPSHOT → REPORT → ACK/NACK`),
//! feeding the coordinator's `deliver_*` methods under a mutex. The
//! accept loop itself is non-blocking and polls every few milliseconds.
//! It exits when every site is resolved (accepted or excluded) or
//! `deadline_ms` of wall clock has passed, then finalizes; a site that
//! is still pending then is excluded as a straggler.
//!
//! Every socket carries explicit read/write timeouts; a wedged or
//! half-dead client can stall one handler thread for at most
//! `timeout_ms` before the failure is recorded and the slot retried.

use crate::frame::{read_frame, write_frame, Frame};
use crate::NetError;
use cs_core::distributed::{
    DistributedSketch, ExclusionReason, QuorumCoordinator, QuorumOutcome, RetryPolicy,
};
use cs_core::{CoreError, CountSketch, SketchParams};
use cs_stream::io as stream_io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the accept loop sleeps when no connection is waiting.
const POLL: Duration = Duration::from_millis(5);

/// Configuration for a coordinator server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of site agents expected to report.
    pub sites: usize,
    /// Minimum validated reports for a usable merge.
    pub quorum: usize,
    /// Sketch geometry every site must match.
    pub params: SketchParams,
    /// Hash seed every site must match.
    pub seed: u64,
    /// Failed attempts after which a site is excluded as a straggler.
    pub max_attempts: u32,
    /// Milliseconds after which collection stops and the sites still
    /// pending are excluded as stragglers.
    pub deadline_ms: u64,
    /// Per-connection read/write timeout in milliseconds.
    pub timeout_ms: u64,
}

impl ServeConfig {
    /// A config with a 10 s deadline, 5 s per-connection timeouts and
    /// the default [`RetryPolicy`]'s attempt budget.
    pub fn new(sites: usize, quorum: usize, params: SketchParams, seed: u64) -> Self {
        Self {
            sites,
            quorum,
            params,
            seed,
            max_attempts: RetryPolicy::default().max_attempts,
            deadline_ms: 10_000,
            timeout_ms: 5_000,
        }
    }
}

/// A bound coordinator server, ready to [`run`](CoordinatorServer::run).
#[derive(Debug)]
pub struct CoordinatorServer {
    listener: TcpListener,
    coordinator: Arc<Mutex<QuorumCoordinator>>,
    config: ServeConfig,
}

impl CoordinatorServer {
    /// Binds the listening socket and validates the quorum config.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> Result<Self, NetError> {
        let coordinator = QuorumCoordinator::new(
            config.sites,
            config.quorum,
            config.params,
            config.seed,
            RetryPolicy {
                max_attempts: config.max_attempts,
                ..RetryPolicy::default()
            },
        )
        .map_err(|e| NetError::Config(e.to_string()))?;
        let listener = TcpListener::bind(addr).map_err(NetError::from_io)?;
        listener.set_nonblocking(true).map_err(NetError::from_io)?;
        Ok(Self {
            listener,
            coordinator: Arc::new(Mutex::new(coordinator)),
            config,
        })
    }

    /// The bound address — use with `"127.0.0.1:0"` binds to learn the
    /// kernel-assigned port.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        self.listener.local_addr().map_err(NetError::from_io)
    }

    /// Runs the accept loop until every site resolves or the deadline
    /// passes, then finalizes the quorum merge.
    pub fn run(self) -> Result<QuorumOutcome, NetError> {
        let started = Instant::now();
        let deadline = Duration::from_millis(self.config.deadline_ms);
        let mut handlers = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((sock, _peer)) => {
                    let coordinator = Arc::clone(&self.coordinator);
                    let config = self.config.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(sock, &coordinator, &config);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::from_io(e)),
            }
            let resolved = self
                .coordinator
                .lock()
                .expect("coordinator lock")
                .is_resolved();
            if resolved || started.elapsed() >= deadline {
                break;
            }
        }
        // Stop accepting, then drain handlers; each is bounded by the
        // per-connection timeout so this join cannot hang.
        drop(self.listener);
        for h in handlers {
            let _ = h.join();
        }
        // Every handler has been joined, so this is the last reference:
        // take the coordinator rather than clone every accepted sketch.
        let coordinator = Arc::try_unwrap(self.coordinator)
            .expect("every handler thread has been joined")
            .into_inner()
            .expect("coordinator lock");
        coordinator.finalize().map_err(|e| match e {
            CoreError::QuorumNotMet {
                validated,
                required,
            } => NetError::QuorumNotMet {
                validated,
                required,
            },
            other => NetError::Config(other.to_string()),
        })
    }
}

/// Walks one connection through the shipping conversation.
///
/// Session failures after HELLO identify the site, so the failure is
/// recorded via `deliver_failed` (feeding the straggler/backoff
/// machinery) and a best-effort NACK tells the agent why.
fn handle_connection(
    sock: TcpStream,
    coordinator: &Mutex<QuorumCoordinator>,
    config: &ServeConfig,
) {
    let timeout = Duration::from_millis(config.timeout_ms.max(1));
    if sock.set_read_timeout(Some(timeout)).is_err()
        || sock.set_write_timeout(Some(timeout)).is_err()
    {
        return;
    }
    sock.set_nodelay(true).ok();
    let mut conn = sock;
    let site = match read_frame(&mut conn) {
        Ok(Frame::Hello { site_id, sites, .. }) => {
            if sites as usize != config.sites || site_id as usize >= config.sites {
                let _ = write_frame(
                    &mut conn,
                    &Frame::Nack {
                        reason: format!(
                            "bad topology: site {site_id} of {sites}, expected {} site(s)",
                            config.sites
                        ),
                    },
                );
                return;
            }
            site_id as usize
        }
        // Anything else (garbage, torn frame, EOF) before HELLO: the
        // site is unidentified, so there is no slot to fail.
        _ => return,
    };
    match session(&mut conn, site, coordinator) {
        Ok(accepted) => {
            let _ = write_frame(&mut conn, &Frame::Ack { accepted });
            // Tolerant read of the closing BYE (or EOF).
            let _ = read_frame(&mut conn);
        }
        Err(err) => {
            let _ = write_frame(
                &mut conn,
                &Frame::Nack {
                    reason: err.to_string(),
                },
            );
            let mut coord = coordinator.lock().expect("coordinator lock");
            let _ = coord.deliver_failed(site);
        }
    }
}

/// Reads SNAPSHOT + REPORT and delivers them; returns whether the site
/// ended up accepted.
fn session(
    conn: &mut TcpStream,
    site: usize,
    coordinator: &Mutex<QuorumCoordinator>,
) -> Result<bool, NetError> {
    let snapshot = match read_frame(conn)? {
        Frame::Snapshot(bytes) => bytes,
        other => {
            return Err(NetError::Protocol(format!(
                "expected SNAPSHOT, got {other:?}"
            )))
        }
    };
    let (local_n, candidate_bytes) = match read_frame(conn)? {
        Frame::Report {
            local_n,
            candidates,
        } => (local_n, candidates),
        other => {
            return Err(NetError::Protocol(format!(
                "expected REPORT, got {other:?}"
            )))
        }
    };
    let candidates = stream_io::decode(&candidate_bytes)
        .map_err(|e| NetError::BadPayload(format!("candidate stream: {e}")))?
        .as_slice()
        .to_vec();
    // Verify and decode before taking the lock, so concurrent sessions
    // decode in parallel; the coordinator only records the verdict.
    let decoded = CountSketch::from_snapshot_bytes(&snapshot);
    drop(snapshot);
    let mut coord = coordinator.lock().expect("coordinator lock");
    coord
        .deliver_decoded(site, decoded, candidates, local_n)
        .map_err(|e| NetError::Protocol(e.to_string()))?;
    Ok(coord.is_accepted(site))
}

/// Renders a merged outcome as the canonical top-k report text.
///
/// This is the byte-identity surface between the wire path and the
/// in-process [`DistributedSketch::coordinate`] path: both render
/// through this function, so `fi serve` output over loopback must equal
/// `fi coordinate` output over the same site files. Exclusions appear
/// as leading `# excluded` comment lines (absent in clean runs).
pub fn render_report(
    sketch: &DistributedSketch,
    k: usize,
    excluded: &[(usize, ExclusionReason)],
) -> String {
    let mut out = format!(
        "# top-{k} of {} occurrences across {} site(s)\n",
        sketch.total_n(),
        sketch.sites()
    );
    for (site, reason) in excluded {
        out.push_str(&format!("# excluded site {site}: {reason}\n"));
    }
    for (key, est) in sketch.top_k(k) {
        out.push_str(&format!("{est:>10}  key {:#018x}\n", key.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{ShipOutcome, SiteAgent};
    use cs_core::distributed::site_report;
    use cs_stream::{LinkFault, Stream};

    const SEED: u64 = 41;

    fn params() -> SketchParams {
        SketchParams::new(3, 64)
    }

    fn fast_config(sites: usize, quorum: usize) -> ServeConfig {
        let mut config = ServeConfig::new(sites, quorum, params(), SEED);
        config.deadline_ms = 1_000;
        config.timeout_ms = 500;
        config
    }

    fn fast_agent(site_id: usize, sites: usize) -> SiteAgent {
        let mut agent = SiteAgent::new(site_id, sites);
        agent.policy.base_backoff_ms = 1;
        agent.timeout_ms = 500;
        agent
    }

    #[test]
    fn loopback_quorum_matches_in_process_coordinate() {
        let streams: Vec<Stream> = vec![
            Stream::from_ids([1, 1, 1, 2, 2, 3]),
            Stream::from_ids([1, 2, 2, 2, 4]),
            Stream::from_ids([3, 3, 1, 5]),
        ];
        let reports: Vec<_> = streams
            .iter()
            .map(|s| site_report(s, 3, params(), SEED))
            .collect();

        let server = CoordinatorServer::bind("127.0.0.1:0", fast_config(3, 3)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let serve = std::thread::spawn(move || server.run());
        let agents: Vec<_> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let addr = addr.clone();
                let r = r.clone();
                std::thread::spawn(move || fast_agent(i, 3).ship(&addr, &r))
            })
            .collect();
        for a in agents {
            assert_eq!(a.join().unwrap().unwrap(), ShipOutcome::Accepted);
        }
        let outcome = serve.join().unwrap().unwrap();
        assert!(outcome.report.is_complete());

        let direct = DistributedSketch::coordinate(&reports).unwrap();
        assert_eq!(
            render_report(&outcome.sketch, 3, &outcome.report.excluded),
            render_report(&direct, 3, &[]),
            "wire path must be byte-identical to the in-process merge"
        );
    }

    #[test]
    fn bad_topology_is_nacked_and_never_occupies_a_slot() {
        let server = CoordinatorServer::bind("127.0.0.1:0", fast_config(2, 1)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let serve = std::thread::spawn(move || server.run());

        // An agent claiming a site index outside the topology.
        let report = site_report(&Stream::from_ids([1, 1]), 1, params(), SEED);
        let mut rogue = fast_agent(7, 2);
        rogue.policy.max_attempts = 1;
        assert!(matches!(
            rogue.ship(&addr, &report),
            Err(NetError::Rejected(_))
        ));

        // Legit agents still complete the quorum.
        for i in 0..2 {
            let r = site_report(&Stream::from_ids([10 + i, 10 + i]), 1, params(), SEED);
            assert_eq!(
                fast_agent(i as usize, 2).ship(&addr, &r).unwrap(),
                ShipOutcome::Accepted
            );
        }
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(outcome.report.included, vec![0, 1]);
    }

    #[test]
    fn corrupting_link_ends_in_a_reported_exclusion() {
        let mut config = fast_config(2, 1);
        config.max_attempts = 2;
        let server = CoordinatorServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let serve = std::thread::spawn(move || server.run());

        let good = site_report(&Stream::from_ids([1, 1, 1, 2]), 2, params(), SEED);
        let bad = site_report(&Stream::from_ids([3, 3, 4]), 2, params(), SEED);
        let good_agent = fast_agent(0, 2);
        let mut bad_agent = fast_agent(1, 2);
        // Flip bits from byte 100 on: HELLO (60 bytes on the wire) gets
        // through clean, so the server knows *which* site is corrupting.
        bad_agent.fault = Some(LinkFault::FlipBits { from_byte: 100 });
        bad_agent.policy.max_attempts = 2;

        let addr2 = addr.clone();
        let bad_handle = std::thread::spawn(move || bad_agent.ship(&addr2, &bad));
        assert_eq!(
            good_agent.ship(&addr, &good).unwrap(),
            ShipOutcome::Accepted
        );
        assert!(bad_handle.join().unwrap().is_err());

        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(outcome.report.included, vec![0]);
        assert_eq!(outcome.report.excluded.len(), 1);
        assert_eq!(outcome.report.excluded[0].0, 1);
    }

    #[test]
    fn silent_site_is_excluded_once_the_deadline_passes() {
        let mut config = fast_config(2, 1);
        config.deadline_ms = 300;
        let deadline = Duration::from_millis(config.deadline_ms);
        let server = CoordinatorServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let started = Instant::now();
        let serve = std::thread::spawn(move || server.run());
        // Site 0 meets the quorum at once; site 1 never connects.
        let report = site_report(&Stream::from_ids([1, 1, 2]), 2, params(), SEED);
        assert_eq!(
            fast_agent(0, 2).ship(&addr, &report).unwrap(),
            ShipOutcome::Accepted
        );
        let outcome = serve.join().unwrap().unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed >= deadline, "returned after {elapsed:?}");
        assert!(
            elapsed < deadline + Duration::from_secs(5),
            "returned after {elapsed:?}"
        );
        assert_eq!(outcome.report.included, vec![0]);
        assert_eq!(
            outcome.report.excluded,
            vec![(1, ExclusionReason::Straggler { attempts: 0 })]
        );
    }

    #[test]
    fn quorum_not_met_is_a_typed_error() {
        let mut config = fast_config(2, 2);
        config.deadline_ms = 10;
        let server = CoordinatorServer::bind("127.0.0.1:0", config).unwrap();
        // No agents ever ship: deadline passes, both sites straggle.
        assert!(matches!(
            server.run(),
            Err(NetError::QuorumNotMet {
                validated: 0,
                required: 2
            })
        ));
    }

    #[test]
    fn invalid_quorum_config_fails_at_bind() {
        assert!(matches!(
            CoordinatorServer::bind("127.0.0.1:0", fast_config(2, 3)),
            Err(NetError::Config(_))
        ));
    }
}
