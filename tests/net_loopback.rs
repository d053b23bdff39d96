//! Multi-threaded loopback tests for the cs-net wire transport.
//!
//! The contract under test (ISSUE 5): a quorum collected over real TCP
//! sockets must be **byte-identical** to the in-process
//! [`DistributedSketch::coordinate`] merge over the same site reports —
//! including when one site dies mid-ship and another sits behind a
//! corrupting link, in which case the exclusions are *reported*, never
//! silently folded into wrong estimates.

use frequent_items::prelude::*;

const SEED: u64 = 77;

fn params() -> SketchParams {
    SketchParams::new(5, 256)
}

/// Per-site streams with overlapping heavy hitters.
fn site_streams(sites: usize) -> Vec<Stream> {
    (0..sites)
        .map(|i| {
            let mut ids = Vec::new();
            // A global star every site sees, site-local mid items, noise.
            ids.extend(std::iter::repeat_n(1u64, 300 + 10 * i));
            ids.extend(std::iter::repeat_n(100 + i as u64, 120));
            ids.extend((0..200u64).map(|j| 1000 + (j * (i as u64 + 3)) % 150));
            Stream::from_ids(ids)
        })
        .collect()
}

fn reports(streams: &[Stream], k: usize) -> Vec<SiteReport> {
    streams
        .iter()
        .map(|s| site_report(s, k, params(), SEED))
        .collect()
}

fn fast_config(sites: usize, quorum: usize) -> ServeConfig {
    let mut config = ServeConfig::new(sites, quorum, params(), SEED);
    config.deadline_ms = 4_000;
    config.timeout_ms = 400;
    config
}

fn fast_agent(site_id: usize, sites: usize) -> SiteAgent {
    let mut agent = SiteAgent::new(site_id, sites);
    agent.policy.base_backoff_ms = 1;
    agent.timeout_ms = 400;
    agent
}

/// Strips the `# excluded` comment lines a faulted serve run prepends.
fn without_exclusions(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("# excluded"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn clean_quorum_is_byte_identical_to_coordinate() {
    const K: usize = 10;
    let streams = site_streams(3);
    let site_reports = reports(&streams, K);

    let server = CoordinatorServer::bind("127.0.0.1:0", fast_config(3, 3)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let serve = std::thread::spawn(move || server.run());
    let handles: Vec<_> = site_reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let addr = addr.clone();
            let r = r.clone();
            std::thread::spawn(move || fast_agent(i, 3).ship(&addr, &r))
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), ShipOutcome::Accepted);
    }
    let outcome = serve.join().unwrap().unwrap();
    assert!(outcome.report.is_complete());
    assert_eq!(outcome.report.included, vec![0, 1, 2]);

    let direct = DistributedSketch::coordinate(&site_reports).unwrap();
    assert_eq!(outcome.sketch.total_n(), direct.total_n());
    // Every estimate agrees, not just the rendered top-k.
    for id in [1u64, 100, 101, 102, 1000, 1050] {
        assert_eq!(
            outcome.sketch.estimate(ItemKey(id)),
            direct.estimate(ItemKey(id)),
            "id {id}"
        );
    }
    assert_eq!(
        render_report(&outcome.sketch, K, &outcome.report.excluded),
        render_report(&direct, K, &[]),
    );
}

#[test]
fn failed_and_corrupted_sites_are_excluded_not_silent() {
    const K: usize = 8;
    let streams = site_streams(4);
    let site_reports = reports(&streams, K);

    let mut config = fast_config(4, 2);
    config.max_attempts = 2;
    let server = CoordinatorServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let serve = std::thread::spawn(move || server.run());

    let mut handles = Vec::new();
    for (i, r) in site_reports.iter().enumerate() {
        let addr = addr.clone();
        let r = r.clone();
        let mut agent = fast_agent(i, 4);
        agent.policy.max_attempts = 2;
        match i {
            // Site 2: every byte after the clean 60-byte HELLO risks a
            // flip — the frame CRC catches it on the coordinator side.
            2 => agent.fault = Some(LinkFault::FlipBits { from_byte: 100 }),
            // Site 3: the link dies mid-SNAPSHOT, like a killed agent.
            3 => agent.fault = Some(LinkFault::CutAfter { bytes: 64 }),
            _ => {}
        }
        handles.push(std::thread::spawn(move || agent.ship(&addr, &r)));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results[0].as_ref().unwrap(), &ShipOutcome::Accepted);
    assert_eq!(results[1].as_ref().unwrap(), &ShipOutcome::Accepted);
    assert!(
        results[2].is_err(),
        "corrupting site must fail: {results:?}"
    );
    assert!(results[3].is_err(), "cut site must fail: {results:?}");

    let outcome = serve.join().unwrap().unwrap();
    assert_eq!(outcome.report.included, vec![0, 1]);
    let excluded: Vec<usize> = outcome.report.excluded.iter().map(|&(s, _)| s).collect();
    assert_eq!(excluded, vec![2, 3]);
    assert!(!outcome.report.is_complete());
    assert!(outcome.report.error_bound_widening() > 1.0);

    // The merge equals coordinate over exactly the surviving reports,
    // byte-for-byte once the exclusion report lines are stripped.
    let survivors = DistributedSketch::coordinate(&site_reports[..2]).unwrap();
    assert_eq!(outcome.sketch.total_n(), survivors.total_n());
    let wire = render_report(&outcome.sketch, K, &outcome.report.excluded);
    assert!(wire.contains("# excluded site 2:"), "{wire}");
    assert!(wire.contains("# excluded site 3:"), "{wire}");
    assert_eq!(without_exclusions(&wire), render_report(&survivors, K, &[]));
}

#[test]
fn retry_backoff_spends_real_wall_clock() {
    // Nothing listening: connect fails fast, so elapsed time is the
    // backoff schedule itself (20 + 40 ms = 60 ms).
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let report = site_report(&Stream::from_ids([1, 1, 2]), 2, params(), SEED);
    let mut agent = fast_agent(0, 1);
    agent.policy.base_backoff_ms = 20;
    agent.timeout_ms = 100;
    let t0 = std::time::Instant::now();
    assert!(agent.ship(&format!("127.0.0.1:{port}"), &report).is_err());
    assert!(
        t0.elapsed() >= std::time::Duration::from_millis(60),
        "expected two backoff sleeps, got {:?}",
        t0.elapsed()
    );
}

#[test]
fn stalling_site_still_lands_within_its_timeout() {
    let streams = site_streams(2);
    let site_reports = reports(&streams, 5);
    let server = CoordinatorServer::bind("127.0.0.1:0", fast_config(2, 2)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let serve = std::thread::spawn(move || server.run());
    let handles: Vec<_> = site_reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let addr = addr.clone();
            let r = r.clone();
            let mut agent = fast_agent(i, 2);
            if i == 1 {
                // Slow but correct: a stall delays, corrupts nothing.
                agent.fault = Some(LinkFault::StallMs { millis: 5 });
            }
            std::thread::spawn(move || agent.ship(&addr, &r))
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), ShipOutcome::Accepted);
    }
    let outcome = serve.join().unwrap().unwrap();
    assert!(outcome.report.is_complete());
    let direct = DistributedSketch::coordinate(&site_reports).unwrap();
    assert_eq!(
        render_report(&outcome.sketch, 5, &outcome.report.excluded),
        render_report(&direct, 5, &[]),
    );
}
