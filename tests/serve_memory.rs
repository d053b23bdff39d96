//! The coordinator's memory does not grow with the number of sites.
//!
//! `QuorumCoordinator` adds each accepted site into one running sketch
//! at delivery and keeps only the site's candidates and count, so
//! collecting from many sites costs the sum plus the one snapshot being
//! decoded, not one sketch per site. This is its own test binary so no
//! other test shares the process whose peak it reads.
#![cfg(target_os = "linux")]

use frequent_items::prelude::*;

/// Sites delivered; a coordinator that kept every site's sketch would
/// grow by about this many sketches.
const SITES: usize = 24;

/// This process's peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("a VmHWM line in kB");
    kib * 1024
}

#[test]
fn coordinator_peak_does_not_grow_with_sites() {
    // The benchmark geometry: one sketch is 7 × 65536 i64 counters.
    let params = SketchParams::new(7, 65_536);
    let sketch_bytes = (params.rows * params.buckets * std::mem::size_of::<i64>()) as u64;
    let local_n = 50_000u64;
    let snapshot = {
        let mut site = CountSketch::new(params, 1);
        site.absorb(&Stream::from_ids(0..local_n), 1);
        site.to_snapshot_bytes()
    };
    let mut coordinator =
        QuorumCoordinator::new(SITES, SITES, params, 1, RetryPolicy::default()).unwrap();

    let before = peak_rss_bytes();
    for site in 0..SITES {
        coordinator
            .deliver_snapshot(site, &snapshot, vec![ItemKey(site as u64)], local_n)
            .unwrap();
    }
    let outcome = coordinator.finalize().unwrap();
    let grown = peak_rss_bytes().saturating_sub(before);

    assert!(outcome.report.is_complete());
    assert_eq!(outcome.sketch.total_n(), SITES as u64 * local_n);
    assert!(
        grown < 4 * sketch_bytes,
        "peak grew by {grown} bytes over {SITES} sites; one sketch is {sketch_bytes} bytes"
    );
}
