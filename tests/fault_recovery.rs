//! Crash-recovery and fault-injection matrix.
//!
//! The durability contract under test:
//!
//! 1. **Resume is bit-identical.** Snapshotting mid-stream and resuming
//!    from the snapshot produces exactly the bytes an uninterrupted run
//!    produces — counters, saturation flags, tracker state, everything.
//! 2. **Every injected fault is survivable.** Truncation, bit flips,
//!    duplication, reordering, stragglers and drops — each either leaves
//!    the payload intact (delivery faults) or yields a *typed* error.
//!    Nothing panics; nothing decodes into silently wrong state.
//! 3. **The quorum pipeline degrades gracefully.** Faulty sites are
//!    excluded with a reason and the merge report widens the error
//!    bound; only falling below quorum is a hard (typed) failure.

use frequent_items::prelude::*;
use proptest::prelude::*;

fn sketch_of(ids: &[u64], seed: u64) -> CountSketch {
    let mut s = CountSketch::new(SketchParams::new(4, 64), seed);
    s.absorb(&Stream::from_ids(ids.iter().copied()), 1);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash anywhere mid-stream: snapshot at the cut, "restart", replay
    /// the tail. The resumed sketch is byte-for-byte the uninterrupted
    /// one.
    #[test]
    fn resume_from_snapshot_is_bit_identical(
        seed: u64,
        ids in prop::collection::vec(0u64..500, 1..300),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((ids.len() as f64) * cut_frac) as usize;

        let mut uninterrupted = sketch_of(&ids, seed);

        let before_crash = sketch_of(&ids[..cut], seed);
        let snapshot = before_crash.to_snapshot_bytes();
        // -- crash; all in-memory state lost --
        let mut resumed = CountSketch::from_snapshot_bytes(&snapshot).unwrap();
        resumed.absorb(&Stream::from_ids(ids[cut..].iter().copied()), 1);

        prop_assert_eq!(
            resumed.to_snapshot_bytes(),
            uninterrupted.to_snapshot_bytes(),
            "resumed state diverges from uninterrupted run"
        );
        // And the observable behaviour matches too.
        for id in 0..20u64 {
            prop_assert_eq!(resumed.estimate(ItemKey(id)), uninterrupted.estimate(ItemKey(id)));
        }
        uninterrupted.add(ItemKey(7));
        resumed.add(ItemKey(7));
        prop_assert_eq!(resumed.counters(), uninterrupted.counters());
    }

    /// The same contract for the full APPROXTOP processor (sketch +
    /// top-k tracker + policy).
    #[test]
    fn processor_resume_is_bit_identical(
        seed: u64,
        ids in prop::collection::vec(0u64..100, 1..300),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((ids.len() as f64) * cut_frac) as usize;
        let params = SketchParams::new(3, 32);

        let mut uninterrupted = ApproxTopProcessor::new(params, 5, seed);
        uninterrupted.observe_stream(&Stream::from_ids(ids.iter().copied()));

        let mut first_half = ApproxTopProcessor::new(params, 5, seed);
        first_half.observe_stream(&Stream::from_ids(ids[..cut].iter().copied()));
        let snapshot = first_half.to_snapshot_bytes();
        // -- crash --
        let mut resumed = ApproxTopProcessor::from_snapshot_bytes(&snapshot).unwrap();
        resumed.observe_stream(&Stream::from_ids(ids[cut..].iter().copied()));

        prop_assert_eq!(
            resumed.to_snapshot_bytes(),
            uninterrupted.to_snapshot_bytes()
        );
        prop_assert_eq!(resumed.result().items, uninterrupted.result().items);
    }

    /// The whole fault matrix against sketch snapshots: each corrupted
    /// payload either restores the exact original (delivery faults keep
    /// bytes intact) or fails with a typed error. Zero panics.
    #[test]
    fn every_injected_fault_recovers_or_errors_typed(
        seed: u64,
        ids in prop::collection::vec(0u64..200, 0..100),
        rounds in 1usize..12,
    ) {
        let original = sketch_of(&ids, seed);
        let clean = original.to_snapshot_bytes();
        let mut inj = FaultInjector::new(seed ^ 0xF417);
        for _ in 0..rounds {
            let fault = inj.any_fault();
            let mut bytes = clean.clone();
            inj.corrupt(fault, &mut bytes);
            match CountSketch::from_snapshot_bytes(&bytes) {
                Ok(restored) => {
                    // Only an unmodified payload may restore.
                    prop_assert_eq!(&bytes, &clean, "fault {:?} restored from altered bytes", fault);
                    prop_assert_eq!(restored.counters(), original.counters());
                }
                Err(e) => {
                    // Typed, displayable, and only for actually-altered bytes.
                    prop_assert_ne!(&bytes, &clean, "clean snapshot rejected: {}", e);
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }
    }

    /// Quorum pipeline under a random fault per site: the coordinator
    /// never panics, excludes faulty sites with a reason, and either
    /// meets quorum (merged estimates equal the healthy subset's exact
    /// merge) or fails with `CoreError::QuorumNotMet`.
    #[test]
    fn quorum_pipeline_survives_fault_matrix(
        seed: u64,
        fault_seed: u64,
        num_sites in 2usize..6,
    ) {
        let params = SketchParams::new(3, 32);
        let quorum = 1 + num_sites / 2;
        let mut inj = FaultInjector::new(fault_seed);

        let site_streams: Vec<Stream> = (0..num_sites)
            .map(|s| Stream::from_ids((0..200u64).map(|i| (i * (s as u64 + 1)) % 50)))
            .collect();

        let mut coord = QuorumCoordinator::new(
            num_sites, quorum, params, seed, RetryPolicy::default(),
        ).unwrap();
        let mut healthy: Vec<usize> = Vec::new();
        for (site, stream) in site_streams.iter().enumerate() {
            let mut sk = CountSketch::new(params, seed);
            sk.absorb(stream, 1);
            let mut bytes = sk.to_snapshot_bytes();
            let fault = inj.any_fault();
            match fault {
                Fault::Drop => {
                    // Site never answers: exhaust the retry policy.
                    for _ in 0..RetryPolicy::default().max_attempts {
                        coord.deliver_failed(site).unwrap();
                    }
                }
                Fault::Straggle => {
                    // Late but intact: one failed attempt, then delivery.
                    coord.deliver_failed(site).unwrap();
                    coord.deliver_snapshot(site, &bytes, vec![], stream.len() as u64).unwrap();
                    healthy.push(site);
                }
                byte_fault => {
                    inj.corrupt(byte_fault, &mut bytes);
                    coord.deliver_snapshot(site, &bytes, vec![], stream.len() as u64).unwrap();
                    if bytes == sk.to_snapshot_bytes() {
                        healthy.push(site); // Duplicate/Reorder leave bytes intact.
                    }
                }
            }
        }

        match coord.finalize() {
            Ok(outcome) => {
                prop_assert!(outcome.report.included.len() >= quorum);
                prop_assert_eq!(
                    outcome.report.included.len() + outcome.report.excluded.len(),
                    num_sites
                );
                // Included ⊆ healthy, and estimates match an exact merge
                // of exactly the included sites.
                for site in &outcome.report.included {
                    prop_assert!(healthy.contains(site), "corrupt site {} merged", site);
                }
                let mut expected = CountSketch::new(params, seed);
                for &site in &outcome.report.included {
                    expected.absorb(&site_streams[site], 1);
                }
                for id in 0..50u64 {
                    prop_assert_eq!(
                        outcome.sketch.estimate(ItemKey(id)),
                        expected.estimate(ItemKey(id))
                    );
                }
                if outcome.report.is_complete() {
                    prop_assert_eq!(outcome.report.error_bound_widening(), 1.0);
                } else {
                    prop_assert!(outcome.report.error_bound_widening() > 1.0);
                }
            }
            Err(CoreError::QuorumNotMet { validated, required }) => {
                prop_assert!(validated < required);
                prop_assert_eq!(required, quorum);
                prop_assert!(healthy.len() < quorum, "quorum refused despite {} healthy sites", healthy.len());
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {}", other),
        }
    }
}

/// One site's report for the delivery-order property: a short stream
/// drawn from `seed`, and when `scarred`, saturation flags on the cells
/// of one key whose counters are back to small values, so the merged
/// saturation words carry some set bits.
fn order_site_report(seed: u64, site: usize, scarred: bool, params: SketchParams) -> SiteReport {
    let ids: Vec<u64> = (0..60u64)
        .map(|i| (i * (site as u64 + 2) + seed % 7) % 40)
        .collect();
    let mut report = site_report(&Stream::from_ids(ids), 4, params, seed);
    if scarred {
        let key = ItemKey(1_000 + site as u64);
        report.sketch.update(key, i64::MAX);
        report.sketch.update(key, i64::MAX);
        report.sketch.update(key, -i64::MAX);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §3.2 additivity at the coordinator: any permutation of the
    /// deliveries, mixed with duplicate deliveries and with failed
    /// attempts below `max_attempts`, gives the same `MergeReport`,
    /// merged counters, saturation words and rendered report as
    /// `DistributedSketch::coordinate` over the accepted reports in site
    /// order.
    #[test]
    fn quorum_merge_does_not_depend_on_delivery_order(
        seed: u64,
        order_seed: u64,
        plan in prop::collection::vec((0u32..3, 0usize..3, any::<bool>()), 1..6),
    ) {
        // Per site: failed attempts, deliveries (0 = never, 2 = one
        // duplicate) and whether its sketch carries saturation flags.
        let params = SketchParams::new(3, 32);
        let policy = RetryPolicy::default();
        prop_assert!(plan.iter().all(|&(failures, _, _)| failures < policy.max_attempts));
        let reports: Vec<SiteReport> = plan
            .iter()
            .enumerate()
            .map(|(site, &(_, _, scarred))| order_site_report(seed, site, scarred, params))
            .collect();
        let snapshots: Vec<Vec<u8>> = reports.iter().map(|r| r.sketch.to_snapshot_bytes()).collect();

        // Each event is (site, delivered?), shuffled by Fisher–Yates.
        let mut events: Vec<(usize, bool)> = Vec::new();
        for (site, &(failures, deliveries, _)) in plan.iter().enumerate() {
            events.extend((0..failures).map(|_| (site, false)));
            events.extend((0..deliveries).map(|_| (site, true)));
        }
        let mut state = order_seed;
        for i in (1..events.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            events.swap(i, (state >> 33) as usize % (i + 1));
        }

        let mut coord = QuorumCoordinator::new(plan.len(), 1, params, seed, policy).unwrap();
        for &(site, delivered) in &events {
            if delivered {
                let r = &reports[site];
                coord.deliver_snapshot(site, &snapshots[site], r.candidates.clone(), r.local_n).unwrap();
            } else {
                coord.deliver_failed(site).unwrap();
            }
        }

        let included: Vec<usize> = (0..plan.len()).filter(|&site| plan[site].1 > 0).collect();
        let excluded: Vec<(usize, ExclusionReason)> = plan
            .iter()
            .enumerate()
            .filter(|(_, &(_, deliveries, _))| deliveries == 0)
            .map(|(site, &(attempts, _, _))| (site, ExclusionReason::Straggler { attempts }))
            .collect();
        let accepted: Vec<SiteReport> = included.iter().map(|&site| reports[site].clone()).collect();
        let outcome = coord.finalize();
        if accepted.is_empty() {
            prop_assert_eq!(
                outcome.unwrap_err(),
                CoreError::QuorumNotMet { validated: 0, required: 1 }
            );
            return;
        }
        let outcome = outcome.unwrap();
        let direct = DistributedSketch::coordinate(&accepted).unwrap();
        prop_assert_eq!(
            &outcome.report,
            &MergeReport {
                total_sites: plan.len(),
                included,
                covered_n: direct.total_n(),
                excluded: excluded.clone(),
            }
        );
        prop_assert_eq!(outcome.sketch.merged().counters(), direct.merged().counters());
        prop_assert_eq!(
            outcome.sketch.merged().saturated_words(),
            direct.merged().saturated_words()
        );
        prop_assert_eq!(
            render_report(&outcome.sketch, 5, &outcome.report.excluded),
            render_report(&direct, 5, &excluded)
        );
    }
}

/// Torn write on disk: the previous good snapshot plus a truncated new
/// one. Recovery reads the good file after the new one fails — the
/// last-good-snapshot pattern every crash-safe store uses.
#[test]
fn torn_file_falls_back_to_last_good_snapshot() {
    let dir = std::env::temp_dir().join(format!("fi-fault-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good_path = dir.join("epoch-1.csnp");
    let torn_path = dir.join("epoch-2.csnp");

    let mut epoch1 = CountSketch::new(SketchParams::new(3, 16), 9);
    epoch1.add(ItemKey(1));
    write_snapshot_file(&good_path, &epoch1.to_snapshot_bytes()).unwrap();

    let mut epoch2 = epoch1.clone();
    epoch2.add(ItemKey(2));
    let full = epoch2.to_snapshot_bytes();
    // Crash mid-write: only half the bytes hit the disk.
    std::fs::write(&torn_path, &full[..full.len() / 2]).unwrap();

    let torn_bytes = read_snapshot_file(&torn_path).unwrap();
    let err = CountSketch::from_snapshot_bytes(&torn_bytes).unwrap_err();
    assert!(!err.to_string().is_empty(), "typed error expected");

    let recovered =
        CountSketch::from_snapshot_bytes(&read_snapshot_file(&good_path).unwrap()).unwrap();
    assert_eq!(recovered.counters(), epoch1.counters());

    std::fs::remove_dir_all(&dir).ok();
}

/// `write_snapshot_file` is atomic (tmp + rename): after it returns, the
/// file always decodes, and a concurrent reader never sees a partial
/// file at the final path.
#[test]
fn snapshot_file_write_is_atomic_and_rereadable() {
    let dir = std::env::temp_dir().join(format!("fi-atomic-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.csnp");

    let mut s = CountSketch::new(SketchParams::new(3, 16), 4);
    for round in 0..10u64 {
        s.add(ItemKey(round % 3));
        write_snapshot_file(&path, &s.to_snapshot_bytes()).unwrap();
        let back = CountSketch::from_snapshot_bytes(&read_snapshot_file(&path).unwrap()).unwrap();
        assert_eq!(back.counters(), s.counters(), "round {round}");
        // No stray tmp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp file leaked");
    }

    std::fs::remove_dir_all(&dir).ok();
}
