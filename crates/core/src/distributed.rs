//! Extension: distributed sketching — the §1 "load balancing in a
//! distributed database" deployment.
//!
//! Each site sketches its local stream with a shared `(params, seed)`
//! configuration; a coordinator merges the site sketches (§3.2
//! additivity) and answers global frequent-items queries. The point the
//! paper's space bounds make in this setting: each site ships `O(t·b)`
//! counters — independent of its stream length — versus the
//! `O(sample size · object size)` a sampling-based protocol would ship.
//!
//! [`DistributedSketch`] is deliberately a thin, explicit state machine
//! (register sites → collect → query) rather than a network layer: the
//! wire transfer is whatever transport the deployment uses, carrying the
//! checksummed snapshot bytes of [`crate::snapshot`].
//!
//! Production collection runs through [`QuorumCoordinator`], which
//! survives what the strict [`DistributedSketch::coordinate`] cannot: a
//! corrupted, truncated, incompatible, or straggling site is *excluded*
//! rather than failing the whole merge, and the final [`MergeReport`]
//! states exactly which sites are missing and how far the error bound
//! widened as a result. By additivity the merge does not depend on when
//! or in what order reports arrive, so the coordinator keeps no clock,
//! only a count of failed attempts per site, and no site sketch: it adds
//! each accepted report into one running sum at delivery, so it holds
//! `O(t·b)` counters however many sites report. The driver owns the one
//! deadline, in wall-clock milliseconds.

use crate::approx_top::ApproxTopProcessor;
use crate::error::CoreError;
use crate::params::SketchParams;
use crate::sketch::CountSketch;
use crate::topk::TopKTracker;
use cs_hash::ItemKey;
use cs_stream::Stream;

/// One site's contribution: its local sketch plus the local candidate
/// keys (each site nominates its own top-l; the union is the global
/// candidate set — a standard two-round heavy-hitter protocol).
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// The site's sketch of its local stream.
    pub sketch: CountSketch,
    /// The site's local top-l candidate keys.
    pub candidates: Vec<ItemKey>,
    /// Local stream length (for diagnostics).
    pub local_n: u64,
}

impl SiteReport {
    /// The report of a site whose APPROXTOP processor has observed its
    /// `local_n` arrivals: the processor's sketch, moved out, and its
    /// tracked keys as the candidates.
    pub fn from_processor(processor: ApproxTopProcessor, local_n: u64) -> Self {
        let candidates = processor.result().keys();
        let (sketch, _, _) = processor.into_parts();
        SiteReport {
            sketch,
            candidates,
            local_n,
        }
    }
}

/// Builds one site's report from its local stream.
pub fn site_report(stream: &Stream, l: usize, params: SketchParams, seed: u64) -> SiteReport {
    let mut processor = ApproxTopProcessor::new(params, l.max(1), seed);
    processor.observe_stream(stream);
    SiteReport::from_processor(processor, stream.len() as u64)
}

/// The coordinator: merges site reports and answers global queries.
#[derive(Debug, Clone)]
pub struct DistributedSketch {
    merged: CountSketch,
    candidates: Vec<ItemKey>,
    sites: usize,
    total_n: u64,
}

impl DistributedSketch {
    /// Merges site reports. All sites must have sketched with the same
    /// `(params, seed)`, and their `local_n` must sum within `u64`.
    pub fn coordinate(reports: &[SiteReport]) -> Result<Self, CoreError> {
        let first = reports
            .first()
            .ok_or_else(|| CoreError::InvalidParameter("need at least one site report".into()))?;
        let mut merged = first.sketch.clone();
        let mut candidates: Vec<ItemKey> = first.candidates.clone();
        let mut total_n = first.local_n;
        for report in &reports[1..] {
            merged.merge(&report.sketch)?;
            candidates.extend_from_slice(&report.candidates);
            total_n = add_local_n(total_n, report.local_n)?;
        }
        candidates.sort_unstable();
        candidates.dedup();
        Ok(Self {
            merged,
            candidates,
            sites: reports.len(),
            total_n,
        })
    }

    /// Number of sites merged.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Total occurrences across all sites.
    pub fn total_n(&self) -> u64 {
        self.total_n
    }

    /// The merged sketch.
    pub fn merged(&self) -> &CountSketch {
        &self.merged
    }

    /// Global point estimate for any item.
    pub fn estimate(&self, key: ItemKey) -> i64 {
        self.merged.estimate(key)
    }

    /// Global top-k: every site-nominated candidate re-estimated against
    /// the merged sketch, best k returned.
    pub fn top_k(&self, k: usize) -> Vec<(ItemKey, i64)> {
        let mut tracker = TopKTracker::new(k.max(1));
        for &key in &self.candidates {
            let est = self.merged.estimate(key);
            tracker.offer(key, est);
        }
        tracker.items_desc()
    }

    /// Bytes a site ships to the coordinator (sketch + candidate keys) —
    /// the communication cost the paper's space bound governs.
    pub fn per_site_bytes(report: &SiteReport) -> usize {
        report.sketch.space_bytes() + report.candidates.len() * std::mem::size_of::<ItemKey>()
    }
}

/// `covered + local_n`, or a typed error when a site's count (a field
/// read off the wire) would overflow the total of the sites before it.
fn add_local_n(covered: u64, local_n: u64) -> Result<u64, CoreError> {
    covered.checked_add(local_n).ok_or_else(|| {
        CoreError::InvalidParameter(format!(
            "local_n {local_n} overflows the {covered} occurrences already covered"
        ))
    })
}

/// Retry schedule for a site's delivery attempts, in milliseconds.
///
/// Attempt `a` (zero-based) that fails is retried after
/// `min(base_backoff_ms · multiplier^a, max_backoff_ms)`; after
/// `max_attempts` failed attempts the site is given up on and excluded
/// as a straggler. The default is 3 attempts with backoffs of 50 and
/// 100 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delivery attempts before a site is excluded.
    pub max_attempts: u32,
    /// Milliseconds to wait after the first failed attempt.
    pub base_backoff_ms: u64,
    /// Exponential growth factor between attempts.
    pub multiplier: u64,
    /// Ceiling on any single backoff interval, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 50,
            multiplier: 2,
            max_backoff_ms: 400,
        }
    }
}

impl RetryPolicy {
    /// Backoff in milliseconds after failed attempt `attempt`
    /// (zero-based), or `None` once the attempt budget is exhausted.
    pub fn backoff_ms(&self, attempt: u32) -> Option<u64> {
        if attempt + 1 >= self.max_attempts {
            return None;
        }
        let factor = self.multiplier.saturating_pow(attempt);
        Some(
            self.base_backoff_ms
                .saturating_mul(factor)
                .min(self.max_backoff_ms),
        )
    }

    /// The full schedule of backoff intervals, for inspection.
    pub fn schedule(&self) -> Vec<u64> {
        (0..self.max_attempts)
            .map_while(|a| self.backoff_ms(a))
            .collect()
    }
}

/// Why a site's contribution was left out of a quorum merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExclusionReason {
    /// Snapshot bytes failed validation (checksum, structure, a merge
    /// that would saturate a counter, or a `local_n` that would overflow
    /// the covered total).
    Corrupt(CoreError),
    /// Report was shaped correctly but incompatible with the expected
    /// `(params, seed)` configuration.
    Incompatible(CoreError),
    /// The site never delivered within the retry budget.
    Straggler {
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for ExclusionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExclusionReason::Corrupt(e) => write!(f, "corrupt report: {e}"),
            ExclusionReason::Incompatible(e) => write!(f, "incompatible report: {e}"),
            ExclusionReason::Straggler { attempts } => {
                write!(f, "no response after {attempts} attempt(s)")
            }
        }
    }
}

/// Degradation report of a quorum merge: what was merged, what was not,
/// and what that does to the guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Sites the coordinator expected to hear from.
    pub total_sites: usize,
    /// Site indices whose reports were validated and merged.
    pub included: Vec<usize>,
    /// Excluded sites with the reason each was dropped.
    pub excluded: Vec<(usize, ExclusionReason)>,
    /// Occurrences covered by the included sites.
    pub covered_n: u64,
}

impl MergeReport {
    /// Fraction of sites whose mass the merged sketch covers.
    pub fn coverage(&self) -> f64 {
        if self.total_sites == 0 {
            return 0.0;
        }
        self.included.len() as f64 / self.total_sites as f64
    }

    /// Worst-case factor by which the `8γ = 8·√(F₂^res(b))/b`-style error
    /// bound widens: the missing sites' mass is simply absent from the
    /// merged counters, so an estimate can be off by up to the full count
    /// an item had on the excluded sites. Under balanced sharding that is
    /// a `total/included` multiplicative widening of the bound; with no
    /// included sites the bound is vacuous (`+∞`).
    pub fn error_bound_widening(&self) -> f64 {
        if self.included.is_empty() {
            f64::INFINITY
        } else {
            self.total_sites as f64 / self.included.len() as f64
        }
    }

    /// Whether every expected site was merged.
    pub fn is_complete(&self) -> bool {
        self.included.len() == self.total_sites
    }
}

/// Outcome of a successful quorum merge: the queryable coordinator plus
/// the degradation report.
#[derive(Debug, Clone)]
pub struct QuorumOutcome {
    /// The merged, queryable global sketch.
    pub sketch: DistributedSketch,
    /// Which sites made it in, and the widened error bound.
    pub report: MergeReport,
}

#[derive(Debug, Clone)]
enum SlotState {
    Waiting {
        attempt: u32,
    },
    /// The site's sketch and `local_n` are already in the running sums;
    /// only its candidates are kept.
    Accepted {
        candidates: Vec<ItemKey>,
    },
    Excluded(ExclusionReason),
}

/// Fault-tolerant collection of site reports.
///
/// The driver delivers whatever each site sends, in any order, via
/// [`deliver_snapshot`] / [`deliver_report`] / [`deliver_failed`]. A
/// compatible report is added into the running merged sketch as it is
/// delivered, and the site sketch is dropped. Once [`is_resolved`]
/// (every site accepted or excluded) — or the driver's deadline passes —
/// [`finalize`] checks the quorum and hands the sum out.
///
/// The merge is the same for every delivery order, with one exception:
/// when adding a report would overflow a counter, or its `local_n` the
/// covered total, the merge is refused and *that* site, the later
/// arrival, is excluded as `Corrupt` (`CounterSaturated`, or
/// `InvalidParameter` for the count). The sites already in the sums stay.
///
/// [`deliver_snapshot`]: QuorumCoordinator::deliver_snapshot
/// [`deliver_report`]: QuorumCoordinator::deliver_report
/// [`deliver_failed`]: QuorumCoordinator::deliver_failed
/// [`is_resolved`]: QuorumCoordinator::is_resolved
/// [`finalize`]: QuorumCoordinator::finalize
#[derive(Debug, Clone)]
pub struct QuorumCoordinator {
    /// Sum of every accepted report's sketch. It starts empty with the
    /// expected `(params, seed)`, and every delivered report is
    /// validated against it.
    merged: CountSketch,
    /// Sum of every accepted report's `local_n`.
    covered_n: u64,
    quorum: usize,
    /// Failed attempts after which a site is excluded as a straggler.
    max_attempts: u32,
    slots: Vec<SlotState>,
}

impl QuorumCoordinator {
    /// Creates a coordinator expecting `num_sites` reports sketched with
    /// `(params, seed)`, requiring at least `quorum` of them. Of `policy`
    /// it keeps only `max_attempts`: the coordinator waits for sites and
    /// schedules no retries.
    pub fn new(
        num_sites: usize,
        quorum: usize,
        params: SketchParams,
        seed: u64,
        policy: RetryPolicy,
    ) -> Result<Self, CoreError> {
        if num_sites == 0 {
            return Err(CoreError::InvalidParameter("need at least one site".into()));
        }
        if quorum == 0 || quorum > num_sites {
            return Err(CoreError::InvalidParameter(format!(
                "quorum {quorum} not in 1..={num_sites}"
            )));
        }
        Ok(Self {
            merged: CountSketch::new(params, seed),
            covered_n: 0,
            quorum,
            max_attempts: policy.max_attempts,
            slots: vec![SlotState::Waiting { attempt: 0 }; num_sites],
        })
    }

    /// The `(rows, buckets)` every delivered report must match.
    pub fn expected_params(&self) -> SketchParams {
        SketchParams {
            rows: self.merged.rows(),
            buckets: self.merged.buckets(),
        }
    }

    /// The hash seed every delivered report must match.
    pub fn expected_seed(&self) -> u64 {
        self.merged.seed()
    }

    /// Sites the coordinator expects to hear from.
    pub fn num_sites(&self) -> usize {
        self.slots.len()
    }

    /// Minimum validated reports required by [`finalize`].
    ///
    /// [`finalize`]: QuorumCoordinator::finalize
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Whether `site`'s report has been validated and merged (false for
    /// a site out of range).
    pub fn is_accepted(&self, site: usize) -> bool {
        matches!(self.slots.get(site), Some(SlotState::Accepted { .. }))
    }

    /// Whether every site is accepted or excluded, so no site is still
    /// awaited.
    pub fn is_resolved(&self) -> bool {
        !self
            .slots
            .iter()
            .any(|s| matches!(s, SlotState::Waiting { .. }))
    }

    fn slot_mut(&mut self, site: usize) -> Result<&mut SlotState, CoreError> {
        let n = self.slots.len();
        self.slots
            .get_mut(site)
            .ok_or_else(|| CoreError::InvalidParameter(format!("site {site} out of 0..{n}")))
    }

    /// Delivers a site's report as snapshot bytes (the wire form). The
    /// bytes are checksum-verified and the decoded sketch validated for
    /// dimension/seed compatibility; a bad payload permanently excludes
    /// the site with the typed reason, it does not error the coordinator.
    pub fn deliver_snapshot(
        &mut self,
        site: usize,
        snapshot_bytes: &[u8],
        candidates: Vec<ItemKey>,
        local_n: u64,
    ) -> Result<(), CoreError> {
        let decoded = CountSketch::from_snapshot_bytes(snapshot_bytes);
        self.deliver_decoded(site, decoded, candidates, local_n)
    }

    /// [`deliver_snapshot`](Self::deliver_snapshot) with the snapshot
    /// already opened by [`CountSketch::from_snapshot_bytes`], so a
    /// caller can verify and decode outside whatever lock guards the
    /// coordinator. A decode error excludes the site as corrupt.
    pub fn deliver_decoded(
        &mut self,
        site: usize,
        decoded: Result<CountSketch, CoreError>,
        candidates: Vec<ItemKey>,
        local_n: u64,
    ) -> Result<(), CoreError> {
        match decoded {
            Ok(sketch) => self.deliver_report(
                site,
                SiteReport {
                    sketch,
                    candidates,
                    local_n,
                },
            ),
            Err(e) => {
                let slot = self.slot_mut(site)?;
                if matches!(slot, SlotState::Waiting { .. }) {
                    *slot = SlotState::Excluded(ExclusionReason::Corrupt(e));
                }
                Ok(())
            }
        }
    }

    /// Delivers an already-decoded report and merges it at once.
    /// Incompatible `(params, seed)` excludes the site as incompatible;
    /// a `local_n` that would overflow the covered total, or a merge
    /// that would overflow a counter, is refused, leaving both sums
    /// untouched, and excludes the site as corrupt. The report's sketch
    /// is dropped either way.
    pub fn deliver_report(&mut self, site: usize, report: SiteReport) -> Result<(), CoreError> {
        if !matches!(self.slot_mut(site)?, SlotState::Waiting { .. }) {
            // Duplicate delivery (e.g. a retried request answered twice):
            // first result wins, later ones are ignored.
            return Ok(());
        }
        let verdict = self
            .merged
            .compatible(&report.sketch)
            .map_err(ExclusionReason::Incompatible)
            .and_then(|()| {
                let covered = add_local_n(self.covered_n, report.local_n)
                    .map_err(ExclusionReason::Corrupt)?;
                self.merged
                    .merge(&report.sketch)
                    .map_err(ExclusionReason::Corrupt)?;
                Ok(covered)
            });
        self.slots[site] = match verdict {
            Ok(covered) => {
                self.covered_n = covered;
                SlotState::Accepted {
                    candidates: report.candidates,
                }
            }
            Err(reason) => SlotState::Excluded(reason),
        };
        Ok(())
    }

    /// Records that a delivery attempt from `site` failed (a torn or
    /// corrupt frame, a protocol violation). The site stays pending until
    /// its `max_attempts`-th failure, which excludes it as a straggler.
    pub fn deliver_failed(&mut self, site: usize) -> Result<(), CoreError> {
        let max_attempts = self.max_attempts;
        let slot = self.slot_mut(site)?;
        if let SlotState::Waiting { attempt } = *slot {
            let attempts = attempt + 1;
            *slot = if attempts >= max_attempts {
                SlotState::Excluded(ExclusionReason::Straggler { attempts })
            } else {
                SlotState::Waiting { attempt: attempts }
            };
        }
        Ok(())
    }

    /// Hands out the merged sketch, if enough reports were accepted to
    /// meet the quorum. Sites still pending count as stragglers (the
    /// driver chose to stop waiting). Every merge already happened at
    /// delivery, so this only gathers the candidates and the report.
    pub fn finalize(self) -> Result<QuorumOutcome, CoreError> {
        let mut candidates: Vec<ItemKey> = Vec::new();
        let mut included = Vec::new();
        let mut excluded = Vec::new();
        let total_sites = self.slots.len();
        for (site, slot) in self.slots.into_iter().enumerate() {
            match slot {
                SlotState::Accepted {
                    candidates: site_candidates,
                } => {
                    candidates.extend(site_candidates);
                    included.push(site);
                }
                SlotState::Excluded(reason) => excluded.push((site, reason)),
                SlotState::Waiting { attempt } => {
                    excluded.push((site, ExclusionReason::Straggler { attempts: attempt }))
                }
            }
        }
        if included.len() < self.quorum {
            return Err(CoreError::QuorumNotMet {
                validated: included.len(),
                required: self.quorum,
            });
        }
        candidates.sort_unstable();
        candidates.dedup();
        Ok(QuorumOutcome {
            sketch: DistributedSketch {
                merged: self.merged,
                candidates,
                sites: included.len(),
                total_n: self.covered_n,
            },
            report: MergeReport {
                total_sites,
                included,
                excluded,
                covered_n: self.covered_n,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_metrics::recall_at_k;
    use cs_stream::workloads::balanced_shards;
    use cs_stream::ExactCounter;

    const PARAMS: SketchParams = SketchParams {
        rows: 5,
        buckets: 512,
    };

    #[test]
    fn merged_estimates_equal_global_sketch() {
        let (global, shards) = balanced_shards(500, 40_000, 1.0, 4, 7);
        let reports: Vec<SiteReport> = shards
            .iter()
            .map(|s| site_report(s, 10, PARAMS, 99))
            .collect();
        let coord = DistributedSketch::coordinate(&reports).unwrap();
        let mut global_sketch = CountSketch::new(PARAMS, 99);
        global_sketch.absorb(&global, 1);
        for id in 0..500u64 {
            assert_eq!(
                coord.estimate(ItemKey(id)),
                global_sketch.estimate(ItemKey(id)),
                "id {id}"
            );
        }
        assert_eq!(coord.sites(), 4);
        assert_eq!(coord.total_n(), 40_000);
    }

    #[test]
    fn global_top_k_recovered_from_sites() {
        let (global, shards) = balanced_shards(1_000, 100_000, 1.0, 8, 3);
        let exact = ExactCounter::from_stream(&global);
        let reports: Vec<SiteReport> = shards
            .iter()
            .map(|s| site_report(s, 20, PARAMS, 42))
            .collect();
        let coord = DistributedSketch::coordinate(&reports).unwrap();
        let top: Vec<ItemKey> = coord.top_k(10).into_iter().map(|(k, _)| k).collect();
        let recall = recall_at_k(&top, &exact, 10);
        assert!(recall >= 0.9, "distributed recall {recall}");
    }

    #[test]
    fn mismatched_sites_rejected() {
        let s = Stream::from_ids([1, 2, 3]);
        let a = site_report(&s, 2, PARAMS, 1);
        let b = site_report(&s, 2, PARAMS, 2); // different seed
        assert!(DistributedSketch::coordinate(&[a, b]).is_err());
    }

    #[test]
    fn empty_report_list_rejected() {
        assert!(matches!(
            DistributedSketch::coordinate(&[]),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn single_site_degenerates_to_local() {
        let s = Stream::from_ids([1, 1, 1, 2]);
        let report = site_report(&s, 2, PARAMS, 5);
        let coord = DistributedSketch::coordinate(&[report]).unwrap();
        let top = coord.top_k(1);
        assert_eq!(top[0].0, ItemKey(1));
        assert_eq!(top[0].1, 3);
    }

    #[test]
    fn per_site_bytes_independent_of_stream_length() {
        let short = site_report(&Stream::from_ids(0..100), 5, PARAMS, 1);
        let long = site_report(
            &Stream::from_ids((0..100_000u64).map(|i| i % 100)),
            5,
            PARAMS,
            1,
        );
        let a = DistributedSketch::per_site_bytes(&short);
        let b = DistributedSketch::per_site_bytes(&long);
        assert_eq!(a, b, "communication cost must not grow with n");
    }

    #[test]
    fn reports_serialize_for_the_wire() {
        let s = Stream::from_ids([7, 7, 8]);
        let report = site_report(&s, 2, PARAMS, 9);
        let bytes = report.sketch.to_snapshot_bytes();
        let back = SiteReport {
            sketch: CountSketch::from_snapshot_bytes(&bytes).unwrap(),
            candidates: report.candidates.clone(),
            local_n: report.local_n,
        };
        let coord = DistributedSketch::coordinate(&[back]).unwrap();
        assert_eq!(coord.estimate(ItemKey(7)), 2);
    }

    #[test]
    fn retry_policy_schedule_is_deterministic_and_capped() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 1,
            multiplier: 3,
            max_backoff_ms: 10,
        };
        assert_eq!(p.schedule(), vec![1, 3, 9, 10]);
        assert_eq!(p.backoff_ms(4), None, "budget exhausted");
    }

    #[test]
    fn default_retry_policy_backs_off_50_then_100_ms() {
        let d = RetryPolicy::default();
        assert_eq!(d.max_attempts, 3);
        assert_eq!(d.schedule(), vec![50, 100]);
    }

    fn quorum_setup(sites: usize, quorum: usize) -> (Vec<SiteReport>, QuorumCoordinator) {
        let (_, shards) = balanced_shards(200, 8_000, 1.0, sites, 5);
        let reports: Vec<SiteReport> = shards
            .iter()
            .map(|s| site_report(s, 10, PARAMS, 99))
            .collect();
        let coord =
            QuorumCoordinator::new(sites, quorum, PARAMS, 99, RetryPolicy::default()).unwrap();
        (reports, coord)
    }

    #[test]
    fn quorum_all_sites_healthy_matches_strict_coordinate() {
        let (reports, mut coord) = quorum_setup(4, 4);
        for (i, r) in reports.iter().enumerate() {
            coord
                .deliver_snapshot(
                    i,
                    &r.sketch.to_snapshot_bytes(),
                    r.candidates.clone(),
                    r.local_n,
                )
                .unwrap();
        }
        let outcome = coord.finalize().unwrap();
        assert!(outcome.report.is_complete());
        assert_eq!(outcome.report.coverage(), 1.0);
        assert_eq!(outcome.report.error_bound_widening(), 1.0);
        let strict = DistributedSketch::coordinate(&reports).unwrap();
        for id in 0..200u64 {
            assert_eq!(
                outcome.sketch.estimate(ItemKey(id)),
                strict.estimate(ItemKey(id))
            );
        }
    }

    #[test]
    fn quorum_excludes_corrupt_site_and_reports_widening() {
        let (reports, mut coord) = quorum_setup(4, 3);
        for (i, r) in reports.iter().enumerate() {
            let mut bytes = r.sketch.to_snapshot_bytes();
            if i == 2 {
                bytes[50] ^= 0xFF; // corrupt site 2's payload
            }
            coord
                .deliver_snapshot(i, &bytes, r.candidates.clone(), r.local_n)
                .unwrap();
        }
        let outcome = coord.finalize().unwrap();
        assert_eq!(outcome.report.included, vec![0, 1, 3]);
        assert_eq!(outcome.report.excluded.len(), 1);
        assert!(matches!(
            outcome.report.excluded[0],
            (
                2,
                ExclusionReason::Corrupt(CoreError::ChecksumMismatch { .. })
            )
        ));
        assert!((outcome.report.coverage() - 0.75).abs() < 1e-12);
        assert!((outcome.report.error_bound_widening() - 4.0 / 3.0).abs() < 1e-12);
        assert!(!outcome.report.is_complete());
    }

    #[test]
    fn quorum_excludes_incompatible_seed() {
        let (reports, mut coord) = quorum_setup(2, 1);
        let alien = site_report(&Stream::from_ids([1, 2]), 2, PARAMS, 12345);
        coord.deliver_report(0, reports[0].clone()).unwrap();
        coord.deliver_report(1, alien).unwrap();
        let outcome = coord.finalize().unwrap();
        assert_eq!(outcome.report.included, vec![0]);
        assert!(matches!(
            outcome.report.excluded[0],
            (
                1,
                ExclusionReason::Incompatible(CoreError::SeedMismatch { .. })
            )
        ));
    }

    #[test]
    fn quorum_straggler_is_excluded_after_max_attempts_failures() {
        let (reports, mut coord) = quorum_setup(2, 1);
        coord.deliver_report(0, reports[0].clone()).unwrap();
        assert!(coord.is_accepted(0));
        // Site 1 fails every attempt: pending until the last one.
        let max_attempts = RetryPolicy::default().max_attempts;
        for _ in 1..max_attempts {
            coord.deliver_failed(1).unwrap();
            assert!(!coord.is_resolved());
            assert!(!coord.is_accepted(1));
        }
        coord.deliver_failed(1).unwrap();
        assert!(coord.is_resolved());
        assert!(!coord.is_accepted(1));
        let outcome = coord.finalize().unwrap();
        assert_eq!(outcome.report.included, vec![0]);
        assert!(matches!(
            outcome.report.excluded[0],
            (1, ExclusionReason::Straggler { attempts: 3 })
        ));
    }

    #[test]
    fn quorum_not_met_is_typed_error() {
        let (reports, mut coord) = quorum_setup(3, 3);
        coord.deliver_report(0, reports[0].clone()).unwrap();
        // Sites 1 and 2 never deliver.
        let err = coord.finalize().unwrap_err();
        assert_eq!(
            err,
            CoreError::QuorumNotMet {
                validated: 1,
                required: 3
            }
        );
    }

    #[test]
    fn quorum_duplicate_delivery_first_wins() {
        let (reports, mut coord) = quorum_setup(2, 2);
        coord.deliver_report(0, reports[0].clone()).unwrap();
        coord.deliver_report(0, reports[1].clone()).unwrap(); // dup, ignored
        coord.deliver_report(1, reports[1].clone()).unwrap();
        let outcome = coord.finalize().unwrap();
        assert_eq!(outcome.report.included, vec![0, 1]);
        assert_eq!(outcome.sketch.total_n(), 8_000);
    }

    /// A site whose every row cell for `key` holds `±i64::MAX`: merged
    /// after any site that counted `key`, a counter overflows.
    fn saturating_report(key: ItemKey) -> SiteReport {
        let mut sketch = CountSketch::new(PARAMS, 99);
        sketch.update(key, i64::MAX);
        SiteReport {
            sketch,
            candidates: vec![key],
            local_n: 1,
        }
    }

    #[test]
    fn quorum_excludes_the_later_arrival_when_a_merge_would_saturate() {
        // The one order rule: of two sites whose sum would overflow a
        // counter, the later arrival is refused at delivery and the sum
        // keeps exactly the earlier one.
        let (reports, _) = quorum_setup(2, 1);
        let key = reports[0].candidates[0];
        let report = |site: usize| match site {
            0 => reports[0].clone(),
            _ => saturating_report(key),
        };
        for (first, later) in [(0, 1), (1, 0)] {
            let mut coord =
                QuorumCoordinator::new(2, 1, PARAMS, 99, RetryPolicy::default()).unwrap();
            coord.deliver_report(first, report(first)).unwrap();
            coord.deliver_report(later, report(later)).unwrap();
            assert!(coord.is_accepted(first));
            assert!(!coord.is_accepted(later), "refused before finalize");
            let outcome = coord.finalize().unwrap();
            assert_eq!(outcome.report.included, vec![first]);
            assert!(matches!(
                outcome.report.excluded[..],
                [(
                    site,
                    ExclusionReason::Corrupt(CoreError::CounterSaturated { .. })
                )] if site == later
            ));
            assert_eq!(
                outcome.sketch.merged().counters(),
                report(first).sketch.counters()
            );
        }
    }

    #[test]
    fn local_n_that_would_overflow_the_total_is_refused_in_either_order() {
        // Two sites whose wire-supplied counts sum past u64::MAX: the
        // coordinator excludes the later arrival at delivery, over either
        // delivery path, and the strict merge refuses the pair; the total
        // never wraps.
        let (mut reports, _) = quorum_setup(2, 1);
        reports[0].local_n = u64::MAX;
        reports[1].local_n = 2;
        for (first, later) in [(0, 1), (1, 0)] {
            for wire in [false, true] {
                let mut coord =
                    QuorumCoordinator::new(2, 1, PARAMS, 99, RetryPolicy::default()).unwrap();
                for site in [first, later] {
                    let r = reports[site].clone();
                    if wire {
                        let bytes = r.sketch.to_snapshot_bytes();
                        coord
                            .deliver_snapshot(site, &bytes, r.candidates, r.local_n)
                            .unwrap();
                    } else {
                        coord.deliver_report(site, r).unwrap();
                    }
                }
                assert!(coord.is_accepted(first));
                assert!(!coord.is_accepted(later), "refused before finalize");
                let outcome = coord.finalize().unwrap();
                assert_eq!(outcome.report.included, vec![first]);
                assert!(matches!(
                    &outcome.report.excluded[..],
                    [(site, ExclusionReason::Corrupt(CoreError::InvalidParameter(m)))]
                        if *site == later && m.contains("overflows")
                ));
                assert_eq!(outcome.report.covered_n, reports[first].local_n);
                assert_eq!(outcome.sketch.total_n(), reports[first].local_n);
                assert_eq!(
                    outcome.sketch.merged().counters(),
                    reports[first].sketch.counters()
                );
            }
            let pair = [reports[first].clone(), reports[later].clone()];
            assert!(matches!(
                DistributedSketch::coordinate(&pair),
                Err(CoreError::InvalidParameter(m)) if m.contains("overflows")
            ));
        }
    }

    #[test]
    fn quorum_exposes_its_configuration() {
        let (reports, mut coord) = quorum_setup(3, 2);
        assert_eq!(coord.expected_params(), PARAMS);
        assert_eq!(coord.expected_seed(), 99);
        assert_eq!(coord.num_sites(), 3);
        assert_eq!(coord.quorum(), 2);
        assert!((0..3).all(|site| !coord.is_accepted(site)));
        coord.deliver_report(1, reports[1].clone()).unwrap();
        let accepted: Vec<usize> = (0..3).filter(|&site| coord.is_accepted(site)).collect();
        assert_eq!(accepted, vec![1]);
        assert!(!coord.is_accepted(3), "site index out of range");
    }

    #[test]
    fn quorum_rejects_bad_configuration() {
        assert!(QuorumCoordinator::new(0, 1, PARAMS, 0, RetryPolicy::default()).is_err());
        assert!(QuorumCoordinator::new(3, 0, PARAMS, 0, RetryPolicy::default()).is_err());
        assert!(QuorumCoordinator::new(3, 4, PARAMS, 0, RetryPolicy::default()).is_err());
        let mut c = QuorumCoordinator::new(2, 1, PARAMS, 0, RetryPolicy::default()).unwrap();
        assert!(c.deliver_failed(7).is_err(), "site index out of range");
    }

    #[test]
    fn exclusion_reason_displays() {
        let r = ExclusionReason::Straggler { attempts: 3 };
        assert!(r.to_string().contains("3 attempt"));
        let r = ExclusionReason::Corrupt(CoreError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        });
        assert!(r.to_string().contains("corrupt"));
        let r = ExclusionReason::Incompatible(CoreError::SeedMismatch { left: 1, right: 2 });
        assert!(r.to_string().contains("incompatible"));
    }
}
