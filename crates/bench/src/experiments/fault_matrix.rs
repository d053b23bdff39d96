//! **Fault matrix** — recovery outcome and merged-estimate accuracy as a
//! function of how many site agents fail, measured over the *real*
//! loopback transport (`cs-net`), not a simulated delivery loop.
//!
//! The setup mirrors a small deployment: `SITES` site agents each hold a
//! balanced hash-shard of one global Zipf stream and ship their sketch +
//! candidates to a quorum coordinator over TCP. We then sweep the number
//! of faulted sites from 0 upward; faulted agents alternate between a
//! corrupting link ([`LinkFault::FlipBits`] — the coordinator sees CRC
//! failures and NACKs) and a link that dies mid-SNAPSHOT
//! ([`LinkFault::CutAfter`] — indistinguishable from a killed agent).
//! Both agent and server run a 2-attempt [`RetryPolicy`], so a faulted
//! site is retried once and then excluded.
//!
//! Reported per faulted-site count, aggregated over `scale.trials`
//! seeds:
//!
//! * `quorum met` — fraction of trials where the coordinator finalized
//!   at all (with `QUORUM` of `SITES` required, enough failures produce
//!   a *typed* `QuorumNotMet`, never a silent partial answer);
//! * `coverage` — fraction of sites merged
//!   ([`cs_core::distributed::MergeReport::coverage`]);
//! * `bound widening` — the §4.1-style error-bound widening factor
//!   ([`cs_core::distributed::MergeReport::error_bound_widening`]);
//! * `recall@k` — recall of the merged top-k against the *global* exact
//!   counts, i.e. including the mass the excluded sites never shipped;
//! * `mean rel err` — mean relative error of the merged estimates over
//!   the global exact top-k.
//!
//! Accuracy rows average only the trials where the quorum was met; once
//! every trial fails, the accuracy cells are vacuous and render as `-`.

use crate::config::Scale;
use crate::experiments::ExperimentOutput;
use cs_core::distributed::{site_report, QuorumOutcome, RetryPolicy, SiteReport};
use cs_core::SketchParams;
use cs_metrics::experiment::ExperimentRecord;
use cs_metrics::recall::recall_at_k;
use cs_metrics::table::fmt_num;
use cs_metrics::Table;
use cs_net::{CoordinatorServer, NetError, ServeConfig, SiteAgent};
use cs_stream::workloads::balanced_shards;
use cs_stream::{ExactCounter, LinkFault};

/// Deployment shape: enough sites that partial failure is interesting.
const SITES: usize = 6;
/// Quorum: half the deployment. 4+ faulted sites cannot finalize.
const QUORUM: usize = 3;
/// Sketch shape shared by every site (same as the throughput table).
const ROWS: usize = 5;
const BUCKETS: usize = 1024;
/// Zipf parameter of the global stream the shards are split from.
const ZIPF_Z: f64 = 1.1;
/// Faulted-site counts swept (`QUORUM..SITES` rows demonstrate the
/// typed quorum failure, not just degraded accuracy).
const FAULT_COUNTS: [usize; 5] = [0, 1, 2, 3, 4];

/// One trial's outcome: `None` when the coordinator could not finalize.
struct Trial {
    outcome: Option<QuorumOutcome>,
}

/// The fault a site agent with index `site` gets when it is one of the
/// first `faulted` sites: alternating corrupting and dying links, so
/// both NACK-exclusion and straggler-exclusion paths are exercised in
/// the same matrix row.
fn fault_for(site: usize) -> LinkFault {
    if site.is_multiple_of(2) {
        // Clean 60-byte HELLO, then every frame risks a bit flip the
        // coordinator's CRC catches.
        LinkFault::FlipBits { from_byte: 100 }
    } else {
        // HELLO lands, the SNAPSHOT tears: a killed agent.
        LinkFault::CutAfter { bytes: 64 }
    }
}

/// Runs one quorum collection over loopback TCP: a coordinator bound to
/// an ephemeral port, `SITES` agent threads, the first `faulted` of them
/// behind a fault-injected link.
fn run_trial(reports: &[SiteReport], faulted: usize, seed: u64) -> Trial {
    let params = SketchParams::new(ROWS, BUCKETS);
    let mut config = ServeConfig::new(SITES, QUORUM, params, seed);
    config.max_attempts = 2;
    config.deadline_ms = 20_000;
    config.timeout_ms = 500;

    let server = CoordinatorServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("ephemeral port").to_string();
    let serve = std::thread::spawn(move || server.run());

    let handles: Vec<_> = reports
        .iter()
        .enumerate()
        .map(|(site, report)| {
            let addr = addr.clone();
            let report = report.clone();
            let mut agent = SiteAgent::new(site, SITES);
            agent.policy = RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 1,
                ..RetryPolicy::default()
            };
            agent.timeout_ms = 500;
            if site < faulted {
                agent.fault = Some(fault_for(site));
                agent.fault_seed = seed ^ site as u64;
            }
            std::thread::spawn(move || agent.ship(&addr, &report))
        })
        .collect();
    for handle in handles {
        // Faulted agents are *expected* to error; the coordinator's
        // MergeReport is the authority on what that did to the merge.
        let _ = handle.join().expect("agent thread");
    }
    match serve.join().expect("server thread") {
        Ok(outcome) => Trial {
            outcome: Some(outcome),
        },
        Err(NetError::QuorumNotMet { .. }) => Trial { outcome: None },
        Err(other) => panic!("coordinator failed structurally: {other}"),
    }
}

/// Mean of `xs`, or `None` when empty.
fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Renders an optional metric, `-` once no trial met quorum.
fn cell(v: Option<f64>) -> String {
    v.map(fmt_num).unwrap_or_else(|| "-".into())
}

/// Runs the fault matrix.
pub fn run(scale: &Scale) -> ExperimentOutput {
    let params = SketchParams::new(ROWS, BUCKETS);
    let trials = scale.trials.max(1);
    let k = scale.k;

    let mut out = ExperimentOutput::default();
    let mut table = Table::new(
        format!(
            "Fault matrix over loopback TCP: {SITES} sites, quorum {QUORUM}, \
             Zipf({ZIPF_Z}) n={} m={}, k={k}, {trials} trial(s)",
            scale.n, scale.m
        ),
        &[
            "faulted sites",
            "quorum met",
            "coverage",
            "bound widening",
            "recall@k",
            "mean rel err",
        ],
    );

    for &faulted in &FAULT_COUNTS {
        let mut met = 0u64;
        let mut coverages = Vec::new();
        let mut widenings = Vec::new();
        let mut recalls = Vec::new();
        let mut rel_errs = Vec::new();

        for trial in 0..trials {
            let seed = 0xFA17 ^ (trial.wrapping_mul(0x9E37_79B9)) ^ faulted as u64;
            let (global, shards) = balanced_shards(scale.m, scale.n, ZIPF_Z, SITES, seed);
            let exact = ExactCounter::from_stream(&global);
            let reports: Vec<SiteReport> = shards
                .iter()
                .map(|s| site_report(s, k, params, seed))
                .collect();

            let result = run_trial(&reports, faulted, seed);
            let Some(outcome) = result.outcome else {
                continue;
            };
            met += 1;
            coverages.push(outcome.report.coverage());
            widenings.push(outcome.report.error_bound_widening());

            let top: Vec<_> = outcome
                .sketch
                .top_k(k)
                .into_iter()
                .map(|(key, _)| key)
                .collect();
            recalls.push(recall_at_k(&top, &exact, k));

            let truth = exact.top_k(k);
            let errs: Vec<f64> = truth
                .iter()
                .filter(|&&(_, count)| count > 0)
                .map(|&(key, count)| {
                    (outcome.sketch.estimate(key) - count as i64).abs() as f64 / count as f64
                })
                .collect();
            if let Some(e) = mean(&errs) {
                rel_errs.push(e);
            }
        }

        let quorum_rate = met as f64 / trials as f64;
        table.row(&[
            faulted.to_string(),
            fmt_num(quorum_rate),
            cell(mean(&coverages)),
            cell(mean(&widenings)),
            cell(mean(&recalls)),
            cell(mean(&rel_errs)),
        ]);
        let mut record = ExperimentRecord::new("fault-matrix", "cs-net")
            .param("sites", SITES as f64)
            .param("quorum", QUORUM as f64)
            .param("faulted", faulted as f64)
            .param("n", scale.n as f64)
            .param("k", k as f64)
            .metric("quorum_met_rate", quorum_rate);
        if let Some(v) = mean(&coverages) {
            record = record.metric("coverage", v);
        }
        if let Some(v) = mean(&widenings) {
            record = record.metric("bound_widening", v);
        }
        if let Some(v) = mean(&recalls) {
            record = record.metric("recall_at_k", v);
        }
        if let Some(v) = mean(&rel_errs) {
            record = record.metric("mean_rel_err", v);
        }
        out.records.push(record);
    }

    out.tables.push(table);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full matrix at reduced scale: clean rows meet quorum with
    /// full coverage; the 4-faulted row (only 2 survivors, quorum 3)
    /// must fail *typed*, rendering vacuous accuracy cells.
    #[test]
    fn matrix_degrades_and_then_fails_typed() {
        let scale = Scale {
            n: 4_000,
            m: 500,
            trials: 1,
            k: 5,
        };
        let out = run(&scale);
        assert_eq!(out.records.len(), FAULT_COUNTS.len());

        let by_faulted = |f: f64| {
            out.records
                .iter()
                .find(|r| r.params.get("faulted") == Some(&f))
                .expect("row present")
        };
        let metric = |r: &ExperimentRecord, name: &str| r.metrics.get(name).copied();

        let clean = by_faulted(0.0);
        assert_eq!(metric(clean, "quorum_met_rate"), Some(1.0));
        assert_eq!(metric(clean, "coverage"), Some(1.0));
        assert_eq!(metric(clean, "bound_widening"), Some(1.0));
        assert!(metric(clean, "recall_at_k").expect("recall") > 0.5);

        let degraded = by_faulted(2.0);
        assert_eq!(metric(degraded, "quorum_met_rate"), Some(1.0));
        let cov = metric(degraded, "coverage").expect("coverage");
        assert!((cov - 4.0 / 6.0).abs() < 1e-9, "coverage {cov}");
        assert!(metric(degraded, "bound_widening").expect("widening") > 1.0);

        let dead = by_faulted(4.0);
        assert_eq!(metric(dead, "quorum_met_rate"), Some(0.0));
        assert_eq!(metric(dead, "coverage"), None, "no silent partials");
        assert!(out.tables[0].render().contains('-'));
    }
}
