//! # frequent-items
//!
//! A production-quality Rust implementation of **Charikar, Chen &
//! Farach-Colton, "Finding frequent items in data streams"** — the
//! COUNT SKETCH — together with the full suite of baseline algorithms the
//! paper compares against or cites, the stream/hash substrates they run
//! on, and a harness reproducing every table and figure of the paper's
//! evaluation.
//!
//! ## Crates
//!
//! | Facade module | Backing crate | Contents |
//! |---|---|---|
//! | [`sketch`] | `cs-core` | the Count-Sketch, APPROXTOP, CANDIDATETOP, max-change |
//! | [`baselines`] | `cs-baselines` | SAMPLING, concise/counting samples, KPS, Lossy Counting, Sticky Sampling, Count-Min, Space-Saving |
//! | [`stream`] | `cs-stream` | streams, Zipf generators, exact oracle, moments |
//! | [`hash`] | `cs-hash` | pairwise/k-wise families, sign hashes, item keys, CRC-32 |
//! | [`metrics`] | `cs-metrics` | recall/error metrics, Table 1 theory, tables |
//! | [`net`] | `cs-net` | CSWP wire protocol, site agents, quorum coordinator server |
//!
//! ## Quickstart
//!
//! ```
//! use frequent_items::prelude::*;
//!
//! // A query stream where "rust" dominates.
//! let mut queries = vec!["rust"; 500];
//! queries.extend(vec!["java"; 120]);
//! queries.extend(vec!["go"; 80]);
//! queries.extend((0..300).map(|_| "noise").collect::<Vec<_>>());
//! let stream = Stream::from_items(queries);
//!
//! // One pass, O(t·b + k) memory.
//! let result = approx_top(&stream, 2, SketchParams::new(5, 256), 42);
//! assert_eq!(result.items[0].0, ItemKey::of("rust"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

/// The Count-Sketch and the paper's algorithms (re-export of `cs-core`).
pub mod sketch {
    pub use cs_core::*;
}

/// Baseline frequent-items algorithms (re-export of `cs-baselines`).
pub mod baselines {
    pub use cs_baselines::*;
}

/// Stream model, generators and the exact oracle (re-export of
/// `cs-stream`).
pub mod stream {
    pub use cs_stream::*;
}

/// Hash-function substrate (re-export of `cs-hash`).
pub mod hash {
    pub use cs_hash::*;
}

/// Evaluation metrics and the paper's space formulas (re-export of
/// `cs-metrics`).
pub mod metrics {
    pub use cs_metrics::*;
}

/// Wire transport for distributed sketch shipping (re-export of
/// `cs-net`).
pub mod net {
    pub use cs_net::*;
}

/// The most common imports.
pub mod prelude {
    pub use cs_baselines::StreamSummary;
    pub use cs_core::approx_top::HeapPolicy;
    pub use cs_core::approx_top::{approx_top, ApproxTopProcessor, ApproxTopResult};
    pub use cs_core::candidate_top::{candidate_top_one_pass, candidate_top_two_pass};
    pub use cs_core::distributed::{
        site_report, DistributedSketch, ExclusionReason, MergeReport, QuorumCoordinator,
        QuorumOutcome, RetryPolicy, SiteReport,
    };
    pub use cs_core::maxchange::{max_change, DiffSketch, MaxChangeResult};
    pub use cs_core::median::Combiner;
    pub use cs_core::parallel::{sketch_stream_pooled, SketchPool};
    pub use cs_core::sketch::{CheckedEstimate, SketchHealth};
    pub use cs_core::snapshot::{
        inspect_snapshot_bytes, read_snapshot_file, write_snapshot_file, SnapshotInfo, SnapshotKind,
    };
    pub use cs_core::topk::TopKTracker;
    pub use cs_core::{CoreError, CountSketch, SketchParams};
    pub use cs_hash::ItemKey;
    pub use cs_net::{
        render_report, CoordinatorServer, NetError, ServeConfig, ShipOutcome, SiteAgent,
    };
    pub use cs_stream::{
        ExactCounter, Fault, FaultInjector, LinkFault, Stream, Zipf, ZipfStreamKind,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_paths_compose() {
        let stream = Stream::from_ids([1, 1, 1, 2]);
        let sketch = CountSketch::new(SketchParams::new(3, 32), 0);
        let mut p =
            ApproxTopProcessor::from_parts(sketch, TopKTracker::new(2), HeapPolicy::default());
        p.observe_stream(&stream);
        assert_eq!(p.result().items[0].0, ItemKey(1));
    }

    #[test]
    fn string_items_work_end_to_end() {
        let stream = Stream::from_items(["a", "a", "b", "a"]);
        let result = approx_top(&stream, 1, SketchParams::new(3, 16), 0);
        assert_eq!(result.items[0].0, ItemKey::of("a"));
    }
}
