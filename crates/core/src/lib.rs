//! # Count-Sketch: finding frequent items in data streams
//!
//! A faithful implementation of Charikar, Chen & Farach-Colton, *"Finding
//! frequent items in data streams"* — the COUNT SKETCH data structure and
//! the three algorithms built on it:
//!
//! * **The sketch itself** ([`sketch::CountSketch`]): a `t × b` array of
//!   signed counters with per-row pairwise-independent bucket hashes
//!   `h_i` and sign hashes `s_i`. `ADD(q)` updates one counter per row by
//!   `±1`; `ESTIMATE(q)` returns the *median* over rows of
//!   `C[i][h_i(q)]·s_i(q)` (§3.2).
//! * **APPROXTOP(S, k, ε)** ([`approx_top`]): one pass, sketch + a k-slot
//!   heap ([`topk::TopKTracker`]); every reported item has
//!   `n_q >= (1-ε)·n_k` and every item with `n_q >= (1+ε)·n_k` is
//!   reported, w.h.p. (Lemma 5), when `b` is sized by
//!   [`params::SketchParams::for_approx_top`].
//! * **CANDIDATETOP(S, k, l)** ([`candidate_top`]): track `l = O(k)`
//!   candidates; an optional second pass recovers exact counts and thus
//!   the true top-k (§4.1).
//! * **Max-change** ([`maxchange`]): the 2-pass §4.2 algorithm over two
//!   streams — the sketch is *additive*, so subtracting `S1` and adding
//!   `S2` sketches the difference vector.
//!
//! Extensions beyond the paper's text: mean and trimmed-mean row
//! combiners ([`median`], exercised by the ablation benchmarks) and
//! parallel sketching via additivity: a long-lived worker pool whose
//! workers each sketch one key-hash shard, merged by counter addition
//! ([`parallel`]). Built on the same sketch:
//! iceberg queries ([`iceberg`]), one-pass hierarchical heavy-hitter
//! recovery ([`hierarchical`]), per-site sketches merged at a
//! coordinator ([`distributed`]) and checksummed snapshots
//! ([`snapshot`]).
//!
//! ## Quick example
//!
//! ```
//! use cs_core::prelude::*;
//!
//! // A stream where item 7 dominates.
//! let mut sketch = CountSketch::new(SketchParams::new(5, 256), 42);
//! for _ in 0..1000 {
//!     sketch.add(ItemKey(7));
//! }
//! for i in 0..100u64 {
//!     sketch.add(ItemKey(i));
//! }
//! let est = sketch.estimate(ItemKey(7));
//! assert!((est - 1001).abs() <= 50);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx_top;
pub mod candidate_top;
pub mod distributed;
pub mod error;
pub mod hierarchical;
pub mod iceberg;
pub mod maxchange;
pub mod median;
pub mod parallel;
pub mod params;
pub mod sketch;
pub mod snapshot;
pub mod topk;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::approx_top::{approx_top, ApproxTopResult};
    pub use crate::candidate_top::{candidate_top_one_pass, candidate_top_two_pass};
    pub use crate::distributed::{
        site_report, DistributedSketch, ExclusionReason, MergeReport, QuorumCoordinator,
        QuorumOutcome, RetryPolicy, SiteReport,
    };
    pub use crate::error::CoreError;
    pub use crate::hierarchical::{HeavyItem, HierarchicalCountSketch};
    pub use crate::iceberg::{iceberg, IcebergProcessor, IcebergResult};
    pub use crate::maxchange::{max_change, MaxChangeResult};
    pub use crate::parallel::{sketch_stream_pooled, SketchPool};
    pub use crate::params::SketchParams;
    pub use crate::sketch::{CheckedEstimate, CountSketch, RowHasher, SketchHealth};
    pub use crate::snapshot::{
        inspect_snapshot_bytes, read_snapshot_file, write_snapshot_file, SnapshotInfo, SnapshotKind,
    };
    pub use crate::topk::TopKTracker;
    pub use cs_hash::ItemKey;
}

pub use error::CoreError;
pub use params::SketchParams;
pub use sketch::{CountSketch, RowHasher};
