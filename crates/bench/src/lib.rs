//! Experiment implementations for the paper's evaluation.
//!
//! Every table and figure target from DESIGN.md is implemented as a pure
//! function in [`experiments`] that returns rendered tables plus
//! machine-readable [`cs_metrics::experiment::ExperimentRecord`]s; the
//! `harness` binary dispatches to them, and the crate's tests run them at
//! reduced scale so the experiment code itself is covered by
//! `cargo test`. The throughput, parallel and query experiments also
//! write `BENCH_*.json` files through [`bench_file`], which the CI gates
//! in [`gate`] read back.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_file;
pub mod config;
pub mod experiments;
pub mod gate;

pub use config::{artifact_path, Scale};
pub use experiments::ExperimentOutput;
