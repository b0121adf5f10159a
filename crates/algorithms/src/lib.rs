//! # graphite-algorithms — the paper's 12 temporal graph algorithms
//!
//! Sec. V of the ICM paper: four time-independent algorithms (BFS, WCC,
//! SCC, PageRank) and eight time-dependent ones (SSSP, EAT, FAST, LD,
//! TMST, RH, LCC, TC), each in interval-centric form plus the
//! vertex-centric / transformed-graph / GoFFish forms the baselines
//! execute. The [`catalog`] module is the one table of them — names,
//! program construction, digest encoders — and the [`registry`] module
//! builds on it a uniform `(algorithm × platform)` runner for the
//! benchmark harness, including per-(vertex, time-point) result digests
//! used to assert that every platform produces identical outcomes
//! (Sec. VII-B1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod catalog;
pub mod common;
pub mod gof_cluster;
pub mod gof_paths;
pub mod lcc;
pub mod pagerank;
pub mod registry;
pub mod reports;
pub mod scc;
pub mod tc;
pub mod td_paths;
pub mod tgb_paths;
pub mod wcc;

pub use common::{AlgLabels, ResultDigest, INF};
pub use registry::{run, Algo, Platform, RunOpts, RunOutcome, Unsupported};
