//! # graphite-baselines — the four comparison platforms
//!
//! Implementations of the baseline systems the ICM paper evaluates against
//! (Sec. VII-A3), all running over the same BSP substrate as GRAPHITE so
//! the programming primitives are the experimental variable:
//!
//! * **MSB** — the multi-snapshot baseline: a vertex-centric program run
//!   independently on every snapshot (TI algorithms).
//! * **Chlonos** — the Chronos clone: batches of snapshots processed
//!   concurrently; per-snapshot compute but messages that span adjacent
//!   snapshots are sent once (TI algorithms).
//! * **TGB** — the transformed-graph baseline: vertex-centric execution
//!   over the time-expanded graph, with replica state transfer across
//!   waiting edges (TD algorithms).
//! * **GoFFish-TS** — sequential snapshots with stateful vertices and
//!   temporal messages delivered by an outer loop (TD algorithms).
//!
//! Every query is one BSP run: MSB, Chlonos and GoFFish walk their
//! snapshots, batches or time-points as the phases of that run, each
//! seated by a phase hook at the previous one's quiescent barrier. All
//! four platforms' workers run on one core in [`vcm`]: a dense state
//! table indexed by the partition's local vertex index, and one
//! receiver-side combiner fold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod chlonos;
pub mod goffish;
pub mod msb;
pub mod tgb;
pub mod topology;
pub mod vcm;

pub use chlonos::{run_chlonos, ChlConfig};
pub use goffish::{run_goffish, GofConfig, GofContext, GofProgram};
pub use msb::{run_msb, MsbConfig};
pub use tgb::{run_tgb, TgbResult};
pub use topology::{EdgeWeights, SnapshotResult, SnapshotTopology, TransformedTopology};
pub use vcm::{run_vcm, VcmContext, VcmEdge, VcmProgram, VcmResult, VcmTopology};
