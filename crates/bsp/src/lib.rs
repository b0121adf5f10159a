//! # graphite-bsp — the distributed BSP substrate
//!
//! A shared-nothing, multi-worker bulk-synchronous-parallel engine that
//! stands in for Apache Giraph in this reproduction of the ICM paper.
//! Workers are OS threads owning hash-partitioned vertex sets; a superstep
//! is a parallel compute-and-encode phase, a barrier, and a parallel
//! receive-and-group phase ([`exchange`]); messages crossing worker
//! boundaries are serialized through a compact wire codec (with the paper's
//! varint interval compression) and all primitive counts and time splits
//! are recorded per run.
//!
//! The interval-centric engine (`graphite-icm`) and all four baseline
//! platforms (`graphite-baselines`) execute on this substrate, so — as in
//! the paper — the programming primitives are the experimental variable,
//! not the runtime. A snapshot platform walks its snapshots as the phases
//! of one run ([`PhaseHook`]), so every query is one BSP session, and
//! every platform's workers keep their vertex states in one
//! [`state::StateTable`].
//!
//! Runs are fault-tolerant on request: given a [`BspConfig::recovery`]
//! schedule, [`run_bsp`]'s one superstep loop checkpoints every worker's
//! state ([`WorkerLogic::checkpoint`]) and in-flight inboxes every few
//! supersteps and rolls back on recoverable faults, while a deterministic
//! [`FaultPlan`] on [`BspConfig`] injects worker panics and wire
//! bit-flips to prove — via pinned digests — that recovered results are
//! bit-identical to fault-free ones.
//!
//! Every run can additionally record a structured [`trace`]: per-worker,
//! per-superstep span events (DESIGN.md §12) that never perturb results
//! and serialize to the `graphite-trace/1` JSONL schema.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod aggregate;
pub mod check;
pub mod codec;
pub mod engine;
pub mod error;
pub mod exchange;
pub mod fault;
pub mod metrics;
pub mod partition;
pub mod recover;
pub mod state;
pub mod trace;

pub use aggregate::{Agg, Aggregators, MasterDecision};
pub use check::RunChecker;
pub use codec::Wire;
pub use engine::{
    keep_alive, run_bsp, BspConfig, Inbox, MasterHook, Outbox, PhaseHook, WorkerLogic,
    MESSAGES_SENT_AGG,
};
pub use error::BspError;
pub use fault::{Fault, FaultInjector, FaultKind, FaultMode, FaultPlan};
pub use metrics::{RecoveryMetrics, RunMetrics, StepTiming, UserCounters};
pub use partition::{hash_partition, PartitionMap};
pub use recover::RecoveryConfig;
pub use trace::{RunTrace, TraceConfig, TraceEvent, TraceLevel, TraceSink};
