//! `graphite-part`: temporal-aware vertex partitioning.
//!
//! The paper runs every platform under Giraph's default hash partitioner
//! (Sec. VII-A4), and that remains the default here — but placement is
//! now a subsystem, not a constant. Every [`PartitionStrategy`] builds the
//! same [`PartitionMap`] the BSP substrate has always consumed, so
//! strategies are swappable without touching the engines, and the engine
//! results are *placement-invariant by construction*: final states are
//! keyed by external [`graphite_tgraph::graph::VertexId`] in ordered
//! maps, and every deterministic counter folds commutatively across
//! workers (DESIGN.md §13).
//!
//! Four strategies ship in-tree:
//!
//! | strategy | balances | optimizes | use when |
//! |---|---|---|---|
//! | [`PartitionStrategy::Hash`] | vertex count (statistically) | nothing | compatibility baseline |
//! | [`PartitionStrategy::Chunked`] | vertex count (exactly) | index locality | locality baseline |
//! | [`PartitionStrategy::Ldg`] | vertex count (capped) | neighbor affinity / edge cut | message-heavy workloads |
//! | [`PartitionStrategy::TemporalBalance`] | interval-weighted load | temporal skew | bursty / power-law lifespans |
//!
//! [`stats()`] measures what a placement actually achieved (balance
//! factor, edge cut, interval-weighted balance, estimated cross-worker
//! message fraction); `trace_report --balance` shows the skew a run
//! actually observed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod stats;
pub mod strategies;

pub use stats::{stats, PartitionStats};

use graphite_bsp::error::BspError;
use graphite_bsp::partition::PartitionMap;
use graphite_tgraph::graph::TemporalGraph;

/// A vertex-placement strategy: builds, from a graph and a worker count,
/// the dense vertex → worker map the BSP substrate routes by.
///
/// Every strategy is deterministic: the same graph and worker count
/// always yield the same assignment (no ambient randomness, no iteration
/// over unordered containers). Engine result digests are independent of
/// *which* assignment is produced, but reproducible placement is what
/// makes benchmark runs and the digest-invariance matrix meaningful.
///
/// The selector is threaded through `IcmConfig`/`VcmConfig`, the
/// algorithm registry's `RunOpts`, and the CLI (`--partition`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// Splitmix64 of the external vertex id, modulo workers — the paper's
    /// (and Giraph's) default, and the compatibility baseline.
    #[default]
    Hash,
    /// Contiguous `VIdx` ranges of near-equal size — the locality
    /// baseline.
    Chunked,
    /// Linear deterministic greedy streaming partitioner: each vertex goes
    /// to the worker holding most of its neighbors, discounted by how full
    /// that worker already is.
    Ldg,
    /// Balances *interval-weighted* load — the sum of vertex and out-edge
    /// lifespan lengths per worker — so workers receive equal temporal
    /// work, not equal vertex counts.
    TemporalBalance,
}

impl PartitionStrategy {
    /// Every strategy, in documentation order.
    pub const ALL: [PartitionStrategy; 4] = [
        PartitionStrategy::Hash,
        PartitionStrategy::Chunked,
        PartitionStrategy::Ldg,
        PartitionStrategy::TemporalBalance,
    ];

    /// Stable lower-case name (CLI / env / bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
            PartitionStrategy::Chunked => "chunked",
            PartitionStrategy::Ldg => "ldg",
            PartitionStrategy::TemporalBalance => "temporal",
        }
    }

    /// Parses a strategy name as accepted by the CLI's `--partition`
    /// (case-insensitive; `temporal-balance` and `temporal_balance` are
    /// aliases for `temporal`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "hash" => Some(PartitionStrategy::Hash),
            "chunked" | "chunk" => Some(PartitionStrategy::Chunked),
            "ldg" => Some(PartitionStrategy::Ldg),
            "temporal" | "temporal-balance" | "temporal_balance" => {
                Some(PartitionStrategy::TemporalBalance)
            }
            _ => None,
        }
    }

    /// Computes the assignment for this strategy.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is zero or exceeds the `u16`
    /// worker-index wire encoding.
    pub fn build(&self, graph: &TemporalGraph, workers: usize) -> Result<PartitionMap, BspError> {
        match self {
            PartitionStrategy::Hash => PartitionMap::hash(graph, workers),
            PartitionStrategy::Chunked => strategies::chunked(graph, workers),
            PartitionStrategy::Ldg => strategies::ldg(graph, workers),
            PartitionStrategy::TemporalBalance => strategies::temporal_balance(graph, workers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for s in PartitionStrategy::ALL {
            assert_eq!(PartitionStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(
            PartitionStrategy::parse("TEMPORAL-BALANCE"),
            Some(PartitionStrategy::TemporalBalance)
        );
        assert_eq!(PartitionStrategy::parse("metis"), None);
        assert_eq!(PartitionStrategy::default(), PartitionStrategy::Hash);
    }
}
