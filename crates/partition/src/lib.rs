//! `graphite-part`: vertex placement, and the run configuration every
//! platform shares.
//!
//! The paper runs every platform under Giraph's default hash partitioner
//! (Sec. VII-A4), and that remains the default here — but placement is a
//! subsystem, not a constant. Every [`PartitionStrategy`] builds the same
//! [`PartitionMap`] the BSP substrate has always consumed, so strategies
//! are swappable without touching the engines, and the engine results
//! are *placement-invariant by construction*: final states are keyed by
//! external [`graphite_tgraph::graph::VertexId`] in ordered maps, and
//! every deterministic counter folds commutatively across workers
//! (DESIGN.md §13).
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
//! Every strategy reads one input, a [`PlacementInput`]: the dense slots
//! to place, and per slot a stable hash key, its neighbors in both
//! directions and a temporal weight. A [`TemporalGraph`] is one (ICM,
//! and the snapshots of MSB, Chlonos and GoFFish, which place as their
//! graph does); TGB's time-expanded graph of replicas is the other. So
//! every platform takes every strategy. [`RunConfig`] — workers,
//! placement and the substrate options, recovery among them — is the one
//! configuration of a run that all five platforms embed.
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

use graphite_bsp::engine::BspConfig;
use graphite_bsp::error::BspError;
use graphite_bsp::partition::{check_workers, PartitionMap};
use graphite_tgraph::graph::{TemporalGraph, VIdx};

/// The configuration of one run, shared by all five platforms: ICM's
/// `IcmConfig`, the vertex-centric core's `run_vcm` (and through it MSB
/// and TGB), Chlonos and GoFFish each embed it beside their own extras,
/// and the registry lowers its `RunOpts` onto it in one function.
///
/// Every platform honours every field over its whole run: MSB, Chlonos
/// and GoFFish walk their snapshots, batches or time-points as the
/// phases of one BSP run, so the superstep cap and budget, the fault
/// plan, the schedule perturbation, recovery and the trace all count the
/// whole walk, and every platform places by every strategy.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of BSP workers (the paper's cluster nodes).
    pub workers: usize,
    /// Vertex-placement strategy (DESIGN.md §13). Results are
    /// placement-invariant — strategies only move work and message
    /// traffic between workers. Default: hash, the paper's (Sec. VII-A4).
    pub partition: PartitionStrategy,
    /// The substrate's own options — superstep cap and budget, schedule
    /// perturbation, fault injection, recovery, tracing — passed to the
    /// run's one `run_bsp`.
    pub bsp: BspConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            workers: 4,
            partition: PartitionStrategy::default(),
            bsp: BspConfig::default(),
        }
    }
}

/// A vertex-placement strategy: builds, from a graph and a worker count,
/// the dense vertex → worker map the BSP substrate routes by.
///
/// Every strategy is deterministic: the same graph and worker count
/// always yield the same assignment (no ambient randomness, no iteration
/// over unordered containers). Engine result digests are independent of
/// *which* assignment is produced, but reproducible placement is what
/// makes benchmark runs and the digest-invariance matrix meaningful.
///
/// The selector is [`RunConfig::partition`], set from the algorithm
/// registry's `RunOpts` and the CLI (`--partition`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// Splitmix64 of the slot's key (a graph's external vertex id),
    /// modulo workers — the paper's (and Giraph's) default, and the
    /// compatibility baseline.
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

    /// Places the vertices of `graph`: [`PartitionStrategy::place`] with
    /// the graph as its input.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is zero or exceeds the `u16`
    /// worker-index wire encoding.
    pub fn build(&self, graph: &TemporalGraph, workers: usize) -> Result<PartitionMap, BspError> {
        self.place(graph, workers)
    }

    /// Computes the assignment of `input`'s slots for this strategy.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is zero or exceeds the `u16`
    /// worker-index wire encoding.
    pub fn place<I: PlacementInput>(
        &self,
        input: &I,
        workers: usize,
    ) -> Result<PartitionMap, BspError> {
        check_workers(workers)?;
        let assignment = match self {
            PartitionStrategy::Hash => strategies::hash(input, workers),
            PartitionStrategy::Chunked => strategies::chunked(input.slots(), workers),
            PartitionStrategy::Ldg => strategies::ldg(input, workers),
            PartitionStrategy::TemporalBalance => strategies::temporal_balance(input, workers),
        };
        PartitionMap::from_assignment(assignment, workers)
    }
}

/// What a [`PartitionStrategy`] places: `slots()` dense slots, numbered
/// from 0, each with the three things some strategy reads. Hash reads
/// the key, LDG the neighbors, temporal balance the weight; chunked
/// reads only the count.
///
/// A [`TemporalGraph`]'s slots are its vertices: the key is the external
/// vertex id, the neighbors are the out-edge targets and in-edge sources,
/// and the weight is [`TemporalGraph::vertex_temporal_weight`].
pub trait PlacementInput {
    /// Number of slots to place.
    fn slots(&self) -> usize;

    /// Slot `v`'s stable key: hash placement puts it on
    /// `splitmix64(key) % workers`.
    fn key(&self, v: u32) -> u64;

    /// Calls `visit` with every neighbor of slot `v`, out-neighbors then
    /// in-neighbors, once per edge.
    fn neighbors(&self, v: u32, visit: impl FnMut(u32));

    /// Slot `v`'s temporal work: its own lifespan length plus the
    /// lifespan lengths of its out-edges, each at least 1.
    fn weight(&self, v: u32) -> u64;
}

impl PlacementInput for TemporalGraph {
    fn slots(&self) -> usize {
        self.num_vertices()
    }

    fn key(&self, v: u32) -> u64 {
        self.vertex(VIdx(v)).vid.0
    }

    fn neighbors(&self, v: u32, mut visit: impl FnMut(u32)) {
        let (out, inc) = (self.out_run(VIdx(v)), self.in_run(VIdx(v)));
        for u in out.nbr.iter().chain(inc.nbr) {
            visit(u.0);
        }
    }

    fn weight(&self, v: u32) -> u64 {
        self.vertex_temporal_weight(VIdx(v))
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

    #[test]
    fn every_strategy_refuses_only_an_unusable_worker_count() {
        let g = graphite_tgraph::fixtures::transit_graph();
        for s in PartitionStrategy::ALL {
            for workers in [0, usize::from(u16::MAX) + 1] {
                let err = s.build(&g, workers).unwrap_err();
                assert!(
                    matches!(&err, BspError::Config { detail } if detail.contains("workers")),
                    "{} × {workers}: {err:?}",
                    s.name()
                );
            }
            assert!(s.build(&g, 1).is_ok(), "{}", s.name());
        }
    }
}
