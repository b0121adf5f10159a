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
//! A platform places either the vertices of a graph
//! ([`PartitionStrategy::build`]: ICM, and the snapshots of MSB, Chlonos
//! and GoFFish) or slots that have only a stable key
//! ([`PartitionStrategy::place_keys`]: TGB's replicas, which hash and
//! chunk but have no edges or lifespans for LDG and temporal balance to
//! read). [`RunConfig`] — workers, placement and the substrate options,
//! recovery among them — is the one configuration of a run that all five
//! platforms embed.
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
use graphite_bsp::partition::{splitmix64, PartitionMap};
use graphite_tgraph::graph::TemporalGraph;

/// The configuration of one run, shared by all five platforms: ICM's
/// `IcmConfig`, the vertex-centric core's `run_vcm` (and through it MSB
/// and TGB), Chlonos and GoFFish each embed it beside their own extras,
/// and the registry lowers its `RunOpts` onto it in one function.
///
/// Every platform honours every field over its whole run: MSB, Chlonos
/// and GoFFish walk their snapshots, batches or time-points as the
/// phases of one BSP run, so the superstep cap and budget, the fault
/// plan, the schedule perturbation, recovery and the trace all count the
/// whole walk. One exception remains: TGB places replicas by key, so
/// [`PartitionStrategy::Ldg`] and [`PartitionStrategy::TemporalBalance`]
/// are a [`BspError::Config`] there ([`PartitionStrategy::place_keys`]).
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
    /// Splitmix64 of the external vertex id (of the key, for keyed slots),
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

    /// Computes the assignment for this strategy.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is zero or exceeds the `u16`
    /// worker-index wire encoding.
    pub fn build(&self, graph: &TemporalGraph, workers: usize) -> Result<PartitionMap, BspError> {
        match self {
            PartitionStrategy::Hash => PartitionMap::hash(graph, workers),
            PartitionStrategy::Chunked => strategies::chunked(graph.num_vertices(), workers),
            PartitionStrategy::Ldg => strategies::ldg(graph, workers),
            PartitionStrategy::TemporalBalance => strategies::temporal_balance(graph, workers),
        }
    }

    /// Places dense slots that have no graph behind them — TGB's replicas
    /// — by one stable key per slot, in slot order. Hash takes
    /// `splitmix64(key) % workers`; chunked splits the slots into
    /// contiguous ranges, ignoring the keys.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] for [`PartitionStrategy::Ldg`] and
    /// [`PartitionStrategy::TemporalBalance`], which read edges and
    /// lifespans that keyed slots do not have, and for a worker count
    /// [`PartitionStrategy::build`] would refuse.
    pub fn place_keys(
        &self,
        keys: impl ExactSizeIterator<Item = u64>,
        workers: usize,
    ) -> Result<PartitionMap, BspError> {
        match self {
            PartitionStrategy::Hash => {
                // The modulus only guards the division: zero workers is
                // refused by `from_assignment` before any entry is read.
                let modulus = workers.max(1) as u64;
                let assignment = keys.map(|k| (splitmix64(k) % modulus) as u16).collect();
                PartitionMap::from_assignment(assignment, workers)
            }
            PartitionStrategy::Chunked => strategies::chunked(keys.len(), workers),
            PartitionStrategy::Ldg | PartitionStrategy::TemporalBalance => Err(BspError::Config {
                detail: format!(
                    "the {} strategy reads a graph's edges and lifespans; \
                     keyed slots (TGB replicas) take hash or chunked",
                    self.name()
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::graph::{VIdx, VertexId};

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
    fn keyed_placement_hashes_or_chunks_and_refuses_the_rest() {
        let keys: Vec<u64> = (0..11).map(|k| k * 7919).collect();
        let hash = PartitionStrategy::Hash
            .place_keys(keys.iter().copied(), 3)
            .unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let want = graphite_bsp::partition::hash_partition(VertexId(k), 3);
            assert_eq!(hash.worker_of(VIdx(i as u32)), want);
        }
        let chunked = PartitionStrategy::Chunked
            .place_keys(keys.iter().copied(), 4)
            .unwrap();
        let seq: Vec<usize> = (0..11).map(|i| chunked.worker_of(VIdx(i))).collect();
        assert_eq!(seq, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3]);
        for s in [PartitionStrategy::Ldg, PartitionStrategy::TemporalBalance] {
            let err = s.place_keys(keys.iter().copied(), 3).unwrap_err();
            assert!(
                matches!(&err, BspError::Config { detail } if detail.contains(s.name())),
                "{err:?}"
            );
        }
        for s in [PartitionStrategy::Hash, PartitionStrategy::Chunked] {
            let err = s.place_keys(keys.iter().copied(), 0).unwrap_err();
            assert!(matches!(err, BspError::Config { .. }), "{err:?}");
        }
    }
}
