//! The in-tree placement strategies.
//!
//! All strategies are deterministic functions of `(input, workers)`:
//! slots are streamed in dense order (a graph's load order is already
//! canonicalized by the builder), scores use integer arithmetic, and every
//! tie breaks toward the lowest worker index. No ambient randomness, no
//! unordered iteration. Each returns the assignment, one worker per slot;
//! [`crate::PartitionStrategy::place`] has checked `workers` (at least 1,
//! at most `u16::MAX`) before any of them runs.

use crate::PlacementInput;
use graphite_bsp::partition::{splitmix64, PartitionMap};
use graphite_tgraph::graph::TemporalGraph;

/// `splitmix64(key) % workers` per slot: for a graph, the placement the
/// BSP substrate has always used ([`PartitionMap::hash`]).
pub(crate) fn hash<I: PlacementInput>(input: &I, workers: usize) -> Vec<u16> {
    let slots = input.slots() as u32;
    (0..slots)
        .map(|v| (splitmix64(input.key(v)) % workers as u64) as u16)
        .collect()
}

/// Contiguous ranges of near-equal size over `n` dense slots: the first
/// `n % workers` workers own one extra slot. Perfect count balance and
/// maximal index locality, but oblivious to topology and lifespans — the
/// locality baseline.
pub(crate) fn chunked(n: usize, workers: usize) -> Vec<u16> {
    let mut assignment = Vec::with_capacity(n);
    let base = n / workers;
    let extra = n % workers;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        assignment.resize(assignment.len() + size, w as u16);
    }
    debug_assert_eq!(assignment.len(), n);
    assignment
}

/// Linear deterministic greedy (LDG) streaming partitioner, after
/// Stanton & Kliot: each slot goes to the worker that already holds the
/// most of its neighbors, discounted by how full that worker is. With
/// capacity `C = ceil(n / workers)` and `size_w` slots already on `w`,
/// the (integer) score is `(neighbors_on_w + 1) * (C - size_w)`; the
/// lowest-indexed maximal worker wins. The `+ 1` makes isolated slots
/// prefer emptier workers, which keeps counts balanced without a separate
/// fallback rule.
pub(crate) fn ldg<I: PlacementInput>(input: &I, workers: usize) -> Vec<u16> {
    let n = input.slots();
    let capacity = n.div_ceil(workers).max(1) as u64;
    let mut assignment: Vec<u16> = Vec::with_capacity(n);
    let mut sizes = vec![0u64; workers];
    let mut neighbor_hits = vec![0u64; workers];
    for v in 0..n as u32 {
        neighbor_hits.fill(0);
        // Both directions: messages flow along out-edges, but placing
        // a slot near its in-neighbors cuts the same wires.
        input.neighbors(v, |u| {
            if let Some(&w) = assignment.get(u as usize) {
                neighbor_hits[w as usize] += 1;
            }
        });
        let mut best_w = 0usize;
        let mut best_score = 0u64;
        for w in 0..workers {
            let score = (neighbor_hits[w] + 1) * capacity.saturating_sub(sizes[w]);
            if score > best_score {
                best_score = score;
                best_w = w;
            }
        }
        if best_score == 0 {
            // All workers at capacity (only possible through rounding
            // at the very end of the stream): least-loaded wins.
            best_w = (0..workers).min_by_key(|&w| (sizes[w], w)).unwrap_or(0);
        }
        assignment.push(best_w as u16);
        sizes[best_w] += 1;
    }
    assignment
}

/// Balances *interval-weighted* load: each slot weighs
/// [`PlacementInput::weight`] (for a graph's vertex, its own lifespan
/// length plus the lifespan lengths of its out-edges), and slots are
/// placed by longest-processing-time greedy — heaviest first, each onto
/// the currently lightest worker. Workers end up with equal temporal
/// work, not equal slot counts, which is what an interval-centric
/// engine's compute time actually tracks under skewed (bursty,
/// power-law) lifespans.
pub(crate) fn temporal_balance<I: PlacementInput>(input: &I, workers: usize) -> Vec<u16> {
    let n = input.slots();
    let mut order: Vec<(u64, u32)> = (0..n as u32).map(|v| (input.weight(v), v)).collect();
    // Heaviest first; equal weights keep dense-index order.
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut loads = vec![0u128; workers];
    let mut assignment = vec![0u16; n];
    for (weight, v) in order {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .unwrap_or_default();
        assignment[v as usize] = w as u16;
        loads[w] += u128::from(weight);
    }
    assignment
}

/// Shared helper for tests and stats: per-worker interval weight under an
/// assignment.
pub(crate) fn interval_loads(graph: &TemporalGraph, map: &PartitionMap) -> Vec<u128> {
    let mut loads = vec![0u128; map.workers()];
    for v in graph.vertex_indices() {
        loads[map.worker_of(v)] += u128::from(graph.vertex_temporal_weight(v));
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionStrategy;
    use graphite_bsp::partition::hash_partition;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{VIdx, VertexId};
    use graphite_tgraph::time::Interval;

    /// A star graph with one long-lived hub and many short-lived leaves:
    /// maximal temporal skew in a tiny package.
    fn skewed_star(leaves: u64) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(0), Interval::new(0, 1000)).unwrap();
        for i in 1..=leaves {
            b.add_vertex(VertexId(i), Interval::new(0, 2)).unwrap();
            b.add_edge(
                graphite_tgraph::graph::EdgeId(i),
                VertexId(0),
                VertexId(i),
                Interval::new(0, 2),
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn every_strategy_is_total_and_deterministic() {
        let g = skewed_star(40);
        for s in PartitionStrategy::ALL {
            for workers in [1usize, 3, 7] {
                let a = s.build(&g, workers).unwrap();
                let b = s.build(&g, workers).unwrap();
                assert_eq!(a.workers(), workers);
                let owned: usize = (0..workers).map(|w| a.owned_count(w)).sum();
                assert_eq!(owned, g.num_vertices(), "{} loses vertices", s.name());
                for v in g.vertex_indices() {
                    assert_eq!(a.worker_of(v), b.worker_of(v), "{} not stable", s.name());
                }
            }
        }
    }

    #[test]
    fn hash_strategy_matches_legacy_placement() {
        let g = skewed_star(25);
        let p = PartitionStrategy::Hash.build(&g, 4).unwrap();
        for v in g.vertex_indices() {
            assert_eq!(p.worker_of(v), hash_partition(g.vertex(v).vid, 4));
        }
    }

    #[test]
    fn chunked_is_contiguous_and_exactly_balanced() {
        let g = skewed_star(10); // 11 vertices
        let p = PartitionStrategy::Chunked.build(&g, 4).unwrap();
        let mut load = p.load();
        // 11 over 4 => sizes 3,3,3,2.
        load.sort_unstable();
        assert_eq!(load, vec![2, 3, 3, 3]);
        // Worker index is non-decreasing in VIdx order (contiguity).
        let seq: Vec<usize> = g.vertex_indices().map(|v| p.worker_of(v)).collect();
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "{seq:?}");
    }

    #[test]
    fn ldg_respects_capacity_and_prefers_neighbors() {
        let g = skewed_star(39); // 40 vertices, capacity ceil(40/4)=10
        let p = PartitionStrategy::Ldg.build(&g, 4).unwrap();
        for w in 0..4 {
            assert!(p.owned_count(w) <= 10, "worker {w} over capacity");
        }
        // The hub's worker should hold a full share of its leaves.
        let hub_w = p.worker_of(VIdx(0));
        assert!(p.owned_count(hub_w) >= 9);
    }

    #[test]
    fn temporal_balance_beats_hash_on_interval_weight() {
        let g = skewed_star(60);
        let workers = 4;
        let spread = |loads: &[u128]| {
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            max - min
        };
        let hash = PartitionStrategy::Hash.build(&g, workers).unwrap();
        let temporal = PartitionStrategy::TemporalBalance
            .build(&g, workers)
            .unwrap();
        let hash_spread = spread(&interval_loads(&g, &hash));
        let temporal_spread = spread(&interval_loads(&g, &temporal));
        assert!(
            temporal_spread < hash_spread,
            "temporal spread {temporal_spread} not better than hash {hash_spread}"
        );
    }
}
