//! The in-tree placement strategies.
//!
//! All strategies are deterministic functions of `(graph, workers)`:
//! vertices are streamed in dense `VIdx` order (load order is already
//! canonicalized by the builder), scores use integer arithmetic, and every
//! tie breaks toward the lowest worker index. No ambient randomness, no
//! unordered iteration. An [`ExplicitAssignment`] is trivially
//! deterministic — it replays a pinned table. Hash placement is
//! [`PartitionMap::hash`] itself, the placement the BSP substrate has
//! always used.

use graphite_bsp::error::BspError;
use graphite_bsp::partition::PartitionMap;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::collections::BTreeMap;

/// Contiguous `VIdx` ranges of near-equal size: the first `n % workers`
/// workers own one extra vertex. Perfect vertex-count balance and maximal
/// index locality, but oblivious to topology and lifespans — the locality
/// baseline.
pub(crate) fn chunked(graph: &TemporalGraph, workers: usize) -> Result<PartitionMap, BspError> {
    let n = graph.num_vertices();
    let mut assignment = Vec::with_capacity(n);
    let base = n / workers.max(1);
    let extra = n % workers.max(1);
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        assignment.resize(assignment.len() + size, w as u16);
    }
    debug_assert_eq!(assignment.len(), n);
    PartitionMap::from_assignment(assignment, workers)
}

/// Linear deterministic greedy (LDG) streaming partitioner, after
/// Stanton & Kliot: each vertex goes to the worker that already holds the
/// most of its neighbors, discounted by how full that worker is. With
/// capacity `C = ceil(n / workers)` and `size_w` vertices already on `w`,
/// the (integer) score is `(neighbors_on_w + 1) * (C - size_w)`; the
/// lowest-indexed maximal worker wins. The `+ 1` makes isolated vertices
/// prefer emptier workers, which keeps counts balanced without a separate
/// fallback rule.
pub(crate) fn ldg(graph: &TemporalGraph, workers: usize) -> Result<PartitionMap, BspError> {
    let n = graph.num_vertices();
    let capacity = n.div_ceil(workers.max(1)).max(1) as u64;
    let mut assignment: Vec<u16> = Vec::with_capacity(n);
    let mut sizes = vec![0u64; workers];
    let mut neighbor_hits = vec![0u64; workers];
    for v in graph.vertex_indices() {
        neighbor_hits.fill(0);
        // Both directions: messages flow along out-edges, but placing
        // a vertex near its in-neighbors cuts the same wires.
        for &e in graph.out_edges(v) {
            let u = graph.edge(e).dst;
            if u.idx() < assignment.len() {
                neighbor_hits[assignment[u.idx()] as usize] += 1;
            }
        }
        for &e in graph.in_edges(v) {
            let u = graph.edge(e).src;
            if u.idx() < assignment.len() {
                neighbor_hits[assignment[u.idx()] as usize] += 1;
            }
        }
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
    PartitionMap::from_assignment(assignment, workers)
}

/// Balances *interval-weighted* load: each vertex weighs its own lifespan
/// length plus the lifespan lengths of its out-edges
/// ([`TemporalGraph::vertex_temporal_weight`]), and vertices are placed by
/// longest-processing-time greedy — heaviest first, each onto the
/// currently lightest worker. Workers end up with equal temporal work,
/// not equal vertex counts, which is what an interval-centric engine's
/// compute time actually tracks under skewed (bursty, power-law)
/// lifespans.
pub(crate) fn temporal_balance(
    graph: &TemporalGraph,
    workers: usize,
) -> Result<PartitionMap, BspError> {
    let n = graph.num_vertices();
    let mut order: Vec<(u64, u32)> = graph
        .vertex_indices()
        .map(|v| (graph.vertex_temporal_weight(v), v.0))
        .collect();
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
    PartitionMap::from_assignment(assignment, workers)
}

/// A pinned external-vid → worker table, the payload of
/// [`crate::PartitionStrategy::Explicit`]. This is how `partition_report
/// --trace` rebalancer output is fed back into a live run: the report
/// emits the recommended assignment as text (`--emit-assignment`), and
/// the CLI / serving layer parses it back into one of these.
///
/// The table may cover a superset of the graph (entries for vids the
/// graph does not contain are ignored at build time), but every vertex of
/// the graph must be covered — a partial table is a configuration error,
/// never a silent fallback placement.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ExplicitAssignment {
    by_vid: BTreeMap<u64, u16>,
}

impl ExplicitAssignment {
    /// Builds a table from `(vid, worker)` pairs; a vid listed twice keeps
    /// the last entry (rebalancer emissions append refinements).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (VertexId, u16)>) -> Self {
        ExplicitAssignment {
            by_vid: pairs.into_iter().map(|(v, w)| (v.0, w)).collect(),
        }
    }

    /// Captures an existing [`PartitionMap`] over `graph` — e.g. the
    /// output of [`crate::rebalance::rebalance`] — as a reusable table.
    pub fn from_map(graph: &TemporalGraph, map: &PartitionMap) -> Self {
        ExplicitAssignment {
            by_vid: graph
                .vertex_indices()
                .map(|v| (graph.vertex(v).vid.0, map.worker_of(v) as u16))
                .collect(),
        }
    }

    /// Parses the `--emit-assignment` text format: one `vid worker` pair
    /// per line, `#` starts a comment, blank lines ignored.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] on any malformed line.
    pub fn parse(text: &str) -> Result<Self, BspError> {
        let mut by_vid = BTreeMap::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (vid, worker) = match (parts.next(), parts.next(), parts.next()) {
                (Some(v), Some(w), None) => (v, w),
                _ => {
                    return Err(BspError::Config {
                        detail: format!(
                            "assignment line {}: want `vid worker`, got {raw:?}",
                            ln + 1
                        ),
                    })
                }
            };
            let vid: u64 = vid.parse().map_err(|_| BspError::Config {
                detail: format!("assignment line {}: bad vid {vid:?}", ln + 1),
            })?;
            let worker: u16 = worker.parse().map_err(|_| BspError::Config {
                detail: format!("assignment line {}: bad worker {worker:?}", ln + 1),
            })?;
            by_vid.insert(vid, worker);
        }
        Ok(ExplicitAssignment { by_vid })
    }

    /// Renders the table in the format [`ExplicitAssignment::parse`]
    /// accepts, vids ascending.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# graphite explicit assignment: vid worker\n");
        for (vid, worker) in &self.by_vid {
            out.push_str(&format!("{vid} {worker}\n"));
        }
        out
    }

    /// Number of `(vid, worker)` entries.
    pub fn len(&self) -> usize {
        self.by_vid.len()
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.by_vid.is_empty()
    }

    /// The minimum worker count this table requires (max worker index
    /// + 1); 0 for an empty table.
    pub fn workers_required(&self) -> usize {
        self.by_vid
            .values()
            .map(|&w| usize::from(w) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Replays the table over `graph` — the feedback half of the
    /// rebalancing loop (DESIGN.md §13): measure skew with
    /// `partition_report --trace`, emit the recommended assignment, run
    /// under it.
    pub(crate) fn replay(
        &self,
        graph: &TemporalGraph,
        workers: usize,
    ) -> Result<PartitionMap, BspError> {
        let mut assignment = Vec::with_capacity(graph.num_vertices());
        for v in graph.vertex_indices() {
            let vid = graph.vertex(v).vid;
            let Some(&w) = self.by_vid.get(&vid.0) else {
                return Err(BspError::Config {
                    detail: format!(
                        "explicit assignment does not cover vertex {} ({} entries)",
                        vid.0,
                        self.len()
                    ),
                });
            };
            if usize::from(w) >= workers {
                return Err(BspError::Config {
                    detail: format!(
                        "explicit assignment places vertex {} on worker {w}, \
                         but the run has {workers} workers",
                        vid.0
                    ),
                });
            }
            assignment.push(w);
        }
        PartitionMap::from_assignment(assignment, workers)
    }
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
    fn explicit_replays_pinned_assignments_and_rejects_bad_ones() {
        let g = skewed_star(10); // 11 vertices; LPT over 3 workers uses all 3
        let temporal = PartitionStrategy::TemporalBalance.build(&g, 3).unwrap();
        let table = ExplicitAssignment::from_map(&g, &temporal);
        assert_eq!(table.len(), g.num_vertices());
        assert_eq!(table.workers_required(), 3);

        // Text format round-trips, and the replayed map is bit-identical.
        let parsed = ExplicitAssignment::parse(&table.to_text()).unwrap();
        assert_eq!(table, parsed);
        let replay = PartitionStrategy::explicit(parsed).build(&g, 3).unwrap();
        for v in g.vertex_indices() {
            assert_eq!(replay.worker_of(v), temporal.worker_of(v));
        }

        // Partial coverage is a typed Config error, not a fallback.
        let partial = ExplicitAssignment::from_pairs([(VertexId(0), 0u16)]);
        assert!(matches!(
            PartitionStrategy::explicit(partial).build(&g, 3),
            Err(BspError::Config { .. })
        ));
        // A table needing more workers than the run has is rejected too.
        let oob = ExplicitAssignment::from_map(&g, &temporal);
        assert!(matches!(
            PartitionStrategy::explicit(oob).build(&g, 2),
            Err(BspError::Config { .. })
        ));

        // Malformed text is rejected; comments and blanks are not.
        assert!(ExplicitAssignment::parse("1 2 3").is_err());
        assert!(ExplicitAssignment::parse("x 1").is_err());
        assert!(ExplicitAssignment::parse("1 worker").is_err());
        let empty = ExplicitAssignment::parse("# comment only\n\n").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.workers_required(), 0);
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
