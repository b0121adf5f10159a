//! Vertex partitioning across workers.
//!
//! Giraph's default hash partitioner assigns each vertex to
//! `hash(vid) mod workers`; the paper runs all platforms with it
//! (Sec. VII-A4). We hash the *external* vertex id through splitmix64 so
//! the placement is independent of load order, and precompute a dense
//! `VIdx → worker` map once per run.
//!
//! Hashing is no longer the only way to build a [`PartitionMap`]:
//! [`PartitionMap::from_assignment`] accepts any explicit total
//! assignment, which is what the pluggable strategies in `graphite-part`
//! (chunked, LDG, temporal-balance) produce. This module and that crate
//! are the *only* places allowed to compute a worker from a vertex id, so
//! every engine routes through a [`PartitionMap`] and placement stays
//! swappable (`graphite-part`'s digest matrix runs placements that no
//! `% workers` shortcut can match).

use crate::error::BspError;
use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};

/// Finalizing mix of splitmix64 — a fast, well-distributed 64-bit hash.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The worker owning `vid` among `workers` workers.
#[inline]
pub fn hash_partition(vid: VertexId, workers: usize) -> usize {
    debug_assert!(workers > 0);
    (splitmix64(vid.0) % workers as u64) as usize
}

/// Validates a requested worker count: it must be non-zero (someone has to
/// own the vertices) and fit the `u16` worker-index wire encoding.
///
/// # Errors
///
/// [`BspError::Config`] naming the count when it is out of that range.
pub fn check_workers(workers: usize) -> Result<(), BspError> {
    if workers == 0 {
        return Err(BspError::Config {
            detail: "0 workers requested; at least 1 is required".to_string(),
        });
    }
    if workers > u16::MAX as usize {
        return Err(BspError::Config {
            detail: format!(
                "{workers} workers requested; worker indices are wire-encoded \
                 as u16, so at most {} are supported",
                u16::MAX
            ),
        });
    }
    Ok(())
}

/// A precomputed vertex → worker assignment for one graph and worker count.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    assignment: Vec<u16>,
    workers: usize,
    /// Vertices per worker, precomputed so ownership lists and per-worker
    /// buffers can be sized exactly instead of growing incrementally.
    counts: Vec<u32>,
    /// Each vertex's rank among the vertices of its own worker, in index
    /// order: a dense per-worker key (`0..owned_count`) that sorts like
    /// the vertex index, so per-worker tables need one slot per *owned*
    /// vertex instead of one per vertex of the graph.
    local: Vec<u32>,
}

impl PartitionMap {
    /// Hash-partitions `graph` over `workers` workers.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is zero or exceeds the `u16`
    /// worker-index encoding. The worker count is user-controlled input
    /// (CLI flag, config field), so the bound is a typed error rather than
    /// an assertion.
    pub fn hash(graph: &TemporalGraph, workers: usize) -> Result<Self, BspError> {
        check_workers(workers)?;
        let assignment: Vec<u16> = graph
            .vertices()
            .map(|(_, v)| hash_partition(v.vid, workers) as u16)
            .collect();
        Ok(Self::from_checked(assignment, workers))
    }

    /// Derives the per-worker counts and local ranks of an assignment
    /// whose entries are all `< workers`.
    fn from_checked(assignment: Vec<u16>, workers: usize) -> Self {
        let mut counts = vec![0u32; workers];
        let local = assignment
            .iter()
            .map(|&w| {
                let rank = counts[w as usize];
                counts[w as usize] += 1;
                rank
            })
            .collect();
        PartitionMap {
            assignment,
            workers,
            counts,
            local,
        }
    }

    /// Builds a map from an explicit per-vertex assignment (indexed by
    /// dense [`VIdx`], one entry per vertex of the graph it was computed
    /// for). This is the generalized constructor the pluggable strategies
    /// in `graphite-part` use; `hash` is equivalent to passing the
    /// splitmix64 assignment.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is out of range or any entry
    /// names a worker `>= workers` (the assignment would route messages to
    /// a worker that does not exist).
    pub fn from_assignment(assignment: Vec<u16>, workers: usize) -> Result<Self, BspError> {
        check_workers(workers)?;
        if let Some((v, &w)) = assignment
            .iter()
            .enumerate()
            .find(|&(_, &w)| w as usize >= workers)
        {
            return Err(BspError::Config {
                detail: format!(
                    "assignment maps vertex index {v} to worker {w}, but only \
                     {workers} worker(s) exist"
                ),
            });
        }
        Ok(Self::from_checked(assignment, workers))
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of assigned vertices (the graph's vertex count).
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the map covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The worker owning internal vertex `v`.
    #[inline]
    pub fn worker_of(&self, v: VIdx) -> usize {
        self.assignment[v.idx()] as usize
    }

    /// The rank of `v` among the vertices its worker owns, in index order
    /// (`owned_by(worker_of(v))[local_index(v)] == v`).
    #[inline]
    pub fn local_index(&self, v: VIdx) -> usize {
        self.local[v.idx()] as usize
    }

    /// Number of vertices owned by `worker`.
    #[inline]
    pub fn owned_count(&self, worker: usize) -> usize {
        self.counts.get(worker).map_or(0, |&c| c as usize)
    }

    /// The internal vertex indices owned by `worker`, in index order.
    pub fn owned_by(&self, worker: usize) -> Vec<VIdx> {
        let mut owned = Vec::with_capacity(self.owned_count(worker));
        owned.extend(
            self.assignment
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w as usize == worker)
                .map(|(i, _)| VIdx(i as u32)),
        );
        owned
    }

    /// Vertex counts per worker (for balance diagnostics).
    pub fn load(&self) -> Vec<usize> {
        self.counts.iter().map(|&c| c as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::time::Interval;

    fn line_graph(n: u64) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..n {
            b.add_vertex(VertexId(i), Interval::new(0, 10)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn assignment_is_stable_and_total() {
        let g = line_graph(100);
        let p = PartitionMap::hash(&g, 4).unwrap();
        assert_eq!(p.workers(), 4);
        assert_eq!(p.len(), 100);
        for v in g.vertex_indices() {
            let w = p.worker_of(v);
            assert!(w < 4);
            // Matches the direct hash of the external id.
            assert_eq!(w, hash_partition(g.vertex(v).vid, 4));
        }
        // Every vertex appears in exactly one ownership list, at the
        // position its local index names.
        let total: usize = (0..4).map(|w| p.owned_by(w).len()).sum();
        assert_eq!(total, 100);
        for w in 0..4 {
            for (rank, v) in p.owned_by(w).into_iter().enumerate() {
                assert_eq!(p.local_index(v), rank);
            }
        }
    }

    #[test]
    fn single_worker_owns_everything() {
        let g = line_graph(10);
        let p = PartitionMap::hash(&g, 1).unwrap();
        assert_eq!(p.owned_by(0).len(), 10);
    }

    #[test]
    fn hash_spreads_reasonably() {
        let g = line_graph(10_000);
        let p = PartitionMap::hash(&g, 8).unwrap();
        let load = p.load();
        let expected = 10_000 / 8;
        for (w, &l) in load.iter().enumerate() {
            assert!(
                (l as i64 - expected as i64).unsigned_abs() < expected as u64 / 2,
                "worker {w} has pathological load {l}"
            );
        }
    }

    #[test]
    fn worker_count_boundaries_are_typed_errors() {
        let g = line_graph(4);
        // Valid: 1, 2, and the u16::MAX ceiling itself.
        for workers in [1usize, 2, u16::MAX as usize - 1, u16::MAX as usize] {
            let p = PartitionMap::hash(&g, workers).unwrap();
            assert_eq!(p.workers(), workers);
        }
        // Invalid: zero and one past the ceiling — typed errors, no panic.
        for workers in [0usize, u16::MAX as usize + 1] {
            let e = PartitionMap::hash(&g, workers).unwrap_err();
            assert!(matches!(e, BspError::Config { .. }), "got {e:?}");
            assert!(!e.is_recoverable());
            assert!(e.to_string().contains("worker"));
        }
    }

    #[test]
    fn from_assignment_matches_hash_and_validates() {
        let g = line_graph(50);
        let hashed = PartitionMap::hash(&g, 3).unwrap();
        let explicit: Vec<u16> = g
            .vertex_indices()
            .map(|v| hashed.worker_of(v) as u16)
            .collect();
        let rebuilt = PartitionMap::from_assignment(explicit, 3).unwrap();
        assert_eq!(rebuilt.load(), hashed.load());
        for v in g.vertex_indices() {
            assert_eq!(rebuilt.worker_of(v), hashed.worker_of(v));
        }
        // Out-of-range worker index is a typed error naming the vertex.
        let e = PartitionMap::from_assignment(vec![0, 1, 3], 3).unwrap_err();
        assert!(matches!(e, BspError::Config { .. }), "got {e:?}");
        assert!(e.to_string().contains('3'));
        // Worker-count bounds apply here too.
        assert!(PartitionMap::from_assignment(vec![], 0).is_err());
        assert!(PartitionMap::from_assignment(vec![], u16::MAX as usize + 1).is_err());
    }

    #[test]
    fn splitmix_distinguishes_consecutive_keys() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xff, b & 0xff, "low bits should differ for 1 vs 2");
    }
}
