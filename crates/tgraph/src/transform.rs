//! The transformed (time-expanded) graph of Wu et al. (Sec. I, Fig. 1(b);
//! Sec. VII-A3, "TGB").
//!
//! Interval vertices are unrolled into *replicas*, one per time-point at
//! which the vertex has an incoming arrival or outgoing departure. Replicas
//! of the same vertex are chained in time order by zero-cost *waiting*
//! edges (in TGB these carry the shared state between replicas), and each
//! temporal edge `(u, v)` that can be initiated at time `t` with travel
//! time `δ` and cost `c` becomes a *transit* edge `u_t → v_{t+δ}` with
//! weight `c`.
//!
//! The transformation is algorithm-family specific; this module implements
//! the path-family transformation used by SSSP/EAT/FAST/LD/TMST/RH, which is
//! what the paper evaluates TGB on.

use crate::graph::{TemporalGraph, VIdx};
use crate::property::PropValue;
use crate::snapshot::snapshot_window;
use crate::time::{Interval, Time, TIME_MIN};
use std::collections::HashMap;

/// How a transformed edge came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformedEdgeKind {
    /// Chains consecutive replicas of the same vertex; weight 0. In the TGB
    /// baseline, traffic over these models the replica state-transfer
    /// messages the paper charges to TGB.
    Waiting,
    /// A temporal edge instance departing at the source replica's
    /// time-point.
    Transit,
}

/// An edge of the transformed graph.
#[derive(Clone, Copy, Debug)]
pub struct TransformedEdge {
    /// Destination replica index.
    pub dst: u32,
    /// Edge weight (travel cost for transit edges, 0 for waiting edges).
    pub weight: i64,
    /// Waiting or transit.
    pub kind: TransformedEdgeKind,
}

/// Options controlling the path-family transformation.
#[derive(Clone, Debug)]
pub struct TransformOptions {
    /// Edge property holding the travel time; edges lacking it use
    /// [`TransformOptions::default_travel_time`].
    pub travel_time_label: String,
    /// Edge property holding the travel cost; edges lacking it use weight 0.
    pub travel_cost_label: String,
    /// Fallback travel time.
    pub default_travel_time: i64,
    /// Bounded window to unroll; defaults to [`snapshot_window`].
    pub window: Option<Interval>,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            travel_time_label: "travel-time".to_owned(),
            travel_cost_label: "travel-cost".to_owned(),
            default_travel_time: 1,
            window: None,
        }
    }
}

/// A static, weighted, time-expanded digraph plus the mapping back to
/// `(original vertex, time-point)` pairs.
#[derive(Clone, Debug)]
pub struct TransformedGraph {
    /// `replicas[i] = (original vertex, time-point)`; sorted by
    /// `(vertex, time)` so one vertex's replicas are contiguous.
    pub replicas: Vec<(VIdx, Time)>,
    /// CSR offsets into [`TransformedGraph::edges`], one slot per replica
    /// plus a terminator.
    pub offsets: Vec<u32>,
    /// All transformed edges, grouped by source replica.
    pub edges: Vec<TransformedEdge>,
    /// Start of each original vertex's replica run in
    /// [`TransformedGraph::replicas`] (index by `VIdx`), plus a terminator.
    pub replica_runs: Vec<u32>,
    /// Reverse-CSR offsets, one slot per replica plus a terminator.
    pub rev_offsets: Vec<u32>,
    /// Reverse edges grouped by destination replica; each entry's `dst`
    /// field holds the *source* replica (needed by reverse-traversing
    /// algorithms such as Latest Departure).
    pub rev_edges: Vec<TransformedEdge>,
}

impl TransformedGraph {
    /// Number of replica vertices.
    pub fn num_vertices(&self) -> usize {
        self.replicas.len()
    }

    /// Number of transformed edges (waiting + transit).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of transit (non-waiting) edges.
    pub fn num_transit_edges(&self) -> usize {
        self.edges
            .iter()
            .filter(|e| e.kind == TransformedEdgeKind::Transit)
            .count()
    }

    /// Out-edges of replica `r`.
    pub fn out_edges(&self, r: u32) -> &[TransformedEdge] {
        &self.edges[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize]
    }

    /// In-edges of replica `r`; each entry's `dst` is the source replica.
    pub fn in_edges(&self, r: u32) -> &[TransformedEdge] {
        &self.rev_edges
            [self.rev_offsets[r as usize] as usize..self.rev_offsets[r as usize + 1] as usize]
    }

    /// The replicas of original vertex `v`, as `(replica index, time)`.
    pub fn replicas_of(&self, v: VIdx) -> impl Iterator<Item = (u32, Time)> + '_ {
        let s = self.replica_runs[v.idx()];
        let e = self.replica_runs[v.idx() + 1];
        (s..e).map(move |r| (r, self.replicas[r as usize].1))
    }
}

/// Builds the time-expanded graph for path algorithms.
///
/// # Panics
/// Panics when no bounded window can be derived and none is supplied.
pub fn transform_for_paths(graph: &TemporalGraph, opts: &TransformOptions) -> TransformedGraph {
    let window = opts
        .window
        .or_else(|| snapshot_window(graph))
        .expect("transformation needs a bounded window");
    let tt_label = graph.label(&opts.travel_time_label);
    let tc_label = graph.label(&opts.travel_cost_label);

    // Pass 1: collect the replica time-points per vertex — departures at
    // the source, arrivals at the sink.
    let n = graph.num_vertices();
    let mut times: Vec<Vec<Time>> = vec![Vec::new(); n];
    let mut transit: Vec<(VIdx, Time, VIdx, Time, i64)> = Vec::new(); // (u, t_dep, v, t_arr, cost)
    for (e, ed) in graph.edges() {
        let Some(active) = ed.lifespan.intersect(window) else {
            continue;
        };
        for t in active.points() {
            let tt = tt_label
                .and_then(|l| graph.edge_property_at(e, l, t))
                .and_then(PropValue::as_long)
                .unwrap_or(opts.default_travel_time);
            let cost = tc_label
                .and_then(|l| graph.edge_property_at(e, l, t))
                .and_then(PropValue::as_long)
                .unwrap_or(0);
            let arr = t.saturating_add(tt);
            times[ed.src.idx()].push(t);
            times[ed.dst.idx()].push(arr);
            transit.push((ed.src, t, ed.dst, arr, cost));
        }
    }

    // Dedup/sort replica times; build the global replica table.
    let mut replicas: Vec<(VIdx, Time)> = Vec::new();
    let mut replica_runs: Vec<u32> = Vec::with_capacity(n + 1);
    replica_runs.push(0);
    let mut index: HashMap<(u32, Time), u32> = HashMap::new();
    for (v, ts) in times.iter_mut().enumerate() {
        ts.sort_unstable();
        ts.dedup();
        for &t in ts.iter() {
            index.insert((v as u32, t), replicas.len() as u32);
            replicas.push((VIdx(v as u32), t));
        }
        replica_runs.push(replicas.len() as u32);
    }

    // Pass 2: emit edges. Waiting edges chain each vertex's replicas;
    // transit edges connect departure to arrival replicas.
    let mut adjacency: Vec<Vec<TransformedEdge>> = vec![Vec::new(); replicas.len()];
    for v in 0..n {
        let s = replica_runs[v] as usize;
        let e = replica_runs[v + 1] as usize;
        #[expect(
            clippy::needless_range_loop,
            reason = "r + 1 is also needed as the waiting edge's target"
        )]
        for r in s..e.saturating_sub(1) {
            adjacency[r].push(TransformedEdge {
                dst: (r + 1) as u32,
                weight: 0,
                kind: TransformedEdgeKind::Waiting,
            });
        }
    }
    for (u, t_dep, v, t_arr, cost) in transit {
        let src = index[&(u.0, t_dep)];
        if let Some(&dst) = index.get(&(v.0, t_arr)) {
            adjacency[src as usize].push(TransformedEdge {
                dst,
                weight: cost,
                kind: TransformedEdgeKind::Transit,
            });
        }
        // Arrivals past the window's replica set are dropped: the journey
        // cannot continue inside the analysis window. (The arrival replica
        // always exists when t_arr was recorded in pass 1, which is always —
        // so this branch only guards pathological saturating adds.)
    }

    let mut offsets = Vec::with_capacity(replicas.len() + 1);
    let mut edges: Vec<TransformedEdge> = Vec::new();
    offsets.push(0u32);
    for adj in &adjacency {
        edges.extend(adj.iter().copied());
        offsets.push(edges.len() as u32);
    }

    // Reverse CSR for backward traversals.
    let mut rev_adjacency: Vec<Vec<TransformedEdge>> = vec![Vec::new(); replicas.len()];
    for (src, adj) in adjacency.iter().enumerate() {
        for e in adj {
            rev_adjacency[e.dst as usize].push(TransformedEdge {
                dst: src as u32,
                weight: e.weight,
                kind: e.kind,
            });
        }
    }
    let mut rev_offsets = Vec::with_capacity(replicas.len() + 1);
    let mut rev_edges: Vec<TransformedEdge> = Vec::new();
    rev_offsets.push(0u32);
    for adj in rev_adjacency {
        rev_edges.extend(adj);
        rev_offsets.push(rev_edges.len() as u32);
    }

    TransformedGraph {
        replicas,
        offsets,
        edges,
        replica_runs,
        rev_offsets,
        rev_edges,
    }
}

/// Internal guard: `Time::MIN` would wrap under `t + travel_time`. The
/// transformation never sees it because windows are bounded, but keep the
/// invariant visible.
const _: () = assert!(TIME_MIN < 0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{transit_graph, transit_ids};

    fn transit_transformed() -> (TemporalGraph, TransformedGraph) {
        let g = transit_graph();
        let tg = transform_for_paths(&g, &TransformOptions::default());
        (g, tg)
    }

    use crate::graph::TemporalGraph;

    #[test]
    fn replicas_cover_departures_and_arrivals() {
        let (g, tg) = transit_transformed();
        let a = g.vertex_index(transit_ids::A).unwrap();
        // A departs at 1,2 (A->C), 1,2,3 (A->D), 3,4,5 (A->B): {1,2,3,4,5}.
        let a_times: Vec<Time> = tg.replicas_of(a).map(|(_, t)| t).collect();
        assert_eq!(a_times, vec![1, 2, 3, 4, 5]);
        let b = g.vertex_index(transit_ids::B).unwrap();
        // B receives arrivals at 4,5,6 and departs at 8: {4,5,6,8}.
        let b_times: Vec<Time> = tg.replicas_of(b).map(|(_, t)| t).collect();
        assert_eq!(b_times, vec![4, 5, 6, 8]);
    }

    #[test]
    fn transformed_graph_is_larger_than_interval_graph() {
        let (g, tg) = transit_transformed();
        assert!(tg.num_vertices() > g.num_vertices());
        assert!(tg.num_edges() > g.num_edges());
        // Every temporal edge instance appears exactly once as transit.
        // A->B: 3 points, A->C: 2, A->D: 3, B->E: 1, C->E: 2, E->F: 3 = 14.
        assert_eq!(tg.num_transit_edges(), 14);
    }

    #[test]
    fn waiting_edges_chain_replicas() {
        let (g, tg) = transit_transformed();
        let a = g.vertex_index(transit_ids::A).unwrap();
        let replicas: Vec<u32> = tg.replicas_of(a).map(|(r, _)| r).collect();
        for w in replicas.windows(2) {
            let outs = tg.out_edges(w[0]);
            assert!(outs
                .iter()
                .any(|e| e.dst == w[1] && e.kind == TransformedEdgeKind::Waiting));
        }
        // The last replica has no waiting successor.
        let last = *replicas.last().unwrap();
        assert!(tg
            .out_edges(last)
            .iter()
            .all(|e| e.kind != TransformedEdgeKind::Waiting));
    }

    #[test]
    fn transit_edge_weights_follow_cost_property() {
        let (g, tg) = transit_transformed();
        let a = g.vertex_index(transit_ids::A).unwrap();
        let b = g.vertex_index(transit_ids::B).unwrap();
        // Departing A at 3 or 4 costs 4; at 5 costs 3.
        for (dep, want) in [(3, 4i64), (4, 4), (5, 3)] {
            let (r, _) = tg.replicas_of(a).find(|&(_, t)| t == dep).unwrap();
            let transit: Vec<&TransformedEdge> = tg
                .out_edges(r)
                .iter()
                .filter(|e| e.kind == TransformedEdgeKind::Transit)
                .filter(|e| tg.replicas[e.dst as usize].0 == b)
                .collect();
            assert_eq!(transit.len(), 1);
            assert_eq!(transit[0].weight, want, "departure at {dep}");
            assert_eq!(tg.replicas[transit[0].dst as usize].1, dep + 1);
        }
    }

    #[test]
    fn shortest_path_over_transformed_matches_paper() {
        // Dijkstra from A's earliest replica should find cost 5 to reach E
        // (A@5 -> B@6, cost 3; wait; B@8 -> E@9, cost 2) and cost 7 via C.
        let (g, tg) = transit_transformed();
        let a = g.vertex_index(transit_ids::A).unwrap();
        let e_v = g.vertex_index(transit_ids::E).unwrap();
        // Plain Bellman-Ford over the small graph (weights are small,
        // non-negative).
        let n = tg.num_vertices();
        let mut dist = vec![i64::MAX; n];
        for (r, _) in tg.replicas_of(a) {
            // Starting at time 0, we can wait at A until any departure.
            dist[r as usize] = 0;
        }
        for _ in 0..n {
            let mut changed = false;
            for r in 0..n as u32 {
                if dist[r as usize] == i64::MAX {
                    continue;
                }
                for e in tg.out_edges(r) {
                    let nd = dist[r as usize] + e.weight;
                    if nd < dist[e.dst as usize] {
                        dist[e.dst as usize] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let costs: Vec<(Time, i64)> = tg
            .replicas_of(e_v)
            .map(|(r, t)| (t, dist[r as usize]))
            .collect();
        // E's replicas are arrivals at 6, 7 (from C) and 9 (from B).
        assert_eq!(costs.iter().find(|&&(t, _)| t == 6).unwrap().1, 7);
        assert_eq!(costs.iter().find(|&&(t, _)| t == 9).unwrap().1, 5);
        // F is unreachable.
        let f = g.vertex_index(transit_ids::F).unwrap();
        assert!(tg.replicas_of(f).all(|(r, _)| dist[r as usize] == i64::MAX));
    }

    #[test]
    fn windowed_transform_restricts_unrolling() {
        let g = transit_graph();
        let opts = TransformOptions {
            window: Some(Interval::new(0, 4)),
            ..Default::default()
        };
        let tg = transform_for_paths(&g, &opts);
        // Only departures in [0,4) are unrolled: A->C@{1,2}, A->D@{1,2,3},
        // A->B@{3}, E->F@{2,3}.
        assert_eq!(tg.num_transit_edges(), 8);
    }
}
