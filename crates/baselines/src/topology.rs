//! [`VcmTopology`] adapters — a temporal graph frozen at one time-point
//! (the snapshot MSB, Chlonos and GoFFish all execute on) and the
//! time-expanded transformed graph (for TGB) — plus what the three
//! snapshot platforms share beyond it: the window they walk, the
//! static-topology reuse rule, and their one result type.

use crate::vcm::{VcmEdge, VcmTopology};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::RunMetrics;
use graphite_bsp::partition::{splitmix64, PartitionMap};
use graphite_part::{PartitionStrategy, PlacementInput};
use graphite_tgraph::graph::{AdjRun, EIdx, TemporalGraph, VIdx, VertexId};
use graphite_tgraph::property::{LabelId, PropValue};
use graphite_tgraph::snapshot::{is_topology_static, snapshot_window};
use graphite_tgraph::time::{Interval, Time, TIME_MAX, TIME_MIN};
use graphite_tgraph::transform::{TransformedEdgeKind, TransformedGraph};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Which edge properties to resolve into [`VcmEdge::w1`] / [`VcmEdge::w2`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeWeights {
    /// Property resolved into `w1` (e.g. travel cost); missing → 0.
    pub w1: Option<LabelId>,
    /// Property resolved into `w2` (e.g. travel time); missing → 1.
    pub w2: Option<LabelId>,
}

/// A temporal graph restricted to a single time-point: the snapshot the
/// multi-snapshot baselines execute on, loaded once the way a Giraph MSB
/// loads each snapshot. Dense indices coincide with the temporal graph's
/// internal vertex indices.
///
/// Construction builds a flat CSR of the edges alive at `t`, in exactly
/// the order of [`TemporalGraph::out_edges`], so message order (and with
/// it any order-sensitive fold, such as PageRank's `f64` sum) is the one
/// a per-call scan would give. The in-adjacency is built on the first
/// in-edge lookup, so forward-only programs never pay for it. Edge
/// properties are resolved only for the labels `weights` names; without
/// one, every edge carries the defaults `w1 = 0`, `w2 = 1` and no edge
/// row is read.
pub struct SnapshotTopology {
    graph: Arc<TemporalGraph>,
    t: Time,
    weights: EdgeWeights,
    out: SnapshotCsr,
    inc: OnceLock<SnapshotCsr>,
}

/// One direction of a snapshot's adjacency: the live edges of vertex `v`
/// are `edges[offsets[v]..offsets[v + 1]]`.
struct SnapshotCsr {
    offsets: Vec<u32>,
    edges: Vec<VcmEdge>,
}

impl SnapshotCsr {
    /// Collects, per vertex, the edges of `run(v)` alive at `t`, in run
    /// order. A counting pass over the span column first sizes both
    /// columns exactly, so building a snapshot never reallocates and the
    /// snapshot holds no spare capacity.
    fn build<'g>(
        graph: &'g TemporalGraph,
        t: Time,
        weights: EdgeWeights,
        run: impl Fn(VIdx) -> AdjRun<'g>,
    ) -> Self {
        let n = graph.num_vertices() as u32;
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0);
        let mut total = 0;
        for v in 0..n {
            total += alive(run(VIdx(v)), t).count() as u32;
            offsets.push(total);
        }
        let mut edges = Vec::with_capacity(total as usize);
        for v in 0..n {
            let run = run(VIdx(v));
            edges.extend(alive(run, t).map(|i| {
                let (w1, w2) = weights.resolve(graph, run.edges[i], t);
                VcmEdge {
                    target: run.nbr[i].0,
                    w1,
                    w2,
                    kind: 0,
                }
            }));
        }
        SnapshotCsr { offsets, edges }
    }

    fn of(&self, v: u32) -> &[VcmEdge] {
        let v = v as usize;
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The positions in `run` of the edges alive at `t`, in run order. A run
/// is start-sorted, so the scan stops at the first edge starting after `t`.
fn alive(run: AdjRun<'_>, t: Time) -> impl Iterator<Item = usize> + '_ {
    run.span
        .iter()
        .take_while(move |span| span.start() <= t)
        .enumerate()
        .filter(move |(_, span)| span.contains_point(t))
        .map(|(i, _)| i)
}

impl EdgeWeights {
    /// The `(w1, w2)` payload of edge `e` at `t`: the named properties'
    /// values, else the defaults 0 and 1. The edge's properties are read
    /// only when a label is named.
    fn resolve(self, graph: &TemporalGraph, e: EIdx, t: Time) -> (i64, i64) {
        if self.w1.is_none() && self.w2.is_none() {
            return (0, 1);
        }
        let seg = graph.segment_at(e, t);
        let value = |label: Option<LabelId>| {
            seg.zip(label)
                .and_then(|(s, l)| graph.segment_value(s, l))
                .and_then(PropValue::as_long)
        };
        (value(self.w1).unwrap_or(0), value(self.w2).unwrap_or(1))
    }
}

impl SnapshotTopology {
    /// The snapshot of `graph` at `t`, resolving `weights` per edge.
    pub fn new(graph: Arc<TemporalGraph>, t: Time, weights: EdgeWeights) -> Self {
        let out = SnapshotCsr::build(&graph, t, weights, |v| graph.out_run(v));
        SnapshotTopology {
            graph,
            t,
            weights,
            out,
            inc: OnceLock::new(),
        }
    }

    /// The snapshot time-point.
    pub fn time(&self) -> Time {
        self.t
    }

    /// The underlying temporal graph.
    pub fn graph(&self) -> &Arc<TemporalGraph> {
        &self.graph
    }

    /// The out-edges of `v` alive at the snapshot instant.
    pub fn out_slice(&self, v: u32) -> &[VcmEdge] {
        self.out.of(v)
    }

    /// The in-edges of `v` alive at the snapshot instant (`target` is the
    /// source vertex), building the in-adjacency on first use.
    pub fn in_slice(&self, v: u32) -> &[VcmEdge] {
        self.inc
            .get_or_init(|| {
                SnapshotCsr::build(&self.graph, self.t, self.weights, |v| self.graph.in_run(v))
            })
            .of(v)
    }
}

impl VcmTopology for SnapshotTopology {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn is_active(&self, v: u32) -> bool {
        self.graph.vertex_lifespan(VIdx(v)).contains_point(self.t)
    }

    fn out_edges(&self, v: u32, out: &mut Vec<VcmEdge>) {
        out.extend_from_slice(self.out_slice(v));
    }

    fn in_edges(&self, v: u32, out: &mut Vec<VcmEdge>) {
        out.extend_from_slice(self.in_slice(v));
    }

    /// A snapshot's dense index is the graph's `VIdx`, so it is placed
    /// as the graph itself is.
    fn place(&self, strategy: PartitionStrategy, workers: usize) -> Result<PartitionMap, BspError> {
        strategy.build(&self.graph, workers)
    }

    fn logical_vid(&self, v: u32) -> VertexId {
        self.graph.vertex(VIdx(v)).vid
    }
}

/// The transformed (time-expanded) graph as a VCM topology: replicas are
/// the vertices; transit edges carry their cost in `w1`; waiting edges are
/// tagged `kind = 1` (TGB's replica state-transfer channel).
pub struct TransformedTopology {
    graph: Arc<TemporalGraph>,
    transformed: Arc<TransformedGraph>,
}

impl TransformedTopology {
    /// Wraps a transformed graph (and the temporal graph it came from,
    /// for id reporting).
    pub fn new(graph: Arc<TemporalGraph>, transformed: Arc<TransformedGraph>) -> Self {
        TransformedTopology { graph, transformed }
    }

    /// The replica table, for mapping results back to `(vertex, time)`.
    pub fn transformed(&self) -> &Arc<TransformedGraph> {
        &self.transformed
    }

    /// The replica's `(logical vertex, time)` pair.
    pub fn replica(&self, v: u32) -> (VIdx, Time) {
        self.transformed.replicas[v as usize]
    }
}

/// TGB's replicas are placed as the slots of the transformed graph.
impl PlacementInput for TransformedTopology {
    fn slots(&self) -> usize {
        self.transformed.num_vertices()
    }

    /// Each replica is its own Giraph vertex, keyed by its identity: the
    /// vertex id mixed with its time-point.
    fn key(&self, v: u32) -> u64 {
        let (orig, t) = self.transformed.replicas[v as usize];
        splitmix64(self.graph.vertex(orig).vid.0 ^ (t as u64).rotate_left(32))
    }

    fn neighbors(&self, v: u32, mut visit: impl FnMut(u32)) {
        let (out, inc) = (self.transformed.out_edges(v), self.transformed.in_edges(v));
        for e in out.iter().chain(inc) {
            visit(e.dst);
        }
    }

    /// 1 + out-degree: a replica and each of its edges live for one
    /// time-point, which is what a graph vertex weighs with point
    /// lifespans.
    fn weight(&self, v: u32) -> u64 {
        1 + self.transformed.out_edges(v).len() as u64
    }
}

impl VcmTopology for TransformedTopology {
    fn num_vertices(&self) -> usize {
        self.transformed.num_vertices()
    }

    fn out_edges(&self, v: u32, out: &mut Vec<VcmEdge>) {
        for e in self.transformed.out_edges(v) {
            out.push(VcmEdge {
                target: e.dst,
                w1: e.weight,
                w2: 0,
                kind: u8::from(e.kind == TransformedEdgeKind::Waiting),
            });
        }
    }

    fn in_edges(&self, v: u32, out: &mut Vec<VcmEdge>) {
        for e in self.transformed.in_edges(v) {
            out.push(VcmEdge {
                target: e.dst, // source replica, by reverse-CSR convention
                w1: e.weight,
                w2: 0,
                kind: u8::from(e.kind == TransformedEdgeKind::Waiting),
            });
        }
    }

    fn place(&self, strategy: PartitionStrategy, workers: usize) -> Result<PartitionMap, BspError> {
        strategy.place(self, workers)
    }

    fn logical_vid(&self, v: u32) -> VertexId {
        let (orig, _) = self.transformed.replicas[v as usize];
        self.graph.vertex(orig).vid
    }
}

/// The window a snapshot-by-snapshot platform walks: `window` if given,
/// else the graph's bounded [`snapshot_window`].
///
/// # Errors
///
/// [`BspError::Config`] naming `platform` when that window is missing or
/// unbounded — every entity lives forever and no window was passed, or
/// the one passed has an infinite end — so there is no finite set of
/// snapshots to run.
pub(crate) fn window_of(
    graph: &TemporalGraph,
    window: Option<Interval>,
    platform: &str,
) -> Result<Interval, BspError> {
    window
        .or_else(|| snapshot_window(graph))
        .filter(|w| w.start() != TIME_MIN && w.end() != TIME_MAX)
        .ok_or_else(|| BspError::Config {
            detail: format!("{platform} needs a bounded window: pass one when the graph has none"),
        })
}

/// Runs a structure-only (TI) snapshot platform over its window: `run`
/// computes the snapshots of the interval it is handed. On a topology
/// static over the window every snapshot is the same graph, and MSB and
/// Chlonos run one program for every time-point, so only the first
/// snapshot is computed and its states stand for every point — the
/// paper's manual optimization on USRN (Sec. VII-B6).
///
/// # Errors
///
/// [`window_of`]'s, else `run`'s.
pub(crate) fn run_ti_window<S: Clone>(
    graph: &TemporalGraph,
    window: Option<Interval>,
    platform: &str,
    run: impl FnOnce(Interval) -> Result<SnapshotResult<S>, BspError>,
) -> Result<SnapshotResult<S>, BspError> {
    let window = window_of(graph, window, platform)?;
    if !is_topology_static(graph, window) {
        return run(window);
    }
    let mut result = run(Interval::point(window.start()))?;
    if let Some((_, states)) = result.per_snapshot.pop() {
        result.per_snapshot = window.points().map(|t| (t, states.clone())).collect();
    }
    Ok(result)
}

/// The outcome of a snapshot-by-snapshot run (MSB, Chlonos, GoFFish).
#[derive(Clone, Debug)]
pub struct SnapshotResult<S> {
    /// The states recorded per time-point, in walk order (dense vertex
    /// index → state); empty when the run's `collect_states` was off.
    /// GoFFish states persist across its walk, so its entry for `t` is
    /// each vertex's state *as of* `t`.
    pub per_snapshot: Vec<(Time, HashMap<u32, S>)>,
    /// The metrics of the walk's one run, every phase included.
    pub metrics: RunMetrics,
}

impl<S> SnapshotResult<S> {
    /// The state of dense vertex `v` at snapshot `t`, if collected.
    pub fn state_at(&self, v: u32, t: Time) -> Option<&S> {
        self.per_snapshot
            .iter()
            .find(|(time, _)| *time == t)
            .and_then(|(_, states)| states.get(&v))
    }
}

/// Two vertices and an edge between them, all alive forever: a graph
/// with no bounded window, which the snapshot platforms must refuse
/// without one.
#[cfg(test)]
pub(crate) fn unbounded_graph() -> Arc<TemporalGraph> {
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::EdgeId;
    let mut b = TemporalGraphBuilder::new();
    for vid in [0, 1] {
        b.add_vertex(VertexId(vid), Interval::all()).unwrap();
    }
    b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::all())
        .unwrap();
    Arc::new(b.build().unwrap())
}

/// Four vertices on a cycle plus one chord, all alive over exactly
/// `[0, 5)`: a topology static over its window.
#[cfg(test)]
pub(crate) fn static_graph() -> Arc<TemporalGraph> {
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::EdgeId;
    let life = Interval::new(0, 5);
    let mut b = TemporalGraphBuilder::new();
    for vid in 0..4 {
        b.add_vertex(VertexId(vid), life).unwrap();
    }
    for (eid, (src, dst)) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        .into_iter()
        .enumerate()
    {
        b.add_edge(EdgeId(eid as u64), VertexId(src), VertexId(dst), life)
            .unwrap();
    }
    Arc::new(b.build().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use graphite_tgraph::transform::{transform_for_paths, TransformOptions};

    fn weights(g: &TemporalGraph) -> EdgeWeights {
        EdgeWeights {
            w1: g.label("travel-cost"),
            w2: g.label("travel-time"),
        }
    }

    #[test]
    fn snapshot_topology_respects_time() {
        let g = Arc::new(transit_graph());
        let w = weights(&g);
        let a = g.vertex_index(transit_ids::A).unwrap().0;
        let t3 = SnapshotTopology::new(Arc::clone(&g), 3, w);
        let mut out = Vec::new();
        t3.out_edges(a, &mut out);
        // At t=3: A->B (cost 4) and A->D (cost 2) are alive; A->C ended.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.w2 == 1));
        let costs: Vec<i64> = out.iter().map(|e| e.w1).collect();
        assert!(costs.contains(&4) && costs.contains(&2));
        // At t=5 the A->B cost property value changed to 3.
        let t5 = SnapshotTopology::new(Arc::clone(&g), 5, w);
        out.clear();
        t5.out_edges(a, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].w1, 3);
    }

    #[test]
    fn snapshot_in_edges_mirror_out_edges() {
        let g = Arc::new(transit_graph());
        let w = weights(&g);
        let t8 = SnapshotTopology::new(Arc::clone(&g), 8, w);
        let e = g.vertex_index(transit_ids::E).unwrap().0;
        let mut ins = Vec::new();
        t8.in_edges(e, &mut ins);
        assert_eq!(ins.len(), 1); // B->E alive at 8
        assert_eq!(ins[0].target, g.vertex_index(transit_ids::B).unwrap().0);
    }

    #[test]
    fn transformed_topology_marks_waiting_edges() {
        let g = Arc::new(transit_graph());
        let tg = Arc::new(transform_for_paths(&g, &TransformOptions::default()));
        let topo = TransformedTopology::new(Arc::clone(&g), Arc::clone(&tg));
        let mut waiting = 0;
        let mut transit = 0;
        for v in 0..topo.num_vertices() as u32 {
            let mut out = Vec::new();
            topo.out_edges(v, &mut out);
            for e in out {
                if e.kind == 1 {
                    waiting += 1;
                    assert_eq!(e.w1, 0);
                } else {
                    transit += 1;
                }
            }
        }
        assert_eq!(transit, 14);
        assert!(waiting > 0);
        assert_eq!(waiting + transit, tg.num_edges());
    }

    #[test]
    fn replicas_place_under_every_strategy() {
        let g = Arc::new(transit_graph());
        let tg = Arc::new(transform_for_paths(&g, &TransformOptions::default()));
        let topo = TransformedTopology::new(g, tg);
        let slots = topo.num_vertices() as u32;
        // Two replicas of the same vertex get different keys.
        let (v0, _) = topo.replica(0);
        let mut same_vertex: Vec<u64> = (0..slots)
            .filter(|&v| topo.replica(v).0 == v0)
            .map(|v| topo.key(v))
            .collect();
        same_vertex.dedup();
        assert!(same_vertex.len() > 1);
        for workers in [2, 3, 5] {
            let place = |s: PartitionStrategy| topo.place(s, workers).unwrap();
            let hash = place(PartitionStrategy::Hash);
            for v in 0..slots {
                let want = splitmix64(topo.key(v)) % workers as u64;
                assert_eq!(hash.worker_of(VIdx(v)) as u64, want);
            }
            let chunked = place(PartitionStrategy::Chunked);
            let seq: Vec<usize> = (0..slots).map(|v| chunked.worker_of(VIdx(v))).collect();
            assert!(seq.windows(2).all(|w| w[0] <= w[1]), "{seq:?}");
            for s in [PartitionStrategy::Ldg, PartitionStrategy::TemporalBalance] {
                let (a, b) = (place(s), place(s));
                let owned: usize = (0..workers).map(|w| a.owned_count(w)).sum();
                assert_eq!(owned, slots as usize, "{} loses replicas", s.name());
                for v in 0..slots {
                    assert_eq!(a.worker_of(VIdx(v)), b.worker_of(VIdx(v)), "{}", s.name());
                }
            }
        }
    }
}
