//! Snapshot discretization of a temporal graph.
//!
//! Time-independent (TI) baselines discretize a temporal graph into one
//! snapshot per time-point (Fig. 1(c)): the vertices, edges and property
//! values alive at that instant. This module decides which time-points —
//! the bounded [`snapshot_window`] — and whether the topology is static
//! over them ([`is_topology_static`]). The snapshot itself, loaded once
//! per time-point, is `graphite_baselines::SnapshotTopology`.

use crate::graph::TemporalGraph;
use crate::time::{Interval, TIME_MAX, TIME_MIN};

/// The bounded window over which a graph is discretized into snapshots.
///
/// Prefers the graph lifespan when it is bounded; otherwise falls back to
/// the span of *edge* lifespans and property intervals clipped of
/// infinities, since perpetual vertices (like the transit fixture's) carry
/// no snapshot information of their own.
pub fn snapshot_window(graph: &TemporalGraph) -> Option<Interval> {
    let life = graph.lifespan();
    if life.start() != TIME_MIN && life.end() != TIME_MAX {
        return Some(life);
    }
    let mut lo = TIME_MAX;
    let mut hi = TIME_MIN;
    let mut feed = |iv: Interval| {
        if iv.start() != TIME_MIN {
            lo = lo.min(iv.start());
        }
        if iv.end() != TIME_MAX {
            hi = hi.max(iv.end());
        }
    };
    for (_, v) in graph.vertices() {
        feed(v.lifespan);
        for (_, iv, _) in v.props.iter() {
            feed(iv);
        }
    }
    for (ei, e) in graph.edges() {
        feed(e.lifespan);
        for (_, iv, _) in graph.edge_props(ei).iter() {
            feed(iv);
        }
    }
    Interval::try_new(lo.min(0), hi)
}

/// Whether the graph's *topology* is static over `window`: every vertex
/// and edge lives for the whole window (only property values may change).
/// The multi-snapshot baselines can then compute one snapshot and reuse
/// its results for structure-only (TI) algorithms — the manual
/// optimization the paper applies on USRN (Sec. VII-B6).
pub fn is_topology_static(graph: &TemporalGraph, window: Interval) -> bool {
    graph
        .vertices()
        .all(|(_, v)| window.during_or_equals(v.lifespan))
        && graph
            .edges()
            .all(|(_, e)| window.during_or_equals(e.lifespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::transit_graph;

    #[test]
    fn window_bounds_perpetual_vertices_by_edges() {
        let g = transit_graph();
        // Vertices are [0, inf); edges end at 9 (B->E over [8,9)).
        assert_eq!(snapshot_window(&g), Some(Interval::new(0, 9)));
    }

    #[test]
    fn bounded_graph_uses_lifespan() {
        let g = crate::fixtures::tiny_graph(5);
        assert_eq!(snapshot_window(&g), Some(Interval::new(0, 5)));
    }
}
