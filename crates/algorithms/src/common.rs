//! Shared helpers for the algorithm implementations: label resolution,
//! degree boundaries, and result digests used by the cross-platform
//! equivalence checks.

use graphite_bsp::partition::splitmix64;
use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};
use graphite_tgraph::property::LabelId;
use graphite_tgraph::time::{Interval, Time};
use std::collections::BTreeMap;

/// Cost of "unreachable" in the path algorithms.
pub const INF: i64 = i64::MAX;

/// The edge-property labels the TD algorithms use (paper Sec. VII-A1: the
/// TD algorithms use one edge property; TI algorithms use none).
#[derive(Clone, Copy, Debug)]
pub struct AlgLabels {
    /// `travel-time` — how long traversing the edge takes.
    pub travel_time: Option<LabelId>,
    /// `travel-cost` — the cost the path algorithms minimize.
    pub travel_cost: Option<LabelId>,
}

impl AlgLabels {
    /// Resolves the standard labels on `graph` (missing labels fall back
    /// to travel time 1 / cost 0 at use sites).
    pub fn resolve(graph: &TemporalGraph) -> Self {
        AlgLabels {
            travel_time: graph.label("travel-time"),
            travel_cost: graph.label("travel-cost"),
        }
    }
}

/// The degree-change boundaries of `v` (interior time-points only), for
/// pre-partitioning PageRank states.
pub fn degree_boundaries(graph: &TemporalGraph, v: VIdx) -> Vec<Time> {
    let life = graph.vertex(v).lifespan;
    let mut bounds: Vec<Time> = Vec::new();
    for &e in graph.out_edges(v) {
        let iv = graph.edge(e).lifespan;
        bounds.push(iv.start());
        bounds.push(iv.end());
    }
    bounds.sort_unstable();
    bounds.dedup();
    bounds.retain(|&t| life.contains_point(t) && t != life.start());
    bounds
}

/// A deterministic digest over per-(vertex, time-point) values, used to
/// assert that all platforms produce identical results (paper
/// Sec. VII-B1) without storing full result sets. Values are folded with
/// an order-independent combiner so iteration order doesn't matter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultDigest(pub u64);

impl ResultDigest {
    /// Folds one `(vertex, time, value)` observation.
    pub fn fold(&mut self, vid: VertexId, t: Time, value: u64) {
        let h = splitmix64(splitmix64(vid.0 ^ (t as u64).rotate_left(17)) ^ value);
        self.0 = self.0.wrapping_add(h);
    }

    /// Quantizes a float to 6 decimal digits for digesting (PageRank sums
    /// may differ in association order across platforms by ~1e-12).
    // The 1e-6 quantization below exists precisely so association-order
    // float noise cannot reach the digest.
    pub fn fold_f64(&mut self, vid: VertexId, t: Time, value: f64) {
        let q = (value * 1e6).round() as i64;
        self.fold(vid, t, q as u64);
    }
}

/// Expands interval-valued states into per-time-point digest observations
/// over `window`.
pub fn digest_interval_states<S, F>(
    states: &BTreeMap<VertexId, Vec<(Interval, S)>>,
    window: Interval,
    mut encode: F,
) -> ResultDigest
where
    F: FnMut(&S) -> u64,
{
    let mut d = ResultDigest::default();
    for (vid, entries) in states {
        for (iv, s) in entries {
            let Some(clipped) = iv.intersect(window) else {
                continue;
            };
            let v = encode(s);
            for t in clipped.points() {
                d.fold(*vid, t, v);
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};

    #[test]
    fn degree_boundaries_are_interior() {
        let g = transit_graph();
        let a = g.vertex_index(transit_ids::A).unwrap();
        let b = degree_boundaries(&g, a);
        assert_eq!(b, vec![1, 3, 4, 6]);
        let f = g.vertex_index(transit_ids::F).unwrap();
        assert!(degree_boundaries(&g, f).is_empty());
    }

    #[test]
    fn digest_is_order_independent_and_sensitive() {
        let mut d1 = ResultDigest::default();
        d1.fold(VertexId(1), 0, 5);
        d1.fold(VertexId(2), 3, 7);
        let mut d2 = ResultDigest::default();
        d2.fold(VertexId(2), 3, 7);
        d2.fold(VertexId(1), 0, 5);
        assert_eq!(d1, d2);
        let mut d3 = ResultDigest::default();
        d3.fold(VertexId(1), 0, 5);
        d3.fold(VertexId(2), 3, 8);
        assert_ne!(d1, d3);
    }

    #[test]
    fn digest_interval_states_expands_points() {
        let mut states: BTreeMap<VertexId, Vec<(Interval, i64)>> = BTreeMap::new();
        states.insert(
            VertexId(1),
            vec![(Interval::new(0, 3), 9), (Interval::from_start(3), 4)],
        );
        let d = digest_interval_states(&states, Interval::new(0, 5), |s| *s as u64);
        let mut manual = ResultDigest::default();
        for t in 0..3 {
            manual.fold(VertexId(1), t, 9);
        }
        for t in 3..5 {
            manual.fold(VertexId(1), t, 4);
        }
        assert_eq!(d, manual);
    }
}
