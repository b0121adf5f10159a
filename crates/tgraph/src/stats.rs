//! Dataset characteristics (paper Table 1) and representation memory
//! footprints (Fig. 6(a)).
//!
//! For every temporal graph we can report, per the paper's Table 1 columns:
//! the number of snapshots, the size of the *largest snapshot*, of the
//! *interval graph*, of the *transformed graph* and of the cumulative
//! *multi-snapshot* representation, plus the average lifespans of vertices,
//! edges and properties.

use crate::graph::TemporalGraph;
use crate::snapshot::snapshot_window;
use crate::time::{Interval, Time};
use crate::transform::{transform_for_paths, TransformOptions};

/// A `(|V|, |E|)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SizePair {
    /// Vertex count.
    pub vertices: u64,
    /// Edge count.
    pub edges: u64,
}

/// The Table-1 row for one dataset.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Number of snapshots (time-points in the bounded window).
    pub snapshots: u64,
    /// Size of the single largest snapshot.
    pub largest_snapshot: SizePair,
    /// Size of the interval graph (what GRAPHITE loads).
    pub interval: SizePair,
    /// Size of the transformed graph (what TGB loads).
    pub transformed: SizePair,
    /// Cumulative size across all snapshots (what MSB touches in total).
    pub multi_snapshot: SizePair,
    /// Average vertex lifespan, in time units clipped to the window.
    pub avg_vertex_lifespan: f64,
    /// Average edge lifespan.
    pub avg_edge_lifespan: f64,
    /// Average property-entry lifespan (vertex + edge properties), or 0
    /// when the graph carries no properties.
    pub avg_property_lifespan: f64,
}

/// Computes the Table-1 statistics of `graph`.
///
/// The transformed-graph column uses the default path-family transformation;
/// pass `transform` to override (e.g. a different cost label).
pub fn dataset_stats(graph: &TemporalGraph, transform: Option<&TransformOptions>) -> DatasetStats {
    let window = snapshot_window(graph).unwrap_or_else(|| Interval::new(0, 1));
    let clip = |iv: Interval| iv.intersect(window).map_or(0, |c| c.len());

    let n_v = graph.num_vertices() as u64;
    let n_e = graph.num_edges() as u64;

    let mut v_life = 0i64;
    let mut prop_life = 0i64;
    let mut prop_count = 0u64;
    for (_, v) in graph.vertices() {
        v_life += clip(v.lifespan);
        for (_, iv, _) in v.props.iter() {
            prop_life += clip(iv);
            prop_count += 1;
        }
    }
    let mut e_life = 0i64;
    for (ei, e) in graph.edges() {
        e_life += clip(e.lifespan);
        for (_, iv, _) in graph.edge_props(ei).iter() {
            prop_life += clip(iv);
            prop_count += 1;
        }
    }

    // Cumulative multi-snapshot sizes equal the lifespan sums already
    // computed; the largest snapshot needs a sweep.
    let largest = largest_snapshot(graph, window);

    let default_opts = TransformOptions {
        window: Some(window),
        ..Default::default()
    };
    let opts = transform.unwrap_or(&default_opts);
    let tg = transform_for_paths(graph, opts);

    DatasetStats {
        snapshots: window.len() as u64,
        largest_snapshot: largest,
        interval: SizePair {
            vertices: n_v,
            edges: n_e,
        },
        transformed: SizePair {
            vertices: tg.num_vertices() as u64,
            edges: tg.num_edges() as u64,
        },
        multi_snapshot: SizePair {
            vertices: v_life as u64,
            edges: e_life as u64,
        },
        avg_vertex_lifespan: if n_v == 0 {
            0.0
        } else {
            v_life as f64 / n_v as f64
        },
        avg_edge_lifespan: if n_e == 0 {
            0.0
        } else {
            e_life as f64 / n_e as f64
        },
        avg_property_lifespan: if prop_count == 0 {
            0.0
        } else {
            prop_life as f64 / prop_count as f64
        },
    }
}

/// The largest snapshot of `graph` over `window`: the most edges alive at
/// one time-point, ties broken by the most vertices. The counts change
/// only where a lifespan starts or ends, so one sweep over those
/// boundaries in time order sees every snapshot size, in time linear in
/// the graph rather than in the graph times the window.
fn largest_snapshot(graph: &TemporalGraph, window: Interval) -> SizePair {
    // (time, vertex delta, edge delta) at each window-clipped boundary.
    let mut events: Vec<(Time, i64, i64)> = Vec::new();
    let mut span = |life: Interval, dv: i64, de: i64| {
        if let Some(alive) = life.intersect(window) {
            events.push((alive.start(), dv, de));
            events.push((alive.end(), -dv, -de));
        }
    };
    for (_, v) in graph.vertices() {
        span(v.lifespan, 1, 0);
    }
    for (_, e) in graph.edges() {
        span(e.lifespan, 0, 1);
    }
    events.sort_unstable_by_key(|&(t, _, _)| t);
    let (mut vertices, mut edges) = (0i64, 0i64);
    let mut largest = SizePair::default();
    for (i, &(t, dv, de)) in events.iter().enumerate() {
        vertices += dv;
        edges += de;
        // Compare only once every boundary at `t` is applied.
        let settled = events.get(i + 1).is_none_or(|&(next, _, _)| next != t);
        let size = SizePair {
            vertices: vertices as u64,
            edges: edges as u64,
        };
        if settled && (size.edges, size.vertices) > (largest.edges, largest.vertices) {
            largest = size;
        }
    }
    largest
}

/// Estimated resident bytes of each graph representation (Fig. 6(a)).
///
/// These are analytic estimates from entry counts and per-entry struct
/// sizes, not allocator measurements, which keeps them deterministic and
/// platform-independent. The *relative* ordering (transformed ≫ interval ≥
/// snapshot batch ≥ single snapshot) is what the figure demonstrates.
#[derive(Clone, Copy, Debug)]
pub struct MemoryFootprint {
    /// The interval graph, as loaded by GRAPHITE.
    pub interval_bytes: u64,
    /// The transformed graph, as loaded by TGB.
    pub transformed_bytes: u64,
    /// The largest single snapshot, as loaded by MSB/GoFFish.
    pub largest_snapshot_bytes: u64,
    /// A Chlonos batch of `batch` snapshots (vectorized layout).
    pub snapshot_batch_bytes: u64,
}

/// Per-entry cost model (bytes): id + interval + adjacency slot.
const VERTEX_COST: u64 = 8 + 16 + 8;
const EDGE_COST: u64 = 8 + 16 + 4 + 4 + 8;
const PROP_COST: u64 = 4 + 16 + 16;
// Replicas and transformed edges are full vertices/edges to the VCM
// runtime (each replica is its own Giraph vertex), so they cost the same.
const REPLICA_COST: u64 = VERTEX_COST;
const TEDGE_COST: u64 = EDGE_COST;
/// Snapshot entries don't carry intervals.
const SNAP_VERTEX_COST: u64 = 8 + 8;
const SNAP_EDGE_COST: u64 = 8 + 4 + 4 + 8;

/// Computes the Fig. 6(a) memory estimates, with a Chlonos batch of
/// `batch_size` snapshots.
pub fn memory_footprint(
    graph: &TemporalGraph,
    transform: Option<&TransformOptions>,
    batch_size: u64,
) -> MemoryFootprint {
    let stats = dataset_stats(graph, transform);
    let props: u64 = graph
        .vertices()
        .map(|(_, v)| v.props.len() as u64)
        .chain(
            graph
                .edge_indices()
                .map(|e| graph.edge_props(e).len() as u64),
        )
        .sum();
    let interval_bytes = stats.interval.vertices * VERTEX_COST
        + stats.interval.edges * EDGE_COST
        + props * PROP_COST;
    let transformed_bytes =
        stats.transformed.vertices * REPLICA_COST + stats.transformed.edges * TEDGE_COST;
    let largest_snapshot_bytes = stats.largest_snapshot.vertices * SNAP_VERTEX_COST
        + stats.largest_snapshot.edges * SNAP_EDGE_COST
        // Property values at the snapshot instant, one slot per labelled entity.
        + props.min(stats.largest_snapshot.edges + stats.largest_snapshot.vertices) * 8;
    let snapshot_batch_bytes = largest_snapshot_bytes * batch_size.max(1);
    MemoryFootprint {
        interval_bytes,
        transformed_bytes,
        largest_snapshot_bytes,
        snapshot_batch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;
    use crate::fixtures::transit_graph;
    use crate::graph::{EIdx, EdgeId, VIdx, VertexId};
    use crate::rng::SplitMix64;

    #[test]
    fn table1_row_for_transit() {
        let g = transit_graph();
        let s = dataset_stats(&g, None);
        assert_eq!(s.snapshots, 9);
        assert_eq!(
            s.interval,
            SizePair {
                vertices: 6,
                edges: 6
            }
        );
        // Largest snapshot by edges: t=2 or t=3 with 3 edges, 6 vertices.
        assert_eq!(
            s.largest_snapshot,
            SizePair {
                vertices: 6,
                edges: 3
            }
        );
        // Multi-snapshot: vertices alive 9 ticks each => 54; edge lifespans
        // 3+2+3+1+2+3 = 14.
        assert_eq!(
            s.multi_snapshot,
            SizePair {
                vertices: 54,
                edges: 14
            }
        );
        assert!((s.avg_vertex_lifespan - 9.0).abs() < 1e-9);
        assert!((s.avg_edge_lifespan - 14.0 / 6.0).abs() < 1e-9);
        assert!(s.avg_property_lifespan > 0.0);
        // The transformed graph dominates the interval graph.
        assert!(s.transformed.vertices > s.interval.vertices);
        assert!(s.transformed.edges > s.interval.edges);
    }

    /// The vertices and edges alive at `t`, by a scan of the whole graph:
    /// the per-point count `dataset_stats` used before its sweep, kept as
    /// the oracle.
    fn alive_at(g: &TemporalGraph, t: Time) -> (Vec<VIdx>, Vec<EIdx>) {
        let vertices = g
            .vertices()
            .filter(|(_, v)| v.lifespan.contains_point(t))
            .map(|(v, _)| v)
            .collect();
        let edges = g
            .edges()
            .filter(|(_, e)| e.lifespan.contains_point(t))
            .map(|(e, _)| e)
            .collect();
        (vertices, edges)
    }

    fn largest_by_points(g: &TemporalGraph, window: Interval) -> SizePair {
        let mut largest = SizePair::default();
        for t in window.points() {
            let (vertices, edges) = alive_at(g, t);
            let (sv, se) = (vertices.len() as u64, edges.len() as u64);
            if se > largest.edges || (se == largest.edges && sv > largest.vertices) {
                largest = SizePair {
                    vertices: sv,
                    edges: se,
                };
            }
        }
        largest
    }

    #[test]
    fn snapshot_membership() {
        let g = transit_graph();
        let (vertices, edges) = alive_at(&g, 4);
        assert_eq!(vertices.len(), 6); // perpetual vertices
                                       // Alive at 4: A->B ([3,6)), E->F ([2,5)). A->C ended at 3, A->D
                                       // covers [1,4) so 4 is excluded; B->E starts at 8; C->E at 5.
        let alive: Vec<u64> = edges.iter().map(|&e| g.edge(e).eid.0).collect();
        assert_eq!(alive, vec![0, 5]);
        // t:      0  1  2  3  4  5  6  7  8
        // edges:  -  AC,AD  +EF  AB(+)  ..  CE  CE  -  BE
        let edge_counts: Vec<usize> = (0..9).map(|t| alive_at(&g, t).1.len()).collect();
        assert_eq!(edge_counts, vec![0, 2, 3, 3, 2, 2, 1, 0, 1]);
    }

    /// A random graph over `[0, horizon)`: some vertices perpetual, edges
    /// inside their endpoints' lifespans, so the window comes from either
    /// the graph lifespan or the edges.
    fn random_graph(rng: &mut SplitMix64) -> TemporalGraph {
        let horizon = 1 + rng.bounded(24) as i64;
        let n = 1 + rng.index(12);
        let mut b = TemporalGraphBuilder::new();
        let mut lives = Vec::with_capacity(n);
        for vid in 0..n as u64 {
            let start = rng.range_i64(0, horizon);
            let life = if rng.bounded(5) == 0 {
                Interval::from_start(start)
            } else {
                Interval::new(start, rng.range_i64(start + 1, horizon + 1))
            };
            b.add_vertex(VertexId(vid), life).unwrap();
            lives.push(life);
        }
        for eid in 0..rng.bounded(4 * n as u64) {
            let (src, dst) = (rng.index(n), rng.index(n));
            let Some(both) = lives[src].intersect(lives[dst]) else {
                continue;
            };
            let end = both.end().min(horizon + 3);
            let start = rng.range_i64(both.start(), end);
            let life = Interval::new(start, rng.range_i64(start + 1, end + 1));
            b.add_edge(
                EdgeId(eid),
                VertexId(src as u64),
                VertexId(dst as u64),
                life,
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn largest_snapshot_matches_the_per_point_count() {
        let mut rng = SplitMix64::new(0x7ab1e1);
        for case in 0..300 {
            let g = random_graph(&mut rng);
            let window = snapshot_window(&g).unwrap_or_else(|| Interval::new(0, 1));
            assert_eq!(
                dataset_stats(&g, None).largest_snapshot,
                largest_by_points(&g, window),
                "case {case}"
            );
        }
    }

    #[test]
    fn footprint_ordering_matches_fig6a() {
        let g = transit_graph();
        let f = memory_footprint(&g, None, 3);
        assert!(f.transformed_bytes > 0);
        assert!(f.interval_bytes > f.largest_snapshot_bytes);
        assert_eq!(f.snapshot_batch_bytes, 3 * f.largest_snapshot_bytes);
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::builder::TemporalGraphBuilder::new().build().unwrap();
        let s = dataset_stats(&g, None);
        assert_eq!(s.interval, SizePair::default());
        assert_eq!(s.avg_vertex_lifespan, 0.0);
    }
}
