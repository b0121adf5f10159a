//! The once-built snapshot adjacency against the per-call scan it
//! replaced.
//!
//! `oracle_edges` below is the previous `SnapshotTopology::out_edges` /
//! `in_edges`, taking the graph, time-point and weights as arguments: on
//! every call it walks the vertex's temporal adjacency, keeps the edges
//! alive at `t` and resolves the two weight properties of each. It resolves
//! a weight by scanning the edge's entries (`edge_props(e).iter()`) for the
//! one holding `t`, not through `segment_at`/`segment_value`, the lookup
//! the CSR under test uses; `segment_values_oracle.rs` checks that entry
//! reader against the rows the builder was fed. For every vertex and every time-point of the
//! window, on the paper's transit fixture and on small seeded `twitter`
//! and `gplus` profiles, with weights named and not, the CSR must hand
//! out the same edges, field for field and in the same order — message
//! order follows edge order, and PageRank's `f64` fold follows message
//! order. A coverage tally proves the cases that matter were reached.

use graphite_baselines::vcm::{VcmEdge, VcmTopology};
use graphite_baselines::{EdgeWeights, SnapshotTopology};
use graphite_datagen::{generate, Profile};
use graphite_tgraph::fixtures::transit_graph;
use graphite_tgraph::graph::{TemporalGraph, VIdx};
use graphite_tgraph::property::PropValue;
use graphite_tgraph::snapshot::snapshot_window;
use graphite_tgraph::time::Time;
use std::sync::Arc;

/// The previous per-call scan: out-edges (`incoming = false`) or in-edges
/// of `v` alive at `t`, with `weights` resolved per edge from its entries.
fn oracle_edges(
    graph: &TemporalGraph,
    t: Time,
    weights: EdgeWeights,
    v: u32,
    incoming: bool,
) -> Vec<VcmEdge> {
    let mut out = Vec::new();
    let list = if incoming {
        graph.in_edges(VIdx(v))
    } else {
        graph.out_edges(VIdx(v))
    };
    for &e in list {
        let ed = graph.edge(e);
        if ed.lifespan.contains_point(t) {
            let entry = |label| {
                graph
                    .edge_props(e)
                    .iter()
                    .find(|&(l, iv, _)| l == label && iv.contains_point(t))
                    .map(|(_, _, v)| v)
            };
            let w1 = weights
                .w1
                .and_then(entry)
                .and_then(PropValue::as_long)
                .unwrap_or(0);
            let w2 = weights
                .w2
                .and_then(entry)
                .and_then(PropValue::as_long)
                .unwrap_or(1);
            let target = if incoming { ed.src.0 } else { ed.dst.0 };
            out.push(VcmEdge {
                target,
                w1,
                w2,
                kind: 0,
            });
        }
    }
    out
}

#[derive(Default)]
struct Coverage {
    edges: usize,
    /// Vertex snapshots with two or more live edges (where order can
    /// differ).
    multi: usize,
    /// Edges whose resolved `w1` is not the default.
    weighted: usize,
}

fn check(name: &str, graph: TemporalGraph, coverage: &mut Coverage) {
    let graph = Arc::new(graph);
    let window = snapshot_window(&graph).expect("a bounded window");
    let named = EdgeWeights {
        w1: graph.label("travel-cost"),
        w2: graph.label("travel-time"),
    };
    assert!(
        named.w1.is_some(),
        "{name}: the profile carries travel costs"
    );
    for weights in [EdgeWeights::default(), named] {
        for t in window.points() {
            let topo = SnapshotTopology::new(Arc::clone(&graph), t, weights);
            let mut got = Vec::new();
            for v in 0..graph.num_vertices() as u32 {
                for incoming in [false, true] {
                    got.clear();
                    if incoming {
                        topo.in_edges(v, &mut got);
                    } else {
                        topo.out_edges(v, &mut got);
                    }
                    let want = oracle_edges(&graph, t, weights, v, incoming);
                    assert_eq!(
                        got, want,
                        "{name}: v={v} t={t} incoming={incoming} weights={weights:?}"
                    );
                    coverage.edges += want.len();
                    coverage.multi += usize::from(want.len() > 1);
                    coverage.weighted += want.iter().filter(|e| e.w1 != 0).count();
                }
            }
        }
    }
}

#[test]
fn snapshot_adjacency_matches_the_per_call_scan() {
    let mut coverage = Coverage::default();
    check("transit", transit_graph(), &mut coverage);
    for (profile, seed) in [(Profile::Twitter, 5), (Profile::GPlus, 11)] {
        let mut params = profile.params(1, seed);
        params.vertices /= 8;
        params.edges /= 8;
        check(profile.name(), generate(&params), &mut coverage);
    }
    assert!(
        coverage.edges > 10_000,
        "edges compared: {}",
        coverage.edges
    );
    assert!(
        coverage.multi > 1_000,
        "multi-edge runs: {}",
        coverage.multi
    );
    assert!(
        coverage.weighted > 1_000,
        "weighted edges: {}",
        coverage.weighted
    );
}
