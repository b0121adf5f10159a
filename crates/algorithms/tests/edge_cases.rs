//! Edge-case tests for the algorithm implementations: non-unit travel
//! times, parallel multi-edges, unreachable deadlines, degenerate graphs,
//! and determinism of tie-breaking.

use graphite_algorithms::common::{AlgLabels, INF};
use graphite_algorithms::td_paths::{IcmEat, IcmFast, IcmLd, IcmSssp, IcmTmst};
use graphite_algorithms::wcc::IcmWcc;
use graphite_icm::prelude::*;
use graphite_tgraph::builder::TemporalGraphBuilder;
use graphite_tgraph::graph::{EdgeId, TemporalGraph, VertexId};
use graphite_tgraph::time::Interval;
use std::sync::Arc;

fn build<F: FnOnce(&mut TemporalGraphBuilder)>(f: F) -> Arc<TemporalGraph> {
    let mut b = TemporalGraphBuilder::new();
    f(&mut b);
    Arc::new(b.build().unwrap())
}

fn labels(g: &TemporalGraph) -> AlgLabels {
    AlgLabels::resolve(g)
}

/// Two vertices, an edge with travel time 3: the arrival interval and the
/// EAT shift accordingly.
#[test]
fn travel_time_greater_than_one() {
    let g = build(|b| {
        let life = Interval::new(0, 20);
        b.add_vertex(VertexId(0), life).unwrap();
        b.add_vertex(VertexId(1), life).unwrap();
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(2, 6))
            .unwrap();
        b.edge_property(EdgeId(0), "travel-time", Interval::new(2, 6), 3i64.into())
            .unwrap();
        b.edge_property(EdgeId(0), "travel-cost", Interval::new(2, 6), 4i64.into())
            .unwrap();
    });
    let sssp = run_icm(
        &g,
        Arc::new(IcmSssp {
            source: VertexId(0),
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    // Depart at 2 (earliest), arrive 5.
    assert_eq!(sssp.state_at(VertexId(1), 4), Some(&INF));
    assert_eq!(sssp.state_at(VertexId(1), 5), Some(&4));
    let eat = run_icm(
        &g,
        Arc::new(IcmEat {
            source: VertexId(0),
            start: 0,
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    assert_eq!(IcmEat::earliest(&eat, VertexId(1)), Some(5));
    // Starting after the edge's last departure (5): unreachable.
    let late = run_icm(
        &g,
        Arc::new(IcmEat {
            source: VertexId(0),
            start: 6,
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    assert_eq!(IcmEat::earliest(&late, VertexId(1)), None);
}

/// Parallel multi-edges with different costs: the cheaper one wins where
/// both are alive; the pricier one covers its exclusive interval.
#[test]
fn parallel_edges_with_different_costs() {
    let g = build(|b| {
        let life = Interval::new(0, 12);
        b.add_vertex(VertexId(0), life).unwrap();
        b.add_vertex(VertexId(1), life).unwrap();
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(0, 8))
            .unwrap();
        b.edge_property(EdgeId(0), "travel-cost", Interval::new(0, 8), 9i64.into())
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(0), VertexId(1), Interval::new(4, 10))
            .unwrap();
        b.edge_property(EdgeId(1), "travel-cost", Interval::new(4, 10), 2i64.into())
            .unwrap();
    });
    let sssp = run_icm(
        &g,
        Arc::new(IcmSssp {
            source: VertexId(0),
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    // Arrivals 1..4 only via the expensive edge; from 5 the cheap one.
    assert_eq!(sssp.state_at(VertexId(1), 1), Some(&9));
    assert_eq!(sssp.state_at(VertexId(1), 4), Some(&9));
    assert_eq!(sssp.state_at(VertexId(1), 5), Some(&2));
    assert_eq!(sssp.state_at(VertexId(1), 11), Some(&2));
}

/// A deadline earlier than any edge makes everything LD-unreachable; a
/// deadline exactly at the only arrival works.
#[test]
fn ld_deadline_boundaries() {
    let g = build(|b| {
        let life = Interval::new(0, 10);
        b.add_vertex(VertexId(0), life).unwrap();
        b.add_vertex(VertexId(1), life).unwrap();
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(4, 5))
            .unwrap();
        b.edge_property(EdgeId(0), "travel-time", Interval::new(4, 5), 1i64.into())
            .unwrap();
    });
    let tight = run_icm(
        &g,
        Arc::new(IcmLd {
            target: VertexId(1),
            deadline: 4,
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    assert_eq!(IcmLd::latest(&tight, VertexId(0)), None, "arrival is 5 > 4");
    let exact = run_icm(
        &g,
        Arc::new(IcmLd {
            target: VertexId(1),
            deadline: 5,
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    assert_eq!(IcmLd::latest(&exact, VertexId(0)), Some(4));
}

/// TMST tie-breaking: two parents deliver the same arrival; the smaller
/// vid wins deterministically, at any worker count.
#[test]
fn tmst_tie_breaks_deterministically() {
    let g = build(|b| {
        let life = Interval::new(0, 10);
        for v in 0..4 {
            b.add_vertex(VertexId(v), life).unwrap();
        }
        // 0 -> 1 and 0 -> 2 at t=0 (arrive 1); both 1 and 2 -> 3 at t=1
        // (arrive 2 from either).
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(0, 1))
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(0), VertexId(2), Interval::new(0, 1))
            .unwrap();
        b.add_edge(EdgeId(2), VertexId(1), VertexId(3), Interval::new(1, 2))
            .unwrap();
        b.add_edge(EdgeId(3), VertexId(2), VertexId(3), Interval::new(1, 2))
            .unwrap();
    });
    for workers in [1, 2, 4] {
        let r = run_icm(
            &g,
            Arc::new(IcmTmst {
                source: VertexId(0),
                start: 0,
                labels: labels(&g),
            }),
            &IcmConfig {
                run: RunConfig {
                    workers,
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        )
        .expect("ICM run");
        let parent = r.states[&VertexId(3)]
            .iter()
            .map(|(_, s)| *s)
            .filter(|s| s.0 < INF)
            .min()
            .map(|s| s.1);
        assert_eq!(parent, Some(1), "workers={workers}");
    }
}

/// A single isolated vertex: every algorithm terminates immediately with
/// sensible output.
#[test]
fn singleton_graph_terminates() {
    let g = build(|b| {
        b.add_vertex(VertexId(7), Interval::new(0, 5)).unwrap();
    });
    let sssp = run_icm(
        &g,
        Arc::new(IcmSssp {
            source: VertexId(7),
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    assert_eq!(sssp.state_at(VertexId(7), 0), Some(&0));
    assert_eq!(sssp.metrics.supersteps, 1);
    let wcc = run_icm(&g, Arc::new(IcmWcc), &IcmConfig::default(), None).expect("ICM run");
    assert_eq!(wcc.state_at(VertexId(7), 4), Some(&7));
}

/// FAST with waiting beats a direct-but-early journey: departing later
/// shortens the duration even when the arrival is later.
#[test]
fn fast_prefers_late_departures() {
    let g = build(|b| {
        let life = Interval::new(0, 20);
        for v in 0..3 {
            b.add_vertex(VertexId(v), life).unwrap();
        }
        // Early 2-hop chain: 0->1 at t=0 (arrive 1), 1->2 at t=10 (arrive
        // 11): duration 11. Direct late edge 0->2 at t=9 (arrive 10):
        // duration 1.
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(0, 1))
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(10, 11))
            .unwrap();
        b.add_edge(EdgeId(2), VertexId(0), VertexId(2), Interval::new(9, 10))
            .unwrap();
    });
    let fast = run_icm(
        &g,
        Arc::new(IcmFast {
            source: VertexId(0),
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    assert_eq!(IcmFast::fastest(&fast, VertexId(2)), Some(1));
}

/// Vertex churn: a message arriving within an edge's lifespan but clipped
/// by the receiver's death never resurrects the receiver.
#[test]
fn death_clips_propagation() {
    let g = build(|b| {
        b.add_vertex(VertexId(0), Interval::new(0, 10)).unwrap();
        b.add_vertex(VertexId(1), Interval::new(0, 4)).unwrap();
        b.add_vertex(VertexId(2), Interval::new(0, 10)).unwrap();
        // 0 -> 1 alive [2,4); 1 -> 2 alive [2,4).
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(2, 4))
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(2, 4))
            .unwrap();
    });
    let sssp = run_icm(
        &g,
        Arc::new(IcmSssp {
            source: VertexId(0),
            labels: labels(&g),
        }),
        &IcmConfig::default(),
        None,
    )
    .expect("ICM run");
    // 1 is reached at 3 (within its life); its relay departs at 3, arrives
    // at 2 at 4 — fine for vertex 2.
    assert_eq!(sssp.state_at(VertexId(1), 3), Some(&0));
    assert_eq!(sssp.state_at(VertexId(2), 4), Some(&0));
    // After 1's death its state simply doesn't exist.
    assert_eq!(sssp.state_at(VertexId(1), 5), None);
}
