//! Cross-platform result equivalence (paper Sec. VII-B1: "All platforms
//! have conceptually equivalent outcomes") on randomized generated
//! graphs: for every algorithm, every platform that runs it produces the
//! identical per-(vertex, time-point) results.
//!
//! TD comparisons use churn-free vertex lifespans: the platforms agree on
//! journeys through vertices that exist, but model "arrival at a
//! not-yet-born vertex" differently (ICM's interval algebra allows
//! waiting-to-be-born; snapshot platforms drop the message), which is a
//! modelling difference rather than a bug — see DESIGN.md.

use graphite::algorithms::registry::{run, Algo, Platform, RunOpts};
use graphite::datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use std::sync::Arc;

fn td_graph(seed: u64) -> Arc<graphite::tgraph::graph::TemporalGraph> {
    Arc::new(generate(&GenParams {
        vertices: 120,
        edges: 700,
        snapshots: 14,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Mixed {
            unit_fraction: 0.3,
            mean: 6.0,
        },
        props: PropModel {
            mean_segment: 4.0,
            max_cost: 7,
            max_travel_time: 1,
        },
        seed,
    }))
}

fn ti_graph(seed: u64) -> Arc<graphite::tgraph::graph::TemporalGraph> {
    Arc::new(generate(&GenParams {
        vertices: 100,
        edges: 500,
        snapshots: 10,
        topology: Topology::PowerLaw {
            edges_per_vertex: 5,
        },
        vertex_lifespans: LifespanModel::Geometric { mean: 7.0 },
        edge_lifespans: LifespanModel::Geometric { mean: 4.0 },
        props: PropModel::default(),
        seed,
    }))
}

fn opts(workers: usize) -> RunOpts {
    RunOpts {
        workers,
        ..Default::default()
    }
}

#[test]
fn ti_algorithms_agree_across_platforms_and_seeds() {
    for seed in [1u64, 2, 3] {
        let g = ti_graph(seed);
        for algo in [Algo::Bfs, Algo::Wcc, Algo::Scc, Algo::Pr] {
            let icm = run(algo, Platform::Icm, &g, None, &opts(3)).unwrap();
            let msb = run(algo, Platform::Msb, &g, None, &opts(3)).unwrap();
            let chl = run(algo, Platform::Chlonos, &g, None, &opts(3)).unwrap();
            assert!(icm.digest.is_some());
            assert_eq!(icm.digest, msb.digest, "{algo:?} ICM vs MSB (seed {seed})");
            assert_eq!(msb.digest, chl.digest, "{algo:?} MSB vs CHL (seed {seed})");
        }
    }
}

#[test]
fn sssp_agrees_between_icm_and_tgb() {
    for seed in [1u64, 2] {
        let g = td_graph(seed);
        let icm = run(Algo::Sssp, Platform::Icm, &g, None, &opts(3)).unwrap();
        let tgb = run(Algo::Sssp, Platform::Tgb, &g, None, &opts(3)).unwrap();
        assert!(icm.digest.is_some());
        assert_eq!(icm.digest, tgb.digest, "seed {seed}");
    }
}

#[test]
fn clustering_agrees_between_icm_and_goffish() {
    for seed in [1u64, 2] {
        let g = td_graph(seed);
        for algo in [Algo::Lcc, Algo::Tc] {
            let icm = run(algo, Platform::Icm, &g, None, &opts(3)).unwrap();
            let gof = run(algo, Platform::Goffish, &g, None, &opts(3)).unwrap();
            assert!(icm.digest.is_some());
            assert_eq!(icm.digest, gof.digest, "{algo:?} seed {seed}");
        }
    }
}

#[test]
fn results_are_invariant_to_worker_count() {
    let g = td_graph(5);
    for algo in [Algo::Bfs, Algo::Sssp, Algo::Tmst, Algo::Lcc] {
        let d1 = run(algo, Platform::Icm, &g, None, &opts(1)).unwrap();
        let d4 = run(algo, Platform::Icm, &g, None, &opts(4)).unwrap();
        assert_eq!(d1.digest, d4.digest, "{algo:?}");
        // Primitive counts are intrinsic to the model (Sec. VII-B1).
        assert_eq!(
            d1.metrics.counters.compute_calls, d4.metrics.counters.compute_calls,
            "{algo:?}"
        );
        assert_eq!(
            d1.metrics.counters.messages_sent, d4.metrics.counters.messages_sent,
            "{algo:?}"
        );
    }
}

#[test]
fn icm_results_are_invariant_to_engine_optimizations() {
    let g = td_graph(9);
    for algo in [Algo::Sssp, Algo::Eat, Algo::Reach] {
        let base = run(algo, Platform::Icm, &g, None, &opts(2)).unwrap();
        let mut o = opts(2);
        o.combiner = false;
        let no_combiner = run(algo, Platform::Icm, &g, None, &o).unwrap();
        let mut o = opts(2);
        o.suppression = None;
        let no_suppression = run(algo, Platform::Icm, &g, None, &o).unwrap();
        assert_eq!(base.digest, no_combiner.digest, "{algo:?} combiner");
        assert_eq!(base.digest, no_suppression.digest, "{algo:?} suppression");
    }
}

/// The sender-side fold runs only for an exact combine with the combiner
/// on. PageRank's `f64` sum is not exact, and `combiner: false` turns
/// every fold off: both runs ship every emission, and BFS's answer is the
/// folded run's.
#[test]
fn runs_without_an_exact_combine_ship_every_emission() {
    let g = td_graph(9);
    let pr = run(Algo::Pr, Platform::Icm, &g, None, &opts(2)).unwrap();
    let pr3 = run(Algo::Pr, Platform::Icm, &g, None, &opts(3)).unwrap();
    assert_eq!(pr.digest, pr3.digest, "PageRank across worker counts");
    let folded = run(Algo::Bfs, Platform::Icm, &g, None, &opts(2)).unwrap();
    let mut o = opts(2);
    o.combiner = false;
    let bfs = run(Algo::Bfs, Platform::Icm, &g, None, &o).unwrap();
    assert_eq!(bfs.digest, folded.digest, "BFS with and without the fold");
    for (label, r) in [("PageRank", &pr), ("PageRank x3", &pr3), ("BFS", &bfs)] {
        let c = &r.metrics.counters;
        assert!(c.remote_messages > 0, "{label}: no remote traffic");
        assert_eq!(c.wire_messages, c.messages_sent, "{label}");
    }
    let c = &folded.metrics.counters;
    assert_eq!(c.messages_sent, bfs.metrics.counters.messages_sent);
    assert!(c.wire_messages < c.messages_sent, "{c:?}");
}
