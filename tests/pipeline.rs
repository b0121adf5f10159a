//! Full-pipeline integration: generate a dataset, persist it through the
//! text format, reload it, and verify the reloaded graph is
//! indistinguishable — same statistics and bit-identical algorithm
//! results — plus failure-surfacing behaviour of the engine.

use graphite::algorithms::registry::{run, Algo, Platform, RunOpts};
use graphite::datagen::{generate, GenParams};
use graphite::tgraph::io;
use graphite::tgraph::stats::dataset_stats;
use std::sync::Arc;

#[test]
fn save_load_round_trip_preserves_results() {
    let g = Arc::new(generate(&GenParams::small(77)));
    let path = std::env::temp_dir().join("graphite_pipeline_test.tg");
    io::save(&g, &path).expect("save");
    let mut reloaded = io::load(&path).expect("load");
    reloaded.rebuild_after_deserialize();
    let reloaded = Arc::new(reloaded);
    std::fs::remove_file(&path).ok();

    // Identical statistics...
    let s1 = dataset_stats(&g, None);
    let s2 = dataset_stats(&reloaded, None);
    assert_eq!(s1.interval, s2.interval);
    assert_eq!(s1.multi_snapshot, s2.multi_snapshot);
    assert_eq!(s1.transformed, s2.transformed);

    // ...and identical algorithm outcomes across TI and TD.
    let opts = RunOpts {
        workers: 2,
        ..Default::default()
    };
    for algo in [Algo::Bfs, Algo::Wcc, Algo::Sssp, Algo::Tc] {
        let a = run(algo, Platform::Icm, &g, None, &opts).unwrap();
        let b = run(algo, Platform::Icm, &reloaded, None, &opts).unwrap();
        assert_eq!(a.digest, b.digest, "{algo:?}");
        assert_eq!(
            a.metrics.counters.compute_calls, b.metrics.counters.compute_calls,
            "{algo:?}"
        );
    }
}

#[test]
fn malformed_files_fail_loudly() {
    let path = std::env::temp_dir().join("graphite_pipeline_bad.tg");
    std::fs::write(&path, "V 1 0 5\nE 1 1 2 0 3\n").unwrap(); // unknown dst vertex
    let err = io::load(&path).unwrap_err();
    assert!(err.to_string().contains("unknown vertex"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A panicking user program fails the whole run with a diagnosable typed
/// error instead of deadlocking the barrier.
#[test]
fn worker_panics_propagate() {
    use graphite::icm::prelude::*;
    use graphite::tgraph::fixtures::transit_graph;

    struct Bomb;
    impl IntervalProgram for Bomb {
        type State = u64;
        type Msg = u64;
        fn init(&self, _v: &VertexContext) -> u64 {
            0
        }
        fn compute(
            &self,
            _ctx: &mut ComputeContext<u64, u64>,
            _t: graphite::tgraph::time::Interval,
            _s: &u64,
            _m: &[u64],
        ) {
            panic!("user logic exploded");
        }
    }

    let err = run_icm(
        &Arc::new(transit_graph()),
        Arc::new(Bomb),
        &IcmConfig::default(),
        None,
    )
    .expect_err("a panicking program must not produce a result");
    assert!(err.to_string().contains("user logic exploded"), "{err}");
}
