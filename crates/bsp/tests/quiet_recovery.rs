//! A recovered fault writes nothing to stderr. Injected worker panics
//! unwind without calling the process panic hook, so fault-matrix cells
//! that roll back and replay leave no trace outside the run's recovery
//! counters, while a real worker panic still reaches the hook exactly
//! once.
//!
//! The panic hook is process-wide, so this file holds one test: no other
//! test of this binary can panic while the counting hook is installed.

use graphite_algorithms::registry::{try_run, Algo, Platform, RunOpts};
use graphite_bsp::{
    run_bsp, Aggregators, BspConfig, BspError, FaultPlan, Inbox, Outbox, PartitionMap,
    RecoveryConfig, TraceSink, UserCounters, WorkerLogic,
};
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_tgraph::graph::VIdx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Worker 0 sends itself one message at superstep 1 and panics on it.
struct RealPanic {
    worker: usize,
}

impl WorkerLogic for RealPanic {
    type Msg = u64;
    fn superstep(
        &mut self,
        step: u64,
        _inbox: &Inbox<u64>,
        outbox: &mut Outbox<u64>,
        _globals: &Aggregators,
        _partial: &mut Aggregators,
        _counters: &mut UserCounters,
        _sink: &mut TraceSink,
    ) {
        if self.worker == 0 && step == 1 {
            outbox.send(VIdx(0), 1);
        }
        assert!(self.worker != 0 || step < 2, "a real worker panic");
    }

    fn checkpoint(&self, _buf: &mut Vec<u8>) {}
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), &'static str> {
        Ok(())
    }
}

#[test]
fn recovered_faults_never_reach_the_panic_hook() {
    let graph = Arc::new(generate(&GenParams {
        vertices: 150,
        edges: 900,
        snapshots: 8,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Geometric { mean: 6.0 },
        props: PropModel {
            mean_segment: 4.0,
            max_cost: 10,
            max_travel_time: 2,
        },
        seed: 7,
    }));
    let source = graph.vertices().map(|(_, v)| v.vid).min();
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    for platform in [Platform::Icm, Platform::Msb] {
        for worker in 0..4 {
            for step in [2, 3] {
                let opts = RunOpts {
                    workers: 4,
                    source,
                    fault_plan: Some(FaultPlan::panic_at(worker, step)),
                    recovery: Some(RecoveryConfig::every(2)),
                    ..RunOpts::default()
                };
                let r = try_run(Algo::Bfs, platform, &graph, None, &opts)
                    .unwrap_or_else(|e| panic!("{platform:?} must recover: {e}"));
                assert_eq!(r.metrics.recovery.rollbacks, 1, "the fault fired");
            }
        }
    }
    let recovered = HOOK_CALLS.load(Ordering::SeqCst);

    let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("a partition"));
    let logics = (0..2).map(|worker| RealPanic { worker }).collect();
    let Err(err) = run_bsp(&BspConfig::default(), logics, partition, None, None) else {
        panic!("a real panic fails the run");
    };
    let real = HOOK_CALLS.load(Ordering::SeqCst) - recovered;
    drop(std::panic::take_hook());

    assert_eq!(
        recovered, 0,
        "recovered faults must not call the panic hook"
    );
    assert!(
        matches!(err, BspError::WorkerPanicked { step: 2, .. }),
        "{err:?}"
    );
    assert_eq!(real, 1, "a real worker panic reaches the hook once");
}
