//! Micro-bench: checkpoint/rollback overhead. ICM BFS and EAT on the
//! small long-lifespan graph, fault-free, with `IcmConfig::recovery` off
//! vs. on at checkpoint intervals 16 and 4. The interval-16
//! column is the headline number — EXPERIMENTS.md documents the budget
//! (≤15% makespan overhead vs. off); interval 4 shows how the cost
//! scales as checkpoints get denser. The recorded counters include the
//! recovery block, so the committed BENCH_recovery.json also documents
//! checkpoint sizes.

use graphite_algorithms::bfs::IcmBfs;
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_bench::record::Recorder;
use graphite_bench::timing::bench;
use graphite_bsp::engine::BspConfig;
use graphite_bsp::recover::RecoveryConfig;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_icm::program::IntervalProgram;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::hint::black_box;
use std::sync::Arc;

fn small_long_lifespan() -> Arc<TemporalGraph> {
    let params = GenParams {
        vertices: 300,
        edges: 2400,
        snapshots: 24,
        topology: Topology::PowerLaw {
            edges_per_vertex: 8,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Geometric { mean: 18.0 },
        props: PropModel {
            mean_segment: 9.0,
            max_cost: 10,
            max_travel_time: 1,
        },
        seed: 99,
    };
    Arc::new(generate(&params))
}

/// The run config of one cell; `interval` 0 means recovery off.
fn cfg(interval: u64) -> IcmConfig {
    IcmConfig {
        workers: 2,
        combiner: true,
        suppression_threshold: Some(0.7),
        partition: Default::default(),
        recovery: (interval > 0).then(|| RecoveryConfig::every(interval)),
        bsp: BspConfig {
            max_supersteps: 10_000,
            ..Default::default()
        },
    }
}

fn source(graph: &TemporalGraph) -> VertexId {
    graph
        .vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty graph")
}

/// Benchmarks one (program, checkpoint interval) cell.
fn case<P>(
    rec: &mut Recorder,
    label: &str,
    graph: &Arc<TemporalGraph>,
    program: &Arc<P>,
    interval: u64,
) where
    P: IntervalProgram<State = i64>,
{
    let mut last_metrics = None;
    let result = bench(label, || {
        let outcome = run_icm(graph, Arc::clone(program), &cfg(interval), None)
            .expect("bench run must succeed");
        last_metrics = Some(outcome.metrics.clone());
        black_box(outcome)
    });
    let metrics = last_metrics.expect("bench ran at least once");
    rec.push_with_metrics(result, &metrics);
}

fn main() {
    let mut rec = Recorder::new("recovery");
    let graph = small_long_lifespan();
    let bfs = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let eat = Arc::new(IcmEat {
        source: source(&graph),
        start: 0,
        labels: AlgLabels::resolve(&graph),
    });

    case(&mut rec, "recovery/bfs/off", &graph, &bfs, 0);
    case(&mut rec, "recovery/bfs/ckpt16", &graph, &bfs, 16);
    case(&mut rec, "recovery/bfs/ckpt4", &graph, &bfs, 4);

    case(&mut rec, "recovery/eat/off", &graph, &eat, 0);
    case(&mut rec, "recovery/eat/ckpt16", &graph, &eat, 16);
    case(&mut rec, "recovery/eat/ckpt4", &graph, &eat, 4);

    rec.finish();
}
