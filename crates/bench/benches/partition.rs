//! Bench: partitioning strategies under temporal skew. ICM BFS on a
//! skew-shaped graph (power-law degree, bursty bimodal lifespans — the
//! `skew` datagen profile at bench scale), once per strategy. Each row
//! records the run's wall time and `RunMetrics` counters (`bytes_sent`
//! legitimately varies with placement) plus the placement's quality
//! figures milli-scaled into integer counters — `interval_balance_milli`
//! is the headline: the committed BENCH_partition.json must show
//! temporal-balance strictly below hash there, and `bench_validate`
//! enforces exactly that.

use graphite_algorithms::bfs::IcmBfs;
use graphite_bench::record::Recorder;
use graphite_bench::timing::bench;
use graphite_bsp::engine::BspConfig;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_part::{stats, PartitionStrategy};
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::hint::black_box;
use std::sync::Arc;

const WORKERS: usize = 4;

/// The `skew` profile's shape at bench scale: heavy-tailed per-vertex
/// interval weight, so placements genuinely differ in temporal balance.
fn skew_graph() -> Arc<TemporalGraph> {
    let params = GenParams {
        vertices: 500,
        edges: 5_000,
        snapshots: 32,
        topology: Topology::PowerLaw {
            edges_per_vertex: 10,
        },
        vertex_lifespans: LifespanModel::Bursty {
            heavy_fraction: 0.08,
            heavy_mean: 28.0,
            burst_mean: 2.0,
        },
        edge_lifespans: LifespanModel::Bursty {
            heavy_fraction: 0.10,
            heavy_mean: 24.0,
            burst_mean: 1.5,
        },
        props: PropModel {
            mean_segment: 4.0,
            max_cost: 10,
            max_travel_time: 1,
        },
        seed: 99,
    };
    Arc::new(generate(&params))
}

fn cfg(strategy: PartitionStrategy) -> IcmConfig {
    IcmConfig {
        workers: WORKERS,
        combiner: true,
        suppression_threshold: Some(0.7),
        partition: strategy,
        recovery: None,
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

/// `0.0..` ratio → integer milli-units (1.000 ≡ 1000), for the recorder's
/// u64 counters.
fn milli(v: f64) -> u64 {
    (v * 1000.0).round() as u64
}

fn main() {
    let mut rec = Recorder::new("partition");
    let graph = skew_graph();
    let bfs = Arc::new(IcmBfs {
        source: source(&graph),
    });
    for strategy in PartitionStrategy::ALL {
        let map = strategy
            .build(&graph, WORKERS)
            .expect("bench placement must build");
        let quality = stats(&graph, &map);
        let mut last_metrics = None;
        let result = bench(&format!("skew/{}", strategy.name()), || {
            let outcome = run_icm(&graph, Arc::clone(&bfs), &cfg(strategy.clone()), None)
                .expect("bench run must succeed");
            last_metrics = Some(outcome.metrics.clone());
            black_box(outcome)
        });
        let metrics = last_metrics.expect("bench ran at least once");
        rec.push_with_metrics_and(
            result,
            &metrics,
            vec![
                ("balance_milli", milli(quality.balance)),
                ("interval_balance_milli", milli(quality.interval_balance)),
                ("cut_edges", quality.cut_edges as u64),
                ("est_remote_milli", milli(quality.est_remote_fraction)),
            ],
        );
    }
    rec.finish();
}
