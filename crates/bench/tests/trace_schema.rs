//! End-to-end schema validation: a Full-trace ICM run emitted through
//! `RunTrace::write_jsonl` must round-trip through `tracefmt::parse`, and
//! the parsed per-superstep rows must sum to *exactly* the run's
//! `RunMetrics` totals — the JSONL file is a faithful, lossless view of
//! the deterministic counters.

use graphite_algorithms::bfs::IcmBfs;
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_bench::tracefmt;
use graphite_bsp::engine::BspConfig;
use graphite_bsp::metrics::RunMetrics;
use graphite_bsp::trace::{RunTrace, TraceConfig};
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::sync::Arc;

fn small_graph() -> Arc<TemporalGraph> {
    let params = GenParams {
        vertices: 120,
        edges: 700,
        snapshots: 12,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Geometric { mean: 9.0 },
        props: PropModel {
            mean_segment: 5.0,
            max_cost: 10,
            max_travel_time: 3,
        },
        seed: 21,
    };
    Arc::new(generate(&params))
}

fn source(graph: &TemporalGraph) -> VertexId {
    graph
        .vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty graph")
}

fn full_trace_cfg() -> IcmConfig {
    IcmConfig {
        workers: 3,
        combiner: true,
        suppression_threshold: Some(0.7),
        partition: Default::default(),
        recovery: None,
        bsp: BspConfig {
            max_supersteps: 10_000,
            trace: TraceConfig::full(),
            ..Default::default()
        },
    }
}

/// Writes the trace to a temp file, parses it back, and removes the file.
fn round_trip(trace: &RunTrace, label: &str) -> tracefmt::TraceDoc {
    let path = std::env::temp_dir().join(format!(
        "graphite-trace-schema-{}-{}.jsonl",
        std::process::id(),
        label.replace('/', "-"),
    ));
    trace.write_jsonl(&path, label).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace read back");
    let _ = std::fs::remove_file(&path);
    tracefmt::parse(&text).expect("emitted trace must be schema-valid")
}

fn assert_reconciles(doc: &tracefmt::TraceDoc, metrics: &RunMetrics, label: &str) {
    assert_eq!(doc.label, label);
    assert_eq!(
        doc.steps().count() as u64,
        metrics.supersteps,
        "{label}: one step block per superstep"
    );
    assert_eq!(
        doc.sum(|w| w.msgs_out),
        metrics.counters.messages_sent,
        "{label}: per-step message sums must equal the RunMetrics total"
    );
    assert_eq!(
        doc.sum(|w| w.remote_msgs),
        metrics.counters.remote_messages,
        "{label}: remote-message sums must equal the RunMetrics total"
    );
    assert_eq!(
        doc.sum(|w| w.bytes_out),
        metrics.counters.bytes_sent,
        "{label}: byte sums must equal the RunMetrics total"
    );
    assert_eq!(
        doc.sum(|w| w.compute_calls),
        metrics.counters.compute_calls,
        "{label}: compute-call sums must equal the RunMetrics total"
    );
    assert_eq!(
        doc.sum(|w| w.warp_invocations),
        metrics.counters.warp_invocations,
        "{label}: warp-invocation sums must equal the RunMetrics total"
    );
    let last = doc.steps().last().expect("at least one step");
    assert!(
        last.halted,
        "{label}: the final step must carry halted=true"
    );
}

#[test]
fn bfs_full_trace_round_trips_and_reconciles() {
    let graph = small_graph();
    let program = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let r = run_icm(&graph, program, &full_trace_cfg(), None).expect("traced BFS run succeeds");
    let doc = round_trip(&r.metrics.trace, "bfs/icm");
    assert_reconciles(&doc, &r.metrics, "bfs/icm");
    // A rendered report mentions every superstep and the totals line.
    let report = tracefmt::render(&doc, 3);
    assert!(report.contains("trace: bfs/icm"));
    assert!(report.contains(&format!("total: {} step(s)", r.metrics.supersteps)));
}

#[test]
fn eat_full_trace_carries_warp_extras() {
    let graph = small_graph();
    let program = Arc::new(IcmEat {
        source: source(&graph),
        start: 0,
        labels: AlgLabels::resolve(&graph),
    });
    let r = run_icm(&graph, program, &full_trace_cfg(), None).expect("traced EAT run succeeds");
    let doc = round_trip(&r.metrics.trace, "eat/icm");
    assert_reconciles(&doc, &r.metrics, "eat/icm");
    // EAT exercises warp: the extras must survive serialization, and at
    // least one step must have a computable amplification factor.
    assert!(
        doc.sum(|w| w.warp_tuples) > 0,
        "EAT must produce warp tuples"
    );
    assert!(
        doc.steps().any(|s| s.warp_amplification().is_some()),
        "some step must report warp amplification"
    );
}
