//! Trace determinism: the observability layer must be an *observer*.
//!
//! Three obligations, each pinned here against real ICM runs:
//!
//! 1. **Digest-invisible.** State digests and the deterministic counter
//!    key are bit-identical whether tracing is Off, Counters, or Full —
//!    tracing may never perturb what the engine computes.
//! 2. **Deterministic content.** The Counters-level event stream is
//!    bit-identical across schedule-perturbation seeds, and a Full-level
//!    stream equals the Counters-level stream after
//!    [`TraceEvent::normalized`] strips wall-clock fields — timing is the
//!    *only* nondeterministic content a trace may carry.
//! 3. **Self-consistent.** Per-`WorkerStep` counters sum to exactly the
//!    run's `RunMetrics` totals, and recovery markers bracket replayed
//!    supersteps monotonically.

use graphite_algorithms::bfs::IcmBfs;
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_bsp::engine::BspConfig;
use graphite_bsp::fault::FaultPlan;
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::recover::RecoveryConfig;
use graphite_bsp::trace::{TraceConfig, TraceEvent};
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_icm::RunConfig;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::sync::Arc;

fn profile_long() -> GenParams {
    GenParams {
        vertices: 150,
        edges: 900,
        snapshots: 16,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Geometric { mean: 12.0 },
        props: PropModel {
            mean_segment: 6.0,
            max_cost: 10,
            max_travel_time: 3,
        },
        seed: 7,
    }
}

fn source(graph: &TemporalGraph) -> VertexId {
    graph
        .vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty graph")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn counter_key(m: &RunMetrics) -> [u64; 8] {
    [
        m.supersteps,
        m.counters.compute_calls,
        m.counters.scatter_calls,
        m.counters.messages_sent,
        m.counters.remote_messages,
        m.counters.bytes_sent,
        m.counters.warp_invocations,
        m.counters.warp_suppressions,
    ]
}

fn icm_cfg(trace: TraceConfig, perturb: Option<u64>) -> IcmConfig {
    IcmConfig {
        run: RunConfig {
            workers: 4,
            partition: Default::default(),
            bsp: BspConfig {
                max_supersteps: 10_000,
                perturb_schedule: perturb,
                trace,
                ..Default::default()
            },
        },
        combiner: true,
        suppression_threshold: Some(0.7),
    }
}

fn bfs_run(
    graph: &Arc<TemporalGraph>,
    trace: TraceConfig,
    perturb: Option<u64>,
) -> (u64, [u64; 8], RunMetrics) {
    let program = Arc::new(IcmBfs {
        source: source(graph),
    });
    let r =
        run_icm(graph, program, &icm_cfg(trace, perturb), None).expect("traced run must succeed");
    (
        fnv1a(format!("{:?}", r.states).as_bytes()),
        counter_key(&r.metrics),
        r.metrics,
    )
}

fn eat_run(graph: &Arc<TemporalGraph>, trace: TraceConfig) -> (u64, [u64; 8], RunMetrics) {
    let program = Arc::new(IcmEat {
        source: source(graph),
        start: 0,
        labels: AlgLabels::resolve(graph),
    });
    let r = run_icm(graph, program, &icm_cfg(trace, None), None).expect("traced run must succeed");
    (
        fnv1a(format!("{:?}", r.states).as_bytes()),
        counter_key(&r.metrics),
        r.metrics,
    )
}

#[test]
fn off_mode_records_no_events() {
    let graph = Arc::new(generate(&profile_long()));
    let (_, _, metrics) = bfs_run(&graph, TraceConfig::off(), None);
    assert!(
        metrics.trace.is_empty(),
        "Off-level tracing must record nothing, got {} event(s)",
        metrics.trace.len()
    );
}

#[test]
fn digests_and_counters_are_identical_across_trace_levels() {
    let graph = Arc::new(generate(&profile_long()));
    let off = bfs_run(&graph, TraceConfig::off(), None);
    let counters = bfs_run(&graph, TraceConfig::counters(), None);
    let full = bfs_run(&graph, TraceConfig::full(), None);
    assert_eq!(off.0, counters.0, "Counters tracing perturbed the digest");
    assert_eq!(off.0, full.0, "Full tracing perturbed the digest");
    assert_eq!(off.1, counters.1, "Counters tracing perturbed the counters");
    assert_eq!(off.1, full.1, "Full tracing perturbed the counters");

    let off = eat_run(&graph, TraceConfig::off());
    let full = eat_run(&graph, TraceConfig::full());
    assert_eq!(off.0, full.0, "EAT: Full tracing perturbed the digest");
    assert_eq!(off.1, full.1, "EAT: Full tracing perturbed the counters");
}

#[test]
fn counters_streams_are_bit_identical_across_perturbation_seeds() {
    let graph = Arc::new(generate(&profile_long()));
    let baseline = bfs_run(&graph, TraceConfig::counters(), None);
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let perturbed = bfs_run(&graph, TraceConfig::counters(), Some(seed));
        assert_eq!(
            baseline.2.trace.events, perturbed.2.trace.events,
            "Counters-level event stream diverged under perturbation seed {seed:#x}"
        );
    }
}

#[test]
fn full_streams_normalize_to_the_counters_stream() {
    let graph = Arc::new(generate(&profile_long()));
    let counters = bfs_run(&graph, TraceConfig::counters(), None);
    let full = bfs_run(&graph, TraceConfig::full(), None);
    assert_eq!(
        counters.2.trace.normalized().events,
        full.2.trace.normalized().events,
        "a normalized Full stream must equal the normalized Counters stream"
    );
    // Counters streams carry no timing at all: normalization is identity.
    assert_eq!(
        counters.2.trace.normalized().events,
        counters.2.trace.events
    );
    // And a normalized Full stream is perturbation-invariant too.
    let perturbed = bfs_run(&graph, TraceConfig::full(), Some(0xFEED));
    assert_eq!(
        full.2.trace.normalized().events,
        perturbed.2.trace.normalized().events,
        "normalized Full streams diverged under perturbation"
    );
}

#[test]
fn worker_step_sums_reconcile_with_run_metrics() {
    let graph = Arc::new(generate(&profile_long()));
    let (_, key, metrics) = bfs_run(&graph, TraceConfig::full(), None);
    let mut summed = UserCounters::default();
    let mut step_ends = 0u64;
    let mut sent_total = 0u64;
    for ev in &metrics.trace.events {
        match ev {
            TraceEvent::WorkerStep { counters, .. } => summed += *counters,
            TraceEvent::StepEnd { sent, .. } => {
                step_ends += 1;
                sent_total += sent;
            }
            other => panic!("fault-free run carries a recovery marker: {other:?}"),
        }
    }
    assert_eq!(summed, metrics.counters, "WorkerStep sums != RunMetrics");
    assert_eq!(step_ends, metrics.supersteps, "one StepEnd per superstep");
    assert_eq!(sent_total, metrics.counters.messages_sent);
    // The reconciled totals are the same ones the pinned counter key uses.
    assert_eq!(key[3], summed.messages_sent);
}

#[test]
fn recovery_markers_bracket_replayed_supersteps() {
    let graph = Arc::new(generate(&profile_long()));
    let program = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let baseline = bfs_run(&graph, TraceConfig::off(), None);
    let mut cfg = icm_cfg(TraceConfig::counters(), None);
    cfg.run.bsp.fault_plan = Some(FaultPlan::panic_at(1, 3));
    cfg.run.bsp.recovery = Some(RecoveryConfig::every(2));
    let r = run_icm(&graph, program, &cfg, None).expect("recoverable traced run must converge");
    assert_eq!(
        fnv1a(format!("{:?}", r.states).as_bytes()),
        baseline.0,
        "tracing a recovered run perturbed its digest"
    );
    assert_eq!(counter_key(&r.metrics), baseline.1);

    let events = &r.metrics.trace.events;
    let checkpoints = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Checkpoint { .. }))
        .count();
    let rollbacks: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Rollback { from_step, to_step } => Some((*from_step, *to_step)),
            _ => None,
        })
        .collect();
    assert!(checkpoints >= 1, "recoverable run must record checkpoints");
    assert_eq!(rollbacks.len(), 1, "one panic → one rollback marker");
    // `from_step` is the failed attempt's last *completed* step, so it can
    // equal the checkpoint step when the fault hit the very next superstep.
    let (from, to) = rollbacks[0];
    assert!(
        to <= from,
        "rollback must not fast-forward ({from} -> {to})"
    );

    // The trace is monotone across the rollback: the replayed attempt's
    // first StepEnd after the marker resumes at `to + 1`.
    let marker_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::Rollback { .. }))
        .expect("marker present");
    let resumed = events[marker_pos..]
        .iter()
        .find_map(|e| match e {
            TraceEvent::StepEnd { step, .. } => Some(*step),
            _ => None,
        })
        .expect("replay must run supersteps");
    assert_eq!(
        resumed,
        to + 1,
        "replay must resume just after the checkpoint"
    );

    // Replayed WorkerSteps are *included*: the trace totals reconcile with
    // the run's counters, which also accumulate across the replay.
    let mut summed = UserCounters::default();
    for ev in events {
        if let TraceEvent::WorkerStep { counters, .. } = ev {
            summed += *counters;
        }
    }
    assert_eq!(
        summed, r.metrics.counters,
        "recovered-run WorkerStep sums != RunMetrics"
    );
}
