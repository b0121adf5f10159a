//! Pinned result digests: the schedule-perturbation fingerprints of four
//! reference runs, recorded before the warp/routing hot-path optimization.
//! Any change to these digests means the optimization altered observable
//! results or deterministic counters — which it must never do.
//!
//! The fault-matrix tests extend the same pinning to the recovery layer:
//! a run that faults (worker panic or wire bit-flip), rolls back to a
//! checkpoint, and replays must land on the *bit-identical* digest and
//! deterministic counter key of the fault-free run — recovery is
//! observable only in the [`RecoveryMetrics`] counters, which never enter
//! digests. A persistent fault must exhaust the retry budget and report
//! [`BspError::RecoveryExhausted`], never a wrong answer.

use graphite_algorithms::bfs::{IcmBfs, VcmBfs};
use graphite_algorithms::registry::{try_run, Algo, Platform, RunOpts};
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_baselines::vcm::run_vcm;
use graphite_baselines::{EdgeWeights, SnapshotTopology};
use graphite_bsp::engine::BspConfig;
use graphite_bsp::error::BspError;
use graphite_bsp::fault::{Fault, FaultKind, FaultMode, FaultPlan};
use graphite_bsp::metrics::{RecoveryMetrics, RunMetrics};
use graphite_bsp::recover::RecoveryConfig;
use graphite_bsp::trace::{RunTrace, TraceConfig, TraceEvent};
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

fn profile_unit() -> GenParams {
    GenParams {
        vertices: 150,
        edges: 900,
        snapshots: 8,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Unit,
        props: PropModel {
            mean_segment: 1.0,
            max_cost: 10,
            max_travel_time: 2,
        },
        seed: 11,
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

fn fingerprint<P>(graph: &Arc<TemporalGraph>, program: Arc<P>) -> (u64, [u64; 8])
where
    P: graphite_icm::program::IntervalProgram<State = i64>,
{
    let r = run_icm(graph, program, &icm_cfg(None, None), None).expect("pinned run must succeed");
    (
        fnv1a(format!("{:?}", r.states).as_bytes()),
        counter_key(&r.metrics),
    )
}

fn icm_cfg(fault_plan: Option<FaultPlan>, perturb: Option<u64>) -> IcmConfig {
    IcmConfig {
        run: RunConfig {
            workers: 4,
            partition: Default::default(),
            bsp: BspConfig {
                max_supersteps: 10_000,
                perturb_schedule: perturb,
                fault_plan,
                ..Default::default()
            },
        },
        combiner: true,
        suppression_threshold: Some(0.7),
    }
}

/// Recorded on the pre-optimization (sort-based warp, allocating router)
/// engine; every entry is (state digest, deterministic counter key). The
/// key's sixth column, `bytes_sent`, was re-recorded when the sender-side
/// fold landed (the two long-lifespan runs ship fewer wire messages: 8355
/// → 7930 and 3419 → 3274 bytes); every other entry is the original.
const PINS: [(&str, u64, [u64; 8]); 4] = [
    (
        "bfs/long",
        0x0727_4081_2ec0_284e,
        [13, 2618, 2398, 2398, 1802, 7930, 466, 297],
    ),
    (
        "eat/long",
        0x189c_95d8_c097_8d98,
        [8, 979, 1137, 1137, 823, 3274, 384, 0],
    ),
    (
        "bfs/unit",
        0xf82a_6ff7_2008_b542,
        [7, 168, 18, 18, 17, 70, 0, 18],
    ),
    (
        "eat/unit",
        0xefaf_9de7_b9b6_5af3,
        [6, 172, 42, 42, 31, 125, 38, 0],
    ),
];

#[test]
fn fingerprints_match_pre_optimization_recording() {
    let mut got: Vec<(String, u64, [u64; 8])> = Vec::new();
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let bfs = fingerprint(
            &graph,
            Arc::new(IcmBfs {
                source: source(&graph),
            }),
        );
        got.push((format!("bfs/{name}"), bfs.0, bfs.1));
        let eat = fingerprint(
            &graph,
            Arc::new(IcmEat {
                source: source(&graph),
                start: 0,
                labels: AlgLabels::resolve(&graph),
            }),
        );
        got.push((format!("eat/{name}"), eat.0, eat.1));
    }
    for (label, digest, counters) in PINS {
        let Some(actual) = got.iter().find(|(l, _, _)| l == label) else {
            panic!("pin {label} was not computed");
        };
        assert_eq!(
            actual.1, digest,
            "{label}: state digest diverged from the pre-optimization recording"
        );
        assert_eq!(
            actual.2, counters,
            "{label}: counter key diverged from the pre-optimization recording"
        );
    }
}

// ---------------------------------------------------------------------------
// Fault matrix: checkpoint/rollback recovery must be digest-invisible.
// ---------------------------------------------------------------------------

/// Supersteps at which matrix faults trigger. Both land inside every
/// workload here (the shortest pinned run takes 6 supersteps).
const FAULT_STEPS: [u64; 2] = [2, 3];

/// One matrix cell's plan: the fault kind alternates with cell parity so
/// both recoverable error classes (worker panic, wire corruption) are
/// exercised across the matrix. A wire-corruption cell may find no remote
/// batch bound for its worker at its step — then the fault never fires
/// and the cell degenerates to a fault-free run, which the digest
/// equality still covers.
fn matrix_plan(worker: usize, step: u64) -> (FaultPlan, FaultKind) {
    let kind = if (worker as u64 + step).is_multiple_of(2) {
        FaultKind::WorkerPanic
    } else {
        FaultKind::WireCorruption
    };
    let plan = FaultPlan {
        faults: vec![Fault {
            worker,
            step,
            kind,
            mode: FaultMode::Transient,
        }],
    };
    (plan, kind)
}

fn icm_recovered_fingerprint<P>(
    graph: &Arc<TemporalGraph>,
    program: &Arc<P>,
    plan: FaultPlan,
    perturb: Option<u64>,
) -> (u64, [u64; 8], RecoveryMetrics)
where
    P: graphite_icm::program::IntervalProgram<State = i64>,
{
    let mut cfg = icm_cfg(Some(plan), perturb);
    cfg.run.bsp.recovery = Some(RecoveryConfig::every(2));
    let r =
        run_icm(graph, Arc::clone(program), &cfg, None).expect("recoverable ICM run must converge");
    (
        fnv1a(format!("{:?}", r.states).as_bytes()),
        counter_key(&r.metrics),
        r.metrics.recovery,
    )
}

fn vcm_digest(states: std::collections::HashMap<u32, i64>) -> u64 {
    let mut states: Vec<(u32, i64)> = states.into_iter().collect();
    states.sort_unstable();
    fnv1a(format!("{states:?}").as_bytes())
}

fn vcm_topology(graph: &Arc<TemporalGraph>, params: &GenParams) -> Arc<SnapshotTopology> {
    let weights = EdgeWeights {
        w1: graph.label("travel-cost"),
        w2: graph.label("travel-time"),
    };
    Arc::new(SnapshotTopology::new(
        Arc::clone(graph),
        params.snapshots / 2,
        weights,
    ))
}

/// Asserts that every (worker, fault step) cell of the matrix recovers to
/// the given fault-free fingerprint, and that recovery left its only trace
/// in the recovery counters. Every platform is one BSP run, so a panic
/// rolls back exactly once.
fn assert_matrix_recovers(
    label: &str,
    baseline: (u64, [u64; 8]),
    steps: &[u64],
    mut rerun: impl FnMut(FaultPlan) -> (u64, [u64; 8], RecoveryMetrics),
) {
    let mut rollbacks = 0;
    for worker in 0..4 {
        for &step in steps {
            let (plan, kind) = matrix_plan(worker, step);
            let (digest, counters, recovery) = rerun(plan);
            assert_eq!(
                digest, baseline.0,
                "{label}: recovered digest diverged (fault {kind:?} at worker {worker}, step {step})"
            );
            assert_eq!(
                counters, baseline.1,
                "{label}: recovered counters diverged (fault {kind:?} at worker {worker}, step {step})"
            );
            assert!(
                recovery.checkpoints_taken >= 1,
                "{label}: recoverable run must checkpoint"
            );
            rollbacks += recovery.rollbacks;
            if kind == FaultKind::WorkerPanic {
                assert_eq!(
                    recovery.rollbacks, 1,
                    "{label}: a panic at (w{worker}, s{step}) must trigger exactly one rollback"
                );
                assert!(recovery.supersteps_replayed >= 1);
            } else {
                assert!(
                    recovery.rollbacks <= 1,
                    "{label}: one transient corruption fault cannot roll back twice"
                );
            }
        }
    }
    assert!(rollbacks >= 1, "{label}: no matrix fault ever fired");
}

#[test]
fn recovered_icm_digests_match_fault_free() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let bfs = Arc::new(IcmBfs {
            source: source(&graph),
        });
        let eat = Arc::new(IcmEat {
            source: source(&graph),
            start: 0,
            labels: AlgLabels::resolve(&graph),
        });
        let bfs_base = fingerprint(&graph, Arc::clone(&bfs));
        assert_matrix_recovers(&format!("ICM/BFS/{name}"), bfs_base, &FAULT_STEPS, |plan| {
            icm_recovered_fingerprint(&graph, &bfs, plan, None)
        });
        let eat_base = fingerprint(&graph, Arc::clone(&eat));
        assert_matrix_recovers(&format!("ICM/EAT/{name}"), eat_base, &FAULT_STEPS, |plan| {
            icm_recovered_fingerprint(&graph, &eat, plan, None)
        });
    }
}

#[test]
fn recovered_vcm_digests_match_fault_free() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let topo = vcm_topology(&graph, &params);
        let program = Arc::new(VcmBfs {
            source: source(&graph),
        });
        let base = run_vcm(&topo, Arc::clone(&program), &icm_cfg(None, None).run)
            .expect("fault-free VCM run must succeed");
        let baseline = (vcm_digest(base.states), counter_key(&base.metrics));
        assert_matrix_recovers(&format!("VCM/BFS/{name}"), baseline, &FAULT_STEPS, |plan| {
            let mut cfg = icm_cfg(Some(plan), None).run;
            cfg.bsp.recovery = Some(RecoveryConfig::every(2));
            let r = run_vcm(&topo, Arc::clone(&program), &cfg)
                .expect("recoverable VCM run must converge");
            (
                vcm_digest(r.states),
                counter_key(&r.metrics),
                r.metrics.recovery,
            )
        });
    }
}

/// MSB, Chlonos, TGB and GoFFish take the fault plan and the recovery
/// schedule through the registry like ICM does; every recovered digest
/// and counter key equals the clean solo run's, and fault steps count the
/// whole query's supersteps. GoFFish SSSP's time-points are one superstep
/// each (its messages are all temporal), so its cells fault at superstep
/// 1 too, and its steps 2 and 3 are the first of a later time-point.
///
/// The snapshot platforms walk their snapshots, batches or time-points
/// as the phases of one run. Their extra cells fault the first superstep
/// of the last phase — on GoFFish, the last one whose time-point received
/// temporal messages — under a checkpoint interval longer than any phase,
/// so the one rollback must land on the phase's own boundary checkpoint.
#[test]
fn recovered_baseline_digests_match_fault_free() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        for (algo, platform) in [
            (Algo::Bfs, Platform::Msb),
            (Algo::Bfs, Platform::Chlonos),
            (Algo::Sssp, Platform::Tgb),
            (Algo::Sssp, Platform::Goffish),
        ] {
            let run = |fault_plan, recovery| {
                let opts = RunOpts {
                    workers: 4,
                    source: Some(source(&graph)),
                    max_supersteps: 10_000,
                    // Several Chlonos batches, each a phase of the run.
                    batch_size: 4,
                    fault_plan,
                    recovery,
                    trace: TraceConfig::counters(),
                    ..RunOpts::default()
                };
                let r = try_run(algo, platform, &graph, None, &opts)
                    .expect("a recoverable baseline run must converge");
                (r.digest.expect("a digest").0, r.metrics)
            };
            let (digest, clean) = run(None, None);
            let baseline = (digest, counter_key(&clean));
            let label = format!("{}/{}/{name}", platform.name(), algo.name());
            let steps: &[u64] = if platform == Platform::Goffish {
                &[1, 2, 3]
            } else {
                &FAULT_STEPS
            };
            assert_matrix_recovers(&label, baseline, steps, |plan| {
                let (digest, m) = run(Some(plan), Some(RecoveryConfig::every(2)));
                (digest, counter_key(&m), m.recovery)
            });
            if platform == Platform::Tgb {
                continue;
            }
            let (starts, longest) = phases(&clean.trace);
            let step = *starts
                .iter()
                .rev()
                .find(|&&s| {
                    platform != Platform::Goffish || temporal_sends(&clean.trace, s - 1) > 0
                })
                .unwrap_or_else(|| panic!("{label}: no later phase"));
            for worker in 0..4 {
                let plan = FaultPlan::panic_at(worker, step);
                let (digest, m) = run(Some(plan), Some(RecoveryConfig::every(longest + 1)));
                let cell = format!("{label}: panic at (w{worker}, s{step}), the first of a phase");
                assert_eq!((digest, counter_key(&m)), baseline, "{cell}");
                assert_eq!(m.recovery.rollbacks, 1, "{cell}");
                assert_eq!(
                    m.recovery.supersteps_replayed, 1,
                    "{cell}: the rollback must land on the phase boundary"
                );
            }
        }
    }
}

/// From a clean run's trace: the first superstep of every phase after the
/// first, and the longest phase's length. A phase ends at a quiescent
/// barrier that does not halt (the programs here never force a step on
/// with no message in flight).
fn phases(trace: &RunTrace) -> (Vec<u64>, u64) {
    let (mut starts, mut longest, mut begun) = (Vec::new(), 0, 1);
    for event in &trace.events {
        if let TraceEvent::StepEnd {
            step,
            sent: 0,
            halted,
            ..
        } = *event
        {
            longest = longest.max(step + 1 - begun);
            if !halted {
                begun = step + 1;
                starts.push(begun);
            }
        }
    }
    (starts, longest)
}

/// Messages superstep `step` sent but did not route: GoFFish's temporal
/// messages, queued for later time-points.
fn temporal_sends(trace: &RunTrace, step: u64) -> u64 {
    let (mut counted, mut routed) = (0, 0);
    for event in &trace.events {
        match event {
            TraceEvent::WorkerStep {
                step: s, counters, ..
            } if *s == step => counted += counters.messages_sent,
            TraceEvent::StepEnd { step: s, sent, .. } if *s == step => routed += sent,
            _ => {}
        }
    }
    counted - routed
}

/// Recovery composed with schedule perturbation: a run that is faulted,
/// rolled back, replayed, *and* scheduled under a perturbation seed must
/// still land on the fault-free, unperturbed digest.
#[test]
fn recovery_composes_with_schedule_perturbation() {
    let params = profile_long();
    let graph = Arc::new(generate(&params));
    let bfs = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let baseline = fingerprint(&graph, Arc::clone(&bfs));
    for seed in [1u64, 0xDEAD_BEEF] {
        for step in FAULT_STEPS {
            let (plan, kind) = matrix_plan(1, step);
            let (digest, counters, recovery) =
                icm_recovered_fingerprint(&graph, &bfs, plan, Some(seed));
            assert_eq!(
                digest, baseline.0,
                "perturb {seed:#x} + {kind:?} at step {step}: digest diverged"
            );
            assert_eq!(
                counters, baseline.1,
                "perturb {seed:#x} + {kind:?} at step {step}: counters diverged"
            );
            assert!(recovery.checkpoints_taken >= 1);
        }
    }
}

/// A recovered run must reproduce the *pinned* fingerprints exactly — not
/// merely match a freshly computed baseline.
#[test]
fn recovered_runs_reproduce_the_pinned_fingerprints() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let bfs = Arc::new(IcmBfs {
            source: source(&graph),
        });
        let eat = Arc::new(IcmEat {
            source: source(&graph),
            start: 0,
            labels: AlgLabels::resolve(&graph),
        });
        for (algo, label) in [
            ("bfs", format!("bfs/{name}")),
            ("eat", format!("eat/{name}")),
        ] {
            let (_, pin_digest, pin_counters) = PINS
                .iter()
                .find(|(l, _, _)| *l == label)
                .expect("pin exists");
            let plan = FaultPlan::panic_at(1, 2);
            let (digest, counters, recovery) = if algo == "bfs" {
                icm_recovered_fingerprint(&graph, &bfs, plan, None)
            } else {
                icm_recovered_fingerprint(&graph, &eat, plan, None)
            };
            assert_eq!(
                digest, *pin_digest,
                "{label}: recovered digest diverged from the recording"
            );
            assert_eq!(
                counters, *pin_counters,
                "{label}: recovered counter key diverged from the recording"
            );
            assert_eq!(recovery.rollbacks, 1, "{label}: the panic must have fired");
        }
    }
}

/// A persistent fault must exhaust the retry budget with the complete
/// fault history — never converge to a wrong answer, never loop forever.
#[test]
fn persistent_fault_exhausts_recovery_with_history() {
    let params = profile_long();
    let graph = Arc::new(generate(&params));
    let bfs = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let plan = FaultPlan::panic_at(0, 2).persistent();
    let mut cfg = icm_cfg(Some(plan), None);
    cfg.run.bsp.recovery = Some(RecoveryConfig {
        max_attempts: 2,
        ..RecoveryConfig::every(2)
    });
    let err = run_icm(&graph, Arc::clone(&bfs), &cfg, None)
        .expect_err("a persistent fault must not converge");
    let BspError::RecoveryExhausted {
        attempts,
        last,
        history,
    } = err
    else {
        panic!("expected RecoveryExhausted, got a different error");
    };
    assert_eq!(attempts, 3, "initial attempt + 2 replays");
    assert_eq!(history.len(), 3);
    assert!(matches!(*last, BspError::WorkerPanicked { step: 2, .. }));
    for h in &history {
        assert!(matches!(h, BspError::WorkerPanicked { step: 2, .. }));
    }
}
