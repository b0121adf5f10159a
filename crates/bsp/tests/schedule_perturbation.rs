//! Schedule-perturbation race harness (DESIGN.md §10).
//!
//! The BSP substrate promises bit-identical results regardless of worker
//! scheduling: partitioned compute plus a deterministic exchange means no
//! execution order visible to user logic may depend on thread timing.
//! `BspConfig::perturb_schedule` makes the claim testable — it permutes
//! every scheduling freedom the engine has (worker join order, exchange
//! routing order, destination delivery order of remote batches) with a
//! seeded PRNG, while preserving per-(src, dst) FIFO.
//!
//! This harness reruns BFS (time-independent) and EAT (time-dependent)
//! under ICM, BFS under the VCM core, and the snapshot platforms through
//! the registry (MSB and Chlonos BFS, GoFFish SSSP), on two generator
//! profiles
//! (long-lifespan "Twitter-like" and unit-lifespan "GPlus-like"), across
//! 8 perturbation seeds plus the unperturbed schedule, and asserts the
//! result digests and deterministic metric counters are identical. Any
//! hidden order dependence — a hash-ordered loop feeding message
//! emission, a non-commutative aggregator fold — shows up as a digest
//! mismatch under some seed.

use graphite_algorithms::bfs::{IcmBfs, VcmBfs};
use graphite_algorithms::registry::{try_run, Algo, Platform, RunOpts};
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_baselines::vcm::run_vcm;
use graphite_baselines::{EdgeWeights, SnapshotTopology};
use graphite_bsp::engine::BspConfig;
use graphite_bsp::metrics::RunMetrics;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_icm::RunConfig;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::sync::Arc;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX];
const WORKERS: usize = 4;

/// Long-lifespan profile: edges persist across most snapshots, so warp
/// aggregation and interval coalescing carry real work.
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

/// Unit-lifespan profile: every edge lives one time-point — maximal
/// message fan-out per superstep, warp suppression territory.
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

/// FNV-1a over a deterministic rendering of a result.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The scheduling-invariant slice of the metrics: timing is excluded,
/// everything counted in messages/calls/bytes must be exact.
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

fn icm_cfg(perturb: Option<u64>) -> IcmConfig {
    IcmConfig {
        run: RunConfig {
            workers: WORKERS,
            partition: Default::default(),
            bsp: BspConfig {
                max_supersteps: 10_000,
                perturb_schedule: perturb,
                ..Default::default()
            },
        },
        combiner: true,
        suppression_threshold: Some(0.7),
    }
}

/// Runs one ICM program under `perturb` and digests (states, counters).
fn icm_fingerprint<P>(
    graph: &Arc<TemporalGraph>,
    program: &Arc<P>,
    perturb: Option<u64>,
) -> (u64, [u64; 8])
where
    P: graphite_icm::program::IntervalProgram<State = i64>,
{
    let r = run_icm(graph, Arc::clone(program), &icm_cfg(perturb), None)
        .expect("perturbed ICM run must succeed");
    // BTreeMap renders in vid order; the interval lists are canonical
    // (sorted, coalesced) by construction.
    (
        fnv1a(format!("{:?}", r.states).as_bytes()),
        counter_key(&r.metrics),
    )
}

fn vcm_fingerprint(
    topo: &Arc<SnapshotTopology>,
    program: &Arc<VcmBfs>,
    perturb: Option<u64>,
) -> (u64, [u64; 8]) {
    let r = run_vcm(topo, Arc::clone(program), &icm_cfg(perturb).run)
        .expect("perturbed VCM run must succeed");
    let mut states: Vec<(u32, i64)> = r.states.into_iter().collect();
    states.sort_unstable();
    (
        fnv1a(format!("{states:?}").as_bytes()),
        counter_key(&r.metrics),
    )
}

/// Asserts the baseline fingerprint survives every perturbation seed.
fn assert_invariant(
    label: &str,
    baseline: (u64, [u64; 8]),
    mut rerun: impl FnMut(u64) -> (u64, [u64; 8]),
) {
    for seed in SEEDS {
        let (digest, counters) = rerun(seed);
        assert_eq!(
            digest, baseline.0,
            "{label}: result digest diverged under perturbation seed {seed:#x}"
        );
        assert_eq!(
            counters, baseline.1,
            "{label}: metric counters diverged under perturbation seed {seed:#x}"
        );
    }
}

#[test]
fn icm_bfs_is_schedule_invariant() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let program = Arc::new(IcmBfs {
            source: source(&graph),
        });
        let baseline = icm_fingerprint(&graph, &program, None);
        assert_invariant(&format!("ICM/BFS/{name}"), baseline, |seed| {
            icm_fingerprint(&graph, &program, Some(seed))
        });
    }
}

#[test]
fn icm_eat_is_schedule_invariant() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let program = Arc::new(IcmEat {
            source: source(&graph),
            start: 0,
            labels: AlgLabels::resolve(&graph),
        });
        let baseline = icm_fingerprint(&graph, &program, None);
        assert_invariant(&format!("ICM/EAT/{name}"), baseline, |seed| {
            icm_fingerprint(&graph, &program, Some(seed))
        });
    }
}

#[test]
fn vcm_bfs_is_schedule_invariant() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        let weights = EdgeWeights {
            w1: graph.label("travel-cost"),
            w2: graph.label("travel-time"),
        };
        // A mid-horizon snapshot so the topology is neither empty nor
        // degenerate under the unit-lifespan profile.
        let topo = Arc::new(SnapshotTopology::new(
            Arc::clone(&graph),
            params.snapshots / 2,
            weights,
        ));
        let program = Arc::new(VcmBfs {
            source: source(&graph),
        });
        let baseline = vcm_fingerprint(&topo, &program, None);
        assert_invariant(&format!("VCM/BFS/{name}"), baseline, |seed| {
            vcm_fingerprint(&topo, &program, Some(seed))
        });
    }
}

/// MSB, Chlonos and GoFFish perturb their one run, every phase of the
/// walk, with the seed, and their digests and counters must not see it.
#[test]
fn snapshot_platforms_are_schedule_invariant() {
    for (name, params) in [("long", profile_long()), ("unit", profile_unit())] {
        let graph = Arc::new(generate(&params));
        for (algo, platform) in [
            (Algo::Bfs, Platform::Msb),
            (Algo::Bfs, Platform::Chlonos),
            (Algo::Sssp, Platform::Goffish),
        ] {
            let fingerprint = |perturb_schedule| {
                let opts = RunOpts {
                    workers: WORKERS,
                    source: Some(source(&graph)),
                    max_supersteps: 10_000,
                    perturb_schedule,
                    ..RunOpts::default()
                };
                let r = try_run(algo, platform, &graph, None, &opts)
                    .expect("perturbed baseline run must succeed");
                let digest = r.digest.expect("a digest").0;
                (digest, counter_key(&r.metrics))
            };
            let label = format!("{}/{}/{name}", platform.name(), algo.name());
            assert_invariant(&label, fingerprint(None), |seed| fingerprint(Some(seed)));
        }
    }
}

/// The perturbation must actually perturb: with multiple workers the
/// engine's join/route/dst orders under a nonzero seed differ from the
/// identity schedule somewhere in an 8-superstep run. This guards against
/// the harness silently testing nothing (e.g. `perturb_schedule` being
/// dropped on the floor).
#[test]
fn perturbation_changes_the_schedule() {
    use graphite_bsp::engine::schedule_order;
    let identity: Vec<usize> = (0..WORKERS).collect();
    let mut saw_difference = false;
    for step in 0..8u64 {
        for salt in [0x4a4f_494e_u64, 0x524f_5554, 0x4445_5354] {
            if schedule_order(WORKERS, Some(1), step, salt) != identity {
                saw_difference = true;
            }
        }
    }
    assert!(
        saw_difference,
        "seed 1 never permuted any schedule in 8 steps"
    );
}
