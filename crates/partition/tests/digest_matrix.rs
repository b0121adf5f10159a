//! The placement-invariance matrix: every partitioning strategy, at every
//! worker count, on every profile, must land on the **bit-identical**
//! result digest of the default hash placement — including when composed
//! with schedule-perturbation seeds and injected faults.
//!
//! Placement only moves interval-vertices (and therefore messages)
//! between workers; the ICM/VCM semantics are defined on the graph, not
//! on the assignment. Results are keyed by external `VertexId`s in
//! ordered maps, so the digest of a run is a pure function of (graph,
//! program, config-semantics) — never of the partition map. The
//! *placement-invariant* counter key (supersteps, compute/scatter calls,
//! messages sent, warp counters) is pinned too; `remote_messages` and
//! `bytes_sent` legitimately vary with placement and are excluded.
//!
//! The snapshot platforms (MSB, Chlonos, GoFFish) place a snapshot as
//! its graph is placed, and TGB places its replicas as the slots of the
//! transformed graph, so all four run the whole matrix too. Since
//! digests cannot see placement, the assignment every strategy builds on
//! both profiles is pinned ([`ASSIGNMENT_PIN`]), and so are the wire
//! counters of four baseline cells under hash ([`PLACEMENT_PIN`]): a
//! placement change that moves any vertex or replica moves them.
//!
//! Two of the profiles here are byte-identical to the ones pinned in
//! `crates/bsp/tests/result_digest_pin.rs`, so the hash baselines are
//! additionally asserted against those recorded digests — the matrix is
//! anchored to the pre-partitioning recording, not merely self-consistent.

use graphite_algorithms::bfs::{IcmBfs, VcmBfs};
use graphite_algorithms::registry::{try_run, Algo, Platform, RunOpts};
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_baselines::vcm::run_vcm;
use graphite_baselines::{EdgeWeights, SnapshotTopology};
use graphite_bsp::engine::BspConfig;
use graphite_bsp::fault::FaultPlan;
use graphite_bsp::metrics::RunMetrics;
use graphite_bsp::recover::RecoveryConfig;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_icm::RunConfig;
use graphite_part::PartitionStrategy;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::sync::Arc;

/// Identical to `result_digest_pin::profile_long` — anchors the hash
/// baseline to the recorded digest.
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

/// A laptop-scale slice of the `skew` profile shape: power-law degree
/// with bursty bimodal lifespans, so the strategies produce genuinely
/// different assignments (which the digests must not see).
fn profile_skew() -> GenParams {
    GenParams {
        vertices: 150,
        edges: 900,
        snapshots: 24,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Bursty {
            heavy_fraction: 0.08,
            heavy_mean: 20.0,
            burst_mean: 2.0,
        },
        edge_lifespans: LifespanModel::Bursty {
            heavy_fraction: 0.10,
            heavy_mean: 16.0,
            burst_mean: 1.5,
        },
        props: PropModel {
            mean_segment: 4.0,
            max_cost: 10,
            max_travel_time: 2,
        },
        seed: 19,
    }
}

fn profiles() -> [(&'static str, GenParams); 2] {
    [("long", profile_long()), ("skew", profile_skew())]
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

/// The placement-invariant slice of the counter key: everything except
/// `remote_messages` / `bytes_sent`, which measure the wire and *should*
/// change when vertices move between workers.
fn inv_counters(m: &RunMetrics) -> [u64; 6] {
    [
        m.supersteps,
        m.counters.compute_calls,
        m.counters.scatter_calls,
        m.counters.messages_sent,
        m.counters.warp_invocations,
        m.counters.warp_suppressions,
    ]
}

fn run_cfg(strategy: PartitionStrategy, workers: usize) -> RunConfig {
    RunConfig {
        workers,
        partition: strategy,
        bsp: BspConfig {
            max_supersteps: 10_000,
            ..Default::default()
        },
    }
}

fn icm_cfg(strategy: PartitionStrategy, workers: usize) -> IcmConfig {
    IcmConfig {
        run: run_cfg(strategy, workers),
        ..Default::default()
    }
}

fn icm_fingerprint<P>(
    graph: &Arc<TemporalGraph>,
    program: &Arc<P>,
    cfg: &IcmConfig,
) -> (u64, [u64; 6])
where
    P: graphite_icm::program::IntervalProgram<State = i64>,
{
    let r = run_icm(graph, Arc::clone(program), cfg, None).expect("matrix run must succeed");
    (
        fnv1a(format!("{:?}", r.states).as_bytes()),
        inv_counters(&r.metrics),
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

const WORKER_COUNTS: [usize; 2] = [2, 5];

/// State digests of the hash/4-worker baseline recorded in
/// `result_digest_pin.rs` — the long-profile anchors.
const ANCHORED: [(&str, u64); 2] = [
    ("bfs/long", 0x0727_4081_2ec0_284e),
    ("eat/long", 0x189c_95d8_c097_8d98),
];

#[test]
fn icm_digests_are_placement_invariant() {
    for (pname, params) in profiles() {
        let graph = Arc::new(generate(&params));
        let bfs = Arc::new(IcmBfs {
            source: source(&graph),
        });
        let eat = Arc::new(IcmEat {
            source: source(&graph),
            start: 0,
            labels: AlgLabels::resolve(&graph),
        });
        for (aname, base) in [
            (
                "bfs",
                icm_fingerprint(&graph, &bfs, &icm_cfg(PartitionStrategy::Hash, 4)),
            ),
            (
                "eat",
                icm_fingerprint(&graph, &eat, &icm_cfg(PartitionStrategy::Hash, 4)),
            ),
        ] {
            if let Some((_, pin)) = ANCHORED
                .iter()
                .find(|(l, _)| *l == format!("{aname}/{pname}"))
            {
                assert_eq!(
                    base.0, *pin,
                    "{aname}/{pname}: hash baseline diverged from the recorded pin"
                );
            }
            for strategy in PartitionStrategy::ALL {
                for workers in WORKER_COUNTS {
                    let cfg = icm_cfg(strategy, workers);
                    let got = if aname == "bfs" {
                        icm_fingerprint(&graph, &bfs, &cfg)
                    } else {
                        icm_fingerprint(&graph, &eat, &cfg)
                    };
                    assert_eq!(
                        got,
                        base,
                        "ICM/{aname}/{pname}: {} × {workers} workers diverged from hash/4",
                        strategy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn vcm_digests_are_placement_invariant() {
    for (pname, params) in profiles() {
        let graph = Arc::new(generate(&params));
        let topo = vcm_topology(&graph, &params);
        let program = Arc::new(VcmBfs {
            source: source(&graph),
        });
        let base = run_vcm(
            &topo,
            Arc::clone(&program),
            &run_cfg(PartitionStrategy::Hash, 4),
        )
        .expect("baseline VCM run must succeed");
        let baseline = (vcm_digest(base.states), inv_counters(&base.metrics));
        for strategy in PartitionStrategy::ALL {
            for workers in WORKER_COUNTS {
                let r = run_vcm(&topo, Arc::clone(&program), &run_cfg(strategy, workers))
                    .expect("matrix VCM run must succeed");
                assert_eq!(
                    (vcm_digest(r.states), inv_counters(&r.metrics)),
                    baseline,
                    "VCM/BFS/{pname}: {} × {workers} workers diverged from hash/4",
                    strategy.name()
                );
            }
        }
    }
}

/// Placement composed with schedule perturbation: a perturbed schedule
/// under any strategy must still land on the unperturbed hash digest.
#[test]
fn strategies_compose_with_schedule_perturbation() {
    let params = profile_skew();
    let graph = Arc::new(generate(&params));
    let bfs = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let baseline = icm_fingerprint(&graph, &bfs, &icm_cfg(PartitionStrategy::Hash, 4));
    for strategy in PartitionStrategy::ALL {
        for seed in [1u64, 0xDEAD_BEEF] {
            let mut cfg = icm_cfg(strategy, 4);
            cfg.run.bsp.perturb_schedule = Some(seed);
            let got = icm_fingerprint(&graph, &bfs, &cfg);
            assert_eq!(
                got,
                baseline,
                "{} + perturb {seed:#x}: diverged from unperturbed hash",
                strategy.name()
            );
        }
    }
}

/// Satellite: a fault-injected run under Ldg / TemporalBalance must
/// recover to the digest of a **clean hash** run — fault tolerance and
/// placement compose without either becoming observable in results.
#[test]
fn faulted_runs_under_alternative_strategies_recover_to_clean_hash_digest() {
    for (pname, params) in profiles() {
        let graph = Arc::new(generate(&params));
        let bfs = Arc::new(IcmBfs {
            source: source(&graph),
        });
        let clean_hash = icm_fingerprint(&graph, &bfs, &icm_cfg(PartitionStrategy::Hash, 4));
        for strategy in [PartitionStrategy::Ldg, PartitionStrategy::TemporalBalance] {
            for step in [2u64, 3] {
                let mut cfg = icm_cfg(strategy, 4);
                cfg.run.bsp.fault_plan = Some(FaultPlan::panic_at(1, step));
                cfg.run.bsp.recovery = Some(RecoveryConfig::every(2));
                let r = run_icm(&graph, Arc::clone(&bfs), &cfg, None)
                    .expect("recoverable run must converge");
                assert_eq!(
                    (
                        fnv1a(format!("{:?}", r.states).as_bytes()),
                        inv_counters(&r.metrics)
                    ),
                    clean_hash,
                    "{pname}: faulted {} run at step {step} diverged from clean hash",
                    strategy.name()
                );
                assert_eq!(
                    r.metrics.recovery.rollbacks,
                    1,
                    "{pname}/{}: the injected panic must have fired",
                    strategy.name()
                );
            }
        }
    }
}

/// The VCM recoverable path composes with non-hash placement too. Runs
/// on the long profile — the skew snapshot converges before the fault
/// step, so the panic would never fire there.
#[test]
fn faulted_vcm_runs_under_temporal_balance_recover_to_clean_hash_digest() {
    let params = profile_long();
    let graph = Arc::new(generate(&params));
    let topo = vcm_topology(&graph, &params);
    let program = Arc::new(VcmBfs {
        source: source(&graph),
    });
    let clean = run_vcm(
        &topo,
        Arc::clone(&program),
        &run_cfg(PartitionStrategy::Hash, 4),
    )
    .expect("clean VCM run must succeed");
    let baseline = (vcm_digest(clean.states), inv_counters(&clean.metrics));
    let mut cfg = run_cfg(PartitionStrategy::TemporalBalance, 4);
    cfg.bsp.fault_plan = Some(FaultPlan::panic_at(1, 2));
    cfg.bsp.recovery = Some(RecoveryConfig::every(2));
    let r = run_vcm(&topo, Arc::clone(&program), &cfg).expect("recoverable VCM run must converge");
    assert_eq!(
        (vcm_digest(r.states), inv_counters(&r.metrics)),
        baseline,
        "faulted temporal-balance VCM run diverged from clean hash"
    );
    assert_eq!(r.metrics.recovery.rollbacks, 1);
}

/// The registry's options for one matrix cell.
fn opts(strategy: PartitionStrategy, workers: usize) -> RunOpts {
    RunOpts {
        workers,
        partition: strategy,
        max_supersteps: 10_000,
        ..RunOpts::default()
    }
}

/// A baseline cell's result digest and placement-invariant counters,
/// plus its `remote_messages`, which placement moves.
fn cell(
    graph: &Arc<TemporalGraph>,
    algo: Algo,
    platform: Platform,
    opts: &RunOpts,
) -> ((u64, [u64; 6]), u64) {
    let r = try_run(algo, platform, graph, None, opts).expect("matrix run must succeed");
    let digest = r.digest.expect("every matrix cell publishes a digest").0;
    let remote = r.metrics.counters.remote_messages;
    ((digest, inv_counters(&r.metrics)), remote)
}

/// MSB, Chlonos, GoFFish and TGB under every strategy land on the hash/4
/// digest and counters. Where messages cross workers at all (not GoFFish
/// SSSP, whose messages all travel between snapshots), some strategy
/// must move `remote_messages` off hash's: the strategy reaches the
/// platform.
#[test]
fn baseline_digests_are_placement_invariant() {
    for (pname, params) in profiles() {
        let graph = Arc::new(generate(&params));
        for (algo, platform) in [
            (Algo::Bfs, Platform::Msb),
            (Algo::Bfs, Platform::Chlonos),
            (Algo::Sssp, Platform::Goffish),
            (Algo::Sssp, Platform::Tgb),
        ] {
            let label = format!("{}/{}/{pname}", platform.name(), algo.name());
            let (base, _) = cell(&graph, algo, platform, &opts(PartitionStrategy::Hash, 4));
            let mut hash_remote = [0; WORKER_COUNTS.len()];
            let mut moved = false;
            for strategy in PartitionStrategy::ALL {
                for (i, workers) in WORKER_COUNTS.into_iter().enumerate() {
                    let (fingerprint, remote) =
                        cell(&graph, algo, platform, &opts(strategy, workers));
                    assert_eq!(
                        fingerprint,
                        base,
                        "{label}: {} × {workers} workers diverged from hash/4",
                        strategy.name()
                    );
                    if strategy == PartitionStrategy::Hash {
                        hash_remote[i] = remote;
                    }
                    moved |= remote != hash_remote[i];
                }
            }
            assert_eq!(
                moved,
                platform != Platform::Goffish,
                "{label}: whether placement moved remote messages"
            );
        }
    }
}

/// FNV-1a digests of the assignment `PartitionStrategy::build` produces,
/// per (profile, strategy, workers): worker of every dense vertex in
/// index order, one byte each. Digests cannot see placement; these move
/// when a single vertex changes worker.
const ASSIGNMENT_PIN: [(&str, PartitionStrategy, [u64; 3]); 8] = [
    (
        "long",
        PartitionStrategy::Hash,
        [
            0x55d4_dc0d_56ed_e086,
            0x3656_728d_cfce_0a39,
            0x14e1_4d92_6352_bd1a,
        ],
    ),
    (
        "long",
        PartitionStrategy::Chunked,
        [
            0x6c6e_9a12_29be_a9e0,
            0xc77a_a83f_5e8f_0b4f,
            0x3660_f1df_b96d_01ed,
        ],
    ),
    (
        "long",
        PartitionStrategy::Ldg,
        [
            0xf1c8_a888_9fd9_ab5c,
            0x2a54_379b_f43e_bdcf,
            0xe23e_dbb6_8827_064f,
        ],
    ),
    (
        "long",
        PartitionStrategy::TemporalBalance,
        [
            0xfb5d_b538_1372_259c,
            0x1248_7669_5ba7_ad05,
            0x7042_06fe_bd0d_f39d,
        ],
    ),
    (
        "skew",
        PartitionStrategy::Hash,
        [
            0x55d4_dc0d_56ed_e086,
            0x3656_728d_cfce_0a39,
            0x14e1_4d92_6352_bd1a,
        ],
    ),
    (
        "skew",
        PartitionStrategy::Chunked,
        [
            0x6c6e_9a12_29be_a9e0,
            0xc77a_a83f_5e8f_0b4f,
            0x3660_f1df_b96d_01ed,
        ],
    ),
    (
        "skew",
        PartitionStrategy::Ldg,
        [
            0x09fb_7732_43fb_29e6,
            0x658d_620b_71f6_14d9,
            0x1da3_01e2_c1dd_dee1,
        ],
    ),
    (
        "skew",
        PartitionStrategy::TemporalBalance,
        [
            0xa32f_6152_06fb_8e29,
            0x2ec5_a815_a407_6e21,
            0xa7bd_f403_2b5e_3d7c,
        ],
    ),
];

/// The worker counts of [`ASSIGNMENT_PIN`]'s columns.
const PINNED_WORKERS: [usize; 3] = [2, 3, 5];

#[test]
fn graph_assignments_are_pinned() {
    for (pname, params) in profiles() {
        let graph = generate(&params);
        for (profile, strategy, pins) in ASSIGNMENT_PIN {
            if profile != pname {
                continue;
            }
            for (workers, pin) in PINNED_WORKERS.into_iter().zip(pins) {
                let map = strategy.build(&graph, workers).expect("placement");
                let bytes: Vec<u8> = graph
                    .vertex_indices()
                    .map(|v| map.worker_of(v) as u8)
                    .collect();
                assert_eq!(
                    fnv1a(&bytes),
                    pin,
                    "{pname}: {} × {workers} workers moved a vertex",
                    strategy.name()
                );
            }
        }
    }
}

/// `remote_messages` and `bytes_sent` of four baseline cells on the long
/// profile under hash, at 2 and 3 workers. Digests cannot see placement;
/// these counters move when a single vertex or replica changes worker.
/// The byte column was re-recorded when the sender-side fold landed (the
/// exact combines of BFS and SSSP now fold before the wire); the remote
/// message counts are the original recording.
const PLACEMENT_PIN: [(Algo, Platform, usize, u64, u64); 8] = [
    (Algo::Bfs, Platform::Msb, 2, 3282, 8381),
    (Algo::Bfs, Platform::Msb, 3, 4201, 11476),
    (Algo::Bfs, Platform::Chlonos, 2, 1260, 6170),
    (Algo::Bfs, Platform::Chlonos, 3, 1571, 7803),
    (Algo::Sssp, Platform::Goffish, 2, 0, 26676),
    (Algo::Sssp, Platform::Goffish, 3, 0, 26676),
    (Algo::Sssp, Platform::Tgb, 2, 2655, 9655),
    (Algo::Sssp, Platform::Tgb, 3, 3474, 13827),
];

#[test]
fn hash_placement_of_the_baselines_is_pinned() {
    let graph = Arc::new(generate(&profile_long()));
    for (algo, platform, workers, remote, bytes) in PLACEMENT_PIN {
        let opts = RunOpts {
            workers,
            ..RunOpts::default()
        };
        let r = try_run(algo, platform, &graph, None, &opts).expect("pinned run");
        let c = &r.metrics.counters;
        assert_eq!(
            (c.remote_messages, c.bytes_sent),
            (remote, bytes),
            "{} {} on {workers} workers",
            platform.name(),
            algo.name()
        );
    }
}
