//! The streaming correctness contract (ISSUE acceptance): after **every**
//! ingested batch, the incrementally maintained result is bit-identical
//! (digest-equal) to a from-scratch recomputation on the refreshed graph —
//! across algorithms × worker counts × perturb seeds × partition
//! strategies. `check_every: 1` makes the engine itself perform the
//! comparison and fail the ingest on any divergence, so a clean replay
//! *is* the differential assertion.

use graphite_algorithms::registry::{self, Algo, Platform, RunOpts};
use graphite_datagen::stream::derive_update_stream;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology, UpdateStream};
use graphite_part::PartitionStrategy;
use graphite_stream::prelude::*;
use graphite_tgraph::graph::{EdgeId, TemporalGraph, VertexId};
use std::sync::Arc;

fn churny(seed: u64) -> GenParams {
    GenParams {
        vertices: 80,
        edges: 320,
        snapshots: 12,
        vertex_lifespans: LifespanModel::Geometric { mean: 7.0 },
        edge_lifespans: LifespanModel::Geometric { mean: 4.0 },
        props: PropModel {
            mean_segment: 3.0,
            max_cost: 10,
            max_travel_time: 2,
        },
        ..GenParams::small(seed)
    }
}

fn source(base: &TemporalGraph) -> VertexId {
    base.vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty base")
}

fn all_algos(source: VertexId) -> [AlgoSpec; 3] {
    [
        AlgoSpec::Bfs { source },
        AlgoSpec::Eat { source, start: 0 },
        AlgoSpec::Reach { source, start: 0 },
    ]
}

/// Replays `stream` through an engine that differentially checks every
/// batch, returning the per-batch reports.
fn replay_checked(stream: &UpdateStream, cfg: StreamConfig) -> Vec<BatchReport> {
    let mut engine = StreamEngine::new(Arc::new(stream.base.clone()), cfg);
    for spec in all_algos(source(&stream.base)) {
        engine
            .register(spec)
            .expect("initial from-scratch run succeeds");
    }
    let reports: Vec<BatchReport> = stream
        .batches
        .iter()
        .map(|delta| {
            engine
                .ingest(delta)
                .expect("incremental result must digest-equal from-scratch")
        })
        .collect();
    assert_eq!(
        engine.structure_digest(),
        stream.final_digest,
        "replayed graph must converge onto the one-shot generation"
    );
    reports
}

/// The acceptance matrix: {BFS, EAT, Reach} × {2, 5} workers × perturb
/// seeds × partition strategies, differentially checked after every batch.
#[test]
fn incremental_matches_from_scratch_across_the_matrix() {
    let stream = derive_update_stream(&churny(41), 3);
    for &workers in &[2usize, 5] {
        for &perturb in &[None, Some(7u64)] {
            for partition in [PartitionStrategy::Hash, PartitionStrategy::TemporalBalance] {
                let reports = replay_checked(
                    &stream,
                    StreamConfig {
                        workers,
                        compact_every: 2,
                        check_every: 1,
                        perturb_schedule: perturb,
                        partition,
                        ..StreamConfig::default()
                    },
                );
                assert_eq!(reports.len(), 3);
                assert!(
                    reports.iter().all(|r| r.checked),
                    "check_every=1 must verify every batch"
                );
                assert!(reports.iter().all(|r| r.algos.len() == 3));
            }
        }
    }
}

/// Result digests are a property of the graph + algorithm alone: every
/// engine configuration in the matrix reports the same per-batch digests.
#[test]
fn batch_digests_are_configuration_independent() {
    let stream = derive_update_stream(&churny(43), 4);
    let digests = |workers: usize, partition: PartitionStrategy, compact_every: u64| {
        replay_checked(
            &stream,
            StreamConfig {
                workers,
                compact_every,
                check_every: 2,
                partition,
                ..StreamConfig::default()
            },
        )
        .iter()
        .map(|r| {
            (
                r.graph_digest,
                r.algos.iter().map(|a| a.result_digest).collect::<Vec<_>>(),
            )
        })
        .collect::<Vec<_>>()
    };
    let reference = digests(2, PartitionStrategy::Hash, 1);
    assert_eq!(reference, digests(5, PartitionStrategy::Hash, 8));
    assert_eq!(reference, digests(3, PartitionStrategy::Chunked, 2));
    assert_eq!(reference, digests(2, PartitionStrategy::Ldg, 3));
}

/// The warm start genuinely reuses the carried fixpoint: across a sparse
/// batch the incremental maintenance does less compute work than its own
/// from-scratch differential check.
#[test]
fn warm_start_does_less_work_than_recompute() {
    let stream = derive_update_stream(&churny(47), 6);
    let reports = replay_checked(
        &stream,
        StreamConfig {
            check_every: 1,
            ..StreamConfig::default()
        },
    );
    // BFS converges in one superstep from a warm fixpoint on batches that
    // don't change its frontier structure; demand at least that *some*
    // batch shows the short-circuit for every algorithm.
    for (i, name) in ["bfs", "eat", "reach"].iter().enumerate() {
        let min_supersteps = reports
            .iter()
            .map(|r| r.algos[i].supersteps)
            .min()
            .expect("non-empty");
        assert_eq!(reports[0].algos[i].name, *name);
        assert!(
            min_supersteps <= 8,
            "{name}: warm-started runs should re-converge quickly \
             (min supersteps {min_supersteps})"
        );
    }
}

/// A settled base graph: every vertex lives for the whole window and
/// edges are long-lived, so a sparse batch changes little of the warp
/// alignment it touches — the serving layer's "live updates" shape.
fn settled() -> GenParams {
    GenParams {
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
    }
}

/// Deterministic sparse batches: each hangs `per_batch` fresh vertices off
/// existing ones (a fixed-stride walk over the vertex rows), with
/// `travel-time` props so the temporal-path algorithms treat the new
/// edges like generated ones.
fn sparse_batches(base: &TemporalGraph, batches: u64, per_batch: u64) -> Vec<GraphDelta> {
    let vids: Vec<VertexId> = base.vertices().map(|(_, v)| v.vid).collect();
    let max_vid = vids.iter().map(|v| v.0).max().expect("non-empty base");
    let max_eid = base
        .edge_indices()
        .map(|e| base.edge(e).eid.0)
        .max()
        .expect("base has edges");
    (0..batches)
        .map(|b| {
            let mut delta = GraphDelta::new();
            for k in b * per_batch..(b + 1) * per_batch {
                let anchor = vids[(k * 7919 + 17) as usize % vids.len()];
                let span = base
                    .vertex_index(anchor)
                    .map(|v| base.vertex_lifespan(v))
                    .expect("anchor exists");
                let (vid, eid) = (VertexId(max_vid + 1 + k), EdgeId(max_eid + 1 + k));
                delta.insert_vertex(vid, span);
                delta.insert_edge(eid, anchor, vid, span);
                delta.edge_property(eid, "travel-time", span, 1i64.into());
            }
            delta
        })
        .collect()
}

/// On sparse batches over a settled graph, maintaining BFS / EAT / Reach
/// from their carried fixpoints costs strictly fewer compute calls than
/// recomputing them on every refreshed graph. Both totals are exact
/// counts and pinned: a warm start that quietly re-seeds too much moves
/// the pin long before it crosses the inequality.
#[test]
fn sparse_batches_cost_fewer_compute_calls_than_recompute() {
    const INCREMENTAL_COMPUTE_CALLS: u64 = 30_719;
    const FROM_SCRATCH_COMPUTE_CALLS: u64 = 166_747;
    let base = Arc::new(generate(&settled()));
    let deltas = sparse_batches(&base, 8, 6);
    let src = source(&base);
    for workers in [2usize, 5] {
        let mut engine = StreamEngine::new(
            Arc::clone(&base),
            StreamConfig {
                workers,
                check_every: 1,
                ..StreamConfig::default()
            },
        );
        for spec in all_algos(src) {
            engine.register(spec).expect("initial run succeeds");
        }
        let opts = RunOpts {
            workers,
            source: Some(src),
            digest: false,
            ..RunOpts::default()
        };
        let (mut incremental, mut from_scratch) = (0u64, 0u64);
        for delta in &deltas {
            let report = engine
                .ingest(delta)
                .expect("batch applies and checks clean");
            assert!(report.checked);
            assert!(report.dirty > 0, "batch {}: nothing dirty", report.batch);
            incremental += report.algos.iter().map(|a| a.compute_calls).sum::<u64>();
            for algo in [Algo::Bfs, Algo::Eat, Algo::Reach] {
                from_scratch += registry::run(algo, Platform::Icm, &engine.graph(), None, &opts)
                    .expect("from-scratch run succeeds")
                    .metrics
                    .counters
                    .compute_calls;
            }
        }
        assert!(
            incremental < from_scratch,
            "workers={workers}: incremental {incremental} >= from-scratch {from_scratch}"
        );
        assert_eq!(incremental, INCREMENTAL_COMPUTE_CALLS, "workers={workers}");
        assert_eq!(
            from_scratch, FROM_SCRATCH_COMPUTE_CALLS,
            "workers={workers}"
        );
    }
}

/// Round-trip through the `graphite-updates/1` text format preserves the
/// replay bit-exactly.
#[test]
fn updates_io_roundtrip_preserves_replay() {
    let stream = derive_update_stream(&churny(53), 3);
    let mut buf = Vec::new();
    write_updates(&stream.batches, &mut buf).expect("serialize");
    let reloaded = read_updates(buf.as_slice()).expect("parse back");
    assert_eq!(reloaded.len(), stream.batches.len());

    let mut engine = StreamEngine::new(
        Arc::new(stream.base.clone()),
        StreamConfig {
            check_every: 1,
            ..StreamConfig::default()
        },
    );
    for spec in all_algos(source(&stream.base)) {
        engine.register(spec).expect("register");
    }
    for delta in &reloaded {
        engine.ingest(delta).expect("reloaded batches check clean");
    }
    assert_eq!(engine.structure_digest(), stream.final_digest);
}
