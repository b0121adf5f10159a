//! Streaming × serving integration (DESIGN.md §17): a resident
//! `ServeEngine` answers queries *between* update batches. Each ingested
//! batch installs the refreshed graph as a new serve epoch; cached
//! results from older epochs can never answer (cache keys carry the
//! structure digest) and every served digest is bit-identical to a solo
//! engine over the same generation.

use graphite_algorithms::registry::{Algo, Platform};
use graphite_datagen::stream::derive_update_stream;
use graphite_datagen::{GenParams, LifespanModel, PropModel};
use graphite_serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite_stream::prelude::*;
use graphite_tgraph::graph::VertexId;
use std::sync::Arc;

fn churny(seed: u64) -> GenParams {
    GenParams {
        vertices: 60,
        edges: 240,
        snapshots: 10,
        vertex_lifespans: LifespanModel::Geometric { mean: 6.0 },
        edge_lifespans: LifespanModel::Geometric { mean: 4.0 },
        props: PropModel {
            mean_segment: 3.0,
            max_cost: 10,
            max_travel_time: 2,
        },
        ..GenParams::small(seed)
    }
}

fn bfs_spec(source: VertexId) -> QuerySpec {
    QuerySpec {
        algo: Algo::Bfs,
        platform: Platform::Icm,
        workers: 2,
        source: Some(source),
        ..QuerySpec::default()
    }
}

/// Queries interleaved with batches: after each ingest + install, the
/// resident engine re-executes (no stale cache hit), matches a solo
/// engine over the same graph, and caches normally within the epoch.
#[test]
fn queries_between_batches_track_each_installed_epoch() {
    let stream = derive_update_stream(&churny(61), 4);
    let source = stream
        .base
        .vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty base");
    let spec = bfs_spec(source);

    let mut engine = StreamEngine::new(
        Arc::new(stream.base.clone()),
        StreamConfig {
            check_every: 1,
            ..StreamConfig::default()
        },
    );
    engine.register(AlgoSpec::Bfs { source }).expect("register");
    let serve = ServeEngine::new(engine.graph(), ServeConfig::default());

    // Two identical queries in flight at once: which of the pair gets to
    // execute is the pool's business (single-flight admits whichever
    // executor reaches the key first); the contract is that exactly one
    // runs and the other is answered from its result, bit-identically.
    let run_pair = |what: &str| {
        let results = serve.serve_batch(&[spec.clone(), spec.clone()]);
        let pair: Vec<_> = results
            .iter()
            .map(|r| r.as_ref().unwrap_or_else(|e| panic!("{what}: {e}")))
            .collect();
        assert_eq!(
            pair.iter().filter(|r| !r.cached).count(),
            1,
            "{what}: exactly one of the pair executes (an older epoch's \
             cache entry must not answer, a within-epoch repeat must)"
        );
        assert_eq!(pair[0].digest, pair[1].digest, "{what}: hit == run");
        pair[0].digest
    };
    run_pair("load-time epoch");

    for (i, delta) in stream.batches.iter().enumerate() {
        let report = engine.ingest(delta).expect("differentially clean batch");
        let serial = serve.install_graph(engine.graph());
        assert_eq!(serial, i as u64 + 1);
        assert_eq!(serve.graph_digest(), report.graph_digest);

        let digest = run_pair(&format!("batch {}", i + 1));
        let solo = ServeEngine::new(engine.graph(), ServeConfig::default());
        assert_eq!(
            digest,
            solo.serve_batch(std::slice::from_ref(&spec))[0]
                .as_ref()
                .expect("solo run")
                .digest,
            "batch {}: resident result must match a solo engine",
            i + 1
        );
    }
    assert_eq!(serve.graph_digest(), stream.final_digest);
}
