//! Layer probes of the traced run: direct calls into public functions of
//! layers whose work the workloads only reach through another layer's API
//! (a graph freeze inside `datagen`, a partition build inside a run, the
//! codec and warp kernels inside a superstep), plus the control rows.
//! Untimed with respect to the end-to-end metrics; each call is a span.

use crate::inputs::WORKERS;
use crate::measure::{median, ms, Recorder};
use crate::serve::serve_config;
use graphite_algorithms::registry::{self, Algo, Platform, RunOpts};
use graphite_bsp::codec::{decode_batch, encode_batch};
use graphite_icm::warp::{time_warp_spans_into, WarpScratch};
use graphite_part::PartitionStrategy;
use graphite_serve::ServeEngine;
use graphite_tgraph::builder::TemporalGraphBuilder;
use graphite_tgraph::delta::DeltaOverlay;
use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::Interval;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const REPS: usize = 3;

fn median_ms(mut f: impl FnMut() -> Duration) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| ms(f())).collect();
    median(&times)
}

/// `tgraph.build_ms`: re-freezes the workload graph's rows through the
/// public builder (`datagen.generate` hides its own freeze).
fn tgraph_build(graph: &TemporalGraph, rec: &mut Recorder, out: &mut BTreeMap<&'static str, f64>) {
    let mut b = TemporalGraphBuilder::with_capacity(graph.num_vertices(), graph.num_edges());
    let name = |label| graph.labels().name(label).expect("label of this graph");
    for (_, v) in graph.vertices() {
        b.add_vertex(v.vid, v.lifespan)
            .expect("row of a sound graph");
        for (label, iv, value) in v.props.iter() {
            b.vertex_property(v.vid, name(label), iv, value.clone())
                .expect("row of a sound graph");
        }
    }
    for (e, row) in graph.edges() {
        let (src, dst) = (graph.vertex(row.src).vid, graph.vertex(row.dst).vid);
        b.add_edge(row.eid, src, dst, row.lifespan)
            .expect("row of a sound graph");
        for (label, iv, value) in graph.edge_props(e).iter() {
            b.edge_property(row.eid, name(label), iv, value.clone())
                .expect("row of a sound graph");
        }
    }
    let (rebuilt, took) = rec.call("tgraph.build", 0, || b.build());
    out.insert("tgraph.build_ms", ms(took));
    black_box(rebuilt.map(|g| g.structure_digest()).ok());
}

/// `bsp.codec_ns_per_msg`: public batch encode + decode of a seeded
/// buffer of interval messages, the shape ICM ships between workers.
fn codec_kernel(seed: u64, rec: &mut Recorder) -> f64 {
    const MESSAGES: usize = 4096;
    const ROUNDS: usize = 64;
    let mut rng = SplitMix64::new(seed ^ 0x0063_6f64_6563); // "codec"
    let batch: Vec<(VIdx, (Interval, i64))> = (0..MESSAGES)
        .map(|_| {
            let start = rng.range_i64(0, 30);
            let iv = Interval::new(start, start + rng.range_i64(1, 30));
            (
                VIdx(rng.bounded(1 << 20) as u32),
                (iv, rng.range_i64(0, 1000)),
            )
        })
        .collect();
    let mut wire = Vec::new();
    let (_, took) = rec.call("bsp.codec", 0, || {
        for _ in 0..ROUNDS {
            wire.clear();
            encode_batch(black_box(&batch), &mut wire);
            let mut sum = 0i64;
            decode_batch::<(Interval, i64)>(&wire, MESSAGES, |_, (_, value)| sum += value)
                .expect("a batch this probe just encoded");
            black_box(sum);
        }
    });
    took.as_nanos() as f64 / (MESSAGES * ROUNDS) as f64
}

/// `icm.warp_kernel_ns_per_msg`: the warp sweep alone, on a seeded vertex
/// with 8 state partitions and 64 incoming message intervals.
fn warp_kernel(seed: u64, rec: &mut Recorder) -> f64 {
    const INNER: usize = 64;
    const ROUNDS: usize = 4096;
    let mut rng = SplitMix64::new(seed ^ 0x7761_7270); // "warp"
    let outer: Vec<Interval> = (0..8).map(|i| Interval::new(i * 4, i * 4 + 4)).collect();
    let inner: Vec<Interval> = (0..INNER)
        .map(|_| {
            let start = rng.range_i64(0, 31);
            Interval::new(start, rng.range_i64(start + 1, 33))
        })
        .collect();
    let mut scratch = WarpScratch::new();
    let (_, took) = rec.call("icm.warp_kernel", 0, || {
        for _ in 0..ROUNDS {
            let tuples = time_warp_spans_into(black_box(&outer), black_box(&inner), &mut scratch);
            black_box(tuples.len());
        }
    });
    took.as_nanos() as f64 / (INNER * ROUNDS) as f64
}

/// Runs every probe over the workload's graph and writes the per-layer
/// metrics only probes can see.
pub fn run(
    graph: &Arc<TemporalGraph>,
    source: VertexId,
    seed: u64,
    rec: &mut Recorder,
    out: &mut BTreeMap<&'static str, f64>,
) {
    tgraph_build(graph, rec, out);

    // The structure digest is folded during assembly; a verifying
    // compaction re-folds it from content and a fast freeze carries it
    // over, so their difference is the digest's own cost.
    let overlay = DeltaOverlay::new(graph, 0);
    let freeze = median_ms(|| {
        rec.call("tgraph.freeze", 0, || black_box(overlay.freeze()))
            .1
    });
    let compact = median_ms(|| {
        rec.call("tgraph.compact", 0, || black_box(overlay.compact().is_ok()))
            .1
    });
    out.insert("tgraph.structure_digest_ms", (compact - freeze).max(0.0));
    drop(overlay);

    let strategy = PartitionStrategy::default();
    out.insert(
        "part.build_ms",
        median_ms(|| {
            rec.call("part.build", 0, || {
                black_box(strategy.build(graph, WORKERS).is_ok())
            })
            .1
        }),
    );
    if let Ok(map) = strategy.build(graph, WORKERS) {
        let stats = graphite_part::stats(graph, &map);
        out.insert(
            "part.cut_fraction_milli",
            (stats.cut_fraction * 1000.0).round(),
        );
        out.insert(
            "part.interval_balance_milli",
            (stats.interval_balance * 1000.0).round(),
        );
    }

    out.insert("bsp.codec_ns_per_msg", codec_kernel(seed, rec));
    out.insert("icm.warp_kernel_ns_per_msg", warp_kernel(seed, rec));

    let opts = |digest| RunOpts {
        workers: WORKERS,
        source: Some(source),
        digest,
        ..RunOpts::default()
    };
    let mut run = |name, algo, platform, digest| {
        let opts = opts(digest);
        let (outcome, took) = rec.call(name, 0, || {
            registry::try_run(algo, platform, graph, None, &opts)
        });
        let calls = outcome.map_or(0, |o| o.metrics.counters.compute_calls);
        (calls, took)
    };
    // Useful-work ratio (the paper's Fig. 4 quantity): compute calls ICM
    // needs for BFS against the per-snapshot baseline's.
    let (icm_calls, _) = run("algorithms.run", Algo::Bfs, Platform::Icm, false);
    let (msb_calls, msb_took) = run("baselines.msb_bfs", Algo::Bfs, Platform::Msb, false);
    out.insert(
        "icm.sharing_ratio_milli",
        (icm_calls * 1000 / msb_calls.max(1)) as f64,
    );
    out.insert("baselines.msb_bfs_ms", ms(msb_took));
    let (_, gof_took) = run("baselines.gof_sssp", Algo::Sssp, Platform::Goffish, false);
    out.insert("baselines.gof_sssp_ms", ms(gof_took));
    // The digest costs about a millisecond on a run of tens, so compare
    // the fastest of a few interleaved runs rather than medians.
    let (mut plain, mut digested) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        plain = plain.min(ms(run("algorithms.run", Algo::Bfs, Platform::Icm, false).1));
        digested = digested.min(ms(run(
            "algorithms.run_digest",
            Algo::Bfs,
            Platform::Icm,
            true,
        )
        .1));
    }
    out.insert("algorithms.digest_ms", (digested - plain).max(0.0));

    let mut engine = None;
    let engine_new = median_ms(|| {
        let (fresh, took) = rec.call("serve.engine_new", 0, || {
            ServeEngine::new(Arc::clone(graph), serve_config())
        });
        engine = Some(fresh);
        took
    });
    out.insert("serve.engine_new_ms", engine_new);
    if let Some(engine) = &engine {
        // A stream workload reports the installs it really did instead.
        let install = median_ms(|| {
            rec.call("serve.install_graph", 0, || {
                engine.install_graph(Arc::clone(graph))
            })
            .1
        });
        out.entry("serve.install_graph_ms").or_insert(install);
    }
}
