//! Seeded input generation. Everything the program sees is produced here
//! from `--seed`: the graph (through `graphite-datagen`), the sources, the
//! query stream and the update batches. Same seed, same inputs.

use graphite_algorithms::registry::{Algo, Platform};
use graphite_bsp::fault::FaultPlan;
use graphite_bsp::recover::RecoveryConfig;
use graphite_serve::QuerySpec;
use graphite_tgraph::delta::GraphDelta;
use graphite_tgraph::graph::{EdgeId, TemporalGraph, VertexId};
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::snapshot::snapshot_window;
use graphite_tgraph::time::Interval;

/// Workers per run — `nproc` of the reference box.
pub const WORKERS: usize = 2;

/// Vertices a traversal may start from: alive with an out-edge at the
/// start of the snapshot window (so a journey departing at `start = 0`
/// does real work), and among the `POOL` with the most such edges (so it
/// reaches most of the graph and op cost varies little from seed to seed).
const POOL: usize = 64;

/// Up to `k` distinct seeded sources out of the pool described above.
pub fn pick_sources(graph: &TemporalGraph, rng: &mut SplitMix64, k: usize) -> Vec<VertexId> {
    let t0 = snapshot_window(graph).map_or(0, |w| w.start());
    let mut candidates: Vec<(usize, VertexId)> = graph
        .vertices()
        .filter(|(_, row)| row.lifespan.contains_point(t0))
        .map(|(v, row)| {
            let degree = graph
                .out_edges(v)
                .iter()
                .filter(|&&e| graph.edge_lifespan(e).contains_point(t0))
                .count();
            (degree, row.vid)
        })
        .filter(|&(degree, _)| degree > 0)
        .collect();
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    candidates.truncate(POOL);
    let mut pool: Vec<VertexId> = candidates.into_iter().map(|(_, vid)| vid).collect();
    rng.shuffle(&mut pool);
    pool.truncate(k);
    pool
}

/// Deals `count` items over `weights` by largest remainder: item `i` gets
/// its exact share rounded, and the shares sum to `count`.
fn quotas(weights: &[f64], count: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w * count as f64 / total).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let dealt: usize = quota.iter().sum();
    for &i in by_remainder.iter().take(count - dealt) {
        quota[i] += 1;
    }
    quota
}

/// The `serve-mix` queries, grouped by source (each pass shuffles them).
/// The mix is fixed, so every seed asks for the same keys' worth of each
/// kind of work and only the vertices behind the keys differ: sources in
/// Zipf(1.0) proportions over `candidates` (rank 1 most popular, so a
/// round repeats keys and exercises the cache and single-flight
/// coalescing); algorithms {BFS, EAT, RH, SSSP} on ICM cycling through
/// each source's queries; `msb_share` of the queries BFS on MSB instead,
/// one on each of the most popular sources; `fault_share` of them
/// carrying a seeded transient fault plan plus `RecoveryConfig::every(2)`
/// and therefore bypassing the cache, likewise one per popular source.
pub fn zipf_queries(
    candidates: &[VertexId],
    rng: &mut SplitMix64,
    count: usize,
    msb_share: f64,
    fault_share: f64,
) -> Vec<QuerySpec> {
    let weights: Vec<f64> = (1..=candidates.len()).map(|r| 1.0 / r as f64).collect();
    let msb = (count as f64 * msb_share).round() as usize;
    let faulted = (count as f64 * fault_share).round() as usize;
    let mut queries = Vec::with_capacity(count);
    for (rank, (&source, asked)) in candidates.iter().zip(quotas(&weights, count)).enumerate() {
        for nth in 0..asked {
            let (algo, platform) = if nth == 0 && rank < msb {
                (Algo::Bfs, Platform::Msb)
            } else {
                let cycle = [Algo::Bfs, Algo::Eat, Algo::Reach, Algo::Sssp];
                (cycle[queries.len() % 4], Platform::Icm)
            };
            let mut spec = QuerySpec {
                algo,
                platform,
                workers: WORKERS,
                source: Some(source),
                ..QuerySpec::default()
            };
            if nth == 1 && rank < faulted {
                // Early steps, so short traversals still reach the fault.
                spec.fault_plan = Some(FaultPlan::seeded(rng.next_u64(), WORKERS, 3, 1));
                spec.recovery = Some(RecoveryConfig::every(2));
            }
            queries.push(spec);
        }
    }
    queries
}

/// Sparse update batches over `base` (the `stream-live` input): each
/// batch hangs `fresh` new vertices off existing ones (one edge each,
/// with both path properties) and extends `extend` existing edges by one
/// time-point together with their right-most `travel-time` /
/// `travel-cost` entries — 4 ops per fresh vertex, 3 per extension. Each
/// entity is extended at most once over the whole stream and only within
/// its endpoints' base lifespans, so every batch is valid whatever came
/// before it.
pub fn sparse_batches(
    base: &TemporalGraph,
    rng: &mut SplitMix64,
    batches: usize,
    fresh: usize,
    extend: usize,
) -> Vec<GraphDelta> {
    let vids: Vec<(VertexId, Interval)> =
        base.vertices().map(|(_, v)| (v.vid, v.lifespan)).collect();
    let mut next_vid = vids.iter().map(|(v, _)| v.0).max().unwrap_or(0) + 1;
    let mut next_eid = base.edges().map(|(_, e)| e.eid.0).max().unwrap_or(0) + 1;
    let mut extendable: Vec<(EdgeId, i64)> = base
        .edges()
        .filter(|(_, e)| {
            let room = base
                .vertex_lifespan(e.src)
                .end()
                .min(base.vertex_lifespan(e.dst).end());
            e.lifespan.end() < room
        })
        .map(|(_, e)| (e.eid, e.lifespan.end()))
        .collect();
    rng.shuffle(&mut extendable);

    (0..batches)
        .map(|_| {
            let mut delta = GraphDelta::new();
            for _ in 0..fresh {
                let (anchor, span) = vids[rng.index(vids.len())];
                let (vid, eid) = (VertexId(next_vid), EdgeId(next_eid));
                next_vid += 1;
                next_eid += 1;
                delta.insert_vertex(vid, span);
                delta.insert_edge(eid, anchor, vid, span);
                delta.edge_property(eid, "travel-time", span, 1i64.into());
                delta.edge_property(eid, "travel-cost", span, rng.range_i64(1, 11).into());
            }
            for _ in 0..extend {
                let Some((eid, end)) = extendable.pop() else {
                    break;
                };
                delta.extend_edge(eid, end + 1);
                delta.extend_edge_property(eid, "travel-time", end + 1);
                delta.extend_edge_property(eid, "travel-cost", end + 1);
            }
            delta
        })
        .collect()
}
