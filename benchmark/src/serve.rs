//! `serve-mix`: many short queries against the resident `ServeEngine`.
//!
//! Per-query fixed cost (worker spawn, partition build, digest, queue,
//! admission, cache) dominates here instead of supersteps — the same
//! engine layers as `batch-*`, used the way interactive clients use them.
//! Closed loop: one generator keeps a window of tickets outstanding and
//! waits for the oldest. Every round gets a fresh engine (built outside
//! the timed region) and asks the same queries against its cold cache, in
//! an order of its own, so rounds do identical work.

use crate::inputs::{pick_sources, zipf_queries};
use crate::measure::{generate_graph, ms, Recorder, Round, Samples, Tally};
use crate::{graph_scale, scaled, Workload};
use graphite_algorithms::registry::{self, Algo, Platform};
use graphite_algorithms::ResultDigest;
use graphite_bsp::metrics::now;
use graphite_datagen::Profile;
use graphite_serve::{QueryOutcome, QuerySpec, ServeConfig, ServeEngine, ServeStats, Ticket};
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::rng::SplitMix64;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per round (the issue's ≈1 200 over the measured phase, split
/// into identical rounds).
const QUERIES: usize = 100;
/// Zipf source candidates, scaled with the query count so a round keeps
/// ≈45 % repeated keys.
const CANDIDATES: usize = 16;
const MSB_SHARE: f64 = 0.05;
const FAULT_SHARE: f64 = 0.02;
/// Tickets the generator keeps outstanding.
const WINDOW: usize = 16;

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_in_flight: 2,
        max_pending: 64,
        cache_capacity: 256,
        ..ServeConfig::default()
    }
}

/// Cache identity of a query as a client sees it.
type Key = (Algo, Platform, u64);

fn key_of(spec: &QuerySpec) -> Key {
    (
        spec.algo,
        spec.platform,
        spec.source.map_or(u64::MAX, |v| v.0),
    )
}

pub struct Serve {
    seed: u64,
    /// Orders each pass's queries (the warm-up and every round ask the
    /// same queries, each pass in its own seeded order).
    rng: SplitMix64,
    graph: Arc<TemporalGraph>,
    queries: Vec<QuerySpec>,
    /// The rank-1 source, where the layer probes start from.
    most_popular: VertexId,
    /// First digest seen per key; every later answer must equal it.
    first: HashMap<Key, ResultDigest>,
    warm_failed: u64,
    tallies: Vec<Tally>,
    samples: Samples,
    last_stats: ServeStats,
}

/// What one pass accumulates while tickets settle.
#[derive(Default)]
struct Pass {
    latencies: Vec<f64>,
    failed: u64,
    tally: Tally,
}

impl Serve {
    /// Waits for one ticket and books its answer: latency from submission
    /// to observed completion, and the digest against the first answer
    /// for the same key (so every cache hit is checked as it arrives).
    fn settle(
        &mut self,
        rec: &mut Recorder,
        pass: &mut Pass,
        spec: &QuerySpec,
        i: usize,
        sent: Instant,
        ticket: Ticket,
    ) {
        let (result, _) = rec.call("serve.wait", i as u64, || ticket.wait());
        let latency = ms(sent.elapsed());
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(_) => {
                pass.failed += 1;
                return;
            }
        };
        let same = outcome
            .digest
            .is_some_and(|d| *self.first.entry(key_of(spec)).or_insert(d) == d);
        if !same {
            eprintln!(
                "serve-mix: query {i} {:?} answered with a different digest than before",
                key_of(spec)
            );
            pass.failed += 1;
            return;
        }
        pass.latencies.push(latency);
        if !rec.tracing {
            return;
        }
        book_outcome(&mut self.samples, &mut pass.tally, &outcome, latency);
        rec.counts(&[
            ("cached", u64::from(outcome.cached)),
            ("micros", outcome.micros),
        ]);
    }

    /// One pass over the query stream through a fresh engine. The engine
    /// is built and torn down outside the timed region.
    fn pass(&mut self, rec: &mut Recorder) -> Round {
        let engine = ServeEngine::new(Arc::clone(&self.graph), serve_config());
        let mut queries = std::mem::take(&mut self.queries);
        // With 16 tickets over two executors a query's latency is set by
        // what happens to queue ahead of it; a fresh order per pass keeps
        // the pooled percentiles from describing one particular order.
        self.rng.shuffle(&mut queries);
        let mut pass = Pass::default();
        let mut pending: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(WINDOW);

        let timer = rec.begin_round();
        for (i, spec) in queries.iter().enumerate() {
            if pending.len() == WINDOW {
                let (j, sent, ticket) = pending.pop_front().expect("window is full");
                self.settle(rec, &mut pass, &queries[j], j, sent, ticket);
            }
            let owned = spec.clone();
            let sent = now();
            let (ticket, took) = rec.call("serve.submit", i as u64, || engine.submit(owned));
            if rec.tracing {
                self.samples.push("submit_us", took.as_secs_f64() * 1e6);
            }
            match ticket {
                Ok(ticket) => pending.push_back((i, sent, ticket)),
                Err(_) => pass.failed += 1,
            }
        }
        while let Some((j, sent, ticket)) = pending.pop_front() {
            self.settle(rec, &mut pass, &queries[j], j, sent, ticket);
        }
        let round = rec.end_round(timer, pass.latencies, queries.len() as u64, pass.failed);

        self.last_stats = engine.stats();
        drop(engine);
        self.queries = queries;
        if rec.tracing {
            self.tallies.push(pass.tally);
        }
        round
    }
}

impl Workload for Serve {
    fn setup(
        _name: &'static str,
        seed: u64,
        smoke: bool,
        rec: &mut Recorder,
        times: &mut Tally,
    ) -> Self {
        let graph = generate_graph(rec, times, || {
            Profile::Twitter.generate(graph_scale(2, smoke), seed)
        });
        let mut rng = SplitMix64::new(seed ^ 0x0073_6572_7665); // "serve"
        let candidates = pick_sources(&graph, &mut rng, CANDIDATES);
        let queries = zipf_queries(
            &candidates,
            &mut rng,
            scaled(QUERIES, smoke),
            MSB_SHARE,
            FAULT_SHARE,
        );
        let mut this = Serve {
            seed,
            rng,
            graph,
            queries,
            most_popular: candidates[0],
            first: HashMap::new(),
            warm_failed: 0,
            tallies: Vec::new(),
            samples: Samples::default(),
            last_stats: ServeStats::default(),
        };
        this.warm_failed = this.pass(rec).failed;
        this
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        self.pass(rec)
    }

    fn warmup(&self) -> (u64, u64) {
        (self.queries.len() as u64, self.warm_failed)
    }

    /// A seeded tenth of the distinct keys, re-run solo through the
    /// registry: what the engine served must be what a client running the
    /// query alone would have computed. (Hits were already compared with
    /// their key's first execution as they arrived.)
    fn check(&mut self, rec: &mut Recorder) -> (u64, u64) {
        let mut distinct: Vec<&QuerySpec> = Vec::new();
        for spec in &self.queries {
            if !distinct.iter().any(|s| key_of(s) == key_of(spec)) {
                distinct.push(spec);
            }
        }
        // The passes have shuffled the queries a run-dependent number of
        // times; sort so the sample depends on the seed alone.
        distinct.sort_by_key(|s| (s.source.map(|v| v.0), s.algo.name(), s.platform.name()));
        let mut rng = SplitMix64::new(self.seed ^ 0x0063_6865_636b); // "check"
        rng.shuffle(&mut distinct);
        distinct.truncate(distinct.len().div_ceil(10));
        let mut failed = 0;
        for (i, spec) in distinct.iter().enumerate() {
            let opts = QuerySpec {
                fault_plan: None,
                recovery: None,
                ..(*spec).clone()
            }
            .to_opts();
            let (solo, _) = rec.call("algorithms.run", i as u64, || {
                registry::try_run(spec.algo, spec.platform, &self.graph, None, &opts)
            });
            let solo = solo.ok().and_then(|o| o.digest);
            if solo.is_none() || solo.as_ref() != self.first.get(&key_of(spec)) {
                eprintln!(
                    "serve-mix: served digest of {:?} differs from its solo run",
                    key_of(spec)
                );
                failed += 1;
            }
        }
        (distinct.len() as u64, failed)
    }

    fn layers(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.extend(Tally::median_of(&self.tallies));
        serve_sample_layers(&self.samples, out);
        serve_stats_layers(&self.last_stats, out);
    }

    fn graph(&self) -> &Arc<TemporalGraph> {
        &self.graph
    }

    fn probe_source(&self) -> VertexId {
        self.most_popular
    }

    fn sizes(&self) -> String {
        let faulted = self
            .queries
            .iter()
            .filter(|q| q.fault_plan.is_some())
            .count();
        let msb = self
            .queries
            .iter()
            .filter(|q| q.platform == Platform::Msb)
            .count();
        format!(
            "vertices={} edges={} queries_per_round={} distinct_keys={} msb={} faulted={} window={WINDOW}",
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.queries.len(),
            self.first.len(),
            msb,
            faulted
        )
    }
}

/// Books one answered query of a traced round: where its latency went
/// (queue wait against execution or cache lookup) and the run behind it.
pub fn book_outcome(
    samples: &mut Samples,
    tally: &mut Tally,
    outcome: &QueryOutcome,
    latency_ms: f64,
) {
    let served_ms = outcome.micros as f64 / 1e3;
    samples.push("queue_wait_ms", (latency_ms - served_ms).max(0.0));
    if outcome.cached {
        samples.push("hit_us", outcome.micros as f64);
        return;
    }
    samples.push("exec_ms", served_ms);
    samples.push(outcome.algo.name(), served_ms);
    // Only executions are booked as engine work: a cacheable key executes
    // exactly once per round whichever duplicate leads it (single-flight)
    // and faulted queries always execute, so these sums repeat exactly.
    tally.add_run(
        &outcome.metrics,
        Some(Duration::from_micros(outcome.micros)),
    );
}

/// The `serve.*` latency splits and per-algorithm execution medians.
pub fn serve_sample_layers(s: &Samples, out: &mut BTreeMap<&'static str, f64>) {
    out.insert("serve.submit_us_p50", s.percentile("submit_us", 0.5));
    out.insert(
        "serve.queue_wait_ms_p50",
        s.percentile("queue_wait_ms", 0.5),
    );
    out.insert("serve.exec_ms_p50", s.percentile("exec_ms", 0.5));
    out.insert("serve.hit_us_p50", s.percentile("hit_us", 0.5));
    out.insert("algorithms.bfs_p50_ms", s.percentile("BFS", 0.5));
    out.insert("algorithms.eat_p50_ms", s.percentile("EAT", 0.5));
    out.insert("algorithms.rh_p50_ms", s.percentile("RH", 0.5));
    out.insert("algorithms.sssp_p50_ms", s.percentile("SSSP", 0.5));
}

/// The `serve.*` counters of one engine's lifetime (one round).
pub fn serve_stats_layers(stats: &ServeStats, out: &mut BTreeMap<&'static str, f64>) {
    let hit_share = stats.cache_hits * 1000 / stats.completed.max(1);
    out.insert("serve.cache_hit_share_milli", hit_share as f64);
    out.insert("serve.accepted", stats.accepted as f64);
    out.insert("serve.rejected", stats.rejected as f64);
    out.insert("serve.shed", stats.shed as f64);
    out.insert("serve.retries", stats.retries as f64);
    out.insert("serve.recovered", stats.recovered as f64);
    out.insert("serve.failed", stats.failed as f64);
}
