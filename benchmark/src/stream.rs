//! `stream-live`: writes beside reads. Each op is one update batch taken
//! from arrival to answered queries: `StreamEngine::ingest` →
//! `ServeEngine::install_graph` → a burst of four queries (two distinct,
//! each repeated) waited to completion. Latency here is freshness.
//!
//! `graphite-tgraph` is exercised through overlay, freeze and compaction
//! while the serve cache starts cold every epoch, so a layout or cache
//! gain bought with freeze or install time shows here as a loss. Every
//! round replays the same batches through fresh engines built outside the
//! timed region, so rounds are identical.

use crate::inputs::{pick_sources, sparse_batches, WORKERS};
use crate::measure::{generate_graph, ms, Recorder, Round, Samples, Tally};
use crate::serve::{book_outcome, serve_config, serve_sample_layers, serve_stats_layers};
use crate::{graph_scale, scaled, Workload};
use graphite_algorithms::registry::{self, Algo, Platform, RunOpts};
use graphite_bsp::metrics::now;
use graphite_bsp::trace::TraceConfig;
use graphite_datagen::Profile;
use graphite_serve::{QuerySpec, ServeEngine, ServeStats};
use graphite_stream::prelude::*;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::rng::SplitMix64;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Update batches per round (the issue's ≥ 150 over the measured phase,
/// split into identical rounds).
const BATCHES: usize = 24;
/// Fresh vertices and extended edges per batch: 7 × 4 + 4 × 3 = 40 ops.
const FRESH: usize = 7;
const EXTEND: usize = 4;
const COMPACT_EVERY: u64 = 8;
/// Query sources the bursts rotate through.
const QUERY_SOURCES: usize = 8;

pub struct Stream {
    seed: u64,
    base: Arc<TemporalGraph>,
    deltas: Vec<GraphDelta>,
    /// `[0]` is the registered algorithms' source; bursts rotate over all.
    sources: Vec<VertexId>,
    warm_failed: u64,
    tallies: Vec<Tally>,
    samples: Samples,
    last_stats: ServeStats,
    /// The last pass's final graph and per-algorithm digests, kept for
    /// the differential check.
    last_graph: Option<Arc<TemporalGraph>>,
    last_digests: Vec<(&'static str, u64)>,
    /// Compute calls of the check's three cold runs on the final graph.
    cold_compute_calls: u64,
}

/// The engines and accumulators of one pass.
struct Pass {
    stream: StreamEngine,
    serve: ServeEngine,
    tally: Tally,
    samples: Samples,
    last_digests: Vec<(&'static str, u64)>,
}

impl Stream {
    fn specs(&self) -> [AlgoSpec; 3] {
        let source = self.sources[0];
        [
            AlgoSpec::Bfs { source },
            AlgoSpec::Eat { source, start: 0 },
            AlgoSpec::Reach { source, start: 0 },
        ]
    }

    /// The burst after batch `b`: two distinct queries, each asked twice.
    fn burst(&self, b: usize) -> [QuerySpec; 4] {
        let pick = |k: usize| self.sources[(2 * b + k) % self.sources.len()];
        let query = |algo, source| QuerySpec {
            algo,
            platform: Platform::Icm,
            workers: WORKERS,
            source: Some(source),
            ..QuerySpec::default()
        };
        let (first, second) = (query(Algo::Bfs, pick(0)), query(Algo::Eat, pick(1)));
        [first.clone(), second.clone(), first, second]
    }

    /// One op: batch `b` from arrival to its burst answered. Returns
    /// whether everything succeeded and every repeat was answered like
    /// its first asking.
    fn op(&self, rec: &mut Recorder, pass: &mut Pass, b: usize) -> bool {
        let (op, delta) = (b as u64, &self.deltas[b]);
        if rec.tracing {
            // The dirty set as the engine is about to compute it, on the
            // pre-batch graph.
            let before = pass.stream.graph();
            let (dirty, took) = rec.call("stream.dirty_vertices", op, || {
                dirty_vertices(&before, delta)
            });
            pass.samples.push("dirty_ms", ms(took));
            rec.counts(&[("dirty", dirty.len() as u64)]);
        }
        let (report, took) = rec.call("stream.ingest", op, || pass.stream.ingest(delta));
        let Ok(report) = report else {
            return false;
        };
        let fresh = pass.stream.graph();
        let (_, install) = rec.call("serve.install_graph", op, || {
            pass.serve.install_graph(fresh)
        });
        if rec.tracing {
            rec.counts(&[("ops", report.ops as u64), ("dirty", report.dirty as u64)]);
            pass.samples.push("ingest_ms", ms(took));
            pass.samples.push("install_graph_ms", ms(install));
            pass.tally.add("stream.dirty_vertices", report.dirty as f64);
            pass.tally.add("update_ops", report.ops as f64);
            for algo in &report.algos {
                pass.tally
                    .add("stream.warm_supersteps", algo.supersteps as f64);
                pass.tally
                    .add("stream.inc_compute_calls", algo.compute_calls as f64);
            }
            // The engine's own span around `DeltaOverlay::apply_and_freeze`
            // (public trace option); every COMPACT_EVERY-th one is a
            // verifying compaction.
            if let Some(&(_, ns)) = report.extras.iter().find(|(k, _)| *k == "stream_apply_ns") {
                let compacted = report.batch.is_multiple_of(COMPACT_EVERY);
                pass.tally
                    .add("tgraph.compactions", f64::from(u8::from(compacted)));
                let key = if compacted {
                    "compact_ms"
                } else {
                    "apply_freeze_ms"
                };
                pass.samples.push(key, ns as f64 / 1e6);
            }
        }
        let mut tickets = Vec::with_capacity(4);
        for spec in self.burst(b) {
            let sent = now();
            let (ticket, took) = rec.call("serve.submit", op, || pass.serve.submit(spec));
            if rec.tracing {
                pass.samples.push("submit_us", took.as_secs_f64() * 1e6);
            }
            tickets.push((sent, ticket));
        }
        let mut digests = Vec::with_capacity(4);
        for (sent, ticket) in tickets {
            let Ok(ticket) = ticket else {
                return false;
            };
            let Ok(outcome) = rec.call("serve.wait", op, || ticket.wait()).0 else {
                return false;
            };
            if rec.tracing {
                book_outcome(
                    &mut pass.samples,
                    &mut pass.tally,
                    &outcome,
                    ms(sent.elapsed()),
                );
            }
            digests.push(outcome.digest);
        }
        pass.last_digests = report
            .algos
            .iter()
            .map(|a| (a.name, a.result_digest))
            .collect();
        digests[0].is_some() && digests[0] == digests[2] && digests[1] == digests[3]
    }

    /// One pass over the batches through fresh engines (built, registered
    /// and torn down outside the timed region).
    fn pass(&mut self, rec: &mut Recorder, times: &mut Tally) -> Round {
        let cfg = StreamConfig {
            workers: WORKERS,
            compact_every: COMPACT_EVERY,
            check_every: 0,
            trace: if rec.tracing {
                TraceConfig::full()
            } else {
                TraceConfig::off()
            },
            ..StreamConfig::default()
        };
        let mut stream = StreamEngine::new(Arc::clone(&self.base), cfg);
        let (registered, took) = rec.call("stream.register", 0, || {
            self.specs()
                .into_iter()
                .all(|spec| stream.register(spec).is_ok())
        });
        times.add("stream.register_ms", ms(took));
        let mut pass = Pass {
            stream,
            serve: ServeEngine::new(Arc::clone(&self.base), serve_config()),
            tally: Tally::default(),
            samples: std::mem::take(&mut self.samples),
            last_digests: Vec::new(),
        };

        let mut latencies = Vec::with_capacity(self.deltas.len());
        let mut failed = u64::from(!registered);
        let timer = rec.begin_round();
        for b in 0..self.deltas.len() {
            // Arrival to burst answered: the op span is the latency.
            let (ok, took) = rec.op(b as u64, |rec| self.op(rec, &mut pass, b));
            if ok {
                latencies.push(ms(took));
            } else {
                failed += 1;
            }
        }
        let round = rec.end_round(timer, latencies, self.deltas.len() as u64, failed);

        self.last_graph = Some(pass.stream.graph());
        self.last_stats = pass.serve.stats();
        self.last_digests = pass.last_digests;
        self.samples = pass.samples;
        if rec.tracing {
            pass.tally.add("round_wall_ms", round.wall_ms);
            self.tallies.push(pass.tally);
        }
        round
    }
}

impl Workload for Stream {
    fn setup(
        _name: &'static str,
        seed: u64,
        smoke: bool,
        rec: &mut Recorder,
        times: &mut Tally,
    ) -> Self {
        let base = generate_graph(rec, times, || {
            Profile::Twitter.generate(graph_scale(2, smoke), seed)
        });
        let mut rng = SplitMix64::new(seed ^ 0x7374_7265_616d); // "stream"
        let sources = pick_sources(&base, &mut rng, QUERY_SOURCES);
        let batches = scaled(BATCHES, smoke).max(2);
        let (deltas, took) = rec.call("datagen.update_stream", 0, || {
            sparse_batches(&base, &mut rng, batches, FRESH, EXTEND)
        });
        times.add("datagen.update_stream_ms", ms(took));
        let mut this = Stream {
            seed,
            base,
            deltas,
            sources,
            warm_failed: 0,
            tallies: Vec::new(),
            samples: Samples::default(),
            last_stats: ServeStats::default(),
            last_graph: None,
            last_digests: Vec::new(),
            cold_compute_calls: 0,
        };
        this.warm_failed = this.pass(rec, times).failed;
        this
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        self.pass(rec, &mut Tally::default())
    }

    fn warmup(&self) -> (u64, u64) {
        (self.deltas.len() as u64, self.warm_failed)
    }

    /// The differential check, once and untimed: the incrementally
    /// maintained graph must equal the `apply_delta` chain over the same
    /// batches, and each maintained result must equal a cold run on the
    /// final graph.
    fn check(&mut self, rec: &mut Recorder) -> (u64, u64) {
        let Some(last) = self.last_graph.clone() else {
            return (1, 1);
        };
        let mut failed = 0;
        self.cold_compute_calls = 0;
        let mut chained = (*self.base).clone();
        for delta in &self.deltas {
            match chained.apply_delta(delta) {
                Ok(next) => chained = next,
                Err(_) => return (1, 1),
            }
        }
        if chained.structure_digest() != last.structure_digest() {
            eprintln!("stream-live: final structure digest differs from the apply_delta chain");
            failed += 1;
        }
        let source = self.sources[0];
        for (i, (name, algo)) in [
            ("bfs", Algo::Bfs),
            ("eat", Algo::Eat),
            ("reach", Algo::Reach),
        ]
        .into_iter()
        .enumerate()
        {
            let opts = RunOpts {
                workers: WORKERS,
                source: Some(source),
                digest: true,
                ..RunOpts::default()
            };
            let (cold, _) = rec.call("algorithms.run", i as u64, || {
                registry::try_run(algo, Platform::Icm, &last, None, &opts)
            });
            let cold = cold.ok().and_then(|o| {
                self.cold_compute_calls += o.metrics.counters.compute_calls;
                o.digest.map(|d| d.0)
            });
            let warm = self
                .last_digests
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, d)| d);
            if cold.is_none() || cold != warm {
                eprintln!(
                    "stream-live: maintained {name} digest differs from a cold run (seed {})",
                    self.seed
                );
                failed += 1;
            }
        }
        (4, failed)
    }

    fn layers(&self, out: &mut BTreeMap<&'static str, f64>) {
        let sums = Tally::median_of(&self.tallies);
        let sum = |key: &str| sums.get(key).copied().unwrap_or(0.0);
        // Useful-work ratio: what a batch's three maintenance runs compute
        // against what three cold runs on the final graph compute.
        let per_batch = sum("stream.inc_compute_calls") / self.deltas.len().max(1) as f64;
        let ratio = per_batch * 1000.0 / self.cold_compute_calls.max(1) as f64;
        out.insert("stream.inc_work_ratio_milli", ratio.round());
        let wall_s = sum("round_wall_ms") / 1e3;
        out.insert(
            "stream.update_ops_per_s",
            if wall_s > 0.0 {
                sum("update_ops") / wall_s
            } else {
                0.0
            },
        );
        out.extend(sums);
        let s = &self.samples;
        out.insert("stream.ingest_ms_p50", s.percentile("ingest_ms", 0.5));
        out.insert("stream.ingest_ms_p90", s.percentile("ingest_ms", 0.9));
        out.insert("stream.dirty_ms", s.percentile("dirty_ms", 0.5));
        out.insert(
            "tgraph.delta_apply_freeze_ms",
            s.percentile("apply_freeze_ms", 0.5),
        );
        out.insert("tgraph.compact_ms", s.percentile("compact_ms", 0.5));
        out.insert(
            "serve.install_graph_ms",
            s.percentile("install_graph_ms", 0.5),
        );
        serve_sample_layers(s, out);
        serve_stats_layers(&self.last_stats, out);
    }

    fn graph(&self) -> &Arc<TemporalGraph> {
        &self.base
    }

    fn probe_source(&self) -> VertexId {
        self.sources[0]
    }

    fn sizes(&self) -> String {
        let ops: usize = self.deltas.iter().map(GraphDelta::len).sum();
        format!(
            "vertices={} edges={} batches_per_round={} update_ops_per_batch={} queries_per_batch=4",
            self.base.num_vertices(),
            self.base.num_edges(),
            self.deltas.len(),
            ops / self.deltas.len().max(1)
        )
    }
}
