//! `batch-long` and `batch-unit`: the paper's two regimes, one registry
//! run at a time.
//!
//! Same suite and driver on both; only the dataset profile differs —
//! Twitter (edge lifespans span nearly the whole horizon, warp shares
//! work) against GPlus (unit lifespans, warp degenerates to per-point
//! work and routing dominates).

use crate::inputs::{pick_sources, WORKERS};
use crate::measure::{generate_graph, ms, Recorder, Round, Samples, Tally};
use crate::{graph_scale, scaled, Workload};
use graphite_algorithms::registry::{self, Algo, Platform, RunError, RunOpts, RunOutcome};
use graphite_algorithms::ResultDigest;
use graphite_bsp::trace::TraceConfig;
use graphite_datagen::Profile;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::rng::SplitMix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// The suite every source runs, in this order.
const SUITE: [Algo; 5] = [Algo::Bfs, Algo::Eat, Algo::Reach, Algo::Sssp, Algo::Wcc];

/// Seeded sources per round (the issue's 24, scaled to the run-time cap:
/// op counts shrink, graph shapes do not).
const SOURCES: usize = 4;

/// The seed whose pin files are committed; losing them must fail.
const PINNED_SEED: u64 = 11;

pub struct Batch {
    name: &'static str,
    seed: u64,
    smoke: bool,
    graph: Arc<TemporalGraph>,
    ops: Vec<(Algo, VertexId)>,
    /// Warm-up digests, the reference every later check compares against.
    warm: Vec<Option<ResultDigest>>,
    warm_failed: u64,
    tallies: Vec<Tally>,
    per_algo: Samples,
}

fn profile_of(name: &str) -> (Profile, usize) {
    match name {
        "batch-long" => (Profile::Twitter, 4),
        _ => (Profile::GPlus, 16),
    }
}

impl Batch {
    fn run_op(
        &self,
        rec: &mut Recorder,
        i: usize,
        workers: usize,
        digest: bool,
    ) -> (Result<RunOutcome, RunError>, Duration) {
        let (algo, source) = self.ops[i];
        let opts = RunOpts {
            workers,
            source: Some(source),
            digest,
            // Counts in every traced round; the program's own clock reads
            // (`warp_ns`) only in the deep one.
            trace: match (rec.tracing, rec.deep) {
                (_, true) => TraceConfig::full(),
                (true, false) => TraceConfig::counters(),
                (false, false) => TraceConfig::off(),
            },
            ..RunOpts::default()
        };
        rec.call("algorithms.run", i as u64, || {
            registry::try_run(algo, Platform::Icm, &self.graph, None, &opts)
        })
    }

    fn pins_path(&self) -> String {
        let size = if self.smoke { "-smoke" } else { "" };
        format!("benchmark/pins/{}.seed{}{size}", self.name, self.seed)
    }

    fn pin_line(&self, i: usize) -> String {
        let (algo, source) = self.ops[i];
        let digest = self.warm[i].map_or(0, |d| d.0);
        format!("{} {} {:#018x}", algo.name(), source.0, digest)
    }

    /// Rewrites this workload's pin file from the warm-up digests.
    pub fn write_pins(&self) -> std::io::Result<()> {
        let mut text = String::from(
            "# algo source digest — warm-up result digests, regenerate with --write-pins\n",
        );
        for i in 0..self.ops.len() {
            text.push_str(&self.pin_line(i));
            text.push('\n');
        }
        std::fs::write(self.pins_path(), text)
    }
}

impl Workload for Batch {
    const DEEP_ROUND: bool = true;

    fn setup(
        name: &'static str,
        seed: u64,
        smoke: bool,
        rec: &mut Recorder,
        times: &mut Tally,
    ) -> Self {
        let (profile, scale) = profile_of(name);
        let graph = generate_graph(rec, times, || {
            profile.generate(graph_scale(scale, smoke), seed)
        });
        let mut rng = SplitMix64::new(seed ^ 0x0062_6174_6368); // "batch"
        let sources = pick_sources(&graph, &mut rng, scaled(SOURCES, smoke));
        let ops = sources
            .iter()
            .flat_map(|&s| SUITE.iter().map(move |&a| (a, s)))
            .collect();
        let mut this = Batch {
            name,
            seed,
            smoke,
            graph,
            ops,
            warm: Vec::new(),
            warm_failed: 0,
            tallies: Vec::new(),
            per_algo: Samples::default(),
        };
        // Warm-up round, with digests: the reference for every check.
        for i in 0..this.ops.len() {
            let digest = match this.run_op(rec, i, WORKERS, true).0 {
                Ok(outcome) => outcome.digest,
                Err(_) => {
                    this.warm_failed += 1;
                    None
                }
            };
            this.warm.push(digest);
        }
        this
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        let timer = rec.begin_round();
        let mut latencies = Vec::with_capacity(self.ops.len());
        let mut failed = 0;
        let mut tally = Tally::default();
        for i in 0..self.ops.len() {
            let (result, took) = self.run_op(rec, i, WORKERS, false);
            match result {
                Ok(outcome) => {
                    latencies.push(ms(took));
                    if rec.deep {
                        tally.add_extras(&outcome.metrics);
                    } else if rec.tracing {
                        let c = &outcome.metrics.counters;
                        rec.counts(&[
                            ("supersteps", outcome.metrics.supersteps),
                            ("compute_calls", c.compute_calls),
                            ("messages_sent", c.messages_sent),
                        ]);
                        tally.add_run(&outcome.metrics, Some(took));
                        self.per_algo.push(self.ops[i].0.name(), ms(took));
                    }
                    black_box(outcome);
                }
                Err(_) => failed += 1,
            }
        }
        let round = rec.end_round(timer, latencies, self.ops.len() as u64, failed);
        if rec.tracing {
            self.tallies.push(tally);
        }
        round
    }

    fn warmup(&self) -> (u64, u64) {
        (self.ops.len() as u64, self.warm_failed)
    }

    /// Every op again on one worker with digests: worker count must be
    /// invisible in results. For the pinned seed the warm-up digests must
    /// also equal the committed pins, so a change that alters results on
    /// both worker counts alike is still caught.
    fn check(&mut self, rec: &mut Recorder) -> (u64, u64) {
        let mut failed = 0;
        for i in 0..self.ops.len() {
            let solo = self.run_op(rec, i, 1, true).0.ok().and_then(|o| o.digest);
            if solo.is_none() || solo != self.warm[i] {
                eprintln!(
                    "{}: op {i} ({}) differs between {WORKERS} workers and 1",
                    self.name,
                    self.pin_line(i)
                );
                failed += 1;
            }
        }
        let mut attempted = self.ops.len() as u64;
        let pins = std::fs::read_to_string(self.pins_path());
        if pins.is_ok() || self.seed == PINNED_SEED {
            let pins = pins.unwrap_or_default();
            for i in 0..self.ops.len() {
                attempted += 1;
                let want = self.pin_line(i);
                if !pins.lines().any(|line| line == want) {
                    eprintln!(
                        "{}: op {i} ({want}) is not in {}",
                        self.name,
                        self.pins_path()
                    );
                    failed += 1;
                }
            }
        }
        (attempted, failed)
    }

    fn layers(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.extend(Tally::median_of(&self.tallies));
        for (algo, key) in [
            ("BFS", "algorithms.bfs_p50_ms"),
            ("EAT", "algorithms.eat_p50_ms"),
            ("RH", "algorithms.rh_p50_ms"),
            ("SSSP", "algorithms.sssp_p50_ms"),
            ("WCC", "algorithms.wcc_p50_ms"),
        ] {
            out.insert(key, self.per_algo.percentile(algo, 0.5));
        }
    }

    fn graph(&self) -> &Arc<TemporalGraph> {
        &self.graph
    }

    fn probe_source(&self) -> VertexId {
        self.ops[0].1
    }

    fn sizes(&self) -> String {
        format!(
            "vertices={} edges={} sources={} ops_per_round={}",
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.ops.len() / SUITE.len(),
            self.ops.len()
        )
    }
}
