//! End-to-end validation of `graphite-trace/1`, writer against reader.
//!
//! * The writer's bytes are pinned: a fixed recovered EAT run at Counters
//!   level reproduces `tests/data/eat_recovered.counters.jsonl` byte for
//!   byte, and `trace_report`'s three views of that file reproduce their
//!   recordings (both made at the commit before the schema moved into one
//!   table in `bsp::trace`).
//! * `tracefmt::parse` inverts `RunTrace::to_jsonl` — for a recovered ICM
//!   run at Full, a traced registry run on each of the five platforms, a
//!   real serve health frame, real stream batch frames and 256 seeded
//!   random traces — so the JSONL file is a lossless view of the engine's
//!   own events, and its per-step rows sum to *exactly* the run's
//!   `RunMetrics` totals.
//! * No input makes the reader or a renderer panic.

use graphite_algorithms::bfs::IcmBfs;
use graphite_algorithms::registry::{try_run, Algo, Platform, RunOpts};
use graphite_algorithms::td_paths::IcmEat;
use graphite_algorithms::AlgLabels;
use graphite_bench::tracefmt;
use graphite_bsp::engine::BspConfig;
use graphite_bsp::fault::FaultPlan;
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::recover::RecoveryConfig;
use graphite_bsp::trace::{RunTrace, TraceConfig, TraceEvent, EXTRA_KEYS};
use graphite_datagen::stream::derive_update_stream;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_icm::RunConfig;
use graphite_serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite_stream::prelude::*;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::rng::SplitMix64;
use std::sync::Arc;

const GOLDEN_JSONL: &str = include_str!("data/eat_recovered.counters.jsonl");
const GOLDEN_RENDER: &str = include_str!("data/eat_recovered.render.txt");
const GOLDEN_BALANCE: &str = include_str!("data/eat_recovered.balance.txt");
const GOLDEN_COMPARE: &str = include_str!("data/eat_recovered.compare.txt");
const GOLDEN_LABEL: &str = "eat/icm-recovered";

fn small_params() -> GenParams {
    GenParams {
        vertices: 120,
        edges: 700,
        snapshots: 12,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Geometric { mean: 9.0 },
        props: PropModel {
            mean_segment: 5.0,
            max_cost: 10,
            max_travel_time: 3,
        },
        seed: 21,
    }
}

fn small_graph() -> Arc<TemporalGraph> {
    Arc::new(generate(&small_params()))
}

fn source(graph: &TemporalGraph) -> VertexId {
    graph
        .vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty graph")
}

fn cfg(trace: TraceConfig) -> IcmConfig {
    IcmConfig {
        run: RunConfig {
            workers: 3,
            partition: Default::default(),
            bsp: BspConfig {
                max_supersteps: 10_000,
                trace,
                ..Default::default()
            },
        },
        combiner: true,
        suppression_threshold: Some(0.7),
    }
}

/// The golden run: EAT, checkpoints every 2 steps, worker 1 panics at
/// step 3 — so the stream holds all four event kinds.
fn recovered_eat(trace: TraceConfig, perturb: Option<u64>) -> RunMetrics {
    let graph = small_graph();
    let program = Arc::new(IcmEat {
        source: source(&graph),
        start: 0,
        labels: AlgLabels::resolve(&graph),
    });
    let mut cfg = cfg(trace);
    cfg.run.bsp.recovery = Some(RecoveryConfig::every(2));
    cfg.run.bsp.fault_plan = Some(FaultPlan::panic_at(1, 3));
    cfg.run.bsp.perturb_schedule = perturb;
    run_icm(&graph, program, &cfg, None)
        .expect("the fault is recovered")
        .metrics
}

/// `parse(to_jsonl(t, label)) == (label, t)`.
fn assert_round_trips(trace: &RunTrace, label: &str) {
    let text = trace.to_jsonl(label);
    let (read_label, read) = tracefmt::parse(&text).expect("emitted trace must be schema-valid");
    assert_eq!(read_label, label);
    assert_eq!(&read, trace, "{label}: the reader must return the events");
}

fn assert_reconciles(trace: &RunTrace, metrics: &RunMetrics, label: &str) {
    assert_eq!(
        tracefmt::steps(trace).count() as u64,
        metrics.supersteps,
        "{label}: one step block per superstep"
    );
    let sums_to = |f: fn(&UserCounters) -> u64, what: &str| {
        assert_eq!(
            tracefmt::total(trace, f),
            f(&metrics.counters),
            "{label}: per-step {what} sums must equal the RunMetrics total"
        );
    };
    sums_to(|c| c.messages_sent, "message");
    sums_to(|c| c.remote_messages, "remote-message");
    sums_to(|c| c.wire_messages, "wire-message");
    sums_to(|c| c.bytes_sent, "byte");
    sums_to(|c| c.compute_calls, "compute-call");
    sums_to(|c| c.scatter_calls, "scatter-call");
    sums_to(|c| c.warp_invocations, "warp-invocation");
    let last = tracefmt::steps(trace).last().expect("at least one step");
    assert!(
        matches!(last.end, TraceEvent::StepEnd { halted: true, .. }),
        "{label}: the final step must carry halted=true"
    );
}

#[test]
fn bfs_full_trace_round_trips_and_reconciles() {
    let graph = small_graph();
    let program = Arc::new(IcmBfs {
        source: source(&graph),
    });
    let r =
        run_icm(&graph, program, &cfg(TraceConfig::full()), None).expect("traced BFS run succeeds");
    assert_round_trips(&r.metrics.trace, "bfs/icm");
    assert_reconciles(&r.metrics.trace, &r.metrics, "bfs/icm");
    // A rendered report mentions every superstep and the totals line.
    let report = tracefmt::render("bfs/icm", &r.metrics.trace, 3);
    assert!(report.contains("trace: bfs/icm"));
    assert!(report.contains(&format!("total: {} step(s)", r.metrics.supersteps)));
}

/// A traced registry run reconciles on every platform. A snapshot
/// platform's trace is its one run's, whose per-step rows sum to the
/// whole walk's totals — GoFFish's temporal messages included, which are
/// charged in the superstep that sends them.
#[test]
fn every_platforms_trace_reconciles() {
    let graph = small_graph();
    for (algo, platform) in [
        (Algo::Bfs, Platform::Icm),
        (Algo::Bfs, Platform::Msb),
        (Algo::Bfs, Platform::Chlonos),
        (Algo::Sssp, Platform::Tgb),
        (Algo::Sssp, Platform::Goffish),
    ] {
        let opts = RunOpts {
            workers: 3,
            source: Some(source(&graph)),
            trace: TraceConfig::counters(),
            ..RunOpts::default()
        };
        let r = try_run(algo, platform, &graph, None, &opts).expect("a traced run");
        let label = format!("{}/{}", algo.name(), platform.name());
        assert_round_trips(&r.metrics.trace, &label);
        assert_reconciles(&r.metrics.trace, &r.metrics, &label);
    }
}

/// A snapshot platform walks its snapshots, batches or time-points as the
/// phases of one run, so its trace is one run's: the steps run
/// `1..=supersteps` without a repeat, and only the last one halts.
#[test]
fn a_snapshot_platforms_trace_is_one_run() {
    let graph = small_graph();
    for (algo, platform) in [
        (Algo::Bfs, Platform::Msb),
        (Algo::Bfs, Platform::Chlonos),
        (Algo::Sssp, Platform::Goffish),
    ] {
        let opts = RunOpts {
            workers: 3,
            source: Some(source(&graph)),
            batch_size: 4,
            trace: TraceConfig::counters(),
            ..RunOpts::default()
        };
        let r = try_run(algo, platform, &graph, None, &opts).expect("a traced run");
        let ends: Vec<(u64, bool)> = r
            .metrics
            .trace
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::StepEnd { step, halted, .. } => Some((step, halted)),
                _ => None,
            })
            .collect();
        let label = format!("{}/{}", algo.name(), platform.name());
        let steps: Vec<u64> = ends.iter().map(|&(step, _)| step).collect();
        assert_eq!(
            steps,
            (1..=r.metrics.supersteps).collect::<Vec<_>>(),
            "{label}: one run's steps"
        );
        let halted: Vec<u64> = ends.iter().filter(|e| e.1).map(|e| e.0).collect();
        assert_eq!(
            halted,
            vec![r.metrics.supersteps],
            "{label}: only the last step halts"
        );
    }
}

#[test]
fn the_writers_bytes_did_not_move() {
    for perturb in [None, Some(7)] {
        let metrics = recovered_eat(TraceConfig::counters(), perturb);
        assert_eq!(
            metrics.trace.to_jsonl(GOLDEN_LABEL),
            GOLDEN_JSONL,
            "perturb {perturb:?}"
        );
    }
    for kind in ["worker_step", "step_end", "checkpoint", "rollback"] {
        let needle = format!("{{\"ev\":\"{kind}\"");
        assert!(GOLDEN_JSONL.contains(&needle), "golden run lacks {kind}");
    }
}

#[test]
fn the_readers_views_of_the_golden_file_did_not_move() {
    let (label, trace) = tracefmt::parse(GOLDEN_JSONL).expect("golden file parses");
    // `render` gained the extras totals; everything before them is as
    // recorded. EAT warps, so the section is there and lists its keys.
    let rendered = tracefmt::render(&label, &trace, 4);
    let extras = rendered
        .strip_prefix(GOLDEN_RENDER)
        .expect("render output up to the totals line is unchanged");
    let keys: Vec<&str> = extras
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(extras.starts_with("extras:\n"), "{extras}");
    assert_eq!(keys, ["warp_tuples", "warp_group_msgs"]);
    assert_eq!(tracefmt::render_balance(&label, &trace), GOLDEN_BALANCE);
    assert_eq!(
        tracefmt::render_compare((&label, &trace), (&label, &trace)),
        GOLDEN_COMPARE
    );
}

#[test]
fn recovered_full_trace_round_trips_and_carries_warp_extras() {
    let metrics = recovered_eat(TraceConfig::full(), None);
    let trace = &metrics.trace;
    assert_round_trips(trace, GOLDEN_LABEL);
    assert_reconciles(trace, &metrics, GOLDEN_LABEL);
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Rollback { .. })));
    // EAT exercises warp: some step must have a computable amplification
    // factor, and the timing extra shows up at Full.
    assert!(
        tracefmt::steps(trace).any(|s| s.warp_amplification().is_some()),
        "some step must report warp amplification"
    );
    assert!(tracefmt::render(GOLDEN_LABEL, trace, 3).contains("warp_ns"));
}

#[test]
fn a_real_serve_health_frame_round_trips_and_is_reported() {
    let graph = small_graph();
    let engine = ServeEngine::new(
        Arc::clone(&graph),
        ServeConfig {
            retries: 1,
            ..ServeConfig::default()
        },
    );
    let clean = QuerySpec {
        source: Some(source(&graph)),
        workers: 2,
        ..QuerySpec::new(Algo::Bfs, Platform::Icm)
    };
    // No recovery configured and a deterministic engine: the injected
    // panic repeats on the serve-level retry, so the query is retried
    // once and then fails for good.
    let faulted = QuerySpec {
        fault_plan: Some(FaultPlan::panic_at(0, 1)),
        ..clean.clone()
    };
    let over_budget = QuerySpec {
        algo: Algo::Eat,
        budget: Some(1),
        ..clean.clone()
    };
    let results = engine.serve_batch(&[clean, faulted, over_budget]);
    assert!(results[0].is_ok(), "{results:?}");
    let health = engine.health();
    assert_eq!(
        (health.retries, health.failed, health.budget_exceeded),
        (1, 1, 1),
        "{health:?}"
    );

    let frame = engine.health_trace();
    assert_round_trips(&frame, "serve/health");
    let report = tracefmt::render("serve/health", &frame, 4);
    let shown = |key: &str, value: u64| {
        report
            .lines()
            .any(|l| l.split_whitespace().eq([key, value.to_string().as_str()]))
    };
    for key in ["serve_retries", "serve_failed", "serve_budget_exceeded"] {
        assert!(shown(key, 1), "{key} missing from\n{report}");
    }
    assert!(shown("serve_sheds", 0), "{report}");
}

#[test]
fn real_stream_batch_frames_round_trip_and_are_reported() {
    let stream = derive_update_stream(&small_params(), 4);
    let source = source(&stream.base);
    let mut engine = StreamEngine::new(
        Arc::new(stream.base.clone()),
        StreamConfig {
            check_every: 2,
            trace: TraceConfig::full(),
            ..StreamConfig::default()
        },
    );
    engine.register(AlgoSpec::Bfs { source }).expect("register");
    let mut trace = RunTrace::default();
    let mut ops = 0;
    for delta in &stream.batches[..3] {
        let report = engine.ingest(delta).expect("batch applies");
        ops += report.ops as u64;
        trace.events.extend(batch_trace(&report).events);
    }
    assert_round_trips(&trace, "stream/bfs");
    let report = tracefmt::render("stream/bfs", &trace, 4);
    for expect in [
        ["stream_batches", "3"],
        ["stream_ops", &ops.to_string()],
        ["stream_digest_checks", "1"],
    ] {
        assert!(
            report.lines().any(|l| l.split_whitespace().eq(expect)),
            "{expect:?} missing from\n{report}"
        );
    }
    for span in [
        "stream_apply_ns",
        "stream_incremental_ns",
        "stream_full_check_ns",
    ] {
        assert!(report.contains(span), "{span} missing from\n{report}");
    }
}

/// Values the wire carries exactly: skewed towards small, up to 2⁵³.
fn rand_value(rng: &mut SplitMix64) -> u64 {
    match rng.bounded(4) {
        0 => 0,
        1 => rng.bounded(1000),
        2 => rng.next_u64() >> 11,
        _ => 1 << 53,
    }
}

/// A random stream that honours the engine's contract (a step is a run
/// of `worker_step`s closed by a `step_end`; markers sit between steps),
/// with every declared extras key in play.
fn rand_trace(rng: &mut SplitMix64) -> RunTrace {
    let mut trace = RunTrace::default();
    for _ in 0..rng.bounded(6) {
        match rng.bounded(4) {
            0 => trace.push(TraceEvent::Checkpoint {
                step: rand_value(rng),
                bytes: rand_value(rng),
            }),
            1 => trace.push(TraceEvent::Rollback {
                from_step: rand_value(rng),
                to_step: rand_value(rng),
            }),
            _ => {
                let step = rand_value(rng);
                for _ in 0..rng.bounded(4) {
                    let mut extras = Vec::new();
                    for key in EXTRA_KEYS {
                        if rng.bounded(3) == 0 {
                            extras.push((*key, rand_value(rng)));
                        }
                    }
                    trace.push(TraceEvent::WorkerStep {
                        step,
                        worker: rng.bounded(u64::from(u16::MAX) + 1) as u32,
                        active_vertices: rand_value(rng),
                        messages_in: rand_value(rng),
                        counters: UserCounters {
                            compute_calls: rand_value(rng),
                            scatter_calls: rand_value(rng),
                            messages_sent: rand_value(rng),
                            remote_messages: rand_value(rng),
                            wire_messages: rand_value(rng),
                            bytes_sent: rand_value(rng),
                            warp_invocations: rand_value(rng),
                            warp_suppressions: rand_value(rng),
                        },
                        extras,
                        compute_ns: rand_value(rng),
                    });
                }
                trace.push(TraceEvent::StepEnd {
                    step,
                    sent: rand_value(rng),
                    halted: rng.bounded(2) == 0,
                    compute_ns: rand_value(rng),
                    messaging_ns: rand_value(rng),
                    barrier_ns: rand_value(rng),
                });
            }
        }
    }
    trace
}

/// Every renderer, on a stream the reader accepted.
fn render_all(label: &str, trace: &RunTrace) {
    let _ = tracefmt::render(label, trace, 2);
    let _ = tracefmt::render_balance(label, trace);
    let _ = tracefmt::render_compare((label, trace), (label, &trace.normalized()));
}

#[test]
fn random_traces_round_trip_and_render() {
    let mut rng = SplitMix64::new(0x0007_124C_E001);
    for case in 0..256 {
        let trace = rand_trace(&mut rng);
        let label = format!("random \"{case}\"\t\\");
        assert_round_trips(&trace, &label);
        render_all(&label, &trace);
    }
}

/// The `codec_props.rs` recipe on the trace's text surface: truncations,
/// bit flips, reordered and duplicated lines of valid files are each
/// either read or refused with a message — never a panic — and whatever
/// is read renders.
#[test]
fn malformed_input_never_panics() {
    let mut rng = SplitMix64::new(0x0BAD_7EC5);
    let mut seeds = vec![GOLDEN_JSONL.to_string()];
    seeds.extend((0..8).map(|_| rand_trace(&mut rng).to_jsonl("fuzz")));
    let mut accepted = 0;
    let mut refused = 0;
    let mut feed = |bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes);
        match tracefmt::parse(&text) {
            Ok((label, trace)) => {
                render_all(&label, &trace);
                accepted += 1;
            }
            Err(message) => {
                assert!(!message.is_empty());
                refused += 1;
            }
        }
    };
    for seed in &seeds {
        let bytes = seed.as_bytes();
        let lines: Vec<&str> = seed.lines().collect();
        for _ in 0..40 {
            feed(&bytes[..rng.index(bytes.len() + 1)]);

            let mut flipped = bytes.to_vec();
            flipped[rng.index(bytes.len())] ^= 1 << rng.bounded(8);
            feed(&flipped);

            let mut reordered = lines.clone();
            if lines.len() > 1 {
                let (a, b) = (rng.index(lines.len()), rng.index(lines.len()));
                reordered.swap(a, b);
                feed(reordered.join("\n").as_bytes());
                reordered.insert(a, lines[b]);
                feed(reordered.join("\n").as_bytes());
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} read, {refused} refused"
    );
}
