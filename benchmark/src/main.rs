//! The repo's one end-to-end benchmark (see `benchmark/README.md`).
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, one process
//! run.sh [--seed N] [--seconds S] [--workload NAME] [--out FILE] [--smoke]
//!                                                           the suite: every workload,
//!                                                           untraced then traced
//! compare.sh A.json B.json                                  bounds from BENCHMARK.json
//! ```
//!
//! One process runs one workload: closed loop, one generator thread, the
//! program under test on `WORKERS` workers. Set-up (inputs from the seed,
//! freeze, engines, warm-up round) is repeated and its median reported;
//! then identical rounds are measured until `--seconds` have been spent;
//! then outputs are checked. With `--trace 1` every other round records
//! spans around the calls into each layer and the layer probes run
//! afterwards; end-to-end metrics only ever come from `--trace 0`.

mod batch;
mod compare;
mod inputs;
mod measure;
mod probes;
mod report;
mod serve;
mod stream;
mod suite;

use graphite_tgraph::graph::{TemporalGraph, VertexId};
use measure::{median, percentile, status_field, Recorder, Round, Tally};
use report::{Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

pub const WORKLOADS: [&str; 4] = ["batch-long", "batch-unit", "serve-mix", "stream-live"];

/// Threads the harness itself runs ops from. The program's own threads
/// (`WORKERS` per run, two serve executors) are the thing measured.
const GENERATOR_THREADS: usize = 1;
/// Share of the measured wall the generator may spend outside program
/// calls before the numbers stop describing the program.
const MAX_GENERATOR_SHARE: f64 = 0.02;

/// `--smoke` runs the same code path at a twentieth of the op counts, on
/// every profile's smallest graph (`scale = 1`): plumbing, not numbers.
pub fn scaled(full: usize, smoke: bool) -> usize {
    if smoke {
        (full / 20).max(1)
    } else {
        full
    }
}

pub fn graph_scale(full: usize, smoke: bool) -> usize {
    if smoke {
        1
    } else {
        full
    }
}

/// One workload as the driver sees it.
pub trait Workload: Sized {
    /// Whether a traced run adds one untimed round with `Recorder::deep`
    /// set, for numbers only the program's own full tracing yields.
    const DEEP_ROUND: bool = false;
    /// Everything `setup_s` covers: inputs from the seed, graph freeze,
    /// engine construction and the warm-up round (whose outputs become the
    /// reference for the checks). Times of single steps go to `times`.
    fn setup(
        name: &'static str,
        seed: u64,
        smoke: bool,
        rec: &mut Recorder,
        times: &mut Tally,
    ) -> Self;
    /// One measured round over the fixed op list.
    fn round(&mut self, rec: &mut Recorder) -> Round;
    /// Ops attempted and failed by the warm-up round.
    fn warmup(&self) -> (u64, u64);
    /// Untimed output checks; returns (attempted, failed).
    fn check(&mut self, rec: &mut Recorder) -> (u64, u64);
    /// Per-layer metrics seen from this workload's call sites.
    fn layers(&self, out: &mut BTreeMap<&'static str, f64>);
    fn graph(&self) -> &Arc<TemporalGraph>;
    fn probe_source(&self) -> VertexId;
    /// Final input sizes, for the hygiene record.
    fn sizes(&self) -> String;
}

pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub record: Option<String>,
}

fn drive<W: Workload>(args: &RunArgs) -> Report {
    let mut rec = Recorder::new();

    let setup_reps = if args.smoke { 1 } else { 3 };
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut setup_times = Vec::with_capacity(setup_reps);
    let mut workload = None;
    for _ in 0..setup_reps {
        drop(workload.take());
        let started = graphite_bsp::metrics::now();
        let mut times = Tally::default();
        workload = Some(W::setup(
            args.workload,
            args.seed,
            args.smoke,
            &mut rec,
            &mut times,
        ));
        setup_s.push(started.elapsed().as_secs_f64());
        setup_times.push(times);
    }
    let mut workload = workload.expect("at least one set-up repetition");
    let (mut attempted, mut failed) = workload.warmup();

    // Measured phase. A traced run alternates untraced and traced rounds
    // of the same op list, so the tracing overhead is measured within one
    // process on one warmed-up state.
    let min_rounds = if args.traced { 4 } else { 3 };
    let budget_ms = args.seconds as f64 * 1e3;
    let mut rounds: Vec<Round> = Vec::new();
    let mut spent_ms = 0.0;
    loop {
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_ms).collect();
        let enough = rounds.len() >= min_rounds || args.smoke && rounds.len() >= 2;
        if enough && spent_ms + median(&walls) / 2.0 > budget_ms {
            break;
        }
        rec.tracing = args.traced && rounds.len() % 2 == 1;
        let round = workload.round(&mut rec);
        spent_ms += round.wall_ms;
        rounds.push(round);
    }
    rec.tracing = args.traced;
    if args.traced && W::DEEP_ROUND {
        rec.deep = true;
        let deep = workload.round(&mut rec);
        rec.deep = false;
        attempted += deep.attempted;
        failed += deep.failed;
    }

    let (check_attempted, check_failed) = workload.check(&mut rec);
    for round in &rounds {
        attempted += round.attempted;
        failed += round.failed;
    }
    attempted += check_attempted;
    failed += check_failed;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let wall: f64 = plain.iter().map(|r| r.wall_ms).sum();
    let generator_share = plain.iter().map(|r| r.wall_ms - r.program_ms).sum::<f64>() / wall;
    let mut hygiene = vec![
        ("nproc", nproc.to_string()),
        ("generator_threads", GENERATOR_THREADS.to_string()),
        ("program_workers", inputs::WORKERS.to_string()),
        ("sizes", workload.sizes()),
        ("rounds", rounds.len().to_string()),
        ("measured_wall_s", format!("{:.3}", spent_ms / 1e3)),
        ("generator_self_time_share", format!("{generator_share:.5}")),
    ];
    let mut correct = failed == 0;
    if GENERATOR_THREADS > nproc {
        hygiene.push((
            "error",
            format!("{GENERATOR_THREADS} generator threads on {nproc} cores"),
        ));
        correct = false;
    }
    if generator_share >= MAX_GENERATOR_SHARE {
        hygiene.push((
            "error",
            format!("generator self time {generator_share:.4} of measured wall"),
        ));
        correct = false;
    }

    let mut metrics = Vec::new();
    let mut per_round = Vec::new();
    if args.traced {
        let mut layers: BTreeMap<&'static str, f64> = Tally::median_of(&setup_times);
        // Only a process's first generate grows the resident set by a
        // whole graph (see `measure::generate_graph`).
        if let Some(&first) = setup_times[0].0.get("tgraph.bytes_per_edge") {
            layers.insert("tgraph.bytes_per_edge", first);
        }
        workload.layers(&mut layers);
        probes::run(
            workload.graph(),
            workload.probe_source(),
            args.seed,
            &mut rec,
            &mut layers,
        );
        let traced: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall_ms)
            .collect();
        let untraced: Vec<f64> = plain.iter().map(|r| r.wall_ms).collect();
        let overhead = (median(&traced) - median(&untraced)) / median(&untraced);
        layers.insert("trace.overhead_share_milli", (overhead * 1000.0).round());
        for (name, unit) in PER_LAYER {
            metrics.push((
                name,
                unit,
                layers
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
            ));
        }
        let path = format!("benchmark/out/trace-{}.jsonl", args.workload);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, rec.to_jsonl()));
        match written {
            Ok(()) => hygiene.push(("spans", path)),
            Err(e) => hygiene.push(("error", format!("{path}: {e}"))),
        }
        let self_times: Vec<String> = rec
            .self_time_by_name()
            .iter()
            .take(6)
            .map(|(name, ns, n)| format!("{name}={:.1}ms/{n}", *ns as f64 / 1e6))
            .collect();
        hygiene.push(("self_time_top", self_times.join(" ")));
    } else {
        let ops = plain.first().map_or(0, |r| r.attempted) as f64;
        let walls: Vec<f64> = plain.iter().map(|r| r.wall_ms).collect();
        let latencies: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let cpu: f64 = plain.iter().map(|r| r.cpu_ms).sum();
        let values = [
            median(&setup_s),
            ops * 1e3 / median(&walls),
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
            cpu / (ops * plain.len() as f64),
            status_field("VmHWM") / 1024.0,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, value));
        }
        hygiene.push(("latency_samples", latencies.len().to_string()));
        per_round = vec![
            ("setup_s", setup_s),
            ("ops_per_s", walls.iter().map(|w| ops * 1e3 / w).collect()),
            (
                "lat_p50_ms",
                plain
                    .iter()
                    .map(|r| percentile(&r.latencies_ms, 0.5))
                    .collect(),
            ),
            (
                "lat_p90_ms",
                plain
                    .iter()
                    .map(|r| percentile(&r.latencies_ms, 0.9))
                    .collect(),
            ),
            (
                "cpu_ms_per_op",
                plain.iter().map(|r| r.cpu_ms / ops).collect(),
            ),
        ];
    }

    Report {
        workload: args.workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        correct,
        attempted,
        failed,
        metrics,
        per_round,
        hygiene,
    }
}

/// `--write-pins`: one set-up of a batch workload, whose warm-up digests
/// become its pin file.
fn write_pins(workload: &'static str, seed: u64, smoke: bool) -> ExitCode {
    let mut rec = Recorder::new();
    let batch =
        <batch::Batch as Workload>::setup(workload, seed, smoke, &mut rec, &mut Tally::default());
    match batch.write_pins() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write pins: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(args: &RunArgs) -> ExitCode {
    // Injected worker panics are part of the serve-mix inputs; keep their
    // messages off stderr and every other panic on it.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let report = match args.workload {
        "batch-long" | "batch-unit" => drive::<batch::Batch>(args),
        "serve-mix" => drive::<serve::Serve>(args),
        _ => drive::<stream::Stream>(args),
    };
    if let Some(path) = &args.record {
        if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n       \
         run.sh [--seed N] [--seconds S] [--workload NAME] [--out FILE] [--smoke]\n       \
         run.sh --workload batch-long|batch-unit --seed N --write-pins [--smoke]\n       \
         compare.sh A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => usage(),
        };
    }
    let mut workload = None;
    let mut seed = 11u64;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut write_pins = false;
    let mut out = None;
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let known = match flag.as_str() {
            "--smoke" => {
                smoke = true;
                true
            }
            "--write-pins" => {
                write_pins = true;
                true
            }
            _ => match (flag.as_str(), it.next().map(String::as_str)) {
                ("--workload", Some(v)) => {
                    workload = WORKLOADS.iter().copied().find(|w| *w == v);
                    workload.is_some()
                }
                ("--seed", Some(v)) => v.parse().map(|v| seed = v).is_ok(),
                ("--seconds", Some(v)) => v.parse().map(|v| seconds = Some(v)).is_ok(),
                ("--trace", Some(v @ ("0" | "1"))) => {
                    trace = Some(v == "1");
                    true
                }
                ("--out", Some(v)) => {
                    out = Some(v.to_owned());
                    true
                }
                // Where the suite tells a child run to leave its record.
                ("--record", Some(v)) => {
                    record = Some(v.to_owned());
                    true
                }
                _ => false,
            },
        };
        if !known {
            return usage();
        }
    }
    let seconds = seconds.unwrap_or_else(|| suite::declared_run_seconds().unwrap_or(10));
    match (workload, trace) {
        (Some(workload), None) if write_pins && workload.starts_with("batch-") => {
            self::write_pins(workload, seed, smoke)
        }
        _ if write_pins => usage(),
        (Some(workload), Some(traced)) => run_one(&RunArgs {
            workload,
            seed,
            seconds,
            traced,
            smoke,
            record,
        }),
        (_, None) => suite::run(workload, seed, seconds, smoke, out.as_deref()),
        (None, Some(_)) => usage(),
    }
}
