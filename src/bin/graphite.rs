//! The `graphite` command-line tool: load a temporal graph from the text
//! format, run any of the twelve algorithms on any platform, and print
//! interval-valued results and run metrics.
//!
//! ```sh
//! graphite stats  <graph.tg>
//! graphite run    <graph.tg> --algo sssp [--platform icm] [--source 0]
//!                 [--workers 4] [--partition hash] [--start 0]
//!                 [--deadline T] [--counts]
//! graphite gen    <profile|ldbc> <out.tg> [--scale 1] [--seed 42]
//! graphite serve  <graph.tg> <batch.txt> [--in-flight 4] [--max-pending 64]
//!                 [--cost-budget N] [--cache 256] [--budget N] [--retries N]
//!                 [--quarantine-after N] [--shed-watermark N] [--status]
//! graphite stream <graph.tg> <graph.tg.updates> [--algo bfs,eat,reach]
//!                 [--source VID] [--start T] [--workers N]
//!                 [--compact-every K] [--check-every K] [--partition hash]
//! ```
//!
//! Every command parses its flags before it reads a file, so a bad flag
//! value is a usage error (exit 2) whether or not the inputs exist.
//!
//! Example session:
//!
//! ```sh
//! cargo run --release --bin graphite -- gen twitter /tmp/tw.tg
//! cargo run --release --bin graphite -- stats /tmp/tw.tg
//! cargo run --release --bin graphite -- run /tmp/tw.tg --algo sssp --counts
//! ```
//!
//! `serve` loads the graph once into a resident engine
//! (`graphite-serve`) and executes the batch file's queries — one per
//! line, `algo platform [key=value ...]`, `#` comments — concurrently
//! against the shared graph, printing one JSON result object per line
//! (JSONL) in batch order. Results are bit-identical at every
//! `--in-flight` level (DESIGN.md §14).
//!
//! Degraded outcomes are part of the serve contract (DESIGN.md §15), not
//! failures: `"status"` is `"rejected"` (admission control), `"shed"`
//! (load shedding at `--shed-watermark`), `"quarantined"` (poison-query
//! quarantine after `--quarantine-after` terminal failures), or
//! `"budget"` (superstep budget exhausted — `--budget` or the cost
//! model's derived ceiling). Each such row carries a structured
//! `"error": {"kind", "query", "detail"}` object. Only `"status":
//! "error"` rows — queries that *terminally failed* after `--retries`
//! serve-level retries — make the process exit non-zero. `--status`
//! appends one health JSONL row with the engine's fault-domain counters,
//! which are also exported as `serve_*` extras on the
//! `graphite-trace/1` stream when `GRAPHITE_TRACE_JSON` is set.
//!
//! `run` honors the tracing environment (EXPERIMENTS.md "Reading a
//! trace"): `GRAPHITE_TRACE=off|counters|full` sets the recording level
//! and `GRAPHITE_TRACE_JSON=<file>` writes the `graphite-trace/1` JSONL
//! stream for `trace_report`. Vertex placement is selected with
//! `--partition hash|chunked|ldg|temporal` (default `hash`, on every
//! platform; results are identical either way — see DESIGN.md §13).
//!
//! Exit codes: 0 on success, 1 when a command fails (an input that does
//! not load, an engine error, a terminally failed serve query), 2 on a
//! usage error, and 141 (128 + `SIGPIPE`, what a shell reports for a
//! tool the signal ends) when stdout closes before the command is done
//! — `graphite run g.tg --algo bfs --counts | head -1` — which ends the
//! command at once and quietly. A closed stderr only drops the messages
//! and changes no exit code. No input makes it panic (exit 101).

#![forbid(unsafe_code)]

use graphite::algorithms::registry::{try_run, Algo, Platform, RunOpts};
use graphite::bsp::trace::{escape_into, TraceConfig};
use graphite::datagen::Profile;
use graphite::part::PartitionStrategy;
use graphite::serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite::tgraph::graph::{TemporalGraph, VertexId};
use graphite::tgraph::io;
use graphite::tgraph::stats::dataset_stats;
use std::cell::Cell;
use std::process::ExitCode;
use std::sync::Arc;

/// The exit code of a command whose stdout closed under it.
const CLOSED_STDOUT: i32 = 141;

/// `println!` for every line the CLI writes to stdout, through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `eprintln!` for every line the CLI writes to stderr, through
/// [`emit_err`].
macro_rules! err {
    ($($arg:tt)*) => {
        emit_err(format_args!($($arg)*))
    };
}

/// Writes one line to stderr. A closed stderr drops the line and the
/// command goes on, so it still ends with its own exit code.
fn emit_err(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// Writes one line to stdout. A closed stdout — the reader of a pipe is
/// gone — ends the process at once with [`CLOSED_STDOUT`] and no
/// message; any other write error ends it with exit 1, naming the error.
fn emit(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let Err(e) = writeln!(std::io::stdout().lock(), "{line}") else {
        return;
    };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(CLOSED_STDOUT);
    }
    err!("cannot write to stdout: {e}");
    std::process::exit(1);
}

fn usage() -> ExitCode {
    err!(
        "usage:\n  graphite stats <graph.tg>\n  graphite run <graph.tg> --algo \
         <bfs|wcc|scc|pr|sssp|eat|fast|ld|tmst|rh|lcc|tc>\n      [--platform icm|msb|chl|tgb|gof] \
         [--source VID] [--workers N]\n      [--partition hash|chunked|ldg|temporal] [--start T] \
         [--deadline T] [--counts]\n  graphite \
         gen <gplus|usrn|reddit|mag|twitter|webuk|skew|ldbc> <out.tg> [--scale N] [--seed \
         N] [--stream B]\n  graphite serve <graph.tg> <batch.txt> [--in-flight N] [--max-pending N] \
         [--cost-budget N] [--cache N]\n      [--budget N] [--retries N] [--quarantine-after N] \
         [--shed-watermark N] [--status]\n  graphite stream <graph.tg> <graph.tg.updates> \
         [--algo bfs,eat,reach] [--source VID] [--start T]\n      [--workers N] [--compact-every K] \
         [--check-every K] [--partition hash|chunked|ldg|temporal]"
    );
    ExitCode::from(2)
}

/// A tiny flag parser: `--name value` pairs after the positional args,
/// and whether any value was bad ([`Flags::opt`]).
struct Flags(Vec<String>, Cell<bool>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value of `--name` parsed as `T`, `None` when the flag is
    /// absent. A missing or malformed value is reported and remembered
    /// ([`Flags::bad`]), so no bad value ever falls back to a default.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.get(name);
        let parsed = raw.and_then(|v| v.parse().ok());
        if self.has(name) && parsed.is_none() {
            err!("bad {name} value {:?}", raw.unwrap_or(""));
            self.1.set(true);
        }
        parsed
    }

    /// Whether some value [`Flags::opt`] parsed was bad: a usage error.
    fn bad(&self) -> bool {
        self.1.get()
    }
}

/// The `--partition` strategy: the default when the flag is absent,
/// `None` (after saying why) when it names no strategy.
fn partition_flag(flags: &Flags) -> Option<PartitionStrategy> {
    let Some(p) = flags.get("--partition") else {
        return Some(PartitionStrategy::default());
    };
    let strategy = PartitionStrategy::parse(p);
    if strategy.is_none() {
        err!("unknown partition strategy {p:?}");
    }
    strategy
}

/// The graph at `path`, `None` (after saying why) when it cannot be
/// loaded. Callers parse their flags first.
fn load_graph(path: &str) -> Option<Arc<TemporalGraph>> {
    match io::load(path) {
        Ok(g) => Some(Arc::new(g)),
        Err(e) => {
            err!("cannot load {path}: {e}");
            None
        }
    }
}

fn cmd_stats(path: &str) -> ExitCode {
    let Some(graph) = load_graph(path) else {
        return ExitCode::FAILURE;
    };
    let s = dataset_stats(&graph, None);
    out!("vertices:            {}", s.interval.vertices);
    out!("edges:               {}", s.interval.edges);
    out!("snapshots:           {}", s.snapshots);
    out!(
        "largest snapshot:    {} vertices, {} edges",
        s.largest_snapshot.vertices,
        s.largest_snapshot.edges
    );
    out!(
        "transformed graph:   {} replicas, {} edges",
        s.transformed.vertices,
        s.transformed.edges
    );
    out!(
        "multi-snapshot size: {} vertices, {} edges (cumulative)",
        s.multi_snapshot.vertices,
        s.multi_snapshot.edges
    );
    out!("avg vertex lifespan: {:.2}", s.avg_vertex_lifespan);
    out!("avg edge lifespan:   {:.2}", s.avg_edge_lifespan);
    out!("avg prop lifespan:   {:.2}", s.avg_property_lifespan);
    ExitCode::SUCCESS
}

fn cmd_run(path: &str, flags: &Flags) -> ExitCode {
    let Some(algo) = flags.get("--algo").and_then(Algo::parse) else {
        err!("missing or unknown --algo");
        return usage();
    };
    let platform = match flags.get("--platform") {
        None => Platform::Icm,
        Some(p) => match Platform::parse(p) {
            Some(p) => p,
            None => {
                err!("unknown platform {p:?}");
                return usage();
            }
        },
    };
    let mut opts = RunOpts::default();
    opts.workers = flags.opt("--workers").unwrap_or(opts.workers);
    opts.source = flags.opt("--source").map(VertexId);
    opts.start = flags.opt("--start").unwrap_or(opts.start);
    opts.deadline = flags.opt("--deadline");
    if flags.bad() {
        return usage();
    }
    opts.digest = false;
    opts.trace = TraceConfig::from_env();
    let Some(partition) = partition_flag(flags) else {
        return usage();
    };
    opts.partition = partition;
    let Some(graph) = load_graph(path) else {
        return ExitCode::FAILURE;
    };

    match try_run(algo, platform, &graph, None, &opts) {
        Ok(outcome) => {
            let m = &outcome.metrics;
            m.trace
                .maybe_emit(&format!("{}/{}", algo.name(), platform.name()));
            out!(
                "{} on {}: makespan {:.2?} ({} supersteps)",
                algo.name(),
                platform.name(),
                m.makespan,
                m.supersteps
            );
            if flags.has("--counts") {
                out!("compute calls:  {}", m.counters.compute_calls);
                out!("scatter calls:  {}", m.counters.scatter_calls);
                out!("messages sent:  {}", m.counters.messages_sent);
                out!("wire messages:  {}", m.counters.wire_messages);
                out!("remote bytes:   {}", m.counters.bytes_sent);
                out!("warp calls:     {}", m.counters.warp_invocations);
                out!("warp suppressed:{}", m.counters.warp_suppressions);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            err!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_profile(name: &str) -> Option<Profile> {
    Some(match name.to_ascii_lowercase().as_str() {
        "gplus" => Profile::GPlus,
        "usrn" => Profile::Usrn,
        "reddit" => Profile::Reddit,
        "mag" => Profile::Mag,
        "twitter" => Profile::Twitter,
        "webuk" => Profile::WebUk,
        "skew" => Profile::Skew,
        _ => return None,
    })
}

fn cmd_gen(profile: &str, out: &str, flags: &Flags) -> ExitCode {
    let scale = flags.opt("--scale").unwrap_or(1);
    let seed = flags.opt("--seed").unwrap_or(42);
    let stream_batches: Option<usize> = flags.opt("--stream");
    if flags.bad() {
        return usage();
    }

    // `--stream N` splits the profile into a mid-horizon base graph plus
    // N update batches (written next to the graph as `<out>.updates`) so
    // `graphite stream` can replay the remaining horizon live.
    if let Some(batches) = stream_batches.filter(|&b| b > 0) {
        let Some(p) = parse_profile(profile) else {
            err!("--stream needs a parameterised profile (not ldbc)");
            return usage();
        };
        let stream = graphite::datagen::derive_update_stream(&p.params(scale, seed), batches);
        if let Err(e) = io::save(&stream.base, out) {
            err!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        let upath = format!("{out}.updates");
        if let Err(e) = graphite::stream::io::save_updates(&stream.batches, &upath) {
            err!("cannot write {upath}: {e}");
            return ExitCode::FAILURE;
        }
        let ops: usize = stream.batches.iter().map(|d| d.len()).sum();
        out!(
            "wrote {out}: {} vertices, {} edges (base)",
            stream.base.num_vertices(),
            stream.base.num_edges()
        );
        out!(
            "wrote {upath}: {batches} batches, {ops} ops, final digest {:#018x}",
            stream.final_digest
        );
        return ExitCode::SUCCESS;
    }

    let graph = match profile.to_ascii_lowercase().as_str() {
        "ldbc" => graphite::datagen::weak_scaling_graph(scale.max(1), 250, seed),
        other => match parse_profile(other) {
            Some(p) => p.generate(scale, seed),
            None => {
                err!("unknown profile {other:?}");
                return usage();
            }
        },
    };
    if let Err(e) = io::save(&graph, out) {
        err!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    out!(
        "wrote {out}: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    ExitCode::SUCCESS
}

fn cmd_stream(path: &str, updates_path: &str, flags: &Flags) -> ExitCode {
    use graphite::stream::prelude::*;

    let source: Option<u64> = flags.opt("--source");
    let start = flags.opt("--start").unwrap_or(0);
    let Some(partition) = partition_flag(flags) else {
        return usage();
    };
    let defaults = StreamConfig::default();
    let cfg = StreamConfig {
        workers: flags.opt("--workers").unwrap_or(defaults.workers),
        compact_every: flags
            .opt("--compact-every")
            .unwrap_or(defaults.compact_every),
        check_every: flags.opt("--check-every").unwrap_or(defaults.check_every),
        partition,
        trace: TraceConfig::from_env(),
        ..defaults
    };
    if flags.bad() {
        return usage();
    }
    // Whether an algorithm streams does not depend on its source, which
    // defaults to the loaded graph's smallest vertex id.
    let streamable = |algo| AlgoSpec::of(algo, VertexId(0), start).is_some();
    let mut algos = Vec::new();
    let algo_list = flags.get("--algo").unwrap_or("bfs,eat,reach");
    for name in algo_list.split(',').filter(|s| !s.is_empty()) {
        let Some(algo) = Algo::parse(name.trim()).filter(|&a| streamable(a)) else {
            err!("unknown stream algo {name:?} (bfs|eat|reach)");
            return usage();
        };
        algos.push(algo);
    }

    let Some(graph) = load_graph(path) else {
        return ExitCode::FAILURE;
    };
    let batches = match load_updates(updates_path) {
        Ok(b) => b,
        Err(e) => {
            err!("cannot load {updates_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match source.map(VertexId) {
        Some(v) => v,
        None => match graph.vertices().map(|(_, v)| v.vid).min() {
            Some(v) => v,
            None => {
                err!("{path}: empty graph");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut engine = StreamEngine::new(graph, cfg);
    for spec in algos
        .into_iter()
        .filter_map(|a| AlgoSpec::of(a, source, start))
    {
        if let Err(e) = engine.register(spec) {
            err!("cannot register {}: {e}", spec.name());
            return ExitCode::FAILURE;
        }
    }

    // One trace frame per batch, accumulated and emitted once at the end:
    // GRAPHITE_TRACE_JSON names a single file, and per-batch emission
    // would leave only the last batch behind.
    let mut trace = graphite::bsp::trace::RunTrace::default();
    for (i, delta) in batches.iter().enumerate() {
        let report = match engine.ingest(delta) {
            Ok(r) => r,
            Err(e) => {
                err!("batch {}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        let algos = report
            .algos
            .iter()
            .map(|a| {
                format!(
                    "{{\"name\": \"{}\", \"digest\": \"{:#018x}\", \
                     \"supersteps\": {}, \"compute_calls\": {}}}",
                    a.name, a.result_digest, a.supersteps, a.compute_calls
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out!(
            "{{\"batch\": {}, \"ops\": {}, \"dirty\": {}, \
             \"graph_digest\": \"{:#018x}\", \"checked\": {}, \"algos\": [{algos}]}}",
            report.batch,
            report.ops,
            report.dirty,
            report.graph_digest,
            report.checked
        );
        trace.events.extend(batch_trace(&report).events);
    }
    trace.maybe_emit("stream");
    err!(
        "ingested {} batches; final graph digest {:#018x}",
        engine.batches(),
        engine.structure_digest()
    );
    ExitCode::SUCCESS
}

fn cmd_serve(path: &str, batch_path: &str, flags: &Flags) -> ExitCode {
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        max_in_flight: flags.opt("--in-flight").unwrap_or(defaults.max_in_flight),
        max_pending: flags.opt("--max-pending").unwrap_or(defaults.max_pending),
        cost_budget: flags.opt("--cost-budget").unwrap_or(defaults.cost_budget),
        cache_capacity: flags.opt("--cache").unwrap_or(defaults.cache_capacity),
        retries: flags.opt("--retries").unwrap_or(defaults.retries),
        quarantine_after: flags
            .opt("--quarantine-after")
            .unwrap_or(defaults.quarantine_after),
        shed_watermark: flags.opt("--shed-watermark").or(defaults.shed_watermark),
        default_budget: flags.opt("--budget").or(defaults.default_budget),
        ..defaults
    };
    if flags.bad() {
        return usage();
    }
    let Some(graph) = load_graph(path) else {
        return ExitCode::FAILURE;
    };
    let batch_text = match std::fs::read_to_string(batch_path) {
        Ok(t) => t,
        Err(e) => {
            err!("cannot read {batch_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = match QuerySpec::parse_batch(&batch_text) {
        Ok(s) => s,
        Err(e) => {
            err!("{batch_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let engine = ServeEngine::new(graph, cfg);
    let results = engine.serve_batch(&specs);
    // Degraded-but-typed outcomes (rejected, shed, quarantined, budget)
    // are part of the serve contract; only terminal execution failures
    // make the process exit non-zero.
    let mut terminal_failures = 0usize;
    for (i, result) in results.iter().enumerate() {
        let spec = &specs[i];
        match result {
            Ok(outcome) => {
                let digest = outcome
                    .digest
                    .map_or_else(|| "null".to_string(), |d| format!("\"{:#018x}\"", d.0));
                out!(
                    "{{\"id\": {i}, \"algo\": \"{}\", \"platform\": \"{}\", \
                     \"status\": \"ok\", \"digest\": {digest}, \"supersteps\": {}, \
                     \"cached\": {}, \"micros\": {}}}",
                    spec.algo.name(),
                    spec.platform.name(),
                    outcome.metrics.supersteps,
                    outcome.cached,
                    outcome.micros
                );
            }
            Err(e) => {
                use graphite::bsp::error::BspError;
                let status = match e {
                    BspError::Admission { .. } => "rejected",
                    BspError::Shed { .. } => "shed",
                    BspError::Quarantined { .. } => "quarantined",
                    BspError::BudgetExceeded { .. } => "budget",
                    _ => {
                        terminal_failures += 1;
                        "error"
                    }
                };
                let mut detail = String::new();
                escape_into(&e.to_string(), &mut detail);
                out!(
                    "{{\"id\": {i}, \"algo\": \"{}\", \"platform\": \"{}\", \
                     \"status\": \"{status}\", \"error\": {{\"kind\": \"{}\", \
                     \"query\": \"{} {}\", \"detail\": \"{}\"}}}}",
                    spec.algo.name(),
                    spec.platform.name(),
                    e.kind(),
                    spec.algo.name(),
                    spec.platform.name(),
                    detail
                );
            }
        }
    }
    let health = engine.health();
    if flags.has("--status") {
        out!(
            "{{\"status\": \"health\", \"retries\": {}, \"recovered\": {}, \
             \"shed\": {}, \"quarantined\": {}, \"budget_exceeded\": {}, \
             \"failed\": {}, \"quarantined_now\": {}}}",
            health.retries,
            health.recovered,
            health.shed,
            health.quarantined,
            health.budget_exceeded,
            health.failed,
            health.quarantined_now
        );
    }
    engine.health_trace().maybe_emit("serve/health");
    let stats = engine.stats();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    err!(
        "served {} queries: {ok} ok, {terminal_failures} errored, {} rejected, \
         {} shed, {} quarantined, {} over budget, {} retried, {} cache hits",
        stats.submitted,
        stats.rejected,
        stats.shed,
        stats.quarantined,
        stats.budget_exceeded,
        stats.retries,
        stats.cache_hits
    );
    if terminal_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = |rest: &[String]| Flags(rest.to_vec(), Cell::new(false));
    match args.as_slice() {
        [cmd, path, rest @ ..] if cmd == "stats" && rest.is_empty() => cmd_stats(path),
        [cmd, path, rest @ ..] if cmd == "run" => cmd_run(path, &flags(rest)),
        [cmd, profile, out, rest @ ..] if cmd == "gen" => cmd_gen(profile, out, &flags(rest)),
        [cmd, path, batch, rest @ ..] if cmd == "serve" => cmd_serve(path, batch, &flags(rest)),
        [cmd, path, updates, rest @ ..] if cmd == "stream" => {
            cmd_stream(path, updates, &flags(rest))
        }
        _ => usage(),
    }
}
