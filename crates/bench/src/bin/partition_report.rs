//! `partition_report` — offline partition-quality report and trace-driven
//! rebalancing recommendation (DESIGN.md §13).
//!
//! ```text
//! partition_report GRAPH.tg [--workers N] [--strategy NAME|all]
//!                  [--trace TRACE.jsonl] [--seed N]
//!                  [--emit-assignment FILE]
//! ```
//!
//! Without `--trace`, prints the [`graphite_part::PartitionStats`] quality
//! report of each requested strategy on the graph: balance factor,
//! interval-weighted balance, edge cut, and the estimated cross-worker
//! message fraction.
//!
//! With `--trace`, additionally ingests a `graphite-trace/1` JSONL stream
//! from a prior run (produced via `GRAPHITE_TRACE_JSON`), sums the
//! observed per-worker compute load, and prints the seeded deterministic
//! rebalancing recommendation of [`graphite_part::rebalance()`] — its
//! quality report plus an assignment digest, so two invocations over the
//! same inputs are trivially comparable.
//!
//! `--emit-assignment FILE` writes the recommended placement (the
//! rebalanced map when `--trace` is given, otherwise the first requested
//! strategy's map) in the `ExplicitAssignment` text format, ready to be
//! replayed in a live run via [`PartitionStrategy::Explicit`] — closing
//! the measure → rebalance → run loop.

use graphite_bench::tracefmt;
use graphite_part::{rebalance, stats, ExplicitAssignment, PartitionStrategy};
use graphite_tgraph::graph::TemporalGraph;
use graphite_tgraph::io;
use std::process::ExitCode;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a dense assignment: two maps agree iff the digests agree.
fn assignment_digest(graph: &TemporalGraph, map: &graphite_bsp::partition::PartitionMap) -> u64 {
    let mut bytes = Vec::with_capacity(2 * graph.num_vertices());
    for v in graph.vertex_indices() {
        bytes.extend_from_slice(&(map.worker_of(v) as u16).to_le_bytes());
    }
    fnv1a(&bytes)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: partition_report GRAPH.tg [--workers N] [--strategy \
         hash|chunked|ldg|temporal|all] [--trace TRACE.jsonl] [--seed N] \
         [--emit-assignment FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut workers = 4usize;
    let mut strategy = String::from("all");
    let mut trace: Option<String> = None;
    let mut emit: Option<String> = None;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(w) => workers = w,
                None => return usage(),
            },
            "--strategy" => match args.next() {
                Some(s) => strategy = s,
                None => return usage(),
            },
            "--trace" => match args.next() {
                Some(t) => trace = Some(t),
                None => return usage(),
            },
            "--emit-assignment" => match args.next() {
                Some(f) => emit = Some(f),
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if path.is_none() => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let graph = match io::load(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let strategies: Vec<PartitionStrategy> = if strategy.eq_ignore_ascii_case("all") {
        PartitionStrategy::ALL.to_vec()
    } else {
        match PartitionStrategy::parse(&strategy) {
            Some(s) => vec![s],
            None => {
                eprintln!("unknown partition strategy {strategy:?}");
                return usage();
            }
        }
    };

    let mut first_map = None;
    for s in &strategies {
        let map = match s.build(&graph, workers) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{}: {e}", s.name());
                return ExitCode::FAILURE;
            }
        };
        println!("strategy {}", s.name());
        println!(
            "digest               {:#018x}",
            assignment_digest(&graph, &map)
        );
        print!("{}", stats(&graph, &map).render());
        println!();
        if first_map.is_none() {
            first_map = Some(map);
        }
    }
    // Without --trace, the emitted assignment is the first strategy's map.
    let mut recommended = first_map;

    if let Some(trace_path) = trace {
        let text = match std::fs::read_to_string(&trace_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (label, trace) = match tracefmt::parse(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("partition_report: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let observed = tracefmt::observed_loads(&trace);
        // The trace was recorded under the *first* requested strategy
        // (hash, unless --strategy narrowed it) — that is the placement
        // whose observed skew we are correcting.
        let current_strategy = strategies.first().cloned().unwrap_or_default();
        let current = match current_strategy.build(&graph, observed.len().max(1)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("current placement: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "rebalance from trace {} ({} worker(s) observed, seed {seed})",
            label,
            observed.len()
        );
        match rebalance(&graph, &current, &observed, workers, seed) {
            Ok(next) => {
                println!("recommended assignment (over {} worker(s)):", workers);
                println!(
                    "digest               {:#018x}",
                    assignment_digest(&graph, &next)
                );
                print!("{}", stats(&graph, &next).render());
                recommended = Some(next);
            }
            Err(e) => {
                eprintln!("rebalance: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(file) = emit {
        let Some(map) = recommended.as_ref() else {
            eprintln!("--emit-assignment: no placement was computed");
            return ExitCode::FAILURE;
        };
        let text = ExplicitAssignment::from_map(&graph, map).to_text();
        if let Err(e) = std::fs::write(&file, text) {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::FAILURE;
        }
        println!("assignment written to {file}");
    }
    ExitCode::SUCCESS
}
