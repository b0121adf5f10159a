//! `partition_report` — offline partition-quality report (DESIGN.md §13).
//!
//! ```text
//! partition_report GRAPH.tg [--workers N] [--strategy NAME|all]
//! ```
//!
//! Prints the [`graphite_part::PartitionStats`] quality report of each
//! requested strategy on the graph: an assignment digest (two invocations
//! over the same inputs are trivially comparable), balance factor,
//! interval-weighted balance, edge cut, and the estimated cross-worker
//! message fraction. The skew a run actually observed is
//! `trace_report --balance`'s view.

use graphite_part::{stats, PartitionStrategy};
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
         hash|chunked|ldg|temporal|all]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut workers = 4usize;
    let mut strategy = String::from("all");
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
    }
    ExitCode::SUCCESS
}
