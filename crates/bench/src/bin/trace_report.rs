//! `trace_report` — render a `graphite-trace/1` JSONL file as a
//! per-superstep profile, or compare two traces.
//!
//! ```text
//! trace_report TRACE.jsonl [--top K]        per-step profile
//! trace_report TRACE.jsonl --balance        per-worker load shares
//! trace_report A.jsonl B.jsonl              side-by-side comparison
//! ```
//!
//! `--balance` prints each worker's share of active interval-vertices
//! and compute time per superstep plus run totals — the observed-skew
//! view beside `partition_report`'s static estimate (DESIGN.md §13).
//!
//! Produce a trace with e.g.
//! `GRAPHITE_TRACE=full GRAPHITE_TRACE_JSON=trace.jsonl graphite run bfs icm ...`
//! — see EXPERIMENTS.md "Reading a trace" for a worked example.

use graphite_bench::tracefmt;
use graphite_bsp::trace::RunTrace;
use std::process::ExitCode;

fn load(path: &str) -> Result<(String, RunTrace), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    tracefmt::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut top_k = 4usize;
    let mut balance = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                top_k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(top_k)
                    .max(1)
            }
            "--balance" => balance = true,
            "--help" | "-h" => {
                eprintln!("usage: trace_report TRACE.jsonl [SECOND.jsonl] [--top K] [--balance]");
                return ExitCode::SUCCESS;
            }
            _ => paths.push(arg),
        }
    }

    let result = match (paths.as_slice(), balance) {
        ([one], false) => load(one).map(|(label, t)| tracefmt::render(&label, &t, top_k)),
        ([one], true) => load(one).map(|(label, t)| tracefmt::render_balance(&label, &t)),
        ([a, b], false) => load(a).and_then(|(la, ta)| {
            load(b).map(|(lb, tb)| tracefmt::render_compare((&la, &ta), (&lb, &tb)))
        }),
        _ => {
            Err("usage: trace_report TRACE.jsonl [SECOND.jsonl] [--top K] [--balance]".to_string())
        }
    };
    match result {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_report: {e}");
            ExitCode::FAILURE
        }
    }
}
