//! End-to-end tests of the `partition_report` and `trace_report` binaries:
//! the offline partition-quality report must be deterministic (identical
//! inputs → byte-identical output, including each assignment's digest),
//! and the `--balance` trace view must render worker shares.

use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_tgraph::io;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A skew-shaped graph small enough for the test budget.
fn small_skew() -> GenParams {
    GenParams {
        vertices: 80,
        edges: 400,
        snapshots: 24,
        topology: Topology::PowerLaw {
            edges_per_vertex: 5,
        },
        vertex_lifespans: LifespanModel::Bursty {
            heavy_fraction: 0.1,
            heavy_mean: 18.0,
            burst_mean: 2.0,
        },
        edge_lifespans: LifespanModel::Bursty {
            heavy_fraction: 0.1,
            heavy_mean: 14.0,
            burst_mean: 1.5,
        },
        props: PropModel::default(),
        seed: 5,
    }
}

/// A minimal `graphite-trace/1` stream: one superstep over 4 workers with
/// a deliberately skewed compute distribution (worker 0 did ~70 %).
fn synthetic_trace() -> String {
    let mut out = String::from("{\"schema\":\"graphite-trace/1\",\"label\":\"bfs/icm\"}\n");
    for (worker, ns) in [(0u64, 7_000u64), (1, 1_000), (2, 1_000), (3, 1_000)] {
        out.push_str(&format!(
            "{{\"ev\":\"worker_step\",\"step\":1,\"worker\":{worker},\"active\":5,\
             \"msgs_in\":10,\"compute_calls\":5,\"scatter_calls\":3,\"msgs_out\":8,\"remote_msgs\":4,\
             \"wire_msgs\":8,\"bytes_out\":64,\"warp_invocations\":1,\"warp_suppressions\":0,\
             \"compute_ns\":{ns}}}\n"
        ));
    }
    out.push_str(
        "{\"ev\":\"step_end\",\"step\":1,\"sent\":40,\"halted\":true,\
         \"compute_ns\":7000,\"messaging_ns\":100,\"barrier_ns\":10}\n",
    );
    out
}

/// Per-test scratch directory (unique per test name; created fresh).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphite-partrep-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_partition_report"))
        .args(args)
        .output()
        .expect("partition_report spawns")
}

#[test]
fn report_is_deterministic_and_covers_all_strategies() {
    let dir = scratch("det");
    let graph_path = dir.join("skew.tg");
    io::save(&generate(&small_skew()), &graph_path).expect("save graph");

    let args = [graph_path.to_str().expect("utf-8 path"), "--workers", "4"];
    let first = run_report(&args);
    let second = run_report(&args);
    assert!(first.status.success(), "{first:?}");
    assert_eq!(
        first.stdout, second.stdout,
        "identical inputs must produce byte-identical reports"
    );
    let text = String::from_utf8(first.stdout).expect("utf-8 report");
    for strategy in ["hash", "chunked", "ldg", "temporal"] {
        assert!(text.contains(&format!("strategy {strategy}")), "{text}");
    }
    assert!(text.contains("interval_balance"), "{text}");
    assert!(text.contains("est_remote_fraction"), "{text}");
    // Digest lines are 0x-prefixed 16-digit values, one per strategy.
    assert_eq!(text.matches("digest").count(), 4, "{text}");
}

#[test]
fn bad_strategy_and_missing_graph_fail_cleanly() {
    let out = run_report(&["/nonexistent/graph.tg"]);
    assert!(!out.status.success());
    let dir = scratch("bad");
    let graph_path = dir.join("skew.tg");
    io::save(&generate(&small_skew()), &graph_path).expect("save graph");
    let out = run_report(&[
        graph_path.to_str().expect("utf-8 path"),
        "--strategy",
        "metis",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown strategy is a usage error"
    );
}

#[test]
fn trace_report_balance_renders_worker_shares() {
    let dir = scratch("balance");
    let trace_path = dir.join("trace.jsonl");
    std::fs::write(&trace_path, synthetic_trace()).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .args([trace_path.to_str().expect("utf-8 path"), "--balance"])
        .output()
        .expect("trace_report spawns");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(text.contains("balance: bfs/icm"), "{text}");
    // Worker 0 holds 7000 of 10000 compute-ns.
    assert!(text.contains("70.0%"), "{text}");
    assert!(text.contains("run totals:"), "{text}");
}

/// A trace file is outside input: a worker id no engine could have
/// written must be refused by the reader, not used to size a table.
#[test]
fn a_hostile_worker_id_is_a_clean_error_not_an_allocation() {
    let dir = scratch("hostile");
    let trace_path = dir.join("trace.jsonl");
    let hostile = synthetic_trace().replace("\"worker\":3,", "\"worker\":4000000000,");
    std::fs::write(&trace_path, hostile).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .args([trace_path.to_str().expect("utf-8 path"), "--balance"])
        .output()
        .expect("trace_report spawns");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.starts_with("trace_report: "), "{err}");
    assert!(
        err.contains("line 5") && err.contains("\"worker\""),
        "{err}"
    );
}
