//! Full-pipeline integration: generate a dataset, persist it through the
//! text format, reload it, and verify the reloaded graph is
//! indistinguishable — same statistics and bit-identical algorithm
//! results — plus failure-surfacing behaviour of the engine.

use graphite::algorithms::registry::{run, Algo, Platform, RunOpts};
use graphite::datagen::{generate, GenParams};
use graphite::tgraph::io;
use graphite::tgraph::stats::dataset_stats;
use std::sync::Arc;

#[test]
fn save_load_round_trip_preserves_results() {
    let g = Arc::new(generate(&GenParams::small(77)));
    let path = std::env::temp_dir().join("graphite_pipeline_test.tg");
    io::save(&g, &path).expect("save");
    let reloaded = Arc::new(io::load(&path).expect("load"));
    std::fs::remove_file(&path).ok();

    // Identical statistics...
    let s1 = dataset_stats(&g, None);
    let s2 = dataset_stats(&reloaded, None);
    assert_eq!(s1.interval, s2.interval);
    assert_eq!(s1.multi_snapshot, s2.multi_snapshot);
    assert_eq!(s1.transformed, s2.transformed);

    // ...and identical algorithm outcomes across TI and TD.
    let opts = RunOpts {
        workers: 2,
        ..Default::default()
    };
    for algo in [Algo::Bfs, Algo::Wcc, Algo::Sssp, Algo::Tc] {
        let a = run(algo, Platform::Icm, &g, None, &opts).unwrap();
        let b = run(algo, Platform::Icm, &reloaded, None, &opts).unwrap();
        assert_eq!(a.digest, b.digest, "{algo:?}");
        assert_eq!(
            a.metrics.counters.compute_calls, b.metrics.counters.compute_calls,
            "{algo:?}"
        );
        // The sender-side fold ships fewer messages than scatter emits
        // for WCC's exact min, and every one of TC's, which does not fold.
        let c = &a.metrics.counters;
        match algo {
            Algo::Wcc => assert!(c.wire_messages < c.messages_sent, "{c:?}"),
            Algo::Tc => assert_eq!(c.wire_messages, c.messages_sent),
            _ => assert!(c.wire_messages <= c.messages_sent, "{algo:?}"),
        }
    }
}

#[test]
fn malformed_files_fail_loudly() {
    let path = std::env::temp_dir().join("graphite_pipeline_bad.tg");
    std::fs::write(&path, "V 1 0 5\nE 1 1 2 0 3\n").unwrap(); // unknown dst vertex
    let err = io::load(&path).unwrap_err();
    assert!(err.to_string().contains("unknown vertex"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A panicking user program fails the whole run with a diagnosable typed
/// error instead of deadlocking the barrier.
#[test]
fn worker_panics_propagate() {
    use graphite::icm::prelude::*;
    use graphite::tgraph::fixtures::transit_graph;

    struct Bomb;
    impl IntervalProgram for Bomb {
        type State = u64;
        type Msg = u64;
        fn init(&self, _v: &VertexContext) -> u64 {
            0
        }
        fn compute(
            &self,
            _ctx: &mut ComputeContext<u64, u64>,
            _t: graphite::tgraph::time::Interval,
            _s: &u64,
            _m: &[u64],
        ) {
            panic!("user logic exploded");
        }
    }

    let err = run_icm(
        &Arc::new(transit_graph()),
        Arc::new(Bomb),
        &IcmConfig::default(),
        None,
    )
    .expect_err("a panicking program must not produce a result");
    assert!(err.to_string().contains("user logic exploded"), "{err}");
}

/// Every CLI flag value is a typed usage error: a malformed or missing
/// value prints usage and exits 2 instead of running with the default,
/// and a worker count above the cap is refused by the one lowering
/// before any run starts. The cap is probed one past it, which would be
/// harmless on this graph if the lowering ever let it through.
#[test]
fn cli_flag_values_are_typed_usage_errors() {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("graphite_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("g.tg");
    let graph = graph.to_str().expect("utf-8 path");
    let cli = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_graphite"))
            .args(args)
            .output()
            .expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };
    let (code, stderr) = cli(&["gen", "reddit", graph, "--stream", "1", "--seed", "3"]);
    assert_eq!(code, Some(0), "{stderr}");
    let updates = format!("{graph}.updates");
    let run = ["run", graph, "--algo", "bfs"];
    let stream = ["stream", graph, &updates];
    for (cmd, flag, value) in [
        (&run[..], "--workers", "abc"),
        (&run[..], "--source", "zz"),
        (&run[..], "--start", "1.5"),
        (&run[..], "--deadline", "soon"),
        (&stream[..], "--workers", "-1"),
        (&stream[..], "--compact-every", "x"),
        (&stream[..], "--check-every", "y"),
    ] {
        let (code, stderr) = cli(&[cmd, &[flag, value]].concat());
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("bad {flag} value")), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    // Flags are parsed before any file is read: a bad value is a usage
    // error even when an input does not exist.
    let missing = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (tg, txt, upd) = (
        missing("missing.tg"),
        missing("missing.txt"),
        missing("missing.updates"),
    );
    for (args, flag) in [
        (
            &["run", &tg, "--algo", "bfs", "--workers", "abc"][..],
            "--workers",
        ),
        (&["serve", graph, &txt, "--retries", "x"], "--retries"),
        (
            &["stream", graph, &upd, "--check-every", "x"],
            "--check-every",
        ),
    ] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("bad {flag} value")), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    let (code, stderr) = cli(&["stream", graph, &upd, "--algo", "bfs,pr"]);
    assert_eq!(
        code,
        Some(2),
        "an algorithm stream cannot maintain: {stderr}"
    );
    assert!(stderr.contains("unknown stream algo \"pr\""), "{stderr}");
    let (code, stderr) = cli(&[&run[..], &["--workers"]].concat());
    assert_eq!(code, Some(2), "a flag without its value: {stderr}");
    let over = (RunOpts::MAX_WORKERS + 1).to_string();
    for cmd in [&run[..], &stream[..]] {
        let (code, stderr) = cli(&[cmd, &["--workers", &over]].concat());
        assert_eq!(code, Some(1), "{stderr}");
        let cap = format!("above the cap of {}", RunOpts::MAX_WORKERS);
        assert!(stderr.contains(&cap), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The worker cap lives in the one lowering every caller shares; it is
/// checked here by lowering only, never by starting a run that wide.
#[test]
fn the_worker_cap_is_checked_by_the_one_lowering() {
    let lowers = |workers| {
        let opts = RunOpts {
            workers,
            ..Default::default()
        };
        (opts.run_config().is_ok(), opts.icm_config().is_ok())
    };
    assert_eq!(lowers(1), (true, true));
    assert_eq!(lowers(RunOpts::MAX_WORKERS), (true, true));
    assert_eq!(lowers(RunOpts::MAX_WORKERS + 1), (false, false));
    assert_eq!(lowers(usize::from(u16::MAX)), (false, false));
}

/// A closed stdout ends a command quietly: `stats` and `run --counts`
/// writing into a pipe whose reader is already gone neither panic nor
/// exit 101.
#[test]
fn a_closed_stdout_is_not_a_crash() {
    use std::process::{Command, Stdio};
    let dir = std::env::temp_dir().join(format!("graphite_cli_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("g.tg");
    io::save(&generate(&GenParams::small(5)), &graph).expect("save");
    let graph = graph.to_str().expect("utf-8 path");
    for args in [
        &["stats", graph][..],
        &["run", graph, "--algo", "bfs", "--counts"],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_graphite"))
            .args(args)
            .stdout(Stdio::from(writer))
            .output()
            .expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    }
    // A closed stderr drops the messages and keeps the command's own exit
    // code: 1 for a failed command, 2 for a usage error.
    let missing = dir.join("missing.tg");
    let missing = missing.to_str().expect("utf-8 path");
    for (args, code) in [
        (&["run", missing, "--algo", "bfs"][..], 1),
        (&["run", graph, "--algo", "bfs", "--workers", "abc"], 2),
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_graphite"))
            .args(args)
            .stderr(Stdio::from(writer))
            .output()
            .expect("the CLI starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("panicked"), "{args:?}: {stdout}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
