//! The suite: every workload in its own process, untraced then traced,
//! collected into one output file; and the `--smoke` schema self-test.

use crate::report::EXACT;
use crate::WORKLOADS;
use graphite_bench::json::Json;
use std::process::{Command, ExitCode};

const MANIFEST: &str = "BENCHMARK.json";

pub fn manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))
}

pub fn declared_run_seconds() -> Option<u64> {
    manifest()
        .ok()?
        .get("run_seconds")?
        .as_f64()
        .map(|s| s as u64)
}

/// `name`s of one of the manifest's lists, with each entry's `unit` (empty
/// for workloads).
pub fn declared(manifest: &Json, list: &str) -> Vec<(String, String)> {
    let entries = manifest.get(list).and_then(Json::as_arr).unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?.to_owned();
            let unit = e
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            Some((name, unit))
        })
        .collect()
}

/// First line of a tool's output, or "unknown" (the checkout the driver
/// measures in is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a child process and returns its record. The
/// child's metric lines go straight to this process's stdout.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    tag: &str,
) -> Result<Json, String> {
    let record = format!(
        "benchmark/out/run-{workload}-t{}{tag}.json",
        u8::from(traced)
    );
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--record", &record]);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {status}",
            u8::from(traced)
        ));
    }
    let text = std::fs::read_to_string(&record).map_err(|e| format!("{record}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{record}: {e}"))
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn emitted(record: &Json) -> Vec<(String, String)> {
    let metrics = record.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            )
        })
        .collect()
}

/// The schema half of `--smoke`: the manifest and the harness must name
/// the same workloads and metrics with the same units, within the
/// contract's limits.
fn schema_errors(manifest: &Json, untraced: &Json, traced: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let lists = [
        (
            "workloads",
            8,
            WORKLOADS
                .iter()
                .map(|w| ((*w).to_owned(), String::new()))
                .collect(),
        ),
        ("end_to_end", 16, emitted(untraced)),
        ("per_layer", 128, emitted(traced)),
    ];
    for (list, limit, emitted) in lists {
        let declared = declared(manifest, list);
        if declared.len() > limit {
            errors.push(format!(
                "{list}: {} entries, the contract allows {limit}",
                declared.len()
            ));
        }
        for (name, unit) in &declared {
            if !name_ok(name) {
                errors.push(format!(
                    "{list}: name {name:?} is outside [A-Za-z0-9_.-]{{1,64}}"
                ));
            }
            match emitted.iter().find(|(n, _)| n == name) {
                None => errors.push(format!("{list}: {name} is declared but not emitted")),
                Some((_, u)) if u != unit => errors.push(format!(
                    "{list}: {name} declared in {unit:?}, emitted in {u:?}"
                )),
                Some(_) => {}
            }
        }
        for (name, _) in &emitted {
            if !declared.iter().any(|(n, _)| n == name) {
                errors.push(format!("{list}: {name} is emitted but not declared"));
            }
        }
    }
    errors
}

pub fn run(
    only: Option<&str>,
    seed: u64,
    seconds: u64,
    smoke: bool,
    out: Option<&str>,
) -> ExitCode {
    let manifest = match manifest() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e} (run from the repository root, or through benchmark/run.sh)");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all("benchmark/out") {
        eprintln!("benchmark/out: {e}");
        return ExitCode::FAILURE;
    }
    let seconds = if smoke { 0 } else { seconds };
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        let pair = child(workload, seed, seconds, false, smoke, "")
            .and_then(|untraced| Ok((untraced, child(workload, seed, seconds, true, smoke, "")?)));
        let (untraced, traced) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        if smoke {
            errors.extend(
                schema_errors(&manifest, &untraced, &traced)
                    .into_iter()
                    .map(|e| format!("{workload}: {e}")),
            );
            // Exact counts must repeat bit for bit on the same seed.
            match child(workload, seed, seconds, true, smoke, "-again") {
                Ok(again) => {
                    for name in EXACT {
                        let (a, b) = (metric(&traced, name), metric(&again, name));
                        if a.is_none() || a.map(f64::to_bits) != b.map(f64::to_bits) {
                            errors.push(format!("{workload}: {name} differs between two runs of seed {seed}: {a:?} vs {b:?}"));
                        }
                    }
                }
                Err(e) => errors.push(e),
            }
        }
        runs.push(untraced);
        runs.push(traced);
    }
    if let Some(path) = out {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let file = Json::Obj(vec![
            (
                "schema".to_owned(),
                Json::Str("graphite-benchmark/1".to_owned()),
            ),
            (
                "commit".to_owned(),
                Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
            ),
            (
                "rustc".to_owned(),
                Json::Str(tool_line("rustc", &["--version"])),
            ),
            ("nproc".to_owned(), Json::Num(nproc as f64)),
            ("seed".to_owned(), Json::Num(seed as f64)),
            ("seconds".to_owned(), Json::Num(seconds as f64)),
            ("smoke".to_owned(), Json::Bool(smoke)),
            ("runs".to_owned(), Json::Arr(runs)),
        ]);
        if let Err(e) = std::fs::write(path, file.to_pretty()) {
            errors.push(format!("{path}: {e}"));
        }
    }
    for e in &errors {
        eprintln!("error: {e}");
    }
    if errors.is_empty() {
        if smoke {
            println!("# smoke: schema self-test and exact-count repeat passed");
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
