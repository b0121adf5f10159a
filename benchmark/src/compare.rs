//! `compare.sh A.json B.json`: applies each end-to-end metric's bound
//! from `BENCHMARK.json` to two suite output files, one row per
//! (workload, metric). A is the base of every ratio.

use crate::suite::{declared, manifest};
use graphite_bench::json::Json;
use std::process::ExitCode;

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them; 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = values.len();
    if m < 2 {
        return 0.0;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    let median = cut(2);
    if median == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / median.abs()
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The untraced run of `workload` in a suite file.
fn untraced<'a>(file: &'a Json, workload: &str) -> Option<&'a Json> {
    file.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_f64) == Some(0.0)
    })
}

fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn round_spread(run: &Json, metric: &str) -> f64 {
    let rounds = run
        .get("per_round")
        .and_then(|p| p.get(metric))
        .and_then(Json::as_arr);
    let values: Vec<f64> = rounds
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    spread(&values)
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (manifest, a, b) = match (manifest(), load(a_path), load(b_path)) {
        (Ok(m), Ok(a), Ok(b)) => (m, a, b),
        (m, a, b) => {
            for e in [m.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let metrics = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    println!("# A = {a_path} (base of every ratio), B = {b_path}");
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>7} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A", "worse-by", "bound", "spread-A", "spread-B"
    );
    let mut regressed = 0;
    for (workload, _) in declared(&manifest, "workloads") {
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let runs = (untraced(&a, &workload), untraced(&b, &workload));
            let (Some(ra), Some(rb)) = runs else {
                println!("{workload:<12} {name:<14} missing from one file");
                regressed += 1;
                continue;
            };
            let (Some(va), Some(vb)) = (value(ra, name), value(rb, name)) else {
                println!("{workload:<12} {name:<14} missing from one run");
                regressed += 1;
                continue;
            };
            let worse = if lower {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let (sa, sb) = (round_spread(ra, name), round_spread(rb, name));
            let noise = sa.max(sb);
            // A worsening past the bound counts only when it also stands
            // clear of the rounds' own spread; a spread wider than the
            // bound cannot resolve the bound either way.
            let verdict = if worse > bound && worse > noise {
                regressed += 1;
                "regressed"
            } else if noise > bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<12} {name:<14} {va:>12.4} {vb:>12.4} {:>7.3} {:>+8.1}% {:>6.1}% {:>8.1}% {:>8.1}%  {verdict}",
                vb / va,
                worse * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    let failed = |file: &Json| -> f64 {
        let runs = file.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum()
    };
    println!("# failed ops: A {} B {}", failed(&a), failed(&b));
    if regressed > 0 || failed(&b) > failed(&a) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
