//! `graphite-analyze` — token-aware static analysis for the graphite
//! workspace (DESIGN.md §10).
//!
//! The engine is a pipeline: a dependency-free Rust **lexer**
//! ([`lexer`]) producing a line-annotated token stream, a per-file
//! **scope model** ([`scope`]: `#[cfg(test)]` extents, `fn`/`impl`
//! boundaries, `use` resolution, `lint:allow` markers), per-file
//! **rules** ([`rules`]) walking tokens instead of regexes, and one
//! cross-cutting **pass** — determinism-flow ([`flow`]).
//!
//! # Rules
//!
//! | rule | scope (workspace mode) | checks |
//! |------|------------------------|--------|
//! | `no-unwrap` | `bsp`/`icm` src | `.unwrap()` / `.expect(` in engine code |
//! | `hash-iteration` | `bsp`/`icm` src | iteration over `HashMap`/`HashSet` values |
//! | `no-raw-interval` | everywhere but `tgraph::time` | raw `Interval { .. }` literals |
//! | `wall-clock` | everywhere but `bsp::metrics`, `bsp::trace` | `Instant::now()` / `SystemTime::now()` / `std::time` clock imports |
//! | `fault-isolation` | `bsp`/`icm` src, *including* test code | `cfg`-gated fault-injection hooks |
//! | `worker-assignment` | everywhere but `graphite-part`, `bsp::partition` | ad-hoc `% workers` placement arithmetic |
//! | `allow-without-reason` | everywhere, including test code | `lint:allow` escapes with no justification or an unknown rule name |
//! | `determinism-flow` | everywhere | nondeterministic sources (floats, hash containers, pointer addresses) in a fn that feeds an order-sensitive sink (digest, outbox, codec, trace) |
//!
//! A violation line (or the contiguous comment block directly above it)
//! may carry `lint:allow(<rule>) — <reason>` to opt out; the reason is
//! mandatory (`allow-without-reason` fires on bare escapes).
//!
//! The `graphite-analyze` binary scans `src/` plus every
//! `crates/*/src/` with the per-path scoping above; explicit path
//! arguments are scanned with **all** rules active. Exit status: 0 clean,
//! 1 deny-severity violations, 2 on I/O errors.

pub mod flow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

use std::path::{Path, PathBuf};

use report::{Report, Rule, Severity};
use scope::FileModel;

/// One file scheduled for analysis with its active rule set.
pub type FileJob = (PathBuf, Vec<Rule>);

/// The outcome of an [`analyze_files`] run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings and scan counters.
    pub report: Report,
    /// Unreadable files / nonexistent paths (exit code 2 material).
    pub io_errors: Vec<String>,
}

/// Which rules apply to `path` in workspace mode.
pub fn rules_for(path: &Path) -> Vec<Rule> {
    let p = path.to_string_lossy().replace('\\', "/");
    let mut rules = Vec::new();
    if p.contains("crates/bsp/src/") || p.contains("crates/icm/src/") {
        rules.push(Rule::NoUnwrap);
        rules.push(Rule::HashIteration);
        rules.push(Rule::FaultIsolation);
    }
    if !p.ends_with("crates/tgraph/src/time.rs") {
        rules.push(Rule::NoRawInterval);
    }
    // Timing is confined to two blessed modules: bsp::metrics (the one
    // sanctioned clock read, marked with its own lint:allow) and
    // bsp::trace (the span sink that consumes it). Everything else is
    // scanned.
    let timing_module =
        p.ends_with("crates/bsp/src/metrics.rs") || p.ends_with("crates/bsp/src/trace.rs");
    if !timing_module {
        rules.push(Rule::WallClock);
    }
    // Vertex placement is owned by two modules: the graphite-part crate
    // (the strategies) and bsp::partition (the map they produce). A
    // `% workers` anywhere else is a placement decision smuggled past the
    // configured strategy.
    let placement_module =
        p.contains("crates/partition/src/") || p.ends_with("crates/bsp/src/partition.rs");
    if !placement_module {
        rules.push(Rule::WorkerAssignment);
    }
    rules.push(Rule::AllowWithoutReason);
    rules.push(Rule::DeterminismFlow);
    rules
}

/// Collects the workspace file set rooted at `root`: `src/` and every
/// `crates/*/src/` with [`rules_for`] scoping.
pub fn workspace_files(root: &Path) -> Vec<FileJob> {
    let mut files = Vec::new();
    let mut src_roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            src_roots.push(e.path().join("src"));
        }
    }
    for dir in src_roots {
        collect_rs_files(&dir, &mut |p| {
            let rules = rules_for(&p);
            if !rules.is_empty() {
                files.push((p, rules));
            }
        });
    }
    files.sort();
    files
}

/// Collects explicit paths (files or directories) with **all** rules
/// active; nonexistent paths are reported as I/O errors.
pub fn explicit_files(paths: &[PathBuf], io_errors: &mut Vec<String>) -> Vec<FileJob> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut |f| files.push((f, Rule::ALL.to_vec())));
        } else if p.is_file() {
            files.push((p.clone(), Rule::ALL.to_vec()));
        } else {
            io_errors.push(format!("no such path: {}", p.display()));
        }
    }
    files.sort();
    files
}

fn collect_rs_files(dir: &Path, sink: &mut impl FnMut(PathBuf)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(&p, sink);
        } else if p.extension().is_some_and(|x| x == "rs") {
            sink(p);
        }
    }
}

/// Reads, models and analyzes `files` with each file's active rules.
pub fn analyze_files(files: &[FileJob]) -> Analysis {
    let mut analysis = Analysis::default();
    for (path, rules) in files {
        match std::fs::read_to_string(path) {
            Ok(source) => {
                let model = FileModel::build(path.clone(), &source);
                analysis.report.files_scanned += 1;
                analysis
                    .report
                    .violations
                    .extend(rules::check_file(&model, rules));
            }
            Err(e) => analysis
                .io_errors
                .push(format!("cannot read {}: {e}", path.display())),
        }
    }
    analysis.report.sort();
    analysis
}

/// Applies CLI severity overrides (`--warn` / `--deny`) to a report.
pub fn apply_severities(report: &mut Report, overrides: &[(Rule, Severity)]) {
    for v in &mut report.violations {
        if let Some((_, sev)) = overrides.iter().rev().find(|(r, _)| *r == v.rule) {
            v.severity = *sev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scoping_matches_the_policy() {
        let engine = Path::new("crates/bsp/src/engine.rs");
        let r = rules_for(engine);
        assert!(r.contains(&Rule::NoUnwrap));
        assert!(r.contains(&Rule::HashIteration));
        assert!(r.contains(&Rule::FaultIsolation));
        assert!(r.contains(&Rule::WallClock));
        assert!(r.contains(&Rule::DeterminismFlow));

        let time = Path::new("crates/tgraph/src/time.rs");
        assert!(!rules_for(time).contains(&Rule::NoRawInterval));

        for blessed in ["crates/bsp/src/metrics.rs", "crates/bsp/src/trace.rs"] {
            assert!(
                !rules_for(Path::new(blessed)).contains(&Rule::WallClock),
                "{blessed}"
            );
        }
        for placement in [
            "crates/partition/src/strategies.rs",
            "crates/bsp/src/partition.rs",
        ] {
            assert!(
                !rules_for(Path::new(placement)).contains(&Rule::WorkerAssignment),
                "{placement}"
            );
        }
        // The new rules apply everywhere.
        let bench = Path::new("crates/bench/src/tracefmt.rs");
        let r = rules_for(bench);
        assert!(r.contains(&Rule::AllowWithoutReason));
        assert!(r.contains(&Rule::DeterminismFlow));
    }

    #[test]
    fn severity_overrides_apply_last_wins() {
        let mut report = Report {
            files_scanned: 1,
            ..Report::default()
        };
        report.violations.push(report::Violation {
            path: PathBuf::from("a.rs"),
            line: 1,
            rule: Rule::NoUnwrap,
            severity: Severity::Deny,
            detail: String::new(),
            snippet: String::new(),
        });
        apply_severities(
            &mut report,
            &[
                (Rule::NoUnwrap, Severity::Warn),
                (Rule::WallClock, Severity::Deny),
            ],
        );
        assert_eq!(report.violations[0].severity, Severity::Warn);
        assert!(!report.has_denials());
    }
}
