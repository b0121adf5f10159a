//! `graphite-analyze` CLI: the workspace's static analysis gate.
//!
//! ```text
//! graphite-analyze [PATHS...] [--format text|json] [--warn RULE] [--deny RULE]
//! ```
//!
//! With no paths, scans the workspace (`src/` + `crates/*/src/`) with
//! per-path rule scoping; explicit paths are scanned with every rule
//! active. Exit status: 0 clean, 1 deny-severity violations found,
//! 2 I/O errors.
//!
//! The rule catalogue and the lexer → scope model → rules → flow passes
//! pipeline are documented on the [`graphite_analyze`] library crate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphite_analyze::report::{Rule, Severity};
use graphite_analyze::{analyze_files, apply_severities, explicit_files, workspace_files};

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut format = Format::Text;
    let mut overrides: Vec<(Rule, Severity)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => return usage(&format!("--format expects text|json, got {other:?}")),
            },
            "--warn" | "--deny" => {
                let sev = if arg == "--warn" {
                    Severity::Warn
                } else {
                    Severity::Deny
                };
                match args.next().as_deref().and_then(Rule::parse) {
                    Some(rule) => overrides.push((rule, sev)),
                    None => return usage(&format!("{arg} expects a rule name")),
                }
            }
            "--help" | "-h" => return usage(""),
            _ if arg.starts_with('-') => return usage(&format!("unknown flag {arg}")),
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let mut io_errors = Vec::new();
    let files = if paths.is_empty() {
        workspace_files(Path::new("."))
    } else {
        explicit_files(&paths, &mut io_errors)
    };
    let mut analysis = analyze_files(&files);
    analysis.io_errors.splice(0..0, io_errors);
    apply_severities(&mut analysis.report, &overrides);

    for e in &analysis.io_errors {
        eprintln!("graphite-analyze: {e}");
    }
    match format {
        Format::Text => print!("{}", analysis.report.render_text()),
        Format::Json => println!("{}", analysis.report.render_json()),
    }
    if !analysis.io_errors.is_empty() {
        ExitCode::from(2)
    } else if analysis.report.has_denials() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("graphite-analyze: {error}");
    }
    eprintln!(
        "usage: graphite-analyze [PATHS...] [--format text|json] [--warn RULE] [--deny RULE]"
    );
    eprintln!(
        "rules: {}",
        Rule::ALL
            .iter()
            .map(|r| r.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}
