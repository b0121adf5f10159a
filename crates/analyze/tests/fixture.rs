//! Integration tests: the built `graphite-analyze` binary must flag
//! every seeded violation in the negative fixtures (exit 1) and report
//! the real workspace clean (exit 0).

use std::path::Path;
use std::process::Command;

fn run_analyze(args: &[&str], cwd: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_graphite-analyze"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn graphite-analyze");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn fixture_trips_every_per_file_rule() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = manifest.join("fixtures/violations.rs");
    let (code, text) = run_analyze(&[fixture.to_str().unwrap()], manifest);
    assert_eq!(code, 1, "fixture must fail analysis, output:\n{text}");

    for rule in [
        "no-unwrap",
        "hash-iteration",
        "no-raw-interval",
        "wall-clock",
        "fault-isolation",
        "worker-assignment",
        "determinism-flow",
        "allow-without-reason",
    ] {
        assert!(
            text.contains(&format!("[{rule}]")),
            "missing rule {rule} in:\n{text}"
        );
    }

    // The seeded violations, per rule: 2 unwrap/expect (the reasoned
    // allow is excused; the bare allow suppresses its unwrap but fires
    // allow-without-reason), 2 hash iterations (the shadowing local Vec
    // is pinned NOT to fire), 2 raw interval literals (one split across
    // lines — the old regex missed it), 2 wall-clock hits, 2 cfg-gated
    // fault hooks, 2 worker modulos (one split across lines), 3
    // determinism flows (the allowed one is excused), 2 bad allows.
    assert!(
        text.contains("17 violation(s)"),
        "expected 17 violations in:\n{text}"
    );
    for (rule, want) in [
        ("[no-unwrap]", 2),
        ("[hash-iteration]", 2),
        ("[no-raw-interval]", 2),
        ("[wall-clock]", 2),
        ("[fault-isolation]", 2),
        ("[worker-assignment]", 2),
        ("[determinism-flow]", 3),
        ("[allow-without-reason]", 2),
    ] {
        assert_eq!(
            text.matches(rule).count(),
            want,
            "wrong {rule} count in:\n{text}"
        );
    }

    // The regex scanner's false positive stays fixed: the fn-local
    // `counts` Vec shares its name with a hash field, and must not be
    // reported as hash iteration.
    assert!(
        !text.contains("for c in counts"),
        "local Vec shadowing a hash field was flagged:\n{text}"
    );
}

#[test]
fn json_format_is_machine_readable() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = manifest.join("fixtures/violations.rs");
    let (code, text) = run_analyze(&[fixture.to_str().unwrap(), "--format", "json"], manifest);
    assert_eq!(code, 1);
    assert!(
        text.contains("\"schema\": \"graphite-analyze/1\""),
        "{text}"
    );
    assert!(text.contains("\"deny_count\": 17"), "{text}");
    assert!(text.contains("\"files_scanned\": 1"), "{text}");
    assert!(text.contains("\"rule\": \"no-unwrap\""), "{text}");
    assert!(text.contains("\"severity\": \"deny\""), "{text}");
}

#[test]
fn warn_severity_downgrades_the_exit_code() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = manifest.join("fixtures/violations.rs");
    let mut args = vec![fixture.to_str().unwrap().to_string()];
    for rule in [
        "no-unwrap",
        "hash-iteration",
        "no-raw-interval",
        "wall-clock",
        "fault-isolation",
        "worker-assignment",
        "determinism-flow",
        "allow-without-reason",
    ] {
        args.push("--warn".to_string());
        args.push(rule.to_string());
    }
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (code, text) = run_analyze(&argv, manifest);
    assert_eq!(code, 0, "all-warn run must exit clean, output:\n{text}");
    assert!(text.contains("(warn)"), "{text}");
    assert!(!text.contains("(deny)"), "{text}");
}

#[test]
fn missing_path_is_an_io_error() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (code, text) = run_analyze(&["does/not/exist.rs"], manifest);
    assert_eq!(code, 2, "output:\n{text}");
    assert!(text.contains("no such path"), "{text}");
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, text) = run_analyze(&[], &root);
    assert_eq!(code, 0, "workspace must analyze clean, output:\n{text}");
    assert!(text.contains("clean"), "unexpected output:\n{text}");
}
