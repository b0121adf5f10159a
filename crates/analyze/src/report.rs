//! Rules, severities, violations, and the text / JSON renderers.

use std::fmt;
use std::path::PathBuf;

/// The analysis rules. The first six are the legacy `graphite-lint`
/// rules re-expressed over tokens; the last two are new passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `.unwrap()` / `.expect(` in engine (`bsp`/`icm`) non-test code.
    NoUnwrap,
    /// No iteration over `HashMap`/`HashSet` in engine non-test code.
    HashIteration,
    /// No raw `Interval { .. }` literals outside `tgraph::time`.
    NoRawInterval,
    /// No wall-clock reads outside the blessed timing modules.
    WallClock,
    /// No `cfg`-gating of fault-injection hooks (checked in test code too).
    FaultIsolation,
    /// No ad-hoc `% workers` placement arithmetic outside graphite-part.
    WorkerAssignment,
    /// Every `lint:allow(<rule>)` escape must carry a justification and
    /// name a real rule.
    AllowWithoutReason,
    /// No nondeterministic source (float arithmetic, hash containers,
    /// pointer-address casts) in a function that feeds an order-sensitive
    /// sink (digest, outbox, codec emission, trace sink).
    DeterminismFlow,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::NoUnwrap,
        Rule::HashIteration,
        Rule::NoRawInterval,
        Rule::WallClock,
        Rule::FaultIsolation,
        Rule::WorkerAssignment,
        Rule::AllowWithoutReason,
        Rule::DeterminismFlow,
    ];

    /// The kebab-case rule name used in reports and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::HashIteration => "hash-iteration",
            Rule::NoRawInterval => "no-raw-interval",
            Rule::WallClock => "wall-clock",
            Rule::FaultIsolation => "fault-isolation",
            Rule::WorkerAssignment => "worker-assignment",
            Rule::AllowWithoutReason => "allow-without-reason",
            Rule::DeterminismFlow => "determinism-flow",
        }
    }

    /// Parses a rule name (for `--warn` / `--deny` CLI overrides).
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// One-line description used when a violation has no pass-specific
    /// message.
    pub fn message(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "unwrap()/expect() in engine code: surface failures as typed errors",
            Rule::HashIteration => {
                "iteration over a hash container: hasher order is nondeterministic"
            }
            Rule::NoRawInterval => {
                "raw `Interval { .. }` literal: construct via Interval::new/try_new"
            }
            Rule::WallClock => {
                "wall-clock access outside the blessed timing modules \
                 (bsp::metrics, bsp::trace, bench::timing): route through metrics::now()"
            }
            Rule::FaultIsolation => {
                "cfg-gated fault hook: fault injection is FaultPlan configuration, \
                 active in every build, never a compile-time feature"
            }
            Rule::WorkerAssignment => {
                "ad-hoc `% workers` placement arithmetic: vertex-to-worker \
                 assignment belongs to graphite-part / bsp::partition only"
            }
            Rule::AllowWithoutReason => {
                "lint:allow escape without a justification: every blessed \
                 violation must say why it is safe"
            }
            Rule::DeterminismFlow => {
                "nondeterministic source in a function feeding an \
                 order-sensitive sink (digest / message emission / trace)"
            }
        }
    }

    /// Whether the rule also applies inside `#[cfg(test)]`-gated code.
    /// `fault-isolation` must: a test-gated fault hook is exactly the
    /// leakage it exists to catch. `allow-without-reason` must too: an
    /// unjustified escape in test code is still an unjustified escape.
    pub fn checks_test_code(self) -> bool {
        matches!(self, Rule::FaultIsolation | Rule::AllowWithoutReason)
    }
}

/// How a violation affects the exit code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported and fails the run (exit 1). The default for every rule.
    #[default]
    Deny,
    /// Reported but does not fail the run.
    Warn,
}

impl Severity {
    /// The spelling used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Severity under the active configuration.
    pub severity: Severity,
    /// Pass-specific detail (falls back to [`Rule::message`] when empty).
    pub detail: String,
    /// The offending source line, for context.
    pub snippet: String,
}

impl Violation {
    /// The human-readable message: pass-specific detail if present.
    pub fn message(&self) -> &str {
        if self.detail.is_empty() {
            self.rule.message()
        } else {
            &self.detail
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] ({}) {}\n    {}",
            self.path.display(),
            self.line,
            self.rule.name(),
            self.severity.name(),
            self.message(),
            self.snippet.trim()
        )
    }
}

/// The outcome of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Files read and analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into the stable reporting order.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// True when any deny-severity violation is present (exit code 1).
    pub fn has_denials(&self) -> bool {
        self.violations.iter().any(|v| v.severity == Severity::Deny)
    }

    /// Renders the classic text report (one block per violation plus a
    /// summary line — the format the old `graphite-lint` printed).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "graphite-analyze: {} files clean", self.files_scanned);
        } else {
            let _ = writeln!(
                out,
                "graphite-analyze: {} violation(s) in {} files",
                self.violations.len(),
                self.files_scanned
            );
        }
        out
    }

    /// Renders the machine-readable report (`--format json`): schema
    /// `graphite-analyze/1`, one object per violation.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"graphite-analyze/1\",\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"deny_count\": {},",
            self.violations
                .iter()
                .filter(|v| v.severity == Severity::Deny)
                .count()
        );
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
                 \"severity\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"}}",
                escape(&v.path.display().to_string()),
                v.line,
                v.rule.name(),
                v.severity.name(),
                escape(v.message()),
                escape(v.snippet.trim()),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(rule: Rule, severity: Severity) -> Violation {
        Violation {
            path: PathBuf::from("a/b.rs"),
            line: 3,
            rule,
            severity,
            detail: String::new(),
            snippet: "x.unwrap()".into(),
        }
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.name()), Some(rule));
        }
        assert_eq!(Rule::parse("nope"), None);
    }

    #[test]
    fn denials_drive_exit_status() {
        let mut r = Report::default();
        assert!(!r.has_denials());
        r.violations.push(violation(Rule::NoUnwrap, Severity::Warn));
        assert!(!r.has_denials());
        r.violations.push(violation(Rule::NoUnwrap, Severity::Deny));
        assert!(r.has_denials());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        let mut v = violation(Rule::DeterminismFlow, Severity::Deny);
        v.detail = "float \"x\" feeds a digest".into();
        r.violations.push(v);
        let json = r.render_json();
        assert!(json.contains("\"schema\": \"graphite-analyze/1\""));
        assert!(json.contains("\"deny_count\": 1"));
        assert!(json.contains("float \\\"x\\\" feeds a digest"));
        assert!(json.contains("\"rule\": \"determinism-flow\""));
    }

    #[test]
    fn text_report_matches_the_legacy_shape() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        assert!(r.render_text().contains("1 files clean"));
        r.violations.push(violation(Rule::NoUnwrap, Severity::Deny));
        let text = r.render_text();
        assert!(text.contains("[no-unwrap]"));
        assert!(text.contains("1 violation(s) in 1 files"));
    }
}
