//! The per-file rules, re-expressed over the token stream.
//!
//! Each rule walks [`FileModel::tokens`] instead of raw lines, so the
//! regex scanner's false-positive/negative classes are gone by
//! construction: `".unwrap()"` inside a string is a [`TokKind::Str`]
//! token, `HashMap` in a doc comment is not a token at all, and a
//! `% workers` split across lines is two adjacent tokens like any other.

use std::collections::BTreeSet;

use crate::lexer::{TokKind, Token};
use crate::report::{Rule, Severity, Violation};
use crate::scope::{FileModel, FnItem};

/// A raw hit before allow-filtering: rule, 1-based line, detail text.
pub(crate) type Hit = (Rule, usize, String);

/// Identifiers that mark fault-injection hook code.
const FAULT_IDENTS: [&str; 7] = [
    "FaultPlan",
    "FaultInjector",
    "FaultKind",
    "FaultMode",
    "fault_plan",
    "arm_panic",
    "arm_corruption",
];

/// Hash-container iteration methods.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "values",
    "values_mut",
    "keys",
    "drain",
    "into_iter",
    "into_values",
    "into_keys",
];

/// Runs every per-file rule in `rules` over `model` and returns the
/// allow-filtered, deduplicated violations.
pub fn check_file(model: &FileModel, rules: &[Rule]) -> Vec<Violation> {
    let mut hits: Vec<Hit> = Vec::new();
    for &rule in rules {
        match rule {
            Rule::NoUnwrap => no_unwrap(model, &mut hits),
            Rule::HashIteration => hash_iteration(model, &mut hits),
            Rule::NoRawInterval => no_raw_interval(model, &mut hits),
            Rule::WallClock => wall_clock(model, &mut hits),
            Rule::FaultIsolation => fault_isolation(model, &mut hits),
            Rule::WorkerAssignment => worker_assignment(model, &mut hits),
            Rule::AllowWithoutReason => allow_without_reason(model, &mut hits),
            Rule::DeterminismFlow => crate::flow::check(model, &mut hits),
        }
    }
    finalize(model, hits)
}

/// Applies `lint:allow` suppression, dedupes per (rule, line), and
/// attaches snippets.
fn finalize(model: &FileModel, mut hits: Vec<Hit>) -> Vec<Violation> {
    hits.sort_by_key(|h| (h.1, h.0));
    let mut seen: BTreeSet<(Rule, usize)> = BTreeSet::new();
    let mut out = Vec::new();
    for (rule, line, detail) in hits {
        if !seen.insert((rule, line)) {
            continue;
        }
        if model.allow_for(rule.name(), line).is_some() {
            continue;
        }
        out.push(Violation {
            path: model.path.clone(),
            line,
            rule,
            severity: Severity::Deny,
            detail,
            snippet: model.line_text(line).to_string(),
        });
    }
    out
}

/// `.unwrap()` / `.expect(` anywhere in non-test code.
fn no_unwrap(m: &FileModel, hits: &mut Vec<Hit>) {
    let t = &m.tokens;
    for i in 0..t.len() {
        if !t[i].is_punct(".") || m.is_test(i) {
            continue;
        }
        let unwrap = t.get(i + 1).is_some_and(|x| x.is_ident("unwrap"))
            && t.get(i + 2).is_some_and(|x| x.is_punct("("))
            && t.get(i + 3).is_some_and(|x| x.is_punct(")"));
        let expect = t.get(i + 1).is_some_and(|x| x.is_ident("expect"))
            && t.get(i + 2).is_some_and(|x| x.is_punct("("));
        if unwrap || expect {
            hits.push((Rule::NoUnwrap, m.tok_line(i + 1), String::new()));
        }
    }
}

/// `Interval` immediately followed by `{` (struct literal or pattern),
/// except in the type positions that legitimately precede a body brace
/// (`-> Interval {`, `impl [Wire for] Interval {`).
fn no_raw_interval(m: &FileModel, hits: &mut Vec<Hit>) {
    let t = &m.tokens;
    for i in 0..t.len() {
        if !t[i].is_ident("Interval")
            || !t.get(i + 1).is_some_and(|x| x.is_punct("{"))
            || m.is_test(i)
        {
            continue;
        }
        let type_position = i > 0
            && (t[i - 1].is_punct("->") || t[i - 1].is_ident("for") || t[i - 1].is_ident("impl"));
        if !type_position {
            hits.push((Rule::NoRawInterval, m.tok_line(i), String::new()));
        }
    }
}

/// `Instant::now(` / `SystemTime::now(` / a `time::Instant` path, plus
/// `use`-map resolution: a grouped import (`use std::time::{Instant}`)
/// binds the clock type just as surely, even though no `time::Instant`
/// token sequence appears.
fn wall_clock(m: &FileModel, hits: &mut Vec<Hit>) {
    let t = &m.tokens;
    let seq = |i: usize, a: &str, b: &str| {
        t[i].is_ident(a)
            && t.get(i + 1).is_some_and(|x| x.is_punct("::"))
            && t.get(i + 2).is_some_and(|x| x.is_ident(b))
    };
    let mut in_use = false;
    for i in 0..t.len() {
        if t[i].is_ident("use") {
            in_use = true;
        } else if t[i].is_punct(";") {
            in_use = false;
        }
        if m.is_test(i) {
            continue;
        }
        let now_call = (seq(i, "Instant", "now") || seq(i, "SystemTime", "now"))
            && t.get(i + 3).is_some_and(|x| x.is_punct("("));
        let time_path = seq(i, "time", "Instant");
        let grouped_import = in_use
            && t[i].kind == TokKind::Ident
            && matches!(t[i].text.as_str(), "Instant" | "SystemTime")
            && m.use_resolves(&t[i].text, &format!("std::time::{}", t[i].text));
        if now_call || time_path || grouped_import {
            hits.push((Rule::WallClock, m.tok_line(i), String::new()));
        }
    }
}

/// A fault-injection identifier on a line that is conditionally
/// compiled: `cfg!(` on the line itself, or a `#[cfg(` attribute
/// directly above (looking past other attributes, blank lines and
/// comment lines, which is how attribute stacks read). Checked inside
/// test code too — a test-gated hook is exactly the leakage this catches.
fn fault_isolation(m: &FileModel, hits: &mut Vec<Hit>) {
    let t = &m.tokens;
    // First token index on each 1-based line.
    let mut first_on_line = vec![usize::MAX; m.lines.len() + 2];
    for (i, tok) in t.iter().enumerate().rev() {
        if let Some(slot) = first_on_line.get_mut(tok.line as usize) {
            *slot = i;
        }
    }
    let line_has_cfg_bang = |line: usize| {
        t.iter().enumerate().any(|(i, tok)| {
            tok.line as usize == line
                && tok.is_ident("cfg")
                && t.get(i + 1).is_some_and(|x| x.is_punct("!"))
        })
    };
    let cfg_attr_above = |line: usize| {
        let mut l = line;
        while l > 1 {
            l -= 1;
            let first = first_on_line.get(l).copied().unwrap_or(usize::MAX);
            if first == usize::MAX {
                continue; // blank or comment-only line
            }
            let is_attr =
                t[first].is_punct("#") && t.get(first + 1).is_some_and(|x| x.is_punct("["));
            if !is_attr {
                return false;
            }
            if t.get(first + 2).is_some_and(|x| x.is_ident("cfg")) {
                return true;
            }
            // A different attribute: keep looking past the stack.
        }
        false
    };
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for tok in t.iter() {
        if tok.kind != TokKind::Ident || !FAULT_IDENTS.contains(&tok.text.as_str()) {
            continue;
        }
        let line = tok.line as usize;
        if flagged.contains(&line) {
            continue;
        }
        if line_has_cfg_bang(line) || cfg_attr_above(line) {
            flagged.insert(line);
            hits.push((Rule::FaultIsolation, line, String::new()));
        }
    }
}

/// `%`/`%=` whose right operand is a path expression with a segment
/// naming a worker count (`workers`, `n_workers`, `self.workers`, …).
/// Token-based, so the operand may sit on the next line — a class the
/// line scanner missed.
fn worker_assignment(m: &FileModel, hits: &mut Vec<Hit>) {
    let t = &m.tokens;
    for i in 0..t.len() {
        if !(t[i].is_punct("%") || t[i].is_punct("%=")) || m.is_test(i) {
            continue;
        }
        let mut j = i + 1;
        let mut hit = false;
        while let Some(tok) = t.get(j).filter(|x| x.kind == TokKind::Ident) {
            if tok.text == "workers" || tok.text.ends_with("_workers") {
                hit = true;
                break;
            }
            if t.get(j + 1).is_some_and(|x| x.is_punct("."))
                && t.get(j + 2).is_some_and(|x| x.kind == TokKind::Ident)
            {
                j += 2;
            } else {
                break;
            }
        }
        if hit {
            hits.push((Rule::WorkerAssignment, m.tok_line(i), String::new()));
        }
    }
}

/// Every `lint:allow` escape must name a real rule and carry a reason.
fn allow_without_reason(m: &FileModel, hits: &mut Vec<Hit>) {
    for marker in &m.allows {
        match Rule::parse(&marker.rule) {
            None => hits.push((
                Rule::AllowWithoutReason,
                marker.line,
                format!("lint:allow names unknown rule `{}`", marker.rule),
            )),
            Some(rule) if !marker.has_reason => hits.push((
                Rule::AllowWithoutReason,
                marker.line,
                format!(
                    "bare lint:allow({}) with no justification: say why it is safe",
                    rule.name()
                ),
            )),
            Some(_) => {}
        }
    }
}

/// One hash-container binding: where it was declared and whether it is
/// actually a hash container (a non-hash `let` shadows an outer name).
struct HashBinding {
    name: String,
    is_hash: bool,
}

/// Iteration over `HashMap`/`HashSet` values — via an iteration method
/// or as the tail of a `for … in` head. Name resolution is scoped: a
/// file-level field named `counts` is shadowed inside a fn by
/// `let counts: Vec<_> = …`, which the line scanner used to flag.
fn hash_iteration(m: &FileModel, hits: &mut Vec<Hit>) {
    let t = &m.tokens;
    let global = collect_global_hash_names(t);
    let locals: Vec<(usize, Vec<HashBinding>)> = m
        .fns
        .iter()
        .enumerate()
        .map(|(fi, f)| (fi, collect_fn_bindings(t, f)))
        .collect();

    // Is `name` a hash container at token `idx`? `qualified` receivers
    // (`self.name`, `x.name`) are field accesses: locals don't apply.
    let is_hash_at = |name: &str, idx: usize, qualified: bool| -> bool {
        if !qualified {
            // Innermost enclosing fn with a binding for the name wins.
            let mut best: Option<&HashBinding> = None;
            let mut best_start = 0usize;
            for (fi, bindings) in &locals {
                let f = &m.fns[*fi];
                if f.start <= idx && idx <= f.end && f.start >= best_start {
                    if let Some(b) = bindings.iter().find(|b| b.name == name) {
                        best = Some(b);
                        best_start = f.start;
                    }
                }
            }
            if let Some(b) = best {
                return b.is_hash;
            }
        }
        global.contains(name)
    };

    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident || m.is_test(i) {
            continue;
        }
        // `name.iter()`, `self.name.values()`, …
        let method_iter = t.get(i + 1).is_some_and(|x| x.is_punct("."))
            && t.get(i + 2).is_some_and(|x| {
                x.kind == TokKind::Ident && ITER_METHODS.contains(&x.text.as_str())
            })
            && t.get(i + 3).is_some_and(|x| x.is_punct("("));
        if method_iter {
            let qualified = i > 0 && t[i - 1].is_punct(".");
            if is_hash_at(&t[i].text, i, qualified) {
                hits.push((Rule::HashIteration, m.tok_line(i), String::new()));
            }
        }
    }

    // `for x in name {` / `for (k, v) in self.name.clone() {` — direct
    // IntoIterator use of the container in a for-loop head.
    for i in 0..t.len() {
        if !t[i].is_ident("for") || m.is_test(i) {
            continue;
        }
        // `impl A for B` / `for<'a>`: not loops.
        if t.get(i + 1).is_some_and(|x| x.is_punct("<"))
            || (i > 0 && t[i - 1].kind == TokKind::Ident && !t[i - 1].is_ident("in"))
        {
            continue;
        }
        let Some((in_idx, brace_idx)) = for_loop_shape(t, i) else {
            continue;
        };
        // Strip trailing `.clone()` / `.as_ref()` from the iterated expr.
        let mut e = brace_idx - 1;
        while e >= in_idx + 4
            && t[e].is_punct(")")
            && t[e - 1].is_punct("(")
            && matches!(t[e - 2].text.as_str(), "clone" | "as_ref")
            && t[e - 3].is_punct(".")
        {
            e -= 4;
        }
        if t[e].kind != TokKind::Ident || e <= in_idx {
            continue;
        }
        let qualified = t[e - 1].is_punct(".");
        if is_hash_at(&t[e].text, e, qualified) {
            hits.push((Rule::HashIteration, m.tok_line(i), String::new()));
        }
    }
}

/// For a `for` keyword at `i`, the indices of its `in` keyword and the
/// body `{`, when it has the shape of a loop head.
fn for_loop_shape(t: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut in_idx = None;
    while j < t.len() {
        let tok = &t[j];
        if tok.kind == TokKind::Punct {
            match tok.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" => return None,
                "{" if depth == 0 => {
                    return in_idx.map(|k| (k, j));
                }
                _ => {}
            }
        } else if tok.is_ident("in") && depth == 0 && in_idx.is_none() {
            in_idx = Some(j);
        }
        j += 1;
    }
    None
}

/// Names bound to a hash container anywhere in the file: `name: HashMap<…>`
/// (fields, params, typed lets) and `name = HashMap::new()` forms. The
/// path prefix (`std::collections::HashMap`) is skipped structurally.
fn collect_global_hash_names(t: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for k in 0..t.len() {
        if !(t[k].is_ident("HashMap") || t[k].is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `path::to::` prefix.
        let mut j = k;
        while j >= 2 && t[j - 1].is_punct("::") && t[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        let named = match t[j - 1].text.as_str() {
            ":" | "=" if j >= 2 && t[j - 2].kind == TokKind::Ident => Some(&t[j - 2].text),
            _ => None,
        };
        if let Some(n) = named {
            names.insert(n.clone());
        }
    }
    names
}

/// `let` bindings inside one fn body, with their hash-ness: the decl
/// tokens up to the statement end mention `HashMap`/`HashSet` or not.
fn collect_fn_bindings(t: &[Token], f: &FnItem) -> Vec<HashBinding> {
    let mut out = Vec::new();
    let mut i = f.start;
    while i <= f.end && i < t.len() {
        if t[i].is_ident("let") {
            let mut j = i + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = t.get(j).filter(|x| x.kind == TokKind::Ident) {
                let mut is_hash = false;
                let mut depth = 0i32;
                let mut k = j + 1;
                while k <= f.end && k < t.len() {
                    let tok = &t[k];
                    if tok.kind == TokKind::Punct {
                        match tok.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                    } else if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
                        is_hash = true;
                    }
                    k += 1;
                }
                out.push(HashBinding {
                    name: name_tok.text.clone(),
                    is_hash,
                });
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str, rules: &[Rule]) -> Vec<Violation> {
        let m = FileModel::build(PathBuf::from("t.rs"), src);
        check_file(&m, rules)
    }

    fn lines(src: &str, rules: &[Rule]) -> Vec<usize> {
        run(src, rules).into_iter().map(|v| v.line).collect()
    }

    #[test]
    fn unwrap_in_a_string_is_not_a_violation() {
        // The regex scanner's canonical false positive, pinned correct.
        let src = "fn f() { log(\"call .unwrap() here\"); }\n";
        assert!(lines(src, &[Rule::NoUnwrap]).is_empty());
        let hit = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(lines(hit, &[Rule::NoUnwrap]), vec![1]);
    }

    #[test]
    fn unwrap_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(lines(src, &[Rule::NoUnwrap]).is_empty());
    }

    #[test]
    fn raw_interval_detection_including_multiline() {
        assert_eq!(
            lines(
                "fn f() { let iv = Interval { start: 1, end: 2 }; }",
                &[Rule::NoRawInterval]
            ),
            vec![1]
        );
        // Split across lines: the line scanner missed this (pinned).
        assert_eq!(
            lines(
                "fn f() { let iv = Interval\n{ start: 0, end: 1 }; }",
                &[Rule::NoRawInterval]
            ),
            vec![1]
        );
        for clean in [
            "fn lifespan() -> Interval { body() }",
            "impl Interval { }",
            "impl Wire for Interval { }",
            "fn f() { let x = IntervalPartition { lifespan }; }",
            "fn f() { let iv = Interval::new(1, 2); }",
        ] {
            assert!(lines(clean, &[Rule::NoRawInterval]).is_empty(), "{clean}");
        }
    }

    #[test]
    fn wall_clock_detection() {
        assert_eq!(
            lines("fn f() { let t = Instant::now(); }", &[Rule::WallClock]),
            vec![1]
        );
        assert_eq!(
            lines("use std::time::Instant;", &[Rule::WallClock]),
            vec![1]
        );
        assert_eq!(
            lines("use std::time::{Duration, Instant};", &[Rule::WallClock]),
            vec![1],
            "grouped import resolves through the use-map"
        );
        assert!(lines("use std::time::Duration;", &[Rule::WallClock]).is_empty());
        assert!(
            lines("fn f() { log(\"Instant::now()\"); }", &[Rule::WallClock]).is_empty(),
            "clock reads in strings are not code"
        );
    }

    #[test]
    fn worker_modulo_detection_including_multiline() {
        assert_eq!(
            lines(
                "fn f() { let w = vid % workers; }",
                &[Rule::WorkerAssignment]
            ),
            vec![1]
        );
        assert_eq!(
            lines(
                "fn f() { let w = idx % self.workers; }",
                &[Rule::WorkerAssignment]
            ),
            vec![1]
        );
        assert_eq!(
            lines(
                "fn f() { let w = h % config.workers.max(1); }",
                &[Rule::WorkerAssignment]
            ),
            vec![1]
        );
        assert_eq!(
            lines(
                "fn f() { let w = x % n_workers; }",
                &[Rule::WorkerAssignment]
            ),
            vec![1]
        );
        // Operand on the next line: the line scanner missed this (pinned).
        assert_eq!(
            lines(
                "fn f() { let w = vid %\n    workers; }",
                &[Rule::WorkerAssignment]
            ),
            vec![1]
        );
        assert!(lines("fn f() { let r = i % 7; }", &[Rule::WorkerAssignment]).is_empty());
        assert!(lines("fn f() { let r = a % buckets; }", &[Rule::WorkerAssignment]).is_empty());
        assert!(lines("fn f() { let workers = 4; }", &[Rule::WorkerAssignment]).is_empty());
    }

    #[test]
    fn fault_gating_detection() {
        let gated = "#[cfg(test)]\nfn hook(plan: &FaultPlan) {}\n";
        assert_eq!(lines(gated, &[Rule::FaultIsolation]), vec![2]);
        let stacked =
            "#[cfg(feature = \"faults\")]\n#[inline]\n\nfn fire(i: &mut FaultInjector) {}\n";
        assert_eq!(lines(stacked, &[Rule::FaultIsolation]), vec![4]);
        let inline = "fn f() { let go = cfg!(debug_assertions) && fault_plan.is_some(); }\n";
        assert_eq!(lines(inline, &[Rule::FaultIsolation]), vec![1]);
        let clean =
            "fn run(c: &BspConfig) {\n    let i = FaultInjector::new(c.fault_plan.clone());\n}\n";
        assert!(lines(clean, &[Rule::FaultIsolation]).is_empty());
        let in_test_mod =
            "#[cfg(test)]\nmod tests {\n    use super::*;\n    fn t() { let p = FaultPlan::default(); }\n}\n";
        assert!(
            lines(in_test_mod, &[Rule::FaultIsolation]).is_empty(),
            "a test merely using a fault plan is not a gated hook"
        );
    }

    #[test]
    fn hash_iteration_detection() {
        let src = "struct S { states: HashMap<u32, u32> }\n\
                   impl S {\n\
                       fn bad(&self) { for (k, v) in self.states.clone() { use_it(k, v); } }\n\
                       fn also_bad(&self) { let v: Vec<_> = self.states.iter().collect(); }\n\
                       fn fine(&self, k: u32) { self.states.get(&k); self.states.insert(k, 0); }\n\
                   }\n";
        assert_eq!(lines(src, &[Rule::HashIteration]), vec![3, 4]);
    }

    #[test]
    fn local_vec_shadows_a_hash_field() {
        // The regex scanner flagged this: a fn-local `counts: Vec` shares
        // its name with a hash field elsewhere in the file. Pinned fixed.
        let src = "struct S { counts: HashMap<u32, u32> }\n\
                   fn summarize() {\n\
                       let counts: Vec<u64> = Vec::new();\n\
                       for c in counts { eat(c); }\n\
                   }\n";
        assert!(lines(src, &[Rule::HashIteration]).is_empty());
        // But iterating the *field* elsewhere still fires.
        let field = "struct S { counts: HashMap<u32, u32> }\n\
                     impl S { fn f(&self) { for c in self.counts.clone() { eat(c); } } }\n";
        assert_eq!(lines(field, &[Rule::HashIteration]), vec![2]);
    }

    #[test]
    fn hashmap_in_doc_comment_is_invisible() {
        let src = "/// Iterates a HashMap: for x in counts.iter() etc.\n\
                   fn f(counts: &[u32]) { for c in counts { eat(c); } }\n";
        assert!(lines(src, &[Rule::HashIteration]).is_empty());
    }

    #[test]
    fn allow_suppresses_and_meta_rule_fires_on_bare_allows() {
        let justified =
            "fn f() { x.unwrap(); } // lint:allow(no-unwrap) — startup path, cannot fail\n";
        assert!(run(justified, &[Rule::NoUnwrap, Rule::AllowWithoutReason]).is_empty());
        let bare = "fn f() { x.unwrap(); } // lint:allow(no-unwrap)\n";
        let vs = run(bare, &[Rule::NoUnwrap, Rule::AllowWithoutReason]);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::AllowWithoutReason);
        let unknown = "fn f() { g(); } // lint:allow(no-such-rule) — misspelled\n";
        let vs = run(unknown, &[Rule::AllowWithoutReason]);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message().contains("unknown rule"));
    }
}
