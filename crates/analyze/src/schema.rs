//! The schema-drift pass: cross-checks producer and consumer key sets.
//!
//! The repo ships one machine-readable format, **`graphite-trace/1`**,
//! whose producers and consumers live in different crates with nothing
//! but convention keeping them aligned. It has two key spaces, one pass
//! each:
//!
//! * **event fields** — `bsp::trace` writes the JSONL event lines;
//!   `bench::tracefmt` parses them.
//! * **`extras` keys** — `TraceSink::add`/`timed` callers (the ICM warp
//!   extras in `icm::engine`, the serving-layer health extras in
//!   `serve::faultdom`, the stream engine's per-batch extras) write the
//!   per-step `extras` object; `bench::tracefmt` reads it.
//!
//! A key written but never read is dead telemetry; a key read but never
//! written is a parser that can only ever see its fallback. Both
//! directions fail here, each reported once per key at the first
//! offending site. Every check only runs when the scanned set contains
//! at least one producer file *and* one consumer file, so scanning a
//! lone fixture never drowns in "never written" noise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lexer::TokKind;
use crate::report::{Rule, Severity, Violation};
use crate::scope::FileModel;

/// One extracted key occurrence: (model index, line, key).
type Site = (usize, usize, String);

/// Runs the pass over every scanned model with `schema-drift` active.
pub fn check(models: &[&FileModel], out: &mut Vec<Violation>) {
    let norm: Vec<String> = models
        .iter()
        .map(|m| m.path.to_string_lossy().replace('\\', "/"))
        .collect();
    let any = |pred: &dyn Fn(&str) -> bool| norm.iter().any(|p| pred(p));

    // trace extras: sink.add/timed keys vs. tracefmt's extras reads.
    let is_extras_producer = |p: &str| {
        p.contains("bsp/src/")
            || p.contains("icm/src/")
            || p.contains("serve/src/")
            || p.contains("stream/src/")
    };
    let is_tracefmt = |p: &str| p.ends_with("tracefmt.rs");
    if any(&is_extras_producer) && any(&is_tracefmt) {
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for (mi, m) in models.iter().enumerate() {
            if is_extras_producer(&norm[mi]) {
                extras_writes(mi, m, &mut producers);
            }
            if is_tracefmt(&norm[mi]) {
                extras_reads(mi, m, &mut consumers);
            }
        }
        drift(
            models,
            out,
            "graphite-trace/1 extras",
            &producers,
            &consumers,
            "bench::tracefmt",
            "any TraceSink producer",
        );
    }

    // trace event fields: bsp::trace's JSON keys vs. tracefmt's reads.
    let is_trace_writer = |p: &str| p.ends_with("bsp/src/trace.rs");
    if any(&is_trace_writer) && any(&is_tracefmt) {
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for (mi, m) in models.iter().enumerate() {
            if is_trace_writer(&norm[mi]) {
                json_keys_in_strings(mi, m, &mut producers);
            }
            if is_tracefmt(&norm[mi]) {
                event_field_reads(mi, m, &mut consumers);
            }
        }
        drift(
            models,
            out,
            "graphite-trace/1 event field",
            &producers,
            &consumers,
            "bench::tracefmt",
            "bsp::trace",
        );
    }
}

/// Reports both drift directions, one violation per key.
fn drift(
    models: &[&FileModel],
    out: &mut Vec<Violation>,
    label: &str,
    producers: &[Site],
    consumers: &[Site],
    consumer_desc: &str,
    producer_desc: &str,
) {
    let first_sites = |sites: &[Site]| {
        let mut map: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (mi, line, key) in sites {
            map.entry(key.clone()).or_insert((*mi, *line));
        }
        map
    };
    let written = first_sites(producers);
    let read = first_sites(consumers);
    for (key, &(mi, line)) in &written {
        if !read.contains_key(key) {
            push(
                models,
                out,
                mi,
                line,
                format!("{label} key \"{key}\" is written here but never read by {consumer_desc}"),
            );
        }
    }
    for (key, &(mi, line)) in &read {
        if !written.contains_key(key) {
            push(
                models,
                out,
                mi,
                line,
                format!("{label} key \"{key}\" is read here but never written by {producer_desc}"),
            );
        }
    }
}

fn push(models: &[&FileModel], out: &mut Vec<Violation>, mi: usize, line: usize, detail: String) {
    let m = models[mi];
    if m.allow_for(Rule::SchemaDrift.name(), line).is_some() {
        return;
    }
    out.push(Violation {
        path: m.path.clone(),
        line,
        rule: Rule::SchemaDrift,
        severity: Severity::Deny,
        detail,
        snippet: m.line_text(line).to_string(),
    });
}

/// A key eligible for schema tracking: a lowercase identifier.
fn ident_like(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// `sink.add("key", …)` / `sink.timed("key", …)` in non-test code, for
/// any receiver whose name contains `sink`.
fn extras_writes(mi: usize, m: &FileModel, out: &mut Vec<Site>) {
    let t = &m.tokens;
    for i in 1..t.len() {
        let recv_is_sink =
            t[i - 1].kind == TokKind::Ident && t[i - 1].text.to_ascii_lowercase().contains("sink");
        if t[i].is_punct(".")
            && recv_is_sink
            && t.get(i + 1)
                .is_some_and(|x| x.is_ident("add") || x.is_ident("timed"))
            && t.get(i + 2).is_some_and(|x| x.is_punct("("))
            && t.get(i + 3).is_some_and(|x| x.is_string())
            && !m.is_test(i + 1)
        {
            let key = &t[i + 3].text;
            if ident_like(key) {
                out.push((mi, t[i + 3].line as usize, key.clone()));
            }
        }
    }
}

/// `get_u64(extras, "key", …)` in non-test code.
fn extras_reads(mi: usize, m: &FileModel, out: &mut Vec<Site>) {
    let t = &m.tokens;
    for i in 0..t.len() {
        if t[i].is_ident("get_u64")
            && t.get(i + 1).is_some_and(|x| x.is_punct("("))
            && t.get(i + 2).is_some_and(|x| x.is_ident("extras"))
            && t.get(i + 3).is_some_and(|x| x.is_punct(","))
            && t.get(i + 4).is_some_and(|x| x.is_string())
            && !m.is_test(i)
        {
            out.push((mi, t[i + 4].line as usize, t[i + 4].text.clone()));
        }
    }
}

/// JSON keys (`\"key\":` or `"key":` patterns) inside non-test string
/// literals — how `bsp::trace` writes its event lines.
fn json_keys_in_strings(mi: usize, m: &FileModel, out: &mut Vec<Site>) {
    for (i, tok) in m.tokens.iter().enumerate() {
        if !tok.is_string() || m.is_test(i) {
            continue;
        }
        for key in extract_json_keys(&tok.text) {
            out.push((mi, tok.line as usize, key));
        }
    }
}

/// Extracts `"key":` / `\"key\":` patterns from string-literal text.
fn extract_json_keys(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let quote_at = |i: usize| -> Option<usize> {
        if b.get(i) == Some(&b'\\') && b.get(i + 1) == Some(&b'"') {
            Some(2)
        } else if b.get(i) == Some(&b'"') {
            Some(1)
        } else {
            None
        }
    };
    let mut i = 0usize;
    while i < b.len() {
        let Some(open) = quote_at(i) else {
            i += 1;
            continue;
        };
        let start = i + open;
        let mut j = start;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j > start {
            if let Some(close) = quote_at(j) {
                if b.get(j + close) == Some(&b':') {
                    out.push(text[start..j].to_string());
                    i = j + close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Event-field reads in `tracefmt`: `get_u64(&ev, "key", …)` with a
/// non-`extras` object, and `recv.get("key")` with a non-`extras`
/// receiver (so `ev.get("extras")` counts as reading the field `extras`,
/// while `get_u64(extras, …)` stays in the extras key space).
fn event_field_reads(mi: usize, m: &FileModel, out: &mut Vec<Site>) {
    let t = &m.tokens;
    for i in 0..t.len() {
        if m.is_test(i) {
            continue;
        }
        if t[i].is_ident("get_u64") && t.get(i + 1).is_some_and(|x| x.is_punct("(")) {
            let mut j = i + 2;
            if t.get(j).is_some_and(|x| x.is_punct("&")) {
                j += 1;
            }
            if t.get(j)
                .is_some_and(|x| x.kind == TokKind::Ident && x.text != "extras")
                && t.get(j + 1).is_some_and(|x| x.is_punct(","))
                && t.get(j + 2).is_some_and(|x| x.is_string())
            {
                out.push((mi, t[j + 2].line as usize, t[j + 2].text.clone()));
            }
        }
        let extras_recv = i > 0 && t[i - 1].is_ident("extras");
        if t[i].is_punct(".")
            && !extras_recv
            && t.get(i + 1).is_some_and(|x| x.is_ident("get"))
            && t.get(i + 2).is_some_and(|x| x.is_punct("("))
            && t.get(i + 3).is_some_and(|x| x.is_string())
        {
            out.push((mi, t[i + 3].line as usize, t[i + 3].text.clone()));
        }
    }
}

/// Convenience for tests and the seeded-drift check: builds models from
/// `(path, source)` pairs and runs only the schema pass.
pub fn check_sources(files: &[(&Path, &str)]) -> Vec<Violation> {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(p, s)| FileModel::build(p.to_path_buf(), s))
        .collect();
    let refs: Vec<&FileModel> = models.iter().collect();
    let mut out = Vec::new();
    check(&refs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const TRACE: &str = "crates/bsp/src/trace.rs";
    const ICM: &str = "crates/icm/src/engine.rs";
    const FMT: &str = "crates/bench/src/tracefmt.rs";

    #[test]
    fn extract_json_keys_handles_escaped_and_raw_quotes() {
        assert_eq!(
            extract_json_keys("{\\\"ev\\\":\\\"worker_step\\\",\\\"step\\\":{step}"),
            vec!["ev", "step"]
        );
        assert_eq!(extract_json_keys("{\"a\":1,\"b\":2}"), vec!["a", "b"]);
        assert!(extract_json_keys("no keys {k} here").is_empty());
    }

    #[test]
    fn extras_drift_both_directions() {
        let icm = r#"fn emit(sink: &mut TraceSink) { sink.add("warp_tuples", 1); sink.add("orphan_key", 2); }"#;
        let fmt = r#"fn parse(extras: &Json, n: usize) {
            let a = get_u64(extras, "warp_tuples", n);
            let b = get_u64(extras, "ghost_key", n);
        }"#;
        let vs = check_sources(&[(Path::new(ICM), icm), (Path::new(FMT), fmt)]);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs
            .iter()
            .any(|v| v.message().contains("orphan_key") && v.message().contains("never read")));
        assert!(vs
            .iter()
            .any(|v| v.message().contains("ghost_key") && v.message().contains("never written")));
    }

    #[test]
    fn matched_extras_are_clean() {
        let icm = r#"fn emit(sink: &mut TraceSink) { sink.add("warp_tuples", 1); }"#;
        let fmt =
            r#"fn parse(extras: &Json, n: usize) { let a = get_u64(extras, "warp_tuples", n); }"#;
        assert!(check_sources(&[(Path::new(ICM), icm), (Path::new(FMT), fmt)]).is_empty());
    }

    #[test]
    fn checks_gate_on_file_presence() {
        // A producer alone: no consumer file scanned, so no drift noise.
        let icm = r#"fn emit(sink: &mut TraceSink) { sink.add("anything", 1); }"#;
        assert!(check_sources(&[(Path::new(ICM), icm)]).is_empty());
    }

    #[test]
    fn event_field_drift_is_caught() {
        let trace =
            r#"fn write(out: &mut String) { out.push_str("{\"step\":1,\"unread_field\":2}"); }"#;
        let fmt = r#"fn parse(ev: &Json, n: usize) { let s = get_u64(&ev, "step", n); }"#;
        let vs = check_sources(&[(Path::new(TRACE), trace), (Path::new(FMT), fmt)]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message().contains("unread_field"));
    }

    #[test]
    fn test_code_strings_do_not_produce_keys() {
        let trace = "fn write(out: &mut String) { out.push_str(\"{\\\"step\\\":1}\"); }\n\
                     #[cfg(test)]\nmod tests {\n fn t() { check(\"{\\\"only_in_test\\\":1}\"); }\n}\n";
        let fmt = r#"fn parse(ev: &Json, n: usize) { let s = get_u64(&ev, "step", n); }"#;
        assert!(check_sources(&[(Path::new(TRACE), trace), (Path::new(FMT), fmt)]).is_empty());
    }

    #[test]
    fn allow_suppresses_a_blessed_drift() {
        let icm = "fn emit(sink: &mut TraceSink) {\n\
                       // lint:allow(schema-drift) — staged for the next tracefmt release\n\
                       sink.add(\"staged_key\", 1);\n\
                   }\n";
        let fmt =
            r#"fn parse(extras: &Json, n: usize) { let _ = get_u64(extras, "staged_key", n); }"#;
        // The producer side is blessed; the consumer still sees the key
        // written, so nothing fires.
        let one_sided = "fn emit(sink: &mut TraceSink) {\n\
                             // lint:allow(schema-drift) — staged for the next tracefmt release\n\
                             sink.add(\"staged_key\", 1);\n\
                         }\n";
        let fmt_without =
            r#"fn parse(extras: &Json, n: usize) { let _ = get_u64(extras, "warp", n); }"#;
        assert!(check_sources(&[(Path::new(ICM), icm), (Path::new(FMT), fmt)]).is_empty());
        let vs = check_sources(&[(Path::new(ICM), one_sided), (Path::new(FMT), fmt_without)]);
        // staged_key's write is blessed; warp's read is not.
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message().contains("warp"));
    }
}
