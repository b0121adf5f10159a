//! Reader and text renderer for `graphite-trace/1` JSONL streams.
//!
//! The schema — event kinds, field names, the extras vocabulary — is
//! owned by `graphite_bsp::trace`; this module is the *consumer*. It
//! lexes a trace file written via `GRAPHITE_TRACE_JSON` (JSON through
//! [`crate::json`]) and hands the named values to
//! [`TraceEvent::from_wire`], so [`parse`] returns the engine's own
//! [`RunTrace`]. The renderers read those events through one borrowed
//! view, [`Step`], and print what the `trace_report` binary shows —
//! per-step phase timings, top-k workers by compute time, the compute
//! skew ratio, the warp amplification factor, and the total of every
//! extras key in the stream (see EXPERIMENTS.md "Reading a trace" for an
//! annotated example).
//!
//! Recovered runs are handled in stream order: replayed supersteps appear
//! again after their `rollback` marker, exactly as executed.

use crate::json::Json;
use graphite_bsp::metrics::UserCounters;
use graphite_bsp::trace::{
    frame_key, is_timing, key, RunTrace, Scalar, TraceEvent, EXTRA_KEYS, TRACE_SCHEMA,
};

/// One completed superstep, borrowed from a stream: the engine emits it
/// as a contiguous run of `worker_step`s closed by a `step_end`, and
/// nothing for a step that failed.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// The step's `worker_step` events, in worker order.
    pub workers: &'a [TraceEvent],
    /// The `step_end` that closed it.
    pub end: &'a TraceEvent,
}

/// Every event of `trace` that is not a `worker_step`, each with the run
/// of `worker_step`s directly before it: a `step_end` with its step's
/// rows, a recovery marker with (in any stream [`parse`] accepts) none.
fn closed(trace: &RunTrace) -> impl Iterator<Item = (&[TraceEvent], &TraceEvent)> + '_ {
    let events = &trace.events;
    let mut start = 0;
    events.iter().enumerate().filter_map(move |(i, event)| {
        if matches!(event, TraceEvent::WorkerStep { .. }) {
            return None;
        }
        let rows = &events[start..i];
        start = i + 1;
        Some((rows, event))
    })
}

/// The completed supersteps of `trace`, in stream order (replayed steps
/// included, mirroring how `RunMetrics` accumulates over a recovered run).
pub fn steps(trace: &RunTrace) -> impl Iterator<Item = Step<'_>> + '_ {
    closed(trace).filter_map(|(workers, end)| {
        matches!(end, TraceEvent::StepEnd { .. }).then_some(Step { workers, end })
    })
}

/// A total that saturates: a trace file is outside input, and 2⁵³-sized
/// values times enough lines would overflow a plain sum.
fn sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

/// Sums one counter over every worker row of every completed step.
pub fn total(trace: &RunTrace, f: impl Fn(&UserCounters) -> u64) -> u64 {
    sum(steps(trace).map(|s| s.total(&f)))
}

fn extra(extras: &[(&'static str, u64)], key: &str) -> u64 {
    sum(extras.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
}

/// The columns the load views read off a `worker_step`:
/// `(worker, active, msgs_in, compute_ns)`.
fn load(row: &TraceEvent) -> (u32, u64, u64, u64) {
    match row {
        TraceEvent::WorkerStep {
            worker,
            active_vertices,
            messages_in,
            compute_ns,
            ..
        } => (*worker, *active_vertices, *messages_in, *compute_ns),
        _ => Default::default(),
    }
}

impl Step<'_> {
    /// The closing barrier's `(step number, slowest compute span)`.
    fn barrier(&self) -> (u64, u64) {
        match self.end {
            TraceEvent::StepEnd {
                step, compute_ns, ..
            } => (*step, *compute_ns),
            _ => Default::default(),
        }
    }

    /// Sums one counter over the step's worker rows.
    pub fn total(&self, f: impl Fn(&UserCounters) -> u64) -> u64 {
        sum(self.workers.iter().map(|w| match w {
            TraceEvent::WorkerStep { counters, .. } => f(counters),
            _ => 0,
        }))
    }

    /// Max-over-mean of the workers' observed loads — compute spans, or
    /// delivered messages when the stream carries no timing (Counters
    /// level). 1.0 means perfectly balanced, `workers.len()` means one
    /// worker did everything, and 1.0 again when there is nothing to
    /// compare.
    pub fn skew(&self) -> f64 {
        let (by_ns, by_msgs): (Vec<u64>, Vec<u64>) = self
            .workers
            .iter()
            .map(load)
            .map(|(_, _, msgs, ns)| (ns, msgs))
            .unzip();
        let loads = if by_ns.iter().any(|&ns| ns > 0) {
            by_ns
        } else {
            by_msgs
        };
        let total = sum(loads.iter().copied());
        if total == 0 {
            return 1.0;
        }
        let max = loads.iter().max().copied().unwrap_or(0);
        max as f64 * loads.len() as f64 / total as f64
    }

    /// Warp amplification: messages presented to compute through warp
    /// tuple groups, over messages delivered. `None` when no messages
    /// arrived or the stream has no warp extras (non-ICM platforms).
    pub fn warp_amplification(&self) -> Option<f64> {
        let group = sum(self.workers.iter().map(|w| match w {
            TraceEvent::WorkerStep { extras, .. } => extra(extras, key::WARP_GROUP_MSGS),
            _ => 0,
        }));
        let msgs = sum(self.workers.iter().map(|w| load(w).2));
        if msgs == 0 || group == 0 {
            return None;
        }
        Some(group as f64 / msgs as f64)
    }
}

/// Largest integer every `f64` up to it carries exactly (2⁵³):
/// `Json::Num` is an `f64`, so a larger number may already have been
/// rounded by the lexer.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// A JSON value as a wire scalar: a bool, or a non-negative integer no
/// larger than [`MAX_EXACT`]. Nothing is coerced.
fn scalar(value: &Json) -> Result<Scalar, String> {
    match value {
        Json::Bool(b) => Ok(Scalar::Flag(*b)),
        Json::Num(v) if *v >= 0.0 && *v <= MAX_EXACT && v.fract() == 0.0 => {
            Ok(Scalar::Int(*v as u64))
        }
        other => Err(format!(
            "expected a bool or a non-negative integer up to 2^53, got {}",
            other.to_pretty().trim_end()
        )),
    }
}

/// One event line → one event: the `ev` member names the kind, `extras`
/// (optional; absent means none) holds the extras, and every other
/// member is a scalar field for [`TraceEvent::from_wire`] to place.
fn event(line: &Json) -> Result<TraceEvent, String> {
    let members = line.as_obj().ok_or("event is not a JSON object")?;
    let mut kind = None;
    let mut scalars = Vec::with_capacity(members.len());
    let mut extras = Vec::new();
    let named = |name: &str, r: Result<Scalar, String>| r.map_err(|e| format!("{name:?}: {e}"));
    for (name, value) in members {
        if name == frame_key::EVENT {
            kind = value.as_str();
        } else if name == frame_key::EXTRAS {
            let keys = value.as_obj().ok_or("\"extras\" is not a JSON object")?;
            for (key, value) in keys {
                match named(key, scalar(value))? {
                    Scalar::Int(v) => extras.push((key.as_str(), v)),
                    Scalar::Flag(_) => return Err(format!("extras key {key:?} is a bool")),
                }
            }
        } else {
            scalars.push((name.as_str(), named(name, scalar(value))?));
        }
    }
    let kind = kind.ok_or_else(|| format!("event carries no {:?} string", frame_key::EVENT))?;
    TraceEvent::from_wire(kind, scalars, extras)
}

/// Parses a `graphite-trace/1` JSONL stream into its label and the
/// engine's own event stream: `parse(&t.to_jsonl(label))` is
/// `Ok((label, t))` for every trace the engine can emit whose values fit
/// 2⁵³.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed JSON, a
/// wrong/missing schema header, and anything the schema does not declare
/// — unknown event kinds, fields or extras keys, a missing field, a
/// value that is not a non-negative integer `f64` carries exactly (or,
/// for `halted`, not a bool), a worker id beyond the engine's width. The
/// schema is versioned precisely so readers can refuse what they do not
/// understand. The stream contract is checked too: `worker_step`s are
/// closed by a `step_end`, never by a marker or the end of the file.
pub fn parse(text: &str) -> Result<(String, RunTrace), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, header)) = lines.next() else {
        return Err("empty trace: no header line".into());
    };
    let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;
    match header.get(frame_key::SCHEMA).and_then(Json::as_str) {
        Some(TRACE_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported schema {other:?}")),
        None => return Err(format!("header carries no {:?} field", frame_key::SCHEMA)),
    }
    let label = header
        .get(frame_key::LABEL)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();

    let mut trace = RunTrace::default();
    let mut open_rows = 0usize;
    for (i, line) in lines {
        let n = i + 1;
        let ev = Json::parse(line)
            .and_then(|json| event(&json))
            .map_err(|e| format!("line {n}: {e}"))?;
        match ev {
            TraceEvent::WorkerStep { .. } => open_rows += 1,
            TraceEvent::StepEnd { .. } => open_rows = 0,
            _ if open_rows > 0 => {
                return Err(format!(
                    "line {n}: {} marker inside a step ({open_rows} worker_step event(s) \
                     not yet closed by a step_end)",
                    ev.kind()
                ));
            }
            _ => {}
        }
        trace.push(ev);
    }
    if open_rows > 0 {
        return Err(format!(
            "{open_rows} trailing worker_step event(s) without a step_end"
        ));
    }
    Ok((label, trace))
}

/// `1234567` → `"1.23ms"` (ns / µs / ms / s, two significant decimals).
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

/// Renders the per-superstep profile: one block per step with phase
/// timings, skew, warp amplification, and the top-`top_k` workers by
/// compute time (by messages in, under Counters-level streams); then the
/// run totals, and the total of every extras key the stream carries, in
/// [`EXTRA_KEYS`] order — which is how the `serve_*` health counters and
/// the `stream_*` batch counters of a `graphite serve` / `graphite
/// stream` trace are read.
pub fn render(label: &str, trace: &RunTrace, top_k: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "trace: {label}");
    for (workers, event) in closed(trace) {
        match event {
            TraceEvent::Checkpoint { step, bytes } => {
                let _ = writeln!(out, "  -- checkpoint after step {step} ({bytes} bytes)");
            }
            TraceEvent::Rollback { from_step, to_step } => {
                let _ = writeln!(
                    out,
                    "  -- ROLLBACK from step {from_step} to step {to_step} (replay follows)"
                );
            }
            TraceEvent::StepEnd {
                step,
                sent,
                halted,
                compute_ns,
                messaging_ns,
                barrier_ns,
            } => {
                let s = Step {
                    workers,
                    end: event,
                };
                let _ = write!(
                    out,
                    "step {:>3}: sent {:>8}  compute {:>9}  messaging {:>9}  barrier {:>9}  skew {:.2}x",
                    step,
                    sent,
                    fmt_ns(*compute_ns),
                    fmt_ns(*messaging_ns),
                    fmt_ns(*barrier_ns),
                    s.skew(),
                );
                match s.warp_amplification() {
                    Some(amp) => {
                        let _ = writeln!(out, "  warp-amp {amp:.2}x");
                    }
                    None => out.push('\n'),
                }
                let mut ranked: Vec<&TraceEvent> = workers.iter().collect();
                ranked.sort_by_key(|w| {
                    let (worker, _, msgs, ns) = load(w);
                    (std::cmp::Reverse(ns.max(msgs)), worker)
                });
                for w in ranked.into_iter().take(top_k) {
                    let TraceEvent::WorkerStep {
                        worker,
                        active_vertices,
                        messages_in,
                        counters,
                        extras,
                        compute_ns,
                        ..
                    } = w
                    else {
                        continue;
                    };
                    let _ = writeln!(
                        out,
                        "    w{:<3} compute {:>9}  active {:>6}  in {:>7}  out {:>7}  \
                         bytes {:>8}  warp {}/{} (sup {})",
                        worker,
                        fmt_ns(*compute_ns),
                        active_vertices,
                        messages_in,
                        counters.messages_sent,
                        counters.bytes_sent,
                        counters.warp_invocations,
                        extra(extras, key::WARP_TUPLES),
                        counters.warp_suppressions,
                    );
                }
                if *halted {
                    let _ = writeln!(out, "  -- halted");
                }
            }
            TraceEvent::WorkerStep { .. } => {}
        }
    }
    let _ = writeln!(
        out,
        "total: {} step(s), {} msgs, {} wire, {} remote, {} bytes, {} compute calls, \
         {} scatter calls",
        steps(trace).count(),
        total(trace, |c| c.messages_sent),
        total(trace, |c| c.wire_messages),
        total(trace, |c| c.remote_messages),
        total(trace, |c| c.bytes_sent),
        total(trace, |c| c.compute_calls),
        total(trace, |c| c.scatter_calls),
    );
    let carried: Vec<(&str, u64)> = trace
        .events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::WorkerStep { extras, .. } => Some(extras),
            _ => None,
        })
        .flatten()
        .copied()
        .collect();
    let mut heading = "extras:\n";
    for key in EXTRA_KEYS {
        if carried.iter().any(|(k, _)| k == key) {
            let value = extra(&carried, key);
            let shown = if is_timing(key) {
                fmt_ns(value)
            } else {
                value.to_string()
            };
            let _ = writeln!(out, "{heading}    {key:<26} {shown:>12}");
            heading = "";
        }
    }
    out
}

/// `100 · part / total`, 0 for an empty total.
fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Renders the placement-balance report (`trace_report --balance`): per
/// superstep, each worker's share of active interval-vertices and of
/// compute time, plus the max-over-mean skew of each. This is the
/// observed-load view beside `partition_report`'s static estimate
/// (DESIGN.md §13): a worker whose compute share persistently exceeds
/// `1/workers` is the skew the temporal-balance strategy exists to
/// remove.
pub fn render_balance(label: &str, trace: &RunTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "balance: {label}");
    let mut totals: Vec<(u32, u64, u64)> = Vec::new(); // (worker, active, compute_ns)
    let write_rows = |out: &mut String, rows: &[(u32, u64, u64)], width: usize| {
        let active_total = sum(rows.iter().map(|r| r.1));
        let ns_total = sum(rows.iter().map(|r| r.2));
        for &(worker, active, ns) in rows {
            let _ = writeln!(
                out,
                "    w{:<3} active {:>width$} ({:>5.1}%)  compute {:>9} ({:>5.1}%)",
                worker,
                active,
                share(active, active_total),
                fmt_ns(ns),
                share(ns, ns_total),
            );
        }
    };
    for s in steps(trace) {
        let step_rows: Vec<(u32, u64, u64)> = s
            .workers
            .iter()
            .map(load)
            .map(|(worker, active, _, ns)| (worker, active, ns))
            .collect();
        let (step, slowest) = s.barrier();
        let _ = writeln!(
            out,
            "step {:>3}: active {:>7}  compute {:>9}  skew {:.2}x",
            step,
            sum(step_rows.iter().map(|r| r.1)),
            fmt_ns(slowest),
            s.skew(),
        );
        write_rows(&mut out, &step_rows, 6);
        for (worker, active, ns) in step_rows {
            match totals.iter_mut().find(|(id, _, _)| *id == worker) {
                Some(t) => {
                    t.1 = t.1.saturating_add(active);
                    t.2 = t.2.saturating_add(ns);
                }
                None => totals.push((worker, active, ns)),
            }
        }
    }
    totals.sort_unstable();
    let _ = writeln!(out, "run totals:");
    write_rows(&mut out, &totals, 7);
    out
}

/// Renders a side-by-side comparison of two traces (e.g. across
/// commits): per stream-ordered step, the deterministic load deltas; any
/// divergence in message counts between two runs of the same workload is
/// a semantic change, not noise.
pub fn render_compare(a: (&str, &RunTrace), b: (&str, &RunTrace)) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "compare: {}  vs  {}", a.0, b.0);
    let (a, b) = (a.1, b.1);
    let (na, nb) = (steps(a).count(), steps(b).count());
    if na != nb {
        let _ = writeln!(out, "step count differs: {na} vs {nb}");
    }
    let delta = |x: u64, y: u64| i128::from(y) - i128::from(x);
    for (x, y) in steps(a).zip(steps(b)) {
        let (msgs_x, msgs_y) = (x.total(|c| c.messages_sent), y.total(|c| c.messages_sent));
        let (bytes_x, bytes_y) = (x.total(|c| c.bytes_sent), y.total(|c| c.bytes_sent));
        let (calls_x, calls_y) = (x.total(|c| c.compute_calls), y.total(|c| c.compute_calls));
        let ((step, slowest_x), (_, slowest_y)) = (x.barrier(), y.barrier());
        let _ = writeln!(
            out,
            "step {:>3}: msgs {:>8} ({:+})  bytes {:>8} ({:+})  calls {:>7} ({:+})  \
             compute {:>9} vs {:>9}",
            step,
            msgs_y,
            delta(msgs_x, msgs_y),
            bytes_y,
            delta(bytes_x, bytes_y),
            calls_y,
            delta(calls_x, calls_y),
            fmt_ns(slowest_x),
            fmt_ns(slowest_y),
        );
    }
    let _ = writeln!(
        out,
        "total msgs: {} vs {} | bytes: {} vs {} | compute calls: {} vs {}",
        total(a, |c| c.messages_sent),
        total(b, |c| c.messages_sent),
        total(a, |c| c.bytes_sent),
        total(b, |c| c.bytes_sent),
        total(a, |c| c.compute_calls),
        total(b, |c| c.compute_calls),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"schema\":\"graphite-trace/1\",\"label\":\"bfs/icm\"}\n";
    const ROW_0: &str = concat!(
        "{\"ev\":\"worker_step\",\"step\":1,\"worker\":0,\"active\":3,\"msgs_in\":6,",
        "\"compute_calls\":4,\"scatter_calls\":2,\"msgs_out\":5,\"remote_msgs\":2,",
        "\"wire_msgs\":3,\"bytes_out\":40,\"warp_invocations\":1,\"warp_suppressions\":0,",
        "\"compute_ns\":3000,\"extras\":{\"warp_tuples\":4,\"warp_group_msgs\":12}}\n",
    );
    const ROW_1: &str = concat!(
        "{\"ev\":\"worker_step\",\"step\":1,\"worker\":1,\"active\":1,\"msgs_in\":2,",
        "\"compute_calls\":1,\"scatter_calls\":1,\"msgs_out\":1,\"remote_msgs\":1,",
        "\"wire_msgs\":1,\"bytes_out\":8,\"warp_invocations\":0,\"warp_suppressions\":1,",
        "\"compute_ns\":1000,\"extras\":{}}\n",
    );
    const END: &str = concat!(
        "{\"ev\":\"step_end\",\"step\":1,\"sent\":6,\"halted\":true,",
        "\"compute_ns\":3000,\"messaging_ns\":500,\"barrier_ns\":100}\n",
    );
    const CHECKPOINT: &str = "{\"ev\":\"checkpoint\",\"step\":1,\"bytes\":128}\n";
    const ROLLBACK: &str = "{\"ev\":\"rollback\",\"from_step\":2,\"to_step\":1}\n";

    /// The engine's order: a step's rows, its barrier, then the markers.
    fn sample() -> String {
        [HEADER, ROW_0, ROW_1, END, CHECKPOINT, ROLLBACK].concat()
    }

    #[test]
    fn parses_the_sample_stream_into_the_engines_events() {
        let (label, trace) = parse(&sample()).expect("sample parses");
        assert_eq!(label, "bfs/icm");
        assert_eq!(trace.to_jsonl(&label), sample(), "parse inverts to_jsonl");
        let all: Vec<Step<'_>> = steps(&trace).collect();
        assert_eq!(all.len(), 1);
        let s = all[0];
        assert_eq!(s.workers.len(), 2);
        assert!(matches!(
            s.end,
            TraceEvent::StepEnd {
                sent: 6,
                halted: true,
                ..
            }
        ));
        assert_eq!(total(&trace, |c| c.messages_sent), 6);
        assert_eq!(total(&trace, |c| c.bytes_sent), 48);
        assert_eq!(total(&trace, |c| c.scatter_calls), 3);
        assert_eq!(s.total(|c| c.warp_suppressions), 1);
        // skew: loads [3000, 1000] → max 3000 * 2 / 4000 = 1.5
        assert!((s.skew() - 1.5).abs() < 1e-9);
        // amplification: 12 group msgs over 8 delivered.
        let amp = s.warp_amplification().expect("has warp extras");
        assert!((amp - 1.5).abs() < 1e-9);
        assert_eq!(
            trace.events[3],
            TraceEvent::Checkpoint {
                step: 1,
                bytes: 128
            }
        );
    }

    #[test]
    fn rejects_wrong_schema_and_unknown_events() {
        assert!(parse("{\"schema\":\"graphite-trace/2\",\"label\":\"x\"}\n")
            .unwrap_err()
            .contains("unsupported schema"));
        let bad = [HEADER, "{\"ev\":\"mystery\"}\n"].concat();
        assert!(parse(&bad).unwrap_err().contains("unknown event"));
        assert!(parse("").unwrap_err().contains("no header"));
    }

    /// `ROW_0` + `END` with one substring of one line replaced, parsed.
    fn mutated(from: &str, to: &str) -> Result<(String, RunTrace), String> {
        assert!(ROW_0.contains(from) ^ END.contains(from), "{from}");
        parse(&[HEADER, &ROW_0.replace(from, to), &END.replace(from, to)].concat())
    }

    #[test]
    fn nothing_is_coerced_and_every_error_names_line_and_key() {
        mutated(
            "\"step\":1,\"worker\"",
            "\"step\":9007199254740992,\"worker\"",
        )
        .expect("2^53 is the largest value the wire carries");
        for (from, to, line, needle) in [
            ("\"active\":3", "\"active\":-3", 2, "\"active\""),
            ("\"active\":3", "\"active\":1.9", 2, "\"active\""),
            ("\"active\":3", "\"active\":1e30", 2, "\"active\""),
            (
                "\"active\":3",
                "\"active\":9007199254740994",
                2,
                "\"active\"",
            ),
            ("\"active\":3", "\"active\":\"3\"", 2, "\"active\""),
            ("\"active\":3,", "", 2, "missing field \"active\""),
            (
                "\"active\":3",
                "\"active\":3,\"idle\":1",
                2,
                "no field \"idle\"",
            ),
            (
                "\"worker\":0",
                "\"worker\":4000000000",
                2,
                "worker-index width",
            ),
            ("\"worker\":0", "\"worker\":65536", 2, "worker-index width"),
            (
                "\"warp_tuples\":4",
                "\"warp_tuple\":4",
                2,
                "undeclared extras key",
            ),
            (
                "\"warp_tuples\":4",
                "\"warp_tuples\":-4",
                2,
                "\"warp_tuples\"",
            ),
            ("\"halted\":true,", "", 3, "missing field \"halted\""),
            ("\"halted\":true", "\"halted\":1", 3, "expected a bool"),
            ("\"sent\":6", "\"sent\":true", 3, "expected an integer"),
        ] {
            let err = mutated(from, to).expect_err(to);
            assert!(err.starts_with(&format!("line {line}: ")), "{to}: {err}");
            assert!(err.contains(needle), "{to}: {err}");
        }
    }

    #[test]
    fn a_step_is_closed_by_its_step_end_and_nothing_else() {
        let inside = [HEADER, ROW_0, CHECKPOINT, ROW_1, END].concat();
        let err = parse(&inside).unwrap_err();
        assert!(
            err.contains("line 3: checkpoint marker inside a step"),
            "{err}"
        );
        let open = [HEADER, ROW_0, ROW_1].concat();
        assert!(parse(&open).unwrap_err().contains("2 trailing worker_step"));
        // A worker_step without an extras member has none.
        let bare = ROW_1.replace(",\"extras\":{}", "");
        let (_, trace) = parse(&[HEADER, &bare, END].concat()).expect("extras are optional");
        assert_eq!(trace.to_jsonl("bfs/icm"), [HEADER, ROW_1, END].concat());
    }

    #[test]
    fn renders_a_report_with_markers_and_extras_totals() {
        let (label, trace) = parse(&sample()).expect("sample parses");
        let report = render(&label, &trace, 4);
        assert!(report.contains("trace: bfs/icm"));
        assert!(report.contains("step   1"));
        assert!(report.contains("skew 1.50x"));
        assert!(report.contains("warp-amp 1.50x"));
        assert!(report.contains("checkpoint after step 1"));
        assert!(report.contains("ROLLBACK from step 2 to step 1"));
        assert!(report.contains("-- halted"));
        assert!(report.contains("total: 1 step(s), 6 msgs, 4 wire"));
        let extras = report.split("extras:\n").nth(1).expect("extras section");
        let rows: Vec<Vec<&str>> = extras
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [["warp_tuples", "4"], ["warp_group_msgs", "12"]],
            "present keys only, summed, in vocabulary order"
        );
        // No extras, no section.
        let (_, plain) = parse(&[HEADER, ROW_1, END].concat()).expect("parses");
        assert!(!render("x", &plain, 4).contains("extras:"));
    }

    #[test]
    fn balance_report_shows_worker_shares() {
        let (label, trace) = parse(&sample()).expect("sample parses");
        let report = render_balance(&label, &trace);
        assert!(report.contains("balance: bfs/icm"));
        // Worker 0: 3 of 4 active (75 %), 3000 of 4000 compute-ns (75 %).
        assert!(report.contains("w0"), "{report}");
        assert!(report.contains("75.0%"), "{report}");
        assert!(report.contains("25.0%"), "{report}");
        assert!(report.contains("run totals:"), "{report}");
        assert!(report.contains("skew 1.50x"), "{report}");
    }

    #[test]
    fn compare_reports_deltas() {
        let (label, trace) = parse(&sample()).expect("parses");
        let cmp = render_compare((&label, &trace), (&label, &trace));
        assert!(cmp.contains("(+0)"));
        assert!(cmp.contains("total msgs: 6 vs 6"));
    }

    #[test]
    fn formats_durations() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_250_000), "2.25ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
