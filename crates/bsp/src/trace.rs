//! Structured superstep tracing: deterministic per-worker span events.
//!
//! The BSP engine already proves *what* a run computed (result digests,
//! deterministic counters); this module records *how*: one
//! [`TraceEvent::WorkerStep`] per worker per superstep (active
//! interval-vertices, messages in/out, bytes, the worker's own
//! [`UserCounters`] delta, operator extras such as warp tuple counts),
//! one [`TraceEvent::StepEnd`] per superstep (phase timings, halt vote),
//! plus [`TraceEvent::Checkpoint`] / [`TraceEvent::Rollback`] markers
//! from the recovery path.
//!
//! Three disciplines keep the trace compatible with the determinism
//! story (DESIGN.md §12):
//!
//! 1. **Content split.** Every field is either *deterministic* (counts,
//!    step/worker ids — bit-identical across schedule perturbations) or
//!    *timing* (`*_ns` fields and `*_ns` extras — wall-clock, never
//!    compared). [`RunTrace::normalized`] zeroes the timing half so
//!    tests can assert stream equality across seeds.
//! 2. **Digest exclusion.** Traces live in
//!    [`RunMetrics`](crate::metrics::RunMetrics) next to the timing
//!    fields and never enter result digests or pinned counter keys.
//! 3. **Clock confinement.** The only clock reads happen in
//!    [`TraceSink::timed`] via [`metrics::now`](crate::metrics::now);
//!    `graphite-analyze` blesses exactly this module, `bsp::metrics`, and
//!    `bench::timing` for wall-clock access.
//!
//! Collection is lock-free: each worker thread owns a [`TraceSink`]
//! (plain `Vec` accumulation, no sharing) that the driver drains at the
//! barrier, between the compute and receive phases, so `TraceLevel::Off`
//! costs one branch per worker per superstep.
//!
//! Serialization is the versioned JSONL schema `graphite-trace/1`
//! ([`RunTrace::to_jsonl`]): a header object naming the schema and run
//! label, then one object per event. `graphite-bench`'s `trace_report`
//! binary renders it as a per-superstep profile.

use crate::metrics::{now, UserCounters};
use std::time::Duration;

/// The JSONL schema identifier emitted in the header line.
pub const TRACE_SCHEMA: &str = "graphite-trace/1";

/// How much the engine records per superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// Record nothing. The engine takes one branch per worker per
    /// superstep and allocates nothing; results are bit-identical to
    /// the other levels.
    #[default]
    Off,
    /// Record deterministic content only: per-worker counts and
    /// checkpoint/rollback markers, with every timing field zero.
    /// Streams are bit-identical across schedule perturbations.
    Counters,
    /// Everything in `Counters` plus wall-clock spans (per-worker
    /// compute time, per-step phase timings, `*_ns` operator extras).
    Full,
}

impl TraceLevel {
    /// Parses the spelling used by the `GRAPHITE_TRACE` environment
    /// variable: `off` / `0`, `counters`, or `full` / `1` (any case).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(TraceLevel::Off),
            "counters" => Some(TraceLevel::Counters),
            "full" | "1" | "on" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// Tracing configuration carried by every engine config
/// (`BspConfig::trace`, `IcmConfig::trace`, `VcmConfig::trace`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Recording level; defaults to [`TraceLevel::Off`].
    pub level: TraceLevel,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig {
            level: TraceLevel::Off,
        }
    }

    /// Deterministic counters only.
    pub fn counters() -> Self {
        TraceConfig {
            level: TraceLevel::Counters,
        }
    }

    /// Counters plus wall-clock spans.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
        }
    }

    /// Reads `GRAPHITE_TRACE` (`off` / `counters` / `full`). When it is
    /// unset, defaults to `full` if `GRAPHITE_TRACE_JSON` names an
    /// output file (asking for a trace file implies wanting one) and
    /// `off` otherwise.
    pub fn from_env() -> Self {
        if let Ok(s) = std::env::var("GRAPHITE_TRACE") {
            if let Some(level) = TraceLevel::parse(&s) {
                return TraceConfig { level };
            }
            eprintln!("trace: unrecognized GRAPHITE_TRACE={s:?}, tracing off");
            return TraceConfig::off();
        }
        match std::env::var("GRAPHITE_TRACE_JSON") {
            Ok(path) if !path.is_empty() => TraceConfig::full(),
            _ => TraceConfig::off(),
        }
    }

    /// True for `Counters` and `Full`.
    pub fn is_enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// True only for `Full`.
    pub fn is_full(&self) -> bool {
        self.level == TraceLevel::Full
    }
}

/// One structured event in a run's trace stream.
///
/// Events appear in a deterministic order: per superstep, `WorkerStep`
/// for workers `0..n` (worker order, not exchange order) followed by
/// one `StepEnd`; `Checkpoint` after the step it snapshots; `Rollback`
/// where recovery rewinds. The trace is monotone across rollbacks —
/// events from rolled-back supersteps stay in the stream, so replayed
/// step numbers repeat after a `Rollback` marker (the profile of a
/// recovered run *should* show the replay).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One worker's share of one superstep, drained at the barrier.
    WorkerStep {
        /// 1-based superstep number.
        step: u64,
        /// Worker index in `0..workers`.
        worker: u32,
        /// Interval-vertices with pending messages when the step began.
        active_vertices: u64,
        /// Messages delivered to this worker's inbox for this step.
        messages_in: u64,
        /// This worker's counter delta for this step (compute calls,
        /// messages/bytes out, warp invocations/suppressions, ...).
        counters: UserCounters,
        /// Operator-specific extras recorded through [`TraceSink::add`],
        /// e.g. `warp_tuples` / `warp_group_msgs` from the ICM warp
        /// path. Keys ending in `_ns` are timing content.
        extras: Vec<(&'static str, u64)>,
        /// Wall-clock compute span (timing content; 0 under
        /// [`TraceLevel::Counters`]).
        compute_ns: u64,
    },
    /// Barrier summary of one superstep.
    StepEnd {
        /// 1-based superstep number.
        step: u64,
        /// Messages routed this step (equals the sum of the workers'
        /// `messages_sent` deltas).
        sent: u64,
        /// Whether the vote-to-halt check ended the run here.
        halted: bool,
        /// Slowest worker's compute span (timing content).
        compute_ns: u64,
        /// The exchange: slowest sender's encode + the driver's routing at
        /// the barrier + slowest receiver's decode-and-group (timing
        /// content; encode is never folded into `compute_ns`).
        messaging_ns: u64,
        /// Barrier/bookkeeping remainder of the step (timing content).
        barrier_ns: u64,
    },
    /// The recovery path snapshotted the run after `step`.
    Checkpoint {
        /// Superstep the checkpoint covers (state *after* this step).
        step: u64,
        /// Serialized checkpoint payload size.
        bytes: u64,
    },
    /// The recovery path rewound the run to a checkpoint.
    Rollback {
        /// Superstep the failed attempt had reached.
        from_step: u64,
        /// Checkpointed superstep execution resumes after.
        to_step: u64,
    },
}

impl TraceEvent {
    /// The event with all wall-clock content zeroed: `*_ns` fields set
    /// to 0 and `*_ns` extras dropped. What remains must be
    /// bit-identical across schedule perturbations.
    pub fn normalized(&self) -> TraceEvent {
        match self {
            TraceEvent::WorkerStep {
                step,
                worker,
                active_vertices,
                messages_in,
                counters,
                extras,
                compute_ns: _,
            } => TraceEvent::WorkerStep {
                step: *step,
                worker: *worker,
                active_vertices: *active_vertices,
                messages_in: *messages_in,
                counters: *counters,
                extras: extras
                    .iter()
                    .filter(|(k, _)| !k.ends_with("_ns"))
                    .copied()
                    .collect(),
                compute_ns: 0,
            },
            TraceEvent::StepEnd {
                step, sent, halted, ..
            } => TraceEvent::StepEnd {
                step: *step,
                sent: *sent,
                halted: *halted,
                compute_ns: 0,
                messaging_ns: 0,
                barrier_ns: 0,
            },
            other => other.clone(),
        }
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            TraceEvent::WorkerStep {
                step,
                worker,
                active_vertices,
                messages_in,
                counters,
                extras,
                compute_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"worker_step\",\"step\":{step},\"worker\":{worker},\
                     \"active\":{active_vertices},\"msgs_in\":{messages_in},\
                     \"compute_calls\":{},\"scatter_calls\":{},\"msgs_out\":{},\
                     \"remote_msgs\":{},\"bytes_out\":{},\"warp_invocations\":{},\
                     \"warp_suppressions\":{},\"compute_ns\":{compute_ns},\"extras\":{{",
                    counters.compute_calls,
                    counters.scatter_calls,
                    counters.messages_sent,
                    counters.remote_messages,
                    counters.bytes_sent,
                    counters.warp_invocations,
                    counters.warp_suppressions,
                );
                for (i, (k, v)) in extras.iter().enumerate() {
                    let comma = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{comma}\"{k}\":{v}");
                }
                out.push_str("}}");
            }
            TraceEvent::StepEnd {
                step,
                sent,
                halted,
                compute_ns,
                messaging_ns,
                barrier_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"step_end\",\"step\":{step},\"sent\":{sent},\
                     \"halted\":{halted},\"compute_ns\":{compute_ns},\
                     \"messaging_ns\":{messaging_ns},\"barrier_ns\":{barrier_ns}}}"
                );
            }
            TraceEvent::Checkpoint { step, bytes } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"checkpoint\",\"step\":{step},\"bytes\":{bytes}}}"
                );
            }
            TraceEvent::Rollback { from_step, to_step } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"rollback\",\"from_step\":{from_step},\"to_step\":{to_step}}}"
                );
            }
        }
    }
}

/// The accumulated event stream of one run, carried in
/// [`RunMetrics::trace`](crate::metrics::RunMetrics::trace).
///
/// Empty when tracing is off. [`RunMetrics::merge`](crate::metrics::RunMetrics::merge)
/// concatenates streams, so multi-run platforms (MSB/Chlonos snapshot
/// sweeps) produce one stream whose step numbers restart per sub-run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Events in emission order (see [`TraceEvent`] for the ordering
    /// contract).
    pub events: Vec<TraceEvent>,
}

impl RunTrace {
    /// Appends one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// True when no events were recorded (always true with tracing off).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The stream with every event [`TraceEvent::normalized`]: the
    /// deterministic content only, for cross-seed equality assertions.
    pub fn normalized(&self) -> RunTrace {
        RunTrace {
            events: self.events.iter().map(TraceEvent::normalized).collect(),
        }
    }

    /// Serializes the stream as `graphite-trace/1` JSONL: a header line
    /// `{"schema":"graphite-trace/1","label":...}` followed by one JSON
    /// object per event.
    pub fn to_jsonl(&self, label: &str) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 128);
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\",\"label\":\"");
        escape_into(label, &mut out);
        out.push_str("\"}\n");
        for ev in &self.events {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Writes [`Self::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, label: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl(label))
    }

    /// Writes the stream to the file named by `GRAPHITE_TRACE_JSON`, if
    /// that variable is set and non-empty. Failures are reported on
    /// stderr, never escalated — tracing must not fail a run.
    pub fn maybe_emit(&self, label: &str) {
        let Ok(path) = std::env::var("GRAPHITE_TRACE_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        match self.write_jsonl(std::path::Path::new(&path), label) {
            Ok(()) => eprintln!("trace: wrote {} event(s) to {path}", self.events.len()),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
}

/// Minimal JSON string escaping for the run label (event keys are
/// static identifiers and never need it).
fn escape_into(s: &str, out: &mut String) {
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
}

/// Saturating nanosecond count of a span (a run would have to exceed
/// ~584 years to saturate).
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A worker-thread-local event accumulator.
///
/// Each worker owns one sink per superstep; user logic records operator
/// extras through it ([`Self::add`], [`Self::timed`]) and the driver
/// drains it at the barrier into [`TraceEvent::WorkerStep`]
/// `extras`. No locks, no sharing: determinism and the Off-mode cost
/// model both fall out of single ownership.
#[derive(Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    full: bool,
    extras: Vec<(&'static str, u64)>,
}

impl TraceSink {
    /// A sink honoring `config` (inert under [`TraceLevel::Off`]).
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            enabled: config.is_enabled(),
            full: config.is_full(),
            extras: Vec::new(),
        }
    }

    /// An inert sink that records nothing (for tests and direct
    /// `WorkerLogic` invocations outside a traced run).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// True under `Counters` or `Full`.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// True under `Full` only.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Accumulates `n` under `key` (first use of a key defines its
    /// slot; keys must be deterministic — use a `_ns` suffix for
    /// anything derived from the clock). No-op when disabled.
    pub fn add(&mut self, key: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        for (k, v) in &mut self.extras {
            if *k == key {
                *v = v.saturating_add(n);
                return;
            }
        }
        self.extras.push((key, n));
    }

    /// Runs `f`, accumulating its wall-clock span under `key` when the
    /// level is `Full` (under `Counters` the span is not measured at
    /// all, keeping the stream deterministic). `key` should end in
    /// `_ns`.
    pub fn timed<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.full {
            return f();
        }
        let t0 = now();
        let r = f();
        let d = t0.elapsed();
        self.add(key, duration_ns(d));
        r
    }

    /// Drains the accumulated extras (leaving the sink reusable).
    pub fn take_extras(&mut self) -> Vec<(&'static str, u64)> {
        std::mem::take(&mut self.extras)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("COUNTERS"), Some(TraceLevel::Counters));
        assert_eq!(TraceLevel::parse("Full"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert!(!TraceConfig::off().is_enabled());
        assert!(TraceConfig::counters().is_enabled());
        assert!(!TraceConfig::counters().is_full());
        assert!(TraceConfig::full().is_full());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        sink.add("warp_tuples", 3);
        let r = sink.timed("warp_ns", || 41 + 1);
        assert_eq!(r, 42);
        assert!(sink.take_extras().is_empty());
    }

    #[test]
    fn counters_sink_accumulates_but_never_times() {
        let mut sink = TraceSink::new(TraceConfig::counters());
        sink.add("warp_tuples", 3);
        sink.add("warp_tuples", 2);
        sink.timed("warp_ns", || ());
        assert_eq!(sink.take_extras(), vec![("warp_tuples", 5)]);
    }

    #[test]
    fn full_sink_times_closures() {
        let mut sink = TraceSink::new(TraceConfig::full());
        sink.timed("span_ns", || std::thread::sleep(Duration::from_millis(1)));
        let extras = sink.take_extras();
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].0, "span_ns");
        assert!(
            extras[0].1 >= 1_000_000,
            "slept ≥1ms, got {}ns",
            extras[0].1
        );
    }

    #[test]
    fn normalization_zeroes_timing_and_drops_ns_extras() {
        let ev = TraceEvent::WorkerStep {
            step: 3,
            worker: 1,
            active_vertices: 10,
            messages_in: 20,
            counters: UserCounters::default(),
            extras: vec![("warp_tuples", 7), ("warp_ns", 999)],
            compute_ns: 123,
        };
        let TraceEvent::WorkerStep {
            extras, compute_ns, ..
        } = ev.normalized()
        else {
            panic!("normalization must preserve the event kind");
        };
        assert_eq!(extras, vec![("warp_tuples", 7)]);
        assert_eq!(compute_ns, 0);

        let end = TraceEvent::StepEnd {
            step: 3,
            sent: 5,
            halted: true,
            compute_ns: 1,
            messaging_ns: 2,
            barrier_ns: 3,
        };
        assert_eq!(
            end.normalized(),
            TraceEvent::StepEnd {
                step: 3,
                sent: 5,
                halted: true,
                compute_ns: 0,
                messaging_ns: 0,
                barrier_ns: 0,
            }
        );
    }

    #[test]
    fn jsonl_shape_and_escaping() {
        let mut trace = RunTrace::default();
        trace.push(TraceEvent::WorkerStep {
            step: 1,
            worker: 0,
            active_vertices: 2,
            messages_in: 0,
            counters: UserCounters::default(),
            extras: vec![("warp_tuples", 4)],
            compute_ns: 0,
        });
        trace.push(TraceEvent::Checkpoint { step: 1, bytes: 64 });
        trace.push(TraceEvent::Rollback {
            from_step: 3,
            to_step: 1,
        });
        let text = trace.to_jsonl("bfs \"quoted\"\n");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"schema\":\"graphite-trace/1\",\"label\":\"bfs \\\"quoted\\\"\\n\"}"
        );
        assert!(lines[1].starts_with("{\"ev\":\"worker_step\",\"step\":1,\"worker\":0,"));
        assert!(lines[1].ends_with("\"extras\":{\"warp_tuples\":4}}"));
        assert_eq!(lines[2], "{\"ev\":\"checkpoint\",\"step\":1,\"bytes\":64}");
        assert_eq!(
            lines[3],
            "{\"ev\":\"rollback\",\"from_step\":3,\"to_step\":1}"
        );
    }
}
