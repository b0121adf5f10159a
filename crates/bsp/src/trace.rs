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
//!    [`TraceSink::timed`] via [`metrics::now`](crate::metrics::now), the
//!    one clock read the workspace `clippy.toml` lets through.
//!
//! Collection is lock-free: each worker thread owns a [`TraceSink`]
//! (plain `Vec` accumulation, no sharing) that the driver drains at the
//! barrier, between the compute and receive phases, so `TraceLevel::Off`
//! costs one branch per worker per superstep.
//!
//! Serialization is the versioned JSONL schema `graphite-trace/1`
//! ([`RunTrace::to_jsonl`]): a header object naming the schema and run
//! label, then one object per event. **This module owns that schema as
//! data**: the event table (each kind's wire name and its fields' wire
//! names, in wire order) and the extras vocabulary ([`key`],
//! [`EXTRA_KEYS`]) are declared here once, and the writer,
//! [`TraceEvent::normalized`] and the reader's
//! [`TraceEvent::from_wire`] all walk them — no other file spells a wire
//! name. `graphite-bench`'s `tracefmt` lexes a file back into a
//! [`RunTrace`] and its `trace_report` binary renders it as a
//! per-superstep profile.

use crate::metrics::{now, UserCounters};
use std::time::Duration;

/// The JSONL schema identifier emitted in the header line.
pub const TRACE_SCHEMA: &str = "graphite-trace/1";

/// Declares the extras vocabulary: one constant per key in [`key`], and
/// [`EXTRA_KEYS`] over all of them in declaration order.
macro_rules! extras_vocabulary {
    ($($(#[$doc:meta])* $name:ident = $wire:literal;)*) => {
        /// The declared keys of a `worker_step`'s `extras` object, one
        /// constant each. Producers pass these to [`TraceSink::add`] /
        /// [`TraceSink::timed`]; adding a key is one line here.
        pub mod key {
            $($(#[$doc])* pub const $name: &str = $wire;)*
        }

        /// Every declared extras key, in the order reports list them. A
        /// reader interns file keys through this slice and refuses the
        /// rest; a key ending in `_ns` is timing content ([`is_timing`]).
        pub const EXTRA_KEYS: &[&str] = &[$(key::$name),*];
    };
}

extras_vocabulary! {
    /// ICM: interval tuples the warp operator produced.
    WARP_TUPLES = "warp_tuples";
    /// ICM: messages across those tuples' groups; over `msgs_in` it is
    /// the warp amplification.
    WARP_GROUP_MSGS = "warp_group_msgs";
    /// ICM: wall-clock span inside the warp operator.
    WARP_NS = "warp_ns";
    /// ICM: wall-clock span folding each active vertex's inbox by identical
    /// interval through the combiner, on the receiving side.
    PRECOMBINE_NS = "precombine_ns";
    /// ICM: wall-clock span applying each vertex's state writes.
    STATE_APPLY_NS = "state_apply_ns";
    /// ICM: wall-clock span in scatter over each vertex's changes.
    SCATTER_NS = "scatter_ns";
    /// Serve: retry attempts issued after transient failures.
    SERVE_RETRIES = "serve_retries";
    /// Serve: queries that succeeded on a retry attempt.
    SERVE_RECOVERED = "serve_recovered";
    /// Serve: queries shed at the pending-depth watermark.
    SERVE_SHEDS = "serve_sheds";
    /// Serve: submissions fast-failed by the quarantine table.
    SERVE_QUARANTINED = "serve_quarantined";
    /// Serve: queries terminated by their superstep budget.
    SERVE_BUDGET_EXCEEDED = "serve_budget_exceeded";
    /// Serve: queries that terminally failed.
    SERVE_FAILED = "serve_failed";
    /// Stream: update batches ingested.
    STREAM_BATCHES = "stream_batches";
    /// Stream: delta operations applied.
    STREAM_OPS = "stream_ops";
    /// Stream: vertices re-seeded by warm-started maintenance runs.
    STREAM_DIRTY_VERTICES = "stream_dirty_vertices";
    /// Stream: compute calls across the incremental maintenance runs.
    STREAM_INC_COMPUTE_CALLS = "stream_inc_compute_calls";
    /// Stream: batches that ran the differential from-scratch check.
    STREAM_DIGEST_CHECKS = "stream_digest_checks";
    /// Stream: differential checks that caught a divergence (stays zero).
    STREAM_DIGEST_MISMATCHES = "stream_digest_mismatches";
    /// Stream: wall-clock span applying deltas through the overlay.
    STREAM_APPLY_NS = "stream_apply_ns";
    /// Stream: wall-clock span in warm-started incremental recomputation.
    STREAM_INCREMENTAL_NS = "stream_incremental_ns";
    /// Stream: wall-clock span in differential from-scratch recomputation.
    STREAM_FULL_CHECK_NS = "stream_full_check_ns";
}

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
/// (`BspConfig::trace`, reached as `RunConfig::bsp` on every platform).
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
            note(format_args!(
                "unrecognized GRAPHITE_TRACE={s:?}, tracing off"
            ));
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
        /// path. Keys come from [`EXTRA_KEYS`]; those ending in `_ns`
        /// are timing content.
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

/// A scalar as a reader lexed it off a line: every field of the wire
/// table is an unsigned integer except `halted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scalar {
    /// A count, an id, or a nanosecond span.
    Int(u64),
    /// The halt vote.
    Flag(bool),
}

/// One field of an event as the wire table presents it — by shared
/// reference to the writer ([`Read`]), by mutable reference to
/// [`TraceEvent::from_wire`] and [`TraceEvent::normalized`] ([`Write`]).
enum Field<I, W, F> {
    Int(I),
    /// The one `u32` field. The wire refuses ids beyond the engine's own
    /// worker-index width (`u16`, see `bsp::partition`), so a reader can
    /// size per-worker tables by it.
    Worker(W),
    Flag(F),
}
type Read<'a> = Field<&'a u64, &'a u32, &'a bool>;
type Write<'a> = Field<&'a mut u64, &'a mut u32, &'a mut bool>;

impl std::fmt::Display for Read<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::Int(v) => v.fmt(f),
            Field::Worker(v) => v.fmt(f),
            Field::Flag(v) => v.fmt(f),
        }
    }
}

impl Write<'_> {
    fn set(self, value: Scalar) -> Result<(), String> {
        match (self, value) {
            (Field::Int(field), Scalar::Int(v)) => *field = v,
            (Field::Worker(field), Scalar::Int(v)) => {
                *field = u16::try_from(v)
                    .map_err(|_| format!("{v} exceeds the engine's u16 worker-index width"))?
                    .into();
            }
            (Field::Flag(field), Scalar::Flag(v)) => *field = v,
            (Field::Flag(_), Scalar::Int(_)) => return Err("expected a bool".into()),
            (_, Scalar::Flag(_)) => return Err("expected an integer".into()),
        }
        Ok(())
    }
}

/// The `graphite-trace/1` event table: per event kind, its scalar fields
/// as `(wire name, field)` in wire order, then the kind's own wire name.
/// This is the only place a field meets its wire name; the writer, the
/// reader's [`TraceEvent::from_wire`] and [`TraceEvent::normalized`] are
/// all walks over it. It is a macro only so that one declaration serves
/// both a `&TraceEvent` (fields arrive as [`Read`]) and a
/// `&mut TraceEvent` (as [`Write`]). The patterns are exhaustive on
/// purpose: a field added to an event or to [`UserCounters`] does not
/// compile until it has a wire name here.
macro_rules! event_table {
    ($event:expr, $field:ident) => {
        match $event {
            TraceEvent::WorkerStep {
                step,
                worker,
                active_vertices,
                messages_in,
                counters:
                    UserCounters {
                        compute_calls,
                        scatter_calls,
                        messages_sent,
                        remote_messages,
                        wire_messages,
                        bytes_sent,
                        warp_invocations,
                        warp_suppressions,
                    },
                extras: _,
                compute_ns,
            } => {
                $field("step", Field::Int(step));
                $field("worker", Field::Worker(worker));
                $field("active", Field::Int(active_vertices));
                $field("msgs_in", Field::Int(messages_in));
                $field("compute_calls", Field::Int(compute_calls));
                $field("scatter_calls", Field::Int(scatter_calls));
                $field("msgs_out", Field::Int(messages_sent));
                $field("remote_msgs", Field::Int(remote_messages));
                $field("wire_msgs", Field::Int(wire_messages));
                $field("bytes_out", Field::Int(bytes_sent));
                $field("warp_invocations", Field::Int(warp_invocations));
                $field("warp_suppressions", Field::Int(warp_suppressions));
                $field("compute_ns", Field::Int(compute_ns));
                "worker_step"
            }
            TraceEvent::StepEnd {
                step,
                sent,
                halted,
                compute_ns,
                messaging_ns,
                barrier_ns,
            } => {
                $field("step", Field::Int(step));
                $field("sent", Field::Int(sent));
                $field("halted", Field::Flag(halted));
                $field("compute_ns", Field::Int(compute_ns));
                $field("messaging_ns", Field::Int(messaging_ns));
                $field("barrier_ns", Field::Int(barrier_ns));
                "step_end"
            }
            TraceEvent::Checkpoint { step, bytes } => {
                $field("step", Field::Int(step));
                $field("bytes", Field::Int(bytes));
                "checkpoint"
            }
            TraceEvent::Rollback { from_step, to_step } => {
                $field("from_step", Field::Int(from_step));
                $field("to_step", Field::Int(to_step));
                "rollback"
            }
        }
    };
}

/// Framing keys of a `graphite-trace/1` line: the header object's two
/// members, and the two members of an event object that are not scalar
/// fields of the event table.
pub mod frame_key {
    /// Header member naming the schema ([`super::TRACE_SCHEMA`]).
    pub const SCHEMA: &str = "schema";
    /// Header member carrying the run label.
    pub const LABEL: &str = "label";
    /// Event member naming the event kind.
    pub const EVENT: &str = "ev";
    /// `worker_step` member holding the extras object.
    pub const EXTRAS: &str = "extras";
}

/// Whether a wire name — a field's or an extras key's — is timing
/// content: wall-clock, never compared, zeroed by
/// [`TraceEvent::normalized`]. One rule for fields and extras.
pub fn is_timing(wire_name: &str) -> bool {
    wire_name.ends_with("_ns")
}

impl TraceEvent {
    /// Visits the scalar fields as `(wire name, value)` in wire order
    /// and returns the kind's wire name.
    fn read(&self, mut field: impl FnMut(&'static str, Read<'_>)) -> &'static str {
        event_table!(self, field)
    }

    fn write(&mut self, mut field: impl FnMut(&'static str, Write<'_>)) {
        event_table!(self, field);
    }

    /// The event kind's wire name (`worker_step`, `step_end`, …).
    pub fn kind(&self) -> &'static str {
        self.read(|_, _| {})
    }

    /// The event with all wall-clock content zeroed: every field and
    /// every extra whose wire name [`is_timing`] is set to 0 / dropped.
    /// What remains must be bit-identical across schedule perturbations.
    pub fn normalized(&self) -> TraceEvent {
        let mut event = self.clone();
        event.write(|name, field| {
            if let (true, Field::Int(span)) = (is_timing(name), field) {
                *span = 0;
            }
        });
        if let TraceEvent::WorkerStep { extras, .. } = &mut event {
            extras.retain(|(key, _)| !is_timing(key));
        }
        event
    }

    /// The inverse of the writer: builds the `kind` event from named
    /// scalars and named extras, as a reader lexed them off a line.
    ///
    /// # Errors
    ///
    /// An unknown `kind`; a scalar name the kind does not have, one it
    /// has that is missing, or a value of the wrong type or width; an
    /// extras key outside [`EXTRA_KEYS`], or extras on a kind that
    /// carries none.
    pub fn from_wire<'a>(
        kind: &str,
        scalars: impl IntoIterator<Item = (&'a str, Scalar)>,
        extras: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Result<TraceEvent, String> {
        // One prototype per kind; every field of the one chosen is
        // overwritten below (a field left unset is the "missing" error).
        let markers = [
            TraceEvent::Checkpoint { step: 0, bytes: 0 },
            TraceEvent::Rollback {
                from_step: 0,
                to_step: 0,
            },
        ];
        let mut event = RunTrace::frame(0, Vec::new())
            .events
            .into_iter()
            .chain(markers)
            .find(|prototype| prototype.kind() == kind)
            .ok_or_else(|| format!("unknown event kind {kind:?}"))?;

        let mut missing = Vec::new();
        event.read(|name, _| missing.push(name));
        for (name, value) in scalars {
            let mut set = None;
            event.write(|field_name, field| {
                if field_name == name {
                    set = Some(field.set(value));
                }
            });
            set.ok_or_else(|| format!("{kind} has no field {name:?}"))?
                .map_err(|e| format!("field {name:?}: {e}"))?;
            missing.retain(|field_name| *field_name != name);
        }
        if let Some(name) = missing.first() {
            return Err(format!("{kind} is missing field {name:?}"));
        }

        for (name, value) in extras {
            let TraceEvent::WorkerStep { extras, .. } = &mut event else {
                return Err(format!("{kind} carries no extras"));
            };
            let key = EXTRA_KEYS
                .iter()
                .find(|key| **key == name)
                .ok_or_else(|| format!("undeclared extras key {name:?}"))?;
            extras.push((*key, value));
        }
        Ok(event)
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"{}\":\"{}\"", frame_key::EVENT, self.kind());
        self.read(|name, value| {
            let _ = write!(out, ",\"{name}\":{value}");
        });
        if let TraceEvent::WorkerStep { extras, .. } = self {
            let _ = write!(out, ",\"{}\":{{", frame_key::EXTRAS);
            for (i, (key, value)) in extras.iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                let _ = write!(out, "{comma}\"{key}\":{value}");
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// The accumulated event stream of one run, carried in
/// [`RunMetrics::trace`](crate::metrics::RunMetrics::trace).
///
/// Empty when tracing is off. A snapshot platform's walk is one run
/// with phases ([`crate::engine::PhaseHook`]), so its stream too counts
/// whole-run steps that never restart, and only its last step halts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Events in emission order (see [`TraceEvent`] for the ordering
    /// contract).
    pub events: Vec<TraceEvent>,
}

impl RunTrace {
    /// A non-run frame: `extras` carried by one `worker_step` of worker 0
    /// at `step`, closed by a halted `step_end` so the stream reads as a
    /// complete step. This is how the layers above a run (serve health,
    /// stream batches) put their counters on the wire — a `worker_step`'s
    /// extras are the schema's one extensible slot.
    pub fn frame(step: u64, extras: Vec<(&'static str, u64)>) -> RunTrace {
        RunTrace {
            events: vec![
                TraceEvent::WorkerStep {
                    step,
                    worker: 0,
                    active_vertices: 0,
                    messages_in: 0,
                    counters: UserCounters::default(),
                    extras,
                    compute_ns: 0,
                },
                TraceEvent::StepEnd {
                    step,
                    sent: 0,
                    halted: true,
                    compute_ns: 0,
                    messaging_ns: 0,
                    barrier_ns: 0,
                },
            ],
        }
    }

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
        use std::fmt::Write as _;
        let (schema, label_key) = (frame_key::SCHEMA, frame_key::LABEL);
        let _ = write!(out, "{{\"{schema}\":\"{TRACE_SCHEMA}\",\"{label_key}\":\"");
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
            Ok(()) => note(format_args!(
                "wrote {} event(s) to {path}",
                self.events.len()
            )),
            Err(e) => note(format_args!("failed to write {path}: {e}")),
        }
    }
}

/// Writes one `trace: ` line to stderr. A closed stderr drops it: a
/// trace note must not fail the run it describes.
fn note(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr().lock(), "trace: {line}");
}

/// Appends `s` to `out` escaped as the body of a JSON string literal,
/// without the quotes: `"` and `\` are backslash-escaped, newline,
/// carriage return and tab get their short escapes, and every other
/// control character below U+0020 becomes `\u00XX`. The one JSON string
/// escaper of the workspace: the trace's run label, the CLI's JSONL rows
/// and the bench crate's JSON writer all go through it.
pub fn escape_into(s: &str, out: &mut String) {
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

    /// Accumulates `n` under `key`, one of the declared [`key`]
    /// constants (first use of a key defines its slot; values must be
    /// deterministic unless the key [`is_timing`]). No-op when disabled.
    pub fn add(&mut self, key: &'static str, n: u64) {
        debug_assert!(EXTRA_KEYS.contains(&key), "undeclared extras key {key:?}");
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
    /// all, keeping the stream deterministic). `key` is a declared
    /// [`key`] constant ending in `_ns`.
    pub fn timed<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        debug_assert!(EXTRA_KEYS.contains(&key), "undeclared extras key {key:?}");
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
        sink.timed(key::WARP_NS, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let extras = sink.take_extras();
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].0, key::WARP_NS);
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
    fn vocabulary_is_unique_and_its_ns_keys_are_what_normalization_drops() {
        for (i, key) in EXTRA_KEYS.iter().enumerate() {
            assert!(!EXTRA_KEYS[..i].contains(key), "{key} declared twice");
        }
        let mut frame = RunTrace::frame(1, EXTRA_KEYS.iter().map(|k| (*k, 1)).collect());
        frame = frame.normalized();
        let TraceEvent::WorkerStep { extras, .. } = &frame.events[0] else {
            panic!("a frame opens with its worker_step");
        };
        let kept: Vec<&str> = extras.iter().map(|(k, _)| *k).collect();
        let deterministic: Vec<&str> = EXTRA_KEYS
            .iter()
            .copied()
            .filter(|k| !k.ends_with("_ns"))
            .collect();
        assert_eq!(kept, deterministic);
        assert_eq!(
            kept.len() + 7,
            EXTRA_KEYS.len(),
            "warp_ns + 3 ICM phase spans + 3 stream spans"
        );
    }

    #[test]
    fn icm_phase_spans_appear_at_full_and_never_at_counters() {
        let phases = [key::PRECOMBINE_NS, key::STATE_APPLY_NS, key::SCATTER_NS];
        let mut full = TraceSink::new(TraceConfig::full());
        let mut counters = TraceSink::new(TraceConfig::counters());
        for sink in [&mut full, &mut counters] {
            sink.add(key::WARP_TUPLES, 1);
            for phase in phases {
                sink.timed(phase, || ());
            }
        }
        let full_keys: Vec<&str> = full.take_extras().iter().map(|(k, _)| *k).collect();
        assert_eq!(full_keys, [&[key::WARP_TUPLES][..], &phases].concat());
        assert_eq!(counters.take_extras(), vec![(key::WARP_TUPLES, 1)]);
    }

    #[test]
    #[should_panic(expected = "undeclared extras key")]
    #[cfg(debug_assertions)]
    fn an_undeclared_key_trips_the_sink_in_debug_builds() {
        TraceSink::disabled().add("warp_tuple", 1);
    }

    fn scalars_of(event: &TraceEvent) -> Vec<(&'static str, Scalar)> {
        let mut out = Vec::new();
        event.read(|name, value| {
            let value = match value {
                Field::Int(v) => Scalar::Int(*v),
                Field::Worker(v) => Scalar::Int(u64::from(*v)),
                Field::Flag(v) => Scalar::Flag(*v),
            };
            out.push((name, value));
        });
        out
    }

    #[test]
    fn from_wire_inverts_the_writer_and_names_what_is_wrong() {
        let mut trace = RunTrace::frame(7, vec![(key::WARP_TUPLES, 4), (key::WARP_NS, 9)]);
        trace.push(TraceEvent::Checkpoint { step: 7, bytes: 64 });
        trace.push(TraceEvent::Rollback {
            from_step: 9,
            to_step: 7,
        });
        for event in &trace.events {
            let extras: Vec<(&str, u64)> = match event {
                TraceEvent::WorkerStep { extras, .. } => extras.clone(),
                _ => Vec::new(),
            };
            // Field order on the wire is free.
            let mut scalars = scalars_of(event);
            scalars.reverse();
            assert_eq!(
                TraceEvent::from_wire(event.kind(), scalars, extras).as_ref(),
                Ok(event)
            );
        }

        let row = &trace.events[0];
        let err = |scalars: Vec<(&'static str, Scalar)>, extras: Vec<(&str, u64)>| {
            TraceEvent::from_wire(row.kind(), scalars, extras).expect_err("must be refused")
        };
        let mut short = scalars_of(row);
        short.retain(|(name, _)| *name != "msgs_in");
        assert!(err(short, vec![]).contains("missing field \"msgs_in\""));
        let mut long = scalars_of(row);
        long.push(("mystery", Scalar::Int(1)));
        assert!(err(long, vec![]).contains("no field \"mystery\""));
        let mut wide = scalars_of(row);
        wide[1] = ("worker", Scalar::Int(4_000_000_000));
        assert!(err(wide, vec![]).contains("u16 worker-index width"));
        let mut flag = scalars_of(row);
        flag[0] = ("step", Scalar::Flag(true));
        assert!(err(flag, vec![]).contains("expected an integer"));
        assert!(err(scalars_of(row), vec![("warp_tuple", 1)]).contains("undeclared extras key"));

        let end = &trace.events[1];
        let mut int_halted = scalars_of(end);
        int_halted[2] = ("halted", Scalar::Int(1));
        assert!(TraceEvent::from_wire("step_end", int_halted, vec![])
            .expect_err("halted must be a bool")
            .contains("expected a bool"));
        assert!(
            TraceEvent::from_wire("step_end", scalars_of(end), vec![("warp_ns", 1)])
                .expect_err("only worker_step has extras")
                .contains("carries no extras")
        );
        assert!(TraceEvent::from_wire("mystery", vec![], vec![])
            .expect_err("unknown kind")
            .contains("unknown event kind"));
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
