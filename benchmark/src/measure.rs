//! Generator-side measurement: the clock, spans around calls into the
//! program, latency samples, and the process counters read from `/proc`.
//!
//! Everything here runs on the one generator thread, so the span stack is
//! a plain `Vec` and nothing is shared.

use graphite_bsp::metrics::{now, RunMetrics};
use graphite_bsp::trace::TraceEvent;
use graphite_tgraph::graph::TemporalGraph;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: a call from the harness into a layer's public
/// function (or an enclosing `op`). `parent` indexes into the same span
/// list; spans of one op share `op_id`.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op_id: u64,
    /// Counts recorded at the same call site (exact work counters).
    counts: Vec<(&'static str, u64)>,
}

/// The generator's recorder. Every call into the program goes through
/// [`Recorder::call`], which always times it (latency and the generator's
/// self-time share need that in both modes) and, while `tracing` is on,
/// also keeps a span.
pub struct Recorder {
    epoch: Instant,
    pub tracing: bool,
    /// Set for the one extra round of a traced run that also turns on the
    /// program's own `TraceLevel::Full` (its per-vertex clock reads cost
    /// more than every harness span together, so that round is timed by
    /// nobody).
    pub deep: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Wall time spent inside program calls in the current round.
    program_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: now(),
            tracing: false,
            deep: false,
            spans: Vec::new(),
            stack: Vec::new(),
            program_ns: 0,
        }
    }

    fn open(&mut self, name: &'static str, op_id: u64, at: Instant) -> Option<u32> {
        if !self.tracing {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: (at - self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<u32>, at: Instant) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = (at - self.epoch).as_nanos() as u64;
            self.stack.pop();
        }
    }

    /// Times one call into the program and returns its result and wall
    /// time. `name` is `<layer>.<function>`.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = now();
        let id = self.open(name, op_id, start);
        let out = f();
        let end = now();
        self.close(id, end);
        let took = end - start;
        self.program_ns += took.as_nanos() as u64;
        (out, took)
    }

    /// Groups the calls of one op under an `op` span; the closure's own
    /// time outside program calls is generator self time.
    pub fn op<R>(&mut self, op_id: u64, f: impl FnOnce(&mut Recorder) -> R) -> (R, Duration) {
        let start = now();
        let id = self.open("op", op_id, start);
        let out = f(self);
        let end = now();
        self.close(id, end);
        (out, end - start)
    }

    /// Attaches exact counts to the span of the call that just returned.
    pub fn counts(&mut self, counts: &[(&'static str, u64)]) {
        if self.tracing {
            if let Some(span) = self.spans.last_mut() {
                span.counts.extend_from_slice(counts);
            }
        }
    }

    /// Self time per span name: duration minus the part covered by child
    /// spans (children of one parent never overlap — one generator thread).
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name.sort_by_key(|row| std::cmp::Reverse(row.1));
        by_name
    }

    /// The span file: one JSON object per line, in recording order (a
    /// span's index is its line number, which is what `parent` refers to).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"op_id\":{}", s.op_id);
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (i, (k, v)) in s.counts.iter().enumerate() {
                    let comma = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{comma}\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1); 0 for an
/// empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Process user+sys CPU in milliseconds, from `/proc/self/stat` (fields
/// 14 and 15, in clock ticks of 1/100 s on every Linux ABI). Includes
/// threads that have already exited, which per-task accounting would lose
/// — the program spawns short-lived workers per run.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10.0
}

/// A numeric field of `/proc/self/status` (`VmHWM` and `VmRSS`, in kB).
pub fn status_field(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// One measured round as the generator saw it.
pub struct Round {
    pub traced: bool,
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// Wall time the generator spent inside program calls.
    pub program_ms: f64,
    /// Per-op latency of every op that completed.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Brackets the timed part of a round (engine resets stay outside it).
pub struct RoundTimer {
    start: Instant,
    cpu0: f64,
}

impl Recorder {
    pub fn begin_round(&mut self) -> RoundTimer {
        self.program_ns = 0;
        RoundTimer {
            cpu0: process_cpu_ms(),
            start: now(),
        }
    }

    pub fn end_round(
        &mut self,
        timer: RoundTimer,
        latencies_ms: Vec<f64>,
        attempted: u64,
        failed: u64,
    ) -> Round {
        let wall_ms = ms(timer.start.elapsed());
        Round {
            traced: self.tracing,
            wall_ms,
            cpu_ms: process_cpu_ms() - timer.cpu0,
            program_ms: std::mem::take(&mut self.program_ns) as f64 / 1e6,
            latencies_ms,
            attempted,
            failed,
        }
    }
}

/// Additive per-round layer counters keyed by metric name. Exact counts
/// are identical in every round; times take the median across rounds.
#[derive(Clone, Default)]
pub struct Tally(pub BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Everything the harness can see of `bsp` and `icm` through one run's
    /// public [`RunMetrics`]; `wall` is the run as timed from outside
    /// (`None` when the run happened behind another layer's API).
    pub fn add_run(&mut self, m: &RunMetrics, wall: Option<Duration>) {
        let c = &m.counters;
        self.add("bsp.supersteps", m.supersteps as f64);
        self.add("bsp.messages_sent", c.messages_sent as f64);
        self.add("bsp.remote_messages", c.remote_messages as f64);
        self.add("bsp.bytes_sent", c.bytes_sent as f64);
        self.add("bsp.routing_growths", m.routing_growths as f64);
        self.add("bsp.compute_plus_ms", ms(m.compute_plus));
        self.add("bsp.messaging_ms", ms(m.messaging));
        self.add("bsp.barrier_ms", ms(m.barrier));
        if let Some(wall) = wall {
            self.add("bsp.run_overhead_ms", ms(wall.saturating_sub(m.makespan)));
        }
        self.add("icm.compute_calls", c.compute_calls as f64);
        self.add("icm.scatter_calls", c.scatter_calls as f64);
        self.add("icm.warp_invocations", c.warp_invocations as f64);
        self.add("icm.warp_suppressions", c.warp_suppressions as f64);
        self.add_extras(m);
    }

    /// The warp operator's extras from the program's own trace events:
    /// `warp_tuples` / `warp_group_msgs` at `Counters` level, `warp_ns`
    /// too at `Full`.
    pub fn add_extras(&mut self, m: &RunMetrics) {
        for event in &m.trace.events {
            if let TraceEvent::WorkerStep { extras, .. } = event {
                for &(key, v) in extras {
                    match key {
                        "warp_tuples" => self.add("icm.warp_tuples", v as f64),
                        "warp_group_msgs" => self.add("icm.warp_group_msgs", v as f64),
                        "warp_ns" => self.add("icm.warp_ns", v as f64),
                        _ => {}
                    }
                }
            }
        }
    }

    /// Per-key median across the rounds that recorded the key.
    pub fn median_of(rounds: &[Tally]) -> BTreeMap<&'static str, f64> {
        let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for round in rounds {
            for (&key, &value) in &round.0 {
                by_key.entry(key).or_default().push(value);
            }
        }
        by_key
            .into_iter()
            .map(|(key, values)| (key, median(&values)))
            .collect()
    }
}

/// `datagen.generate` as every workload's set-up calls it: timed, and with
/// the resident-set growth across it booked per edge. Only the first
/// generate of a process grows the resident set by the whole graph (later
/// ones reuse what the allocator kept), so the driver reports the first
/// repetition's figure.
pub fn generate_graph(
    rec: &mut Recorder,
    times: &mut Tally,
    generate: impl FnOnce() -> TemporalGraph,
) -> Arc<TemporalGraph> {
    let rss_before = status_field("VmRSS");
    let (graph, took) = rec.call("datagen.generate", 0, generate);
    let grown_kb = (status_field("VmRSS") - rss_before).max(0.0);
    times.add("datagen.generate_ms", ms(took));
    times.add(
        "tgraph.bytes_per_edge",
        grown_kb * 1024.0 / graph.num_edges().max(1) as f64,
    );
    Arc::new(graph)
}

/// Pooled per-call samples keyed by name (latencies of one kind of call).
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, key: &'static str, v: f64) {
        self.0.entry(key).or_default().push(v);
    }

    pub fn percentile(&self, key: &str, q: f64) -> f64 {
        self.0.get(key).map_or(0.0, |v| percentile(v, q))
    }
}
