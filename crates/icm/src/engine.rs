//! The interval-centric superstep engine: GRAPHITE's runtime logic
//! (Sec. VI), executing [`IntervalProgram`]s over the BSP substrate.
//!
//! Per superstep, for every active vertex the engine:
//!
//! 1. groups the vertex's incoming interval messages against its
//!    partitioned states with the **time-warp** operator (or, under *warp
//!    suppression*, buckets unit-length messages per time-point);
//! 2. calls the user's `compute` once per warp tuple, optionally folding
//!    each tuple's message group through the **inline warp combiner**;
//! 3. applies the state writes, dynamically repartitioning the vertex
//!    state and keeping only real changes;
//! 4. warps the changed sub-intervals against the vertex's
//!    (property-refined) edge segments and calls `scatter` once per
//!    intersection, emitting interval messages.
//!
//! Vertices implicitly vote to halt every superstep; the run ends when no
//! messages are in flight (Sec. IV-A2).

use crate::program::{
    ComputeContext, EdgeDirection, IntervalProgram, ScatterContext, VertexContext,
};
use crate::state::{StateArena, StateUpdates};
use crate::warp::WarpScratch;
use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::codec::{get_varint, put_varint, Wire};
use graphite_bsp::engine::{keep_alive, run_bsp, BspConfig, Inbox, Outbox, WorkerLogic};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::partition::PartitionMap;
use graphite_bsp::recover::{Recovery, RecoveryConfig};
use graphite_bsp::snapshot::Snapshot;
use graphite_bsp::trace::{key, TraceSink};
use graphite_bsp::MasterHook;
use graphite_part::PartitionStrategy;
use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};
use graphite_tgraph::iset::IntervalPartition;
use graphite_tgraph::time::{Interval, Time, TIME_MAX, TIME_MIN};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of one GRAPHITE run.
#[derive(Clone, Debug)]
pub struct IcmConfig {
    /// Number of BSP workers (the paper's cluster nodes).
    pub workers: usize,
    /// Enable the inline warp combiner when the program defines one
    /// (Sec. VI; on for all the paper's experiments, ablated in Fig. 6(b)).
    pub combiner: bool,
    /// Warp-suppression threshold: when at least this fraction of a
    /// vertex's incoming messages are unit-length, skip warp and execute
    /// per time-point (Sec. VI; paper default 70 %, ablated in Fig. 6(c)).
    /// `None` disables suppression.
    pub suppression_threshold: Option<f64>,
    /// Vertex-placement strategy (see `graphite-part`, DESIGN.md §13).
    /// Results are placement-invariant — strategies only move work and
    /// message traffic between workers. Default: hash, the paper's
    /// (Sec. VII-A4).
    pub partition: PartitionStrategy,
    /// When set, the run checkpoints on this schedule and recoverable
    /// faults — injected via [`BspConfig::fault_plan`], or real worker
    /// panics — roll it back to the last checkpoint and replay instead of
    /// failing it. Recovered results are bit-identical to fault-free ones
    /// (pinned by the fault-matrix digests); only the
    /// [`RunMetrics::recovery`] counters — which never enter digests —
    /// reveal that recovery happened. `None` (the default) fails at the
    /// first fault.
    pub recovery: Option<RecoveryConfig>,
    /// The substrate's own options — superstep cap and budget, schedule
    /// perturbation, fault injection, tracing — passed through unchanged.
    pub bsp: BspConfig,
}

impl Default for IcmConfig {
    fn default() -> Self {
        IcmConfig {
            workers: 4,
            combiner: true,
            suppression_threshold: Some(0.7),
            partition: PartitionStrategy::default(),
            recovery: None,
            bsp: BspConfig::default(),
        }
    }
}

/// Outcome of a run: the final partitioned state of every vertex (keyed by
/// external id, coalesced) plus the run metrics.
#[derive(Clone, Debug)]
pub struct IcmResult<S> {
    /// Final per-vertex interval states.
    pub states: BTreeMap<VertexId, Vec<(Interval, S)>>,
    /// Primitive counts and time splits.
    pub metrics: RunMetrics,
}

impl<S: Clone> IcmResult<S> {
    /// The state of `vid` at time-point `t`, if the vertex exists and one
    /// of its entries contains `t`.
    ///
    /// Entries are sorted and disjoint, so this is a binary search; all
    /// intervals are half-open `[start, end)`, so the lookup is strictly
    /// end-exclusive: `t` equal to an entry's end resolves to the *next*
    /// entry when one starts there, and to `None` past the last entry —
    /// never to the entry that just closed.
    pub fn state_at(&self, vid: VertexId, t: Time) -> Option<&S> {
        let entries = self.states.get(&vid)?;
        let idx = entries
            .partition_point(|(iv, _)| iv.start() <= t)
            .checked_sub(1)?;
        let (iv, s) = &entries[idx];
        iv.contains_point(t).then_some(s)
    }
}

struct IcmWorker<P: IntervalProgram> {
    graph: Arc<TemporalGraph>,
    program: Arc<P>,
    owned: Vec<VIdx>,
    combiner: bool,
    suppression: Option<f64>,
    /// Per-vertex interval partitions in a flat, id-sorted arena.
    /// Iteration is ascending by vertex id, so final-state collection and
    /// checkpoint encodings are deterministic (and byte-identical to the
    /// ordered-map representation this replaced).
    states: StateArena<P::State>,
    /// Reusable warp arena: all kernel allocations (events, active set,
    /// tuples, groups) plus the staged span lists amortize across every
    /// vertex and superstep this worker executes.
    scratch: WarpScratch,
    /// Reusable scatter emission buffer.
    emitted: Vec<(Interval, P::Msg)>,
    /// Reusable warp-group message buffer: one tuple's message group is
    /// assembled (and combiner-folded) here instead of allocating a fresh
    /// vector per compute call.
    group: Vec<P::Msg>,
    /// Reusable per-time-point buckets of the suppressed path, indexed by
    /// offset from the vertex's lifespan start; all empty between vertices.
    /// A unit-lifespan graph only ever uses the first.
    buckets: Vec<Vec<P::Msg>>,
}

impl<P: IntervalProgram> IcmWorker<P> {
    /// Folds a warp tuple's message group through the combiner, in place.
    /// Leaves the list untouched when the program declines to combine.
    fn fold_in_place(&self, msgs: &mut Vec<P::Msg>) {
        if !self.combiner || msgs.len() <= 1 {
            return;
        }
        let mut acc = msgs[0].clone();
        for m in &msgs[1..] {
            match self.program.combine(&acc, m) {
                Some(c) => acc = c,
                None => return,
            }
        }
        msgs.clear();
        msgs.push(acc);
    }

    /// Runs scatter over the changed sub-intervals of vertex `v`.
    #[allow(clippy::too_many_arguments)]
    fn scatter_changes(
        &mut self,
        v: VIdx,
        changed: &[(Interval, P::State)],
        step: u64,
        outbox: &mut Outbox<(Interval, P::Msg)>,
        globals: &Aggregators,
        counters: &mut UserCounters,
    ) {
        if changed.is_empty() {
            return;
        }
        let graph = &self.graph;
        let passes: &[EdgeDirection] = match self.program.direction() {
            EdgeDirection::Out => &[EdgeDirection::Out],
            EdgeDirection::In => &[EdgeDirection::In],
            EdgeDirection::Both => &[EdgeDirection::Out, EdgeDirection::In],
        };
        // Last instant any changed interval reaches: edge runs are sorted
        // by lifespan start, so the scan below can stop at the first edge
        // starting at or after it.
        let max_end = changed
            .iter()
            .map(|(iv, _)| iv.end())
            .max()
            .unwrap_or(TIME_MIN);
        let refine = self.program.refine_scatter_by_properties();
        for &dir in passes {
            let run = match dir {
                EdgeDirection::Out => graph.out_run(v),
                EdgeDirection::In | EdgeDirection::Both => graph.in_run(v),
            };
            for i in 0..run.len() {
                // The hot loop reads only the mirror columns (span, then
                // neighbor) — sequential scans over two flat arrays; the
                // edge row itself is never touched here.
                let span = run.span[i];
                if span.start() >= max_end {
                    break; // sorted run: nothing further can intersect
                }
                // Cheap reject before touching segments.
                let covers = changed.iter().any(|(iv, _)| iv.intersects(span));
                if !covers {
                    continue;
                }
                let e = run.edges[i];
                let target = run.nbr[i];
                // Property-refined segments are precomputed into the frozen
                // graph; the unrefined case is exactly the lifespan.
                let segments: &[Interval] = if refine {
                    graph.scatter_segments(e)
                } else {
                    std::slice::from_ref(&run.span[i])
                };
                for seg in segments.iter() {
                    for (civ, state) in changed {
                        let Some(cap) = civ.intersect(*seg) else {
                            continue;
                        };
                        counters.scatter_calls += 1;
                        self.emitted.clear();
                        let mut ctx = ScatterContext {
                            graph,
                            edge: e,
                            superstep: step,
                            globals,
                            interval: cap,
                            change: *civ,
                            segment: *seg,
                            direction: dir,
                            emitted: &mut self.emitted,
                        };
                        self.program.scatter(&mut ctx, cap, state);
                        for (iv, m) in self.emitted.drain(..) {
                            outbox.send(target, (iv, m));
                        }
                    }
                }
            }
        }
    }

    /// Sender-side pre-warp combining: messages bound for the same vertex
    /// with *identical* intervals fold into one when a combiner exists.
    /// Borrows the inbox slice unchanged when there is nothing to combine
    /// — the common single-message case costs no allocation at all.
    fn precombine<'m>(&self, msgs: &'m [(Interval, P::Msg)]) -> Cow<'m, [(Interval, P::Msg)]> {
        if !self.combiner || msgs.len() <= 1 {
            return Cow::Borrowed(msgs);
        }
        let mut sorted: Vec<(Interval, P::Msg)> = msgs.to_vec();
        sorted.sort_by_key(|(iv, _)| (iv.start(), iv.end()));
        let mut out: Vec<(Interval, P::Msg)> = Vec::with_capacity(sorted.len());
        for (iv, m) in sorted {
            match out.last_mut() {
                Some((last_iv, last_m)) if *last_iv == iv => {
                    match self.program.combine(last_m, &m) {
                        Some(c) => *last_m = c,
                        None => out.push((iv, m)),
                    }
                }
                _ => out.push((iv, m)),
            }
        }
        Cow::Owned(out)
    }

    /// Whether this vertex's inbox qualifies for warp suppression.
    fn should_suppress(&self, lifespan: Interval, msgs: &[(Interval, P::Msg)]) -> bool {
        let Some(threshold) = self.suppression else {
            return false;
        };
        if msgs.is_empty() {
            return false; // nothing to suppress (all-active empty groups)
        }
        if lifespan.start() == TIME_MIN || lifespan.end() == TIME_MAX {
            return false; // per-point execution needs a bounded domain
        }
        let unit = msgs.iter().filter(|(iv, _)| iv.is_unit()).count();
        (unit as f64) >= threshold * (msgs.len() as f64)
    }
}

impl<P: IntervalProgram> WorkerLogic for IcmWorker<P> {
    type Msg = (Interval, P::Msg);

    fn superstep(
        &mut self,
        step: u64,
        inbox: &Inbox<Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
        globals: &Aggregators,
        partial: &mut Aggregators,
        counters: &mut UserCounters,
        sink: &mut TraceSink,
    ) {
        let graph = Arc::clone(&self.graph);
        let mut direct: Vec<(VIdx, Interval, P::Msg)> = Vec::new();
        if step == 1 {
            // Initialization superstep: every vertex is active for its
            // entire lifespan, with no messages. States are pre-partitioned
            // at the program's static boundaries (footnote 2), and compute
            // runs once per initial partition entry.
            let owned = std::mem::take(&mut self.owned);
            for &v in &owned {
                let vctx = VertexContext {
                    graph: &graph,
                    vertex: v,
                };
                let lifespan = vctx.lifespan();
                let init = self.program.init(&vctx);
                let mut partition = IntervalPartition::new(lifespan, init);
                for t in self.program.prepartition(&vctx) {
                    partition.split_at(t);
                }
                // Warm start (DESIGN.md §17): overlay pre-converged entries
                // *directly* into the partition, bypassing StateUpdates so
                // they are never reported as changes — a warm vertex holds
                // its fixpoint silently and only scatters if compute below
                // (or later messages) genuinely improves on it.
                if let Some(entries) = self.program.warm_start(&vctx) {
                    for (iv, s) in entries {
                        if let Some(clipped) = iv.intersect(lifespan) {
                            partition.set(clipped, s);
                        }
                    }
                    partition.coalesce();
                }
                let mut updates = StateUpdates::new();
                for (iv, state) in partition.iter() {
                    let mut ctx = ComputeContext {
                        graph: &graph,
                        vertex: v,
                        superstep: step,
                        globals,
                        partial,
                        updates: &mut updates,
                        tuple_interval: iv,
                        direct: &mut direct,
                    };
                    counters.compute_calls += 1;
                    self.program.compute(&mut ctx, iv, state, &[]);
                }
                let changed = updates.apply(&mut partition);
                self.states.put(v, partition);
                self.scatter_changes(v, &changed, step, outbox, globals, counters);
            }
            self.owned = owned;
            for (v, iv, m) in direct {
                outbox.send(v, (iv, m));
            }
            return;
        }

        // Regular superstep: vertices with messages are active; when the
        // program asks for an all-active superstep (fixed-iteration or
        // phased algorithms), every vertex participates over its whole
        // lifespan.
        type ActiveSet<'m, M> = Vec<(VIdx, Cow<'m, [(Interval, M)]>)>;
        let all_active = self.program.all_active(step, globals);
        let mut active: ActiveSet<'_, P::Msg> = Vec::new();
        if all_active {
            for i in 0..self.owned.len() {
                let v = self.owned[i];
                let msgs = inbox
                    .messages_for(v)
                    .map(|raw| self.precombine(raw))
                    .unwrap_or(Cow::Borrowed(&[]));
                active.push((v, msgs));
            }
        } else {
            for (v, raw) in inbox.iter() {
                active.push((v, self.precombine(raw)));
            }
        }
        // The warp arena and the message buffers move into locals for the
        // superstep so their borrows don't pin `self` while
        // `fold_in_place`/`scatter_changes` run.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut group = std::mem::take(&mut self.group);
        let mut buckets = std::mem::take(&mut self.buckets);
        for (v, msgs) in active {
            // Take the vertex state out of the map for the superstep and
            // reinsert it after the writes are applied: one lookup, no
            // re-borrow, no "checked above" unwrap.
            let Some(mut partition) = self.states.take(v) else {
                continue;
            };
            let lifespan = partition.lifespan();
            let mut updates = StateUpdates::new();

            // All-active supersteps must cover message-free intervals
            // with empty-group compute calls, which the per-point
            // suppressed path cannot do — warp (with the sentinel span)
            // handles those supersteps.
            if !all_active && self.should_suppress(lifespan, &msgs) {
                counters.warp_suppressions += 1;
                // Time-point-centric fallback: bucket messages per point
                // in a dense offset-indexed table (bounded lifespans are a
                // precondition of suppression). The table is the worker's,
                // so no superstep allocates one.
                let base = lifespan.start();
                let points = lifespan.len() as usize;
                if buckets.len() < points {
                    buckets.resize_with(points, Vec::new);
                }
                for (iv, m) in msgs.iter() {
                    let Some(clipped) = iv.intersect(lifespan) else {
                        continue;
                    };
                    for t in clipped.points() {
                        buckets[(t - base) as usize].push(m.clone());
                    }
                }
                for (off, bucket) in buckets[..points].iter_mut().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let t = base + off as Time;
                    let point = Interval::point(t);
                    let state = partition
                        .value_at(t)
                        // lint:allow(no-unwrap) — t comes from clipping the
                        // message interval against the lifespan, and the
                        // partition covers the lifespan by construction.
                        .expect("bucket inside lifespan")
                        .clone();
                    self.fold_in_place(bucket);
                    let mut ctx = ComputeContext {
                        graph: &graph,
                        vertex: v,
                        superstep: step,
                        globals,
                        partial,
                        updates: &mut updates,
                        tuple_interval: point,
                        direct: &mut direct,
                    };
                    counters.compute_calls += 1;
                    self.program.compute(&mut ctx, point, &state, bucket);
                    bucket.clear();
                }
            } else {
                counters.warp_invocations += 1;
                scratch.outer.clear();
                scratch.outer.extend(partition.iter().map(|(iv, _)| iv));
                scratch.inner.clear();
                scratch.inner.extend(msgs.iter().map(|(iv, _)| *iv));
                if all_active {
                    // A sentinel span covering the lifespan makes warp
                    // emit tuples over the whole vertex, so intervals with
                    // no messages still get (empty-group) compute calls.
                    scratch.inner.push(lifespan);
                }
                // The trace separates the alignment operator itself
                // (`warp_ns`, its output sizes) from the user compute
                // calls consuming its tuples — the paper's warp-scope
                // blowups show up as `warp_group_msgs` ≫ messages in.
                let tuples = sink.timed(key::WARP_NS, || scratch.warp());
                sink.add(key::WARP_TUPLES, tuples.len() as u64);
                for tuple in tuples {
                    let state = partition
                        .value_at(tuple.interval.start())
                        // lint:allow(no-unwrap) — warp property 1: every
                        // tuple interval is a subset of exactly one outer
                        // (state) interval, so the lookup cannot miss.
                        .expect("warp tuple inside lifespan")
                        .clone();
                    group.clear();
                    group.extend(
                        tuple
                            .inner
                            .iter()
                            .filter(|&&i| i < msgs.len())
                            .map(|&i| msgs[i].1.clone()),
                    );
                    sink.add(key::WARP_GROUP_MSGS, group.len() as u64);
                    self.fold_in_place(&mut group);
                    let mut ctx = ComputeContext {
                        graph: &graph,
                        vertex: v,
                        superstep: step,
                        globals,
                        partial,
                        updates: &mut updates,
                        tuple_interval: tuple.interval,
                        direct: &mut direct,
                    };
                    counters.compute_calls += 1;
                    self.program
                        .compute(&mut ctx, tuple.interval, &state, &group);
                }
            }

            let changed = updates.apply(&mut partition);
            self.states.put(v, partition);
            self.scatter_changes(v, &changed, step, outbox, globals, counters);
        }
        self.scratch = scratch;
        self.group = group;
        self.buckets = buckets;
        for (v, iv, m) in direct {
            outbox.send(v, (iv, m));
        }
    }
}

/// Checkpointing for ICM workers: the per-vertex interval partitions are
/// the complete user state — `scratch` and `emitted` are ephemeral, scatter segments
/// live precomputed in the frozen graph, and the config fields never
/// change mid-run. The arena iterates in ascending vertex-id order, so
/// the encoding is byte-identical to the ordered-map representation it
/// replaced (and stable across checkpoint/restore cycles).
impl<P: IntervalProgram> Snapshot for IcmWorker<P> {
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        put_varint(self.states.len() as u64, buf);
        for (v, partition) in self.states.iter() {
            put_varint(u64::from(v.0), buf);
            partition.lifespan().encode(buf);
            put_varint(partition.len() as u64, buf);
            for (iv, s) in partition.iter() {
                iv.encode(buf);
                s.encode(buf);
            }
        }
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        let mut cur = bytes;
        let count = get_varint(&mut cur).ok_or("vertex state count")?;
        let mut states = StateArena::new(&self.owned);
        for _ in 0..count {
            let raw = get_varint(&mut cur).ok_or("vertex id")?;
            let v = u32::try_from(raw).map_err(|_| "vertex id exceeds u32")?;
            let lifespan = Interval::decode(&mut cur).ok_or("vertex lifespan")?;
            let n = get_varint(&mut cur).ok_or("partition entry count")?;
            let mut entries: Vec<(Interval, P::State)> = Vec::new();
            for _ in 0..n {
                let iv = Interval::decode(&mut cur).ok_or("entry interval")?;
                let s = P::State::decode(&mut cur).ok_or("entry state")?;
                entries.push((iv, s));
            }
            // Re-validate the tiling before handing the entries to
            // `IntervalPartition::from_entries`, which panics on violation:
            // restore stays total even on a corrupted blob.
            let tiles = !entries.is_empty()
                && entries[0].0.start() == lifespan.start()
                && entries[entries.len() - 1].0.end() == lifespan.end()
                && entries.windows(2).all(|w| w[0].0.end() == w[1].0.start());
            if !tiles {
                return Err("checkpoint entries do not tile the lifespan");
            }
            states
                .try_put(VIdx(v), IntervalPartition::from_entries(lifespan, entries))
                .map_err(|_| "checkpoint vertex not owned by this worker")?;
        }
        if !cur.is_empty() {
            return Err("trailing bytes in worker checkpoint");
        }
        self.states = states;
        Ok(())
    }
}

/// Runs `program` over `graph` with `config` — the one way to start an
/// interval-centric run — returning final states and metrics.
/// Deterministic for a fixed worker count.
///
/// The graph is *borrowed*: the engine clones the `Arc` per worker, so a
/// resident process (the serving layer, a bench loop) can execute many
/// runs against one loaded graph without ever giving up its handle.
///
/// `master` is the optional MasterCompute hook, evaluated at every barrier
/// (Sec. IV-A2); it composes with [`IcmConfig::recovery`] — after a
/// rollback it is consulted again for the replayed supersteps.
///
/// # Errors
///
/// Poisoned workers, codec corruption, a spent superstep cap or budget,
/// an unusable worker count or recovery schedule, an exhausted retry
/// budget ([`BspError::RecoveryExhausted`]): see [`BspError`].
pub fn run_icm<P: IntervalProgram>(
    graph: &Arc<TemporalGraph>,
    program: Arc<P>,
    config: &IcmConfig,
    master: Option<MasterHook<'_>>,
) -> Result<IcmResult<P::State>, BspError> {
    let recovery = config.recovery.as_ref().map(Recovery::new).transpose()?;
    let partition = Arc::new(config.partition.build(graph, config.workers)?);
    let workers = build_workers(graph, &program, config, &partition);
    // Programs requesting an all-active next superstep keep the run alive
    // through idle (message-free) barriers.
    let mut master = keep_alive(
        move |step, globals| program.all_active(step, globals),
        master,
    );
    let (workers, metrics) = run_bsp(&config.bsp, recovery, workers, partition, Some(&mut master))?;
    Ok(collect_result(workers, metrics))
}

/// One ICM worker per partition, with empty state arenas and fresh scratch.
fn build_workers<P: IntervalProgram>(
    graph: &Arc<TemporalGraph>,
    program: &Arc<P>,
    config: &IcmConfig,
    partition: &Arc<PartitionMap>,
) -> Vec<IcmWorker<P>> {
    (0..config.workers)
        .map(|w| {
            let owned = partition.owned_by(w);
            IcmWorker {
                graph: Arc::clone(graph),
                program: Arc::clone(program),
                combiner: config.combiner,
                suppression: config.suppression_threshold,
                states: StateArena::new(&owned),
                owned,
                scratch: WarpScratch::new(),
                emitted: Vec::new(),
                group: Vec::new(),
                buckets: Vec::new(),
            }
        })
        .collect()
}

/// Coalesces the per-worker partitions into the externally-keyed result.
fn collect_result<P: IntervalProgram>(
    workers: Vec<IcmWorker<P>>,
    metrics: RunMetrics,
) -> IcmResult<P::State> {
    let mut states = BTreeMap::new();
    for mut worker in workers {
        for (v, mut partition) in worker.states.drain() {
            partition.coalesce();
            let vid = worker.graph.vertex(v).vid;
            states.insert(vid, partition.into_entries());
        }
    }
    IcmResult { states, metrics }
}
