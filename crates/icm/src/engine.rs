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
//!
//! A worker keeps each owned vertex's [`IntervalPartition`] in one slot of
//! a [`StateTable`], the table every baseline platform keeps its states
//! in: a superstep takes a vertex's partition out of its slot and puts it
//! back, and checkpoint and restore are the table's, through the
//! partition's [`Wire`](graphite_bsp::codec::Wire) codec.
//!
//! Every buffer this pipeline touches belongs to the worker and is reused
//! across vertices and supersteps (DESIGN.md §16.3): the precombined
//! inbox, the warp arena with its one `members` arena of groups, the
//! materialized message group, the suppressed path's per-point buckets
//! and the [`StateUpdates`] apply buffers. Scatter sends straight into the
//! outbox. At `Full` trace level each phase of a vertex is timed as one
//! span (`precombine_ns`, `warp_ns`, `state_apply_ns`, `scatter_ns`),
//! never per tuple or per message.

use crate::program::{
    ComputeContext, EdgeDirection, IntervalProgram, ScatterContext, VertexContext,
};
use crate::state::StateUpdates;
use crate::warp::WarpScratch;
use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::engine::{keep_alive, run_bsp, Fold, Inbox, Outbox, WorkerLogic};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::partition::PartitionMap;
use graphite_bsp::state::StateTable;
use graphite_bsp::trace::{key, TraceSink};
use graphite_bsp::MasterHook;
use graphite_part::RunConfig;
use graphite_tgraph::graph::{SegIdx, TemporalGraph, VIdx, VertexId};
use graphite_tgraph::iset::IntervalPartition;
use graphite_tgraph::time::{Interval, Time, TIME_MAX, TIME_MIN};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of one GRAPHITE run.
#[derive(Clone, Debug)]
pub struct IcmConfig {
    /// Workers, placement and the substrate options (recovery among
    /// them), honoured field for field.
    pub run: RunConfig,
    /// Enable the inline warp combiner when the program defines one
    /// (Sec. VI; on for all the paper's experiments, ablated in Fig. 6(b)).
    pub combiner: bool,
    /// Warp-suppression threshold: when at least this fraction of a
    /// vertex's incoming messages are unit-length, skip warp and execute
    /// per time-point (Sec. VI; paper default 70 %, ablated in Fig. 6(c)).
    /// `None` disables suppression.
    pub suppression_threshold: Option<f64>,
}

/// The paper's settings: combiner on, suppression at 70 %, on
/// [`RunConfig::default`].
impl Default for IcmConfig {
    fn default() -> Self {
        IcmConfig {
            run: RunConfig::default(),
            combiner: true,
            suppression_threshold: Some(0.7),
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
    combiner: bool,
    suppression: Option<f64>,
    /// Each owned vertex's interval partition, one slot per vertex.
    /// Iteration is ascending by vertex index, so final-state collection
    /// and checkpoint encodings are deterministic.
    table: StateTable<IntervalPartition<P::State>>,
    /// One vertex's inbox after the receiver's precombine.
    combined: Vec<(Interval, P::Msg)>,
    /// `(start, end, position)` of each inbox message, sorted when an
    /// inbox arrives out of order (the allocation-free stand-in for a
    /// stable sort).
    order: Vec<(Time, Time, u32)>,
    /// Warp arena: kernel storage, the staged span lists, the tuples and
    /// the one members arena their groups index into.
    scratch: WarpScratch,
    /// A warp tuple's message group, when one must be materialized (no
    /// combiner, or the program declined to combine).
    group: Vec<P::Msg>,
    /// Per-time-point buckets of the suppressed path, indexed by offset
    /// from the vertex's lifespan start; all empty between vertices. A
    /// unit-lifespan graph only ever uses the first.
    buckets: Vec<Vec<P::Msg>>,
    /// State writes, the merge-apply swap buffer and the changed list.
    updates: StateUpdates<P::State>,
}

/// Folds `msgs` through the program's combiner by reference — the same
/// `combine` calls, in the same order, as a left fold
/// `combine(combine(m0, m1), m2)…` — returning the one combined message.
/// `None` when there are fewer than two messages or the program declines
/// a step; the caller then hands `compute` the list unchanged.
fn fold<'m, P: IntervalProgram>(
    program: &P,
    mut msgs: impl Iterator<Item = &'m P::Msg>,
) -> Option<P::Msg> {
    let first = msgs.next()?;
    let mut acc = program.combine(first, msgs.next()?)?;
    for m in msgs {
        acc = program.combine(&acc, m)?;
    }
    Some(acc)
}

/// The receiver's pre-warp combining of one vertex's inbox: messages with
/// *identical* intervals fold into one, in delivery order, when a combiner
/// exists (an exact combine already folded each sender's repeats before
/// the barrier; this folds across senders). Returns
/// `raw` itself when there is nothing to combine — it is already sorted
/// with no interval repeated — otherwise `out`, which receives the inbox
/// sorted by `(start, end)` — arrival order among equal intervals — and
/// folded in place. A declined combine keeps both messages.
fn precombine<'m, P: IntervalProgram>(
    program: &P,
    combiner: bool,
    raw: &'m [(Interval, P::Msg)],
    out: &'m mut Vec<(Interval, P::Msg)>,
    order: &mut Vec<(Time, Time, u32)>,
) -> &'m [(Interval, P::Msg)] {
    if !combiner {
        return raw;
    }
    let key = |(iv, _): &(Interval, P::Msg)| (iv.start(), iv.end());
    let (mut sorted, mut distinct) = (true, true);
    for w in raw.windows(2) {
        match key(&w[0]).cmp(&key(&w[1])) {
            Ordering::Less => {}
            Ordering::Equal => distinct = false,
            Ordering::Greater => {
                sorted = false;
                break;
            }
        }
    }
    if sorted && distinct {
        return raw;
    }
    out.clear();
    if sorted {
        out.extend_from_slice(raw);
    } else {
        // Sorting positions by (interval, position) is the stable sort of
        // the inbox, without the scratch a stable sort allocates.
        order.clear();
        order.extend(
            (0u32..)
                .zip(raw)
                .map(|(i, (iv, _))| (iv.start(), iv.end(), i)),
        );
        order.sort_unstable();
        out.extend(order.iter().map(|&(_, _, i)| raw[i as usize].clone()));
    }
    out.dedup_by(|(iv, m), (last_iv, last_m)| {
        if *last_iv != *iv {
            return false;
        }
        match program.combine(last_m, m) {
            Some(c) => {
                *last_m = c;
                true
            }
            None => false,
        }
    });
    out
}

/// Whether a vertex's inbox qualifies for warp suppression.
fn should_suppress<M>(threshold: Option<f64>, lifespan: Interval, msgs: &[(Interval, M)]) -> bool {
    let Some(threshold) = threshold else {
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

/// Runs scatter over the changed sub-intervals of vertex `v`, sending
/// straight into `outbox`.
///
/// `changed` is sorted and disjoint and each adjacency run is sorted by
/// lifespan start, so one cursor finds, per edge, the changed pieces its
/// span can meet: the first piece ending after the span's start only
/// moves forward along the run. Calls go out segment by segment, piece by
/// piece within a segment — the order (and so the outbox bytes) of the
/// full segment × changed product with the misses skipped.
#[expect(
    clippy::too_many_arguments,
    reason = "the worker's superstep context, passed through per vertex"
)]
fn scatter_changes<P: IntervalProgram>(
    graph: &TemporalGraph,
    program: &P,
    v: VIdx,
    changed: &[(Interval, P::State)],
    step: u64,
    outbox: &mut Outbox<(Interval, P::Msg)>,
    globals: &Aggregators,
    counters: &mut UserCounters,
) {
    let Some((last, _)) = changed.last() else {
        return;
    };
    // Last instant any changed interval reaches: the scan below stops at
    // the first edge starting at or after it.
    let max_end = last.end();
    let passes: &[EdgeDirection] = match program.direction() {
        EdgeDirection::Out => &[EdgeDirection::Out],
        EdgeDirection::In => &[EdgeDirection::In],
        EdgeDirection::Both => &[EdgeDirection::Out, EdgeDirection::In],
    };
    let refine = program.refine_scatter_by_properties();
    for &dir in passes {
        let run = match dir {
            EdgeDirection::Out => graph.out_run(v),
            EdgeDirection::In | EdgeDirection::Both => graph.in_run(v),
        };
        let mut lo = 0; // first changed piece ending after the span start
        for i in 0..run.len() {
            // The hot loop reads only the mirror columns (span, then
            // neighbor) — sequential scans over two flat arrays; the
            // edge row itself is never touched here.
            let span = run.span[i];
            if span.start() >= max_end {
                break; // sorted run: nothing further can intersect
            }
            while changed[lo].0.end() <= span.start() {
                lo += 1; // max_end > span.start keeps lo in bounds
            }
            let hits = changed[lo..]
                .iter()
                .take_while(|(iv, _)| iv.start() < span.end())
                .count();
            if hits == 0 {
                continue; // cheap reject before touching segments
            }
            let hits = &changed[lo..lo + hits];
            let e = run.edges[i];
            let target = run.nbr[i];
            // Property-refined segments are precomputed into the frozen
            // graph (each inside the lifespan), their property values
            // beside them; the unrefined case is exactly the lifespan.
            let (segments, first): (&[Interval], _) = if refine {
                (graph.scatter_segments(e), Some(graph.first_segment(e)))
            } else {
                (std::slice::from_ref(&run.span[i]), None)
            };
            for (k, seg) in segments.iter().enumerate() {
                let seg_idx = first.map(|SegIdx(f)| SegIdx(f + k as u32));
                for (civ, state) in hits {
                    let Some(cap) = civ.intersect(*seg) else {
                        continue;
                    };
                    counters.scatter_calls += 1;
                    let mut ctx = ScatterContext {
                        graph,
                        edge: e,
                        superstep: step,
                        globals,
                        interval: cap,
                        change: *civ,
                        segment: *seg,
                        seg: seg_idx,
                        direction: dir,
                        target,
                        outbox: &mut *outbox,
                    };
                    program.scatter(&mut ctx, cap, state);
                }
            }
        }
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
        let IcmWorker {
            graph,
            program,
            combiner,
            suppression,
            table,
            combined,
            order,
            scratch,
            group,
            buckets,
            updates,
        } = self;
        let graph: &TemporalGraph = graph;
        let program: &P = program;
        let owned = table.owned();
        let mut direct: Vec<(VIdx, Interval, P::Msg)> = Vec::new();
        if step == 1 {
            // Initialization superstep: every vertex is active for its
            // entire lifespan, with no messages. States are pre-partitioned
            // at the program's static boundaries (footnote 2), and compute
            // runs once per initial partition entry.
            for v in owned.iter().map(|&v| VIdx(v)) {
                let vctx = VertexContext { graph, vertex: v };
                let lifespan = vctx.lifespan();
                let init = program.init(&vctx);
                let mut partition = IntervalPartition::new(lifespan, init);
                for t in program.prepartition(&vctx) {
                    partition.split_at(t);
                }
                // Warm start (DESIGN.md §17): overlay pre-converged entries
                // *directly* into the partition, bypassing StateUpdates so
                // they are never reported as changes — a warm vertex holds
                // its fixpoint silently and only scatters if compute below
                // (or later messages) genuinely improves on it.
                if let Some(entries) = program.warm_start(&vctx) {
                    for (iv, s) in entries {
                        if let Some(clipped) = iv.intersect(lifespan) {
                            partition.set(clipped, s);
                        }
                    }
                    partition.coalesce();
                }
                for (iv, state) in partition.iter() {
                    let mut ctx = ComputeContext {
                        graph,
                        vertex: v,
                        superstep: step,
                        globals,
                        partial,
                        updates,
                        tuple_interval: iv,
                        direct: &mut direct,
                    };
                    counters.compute_calls += 1;
                    program.compute(&mut ctx, iv, state, &[]);
                }
                let changed = sink.timed(key::STATE_APPLY_NS, || updates.apply(&mut partition));
                sink.timed(key::SCATTER_NS, || {
                    scatter_changes(graph, program, v, changed, step, outbox, globals, counters)
                });
                *table.slot(v.0, 0) = Some(partition);
            }
            for (v, iv, m) in direct {
                outbox.send(v, (iv, m));
            }
            return;
        }

        // Regular superstep: vertices with messages are active; when the
        // program asks for an all-active superstep (fixed-iteration or
        // phased algorithms), every vertex participates over its whole
        // lifespan.
        let all_active = program.all_active(step, globals);
        let mut everyone;
        let mut messaged;
        let active: &mut dyn Iterator<Item = (VIdx, &[Self::Msg])> = if all_active {
            everyone = owned
                .iter()
                .map(|&v| (VIdx(v), inbox.messages_for(VIdx(v)).unwrap_or(&[])));
            &mut everyone
        } else {
            messaged = inbox.iter();
            &mut messaged
        };
        for (v, raw) in active {
            // Take the vertex state out of its slot for the superstep and
            // put it back after the writes are applied: no re-borrow, no
            // "checked above" unwrap.
            let Some(mut partition) = table.slot(v.0, 0).take() else {
                continue;
            };
            let msgs = sink.timed(key::PRECOMBINE_NS, || {
                precombine(program, *combiner, raw, combined, order)
            });
            let lifespan = partition.lifespan();
            let entries = partition.entries();

            // All-active supersteps must cover message-free intervals
            // with empty-group compute calls, which the per-point
            // suppressed path cannot do — warp (with the sentinel span)
            // handles those supersteps.
            if !all_active && should_suppress(*suppression, lifespan, msgs) {
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
                for (iv, m) in msgs {
                    let Some(clipped) = iv.intersect(lifespan) else {
                        continue;
                    };
                    for t in clipped.points() {
                        buckets[(t - base) as usize].push(m.clone());
                    }
                }
                // Buckets ascend in time, so the covering entry is found
                // by a cursor that only moves forward.
                let mut e = 0;
                for (off, bucket) in buckets[..points].iter_mut().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let t = base + off as Time;
                    while entries[e].0.end() <= t {
                        e += 1;
                    }
                    let point = Interval::point(t);
                    let folded = if *combiner {
                        fold(program, bucket.iter())
                    } else {
                        None
                    };
                    let group: &[P::Msg] = match &folded {
                        Some(acc) => std::slice::from_ref(acc),
                        None => bucket,
                    };
                    let mut ctx = ComputeContext {
                        graph,
                        vertex: v,
                        superstep: step,
                        globals,
                        partial,
                        updates,
                        tuple_interval: point,
                        direct: &mut direct,
                    };
                    counters.compute_calls += 1;
                    program.compute(&mut ctx, point, &entries[e].1, group);
                    bucket.clear();
                }
            } else {
                counters.warp_invocations += 1;
                scratch.outer.clear();
                scratch.outer.extend(entries.iter().map(|(iv, _)| *iv));
                scratch.inner.clear();
                scratch.inner.extend(msgs.iter().map(|(iv, _)| *iv));
                if all_active {
                    // A sentinel span covering the lifespan makes warp
                    // emit tuples over the whole vertex, so intervals with
                    // no messages still get (empty-group) compute calls.
                    // It is the last inner index, so it closes any group
                    // it joins.
                    scratch.inner.push(lifespan);
                }
                // The trace separates the alignment operator itself
                // (`warp_ns`, its output sizes) from the user compute
                // calls consuming its tuples — the paper's warp-scope
                // blowups show up as `warp_group_msgs` ≫ messages in.
                let tuples = sink.timed(key::WARP_NS, || scratch.warp().len());
                sink.add(key::WARP_TUPLES, tuples as u64);
                let warp: &WarpScratch = scratch;
                for tuple in warp.tuples() {
                    let ids = match warp.group(tuple).split_last() {
                        Some((&last, rest)) if last as usize == msgs.len() => rest,
                        _ => warp.group(tuple),
                    };
                    sink.add(key::WARP_GROUP_MSGS, ids.len() as u64);
                    let of = |&i: &u32| &msgs[i as usize].1;
                    let folded = if *combiner {
                        fold(program, ids.iter().map(of))
                    } else {
                        None
                    };
                    let group: &[P::Msg] = match (&folded, ids) {
                        (Some(acc), _) => std::slice::from_ref(acc),
                        (None, []) => &[],
                        (None, [i]) => std::slice::from_ref(of(i)),
                        (None, _) => {
                            group.clear();
                            group.extend(ids.iter().map(of).cloned());
                            group
                        }
                    };
                    // Warp property 1: the tuple lies inside its outer
                    // entry, which is partition entry `tuple.outer`.
                    let state = &entries[tuple.outer].1;
                    let mut ctx = ComputeContext {
                        graph,
                        vertex: v,
                        superstep: step,
                        globals,
                        partial,
                        updates,
                        tuple_interval: tuple.interval,
                        direct: &mut direct,
                    };
                    counters.compute_calls += 1;
                    program.compute(&mut ctx, tuple.interval, state, group);
                }
            }

            let changed = sink.timed(key::STATE_APPLY_NS, || updates.apply(&mut partition));
            sink.timed(key::SCATTER_NS, || {
                scatter_changes(graph, program, v, changed, step, outbox, globals, counters)
            });
            *table.slot(v.0, 0) = Some(partition);
        }
        for (v, iv, m) in direct {
            outbox.send(v, (iv, m));
        }
    }

    // With the combiner on, an exact combine folds each `(vertex,
    // interval)` on the sending side too.
    fn fold(&self) -> Option<Fold<Self::Msg>> {
        if !(self.combiner && self.program.exact_combine()) {
            return None;
        }
        let program = Arc::clone(&self.program);
        Some(Fold::new(
            |(iv, _)| (iv.start() as u64, iv.end() as u64),
            move |(iv, a), (_, b)| Some((*iv, program.combine(a, b)?)),
        ))
    }

    // The per-vertex interval partitions are the complete user state —
    // every other buffer is ephemeral, scatter segments live precomputed
    // in the frozen graph, and the config fields never change mid-run.
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.table.checkpoint(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.table.restore(bytes)
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
/// (Sec. IV-A2); it composes with recovery
/// ([`graphite_bsp::engine::BspConfig::recovery`]) — after a
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
    let run = &config.run;
    let partition = Arc::new(run.partition.build(graph, run.workers)?);
    let workers = build_workers(graph, &program, config, &partition);
    // Programs requesting an all-active next superstep keep the run alive
    // through idle (message-free) barriers.
    let mut master = keep_alive(
        move |step, globals| program.all_active(step, globals),
        master,
    );
    let (workers, metrics) = run_bsp(&run.bsp, workers, partition, Some(&mut master), None)?;
    Ok(collect_result(workers, metrics))
}

/// One ICM worker per partition, with empty state tables and fresh scratch.
fn build_workers<P: IntervalProgram>(
    graph: &Arc<TemporalGraph>,
    program: &Arc<P>,
    config: &IcmConfig,
    partition: &Arc<PartitionMap>,
) -> Vec<IcmWorker<P>> {
    (0..partition.workers())
        .map(|w| IcmWorker {
            graph: Arc::clone(graph),
            program: Arc::clone(program),
            combiner: config.combiner,
            suppression: config.suppression_threshold,
            table: StateTable::new(partition, w, 1),
            combined: Vec::new(),
            order: Vec::new(),
            scratch: WarpScratch::new(),
            group: Vec::new(),
            buckets: Vec::new(),
            updates: StateUpdates::new(),
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
        for (v, _, mut partition) in worker.table.drain(0) {
            partition.coalesce();
            let vid = worker.graph.vertex(VIdx(v)).vid;
            states.insert(vid, partition.into_entries());
        }
    }
    IcmResult { states, metrics }
}
