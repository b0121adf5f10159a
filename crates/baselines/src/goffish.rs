//! GoFFish-TS (GOF, Sec. VII-A3): models the temporal graph as a sequence
//! of snapshots processed *sequentially*. An outer loop walks the
//! snapshots in time order; within each snapshot an inner vertex-centric
//! BSP loop runs to convergence — one phase of a single BSP run, whose
//! phase hook is the outer loop; user logic may send *local* messages
//! (delivered next inner superstep, same snapshot) or *temporal* messages
//! addressed to a future snapshot, which the outer loop delivers when it
//! gets there. Vertex states persist across snapshots (stateful
//! execution). Unlike ICM, nothing is shared across time: each snapshot
//! pays its own compute and messaging.
//!
//! Like GoFFish-TS loading one time-series instance at a time, each
//! snapshot is loaded once, as a [`SnapshotTopology`], and every inner
//! superstep of that snapshot reads its edges from it.

use crate::topology::{window_of, EdgeWeights, SnapshotResult, SnapshotTopology};
use crate::vcm::{combine_push, sender_fold, VcmEdge, VcmTopology};
use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::codec::Wire;
use graphite_bsp::engine::{run_bsp, Fold, Inbox, Outbox, WorkerLogic};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::UserCounters;
use graphite_bsp::state::StateTable;
use graphite_bsp::trace::TraceSink;
use graphite_part::RunConfig;
use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};
use graphite_tgraph::time::{Interval, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// User logic for the GoFFish baseline.
pub trait GofProgram: Send + Sync + 'static {
    /// Per-vertex state, persisted across snapshots; wire-encodable, so
    /// every run can be checkpointed
    /// ([`graphite_bsp::engine::BspConfig::recovery`]).
    type State: Wire;
    /// Message payload (local and temporal messages share it).
    type Msg: Wire;

    /// Initial state, created the first time a vertex is touched.
    fn init(&self, vid: VertexId) -> Self::State;

    /// Vertex compute within a snapshot. May send local messages (same
    /// snapshot, next inner superstep) and temporal messages (future
    /// snapshot).
    fn compute(
        &self,
        ctx: &mut GofContext<'_, Self::Msg>,
        state: &mut Self::State,
        msgs: &[Self::Msg],
    );

    /// Optional associative combiner, accumulator first: the receiver
    /// folds each vertex's messages through it in delivery order.
    fn combine(&self, a: &Self::Msg, b: &Self::Msg) -> Option<Self::Msg> {
        let _ = (a, b);
        None
    }

    /// Whether [`combine`](Self::combine) is **exact** — never declining,
    /// independent of fold order and grouping bit for bit (integer
    /// min/max, boolean or) — so that local messages fold on the sending
    /// side too, one per target vertex and sender. `false` (the default)
    /// ships every message. Temporal messages never fold.
    fn exact_combine(&self) -> bool {
        false
    }

    /// Whether the walk runs backwards: snapshots in reverse time order,
    /// [`GofContext::out_edges`] yielding the in-edges, and "future"
    /// messages delivered to *earlier* snapshots — the mode
    /// reverse-traversing algorithms (Latest Departure) need.
    fn reverse(&self) -> bool {
        false
    }
}

/// Context for [`GofProgram::compute`].
pub struct GofContext<'a, M> {
    pub(crate) graph: &'a TemporalGraph,
    pub(crate) vertex: u32,
    pub(crate) vid: VertexId,
    pub(crate) time: Time,
    pub(crate) horizon: Time,
    pub(crate) floor: Time,
    pub(crate) reverse: bool,
    pub(crate) superstep: u64,
    pub(crate) out_edges: &'a [VcmEdge],
    pub(crate) local: &'a mut Vec<(u32, M)>,
    pub(crate) future: &'a mut Vec<(u32, Time, M)>,
}

impl<'a, M> GofContext<'a, M> {
    /// The snapshot's time-point.
    pub fn time(&self) -> Time {
        self.time
    }

    /// The inner superstep number within this snapshot.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The dense vertex index.
    pub fn vertex(&self) -> u32 {
        self.vertex
    }

    /// The external vertex id.
    pub fn vid(&self) -> VertexId {
        self.vid
    }

    /// Out-edges alive at this snapshot, weights resolved. When the
    /// program walks in [`GofProgram::reverse`] this yields the in-edges
    /// instead, with `target` the source.
    pub fn out_edges(&self) -> &'a [VcmEdge] {
        self.out_edges
    }

    /// The full temporal graph — GoFFish-TS vertices own their temporal
    /// subgraph, so static edge metadata for other time-points is
    /// accessible (needed by reverse traversals that must validate edge
    /// liveness at the departure snapshot).
    pub fn graph(&self) -> &'a TemporalGraph {
        self.graph
    }

    /// Sends a message within this snapshot (next inner superstep).
    pub fn send_local(&mut self, target: u32, msg: M) {
        self.local.push((target, msg));
    }

    /// The exclusive end of the snapshot window: messages addressed at or
    /// beyond it can never be delivered.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Sends a message to `target` at a "future" snapshot `time` — a later
    /// one in forward mode, an earlier one in reverse mode. Messages the
    /// walk can no longer deliver are dropped.
    pub fn send_future(&mut self, target: u32, time: Time, msg: M) {
        let deliverable = if self.reverse {
            time < self.time && time >= self.floor
        } else {
            time > self.time && time < self.horizon
        };
        if deliverable {
            self.future.push((target, time, msg));
        }
    }
}

/// One BSP worker of a GoFFish walk, built once per run and kept across
/// its time-points: the vertex states stay resident in its
/// [`StateTable`], and only the snapshot and the delivered temporal
/// messages change from one time-point to the next.
struct GofWorker<P: GofProgram> {
    program: Arc<P>,
    /// The current time-point's snapshot, shared by every worker.
    snapshot: Arc<SnapshotTopology>,
    horizon: Time,
    floor: Time,
    table: StateTable<P::State>,
    /// Temporal messages delivered to this time-point, `(target,
    /// payload)` in send order until superstep 1 groups them.
    initial: Vec<(u32, P::Msg)>,
    /// The current vertex's messages after the receiver-side combiner.
    combined: Vec<P::Msg>,
    /// The current vertex's local sends, drained into the outbox in order.
    local: Vec<(u32, P::Msg)>,
    future_out: Vec<(u32, Time, P::Msg)>,
}

impl<P: GofProgram> GofWorker<P> {
    fn run_vertex(
        &mut self,
        v: u32,
        step: u64,
        msgs: &[P::Msg],
        outbox: &mut Outbox<(u32, P::Msg)>,
        counters: &mut UserCounters,
    ) {
        let snapshot = &self.snapshot;
        if !snapshot.is_active(v) {
            return; // vertex absent from this snapshot: message dropped
        }
        let vid = snapshot.logical_vid(v);
        let reverse = self.program.reverse();
        let queued = self.future_out.len();
        let state = self
            .table
            .slot(v, 0)
            .get_or_insert_with(|| self.program.init(vid));
        let mut ctx = GofContext {
            graph: snapshot.graph(),
            vertex: v,
            vid,
            time: snapshot.time(),
            horizon: self.horizon,
            floor: self.floor,
            reverse,
            superstep: step,
            out_edges: if reverse {
                snapshot.in_slice(v)
            } else {
                snapshot.out_slice(v)
            },
            local: &mut self.local,
            future: &mut self.future_out,
        };
        counters.compute_calls += 1;
        self.program.compute(&mut ctx, state, msgs);
        // Temporal messages are charged as messages in the superstep that
        // sends them (they travel via disk in GoFFish); count their
        // encoded size too.
        for (_, _, m) in &self.future_out[queued..] {
            counters.messages_sent += 1;
            counters.wire_messages += 1;
            counters.bytes_sent += m.encoded_len() as u64 + 12;
        }
        for (target, m) in self.local.drain(..) {
            outbox.send(VIdx(target), (target, m));
        }
    }
}

impl<P: GofProgram> WorkerLogic for GofWorker<P> {
    type Msg = (u32, P::Msg);

    fn superstep(
        &mut self,
        step: u64,
        inbox: &Inbox<Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
        _globals: &Aggregators,
        _partial: &mut Aggregators,
        counters: &mut UserCounters,
        _sink: &mut TraceSink,
    ) {
        let mut combined = std::mem::take(&mut self.combined);
        if step == 1 {
            // GoFFish-TS semantics: the inner VCM loop's first superstep
            // runs over every vertex of the *current snapshot* (its own
            // superstep 1), with any temporal messages queued for this
            // time-point delivered alongside. The sort is stable, so each
            // vertex folds its messages in send order.
            let mut initial = std::mem::take(&mut self.initial);
            initial.sort_by_key(|&(v, _)| v);
            let mut arrivals = initial.iter().peekable();
            for &v in self.table.owned().iter() {
                combined.clear();
                while let Some((_, m)) = arrivals.next_if(|(dst, _)| *dst == v) {
                    combine_push(&mut combined, m, |a, b| self.program.combine(a, b));
                }
                self.run_vertex(v, step, &combined, outbox, counters);
            }
            initial.clear();
            self.initial = initial;
        } else {
            for (v, raw) in inbox.iter() {
                combined.clear();
                for (_, m) in raw {
                    combine_push(&mut combined, m, |a, b| self.program.combine(a, b));
                }
                self.run_vertex(v.0, step, &combined, outbox, counters);
            }
        }
        self.combined = combined;
    }

    fn fold(&self) -> Option<Fold<Self::Msg>> {
        let program = Arc::clone(&self.program);
        sender_fold(self.program.exact_combine(), move |a, b| {
            program.combine(a, b)
        })
    }

    // The state table plus this time-point's temporal traffic: the
    // messages delivered to it, which superstep 1 consumes, and the ones
    // it has queued for later time-points. A rollback to the phase's
    // first boundary thus re-delivers the first, and drops the entries
    // queued since the boundary instead of sending them twice.
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.initial.encode(buf);
        self.future_out.encode(buf);
        self.table.checkpoint(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        let mut cur = bytes;
        let initial = Vec::decode(&mut cur).ok_or("delivered temporal messages")?;
        let future_out = Vec::decode(&mut cur).ok_or("queued temporal messages")?;
        self.table.restore(cur)?;
        self.initial = initial;
        self.future_out = future_out;
        Ok(())
    }
}

/// Configuration of one GoFFish run.
#[derive(Clone, Debug)]
pub struct GofConfig {
    /// The run as a whole: the time-points are the phases of one BSP run,
    /// so every option — the cap and budget, the fault plan, the
    /// perturbation, recovery and the trace — spans the whole walk.
    pub run: RunConfig,
    /// Window to walk; `None` takes
    /// [`graphite_tgraph::snapshot::snapshot_window`].
    pub window: Option<Interval>,
    /// Record the state map after every snapshot (for time-indexed
    /// result comparison).
    pub collect_states: bool,
    /// Edge-property resolution.
    pub weights: EdgeWeights,
}

/// Runs `program` snapshot by snapshot over the window. The metrics
/// charge temporal messages too, each in the superstep that sends it.
///
/// # Errors
///
/// [`BspError::Config`] for an unusable worker count or a graph with no
/// bounded window and none given, a spent whole-run cap or budget, else
/// the [`BspError`] of the walk's one run.
pub fn run_goffish<P: GofProgram>(
    graph: Arc<TemporalGraph>,
    program: Arc<P>,
    config: &GofConfig,
) -> Result<SnapshotResult<P::State>, BspError> {
    let run = &config.run;
    let window = window_of(&graph, config.window, "GoFFish")?;
    let partition = Arc::new(run.partition.build(&graph, run.workers)?);
    let snapshot = |t| Arc::new(SnapshotTopology::new(Arc::clone(&graph), t, config.weights));
    // A reverse program walks the window backwards.
    let (mut t, dt) = if program.reverse() {
        (window.end() - 1, -1)
    } else {
        (window.start(), 1)
    };
    let first = snapshot(t);
    let workers: Vec<GofWorker<P>> = (0..run.workers)
        .map(|w| GofWorker {
            program: Arc::clone(&program),
            snapshot: Arc::clone(&first),
            horizon: window.end(),
            floor: window.start(),
            table: StateTable::new(&partition, w, 1),
            initial: Vec::new(),
            combined: Vec::new(),
            local: Vec::new(),
            future_out: Vec::new(),
        })
        .collect();
    // Temporal messages by delivery time, `(target, payload)` in send order.
    let mut queue: BTreeMap<Time, Vec<(u32, P::Msg)>> = BTreeMap::new();
    let mut per_snapshot = Vec::new();
    // The outer loop, run at each time-point's quiescent barrier: queue
    // the temporal messages it sent, keep its states, then seat the next
    // time-point and hand its messages to their owners.
    let mut next_time_point = |workers: &mut [GofWorker<P>]| {
        for worker in workers.iter_mut() {
            for (target, time, m) in worker.future_out.drain(..) {
                queue.entry(time).or_default().push((target, m));
            }
        }
        if config.collect_states {
            let states = workers.iter().flat_map(|w| w.table.iter());
            per_snapshot.push((t, states.map(|(v, _, s)| (v, s.clone())).collect()));
        }
        t += dt;
        if !window.contains_point(t) {
            return false;
        }
        let snapshot = snapshot(t);
        for worker in workers.iter_mut() {
            worker.snapshot = Arc::clone(&snapshot);
        }
        for (v, m) in queue.remove(&t).into_iter().flatten() {
            workers[partition.worker_of(VIdx(v))].initial.push((v, m));
        }
        true
    };
    let (_, metrics) = run_bsp(
        &run.bsp,
        workers,
        Arc::clone(&partition),
        None,
        Some(&mut next_time_point),
    )?;
    Ok(SnapshotResult {
        per_snapshot,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_bsp::fault::FaultPlan;
    use graphite_bsp::recover::RecoveryConfig;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};

    /// Temporal SSSP under GoFFish: at each snapshot, a vertex whose cost
    /// improved relays `cost + edge cost` to each live out-edge's sink at
    /// the arrival snapshot `t + travel time`.
    struct GofSssp {
        source: VertexId,
    }

    impl GofProgram for GofSssp {
        type State = i64;
        type Msg = i64;
        fn init(&self, vid: VertexId) -> i64 {
            if vid == self.source {
                0
            } else {
                i64::MAX
            }
        }
        fn compute(&self, ctx: &mut GofContext<i64>, state: &mut i64, msgs: &[i64]) {
            let best = msgs.iter().copied().min().unwrap_or(i64::MAX);
            let arrived = best < *state;
            if arrived {
                *state = best;
            }
            // The GoFFish idiom: a vertex with a finite cost must stay
            // active in every later snapshot, because edges (and costs)
            // change over time — so it relays along the currently-live
            // edges AND explicitly carries its own state to the next
            // snapshot. This per-snapshot rescatter and state hand-off is
            // exactly the redundancy ICM's warp removes.
            let _ = arrived;
            if *state < i64::MAX {
                let dist = *state;
                let t = ctx.time();
                let me = ctx.vertex();
                let edges: Vec<VcmEdge> = ctx.out_edges().to_vec();
                for e in edges {
                    ctx.send_future(e.target, t + e.w2, dist + e.w1);
                }
                ctx.send_future(me, t + 1, dist);
            }
        }
        fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
            Some(*a.min(b))
        }

        fn exact_combine(&self) -> bool {
            true
        }
    }

    fn weights(g: &TemporalGraph) -> EdgeWeights {
        EdgeWeights {
            w1: g.label("travel-cost"),
            w2: g.label("travel-time"),
        }
    }

    fn config(workers: usize, weights: EdgeWeights) -> GofConfig {
        GofConfig {
            run: RunConfig {
                workers,
                ..Default::default()
            },
            window: None,
            collect_states: true,
            weights,
        }
    }

    #[test]
    fn gof_sssp_matches_paper_costs_over_time() {
        let graph = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&graph),
            Arc::new(GofSssp {
                source: transit_ids::A,
            }),
            &config(2, weights(&graph)),
        )
        .unwrap();
        let idx = |vid| graph.vertex_index(vid).unwrap().0;
        // B: inf before 4, 4 during [4,6), 3 from 6 (within window end 9).
        let b = idx(transit_ids::B);
        assert_eq!(r.state_at(b, 3), Some(&i64::MAX));
        assert_eq!(r.state_at(b, 4), Some(&4));
        assert_eq!(r.state_at(b, 5), Some(&4));
        assert_eq!(r.state_at(b, 6), Some(&3));
        // E: 7 at [6,9); the cost-5 path arrives exactly at 9, outside the
        // window [0,9), so the last recorded snapshot still shows 7.
        let e = idx(transit_ids::E);
        assert_eq!(r.state_at(e, 5), Some(&i64::MAX));
        assert_eq!(r.state_at(e, 6), Some(&7));
        assert_eq!(r.state_at(e, 8), Some(&7));
        // D: 2 from 2 on. F: never reached.
        assert_eq!(r.state_at(idx(transit_ids::D), 2), Some(&2));
        assert_eq!(r.state_at(idx(transit_ids::F), 8), Some(&i64::MAX));
    }

    #[test]
    fn gof_does_not_share_messages_across_time() {
        let graph = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&graph),
            Arc::new(GofSssp {
                source: transit_ids::A,
            }),
            &config(1, weights(&graph)),
        )
        .unwrap();
        // ICM sends 6 messages for this fixture; GoFFish re-scatters per
        // snapshot and must send strictly more.
        assert!(r.metrics.counters.messages_sent > 6);
        // One outer iteration per snapshot, each at least one superstep.
        assert!(r.metrics.supersteps >= 9);
    }

    #[test]
    fn an_unbounded_graph_without_a_window_is_a_config_error() {
        let err = run_goffish(
            crate::topology::unbounded_graph(),
            Arc::new(GofSssp {
                source: VertexId(0),
            }),
            &config(4, EdgeWeights::default()),
        )
        .expect_err("no finite set of snapshots");
        assert!(
            matches!(&err, BspError::Config { detail } if detail.contains("GoFFish needs a bounded window")),
            "{err:?}"
        );
    }

    /// Counts the temporal messages each vertex receives, uncombined, and
    /// sends one along every live out-edge to the next time-point: a
    /// message delivered twice, or lost, changes a state.
    struct Arrivals;

    impl GofProgram for Arrivals {
        type State = u64;
        type Msg = u64;
        fn init(&self, _vid: VertexId) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut GofContext<u64>, state: &mut u64, msgs: &[u64]) {
            *state += msgs.len() as u64;
            let t = ctx.time();
            let targets: Vec<u32> = ctx.out_edges().iter().map(|e| e.target).collect();
            for target in targets {
                ctx.send_future(target, t + 1, 1);
            }
        }
    }

    /// Every time-point's phase begins with a checkpoint of the states and
    /// the temporal traffic. Each time-point here is one superstep (every
    /// message is temporal), so superstep 5 is the fifth time-point's
    /// first: a panic there — after the other worker has queued its sends
    /// for later time-points — rolls back to that phase's boundary, under
    /// an interval longer than a phase. The temporal messages delivered to
    /// the time-point must be handed back, and the queued ones must not be
    /// sent twice.
    #[test]
    fn a_faulted_run_recovers_to_the_clean_result() {
        fn check<P: GofProgram>(program: P)
        where
            P::State: PartialEq + std::fmt::Debug,
        {
            let graph = Arc::new(transit_graph());
            let program = Arc::new(program);
            let run = |cfg: &GofConfig| run_goffish(Arc::clone(&graph), Arc::clone(&program), cfg);
            let clean = run(&config(2, weights(&graph))).unwrap();
            for worker in 0..2 {
                for step in [1, 5] {
                    let mut faulted = config(2, weights(&graph));
                    faulted.run.bsp.fault_plan = Some(FaultPlan::panic_at(worker, step));
                    faulted.run.bsp.recovery = Some(RecoveryConfig::every(16));
                    let r = run(&faulted).unwrap();
                    let cell = format!("worker {worker}, step {step}");
                    assert_eq!(r.per_snapshot, clean.per_snapshot, "{cell}");
                    assert_eq!(r.metrics.counters, clean.metrics.counters, "{cell}");
                    assert_eq!(r.metrics.supersteps, clean.metrics.supersteps);
                    // The fault fires once per query, and the phase's
                    // boundary is the checkpoint right before it.
                    assert_eq!(r.metrics.recovery.rollbacks, 1, "{cell}");
                    assert_eq!(r.metrics.recovery.supersteps_replayed, 1, "{cell}");
                }
            }
        }
        check(GofSssp {
            source: transit_ids::A,
        });
        check(Arrivals);
    }

    /// The budget is the whole walk's: each time-point fits a budget the
    /// walk as a whole does not, and the error names the budget asked
    /// for.
    #[test]
    fn the_budget_spans_every_time_point() {
        let graph = Arc::new(transit_graph());
        let program = Arc::new(GofSssp {
            source: transit_ids::A,
        });
        let mut cfg = config(2, weights(&graph));
        let walk = run_goffish(Arc::clone(&graph), Arc::clone(&program), &cfg)
            .unwrap()
            .metrics
            .supersteps;
        cfg.run.bsp.superstep_budget = Some(walk - 1);
        let err = run_goffish(Arc::clone(&graph), Arc::clone(&program), &cfg).unwrap_err();
        assert_eq!(err, BspError::BudgetExceeded { budget: walk - 1 });
        cfg.run.bsp.superstep_budget = Some(walk);
        assert!(run_goffish(graph, program, &cfg).is_ok());
    }
}
