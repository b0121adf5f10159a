//! Chlonos (CHL) — our clone of Chronos (Sec. VII-A3): processes a *batch*
//! of consecutive snapshots concurrently in one vectorized layout. The
//! user's compute still runs separately per (vertex, snapshot) — exactly
//! like MSB — but messages pushed to the same sink vertex with identical
//! payloads at adjacent time-points are replaced by a single message
//! carrying the whole sub-interval, saving messages and bytes. Batch size
//! models the available distributed memory: graphs that don't fit run in
//! several batches and lose sharing across batch boundaries (the effect the
//! paper observes on Twitter with 5 batches).

use crate::topology::{run_ti_window, EdgeWeights, SnapshotResult, SnapshotTopology};
use crate::vcm::{combine_push, snapshot_states, VcmContext, VcmProgram};
use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::engine::{keep_alive, run_bsp, Fold, Inbox, Outbox, WorkerLogic};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::UserCounters;
use graphite_bsp::state::StateTable;
use graphite_bsp::trace::TraceSink;
use graphite_part::RunConfig;
use graphite_tgraph::graph::{TemporalGraph, VIdx};
use graphite_tgraph::time::{Interval, Time};
use std::sync::Arc;

/// Configuration of one Chlonos run.
#[derive(Clone, Debug)]
pub struct ChlConfig {
    /// The run as a whole: the batches are the phases of one BSP run, so
    /// every option — the cap and budget, the fault plan, the
    /// perturbation, recovery and the trace — spans the whole walk.
    pub run: RunConfig,
    /// Window to discretize; `None` takes
    /// [`graphite_tgraph::snapshot::snapshot_window`].
    pub window: Option<Interval>,
    /// Keep per-snapshot final states.
    pub collect_states: bool,
    /// Snapshots per in-memory batch (the paper's memory budget knob), at
    /// least 1.
    pub batch_size: usize,
}

/// Wire message: `(target, offset_lo, offset_hi, payload)` — the payload
/// applies to every snapshot offset in `[lo, hi)` of the current batch.
type ChlMsg<M> = (u32, u32, u32, M);

/// One BSP worker of a Chlonos walk. Its states sit in a [`StateTable`]
/// with one slot per (owned vertex, batch offset); every per-vertex list
/// is a worker-owned buffer cleared per vertex, so a steady superstep
/// allocates nothing. Each batch is one phase: the walk's hook seats the
/// next batch's snapshots on an emptied table.
struct ChlWorker<P: VcmProgram> {
    graph: Arc<TemporalGraph>,
    program: Arc<P>,
    /// The batch's snapshots, one per offset, shared by every worker.
    snapshots: Arc<[SnapshotTopology]>,
    table: StateTable<P::State>,
    /// The current vertex's combined messages, one list per offset.
    per_off: Vec<Vec<P::Msg>>,
    /// The current offset's sends, before the interval merge.
    sends: Vec<(u32, P::Msg)>,
    /// Interval messages `(target, lo, hi, payload)` still being extended,
    /// and their successor list while an offset is merged.
    open: Vec<ChlMsg<P::Msg>>,
    next_open: Vec<ChlMsg<P::Msg>>,
}

impl<P: VcmProgram> ChlWorker<P>
where
    P::Msg: PartialEq,
{
    /// Unpacks `raw` interval messages into the per-offset lists, folding
    /// each offset's messages in arrival order.
    fn unpack(&mut self, raw: &[ChlMsg<P::Msg>]) {
        self.per_off.iter_mut().for_each(Vec::clear);
        let batch_len = self.per_off.len() as u32;
        for (_, lo, hi, m) in raw {
            for off in *lo..(*hi).min(batch_len) {
                combine_push(&mut self.per_off[off as usize], m, |a, b| {
                    self.program.combine(a, b)
                });
            }
        }
    }

    /// Runs compute for every applicable snapshot offset of vertex `v` on
    /// the unpacked messages, merging each offset's sends into interval
    /// messages as it goes.
    #[expect(
        clippy::too_many_arguments,
        reason = "the worker's superstep context, passed through per vertex"
    )]
    fn process_vertex(
        &mut self,
        v: u32,
        step: u64,
        all_active: bool,
        outbox: &mut Outbox<ChlMsg<P::Msg>>,
        globals: &Aggregators,
        partial: &mut Aggregators,
        counters: &mut UserCounters,
    ) {
        let vid = self.graph.vertex(VIdx(v)).vid;
        let lifespan = self.graph.vertex(VIdx(v)).lifespan;
        for off in 0..self.per_off.len() {
            let msgs = &self.per_off[off];
            // A replica outside the lifespan, or idle at this offset,
            // does not compute; its offset still closes runs below.
            let computes = lifespan.contains_point(self.snapshots[off].time())
                && (step == 1 || all_active || !msgs.is_empty());
            if computes {
                let state = self
                    .table
                    .slot(v, off)
                    .get_or_insert_with(|| self.program.init(v, vid));
                let snapshot = &self.snapshots[off];
                let mut ctx = VcmContext {
                    vertex: v,
                    vid,
                    superstep: step,
                    out_edges: snapshot.out_slice(v),
                    in_edges: if self.program.needs_in_edges() {
                        snapshot.in_slice(v)
                    } else {
                        &[]
                    },
                    globals,
                    partial,
                    sends: &mut self.sends,
                };
                counters.compute_calls += 1;
                self.program.compute(&mut ctx, state, msgs);
            }
            // Merge identical payloads to the same target across adjacent
            // snapshot offsets into one interval message (the Chronos
            // trick): each open run, in order, absorbs the first equal
            // send of this offset or is flushed; the sends left over open
            // new runs, in send order.
            let off = off as u32;
            for (target, lo, hi, m) in self.open.drain(..) {
                if let Some(pos) = self
                    .sends
                    .iter()
                    .position(|(t2, m2)| *t2 == target && *m2 == m)
                {
                    self.sends.remove(pos);
                    self.next_open.push((target, lo, hi + 1, m));
                } else {
                    outbox.send(VIdx(target), (target, lo, hi, m));
                }
            }
            std::mem::swap(&mut self.open, &mut self.next_open);
            self.open.extend(
                self.sends
                    .drain(..)
                    .map(|(target, m)| (target, off, off + 1, m)),
            );
        }
        for (target, lo, hi, m) in self.open.drain(..) {
            outbox.send(VIdx(target), (target, lo, hi, m));
        }
    }
}

impl<P: VcmProgram> WorkerLogic for ChlWorker<P>
where
    P::Msg: PartialEq,
{
    type Msg = ChlMsg<P::Msg>;

    fn superstep(
        &mut self,
        step: u64,
        inbox: &Inbox<Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
        globals: &Aggregators,
        partial: &mut Aggregators,
        counters: &mut UserCounters,
        _sink: &mut TraceSink,
    ) {
        let all_active = step == 1 || self.program.all_active(step, globals);
        if all_active {
            // Owned vertices without messages first, ascending (at
            // superstep 1, every owned vertex), then the inbox.
            self.unpack(&[]);
            let mut arrivals = inbox.iter().map(|(v, _)| v.0).peekable();
            for &v in self.table.owned().iter() {
                if step > 1 && arrivals.next_if_eq(&v).is_some() {
                    continue;
                }
                self.process_vertex(v, step, true, outbox, globals, partial, counters);
            }
        }
        if step > 1 {
            for (v, raw) in inbox.iter() {
                self.unpack(raw);
                self.process_vertex(v.0, step, all_active, outbox, globals, partial, counters);
            }
        }
    }

    // An exact combine folds, per target, the messages of one offset
    // range.
    fn fold(&self) -> Option<Fold<Self::Msg>> {
        let program = Arc::clone(&self.program);
        self.program.exact_combine().then(|| {
            Fold::new(
                |&(_, lo, hi, _)| (u64::from(lo), u64::from(hi)),
                move |(t, lo, hi, a), (.., b)| Some((*t, *lo, *hi, program.combine(a, b)?)),
            )
        })
    }

    // The strided state table is the complete user state: every other
    // buffer is empty at a barrier.
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.table.checkpoint(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.table.restore(bytes)
    }
}

/// Runs `program` over the window in batches of `batch_size` snapshots,
/// each batch one phase of a single run. On a static topology one
/// snapshot stands for all of them (Sec. VII-B6).
///
/// # Errors
///
/// [`BspError::Config`] for a zero `batch_size`, an unusable worker count
/// or a graph with no bounded window and none given, a spent whole-run
/// cap or budget, else the [`BspError`] of the walk's one run.
pub fn run_chlonos<P>(
    graph: Arc<TemporalGraph>,
    program: Arc<P>,
    config: &ChlConfig,
) -> Result<SnapshotResult<P::State>, BspError>
where
    P: VcmProgram,
    P::Msg: PartialEq,
{
    // An empty batch would never advance the walk.
    if config.batch_size == 0 {
        return Err(BspError::Config {
            detail: "Chlonos batch_size must be at least 1".to_string(),
        });
    }
    run_ti_window(&graph, config.window, "Chlonos", |window| {
        let run = &config.run;
        let partition = Arc::new(run.partition.build(&graph, run.workers)?);
        // Chlonos runs structure-only (TI) programs, which read no edge
        // property, so its snapshots resolve none.
        let batch = |start: Time| -> Arc<[SnapshotTopology]> {
            let end = window.end().min(start + config.batch_size as Time);
            (start..end)
                .map(|t| SnapshotTopology::new(Arc::clone(&graph), t, EdgeWeights::default()))
                .collect()
        };
        let mut start = window.start();
        let mut current = batch(start);
        let workers: Vec<ChlWorker<P>> = (0..run.workers)
            .map(|w| ChlWorker {
                graph: Arc::clone(&graph),
                program: Arc::clone(&program),
                snapshots: Arc::clone(&current),
                table: StateTable::new(&partition, w, current.len()),
                per_off: current.iter().map(|_| Vec::new()).collect(),
                sends: Vec::new(),
                open: Vec::new(),
                next_open: Vec::new(),
            })
            .collect();
        let mut per_snapshot = Vec::new();
        // At each batch's quiescent barrier: keep its states, then seat the
        // next batch (the last may be shorter) on emptied tables.
        let mut next_batch = |workers: &mut [ChlWorker<P>]| {
            let end = start + current.len() as Time;
            let next = (end < window.end()).then(|| batch(end));
            let stride = next.as_ref().map_or(0, |b| b.len());
            let finished = workers
                .iter_mut()
                .flat_map(|w| w.table.drain(stride))
                .collect();
            if config.collect_states {
                per_snapshot.extend(snapshot_states(finished, start, current.len()));
            }
            let Some(next) = next else {
                return false;
            };
            for w in workers.iter_mut() {
                w.snapshots = Arc::clone(&next);
                w.per_off.resize_with(next.len(), Vec::new);
            }
            (current, start) = (next, end);
            true
        };
        // Keep phased programs alive through idle barriers when they
        // request an all-active next superstep.
        let mut master = keep_alive(|step, globals| program.all_active(step, globals), None);
        let (_, metrics) = run_bsp(
            &run.bsp,
            workers,
            partition,
            Some(&mut master),
            Some(&mut next_batch),
        )?;
        Ok(SnapshotResult {
            per_snapshot,
            metrics,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msb::{run_msb, MsbConfig};
    use crate::vcm::run_vcm;
    use graphite_bsp::fault::FaultPlan;
    use graphite_bsp::recover::RecoveryConfig;
    use graphite_tgraph::fixtures::transit_graph;
    use graphite_tgraph::graph::VertexId;
    use std::collections::BTreeMap;

    fn run_config(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            ..Default::default()
        }
    }

    fn msb(workers: usize) -> MsbConfig {
        MsbConfig {
            run: run_config(workers),
            window: None,
            collect_states: true,
        }
    }

    fn chl(workers: usize, batch_size: usize) -> ChlConfig {
        ChlConfig {
            run: run_config(workers),
            window: None,
            collect_states: true,
            batch_size,
        }
    }

    /// Per-snapshot BFS level from A (same program as the MSB test).
    struct Bfs {
        source: VertexId,
    }

    impl VcmProgram for Bfs {
        type State = i64;
        type Msg = i64;
        fn init(&self, _v: u32, vid: VertexId) -> i64 {
            if vid == self.source {
                0
            } else {
                i64::MAX
            }
        }
        fn compute(&self, ctx: &mut VcmContext<i64>, state: &mut i64, msgs: &[i64]) {
            let best = msgs.iter().copied().min().unwrap_or(i64::MAX);
            let improved = best < *state;
            if improved {
                *state = best;
            }
            if (ctx.superstep() == 1 && *state == 0) || improved {
                let next = state.saturating_add(1);
                for e in ctx.out_edges() {
                    ctx.send(e.target, next);
                }
            }
        }
        fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
            Some(*a.min(b))
        }

        fn exact_combine(&self) -> bool {
            true
        }
    }

    #[test]
    fn chlonos_matches_msb_results() {
        let graph = Arc::new(transit_graph());
        let bfs = || {
            Arc::new(Bfs {
                source: VertexId(0),
            })
        };
        for workers in [1, 2, 3] {
            let msb = run_msb(Arc::clone(&graph), bfs(), &msb(workers)).unwrap();
            for batch_size in [1, 3, 9, 100] {
                let chl =
                    run_chlonos(Arc::clone(&graph), bfs(), &chl(workers, batch_size)).unwrap();
                assert_eq!(chl.per_snapshot.len(), 9);
                for (t, states) in &msb.per_snapshot {
                    for (v, s) in states.iter().collect::<BTreeMap<_, _>>() {
                        assert_eq!(
                            chl.state_at(*v, *t),
                            Some(s),
                            "workers={workers} batch={batch_size} v={v} t={t}"
                        );
                    }
                }
            }
        }
    }

    /// Sends each out-edge's position in the snapshot's edge list and
    /// folds what it receives in arrival order, uncombined: the state
    /// records the order in which one sender's messages to one target
    /// arrived.
    struct SendOrder;

    impl VcmProgram for SendOrder {
        type State = u64;
        type Msg = u64;
        fn init(&self, _v: u32, _vid: VertexId) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut VcmContext<u64>, state: &mut u64, msgs: &[u64]) {
            for &m in msgs {
                *state = state.wrapping_mul(31).wrapping_add(m + 1);
            }
            if ctx.superstep() == 1 {
                let targets: Vec<u32> = ctx.out_edges().iter().map(|e| e.target).collect();
                for (i, target) in targets.into_iter().enumerate() {
                    ctx.send(target, i as u64);
                }
            }
        }
    }

    /// Two parallel edges 0 → 1 carry different, unchanging payloads, so
    /// their runs open at the same offset and flush together: vertex 1
    /// must see them in send order, as under MSB. A third, shorter edge
    /// keeps the topology from being static.
    #[test]
    fn parallel_sends_to_one_target_arrive_in_send_order() {
        use graphite_tgraph::builder::TemporalGraphBuilder;
        use graphite_tgraph::graph::EdgeId;
        let life = Interval::new(0, 4);
        let mut b = TemporalGraphBuilder::new();
        for vid in 0..3 {
            b.add_vertex(VertexId(vid), life).unwrap();
        }
        for (eid, src, dst, lifespan) in [
            (0, 0, 1, life),
            (1, 0, 1, life),
            (2, 2, 0, Interval::new(0, 2)),
        ] {
            b.add_edge(EdgeId(eid), VertexId(src), VertexId(dst), lifespan)
                .unwrap();
        }
        let graph = Arc::new(b.build().unwrap());
        for workers in [1, 2] {
            let msb = run_msb(Arc::clone(&graph), Arc::new(SendOrder), &msb(workers)).unwrap();
            for batch_size in [1, 4] {
                let chl = run_chlonos(
                    Arc::clone(&graph),
                    Arc::new(SendOrder),
                    &chl(workers, batch_size),
                )
                .unwrap();
                for (t, states) in &msb.per_snapshot {
                    for (v, s) in states.iter().collect::<BTreeMap<_, _>>() {
                        assert_eq!(
                            chl.state_at(*v, *t),
                            Some(s),
                            "workers={workers} batch={batch_size} v={v} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chlonos_same_compute_calls_fewer_messages_than_msb() {
        let graph = Arc::new(transit_graph());
        let msb = run_msb(
            Arc::clone(&graph),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &msb(2),
        )
        .unwrap();
        let chl = run_chlonos(
            Arc::clone(&graph),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &chl(2, 9),
        )
        .unwrap();
        // Sec. VII-B1: MSB and Chlonos have the same number of compute
        // calls for an algorithm on a graph.
        assert_eq!(
            chl.metrics.counters.compute_calls,
            msb.metrics.counters.compute_calls
        );
        // A->B exists over [3,6) with A's level-1 push identical at each
        // point; one batch merges those into fewer messages.
        assert!(chl.metrics.counters.messages_sent < msb.metrics.counters.messages_sent);
    }

    #[test]
    fn smaller_batches_mean_less_sharing() {
        let graph = Arc::new(transit_graph());
        let one = run_chlonos(
            Arc::clone(&graph),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &chl(4, 9),
        )
        .unwrap();
        let many = run_chlonos(
            Arc::clone(&graph),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &chl(4, 1),
        )
        .unwrap();
        // Nine one-snapshot batches each pay their own supersteps.
        assert!(many.metrics.supersteps > one.metrics.supersteps);
        assert!(many.metrics.counters.messages_sent >= one.metrics.counters.messages_sent);
        assert_eq!(
            many.metrics.counters.compute_calls,
            one.metrics.counters.compute_calls
        );
    }

    #[test]
    fn a_static_topology_computes_one_snapshot_for_the_whole_window() {
        let graph = crate::topology::static_graph();
        let program = Arc::new(Bfs {
            source: VertexId(0),
        });
        let r = run_chlonos(Arc::clone(&graph), Arc::clone(&program), &chl(4, 8)).unwrap();
        let topo = SnapshotTopology::new(Arc::clone(&graph), 0, EdgeWeights::default());
        let one = run_vcm(&Arc::new(topo), program, &RunConfig::default()).unwrap();
        assert_eq!(
            r.metrics.counters.compute_calls,
            one.metrics.counters.compute_calls
        );
        let points: Vec<Time> = r.per_snapshot.iter().map(|(t, _)| *t).collect();
        assert_eq!(points, (0..5).collect::<Vec<_>>());
        assert!(r.per_snapshot.iter().all(|(_, s)| *s == one.states));
    }

    #[test]
    fn an_unbounded_graph_without_a_window_is_a_config_error() {
        let err = run_chlonos(
            crate::topology::unbounded_graph(),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &chl(4, 8),
        )
        .expect_err("no finite set of snapshots");
        assert!(
            matches!(&err, BspError::Config { detail } if detail.contains("Chlonos needs a bounded window")),
            "{err:?}"
        );
    }

    /// The walk checkpoints at every batch's boundary: a worker panic is
    /// rolled back once and replayed to the clean run's states and
    /// counters.
    #[test]
    fn a_faulted_run_recovers_to_the_clean_result() {
        let graph = Arc::new(transit_graph());
        let bfs = || {
            Arc::new(Bfs {
                source: VertexId(0),
            })
        };
        let clean = run_chlonos(Arc::clone(&graph), bfs(), &chl(2, 4)).unwrap();
        let mut faulted = chl(2, 4);
        faulted.run.bsp.fault_plan = Some(FaultPlan::panic_at(1, 2));
        faulted.run.bsp.recovery = Some(RecoveryConfig::every(2));
        let r = run_chlonos(Arc::clone(&graph), bfs(), &faulted).unwrap();
        assert_eq!(r.per_snapshot, clean.per_snapshot);
        assert_eq!(r.metrics.supersteps, clean.metrics.supersteps);
        assert_eq!(r.metrics.counters, clean.metrics.counters);
        assert_eq!(r.metrics.recovery.rollbacks, 1);
    }

    /// The budget is the whole walk's: three batches that each fit a
    /// budget still spend it together, and the error names the budget
    /// asked for.
    #[test]
    fn the_budget_spans_every_batch() {
        let graph = Arc::new(transit_graph());
        let bfs = Arc::new(Bfs {
            source: VertexId(0),
        });
        let clean = run_chlonos(Arc::clone(&graph), Arc::clone(&bfs), &chl(2, 3)).unwrap();
        let walk = clean.metrics.supersteps;
        let mut tight = chl(2, 3);
        tight.run.bsp.superstep_budget = Some(walk - 1);
        let err = run_chlonos(Arc::clone(&graph), Arc::clone(&bfs), &tight).unwrap_err();
        assert_eq!(err, BspError::BudgetExceeded { budget: walk - 1 });
        tight.run.bsp.superstep_budget = Some(walk);
        assert!(run_chlonos(graph, bfs, &tight).is_ok());
    }
}
