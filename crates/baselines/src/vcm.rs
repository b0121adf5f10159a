//! A plain vertex-centric (Pregel-style) engine — the common core of all
//! four baseline platforms (Sec. VII-A3).
//!
//! The engine runs a [`VcmProgram`] over an abstract [`VcmTopology`]: a
//! static directed graph whose vertices are dense `u32` indices. Concrete
//! topologies adapt a single snapshot of a temporal graph (MSB, one per
//! phase of its walk) or the time-expanded transformed graph (TGB).
//! Chlonos and GoFFish have workers of their own, but one worker core
//! serves all four platforms: the receiver-side combiner fold
//! (`combine_push`) and, for an exact combine, the sender-side fold of
//! the shared outbox (`sender_fold`, keyed by interval range for
//! Chlonos). Their vertex states sit in `graphite-bsp`'s
//! [`StateTable`] (strided for Chlonos's batch offsets), the table
//! GRAPHITE's ICM worker keeps its interval partitions in too.
//! Running every baseline on the same BSP substrate and the same core as
//! GRAPHITE keeps the programming primitives — not the runtime — as the
//! experimental variable.

use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::codec::Wire;
use graphite_bsp::engine::{keep_alive, run_bsp, Fold, Inbox, Outbox, PhaseHook, WorkerLogic};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::partition::PartitionMap;
use graphite_bsp::state::StateTable;
use graphite_bsp::trace::TraceSink;
use graphite_part::{PartitionStrategy, RunConfig};
use graphite_tgraph::graph::{VIdx, VertexId};
use graphite_tgraph::time::Time;
use std::collections::HashMap;
use std::sync::Arc;

/// One out-edge as seen by VCM user logic: a target vertex plus up to two
/// resolved numeric payloads (travel cost / travel time in the paper's TD
/// algorithms) and a kind tag (used by TGB to mark waiting edges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcmEdge {
    /// Target vertex (dense index in the topology).
    pub target: u32,
    /// Primary weight (e.g. travel cost at the snapshot instant).
    pub w1: i64,
    /// Secondary weight (e.g. travel time at the snapshot instant).
    pub w2: i64,
    /// Topology-specific tag: 0 = ordinary, 1 = TGB waiting edge.
    pub kind: u8,
}

/// A static directed graph the VCM engine can execute over.
pub trait VcmTopology: Send + Sync + 'static {
    /// Number of dense vertex slots (including inactive ones).
    fn num_vertices(&self) -> usize;

    /// Whether slot `v` holds a live vertex (a vertex absent from this
    /// snapshot is skipped entirely).
    fn is_active(&self, v: u32) -> bool {
        let _ = v;
        true
    }

    /// Appends the out-edges of `v` to `out`.
    fn out_edges(&self, v: u32, out: &mut Vec<VcmEdge>);

    /// Appends the in-edges of `v` to `out` (`target` is the source
    /// vertex), for programs that declare
    /// [`VcmProgram::needs_in_edges`].
    fn in_edges(&self, v: u32, out: &mut Vec<VcmEdge>);

    /// Places the dense slots on `workers` workers under `strategy`, as
    /// the [`graphite_part::PlacementInput`] they are the slots of: a
    /// snapshot's graph, or TGB's transformed graph of replicas.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] for an unusable worker count.
    fn place(&self, strategy: PartitionStrategy, workers: usize) -> Result<PartitionMap, BspError>;

    /// The external id of the *logical* vertex behind slot `v` (for
    /// result reporting; several TGB replicas map to one logical vertex).
    fn logical_vid(&self, v: u32) -> VertexId;
}

/// Pregel-style user logic.
pub trait VcmProgram: Send + Sync + 'static {
    /// Per-vertex state; wire-encodable, so every run can be checkpointed
    /// ([`graphite_bsp::engine::BspConfig::recovery`]).
    type State: Wire;
    /// Message payload.
    type Msg: Wire;

    /// Initial state of vertex `v`.
    fn init(&self, topo_vertex: u32, vid: VertexId) -> Self::State;

    /// Vertex compute: read messages, mutate state, send messages.
    /// Invoked for every active vertex at superstep 1 (with no messages)
    /// and thereafter only for vertices that received messages.
    fn compute(
        &self,
        ctx: &mut VcmContext<'_, Self::Msg>,
        state: &mut Self::State,
        msgs: &[Self::Msg],
    );

    /// Optional associative message combiner, accumulator first: the
    /// receiver folds each vertex's messages through it in delivery order
    /// before compute, like a Giraph combiner.
    fn combine(&self, a: &Self::Msg, b: &Self::Msg) -> Option<Self::Msg> {
        let _ = (a, b);
        None
    }

    /// Whether [`combine`](Self::combine) is **exact**: it never declines,
    /// and its result depends neither on fold order nor on grouping, bit
    /// for bit (integer min/max, boolean or). An exact combine also folds
    /// on the sending side, as Giraph's combiner does: a worker merges the
    /// messages it sends to one vertex in a superstep before they cross
    /// the barrier. `false` (the default) ships every message.
    fn exact_combine(&self) -> bool {
        false
    }

    /// When `true` for a superstep, every active-topology vertex computes
    /// even without messages (fixed-iteration algorithms like PageRank).
    fn all_active(&self, step: u64, globals: &Aggregators) -> bool {
        let _ = (step, globals);
        false
    }

    /// Whether compute reads [`VcmContext::in_edges`] (undirected and
    /// reverse-traversing algorithms). The others see an empty slice, and
    /// their runs never build an in-adjacency.
    fn needs_in_edges(&self) -> bool {
        false
    }
}

/// Context handed to [`VcmProgram::compute`].
pub struct VcmContext<'a, M> {
    pub(crate) vertex: u32,
    pub(crate) vid: VertexId,
    pub(crate) superstep: u64,
    pub(crate) out_edges: &'a [VcmEdge],
    pub(crate) in_edges: &'a [VcmEdge],
    pub(crate) globals: &'a Aggregators,
    pub(crate) partial: &'a mut Aggregators,
    pub(crate) sends: &'a mut Vec<(u32, M)>,
}

impl<'a, M> VcmContext<'a, M> {
    /// The 1-based superstep number.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The dense topology index of this vertex.
    pub fn vertex(&self) -> u32 {
        self.vertex
    }

    /// The external id of the logical vertex.
    pub fn vid(&self) -> VertexId {
        self.vid
    }

    /// This vertex's out-edges.
    pub fn out_edges(&self) -> &'a [VcmEdge] {
        self.out_edges
    }

    /// This vertex's in-edges (empty unless the program declares
    /// [`VcmProgram::needs_in_edges`]).
    pub fn in_edges(&self) -> &'a [VcmEdge] {
        self.in_edges
    }

    /// Sends `msg` to topology vertex `target` for the next superstep.
    pub fn send(&mut self, target: u32, msg: M) {
        self.sends.push((target, msg));
    }

    /// Merged aggregators from the previous superstep.
    pub fn globals(&self) -> &'a Aggregators {
        self.globals
    }

    /// This worker's aggregator contributions.
    pub fn aggregate(&mut self) -> &mut Aggregators {
        self.partial
    }
}

/// Result of a VCM run: final state per dense topology vertex, plus
/// metrics.
#[derive(Clone, Debug)]
pub struct VcmResult<S> {
    /// Final state of every active vertex, by dense index.
    pub states: HashMap<u32, S>,
    /// Run metrics.
    pub metrics: RunMetrics,
}

/// The drained `states` of a phase that ran the `len` consecutive
/// snapshots from `start`, one map per slot offset, in time order.
pub(crate) fn snapshot_states<S>(
    states: Vec<(u32, usize, S)>,
    start: Time,
    len: usize,
) -> impl Iterator<Item = (Time, HashMap<u32, S>)> {
    let mut maps: Vec<HashMap<u32, S>> = (0..len).map(|_| HashMap::new()).collect();
    for (v, off, s) in states {
        maps[off].insert(v, s);
    }
    (start..).zip(maps)
}

/// The receiver-side combiner fold of every baseline worker (a Giraph
/// combiner): folds `msg` into the last message of `out` when `combine`
/// accepts the pair, else appends a clone. Fed a vertex's messages in
/// arrival order it folds them left to right, so an order-sensitive fold
/// (PageRank's `f64` sum) follows message order. An exact combine has
/// already folded each sender's messages per key ([`sender_fold`]); this
/// folds across senders.
pub(crate) fn combine_push<M: Clone>(
    out: &mut Vec<M>,
    msg: &M,
    combine: impl FnOnce(&M, &M) -> Option<M>,
) {
    if let Some(last) = out.last_mut() {
        if let Some(c) = combine(last, msg) {
            *last = c;
            return;
        }
    }
    out.push(msg.clone());
}

/// The sender-side fold of a worker whose messages travel as `(target,
/// payload)`: the destination is the whole key, so a sender ships at most
/// one message per vertex and superstep. `None` unless `exact`.
pub(crate) fn sender_fold<M: 'static>(
    exact: bool,
    combine: impl Fn(&M, &M) -> Option<M> + Send + 'static,
) -> Option<Fold<(u32, M)>> {
    exact.then(|| Fold::new(|_| (0, 0), move |(t, a), (_, b)| Some((*t, combine(a, b)?))))
}

/// One BSP worker of a VCM run. Everything a superstep touches is owned
/// here and reused: states sit in a [`StateTable`] of stride 1, and the
/// edge, combined-message and send buffers keep their capacity from
/// vertex to vertex, so a steady run computes without allocating. A
/// walk's phase hook swaps in its next topology and empties the table.
pub(crate) struct VcmWorker<T: VcmTopology, P: VcmProgram> {
    pub(crate) topology: Arc<T>,
    program: Arc<P>,
    pub(crate) table: StateTable<P::State>,
    scratch_out: Vec<VcmEdge>,
    scratch_in: Vec<VcmEdge>,
    /// The current vertex's messages after the receiver-side combiner.
    combined: Vec<P::Msg>,
    /// The current vertex's sends, drained into the outbox in order.
    sends: Vec<(u32, P::Msg)>,
}

impl<T: VcmTopology, P: VcmProgram> VcmWorker<T, P> {
    /// Runs compute for owned vertex `v` on `msgs`, initializing its state
    /// on first use. Inactive vertices are skipped.
    #[expect(
        clippy::too_many_arguments,
        reason = "the worker's superstep context, passed through per vertex"
    )]
    fn run_vertex(
        &mut self,
        v: u32,
        step: u64,
        msgs: &[P::Msg],
        outbox: &mut Outbox<(u32, P::Msg)>,
        globals: &Aggregators,
        partial: &mut Aggregators,
        counters: &mut UserCounters,
    ) {
        if !self.topology.is_active(v) {
            return;
        }
        let vid = self.topology.logical_vid(v);
        let state = self
            .table
            .slot(v, 0)
            .get_or_insert_with(|| self.program.init(v, vid));
        self.scratch_out.clear();
        self.topology.out_edges(v, &mut self.scratch_out);
        self.scratch_in.clear();
        if self.program.needs_in_edges() {
            self.topology.in_edges(v, &mut self.scratch_in);
        }
        let mut ctx = VcmContext {
            vertex: v,
            vid,
            superstep: step,
            out_edges: &self.scratch_out,
            in_edges: &self.scratch_in,
            globals,
            partial,
            sends: &mut self.sends,
        };
        counters.compute_calls += 1;
        self.program.compute(&mut ctx, state, msgs);
        for (target, msg) in self.sends.drain(..) {
            // Message routing is by the *message partition map* index,
            // which equals the topology index.
            outbox.send(VIdx(target), (target, msg));
        }
    }

    /// Folds one vertex's raw messages into `combined`, in arrival order.
    fn combine_into(&self, raw: &[(u32, P::Msg)], combined: &mut Vec<P::Msg>) {
        combined.clear();
        for (_, m) in raw {
            combine_push(combined, m, |a, b| self.program.combine(a, b));
        }
    }
}

impl<T: VcmTopology, P: VcmProgram> WorkerLogic for VcmWorker<T, P> {
    // The payload repeats the dense target so decode needs no side table.
    type Msg = (u32, P::Msg);

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
        let mut combined = std::mem::take(&mut self.combined);
        if step == 1 {
            for &v in self.table.owned().iter() {
                self.run_vertex(v, step, &[], outbox, globals, partial, counters);
            }
        } else if self.program.all_active(step, globals) {
            // Every owned vertex computes, in ascending order, with its
            // messages if any: one merge walk over two ascending lists.
            let mut arrivals = inbox.iter().peekable();
            for &v in self.table.owned().iter() {
                combined.clear();
                if let Some((_, raw)) = arrivals.next_if(|(dst, _)| dst.0 == v) {
                    self.combine_into(raw, &mut combined);
                }
                self.run_vertex(v, step, &combined, outbox, globals, partial, counters);
            }
        } else {
            for (v, raw) in inbox.iter() {
                self.combine_into(raw, &mut combined);
                self.run_vertex(v.0, step, &combined, outbox, globals, partial, counters);
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

    // The state table is the complete user state — the scratch buffers
    // are ephemeral and the config fields never change mid-run.
    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.table.checkpoint(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.table.restore(bytes)
    }
}

/// Runs `program` over `topology` to convergence — the one way to start a
/// vertex-centric run.
///
/// # Errors
///
/// Poisoned workers, codec corruption, a spent superstep cap or budget,
/// an unusable worker count or recovery schedule, an exhausted retry
/// budget ([`BspError::RecoveryExhausted`]): see [`BspError`].
pub fn run_vcm<T: VcmTopology, P: VcmProgram>(
    topology: &Arc<T>,
    program: Arc<P>,
    config: &RunConfig,
) -> Result<VcmResult<P::State>, BspError> {
    let (mut workers, metrics) = run_walk(topology, program, config, None)?;
    let states = workers.iter_mut().flat_map(|w| w.table.drain(0));
    let states = states.map(|(v, _, s)| (v, s)).collect();
    Ok(VcmResult { states, metrics })
}

/// [`run_vcm`]'s one BSP run, placed by the first `topology` and handing
/// `phase` the workers at each quiescent barrier (MSB's walk).
pub(crate) fn run_walk<T: VcmTopology, P: VcmProgram>(
    topology: &Arc<T>,
    program: Arc<P>,
    config: &RunConfig,
    phase: Option<PhaseHook<'_, VcmWorker<T, P>>>,
) -> Result<(Vec<VcmWorker<T, P>>, RunMetrics), BspError> {
    let partition = Arc::new(topology.place(config.partition, config.workers)?);
    let workers = build_workers(topology, &program, &partition);
    // Phased programs stay alive through idle barriers when they request an
    // all-active next superstep.
    let mut master = keep_alive(move |step, globals| program.all_active(step, globals), None);
    run_bsp(&config.bsp, workers, partition, Some(&mut master), phase)
}

/// One VCM worker per partition, with empty state tables and fresh buffers.
fn build_workers<T: VcmTopology, P: VcmProgram>(
    topology: &Arc<T>,
    program: &Arc<P>,
    partition: &Arc<PartitionMap>,
) -> Vec<VcmWorker<T, P>> {
    (0..partition.workers())
        .map(|w| VcmWorker {
            topology: Arc::clone(topology),
            program: Arc::clone(program),
            table: StateTable::new(partition, w, 1),
            scratch_out: Vec::new(),
            scratch_in: Vec::new(),
            combined: Vec::new(),
            sends: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_bsp::engine::BspConfig;
    use graphite_bsp::recover::RecoveryConfig;
    use graphite_part::PlacementInput;

    /// The test topologies' slots: keyed by their index, with no
    /// neighbors and unit weight.
    struct Slots(usize);

    impl PlacementInput for Slots {
        fn slots(&self) -> usize {
            self.0
        }
        fn key(&self, v: u32) -> u64 {
            u64::from(v)
        }
        fn neighbors(&self, _v: u32, _visit: impl FnMut(u32)) {}
        fn weight(&self, _v: u32) -> u64 {
            1
        }
    }

    /// A fixed little DAG topology: 0 -> 1 -> 2, 0 -> 2, with weights.
    struct Dag;

    impl VcmTopology for Dag {
        fn num_vertices(&self) -> usize {
            3
        }
        fn out_edges(&self, v: u32, out: &mut Vec<VcmEdge>) {
            let edges: &[(u32, i64)] = match v {
                0 => &[(1, 5), (2, 20)],
                1 => &[(2, 4)],
                _ => &[],
            };
            out.extend(edges.iter().map(|&(target, w1)| VcmEdge {
                target,
                w1,
                w2: 0,
                kind: 0,
            }));
        }
        fn in_edges(&self, v: u32, out: &mut Vec<VcmEdge>) {
            let edges: &[(u32, i64)] = match v {
                1 => &[(0, 5)],
                2 => &[(0, 20), (1, 4)],
                _ => &[],
            };
            out.extend(edges.iter().map(|&(target, w1)| VcmEdge {
                target,
                w1,
                w2: 0,
                kind: 0,
            }));
        }
        fn place(
            &self,
            strategy: PartitionStrategy,
            workers: usize,
        ) -> Result<PartitionMap, BspError> {
            strategy.place(&Slots(self.num_vertices()), workers)
        }
        fn logical_vid(&self, v: u32) -> VertexId {
            VertexId(u64::from(v))
        }
    }

    /// Static SSSP from vertex 0.
    struct Sssp;

    impl VcmProgram for Sssp {
        type State = i64;
        type Msg = i64;
        fn init(&self, _v: u32, vid: VertexId) -> i64 {
            if vid == VertexId(0) {
                0
            } else {
                i64::MAX
            }
        }
        fn compute(&self, ctx: &mut VcmContext<i64>, state: &mut i64, msgs: &[i64]) {
            let best = msgs.iter().copied().min().unwrap_or(*state);
            if ctx.superstep() == 1 || best < *state {
                if best < *state {
                    *state = best;
                }
                if *state < i64::MAX {
                    let dist = *state;
                    for e in ctx.out_edges() {
                        ctx.send(e.target, dist + e.w1);
                    }
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
    fn static_sssp_converges() {
        for workers in [1, 2, 3] {
            let r = run_vcm(
                &Arc::new(Dag),
                Arc::new(Sssp),
                &RunConfig {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(r.states[&0], 0);
            assert_eq!(r.states[&1], 5);
            assert_eq!(r.states[&2], 9, "workers={workers}");
        }
    }

    #[test]
    fn counts_are_stable_across_workers() {
        let r1 = run_vcm(
            &Arc::new(Dag),
            Arc::new(Sssp),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let r3 = run_vcm(
            &Arc::new(Dag),
            Arc::new(Sssp),
            &RunConfig {
                workers: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            r1.metrics.counters.compute_calls,
            r3.metrics.counters.compute_calls
        );
        assert_eq!(
            r1.metrics.counters.messages_sent,
            r3.metrics.counters.messages_sent
        );
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let config = RunConfig {
            bsp: BspConfig {
                recovery: Some(RecoveryConfig::every(0)),
                ..Default::default()
            },
            ..Default::default()
        };
        let err = run_vcm(&Arc::new(Dag), Arc::new(Sssp), &config)
            .expect_err("a recovery schedule that never checkpoints");
        assert!(matches!(err, BspError::Checkpoint { .. }));
    }

    /// Inactive vertices are skipped at superstep 1 and never computed.
    struct HalfActive;

    impl VcmTopology for HalfActive {
        fn num_vertices(&self) -> usize {
            4
        }
        fn is_active(&self, v: u32) -> bool {
            v.is_multiple_of(2)
        }
        fn out_edges(&self, _v: u32, _out: &mut Vec<VcmEdge>) {}
        fn in_edges(&self, _v: u32, _out: &mut Vec<VcmEdge>) {}
        fn place(
            &self,
            strategy: PartitionStrategy,
            workers: usize,
        ) -> Result<PartitionMap, BspError> {
            strategy.place(&Slots(self.num_vertices()), workers)
        }
        fn logical_vid(&self, v: u32) -> VertexId {
            VertexId(u64::from(v))
        }
    }

    struct CountOnly;

    impl VcmProgram for CountOnly {
        type State = u64;
        type Msg = ();
        fn init(&self, _v: u32, _vid: VertexId) -> u64 {
            0
        }
        fn compute(&self, _ctx: &mut VcmContext<()>, state: &mut u64, _msgs: &[()]) {
            *state += 1;
        }
    }

    #[test]
    fn inactive_vertices_are_skipped() {
        let r = run_vcm(
            &Arc::new(HalfActive),
            Arc::new(CountOnly),
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(r.metrics.counters.compute_calls, 2);
        assert!(r.states.contains_key(&0));
        assert!(!r.states.contains_key(&1));
    }
}
