//! A plain vertex-centric (Pregel-style) engine — the common core of all
//! four baseline platforms (Sec. VII-A3).
//!
//! The engine runs a [`VcmProgram`] over an abstract [`VcmTopology`]: a
//! static directed graph whose vertices are dense `u32` indices. Concrete
//! topologies adapt a single snapshot of a temporal graph (MSB, one per
//! phase of its walk) or the time-expanded transformed graph (TGB).
//! Chlonos and GoFFish have workers of their own, but one worker core
//! serves all four platforms: the dense per-worker state table
//! (`StateTable`, strided for Chlonos's batch offsets), the
//! receiver-side combiner fold (`combine_push`) and, for an exact
//! combine, the sender-side fold of the shared outbox (`sender_fold`,
//! keyed by interval range for Chlonos).
//! Running every baseline on the same BSP substrate and the same core as
//! GRAPHITE keeps the programming primitives — not the runtime — as the
//! experimental variable.

use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::codec::{get_varint, put_varint, Wire};
use graphite_bsp::engine::{keep_alive, run_bsp, Fold, Inbox, Outbox, PhaseHook, WorkerLogic};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::partition::PartitionMap;
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

/// The per-worker vertex state table every baseline worker runs on:
/// `VcmWorker` (MSB, TGB) and GoFFish's worker with one slot per owned
/// vertex, Chlonos's with one per vertex and batch offset. Slots sit in
/// one dense vector indexed by the vertex's [`PartitionMap::local_index`]
/// times the stride, not in a map, so a lookup is an index and a steady
/// run allocates nothing.
pub(crate) struct StateTable<S> {
    partition: Arc<PartitionMap>,
    worker: usize,
    /// Owned vertices, ascending; `owned[i]` holds slots
    /// `i * stride..(i + 1) * stride`. Shared, so a superstep can walk it
    /// while it computes into the slots.
    owned: Arc<[u32]>,
    stride: usize,
    /// `None` until the slot's first compute.
    slots: Vec<Option<S>>,
}

impl<S> StateTable<S> {
    /// An empty table of `stride` slots per vertex `worker` owns.
    pub(crate) fn new(partition: &Arc<PartitionMap>, worker: usize, stride: usize) -> Self {
        let owned: Arc<[u32]> = partition.owned_by(worker).iter().map(|v| v.0).collect();
        StateTable {
            partition: Arc::clone(partition),
            worker,
            slots: std::iter::repeat_with(|| None)
                .take(owned.len() * stride)
                .collect(),
            owned,
            stride,
        }
    }

    /// The owned vertices, ascending.
    pub(crate) fn owned(&self) -> Arc<[u32]> {
        Arc::clone(&self.owned)
    }

    /// Slot `offset` of owned vertex `v`.
    pub(crate) fn slot(&mut self, v: u32, offset: usize) -> &mut Option<S> {
        &mut self.slots[self.partition.local_index(VIdx(v)) * self.stride + offset]
    }

    /// Every initialized slot as `(vertex, offset, state)`, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, usize, &S)> + '_ {
        let stride = self.stride;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| Some((self.owned[i / stride], i % stride, s.as_ref()?)))
    }

    /// [`StateTable::iter`], by value: takes every state out and leaves
    /// the table empty, with `stride` slots per vertex from now on (a
    /// walk's next phase).
    pub(crate) fn drain(&mut self, stride: usize) -> Vec<(u32, usize, S)> {
        let empty = std::iter::repeat_with(|| None).take(self.owned.len() * stride);
        let slots = std::mem::replace(&mut self.slots, empty.collect());
        let was = std::mem::replace(&mut self.stride, stride);
        let states = slots.into_iter().enumerate();
        states
            .filter_map(|(i, s)| Some((self.owned[i / was], i % was, s?)))
            .collect()
    }
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

/// The table's checkpoint: the initialized slots in ascending order, each
/// keyed `vertex * stride + offset`. At stride 1 the key is the vertex
/// and the blob is byte for byte the old sorted-map encoding.
impl<S: Wire> StateTable<S> {
    pub(crate) fn checkpoint(&self, buf: &mut Vec<u8>) {
        put_varint(self.iter().count() as u64, buf);
        for (v, offset, s) in self.iter() {
            put_varint(u64::from(v) * self.stride as u64 + offset as u64, buf);
            s.encode(buf);
        }
    }

    /// Replaces the slots with a [`StateTable::checkpoint`] blob, or
    /// leaves them as they were when the blob names a slot this worker
    /// does not own or is malformed.
    pub(crate) fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        let mut cur = bytes;
        let count = get_varint(&mut cur).ok_or("vertex state count")?;
        let mut slots: Vec<Option<S>> = std::iter::repeat_with(|| None)
            .take(self.slots.len())
            .collect();
        let stride = self.stride as u64;
        for _ in 0..count {
            let key = get_varint(&mut cur).ok_or("vertex id")?;
            let v = u32::try_from(key / stride).map_err(|_| "vertex id exceeds u32")?;
            let owned = (v as usize) < self.partition.len()
                && self.partition.worker_of(VIdx(v)) == self.worker;
            if !owned {
                return Err("checkpoint vertex not owned by this worker");
            }
            let s = S::decode(&mut cur).ok_or("vertex state")?;
            slots[self.partition.local_index(VIdx(v)) * self.stride + (key % stride) as usize] =
                Some(s);
        }
        if !cur.is_empty() {
            return Err("trailing bytes in worker checkpoint");
        }
        self.slots = slots;
        Ok(())
    }
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

    /// `n` isolated vertices keyed by their index: enough slots to spread
    /// over several workers.
    struct Isolated(u32);

    impl VcmTopology for Isolated {
        fn num_vertices(&self) -> usize {
            self.0 as usize
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

    /// The previous checkpoint encoding, verbatim: a `HashMap` of states
    /// written in sorted-key order.
    fn oracle_checkpoint(states: &HashMap<u32, i64>, buf: &mut Vec<u8>) {
        put_varint(states.len() as u64, buf);
        let mut keys: Vec<u32> = states.keys().copied().collect();
        keys.sort_unstable();
        for v in keys {
            if let Some(s) = states.get(&v) {
                put_varint(u64::from(v), buf);
                s.encode(buf);
            }
        }
    }

    fn isolated_workers(n: u32, workers: usize) -> Vec<VcmWorker<Isolated, Sssp>> {
        let topology = Arc::new(Isolated(n));
        let partition = Arc::new(topology.place(PartitionStrategy::Hash, workers).unwrap());
        build_workers(&topology, &Arc::new(Sssp), &partition)
    }

    #[test]
    fn dense_checkpoint_is_byte_equal_to_the_sorted_map_encoding() {
        let mut rng = graphite_tgraph::rng::SplitMix64::new(29);
        for case in 0..64 {
            let n = 1 + rng.bounded(200) as u32;
            let workers = 1 + rng.index(4);
            for mut worker in isolated_workers(n, workers) {
                // A random subset of the owned vertices is initialized, as
                // a run leaves those that never computed unset.
                let mut map = HashMap::new();
                for (i, &v) in worker.table.owned.iter().enumerate() {
                    if rng.bool() {
                        let s = rng.range_i64(-1_000_000, 1_000_000);
                        worker.table.slots[i] = Some(s);
                        map.insert(v, s);
                    }
                }
                let (mut got, mut want) = (Vec::new(), Vec::new());
                worker.checkpoint(&mut got);
                oracle_checkpoint(&map, &mut want);
                assert_eq!(got, want, "case {case}");
                // And the blob restores to the same table.
                let before = worker.table.slots.clone();
                worker.table.slots.iter_mut().for_each(|s| *s = None);
                worker.restore(&got).unwrap();
                assert_eq!(worker.table.slots, before, "case {case}");
            }
        }
    }

    #[test]
    fn restore_rejects_a_vertex_another_worker_owns() {
        let mut workers = isolated_workers(64, 2);
        let foreign = workers[1].table.owned[0];
        let mut blob = Vec::new();
        oracle_checkpoint(&HashMap::from([(foreign, 7)]), &mut blob);
        let err = workers[0].restore(&blob).expect_err("a foreign vertex");
        assert_eq!(err, "checkpoint vertex not owned by this worker");
        // Past the end of the topology is nobody's vertex either.
        blob.clear();
        oracle_checkpoint(&HashMap::from([(64, 7)]), &mut blob);
        assert!(workers[0].restore(&blob).is_err());
        // A rejected blob leaves the worker as it was.
        assert!(workers[0].table.slots.iter().all(Option::is_none));
    }
}
