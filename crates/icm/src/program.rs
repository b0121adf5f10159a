//! The interval-centric programming abstraction (Sec. IV-A): the
//! [`IntervalProgram`] trait users implement, and the contexts handed to
//! its `compute` and `scatter` logic.
//!
//! A program thinks like an *interval-vertex*: `compute` sees one vertex,
//! one active sub-interval, the state for exactly that sub-interval and the
//! messages warped onto it; `scatter` sees one out-(or in-)edge and one
//! state-change sub-interval fully covered by both the change and the
//! edge's (property-refined) lifespan.

use crate::state::StateUpdates;
use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::codec::Wire;
use graphite_bsp::engine::Outbox;
use graphite_tgraph::graph::{EIdx, EdgeRef, SegIdx, TemporalGraph, VIdx, VertexId, VertexRef};
use graphite_tgraph::property::{LabelId, PropValue};
use graphite_tgraph::time::{Interval, Time};

/// Which adjacency `scatter` traverses. Most algorithms push state along
/// out-edges; Latest-Departure reverse-traverses in space and time
/// (Sec. V) by scattering along in-edges toward each edge's source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDirection {
    /// Scatter over out-edges; messages go to the edge's sink.
    Out,
    /// Scatter over in-edges; messages go to the edge's source.
    In,
    /// Scatter over both adjacencies; [`ScatterContext::direction`] tells
    /// the user logic which side each call is for (phased algorithms like
    /// SCC alternate forward and backward propagation).
    Both,
}

/// User logic for one temporal-graph algorithm under ICM.
///
/// The trait mirrors Alg. 1's shape: `init` seeds each vertex's state for
/// its whole lifespan; `compute(vid, ⟨τi, si⟩, M[])` may update states for
/// sub-intervals of `τi`; `scatter(eid, ⟨τ'k, sk⟩)` may emit interval
/// messages. An optional associative `combine` enables the inline warp
/// combiner (Sec. VI), and an exact one the sender-side fold too.
pub trait IntervalProgram: Send + Sync + 'static {
    /// Per-interval vertex state; wire-encodable, so every run can be
    /// checkpointed (`BspConfig::recovery`).
    type State: Wire + PartialEq;
    /// Message payload (the engine pairs it with an interval on the wire).
    type Msg: Wire;

    /// Initial state covering the vertex's entire lifespan, used before
    /// superstep 1.
    fn init(&self, vertex: &VertexContext<'_>) -> Self::State;

    /// Interval-centric compute. Called once per warp tuple — an active
    /// sub-interval `interval`, its state `state`, and the messages whose
    /// intervals contain `interval`. State writes go through
    /// [`ComputeContext::set_state`].
    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, Self::State, Self::Msg>,
        interval: Interval,
        state: &Self::State,
        msgs: &[Self::Msg],
    );

    /// Transformation and message-passing logic. Called once per
    /// (state-change × edge-segment) intersection; emit messages through
    /// [`ScatterContext::send`] / [`ScatterContext::send_inherit`].
    ///
    /// The default implementation sends nothing — matching the paper's
    /// "scatter not provided" only in shape; programs that want the
    /// default ⟨τ'k, sk⟩ forwarding behaviour should call
    /// `ctx.send_inherit(...)` with their own state-to-message conversion
    /// (states and messages are distinct types here).
    fn scatter(
        &self,
        ctx: &mut ScatterContext<'_, Self::Msg>,
        interval: Interval,
        state: &Self::State,
    ) {
        let _ = (ctx, interval, state);
    }

    /// Which adjacency `scatter` runs over.
    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Out
    }

    /// Whether scatter calls must be refined at edge-property boundaries
    /// ("scatter is called once for each overlapping interval of its
    /// out-edges having a distinct property", Sec. IV-A). Programs that
    /// never read edge properties — the paper's TI algorithms — return
    /// `false`, so scatter granularity is the edge lifespan and messages
    /// span maximal intervals.
    fn refine_scatter_by_properties(&self) -> bool {
        true
    }

    /// Time-points at which every vertex's initial state should be
    /// pre-partitioned before superstep 1 (within its lifespan). Programs
    /// whose scatter logic needs piecewise-constant per-vertex context —
    /// e.g. PageRank dividing by a time-varying out-degree — split at
    /// those boundaries so no state interval ever crosses one (the paper's
    /// footnote 2: states are pre-partitioned on static sub-intervals).
    fn prepartition(&self, vertex: &VertexContext<'_>) -> Vec<Time> {
        let _ = vertex;
        Vec::new()
    }

    /// Pre-converged state entries to seed the vertex's partition with
    /// before superstep 1, or `None` (the default) for a cold start from
    /// [`init`](Self::init).
    ///
    /// The incremental-recomputation layer (`graphite-stream`, DESIGN.md
    /// §17) returns a previous run's entries here for vertices the latest
    /// update batch did not touch. The engine overlays them **without
    /// marking them changed**: the vertex begins the run already holding
    /// its fixpoint and stays silent unless messages improve it. Entries
    /// are clipped to the vertex lifespan and may cover it partially
    /// (uncovered sub-intervals keep the `init` value).
    fn warm_start(&self, vertex: &VertexContext<'_>) -> Option<Vec<(Interval, Self::State)>> {
        let _ = vertex;
        None
    }

    /// When `true` for a superstep, *every* vertex is active over its whole
    /// lifespan that superstep — vertices without messages get compute
    /// calls with empty message groups. Fixed-iteration algorithms
    /// (PageRank) and phased algorithms (SCC re-initialization steps) need
    /// this; ordinary traversals leave the default (message-driven
    /// activation, Sec. IV-A2). Superstep 1 is always all-active.
    fn all_active(&self, step: u64, globals: &graphite_bsp::aggregate::Aggregators) -> bool {
        let _ = (step, globals);
        false
    }

    /// Associative message combiner, accumulator first. Returning `Some`
    /// lets the receiver fold each vertex's messages with identical
    /// intervals into one (in delivery order) and lets the warp step fold
    /// each aligned message group to a single message before `compute`
    /// (the inline warp combiner, Sec. VI). Return `None` (the default)
    /// when messages cannot be combined (e.g. LCC, TC). The engine's
    /// `combiner` switch governs every call.
    fn combine(&self, a: &Self::Msg, b: &Self::Msg) -> Option<Self::Msg> {
        let _ = (a, b);
        None
    }

    /// Whether [`combine`](Self::combine) is **exact**: it never declines,
    /// and its result depends neither on the order nor on the grouping of
    /// the messages it folds, bit for bit — integer min/max, boolean or.
    /// An exact combine also folds on the sending side: a worker merges
    /// the messages it sends to one vertex with one interval in a
    /// superstep before they cross the barrier, so the receivers fold the
    /// same values from fewer wire messages. `false` (the default) ships
    /// every message; a floating-point sum must keep it, since its fold
    /// order is part of its result.
    fn exact_combine(&self) -> bool {
        false
    }
}

/// Read-only view of a vertex's static data during `init`.
pub struct VertexContext<'a> {
    pub(crate) graph: &'a TemporalGraph,
    pub(crate) vertex: VIdx,
}

impl<'a> VertexContext<'a> {
    /// The vertex's internal index.
    pub fn index(&self) -> VIdx {
        self.vertex
    }

    /// The vertex's static data (external id, lifespan, properties).
    pub fn data(&self) -> VertexRef<'a> {
        self.graph.vertex(self.vertex)
    }

    /// The vertex's external id.
    pub fn vid(&self) -> VertexId {
        self.data().vid
    }

    /// The vertex's lifespan.
    pub fn lifespan(&self) -> Interval {
        self.data().lifespan
    }

    /// The whole graph (static topology and attributes are readable from
    /// user logic for any interval, per Sec. IV-A3).
    pub fn graph(&self) -> &'a TemporalGraph {
        self.graph
    }
}

/// Context for one `compute` invocation.
pub struct ComputeContext<'a, S, M> {
    pub(crate) graph: &'a TemporalGraph,
    pub(crate) vertex: VIdx,
    pub(crate) superstep: u64,
    pub(crate) globals: &'a Aggregators,
    pub(crate) partial: &'a mut Aggregators,
    pub(crate) updates: &'a mut StateUpdates<S>,
    pub(crate) tuple_interval: Interval,
    pub(crate) direct: &'a mut Vec<(VIdx, Interval, M)>,
}

impl<'a, S: Clone, M> ComputeContext<'a, S, M> {
    /// The 1-based superstep number.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The vertex being computed.
    pub fn vertex(&self) -> VertexRef<'a> {
        self.graph.vertex(self.vertex)
    }

    /// The vertex's internal index.
    pub fn vertex_index(&self) -> VIdx {
        self.vertex
    }

    /// The vertex's external id.
    pub fn vid(&self) -> VertexId {
        self.vertex().vid
    }

    /// The whole graph, for reading static attributes over any interval.
    pub fn graph(&self) -> &'a TemporalGraph {
        self.graph
    }

    /// Updates the state over `interval ∩` the current compute interval —
    /// compute may only write inside the sub-interval it was invoked for
    /// (`S(τi) = {⟨τj, sj⟩ | τj ⊑ τi}`, Sec. IV-A3); anything outside is
    /// clipped away. The write also marks the sub-interval as changed, so
    /// scatter will run over it.
    pub fn set_state(&mut self, interval: Interval, state: S) {
        if let Some(clipped) = interval.intersect(self.tuple_interval) {
            self.updates.push(clipped, state);
        }
    }

    /// Merged aggregator values from the previous superstep.
    pub fn globals(&self) -> &'a Aggregators {
        self.globals
    }

    /// This worker's aggregator contributions for the current superstep.
    pub fn aggregate(&mut self) -> &mut Aggregators {
        self.partial
    }

    /// Sends an interval message directly to `target`, bypassing scatter —
    /// the Giraph `sendMessage(anyVertex)` escape hatch that the LCC and
    /// TC designs use for their report-back hop (Sec. V). The message is
    /// dropped when `target` does not exist.
    pub fn send_to(&mut self, target: VertexId, interval: Interval, msg: M) {
        if let Some(v) = self.graph.vertex_index(target) {
            self.direct.push((v, interval, msg));
        }
    }
}

/// Context for one `scatter` invocation.
pub struct ScatterContext<'a, M> {
    pub(crate) graph: &'a TemporalGraph,
    pub(crate) edge: EIdx,
    pub(crate) superstep: u64,
    pub(crate) globals: &'a Aggregators,
    pub(crate) interval: Interval,
    pub(crate) change: Interval,
    pub(crate) segment: Interval,
    /// `segment`'s place in the graph's segment pool when the program
    /// refines scatter by properties; `None` when `segment` is the whole
    /// lifespan.
    pub(crate) seg: Option<SegIdx>,
    pub(crate) direction: EdgeDirection,
    /// The edge's far endpoint: where every message of this call goes.
    pub(crate) target: VIdx,
    pub(crate) outbox: &'a mut Outbox<(Interval, M)>,
}

impl<'a, M> ScatterContext<'a, M> {
    /// The 1-based superstep number.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The edge being scattered over.
    pub fn edge(&self) -> EdgeRef {
        self.graph.edge(self.edge)
    }

    /// The whole graph, for reading static attributes (e.g. endpoint ids).
    pub fn graph(&self) -> &'a TemporalGraph {
        self.graph
    }

    /// The scatter interval `τ'k` (state-change ∩ edge segment).
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// The full state-change interval `τk` this call stems from (a
    /// superset of [`ScatterContext::interval`]). Reverse-traversing
    /// algorithms need it: their arrival constraint lives on the state
    /// side while the departure constraint lives on the edge side.
    pub fn change_interval(&self) -> Interval {
        self.change
    }

    /// The edge segment `τe` this call runs over, a superset of the
    /// scatter interval: the property-refined segment, across which
    /// property values are constant, or the whole edge lifespan when the
    /// program declines refinement.
    pub fn edge_interval(&self) -> Interval {
        self.segment
    }

    /// Which adjacency this call traverses (`Out` unless the program
    /// declared `In`/`Both`).
    pub fn direction(&self) -> EdgeDirection {
        self.direction
    }

    /// Merged aggregator values from the previous superstep (phased
    /// algorithms key their scatter behaviour off these).
    pub fn globals(&self) -> &'a Aggregators {
        self.globals
    }

    /// The edge property `label` at the start of the scatter interval,
    /// read from the segment values frozen beside the segment containing
    /// it. Under refinement (the default) that is the segment this call
    /// stands in, and the value holds across the whole scatter interval;
    /// an unrefined program's interval may cross property boundaries.
    pub fn edge_prop(&self, label: LabelId) -> Option<&'a PropValue> {
        match self.seg {
            Some(seg) => self.graph.segment_value(seg, label),
            None => self
                .graph
                .edge_property_at(self.edge, label, self.interval.start()),
        }
    }

    /// Shorthand for an integer edge property.
    pub fn edge_prop_long(&self, label: LabelId) -> Option<i64> {
        self.edge_prop(label).and_then(PropValue::as_long)
    }

    /// Sends `msg` with interval `τm` to the adjacent vertex.
    pub fn send(&mut self, interval: Interval, msg: M) {
        self.outbox.send(self.target, (interval, msg));
    }

    /// Sends `msg` with the inherited interval `τm = τ'k` (the paper's
    /// default when scatter omits the interval).
    pub fn send_inherit(&mut self, msg: M) {
        self.outbox.send(self.target, (self.interval, msg));
    }

    /// The time-point shorthand used all over the paper's examples:
    /// `interval().start()`.
    pub fn start(&self) -> Time {
        self.interval.start()
    }
}
