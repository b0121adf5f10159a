//! The [`StreamEngine`]: ingest [`GraphDelta`] batches against a resident
//! frozen graph and keep registered monotone algorithms current by
//! warm-started incremental recomputation (DESIGN.md §17).
//!
//! Per batch the engine (1) computes the dirty vertex set against the
//! pre-batch graph, (2) applies the delta through the [`DeltaOverlay`]
//! (validated as a whole — a rejected batch leaves the engine exactly
//! where it was — then patched in, with the overlay's deterministic
//! verification cadence), (3) re-converges every
//! registered algorithm from its previous fixpoint via
//! [`Resumed`], and (4) on the configured
//! differential cadence re-runs each algorithm from scratch and demands
//! bit-identical result digests — the correctness instrument the whole
//! subsystem is pinned by.
//!
//! All measurement goes through the engine's [`TraceSink`] (`stream_*`
//! extras in the `graphite-trace/1` vocabulary); stream code never touches
//! the clock directly.

use crate::resume::{dirty_vertices_with, PrevStates, Resumed};
use graphite_algorithms::catalog::{visit_icm, Algo, IcmParams, IcmVisitor};
use graphite_algorithms::common::digest_interval_states;
use graphite_algorithms::registry::RunOpts;
use graphite_bsp::error::BspError;
use graphite_bsp::trace::{key, RunTrace, TraceConfig, TraceSink};
use graphite_icm::prelude::*;
use graphite_part::PartitionStrategy;
use graphite_tgraph::delta::{DeltaOverlay, GraphDelta};
use graphite_tgraph::error::GraphError;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::time::{Interval, Time};
use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Streaming-engine configuration.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// BSP workers per maintenance run.
    pub workers: usize,
    /// Verifying-compaction cadence of the delta overlay: every
    /// `compact_every`-th batch re-derives the structure digest from
    /// content and fails on drift. `0` disables verification (every batch
    /// is a plain freeze). The cadence never changes what a batch's graph
    /// contains.
    pub compact_every: u64,
    /// Differential cadence: every `check_every`-th batch re-runs each
    /// registered algorithm from scratch and compares result digests.
    /// `0` disables the in-line check (the test matrix still enforces it).
    pub check_every: u64,
    /// Permute BSP scheduling freedoms with this seed (results must not
    /// change; composed with the differential matrix in tests).
    pub perturb_schedule: Option<u64>,
    /// Vertex-placement strategy for maintenance runs.
    pub partition: PartitionStrategy,
    /// Trace level for the engine's own `stream_*` extras.
    pub trace: TraceConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: 2,
            compact_every: 8,
            check_every: 0,
            perturb_schedule: None,
            partition: PartitionStrategy::default(),
            trace: TraceConfig::default(),
        }
    }
}

/// A registered algorithm: the monotone programs the incremental protocol
/// is sound for (min-merge / or-merge over insert/extend-only deltas).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoSpec {
    /// Per-snapshot hop distance from `source`.
    Bfs {
        /// BFS source vertex.
        source: VertexId,
    },
    /// Earliest arrival time from `source`, departing at `start`.
    Eat {
        /// Journey source vertex.
        source: VertexId,
        /// Journey start time.
        start: Time,
    },
    /// Temporal reachability from `source`, departing at `start`.
    Reach {
        /// Journey source vertex.
        source: VertexId,
        /// Journey start time.
        start: Time,
    },
}

/// One ingested batch's `stream_*` extras as a `graphite-trace/1` frame
/// ([`RunTrace::frame`]) numbered by the batch. Ready for `maybe_emit`.
pub fn batch_trace(report: &BatchReport) -> RunTrace {
    RunTrace::frame(report.batch, report.extras.clone())
}

impl AlgoSpec {
    /// Stable short name (used in reports and traces).
    pub fn name(&self) -> &'static str {
        match self {
            AlgoSpec::Bfs { .. } => "bfs",
            AlgoSpec::Eat { .. } => "eat",
            AlgoSpec::Reach { .. } => "reach",
        }
    }

    /// The spec that maintains `algo` from `source` (departing at `start`,
    /// where the algorithm has a start time), or `None` when `algo` is not
    /// one of the monotone programs the incremental protocol is sound for.
    pub fn of(algo: Algo, source: VertexId, start: Time) -> Option<Self> {
        match algo {
            Algo::Bfs => Some(AlgoSpec::Bfs { source }),
            Algo::Eat => Some(AlgoSpec::Eat { source, start }),
            Algo::Reach => Some(AlgoSpec::Reach { source, start }),
            _ => None,
        }
    }

    /// The catalog entry this spec runs, with its source and start time
    /// (BFS has no start; the catalog ignores it).
    fn lower(&self) -> (Algo, VertexId, Time) {
        match *self {
            AlgoSpec::Bfs { source } => (Algo::Bfs, source, 0),
            AlgoSpec::Eat { source, start } => (Algo::Eat, source, start),
            AlgoSpec::Reach { source, start } => (Algo::Reach, source, start),
        }
    }
}

/// Per-algorithm slice of a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct AlgoReport {
    /// Algorithm short name.
    pub name: &'static str,
    /// Result digest after this batch (per-(vertex, time-point) fold over
    /// the snapshot window).
    pub result_digest: u64,
    /// Supersteps the incremental maintenance run took.
    pub supersteps: u64,
    /// Compute calls the incremental maintenance run took.
    pub compute_calls: u64,
}

/// What one ingested batch did.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// 1-based batch number.
    pub batch: u64,
    /// Operations in the delta.
    pub ops: usize,
    /// Dirty vertices re-seeded by the maintenance runs.
    pub dirty: usize,
    /// Structure digest of the refreshed graph.
    pub graph_digest: u64,
    /// Whether this batch ran the differential full-recompute check.
    pub checked: bool,
    /// Per-algorithm results.
    pub algos: Vec<AlgoReport>,
    /// Drained `stream_*` trace extras (empty when tracing is off).
    pub extras: Vec<(&'static str, u64)>,
}

/// Streaming failures.
#[derive(Debug)]
pub enum StreamError {
    /// The delta violated graph constraints or the overlay digest drifted.
    Graph(GraphError),
    /// A maintenance run failed in the BSP runtime.
    Run(BspError),
    /// The differential check caught an incremental/from-scratch mismatch.
    DifferentialMismatch {
        /// Algorithm short name.
        algo: &'static str,
        /// Batch at which the divergence surfaced.
        batch: u64,
        /// Digest of the incrementally maintained result.
        incremental: u64,
        /// Digest of the from-scratch recomputation.
        from_scratch: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "delta rejected: {e}"),
            StreamError::Run(e) => write!(f, "maintenance run failed: {e}"),
            StreamError::DifferentialMismatch {
                algo,
                batch,
                incremental,
                from_scratch,
            } => write!(
                f,
                "batch {batch}: incremental {algo} digest {incremental:#018x} != from-scratch {from_scratch:#018x}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        StreamError::Graph(e)
    }
}

impl From<BspError> for StreamError {
    fn from(e: BspError) -> Self {
        StreamError::Run(e)
    }
}

/// A run's converged [`PrevStates`], type-erased so fixpoints of different
/// state types share one slot field; only [`Maintain::visit`], which the
/// catalog hands the same program type every batch, looks inside.
type Fixpoint = Box<dyn Any + Send + Sync>;

/// One registered algorithm plus its carried fixpoint.
struct Slot {
    spec: AlgoSpec,
    prev: Fixpoint,
}

/// The resident streaming engine. See the module docs for the per-batch
/// protocol; see [`crate::resume`] for the warm-start soundness argument.
pub struct StreamEngine {
    graph: Arc<TemporalGraph>,
    overlay: DeltaOverlay,
    cfg: StreamConfig,
    slots: Vec<Slot>,
    batches: u64,
    sink: TraceSink,
}

impl StreamEngine {
    /// Takes residence over `graph`.
    pub fn new(graph: Arc<TemporalGraph>, cfg: StreamConfig) -> Self {
        let overlay = DeltaOverlay::new(&graph, cfg.compact_every);
        let sink = TraceSink::new(cfg.trace);
        StreamEngine {
            graph,
            overlay,
            cfg,
            slots: Vec::new(),
            batches: 0,
            sink,
        }
    }

    /// The current frozen graph (refreshed after every ingested batch).
    pub fn graph(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.graph)
    }

    /// Structure digest of the current graph (O(1), memoized).
    pub fn structure_digest(&self) -> u64 {
        self.graph.structure_digest()
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The maintenance runs' configuration, lowered as every registry
    /// run's is.
    fn icm_config(&self) -> Result<IcmConfig, StreamError> {
        let opts = RunOpts {
            workers: self.cfg.workers,
            partition: self.cfg.partition,
            perturb_schedule: self.cfg.perturb_schedule,
            ..RunOpts::default()
        };
        opts.icm_config().map_err(StreamError::Run)
    }

    /// Registers `spec` and runs its initial from-scratch computation on
    /// the current graph, returning the initial result digest.
    ///
    /// # Errors
    ///
    /// [`StreamError::Run`] when the configuration is refused (more than
    /// `RunOpts::MAX_WORKERS` workers) or the initial computation fails.
    pub fn register(&mut self, spec: AlgoSpec) -> Result<u64, StreamError> {
        let (algo, source, start) = spec.lower();
        let params = IcmParams::resolve(&self.graph, Some(source), start, None);
        let initial = Maintain {
            spec,
            graph: &self.graph,
            cfg: &self.icm_config()?,
            window: params.window,
            start: Start::Initial,
        };
        let (report, prev) = visit_icm(algo, &params, initial)?;
        self.slots.push(Slot { spec, prev });
        Ok(report.result_digest)
    }

    /// Ingests one update batch: applies the delta (with the overlay's
    /// compaction cadence), re-converges every registered algorithm from
    /// its previous fixpoint, and on the differential cadence verifies
    /// against from-scratch recomputation.
    ///
    /// # Errors
    ///
    /// [`StreamError::Graph`] on a rejected delta (nothing changed: the
    /// graph, the batch count and the carried fixpoints are those of the
    /// previous batch, and the next valid batch applies as if the bad
    /// one had never arrived) or digest drift;
    /// [`StreamError::Run`] on a refused configuration (nothing changed)
    /// or a failed maintenance run;
    /// [`StreamError::DifferentialMismatch`] when an incremental result
    /// diverges from the from-scratch recomputation.
    pub fn ingest(&mut self, delta: &GraphDelta) -> Result<BatchReport, StreamError> {
        // Lowered before the delta applies, so a refused configuration
        // leaves the engine as it was.
        let cfg = self.icm_config()?;
        // The overlay still holds the pre-batch graph here, so its `eid`
        // index resolves the touched edges without scanning.
        let overlay = &mut self.overlay;
        let dirty = Arc::new(dirty_vertices_with(&self.graph, delta, |eid| {
            overlay.edge_endpoints(eid)
        }));
        let graph = Arc::new(
            self.sink
                .timed(key::STREAM_APPLY_NS, || overlay.apply_and_freeze(delta))?,
        );
        self.batches += 1;
        let batch = self.batches;
        let check = self.cfg.check_every > 0 && batch.is_multiple_of(self.cfg.check_every);

        let mut algos = Vec::with_capacity(self.slots.len());
        let mut inc_compute = 0u64;
        // Window and labels are the graph's, not the algorithm's: the
        // first slot resolves them, the rest only swap their journey in.
        let mut of_graph: Option<IcmParams> = None;
        for slot in &mut self.slots {
            let spec = slot.spec;
            let (algo, source, start) = spec.lower();
            let resolve = || IcmParams::resolve(&graph, Some(source), start, None);
            let of_graph = *of_graph.get_or_insert_with(resolve);
            let params = IcmParams {
                source,
                start,
                ..of_graph
            };
            let warm = Maintain {
                spec,
                graph: &graph,
                cfg: &cfg,
                window: params.window,
                start: Start::Warm {
                    sink: &mut self.sink,
                    prev: slot.prev.as_ref(),
                    dirty: &dirty,
                },
            };
            let (report, prev) = visit_icm(algo, &params, warm)?;
            if check {
                let scratch = Maintain {
                    spec,
                    graph: &graph,
                    cfg: &cfg,
                    window: params.window,
                    start: Start::FullCheck(&mut self.sink),
                };
                let (expect, _) = visit_icm(algo, &params, scratch)?;
                if report.result_digest != expect.result_digest {
                    self.sink.add(key::STREAM_DIGEST_MISMATCHES, 1);
                    return Err(StreamError::DifferentialMismatch {
                        algo: spec.name(),
                        batch,
                        incremental: report.result_digest,
                        from_scratch: expect.result_digest,
                    });
                }
            }
            inc_compute += report.compute_calls;
            algos.push(report);
            slot.prev = prev;
        }

        self.sink.add(key::STREAM_BATCHES, 1);
        self.sink.add(key::STREAM_OPS, delta.len() as u64);
        self.sink
            .add(key::STREAM_DIRTY_VERTICES, dirty.len() as u64);
        self.sink.add(key::STREAM_INC_COMPUTE_CALLS, inc_compute);
        if check {
            self.sink.add(key::STREAM_DIGEST_CHECKS, 1);
        }
        self.graph = graph;
        Ok(BatchReport {
            batch,
            ops: delta.len(),
            dirty: dirty.len(),
            graph_digest: self.graph.structure_digest(),
            checked: check,
            algos,
            extras: self.sink.take_extras(),
        })
    }
}

/// How a maintenance run starts, and which `stream_*_ns` extra its
/// wall-clock span accrues to.
enum Start<'a> {
    /// From scratch, untimed: the initial run of [`StreamEngine::register`].
    Initial,
    /// From scratch: the differential check's oracle.
    FullCheck(&'a mut TraceSink),
    /// [`Resumed`] from the slot's previous fixpoint, re-seeding only the
    /// batch's dirty vertices.
    Warm {
        sink: &'a mut TraceSink,
        prev: &'a (dyn Any + Send + Sync),
        dirty: &'a Arc<BTreeSet<VertexId>>,
    },
}

/// One maintenance run of `spec`'s program over `graph`: cold or warm, one
/// generic body for every state type the catalog hands it.
struct Maintain<'a> {
    spec: AlgoSpec,
    graph: &'a Arc<TemporalGraph>,
    cfg: &'a IcmConfig,
    window: Interval,
    start: Start<'a>,
}

impl IcmVisitor for Maintain<'_> {
    type Out = Result<(AlgoReport, Fixpoint), BspError>;

    fn visit<P>(self, program: P, encode: Option<fn(&P::State) -> u64>) -> Self::Out
    where
        P: IntervalProgram,
    {
        let Maintain { graph, cfg, .. } = self;
        let encode = encode.expect("every streamed algorithm has a result digest");
        let r = match self.start {
            Start::Initial => run_icm(graph, Arc::new(program), cfg, None),
            Start::FullCheck(sink) => sink.timed(key::STREAM_FULL_CHECK_NS, || {
                run_icm(graph, Arc::new(program), cfg, None)
            }),
            Start::Warm { sink, prev, dirty } => {
                let prev = prev
                    .downcast_ref::<PrevStates<P::State>>()
                    .expect("a slot carries the states of its own algorithm");
                let resumed = Resumed::new(program, Arc::clone(prev), Arc::clone(dirty));
                sink.timed(key::STREAM_INCREMENTAL_NS, || {
                    run_icm(graph, Arc::new(resumed), cfg, None)
                })
            }
        }?;
        let states: PrevStates<P::State> = Arc::new(r.states);
        let report = AlgoReport {
            name: self.spec.name(),
            result_digest: digest_interval_states(&states, self.window, encode).0,
            supersteps: r.metrics.supersteps,
            compute_calls: r.metrics.counters.compute_calls,
        };
        Ok((report, Box::new(states)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_datagen::stream::derive_update_stream;
    use graphite_datagen::{GenParams, LifespanModel, PropModel, UpdateStream};
    use graphite_tgraph::graph::{EIdx, EdgeId, SegIdx, VIdx};
    use graphite_tgraph::property::{LabelId, PropValue};

    fn churny(seed: u64, snapshots: Time) -> GenParams {
        GenParams {
            vertices: 60,
            edges: 260,
            snapshots,
            vertex_lifespans: LifespanModel::Geometric { mean: 9.0 },
            edge_lifespans: LifespanModel::Geometric { mean: 5.0 },
            props: PropModel {
                mean_segment: 3.0,
                max_cost: 10,
                max_travel_time: 2,
            },
            ..GenParams::small(seed)
        }
    }

    fn engine_over(stream: &UpdateStream) -> StreamEngine {
        let source = stream
            .base
            .vertices()
            .map(|(_, v)| v.vid)
            .min()
            .expect("non-empty base");
        let mut engine = StreamEngine::new(
            Arc::new(stream.base.clone()),
            StreamConfig {
                compact_every: 2,
                ..StreamConfig::default()
            },
        );
        for spec in [
            AlgoSpec::Bfs { source },
            AlgoSpec::Eat { source, start: 0 },
            AlgoSpec::Reach { source, start: 0 },
        ] {
            engine.register(spec).expect("register");
        }
        engine
    }

    fn digests(report: &BatchReport) -> (u64, u64, Vec<u64>) {
        (
            report.batch,
            report.graph_digest,
            report.algos.iter().map(|a| a.result_digest).collect(),
        )
    }

    /// A rejected batch is invisible: the engine that saw valid → invalid
    /// (one per error class, each a valid batch with one bad op slipped
    /// in, so a prefix of it *would* apply) → valid reports exactly what
    /// the engine that only ever saw the valid batches reports.
    #[test]
    fn a_rejected_batch_leaves_the_stream_where_it_was() {
        let stream = derive_update_stream(&churny(71, 16), 4);
        let mut clean = engine_over(&stream);
        let mut tested = engine_over(&stream);
        let first = tested.ingest(&stream.batches[0]).expect("valid batch");
        assert_eq!(
            digests(&first),
            digests(&clean.ingest(&stream.batches[0]).expect("valid batch"))
        );

        // Entities of the current graph for the bad ops to aim at.
        let g = tested.graph();
        let vertex = g.vertex(VIdx(0));
        let edge = g.edge(EIdx(0));
        let (src, dst) = (g.vertex(edge.src).vid, g.vertex(edge.dst).vid);
        let next = &stream.batches[1];
        assert!(!next.insert_vertices.is_empty() && !next.edge_props.is_empty());
        type Spoil = fn(&mut GraphDelta, VertexId, (EdgeId, VertexId, VertexId, Interval));
        type Expect = fn(&GraphError) -> bool;
        let cases: [(&str, Spoil, Expect); 6] = [
            (
                "duplicate vertex",
                |d, vid, _| d.insert_vertex(vid, Interval::new(0, 1)),
                |e| matches!(e, GraphError::DuplicateVertex(_)),
            ),
            (
                "duplicate edge",
                |d, _, (eid, s, t, life)| d.insert_edge(eid, s, t, life),
                |e| matches!(e, GraphError::DuplicateEdge(_)),
            ),
            (
                "unknown endpoint",
                |d, _, (_, s, _, life)| {
                    d.insert_edge(EdgeId(u64::MAX), s, VertexId(u64::MAX), life);
                },
                |e| matches!(e, GraphError::UnknownVertex(_)),
            ),
            (
                "non-monotone extension",
                |d, _, (eid, _, _, life)| d.extend_edge(eid, life.start()),
                |e| matches!(e, GraphError::NonMonotoneExtension { .. }),
            ),
            (
                "property outside lifespan",
                |d, _, (eid, _, _, life)| {
                    let past = Interval::new(life.start(), life.end() + 1_000);
                    d.edge_property(eid, "fresh-label", past, PropValue::Long(1));
                },
                |e| matches!(e, GraphError::PropertyOutsideLifespan { .. }),
            ),
            (
                // Every op but the very last one applied is valid.
                "error in the last op",
                |d, _, _| {
                    let last = d.edge_props.last().cloned();
                    d.edge_props.extend(last);
                },
                |e| matches!(e, GraphError::PropertyOverlap { .. }),
            ),
        ];
        for (what, spoil, expected) in cases {
            let mut bad = next.clone();
            spoil(&mut bad, vertex.vid, (edge.eid, src, dst, edge.lifespan));
            match tested.ingest(&bad) {
                Err(StreamError::Graph(e)) if expected(&e) => {}
                other => panic!("{what}: expected a typed rejection, got {other:?}"),
            }
            assert_eq!(tested.batches(), 1, "{what}: batch counted");
            assert!(Arc::ptr_eq(&tested.graph(), &g), "{what}: graph replaced");
            assert_eq!(tested.structure_digest(), first.graph_digest, "{what}");
        }

        for delta in &stream.batches[1..] {
            let seen = tested.ingest(delta).expect("valid batch after rejections");
            let want = clean.ingest(delta).expect("valid batch");
            assert_eq!(digests(&seen), digests(&want));
        }
        assert_eq!(tested.structure_digest(), stream.final_digest);
        assert_eq!(tested.graph().content_digest(), stream.final_digest);
    }

    /// Everything of a graph the public read API shows, copied out.
    fn deep_copy(g: &TemporalGraph) -> Vec<String> {
        let props = |entries: Vec<(LabelId, Interval, &PropValue)>| {
            entries
                .into_iter()
                .map(|(l, iv, v)| format!("{:?}={iv:?}:{v:?}", g.labels().name(l)))
                .collect::<Vec<_>>()
        };
        let mut rows = vec![format!("{:?}", g.lifespan())];
        for (v, row) in g.vertices() {
            let (out, inc) = (g.out_run(v), g.in_run(v));
            rows.push(format!(
                "{:?} {:?} {:?} out {:?} {:?} {:?} in {:?} {:?} {:?}",
                row.vid,
                row.lifespan,
                props(row.props.iter().collect()),
                out.edges,
                out.nbr,
                out.span,
                inc.edges,
                inc.nbr,
                inc.span
            ));
        }
        for (e, row) in g.edges() {
            let first = g.first_segment(e).0;
            let values: Vec<_> = (0..g.scatter_segments(e).len() as u32)
                .map(|k| {
                    g.segment_values(SegIdx(first + k))
                        .map(|(l, v)| format!("{:?}={v:?}", g.labels().name(l)))
                        .collect::<Vec<_>>()
                })
                .collect();
            rows.push(format!(
                "{:?} {:?}->{:?} {:?} {:?} {:?} {values:?}",
                row.eid,
                row.src,
                row.dst,
                row.lifespan,
                props(g.edge_props(e).iter().collect()),
                g.scatter_segments(e)
            ));
        }
        rows
    }

    /// An epoch handed out stays what it was: later batches extend and
    /// re-label entities it shares vertex property rows with, and none of
    /// that may show through the held `Arc`.
    #[test]
    fn a_held_epoch_is_isolated_from_later_batches() {
        let stream = derive_update_stream(&churny(73, 24), 10);
        let mut engine = engine_over(&stream);
        let at_k = engine.ingest(&stream.batches[0]).expect("batch k");
        let held = engine.graph();
        let before = deep_copy(&held);

        // What the later batches do to entities alive in epoch k.
        let (mut extended, mut relabelled, mut widened) = (0, 0, 0);
        let in_k: BTreeSet<EdgeId> = held.edges().map(|(_, row)| row.eid).collect();
        let alive = |eid: &EdgeId| in_k.contains(eid);
        for delta in &stream.batches[1..] {
            extended += delta.extend_edges.iter().filter(|(e, _)| alive(e)).count();
            relabelled += delta.edge_props.iter().filter(|(e, ..)| alive(e)).count();
            widened += delta
                .extend_edge_props
                .iter()
                .filter(|(e, ..)| alive(e))
                .count();
            engine.ingest(delta).expect("later batch");
        }
        assert!(stream.batches.len() > 8 && extended > 0 && relabelled > 0 && widened > 0);
        assert_ne!(engine.structure_digest(), at_k.graph_digest);

        assert_eq!(held.structure_digest(), at_k.graph_digest);
        assert_eq!(held.content_digest(), at_k.graph_digest, "content changed");
        assert_eq!(deep_copy(&held), before);
        // BFS and EAT from scratch over the held epoch give what the
        // engine reported when that epoch was current.
        let mut cold = StreamEngine::new(Arc::clone(&held), StreamConfig::default());
        for (slot, report) in engine.slots.iter().zip(&at_k.algos).take(2) {
            let digest = cold.register(slot.spec).expect("cold run over epoch k");
            assert_eq!(digest, report.result_digest, "{}", report.name);
        }
    }
}
