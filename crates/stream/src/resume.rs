//! Warm-started resumption of monotone interval programs (DESIGN.md §17).
//!
//! [`Resumed`] wraps an [`IntervalProgram`] together with a previous run's
//! converged states and the set of *dirty* vertices — the vertices whose
//! time-warp alignment the latest update batch may have changed. The
//! wrapped program re-converges with work proportional to the batch:
//!
//! * **Clean vertices** restore their previous states through the engine's
//!   `warm_start` hook, which overlays them *without* marking them changed:
//!   a clean vertex holds its fixpoint silently — no compute activity, no
//!   scatter — unless messages from the dirty frontier improve on it.
//! * **Dirty vertices** start cold and have their previous states written
//!   back as *real* state changes in superstep 1, so they re-scatter their
//!   full converged state over **all** incident edges — including edges the
//!   batch just inserted or extended — before the inner program's own
//!   superstep-1 logic (source seeding) runs.
//!
//! Soundness for monotone programs (min-merge BFS/EAT, or-merge
//! reachability) over insert/extend-only deltas: the previous fixpoint is
//! achievable in the new graph (updates never remove reachability), so
//! restoring it cannot over-claim; every improvement the new elements
//! enable originates at a dirty endpoint, whose full re-scatter injects the
//! frontier messages; from there change-driven propagation completes
//! exactly as in a cold run. The differential harness
//! ([`crate::engine::StreamEngine`]) verifies the resulting states
//! digest-identical to a from-scratch recomputation.

use graphite_icm::prelude::*;
use graphite_tgraph::delta::GraphDelta;
use graphite_tgraph::graph::{EdgeId, TemporalGraph, VertexId};
use graphite_tgraph::time::{Interval, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The converged per-vertex interval states of a previous run, as produced
/// by [`IcmResult::states`].
pub type PrevStates<S> = Arc<BTreeMap<VertexId, Vec<(Interval, S)>>>;

/// A monotone interval program resumed from a previous run's fixpoint.
/// See the module docs for the clean/dirty protocol.
pub struct Resumed<P: IntervalProgram> {
    inner: P,
    prev: PrevStates<P::State>,
    dirty: Arc<BTreeSet<VertexId>>,
}

impl<P: IntervalProgram> Resumed<P> {
    /// Wraps `inner` with the previous states and the dirty set of the
    /// latest update batch (see [`dirty_vertices`]).
    pub fn new(inner: P, prev: PrevStates<P::State>, dirty: Arc<BTreeSet<VertexId>>) -> Self {
        Resumed { inner, prev, dirty }
    }
}

impl<P: IntervalProgram> IntervalProgram for Resumed<P> {
    type State = P::State;
    type Msg = P::Msg;

    fn init(&self, vertex: &VertexContext<'_>) -> Self::State {
        self.inner.init(vertex)
    }

    fn warm_start(&self, vertex: &VertexContext<'_>) -> Option<Vec<(Interval, Self::State)>> {
        if self.dirty.contains(&vertex.vid()) {
            return None; // cold start; compute below restores with changes
        }
        self.prev.get(&vertex.vid()).cloned()
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, Self::State, Self::Msg>,
        interval: Interval,
        state: &Self::State,
        msgs: &[Self::Msg],
    ) {
        if ctx.superstep() == 1 && self.dirty.contains(&ctx.vid()) {
            // Restore the previous fixpoint as genuine state changes: the
            // engine reports them and scatters the full converged state
            // over every incident edge (the frontier re-injection).
            // Value-identical pieces (e.g. unreached ∞ over init ∞) are
            // filtered by the engine and stay silent.
            if let Some(entries) = self.prev.get(&ctx.vid()) {
                for (iv, s) in entries {
                    if let Some(clipped) = iv.intersect(interval) {
                        ctx.set_state(clipped, s.clone());
                    }
                }
            }
        }
        self.inner.compute(ctx, interval, state, msgs);
    }

    fn scatter(
        &self,
        ctx: &mut ScatterContext<'_, Self::Msg>,
        interval: Interval,
        state: &Self::State,
    ) {
        self.inner.scatter(ctx, interval, state);
    }

    fn direction(&self) -> EdgeDirection {
        self.inner.direction()
    }

    fn refine_scatter_by_properties(&self) -> bool {
        self.inner.refine_scatter_by_properties()
    }

    fn prepartition(&self, vertex: &VertexContext<'_>) -> Vec<Time> {
        self.inner.prepartition(vertex)
    }

    fn all_active(&self, step: u64, globals: &graphite_bsp::aggregate::Aggregators) -> bool {
        self.inner.all_active(step, globals)
    }

    fn combine(&self, a: &Self::Msg, b: &Self::Msg) -> Option<Self::Msg> {
        self.inner.combine(a, b)
    }

    fn exact_combine(&self) -> bool {
        self.inner.exact_combine()
    }
}

/// The vertices whose warp alignment `delta` may change relative to
/// `base` (the graph *before* the batch) — the set that must re-scatter.
///
/// * endpoints of inserted edges (the new edge carries state across);
/// * endpoints of edges whose lifespan or properties changed (their
///   scatter intervals / payloads changed);
/// * lifespan-extended vertices (their partition grows a fresh tail);
/// * in-neighbors of lifespan-extended vertices — regenerating their
///   scatter reconstructs open-ended messages (e.g. EAT's `[arrival, ∞)`)
///   over the extended tail;
/// * inserted vertices (no previous state exists for them).
///
/// Over-approximation is sound (a dirty vertex merely re-announces its
/// fixpoint); under-approximation is what the differential harness exists
/// to catch.
///
/// This stand-alone form resolves the touched edges with one scan over
/// `base`'s edge rows; [`StreamEngine::ingest`](crate::engine::StreamEngine::ingest)
/// computes the same set through its overlay's `eid` index instead.
pub fn dirty_vertices(base: &TemporalGraph, delta: &GraphDelta) -> BTreeSet<VertexId> {
    let touched: BTreeSet<EdgeId> = touched_edges(delta).collect();
    let mut endpoints = BTreeMap::new();
    if !touched.is_empty() {
        for (_, row) in base.edges().filter(|(_, row)| touched.contains(&row.eid)) {
            endpoints.insert(
                row.eid,
                (base.vertex(row.src).vid, base.vertex(row.dst).vid),
            );
        }
    }
    dirty_vertices_with(base, delta, |eid| endpoints.get(&eid).copied())
}

/// The pre-existing edges `delta` extends or re-labels (edges the batch
/// itself inserts may appear too; they resolve to nothing in the pre-batch
/// graph and are covered as inserts).
fn touched_edges(delta: &GraphDelta) -> impl Iterator<Item = EdgeId> + '_ {
    delta
        .extend_edges
        .iter()
        .map(|&(eid, _)| eid)
        .chain(delta.edge_props.iter().map(|(eid, _, _, _)| *eid))
        .chain(delta.extend_edge_props.iter().map(|(eid, _, _)| *eid))
}

/// [`dirty_vertices`] with the touched edges' endpoints resolved by the
/// caller: `endpoints(eid)` answers for the *pre-batch* graph (`None` for
/// an edge it does not hold).
pub(crate) fn dirty_vertices_with(
    base: &TemporalGraph,
    delta: &GraphDelta,
    endpoints: impl Fn(EdgeId) -> Option<(VertexId, VertexId)>,
) -> BTreeSet<VertexId> {
    let mut dirty = BTreeSet::new();
    for &(vid, _) in &delta.insert_vertices {
        dirty.insert(vid);
    }
    for &(_, src, dst, _) in &delta.insert_edges {
        dirty.insert(src);
        dirty.insert(dst);
    }
    for (src, dst) in touched_edges(delta).filter_map(endpoints) {
        dirty.insert(src);
        dirty.insert(dst);
    }
    for &(vid, _) in &delta.extend_vertices {
        dirty.insert(vid);
        if let Some(v) = base.vertex_index(vid) {
            for &nbr in base.in_run(v).nbr {
                dirty.insert(base.vertex(nbr).vid);
            }
        }
        // Same-batch inserted edges pointing at the extended vertex.
        for &(_, src, dst, _) in &delta.insert_edges {
            if dst == vid {
                dirty.insert(src);
            }
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::delta::DeltaOverlay;
    use graphite_tgraph::rng::SplitMix64;

    /// Both resolvers — the scan over the pre-batch graph and the
    /// overlay's `eid` index — must give the same dirty set, on deltas
    /// that touch known edges, unknown edges and edges of their own.
    #[test]
    fn scan_and_index_resolution_agree_on_random_deltas() {
        let mut rng = SplitMix64::new(0x0064_6972_7479); // "dirty"
        let (n, m) = (40u64, 160u64);
        let mut b = TemporalGraphBuilder::new();
        for v in 0..n {
            b.add_vertex(VertexId(v), Interval::new(0, 20)).unwrap();
        }
        for e in 0..m {
            let (s, d) = (rng.next_u64() % n, rng.next_u64() % n);
            let start = (rng.next_u64() % 10) as i64;
            b.add_edge(
                EdgeId(e * 3),
                VertexId(s),
                VertexId(d),
                Interval::new(start, start + 5),
            )
            .unwrap();
        }
        let base = b.build().unwrap();
        let overlay = DeltaOverlay::new(&base, 0);
        let mut non_trivial = 0;
        for case in 0..320u64 {
            let mut delta = GraphDelta::new();
            // Edge ids are multiples of 3, so two thirds of the draws name
            // an edge the graph does not hold.
            let eid = |rng: &mut SplitMix64| EdgeId(rng.next_u64() % (m * 3 + 6));
            for _ in 0..rng.next_u64() % 4 {
                delta.extend_edge(eid(&mut rng), 30);
            }
            for _ in 0..rng.next_u64() % 4 {
                delta.edge_property(eid(&mut rng), "w", Interval::new(0, 1), 1i64.into());
            }
            for _ in 0..rng.next_u64() % 3 {
                delta.extend_edge_property(eid(&mut rng), "w", 30);
            }
            for k in 0..rng.next_u64() % 3 {
                let fresh = VertexId(1000 + case * 8 + k);
                delta.insert_vertex(fresh, Interval::new(0, 9));
                let new_edge = EdgeId(100_000 + case * 8 + k);
                delta.insert_edge(
                    new_edge,
                    fresh,
                    VertexId(rng.next_u64() % n),
                    Interval::new(1, 4),
                );
                delta.extend_edge(new_edge, 6);
            }
            for _ in 0..rng.next_u64() % 3 {
                delta.extend_vertex(VertexId(rng.next_u64() % (n + 4)), 40);
            }
            let scanned = dirty_vertices(&base, &delta);
            let indexed = dirty_vertices_with(&base, &delta, |e| overlay.edge_endpoints(e));
            assert_eq!(scanned, indexed, "case {case}");
            non_trivial += usize::from(scanned.len() > 2);
        }
        assert!(non_trivial >= 256, "only {non_trivial} non-trivial deltas");
    }
}
