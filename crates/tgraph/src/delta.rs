//! Live graph updates (DESIGN.md §17): [`GraphDelta`] batches of inserts
//! and lifespan/property extensions, applied to a frozen [`TemporalGraph`]
//! through the patching [`DeltaOverlay`].
//!
//! The overlay owns a working copy of the frozen CSR/SoA graph (DESIGN.md
//! §16) plus the `eid` index, and refreshes it per batch at the cost of the
//! batch, not of the graph:
//!
//! 1. **Validate** — the whole batch is checked first, op by op in the
//!    documented order, against the working copy and a *write set* holding
//!    the would-be final row of every entity the batch touches. Validation
//!    enforces exactly the builder's soundness constraints plus the
//!    streaming monotonicity rule (lifespans and property intervals may
//!    only *extend* to the right). A rejected batch changes nothing: the
//!    write set is dropped and the overlay stays usable.
//! 2. **Commit** — the write set is patched into the columns
//!    (`graph::patch`): new rows append, edited rows are overwritten, the
//!    structure digest's section accumulators are updated in O(changed
//!    records), and adjacency and scatter segments are spliced so the flat
//!    columns are byte for byte what a from-scratch assembly of the same
//!    rows would hold.
//! 3. **Freeze** — [`DeltaOverlay::freeze`] is a flat clone of the working
//!    copy: a `memcpy` of the plain columns, edge property values included
//!    (they live in the segment column), plus one reference-count bump per
//!    vertex property row ([`Properties`] is copy-on-write), so an epoch
//!    shares every vertex property row it did not edit with its
//!    neighbours. [`DeltaOverlay::compact`] is that clone plus a
//!    re-derivation of the digest from content, failing with
//!    [`GraphError::DigestDrift`] on divergence.
//!    [`DeltaOverlay::apply_and_freeze`] runs the configured cadence:
//!    every `compact_every`-th batch is a verifying compaction, the rest
//!    are plain freezes — the cadence decides only how often the digest is
//!    verified, never what the frozen graph contains.
//!
//! Because the digest folds records by their *external* identities (vid,
//! eid, label names) into an order-independent multiset sum, a delta-built
//! graph is digest-identical to the same content built from scratch in any
//! insertion order — the layout-invariance contract extends to the update
//! path (pinned by `tests/layout_equiv.rs`).

use crate::error::GraphError;
use crate::graph::{EIdx, EdgeData, EdgeId, RowPatch, TemporalGraph, VIdx, VertexData, VertexId};
use crate::property::{LabelId, PropValue, Properties};
use crate::time::{Interval, Time};
use std::collections::HashMap;

/// One batch of timestamped graph updates: entity inserts, lifespan
/// extensions, and property inserts/extensions. Removals are deliberately
/// absent — the streaming model is insert/extend-only, which is what makes
/// warm-started incremental recomputation sound for monotone algorithms
/// (see `graphite-stream`).
///
/// Application order within a batch is fixed: vertex inserts, vertex
/// extensions, edge inserts, edge extensions, edge property extensions,
/// vertex properties, edge properties — so an edge inserted in a batch may
/// span a lifespan extension from the same batch, and a property extension
/// always targets an entry that existed *before* the batch (an entry
/// inserted by the batch is already complete as written).
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// New vertices `(vid, lifespan)`.
    pub insert_vertices: Vec<(VertexId, Interval)>,
    /// New edges `(eid, src, dst, lifespan)`.
    pub insert_edges: Vec<(EdgeId, VertexId, VertexId, Interval)>,
    /// Vertex lifespan extensions `(vid, new_end)`; `new_end` is absolute
    /// and must lie strictly past the current end.
    pub extend_vertices: Vec<(VertexId, Time)>,
    /// Edge lifespan extensions `(eid, new_end)`.
    pub extend_edges: Vec<(EdgeId, Time)>,
    /// New vertex property entries `(vid, label, interval, value)`.
    pub vertex_props: Vec<(VertexId, String, Interval, PropValue)>,
    /// New edge property entries `(eid, label, interval, value)`.
    pub edge_props: Vec<(EdgeId, String, Interval, PropValue)>,
    /// Extensions of an edge label's right-most entry `(eid, label,
    /// new_end)`.
    pub extend_edge_props: Vec<(EdgeId, String, Time)>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a vertex insert.
    pub fn insert_vertex(&mut self, vid: VertexId, lifespan: Interval) {
        self.insert_vertices.push((vid, lifespan));
    }

    /// Queues an edge insert.
    pub fn insert_edge(&mut self, eid: EdgeId, src: VertexId, dst: VertexId, lifespan: Interval) {
        self.insert_edges.push((eid, src, dst, lifespan));
    }

    /// Queues a vertex lifespan extension to the absolute `new_end`.
    pub fn extend_vertex(&mut self, vid: VertexId, new_end: Time) {
        self.extend_vertices.push((vid, new_end));
    }

    /// Queues an edge lifespan extension to the absolute `new_end`.
    pub fn extend_edge(&mut self, eid: EdgeId, new_end: Time) {
        self.extend_edges.push((eid, new_end));
    }

    /// Queues a new vertex property entry.
    pub fn vertex_property(
        &mut self,
        vid: VertexId,
        label: &str,
        interval: Interval,
        value: PropValue,
    ) {
        self.vertex_props
            .push((vid, label.to_owned(), interval, value));
    }

    /// Queues a new edge property entry.
    pub fn edge_property(
        &mut self,
        eid: EdgeId,
        label: &str,
        interval: Interval,
        value: PropValue,
    ) {
        self.edge_props
            .push((eid, label.to_owned(), interval, value));
    }

    /// Queues an extension of `label`'s right-most entry on edge `eid`.
    pub fn extend_edge_property(&mut self, eid: EdgeId, label: &str, new_end: Time) {
        self.extend_edge_props
            .push((eid, label.to_owned(), new_end));
    }

    /// Total number of queued operations.
    pub fn len(&self) -> usize {
        self.insert_vertices.len()
            + self.insert_edges.len()
            + self.extend_vertices.len()
            + self.extend_edges.len()
            + self.vertex_props.len()
            + self.edge_props.len()
            + self.extend_edge_props.len()
    }

    /// `true` when no operation is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Patching overlay over a frozen [`TemporalGraph`] (module docs). Create
/// one per update stream, feed it [`GraphDelta`] batches, and freeze the
/// refreshed graph per batch.
#[derive(Debug)]
pub struct DeltaOverlay {
    /// The current graph: the overlay's own working copy, patched in place.
    graph: TemporalGraph,
    eid_index: HashMap<EdgeId, u32>,
    batches: u64,
    compact_every: u64,
}

impl DeltaOverlay {
    /// Takes a working copy of `base` (a flat clone sharing its vertex
    /// property rows) and indexes its edge ids. `compact_every` sets the
    /// verifying compaction cadence of
    /// [`apply_and_freeze`](Self::apply_and_freeze) (`0` = never verify,
    /// every freeze is a plain freeze).
    pub fn new(base: &TemporalGraph, compact_every: u64) -> Self {
        let eid_index = base.edges().map(|(e, row)| (row.eid, e.0)).collect();
        DeltaOverlay {
            graph: base.clone(),
            eid_index,
            batches: 0,
            compact_every,
        }
    }

    /// Number of vertices in the current graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges in the current graph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of delta batches applied so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches
    }

    /// The structure digest of the current graph (what the next freeze
    /// will carry) — the incrementally-folded accumulators, O(1).
    pub fn structure_digest(&self) -> u64 {
        self.graph.structure_digest()
    }

    /// The endpoints `(src, dst)` of edge `eid` in the current graph, by
    /// external id — an O(1) lookup through the overlay's `eid` index.
    pub fn edge_endpoints(&self, eid: EdgeId) -> Option<(VertexId, VertexId)> {
        let row = self.graph.edge(EIdx(*self.eid_index.get(&eid)?));
        Some((
            self.graph.vertex(row.src).vid,
            self.graph.vertex(row.dst).vid,
        ))
    }

    /// Applies one batch transactionally: the whole batch is validated
    /// first (op by op in the documented order; the builder's Constraints
    /// 1–3 plus streaming monotonicity), then committed. On error nothing
    /// has changed and the overlay carries on from the previous batch.
    ///
    /// # Errors
    ///
    /// Any [`GraphError`] a [`crate::builder::TemporalGraphBuilder`] could
    /// produce, plus [`GraphError::NonMonotoneExtension`] and
    /// [`GraphError::UnknownProperty`] for invalid extensions.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), GraphError> {
        let Txn {
            patch, new_eids, ..
        } = Txn::validate(&self.graph, &self.eid_index, delta)?;
        self.eid_index.extend(new_eids);
        self.graph.commit(patch);
        self.batches += 1;
        Ok(())
    }

    /// The current graph as a frozen epoch: a flat clone — `memcpy` of the
    /// plain columns, a reference-count bump per vertex property row, no
    /// re-hash and no re-sort.
    pub fn freeze(&self) -> TemporalGraph {
        self.graph.clone()
    }

    /// Verifying compaction: a [`freeze`](Self::freeze) whose digest is
    /// first re-derived from content and checked against the incrementally
    /// folded one.
    ///
    /// # Errors
    ///
    /// [`GraphError::DigestDrift`] when the incrementally-folded digest
    /// disagrees with the re-derived one.
    pub fn compact(&self) -> Result<TemporalGraph, GraphError> {
        let expected = self.structure_digest();
        let actual = self.graph.content_digest();
        if expected != actual {
            return Err(GraphError::DigestDrift { expected, actual });
        }
        Ok(self.freeze())
    }

    /// Applies `delta` and returns the refreshed frozen graph, running a
    /// verifying [`compact`](Self::compact) on every `compact_every`-th
    /// batch (deterministic cadence) and a plain [`freeze`](Self::freeze)
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Validation errors from [`apply`](Self::apply) and
    /// [`GraphError::DigestDrift`] from compaction points.
    pub fn apply_and_freeze(&mut self, delta: &GraphDelta) -> Result<TemporalGraph, GraphError> {
        self.apply(delta)?;
        if self.compact_every > 0 && self.batches.is_multiple_of(self.compact_every) {
            self.compact()
        } else {
            Ok(self.freeze())
        }
    }
}

/// One batch's validation pass: reads fall through the write set to the
/// graph, writes land in the write set only. What survives
/// [`validate`](Self::validate) is committed as is.
struct Txn<'a> {
    graph: &'a TemporalGraph,
    eid_index: &'a HashMap<EdgeId, u32>,
    new_vids: HashMap<VertexId, VIdx>,
    new_eids: HashMap<EdgeId, u32>,
    patch: RowPatch,
}

impl<'a> Txn<'a> {
    fn validate(
        graph: &'a TemporalGraph,
        eid_index: &'a HashMap<EdgeId, u32>,
        delta: &GraphDelta,
    ) -> Result<Self, GraphError> {
        let mut txn = Txn {
            graph,
            eid_index,
            new_vids: HashMap::new(),
            new_eids: HashMap::new(),
            patch: RowPatch::default(),
        };
        for &(vid, lifespan) in &delta.insert_vertices {
            txn.insert_vertex(vid, lifespan)?;
        }
        for &(vid, new_end) in &delta.extend_vertices {
            txn.extend_vertex(vid, new_end)?;
        }
        for &(eid, src, dst, lifespan) in &delta.insert_edges {
            txn.insert_edge(eid, src, dst, lifespan)?;
        }
        for &(eid, new_end) in &delta.extend_edges {
            txn.extend_edge(eid, new_end)?;
        }
        for (eid, label, new_end) in &delta.extend_edge_props {
            txn.extend_edge_property(*eid, label, *new_end)?;
        }
        for (vid, label, interval, value) in &delta.vertex_props {
            txn.vertex_property(*vid, label, *interval, value.clone())?;
        }
        for (eid, label, interval, value) in &delta.edge_props {
            txn.edge_property(*eid, label, *interval, value.clone())?;
        }
        Ok(txn)
    }

    fn vertex_index(&self, vid: VertexId) -> Result<VIdx, GraphError> {
        self.graph
            .vertex_index(vid)
            .or_else(|| self.new_vids.get(&vid).copied())
            .ok_or(GraphError::UnknownVertex(vid))
    }

    fn edge_index(&self, eid: EdgeId) -> Result<u32, GraphError> {
        self.eid_index
            .get(&eid)
            .or_else(|| self.new_eids.get(&eid))
            .copied()
            .ok_or(GraphError::UnknownEdge(eid))
    }

    /// The vertex's id and lifespan as the batch has left them so far.
    fn vertex(&self, v: VIdx) -> (VertexId, Interval) {
        match self.patch.vertices.get(&v.0) {
            Some(row) => (row.vid, row.lifespan),
            None => (self.graph.vertex(v).vid, self.graph.vertex_lifespan(v)),
        }
    }

    /// The vertex's row in the write set, copied in from the graph (the
    /// property row by reference) on first touch.
    fn vertex_mut(&mut self, v: VIdx) -> &mut VertexData {
        let graph = self.graph;
        self.patch.vertices.entry(v.0).or_insert_with(|| {
            let row = graph.vertex(v);
            VertexData {
                vid: row.vid,
                lifespan: row.lifespan,
                props: row.props.clone(),
            }
        })
    }

    /// The edge's row in the write set, copied in on first touch, its
    /// property timelines rebuilt from the segment column for the batch to
    /// edit.
    fn edge_mut(&mut self, e: u32) -> &mut EdgeData {
        let graph = self.graph;
        self.patch.edges.entry(e).or_insert_with(|| {
            let row = graph.edge(EIdx(e));
            let mut props = Properties::new();
            for (label, iv, value) in graph.edge_props(EIdx(e)).iter() {
                props
                    .insert(label, iv, value.clone())
                    .expect("a frozen edge's entries do not overlap");
            }
            EdgeData {
                eid: row.eid,
                src: row.src,
                dst: row.dst,
                lifespan: row.lifespan,
                props,
            }
        })
    }

    /// Interns `label` for this batch: the graph's id when it has one,
    /// otherwise the id the commit will assign.
    fn intern(&mut self, label: &str) -> LabelId {
        if let Some(id) = self.graph.label(label) {
            return id;
        }
        let base = self.graph.labels().len();
        let at = match self.patch.labels.iter().position(|l| l == label) {
            Some(at) => at,
            None => {
                self.patch.labels.push(label.to_owned());
                self.patch.labels.len() - 1
            }
        };
        LabelId((base + at) as u32)
    }

    fn insert_vertex(&mut self, vid: VertexId, lifespan: Interval) -> Result<(), GraphError> {
        if self.vertex_index(vid).is_ok() {
            return Err(GraphError::DuplicateVertex(vid));
        }
        let idx = (self.graph.num_vertices() + self.new_vids.len()) as u32;
        self.new_vids.insert(vid, VIdx(idx));
        self.patch.vertices.insert(
            idx,
            VertexData {
                vid,
                lifespan,
                props: Properties::new(),
            },
        );
        Ok(())
    }

    fn extend_vertex(&mut self, vid: VertexId, new_end: Time) -> Result<(), GraphError> {
        let v = self.vertex_index(vid)?;
        let (_, current) = self.vertex(v);
        if new_end <= current.end() {
            return Err(GraphError::NonMonotoneExtension {
                owner: format!("vertex {}", vid.0),
                current,
                requested_end: new_end,
            });
        }
        self.vertex_mut(v).lifespan = Interval::new(current.start(), new_end);
        Ok(())
    }

    /// Constraint 2 for one edge lifespan against both endpoints.
    fn check_within_endpoints(
        &self,
        eid: EdgeId,
        edge: Interval,
        endpoints: [VIdx; 2],
    ) -> Result<(), GraphError> {
        for v in endpoints {
            let (vid, vertex) = self.vertex(v);
            if !edge.during_or_equals(vertex) {
                return Err(GraphError::EdgeOutsideVertexLifespan {
                    eid,
                    vid,
                    edge,
                    vertex,
                });
            }
        }
        Ok(())
    }

    fn insert_edge(
        &mut self,
        eid: EdgeId,
        src: VertexId,
        dst: VertexId,
        lifespan: Interval,
    ) -> Result<(), GraphError> {
        if self.edge_index(eid).is_ok() {
            return Err(GraphError::DuplicateEdge(eid));
        }
        let (s, d) = (self.vertex_index(src)?, self.vertex_index(dst)?);
        self.check_within_endpoints(eid, lifespan, [s, d])?;
        let idx = (self.graph.num_edges() + self.new_eids.len()) as u32;
        self.new_eids.insert(eid, idx);
        self.patch.edges.insert(
            idx,
            EdgeData {
                eid,
                src: s,
                dst: d,
                lifespan,
                props: Properties::new(),
            },
        );
        Ok(())
    }

    fn extend_edge(&mut self, eid: EdgeId, new_end: Time) -> Result<(), GraphError> {
        let e = self.edge_index(eid)?;
        let (current, src, dst) = {
            let row = self.edge_mut(e);
            (row.lifespan, row.src, row.dst)
        };
        if new_end <= current.end() {
            return Err(GraphError::NonMonotoneExtension {
                owner: format!("edge {}", eid.0),
                current,
                requested_end: new_end,
            });
        }
        let extended = Interval::new(current.start(), new_end);
        self.check_within_endpoints(eid, extended, [src, dst])?;
        self.edge_mut(e).lifespan = extended;
        Ok(())
    }

    fn vertex_property(
        &mut self,
        vid: VertexId,
        label: &str,
        interval: Interval,
        value: PropValue,
    ) -> Result<(), GraphError> {
        let v = self.vertex_index(vid)?;
        let (_, lifespan) = self.vertex(v);
        if !interval.during_or_equals(lifespan) {
            return Err(GraphError::PropertyOutsideLifespan {
                owner: format!("vertex {}", vid.0),
                property: interval,
                lifespan,
            });
        }
        let lid = self.intern(label);
        self.vertex_mut(v)
            .props
            .insert(lid, interval, value)
            .map_err(|source| GraphError::PropertyOverlap {
                owner: format!("vertex {}", vid.0),
                source,
            })
    }

    fn edge_property(
        &mut self,
        eid: EdgeId,
        label: &str,
        interval: Interval,
        value: PropValue,
    ) -> Result<(), GraphError> {
        let e = self.edge_index(eid)?;
        let lifespan = self.edge_mut(e).lifespan;
        if !interval.during_or_equals(lifespan) {
            return Err(GraphError::PropertyOutsideLifespan {
                owner: format!("edge {}", eid.0),
                property: interval,
                lifespan,
            });
        }
        let lid = self.intern(label);
        self.edge_mut(e)
            .props
            .insert(lid, interval, value)
            .map_err(|source| GraphError::PropertyOverlap {
                owner: format!("edge {}", eid.0),
                source,
            })
    }

    fn extend_edge_property(
        &mut self,
        eid: EdgeId,
        label: &str,
        new_end: Time,
    ) -> Result<(), GraphError> {
        let e = self.edge_index(eid)?;
        let unknown = || GraphError::UnknownProperty {
            owner: format!("edge {}", eid.0),
            label: label.to_owned(),
        };
        // Extensions run before the batch's property inserts, so the label
        // and the entry are ones an earlier batch (or the base) wrote.
        let lid = self.graph.label(label).ok_or_else(unknown)?;
        let row = self.edge_mut(e);
        // The right-most entry of the label's timeline: entries never
        // overlap, so it is the only one an extension to the right can
        // target without colliding.
        let target = row
            .props
            .timeline(lid)
            .and_then(|tl| tl.iter().last())
            .map(|(iv, _)| iv)
            .ok_or_else(unknown)?;
        if new_end <= target.end() {
            return Err(GraphError::NonMonotoneExtension {
                owner: format!("property {label:?} on edge {}", eid.0),
                current: target,
                requested_end: new_end,
            });
        }
        let extended = Interval::new(target.start(), new_end);
        if !extended.during_or_equals(row.lifespan) {
            return Err(GraphError::PropertyOutsideLifespan {
                owner: format!("edge {}", eid.0),
                property: extended,
                lifespan: row.lifespan,
            });
        }
        row.props.extend_last(lid, new_end);
        Ok(())
    }
}

impl TemporalGraph {
    /// Applies one delta batch to this graph, returning the updated frozen
    /// graph — one-shot convenience over [`DeltaOverlay`] (which amortizes
    /// the working copy and the `eid` index across many batches).
    ///
    /// # Errors
    ///
    /// See [`DeltaOverlay::apply`].
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<TemporalGraph, GraphError> {
        let mut overlay = DeltaOverlay::new(self, 0);
        overlay.apply(delta)?;
        Ok(overlay.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;

    fn base() -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
        b.add_vertex(VertexId(2), Interval::new(0, 8)).unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(2, 6))
            .unwrap();
        b.edge_property(EdgeId(1), "w", Interval::new(2, 6), 4i64.into())
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn delta_built_graph_matches_from_scratch_digest() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.insert_vertex(VertexId(3), Interval::new(1, 9));
        delta.extend_vertex(VertexId(2), 12);
        delta.insert_edge(EdgeId(2), VertexId(2), VertexId(3), Interval::new(3, 9));
        delta.extend_edge(EdgeId(1), 9);
        delta.edge_property(EdgeId(2), "w", Interval::new(3, 7), PropValue::Long(2));
        delta.extend_edge_property(EdgeId(1), "w", 8);
        let updated = g.apply_delta(&delta).unwrap();

        // The same final content built through the builder from scratch.
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
        b.add_vertex(VertexId(2), Interval::new(0, 12)).unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(2, 9))
            .unwrap();
        b.edge_property(EdgeId(1), "w", Interval::new(2, 8), 4i64.into())
            .unwrap();
        b.add_vertex(VertexId(3), Interval::new(1, 9)).unwrap();
        b.add_edge(EdgeId(2), VertexId(2), VertexId(3), Interval::new(3, 9))
            .unwrap();
        b.edge_property(EdgeId(2), "w", Interval::new(3, 7), 2i64.into())
            .unwrap();
        let scratch = b.build().unwrap();

        assert_eq!(updated.structure_digest(), scratch.structure_digest());
        assert_eq!(updated.num_vertices(), 3);
        assert_eq!(updated.num_edges(), 2);
        assert_eq!(
            updated.lifespan(),
            scratch.lifespan(),
            "graph lifespan tracks extensions"
        );
    }

    #[test]
    fn overlay_digest_prediction_matches_frozen_graph() {
        let g = base();
        let mut overlay = DeltaOverlay::new(&g, 2);
        assert_eq!(overlay.structure_digest(), g.structure_digest());
        let mut d1 = GraphDelta::new();
        d1.insert_vertex(VertexId(7), Interval::new(0, 4));
        let g1 = overlay.apply_and_freeze(&d1).unwrap();
        assert_eq!(overlay.structure_digest(), g1.structure_digest());
        let mut d2 = GraphDelta::new();
        d2.extend_vertex(VertexId(7), 6);
        // Batch 2 hits the compaction cadence: full re-fold + drift check.
        let g2 = overlay.apply_and_freeze(&d2).unwrap();
        assert_eq!(overlay.structure_digest(), g2.structure_digest());
        assert_eq!(overlay.batches_applied(), 2);
    }

    #[test]
    fn monotonicity_is_enforced() {
        let g = base();
        let mut shrink = GraphDelta::new();
        shrink.extend_vertex(VertexId(1), 5);
        assert!(matches!(
            g.apply_delta(&shrink),
            Err(GraphError::NonMonotoneExtension { .. })
        ));
        let mut shrink_edge = GraphDelta::new();
        shrink_edge.extend_edge(EdgeId(1), 6);
        assert!(matches!(
            g.apply_delta(&shrink_edge),
            Err(GraphError::NonMonotoneExtension { .. })
        ));
        let mut shrink_prop = GraphDelta::new();
        shrink_prop.extend_edge_property(EdgeId(1), "w", 5);
        assert!(matches!(
            g.apply_delta(&shrink_prop),
            Err(GraphError::NonMonotoneExtension { .. })
        ));
    }

    #[test]
    fn builder_constraints_hold_for_deltas() {
        let g = base();
        let mut dup = GraphDelta::new();
        dup.insert_vertex(VertexId(1), Interval::new(0, 3));
        assert!(matches!(
            g.apply_delta(&dup),
            Err(GraphError::DuplicateVertex(VertexId(1)))
        ));
        let mut loose = GraphDelta::new();
        loose.insert_edge(EdgeId(9), VertexId(1), VertexId(2), Interval::new(0, 9));
        assert!(matches!(
            g.apply_delta(&loose),
            Err(GraphError::EdgeOutsideVertexLifespan { .. })
        ));
        let mut over = GraphDelta::new();
        over.extend_edge(EdgeId(1), 9); // vertex 2 ends at 8
        assert!(matches!(
            g.apply_delta(&over),
            Err(GraphError::EdgeOutsideVertexLifespan { .. })
        ));
        let mut unknown = GraphDelta::new();
        unknown.extend_edge_property(EdgeId(1), "missing", 7);
        assert!(matches!(
            g.apply_delta(&unknown),
            Err(GraphError::UnknownProperty { .. })
        ));
    }

    #[test]
    fn extension_reaches_the_vertex_boundary() {
        let g = base();
        let mut d = GraphDelta::new();
        d.extend_edge(EdgeId(1), 8); // exactly vertex 2's end
        let updated = g.apply_delta(&d).unwrap();
        let e = updated.edge_indices().next().unwrap();
        assert_eq!(updated.edge_lifespan(e), Interval::new(2, 8));
    }
}
