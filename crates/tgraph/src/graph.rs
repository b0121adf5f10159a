//! The temporal property graph `G = (V, E, L, AV, AE)` (Sec. III,
//! Definition 1) and its frozen, cache-conscious storage (DESIGN.md §16).
//!
//! Externally, vertices and edges are identified by opaque [`VertexId`] /
//! [`EdgeId`] values chosen by the user. Internally, the graph assigns dense
//! indices ([`VIdx`], [`EIdx`]) and freezes into a structure-of-arrays
//! layout at build time:
//!
//! * **Entity columns** — per-vertex attribute columns (`vid`, lifespan,
//!   properties) indexed by `VIdx` and per-edge ones (`eid`, endpoints,
//!   lifespan) indexed by `EIdx`, where `EIdx` is *insertion order* — the
//!   order every digest and codec folds in, which is what makes the
//!   physical layout invisible to them.
//! * **CSR adjacency** — one contiguous edge-index array per direction
//!   with per-vertex offsets. Each vertex's run is pre-sorted by edge
//!   lifespan `(start, end, EIdx)`, and carries *mirror columns* (neighbor
//!   endpoint, lifespan) aligned with the run, so the scatter hot loop
//!   scans three flat arrays instead of chasing per-edge rows.
//! * **Scatter segments** — every edge's property-refined lifespan
//!   segments, precomputed into one CSR-shaped pool ([`scatter_segments`])
//!   so the engine never materializes them per run, with each segment's
//!   property values frozen beside it ([`segment_values`]): a property
//!   read at a time-point is the segment containing it, then its values.
//!   This column is the only store of edge property values; an edge's
//!   timelines are read back from it in place ([`edge_props`]).
//!
//! [`scatter_segments`]: TemporalGraph::scatter_segments
//! [`segment_values`]: TemporalGraph::segment_values
//! [`edge_props`]: TemporalGraph::edge_props

mod patch;

pub(crate) use patch::RowPatch;

use crate::property::{LabelId, LabelInterner, PropValue, Properties};
use crate::time::{Interval, Time};
use std::collections::HashMap;
use std::ops::Range;

/// An opaque, user-chosen vertex identifier (`vid` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u64);

/// An opaque, user-chosen edge identifier (`eid` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

/// Dense internal vertex index (position in the graph's vertex columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VIdx(pub u32);

impl VIdx {
    /// The index as `usize` for table addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Dense internal edge index (position in the graph's edge columns,
/// always equal to insertion order — the digest and codec fold order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EIdx(pub u32);

impl EIdx {
    /// The index as `usize` for table addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Dense scatter-segment index: position in the graph's segment pool,
/// which lists every edge's segments in `EIdx` order and each edge's in
/// temporal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegIdx(pub u32);

impl SegIdx {
    /// The index as `usize` for table addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A temporal vertex `⟨vid, τ⟩` plus its property timelines, as one owned
/// row — the builder-side staging shape. The frozen graph decomposes rows
/// into columns; reads go through the [`VertexRef`] view.
#[derive(Clone, Debug)]
pub struct VertexData {
    /// External identifier.
    pub vid: VertexId,
    /// Lifespan `[ts, te)` of the vertex.
    pub lifespan: Interval,
    /// Vertex property timelines (`AV`).
    pub props: Properties,
}

/// A temporal edge `⟨eid, vid_i, vid_j, τ⟩` plus its property timelines,
/// as one owned row — the builder-side staging shape. The frozen graph
/// decomposes rows into columns; reads go through the [`EdgeRef`] view.
#[derive(Clone, Debug)]
pub struct EdgeData {
    /// External identifier.
    pub eid: EdgeId,
    /// Source vertex (internal index).
    pub src: VIdx,
    /// Sink vertex (internal index).
    pub dst: VIdx,
    /// Lifespan `[ts, te)` of the edge.
    pub lifespan: Interval,
    /// Edge property timelines (`AE`).
    pub props: Properties,
}

/// Read view of one vertex, assembled from the graph's columns. The
/// scalars are copied out (they are two words each); the property
/// timelines stay borrowed from the graph.
#[derive(Clone, Copy, Debug)]
pub struct VertexRef<'a> {
    /// External identifier.
    pub vid: VertexId,
    /// Lifespan `[ts, te)` of the vertex.
    pub lifespan: Interval,
    /// Vertex property timelines (`AV`).
    pub props: &'a Properties,
}

/// Read view of one edge, assembled from the graph's columns; its property
/// timelines are read through [`TemporalGraph::edge_props`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef {
    /// External identifier.
    pub eid: EdgeId,
    /// Source vertex (internal index).
    pub src: VIdx,
    /// Sink vertex (internal index).
    pub dst: VIdx,
    /// Lifespan `[ts, te)` of the edge.
    pub lifespan: Interval,
}

/// Read view of one edge's property timelines (`AE`): its cells in the
/// segment column, a row of one cell per label for each of its segments
/// (`Refiner::refine`). Reads walk the cells in place and allocate nothing.
#[derive(Clone, Copy, Debug)]
pub struct EdgeProps<'a> {
    segs: &'a [Interval],
    cells: &'a [(LabelId, u32)],
    values: &'a [PropValue],
}

impl<'a> EdgeProps<'a> {
    /// Iterates `(label, interval, value)` over every entry: label by label
    /// in the edge's label order (the order its labels were first given a
    /// value), each label's entries in time order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, Interval, &'a PropValue)> + 'a {
        let EdgeProps {
            segs,
            cells,
            values,
        } = *self;
        let width = cells.len() / segs.len().max(1);
        let cell = move |k: usize, j: usize| cells[k * width + j];
        (0..width).flat_map(move |j| {
            (0..segs.len())
                .filter(move |&k| cell(k, j).1 & ENTRY_START != 0)
                .map(move |k| {
                    let (label, start) = cell(k, j);
                    // The entry runs on while the cells repeat its value
                    // unmarked; a mark, a gap or the last segment ends it.
                    let end = (k + 1..segs.len())
                        .find(|&n| cell(n, j).1 != start & !ENTRY_START)
                        .unwrap_or(segs.len());
                    let iv = Interval::new(segs[k].start(), segs[end - 1].end());
                    (label, iv, &values[(start & !ENTRY_START) as usize])
                })
        })
    }

    /// Total number of `(label, interval, value)` entries.
    pub fn len(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, cell)| cell & ENTRY_START != 0)
            .count()
    }

    /// `true` when the edge has no property.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// One vertex's CSR adjacency run together with its mirror columns, all
/// aligned index-by-index and pre-sorted by edge lifespan
/// `(start, end, EIdx)`. The scatter hot loop iterates `span` (early
/// exit on the sorted starts) and only touches `edges`/`nbr` for the
/// survivors — three sequential scans, no per-edge row loads.
#[derive(Clone, Copy, Debug)]
pub struct AdjRun<'a> {
    /// Edge indices of the run.
    pub edges: &'a [EIdx],
    /// The neighbor endpoint of each edge (`dst` for out-runs, `src` for
    /// in-runs), aligned with `edges`.
    pub nbr: &'a [VIdx],
    /// Edge lifespans, aligned with `edges`; `span[i].start()` is
    /// non-decreasing along the run.
    pub span: &'a [Interval],
}

impl<'a> AdjRun<'a> {
    /// Number of edges in the run.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// An immutable temporal property multigraph, frozen into the
/// structure-of-arrays layout described in the module docs.
///
/// Construct one with [`crate::builder::TemporalGraphBuilder`], which
/// enforces the paper's soundness constraints, or deserialize a previously
/// saved graph.
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    labels: LabelInterner,
    // Vertex columns, indexed by `VIdx`.
    v_vid: Vec<VertexId>,
    v_lifespan: Vec<Interval>,
    v_props: Vec<Properties>,
    // Edge columns, indexed by `EIdx` = insertion order.
    e_eid: Vec<EdgeId>,
    e_src: Vec<VIdx>,
    e_dst: Vec<VIdx>,
    e_lifespan: Vec<Interval>,
    vid_index: HashMap<VertexId, VIdx>,
    // CSR adjacency, one per direction: out-runs mirror `dst`, in-runs
    // mirror `src`.
    out: Adjacency,
    inc: Adjacency,
    // Property-refined scatter segments, one unit per `EIdx`, and the
    // property values of each, one unit per `SegIdx`: a `(label, cell)` per
    // label of the edge, in its label order (`Refiner::refine`), the cell
    // indexing `values`, the distinct values the column holds.
    segs: Pool<Interval>,
    seg_values: Pool<(LabelId, u32)>,
    values: Vec<PropValue>,
    lifespan: Interval,
    // Memoized structure-digest section accumulators: wrapping sums of the
    // identity-keyed per-record hashes of every vertex / edge row. Computed
    // once at assembly and carried forward incrementally by every patch
    // (`patch`), so `structure_digest` is O(1).
    digest_v_acc: u64,
    digest_e_acc: u64,
}

/// Salt the structure digest starts from (`"graphite"` in ASCII).
const DIGEST_SALT: u64 = 0x6772_6170_6869_7465;
/// Seed tag for vertex record hashes (`"vert"`).
const VERTEX_TAG: u64 = 0x7665_7274;
/// Seed tag for edge record hashes (`"edge"`).
const EDGE_TAG: u64 = 0x6564_6765;

/// Two-round splitmix64 finalizer over an accumulating state: the same
/// mixing discipline as `crate::rng::SplitMix64`, applied as a sequential
/// fold (order is part of the content within one record).
pub(crate) fn mix(acc: u64, x: u64) -> u64 {
    let mut z = acc
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(x.wrapping_mul(0xff51_afd7_ed55_8ccd));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds a string (length, then 8-byte little-endian chunks) into `acc`.
pub(crate) fn mix_str(acc: u64, s: &str) -> u64 {
    let mut h = mix(acc, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    h
}

/// Folds every property entry (resolved label *name* so interning order
/// cannot matter, interval, tagged value) into `h`.
fn mix_props<'a>(
    mut h: u64,
    labels: &LabelInterner,
    entries: impl Iterator<Item = (LabelId, Interval, &'a PropValue)>,
) -> u64 {
    for (label, iv, value) in entries {
        h = mix_str(h, labels.name(label).unwrap_or(""));
        h = mix(h, iv.start() as u64);
        h = mix(h, iv.end() as u64);
        h = match value {
            PropValue::Long(v) => mix(h, 1 ^ *v as u64),
            // A bit-exact fold of the stored IEEE value: no float
            // arithmetic is involved.
            PropValue::Double(v) => mix(h, 2 ^ v.to_bits()),
            PropValue::Bool(v) => mix(h, 3 ^ u64::from(*v)),
            PropValue::Text(v) => mix_str(mix(h, 4), v),
        };
    }
    h
}

/// Combines the entity counts and section accumulators into the final
/// structure digest — the one formula [`TemporalGraph::structure_digest`]
/// and the delta overlay's prediction share.
pub(crate) fn combine_digest(nv: u64, ne: u64, v_acc: u64, e_acc: u64) -> u64 {
    let mut h = mix(DIGEST_SALT, nv);
    h = mix(h, ne);
    h = mix(h, v_acc);
    mix(h, e_acc)
}

/// One direction of CSR adjacency: per-vertex offsets into lifespan-sorted
/// edge runs, with the neighbor/span mirror columns aligned index by index.
#[derive(Clone, Debug)]
struct Adjacency {
    offsets: Vec<u32>,
    edges: Vec<EIdx>,
    nbr: Vec<VIdx>,
    span: Vec<Interval>,
}

impl Adjacency {
    /// Builds the direction over `n` vertices from the edge columns:
    /// `key[e]` is the vertex edge `e` is charged to, `nbr[e]` the mirrored
    /// endpoint.
    fn build(n: usize, key: &[VIdx], nbr: &[VIdx], lifespan: &[Interval]) -> Self {
        let mut degree = vec![0u32; n];
        for k in key {
            degree[k.idx()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // One global sort produces every per-vertex run already ordered by
        // (lifespan start, lifespan end, EIdx): the CSR fill below preserves
        // the relative order of a vertex's edges.
        let mut order: Vec<u32> = (0..key.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let life = lifespan[i as usize];
            (key[i as usize].0, life.start(), life.end(), i)
        });
        let mut run = vec![EIdx(0); key.len()];
        let mut mirror_nbr = vec![VIdx(0); key.len()];
        let mut mirror_span = vec![Interval::all(); key.len()];
        let mut fill = offsets.clone();
        for &i in &order {
            let slot = &mut fill[key[i as usize].idx()];
            run[*slot as usize] = EIdx(i);
            mirror_nbr[*slot as usize] = nbr[i as usize];
            mirror_span[*slot as usize] = lifespan[i as usize];
            *slot += 1;
        }
        Adjacency {
            offsets,
            edges: run,
            nbr: mirror_nbr,
            span: mirror_span,
        }
    }

    #[inline]
    fn bounds(&self, v: VIdx) -> (usize, usize) {
        (
            self.offsets[v.idx()] as usize,
            self.offsets[v.idx() + 1] as usize,
        )
    }

    #[inline]
    fn run(&self, v: VIdx) -> AdjRun<'_> {
        let (s, e) = self.bounds(v);
        AdjRun {
            edges: &self.edges[s..e],
            nbr: &self.nbr[s..e],
            span: &self.span[s..e],
        }
    }
}

/// A CSR pool: unit `u` owns `items[offsets[u]..offsets[u + 1]]`. The
/// scatter segments are one (a unit per edge), their property values
/// another (a unit per segment); a live update replaces units in both
/// through `Pool::replace` ([`patch`]).
#[derive(Clone, Debug)]
struct Pool<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Pool<T> {
    fn with_capacity(units: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(units + 1);
        offsets.push(0);
        Pool {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Ends the open unit at the current tail of `items`.
    fn close(&mut self) {
        self.offsets.push(self.items.len() as u32);
    }

    fn units(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn range(&self, u: usize) -> Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    #[inline]
    fn unit(&self, u: usize) -> &[T] {
        &self.items[self.range(u)]
    }
}

/// A property value's identity in the value table: bit-exact, so two
/// values share an id only when they are the same bits.
#[derive(PartialEq, Eq, Hash)]
enum ValueKey {
    Long(i64),
    Double(u64),
    Bool(bool),
    Text(String),
}

impl From<&PropValue> for ValueKey {
    fn from(value: &PropValue) -> Self {
        match value {
            PropValue::Long(v) => ValueKey::Long(*v),
            PropValue::Double(v) => ValueKey::Double(v.to_bits()),
            PropValue::Bool(v) => ValueKey::Bool(*v),
            PropValue::Text(v) => ValueKey::Text(v.clone()),
        }
    }
}

/// The cell of a label with no value on a segment. Never marked.
const GAP: u32 = u32::MAX >> 1;
/// A cell's mark bit: the label's entry starts on this segment. The other
/// bits are the value's id in the value table, or [`GAP`].
const ENTRY_START: u32 = 1 << 31;

/// The value id a cell holds, or `None` for a gap.
#[inline]
fn cell_value(cell: u32) -> Option<usize> {
    let id = cell & !ENTRY_START;
    (id != GAP).then_some(id as usize)
}

/// Refines edges into the segment pools, one edge per call, interning the
/// values it writes into a value table.
struct Refiner {
    /// Scratch: one edge's boundaries.
    bounds: Vec<Time>,
    /// The value table's ids.
    ids: HashMap<ValueKey, u32>,
}

impl Refiner {
    /// A refiner appending to `table`.
    fn new(table: &[PropValue]) -> Self {
        Refiner {
            bounds: Vec::new(),
            ids: (0..)
                .zip(table)
                .map(|(id, value)| (ValueKey::from(value), id))
                .collect(),
        }
    }

    /// Appends the property-refined scatter segments of one edge to
    /// `segs`, as one unit (Sec. IV-A: "scatter is called once for each
    /// overlapping interval of its out-edges having a distinct
    /// property"): the lifespan split at every property boundary. Each
    /// segment's property values, read at its start and so constant
    /// across it, go to `values` as one unit per segment: a cell for every
    /// label of the edge, in its label order, holding the value's id in
    /// `table` ([`GAP`] where the label has none), marked with
    /// [`ENTRY_START`] where one of the edge's entries starts. The marks
    /// keep equal-valued neighbouring entries apart and the fixed label
    /// order keeps labels that never share a segment in order, so
    /// [`EdgeProps`] reads back exactly the entries refined here.
    fn refine(
        &mut self,
        life: Interval,
        props: &Properties,
        segs: &mut Pool<Interval>,
        values: &mut Pool<(LabelId, u32)>,
        table: &mut Vec<PropValue>,
    ) {
        let bounds = &mut self.bounds;
        bounds.clear();
        bounds.push(life.start());
        bounds.push(life.end());
        for (_, iv, _) in props.iter() {
            bounds.push(iv.start());
            bounds.push(iv.end());
        }
        bounds.sort_unstable();
        bounds.dedup();
        for seg in bounds
            .windows(2)
            .filter_map(|w| Interval::try_new(w[0], w[1]))
            .filter_map(|iv| iv.intersect(life))
        {
            segs.items.push(seg);
            for label in props.labels() {
                let cell = props
                    .entry_at(label, seg.start())
                    .map_or(GAP, |(iv, value)| {
                        let id = *self.ids.entry(ValueKey::from(value)).or_insert_with(|| {
                            table.push(value.clone());
                            table.len() as u32 - 1
                        });
                        assert!(id < GAP, "value table outgrew the cell encoding");
                        if iv.start() == seg.start() {
                            id | ENTRY_START
                        } else {
                            id
                        }
                    });
                values.items.push((label, cell));
            }
            values.close();
        }
        segs.close();
    }
}

impl TemporalGraph {
    /// Assembles (freezes) a graph from validated row-shaped parts: the
    /// rows are decomposed into columns, CSR adjacency is built with
    /// lifespan-sorted runs and mirror columns, every edge's
    /// property-refined scatter segments are precomputed with their
    /// property values (the edge rows' `props` are not kept), and the
    /// digest accumulators are folded from the content. The builder's path
    /// (and the oracle the patch tests rebuild through); live updates
    /// patch the frozen columns in place instead ([`patch`]).
    pub(crate) fn assemble(
        labels: LabelInterner,
        vertices: Vec<VertexData>,
        edges: Vec<EdgeData>,
        vid_index: HashMap<VertexId, VIdx>,
    ) -> Self {
        let n = vertices.len();
        let lifespan = vertices
            .iter()
            .map(|v| v.lifespan)
            .reduce(|a, b| a.span(b))
            .unwrap_or_else(Interval::all);
        let mut v_vid = Vec::with_capacity(n);
        let mut v_lifespan = Vec::with_capacity(n);
        let mut v_props = Vec::with_capacity(n);
        for v in vertices {
            v_vid.push(v.vid);
            v_lifespan.push(v.lifespan);
            v_props.push(v.props);
        }
        let m = edges.len();
        let mut e_eid = Vec::with_capacity(m);
        let mut e_src = Vec::with_capacity(m);
        let mut e_dst = Vec::with_capacity(m);
        let mut e_lifespan = Vec::with_capacity(m);
        // Pooled CSR-style so the common no-property case costs one
        // interval, two offsets and zero extra allocations.
        let mut segs = Pool::with_capacity(m, m);
        let mut seg_values = Pool::with_capacity(m, 0);
        let mut values = Vec::new();
        let mut refiner = Refiner::new(&values);
        for e in edges {
            e_eid.push(e.eid);
            e_src.push(e.src);
            e_dst.push(e.dst);
            e_lifespan.push(e.lifespan);
            refiner.refine(
                e.lifespan,
                &e.props,
                &mut segs,
                &mut seg_values,
                &mut values,
            );
        }
        // Grown by doubling from nothing: give back the slack.
        seg_values.items.shrink_to_fit();
        let mut graph = TemporalGraph {
            out: Adjacency::build(n, &e_src, &e_dst, &e_lifespan),
            inc: Adjacency::build(n, &e_dst, &e_src, &e_lifespan),
            labels,
            v_vid,
            v_lifespan,
            v_props,
            e_eid,
            e_src,
            e_dst,
            e_lifespan,
            vid_index,
            segs,
            seg_values,
            values,
            lifespan,
            digest_v_acc: 0,
            digest_e_acc: 0,
        };
        (graph.digest_v_acc, graph.digest_e_acc) = graph.fold_content();
        graph
    }

    /// The avalanched hash of one vertex row, keyed by the *external* `vid`
    /// only — never by row position, so a graph's digest is invariant under
    /// entity insertion order (a delta-built graph hashes identically to
    /// the same content built from scratch in any order). Summing these
    /// (wrapping) over all rows gives the digest's vertex section; a single
    /// row edit is a subtract-old / add-new update.
    fn vertex_hash(&self, v: usize) -> u64 {
        let mut h = mix(VERTEX_TAG, self.v_vid[v].0);
        h = mix(h, self.v_lifespan[v].start() as u64);
        h = mix(h, self.v_lifespan[v].end() as u64);
        mix_props(h, &self.labels, self.v_props[v].iter())
    }

    /// The avalanched hash of one edge row (endpoints fold by external
    /// vertex id, so the hash is invariant under internal indexing and row
    /// position; `eid` uniqueness keeps the multiset fold injective over
    /// records). Its property entries are read from the segment column.
    fn edge_hash(&self, e: usize) -> u64 {
        let mut h = mix(EDGE_TAG, self.e_eid[e].0);
        h = mix(h, self.v_vid[self.e_src[e].idx()].0);
        h = mix(h, self.v_vid[self.e_dst[e].idx()].0);
        h = mix(h, self.e_lifespan[e].start() as u64);
        h = mix(h, self.e_lifespan[e].end() as u64);
        mix_props(h, &self.labels, self.edge_props(EIdx(e as u32)).iter())
    }

    /// Folds the section accumulators `(vertex sum, edge sum)` from the
    /// content — one hash per row. Assembly seeds the memoized pair with
    /// it; the streaming overlay's verifying compaction compares it against
    /// the pair it carried forward incrementally.
    fn fold_content(&self) -> (u64, u64) {
        let v_acc = (0..self.v_vid.len()).fold(0u64, |a, v| a.wrapping_add(self.vertex_hash(v)));
        let e_acc = (0..self.e_eid.len()).fold(0u64, |a, e| a.wrapping_add(self.edge_hash(e)));
        (v_acc, e_acc)
    }

    /// The structure digest re-derived from the content, ignoring the
    /// memoized accumulators — O(graph). Equal to
    /// [`structure_digest`](Self::structure_digest) unless incremental
    /// maintenance drifted, which is what
    /// [`DeltaOverlay::compact`](crate::delta::DeltaOverlay::compact)
    /// checks.
    pub fn content_digest(&self) -> u64 {
        let (v_acc, e_acc) = self.fold_content();
        combine_digest(
            self.v_vid.len() as u64,
            self.e_eid.len() as u64,
            v_acc,
            e_acc,
        )
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.v_vid.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.e_eid.len()
    }

    /// The smallest interval containing every vertex lifespan.
    pub fn lifespan(&self) -> Interval {
        self.lifespan
    }

    /// A 64-bit digest of the graph's full logical content: every vertex
    /// and edge (external ids, lifespans, property timelines, resolved
    /// label *names* so interning order cannot matter) hashed as an
    /// identity-keyed record through a splitmix64-style mixer, with the
    /// record hashes summed per section and the sections combined with the
    /// entity counts.
    ///
    /// Two graphs with equal logical content produce equal digests on
    /// every platform; any insertion, removal, lifespan change, or
    /// property edit changes it with overwhelming probability. The serving
    /// layer keys its result cache by this value (DESIGN.md §14), and the
    /// streaming layer invalidates through it after every update batch
    /// (DESIGN.md §17), so the digest must be cheap relative to a run.
    /// The section sums are memoized at assembly and carried forward
    /// incrementally by delta application, making this call **O(1)** — no
    /// re-hash of the graph, ever.
    ///
    /// Records are keyed by external `vid` / `eid` (unique by Constraint 1,
    /// so the multiset sum stays injective over records) and never by row
    /// position: the digest is invariant under both the physical layout
    /// (DESIGN.md §16) and the insertion order, which is what lets a
    /// delta-built graph hash identically to the same content built from
    /// scratch, while appends and in-place lifespan/property extensions
    /// update the sums in O(changed records).
    pub fn structure_digest(&self) -> u64 {
        combine_digest(
            self.v_vid.len() as u64,
            self.e_eid.len() as u64,
            self.digest_v_acc,
            self.digest_e_acc,
        )
    }

    /// The label interner (for resolving property names).
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// The `LabelId` of `name`, if any entity carries it.
    pub fn label(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name)
    }

    /// Resolves an external vertex id to its internal index.
    pub fn vertex_index(&self, vid: VertexId) -> Option<VIdx> {
        self.vid_index.get(&vid).copied()
    }

    /// Read view of the vertex at internal index `v`.
    #[inline]
    pub fn vertex(&self, v: VIdx) -> VertexRef<'_> {
        let i = v.idx();
        VertexRef {
            vid: self.v_vid[i],
            lifespan: self.v_lifespan[i],
            props: &self.v_props[i],
        }
    }

    /// Read view of the edge at internal index `e`.
    #[inline]
    pub fn edge(&self, e: EIdx) -> EdgeRef {
        let i = e.idx();
        EdgeRef {
            eid: self.e_eid[i],
            src: self.e_src[i],
            dst: self.e_dst[i],
            lifespan: self.e_lifespan[i],
        }
    }

    /// The lifespan of vertex `v`, read straight from the interval column.
    #[inline]
    pub fn vertex_lifespan(&self, v: VIdx) -> Interval {
        self.v_lifespan[v.idx()]
    }

    /// The lifespan of edge `e`, read straight from the interval column.
    #[inline]
    pub fn edge_lifespan(&self, e: EIdx) -> Interval {
        self.e_lifespan[e.idx()]
    }

    /// The property timelines of edge `e`, as a view over its cells in
    /// the segment column. Point reads go through
    /// [`edge_property_at`](Self::edge_property_at) instead.
    #[inline]
    pub fn edge_props(&self, e: EIdx) -> EdgeProps<'_> {
        let segs = self.segs.range(e.idx());
        let (first, end) = (
            self.seg_values.offsets[segs.start] as usize,
            self.seg_values.offsets[segs.end] as usize,
        );
        EdgeProps {
            segs: &self.segs.items[segs],
            cells: &self.seg_values.items[first..end],
            values: &self.values,
        }
    }

    /// All internal vertex indices.
    pub fn vertex_indices(&self) -> impl Iterator<Item = VIdx> {
        (0..self.v_vid.len() as u32).map(VIdx)
    }

    /// All internal edge indices.
    pub fn edge_indices(&self) -> impl Iterator<Item = EIdx> {
        (0..self.e_eid.len() as u32).map(EIdx)
    }

    /// All vertices in index order.
    pub fn vertices(&self) -> impl Iterator<Item = (VIdx, VertexRef<'_>)> {
        (0..self.v_vid.len() as u32).map(|i| (VIdx(i), self.vertex(VIdx(i))))
    }

    /// All edges in index (= insertion) order.
    pub fn edges(&self) -> impl Iterator<Item = (EIdx, EdgeRef)> + '_ {
        (0..self.e_eid.len() as u32).map(|i| (EIdx(i), self.edge(EIdx(i))))
    }

    /// Out-edge indices of `v`, sorted by edge lifespan
    /// `(start, end, EIdx)`.
    #[inline]
    pub fn out_edges(&self, v: VIdx) -> &[EIdx] {
        let (s, e) = self.out.bounds(v);
        &self.out.edges[s..e]
    }

    /// In-edge indices of `v`, sorted by edge lifespan `(start, end, EIdx)`.
    #[inline]
    pub fn in_edges(&self, v: VIdx) -> &[EIdx] {
        let (s, e) = self.inc.bounds(v);
        &self.inc.edges[s..e]
    }

    /// The out-adjacency run of `v` with its aligned mirror columns
    /// (neighbor = `dst`) — the scatter hot loop's view.
    #[inline]
    pub fn out_run(&self, v: VIdx) -> AdjRun<'_> {
        self.out.run(v)
    }

    /// The in-adjacency run of `v` with its aligned mirror columns
    /// (neighbor = `src`).
    #[inline]
    pub fn in_run(&self, v: VIdx) -> AdjRun<'_> {
        self.inc.run(v)
    }

    /// The precomputed property-refined scatter segments of edge `e`: its
    /// lifespan split at every property-interval boundary, in temporal
    /// order, so each segment has constant property values. For an edge
    /// without properties this is exactly `[lifespan]`.
    #[inline]
    pub fn scatter_segments(&self, e: EIdx) -> &[Interval] {
        self.segs.unit(e.idx())
    }

    /// The pool index of edge `e`'s first scatter segment: its `k`-th
    /// segment is `SegIdx(first_segment(e).0 + k)`.
    #[inline]
    pub fn first_segment(&self, e: EIdx) -> SegIdx {
        SegIdx(self.segs.offsets[e.idx()])
    }

    /// The segment of edge `e` containing time-point `t`, or `None`
    /// outside the edge's lifespan (the segments tile it).
    #[inline]
    pub fn segment_at(&self, e: EIdx, t: Time) -> Option<SegIdx> {
        let segs = self.scatter_segments(e);
        let k = segs.partition_point(|seg| seg.end() <= t);
        segs.get(k)
            .filter(|seg| seg.contains_point(t))
            .map(|_| SegIdx(self.first_segment(e).0 + k as u32))
    }

    /// The property values of scatter segment `s`, constant across it: one
    /// `(label, value)` per label with a value there, in the edge's label
    /// order.
    pub fn segment_values(&self, s: SegIdx) -> impl Iterator<Item = (LabelId, &PropValue)> + '_ {
        self.seg_values
            .unit(s.idx())
            .iter()
            .filter_map(|&(label, cell)| Some((label, &self.values[cell_value(cell)?])))
    }

    /// The value of property `label` on scatter segment `s`.
    #[inline]
    pub fn segment_value(&self, s: SegIdx, label: LabelId) -> Option<&PropValue> {
        let &(_, cell) = self
            .seg_values
            .unit(s.idx())
            .iter()
            .find(|(l, _)| *l == label)?;
        Some(&self.values[cell_value(cell)?])
    }

    /// The lifespan length of vertex `v`, clamped to at least 1 so that
    /// instantaneous vertices still carry weight. This is the unit of
    /// *temporal load*: an interval-centric engine does work proportional
    /// to how long an entity exists, not merely to its existence.
    #[inline]
    pub fn vertex_span_weight(&self, v: VIdx) -> u64 {
        self.v_lifespan[v.idx()].len().max(1) as u64
    }

    /// The temporal load weight of vertex `v`: its own lifespan length
    /// plus the lifespan lengths of its out-edges (each edge is charged to
    /// its source, so summing over all vertices counts every edge exactly
    /// once). Interval-weighted partitioners balance this quantity across
    /// workers instead of raw vertex counts. One scan over the mirrored
    /// span column — no per-edge row loads.
    pub fn vertex_temporal_weight(&self, v: VIdx) -> u64 {
        let mut w = self.vertex_span_weight(v);
        for span in self.out_run(v).span {
            w = w.saturating_add(span.len().max(1) as u64);
        }
        w
    }

    /// Out-degree of `v` over the whole lifespan (multi-edges counted).
    pub fn out_degree(&self, v: VIdx) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v` over the whole lifespan.
    pub fn in_degree(&self, v: VIdx) -> usize {
        self.in_edges(v).len()
    }

    /// Out-edges of `v` whose lifespan intersects `window`. The run is
    /// start-sorted, so the scan stops at the first edge starting at or
    /// after the window's end.
    pub fn out_edges_overlapping(
        &self,
        v: VIdx,
        window: Interval,
    ) -> impl Iterator<Item = (EIdx, EdgeRef)> + '_ {
        let run = self.out_run(v);
        run.span
            .iter()
            .take_while(move |span| span.start() < window.end())
            .enumerate()
            .filter(move |(_, span)| span.intersects(window))
            .map(move |(i, _)| (run.edges[i], self.edge(run.edges[i])))
    }

    /// Value of edge property `label` on `e` at time `t`: the segment
    /// containing `t`, then its values.
    pub fn edge_property_at(&self, e: EIdx, label: LabelId, t: Time) -> Option<&PropValue> {
        self.segment_value(self.segment_at(e, t)?, label)
    }

    /// Value of vertex property `label` on `v` at time `t`.
    pub fn vertex_property_at(&self, v: VIdx, label: LabelId, t: Time) -> Option<&PropValue> {
        self.v_props[v.idx()].value_at(label, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;

    /// The paper's Fig. 1(a) transit network; reused as a fixture across the
    /// workspace via [`crate::fixtures::transit_graph`].
    fn transit() -> TemporalGraph {
        crate::fixtures::transit_graph()
    }

    #[test]
    fn fixture_shape() {
        let g = transit();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.lifespan(), Interval::from_start(0));
    }

    #[test]
    fn structure_digest_tracks_logical_content() {
        let g = transit();
        // Stable across calls and across an independent rebuild.
        assert_eq!(g.structure_digest(), g.structure_digest());
        assert_eq!(g.structure_digest(), transit().structure_digest());

        // Any logical change — one more vertex, or one shifted lifespan —
        // moves the digest.
        let grown = {
            let mut b = TemporalGraphBuilder::new();
            for (_, v) in g.vertices() {
                b.add_vertex(v.vid, v.lifespan).unwrap();
            }
            b.add_vertex(VertexId(999), Interval::new(0, 5)).unwrap();
            for (_, e) in g.edges() {
                b.add_edge(e.eid, g.vertex(e.src).vid, g.vertex(e.dst).vid, e.lifespan)
                    .unwrap();
            }
            b.build().unwrap()
        };
        assert_ne!(g.structure_digest(), grown.structure_digest());

        let shifted = {
            let mut b = TemporalGraphBuilder::new();
            for (i, (_, v)) in g.vertices().enumerate() {
                let iv = if i == 0 {
                    Interval::new(v.lifespan.start(), v.lifespan.end().saturating_sub(1))
                } else {
                    v.lifespan
                };
                b.add_vertex(v.vid, iv).unwrap();
            }
            b.build().unwrap()
        };
        assert_ne!(
            {
                let mut b = TemporalGraphBuilder::new();
                for (_, v) in g.vertices() {
                    b.add_vertex(v.vid, v.lifespan).unwrap();
                }
                b.build().unwrap()
            }
            .structure_digest(),
            shifted.structure_digest()
        );
    }

    #[test]
    fn adjacency_round_trip() {
        let g = transit();
        let a = g.vertex_index(VertexId(0)).unwrap();
        let b = g.vertex_index(VertexId(1)).unwrap();
        // A has out-edges to B, C and D.
        let outs: Vec<VertexId> = g
            .out_edges(a)
            .iter()
            .map(|&e| g.vertex(g.edge(e).dst).vid)
            .collect();
        assert_eq!(outs.len(), 3);
        assert!(outs.contains(&VertexId(1)));
        assert!(outs.contains(&VertexId(2)));
        assert!(outs.contains(&VertexId(3)));
        // B's only in-edge is from A.
        let ins: Vec<VertexId> = g
            .in_edges(b)
            .iter()
            .map(|&e| g.vertex(g.edge(e).src).vid)
            .collect();
        assert_eq!(ins, vec![VertexId(0)]);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn runs_are_sorted_and_mirror_columns_agree() {
        let g = transit();
        for v in g.vertex_indices() {
            for (run, label) in [(g.out_run(v), "out"), (g.in_run(v), "in")] {
                assert_eq!(run.edges.len(), run.nbr.len());
                assert_eq!(run.edges.len(), run.span.len());
                assert_eq!(run.len(), run.edges.len());
                for i in 0..run.len() {
                    let e = g.edge(run.edges[i]);
                    assert_eq!(run.span[i], e.lifespan, "{label} span mirror");
                    let expect = if label == "out" { e.dst } else { e.src };
                    assert_eq!(run.nbr[i], expect, "{label} nbr mirror");
                }
                for w in run.span.windows(2) {
                    assert!(
                        (w[0].start(), w[0].end()) <= (w[1].start(), w[1].end()),
                        "{label} run must be lifespan-sorted"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_segments_refine_at_property_boundaries() {
        let g = transit();
        let a = g.vertex_index(VertexId(0)).unwrap();
        // A->B lives over [3,6) with travel-cost 4 on [3,5) and 3 on
        // [5,6): two segments split at 5.
        let ab = g
            .out_edges(a)
            .iter()
            .copied()
            .find(|&e| g.vertex(g.edge(e).dst).vid == VertexId(1))
            .unwrap();
        assert_eq!(
            g.scatter_segments(ab),
            &[Interval::new(3, 5), Interval::new(5, 6)]
        );
        // A property-free edge keeps its whole lifespan as one segment.
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
        b.add_vertex(VertexId(2), Interval::new(0, 10)).unwrap();
        b.add_edge(EdgeId(7), VertexId(1), VertexId(2), Interval::new(2, 9))
            .unwrap();
        let g2 = b.build().unwrap();
        assert_eq!(g2.scatter_segments(EIdx(0)), &[Interval::new(2, 9)]);
    }

    #[test]
    fn overlapping_edge_scans() {
        let g = transit();
        let a = g.vertex_index(VertexId(0)).unwrap();
        // Over [0,2), only A->C ([1,3)) and A->D ([1,4)) are live; A->B
        // starts at 3.
        let w = Interval::new(0, 2);
        let mut hits: Vec<VertexId> = g
            .out_edges_overlapping(a, w)
            .map(|(_, e)| g.vertex(e.dst).vid)
            .collect();
        hits.sort();
        assert_eq!(hits, vec![VertexId(2), VertexId(3)]);
        assert_eq!(g.out_edges_overlapping(a, Interval::new(6, 9)).count(), 0);
    }

    #[test]
    fn property_lookup() {
        let g = transit();
        let a = g.vertex_index(VertexId(0)).unwrap();
        let cost = g.label("travel-cost").unwrap();
        // A->B carries cost 4 over [3,5) and 3 over [5,6).
        let ab = g
            .out_edges(a)
            .iter()
            .copied()
            .find(|&e| g.vertex(g.edge(e).dst).vid == VertexId(1))
            .unwrap();
        assert_eq!(
            g.edge_property_at(ab, cost, 3).and_then(PropValue::as_long),
            Some(4)
        );
        assert_eq!(
            g.edge_property_at(ab, cost, 5).and_then(PropValue::as_long),
            Some(3)
        );
        assert_eq!(g.edge_property_at(ab, cost, 6), None);
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraphBuilder::new().build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.lifespan(), Interval::all());
    }

    #[test]
    fn multigraph_parallel_edges() {
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
        b.add_vertex(VertexId(2), Interval::new(0, 10)).unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(0, 5))
            .unwrap();
        b.add_edge(EdgeId(2), VertexId(1), VertexId(2), Interval::new(5, 10))
            .unwrap();
        let g = b.build().unwrap();
        let v1 = g.vertex_index(VertexId(1)).unwrap();
        assert_eq!(g.out_degree(v1), 2);
    }
}
