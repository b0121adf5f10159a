//! In-place patching of the frozen columns (DESIGN.md §17.1): the physical
//! half of a live update. [`crate::delta`] validates a batch into a
//! [`RowPatch`] — the final row of every entity the batch inserts or edits
//! — and [`TemporalGraph::commit`] writes it into the columns so that they
//! end up byte for byte what [`TemporalGraph::assemble`] would have built
//! from the same rows in the same insertion order:
//!
//! * **entity columns** — new rows append (`VIdx`/`EIdx` stay insertion
//!   order), edited rows are overwritten;
//! * **digest accumulators** — subtract the edited rows' old hashes, add
//!   every patched row's new one: O(patched rows);
//! * **adjacency** — per direction, a lifespan-extended edge is moved
//!   inside its endpoint's run, then one backward merge pass splices the
//!   inserted edges into `offsets`/`edges`/`nbr`/`span`;
//! * **scatter segments** — recomputed for patched edges only: overwritten
//!   in place when no edge's segment count changed, one linear re-pack
//!   otherwise; new edges append at the tail.

use super::{refine_segments, Adjacency, EIdx, EdgeData, TemporalGraph, VIdx, VertexData};
use crate::time::{Interval, Time};
use std::collections::BTreeMap;

/// The validated write set of one delta batch: the final row of every
/// vertex and edge the batch inserts or edits, keyed by dense index.
/// Indices at or past the graph's current counts are appends and must be
/// contiguous; an edit never changes an entity's identity or endpoints.
#[derive(Debug, Default)]
pub(crate) struct RowPatch {
    /// Labels the batch interns, in first-use order (their ids continue
    /// the graph's interner).
    pub(crate) labels: Vec<String>,
    /// Patched vertex rows by `VIdx`.
    pub(crate) vertices: BTreeMap<u32, VertexData>,
    /// Patched edge rows by `EIdx`.
    pub(crate) edges: BTreeMap<u32, EdgeData>,
}

/// One inserted edge as a direction's splice sees it.
struct Insertion {
    key: VIdx,
    edge: EIdx,
    nbr: VIdx,
    span: Interval,
}

fn run_key(span: Interval, edge: EIdx) -> (Time, Time, EIdx) {
    (span.start(), span.end(), edge)
}

impl Adjacency {
    /// Gives `edge` (in `v`'s run under its `old` lifespan) the lifespan
    /// `new` and moves it to its sorted place. Streaming extensions only
    /// move an end to the right, so the edge can only move right, past
    /// edges that share its start.
    fn extend_edge(&mut self, v: VIdx, edge: EIdx, old: Interval, new: Interval) {
        let (s, t) = self.bounds(v);
        let first =
            self.span[s..t].partition_point(|sp| (sp.start(), sp.end()) < (old.start(), old.end()));
        // Parallel edges with equal lifespans sit side by side in `EIdx`
        // order; step over the ones before `edge`.
        let Some(mut i) = (s + first..t).find(|&i| self.edges[i] == edge) else {
            return;
        };
        self.span[i] = new;
        while i + 1 < t && run_key(self.span[i + 1], self.edges[i + 1]) < run_key(new, edge) {
            self.edges.swap(i, i + 1);
            self.nbr.swap(i, i + 1);
            self.span.swap(i, i + 1);
            i += 1;
        }
    }

    /// Splices `ins` (sorted by `(key, start, end, EIdx)`) into the runs
    /// and grows the direction to `n` vertices, in one backward merge
    /// pass: every run slides right by the number of insertions keyed at
    /// or before it, so the pass stops at the first inserted key and
    /// everything left of it stays where it is.
    fn splice(&mut self, n: usize, ins: &[Insertion]) {
        let old_len = self.edges.len();
        self.offsets.resize(n + 1, old_len as u32);
        let new_len = old_len + ins.len();
        self.edges.resize(new_len, EIdx(0));
        self.nbr.resize(new_len, VIdx(0));
        self.span.resize(new_len, Interval::all());
        let mut left = ins.len(); // insertions not yet placed
        let mut write = new_len; // one past the next slot to fill
        for v in (0..n).rev() {
            if left == 0 {
                break;
            }
            let start = self.offsets[v] as usize;
            let mut read = self.offsets[v + 1] as usize;
            self.offsets[v + 1] = write as u32;
            loop {
                let pending = left > 0 && ins[left - 1].key.idx() == v;
                let take_new = match (pending, read > start) {
                    (false, false) => break,
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => {
                        let new = &ins[left - 1];
                        run_key(new.span, new.edge)
                            > run_key(self.span[read - 1], self.edges[read - 1])
                    }
                };
                write -= 1;
                if take_new {
                    left -= 1;
                    let new = &ins[left];
                    self.edges[write] = new.edge;
                    self.nbr[write] = new.nbr;
                    self.span[write] = new.span;
                } else {
                    read -= 1;
                    self.edges[write] = self.edges[read];
                    self.nbr[write] = self.nbr[read];
                    self.span[write] = self.span[read];
                }
                if left == 0 {
                    // `write == read`: the rest of the run, and every run
                    // before it, is already in place.
                    break;
                }
            }
        }
    }
}

impl TemporalGraph {
    /// Writes a validated patch into the frozen columns (module docs).
    pub(crate) fn commit(&mut self, patch: RowPatch) {
        let RowPatch {
            labels,
            vertices,
            edges,
        } = patch;
        for name in &labels {
            self.labels.intern(name);
        }
        let (n_old, m_old) = (self.v_vid.len(), self.e_eid.len());

        // Digest, first half: the rows about to be overwritten leave the
        // sums. (Wrapping sums commute, so this equals folding op by op.)
        for &v in vertices.range(..n_old as u32).map(|(v, _)| v) {
            self.digest_v_acc = self.digest_v_acc.wrapping_sub(self.vertex_hash(v as usize));
        }
        for &e in edges.range(..m_old as u32).map(|(e, _)| e) {
            self.digest_e_acc = self.digest_e_acc.wrapping_sub(self.edge_hash(e as usize));
        }

        // Vertex columns. Lifespans only ever grow, so the graph lifespan
        // is the old one spanned with every patched row.
        let mut lifespan = (n_old > 0).then_some(self.lifespan);
        let patched_vertices: Vec<u32> = vertices.keys().copied().collect();
        for (v, row) in vertices {
            lifespan = Some(lifespan.map_or(row.lifespan, |l| l.span(row.lifespan)));
            if (v as usize) < n_old {
                self.v_lifespan[v as usize] = row.lifespan;
                self.v_props[v as usize] = row.props;
            } else {
                debug_assert_eq!(v as usize, self.v_vid.len(), "appends are contiguous");
                self.vid_index.insert(row.vid, VIdx(v));
                self.v_vid.push(row.vid);
                self.v_lifespan.push(row.lifespan);
                self.v_props.push(row.props);
            }
        }
        self.lifespan = lifespan.unwrap_or_else(Interval::all);

        // Edge columns; remember which old edges changed lifespan.
        let patched_edges: Vec<u32> = edges.keys().copied().collect();
        let mut extended: Vec<(EIdx, Interval)> = Vec::new();
        for (e, row) in edges {
            let i = e as usize;
            if i < m_old {
                if self.e_lifespan[i] != row.lifespan {
                    extended.push((EIdx(e), self.e_lifespan[i]));
                    self.e_lifespan[i] = row.lifespan;
                }
                self.e_props[i] = row.props;
            } else {
                debug_assert_eq!(i, self.e_eid.len(), "appends are contiguous");
                self.e_eid.push(row.eid);
                self.e_src.push(row.src);
                self.e_dst.push(row.dst);
                self.e_lifespan.push(row.lifespan);
                self.e_props.push(row.props);
            }
        }

        // Digest, second half: every patched row enters with its new hash.
        for &v in &patched_vertices {
            self.digest_v_acc = self.digest_v_acc.wrapping_add(self.vertex_hash(v as usize));
        }
        for &e in &patched_edges {
            self.digest_e_acc = self.digest_e_acc.wrapping_add(self.edge_hash(e as usize));
        }

        self.patch_adjacency(m_old, &extended);
        let first_new = patched_edges.partition_point(|&e| (e as usize) < m_old);
        self.patch_segments(&patched_edges[..first_new]);
    }

    /// Moves the `extended` edges inside their endpoint runs and splices
    /// the edges appended past `m_old` into both directions.
    fn patch_adjacency(&mut self, m_old: usize, extended: &[(EIdx, Interval)]) {
        for &(e, old) in extended {
            let new = self.e_lifespan[e.idx()];
            self.out.extend_edge(self.e_src[e.idx()], e, old, new);
            self.inc.extend_edge(self.e_dst[e.idx()], e, old, new);
        }
        let n = self.v_vid.len();
        let (src, dst, life) = (&self.e_src, &self.e_dst, &self.e_lifespan);
        for (adj, key, nbr) in [(&mut self.out, src, dst), (&mut self.inc, dst, src)] {
            let mut ins: Vec<Insertion> = (m_old..life.len())
                .map(|e| Insertion {
                    key: key[e],
                    edge: EIdx(e as u32),
                    nbr: nbr[e],
                    span: life[e],
                })
                .collect();
            ins.sort_unstable_by_key(|i| (i.key, run_key(i.span, i.edge)));
            adj.splice(n, &ins);
        }
    }

    /// Recomputes the scatter segments of the `edited` pre-existing edges
    /// (ascending) and appends those of the edges the pool does not cover
    /// yet.
    fn patch_segments(&mut self, edited: &[u32]) {
        let mut bounds: Vec<Time> = Vec::new();
        // The edited edges' new segments, pooled: edge `edited[k]` owns
        // `fresh[ends[k - 1]..ends[k]]`.
        let mut fresh: Vec<Interval> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(edited.len());
        let mut same_counts = true;
        for &e in edited {
            let e = e as usize;
            let before = fresh.len();
            refine_segments(
                self.e_lifespan[e],
                &self.e_props[e],
                &mut bounds,
                &mut fresh,
            );
            ends.push(fresh.len());
            let old = (self.seg_offsets[e + 1] - self.seg_offsets[e]) as usize;
            same_counts &= fresh.len() - before == old;
        }
        let of = |k: usize| &fresh[k.checked_sub(1).map_or(0, |p| ends[p])..ends[k]];
        if same_counts {
            for (k, &e) in edited.iter().enumerate() {
                let at = self.seg_offsets[e as usize] as usize;
                self.segs[at..at + of(k).len()].copy_from_slice(of(k));
            }
        } else {
            // Re-pack: untouched stretches copy over whole, their offsets
            // shifted by what the edited edges before them gained or lost.
            let old = &self.seg_offsets;
            let mut packed = Vec::with_capacity(self.segs.len() + fresh.len());
            let mut offsets = Vec::with_capacity(old.len());
            offsets.push(0u32);
            let mut from = 0usize; // first old edge not yet emitted
            let mut shift = 0i64; // packed position minus old position
            let moved = |o: &u32, shift: i64| (i64::from(*o) + shift) as u32;
            for (k, &e) in edited.iter().enumerate() {
                let e = e as usize;
                packed.extend_from_slice(&self.segs[old[from] as usize..old[e] as usize]);
                offsets.extend(old[from + 1..=e].iter().map(|o| moved(o, shift)));
                packed.extend_from_slice(of(k));
                offsets.push(packed.len() as u32);
                shift = packed.len() as i64 - i64::from(old[e + 1]);
                from = e + 1;
            }
            packed.extend_from_slice(&self.segs[old[from] as usize..]);
            offsets.extend(old[from + 1..].iter().map(|o| moved(o, shift)));
            self.segs = packed;
            self.seg_offsets = offsets;
        }
        for e in self.seg_offsets.len() - 1..self.e_eid.len() {
            refine_segments(
                self.e_lifespan[e],
                &self.e_props[e],
                &mut bounds,
                &mut self.segs,
            );
            self.seg_offsets.push(self.segs.len() as u32);
        }
    }
}
