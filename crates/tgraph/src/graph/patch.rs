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
//!   every patched row's new one once the columns hold it: O(patched
//!   rows);
//! * **adjacency** — per direction, a lifespan-extended edge is moved
//!   inside its endpoint's run, then one backward merge pass splices the
//!   inserted edges into `offsets`/`edges`/`nbr`/`span`;
//! * **scatter segments and their property values** — the only store of
//!   edge property values: the patched edge rows' `props` are refined
//!   into both pools through one `Pool::replace`, overwritten in place
//!   when no unit changed its item count, one linear re-pack otherwise;
//!   new edges append at the tail.

use super::{Adjacency, EIdx, EdgeData, Pool, Refiner, TemporalGraph, VIdx, VertexData};
use crate::time::{Interval, Time};
use std::collections::BTreeMap;
use std::ops::Range;

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

impl<T: Copy> Pool<T> {
    /// Appends the units `units` of `src`, their items as one stretch and
    /// their offsets shifted to where it lands.
    fn copy_units(&mut self, src: &Pool<T>, units: Range<usize>) {
        let (first, last) = (src.offsets[units.start], src.offsets[units.end]);
        let shift = self.items.len() as i64 - i64::from(first);
        self.items
            .extend_from_slice(&src.items[first as usize..last as usize]);
        self.offsets.extend(
            src.offsets[units.start + 1..=units.end]
                .iter()
                .map(|&o| (i64::from(o) + shift) as u32),
        );
    }

    /// Swaps, for each edit `(old, new)`, this pool's units `old` for the
    /// units `new` of `fresh`. The `old` ranges ascend and are disjoint;
    /// one starting at `units()` is an append. In place when every
    /// replaced unit keeps its item count, one linear re-pack otherwise:
    /// untouched stretches copy over whole.
    fn replace(&mut self, edits: &[(Range<usize>, Range<usize>)], fresh: &Pool<T>) {
        let n = self.units();
        let (inner, appends) = edits.split_at(edits.partition_point(|(old, _)| old.start < n));
        let same_shape = inner.iter().all(|(old, new)| {
            old.len() == new.len()
                && old
                    .clone()
                    .zip(new.clone())
                    .all(|(o, f)| self.range(o).len() == fresh.range(f).len())
        });
        if same_shape {
            for (old, new) in inner {
                for (o, f) in old.clone().zip(new.clone()) {
                    let at = self.range(o);
                    self.items[at].copy_from_slice(fresh.unit(f));
                }
            }
        } else {
            let mut packed = Pool::with_capacity(n, self.items.len() + fresh.items.len());
            let mut from = 0; // first old unit not yet emitted
            for (old, new) in inner {
                packed.copy_units(self, from..old.start);
                packed.copy_units(fresh, new.clone());
                from = old.end;
            }
            packed.copy_units(self, from..n);
            *self = packed;
        }
        for (_, new) in appends {
            self.copy_units(fresh, new.clone());
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
        let mut extended: Vec<(EIdx, Interval)> = Vec::new();
        for (&e, row) in &edges {
            let i = e as usize;
            if i < m_old {
                if self.e_lifespan[i] != row.lifespan {
                    extended.push((EIdx(e), self.e_lifespan[i]));
                    self.e_lifespan[i] = row.lifespan;
                }
            } else {
                debug_assert_eq!(i, self.e_eid.len(), "appends are contiguous");
                self.e_eid.push(row.eid);
                self.e_src.push(row.src);
                self.e_dst.push(row.dst);
                self.e_lifespan.push(row.lifespan);
            }
        }
        self.patch_adjacency(m_old, &extended);
        self.patch_segments(&edges);

        // Digest, second half: every patched row enters with its new hash.
        for &v in &patched_vertices {
            self.digest_v_acc = self.digest_v_acc.wrapping_add(self.vertex_hash(v as usize));
        }
        for &e in edges.keys() {
            self.digest_e_acc = self.digest_e_acc.wrapping_add(self.edge_hash(e as usize));
        }
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

    /// Refines the patched edge `rows` (the edited pre-existing edges,
    /// then the appended ones, as the key order has them) into the scatter
    /// segments and segment values: an edited edge's units are replaced,
    /// an appended edge's appended.
    fn patch_segments(&mut self, rows: &BTreeMap<u32, EdgeData>) {
        // Indexing the value table costs O(distinct values), at most the
        // O(V + E) of the freeze that follows; values no longer referenced
        // stay in the table, as retired labels stay in the interner.
        let mut refiner = Refiner::new(&self.values);
        let (mut segs, mut values) = (Pool::with_capacity(0, 0), Pool::with_capacity(0, 0));
        let (m_cov, s_cov) = (self.segs.units(), self.seg_values.units());
        let mut seg_edits = Vec::new();
        let mut value_edits = Vec::new();
        for (&e, row) in rows {
            let e = e as usize;
            let (k, first) = (segs.units(), values.units());
            refiner.refine(
                row.lifespan,
                &row.props,
                &mut segs,
                &mut values,
                &mut self.values,
            );
            let (old, old_segs) = if e < m_cov {
                (e..e + 1, self.segs.range(e))
            } else {
                (m_cov..m_cov, s_cov..s_cov)
            };
            seg_edits.push((old, k..k + 1));
            value_edits.push((old_segs, first..values.units()));
        }
        self.segs.replace(&seg_edits, &segs);
        self.seg_values.replace(&value_edits, &values);
    }
}
