//! Layout-equivalence property suite (DESIGN.md §16).
//!
//! The frozen CSR/SoA representation must be an *invisible* change: every
//! query the pointer-rich representation answered has to come back with
//! the same answer from the flat columns. This suite drives seeded random
//! temporal graphs through the builder and checks the frozen layout
//! against a naive reference model built from the same rows — adjacency
//! sets, run ordering and mirror columns, temporal weights, overlap
//! queries, scatter-segment tilings, and the structure digest.

use graphite_tgraph::builder::TemporalGraphBuilder;
use graphite_tgraph::delta::{DeltaOverlay, GraphDelta};
use graphite_tgraph::graph::{EIdx, EdgeId, SegIdx, TemporalGraph, VertexId};
use graphite_tgraph::property::{LabelId, PropValue};
use graphite_tgraph::time::Interval;

/// splitmix64: the repo's standard seeded generator (DESIGN.md §10).
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(rng: &mut u64, bound: u64) -> u64 {
    splitmix64(rng) % bound.max(1)
}

/// One edge row of the reference model, in insertion order.
struct RefEdge {
    src: u64,
    dst: u64,
    lifespan: Interval,
    /// `(label, interval, value)` property entries.
    props: Vec<(&'static str, Interval, i64)>,
}

/// A reference graph: raw rows exactly as handed to the builder.
struct RefGraph {
    vertices: Vec<(u64, Interval)>,
    edges: Vec<RefEdge>,
}

/// Generates a random temporal graph and its reference model from `seed`.
fn random_graph(seed: u64, n: u64, m: u64) -> (TemporalGraph, RefGraph) {
    let mut rng = seed;
    let horizon = 40i64;
    let mut b = TemporalGraphBuilder::new();
    let mut vertices = Vec::new();
    for vid in 0..n {
        let start = pick(&mut rng, (horizon - 2) as u64) as i64;
        let len = 1 + pick(&mut rng, (horizon - start) as u64 - 1) as i64;
        let lifespan = Interval::new(start, start + len);
        b.add_vertex(VertexId(vid), lifespan).unwrap();
        vertices.push((vid, lifespan));
    }
    let mut edges = Vec::new();
    let mut eid = 0u64;
    while (edges.len() as u64) < m {
        let s = pick(&mut rng, n);
        let d = pick(&mut rng, n);
        let (_, ls) = vertices[s as usize];
        let (_, ld) = vertices[d as usize];
        let Some(shared) = ls.intersect(ld) else {
            continue;
        };
        // A sub-interval of the shared span.
        let off = pick(&mut rng, shared.len() as u64) as i64;
        let len = 1 + pick(&mut rng, (shared.len() - off) as u64) as i64;
        let lifespan = Interval::new(shared.start() + off, shared.start() + off + len);
        b.add_edge(EdgeId(eid), VertexId(s), VertexId(d), lifespan)
            .unwrap();
        let mut props = Vec::new();
        // ~half the edges carry a "w" property over a prefix of their
        // lifespan, sometimes split in two (a mid-lifespan boundary the
        // scatter segmentation must refine at).
        if pick(&mut rng, 2) == 0 {
            let cut = lifespan.start() + 1 + pick(&mut rng, lifespan.len() as u64 - 1) as i64;
            let head = Interval::new(lifespan.start(), cut);
            let v0 = pick(&mut rng, 9) as i64 + 1;
            b.edge_property(EdgeId(eid), "w", head, PropValue::Long(v0))
                .unwrap();
            props.push(("w", head, v0));
            if cut < lifespan.end() && pick(&mut rng, 2) == 0 {
                let tail = Interval::new(cut, lifespan.end());
                let v1 = v0 + 1; // distinct value => a real refinement point
                b.edge_property(EdgeId(eid), "w", tail, PropValue::Long(v1))
                    .unwrap();
                props.push(("w", tail, v1));
            }
        }
        edges.push(RefEdge {
            src: s,
            dst: d,
            lifespan,
            props,
        });
        eid += 1;
    }
    (b.build().unwrap(), RefGraph { vertices, edges })
}

/// Rebuilds the *same* rows through a fresh builder (the retained
/// reference construction path) — used for digest stability.
fn rebuild(reference: &RefGraph) -> TemporalGraph {
    let mut b = TemporalGraphBuilder::new();
    for &(vid, lifespan) in &reference.vertices {
        b.add_vertex(VertexId(vid), lifespan).unwrap();
    }
    for (i, e) in reference.edges.iter().enumerate() {
        b.add_edge(
            EdgeId(i as u64),
            VertexId(e.src),
            VertexId(e.dst),
            e.lifespan,
        )
        .unwrap();
        for &(label, iv, v) in &e.props {
            b.edge_property(EdgeId(i as u64), label, iv, PropValue::Long(v))
                .unwrap();
        }
    }
    b.build().unwrap()
}

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xdead_beef, 0x5eed];

#[test]
fn adjacency_sets_match_the_reference_rows() {
    for seed in SEEDS {
        let (g, reference) = random_graph(seed, 24, 120);
        for (v, _) in &reference.vertices {
            let vi = g.vertex_index(VertexId(*v)).unwrap();
            // Expected multisets from the raw rows.
            let mut want_out: Vec<u64> = reference
                .edges
                .iter()
                .filter(|e| e.src == *v)
                .map(|e| e.dst)
                .collect();
            let mut got_out: Vec<u64> = g
                .out_edges(vi)
                .iter()
                .map(|&e| g.vertex(g.edge(e).dst).vid.0)
                .collect();
            want_out.sort_unstable();
            got_out.sort_unstable();
            assert_eq!(got_out, want_out, "seed {seed} vertex {v} out set");
            let mut want_in: Vec<u64> = reference
                .edges
                .iter()
                .filter(|e| e.dst == *v)
                .map(|e| e.src)
                .collect();
            let mut got_in: Vec<u64> = g
                .in_edges(vi)
                .iter()
                .map(|&e| g.vertex(g.edge(e).src).vid.0)
                .collect();
            want_in.sort_unstable();
            got_in.sort_unstable();
            assert_eq!(got_in, want_in, "seed {seed} vertex {v} in set");
        }
    }
}

#[test]
fn runs_are_start_sorted_with_consistent_mirror_columns() {
    for seed in SEEDS {
        let (g, _) = random_graph(seed, 24, 120);
        for v in g.vertex_indices() {
            for (dir, run) in [("out", g.out_run(v)), ("in", g.in_run(v))] {
                assert_eq!(run.edges.len(), run.nbr.len());
                assert_eq!(run.edges.len(), run.span.len());
                for i in 0..run.len() {
                    let e = g.edge(run.edges[i]);
                    // Mirror columns mirror the edge rows exactly.
                    assert_eq!(run.span[i], e.lifespan, "seed {seed} {dir} span");
                    let nbr = if dir == "out" { e.dst } else { e.src };
                    assert_eq!(run.nbr[i], nbr, "seed {seed} {dir} neighbor");
                    if i > 0 {
                        let a = (run.span[i - 1].start(), run.span[i - 1].end());
                        let b = (run.span[i].start(), run.span[i].end());
                        assert!(a <= b, "seed {seed} {dir} run of {v:?} not sorted");
                    }
                }
            }
        }
    }
}

#[test]
fn temporal_weights_match_a_naive_recount() {
    for seed in SEEDS {
        let (g, reference) = random_graph(seed, 24, 120);
        for &(v, lifespan) in &reference.vertices {
            let vi = g.vertex_index(VertexId(v)).unwrap();
            let mut want = lifespan.len().max(1) as u64;
            for e in reference.edges.iter().filter(|e| e.src == v) {
                want += e.lifespan.len().max(1) as u64;
            }
            assert_eq!(g.vertex_temporal_weight(vi), want, "seed {seed} vertex {v}");
            assert_eq!(g.vertex_span_weight(vi), lifespan.len().max(1) as u64);
        }
    }
}

#[test]
fn overlap_queries_match_a_naive_filter() {
    for seed in SEEDS {
        let (g, reference) = random_graph(seed, 24, 120);
        let mut rng = seed ^ 0x0b5e_55ed;
        for _ in 0..20 {
            let start = pick(&mut rng, 38) as i64;
            let window = Interval::new(start, start + 1 + pick(&mut rng, 6) as i64);
            for &(v, _) in &reference.vertices {
                let vi = g.vertex_index(VertexId(v)).unwrap();
                let mut want: Vec<(u64, Interval)> = reference
                    .edges
                    .iter()
                    .filter(|e| e.src == v && e.lifespan.intersects(window))
                    .map(|e| (e.dst, e.lifespan))
                    .collect();
                let mut got: Vec<(u64, Interval)> = g
                    .out_edges_overlapping(vi, window)
                    .map(|(_, e)| (g.vertex(e.dst).vid.0, e.lifespan))
                    .collect();
                want.sort_unstable_by_key(|(d, iv)| (*d, iv.start(), iv.end()));
                got.sort_unstable_by_key(|(d, iv)| (*d, iv.start(), iv.end()));
                assert_eq!(got, want, "seed {seed} vertex {v} window {window}");
            }
        }
    }
}

#[test]
fn scatter_segments_tile_the_lifespan_and_respect_property_boundaries() {
    for seed in SEEDS {
        let (g, reference) = random_graph(seed, 24, 120);
        for (i, re) in reference.edges.iter().enumerate() {
            let e = g
                .edge_indices()
                .nth(i)
                .expect("edge indices cover insertion order");
            let segs = g.scatter_segments(e);
            // Tiling: ordered, gap-free, spanning exactly the lifespan.
            assert!(!segs.is_empty(), "seed {seed} edge {i}");
            assert_eq!(segs[0].start(), re.lifespan.start());
            assert_eq!(segs[segs.len() - 1].end(), re.lifespan.end());
            for w in segs.windows(2) {
                assert_eq!(w[0].end(), w[1].start(), "seed {seed} edge {i} gap");
            }
            // Refinement: every property-entry boundary interior to the
            // lifespan is a segment boundary, so values are constant
            // across each segment.
            for &(_, iv, _) in &re.props {
                for boundary in [iv.start(), iv.end()] {
                    if boundary > re.lifespan.start() && boundary < re.lifespan.end() {
                        assert!(
                            segs.iter().any(|s| s.start() == boundary),
                            "seed {seed} edge {i}: boundary {boundary} not refined"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn structure_digest_is_stable_across_rebuilds() {
    for seed in SEEDS {
        let (g, reference) = random_graph(seed, 24, 120);
        let g2 = rebuild(&reference);
        assert_eq!(
            g.structure_digest(),
            g2.structure_digest(),
            "seed {seed}: digest differs across identical builds"
        );
    }
}

#[test]
fn structure_digest_is_pinned_for_a_fixed_seed() {
    // Layout-invariance regression pin: the digest folds the entity
    // columns in insertion order, so no storage reorganization may ever
    // change it. If this assertion fires, recorded checkpoint/digest
    // artifacts across the repo are silently invalidated — that is a
    // breaking change, not a test to update casually.
    //
    // Re-pinned once when the digest became the identity-keyed additive
    // fold (DESIGN.md §17) so delta application can maintain it
    // incrementally — a deliberate schema change, not drift.
    let transit = graphite_tgraph::fixtures::transit_graph();
    assert_eq!(transit.structure_digest(), 0x2032_670b_5887_79f5);
}

/// Splits the reference rows at a time cut: everything whose start lies
/// before `cut` goes to the builder (clipped to `cut` where it straddles),
/// and a [`GraphDelta`] carries the rest — inserts for entities starting at
/// or after `cut`, extensions restoring the clipped tails, property entries
/// and property extensions likewise. Applying the delta must reproduce the
/// full graph bit-for-bit.
fn split_at_cut(reference: &RefGraph, cut: i64) -> (TemporalGraph, GraphDelta) {
    let clip = |iv: Interval| Interval::try_new(iv.start(), iv.end().min(cut));
    let mut b = TemporalGraphBuilder::new();
    let mut delta = GraphDelta::new();
    for &(vid, lifespan) in &reference.vertices {
        match clip(lifespan) {
            Some(head) => {
                b.add_vertex(VertexId(vid), head).unwrap();
                if head.end() < lifespan.end() {
                    delta.extend_vertex(VertexId(vid), lifespan.end());
                }
            }
            None => delta.insert_vertex(VertexId(vid), lifespan),
        }
    }
    for (i, e) in reference.edges.iter().enumerate() {
        let eid = EdgeId(i as u64);
        match clip(e.lifespan) {
            Some(head) => {
                b.add_edge(eid, VertexId(e.src), VertexId(e.dst), head)
                    .unwrap();
                if head.end() < e.lifespan.end() {
                    delta.extend_edge(eid, e.lifespan.end());
                }
            }
            None => delta.insert_edge(eid, VertexId(e.src), VertexId(e.dst), e.lifespan),
        }
        for &(label, iv, v) in &e.props {
            match clip(iv) {
                Some(head) if clip(e.lifespan).is_some() => {
                    b.edge_property(eid, label, head, PropValue::Long(v))
                        .unwrap();
                    if head.end() < iv.end() {
                        delta.extend_edge_property(eid, label, iv.end());
                    }
                }
                _ => delta.edge_property(eid, label, iv, PropValue::Long(v)),
            }
        }
    }
    (b.build().unwrap(), delta)
}

#[test]
fn delta_built_graphs_satisfy_the_full_property_suite() {
    // Overlay+compaction path (DESIGN.md §17): build a time-prefix of the
    // reference rows from scratch, apply the remainder as a delta, and
    // demand the result is indistinguishable from the one-shot build —
    // same digest (checked against both the fast freeze and the verifying
    // compaction), same adjacency sets, same sorted runs, same scatter
    // tilings.
    for seed in SEEDS {
        let (full, reference) = random_graph(seed, 24, 120);
        for cut in [10i64, 20, 30] {
            let (prefix, delta) = split_at_cut(&reference, cut);
            let mut overlay = DeltaOverlay::new(&prefix, 1);
            // compact_every = 1: this freeze is a verifying compaction, so
            // DigestDrift would surface any accumulator divergence.
            let updated = overlay.apply_and_freeze(&delta).unwrap();
            assert_eq!(
                updated.structure_digest(),
                full.structure_digest(),
                "seed {seed} cut {cut}: delta build diverged from scratch build"
            );
            // Spot-check the frozen layout beyond the digest. Row order
            // differs between the two builds (delta-inserted entities sit
            // at the end of the columns), so runs and segments are
            // compared as logical sets keyed by external eid.
            for (v, _) in &reference.vertices {
                let vi = updated.vertex_index(VertexId(*v)).unwrap();
                let wi = full.vertex_index(VertexId(*v)).unwrap();
                let mut got: Vec<_> = updated
                    .out_run(vi)
                    .edges
                    .iter()
                    .map(|&e| (updated.edge(e).eid, updated.edge_lifespan(e)))
                    .collect();
                let mut want: Vec<_> = full
                    .out_run(wi)
                    .edges
                    .iter()
                    .map(|&e| (full.edge(e).eid, full.edge_lifespan(e)))
                    .collect();
                // Both runs are (start, end)-sorted already; normalize the
                // insertion-order tie-breaks away.
                got.sort_unstable_by_key(|&(eid, _)| eid.0);
                want.sort_unstable_by_key(|&(eid, _)| eid.0);
                assert_eq!(got, want, "seed {seed} cut {cut} vertex {v} out run");
            }
            let full_segs: std::collections::HashMap<u64, Vec<Interval>> = full
                .edge_indices()
                .map(|e| (full.edge(e).eid.0, full.scatter_segments(e).to_vec()))
                .collect();
            for e in updated.edge_indices() {
                assert_eq!(
                    Some(&updated.scatter_segments(e).to_vec()),
                    full_segs.get(&updated.edge(e).eid.0),
                    "seed {seed} cut {cut}: scatter tiling differs"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Patch == rebuild, field for field (DESIGN.md §17.1): the overlay patches
// the frozen columns in place, and after every batch they must be exactly
// what the builder assembles from the same content in the same insertion
// order.
// ---------------------------------------------------------------------

type ModelProps = Vec<(String, Interval, i64)>;

/// The logical content of a live graph, rows in insertion order (vertex
/// `vid` and edge `eid` equal their row index). Batches are generated
/// against it and applied to it in the documented op order.
struct Model {
    vertices: Vec<(Interval, ModelProps)>,
    edges: Vec<(u64, u64, Interval, ModelProps)>,
}

/// Which of the cases the issue names a run of batches actually produced.
#[derive(Default)]
struct Coverage {
    repositioned: u32,
    segment_count_changed: u32,
    parallel_equal: u32,
    isolated_vertex: u32,
    edge_between_fresh: u32,
    empty_batch: u32,
    new_label: u32,
    inserted_then_extended: u32,
}

impl Model {
    fn of(reference: &RefGraph) -> Model {
        Model {
            vertices: reference
                .vertices
                .iter()
                .map(|&(_, life)| (life, Vec::new()))
                .collect(),
            edges: reference
                .edges
                .iter()
                .map(|e| {
                    let props = e
                        .props
                        .iter()
                        .map(|&(l, iv, v)| (l.to_owned(), iv, v))
                        .collect();
                    (e.src, e.dst, e.lifespan, props)
                })
                .collect(),
        }
    }

    fn rebuild(&self) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for (vid, (life, props)) in self.vertices.iter().enumerate() {
            b.add_vertex(VertexId(vid as u64), *life).unwrap();
            for (label, iv, v) in props {
                b.vertex_property(VertexId(vid as u64), label, *iv, PropValue::Long(*v))
                    .unwrap();
            }
        }
        for (eid, (src, dst, life, props)) in self.edges.iter().enumerate() {
            b.add_edge(EdgeId(eid as u64), VertexId(*src), VertexId(*dst), *life)
                .unwrap();
            for (label, iv, v) in props {
                b.edge_property(EdgeId(eid as u64), label, *iv, PropValue::Long(*v))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The free tail `[after the label's right-most entry, life.end)`.
    fn free_tail(props: &ModelProps, label: &str, life: Interval) -> Option<Interval> {
        let from = props
            .iter()
            .filter(|(l, _, _)| l == label)
            .map(|(_, iv, _)| iv.end())
            .max()
            .unwrap_or(life.start());
        Interval::try_new(from, life.end())
    }

    /// Generates batch `k` against the model, applying it to the model as
    /// it goes (so every op is valid where the overlay will meet it).
    fn random_batch(&mut self, rng: &mut u64, k: usize, cov: &mut Coverage) -> GraphDelta {
        let mut d = GraphDelta::new();
        if k % 5 == 4 {
            cov.empty_batch += 1;
            return d;
        }
        let horizon = 44i64;
        // Vertex inserts.
        let first_fresh = self.vertices.len() as u64;
        for _ in 0..pick(rng, 4) {
            let start = pick(rng, (horizon - 6) as u64) as i64;
            let life = Interval::new(start, start + 2 + pick(rng, 5) as i64);
            d.insert_vertex(VertexId(self.vertices.len() as u64), life);
            self.vertices.push((life, Vec::new()));
        }
        let fresh = self.vertices.len() as u64 - first_fresh;
        // Vertex extensions.
        for _ in 0..pick(rng, 4) {
            let v = pick(rng, self.vertices.len() as u64) as usize;
            let life = self.vertices[v].0;
            let end = life.end() + 1 + pick(rng, 4) as i64;
            d.extend_vertex(VertexId(v as u64), end);
            self.vertices[v].0 = Interval::new(life.start(), end);
        }
        // Edge inserts.
        let first_new_edge = self.edges.len();
        let mut fresh_used = vec![false; fresh as usize];
        for _ in 0..pick(rng, 7) {
            let n = self.vertices.len() as u64;
            let (s, t, life) = match pick(rng, 4) {
                // A parallel twin of an existing edge: same endpoints,
                // same lifespan, ordered after it by `EIdx` alone.
                0 if !self.edges.is_empty() => {
                    let (s, t, life, _) = self.edges[pick(rng, self.edges.len() as u64) as usize];
                    cov.parallel_equal += 1;
                    (s, t, life)
                }
                // Between two vertices this very batch inserted.
                1 if fresh >= 2 => {
                    let s = first_fresh + pick(rng, fresh);
                    let t = first_fresh + (s - first_fresh + 1 + pick(rng, fresh - 1)) % fresh;
                    let Some(shared) = self.vertices[s as usize]
                        .0
                        .intersect(self.vertices[t as usize].0)
                    else {
                        continue;
                    };
                    cov.edge_between_fresh += 1;
                    (s, t, shared)
                }
                _ => {
                    let (s, t) = (pick(rng, n), pick(rng, n));
                    let Some(shared) = self.vertices[s as usize]
                        .0
                        .intersect(self.vertices[t as usize].0)
                    else {
                        continue;
                    };
                    let off = pick(rng, shared.len() as u64) as i64;
                    let len = 1 + pick(rng, (shared.len() - off) as u64) as i64;
                    let start = shared.start() + off;
                    (s, t, Interval::new(start, start + len))
                }
            };
            for v in [s, t] {
                if v >= first_fresh {
                    fresh_used[(v - first_fresh) as usize] = true;
                }
            }
            d.insert_edge(
                EdgeId(self.edges.len() as u64),
                VertexId(s),
                VertexId(t),
                life,
            );
            self.edges.push((s, t, life, Vec::new()));
        }
        cov.isolated_vertex += fresh_used.iter().filter(|used| !**used).count() as u32;
        // Edge extensions, biased toward edges with a later equal twin
        // (extending the earlier twin must move it past the later one)
        // and toward edges the batch has only just inserted.
        for _ in 0..pick(rng, 5) {
            if self.edges.is_empty() {
                break;
            }
            let mut e = pick(rng, self.edges.len() as u64) as usize;
            match pick(rng, 4) {
                0 | 1 => {
                    let twin = (0..self.edges.len()).find(|&a| {
                        let (s, t, life, _) = &self.edges[a];
                        self.edges[a + 1..]
                            .iter()
                            .any(|(s2, t2, l2, _)| (s, t, life) == (s2, t2, l2))
                    });
                    e = twin.unwrap_or(e);
                }
                // An edge this very batch inserted.
                2 if first_new_edge < self.edges.len() => {
                    e = first_new_edge
                        + pick(rng, (self.edges.len() - first_new_edge) as u64) as usize;
                }
                _ => {}
            }
            let (s, t, life, _) = self.edges[e];
            let room = self.vertices[s as usize]
                .0
                .end()
                .min(self.vertices[t as usize].0.end());
            if life.end() >= room {
                continue;
            }
            let end = life.end() + 1 + pick(rng, (room - life.end()) as u64) as i64;
            d.extend_edge(EdgeId(e as u64), end);
            self.edges[e].2 = Interval::new(life.start(), end);
            if e >= first_new_edge {
                cov.inserted_then_extended += 1;
            }
        }
        // Edge-property extensions: a label's right-most entry, to the right.
        for _ in 0..pick(rng, 4) {
            if self.edges.is_empty() {
                break;
            }
            let e = pick(rng, self.edges.len() as u64) as usize;
            let (_, _, life, props) = &mut self.edges[e];
            if props.is_empty() {
                continue;
            }
            let label = props[pick(rng, props.len() as u64) as usize].0.clone();
            let last = props
                .iter_mut()
                .filter(|(l, _, _)| *l == label)
                .max_by_key(|(_, iv, _)| iv.end())
                .unwrap();
            if last.1.end() >= life.end() {
                continue;
            }
            let end = last.1.end() + 1 + pick(rng, (life.end() - last.1.end()) as u64) as i64;
            d.extend_edge_property(EdgeId(e as u64), &label, end);
            last.1 = Interval::new(last.1.start(), end);
        }
        // Property inserts; every third batch brings a label of its own.
        let fresh_label = format!("x{k}");
        let mut fresh_label_used = false;
        let mut label_for = |rng: &mut u64, base: &str| {
            if k % 3 == 1 && pick(rng, 2) == 0 {
                fresh_label_used = true;
                fresh_label.clone()
            } else {
                base.to_owned()
            }
        };
        for _ in 0..pick(rng, 3) {
            let v = pick(rng, self.vertices.len() as u64) as usize;
            let label = label_for(rng, "c");
            let (life, props) = &mut self.vertices[v];
            let Some(tail) = Model::free_tail(props, &label, *life) else {
                continue;
            };
            let iv = Interval::new(
                tail.start(),
                tail.start() + 1 + pick(rng, tail.len() as u64) as i64,
            );
            let value = pick(rng, 9) as i64;
            d.vertex_property(VertexId(v as u64), &label, iv, PropValue::Long(value));
            props.push((label, iv, value));
        }
        for _ in 0..pick(rng, 6) {
            if self.edges.is_empty() {
                break;
            }
            let e = pick(rng, self.edges.len() as u64) as usize;
            let label = label_for(rng, "w");
            let (_, _, life, props) = &mut self.edges[e];
            let Some(tail) = Model::free_tail(props, &label, *life) else {
                continue;
            };
            // Sometimes leave a gap before the entry: one more boundary.
            let start = tail.start() + pick(rng, 2).min(tail.len() as u64 - 1) as i64;
            let iv = Interval::new(
                start,
                start + 1 + pick(rng, (tail.end() - start) as u64) as i64,
            );
            let value = pick(rng, 9) as i64;
            d.edge_property(EdgeId(e as u64), &label, iv, PropValue::Long(value));
            props.push((label, iv, value));
        }
        cov.new_label += u32::from(fresh_label_used);
        d
    }
}

/// An entity's property entries with labels resolved to names (label ids
/// depend on interning order, which a rebuild need not reproduce).
fn named_props<'a>(
    g: &'a TemporalGraph,
    entries: impl Iterator<Item = (LabelId, Interval, &'a PropValue)>,
) -> Vec<(&'a str, Interval, &'a PropValue)> {
    entries
        .map(|(l, iv, v)| (g.labels().name(l).unwrap(), iv, v))
        .collect()
}

/// Each scatter segment's property values, by label name.
fn named_segment_values(g: &TemporalGraph, e: EIdx) -> Vec<Vec<(&str, &PropValue)>> {
    let first = g.first_segment(e).0;
    (0..g.scatter_segments(e).len() as u32)
        .map(|k| {
            g.segment_values(SegIdx(first + k))
                .map(|(l, v)| (g.labels().name(l).unwrap(), v))
                .collect()
        })
        .collect()
}

/// Field-for-field equality through the public read API.
fn assert_same_graph(got: &TemporalGraph, want: &TemporalGraph, ctx: &str) {
    assert_eq!(got.num_vertices(), want.num_vertices(), "{ctx}: |V|");
    assert_eq!(got.num_edges(), want.num_edges(), "{ctx}: |E|");
    assert_eq!(got.lifespan(), want.lifespan(), "{ctx}: lifespan");
    assert_eq!(
        got.structure_digest(),
        want.structure_digest(),
        "{ctx}: structure digest"
    );
    assert_eq!(
        got.content_digest(),
        got.structure_digest(),
        "{ctx}: folded digest drifted from content"
    );
    for v in want.vertex_indices() {
        let (a, b) = (got.vertex(v), want.vertex(v));
        assert_eq!((a.vid, a.lifespan), (b.vid, b.lifespan), "{ctx}: {v:?} row");
        assert_eq!(
            named_props(got, a.props.iter()),
            named_props(want, b.props.iter()),
            "{ctx}: {v:?} properties"
        );
        assert_eq!(got.vertex_index(a.vid), Some(v), "{ctx}: {v:?} vid index");
        for (dir, x, y) in [
            ("out", got.out_run(v), want.out_run(v)),
            ("in", got.in_run(v), want.in_run(v)),
        ] {
            assert_eq!(x.edges, y.edges, "{ctx}: {v:?} {dir} run edges");
            assert_eq!(x.nbr, y.nbr, "{ctx}: {v:?} {dir} run nbr");
            assert_eq!(x.span, y.span, "{ctx}: {v:?} {dir} run span");
        }
        assert_eq!(
            got.vertex_temporal_weight(v),
            want.vertex_temporal_weight(v),
            "{ctx}: {v:?} temporal weight"
        );
    }
    for e in want.edge_indices() {
        let (a, b) = (got.edge(e), want.edge(e));
        assert_eq!(
            (a.eid, a.src, a.dst, a.lifespan),
            (b.eid, b.src, b.dst, b.lifespan),
            "{ctx}: {e:?} row"
        );
        assert_eq!(
            named_props(got, got.edge_props(e).iter()),
            named_props(want, want.edge_props(e).iter()),
            "{ctx}: {e:?} properties"
        );
        assert_eq!(
            got.scatter_segments(e),
            want.scatter_segments(e),
            "{ctx}: {e:?} scatter segments"
        );
        assert_eq!(
            got.first_segment(e),
            want.first_segment(e),
            "{ctx}: {e:?} segment pool position"
        );
        assert_eq!(
            named_segment_values(got, e),
            named_segment_values(want, e),
            "{ctx}: {e:?} segment values"
        );
    }
}

/// Position of `e` among the `old` (pre-batch) edges of `v`'s out-run.
fn rank_among_old(g: &TemporalGraph, e: EIdx, old: usize) -> usize {
    g.out_run(g.edge(e).src)
        .edges
        .iter()
        .filter(|x| x.idx() < old)
        .position(|&x| x == e)
        .unwrap()
}

#[test]
fn patched_graphs_equal_a_rebuild_field_for_field() {
    const BATCHES: usize = 16;
    let mut cov = Coverage::default();
    for seed in SEEDS {
        let (base, reference) = random_graph(seed, 24, 120);
        let mut model = Model::of(&reference);
        assert_same_graph(&base, &model.rebuild(), &format!("seed {seed} base"));
        // compact_every = 3: plain freezes and verifying compactions
        // interleave, and both must hand out the same columns.
        let mut overlay = DeltaOverlay::new(&base, 3);
        let mut rng = seed ^ 0x0070_6174_6368; // "patch"
        let mut prev = base;
        for k in 0..BATCHES {
            let delta = model.random_batch(&mut rng, k, &mut cov);
            let labels_before = prev.labels().len();
            let next = overlay.apply_and_freeze(&delta).unwrap();
            let ctx = format!("seed {seed} batch {k}");
            assert_same_graph(&next, &model.rebuild(), &ctx);
            assert_eq!(overlay.structure_digest(), next.structure_digest(), "{ctx}");
            assert_eq!(overlay.batches_applied(), k as u64 + 1);
            if delta.is_empty() {
                assert_eq!(next.structure_digest(), prev.structure_digest(), "{ctx}");
            }
            // Which of the required cases did this batch hit?
            let old = prev.num_edges();
            for &(eid, _) in &delta.extend_edges {
                let e = EIdx(eid.0 as u32);
                if e.idx() < old && rank_among_old(&prev, e, old) != rank_among_old(&next, e, old) {
                    cov.repositioned += 1;
                }
            }
            for e in prev.edge_indices() {
                if prev.scatter_segments(e).len() != next.scatter_segments(e).len()
                    && delta.edge_props.iter().any(|(eid, ..)| eid.0 == e.0 as u64)
                {
                    cov.segment_count_changed += 1;
                }
            }
            if next.labels().len() > labels_before {
                assert!(cov.new_label > 0, "{ctx}: label interned unannounced");
            }
            prev = next;
        }
    }
    // The generator must actually have produced every case the patch path
    // has a branch for.
    for (case, hits) in [
        ("extension moves an edge inside its run", cov.repositioned),
        (
            "property insert changes a segment count",
            cov.segment_count_changed,
        ),
        ("parallel edges with equal lifespans", cov.parallel_equal),
        ("new vertex with no edges", cov.isolated_vertex),
        (
            "edge between two same-batch vertices",
            cov.edge_between_fresh,
        ),
        ("empty batch", cov.empty_batch),
        ("batch interning a new label", cov.new_label),
        (
            "edge inserted and extended in one batch",
            cov.inserted_then_extended,
        ),
    ] {
        assert!(hits > 0, "case never generated: {case}");
    }
}

#[test]
fn a_rejected_batch_leaves_the_overlay_untouched() {
    let (base, _) = random_graph(21, 24, 120);
    let mut overlay = DeltaOverlay::new(&base, 1);
    // Every op before the failing one is valid, and the failure is the
    // last op of the last kind applied — the whole prefix must roll back.
    let mut bad = GraphDelta::new();
    bad.insert_vertex(VertexId(900), Interval::new(0, 9));
    bad.extend_vertex(VertexId(0), 99);
    bad.insert_edge(
        EdgeId(9000),
        VertexId(900),
        VertexId(900),
        Interval::new(1, 4),
    );
    bad.edge_property(
        EdgeId(9000),
        "fresh-label",
        Interval::new(1, 3),
        PropValue::Long(1),
    );
    bad.edge_property(
        EdgeId(9000),
        "fresh-label",
        Interval::new(2, 4),
        PropValue::Long(2),
    );
    assert!(overlay.apply(&bad).is_err());
    assert_eq!(overlay.batches_applied(), 0);
    assert_eq!(overlay.edge_endpoints(EdgeId(9000)), None);
    let untouched = overlay.compact().unwrap();
    assert_same_graph(&untouched, &base, "after the rejected batch");
    assert_eq!(untouched.label("fresh-label"), None);
    // The overlay carries on: the same batch minus the bad op applies.
    bad.edge_props.pop();
    let next = overlay.apply_and_freeze(&bad).unwrap();
    assert_same_graph(
        &next,
        &base.apply_delta(&bad).unwrap(),
        "after the good batch",
    );
    assert_eq!(next.num_vertices(), base.num_vertices() + 1);
    assert_eq!(
        overlay.edge_endpoints(EdgeId(9000)),
        Some((VertexId(900), VertexId(900)))
    );
}

/// The edge property entries `(eid, label, interval, value)` of
/// [`property_hazards`], in the order the builder receives them.
fn property_hazard_entries() -> Vec<(u64, &'static str, Interval, PropValue)> {
    let iv = Interval::new;
    vec![
        // Two adjacent entries of `b` with equal values, and `b` absent
        // over [8, 10).
        (1, "b", iv(0, 4), PropValue::Long(5)),
        (1, "b", iv(4, 8), PropValue::Long(5)),
        (1, "c", iv(2, 6), PropValue::Double(1.5)),
        // `a`, interned after `b`, leads this edge's labels, and the two
        // never share a segment.
        (2, "a", iv(0, 2), PropValue::Long(1)),
        (2, "b", iv(2, 4), PropValue::Long(1)),
        // A gap over [4, 6), then an entry that never ends.
        (3, "a", iv(2, 4), PropValue::Bool(true)),
        (
            3,
            "a",
            Interval::from_start(6),
            PropValue::Text("open end".into()),
        ),
    ]
}

/// A graph whose edge property layout holds each case the structure
/// digest must carry exactly: adjacent equal-valued entries, an edge whose
/// labels are not in interning order and never overlap, gapped timelines,
/// and open-ended lifespans and entries. `io.rs` holds the same graph as
/// `.tg` text.
fn property_hazards() -> TemporalGraph {
    let open = Interval::from_start;
    let mut b = TemporalGraphBuilder::new();
    for (vid, life) in [(1, Interval::new(0, 12)), (2, open(0)), (3, open(1))] {
        b.add_vertex(VertexId(vid), life).expect("fresh vertex");
    }
    for (eid, src, dst, life) in [
        (1, 1, 2, Interval::new(0, 10)),
        (2, 2, 1, Interval::new(0, 6)),
        (3, 2, 3, open(2)),
    ] {
        b.add_edge(EdgeId(eid), VertexId(src), VertexId(dst), life)
            .expect("valid edge");
    }
    for (eid, label, iv, value) in property_hazard_entries() {
        b.edge_property(EdgeId(eid), label, iv, value)
            .expect("valid entry");
    }
    b.build().expect("sound fixture")
}

/// The structure digest of `property_hazards`, however it is
/// built. Pinned before edge property values moved to the segment column:
/// the column must keep each entry's boundaries and each edge's label order
/// for the digest to hold.
const PROPERTY_HAZARDS_DIGEST: u64 = 0xf779_8907_3606_c994;

#[test]
fn property_hazards_keep_their_digest_through_builder_and_deltas() {
    use graphite_tgraph::time::TIME_MAX;
    let built = property_hazards();

    // The same content through three batches: an edge and its entries
    // extended, the rest inserted, the open-ended entry reached by an
    // extension to the end of time.
    let mut b = TemporalGraphBuilder::new();
    b.add_vertex(VertexId(1), Interval::new(0, 12)).unwrap();
    b.add_vertex(VertexId(2), Interval::from_start(0)).unwrap();
    b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(0, 6))
        .unwrap();
    b.edge_property(EdgeId(1), "b", Interval::new(0, 4), PropValue::Long(5))
        .unwrap();
    b.edge_property(EdgeId(1), "c", Interval::new(2, 5), PropValue::Double(1.5))
        .unwrap();
    let mut overlay = DeltaOverlay::new(&b.build().unwrap(), 1);
    let mut d1 = GraphDelta::new();
    d1.insert_vertex(VertexId(3), Interval::from_start(1));
    d1.extend_edge(EdgeId(1), 10);
    d1.extend_edge_property(EdgeId(1), "c", 6);
    d1.edge_property(EdgeId(1), "b", Interval::new(4, 8), PropValue::Long(5));
    d1.insert_edge(EdgeId(2), VertexId(2), VertexId(1), Interval::new(0, 6));
    d1.edge_property(EdgeId(2), "a", Interval::new(0, 2), PropValue::Long(1));
    d1.edge_property(EdgeId(2), "b", Interval::new(2, 4), PropValue::Long(1));
    d1.insert_edge(EdgeId(3), VertexId(2), VertexId(3), Interval::from_start(2));
    d1.edge_property(EdgeId(3), "a", Interval::new(2, 4), PropValue::Bool(true));
    let mut d2 = GraphDelta::new();
    let open = PropValue::Text("open end".into());
    d2.edge_property(EdgeId(3), "a", Interval::new(6, 9), open);
    let mut d3 = GraphDelta::new();
    d3.extend_edge_property(EdgeId(3), "a", TIME_MAX);
    for d in [&d1, &d2] {
        overlay.apply_and_freeze(d).unwrap();
    }
    let streamed = overlay.apply_and_freeze(&d3).unwrap();

    for (g, path) in [(&built, "builder"), (&streamed, "deltas")] {
        assert_eq!(g.structure_digest(), PROPERTY_HAZARDS_DIGEST, "{path}");
        assert_eq!(g.content_digest(), g.structure_digest(), "{path}");
        // The read view hands back every entry as it went in.
        let mut want = property_hazard_entries().into_iter();
        for e in g.edge_indices() {
            let eid = g.edge(e).eid.0;
            for (label, iv, value) in g.edge_props(e).iter() {
                let (id, name, w_iv, w_value) = want.next().expect("no extra entry");
                assert_eq!((eid, g.labels().name(label), iv), (id, Some(name), w_iv));
                assert!(same_bits(value, &w_value), "{path} edge {eid}: {value:?}");
            }
        }
        assert!(want.next().is_none(), "{path}: an entry went missing");
    }
    assert_same_graph(&streamed, &built, "property hazards");
}

/// Bit-for-bit value equality (a `Double` compares by its bits).
fn same_bits(a: &PropValue, b: &PropValue) -> bool {
    match (a, b) {
        (PropValue::Double(x), PropValue::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}
