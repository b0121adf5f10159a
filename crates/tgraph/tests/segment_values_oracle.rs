//! The segment-value column against the property rows it is frozen from
//! (DESIGN.md §16.1).
//!
//! Every scatter segment carries the values its edge's labels hold at the
//! segment's start. The property boundaries refine the segments, so those
//! values must hold at every point of the segment. `edge_property_at` and
//! `edge_props` read the same column, so they must answer every point
//! query, and list every entry, as the rows handed to the builder do. The
//! column is the only store of edge property values, so the reference is
//! those rows, kept beside the graph. Graphs are seeded and carry gapped
//! timelines, all four value kinds, several labels per edge and unbounded
//! lifespans.

use graphite_tgraph::builder::TemporalGraphBuilder;
use graphite_tgraph::graph::{EdgeId, SegIdx, TemporalGraph, VertexId};
use graphite_tgraph::property::{LabelId, PropValue};
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::{Interval, Time, TIME_MAX, TIME_MIN};

const SEEDS: [u64; 6] = [1, 7, 19, 42, 77, 2024];
const HORIZON: Time = 30;
const LABELS: [&str; 4] = ["long", "double", "bool", "text"];

/// A value of the kind `LABELS[kind]` names.
fn value(rng: &mut SplitMix64, kind: usize) -> PropValue {
    let x = rng.range_i64(-5, 6);
    match kind {
        0 => PropValue::Long(x),
        // -0.0 as well as 0.0: the column must keep the bits it read.
        1 if x == -5 => PropValue::Double(-0.0),
        1 => PropValue::Double(x as f64 / 4.0),
        2 => PropValue::Bool(x % 2 == 0),
        _ => PropValue::Text(format!("v{x}")),
    }
}

/// A lifespan inside `within`: bounded, or open on one or both sides when
/// `within` is.
fn lifespan(rng: &mut SplitMix64, within: Interval) -> Interval {
    let lo = within.start().max(0);
    let hi = within.end().min(HORIZON);
    let start = if within.start() == TIME_MIN && rng.bounded(3) == 0 {
        TIME_MIN
    } else {
        rng.range_i64(lo, hi)
    };
    let end = if within.end() == TIME_MAX && rng.bounded(3) == 0 {
        TIME_MAX
    } else {
        rng.range_i64(start.max(lo) + 1, hi + 1)
    };
    Interval::new(start, end)
}

/// A gapped timeline inside `life`: cut its bounded stretch at sorted
/// points and give every other piece, at random, a value. Open ends of
/// `life` may stay open on the first and last piece.
fn timeline(rng: &mut SplitMix64, life: Interval, kind: usize) -> Vec<(Interval, PropValue)> {
    let lo = life.start().max(-1);
    let hi = life.end().min(HORIZON + 1);
    let count = if lo + 1 < hi { rng.bounded(5) } else { 0 };
    let mut cuts: Vec<Time> = (0..count).map(|_| rng.range_i64(lo + 1, hi)).collect();
    cuts.extend([life.start(), life.end()]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut entries = Vec::new();
    for w in cuts.windows(2) {
        if rng.bounded(3) != 0 {
            entries.push((Interval::new(w[0], w[1]), value(rng, kind)));
        }
    }
    entries
}

/// Each edge's property rows `(label, interval, value)` in the order the
/// builder received them, indexed by `EIdx`.
type Rows = Vec<Vec<(&'static str, Interval, PropValue)>>;

fn random_graph(seed: u64) -> (TemporalGraph, Rows) {
    let mut rng = SplitMix64::new(seed);
    let mut b = TemporalGraphBuilder::new();
    let n = 24;
    let mut lifespans = Vec::new();
    for vid in 0..n {
        let life = match rng.bounded(4) {
            0 => Interval::all(),
            1 => Interval::from_start(rng.range_i64(0, 5)),
            2 => Interval::until(rng.range_i64(HORIZON - 5, HORIZON)),
            _ => lifespan(&mut rng, Interval::new(0, HORIZON)),
        };
        b.add_vertex(VertexId(vid), life).unwrap();
        lifespans.push(life);
    }
    let mut eid = 0;
    let mut rows = Rows::new();
    for _ in 0..200 {
        let (s, d) = (rng.index(n as usize), rng.index(n as usize));
        let Some(shared) = lifespans[s].intersect(lifespans[d]) else {
            continue;
        };
        if shared.start().max(0) >= shared.end().min(HORIZON) {
            continue;
        }
        let life = lifespan(&mut rng, shared);
        b.add_edge(EdgeId(eid), VertexId(s as u64), VertexId(d as u64), life)
            .unwrap();
        let mut row = Vec::new();
        for (kind, label) in LABELS.iter().enumerate() {
            if rng.bounded(3) == 0 {
                continue;
            }
            for (iv, v) in timeline(&mut rng, life, kind) {
                b.edge_property(EdgeId(eid), label, iv, v.clone()).unwrap();
                row.push((*label, iv, v));
            }
        }
        rows.push(row);
        eid += 1;
    }
    (b.build().unwrap(), rows)
}

/// A value compared bit for bit (`PropValue`'s `==` has `0.0 == -0.0`).
fn exact(value: &PropValue) -> String {
    format!("{value:?}")
}

/// The labels of `row`, in the order they first appear.
fn row_labels(row: &[(&'static str, Interval, PropValue)]) -> Vec<&'static str> {
    let mut labels: Vec<&str> = Vec::new();
    for (label, ..) in row {
        if !labels.contains(label) {
            labels.push(label);
        }
    }
    labels
}

/// What `row` says its label `label` holds at `t`.
fn row_value<'a>(
    row: &'a [(&'static str, Interval, PropValue)],
    label: &str,
    t: Time,
) -> Option<&'a PropValue> {
    row.iter()
        .find(|(l, iv, _)| *l == label && iv.contains_point(t))
        .map(|(.., v)| v)
}

/// What an edge's input `row` says it holds at `t`, label by label.
fn timeline_values(
    g: &TemporalGraph,
    row: &[(&'static str, Interval, PropValue)],
    t: Time,
) -> Vec<(LabelId, String)> {
    row_labels(row)
        .into_iter()
        .filter_map(|l| row_value(row, l, t).map(|v| (g.label(l).unwrap(), exact(v))))
        .collect()
}

/// The points a segment is checked at: all of a bounded one, the start
/// and the point after it otherwise.
fn probe_points(seg: Interval) -> Vec<Time> {
    if seg.start() == TIME_MIN || seg.end() == TIME_MAX {
        vec![seg.start(), seg.start() + 1]
    } else {
        seg.points().collect()
    }
}

#[test]
fn every_segment_holds_its_timeline_values_at_every_point() {
    let mut seen = [0usize; 4]; // labelled segments per kind
    let (mut open, mut gaps, mut multi) = (0, 0, 0);
    for seed in SEEDS {
        let (g, rows) = random_graph(seed);
        assert!(g.num_edges() > 100, "seed {seed}: too few edges");
        for e in g.edge_indices() {
            let row = &rows[e.idx()];
            // The entries read back from the column are the input rows,
            // entry for entry.
            let read: Vec<(&str, Interval, String)> = g
                .edge_props(e)
                .iter()
                .map(|(l, iv, v)| (g.labels().name(l).unwrap(), iv, exact(v)))
                .collect();
            let fed: Vec<(&str, Interval, String)> =
                row.iter().map(|(l, iv, v)| (*l, *iv, exact(v))).collect();
            assert_eq!(read, fed, "seed {seed}: edge {e:?} entries");
            assert_eq!(g.edge_props(e).len(), fed.len());
            assert_eq!(g.edge_props(e).is_empty(), fed.is_empty());
            let segs = g.scatter_segments(e);
            let first = g.first_segment(e);
            for (k, &seg) in segs.iter().enumerate() {
                let s = SegIdx(first.0 + k as u32);
                let column: Vec<(LabelId, String)> =
                    g.segment_values(s).map(|(l, v)| (l, exact(v))).collect();
                open += usize::from(seg.start() == TIME_MIN || seg.end() == TIME_MAX);
                gaps += usize::from(column.len() < row_labels(row).len());
                multi += usize::from(column.len() > 1);
                for t in probe_points(seg) {
                    assert_eq!(
                        column,
                        timeline_values(&g, row, t),
                        "seed {seed}: edge {e:?} segment {seg} at {t}"
                    );
                    assert_eq!(g.segment_at(e, t), Some(s), "seed {seed}: {e:?} at {t}");
                }
                for (label, value) in &column {
                    assert_eq!(g.segment_value(s, *label).map(exact).as_ref(), Some(value));
                    let kind = LABELS.iter().position(|n| g.label(n) == Some(*label));
                    seen[kind.unwrap()] += 1;
                }
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "every value kind: {seen:?}");
    assert!(
        open > 0 && gaps > 0 && multi > 0,
        "open segments {open}, gapped {gaps}, multi-label {multi}"
    );
}

#[test]
fn edge_property_at_equals_the_timeline_read() {
    for seed in SEEDS {
        let (g, rows) = random_graph(seed);
        let labels: Vec<LabelId> = LABELS.iter().filter_map(|n| g.label(n)).collect();
        assert_eq!(labels.len(), LABELS.len());
        for e in g.edge_indices() {
            let life = g.edge_lifespan(e);
            let lo = life.start().max(-2) - 1;
            let hi = life.end().min(HORIZON + 2) + 1;
            let points = (lo..=hi)
                .chain([TIME_MIN, TIME_MIN + 1, TIME_MAX - 1])
                .chain([life.start(), life.end()].map(|t| t.saturating_sub(1)))
                .chain([life.start(), life.end()]);
            for t in points {
                for &label in &labels {
                    assert_eq!(
                        g.edge_property_at(e, label, t).map(exact),
                        row_value(&rows[e.idx()], g.labels().name(label).unwrap(), t).map(exact),
                        "seed {seed}: edge {e:?} {label:?} at {t}"
                    );
                }
            }
        }
    }
}
