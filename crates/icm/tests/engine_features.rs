//! Engine-level tests for the ICM runtime features beyond the basic
//! compute/scatter loop: state pre-partitioning (footnote 2), direct
//! interval messages, bidirectional scatter, all-active supersteps, the
//! interaction of combiner folding with non-combinable programs, and the
//! edge-property reads of scatter.

use graphite_bsp::aggregate::Aggregators;
use graphite_icm::prelude::*;
use graphite_tgraph::builder::TemporalGraphBuilder;
use graphite_tgraph::graph::{EIdx, EdgeId, TemporalGraph, VertexId};
use graphite_tgraph::property::{LabelId, PropValue};
use graphite_tgraph::time::Interval;
use std::sync::{Arc, Mutex};

fn line(n: u64, horizon: i64) -> TemporalGraph {
    let mut b = TemporalGraphBuilder::new();
    let life = Interval::new(0, horizon);
    for i in 0..n {
        b.add_vertex(VertexId(i), life).unwrap();
    }
    for i in 0..n - 1 {
        b.add_edge(EdgeId(i), VertexId(i), VertexId(i + 1), life)
            .unwrap();
    }
    b.build().unwrap()
}

/// A program that pre-partitions every vertex at fixed boundaries and
/// records (via its state) the interval each superstep-1 compute saw.
struct Prepartitioned;

impl IntervalProgram for Prepartitioned {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: &VertexContext) -> i64 {
        -1
    }

    fn prepartition(&self, v: &VertexContext) -> Vec<i64> {
        let life = v.lifespan();
        vec![life.start() + 2, life.start() + 5]
    }

    fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, _s: &i64, _m: &[i64]) {
        if ctx.superstep() == 1 {
            // One call per pre-partitioned entry; record the entry length.
            ctx.set_state(t, t.len());
        }
    }
}

#[test]
fn prepartition_splits_initial_state_and_compute_calls() {
    let g = Arc::new(line(3, 8));
    let r = run_icm(&g, Arc::new(Prepartitioned), &IcmConfig::default(), None).expect("ICM run");
    // Lifespan [0,8) split at 2 and 5: superstep-1 computes saw entries of
    // lengths 2, 3 and 3; result extraction coalesces the two adjacent
    // equal values into [2,8) -> 3.
    for v in 0..3 {
        let states = &r.states[&VertexId(v)];
        let entries: Vec<(Interval, i64)> = states.iter().map(|(iv, s)| (*iv, *s)).collect();
        assert_eq!(
            entries,
            vec![(Interval::new(0, 2), 2), (Interval::new(2, 8), 3)],
            "vertex {v}"
        );
    }
    // 3 vertices x 3 entries at superstep 1.
    assert_eq!(r.metrics.counters.compute_calls, 9);
}

/// A program that floods a token via direct sends only (no scatter): each
/// vertex that receives the token forwards it to the vertex with the next
/// external id, regardless of edges.
struct DirectRelay {
    last: u64,
}

impl IntervalProgram for DirectRelay {
    type State = u64;
    type Msg = u64;

    fn init(&self, _v: &VertexContext) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut ComputeContext<u64, u64>, t: Interval, state: &u64, msgs: &[u64]) {
        let me = ctx.vid().0;
        if ctx.superstep() == 1 {
            if me == 0 {
                ctx.set_state(t, 1);
                ctx.send_to(VertexId(1), Interval::new(2, 6), 1);
            }
            return;
        }
        if let Some(&hops) = msgs.iter().max() {
            if hops > *state {
                ctx.set_state(t, hops);
            }
            if me < self.last {
                ctx.send_to(VertexId(me + 1), t, hops + 1);
            }
            // Messages to unknown vertices are silently dropped.
            ctx.send_to(VertexId(999), t, hops);
        }
    }
}

#[test]
fn direct_sends_bypass_scatter_and_respect_intervals() {
    let g = Arc::new(line(4, 8));
    let r = run_icm(
        &g,
        Arc::new(DirectRelay { last: 3 }),
        &IcmConfig {
            run: RunConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
        None,
    )
    .expect("ICM run");
    // The token was injected over [2,6) and hops stay within it.
    let v3 = &r.states[&VertexId(3)];
    assert_eq!(r.state_at(VertexId(3), 3), Some(&3));
    assert_eq!(r.state_at(VertexId(3), 1), Some(&0));
    assert_eq!(r.state_at(VertexId(3), 7), Some(&0));
    assert_eq!(v3.iter().filter(|(_, s)| *s == 3).count(), 1);
    // The default (no-op) scatter is still invoked per state change over
    // each out-edge — it just emits nothing; all traffic came from the
    // direct sends.
    assert_eq!(r.metrics.counters.scatter_calls, 3);
    assert!(r.metrics.counters.messages_sent >= 3);
}

/// Undirected flood via `EdgeDirection::Both`: a token from the middle of
/// a directed line must reach both endpoints.
struct BothFlood;

impl IntervalProgram for BothFlood {
    type State = bool;
    type Msg = bool;

    fn init(&self, _v: &VertexContext) -> bool {
        false
    }

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<bool, bool>,
        t: Interval,
        state: &bool,
        msgs: &[bool],
    ) {
        if ctx.superstep() == 1 {
            if ctx.vid() == VertexId(2) {
                ctx.set_state(t, true);
            }
            return;
        }
        if !msgs.is_empty() && !*state {
            ctx.set_state(t, true);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<bool>, _t: Interval, _s: &bool) {
        ctx.send_inherit(true);
    }
}

#[test]
fn both_direction_reaches_ancestors_and_descendants() {
    let g = Arc::new(line(5, 4));
    let r = run_icm(&g, Arc::new(BothFlood), &IcmConfig::default(), None).expect("ICM run");
    for v in 0..5 {
        assert_eq!(r.state_at(VertexId(v), 0), Some(&true), "vertex {v}");
    }
}

/// An all-active program that counts its own compute invocations per
/// superstep through an aggregator, verifying message-free vertices still
/// compute.
struct CountAllActive;

impl IntervalProgram for CountAllActive {
    type State = u32;
    type Msg = u32;

    fn init(&self, _v: &VertexContext) -> u32 {
        0
    }

    fn all_active(&self, step: u64, _g: &Aggregators) -> bool {
        step <= 3
    }

    fn compute(&self, ctx: &mut ComputeContext<u32, u32>, t: Interval, state: &u32, _m: &[u32]) {
        let step = ctx.superstep() as u32;
        if step <= 3 {
            ctx.aggregate().sum_u64("calls", 1);
            ctx.set_state(t, state + step); // always changes: keeps run alive
        }
    }
}

#[test]
fn all_active_supersteps_compute_without_messages() {
    let g = Arc::new(line(4, 6));
    let mut per_step = Vec::new();
    let mut hook = |_step: u64, globals: &Aggregators| {
        per_step.push(globals.get_sum_u64("calls").unwrap_or(0));
        graphite_bsp::MasterDecision::Continue
    };
    let r = run_icm(
        &g,
        Arc::new(CountAllActive),
        &IcmConfig {
            run: RunConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
        Some(&mut hook),
    )
    .expect("ICM run");
    // Steps 1..=3 each run compute on all 4 vertices despite zero
    // messages in flight at any point.
    assert_eq!(r.metrics.counters.messages_sent, 0);
    assert_eq!(per_step[..3], [4, 4, 4]);
    // Final states: 1 + 2 + 3.
    assert_eq!(r.state_at(VertexId(0), 0), Some(&6));
}

/// Combiner folding must not engage for non-combinable programs: every
/// message must reach compute individually.
struct NonCombinable;

impl IntervalProgram for NonCombinable {
    type State = u64;
    type Msg = u64;

    fn init(&self, _v: &VertexContext) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut ComputeContext<u64, u64>, t: Interval, state: &u64, msgs: &[u64]) {
        if ctx.superstep() == 1 {
            if ctx.vid() == VertexId(0) {
                ctx.set_state(t, 1);
            }
            return;
        }
        // Count messages — a combiner would collapse them.
        ctx.set_state(t, state + msgs.len() as u64);
    }

    fn scatter(&self, ctx: &mut ScatterContext<u64>, _t: Interval, _s: &u64) {
        // Two messages per scatter call, same interval.
        ctx.send_inherit(7);
        ctx.send_inherit(7);
    }
}

#[test]
fn non_combinable_messages_arrive_individually() {
    let g = Arc::new(line(2, 4));
    let r = run_icm(
        &g,
        Arc::new(NonCombinable),
        &IcmConfig {
            combiner: true,
            ..Default::default()
        },
        None,
    )
    .expect("ICM run");
    // Vertex 1 received both copies despite the combiner being enabled
    // (the program declines to combine).
    assert_eq!(r.state_at(VertexId(1), 0), Some(&2));
}

/// `state_at` boundary semantics: intervals are half-open `[start, end)`,
/// so a lookup exactly at an entry's end must resolve to the *next* entry
/// (or to nothing), never to the entry that just closed — and lookups
/// beyond the last entry or inside gaps return `None`.
#[test]
fn state_at_is_end_exclusive_at_every_boundary() {
    use graphite_icm::engine::IcmResult;
    use std::collections::BTreeMap;

    let mut states: BTreeMap<VertexId, Vec<(Interval, i64)>> = BTreeMap::new();
    // Adjacent entries, a gap, then a final entry.
    states.insert(
        VertexId(0),
        vec![
            (Interval::new(0, 3), 10),
            (Interval::new(3, 5), 20),
            (Interval::new(8, 9), 30),
        ],
    );
    let r = IcmResult {
        states,
        metrics: Default::default(),
    };
    let v = VertexId(0);
    // Interior and start points.
    assert_eq!(r.state_at(v, 0), Some(&10));
    assert_eq!(r.state_at(v, 2), Some(&10));
    // The shared boundary belongs to the successor, not the closed entry.
    assert_eq!(r.state_at(v, 3), Some(&20));
    assert_eq!(r.state_at(v, 4), Some(&20));
    // End of the last entry before the gap: nothing is active.
    assert_eq!(r.state_at(v, 5), None);
    assert_eq!(r.state_at(v, 7), None);
    // The unit entry after the gap: alive at 8, closed at 9.
    assert_eq!(r.state_at(v, 8), Some(&30));
    assert_eq!(r.state_at(v, 9), None);
    // Outside the partition entirely.
    assert_eq!(r.state_at(v, -1), None);
    assert_eq!(r.state_at(v, 100), None);
    assert_eq!(r.state_at(VertexId(7), 0), None);
}

/// One `edge_prop` read: `(edge, scatter interval, label, value)`.
type Read = (EIdx, Interval, LabelId, Option<PropValue>);

/// Records every `edge_prop` read scatter makes.
struct PropReader {
    refine: bool,
    labels: Vec<LabelId>,
    reads: Mutex<Vec<Read>>,
}

impl IntervalProgram for PropReader {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: &VertexContext) -> i64 {
        -1
    }

    // Changed pieces that start inside property segments as well as at
    // their boundaries.
    fn prepartition(&self, _v: &VertexContext) -> Vec<i64> {
        vec![3, 7]
    }

    fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, _s: &i64, _m: &[i64]) {
        if ctx.superstep() == 1 {
            ctx.set_state(t, t.start());
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<i64>, interval: Interval, _s: &i64) {
        let e = EIdx(ctx.edge().eid.0 as u32);
        let mut reads = self.reads.lock().unwrap();
        for &label in &self.labels {
            reads.push((e, interval, label, ctx.edge_prop(label).cloned()));
        }
    }

    fn refine_scatter_by_properties(&self) -> bool {
        self.refine
    }
}

/// `edge_prop` reads the segment values frozen beside the scatter
/// segments. Refined or not, every read equals the property timeline's
/// value at the start of the scatter interval.
#[test]
fn edge_prop_reads_equal_the_timeline_at_the_interval_start() {
    let mut b = TemporalGraphBuilder::new();
    let life = Interval::new(0, 12);
    for i in 0..4 {
        b.add_vertex(VertexId(i), life).unwrap();
    }
    // Each edge's rows as the builder gets them: a gapped integer timeline
    // and a text one crossing its gap. They are the reference below, since
    // the graph keeps edge property values only in the column the reads
    // under test use.
    let rows = |i: u64| {
        [
            ("w", Interval::new(1, 4), PropValue::Long(5 + i as i64)),
            ("w", Interval::new(6, 11), PropValue::Long(2)),
            ("tag", Interval::new(2, 9), PropValue::from("x")),
        ]
    };
    for i in 0..3 {
        let (s, d) = (VertexId(i), VertexId(i + 1));
        b.add_edge(EdgeId(i), s, d, Interval::new(1, 11)).unwrap();
        for (label, iv, value) in rows(i) {
            b.edge_property(EdgeId(i), label, iv, value).unwrap();
        }
    }
    let g = Arc::new(b.build().unwrap());
    let labels = vec![g.label("w").unwrap(), g.label("tag").unwrap()];
    let mut calls = Vec::new();
    for refine in [true, false] {
        let program = Arc::new(PropReader {
            refine,
            labels: labels.clone(),
            reads: Mutex::new(Vec::new()),
        });
        run_icm(&g, Arc::clone(&program), &IcmConfig::default(), None).expect("ICM run");
        let reads = program.reads.lock().unwrap();
        for (e, interval, label, value) in reads.iter() {
            let name = g.labels().name(*label).unwrap();
            let want = rows(g.edge(*e).eid.0)
                .into_iter()
                .find(|(l, iv, _)| *l == name && iv.contains_point(interval.start()))
                .map(|(.., v)| v);
            assert_eq!(
                value.as_ref(),
                want.as_ref(),
                "refine {refine}: {e:?} {interval} {label:?}"
            );
        }
        assert!(reads.iter().any(|r| r.3.is_none()), "a gap was read");
        assert!(reads.iter().any(|r| r.3.is_some()), "a value was read");
        calls.push(reads.len());
    }
    // Refinement splits the scatter calls at the property boundaries.
    assert!(calls[0] > calls[1], "{calls:?}");
}
