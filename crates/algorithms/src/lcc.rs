//! Local Clustering Coefficient (TD clustering, Sec. V): each interval
//! vertex quantifies how close its out-neighbours are to forming a clique.
//! Each vertex messages its neighbours, which message *their* neighbours
//! to check the ones adjacent to the initial vertex; the edge count is
//! sent back to the initial vertex (three message hops plus the report).
//!
//! Temporal semantics: a neighbour edge `w → x` counts for `v` over every
//! interval where the three edges `v→w`, `w→x` and `v→x` are concurrently
//! alive (the intersections are threaded through the message intervals, so
//! warp enforces the bounds automatically). The coefficient over an
//! interval is `count / (d·(d−1))` with `d` the out-degree there.

use graphite_bsp::codec::{get_varint, put_varint, Wire};
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::Interval;

/// The three-stage LCC protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LccMsg {
    /// Hop 1: "I am your in-neighbour `origin`".
    Origin(u64),
    /// Hop 2: "`origin` is a 2-hop in-neighbour via me".
    TwoHop(u64),
    /// Hop 3: one confirmed neighbour-edge for `origin`'s count.
    Report,
}

impl Wire for LccMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            LccMsg::Origin(v) => {
                buf.push(0);
                put_varint(*v, buf);
            }
            LccMsg::TwoHop(v) => {
                buf.push(1);
                put_varint(*v, buf);
            }
            LccMsg::Report => buf.push(2),
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&tag, rest) = buf.split_first()?;
        *buf = rest;
        match tag {
            0 => Some(LccMsg::Origin(get_varint(buf)?)),
            1 => Some(LccMsg::TwoHop(get_varint(buf)?)),
            2 => Some(LccMsg::Report),
            _ => None,
        }
    }
}

/// LCC under ICM. The protocol runs entirely through direct interval
/// messages (the Giraph `sendMessage` escape hatch the paper's design
/// implies for the report-back hop); the vertex state accumulates the
/// per-interval neighbour-edge count.
pub struct IcmLcc;

impl IntervalProgram for IcmLcc {
    type State = u64;
    type Msg = LccMsg;

    fn init(&self, _v: &VertexContext) -> u64 {
        0
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<u64, LccMsg>,
        t: Interval,
        state: &u64,
        msgs: &[LccMsg],
    ) {
        let g = ctx.graph();
        let v = ctx.vertex_index();
        match ctx.superstep() {
            1 => {
                // Hop 1: announce v to every out-neighbour over the edge's
                // lifespan.
                let me = ctx.vid();
                let sends: Vec<(VertexId, Interval)> = g
                    .out_edges(v)
                    .iter()
                    .map(|&e| {
                        let ed = g.edge(e);
                        (g.vertex(ed.dst).vid, ed.lifespan)
                    })
                    .collect();
                for (w, iv) in sends {
                    ctx.send_to(w, iv, LccMsg::Origin(me.0));
                }
            }
            2 => {
                // Hop 2: relay each origin to my out-neighbours, clipped to
                // this tuple and the second edge's lifespan.
                let relays: Vec<(VertexId, Interval)> = g
                    .out_edges(v)
                    .iter()
                    .filter_map(|&e| {
                        let ed = g.edge(e);
                        ed.lifespan
                            .intersect(t)
                            .map(|iv| (g.vertex(ed.dst).vid, iv))
                    })
                    .collect();
                for m in msgs {
                    let LccMsg::Origin(origin) = m else { continue };
                    for (x, iv) in &relays {
                        if *x != VertexId(*origin) {
                            ctx.send_to(*x, *iv, LccMsg::TwoHop(*origin));
                        }
                    }
                }
            }
            3 => {
                // Hop 3: for each 2-hop origin, confirm my in-edge from it
                // and report one neighbour-edge back.
                for m in msgs {
                    let LccMsg::TwoHop(origin) = m else { continue };
                    let origin = VertexId(*origin);
                    let confirmations: Vec<Interval> = g
                        .in_edges(v)
                        .iter()
                        .filter_map(|&e| {
                            let ed = g.edge(e);
                            (g.vertex(ed.src).vid == origin)
                                .then_some(ed.lifespan)
                                .and_then(|iv| iv.intersect(t))
                        })
                        .collect();
                    for iv in confirmations {
                        ctx.send_to(origin, iv, LccMsg::Report);
                    }
                }
            }
            _ => {
                // Hop 4: accumulate reports into the per-interval count.
                let reports = msgs.iter().filter(|m| matches!(m, LccMsg::Report)).count() as u64;
                if reports > 0 {
                    ctx.set_state(t, state + reports);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{EdgeId, TemporalGraph};
    use std::sync::Arc;

    /// A triangle 0→1, 1→2, 0→2 alive over different windows, plus an
    /// outlier edge 2→3.
    fn triangle_graph() -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let life = Interval::new(0, 10);
        for i in 0..4 {
            b.add_vertex(VertexId(i), life).unwrap();
        }
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(0, 8))
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(2, 10))
            .unwrap();
        b.add_edge(EdgeId(2), VertexId(0), VertexId(2), Interval::new(0, 6))
            .unwrap();
        b.add_edge(EdgeId(3), VertexId(2), VertexId(3), life)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn msg_round_trip() {
        for m in [LccMsg::Origin(42), LccMsg::TwoHop(7), LccMsg::Report] {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            let mut s = buf.as_slice();
            assert_eq!(LccMsg::decode(&mut s), Some(m));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn triangle_counts_respect_concurrency() {
        let graph = Arc::new(triangle_graph());
        let r = run_icm(
            &graph,
            Arc::new(IcmLcc),
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
        // The triangle (0→1, 1→2, 0→2) is concurrent over [2,6): vertex 0
        // counts one neighbour-edge (1→2) there, zero elsewhere.
        let zero = &r.states[&VertexId(0)];
        let count_at = |t: i64| {
            zero.iter()
                .find(|(iv, _)| iv.contains_point(t))
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert_eq!(count_at(1), 0);
        assert_eq!(count_at(2), 1);
        assert_eq!(count_at(5), 1);
        assert_eq!(count_at(6), 0);
        // Other vertices never head a triangle (no cycle closes for them).
        for v in 1..4 {
            assert!(r.states[&VertexId(v)].iter().all(|(_, c)| *c == 0), "v{v}");
        }
    }

    #[test]
    fn counts_are_stable_across_workers() {
        let graph = Arc::new(triangle_graph());
        let r1 = run_icm(
            &graph,
            Arc::new(IcmLcc),
            &IcmConfig {
                run: RunConfig {
                    workers: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        )
        .expect("ICM run");
        let r4 = run_icm(
            &graph,
            Arc::new(IcmLcc),
            &IcmConfig {
                run: RunConfig {
                    workers: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        )
        .expect("ICM run");
        assert_eq!(r1.states, r4.states);
        assert_eq!(
            r1.metrics.counters.messages_sent,
            r4.metrics.counters.messages_sent
        );
    }
}
