//! Triangle Counting (TD clustering, Sec. V): each vertex messages its
//! two-hop out-neighbours to see if they are adjacent to the initial
//! vertex. We count directed 3-cycles `v → w → x → v` whose three edges
//! are concurrently alive; the interval intersections are threaded through
//! the message intervals, so warp enforces the temporal bounds.
//!
//! Each cycle is observed three times (once per choice of the initial
//! vertex), so the global triangle count is the sum of per-vertex counts
//! divided by three.

use graphite_bsp::codec::{get_varint, put_varint, Wire};
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::Interval;

/// The two-stage TC protocol message: the origin vertex id, tagged by hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcMsg {
    /// Hop 1: "I am your in-neighbour `origin`".
    Origin(u64),
    /// Hop 2: "`origin` is a two-hop in-neighbour".
    TwoHop(u64),
}

impl Wire for TcMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TcMsg::Origin(v) => {
                buf.push(0);
                put_varint(*v, buf);
            }
            TcMsg::TwoHop(v) => {
                buf.push(1);
                put_varint(*v, buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&tag, rest) = buf.split_first()?;
        *buf = rest;
        match tag {
            0 => Some(TcMsg::Origin(get_varint(buf)?)),
            1 => Some(TcMsg::TwoHop(get_varint(buf)?)),
            _ => None,
        }
    }
}

/// Triangle counting under ICM: per-vertex, per-interval counts of the
/// directed 3-cycles the vertex closes.
pub struct IcmTc;

impl IntervalProgram for IcmTc {
    type State = u64;
    type Msg = TcMsg;

    fn init(&self, _v: &VertexContext) -> u64 {
        0
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<u64, TcMsg>,
        t: Interval,
        state: &u64,
        msgs: &[TcMsg],
    ) {
        let g = ctx.graph();
        let v = ctx.vertex_index();
        match ctx.superstep() {
            1 => {
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
                    if w != me {
                        ctx.send_to(w, iv, TcMsg::Origin(me.0));
                    }
                }
            }
            2 => {
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
                let me = ctx.vid();
                for m in msgs {
                    let TcMsg::Origin(origin) = m else { continue };
                    for (x, iv) in &relays {
                        if *x != VertexId(*origin) && *x != me {
                            ctx.send_to(*x, *iv, TcMsg::TwoHop(*origin));
                        }
                    }
                }
            }
            _ => {
                // Hop 3: close the cycle via my out-edge back to the origin;
                // each confirmed (cycle, sub-interval) adds one.
                let mut writes: Vec<(Interval, u64)> = Vec::new();
                for m in msgs {
                    let TcMsg::TwoHop(origin) = m else { continue };
                    let origin = VertexId(*origin);
                    for &e in g.out_edges(v) {
                        let ed = g.edge(e);
                        if g.vertex(ed.dst).vid != origin {
                            continue;
                        }
                        if let Some(iv) = ed.lifespan.intersect(t) {
                            writes.push((iv, 1));
                        }
                    }
                }
                if writes.is_empty() {
                    return;
                }
                // Different confirmations may cover different sub-intervals
                // of this tuple; fold them point-wise onto the state.
                let mut bounds: Vec<i64> = writes
                    .iter()
                    .flat_map(|(iv, _)| [iv.start(), iv.end()])
                    .collect();
                bounds.sort_unstable();
                bounds.dedup();
                for w in bounds.windows(2) {
                    let Some(piece) = Interval::try_new(w[0], w[1]) else {
                        continue;
                    };
                    let add: u64 = writes
                        .iter()
                        .filter(|(iv, _)| piece.during_or_equals(*iv))
                        .map(|(_, c)| *c)
                        .sum();
                    if add > 0 {
                        ctx.set_state(piece, state + add);
                    }
                }
            }
        }
    }
}

/// Sums a TC result into a per-time-point global triangle count (each
/// cycle is seen three times) over `window`.
pub fn triangles_at(result: &IcmResult<u64>, t: graphite_tgraph::time::Time) -> u64 {
    let total: u64 = result
        .states
        .values()
        .flat_map(|entries| entries.iter())
        .filter(|(iv, _)| iv.contains_point(t))
        .map(|(_, c)| *c)
        .sum();
    total / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{EdgeId, TemporalGraph};
    use std::sync::Arc;

    /// A directed 3-cycle 0→1→2→0 with staggered lifespans plus a chord.
    fn cycle_graph() -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let life = Interval::new(0, 10);
        for i in 0..3 {
            b.add_vertex(VertexId(i), life).unwrap();
        }
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), Interval::new(0, 8))
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(2, 10))
            .unwrap();
        b.add_edge(EdgeId(2), VertexId(2), VertexId(0), Interval::new(1, 7))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn msg_round_trip() {
        for m in [TcMsg::Origin(9), TcMsg::TwoHop(1_000_000)] {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            let mut s = buf.as_slice();
            assert_eq!(TcMsg::decode(&mut s), Some(m));
        }
    }

    #[test]
    fn cycle_counted_exactly_in_overlap() {
        let graph = Arc::new(cycle_graph());
        let r = run_icm(
            &graph,
            Arc::new(IcmTc),
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
        // The three edges coexist over [2,7).
        for t in [0, 1, 7, 9] {
            assert_eq!(triangles_at(&r, t), 0, "t={t}");
        }
        for t in 2..7 {
            assert_eq!(triangles_at(&r, t), 1, "t={t}");
        }
        // Every cycle vertex closes it exactly once over [2,7).
        for v in 0..3 {
            let counts = &r.states[&VertexId(v)];
            let at = |t: i64| {
                counts
                    .iter()
                    .find(|(iv, _)| iv.contains_point(t))
                    .map(|(_, c)| *c)
                    .unwrap()
            };
            assert_eq!(at(3), 1, "v{v}");
            assert_eq!(at(1), 0, "v{v}");
        }
    }

    #[test]
    fn counts_stable_across_workers() {
        let graph = Arc::new(cycle_graph());
        let r1 = run_icm(
            &graph,
            Arc::new(IcmTc),
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
        let r3 = run_icm(
            &graph,
            Arc::new(IcmTc),
            &IcmConfig {
                run: RunConfig {
                    workers: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        )
        .expect("ICM run");
        assert_eq!(r1.states, r3.states);
    }
}
