//! LCC and TC under the GoFFish baseline: the three-hop clustering
//! protocols run *within* each snapshot's inner vertex-centric loop, one
//! snapshot at a time — recomputing from scratch at every time-point,
//! which is precisely the redundancy ICM shares away. A per-snapshot
//! self-carry keeps every vertex active at every snapshot (the GoFFish
//! stateful-vertex idiom).

use crate::lcc::LccMsg;
use crate::tc::TcMsg;
use graphite_baselines::goffish::{GofContext, GofProgram};
use graphite_tgraph::graph::VertexId;

/// LCC under GoFFish: the state is the neighbour-edge count for the
/// *current* snapshot (reset at each snapshot's first inner superstep).
pub struct GofLcc;

impl GofProgram for GofLcc {
    type State = u64;
    type Msg = LccMsg;

    fn init(&self, _vid: VertexId) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut GofContext<LccMsg>, state: &mut u64, msgs: &[LccMsg]) {
        match ctx.superstep() {
            1 => {
                // New snapshot: reset, announce to out-neighbours, and
                // schedule the next snapshot's wake-up.
                *state = 0;
                let me = ctx.vid().0;
                let edges: Vec<_> = ctx.out_edges().to_vec();
                for e in edges {
                    ctx.send_local(e.target, LccMsg::Origin(me));
                }
            }
            2 => {
                let g = ctx.graph();
                let edges: Vec<_> = ctx.out_edges().to_vec();
                for m in msgs {
                    let LccMsg::Origin(origin) = m else { continue };
                    for e in &edges {
                        // Targets are dense indices; compare vids.
                        let tvid = g.vertex(graphite_tgraph::graph::VIdx(e.target)).vid.0;
                        if tvid != *origin {
                            ctx.send_local(e.target, LccMsg::TwoHop(*origin));
                        }
                    }
                }
            }
            3 => {
                let g = ctx.graph();
                let me = graphite_tgraph::graph::VIdx(ctx.vertex());
                let t = ctx.time();
                for m in msgs {
                    let LccMsg::TwoHop(origin) = m else { continue };
                    for &e in g.in_edges(me) {
                        let ed = g.edge(e);
                        if g.vertex(ed.src).vid.0 == *origin && ed.lifespan.contains_point(t) {
                            ctx.send_local(ed.src.0, LccMsg::Report);
                        }
                    }
                }
            }
            _ => {
                *state += msgs.iter().filter(|m| matches!(m, LccMsg::Report)).count() as u64;
            }
        }
    }
}

/// TC under GoFFish: per-snapshot directed 3-cycle counts.
pub struct GofTc;

impl GofProgram for GofTc {
    type State = u64;
    type Msg = TcMsg;

    fn init(&self, _vid: VertexId) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut GofContext<TcMsg>, state: &mut u64, msgs: &[TcMsg]) {
        match ctx.superstep() {
            1 => {
                *state = 0;
                let me = ctx.vid().0;
                let edges: Vec<_> = ctx.out_edges().to_vec();
                for e in edges {
                    ctx.send_local(e.target, TcMsg::Origin(me));
                }
            }
            2 => {
                let g = ctx.graph();
                let me = ctx.vid().0;
                let edges: Vec<_> = ctx.out_edges().to_vec();
                for m in msgs {
                    let TcMsg::Origin(origin) = m else { continue };
                    for e in &edges {
                        let tvid = g.vertex(graphite_tgraph::graph::VIdx(e.target)).vid.0;
                        if tvid != *origin && tvid != me {
                            ctx.send_local(e.target, TcMsg::TwoHop(*origin));
                        }
                    }
                }
            }
            _ => {
                let g = ctx.graph();
                let t = ctx.time();
                let me = graphite_tgraph::graph::VIdx(ctx.vertex());
                for m in msgs {
                    let TcMsg::TwoHop(origin) = m else { continue };
                    for &e in g.out_edges(me) {
                        let ed = g.edge(e);
                        if g.vertex(ed.dst).vid.0 == *origin && ed.lifespan.contains_point(t) {
                            *state += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_baselines::goffish::{run_goffish, GofConfig};
    use graphite_baselines::EdgeWeights;
    use graphite_icm::prelude::*;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::EdgeId;
    use graphite_tgraph::time::Interval;
    use std::sync::Arc;

    fn triangle() -> graphite_tgraph::graph::TemporalGraph {
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
        b.add_edge(EdgeId(3), VertexId(2), VertexId(0), Interval::new(1, 7))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn gof_lcc_matches_icm_lcc_per_snapshot() {
        let graph = Arc::new(triangle());
        let icm = run_icm(
            &graph,
            Arc::new(crate::lcc::IcmLcc),
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
        let gof = run_goffish(
            Arc::clone(&graph),
            Arc::new(GofLcc),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: EdgeWeights::default(),
            },
        )
        .unwrap();
        for (t, snapshot) in &gof.per_snapshot {
            for (v, count) in snapshot {
                let vid = graph.vertex(graphite_tgraph::graph::VIdx(*v)).vid;
                assert_eq!(icm.state_at(vid, *t), Some(count), "{vid:?} at t={t}");
            }
        }
        // GoFFish recomputes per snapshot: strictly more messages.
        assert!(gof.metrics.counters.messages_sent > icm.metrics.counters.messages_sent);
    }

    #[test]
    fn gof_tc_matches_icm_tc_per_snapshot() {
        let graph = Arc::new(triangle());
        let icm = run_icm(
            &graph,
            Arc::new(crate::tc::IcmTc),
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
        let gof = run_goffish(
            Arc::clone(&graph),
            Arc::new(GofTc),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: EdgeWeights::default(),
            },
        )
        .unwrap();
        for (t, snapshot) in &gof.per_snapshot {
            for (v, count) in snapshot {
                let vid = graph.vertex(graphite_tgraph::graph::VIdx(*v)).vid;
                assert_eq!(icm.state_at(vid, *t), Some(count), "{vid:?} at t={t}");
            }
        }
    }
}
