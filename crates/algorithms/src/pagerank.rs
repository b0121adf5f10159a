//! PageRank (TI, Sec. V): fixed-iteration rank computation per
//! time-point. Snapshot-reducible; the paper runs it for 10 supersteps.
//!
//! The ICM form pre-partitions each vertex's state at its out-degree
//! change boundaries (the paper's footnote 2 idea), so every state
//! interval has a constant out-degree and the rank share `r/deg` is well
//! defined per interval. The iteration counter lives in the state so each
//! superstep's write is a genuine change and scatter keeps firing.

use crate::common::degree_boundaries;
use graphite_baselines::vcm::{VcmContext, VcmProgram};
use graphite_bsp::aggregate::Aggregators;
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::{Interval, Time};

/// The damping factor used by the paper's PR formulation.
pub const DAMPING: f64 = 0.85;
/// Default iteration count (paper: PR has a fixed superstep count of 10).
pub const DEFAULT_ITERATIONS: u64 = 10;

/// Per-interval PR state: `(iteration, rank, share)` where `share` is the
/// rank divided by the interval's (constant) out-degree.
pub type PrState = (u32, f64, f64);

/// PageRank under ICM.
pub struct IcmPageRank {
    /// Number of rank-update supersteps.
    pub iterations: u64,
}

impl Default for IcmPageRank {
    fn default() -> Self {
        IcmPageRank {
            iterations: DEFAULT_ITERATIONS,
        }
    }
}

impl IcmPageRank {
    fn out_degree_at(ctx: &ComputeContext<PrState, f64>, t: Time) -> usize {
        let g = ctx.graph();
        g.out_edges(ctx.vertex_index())
            .iter()
            .filter(|&&e| g.edge(e).lifespan.contains_point(t))
            .count()
    }
}

impl IntervalProgram for IcmPageRank {
    /// TI algorithms never read edge properties (Sec. VII-A1), so scatter
    /// granularity is the edge lifespan.
    fn refine_scatter_by_properties(&self) -> bool {
        false
    }

    type State = PrState;
    type Msg = f64;

    fn init(&self, _v: &VertexContext) -> PrState {
        (0, 0.0, 0.0)
    }

    fn prepartition(&self, v: &VertexContext) -> Vec<Time> {
        degree_boundaries(v.graph(), v.index())
    }

    fn all_active(&self, step: u64, _globals: &Aggregators) -> bool {
        step <= self.iterations
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<PrState, f64>,
        t: Interval,
        _state: &PrState,
        msgs: &[f64],
    ) {
        let step = ctx.superstep();
        if step > self.iterations {
            return;
        }
        let rank = if step == 1 {
            1.0
        } else {
            let incoming: f64 = msgs.iter().sum();
            1.0 - DAMPING + DAMPING * incoming
        };
        // The interval never crosses a degree boundary (prepartition), so
        // the degree at its first point holds throughout.
        let deg = Self::out_degree_at(ctx, t.start());
        let share = if deg > 0 { rank / deg as f64 } else { 0.0 };
        ctx.set_state(t, (step as u32, rank, share));
    }

    fn scatter(&self, ctx: &mut ScatterContext<f64>, _t: Interval, state: &PrState) {
        if u64::from(state.0) < self.iterations {
            ctx.send_inherit(state.2);
        }
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a + b)
    }
}

/// PageRank under plain VCM (one snapshot).
pub struct VcmPageRank {
    /// Number of rank-update supersteps.
    pub iterations: u64,
}

impl Default for VcmPageRank {
    fn default() -> Self {
        VcmPageRank {
            iterations: DEFAULT_ITERATIONS,
        }
    }
}

impl VcmProgram for VcmPageRank {
    type State = f64;
    type Msg = f64;

    fn init(&self, _v: u32, _vid: VertexId) -> f64 {
        0.0
    }

    fn all_active(&self, step: u64, _globals: &Aggregators) -> bool {
        step <= self.iterations
    }

    fn compute(&self, ctx: &mut VcmContext<f64>, state: &mut f64, msgs: &[f64]) {
        let step = ctx.superstep();
        if step > self.iterations {
            return;
        }
        *state = if step == 1 {
            1.0
        } else {
            let incoming: f64 = msgs.iter().sum();
            1.0 - DAMPING + DAMPING * incoming
        };
        if step < self.iterations {
            let deg = ctx.out_edges().len();
            if deg > 0 {
                let share = *state / deg as f64;
                for e in ctx.out_edges() {
                    ctx.send(e.target, share);
                }
            }
        }
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_baselines::msb::{run_msb, MsbConfig};
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::fixtures::transit_graph;
    use graphite_tgraph::graph::{EdgeId, TemporalGraph, VIdx};
    use std::sync::Arc;

    fn icm_vs_msb(graph: Arc<TemporalGraph>, iterations: u64) {
        let icm = run_icm(
            &graph,
            Arc::new(IcmPageRank { iterations }),
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
        let msb = run_msb(
            Arc::clone(&graph),
            Arc::new(VcmPageRank { iterations }),
            &MsbConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
            },
        )
        .unwrap();
        for (t, snapshot) in &msb.per_snapshot {
            for (v, rank) in snapshot {
                let vid = graph.vertex(VIdx(*v)).vid;
                let got = icm.state_at(vid, *t).map(|s| s.1).unwrap();
                assert!(
                    (got - rank).abs() < 1e-9,
                    "{vid:?} at {t}: icm {got} vs msb {rank}"
                );
            }
        }
    }

    #[test]
    fn icm_pr_matches_per_snapshot_pr_on_transit() {
        icm_vs_msb(Arc::new(transit_graph()), 10);
    }

    #[test]
    fn icm_pr_matches_on_a_cycle_with_churn() {
        // A 3-cycle where one edge disappears halfway: ranks differ before
        // and after the change.
        let mut b = TemporalGraphBuilder::new();
        let life = graphite_tgraph::time::Interval::new(0, 8);
        for i in 0..3 {
            b.add_vertex(VertexId(i), life).unwrap();
        }
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), life)
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), life)
            .unwrap();
        b.add_edge(
            EdgeId(2),
            VertexId(2),
            VertexId(0),
            graphite_tgraph::time::Interval::new(0, 4),
        )
        .unwrap();
        icm_vs_msb(Arc::new(b.build().unwrap()), 10);
    }

    #[test]
    fn ranks_on_a_static_cycle_stay_one() {
        let mut b = TemporalGraphBuilder::new();
        let life = graphite_tgraph::time::Interval::new(0, 4);
        for i in 0..4 {
            b.add_vertex(VertexId(i), life).unwrap();
        }
        for i in 0..4 {
            b.add_edge(EdgeId(i), VertexId(i), VertexId((i + 1) % 4), life)
                .unwrap();
        }
        let graph = Arc::new(b.build().unwrap());
        let icm = run_icm(
            &graph,
            Arc::new(IcmPageRank::default()),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        for i in 0..4 {
            let s = icm.state_at(VertexId(i), 2).unwrap();
            assert!((s.1 - 1.0).abs() < 1e-12, "vertex {i} rank {}", s.1);
        }
        // Rank shares across a symmetric cycle are all 1.0; state intervals
        // stay maximal (one entry per vertex).
        assert_eq!(icm.states[&VertexId(0)].len(), 1);
    }

    #[test]
    fn icm_pr_runs_exactly_the_fixed_supersteps() {
        let graph = Arc::new(transit_graph());
        let icm = run_icm(
            &graph,
            Arc::new(IcmPageRank { iterations: 5 }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        assert_eq!(icm.metrics.supersteps, 5);
    }
}
