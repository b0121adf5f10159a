//! Weakly Connected Components (TI, Sec. V): per-time-point minimum-label
//! propagation treating edges as undirected. Snapshot-reducible.

use graphite_baselines::vcm::{VcmContext, VcmProgram};
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::Interval;

/// Sentinel meaning "label not yet assigned" (before superstep 1 runs).
const UNSET: u64 = u64::MAX;

/// WCC under ICM: every vertex adopts the minimum external id reachable
/// over undirected temporal paths, per time-point.
pub struct IcmWcc;

impl IntervalProgram for IcmWcc {
    /// TI algorithms never read edge properties (Sec. VII-A1), so scatter
    /// granularity is the edge lifespan.
    fn refine_scatter_by_properties(&self) -> bool {
        false
    }

    type State = u64;
    type Msg = u64;

    fn init(&self, _v: &VertexContext) -> u64 {
        UNSET
    }

    fn compute(&self, ctx: &mut ComputeContext<u64, u64>, t: Interval, state: &u64, msgs: &[u64]) {
        if ctx.superstep() == 1 {
            // Claim the own id: a real state change, so scatter announces
            // it to all temporal neighbours.
            ctx.set_state(t, ctx.vid().0);
            return;
        }
        let best = msgs.iter().copied().min().unwrap_or(UNSET);
        if best < *state {
            ctx.set_state(t, best);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<u64>, _t: Interval, state: &u64) {
        ctx.send_inherit(*state);
    }

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }

    fn combine(&self, a: &u64, b: &u64) -> Option<u64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// WCC under plain VCM (one snapshot).
pub struct VcmWcc;

impl VcmProgram for VcmWcc {
    type State = u64;
    type Msg = u64;

    fn init(&self, _v: u32, vid: VertexId) -> u64 {
        vid.0
    }

    fn compute(&self, ctx: &mut VcmContext<u64>, state: &mut u64, msgs: &[u64]) {
        let best = msgs.iter().copied().min().unwrap_or(UNSET);
        let improved = best < *state;
        if improved {
            *state = best;
        }
        if ctx.superstep() == 1 || improved {
            let label = *state;
            for e in ctx.out_edges().iter().chain(ctx.in_edges()) {
                ctx.send(e.target, label);
            }
        }
    }

    fn combine(&self, a: &u64, b: &u64) -> Option<u64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }

    fn needs_in_edges(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_baselines::msb::{run_msb, MsbConfig};
    use graphite_baselines::{run_vcm, SnapshotTopology};
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use std::sync::Arc;

    #[test]
    fn icm_wcc_matches_per_snapshot_wcc() {
        let graph = Arc::new(transit_graph());
        let icm = run_icm(
            &graph,
            Arc::new(IcmWcc),
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
            Arc::new(VcmWcc),
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
            for (v, label) in snapshot {
                let vid = graph.vertex(graphite_tgraph::graph::VIdx(*v)).vid;
                assert_eq!(icm.state_at(vid, *t), Some(label), "{vid:?} at {t}");
            }
        }
    }

    #[test]
    fn components_follow_edge_lifespans() {
        let graph = Arc::new(transit_graph());
        let icm = run_icm(&graph, Arc::new(IcmWcc), &IcmConfig::default(), None).expect("ICM run");
        // At t=4 the live edges are A->B and E->F: components {A,B},
        // {C}, {D}, {E,F}.
        assert_eq!(icm.state_at(transit_ids::A, 4), Some(&0));
        assert_eq!(icm.state_at(transit_ids::B, 4), Some(&0));
        assert_eq!(icm.state_at(transit_ids::C, 4), Some(&2));
        assert_eq!(icm.state_at(transit_ids::D, 4), Some(&3));
        assert_eq!(icm.state_at(transit_ids::E, 4), Some(&4));
        assert_eq!(icm.state_at(transit_ids::F, 4), Some(&4));
        // At t=0 no edges exist: everyone is its own component.
        for vid in [transit_ids::A, transit_ids::B, transit_ids::F] {
            assert_eq!(icm.state_at(vid, 0), Some(&vid.0));
        }
    }

    #[test]
    fn single_snapshot_vcm_agrees() {
        let graph = Arc::new(transit_graph());
        let topo = Arc::new(SnapshotTopology::new(
            Arc::clone(&graph),
            2,
            Default::default(),
        ));
        let r = run_vcm(
            &topo,
            Arc::new(VcmWcc),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Live at t=2: A->C, A->D, E->F. Components {A,C,D}, {B}, {E,F}.
        let idx = |vid: VertexId| graph.vertex_index(vid).unwrap().0;
        assert_eq!(r.states[&idx(transit_ids::A)], 0);
        assert_eq!(r.states[&idx(transit_ids::C)], 0);
        assert_eq!(r.states[&idx(transit_ids::D)], 0);
        assert_eq!(r.states[&idx(transit_ids::B)], 1);
        assert_eq!(r.states[&idx(transit_ids::E)], 4);
        assert_eq!(r.states[&idx(transit_ids::F)], 4);
    }
}
