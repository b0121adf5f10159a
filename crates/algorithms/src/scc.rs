//! Strongly Connected Components (TI, Sec. V): per-time-point SCC
//! labelling via the iterative forward–backward "coloring" algorithm of
//! Yan et al., coordinated through aggregators (the Master-Compute
//! pattern GRAPHITE leverages, Sec. VI).
//!
//! Each round: unassigned vertices broadcast their id forward and keep the
//! minimum (`fwd` colouring); colour anchors (vertices whose `fwd` equals
//! their own id) broadcast a marker backward through vertices of the same
//! colour; vertices whose marker matches their colour are assigned
//! `comp = fwd`. Rounds repeat on the unassigned remainder. All phase
//! transitions are derived deterministically from the previous superstep's
//! aggregators, so every worker (and the master hook) agrees on the phase
//! without extra channels.

use graphite_baselines::vcm::{VcmContext, VcmProgram};
use graphite_bsp::aggregate::Aggregators;
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::Interval;

/// "No value" sentinel for labels and assignments.
pub const NONE: u64 = u64::MAX;

/// The phases of one colouring round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Unassigned vertices claim their own id as colour (all-active).
    FwdInit,
    /// Minimum-colour propagation along out-edges, to convergence.
    FwdProp,
    /// Colour anchors emit their marker backward (all-active).
    BwdInit,
    /// Marker propagation along in-edges within equal colours.
    BwdProp,
    /// Vertices with `marker == colour` are assigned (all-active).
    Assign,
    /// Every vertex-interval is assigned; the run winds down.
    Done,
}

const AG_PHASE: &str = "scc-phase";
const AG_UNASSIGNED: &str = "scc-unassigned";

fn phase_code(p: Phase) -> i64 {
    match p {
        Phase::FwdInit => 0,
        Phase::FwdProp => 1,
        Phase::BwdInit => 2,
        Phase::BwdProp => 3,
        Phase::Assign => 4,
        Phase::Done => 5,
    }
}

fn phase_from_code(c: i64) -> Phase {
    match c {
        0 => Phase::FwdInit,
        1 => Phase::FwdProp,
        2 => Phase::BwdInit,
        3 => Phase::BwdProp,
        4 => Phase::Assign,
        _ => Phase::Done,
    }
}

/// The phase a superstep executes in, derived from the previous
/// superstep's merged aggregators. Superstep 1 is always `FwdInit`.
pub fn exec_phase(step: u64, globals: &Aggregators) -> Phase {
    if step == 1 {
        return Phase::FwdInit;
    }
    let prev = match globals.get_max_i64(AG_PHASE) {
        Some(code) => phase_from_code(code),
        None => return Phase::FwdInit,
    };
    // Propagation phases continue exactly while messages are in flight
    // (the engine injects the count after every barrier).
    let in_flight = globals
        .get_sum_u64(graphite_bsp::engine::MESSAGES_SENT_AGG)
        .unwrap_or(0)
        > 0;
    let unassigned = globals.get_sum_u64(AG_UNASSIGNED).unwrap_or(0);
    match prev {
        Phase::FwdInit | Phase::FwdProp => {
            if in_flight {
                Phase::FwdProp
            } else {
                Phase::BwdInit
            }
        }
        Phase::BwdInit | Phase::BwdProp => {
            if in_flight {
                Phase::BwdProp
            } else {
                Phase::Assign
            }
        }
        Phase::Assign => {
            if unassigned > 0 {
                Phase::FwdInit
            } else {
                Phase::Done
            }
        }
        Phase::Done => Phase::Done,
    }
}

/// Per-interval SCC state: `(component, colour, marker)`; `NONE` = unset.
pub type SccState = (u64, u64, u64);

/// SCC message: `(kind, label)` with kind 0 = forward colour, 1 =
/// backward marker.
pub type SccMsg = (u32, u64);

/// SCC under ICM.
pub struct IcmScc;

impl IcmScc {
    fn bookkeep(ctx: &mut ComputeContext<SccState, SccMsg>, phase: Phase, unassigned_after: u64) {
        let agg = ctx.aggregate();
        agg.max_i64(AG_PHASE, phase_code(phase));
        if phase == Phase::Assign {
            agg.sum_u64(AG_UNASSIGNED, unassigned_after);
        }
    }
}

impl IntervalProgram for IcmScc {
    /// TI algorithms never read edge properties (Sec. VII-A1), so scatter
    /// granularity is the edge lifespan.
    fn refine_scatter_by_properties(&self) -> bool {
        false
    }

    type State = SccState;
    type Msg = SccMsg;

    fn init(&self, _v: &VertexContext) -> SccState {
        (NONE, NONE, NONE)
    }

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }

    fn all_active(&self, step: u64, globals: &Aggregators) -> bool {
        matches!(
            exec_phase(step, globals),
            Phase::FwdInit | Phase::BwdInit | Phase::Assign
        )
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<SccState, SccMsg>,
        t: Interval,
        state: &SccState,
        msgs: &[SccMsg],
    ) {
        let phase = exec_phase(ctx.superstep(), ctx.globals());
        let (comp, fwd, bwd) = *state;
        let assigned = comp != NONE;
        match phase {
            Phase::FwdInit => {
                if !assigned {
                    let me = ctx.vid().0;
                    // After round one an unassigned vertex always has
                    // fwd < its own id (anchors got assigned), so this is
                    // always a real change and scatter re-broadcasts.
                    if (comp, fwd, bwd) != (NONE, me, NONE) {
                        ctx.set_state(t, (NONE, me, NONE));
                    }
                }
                Self::bookkeep(ctx, phase, 0);
            }
            Phase::FwdProp => {
                if !assigned {
                    let best = msgs
                        .iter()
                        .filter(|(k, _)| *k == 0)
                        .map(|(_, l)| *l)
                        .min()
                        .unwrap_or(NONE);
                    if best < fwd {
                        ctx.set_state(t, (comp, best, bwd));
                    }
                }
                Self::bookkeep(ctx, phase, 0);
            }
            Phase::BwdInit => {
                if !assigned && fwd == ctx.vid().0 {
                    ctx.set_state(t, (comp, fwd, fwd));
                }
                Self::bookkeep(ctx, phase, 0);
            }
            Phase::BwdProp => {
                if !assigned && bwd != fwd {
                    let hit = msgs.iter().any(|(k, l)| *k == 1 && *l == fwd);
                    if hit {
                        ctx.set_state(t, (comp, fwd, fwd));
                    }
                }
                Self::bookkeep(ctx, phase, 0);
            }
            Phase::Assign => {
                let mut unassigned_after = 0;
                if !assigned {
                    if fwd != NONE && bwd == fwd {
                        ctx.set_state(t, (fwd, fwd, fwd));
                    } else {
                        unassigned_after = 1;
                    }
                }
                Self::bookkeep(ctx, phase, unassigned_after);
            }
            Phase::Done => {
                Self::bookkeep(ctx, phase, 0);
            }
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<SccMsg>, _t: Interval, state: &SccState) {
        let phase = exec_phase(ctx.superstep(), ctx.globals());
        let (comp, fwd, bwd) = *state;
        if comp != NONE {
            return;
        }
        match (phase, ctx.direction()) {
            (Phase::FwdInit | Phase::FwdProp, EdgeDirection::Out) if fwd != NONE => {
                ctx.send_inherit((0, fwd));
            }
            (Phase::BwdInit | Phase::BwdProp, EdgeDirection::In) if bwd != NONE => {
                ctx.send_inherit((1, bwd));
            }
            _ => {}
        }
    }
}

/// SCC under plain VCM (one snapshot), same phase machine.
pub struct VcmScc;

impl VcmProgram for VcmScc {
    type State = SccState;
    type Msg = SccMsg;

    fn init(&self, _v: u32, _vid: VertexId) -> SccState {
        (NONE, NONE, NONE)
    }

    fn all_active(&self, step: u64, globals: &Aggregators) -> bool {
        matches!(
            exec_phase(step, globals),
            Phase::FwdInit | Phase::BwdInit | Phase::Assign
        )
    }

    fn needs_in_edges(&self) -> bool {
        true
    }

    fn compute(&self, ctx: &mut VcmContext<SccMsg>, state: &mut SccState, msgs: &[SccMsg]) {
        let phase = exec_phase(ctx.superstep(), ctx.globals());
        let (comp, fwd, bwd) = *state;
        let assigned = comp != NONE;
        let mut unassigned_after = 0;
        match phase {
            Phase::FwdInit => {
                if !assigned {
                    *state = (NONE, ctx.vid().0, NONE);
                    let label = state.1;
                    for e in ctx.out_edges() {
                        ctx.send(e.target, (0, label));
                    }
                }
            }
            Phase::FwdProp => {
                if !assigned {
                    let best = msgs
                        .iter()
                        .filter(|(k, _)| *k == 0)
                        .map(|(_, l)| *l)
                        .min()
                        .unwrap_or(NONE);
                    if best < fwd {
                        *state = (comp, best, bwd);
                        for e in ctx.out_edges() {
                            ctx.send(e.target, (0, best));
                        }
                    }
                }
            }
            Phase::BwdInit => {
                if !assigned && fwd == ctx.vid().0 {
                    *state = (comp, fwd, fwd);
                    for e in ctx.in_edges() {
                        ctx.send(e.target, (1, fwd));
                    }
                }
            }
            Phase::BwdProp => {
                if !assigned && bwd != fwd {
                    let hit = msgs.iter().any(|(k, l)| *k == 1 && *l == fwd);
                    if hit {
                        *state = (comp, fwd, fwd);
                        for e in ctx.in_edges() {
                            ctx.send(e.target, (1, fwd));
                        }
                    }
                }
            }
            Phase::Assign => {
                if !assigned {
                    if fwd != NONE && bwd == fwd {
                        *state = (fwd, fwd, fwd);
                    } else {
                        unassigned_after = 1;
                    }
                }
            }
            Phase::Done => {}
        }
        let agg = ctx.aggregate();
        agg.max_i64(AG_PHASE, phase_code(phase));
        if phase == Phase::Assign {
            agg.sum_u64(AG_UNASSIGNED, unassigned_after);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_baselines::msb::{run_msb, MsbConfig};
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{EdgeId, TemporalGraph, VIdx};
    use std::sync::Arc;

    /// Two 2-cycles bridged one way, plus a loner; the bridge and one
    /// cycle edge expire halfway through the lifespan.
    fn scc_fixture() -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let life = Interval::new(0, 6);
        for i in 0..5 {
            b.add_vertex(VertexId(i), life).unwrap();
        }
        // Cycle {0,1} for the whole life.
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), life)
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(0), life)
            .unwrap();
        // Cycle {2,3} whose back edge dies at 3.
        b.add_edge(EdgeId(2), VertexId(2), VertexId(3), life)
            .unwrap();
        b.add_edge(EdgeId(3), VertexId(3), VertexId(2), Interval::new(0, 3))
            .unwrap();
        // One-way bridge 1 -> 2.
        b.add_edge(EdgeId(4), VertexId(1), VertexId(2), life)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn exec_phase_transitions() {
        use graphite_bsp::engine::MESSAGES_SENT_AGG;
        let g = Aggregators::new();
        assert_eq!(exec_phase(1, &g), Phase::FwdInit);
        let mut g = Aggregators::new();
        g.max_i64(AG_PHASE, phase_code(Phase::FwdInit));
        g.sum_u64(MESSAGES_SENT_AGG, 5);
        assert_eq!(exec_phase(2, &g), Phase::FwdProp);
        let mut g = Aggregators::new();
        g.max_i64(AG_PHASE, phase_code(Phase::FwdProp));
        g.sum_u64(MESSAGES_SENT_AGG, 1);
        assert_eq!(exec_phase(3, &g), Phase::FwdProp);
        let mut g = Aggregators::new();
        g.max_i64(AG_PHASE, phase_code(Phase::FwdProp));
        g.sum_u64(MESSAGES_SENT_AGG, 0);
        assert_eq!(exec_phase(3, &g), Phase::BwdInit);
        let mut g = Aggregators::new();
        g.max_i64(AG_PHASE, phase_code(Phase::Assign));
        g.sum_u64(AG_UNASSIGNED, 0);
        assert_eq!(exec_phase(9, &g), Phase::Done);
        let mut g = Aggregators::new();
        g.max_i64(AG_PHASE, phase_code(Phase::Assign));
        g.sum_u64(AG_UNASSIGNED, 3);
        assert_eq!(exec_phase(9, &g), Phase::FwdInit);
    }

    #[test]
    fn icm_scc_labels_follow_structure_changes() {
        let graph = Arc::new(scc_fixture());
        let icm = run_icm(
            &graph,
            Arc::new(IcmScc),
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
        let comp = |vid: u64, t: i64| icm.state_at(VertexId(vid), t).map(|s| s.0).unwrap();
        // While edge 3->2 lives ([0,3)): SCCs {0,1}, {2,3}, {4}.
        for t in 0..3 {
            assert_eq!(comp(0, t), 0, "t={t}");
            assert_eq!(comp(1, t), 0);
            assert_eq!(comp(2, t), 2);
            assert_eq!(comp(3, t), 2);
            assert_eq!(comp(4, t), 4);
        }
        // Afterwards {2} and {3} split.
        for t in 3..6 {
            assert_eq!(comp(0, t), 0, "t={t}");
            assert_eq!(comp(1, t), 0);
            assert_eq!(comp(2, t), 2);
            assert_eq!(comp(3, t), 3);
            assert_eq!(comp(4, t), 4);
        }
    }

    #[test]
    fn icm_scc_matches_per_snapshot_scc() {
        let graph = Arc::new(scc_fixture());
        let icm = run_icm(
            &graph,
            Arc::new(IcmScc),
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
            Arc::new(VcmScc),
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
            for (v, (comp, _, _)) in snapshot {
                let vid = graph.vertex(VIdx(*v)).vid;
                assert_eq!(
                    icm.state_at(vid, *t).map(|s| s.0),
                    Some(*comp),
                    "{vid:?} at {t}"
                );
            }
        }
    }

    #[test]
    fn chain_needs_multiple_rounds() {
        // A directed 3-chain has three singleton SCCs; the colouring
        // algorithm resolves them over multiple rounds.
        let mut b = TemporalGraphBuilder::new();
        let life = Interval::new(0, 2);
        for i in 0..3 {
            b.add_vertex(VertexId(i), life).unwrap();
        }
        b.add_edge(EdgeId(0), VertexId(0), VertexId(1), life)
            .unwrap();
        b.add_edge(EdgeId(1), VertexId(1), VertexId(2), life)
            .unwrap();
        let graph = Arc::new(b.build().unwrap());
        let icm = run_icm(&graph, Arc::new(IcmScc), &IcmConfig::default(), None).expect("ICM run");
        for i in 0..3 {
            assert_eq!(icm.state_at(VertexId(i), 1).map(|s| s.0), Some(i));
        }
    }
}
