//! The TD path family under the GoFFish-TS baseline: snapshot-sequential
//! execution with explicit state carry-over. Each program follows the
//! GoFFish idiom the paper describes (Sec. VII-A3): a vertex holding a
//! useful value must re-scatter along the currently-live edges at every
//! snapshot *and* hand its own state to the next snapshot — the per-time
//! redundancy that ICM's warp removes.

use crate::common::INF;
use graphite_baselines::goffish::{GofContext, GofProgram};
use graphite_bsp::codec::Wire;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::{Time, TIME_MIN};

/// Temporal SSSP under GoFFish.
pub struct GofSssp {
    /// Source vertex.
    pub source: VertexId,
}

impl GofProgram for GofSssp {
    type State = i64;
    type Msg = i64;

    fn init(&self, vid: VertexId) -> i64 {
        if vid == self.source {
            0
        } else {
            INF
        }
    }

    fn compute(&self, ctx: &mut GofContext<i64>, state: &mut i64, msgs: &[i64]) {
        let best = msgs.iter().copied().min().unwrap_or(INF);
        if best < *state {
            *state = best;
        }
        // Every snapshot re-scatters along the currently-live edges — the
        // per-snapshot redundancy ICM's warp removes. The engine activates
        // every live vertex at each snapshot's first inner superstep.
        if *state < INF {
            let dist = *state;
            let t = ctx.time();
            let edges: Vec<graphite_baselines::vcm::VcmEdge> = ctx.out_edges().to_vec();
            for e in edges {
                ctx.send_future(e.target, t + e.w2, dist + e.w1);
            }
        }
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Earliest Arrival Time under GoFFish.
pub struct GofEat {
    /// Source vertex.
    pub source: VertexId,
    /// Journey start time at the source.
    pub start: Time,
}

impl GofProgram for GofEat {
    type State = i64;
    type Msg = i64;

    fn init(&self, _vid: VertexId) -> i64 {
        INF
    }

    fn compute(&self, ctx: &mut GofContext<i64>, state: &mut i64, msgs: &[i64]) {
        if ctx.vid() == self.source && ctx.time() >= self.start && *state > self.start {
            *state = self.start;
        }
        let best = msgs.iter().copied().min().unwrap_or(INF);
        if best < *state {
            *state = best;
        }
        // Only forward once the journey can have reached us.
        if *state <= ctx.time() {
            let t = ctx.time();
            let edges: Vec<graphite_baselines::vcm::VcmEdge> = ctx.out_edges().to_vec();
            for e in edges {
                ctx.send_future(e.target, t + e.w2, t + e.w2);
            }
        }
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Fastest path under GoFFish: propagate the latest journey start; the
/// duration at a vertex as of time `t` is `arrival − start` tracked in
/// the state as `(best_duration, latest_start)`.
pub struct GofFast {
    /// Source vertex.
    pub source: VertexId,
}

/// `(best duration so far, latest journey start present here)`.
pub type FastState = (i64, i64);

impl GofProgram for GofFast {
    type State = FastState;
    type Msg = i64;

    fn init(&self, _vid: VertexId) -> FastState {
        (INF, TIME_MIN)
    }

    fn compute(&self, ctx: &mut GofContext<i64>, state: &mut FastState, msgs: &[i64]) {
        let t = ctx.time();
        let is_source = ctx.vid() == self.source;
        // Arrivals this snapshot: journey start s arriving now has
        // duration t - s.
        if let Some(&s) = msgs.iter().max() {
            if s > state.1 {
                state.1 = s;
            }
            let dur = t - s;
            if dur < state.0 {
                state.0 = dur;
            }
        }
        // Relay: the source starts a fresh journey at every snapshot; any
        // vertex with a known start relays it.
        let edges: Vec<graphite_baselines::vcm::VcmEdge> = ctx.out_edges().to_vec();
        for e in edges {
            if is_source {
                ctx.send_future(e.target, t + e.w2, t);
            }
            if state.1 != TIME_MIN {
                ctx.send_future(e.target, t + e.w2, state.1);
            }
        }
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.max(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Latest Departure under GoFFish: a [`GofProgram::reverse`] walk
/// (snapshots walked backward, in-edges traversed). The state is the
/// latest departure time; "future" messages go to earlier snapshots.
pub struct GofLd {
    /// Target vertex.
    pub target: VertexId,
    /// Deadline at the target.
    pub deadline: Time,
}

impl GofProgram for GofLd {
    type State = i64;
    type Msg = i64;

    fn init(&self, vid: VertexId) -> i64 {
        if vid == self.target {
            i64::MAX // marker: presence at the target suffices
        } else {
            TIME_MIN
        }
    }

    fn compute(&self, ctx: &mut GofContext<i64>, state: &mut i64, msgs: &[i64]) {
        let t = ctx.time();
        let best = msgs.iter().copied().max().unwrap_or(TIME_MIN);
        if *state != i64::MAX && best > *state {
            *state = best;
        }
        // Am I a good place to be at time t (can still reach the target)?
        let good_at = if *state == i64::MAX {
            t <= self.deadline
        } else {
            t <= *state
        };
        if good_at {
            // Notify each in-neighbour whose edge is alive at the
            // *departure* time d = t − travel-time: departing then
            // arrives here now, while "here" is still good. The temporal
            // subgraph is consulted directly because the edge need not be
            // alive at the arrival snapshot.
            let g = ctx.graph();
            let me_idx = graphite_tgraph::graph::VIdx(ctx.vertex());
            let tt_label = g.label("travel-time");
            let sends: Vec<(u32, Time)> = g
                .in_edges(me_idx)
                .iter()
                .filter_map(|&e| {
                    let ed = g.edge(e);
                    let tt = tt_label
                        .and_then(|l| g.edge_property_at(e, l, ed.lifespan.start()))
                        .and_then(graphite_tgraph::property::PropValue::as_long)
                        .unwrap_or(1);
                    let d = t - tt;
                    ed.lifespan.contains_point(d).then_some((ed.src.0, d))
                })
                .collect();
            for (u, d) in sends {
                ctx.send_future(u, d, d);
            }
        }
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.max(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }

    fn reverse(&self) -> bool {
        true
    }
}

/// TMST under GoFFish: EAT with parent tracking.
pub struct GofTmst {
    /// Root vertex.
    pub source: VertexId,
    /// Journey start at the root.
    pub start: Time,
}

/// `(arrival, parent vid)`.
pub type TmstState = (i64, u64);

impl GofProgram for GofTmst {
    type State = TmstState;
    type Msg = TmstState;

    fn init(&self, _vid: VertexId) -> TmstState {
        (INF, u64::MAX)
    }

    fn compute(&self, ctx: &mut GofContext<TmstState>, state: &mut TmstState, msgs: &[TmstState]) {
        if ctx.vid() == self.source && ctx.time() >= self.start && state.0 > self.start {
            *state = (self.start, ctx.vid().0);
        }
        let best = msgs.iter().copied().min().unwrap_or((INF, u64::MAX));
        if best < *state {
            *state = best;
        }
        if state.0 <= ctx.time() {
            let t = ctx.time();
            let my_vid = ctx.vid().0;
            let edges: Vec<graphite_baselines::vcm::VcmEdge> = ctx.out_edges().to_vec();
            for e in edges {
                ctx.send_future(e.target, t + e.w2, (t + e.w2, my_vid));
            }
        }
    }

    fn combine(&self, a: &TmstState, b: &TmstState) -> Option<TmstState> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Reachability under GoFFish.
pub struct GofReach {
    /// Source vertex.
    pub source: VertexId,
    /// Journey start time.
    pub start: Time,
}

impl GofProgram for GofReach {
    type State = bool;
    type Msg = bool;

    fn init(&self, _vid: VertexId) -> bool {
        false
    }

    fn compute(&self, ctx: &mut GofContext<bool>, state: &mut bool, msgs: &[bool]) {
        if ctx.vid() == self.source && ctx.time() >= self.start {
            *state = true;
        }
        if !msgs.is_empty() {
            *state = true;
        }
        if *state {
            let t = ctx.time();
            let edges: Vec<graphite_baselines::vcm::VcmEdge> = ctx.out_edges().to_vec();
            for e in edges {
                ctx.send_future(e.target, t + e.w2, true);
            }
        }
    }

    fn combine(&self, a: &bool, b: &bool) -> Option<bool> {
        Some(*a || *b)
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Checks that a message type is wire-compatible (compile-time helper for
/// the registry).
pub fn _assert_wire<M: Wire>() {}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_baselines::goffish::{run_goffish, GofConfig};
    use graphite_baselines::{EdgeWeights, SnapshotResult};
    use graphite_icm::RunConfig;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// The states after the walk's last snapshot.
    fn final_states<S>(r: &SnapshotResult<S>) -> &HashMap<u32, S> {
        &r.per_snapshot.last().expect("a collected walk").1
    }

    fn weights(g: &graphite_tgraph::graph::TemporalGraph) -> EdgeWeights {
        EdgeWeights {
            w1: g.label("travel-cost"),
            w2: g.label("travel-time"),
        }
    }

    #[test]
    fn gof_eat_matches_icm_eat() {
        let g = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&g),
            Arc::new(GofEat {
                source: transit_ids::A,
                start: 0,
            }),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: weights(&g),
            },
        )
        .unwrap();
        let idx = |vid| g.vertex_index(vid).unwrap().0;
        let states = final_states(&r);
        // Earliest arrivals (within the window [0,9)): C=2, D=2, B=4, E=6.
        assert_eq!(states[&idx(transit_ids::C)], 2);
        assert_eq!(states[&idx(transit_ids::D)], 2);
        assert_eq!(states[&idx(transit_ids::B)], 4);
        assert_eq!(states[&idx(transit_ids::E)], 6);
        assert_eq!(states[&idx(transit_ids::F)], INF);
    }

    #[test]
    fn gof_fast_durations() {
        let g = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&g),
            Arc::new(GofFast {
                source: transit_ids::A,
            }),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: weights(&g),
            },
        )
        .unwrap();
        let idx = |vid| g.vertex_index(vid).unwrap().0;
        let states = final_states(&r);
        assert_eq!(states[&idx(transit_ids::B)].0, 1);
        assert_eq!(states[&idx(transit_ids::C)].0, 1);
        assert_eq!(states[&idx(transit_ids::D)].0, 1);
        // E's fastest journey of duration 4 via C completes at t=6; the
        // cost-5 B-route completes at 9, outside the window.
        assert_eq!(states[&idx(transit_ids::E)].0, 4);
        assert_eq!(states[&idx(transit_ids::F)].0, INF);
    }

    #[test]
    fn gof_ld_reverse_matches_icm_ld() {
        let g = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&g),
            Arc::new(GofLd {
                target: transit_ids::E,
                deadline: 8,
            }),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: weights(&g),
            },
        )
        .unwrap();
        let idx = |vid| g.vertex_index(vid).unwrap().0;
        let states = final_states(&r);
        // Deadline 8 (within the window): only the C route works.
        assert_eq!(states[&idx(transit_ids::C)], 6);
        assert_eq!(states[&idx(transit_ids::A)], 2);
        assert_eq!(states[&idx(transit_ids::B)], TIME_MIN);
        assert_eq!(states[&idx(transit_ids::D)], TIME_MIN);
    }

    #[test]
    fn gof_tmst_parents() {
        let g = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&g),
            Arc::new(GofTmst {
                source: transit_ids::A,
                start: 0,
            }),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: weights(&g),
            },
        )
        .unwrap();
        let idx = |vid| g.vertex_index(vid).unwrap().0;
        let states = final_states(&r);
        assert_eq!(states[&idx(transit_ids::B)].1, transit_ids::A.0);
        assert_eq!(states[&idx(transit_ids::E)].1, transit_ids::C.0);
        assert_eq!(states[&idx(transit_ids::F)].1, u64::MAX);
    }

    #[test]
    fn gof_reach_flags() {
        let g = Arc::new(transit_graph());
        let r = run_goffish(
            Arc::clone(&g),
            Arc::new(GofReach {
                source: transit_ids::A,
                start: 0,
            }),
            &GofConfig {
                run: RunConfig {
                    workers: 2,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
                weights: weights(&g),
            },
        )
        .unwrap();
        let idx = |vid| g.vertex_index(vid).unwrap().0;
        let states = final_states(&r);
        for vid in [
            transit_ids::B,
            transit_ids::C,
            transit_ids::D,
            transit_ids::E,
        ] {
            assert!(states[&idx(vid)], "{vid:?}");
        }
        assert!(!states[&idx(transit_ids::F)]);
    }
}
