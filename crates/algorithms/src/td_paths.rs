//! The time-dependent path family under ICM (Sec. V): temporal SSSP
//! (Alg. 1), Earliest Arrival Time, Fastest path, Latest Departure,
//! Time-Minimum Spanning Tree, and Reachability. As the paper notes, all
//! of these are minimal variations of the SSSP design.
//!
//! Conventions shared by the family: `travel-time`/`travel-cost` edge
//! properties (travel time defaults to 1, cost to 0); a journey may wait
//! at a vertex; an edge may be *initiated* at any time-point of its
//! lifespan and arrives `travel-time` later.

use crate::common::{AlgLabels, INF};
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::{Interval, Time, TIME_MIN};

fn travel(
    ctx: &ScatterContext<'_, impl Send + Sync + Clone + 'static>,
    labels: &AlgLabels,
) -> (i64, i64) {
    // Properties are constant across the refined edge segment.
    let tt = labels
        .travel_time
        .and_then(|l| ctx.edge_prop_long(l))
        .unwrap_or(1);
    let tc = labels
        .travel_cost
        .and_then(|l| ctx.edge_prop_long(l))
        .unwrap_or(0);
    (tt, tc)
}

/// Temporal single-source shortest path (the paper's Alg. 1): lowest
/// travel cost from the source for every interval of arrival.
pub struct IcmSssp {
    /// Source vertex.
    pub source: VertexId,
    /// Edge property labels.
    pub labels: AlgLabels,
}

impl IntervalProgram for IcmSssp {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: &VertexContext) -> i64 {
        INF
    }

    fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, state: &i64, msgs: &[i64]) {
        if ctx.superstep() == 1 {
            if ctx.vid() == self.source {
                ctx.set_state(t, 0);
            }
            return;
        }
        let min = msgs.iter().copied().min().unwrap_or(INF);
        if min < *state {
            ctx.set_state(t, min);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<i64>, t: Interval, state: &i64) {
        let (tt, tc) = travel(ctx, &self.labels);
        ctx.send(Interval::from_start(t.start() + tt), state + tc);
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Earliest Arrival Time: the message carries the arrival time instead of
/// the accumulated cost (Sec. V).
pub struct IcmEat {
    /// Source vertex.
    pub source: VertexId,
    /// Journey start time at the source.
    pub start: Time,
    /// Edge property labels.
    pub labels: AlgLabels,
}

impl IntervalProgram for IcmEat {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: &VertexContext) -> i64 {
        INF
    }

    fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, state: &i64, msgs: &[i64]) {
        if ctx.superstep() == 1 {
            if ctx.vid() == self.source {
                // Present at the source from `start` on.
                ctx.set_state(
                    Interval::from_start(self.start).intersect(t).unwrap_or(t),
                    self.start,
                );
            }
            return;
        }
        let min = msgs.iter().copied().min().unwrap_or(INF);
        if min < *state {
            ctx.set_state(t, min);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<i64>, t: Interval, _state: &i64) {
        let (tt, _) = travel(ctx, &self.labels);
        let arrival = t.start() + tt;
        ctx.send(Interval::from_start(arrival), arrival);
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

impl IcmEat {
    /// The earliest arrival at a vertex from an [`IcmResult`]: the minimum
    /// state value across its intervals.
    pub fn earliest(result: &IcmResult<i64>, vid: VertexId) -> Option<i64> {
        let entries = result.states.get(&vid)?;
        entries.iter().map(|(_, s)| *s).min().filter(|s| *s < INF)
    }
}

/// Time-Minimum Spanning Tree: EAT plus parent tracking to rebuild the
/// tree (Sec. V). State and message are `(arrival, parent vid)`.
pub struct IcmTmst {
    /// Root of the tree.
    pub source: VertexId,
    /// Journey start time at the root.
    pub start: Time,
    /// Edge property labels.
    pub labels: AlgLabels,
}

/// `(arrival time, parent vid)`; parent `u64::MAX` = none.
pub type TmstState = (i64, u64);

impl IntervalProgram for IcmTmst {
    type State = TmstState;
    type Msg = TmstState;

    fn init(&self, _v: &VertexContext) -> TmstState {
        (INF, u64::MAX)
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<TmstState, TmstState>,
        t: Interval,
        state: &TmstState,
        msgs: &[TmstState],
    ) {
        if ctx.superstep() == 1 {
            if ctx.vid() == self.source {
                ctx.set_state(
                    Interval::from_start(self.start).intersect(t).unwrap_or(t),
                    (self.start, ctx.vid().0),
                );
            }
            return;
        }
        // Lexicographic min: earliest arrival, ties by smaller parent id
        // for determinism across platforms and worker counts.
        let best = msgs.iter().copied().min().unwrap_or((INF, u64::MAX));
        if best < *state {
            ctx.set_state(t, best);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<TmstState>, t: Interval, _state: &TmstState) {
        let (tt, _) = travel(ctx, &self.labels);
        let arrival = t.start() + tt;
        let parent = ctx.graph().vertex(ctx.edge().src).vid.0;
        ctx.send(Interval::from_start(arrival), (arrival, parent));
    }

    fn combine(&self, a: &TmstState, b: &TmstState) -> Option<TmstState> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// Fastest path (minimum journey duration): the message carries the time
/// the journey started at the source; the state keeps the latest such
/// start per arrival interval; the fastest duration is the minimum of
/// `interval start − journey start` over the result (Sec. V).
pub struct IcmFast {
    /// Source vertex.
    pub source: VertexId,
    /// Edge property labels.
    pub labels: AlgLabels,
}

/// Marker state for the source vertex (it may start a journey at any
/// departure, so no single start time applies).
pub const FAST_SOURCE: i64 = i64::MAX - 1;

impl IntervalProgram for IcmFast {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: &VertexContext) -> i64 {
        TIME_MIN
    }

    fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, state: &i64, msgs: &[i64]) {
        if ctx.superstep() == 1 {
            if ctx.vid() == self.source {
                ctx.set_state(t, FAST_SOURCE);
            }
            return;
        }
        let best = msgs.iter().copied().max().unwrap_or(TIME_MIN);
        if best > *state && *state != FAST_SOURCE {
            ctx.set_state(t, best);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<i64>, t: Interval, state: &i64) {
        let (tt, _) = travel(ctx, &self.labels);
        if *state == FAST_SOURCE {
            // Departing the source: one journey per departure point of
            // this (bounded) segment, each starting its own clock.
            let seg = t;
            if seg.end() == graphite_tgraph::time::TIME_MAX {
                let d = seg.start();
                ctx.send(Interval::from_start(d + tt), d);
                return;
            }
            for d in seg.points() {
                ctx.send(Interval::from_start(d + tt), d);
            }
        } else {
            // Relaying: earliest departure in the scatter interval
            // preserves the journey start.
            ctx.send(Interval::from_start(t.start() + tt), *state);
        }
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.max(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

impl IcmFast {
    /// The fastest duration to `vid` from an [`IcmResult`], or `None`
    /// when unreachable.
    pub fn fastest(result: &IcmResult<i64>, vid: VertexId) -> Option<i64> {
        let entries = result.states.get(&vid)?;
        entries
            .iter()
            .filter(|(_, s)| *s != TIME_MIN && *s != FAST_SOURCE)
            .map(|(iv, s)| iv.start() - *s)
            .min()
    }
}

/// Latest Departure: the latest time one can leave a vertex and still
/// reach the target by its deadline. Reverse-traverses in space and time
/// (Sec. V): scatter runs over in-edges and message intervals take the
/// form `[-∞, d+1)`.
pub struct IcmLd {
    /// Target vertex.
    pub target: VertexId,
    /// Deadline: the target must be reached at or before this time.
    pub deadline: Time,
    /// Edge property labels.
    pub labels: AlgLabels,
}

impl IntervalProgram for IcmLd {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: &VertexContext) -> i64 {
        TIME_MIN
    }

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::In
    }

    fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, state: &i64, msgs: &[i64]) {
        if ctx.superstep() == 1 {
            if ctx.vid() == self.target {
                // Being at the target at any time up to the deadline
                // counts as success.
                if let Some(reach) = Interval::until(self.deadline + 1).intersect(t) {
                    ctx.set_state(reach, self.deadline);
                }
            }
            return;
        }
        let best = msgs.iter().copied().max().unwrap_or(TIME_MIN);
        if best > *state {
            ctx.set_state(t, best);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<i64>, _t: Interval, state: &i64) {
        let (tt, _) = travel(ctx, &self.labels);
        // Arrival must land in the state-change interval (where this
        // vertex is known good) and at or before the state's bound;
        // departure must lie in the edge segment.
        let change = ctx.change_interval();
        let seg = ctx.edge_interval();
        let latest_arrival = (change.end() - 1).min(*state);
        let d_max = (latest_arrival.saturating_sub(tt)).min(seg.end() - 1);
        if d_max < seg.start() {
            return;
        }
        // Earliest useful arrival bounds the departure from below too.
        let d_min = change.start().saturating_sub(tt).max(seg.start());
        if d_min > d_max {
            return;
        }
        ctx.send(Interval::until(d_max + 1), d_max);
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.max(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

impl IcmLd {
    /// The latest departure time from `vid`, or `None` when the target
    /// cannot be reached from it by the deadline.
    pub fn latest(result: &IcmResult<i64>, vid: VertexId) -> Option<i64> {
        let entries = result.states.get(&vid)?;
        entries
            .iter()
            .map(|(_, s)| *s)
            .max()
            .filter(|s| *s != TIME_MIN)
    }
}

/// Temporal reachability from a source: the travel cost of SSSP replaced
/// by a flag (Sec. V).
pub struct IcmReach {
    /// Source vertex.
    pub source: VertexId,
    /// Journey start time.
    pub start: Time,
    /// Edge property labels.
    pub labels: AlgLabels,
}

impl IntervalProgram for IcmReach {
    type State = bool;
    type Msg = bool;

    fn init(&self, _v: &VertexContext) -> bool {
        false
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<bool, bool>,
        t: Interval,
        state: &bool,
        msgs: &[bool],
    ) {
        if ctx.superstep() == 1 {
            if ctx.vid() == self.source {
                ctx.set_state(
                    Interval::from_start(self.start).intersect(t).unwrap_or(t),
                    true,
                );
            }
            return;
        }
        if !msgs.is_empty() && !*state {
            ctx.set_state(t, true);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<bool>, t: Interval, _state: &bool) {
        let (tt, _) = travel(ctx, &self.labels);
        ctx.send(Interval::from_start(t.start() + tt), true);
    }

    fn combine(&self, a: &bool, b: &bool) -> Option<bool> {
        Some(*a || *b)
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use std::sync::Arc;

    fn labels(g: &graphite_tgraph::graph::TemporalGraph) -> AlgLabels {
        AlgLabels::resolve(g)
    }

    #[test]
    fn sssp_paper_trace() {
        let g = Arc::new(transit_graph());
        let r = run_icm(
            &g,
            Arc::new(IcmSssp {
                source: transit_ids::A,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        assert_eq!(r.state_at(transit_ids::E, 7), Some(&7));
        assert_eq!(r.state_at(transit_ids::E, 9), Some(&5));
        assert_eq!(r.state_at(transit_ids::B, 5), Some(&4));
        assert_eq!(r.state_at(transit_ids::F, 5), Some(&INF));
    }

    #[test]
    fn eat_earliest_arrivals() {
        let g = Arc::new(transit_graph());
        let r = run_icm(
            &g,
            Arc::new(IcmEat {
                source: transit_ids::A,
                start: 0,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        // A departs: to C at 1 -> arrive 2; to D at 1 -> 2; to B at 3 -> 4.
        assert_eq!(IcmEat::earliest(&r, transit_ids::C), Some(2));
        assert_eq!(IcmEat::earliest(&r, transit_ids::D), Some(2));
        assert_eq!(IcmEat::earliest(&r, transit_ids::B), Some(4));
        // E: earliest via C@5 -> 6 (B@8 -> 9 is later).
        assert_eq!(IcmEat::earliest(&r, transit_ids::E), Some(6));
        assert_eq!(IcmEat::earliest(&r, transit_ids::F), None);
        // Starting later than every A departure: nothing reachable.
        let late = run_icm(
            &g,
            Arc::new(IcmEat {
                source: transit_ids::A,
                start: 6,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        assert_eq!(IcmEat::earliest(&late, transit_ids::B), None);
    }

    #[test]
    fn tmst_parents_rebuild_tree() {
        let g = Arc::new(transit_graph());
        let r = run_icm(
            &g,
            Arc::new(IcmTmst {
                source: transit_ids::A,
                start: 0,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        let parent = |vid: VertexId| {
            r.states[&vid]
                .iter()
                .map(|(_, s)| *s)
                .filter(|s| s.0 < INF)
                .min()
                .map(|s| s.1)
        };
        assert_eq!(parent(transit_ids::B), Some(transit_ids::A.0));
        assert_eq!(parent(transit_ids::C), Some(transit_ids::A.0));
        assert_eq!(parent(transit_ids::D), Some(transit_ids::A.0));
        // E's earliest arrival is via C.
        assert_eq!(parent(transit_ids::E), Some(transit_ids::C.0));
        assert_eq!(parent(transit_ids::F), None);
    }

    #[test]
    fn fast_durations() {
        let g = Arc::new(transit_graph());
        let r = run_icm(
            &g,
            Arc::new(IcmFast {
                source: transit_ids::A,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        // One hop is always duration 1 (depart d, arrive d+1).
        assert_eq!(IcmFast::fastest(&r, transit_ids::B), Some(1));
        assert_eq!(IcmFast::fastest(&r, transit_ids::C), Some(1));
        assert_eq!(IcmFast::fastest(&r, transit_ids::D), Some(1));
        // E: via C — depart A at 2, arrive C at 3, depart C at 5, arrive
        // E at 6: duration 4. Via B — depart A at 5, arrive B at 6,
        // depart B at 8, arrive E at 9: duration 4 as well.
        assert_eq!(IcmFast::fastest(&r, transit_ids::E), Some(4));
        assert_eq!(IcmFast::fastest(&r, transit_ids::F), None);
    }

    #[test]
    fn ld_latest_departures() {
        let g = Arc::new(transit_graph());
        let r = run_icm(
            &g,
            Arc::new(IcmLd {
                target: transit_ids::E,
                deadline: 9,
                labels: labels(&g),
            }),
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
        // Depart B at 8 (arrive E at 9 <= 9): LD(B) = 8.
        assert_eq!(IcmLd::latest(&r, transit_ids::B), Some(8));
        // Depart C at 6 (arrive E at 7): LD(C) = 6.
        assert_eq!(IcmLd::latest(&r, transit_ids::C), Some(6));
        // A: depart at 5 via B (B reached at 6 <= 8): LD(A) = 5.
        assert_eq!(IcmLd::latest(&r, transit_ids::A), Some(5));
        // D and F cannot reach E at all.
        assert_eq!(IcmLd::latest(&r, transit_ids::D), None);
        assert_eq!(IcmLd::latest(&r, transit_ids::F), None);
        // Tighter deadline 8: B's edge arrives at 9 — too late; only C
        // works (arrive 7), so A must go via C by 2.
        let tight = run_icm(
            &g,
            Arc::new(IcmLd {
                target: transit_ids::E,
                deadline: 8,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        assert_eq!(IcmLd::latest(&tight, transit_ids::B), None);
        assert_eq!(IcmLd::latest(&tight, transit_ids::C), Some(6));
        assert_eq!(IcmLd::latest(&tight, transit_ids::A), Some(2));
    }

    #[test]
    fn reach_flags() {
        let g = Arc::new(transit_graph());
        let r = run_icm(
            &g,
            Arc::new(IcmReach {
                source: transit_ids::A,
                start: 0,
                labels: labels(&g),
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        for vid in [
            transit_ids::B,
            transit_ids::C,
            transit_ids::D,
            transit_ids::E,
        ] {
            assert!(r.states[&vid].iter().any(|(_, s)| *s), "{vid:?} reachable");
        }
        assert!(r.states[&transit_ids::F].iter().all(|(_, s)| !*s));
        assert!(r.states[&transit_ids::A].iter().any(|(_, s)| *s));
    }
}
