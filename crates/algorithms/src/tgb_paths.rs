//! The TD path family under the Transformed Graph Baseline: plain
//! vertex-centric programs over the time-expanded replica graph
//! (Sec. VII-A3). Waiting edges carry shared state between replicas of a
//! vertex — the replica-transfer traffic the paper charges to TGB.

use crate::common::INF;
use graphite_baselines::vcm::{VcmContext, VcmProgram};
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::{Time, TIME_MIN};
use graphite_tgraph::transform::TransformedGraph;
use std::collections::HashMap;
use std::sync::Arc;

/// Shortest travel cost over the transformed graph (waiting = cost 0).
pub struct TgbSssp {
    /// Source vertex (all its replicas are seeded at cost 0).
    pub source: VertexId,
}

impl VcmProgram for TgbSssp {
    type State = i64;
    type Msg = i64;

    fn init(&self, _v: u32, vid: VertexId) -> i64 {
        if vid == self.source {
            0
        } else {
            INF
        }
    }

    fn compute(&self, ctx: &mut VcmContext<i64>, state: &mut i64, msgs: &[i64]) {
        let best = msgs.iter().copied().min().unwrap_or(INF);
        let improved = best < *state;
        if improved {
            *state = best;
        }
        if (ctx.superstep() == 1 && *state < INF) || improved {
            let dist = *state;
            let edges = ctx.out_edges();
            for &e in edges {
                ctx.send(e.target, dist + e.w1);
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

/// Reached-flag propagation; used by both EAT and RH extraction.
pub struct TgbReach {
    /// Source vertex.
    pub source: VertexId,
    /// Journey start time: only source replicas at or after it are seeded.
    pub start: Time,
    /// The replica table (for replica times at init).
    pub transformed: Arc<TransformedGraph>,
}

impl VcmProgram for TgbReach {
    type State = bool;
    type Msg = bool;

    fn init(&self, v: u32, vid: VertexId) -> bool {
        vid == self.source && self.transformed.replicas[v as usize].1 >= self.start
    }

    fn compute(&self, ctx: &mut VcmContext<bool>, state: &mut bool, msgs: &[bool]) {
        let newly = !*state && !msgs.is_empty();
        if newly {
            *state = true;
        }
        if (ctx.superstep() == 1 && *state) || newly {
            let edges = ctx.out_edges();
            for &e in edges {
                ctx.send(e.target, true);
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

/// Earliest arrival from a [`TgbReach`] run: the minimum reached replica
/// time per logical vertex.
pub fn tgb_earliest_arrivals(
    transformed: &TransformedGraph,
    graph: &graphite_tgraph::graph::TemporalGraph,
    states: &HashMap<u32, bool>,
) -> HashMap<VertexId, i64> {
    let mut out = HashMap::new();
    for (r, &(orig, t)) in transformed.replicas.iter().enumerate() {
        if states.get(&(r as u32)).copied().unwrap_or(false) {
            let vid = graph.vertex(orig).vid;
            out.entry(vid)
                .and_modify(|cur: &mut i64| *cur = (*cur).min(t))
                .or_insert(t);
        }
    }
    out
}

/// Fastest path: every source replica starts a journey at its own time;
/// replicas propagate the maximum journey start; duration is read off as
/// `replica time − start`.
pub struct TgbFast {
    /// Source vertex.
    pub source: VertexId,
    /// The replica table.
    pub transformed: Arc<TransformedGraph>,
}

impl VcmProgram for TgbFast {
    type State = i64;
    type Msg = i64;

    fn init(&self, v: u32, vid: VertexId) -> i64 {
        if vid == self.source {
            self.transformed.replicas[v as usize].1
        } else {
            TIME_MIN
        }
    }

    fn compute(&self, ctx: &mut VcmContext<i64>, state: &mut i64, msgs: &[i64]) {
        let best = msgs.iter().copied().max().unwrap_or(TIME_MIN);
        let improved = best > *state;
        if improved {
            *state = best;
        }
        if (ctx.superstep() == 1 && *state > TIME_MIN) || improved {
            let s = *state;
            let edges = ctx.out_edges();
            for &e in edges {
                ctx.send(e.target, s);
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

/// Fastest durations from a [`TgbFast`] run: `min(replica time − start)`
/// per logical vertex, excluding the source itself (duration 0).
pub fn tgb_fastest_durations(
    transformed: &TransformedGraph,
    graph: &graphite_tgraph::graph::TemporalGraph,
    states: &HashMap<u32, i64>,
) -> HashMap<VertexId, i64> {
    let mut out = HashMap::new();
    for (r, &(orig, t)) in transformed.replicas.iter().enumerate() {
        let Some(&s) = states.get(&(r as u32)) else {
            continue;
        };
        if s == TIME_MIN {
            continue;
        }
        let vid = graph.vertex(orig).vid;
        let dur = t - s;
        out.entry(vid)
            .and_modify(|cur: &mut i64| *cur = (*cur).min(dur))
            .or_insert(dur);
    }
    out
}

/// TMST: earliest arrival plus the parent that delivered it.
pub struct TgbTmst {
    /// Root vertex.
    pub source: VertexId,
    /// Journey start at the root.
    pub start: Time,
    /// The replica table.
    pub transformed: Arc<TransformedGraph>,
}

/// `(arrival, parent vid)`.
type TmstState = (i64, u64);

impl VcmProgram for TgbTmst {
    type State = TmstState;
    type Msg = TmstState;

    fn init(&self, v: u32, vid: VertexId) -> TmstState {
        if vid == self.source && self.transformed.replicas[v as usize].1 >= self.start {
            // Presence at the root begins at the journey start.
            (self.start, vid.0)
        } else {
            (INF, u64::MAX)
        }
    }

    fn compute(&self, ctx: &mut VcmContext<TmstState>, state: &mut TmstState, msgs: &[TmstState]) {
        let best = msgs.iter().copied().min().unwrap_or((INF, u64::MAX));
        let improved = best < *state;
        if improved {
            *state = best;
        }
        if (ctx.superstep() == 1 && state.0 < INF) || improved {
            let vid = ctx.vid().0;
            let carry = *state;
            let edges = ctx.out_edges();
            for &e in edges {
                if e.kind == 1 {
                    // Waiting edge: transfer the state unchanged.
                    ctx.send(e.target, carry);
                } else {
                    // Transit departing at this replica's time: arrival
                    // stamps the message; this vertex becomes the parent.
                    let arrival = self.transformed.replicas[e.target as usize].1;
                    ctx.send(e.target, (arrival, vid));
                }
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

/// TMST parents from a [`TgbTmst`] run: the parent attached to the
/// earliest arrival per logical vertex.
pub fn tgb_tmst_parents(
    transformed: &TransformedGraph,
    graph: &graphite_tgraph::graph::TemporalGraph,
    states: &HashMap<u32, TmstState>,
) -> HashMap<VertexId, (i64, u64)> {
    let mut out: HashMap<VertexId, (i64, u64)> = HashMap::new();
    for (r, &(orig, _)) in transformed.replicas.iter().enumerate() {
        let Some(&(a, p)) = states.get(&(r as u32)) else {
            continue;
        };
        if a == INF {
            continue;
        }
        let vid = graph.vertex(orig).vid;
        out.entry(vid)
            .and_modify(|cur| {
                if (a, p) < *cur {
                    *cur = (a, p);
                }
            })
            .or_insert((a, p));
    }
    out
}

/// Latest departure: backward reachability over the reversed transformed
/// graph from target replicas at or before the deadline, along the
/// in-edges it declares it needs.
pub struct TgbLd {
    /// Target vertex.
    pub target: VertexId,
    /// Deadline at the target.
    pub deadline: Time,
    /// The replica table.
    pub transformed: Arc<TransformedGraph>,
}

impl VcmProgram for TgbLd {
    type State = bool;
    type Msg = bool;

    fn init(&self, v: u32, vid: VertexId) -> bool {
        vid == self.target && self.transformed.replicas[v as usize].1 <= self.deadline
    }

    fn compute(&self, ctx: &mut VcmContext<bool>, state: &mut bool, msgs: &[bool]) {
        let newly = !*state && !msgs.is_empty();
        if newly {
            *state = true;
        }
        if (ctx.superstep() == 1 && *state) || newly {
            let edges = ctx.in_edges();
            for &e in edges {
                ctx.send(e.target, true);
            }
        }
    }

    fn combine(&self, a: &bool, b: &bool) -> Option<bool> {
        Some(*a || *b)
    }

    fn exact_combine(&self) -> bool {
        true
    }

    fn needs_in_edges(&self) -> bool {
        true
    }
}

/// Latest departures from a [`TgbLd`] run: the maximum good replica time
/// per logical vertex (for the target itself the deadline applies).
pub fn tgb_latest_departures(
    transformed: &TransformedGraph,
    graph: &graphite_tgraph::graph::TemporalGraph,
    states: &HashMap<u32, bool>,
) -> HashMap<VertexId, i64> {
    let mut out = HashMap::new();
    for (r, &(orig, t)) in transformed.replicas.iter().enumerate() {
        if states.get(&(r as u32)).copied().unwrap_or(false) {
            let vid = graph.vertex(orig).vid;
            out.entry(vid)
                .and_modify(|cur: &mut i64| *cur = (*cur).max(t))
                .or_insert(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_baselines::tgb::run_tgb;
    use graphite_icm::RunConfig;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use graphite_tgraph::transform::{transform_for_paths, TransformOptions};

    fn setup() -> (
        Arc<graphite_tgraph::graph::TemporalGraph>,
        Arc<TransformedGraph>,
    ) {
        let g = Arc::new(transit_graph());
        let tg = Arc::new(transform_for_paths(&g, &TransformOptions::default()));
        (g, tg)
    }

    #[test]
    fn tgb_eat_matches_icm() {
        let (g, tg) = setup();
        let r = run_tgb(
            Arc::clone(&g),
            Some(Arc::clone(&tg)),
            &TransformOptions::default(),
            Arc::new(TgbReach {
                source: transit_ids::A,
                start: 0,
                transformed: Arc::clone(&tg),
            }),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let eat = tgb_earliest_arrivals(&tg, &g, &r.vcm.states);
        assert_eq!(eat.get(&transit_ids::C), Some(&2));
        assert_eq!(eat.get(&transit_ids::D), Some(&2));
        assert_eq!(eat.get(&transit_ids::B), Some(&4));
        assert_eq!(eat.get(&transit_ids::E), Some(&6));
        assert_eq!(eat.get(&transit_ids::F), None);
    }

    #[test]
    fn tgb_fast_matches_icm() {
        let (g, tg) = setup();
        let r = run_tgb(
            Arc::clone(&g),
            Some(Arc::clone(&tg)),
            &TransformOptions::default(),
            Arc::new(TgbFast {
                source: transit_ids::A,
                transformed: Arc::clone(&tg),
            }),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let fast = tgb_fastest_durations(&tg, &g, &r.vcm.states);
        assert_eq!(fast.get(&transit_ids::B), Some(&1));
        assert_eq!(fast.get(&transit_ids::C), Some(&1));
        assert_eq!(fast.get(&transit_ids::D), Some(&1));
        assert_eq!(fast.get(&transit_ids::E), Some(&4));
        assert_eq!(fast.get(&transit_ids::A), Some(&0));
        assert_eq!(fast.get(&transit_ids::F), None);
    }

    #[test]
    fn tgb_tmst_matches_icm() {
        let (g, tg) = setup();
        let r = run_tgb(
            Arc::clone(&g),
            Some(Arc::clone(&tg)),
            &TransformOptions::default(),
            Arc::new(TgbTmst {
                source: transit_ids::A,
                start: 0,
                transformed: Arc::clone(&tg),
            }),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let parents = tgb_tmst_parents(&tg, &g, &r.vcm.states);
        assert_eq!(parents[&transit_ids::B].1, transit_ids::A.0);
        assert_eq!(parents[&transit_ids::C].1, transit_ids::A.0);
        assert_eq!(parents[&transit_ids::E].1, transit_ids::C.0);
        assert_eq!(parents[&transit_ids::E].0, 6);
        assert!(!parents.contains_key(&transit_ids::F));
    }

    #[test]
    fn tgb_ld_matches_icm() {
        let (g, tg) = setup();
        let r = run_tgb(
            Arc::clone(&g),
            Some(Arc::clone(&tg)),
            &TransformOptions::default(),
            Arc::new(TgbLd {
                target: transit_ids::E,
                deadline: 9,
                transformed: Arc::clone(&tg),
            }),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let ld = tgb_latest_departures(&tg, &g, &r.vcm.states);
        assert_eq!(ld.get(&transit_ids::B), Some(&8));
        assert_eq!(ld.get(&transit_ids::C), Some(&6));
        assert_eq!(ld.get(&transit_ids::A), Some(&5));
        assert_eq!(ld.get(&transit_ids::D), None);
        assert_eq!(ld.get(&transit_ids::F), None);
    }
}
