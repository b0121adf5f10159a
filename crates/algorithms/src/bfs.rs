//! Breadth-First Search (TI, Sec. V): per-time-point hop distance from a
//! source vertex. Snapshot-reducible — the result at time `t` equals BFS
//! on the snapshot at `t`.
//!
//! The ICM form reuses the plain vertex-centric logic: messages inherit
//! the scatter interval (`τm = τ'k`), so a path's validity interval is the
//! intersection of its edges' lifespans — exactly per-snapshot BFS, with
//! one compute call and one message covering a whole run of snapshots.

use crate::common::INF;
use graphite_baselines::vcm::{VcmContext, VcmProgram};
use graphite_icm::prelude::*;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::Interval;

/// BFS under ICM.
pub struct IcmBfs {
    /// The source vertex.
    pub source: VertexId,
}

impl IntervalProgram for IcmBfs {
    /// TI algorithms never read edge properties (Sec. VII-A1), so scatter
    /// granularity is the edge lifespan.
    fn refine_scatter_by_properties(&self) -> bool {
        false
    }

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
        let best = msgs.iter().copied().min().unwrap_or(INF);
        if best < *state {
            ctx.set_state(t, best);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<i64>, _t: Interval, state: &i64) {
        ctx.send_inherit(state.saturating_add(1));
    }

    fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
        Some(*a.min(b))
    }

    fn exact_combine(&self) -> bool {
        true
    }
}

/// BFS under plain VCM (one snapshot), for the MSB and Chlonos baselines.
pub struct VcmBfs {
    /// The source vertex.
    pub source: VertexId,
}

impl VcmProgram for VcmBfs {
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
        if (ctx.superstep() == 1 && *state == 0) || improved {
            let next = state.saturating_add(1);
            for e in ctx.out_edges() {
                ctx.send(e.target, next);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::INF;
    use graphite_baselines::msb::{run_msb, MsbConfig};
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use std::sync::Arc;

    #[test]
    fn icm_bfs_matches_per_snapshot_bfs() {
        let graph = Arc::new(transit_graph());
        let icm = run_icm(
            &graph,
            Arc::new(IcmBfs {
                source: transit_ids::A,
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
        let msb = run_msb(
            Arc::clone(&graph),
            Arc::new(VcmBfs {
                source: transit_ids::A,
            }),
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
            for (v, depth) in snapshot {
                let vid = graph.vertex(graphite_tgraph::graph::VIdx(*v)).vid;
                assert_eq!(
                    icm.state_at(vid, *t),
                    Some(depth),
                    "vertex {vid:?} at t={t}"
                );
            }
        }
    }

    #[test]
    fn icm_bfs_interval_structure() {
        let graph = Arc::new(transit_graph());
        let icm = run_icm(
            &graph,
            Arc::new(IcmBfs {
                source: transit_ids::A,
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        // B is depth 1 exactly while A->B exists: [3,6).
        assert_eq!(icm.state_at(transit_ids::B, 2), Some(&INF));
        assert_eq!(icm.state_at(transit_ids::B, 3), Some(&1));
        assert_eq!(icm.state_at(transit_ids::B, 5), Some(&1));
        assert_eq!(icm.state_at(transit_ids::B, 6), Some(&INF));
        // E is depth 2 only at t=5: A->B ([3,6)) and B->E ([8,9)) never
        // coexist, but A->C [1,3) and C->E [5,7) don't either — E is
        // unreachable in every snapshot.
        assert_eq!(icm.state_at(transit_ids::E, 5), Some(&INF));
        assert_eq!(icm.state_at(transit_ids::F, 4), Some(&INF));
    }

    #[test]
    fn icm_shares_compute_across_snapshots() {
        let graph = Arc::new(transit_graph());
        let icm = run_icm(
            &graph,
            Arc::new(IcmBfs {
                source: transit_ids::A,
            }),
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
        let msb = run_msb(
            Arc::clone(&graph),
            Arc::new(VcmBfs {
                source: transit_ids::A,
            }),
            &MsbConfig {
                run: RunConfig {
                    workers: 1,
                    ..Default::default()
                },
                window: None,
                collect_states: true,
            },
        )
        .unwrap();
        // MSB pays one compute call per live vertex per snapshot at
        // minimum; ICM's interval sharing does far better.
        assert!(icm.metrics.counters.compute_calls < msb.metrics.counters.compute_calls);
        assert!(icm.metrics.counters.messages_sent < msb.metrics.counters.messages_sent);
    }
}
