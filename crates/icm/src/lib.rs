//! # graphite-icm — the interval-centric computing model
//!
//! The primary contribution of *An Interval-centric Model for Distributed
//! Computing over Temporal Graphs* (ICDE 2020), in Rust: an
//! interval-vertex is the unit of data-parallel computation; user logic is
//! a pair of `compute` / `scatter` functions over `(interval, state,
//! messages)`; and the **time-warp** operator temporally aligns and groups
//! messages with partitioned vertex states so user logic never reasons
//! about temporal bounds and is invoked the minimal number of times.
//!
//! ```
//! use graphite_icm::prelude::*;
//! use graphite_tgraph::fixtures::{transit_graph, transit_ids};
//! use graphite_tgraph::prelude::*;
//! use std::sync::Arc;
//!
//! /// Temporal SSSP (the paper's Alg. 1) in ~30 lines.
//! struct Sssp { source: VertexId, tt: LabelId, tc: LabelId }
//!
//! impl IntervalProgram for Sssp {
//!     type State = i64;
//!     type Msg = i64;
//!     fn init(&self, _v: &VertexContext) -> i64 { i64::MAX }
//!     fn compute(&self, ctx: &mut ComputeContext<i64, i64>, t: Interval, state: &i64, msgs: &[i64]) {
//!         if ctx.superstep() == 1 {
//!             if ctx.vid() == self.source { ctx.set_state(t, 0); }
//!             return;
//!         }
//!         let min = msgs.iter().copied().min().unwrap_or(i64::MAX);
//!         if min < *state { ctx.set_state(t, min); }
//!     }
//!     fn scatter(&self, ctx: &mut ScatterContext<i64>, t: Interval, state: &i64) {
//!         let tt = ctx.edge_prop_long(self.tt).unwrap_or(1);
//!         let tc = ctx.edge_prop_long(self.tc).unwrap_or(0);
//!         ctx.send(Interval::from_start(t.start() + tt), state + tc);
//!     }
//!     fn combine(&self, a: &i64, b: &i64) -> Option<i64> { Some(*a.min(b)) }
//! }
//!
//! let g = Arc::new(transit_graph());
//! let prog = Arc::new(Sssp {
//!     source: transit_ids::A,
//!     tt: g.label("travel-time").unwrap(),
//!     tc: g.label("travel-cost").unwrap(),
//! });
//! let result = run_icm(&g, prog, &IcmConfig::default(), None).expect("ICM run");
//! assert_eq!(result.state_at(transit_ids::E, 10), Some(&5));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod engine;
pub mod program;
pub mod state;
pub mod warp;

pub use engine::{run_icm, IcmConfig, IcmResult};
pub use graphite_part::{PartitionStrategy, RunConfig};
pub use program::{ComputeContext, EdgeDirection, IntervalProgram, ScatterContext, VertexContext};
pub use warp::{time_join, time_warp, time_warp_spans, JoinTuple, WarpTuple};

/// The common imports: `use graphite_icm::prelude::*;`.
pub mod prelude {
    pub use crate::engine::{run_icm, IcmConfig, IcmResult};
    pub use crate::program::{
        ComputeContext, EdgeDirection, IntervalProgram, ScatterContext, VertexContext,
    };
    pub use crate::warp::{time_join, time_warp, time_warp_spans};
    pub use graphite_part::RunConfig;
}

#[cfg(test)]
mod engine_tests {
    use crate::prelude::*;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use graphite_tgraph::prelude::*;
    use std::sync::Arc;

    /// Temporal SSSP exactly as in the paper's Alg. 1, used to validate
    /// the engine against the paper's worked trace (Fig. 2).
    struct Sssp {
        source: VertexId,
        tt: LabelId,
        tc: LabelId,
    }

    impl IntervalProgram for Sssp {
        type State = i64;
        type Msg = i64;

        fn init(&self, _v: &VertexContext) -> i64 {
            i64::MAX
        }

        fn compute(
            &self,
            ctx: &mut ComputeContext<i64, i64>,
            t: Interval,
            state: &i64,
            msgs: &[i64],
        ) {
            if ctx.superstep() == 1 {
                if ctx.vid() == self.source {
                    ctx.set_state(t, 0);
                }
                return;
            }
            let min = msgs.iter().copied().min().unwrap_or(i64::MAX);
            if min < *state {
                ctx.set_state(t, min);
            }
        }

        fn scatter(&self, ctx: &mut ScatterContext<i64>, t: Interval, state: &i64) {
            let tt = ctx.edge_prop_long(self.tt).unwrap_or(1);
            let tc = ctx.edge_prop_long(self.tc).unwrap_or(0);
            ctx.send(Interval::from_start(t.start() + tt), state + tc);
        }

        fn combine(&self, a: &i64, b: &i64) -> Option<i64> {
            Some(*a.min(b))
        }
    }

    fn try_run(config: &IcmConfig) -> Result<IcmResult<i64>, graphite_bsp::BspError> {
        let g = Arc::new(transit_graph());
        let prog = Arc::new(Sssp {
            source: transit_ids::A,
            tt: g.label("travel-time").unwrap(),
            tc: g.label("travel-cost").unwrap(),
        });
        run_icm(&g, prog, config, None)
    }

    fn run(config: &IcmConfig) -> IcmResult<i64> {
        try_run(config).expect("ICM run")
    }

    fn expected_states() -> Vec<(VertexId, Vec<(Interval, i64)>)> {
        use transit_ids::*;
        const INF: i64 = i64::MAX;
        vec![
            (A, vec![(Interval::from_start(0), 0)]),
            (
                B,
                vec![
                    (Interval::new(0, 4), INF),
                    (Interval::new(4, 6), 4),
                    (Interval::from_start(6), 3),
                ],
            ),
            (
                C,
                vec![(Interval::new(0, 2), INF), (Interval::from_start(2), 3)],
            ),
            (
                D,
                vec![(Interval::new(0, 2), INF), (Interval::from_start(2), 2)],
            ),
            (
                E,
                vec![
                    (Interval::new(0, 6), INF),
                    (Interval::new(6, 9), 7),
                    (Interval::from_start(9), 5),
                ],
            ),
            (F, vec![(Interval::from_start(0), INF)]),
        ]
    }

    #[test]
    fn sssp_matches_paper_trace() {
        for workers in [1, 2, 4] {
            let result = run(&IcmConfig {
                run: RunConfig {
                    workers,
                    ..Default::default()
                },
                ..Default::default()
            });
            for (vid, want) in expected_states() {
                assert_eq!(
                    result.states[&vid], want,
                    "vertex {vid:?}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn sssp_primitive_counts_match_paper() {
        let result = run(&IcmConfig {
            run: RunConfig {
                workers: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let c = &result.metrics.counters;
        // Sec. I: "just 7 interval vertex visits and 6 edge traversals".
        // Visits that update state: A@1, B×2, C, D @2, E×2 @3 = 7; the
        // engine also counts the superstep-1 initialization call on each of
        // the 6 vertices, of which only A's updates state: 6 + 4 + 2 = 12
        // compute calls in total.
        assert_eq!(c.compute_calls, 12);
        assert_eq!(c.scatter_calls, 6);
        assert_eq!(c.messages_sent, 6);
        assert_eq!(result.metrics.supersteps, 3);
    }

    #[test]
    fn counts_are_identical_across_worker_counts() {
        let base = run(&IcmConfig {
            run: RunConfig {
                workers: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        for workers in [2, 4, 8] {
            let r = run(&IcmConfig {
                run: RunConfig {
                    workers,
                    ..Default::default()
                },
                ..Default::default()
            });
            assert_eq!(
                r.metrics.counters.compute_calls,
                base.metrics.counters.compute_calls
            );
            assert_eq!(
                r.metrics.counters.messages_sent,
                base.metrics.counters.messages_sent
            );
            assert_eq!(
                r.metrics.counters.scatter_calls,
                base.metrics.counters.scatter_calls
            );
        }
    }

    #[test]
    fn combiner_off_does_not_change_results() {
        let with = run(&IcmConfig {
            run: RunConfig {
                workers: 2,
                ..Default::default()
            },
            combiner: true,
            ..Default::default()
        });
        let without = run(&IcmConfig {
            run: RunConfig {
                workers: 2,
                ..Default::default()
            },
            combiner: false,
            ..Default::default()
        });
        assert_eq!(with.states, without.states);
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let err = try_run(&IcmConfig {
            run: RunConfig {
                bsp: graphite_bsp::BspConfig {
                    recovery: Some(graphite_bsp::RecoveryConfig::every(0)),
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        })
        .expect_err("a recovery schedule that never checkpoints");
        assert!(matches!(err, graphite_bsp::BspError::Checkpoint { .. }));
    }

    #[test]
    fn state_at_lookup() {
        let r = run(&IcmConfig::default());
        assert_eq!(r.state_at(transit_ids::B, 5), Some(&4));
        assert_eq!(r.state_at(transit_ids::B, 6), Some(&3));
        assert_eq!(r.state_at(transit_ids::F, 5), Some(&i64::MAX));
        assert_eq!(r.state_at(VertexId(99), 5), None);
        assert_eq!(r.state_at(transit_ids::B, -1), None);
    }

    #[test]
    fn warp_is_used_not_suppressed_here() {
        // The transit fixture's messages are all `[t, ∞)`: zero unit
        // fraction, so warp must never be suppressed.
        let r = run(&IcmConfig::default());
        assert!(r.metrics.counters.warp_invocations > 0);
        assert_eq!(r.metrics.counters.warp_suppressions, 0);
    }
}
