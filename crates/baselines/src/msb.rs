//! The Multi-Snapshot Baseline (MSB, Sec. VII-A3): runs a vertex-centric
//! program independently on every snapshot of the temporal graph and
//! accumulates the per-snapshot costs, exactly as multi-snapshot analysis
//! does in the paper. Used for the TI algorithms.

use crate::topology::{run_ti_window, EdgeWeights, SnapshotResult, SnapshotTopology};
use crate::vcm::{run_walk, snapshot_states, VcmProgram, VcmWorker};
use graphite_bsp::error::BspError;
use graphite_part::RunConfig;
use graphite_tgraph::graph::TemporalGraph;
use graphite_tgraph::time::Interval;
use std::sync::Arc;

/// Configuration of one MSB run.
#[derive(Clone, Debug)]
pub struct MsbConfig {
    /// The run as a whole: the snapshots are the phases of one BSP run,
    /// placed once, so every option — the cap and budget, the fault plan,
    /// the perturbation, recovery and the trace — spans the whole walk.
    pub run: RunConfig,
    /// Window to discretize; `None` takes
    /// [`graphite_tgraph::snapshot::snapshot_window`].
    pub window: Option<Interval>,
    /// Keep the per-snapshot final states (disable to save memory on
    /// large sweeps where only metrics matter).
    pub collect_states: bool,
}

/// Runs `program` on every snapshot in the window, independently,
/// accumulating metrics — the paper's MSB. Each snapshot is one phase of
/// a single run, which starts the program afresh on it. On a static
/// topology one snapshot stands for all of them (Sec. VII-B6).
///
/// MSB runs structure-only (TI) programs, which read no edge property, so
/// its snapshots resolve none.
///
/// # Errors
///
/// [`BspError::Config`] when the graph has no bounded window and none was
/// given, a spent whole-run cap or budget, else the [`BspError`] of the
/// walk's one run.
pub fn run_msb<P: VcmProgram>(
    graph: Arc<TemporalGraph>,
    program: Arc<P>,
    config: &MsbConfig,
) -> Result<SnapshotResult<P::State>, BspError> {
    run_ti_window(&graph, config.window, "MSB", |window| {
        let weights = EdgeWeights::default();
        let snapshot = |t| Arc::new(SnapshotTopology::new(Arc::clone(&graph), t, weights));
        let mut t = window.start();
        let first = snapshot(t);
        let mut per_snapshot = Vec::new();
        // At each snapshot's quiescent barrier: keep its states, then seat
        // the next snapshot on emptied tables.
        let mut next_snapshot = |workers: &mut [VcmWorker<SnapshotTopology, P>]| {
            let finished = workers.iter_mut().flat_map(|w| w.table.drain(1)).collect();
            if config.collect_states {
                per_snapshot.extend(snapshot_states(finished, t, 1));
            }
            t += 1;
            if t == window.end() {
                return false;
            }
            let topology = snapshot(t);
            for w in workers {
                w.topology = Arc::clone(&topology);
            }
            true
        };
        let (_, metrics) = run_walk(&first, program, &config.run, Some(&mut next_snapshot))?;
        Ok(SnapshotResult {
            per_snapshot,
            metrics,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcm::{run_vcm, VcmContext};
    use graphite_tgraph::fixtures::transit_graph;
    use graphite_tgraph::graph::VertexId;
    use graphite_tgraph::time::Time;

    fn config(workers: usize) -> MsbConfig {
        MsbConfig {
            run: RunConfig {
                workers,
                ..Default::default()
            },
            window: None,
            collect_states: true,
        }
    }

    /// Per-snapshot BFS level from vertex A (a TI algorithm).
    struct Bfs {
        source: VertexId,
    }

    impl VcmProgram for Bfs {
        type State = i64;
        type Msg = i64;
        fn init(&self, _v: u32, vid: VertexId) -> i64 {
            if vid == self.source {
                0
            } else {
                i64::MAX
            }
        }
        fn compute(&self, ctx: &mut VcmContext<i64>, state: &mut i64, msgs: &[i64]) {
            let best = msgs.iter().copied().min().unwrap_or(i64::MAX);
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

    #[test]
    fn msb_runs_every_snapshot_independently() {
        let graph = Arc::new(transit_graph());
        let a_idx = graph.vertex_index(VertexId(0)).unwrap().0;
        let b_idx = graph.vertex_index(VertexId(1)).unwrap().0;
        let r = run_msb(
            Arc::clone(&graph),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &config(2),
        )
        .unwrap();
        // Window is [0,9): nine snapshots, nine phases of one run.
        assert_eq!(r.per_snapshot.len(), 9);
        // A is level 0 everywhere.
        for t in 0..9 {
            assert_eq!(r.state_at(a_idx, t), Some(&0), "t={t}");
        }
        // Edge A->B exists only during [3,6): B is level 1 there, else inf.
        for t in 0..9 {
            let want = if (3..6).contains(&t) { 1 } else { i64::MAX };
            assert_eq!(r.state_at(b_idx, t), Some(&want), "t={t}");
        }
        // Each snapshot charges at least one compute call per live vertex.
        assert!(r.metrics.counters.compute_calls >= 9 * 6);
        assert!(r.metrics.supersteps >= 9);
    }

    #[test]
    fn states_collection_is_optional() {
        let graph = Arc::new(transit_graph());
        let r = run_msb(
            graph,
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &MsbConfig {
                collect_states: false,
                ..config(4)
            },
        )
        .unwrap();
        assert!(r.per_snapshot.is_empty());
        assert!(r.metrics.counters.compute_calls > 0);
    }

    #[test]
    fn a_static_topology_computes_one_snapshot_for_the_whole_window() {
        let graph = crate::topology::static_graph();
        let program = Arc::new(Bfs {
            source: VertexId(0),
        });
        let r = run_msb(Arc::clone(&graph), Arc::clone(&program), &config(4)).unwrap();
        let topo = SnapshotTopology::new(Arc::clone(&graph), 0, EdgeWeights::default());
        let one = run_vcm(&Arc::new(topo), program, &RunConfig::default()).unwrap();
        assert_eq!(
            r.metrics.counters.compute_calls,
            one.metrics.counters.compute_calls
        );
        let points: Vec<Time> = r.per_snapshot.iter().map(|(t, _)| *t).collect();
        assert_eq!(points, (0..5).collect::<Vec<_>>());
        assert!(r.per_snapshot.iter().all(|(_, s)| *s == one.states));
    }

    #[test]
    fn an_unbounded_graph_without_a_window_is_a_config_error() {
        let err = run_msb(
            crate::topology::unbounded_graph(),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &config(4),
        )
        .expect_err("no finite set of snapshots");
        assert!(
            matches!(&err, BspError::Config { detail } if detail.contains("MSB needs a bounded window")),
            "{err:?}"
        );
        // Nor may an explicit window be unbounded.
        let err = run_msb(
            crate::topology::unbounded_graph(),
            Arc::new(Bfs {
                source: VertexId(0),
            }),
            &MsbConfig {
                window: Some(Interval::from_start(0)),
                ..config(4)
            },
        )
        .expect_err("an unbounded explicit window");
        assert!(matches!(err, BspError::Config { .. }), "{err:?}");
    }
}
