//! The Transformed Graph Baseline (TGB, Sec. VII-A3): converts the
//! temporal graph into the time-expanded graph of Wu et al. and runs a
//! plain vertex-centric program over the replicas. Shared state between
//! replicas of one vertex travels over the zero-cost *waiting* edges —
//! those are the "special messages and compute logic calls" the paper
//! charges to TGB on top of the application's own traffic.

use crate::topology::TransformedTopology;
use crate::vcm::{run_vcm, VcmProgram, VcmResult};
use graphite_bsp::error::BspError;
use graphite_part::RunConfig;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::time::{Interval, Time};
use graphite_tgraph::transform::{transform_for_paths, TransformOptions, TransformedGraph};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The outcome of a TGB run: per-replica states plus the topology needed
/// to map them back to `(vertex, time)`.
pub struct TgbResult<S> {
    /// The underlying VCM result (states keyed by replica index).
    pub vcm: VcmResult<S>,
    /// The replica topology.
    pub topology: Arc<TransformedTopology>,
}

impl<S: Clone + PartialEq> TgbResult<S> {
    /// Projects replica states onto per-vertex interval timelines: the
    /// value over `[t_i, t_{i+1})` is the state of the replica at `t_i`
    /// (replica state persists until the next replica, because waiting
    /// edges forward it). Before a vertex's first replica the value is
    /// `default`; after the last it extends to `∞`. Directly comparable to
    /// the interval-centric engine's `IcmResult::states` for path
    /// algorithms (`graphite-baselines` deliberately does not depend on
    /// `graphite-icm`).
    pub fn project(
        &self,
        graph: &TemporalGraph,
        default: S,
    ) -> BTreeMap<VertexId, Vec<(Interval, S)>> {
        let mut out = BTreeMap::new();
        for (v, vd) in graph.vertices() {
            let mut timeline: Vec<(Interval, S)> = Vec::new();
            let replicas: Vec<(u32, Time)> = self.topology.transformed().replicas_of(v).collect();
            let life = vd.lifespan;
            let mut cursor = life.start();
            for (i, &(r, t)) in replicas.iter().enumerate() {
                let state = self
                    .vcm
                    .states
                    .get(&r)
                    .cloned()
                    .unwrap_or_else(|| default.clone());
                if cursor < t {
                    timeline.push((Interval::new(cursor, t), default.clone()));
                }
                let end = replicas.get(i + 1).map_or(life.end(), |&(_, nt)| nt);
                if t < end {
                    timeline.push((Interval::new(t, end), state));
                }
                cursor = end;
            }
            if cursor < life.end() {
                timeline.push((Interval::new(cursor, life.end()), default.clone()));
            }
            // Coalesce adjacent equal values.
            let mut coalesced: Vec<(Interval, S)> = Vec::with_capacity(timeline.len());
            for (iv, s) in timeline {
                match coalesced.last_mut() {
                    Some((last, ls)) if last.meets(iv) && *ls == s => *last = last.span(iv),
                    _ => coalesced.push((iv, s)),
                }
            }
            out.insert(vd.vid, coalesced);
        }
        out
    }
}

/// Builds the transformed graph (unless one is supplied) and runs
/// `program` over it, honouring every field of `config`.
///
/// # Errors
///
/// The replica run's [`BspError`]: among them [`BspError::Config`] for an
/// unusable worker count.
pub fn run_tgb<P: VcmProgram>(
    graph: Arc<TemporalGraph>,
    transformed: Option<Arc<TransformedGraph>>,
    transform_opts: &TransformOptions,
    program: Arc<P>,
    config: &RunConfig,
) -> Result<TgbResult<P::State>, BspError> {
    let transformed =
        transformed.unwrap_or_else(|| Arc::new(transform_for_paths(&graph, transform_opts)));
    let topology = Arc::new(TransformedTopology::new(Arc::clone(&graph), transformed));
    let vcm = run_vcm(&topology, program, config)?;
    Ok(TgbResult { vcm, topology })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcm::VcmContext;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};

    /// SSSP over the transformed graph: waiting edges relay state at cost
    /// 0; transit edges add their weight. The classic TGB path program.
    struct TgbSssp {
        source: VertexId,
    }

    impl VcmProgram for TgbSssp {
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
                let dist = *state;
                let edges: Vec<_> = ctx.out_edges().to_vec();
                for e in edges {
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

    #[test]
    fn tgb_sssp_projects_to_paper_costs() {
        let graph = Arc::new(transit_graph());
        let r = run_tgb(
            Arc::clone(&graph),
            None,
            &TransformOptions::default(),
            Arc::new(TgbSssp {
                source: transit_ids::A,
            }),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let projected = r.project(&graph, i64::MAX);
        // Paper results: E costs 7 over [6,9) (via C, arriving 6..7 is
        // replica 6 then 7), 5 from 9 on; B costs 4 over [4,6), 3 after.
        let e = &projected[&transit_ids::E];
        let at = |t: Time| {
            e.iter()
                .find(|(iv, _)| iv.contains_point(t))
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert_eq!(at(5), i64::MAX);
        assert_eq!(at(6), 7);
        assert_eq!(at(8), 7);
        assert_eq!(at(9), 5);
        assert_eq!(at(100), 5);
        let b = &projected[&transit_ids::B];
        let at_b = |t: Time| {
            b.iter()
                .find(|(iv, _)| iv.contains_point(t))
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert_eq!(at_b(3), i64::MAX);
        assert_eq!(at_b(4), 4);
        assert_eq!(at_b(5), 4);
        assert_eq!(at_b(6), 3);
        // F never reached.
        assert!(projected[&transit_ids::F]
            .iter()
            .all(|(_, s)| *s == i64::MAX));
    }

    #[test]
    fn tgb_pays_replica_traffic() {
        // ICM solves this with 6 messages (Sec. I); TGB needs replica
        // state-transfer messages over waiting edges on top of transit
        // traffic — strictly more messages and compute calls.
        let graph = Arc::new(transit_graph());
        let r = run_tgb(
            Arc::clone(&graph),
            None,
            &TransformOptions::default(),
            Arc::new(TgbSssp {
                source: transit_ids::A,
            }),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.vcm.metrics.counters.messages_sent > 6);
        assert!(r.vcm.metrics.counters.compute_calls > 12);
    }
}
