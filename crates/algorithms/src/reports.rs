//! Post-processing helpers over interval-valued results: the longitudinal
//! summaries applications typically derive from a single ICM pass —
//! per-epoch component structure, reachability coverage, and path-cost
//! distributions.

use crate::common::INF;
use graphite_icm::IcmResult;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::time::{Interval, Time};
use std::collections::BTreeMap;

/// Sizes of each component label at time-point `t`, restricted to
/// vertices alive then — for WCC/SCC results whose state is the label.
pub fn component_sizes_at(
    graph: &TemporalGraph,
    result: &IcmResult<u64>,
    t: Time,
) -> BTreeMap<u64, usize> {
    let mut sizes = BTreeMap::new();
    for (vid, states) in &result.states {
        let alive = graph
            .vertex_index(*vid)
            .map(|v| graph.vertex(v).lifespan.contains_point(t))
            .unwrap_or(false);
        if !alive {
            continue;
        }
        if let Some((_, label)) = states.iter().find(|(iv, _)| iv.contains_point(t)) {
            *sizes.entry(*label).or_default() += 1;
        }
    }
    sizes
}

/// The evolution of `(component count, giant component size)` across a
/// window, one row per time-point.
pub fn component_evolution(
    graph: &TemporalGraph,
    result: &IcmResult<u64>,
    window: Interval,
) -> Vec<(Time, usize, usize)> {
    window
        .points()
        .map(|t| {
            let sizes = component_sizes_at(graph, result, t);
            let giant = sizes.values().copied().max().unwrap_or(0);
            (t, sizes.len(), giant)
        })
        .collect()
}

/// How many vertices a cost-valued result (SSSP/EAT-style, `INF` =
/// unreached) covers at each time-point of a window.
pub fn coverage_over_time(result: &IcmResult<i64>, window: Interval) -> Vec<(Time, usize)> {
    window
        .points()
        .map(|t| {
            let covered = result
                .states
                .values()
                .filter(|states| {
                    states
                        .iter()
                        .any(|(iv, cost)| iv.contains_point(t) && *cost < INF)
                })
                .count();
            (t, covered)
        })
        .collect()
}

/// The final (largest-time) finite value per vertex of a cost-valued
/// result — e.g. each vertex's eventual best SSSP cost.
pub fn final_costs(result: &IcmResult<i64>) -> BTreeMap<VertexId, i64> {
    let mut out = BTreeMap::new();
    for (vid, states) in &result.states {
        if let Some((_, cost)) = states.iter().rev().find(|(_, c)| *c < INF) {
            out.insert(*vid, *cost);
        }
    }
    out
}

/// A histogram of the final costs, bucketed by value.
pub fn cost_histogram(result: &IcmResult<i64>) -> BTreeMap<i64, usize> {
    let mut hist = BTreeMap::new();
    for cost in final_costs(result).values() {
        *hist.entry(*cost).or_default() += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AlgLabels;
    use crate::td_paths::IcmSssp;
    use crate::wcc::IcmWcc;
    use graphite_icm::prelude::*;
    use graphite_tgraph::fixtures::{transit_graph, transit_ids};
    use std::sync::Arc;

    #[test]
    fn component_reports_on_transit() {
        let g = Arc::new(transit_graph());
        let wcc = run_icm(&g, Arc::new(IcmWcc), &IcmConfig::default(), None).expect("ICM run");
        // t=4: live edges A->B and E->F => components {A,B},{C},{D},{E,F}.
        let sizes = component_sizes_at(&g, &wcc, 4);
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes[&0], 2);
        assert_eq!(sizes[&4], 2);
        let evolution = component_evolution(&g, &wcc, Interval::new(0, 9));
        assert_eq!(evolution.len(), 9);
        // t=0 has no edges: six singleton components.
        assert_eq!(evolution[0], (0, 6, 1));
    }

    #[test]
    fn coverage_and_costs_on_transit_sssp() {
        let g = Arc::new(transit_graph());
        let labels = AlgLabels::resolve(&g);
        let sssp = run_icm(
            &g,
            Arc::new(IcmSssp {
                source: transit_ids::A,
                labels,
            }),
            &IcmConfig::default(),
            None,
        )
        .expect("ICM run");
        let coverage = coverage_over_time(&sssp, Interval::new(0, 12));
        // Coverage grows: only A at t=0; A,C,D by 2; +B at 4; +E at 6.
        assert_eq!(coverage[0].1, 1);
        assert_eq!(coverage[2].1, 3);
        assert_eq!(coverage[4].1, 4);
        assert_eq!(coverage[6].1, 5);
        assert_eq!(coverage[11].1, 5, "F stays unreachable");
        let finals = final_costs(&sssp);
        assert_eq!(finals[&transit_ids::E], 5);
        assert_eq!(finals.get(&transit_ids::F), None);
        let hist = cost_histogram(&sssp);
        assert_eq!(hist[&0], 1); // the source
        assert_eq!(hist[&5], 1); // E
    }
}
