//! Post-processing helpers over interval-valued results: the longitudinal
//! summaries applications typically derive from a single ICM pass —
//! per-epoch component structure.

use graphite_icm::IcmResult;
use graphite_tgraph::graph::TemporalGraph;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcc::IcmWcc;
    use graphite_icm::prelude::*;
    use graphite_tgraph::fixtures::transit_graph;
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
}
