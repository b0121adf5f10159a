//! Quickstart: build a small temporal graph, run temporal SSSP under the
//! interval-centric model, and read the per-interval results.
//!
//! This is the paper's running example (Fig. 1(a) / Alg. 1): a transit
//! network where edges carry `travel-time` and `travel-cost` properties
//! over intervals, and the answer is the lowest travel cost from stop `A`
//! for *every interval of arrival*.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use graphite::prelude::*;
use graphite::tgraph::fixtures::{transit_graph, transit_ids};
use std::sync::Arc;

fn main() {
    // The Fig. 1(a) transit network: six stops A..F, edges alive over
    // intervals, piecewise travel costs.
    let graph = Arc::new(transit_graph());
    println!(
        "transit network: {} stops, {} temporal edges, lifespan {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.lifespan()
    );

    // Temporal SSSP from stop A (the paper's Alg. 1, ~30 lines of user
    // logic — see graphite_algorithms::td_paths::IcmSssp).
    let labels = AlgLabels::resolve(&graph);
    let program = Arc::new(IcmSssp {
        source: transit_ids::A,
        labels,
    });
    let result = run_icm(&graph, program, &IcmConfig::default(), None).expect("ICM run");

    println!("\nlowest travel cost from A, per interval of arrival:");
    for (vid, states) in &result.states {
        let name = ["A", "B", "C", "D", "E", "F"][vid.0 as usize];
        let rendered: Vec<String> = states
            .iter()
            .map(|(iv, cost)| {
                if *cost == i64::MAX {
                    format!("{iv} unreachable")
                } else {
                    format!("{iv} cost {cost}")
                }
            })
            .collect();
        println!("  {name}: {}", rendered.join(", "));
    }

    // The run's primitive counts — the numbers the paper's evaluation is
    // built on (Sec. I: 7 state-updating visits, 6 messages).
    let c = &result.metrics.counters;
    println!(
        "\nprimitives: {} compute calls, {} scatter calls, {} messages, {} supersteps",
        c.compute_calls, c.scatter_calls, c.messages_sent, result.metrics.supersteps
    );
    assert_eq!(result.state_at(transit_ids::E, 10), Some(&5));
    println!("E is reachable from time 9 onward at cost 5 — matching the paper.");
}
