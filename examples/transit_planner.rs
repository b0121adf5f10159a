//! Transit planning over a temporal road/transit network — the workload
//! family the paper's introduction motivates: time-respecting paths where
//! traffic density and road closures vary over the day.
//!
//! Generates a USRN-like road grid whose `travel-cost` (congestion)
//! changes over 96 ticks, then answers the questions a journey planner
//! asks: earliest arrival, cheapest path per departure window, fastest
//! duration, and the latest time you can leave and still make it.
//!
//! ```sh
//! cargo run --release --example transit_planner
//! ```

use graphite::algorithms::td_paths::{IcmEat, IcmFast, IcmLd, IcmSssp};
use graphite::datagen::Profile;
use graphite::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Arc::new(Profile::Usrn.generate(1, 7));
    println!(
        "road network: {} junctions, {} directed road segments, {} ticks",
        graph.num_vertices(),
        graph.num_edges(),
        graph.lifespan()
    );
    let labels = AlgLabels::resolve(&graph);
    let config = IcmConfig {
        run: RunConfig {
            workers: 4,
            ..Default::default()
        },
        ..Default::default()
    };

    // From one corner to the grid's centre: a long (but within-horizon)
    // journey. The far corner would need ~100 hops — more ticks than the
    // day has, so no time-respecting path could exist.
    let origin = VertexId(0);
    let destination = VertexId(25 * 50 + 25);

    // 1. Cheapest cost per arrival window (temporal SSSP).
    let sssp = run_icm(
        &graph,
        Arc::new(IcmSssp {
            source: origin,
            labels,
        }),
        &config,
        None,
    )
    .expect("ICM run");
    println!("\ncheapest journeys {origin:?} -> {destination:?} by arrival window:");
    for (iv, cost) in sssp.states[&destination]
        .iter()
        .filter(|(_, c)| *c < i64::MAX)
        .take(5)
    {
        println!("  arriving within {iv}: total congestion cost {cost}");
    }

    // 2. Earliest arrival when departing at tick 0 (EAT).
    let eat = run_icm(
        &graph,
        Arc::new(IcmEat {
            source: origin,
            start: 0,
            labels,
        }),
        &config,
        None,
    )
    .expect("ICM run");
    match IcmEat::earliest(&eat, destination) {
        Some(t) => println!("\nearliest arrival leaving at tick 0: tick {t}"),
        None => println!("\ndestination unreachable from tick 0"),
    }

    // 3. Fastest door-to-door duration over all departure times (FAST).
    let fast = run_icm(
        &graph,
        Arc::new(IcmFast {
            source: origin,
            labels,
        }),
        &config,
        None,
    )
    .expect("ICM run");
    match IcmFast::fastest(&fast, destination) {
        Some(d) => println!("fastest possible duration (any departure): {d} ticks"),
        None => println!("no time-respecting journey exists"),
    }

    // 4. Latest departure that still reaches the destination by the end of
    //    day (LD — reverse traversal in space and time).
    let deadline = graph.lifespan().end() - 1;
    let ld = run_icm(
        &graph,
        Arc::new(IcmLd {
            target: destination,
            deadline,
            labels,
        }),
        &config,
        None,
    )
    .expect("ICM run");
    match IcmLd::latest(&ld, origin) {
        Some(t) => {
            println!("latest departure from {origin:?} to arrive by tick {deadline}: tick {t}")
        }
        None => println!("cannot reach the destination by tick {deadline}"),
    }

    println!(
        "\n(SSSP ran {} supersteps with {} compute calls over the whole day — one\n\
         interval-centric pass answers every departure window at once.)",
        sssp.metrics.supersteps, sssp.metrics.counters.compute_calls
    );
}
