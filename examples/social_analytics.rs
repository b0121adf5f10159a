//! Longitudinal social-network analytics — the second workload family the
//! paper motivates: how community structure and influence evolve in a
//! churning social graph.
//!
//! Generates a Reddit-like graph (mostly unit-length interactions over
//! 121 snapshots), then runs three time-independent analytics in single
//! interval-centric passes: component structure (WCC), influence
//! (PageRank) and triangle closure (TC) — each answered for *every*
//! snapshot at once.
//!
//! ```sh
//! cargo run --release --example social_analytics
//! ```

use graphite::algorithms::reports::component_evolution;
use graphite::algorithms::tc::triangles_at;
use graphite::datagen::Profile;
use graphite::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Arc::new(Profile::Reddit.generate(1, 21));
    let window = graphite::tgraph::snapshot::snapshot_window(&graph).unwrap();
    println!(
        "social graph: {} users, {} interactions over {} snapshots",
        graph.num_vertices(),
        graph.num_edges(),
        window.len()
    );
    let config = IcmConfig {
        run: RunConfig {
            workers: 4,
            ..Default::default()
        },
        ..Default::default()
    };

    // 1. Community structure over time: one WCC pass covers all 121
    //    snapshots; count components and the giant component per epoch.
    let wcc = run_icm(&graph, Arc::new(IcmWcc), &config, None).expect("ICM run");
    println!("\ncomponents over time (sampled epochs):");
    for (t, count, giant) in component_evolution(&graph, &wcc, window)
        .into_iter()
        .step_by(30)
    {
        println!("  t={t:>3}: {count:>4} live components, giant component {giant} users");
    }

    // 2. Influence: PageRank per snapshot, in one pass. Report the top
    //    user at two distant epochs.
    let pr = run_icm(&graph, Arc::new(IcmPageRank::default()), &config, None).expect("ICM run");
    for t in [window.start(), window.end() - 1] {
        let top = pr
            .states
            .iter()
            .filter_map(|(vid, states)| {
                states
                    .iter()
                    .find(|(iv, _)| iv.contains_point(t))
                    .map(|(_, s)| (*vid, s.1))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((vid, rank)) = top {
            println!("top influencer at t={t}: {vid:?} (rank {rank:.3})");
        }
    }

    // 3. Triangle closure: concurrent directed triangles per epoch from a
    //    single interval-centric TC pass.
    let tc = run_icm(&graph, Arc::new(IcmTc), &config, None).expect("ICM run");
    let counts: Vec<u64> = (window.start()..window.end())
        .map(|t| triangles_at(&tc, t))
        .collect();
    let peak = counts.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
    println!(
        "\ntriangles: peak {} at t={}, {} snapshots with none",
        peak.1,
        peak.0,
        counts.iter().filter(|c| **c == 0).count()
    );

    let c = &wcc.metrics.counters;
    println!(
        "\n(WCC covered all {} snapshots with {} compute calls and {} messages —\n\
         the per-snapshot baseline would pay one pass per snapshot.)",
        window.len(),
        c.compute_calls,
        c.messages_sent
    );
}
