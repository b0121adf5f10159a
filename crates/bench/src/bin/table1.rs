//! Table 1 reproduction: dataset characteristics for the six profiles —
//! snapshot count, sizes of the largest snapshot / interval graph /
//! transformed graph / cumulative multi-snapshot representation, and the
//! average lifespans of vertices, edges and properties.

use graphite_bench::{Dataset, HarnessConfig};
use graphite_tgraph::stats::dataset_stats;

fn main() -> Result<(), String> {
    let config = HarnessConfig::from_env();
    println!(
        "# Table 1 — dataset characteristics (scale={})",
        config.scale
    );
    println!(
        "{:<8} {:>6} | {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>10} {:>10} | {:>6} {:>6} {:>6}",
        "graph", "snaps", "snapV", "snapE", "intV", "intE", "transV", "transE", "multiV",
        "multiE", "lifeV", "lifeE", "lifeP"
    );
    for dataset in Dataset::all(&config)? {
        let s = dataset_stats(&dataset.graph, None);
        println!(
            "{:<8} {:>6} | {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>10} {:>10} | {:>6.2} {:>6.2} {:>6.2}",
            dataset.profile.name(),
            s.snapshots,
            s.largest_snapshot.vertices,
            s.largest_snapshot.edges,
            s.interval.vertices,
            s.interval.edges,
            s.transformed.vertices,
            s.transformed.edges,
            s.multi_snapshot.vertices,
            s.multi_snapshot.edges,
            s.avg_vertex_lifespan,
            s.avg_edge_lifespan,
            s.avg_property_lifespan,
        );
    }
    println!();
    println!("# Paper shape: the transformed graph dwarfs the interval graph on");
    println!("# long-lifespan datasets (MAG, Twitter) and stays ~1:1 on unit-");
    println!("# lifespan ones (GPlus); the multi-snapshot representation grows");
    println!("# with lifespan × snapshots.");
    Ok(())
}
