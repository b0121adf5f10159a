//! Fig. 6(a) reproduction: estimated in-memory footprint of each graph
//! representation — the interval graph (GRAPHITE), the transformed graph
//! (TGB), the largest single snapshot (MSB / GoFFish), and a Chlonos
//! batch.

use graphite_bench::{Dataset, HarnessConfig};
use graphite_tgraph::stats::memory_footprint;

const CHLONOS_BATCH: u64 = 8;

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1}KiB", bytes as f64 / (1 << 10) as f64)
    }
}

fn main() -> Result<(), String> {
    let config = HarnessConfig::from_env();
    println!(
        "# Fig. 6(a) — representation memory footprints (scale={}, batch={})",
        config.scale, CHLONOS_BATCH
    );
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "graph", "interval", "transformed", "snapshot", "chl-batch", "T/I"
    );
    for dataset in Dataset::all(&config)? {
        let f = memory_footprint(&dataset.graph, None, CHLONOS_BATCH);
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>7.1}x",
            dataset.profile.name(),
            human(f.interval_bytes),
            human(f.transformed_bytes),
            human(f.largest_snapshot_bytes),
            human(f.snapshot_batch_bytes),
            f.transformed_bytes as f64 / f.interval_bytes.max(1) as f64,
        );
    }
    println!();
    println!("# Paper shape (Fig. 6a): TGB's transformed graph has the largest");
    println!("# footprint (4-6x the interval graph on MAG/WebUK in the paper — the");
    println!("# DNL cases), followed by the Chlonos batch; MSB's single snapshot is");
    println!("# the smallest. GRAPHITE's interval graph stays compact.");
    Ok(())
}
