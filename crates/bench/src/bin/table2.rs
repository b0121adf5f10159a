//! Table 2 reproduction: the ratio of each baseline's makespan over
//! GRAPHITE's, averaged (geometric mean) over the TI and TD algorithm
//! classes, per dataset. Ratios > 1 mean ICM is faster.
//!
//! Pass `--quick` to run a 4-algorithm subset.

use graphite_algorithms::registry::Platform;
use graphite_bench::{
    algos_from_args, by_dataset_algo, mean_ratio, run_matrix, Dataset, HarnessConfig,
};
use std::collections::BTreeMap;

fn main() -> Result<(), String> {
    let config = HarnessConfig::from_env();
    let algos = algos_from_args();
    println!(
        "# Table 2 — baseline/GRAPHITE makespan ratios (scale={}, workers={}, {} algorithms)",
        config.scale,
        config.workers,
        algos.len()
    );

    let mut cells = Vec::new();
    for dataset in Dataset::all(&config)? {
        eprintln!("running {} ...", dataset.profile.name());
        cells.extend(run_matrix(&dataset, &algos, &config.run_opts()));
    }

    // (platform, class, dataset) -> Vec<(baseline_s, icm_s)>
    type RatioKey<'a> = (&'a str, bool, &'a str);
    let mut ratios: BTreeMap<RatioKey, Vec<(f64, f64)>> = BTreeMap::new();
    for ((dataset, _algo), group) in by_dataset_algo(&cells) {
        let Some(icm) = group.iter().find(|c| c.platform == Platform::Icm) else {
            continue;
        };
        for cell in &group {
            if cell.platform == Platform::Icm {
                continue;
            }
            ratios
                .entry((cell.platform.name(), cell.algo.is_ti(), dataset))
                .or_default()
                .push((cell.makespan_s(), icm.makespan_s()));
        }
    }

    let datasets = ["GPlus", "Reddit", "USRN", "Twitter", "MAG", "WebUK"];
    println!(
        "\n{:<6} {:<5} {}",
        "class",
        "plat",
        datasets.map(|d| format!("{d:>9}")).join(" ")
    );
    for (class, is_ti) in [("TI", true), ("TD", false)] {
        let plats: &[&str] = if is_ti {
            &["MSB", "CHL"]
        } else {
            &["TGB", "GOF"]
        };
        for plat in plats {
            let row: Vec<String> = datasets
                .iter()
                .map(|d| {
                    ratios
                        .get(&(*plat, is_ti, *d))
                        .map(|pairs| format!("{:>8.2}x", mean_ratio(pairs)))
                        .unwrap_or_else(|| format!("{:>9}", "-"))
                })
                .collect();
            println!("{class:<6} {plat:<5} {}", row.join(" "));
        }
    }

    println!();
    println!("# Paper shape (Table 2): ratios ~1x on unit-lifespan graphs (GPlus),");
    println!("# rising with entity lifespans — largest on Twitter/MAG, with TGB and");
    println!("# the snapshot platforms paying redundant calls/messages that ICM's");
    println!("# warp shares away. On USRN (static topology) ICM matches MSB/CHL for");
    println!("# TI and beats TGB/GOF for TD.");
    Ok(())
}
