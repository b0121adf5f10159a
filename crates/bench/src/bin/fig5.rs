//! Fig. 5 reproduction: per-algorithm makespan (split into compute+,
//! exclusive messaging and barrier time) plus compute-call and message
//! counts, for every dataset and platform.
//!
//! Pass `--quick` to run a 4-algorithm subset.

use graphite_bench::{algos_from_args, fmt_dur, run_matrix, Dataset, HarnessConfig};

fn main() -> Result<(), String> {
    let config = HarnessConfig::from_env();
    let algos = algos_from_args();
    println!(
        "# Fig. 5 — makespan, time splits, and primitive counts (scale={}, workers={})",
        config.scale, config.workers
    );
    println!(
        "{:<8} {:<5} {:<4} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>7}",
        "graph",
        "algo",
        "plat",
        "makespan",
        "compute+",
        "messaging",
        "barrier",
        "computeCalls",
        "messages",
        "bytes",
        "steps"
    );
    for dataset in Dataset::all(&config)? {
        eprintln!("running {} ...", dataset.profile.name());
        for cell in run_matrix(&dataset, &algos, &config.run_opts()) {
            let m = &cell.metrics;
            println!(
                "{:<8} {:<5} {:<4} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>7}",
                cell.dataset,
                cell.algo.name(),
                cell.platform.name(),
                fmt_dur(m.makespan),
                fmt_dur(m.compute_plus),
                fmt_dur(m.messaging),
                fmt_dur(m.barrier),
                m.counters.compute_calls,
                m.counters.messages_sent,
                m.counters.bytes_sent,
                m.supersteps,
            );
        }
    }
    println!();
    println!("# Paper shape (Fig. 5): ICM's compute-call and message counts drop by");
    println!("# the average lifespan factor vs. the per-snapshot platforms on long-");
    println!("# lifespan graphs, and match them exactly on unit-lifespan graphs.");
    println!("# Barrier time dominates on the large-diameter USRN.");
    Ok(())
}
