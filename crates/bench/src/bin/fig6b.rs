//! Fig. 6(b) reproduction: the inline warp-combiner ablation on the
//! MAG-like profile — compute+ time and makespan with the combiner
//! enabled vs. disabled, per algorithm (the paper reports 17–25 % lower
//! compute time and 1.2–1.5× lower makespan with it on). "On" is both
//! halves of the combiner: the sender-side fold of an exact combine and
//! the receiver's fold; the `wire on` column is the share of the emitted
//! messages the fold left on the wire (100 % for PageRank's inexact sum).

use graphite_algorithms::registry::{Algo, Platform};
use graphite_bench::{fmt_dur, run_cell, Dataset, HarnessConfig};
use graphite_datagen::Profile;

fn main() {
    let config = HarnessConfig::from_env();
    let dataset = Dataset::new(Profile::Mag, &config);
    // The combiner matters for commutative-associative algorithms; LCC/TC
    // define none (paper Sec. VII-B4).
    let algos = [
        Algo::Bfs,
        Algo::Wcc,
        Algo::Pr,
        Algo::Sssp,
        Algo::Eat,
        Algo::Reach,
        Algo::Tmst,
    ];
    println!(
        "# Fig. 6(b) — warp combiner ablation on MAG profile (scale={}, workers={})",
        config.scale, config.workers
    );
    println!(
        "{:<5} {:>11} {:>11} {:>9} | {:>11} {:>11} {:>9} | {:>8}",
        "algo", "comp+ on", "comp+ off", "ratio", "mksp on", "mksp off", "ratio", "wire on"
    );
    for algo in algos {
        let mut opts = config.run_opts();
        opts.digest = false;
        opts.combiner = true;
        let on = run_cell(&dataset, algo, Platform::Icm, &opts).expect("icm supports all");
        opts.combiner = false;
        let off = run_cell(&dataset, algo, Platform::Icm, &opts).expect("icm supports all");
        let c_on = on.metrics.compute_plus.as_secs_f64();
        let c_off = off.metrics.compute_plus.as_secs_f64();
        let m_on = on.makespan_s();
        let m_off = off.makespan_s();
        let c = &on.metrics.counters;
        let wire = 100.0 * c.wire_messages as f64 / c.messages_sent.max(1) as f64;
        println!(
            "{:<5} {:>11} {:>11} {:>8.2}x | {:>11} {:>11} {:>8.2}x | {:>7.1}%",
            algo.name(),
            fmt_dur(on.metrics.compute_plus),
            fmt_dur(off.metrics.compute_plus),
            c_off / c_on.max(1e-9),
            fmt_dur(on.metrics.makespan),
            fmt_dur(off.metrics.makespan),
            m_off / m_on.max(1e-9),
            wire,
        );
    }
    println!();
    println!("# Paper shape (Fig. 6b): enabling the combiner folds each warped");
    println!("# message group to one message before compute, cutting compute time");
    println!("# 17-25% and makespan 1.2-1.5x on MAG. Gains grow with the number of");
    println!("# messages received per interval vertex. Here \"on\" also folds an");
    println!("# exact combine's repeats on the sending side, before the wire.");
}
