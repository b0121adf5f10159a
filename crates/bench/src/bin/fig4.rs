//! Fig. 4 reproduction: log-log scatter of (a) compute calls vs. compute+
//! time and (b) messages vs. messaging time across the whole
//! (dataset × algorithm × platform) corpus, with the R² correlation the
//! paper reports (0.80 for compute+, 0.95 for messaging).
//!
//! Pass `--quick` to run a 4-algorithm subset.

use graphite_bench::{algos_from_args, log_log_r2, run_matrix, Dataset, HarnessConfig};

fn main() -> Result<(), String> {
    let config = HarnessConfig::from_env();
    let algos = algos_from_args();
    println!(
        "# Fig. 4 — primitive counts vs. time, log-log (scale={}, workers={})",
        config.scale, config.workers
    );
    let mut compute_pts = Vec::new();
    let mut message_pts = Vec::new();
    println!(
        "{:<8} {:<5} {:<4} {:>12} {:>12} {:>12} {:>12}",
        "graph", "algo", "plat", "computeCalls", "compute+_s", "messages", "messaging_s"
    );
    for dataset in Dataset::all(&config)? {
        eprintln!("running {} ...", dataset.profile.name());
        for cell in run_matrix(&dataset, &algos, &config.run_opts()) {
            let m = &cell.metrics;
            let cp = m.compute_plus.as_secs_f64();
            let ms = m.messaging.as_secs_f64();
            println!(
                "{:<8} {:<5} {:<4} {:>12} {:>12.6} {:>12} {:>12.6}",
                cell.dataset,
                cell.algo.name(),
                cell.platform.name(),
                m.counters.compute_calls,
                cp,
                m.counters.messages_sent,
                ms,
            );
            compute_pts.push((m.counters.compute_calls as f64, cp));
            message_pts.push((m.counters.messages_sent as f64, ms));
        }
    }
    println!();
    println!("points: {}", compute_pts.len());
    println!(
        "R^2 (compute calls vs compute+ time):   {:.3}",
        log_log_r2(&compute_pts)
    );
    println!(
        "R^2 (messages vs messaging time):       {:.3}",
        log_log_r2(&message_pts)
    );
    println!();
    println!("# Paper shape (Fig. 4): high correlation for both factors");
    println!("# (paper: R^2 = 0.80 compute+, 0.95 messaging) — platform time is");
    println!("# explained by the primitives, not engineering artifacts.");
    Ok(())
}
