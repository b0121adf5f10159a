//! # graphite-bench — the evaluation harness
//!
//! Regenerates every table and figure of the ICM paper's evaluation
//! (Sec. VII) over the synthetic dataset profiles:
//!
//! * `table1` — dataset characteristics (Table 1)
//! * `table2` — baseline/GRAPHITE makespan ratios (Table 2)
//! * `fig4`   — primitive-count vs. time correlation (Fig. 4)
//! * `fig5`   — per-algorithm makespan / calls / messages (Fig. 5)
//! * `fig6a`  — representation memory footprints (Fig. 6a)
//! * `fig6b`  — warp-combiner ablation (Fig. 6b)
//! * `fig6c`  — warp-suppression ablation (Fig. 6c)
//! * `fig7`   — weak scaling (Fig. 7)
//! * `loc`    — user-logic lines-of-code comparison (Sec. VII-B8)
//!
//! Each binary prints machine-readable rows plus the qualitative
//! expectation from the paper. `GRAPHITE_SCALE` scales the datasets;
//! `GRAPHITE_WORKERS` sets the worker count (default 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod tracefmt;

use graphite_algorithms::registry::{self, Algo, Platform, RunOpts};
use graphite_bsp::metrics::RunMetrics;
use graphite_datagen::Profile;
use graphite_tgraph::graph::TemporalGraph;
use graphite_tgraph::transform::TransformedGraph;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Harness-wide configuration, read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Dataset scale multiplier (`GRAPHITE_SCALE`, default 1).
    pub scale: usize,
    /// BSP worker count (`GRAPHITE_WORKERS`, default 4).
    pub workers: usize,
    /// Seed for all generators (`GRAPHITE_SEED`, default 42).
    pub seed: u64,
}

impl HarnessConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let get = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        HarnessConfig {
            scale: get("GRAPHITE_SCALE", 1).max(1),
            workers: get("GRAPHITE_WORKERS", 4).max(1),
            seed: get("GRAPHITE_SEED", 42) as u64,
        }
    }

    /// Run options derived from this configuration.
    pub fn run_opts(&self) -> RunOpts {
        RunOpts {
            workers: self.workers,
            ..Default::default()
        }
    }
}

/// One generated dataset plus its (lazily built) transformed graph.
pub struct Dataset {
    /// The profile this models.
    pub profile: Profile,
    /// The temporal graph.
    pub graph: Arc<TemporalGraph>,
    transformed: std::sync::OnceLock<Arc<TransformedGraph>>,
}

impl Dataset {
    /// Generates the dataset for `profile`.
    pub fn new(profile: Profile, config: &HarnessConfig) -> Self {
        Dataset {
            profile,
            graph: Arc::new(profile.generate(config.scale, config.seed)),
            transformed: std::sync::OnceLock::new(),
        }
    }

    /// Wraps an already-generated graph (for custom datasets).
    pub fn from_graph(profile: Profile, graph: Arc<TemporalGraph>) -> Self {
        Dataset {
            profile,
            graph,
            transformed: std::sync::OnceLock::new(),
        }
    }

    /// All six paper datasets, or the subset named by `GRAPHITE_PROFILES`
    /// (comma-separated, case-insensitive profile names — e.g.
    /// `GRAPHITE_PROFILES=gplus,usrn` for a quick smoke run).
    ///
    /// # Errors
    /// A name that matches no profile is rejected with the valid names: a
    /// mistyped filter must not run, and report, nothing.
    pub fn all(config: &HarnessConfig) -> Result<Vec<Dataset>, String> {
        let filter = std::env::var("GRAPHITE_PROFILES").unwrap_or_default();
        let names: Vec<&str> = filter
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let named = |p: &Profile, name: &str| p.name().eq_ignore_ascii_case(name);
        if let Some(unknown) = names
            .iter()
            .find(|n| !Profile::ALL.iter().any(|p| named(p, n)))
        {
            let valid: Vec<&str> = Profile::ALL.iter().map(Profile::name).collect();
            return Err(format!(
                "GRAPHITE_PROFILES: unknown profile `{unknown}` (valid: {})",
                valid.join(", ")
            ));
        }
        Ok(Profile::ALL
            .iter()
            .filter(|p| names.is_empty() || names.iter().any(|n| named(p, n)))
            .map(|p| Dataset::new(*p, config))
            .collect())
    }

    /// The transformed (time-expanded) graph, built once on demand.
    pub fn transformed(&self) -> Arc<TransformedGraph> {
        Arc::clone(self.transformed.get_or_init(|| {
            let opts = graphite_tgraph::transform::TransformOptions::default();
            Arc::new(graphite_tgraph::transform::transform_for_paths(
                &self.graph,
                &opts,
            ))
        }))
    }
}

/// One cell of the evaluation matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Dataset name.
    pub dataset: &'static str,
    /// Algorithm.
    pub algo: Algo,
    /// Platform.
    pub platform: Platform,
    /// The run's metrics.
    pub metrics: RunMetrics,
}

impl MatrixCell {
    /// Makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.metrics.makespan.as_secs_f64()
    }
}

/// Runs `algo` on `platform` over `dataset`, if supported.
pub fn run_cell(
    dataset: &Dataset,
    algo: Algo,
    platform: Platform,
    opts: &RunOpts,
) -> Option<MatrixCell> {
    let transformed = (platform == Platform::Tgb).then(|| dataset.transformed());
    let outcome = registry::run(algo, platform, &dataset.graph, transformed.as_ref(), opts).ok()?;
    Some(MatrixCell {
        dataset: dataset.profile.name(),
        algo,
        platform,
        metrics: outcome.metrics,
    })
}

/// The platforms an algorithm is compared on (ICM first).
pub fn platforms_for(algo: Algo) -> Vec<Platform> {
    let mut out = vec![Platform::Icm];
    for p in [
        Platform::Msb,
        Platform::Chlonos,
        Platform::Tgb,
        Platform::Goffish,
    ] {
        if p.supports(algo) {
            out.push(p);
        }
    }
    out
}

/// Runs the full (algorithm × platform) matrix over `dataset`.
pub fn run_matrix(dataset: &Dataset, algos: &[Algo], opts: &RunOpts) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for &algo in algos {
        for platform in platforms_for(algo) {
            if let Some(cell) = run_cell(dataset, algo, platform, opts) {
                cells.push(cell);
            }
        }
    }
    cells
}

/// The algorithm subset used by quick harness runs (one cheap and one
/// message-heavy algorithm per class).
pub fn quick_algos() -> Vec<Algo> {
    vec![Algo::Bfs, Algo::Pr, Algo::Sssp, Algo::Reach]
}

/// The full 12-algorithm list.
pub fn all_algos() -> Vec<Algo> {
    Algo::ALL.to_vec()
}

/// Selects algorithms from argv: `--quick` for the subset, otherwise all.
pub fn algos_from_args() -> Vec<Algo> {
    if std::env::args().any(|a| a == "--quick") {
        quick_algos()
    } else {
        all_algos()
    }
}

/// Geometric mean of `baseline/icm` makespan ratios (Table 2 statistic).
pub fn mean_ratio(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|(base, icm)| (base.max(1e-9) / icm.max(1e-9)).ln())
        .sum();
    (log_sum / pairs.len() as f64).exp()
}

/// Ordinary-least-squares R² of `y` against `x` in log10–log10 space
/// (the Fig. 4 statistic).
pub fn log_log_r2(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.log10(), y.log10()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    (sxy * sxy) / (sxx * syy)
}

/// Pretty-prints a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Groups cells by `(dataset, algo)` for ratio computations.
pub fn by_dataset_algo(
    cells: &[MatrixCell],
) -> BTreeMap<(&'static str, &'static str), Vec<&MatrixCell>> {
    let mut map: BTreeMap<(&'static str, &'static str), Vec<&MatrixCell>> = BTreeMap::new();
    for c in cells {
        map.entry((c.dataset, c.algo.name())).or_default().push(c);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r2_of_a_perfect_power_law_is_one() {
        let pts: Vec<(f64, f64)> = (1..50).map(|i| (i as f64, (i * i) as f64)).collect();
        let r2 = log_log_r2(&pts);
        assert!((r2 - 1.0).abs() < 1e-9, "{r2}");
    }

    #[test]
    fn r2_of_noise_is_low() {
        // Deterministic pseudo-noise.
        let pts: Vec<(f64, f64)> = (1..200u64)
            .map(|i| {
                let x = (i % 17 + 1) as f64;
                let y = (i.wrapping_mul(2654435761) % 97 + 1) as f64;
                (x, y)
            })
            .collect();
        assert!(log_log_r2(&pts) < 0.3);
    }

    #[test]
    fn mean_ratio_is_geometric() {
        let r = mean_ratio(&[(4.0, 1.0), (1.0, 4.0)]);
        assert!((r - 1.0).abs() < 1e-9);
        let r = mean_ratio(&[(8.0, 2.0), (8.0, 2.0)]);
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quick_matrix_runs_on_a_small_profile() {
        let config = HarnessConfig {
            scale: 1,
            workers: 2,
            seed: 7,
        };
        // A deliberately tiny graph keeps this test fast.
        let dataset = Dataset::from_graph(
            Profile::GPlus,
            Arc::new(graphite_datagen::generate(
                &graphite_datagen::GenParams::small(7),
            )),
        );
        let cells = run_matrix(&dataset, &[Algo::Bfs, Algo::Sssp], &config.run_opts());
        // BFS: ICM+MSB+CHL; SSSP: ICM+TGB+GOF.
        assert_eq!(cells.len(), 6);
        for c in &cells {
            assert!(
                c.metrics.counters.compute_calls > 0,
                "{:?}/{:?}",
                c.algo,
                c.platform
            );
        }
    }
}
