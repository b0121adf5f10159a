//! A uniform runner over (algorithm × platform) for the benchmark
//! harness: executes any of the paper's 12 algorithms on any applicable
//! platform, returning the run metrics plus a per-(vertex, time-point)
//! result digest so the harness can assert that all platforms produce
//! identical outcomes (paper Sec. VII-B1).

use crate::catalog::{enc, visit_icm, IcmParams, IcmVisitor};
pub use crate::catalog::{Algo, Platform};
use crate::common::{digest_interval_states, ResultDigest};
use crate::{bfs, gof_cluster, gof_paths, pagerank, scc, tgb_paths, wcc};
use graphite_baselines::chlonos::{run_chlonos, ChlConfig};
use graphite_baselines::goffish::{run_goffish, GofConfig, GofProgram};
use graphite_baselines::msb::{run_msb, MsbConfig};
use graphite_baselines::tgb::{run_tgb, TgbResult};
use graphite_baselines::vcm::VcmProgram;
use graphite_baselines::EdgeWeights;
use graphite_bsp::engine::BspConfig;
use graphite_bsp::error::BspError;
use graphite_bsp::fault::FaultPlan;
use graphite_bsp::metrics::RunMetrics;
use graphite_bsp::recover::RecoveryConfig;
use graphite_bsp::trace::TraceConfig;
use graphite_icm::prelude::*;
use graphite_icm::{PartitionStrategy, RunConfig};
use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};
use graphite_tgraph::time::Time;
use graphite_tgraph::transform::{transform_for_paths, TransformOptions, TransformedGraph};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Options for a registry run.
///
/// The run-wide options — workers, placement and the six substrate
/// options (`max_supersteps`, `superstep_budget`, `trace`,
/// `perturb_schedule`, `fault_plan`, `recovery`) — are lowered in one
/// place, [`RunOpts::run_config`], onto the [`RunConfig`] every platform
/// embeds, and every platform honours each of them over its whole run:
/// MSB, Chlonos and GoFFish walk their snapshots, batches or time-points
/// as the phases of one BSP run, and TGB places its replicas by every
/// strategy.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// BSP workers, at most [`RunOpts::MAX_WORKERS`].
    pub workers: usize,
    /// Source (TD traversals) — defaults to the smallest vid.
    pub source: Option<VertexId>,
    /// Journey start time for EAT/TMST/RH.
    pub start: Time,
    /// Deadline for LD — defaults to the window's last time-point.
    pub deadline: Option<Time>,
    /// Chlonos batch size, at least 1.
    pub batch_size: usize,
    /// ICM inline warp combiner.
    pub combiner: bool,
    /// ICM warp suppression threshold.
    pub suppression: Option<f64>,
    /// Superstep safety cap over the whole run. Spending it is the typed
    /// [`graphite_bsp::error::BspError::SuperstepLimit`].
    pub max_supersteps: u64,
    /// Optional per-query execution budget below the safety cap, over the
    /// whole run.
    /// Exhausting it is the typed
    /// [`graphite_bsp::error::BspError::BudgetExceeded`] — the serving
    /// layer derives this from its admission cost model (DESIGN.md §15).
    pub superstep_budget: Option<u64>,
    /// Compute the result digest (costs per-point expansion).
    pub digest: bool,
    /// Structured-trace recording level. Off by default; results are
    /// bit-identical at every level.
    pub trace: TraceConfig,
    /// Vertex-placement strategy (see `graphite-part`; results are
    /// placement-invariant). Hash — the paper's — by default.
    pub partition: PartitionStrategy,
    /// Schedule-perturbation seed (race-harness use; results are
    /// bit-identical for every seed).
    pub perturb_schedule: Option<u64>,
    /// Deterministic fault injection. Without [`RunOpts::recovery`] an
    /// injected fault fails the run with a typed error via [`try_run`];
    /// with it, the run rolls back and replays to a bit-identical result.
    pub fault_plan: Option<FaultPlan>,
    /// When set, runs checkpoint on this schedule and roll back on
    /// recoverable faults (every program state is wire-encodable).
    pub recovery: Option<RecoveryConfig>,
}

impl RunOpts {
    /// The most workers a run may ask for. Every worker's outbox holds a
    /// batch and a frame per worker, so a run allocates `workers²`
    /// exchange slots before its first superstep; the wire's `u16` worker
    /// index alone would let one request ask for about 4.3 × 10⁹.
    pub const MAX_WORKERS: usize = 64;

    /// The one lowering of these options onto the configuration every
    /// platform embeds — the CLI's, the serving layer's and the streaming
    /// layer's runs alike.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] when `workers` is above
    /// [`RunOpts::MAX_WORKERS`].
    pub fn run_config(&self) -> Result<RunConfig, BspError> {
        if self.workers > Self::MAX_WORKERS {
            return Err(BspError::Config {
                detail: format!(
                    "{} workers is above the cap of {}",
                    self.workers,
                    Self::MAX_WORKERS
                ),
            });
        }
        Ok(RunConfig {
            workers: self.workers,
            partition: self.partition,
            bsp: BspConfig {
                max_supersteps: self.max_supersteps,
                superstep_budget: self.superstep_budget,
                perturb_schedule: self.perturb_schedule,
                fault_plan: self.fault_plan.clone(),
                recovery: self.recovery.clone(),
                trace: self.trace,
            },
        })
    }

    /// The ICM configuration of these options: [`RunOpts::run_config`]
    /// plus the combiner and the suppression threshold.
    ///
    /// # Errors
    ///
    /// [`RunOpts::run_config`]'s.
    pub fn icm_config(&self) -> Result<IcmConfig, BspError> {
        Ok(IcmConfig {
            run: self.run_config()?,
            combiner: self.combiner,
            suppression_threshold: self.suppression,
        })
    }
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            workers: 4,
            source: None,
            start: 0,
            deadline: None,
            batch_size: 16,
            combiner: true,
            suppression: Some(0.7),
            max_supersteps: BspConfig::DEFAULT_MAX_SUPERSTEPS,
            superstep_budget: None,
            digest: true,
            trace: TraceConfig::default(),
            partition: PartitionStrategy::default(),
            perturb_schedule: None,
            fault_plan: None,
            recovery: None,
        }
    }
}

/// The outcome of a registry run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Primitive counts and timing splits.
    pub metrics: RunMetrics,
    /// Per-(vertex, time-point) result digest over the snapshot window,
    /// when requested. PageRank values are quantized to 1e-6; LD results
    /// from window-bound platforms are clipped identically.
    pub digest: Option<ResultDigest>,
}

/// Returned when a platform does not implement an algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// The algorithm requested.
    pub algo: Algo,
    /// The platform requested.
    pub platform: Platform,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} does not support {}",
            self.platform.name(),
            self.algo.name()
        )
    }
}

impl std::error::Error for Unsupported {}

/// Why a [`try_run`] failed: either the combination is not implemented, or
/// the execution itself failed (worker panic, codec corruption, admission
/// rejection at a serving layer, exhausted recovery budget, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The (algorithm, platform) cell is not implemented.
    Unsupported(Unsupported),
    /// The run started and failed with a typed engine error.
    Bsp(BspError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Unsupported(u) => u.fmt(f),
            RunError::Bsp(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<Unsupported> for RunError {
    fn from(u: Unsupported) -> Self {
        RunError::Unsupported(u)
    }
}

impl From<BspError> for RunError {
    fn from(e: BspError) -> Self {
        RunError::Bsp(e)
    }
}

/// Runs `algo` on `platform` over a *borrowed* `graph` (the caller keeps
/// its handle — resident processes execute many runs against one load). A
/// pre-built transformed graph may be supplied for TGB runs (otherwise one
/// is built on the fly).
///
/// # Panics
///
/// Panics when the execution itself fails (worker panic, codec corruption,
/// exhausted recovery); use [`try_run`] to handle those as typed errors.
pub fn run(
    algo: Algo,
    platform: Platform,
    graph: &Arc<TemporalGraph>,
    transformed: Option<&Arc<TransformedGraph>>,
    opts: &RunOpts,
) -> Result<RunOutcome, Unsupported> {
    match try_run(algo, platform, graph, transformed, opts) {
        Ok(outcome) => Ok(outcome),
        Err(RunError::Unsupported(u)) => Err(u),
        Err(RunError::Bsp(e)) => panic!("{} on {} failed: {e}", algo.name(), platform.name()),
    }
}

/// One registry run — the graph, its options and its resolved parameters
/// — with one helper per baseline platform. Each helper adds that
/// platform's extras to [`RunOpts::run_config`] and packages its result
/// into a [`RunOutcome`], so a baseline cell of [`try_run`] is one
/// expression: the platform, the program, the digest encoder.
struct Run<'a> {
    graph: &'a Arc<TemporalGraph>,
    transformed: Option<&'a Arc<TransformedGraph>>,
    opts: &'a RunOpts,
    params: IcmParams,
}

impl Run<'_> {
    /// Packages a snapshot-indexed baseline result (dense vertex → state
    /// per time-point), digesting it when asked and possible.
    fn per_snapshot<S>(
        &self,
        metrics: RunMetrics,
        // ResultDigest::fold is an order-independent (wrapping-add)
        // combiner, so hash iteration order cannot change the digest.
        per_snapshot: &[(Time, HashMap<u32, S>)],
        encode: Option<fn(&S) -> u64>,
    ) -> RunOutcome {
        let digest = encode.filter(|_| self.opts.digest).map(|encode| {
            let mut d = ResultDigest::default();
            for (t, snapshot) in per_snapshot {
                for (v, s) in snapshot {
                    d.fold(self.graph.vertex(VIdx(*v)).vid, *t, encode(s));
                }
            }
            d
        });
        RunOutcome { metrics, digest }
    }

    /// MSB.
    fn msb<P: VcmProgram>(
        &self,
        program: P,
        encode: fn(&P::State) -> u64,
    ) -> Result<RunOutcome, BspError> {
        let config = MsbConfig {
            run: self.opts.run_config()?,
            window: Some(self.params.window),
            collect_states: self.opts.digest,
        };
        let r = run_msb(Arc::clone(self.graph), Arc::new(program), &config)?;
        Ok(self.per_snapshot(r.metrics, &r.per_snapshot, Some(encode)))
    }

    /// Chlonos.
    fn chlonos<P>(&self, program: P, encode: fn(&P::State) -> u64) -> Result<RunOutcome, BspError>
    where
        P: VcmProgram,
        P::Msg: PartialEq,
    {
        let config = ChlConfig {
            run: self.opts.run_config()?,
            window: Some(self.params.window),
            collect_states: self.opts.digest,
            batch_size: self.opts.batch_size,
        };
        let r = run_chlonos(Arc::clone(self.graph), Arc::new(program), &config)?;
        Ok(self.per_snapshot(r.metrics, &r.per_snapshot, Some(encode)))
    }

    /// GoFFish-TS.
    fn goffish<P: GofProgram>(
        &self,
        program: P,
        encode: Option<fn(&P::State) -> u64>,
    ) -> Result<RunOutcome, BspError> {
        let config = GofConfig {
            run: self.opts.run_config()?,
            window: Some(self.params.window),
            collect_states: self.opts.digest,
            weights: EdgeWeights {
                w1: self.params.labels.travel_cost,
                w2: self.params.labels.travel_time,
            },
        };
        let r = run_goffish(Arc::clone(self.graph), Arc::new(program), &config)?;
        Ok(self.per_snapshot(r.metrics, &r.per_snapshot, encode))
    }

    /// TGB: `make` builds the program over the transformed graph (the
    /// caller's, or one built here); `project` digests the replica states
    /// for the one cell whose projection is comparable (SSSP).
    fn tgb<P: VcmProgram>(
        &self,
        make: impl FnOnce(Arc<TransformedGraph>) -> P,
        project: Option<Projection<P::State>>,
    ) -> Result<RunOutcome, BspError> {
        let run = self.opts.run_config()?;
        let transform_opts = TransformOptions {
            window: Some(self.params.window),
            ..Default::default()
        };
        let transformed = self
            .transformed
            .cloned()
            .unwrap_or_else(|| Arc::new(transform_for_paths(self.graph, &transform_opts)));
        let r = run_tgb(
            Arc::clone(self.graph),
            Some(Arc::clone(&transformed)),
            &transform_opts,
            Arc::new(make(transformed)),
            &run,
        )?;
        let digest = project
            .filter(|_| self.opts.digest)
            .map(|project| project(self, &r));
        Ok(RunOutcome {
            metrics: r.vcm.metrics,
            digest,
        })
    }
}

/// Digests a TGB run's replica states (see [`Run::tgb`]).
type Projection<S> = fn(&Run<'_>, &TgbResult<S>) -> ResultDigest;

/// The [`Projection`] of TGB SSSP onto ICM's interval states.
fn project_sssp(run: &Run<'_>, r: &TgbResult<i64>) -> ResultDigest {
    let IcmParams { source, window, .. } = run.params;
    let mut projected = r.project(run.graph, crate::common::INF);
    // Alg. 1 pins the source's cost to 0 for its whole lifespan; the
    // replica projection only starts at the source's first replica, so
    // align it explicitly.
    projected.insert(source, vec![(window, 0)]);
    digest_interval_states(&projected, window, enc::long)
}

/// The `Platform::Icm` cell of every algorithm: run the catalog's program
/// — checkpointed and recoverable when the caller asked for recovery —
/// then digest its interval states if asked.
struct RunCell<'a>(&'a Run<'a>);

impl IcmVisitor for RunCell<'_> {
    type Out = Result<RunOutcome, BspError>;

    fn visit<P>(self, program: P, encode: Option<fn(&P::State) -> u64>) -> Self::Out
    where
        P: IntervalProgram,
    {
        let Run { graph, opts, .. } = *self.0;
        let r = run_icm(graph, Arc::new(program), &opts.icm_config()?, None)?;
        let digest = encode
            .filter(|_| opts.digest)
            .map(|encode| digest_interval_states(&r.states, self.0.params.window, encode));
        Ok(RunOutcome {
            metrics: r.metrics,
            digest,
        })
    }
}

/// Fallible [`run`]: execution failures (injected faults without recovery,
/// worker panics, exhausted recovery budgets, a spent superstep cap) on
/// *every* platform surface as [`RunError::Bsp`] instead of panicking.
/// This is the entry point the serving layer uses — a failing query must
/// never take the resident engine down with it.
///
/// # Errors
///
/// [`RunError::Unsupported`] when the platform does not implement the
/// algorithm; [`RunError::Bsp`] when execution fails.
pub fn try_run(
    algo: Algo,
    platform: Platform,
    graph: &Arc<TemporalGraph>,
    transformed: Option<&Arc<TransformedGraph>>,
    opts: &RunOpts,
) -> Result<RunOutcome, RunError> {
    let unsupported = RunError::Unsupported(Unsupported { algo, platform });
    if !platform.supports(algo) {
        return Err(unsupported);
    }
    let params = IcmParams::resolve(graph, opts.source, opts.start, opts.deadline);
    let run = Run {
        graph,
        transformed,
        opts,
        params,
    };
    let IcmParams {
        source,
        start,
        deadline,
        ..
    } = params;
    let target = source;
    let iterations = pagerank::DEFAULT_ITERATIONS;
    let outcome = match (platform, algo) {
        (Platform::Icm, _) => visit_icm(algo, &params, RunCell(&run)),

        (Platform::Msb, Algo::Bfs) => run.msb(bfs::VcmBfs { source }, enc::long),
        (Platform::Msb, Algo::Wcc) => run.msb(wcc::VcmWcc, enc::label),
        (Platform::Msb, Algo::Scc) => run.msb(scc::VcmScc, enc::scc),
        (Platform::Msb, Algo::Pr) => run.msb(pagerank::VcmPageRank { iterations }, enc::rank),

        (Platform::Chlonos, Algo::Bfs) => run.chlonos(bfs::VcmBfs { source }, enc::long),
        (Platform::Chlonos, Algo::Wcc) => run.chlonos(wcc::VcmWcc, enc::label),
        (Platform::Chlonos, Algo::Scc) => run.chlonos(scc::VcmScc, enc::scc),
        (Platform::Chlonos, Algo::Pr) => {
            run.chlonos(pagerank::VcmPageRank { iterations }, enc::rank)
        }

        (Platform::Goffish, Algo::Sssp) => {
            run.goffish(gof_paths::GofSssp { source }, Some(enc::long))
        }
        (Platform::Goffish, Algo::Eat) => {
            run.goffish(gof_paths::GofEat { source, start }, Some(enc::long))
        }
        (Platform::Goffish, Algo::Fast) => run.goffish(gof_paths::GofFast { source }, None),
        (Platform::Goffish, Algo::Ld) => run.goffish(gof_paths::GofLd { target, deadline }, None),
        (Platform::Goffish, Algo::Tmst) => {
            run.goffish(gof_paths::GofTmst { source, start }, Some(enc::tmst))
        }
        (Platform::Goffish, Algo::Reach) => {
            run.goffish(gof_paths::GofReach { source, start }, Some(enc::flag))
        }
        (Platform::Goffish, Algo::Lcc) => run.goffish(gof_cluster::GofLcc, Some(enc::label)),
        (Platform::Goffish, Algo::Tc) => run.goffish(gof_cluster::GofTc, Some(enc::label)),

        (Platform::Tgb, Algo::Sssp) => {
            run.tgb(|_| tgb_paths::TgbSssp { source }, Some(project_sssp))
        }
        // One replica program serves both: EAT is extracted from the
        // reached flags (`tgb_paths::tgb_earliest_arrivals`).
        (Platform::Tgb, Algo::Eat | Algo::Reach) => run.tgb(
            |transformed| tgb_paths::TgbReach {
                source,
                start,
                transformed,
            },
            None,
        ),
        (Platform::Tgb, Algo::Fast) => run.tgb(
            |transformed| tgb_paths::TgbFast {
                source,
                transformed,
            },
            None,
        ),
        (Platform::Tgb, Algo::Ld) => run.tgb(
            |transformed| tgb_paths::TgbLd {
                target,
                deadline,
                transformed,
            },
            None,
        ),
        (Platform::Tgb, Algo::Tmst) => run.tgb(
            |transformed| tgb_paths::TgbTmst {
                source,
                start,
                transformed,
            },
            None,
        ),
        _ => return Err(unsupported),
    };
    Ok(outcome?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::fixtures::transit_graph;

    #[test]
    fn support_matrix_matches_the_paper() {
        for algo in Algo::ALL {
            assert!(Platform::Icm.supports(algo), "{algo:?}");
            assert_eq!(Platform::Msb.supports(algo), algo.is_ti());
            assert_eq!(Platform::Chlonos.supports(algo), algo.is_ti());
            assert_eq!(Platform::Goffish.supports(algo), !algo.is_ti());
        }
        assert!(Platform::Tgb.supports(Algo::Sssp));
        assert!(!Platform::Tgb.supports(Algo::Lcc));
        assert!(!Platform::Tgb.supports(Algo::Bfs));
    }

    #[test]
    fn unsupported_combos_are_rejected() {
        let g = Arc::new(transit_graph());
        let err = run(Algo::Bfs, Platform::Tgb, &g, None, &RunOpts::default()).unwrap_err();
        assert_eq!(err.algo, Algo::Bfs);
        assert!(err.to_string().contains("TGB"));
    }

    /// A spent superstep cap is the same typed error on every platform —
    /// the wrappers' inner engines report it, they do not panic.
    #[test]
    fn every_platform_reports_the_superstep_cap_as_a_typed_error() {
        let g = Arc::new(transit_graph());
        let capped = RunOpts {
            max_supersteps: 1,
            ..RunOpts::default()
        };
        for (algo, platform) in [
            (Algo::Bfs, Platform::Icm),
            (Algo::Bfs, Platform::Msb),
            (Algo::Bfs, Platform::Chlonos),
            // GoFFish path messages all travel to later snapshots (one
            // inner superstep each); clustering exchanges within one.
            (Algo::Lcc, Platform::Goffish),
            (Algo::Sssp, Platform::Tgb),
        ] {
            let err = try_run(algo, platform, &g, None, &capped).unwrap_err();
            let limit = BspError::SuperstepLimit { limit: 1 };
            assert_eq!(err, RunError::Bsp(limit), "{algo:?} on {platform:?}");
        }
        let nobody = RunOpts {
            workers: 0,
            ..RunOpts::default()
        };
        for platform in Platform::ALL {
            let algo = if platform.supports(Algo::Bfs) {
                Algo::Bfs
            } else {
                Algo::Sssp
            };
            match try_run(algo, platform, &g, None, &nobody) {
                Err(RunError::Bsp(BspError::Config { .. })) => {}
                other => panic!("{platform:?}: expected a config error, got {other:?}"),
            }
        }
    }

    /// The superstep budget is the whole run's on every platform: a
    /// budget each snapshot, batch or time-point fits but the walk does
    /// not is spent, and the error names the budget asked for. Recovery
    /// is accepted everywhere, a fault fires once per query, and a
    /// recovered run's digest is the clean run's.
    #[test]
    fn every_platform_charges_its_whole_run_and_recovers() {
        let g = Arc::new(transit_graph());
        // Three Chlonos batches, so no walk here is one phase.
        let base = RunOpts {
            batch_size: 3,
            ..RunOpts::default()
        };
        for (algo, platform) in [
            (Algo::Bfs, Platform::Icm),
            (Algo::Bfs, Platform::Msb),
            (Algo::Bfs, Platform::Chlonos),
            (Algo::Sssp, Platform::Goffish),
            (Algo::Sssp, Platform::Tgb),
        ] {
            let run = |opts: RunOpts| try_run(algo, platform, &g, None, &opts);
            let clean = run(base.clone()).expect("a clean run");
            let walk = clean.metrics.supersteps;
            let budget = |b| RunOpts {
                superstep_budget: Some(b),
                ..base.clone()
            };
            assert_eq!(
                run(budget(walk - 1)).unwrap_err(),
                RunError::Bsp(BspError::BudgetExceeded { budget: walk - 1 }),
                "{platform:?}"
            );
            assert!(run(budget(walk)).is_ok(), "{platform:?}");
            let recovered = run(RunOpts {
                fault_plan: Some(FaultPlan::panic_at(1, 1)),
                recovery: Some(RecoveryConfig::every(2)),
                ..base.clone()
            })
            .expect("a recovered run");
            assert_eq!(recovered.metrics.recovery.rollbacks, 1, "{platform:?}");
            assert_eq!(recovered.digest, clean.digest, "{platform:?}");
        }
        let hash = try_run(Algo::Sssp, Platform::Tgb, &g, None, &RunOpts::default())
            .expect("TGB under hash");
        for partition in [PartitionStrategy::Ldg, PartitionStrategy::TemporalBalance] {
            let opts = RunOpts {
                partition,
                ..RunOpts::default()
            };
            let placed = try_run(Algo::Sssp, Platform::Tgb, &g, None, &opts)
                .unwrap_or_else(|e| panic!("TGB under {}: {e:?}", partition.name()));
            assert_eq!(placed.digest, hash.digest, "TGB under {}", partition.name());
        }
    }

    #[test]
    fn an_empty_chlonos_batch_is_refused_up_front() {
        let g = Arc::new(transit_graph());
        let opts = RunOpts {
            batch_size: 0,
            ..RunOpts::default()
        };
        match try_run(Algo::Bfs, Platform::Chlonos, &g, None, &opts) {
            Err(RunError::Bsp(BspError::Config { detail })) => {
                assert!(detail.contains("batch_size"), "{detail}");
            }
            other => panic!("batch_size 0: expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn ti_digests_agree_across_platforms() {
        let g = Arc::new(transit_graph());
        for algo in [Algo::Bfs, Algo::Wcc, Algo::Scc, Algo::Pr] {
            let icm = run(algo, Platform::Icm, &g, None, &RunOpts::default()).unwrap();
            let msb = run(algo, Platform::Msb, &g, None, &RunOpts::default()).unwrap();
            let chl = run(algo, Platform::Chlonos, &g, None, &RunOpts::default()).unwrap();
            assert_eq!(icm.digest, msb.digest, "{algo:?} icm vs msb");
            assert_eq!(msb.digest, chl.digest, "{algo:?} msb vs chl");
        }
    }

    #[test]
    fn sssp_digests_agree_between_icm_and_tgb() {
        let g = Arc::new(transit_graph());
        let icm = run(Algo::Sssp, Platform::Icm, &g, None, &RunOpts::default()).unwrap();
        let tgb = run(Algo::Sssp, Platform::Tgb, &g, None, &RunOpts::default()).unwrap();
        assert_eq!(icm.digest, tgb.digest);
    }

    #[test]
    fn clustering_digests_agree_between_icm_and_gof() {
        let g = Arc::new(transit_graph());
        for algo in [Algo::Lcc, Algo::Tc] {
            let icm = run(algo, Platform::Icm, &g, None, &RunOpts::default()).unwrap();
            let gof = run(algo, Platform::Goffish, &g, None, &RunOpts::default()).unwrap();
            assert_eq!(icm.digest, gof.digest, "{algo:?}");
        }
    }
}
