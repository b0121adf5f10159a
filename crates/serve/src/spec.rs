//! Query specifications: what a client asks the resident engine to run.
//!
//! A [`QuerySpec`] is the serving layer's unit of work — one registry cell
//! plus its semantic parameters. It carries everything needed to build an
//! isolated `RunOpts` for the execution (each query gets its own engine
//! configuration; only the graph is shared), and it canonicalizes itself
//! into the [`params_digest`](QuerySpec::params_digest) half of the result
//! cache key.
//!
//! The batch text format (one query per line, `#` comments) is what
//! `graphite serve` reads:
//!
//! ```text
//! # algo platform [key=value ...]
//! bfs icm
//! eat icm source=3 start=0
//! sssp tgb workers=2
//! bfs msb perturb=7
//! bfs icm budget=64 retries=1
//! eat icm faults=2 fault_seed=9
//! ```
//!
//! `budget=` caps the query's supersteps (typed `BudgetExceeded` on
//! exhaustion), `retries=` overrides the engine's serve-level retry
//! allowance, and `faults=N` injects a seeded fault plan of `N` faults
//! (with `RecoveryConfig::every(2)` supplied automatically; `N` is at
//! most 64) — the chaos-soak knobs of DESIGN.md §15. `start=`/`deadline=`
//! are at most `i64::MAX`; a `workers=` above `RunOpts::MAX_WORKERS`
//! parses, and the query's run refuses it as every run does.

use graphite_algorithms::registry::{Algo, Platform, RunOpts};
use graphite_bsp::error::BspError;
use graphite_bsp::fault::FaultPlan;
use graphite_bsp::recover::RecoveryConfig;
use graphite_part::PartitionStrategy;
use graphite_tgraph::graph::VertexId;
use graphite_tgraph::time::Time;

/// One query against the resident graph: a registry cell plus parameters.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Algorithm to run.
    pub algo: Algo,
    /// Platform to run it on.
    pub platform: Platform,
    /// BSP workers for this query's isolated engine.
    pub workers: usize,
    /// Source vertex (TD traversals); `None` = registry default.
    pub source: Option<VertexId>,
    /// Journey start time (EAT/TMST/RH).
    pub start: Time,
    /// Deadline (LD); `None` = window end.
    pub deadline: Option<Time>,
    /// Vertex-placement strategy (results are placement-invariant).
    pub partition: PartitionStrategy,
    /// Schedule-perturbation seed (results are bit-identical per seed).
    pub perturb_schedule: Option<u64>,
    /// Deterministic fault injection for this query alone. Faulted
    /// queries bypass the result cache.
    pub fault_plan: Option<FaultPlan>,
    /// Recovery configuration; required for a faulted query to converge.
    pub recovery: Option<RecoveryConfig>,
    /// Explicit superstep budget override. `None` (the default) lets the
    /// engine derive one from its admission cost model (DESIGN.md §15).
    /// Deliberately *not* part of [`QuerySpec::params_digest`]: a budget
    /// cannot change a completed result, and a cache hit costs zero
    /// supersteps, so any budget admits it.
    pub budget: Option<u64>,
    /// Per-query override of the engine's serve-level retry allowance for
    /// transient faults. Also outside the params digest, for the same
    /// reason as [`QuerySpec::budget`].
    pub retries: Option<u64>,
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            algo: Algo::Bfs,
            platform: Platform::Icm,
            workers: 4,
            source: None,
            start: 0,
            deadline: None,
            partition: PartitionStrategy::default(),
            perturb_schedule: None,
            fault_plan: None,
            recovery: None,
            budget: None,
            retries: None,
        }
    }
}

/// Default seed for `faults=N` batch lines without an explicit
/// `fault_seed=` (any fixed value works — the point is determinism).
const DEFAULT_FAULT_SEED: u64 = 0xC4A0_5001;

/// Supersteps within which seeded batch faults fire: early enough that
/// short traversals still hit them, matching `FaultPlan::seeded` use in
/// the fault-matrix tests.
const SEEDED_FAULT_MAX_STEP: u64 = 6;

/// Largest `faults=N` a batch line may ask for. The plan holds one
/// `Fault` per count, so an unbounded `N` from a batch file would be an
/// unbounded allocation in the resident engine; the chaos soak uses at
/// most 6.
const MAX_BATCH_FAULTS: u64 = 64;

impl QuerySpec {
    /// A spec for `algo` on `platform` with default parameters.
    pub fn new(algo: Algo, platform: Platform) -> Self {
        QuerySpec {
            algo,
            platform,
            ..Default::default()
        }
    }

    /// The isolated per-query run options: every query gets its own
    /// engine configuration — only the graph is shared. Digests are
    /// always computed: they are the cache's identity and the client's
    /// proof of determinism.
    pub fn to_opts(&self) -> RunOpts {
        RunOpts {
            workers: self.workers,
            source: self.source,
            start: self.start,
            deadline: self.deadline,
            digest: true,
            partition: self.partition,
            perturb_schedule: self.perturb_schedule,
            fault_plan: self.fault_plan.clone(),
            recovery: self.recovery.clone(),
            superstep_budget: self.budget,
            ..Default::default()
        }
    }

    /// Whether results of this query may be cached and served from the
    /// cache. Fault-injected and recoverable queries execute for real
    /// every time — their *results* are bit-identical to clean runs, but
    /// their recovery metrics (faults rolled back, checkpoints taken) are
    /// the thing under test and not part of
    /// [`QuerySpec::params_digest`], so caching would mask them.
    pub fn cacheable(&self) -> bool {
        self.fault_plan.is_none() && self.recovery.is_none()
    }

    /// Canonical digest of every result-relevant parameter — the
    /// `(algorithm, params)` part of the cache key. Two specs share a
    /// digest iff a cached result of one is bit-identical to a fresh run
    /// of the other: semantic parameters (source, times) *and* execution
    /// parameters that metrics observe (workers, partition, perturbation)
    /// are all folded in.
    pub fn params_digest(&self) -> u64 {
        let mut acc = 0x7365_7276_6530_3031u64; // "serve001"
        let mut fold = |x: u64| {
            acc ^= x;
            acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            acc ^= acc >> 29;
            acc = acc.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            acc ^= acc >> 32;
        };
        fold(self.algo.index());
        fold(self.platform.index());
        fold(self.workers as u64);
        fold(match self.source {
            None => u64::MAX,
            Some(v) => v.0,
        });
        fold(self.start as u64);
        fold(match self.deadline {
            None => u64::MAX,
            Some(t) => t as u64,
        });
        fold(partition_tag(self.partition));
        fold(match self.perturb_schedule {
            None => 0,
            Some(s) => s | 1 << 63,
        });
        acc
    }

    /// Parses one batch-file line (`algo platform [key=value ...]`).
    /// Returns `Ok(None)` for blank lines and `#` comments.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] naming the offending token.
    pub fn parse_line(line: &str) -> Result<Option<QuerySpec>, BspError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut tokens = line.split_whitespace();
        let bad = |what: &str, tok: &str| BspError::Config {
            detail: format!("serve batch: {what} {tok:?} in line {line:?}"),
        };
        let algo_tok = tokens.next().unwrap_or_default();
        let Some(algo) = Algo::parse(algo_tok) else {
            return Err(bad("unknown algorithm", algo_tok));
        };
        let platform_tok = tokens.next().unwrap_or_default();
        let Some(platform) = Platform::parse(platform_tok) else {
            return Err(bad("unknown platform", platform_tok));
        };
        let mut spec = QuerySpec::new(algo, platform);
        let mut faults: Option<u64> = None;
        let mut fault_seed = DEFAULT_FAULT_SEED;
        for tok in tokens {
            let Some((key, value)) = tok.split_once('=') else {
                return Err(bad("malformed key=value token", tok));
            };
            let num: Option<u64> = value.parse().ok();
            let time = |t: u64| Time::try_from(t).map_err(|_| bad("time above i64::MAX", tok));
            match (key, num) {
                ("workers", Some(n)) if n > 0 => spec.workers = n as usize,
                ("source", Some(v)) => spec.source = Some(VertexId(v)),
                ("start", Some(t)) => spec.start = time(t)?,
                ("deadline", Some(t)) => spec.deadline = Some(time(t)?),
                ("perturb", Some(s)) => spec.perturb_schedule = Some(s),
                ("budget", Some(b)) if b > 0 => spec.budget = Some(b),
                ("retries", Some(r)) => spec.retries = Some(r),
                ("faults", Some(n)) if n <= MAX_BATCH_FAULTS => faults = Some(n),
                ("faults", Some(_)) => {
                    return Err(bad(&format!("fault count above {MAX_BATCH_FAULTS}"), tok))
                }
                ("fault_seed", Some(s)) => fault_seed = s,
                ("partition", _) => match PartitionStrategy::parse(value) {
                    Some(p) => spec.partition = p,
                    None => return Err(bad("unknown partition strategy", value)),
                },
                _ => return Err(bad("unknown or malformed parameter", tok)),
            }
        }
        // Applied after the loop so `faults=` composes with `workers=`
        // regardless of token order.
        if let Some(n) = faults {
            if n > 0 {
                spec.fault_plan = Some(FaultPlan::seeded(
                    fault_seed,
                    spec.workers,
                    SEEDED_FAULT_MAX_STEP,
                    n as usize,
                ));
                if spec.recovery.is_none() {
                    spec.recovery = Some(RecoveryConfig::every(2));
                }
            }
        }
        Ok(Some(spec))
    }

    /// Parses a whole batch file; line numbers in errors are 1-based.
    ///
    /// # Errors
    ///
    /// [`BspError::Config`] for the first malformed line.
    pub fn parse_batch(text: &str) -> Result<Vec<QuerySpec>, BspError> {
        let mut specs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            match Self::parse_line(line) {
                Ok(Some(spec)) => specs.push(spec),
                Ok(None) => {}
                Err(BspError::Config { detail }) => {
                    return Err(BspError::Config {
                        detail: format!("line {}: {detail}", i + 1),
                    })
                }
                Err(e) => return Err(e),
            }
        }
        Ok(specs)
    }
}

/// Canonical tag of a partition strategy for the params digest.
fn partition_tag(strategy: PartitionStrategy) -> u64 {
    match strategy {
        PartitionStrategy::Hash => 1,
        PartitionStrategy::Chunked => 2,
        PartitionStrategy::Ldg => 3,
        PartitionStrategy::TemporalBalance => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_lines_parse_and_reject() {
        let text = "# header comment\n\nbfs icm\neat icm source=3 start=2 workers=2\n\
                    sssp tgb deadline=9 partition=temporal\nbfs msb perturb=7\n";
        let specs = QuerySpec::parse_batch(text).expect("well-formed batch");
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].algo, Algo::Bfs);
        assert_eq!(specs[1].source, Some(VertexId(3)));
        assert_eq!(specs[1].start, 2);
        assert_eq!(specs[1].workers, 2);
        assert_eq!(specs[2].deadline, Some(9));
        assert_eq!(specs[2].partition, PartitionStrategy::TemporalBalance);
        assert_eq!(specs[3].perturb_schedule, Some(7));

        let faulted = QuerySpec::parse_line("eat icm workers=2 faults=2 fault_seed=9")
            .expect("parses")
            .expect("not blank");
        assert!(faulted.fault_plan.is_some(), "faults= arms a plan");
        assert!(faulted.recovery.is_some(), "faults= supplies recovery");
        assert!(!faulted.cacheable(), "faulted queries bypass the cache");
        let budgeted = QuerySpec::parse_line("bfs icm budget=64 retries=1")
            .expect("parses")
            .expect("not blank");
        assert_eq!(budgeted.budget, Some(64));
        assert_eq!(budgeted.retries, Some(1));

        for bad in [
            "zfs icm",
            "bfs vax",
            "bfs icm workers=0",
            "bfs icm nonsense",
            "bfs icm depth=3",
            "bfs icm budget=0",
            "bfs icm partition=metis",
        ] {
            let err = QuerySpec::parse_line(bad).expect_err("must reject");
            assert!(matches!(err, BspError::Config { .. }), "{bad}: {err}");
        }
        // The fault count is capped before any plan is built: a huge
        // count is a typed error naming the token, not an allocation.
        let capped = QuerySpec::parse_line(&format!("bfs icm faults={MAX_BATCH_FAULTS}"))
            .expect("the cap itself parses")
            .expect("not blank");
        assert!(capped.fault_plan.is_some());
        for tok in [
            format!("faults={}", MAX_BATCH_FAULTS + 1),
            "faults=4000000000".to_string(),
        ] {
            let err = QuerySpec::parse_line(&format!("bfs icm {tok}")).expect_err("over the cap");
            let BspError::Config { detail } = &err else {
                panic!("{tok}: expected a config error, got {err}");
            };
            assert!(detail.contains(&tok), "{detail}");
        }
        // The worker count is capped where every run's options are
        // lowered, before anything is allocated: the cap itself lowers,
        // one past it and the wire's `u16` limit are refused.
        for (workers, lowers) in [
            (RunOpts::MAX_WORKERS, true),
            (RunOpts::MAX_WORKERS + 1, false),
            (65535, false),
        ] {
            let spec = QuerySpec::parse_line(&format!("bfs icm workers={workers}"))
                .expect("a worker count parses")
                .expect("not blank");
            let lowered = spec.to_opts().run_config();
            assert_eq!(lowered.is_ok(), lowers, "workers={workers}");
        }
        // Times are `i64`: the largest parses, one past it is refused
        // instead of wrapping negative.
        let latest = QuerySpec::parse_line(&format!("ld gof start={0} deadline={0}", i64::MAX))
            .expect("i64::MAX parses")
            .expect("not blank");
        assert_eq!((latest.start, latest.deadline), (i64::MAX, Some(i64::MAX)));
        for tok in [
            format!("start={}", i64::MAX as u64 + 1),
            format!("deadline={}", u64::MAX),
        ] {
            let err = QuerySpec::parse_line(&format!("bfs icm {tok}")).expect_err("over the cap");
            let BspError::Config { detail } = &err else {
                panic!("{tok}: expected a config error, got {err}");
            };
            assert!(detail.contains(&tok), "{detail}");
        }
        assert!(QuerySpec::parse_line("   ").expect("blank ok").is_none());
    }

    #[test]
    fn params_digest_separates_every_parameter() {
        let base = QuerySpec::new(Algo::Bfs, Platform::Icm);
        let mut seen = vec![base.params_digest()];
        let variants = [
            QuerySpec::new(Algo::Wcc, Platform::Icm),
            QuerySpec::new(Algo::Bfs, Platform::Msb),
            QuerySpec {
                workers: 2,
                ..base.clone()
            },
            QuerySpec {
                source: Some(VertexId(1)),
                ..base.clone()
            },
            QuerySpec {
                start: 5,
                ..base.clone()
            },
            QuerySpec {
                deadline: Some(9),
                ..base.clone()
            },
            QuerySpec {
                partition: PartitionStrategy::TemporalBalance,
                ..base.clone()
            },
            QuerySpec {
                perturb_schedule: Some(0),
                ..base.clone()
            },
        ];
        for v in variants {
            let d = v.params_digest();
            assert!(!seen.contains(&d), "digest collision for {v:?}");
            seen.push(d);
        }
        // Fault plans and recovery configs are deliberately NOT part of
        // the digest: such queries never touch the cache at all, so a
        // recoverable query is never answered with a plain run's metrics.
        assert!(base.cacheable());
        let recoverable = QuerySpec {
            recovery: Some(RecoveryConfig::every(2)),
            ..base.clone()
        };
        assert_eq!(recoverable.params_digest(), base.params_digest());
        assert!(!recoverable.cacheable(), "recovery metrics must be real");
        assert_eq!(base.params_digest(), seen[0], "digest must be stable");
        // Budget and retries are also outside the digest: neither can
        // change a completed result, and a cache hit costs zero
        // supersteps, so any budget admits it.
        let policied = QuerySpec {
            budget: Some(3),
            retries: Some(7),
            ..base.clone()
        };
        assert_eq!(policied.params_digest(), base.params_digest());
    }
}
