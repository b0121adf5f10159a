//! The resident serving engine: one loaded graph, many queries.
//!
//! A [`ServeEngine`] owns an immutable [`TemporalGraph`] and a bounded
//! pool of executor threads. Queries enter a FIFO queue through
//! [`ServeEngine::submit`] (or in bulk through
//! [`ServeEngine::serve_batch`]); each admitted query is executed against
//! the *shared* graph with its own isolated engine configuration — the
//! registry builds a fresh BSP run (workers, state, schedule) per query,
//! so concurrent queries cannot observe each other. Determinism is
//! end-to-end: a query's digest is bit-identical whether it runs alone,
//! concurrently with seven others, from the result cache, or next to a
//! neighbor that is busy crash-recovering.
//!
//! Cacheable queries are executed **single-flight**: concurrent
//! duplicates of a key coalesce onto one execution and are served its
//! cached result, so a burst of identical queries costs one run, not
//! `max_in_flight` runs.
//!
//! Admission control is decided at submission, before any work happens:
//! each query gets a cost estimate from the load-time [`CostModel`]
//! (interval-weighted graph size × algorithm/platform factors), and the
//! engine tracks the total estimated cost and count of queries queued or
//! in flight. Beyond the configured budget the query is *rejected* with
//! [`BspError::Admission`] — never silently dropped, never blocking the
//! client. A rejected query was never executed; resubmission is safe.
//!
//! On top of admission sits the serving fault domain (DESIGN.md §15,
//! [`crate::faultdom`]): every execution runs under a deterministic
//! superstep budget derived from the cost model; transient failures are
//! retried with escalating inner recovery headroom; queries that keep
//! failing are quarantined; and beyond the shed watermark the engine
//! degrades gracefully by shedding the cheapest queued work with a typed
//! [`BspError::Shed`] instead of stalling everything behind it.

use crate::cache::{CacheKey, ResultCache};
use crate::cost::CostModel;
use crate::faultdom::{self, QuarantineTable, ServeHealth};
use crate::spec::QuerySpec;
use graphite_algorithms::common::ResultDigest;
use graphite_algorithms::registry::{self, Algo, Platform, RunError, RunOutcome};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::{now, RunMetrics};
use graphite_bsp::trace::RunTrace;
use graphite_tgraph::graph::TemporalGraph;
use graphite_tgraph::transform::{transform_for_paths, TransformOptions, TransformedGraph};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;

/// Sizing and policy of a [`ServeEngine`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Executor threads — the maximum number of queries executing
    /// concurrently.
    pub max_in_flight: usize,
    /// Maximum queries queued *or* executing; a submission beyond this is
    /// rejected with [`BspError::Admission`].
    pub max_pending: usize,
    /// Total estimated cost (see [`CostModel::estimate`]) allowed queued
    /// or executing at once. A query that would exceed it is rejected —
    /// unless the engine is completely idle, which guarantees progress
    /// for queries costlier than the whole budget.
    pub cost_budget: u64,
    /// Result-cache entries ([`ResultCache`]); 0 disables caching.
    pub cache_capacity: usize,
    /// Serve-level retry allowance for transient failures, on top of the
    /// BSP layer's own checkpoint-replay; overridable per query with
    /// `retries=` ([`QuerySpec::retries`]).
    pub retries: u64,
    /// Consecutive transient-classed terminal failures after which a
    /// query is quarantined ([`BspError::Quarantined`]); `0` disables
    /// quarantine.
    pub quarantine_after: u64,
    /// Pending-depth watermark beyond which queued queries are shed
    /// ([`BspError::Shed`], cheapest-first); `None` never sheds.
    pub shed_watermark: Option<usize>,
    /// Engine-wide superstep budget applied to every query that carries
    /// no `budget=` override. `None` (the default) derives a per-query
    /// budget from [`CostModel::superstep_budget`].
    pub default_budget: Option<u64>,
    /// Seed for quarantine decay draws.
    pub fault_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 4,
            max_pending: 64,
            cost_budget: u64::MAX,
            cache_capacity: 256,
            retries: 2,
            quarantine_after: 3,
            shed_watermark: None,
            default_budget: None,
            fault_seed: 0x5EED_FA17,
        }
    }
}

/// What the serving layer returns for one executed query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Submission id (FIFO order, starting at 0).
    pub id: u64,
    /// Algorithm that ran.
    pub algo: Algo,
    /// Platform it ran on.
    pub platform: Platform,
    /// The per-(vertex, time-point) result digest — always computed; this
    /// is the bit-identity the matrix tests pin.
    pub digest: Option<ResultDigest>,
    /// The run's metrics (a stored clone on cache hits — bit-identical to
    /// the original execution's).
    pub metrics: RunMetrics,
    /// Whether this outcome was served from the result cache.
    pub cached: bool,
    /// Wall-clock latency of serving this query (execution or cache
    /// lookup), in microseconds. Excluded from all digests.
    pub micros: u64,
}

/// Engine accounting, snapshot via [`ServeEngine::stats`]. Counters only
/// ever increase; `accepted + rejected == submitted` at every instant,
/// and once the engine drains,
/// `accepted == completed + failed + budget_exceeded + shed + quarantined`
/// — every admitted query is accounted to exactly one terminal outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries ever submitted.
    pub submitted: u64,
    /// Queries admitted past admission control (including those the
    /// quarantine table then fast-failed).
    pub accepted: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
    /// Admitted queries that finished *successfully* (fresh run, cache
    /// hit, or recovered on retry).
    pub completed: u64,
    /// Outcomes served from the result cache (including queries coalesced
    /// onto an in-flight duplicate's execution).
    pub cache_hits: u64,
    /// Cache lookups that missed (each fresh execution counts at least
    /// one; a query that waited for an in-flight duplicate counts one
    /// miss before its eventual hit).
    pub cache_misses: u64,
    /// Cache entries evicted by capacity.
    pub cache_evictions: u64,
    /// Serve-level retry attempts issued after transient failures.
    pub retries: u64,
    /// Queries that succeeded on a retry attempt.
    pub recovered: u64,
    /// Queued queries shed at the pending-depth watermark.
    pub shed: u64,
    /// Submissions fast-failed by the quarantine table.
    pub quarantined: u64,
    /// Queries terminated by their superstep budget.
    pub budget_exceeded: u64,
    /// Queries that terminally failed after exhausting their retry
    /// allowance (everything typed except budget overruns, which get
    /// their own counter).
    pub failed: u64,
}

/// A submitted query's receipt: wait on it for the outcome.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl Ticket {
    /// The submission id this ticket refers to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the query completes.
    ///
    /// # Errors
    ///
    /// The query's own typed failure, if it failed.
    pub fn wait(self) -> Result<QueryOutcome, BspError> {
        let mut ready = lock(&self.slot.ready);
        loop {
            if let Some(result) = ready.take() {
                return result;
            }
            ready = wait(&self.slot.done, ready);
        }
    }
}

/// Per-job completion slot.
struct Slot {
    ready: Mutex<Option<Result<QueryOutcome, BspError>>>,
    done: Condvar,
}

struct Job {
    id: u64,
    spec: QuerySpec,
    cost: u64,
    slot: Arc<Slot>,
}

struct State {
    queue: VecDeque<Job>,
    /// Queries queued or executing.
    pending: usize,
    /// Total estimated cost queued or executing.
    outstanding_cost: u64,
    /// Cache keys currently being executed — the single-flight set.
    /// A cacheable query whose key is already here waits for that
    /// execution's cached result instead of re-running it.
    in_flight_keys: BTreeSet<CacheKey>,
    cache: ResultCache,
    stats: ServeStats,
    quarantine: QuarantineTable,
    next_id: u64,
    shutdown: bool,
}

/// One installed graph generation (DESIGN.md §17). Everything derived
/// from the graph — its structure digest, the lazily-built path transform,
/// the admission cost model — lives *with* the graph, so swapping in an
/// updated graph atomically refreshes all of it. Executions snapshot the
/// `Arc<Epoch>` once at start and run against that generation to
/// completion even if a newer graph is installed mid-run; their cache
/// entries stay keyed by their own generation's digest, so a stale result
/// can never answer a query against the new graph.
struct Epoch {
    /// Installation counter, starting at 0 for the load-time graph.
    serial: u64,
    graph: Arc<TemporalGraph>,
    transformed: OnceLock<Arc<TransformedGraph>>,
    graph_digest: u64,
    cost: CostModel,
}

impl Epoch {
    fn over(serial: u64, graph: Arc<TemporalGraph>) -> Self {
        Epoch {
            serial,
            graph_digest: graph.structure_digest(),
            cost: CostModel::measure(&graph),
            transformed: OnceLock::new(),
            graph,
        }
    }
}

struct Shared {
    /// The current graph generation; replaced whole by
    /// [`ServeEngine::install_graph`].
    epoch: RwLock<Arc<Epoch>>,
    cfg: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    /// Signalled whenever a single-flight execution finishes (so waiting
    /// duplicates re-check the cache).
    flight: Condvar,
}

impl Shared {
    /// Snapshots the current epoch (recovering from lock poisoning with
    /// the same policy as [`lock`]).
    fn epoch(&self) -> Arc<Epoch> {
        match self.epoch.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }
}

/// Acquires a mutex, recovering the data from a poisoned lock (a worker
/// that panicked mid-update holds only counters here — the data stays
/// structurally valid, and refusing to serve would turn one poisoned
/// query into a dead engine).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Condvar wait with the same poisoning policy as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The resident engine. Dropping it shuts the pool down after the queue
/// drains the jobs already admitted.
pub struct ServeEngine {
    shared: Arc<Shared>,
    pool: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Loads `graph` into a resident engine with `cfg` executors.
    pub fn new(graph: Arc<TemporalGraph>, cfg: ServeConfig) -> Self {
        let cfg = ServeConfig {
            max_in_flight: cfg.max_in_flight.max(1),
            max_pending: cfg.max_pending.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            epoch: RwLock::new(Arc::new(Epoch::over(0, graph))),
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pending: 0,
                outstanding_cost: 0,
                in_flight_keys: BTreeSet::new(),
                cache: ResultCache::new(cfg.cache_capacity),
                stats: ServeStats::default(),
                quarantine: QuarantineTable::new(cfg.quarantine_after, cfg.fault_seed),
                next_id: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            flight: Condvar::new(),
        });
        let pool = (0..cfg.max_in_flight)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        ServeEngine { shared, pool }
    }

    /// The structure digest of the resident graph — the graph half of
    /// every cache key. Changes when a new graph generation is installed.
    pub fn graph_digest(&self) -> u64 {
        self.shared.epoch().graph_digest
    }

    /// The current generation's cost model (measured at installation).
    pub fn cost_model(&self) -> CostModel {
        self.shared.epoch().cost
    }

    /// Installation serial of the resident graph: 0 for the load-time
    /// graph, incremented by every [`install_graph`](Self::install_graph).
    pub fn epoch_serial(&self) -> u64 {
        self.shared.epoch().serial
    }

    /// The resident graph generation queries currently run against.
    pub fn graph(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.shared.epoch().graph)
    }

    /// Installs an updated graph as the next generation and returns its
    /// serial. Atomic from the queries' perspective: executions already
    /// past their epoch snapshot finish against the generation they
    /// started on; everything submitted or executed afterwards sees the
    /// new graph, a freshly measured admission cost model, and — because
    /// cache keys carry the structure digest — an effectively invalidated
    /// result cache (old entries can no longer match and age out by LRU).
    ///
    /// This is the serving side of the streaming loop (DESIGN.md §17):
    /// `graphite-stream` refreshes the graph per update batch and the
    /// serving layer re-points at it between queries.
    ///
    /// The write lock is held for the pointer swap only: the new
    /// generation (cost model included) is built before taking it, and
    /// the previous one — usually the last reference to a whole graph —
    /// is dropped after releasing it, so a submitter or executor
    /// snapshotting the epoch never waits on a measurement or a
    /// deallocation.
    pub fn install_graph(&self, graph: Arc<TemporalGraph>) -> u64 {
        let mut next = Epoch::over(0, graph);
        let (serial, previous) = {
            let mut slot = match self.shared.epoch.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            next.serial = slot.serial + 1;
            (next.serial, std::mem::replace(&mut *slot, Arc::new(next)))
        };
        drop(previous);
        serial
    }

    /// The admission cost the current generation charges `spec`.
    pub fn estimate(&self, spec: &QuerySpec) -> u64 {
        self.shared.epoch().cost.estimate(spec)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ServeStats {
        let state = lock(&self.shared.state);
        let mut stats = state.stats;
        stats.cache_hits = state.cache.hits();
        stats.cache_misses = state.cache.misses();
        stats.cache_evictions = state.cache.evictions();
        stats
    }

    /// Submits one query to the FIFO queue.
    ///
    /// # Errors
    ///
    /// [`BspError::Admission`] when the engine is over its pending-count
    /// or cost budget, and [`BspError::Quarantined`] when the query's
    /// fault-domain key is currently quarantined; either way the query
    /// was never executed and may be resubmitted (a quarantined one after
    /// the seeded decay releases it).
    pub fn submit(&self, spec: QuerySpec) -> Result<Ticket, BspError> {
        let cost = self.shared.epoch().cost.estimate(&spec);
        let qkey = faultdom::quarantine_key(&spec);
        let mut state = lock(&self.shared.state);
        state.stats.submitted += 1;
        let over_count = state.pending >= self.shared.cfg.max_pending;
        let over_cost = state.pending > 0
            && state.outstanding_cost.saturating_add(cost) > self.shared.cfg.cost_budget;
        if over_count || over_cost {
            state.stats.rejected += 1;
            return Err(BspError::Admission {
                estimated_cost: cost,
                budget: if over_count {
                    self.shared.cfg.max_pending as u64
                } else {
                    self.shared.cfg.cost_budget
                },
                occupancy: state.pending,
            });
        }
        if let Some(failures) = state.quarantine.check(qkey) {
            // Counted under `accepted`: the query got past admission and
            // reached a terminal fault-domain outcome, so the drain
            // invariant on ServeStats still balances. It consumed no
            // queue slot and no executor time.
            state.stats.accepted += 1;
            state.stats.quarantined += 1;
            return Err(BspError::Quarantined {
                digest: qkey,
                failures,
            });
        }
        let id = state.next_id;
        state.next_id += 1;
        state.stats.accepted += 1;
        state.pending += 1;
        state.outstanding_cost = state.outstanding_cost.saturating_add(cost);
        let slot = Arc::new(Slot {
            ready: Mutex::new(None),
            done: Condvar::new(),
        });
        state.queue.push_back(Job {
            id,
            spec,
            cost,
            slot: Arc::clone(&slot),
        });
        let shed = self.shed_over_watermark(&mut state);
        drop(state);
        self.shared.work.notify_one();
        for (job, occupancy, watermark) in shed {
            let mut ready = lock(&job.slot.ready);
            *ready = Some(Err(BspError::Shed {
                occupancy,
                watermark,
            }));
            drop(ready);
            job.slot.done.notify_all();
        }
        Ok(Ticket { id, slot })
    }

    /// Graceful degradation: while the pending depth exceeds the shed
    /// watermark, remove the cheapest queued query (oldest wins ties) and
    /// fail it with [`BspError::Shed`]. Only *queued* work is shed —
    /// executing queries always finish — and the victim choice is a pure
    /// function of queue contents, so a replayed submission stream sheds
    /// identically. Victims are returned for delivery outside the state
    /// lock; the freshly submitted query is itself a candidate.
    fn shed_over_watermark(&self, state: &mut State) -> Vec<(Job, usize, usize)> {
        let Some(watermark) = self.shared.cfg.shed_watermark else {
            return Vec::new();
        };
        let mut shed = Vec::new();
        while state.pending > watermark && !state.queue.is_empty() {
            let occupancy = state.pending;
            let victim = state
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.cost, j.id))
                .map(|(i, _)| i)
                .expect("queue checked non-empty");
            let job = state.queue.remove(victim).expect("victim index in range");
            state.pending -= 1;
            state.outstanding_cost = state.outstanding_cost.saturating_sub(job.cost);
            state.stats.shed += 1;
            shed.push((job, occupancy, watermark));
        }
        shed
    }

    /// Fault-domain health snapshot (DESIGN.md §15).
    pub fn health(&self) -> ServeHealth {
        let state = lock(&self.shared.state);
        ServeHealth {
            retries: state.stats.retries,
            recovered: state.stats.recovered,
            shed: state.stats.shed,
            quarantined: state.stats.quarantined,
            budget_exceeded: state.stats.budget_exceeded,
            failed: state.stats.failed,
            quarantined_now: state.quarantine.quarantined_now(),
        }
    }

    /// The health snapshot as a `graphite-trace/1` run
    /// ([`faultdom::health_trace`]), ready for `maybe_emit`.
    pub fn health_trace(&self) -> RunTrace {
        faultdom::health_trace(&self.health())
    }

    /// Submits a whole batch FIFO, then waits for every admitted query.
    /// Output order matches input order; rejected queries keep their
    /// [`BspError::Admission`].
    pub fn serve_batch(&self, specs: &[QuerySpec]) -> Vec<Result<QueryOutcome, BspError>> {
        let tickets: Vec<Result<Ticket, BspError>> =
            specs.iter().map(|s| self.submit(s.clone())).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(e) => Err(e),
            })
            .collect()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.pool.drain(..) {
            // A panicked executor already delivered a typed error to its
            // job before unwinding; nothing further to report here.
            let _ = handle.join();
        }
    }
}

/// Executor thread: pop FIFO, serve from cache or run, account, deliver.
fn executor_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = wait(&shared.work, state);
            }
        };
        let result = serve_one(shared, &job);
        {
            let mut state = lock(&shared.state);
            state.pending -= 1;
            state.outstanding_cost = state.outstanding_cost.saturating_sub(job.cost);
            let qkey = faultdom::quarantine_key(&job.spec);
            match &result {
                Ok(_) => {
                    state.stats.completed += 1;
                    state.quarantine.note_success(qkey);
                    // Every engine-wide success advances quarantine decay:
                    // a healthy engine releases poisoned keys quickly.
                    state.quarantine.tick_decay();
                }
                Err(BspError::BudgetExceeded { .. }) => state.stats.budget_exceeded += 1,
                Err(e) => {
                    state.stats.failed += 1;
                    if e.is_transient() {
                        state.quarantine.note_failure(qkey);
                    }
                }
            }
        }
        let mut ready = lock(&job.slot.ready);
        *ready = Some(result);
        drop(ready);
        job.slot.done.notify_all();
    }
}

/// Serves one admitted query: cache hit, coalesced wait on an in-flight
/// duplicate, or an isolated registry run.
///
/// Cacheable queries are **single-flight**: the first executor to miss on
/// a key becomes its leader and runs it; duplicates arriving while the
/// leader executes wait on [`Shared::flight`] and are served the leader's
/// cached result — bit-identical, counted as hits, and never re-executed.
/// If the leader fails (its key leaves the set with nothing cached), a
/// waiting duplicate takes over as the new leader, so coalescing can
/// never deadlock or lose a query.
fn serve_one(shared: &Shared, job: &Job) -> Result<QueryOutcome, BspError> {
    let started = now();
    // One epoch snapshot per served query: the whole execution — cache
    // key, transform, budget derivation, registry run — binds to this
    // generation even if a newer graph is installed mid-run.
    let epoch = shared.epoch();
    let key = CacheKey {
        params: job.spec.params_digest(),
        graph: epoch.graph_digest,
    };
    if job.spec.cacheable() {
        let mut state = lock(&shared.state);
        loop {
            if let Some(stored) = state.cache.get(key) {
                drop(state);
                return Ok(QueryOutcome {
                    id: job.id,
                    algo: job.spec.algo,
                    platform: job.spec.platform,
                    digest: stored.digest,
                    metrics: stored.metrics,
                    cached: true,
                    micros: started.elapsed().as_micros() as u64,
                });
            }
            if state.in_flight_keys.insert(key) {
                // This executor is now the key's leader.
                break;
            }
            state = wait(&shared.flight, state);
        }
    }
    let outcome = execute_with_retries(shared, &epoch, &job.spec);
    if job.spec.cacheable() {
        // Leader epilogue: publish on success, and *always* release the
        // key and wake waiters — on failure they retry as new leaders.
        let mut state = lock(&shared.state);
        if let Ok(ref ok) = outcome {
            state.cache.insert(key, ok.clone());
        }
        state.in_flight_keys.remove(&key);
        drop(state);
        shared.flight.notify_all();
    }
    let outcome = outcome?;
    Ok(QueryOutcome {
        id: job.id,
        algo: job.spec.algo,
        platform: job.spec.platform,
        digest: outcome.digest,
        metrics: outcome.metrics,
        cached: false,
        micros: started.elapsed().as_micros() as u64,
    })
}

/// The serve-level retry loop above [`execute`]: transient failures are
/// retried up to the query's allowance (`retries=` or the engine
/// default), each attempt escalating the inner recovery budget
/// ([`faultdom::escalate`]). Terminal errors — including budget overruns,
/// which are deterministic and would only overrun again — propagate
/// immediately.
fn execute_with_retries(
    shared: &Shared,
    epoch: &Epoch,
    spec: &QuerySpec,
) -> Result<RunOutcome, BspError> {
    let allowance = spec.retries.unwrap_or(shared.cfg.retries);
    let mut attempt: u64 = 0;
    loop {
        let run = if attempt == 0 {
            execute(shared, epoch, spec)
        } else {
            execute(shared, epoch, &faultdom::escalate(spec, attempt))
        };
        match run {
            Ok(outcome) => {
                if attempt > 0 {
                    lock(&shared.state).stats.recovered += 1;
                }
                return Ok(outcome);
            }
            Err(e) if e.is_transient() && attempt < allowance => {
                lock(&shared.state).stats.retries += 1;
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One isolated registry execution over the shared graph. Every platform
/// reports its failures as typed errors; `catch_unwind` remains as the
/// guard for real panics (a bug in a program or an engine), converted to
/// a typed error so one poisoned query can never take down the pool or
/// its neighbors. Every run gets a superstep budget: the spec's own
/// `budget=`, else the engine's `default_budget`, else the cost model's
/// derived ceiling (DESIGN.md §15).
fn execute(shared: &Shared, epoch: &Epoch, spec: &QuerySpec) -> Result<RunOutcome, BspError> {
    let transformed = if spec.platform == Platform::Tgb {
        Some(Arc::clone(epoch.transformed.get_or_init(|| {
            Arc::new(transform_for_paths(
                &epoch.graph,
                &TransformOptions::default(),
            ))
        })))
    } else {
        None
    };
    let mut opts = spec.to_opts();
    if opts.superstep_budget.is_none() {
        opts.superstep_budget = Some(
            shared
                .cfg
                .default_budget
                .unwrap_or_else(|| epoch.cost.superstep_budget(spec)),
        );
    }
    let run = catch_unwind(AssertUnwindSafe(|| {
        registry::try_run(
            spec.algo,
            spec.platform,
            &epoch.graph,
            transformed.as_ref(),
            &opts,
        )
    }));
    match run {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(RunError::Bsp(e))) => Err(e),
        Ok(Err(RunError::Unsupported(u))) => Err(BspError::Config {
            detail: format!("serve: {u}"),
        }),
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(BspError::WorkerPanicked {
                step: 0,
                workers: vec![(0, detail)],
            })
        }
    }
}
