//! The bulk-synchronous-parallel superstep driver.
//!
//! This is the substrate that replaces Apache Giraph in our reproduction: a
//! shared-nothing engine where each *worker* owns a disjoint vertex
//! partition and every superstep is two parallel phases around one global
//! barrier (one resident OS thread per worker runs both):
//!
//! 1. **compute + send-encode** — each worker runs its logic, folds its
//!    batches when the program's combine is exact ([`Fold`]), then
//!    serializes its remote batches through the [`crate::codec::Wire`]
//!    format into per-destination frames;
//! 2. **barrier** — the driver thread does only what must be ordered:
//!    message/byte accounting, fault draws, aggregator merge, and handing
//!    each destination its frames;
//! 3. **receive-group** — each worker verifies and decodes the frames
//!    addressed to it and groups the arrivals per vertex.
//!
//! Once every receiver is done the driver runs the master hook over the
//! merged aggregators and takes the halt vote.
//!
//! The exchange itself — frames, inboxes, the grouping scatter and the
//! delivery-order contract — lives in [`crate::exchange`]; every message
//! that crosses a worker boundary is charged to the run's byte counters.
//!
//! Both the interval-centric engine (`graphite-icm`) and the four baseline
//! platforms (`graphite-baselines`) run on this driver, which mirrors the
//! paper's setup where all five platforms share Giraph — the primitives are
//! the distinction, not the runtime (Sec. VII-A3).
//!
//! In debug builds every run is verified against the barrier-protocol state
//! machine in [`crate::check`]; [`BspConfig::perturb_schedule`] additionally
//! lets the schedule-perturbation race harness permute the scheduling
//! freedoms the BSP contract leaves open (thread join order, batch delivery
//! order) to detect accidental order dependence.
//!
//! The run loop itself lives in `RunState`, one resumable superstep at a
//! time, and there is exactly one of it: [`run_bsp`] drives it straight
//! through, and — given a [`BspConfig::recovery`] schedule — the same
//! loop interleaves checkpoints and rolls back to the last one after a
//! recoverable fault ([`crate::recover`]). A run may have *phases*: given
//! a [`PhaseHook`], a barrier at which the run would halt instead asks the
//! hook whether another phase follows (a snapshot platform's next
//! snapshot, batch or time-point), and the same loop carries on.
//! Deterministic fault injection ([`BspConfig::fault_plan`]) is plain
//! configuration evaluated on every build — never `cfg`-gated — so
//! recovery is exercised against exactly the code that ships.

use crate::aggregate::{Aggregators, MasterDecision};
use crate::check::RunChecker;
use crate::codec::{Wire, BATCH_TRAILER};
use crate::error::BspError;
use crate::exchange::{execute_receive, Arrival, GroupTable, ReceiveDone, ReceiveJob};
pub use crate::exchange::{Fold, FoldKey, Inbox, Outbox};
use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::{now, RunMetrics, StepTiming, UserCounters};
use crate::partition::PartitionMap;
use crate::recover::{Checkpoint, Recovery, RecoveryConfig};
use crate::trace::{duration_ns, TraceConfig, TraceEvent, TraceSink};
use graphite_tgraph::rng::SplitMix64;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration of one BSP run. Every option acts on the whole
/// run, across all of its phases ([`PhaseHook`]): the superstep cap and
/// budget, the fault plan and the schedule perturbation count whole-run
/// supersteps, so each means the same on every platform.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Hard cap on supersteps: exhausting it without halting is surfaced
    /// as [`BspError::SuperstepLimit`] (non-convergence is an error, not a
    /// silently truncated result).
    pub max_supersteps: u64,
    /// Optional per-query execution budget, enforced cooperatively at the
    /// BSP barrier exactly like `max_supersteps` but surfaced as the
    /// distinct [`BspError::BudgetExceeded`]. The serving layer derives
    /// this from its admission cost model (DESIGN.md §15) so a runaway
    /// query releases its executor slot deterministically — no wall
    /// clock is involved. `None` (the default) enforces nothing beyond
    /// `max_supersteps`.
    pub superstep_budget: Option<u64>,
    /// When `Some(seed)`, deterministically permutes — per superstep — the
    /// scheduling freedoms the BSP contract leaves open: worker thread join
    /// order and remote-batch delivery order. A correct program's results
    /// must be bit-identical under every seed; the schedule-perturbation
    /// race harness asserts exactly that. `None` (the default) is natural
    /// worker-index order.
    ///
    /// Note that per-sender FIFO order is preserved in every schedule (as
    /// on a real network transport); only cross-sender interleaving moves.
    pub perturb_schedule: Option<u64>,
    /// Deterministic fault schedule (worker panics, wire bit-flips) to
    /// inject while running. `None` (the default) injects nothing. This is
    /// runtime configuration, not a test-build feature: the hooks execute
    /// in release builds so recovery is validated against production code
    /// paths.
    pub fault_plan: Option<FaultPlan>,
    /// When set, the run checkpoints on this schedule and recoverable
    /// faults — injected via [`BspConfig::fault_plan`], or real worker
    /// panics — roll it back to the last checkpoint and replay instead of
    /// failing it. Every worker checkpoints ([`WorkerLogic::checkpoint`]),
    /// so any run may ask. Recovered results are bit-identical to
    /// fault-free ones (pinned by the fault-matrix digests); only the
    /// recovery counters of the run metrics, which never enter digests,
    /// reveal that recovery happened. `None` (the default) fails at the
    /// first fault.
    pub recovery: Option<RecoveryConfig>,
    /// Structured-trace recording level (Off / Counters / Full; see
    /// [`crate::trace`]). Off by default; results and deterministic
    /// counters are bit-identical at every level.
    pub trace: TraceConfig,
}

impl BspConfig {
    /// The default superstep cap.
    pub const DEFAULT_MAX_SUPERSTEPS: u64 = 100_000;
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            max_supersteps: Self::DEFAULT_MAX_SUPERSTEPS,
            superstep_budget: None,
            perturb_schedule: None,
            fault_plan: None,
            recovery: None,
            trace: TraceConfig::default(),
        }
    }
}

/// Total element capacity of every reusable exchange buffer: all outbox
/// batches and per-(src, dst) frames, both inbox double-buffers, and the
/// per-worker count tables. Nothing on the exchange path ever shrinks a
/// retained buffer, and every lent buffer is home again when a superstep
/// ends, so a snapshot pair around one superstep detects any allocation.
fn routing_capacity<M>(
    outboxes: &[Outbox<M>],
    front: &[Inbox<M>],
    back: &[Inbox<M>],
    tables: &[GroupTable],
) -> usize {
    let outboxes: usize = outboxes.iter().map(Outbox::capacity_units).sum();
    let inboxes: usize = front.iter().chain(back).map(Inbox::capacity_units).sum();
    let tables: usize = tables.iter().map(GroupTable::capacity_units).sum();
    outboxes + inboxes + tables
}

/// Per-worker state and behaviour. One instance per worker; the engine
/// hands each instance to its thread every superstep, and — when the run
/// has a [`BspConfig::recovery`] schedule — captures and restores its
/// state at superstep boundaries.
pub trait WorkerLogic: Send {
    /// Message type exchanged between vertices.
    type Msg: Wire;

    /// Executes one superstep over this worker's partition.
    ///
    /// * `step` — 1-based superstep number, of the current phase in a run
    ///   with phases ([`PhaseHook`]);
    /// * `inbox` — messages delivered from the previous superstep (empty at
    ///   superstep 1);
    /// * `outbox` — destination for messages to deliver next superstep;
    /// * `globals` — merged aggregator values from the previous superstep;
    /// * `partial` — this worker's aggregator contributions for this one;
    /// * `counters` — user-logic counters (compute calls etc.);
    /// * `sink` — this worker's trace sink for operator extras (inert
    ///   unless [`BspConfig::trace`] enables tracing).
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one input or output of the superstep contract above"
    )]
    fn superstep(
        &mut self,
        step: u64,
        inbox: &Inbox<Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
        globals: &Aggregators,
        partial: &mut Aggregators,
        counters: &mut UserCounters,
        sink: &mut TraceSink,
    );

    /// Appends this worker's complete user state, as of a superstep
    /// boundary, to `buf` (in the conventions of [`crate::codec::Wire`]).
    /// Buffers that are empty at every barrier need not be written.
    fn checkpoint(&self, buf: &mut Vec<u8>);

    /// Replaces this worker's user state with the one `bytes` encodes
    /// (written by [`WorkerLogic::checkpoint`]). The restored worker must
    /// behave identically in every later superstep: the fault-matrix
    /// tests pin recovered result digests bit for bit.
    ///
    /// # Errors
    ///
    /// A static description when `bytes` is malformed; the worker state
    /// is left unchanged in that case.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str>;

    /// The sender-side fold this worker's outbox applies for the whole
    /// run, or `None` (the default) to ship every message as sent. Only a
    /// program whose combine is exact may fold ([`Fold`]): the receivers
    /// then see the same folded values, over fewer wire messages.
    fn fold(&self) -> Option<Fold<Self::Msg>> {
        None
    }
}

/// The master hook, run at each barrier over the merged aggregators.
pub type MasterHook<'a> = &'a mut dyn FnMut(u64, &Aggregators) -> MasterDecision;

/// The phase hook of a run. It is called at each quiescent barrier —
/// no message sent and no [`MasterDecision::ForceContinue`], where a run
/// without phases halts — with every worker's logic, and returns whether
/// another phase follows. When it does, the aggregator globals reset to
/// empty and the step number workers and the master see restarts at 1;
/// a recoverable run checkpoints there, so no rollback crosses a phase
/// boundary. The cap, the budget, the fault plan, the perturbation seed
/// and the trace count whole-run supersteps, and time spent in the hook
/// is charged to neither the makespan nor any [`StepTiming`] part.
pub type PhaseHook<'a, L> = &'a mut dyn FnMut(&mut [L]) -> bool;

/// Wraps the `user` master hook so that programs requesting an all-active
/// next superstep (`all_active(step + 1, globals)`) keep the run alive
/// through idle (message-free) barriers.
pub fn keep_alive<'a>(
    all_active: impl Fn(u64, &Aggregators) -> bool + 'a,
    mut user: Option<MasterHook<'a>>,
) -> impl FnMut(u64, &Aggregators) -> MasterDecision + 'a {
    move |step, globals| {
        let user = user
            .as_mut()
            .map_or(MasterDecision::Continue, |hook| hook(step, globals));
        if user == MasterDecision::Continue && all_active(step + 1, globals) {
            MasterDecision::ForceContinue
        } else {
            user
        }
    }
}

/// Name of the built-in aggregator the engine injects after every
/// superstep: the total number of messages that superstep emitted
/// (readable as `globals.get_sum_u64(MESSAGES_SENT_AGG)`).
pub const MESSAGES_SENT_AGG: &str = "__messages";

/// The identity permutation of `0..n`, or — under schedule perturbation —
/// a permutation drawn deterministically from `(seed, step, salt)`.
/// Public so the race harness can verify the perturbation is non-trivial.
pub fn schedule_order(n: usize, perturb: Option<u64>, step: u64, salt: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(seed) = perturb {
        let mut rng = SplitMix64::new(seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt);
        rng.shuffle(&mut order);
    }
    order
}

/// What one worker's compute phase hands the barrier (its outbox stays in
/// place in the per-worker outbox pool).
type ComputeSlot = (Aggregators, UserCounters, TraceSink);

/// Per-worker trace snapshot taken at the barrier: the worker's counter
/// delta for this step plus the extras its sink accumulated.
type TraceSnap = (UserCounters, Vec<(&'static str, u64)>);

/// Extracts a printable message from a worker thread's panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything one worker's compute phase needs, moved to its pool thread
/// at the start of the phase and moved back (inside [`ComputeDone`]) at
/// the end. Ownership transfer instead of shared borrows is what lets the
/// pool threads outlive a single superstep.
struct ComputeJob<L: WorkerLogic> {
    /// Whole-run superstep, for the fault report.
    step: u64,
    /// The phase's superstep, as the logic sees it.
    phase_step: u64,
    worker: usize,
    /// Injected-fault arming for this worker at this step.
    bomb: bool,
    logic: L,
    inbox: Inbox<L::Msg>,
    outbox: Outbox<L::Msg>,
    globals: Aggregators,
    trace: TraceConfig,
}

/// A finished compute phase: the moved-in pieces come home along with the
/// worker's per-step products. `panic` carries the payload message when
/// the logic panicked — the logic itself still comes home (mid-superstep
/// garbage, exactly like the panicked-thread state of a spawn-per-step
/// scheme), so a recovery session can roll it back and retry.
struct ComputeDone<L: WorkerLogic> {
    logic: L,
    inbox: Inbox<L::Msg>,
    outbox: Outbox<L::Msg>,
    partial: Aggregators,
    counters: UserCounters,
    sink: TraceSink,
    /// Time in the worker's logic.
    took: Duration,
    /// Time encoding the outbox's remote batches afterwards — exchange
    /// work, reported under `messaging`, never under `compute`.
    encode: Duration,
    panic: Option<String>,
}

/// Runs one worker's compute phase to completion — its logic, then the
/// send side of the exchange over what the logic emitted. The single
/// execution path shared by the pool threads and the inline (small-step)
/// path, so fault arming, timing and panic capture are identical wherever
/// a superstep runs.
fn execute_compute<L: WorkerLogic>(mut job: ComputeJob<L>) -> ComputeDone<L> {
    let mut partial = Aggregators::new();
    let mut counters = UserCounters::default();
    let mut sink = TraceSink::new(job.trace);
    let (step, w, bomb) = (job.step, job.worker, job.bomb);
    let mut took = Duration::ZERO;
    let mut encode = Duration::ZERO;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t0 = now();
        if bomb {
            // Unwinds without the panic hook: a recovered fault prints
            // nothing, and `panic_message` reads the payload as usual.
            resume_unwind(Box::new(format!(
                "injected fault: worker {w} at superstep {step}"
            )));
        }
        job.logic.superstep(
            job.phase_step,
            &job.inbox,
            &mut job.outbox,
            &job.globals,
            &mut partial,
            &mut counters,
            &mut sink,
        );
        took = t0.elapsed();
        let t1 = now();
        job.outbox.encode_remote(w);
        encode = t1.elapsed();
    }));
    ComputeDone {
        logic: job.logic,
        inbox: job.inbox,
        outbox: job.outbox,
        partial,
        counters,
        sink,
        took,
        encode,
        panic: outcome.err().map(panic_message),
    }
}

/// A phase whose total staged work (owned vertices at superstep 1,
/// delivered messages afterwards for compute; messages sent for receive)
/// is at or below this bound runs *inline* on the driver thread instead of
/// fanning out to the pool. At that scale a worker's share costs a few
/// microseconds — less than a single cross-thread wakeup — so parallelism
/// is pure loss. The measure is a deterministic function of the message
/// flow, never of wall time, so the same run always picks the same path
/// (and results are path-independent anyway: both paths run the same
/// `execute_*` function over the same per-worker inputs).
const INLINE_COMPUTE_WORK: usize = 4096;

/// What a pool thread is asked to run for its worker.
enum PoolJob<L: WorkerLogic> {
    Compute(ComputeJob<L>),
    Receive(ReceiveJob<L::Msg>),
}

/// A resident pool of threads, one per worker, living for a whole run and
/// executing both parallel phases of every superstep: compute (+ send-side
/// encode) and receive. Spawning OS threads per superstep costs tens of
/// microseconds per barrier — comparable to an entire superstep's compute
/// on bench-sized graphs — so the pool amortizes thread creation across
/// the run and synchronizes each phase with two channel hops instead of
/// spawn + join. Threads spawn lazily at the first dispatched phase: a run
/// whose supersteps all stay under [`INLINE_COMPUTE_WORK`] never creates
/// them.
///
/// Determinism is unaffected: each phase's outputs depend only on the
/// per-worker inputs the driver assembled, and worker panics are caught
/// and reported through the same [`BspError::WorkerPanicked`] path
/// (message text included) as thread-per-step joins produced.
struct ComputePool<'scope, 'env, L: WorkerLogic> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    n: usize,
    jobs: Vec<mpsc::Sender<PoolJob<L>>>,
    computed: Vec<mpsc::Receiver<ComputeDone<L>>>,
    received: Vec<mpsc::Receiver<ReceiveDone<L::Msg>>>,
}

impl<'scope, 'env, L: WorkerLogic + 'scope> ComputePool<'scope, 'env, L> {
    /// A pool of `n` threads attached to `scope`. Threads are not created
    /// until the first dispatch; once spawned they exit when the pool (and
    /// with it the job senders) drops, and the scope then joins them.
    fn start(scope: &'scope std::thread::Scope<'scope, 'env>, n: usize) -> Self {
        ComputePool {
            scope,
            n,
            jobs: Vec::new(),
            computed: Vec::new(),
            received: Vec::new(),
        }
    }

    fn ensure_spawned(&mut self) {
        if self.jobs.len() == self.n {
            return;
        }
        for _ in 0..self.n {
            let (jtx, jrx) = mpsc::channel::<PoolJob<L>>();
            let (ctx, crx) = mpsc::channel::<ComputeDone<L>>();
            let (rtx, rrx) = mpsc::channel::<ReceiveDone<L::Msg>>();
            self.scope.spawn(move || {
                while let Ok(job) = jrx.recv() {
                    let delivered = match job {
                        PoolJob::Compute(job) => ctx.send(execute_compute(job)).is_ok(),
                        PoolJob::Receive(job) => rtx.send(execute_receive(job)).is_ok(),
                    };
                    if !delivered {
                        break; // driver gone; shut down
                    }
                }
            });
            self.jobs.push(jtx);
            self.computed.push(crx);
            self.received.push(rrx);
        }
    }

    /// Hands worker `w`'s next phase to its pool thread.
    fn dispatch(&mut self, step: u64, w: usize, job: PoolJob<L>) -> Result<(), BspError> {
        self.ensure_spawned();
        self.jobs[w]
            .send(job)
            .map_err(|_| Self::thread_lost(step, w))
    }

    /// Blocks until worker `w`'s compute phase finishes.
    fn collect_compute(&mut self, step: u64, w: usize) -> Result<ComputeDone<L>, BspError> {
        self.computed[w]
            .recv()
            .map_err(|_| Self::thread_lost(step, w))
    }

    /// Blocks until worker `w`'s receive phase finishes.
    fn collect_receive(&mut self, step: u64, w: usize) -> Result<ReceiveDone<L::Msg>, BspError> {
        self.received[w]
            .recv()
            .map_err(|_| Self::thread_lost(step, w))
    }

    /// A pool thread disappeared without handing its pieces back. Panics
    /// inside worker logic are caught and reported via [`ComputeDone`],
    /// so this is only reachable through catastrophic thread death; it is
    /// surfaced as the same error the old spawn-per-step join produced.
    fn thread_lost(step: u64, w: usize) -> BspError {
        BspError::WorkerPanicked {
            step,
            workers: vec![(w, "compute pool thread terminated".to_string())],
        }
    }
}

/// The complete state of a run between superstep boundaries. [`run_bsp`]
/// drives it to convergence; a [`Recovery`] session additionally captures
/// it into checkpoints and rolls it back after faults.
pub(crate) struct RunState<L: WorkerLogic> {
    workers: Vec<L>,
    inboxes: Vec<Inbox<L::Msg>>,
    spare: Vec<Inbox<L::Msg>>,
    outboxes: Vec<Outbox<L::Msg>>,
    /// One grouping table per worker, lent to its receive phase.
    tables: Vec<GroupTable>,
    globals: Aggregators,
    checker: RunChecker,
    pub(crate) metrics: RunMetrics,
    /// Last *completed* superstep (0 before the first).
    pub(crate) step: u64,
    /// The superstep after which the current phase began (0 for the
    /// first): the phase's own step number is `step - phase_start`.
    pub(crate) phase_start: u64,
    /// Time spent in the phase hook, which the makespan leaves out.
    phase_time: Duration,
    /// Set when a barrier finalized the halt vote.
    pub(crate) halted: bool,
    /// Total vertices across all partitions — the superstep-1 work bound
    /// for the inline-vs-pool compute decision (every owned vertex
    /// computes at initialization).
    total_vertices: usize,
}

impl<L: WorkerLogic> RunState<L> {
    fn new(workers: Vec<L>, partition: &Arc<PartitionMap>) -> Result<Self, BspError> {
        if workers.len() != partition.workers() {
            return Err(BspError::WorkerMismatch {
                logics: workers.len(),
                partitions: partition.workers(),
            });
        }
        let n = workers.len();
        let outboxes = workers
            .iter()
            .map(|w| Outbox::new(Arc::clone(partition), w.fold()))
            .collect();
        Ok(RunState {
            workers,
            inboxes: (0..n).map(|_| Inbox::default()).collect(),
            spare: (0..n).map(|_| Inbox::default()).collect(),
            outboxes,
            tables: (0..n)
                .map(|w| GroupTable::new(Arc::clone(partition), w))
                .collect(),
            globals: Aggregators::new(),
            checker: RunChecker::new(),
            metrics: RunMetrics::default(),
            step: 0,
            phase_start: 0,
            phase_time: Duration::ZERO,
            halted: false,
            total_vertices: partition.len(),
        })
    }

    /// Executes superstep `self.step + 1`: parallel compute + send-encode,
    /// the barrier, parallel receive-group. On success `self.step` advances
    /// and `self.halted` reflects the halt vote, unless `phase` began
    /// another phase at this barrier; on error the state is mid-superstep
    /// garbage and must be either dropped or rolled back before reuse.
    fn superstep<'scope>(
        &mut self,
        config: &BspConfig,
        master: &mut Option<MasterHook<'_>>,
        phase: &mut Option<PhaseHook<'_, L>>,
        injector: &mut FaultInjector,
        pool: &mut ComputePool<'scope, '_, L>,
    ) -> Result<(), BspError>
    where
        L: 'scope,
    {
        let n = self.workers.len();
        let step = self.step + 1;
        let phase_step = step - self.phase_start;
        self.checker.begin_compute(step);
        let step_start = now();
        let cap_before = routing_capacity(&self.outboxes, &self.inboxes, &self.spare, &self.tables);
        let join_order = schedule_order(n, config.perturb_schedule, step, 0x4a4f_494e);
        let route_order = schedule_order(n, config.perturb_schedule, step, 0x524f_5554);
        // Each sender's frames are visited in their own (possibly
        // perturbed) destination order.
        let dst_order = |src: usize| {
            schedule_order(
                n,
                config.perturb_schedule,
                step ^ (src as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
                0x4445_5354,
            )
        };
        // Injected panics are armed up front on the driver thread, so the
        // injector needs no synchronization with the worker threads.
        let bombs: Vec<bool> = (0..n).map(|w| injector.arm_panic(w, step)).collect();
        let tracing = config.trace.is_enabled();
        let trace_full = config.trace.is_full();
        let trace_cfg = config.trace;
        // Inbox population must be sampled before compute consumes the
        // inboxes; gated on tracing so Off mode allocates nothing here.
        let inbox_stats: Vec<(u64, u64)> = if tracing {
            self.inboxes
                .iter()
                .map(|ib| (ib.active_vertices() as u64, ib.total_messages() as u64))
                .collect()
        } else {
            Vec::new()
        };

        // --- Compute + send-encode: inline for small steps, else pooled. ---
        // The workers, inboxes and outboxes move to the compute phases and
        // come home with the per-step products. When the staged work is at
        // or below INLINE_COMPUTE_WORK the phases run sequentially right
        // here (a cross-thread wakeup costs more than the whole phase);
        // otherwise one resident pool thread per worker runs them and the
        // driver collects in (possibly perturbed) order. Every outstanding
        // phase is collected — even after failures — so a panicking worker
        // cannot leave its state stranded, and *every* poisoned worker is
        // reported, not just the first.
        let work = if phase_step == 1 {
            self.total_vertices
        } else {
            self.inboxes.iter().map(Inbox::total_messages).sum()
        };
        let inline = n <= 1 || work <= INLINE_COMPUTE_WORK;
        let mut slots: Vec<Option<ComputeSlot>> = (0..n).map(|_| None).collect();
        let mut compute_max = Duration::ZERO;
        let mut encode_max = Duration::ZERO;
        let mut tooks: Vec<Duration> = if trace_full {
            vec![Duration::ZERO; n]
        } else {
            Vec::new()
        };
        let mut panicked: Vec<(usize, String)> = Vec::new();
        let workers = std::mem::take(&mut self.workers);
        let inboxes = std::mem::take(&mut self.inboxes);
        let outboxes = std::mem::take(&mut self.outboxes);
        let mut returned: Vec<Option<ComputeDone<L>>> = (0..n).map(|_| None).collect();
        let jobs = workers
            .into_iter()
            .zip(inboxes)
            .zip(outboxes)
            .enumerate()
            .map(|(w, ((logic, inbox), outbox))| ComputeJob {
                step,
                phase_step,
                worker: w,
                bomb: bombs[w],
                logic,
                inbox,
                outbox,
                globals: self.globals.clone(),
                trace: trace_cfg,
            });
        if inline {
            for job in jobs {
                let w = job.worker;
                returned[w] = Some(execute_compute(job));
            }
        } else {
            for job in jobs {
                pool.dispatch(step, job.worker, PoolJob::Compute(job))?;
            }
            for &w in &join_order {
                returned[w] = Some(pool.collect_compute(step, w)?);
            }
        }
        self.workers = Vec::with_capacity(n);
        self.inboxes = Vec::with_capacity(n);
        self.outboxes = Vec::with_capacity(n);
        for (w, done) in returned.into_iter().enumerate() {
            let Some(done) = done else {
                continue; // unreachable: every index was collected above
            };
            self.workers.push(done.logic);
            self.inboxes.push(done.inbox);
            self.outboxes.push(done.outbox);
            match done.panic {
                Some(msg) => panicked.push((w, msg)),
                None => {
                    compute_max = compute_max.max(done.took);
                    encode_max = encode_max.max(done.encode);
                    if trace_full {
                        tooks[w] = done.took;
                    }
                    slots[w] = Some((done.partial, done.counters, done.sink));
                }
            }
        }
        if !panicked.is_empty() {
            return Err(BspError::WorkerPanicked {
                step,
                workers: panicked,
            });
        }
        let after_compute = now();
        self.checker.begin_exchange();

        // --- Barrier: account, draw faults, hand frames to receivers. ---
        // The only serial part of the exchange, and it touches no message:
        // the emission counts come from the outboxes' per-destination
        // tallies, the wire counts from batch and frame lengths (fewer when
        // a fold merged messages), and each destination's
        // arrivals — its senders' frames plus its own typed batch — are
        // *moved* into its receive job in route order, which fixes the
        // delivery order before any receiver runs.
        let mut step_partial = Aggregators::new();
        let mut total_sent = 0u64;
        let mut total_wire = 0u64;
        // Per-worker (counter delta, sink extras) snapshots, taken in route
        // order but re-emitted in worker order at the end of the step.
        let mut worker_snaps: Vec<Option<TraceSnap>> = if tracing {
            (0..n).map(|_| None).collect()
        } else {
            Vec::new()
        };
        let mut arrivals: Vec<Vec<Arrival<L::Msg>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        for &src in &route_order {
            let Some((partial, mut counters, mut sink)) = slots[src].take() else {
                continue;
            };
            let outbox = &mut self.outboxes[src];
            for dst in dst_order(src) {
                let emitted = std::mem::take(&mut outbox.emitted[dst]);
                if emitted == 0 {
                    continue;
                }
                let wire = if dst == src {
                    outbox.batches[src].len()
                } else {
                    outbox.frames[dst].count
                } as u64;
                counters.messages_sent += emitted;
                counters.wire_messages += wire;
                total_sent += emitted;
                total_wire += wire;
                self.checker.record_sent(emitted, wire);
                let arrival = if dst == src {
                    Arrival::Local(std::mem::take(&mut outbox.batches[src]))
                } else {
                    counters.remote_messages += emitted;
                    let mut frame = std::mem::take(&mut outbox.frames[dst]);
                    // The frame's size is the byte metric. The integrity
                    // trailer is framing, not payload, so it is excluded
                    // from the paper's message-size counter.
                    counters.bytes_sent += (frame.bytes.len() - BATCH_TRAILER) as u64;
                    if let Some(draw) = injector.arm_corruption(dst, step) {
                        // Flip one deterministically-chosen bit; the frame
                        // checksum guarantees the receiver reports it.
                        let pos = (draw as usize) % frame.bytes.len();
                        frame.bytes[pos] ^= 1 << ((draw >> 32) % 8);
                    }
                    Arrival::Remote { src, frame }
                };
                arrivals[dst].push(arrival);
            }
            // Aggregator and counter folds are commutative, so the
            // perturbed route order cannot change their totals.
            step_partial.merge(&partial);
            self.metrics.counters += counters;
            if tracing {
                worker_snaps[src] = Some((counters, sink.take_extras()));
            }
        }

        // --- Receive-group: inline for small steps, else pooled. ---
        // Every destination decodes and groups its own arrivals; nothing is
        // shared between receivers, so the phase parallelizes trivially.
        let spare = std::mem::take(&mut self.spare);
        let tables = std::mem::take(&mut self.tables);
        let jobs = spare
            .into_iter()
            .zip(tables)
            .zip(arrivals)
            .map(|((inbox, table), arrivals)| ReceiveJob {
                inbox,
                table,
                arrivals,
            });
        let before_receive = now();
        let mut received: Vec<Option<ReceiveDone<L::Msg>>> = (0..n).map(|_| None).collect();
        if n <= 1 || total_wire as usize <= INLINE_COMPUTE_WORK {
            for (w, job) in jobs.enumerate() {
                received[w] = Some(execute_receive(job));
            }
        } else {
            for (w, job) in jobs.enumerate() {
                pool.dispatch(step, w, PoolJob::Receive(job))?;
            }
            for &w in &join_order {
                received[w] = Some(pool.collect_receive(step, w)?);
            }
        }
        let after_receive = now();
        // Every lent buffer goes home — frames and batches to the outboxes
        // they came from, so their capacity serves the next superstep —
        // before any failure is reported: a faulted step must leave the
        // state whole for rollback.
        let mut receive_max = Duration::ZERO;
        let mut failed: Vec<(usize, usize, &'static str)> = Vec::new();
        for (dst, done) in received.into_iter().enumerate() {
            let Some(done) = done else {
                continue; // unreachable: every index was collected above
            };
            receive_max = receive_max.max(done.took);
            self.checker
                .record_delivered(done.inbox.total_messages() as u64);
            if let Some((src, detail)) = done.failed {
                failed.push((dst, src, detail));
            }
            for arrival in done.arrivals {
                match arrival {
                    Arrival::Local(batch) => self.outboxes[dst].batches[dst] = batch,
                    Arrival::Remote { src, frame } => self.outboxes[src].frames[dst] = frame,
                }
            }
            self.spare.push(done.inbox);
            self.tables.push(done.table);
        }
        if !failed.is_empty() {
            // Several receivers may have met a bad frame in the same step.
            // The one reported is the first in the barrier's own walk —
            // senders in route order, each sender's destinations in its
            // order — whichever thread happened to finish first.
            let &(worker, _, detail) = route_order
                .iter()
                .flat_map(|&src| dst_order(src).into_iter().map(move |dst| (dst, src)))
                .find_map(|at| failed.iter().find(|&&(dst, src, _)| (dst, src) == at))
                .unwrap_or(&failed[0]);
            return Err(BspError::Codec {
                worker,
                step,
                detail,
            });
        }
        let after_exchange = now();
        if phase_step > 2
            && routing_capacity(&self.outboxes, &self.inboxes, &self.spare, &self.tables)
                > cap_before
        {
            self.metrics.routing_growths += 1;
        }

        self.globals = step_partial;
        // Built-in aggregate: how many messages this superstep emitted.
        // Phased programs key their transitions off it.
        self.globals.sum_u64(MESSAGES_SENT_AGG, total_sent);
        let decision = match master.as_mut() {
            Some(hook) => hook(phase_step, &self.globals),
            None => MasterDecision::Continue,
        };

        // Each parallel phase is charged its slowest worker; what remains
        // of the phase's wall time is orchestration. The exchange is the
        // senders' encode, the driver's routing, and the receivers' decode
        // and grouping — encode ran on the compute threads but is not
        // compute.
        let compute_wall = after_compute - step_start;
        let receive_wall = after_receive - before_receive;
        let routing = (after_exchange - after_compute).saturating_sub(receive_wall);
        let timing = StepTiming {
            compute: compute_max,
            messaging: encode_max + routing + receive_max,
            barrier: compute_wall.saturating_sub(compute_max + encode_max)
                + receive_wall.saturating_sub(receive_max),
        };
        self.metrics.record_step(timing);
        std::mem::swap(&mut self.inboxes, &mut self.spare);

        // The phase hook runs only where the run would otherwise halt on
        // its own, and its time is no step's and not the makespan's.
        let quiescent = total_sent == 0 && decision == MasterDecision::Continue;
        let next_phase = quiescent
            && phase.as_mut().is_some_and(|hook| {
                let t0 = now();
                let more = hook(&mut self.workers);
                self.phase_time += t0.elapsed();
                more
            });
        // The halt vote is final here unless a phase continue reopens it.
        let vote_final = quiescent || decision == MasterDecision::Halt;
        let halting = vote_final && !next_phase;
        if tracing {
            // Worker events are emitted in worker order regardless of the
            // perturbed route order, so Counters-level streams stay
            // bit-identical across schedule perturbations.
            for (w, snap) in worker_snaps.iter_mut().enumerate() {
                let Some((counters, extras)) = snap.take() else {
                    continue;
                };
                let (active_vertices, messages_in) = inbox_stats[w];
                self.metrics.trace.push(TraceEvent::WorkerStep {
                    step,
                    worker: w as u32,
                    active_vertices,
                    messages_in,
                    counters,
                    extras,
                    compute_ns: if trace_full { duration_ns(tooks[w]) } else { 0 },
                });
            }
            self.metrics.trace.push(TraceEvent::StepEnd {
                step,
                sent: total_sent,
                halted: halting,
                compute_ns: if trace_full {
                    duration_ns(timing.compute)
                } else {
                    0
                },
                messaging_ns: if trace_full {
                    duration_ns(timing.messaging)
                } else {
                    0
                },
                barrier_ns: if trace_full {
                    duration_ns(timing.barrier)
                } else {
                    0
                },
            });
        }
        self.checker.barrier(total_sent, decision, vote_final);
        if next_phase {
            self.globals = Aggregators::new();
            self.phase_start = step;
            self.checker.resume(step);
        }
        self.step = step;
        self.halted = halting;
        Ok(())
    }

    /// Drives the run until it halts — the only superstep loop. With a
    /// `recovery` session the virgin state is checkpointed first (the very
    /// first superstep may be the one that faults), a checkpoint follows
    /// every `checkpoint_interval` completed supersteps and every phase
    /// boundary, and a recoverable failure rolls back to the latest one
    /// and replays.
    ///
    /// # Errors
    ///
    /// Propagates superstep failures (recoverable ones only once the
    /// session's retry budget is spent, as
    /// [`BspError::RecoveryExhausted`]); exhausting `config.max_supersteps`
    /// without halting is [`BspError::SuperstepLimit`]; exhausting an
    /// explicit `config.superstep_budget` is [`BspError::BudgetExceeded`].
    fn drive<'scope>(
        &mut self,
        config: &BspConfig,
        master: &mut Option<MasterHook<'_>>,
        phase: &mut Option<PhaseHook<'_, L>>,
        pool: &mut ComputePool<'scope, '_, L>,
    ) -> Result<(), BspError>
    where
        L: 'scope,
    {
        let mut recovery = config.recovery.as_ref().map(Recovery::new).transpose()?;
        let injector = &mut FaultInjector::new(config.fault_plan.clone());
        let tracing = config.trace.is_enabled();
        if let Some(session) = &mut recovery {
            session.checkpoint(self, tracing);
        }
        while !self.halted {
            self.admit_next_step(config)?;
            match (
                self.superstep(config, master, phase, injector, pool),
                &mut recovery,
            ) {
                (Ok(()), None) => {}
                (Ok(()), Some(session)) => session.step_completed(self, tracing),
                (Err(err), Some(session)) if err.is_recoverable() => {
                    session.roll_back(self, err, tracing)?;
                    injector.next_attempt();
                }
                (Err(err), _) => return Err(err),
            }
        }
        Ok(())
    }

    /// The admission check the loop makes before running the next
    /// superstep of an unhalted run.
    ///
    /// # Errors
    ///
    /// [`BspError::SuperstepLimit`] once `config.max_supersteps` are spent,
    /// [`BspError::BudgetExceeded`] once an explicit
    /// `config.superstep_budget` is.
    fn admit_next_step(&self, config: &BspConfig) -> Result<(), BspError> {
        if self.step >= config.max_supersteps {
            return Err(BspError::SuperstepLimit {
                limit: config.max_supersteps,
            });
        }
        match config.superstep_budget {
            Some(budget) if self.step >= budget => Err(BspError::BudgetExceeded { budget }),
            _ => Ok(()),
        }
    }

    /// Captures the current superstep boundary: worker states, in-flight
    /// inboxes, aggregator globals, and metrics.
    pub(crate) fn take_checkpoint(&self) -> Checkpoint {
        fn blob(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
            let mut buf = Vec::new();
            write(&mut buf);
            buf
        }
        let worker_states = self.workers.iter().map(|w| blob(|b| w.checkpoint(b)));
        let inboxes = self.inboxes.iter().map(|ib| blob(|b| ib.checkpoint(b)));
        // The trace is monotone over the recovered run (like the recovery
        // counters), so the checkpointed metrics carry none of it: a
        // rollback must not truncate events already emitted.
        let mut metrics = self.metrics.clone();
        metrics.trace.events.clear();
        Checkpoint {
            step: self.step,
            worker_states: worker_states.collect(),
            inboxes: inboxes.collect(),
            globals: self.globals.clone(),
            metrics,
        }
    }

    /// Transplants the run back to `ckpt`'s superstep boundary, discarding
    /// everything since: worker states and in-flight inboxes are restored
    /// from the blobs, the faulted superstep's outboxes (batches and
    /// frames) and half-filled inboxes are dropped, and the metrics rewind
    /// — except the recovery counters and the trace stream, which are
    /// monotone over the whole recovered run (the trace keeps the
    /// rolled-back steps' events; the recovery session marks the rewind
    /// with a [`TraceEvent::Rollback`]). `ckpt` was taken from this run,
    /// so it holds one worker blob and one inbox blob per worker.
    pub(crate) fn rollback(&mut self, ckpt: &Checkpoint) -> Result<(), BspError> {
        for (i, (w, blob)) in self.workers.iter_mut().zip(&ckpt.worker_states).enumerate() {
            w.restore(blob).map_err(|d| BspError::Checkpoint {
                detail: format!("worker {i} state: {d}"),
            })?;
        }
        let restores = self.inboxes.iter_mut().zip(&mut self.tables);
        for (i, ((ib, table), blob)) in restores.zip(&ckpt.inboxes).enumerate() {
            ib.restore(blob, table).map_err(|d| BspError::Checkpoint {
                detail: format!("worker {i} inbox: {d}"),
            })?;
        }
        for ib in &mut self.spare {
            ib.clear();
        }
        for ob in &mut self.outboxes {
            ob.clear();
        }
        self.globals = ckpt.globals.clone();
        let recovery = self.metrics.recovery;
        let trace = std::mem::take(&mut self.metrics.trace);
        self.metrics = ckpt.metrics.clone();
        self.metrics.recovery = recovery;
        self.metrics.trace = trace;
        self.step = ckpt.step;
        self.halted = false;
        self.checker.resume(ckpt.step);
        Ok(())
    }
}

/// Runs `workers` to convergence (no messages in flight and no master
/// continuation) and returns the worker states plus the run metrics.
///
/// Convergence rule (Sec. IV-A2): all vertices implicitly vote to halt
/// after each superstep and only messages reactivate them, so the run stops
/// at the first superstep that emits no messages. The first superstep always
/// runs (with empty inboxes) so programs can initialize.
///
/// With a `phase` hook, that superstep ends a phase instead whenever the
/// hook starts another ([`PhaseHook`]): the workers see step 1 again, and
/// the run halts at the first quiescent barrier the hook lets pass.
/// [`MasterDecision::Halt`] ends the whole run.
///
/// [`BspConfig::recovery`] is the loop's fault-tolerance option. Without
/// it, a fault — real, or injected via [`BspConfig::fault_plan`] — kills
/// the run at first trigger. With it, recoverable faults roll the run back
/// to the latest checkpoint and replay; the compute pool lives across
/// checkpoints, rollbacks and retries, so recovery pays thread creation
/// once.
///
/// # Errors
///
/// Surfaces poisoned workers (worker threads panicking mid-superstep) and
/// wire-codec corruption as [`BspError`] instead of panicking, per the
/// failure-injection intent of DESIGN.md §7, and non-convergence within
/// `config.max_supersteps` as [`BspError::SuperstepLimit`]; a recovery
/// schedule whose interval is 0 is [`BspError::Checkpoint`]. With recovery,
/// those two fault classes trigger rollback instead, and once the session's
/// `max_attempts` rollbacks are spent the run fails with
/// [`BspError::RecoveryExhausted`] carrying the full fault history;
/// non-recoverable failures ([`BspError::WorkerMismatch`],
/// [`BspError::SuperstepLimit`], [`BspError::BudgetExceeded`],
/// [`BspError::Checkpoint`]) propagate immediately either way.
pub fn run_bsp<L: WorkerLogic>(
    config: &BspConfig,
    workers: Vec<L>,
    partition: Arc<PartitionMap>,
    mut master: Option<MasterHook<'_>>,
    mut phase: Option<PhaseHook<'_, L>>,
) -> Result<(Vec<L>, RunMetrics), BspError> {
    let mut state = RunState::new(workers, &partition)?;
    let run_start = now();
    let n = state.workers.len();
    std::thread::scope(|scope| {
        let mut pool = ComputePool::start(scope, n);
        state.drive(config, &mut master, &mut phase, &mut pool)
    })?;
    state.metrics.makespan = run_start.elapsed().saturating_sub(state.phase_time);
    Ok((state.workers, state.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{TemporalGraph, VIdx, VertexId};
    use graphite_tgraph::time::Interval;

    fn ring(n: u64) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..n {
            b.add_vertex(VertexId(i), Interval::new(0, 10)).unwrap();
        }
        for i in 0..n {
            b.add_edge(
                graphite_tgraph::graph::EdgeId(i),
                VertexId(i),
                VertexId((i + 1) % n),
                Interval::new(0, 10),
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    /// A toy token-passing logic: vertex 0 emits a counter that travels the
    /// ring once, incrementing at every hop; every worker also aggregates
    /// the max token seen.
    struct TokenLogic {
        graph: Arc<TemporalGraph>,
        owned: Vec<VIdx>,
        seen: Vec<(VIdx, u64)>,
        hops: u64,
    }

    impl WorkerLogic for TokenLogic {
        type Msg = u64;
        fn superstep(
            &mut self,
            step: u64,
            inbox: &Inbox<u64>,
            outbox: &mut Outbox<u64>,
            _globals: &Aggregators,
            partial: &mut Aggregators,
            counters: &mut UserCounters,
            _sink: &mut TraceSink,
        ) {
            if step == 1 {
                for &v in &self.owned {
                    if self.graph.vertex(v).vid == VertexId(0) {
                        counters.compute_calls += 1;
                        let next = self.graph.edge(self.graph.out_edges(v)[0]).dst;
                        outbox.send(next, 1);
                    }
                }
                return;
            }
            for (v, msgs) in inbox.iter() {
                counters.compute_calls += 1;
                for &m in msgs {
                    self.seen.push((v, m));
                    partial.max_i64("max-token", m as i64);
                    if m < self.hops {
                        let next = self.graph.edge(self.graph.out_edges(v)[0]).dst;
                        outbox.send(next, m + 1);
                    }
                }
            }
        }

        // These runs never recover; a rollback would be a test bug.
        fn checkpoint(&self, _buf: &mut Vec<u8>) {}
        fn restore(&mut self, _bytes: &[u8]) -> Result<(), &'static str> {
            Err("token logic is not checkpointed")
        }
    }

    fn run_token(n: u64, workers: usize, hops: u64) -> (Vec<TokenLogic>, RunMetrics) {
        run_token_with(n, workers, hops, &BspConfig::default())
    }

    fn run_token_with(
        n: u64,
        workers: usize,
        hops: u64,
        config: &BspConfig,
    ) -> (Vec<TokenLogic>, RunMetrics) {
        let graph = Arc::new(ring(n));
        let partition = Arc::new(PartitionMap::hash(&graph, workers).expect("partition"));
        let logics = (0..workers)
            .map(|w| TokenLogic {
                graph: Arc::clone(&graph),
                owned: partition.owned_by(w),
                seen: Vec::new(),
                hops,
            })
            .collect();
        run_bsp(config, logics, partition, None, None).unwrap()
    }

    #[test]
    fn token_travels_the_ring() {
        for workers in [1, 2, 4] {
            let (logics, metrics) = run_token(8, workers, 8);
            let mut seen: Vec<(VIdx, u64)> = logics.into_iter().flat_map(|l| l.seen).collect();
            seen.sort_by_key(|&(_, m)| m);
            let tokens: Vec<u64> = seen.iter().map(|&(_, m)| m).collect();
            assert_eq!(tokens, (1..=8).collect::<Vec<_>>(), "workers={workers}");
            // 1 emit + 8 hops; the last hop's superstep emits nothing.
            assert_eq!(metrics.counters.messages_sent, 8);
            assert_eq!(metrics.supersteps, 9, "9th delivers token 8, sends nothing");
        }
    }

    #[test]
    fn metrics_count_remote_vs_local() {
        let (_, m1) = run_token(8, 1, 8);
        assert_eq!(m1.counters.remote_messages, 0, "single worker is all-local");
        assert_eq!(m1.counters.bytes_sent, 0);
        let (_, m4) = run_token(8, 4, 8);
        assert!(m4.counters.remote_messages > 0);
        assert!(m4.counters.bytes_sent > 0);
        assert_eq!(m4.counters.messages_sent, m1.counters.messages_sent);
    }

    #[test]
    fn aggregators_reach_master() {
        let graph = Arc::new(ring(6));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics = (0..2)
            .map(|w| TokenLogic {
                graph: Arc::clone(&graph),
                owned: partition.owned_by(w),
                seen: Vec::new(),
                hops: 6,
            })
            .collect();
        let mut max_seen = Vec::new();
        let mut hook = |_step: u64, agg: &Aggregators| {
            if let Some(v) = agg.get_max_i64("max-token") {
                max_seen.push(v);
            }
            MasterDecision::Continue
        };
        run_bsp(
            &BspConfig::default(),
            logics,
            partition,
            Some(&mut hook),
            None,
        )
        .unwrap();
        assert_eq!(max_seen, (1..=6).collect::<Vec<_>>());
    }

    #[test]
    fn master_can_halt_early() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics = (0..2)
            .map(|w| TokenLogic {
                graph: Arc::clone(&graph),
                owned: partition.owned_by(w),
                seen: Vec::new(),
                hops: 8,
            })
            .collect();
        let mut hook = |step: u64, _: &Aggregators| {
            if step >= 3 {
                MasterDecision::Halt
            } else {
                MasterDecision::Continue
            }
        };
        let (_, metrics) = run_bsp(
            &BspConfig::default(),
            logics,
            partition,
            Some(&mut hook),
            None,
        )
        .unwrap();
        assert_eq!(metrics.supersteps, 3);
    }

    #[test]
    fn exhausting_max_supersteps_is_an_error() {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 1).expect("partition"));
        let logics = vec![TokenLogic {
            graph: Arc::clone(&graph),
            owned: partition.owned_by(0),
            seen: Vec::new(),
            hops: u64::MAX, // never stops on its own
        }];
        let config = BspConfig {
            max_supersteps: 5,
            ..Default::default()
        };
        let Err(err) = run_bsp(&config, logics, partition, None, None) else {
            panic!("non-convergence must not be a silent Ok");
        };
        assert_eq!(err, BspError::SuperstepLimit { limit: 5 });
        assert!(!err.is_recoverable(), "rollback cannot fix non-convergence");
    }

    #[test]
    fn converging_exactly_at_the_cap_is_ok() {
        // 8 hops converge at superstep 9; a cap of exactly 9 must pass.
        let config = BspConfig {
            max_supersteps: 9,
            ..Default::default()
        };
        let (_, metrics) = run_token_with(8, 2, 8, &config);
        assert_eq!(metrics.supersteps, 9);
    }

    #[test]
    fn makespan_covers_the_compute_split() {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 1).expect("partition"));
        let logics = vec![TokenLogic {
            graph: Arc::clone(&graph),
            owned: partition.owned_by(0),
            seen: Vec::new(),
            hops: 4,
        }];
        let (_, metrics) = run_bsp(&BspConfig::default(), logics, partition, None, None).unwrap();
        assert!(metrics.makespan >= metrics.compute_plus);
    }

    #[test]
    fn worker_count_mismatch_is_an_error() {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics = vec![TokenLogic {
            graph: Arc::clone(&graph),
            owned: partition.owned_by(0),
            seen: Vec::new(),
            hops: 1,
        }];
        let Err(err) = run_bsp(&BspConfig::default(), logics, partition, None, None) else {
            panic!("mismatched worker count must not run");
        };
        assert_eq!(
            err,
            BspError::WorkerMismatch {
                logics: 1,
                partitions: 2
            }
        );
    }

    /// A logic whose listed workers panic at superstep 2.
    struct Bomb {
        worker: usize,
        bad: Vec<usize>,
    }

    impl WorkerLogic for Bomb {
        type Msg = u64;
        fn superstep(
            &mut self,
            step: u64,
            _inbox: &Inbox<u64>,
            outbox: &mut Outbox<u64>,
            _globals: &Aggregators,
            _partial: &mut Aggregators,
            _counters: &mut UserCounters,
            _sink: &mut TraceSink,
        ) {
            if step == 2 && self.bad.contains(&self.worker) {
                panic!("boom from {}", self.worker);
            }
            if step == 1 && self.worker == 0 {
                outbox.send(VIdx(0), 1); // keep the run alive into step 2
            }
        }

        // Stateless: nothing to capture.
        fn checkpoint(&self, _buf: &mut Vec<u8>) {}
        fn restore(&mut self, _bytes: &[u8]) -> Result<(), &'static str> {
            Ok(())
        }
    }

    #[test]
    fn poisoned_worker_surfaces_as_error() {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics = (0..2)
            .map(|worker| Bomb {
                worker,
                bad: vec![1],
            })
            .collect();
        let Err(err) = run_bsp(&BspConfig::default(), logics, partition, None, None) else {
            panic!("poisoned run must not succeed");
        };
        match err {
            BspError::WorkerPanicked { step, workers } => {
                assert_eq!(step, 2);
                assert_eq!(workers.len(), 1);
                assert_eq!(workers[0].0, 1);
                assert!(workers[0].1.contains("boom from 1"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn all_poisoned_workers_are_reported() {
        // Three of four workers die in the same superstep; the error must
        // list every one of them, in worker order, under every perturbed
        // join order.
        for perturb in [None, Some(7u64), Some(0xDEAD_BEEF)] {
            let graph = Arc::new(ring(8));
            let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
            let logics = (0..4)
                .map(|worker| Bomb {
                    worker,
                    bad: vec![0, 2, 3],
                })
                .collect();
            let config = BspConfig {
                perturb_schedule: perturb,
                ..Default::default()
            };
            let Err(err) = run_bsp(&config, logics, partition, None, None) else {
                panic!("poisoned run must not succeed");
            };
            let BspError::WorkerPanicked { step, workers } = err else {
                panic!("expected WorkerPanicked");
            };
            assert_eq!(step, 2);
            let indices: Vec<usize> = workers.iter().map(|p| p.0).collect();
            assert_eq!(indices, vec![0, 2, 3], "perturb={perturb:?}");
            for (w, msg) in &workers {
                assert!(msg.contains(&format!("boom from {w}")));
            }
        }
    }

    #[test]
    fn injected_panic_fault_kills_a_plain_run() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics = (0..2)
            .map(|w| TokenLogic {
                graph: Arc::clone(&graph),
                owned: partition.owned_by(w),
                seen: Vec::new(),
                hops: 8,
            })
            .collect();
        let config = BspConfig {
            fault_plan: Some(FaultPlan::panic_at(1, 3)),
            ..Default::default()
        };
        let Err(err) = run_bsp(&config, logics, partition, None, None) else {
            panic!("injected fault must surface");
        };
        let BspError::WorkerPanicked { step, workers } = err else {
            panic!("expected WorkerPanicked");
        };
        assert_eq!(step, 3);
        assert_eq!(workers[0].0, 1);
        assert!(workers[0].1.contains("injected fault"));
    }

    #[test]
    fn injected_corruption_fault_surfaces_as_codec_error() {
        // The ring under 4 workers ships remote batches every superstep;
        // corrupting the batch bound for some worker must surface as a
        // checksum mismatch at exactly the planned superstep.
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
        // The token visits one vertex per superstep; find a worker that is
        // a remote destination at step 2 by trying all of them.
        let mut hit = false;
        for dst in 0..4 {
            let logics: Vec<TokenLogic> = (0..4)
                .map(|w| TokenLogic {
                    graph: Arc::clone(&graph),
                    owned: partition.owned_by(w),
                    seen: Vec::new(),
                    hops: 8,
                })
                .collect();
            let config = BspConfig {
                fault_plan: Some(FaultPlan::corrupt_at(dst, 2)),
                ..Default::default()
            };
            match run_bsp(&config, logics, Arc::clone(&partition), None, None) {
                Err(BspError::Codec {
                    worker,
                    step,
                    detail,
                }) => {
                    assert_eq!(worker, dst);
                    assert_eq!(step, 2);
                    assert!(detail.contains("checksum"), "got {detail}");
                    hit = true;
                }
                Ok(_) => {} // dst received no remote batch at step 2
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(hit, "no worker was a remote destination at step 2");
    }

    /// Records the step number and whether the globals were empty at
    /// each superstep it runs; worker 0 sends itself one message in each
    /// of a phase's first `hops` supersteps. Its checkpoint is the length
    /// of that record, so a rollback forgets the replayed entries.
    struct Phased {
        worker: usize,
        hops: u64,
        seen: Vec<(u64, bool)>,
    }

    impl WorkerLogic for Phased {
        type Msg = u64;
        fn superstep(
            &mut self,
            step: u64,
            _inbox: &Inbox<u64>,
            outbox: &mut Outbox<u64>,
            globals: &Aggregators,
            _partial: &mut Aggregators,
            _counters: &mut UserCounters,
            _sink: &mut TraceSink,
        ) {
            let empty = globals.get_sum_u64(MESSAGES_SENT_AGG).is_none();
            self.seen.push((step, empty));
            if self.worker == 0 && step <= self.hops {
                outbox.send(VIdx(0), step);
            }
        }

        fn checkpoint(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(self.seen.len() as u64).to_le_bytes());
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
            let len: [u8; 8] = bytes.try_into().map_err(|_| "phased blob")?;
            self.seen.truncate(u64::from_le_bytes(len) as usize);
            Ok(())
        }
    }

    /// Three phases of four supersteps: the hook starts two more after
    /// the first, and says no at the third's quiescent barrier.
    fn run_phased(config: &BspConfig) -> (Vec<Phased>, RunMetrics, Vec<u64>, u64) {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics = (0..2)
            .map(|worker| Phased {
                worker,
                hops: 3,
                seen: Vec::new(),
            })
            .collect();
        let (mut master_steps, mut calls) = (Vec::new(), 0);
        let mut master = |step: u64, _: &Aggregators| {
            master_steps.push(step);
            MasterDecision::Continue
        };
        let mut hook = |workers: &mut [Phased]| {
            assert_eq!(workers.len(), 2);
            calls += 1;
            calls < 3
        };
        let (logics, metrics) = run_bsp(
            config,
            logics,
            partition,
            Some(&mut master),
            Some(&mut hook),
        )
        .unwrap();
        (logics, metrics, master_steps, calls)
    }

    #[test]
    fn phases_restart_the_step_number_and_the_globals_in_one_run() {
        let config = BspConfig {
            trace: TraceConfig::counters(),
            ..Default::default()
        };
        let (logics, metrics, master_steps, calls) = run_phased(&config);
        assert_eq!(calls, 3, "the hook runs at every quiescent barrier");
        assert_eq!(metrics.supersteps, 12, "the cap and budget see 12");
        let phase: Vec<(u64, bool)> = vec![(1, true), (2, false), (3, false), (4, false)];
        assert_eq!(logics[0].seen, phase.repeat(3));
        assert_eq!(master_steps, [1, 2, 3, 4].repeat(3));
        let ends: Vec<(u64, bool)> = metrics
            .trace
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::StepEnd { step, halted, .. } => Some((step, halted)),
                _ => None,
            })
            .collect();
        let want: Vec<(u64, bool)> = (1..=12).map(|step| (step, step == 12)).collect();
        assert_eq!(ends, want, "one run's trace: whole-run steps, one halt");
        // The phase budget counts whole-run supersteps.
        let capped = BspConfig {
            superstep_budget: Some(11),
            ..Default::default()
        };
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let logics: Vec<Phased> = (0..2)
            .map(|worker| Phased {
                worker,
                hops: 3,
                seen: Vec::new(),
            })
            .collect();
        let mut hook = |_: &mut [Phased]| true;
        let Err(err) = run_bsp(&capped, logics, partition, None, Some(&mut hook)) else {
            panic!("an endless walk must spend its budget");
        };
        assert_eq!(err, BspError::BudgetExceeded { budget: 11 });
    }

    #[test]
    fn a_fault_at_a_phase_start_rolls_back_to_its_boundary() {
        let (clean, clean_metrics, ..) = run_phased(&BspConfig::default());
        // Superstep 5 is the second phase's first; the interval is longer
        // than the run, so only the boundary checkpoints exist.
        let config = BspConfig {
            fault_plan: Some(FaultPlan::panic_at(1, 5)),
            recovery: Some(RecoveryConfig::every(100)),
            ..Default::default()
        };
        let (logics, metrics, ..) = run_phased(&config);
        assert_eq!(logics[0].seen, clean[0].seen);
        assert_eq!(metrics.supersteps, clean_metrics.supersteps);
        assert_eq!(metrics.counters, clean_metrics.counters);
        assert_eq!(metrics.recovery.rollbacks, 1);
        assert_eq!(metrics.recovery.supersteps_replayed, 1);
        assert_eq!(
            metrics.recovery.checkpoints_taken, 3,
            "start + two boundaries"
        );
    }

    #[test]
    fn perturbed_schedules_are_result_invariant() {
        let baseline = run_token(8, 4, 8);
        let canonical: Vec<(VIdx, u64)> = {
            let mut s: Vec<(VIdx, u64)> = baseline.0.into_iter().flat_map(|l| l.seen).collect();
            s.sort_unstable();
            s
        };
        for seed in 0..8u64 {
            let config = BspConfig {
                perturb_schedule: Some(seed),
                ..Default::default()
            };
            let (logics, metrics) = run_token_with(8, 4, 8, &config);
            let mut seen: Vec<(VIdx, u64)> = logics.into_iter().flat_map(|l| l.seen).collect();
            seen.sort_unstable();
            assert_eq!(seen, canonical, "seed={seed}");
            assert_eq!(
                metrics.counters.messages_sent,
                baseline.1.counters.messages_sent
            );
            assert_eq!(
                metrics.counters.remote_messages,
                baseline.1.counters.remote_messages
            );
            assert_eq!(metrics.counters.bytes_sent, baseline.1.counters.bytes_sent);
            assert_eq!(metrics.supersteps, baseline.1.supersteps);
        }
    }
}
