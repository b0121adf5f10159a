//! Checkpoint/rollback recovery: an option of the one superstep loop.
//!
//! There is a single loop, `RunState::drive` in [`crate::engine`]; a
//! [`crate::engine::BspConfig::recovery`] schedule makes that loop fault-tolerant:
//! [`crate::engine::run_bsp`] opens a `Recovery` session that captures a
//! `Checkpoint` of the complete run state (every worker's
//! [`WorkerLogic::checkpoint`] blob, in-flight inboxes, aggregator
//! globals, metrics) every [`RecoveryConfig::checkpoint_interval`]
//! supersteps, and on a *recoverable* failure ([`BspError::is_recoverable`]:
//! poisoned workers, wire corruption) rolls the run back to the latest
//! checkpoint and replays. Replays are bit-deterministic — the
//! fault-matrix tests pin that a recovered run's result digest is
//! identical to the fault-free digest — because everything the
//! computation can observe is inside the checkpoint, and everything
//! outside it (the fault injector's fired-state, the recovery counters)
//! is invisible to the computation.
//!
//! The retry budget is bounded: after [`RecoveryConfig::max_attempts`]
//! rollbacks the loop gives up with [`BspError::RecoveryExhausted`],
//! carrying the complete fault history — a persistent fault (same failure
//! on every replay) must terminate with a diagnosis, not loop forever or
//! return a wrong answer. Non-recoverable errors (configuration mismatch,
//! non-convergence, a checkpoint that fails to restore) propagate
//! immediately.
//!
//! Every worker checkpoints: [`WorkerLogic`] requires the capture and
//! restore of its user state, so recovery is a substrate option any run
//! may ask for, never a property of the program. A run with phases
//! ([`crate::engine::PhaseHook`]) also checkpoints at every phase
//! boundary, so a rollback never crosses one and the hook's own walk
//! state needs no capture. A checkpoint lives in memory for the length
//! of one run: rollback is in-process (DESIGN.md §11).

use crate::aggregate::Aggregators;
use crate::engine::{RunState, WorkerLogic};
use crate::error::BspError;
use crate::metrics::RunMetrics;
use crate::trace::TraceEvent;

/// The recovery schedule of a run ([`crate::engine::BspConfig::recovery`]).
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Take a checkpoint after every this-many completed supersteps (a
    /// checkpoint at superstep 0 — before the first — is always taken, so
    /// the run can roll back to the beginning). Must be at least 1.
    pub checkpoint_interval: u64,
    /// How many rollbacks the loop performs before giving up with
    /// [`BspError::RecoveryExhausted`].
    pub max_attempts: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 8,
            max_attempts: 3,
        }
    }
}

impl RecoveryConfig {
    /// A config with the given checkpoint interval.
    #[must_use]
    pub fn every(checkpoint_interval: u64) -> Self {
        RecoveryConfig {
            checkpoint_interval,
            ..Default::default()
        }
    }
}

/// A captured superstep boundary: the unit a recovery session retains and
/// a rollback restores. Worker states and inboxes are byte blobs — they
/// round-trip through the same codec the network path uses; the
/// aggregator/metrics control block stays an in-memory clone (aggregator
/// keys are `&'static str` interned by user code, which bytes cannot
/// reconstruct).
#[derive(Debug)]
pub(crate) struct Checkpoint {
    /// The superstep this checkpoint sits after (0 = before the first).
    pub(crate) step: u64,
    /// Per-worker [`WorkerLogic::checkpoint`] blobs.
    pub(crate) worker_states: Vec<Vec<u8>>,
    /// Per-worker in-flight inbox blobs (messages delivered at the last
    /// barrier, pending consumption in superstep `step + 1`).
    pub(crate) inboxes: Vec<Vec<u8>>,
    /// Merged aggregator globals as of the barrier.
    pub(crate) globals: Aggregators,
    /// Run metrics as of the barrier (recovery counters excluded on
    /// rollback — they are monotone over the whole recovered run).
    pub(crate) metrics: RunMetrics,
}

impl Checkpoint {
    /// Serialized payload size: the bytes the checkpoint retains.
    fn payload_bytes(&self) -> u64 {
        self.worker_states
            .iter()
            .chain(self.inboxes.iter())
            .map(|b| b.len() as u64)
            .sum()
    }
}

/// One run's recovery session: the latest checkpoint and the retry ledger.
///
/// The happy path of a recovered run is the plain run plus checkpoint
/// capture: same convergence rule, same metrics — plus
/// [`crate::metrics::RecoveryMetrics`] accounting for checkpoints
/// taken/bytes, rollbacks, and replayed supersteps (which never enter
/// result digests, like the other environment-sensitive metrics).
pub(crate) struct Recovery {
    checkpoint_interval: u64,
    max_attempts: u64,
    /// The newest captured boundary; each capture replaces it.
    latest: Option<Checkpoint>,
    history: Vec<BspError>,
    since_checkpoint: u64,
}

impl Recovery {
    /// A session over `config`, for one run.
    ///
    /// # Errors
    ///
    /// [`BspError::Checkpoint`] when `config.checkpoint_interval` is 0.
    pub(crate) fn new(config: &RecoveryConfig) -> Result<Self, BspError> {
        if config.checkpoint_interval == 0 {
            return Err(BspError::Checkpoint {
                detail: "checkpoint_interval must be at least 1".into(),
            });
        }
        Ok(Recovery {
            checkpoint_interval: config.checkpoint_interval,
            max_attempts: config.max_attempts,
            latest: None,
            history: Vec::new(),
            since_checkpoint: 0,
        })
    }

    /// Captures the current boundary as the latest checkpoint, bumping the
    /// recovery counters (and, when tracing, marking the trace stream).
    pub(crate) fn checkpoint<L: WorkerLogic>(&mut self, state: &mut RunState<L>, tracing: bool) {
        let ckpt = state.take_checkpoint();
        let bytes = ckpt.payload_bytes();
        self.latest = Some(ckpt);
        state.metrics.recovery.checkpoints_taken += 1;
        state.metrics.recovery.checkpoint_bytes += bytes;
        if tracing {
            state.metrics.trace.push(TraceEvent::Checkpoint {
                step: state.step,
                bytes,
            });
        }
        self.since_checkpoint = 0;
    }

    /// A superstep completed: checkpoint if the interval is due or a
    /// phase just began.
    pub(crate) fn step_completed<L: WorkerLogic>(
        &mut self,
        state: &mut RunState<L>,
        tracing: bool,
    ) {
        self.since_checkpoint += 1;
        let due = self.since_checkpoint >= self.checkpoint_interval;
        if !state.halted && (due || state.phase_start == state.step) {
            self.checkpoint(state, tracing);
        }
    }

    /// A superstep failed with the recoverable `err`: roll `state` back to
    /// the latest checkpoint, or give up once the retry budget is spent.
    pub(crate) fn roll_back<L: WorkerLogic>(
        &mut self,
        state: &mut RunState<L>,
        err: BspError,
        tracing: bool,
    ) -> Result<(), BspError> {
        // Every earlier entry of the history was rolled back, so the budget
        // is spent once the history outgrows it.
        self.history.push(err.clone());
        if self.history.len() as u64 > self.max_attempts {
            return Err(BspError::RecoveryExhausted {
                attempts: self.history.len() as u64,
                last: Box::new(err),
                history: std::mem::take(&mut self.history),
            });
        }
        let ckpt = self.latest.as_ref().ok_or_else(|| BspError::Checkpoint {
            detail: "no checkpoint available for rollback".into(),
        })?;
        // Supersteps to re-execute: the completed ones since the
        // checkpoint, plus the faulted superstep's retry.
        let lost = state.step.saturating_sub(ckpt.step) + 1;
        let from_step = state.step;
        state.rollback(ckpt)?;
        if tracing {
            state.metrics.trace.push(TraceEvent::Rollback {
                from_step,
                to_step: ckpt.step,
            });
        }
        state.metrics.recovery.rollbacks += 1;
        state.metrics.recovery.supersteps_replayed += lost;
        self.since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{Aggregators, MasterDecision};
    use crate::engine::{run_bsp, BspConfig, Inbox, MasterHook, Outbox};
    use crate::fault::{Fault, FaultKind, FaultMode, FaultPlan};
    use crate::metrics::{RunMetrics, UserCounters};
    use crate::partition::PartitionMap;
    use crate::trace::TraceSink;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{EdgeId, TemporalGraph, VIdx, VertexId};
    use graphite_tgraph::time::Interval;
    use std::sync::Arc;

    fn ring(n: u64) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..n {
            b.add_vertex(VertexId(i), Interval::new(0, 10)).unwrap();
        }
        for i in 0..n {
            b.add_edge(
                EdgeId(i),
                VertexId(i),
                VertexId((i + 1) % n),
                Interval::new(0, 10),
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    /// Token-passing logic with snapshotable state: counts every token
    /// observation per worker, so a replayed superstep that double-counted
    /// would corrupt `total`.
    #[derive(Debug)]
    struct CountingToken {
        graph: Arc<TemporalGraph>,
        owned: Vec<VIdx>,
        hops: u64,
        total: u64,
    }

    impl WorkerLogic for CountingToken {
        type Msg = u64;
        fn superstep(
            &mut self,
            step: u64,
            inbox: &Inbox<u64>,
            outbox: &mut Outbox<u64>,
            _globals: &Aggregators,
            _partial: &mut Aggregators,
            _counters: &mut UserCounters,
            _sink: &mut TraceSink,
        ) {
            if step == 1 {
                for &v in &self.owned {
                    if self.graph.vertex(v).vid == VertexId(0) {
                        let next = self.graph.edge(self.graph.out_edges(v)[0]).dst;
                        outbox.send(next, 1);
                    }
                }
                return;
            }
            for (v, msgs) in inbox.iter() {
                for &m in msgs {
                    self.total += m;
                    if m < self.hops {
                        let next = self.graph.edge(self.graph.out_edges(v)[0]).dst;
                        outbox.send(next, m + 1);
                    }
                }
            }
        }

        fn checkpoint(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.total.to_le_bytes());
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
            let arr: [u8; 8] = bytes.try_into().map_err(|_| "counting-token blob")?;
            self.total = u64::from_le_bytes(arr);
            Ok(())
        }
    }

    fn logics(
        graph: &Arc<TemporalGraph>,
        partition: &Arc<PartitionMap>,
        hops: u64,
    ) -> Vec<CountingToken> {
        (0..partition.workers())
            .map(|w| CountingToken {
                graph: Arc::clone(graph),
                owned: partition.owned_by(w),
                hops,
                total: 0,
            })
            .collect()
    }

    fn totals(workers: &[CountingToken]) -> u64 {
        workers.iter().map(|w| w.total).sum()
    }

    fn run_recoverable(
        config: &BspConfig,
        recovery: &RecoveryConfig,
        workers: Vec<CountingToken>,
        partition: Arc<PartitionMap>,
        master: Option<MasterHook<'_>>,
    ) -> Result<(Vec<CountingToken>, RunMetrics), BspError> {
        let config = BspConfig {
            recovery: Some(recovery.clone()),
            ..config.clone()
        };
        run_bsp(&config, workers, partition, master, None)
    }

    #[test]
    fn payload_bytes_sums_state_and_inbox_blobs() {
        let ckpt = Checkpoint {
            step: 4,
            worker_states: vec![vec![1, 2, 3], vec![4]],
            inboxes: vec![vec![5, 6], Vec::new()],
            globals: Aggregators::new(),
            metrics: RunMetrics::default(),
        };
        assert_eq!(ckpt.payload_bytes(), 6);
    }

    #[test]
    fn fault_free_recoverable_run_matches_plain_run() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 3).expect("partition"));
        let (plain, pm) = run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
            None,
        )
        .unwrap();
        let (rec, rm) = run_recoverable(
            &BspConfig::default(),
            &RecoveryConfig::every(2),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        assert_eq!(totals(&plain), totals(&rec));
        assert_eq!(pm.supersteps, rm.supersteps);
        assert_eq!(pm.counters, rm.counters);
        assert!(rm.recovery.checkpoints_taken > 1);
        assert_eq!(rm.recovery.rollbacks, 0);
        assert_eq!(rm.recovery.supersteps_replayed, 0);
        assert_eq!(
            pm.recovery.checkpoints_taken, 0,
            "plain run never checkpoints"
        );
    }

    #[test]
    fn transient_panic_is_rolled_back_and_replayed() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 3).expect("partition"));
        let (plain, pm) = run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
            None,
        )
        .unwrap();
        let config = BspConfig {
            fault_plan: Some(FaultPlan::panic_at(1, 5)),
            ..Default::default()
        };
        let (rec, rm) = run_recoverable(
            &config,
            &RecoveryConfig::every(2),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        assert_eq!(totals(&plain), totals(&rec), "recovered result must match");
        assert_eq!(
            pm.supersteps, rm.supersteps,
            "replay is invisible in supersteps"
        );
        assert_eq!(pm.counters, rm.counters, "replay is invisible in counters");
        assert_eq!(rm.recovery.rollbacks, 1);
        assert!(rm.recovery.supersteps_replayed >= 1);
    }

    #[test]
    fn persistent_panic_exhausts_the_retry_budget() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let config = BspConfig {
            fault_plan: Some(FaultPlan::panic_at(0, 3).persistent()),
            ..Default::default()
        };
        let recovery = RecoveryConfig {
            checkpoint_interval: 2,
            max_attempts: 3,
        };
        let err = run_recoverable(
            &config,
            &recovery,
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap_err();
        let BspError::RecoveryExhausted {
            attempts,
            last,
            history,
        } = err
        else {
            panic!("expected RecoveryExhausted, got something else");
        };
        assert_eq!(attempts, 4, "initial attempt + 3 replays");
        assert_eq!(history.len(), 4);
        assert!(
            last.is_recoverable(),
            "the final fault itself was recoverable"
        );
        for h in &history {
            assert!(matches!(h, BspError::WorkerPanicked { step: 3, .. }));
        }
    }

    #[test]
    fn multiple_transient_faults_across_attempts_recover() {
        let graph = Arc::new(ring(12));
        let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
        let (plain, _) = run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 12),
            Arc::clone(&partition),
            None,
            None,
        )
        .unwrap();
        // Two separate transient panics: the replay of the first runs into
        // the second, needing a second rollback.
        let plan = FaultPlan::panic_at(0, 4).and(Fault {
            worker: 2,
            step: 7,
            kind: FaultKind::WorkerPanic,
            mode: FaultMode::Transient,
        });
        let config = BspConfig {
            fault_plan: Some(plan),
            ..Default::default()
        };
        let (rec, rm) = run_recoverable(
            &config,
            &RecoveryConfig::every(3),
            logics(&graph, &partition, 12),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        assert_eq!(totals(&plain), totals(&rec));
        assert_eq!(rm.recovery.rollbacks, 2);
    }

    #[test]
    fn wire_corruption_is_rolled_back_and_replayed() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
        let (plain, _) = run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
            None,
        )
        .unwrap();
        // Corrupt batches bound for every worker at step 3: whichever
        // worker receives remote traffic then will trip the checksum.
        let mut plan = FaultPlan::default();
        for w in 0..4 {
            plan = plan.and(Fault {
                worker: w,
                step: 3,
                kind: FaultKind::WireCorruption,
                mode: FaultMode::Transient,
            });
        }
        let config = BspConfig {
            fault_plan: Some(plan),
            ..Default::default()
        };
        let (rec, rm) = run_recoverable(
            &config,
            &RecoveryConfig::every(2),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        assert_eq!(totals(&plain), totals(&rec));
        assert!(rm.recovery.rollbacks >= 1, "corruption must have fired");
        assert!(rm.recovery.checkpoint_bytes > 0);
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 1).expect("partition"));
        let recovery = RecoveryConfig {
            checkpoint_interval: 0,
            ..Default::default()
        };
        let err = run_recoverable(
            &BspConfig::default(),
            &recovery,
            logics(&graph, &partition, 4),
            partition,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, BspError::Checkpoint { .. }));
    }

    #[test]
    fn master_hook_replays_consistently() {
        // A master that records every step it sees: after a rollback it is
        // re-consulted for the replayed steps, and the final sequence it
        // observed must end in the same barrier decision sequence as a
        // fault-free run (the hook itself is outside the checkpoint, so it
        // sees replays — what matters is the run result stays identical).
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 2).expect("partition"));
        let config = BspConfig {
            fault_plan: Some(FaultPlan::panic_at(1, 4)),
            ..Default::default()
        };
        let mut steps_seen = Vec::new();
        let mut hook = |step: u64, _: &Aggregators| {
            steps_seen.push(step);
            MasterDecision::Continue
        };
        let (rec, rm) = run_recoverable(
            &config,
            &RecoveryConfig::every(2),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            Some(&mut hook),
        )
        .unwrap();
        assert_eq!(rm.recovery.rollbacks, 1);
        // 8 hops => 9 supersteps; the replayed steps appear twice.
        assert_eq!(rm.supersteps, 9);
        assert_eq!(totals(&rec), (1..=8).sum::<u64>());
        assert!(steps_seen.len() as u64 > rm.supersteps);
        assert_eq!(steps_seen.last(), Some(&9));
    }
}
