//! Checkpoint/rollback recovery driver for the BSP engine.
//!
//! [`run_bsp_recoverable`] wraps the plain superstep loop of
//! [`crate::engine::run_bsp`] with fault tolerance: it captures a
//! [`Checkpoint`] of the complete run state (worker [`Snapshot`] blobs,
//! in-flight inboxes, aggregator globals, metrics) every
//! [`RecoveryConfig::checkpoint_interval`] supersteps, and on a
//! *recoverable* failure ([`BspError::is_recoverable`]: poisoned workers,
//! wire corruption) rolls the run back to the latest checkpoint and
//! replays. Replays are bit-deterministic — the fault-matrix tests pin
//! that a recovered run's result digest is identical to the fault-free
//! digest — because everything the computation can observe is inside the
//! checkpoint, and everything outside it (the fault injector's
//! fired-state, the recovery counters) is invisible to the computation.
//!
//! The retry budget is bounded: after [`RecoveryConfig::max_attempts`]
//! rollbacks the driver gives up with [`BspError::RecoveryExhausted`],
//! carrying the complete fault history — a persistent fault (same failure
//! on every replay) must terminate with a diagnosis, not loop forever or
//! return a wrong answer. Non-recoverable errors (configuration mismatch,
//! non-convergence, checkpoint I/O) propagate immediately.

use crate::engine::{BspConfig, ComputePool, MasterHook, RunState, WorkerLogic};
use crate::error::BspError;
use crate::fault::FaultInjector;
use crate::metrics::{now, RunMetrics};
use crate::partition::PartitionMap;
use crate::snapshot::{Checkpoint, CheckpointStorage, CheckpointStore, Snapshot};
use crate::trace::TraceEvent;
use std::sync::Arc;

/// Configuration of the recovery driver, orthogonal to [`BspConfig`].
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Take a checkpoint after every this-many completed supersteps (a
    /// checkpoint at superstep 0 — before the first — is always taken, so
    /// the run can roll back to the beginning). Must be at least 1.
    pub checkpoint_interval: u64,
    /// How many rollbacks the driver performs before giving up with
    /// [`BspError::RecoveryExhausted`].
    pub max_attempts: u64,
    /// Where checkpoint payloads live.
    pub storage: CheckpointStorage,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 8,
            max_attempts: 3,
            storage: CheckpointStorage::Memory,
        }
    }
}

impl RecoveryConfig {
    /// An in-memory config with the given checkpoint interval.
    #[must_use]
    pub fn every(checkpoint_interval: u64) -> Self {
        RecoveryConfig {
            checkpoint_interval,
            ..Default::default()
        }
    }
}

/// Runs `workers` to convergence like [`crate::engine::run_bsp`], but
/// survives recoverable faults by rolling back to the latest checkpoint
/// and replaying.
///
/// The happy path is identical to the plain driver apart from checkpoint
/// capture: same superstep loop, same convergence rule, same metrics —
/// plus [`crate::metrics::RecoveryMetrics`] accounting for checkpoints
/// taken/bytes, rollbacks, and replayed supersteps (which never enter
/// result digests, like the other environment-sensitive metrics).
///
/// # Errors
///
/// Non-recoverable failures ([`BspError::WorkerMismatch`],
/// [`BspError::SuperstepLimit`], [`BspError::BudgetExceeded`],
/// [`BspError::Checkpoint`]) propagate immediately. Recoverable faults trigger rollback; once
/// `recovery.max_attempts` rollbacks are spent, the driver returns
/// [`BspError::RecoveryExhausted`] with the full fault history.
pub fn run_bsp_recoverable<L: WorkerLogic + Snapshot>(
    config: &BspConfig,
    recovery: &RecoveryConfig,
    workers: Vec<L>,
    partition: Arc<PartitionMap>,
    mut master: Option<MasterHook<'_>>,
) -> Result<(Vec<L>, RunMetrics), BspError> {
    if recovery.checkpoint_interval == 0 {
        return Err(BspError::Checkpoint {
            detail: "checkpoint_interval must be at least 1".into(),
        });
    }
    let mut injector = FaultInjector::new(config.fault_plan.clone());
    let mut state = RunState::new(workers, &partition)?;
    let mut store = CheckpointStore::new(recovery.storage.clone());
    let mut history: Vec<BspError> = Vec::new();
    let mut rollbacks = 0u64;
    let run_start = now();

    let tracing = config.trace.is_enabled();
    // Always checkpoint the virgin state: the very first superstep may be
    // the one that faults.
    save_checkpoint(&mut store, &mut state, tracing)?;
    let mut since_checkpoint = 0u64;

    // The compute pool lives for the whole recovered run — across
    // checkpoints, rollbacks and retries — so recovery pays thread
    // creation once, like the straight-through driver.
    let n = state.workers.len();
    std::thread::scope(|scope| {
        let mut pool = ComputePool::start(scope, n);
        while !state.halted {
            state.admit_next_step(config)?;
            match state.superstep(config, &mut master, &mut injector, &mut pool) {
                Ok(()) => {
                    since_checkpoint += 1;
                    if !state.halted && since_checkpoint >= recovery.checkpoint_interval {
                        save_checkpoint(&mut store, &mut state, tracing)?;
                        since_checkpoint = 0;
                    }
                }
                Err(err) if err.is_recoverable() => {
                    history.push(err.clone());
                    if rollbacks >= recovery.max_attempts {
                        return Err(BspError::RecoveryExhausted {
                            attempts: history.len() as u64,
                            last: Box::new(err),
                            history,
                        });
                    }
                    let ckpt: Checkpoint = store.load()?.ok_or_else(|| BspError::Checkpoint {
                        detail: "no checkpoint available for rollback".into(),
                    })?;
                    // Supersteps to re-execute: the completed ones since the
                    // checkpoint, plus the faulted superstep's retry.
                    let lost = state.step.saturating_sub(ckpt.step) + 1;
                    let from_step = state.step;
                    state.rollback(&ckpt)?;
                    if tracing {
                        state.metrics.trace.push(TraceEvent::Rollback {
                            from_step,
                            to_step: ckpt.step,
                        });
                    }
                    state.metrics.recovery.rollbacks += 1;
                    state.metrics.recovery.supersteps_replayed += lost;
                    rollbacks += 1;
                    since_checkpoint = 0;
                    injector.next_attempt();
                }
                Err(err) => return Err(err),
            }
        }
        Ok(())
    })?;
    state.metrics.makespan = run_start.elapsed();
    Ok((state.workers, state.metrics))
}

/// Captures and persists the current boundary, bumping the recovery
/// counters (and, when tracing, marking the trace stream).
fn save_checkpoint<L: WorkerLogic + Snapshot>(
    store: &mut CheckpointStore,
    state: &mut RunState<L>,
    tracing: bool,
) -> Result<(), BspError> {
    let ckpt = state.take_checkpoint();
    let bytes = store.save(ckpt)?;
    state.metrics.recovery.checkpoints_taken += 1;
    state.metrics.recovery.checkpoint_bytes += bytes;
    if tracing {
        state.metrics.trace.push(TraceEvent::Checkpoint {
            step: state.step,
            bytes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{Aggregators, MasterDecision};
    use crate::engine::{Inbox, Outbox};
    use crate::fault::{Fault, FaultKind, FaultMode, FaultPlan};
    use crate::metrics::UserCounters;
    use crate::trace::TraceSink;
    use graphite_tgraph::builder::TemporalGraphBuilder;
    use graphite_tgraph::graph::{EdgeId, TemporalGraph, VIdx, VertexId};
    use graphite_tgraph::time::Interval;

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
    }

    impl Snapshot for CountingToken {
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

    #[test]
    fn fault_free_recoverable_run_matches_plain_run() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 3).expect("partition"));
        let (plain, pm) = crate::engine::run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        let (rec, rm) = run_bsp_recoverable(
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
        let (plain, pm) = crate::engine::run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        let config = BspConfig {
            fault_plan: Some(FaultPlan::panic_at(1, 5)),
            ..Default::default()
        };
        let (rec, rm) = run_bsp_recoverable(
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
            ..Default::default()
        };
        let err = run_bsp_recoverable(
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
        let (plain, _) = crate::engine::run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 12),
            Arc::clone(&partition),
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
        let (rec, rm) = run_bsp_recoverable(
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
    fn wire_corruption_recovers_on_disk_store() {
        let graph = Arc::new(ring(8));
        let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
        let (plain, _) = crate::engine::run_bsp(
            &BspConfig::default(),
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("graphite_recover_disk_test");
        let _ = std::fs::remove_dir_all(&dir);
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
        let recovery = RecoveryConfig {
            checkpoint_interval: 2,
            storage: CheckpointStorage::Disk(dir.clone()),
            ..Default::default()
        };
        let (rec, rm) = run_bsp_recoverable(
            &config,
            &recovery,
            logics(&graph, &partition, 8),
            Arc::clone(&partition),
            None,
        )
        .unwrap();
        assert_eq!(totals(&plain), totals(&rec));
        assert!(rm.recovery.rollbacks >= 1, "corruption must have fired");
        assert!(rm.recovery.checkpoint_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let graph = Arc::new(ring(4));
        let partition = Arc::new(PartitionMap::hash(&graph, 1).expect("partition"));
        let recovery = RecoveryConfig {
            checkpoint_interval: 0,
            ..Default::default()
        };
        let err = run_bsp_recoverable(
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
        let (rec, rm) = run_bsp_recoverable(
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
