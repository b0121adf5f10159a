//! Integration coverage of the fault-injection and recovery surface as a
//! *consumer* of `graphite-bsp` sees it: a worker logic defined outside
//! the crate implements [`WorkerLogic`] — its checkpoint and restore
//! included — through the public re-exports alone, runs under injected
//! faults, and recovers — proving the trait surface is sufficient without
//! any crate-private access.
//!
//! The ICM/VCM-level fault matrix (digest equivalence across programs,
//! profiles and fault cells) lives in `result_digest_pin.rs`; this file
//! exercises the engine-level contracts: typed non-convergence, complete
//! poisoned-worker reporting, checksum-detected corruption, bounded retry
//! budgets, and end-to-end determinism of seeded fault plans.

use graphite_algorithms::bfs::IcmBfs;
use graphite_bsp::{
    run_bsp, Aggregators, BspConfig, BspError, Fault, FaultKind, FaultMode, FaultPlan, Inbox,
    MasterDecision, Outbox, PartitionMap, RecoveryConfig, RunMetrics, TraceConfig, TraceEvent,
    TraceSink, UserCounters, WorkerLogic,
};
use graphite_icm::engine::{run_icm, IcmConfig};
use graphite_icm::RunConfig;
use graphite_tgraph::builder::TemporalGraphBuilder;
use graphite_tgraph::graph::{EdgeId, TemporalGraph, VIdx, VertexId};
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::Interval;
use std::sync::Arc;

fn ring(n: u64) -> Arc<TemporalGraph> {
    let mut b = TemporalGraphBuilder::new();
    for i in 0..n {
        b.add_vertex(VertexId(i), Interval::new(0, 100)).unwrap();
    }
    for i in 0..n {
        b.add_edge(
            EdgeId(i),
            VertexId(i),
            VertexId((i + 1) % n),
            Interval::new(0, 100),
        )
        .unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// A token circles the ring once per superstep, incrementing; each worker
/// accumulates every token value it observes. Its checkpoint is that
/// accumulator — a replay that double-counted or lost a delivery breaks
/// the total.
#[derive(Debug)]
struct RingSum {
    graph: Arc<TemporalGraph>,
    owned: Vec<VIdx>,
    hops: u64,
    total: u64,
}

impl WorkerLogic for RingSum {
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
        let arr: [u8; 8] = bytes.try_into().map_err(|_| "ring-sum blob")?;
        self.total = u64::from_le_bytes(arr);
        Ok(())
    }
}

const HOPS: u64 = 12;

fn workers(graph: &Arc<TemporalGraph>, partition: &Arc<PartitionMap>) -> Vec<RingSum> {
    (0..partition.workers())
        .map(|w| RingSum {
            graph: Arc::clone(graph),
            owned: partition.owned_by(w),
            hops: HOPS,
            total: 0,
        })
        .collect()
}

fn grand_total(ws: &[RingSum]) -> u64 {
    ws.iter().map(|w| w.total).sum()
}

fn faulted(plan: FaultPlan) -> BspConfig {
    BspConfig {
        fault_plan: Some(plan),
        ..Default::default()
    }
}

/// The one way in: `recovery` is the loop's option, not another driver.
fn run<L: WorkerLogic>(
    config: &BspConfig,
    recovery: Option<&RecoveryConfig>,
    workers: Vec<L>,
    partition: &Arc<PartitionMap>,
) -> Result<(Vec<L>, RunMetrics), BspError> {
    let config = BspConfig {
        recovery: recovery.cloned(),
        ..config.clone()
    };
    run_bsp(&config, workers, Arc::clone(partition), None, None)
}

fn run_plain(
    graph: &Arc<TemporalGraph>,
    partition: &Arc<PartitionMap>,
    config: &BspConfig,
) -> Result<(Vec<RingSum>, RunMetrics), BspError> {
    run(config, None, workers(graph, partition), partition)
}

fn run_recover(
    graph: &Arc<TemporalGraph>,
    partition: &Arc<PartitionMap>,
    config: &BspConfig,
    recovery: &RecoveryConfig,
) -> Result<(Vec<RingSum>, RunMetrics), BspError> {
    run(config, Some(recovery), workers(graph, partition), partition)
}

#[test]
fn external_logic_recovers_through_the_public_traits() {
    let graph = ring(16);
    let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
    let (plain, pm) = run_plain(&graph, &partition, &BspConfig::default()).unwrap();
    let (rec, rm) = run_recover(
        &graph,
        &partition,
        &faulted(FaultPlan::panic_at(2, 5)),
        &RecoveryConfig::every(3),
    )
    .unwrap();
    assert_eq!(grand_total(&plain), grand_total(&rec));
    assert_eq!(grand_total(&rec), (1..=HOPS).sum::<u64>());
    assert_eq!(pm.supersteps, rm.supersteps);
    assert_eq!(
        pm.counters, rm.counters,
        "recovery must not leak into counters"
    );
    assert_eq!(rm.recovery.rollbacks, 1);
    assert!(rm.recovery.checkpoints_taken >= 1);
    assert!(rm.recovery.supersteps_replayed >= 1);
}

#[test]
fn non_convergence_is_a_typed_error() {
    let graph = ring(16);
    let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
    let config = BspConfig {
        max_supersteps: 5,
        ..Default::default()
    };
    // The ring needs 13 supersteps; the cap must surface as a typed
    // error, not a silent truncated result — with and without recovery.
    let err = run_plain(&graph, &partition, &config).unwrap_err();
    assert!(matches!(err, BspError::SuperstepLimit { limit: 5 }));
    let err = run_recover(&graph, &partition, &config, &RecoveryConfig::every(2)).unwrap_err();
    assert!(matches!(err, BspError::SuperstepLimit { limit: 5 }));
}

#[test]
fn every_poisoned_worker_is_reported() {
    let graph = ring(16);
    let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
    let plan = FaultPlan::panic_at(1, 2).and(Fault {
        worker: 3,
        step: 2,
        kind: FaultKind::WorkerPanic,
        mode: FaultMode::Transient,
    });
    let err = run_plain(&graph, &partition, &faulted(plan)).unwrap_err();
    let BspError::WorkerPanicked { step, workers } = err else {
        panic!("expected WorkerPanicked");
    };
    assert_eq!(step, 2);
    let indices: Vec<usize> = workers.iter().map(|(w, _)| *w).collect();
    assert_eq!(indices, vec![1, 3], "all poisoned workers, in index order");
    for (_, payload) in &workers {
        assert!(payload.contains("injected fault"), "payload: {payload}");
    }
}

#[test]
fn wire_corruption_is_detected_by_the_batch_checksum() {
    let graph = ring(16);
    let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
    // The token visits one worker per step; corrupt the batch bound for
    // every worker so whichever receives remote traffic at step 4 trips.
    let mut plan = FaultPlan::default();
    for w in 0..4 {
        plan = plan.and(Fault {
            worker: w,
            step: 4,
            kind: FaultKind::WireCorruption,
            mode: FaultMode::Transient,
        });
    }
    let err = run_plain(&graph, &partition, &faulted(plan)).unwrap_err();
    let BspError::Codec { step, detail, .. } = err else {
        panic!("expected Codec error");
    };
    assert_eq!(step, 4);
    assert!(detail.contains("checksum"), "detail: {detail}");
}

#[test]
fn retry_budget_is_bounded_with_full_history() {
    let graph = ring(16);
    let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
    let recovery = RecoveryConfig {
        max_attempts: 2,
        ..RecoveryConfig::every(2)
    };
    let err = run_recover(
        &graph,
        &partition,
        &faulted(FaultPlan::panic_at(0, 3).persistent()),
        &recovery,
    )
    .unwrap_err();
    let BspError::RecoveryExhausted {
        attempts,
        last,
        history,
    } = err
    else {
        panic!("expected RecoveryExhausted");
    };
    assert_eq!(attempts, 3, "initial attempt + max_attempts replays");
    assert_eq!(history.len(), 3);
    assert!(last.is_recoverable());
    for h in &history {
        assert!(matches!(h, BspError::WorkerPanicked { step: 3, .. }));
    }
}

#[test]
fn seeded_fault_plans_are_deterministic_end_to_end() {
    let graph = ring(16);
    let partition = Arc::new(PartitionMap::hash(&graph, 4).expect("partition"));
    let (plain, _) = run_plain(&graph, &partition, &BspConfig::default()).unwrap();
    let plan = FaultPlan::seeded(0xFA17, 4, HOPS, 2);
    assert_eq!(plan, FaultPlan::seeded(0xFA17, 4, HOPS, 2));
    let recovery = RecoveryConfig {
        max_attempts: 8,
        ..RecoveryConfig::every(2)
    };
    let run = || run_recover(&graph, &partition, &faulted(plan.clone()), &recovery).unwrap();
    let (a, am) = run();
    let (b, bm) = run();
    assert_eq!(grand_total(&a), grand_total(&plain));
    assert_eq!(grand_total(&a), grand_total(&b));
    assert_eq!(am.supersteps, bm.supersteps);
    assert_eq!(am.counters, bm.counters);
    assert_eq!(
        am.recovery, bm.recovery,
        "the same plan must fire identically on every run"
    );
}

// ---------------------------------------------------------------------------
// Fault semantics of the parallel receive phase.
// ---------------------------------------------------------------------------

const FLOOD_VERTICES: u32 = 512;
const FLOOD_FANOUT: u32 = 16;
const FLOOD_STEPS: u64 = 5;

/// Every vertex sends to its next `FLOOD_FANOUT` ring successors for
/// `FLOOD_STEPS` supersteps — 8 192 messages a step, well past the
/// engine's inline threshold, so both exchange phases run on the worker
/// pool and every worker sends a frame to every other worker every step.
/// `digest` folds every delivery in inbox order, so it pins the grouping
/// *and* the per-vertex delivery order.
#[derive(Debug)]
struct Flood {
    owned: Vec<VIdx>,
    digest: u64,
}

impl WorkerLogic for Flood {
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
        for (v, msgs) in inbox.iter() {
            for &m in msgs {
                self.digest = (self.digest ^ u64::from(v.0) ^ m).wrapping_mul(0x0100_0000_01b3);
            }
        }
        if step > FLOOD_STEPS {
            return;
        }
        for &v in &self.owned {
            for hop in 1..=FLOOD_FANOUT {
                let to = VIdx((v.0 + hop) % FLOOD_VERTICES);
                outbox.send(to, step << 32 | u64::from(v.0) << 8 | u64::from(hop));
            }
        }
    }

    fn checkpoint(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.digest.to_le_bytes());
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        let arr: [u8; 8] = bytes.try_into().map_err(|_| "flood blob")?;
        self.digest = u64::from_le_bytes(arr);
        Ok(())
    }
}

/// Round-robin over 4 workers: with 16 successors per vertex, every
/// worker addresses every other.
fn flood_partition() -> Arc<PartitionMap> {
    let assignment = (0..FLOOD_VERTICES).map(|v| (v % 4) as u16).collect();
    Arc::new(PartitionMap::from_assignment(assignment, 4).expect("partition"))
}

fn flood_workers(partition: &Arc<PartitionMap>) -> Vec<Flood> {
    (0..partition.workers())
        .map(|w| Flood {
            owned: partition.owned_by(w),
            digest: 0,
        })
        .collect()
}

fn flood_digests(ws: &[Flood]) -> Vec<u64> {
    ws.iter().map(|w| w.digest).collect()
}

fn corruption(worker: usize, step: u64) -> Fault {
    Fault {
        worker,
        step,
        kind: FaultKind::WireCorruption,
        mode: FaultMode::Transient,
    }
}

/// A flood run that must succeed, checkpointing every `every` supersteps
/// when asked to.
fn flood_run(
    partition: &Arc<PartitionMap>,
    config: &BspConfig,
    every: Option<u64>,
) -> (Vec<Flood>, RunMetrics) {
    let recovery = every.map(RecoveryConfig::every);
    run(
        config,
        recovery.as_ref(),
        flood_workers(partition),
        partition,
    )
    .expect("flood run")
}

/// The `(worker, step)` of the codec error a plain flood run dies with.
fn flood_codec_error(partition: &Arc<PartitionMap>, config: &BspConfig) -> (usize, u64) {
    match run(config, None, flood_workers(partition), partition) {
        Err(BspError::Codec { worker, step, .. }) => (worker, step),
        Err(other) => panic!("expected a codec error, got {other:?}"),
        Ok(_) => panic!("the corruption plan never fired"),
    }
}

/// Two corruption faults drawn from `seed` over 4 workers and the flood's
/// supersteps.
fn seeded_corruptions(seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed);
    let mut draw = || {
        let worker = (rng.next_u64() % 4) as usize;
        corruption(worker, 1 + rng.next_u64() % FLOOD_STEPS)
    };
    FaultPlan::default().and(draw()).and(draw())
}

#[test]
fn seeded_corruption_plans_hit_the_pinned_frames() {
    // Recorded on the serial exchange this engine replaced: the parallel
    // receive must report exactly the frame the serial decoder stopped at.
    // Seeds 2, 5 and 6 draw both faults in one superstep; seed 6 pairs
    // workers 0 and 2, and reports 2 — worker 0's first remote frame comes
    // from sender 1, after sender 0 has already addressed everyone else.
    const PINNED: [(usize, u64); 12] = [
        (3, 1),
        (2, 1),
        (2, 2),
        (1, 2),
        (3, 3),
        (2, 5),
        (2, 4),
        (2, 4),
        (2, 3),
        (0, 2),
        (1, 2),
        (1, 1),
    ];
    let partition = flood_partition();
    for (seed, &want) in PINNED.iter().enumerate() {
        let plan = seeded_corruptions(seed as u64);
        let got = flood_codec_error(&partition, &faulted(plan.clone()));
        assert_eq!(got, want, "seed {seed}: {plan:?}");
    }
}

#[test]
fn concurrent_corrupt_frames_report_the_first_in_route_order() {
    let partition = flood_partition();
    let plan = FaultPlan::default()
        .and(corruption(3, 2))
        .and(corruption(1, 2));
    // Workers 1 and 3 both receive a corrupt frame from sender 0 in
    // superstep 2 and fail on their own threads; sender 0 addresses
    // worker 1 first, so that is the error — every time, whichever
    // receiver finished first.
    for _ in 0..24 {
        assert_eq!(
            flood_codec_error(&partition, &faulted(plan.clone())),
            (1, 2)
        );
    }
    // A perturbed schedule walks senders and destinations in another
    // order, so it may name the other worker — but one seed names one.
    for seed in 0..8u64 {
        let config = BspConfig {
            perturb_schedule: Some(seed),
            ..faulted(plan.clone())
        };
        let first = flood_codec_error(&partition, &config);
        assert!(first == (1, 2) || first == (3, 2), "seed {seed}: {first:?}");
        for _ in 0..4 {
            assert_eq!(flood_codec_error(&partition, &config), first, "seed {seed}");
        }
    }
}

#[test]
fn corrupt_frames_deliver_nothing_and_replay_clean() {
    let partition = flood_partition();
    let (clean, cm) = flood_run(&partition, &BspConfig::default(), None);
    let plan = FaultPlan::default()
        .and(corruption(3, 2))
        .and(corruption(1, 2))
        .and(corruption(0, 4));
    let (rec, rm) = flood_run(&partition, &faulted(plan), Some(2));
    // An order-sensitive digest of every delivery: had a corrupt frame (or
    // the frames decoded before it) leaked a single message into the
    // replay, or the replay regrouped differently, it would differ.
    assert_eq!(flood_digests(&rec), flood_digests(&clean));
    assert_eq!(rm.counters, cm.counters);
    assert_eq!(rm.supersteps, cm.supersteps);
    // Both superstep-2 frames are drawn in the attempt that runs the step
    // (their receivers are concurrent), so one rollback clears both.
    assert_eq!(rm.recovery.rollbacks, 2);
}

#[test]
fn same_step_corruptions_on_two_destinations_cost_one_rollback() {
    let partition = flood_partition();
    let (clean, cm) = flood_run(&partition, &BspConfig::default(), None);
    let plan = FaultPlan::default()
        .and(corruption(3, 2))
        .and(corruption(1, 2));
    let (rec, rm) = flood_run(&partition, &faulted(plan), Some(2));
    assert_eq!(flood_digests(&rec), flood_digests(&clean));
    assert_eq!(rm.counters, cm.counters);
    assert_eq!(rm.supersteps, cm.supersteps);
    // Both frames are drawn — and both transient faults spent — in the one
    // attempt that runs superstep 2; the rollback lands on the virgin
    // checkpoint, so step 1 and the faulted step 2 are re-executed.
    assert_eq!(rm.recovery.rollbacks, 1);
    assert_eq!(rm.recovery.supersteps_replayed, 2);
}

/// A [`Flood`] worker that also records, for every superstep it computes,
/// the thread that ran it.
struct Where {
    flood: Flood,
    threads: Vec<(u64, std::thread::ThreadId)>,
}

impl WorkerLogic for Where {
    type Msg = u64;
    fn superstep(
        &mut self,
        step: u64,
        inbox: &Inbox<u64>,
        outbox: &mut Outbox<u64>,
        globals: &Aggregators,
        partial: &mut Aggregators,
        counters: &mut UserCounters,
        sink: &mut TraceSink,
    ) {
        self.threads.push((step, std::thread::current().id()));
        self.flood
            .superstep(step, inbox, outbox, globals, partial, counters, sink);
    }

    fn checkpoint(&self, buf: &mut Vec<u8>) {
        self.flood.checkpoint(buf);
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        self.flood.restore(bytes)
    }
}

#[test]
fn the_driver_thread_runs_worker_zero_of_every_pooled_step() {
    let partition = flood_partition();
    let driver = std::thread::current().id();
    // Superstep 1 computes 512 vertices, inline on the driver; steps 2 to
    // 6 each compute 8 192 deliveries on the pool.
    for perturb in [None, Some(1), Some(2), Some(3)] {
        let config = BspConfig {
            perturb_schedule: perturb,
            ..Default::default()
        };
        let workers = flood_workers(&partition)
            .into_iter()
            .map(|flood| Where {
                flood,
                threads: Vec::new(),
            })
            .collect();
        let (ws, _) = run(&config, None, workers, &partition).expect("flood run");
        for step in 2..=FLOOD_STEPS + 1 {
            let ran: Vec<_> = ws
                .iter()
                .map(|w| {
                    let at = w.threads.iter().find(|&&(s, _)| s == step);
                    at.expect("every worker computes every step").1
                })
                .collect();
            // Worker 0 on the thread that called run_bsp, whatever the
            // join order; workers 1-3 on three distinct pool threads.
            assert_eq!(ran[0], driver, "{perturb:?} step {step}");
            for (w, id) in ran.iter().enumerate().skip(1) {
                assert_ne!(*id, driver, "{perturb:?} step {step} worker {w}");
                assert!(!ran[w + 1..].contains(id), "{perturb:?} step {step}");
            }
        }
    }
}

#[test]
fn a_panic_on_the_driver_threads_worker_is_reported_and_recovered() {
    let partition = flood_partition();
    let (clean, cm) = flood_run(&partition, &BspConfig::default(), None);
    // Superstep 3 is pooled: worker 0 panics on the driver thread, worker
    // 2 on its pool thread.
    let plan = FaultPlan::panic_at(0, 3).and(Fault {
        worker: 2,
        step: 3,
        kind: FaultKind::WorkerPanic,
        mode: FaultMode::Transient,
    });
    let err = run(
        &faulted(plan.clone()),
        None,
        flood_workers(&partition),
        &partition,
    )
    .unwrap_err();
    let BspError::WorkerPanicked { step, workers } = err else {
        panic!("expected WorkerPanicked, got {err:?}");
    };
    assert_eq!(step, 3);
    let indices: Vec<usize> = workers.iter().map(|(w, _)| *w).collect();
    assert_eq!(indices, vec![0, 2], "both poisoned workers, in index order");
    // The rollback restores all four workers, so every worker's state came
    // home from the faulted step, the driver's own included.
    let (rec, rm) = flood_run(&partition, &faulted(plan), Some(2));
    assert_eq!(flood_digests(&rec), flood_digests(&clean));
    assert_eq!(rm.counters, cm.counters);
    assert_eq!(rm.supersteps, cm.supersteps);
    assert_eq!(rm.recovery.rollbacks, 1);
}

#[test]
fn fault_free_recovery_is_invisible_outside_the_checkpoints() {
    let partition = flood_partition();
    let config = BspConfig {
        trace: TraceConfig::full(),
        ..Default::default()
    };
    let (plain, pm) = flood_run(&partition, &config, None);
    assert_eq!(pm.recovery.checkpoints_taken, 0);
    for every in [1, 2, 64] {
        let (rec, rm) = flood_run(&partition, &config, Some(every));
        assert_eq!(flood_digests(&rec), flood_digests(&plain), "every {every}");
        assert_eq!(rm.supersteps, pm.supersteps, "every {every}");
        assert_eq!(rm.counters, pm.counters, "every {every}");
        assert_eq!(rm.recovery.rollbacks, 0);
        // The virgin checkpoint, then one per full interval short of the halt.
        let expected = 1 + (pm.supersteps - 1) / every;
        assert_eq!(rm.recovery.checkpoints_taken, expected, "every {every}");
        let mut events = rm.trace.normalized().events;
        events.retain(|e| !matches!(e, TraceEvent::Checkpoint { .. }));
        assert_eq!(events, pm.trace.normalized().events, "every {every}");
    }
}

#[test]
fn user_master_hook_composes_with_recovery() {
    let graph = ring(16);
    let program = Arc::new(IcmBfs {
        source: VertexId(0),
    });
    // The hook's decisions are all `Continue`, so what it *saw* is the
    // whole of its effect: record every barrier it is consulted at.
    let hooked = |config: &IcmConfig| {
        let mut seen = Vec::new();
        let mut hook = |step: u64, _: &Aggregators| {
            seen.push(step);
            MasterDecision::Continue
        };
        let r = run_icm(&graph, Arc::clone(&program), config, Some(&mut hook)).expect("ICM run");
        (r, seen)
    };
    let config = IcmConfig {
        run: RunConfig {
            workers: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let (clean, clean_seen) = hooked(&config);
    let steps = clean.metrics.supersteps;
    assert_eq!(clean_seen, (1..=steps).collect::<Vec<_>>());
    assert!(steps > 6, "the ring walk outlasts the faulted superstep");

    let (rec, seen) = hooked(&IcmConfig {
        run: RunConfig {
            bsp: BspConfig {
                recovery: Some(RecoveryConfig::every(4)),
                ..faulted(FaultPlan::panic_at(2, 6))
            },
            ..config.run.clone()
        },
        ..config
    });
    assert_eq!(rec.states, clean.states);
    assert_eq!(rec.metrics.supersteps, steps);
    assert_eq!(rec.metrics.counters, clean.metrics.counters);
    assert_eq!(rec.metrics.recovery.rollbacks, 1);
    // Barriers 1..=5 completed, superstep 6 panicked before its barrier,
    // the run rolled back to the checkpoint after superstep 4: the hook is
    // consulted for exactly the fault-free barriers plus the replayed 5.
    let expected: Vec<u64> = (1..=5).chain(5..=steps).collect();
    assert_eq!(seen, expected);
    assert_eq!(rec.metrics.recovery.supersteps_replayed, 2);
}
