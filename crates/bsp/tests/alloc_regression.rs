//! Allocation regression guard for the exchange hot path: on a steady
//! workload (constant message volume per superstep) the engine's reusable
//! exchange buffers — every outbox's typed batches and per-(src, dst)
//! frames, the inbox double-buffer, the per-worker count tables — must
//! stop growing after the two ramp-up supersteps, even though frames and
//! local batches are lent to the receivers and handed back every step.
//! `RunMetrics::routing_growths` counts supersteps (after the second)
//! whose exchange grew any of those capacities; a steady run must report
//! zero, and this test pins that.
//!
//! The same holds with a sender-side fold installed: its per-destination
//! indexes are exchange buffers too, built up in the ramp-up steps and
//! cleared, never shrunk, every superstep.
//!
//! A deliberately growing workload (message volume doubling every
//! superstep) must report growth — proving the counter actually observes
//! the buffers and the steady zero is not vacuous.

use graphite_bsp::aggregate::Aggregators;
use graphite_bsp::engine::{run_bsp, BspConfig, Fold, Inbox, Outbox, WorkerLogic};
use graphite_bsp::metrics::{RunMetrics, UserCounters};
use graphite_bsp::partition::PartitionMap;
use graphite_bsp::trace::TraceSink;
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

/// Every owned vertex sends `volume(step)` messages to its ring successor
/// while `step <= steps`; the run halts when volume drops to zero. With
/// `keys`, the outbox folds them by an integer min under the key
/// `message % keys`.
struct VolumeLogic {
    graph: Arc<TemporalGraph>,
    owned: Vec<VIdx>,
    steps: u64,
    volume: fn(u64) -> u64,
    keys: Option<u64>,
}

impl WorkerLogic for VolumeLogic {
    type Msg = u64;
    fn superstep(
        &mut self,
        step: u64,
        _inbox: &Inbox<u64>,
        outbox: &mut Outbox<u64>,
        _globals: &Aggregators,
        _partial: &mut Aggregators,
        counters: &mut UserCounters,
        _sink: &mut TraceSink,
    ) {
        if step > self.steps {
            return;
        }
        for &v in &self.owned {
            counters.compute_calls += 1;
            let next = self.graph.edge(self.graph.out_edges(v)[0]).dst;
            for k in 0..(self.volume)(step) {
                outbox.send(next, step * 1000 + k);
            }
        }
    }

    // Stateless between supersteps: nothing to capture.
    fn checkpoint(&self, _buf: &mut Vec<u8>) {}
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), &'static str> {
        Ok(())
    }

    fn fold(&self) -> Option<Fold<u64>> {
        // A key function is a plain `fn`, so the modulus is one of two.
        let key: fn(&u64) -> (u64, u64) = match self.keys? {
            2 => |m| (m % 2, 0),
            _ => |m| (m % 400, 0),
        };
        Some(Fold::new(key, |a: &u64, b: &u64| Some(*a.min(b))))
    }
}

fn run_volume(workers: usize, steps: u64, volume: fn(u64) -> u64) -> RunMetrics {
    run_folding(workers, steps, volume, None)
}

fn run_folding(
    workers: usize,
    steps: u64,
    volume: fn(u64) -> u64,
    keys: Option<u64>,
) -> RunMetrics {
    let graph = Arc::new(ring(12));
    let partition = Arc::new(PartitionMap::hash(&graph, workers).expect("partition"));
    let logics = (0..workers)
        .map(|w| VolumeLogic {
            graph: Arc::clone(&graph),
            owned: partition.owned_by(w),
            steps,
            volume,
            keys,
        })
        .collect();
    let (_, metrics) = run_bsp(&BspConfig::default(), logics, partition, None, None).unwrap();
    metrics
}

#[test]
fn steady_workload_allocates_nothing_after_ramp_up() {
    // Constant volume for 12 supersteps: every buffer reaches its working
    // capacity during the two uncounted ramp-up steps, so steps 3..12 must
    // route entirely through retained capacity.
    let metrics = run_volume(3, 12, |_| 4);
    assert_eq!(metrics.supersteps, 13, "run shape changed");
    assert!(metrics.counters.remote_messages > 0, "no remote traffic");
    assert_eq!(
        metrics.routing_growths, 0,
        "steady workload grew routing buffers after superstep 2"
    );
}

#[test]
fn steady_workload_is_allocation_free_on_one_worker_too() {
    // Single worker: the all-local path (typed batch only, no frames).
    let metrics = run_volume(1, 12, |_| 4);
    assert_eq!(metrics.routing_growths, 0);
}

#[test]
fn steady_workload_is_allocation_free_through_the_worker_pool() {
    // 4 800 messages a superstep: past the inline threshold, so frames,
    // local batches, inboxes and count tables all travel to the pool
    // threads and back every step — and must come home with their capacity.
    let metrics = run_volume(3, 12, |_| 400);
    assert!(metrics.counters.remote_messages > 0, "no remote traffic");
    assert_eq!(metrics.routing_growths, 0);
}

#[test]
fn a_folding_workload_allocates_nothing_after_ramp_up() {
    // Four messages per vertex fold to two on the wire: a small step,
    // run inline.
    let metrics = run_folding(3, 12, |_| 4, Some(2));
    let c = &metrics.counters;
    assert!(c.remote_messages > 0, "no remote traffic");
    assert_eq!(2 * c.wire_messages, c.messages_sent);
    assert_eq!(metrics.routing_growths, 0);
}

#[test]
fn a_folding_workload_is_allocation_free_through_the_worker_pool() {
    // 9 600 emissions fold to 4 800 wire messages a superstep — still past
    // the inline threshold, which counts what the receivers deliver.
    let metrics = run_folding(3, 12, |_| 800, Some(400));
    let c = &metrics.counters;
    assert_eq!(2 * c.wire_messages, c.messages_sent);
    assert_eq!(metrics.routing_growths, 0);
}

#[test]
fn growing_workload_is_observed_by_the_counter() {
    // Volume doubles every superstep, so every post-ramp exchange must
    // grow some buffer: the zero above is not vacuously true.
    let metrics = run_volume(3, 8, |step| 1 << step);
    assert!(
        metrics.routing_growths > 0,
        "doubling workload reported no growth — counter is blind"
    );
}
