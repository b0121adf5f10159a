//! Execution metrics (Sec. VII-A4).
//!
//! The paper reports, per run: the *makespan* (wall-clock from the first to
//! the last user superstep), split into *compute+* time (user-logic calls
//! overlapping with messaging) and *exclusive messaging* time, plus barrier
//! time when substantial; and the intrinsic primitive counts — calls to the
//! user's compute logic and messages sent — which Fig. 4 correlates against
//! the time splits. This module is the single source of truth for all of
//! those numbers across GRAPHITE and the four baselines.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// The single sanctioned wall-clock source of the workspace.
///
/// Timing belongs to metrics and nowhere else: wall-clock reads anywhere
/// else in the engines would be invisible nondeterminism (and are denied by
/// `disallowed-methods` in the workspace `clippy.toml`). Everything that
/// needs a timestamp goes through this function so the policy has one
/// audited exception.
#[inline]
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned clock read of the workspace"
)]
pub fn now() -> Instant {
    Instant::now()
}

/// Counters the user-logic layers (ICM / VCM) bump while running inside a
/// worker superstep. Message and byte counts are bumped by the router:
/// emissions as the outboxes counted them at send, wire messages and
/// bytes as they crossed the barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UserCounters {
    /// Invocations of the user's compute logic (per interval-vertex for
    /// ICM, per vertex-snapshot for the baselines).
    pub compute_calls: u64,
    /// Invocations of the user's scatter logic.
    pub scatter_calls: u64,
    /// Messages handed to the outbox — the paper's message count, before
    /// any sender-side fold.
    pub messages_sent: u64,
    /// Of those, messages addressed to another worker's vertices.
    pub remote_messages: u64,
    /// Messages the barrier delivered after the sender-side fold
    /// ([`crate::exchange::Fold`]): equal to `messages_sent` for a program
    /// that does not fold, at most it otherwise.
    pub wire_messages: u64,
    /// Serialized bytes shipped between workers.
    pub bytes_sent: u64,
    /// Times the warp operator ran (ICM only).
    pub warp_invocations: u64,
    /// Times warp was suppressed in favour of time-point execution
    /// (ICM only; Sec. VI "Warp Suppression").
    pub warp_suppressions: u64,
}

impl AddAssign for UserCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.compute_calls += rhs.compute_calls;
        self.scatter_calls += rhs.scatter_calls;
        self.messages_sent += rhs.messages_sent;
        self.remote_messages += rhs.remote_messages;
        self.wire_messages += rhs.wire_messages;
        self.bytes_sent += rhs.bytes_sent;
        self.warp_invocations += rhs.warp_invocations;
        self.warp_suppressions += rhs.warp_suppressions;
    }
}

/// Wall-clock split of one superstep.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTiming {
    /// Longest worker compute phase this superstep (workers run in
    /// parallel, so the slowest one gates the barrier) — the paper's
    /// "compute+" contribution.
    pub compute: Duration,
    /// Message exchange: the slowest sender's encode, the driver's
    /// routing at the barrier, and the slowest receiver's decode and
    /// regroup. Encode runs on the compute threads but is charged here,
    /// never to `compute`.
    pub messaging: Duration,
    /// Synchronization overhead: what the two parallel phases' wall time
    /// exceeds their slowest worker by (thread orchestration).
    pub barrier: Duration,
}

/// Counters of the checkpoint/rollback recovery layer
/// ([`crate::engine::BspConfig::recovery`]). Like [`RunMetrics::routing_growths`], these
/// describe the *execution*, not the *result*: a recovered run must be
/// bit-identical to a fault-free run in states and [`UserCounters`], so
/// recovery counters never enter a result digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryMetrics {
    /// Checkpoints captured (including the mandatory step-0 checkpoint).
    pub checkpoints_taken: u64,
    /// Total serialized checkpoint payload (worker states + in-flight
    /// inboxes), summed over all checkpoints taken.
    pub checkpoint_bytes: u64,
    /// Rollbacks performed after a recoverable fault.
    pub rollbacks: u64,
    /// Supersteps re-executed after rollbacks: completed supersteps that
    /// were discarded, plus each faulted superstep's retry (so every
    /// rollback replays at least one).
    pub supersteps_replayed: u64,
}

/// Full metrics of one platform run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Number of supersteps executed, over every phase of the run.
    pub supersteps: u64,
    /// Wall-clock from the first to the last superstep, less the time a
    /// run with phases spent seating each next phase
    /// ([`crate::engine::PhaseHook`]).
    pub makespan: Duration,
    /// Cumulative compute+ time (sum over supersteps of the slowest
    /// worker's compute phase).
    pub compute_plus: Duration,
    /// Cumulative exclusive messaging time.
    pub messaging: Duration,
    /// Cumulative barrier/orchestration time.
    pub barrier: Duration,
    /// Aggregated user-logic counters over all workers and supersteps.
    pub counters: UserCounters,
    /// Supersteps after the second of their phase whose exchange grew any
    /// reusable buffer (outbox batches and frames, inbox storage, count
    /// tables). Ramp-up growth in a phase's first two supersteps is
    /// expected and not counted; a steady workload must keep this at zero thereafter — the
    /// allocation-regression test pins exactly that.
    pub routing_growths: u64,
    /// Checkpoint/rollback counters (all zero for non-recoverable runs).
    /// Excluded from result digests, like `routing_growths`.
    pub recovery: RecoveryMetrics,
    /// Structured trace events (empty unless [`crate::trace::TraceConfig`]
    /// enables tracing). Like the timing fields, trace content never
    /// enters result digests or pinned counter keys.
    pub trace: crate::trace::RunTrace,
}

impl RunMetrics {
    /// Accumulates one superstep's timing.
    pub fn record_step(&mut self, timing: StepTiming) {
        self.supersteps += 1;
        self.compute_plus += timing.compute;
        self.messaging += timing.messaging;
        self.barrier += timing.barrier;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut a = UserCounters {
            compute_calls: 2,
            messages_sent: 5,
            ..Default::default()
        };
        let b = UserCounters {
            compute_calls: 3,
            wire_messages: 4,
            bytes_sent: 100,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.compute_calls, 5);
        assert_eq!(a.messages_sent, 5);
        assert_eq!(a.wire_messages, 4);
        assert_eq!(a.bytes_sent, 100);
    }

    #[test]
    fn run_metrics_record_steps() {
        let mut m = RunMetrics::default();
        m.record_step(StepTiming {
            compute: Duration::from_millis(10),
            messaging: Duration::from_millis(4),
            barrier: Duration::from_millis(1),
        });
        m.counters += UserCounters {
            compute_calls: 7,
            ..Default::default()
        };
        assert_eq!(m.supersteps, 1);
        assert_eq!(m.counters.compute_calls, 7);
        assert_eq!(m.compute_plus, Duration::from_millis(10));
    }
}
