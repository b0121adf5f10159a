//! The serving-layer fault domain: quarantine, retry escalation, and health.
//!
//! The BSP layer already recovers *within* one run — checkpoint, roll
//! back, replay (a `Recovery` session on `run_bsp`'s loop). This module is
//! the layer above: what the resident engine does when a whole run comes
//! back failed.
//! Two mechanisms, both deterministic (DESIGN.md §15):
//!
//! 1. **Quarantine** ([`QuarantineTable`]): queries that terminally fail
//!    with a *transient-classed* error `after` consecutive times are
//!    poison — structurally prone to faulting, wasting executor slots on
//!    every resubmission. They fast-fail with
//!    [`BspError::Quarantined`](graphite_bsp::error::BspError::Quarantined)
//!    until a seeded decay (counted in engine-wide successful
//!    completions, never wall clock) releases them.
//! 2. **Escalation** ([`escalate`]): a deterministic engine replays the
//!    *same* faults on a bare re-run, so a serve-level retry is only
//!    meaningful if it changes something. It multiplies the inner
//!    recovery attempt budget by the attempt index, giving checkpoint
//!    replay more headroom each time around.
//!
//! [`ServeHealth`] is the aggregate view of all of it, exportable as a
//! `graphite-trace/1` frame ([`health_trace`]) so the existing trace
//! pipeline (`tracefmt`, `trace_report`) sees serving-layer faults with
//! no new format.

use std::collections::BTreeMap;

use crate::spec::QuerySpec;
use graphite_bsp::trace::{key, RunTrace};
use graphite_tgraph::rng::SplitMix64;

/// Identity under which a query accumulates failures.
///
/// The params digest alone would let a seeded-fault chaos twin (`faults=N`
/// batch lines) quarantine the *clean* query with the same parameters —
/// they intentionally share a digest for everything the result depends
/// on. Folding the fault plan's debug form into the key keeps the two in
/// separate quarantine cells while staying a pure function of the spec.
pub fn quarantine_key(spec: &QuerySpec) -> u64 {
    let mut key = spec.params_digest();
    if let Some(plan) = &spec.fault_plan {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{plan:?}").bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
        key ^= acc;
    }
    key
}

/// One quarantine cell: consecutive-failure count and remaining decay.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Consecutive transient-classed terminal failures observed.
    failures: u64,
    /// Engine-wide successful completions remaining before release; only
    /// meaningful while `quarantined`.
    release_after: u64,
    /// Whether the cell has crossed the engagement threshold.
    quarantined: bool,
}

/// Poison-query table keyed by [`quarantine_key`].
///
/// All mutation is driven by the engine under its state lock, so the
/// table itself needs no synchronization. Decay is counted in successful
/// completions ([`QuarantineTable::tick_decay`]) rather than time: a
/// healthy engine releases quarantined queries quickly, a struggling one
/// keeps them out, and tests can drive release deterministically.
#[derive(Debug)]
pub struct QuarantineTable {
    /// Consecutive failures that engage quarantine; `0` disables the
    /// table entirely.
    after: u64,
    /// Seed for the decay draw.
    seed: u64,
    entries: BTreeMap<u64, Entry>,
}

impl QuarantineTable {
    /// A table engaging after `after` consecutive failures (`0` disables).
    pub fn new(after: u64, seed: u64) -> Self {
        QuarantineTable {
            after,
            seed,
            entries: BTreeMap::new(),
        }
    }

    /// Returns `Some(failures)` if `key` is currently quarantined.
    pub fn check(&self, key: u64) -> Option<u64> {
        match self.entries.get(&key) {
            Some(e) if e.quarantined => Some(e.failures),
            _ => None,
        }
    }

    /// Number of keys currently quarantined.
    pub fn quarantined_now(&self) -> u64 {
        self.entries.values().filter(|e| e.quarantined).count() as u64
    }

    /// Records a terminal transient-classed failure of `key`; returns
    /// `true` if this failure engaged (or re-engaged) quarantine.
    ///
    /// The release horizon is a seeded draw in `1..=failures * 4`:
    /// deterministic per `(seed, key, failures)`, growing with repeat
    /// offenses, and small enough that tests can drain it.
    pub fn note_failure(&mut self, key: u64) -> bool {
        if self.after == 0 {
            return false;
        }
        let entry = self.entries.entry(key).or_insert(Entry {
            failures: 0,
            release_after: 0,
            quarantined: false,
        });
        entry.failures += 1;
        if entry.failures >= self.after {
            let span = entry.failures.saturating_mul(4).max(1);
            let draw = SplitMix64::new(self.seed ^ key ^ entry.failures).next_u64();
            entry.release_after = 1 + draw % span;
            let engaged = !entry.quarantined;
            entry.quarantined = true;
            return engaged;
        }
        false
    }

    /// Records a successful completion of `key` itself: the streak is
    /// broken and the cell forgotten.
    pub fn note_success(&mut self, key: u64) {
        self.entries.remove(&key);
    }

    /// Advances decay by one engine-wide successful completion; every
    /// quarantined cell moves one step closer to release and is dropped
    /// (streak forgiven) when its horizon reaches zero.
    pub fn tick_decay(&mut self) {
        self.entries.retain(|_, e| {
            if !e.quarantined {
                return true;
            }
            e.release_after = e.release_after.saturating_sub(1);
            e.release_after > 0
        });
    }
}

/// The retry spec for attempt `attempt` (1-based over retries): same
/// query, with the inner recovery attempt budget multiplied by
/// `attempt + 1`.
///
/// This is what makes a serve-level retry of a deterministic engine
/// meaningful: the replay sees the same injected faults, so the only
/// lever is how much checkpoint-rollback headroom the inner loop gets
/// before giving up with `RecoveryExhausted`.
pub fn escalate(spec: &QuerySpec, attempt: u64) -> QuerySpec {
    let mut next = spec.clone();
    if let Some(recovery) = &mut next.recovery {
        recovery.max_attempts = recovery
            .max_attempts
            .saturating_mul(attempt.saturating_add(1));
    }
    next
}

/// Aggregate fault-domain counters, snapshotted from the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeHealth {
    /// Serve-level retry attempts issued after transient failures.
    pub retries: u64,
    /// Queries that succeeded on a retry attempt.
    pub recovered: u64,
    /// Queries shed under load at the pending-depth watermark.
    pub shed: u64,
    /// Submissions fast-failed by the quarantine table.
    pub quarantined: u64,
    /// Queries terminated by their superstep budget.
    pub budget_exceeded: u64,
    /// Queries that terminally failed (after exhausting retries).
    pub failed: u64,
    /// Keys quarantined at snapshot time.
    pub quarantined_now: u64,
}

/// `health` as a `graphite-trace/1` frame ([`RunTrace::frame`], step 0)
/// whose extras are the six `serve_*` counters, so the existing trace
/// pipeline carries serving-layer fault counters.
pub fn health_trace(health: &ServeHealth) -> RunTrace {
    RunTrace::frame(
        0,
        vec![
            (key::SERVE_RETRIES, health.retries),
            (key::SERVE_RECOVERED, health.recovered),
            (key::SERVE_SHEDS, health.shed),
            (key::SERVE_QUARANTINED, health.quarantined),
            (key::SERVE_BUDGET_EXCEEDED, health.budget_exceeded),
            (key::SERVE_FAILED, health.failed),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_bsp::fault::FaultPlan;
    use graphite_bsp::trace::TraceEvent;

    #[test]
    fn quarantine_key_separates_chaos_twins_from_clean_queries() {
        let clean = QuerySpec::default();
        let mut faulted = QuerySpec::default();
        faulted.fault_plan = Some(FaultPlan::seeded(7, faulted.workers, 6, 2));
        assert_eq!(
            clean.params_digest(),
            faulted.params_digest(),
            "precondition: the twins share a params digest"
        );
        assert_ne!(
            quarantine_key(&clean),
            quarantine_key(&faulted),
            "a faulted twin must not quarantine the clean query"
        );
        assert_eq!(quarantine_key(&clean), quarantine_key(&clean));
        assert_eq!(quarantine_key(&faulted), quarantine_key(&faulted));
    }

    #[test]
    fn quarantine_engages_after_threshold_and_decays_by_successes() {
        let mut table = QuarantineTable::new(2, 11);
        let key = 0xfeed;
        assert!(!table.note_failure(key), "first failure is tolerated");
        assert_eq!(table.check(key), None);
        assert!(table.note_failure(key), "second failure engages");
        let failures = table.check(key).expect("quarantined");
        assert_eq!(failures, 2);
        assert_eq!(table.quarantined_now(), 1);
        // release_after is in 1..=8; drain it with successes elsewhere.
        for _ in 0..8 {
            table.tick_decay();
        }
        assert_eq!(table.check(key), None, "decay releases the key");
        assert_eq!(table.quarantined_now(), 0);
    }

    #[test]
    fn quarantine_decay_is_seed_deterministic() {
        let drain = |seed: u64| {
            let mut table = QuarantineTable::new(1, seed);
            table.note_failure(42);
            let mut ticks = 0;
            while table.check(42).is_some() {
                table.tick_decay();
                ticks += 1;
                assert!(ticks <= 8, "release horizon is bounded");
            }
            ticks
        };
        assert_eq!(drain(3), drain(3), "same seed, same horizon");
    }

    #[test]
    fn success_breaks_a_failure_streak() {
        let mut table = QuarantineTable::new(3, 5);
        table.note_failure(9);
        table.note_failure(9);
        table.note_success(9);
        assert!(
            !table.note_failure(9),
            "streak restarted after a success; one failure must not engage"
        );
    }

    #[test]
    fn disabled_table_never_quarantines() {
        let mut table = QuarantineTable::new(0, 5);
        for _ in 0..10 {
            assert!(!table.note_failure(1));
        }
        assert_eq!(table.check(1), None);
    }

    #[test]
    fn escalation_multiplies_inner_recovery_budget() {
        use graphite_bsp::recover::RecoveryConfig;
        let spec = QuerySpec {
            recovery: Some(RecoveryConfig::every(2)),
            ..QuerySpec::default()
        };
        let base_attempts = spec.recovery.as_ref().unwrap().max_attempts;
        let second = escalate(&spec, 1);
        assert_eq!(
            second.recovery.as_ref().unwrap().max_attempts,
            base_attempts * 2
        );
        let third = escalate(&spec, 2);
        assert_eq!(
            third.recovery.as_ref().unwrap().max_attempts,
            base_attempts * 3
        );
        // No recovery config: escalation is the identity.
        let bare = escalate(&QuerySpec::default(), 5);
        assert!(bare.recovery.is_none());
    }

    #[test]
    fn health_trace_exports_all_counters_as_extras() {
        let health = ServeHealth {
            retries: 1,
            recovered: 2,
            shed: 3,
            quarantined: 4,
            budget_exceeded: 5,
            failed: 6,
            quarantined_now: 0,
        };
        let trace = health_trace(&health);
        assert_eq!(trace.events.len(), 2, "one worker row plus its barrier");
        let TraceEvent::WorkerStep { extras, .. } = &trace.events[0] else {
            panic!("health row must be a worker_step event");
        };
        assert!(
            matches!(trace.events[1], TraceEvent::StepEnd { halted: true, .. }),
            "the health step must close with a halted barrier so consumers parse it"
        );
        let expect = [
            ("serve_retries", 1),
            ("serve_recovered", 2),
            ("serve_sheds", 3),
            ("serve_quarantined", 4),
            ("serve_budget_exceeded", 5),
            ("serve_failed", 6),
        ];
        assert_eq!(extras.as_slice(), &expect);
        let jsonl = trace.to_jsonl("serve/health");
        assert!(jsonl.contains("\"serve_quarantined\":4"), "{jsonl}");
    }
}
