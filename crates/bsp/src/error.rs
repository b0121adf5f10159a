//! Engine-level failures surfaced by [`crate::engine::run_bsp`], with or
//! without a recovery session ([`crate::engine::BspConfig::recovery`]).
//!
//! DESIGN.md §7 ("failure injection") requires the engine to *surface*
//! poisoned-worker conditions instead of panicking inside the barrier
//! logic: worker threads that panic mid-superstep, or a remote batch
//! whose self-encoded bytes fail to decode, are reported to the caller as
//! a typed error carrying the worker indices and superstep for diagnosis.
//! A recovery session classifies these per [`BspError::is_recoverable`]
//! and, when its retry budget runs out, wraps the full fault history in
//! [`BspError::RecoveryExhausted`].

use std::fmt;

/// A failure during a BSP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BspError {
    /// One or more worker threads panicked during the compute phase of a
    /// superstep. The partitions they owned are poisoned; the run cannot
    /// produce a sound result. Every poisoned worker of the superstep is
    /// reported, not just the first one joined.
    WorkerPanicked {
        /// 1-based superstep during which the panics surfaced.
        step: u64,
        /// `(worker index, panic payload)` for every poisoned worker,
        /// ascending by worker index (join order may be perturbed).
        workers: Vec<(usize, String)>,
    },
    /// A remote batch failed to decode through the wire codec even though
    /// this process encoded it — memory corruption or a codec bug.
    Codec {
        /// Destination worker whose batch failed to decode.
        worker: usize,
        /// 1-based superstep of the exchange.
        step: u64,
        /// What failed to decode.
        detail: &'static str,
    },
    /// The caller supplied an invalid run configuration — e.g. a worker
    /// count of zero, one that exceeds the `u16` wire encoding of worker
    /// indices, or a partition assignment that does not cover the graph.
    /// Configuration is user-controlled input, so this is a typed error,
    /// never an assertion.
    Config {
        /// What was invalid.
        detail: String,
    },
    /// The caller supplied a different number of worker logics than the
    /// partition map has workers.
    WorkerMismatch {
        /// Number of `WorkerLogic` instances supplied.
        logics: usize,
        /// Number of workers in the partition map.
        partitions: usize,
    },
    /// The superstep cap was exhausted without the run halting: the logic
    /// did not converge within `limit` supersteps. Previously this was a
    /// silent `Ok` with a truncated (wrong) result.
    SuperstepLimit {
        /// The `max_supersteps` value that was exhausted.
        limit: u64,
    },
    /// A checkpoint could not be captured or restored, or none exists.
    Checkpoint {
        /// What went wrong.
        detail: String,
    },
    /// A serving layer refused to admit a query: its estimated cost would
    /// push the engine past its configured in-flight budget and the wait
    /// queue is full. The query was *never executed* — resubmit later or
    /// against a larger budget. Surfaced by `graphite-serve`'s admission
    /// controller (DESIGN.md §14), typed here so callers can distinguish
    /// overload from execution failure.
    Admission {
        /// Estimated cost units of the rejected query.
        estimated_cost: u64,
        /// The engine's total admission budget in the same units.
        budget: u64,
        /// Queue occupancy at rejection time (queued + in-flight).
        occupancy: usize,
    },
    /// The recovery session's retry budget ran out: every attempt ended in
    /// a recoverable fault. Carries the full fault history for diagnosis.
    RecoveryExhausted {
        /// Number of failed execution attempts (initial run + replays).
        attempts: u64,
        /// The error that ended the final attempt.
        last: Box<BspError>,
        /// Every recoverable error observed, in order of occurrence.
        history: Vec<BspError>,
    },
    /// The query's deterministic execution budget — a superstep ceiling
    /// derived from the serving layer's admission cost model (or set
    /// explicitly in the batch spec) — was exhausted at the barrier. The
    /// partial state is discarded; the executor slot is released. Unlike
    /// [`BspError::SuperstepLimit`] (an engine-wide convergence cap),
    /// this is a per-query serving policy and deliberately small.
    BudgetExceeded {
        /// The superstep budget that was exhausted.
        budget: u64,
    },
    /// The serving layer fast-failed this query without executing it:
    /// its parameter digest is quarantined after repeated terminal
    /// failures (DESIGN.md §15). Quarantine decays deterministically, so
    /// resubmission eventually executes again.
    Quarantined {
        /// Quarantine key (params digest folded with the fault plan).
        digest: u64,
        /// Terminal failures observed before quarantine engaged.
        failures: u64,
    },
    /// The serving layer shed this queued query to relieve overload:
    /// pending depth crossed the configured watermark and this query was
    /// among the cheapest-oldest queued (never-executing) work. The query
    /// was *never executed* — resubmit when the backlog drains.
    Shed {
        /// Queue occupancy (queued + in-flight) when the shed fired.
        occupancy: usize,
        /// The pending-depth watermark that was crossed.
        watermark: usize,
    },
}

impl BspError {
    /// Whether the checkpoint/rollback driver may retry after this error.
    /// Worker panics and wire corruption are execution faults a rollback
    /// can undo; mismatched configuration, non-convergence, checkpoint
    /// failures, and admission rejections (the run never started) are not.
    #[must_use]
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            BspError::WorkerPanicked { .. } | BspError::Codec { .. }
        )
    }

    /// Whether the *serving* retry layer may re-run a query that ended in
    /// this error (DESIGN.md §15). Transient means "an identical query
    /// could plausibly succeed on another attempt with an escalated
    /// recovery budget": execution faults (panics, wire corruption), an
    /// exhausted inner recovery budget, and checkpoint failures.
    /// Everything else — bad configuration, non-convergence, budget,
    /// admission, shed, quarantine — is deterministic policy and retrying
    /// would burn workers for the same answer.
    ///
    /// The match is deliberately exhaustive (no `_` arm): adding a
    /// variant forces a classification decision here.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            BspError::WorkerPanicked { .. }
            | BspError::Codec { .. }
            | BspError::Checkpoint { .. }
            | BspError::RecoveryExhausted { .. } => true,
            BspError::Config { .. }
            | BspError::WorkerMismatch { .. }
            | BspError::SuperstepLimit { .. }
            | BspError::Admission { .. }
            | BspError::BudgetExceeded { .. }
            | BspError::Quarantined { .. }
            | BspError::Shed { .. } => false,
        }
    }

    /// Stable machine-readable tag for this variant, used by the
    /// `graphite serve` JSONL error rows. Exhaustive for the same reason
    /// as [`BspError::is_transient`].
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            BspError::WorkerPanicked { .. } => "worker_panicked",
            BspError::Codec { .. } => "codec",
            BspError::Config { .. } => "config",
            BspError::WorkerMismatch { .. } => "worker_mismatch",
            BspError::SuperstepLimit { .. } => "superstep_limit",
            BspError::Checkpoint { .. } => "checkpoint",
            BspError::Admission { .. } => "admission",
            BspError::RecoveryExhausted { .. } => "recovery_exhausted",
            BspError::BudgetExceeded { .. } => "budget_exceeded",
            BspError::Quarantined { .. } => "quarantined",
            BspError::Shed { .. } => "shed",
        }
    }
}

impl fmt::Display for BspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BspError::WorkerPanicked { step, workers } => {
                let list = workers
                    .iter()
                    .map(|(w, msg)| format!("worker {w} ({msg})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "{} worker(s) panicked in superstep {step}: {list}",
                    workers.len()
                )
            }
            BspError::Codec {
                worker,
                step,
                detail,
            } => {
                write!(
                    f,
                    "self-encoded batch for worker {worker} failed to decode in superstep {step}: {detail}"
                )
            }
            BspError::Config { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            BspError::WorkerMismatch { logics, partitions } => {
                write!(
                    f,
                    "{logics} worker logics supplied for {partitions} partitions"
                )
            }
            BspError::SuperstepLimit { limit } => {
                write!(f, "run did not converge within {limit} supersteps")
            }
            BspError::Checkpoint { detail } => {
                write!(f, "checkpoint failure: {detail}")
            }
            BspError::Admission {
                estimated_cost,
                budget,
                occupancy,
            } => {
                write!(
                    f,
                    "query rejected by admission control: estimated cost \
                     {estimated_cost} exceeds remaining budget (total {budget}, \
                     {occupancy} queries queued or in flight)"
                )
            }
            BspError::RecoveryExhausted {
                attempts,
                last,
                history,
            } => {
                write!(
                    f,
                    "recovery exhausted after {attempts} attempt(s) \
                     ({} fault(s) observed); last: {last}",
                    history.len()
                )
            }
            BspError::BudgetExceeded { budget } => {
                write!(f, "query exceeded its superstep budget of {budget}")
            }
            BspError::Quarantined { digest, failures } => {
                write!(
                    f,
                    "query {digest:#018x} is quarantined after {failures} \
                     terminal failure(s); resubmit after decay"
                )
            }
            BspError::Shed {
                occupancy,
                watermark,
            } => {
                write!(
                    f,
                    "query shed under load: pending depth {occupancy} crossed \
                     the shed watermark {watermark}"
                )
            }
        }
    }
}

impl std::error::Error for BspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BspError::WorkerPanicked {
            step: 7,
            workers: vec![(1, "boom".into()), (3, "bang".into())],
        };
        let s = e.to_string();
        assert!(s.contains('1') && s.contains('3') && s.contains('7'));
        assert!(s.contains("boom") && s.contains("bang"));
        let c = BspError::Codec {
            worker: 1,
            step: 2,
            detail: "vid varint",
        };
        assert!(c.to_string().contains("vid varint"));
        let m = BspError::WorkerMismatch {
            logics: 2,
            partitions: 4,
        };
        assert!(m.to_string().contains('2') && m.to_string().contains('4'));
        let l = BspError::SuperstepLimit { limit: 42 };
        assert!(l.to_string().contains("42"));
        let k = BspError::Checkpoint {
            detail: "truncated blob".into(),
        };
        assert!(k.to_string().contains("truncated blob"));
        let g = BspError::Config {
            detail: "0 workers requested".into(),
        };
        assert!(g.to_string().contains("0 workers requested"));
        let a = BspError::Admission {
            estimated_cost: 900,
            budget: 500,
            occupancy: 6,
        };
        let s = a.to_string();
        assert!(s.contains("900") && s.contains("500") && s.contains('6'));
        assert!(s.contains("admission"));
        let r = BspError::RecoveryExhausted {
            attempts: 3,
            last: Box::new(l.clone()),
            history: vec![l],
        };
        assert!(r.to_string().contains('3') && r.to_string().contains("42"));
        let b = BspError::BudgetExceeded { budget: 17 };
        assert!(b.to_string().contains("17") && b.to_string().contains("budget"));
        let q = BspError::Quarantined {
            digest: 0xABCD,
            failures: 4,
        };
        assert!(q.to_string().contains("quarantined") && q.to_string().contains('4'));
        let sh = BspError::Shed {
            occupancy: 9,
            watermark: 8,
        };
        assert!(sh.to_string().contains('9') && sh.to_string().contains('8'));
    }

    #[test]
    fn recoverability_classification() {
        assert!(BspError::WorkerPanicked {
            step: 1,
            workers: vec![(0, "x".into())],
        }
        .is_recoverable());
        assert!(BspError::Codec {
            worker: 0,
            step: 1,
            detail: "d",
        }
        .is_recoverable());
        assert!(!BspError::SuperstepLimit { limit: 5 }.is_recoverable());
        assert!(!BspError::WorkerMismatch {
            logics: 1,
            partitions: 2,
        }
        .is_recoverable());
        assert!(!BspError::Checkpoint { detail: "d".into() }.is_recoverable());
        assert!(!BspError::Config { detail: "d".into() }.is_recoverable());
        assert!(!BspError::Admission {
            estimated_cost: 1,
            budget: 1,
            occupancy: 0,
        }
        .is_recoverable());
        // The new serving-policy outcomes are neither recoverable (no
        // rollback helps) nor transient (retrying reproduces them).
        for e in [
            BspError::BudgetExceeded { budget: 1 },
            BspError::Quarantined {
                digest: 1,
                failures: 1,
            },
            BspError::Shed {
                occupancy: 2,
                watermark: 1,
            },
        ] {
            assert!(!e.is_recoverable(), "{e}");
            assert!(!e.is_transient(), "{e}");
        }
    }
}
