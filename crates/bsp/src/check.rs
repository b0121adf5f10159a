//! Runtime verification of the BSP barrier protocol (debug builds only).
//!
//! The engine's determinism claims rest on a strict superstep protocol:
//! compute (and the senders' encode) happens in parallel, *all* message
//! movement between workers happens in the exchange phase that follows —
//! the driver hands each destination its frames, the destinations decode
//! and group them in parallel — and the barrier evaluates halting from the
//! built-in messages-sent aggregate. The checker lives on the driver
//! thread: the driver records what it hands over per batch and what each
//! receiver reports back per inbox, never per message. [`RunChecker`]
//! asserts that protocol as a state machine while the engine runs:
//!
//! 1. **Phase discipline** — message batches are delivered to next-step
//!    inboxes only during the exchange phase; a delivery after the barrier
//!    (or during compute) is a protocol violation.
//! 2. **Ledger balance** — every wire message the driver counted out of
//!    an outbox (from batch and frame lengths) is reported delivered by a
//!    receiver exactly once, and the built-in [`MESSAGES_SENT_AGG`]
//!    aggregate published at the barrier equals the messages the outboxes
//!    counted as emitted. A sender-side fold ships at most what was
//!    emitted, and something whenever anything was.
//! 3. **Halt-vote monotonicity** — vertices implicitly vote to halt every
//!    superstep (Sec. IV-A2); once a barrier observes zero messages in
//!    flight and no `ForceContinue` master decision, the vote is final and
//!    no further superstep may run — unless the run's phase hook begins
//!    another phase there, which reopens the vote.
//!
//! All methods compile to empty inline bodies in release builds, so the
//! checker costs nothing in benchmarked configurations; `cargo test` (a
//! debug build) runs every engine test under full verification.
//!
//! [`MESSAGES_SENT_AGG`]: crate::engine::MESSAGES_SENT_AGG

use crate::aggregate::MasterDecision;

/// The protocol phase the engine is currently in (debug builds).
#[cfg(debug_assertions)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Between runs or at a barrier: no sends or deliveries are legal.
    Barrier,
    /// Worker threads are computing; outboxes accumulate, nothing routes.
    Compute,
    /// The driver is handing batches and frames to the receivers, which
    /// decode and group them into next-step inboxes.
    Exchange,
}

/// State machine asserting the BSP barrier protocol. See the module docs.
#[derive(Debug)]
pub struct RunChecker {
    #[cfg(debug_assertions)]
    inner: Inner,
}

#[cfg(debug_assertions)]
#[derive(Debug)]
struct Inner {
    phase: Phase,
    step: u64,
    /// Messages the outboxes counted as emitted this superstep.
    emitted: u64,
    /// Wire messages the driver handed to receivers this superstep.
    sent: u64,
    /// Messages delivered into next-step inboxes this superstep.
    delivered: u64,
    /// Set when a barrier finalized the implicit halt vote; any further
    /// superstep is a monotonicity violation.
    halt_final: bool,
}

impl RunChecker {
    /// A checker for a fresh run.
    #[must_use]
    pub fn new() -> Self {
        RunChecker {
            #[cfg(debug_assertions)]
            inner: Inner {
                phase: Phase::Barrier,
                step: 0,
                emitted: 0,
                sent: 0,
                delivered: 0,
                halt_final: false,
            },
        }
    }

    /// Rewinds the checker to the barrier after superstep `step`, as if the
    /// run had just completed that superstep. Used by the recovery session
    /// when rolling a run back to a checkpoint: the replayed supersteps are
    /// re-verified against the full protocol, but the step-monotonicity and
    /// halt-finality state of the abandoned attempt must not leak into the
    /// replay. A phase continue uses it too: the final halt vote of the
    /// quiescent barrier after `step` is reopened for the next phase.
    #[inline]
    pub fn resume(&mut self, step: u64) {
        let _ = step;
        #[cfg(debug_assertions)]
        {
            self.inner = Inner {
                phase: Phase::Barrier,
                step,
                emitted: 0,
                sent: 0,
                delivered: 0,
                halt_final: false,
            };
        }
    }

    /// Superstep `step` begins its compute phase.
    #[inline]
    pub fn begin_compute(&mut self, step: u64) {
        let _ = step;
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.inner.halt_final,
                "BSP invariant: superstep {step} started after the halt vote \
                 became final (halt-vote monotonicity violated)"
            );
            assert_eq!(
                self.inner.phase,
                Phase::Barrier,
                "BSP invariant: compute phase of superstep {step} started outside a barrier"
            );
            assert_eq!(
                self.inner.step + 1,
                step,
                "BSP invariant: superstep skipped or repeated"
            );
            self.inner.phase = Phase::Compute;
            self.inner.step = step;
            self.inner.emitted = 0;
            self.inner.sent = 0;
            self.inner.delivered = 0;
        }
    }

    /// Compute and send-side encode ended on every worker; the exchange
    /// (driver hand-off, then the parallel receive phase) begins.
    #[inline]
    pub fn begin_exchange(&mut self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.inner.phase,
                Phase::Compute,
                "BSP invariant: exchange started without a compute phase"
            );
            self.inner.phase = Phase::Exchange;
        }
    }

    /// The driver handed a receiver one batch or frame: `emitted`
    /// messages sent to it, `shipped` of them on the wire after folding.
    #[inline]
    pub fn record_sent(&mut self, emitted: u64, shipped: u64) {
        let _ = (emitted, shipped);
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.inner.phase,
                Phase::Exchange,
                "BSP invariant: outbox drained outside the exchange phase"
            );
            assert!(
                shipped <= emitted && (shipped == 0) == (emitted == 0),
                "BSP invariant: a batch ships {shipped} of {emitted} emitted messages"
            );
            self.inner.emitted += emitted;
            self.inner.sent += shipped;
        }
    }

    /// A receiver reported `count` messages grouped into its next-step
    /// inbox.
    #[inline]
    pub fn record_delivered(&mut self, count: u64) {
        let _ = count;
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.inner.phase,
                Phase::Exchange,
                "BSP invariant: batch delivered outside the exchange phase \
                 (delivery after the superstep barrier)"
            );
            self.inner.delivered += count;
        }
    }

    /// The barrier: exchange is complete, the messages-sent aggregate is
    /// `aggregate_sent`, the master decided `decision`, and the engine will
    /// halt iff `halting`.
    #[inline]
    pub fn barrier(&mut self, aggregate_sent: u64, decision: MasterDecision, halting: bool) {
        let _ = (aggregate_sent, decision, halting);
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.inner.phase,
                Phase::Exchange,
                "BSP invariant: barrier reached without an exchange phase"
            );
            assert_eq!(
                self.inner.sent, self.inner.delivered,
                "BSP invariant: send/receive ledger unbalanced at superstep {} \
                 ({} sent, {} delivered)",
                self.inner.step, self.inner.sent, self.inner.delivered
            );
            assert_eq!(
                aggregate_sent, self.inner.emitted,
                "BSP invariant: messages-in-flight aggregate ({aggregate_sent}) \
                 disagrees with the router ledger ({}) at superstep {}",
                self.inner.emitted, self.inner.step
            );
            let idle = self.inner.emitted == 0 && decision != MasterDecision::ForceContinue;
            if idle || decision == MasterDecision::Halt {
                // The implicit halt vote is final (or the master forced a
                // halt): the engine must stop here.
                assert!(
                    halting,
                    "BSP invariant: halt vote final at superstep {} but the \
                     engine did not halt",
                    self.inner.step
                );
                self.inner.halt_final = true;
            }
            self.inner.phase = Phase::Barrier;
        }
    }
}

impl Default for RunChecker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    fn full_step(c: &mut RunChecker, step: u64, msgs: u64, halting: bool) {
        c.begin_compute(step);
        c.begin_exchange();
        c.record_sent(msgs, msgs);
        c.record_delivered(msgs);
        c.barrier(msgs, MasterDecision::Continue, halting);
    }

    #[test]
    fn well_formed_run_passes() {
        let mut c = RunChecker::new();
        full_step(&mut c, 1, 5, false);
        full_step(&mut c, 2, 3, false);
        full_step(&mut c, 3, 0, true);
    }

    #[test]
    #[should_panic(expected = "delivery after the superstep barrier")]
    fn delivery_outside_exchange_is_caught() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.record_delivered(1); // still in compute: illegal
    }

    #[test]
    #[should_panic(expected = "ledger unbalanced")]
    fn dropped_message_is_caught() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.begin_exchange();
        c.record_sent(4, 4);
        c.record_delivered(3); // one message vanished
        c.barrier(4, MasterDecision::Continue, false);
    }

    #[test]
    #[should_panic(expected = "disagrees with the router ledger")]
    fn aggregate_mismatch_is_caught() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.begin_exchange();
        c.record_sent(4, 4);
        c.record_delivered(4);
        c.barrier(5, MasterDecision::Continue, false);
    }

    #[test]
    fn a_folded_batch_balances_on_its_wire_count() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.begin_exchange();
        c.record_sent(9, 4);
        c.record_delivered(4);
        c.barrier(9, MasterDecision::Continue, false);
    }

    #[test]
    #[should_panic(expected = "ships 0 of 3 emitted")]
    fn a_fold_that_drops_a_batch_is_caught() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.begin_exchange();
        c.record_sent(3, 0);
    }

    #[test]
    #[should_panic(expected = "halt-vote monotonicity")]
    fn superstep_after_final_halt_is_caught() {
        let mut c = RunChecker::new();
        full_step(&mut c, 1, 0, true); // idle barrier: vote is final
        c.begin_compute(2); // illegal continuation
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn ignoring_the_halt_vote_is_caught() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.begin_exchange();
        c.record_sent(0, 0);
        c.record_delivered(0);
        c.barrier(0, MasterDecision::Continue, false); // engine claims it continues
    }

    #[test]
    fn force_continue_keeps_the_vote_open() {
        let mut c = RunChecker::new();
        c.begin_compute(1);
        c.begin_exchange();
        c.record_sent(0, 0);
        c.record_delivered(0);
        c.barrier(0, MasterDecision::ForceContinue, false);
        full_step(&mut c, 2, 0, true);
    }
}
