//! Deterministic fault injection for the BSP engine.
//!
//! A [`FaultPlan`] is *configuration*, not a compile-time feature: it rides
//! on [`crate::engine::BspConfig::fault_plan`] and is evaluated by release
//! and debug builds alike, so the recovery layer is exercised against
//! exactly the code that ships (a hook gated on `cfg(test)` or
//! `debug_assertions` stops firing in one of the two modes the fault suites
//! run in, and they fail). With no plan configured the hooks are two
//! branch-free `None` checks per superstep.
//!
//! Two fault kinds are injectable, matching the two recoverable
//! [`crate::error::BspError`] classes:
//!
//! * [`FaultKind::WorkerPanic`] — the chosen worker's compute closure
//!   panics at the chosen superstep, exercising the poisoned-worker path
//!   (`BspError::WorkerPanicked`).
//! * [`FaultKind::WireCorruption`] — one deterministically-chosen bit of
//!   the first remote batch bound for the chosen worker at the chosen
//!   superstep is flipped after encoding, exercising the codec-integrity
//!   path (`BspError::Codec`; the batch checksum makes detection certain).
//!
//! Faults are [`FaultMode::Transient`] (fire once, then stay quiet — the
//! classic crash-restart model, recoverable by rollback) or
//! [`FaultMode::Persistent`] (fire on every attempt — e.g. a determinism
//! bug or bad hardware, which must exhaust the retry budget rather than
//! loop forever). The firing state lives in a [`FaultInjector`] owned by
//! the driver, *outside* the rolled-back run state, so "already fired"
//! survives rollbacks.

use graphite_tgraph::rng::SplitMix64;

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the worker's compute closure.
    WorkerPanic,
    /// Flip one bit of an encoded remote batch bound for the worker.
    WireCorruption,
}

/// Whether a fault fires once or on every recovery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Fires the first time its `(worker, step)` trigger is reached, then
    /// never again — replays after a rollback pass cleanly.
    Transient,
    /// Fires every time its trigger is reached, including on replays.
    Persistent,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Worker index the fault targets (for wire corruption: the
    /// *destination* worker of the corrupted batch).
    pub worker: usize,
    /// 1-based superstep at which the fault triggers.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
    /// Transient (fire once) or persistent (fire every attempt).
    pub mode: FaultMode,
}

/// A deterministic schedule of injected faults, configured on
/// [`crate::engine::BspConfig::fault_plan`]. The same plan against the
/// same workload produces the same fault sequence on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with a single transient worker panic at `(worker, step)`.
    #[must_use]
    pub fn panic_at(worker: usize, step: u64) -> Self {
        FaultPlan {
            faults: vec![Fault {
                worker,
                step,
                kind: FaultKind::WorkerPanic,
                mode: FaultMode::Transient,
            }],
        }
    }

    /// A plan with a single transient wire-corruption fault on the first
    /// remote batch bound for `worker` at `step`.
    #[must_use]
    pub fn corrupt_at(worker: usize, step: u64) -> Self {
        FaultPlan {
            faults: vec![Fault {
                worker,
                step,
                kind: FaultKind::WireCorruption,
                mode: FaultMode::Transient,
            }],
        }
    }

    /// Adds another fault to the plan.
    #[must_use]
    pub fn and(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Marks every fault in the plan persistent.
    #[must_use]
    pub fn persistent(mut self) -> Self {
        for f in &mut self.faults {
            f.mode = FaultMode::Persistent;
        }
        self
    }

    /// A seeded schedule of `count` transient faults drawn deterministically
    /// over `workers` worker indices and supersteps `1..=max_step`,
    /// alternating panic and wire-corruption kinds by draw parity. The same
    /// seed always yields the same schedule.
    #[must_use]
    pub fn seeded(seed: u64, workers: usize, max_step: u64, count: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x4641_554c_5453); // "FAULTS"
        let faults = (0..count)
            .map(|i| Fault {
                // A random fault target, not a vertex placement.
                worker: (rng.next_u64() % workers.max(1) as u64) as usize,
                step: 1 + rng.next_u64() % max_step.max(1),
                kind: if i % 2 == 0 {
                    FaultKind::WorkerPanic
                } else {
                    FaultKind::WireCorruption
                },
                mode: FaultMode::Transient,
            })
            .collect();
        FaultPlan { faults }
    }
}

/// Runtime state of a [`FaultPlan`]: which faults already fired, and which
/// recovery attempt is executing. Owned by the run driver, outside the
/// rolled-back engine state, so transient faults stay fired across
/// rollbacks.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<bool>,
    attempt: u64,
}

impl FaultInjector {
    /// An injector for `plan` (`None` = no faults; hooks never fire).
    #[must_use]
    pub fn new(plan: Option<FaultPlan>) -> Self {
        let plan = plan.unwrap_or_default();
        let fired = vec![false; plan.faults.len()];
        FaultInjector {
            plan,
            fired,
            attempt: 0,
        }
    }

    /// The driver rolled back and is about to replay: subsequent trigger
    /// checks belong to the next attempt (feeds the corruption bit choice,
    /// so a persistent corruption fault flips a different — but still
    /// deterministic — bit each attempt).
    pub fn next_attempt(&mut self) {
        self.attempt += 1;
    }

    fn arm(&mut self, worker: usize, step: u64, kind: FaultKind) -> bool {
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.worker == worker && f.step == step && f.kind == kind {
                let fires = match f.mode {
                    FaultMode::Persistent => true,
                    FaultMode::Transient => !self.fired[i],
                };
                if fires {
                    self.fired[i] = true;
                    return true;
                }
            }
        }
        false
    }

    /// Should `worker`'s compute closure panic at `step` this attempt?
    #[must_use]
    pub fn arm_panic(&mut self, worker: usize, step: u64) -> bool {
        self.arm(worker, step, FaultKind::WorkerPanic)
    }

    /// Should the next remote batch bound for `dst_worker` at `step` be
    /// corrupted? Returns the 64-bit draw selecting the flipped bit
    /// (`draw % len` picks the byte, `(draw >> 32) % 8` the bit), or
    /// `None` when no corruption fault triggers.
    #[must_use]
    pub fn arm_corruption(&mut self, dst_worker: usize, step: u64) -> Option<u64> {
        if !self.arm(dst_worker, step, FaultKind::WireCorruption) {
            return None;
        }
        let mut rng = SplitMix64::new(
            (dst_worker as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(step)
                .wrapping_add(self.attempt << 48),
        );
        Some(rng.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_fires_exactly_once() {
        let mut inj = FaultInjector::new(Some(FaultPlan::panic_at(1, 3)));
        assert!(!inj.arm_panic(1, 2), "wrong step must not fire");
        assert!(!inj.arm_panic(0, 3), "wrong worker must not fire");
        assert!(inj.arm_panic(1, 3), "trigger must fire");
        inj.next_attempt();
        assert!(!inj.arm_panic(1, 3), "transient fault must stay fired");
    }

    #[test]
    fn persistent_fault_fires_every_attempt() {
        let mut inj = FaultInjector::new(Some(FaultPlan::panic_at(0, 2).persistent()));
        for _ in 0..3 {
            assert!(inj.arm_panic(0, 2));
            inj.next_attempt();
        }
    }

    #[test]
    fn corruption_draw_is_deterministic_per_attempt() {
        let plan = FaultPlan::corrupt_at(2, 4).persistent();
        let mut a = FaultInjector::new(Some(plan.clone()));
        let mut b = FaultInjector::new(Some(plan));
        let d1 = a.arm_corruption(2, 4);
        assert_eq!(d1, b.arm_corruption(2, 4));
        assert!(d1.is_some());
        a.next_attempt();
        b.next_attempt();
        let d2 = a.arm_corruption(2, 4);
        assert_eq!(d2, b.arm_corruption(2, 4));
        assert_ne!(d1, d2, "each attempt flips a different bit");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let p1 = FaultPlan::seeded(99, 4, 6, 8);
        let p2 = FaultPlan::seeded(99, 4, 6, 8);
        assert_eq!(p1, p2);
        assert_eq!(p1.faults.len(), 8);
        for f in &p1.faults {
            assert!(f.worker < 4);
            assert!((1..=6).contains(&f.step));
            assert_eq!(f.mode, FaultMode::Transient);
        }
        assert_ne!(p1, FaultPlan::seeded(100, 4, 6, 8));
    }

    #[test]
    fn unarmed_injector_never_fires() {
        let mut inj = FaultInjector::new(None);
        for step in 1..10 {
            for w in 0..4 {
                assert!(!inj.arm_panic(w, step));
                assert!(inj.arm_corruption(w, step).is_none());
            }
        }
    }
}
