//! Checkpointing: serializable worker state and the captured boundary.
//!
//! A checkpoint captures everything the engine needs to transplant a run
//! back to a superstep boundary: every worker's user state (via the
//! [`Snapshot`] trait, encoded with the wire-codec conventions of
//! [`crate::codec`]), every in-flight inbox (the messages delivered at the
//! last barrier but not yet consumed), the merged aggregator globals, and
//! the run metrics as of that boundary. Worker states and inboxes are
//! byte blobs — they round-trip through the same codec the network path
//! uses; the aggregator/metrics control block stays an in-memory clone
//! (aggregator keys are `&'static str` interned by user code, which bytes
//! cannot reconstruct). A checkpoint lives in memory for the length of
//! one run: rollback is in-process (DESIGN.md §11).

use crate::aggregate::Aggregators;
use crate::metrics::RunMetrics;

/// Worker logic whose user state can round-trip through bytes. Implemented
/// by the ICM and VCM workers; required to construct a
/// [`crate::recover::Recovery`] session.
///
/// The contract mirrors [`crate::codec::Wire`], but at worker granularity
/// and fallible on restore: `restore(buf)` after `checkpoint(&mut buf)`
/// must reproduce a state that behaves identically in every subsequent
/// superstep — the fault-matrix tests pin that recovered result digests
/// are bit-identical to fault-free ones.
pub trait Snapshot {
    /// Appends this worker's complete user state to `buf`.
    fn checkpoint(&self, buf: &mut Vec<u8>);

    /// Replaces this worker's user state with the one encoded in `bytes`
    /// (written by [`Snapshot::checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns a static description when `bytes` is malformed; the worker
    /// state is left unchanged in that case.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str>;
}

/// A captured superstep boundary: the unit a
/// [`crate::recover::Recovery`] session retains and a rollback restores.
#[derive(Debug)]
pub struct Checkpoint {
    /// The superstep this checkpoint sits after (0 = before the first).
    pub step: u64,
    /// Per-worker [`Snapshot`] blobs.
    pub worker_states: Vec<Vec<u8>>,
    /// Per-worker in-flight inbox blobs (messages delivered at the last
    /// barrier, pending consumption in superstep `step + 1`).
    pub inboxes: Vec<Vec<u8>>,
    /// Merged aggregator globals as of the barrier.
    pub(crate) globals: Aggregators,
    /// Run metrics as of the barrier (recovery counters excluded on
    /// rollback — they are monotone over the whole recovered run).
    pub(crate) metrics: RunMetrics,
}

impl Checkpoint {
    /// Serialized payload size: the bytes the checkpoint retains.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.worker_states
            .iter()
            .chain(self.inboxes.iter())
            .map(|b| b.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
