//! The per-worker vertex state table every platform runs on.
//!
//! GRAPHITE's ICM worker keeps one [`IntervalPartition`] per owned vertex
//! (Sec. IV-A1); the baselines keep one plain value per vertex (MSB, TGB,
//! GoFFish) or per vertex and batch offset (Chlonos). All of them hold
//! those states in a [`StateTable`], so a worker's state has one layout
//! and one checkpoint codec on every platform.
//!
//! [`IntervalPartition`]: graphite_tgraph::iset::IntervalPartition

use crate::codec::{get_varint, put_varint, Wire};
use crate::partition::PartitionMap;
use graphite_tgraph::graph::VIdx;
use std::sync::Arc;

/// The vertex states of one worker: `stride` slots per owned vertex.
/// Slots sit in one dense vector indexed by the vertex's
/// [`PartitionMap::local_index`] times the stride, not in a map, so a
/// lookup is an index and a steady run allocates nothing.
#[derive(Debug)]
pub struct StateTable<S> {
    partition: Arc<PartitionMap>,
    worker: usize,
    /// Owned vertices, ascending; `owned[i]` holds slots
    /// `i * stride..(i + 1) * stride`. Shared, so a superstep can walk it
    /// while it computes into the slots.
    owned: Arc<[u32]>,
    stride: usize,
    /// `None` until the slot's first compute.
    slots: Vec<Option<S>>,
}

impl<S> StateTable<S> {
    /// An empty table of `stride` slots per vertex `worker` owns.
    pub fn new(partition: &Arc<PartitionMap>, worker: usize, stride: usize) -> Self {
        let owned: Arc<[u32]> = partition.owned_by(worker).iter().map(|v| v.0).collect();
        StateTable {
            partition: Arc::clone(partition),
            worker,
            slots: std::iter::repeat_with(|| None)
                .take(owned.len() * stride)
                .collect(),
            owned,
            stride,
        }
    }

    /// The owned vertices, ascending.
    pub fn owned(&self) -> Arc<[u32]> {
        Arc::clone(&self.owned)
    }

    /// Slot `offset` of owned vertex `v`.
    pub fn slot(&mut self, v: u32, offset: usize) -> &mut Option<S> {
        &mut self.slots[self.partition.local_index(VIdx(v)) * self.stride + offset]
    }

    /// Every initialized slot as `(vertex, offset, state)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize, &S)> + '_ {
        let stride = self.stride;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| Some((self.owned[i / stride], i % stride, s.as_ref()?)))
    }

    /// [`StateTable::iter`], by value: takes every state out and leaves
    /// the table empty, with `stride` slots per vertex from now on (a
    /// walk's next phase).
    pub fn drain(&mut self, stride: usize) -> Vec<(u32, usize, S)> {
        let empty = std::iter::repeat_with(|| None).take(self.owned.len() * stride);
        let slots = std::mem::replace(&mut self.slots, empty.collect());
        let was = std::mem::replace(&mut self.stride, stride);
        let states = slots.into_iter().enumerate();
        states
            .filter_map(|(i, s)| Some((self.owned[i / was], i % was, s?)))
            .collect()
    }
}

/// The table's checkpoint: the initialized slots in ascending order, each
/// keyed `vertex * stride + offset`. At stride 1 the key is the vertex
/// and the blob is byte for byte the old sorted-map encoding.
impl<S: Wire> StateTable<S> {
    /// Appends the checkpoint of every initialized slot to `buf`.
    pub fn checkpoint(&self, buf: &mut Vec<u8>) {
        put_varint(self.iter().count() as u64, buf);
        for (v, offset, s) in self.iter() {
            put_varint(u64::from(v) * self.stride as u64 + offset as u64, buf);
            s.encode(buf);
        }
    }

    /// Replaces the slots with a [`StateTable::checkpoint`] blob, or
    /// leaves them as they were when the blob names a slot this worker
    /// does not own or is malformed.
    ///
    /// # Errors
    ///
    /// What is wrong with the blob: a foreign vertex, a state that does
    /// not decode, or trailing bytes.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        let mut cur = bytes;
        let count = get_varint(&mut cur).ok_or("vertex state count")?;
        let mut slots: Vec<Option<S>> = std::iter::repeat_with(|| None)
            .take(self.slots.len())
            .collect();
        let stride = self.stride as u64;
        for _ in 0..count {
            let key = get_varint(&mut cur).ok_or("vertex id")?;
            let v = u32::try_from(key / stride).map_err(|_| "vertex id exceeds u32")?;
            let owned = (v as usize) < self.partition.len()
                && self.partition.worker_of(VIdx(v)) == self.worker;
            if !owned {
                return Err("checkpoint vertex not owned by this worker");
            }
            let s = S::decode(&mut cur).ok_or("vertex state")?;
            slots[self.partition.local_index(VIdx(v)) * self.stride + (key % stride) as usize] =
                Some(s);
        }
        if !cur.is_empty() {
            return Err("trailing bytes in worker checkpoint");
        }
        self.slots = slots;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::iset::IntervalPartition;
    use graphite_tgraph::rng::SplitMix64;
    use graphite_tgraph::time::Interval;
    use std::collections::BTreeMap;

    /// `n` vertices placed on `workers` workers at random.
    fn partition(rng: &mut SplitMix64, n: usize, workers: usize) -> Arc<PartitionMap> {
        let assignment = (0..n).map(|_| rng.index(workers) as u16).collect();
        Arc::new(PartitionMap::from_assignment(assignment, workers).unwrap())
    }

    /// The sorted-map encoding the table replaced, verbatim.
    fn oracle_checkpoint<S: Wire>(states: &BTreeMap<u32, S>, buf: &mut Vec<u8>) {
        put_varint(states.len() as u64, buf);
        for (&v, s) in states {
            put_varint(u64::from(v), buf);
            s.encode(buf);
        }
    }

    /// A random interval state over `[0, len)`: up to four pieces.
    fn interval_state(rng: &mut SplitMix64) -> IntervalPartition<i64> {
        let len = 1 + rng.bounded(40) as i64;
        let mut p = IntervalPartition::new(Interval::new(0, len), rng.range_i64(-9, 9));
        for _ in 0..rng.bounded(4) {
            p.split_at(rng.range_i64(0, len));
            p.set(Interval::point(rng.range_i64(0, len)), rng.range_i64(-9, 9));
        }
        p
    }

    /// Fills a random subset of every table's stride-1 slots, as a run
    /// leaves the vertices that never computed unset, and checks the
    /// checkpoint against the sorted-map encoding and its restore.
    fn round_trips<S: Wire + PartialEq + std::fmt::Debug>(
        seed: u64,
        mut state: impl FnMut(&mut SplitMix64) -> S,
    ) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..64 {
            let n = 1 + rng.bounded(200) as usize;
            let workers = 1 + rng.index(4);
            let partition = partition(&mut rng, n, workers);
            for w in 0..workers {
                let mut table = StateTable::new(&partition, w, 1);
                let mut map = BTreeMap::new();
                for &v in table.owned().iter() {
                    if rng.bool() {
                        let s = state(&mut rng);
                        *table.slot(v, 0) = Some(s.clone());
                        map.insert(v, s);
                    }
                }
                let (mut got, mut want) = (Vec::new(), Vec::new());
                table.checkpoint(&mut got);
                oracle_checkpoint(&map, &mut want);
                assert_eq!(got, want, "case {case}");
                let before = std::mem::take(&mut table.slots);
                table.slots = before.iter().map(|_| None).collect();
                table.restore(&got).unwrap();
                assert_eq!(table.slots, before, "case {case}");
            }
        }
    }

    #[test]
    fn dense_checkpoint_is_byte_equal_to_the_sorted_map_encoding() {
        round_trips(29, |rng| rng.range_i64(-1_000_000, 1_000_000));
    }

    #[test]
    fn interval_states_checkpoint_like_the_sorted_map_encoding() {
        round_trips(31, interval_state);
    }

    /// Two workers over 64 vertices, alternating owners.
    fn two_workers() -> Arc<PartitionMap> {
        let assignment = (0..64).map(|v| v % 2).collect();
        Arc::new(PartitionMap::from_assignment(assignment, 2).unwrap())
    }

    #[test]
    fn restore_rejects_a_vertex_another_worker_owns() {
        let partition = two_workers();
        let mut table: StateTable<i64> = StateTable::new(&partition, 0, 1);
        let mut blob = Vec::new();
        oracle_checkpoint(&BTreeMap::from([(1, 7i64)]), &mut blob);
        let err = table.restore(&blob).expect_err("a foreign vertex");
        assert_eq!(err, "checkpoint vertex not owned by this worker");
        // Past the end of the graph is nobody's vertex either.
        blob.clear();
        oracle_checkpoint(&BTreeMap::from([(64, 7i64)]), &mut blob);
        assert!(table.restore(&blob).is_err());
        // A rejected blob leaves the table as it was.
        assert!(table.slots.iter().all(Option::is_none));
    }

    #[test]
    fn restore_rejects_bad_interval_states_and_keeps_the_table() {
        let partition = two_workers();
        let mut table = StateTable::new(&partition, 0, 1);
        let held = IntervalPartition::new(Interval::new(0, 10), 3i64);
        *table.slot(2, 0) = Some(held.clone());
        let ok = BTreeMap::from([(4, held.clone())]);
        let mut blobs = Vec::new();
        // A foreign vertex.
        let mut blob = Vec::new();
        oracle_checkpoint(&BTreeMap::from([(3, held.clone())]), &mut blob);
        blobs.push(blob);
        // Trailing bytes after a good blob.
        let mut blob = Vec::new();
        oracle_checkpoint(&ok, &mut blob);
        blob.push(0);
        blobs.push(blob);
        // A partition with a gap: [0,4) then [5,10) over [0,10).
        let mut blob = Vec::new();
        put_varint(1, &mut blob);
        put_varint(4, &mut blob);
        Interval::new(0, 10).encode(&mut blob);
        vec![(Interval::new(0, 4), 1i64), (Interval::new(5, 10), 2)].encode(&mut blob);
        blobs.push(blob);
        for blob in &blobs {
            assert!(table.restore(blob).is_err(), "{blob:?}");
            let held: Vec<_> = table.iter().map(|(v, o, s)| (v, o, s.clone())).collect();
            assert_eq!(
                held,
                vec![(2, 0, IntervalPartition::new(Interval::new(0, 10), 3))]
            );
        }
    }
}
