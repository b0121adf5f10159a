//! Dynamically partitioned vertex state management (Sec. IV-A1) as used by
//! the engine: the bookkeeping of which sub-intervals of a vertex's
//! [`IntervalPartition`] `compute` changed in the current superstep (those
//! — and only those — feed the pre-scatter warp). The partitions
//! themselves sit in the worker's `graphite_bsp::state::StateTable`, the
//! table every platform keeps its vertex states in.
//!
//! [`StateUpdates`] is a worker-owned buffer, not a per-vertex value: it
//! collects one vertex's writes already sorted and disjoint, applies them
//! in one merge pass over the partition
//! ([`IntervalPartition::merge_writes`]) through a swap buffer it keeps,
//! and hands back its own `changed` list — so a steady-state superstep
//! allocates nothing here (DESIGN.md §16.3).

use graphite_tgraph::iset::IntervalPartition;
use graphite_tgraph::time::Interval;

/// The state writes of one vertex in one superstep, and the worker-owned
/// buffers that apply them (DESIGN.md §16.3).
///
/// One instance lives in each worker and is reused for every vertex:
/// [`apply`](Self::apply) leaves it empty again, and none of its buffers
/// ever shrinks, so steady-state supersteps allocate nothing here.
///
/// `writes` is kept sorted and disjoint as it fills. Warp tuples are
/// disjoint and arrive in temporal order, so writes from different
/// `compute` calls append in order; only a later `set_state` of the same
/// call that overlaps or precedes an earlier one takes the slow path, a
/// later-wins overwrite of just the writes it touches (matching repeated
/// `setState`).
#[derive(Debug)]
pub struct StateUpdates<S> {
    /// Pending writes: sorted, disjoint, later-wins already resolved.
    writes: Vec<(Interval, S)>,
    /// Raw `set_state` writes recorded since the last apply.
    raw: usize,
    /// Swap buffer for [`IntervalPartition::merge_writes`].
    swap: Vec<(Interval, S)>,
    /// The last apply's changed sub-intervals.
    changed: Vec<(Interval, S)>,
}

impl<S> Default for StateUpdates<S> {
    fn default() -> Self {
        StateUpdates {
            writes: Vec::new(),
            raw: 0,
            swap: Vec::new(),
            changed: Vec::new(),
        }
    }
}

impl<S> StateUpdates<S> {
    /// An empty set of updates.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when compute made no writes since the last apply.
    pub fn is_empty(&self) -> bool {
        self.raw == 0
    }

    /// Number of raw writes since the last apply.
    pub fn len(&self) -> usize {
        self.raw
    }
}

impl<S: Clone> StateUpdates<S> {
    /// Records a write (already clipped by the compute context); later
    /// writes win where they overlap earlier ones.
    pub fn push(&mut self, interval: Interval, state: S) {
        self.raw += 1;
        match self.writes.last() {
            Some((last, _)) if last.end() > interval.start() => {
                overwrite(&mut self.writes, interval, state);
            }
            _ => self.writes.push((interval, state)),
        }
    }
}

impl<S: Clone + PartialEq> StateUpdates<S> {
    /// Applies the pending writes to `partition` in one merge pass and
    /// returns the *changed* sub-intervals with their new values —
    /// temporally sorted, overlap-resolved (later writes win), with
    /// adjacent equal-valued pieces joined, and filtered to writes that
    /// actually changed the stored value. The updates are empty again
    /// afterwards.
    ///
    /// Filtering no-op writes keeps scatter from firing when `compute`
    /// re-stores an unchanged value, matching the paper's "any state update
    /// causes scatter to be called" (a value-identical store is not an
    /// update). A value-equal write never splits an entry, and the
    /// partition is coalesced only when there was more than one write or
    /// something changed — so a write-free or no-op vertex keeps its
    /// entries exactly, prepartition splits included.
    pub fn apply(&mut self, partition: &mut IntervalPartition<S>) -> &[(Interval, S)] {
        let StateUpdates {
            writes,
            raw,
            swap,
            changed,
        } = self;
        changed.clear();
        if *raw == 0 {
            return changed;
        }
        partition.merge_writes(writes, swap, |piece, value| match changed.last_mut() {
            Some((last, lv)) if last.meets(piece) && *lv == *value => {
                *last = last.span(piece);
            }
            _ => changed.push((piece, value.clone())),
        });
        if *raw > 1 || !changed.is_empty() {
            partition.coalesce();
        }
        writes.clear();
        *raw = 0;
        changed
    }
}

/// Later-wins insert of `(interval, state)` into the sorted, disjoint
/// `writes`: the writes it overlaps are trimmed (or dropped when covered)
/// and it takes their place, so the list stays sorted and disjoint.
fn overwrite<S: Clone>(writes: &mut Vec<(Interval, S)>, interval: Interval, state: S) {
    let from = writes.partition_point(|(w, _)| w.end() <= interval.start());
    let to = writes.partition_point(|(w, _)| w.start() < interval.end());
    if from == to {
        writes.insert(from, (interval, state));
        return;
    }
    let (first, first_state) = &writes[from];
    let left = (first.start() < interval.start()).then(|| {
        (
            Interval::new(first.start(), interval.start()),
            first_state.clone(),
        )
    });
    let (last, last_state) = &writes[to - 1];
    let right = (last.end() > interval.end()).then(|| {
        (
            Interval::new(interval.end(), last.end()),
            last_state.clone(),
        )
    });
    writes.splice(
        from..to,
        left.into_iter()
            .chain(std::iter::once((interval, state)))
            .chain(right),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition() -> IntervalPartition<i64> {
        IntervalPartition::new(Interval::new(0, 10), 100)
    }

    #[test]
    fn apply_writes_and_reports_changes() {
        let mut p = partition();
        let mut u = StateUpdates::new();
        u.push(Interval::new(2, 5), 7);
        u.push(Interval::new(7, 9), 3);
        let changed = u.apply(&mut p).to_vec();
        assert_eq!(
            changed,
            vec![(Interval::new(2, 5), 7), (Interval::new(7, 9), 3)]
        );
        assert_eq!(p.value_at(3), Some(&7));
        assert_eq!(p.value_at(8), Some(&3));
        assert_eq!(p.value_at(6), Some(&100));
    }

    #[test]
    fn no_op_writes_are_filtered() {
        let mut p = partition();
        let mut u = StateUpdates::new();
        u.push(Interval::new(2, 5), 100); // same as stored
        let changed = u.apply(&mut p).to_vec();
        assert!(changed.is_empty());
        assert_eq!(p.len(), 1, "partition not fragmented by no-op writes");
    }

    #[test]
    fn partial_no_op_reports_only_the_difference() {
        let mut p = partition();
        p.set(Interval::new(0, 4), 7);
        let mut u = StateUpdates::new();
        u.push(Interval::new(2, 8), 7); // [2,4) already 7; [4,8) changes
        let changed = u.apply(&mut p).to_vec();
        assert_eq!(changed, vec![(Interval::new(4, 8), 7)]);
    }

    #[test]
    fn adjacent_equal_changes_coalesce() {
        let mut p = partition();
        let mut u = StateUpdates::new();
        u.push(Interval::new(2, 5), 9);
        u.push(Interval::new(5, 8), 9);
        let changed = u.apply(&mut p).to_vec();
        assert_eq!(changed, vec![(Interval::new(2, 8), 9)]);
        // Partition coalesced too.
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn later_writes_win_on_overlap() {
        let mut p = partition();
        let mut u = StateUpdates::new();
        u.push(Interval::new(2, 6), 5);
        u.push(Interval::new(4, 8), 9);
        let changed = u.apply(&mut p).to_vec();
        // Final stored values: [2,4)=5, [4,8)=9.
        assert_eq!(p.value_at(3), Some(&5));
        assert_eq!(p.value_at(5), Some(&9));
        assert_eq!(p.value_at(7), Some(&9));
        // Changed cover reflects the final values without duplicates.
        let mut total = 0;
        for (iv, v) in &changed {
            total += iv.len();
            for t in iv.points() {
                assert_eq!(p.value_at(t), Some(v), "at {t}");
            }
        }
        assert_eq!(total, 6);
    }

    #[test]
    fn empty_updates_do_nothing() {
        let mut p = partition();
        let mut u: StateUpdates<i64> = StateUpdates::new();
        assert!(u.apply(&mut p).is_empty());
        assert_eq!(p.len(), 1);
    }
}
