//! Interval-keyed collections.
//!
//! Two flavours back the whole system:
//!
//! * [`IntervalMap`] — a set of *non-overlapping* interval→value entries that
//!   may have gaps. Property timelines (Sec. III, `AV`/`AE`) are interval
//!   maps: a label may have distinct values for non-overlapping intervals.
//! * [`IntervalPartition`] — a *contiguous cover* of a fixed lifespan by
//!   non-overlapping interval→value entries. Dynamically partitioned vertex
//!   states (Sec. IV-A1) are interval partitions: the partitioned intervals
//!   cover the entire lifespan of the vertex and no two overlap, and are
//!   split on demand when a sub-interval is updated.

use crate::time::{Interval, Time};
use std::fmt;

/// Error returned when inserting an entry that overlaps an existing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlapError {
    /// The interval of the rejected insertion.
    pub inserted: Interval,
    /// The existing interval it collides with.
    pub existing: Interval,
}

impl fmt::Display for OverlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interval {} overlaps existing entry {}",
            self.inserted, self.existing
        )
    }
}

impl std::error::Error for OverlapError {}

/// A sorted collection of non-overlapping `(Interval, V)` entries, possibly
/// with gaps between them.
///
/// ```
/// use graphite_tgraph::{iset::IntervalMap, time::Interval};
/// let mut m = IntervalMap::new();
/// m.insert(Interval::new(3, 5), 4).unwrap();
/// m.insert(Interval::new(5, 6), 3).unwrap();
/// assert_eq!(m.value_at(4), Some(&4));
/// assert_eq!(m.value_at(6), None);
/// assert!(m.insert(Interval::new(4, 7), 9).is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalMap<V> {
    entries: Vec<(Interval, V)>,
}

impl<V> Default for IntervalMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IntervalMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        IntervalMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the first entry whose end is after `t` (candidate container
    /// of `t`), via binary search on the sorted entries.
    fn lower_bound(&self, t: Time) -> usize {
        self.entries.partition_point(|(iv, _)| iv.end() <= t)
    }

    /// Inserts `(interval, value)`, rejecting any overlap with an existing
    /// entry. Adjacent (meeting) entries are allowed and are *not* merged:
    /// the map preserves the caller's segmentation.
    pub fn insert(&mut self, interval: Interval, value: V) -> Result<(), OverlapError> {
        let idx = self.lower_bound(interval.start());
        if let Some((existing, _)) = self.entries.get(idx) {
            if existing.intersects(interval) {
                return Err(OverlapError {
                    inserted: interval,
                    existing: *existing,
                });
            }
        }
        self.entries.insert(idx, (interval, value));
        Ok(())
    }

    /// The value at time-point `t`, if covered.
    pub fn value_at(&self, t: Time) -> Option<&V> {
        let idx = self.lower_bound(t);
        match self.entries.get(idx) {
            Some((iv, v)) if iv.contains_point(t) => Some(v),
            _ => None,
        }
    }

    /// The full entry covering time-point `t`, if any.
    pub fn entry_at(&self, t: Time) -> Option<(Interval, &V)> {
        let idx = self.lower_bound(t);
        match self.entries.get(idx) {
            Some((iv, v)) if iv.contains_point(t) => Some((*iv, v)),
            _ => None,
        }
    }

    /// Iterates entries in temporal order.
    pub fn iter(&self) -> impl Iterator<Item = (Interval, &V)> + '_ {
        self.entries.iter().map(|(iv, v)| (*iv, v))
    }

    /// Iterates the entries intersecting `window`, in temporal order. The
    /// yielded intervals are the raw entry intervals (not clipped).
    pub fn overlapping(&self, window: Interval) -> impl Iterator<Item = (Interval, &V)> + '_ {
        let from = self.lower_bound(window.start());
        self.entries[from..]
            .iter()
            .take_while(move |(iv, _)| iv.start() < window.end())
            .map(|(iv, v)| (*iv, v))
    }

    /// Moves the end of the right-most entry to `new_end`, which the
    /// caller has checked lies past its current end — nothing sits to its
    /// right, so the map stays sorted and overlap-free.
    pub(crate) fn extend_last(&mut self, new_end: Time) {
        if let Some((iv, _)) = self.entries.last_mut() {
            *iv = Interval::new(iv.start(), new_end);
        }
    }

    /// Builds a map from arbitrary-order entries, failing on overlap.
    pub fn from_entries(mut entries: Vec<(Interval, V)>) -> Result<Self, OverlapError> {
        entries.sort_by_key(|(iv, _)| (iv.start(), iv.end()));
        for w in entries.windows(2) {
            if w[0].0.intersects(w[1].0) {
                return Err(OverlapError {
                    inserted: w[1].0,
                    existing: w[0].0,
                });
            }
        }
        Ok(IntervalMap { entries })
    }
}

/// A contiguous, non-overlapping cover of a fixed `lifespan` by
/// `(Interval, V)` entries — the representation of a dynamically partitioned
/// vertex state (Sec. IV-A1).
///
/// Invariants (checked in debug builds):
/// * the first entry starts at `lifespan.start()` and the last ends at
///   `lifespan.end()`;
/// * consecutive entries meet exactly (`e[i].end == e[i+1].start`).
///
/// ```
/// use graphite_tgraph::{iset::IntervalPartition, time::Interval};
/// let mut p = IntervalPartition::new(Interval::new(0, 10), 0u32);
/// p.set(Interval::new(4, 6), 7);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.value_at(5), Some(&7));
/// assert_eq!(p.value_at(6), Some(&0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalPartition<V> {
    lifespan: Interval,
    entries: Vec<(Interval, V)>,
}

impl<V: Clone> IntervalPartition<V> {
    /// A single-entry partition covering the whole lifespan — the initial
    /// state of every ICM vertex.
    pub fn new(lifespan: Interval, value: V) -> Self {
        IntervalPartition {
            lifespan,
            entries: vec![(lifespan, value)],
        }
    }

    /// Builds a partition from pre-segmented entries, or `None` when the
    /// entries do not exactly tile `lifespan` (none at all, a gap, an
    /// overlap, or a first or last entry off the lifespan's ends).
    pub fn from_entries(lifespan: Interval, entries: Vec<(Interval, V)>) -> Option<Self> {
        let p = IntervalPartition { lifespan, entries };
        p.tiles().then_some(p)
    }

    /// Whether the entries exactly tile the lifespan.
    fn tiles(&self) -> bool {
        match (self.entries.first(), self.entries.last()) {
            (Some((first, _)), Some((last, _))) => {
                first.start() == self.lifespan.start()
                    && last.end() == self.lifespan.end()
                    && self.entries.windows(2).all(|w| w[0].0.meets(w[1].0))
            }
            _ => false,
        }
    }

    /// The covered lifespan.
    pub fn lifespan(&self) -> Interval {
        self.lifespan
    }

    /// Number of partitioned intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A partition always has at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn index_of(&self, t: Time) -> Option<usize> {
        if !self.lifespan.contains_point(t) {
            return None;
        }
        let idx = self.entries.partition_point(|(iv, _)| iv.end() <= t);
        debug_assert!(self.entries[idx].0.contains_point(t));
        Some(idx)
    }

    /// The value at time-point `t` (`None` outside the lifespan).
    pub fn value_at(&self, t: Time) -> Option<&V> {
        self.index_of(t).map(|i| &self.entries[i].1)
    }

    /// The entry covering time-point `t`, if inside the lifespan.
    pub fn entry_at(&self, t: Time) -> Option<(Interval, &V)> {
        self.index_of(t)
            .map(|i| (self.entries[i].0, &self.entries[i].1))
    }

    /// Iterates the partitioned entries in temporal order.
    pub fn iter(&self) -> impl Iterator<Item = (Interval, &V)> + '_ {
        self.entries.iter().map(|(iv, v)| (*iv, v))
    }

    /// The partitioned entries in temporal order, indexable — entry `i`
    /// is the `i`-th interval [`iter`](Self::iter) yields.
    pub fn entries(&self) -> &[(Interval, V)] {
        &self.entries
    }

    /// Iterates the entries intersecting `window`, clipped to it.
    pub fn overlapping(&self, window: Interval) -> impl Iterator<Item = (Interval, &V)> + '_ {
        let from = self
            .entries
            .partition_point(|(iv, _)| iv.end() <= window.start());
        self.entries[from..]
            .iter()
            .take_while(move |(iv, _)| iv.start() < window.end())
            .filter_map(move |(iv, v)| iv.intersect(window).map(|clipped| (clipped, v)))
    }

    /// Splits the partition at `t` (if `t` is interior to an entry), leaving
    /// values unchanged. Splitting while replicating state values is always
    /// valid (Sec. IV-A1).
    pub fn split_at(&mut self, t: Time) {
        let Some(idx) = self.index_of(t) else { return };
        let (iv, _) = self.entries[idx];
        if iv.start() == t {
            return;
        }
        let v = self.entries[idx].1.clone();
        self.entries[idx].0 = Interval::new(iv.start(), t);
        self.entries
            .insert(idx + 1, (Interval::new(t, iv.end()), v));
    }

    /// Overwrites the value over `interval ∩ lifespan`, dynamically
    /// repartitioning: entries partially covered by `interval` are split so
    /// the write affects exactly the requested sub-interval. A no-op when
    /// the interval misses the lifespan entirely.
    pub fn set(&mut self, interval: Interval, value: V) {
        let Some(clipped) = interval.intersect(self.lifespan) else {
            return;
        };
        self.split_at(clipped.start());
        self.split_at(clipped.end());
        let from = self
            .entries
            .partition_point(|(iv, _)| iv.end() <= clipped.start());
        let to = self
            .entries
            .partition_point(|(iv, _)| iv.start() < clipped.end());
        debug_assert!(from < to);
        // Replace the run [from, to) with a single entry holding `value`.
        self.entries[from] = (clipped, value);
        self.entries.drain(from + 1..to);
    }

    /// Consumes the partition, returning its entries.
    pub fn into_entries(self) -> Vec<(Interval, V)> {
        self.entries
    }
}

impl<V: Clone + PartialEq> IntervalPartition<V> {
    /// Merges consecutive entries with equal values, in place. Keeps
    /// results maximal and bounds partition growth across supersteps.
    pub fn coalesce(&mut self) {
        self.entries.dedup_by(|(iv, v), (last_iv, last_v)| {
            let merge = *last_v == *v;
            if merge {
                *last_iv = last_iv.span(*iv);
            }
            merge
        });
    }

    /// Overwrites the partition with `writes` in one merge pass — the ICM
    /// engine's state apply (Sec. IV-A1's dynamic repartitioning, for a
    /// whole superstep's writes at once).
    ///
    /// `writes` must be sorted and disjoint (gaps allowed); parts outside
    /// the lifespan are ignored. An entry is split only where a write
    /// actually changes its value: a value-equal write leaves the entry
    /// whole. Every changed piece — an entry clipped to a write, carrying
    /// the write's value — is reported to `changed` in temporal order.
    ///
    /// The pass moves the entries into `swap` and then swaps the two
    /// vectors, so `swap` comes back empty holding the old allocation: a
    /// caller that keeps one `swap` per worker repartitions every vertex
    /// without allocating once capacities have settled. Does not
    /// coalesce.
    pub fn merge_writes(
        &mut self,
        writes: &[(Interval, V)],
        swap: &mut Vec<(Interval, V)>,
        mut changed: impl FnMut(Interval, &V),
    ) {
        debug_assert!(
            writes.windows(2).all(|w| w[0].0.end() <= w[1].0.start()),
            "writes must be sorted and disjoint"
        );
        swap.clear();
        let mut next = 0; // first write that may reach the current entry
        for (iv, old) in self.entries.drain(..) {
            while next < writes.len() && writes[next].0.end() <= iv.start() {
                next += 1;
            }
            // `rest` is where the not-yet-emitted tail of the entry, still
            // holding `old`, begins.
            let mut rest = iv.start();
            for (wiv, new) in writes[next..]
                .iter()
                .take_while(|(wiv, _)| wiv.start() < iv.end())
            {
                if old == *new {
                    continue;
                }
                let lo = wiv.start().max(iv.start());
                let hi = wiv.end().min(iv.end());
                if rest < lo {
                    swap.push((Interval::new(rest, lo), old.clone()));
                }
                let piece = Interval::new(lo, hi);
                changed(piece, new);
                swap.push((piece, new.clone()));
                rest = hi;
            }
            if rest == iv.start() {
                swap.push((iv, old));
            } else if rest < iv.end() {
                swap.push((Interval::new(rest, iv.end()), old));
            }
        }
        std::mem::swap(&mut self.entries, swap);
        debug_assert!(self.tiles(), "partition entries must tile the lifespan");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod interval_map {
        use super::*;

        #[test]
        fn insert_and_lookup() {
            let mut m = IntervalMap::new();
            m.insert(Interval::new(5, 8), "b").unwrap();
            m.insert(Interval::new(0, 3), "a").unwrap();
            m.insert(Interval::new(8, 9), "c").unwrap();
            assert_eq!(m.len(), 3);
            assert_eq!(m.value_at(0), Some(&"a"));
            assert_eq!(m.value_at(2), Some(&"a"));
            assert_eq!(m.value_at(3), None); // gap
            assert_eq!(m.value_at(4), None);
            assert_eq!(m.value_at(5), Some(&"b"));
            assert_eq!(m.value_at(8), Some(&"c"));
            assert_eq!(m.value_at(9), None);
            assert_eq!(m.entry_at(6), Some((Interval::new(5, 8), &"b")));
        }

        #[test]
        fn overlap_rejected() {
            let mut m = IntervalMap::new();
            m.insert(Interval::new(2, 6), 1).unwrap();
            let err = m.insert(Interval::new(5, 9), 2).unwrap_err();
            assert_eq!(err.existing, Interval::new(2, 6));
            // Meeting is fine.
            m.insert(Interval::new(6, 9), 2).unwrap();
            // Overlap from the left is also rejected.
            assert!(m.insert(Interval::new(0, 3), 3).is_err());
            assert!(m.insert(Interval::new(0, 2), 3).is_ok());
        }

        #[test]
        fn overlapping_iteration() {
            let mut m = IntervalMap::new();
            for (s, e, v) in [(0, 2, 'a'), (3, 5, 'b'), (5, 9, 'c'), (12, 20, 'd')] {
                m.insert(Interval::new(s, e), v).unwrap();
            }
            let hits: Vec<_> = m.overlapping(Interval::new(4, 13)).collect();
            assert_eq!(
                hits,
                vec![
                    (Interval::new(3, 5), &'b'),
                    (Interval::new(5, 9), &'c'),
                    (Interval::new(12, 20), &'d'),
                ]
            );
            assert_eq!(m.overlapping(Interval::new(9, 12)).count(), 0);
        }

        #[test]
        fn from_entries_validates() {
            let ok =
                IntervalMap::from_entries(vec![(Interval::new(5, 9), 1), (Interval::new(0, 5), 2)])
                    .unwrap();
            assert_eq!(ok.value_at(5), Some(&1));
            let bad =
                IntervalMap::from_entries(vec![(Interval::new(0, 6), 1), (Interval::new(5, 9), 2)]);
            assert!(bad.is_err());
        }
    }

    mod interval_partition {
        use super::*;

        #[test]
        fn initial_single_cover() {
            let p = IntervalPartition::new(Interval::new(0, 10), 42);
            assert_eq!(p.len(), 1);
            assert_eq!(p.value_at(0), Some(&42));
            assert_eq!(p.value_at(9), Some(&42));
            assert_eq!(p.value_at(10), None);
            assert_eq!(p.value_at(-1), None);
        }

        #[test]
        fn set_repartitions_interior() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.set(Interval::new(4, 6), 7);
            let entries: Vec<_> = p.iter().map(|(iv, v)| (iv, *v)).collect();
            assert_eq!(
                entries,
                vec![
                    (Interval::new(0, 4), 0),
                    (Interval::new(4, 6), 7),
                    (Interval::new(6, 10), 0),
                ]
            );
        }

        #[test]
        fn set_prefix_matches_paper_rule() {
            // Sec. IV-A1: updating the initial sub-interval [ts, te') of
            // <[ts,te), s> replaces it with <[ts,te'), s'> and <[te',te), s>.
            let mut p = IntervalPartition::new(Interval::new(3, 9), 'a');
            p.set(Interval::new(3, 5), 'b');
            let entries: Vec<_> = p.iter().map(|(iv, v)| (iv, *v)).collect();
            assert_eq!(
                entries,
                vec![(Interval::new(3, 5), 'b'), (Interval::new(5, 9), 'a')]
            );
        }

        #[test]
        fn set_clamps_to_lifespan() {
            let mut p = IntervalPartition::new(Interval::new(2, 8), 0);
            p.set(Interval::new(-5, 4), 1);
            p.set(Interval::new(6, 100), 2);
            let entries: Vec<_> = p.iter().map(|(iv, v)| (iv, *v)).collect();
            assert_eq!(
                entries,
                vec![
                    (Interval::new(2, 4), 1),
                    (Interval::new(4, 6), 0),
                    (Interval::new(6, 8), 2),
                ]
            );
            // Entirely outside: no-op.
            p.set(Interval::new(100, 200), 9);
            assert_eq!(p.len(), 3);
        }

        #[test]
        fn set_spanning_multiple_entries_collapses_them() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.set(Interval::new(2, 4), 1);
            p.set(Interval::new(6, 8), 2);
            assert_eq!(p.len(), 5);
            p.set(Interval::new(1, 9), 3);
            let entries: Vec<_> = p.iter().map(|(iv, v)| (iv, *v)).collect();
            assert_eq!(
                entries,
                vec![
                    (Interval::new(0, 1), 0),
                    (Interval::new(1, 9), 3),
                    (Interval::new(9, 10), 0),
                ]
            );
        }

        #[test]
        fn set_whole_lifespan() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.set(Interval::new(3, 7), 5);
            p.set(Interval::all(), 9);
            assert_eq!(p.len(), 1);
            assert_eq!(p.value_at(5), Some(&9));
        }

        #[test]
        fn split_at_noops_on_boundary_and_outside() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.split_at(0);
            p.split_at(10);
            p.split_at(-3);
            assert_eq!(p.len(), 1);
            p.split_at(4);
            assert_eq!(p.len(), 2);
            p.split_at(4);
            assert_eq!(p.len(), 2);
        }

        #[test]
        fn overlapping_clips() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.set(Interval::new(4, 6), 7);
            let hits: Vec<_> = p
                .overlapping(Interval::new(5, 8))
                .map(|(iv, v)| (iv, *v))
                .collect();
            assert_eq!(
                hits,
                vec![(Interval::new(5, 6), 7), (Interval::new(6, 8), 0)]
            );
        }

        #[test]
        fn merge_writes_splits_only_where_values_change() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.split_at(6);
            let writes = [
                (Interval::new(-3, 1), 0), // value-equal: no split
                (Interval::new(2, 4), 5),
                (Interval::new(5, 8), 7), // crosses the split at 6
                (Interval::new(9, 20), 0),
            ];
            let mut swap = Vec::new();
            let mut changed = Vec::new();
            p.merge_writes(&writes, &mut swap, |iv, v| changed.push((iv, *v)));
            assert_eq!(
                changed,
                vec![
                    (Interval::new(2, 4), 5),
                    (Interval::new(5, 6), 7),
                    (Interval::new(6, 8), 7),
                ]
            );
            assert_eq!(
                p.into_entries(),
                vec![
                    (Interval::new(0, 2), 0),
                    (Interval::new(2, 4), 5),
                    (Interval::new(4, 5), 0),
                    (Interval::new(5, 6), 7),
                    (Interval::new(6, 8), 7),
                    (Interval::new(8, 10), 0),
                ]
            );
            assert!(swap.is_empty(), "swap comes back empty");
        }

        #[test]
        fn coalesce_restores_maximality() {
            let mut p = IntervalPartition::new(Interval::new(0, 10), 0);
            p.set(Interval::new(2, 5), 0); // same value: creates splits
            assert!(p.len() > 1);
            p.coalesce();
            assert_eq!(p.len(), 1);
        }

        #[test]
        fn unbounded_lifespan() {
            let mut p = IntervalPartition::new(Interval::all(), u64::MAX);
            p.set(Interval::from_start(9), 5);
            assert_eq!(p.value_at(8), Some(&u64::MAX));
            assert_eq!(p.value_at(1_000_000), Some(&5));
            assert_eq!(p.len(), 2);
        }

        #[test]
        fn from_entries_rejects_gaps() {
            let gap = IntervalPartition::from_entries(
                Interval::new(0, 10),
                vec![(Interval::new(0, 4), 1), (Interval::new(5, 10), 2)],
            );
            assert_eq!(gap, None);
        }
    }
}
