//! The one-pass merge state apply against the apply it replaced.
//!
//! `oracle_apply` below is the previous `StateUpdates::apply`, kept
//! verbatim (with the allocating coalesce it called): it resolved
//! overlapping writes onto a scratch partition, then diffed and `set` each
//! resolved piece into the vertex partition. Over thousands of seeded
//! cases the merge apply must leave the partition with the same entries,
//! field for field — the split structure is the outer set the next warp
//! sees, so any difference moves `compute_calls` — and report the same
//! changed list, which drives scatter.
//!
//! One `StateUpdates` serves every case, as one serves every vertex of a
//! worker, so a buffer that is not cleared between vertices shows up too.
//! A coverage tally proves the generator reached the cases that matter.

use graphite_icm::state::StateUpdates;
use graphite_tgraph::iset::IntervalPartition;
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::{Interval, TIME_MAX, TIME_MIN};

const CASES: usize = 4096;

/// The previous partition coalesce: rebuild the entries into a fresh
/// vector, merging consecutive equal values.
fn oracle_coalesce<S: Clone + PartialEq>(partition: &mut IntervalPartition<S>) {
    let lifespan = partition.lifespan();
    let mut out: Vec<(Interval, S)> = Vec::new();
    for (iv, v) in partition.clone().into_entries() {
        match out.last_mut() {
            Some((last_iv, last_v)) if *last_v == v => {
                *last_iv = last_iv.span(iv);
            }
            _ => out.push((iv, v)),
        }
    }
    *partition =
        IntervalPartition::from_entries(lifespan, out).expect("coalescing keeps the tiling");
}

/// The previous `StateUpdates::apply`, verbatim but for taking the write
/// list as an argument.
fn oracle_apply<S: Clone + PartialEq>(
    mut writes: Vec<(Interval, S)>,
    partition: &mut IntervalPartition<S>,
) -> Vec<(Interval, S)> {
    if writes.is_empty() {
        return Vec::new();
    }
    if writes.len() == 1 {
        let Some((iv, value)) = writes.pop() else {
            return Vec::new();
        };
        let diffs: Vec<Interval> = partition
            .overlapping(iv)
            .filter(|(_, old)| *old != &value)
            .map(|(piece, _)| piece)
            .collect();
        let mut changed: Vec<(Interval, S)> = Vec::new();
        for piece in diffs {
            partition.set(piece, value.clone());
            match changed.last_mut() {
                Some((last, lv)) if last.meets(piece) && *lv == value => {
                    *last = last.span(piece);
                }
                _ => changed.push((piece, value.clone())),
            }
        }
        if !changed.is_empty() {
            oracle_coalesce(partition);
        }
        return changed;
    }
    let Some(span) = writes.iter().map(|(iv, _)| *iv).reduce(|a, b| a.span(b)) else {
        return Vec::new();
    };
    let mut resolved: IntervalPartition<Option<S>> = IntervalPartition::new(span, None);
    for (iv, v) in writes {
        resolved.set(iv, Some(v));
    }
    let mut changed: Vec<(Interval, S)> = Vec::new();
    for (iv, value) in resolved
        .iter()
        .filter_map(|(iv, v)| v.as_ref().map(|v| (iv, v)))
    {
        let diffs: Vec<Interval> = partition
            .overlapping(iv)
            .filter(|(_, old)| *old != value)
            .map(|(piece, _)| piece)
            .collect();
        for piece in diffs {
            partition.set(piece, value.clone());
            match changed.last_mut() {
                Some((last, lv)) if last.meets(piece) && *lv == *value => {
                    *last = last.span(piece);
                }
                _ => changed.push((piece, value.clone())),
            }
        }
    }
    oracle_coalesce(partition);
    changed
}

/// Bounded lifespans inside `[-8, 28)`, or reaching `TIME_MIN`/`TIME_MAX`.
fn rand_lifespan(rng: &mut SplitMix64) -> Interval {
    match rng.index(8) {
        0 => Interval::until(rng.range_i64(-4, 20)),
        1 => Interval::from_start(rng.range_i64(-4, 20)),
        2 => Interval::all(),
        _ => {
            let start = rng.range_i64(-8, 8);
            Interval::new(start, start + 1 + rng.index(20) as i64)
        }
    }
}

/// A prepartitioned, partly written partition: splits that leave equal
/// neighbours (what step-1 prepartitioning produces) and a few earlier
/// writes, over values from a small alphabet so equal values are common.
fn rand_partition(rng: &mut SplitMix64, lifespan: Interval) -> IntervalPartition<i64> {
    let mut p = IntervalPartition::new(lifespan, rng.range_i64(0, 3));
    for _ in 0..rng.index(5) {
        p.split_at(rng.range_i64(-10, 30));
    }
    for _ in 0..rng.index(3) {
        let start = rng.range_i64(-10, 29);
        let iv = Interval::new(start, start + 1 + rng.index(8) as i64);
        p.set(iv, rng.range_i64(0, 3));
    }
    p
}

/// Up to six writes inside the lifespan, in any order: overlapping ones
/// (repeated `set_state` in one call), ones meeting an earlier write with
/// its value, and unbounded ones clipped to the lifespan.
fn rand_writes(rng: &mut SplitMix64, lifespan: Interval) -> Vec<(Interval, i64)> {
    let mut writes: Vec<(Interval, i64)> = Vec::new();
    for _ in 0..rng.index(7) {
        let candidate = match rng.index(6) {
            0 => Interval::until(rng.range_i64(-8, 30)),
            1 => Interval::from_start(rng.range_i64(-10, 28)),
            2 if !writes.is_empty() => {
                let (prev, value) = writes[rng.index(writes.len())];
                if prev.end() < 28 {
                    let iv = Interval::new(prev.end(), prev.end() + 1 + rng.index(5) as i64);
                    if let Some(iv) = iv.intersect(lifespan) {
                        writes.push((iv, value));
                    }
                }
                continue;
            }
            _ => {
                let start = rng.range_i64(-10, 28);
                Interval::new(start, start + 1 + rng.index(10) as i64)
            }
        };
        if let Some(iv) = candidate.intersect(lifespan) {
            writes.push((iv, rng.range_i64(0, 3)));
        }
    }
    writes
}

#[derive(Debug, Default)]
struct Tally {
    uncoalesced_prepartition: usize,
    value_equal_write: usize,
    overlapping_writes: usize,
    adjacent_equal_writes: usize,
    unbounded_lifespan: usize,
    zero_writes: usize,
    single_noop_write: usize,
}

impl Tally {
    fn count(&mut self, before: &IntervalPartition<i64>, writes: &[(Interval, i64)]) {
        let lifespan = before.lifespan();
        let entries = before.entries();
        self.uncoalesced_prepartition += usize::from(entries.windows(2).any(|w| w[0].1 == w[1].1));
        self.value_equal_write += usize::from(
            writes
                .iter()
                .any(|(iv, v)| before.overlapping(*iv).any(|(_, old)| old == v)),
        );
        let pairs = || {
            writes
                .iter()
                .enumerate()
                .flat_map(|(i, a)| writes[i + 1..].iter().map(move |b| (a, b)))
        };
        self.overlapping_writes += usize::from(pairs().any(|(a, b)| a.0.intersects(b.0)));
        self.adjacent_equal_writes +=
            usize::from(pairs().any(|(a, b)| a.1 == b.1 && (a.0.meets(b.0) || b.0.meets(a.0))));
        self.unbounded_lifespan +=
            usize::from(lifespan.start() == TIME_MIN || lifespan.end() == TIME_MAX);
        self.zero_writes += usize::from(writes.is_empty());
        self.single_noop_write += usize::from(
            writes.len() == 1
                && before
                    .overlapping(writes[0].0)
                    .all(|(_, old)| *old == writes[0].1),
        );
    }

    fn assert_covered(&self) {
        let counts = [
            ("uncoalesced prepartition", self.uncoalesced_prepartition),
            ("value-equal write", self.value_equal_write),
            ("overlapping writes in one call", self.overlapping_writes),
            ("adjacent equal writes", self.adjacent_equal_writes),
            ("TIME_MIN/TIME_MAX lifespan", self.unbounded_lifespan),
            ("zero writes", self.zero_writes),
            ("single no-op write", self.single_noop_write),
        ];
        for (what, n) in counts {
            assert!(n >= 32, "only {n} cases with {what}: {self:?}");
        }
    }
}

#[test]
fn merge_apply_matches_the_previous_apply() {
    let mut rng = SplitMix64::new(0x5354_4154_4531);
    let mut updates: StateUpdates<i64> = StateUpdates::new();
    let mut tally = Tally::default();
    for case in 0..CASES {
        let lifespan = rand_lifespan(&mut rng);
        let before = rand_partition(&mut rng, lifespan);
        let writes = rand_writes(&mut rng, lifespan);
        tally.count(&before, &writes);

        let mut expected = before.clone();
        let expected_changed = oracle_apply(writes.clone(), &mut expected);

        let mut got = before.clone();
        for (iv, v) in &writes {
            updates.push(*iv, *v);
        }
        assert_eq!(updates.len(), writes.len());
        let changed = updates.apply(&mut got).to_vec();
        assert!(updates.is_empty(), "case {case}: apply left writes behind");

        let ctx = format!(
            "case {case}: before={:?} writes={writes:?}",
            before.entries()
        );
        assert_eq!(got.entries(), expected.entries(), "{ctx}: entries differ");
        assert_eq!(changed, expected_changed, "{ctx}: changed lists differ");
    }
    tally.assert_covered();
}
