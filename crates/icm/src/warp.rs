//! The time-join and time-warp operators (Sec. IV-B) — the paper's core
//! data transformation.
//!
//! *Time-join* (`⋈̃`) pairs every outer entry with every inner entry whose
//! interval intersects it, keyed by the intersection. *Time-warp* (`⋈`) is
//! a temporal self-join over the time-join: it detects the boundary
//! time-points of the intersections, partitions time at those boundaries,
//! and groups — for each (sub-interval, outer value) — all inner values
//! alive throughout that sub-interval. Warp output drives the engine: each
//! tuple is exactly one call to the user's `compute`.
//!
//! Guaranteed properties (Sec. IV-B, tested here and by proptest in
//! `tests/warp_props.rs`):
//!
//! 1. **Valid inclusion** — every overlapping (outer, inner) value pair
//!    appears in the output at every shared time-point.
//! 2. **No invalid inclusion** — output tuples only contain values that
//!    exist at the tuple's interval in their respective sets.
//! 3. **No duplication** — an outer value appears in at most one tuple per
//!    time-point.
//! 4. **Maximal** — no two output tuples with the same outer entry and the
//!    same inner group are adjacent or overlapping.
//!
//! The implementation is a merge-based kernel: the outer set arrives
//! already sorted and non-overlapping (it is a state partition), so only
//! the inner endpoints need sorting — two `O(m log m)` event sorts — and
//! the sweep merges three ordered streams (inner starts, inner ends, the
//! outer partitioning) without ever materializing a combined boundary
//! vector. That is the moral equivalent of the merge phase of the
//! merge-sort temporal aggregation the paper adopts from Moon et al.,
//! minus the sort of the already-sorted side. All working storage lives
//! in a caller-provided [`WarpScratch`] arena, so the engine's
//! per-vertex-per-superstep warps allocate nothing in steady state: the
//! tuples are plain values whose inner groups are ranges into one shared
//! `members` arena ([`WarpScratch::group`]), not a vector each.

use graphite_tgraph::time::{Interval, Time};
use std::ops::Range;

/// One pair from the time-join: the intersection interval and the indices
/// of the participating outer and inner entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinTuple {
    /// `τ_outer ∩ τ_inner`.
    pub interval: Interval,
    /// Index into the outer set.
    pub outer: usize,
    /// Index into the inner set.
    pub inner: usize,
}

/// One group from the time-warp: a sub-interval, the single outer entry
/// covering it, and every inner entry alive throughout it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarpTuple {
    /// The temporally partitioned output interval.
    pub interval: Interval,
    /// Index of the outer entry (unique per time-point: property 3).
    pub outer: usize,
    /// Where the grouped inner indices sit in the producing scratch's
    /// members arena; read them with [`WarpScratch::group`].
    pub inner: Range<u32>,
}

/// One linear pass over an event list: `true` when already non-decreasing,
/// letting the kernel skip the event sort for inboxes that arrive in run
/// order from the frozen graph's lifespan-sorted adjacency.
fn is_sorted_pairs(events: &[(Time, u32)]) -> bool {
    events.windows(2).all(|w| w[0] <= w[1])
}

/// Requirements on the outer set: temporally partitioned — sorted by start
/// and non-overlapping (gaps allowed). Debug-asserted.
fn debug_check_outer<S>(outer: &[(Interval, S)]) {
    debug_assert!(
        outer.windows(2).all(|w| w[0].0.end() <= w[1].0.start()),
        "outer set must be sorted and non-overlapping"
    );
}

/// The time-join `⋈̃` of an outer (temporally partitioned) and an inner set.
pub fn time_join<S, M>(outer: &[(Interval, S)], inner: &[(Interval, M)]) -> Vec<JoinTuple> {
    debug_check_outer(outer);
    let mut out = Vec::new();
    for (oi, (oiv, _)) in outer.iter().enumerate() {
        for (ii, (iiv, _)) in inner.iter().enumerate() {
            if let Some(cap) = oiv.intersect(*iiv) {
                out.push(JoinTuple {
                    interval: cap,
                    outer: oi,
                    inner: ii,
                });
            }
        }
    }
    out
}

/// The time-warp `⋈` of an outer (temporally partitioned) and an inner set.
///
/// Tuples are emitted in temporal order ([`WarpScratch::tuples`]); inner
/// groups are ascending index lists ([`WarpScratch::group`]); tuples with
/// empty groups are omitted (per the definition, `Mr ≠ ∅`).
pub fn time_warp<S, M>(outer: &[(Interval, S)], inner: &[(Interval, M)]) -> WarpScratch {
    debug_check_outer(outer);
    let outer_spans: Vec<Interval> = outer.iter().map(|(iv, _)| *iv).collect();
    let inner_spans: Vec<Interval> = inner.iter().map(|(iv, _)| *iv).collect();
    time_warp_spans(&outer_spans, &inner_spans)
}

/// [`time_warp`] over bare interval slices — what the engine uses, since
/// the sweep never inspects the associated values.
///
/// Returns a fresh [`WarpScratch`] holding the output; hot paths should
/// hold one scratch and use [`time_warp_spans_into`] or
/// [`WarpScratch::warp`].
pub fn time_warp_spans(outer: &[Interval], inner: &[Interval]) -> WarpScratch {
    let mut scratch = WarpScratch::new();
    time_warp_spans_into(outer, inner, &mut scratch);
    scratch
}

/// [`time_warp_spans`] into a reusable scratch arena. Returns the emitted
/// tuples, which stay valid (and reusable) until the next warp on the same
/// scratch.
pub fn time_warp_spans_into<'a>(
    outer: &[Interval],
    inner: &[Interval],
    scratch: &'a mut WarpScratch,
) -> &'a [WarpTuple] {
    scratch.outer.clear();
    scratch.outer.extend_from_slice(outer);
    scratch.inner.clear();
    scratch.inner.extend_from_slice(inner);
    scratch.warp()
}

/// Reusable working storage for the warp kernel, and the home of its
/// output. One instance per worker amortizes every allocation the kernel
/// needs across all vertices and supersteps: event lists, the active-set,
/// the output tuples, and the one `members` arena all their inner groups
/// index into.
///
/// The `outer`/`inner` staging buffers are public so callers on the hot
/// path (the ICM engine) can assemble the span lists in place instead of
/// collecting fresh `Vec`s per vertex.
#[derive(Debug, Default)]
pub struct WarpScratch {
    /// Staged outer spans — must be sorted and non-overlapping.
    pub outer: Vec<Interval>,
    /// Staged inner spans — any order, duplicates allowed.
    pub inner: Vec<Interval>,
    /// Inner start events `(time, index)`, sorted per warp.
    starts: Vec<(Time, u32)>,
    /// Inner end events `(time, index)`, sorted per warp.
    ends: Vec<(Time, u32)>,
    /// Currently alive inner indices, ascending.
    active: Vec<u32>,
    /// Output tuples; overwritten by each warp.
    tuples: Vec<WarpTuple>,
    /// Every output tuple's inner group, back to back; overwritten by
    /// each warp.
    members: Vec<u32>,
}

impl WarpScratch {
    /// An empty scratch arena.
    pub fn new() -> Self {
        WarpScratch::default()
    }

    /// The last warp's tuples, in temporal order.
    pub fn tuples(&self) -> &[WarpTuple] {
        &self.tuples
    }

    /// The inner group of `tuple` — one of the last warp's tuples: the
    /// indices of the grouped inner entries, ascending.
    pub fn group(&self, tuple: &WarpTuple) -> &[u32] {
        &self.members[tuple.inner.start as usize..tuple.inner.end as usize]
    }

    /// Summed capacity of the retained buffers, in elements (allocation
    /// probe: a steady workload must stop growing it).
    pub fn capacity_units(&self) -> usize {
        self.outer.capacity()
            + self.inner.capacity()
            + self.starts.capacity()
            + self.ends.capacity()
            + self.active.capacity()
            + self.tuples.capacity()
            + self.members.capacity()
    }

    /// Runs the warp over the spans staged in `self.outer` / `self.inner`
    /// and returns the maximal tuples in temporal order (their groups are
    /// read through [`group`](Self::group)). Previous output is
    /// overwritten in place, not freed.
    ///
    /// # Panics
    /// Panics when more than `u32::MAX` inner spans are staged.
    pub fn warp(&mut self) -> &[WarpTuple] {
        let WarpScratch {
            outer,
            inner,
            starts,
            ends,
            active,
            tuples,
            members,
        } = self;
        debug_assert!(
            outer.windows(2).all(|w| w[0].end() <= w[1].start()),
            "outer set must be sorted and non-overlapping"
        );
        tuples.clear();
        members.clear();
        active.clear();
        if outer.is_empty() || inner.is_empty() {
            return tuples;
        }
        assert!(
            u32::try_from(inner.len()).is_ok(),
            "warp inner set exceeds u32 indices"
        );

        // Fast path: one inner interval warps to at most one tuple per
        // outer entry — the plain intersection — with no sweep at all.
        // The engine hits this whenever a vertex received one (combined)
        // message, or none while globally active.
        if inner.len() == 1 {
            let iiv = inner[0];
            for (oi, oiv) in outer.iter().enumerate() {
                if oiv.start() >= iiv.end() {
                    break; // outer sorted: nothing later can intersect
                }
                if let Some(cap) = oiv.intersect(iiv) {
                    let at = members.len() as u32;
                    members.push(0);
                    tuples.push(WarpTuple {
                        interval: cap,
                        outer: oi,
                        inner: at..at + 1,
                    });
                }
            }
            return tuples;
        }

        // General path: merge four ordered streams — inner starts, inner
        // ends (each one `O(m log m)` sort), and the outer entries' starts
        // and ends, already ordered by the precondition. Only segments
        // with a nonempty active set under outer coverage are emitted;
        // dead regions are skipped in one jump instead of boundary by
        // boundary.
        starts.clear();
        ends.clear();
        for (i, iv) in (0u32..).zip(inner.iter()) {
            starts.push((iv.start(), i));
            ends.push((iv.end(), i));
        }
        // The frozen graph's adjacency runs are lifespan-sorted, so a
        // vertex's inbox — filled run by run — usually arrives with starts
        // already non-decreasing: detect that in one linear scan and skip
        // the sort. When the check fails (multi-source inboxes, sentinel
        // spans), the pattern-sensitive sort degrades the concatenated
        // sorted sub-runs to ascending-run merges rather than a full
        // shuffle sort. Every `(Time, usize)` event is distinct (the index
        // disambiguates), so stability cannot affect output.
        if !is_sorted_pairs(starts) {
            starts.sort_unstable();
        }
        if !is_sorted_pairs(ends) {
            ends.sort_unstable();
        }

        let m = inner.len();
        let n = outer.len();
        let mut si = 0usize; // next inner start event
        let mut ei = 0usize; // next inner end event
        let mut oi = 0usize; // current outer candidate
        let mut lo = starts[0].0.min(outer[0].start());

        while oi < n && ei < m {
            // Retire inner intervals ending at or before `lo`.
            while ei < m && ends[ei].0 <= lo {
                if let Ok(pos) = active.binary_search(&ends[ei].1) {
                    active.remove(pos);
                }
                ei += 1;
            }
            if ei == m {
                break; // every inner interval is in the past
            }
            // Activate inner intervals starting at or before `lo`.
            while si < m && starts[si].0 <= lo {
                let idx = starts[si].1;
                if inner[idx as usize].end() > lo {
                    if let Err(pos) = active.binary_search(&idx) {
                        active.insert(pos, idx);
                    }
                }
                si += 1;
            }
            // Advance to the outer entry whose end lies beyond `lo`.
            while oi < n && outer[oi].end() <= lo {
                oi += 1;
            }
            if oi == n {
                break;
            }
            // Dead region (no live inner): jump straight to the next start.
            if active.is_empty() {
                if si == m {
                    break;
                }
                lo = starts[si].0;
                continue;
            }
            // Gap before the current outer entry: jump to its start.
            let oiv = outer[oi];
            if oiv.start() > lo {
                lo = oiv.start();
                continue;
            }
            // Emit [lo, hi): hi is the nearest future boundary from any
            // stream. Events at or before `lo` were all consumed above, so
            // each candidate is strictly greater than `lo`.
            let mut hi = oiv.end().min(ends[ei].0);
            if si < m {
                hi = hi.min(starts[si].0);
            }
            let segment = Interval::new(lo, hi);
            debug_assert!(segment.during_or_equals(oiv));
            // Maximality: extend the previous tuple when it meets this
            // segment with the same outer entry and the same inner group.
            if let Some(last) = tuples.last_mut() {
                if last.outer == oi
                    && last.interval.meets(segment)
                    && members[last.inner.start as usize..] == **active
                {
                    last.interval = last.interval.span(segment);
                    lo = hi;
                    continue;
                }
            }
            let at = members.len() as u32;
            members.extend_from_slice(active);
            tuples.push(WarpTuple {
                interval: segment,
                outer: oi,
                inner: at..members.len() as u32,
            });
            lo = hi;
        }
        tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e)
    }

    /// The warp of `outer` states against `inner` messages as
    /// `(interval, &state, Vec<&message>)` views.
    fn warp_view<'a, S, M>(
        outer: &'a [(Interval, S)],
        inner: &'a [(Interval, M)],
    ) -> impl Iterator<Item = (Interval, &'a S, Vec<&'a M>)> + 'a {
        let warp = time_warp(outer, inner);
        let views: Vec<_> = warp
            .tuples()
            .iter()
            .map(|t| {
                let group = warp.group(t).iter().map(|&i| &inner[i as usize].1);
                (t.interval, &outer[t.outer].1, group.collect())
            })
            .collect();
        views.into_iter()
    }

    type Entries = Vec<(Interval, &'static str)>;

    /// The paper's Fig. 3 example: three partitioned states and five
    /// messages; boundaries 0, 2, 4, 5, 7, 9, 10.
    fn fig3() -> (Entries, Entries) {
        let states = vec![(iv(0, 5), "s1"), (iv(5, 9), "s2"), (iv(9, 10), "s3")];
        let msgs = vec![
            (iv(0, 4), "m1"),
            (iv(2, 7), "m2"),
            (iv(5, 9), "m3"),
            (iv(7, 10), "m4"),
            (iv(9, 10), "m5"),
        ];
        (states, msgs)
    }

    #[test]
    fn fig3_time_join() {
        let (states, msgs) = fig3();
        let tj = time_join(&states, &msgs);
        // m2 [2,7) intersects s1 [0,5) at [2,5) and s2 [5,9) at [5,7).
        assert!(tj.contains(&JoinTuple {
            interval: iv(2, 5),
            outer: 0,
            inner: 1
        }));
        assert!(tj.contains(&JoinTuple {
            interval: iv(5, 7),
            outer: 1,
            inner: 1
        }));
        // m5 only meets s3.
        assert!(tj.contains(&JoinTuple {
            interval: iv(9, 10),
            outer: 2,
            inner: 4
        }));
        assert_eq!(tj.iter().filter(|t| t.inner == 4).count(), 1);
    }

    #[test]
    fn fig3_warp_output() {
        let (states, msgs) = fig3();
        let tuples: Vec<(Interval, &str, Vec<&str>)> = warp_view(&states, &msgs)
            .map(|(i, s, m)| (i, *s, m.into_iter().copied().collect()))
            .collect();
        // Matches the paper's worked output: ⟨[0,2), s1, {m1}⟩,
        // ⟨[2,4), s1, {m1,m2}⟩, ⟨[4,5), s1, {m2}⟩, ⟨[5,7), s2, {m2,m3}⟩,
        // ⟨[7,9), s2, {m3,m4}⟩, ⟨[9,10), s3, {m4,m5}⟩.
        assert_eq!(
            tuples,
            vec![
                (iv(0, 2), "s1", vec!["m1"]),
                (iv(2, 4), "s1", vec!["m1", "m2"]),
                (iv(4, 5), "s1", vec!["m2"]),
                (iv(5, 7), "s2", vec!["m2", "m3"]),
                (iv(7, 9), "s2", vec!["m3", "m4"]),
                (iv(9, 10), "s3", vec!["m4", "m5"]),
            ]
        );
    }

    #[test]
    fn sssp_superstep3_example() {
        // Sec. IV-B: E warps prior state ⟨[0,∞),∞⟩ with messages
        // ⟨[9,∞),5⟩ from B and ⟨[6,∞),7⟩ from C, producing
        // ⟨[6,9),∞,{7}⟩ and ⟨[9,∞),∞,{5,7}⟩.
        let states = vec![(Interval::from_start(0), i64::MAX)];
        let msgs = vec![
            (Interval::from_start(9), 5i64),
            (Interval::from_start(6), 7i64),
        ];
        let tuples: Vec<(Interval, Vec<i64>)> = warp_view(&states, &msgs)
            .map(|(i, _, m)| {
                let mut vals: Vec<i64> = m.into_iter().copied().collect();
                vals.sort();
                (i, vals)
            })
            .collect();
        assert_eq!(
            tuples,
            vec![(iv(6, 9), vec![7]), (Interval::from_start(9), vec![5, 7]),]
        );
    }

    #[test]
    fn empty_sets_produce_nothing() {
        let none: Vec<(Interval, u8)> = vec![];
        let some = vec![(iv(0, 5), 1u8)];
        assert!(time_warp(&none, &some).tuples().is_empty());
        assert!(time_warp(&some, &none).tuples().is_empty());
        assert!(time_join::<u8, u8>(&none, &none).is_empty());
    }

    #[test]
    fn disjoint_messages_are_excluded() {
        let states = vec![(iv(0, 5), "s")];
        let msgs = vec![(iv(5, 9), "late"), (iv(-4, 0), "early")];
        assert!(time_warp(&states, &msgs).tuples().is_empty());
    }

    #[test]
    fn gapped_outer_set() {
        // The pre-scatter warp uses updated states, which may have gaps.
        let states = vec![(iv(0, 2), "a"), (iv(6, 8), "b")];
        let msgs = vec![(iv(0, 10), "m")];
        let warp = time_warp(&states, &msgs);
        let tuples = warp.tuples();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].interval, iv(0, 2));
        assert_eq!(tuples[0].outer, 0);
        assert_eq!(tuples[1].interval, iv(6, 8));
        assert_eq!(tuples[1].outer, 1);
    }

    #[test]
    fn maximality_merges_identical_adjacent_groups() {
        // The inner boundary at 5 splits nothing: m covers both sides and
        // the outer state is the same, so one maximal tuple must come out.
        let states = vec![(iv(0, 10), "s")];
        let msgs = vec![(iv(0, 10), "m"), (iv(20, 30), "other")];
        let warp = time_warp(&states, &msgs);
        let tuples = warp.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].interval, iv(0, 10));
    }

    #[test]
    fn boundary_alignment_never_crosses_state_edges() {
        let states = vec![(iv(0, 5), 1u8), (iv(5, 10), 2u8)];
        let msgs = vec![(iv(3, 8), 9u8)];
        let warp = time_warp(&states, &msgs);
        let tuples = warp.tuples();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].interval, iv(3, 5));
        assert_eq!(tuples[1].interval, iv(5, 8));
    }

    #[test]
    fn duplicated_message_intervals_group_together() {
        let states = vec![(iv(0, 4), "s")];
        let msgs = vec![(iv(1, 3), "x"), (iv(1, 3), "y")];
        let warp = time_warp(&states, &msgs);
        let tuples = warp.tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].interval, iv(1, 3));
        assert_eq!(warp.group(&tuples[0]), [0, 1]);
    }

    #[test]
    fn unbounded_messages_and_states() {
        let states = vec![(Interval::all(), "s")];
        let msgs = vec![
            (Interval::until(0), "past"),
            (Interval::from_start(0), "future"),
        ];
        let warp = time_warp(&states, &msgs);
        let tuples = warp.tuples();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].interval, Interval::until(0));
        assert_eq!(warp.group(&tuples[0]), [0]);
        assert_eq!(tuples[1].interval, Interval::from_start(0));
        assert_eq!(warp.group(&tuples[1]), [1]);
    }

    #[test]
    fn point_coverage_is_exact() {
        // Each time-point within active sub-intervals belongs to exactly
        // one tuple (Sec. IV-A2).
        let states = vec![(iv(0, 20), "s")];
        let msgs = vec![(iv(1, 9), "a"), (iv(4, 12), "b"), (iv(11, 15), "c")];
        let warp = time_warp(&states, &msgs);
        let tuples = warp.tuples();
        for t in 0..20 {
            let covered = tuples
                .iter()
                .filter(|tu| tu.interval.contains_point(t))
                .count();
            let expected = usize::from(msgs.iter().any(|(iv, _)| iv.contains_point(t)));
            assert_eq!(covered, expected, "time-point {t}");
        }
    }
}
