//! Oracle-backed verification of the merge-based time-warp kernel: a
//! brute-force per-time-instant reference is evaluated at every probe
//! point and compared against the kernel's output, over ≥1000 seeded
//! random cases (plus hand-picked degenerate ones) that include point,
//! adjacent, duplicate, gapped and unbounded intervals.
//!
//! Every random case runs through one long-lived [`WarpScratch`] — the
//! engine's steady-state configuration — and is cross-checked against a
//! fresh-scratch run, so arena recycling bugs (stale tuples, leaked
//! groups) cannot hide. Groups are read through the scratch's members
//! arena, as the engine reads them; a second pass over the same cases must
//! not grow any of the scratch's buffers.
//!
//! The four paper guarantees (Sec. IV-B) checked per case:
//! 1. valid inclusion, 2. no invalid inclusion, 3. no duplication,
//! 4. maximality.

use graphite_icm::warp::{time_warp_spans, time_warp_spans_into, WarpScratch};
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::Interval;

const CASES: usize = 1024;

/// Finite endpoints live in `[-8, 40)`; probing this range plus one point
/// far on each side covers every distinct active-set region (beyond the
/// last finite endpoint the active sets are constant).
fn probes() -> impl Iterator<Item = i64> {
    (-10..44).chain([-1_000_000, 1_000_000])
}

/// A gapped, sorted, non-overlapping outer set (a state partition):
/// random gaps, unit and longer segments, occasionally right-unbounded.
fn rand_outer(rng: &mut SplitMix64) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cursor = rng.range_i64(-8, 8);
    for _ in 0..rng.index(6) {
        cursor += rng.index(4) as i64; // gap, possibly zero (adjacent)
        let len = 1 + rng.index(6) as i64;
        if cursor + len > 40 {
            break;
        }
        out.push(Interval::new(cursor, cursor + len));
        cursor += len;
    }
    if rng.index(8) == 0 && cursor < 40 {
        out.push(Interval::from_start(cursor + rng.index(3) as i64));
    }
    out
}

/// Arbitrary inner intervals: bounded, point, left/right-unbounded, exact
/// duplicates and Allen-*meets* neighbours of earlier entries.
fn rand_inner(rng: &mut SplitMix64) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    for _ in 0..rng.index(12) {
        let iv = match rng.index(8) {
            0 => Interval::point(rng.range_i64(-8, 39)),
            1 => Interval::from_start(rng.range_i64(-8, 39)),
            2 => Interval::until(rng.range_i64(-7, 40)),
            3 if !out.is_empty() => out[rng.index(out.len())], // duplicate
            4 if !out.is_empty() => {
                // Meets an earlier entry (shared boundary, no overlap).
                let prev = out[rng.index(out.len())];
                if prev.end() < 40 {
                    Interval::new(prev.end(), prev.end() + 1 + rng.index(4) as i64)
                } else {
                    Interval::point(rng.range_i64(-8, 39))
                }
            }
            _ => {
                let start = rng.range_i64(-8, 38);
                Interval::new(start, start + 1 + rng.index(10) as i64)
            }
        };
        out.push(iv);
    }
    out
}

/// A warp's output with every group resolved through the members arena.
type Resolved = Vec<(Interval, usize, Vec<u32>)>;

fn resolve(warp: &WarpScratch) -> Resolved {
    warp.tuples()
        .iter()
        .map(|t| (t.interval, t.outer, warp.group(t).to_vec()))
        .collect()
}

/// The brute-force oracle: checks the kernel output against per-point
/// reconstruction at every probe, plus the structural guarantees.
fn check(outer: &[Interval], inner: &[Interval], warp: &WarpScratch, ctx: &str) {
    let tuples = warp.tuples();
    // Per-point reference. The outer set is a partition, so at most one
    // outer entry — hence at most one tuple (guarantee 3) — covers t.
    for t in probes() {
        let active_outer = outer.iter().position(|o| o.contains_point(t));
        let alive: Vec<u32> = (0u32..)
            .zip(inner)
            .filter(|(_, iv)| iv.contains_point(t))
            .map(|(i, _)| i)
            .collect();
        let covering: Vec<_> = tuples
            .iter()
            .filter(|tu| tu.interval.contains_point(t))
            .collect();
        assert!(
            covering.len() <= 1,
            "{ctx}: {} tuples cover t={t} (no-duplication)",
            covering.len()
        );
        match (active_outer, alive.is_empty()) {
            (Some(oi), false) => {
                // Guarantee 1 (valid inclusion) and 2 (no invalid
                // inclusion) at t: exactly this outer, exactly this group.
                let tu = covering
                    .first()
                    .unwrap_or_else(|| panic!("{ctx}: no tuple at t={t} (valid-inclusion)"));
                assert_eq!(tu.outer, oi, "{ctx}: wrong outer at t={t}");
                assert_eq!(warp.group(tu), alive, "{ctx}: wrong group at t={t}");
            }
            _ => assert!(
                covering.is_empty(),
                "{ctx}: spurious tuple at t={t} (invalid-inclusion)"
            ),
        }
    }
    // Guarantee 2, structurally (covers the stretches between probes,
    // including unbounded tails): each tuple lies within its outer entry
    // and within every grouped message.
    for tu in tuples {
        let group = warp.group(tu);
        assert!(!group.is_empty(), "{ctx}: empty group emitted");
        assert!(
            tu.interval.during_or_equals(outer[tu.outer]),
            "{ctx}: tuple {} outside outer {}",
            tu.interval,
            outer[tu.outer]
        );
        assert!(
            group.windows(2).all(|w| w[0] < w[1]),
            "{ctx}: group not ascending"
        );
        for &ii in group {
            let message = inner[ii as usize];
            assert!(
                tu.interval.during_or_equals(message),
                "{ctx}: tuple {} outside message {message}",
                tu.interval,
            );
        }
    }
    // Guarantee 4 (maximality) and global temporal order: consecutive
    // tuples never overlap; when they touch, outer or group must differ.
    for w in tuples.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(
            a.interval.end() <= b.interval.start(),
            "{ctx}: tuples {} and {} out of order",
            a.interval,
            b.interval
        );
        if a.interval.meets(b.interval) {
            assert!(
                a.outer != b.outer || warp.group(a) != warp.group(b),
                "{ctx}: tuples {} and {} should have been merged (maximality)",
                a.interval,
                b.interval
            );
        }
    }
}

#[test]
fn oracle_random_cases_through_reused_scratch() {
    let mut rng = SplitMix64::new(0x0057_4152_5000);
    let mut scratch = WarpScratch::new();
    for case in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        time_warp_spans_into(&outer, &inner, &mut scratch);
        let ctx = format!("case {case} outer={outer:?} inner={inner:?}");
        check(&outer, &inner, &scratch, &ctx);
        // A reused arena must produce exactly what a fresh one does.
        assert_eq!(
            resolve(&scratch),
            resolve(&time_warp_spans(&outer, &inner)),
            "{ctx}: reused scratch diverges from fresh scratch"
        );
    }
}

/// The ICM twin of the exchange's allocation guard: once one pass over
/// the random cases has sized the arena, a second pass over the same
/// cases — the steady state of a worker replaying similar vertices —
/// must run entirely in retained capacity.
#[test]
fn second_pass_grows_no_scratch_buffer() {
    let cases: Vec<(Vec<Interval>, Vec<Interval>)> = {
        let mut rng = SplitMix64::new(0x0057_4152_5000);
        (0..CASES)
            .map(|_| {
                let outer = rand_outer(&mut rng);
                (outer, rand_inner(&mut rng))
            })
            .collect()
    };
    let mut scratch = WarpScratch::new();
    for (outer, inner) in &cases {
        time_warp_spans_into(outer, inner, &mut scratch);
    }
    let warmed = scratch.capacity_units();
    assert!(warmed > 0, "warm-up sized nothing: the probe is blind");
    for (case, (outer, inner)) in cases.iter().enumerate() {
        time_warp_spans_into(outer, inner, &mut scratch);
        assert_eq!(
            scratch.capacity_units(),
            warmed,
            "case {case}: a warmed scratch grew (outer={outer:?} inner={inner:?})"
        );
    }
}

#[test]
fn oracle_degenerate_cases() {
    let unb = Interval::from_start(5);
    let all = Interval::new(-1_000_000_000, 1_000_000_000);
    let cases: Vec<(Vec<Interval>, Vec<Interval>)> = vec![
        (vec![], vec![]),
        (vec![], vec![Interval::point(3)]),
        (vec![Interval::new(0, 10)], vec![]),
        // Point outer meets point inner exactly.
        (vec![Interval::point(7)], vec![Interval::point(7)]),
        // Inner only meets the outer (shared boundary): empty output.
        (vec![Interval::new(0, 5)], vec![Interval::new(5, 9)]),
        // Adjacent point messages tiling a segment.
        (
            vec![Interval::new(0, 4)],
            (0..4).map(Interval::point).collect(),
        ),
        // Exact duplicates.
        (
            vec![Interval::new(0, 8)],
            vec![Interval::new(2, 6), Interval::new(2, 6)],
        ),
        // Message exactly equal to the outer entry.
        (vec![Interval::new(3, 9)], vec![Interval::new(3, 9)]),
        // Messages alive only inside the outer gap.
        (
            vec![Interval::new(0, 4), Interval::new(10, 14)],
            vec![Interval::new(5, 9)],
        ),
        // Unbounded outer tail × unbounded messages on both sides.
        (
            vec![Interval::new(0, 3), unb],
            vec![Interval::until(2), unb, all],
        ),
    ];
    let mut scratch = WarpScratch::new();
    for (i, (outer, inner)) in cases.iter().enumerate() {
        time_warp_spans_into(outer, inner, &mut scratch);
        check(outer, inner, &scratch, &format!("degenerate {i}"));
    }
    // Spot-check the gap case: nothing may be emitted in the gap.
    let gap = time_warp_spans(
        &[Interval::new(0, 4), Interval::new(10, 14)],
        &[Interval::new(5, 9)],
    );
    assert!(
        gap.tuples().is_empty(),
        "messages in an outer gap produced {:?}",
        gap.tuples()
    );
}

/// The kernel's documented precondition: the outer set is a partition
/// (sorted, non-overlapping). Violations are caught in debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "outer set must be sorted and non-overlapping")]
fn unsorted_outer_is_rejected_in_debug() {
    let outer = [Interval::new(10, 20), Interval::new(0, 5)];
    let inner = [Interval::new(0, 30)];
    time_warp_spans(&outer, &inner);
}

/// A tuple group projected onto its message *intervals* (sorted), so two
/// kernel runs over permutations of the same inner list can be compared
/// even though a group indexes into the caller's ordering.
fn groups(warp: &WarpScratch, inner: &[Interval]) -> Vec<(Interval, usize, Vec<Interval>)> {
    warp.tuples()
        .iter()
        .map(|t| {
            let mut g: Vec<Interval> = warp.group(t).iter().map(|&i| inner[i as usize]).collect();
            g.sort_by_key(|iv| (iv.start(), iv.end()));
            (t.interval, t.outer, g)
        })
        .collect()
}

/// The frozen layout's sorted adjacency runs deliver message intervals in
/// ascending `(start, end)` order, which the kernel detects and services
/// with a merge instead of a sort. A deliberately unsorted permutation of
/// the same messages must take the sort fallback and produce the same
/// tuples (same intervals, same outers, same message groups).
#[test]
fn sorted_fast_path_matches_unsorted_fallback() {
    let mut rng = SplitMix64::new(0x0050_5245_534f_5254);
    let mut scratch = WarpScratch::new();
    for case in 0..256 {
        let outer = rand_outer(&mut rng);
        let mut sorted = rand_inner(&mut rng);
        sorted.sort_by_key(|iv| (iv.start(), iv.end()));
        time_warp_spans_into(&outer, &sorted, &mut scratch);
        check(
            &outer,
            &sorted,
            &scratch,
            &format!("sorted case {case} outer={outer:?} inner={sorted:?}"),
        );
        // Reversing a sorted list is the worst case for the sortedness
        // check: it bails at the first window.
        let reversed: Vec<Interval> = sorted.iter().rev().copied().collect();
        let g_sorted = groups(&scratch, &sorted);
        time_warp_spans_into(&outer, &reversed, &mut scratch);
        check(
            &outer,
            &reversed,
            &scratch,
            &format!("reversed case {case} outer={outer:?} inner={reversed:?}"),
        );
        assert_eq!(
            g_sorted,
            groups(&scratch, &reversed),
            "case {case}: fast path and fallback disagree (outer={outer:?} inner={sorted:?})"
        );
    }
}
