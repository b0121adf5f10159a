//! Property-based verification of the time-warp operator's four
//! guarantees (paper Sec. IV-B): valid inclusion, no invalid inclusion,
//! no duplication, and maximality — over randomized partitioned outer
//! sets and arbitrary inner interval sets.
//!
//! Randomized cases are driven by the in-tree [`SplitMix64`] generator with
//! fixed seeds, so every run explores the same case set and a failure
//! reproduces exactly.

use graphite_icm::warp::{time_join, time_warp, WarpTuple};
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::Interval;

const CASES: usize = 512;

/// A temporally partitioned outer set: contiguous cover of `[lo, hi)`
/// split at random interior points.
fn rand_outer(rng: &mut SplitMix64) -> Vec<(Interval, usize)> {
    let lo = rng.range_i64(0, 20);
    let len = rng.range_i64(1, 40);
    let hi = lo + len;
    let mut cuts: Vec<i64> = (0..rng.index(6)).map(|_| rng.range_i64(1, 39)).collect();
    cuts.retain(|c| *c > lo && *c < hi);
    cuts.sort_unstable();
    cuts.dedup();
    let mut bounds = vec![lo];
    bounds.extend(cuts);
    bounds.push(hi);
    bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| (Interval::new(w[0], w[1]), i))
        .collect()
}

/// Arbitrary inner intervals around the same range (some disjoint from
/// the outer set, some spanning it entirely).
fn rand_inner(rng: &mut SplitMix64) -> Vec<(Interval, usize)> {
    (0..rng.index(10))
        .map(|i| {
            let start = rng.range_i64(-10, 70);
            let len = rng.range_i64(1, 50);
            (Interval::new(start, start + len), i)
        })
        .collect()
}

fn points(iv: Interval) -> impl Iterator<Item = i64> {
    iv.start()..iv.end()
}

/// Property 1 — valid inclusion: every (outer, inner) value pair that
/// coexists at a time-point appears in some output tuple at that point.
#[test]
fn valid_inclusion() {
    let mut rng = SplitMix64::new(0x003A_8901);
    for _ in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        let warp = time_warp(&outer, &inner);
        for (oi, (oiv, _)) in outer.iter().enumerate() {
            for (ii, (iiv, _)) in inner.iter().enumerate() {
                let Some(cap) = oiv.intersect(*iiv) else {
                    continue;
                };
                for t in points(cap) {
                    let hit = warp.tuples().iter().any(|tu| {
                        tu.outer == oi
                            && tu.interval.contains_point(t)
                            && warp.group(tu).contains(&(ii as u32))
                    });
                    assert!(hit, "({oi},{ii}) missing at t={t}");
                }
            }
        }
    }
}

/// Property 2 — no invalid inclusion: output tuples only reference
/// values that exist throughout the tuple's interval.
#[test]
fn no_invalid_inclusion() {
    let mut rng = SplitMix64::new(0x003A_8902);
    for _ in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        let warp = time_warp(&outer, &inner);
        for tu in warp.tuples() {
            assert!(tu.interval.during_or_equals(outer[tu.outer].0));
            assert!(!warp.group(tu).is_empty(), "empty groups must be omitted");
            for &ii in warp.group(tu) {
                let message = inner[ii as usize].0;
                assert!(
                    tu.interval.during_or_equals(message),
                    "tuple {} not within message {message}",
                    tu.interval,
                );
            }
        }
    }
}

/// Property 3 — no duplication: at any time-point, at most one output
/// tuple exists (the outer set is a partition, so per-point uniqueness
/// of the outer value follows).
#[test]
fn no_duplication() {
    let mut rng = SplitMix64::new(0x003A_8903);
    for _ in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        let warp = time_warp(&outer, &inner);
        let tuples = warp.tuples();
        let span = outer.first().unwrap().0.span(outer.last().unwrap().0);
        for t in points(span) {
            let covering: Vec<&WarpTuple> = tuples
                .iter()
                .filter(|tu| tu.interval.contains_point(t))
                .collect();
            assert!(covering.len() <= 1, "{} tuples at t={t}", covering.len());
        }
    }
}

/// Property 4 — maximality: no two tuples with the same outer entry
/// and the same inner group are adjacent or overlapping.
#[test]
fn maximality() {
    let mut rng = SplitMix64::new(0x003A_8904);
    for _ in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        let warp = time_warp(&outer, &inner);
        for a in warp.tuples() {
            for b in warp.tuples() {
                if std::ptr::eq(a, b) {
                    continue;
                }
                if a.outer == b.outer && warp.group(a) == warp.group(b) {
                    assert!(
                        !a.interval.intersects(b.interval)
                            && !a.interval.meets(b.interval)
                            && !b.interval.meets(a.interval),
                        "tuples {} and {} should have been merged",
                        a.interval,
                        b.interval
                    );
                }
            }
        }
    }
}

/// The time-join is exactly the pairwise-intersection relation.
#[test]
fn time_join_is_pairwise_intersection() {
    let mut rng = SplitMix64::new(0x003A_8905);
    for _ in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        let tj = time_join(&outer, &inner);
        let mut expected = 0usize;
        for (oiv, _) in &outer {
            for (iiv, _) in &inner {
                if oiv.intersects(*iiv) {
                    expected += 1;
                }
            }
        }
        assert_eq!(tj.len(), expected);
        for j in &tj {
            assert_eq!(
                Some(j.interval),
                outer[j.outer].0.intersect(inner[j.inner].0)
            );
        }
    }
}

/// Warp output equals a brute-force per-point reconstruction: for every
/// time-point, the group of messages alive there matches the covering
/// tuple's group.
#[test]
fn pointwise_reconstruction() {
    let mut rng = SplitMix64::new(0x003A_8906);
    for _ in 0..CASES {
        let outer = rand_outer(&mut rng);
        let inner = rand_inner(&mut rng);
        let warp = time_warp(&outer, &inner);
        let tuples = warp.tuples();
        let span = outer.first().unwrap().0.span(outer.last().unwrap().0);
        for t in points(span) {
            let alive: Vec<u32> = (0u32..)
                .zip(&inner)
                .filter(|(_, (iv, _))| iv.contains_point(t))
                .map(|(i, _)| i)
                .collect();
            let tuple = tuples.iter().find(|tu| tu.interval.contains_point(t));
            match tuple {
                Some(tu) => assert_eq!(warp.group(tu), alive, "at t={t}"),
                None => assert!(alive.is_empty(), "uncovered point t={t} has messages"),
            }
        }
    }
}
