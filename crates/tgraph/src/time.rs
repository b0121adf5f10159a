//! The discrete time domain and half-open time-intervals, with the Allen
//! interval relations used throughout the paper (Sec. III, "Time Domain" /
//! "Time-interval" / "Interval Relations").
//!
//! Time is a linearly ordered discrete domain. The paper restricts it to
//! non-negative whole numbers; we use a signed 64-bit representation so that
//! the Latest-Departure algorithm can emit `[-∞, t)` messages and path
//! algorithms can emit `[t, ∞)` messages. [`Time::MIN_INF`] and
//! [`Time::MAX_INF`] are the `-∞` / `+∞` sentinels.

use std::fmt;

/// A discrete time-point. One time unit is an atomic increment of time and
/// corresponds to some user-defined wall-clock duration (e.g. one snapshot).
pub type Time = i64;

/// Extension constants for the [`Time`] domain.
pub trait TimeExt {
    /// The `-∞` sentinel: earlier than every finite time-point.
    const MIN_INF: Time = i64::MIN;
    /// The `+∞` sentinel: later than every finite time-point. An interval
    /// ending at `MAX_INF` is unbounded on the right (`[t, ∞)`).
    const MAX_INF: Time = i64::MAX;
}

impl TimeExt for Time {}

/// Convenience alias so call sites can write `TIME_MIN` / `TIME_MAX`.
pub const TIME_MIN: Time = i64::MIN;
/// See [`TIME_MIN`].
pub const TIME_MAX: Time = i64::MAX;

/// A half-open time-interval `[start, end)`.
///
/// Invariant: `start < end`, i.e. intervals are never empty. Operations that
/// can produce an empty result (such as [`Interval::intersect`]) return
/// `Option<Interval>` instead.
///
/// ```
/// use graphite_tgraph::time::Interval;
/// let a = Interval::new(0, 5);
/// let b = Interval::new(3, 9);
/// assert_eq!(a.intersect(b), Some(Interval::new(3, 5)));
/// assert!(a.intersects(b));
/// assert!(!Interval::new(0, 3).intersects(Interval::new(3, 9))); // half-open
/// ```
///
/// The fields are private, so code outside this module cannot write an
/// interval literal, not even a valid one; construction goes through
/// [`Interval::new`] or [`Interval::try_new`], which check the invariant:
///
/// ```compile_fail,E0451
/// use graphite_tgraph::time::Interval;
/// let iv = Interval { start: 0, end: 1 };
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    start: Time,
    end: Time,
}

impl Interval {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start >= end` (empty or inverted interval). Use
    /// [`Interval::try_new`] for fallible construction.
    #[inline]
    #[track_caller]
    pub fn new(start: Time, end: Time) -> Self {
        assert!(start < end, "empty or inverted interval [{start}, {end})");
        Interval { start, end }
    }

    /// Creates `[start, end)`, returning `None` when the interval would be
    /// empty (`start >= end`).
    #[inline]
    pub fn try_new(start: Time, end: Time) -> Option<Self> {
        (start < end).then_some(Interval { start, end })
    }

    /// The unit-length interval `[t, t+1)` — a single time-point.
    #[inline]
    pub fn point(t: Time) -> Self {
        Interval::new(t, t + 1)
    }

    /// `[start, ∞)`.
    #[inline]
    pub fn from_start(start: Time) -> Self {
        Interval::new(start, TIME_MAX)
    }

    /// `[-∞, end)`.
    #[inline]
    pub fn until(end: Time) -> Self {
        Interval::new(TIME_MIN, end)
    }

    /// `[-∞, ∞)` — the whole time domain.
    #[inline]
    pub fn all() -> Self {
        Interval {
            start: TIME_MIN,
            end: TIME_MAX,
        }
    }

    /// Inclusive start of the interval.
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Exclusive end of the interval.
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// Number of time-points in the interval; saturates at `i64::MAX` for
    /// unbounded intervals.
    #[inline]
    pub fn len(&self) -> i64 {
        self.end.saturating_sub(self.start)
    }

    /// Intervals are never empty; provided for clippy-idiomatic pairing with
    /// [`Interval::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` when the interval covers exactly one time-point.
    #[inline]
    pub fn is_unit(&self) -> bool {
        self.len() == 1
    }

    /// Whether the time-point `t` lies inside `[start, end)`.
    #[inline]
    pub fn contains_point(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// The *during-or-equals* relation `self ⊑ other`: every time-point of
    /// `self` is also in `other`.
    #[inline]
    pub fn during_or_equals(&self, other: Interval) -> bool {
        other.start <= self.start && self.end <= other.end
    }

    /// The strict *during* relation `self ⊏ other`: contained and not equal.
    #[inline]
    pub fn during(&self, other: Interval) -> bool {
        self.during_or_equals(other) && *self != other
    }

    /// The *intersects* relation `self ∩̸ other ≠ ∅`: the two intervals share
    /// at least one time-point.
    #[inline]
    pub fn intersects(&self, other: Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Allen's *meets* relation: `self` ends exactly where `other` starts.
    #[inline]
    pub fn meets(&self, other: Interval) -> bool {
        self.end == other.start
    }

    /// `∩`: the intersecting interval, or `None` when disjoint.
    #[inline]
    pub fn intersect(&self, other: Interval) -> Option<Interval> {
        Interval::try_new(self.start.max(other.start), self.end.min(other.end))
    }

    /// The smallest interval containing both inputs (the temporal *span*,
    /// not a set union — any gap between the inputs is included).
    #[inline]
    pub fn span(&self, other: Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Iterates the time-points of a *bounded* interval.
    ///
    /// # Panics
    /// Panics when either endpoint is an infinity sentinel.
    pub fn points(&self) -> impl DoubleEndedIterator<Item = Time> {
        assert!(
            self.start != TIME_MIN && self.end != TIME_MAX,
            "cannot enumerate the points of an unbounded interval"
        );
        self.start..self.end
    }

    /// Shifts both endpoints by `delta`, saturating at the infinity
    /// sentinels (so `[3, ∞) + 2 = [5, ∞)`).
    #[inline]
    pub fn shift(&self, delta: Time) -> Interval {
        let start = if self.start == TIME_MIN {
            TIME_MIN
        } else {
            self.start.saturating_add(delta)
        };
        let end = if self.end == TIME_MAX {
            TIME_MAX
        } else {
            self.end.saturating_add(delta)
        };
        Interval::new(start, end)
    }

    /// Classifies the pair under Allen's thirteen interval relations.
    pub fn allen(&self, other: Interval) -> AllenRelation {
        use std::cmp::Ordering::*;
        let (a, b) = (*self, other);
        match (a.start.cmp(&b.start), a.end.cmp(&b.end)) {
            (Equal, Equal) => AllenRelation::Equals,
            (Equal, Less) => AllenRelation::Starts,
            (Equal, Greater) => AllenRelation::StartedBy,
            (Less, Equal) => AllenRelation::FinishedBy,
            (Greater, Equal) => AllenRelation::Finishes,
            (Less, Less) => {
                if a.end < b.start {
                    AllenRelation::Before
                } else if a.end == b.start {
                    AllenRelation::Meets
                } else {
                    AllenRelation::Overlaps
                }
            }
            (Greater, Greater) => {
                if b.end < a.start {
                    AllenRelation::After
                } else if b.end == a.start {
                    AllenRelation::MetBy
                } else {
                    AllenRelation::OverlappedBy
                }
            }
            (Less, Greater) => AllenRelation::Contains,
            (Greater, Less) => AllenRelation::During,
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.start, self.end) {
            (TIME_MIN, TIME_MAX) => write!(f, "[-inf, inf)"),
            (TIME_MIN, e) => write!(f, "[-inf, {e})"),
            (s, TIME_MAX) => write!(f, "[{s}, inf)"),
            (s, e) => write!(f, "[{s}, {e})"),
        }
    }
}

/// Allen's thirteen qualitative relations between two intervals `a` and `b`.
///
/// The paper only needs *during* (⊏), *during-or-equals* (⊑), *intersects*,
/// *equals* and *meets*; the full taxonomy is provided for tests and for
/// downstream users of the interval algebra.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllenRelation {
    /// `a` ends strictly before `b` starts.
    Before,
    /// `a.end == b.start`.
    Meets,
    /// `a` starts first and they overlap without containment.
    Overlaps,
    /// Same start, `a` ends first.
    Starts,
    /// `a` strictly inside `b`.
    During,
    /// Same end, `a` starts later.
    Finishes,
    /// Identical intervals.
    Equals,
    /// Same end, `a` starts first (inverse of `Finishes`).
    FinishedBy,
    /// `b` strictly inside `a` (inverse of `During`).
    Contains,
    /// Same start, `a` ends later (inverse of `Starts`).
    StartedBy,
    /// `b` starts first and they overlap without containment.
    OverlappedBy,
    /// `b.end == a.start`.
    MetBy,
    /// `b` ends strictly before `a` starts.
    After,
}

impl AllenRelation {
    /// `true` for the relations under which the two intervals share at least
    /// one time-point.
    pub fn is_intersecting(&self) -> bool {
        !matches!(
            self,
            AllenRelation::Before
                | AllenRelation::Meets
                | AllenRelation::MetBy
                | AllenRelation::After
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(2, 7);
        assert_eq!(i.start(), 2);
        assert_eq!(i.end(), 7);
        assert_eq!(i.len(), 5);
        assert!(!i.is_unit());
        assert!(Interval::point(4).is_unit());
        assert_eq!(Interval::try_new(5, 5), None);
        assert_eq!(Interval::try_new(6, 5), None);
        assert!(Interval::try_new(5, 6).is_some());
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn empty_interval_panics() {
        let _ = Interval::new(3, 3);
    }

    #[test]
    fn containment_relations() {
        let outer = Interval::new(0, 10);
        let inner = Interval::new(3, 5);
        assert!(inner.during(outer));
        assert!(inner.during_or_equals(outer));
        assert!(outer.during_or_equals(outer));
        assert!(!outer.during(outer));
        assert!(!outer.during(inner));
        assert!(outer.contains_point(0));
        assert!(outer.contains_point(9));
        assert!(!outer.contains_point(10));
    }

    #[test]
    fn intersection_half_open_semantics() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 9);
        assert!(!a.intersects(b));
        assert!(a.meets(b));
        assert_eq!(a.intersect(b), None);
        let c = Interval::new(4, 9);
        assert_eq!(a.intersect(c), Some(Interval::new(4, 5)));
        assert!(a.intersects(c));
    }

    #[test]
    fn span_covers_the_gap() {
        let a = Interval::new(0, 3);
        let b = Interval::new(7, 9);
        assert_eq!(a.span(b), Interval::new(0, 9));
        assert_eq!(b.span(a), Interval::new(0, 9));
    }

    #[test]
    fn unbounded_intervals() {
        let i = Interval::from_start(5);
        assert_eq!(i.end(), TIME_MAX);
        assert!(i.contains_point(1_000_000_000));
        let j = Interval::until(5);
        assert!(j.contains_point(-1_000_000));
        assert!(!j.contains_point(5));
        assert_eq!(Interval::all().intersect(i), Some(i));
        assert_eq!(i.intersect(j), None); // [5,inf) vs [-inf,5)
    }

    #[test]
    fn shift_saturates_infinities() {
        let i = Interval::from_start(3).shift(2);
        assert_eq!(i, Interval::from_start(5));
        let j = Interval::until(7).shift(-2);
        assert_eq!(j, Interval::until(5));
    }

    #[test]
    fn allen_all_thirteen() {
        use AllenRelation::*;
        let rel = |a: Interval, b: Interval| a.allen(b);
        assert_eq!(rel(Interval::new(0, 2), Interval::new(5, 8)), Before);
        assert_eq!(rel(Interval::new(0, 5), Interval::new(5, 8)), Meets);
        assert_eq!(rel(Interval::new(0, 6), Interval::new(5, 8)), Overlaps);
        assert_eq!(rel(Interval::new(5, 6), Interval::new(5, 8)), Starts);
        assert_eq!(rel(Interval::new(6, 7), Interval::new(5, 8)), During);
        assert_eq!(rel(Interval::new(6, 8), Interval::new(5, 8)), Finishes);
        assert_eq!(rel(Interval::new(5, 8), Interval::new(5, 8)), Equals);
        assert_eq!(rel(Interval::new(4, 8), Interval::new(5, 8)), FinishedBy);
        assert_eq!(rel(Interval::new(4, 9), Interval::new(5, 8)), Contains);
        assert_eq!(rel(Interval::new(5, 9), Interval::new(5, 8)), StartedBy);
        assert_eq!(rel(Interval::new(6, 9), Interval::new(5, 8)), OverlappedBy);
        assert_eq!(rel(Interval::new(8, 9), Interval::new(5, 8)), MetBy);
        assert_eq!(rel(Interval::new(9, 12), Interval::new(5, 8)), After);
    }

    #[test]
    fn allen_intersecting_consistency() {
        let samples = [
            Interval::new(0, 2),
            Interval::new(0, 5),
            Interval::new(2, 5),
            Interval::new(1, 8),
            Interval::new(5, 8),
            Interval::new(7, 9),
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    a.allen(b).is_intersecting(),
                    a.intersects(b),
                    "mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Interval::new(3, 9).to_string(), "[3, 9)");
        assert_eq!(Interval::from_start(3).to_string(), "[3, inf)");
        assert_eq!(Interval::until(9).to_string(), "[-inf, 9)");
        assert_eq!(Interval::all().to_string(), "[-inf, inf)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![
            Interval::new(5, 6),
            Interval::new(0, 9),
            Interval::new(0, 3),
            Interval::new(2, 4),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Interval::new(0, 3),
                Interval::new(0, 9),
                Interval::new(2, 4),
                Interval::new(5, 6),
            ]
        );
    }
}
