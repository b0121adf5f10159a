//! Giraph-style aggregators and the MasterCompute hook.
//!
//! GRAPHITE leverages Giraph's Master-Compute pattern for coordination
//! (Sec. VI). Workers contribute partial aggregate values during a
//! superstep; the engine merges them at the barrier; the merged values are
//! visible to the master callback (which may halt the run or steer phased
//! algorithms such as SCC) and to every worker in the next superstep.

use std::collections::BTreeMap;
use std::fmt;

/// A single commutative-associative aggregate value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Agg {
    /// Minimum of `i64` contributions.
    MinI64(i64),
    /// Maximum of `i64` contributions.
    MaxI64(i64),
    /// Sum of `i64` contributions.
    SumI64(i64),
    /// Sum of `u64` contributions.
    SumU64(u64),
    /// Sum of `f64` contributions.
    SumF64(f64),
    /// Logical OR of boolean contributions.
    Or(bool),
}

impl Agg {
    fn merge(&mut self, other: Agg) {
        match (self, other) {
            (Agg::MinI64(a), Agg::MinI64(b)) => *a = (*a).min(b),
            (Agg::MaxI64(a), Agg::MaxI64(b)) => *a = (*a).max(b),
            (Agg::SumI64(a), Agg::SumI64(b)) => *a += b,
            (Agg::SumU64(a), Agg::SumU64(b)) => *a += b,
            (Agg::SumF64(a), Agg::SumF64(b)) => *a += b,
            (Agg::Or(a), Agg::Or(b)) => *a |= b,
            (a, b) => panic!("aggregator kind mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// A named set of aggregators. One instance holds either a worker's
/// partial contributions for the current superstep or the merged globals
/// from the previous one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregators {
    vals: BTreeMap<&'static str, Agg>,
}

impl Aggregators {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn contribute(&mut self, name: &'static str, v: Agg) {
        self.vals
            .entry(name)
            .and_modify(|cur| cur.merge(v))
            .or_insert(v);
    }

    /// Contributes to a minimum aggregate.
    pub fn min_i64(&mut self, name: &'static str, v: i64) {
        self.contribute(name, Agg::MinI64(v));
    }

    /// Contributes to a maximum aggregate.
    pub fn max_i64(&mut self, name: &'static str, v: i64) {
        self.contribute(name, Agg::MaxI64(v));
    }

    /// Contributes to a signed sum aggregate.
    pub fn sum_i64(&mut self, name: &'static str, v: i64) {
        self.contribute(name, Agg::SumI64(v));
    }

    /// Contributes to an unsigned sum aggregate.
    pub fn sum_u64(&mut self, name: &'static str, v: u64) {
        self.contribute(name, Agg::SumU64(v));
    }

    /// Contributes to a floating sum aggregate.
    pub fn sum_f64(&mut self, name: &'static str, v: f64) {
        self.contribute(name, Agg::SumF64(v));
    }

    /// Contributes to a boolean OR aggregate.
    pub fn or(&mut self, name: &'static str, v: bool) {
        self.contribute(name, Agg::Or(v));
    }

    /// Reads a minimum aggregate.
    pub fn get_min_i64(&self, name: &str) -> Option<i64> {
        match self.vals.get(name)? {
            Agg::MinI64(v) => Some(*v),
            _ => None,
        }
    }

    /// Reads a maximum aggregate.
    pub fn get_max_i64(&self, name: &str) -> Option<i64> {
        match self.vals.get(name)? {
            Agg::MaxI64(v) => Some(*v),
            _ => None,
        }
    }

    /// Reads an unsigned sum aggregate.
    pub fn get_sum_u64(&self, name: &str) -> Option<u64> {
        match self.vals.get(name)? {
            Agg::SumU64(v) => Some(*v),
            _ => None,
        }
    }

    /// Reads a floating sum aggregate.
    pub fn get_sum_f64(&self, name: &str) -> Option<f64> {
        match self.vals.get(name)? {
            Agg::SumF64(v) => Some(*v),
            _ => None,
        }
    }

    /// Reads a boolean OR aggregate.
    pub fn get_or(&self, name: &str) -> Option<bool> {
        match self.vals.get(name)? {
            Agg::Or(v) => Some(*v),
            _ => None,
        }
    }

    /// Merges another set of partials into this one.
    pub fn merge(&mut self, other: &Aggregators) {
        for (&name, &v) in &other.vals {
            self.contribute(name, v);
        }
    }

    /// `true` when nothing was contributed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }
}

impl fmt::Display for Aggregators {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, v)) in self.vals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {v:?}")?;
        }
        write!(f, "}}")
    }
}

/// What the master decides after seeing a superstep's merged aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterDecision {
    /// Keep going (the run still halts when no messages are in flight).
    Continue,
    /// Keep going even when no messages are in flight — phased algorithms
    /// use idle supersteps to switch phases.
    ForceContinue,
    /// Stop after this superstep even if messages are pending.
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributions_fold() {
        let mut a = Aggregators::new();
        a.min_i64("m", 5);
        a.min_i64("m", 3);
        a.min_i64("m", 9);
        a.sum_u64("s", 2);
        a.sum_u64("s", 40);
        a.or("o", false);
        a.or("o", true);
        assert_eq!(a.get_min_i64("m"), Some(3));
        assert_eq!(a.get_sum_u64("s"), Some(42));
        assert_eq!(a.get_or("o"), Some(true));
        assert_eq!(a.get_min_i64("missing"), None);
        assert_eq!(a.get_sum_u64("m"), None, "kind-checked reads");
    }

    #[test]
    fn merge_combines_workers() {
        let mut w1 = Aggregators::new();
        w1.max_i64("hi", 10);
        w1.sum_f64("rank", 0.25);
        let mut w2 = Aggregators::new();
        w2.max_i64("hi", 99);
        w2.sum_f64("rank", 0.5);
        let mut global = Aggregators::new();
        global.merge(&w1);
        global.merge(&w2);
        assert_eq!(global.get_max_i64("hi"), Some(99));
        assert!((global.get_sum_f64("rank").unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn mixing_kinds_panics() {
        let mut a = Aggregators::new();
        a.min_i64("x", 1);
        a.sum_i64("x", 1);
    }
}
