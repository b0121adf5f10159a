//! Temporal property values and timelines (Sec. III, `L`, `AV`, `AE`).
//!
//! A property is a `(label, value, interval)` triple attached to a vertex or
//! edge. A label may hold distinct values over non-overlapping intervals
//! within the entity's lifespan. Labels are interned to compact `LabelId`s
//! so hot algorithm loops never compare strings.
//!
//! An entity's timelines are staged in a [`Properties`] row: the builder's
//! and the delta write set's shape for vertices and edges alike. The frozen
//! graph keeps only vertex rows, behind the copy-on-write handle: cloning a
//! graph (which is what a live-update freeze is, `crate::delta`) copies one
//! pointer per vertex, and only the vertices a batch edits get a row of
//! their own. Edge rows are refined into the graph's segment column, which
//! is their only store (`crate::graph`).

use crate::iset::{IntervalMap, OverlapError};
use crate::time::{Interval, Time};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned property-label identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

/// A typed temporal property value.
///
/// The paper's algorithms only need numeric edge properties
/// (`travel-time`, `travel-cost`), but the model permits arbitrary typed
/// values, so we provide the usual property-graph scalar types.
#[derive(Clone, Debug, PartialEq)]
pub enum PropValue {
    /// 64-bit signed integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// Boolean flag.
    Bool(bool),
    /// UTF-8 text.
    Text(String),
}

impl PropValue {
    /// The value as `i64` when it is a `Long`.
    pub fn as_long(&self) -> Option<i64> {
        match self {
            PropValue::Long(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Long(v)
    }
}
impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::Double(v)
    }
}
impl From<bool> for PropValue {
    fn from(v: bool) -> Self {
        PropValue::Bool(v)
    }
}
impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue::Text(v.to_owned())
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Long(v) => write!(f, "{v}"),
            PropValue::Double(v) => write!(f, "{v}"),
            PropValue::Bool(v) => write!(f, "{v}"),
            PropValue::Text(v) => write!(f, "{v:?}"),
        }
    }
}

/// Bidirectional label ↔ `LabelId` interner shared by a graph.
#[derive(Clone, Debug, Default)]
pub struct LabelInterner {
    names: Vec<String>,
    index: HashMap<String, LabelId>,
}

impl LabelInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.index.get(name).copied()
    }

    /// The label string for `id`.
    pub fn name(&self, id: LabelId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no label was interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One label's timeline inside a [`Properties`] row.
type Timeline = (LabelId, IntervalMap<PropValue>);

/// All temporal properties of a single vertex or edge: one timeline per
/// label, each a gap-permitting [`IntervalMap`] of values.
///
/// The handle is **copy-on-write**: an entity's timelines are one shared
/// allocation (`Arc<[Timeline]>`, the slice stored inline behind the
/// reference counts), so `clone` is a pointer copy and a live-updated graph
/// shares every vertex row it has not edited with the epochs frozen before
/// it (DESIGN.md §§16.1, 17.1). An edit goes through `Arc::make_mut` — in
/// place while the row is unshared (the builder's case), one row copy
/// otherwise. An entity without properties holds no allocation at all.
/// Reads take the same two hops as a plain `Vec` of timelines would:
/// handle → row, row → the timeline's entries.
#[derive(Clone, Debug, Default)]
pub struct Properties {
    timelines: Option<Arc<[Timeline]>>,
}

impl Properties {
    /// No properties.
    pub fn new() -> Self {
        Self::default()
    }

    fn rows(&self) -> &[Timeline] {
        self.timelines.as_deref().unwrap_or(&[])
    }

    /// Inserts `value` for `label` over `interval`; errors when the label
    /// already has a value on an overlapping interval (data-model
    /// Definition 1: timelines per label are non-overlapping).
    pub fn insert(
        &mut self,
        label: LabelId,
        interval: Interval,
        value: PropValue,
    ) -> Result<(), OverlapError> {
        let at = self.rows().iter().position(|(l, _)| *l == label);
        if let (Some(at), Some(rows)) = (at, self.timelines.as_mut()) {
            return Arc::make_mut(rows)[at].1.insert(interval, value);
        }
        // First value under this label: the row grows by one timeline,
        // which re-allocates it (labels per entity are a handful). An
        // unshared row hands its timelines over instead of cloning them.
        let mut timeline = IntervalMap::new();
        timeline.insert(interval, value)?;
        let last = std::iter::once((label, timeline));
        self.timelines = Some(match self.timelines.take() {
            None => last.collect(),
            Some(mut old) => match Arc::get_mut(&mut old) {
                Some(own) => own
                    .iter_mut()
                    .map(|(l, tl)| (*l, std::mem::take(tl)))
                    .chain(last)
                    .collect(),
                None => old.iter().cloned().chain(last).collect(),
            },
        });
        Ok(())
    }

    /// Moves the end of `label`'s right-most entry to `new_end` (the
    /// streaming property extension, `crate::delta`). The caller has
    /// checked that the entry exists and that `new_end` lies past its end;
    /// nothing can sit to its right, so no overlap can arise.
    pub(crate) fn extend_last(&mut self, label: LabelId, new_end: Time) {
        let at = self.rows().iter().position(|(l, _)| *l == label);
        if let (Some(at), Some(rows)) = (at, self.timelines.as_mut()) {
            Arc::make_mut(rows)[at].1.extend_last(new_end);
        }
    }

    /// The timeline for `label`, if any value was ever set.
    pub fn timeline(&self, label: LabelId) -> Option<&IntervalMap<PropValue>> {
        self.rows()
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, tl)| tl)
    }

    /// The value of `label` at time-point `t`.
    pub fn value_at(&self, label: LabelId, t: Time) -> Option<&PropValue> {
        self.timeline(label)?.value_at(t)
    }

    /// The entry of `label` containing time-point `t`, with its interval.
    pub(crate) fn entry_at(&self, label: LabelId, t: Time) -> Option<(Interval, &PropValue)> {
        self.timeline(label)?.entry_at(t)
    }

    /// Iterates `(label, interval, value)` over all timelines.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, Interval, &PropValue)> + '_ {
        self.rows()
            .iter()
            .flat_map(|(l, tl)| tl.iter().map(move |(iv, v)| (*l, iv, v)))
    }

    /// Distinct labels present.
    pub fn labels(&self) -> impl Iterator<Item = LabelId> + '_ {
        self.rows().iter().map(|(l, _)| *l)
    }

    /// `true` when no property is set.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_none()
    }

    /// Total number of `(label, interval, value)` entries.
    pub fn len(&self) -> usize {
        self.rows().iter().map(|(_, tl)| tl.len()).sum()
    }

    /// `true` when both handles point at the same shared row (or both
    /// hold none) — the copy-on-write tests' probe.
    #[cfg(test)]
    pub(crate) fn shares_row_with(&self, other: &Properties) -> bool {
        match (&self.timelines, &other.timelines) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop_value_conversions() {
        assert_eq!(PropValue::from(3i64).as_long(), Some(3));
        assert_eq!(PropValue::from(2.5f64), PropValue::Double(2.5));
        assert_eq!(PropValue::from(2.5f64).as_long(), None);
        assert_eq!(PropValue::from(true), PropValue::Bool(true));
        assert_eq!(PropValue::from("hi"), PropValue::Text("hi".into()));
        assert_eq!(PropValue::from("hi").as_long(), None);
    }

    #[test]
    fn interner_round_trip() {
        let mut i = LabelInterner::new();
        let a = i.intern("travel-time");
        let b = i.intern("travel-cost");
        let a2 = i.intern("travel-time");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.name(a), Some("travel-time"));
        assert_eq!(i.get("travel-cost"), Some(b));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn properties_timeline_semantics() {
        let mut p = Properties::new();
        let cost = LabelId(0);
        let time = LabelId(1);
        p.insert(cost, Interval::new(3, 5), 4i64.into()).unwrap();
        p.insert(cost, Interval::new(5, 6), 3i64.into()).unwrap();
        p.insert(time, Interval::new(0, 10), 1i64.into()).unwrap();
        assert_eq!(p.value_at(cost, 4).and_then(PropValue::as_long), Some(4));
        assert_eq!(p.value_at(cost, 5).and_then(PropValue::as_long), Some(3));
        assert_eq!(p.value_at(cost, 6), None);
        assert_eq!(p.value_at(time, 6).and_then(PropValue::as_long), Some(1));
        // Overlap within one label is rejected.
        assert!(p.insert(cost, Interval::new(4, 6), 9i64.into()).is_err());
        // Same interval under a different label is fine.
        assert!(p.insert(time, Interval::new(10, 12), 2i64.into()).is_ok());
        assert_eq!(p.len(), 4);
        assert_eq!(p.labels().count(), 2);
    }

    #[test]
    fn clones_share_the_row_until_one_side_edits() {
        let (cost, time) = (LabelId(0), LabelId(1));
        let mut a = Properties::new();
        assert!(a.shares_row_with(&Properties::new()), "empty holds no row");
        a.insert(cost, Interval::new(0, 4), 1i64.into()).unwrap();
        let frozen = a.clone();
        assert!(a.shares_row_with(&frozen));
        // Every kind of edit detaches the editor and leaves the clone as
        // it was: a value under an existing label, a new label, a widened
        // entry, and a rejected insert (which changes neither).
        a.insert(cost, Interval::new(4, 6), 2i64.into()).unwrap();
        assert!(!a.shares_row_with(&frozen));
        a.insert(time, Interval::new(0, 6), 3i64.into()).unwrap();
        a.extend_last(cost, 9);
        assert!(a.insert(cost, Interval::new(8, 12), 9i64.into()).is_err());
        assert_eq!(frozen.len(), 1);
        assert_eq!(frozen.value_at(cost, 4), None);
        assert_eq!(frozen.timeline(time).map(IntervalMap::len), None);
        let got: Vec<_> = a.iter().map(|(l, iv, v)| (l, iv, v.as_long())).collect();
        assert_eq!(
            got,
            vec![
                (cost, Interval::new(0, 4), Some(1)),
                (cost, Interval::new(4, 9), Some(2)),
                (time, Interval::new(0, 6), Some(3)),
            ]
        );
        // An unshared row is edited where it is.
        let before = a.clone();
        drop(before);
        let again = a.clone();
        a.extend_last(time, 7);
        assert_eq!(again.value_at(time, 6), None);
        assert_eq!(a.value_at(time, 6).and_then(PropValue::as_long), Some(3));
    }
}
