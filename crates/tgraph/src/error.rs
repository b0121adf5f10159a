//! Error types for temporal-graph construction and validation.

use crate::graph::{EdgeId, VertexId};
use crate::iset::OverlapError;
use crate::time::{Interval, Time};
use std::fmt;

/// Violations of the temporal-graph soundness constraints (Sec. III,
/// Constraints 1–3) and other construction failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Constraint 1: a `vid` may exist at most once.
    DuplicateVertex(VertexId),
    /// Constraint 1: an `eid` may exist at most once.
    DuplicateEdge(EdgeId),
    /// An edge or property references a vertex that was never added.
    UnknownVertex(VertexId),
    /// A property references an edge that was never added.
    UnknownEdge(EdgeId),
    /// Constraint 2: an edge's interval must be contained in both endpoint
    /// vertices' lifespans.
    EdgeOutsideVertexLifespan {
        /// The offending edge.
        eid: EdgeId,
        /// The endpoint whose lifespan is too short.
        vid: VertexId,
        /// The edge's lifespan.
        edge: Interval,
        /// The endpoint vertex's lifespan.
        vertex: Interval,
    },
    /// Constraint 3: a property's interval must be contained in its
    /// entity's lifespan.
    PropertyOutsideLifespan {
        /// Printable owner description (`"vertex 3"` / `"edge 7"`).
        owner: String,
        /// The property's interval.
        property: Interval,
        /// The owner entity's lifespan.
        lifespan: Interval,
    },
    /// Definition 1: one label's values must not overlap in time.
    PropertyOverlap {
        /// Printable owner description.
        owner: String,
        /// The underlying overlap.
        source: OverlapError,
    },
    /// Streaming model (DESIGN.md §17): a delta may only *extend* a
    /// lifespan or property interval to the right, never shrink, shift, or
    /// detach it.
    NonMonotoneExtension {
        /// Printable owner description.
        owner: String,
        /// The interval currently stored.
        current: Interval,
        /// The requested (rejected) new end.
        requested_end: Time,
    },
    /// A property extension referenced a label with no entry on the entity.
    UnknownProperty {
        /// Printable owner description.
        owner: String,
        /// The label that has no timeline on the entity.
        label: String,
    },
    /// The incrementally-folded digest accumulators disagreed with a full
    /// re-fold from content at a compaction point — the overlay's patched
    /// graph and its carried digest have diverged.
    DigestDrift {
        /// Digest predicted by the incremental fold.
        expected: u64,
        /// Digest re-derived from the content.
        actual: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateVertex(v) => write!(f, "vertex {v:?} added twice"),
            GraphError::DuplicateEdge(e) => write!(f, "edge {e:?} added twice"),
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v:?}"),
            GraphError::UnknownEdge(e) => write!(f, "unknown edge {e:?}"),
            GraphError::EdgeOutsideVertexLifespan {
                eid,
                vid,
                edge,
                vertex,
            } => write!(
                f,
                "edge {eid:?} lifespan {edge} is not contained in vertex {vid:?} lifespan {vertex}"
            ),
            GraphError::PropertyOutsideLifespan {
                owner,
                property,
                lifespan,
            } => write!(
                f,
                "property interval {property} on {owner} exceeds its lifespan {lifespan}"
            ),
            GraphError::PropertyOverlap { owner, source } => {
                write!(f, "overlapping property values on {owner}: {source}")
            }
            GraphError::NonMonotoneExtension {
                owner,
                current,
                requested_end,
            } => write!(
                f,
                "extension of {owner} to end {requested_end} does not extend its current interval {current}"
            ),
            GraphError::UnknownProperty { owner, label } => {
                write!(f, "{owner} carries no property {label:?} to extend")
            }
            GraphError::DigestDrift { expected, actual } => write!(
                f,
                "incremental digest {expected:#018x} diverged from compacted content digest {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::EdgeOutsideVertexLifespan {
            eid: EdgeId(7),
            vid: VertexId(3),
            edge: Interval::new(0, 9),
            vertex: Interval::new(2, 5),
        };
        let s = e.to_string();
        assert!(s.contains("[0, 9)"));
        assert!(s.contains("[2, 5)"));
    }
}
