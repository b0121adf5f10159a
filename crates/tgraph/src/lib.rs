//! # graphite-tgraph — the temporal property-graph data model
//!
//! This crate implements Sec. III of *An Interval-centric Model for
//! Distributed Computing over Temporal Graphs* (ICDE 2020): a directed
//! temporal multigraph `G = (V, E, L, AV, AE)` whose vertices, edges and
//! property values carry half-open lifespans over a discrete time domain,
//! together with the interval algebra, snapshot windows, the time-expanded
//! ("transformed") graph used by the TGB baseline, dataset statistics and
//! text persistence.
//!
//! Quick tour:
//!
//! ```
//! use graphite_tgraph::prelude::*;
//!
//! let mut b = TemporalGraphBuilder::new();
//! b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
//! b.add_vertex(VertexId(2), Interval::new(0, 10)).unwrap();
//! b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(2, 7)).unwrap();
//! b.edge_property(EdgeId(1), "travel-cost", Interval::new(2, 7), 4i64.into()).unwrap();
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.lifespan(), Interval::new(0, 10));
//! let v1 = g.vertex_index(VertexId(1)).unwrap();
//! assert_eq!(g.out_degree(v1), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod delta;
pub mod error;
pub mod fixtures;
pub mod graph;
pub mod io;
pub mod iset;
pub mod property;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod transform;

/// The common imports: `use graphite_tgraph::prelude::*;`.
pub mod prelude {
    pub use crate::builder::TemporalGraphBuilder;
    pub use crate::delta::{DeltaOverlay, GraphDelta};
    pub use crate::error::GraphError;
    pub use crate::graph::{EIdx, EdgeData, EdgeId, TemporalGraph, VIdx, VertexData, VertexId};
    pub use crate::iset::{IntervalMap, IntervalPartition};
    pub use crate::property::{LabelId, PropValue, Properties};
    pub use crate::snapshot::{is_topology_static, snapshot_window};
    pub use crate::time::{Interval, Time, TIME_MAX, TIME_MIN};
}
