//! `graphite-stream`: live graph updates with incremental recomputation
//! (DESIGN.md §17).
//!
//! The batch engine (`graphite-icm`) computes over a `TemporalGraph`
//! frozen at load time; this crate keeps results *current* against a
//! stream of timestamped update batches:
//!
//! * [`graphite_tgraph::delta`] (re-exported through the prelude)
//!   validates [`GraphDelta`](graphite_tgraph::delta::GraphDelta)
//!   batches and patches them into the frozen CSR columns, with the
//!   structure digest folded incrementally and each epoch a flat clone;
//! * [`resume`] wraps any monotone
//!   [`IntervalProgram`](graphite_icm::prelude::IntervalProgram) so it
//!   re-converges from a previous fixpoint, re-seeding only the vertices
//!   whose warp alignment the batch changed;
//! * [`engine`] is the resident [`StreamEngine`](engine::StreamEngine):
//!   per ingested batch it refreshes the graph, warm-starts every
//!   registered algorithm (BFS / EAT / Reachability), and on a
//!   deterministic cadence verifies the incremental results digest-equal
//!   to a from-scratch recomputation;
//! * [`io`] persists update streams as `graphite-updates/1` text.
//!
//! Correctness is pinned by the differential matrix in
//! `tests/differential.rs`: after **every** batch, the incremental result
//! digest equals the from-scratch digest, across algorithms × worker
//! counts × perturb seeds × partition strategies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod io;
pub mod resume;

/// The common imports: `use graphite_stream::prelude::*;`.
pub mod prelude {
    pub use crate::engine::{
        batch_trace, AlgoSpec, BatchReport, StreamConfig, StreamEngine, StreamError,
    };
    pub use crate::io::{load_updates, read_updates, save_updates, write_updates};
    pub use crate::resume::{dirty_vertices, Resumed};
    pub use graphite_tgraph::delta::{DeltaOverlay, GraphDelta};
}
