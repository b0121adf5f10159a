//! # GRAPHITE-rs — an interval-centric temporal graph processing system
//!
//! A from-scratch Rust reproduction of *An Interval-centric Model for
//! Distributed Computing over Temporal Graphs* (Gandhi & Simmhan, ICDE
//! 2020): the ICM programming model with its time-warp operator, a
//! shared-nothing BSP substrate, the four baseline platforms the paper
//! compares against, the 12 TI/TD algorithms, dataset generators, and a
//! benchmark harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`tgraph`] — the temporal property-graph data model (Sec. III)
//! * [`bsp`] — the distributed BSP substrate (replaces Apache Giraph)
//! * [`icm`] — the interval-centric model and time-warp (Sec. IV)
//! * [`algorithms`] — the 12 algorithms in ICM and baseline forms (Sec. V)
//! * [`baselines`] — MSB, Chlonos, TGB and GoFFish-TS (Sec. VII-A3)
//! * [`part`] — pluggable temporal-aware vertex partitioning (DESIGN.md §13)
//! * [`datagen`] — seeded workload generators shaped like Table 1
//! * [`stream`] — live graph updates with incremental recomputation (§17)
//!
//! ```
//! use graphite::prelude::*;
//! use graphite::tgraph::fixtures::{transit_graph, transit_ids};
//! use std::sync::Arc;
//!
//! // Temporal SSSP over the paper's Fig. 1(a) transit network.
//! let graph = Arc::new(transit_graph());
//! let labels = AlgLabels::resolve(&graph);
//! let program = Arc::new(IcmSssp { source: transit_ids::A, labels });
//! let result = run_icm(&graph, program, &IcmConfig::default(), None).expect("ICM run");
//! assert_eq!(result.state_at(transit_ids::E, 10), Some(&5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use graphite_algorithms as algorithms;
pub use graphite_baselines as baselines;
pub use graphite_bsp as bsp;
pub use graphite_datagen as datagen;
pub use graphite_icm as icm;
pub use graphite_part as part;
pub use graphite_serve as serve;
pub use graphite_stream as stream;
pub use graphite_tgraph as tgraph;

/// The common imports for applications: graph building, the ICM engine,
/// and the stock algorithms.
pub mod prelude {
    pub use graphite_algorithms::common::AlgLabels;
    pub use graphite_algorithms::registry::{run, Algo, Platform, RunOpts};
    pub use graphite_algorithms::td_paths::{IcmEat, IcmFast, IcmLd, IcmReach, IcmSssp, IcmTmst};
    pub use graphite_algorithms::{
        bfs::IcmBfs, lcc::IcmLcc, pagerank::IcmPageRank, scc::IcmScc, tc::IcmTc, wcc::IcmWcc,
    };
    pub use graphite_icm::prelude::*;
    pub use graphite_tgraph::prelude::*;
}
