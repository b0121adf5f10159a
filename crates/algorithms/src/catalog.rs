//! The algorithm catalog: the one place that knows which algorithms
//! exist, what they are called, how `(Algo, params)` becomes an
//! interval-centric program, and how that program's state folds into the
//! result digest.
//!
//! Every layer that runs a *named* algorithm — [`crate::registry`], the
//! streaming engine, the serving layer's batch parser, the CLI — goes
//! through this module: names through [`Algo::parse`] /
//! [`Platform::parse`], programs through [`visit_icm`]. Adding an
//! algorithm is its program, one [`Algo`] variant and one [`visit_icm`]
//! line (DESIGN.md §7).
//!
//! [`visit_icm`] is a *generic visitor*, not a trait object: the visitor's
//! `visit::<P>` is monomorphised per program exactly as a hand-written
//! `match` arm would be, so the dispatch costs one call per run and
//! nothing on a per-superstep or per-message path is dynamic.

use crate::common::AlgLabels;
use crate::{bfs, lcc, pagerank, scc, tc, td_paths, wcc};
use graphite_icm::IntervalProgram;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::snapshot::snapshot_window;
use graphite_tgraph::time::{Interval, Time};

/// The paper's 12 algorithms (Sec. VII-A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Breadth-first search (TI).
    Bfs,
    /// Weakly connected components (TI).
    Wcc,
    /// Strongly connected components (TI).
    Scc,
    /// PageRank (TI).
    Pr,
    /// Temporal single-source shortest path (TD).
    Sssp,
    /// Earliest arrival time (TD).
    Eat,
    /// Fastest path (TD).
    Fast,
    /// Latest departure (TD).
    Ld,
    /// Time-minimum spanning tree (TD).
    Tmst,
    /// Temporal reachability (TD).
    Reach,
    /// Local clustering coefficient (TD clustering).
    Lcc,
    /// Triangle counting (TD clustering).
    Tc,
}

impl Algo {
    /// All twelve, in the paper's order (= declaration order, so
    /// [`Algo::index`] is the position here).
    pub const ALL: [Algo; 12] = [
        Algo::Bfs,
        Algo::Wcc,
        Algo::Scc,
        Algo::Pr,
        Algo::Sssp,
        Algo::Eat,
        Algo::Fast,
        Algo::Ld,
        Algo::Tmst,
        Algo::Reach,
        Algo::Lcc,
        Algo::Tc,
    ];

    /// Whether this is a time-independent algorithm.
    pub fn is_ti(&self) -> bool {
        matches!(self, Algo::Bfs | Algo::Wcc | Algo::Scc | Algo::Pr)
    }

    /// Short display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Wcc => "WCC",
            Algo::Scc => "SCC",
            Algo::Pr => "PR",
            Algo::Sssp => "SSSP",
            Algo::Eat => "EAT",
            Algo::Fast => "FAST",
            Algo::Ld => "LD",
            Algo::Tmst => "TMST",
            Algo::Reach => "RH",
            Algo::Lcc => "LCC",
            Algo::Tc => "TC",
        }
    }

    /// Parses a user-facing algorithm name (CLI flag, serve batch line):
    /// [`Algo::name`] in any case, plus the long forms `pagerank` and
    /// `reach`.
    pub fn parse(s: &str) -> Option<Algo> {
        let alias = match s.to_ascii_lowercase().as_str() {
            "pagerank" => "pr",
            "reach" => "rh",
            _ => s,
        };
        Algo::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(alias))
    }

    /// Stable index of this algorithm in [`Algo::ALL`] (the serving
    /// layer's cache-key encoding).
    pub fn index(self) -> u64 {
        self as u64
    }
}

/// The five platforms of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// GRAPHITE / the interval-centric model.
    Icm,
    /// Multi-snapshot baseline (TI).
    Msb,
    /// Chronos clone (TI).
    Chlonos,
    /// Transformed-graph baseline (TD).
    Tgb,
    /// GoFFish-TS (TD).
    Goffish,
}

impl Platform {
    /// All five, in declaration order (so [`Platform::index`] is the
    /// position here).
    pub const ALL: [Platform; 5] = [
        Platform::Icm,
        Platform::Msb,
        Platform::Chlonos,
        Platform::Tgb,
        Platform::Goffish,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::Icm => "ICM",
            Platform::Msb => "MSB",
            Platform::Chlonos => "CHL",
            Platform::Tgb => "TGB",
            Platform::Goffish => "GOF",
        }
    }

    /// Parses a user-facing platform name: [`Platform::name`] in any
    /// case, plus the long forms `graphite`, `chlonos` and `goffish`.
    pub fn parse(s: &str) -> Option<Platform> {
        let alias = match s.to_ascii_lowercase().as_str() {
            "graphite" => "icm",
            "chlonos" => "chl",
            "goffish" => "gof",
            _ => s,
        };
        Platform::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(alias))
    }

    /// Stable index of this platform in [`Platform::ALL`].
    pub fn index(self) -> u64 {
        self as u64
    }

    /// Whether `algo` runs on this platform, mirroring the paper's matrix:
    /// TI algorithms on ICM/MSB/Chlonos; TD algorithms on ICM/TGB/GoFFish,
    /// except the clustering pair on TGB (the transformation is
    /// path-family-specific).
    pub fn supports(&self, algo: Algo) -> bool {
        match self {
            Platform::Icm => true,
            Platform::Msb | Platform::Chlonos => algo.is_ti(),
            Platform::Goffish => !algo.is_ti(),
            Platform::Tgb => {
                matches!(
                    algo,
                    Algo::Sssp | Algo::Eat | Algo::Fast | Algo::Ld | Algo::Tmst | Algo::Reach
                )
            }
        }
    }
}

/// The semantic parameters of one run, resolved once against the graph it
/// runs on: every defaulted option is a concrete value here, so the
/// program constructors below and the baseline cells of the registry read
/// the same numbers.
#[derive(Clone, Copy, Debug)]
pub struct IcmParams {
    /// Traversal source (LD: the target).
    pub source: VertexId,
    /// Journey start time (EAT/TMST/RH).
    pub start: Time,
    /// Deadline (LD).
    pub deadline: Time,
    /// The snapshot window results are digested over.
    pub window: Interval,
    /// The edge-property labels the TD algorithms read.
    pub labels: AlgLabels,
}

impl IcmParams {
    /// Resolves the parameters of a run over `graph`: `source` defaults to
    /// the smallest vertex id, `deadline` to the window's last time-point.
    pub fn resolve(
        graph: &TemporalGraph,
        source: Option<VertexId>,
        start: Time,
        deadline: Option<Time>,
    ) -> Self {
        let window = snapshot_window(graph).unwrap_or_else(|| Interval::new(0, 1));
        let smallest_vid = || graph.vertices().map(|(_, v)| v.vid).min();
        IcmParams {
            source: source.or_else(smallest_vid).unwrap_or(VertexId(0)),
            start,
            deadline: deadline.unwrap_or(window.end() - 1),
            window,
            labels: AlgLabels::resolve(graph),
        }
    }
}

/// What a caller does with an algorithm's interval-centric program once
/// the catalog has built it (run it, resume it, only inspect it, ...).
pub trait IcmVisitor {
    /// What the visit produces.
    type Out;

    /// Receives the program for the visited algorithm and the encoder
    /// that folds one of its states into the per-(vertex, time-point)
    /// result digest — `None` for the algorithms whose results are not
    /// digested (FAST, LD).
    fn visit<P>(self, program: P, encode: Option<fn(&P::State) -> u64>) -> Self::Out
    where
        P: IntervalProgram;
}

/// Digest encoders, shared with the baseline cells of the registry whose
/// state types coincide with the interval-centric ones.
pub(crate) mod enc {
    use crate::{pagerank, scc, td_paths};

    pub(crate) fn long(s: &i64) -> u64 {
        *s as u64
    }
    pub(crate) fn flag(s: &bool) -> u64 {
        u64::from(*s)
    }
    pub(crate) fn label(s: &u64) -> u64 {
        *s
    }
    pub(crate) fn scc(s: &scc::SccState) -> u64 {
        s.0
    }
    /// A PageRank value, quantized to 1e-6 like `ResultDigest::fold_f64`.
    pub(crate) fn rank(s: &f64) -> u64 {
        (s * 1e6).round() as u64
    }
    pub(crate) fn pr(s: &pagerank::PrState) -> u64 {
        rank(&s.1)
    }
    pub(crate) fn tmst(s: &td_paths::TmstState) -> u64 {
        (s.0 as u64).wrapping_mul(31).wrapping_add(s.1)
    }
}

/// Builds `algo`'s interval-centric program from `params` and hands it,
/// with its digest encoder, to `visitor`.
///
/// This is the only `match` in the workspace that names the ICM program
/// types. Every state type is wire-encodable, so any visit may run over
/// the checkpoint/rollback driver.
pub fn visit_icm<V: IcmVisitor>(algo: Algo, params: &IcmParams, visitor: V) -> V::Out {
    let IcmParams {
        source,
        start,
        deadline,
        labels,
        ..
    } = *params;
    match algo {
        Algo::Bfs => visitor.visit(bfs::IcmBfs { source }, Some(enc::long)),
        Algo::Wcc => visitor.visit(wcc::IcmWcc, Some(enc::label)),
        Algo::Scc => visitor.visit(scc::IcmScc, Some(enc::scc)),
        Algo::Pr => {
            let iterations = pagerank::DEFAULT_ITERATIONS;
            visitor.visit(pagerank::IcmPageRank { iterations }, Some(enc::pr))
        }
        Algo::Sssp => visitor.visit(td_paths::IcmSssp { source, labels }, Some(enc::long)),
        Algo::Eat => {
            let program = td_paths::IcmEat {
                source,
                start,
                labels,
            };
            visitor.visit(program, Some(enc::long))
        }
        Algo::Fast => visitor.visit(td_paths::IcmFast { source, labels }, None),
        Algo::Ld => {
            let program = td_paths::IcmLd {
                target: source,
                deadline,
                labels,
            };
            visitor.visit(program, None)
        }
        Algo::Tmst => {
            let program = td_paths::IcmTmst {
                source,
                start,
                labels,
            };
            visitor.visit(program, Some(enc::tmst))
        }
        Algo::Reach => {
            let program = td_paths::IcmReach {
                source,
                start,
                labels,
            };
            visitor.visit(program, Some(enc::flag))
        }
        Algo::Lcc => visitor.visit(lcc::IcmLcc, Some(enc::label)),
        Algo::Tc => visitor.visit(tc::IcmTc, Some(enc::label)),
    }
}
