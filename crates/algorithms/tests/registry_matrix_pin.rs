//! Pins the whole `(Algo, Platform)` matrix: on two small seeded graphs
//! every supported cell must reproduce the digest and the exact primitive
//! counts in [`PINNED`]. The rows were recorded before the registry's
//! per-cell arms were folded into the algorithm catalog, so a catalog
//! entry that builds the wrong program, or pairs a program with the wrong
//! digest encoder, fails here — including the nine cells that return no
//! digest (FAST/LD everywhere, EAT/TMST/RH on TGB), which no differential
//! suite can see. The catalog's own table — names, aliases, indices, the
//! program and encoder behind every entry — is pinned the same way.
//! PageRank on MSB and Chlonos is also pinned bit for bit, since the
//! matrix digest rounds ranks to 1e-6.

use graphite_algorithms::catalog::{visit_icm, IcmParams, IcmVisitor};
use graphite_algorithms::common::ResultDigest;
use graphite_algorithms::pagerank::{VcmPageRank, DEFAULT_ITERATIONS};
use graphite_algorithms::registry::{try_run, Algo, Platform, RunError, RunOpts};
use graphite_baselines::{run_chlonos, run_msb, ChlConfig, MsbConfig, SnapshotResult};
use graphite_datagen::{generate, GenParams, LifespanModel};
use graphite_icm::{IntervalProgram, RunConfig};
use graphite_tgraph::graph::{TemporalGraph, VIdx};
use std::sync::Arc;

/// The two pinned inputs: the paper's worst case (every edge lives one
/// time-point) and its best case (edges live ~6 of 12 time-points).
fn graphs() -> [(&'static str, Arc<TemporalGraph>); 2] {
    let unit = GenParams {
        vertices: 48,
        edges: 900,
        snapshots: 8,
        edge_lifespans: LifespanModel::Unit,
        ..GenParams::small(0x15a)
    };
    let long = GenParams {
        vertices: 48,
        edges: 220,
        snapshots: 12,
        edge_lifespans: LifespanModel::Geometric { mean: 6.0 },
        ..GenParams::small(0x15b)
    };
    [
        ("unit", Arc::new(generate(&unit))),
        ("long", Arc::new(generate(&long))),
    ]
}

fn opts(workers: usize) -> RunOpts {
    RunOpts {
        workers,
        start: 1,
        ..RunOpts::default()
    }
}

/// One row per supported cell, in `graphs() × Algo::ALL × Platform::ALL`
/// order: `graph algo platform digest supersteps compute_calls
/// scatter_calls messages_sent`, run on `workers` workers.
fn matrix(workers: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for (name, graph) in graphs() {
        for algo in Algo::ALL {
            for platform in Platform::ALL {
                let outcome = match try_run(algo, platform, &graph, None, &opts(workers)) {
                    Ok(outcome) => outcome,
                    Err(RunError::Unsupported(_)) => {
                        assert!(!platform.supports(algo), "{algo:?} on {platform:?}");
                        continue;
                    }
                    Err(e) => panic!("{algo:?} on {platform:?} over {name}: {e}"),
                };
                assert!(platform.supports(algo), "{algo:?} on {platform:?}");
                let digest = outcome
                    .digest
                    .map_or_else(|| "none".to_string(), |d| format!("{:#018x}", d.0));
                let c = outcome.metrics.counters;
                rows.push(format!(
                    "{name} {} {} {digest} {} {} {} {}",
                    algo.name(),
                    platform.name(),
                    outcome.metrics.supersteps,
                    c.compute_calls,
                    c.scatter_calls,
                    c.messages_sent
                ));
            }
        }
    }
    rows
}

/// Every row holds at every worker count: placement changes which worker
/// owns a vertex, never a digest or a count.
#[test]
fn every_supported_cell_reproduces_its_pinned_row() {
    let pinned: Vec<&str> = PINNED.lines().collect();
    for workers in [1, 2, 3] {
        let actual = matrix(workers);
        assert_eq!(
            actual.len(),
            2 * 34,
            "34 supported cells per graph (12 ICM, 4+4 TI, 6 TGB, 8 GoFFish)"
        );
        assert_eq!(
            actual,
            pinned,
            "registry matrix drifted at {workers} worker(s); actual rows:\n{}",
            actual.join("\n")
        );
        let undigested = actual.iter().filter(|r| r.contains(" none ")).count();
        assert_eq!(undigested, 2 * 9, "cells without a digest");
    }
}

/// Every spelling the CLI and the serve batch format accept, against the
/// variant and the cache-key index it must keep.
#[test]
fn names_aliases_and_indices_are_pinned() {
    let algos = [
        ("bfs", Algo::Bfs),
        ("wcc", Algo::Wcc),
        ("scc", Algo::Scc),
        ("pr", Algo::Pr),
        ("sssp", Algo::Sssp),
        ("eat", Algo::Eat),
        ("fast", Algo::Fast),
        ("ld", Algo::Ld),
        ("tmst", Algo::Tmst),
        ("rh", Algo::Reach),
        ("lcc", Algo::Lcc),
        ("tc", Algo::Tc),
    ];
    assert_eq!(algos.map(|(_, a)| a), Algo::ALL);
    for (i, (lower, algo)) in algos.into_iter().enumerate() {
        assert_eq!(algo.index(), i as u64, "{algo:?}");
        assert_eq!(algo.name(), lower.to_ascii_uppercase());
        assert_eq!(Algo::parse(lower), Some(algo));
        assert_eq!(Algo::parse(algo.name()), Some(algo));
    }
    assert_eq!(Algo::parse("pagerank"), Some(Algo::Pr));
    assert_eq!(Algo::parse("PageRank"), Some(Algo::Pr));
    assert_eq!(Algo::parse("reach"), Some(Algo::Reach));

    let platforms = [
        ("icm", "graphite", Platform::Icm),
        ("msb", "msb", Platform::Msb),
        ("chl", "chlonos", Platform::Chlonos),
        ("tgb", "tgb", Platform::Tgb),
        ("gof", "goffish", Platform::Goffish),
    ];
    assert_eq!(platforms.map(|(_, _, p)| p), Platform::ALL);
    for (i, (lower, alias, platform)) in platforms.into_iter().enumerate() {
        assert_eq!(platform.index(), i as u64, "{platform:?}");
        assert_eq!(platform.name(), lower.to_ascii_uppercase());
        for spelling in [lower, alias, platform.name()] {
            assert_eq!(Platform::parse(spelling), Some(platform), "{spelling}");
        }
    }

    for junk in ["", "zfs", "bfs ", "page-rank", "vax", "icm,msb"] {
        assert_eq!(Algo::parse(junk), None, "{junk:?}");
        assert_eq!(Platform::parse(junk), None, "{junk:?}");
    }
}

/// Folds every collected `(vid, t, rank)` with the rank's exact bits.
fn rank_bits(graph: &TemporalGraph, r: &SnapshotResult<f64>) -> u64 {
    let mut d = ResultDigest::default();
    for (t, states) in &r.per_snapshot {
        for (&v, rank) in states {
            d.fold(graph.vertex(VIdx(v)).vid, *t, rank.to_bits());
        }
    }
    d.0
}

/// The registry's VCM PageRank on MSB and on Chlonos at batch sizes 1, 3
/// and 16: one row per `graph platform workers bits`. A rank's low bits
/// follow the order in which its incoming shares are summed, so this pin
/// sees what the rounded digest cannot: the order in which Chlonos visits
/// vertices. The order in which it opens runs never reaches a PageRank
/// fold (a vertex sends one share per offset); `chlonos.rs`'s
/// `parallel_sends_to_one_target_arrive_in_send_order` covers that.
fn pagerank_bit_rows() -> Vec<String> {
    let program = Arc::new(VcmPageRank {
        iterations: DEFAULT_ITERATIONS,
    });
    let mut rows = Vec::new();
    for (name, graph) in graphs() {
        let window = Some(IcmParams::resolve(&graph, None, 1, None).window);
        for workers in [1, 2, 3] {
            let run = RunConfig {
                workers,
                ..Default::default()
            };
            let msb = MsbConfig {
                run: run.clone(),
                window,
                collect_states: true,
            };
            let r = run_msb(Arc::clone(&graph), Arc::clone(&program), &msb).expect("MSB run");
            rows.push(format!(
                "{name} MSB {workers} {:#018x}",
                rank_bits(&graph, &r)
            ));
            for batch_size in [1, 3, 16] {
                let chl = ChlConfig {
                    run: run.clone(),
                    window,
                    collect_states: true,
                    batch_size,
                };
                let r = run_chlonos(Arc::clone(&graph), Arc::clone(&program), &chl)
                    .expect("Chlonos run");
                rows.push(format!(
                    "{name} CHL/{batch_size} {workers} {:#018x}",
                    rank_bits(&graph, &r)
                ));
            }
        }
    }
    rows
}

#[test]
fn pagerank_ranks_are_pinned_bit_for_bit() {
    let actual = pagerank_bit_rows();
    let pinned: Vec<&str> = PAGERANK_BITS.lines().collect();
    assert_eq!(
        actual,
        pinned,
        "PageRank bits drifted; actual rows:\n{}",
        actual.join("\n")
    );
}

/// Names the program and reports whether the entry is digested, without
/// running anything.
struct Describe;

impl IcmVisitor for Describe {
    type Out = (&'static str, bool);

    fn visit<P>(self, _program: P, encode: Option<fn(&P::State) -> u64>) -> Self::Out
    where
        P: IntervalProgram,
    {
        (std::any::type_name::<P>(), encode.is_some())
    }
}

#[test]
fn visit_icm_hands_every_algorithm_its_own_program() {
    let (_, graph) = &graphs()[1];
    let params = IcmParams::resolve(graph, None, 1, None);
    let expected = [
        ("bfs::IcmBfs", true),
        ("wcc::IcmWcc", true),
        ("scc::IcmScc", true),
        ("pagerank::IcmPageRank", true),
        ("td_paths::IcmSssp", true),
        ("td_paths::IcmEat", true),
        ("td_paths::IcmFast", false),
        ("td_paths::IcmLd", false),
        ("td_paths::IcmTmst", true),
        ("td_paths::IcmReach", true),
        ("lcc::IcmLcc", true),
        ("tc::IcmTc", true),
    ];
    for (algo, (program, digested)) in Algo::ALL.into_iter().zip(expected) {
        let (visited, encoded) = visit_icm(algo, &params, Describe);
        assert!(visited.ends_with(program), "{algo:?} built {visited}");
        assert_eq!(encoded, digested, "{algo:?}");
    }
}

const PINNED: &str = "\
unit BFS ICM 0x80e6aa8c2a4a6b97 13 650 712 712\n\
unit BFS MSB 0x80e6aa8c2a4a6b97 76 986 0 712\n\
unit BFS CHL 0x80e6aa8c2a4a6b97 13 986 0 709\n\
unit WCC ICM 0xd25e917d4d3a7a2a 7 1466 5157 5157\n\
unit WCC MSB 0xd25e917d4d3a7a2a 51 1802 0 5157\n\
unit WCC CHL 0xd25e917d4d3a7a2a 7 1802 0 4935\n\
unit SCC ICM 0xcff53107c997c215 48 4522 9866 3861\n\
unit SCC MSB 0xcff53107c997c215 243 5734 0 3861\n\
unit SCC CHL 0xcff53107c997c215 48 7030 0 3811\n\
unit PR ICM 0xc6eb3f8b02a8f783 10 3794 9000 8100\n\
unit PR MSB 0xc6eb3f8b02a8f783 80 3840 0 8100\n\
unit PR CHL 0xc6eb3f8b02a8f783 10 3840 0 8098\n\
unit SSSP ICM 0x0bdf0bc816d38886 6 441 726 726\n\
unit SSSP TGB 0x0bdf0bc816d38886 9 1143 0 1297\n\
unit SSSP GOF 0x0bdf0bc816d38886 8 384 0 485\n\
unit EAT ICM 0x67da917f115397b5 6 334 548 548\n\
unit EAT TGB none 8 862 0 694\n\
unit EAT GOF 0x67da917f115397b5 8 384 0 392\n\
unit FAST ICM none 6 452 765 765\n\
unit FAST TGB none 8 960 0 829\n\
unit FAST GOF none 8 384 0 492\n\
unit LD ICM none 6 487 789 640\n\
unit LD TGB none 6 934 0 749\n\
unit LD GOF none 8 384 0 534\n\
unit TMST ICM 0x58da3c5c4d22e964 6 357 598 598\n\
unit TMST TGB none 8 964 0 1124\n\
unit TMST GOF 0x58da3c5c4d22e964 8 384 0 392\n\
unit RH ICM 0x7960da5d44c2d851 6 317 496 496\n\
unit RH TGB none 8 862 0 694\n\
unit RH GOF 0x7960da5d44c2d851 8 384 0 392\n\
unit LCC ICM 0x9a2adc9be490cc3b 4 788 311 3086\n\
unit LCC GOF 0x9a2adc9be490cc3b 32 1124 0 3086\n\
unit TC ICM 0xe9caffd4f8ab726e 3 707 298 2979\n\
unit TC GOF 0xe9caffd4f8ab726e 24 1043 0 2979\n\
long BFS ICM 0x72c01ab71da3fd73 11 331 267 267\n\
long BFS MSB 0x72c01ab71da3fd73 78 1099 0 693\n\
long BFS CHL 0x72c01ab71da3fd73 11 1099 0 267\n\
long WCC ICM 0x5d9396db3d692313 10 1662 2093 2093\n\
long WCC MSB 0x5d9396db3d692313 80 2624 0 6529\n\
long WCC CHL 0x5d9396db3d692313 10 2624 0 2087\n\
long SCC ICM 0x8e3daa1931f8ba5d 55 4157 4298 1644\n\
long SCC MSB 0x8e3daa1931f8ba5d 312 7511 0 4139\n\
long SCC CHL 0x8e3daa1931f8ba5d 55 12839 0 1643\n\
long PR ICM 0x7f4000b92804a4a4 10 4745 9826 8800\n\
long PR MSB 0x7f4000b92804a4a4 120 5760 0 10359\n\
long PR CHL 0x7f4000b92804a4a4 10 5760 0 8791\n\
long SSSP ICM 0xfacd2051d320361f 7 198 181 181\n\
long SSSP TGB 0xfacd2051d320361f 11 1297 0 1101\n\
long SSSP GOF 0xfacd2051d320361f 12 576 0 517\n\
long EAT ICM 0xe4afcf61dbc67d85 7 170 151 151\n\
long EAT TGB none 9 1150 0 801\n\
long EAT GOF 0xe4afcf61dbc67d85 12 576 0 517\n\
long FAST ICM none 7 451 489 507\n\
long FAST TGB none 9 1150 0 801\n\
long FAST GOF none 12 576 0 534\n\
long LD ICM none 7 279 266 241\n\
long LD TGB none 10 1434 0 1164\n\
long LD GOF none 12 576 0 805\n\
long TMST ICM 0x74b60f6ddcb33581 7 170 151 151\n\
long TMST TGB none 11 1745 0 2776\n\
long TMST GOF 0x74b60f6ddcb33581 12 576 0 517\n\
long RH ICM 0x700ec23e0dd1863b 7 167 147 147\n\
long RH TGB none 9 1150 0 801\n\
long RH GOF 0x700ec23e0dd1863b 12 576 0 517\n\
long LCC ICM 0x32b6fca175fd12c3 4 693 242 2379\n\
long LCC GOF 0x32b6fca175fd12c3 48 1455 0 4067\n\
long TC ICM 0xd45e0a83e229d1c9 3 571 159 2183\n\
long TC GOF 0xd45e0a83e229d1c9 36 1332 0 3867";

const PAGERANK_BITS: &str = "\
unit MSB 1 0xe8ca045f435507ae\n\
unit CHL/1 1 0x9474e8ce66c2e7ca\n\
unit CHL/3 1 0xf1b7f44967a0afab\n\
unit CHL/16 1 0xe8ca045f435507ae\n\
unit MSB 2 0xff2f9f767a5602a0\n\
unit CHL/1 2 0x48f098366cdcca57\n\
unit CHL/3 2 0xff2f9f767a5602a0\n\
unit CHL/16 2 0xff2f9f767a5602a0\n\
unit MSB 3 0x666a7266fae34f8a\n\
unit CHL/1 3 0x0c087638f7e717db\n\
unit CHL/3 3 0x666a7266fae34f8a\n\
unit CHL/16 3 0x666a7266fae34f8a\n\
long MSB 1 0xfe3e57e7f96b2782\n\
long CHL/1 1 0x27ad90fe5e41f92d\n\
long CHL/3 1 0x5f0edb51242fac18\n\
long CHL/16 1 0xce35c00bd05934ef\n\
long MSB 2 0x5652a580e2a29cd4\n\
long CHL/1 2 0x32e425f15e2f795f\n\
long CHL/3 2 0x1f19137b08449486\n\
long CHL/16 2 0x372f736bba44653d\n\
long MSB 3 0x75953a8d6f1aba5c\n\
long CHL/1 3 0x2a3a71339ccaba76\n\
long CHL/3 3 0xa18634d6b0604712\n\
long CHL/16 3 0x502056e6764a4ecd";
