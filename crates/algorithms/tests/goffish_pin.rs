//! Pins every GoFFish cell's per-snapshot states. The registry digests
//! only six of the eight GoFFish algorithms (FAST and LD publish none), so
//! this suite hashes the raw `per_snapshot` table of all eight — every
//! (time-point, vertex, state) the walk recorded, in walk order — plus the
//! run's compute calls and messages, on the transit fixture and on
//! eighth-scale USRN and Twitter profiles. The hashes were recorded while
//! GoFFish still rescanned the temporal adjacency on every compute call;
//! the snapshot CSR it reads now must reproduce them exactly.

use graphite_algorithms::catalog::IcmParams;
use graphite_algorithms::{gof_cluster, gof_paths};
use graphite_baselines::goffish::{run_goffish, GofConfig, GofProgram};
use graphite_baselines::EdgeWeights;
use graphite_datagen::{generate, Profile};
use graphite_icm::RunConfig;
use graphite_tgraph::fixtures::transit_graph;
use graphite_tgraph::graph::TemporalGraph;
use std::fmt::Debug;
use std::sync::Arc;

/// FNV-1a over the bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A profile at one eighth of its scale-1 vertex and edge budget.
fn eighth(profile: Profile, seed: u64) -> Arc<TemporalGraph> {
    let mut params = profile.params(1, seed);
    params.vertices /= 8;
    params.edges /= 8;
    Arc::new(generate(&params))
}

fn graphs() -> [(&'static str, Arc<TemporalGraph>); 3] {
    [
        ("transit", Arc::new(transit_graph())),
        ("usrn/8", eighth(Profile::Usrn, 11)),
        ("twitter/8", eighth(Profile::Twitter, 11)),
    ]
}

/// The registry's GoFFish configuration for `params`, on `workers` workers.
fn config(params: &IcmParams, workers: usize) -> GofConfig {
    GofConfig {
        run: RunConfig {
            workers,
            ..Default::default()
        },
        window: Some(params.window),
        collect_states: true,
        weights: EdgeWeights {
            w1: params.labels.travel_cost,
            w2: params.labels.travel_time,
        },
    }
}

/// Runs `program` under GoFFish with `config` and returns `hash
/// compute_calls messages_sent`.
fn pin<P: GofProgram>(graph: &Arc<TemporalGraph>, config: &GofConfig, program: P) -> String
where
    P::State: Debug,
{
    let r = run_goffish(Arc::clone(graph), Arc::new(program), config).expect("GoFFish run");
    let mut h = Fnv::new();
    for (t, states) in &r.per_snapshot {
        h.feed(&t.to_le_bytes());
        let mut vertices: Vec<&u32> = states.keys().collect();
        vertices.sort_unstable();
        for v in vertices {
            h.feed(&v.to_le_bytes());
            h.feed(format!("{:?};", states[v]).as_bytes());
        }
    }
    let c = r.metrics.counters;
    format!("{:#018x} {} {}", h.0, c.compute_calls, c.messages_sent)
}

/// `graph algo hash compute_calls messages_sent`, one row per cell.
fn rows(workers: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for (name, graph) in graphs() {
        let params = IcmParams::resolve(&graph, None, 1, None);
        let config = config(&params, workers);
        let IcmParams {
            source,
            start,
            deadline,
            ..
        } = params;
        let cells = [
            ("SSSP", pin(&graph, &config, gof_paths::GofSssp { source })),
            (
                "EAT",
                pin(&graph, &config, gof_paths::GofEat { source, start }),
            ),
            ("FAST", pin(&graph, &config, gof_paths::GofFast { source })),
            (
                "LD",
                pin(
                    &graph,
                    &config,
                    gof_paths::GofLd {
                        target: source,
                        deadline,
                    },
                ),
            ),
            (
                "TMST",
                pin(&graph, &config, gof_paths::GofTmst { source, start }),
            ),
            (
                "RH",
                pin(&graph, &config, gof_paths::GofReach { source, start }),
            ),
            ("LCC", pin(&graph, &config, gof_cluster::GofLcc)),
            ("TC", pin(&graph, &config, gof_cluster::GofTc)),
        ];
        for (algo, pinned) in cells {
            rows.push(format!("{name} {algo} {pinned}"));
        }
    }
    rows
}

/// Recorded before GoFFish moved onto `SnapshotTopology`.
const PINNED: &[&str] = &[
    "transit SSSP 0xc6662f4745f0cd29 54 10",
    "transit EAT 0x9ab95d8395bf52e6 54 10",
    "transit FAST 0x3cb1d12859b64782 54 10",
    "transit LD 0xff2b92ebcfab861e 54 0",
    "transit TMST 0x3625dc6c43c70d84 54 10",
    "transit RH 0xdb660c3aa9e15c42 54 10",
    "transit LCC 0x9e67feeeffe3f3a0 68 14",
    "transit TC 0x9e67feeeffe3f3a0 68 14",
    "usrn/8 SSSP 0x5d19ed804f70c98e 29952 73984",
    "usrn/8 EAT 0x905c6ecc35681906 29952 72896",
    "usrn/8 FAST 0xd4e17b920dec9151 29952 74170",
    "usrn/8 LD 0x118c18c6ffc253a5 29952 73984",
    "usrn/8 TMST 0x5ff487efcf83a2e9 29952 72896",
    "usrn/8 RH 0xe9080533ab1bee35 29952 72896",
    "usrn/8 LCC 0x412d79ba49457d25 87552 386304",
    "usrn/8 TC 0x412d79ba49457d25 87552 386304",
    "twitter/8 SSSP 0xdf6bb6e8b6eff417 3593 36433",
    "twitter/8 EAT 0x90f59b2b8039ac30 3593 35526",
    "twitter/8 FAST 0x8334b4b97821f79a 3593 36832",
    "twitter/8 LD 0x5b62e4ef33b2929d 3593 36708",
    "twitter/8 TMST 0x114694d57fe7d5d4 3593 35526",
    "twitter/8 RH 0xd0dce376d02f25b1 3593 35526",
    "twitter/8 LCC 0x5ddb2c1746946d02 13889 596976",
    "twitter/8 TC 0x441638b89132f251 10470 521450",
];

/// The states and counts do not depend on which worker owns a vertex.
#[test]
fn goffish_per_snapshot_states_match_the_pins() {
    for workers in [1, 2, 3] {
        assert_eq!(rows(workers), PINNED, "workers={workers}");
    }
}
