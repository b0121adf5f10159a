//! The chaos soak: the serving fault domain under adversarial load.
//!
//! Every mechanism of DESIGN.md §15 is driven to fire at least once —
//! superstep budgets, serve-level retry with escalation, poison-query
//! quarantine with seeded decay, and watermark shedding — while clean
//! queries run beside the chaos at 2, 4, and 8 in flight. The pins:
//!
//! * every query that completes is **bit-identical** to its clean solo
//!   registry run, no matter what failed next to it;
//! * every degraded outcome is a *typed* error, never a hang or a wrong
//!   answer;
//! * the shared graph and the result cache are never corrupted by a
//!   poisoned neighbor;
//! * accounting balances when the engine drains:
//!   `submitted == accepted + rejected` and
//!   `accepted == completed + failed + budget_exceeded + shed + quarantined`;
//! * the engine drains without deadlock, bounded by watchdog round
//!   counts rather than wall clock (determinism: no sleeps, no timing).

use graphite_algorithms::registry::{self, Algo, Platform};
use graphite_bsp::error::BspError;
use graphite_bsp::fault::{Fault, FaultKind, FaultMode, FaultPlan};
use graphite_bsp::recover::RecoveryConfig;
use graphite_datagen::{generate, GenParams, LifespanModel, PropModel, Topology};
use graphite_serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use std::sync::Arc;

/// Identical to the `long` profile of the concurrent digest matrix.
fn soak_profile() -> GenParams {
    GenParams {
        vertices: 150,
        edges: 900,
        snapshots: 16,
        topology: Topology::PowerLaw {
            edges_per_vertex: 6,
        },
        vertex_lifespans: LifespanModel::Full,
        edge_lifespans: LifespanModel::Geometric { mean: 12.0 },
        props: PropModel {
            mean_segment: 6.0,
            max_cost: 10,
            max_travel_time: 3,
        },
        seed: 7,
    }
}

fn source(graph: &TemporalGraph) -> VertexId {
    graph
        .vertices()
        .map(|(_, v)| v.vid)
        .min()
        .expect("non-empty graph")
}

/// The clean query mix: two ICM algorithms and one wrapper platform.
fn clean_specs(graph: &TemporalGraph) -> Vec<QuerySpec> {
    let base = QuerySpec {
        workers: 3,
        source: Some(source(graph)),
        ..QuerySpec::default()
    };
    vec![
        QuerySpec {
            algo: Algo::Bfs,
            platform: Platform::Icm,
            ..base.clone()
        },
        QuerySpec {
            algo: Algo::Eat,
            platform: Platform::Icm,
            ..base.clone()
        },
        QuerySpec {
            algo: Algo::Bfs,
            platform: Platform::Msb,
            ..base
        },
    ]
}

/// A query that terminally fails on every run: a persistent worker panic
/// with no recovery config, so each execution dies with the
/// transient-classed `WorkerPanicked`. `retries=0` keeps the soak fast —
/// serve-level retries cannot help a persistent fault anyway.
fn poison_spec(graph: &TemporalGraph) -> QuerySpec {
    QuerySpec {
        fault_plan: Some(FaultPlan::panic_at(0, 1).persistent()),
        retries: Some(0),
        ..clean_specs(graph)[0].clone()
    }
}

/// A recoverable chaos twin of the clean ICM BFS: seeded transient faults
/// plus enough checkpoint-replay budget to converge.
fn recoverable_spec(graph: &TemporalGraph, seed: u64) -> QuerySpec {
    let base = clean_specs(graph)[0].clone();
    QuerySpec {
        fault_plan: Some(FaultPlan::seeded(seed, base.workers, 6, 2)),
        recovery: Some(RecoveryConfig::every(2)),
        ..base
    }
}

fn solo_digest(graph: &Arc<TemporalGraph>, spec: &QuerySpec) -> u64 {
    registry::run(spec.algo, spec.platform, graph, None, &spec.to_opts())
        .expect("solo run must succeed")
        .digest
        .expect("digests always computed")
        .0
}

/// Watchdog bound on every retry/decay loop: generous, but a hang is a
/// test failure, not a CI timeout.
const WATCHDOG_ROUNDS: usize = 64;

#[test]
fn chaos_soak_matrix_stays_bit_identical_and_accounting_balances() {
    let graph = Arc::new(generate(&soak_profile()));
    let graph_digest_before = graph.structure_digest();
    let specs = clean_specs(&graph);
    let pins: Vec<u64> = specs.iter().map(|s| solo_digest(&graph, s)).collect();

    for in_flight in [2usize, 4, 8] {
        let engine = ServeEngine::new(
            Arc::clone(&graph),
            ServeConfig {
                max_in_flight: in_flight,
                shed_watermark: Some(in_flight + 2),
                quarantine_after: 2,
                retries: 1,
                ..ServeConfig::default()
            },
        );

        // Phase 1 — quarantine: the poison query terminally fails on
        // every run; after two failures the third submission must
        // fast-fail with the typed `Quarantined` without executing.
        let poison = poison_spec(&graph);
        let mut quarantined_at = None;
        for round in 0..WATCHDOG_ROUNDS {
            match engine.submit(poison.clone()) {
                Ok(ticket) => {
                    let err = ticket.wait().expect_err("poison query cannot succeed");
                    assert!(
                        matches!(err, BspError::WorkerPanicked { .. }),
                        "@{in_flight}: poison failure must stay typed, got: {err}"
                    );
                }
                Err(BspError::Quarantined { failures, .. }) => {
                    assert!(failures >= 2, "quarantine engaged below its threshold");
                    quarantined_at = Some(round);
                    break;
                }
                Err(e) => panic!("@{in_flight}: unexpected submit error: {e}"),
            }
        }
        assert_eq!(
            quarantined_at,
            Some(2),
            "@{in_flight}: two terminal failures must quarantine the third submission"
        );

        // Phase 2 — budget: an explicit one-superstep budget on a
        // traversal that needs more is a typed `BudgetExceeded`, and the
        // executor slot it releases serves the next query.
        let strangled = QuerySpec {
            budget: Some(1),
            ..specs[0].clone()
        };
        let err = engine
            .submit(strangled)
            .expect("budgeted query is admissible")
            .wait()
            .expect_err("one superstep cannot finish this traversal");
        assert!(
            matches!(err, BspError::BudgetExceeded { budget: 1 }),
            "@{in_flight}: expected BudgetExceeded, got: {err}"
        );

        // Phase 3 — burst under chaos until shedding fires: clean queries
        // interleaved with recoverable chaos twins, queue depth past the
        // watermark. Every Ok outcome must match its clean pin.
        let mut saw_shed = false;
        for round in 0..WATCHDOG_ROUNDS {
            let mut batch: Vec<(usize, QuerySpec)> = Vec::new();
            for rep in 0..4 {
                for (i, s) in specs.iter().enumerate() {
                    batch.push((i, s.clone()));
                    if i == 0 {
                        batch.push((0, recoverable_spec(&graph, round as u64 * 31 + rep)));
                    }
                }
            }
            let results =
                engine.serve_batch(&batch.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>());
            for ((pin_idx, _), result) in batch.iter().zip(&results) {
                match result {
                    Ok(outcome) => assert_eq!(
                        outcome.digest.expect("digest computed").0,
                        pins[*pin_idx],
                        "@{in_flight} round {round}: completed query diverged from its clean pin"
                    ),
                    Err(BspError::Shed {
                        occupancy,
                        watermark,
                    }) => {
                        assert!(
                            occupancy > watermark,
                            "@{in_flight}: shed below the watermark"
                        );
                        saw_shed = true;
                    }
                    Err(BspError::Admission { .. })
                    | Err(BspError::Quarantined { .. })
                    | Err(BspError::RecoveryExhausted { .. }) => {}
                    Err(e) => panic!("@{in_flight} round {round}: untyped degradation: {e}"),
                }
            }
            if saw_shed {
                break;
            }
        }
        assert!(
            saw_shed,
            "@{in_flight}: {WATCHDOG_ROUNDS} burst rounds never crossed the shed watermark"
        );

        // Drain is implicit: serve_batch waits for every ticket. Now the
        // books must balance and the shared state must be pristine.
        let stats = engine.stats();
        assert_eq!(
            stats.submitted,
            stats.accepted + stats.rejected,
            "@{in_flight}: submission accounting leaked"
        );
        assert_eq!(
            stats.accepted,
            stats.completed + stats.failed + stats.budget_exceeded + stats.shed + stats.quarantined,
            "@{in_flight}: drained engine has unaccounted admitted queries: {stats:?}"
        );
        let health = engine.health();
        assert!(
            health.quarantined >= 1,
            "@{in_flight}: quarantine never fired"
        );
        assert!(
            health.budget_exceeded >= 1,
            "@{in_flight}: budget never fired"
        );
        assert!(health.shed >= 1, "@{in_flight}: shedding never fired");
        assert_eq!(health.failed, stats.failed);

        // The poisoned neighbors corrupted nothing: the shared graph is
        // untouched and a fresh clean query still lands on its pin.
        assert_eq!(graph.structure_digest(), graph_digest_before);
        let fresh = engine
            .submit(specs[0].clone())
            .expect("clean query admissible after the soak")
            .wait()
            .expect("clean query must succeed after the soak");
        assert_eq!(
            fresh.digest.expect("digest computed").0,
            pins[0],
            "@{in_flight}: result cache was poisoned by the chaos"
        );

        // Budget watchdog: nothing that completed overran its derived
        // superstep ceiling (the drain above already proves no deadlock).
        let model = engine.cost_model();
        assert!(
            fresh.metrics.supersteps <= model.superstep_budget(&specs[0]),
            "@{in_flight}: completed run exceeded its own budget"
        );
    }
}

/// Serve-level retry with escalation: a fault plan that exhausts a
/// deliberately tiny inner recovery budget on the first attempt succeeds
/// on the retry, because escalation doubles `max_attempts`. The recovered
/// digest is bit-identical to the clean run.
#[test]
fn serve_retry_escalates_inner_recovery_and_recovers_bit_identically() {
    let graph = Arc::new(generate(&soak_profile()));
    let clean = clean_specs(&graph)[0].clone();
    let pin = solo_digest(&graph, &clean);
    let engine = ServeEngine::new(
        Arc::clone(&graph),
        ServeConfig {
            max_in_flight: 2,
            retries: 1,
            quarantine_after: 0,
            ..ServeConfig::default()
        },
    );
    // Two transient panics at steps 1 and 2: one replay (max_attempts=1)
    // survives the first but dies on the second → RecoveryExhausted.
    // The escalated retry (max_attempts=2) replays through both.
    let flaky = QuerySpec {
        fault_plan: Some(FaultPlan::panic_at(0, 1).and(Fault {
            worker: 1,
            step: 2,
            kind: FaultKind::WorkerPanic,
            mode: FaultMode::Transient,
        })),
        recovery: Some(RecoveryConfig {
            checkpoint_interval: 1,
            max_attempts: 1,
        }),
        ..clean
    };
    let outcome = engine
        .submit(flaky)
        .expect("flaky query is admissible")
        .wait()
        .expect("the escalated retry must recover");
    assert_eq!(
        outcome.digest.expect("digest computed").0,
        pin,
        "recovered-on-retry digest diverged from the clean run"
    );
    let stats = engine.stats();
    assert_eq!(stats.retries, 1, "exactly one serve-level retry: {stats:?}");
    assert_eq!(stats.recovered, 1, "the retry must be counted as recovered");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Seeded quarantine decay: engine-wide successful completions release a
/// quarantined key, after which the query may be resubmitted.
#[test]
fn quarantine_decay_releases_after_engine_successes() {
    let graph = Arc::new(generate(&soak_profile()));
    let specs = clean_specs(&graph);
    let engine = ServeEngine::new(
        Arc::clone(&graph),
        ServeConfig {
            max_in_flight: 1,
            quarantine_after: 1,
            retries: 0,
            ..ServeConfig::default()
        },
    );
    let poison = poison_spec(&graph);
    engine
        .submit(poison.clone())
        .expect("first poison submission is admitted")
        .wait()
        .expect_err("poison fails");
    match engine.submit(poison.clone()) {
        Err(BspError::Quarantined { .. }) => {}
        Err(e) => panic!("expected Quarantined, got: {e}"),
        Ok(_) => panic!("second submission must be quarantined"),
    }
    assert_eq!(engine.health().quarantined_now, 1);

    // Each clean completion (cache hits included) ticks decay; the
    // release horizon for one failure is at most 4 ticks.
    let mut released = false;
    for _ in 0..WATCHDOG_ROUNDS {
        engine
            .submit(specs[1].clone())
            .expect("clean query admissible")
            .wait()
            .expect("clean query succeeds");
        match engine.submit(poison.clone()) {
            Ok(ticket) => {
                // Admitted again: the ticket itself is the proof of
                // release. (Reading `health()` here would race the
                // executor, which may already have failed the poison and
                // re-quarantined the key.)
                ticket.wait().expect_err("still poison");
                released = true;
                break;
            }
            Err(BspError::Quarantined { .. }) => {}
            Err(e) => panic!("unexpected submit error during decay: {e}"),
        }
    }
    assert!(released, "seeded decay never released the quarantined key");
    // The released query failed again, and with `quarantine_after: 1`
    // that single failure re-engages quarantine immediately — decay is a
    // second chance, not an amnesty.
    assert_eq!(engine.health().quarantined_now, 1);
}

/// Chlonos and GoFFish recover like every other platform: a faulted batch
/// line on each completes through the engine with its clean twin's
/// digest, by checkpoint replay inside the run, not by a serve-level
/// retry.
#[test]
fn faulted_chlonos_and_goffish_lines_recover_to_the_clean_digest() {
    let graph = Arc::new(generate(&soak_profile()));
    let engine = ServeEngine::new(
        Arc::clone(&graph),
        ServeConfig {
            max_in_flight: 2,
            ..ServeConfig::default()
        },
    );
    let parse = |line: &str| {
        QuerySpec::parse_line(line)
            .expect("a valid batch line")
            .expect("not blank")
    };
    let mut rollbacks = 0;
    for (faulted, clean) in [
        ("bfs chl faults=2", "bfs chl"),
        ("sssp gof faults=2", "sssp gof"),
    ] {
        let spec = parse(faulted);
        assert!(spec.fault_plan.is_some() && spec.recovery.is_some());
        let outcome = engine
            .submit(spec)
            .expect("admissible")
            .wait()
            .unwrap_or_else(|e| panic!("{faulted}: {e}"));
        assert!(
            !outcome.cached,
            "{faulted}: faulted queries bypass the cache"
        );
        let digest = outcome.digest.expect("digests always computed").0;
        assert_eq!(digest, solo_digest(&graph, &parse(clean)), "{faulted}");
        rollbacks += outcome.metrics.recovery.rollbacks;
    }
    assert!(rollbacks >= 1, "no seeded fault fired");
    let stats = engine.stats();
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.failed + stats.budget_exceeded, 0, "{stats:?}");
    assert_eq!(stats.retries, 0, "recovered inside the run: {stats:?}");
    assert_eq!(stats.cache_hits, 0, "{stats:?}");
}
