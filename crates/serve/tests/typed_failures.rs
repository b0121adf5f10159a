//! Deterministic failures on the wrapper platforms reach the client as
//! what they are. The baselines' inner engines used to panic on a spent
//! budget or an unusable worker count; the executor's `catch_unwind`
//! relabelled that `WorkerPanicked`, which is transient-classed — so a
//! failure that can only repeat was retried and counted toward
//! quarantine. Every platform now reports typed errors, and the serving
//! layer reports each exactly once.

use graphite_algorithms::registry::{Algo, Platform};
use graphite_bsp::error::BspError;
use graphite_serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite_tgraph::fixtures::transit_graph;
use std::sync::Arc;

#[test]
fn wrapper_platform_failures_are_typed_and_never_retried() {
    let engine = ServeEngine::new(
        Arc::new(transit_graph()),
        ServeConfig {
            max_in_flight: 2,
            retries: 2,
            ..ServeConfig::default()
        },
    );
    let wait = |spec: QuerySpec| {
        engine
            .submit(spec)
            .expect("admissible")
            .wait()
            .expect_err("cannot succeed")
    };

    let over_budget = QuerySpec {
        budget: Some(1),
        ..QuerySpec::new(Algo::Sssp, Platform::Tgb)
    };
    assert_eq!(wait(over_budget), BspError::BudgetExceeded { budget: 1 });

    for platform in [Platform::Msb, Platform::Chlonos, Platform::Goffish] {
        let algo = if platform == Platform::Goffish {
            Algo::Sssp
        } else {
            Algo::Bfs
        };
        let nobody = QuerySpec {
            workers: 0,
            ..QuerySpec::new(algo, platform)
        };
        let err = wait(nobody);
        assert!(
            matches!(err, BspError::Config { .. }),
            "{platform:?}: {err}"
        );
    }

    let stats = engine.stats();
    assert_eq!(
        stats.retries, 0,
        "deterministic failures retried: {stats:?}"
    );
    assert_eq!(stats.budget_exceeded, 1, "{stats:?}");
    assert_eq!(stats.failed, 3, "{stats:?}");
    assert_eq!(engine.health().quarantined_now, 0);
}
