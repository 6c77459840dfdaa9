//! Concurrent multi-query stress: many threads execute over one shared
//! mediator and must see exactly the rows a sequential run produces,
//! while the shared cache/pool attribution counters stay consistent and
//! admission control sheds deterministically.

use std::sync::Arc;

use wsmed::core::{
    paper, CachePolicy, CoreError, FailureMode, QuotaPolicy, ResiliencePolicy, TracePolicy,
};
use wsmed::services::DatasetConfig;
use wsmed::store::{canonicalize, Tuple};

/// A cartesian query: every GetAllStates row triggers the *same*
/// GetInfoByState('CO') call, so concurrent queries sharing a cache
/// collapse to one real provider call.
const CARTESIAN_SQL: &str = "select gs.State, gi.GetInfoByStateResult \
     from GetAllStates gs, GetInfoByState gi where gi.USState='CO'";

fn sorted(rows: Vec<Tuple>) -> Vec<Tuple> {
    canonicalize(rows)
}

/// Sequential reference rows from an unshared, unconfigured mediator.
fn reference() -> (Vec<Tuple>, Vec<Tuple>) {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let central = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    let parallel = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .unwrap();
    (sorted(central.rows), sorted(parallel.rows))
}

#[test]
fn concurrent_queries_match_sequential_across_cache_pool_matrix() {
    let (central_ref, parallel_ref) = reference();
    let cache_configs: [Option<CachePolicy>; 3] = [
        None,
        Some(CachePolicy::default()),
        Some(CachePolicy {
            cross_run: true,
            ..Default::default()
        }),
    ];
    for cache in cache_configs {
        for pool_on in [false, true] {
            let mut setup = paper::setup(0.0, DatasetConfig::tiny());
            setup.wsmed.set_cache_policy(cache);
            setup.wsmed.enable_process_pool(pool_on);
            let med = &setup.wsmed;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..3 {
                    let central_ref = &central_ref;
                    let parallel_ref = &parallel_ref;
                    handles.push(scope.spawn(move || {
                        let tenant = format!("tenant-{t}");
                        for _ in 0..2 {
                            let plan = med.compile_central(CARTESIAN_SQL).unwrap();
                            let report = med.execute_for(&tenant, &plan).unwrap();
                            assert_eq!(&sorted(report.rows), central_ref);
                            let plan = med
                                .compile_parallel(paper::QUERY2_SQL, &vec![2, 2])
                                .unwrap();
                            let report = med.execute_for(&tenant, &plan).unwrap();
                            assert_eq!(&sorted(report.rows), parallel_ref);
                        }
                    }));
                }
                for handle in handles {
                    handle.join().expect("worker thread panicked");
                }
            });
        }
    }
}

#[test]
fn per_query_attribution_sums_to_shared_totals() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    setup.wsmed.enable_process_pool(true);
    let cache = setup.wsmed.call_cache().unwrap();
    let pool = setup.wsmed.process_pool().unwrap();

    // Hold the busy period open across all K queries so the shared
    // counters accumulate the whole experiment instead of resetting on
    // each idle→busy edge.
    cache.begin_run();
    pool.begin_run();

    let med = &setup.wsmed;
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let tenant = format!("tenant-{t}");
                    let plan = med.compile_central(CARTESIAN_SQL).unwrap();
                    let central = med.execute_for(&tenant, &plan).unwrap();
                    let plan = med
                        .compile_parallel(paper::QUERY2_SQL, &vec![2, 2])
                        .unwrap();
                    let parallel = med.execute_for(&tenant, &plan).unwrap();
                    (central, parallel)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect::<Vec<_>>()
    });

    let global_cache = cache.stats();
    let global_pool = pool.stats();
    cache.end_run();
    pool.end_run();

    let mut lookups = 0;
    let mut cross = 0;
    let mut short_circuits = 0;
    let mut warm = 0;
    let mut cold = 0;
    for (central, parallel) in &reports {
        for report in [central, parallel] {
            lookups += report.cache.hits + report.cache.misses + report.cache.dedup_waits;
            cross += report.cache.cross_query_hits;
            short_circuits += report.cache.short_circuits;
            warm += report.pool.warm_acquires;
            cold += report.pool.cold_spawns;
        }
    }
    assert_eq!(
        lookups,
        global_cache.hits + global_cache.misses + global_cache.dedup_waits,
        "per-query cache lookups must sum to the shared total"
    );
    assert_eq!(cross, global_cache.cross_query_hits);
    assert_eq!(short_circuits, global_cache.short_circuits);
    assert_eq!(warm, global_pool.warm_acquires);
    assert_eq!(cold, global_pool.cold_spawns);
    assert!(
        cross > 0,
        "four concurrent cartesian queries over one cache must share entries"
    );
}

#[test]
fn query_quota_sheds_then_recovers() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_quota_policy(QuotaPolicy {
        max_concurrent_queries: Some(1),
        ..Default::default()
    });
    // A held admission slot makes the outcome deterministic: the quota is
    // exhausted for the entire execution attempt.
    let guard = setup
        .wsmed
        .admission()
        .admit_query("hog", QuotaPolicy::default())
        .unwrap();
    let err = setup.wsmed.run_central(CARTESIAN_SQL).unwrap_err();
    assert!(
        matches!(err, CoreError::Admission { ref tenant, .. } if tenant == "default"),
        "{err:?}"
    );
    assert_eq!(setup.wsmed.admission().stats().shed_queries, 1);
    drop(guard);
    setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
}

#[test]
fn call_budget_sheds_deterministically_under_partial_mode() {
    let run = || {
        let mut setup = paper::setup(0.0, DatasetConfig::tiny());
        setup.wsmed.set_resilience_policy(ResiliencePolicy {
            failure_mode: FailureMode::Partial,
            ..Default::default()
        });
        setup.wsmed.set_quota_policy(QuotaPolicy {
            per_tenant_inflight_calls: Some(0),
            ..Default::default()
        });
        setup.wsmed.run_central(CARTESIAN_SQL).unwrap()
    };
    let first = run();
    assert!(
        first.rows.is_empty(),
        "a zero call budget strands the root call, so no rows flow"
    );
    assert_eq!(first.resilience.skipped_params, 1);
    assert!(first.resilience.admission_rejections >= 1);
    let second = run();
    assert_eq!(first.rows, second.rows);
    assert_eq!(
        first.resilience.admission_rejections,
        second.resilience.admission_rejections
    );
    assert_eq!(
        first.resilience.skipped_params,
        second.resilience.skipped_params
    );
}

#[test]
fn in_flight_run_keeps_the_config_it_started_under() {
    use wsmed::core::RouterPolicy;
    use wsmed::services::{calibration, ZipCodesService};

    // Paced, so the run is still going when the policy flips under it.
    let setup = paper::setup(0.004, DatasetConfig::tiny());
    let mut replica = calibration::zipcodes_spec();
    replica.name = format!("{}#1", ZipCodesService::PROVIDER);
    setup
        .network
        .replicate(ZipCodesService::PROVIDER, vec![replica])
        .unwrap();
    setup.wsmed.set_router_policy(Some(RouterPolicy::Weighted));
    let plan = setup.wsmed.compile_central(paper::QUERY2_SQL).unwrap();

    let undisturbed = setup.wsmed.execute(&plan).unwrap();
    assert!(undisturbed.router.decisions > 0);

    let served = || setup.network.total_metrics().calls;
    let before = served();
    let in_flight = std::thread::scope(|s| {
        let run = s.spawn(|| setup.wsmed.execute(&plan).unwrap());
        // A run takes its snapshot before its first call, and its first
        // call (GetAllStates) comes long before its first routed one.
        while served() == before {
            std::thread::yield_now();
        }
        setup.wsmed.set_router_policy(None);
        assert!(!run.is_finished(), "the flip must land mid-run");
        run.join().unwrap()
    });
    assert_eq!(sorted(in_flight.rows), sorted(undisturbed.rows.clone()));
    assert_eq!(in_flight.router.decisions, undisturbed.router.decisions);

    let next = setup.wsmed.execute(&plan).unwrap();
    assert_eq!(next.router.decisions, 0, "the next run sees the new policy");
    assert_eq!(sorted(next.rows), sorted(undisturbed.rows));
}

#[test]
fn sessions_trace_per_query_without_racing() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    let med = Arc::new(setup.wsmed);
    let handles: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|tenant| {
            let session = med.session(tenant);
            std::thread::spawn(move || {
                assert_eq!(session.tenant(), tenant);
                session
                    .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
                    .unwrap()
            })
        })
        .collect();
    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("session thread panicked"))
        .collect();
    let traces: Vec<_> = reports
        .iter()
        .map(|r| r.trace.as_ref().expect("traced run carries its own log"))
        .collect();
    assert!(
        !Arc::ptr_eq(traces[0], traces[1]),
        "each query owns a distinct trace"
    );
    for trace in traces {
        let events = trace.events();
        assert!(!events.is_empty());
        assert!(wsmed::core::obs::validate(&events).is_empty());
    }
}
