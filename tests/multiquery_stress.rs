//! Concurrent multi-query stress: many threads execute over one shared
//! mediator and must see exactly the rows a sequential run produces,
//! while each query's cache attribution accounts for exactly the provider
//! calls it issued and admission control sheds deterministically.

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
    // One attempt per call: every cache miss is exactly one provider call.
    setup
        .wsmed
        .set_resilience_policy(ResiliencePolicy::default());
    let cache = setup.wsmed.call_cache().unwrap();

    // Hold the cache's busy period open across all K queries so they
    // share entries even if the scheduler happens to serialize them.
    cache.begin_run();
    let calls_before = setup.network.total_metrics().calls;

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

    let provider_calls = setup.network.total_metrics().calls - calls_before;
    cache.end_run();

    // The oracle is the providers' own call count, which no cache or
    // pool counter feeds: each run's misses are the calls it issued, and
    // together the runs issued every call the providers served.
    let mut ws_calls = 0;
    let mut cross = 0;
    for (central, parallel) in &reports {
        for report in [central, parallel] {
            assert_eq!(report.cache.misses, report.ws_calls);
            ws_calls += report.ws_calls;
            cross += report.cache.cross_query_hits;
        }
    }
    assert_eq!(
        ws_calls, provider_calls,
        "per-query call counts must sum to the calls the providers served"
    );
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
