//! Failure injection: provider faults must surface as clean errors, tear
//! the process tree down without leaks, and leave the mediator usable.
//! With structured tracing enabled, the event stream must stay
//! well-formed through every failure path — including faults landing
//! inside an adaptation window, faults during warm-pool reattach, and
//! abrupt child kills whose in-flight parameters are requeued.

use wsmed::core::{obs, paper, AdaptiveConfig, CoreError, TraceEventKind, TracePolicy};
use wsmed::netsim::FaultSpec;
use wsmed::services::{DatasetConfig, GeoPlacesService, UsZipService, ZipCodesService};

/// Reads a trace until its lifecycle story is quiescent (pool parking is
/// asynchronous), then asserts it is well-formed and returns the events.
fn settled_events(trace: &wsmed::core::TraceLog) -> Vec<wsmed::core::TraceEvent> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let events = trace.events();
        let violations = obs::validate(&events);
        if violations.is_empty() {
            return events;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "trace never settled: {violations:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn fault_in_coordinator_section_fails_fast() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    // GetAllStates runs in the coordinator; failing its first call kills
    // the query before any children do work.
    let geo = setup.network.provider(GeoPlacesService::PROVIDER).unwrap();
    geo.set_fault(FaultSpec {
        fail_first: 1,
        ..Default::default()
    });
    let err = setup
        .wsmed
        .run_parallel(paper::QUERY1_SQL, &vec![2, 2])
        .unwrap_err();
    assert!(matches!(err, CoreError::Net(_)), "unexpected error {err:?}");
    assert_eq!(setup.network.total_metrics().faults, 1);
}

#[test]
fn fault_in_level_one_provider_propagates() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let uszip = setup.network.provider(UsZipService::PROVIDER).unwrap();
    uszip.set_fault(FaultSpec::every(5));
    let err = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 2])
        .unwrap_err();
    match err {
        CoreError::ProcessFailure(msg) => {
            assert!(
                msg.contains("GetInfoByState"),
                "error should name the operation: {msg}"
            )
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn fault_in_leaf_provider_propagates_through_two_levels() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::every(10));
    let err = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .unwrap_err();
    match err {
        CoreError::ProcessFailure(msg) => {
            assert!(
                msg.contains("GetPlacesInside"),
                "error should name the operation: {msg}"
            )
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn mediator_recovers_after_fault_cleared() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();

    zip.set_fault(FaultSpec::every(3));
    assert!(setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .is_err());

    zip.set_fault(FaultSpec::none());
    let ok = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .unwrap();
    assert_eq!(ok.row_count(), 1);
}

#[test]
fn adaptive_plan_also_fails_cleanly() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec {
        fail_probability: 0.2,
        ..Default::default()
    });
    let result = setup
        .wsmed
        .run_adaptive(paper::QUERY2_SQL, &AdaptiveConfig::default());
    assert!(result.is_err(), "20% faults must kill the query");
}

#[test]
fn no_thread_leak_after_repeated_failures() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::every(2));
    for _ in 0..5 {
        let _ = setup.wsmed.run_parallel(paper::QUERY2_SQL, &vec![3, 3]);
    }
    zip.set_fault(FaultSpec::none());
    // If child threads leaked, the runtime would accumulate processes; a
    // fresh run must still report exactly the requested tree and succeed.
    let ok = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 3])
        .unwrap();
    assert_eq!(ok.tree.levels[1].alive, 3);
    assert_eq!(ok.tree.levels[2].alive, 9);
    assert_eq!(ok.row_count(), 1);
}

#[test]
fn partial_results_are_not_returned_on_failure() {
    // A query that fails midway must error, not silently return a subset.
    let setup = paper::setup(0.0, DatasetConfig::small());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    // Fail late: plenty of tuples already produced when the fault hits.
    zip.set_fault(FaultSpec::every(200));
    let result = setup.wsmed.run_parallel(paper::QUERY2_SQL, &vec![3, 2]);
    assert!(result.is_err());
}

/// Up to `max_attempts` tries per call at the default fixed backoff;
/// everything else off.
fn attempts(max_attempts: usize) -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts,
        ..Default::default()
    }
}

#[test]
fn retry_policy_recovers_from_transient_faults() {
    // Every 3rd call faults; with 3 attempts per call every parameter
    // eventually succeeds (retries draw fresh call sequence numbers).
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::every(3));

    // Without retries the query dies on the first faulting call.
    assert!(setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .is_err());

    setup.wsmed.set_resilience_policy(attempts(3));
    let ok = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("retries should absorb every-3rd faults");
    assert_eq!(ok.row_count(), 1);
    // Faults really happened and were retried through.
    assert!(zip.metrics().faults > 0);
}

#[test]
fn retry_policy_does_not_mask_permanent_faults() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    // Everything fails, forever.
    zip.set_fault(FaultSpec {
        fail_probability: 1.0,
        ..Default::default()
    });
    setup.wsmed.set_resilience_policy(attempts(3));
    assert!(setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .is_err());

    // The central plan dies on its first ZipCodes call, so the faults it
    // adds are that one call's attempts. Zero attempts would mean "never
    // call at all", which no caller can mean: it makes exactly one.
    for (max_attempts, made) in [(0, 1), (1, 1), (3, 3)] {
        let before = zip.metrics().faults;
        setup.wsmed.set_resilience_policy(attempts(max_attempts));
        assert!(setup.wsmed.run_central(paper::QUERY2_SQL).is_err());
        assert_eq!(zip.metrics().faults - before, made, "{max_attempts}");
    }
}

#[test]
fn fault_inside_adaptation_window_surfaces_with_trace() {
    // The every-40th fault lands well after the first monitoring cycles
    // have run add stages, i.e. *inside* the adaptation window — the run
    // must die cleanly (never hang) and its trace must stay well-formed,
    // with cycle decisions recorded before the failure.
    let mut setup = paper::setup(0.0, DatasetConfig::small());
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::every(40));

    let plan = setup
        .wsmed
        .compile_adaptive(paper::QUERY2_SQL, &AdaptiveConfig::default())
        .expect("query compiles");
    let (result, trace) = setup.wsmed.execute_traced(&plan);
    let err = result.unwrap_err();
    assert!(matches!(err, CoreError::ProcessFailure(_)), "{err:?}");

    let trace = trace.expect("failed run still traced");
    let events = settled_events(&trace);
    let cycles = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Cycle { .. }))
        .count();
    assert!(cycles > 0, "fault must land after adaptation began");
    let run_end_ok = events.iter().find_map(|e| match e.kind {
        TraceEventKind::RunEnd { ok, .. } => Some(ok),
        _ => None,
    });
    assert_eq!(run_end_ok, Some(false), "trace must record the failed run");
}

#[test]
fn retry_exhaustion_during_adaptation_errors_not_hangs() {
    // 30% per-call fault probability: two attempts per call exhaust on
    // the first call whose retry also rolls a fault. The adaptive run
    // must surface the exhaustion as a query error — completion of this
    // test at all proves no hang — and the trace must carry the retry
    // attempts it burned.
    let mut setup = paper::setup(0.0, DatasetConfig::small());
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    setup.wsmed.set_resilience_policy(attempts(2));
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec {
        fail_probability: 0.3,
        ..Default::default()
    });

    let plan = setup
        .wsmed
        .compile_adaptive(paper::QUERY2_SQL, &AdaptiveConfig::default())
        .expect("query compiles");
    let (result, trace) = setup.wsmed.execute_traced(&plan);
    assert!(result.is_err(), "30% faults must exhaust 2 attempts");

    let trace = trace.expect("failed run still traced");
    let events = settled_events(&trace);
    let max_attempt = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::RetryAttempt { attempt, .. } => Some(attempt),
            _ => None,
        })
        .max();
    assert_eq!(
        max_attempt,
        Some(2),
        "exhaustion means a second attempt ran"
    );
}

#[test]
fn fault_during_warm_pool_reattach_errors_cleanly() {
    // Run 1 parks a warm tree; a total outage then makes the reattached
    // run 2 fail; clearing the fault lets run 3 succeed again — and every
    // traced stream stays well-formed across park / reattach / teardown.
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    setup.wsmed.enable_process_pool(true);
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();

    let ok1 = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("clean first run");
    settled_events(ok1.trace.as_ref().unwrap());
    let pool = setup.wsmed.process_pool().unwrap().clone();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while pool.idle_total() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(pool.idle_total() > 0, "first run parked nothing");

    zip.set_fault(FaultSpec {
        fail_probability: 1.0,
        ..Default::default()
    });
    let plan2 = setup
        .wsmed
        .compile_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("query compiles");
    let (result2, trace2) = setup.wsmed.execute_traced(&plan2);
    let err = result2.unwrap_err();
    assert!(matches!(err, CoreError::ProcessFailure(_)), "{err:?}");
    let trace2 = trace2.expect("failed run still traced");
    let events2 = settled_events(&trace2);
    assert!(
        events2
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::ChildSpawn { warm: true })),
        "second run must have reattached warm processes"
    );

    zip.set_fault(FaultSpec::none());
    let ok3 = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("recovery after clearing the fault");
    assert_eq!(ok3.row_count(), 1);
    settled_events(ok3.trace.as_ref().unwrap());
}

#[test]
fn requeued_params_appear_exactly_once_in_trace() {
    use std::sync::Arc;
    use wsmed::core::{ExecContext, RunConfig, SimTransport, Wsmed};
    use wsmed::netsim::{Network, SimConfig};
    use wsmed::services::{install_paper_services, Dataset};
    use wsmed::store::canonicalize;

    // Build the paper world by hand so the cloned registry can feed a
    // standalone ExecContext (the abrupt-kill knob lives there).
    let sim = SimConfig::new(0.0, 0x5EED_1CDE);
    let network = Network::new(sim.clone());
    let dataset = Arc::new(Dataset::generate(DatasetConfig::tiny()));
    let registry = install_paper_services(network, dataset);
    let mut wsmed = Wsmed::new(registry.clone());
    wsmed.import_all_wsdl().expect("paper services import");
    let plan = wsmed
        .compile_parallel(paper::QUERY2_SQL, &vec![3, 2])
        .expect("compile Query2");
    let clean = wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 2])
        .expect("reference run");

    let mut cfg = RunConfig::default();
    cfg.trace = TracePolicy::enabled();
    // After 2 end-of-call messages the coordinator abruptly kills one
    // busy child and requeues its in-flight parameters.
    cfg.kill_child_after_eocs = 2;
    let ctx = ExecContext::new(
        Arc::new(SimTransport::new(registry)) as Arc<dyn wsmed::core::WsTransport>,
        Arc::new(wsmed.owfs().clone()),
        sim,
        cfg,
    );
    let report = ctx.run_plan(&plan).expect("run survives the child kill");

    // The kill did not lose or duplicate rows…
    assert_eq!(
        canonicalize(report.rows.clone()),
        canonicalize(clean.rows.clone())
    );

    // …and the trace tells the story exactly once: one abrupt kill, one
    // requeue event, and every level-1 parameter dispatched exactly
    // `initial + requeued` times.
    let events = settled_events(report.trace.as_ref().unwrap());
    let requeues: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Requeue { params, .. } => Some(params),
            _ => None,
        })
        .collect();
    assert_eq!(
        requeues.len(),
        1,
        "exactly one requeue recorded: {events:?}"
    );

    let op_params: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::OpRunStart { params } if e.node == 0 => Some(params),
            _ => None,
        })
        .sum();
    let dispatched: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::CallDispatched { params } if e.level == 1 => Some(params),
            _ => None,
        })
        .sum();
    assert_eq!(
        dispatched,
        op_params + requeues[0],
        "requeued params must be re-dispatched exactly once"
    );
}

#[test]
fn retry_policy_ignores_non_transient_errors() {
    // A bad query fails identically with or without retries.
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_resilience_policy(attempts(5));
    assert!(setup
        .wsmed
        .run_central("select gs.Bogus from GetAllStates gs")
        .is_err());
}

// ---------------------------------------------------------------------------
// Resilient transport: deadlines, breakers, hedging, partial degradation.
// ---------------------------------------------------------------------------

use wsmed::core::{BreakerPolicy, FailureMode, HedgePolicy, ResiliencePolicy};

/// Query2's chain without the final `ToPlace` filter: the zip is in the
/// projection, so a dropped `GetPlacesInside` parameter is visible as a
/// missing distinct zip — exact skip accounting is checkable row-side.
const UNFILTERED_Q2: &str = "\
    select gp.ToState, gp.zip \
    From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
    Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
      and gc.zipcode=gp.zip";

fn distinct_zips(rows: &[wsmed::store::Tuple]) -> std::collections::BTreeSet<String> {
    rows.iter().map(|r| r.values()[1].render()).collect()
}

#[test]
fn deadline_converts_hangs_into_timeouts_and_retries_recover() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let clean = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("clean run");

    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    // Hangs are seq-keyed: a retry draws a fresh sequence number, so a
    // bounded retry budget recovers every hang the deadline exposes.
    zip.set_fault(FaultSpec::hang_every(7));
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 3,
        deadline_model_secs: Some(5.0),
        ..ResiliencePolicy::default()
    });
    let report = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("deadline + retries absorb hangs");
    assert_eq!(
        wsmed::store::canonicalize(report.rows.clone()),
        wsmed::store::canonicalize(clean.rows.clone())
    );
    assert!(
        report.resilience.deadline_exceeded > 0,
        "hangs must surface as deadline hits: {:?}",
        report.resilience
    );
    assert!(report.resilience.retries > 0);
    // The network counted the cut-off calls as timeouts.
    let (_, zip_metrics) = setup
        .network
        .metrics_by_provider()
        .into_iter()
        .find(|(name, _)| name == ZipCodesService::PROVIDER)
        .unwrap();
    assert!(zip_metrics.timeouts > 0);
}

#[test]
fn without_deadline_hangs_charge_their_full_stall() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::hang_every(10));
    let before = setup.network.model_time();
    setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 2])
        .expect("hangs without a deadline still terminate (finite stall)");
    let charged = setup.network.model_time() - before;
    // Every hang stalls `hang_model_secs` (600) model seconds: even one
    // dwarfs the whole clean query.
    assert!(
        charged > 600.0,
        "hung calls must be charged their stall ({charged:.1} model-s)"
    );
}

#[test]
fn partial_mode_drops_failing_params_with_exact_accounting() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let clean = setup
        .wsmed
        .run_parallel(UNFILTERED_Q2, &vec![2, 2])
        .expect("clean run");
    let clean_zips = distinct_zips(&clean.rows);

    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    // Args-keyed faults: the same zips fail on every attempt, so retries
    // cannot mask the drop and the skip count is schedule-independent.
    zip.set_fault(FaultSpec {
        fail_probability: 0.1,
        keyed_by_args: true,
        ..FaultSpec::default()
    });
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 2,
        failure_mode: FailureMode::Partial,
        ..ResiliencePolicy::default()
    });
    let report = setup
        .wsmed
        .run_parallel(UNFILTERED_Q2, &vec![2, 2])
        .expect("partial mode survives the faults");
    let kept_zips = distinct_zips(&report.rows);
    assert!(kept_zips.is_subset(&clean_zips));
    let lost = clean_zips.len() - kept_zips.len();
    assert!(lost > 0, "a 10% keyed fault rate must drop something");
    assert_eq!(
        report.resilience.skipped_params as usize, lost,
        "every missing zip is exactly one recorded skip: {:?}",
        report.resilience
    );
    assert_eq!(
        report.resilience.skipped_by_owf,
        vec![("GetPlacesInside".to_owned(), lost as u64)]
    );
    // No rows duplicated: per-zip multiplicities match the clean run.
    let clean_subset: Vec<_> = clean
        .rows
        .iter()
        .filter(|r| kept_zips.contains(&r.values()[1].render()))
        .cloned()
        .collect();
    assert_eq!(
        wsmed::store::canonicalize(report.rows.clone()),
        wsmed::store::canonicalize(clean_subset)
    );
}

#[test]
fn abort_mode_still_fails_fast_under_the_same_faults() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec {
        fail_probability: 0.1,
        keyed_by_args: true,
        ..FaultSpec::default()
    });
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 2,
        failure_mode: FailureMode::Abort,
        ..ResiliencePolicy::default()
    });
    assert!(setup
        .wsmed
        .run_parallel(UNFILTERED_Q2, &vec![2, 2])
        .is_err());
}

#[test]
fn materialized_baseline_honours_the_failure_mode() {
    // The WSQ/DSQ baseline makes each call with the central plan's per-row
    // body, so under partial mode it drops the rows the central plan drops
    // (args-keyed faults fail the same zips in both runs), and under abort
    // mode both fail.
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec {
        fail_probability: 0.2,
        keyed_by_args: true,
        ..FaultSpec::default()
    });
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        failure_mode: FailureMode::Partial,
        ..ResiliencePolicy::default()
    });
    let central = setup.wsmed.run_central(UNFILTERED_Q2).unwrap();
    assert!(central.resilience.skipped_params > 0, "nothing was skipped");
    let materialized = setup
        .wsmed
        .run_materialized(UNFILTERED_Q2)
        .expect("partial mode survives the faults");
    assert_eq!(
        wsmed::store::canonicalize(materialized),
        wsmed::store::canonicalize(central.rows)
    );

    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        failure_mode: FailureMode::Abort,
        ..ResiliencePolicy::default()
    });
    assert!(setup.wsmed.run_central(UNFILTERED_Q2).is_err());
    assert!(setup.wsmed.run_materialized(UNFILTERED_Q2).is_err());
}

#[test]
fn breaker_opens_and_recovers_during_central_execution() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let uszip = setup.network.provider(UsZipService::PROVIDER).unwrap();
    // The first six GetInfoByState calls fail outright; the breaker
    // trips after two, probes (cooldown 0 admits immediately), re-opens
    // on failed probes, and closes on the first good call.
    uszip.set_fault(FaultSpec {
        fail_first: 6,
        ..FaultSpec::default()
    });
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        breaker: Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown_model_secs: 0.0,
            half_open_probes: 1,
            probe_after_rejections: 0,
        }),
        failure_mode: FailureMode::Partial,
        ..ResiliencePolicy::default()
    });
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    let report = setup
        .wsmed
        .run_central(paper::QUERY2_SQL)
        .expect("partial mode rides out the cold start");
    let r = &report.resilience;
    assert!(r.breaker_opens >= 2, "open + re-opens from probes: {r:?}");
    assert_eq!(r.breaker_closes, 1, "one recovery: {r:?}");
    assert_eq!(
        r.skipped_params, 6,
        "each failed call drops one param: {r:?}"
    );
    // The trace tells the same story.
    let events = settled_events(report.trace.as_ref().unwrap());
    let opens = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::BreakerOpen { .. }))
        .count();
    let closes = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::BreakerClose { .. }))
        .count();
    let skips = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::ParamSkipped { .. }))
        .count();
    assert_eq!(opens as u64, r.breaker_opens);
    assert_eq!(closes as u64, r.breaker_closes);
    assert_eq!(skips as u64, r.skipped_params);
}

#[test]
fn open_breaker_rejections_drop_params_in_partial_mode() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let uszip = setup.network.provider(UsZipService::PROVIDER).unwrap();
    uszip.set_fault(FaultSpec {
        fail_probability: 1.0,
        ..FaultSpec::default()
    });
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        breaker: Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown_model_secs: 1e9,
            half_open_probes: 1,
            probe_after_rejections: 0,
        }),
        failure_mode: FailureMode::Partial,
        ..ResiliencePolicy::default()
    });
    let report = setup
        .wsmed
        .run_central(paper::QUERY2_SQL)
        .expect("everything downstream of the dead provider is dropped");
    let r = &report.resilience;
    assert!(report.rows.is_empty());
    assert_eq!(r.breaker_opens, 1);
    assert!(
        r.breaker_rejections > 0,
        "calls after the trip are rejected without hitting the network: {r:?}"
    );
    // Only the pre-trip calls reached the provider.
    let (_, m) = setup
        .network
        .metrics_by_provider()
        .into_iter()
        .find(|(name, _)| name == UsZipService::PROVIDER)
        .unwrap();
    assert_eq!(m.faults, 2, "the breaker stopped the rest");
}

#[test]
fn hedged_requests_win_against_hangs_without_corrupting_results() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let clean = setup
        .wsmed
        .run_parallel(UNFILTERED_Q2, &vec![2, 2])
        .expect("clean run");

    // Paced, unlike the rest of this file: at time scale 0 neither the
    // hedge delay nor the deadline takes any time, and whether a hedge
    // launches before its hung primary has already timed out is an OS race
    // (this test failed 5 runs in 8). At 4 ms per model second the hung
    // primary is charged its 5 model-s deadline as 20 ms of sleep, and the
    // hedge launched 0.5 model-s (2 ms) in has answered long before that.
    // Goes back to 0 with the virtual clock of ROADMAP item 2.
    let mut setup = paper::setup(0.004, DatasetConfig::tiny());
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::hang_every(6));
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 2,
        deadline_model_secs: Some(5.0),
        hedge: Some(HedgePolicy {
            delay_model_secs: 0.5,
        }),
        failure_mode: FailureMode::Partial,
        ..ResiliencePolicy::default()
    });
    let report = setup
        .wsmed
        .run_parallel(UNFILTERED_Q2, &vec![2, 2])
        .expect("hedges + deadline ride out the hangs");
    let r = &report.resilience;
    assert!(r.hedges_launched > 0, "hedges must launch: {r:?}");
    assert!(
        r.hedge_wins > 0,
        "a hedge must beat at least one hung primary: {r:?}"
    );
    // Hedge losers are dropped below the caching layer: the result is a
    // subset of the clean multiset, never an embellished one.
    let mut clean_rows = clean.rows.clone();
    for row in &report.rows {
        let i = clean_rows
            .iter()
            .position(|c| c == row)
            .expect("no duplicated or invented row");
        clean_rows.swap_remove(i);
    }
}

/// One central Query2 at time scale 0 through every resilient layer at
/// once, where each decision is a function of the seed: the leaf provider
/// replicated ×3 under weighted routing (replica `#1` failing with
/// probability `replica_faults`), an unreplicated provider that faults and
/// hangs on seeded call sequences, breakers that open, three attempts with
/// seeded jitter under a deadline, and `hedge`. Returns the report and the
/// run's transcript: the replay summary, then every trace event's kind in
/// order, without timestamps.
fn resilient_central(
    hedge: Option<HedgePolicy>,
    replica_faults: f64,
) -> (wsmed::core::ExecutionReport, String) {
    use wsmed::core::RouterPolicy;
    use wsmed::services::calibration;

    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    let extras = (1..=2)
        .map(|i| {
            let mut spec = calibration::zipcodes_spec();
            spec.name = format!("{}#{i}", ZipCodesService::PROVIDER);
            spec
        })
        .collect();
    setup
        .network
        .replicate(ZipCodesService::PROVIDER, extras)
        .expect("leaf replicates");
    setup.wsmed.set_router_policy(Some(RouterPolicy::Weighted));
    setup.wsmed.reseed_profiles();
    let flaky = format!("{}#1", ZipCodesService::PROVIDER);
    setup
        .network
        .provider(&flaky)
        .unwrap()
        .set_fault(FaultSpec {
            fail_probability: replica_faults,
            ..FaultSpec::default()
        });
    let uszip = setup.network.provider(UsZipService::PROVIDER).unwrap();
    uszip.set_fault(FaultSpec {
        fail_probability: 0.3,
        hang_probability: 0.1,
        ..FaultSpec::default()
    });
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 3,
        backoff_model_secs: 0.5,
        backoff_multiplier: 2.0,
        backoff_jitter_frac: 0.25,
        deadline_model_secs: Some(3.0),
        breaker: Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown_model_secs: 4.0,
            half_open_probes: 1,
            probe_after_rejections: 4,
        }),
        hedge,
        failure_mode: FailureMode::Partial,
    });
    setup.wsmed.set_trace_policy(TracePolicy::enabled());
    let report = setup
        .wsmed
        .run_central(paper::QUERY2_SQL)
        .expect("partial mode rides out the faults");
    let events = settled_events(report.trace.as_ref().expect("traced"));
    let mut transcript = obs::replay_transcript(&events);
    for e in &events {
        transcript.push_str(&format!("{:?}\n", e.kind));
    }
    (report, transcript)
}

#[test]
fn resilient_central_run_is_pinned() {
    use wsmed::core::{ProviderResilience, ResilienceStats, RouterStats};
    use wsmed::trafficgen::fnv1a;

    let zip = ZipCodesService::PROVIDER;
    let uszip = UsZipService::PROVIDER;
    let pair = |group: &str, replica: &str| (group.to_owned(), replica.to_owned());

    // A hedge that some charges exceed: it launches on the slower calls,
    // reroutes to another replica, and beats two hung primaries.
    let hedge = Some(HedgePolicy {
        delay_model_secs: 0.45,
    });
    let (report, transcript) = resilient_central(hedge, 0.5);
    assert_eq!(report.ws_calls, 239);
    assert_eq!(report.rows.len(), 1);
    let zip_faults = ProviderResilience {
        retries: 10,
        breaker_opens: 8,
        breaker_rejections: 10,
    };
    let uszip_faults = ProviderResilience {
        retries: 16,
        breaker_opens: 6,
        breaker_rejections: 18,
    };
    assert_eq!(
        report.resilience,
        ResilienceStats {
            retries: 26,
            deadline_exceeded: 0,
            hedges_launched: 80,
            hedge_wins: 2,
            breaker_opens: 14,
            breaker_half_opens: 14,
            breaker_closes: 4,
            breaker_rejections: 28,
            skipped_params: 18,
            admission_rejections: 0,
            per_provider: vec![
                (zip.to_owned(), zip_faults),
                (uszip.to_owned(), uszip_faults)
            ],
            per_replica: vec![
                (pair(zip, &format!("{zip}#1")), zip_faults),
                (pair(uszip, uszip), uszip_faults),
            ],
            skipped_by_owf: vec![("GetInfoByState".to_owned(), 18)],
        }
    );
    assert_eq!(
        report.router,
        RouterStats {
            decisions: 109,
            failovers: 10,
            hedge_reroutes: 46,
            membership_events: 0,
            per_replica: vec![
                (pair(zip, zip), 51),
                (pair(zip, &format!("{zip}#1")), 17),
                (pair(zip, &format!("{zip}#2")), 41),
            ],
        }
    );
    // Only routed calls are counted per replica: the unreplicated
    // provider is never a routing group.
    assert!(report
        .router
        .per_replica
        .iter()
        .all(|((g, _), _)| g != uszip));
    assert_eq!(fnv1a(transcript.as_bytes()), 0x772d_97ca_b857_f6b9);

    // A hedge whose delay exceeds every charge never launches, so the run
    // is the run without a hedge. One thing differs by design: a
    // configured hedge draws its alternate replica from the weighted
    // rotation up front, launched or not, so the primaries take every
    // other turn and the transcripts agree once the routed replica's name
    // is masked. The per-replica tallies still agree: 72 decisions walk
    // the 9-slot capacity strip (3 replicas × 3) 8 times either way.
    let (plain, plain_transcript) = resilient_central(None, 0.0);
    let never = Some(HedgePolicy {
        delay_model_secs: 1e9,
    });
    let (unlaunched, unlaunched_transcript) = resilient_central(never, 0.0);
    let project = |r: &wsmed::core::ExecutionReport| {
        (
            r.ws_calls,
            r.ws_bytes,
            r.rows.clone(),
            r.resilience.clone(),
            r.router.clone(),
        )
    };
    assert_eq!(project(&plain), project(&unlaunched));
    assert_eq!(plain.resilience.hedges_launched, 0);
    let mask = |t: &str| {
        t.lines()
            .map(|line| match line.find("replica: ") {
                Some(at) if line.starts_with("RouteDecision") => &line[..at],
                _ => line,
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(mask(&plain_transcript), mask(&unlaunched_transcript));
}
