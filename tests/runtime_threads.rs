//! The query-process runtime's thread budget.
//!
//! Query processes are tasks on `W` = `available_parallelism()` worker
//! threads, started on the first spawn, and every wait on the call path —
//! paced model time, a hedge's delay — is a timer, not a thread. So a tree,
//! paced or not, hedged or not, must never run on more than `W` threads
//! besides the caller's, and a central plan, which spawns no process, must
//! start none, paced or not. This is the only test in its binary: the
//! runtime is process-wide, and `/proc/self/task` counts every thread of the
//! test process.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use wsmed::core::{paper, AdaptiveConfig, FailureMode, HedgePolicy, ResiliencePolicy};
use wsmed::netsim::FaultSpec;
use wsmed::services::{DatasetConfig, ZipCodesService};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

/// Query2 without its state filter, as `failure_injection` hedges it.
const UNFILTERED_Q2: &str = "\
    select gp.ToState, gp.zip \
    From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
    Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
      and gc.zipcode=gp.zip";

#[test]
fn query_processes_run_on_the_worker_set_alone() {
    let setup = paper::setup(0.0, DatasetConfig::small());
    let central = setup.wsmed.compile_central(paper::QUERY1_SQL).unwrap();
    let tree = setup
        .wsmed
        .compile_parallel(paper::QUERY1_SQL, &vec![5, 4])
        .unwrap();
    let paced = paper::setup(0.002, DatasetConfig::small());
    let paced_central = paced.wsmed.compile_central(paper::QUERY1_SQL).unwrap();

    // The hedged, paced set-up of `failure_injection`'s
    // `hedged_requests_win_against_hangs_without_corrupting_results`.
    let mut hedged = paper::setup(0.004, DatasetConfig::tiny());
    let zip = hedged.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::hang_every(6));
    hedged.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 2,
        deadline_model_secs: Some(5.0),
        hedge: Some(HedgePolicy {
            delay_model_secs: 0.5,
        }),
        failure_mode: FailureMode::Partial,
        ..ResiliencePolicy::default()
    });

    let before = threads();
    setup.wsmed.execute(&central).unwrap();
    assert_eq!(threads(), before, "a central plan started a thread");
    paced.wsmed.execute(&paced_central).unwrap();
    assert_eq!(threads(), before, "a paced central plan started a thread");

    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let budget = before + workers + 1; // + the watcher
    let done = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    // Runs `workload` while the watcher samples the thread count, and
    // checks the peak against the budget.
    let watched = |what: &str, workload: &dyn Fn()| {
        done.store(false, Ordering::Release);
        peak.store(0, Ordering::Release);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    peak.fetch_max(threads(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            workload();
            done.store(true, Ordering::Release);
        });
        let peak = peak.load(Ordering::Acquire);
        assert!(
            peak <= budget,
            "{peak} threads during {what}: more than the {before} before, \
             {workers} workers and the watcher"
        );
    };

    watched("Query1 on {5,4}", &|| {
        for _ in 0..20 {
            let report = setup.wsmed.execute(&tree).unwrap();
            assert_eq!(
                report.tree.levels[2].alive, 20,
                "the whole {{5,4}} tree ran"
            );
        }
    });
    watched("paced adaptive Query1", &|| {
        for _ in 0..5 {
            paced
                .wsmed
                .run_adaptive(paper::QUERY1_SQL, &AdaptiveConfig::default())
                .unwrap();
        }
    });
    watched("hedged paced Query2 on {2,2}", &|| {
        let report = hedged
            .wsmed
            .run_parallel(UNFILTERED_Q2, &vec![2, 2])
            .expect("hedges + deadline ride out the hangs");
        assert!(report.resilience.hedges_launched > 0, "no hedge launched");
    });
}
