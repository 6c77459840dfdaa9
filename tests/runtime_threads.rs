//! The query-process runtime's thread budget.
//!
//! Query processes are tasks on `W` = `available_parallelism()` worker
//! threads, started on the first spawn, and every wait on the call path —
//! paced model time, a hedge's delay — is a timer, not a thread. So a tree,
//! paced or not, hedged or not, must never run on more than `W` threads
//! besides the caller's, and a central plan, which spawns no process, must
//! start none, paced or not. The WSQ/DSQ baseline's burst, a task per call
//! of a level, runs on the same `W` workers. This is the only test in its
//! binary: the runtime is process-wide, and `/proc/self/task` counts every
//! thread of the test process.

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

    // The WSQ/DSQ baseline's burst: every call of a level at once.
    let burst = paper::setup(0.0005, DatasetConfig::tiny());

    let before = threads();
    setup.wsmed.execute(&central).unwrap();
    assert_eq!(threads(), before, "a central plan started a thread");
    paced.wsmed.execute(&paced_central).unwrap();
    assert_eq!(threads(), before, "a paced central plan started a thread");

    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let budget = before + workers + 1; // + the watcher
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    // One watcher samples the thread count for the whole test, and each
    // section resets its peak: a watcher per section could still be
    // listed in `/proc/self/task` after its join, while the next sampled.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        // Stops the watcher however the sections end, so the scope can
        // join it, and a failed section's panic propagates.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let _stop = Stop(&stop);
        // Runs `workload` and checks the section's peak against the budget.
        let watched = |what: &str, workload: &dyn Fn()| {
            peak.store(0, Ordering::Relaxed);
            workload();
            let peak = peak.load(Ordering::Relaxed);
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
        watched("materialized Query2 (tiny, 0.0005)", &|| {
            for _ in 0..3 {
                burst.wsmed.run_materialized(paper::QUERY2_SQL).unwrap();
            }
        });
    });
}
