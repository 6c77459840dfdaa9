//! The query-process runtime's thread budget.
//!
//! Query processes are tasks on `W` = `available_parallelism()` worker
//! threads, started on the first spawn. A tree of 25 processes must never
//! run on more than `W` threads besides the caller's, and a central plan,
//! which spawns no process, must start none. This is the only test in its
//! binary: the runtime is process-wide, and `/proc/self/task` counts every
//! thread of the test process.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use wsmed::core::paper;
use wsmed::services::DatasetConfig;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

#[test]
fn query_processes_run_on_the_worker_set_alone() {
    let setup = paper::setup(0.0, DatasetConfig::small());
    let central = setup.wsmed.compile_central(paper::QUERY1_SQL).unwrap();
    let tree = setup
        .wsmed
        .compile_parallel(paper::QUERY1_SQL, &vec![5, 4])
        .unwrap();

    let before = threads();
    setup.wsmed.execute(&central).unwrap();
    assert_eq!(threads(), before, "a central plan started a thread");

    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let done = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        for _ in 0..20 {
            let report = setup.wsmed.execute(&tree).unwrap();
            assert_eq!(
                report.tree.levels[2].alive, 20,
                "the whole {{5,4}} tree ran"
            );
        }
        done.store(true, Ordering::Release);
    });
    let budget = before + workers + 1; // + the watcher
    let peak = peak.into_inner();
    assert!(
        peak <= budget,
        "{peak} threads during Query1 on {{5,4}}: more than the {before} before, \
         {workers} workers and the watcher"
    );
}
