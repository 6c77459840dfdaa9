//! OS-sleep budget of a paced query.
//!
//! At `time_scale > 0` every charge of model time goes through
//! `SimConfig::sleep_model`, which owes it to the charged thread and sleeps
//! once per 100 µs owed (DESIGN.md, "Pacing"). Nine charges in ten of a
//! paced Query1 are message dispatches of a few microseconds; slept one by
//! one (2 851–2 935 sleeps per query before the pacer) each cost an OS sleep
//! floor of wall and CPU that the model never charged. The counts are made
//! by the program, not by a clock, so the gate holds on any machine; they do
//! not repeat exactly, because the adaptation outcome depends on timing.
//!
//! The counters are process-wide, so this file holds one test.

use wsmed::core::{paper, AdaptiveConfig};
use wsmed::netsim::pacing_stats;
use wsmed::services::DatasetConfig;

/// OS sleeps a paced run may make beyond one per web-service call (334–348
/// measured for 303 calls: the calls, the process start-ups, and the
/// message dispatches that added up to a quantum).
const SLEEPS_BEYOND_CALLS: u64 = 120;

#[test]
fn paced_adaptive_query1_sleeps_about_once_per_call() {
    let setup = paper::setup(0.002, DatasetConfig::small());
    let run = || {
        let before = pacing_stats();
        let report = setup
            .wsmed
            .run_adaptive(paper::QUERY1_SQL, &AdaptiveConfig::default())
            .unwrap();
        let after = pacing_stats();
        (
            report,
            after.charges - before.charges,
            after.os_sleeps - before.os_sleeps,
        )
    };
    run();
    let (report, charges, os_sleeps) = run();
    println!(
        "{os_sleeps} OS sleeps / {charges} charges, {} calls, {} messages",
        report.ws_calls, report.messages
    );
    assert!(
        os_sleeps <= report.ws_calls + SLEEPS_BEYOND_CALLS,
        "{os_sleeps} OS sleeps for {} calls",
        report.ws_calls
    );
    // Every frame is charged once where it is sent and once where it is
    // received: fewer charges means a call site stopped charging.
    assert!(
        charges >= 2 * report.messages,
        "{charges} charges for {} messages",
        report.messages
    );
}
