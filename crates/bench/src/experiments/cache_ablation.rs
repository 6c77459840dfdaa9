//! Ablation: the **sharded single-flight call cache** on a skewed
//! dependent-join workload.
//!
//! The paper's Query2 chain calls every zip exactly once, so memoization
//! saves nothing there. Real parameter streams are skewed: the same
//! downstream call recurs many times. This harness builds that skew with a
//! Query2-style chain whose state binding is a constant (`gi.USState='CO'`)
//! — every `GetAllStates` row re-issues the *same* `GetInfoByState` call
//! and the same zip→place chain below it — and sweeps the cache modes:
//!
//! * `off`        — no cache (paper semantics);
//! * `no-flight`  — per-run cache, single-flight dedup disabled;
//! * `per-run`    — per-run cache with single-flight (the default policy);
//! * `cross-run`  — entries survive runs of the same mediator.
//!
//! Each mode runs the query twice. Claims asserted in-binary:
//! * every mode and run returns the uncached result multiset;
//! * the cache cuts real web service calls ≥ 2× on the skewed workload;
//! * single-flight never issues more calls than its disabled baseline;
//! * a cross-run second execution issues **zero** web service calls and
//!   answers every plan-function parameter parent-side (dedup-aware
//!   dispatch short-circuits).
//!
//! ```text
//! cargo run --release -p wsmed-bench -- cache_ablation --full
//! ```

use wsmed_bench::{csv_row, csv_writer, HarnessOpts, Timed};
use wsmed_core::{CachePolicy, CacheStats, FanoutVector};
use wsmed_store::{canonicalize, Tuple};

use super::{discover_fanouts, SKEWED_QUERY2_SQL};

const MODES: [(&str, Option<CachePolicy>); 4] = [
    ("off", None),
    (
        "no-flight",
        Some(CachePolicy {
            capacity: 100_000,
            ttl_model_secs: None,
            shards: 16,
            cross_run: false,
            single_flight: false,
        }),
    ),
    (
        "per-run",
        Some(CachePolicy {
            capacity: 100_000,
            ttl_model_secs: None,
            shards: 16,
            cross_run: false,
            single_flight: true,
        }),
    ),
    (
        "cross-run",
        Some(CachePolicy {
            capacity: 100_000,
            ttl_model_secs: None,
            shards: 16,
            cross_run: true,
            single_flight: true,
        }),
    ),
];

struct Cell {
    mode: &'static str,
    run: usize,
    ws_calls: u64,
    model_secs: f64,
    stats: CacheStats,
    rows: Vec<Tuple>,
}

fn run_mode(
    opts: &HarnessOpts,
    mode: &'static str,
    policy: Option<CachePolicy>,
    fanouts: &FanoutVector,
    csv: &mut std::fs::File,
) -> Vec<Cell> {
    let mut setup = opts.setup();
    setup.wsmed.set_cache_policy(policy);
    (1..=2)
        .map(|run| {
            let t: Timed =
                wsmed_bench::run_parallel(&setup.wsmed, SKEWED_QUERY2_SQL, fanouts, opts.scale);
            let cell = Cell {
                mode,
                run,
                ws_calls: t.report.ws_calls,
                model_secs: t.model_secs,
                stats: t.report.cache,
                rows: t.report.rows,
            };
            println!(
                "  {mode:>9} run {run}: {:>4} ws calls, {:>6.1} model-s, \
                 {:>3} hits, {:>2} dedup waits, {:>3} short-circuits",
                cell.ws_calls,
                cell.model_secs,
                cell.stats.hits,
                cell.stats.dedup_waits,
                cell.stats.short_circuits,
            );
            csv_row(
                csv,
                &format!(
                    "{mode},{run},{},{:.2},{},{},{},{},{},{},{}",
                    cell.ws_calls,
                    cell.model_secs,
                    cell.stats.hits,
                    cell.stats.misses,
                    cell.stats.dedup_waits,
                    cell.stats.short_circuits,
                    cell.stats.evictions,
                    cell.stats.entries,
                    cell.rows.len(),
                ),
            );
            cell
        })
        .collect()
}

pub fn run(opts: &HarnessOpts) {
    let fanouts = discover_fanouts(opts, SKEWED_QUERY2_SQL, 4);

    let (path, mut csv) = csv_writer(
        "cache_ablation.csv",
        "mode,run,ws_calls,model_secs,hits,misses,dedup_waits,short_circuits,evictions,entries,rows",
    );

    let mut results: Vec<Vec<Cell>> = Vec::new();
    for (mode, policy) in MODES {
        results.push(run_mode(opts, mode, policy, &fanouts, &mut csv));
    }

    // ---- claims -----------------------------------------------------------
    let baseline = &results[0][0];
    let reference = canonicalize(baseline.rows.clone());
    for cells in &results {
        for cell in cells {
            assert_eq!(
                canonicalize(cell.rows.clone()),
                reference,
                "{} run {} changed the result multiset",
                cell.mode,
                cell.run
            );
        }
    }

    let per_run = &results[2][0];
    let call_ratio = baseline.ws_calls as f64 / per_run.ws_calls.max(1) as f64;
    println!(
        "\nskew: cache off {} calls, per-run cache {} calls (÷{call_ratio:.1})",
        baseline.ws_calls, per_run.ws_calls
    );
    assert!(
        call_ratio >= 2.0,
        "cache must cut ws calls ≥2× on the skewed workload (got {call_ratio:.1}×)"
    );

    let no_flight = &results[1][0];
    assert!(
        per_run.ws_calls <= no_flight.ws_calls,
        "single-flight issued more calls ({}) than its disabled baseline ({})",
        per_run.ws_calls,
        no_flight.ws_calls
    );

    let cross_second = &results[3][1];
    println!(
        "cross-run second execution: {} ws calls, {} short-circuits, {} hits",
        cross_second.ws_calls, cross_second.stats.short_circuits, cross_second.stats.hits
    );
    assert_eq!(
        cross_second.ws_calls, 0,
        "cross-run second execution must be answered entirely from memory"
    );
    assert!(
        cross_second.stats.short_circuits > 0,
        "dedup-aware dispatch must answer repeated parameters parent-side"
    );

    println!("\nall cache claims hold; CSV written to {}", path.display());
}
