//! Ablation: the **warm process-tree pool** over repeated Query2
//! executions.
//!
//! The paper's §IV cost model charges every spawned query process a fixed
//! startup cost plus shipping its plan function, which is why wide fanouts
//! only pay off on long parameter streams. A mediator answering a query
//! *workload* — the same plan executed again and again — re-pays that tree
//! construction on every run. The warm pool parks idle query processes
//! (plan function still installed) at end of run and re-attaches them to
//! the next execution, so only run 1 pays for the tree.
//!
//! Two modes over K repeated executions of the fixed-fanout Query2 plan:
//!
//! * `cold` — pool installed but parking nothing (`max_idle_total: 0`):
//!   every run spawns every process (and is charged the modeled startup +
//!   plan-ship cost);
//! * `warm` — default pool: runs ≥ 2 acquire the whole parked tree.
//!
//! Claims asserted in-binary:
//! * every mode and run returns the same result multiset;
//! * `cold` mode charges modeled process startup every run;
//! * `warm` mode charges **zero** modeled startup (zero cold spawns —
//!   `cold_spawns` counts exactly the `process_startup` charges) on every
//!   run after the first, acquiring the full tree warm instead;
//! * the modeled seconds saved per warm run equal the startup + plan-ship
//!   cost the first run was charged for the same tree.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- pool_ablation --full
//! ```

use wsmed_bench::{csv_row, csv_writer, HarnessOpts, Timed};
use wsmed_core::{paper, FanoutVector, PoolPolicy, PoolStats};
use wsmed_store::{canonicalize, Tuple};

use super::discover_fanouts;

/// Executions per mode: run 1 builds the tree, the rest measure reuse.
const RUNS: usize = 4;

struct Cell {
    mode: &'static str,
    run: usize,
    model_secs: f64,
    pool: PoolStats,
    blocked_send_ms: f64,
    rows: Vec<Tuple>,
}

fn run_mode(
    opts: &HarnessOpts,
    mode: &'static str,
    policy: PoolPolicy,
    fanouts: &FanoutVector,
    csv: &mut std::fs::File,
) -> Vec<Cell> {
    let mut setup = opts.setup();
    // Both modes install a pool so `cold_spawns` (= modeled startup
    // charges) is counted either way; only what it may park differs.
    setup.wsmed.set_pool_policy(Some(policy));
    (1..=RUNS)
        .map(|run| {
            let t: Timed =
                wsmed_bench::run_parallel(&setup.wsmed, paper::QUERY2_SQL, fanouts, opts.scale);
            let cell = Cell {
                mode,
                run,
                model_secs: t.model_secs,
                pool: t.report.pool,
                blocked_send_ms: t.report.tree.total_blocked_send().as_secs_f64() * 1e3,
                rows: t.report.rows,
            };
            println!(
                "  {mode:>4} run {run}: {:>6.1} model-s, {:>2} warm / {:>2} cold, \
                 {:>5.2} model-s startup saved, {} eviction(s)",
                cell.model_secs,
                cell.pool.warm_acquires,
                cell.pool.cold_spawns,
                cell.pool.startup_model_secs_saved,
                cell.pool.evictions,
            );
            csv_row(
                csv,
                &format!(
                    "{mode},{run},{:.2},{},{},{:.4},{},{:.3},{}",
                    cell.model_secs,
                    cell.pool.warm_acquires,
                    cell.pool.cold_spawns,
                    cell.pool.startup_model_secs_saved,
                    cell.pool.evictions,
                    cell.blocked_send_ms,
                    cell.rows.len(),
                ),
            );
            cell
        })
        .collect()
}

pub fn run(opts: &HarnessOpts) {
    let fanouts = discover_fanouts(opts, paper::QUERY2_SQL, 4);

    let (path, mut csv) = csv_writer(
        "pool_ablation.csv",
        "mode,run,model_secs,warm_acquires,cold_spawns,startup_model_secs_saved,evictions,\
         blocked_send_ms,rows",
    );

    let parks_nothing = PoolPolicy {
        max_idle_total: 0,
        ..Default::default()
    };
    let cold = run_mode(opts, "cold", parks_nothing, &fanouts, &mut csv);
    let warm = run_mode(opts, "warm", PoolPolicy::default(), &fanouts, &mut csv);

    // ---- claims -----------------------------------------------------------
    let reference = canonicalize(cold[0].rows.clone());
    for cell in cold.iter().chain(&warm) {
        assert_eq!(
            canonicalize(cell.rows.clone()),
            reference,
            "{} run {} changed the result multiset",
            cell.mode,
            cell.run
        );
    }

    for cell in &cold {
        assert!(
            cell.pool.cold_spawns > 0,
            "cold run {} spawned nothing?",
            cell.run
        );
        assert_eq!(
            cell.pool.warm_acquires, 0,
            "a pool that parks nothing went warm"
        );
    }

    let tree_size = warm[0].pool.cold_spawns;
    assert!(tree_size > 0, "warm run 1 must build the tree cold");
    for cell in &warm[1..] {
        // `cold_spawns` counts exactly the modeled `process_startup`
        // charges, so zero here means zero startup (and plan-ship) cost.
        assert_eq!(
            cell.pool.cold_spawns, 0,
            "warm run {} was charged process startup",
            cell.run
        );
        assert!(
            cell.pool.warm_acquires > 0,
            "warm run {} acquired nothing from the pool",
            cell.run
        );
        assert!(
            cell.pool.startup_model_secs_saved > 0.0,
            "warm run {} saved no modeled startup cost",
            cell.run
        );
    }

    let saved_per_run = warm[1].pool.startup_model_secs_saved;
    println!(
        "\ntree of {tree_size} processes; each warm run skips {saved_per_run:.2} model-s \
         of startup + plan shipping"
    );
    if opts.scale > 0.0 {
        let cold_rest: f64 = cold[1..].iter().map(|c| c.model_secs).sum();
        let warm_rest: f64 = warm[1..].iter().map(|c| c.model_secs).sum();
        println!(
            "steady state (runs 2..{RUNS}): cold {cold_rest:.1} model-s, \
             warm {warm_rest:.1} model-s"
        );
    }

    println!("\nall pool claims hold; CSV written to {}", path.display());
}
