//! The experiments `wsmed-bench` runs, one module each (the registry in
//! `main.rs` lists them), and what more than one of them uses.

use wsmed_bench::HarnessOpts;
use wsmed_core::FanoutVector;

pub mod batch_ablation;
pub mod cache_ablation;
pub mod central_baseline;
pub mod chaos_ablation;
pub mod congestion_trace;
pub mod fig16_query1_sweep;
pub mod fig17_query2_sweep;
pub mod fig21_adaptive;
pub mod load_ablation;
pub mod multiquery_ablation;
pub mod plan_ablation;
pub mod pool_ablation;
pub mod process_trees;
pub mod query3_chain;
pub mod shipping_ablation;
pub mod threshold_sweep;
pub mod topology_ablation;
pub mod trace_export;
pub mod wsq_baseline;

/// Query2's chain with the state binding replaced by a constant
/// (`gi.USState='CO'`): a cartesian dependent join in which all 51 states
/// share one downstream chain — maximal skew with unchanged query shape,
/// the best case for a call cache and for cross-query single-flight.
pub const SKEWED_QUERY2_SQL: &str = "\
    select gp.ToState, gp.zip \
    From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
    Where gi.USState='CO' and gi.GetInfoByStateResult=gc.zipstr \
      and gc.zipcode=gp.zip and gp.ToPlace='USAF Academy'";

/// Query2 without its final `ToPlace` filter: the same dependent chain and
/// call pattern, but every place row survives into the result, so "fraction
/// of rows kept" under faults or churn is a meaningful measure (the
/// filtered original returns a single row).
pub const UNFILTERED_QUERY2_SQL: &str = "\
    select gp.ToState, gp.zip \
    From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
    Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
      and gc.zipcode=gp.zip";

/// The fanout vector, `per_level` at every level, that `sql`'s parallel
/// plan takes: found by compiling (not executing) growing vectors on a
/// throwaway mediator, and printed.
pub fn discover_fanouts(opts: &HarnessOpts, sql: &str, per_level: usize) -> FanoutVector {
    let setup = opts.setup();
    let fanouts = (1..=4)
        .map(|levels| vec![per_level; levels])
        .find(|candidate| setup.wsmed.explain(sql, Some(candidate)).is_ok())
        .expect("the query has parallelizable sections");
    println!(
        "fanout vector {fanouts:?} ({} parallel level(s))\n",
        fanouts.len()
    );
    fanouts
}
