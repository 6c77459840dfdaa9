//! Production features beyond the paper: retry policy for transient
//! faults, per-run call memoization, dispatch-policy ablation, and the
//! extended SQL surface (comparisons, DISTINCT, ORDER BY, LIMIT).
//!
//! ```text
//! cargo run --release --example robust_mediator
//! ```

use wsmed::core::{paper, CachePolicy, DispatchPolicy, ResiliencePolicy};
use wsmed::netsim::FaultSpec;
use wsmed::services::{DatasetConfig, UsZipService, ZipCodesService};

fn main() {
    let mut setup = paper::setup(0.001, DatasetConfig::small());

    // --- extended SQL ------------------------------------------------------
    let northern = setup
        .wsmed
        .run_central(
            "select distinct gs.State, gs.LatDegrees from GetAllStates gs \
             where gs.LatDegrees >= 44.0 order by gs.LatDegrees desc limit 8",
        )
        .expect("northern states");
    println!("northernmost states (lat ≥ 44°):");
    for row in &northern.rows {
        println!("  {} at {}°", row.get(0).render(), row.get(1).render());
    }

    // --- call memoization ---------------------------------------------------
    // A cartesian join re-calls GetInfoByState('CO') once per state row;
    // the cache collapses 51 calls into 1.
    let cartesian = "select gs.State, gi.GetInfoByStateResult \
                     from GetAllStates gs, GetInfoByState gi where gi.USState='CO'";
    let before = setup
        .network
        .provider(UsZipService::PROVIDER)
        .unwrap()
        .metrics()
        .calls;
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    setup.wsmed.run_central(cartesian).expect("cartesian query");
    let after = setup
        .network
        .provider(UsZipService::PROVIDER)
        .unwrap()
        .metrics()
        .calls;
    println!(
        "\ncartesian join with call cache: {} real USZip call(s) for 51 rows",
        after - before
    );
    setup.wsmed.set_cache_policy(None);

    // --- retry policy ---------------------------------------------------------
    let zip = setup.network.provider(ZipCodesService::PROVIDER).unwrap();
    zip.set_fault(FaultSpec::every(7));
    println!("\nZipCodes now faults every 7th call.");
    match setup.wsmed.run_parallel(paper::QUERY2_SQL, &vec![3, 2]) {
        Err(e) => println!("  without retries: {e}"),
        Ok(_) => println!("  without retries: survived (lucky fault alignment)"),
    }
    setup.wsmed.set_resilience_policy(ResiliencePolicy {
        max_attempts: 4,
        ..Default::default()
    });
    let ok = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 2])
        .expect("retries absorb transient faults");
    println!(
        "  with 4 attempts:  {} row(s): {}",
        ok.row_count(),
        ok.rows[0]
    );
    zip.set_fault(FaultSpec::none());

    // --- dispatch ablation ----------------------------------------------------
    println!("\ndispatch policies over Query2 {{3,3}}:");
    for policy in [DispatchPolicy::FirstFinished, DispatchPolicy::RoundRobin] {
        setup.wsmed.set_dispatch_policy(policy);
        let t0 = std::time::Instant::now();
        setup
            .wsmed
            .run_parallel(paper::QUERY2_SQL, &vec![3, 3])
            .expect("query2");
        println!("  {policy:?}: {:?}", t0.elapsed());
    }
}
