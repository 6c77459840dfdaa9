//! Property tests: the columnar wire path is *semantically invisible*.
//!
//! `BatchPolicy::columnar(n)` changes how parameter and result tuples are
//! laid out on the wire — whole typed columns instead of per-row encodings —
//! but must never change what a query returns. These tests force the
//! columnar path on and compare against the row path byte-for-byte
//! (canonicalized result bags plus the invariant `ExecutionReport`
//! counters) across cache × pool × batch-size configurations.

use proptest::prelude::*;

use wsmed::core::{paper, AdaptiveConfig, BatchPolicy, CachePolicy, ExecutionReport, PoolPolicy};
use wsmed::services::DatasetConfig;
use wsmed::store::canonicalize;

fn dataset(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        atlanta_state_count: 8,
        min_neighbors: 1,
        max_neighbors: 4,
        zips_per_state: 3,
        ..DatasetConfig::tiny()
    }
}

/// Builds a setup with the cache/pool toggles applied and the given batch
/// policy installed.
fn configured_setup(seed: u64, cache: bool, pool: bool, policy: BatchPolicy) -> paper::PaperSetup {
    let mut setup = paper::setup(0.0, dataset(seed));
    setup
        .wsmed
        .set_cache_policy(cache.then(CachePolicy::default));
    setup.wsmed.set_pool_policy(pool.then(|| PoolPolicy {
        enabled: true,
        ..PoolPolicy::default()
    }));
    setup.wsmed.set_batch_policy(policy);
    setup
}

/// The frame counter's schedule-independent invariant: the report's total
/// is the sum of what the process tree saw per node, in both directions.
///
/// The totals of two runs are *not* comparable, row path or columnar: how
/// many frames a run takes depends on how many children are idle when the
/// parent wakes and on which duplicates the memo has answered by then. Over
/// 3000 generated cases the two paths' counts differed by 1 to 4 frames in
/// 16, with rows and `ws_calls` equal to the central plan's in all 3000.
fn frames_add_up(report: &ExecutionReport) -> bool {
    report.messages == report.tree.total_messages()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn prop_columnar_ff_matches_row_path(
        seed in 0u64..1000,
        fo1 in 1usize..6,
        fo2 in 0usize..6,
        batch in 1usize..80,
        cache in any::<bool>(),
        pool in any::<bool>(),
    ) {
        let row = configured_setup(seed, cache, pool, BatchPolicy::uniform(batch))
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, fo2])
            .unwrap();
        let col = configured_setup(seed, cache, pool, BatchPolicy::columnar(batch))
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, fo2])
            .unwrap();
        prop_assert_eq!(col.rows.len(), row.rows.len());
        prop_assert_eq!(col.ws_calls, row.ws_calls);
        prop_assert!(frames_add_up(&col) && frames_add_up(&row));
        prop_assert_eq!(
            canonicalize(col.rows),
            canonicalize(row.rows),
            "fanouts {{{},{}}} batch {} cache {} pool {} seed {}",
            fo1, fo2, batch, cache, pool, seed
        );
    }

    #[test]
    fn prop_columnar_aff_matches_row_path(
        seed in 0u64..1000,
        add_step in 1usize..5,
        batch in 1usize..80,
        cache in any::<bool>(),
        pool in any::<bool>(),
    ) {
        let config = AdaptiveConfig { add_step, ..Default::default() };
        let row = configured_setup(seed, cache, pool, BatchPolicy::uniform(batch))
            .wsmed
            .run_adaptive(paper::QUERY2_SQL, &config)
            .unwrap();
        let col = configured_setup(seed, cache, pool, BatchPolicy::columnar(batch))
            .wsmed
            .run_adaptive(paper::QUERY2_SQL, &config)
            .unwrap();
        prop_assert_eq!(col.rows.len(), row.rows.len());
        prop_assert_eq!(col.ws_calls, row.ws_calls);
        prop_assert!(frames_add_up(&col) && frames_add_up(&row));
        prop_assert_eq!(
            canonicalize(col.rows),
            canonicalize(row.rows),
            "p={} batch {} cache {} pool {} seed {}",
            add_step, batch, cache, pool, seed
        );
    }

    #[test]
    fn prop_columnar_equivalent_to_central(
        seed in 0u64..1000,
        fo1 in 1usize..6,
        batch in 1usize..40,
    ) {
        // End-to-end against the unparallelized baseline: the columnar path
        // composed with every other optimization still reproduces the
        // central plan's bag exactly.
        let setup = paper::setup(0.0, dataset(seed));
        let central = setup.wsmed.run_central(paper::QUERY1_SQL).unwrap();
        let col = configured_setup(seed, true, true, BatchPolicy::columnar(batch))
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, 2])
            .unwrap();
        prop_assert_eq!(
            canonicalize(col.rows),
            canonicalize(central.rows),
            "fanout {} batch {} seed {}", fo1, batch, seed
        );
    }
}
