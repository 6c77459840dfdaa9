//! Property tests: parallel execution is *semantically invisible*.
//!
//! For arbitrary fanout vectors, adaptive configurations and dataset
//! seeds, the parallel plans must return exactly the central plan's bag of
//! tuples — the paper's operators change performance, never results.
//! Batched row frames, composed with the call cache and the warm process
//! pool, must not change them either.

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
    setup.wsmed.set_pool_policy(pool.then(PoolPolicy::default));
    setup.wsmed.set_batch_policy(policy);
    setup
}

/// The frame counter's schedule-independent invariant: the report's total
/// is the sum of what the process tree saw per node, in both directions.
///
/// The totals of two runs are *not* comparable: how many frames a run
/// takes depends on how many children are idle when the parent wakes and
/// on which duplicates the memo has answered by then.
fn frames_add_up(report: &ExecutionReport) -> bool {
    report.messages == report.tree.total_messages()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn prop_ff_apply_equivalent_to_central(
        seed in 0u64..1000,
        fo1 in 1usize..6,
        fo2 in 0usize..6,
        batch in 1usize..40,
    ) {
        let setup = paper::setup(0.0, dataset(seed));
        let central = setup.wsmed.run_central(paper::QUERY1_SQL).unwrap();
        let parallel = setup
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, fo2])
            .unwrap();
        // Batched frames composed with the call cache and the warm pool.
        let configured = configured_setup(seed, true, true, BatchPolicy::uniform(batch))
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, 2])
            .unwrap();
        let central = canonicalize(central.rows);
        prop_assert_eq!(
            canonicalize(parallel.rows),
            central.clone(),
            "fanouts {{{},{}}} seed {}", fo1, fo2, seed
        );
        prop_assert_eq!(
            canonicalize(configured.rows),
            central,
            "fanout {} batch {} cache pool seed {}", fo1, batch, seed
        );
    }

    #[test]
    fn prop_aff_apply_equivalent_to_central(
        seed in 0u64..1000,
        add_step in 1usize..5,
        drop_enabled in any::<bool>(),
        threshold in 0.05f64..0.9,
    ) {
        let setup = paper::setup(0.0, dataset(seed));
        let config = AdaptiveConfig {
            add_step,
            drop_enabled,
            threshold,
            ..Default::default()
        };
        let central = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
        let adaptive = setup.wsmed.run_adaptive(paper::QUERY2_SQL, &config).unwrap();
        prop_assert_eq!(
            canonicalize(adaptive.rows),
            canonicalize(central.rows),
            "p={} drop={} θ={} seed {}", add_step, drop_enabled, threshold, seed
        );
    }

    #[test]
    fn prop_flat_tree_equivalent(seed in 0u64..1000, fo1 in 1usize..8) {
        let setup = paper::setup(0.0, dataset(seed));
        let central = setup.wsmed.run_central(paper::QUERY1_SQL).unwrap();
        let flat = setup.wsmed.run_parallel(paper::QUERY1_SQL, &vec![fo1, 0]).unwrap();
        prop_assert_eq!(canonicalize(flat.rows), canonicalize(central.rows));
    }

    #[test]
    fn prop_call_counts_are_plan_invariant(seed in 0u64..1000, fo1 in 1usize..5) {
        // Parallelization reorders calls but never changes how many are
        // needed: the dependency structure fixes the call count.
        let setup = paper::setup(0.0, dataset(seed));
        let central = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
        let parallel = setup
            .wsmed
            .run_parallel(paper::QUERY2_SQL, &vec![fo1, 2])
            .unwrap();
        prop_assert_eq!(central.ws_calls, parallel.ws_calls);
    }

    #[test]
    fn prop_batched_ff_equivalent_to_unbatched(
        seed in 0u64..1000,
        fo1 in 1usize..6,
        fo2 in 0usize..6,
        batch in 2usize..80,
        cache in any::<bool>(),
        pool in any::<bool>(),
    ) {
        // Vectorized tuple shipping is a transport optimization: any
        // BatchPolicy must yield the unbatched (paper) result multiset and
        // call count, with or without the call cache and the warm pool.
        let baseline = configured_setup(seed, cache, pool, BatchPolicy::default())
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, fo2])
            .unwrap();
        let batched = configured_setup(seed, cache, pool, BatchPolicy::uniform(batch))
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &vec![fo1, fo2])
            .unwrap();
        prop_assert_eq!(batched.ws_calls, baseline.ws_calls);
        prop_assert!(frames_add_up(&batched) && frames_add_up(&baseline));
        prop_assert_eq!(
            canonicalize(batched.rows),
            canonicalize(baseline.rows),
            "fanouts {{{},{}}} batch {} cache {} pool {} seed {}",
            fo1, fo2, batch, cache, pool, seed
        );
    }

    #[test]
    fn prop_batched_aff_equivalent_to_unbatched(
        seed in 0u64..1000,
        add_step in 1usize..5,
        batch in 2usize..80,
        cache in any::<bool>(),
        pool in any::<bool>(),
    ) {
        let config = AdaptiveConfig { add_step, ..Default::default() };
        let baseline = configured_setup(seed, cache, pool, BatchPolicy::default())
            .wsmed
            .run_adaptive(paper::QUERY2_SQL, &config)
            .unwrap();
        let batched = configured_setup(seed, cache, pool, BatchPolicy::uniform(batch))
            .wsmed
            .run_adaptive(paper::QUERY2_SQL, &config)
            .unwrap();
        prop_assert_eq!(batched.ws_calls, baseline.ws_calls);
        prop_assert!(frames_add_up(&batched) && frames_add_up(&baseline));
        prop_assert_eq!(
            canonicalize(batched.rows),
            canonicalize(baseline.rows),
            "p={} batch {} cache {} pool {} seed {}",
            add_step, batch, cache, pool, seed
        );
    }
}
