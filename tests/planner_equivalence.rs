//! Property tests: the cost-based planner and semi-join pruning are
//! *semantically invisible*.
//!
//! Reordering binding-valid join orders, merging process-tree levels,
//! re-choosing fanouts, and dropping learned empty parameters parent-side
//! are all pure execution-shape decisions: for arbitrary dataset seeds and
//! any combination of call cache, warm process pool, and batched row
//! frames, a cost-planned (and pruned) run must return exactly the
//! heuristic default's bag of tuples. The second planned run replans with
//! the first run's learned statistics — observed cardinalities may change
//! the chosen plan *shape*, and learned empties prune shipped parameters,
//! but never the result.

use proptest::prelude::*;

use wsmed::core::{paper, planner, AdaptiveConfig, BatchPolicy, CachePolicy, PlannerPolicy};
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

const QUERIES: [&str; 3] = [paper::QUERY1_SQL, paper::QUERY2_SQL, paper::QUERY3_SQL];

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // FF path: `run_planned` under `CostBased { prune: true }` — first
    // run cold, second run replanned from learned statistics with pruning
    // live — against the heuristic default on a fresh world.
    #[test]
    fn prop_cost_planned_ff_matches_heuristic_bag(
        seed in 0u64..1000,
        query in 0usize..3,
        cache in any::<bool>(),
        pool in any::<bool>(),
        batched in any::<bool>(),
    ) {
        let sql = QUERIES[query];
        let baseline_setup = paper::setup(0.0, dataset(seed));
        prop_assert_eq!(
            baseline_setup.wsmed.planner_policy(),
            PlannerPolicy::Heuristic,
            "heuristic must be the default policy"
        );
        let baseline = baseline_setup.wsmed.run_planned(sql).unwrap();

        let mut setup = paper::setup(0.0, dataset(seed));
        setup.wsmed.set_cache_policy(cache.then(CachePolicy::default));
        setup.wsmed.enable_process_pool(pool);
        if batched {
            setup.wsmed.set_batch_policy(BatchPolicy::uniform(16));
        }
        setup
            .wsmed
            .set_planner_policy(PlannerPolicy::CostBased { prune: true });
        let first = setup.wsmed.run_planned(sql).unwrap();
        let second = setup.wsmed.run_planned(sql).unwrap();

        prop_assert_eq!(
            canonicalize(first.rows),
            canonicalize(baseline.rows.clone()),
            "cold cost-planned run diverged: query{} seed {} cache {} pool {} batched {}",
            query + 1, seed, cache, pool, batched
        );
        prop_assert_eq!(
            canonicalize(second.rows),
            canonicalize(baseline.rows),
            "replanned+pruned run diverged: query{} seed {} cache {} pool {} batched {}",
            query + 1, seed, cache, pool, batched
        );
    }

    // AFF path: pruning annotations on an adaptive (`AFF_APPLYP`) plan.
    // The plan is built once (stable section keys), executed to observe
    // empty parameter chains, re-annotated with the learned drop lists,
    // and executed again — both runs must match the unannotated baseline.
    #[test]
    fn prop_pruned_aff_matches_baseline_bag(
        seed in 0u64..1000,
        add_step in 1usize..4,
        cache in any::<bool>(),
        batched in any::<bool>(),
    ) {
        let config = AdaptiveConfig { add_step, ..Default::default() };
        let baseline_setup = paper::setup(0.0, dataset(seed));
        let baseline = baseline_setup
            .wsmed
            .run_adaptive(paper::QUERY3_SQL, &config)
            .unwrap();

        let mut setup = paper::setup(0.0, dataset(seed));
        setup.wsmed.set_cache_policy(cache.then(CachePolicy::default));
        if batched {
            setup.wsmed.set_batch_policy(BatchPolicy::uniform(8));
        }
        // CostBased installs the statistics harvester on executions; the
        // plan itself is the paper's adaptive one.
        setup
            .wsmed
            .set_planner_policy(PlannerPolicy::CostBased { prune: true });
        let mut plan = setup
            .wsmed
            .compile_adaptive(paper::QUERY3_SQL, &config)
            .unwrap();
        // Cold annotation: empty drop lists, but section keys ship with the
        // plan functions so children report empties under matching keys.
        planner::annotate_prune(&mut plan, setup.wsmed.planner_stats());
        let first = setup.wsmed.execute(&plan).unwrap();
        let mut pruned = plan.clone();
        planner::annotate_prune(&mut pruned, setup.wsmed.planner_stats());
        let second = setup.wsmed.execute(&pruned).unwrap();

        prop_assert_eq!(
            canonicalize(first.rows),
            canonicalize(baseline.rows.clone()),
            "observing adaptive run diverged: p={} seed {} cache {} batched {}",
            add_step, seed, cache, batched
        );
        prop_assert_eq!(
            canonicalize(second.rows),
            canonicalize(baseline.rows),
            "pruned adaptive run diverged: p={} seed {} cache {} batched {}",
            add_step, seed, cache, batched
        );
        // Stripping the annotations restores the original plan bytes.
        let mut stripped = pruned.clone();
        planner::strip_prune(&mut stripped);
        let mut original = plan.clone();
        planner::strip_prune(&mut original);
        prop_assert_eq!(stripped, original);
    }
}
