//! Per-run call memoization: redundant web service calls in cartesian
//! dependent joins collapse to one real call, without changing results.

use proptest::prelude::*;

use wsmed::core::{paper, CachePolicy};
use wsmed::services::{DatasetConfig, UsZipService};
use wsmed::store::canonicalize;

/// A cartesian query: every GetAllStates row triggers the *same*
/// GetInfoByState('CO') call — 51 identical calls without the cache.
const CARTESIAN_SQL: &str = "select gs.State, gi.GetInfoByStateResult \
     from GetAllStates gs, GetInfoByState gi where gi.USState='CO'";

#[test]
fn cache_collapses_identical_calls() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let uncached = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    assert_eq!(uncached.row_count(), 51);
    let uszip_calls = |setup: &paper::PaperSetup| {
        setup
            .network
            .provider(UsZipService::PROVIDER)
            .unwrap()
            .metrics()
            .calls
    };
    assert_eq!(uszip_calls(&setup), 51, "uncached: one call per state row");

    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    let cached = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    assert_eq!(canonicalize(cached.rows), canonicalize(uncached.rows));
    assert_eq!(uszip_calls(&setup), 1, "cached: one real call total");
}

#[test]
fn cache_does_not_change_paper_queries() {
    let mut setup = paper::setup(0.0, DatasetConfig::small());
    let plain = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    let cached = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
    assert_eq!(canonicalize(cached.rows), canonicalize(plain.rows));
    // Query2's arguments are all distinct (each zip called once), so the
    // cache saves nothing — and must not add calls either.
    assert_eq!(cached.ws_calls, plain.ws_calls);
}

#[test]
fn cache_is_per_run() {
    // The same query twice with the cache on still calls the services in
    // the second run (the cache does not leak across executions).
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    let calls = setup
        .network
        .provider(UsZipService::PROVIDER)
        .unwrap()
        .metrics()
        .calls;
    assert_eq!(calls, 2, "one real call per run");
}

#[test]
fn cache_works_in_parallel_plans() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    let r = setup
        .wsmed
        .run_parallel(paper::QUERY1_SQL, &vec![2, 2])
        .unwrap();
    let plain = paper::setup(0.0, DatasetConfig::tiny())
        .wsmed
        .run_central(paper::QUERY1_SQL)
        .unwrap();
    assert_eq!(canonicalize(r.rows), canonicalize(plain.rows));
}

#[test]
fn cross_run_policy_reuses_entries_across_runs() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_cache_policy(Some(CachePolicy::cross_run()));
    let first = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    let second = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    assert_eq!(canonicalize(second.rows), canonicalize(first.rows));
    let calls = setup
        .network
        .provider(UsZipService::PROVIDER)
        .unwrap()
        .metrics()
        .calls;
    assert_eq!(calls, 1, "second run answered entirely from memory");
    assert!(second.cache.hits > 0, "second run must report cache hits");
    assert_eq!(second.cache.misses, 0, "no real call in the second run");
}

#[test]
fn report_surfaces_cache_stats() {
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_cache_policy(Some(CachePolicy::default()));
    let report = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    // 51 cartesian rows share one GetInfoByState('CO') call: 1 miss (plus
    // the GetAllStates call), 50 hits.
    assert_eq!(report.cache.hits, 50);
    assert!(report.cache.misses >= 1);
    assert!(report.cache.hit_rate().unwrap() > 0.9);
    // Cache off: the report carries all-zero stats, not stale ones.
    setup.wsmed.set_cache_policy(None);
    let plain = setup.wsmed.run_central(CARTESIAN_SQL).unwrap();
    assert_eq!(plain.cache.hits, 0);
    assert_eq!(plain.cache.misses, 0);
}

fn small_policy(capacity: usize, shards: usize, cross_run: bool) -> CachePolicy {
    CachePolicy {
        capacity,
        shards,
        cross_run,
        ..CachePolicy::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // Caching (any capacity/sharding/lifetime) is semantically invisible
    // to FF_APPLYP plans: same multiset of rows as the uncached run.
    #[test]
    fn prop_cached_ff_equivalent_to_uncached(
        seed in 0u64..1000,
        fo1 in 1usize..5,
        capacity in 1usize..64,
        shards in 1usize..9,
        cross_run in any::<bool>(),
    ) {
        let config = DatasetConfig { seed, ..DatasetConfig::tiny() };
        let baseline = paper::setup(0.0, config.clone())
            .wsmed
            .run_parallel(paper::QUERY2_SQL, &vec![fo1, 2])
            .unwrap();
        let mut setup = paper::setup(0.0, config);
        setup.wsmed.set_cache_policy(Some(small_policy(capacity, shards, cross_run)));
        // Two runs: the second exercises cross-run reuse (or the per-run
        // clear) plus dedup-aware short-circuiting.
        let cached1 = setup.wsmed.run_parallel(paper::QUERY2_SQL, &vec![fo1, 2]).unwrap();
        let cached2 = setup.wsmed.run_parallel(paper::QUERY2_SQL, &vec![fo1, 2]).unwrap();
        prop_assert_eq!(
            canonicalize(cached1.rows),
            canonicalize(baseline.rows.clone()),
            "first cached run diverged (cap {} shards {} cross {})",
            capacity, shards, cross_run
        );
        prop_assert_eq!(
            canonicalize(cached2.rows),
            canonicalize(baseline.rows),
            "second cached run diverged (cap {} shards {} cross {})",
            capacity, shards, cross_run
        );
    }

    // Same invariant for adaptive plans.
    #[test]
    fn prop_cached_aff_equivalent_to_uncached(
        seed in 0u64..1000,
        capacity in 1usize..64,
        cross_run in any::<bool>(),
    ) {
        let config = DatasetConfig { seed, ..DatasetConfig::tiny() };
        let adaptive = wsmed::core::AdaptiveConfig::default();
        let baseline = paper::setup(0.0, config.clone())
            .wsmed
            .run_adaptive(paper::QUERY2_SQL, &adaptive)
            .unwrap();
        let mut setup = paper::setup(0.0, config);
        setup.wsmed.set_cache_policy(Some(small_policy(capacity, 4, cross_run)));
        let cached = setup.wsmed.run_adaptive(paper::QUERY2_SQL, &adaptive).unwrap();
        prop_assert_eq!(
            canonicalize(cached.rows),
            canonicalize(baseline.rows),
            "cap {} cross {}", capacity, cross_run
        );
    }
}
