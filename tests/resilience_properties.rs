//! Property tests: `FailureMode::Partial` is *sound degradation*.
//!
//! For arbitrary combinations of cache, pool, batch policy, fanouts and
//! args-keyed chaos on the leaf provider, a partial-mode run must return
//! a sub-multiset of the fault-free result — never an invented or
//! duplicated row — and its `skipped_params` must exactly account for
//! the missing distinct leaf parameters. The same holds when the run is
//! additionally stressed by an abrupt child kill whose in-flight
//! parameters are requeued to a surviving sibling: a dead child's skips
//! are discarded with its uncommitted rows and re-counted exactly once
//! by whichever process re-evaluates them.

use std::collections::BTreeSet;

use proptest::prelude::*;

use wsmed::core::{paper, BatchPolicy, CachePolicy, FailureMode, ResiliencePolicy};
use wsmed::netsim::FaultSpec;
use wsmed::services::{DatasetConfig, ZipCodesService};
use wsmed::store::{canonicalize, Tuple};

/// Query2 without its final filter: the zip (the leaf call's parameter)
/// is in the projection, so dropped leaf parameters are visible row-side.
const UNFILTERED_Q2: &str = "\
    select gp.ToState, gp.zip \
    From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
    Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
      and gc.zipcode=gp.zip";

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

fn distinct_zips(rows: &[Tuple]) -> BTreeSet<String> {
    rows.iter().map(|r| r.values()[1].render()).collect()
}

/// The rows of `clean` whose zip survived into `kept`.
fn clean_restricted(clean: &[Tuple], kept: &BTreeSet<String>) -> Vec<Tuple> {
    clean
        .iter()
        .filter(|r| kept.contains(&r.values()[1].render()))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn prop_partial_mode_is_sound_degradation(
        seed in 0u64..1000,
        fo1 in 1usize..4,
        fo2 in 1usize..4,
        batch in 1usize..30,
        fault_pct in 5u32..30,
        cache in proptest::arbitrary::any::<bool>(),
        pool in proptest::arbitrary::any::<bool>(),
        attempts in 1usize..3,
    ) {
        let clean_setup = paper::setup(0.0, dataset(seed));
        let clean = clean_setup
            .wsmed
            .run_parallel(UNFILTERED_Q2, &vec![fo1, fo2])
            .unwrap();
        let clean_zips = distinct_zips(&clean.rows);

        let mut setup = paper::setup(0.0, dataset(seed));
        setup.wsmed.set_batch_policy(BatchPolicy::uniform(batch));
        setup.wsmed.set_cache_policy(cache.then(CachePolicy::default));
        setup.wsmed.enable_process_pool(pool);
        setup.wsmed.set_resilience_policy(ResiliencePolicy {
            max_attempts: attempts,
            failure_mode: FailureMode::Partial,
            ..ResiliencePolicy::default()
        });
        // Args-keyed: the failing zips are a fixed set, independent of
        // dispatch interleaving, retries and batch boundaries.
        setup
            .network
            .provider(ZipCodesService::PROVIDER)
            .unwrap()
            .set_fault(FaultSpec {
                fail_probability: fault_pct as f64 / 100.0,
                keyed_by_args: true,
                ..FaultSpec::default()
            });

        let report = setup
            .wsmed
            .run_parallel(UNFILTERED_Q2, &vec![fo1, fo2])
            .unwrap();
        let kept = distinct_zips(&report.rows);

        prop_assert!(kept.is_subset(&clean_zips), "partial run invented zips");
        let lost = clean_zips.len() - kept.len();
        prop_assert_eq!(
            report.resilience.skipped_params as usize,
            lost,
            "skips must exactly account the gap (seed {} fo {{{},{}}} batch {} \
             cache {} pool {} attempts {} fault {}%)",
            seed, fo1, fo2, batch, cache, pool, attempts, fault_pct
        );
        // Surviving zips keep their full row multiplicity: no partial or
        // duplicated row sets sneak through batching, caching or pooling.
        prop_assert_eq!(
            canonicalize(report.rows.clone()),
            canonicalize(clean_restricted(&clean.rows, &kept))
        );
    }

    #[test]
    fn prop_partial_mode_survives_child_kill_with_exact_accounting(
        seed in 0u64..1000,
        fault_pct in 5u32..25,
    ) {
        use std::sync::Arc;
        use wsmed::core::{ExecContext, RunConfig, SimTransport, Wsmed, WsTransport};
        use wsmed::netsim::{Network, SimConfig};
        use wsmed::services::{install_paper_services, Dataset};

        let sim = SimConfig::new(0.0, 0x5EED_1CDE);
        let network = Network::new(sim.clone());
        let ds = Arc::new(Dataset::generate(dataset(seed)));
        let registry = install_paper_services(network.clone(), ds);
        let mut wsmed = Wsmed::new(registry.clone());
        wsmed.import_all_wsdl().unwrap();
        let clean = wsmed
            .run_parallel(UNFILTERED_Q2, &vec![3, 2])
            .unwrap();
        let clean_zips = distinct_zips(&clean.rows);

        let plan = wsmed.compile_parallel(UNFILTERED_Q2, &vec![3, 2]).unwrap();
        let mut cfg = RunConfig::default();
        cfg.resilience.failure_mode = FailureMode::Partial;
        // Abruptly kill a busy child mid-run: its uncommitted skips are
        // discarded with its rows and re-counted by the survivor that
        // re-evaluates the requeued parameters.
        cfg.kill_child_after_eocs = 2;
        let ctx = ExecContext::new(
            Arc::new(SimTransport::new(registry)) as Arc<dyn WsTransport>,
            Arc::new(wsmed.owfs().clone()),
            sim,
            cfg,
        );
        network
            .provider(ZipCodesService::PROVIDER)
            .unwrap()
            .set_fault(FaultSpec {
                fail_probability: fault_pct as f64 / 100.0,
                keyed_by_args: true,
                ..FaultSpec::default()
            });
        let report = ctx.run_plan(&plan).unwrap();

        let kept = distinct_zips(&report.rows);
        prop_assert!(kept.is_subset(&clean_zips));
        let lost = clean_zips.len() - kept.len();
        prop_assert_eq!(
            report.resilience.skipped_params as usize,
            lost,
            "requeue must neither lose nor double-count skips \
             (seed {} fault {}%)",
            seed, fault_pct
        );
        prop_assert_eq!(
            canonicalize(report.rows.clone()),
            canonicalize(clean_restricted(&clean.rows, &kept))
        );
    }
}
