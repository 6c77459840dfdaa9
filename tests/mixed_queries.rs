//! Queries beyond the paper's two benchmarks: mixed dependent/independent
//! sources (the paper's stated future work, §VII), selections over single
//! services, and streaming (first-row) latency.

use std::time::Duration;

use wsmed::core::paper;
use wsmed::services::DatasetConfig;

#[test]
fn single_service_query_runs_centrally() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let r = setup
        .wsmed
        .run_central("select gs.Name, gs.State from GetAllStates gs")
        .unwrap();
    assert_eq!(r.row_count(), 51);
    assert_eq!(r.ws_calls, 1);
    assert_eq!(r.column_names, vec!["name", "state"]);
}

#[test]
fn constant_bound_query_needs_no_join() {
    // GetInfoByState with a constant input: one call, one row.
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let r = setup
        .wsmed
        .run_central("select gi.GetInfoByStateResult from GetInfoByState gi where gi.USState='CO'")
        .unwrap();
    assert_eq!(r.row_count(), 1);
    assert!(r.rows[0].get(0).as_str().unwrap().contains("80840"));
}

#[test]
fn two_independent_sources_and_one_dependent_join() {
    // GetAllStates (independent) × GetInfoByState('CO') (independent,
    // constant-bound) feeding a filter — the mixed shape of §VII. The
    // calculus orderer must put both independents first.
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let sql = "select gs.State, gi.GetInfoByStateResult \
               from GetAllStates gs, GetInfoByState gi \
               where gi.USState='CO' and gs.State='GA'";
    let calc = setup.wsmed.calculus(sql).unwrap();
    assert_eq!(calc.first_ordering_violation(), None);
    let r = setup.wsmed.run_central(sql).unwrap();
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "GA");
}

#[test]
fn dependent_join_with_filter_on_intermediate_level() {
    // Restrict Query2's middle level to one state: far fewer calls.
    let setup = paper::setup(0.0, DatasetConfig::small());
    let sql = "select gp.ToState, gp.zip \
               From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
               Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
                 and gc.zipcode=gp.zip and gp.ToPlace='USAF Academy' \
                 and gi.USState='CO'";
    let r = setup.wsmed.run_central(sql).unwrap();
    assert_eq!(r.row_count(), 1);
    // 1 GetAllStates + 51 GetInfoByState? No: USState is bound to 'CO', so
    // the equal filter on gs.State='CO'… the constant propagates to the
    // join, leaving one GetInfoByState call and CO's zips only.
    let zips = setup.dataset.config().zips_per_state as u64;
    assert!(
        r.ws_calls <= 2 + zips,
        "constant propagation failed: {} calls for {} zips",
        r.ws_calls,
        zips
    );
}

#[test]
fn parallel_plan_streams_first_row_before_completion() {
    let setup = paper::setup(0.002, DatasetConfig::small());
    let r = setup
        .wsmed
        .run_parallel(paper::QUERY1_SQL, &vec![4, 4])
        .unwrap();
    let first = r
        .first_row_wall
        .expect("parallel plans report first-row latency");
    assert!(first < r.wall, "first row must precede completion");
    assert!(
        first < r.wall / 2,
        "streaming: first row at {first:?} of {:?} total",
        r.wall
    );
    assert!(first > Duration::ZERO);
}

#[test]
fn central_plan_reports_no_first_row_latency() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let r = setup.wsmed.run_central(paper::QUERY1_SQL).unwrap();
    assert!(r.first_row_wall.is_none());
}

#[test]
fn projection_of_coordinator_column_through_levels() {
    // Project a column produced in the coordinator (gs.State) next to a
    // leaf-level column — the parameter projection must thread it through
    // both plan functions.
    let setup = paper::setup(0.0, DatasetConfig::small());
    let sql = "select gp.state, gl.placename \
               From GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl \
               Where gs.State=gp.state and gp.distance=15.0 \
                 and gp.placeTypeToFind='City' and gp.place='Atlanta' \
                 and gl.placeName=gp.ToPlace+', '+gp.ToState \
                 and gl.MaxItems=100 and gl.imagePresence='true'";
    let central = setup.wsmed.run_central(sql).unwrap();
    let parallel = setup.wsmed.run_parallel(sql, &vec![3, 2]).unwrap();
    assert_eq!(
        wsmed::store::canonicalize(parallel.rows),
        wsmed::store::canonicalize(central.rows.clone())
    );
    // Every row carries a two-letter state abbreviation in column 0.
    assert!(central
        .rows
        .iter()
        .all(|t| t.get(0).as_str().unwrap().len() == 2));
}

#[test]
fn materialized_baseline_matches_streamed_results() {
    // The WSQ/DSQ-style baseline must agree with every other strategy.
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let central = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
    let materialized = setup.wsmed.run_materialized(paper::QUERY2_SQL).unwrap();
    assert_eq!(
        wsmed::store::canonicalize(materialized),
        wsmed::store::canonicalize(central.rows)
    );
}

#[test]
fn materialized_baseline_applies_every_local_operator() {
    // The baseline drives the executor's own stages, so ORDER BY,
    // DISTINCT, LIMIT, COUNT(*), GROUP BY with each aggregate and a
    // helping function give the central plan's rows over a dependent join.
    // Its burst keeps each level's rows in their input rows' order, so the
    // rows match in order too.
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let queries = [
        "select gs.State, gi.GetInfoByStateResult \
         from GetAllStates gs, GetInfoByState gi where gs.State=gi.USState \
         order by gs.State desc limit 7",
        "select distinct gs.Type from GetAllStates gs, GetInfoByState gi \
         where gs.State=gi.USState",
        "select count(*) from GetAllStates gs, GetInfoByState gi \
         where gs.State=gi.USState",
        "select gs.Type, min(gs.LatDegrees), max(gs.LatDegrees), \
                avg(gs.LatDegrees), sum(gs.LonDegrees), count(*) \
         from GetAllStates gs, GetInfoByState gi where gs.State=gi.USState \
         group by gs.Type",
        "select gp.ToState, count(*) \
         From GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp \
         Where gs.State=gi.USState and gi.GetInfoByStateResult=gc.zipstr \
           and gc.zipcode=gp.zip \
         group by gp.ToState having count(*) >= 2 order by gp.ToState",
        "Select gl.placename, gl.state \
         From GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl \
         Where gs.State=gp.state and gp.distance=15.0 \
           and gp.placeTypeToFind='City' and gp.place='Atlanta' \
           and gl.placeName=gp.ToPlace+', '+gp.ToState \
           and gl.MaxItems=100 and gl.imagePresence='true' \
         order by gl.state, gl.placename limit 10",
    ];
    for sql in queries {
        let central = setup.wsmed.run_central(sql).unwrap();
        assert!(!central.rows.is_empty(), "{sql}");
        let materialized = setup.wsmed.run_materialized(sql).unwrap();
        assert_eq!(materialized, central.rows, "{sql}");
    }
}

#[test]
fn materialized_baseline_drives_unbounded_concurrency() {
    use wsmed::services::UsZipService;
    // 51 GetInfoByState calls in one burst: peak in-flight far above the
    // provider's capacity of 4 — the behaviour bounded trees avoid.
    let setup = paper::setup(0.0005, DatasetConfig::tiny());
    setup.wsmed.run_materialized(paper::QUERY2_SQL).unwrap();
    let m = setup
        .network
        .provider(UsZipService::PROVIDER)
        .unwrap()
        .metrics();
    assert!(
        m.max_in_flight > 10,
        "expected an unbounded burst, peak was {}",
        m.max_in_flight
    );
}
