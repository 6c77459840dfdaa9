//! Golden snapshots of the full compilation pipeline for both paper
//! queries: calculus text, central plan shape and parallel plan shape.
//! Any unintended change to the frontend, planner or parallelizer shows up
//! as a diff here.

use wsmed::core::{paper, AdaptiveConfig};
use wsmed::services::DatasetConfig;

#[test]
fn query1_calculus_snapshot() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let calc = setup.wsmed.calculus(paper::QUERY1_SQL).unwrap().to_string();
    assert_eq!(
        calc,
        "Query(placename, state) :- \
         GetAllStates( -> _, _, state, _, _, _, _) AND \
         GetPlacesWithin(\"Atlanta\", state, 15, \"City\" -> toplace, tostate, _) AND \
         concat3(toplace, \", \", tostate -> placename) AND \
         GetPlaceList(placename, 100, \"true\" -> placename, state, _, _, _, _, _, _)"
    );
}

#[test]
fn query2_calculus_snapshot() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let calc = setup.wsmed.calculus(paper::QUERY2_SQL).unwrap().to_string();
    assert_eq!(
        calc,
        "Query(tostate, zipcode) :- \
         GetAllStates( -> _, _, state, _, _, _, _) AND \
         GetInfoByState(state -> getinfobystateresult) AND \
         getzipcode(getinfobystateresult -> zipcode) AND \
         GetPlacesInside(zipcode -> toplace, tostate, _) AND \
         equal(\"USAF Academy\", toplace)"
    );
}

#[test]
fn query1_central_plan_snapshot() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let plan = setup.wsmed.compile_central(paper::QUERY1_SQL).unwrap();
    let text = plan.to_string();
    let expect = "\
columns: [placename, state]
π [#11, #12]
  γ GetPlaceList(#10, 100, \"true\")
    γ concat3(#7, \", \", #8)
      γ GetPlacesWithin(\"Atlanta\", #2, 15, \"City\")
        γ GetAllStates()
          unit
";
    assert_eq!(text, expect);
}

#[test]
fn query2_parallel_plan_snapshot() {
    // The nested FF structure of Fig. 13, with projected parameters.
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let plan = setup
        .wsmed
        .compile_parallel(paper::QUERY2_SQL, &vec![4, 3])
        .unwrap();
    let text = plan.to_string();
    let expect = "\
columns: [tostate, zipcode]
π [#2, #0]
  FF_γ PF1 fanout=4
    [PF1(param/1) ->]
      FF_γ PF2 fanout=3
        [PF2(param/1) ->]
          γ equal(\"USAF Academy\", #1)
            γ GetPlacesInside(#0)
              param/1
        π [#2]
          γ getzipcode(#1)
            γ GetInfoByState(#0)
              param/1
    π [#2]
      γ GetAllStates()
        unit
";
    assert_eq!(text, expect);
}

#[test]
fn grouped_query_plan_snapshot() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let plan = setup
        .wsmed
        .compile_central(
            "select count(*), gs.Type from GetAllStates gs \
             group by gs.Type having count(*) > 10 order by gs.Type limit 3",
        )
        .unwrap();
    let text = plan.to_string();
    let expect = "\
columns: [count, type]
limit 3
  sort [#1]
    γ gt(#0, 10)
      π [#1, #0]
        group by #0..#1 [count(*)]
          π [#1]
            γ GetAllStates()
              unit
";
    assert_eq!(text, expect);
}

/// The paper queries' central, parallel and adaptive plans render exactly
/// as they did before `PlanOp`'s `Display` stopped unwrapping inputs
/// (Query1 central and Query2 parallel are pinned above).
#[test]
fn query1_to_3_plans_render_unchanged() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let wsmed = &setup.wsmed;
    let central = |sql| wsmed.compile_central(sql).unwrap().to_string();
    let parallel =
        |sql, fanouts: Vec<usize>| wsmed.compile_parallel(sql, &fanouts).unwrap().to_string();
    let adaptive = |sql| {
        wsmed
            .compile_adaptive(sql, &AdaptiveConfig::default())
            .unwrap()
            .to_string()
    };
    let cases = [
        (
            parallel(paper::QUERY1_SQL, vec![5, 4]),
            "\
columns: [placename, state]
π [#1, #2]
  FF_γ PF1 fanout=5
    [PF1(param/1) ->]
      FF_γ PF2 fanout=4
        [PF2(param/1) ->]
          γ GetPlaceList(#0, 100, \"true\")
            param/1
        π [#4]
          γ concat3(#1, \", \", #2)
            γ GetPlacesWithin(\"Atlanta\", #0, 15, \"City\")
              param/1
    π [#2]
      γ GetAllStates()
        unit
",
        ),
        (
            adaptive(paper::QUERY1_SQL),
            "\
columns: [placename, state]
π [#1, #2]
  AFF_γ PF1 p=2 threshold=0.25 drop=false
    [PF1(param/1) ->]
      AFF_γ PF2 p=2 threshold=0.25 drop=false
        [PF2(param/1) ->]
          γ GetPlaceList(#0, 100, \"true\")
            param/1
        π [#4]
          γ concat3(#1, \", \", #2)
            γ GetPlacesWithin(\"Atlanta\", #0, 15, \"City\")
              param/1
    π [#2]
      γ GetAllStates()
        unit
",
        ),
        (
            central(paper::QUERY2_SQL),
            "\
columns: [tostate, zipcode]
π [#10, #8]
  γ equal(\"USAF Academy\", #9)
    γ GetPlacesInside(#8)
      γ getzipcode(#7)
        γ GetInfoByState(#2)
          γ GetAllStates()
            unit
",
        ),
        (
            adaptive(paper::QUERY2_SQL),
            "\
columns: [tostate, zipcode]
π [#2, #0]
  AFF_γ PF1 p=2 threshold=0.25 drop=false
    [PF1(param/1) ->]
      AFF_γ PF2 p=2 threshold=0.25 drop=false
        [PF2(param/1) ->]
          γ equal(\"USAF Academy\", #1)
            γ GetPlacesInside(#0)
              param/1
        π [#2]
          γ getzipcode(#1)
            γ GetInfoByState(#0)
              param/1
    π [#2]
      γ GetAllStates()
        unit
",
        ),
        (
            central(paper::QUERY3_SQL),
            "\
columns: [flightno, code, delayminutes]
sort [#0]
  π [#9, #7, #12]
    γ equal(\"Delayed\", #11)
      γ GetFlightStatus(#9)
        γ GetDepartures(#7)
          γ GetAirports(#2)
            γ GetAllStates()
              unit
",
        ),
        (
            parallel(paper::QUERY3_SQL, vec![3, 2, 2]),
            "\
columns: [flightno, code, delayminutes]
sort [#0]
  π [#1, #0, #3]
    FF_γ PF1 fanout=3
      [PF1(param/1) ->]
        FF_γ PF2 fanout=2
          [PF2(param/1) ->]
            FF_γ PF3 fanout=2
              [PF3(param/2) ->]
                γ equal(\"Delayed\", #2)
                  γ GetFlightStatus(#1)
                    param/2
              π [#0, #1]
                γ GetDepartures(#0)
                  param/1
          π [#1]
            γ GetAirports(#0)
              param/1
      π [#2]
        γ GetAllStates()
          unit
",
        ),
        (
            adaptive(paper::QUERY3_SQL),
            "\
columns: [flightno, code, delayminutes]
sort [#0]
  π [#1, #0, #3]
    AFF_γ PF1 p=2 threshold=0.25 drop=false
      [PF1(param/1) ->]
        AFF_γ PF2 p=2 threshold=0.25 drop=false
          [PF2(param/1) ->]
            AFF_γ PF3 p=2 threshold=0.25 drop=false
              [PF3(param/2) ->]
                γ equal(\"Delayed\", #2)
                  γ GetFlightStatus(#1)
                    param/2
              π [#0, #1]
                γ GetDepartures(#0)
                  param/1
          π [#1]
            γ GetAirports(#0)
              param/1
      π [#2]
        γ GetAllStates()
          unit
",
        ),
    ];
    for (rendered, expected) in cases {
        assert_eq!(rendered, expected);
    }
}
