//! End-to-end pipeline tests: SQL → WSDL import → calculus → plans →
//! execution, for both paper queries, across all execution strategies.

use wsmed::core::{paper, AdaptiveConfig};
use wsmed::services::DatasetConfig;
use wsmed::store::{canonicalize, Tuple};

fn sorted(rows: &[Tuple]) -> Vec<Tuple> {
    canonicalize(rows.to_vec())
}

#[test]
fn query1_all_strategies_agree() {
    let setup = paper::setup(0.0, DatasetConfig::small());
    let w = &setup.wsmed;

    let central = w.run_central(paper::QUERY1_SQL).unwrap();
    assert!(
        central.row_count() > 100,
        "Query1 returns a few hundred rows"
    );
    assert!(central.ws_calls > 100);

    for fanouts in [vec![1, 1], vec![2, 3], vec![5, 4], vec![4, 0]] {
        let parallel = w.run_parallel(paper::QUERY1_SQL, &fanouts).unwrap();
        assert_eq!(
            sorted(&parallel.rows),
            sorted(&central.rows),
            "fanouts {fanouts:?} changed the result bag"
        );
        assert_eq!(
            parallel.ws_calls, central.ws_calls,
            "fanouts {fanouts:?} changed the number of web service calls"
        );
    }

    let adaptive = w
        .run_adaptive(paper::QUERY1_SQL, &AdaptiveConfig::default())
        .unwrap();
    assert_eq!(sorted(&adaptive.rows), sorted(&central.rows));
}

#[test]
fn query2_finds_usaf_academy_everywhere() {
    let setup = paper::setup(0.0, DatasetConfig::small());
    let w = &setup.wsmed;

    let central = w.run_central(paper::QUERY2_SQL).unwrap();
    assert_eq!(central.row_count(), 1);
    let row = &central.rows[0];
    assert_eq!(row.get(0).as_str().unwrap(), "CO");
    assert_eq!(row.get(1).as_str().unwrap(), "80840");

    let parallel = w.run_parallel(paper::QUERY2_SQL, &vec![4, 3]).unwrap();
    assert_eq!(sorted(&parallel.rows), sorted(&central.rows));

    let adaptive = w
        .run_adaptive(paper::QUERY2_SQL, &AdaptiveConfig::default())
        .unwrap();
    assert_eq!(sorted(&adaptive.rows), sorted(&central.rows));
}

#[test]
fn query1_call_counts_match_paper_on_full_dataset() {
    let setup = paper::setup(0.0, DatasetConfig::paper());
    let central = setup.wsmed.run_central(paper::QUERY1_SQL).unwrap();
    // §II.A: "A naïve central sequential execution plan invokes more than
    // 300 web service calls" and "returns a stream of 360 result tuples".
    assert!(central.ws_calls > 300, "got {} calls", central.ws_calls);
    assert!(
        (280..=440).contains(&central.row_count()),
        "got {} rows; paper reports 360",
        central.row_count()
    );
}

#[test]
fn query2_call_counts_match_paper_on_full_dataset() {
    let setup = paper::setup(0.0, DatasetConfig::paper());
    let central = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
    // §I: "makes 5000 calls sequentially".
    assert!(central.ws_calls > 5000, "got {} calls", central.ws_calls);
    assert_eq!(central.row_count(), 1);

    // What the simulated network charged is a function of every request's
    // and response's encoded size and of every call's RNG stream. These
    // figures were recorded while sizes were still `to_xml().len()` and
    // stream labels still `format!`-ed; the call path may get cheaper, the
    // model may not notice. (calls, charged model µs, request B, response B)
    let charged: Vec<(String, u64, u64, u64, u64)> = setup
        .network
        .metrics_by_provider()
        .into_iter()
        .filter(|(_, m)| m.calls > 0)
        .map(|(name, m)| {
            let micros = (m.total_model_latency * 1e6).round() as u64;
            (name, m.calls, micros, m.request_bytes, m.response_bytes)
        })
        .collect();
    let expected = [
        ("codebump.com/geo", 1, 864_815, 15, 11_184),
        ("codebump.com/zip", 5100, 2_312_074_328, 260_100, 1_617_948),
        ("webservicex.net", 51, 55_123_506, 2_754, 35_343),
    ]
    .map(|(name, calls, micros, req, resp)| (name.to_owned(), calls, micros, req, resp));
    assert_eq!(charged, expected);
}

#[test]
fn process_tree_shapes_match_fanout_vectors() {
    let setup = paper::setup(0.0, DatasetConfig::small());
    let w = &setup.wsmed;

    let r = w.run_parallel(paper::QUERY1_SQL, &vec![3, 2]).unwrap();
    assert_eq!(r.tree.levels[0].alive, 1);
    assert_eq!(r.tree.levels[1].alive, 3);
    assert_eq!(r.tree.levels[2].alive, 6);
    assert_eq!(r.tree.fanout_at(0), Some(3.0));
    assert_eq!(r.tree.fanout_at(1), Some(2.0));

    // Flat tree: one level only (Fig. 14).
    let r = w.run_parallel(paper::QUERY1_SQL, &vec![5, 0]).unwrap();
    assert_eq!(r.tree.levels.len(), 2);
    assert_eq!(r.tree.levels[1].alive, 5);
}

#[test]
fn explain_covers_all_stages() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let text = setup
        .wsmed
        .explain(paper::QUERY1_SQL, Some(&vec![5, 4]))
        .unwrap();
    assert!(text.contains("== calculus =="));
    assert!(text.contains("GetPlacesWithin(\"Atlanta\""));
    assert!(text.contains("== central plan =="));
    assert!(text.contains("γ GetPlaceList"));
    assert!(text.contains("== parallel plan"));
    assert!(text.contains("FF_γ PF1 fanout=5"));
    assert!(text.contains("FF_γ PF2 fanout=4"));
}

#[test]
fn parallel_levels_reports_two_for_both_queries() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    assert_eq!(setup.wsmed.parallel_levels(paper::QUERY1_SQL).unwrap(), 2);
    assert_eq!(setup.wsmed.parallel_levels(paper::QUERY2_SQL).unwrap(), 2);
}

#[test]
fn bad_sql_and_bad_fanouts_error_cleanly() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let w = &setup.wsmed;
    assert!(w.run_central("select nothing").is_err());
    assert!(w
        .run_central("select gs.Bogus from GetAllStates gs")
        .is_err());
    assert!(w.run_parallel(paper::QUERY1_SQL, &vec![5]).is_err());
    assert!(w.run_parallel(paper::QUERY1_SQL, &vec![0, 4]).is_err());
}

#[test]
fn repeated_executions_are_stable() {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let w = &setup.wsmed;
    let first = w.run_parallel(paper::QUERY1_SQL, &vec![2, 2]).unwrap();
    for _ in 0..3 {
        let again = w.run_parallel(paper::QUERY1_SQL, &vec![2, 2]).unwrap();
        assert_eq!(sorted(&again.rows), sorted(&first.rows));
    }
}
