//! First-finished vs round-robin dispatch (§III.A ablation).
//!
//! The paper's `FF_APPLYP` sends the next pending parameter tuple to
//! whichever child finished first. These tests check the round-robin
//! baseline is semantically equivalent but loses wall time under skewed
//! per-call latency — the justification for the FF design.

use std::time::Duration;

use wsmed::core::{paper, DispatchPolicy};
use wsmed::services::DatasetConfig;
use wsmed::store::canonicalize;

#[test]
fn round_robin_produces_identical_results() {
    let mut setup = paper::setup(0.0, DatasetConfig::small());
    let ff = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 3])
        .unwrap();
    setup.wsmed.set_dispatch_policy(DispatchPolicy::RoundRobin);
    let rr = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 3])
        .unwrap();
    assert_eq!(canonicalize(rr.rows), canonicalize(ff.rows));
    assert_eq!(rr.ws_calls, ff.ws_calls);
}

#[test]
fn round_robin_also_works_for_query1() {
    let mut setup = paper::setup(0.0, DatasetConfig::small());
    let central = setup.wsmed.run_central(paper::QUERY1_SQL).unwrap();
    setup.wsmed.set_dispatch_policy(DispatchPolicy::RoundRobin);
    for fanouts in [vec![1, 1], vec![2, 3], vec![4, 0]] {
        let rr = setup
            .wsmed
            .run_parallel(paper::QUERY1_SQL, &fanouts)
            .unwrap();
        assert_eq!(
            canonicalize(rr.rows),
            canonicalize(central.rows.clone()),
            "round robin at {fanouts:?} changed results"
        );
    }
}

#[test]
fn first_finished_beats_round_robin_under_skew() {
    // A deterministic skew scenario over a mock service: parameters whose
    // value starts with "slow" cost 100 ms, the rest 3 ms. The parameter
    // order is arranged so round-robin piles all three slow calls onto one
    // child (indexes 1, 3, 5 with fanout 2), serializing ~300 ms, while
    // first-finished overlaps them across both children (~200 ms).
    use std::sync::Arc;
    use wsmed::core::{ExecContext, MockTransport, PlanOp, QueryPlan, RunConfig, WsTransport};
    use wsmed::netsim::SimConfig;
    use wsmed::store::{Record, Value};
    use wsmed::wsdl::{OperationDef, TypeNode, WsdlDocument};

    let catalog = {
        let mut cat = wsmed::core::OwfCatalog::new();
        let doc = WsdlDocument {
            service_name: "Mock".into(),
            target_namespace: "urn:mock".into(),
            operations: vec![OperationDef {
                name: "Echo".into(),
                inputs: vec![("x".into(), wsmed::store::SqlType::Charstring)],
                output: TypeNode::Record {
                    name: "EchoResponse".into(),
                    fields: vec![TypeNode::Repeated {
                        element: Box::new(TypeNode::Scalar {
                            name: "y".into(),
                            ty: wsmed::store::SqlType::Charstring,
                        }),
                    }],
                },
                doc: None,
            }],
        };
        cat.import(&doc, "urn:mock.wsdl").unwrap();
        Arc::new(cat)
    };
    let transport = || {
        let delay = |_: &_, args: &[Value]| match args[0].as_str() {
            Ok(arg) if arg.starts_with("slow") => Duration::from_millis(100),
            Ok(arg) if !arg.contains('|') => Duration::from_millis(3),
            _ => Duration::ZERO,
        };
        MockTransport::with_delay(delay, |_, args| {
            let arg = args[0].as_str().map_err(wsmed::core::CoreError::Store)?;
            Ok(Value::Record(
                Record::new().with(
                    "y",
                    Value::Sequence(
                        arg.split('|')
                            .filter(|s| !s.is_empty())
                            .map(Value::str)
                            .collect(),
                    ),
                ),
            ))
        })
    };
    // Params at odd indexes are slow: with fanout 2, round-robin assigns
    // them all to the second child.
    let seed = "f0|slow0|f1|slow1|f2|slow2|f3|f4";
    let plan = QueryPlan {
        root: PlanOp::Project {
            columns: vec![2],
            input: Box::new(PlanOp::FfApply {
                pf: wsmed::core::PlanFunction {
                    name: "PF1".into(),
                    param_arity: 2,
                    body: Box::new(PlanOp::ApplyOwf {
                        owf: "Echo".into(),
                        args: vec![wsmed::core::ArgExpr::Col(1)],
                        output_arity: 1,
                        input: Box::new(PlanOp::Param { arity: 2 }),
                    }),
                    output_arity: 3,
                    prune: None,
                },
                fanout: 2,
                input: Box::new(PlanOp::ApplyOwf {
                    owf: "Echo".into(),
                    args: vec![wsmed::core::ArgExpr::Col(0)],
                    output_arity: 1,
                    input: Box::new(PlanOp::Extend {
                        exprs: vec![wsmed::core::ArgExpr::Const(Value::str(seed))],
                        input: Box::new(PlanOp::Unit),
                    }),
                }),
            }),
        },
        column_names: vec!["y".into()],
    };

    let run = |policy: DispatchPolicy| {
        let mut cfg = RunConfig::default();
        cfg.dispatch = policy;
        let ctx = ExecContext::new(
            transport() as Arc<dyn WsTransport>,
            Arc::clone(&catalog),
            SimConfig::default(),
            cfg,
        );
        let t0 = std::time::Instant::now();
        let r = ctx.run_plan(&plan).unwrap();
        assert_eq!(r.row_count(), 8);
        t0.elapsed()
    };

    let ff_time = run(DispatchPolicy::FirstFinished);
    let rr_time = run(DispatchPolicy::RoundRobin);
    assert!(
        ff_time.as_secs_f64() < rr_time.as_secs_f64() * 0.85,
        "first-finished ({ff_time:?}) should clearly beat round-robin ({rr_time:?})"
    );
}

#[test]
fn adaptive_ignores_round_robin_knob() {
    // AFF_APPLYP always dispatches first-finished; the knob must not break
    // adaptive execution (children added mid-run have no static share).
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_dispatch_policy(DispatchPolicy::RoundRobin);
    let central = setup.wsmed.run_central(paper::QUERY2_SQL).unwrap();
    let adaptive = setup
        .wsmed
        .run_adaptive(paper::QUERY2_SQL, &Default::default())
        .unwrap();
    assert_eq!(canonicalize(adaptive.rows), canonicalize(central.rows));
}

#[test]
fn round_robin_with_more_children_than_params() {
    // Slots beyond the parameter count must stay idle without hanging.
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_dispatch_policy(DispatchPolicy::RoundRobin);
    // 51 states at level 1 but only ~3 zips per state at level 2 — level-2
    // children outnumber per-call parameters.
    let r = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![2, 8])
        .unwrap();
    assert_eq!(r.row_count(), 1);
    let _ = Duration::ZERO;
}

#[test]
fn call_counts_reveal_dispatch_balance() {
    // Under uniform latency, both policies spread Query2's 51 level-1
    // calls across 3 children; the per-node counters expose it.
    let mut setup = paper::setup(0.0, DatasetConfig::tiny());
    setup.wsmed.set_dispatch_policy(DispatchPolicy::RoundRobin);
    let r = setup
        .wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![3, 1])
        .unwrap();
    let level1: Vec<u64> = r
        .tree
        .nodes
        .iter()
        .filter(|n| n.level == 1)
        .map(|n| n.calls)
        .collect();
    assert_eq!(level1.len(), 3);
    assert_eq!(level1.iter().sum::<u64>(), 51, "51 states dispatched");
    // Round-robin: 17/17/17.
    assert!(level1.iter().all(|&c| c == 17), "static split: {level1:?}");
    // The totals also show in the ASCII rendering.
    let ascii = r.tree.render_ascii();
    assert!(ascii.contains("[17 calls]"), "{ascii}");
}
