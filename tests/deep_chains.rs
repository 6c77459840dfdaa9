//! Dependent-join chains deeper than the paper's experiments.
//!
//! §VII claims "our algebra operators FF_APPLYP and AFF_APPLYP can handle
//! parallel query plans for a query with any number of dependent joins" —
//! but the evaluation only exercised two parallel levels. These tests
//! build three- and four-level chains over mock services and check that
//! the whole pipeline (SQL → calculus → central → rewrite → process tree)
//! handles them, with correct results, correct tree depth, and scalar
//! shipped parameters at every level.

use std::sync::Arc;

use wsmed::core::{
    create_central_plan, parallelize, parallelize_adaptive, AdaptiveConfig, CoreError, ExecContext,
    MockTransport, OwfCatalog, PlanOp, QueryPlan, RunConfig, WsTransport,
};
use wsmed::netsim::SimConfig;
use wsmed::sql::{generate_calculus, parse_select};
use wsmed::store::{canonicalize, FunctionRegistry, Record, SqlType, Value};
use wsmed::wsdl::{OperationDef, TypeNode, WsdlDocument};

/// Builds a catalog of chained split operations:
/// `Root() -> s0`, then `SplitN(sN-1) -> sN` for each level.
fn chain_catalog(levels: usize) -> Arc<OwfCatalog> {
    let mut operations = vec![OperationDef {
        name: "Root".into(),
        inputs: vec![],
        output: TypeNode::Record {
            name: "RootResponse".into(),
            fields: vec![TypeNode::Repeated {
                element: Box::new(TypeNode::Scalar {
                    name: "s0".into(),
                    ty: SqlType::Charstring,
                }),
            }],
        },
        doc: None,
    }];
    for level in 1..=levels {
        operations.push(OperationDef {
            name: format!("Split{level}"),
            inputs: vec![(format!("in{level}"), SqlType::Charstring)],
            output: TypeNode::Record {
                name: format!("Split{level}Response"),
                fields: vec![TypeNode::Repeated {
                    element: Box::new(TypeNode::Scalar {
                        name: format!("s{level}"),
                        ty: SqlType::Charstring,
                    }),
                }],
            },
            doc: None,
        });
    }
    let doc = WsdlDocument {
        service_name: "Chain".into(),
        target_namespace: "urn:chain".into(),
        operations,
    };
    let mut cat = OwfCatalog::new();
    cat.import(&doc, "urn:chain.wsdl").unwrap();
    Arc::new(cat)
}

/// Mock service: `Root` emits two seeds; every `SplitN` fans each input
/// into two values tagged with the level, so an L-level chain returns
/// `2^(L+1)` rows.
fn chain_transport() -> Arc<MockTransport> {
    MockTransport::new(|owf, args| {
        let field = owf.columns[0].0.clone();
        let parts: Vec<Value> = if owf.operation == "Root" {
            vec![Value::str("seedA"), Value::str("seedB")]
        } else {
            let input = args[0].as_str().map_err(CoreError::Store)?;
            let level = owf.operation.trim_start_matches("Split");
            vec![
                Value::from(format!("{input}/L{level}a")),
                Value::from(format!("{input}/L{level}b")),
            ]
        };
        Ok(Value::Record(
            Record::new().with(field, Value::Sequence(parts)),
        ))
    })
}

/// Compiles the L-level chain query through the full SQL pipeline.
fn compile_chain(levels: usize, owfs: &OwfCatalog) -> QueryPlan {
    let mut from = vec!["Root r".to_owned()];
    let mut preds = Vec::new();
    for level in 1..=levels {
        from.push(format!("Split{level} p{level}"));
        let producer = if level == 1 {
            "r.s0".to_owned()
        } else {
            format!("p{}.s{}", level - 1, level - 1)
        };
        preds.push(format!("{producer} = p{level}.in{level}"));
    }
    let sql = format!(
        "select p{levels}.s{levels} from {} where {}",
        from.join(", "),
        preds.join(" and ")
    );
    let stmt = parse_select(&sql).unwrap();
    let calc = generate_calculus(&stmt, &owfs.sql_catalog()).unwrap();
    create_central_plan(&calc, owfs, &FunctionRegistry::with_builtins()).unwrap()
}

fn run(plan: &QueryPlan, owfs: &Arc<OwfCatalog>) -> wsmed::core::ExecutionReport {
    let ctx = ExecContext::new(
        chain_transport() as Arc<dyn WsTransport>,
        Arc::clone(owfs),
        SimConfig::default(),
        RunConfig::default(),
    );
    ctx.run_plan(plan).unwrap()
}

#[test]
fn three_level_chain_parallelizes_to_depth_three() {
    let owfs = chain_catalog(3);
    let central = compile_chain(3, &owfs);
    assert_eq!(
        central.root.owf_calls(),
        vec!["Root", "Split1", "Split2", "Split3"]
    );

    let parallel = parallelize(&central, &vec![2, 2, 2]).unwrap();
    assert_eq!(parallel.root.parallel_depth(), 3);

    let c = run(&central, &owfs);
    let p = run(&parallel, &owfs);
    assert_eq!(c.row_count(), 16); // 2 seeds × 2 × 2 × 2
    assert_eq!(canonicalize(p.rows.clone()), canonicalize(c.rows.clone()));
    // Full tree: 1 + 2 + 4 + 8 processes.
    assert_eq!(p.tree.levels[1].alive, 2);
    assert_eq!(p.tree.levels[2].alive, 4);
    assert_eq!(p.tree.levels[3].alive, 8);
}

#[test]
fn three_level_chain_reports_the_whole_tree_on_every_run() {
    // A process still installing when its siblings have done all the work
    // has not spawned its own children yet; the report's snapshot waits for
    // every install, so the full tree shows on every run.
    let owfs = chain_catalog(3);
    let parallel = parallelize(&compile_chain(3, &owfs), &vec![2, 2, 2]).unwrap();
    for run_no in 0..200 {
        let report = run(&parallel, &owfs);
        let alive: Vec<usize> = (1..=3).map(|l| report.tree.levels[l].alive).collect();
        assert_eq!(alive, vec![2, 4, 8], "run {run_no}");
    }
}

#[test]
fn four_level_chain_with_mixed_fanouts() {
    let owfs = chain_catalog(4);
    let central = compile_chain(4, &owfs);
    let parallel = parallelize(&central, &vec![3, 1, 2, 1]).unwrap();
    assert_eq!(parallel.root.parallel_depth(), 4);
    let c = run(&central, &owfs);
    let p = run(&parallel, &owfs);
    assert_eq!(c.row_count(), 32);
    assert_eq!(canonicalize(p.rows), canonicalize(c.rows));
    assert_eq!(p.tree.levels[1].alive, 3);
    assert_eq!(p.tree.levels[2].alive, 3);
    assert_eq!(p.tree.levels[3].alive, 6);
    assert_eq!(p.tree.levels[4].alive, 6);
}

#[test]
fn middle_level_can_be_merged_flat() {
    let owfs = chain_catalog(3);
    let central = compile_chain(3, &owfs);
    // {2, 0, 2}: Split2 merges into Split1's plan function — three OWFs on
    // two parallel levels.
    let parallel = parallelize(&central, &vec![2, 0, 2]).unwrap();
    assert_eq!(parallel.root.parallel_depth(), 2);
    let c = run(&central, &owfs);
    let p = run(&parallel, &owfs);
    assert_eq!(canonicalize(p.rows), canonicalize(c.rows));
}

#[test]
fn deep_chain_parameters_stay_scalar() {
    // Parameter projection must hold at every depth: each level ships only
    // the column the next split consumes.
    let owfs = chain_catalog(4);
    let central = compile_chain(4, &owfs);
    let parallel = parallelize(&central, &vec![2, 2, 2, 2]).unwrap();
    let mut op = &parallel.root;
    let mut depth = 0;
    loop {
        if let PlanOp::FfApply { pf, .. } = op {
            assert_eq!(pf.param_arity, 1, "{} ships more than one column", pf.name);
            depth += 1;
            op = &pf.body;
            continue;
        }
        match op.input() {
            Some(input) => op = input,
            None => break,
        }
    }
    assert_eq!(depth, 4);
}

#[test]
fn adaptive_works_on_deep_chains() {
    let owfs = chain_catalog(3);
    let central = compile_chain(3, &owfs);
    let adaptive = parallelize_adaptive(&central, &AdaptiveConfig::default()).unwrap();
    assert_eq!(adaptive.root.parallel_depth(), 3);
    let c = run(&central, &owfs);
    let a = run(&adaptive, &owfs);
    assert_eq!(canonicalize(a.rows), canonicalize(c.rows));
    // The init stage builds a binary tree at every level.
    assert!(a.tree.levels[1].ever >= 2);
    assert!(a.tree.levels[2].ever >= 4);
    assert!(a.tree.levels[3].ever >= 8);
}
