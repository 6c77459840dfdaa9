//! A WSQ/DSQ-style baseline: asynchronous *materialized* dependent joins.
//!
//! The paper's related work (§VI) contrasts WSMED with WSQ/DSQ
//! [Goldman & Widom, SIGMOD 2000], which "handles high-latency calls …
//! by launching asynchronous materialized dependent joins later joined in
//! the execution plan": for each level, issue **all** calls of that level
//! concurrently (no fanout bound), materialize the full intermediate
//! result, then move to the next level. WSMED instead streams parameter
//! tuples through a *bounded* process tree.
//!
//! This module implements that baseline faithfully enough to compare:
//!
//! * level-at-a-time execution with a barrier between levels (no
//!   cross-level pipelining);
//! * unbounded intra-level concurrency (one thread per pending call);
//! * full materialization of each level's output.
//!
//! Against saturating providers the unbounded burst drives the congestion
//! model far past capacity, which is exactly why the paper's bounded,
//! near-balanced trees win — the `wsq_baseline` bench harness measures it.

use std::sync::Arc;

use wsmed_store::Tuple;

use crate::exec::{block_on, builtin_functions, ExecContext, ProcEnv};
use crate::plan::{ArgExpr, PlanOp, QueryPlan};
use crate::{CoreError, CoreResult};

/// Executes a **central** plan level-at-a-time with unbounded asynchronous
/// calls per level, WSQ/DSQ style. Returns the same rows as
/// [`ExecContext::run_plan`] on the central plan.
pub fn run_materialized(ctx: &Arc<ExecContext>, plan: &QueryPlan) -> CoreResult<Vec<Tuple>> {
    let cache = ctx.call_cache();
    if let Some(cache) = cache {
        cache.begin_run();
    }
    let result = run_materialized_inner(ctx, plan);
    if let Some(cache) = cache {
        cache.end_run();
    }
    result
}

fn run_materialized_inner(ctx: &Arc<ExecContext>, plan: &QueryPlan) -> CoreResult<Vec<Tuple>> {
    // Decompose the chain bottom-up.
    let mut stages: Vec<&PlanOp> = Vec::new();
    let mut op = &plan.root;
    loop {
        stages.push(op);
        match op.input() {
            Some(input) => op = input,
            None => break,
        }
    }
    stages.reverse();

    // The stream is fully materialized between stages.
    let mut rows: Vec<Tuple> = vec![Tuple::empty()];
    for stage in stages {
        rows = match stage {
            PlanOp::Unit => rows,
            PlanOp::Param { .. } => {
                return Err(CoreError::InvalidPlan(
                    "materialized execution takes a central plan, not a plan function".into(),
                ))
            }
            PlanOp::FfApply { .. } | PlanOp::AffApply { .. } => {
                return Err(CoreError::InvalidPlan(
                    "materialized execution takes a central plan, not a parallel one".into(),
                ))
            }
            PlanOp::ApplyOwf { owf, args, .. } => {
                // The WSQ/DSQ step: all calls of this level at once.
                let owf = ctx.owfs().get(owf)?.clone();
                let handles: Vec<_> = rows
                    .into_iter()
                    .map(|row| {
                        let ctx = Arc::clone(ctx);
                        let owf = owf.clone();
                        let values = resolve_args(args, &row);
                        std::thread::spawn(move || -> CoreResult<Vec<Tuple>> {
                            // Each call is a party of its own, paying on
                            // its own debt, and traced to the coordinator.
                            let env = ProcEnv::coordinator();
                            let response = block_on(ctx.call_with_retry(&env, &owf, &values))?;
                            let mut produced = Vec::new();
                            owf.flatten_onto(row.values(), &response, &mut produced);
                            Ok(produced)
                        })
                    })
                    .collect();
                let mut out = Vec::new();
                let mut first_error = None;
                for handle in handles {
                    match handle.join() {
                        Ok(Ok(mut produced)) => out.append(&mut produced),
                        Ok(Err(e)) => {
                            first_error.get_or_insert(e);
                        }
                        Err(_) => {
                            first_error.get_or_insert(CoreError::ProcessFailure(
                                "async call thread panicked".into(),
                            ));
                        }
                    }
                }
                if let Some(e) = first_error {
                    return Err(e);
                }
                out
            }
            PlanOp::ApplyFunction { function, args, .. } => {
                let mut out = Vec::new();
                for row in rows {
                    let values = resolve_args(args, &row);
                    for produced in builtin_functions().apply(function, &values)? {
                        out.push(row.concat(&produced));
                    }
                }
                out
            }
            PlanOp::Extend { exprs, .. } => rows
                .into_iter()
                .map(|row| {
                    let extra = Tuple::new(resolve_args(exprs, &row));
                    row.concat(&extra)
                })
                .collect(),
            PlanOp::Project { columns, .. } => {
                rows.into_iter().map(|row| row.project(columns)).collect()
            }
            PlanOp::Sort { keys, .. } => {
                let mut rows = rows;
                rows.sort_by(|a, b| {
                    for &(col, desc) in keys.iter() {
                        let ord = a.get(col).total_cmp(b.get(col));
                        if ord != std::cmp::Ordering::Equal {
                            return if desc { ord.reverse() } else { ord };
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows
            }
            PlanOp::Distinct { .. } => {
                let mut rows = rows;
                rows.sort_by(|a, b| a.total_cmp(b));
                rows.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
                rows
            }
            PlanOp::Limit { count, .. } => {
                let mut rows = rows;
                rows.truncate(*count);
                rows
            }
            PlanOp::Count { .. } => {
                vec![Tuple::new(vec![wsmed_store::Value::Int(rows.len() as i64)])]
            }
            PlanOp::GroupBy {
                key_count, aggs, ..
            } => crate::exec::group_rows(*key_count, aggs, rows)?,
        };
    }
    Ok(rows)
}

fn resolve_args(args: &[ArgExpr], row: &Tuple) -> Vec<wsmed_store::Value> {
    args.iter()
        .map(|a| match a {
            ArgExpr::Col(i) => row.get(*i).clone(),
            ArgExpr::Const(v) => v.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{MockTransport, WsTransport};
    use crate::OwfCatalog;
    use wsmed_store::{canonicalize, Record, SqlType, Value};
    use wsmed_wsdl::{OperationDef, TypeNode, WsdlDocument};

    fn echo_catalog() -> Arc<OwfCatalog> {
        let mut cat = OwfCatalog::new();
        let doc = WsdlDocument {
            service_name: "Mock".into(),
            target_namespace: "urn:mock".into(),
            operations: vec![OperationDef {
                name: "Echo".into(),
                inputs: vec![("x".into(), SqlType::Charstring)],
                output: TypeNode::Record {
                    name: "EchoResponse".into(),
                    fields: vec![TypeNode::Repeated {
                        element: Box::new(TypeNode::Scalar {
                            name: "y".into(),
                            ty: SqlType::Charstring,
                        }),
                    }],
                },
                doc: None,
            }],
        };
        cat.import(&doc, "urn:mock.wsdl").unwrap();
        Arc::new(cat)
    }

    fn ctx() -> Arc<ExecContext> {
        let transport = MockTransport::new(|_, args| {
            let arg = args[0].as_str().map_err(CoreError::Store)?;
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
        });
        ExecContext::new(
            transport as Arc<dyn WsTransport>,
            echo_catalog(),
            wsmed_netsim::SimConfig::default(),
            crate::RunConfig::default(),
        )
    }

    fn central() -> QueryPlan {
        QueryPlan {
            root: PlanOp::Project {
                columns: vec![2],
                input: Box::new(PlanOp::ApplyOwf {
                    owf: "Echo".into(),
                    args: vec![ArgExpr::Col(1)],
                    output_arity: 1,
                    input: Box::new(PlanOp::ApplyOwf {
                        owf: "Echo".into(),
                        args: vec![ArgExpr::Col(0)],
                        output_arity: 1,
                        input: Box::new(PlanOp::Extend {
                            exprs: vec![ArgExpr::Const(Value::str("a|b|c"))],
                            input: Box::new(PlanOp::Unit),
                        }),
                    }),
                }),
            },
            column_names: vec!["y".into()],
        }
    }

    #[test]
    fn materialized_matches_streamed_central() {
        let ctx = ctx();
        let plan = central();
        let streamed = ctx.run_plan(&plan).unwrap();
        let materialized = run_materialized(&ctx, &plan).unwrap();
        assert_eq!(canonicalize(materialized), canonicalize(streamed.rows));
    }

    #[test]
    fn rejects_parallel_plans() {
        let ctx = ctx();
        let plan = central();
        let parallel = crate::parallel::parallelize(&plan, &vec![2, 2]).unwrap();
        assert!(matches!(
            run_materialized(&ctx, &parallel),
            Err(CoreError::InvalidPlan(_))
        ));
    }

    #[test]
    fn propagates_call_errors() {
        let transport = MockTransport::new(|_, args| {
            let arg = args[0].as_str().map_err(CoreError::Store)?;
            if arg == "b" {
                return Err(CoreError::ProcessFailure("boom".into()));
            }
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
        });
        let ctx = ExecContext::new(
            transport as Arc<dyn WsTransport>,
            echo_catalog(),
            wsmed_netsim::SimConfig::default(),
            crate::RunConfig::default(),
        );
        assert!(run_materialized(&ctx, &central()).is_err());
    }
}
