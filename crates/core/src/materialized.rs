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
//! * unbounded intra-level concurrency (one task per pending call);
//! * full materialization of each level's output.
//!
//! It walks the executor's own compiled stages instead of interpreting the
//! plan itself: every stage but a web-service call is applied exactly as
//! [`crate::exec`]'s interpreter applies it.
//!
//! Against saturating providers the unbounded burst drives the congestion
//! model far past capacity, which is exactly why the paper's bounded,
//! near-balanced trees win — the `wsq_baseline` bench harness measures it.

use std::sync::Arc;

use parking_lot::Mutex;
use wsmed_store::Tuple;
use wsmed_wsdl::OwfDef;

use crate::exec::{block_on, call_row, compile, spawn, ExecContext, ProcEnv, Stage};
use crate::plan::{ArgExpr, PlanOp, QueryPlan};
use crate::resilience::Skips;
use crate::{CoreError, CoreResult};

/// Executes a **central** plan level-at-a-time with unbounded asynchronous
/// calls per level, WSQ/DSQ style. Returns the same rows as
/// [`ExecContext::run_plan`] on the central plan, and counts the same skips
/// under partial failure mode.
pub(crate) fn run_materialized(ctx: &Arc<ExecContext>, plan: &QueryPlan) -> CoreResult<Vec<Tuple>> {
    // Checked before compiling, which would spawn a parallel plan's children.
    for op in std::iter::successors(Some(&plan.root), |op| op.input()) {
        let refused = match op {
            PlanOp::Param { .. } => "a plan function",
            PlanOp::FfApply { .. } | PlanOp::AffApply { .. } => "a parallel one",
            _ => continue,
        };
        return Err(CoreError::InvalidPlan(format!(
            "materialized execution takes a central plan, not {refused}"
        )));
    }
    ctx.in_busy_period(|| {
        block_on(async {
            let pipeline = compile(ctx, &ProcEnv::coordinator(), &plan.root).await?;
            // The stream is fully materialized between stages.
            let mut rows = vec![Tuple::empty()];
            let mut skips = Skips::default();
            for stage in pipeline.stages() {
                rows = match stage {
                    Stage::ApplyOwf { owf, args } => {
                        burst(ctx, owf, args, rows, &mut skips).await?
                    }
                    Stage::Local(stage) => stage.apply(ctx, rows)?,
                    Stage::Parallel(_) => unreachable!("refused above"),
                };
            }
            ctx.res_stats.note_skips(skips);
            Ok(rows)
        })
    })
}

/// What one call of a level produced and the skips it counted; empty
/// while it runs, and after it if its task panicked.
type Slot = Mutex<Option<CoreResult<(Vec<Tuple>, Skips)>>>;

/// The WSQ/DSQ step: every call of the level at once, one task each, each
/// the same per-row call body [`crate::exec::eval`] runs in sequence. A
/// task is a party of its own with its own pacing debt, so at a positive
/// time scale it waits its call's charge out on a timer right after
/// issuing it, and the level's calls overlap at their providers. The
/// level's rows and its skips, added to `skips`, keep the order of their
/// input rows, and the first failed row's error wins.
async fn burst(
    ctx: &Arc<ExecContext>,
    owf: &OwfDef,
    args: &[ArgExpr],
    rows: Vec<Tuple>,
    skips: &mut Skips,
) -> CoreResult<Vec<Tuple>> {
    let owf = Arc::new(owf.clone());
    let args: Arc<[ArgExpr]> = args.into();
    let slots: Arc<[Slot]> = rows.iter().map(|_| Mutex::new(None)).collect();
    let tasks: Vec<_> = rows
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let (ctx, owf, args) = (Arc::clone(ctx), Arc::clone(&owf), Arc::clone(&args));
            let slots = Arc::clone(&slots);
            spawn(async move {
                let env = ProcEnv::coordinator();
                let (mut produced, mut skipped) = (Vec::new(), Skips::default());
                let called = call_row(&ctx, &env, &owf, &args, &row, &mut produced, &mut skipped);
                let done = called.await.map(|()| (produced, skipped));
                *slots[i].lock() = Some(done);
            })
        })
        .collect();
    for task in tasks {
        task.await;
    }
    let rows_in = slots.len() as u64;
    let mut out = Vec::new();
    for slot in slots.iter() {
        match slot.lock().take() {
            Some(done) => {
                let (mut produced, skipped) = done?;
                out.append(&mut produced);
                skips.absorb(skipped);
            }
            None => return Err(CoreError::ProcessFailure("a call task panicked".into())),
        }
    }
    if let Some(obs) = ctx.planner_obs() {
        obs.observe_op(&owf.name, rows_in, out.len() as u64);
    }
    Ok(out)
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

    #[test]
    fn a_panicking_call_task_fails_the_run() {
        // The panicking task's slot stays empty, which fails the level
        // instead of losing that row's output.
        let transport = MockTransport::new(|_, args| {
            let arg = args[0].as_str().map_err(CoreError::Store)?;
            assert_ne!(arg, "b", "injected responder panic");
            let ys = arg.split('|').map(Value::str).collect();
            Ok(Value::Record(Record::new().with("y", Value::Sequence(ys))))
        });
        let ctx = ExecContext::new(
            transport as Arc<dyn WsTransport>,
            echo_catalog(),
            wsmed_netsim::SimConfig::default(),
            crate::RunConfig::default(),
        );
        assert!(matches!(
            run_materialized(&ctx, &central()),
            Err(CoreError::ProcessFailure(_))
        ));
    }

    #[test]
    fn partial_mode_skips_the_rows_the_central_run_skips() {
        // The call for "b" fails with a service fault: under partial mode
        // both drivers drop that row and count one skip.
        let partial = || {
            let transport = MockTransport::new(|_, args| {
                let arg = args[0].as_str().map_err(CoreError::Store)?;
                if arg == "b" {
                    return Err(CoreError::Net(wsmed_netsim::NetError::ServiceFault {
                        provider: "Mock".into(),
                        operation: "Echo".into(),
                        call_seq: 0,
                    }));
                }
                let ys = arg.split('|').map(Value::str).collect();
                Ok(Value::Record(Record::new().with("y", Value::Sequence(ys))))
            });
            let mut cfg = crate::RunConfig::default();
            cfg.resilience.failure_mode = crate::FailureMode::Partial;
            ExecContext::new(
                transport as Arc<dyn WsTransport>,
                echo_catalog(),
                wsmed_netsim::SimConfig::default(),
                cfg,
            )
        };
        let central_run = partial().run_plan(&central()).unwrap();
        let ctx = partial();
        let rows = run_materialized(&ctx, &central()).unwrap();
        assert_eq!(canonicalize(rows), canonicalize(central_run.rows));
        let skipped = ctx.res_stats.snapshot().skipped_params;
        assert_eq!(skipped, central_run.resilience.skipped_params);
        assert_eq!(skipped, 1);
    }
}
