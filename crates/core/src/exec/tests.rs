//! Executor tests: sequential evaluation, FF_APPLYP, AFF_APPLYP.

use std::sync::Arc;
use std::time::Duration;

use wsmed_store::{canonicalize, SqlType, Tuple, Value};
use wsmed_wsdl::{OwfDef, Response};

use crate::cache::{CachePolicy, CallCache};
use crate::catalog::OwfCatalog;
use crate::config::RunConfig;
use crate::exec::{block_on, ExecContext};
use crate::plan::{AdaptiveConfig, ArgExpr, PlanFunction, PlanOp, QueryPlan};
use crate::stats::ExecutionReport;
use crate::transport::{Charge, MockTransport, WsTransport};
use crate::{CoreError, CoreResult};

/// Builds a catalog with one mock OWF `Echo(x) -> <y>` that the mock
/// transport answers by splitting its argument on `|`.
fn echo_catalog() -> Arc<OwfCatalog> {
    use wsmed_wsdl::{OperationDef, TypeNode, WsdlDocument};
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

/// Wraps rows in the shape `xml_to_value` gives an `<EchoResponse>` body:
/// a record whose `y` field holds the repeated values.
fn echo_response(parts: Vec<Value>) -> Value {
    Value::Record(wsmed_store::Record::new().with("y", Value::Sequence(parts)))
}

/// Splits an argument on `sep` into an Echo response.
fn split_response(arg: &str, sep: char) -> Value {
    echo_response(
        arg.split(sep)
            .filter(|s| !s.is_empty())
            .map(Value::str)
            .collect(),
    )
}

/// Mock responder: `Echo("a|b")` yields rows `a`, `b`. The response shape
/// matches the Echo OWF's flatten spec (a repeated scalar).
fn echo_responder(_owf: &OwfDef, args: &[Value]) -> CoreResult<Value> {
    let arg = args[0].as_str().map_err(CoreError::Store)?;
    Ok(split_response(arg, '|'))
}

fn mock_ctx(transport: Arc<MockTransport>) -> Arc<ExecContext> {
    mock_ctx_with(transport, RunConfig::default())
}

fn mock_ctx_with(transport: Arc<MockTransport>, cfg: RunConfig) -> Arc<ExecContext> {
    ExecContext::new(
        transport as Arc<dyn WsTransport>,
        echo_catalog(),
        wsmed_netsim::SimConfig::default(),
        cfg,
    )
}

/// A run config memoizing through `cache`. Contexts built from clones of
/// it share the cache, as every run of one `Wsmed` does.
fn cached(cache: &Arc<CallCache>) -> RunConfig {
    RunConfig {
        cache: Some(Arc::clone(cache)),
        ..Default::default()
    }
}

/// A two-stage Echo plan over the seed string:
/// `unit → extend(seed) → Echo(#0)` splits the seed in the coordinator,
/// then a second `Echo(#1)` runs once per value — inline (sequential), via
/// `FF_APPLYP`, or via `AFF_APPLYP`.
fn echo_plan(seed: &str, parallel: Option<(usize, bool)>) -> QueryPlan {
    let source = PlanOp::ApplyOwf {
        owf: "Echo".into(),
        args: vec![ArgExpr::Col(0)],
        output_arity: 1,
        input: Box::new(PlanOp::Extend {
            exprs: vec![ArgExpr::Const(Value::str(seed))],
            input: Box::new(PlanOp::Unit),
        }),
    };
    let per_value = |input: PlanOp, param_col: usize| PlanOp::ApplyOwf {
        owf: "Echo".into(),
        args: vec![ArgExpr::Col(param_col)],
        output_arity: 1,
        input: Box::new(input),
    };
    let root = match parallel {
        None => PlanOp::Project {
            columns: vec![2],
            input: Box::new(per_value(source, 1)),
        },
        Some((fanout, adaptive)) => {
            let pf = PlanFunction {
                name: "PF1".into(),
                param_arity: 2,
                body: Box::new(per_value(PlanOp::Param { arity: 2 }, 1)),
                output_arity: 3,
                prune: None,
            };
            let par = if adaptive {
                PlanOp::AffApply {
                    pf,
                    config: AdaptiveConfig {
                        init_fanout: fanout,
                        ..Default::default()
                    },
                    input: Box::new(source),
                }
            } else {
                PlanOp::FfApply {
                    pf,
                    fanout,
                    input: Box::new(source),
                }
            };
            PlanOp::Project {
                columns: vec![2],
                input: Box::new(par),
            }
        }
    };
    QueryPlan {
        root,
        column_names: vec!["y".into()],
    }
}

fn rows_as_strings(rows: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|t| t.get(0).as_str().unwrap().to_owned())
        .collect();
    out.sort();
    out
}

#[test]
fn sequential_chain_evaluates() {
    let transport = MockTransport::new(echo_responder);
    let ctx = mock_ctx(Arc::clone(&transport));
    let plan = echo_plan("a|b|c", None);
    let report = ctx.run_plan(&plan).unwrap();
    assert_eq!(rows_as_strings(&report.rows), vec!["a", "b", "c"]);
    // One splitting call plus one per value.
    assert_eq!(transport.call_count(), 4);
    assert_eq!(report.column_names, vec!["y"]);
}

#[test]
fn ff_apply_matches_sequential_results() {
    let transport = MockTransport::new(echo_responder);
    let ctx = mock_ctx(transport);
    let plan = echo_plan("a|b|c", Some((3, false)));
    let report = ctx.run_plan(&plan).unwrap();
    assert_eq!(rows_as_strings(&report.rows), vec!["a", "b", "c"]);
    // Process tree: coordinator + 3 children on level 1.
    assert_eq!(report.tree.levels[1].alive, 3);
    assert_eq!(report.tree.fanout_at(0), Some(3.0));
}

/// A two-level nested plan: the outer PF splits on '|', the inner on ','.
fn nested_plan(fo1: usize, fo2: usize) -> QueryPlan {
    let inner_pf = PlanFunction {
        name: "PF2".into(),
        param_arity: 2,
        body: Box::new(PlanOp::ApplyOwf {
            owf: "Echo".into(),
            args: vec![ArgExpr::Col(1)],
            output_arity: 1,
            input: Box::new(PlanOp::Param { arity: 2 }),
        }),
        output_arity: 3,
        prune: None,
    };
    let outer_pf = PlanFunction {
        name: "PF1".into(),
        param_arity: 1,
        body: Box::new(PlanOp::FfApply {
            pf: inner_pf,
            fanout: fo2,
            input: Box::new(PlanOp::ApplyOwf {
                owf: "Echo".into(),
                args: vec![ArgExpr::Col(0)],
                output_arity: 1,
                input: Box::new(PlanOp::Param { arity: 1 }),
            }),
        }),
        output_arity: 3,
        prune: None,
    };
    QueryPlan {
        root: PlanOp::Project {
            columns: vec![2],
            input: Box::new(PlanOp::FfApply {
                pf: outer_pf,
                fanout: fo1,
                input: Box::new(PlanOp::Extend {
                    exprs: vec![ArgExpr::Const(Value::str("x,y|z,w"))],
                    input: Box::new(PlanOp::Unit),
                }),
            }),
        },
        column_names: vec!["y".into()],
    }
}

#[test]
fn nested_ff_builds_two_level_tree_and_is_correct() {
    // Seed "x,y|z,w": outer Echo → "x,y", "z,w"; inner Echo splits commas.
    let transport = MockTransport::new(|owf, args| {
        let arg = args[0].as_str().map_err(CoreError::Store)?;
        let sep = if arg.contains('|') { '|' } else { ',' };
        let _ = owf;
        Ok(split_response(arg, sep))
    });
    let ctx = mock_ctx(transport);
    let report = ctx.run_plan(&nested_plan(2, 3)).unwrap();
    assert_eq!(rows_as_strings(&report.rows), vec!["w", "x", "y", "z"]);
    // Tree: 1 coordinator, 2 level-1 children, each with 3 level-2 children.
    assert_eq!(report.tree.levels[1].alive, 2);
    assert_eq!(report.tree.levels[2].alive, 6);
    assert_eq!(report.tree.fanout_at(1), Some(3.0));
    assert_eq!(report.tree.peak_alive, 9);
}

#[test]
fn ff_apply_overlaps_calls_in_wall_time() {
    // 16 params, 30ms per call: sequential would take ≥ 480ms; with fanout
    // 8 it must finish far sooner.
    let seed = (0..16)
        .map(|i| format!("p{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let split_plan = echo_plan(&seed, None);
    let transport = MockTransport::with_delay(|_, _| Duration::from_millis(30), echo_responder);
    let ctx = mock_ctx(transport);
    let sequential = ctx.run_plan(&split_plan).unwrap();
    assert_eq!(sequential.rows.len(), 16);

    // Parallel: first split the seed (1 call), then fan out per-parameter
    // calls of Echo over the 16 values.
    let plan = echo_plan(&seed, Some((8, false)));
    let transport = MockTransport::with_delay(|_, _| Duration::from_millis(30), echo_responder);
    let ctx = mock_ctx(transport);
    let parallel = ctx.run_plan(&plan).unwrap();
    assert_eq!(parallel.rows.len(), 16);
    assert_eq!(
        canonicalize(parallel.rows.clone()),
        canonicalize(sequential.rows.clone())
    );
    // 17 calls of 30ms each: sequential ≥ 510ms. Parallel: 1 + ceil(16/8)
    // rounds ≈ 90ms. Allow generous slack for scheduling.
    assert!(
        parallel.wall < sequential.wall / 2,
        "parallel {:?} not faster than sequential {:?}",
        parallel.wall,
        sequential.wall
    );
}

#[test]
fn ff_apply_first_finished_dispatch_beats_stragglers() {
    // One slow parameter ("slow") takes 150ms, others 5ms. With fanout 2
    // and FF dispatch, the fast children keep churning while one child is
    // stuck — total should be ≈ 150ms, not 150ms + stragglers.
    let transport = MockTransport::with_delay(
        |_, args| match args[0].as_str() {
            Ok(arg) if arg.starts_with("slow") => Duration::from_millis(150),
            Ok(arg) if !arg.contains('|') => Duration::from_millis(5),
            _ => Duration::ZERO,
        },
        echo_responder,
    );
    let seed = "slow|a|b|c|d|e|f|g|h";
    let plan = echo_plan(seed, Some((2, false)));
    let ctx = mock_ctx(transport);
    let report = ctx.run_plan(&plan).unwrap();
    assert_eq!(report.rows.len(), 9);
    // First-finished: the fast child absorbs the 8 fast params (~40ms)
    // while the slow child handles one. Bound well below the ~190ms a
    // round-robin split (slow + 4 fast on one child) could cost.
    assert!(
        report.wall < Duration::from_millis(400),
        "took {:?}",
        report.wall
    );
}

#[test]
fn aff_apply_produces_correct_results_and_adapts() {
    // 40 parameters with a small per-call delay: enough monitoring cycles
    // for at least one add stage from the initial binary tree.
    let seed = (0..40)
        .map(|i| format!("p{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let plan = echo_plan(&seed, Some((2, true)));
    let ctx = mock_ctx(MockTransport::with_delay(
        |_, args| match args[0].as_str() {
            Ok(arg) if !arg.contains('|') => Duration::from_millis(3),
            _ => Duration::ZERO,
        },
        echo_responder,
    ));
    let report = ctx.run_plan(&plan).unwrap();
    assert_eq!(report.rows.len(), 40);
    // Started binary, added at least once after the first monitoring cycle.
    assert!(
        report.tree.levels[1].ever > 2,
        "no add stage ran: {:?}",
        report.tree
    );
    assert!(report.tree.adds >= 3); // 2 initial + at least 1 added
}

#[test]
fn adaptive_plan_same_results_as_fixed() {
    let seed = (0..25)
        .map(|i| format!("v{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let fixed = echo_plan(&seed, Some((4, false)));
    let adaptive = echo_plan(&seed, Some((2, true)));
    let r1 = mock_ctx(MockTransport::new(echo_responder))
        .run_plan(&fixed)
        .unwrap();
    let r2 = mock_ctx(MockTransport::new(echo_responder))
        .run_plan(&adaptive)
        .unwrap();
    assert_eq!(canonicalize(r1.rows), canonicalize(r2.rows));
}

#[test]
fn child_call_error_propagates() {
    let transport = MockTransport::new(|_, args| {
        let arg = args[0].as_str().map_err(CoreError::Store)?;
        if arg == "boom" {
            return Err(CoreError::ProcessFailure("injected failure".into()));
        }
        Ok(split_response(arg, '|'))
    });
    let ctx = mock_ctx(transport);
    let plan = echo_plan("a|boom|c", Some((2, false)));
    let err = ctx.run_plan(&plan).unwrap_err();
    match err {
        CoreError::ProcessFailure(msg) => assert!(msg.contains("injected failure"), "{msg}"),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn error_in_coordinator_section_propagates() {
    let transport =
        MockTransport::new(|_, _| Err(CoreError::ProcessFailure("root failure".into())));
    let ctx = mock_ctx(transport);
    let plan = echo_plan("a|b", None);
    assert!(matches!(
        ctx.run_plan(&plan),
        Err(CoreError::ProcessFailure(_))
    ));
}

#[test]
fn unknown_owf_fails_at_compile_time() {
    let ctx = mock_ctx(MockTransport::new(echo_responder));
    let plan = QueryPlan {
        root: PlanOp::ApplyOwf {
            owf: "Mystery".into(),
            args: vec![],
            output_arity: 1,
            input: Box::new(PlanOp::Unit),
        },
        column_names: vec!["x".into()],
    };
    assert!(matches!(ctx.run_plan(&plan), Err(CoreError::UnknownOwf(_))));
}

#[test]
fn zero_fanout_rejected_at_compile() {
    let ctx = mock_ctx(MockTransport::new(echo_responder));
    let mut plan = echo_plan("a", Some((1, false)));
    // Patch fanout to zero.
    if let PlanOp::Project { input, .. } = &mut plan.root {
        if let PlanOp::FfApply { fanout, .. } = &mut **input {
            *fanout = 0;
        }
    }
    assert!(matches!(
        ctx.run_plan(&plan),
        Err(CoreError::InvalidPlan(_))
    ));
}

#[test]
fn processes_are_torn_down_after_run() {
    let ctx = mock_ctx(MockTransport::new(echo_responder));
    let plan = echo_plan("a|b|c|d", Some((3, false)));
    let report = ctx.run_plan(&plan).unwrap();
    assert_eq!(report.tree.levels[1].alive, 3); // snapshot at completion
                                                // After run_plan returns, the tree registry shows only dead children.
    let now = ctx.tree().snapshot();
    assert_eq!(
        now.levels.get(1).map(|l| l.alive).unwrap_or(0),
        0,
        "children leaked: {now:?}"
    );
}

#[test]
fn a_finished_run_leaves_only_its_parked_processes_running() {
    let nested = |_: &OwfDef, args: &[Value]| {
        let arg = args[0].as_str().map_err(CoreError::Store)?;
        let sep = if arg.contains('|') { '|' } else { ',' };
        Ok(split_response(arg, sep))
    };
    // No pool: every process the run spawned has ended by the time
    // `run_plan` returns, on success and on failure.
    let ctx = mock_ctx(MockTransport::new(nested));
    ctx.run_plan(&nested_plan(2, 3)).unwrap();
    assert_eq!(ctx.spawn_counts().running(), 0);
    let failing = mock_ctx(MockTransport::new(|_, args| {
        let arg = args[0].as_str().map_err(CoreError::Store)?;
        if arg == "boom" {
            return Err(CoreError::ProcessFailure("injected failure".into()));
        }
        Ok(split_response(arg, '|'))
    }));
    assert!(failing
        .run_plan(&echo_plan("a|boom|c", Some((2, false))))
        .is_err());
    assert_eq!(failing.spawn_counts().running(), 0);

    // Pooled: the two parked level-1 processes and their six children live
    // on, nothing else; clearing the pool ends them.
    let runs = Pooled::new(MockTransport::new(nested), PoolPolicy::default(), 0.0);
    let cfg = RunConfig {
        pool: Arc::downgrade(&runs.pool),
        ..Default::default()
    };
    let ctx = mock_ctx_with(Arc::clone(&runs.transport), cfg);
    ctx.run_plan(&nested_plan(2, 3)).unwrap();
    assert_eq!(runs.pool.idle_total(), 2);
    assert_eq!(ctx.spawn_counts().running(), 8);
    runs.pool.clear();
    assert_eq!(ctx.spawn_counts().running(), 0);
}

#[test]
fn single_flight_issues_one_transport_call_for_concurrent_identical_calls() {
    // K threads hammer one cold key; single-flight must let exactly one
    // reach the transport while the rest block on the latch and share the
    // leader's value.
    let transport = MockTransport::with_delay(|_, _| Duration::from_millis(50), echo_responder);
    let cache = Arc::new(CallCache::new(CachePolicy::default(), 0.0));
    let ctx = mock_ctx_with(Arc::clone(&transport), cached(&cache));
    let catalog = echo_catalog();
    let owf = catalog.get("Echo").unwrap();
    const K: usize = 8;
    let barrier = std::sync::Barrier::new(K);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let env = crate::exec::ProcEnv::coordinator();
                    block_on(ctx.call_with_retry(&env, owf, &[Value::str("p|q")]))
                        .unwrap()
                        .into_value()
                })
            })
            .collect();
        let values: Vec<Value> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for v in &values {
            assert_eq!(v, &values[0], "waiters must share the leader's value");
        }
    });
    assert_eq!(transport.call_count(), 1, "one real call for {K} threads");
    let stats = ctx.cache_scope().snapshot(0);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.dedup_waits as usize, K - 1);
}

#[test]
fn cross_run_memo_short_circuits_repeated_params() {
    let transport = MockTransport::new(echo_responder);
    let cache = Arc::new(CallCache::new(CachePolicy::cross_run(), 0.0));
    let run = |plan| mock_ctx_with(Arc::clone(&transport), cached(&cache)).run_plan(plan);
    let plan = echo_plan("a|a|b", Some((2, false)));
    let first = run(&plan).unwrap();
    assert_eq!(rows_as_strings(&first.rows), vec!["a", "a", "b"]);
    // One split call plus one per *distinct* value — the duplicate "a"
    // parameter dedups through the call cache.
    assert_eq!(transport.call_count(), 3);

    let second = run(&plan).unwrap();
    assert_eq!(
        canonicalize(second.rows.clone()),
        canonicalize(first.rows.clone())
    );
    // Second run: the split call hits the call cache and all three PF
    // parameters are answered parent-side from the rows memo — nothing
    // reaches the transport, no parameter is shipped to a child.
    assert_eq!(transport.call_count(), 3);
    assert_eq!(second.cache.short_circuits, 3);
    let short_circuits: u64 = second
        .tree
        .nodes
        .iter()
        .map(|n| n.cache_short_circuits)
        .sum();
    assert_eq!(short_circuits, 3);
    assert!(second.cache.hits >= 1);
}

#[test]
fn per_run_counters_reset_between_runs() {
    // Two contexts over one shared per-run cache: the second report must
    // not accumulate the first run's hits/misses (or reuse its entries).
    let transport = MockTransport::new(echo_responder);
    let cache = Arc::new(CallCache::new(CachePolicy::default(), 0.0));
    let run = |plan| mock_ctx_with(Arc::clone(&transport), cached(&cache)).run_plan(plan);
    let plan = echo_plan("a|a|b", None);
    let first = run(&plan).unwrap();
    assert!(first.cache.misses > 0);
    let second = run(&plan).unwrap();
    assert_eq!(second.cache.misses, first.cache.misses, "counters reset");
    assert_eq!(second.cache.hits, first.cache.hits);
}

// ---------------------------------------------------------------------------
// Warm process pool + bounded mailboxes
// ---------------------------------------------------------------------------

use crate::exec::pool::{PoolPolicy, ProcessPool};

/// One warm pool and a context per run over it — the production shape
/// (the test owns the pool `Arc`, as `Wsmed` does).
struct Pooled {
    transport: Arc<MockTransport>,
    pool: Arc<ProcessPool>,
}

impl Pooled {
    fn new(transport: Arc<MockTransport>, policy: PoolPolicy, time_scale: f64) -> Self {
        Pooled {
            transport,
            pool: Arc::new(ProcessPool::new(policy, time_scale)),
        }
    }

    fn run(&self, plan: &QueryPlan) -> CoreResult<ExecutionReport> {
        self.run_with(plan, RunConfig::default())
    }

    fn run_with(&self, plan: &QueryPlan, cfg: RunConfig) -> CoreResult<ExecutionReport> {
        let cfg = RunConfig {
            pool: Arc::downgrade(&self.pool),
            ..cfg
        };
        mock_ctx_with(Arc::clone(&self.transport), cfg).run_plan(plan)
    }
}

#[test]
fn second_run_acquires_warm_and_spawns_nothing() {
    let transport = MockTransport::new(echo_responder);
    let runs = Pooled::new(transport, PoolPolicy::default(), 0.0);
    let plan = echo_plan("a|b|c|d", Some((3, false)));

    let first = runs.run(&plan).unwrap();
    assert_eq!(rows_as_strings(&first.rows), vec!["a", "b", "c", "d"]);
    assert_eq!(first.pool.cold_spawns, 3);
    assert_eq!(first.pool.warm_acquires, 0);
    assert_eq!(runs.pool.idle_total(), 3, "all three children parked");

    let second = runs.run(&plan).unwrap();
    assert_eq!(
        canonicalize(second.rows.clone()),
        canonicalize(first.rows.clone())
    );
    // The entire second tree came from the pool: zero modeled startup or
    // plan-ship charges.
    assert_eq!(second.pool.cold_spawns, 0, "second run must be all-warm");
    assert_eq!(second.pool.warm_acquires, 3);
    assert!(second.pool.startup_model_secs_saved > 0.0);
    assert_eq!(runs.pool.idle_total(), 3, "children parked again");
}

#[test]
fn warm_acquire_skips_by_plan_function_digest() {
    // Two different seeds share the same plan function (the seed is bound
    // at the source, outside the PF), so the second query's tree is warm.
    let transport = MockTransport::new(echo_responder);
    let runs = Pooled::new(transport, PoolPolicy::default(), 0.0);
    runs.run(&echo_plan("a|b", Some((2, false)))).unwrap();
    let second = runs.run(&echo_plan("x|y|z", Some((2, false)))).unwrap();
    assert_eq!(rows_as_strings(&second.rows), vec!["x", "y", "z"]);
    assert_eq!(second.pool.cold_spawns, 0);
    assert_eq!(second.pool.warm_acquires, 2);
}

#[test]
fn nested_warm_tree_reattaches_whole_subtree() {
    let responder = |_: &OwfDef, args: &[Value]| {
        let arg = args[0].as_str().map_err(CoreError::Store)?;
        let sep = if arg.contains('|') { '|' } else { ',' };
        Ok(split_response(arg, sep))
    };
    let transport = MockTransport::new(responder);
    let runs = Pooled::new(transport, PoolPolicy::default(), 0.0);
    let plan = nested_plan(2, 3);

    let first = runs.run(&plan).unwrap();
    assert_eq!(rows_as_strings(&first.rows), vec!["w", "x", "y", "z"]);
    assert_eq!(first.pool.cold_spawns, 8); // 2 level-1 + 6 level-2
                                           // Only the level-1 children park *into the pool*; their level-2
                                           // subtrees stay attached beneath them.
    assert_eq!(runs.pool.idle_total(), 2);

    let second = runs.run(&plan).unwrap();
    assert_eq!(
        canonicalize(second.rows.clone()),
        canonicalize(first.rows.clone())
    );
    assert_eq!(second.pool.cold_spawns, 0, "nested tree fully warm");
    assert_eq!(second.pool.warm_acquires, 2);
    // The re-attached subtree re-registered into the fresh run's registry.
    assert_eq!(second.tree.levels[1].alive, 2);
    assert_eq!(second.tree.levels[2].alive, 6);
}

#[test]
fn disabled_pool_counts_cold_spawns_but_parks_nothing() {
    let transport = MockTransport::new(echo_responder);
    let policy = PoolPolicy {
        max_idle_total: 0,
        ..Default::default()
    };
    let runs = Pooled::new(transport, policy, 0.0);
    let plan = echo_plan("a|b", Some((2, false)));
    let first = runs.run(&plan).unwrap();
    assert_eq!(first.pool.cold_spawns, 2);
    assert_eq!(runs.pool.idle_total(), 0);
    let second = runs.run(&plan).unwrap();
    assert_eq!(second.pool.cold_spawns, 2, "every run cold when disabled");
    assert_eq!(second.pool.warm_acquires, 0);
}

#[test]
fn pool_respects_per_pf_and_total_bounds() {
    let transport = MockTransport::new(echo_responder);
    let policy = PoolPolicy {
        max_idle_per_pf: 2,
        max_idle_total: 2,
        ..Default::default()
    };
    let runs = Pooled::new(transport, policy, 0.0);
    let report = runs.run(&echo_plan("a|b|c|d|e", Some((4, false)))).unwrap();
    // Four children tried to park; the bounds kept two.
    assert_eq!(runs.pool.idle_total(), 2);
    assert_eq!(report.pool.evictions, 2);
    let second = runs.run(&echo_plan("a|b|c|d|e", Some((4, false)))).unwrap();
    assert_eq!(second.pool.warm_acquires, 2);
    assert_eq!(second.pool.cold_spawns, 2);
}

#[test]
fn ttl_expires_parked_processes_in_model_time() {
    let transport = MockTransport::new(echo_responder);
    // TTL of zero model-seconds at a non-zero time scale: everything
    // parked is already expired by the next acquire.
    let policy = PoolPolicy {
        idle_ttl_model_secs: Some(0.0),
        ..Default::default()
    };
    let runs = Pooled::new(transport, policy, 1.0);
    let plan = echo_plan("a|b", Some((2, false)));
    runs.run(&plan).unwrap();
    assert_eq!(runs.pool.idle_total(), 2);
    let second = runs.run(&plan).unwrap();
    assert_eq!(second.pool.warm_acquires, 0, "parked processes expired");
    assert_eq!(second.pool.cold_spawns, 2);
    assert!(second.pool.evictions >= 2);
}

#[test]
fn ttl_is_inert_when_time_scale_is_zero() {
    let transport = MockTransport::new(echo_responder);
    let policy = PoolPolicy {
        idle_ttl_model_secs: Some(0.0),
        ..Default::default()
    };
    // time_scale 0: model time is not measurable, TTL must not fire.
    let runs = Pooled::new(transport, policy, 0.0);
    let plan = echo_plan("a|b", Some((2, false)));
    runs.run(&plan).unwrap();
    let second = runs.run(&plan).unwrap();
    assert_eq!(second.pool.warm_acquires, 2);
    assert_eq!(second.pool.cold_spawns, 0);
}

#[test]
fn failed_run_does_not_park_children() {
    let transport = MockTransport::new(|_, args| {
        let arg = args[0].as_str().map_err(CoreError::Store)?;
        if arg == "boom" {
            return Err(CoreError::ProcessFailure("injected failure".into()));
        }
        Ok(split_response(arg, '|'))
    });
    let runs = Pooled::new(transport, PoolPolicy::default(), 0.0);
    let plan = echo_plan("a|boom|c", Some((2, false)));
    assert!(runs.run(&plan).is_err());
    assert_eq!(runs.pool.idle_total(), 0, "no parking after a failed run");
}

#[test]
fn adaptive_drop_stage_parks_dropped_children_warm() {
    // Start wide with a strictly shrinking workload pattern is hard to
    // force; instead run an adaptive plan and just assert that whatever
    // was dropped or left idle ended up parked, and that a repeat run
    // acquires at least some of it warm with identical results.
    let seed = (0..30)
        .map(|i| format!("p{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let make_transport = || {
        MockTransport::with_delay(
            |_, args| match args[0].as_str() {
                Ok(arg) if !arg.contains('|') => Duration::from_millis(2),
                _ => Duration::ZERO,
            },
            echo_responder,
        )
    };
    let runs = Pooled::new(make_transport(), PoolPolicy::default(), 0.0);
    let plan = echo_plan(&seed, Some((2, true)));
    let first = runs.run(&plan).unwrap();
    assert_eq!(first.rows.len(), 30);
    assert!(runs.pool.idle_total() > 0, "adaptive tree parked nothing");
    let second = runs.run(&plan).unwrap();
    assert_eq!(
        canonicalize(second.rows.clone()),
        canonicalize(first.rows.clone())
    );
    assert!(second.pool.warm_acquires > 0);
}

#[test]
fn mid_stream_child_drop_requeues_in_flight_params() {
    // Baseline without failure injection.
    let seed = (0..12)
        .map(|i| format!("p{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let plan = echo_plan(&seed, Some((3, false)));
    let baseline = mock_ctx(MockTransport::new(echo_responder))
        .run_plan(&plan)
        .unwrap();
    assert_eq!(baseline.rows.len(), 12);

    // Same plan, but after the 2nd end-of-call one busy child is abruptly
    // killed: its in-flight parameters must migrate to the survivors and
    // the result multiset must not change (no loss, no duplication).
    let kill = RunConfig {
        kill_child_after_eocs: 2,
        ..Default::default()
    };
    let report = mock_ctx_with(MockTransport::new(echo_responder), kill)
        .run_plan(&plan)
        .unwrap();
    assert_eq!(
        canonicalize(report.rows.clone()),
        canonicalize(baseline.rows.clone()),
        "child drop changed the result multiset"
    );
}

#[test]
fn mid_stream_child_drop_requeues_under_round_robin() {
    // Round-robin pre-assigns parameters per slot; a killed slot's backlog
    // must migrate to the survivors instead of being stranded.
    let seed = (0..12)
        .map(|i| format!("r{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let plan = echo_plan(&seed, Some((3, false)));
    let baseline = mock_ctx(MockTransport::new(echo_responder))
        .run_plan(&plan)
        .unwrap();

    let cfg = RunConfig {
        dispatch: crate::transport::DispatchPolicy::RoundRobin,
        kill_child_after_eocs: 1,
        ..Default::default()
    };
    let report = mock_ctx_with(MockTransport::new(echo_responder), cfg)
        .run_plan(&plan)
        .unwrap();
    assert_eq!(
        canonicalize(report.rows.clone()),
        canonicalize(baseline.rows.clone()),
        "round-robin child drop lost or duplicated rows"
    );
}

#[test]
fn warm_pool_survives_mid_stream_child_drop() {
    // A run that kills a child still parks the *surviving* children only
    // if the run succeeded; the dead child must not be parked.
    let seed = (0..10)
        .map(|i| format!("s{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let plan = echo_plan(&seed, Some((3, false)));
    let runs = Pooled::new(
        MockTransport::new(echo_responder),
        PoolPolicy::default(),
        0.0,
    );
    let baseline = runs.run(&plan).unwrap();
    assert_eq!(runs.pool.idle_total(), 3);
    let kill = RunConfig {
        kill_child_after_eocs: 2,
        ..Default::default()
    };
    let report = runs.run_with(&plan, kill).unwrap();
    assert_eq!(
        canonicalize(report.rows.clone()),
        canonicalize(baseline.rows.clone())
    );
    assert_eq!(runs.pool.idle_total(), 2, "dead child must not be parked");
}

#[test]
fn tiny_mailbox_capacity_is_correct_under_load() {
    // Capacity 2, the floor and the default policy's: every frame contends
    // for mailbox space; the run must still produce exactly the right
    // multiset.
    assert_eq!(RunConfig::default().batch.mailbox_capacity(), 2);
    let seed = (0..40)
        .map(|i| format!("m{i}"))
        .collect::<Vec<_>>()
        .join("|");
    let sequential = mock_ctx(MockTransport::new(echo_responder))
        .run_plan(&echo_plan(&seed, None))
        .unwrap();
    let report = mock_ctx(MockTransport::new(echo_responder))
        .run_plan(&echo_plan(&seed, Some((4, false))))
        .unwrap();
    assert_eq!(
        canonicalize(report.rows.clone()),
        canonicalize(sequential.rows.clone())
    );
}

#[test]
fn full_results_mailbox_records_blocked_send() {
    use crate::exec::mailbox::bounded;
    use crate::exec::process::{ChildProc, FromChild};
    use crate::exec::ProcEnv;
    use crate::obs::{TraceEventKind, TracePolicy};
    use crate::wire;

    // This test is the parent of one child process. The child answers a
    // call with five rows, one frame each, into a results mailbox of two
    // frames, and the parent reads nothing until the child is waiting to
    // send its third: the mailbox is full by construction.
    let ctx = mock_ctx_with(
        MockTransport::new(echo_responder),
        RunConfig {
            trace: TracePolicy::enabled(),
            ..Default::default()
        },
    );
    let pf = PlanFunction {
        name: "PF1".into(),
        param_arity: 1,
        body: Box::new(PlanOp::ApplyOwf {
            owf: "Echo".into(),
            args: vec![ArgExpr::Col(0)],
            output_arity: 1,
            input: Box::new(PlanOp::Param { arity: 1 }),
        }),
        output_arity: 2,
        prune: None,
    };
    let (results_tx, results) = bounded::<FromChild>(ctx.batch_policy().mailbox_capacity());
    let parent = ProcEnv::coordinator();
    let child = block_on(ChildProc::spawn(
        &ctx,
        &parent,
        0,
        "PF1",
        &Arc::from("pf1"),
        wire::encode_plan_function(&pf),
        results_tx,
    ));
    let child_id = child.id;
    block_on(async {
        assert!(matches!(
            results.recv().await,
            Some(FromChild::Installed { error: None, .. })
        ));
        let param = wire::encode_tuple(&Tuple::new(vec![Value::str("a|b|c|d|e")]));
        child
            .send_call(&ctx, &parent, 1, wire::encode_rows_message([&param]), 1)
            .await
            .unwrap();
        let patience = std::time::Instant::now();
        while !results.has_blocked_sender() {
            assert!(
                patience.elapsed() < Duration::from_secs(60),
                "the child never filled its results mailbox"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Some wall time for the blocked send to have waited.
        std::thread::sleep(Duration::from_millis(1));
        let mut rows = 0;
        loop {
            match results.recv().await.expect("the child ends its call") {
                FromChild::ResultBatch { tuples, .. } => {
                    rows += wire::decode_message(tuples).unwrap().len();
                }
                FromChild::EndOfCall { error, .. } => {
                    assert_eq!(error, None);
                    break;
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(rows, 5);
        child.shutdown(false).await;
    });
    let tree = ctx.tree().snapshot();
    assert!(
        tree.total_blocked_send() >= Duration::from_millis(1),
        "no backpressure recorded: {tree:?}"
    );
    let trace = ctx.trace_handle().expect("tracing is on");
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.node == child_id && matches!(e.kind, TraceEventKind::BlockedSend { .. })),
        "no blocked_send trace event"
    );
}

#[test]
fn report_counts_ws_calls_via_sim_transport() {
    use wsmed_services::{install_paper_services, Dataset, DatasetConfig};
    let network = wsmed_netsim::Network::new(wsmed_netsim::SimConfig::default());
    let dataset = Arc::new(Dataset::generate(DatasetConfig::tiny()));
    let registry = install_paper_services(network, dataset);
    let mut wsmed = crate::Wsmed::new(registry);
    wsmed.import_all_wsdl().unwrap();
    let report = wsmed
        .run_central("select gs.State from GetAllStates gs")
        .unwrap();
    assert_eq!(report.rows.len(), 51);
    assert_eq!(report.ws_calls, 1);
    assert!(report.ws_bytes > 0);
}

/// Records what the transport's one entry point was handed.
#[derive(Default)]
struct RecordingTransport {
    seen: parking_lot::Mutex<Vec<(Option<f64>, Option<String>)>>,
}

impl WsTransport for RecordingTransport {
    fn call(
        &self,
        owf: &OwfDef,
        args: &[Value],
        deadline_model_secs: Option<f64>,
        replica: Option<&str>,
    ) -> (Charge, CoreResult<(Response, u64)>) {
        self.seen
            .lock()
            .push((deadline_model_secs, replica.map(str::to_owned)));
        let result = echo_responder(owf, args).map(|value| (Response::Value(value), 0));
        (Charge::default(), result)
    }

    fn group_view(&self, _owf: &OwfDef) -> Option<crate::router::GroupView> {
        let replica = |name: &str| crate::router::ReplicaView {
            name: name.to_owned(),
            in_flight: 0,
            capacity: 1,
            latency_secs: 0.1,
        };
        Some(crate::router::GroupView {
            group: "Mock".into(),
            replicas: vec![replica("Mock"), replica("Mock#1")],
            changes: Vec::new(),
        })
    }
}

#[test]
fn transport_receives_the_deadline_and_the_routed_replica() {
    use crate::router::{Router, RouterPolicy};
    let run = |cfg: RunConfig| {
        let transport = Arc::new(RecordingTransport::default());
        let ctx = ExecContext::new(
            Arc::clone(&transport) as Arc<dyn WsTransport>,
            echo_catalog(),
            wsmed_netsim::SimConfig::default(),
            cfg,
        );
        let report = ctx.run_plan(&echo_plan("a|b|c", None)).unwrap();
        let seen = std::mem::take(&mut *transport.seen.lock());
        (report, seen)
    };

    // Default config: no deadline, and a group view alone routes nothing.
    let (report, seen) = run(RunConfig::default());
    assert_eq!(seen, vec![(None, None); 4]);
    assert_eq!(report.router.decisions, 0);

    let (report, seen) = run(RunConfig {
        resilience: crate::ResiliencePolicy {
            deadline_model_secs: Some(7.5),
            ..Default::default()
        },
        router: Some(Arc::new(Router::new(RouterPolicy::Weighted, 7))),
        ..Default::default()
    });
    // Equal capacities: the weighted rotation alternates.
    let expected: Vec<_> = ["Mock", "Mock#1", "Mock", "Mock#1"]
        .iter()
        .map(|r| (Some(7.5), Some((*r).to_owned())))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(report.router.decisions, 4);
}
