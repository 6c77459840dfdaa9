//! Ablation: the **cost-based parallel planner** and **semi-join parameter
//! pruning** vs. the paper's static heuristic plans.
//!
//! The paper parallelizes with a fixed recipe — calculus atom order, one
//! process-tree level per parallelizable OWF, binary fanouts. The planner
//! instead costs binding-valid join orderings × section merges × fanout
//! vectors against calibrated provider statistics, and (with pruning on)
//! pushes learned empty-parameter sets into plan functions so dependent
//! calls that cannot produce rows are never issued.
//!
//! Claims asserted in-binary:
//! * `PlannerPolicy::default()` plans **byte-identical** to the paper's
//!   heuristic (`compile_parallel` with binary fanouts) — plan equality
//!   and equal wire encodings of every shipped plan function;
//! * on two query shapes (Query1, Query2) the cost-based plan's estimated
//!   model-time makespan **strictly beats** the heuristic default's under
//!   the same calibrated statistics — and both plans return the same
//!   result multiset;
//! * on the filtered Query3 chain, semi-join pruning **strictly reduces**
//!   dependent provider calls on a repeat run (learned empties dropped
//!   parent-side, cache disabled so every shipped parameter would call)
//!   while the result multiset stays unchanged.
//!
//! Writes `plan_ablation.csv` and the machine-readable `BENCH_plan.json`
//! under `target/experiments/`.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- plan_ablation --small --scale 0
//! ```

use wsmed_bench::{csv_row, csv_writer, emit_bench_section, json_num, HarnessOpts};
use wsmed_core::{paper, wire, PlanExplanation, PlannerPolicy, QueryPlan};
use wsmed_store::canonicalize;

/// Collects the wire encodings of every plan function in `plan`, depth
/// first — the bytes the coordinator would ship to children.
fn shipped_pf_bytes(plan: &QueryPlan) -> Vec<Vec<u8>> {
    fn walk(op: &wsmed_core::PlanOp, out: &mut Vec<Vec<u8>>) {
        if let wsmed_core::PlanOp::FfApply { pf, .. } | wsmed_core::PlanOp::AffApply { pf, .. } = op
        {
            out.push(wire::encode_plan_function(pf).as_ref().to_vec());
            walk(&pf.body, out);
        }
        if let Some(input) = op.input() {
            walk(input, out);
        }
    }
    let mut out = Vec::new();
    walk(&plan.root, &mut out);
    out
}

struct ShapeResult {
    query: &'static str,
    explanation: PlanExplanation,
    heuristic_secs: f64,
    cost_secs: f64,
    heuristic_calls: u64,
    cost_calls: u64,
    rows: usize,
}

/// One query shape: plan heuristically and cost-based over the same
/// calibrated statistics, execute both on fresh mediators, and assert the
/// cost-based estimate strictly improves while the result bag is equal.
fn run_shape(opts: &HarnessOpts, query: &'static str, sql: &str) -> ShapeResult {
    // Heuristic arm — also the byte-identity check against the paper's
    // manual parallelization.
    let setup = opts.setup();
    let med = &setup.wsmed;
    assert_eq!(med.planner_policy(), PlannerPolicy::Heuristic);
    let (heuristic_plan, heuristic_expl) = med
        .plan_query_explained(sql)
        .expect("heuristic planning succeeds");
    let levels = med.parallel_levels(sql).expect("level count");
    let manual = med
        .compile_parallel(sql, &vec![2; levels])
        .expect("manual binary-fanout plan compiles");
    assert_eq!(
        heuristic_plan, manual,
        "{query}: PlannerPolicy::default() must reproduce the paper's plan"
    );
    assert_eq!(
        shipped_pf_bytes(&heuristic_plan),
        shipped_pf_bytes(&manual),
        "{query}: heuristic plan functions must encode byte-identically"
    );
    let calls0 = setup.network.total_metrics().calls;
    let heuristic_report = med
        .execute(&heuristic_plan)
        .expect("heuristic run succeeds");
    let heuristic_calls = setup.network.total_metrics().calls - calls0;

    // Cost-based arm on a fresh world (same seed, same dataset) so provider
    // metrics and model time are not polluted by the heuristic run.
    let setup = opts.setup();
    let med = &setup.wsmed;
    med.set_planner_policy(PlannerPolicy::CostBased { prune: false });
    let (cost_plan, cost_expl) = med
        .plan_query_explained(sql)
        .expect("cost-based planning succeeds");
    assert!(
        cost_expl.cost.makespan_est() < cost_expl.heuristic_cost.makespan_est(),
        "{query}: cost-based estimate must strictly beat the heuristic \
         ({:.2}s vs {:.2}s)",
        cost_expl.cost.makespan_est(),
        cost_expl.heuristic_cost.makespan_est()
    );
    let calls0 = setup.network.total_metrics().calls;
    let cost_report = med.execute(&cost_plan).expect("cost-based run succeeds");
    let cost_calls = setup.network.total_metrics().calls - calls0;

    assert_eq!(
        canonicalize(heuristic_report.rows.clone()),
        canonicalize(cost_report.rows.clone()),
        "{query}: cost-based plan must return the heuristic's result bag"
    );

    ShapeResult {
        query,
        heuristic_secs: heuristic_expl.cost.makespan_est(),
        cost_secs: cost_expl.cost.makespan_est(),
        explanation: cost_expl,
        heuristic_calls,
        cost_calls,
        rows: heuristic_report.rows.len(),
    }
}

struct PruneResult {
    unpruned_calls: u64,
    pruned_calls: u64,
    pruned_params: u64,
    prune_sections: usize,
    rows: usize,
}

/// The semi-join pruning arm on Query3's filtered chain: plan **once**
/// (section keys must match between the observing and the pruned run),
/// observe an execution, fold the learned empty-parameter sets back into
/// the same plan, and re-run.
fn run_prune(opts: &HarnessOpts) -> PruneResult {
    let setup = opts.setup();
    let med = &setup.wsmed;
    // No call cache: every shipped parameter reaches a provider, so the
    // call delta below measures pruning and nothing else.
    med.set_planner_policy(PlannerPolicy::CostBased { prune: true });
    let (plan, _) = med
        .plan_query_explained(paper::QUERY3_SQL)
        .expect("query3 plans");

    // Run 1 — observe. Drop lists are empty on a cold stats store, so this
    // run prunes nothing; children report deterministically-empty
    // parameters under their section keys.
    let calls0 = setup.network.total_metrics().calls;
    let report1 = med.execute(&plan).expect("observing run succeeds");
    let unpruned_calls = setup.network.total_metrics().calls - calls0;
    assert_eq!(report1.pruned_params, 0, "cold stats must prune nothing");
    assert!(
        med.planner_stats().sections_with_empties() > 0,
        "the Status='Delayed' filter must yield empty parameter chains"
    );

    // Fold observations into the *same* plan object and re-run.
    let mut pruned_plan = plan.clone();
    let prune_sections = wsmed_core::planner::annotate_prune(&mut pruned_plan, med.planner_stats());
    let annotated: usize = prune_sections.iter().map(|(_, n)| n).sum();
    assert!(annotated > 0, "observed empties must annotate the plan");
    let calls0 = setup.network.total_metrics().calls;
    let report2 = med.execute(&pruned_plan).expect("pruned run succeeds");
    let pruned_calls = setup.network.total_metrics().calls - calls0;

    assert!(
        report2.pruned_params > 0,
        "the pruned run must drop parameters parent-side"
    );
    assert!(
        pruned_calls < unpruned_calls,
        "pruning must strictly reduce dependent provider calls \
         ({pruned_calls} vs {unpruned_calls})"
    );
    assert_eq!(
        canonicalize(report1.rows.clone()),
        canonicalize(report2.rows.clone()),
        "pruning empty parameter chains must not change the result bag"
    );

    PruneResult {
        unpruned_calls,
        pruned_calls,
        pruned_params: report2.pruned_params,
        prune_sections: prune_sections.iter().filter(|(_, n)| *n > 0).count(),
        rows: report2.rows.len(),
    }
}

pub fn run(opts: &HarnessOpts) {
    let (path, mut csv) = csv_writer(
        "plan_ablation.csv",
        "query,policy,est_makespan_secs,ws_calls,rows",
    );

    let mut shapes = Vec::new();
    for (query, sql) in [("query1", paper::QUERY1_SQL), ("query2", paper::QUERY2_SQL)] {
        let shape = run_shape(opts, query, sql);
        println!(
            "{query}: est makespan {:.2}s heuristic -> {:.2}s cost-based \
             ({} orderings, {} candidates searched), {} rows",
            shape.heuristic_secs,
            shape.cost_secs,
            shape.explanation.orderings_considered,
            shape.explanation.candidates_considered,
            shape.rows
        );
        for line in shape.explanation.to_string().lines() {
            println!("    {line}");
        }
        csv_row(
            &mut csv,
            &format!(
                "{query},heuristic,{},{},{}",
                json_num(shape.heuristic_secs),
                shape.heuristic_calls,
                shape.rows
            ),
        );
        csv_row(
            &mut csv,
            &format!(
                "{query},cost,{},{},{}",
                json_num(shape.cost_secs),
                shape.cost_calls,
                shape.rows
            ),
        );
        shapes.push(shape);
    }

    let prune = run_prune(opts);
    println!(
        "query3 pruning: {} -> {} provider calls ({} params dropped across \
         {} sections), {} rows unchanged",
        prune.unpruned_calls,
        prune.pruned_calls,
        prune.pruned_params,
        prune.prune_sections,
        prune.rows
    );
    csv_row(
        &mut csv,
        &format!(
            "query3,cost+prune,null,{},{}",
            prune.pruned_calls, prune.rows
        ),
    );

    let shapes_json: Vec<String> = shapes
        .iter()
        .map(|s| {
            format!(
                "{{\"query\": \"{}\", \"heuristic_est_secs\": {}, \"cost_est_secs\": {}, \
                 \"improvement\": {}, \"heuristic_ws_calls\": {}, \"cost_ws_calls\": {}, \
                 \"rows\": {}}}",
                s.query,
                json_num(s.heuristic_secs),
                json_num(s.cost_secs),
                json_num(s.heuristic_secs / s.cost_secs),
                s.heuristic_calls,
                s.cost_calls,
                s.rows
            )
        })
        .collect();
    let json = format!(
        "{{\"shapes\": [{}], \"prune\": {{\"unpruned_ws_calls\": {}, \
         \"pruned_ws_calls\": {}, \"pruned_params\": {}, \"sections\": {}, \"rows\": {}}}}}",
        shapes_json.join(", "),
        prune.unpruned_calls,
        prune.pruned_calls,
        prune.pruned_params,
        prune.prune_sections,
        prune.rows
    );
    let summary = emit_bench_section("BENCH_plan.json", "plan", Some(opts.scale), &json);

    println!(
        "\nall planner claims hold; CSV written to {}, summary to {}",
        path.display(),
        summary.display()
    );
}
