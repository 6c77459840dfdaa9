//! The mediator's plan cache: a text is searched once per statistics epoch,
//! and whatever it returns is what a fresh search would return.
//!
//! `Wsmed::plan_query_explained` keeps the search's winner per (planner
//! policy, SQL text) and reuses it while the [`PlannerStats::epoch`] it was
//! priced at is current. These tests hold every cached plan against
//! `planner::plan_with_policy` plus `annotate_prune` on the same statistics,
//! and check what advances the epoch: a rows-per-call or latency estimate
//! leaving its 10 % band, and a seeded profile. A learned empty parameter
//! does not, yet still reaches the next hit's prune list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use wsmed::core::planner::{self, annotate_prune};
use wsmed::core::{
    paper, wire, PlanExplanation, PlanOp, PlannerPolicy, PlannerStats, QueryPlan, Wsmed,
};
use wsmed::services::DatasetConfig;
use wsmed::store::{FunctionRegistry, Tuple, Value};

const QUERIES: [&str; 3] = [paper::QUERY1_SQL, paper::QUERY2_SQL, paper::QUERY3_SQL];

const POLICIES: [PlannerPolicy; 3] = [
    PlannerPolicy::Heuristic,
    PlannerPolicy::CostBased { prune: false },
    PlannerPolicy::CostBased { prune: true },
];

/// Query1's second-level OWF, whose rows-per-call the band tests move.
const PLACES_WITHIN: &str = "GetPlacesWithin";

/// What a search under the mediator's policy returns on its statistics now,
/// annotated for pruning as the mediator annotates it.
fn fresh_search(wsmed: &Wsmed, sql: &str) -> (QueryPlan, PlanExplanation) {
    let policy = wsmed.planner_policy();
    let calc = wsmed.calculus(sql).unwrap();
    let planned = planner::plan_with_policy(
        policy,
        &calc,
        wsmed.owfs(),
        &FunctionRegistry::with_builtins(),
        wsmed.planner_stats(),
        wsmed.cost_model(),
    )
    .unwrap();
    let (mut plan, mut explanation) = (planned.parallel, planned.explanation);
    if let PlannerPolicy::CostBased { prune: true } = policy {
        explanation.prune_sections = annotate_prune(&mut plan, wsmed.planner_stats());
    }
    (plan, explanation)
}

/// Plans `sql`, asserts the plan came from the cache (`cached`) or from a
/// search, and that it equals a fresh search on the same statistics.
fn plan_and_check(wsmed: &Wsmed, sql: &str, cached: bool) -> (QueryPlan, PlanExplanation) {
    let (plan, explanation) = wsmed.plan_query_explained(sql).unwrap();
    assert_eq!(
        explanation.origin.cached,
        cached,
        "{} under {}",
        &sql[..40],
        wsmed.planner_policy().name()
    );
    let (fresh_plan, mut fresh_explanation) = fresh_search(wsmed, sql);
    assert_eq!(explanation.origin.epoch, fresh_explanation.origin.epoch);
    fresh_explanation.origin.cached = cached;
    assert_eq!(plan, fresh_plan);
    assert_eq!(explanation, fresh_explanation);
    (plan, explanation)
}

fn setup() -> paper::PaperSetup {
    paper::setup(0.0, DatasetConfig::tiny())
}

#[test]
fn hits_equal_a_fresh_search_under_every_policy() {
    for sql in QUERIES {
        let setup = setup();
        let wsmed = &setup.wsmed;
        // One cost-based run teaches the statistics cardinalities and
        // empty parameters, so the searches below price real observations.
        wsmed.set_planner_policy(PlannerPolicy::CostBased { prune: true });
        wsmed.run_planned(sql).unwrap();
        for policy in POLICIES {
            wsmed.set_planner_policy(policy);
            plan_and_check(wsmed, sql, false);
            plan_and_check(wsmed, sql, true);
        }
        // Each policy keeps its own entry.
        for policy in POLICIES {
            wsmed.set_planner_policy(policy);
            plan_and_check(wsmed, sql, true);
        }
        assert_eq!(wsmed.cached_plans(), POLICIES.len());
    }
}

/// The wire encodings of every plan function in `plan`, depth first.
fn shipped_pf_bytes(plan: &QueryPlan) -> Vec<Vec<u8>> {
    fn walk(op: &PlanOp, out: &mut Vec<Vec<u8>>) {
        if let PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } = op {
            out.push(wire::encode_plan_function(pf).to_vec());
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

#[test]
fn a_heuristic_hit_is_the_papers_plan_byte_for_byte() {
    let setup = setup();
    let wsmed = &setup.wsmed;
    assert_eq!(wsmed.planner_policy(), PlannerPolicy::Heuristic);
    for sql in QUERIES {
        wsmed.plan_query(sql).unwrap();
        let (plan, explanation) = wsmed.plan_query_explained(sql).unwrap();
        assert!(explanation.origin.cached);
        let levels = wsmed.parallel_levels(sql).unwrap();
        let manual = wsmed.compile_parallel(sql, &vec![2; levels]).unwrap();
        assert_eq!(plan, manual);
        assert_eq!(shipped_pf_bytes(&plan), shipped_pf_bytes(&manual));
    }
}

#[test]
fn only_a_move_outside_the_band_or_a_seeded_profile_searches_again() {
    let setup = setup();
    let wsmed = &setup.wsmed;
    let stats = wsmed.planner_stats();
    wsmed.set_planner_policy(PlannerPolicy::CostBased { prune: false });
    let sql = paper::QUERY1_SQL;

    stats.observe_op(PLACES_WITHIN, 100, 300);
    let (_, searched) = plan_and_check(wsmed, sql, false);
    let hit = plan_and_check(wsmed, sql, true);

    // 3.0 -> 3.05 rows per call: inside the band, the plan stays cached,
    // priced as it was.
    stats.observe_op(PLACES_WITHIN, 100, 310);
    assert_eq!(wsmed.plan_query_explained(sql).unwrap(), hit);

    // 3.0 -> 4.03: outside it, the text is searched again.
    stats.observe_op(PLACES_WITHIN, 200, 1000);
    let (_, moved) = plan_and_check(wsmed, sql, false);
    assert!(moved.origin.epoch > searched.origin.epoch);
    plan_and_check(wsmed, sql, true);

    // The same for an OWF's latency estimate.
    stats.observe_latency(PLACES_WITHIN, 1.0);
    plan_and_check(wsmed, sql, false);
    let hit = plan_and_check(wsmed, sql, true);
    stats.observe_latency(PLACES_WITHIN, 1.1);
    assert_eq!(wsmed.plan_query_explained(sql).unwrap(), hit);
    stats.observe_latency(PLACES_WITHIN, 2.0);
    plan_and_check(wsmed, sql, false);
    plan_and_check(wsmed, sql, true);

    // A seeded profile always advances the epoch, even an unchanged one.
    wsmed.reseed_profiles();
    plan_and_check(wsmed, sql, false);
    plan_and_check(wsmed, sql, true);
    let profile = stats.profile(PLACES_WITHIN).unwrap();
    stats.seed_profile(PLACES_WITHIN, profile);
    plan_and_check(wsmed, sql, false);
    plan_and_check(wsmed, sql, true);
}

#[test]
fn import_wsdl_empties_the_cache() {
    let mut setup = setup();
    let wsmed = &mut setup.wsmed;
    wsmed.set_planner_policy(PlannerPolicy::CostBased { prune: true });
    for sql in QUERIES {
        wsmed.plan_query(sql).unwrap();
    }
    assert_eq!(wsmed.cached_plans(), QUERIES.len());
    let uri = wsmed.registry().wsdl_uris()[0].to_owned();
    wsmed.import_wsdl(&uri).unwrap();
    assert_eq!(wsmed.cached_plans(), 0);
    for sql in QUERIES {
        plan_and_check(wsmed, sql, false);
    }
}

#[test]
fn one_text_past_capacity_still_plans_correctly() {
    // One more distinct text than the mediator's fixed capacity of 256.
    const TEXTS: usize = 257;
    let setup = setup();
    let wsmed = &setup.wsmed;
    let texts: Vec<String> = (0..TEXTS)
        .map(|i| paper::QUERY1_SQL.replace("gp.distance=15.0", &format!("gp.distance={i}.5")))
        .collect();
    assert_ne!(texts[0], texts[1]);
    for round in 0..2 {
        for text in &texts {
            let plan = wsmed.plan_query(text).unwrap();
            assert_eq!(plan, wsmed.compile_parallel(text, &vec![2, 2]).unwrap());
            assert!((1..=256).contains(&wsmed.cached_plans()), "round {round}");
        }
    }
}

/// The wire encoding of a one-column parameter tuple.
fn param(s: &str) -> Vec<u8> {
    wire::encode_tuple(&Tuple::new(vec![Value::str(s)])).to_vec()
}

#[test]
fn a_learned_empty_parameter_reaches_the_next_hit() {
    let setup = setup();
    let wsmed = &setup.wsmed;
    wsmed.set_planner_policy(PlannerPolicy::CostBased { prune: true });
    let sql = paper::QUERY1_SQL;
    let (_, searched) = plan_and_check(wsmed, sql, false);
    let (_, hit) = plan_and_check(wsmed, sql, true);
    assert!(hit.prune_sections.iter().all(|&(_, n)| n == 0));

    let section = hit.prune_sections[0].0.clone();
    wsmed
        .planner_stats()
        .observe_empty(&section, param("Nowhere").into());
    let (plan, hit) = plan_and_check(wsmed, sql, true);
    assert_eq!(hit.origin.epoch, searched.origin.epoch);
    assert_eq!(hit.prune_sections[0], (section, 1));
    let mut op = &plan.root;
    let pf = loop {
        match op {
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => break pf,
            other => op = other.input().unwrap(),
        }
    };
    let spec = pf.prune.as_ref().expect("the plan function is annotated");
    assert!(spec.drop_params.contains(&param("Nowhere")));
}

/// Query1's root OWF: under the tiny dataset's profiles the cost search
/// gives its one merged level fanout 2 at 0.25 rows per call and fanout 5
/// at 1.
const ALL_STATES: &str = "GetAllStates";

/// Moves `op`'s cumulative rows-per-call to `quarters` / 4 by adding three
/// times the rows seen so far (four at first, so the input count stays a
/// power of four): from 1 to 0.25 the new rows emit nothing.
fn move_rows_per_call(stats: &PlannerStats, op: &str, quarters: u64) {
    let seen = stats.op_obs(op).unwrap_or_default();
    let rows_in = if seen.rows_in == 0 {
        4
    } else {
        3 * seen.rows_in
    };
    let rows_out = quarters * (seen.rows_in + rows_in) / 4 - seen.rows_out;
    stats.observe_op(op, rows_in, rows_out);
}

#[test]
fn concurrent_plans_equal_a_search_at_an_observed_epoch() {
    const STEPS: usize = 12;
    let setup = setup();
    let wsmed = &setup.wsmed;
    let stats = wsmed.planner_stats();
    wsmed.set_planner_policy(PlannerPolicy::CostBased { prune: true });
    let sql = paper::QUERY1_SQL;

    // The observer is the statistics' only writer, so after each move the
    // statistics hold still until its next one: what it searches then is
    // what any search at that epoch finds.
    let mut searched = HashMap::new();
    searched.insert(stats.epoch(), fresh_search(wsmed, sql).0);
    let done = AtomicBool::new(false);
    // A barrier starts the two planners and the observer together.
    let start = Barrier::new(3);
    let returned = std::thread::scope(|scope| {
        let planners: Vec<_> = (0..2)
            .map(|_| {
                let (done, start) = (&done, &start);
                scope.spawn(move || {
                    let mut returned = Vec::new();
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        let current = stats.epoch();
                        let (plan, explanation) = wsmed.plan_query_explained(sql).unwrap();
                        // Never priced before the call began.
                        assert!(explanation.origin.epoch >= current);
                        returned.push((explanation.origin.epoch, plan));
                    }
                    // Nothing moves any more: a second plan is a hit.
                    wsmed.plan_query(sql).unwrap();
                    let (plan, explanation) = wsmed.plan_query_explained(sql).unwrap();
                    assert!(explanation.origin.cached);
                    returned.push((explanation.origin.epoch, plan));
                    returned
                })
            })
            .collect();
        start.wait();
        for step in 0..STEPS {
            let before = stats.epoch();
            // Alternately 1 and 0.25 rows per call: every move leaves the
            // band and changes the plan.
            move_rows_per_call(stats, ALL_STATES, if step % 2 == 0 { 4 } else { 1 });
            assert_eq!(stats.epoch(), before + 1);
            searched.insert(stats.epoch(), fresh_search(wsmed, sql).0);
        }
        done.store(true, Ordering::Release);
        planners
            .into_iter()
            .flat_map(|planner| planner.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(searched.len(), STEPS + 1);
    let plans: Vec<&QueryPlan> = searched.values().collect();
    assert!(
        plans.iter().any(|plan| *plan != plans[0]),
        "the observer's moves must change the plan, or the check shows nothing"
    );
    for (epoch, plan) in &returned {
        assert_eq!(
            Some(plan),
            searched.get(epoch),
            "a plan priced at epoch {epoch}"
        );
    }
}
