//! Allocation budgets of the web-service call path and of a message frame.
//!
//! Central Query2 runs every call on the calling thread (no tree, wire or
//! mailbox), so heap allocations ÷ `ws_calls` is what one trip through
//! transport → SOAP/XML → netsim → flatten costs. A one-tuple frame's
//! round trip through the wire functions is what one message of a query
//! tree costs to encode and decode. Learned semi-join prune sets are read
//! by planning without a copy, so planning allocates the same whatever
//! their size. The counts are exact and
//! machine-independent; a change that spends more of them has to raise the
//! budget here, in the open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsmed::core::planner::annotate_prune;
use wsmed::core::{
    paper, wire, CachePolicy, PlanFunction, PlanOp, PlannerPolicy, PlannerStats, QueryPlan,
};
use wsmed::services::DatasetConfig;
use wsmed::store::{Tuple, Value};

/// Allocations per web-service call the call path may spend (112.8 before
/// the one-pass-per-stage rewrite, 42.7 before responses were flattened
/// from their XML; see DESIGN.md, "Call path").
const BUDGET_PER_CALL: f64 = 25.0;

/// The same with a per-run call cache, where every lookup misses and the
/// miss converts the response into the value the cache stores: 59.8 when
/// the uncached path still converted every response too.
const CACHED_BUDGET_PER_CALL: f64 = 59.8;

/// Allocations of a one-tuple row frame's round trip: 12 when every
/// encoder grew a buffer and then copied it, and a decoded string was
/// allocated twice (see DESIGN.md, "Columnar engine").
const ROW_FRAME_ROUND_TRIP_BUDGET: u64 = 7;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations (and growing reallocations) made by threads that
/// switched counting on; every other thread passes straight through.
struct CountingAllocator;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-locals of `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with counting on for this thread and returns its allocations.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Allocations per web-service call of central Query2 on the small
/// dataset, with the cache `policy`; asserts the count repeats exactly.
fn per_call_allocations(policy: Option<CachePolicy>) -> f64 {
    let mut setup = paper::setup(0.0, DatasetConfig::small());
    setup.wsmed.set_cache_policy(policy);
    let plan = setup.wsmed.compile_central(paper::QUERY2_SQL).unwrap();
    let run = || {
        let (report, allocations) = allocations_of(|| setup.wsmed.execute(&plan).unwrap());
        assert_eq!(report.row_count(), 1, "Query2 finds the USAF Academy");
        (report.ws_calls, allocations)
    };
    // Once-per-mediator lazy set-up (three allocations) stays outside the count.
    run();
    let (calls, first) = run();
    let (calls_again, second) = run();
    assert_eq!(calls, calls_again);
    assert_eq!(
        first, second,
        "the allocation count must repeat exactly, or it cannot be a budget"
    );
    let per_call = first as f64 / calls as f64;
    println!("{first} allocations / {calls} calls = {per_call:.1} per call");
    per_call
}

#[test]
fn central_query2_stays_inside_the_allocation_budget() {
    let per_call = per_call_allocations(None);
    assert!(
        per_call <= BUDGET_PER_CALL,
        "{per_call:.1} allocations per call, budget {BUDGET_PER_CALL}"
    );
}

/// One result row of Query1, as a tree ships it at the default policy.
fn result_row() -> Tuple {
    Tuple::new(vec![Value::str("Atlanta Heights"), Value::str("GA")])
}

/// Allocations of `round_trip` on `result_row()`; asserts the rows come
/// back and the count repeats exactly.
fn round_trip_allocations(round_trip: impl Fn(&Tuple) -> Vec<Tuple>) -> u64 {
    let row = result_row();
    // Per-thread encode buffers are set up by the first frame.
    round_trip(&row);
    let (rows, first) = allocations_of(|| round_trip(&row));
    let (_, second) = allocations_of(|| round_trip(&row));
    assert_eq!(rows, vec![row]);
    assert_eq!(first, second, "the allocation count must repeat exactly");
    first
}

#[test]
fn one_tuple_row_frame_round_trip_stays_inside_its_allocation_budget() {
    let rows = round_trip_allocations(|row| {
        let frame = wire::encode_rows_message([&wire::encode_tuple(row)]);
        wire::decode_message(frame).unwrap().into_tuples().unwrap()
    });
    let columnar = round_trip_allocations(|row| {
        let frame = wire::encode_columnar_message(std::slice::from_ref(row));
        wire::decode_message(frame).unwrap().into_tuples().unwrap()
    });
    println!("one-tuple round trip: {rows} allocations as a row frame, {columnar} as columnar");
    assert!(
        rows <= ROW_FRAME_ROUND_TRIP_BUDGET,
        "{rows} allocations, budget {ROW_FRAME_ROUND_TRIP_BUDGET}"
    );
}

#[test]
fn cached_central_query2_stays_inside_its_allocation_budget() {
    let per_call = per_call_allocations(Some(CachePolicy::default()));
    assert!(
        per_call <= CACHED_BUDGET_PER_CALL,
        "{per_call:.1} allocations per call with the cache on, budget {CACHED_BUDGET_PER_CALL}"
    );
}

/// The wire encoding of the `i`th learned empty parameter: a state code.
fn state_param(i: usize) -> Vec<u8> {
    wire::encode_tuple(&Tuple::new(vec![Value::str(format!("S{i:04}"))])).to_vec()
}

/// Query1's cost-based plan, unannotated.
fn query1_cost_plan() -> QueryPlan {
    let setup = paper::setup(0.0, DatasetConfig::small());
    setup
        .wsmed
        .set_planner_policy(PlannerPolicy::CostBased { prune: false });
    setup.wsmed.plan_query(paper::QUERY1_SQL).unwrap()
}

/// The first plan function met walking down from the root, the one whose
/// section key `annotate_prune` reports first.
fn first_pf(plan: &QueryPlan) -> &PlanFunction {
    let mut op = &plan.root;
    loop {
        match op {
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => return pf,
            other => op = other.input().expect("the plan has a plan function"),
        }
    }
}

/// Statistics that learned `params` as empty, in order, under `section`.
fn learned(
    section: &str,
    params: impl IntoIterator<Item = Vec<u8>>,
) -> std::sync::Arc<PlannerStats> {
    let stats = PlannerStats::new();
    for param in params {
        stats.observe_empty(section, param.into());
    }
    stats
}

#[test]
fn learned_prune_sets_are_shared_not_copied() {
    const CAP: usize = 4096;
    let plan = query1_cost_plan();
    let section = annotate_prune(&mut plan.clone(), &PlannerStats::new())[0]
        .0
        .clone();

    // Reading a full section's set, and observing a parameter it already
    // holds, allocate nothing.
    let stats = learned(&section, (0..CAP).map(state_param));
    let known: Vec<_> = (0..8).map(|i| state_param(i * 500).into()).collect();
    let (set, allocations) = allocations_of(|| stats.empty_params(&section));
    assert_eq!((set.len(), allocations), (CAP, 0));
    let ((), allocations) = allocations_of(|| {
        for param in known {
            stats.observe_empty(&section, param);
        }
    });
    assert_eq!(allocations, 0, "observing a known parameter");
    assert_eq!(stats.empty_params(&section).len(), CAP);

    // Planning allocates the same with 16 learned parameters as with 4,096.
    let annotate = |stats: &PlannerStats| {
        let mut plan = plan.clone();
        let (annotated, allocations) = allocations_of(|| annotate_prune(&mut plan, stats));
        assert_eq!(
            annotated[0],
            (section.clone(), stats.empty_params(&section).len())
        );
        allocations
    };
    let few = learned(&section, (0..16).map(state_param));
    let (small, full) = (annotate(&few), annotate(&stats));
    println!("annotate_prune on Query1: {small} allocations with 16 learned, {full} with {CAP}");
    assert_eq!(small, full);

    // The shipped bytes do not depend on the order parameters were learned
    // in, and are what sorting the list and encoding it entry by entry gives.
    let params: Vec<Vec<u8>> = (0..300).map(|i| state_param(i * 7 % 300)).collect();
    let shipped = |stats: &PlannerStats| {
        let mut plan = plan.clone();
        annotate_prune(&mut plan, stats);
        wire::encode_plan_function(first_pf(&plan))
    };
    let forward = shipped(&learned(&section, params.iter().cloned()));
    let backward = shipped(&learned(&section, params.iter().rev().cloned()));
    assert_eq!(forward, backward);

    let mut plan = plan.clone();
    annotate_prune(&mut plan, &PlannerStats::new());
    let mut pf = first_pf(&plan).clone();
    pf.prune = None;
    let mut reference = wire::encode_plan_function(&pf).to_vec();
    assert_eq!(reference.pop(), Some(0), "the unannotated prune tag");
    let mut sorted = params;
    sorted.sort();
    reference.push(1);
    reference.extend_from_slice(&(section.len() as u32).to_le_bytes());
    reference.extend_from_slice(section.as_bytes());
    reference.extend_from_slice(&(sorted.len() as u32).to_le_bytes());
    for param in &sorted {
        reference.extend_from_slice(&(param.len() as u32).to_le_bytes());
        reference.extend_from_slice(param);
    }
    assert_eq!(&forward[..], &reference[..]);
}
