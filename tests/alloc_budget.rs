//! Allocation budgets of the web-service call path and of a message frame.
//!
//! Central Query2 runs every call on the calling thread (no tree, wire or
//! mailbox), so heap allocations ÷ `ws_calls` is what one trip through
//! transport → SOAP/XML → netsim → flatten costs. A one-tuple frame's
//! round trip through the wire functions is what one message of a query
//! tree costs to encode and decode. The counts are exact and
//! machine-independent; a change that spends more of them has to raise the
//! budget here, in the open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsmed::core::{paper, wire, CachePolicy};
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
