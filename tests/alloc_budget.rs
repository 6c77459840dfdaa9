//! Allocation budget of the web-service call path.
//!
//! Central Query2 runs every call on the calling thread (no tree, wire or
//! mailbox), so heap allocations ÷ `ws_calls` is what one trip through
//! transport → SOAP/XML → netsim → flatten costs. The count is exact and
//! machine-independent; a change that spends more of it has to raise the
//! budget here, in the open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsmed::core::{paper, CachePolicy};
use wsmed::services::DatasetConfig;

/// Allocations per web-service call the call path may spend (112.8 before
/// the one-pass-per-stage rewrite, 42.7 before responses were flattened
/// from their XML; see DESIGN.md, "Call path").
const BUDGET_PER_CALL: f64 = 25.0;

/// The same with a per-run call cache, where every lookup misses and the
/// miss converts the response into the value the cache stores: 59.8 when
/// the uncached path still converted every response too.
const CACHED_BUDGET_PER_CALL: f64 = 59.8;

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

#[test]
fn cached_central_query2_stays_inside_its_allocation_budget() {
    let per_call = per_call_allocations(Some(CachePolicy::default()));
    assert!(
        per_call <= CACHED_BUDGET_PER_CALL,
        "{per_call:.1} allocations per call with the cache on, budget {CACHED_BUDGET_PER_CALL}"
    );
}
