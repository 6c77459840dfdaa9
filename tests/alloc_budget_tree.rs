//! Allocation budget of a query-process tree.
//!
//! Query1 on a fixed `{5,4}` tree ships every parameter tuple down and
//! every result tuple up as a message frame of its own (the default batch
//! policy), so what the tree spends beyond the central plan is mostly
//! frame encode, frame decode and mailbox work. Query processes are tasks
//! on the runtime's worker threads, so counting is switched on for the
//! whole process and every thread's allocations count.
//!
//! The count does not repeat exactly: a mailbox's queue grows with the
//! interleaving the scheduler happened to produce, which moves a query's
//! count by about 15. The gate is therefore the maximum over five runs, not
//! an exact repeat.
//!
//! The switch is process-wide, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wsmed::core::paper;
use wsmed::services::DatasetConfig;

/// Allocations one Query1 `{5,4}` run on the small dataset may make
/// (28 472 when a frame cost an allocation per encode step and a string
/// two per decode; see DESIGN.md, "Columnar engine").
const BUDGET_PER_QUERY: u64 = 21_000;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts allocations (and growing reallocations) on every thread while
/// the switch is on.
struct CountingAllocator;

fn note_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// atomics, which never allocate.
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

#[test]
fn query1_tree_stays_inside_the_allocation_budget() {
    let setup = paper::setup(0.0, DatasetConfig::small());
    let plan = setup
        .wsmed
        .compile_parallel(paper::QUERY1_SQL, &vec![5, 4])
        .unwrap();
    let central = setup.wsmed.compile_central(paper::QUERY1_SQL).unwrap();
    let expected_rows = setup.wsmed.execute(&central).unwrap().row_count();
    // The first run starts the worker threads and fills per-thread buffers.
    setup.wsmed.execute(&plan).unwrap();
    let mut worst = 0;
    for _ in 0..5 {
        ALLOCATIONS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let report = setup.wsmed.execute(&plan).unwrap();
        COUNTING.store(false, Ordering::SeqCst);
        let allocations = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(report.row_count(), expected_rows, "same rows as central");
        println!(
            "{allocations} allocations / query: {} messages, {} calls",
            report.messages, report.ws_calls
        );
        worst = worst.max(allocations);
    }
    assert!(
        worst <= BUDGET_PER_QUERY,
        "{worst} allocations in the worst of five runs, budget {BUDGET_PER_QUERY}"
    );
}
