//! The analyzer database's memory shape, pinned with a counting allocator:
//! a row is a 4-byte id into the distinct values, not a heap copy of its
//! value, and merging copies ids without allocating per row. A regression
//! to one allocation per row multiplies both numbers measured here by
//! roughly the row count over the distinct count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use prochlo_core::AnalyzerDatabase;

const ROWS: usize = 100_000;
const DISTINCT: usize = 8;

thread_local! {
    // Per thread, so the test harness's own threads never pollute a
    // measurement. Const-initialized and without a destructor, so reading
    // them from inside the allocator can neither allocate nor fail.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Delegates every call to [`System`] and counts, per thread, the bytes it
/// holds and the blocks it hands out (a `realloc` counts as one block).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around each call only
// touches const-initialized thread-locals and never allocates. This is the
// only way to observe heap use from inside the process, and it lives in its
// own test binary so no other test or program runs under it — the reactor's
// `poll` call is the workspace's only other `unsafe`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.with(|live| live.set(live.get() - layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            record(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

fn record(grown: isize) {
    LIVE_BYTES.with(|live| live.set(live.get() + grown));
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn value(i: usize) -> Vec<u8> {
    format!("word-{}", i % DISTINCT).into_bytes()
}

/// What a handful of distinct values may cost wherever the database keeps
/// them, independent of the row count.
const PER_DISTINCT_BYTES: usize = 512;

#[test]
fn a_row_holds_at_most_eight_live_heap_bytes() {
    let before = live_bytes();
    let db = AnalyzerDatabase::from_rows((0..ROWS).map(value));
    let held = (live_bytes() - before) as usize;
    assert_eq!(db.rows().len(), ROWS);
    assert_eq!(db.distinct_values(), DISTINCT);
    assert!(
        held <= 8 * ROWS + PER_DISTINCT_BYTES * DISTINCT,
        "{ROWS} rows over {DISTINCT} values hold {held} heap bytes ({:.1} per row)",
        held as f64 / ROWS as f64
    );
}

#[test]
fn merging_allocates_per_distinct_value_not_per_row() {
    let other = AnalyzerDatabase::from_rows((0..ROWS).map(value));
    let mut into = AnalyzerDatabase::default();
    let before = allocations();
    into.merge_from(&other);
    let made = allocations() - before;
    assert!(into.rows().eq(other.rows()));
    // A few blocks per distinct value wherever it is stored, plus one
    // growth step per doubling of a container.
    let log2_rows = (usize::BITS - ROWS.leading_zeros()) as usize;
    let bound = 4 * DISTINCT + 2 * log2_rows;
    assert!(
        made <= bound,
        "merging {ROWS} rows over {DISTINCT} values made {made} allocations (bound {bound})"
    );
}
