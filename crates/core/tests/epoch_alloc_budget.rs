//! Allocation budget of the service's write path, counted by a
//! `#[global_allocator]` that this test binary has to itself.
//!
//! A write builds the next epoch from the published one: the array and
//! edge maps are shared, and an insert copies the one shard it touches, of
//! reference-counted names, shapes and edges. So what one
//! `DslogService::define_array` or one-edge `ingest_batch` allocates must
//! not depend on how many arrays and edges the database already holds —
//! pinned here on a small and a large database, so a change that brings
//! back a copy of every name, shape or edge key per epoch fails. An edge
//! lookup by name allocates nothing.

use dslog::api::{Dslog, TableCapture};
use dslog::service::{AutoCommitPolicy, DslogService, IngestJob};
use dslog::table::LineageTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, with `realloc`'s own contract passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations this thread made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// How far the large database's count may sit from the small one's: a
/// copied shard or the operation buffer may have to grow on one side and
/// not the other, one allocation each.
const SLACK: usize = 2;

/// A 4-cell one-to-one relation.
fn one_to_one() -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    (0..4).for_each(|v| t.push_row(&[v, v]));
    t
}

/// A service over `arrays` 1-D arrays `A0..` and `edges` edges
/// `A{2k} → A{2k+1}`, built in place on a plain handle and then served.
fn service(arrays: usize, edges: usize) -> DslogService {
    let mut db = Dslog::new();
    for i in 0..arrays {
        db.define_array(&format!("A{i}"), &[4]).unwrap();
    }
    for k in 0..edges {
        let (from, to) = (format!("A{}", 2 * k), format!("A{}", 2 * k + 1));
        db.add_lineage(&from, &to, &TableCapture::new(one_to_one()))
            .unwrap();
    }
    DslogService::new(db, AutoCommitPolicy::manual())
}

/// Allocations of one `define_array` of a new name, of one one-edge
/// `ingest_batch` into it, and of a hit and a miss of `has_directed_edge`.
fn write_cycle_allocations(arrays: usize, edges: usize) -> (usize, usize, usize) {
    let service = service(arrays, edges);
    let ((), define) = allocations(|| service.define_array("new", &[4]).unwrap());
    let job = IngestJob::new("A0", "new", one_to_one());
    let (report, ingest) = allocations(|| service.ingest_batch(vec![job]).unwrap());
    assert_eq!(report.edges, 1);
    let lookups = service.with_db(|db| {
        let storage = db.storage();
        let ((hit, miss), n) = allocations(|| {
            let hit = storage.has_directed_edge("A0", "A1");
            (hit, storage.has_directed_edge("A1", "A0"))
        });
        assert!(hit && !miss);
        n
    });
    assert_eq!(service.stats().edges, edges + 1);
    (define, ingest, lookups)
}

#[test]
fn a_write_allocates_the_same_on_a_small_and_a_large_database() {
    // The process's first write cycle pays one-time per-thread setup (the
    // lock checker's, under `DSLOG_SYNC_CHECK=1`): run one unmeasured.
    write_cycle_allocations(16, 4);
    let (small_define, small_ingest, small_lookups) = write_cycle_allocations(16, 4);
    let (large_define, large_ingest, large_lookups) = write_cycle_allocations(4096, 1024);
    assert!(
        large_define.abs_diff(small_define) <= SLACK,
        "define_array: {small_define} allocations over 16 arrays, {large_define} over 4096"
    );
    assert!(
        large_ingest.abs_diff(small_ingest) <= SLACK,
        "ingest_batch: {small_ingest} allocations over 4 edges, {large_ingest} over 1024"
    );
    assert_eq!((small_lookups, large_lookups), (0, 0), "edge lookups");
}
