//! Allocation budget of a warm `prov_query`, counted by a `#[global_allocator]`
//! that this test binary has to itself.
//!
//! A warm query pays for its joins: it finds its path in the registry from
//! the borrowed names (no key, no `String` per array or edge), plans nothing
//! per hop, and a matched row is written straight into the hop's output.
//! What is left is a fixed set of buffers per query and per hop plus the
//! result's own storage — pinned here, so a change that brings back a `Vec`
//! or `String` per hop lookup or per matched row fails, in either hop
//! direction. A merge that has to sort allocates its key buffer once, not
//! once per pass.

use dslog::api::{Dslog, TableCapture};
use dslog::query::exec::QueryExec;
use dslog::query::plan::PlanDecision;
use dslog::table::{BoxTable, LineageTable};
use dslog::Interval;
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

/// Per query, whatever the path: the registry hand-out is free (an `Arc`
/// bump), Q′ is one buffer (its boxes, merged in place), the hop
/// statistics one.
const PER_QUERY: usize = 2;
/// Per executed hop: the intersection scratch and the output boxes' buffer.
const PER_HOP: usize = 2;
/// Per merge of a frontier that does not lie in pass order, however many
/// passes it runs: the sort keys, which every later pass reuses (the boxes
/// are swapped into place, not gathered into a second buffer).
const PER_MERGE: usize = 1;

/// `hops` scatter-permutation hops over `[n]` arrays `S0..S{hops}`: every
/// table keeps about one compressed row per cell, and a one-cell query
/// matches one row per hop.
fn chain(hops: usize, n: usize) -> (Dslog, Vec<String>) {
    let mut db = Dslog::new();
    let names: Vec<String> = (0..=hops).map(|i| format!("S{i}")).collect();
    for name in &names {
        db.define_array(name, &[n]).unwrap();
    }
    for i in 0..hops {
        let mut t = LineageTable::new(1, 1);
        for v in 0..n as i64 {
            t.push_row(&[v, (v * 37 + 11) % n as i64]);
        }
        db.add_lineage(&names[i + 1], &names[i], &TableCapture::new(t))
            .unwrap();
    }
    (db, names)
}

/// Allocations of one warm single-cell query over the first `hops` hops:
/// the path's second sighting, which the planner still runs in path order
/// (the third would materialize a composite).
fn warm_query_allocations(db: &Dslog, names: &[String], hops: usize) -> usize {
    let path: Vec<&str> = names[..=hops].iter().map(String::as_str).collect();
    let cells = vec![vec![5i64]];
    db.prov_query(&path, &cells).unwrap();
    let (result, n) = allocations(|| db.prov_query(&path, &cells).unwrap());
    assert_eq!(
        result.stats.plan.as_ref().map(|p| &p.decision),
        Some(&PlanDecision::PathOrder)
    );
    assert_eq!(result.hops, hops, "every hop ran");
    assert_eq!(result.cells.n_boxes(), 1);
    n
}

#[test]
fn warm_query_allocations_are_a_constant_plus_two_per_hop() {
    let (db, names) = chain(5, 64);
    let five = warm_query_allocations(&db, &names, 5);
    let two = warm_query_allocations(&db, &names, 2);
    assert!(
        five <= PER_QUERY + 5 * PER_HOP,
        "5-hop single-cell query made {five} allocations"
    );
    // Path length costs its hops' own buffers and nothing for the names.
    assert!(
        five - two <= 3 * PER_HOP,
        "5 hops made {five} allocations, 2 hops {two}"
    );
}

#[test]
fn warm_forward_query_allocations_are_a_constant_plus_two_per_hop() {
    // The same chain read from its far end: every edge stores only its
    // backward table, so each hop is the reverse probe.
    let (db, mut names) = chain(5, 64);
    names.reverse();
    let five = warm_query_allocations(&db, &names, 5);
    assert!(
        five <= PER_QUERY + 5 * PER_HOP,
        "5-hop single-cell forward query made {five} allocations"
    );
}

#[test]
fn hop_allocations_do_not_grow_with_matched_rows() {
    // One output cell fed by `fan` scattered input cells: `fan` compressed
    // rows match a single query box.
    let (n, fan) = (4096usize, 256usize);
    let mut db = Dslog::new();
    db.define_array("A", &[n]).unwrap();
    db.define_array("B", &[2]).unwrap();
    let mut t = LineageTable::new(1, 1);
    let mut a = 1i64;
    for i in 0..fan as i64 {
        a += 2 + (i * i) % 11;
        t.push_row(&[0, a]);
    }
    t.push_row(&[1, 0]);
    db.add_lineage("A", "B", &TableCapture::new(t)).unwrap();

    let query = |cell: i64| {
        let cells = vec![vec![cell]];
        db.prov_query(&["B", "A"], &cells).unwrap();
        allocations(|| db.prov_query(&["B", "A"], &cells).unwrap())
    };
    let (one, one_allocs) = query(1);
    let (many, many_allocs) = query(0);
    assert_eq!(one.stats.rows_matched(), 1);
    assert!(many.stats.rows_matched() >= fan / 2, "the hop must fan out");
    // The output buffer doubles as it grows and the merge may sort once
    // (one key buffer): a logarithm, never a term per matched row.
    let growth = many.stats.rows_matched().ilog2() as usize;
    assert!(
        many_allocs <= one_allocs + growth,
        "{} matched rows cost {many_allocs} allocations, one row {one_allocs}",
        many.stats.rows_matched()
    );
}

#[test]
fn composite_served_query_allocates_a_constant() {
    let (db, names) = chain(5, 64);
    let path: Vec<&str> = names.iter().map(String::as_str).collect();
    let cells = vec![vec![5i64]];
    for _ in 0..3 {
        db.prov_query(&path, &cells).unwrap();
    }
    assert!(db.storage().has_composite(&path));
    let (result, n) = allocations(|| db.prov_query(&path, &cells).unwrap());
    assert_eq!(
        result.stats.plan.as_ref().map(|p| &p.decision),
        Some(&PlanDecision::CompositeEdge { hops_folded: 5 })
    );
    // Q′'s buffer, one hop's two, its statistics: five hops folded into
    // one probe cost what one hop costs.
    assert!(
        n <= PER_QUERY + PER_HOP,
        "composite-served query made {n} allocations"
    );
}

#[test]
fn multi_box_merges_allocate_a_constant_whatever_the_pass_count() {
    // A 256-cell range through three scatter hops: Q′ is one box, and every
    // hop's output is some 256 points out of order.
    let (db, names) = chain(3, 4096);
    let cells: Vec<Vec<i64>> = (1000..1256).map(|v| vec![v]).collect();
    let (mut frontier, n) = allocations(|| BoxTable::from_cells(1, &cells));
    assert_eq!(frontier.n_boxes(), 1);
    assert!(n <= 1, "encoding a 256-cell range made {n} allocations");
    let exec = QueryExec::new(db.query_options());
    for hop in names.windows(2) {
        let table = db.storage().resolve_hop(&hop[0], &hop[1]).unwrap().0;
        let (mut out, _) = exec.hop(&frontier, &table).unwrap();
        let boxes = out.n_boxes();
        assert!(boxes >= 128, "the hop must scatter the range");
        let ((), n) = allocations(|| out.merge());
        assert!(n <= PER_MERGE, "merging {boxes} boxes made {n} allocations");
        frontier = out;
    }
    let path: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(
        db.prov_query(&path, &cells).unwrap().cells.cell_set(),
        frontier.cell_set()
    );

    // Shuffled full grids: each pass sorts and merges, one pass per
    // attribute — one for a 1-D run, three for a 3-D cube.
    for (arity, side) in [(1, 256usize), (2, 16), (3, 8)] {
        let mut grid: Vec<Vec<i64>> = (0..side.pow(arity as u32))
            .map(|mut i| {
                (0..arity)
                    .map(|_| {
                        let v = i % side;
                        i /= side;
                        v as i64
                    })
                    .collect()
            })
            .collect();
        for i in (1..grid.len()).rev() {
            grid.swap(i, (i * 7919 + 13) % (i + 1));
        }
        let mut t = BoxTable::new(arity);
        for cell in &grid {
            let row: Vec<_> = cell.iter().map(|&v| Interval::point(v)).collect();
            t.push_box(&row);
        }
        let ((), n) = allocations(|| t.merge());
        assert_eq!(t.n_boxes(), 1, "a full grid merges to one box");
        assert!(n <= PER_MERGE, "{arity}-D grid merge made {n} allocations");
    }
}
