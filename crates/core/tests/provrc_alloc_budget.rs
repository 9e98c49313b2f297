//! Memory a ProvRC compression writes, counted by a `#[global_allocator]`
//! that this test binary has to itself.
//!
//! Rows that arrive strictly ascending are compressed where they lie: a
//! pass that finds them in its order reads them once and writes nothing
//! unless it merges, and a pass that merges writes only its runs. These
//! tests pin that, so a change that copies the input into a working set
//! again, or gives every row of a no-op pass an entry, fails.

use dslog::provrc;
use dslog::table::{LineageTable, Orientation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated (and grown into by reallocation) on this thread.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size.saturating_sub(layout.size())));
        // SAFETY: as for `dealloc`, with `realloc`'s own contract passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the bytes this thread allocated.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const N: usize = 100_000;

/// `B[i] <- A[i]`, rows in `order`.
fn one_to_one(order: impl Iterator<Item = usize>) -> LineageTable {
    let mut t = LineageTable::with_capacity(1, 1, N);
    for i in order {
        t.push_row(&[i as i64, i as i64]);
    }
    t
}

/// Compress backward after one warm-up run (the mask lists are built once
/// per process), returning the table and the bytes the second run took.
fn compress_counted(t: &LineageTable, shape: &[usize]) -> (dslog::CompressedTable, usize) {
    provrc::compress(t, shape, shape, Orientation::Backward);
    allocated(|| provrc::compress(t, shape, shape, Orientation::Backward))
}

#[test]
fn sorted_one_to_one_writes_only_its_one_row() {
    let t = one_to_one(0..N);
    let (table, bytes) = compress_counted(&t, &[N]);
    assert_eq!(table.n_rows(), 1);
    // The input alone is 1.6 MB; a copy of it, or of any per-row key or
    // run list, is 0.8 MB or more.
    assert!(bytes < 64 << 10, "{bytes} bytes allocated");

    // The same relation in a shuffled order builds the arena, and yields
    // the identical table.
    let mut order: Vec<usize> = (0..N).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..N).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let shuffled = one_to_one(order.into_iter());
    assert_eq!(compress_counted(&shuffled, &[N]).0, table);
}

#[test]
fn sorted_convolution_writes_one_folded_arena() {
    // `B[i] <- A[i-1], A[i], A[i+1]` on the interior cells: the first pass
    // folds each output cell's three rows into one, on the input in place.
    let cells = N / 3;
    let mut t = LineageTable::with_capacity(1, 1, N);
    for i in 1..cells as i64 - 1 {
        for j in i - 1..=i + 1 {
            t.push_row(&[i, j]);
        }
    }
    let (table, bytes) = compress_counted(&t, &[cells]);
    assert_eq!(table.n_rows(), 1);
    // One folded row is a 16-byte primary interval and a 24-byte
    // secondary cell, and the packed step-2 pass that folds the rest gives
    // it a 16-byte key pair; that pass finds its keys sorted and one run.
    // The unfolded arena alone would be 4 MB.
    let per_folded_row = 16 + 24 + 16;
    let budget = cells * per_folded_row + (64 << 10);
    assert!(bytes <= budget, "{bytes} bytes allocated, budget {budget}");
}

#[test]
fn sorted_2d_identity_writes_only_its_folding_pass() {
    // `B[i, j] <- A[i, j]` on 200 x 200, rows ascending as a numpy edge
    // brings them. Step 1 finds the rows in its order; on the last output
    // axis, masks `11` and `01` are out of order and proven no-ops (no
    // row plus their shift is a row), so they skip without an arena; mask
    // `10` folds the rows in place into one per output row `i`. Only that
    // folding pass writes, one arena row per folded row, and later passes
    // run on those rows.
    let side = 200usize;
    let mut t = LineageTable::with_capacity(2, 2, side * side);
    for i in 0..side as i64 {
        for j in 0..side as i64 {
            t.push_row(&[i, j, i, j]);
        }
    }
    let (table, bytes) = compress_counted(&t, &[side, side]);
    assert_eq!(table.n_rows(), 1);
    // An arena row is two 16-byte primary intervals and two 24-byte
    // secondary cells. The unfolded arena alone would be 3.2 MB, and a
    // sort's key pairs 0.6 MB.
    let per_arena_row = 2 * 16 + 2 * 24;
    let budget = side * per_arena_row + (64 << 10);
    assert!(bytes <= budget, "{bytes} bytes allocated, budget {budget}");
}
