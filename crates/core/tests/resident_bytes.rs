//! Bytes a decoded table and its index keep resident, counted by a
//! `#[global_allocator]` that this test binary has to itself: every
//! allocation adds its size, every free takes it back, so what a call
//! leaves counted is what the value it returns holds.
//!
//! A column of absolute points is held as 8 bytes per row and its index as
//! 12 (row id and `lo`, no fence); a few merged rows among the points cost
//! a few bytes each, not a wider form for the whole column. A column of
//! intervals or relative cells is held no wider than as `Cell`s.

use dslog::storage::format::{deserialize, serialize};
use dslog::table::{Cell, CompressedTable, LineageTable, Orientation};
use dslog::{provrc, Interval};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

thread_local! {
    /// Bytes allocated and not yet freed on this thread.
    static LIVE: Counter<isize> = const { Counter::new(0) };
}

struct Counting;

fn count(delta: isize) {
    LIVE.with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, with `realloc`'s own contract passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Decode `bytes` and build the table's primary index, returning the table
/// with the bytes both hold.
fn decoded_and_indexed(bytes: &[u8]) -> (CompressedTable, usize) {
    let before = LIVE.with(Counter::get);
    let table = deserialize(bytes).unwrap();
    table.ensure_index();
    let held = LIVE.with(Counter::get) - before;
    (table, held as usize)
}

const N: usize = 10_000;
const SLACK: usize = 64 << 10;

/// `B[i] <- A[h(i)]` over `N` cells, `h` a fixed pseudo-random map, with a
/// few rows ProvRC merges: where `h(i + 1)` is `h(i)` (an interval
/// primary) or `h(i) + 1` (a relative secondary). The benchmark's scatter
/// edges hold between none and six such rows.
fn scatter() -> LineageTable {
    let mut t = LineageTable::with_capacity(1, 1, N);
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut prev = 0i64;
    for i in 0..N as i64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let h = match i % 2500 {
            1 => prev,
            1001 => prev + 1,
            _ => ((state >> 33) % N as u64) as i64,
        };
        t.push_row(&[i, h]);
        prev = h;
    }
    t
}

#[test]
fn a_scatter_table_holds_under_30_bytes_a_row() {
    let table = provrc::compress(&scatter(), &[N], &[N], Orientation::Backward);
    let merged = N - table.n_rows();
    assert!((4..=12).contains(&merged), "{merged} rows merged");
    let (decoded, bytes) = decoded_and_indexed(&serialize(&table));
    assert_eq!(decoded, table);
    // As 24-byte cells with a 20-byte index it held 68 bytes a row.
    assert!(
        bytes <= 30 * N + SLACK,
        "{bytes} bytes resident for {N} rows ({} a row)",
        bytes / N
    );
}

#[test]
fn an_interval_and_relative_table_holds_no_more_than_as_cells() {
    // Primaries `[2i, 2i + 1]`, secondaries anchored to them: the widest
    // forms, an interval column and a column of relative cells.
    let mut table = CompressedTable::new(Orientation::Backward, 1, 1, vec![2 * N as i64; 2]);
    for i in 0..N as i64 {
        let delta = Interval::new(-(i % 3), 1);
        table.push_row(&[Cell::abs(2 * i, 2 * i + 1), Cell::Rel { anchor: 0, delta }]);
    }
    let (decoded, bytes) = decoded_and_indexed(&serialize(&table));
    assert_eq!(decoded, table);
    // 24-byte cells in both columns and a 20-byte index held 679 740
    // bytes.
    assert!(
        bytes <= 68 * N,
        "{bytes} bytes resident for {N} rows ({} a row)",
        bytes / N
    );
}
