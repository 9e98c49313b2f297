//! Sorted interval indexes over the columns a hop probes: a compressed
//! table's primary columns, or — for a hop that runs against the stored
//! orientation — its secondary columns.
//!
//! The in-situ θ-join probes each query box against each row's interval on
//! the query side. A full scan is O(|T|) per box; the index turns the
//! probe into two binary searches plus a bounded candidate scan:
//!
//! * per attribute, row ids are sorted by the interval's `lo`;
//! * alongside the sorted `lo` array, a **max-hi fence** stores the running
//!   maximum of `hi` over the sorted prefix.
//!
//! For a query interval `[qlo, qhi]`, every candidate row satisfies
//! `lo <= qhi` (a prefix of the sorted order, found by binary search) and
//! lies at or after the first position whose fence reaches `qlo` (rows
//! before it all end below the query — also binary searchable because the
//! fence is non-decreasing). Rows inside the window still need the exact
//! per-row intersection check, but the window is tight for the common
//! sorted/strided lineage layouts ProvRC produces.
//!
//! A secondary attribute's interval is its absolute extent over the row:
//! `[c, d]` for `Abs [c, d]`, and `[a_j + δ.lo, b_j + δ.hi]` for a cell
//! `Rel(j, δ)` whose anchor spans `[a_j, b_j]`. Each index is built once
//! per table ([`CompressedTable::index`] for the primary side) and cached;
//! generalized tables (symbolic cells) are not indexable and yield `None`.

use crate::interval::Interval;
use crate::table::compressed::CompressedTable;
use std::ops::Range;

/// Index over one attribute: row ids sorted by interval `lo`,
/// plus the max-hi fence over the sorted prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnIndex {
    /// Row ids in ascending order of the column's `lo`.
    order: Vec<u32>,
    /// `lo` of each interval, in sorted (`order`) position.
    los: Vec<i64>,
    /// Running maximum of `hi` over the sorted prefix (non-decreasing).
    max_hi_fence: Vec<i64>,
}

impl ColumnIndex {
    /// Build from one attribute's per-row extents. Returns `None` when any
    /// row has none (generalized tables cannot be indexed).
    fn build(extents: impl ExactSizeIterator<Item = Option<Interval>>) -> Option<ColumnIndex> {
        let mut keyed: Vec<(i64, i64, u32)> = Vec::with_capacity(extents.len());
        for (row, ivl) in extents.enumerate() {
            let ivl = ivl?;
            keyed.push((ivl.lo, ivl.hi, row as u32));
        }
        keyed.sort_unstable();
        let mut order = Vec::with_capacity(keyed.len());
        let mut los = Vec::with_capacity(keyed.len());
        let mut max_hi_fence = Vec::with_capacity(keyed.len());
        let mut running = i64::MIN;
        for (lo, hi, row) in keyed {
            running = running.max(hi);
            order.push(row);
            los.push(lo);
            max_hi_fence.push(running);
        }
        Some(ColumnIndex {
            order,
            los,
            max_hi_fence,
        })
    }

    /// Half-open window `[start, end)` of sorted positions that can
    /// intersect `q`. Positions outside the window provably cannot match;
    /// positions inside still need the per-row intersection check.
    pub fn candidate_window(&self, q: &Interval) -> (usize, usize) {
        let end = self.los.partition_point(|&lo| lo <= q.hi);
        let start = self.max_hi_fence[..end].partition_point(|&fence| fence < q.lo);
        (start, end)
    }

    /// Row ids inside a window previously returned by
    /// [`candidate_window`](Self::candidate_window).
    pub fn rows_in(&self, window: (usize, usize)) -> &[u32] {
        &self.order[window.0..window.1]
    }
}

/// Per-attribute sorted interval indexes over one side of a compressed
/// table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableIndex {
    columns: Vec<ColumnIndex>,
}

impl TableIndex {
    /// Build indexes over every primary column. `None` when the table is
    /// generalized (symbolic cells can't be ordered).
    pub fn build(table: &CompressedTable) -> Option<TableIndex> {
        Self::over(table, 0..table.primary_arity())
    }

    /// Build indexes over every secondary column's absolute extents — what
    /// a hop against the stored orientation probes. `None` when the table
    /// is generalized.
    pub(crate) fn build_secondary(table: &CompressedTable) -> Option<TableIndex> {
        Self::over(table, table.primary_arity()..table.arity())
    }

    fn over(table: &CompressedTable, attrs: Range<usize>) -> Option<TableIndex> {
        let columns = attrs
            .map(|k| ColumnIndex::build((0..table.n_rows()).map(|row| table.extent(row, k))))
            .collect::<Option<Vec<_>>>()?;
        Some(TableIndex { columns })
    }

    /// Candidate rows for a query box: picks the primary attribute with the
    /// tightest candidate window and returns `(window_size, row_ids)`.
    /// Returns an empty slice when any attribute's window is empty (the box
    /// provably matches nothing).
    pub fn probe(&self, qbox: &[Interval]) -> &[u32] {
        debug_assert_eq!(qbox.len(), self.columns.len());
        let mut best: Option<(usize, usize, (usize, usize))> = None;
        for (k, col) in self.columns.iter().enumerate() {
            let window = col.candidate_window(&qbox[k]);
            let size = window.1.saturating_sub(window.0);
            if size == 0 {
                return &[];
            }
            if best.is_none_or(|(_, bs, _)| size < bs) {
                best = Some((k, size, window));
            }
        }
        match best {
            Some((k, _, window)) => self.columns[k].rows_in(window),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Cell, Orientation};

    fn ivl(lo: i64, hi: i64) -> Interval {
        Interval::new(lo, hi)
    }

    fn table_with_primaries(primaries: &[Interval]) -> CompressedTable {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![100, 100]);
        for p in primaries {
            t.push_row(&[Cell::Abs(*p), Cell::point(0)]);
        }
        t
    }

    #[test]
    fn window_bounds_are_exact_for_disjoint_runs() {
        let t = table_with_primaries(&[ivl(0, 1), ivl(2, 3), ivl(4, 5), ivl(8, 9)]);
        let idx = TableIndex::build(&t).unwrap();
        let hits = idx.probe(&[ivl(2, 4)]);
        // Candidates must cover rows 1 and 2; row 0 ends below 2, row 3
        // starts above 4.
        assert!(hits.contains(&1) && hits.contains(&2));
        assert!(!hits.contains(&3));
        assert!(idx.probe(&[ivl(6, 7)]).is_empty());
        assert!(idx.probe(&[ivl(50, 60)]).is_empty());
    }

    #[test]
    fn fence_keeps_long_early_interval_visible() {
        // Row 0 starts early but spans far; a late query must still see it.
        let t = table_with_primaries(&[ivl(0, 90), ivl(1, 2), ivl(3, 4), ivl(80, 85)]);
        let idx = TableIndex::build(&t).unwrap();
        let hits = idx.probe(&[ivl(88, 89)]);
        assert!(hits.contains(&0));
        assert!(!hits.is_empty());
    }

    #[test]
    fn multi_attribute_probe_picks_tightest_window() {
        let mut t = CompressedTable::new(Orientation::Backward, 2, 1, vec![100, 100, 100]);
        for i in 0..50 {
            // Attribute 0 is the same wide interval everywhere (useless
            // window); attribute 1 is a distinct point (tight window).
            t.push_row(&[Cell::abs(0, 99), Cell::point(i), Cell::point(0)]);
        }
        let idx = TableIndex::build(&t).unwrap();
        let hits = idx.probe(&[ivl(10, 20), ivl(7, 7)]);
        assert_eq!(hits, &[7]);
    }

    #[test]
    fn generalized_table_has_no_index() {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![4, 4]);
        t.push_row(&[Cell::Sym { attr: 0 }, Cell::point(0)]);
        assert!(TableIndex::build(&t).is_none());
    }

    #[test]
    fn secondary_index_covers_each_cells_absolute_extent() {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 2, vec![100, 100, 100]);
        // Row 0: a relative cell over anchor [10, 12] with δ [-1, 2] spans
        // [9, 14]; row 1: absolute [40, 50].
        let rel = Cell::Rel {
            anchor: 0,
            delta: ivl(-1, 2),
        };
        t.push_row(&[Cell::abs(10, 12), rel, Cell::point(0)]);
        t.push_row(&[Cell::point(3), Cell::abs(40, 50), Cell::point(0)]);
        let idx = TableIndex::build_secondary(&t).unwrap();
        assert_eq!(idx.probe(&[ivl(14, 14), ivl(0, 0)]), &[0]);
        assert_eq!(idx.probe(&[ivl(9, 45), ivl(0, 0)]).len(), 2);
        assert!(idx.probe(&[ivl(15, 39), ivl(0, 0)]).is_empty());
    }

    #[test]
    fn empty_table_indexes_to_empty_windows() {
        let t = table_with_primaries(&[]);
        let idx = TableIndex::build(&t).unwrap();
        assert!(idx.probe(&[ivl(0, 10)]).is_empty());
    }
}
