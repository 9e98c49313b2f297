//! Sorted interval indexes over the columns a hop probes: a compressed
//! table's primary columns, or — for a hop that runs against the stored
//! orientation — its secondary columns.
//!
//! The in-situ θ-join probes each query box against each row's interval on
//! the query side. A full scan is O(|T|) per box; the index turns the
//! probe into two binary searches plus a bounded candidate scan:
//!
//! * per attribute, row ids are sorted by the interval's `(lo, hi)`, ties
//!   by row id. The sort is core's one kernel (`crate::sort`) over each
//!   interval's `lo` and length: a column already in order costs one
//!   check, and a big one radix-sorts;
//! * alongside the sorted `lo` array, a **max-hi fence** gives the running
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
//! Where a point sits the fence is its own `lo` or an earlier interval's
//! `hi`, so a column of points needs no fence beyond `los`, and one with a
//! few intervals only their steps: the positions where an interval raises
//! the running maximum of `hi` over the intervals before it. An index over
//! a column where at most half the intervals are wider than a point keeps
//! the steps, 16 bytes each and no more of them than such intervals: 12
//! bytes per row (row id and `lo`) plus the steps, where a fence of its own
//! would make it 20.
//!
//! A secondary attribute's interval is its absolute extent over the row:
//! `[c, d]` for `Abs [c, d]`, and `[a_j + δ.lo, b_j + δ.hi]` for a cell
//! `Rel(j, δ)` whose anchor spans `[a_j, b_j]`. Each index is built once
//! per table ([`CompressedTable::index`] for the primary side) and cached;
//! generalized tables (symbolic cells) are not indexable and yield `None`.

use crate::interval::Interval;
use crate::sort::{KeySort, Words};
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
    fence: Fence,
}

/// The max-hi fence of a [`ColumnIndex`], whole or as the steps that
/// raise it above `los`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fence {
    /// Running maximum of `hi` over the sorted prefix (non-decreasing).
    Dense(Vec<i64>),
    /// Each sorted position (ascending) whose interval, wider than a
    /// point, ends above every wider-than-point interval before it, with
    /// that `hi`. At position `p` the fence is the larger of `los[p]` and
    /// the last step at or before `p`. Empty over points.
    Steps(Vec<(u32, i64)>),
}

impl Fence {
    /// The fence over `ivls` sorted as `order`: the steps when at most
    /// half the intervals are wider than a point (there are no more steps
    /// than those), else whole.
    fn new(ivls: &[Interval], order: &[u32]) -> Fence {
        let wide = ivls.iter().filter(|ivl| !ivl.is_point()).count();
        if 2 * wide > ivls.len() {
            let mut running = i64::MIN;
            return Fence::Dense(
                (order.iter())
                    .map(|&row| {
                        running = running.max(ivls[row as usize].hi);
                        running
                    })
                    .collect(),
            );
        }
        let mut steps = Vec::with_capacity(wide);
        if wide > 0 {
            for (pos, &row) in order.iter().enumerate() {
                let ivl = ivls[row as usize];
                if !ivl.is_point() && steps.last().is_none_or(|&(_, hi)| ivl.hi > hi) {
                    steps.push((pos as u32, ivl.hi));
                }
            }
        }
        steps.shrink_to_fit();
        Fence::Steps(steps)
    }
}

impl ColumnIndex {
    /// Build from one attribute's per-row extents.
    fn build(ivls: &[Interval]) -> ColumnIndex {
        let mut keys = KeySort::default();
        keys.sort(ivls.len(), 1, &Extents(ivls));
        let order: Vec<u32> = keys.rows().collect();
        let los = order.iter().map(|&row| ivls[row as usize].lo).collect();
        let fence = Fence::new(ivls, &order);
        ColumnIndex { order, los, fence }
    }

    /// Half-open window `[start, end)` of sorted positions that can
    /// intersect `q`. Positions outside the window provably cannot match;
    /// positions inside still need the per-row intersection check.
    pub fn candidate_window(&self, q: &Interval) -> (usize, usize) {
        let end = self.los.partition_point(|&lo| lo <= q.hi);
        let start = match &self.fence {
            Fence::Dense(fence) => fence[..end].partition_point(|&hi| hi < q.lo),
            // The first position the fence reaches `q.lo` at is the first
            // whose `lo` does, or an earlier step's that reaches it.
            Fence::Steps(steps) => {
                let start = self.los[..end].partition_point(|&lo| lo < q.lo);
                let step = steps.partition_point(|&(_, hi)| hi < q.lo);
                steps
                    .get(step)
                    .map_or(start, |&(pos, _)| start.min(pos as usize))
            }
        };
        (start, end)
    }

    /// Row ids inside a window previously returned by
    /// [`candidate_window`](Self::candidate_window).
    pub fn rows_in(&self, window: (usize, usize)) -> &[u32] {
        &self.order[window.0..window.1]
    }
}

/// One column's extents as key words: `lo`, then the length, so rows sort
/// by `(lo, hi)`, ties by row id.
struct Extents<'a>(&'a [Interval]);

impl Words for Extents<'_> {
    fn width(&self, _: usize) -> usize {
        2
    }

    fn each(&self, _: usize, mut f: impl FnMut([u64; 4])) {
        for ivl in self.0 {
            let [lo, len] = ivl.key_words();
            f([lo, len, 0, 0]);
        }
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
            .map(|k| Some(ColumnIndex::build(&table.row_extents(k)?)))
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
    fn point_columns_keep_no_fence() {
        let t = table_with_primaries(&[ivl(7, 7), ivl(3, 3), ivl(5, 5), ivl(3, 3)]);
        let idx = TableIndex::build(&t).unwrap();
        assert_eq!(idx.columns[0].fence, Fence::Steps(Vec::new()));
        assert_eq!(idx.probe(&[ivl(3, 5)]), &[1, 3, 2]);
        assert_eq!(idx.probe(&[ivl(4, 4)]), &[] as &[u32]);
        assert_eq!(idx.probe(&[ivl(6, 9)]), &[0]);
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

    /// The index as built before the sort kernel: a comparison sort of
    /// `(lo, hi, row)` tuples.
    fn tuple_sort_build(extents: &[Interval]) -> ColumnIndex {
        let mut keyed: Vec<(i64, i64, u32)> = extents
            .iter()
            .enumerate()
            .map(|(row, ivl)| (ivl.lo, ivl.hi, row as u32))
            .collect();
        keyed.sort_unstable();
        let order: Vec<u32> = keyed.iter().map(|k| k.2).collect();
        ColumnIndex {
            fence: Fence::new(extents, &order),
            order,
            los: keyed.iter().map(|k| k.0).collect(),
        }
    }

    #[test]
    fn fence_steps_give_the_dense_fences_windows() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 17) % modulus
        };
        // Points with no, a few and many intervals among them: steps, then
        // a dense fence once the intervals pass half the rows.
        for wide_in in [0u64, 1000, 20, 3, 1] {
            for n in [0usize, 1, 5, 300] {
                let extents: Vec<Interval> = (0..n)
                    .map(|_| {
                        let lo = next(500) as i64;
                        match wide_in > 0 && next(wide_in) == 0 {
                            true => ivl(lo, lo + next(200) as i64),
                            false => ivl(lo, lo),
                        }
                    })
                    .collect();
                let built = ColumnIndex::build(&extents);
                let mut running = i64::MIN;
                let dense = ColumnIndex {
                    fence: Fence::Dense(
                        (built.order.iter())
                            .map(|&row| {
                                running = running.max(extents[row as usize].hi);
                                running
                            })
                            .collect(),
                    ),
                    ..built.clone()
                };
                let wide = extents.iter().filter(|e| !e.is_point()).count();
                match &built.fence {
                    Fence::Steps(steps) => assert!(steps.len() <= wide && 2 * wide <= n),
                    Fence::Dense(_) => assert!(2 * wide > n),
                }
                for lo in -1..720 {
                    let q = ivl(lo, lo + next(30) as i64);
                    assert_eq!(built.candidate_window(&q), dense.candidate_window(&q));
                }
            }
        }
    }

    #[test]
    fn kernel_build_equals_the_tuple_sort() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 17) % modulus
        };
        // Equal `lo`s from a small range, negative coordinates, and extents
        // across the whole `i64` range, whose two 64-bit words and row id
        // outgrow a `u128` and take the comparator path; each at a size
        // below and above the radix threshold.
        type Shape = fn(i64, i64) -> Interval;
        let shapes: [(&str, Shape); 3] = [
            ("equal los", |a, b| ivl(a % 16, a % 16 + b % 5)),
            ("negative", |a, b| ivl(-a, -a + b % 1000)),
            ("full range", |a, b| match b % 4 {
                0 => ivl(i64::MIN, i64::MAX),
                1 => ivl(i64::MIN + a, i64::MIN + a + b),
                2 => ivl(i64::MAX - a - b, i64::MAX - b),
                _ => ivl(-a, a),
            }),
        ];
        for (name, shape) in shapes {
            for n in [0usize, 1, 2, 700, 20_000] {
                let extents: Vec<Interval> = (0..n)
                    .map(|_| shape(next(1 << 40) as i64, next(1 << 20) as i64))
                    .collect();
                let built = ColumnIndex::build(&extents);
                assert_eq!(built, tuple_sort_build(&extents), "{name}, n = {n}");
            }
        }
    }

    #[test]
    fn empty_table_indexes_to_empty_windows() {
        let t = table_with_primaries(&[]);
        let idx = TableIndex::build(&t).unwrap();
        assert!(idx.probe(&[ivl(0, 10)]).is_empty());
    }
}
