//! Tables of interval boxes.
//!
//! A [`BoxTable`] is a union of axis-aligned integer boxes (one box per
//! row, one [`Interval`] per attribute). Queries are encoded as box tables
//! (the paper's `Q'`, §V.B), and every θ-join hop produces one.
//!
//! [`BoxTable::merge`] is the paper's row-reduction step. It runs the *last*
//! attribute first, so a lexicographically sorted table — every
//! [`BoxTable::from_cells`] — is already in that pass's order and collapses
//! in one linear sweep; a pass sorts only when its order is not the one the
//! boxes lie in, and folds each box into the last box of its output buffer,
//! so no pass allocates per box.

use crate::interval::Interval;

/// A union of interval boxes over `arity` attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BoxTable {
    arity: usize,
    /// Flat row-major storage; row length is `arity`.
    data: Vec<Interval>,
}

impl BoxTable {
    /// Empty table.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0);
        Self {
            arity,
            data: Vec::new(),
        }
    }

    /// Build from explicit boxes (tests and examples).
    pub fn from_boxes(arity: usize, boxes: &[&[Interval]]) -> Self {
        let mut t = Self::new(arity);
        for b in boxes {
            t.push_box(b);
        }
        t
    }

    /// Encode a set of concrete cells into a compact union of boxes using
    /// the same multi-attribute range-encoding idea ProvRC uses (§V.B:
    /// "The query Q′ is encoded from Q in the same format as the compressed
    /// relational lineage tables with multi-attribute range encoding").
    ///
    /// The result is always merged: range-encoding Q′ is part of query
    /// encoding, not the inter-hop merge ablation, so callers do not merge
    /// it again.
    pub fn from_cells(arity: usize, cells: &[Vec<i64>]) -> Self {
        let mut t = Self::new(arity);
        let mut sorted: Vec<&Vec<i64>> = cells.iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        for cell in sorted {
            debug_assert_eq!(cell.len(), arity);
            t.data.extend(cell.iter().map(|&v| Interval::point(v)));
        }
        t.merge();
        t
    }

    /// Number of attributes per box.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of boxes.
    #[inline]
    pub fn n_boxes(&self) -> usize {
        self.data.len() / self.arity
    }

    /// Whether the table covers no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one box.
    #[inline]
    pub fn push_box(&mut self, b: &[Interval]) {
        debug_assert_eq!(b.len(), self.arity);
        self.data.extend_from_slice(b);
    }

    /// Append one box produced attribute by attribute, with no temporary
    /// row (the θ-join's emit path). An `Err` leaves the table as it was.
    #[inline]
    pub(crate) fn try_push_box<E>(
        &mut self,
        mut intervals: impl Iterator<Item = Result<Interval, E>>,
    ) -> Result<(), E> {
        let start = self.data.len();
        let pushed = intervals.try_for_each(|i| i.map(|i| self.data.push(i)));
        if pushed.is_err() {
            self.data.truncate(start);
        }
        debug_assert!(pushed.is_err() || self.data.len() - start == self.arity);
        pushed
    }

    /// Drop every box, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    /// Box `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Interval] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate boxes.
    pub fn boxes(&self) -> impl Iterator<Item = &[Interval]> {
        self.data.chunks_exact(self.arity)
    }

    /// Whether a concrete cell is covered by any box.
    pub fn contains_cell(&self, cell: &[i64]) -> bool {
        debug_assert_eq!(cell.len(), self.arity);
        self.boxes()
            .any(|b| b.iter().zip(cell).all(|(ivl, &v)| ivl.contains(v)))
    }

    /// Total number of covered cells, counting overlap regions once.
    ///
    /// Exact but potentially expensive; intended for tests and reporting.
    pub fn cell_set(&self) -> std::collections::BTreeSet<Vec<i64>> {
        let mut out = std::collections::BTreeSet::new();
        for b in self.boxes() {
            let mut cursor: Vec<i64> = b.iter().map(|ivl| ivl.lo).collect();
            'outer: loop {
                out.insert(cursor.clone());
                for k in (0..self.arity).rev() {
                    if cursor[k] < b[k].hi {
                        cursor[k] += 1;
                        for (j, c) in cursor.iter_mut().enumerate().skip(k + 1) {
                            *c = b[j].lo;
                        }
                        continue 'outer;
                    }
                }
                break;
            }
        }
        out
    }

    /// Upper bound on covered cells (sum of box volumes; overlaps counted
    /// multiple times). Cheap; the composite-edge support cap reads it.
    pub fn volume(&self) -> u128 {
        self.boxes()
            .map(|b| b.iter().map(|ivl| u128::from(ivl.len())).product::<u128>())
            .sum()
    }

    /// The paper's row-reduction "merge" step (§V.B.3): repeatedly unite
    /// boxes that are identical on all attributes but one, where that one
    /// attribute's intervals overlap or abut. Also drops duplicate boxes
    /// and boxes fully contained in another identical-on-other-attrs box.
    /// Ends at a fixpoint: no two boxes left are mergeable on any attribute.
    pub fn merge(&mut self) {
        loop {
            let before = self.n_boxes();
            if before <= 1 {
                return;
            }
            // Last attribute first: a lexicographically sorted table is in
            // that pass's order already.
            for target in (0..self.arity).rev() {
                self.merge_pass(target);
            }
            if self.n_boxes() == before {
                break;
            }
        }
    }

    /// One merge pass over attribute `target`: visit the boxes in (other
    /// attrs, target) order — as they lie, when that is their order — and
    /// fold each into the last box written while they agree on the other
    /// attributes and `target` is mergeable.
    fn merge_pass(&mut self, target: usize) {
        let arity = self.arity;
        let n = self.n_boxes() as u32;
        if n <= 1 {
            return;
        }
        let data = &self.data;
        let row = |i: u32| &data[i as usize * arity..][..arity];
        let key_cmp = |&x: &u32, &y: &u32| {
            let (bx, by) = (row(x), row(y));
            for k in (0..arity).filter(|&k| k != target) {
                match bx[k].cmp(&by[k]) {
                    std::cmp::Ordering::Equal => {}
                    other => return other,
                }
            }
            bx[target].cmp(&by[target])
        };
        let sorted = (1..n).all(|i| key_cmp(&(i - 1), &i).is_le());
        let mut order: Vec<u32> = Vec::new();
        if !sorted {
            order.extend(0..n);
            order.sort_unstable_by(key_cmp);
        }
        let mut out: Vec<Interval> = Vec::with_capacity(data.len());
        for i in 0..n {
            let b = row(if sorted { i } else { order[i as usize] });
            let last = out.len().saturating_sub(arity);
            let last = &mut out[last..];
            if !last.is_empty()
                && (0..arity).all(|k| k == target || last[k] == b[k])
                && last[target].mergeable(&b[target])
            {
                last[target] = last[target].merge(&b[target]);
            } else {
                out.extend_from_slice(b);
            }
        }
        self.data = out;
    }

    /// Convert each box's covered cells into explicit rows (tests only).
    pub fn enumerate_cells(&self) -> Vec<Vec<i64>> {
        self.cell_set().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ivl(lo: i64, hi: i64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn from_cells_merges_runs() {
        // range({1,2,3,4,9,12,13,14,15}) = {[1,4],[9],[12,15]} — paper §IV.A.
        let cells: Vec<Vec<i64>> = [1, 2, 3, 4, 9, 12, 13, 14, 15]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let t = BoxTable::from_cells(1, &cells);
        assert_eq!(t.n_boxes(), 3);
        let boxes: Vec<&[Interval]> = t.boxes().collect();
        assert_eq!(boxes[0], &[ivl(1, 4)]);
        assert_eq!(boxes[1], &[ivl(9, 9)]);
        assert_eq!(boxes[2], &[ivl(12, 15)]);
    }

    #[test]
    fn from_cells_2d_rectangle() {
        let mut cells = Vec::new();
        for i in 0..4 {
            for j in 10..13 {
                cells.push(vec![i, j]);
            }
        }
        let t = BoxTable::from_cells(2, &cells);
        assert_eq!(t.n_boxes(), 1);
        assert_eq!(t.row(0), &[ivl(0, 3), ivl(10, 12)]);
    }

    #[test]
    fn merge_needs_multiple_passes() {
        // Four quadrant boxes forming one square merge only after two passes.
        let t0 = BoxTable::from_boxes(
            2,
            &[
                &[ivl(0, 1), ivl(0, 1)],
                &[ivl(0, 1), ivl(2, 3)],
                &[ivl(2, 3), ivl(0, 1)],
                &[ivl(2, 3), ivl(2, 3)],
            ],
        );
        let mut t = t0.clone();
        t.merge();
        assert_eq!(t.n_boxes(), 1);
        assert_eq!(t.row(0), &[ivl(0, 3), ivl(0, 3)]);
        assert_eq!(t.cell_set(), t0.cell_set());
    }

    #[test]
    fn merge_unites_overlaps() {
        let mut t = BoxTable::from_boxes(1, &[&[ivl(0, 5)], &[ivl(3, 9)], &[ivl(9, 9)]]);
        t.merge();
        assert_eq!(t.n_boxes(), 1);
        assert_eq!(t.row(0), &[ivl(0, 9)]);
    }

    #[test]
    fn contains_and_volume() {
        let t = BoxTable::from_boxes(2, &[&[ivl(0, 1), ivl(0, 1)], &[ivl(5, 5), ivl(5, 6)]]);
        assert!(t.contains_cell(&[1, 0]));
        assert!(t.contains_cell(&[5, 6]));
        assert!(!t.contains_cell(&[2, 2]));
        assert_eq!(t.volume(), 4 + 2);
        assert_eq!(t.cell_set().len(), 6);
    }

    #[test]
    fn from_cells_dedups() {
        let cells = vec![vec![3i64], vec![3], vec![3]];
        let t = BoxTable::from_cells(1, &cells);
        assert_eq!(t.n_boxes(), 1);
        assert_eq!(t.volume(), 1);
    }
}
