//! Tables of interval boxes.
//!
//! A [`BoxTable`] is a union of axis-aligned integer boxes (one box per
//! row, one [`Interval`] per attribute). Queries are encoded as box tables
//! (the paper's `Q'`, §V.B), and every θ-join hop produces one.
//!
//! [`BoxTable::merge`] is the paper's row-reduction step (§V.B.3). A round
//! runs one pass per attribute, the *last* attribute first, so a table of
//! cells in any order — every [`BoxTable::from_cells`] — comes out of the
//! first pass sorted lexicographically, duplicates folded.
//!
//! * **Fold first, sort on demand.** A pass folds each box, in place, into
//!   the last box it kept. Only at the first box out of the pass's order
//!   does it sort what is left, and fold that.
//! * **One sort.** A pass sorts through `crate::sort::KeySort`, the kernel
//!   ProvRC sorts with. A box's key words are its intervals in the pass's
//!   order — other attributes first, then the target — each as `lo` and
//!   then `hi − lo`. The kernel range-reduces each word to the bits it
//!   spans over the table, so a constant word, or the length of a point,
//!   takes none. The boxes then move into place by a walk of the
//!   permutation's cycles, so a merge allocates its key buffer once,
//!   whatever the number of passes, and nothing when the boxes lie in order.
//! * **Stop rule.** Rounds end after the first round in which no pass but
//!   the first merged. The first pass leaves no pair mergeable on its
//!   attribute, and the rest found none on theirs, so another round would
//!   merge nothing. Its last pass would re-sort the same boxes into the
//!   order the round's last pass left them in.
//!
//! `dslog-oracle`'s `boxes::merge_reference` keeps the comparator-sort
//! merge with its confirming round; the property suite holds this one to
//! its output, box for box and in order.

use crate::interval::Interval;
use crate::sort::{KeySort, Words};

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
        t.data.reserve_exact(cells.len() * arity);
        for cell in cells {
            debug_assert_eq!(cell.len(), arity);
            t.data.extend(cell.iter().map(|&v| Interval::point(v)));
        }
        // The first pass sorts the points lexicographically and folds
        // duplicates.
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
    /// Ends at a fixpoint: no two boxes left are mergeable on any attribute,
    /// in the order of the pass over attribute 0.
    pub fn merge(&mut self) {
        // The sort: built by the first pass that sorts, reused by the rest.
        let mut keys = None;
        let first = self.arity - 1;
        loop {
            let mut later_merged = false;
            for target in (0..self.arity).rev() {
                later_merged |= self.merge_pass(target, &mut keys) && target != first;
            }
            // The first pass leaves no pair mergeable on its attribute and
            // the others found none on theirs: a fixpoint, in the order
            // another round would leave it in.
            if !later_merged {
                return;
            }
        }
    }

    /// One merge pass over attribute `target`: fold the boxes as they lie;
    /// at the first box out of (other attrs, target) order, sort what is
    /// left into that order and fold it again. Returns whether any box went.
    fn merge_pass(&mut self, target: usize, keys: &mut Option<KeySort>) -> bool {
        let n = self.n_boxes();
        if n <= 1 {
            return false;
        }
        let kept = self.fold(target).unwrap_or_else(|| {
            self.sort_for_pass(target, keys.get_or_insert_with(KeySort::default));
            self.fold(target).expect("sorted boxes fold")
        });
        kept < n
    }

    /// Reorder the boxes into `target`'s pass order: one sort of their key
    /// words, then a walk of the permutation's cycles that swaps the boxes
    /// into place.
    fn sort_for_pass(&mut self, target: usize, keys: &mut KeySort) {
        let words = PassKey {
            table: self,
            target,
        };
        keys.sort(self.n_boxes(), self.arity, &words);
        keys.permute(&mut self.data, self.arity);
    }

    /// Fold, in place, each box into the last box kept while they agree on
    /// all attributes but `target` and are mergeable there. Returns the
    /// number of boxes kept, or `None` at the first box that comes before
    /// the last box kept in pass order, leaving the boxes folded so far
    /// followed by the ones not yet seen.
    ///
    /// A box need only not precede the last box kept on (other attrs,
    /// `target.lo`): each box kept is then a whole component of its group's
    /// union, and the boxes come out in the order a full sort would give.
    fn fold(&mut self, target: usize) -> Option<usize> {
        use std::cmp::Ordering::{Equal, Greater};
        let arity = self.arity;
        let d = &mut self.data;
        let n = d.len() / arity;
        let mut kept = 1;
        for i in 1..n {
            let (last, b) = ((kept - 1) * arity, i * arity);
            let others = (0..arity)
                .find(|&k| k != target && d[last + k] != d[b + k])
                .map_or(Equal, |k| d[last + k].cmp(&d[b + k]));
            let (acc, next) = (d[last + target], d[b + target]);
            match others.then(acc.lo.cmp(&next.lo)) {
                Greater => {
                    if kept != i {
                        d.copy_within(b.., kept * arity);
                        d.truncate((kept + n - i) * arity);
                    }
                    return None;
                }
                _ if others == Equal && acc.mergeable(&next) => {
                    d[last + target] = acc.merge(&next);
                }
                _ => {
                    if kept != i {
                        d.copy_within(b..b + arity, kept * arity);
                    }
                    kept += 1;
                }
            }
        }
        d.truncate(kept * arity);
        Some(kept)
    }

    /// Convert each box's covered cells into explicit rows (tests only).
    pub fn enumerate_cells(&self) -> Vec<Vec<i64>> {
        self.cell_set().into_iter().collect()
    }
}

/// A merge pass's key words: the attributes other than `target` in index
/// order, then `target`, each as its interval's `lo` and length.
struct PassKey<'a> {
    table: &'a BoxTable,
    target: usize,
}

impl Words for PassKey<'_> {
    fn width(&self, _: usize) -> usize {
        2
    }

    fn each(&self, col: usize, mut f: impl FnMut([u64; 4])) {
        let (arity, target) = (self.table.arity, self.target);
        let attr = if col + 1 == arity {
            target
        } else {
            col + usize::from(col >= target)
        };
        for row in self.table.data.chunks_exact(arity) {
            let [lo, len] = row[attr].key_words();
            f([lo, len, 0, 0]);
        }
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
