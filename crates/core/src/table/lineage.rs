//! The uncompressed lineage relation `R(b1, …, bl, a1, …, am)`.
//!
//! Each row pairs one output cell with one input cell that contributed to it
//! (paper §III.B, Fig. 1). Rows are stored flat and row-major; the relation
//! has set semantics, enforced by [`LineageTable::normalize`].

/// An uncompressed lineage relation between an output array with `out_arity`
/// axes and an input array with `in_arity` axes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineageTable {
    out_arity: usize,
    in_arity: usize,
    /// Row-major values; row length is `out_arity + in_arity`
    /// (output attributes first).
    data: Vec<i64>,
}

impl LineageTable {
    /// Empty relation with the given arities.
    pub fn new(out_arity: usize, in_arity: usize) -> Self {
        assert!(out_arity > 0 && in_arity > 0, "arities must be positive");
        Self {
            out_arity,
            in_arity,
            data: Vec::new(),
        }
    }

    /// Empty relation with room for `rows` rows.
    pub fn with_capacity(out_arity: usize, in_arity: usize, rows: usize) -> Self {
        let mut t = Self::new(out_arity, in_arity);
        t.data.reserve(rows * t.arity());
        t
    }

    /// Build from explicit rows (used heavily in tests).
    pub fn from_rows(out_arity: usize, in_arity: usize, rows: &[&[i64]]) -> Self {
        let mut t = Self::new(out_arity, in_arity);
        for row in rows {
            t.push_row(row);
        }
        t
    }

    /// Number of output-array axes (`l`).
    #[inline]
    pub fn out_arity(&self) -> usize {
        self.out_arity
    }

    /// Number of input-array axes (`m`).
    #[inline]
    pub fn in_arity(&self) -> usize {
        self.in_arity
    }

    /// Total attribute count (`l + m`).
    #[inline]
    pub fn arity(&self) -> usize {
        self.out_arity + self.in_arity
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        if self.arity() == 0 {
            0
        } else {
            self.data.len() / self.arity()
        }
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a row `(b1..bl, a1..am)`.
    #[inline]
    pub fn push_row(&mut self, row: &[i64]) {
        debug_assert_eq!(row.len(), self.arity());
        self.data.extend_from_slice(row);
    }

    /// Append a row given as separate output and input coordinates.
    #[inline]
    pub fn push_pair(&mut self, out_cell: &[i64], in_cell: &[i64]) {
        debug_assert_eq!(out_cell.len(), self.out_arity);
        debug_assert_eq!(in_cell.len(), self.in_arity);
        self.data.extend_from_slice(out_cell);
        self.data.extend_from_slice(in_cell);
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[i64] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterate rows.
    pub fn rows(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks_exact(self.arity())
    }

    /// The raw row-major buffer.
    pub fn raw(&self) -> &[i64] {
        &self.data
    }

    /// Column `k` (0-based over all `l + m` attributes), materialized.
    pub fn column(&self, k: usize) -> Vec<i64> {
        assert!(k < self.arity());
        self.rows().map(|r| r[k]).collect()
    }

    /// Indices of the lexicographically sorted, de-duplicated rows: the
    /// normalization permutation without materializing a normalized copy.
    /// The compression pipeline builds its columnar working set straight
    /// through this, folding set-semantics enforcement into the column
    /// build instead of cloning the relation first.
    pub(crate) fn sorted_unique_row_perm(&self) -> Vec<u32> {
        let a = self.arity();
        if a == 0 {
            return Vec::new();
        }
        let n = self.n_rows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let data = &self.data;
        let row_at = |i: u32| &data[i as usize * a..i as usize * a + a];
        order.sort_unstable_by(|&x, &y| row_at(x).cmp(row_at(y)));
        order.dedup_by(|cur, prev| row_at(*cur) == row_at(*prev));
        order
    }

    /// Sort rows lexicographically and remove duplicates (set semantics,
    /// required for ProvRC's losslessness argument in §IV.B).
    pub fn normalize(&mut self) {
        let a = self.arity();
        if a == 0 || self.data.len() <= a {
            return;
        }
        // Sort indices, then rebuild; avoids a Vec<Vec<i64>> blowup.
        let order = self.sorted_unique_row_perm();
        let mut out = Vec::with_capacity(order.len() * a);
        for &idx in &order {
            out.extend_from_slice(&self.data[idx as usize * a..idx as usize * a + a]);
        }
        self.data = out;
    }

    /// A normalized copy.
    pub fn normalized(&self) -> Self {
        let mut t = self.clone();
        t.normalize();
        t
    }

    /// The set of rows, for order-insensitive comparisons in tests.
    pub fn row_set(&self) -> std::collections::BTreeSet<Vec<i64>> {
        self.rows().map(|r| r.to_vec()).collect()
    }

    /// Size in bytes of the in-memory representation (8 bytes per value) —
    /// the "uncompressed" yardstick for compression ratios.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 1(B): lineage of `B = numpy.sum(A, axis=1)` over a 3x2
    /// array, written 1-based exactly as printed.
    pub(crate) fn paper_sum_table() -> LineageTable {
        LineageTable::from_rows(
            1,
            2,
            &[
                &[1, 1, 1],
                &[1, 1, 2],
                &[2, 2, 1],
                &[2, 2, 2],
                &[3, 3, 1],
                &[3, 3, 2],
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = paper_sum_table();
        assert_eq!(t.out_arity(), 1);
        assert_eq!(t.in_arity(), 2);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.n_rows(), 6);
        assert_eq!(t.row(2), &[2, 2, 1]);
        assert_eq!(t.column(0), vec![1, 1, 2, 2, 3, 3]);
        assert_eq!(t.nbytes(), 6 * 3 * 8);
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut t = LineageTable::from_rows(1, 1, &[&[2, 5], &[1, 3], &[2, 5], &[1, 2]]);
        t.normalize();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.row(0), &[1, 2]);
        assert_eq!(t.row(1), &[1, 3]);
        assert_eq!(t.row(2), &[2, 5]);
    }

    #[test]
    fn sorted_unique_row_perm_matches_normalize() {
        let t = LineageTable::from_rows(1, 1, &[&[2, 5], &[1, 3], &[2, 5], &[1, 2], &[0, 9]]);
        let perm = t.sorted_unique_row_perm();
        let via_perm: Vec<Vec<i64>> = perm.iter().map(|&i| t.row(i as usize).to_vec()).collect();
        let normalized = t.normalized();
        let direct: Vec<Vec<i64>> = normalized.rows().map(|r| r.to_vec()).collect();
        assert_eq!(via_perm, direct);
        // Keeps the first occurrence of each duplicate.
        assert_eq!(perm.len(), 4);
    }

    #[test]
    fn push_pair_matches_push_row() {
        let mut a = LineageTable::new(2, 1);
        a.push_pair(&[4, 5], &[6]);
        let mut b = LineageTable::new(2, 1);
        b.push_row(&[4, 5, 6]);
        assert_eq!(a, b);
    }
}
