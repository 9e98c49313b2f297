//! Canonical single-edge lineage generators: the three compressibility
//! regimes ProvRC exhibits (paper §IV, §VII.B), parameterized by target
//! lineage-row count so scaling benchmarks sweep them uniformly.
//!
//! Each generator returns `(lineage, out_shape, in_shape)` ready to feed
//! `dslog::provrc::compress` or `Dslog::add_lineage`:
//!
//! * [`one_to_one`] — elementwise map; compresses to a single relative row.
//! * [`convolution`] — 3-wide sliding window; a single row with an interval
//!   delta.
//! * [`scatter`] — pseudo-random permutation read; the incompressible worst
//!   case ("Sort is the worst case for ProvRC"), ~n rows survive.
//!
//! [`identity_2d`], outside [`all`], is the elementwise map on a 2-D array.

use dslog::table::LineageTable;

/// Elementwise one-to-one lineage `B[i] ← A[i]` with `n` rows.
/// ProvRC compresses this to one row (`b1 = [0, n-1]`, `a1 = b1 + 0`).
pub fn one_to_one(n: usize) -> (LineageTable, Vec<usize>, Vec<usize>) {
    let mut t = LineageTable::with_capacity(1, 1, n);
    for i in 0..n as i64 {
        t.push_row(&[i, i]);
    }
    (t, vec![n.max(1)], vec![n.max(1)])
}

/// 1-D convolution window lineage `B[i] ← A[i-1], A[i], A[i+1]` over the
/// interior cells of an array sized so the table holds ~`n` rows.
/// ProvRC compresses this to one row with a relative interval delta
/// (`a1 = b1 + [-1, 1]`).
pub fn convolution(n: usize) -> (LineageTable, Vec<usize>, Vec<usize>) {
    let side = (n / 3 + 2).max(3);
    let mut t = LineageTable::with_capacity(1, 1, n);
    for i in 1..side as i64 - 1 {
        for d in -1..=1 {
            t.push_row(&[i, i + d]);
        }
    }
    (t, vec![side], vec![side])
}

/// Pseudo-random scatter lineage `B[i] ← A[h(i)]` with a mixing hash, so
/// ProvRC finds (almost) no ranges to merge and ~`n` compressed rows
/// survive — the regime where per-pass sort cost dominates compression
/// latency and the access path dominates query latency.
pub fn scatter(n: usize) -> (LineageTable, Vec<usize>, Vec<usize>) {
    let n = n.max(1);
    let mut t = LineageTable::with_capacity(1, 1, n);
    for i in 0..n as i64 {
        let h = (i.wrapping_mul(2654435761) & i64::MAX) % n as i64;
        t.push_row(&[i, h]);
    }
    (t, vec![n], vec![n])
}

/// Elementwise lineage `B[i, j] ← A[i, j]` over a square 2-D array of about
/// `n` cells, rows in order: the shape of a numpy edge. ProvRC compresses
/// it to one row; on the way, step-2 passes whose order the rows lack
/// merge nothing.
pub fn identity_2d(n: usize) -> (LineageTable, Vec<usize>, Vec<usize>) {
    let side = n.isqrt().max(1);
    let mut t = LineageTable::with_capacity(2, 2, side * side);
    for i in 0..side as i64 {
        for j in 0..side as i64 {
            t.push_row(&[i, j, i, j]);
        }
    }
    (t, vec![side; 2], vec![side; 2])
}

/// All three canonical edges by name, for benchmark sweeps.
pub fn all(n: usize) -> Vec<(&'static str, LineageTable, Vec<usize>, Vec<usize>)> {
    let (a, ao, ai) = one_to_one(n);
    let (b, bo, bi) = convolution(n);
    let (c, co, ci) = scatter(n);
    vec![
        ("one_to_one", a, ao, ai),
        ("convolution", b, bo, bi),
        ("scatter", c, co, ci),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslog::provrc;
    use dslog::table::Orientation;

    #[test]
    fn one_to_one_compresses_to_single_row() {
        let (t, out_shape, in_shape) = one_to_one(500);
        assert_eq!(t.n_rows(), 500);
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        assert_eq!(c.n_rows(), 1);
        assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
    }

    #[test]
    fn convolution_compresses_to_single_row() {
        let (t, out_shape, in_shape) = convolution(300);
        assert!(t.n_rows() >= 290, "got {}", t.n_rows());
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
    }

    #[test]
    fn scatter_is_incompressible() {
        let (t, out_shape, in_shape) = scatter(512);
        assert_eq!(t.n_rows(), 512);
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        assert!(c.n_rows() > 256, "got {}", c.n_rows());
        assert_eq!(c.decompress().unwrap().row_set(), t.normalized().row_set());
    }

    #[test]
    fn identity_2d_compresses_to_single_row() {
        let (t, out_shape, in_shape) = identity_2d(400);
        assert_eq!((t.n_rows(), &out_shape[..]), (400, &[20, 20][..]));
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
    }

    #[test]
    fn all_edges_enumerate() {
        let edges = all(64);
        let names: Vec<&str> = edges.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names, ["one_to_one", "convolution", "scatter"]);
    }
}
