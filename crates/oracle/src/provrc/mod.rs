//! ProvRC (paper §IV) over a `Vec` of row structs: the bit-identity
//! reference for the columnar pipeline in `dslog::provrc`.
//!
//! Same pass sequence as the paper — range-encode the secondary
//! attributes last to first (`range_encode`), then relative-transform and
//! range-encode the primary attributes last to first (`relative`) — with
//! a full re-sort before every pass and two heap allocations per row. It is
//! several times slower than the shipped pipeline (`BENCH_compress.json`
//! keeps the series) and exists so that pipeline has something simple to
//! equal: same rows, same cells, same row order.

mod range_encode;
mod relative;

use dslog::{Cell, CompressedTable, Interval, LineageTable, Orientation};
use range_encode::secondary_pass;
use relative::{primary_passes, WCell, WRow};

/// Compress `table` with the row-of-structs pipeline. Same contract as
/// `dslog::provrc::compress`: the shapes are recorded as attribute extents
/// and do not affect the rows.
pub fn compress_reference(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    orientation: Orientation,
) -> CompressedTable {
    assert_eq!(table.out_arity(), out_shape.len(), "out shape arity");
    assert_eq!(table.in_arity(), in_shape.len(), "in shape arity");
    let normalized = table.normalized();
    let (prim_arity, sec_arity) = match orientation {
        Orientation::Backward => (table.out_arity(), table.in_arity()),
        Orientation::Forward => (table.in_arity(), table.out_arity()),
    };

    // Build working rows: primary attributes first.
    let mut rows: Vec<WRow> = Vec::with_capacity(normalized.n_rows());
    for row in normalized.rows() {
        let (out_part, in_part) = row.split_at(table.out_arity());
        let (prim_part, sec_part) = match orientation {
            Orientation::Backward => (out_part, in_part),
            Orientation::Forward => (in_part, out_part),
        };
        rows.push(WRow {
            prim: prim_part.iter().map(|&v| Interval::point(v)).collect(),
            sec: sec_part
                .iter()
                .map(|&v| WCell::Abs(Interval::point(v)))
                .collect(),
        });
    }

    // Step 1: multi-attribute range encoding over secondary attributes,
    // last attribute first (paper: a_m, …, a_1).
    for k in (0..sec_arity).rev() {
        secondary_pass(&mut rows, k);
    }

    // Step 2: relative transformation + range encoding over primary
    // attributes, last attribute first (paper: b_l, …, b_1).
    for j in (0..prim_arity).rev() {
        primary_passes(&mut rows, j, sec_arity);
    }

    // Materialize; extents are the shapes in primary-then-secondary order.
    let (prim_shape, sec_shape) = match orientation {
        Orientation::Backward => (out_shape, in_shape),
        Orientation::Forward => (in_shape, out_shape),
    };
    let extents = prim_shape
        .iter()
        .chain(sec_shape)
        .map(|&d| d as i64)
        .collect();
    let mut out = CompressedTable::new(orientation, prim_arity, sec_arity, extents);
    let mut row_buf: Vec<Cell> = Vec::with_capacity(prim_arity + sec_arity);
    for wrow in rows {
        row_buf.clear();
        row_buf.extend(wrow.prim.iter().map(|&ivl| Cell::Abs(ivl)));
        row_buf.extend(wrow.sec.iter().map(|c| match *c {
            WCell::Abs(ivl) => Cell::Abs(ivl),
            WCell::Rel { anchor, delta } => Cell::Rel { anchor, delta },
        }));
        out.push_row(&row_buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslog::provrc::compress;

    #[test]
    fn fast_and_ablation_agree_on_canonical_patterns() {
        // Every canonical lineage shape, both orientations: the shipped
        // pipeline must be bit-identical to this one.
        let mut tables: Vec<(LineageTable, Vec<usize>, Vec<usize>)> = Vec::new();
        // Paper Fig. 1(B): `B = numpy.sum(A, axis=1)`, 3x2 input, 1-based.
        let mut sum = LineageTable::new(1, 2);
        for b in 1..=3 {
            for a2 in 1..=2 {
                sum.push_row(&[b, b, a2]);
            }
        }
        tables.push((sum, vec![4], vec![4, 3]));
        let mut conv = LineageTable::new(1, 1);
        for i in 1..40 {
            for d in -1..=1 {
                conv.push_row(&[i, i + d]);
            }
        }
        tables.push((conv, vec![48], vec![48]));
        let mut scatter = LineageTable::new(1, 1);
        for i in 0..64 {
            scatter.push_row(&[i, (i * 37 + 11) % 64]);
        }
        tables.push((scatter, vec![64], vec![64]));
        let mut diag = LineageTable::new(1, 2);
        for i in 0..10 {
            diag.push_row(&[i, i, i]);
        }
        tables.push((diag, vec![10], vec![10, 10]));
        for (t, out_shape, in_shape) in &tables {
            for orientation in [Orientation::Backward, Orientation::Forward] {
                let ablation = compress_reference(t, out_shape, in_shape, orientation);
                let fast = compress(t, out_shape, in_shape, orientation);
                assert_eq!(fast, ablation, "{orientation:?}");
            }
        }
    }
}
