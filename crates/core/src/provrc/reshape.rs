//! Index reshaping: generalizing compressed lineage over array shapes
//! (paper §VI.B, Fig. 6).
//!
//! A compressed table is *generalized* by replacing every absolute interval
//! that spans the full extent `[0, D_k − 1]` of its own attribute `k` with
//! the symbolic cell `Sym(k)`. A generalized table can then be
//! *instantiated* for any shapes by substituting the new extents — this is
//! what lets `gen_sig` reuse serve calls whose input shapes were never seen.
//!
//! Whether the full-extent intervals really were the only shape-dependent
//! parts of the lineage is not decidable from one call; the automatic reuse
//! predictor (§VI.C, `crate::reuse`) validates a generalized mapping against
//! the next differently-shaped call before trusting it. The paper's `cross`
//! misprediction arises exactly here.

use crate::error::{DslogError, Result};
use crate::interval::Interval;
use crate::table::{Cell, CompressedTable, Orientation};

/// Generalize: mark full-extent absolute intervals as symbolic.
///
/// Only self-attribute matches are generalized (an interval on attribute `k`
/// equal to `[0, D_k − 1]`); an interval that merely coincides with some
/// *other* attribute's extent is left absolute — the reuse predictor then
/// rejects the mapping if that made it shape-dependent, which is the
/// conservative direction.
pub fn generalize(table: &CompressedTable) -> CompressedTable {
    let mut out = table.clone();
    let extents = out.extents().to_vec();
    for (k, &extent) in extents.iter().enumerate() {
        out.map_column(k, |cell| {
            if let Cell::Abs(ivl) = cell {
                if ivl.lo == 0 && ivl.hi == extent - 1 {
                    *cell = Cell::Sym { attr: k as u8 };
                }
            }
        });
    }
    out
}

/// Instantiate a generalized table for concrete array shapes.
///
/// `out_shape` / `in_shape` are the shapes of the output and input arrays of
/// the new operation call; they must have the same arity as the original.
pub fn instantiate(
    table: &CompressedTable,
    out_shape: &[usize],
    in_shape: &[usize],
) -> Result<CompressedTable> {
    let (prim_shape, sec_shape) = match table.orientation() {
        Orientation::Backward => (out_shape, in_shape),
        Orientation::Forward => (in_shape, out_shape),
    };
    if prim_shape.len() != table.primary_arity() || sec_shape.len() != table.secondary_arity() {
        return Err(DslogError::BadInstantiation("arity mismatch"));
    }
    let new_extents: Vec<i64> = prim_shape
        .iter()
        .chain(sec_shape.iter())
        .map(|&d| d as i64)
        .collect();
    if new_extents.iter().any(|&d| d <= 0) {
        return Err(DslogError::BadInstantiation("zero-sized dimension"));
    }

    // Substitute symbolic cells first, then move the extent vector into the
    // table — the extents are only read by the substitution closure, so no
    // second copy of them is needed.
    let mut out = table.clone();
    for k in 0..out.arity() {
        out.map_column(k, |cell| {
            if let Cell::Sym { attr } = *cell {
                let d = new_extents[attr as usize];
                *cell = Cell::Abs(Interval::new(0, d - 1));
            }
        });
    }
    *out.extents_mut() = new_extents;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provrc::compress;
    use crate::table::LineageTable;

    /// Fig. 6(A): aggregate over a 1-D array with d1 = 2 → 1-cell output.
    fn aggregate_table(d: i64) -> LineageTable {
        let mut t = LineageTable::new(1, 1);
        for i in 0..d {
            t.push_row(&[0, i]);
        }
        t
    }

    #[test]
    fn fig6_generalize_and_instantiate() {
        // (A) compress the d=2 lineage.
        let c2 = compress(&aggregate_table(2), &[1], &[2], Orientation::Backward);
        assert_eq!(c2.n_rows(), 1);
        // (B) generalize: both the output [0,0] and input [0,1] intervals
        // span their attribute extents.
        let g = generalize(&c2);
        assert!(g.is_generalized());
        assert_eq!(g.row(0)[0], Cell::Sym { attr: 0 });
        assert_eq!(g.row(0)[1], Cell::Sym { attr: 1 });
        // (C) instantiate for d1 = 4 and compare against fresh capture.
        let inst = instantiate(&g, &[1], &[4]).unwrap();
        let fresh = compress(&aggregate_table(4), &[1], &[4], Orientation::Backward);
        assert_eq!(
            inst.decompress().unwrap().row_set(),
            fresh.decompress().unwrap().row_set()
        );
    }

    #[test]
    fn elementwise_generalizes_with_relative_cells() {
        let n = 6i64;
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[i, i]);
        }
        let c = compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
        let g = generalize(&c);
        // The output attr generalizes; the relative input cell is untouched.
        assert_eq!(g.row(0)[0], Cell::Sym { attr: 0 });
        assert!(matches!(g.row(0)[1], Cell::Rel { .. }));
        // Instantiate at n = 11.
        let inst = instantiate(&g, &[11], &[11]).unwrap();
        let mut expect = LineageTable::new(1, 1);
        for i in 0..11 {
            expect.push_row(&[i, i]);
        }
        assert_eq!(inst.decompress().unwrap().row_set(), expect.row_set());
    }

    #[test]
    fn partial_intervals_stay_absolute() {
        // Lineage touching only half the input must not generalize that cell.
        let mut t = LineageTable::new(1, 1);
        for i in 0..4 {
            t.push_row(&[i, 0]);
        }
        let c = compress(&t, &[4], &[8], Orientation::Backward);
        let g = generalize(&c);
        assert_eq!(
            g.row(0)[1],
            Cell::point(0),
            "input cell [0,0] is not full extent (8)"
        );
        assert_eq!(g.row(0)[0], Cell::Sym { attr: 0 });
    }

    #[test]
    fn instantiate_rejects_bad_arity() {
        let c = compress(&aggregate_table(2), &[1], &[2], Orientation::Backward);
        let g = generalize(&c);
        assert!(instantiate(&g, &[1, 1], &[4]).is_err());
        assert!(instantiate(&g, &[1], &[0]).is_err());
    }

    #[test]
    fn instantiate_is_identity_on_same_shape() {
        let c = compress(&aggregate_table(3), &[1], &[3], Orientation::Backward);
        let g = generalize(&c);
        let inst = instantiate(&g, &[1], &[3]).unwrap();
        assert_eq!(
            inst.decompress().unwrap().row_set(),
            c.decompress().unwrap().row_set()
        );
    }
}
