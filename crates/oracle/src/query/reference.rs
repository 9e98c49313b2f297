//! Brute-force reference implementation of lineage queries over
//! *uncompressed* tables (§V.A's natural-join semantics): the one oracle
//! every in-situ answer is validated against, in unit, integration and
//! property tests and in the bench harness's parity asserts.
//!
//! A hop's direction is the [`Orientation`] whose primary side is the
//! hop's query side: `Backward` maps output cells of the stored relation
//! `R(out_attrs, in_attrs)` to the input cells they came from, `Forward`
//! maps input cells to the output cells they influenced.

use dslog::{LineageTable, Orientation};
use std::collections::BTreeSet;

/// One join hop: map a set of cells through `table` in the given direction.
pub fn step(
    cells: &BTreeSet<Vec<i64>>,
    table: &LineageTable,
    direction: Orientation,
) -> BTreeSet<Vec<i64>> {
    let out_arity = table.out_arity();
    let mut result = BTreeSet::new();
    match direction {
        Orientation::Backward => {
            for row in table.rows() {
                let (out_part, in_part) = row.split_at(out_arity);
                if cells.contains(out_part) {
                    result.insert(in_part.to_vec());
                }
            }
        }
        Orientation::Forward => {
            for row in table.rows() {
                let (out_part, in_part) = row.split_at(out_arity);
                if cells.contains(in_part) {
                    result.insert(out_part.to_vec());
                }
            }
        }
    }
    result
}

/// Chain several hops (the reference for multi-step `prov_query`).
pub fn chain(
    start: &BTreeSet<Vec<i64>>,
    hops: &[(&LineageTable, Orientation)],
) -> BTreeSet<Vec<i64>> {
    let mut cur = start.clone();
    for &(table, direction) in hops {
        cur = step(&cur, table, direction);
        if cur.is_empty() {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_table() -> LineageTable {
        let mut t = LineageTable::new(1, 2);
        for i in 0..3 {
            for j in 0..2 {
                t.push_row(&[i, i, j]);
            }
        }
        t
    }

    #[test]
    fn backward_step() {
        let cells: BTreeSet<Vec<i64>> = [vec![1i64]].into_iter().collect();
        let result = step(&cells, &sum_table(), Orientation::Backward);
        let expected: BTreeSet<Vec<i64>> = [vec![1i64, 0], vec![1, 1]].into_iter().collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn forward_step() {
        let cells: BTreeSet<Vec<i64>> = [vec![2i64, 1]].into_iter().collect();
        let result = step(&cells, &sum_table(), Orientation::Forward);
        let expected: BTreeSet<Vec<i64>> = [vec![2i64]].into_iter().collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn chain_round_trip() {
        // B[1] backward to A then forward again must reach (at least) B[1].
        let cells: BTreeSet<Vec<i64>> = [vec![1i64]].into_iter().collect();
        let t = sum_table();
        let result = chain(
            &cells,
            &[(&t, Orientation::Backward), (&t, Orientation::Forward)],
        );
        assert!(result.contains(&vec![1i64]));
    }

    #[test]
    fn empty_short_circuits() {
        let t = sum_table();
        let result = chain(&BTreeSet::new(), &[(&t, Orientation::Backward)]);
        assert!(result.is_empty());
    }
}
