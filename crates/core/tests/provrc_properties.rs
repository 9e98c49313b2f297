//! Property-based tests for ProvRC: losslessness (the paper's §IV.B theorem
//! as an executable property), query/reference equivalence, serialization
//! roundtrips, and merge-step set preservation.

use dslog::provrc::{self, reshape};
use dslog::query::QueryExec;
use dslog::storage::format;
use dslog::table::{BoxTable, LineageTable, Orientation};
use dslog_oracle::query::reference;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random small relation generator: arities 1–3, values in a small grid so
/// both structured runs and gaps occur.
fn arb_relation() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    (1usize..=2, 1usize..=3).prop_flat_map(|(out_arity, in_arity)| {
        let row = prop::collection::vec(0i64..6, out_arity + in_arity);
        prop::collection::vec(row, 0..60).prop_map(move |rows| {
            let mut t = LineageTable::new(out_arity, in_arity);
            for r in &rows {
                t.push_row(r);
            }
            t.normalize();
            (t, vec![6; out_arity], vec![6; in_arity])
        })
    })
}

/// Structured relation: a random mix of shifted windows and constant ranges,
/// exercising the rel/abs combo machinery harder than uniform noise.
fn arb_structured() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    (1i64..20, -2i64..3, 0i64..3, prop::bool::ANY).prop_map(|(n, shift, width, constant)| {
        let mut t = LineageTable::new(1, 1);
        let dim = (n + shift.unsigned_abs() as i64 + width + 4) as usize;
        for i in 0..n {
            if constant {
                for a in 0..=width {
                    t.push_row(&[i, a]);
                }
            } else {
                let base = i + shift;
                for a in base.max(0)..=(base + width).min(dim as i64 - 1) {
                    t.push_row(&[i, a]);
                }
            }
        }
        t.normalize();
        (t, vec![dim], vec![dim])
    })
}

fn query_cells_for(t: &LineageTable, seed: usize) -> Vec<Vec<i64>> {
    // Pick a deterministic subset of output cells present in the table.
    let all: BTreeSet<Vec<i64>> = t.rows().map(|r| r[..t.out_arity()].to_vec()).collect();
    all.into_iter()
        .enumerate()
        .filter(|(i, _)| (i + seed).is_multiple_of(3))
        .map(|(_, c)| c)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compression_is_lossless_backward((t, out_shape, in_shape) in arb_relation()) {
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        prop_assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
    }

    #[test]
    fn compression_is_lossless_forward((t, out_shape, in_shape) in arb_relation()) {
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Forward);
        prop_assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
    }

    #[test]
    fn compression_is_lossless_structured((t, out_shape, in_shape) in arb_structured()) {
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        prop_assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
        // Structured inputs must actually compress.
        if t.n_rows() >= 8 {
            prop_assert!(c.n_rows() <= t.n_rows());
        }
    }

    #[test]
    fn backward_query_matches_reference((t, out_shape, in_shape) in arb_relation(), seed in 0usize..3) {
        prop_assume!(!t.is_empty());
        let cells = query_cells_for(&t, seed);
        prop_assume!(!cells.is_empty());
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        let q = BoxTable::from_cells(t.out_arity(), &cells);
        let mut result = QueryExec::default().hop(&q, &c).unwrap().0;
        result.merge();
        let expected = reference::step(
            &cells.iter().cloned().collect(),
            &t,
            Orientation::Backward,
        );
        prop_assert_eq!(result.cell_set(), expected);
    }

    #[test]
    fn forward_query_matches_reference((t, out_shape, in_shape) in arb_relation(), seed in 0usize..3) {
        prop_assume!(!t.is_empty());
        let in_cells: BTreeSet<Vec<i64>> = t
            .rows()
            .map(|r| r[t.out_arity()..].to_vec())
            .collect();
        let cells: Vec<Vec<i64>> = in_cells
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (i + seed) % 3 == 0)
            .map(|(_, c)| c)
            .collect();
        prop_assume!(!cells.is_empty());
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Forward);
        let q = BoxTable::from_cells(t.in_arity(), &cells);
        let mut result = QueryExec::default().hop(&q, &c).unwrap().0;
        result.merge();
        let expected = reference::step(
            &cells.iter().cloned().collect(),
            &t,
            Orientation::Forward,
        );
        prop_assert_eq!(result.cell_set(), expected);
    }

    #[test]
    fn serialization_roundtrip((t, out_shape, in_shape) in arb_relation()) {
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        let bytes = format::serialize(&c);
        prop_assert_eq!(format::deserialize(&bytes).unwrap(), c.clone());
        let gz = format::serialize_gzip(&c);
        prop_assert_eq!(format::deserialize_gzip(&gz).unwrap(), c);
    }

    #[test]
    fn merge_preserves_cell_set(boxes in prop::collection::vec(
        (0i64..8, 0i64..4, 0i64..8, 0i64..4),
        1..20,
    )) {
        let mut t = BoxTable::new(2);
        for (lo1, w1, lo2, w2) in &boxes {
            t.push_box(&[
                dslog::Interval::new(*lo1, lo1 + w1),
                dslog::Interval::new(*lo2, lo2 + w2),
            ]);
        }
        let before = t.cell_set();
        let mut merged = t.clone();
        merged.merge();
        prop_assert_eq!(merged.cell_set(), before);
        prop_assert!(merged.n_boxes() <= t.n_boxes());
    }

    #[test]
    fn generalize_instantiate_identity((t, out_shape, in_shape) in arb_structured()) {
        let c = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
        let g = reshape::generalize(&c);
        let back = reshape::instantiate(&g, &out_shape, &in_shape).unwrap();
        prop_assert_eq!(back.decompress().unwrap().row_set(), t.row_set());
    }
}
