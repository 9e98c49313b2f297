//! Every catalog operation's captured lineage must survive ProvRC
//! compression losslessly (both orientations), and backward queries over
//! the compressed form must match the brute-force reference.

use dslog::provrc;
use dslog::query::QueryExec;
use dslog::table::{BoxTable, Orientation};
use dslog_array::{catalog, Array, OpArgs};
use dslog_oracle::query::reference;

#[test]
fn all_ops_compress_losslessly() {
    let a = Array::from_fn(&[4, 3], |idx| ((idx[0] * 3 + idx[1]) as f64).sin() * 10.0);
    let b = Array::from_fn(&[4, 3], |idx| ((idx[0] + 2 * idx[1]) as f64).cos() * 10.0);
    let b_t = Array::from_fn(&[3, 4], |idx| ((idx[0] + 2 * idx[1]) as f64).cos() * 10.0);

    for def in catalog() {
        let inputs: Vec<&Array> = match (def.arity, def.name) {
            (2, "matmul" | "dot" | "inner") => vec![&a, &b_t],
            (1, _) => vec![&a],
            (2, _) => vec![&a, &b],
            _ => unreachable!(),
        };
        let r = (def.apply)(&inputs, &OpArgs::none());
        for (i, lineage) in r.lineage.iter().enumerate() {
            if lineage.is_empty() {
                continue;
            }
            let out_shape = r.output.shape();
            let in_shape = inputs[i].shape();
            for orientation in [Orientation::Backward, Orientation::Forward] {
                let c = provrc::compress(lineage, out_shape, in_shape, orientation);
                assert_eq!(
                    c.decompress().unwrap().row_set(),
                    lineage.row_set(),
                    "op {} input {} orientation {:?}",
                    def.name,
                    i,
                    orientation
                );
            }
        }
    }
}

#[test]
fn all_ops_backward_queries_match_reference() {
    let a = Array::from_fn(&[3, 3], |idx| ((idx[0] * 3 + idx[1]) as f64).sin() * 5.0);
    let b = Array::from_fn(&[3, 3], |idx| ((idx[0] + idx[1]) as f64) - 3.0);

    for def in catalog() {
        let inputs: Vec<&Array> = match def.arity {
            1 => vec![&a],
            _ => vec![&a, &b],
        };
        let r = (def.apply)(&inputs, &OpArgs::none());
        for (i, lineage) in r.lineage.iter().enumerate() {
            if lineage.is_empty() {
                continue;
            }
            let c = provrc::compress(
                lineage,
                r.output.shape(),
                inputs[i].shape(),
                Orientation::Backward,
            );
            // Query the first two output cells present in the lineage.
            let cells: Vec<Vec<i64>> = {
                let mut seen = std::collections::BTreeSet::new();
                for row in lineage.rows() {
                    seen.insert(row[..lineage.out_arity()].to_vec());
                    if seen.len() >= 2 {
                        break;
                    }
                }
                seen.into_iter().collect()
            };
            let q = BoxTable::from_cells(lineage.out_arity(), &cells);
            let mut result = QueryExec::default().hop(&q, &c).unwrap().0;
            result.merge();
            let expected = reference::step(
                &cells.iter().cloned().collect(),
                lineage,
                Orientation::Backward,
            );
            assert_eq!(
                result.cell_set(),
                expected,
                "op {} input {} backward query",
                def.name,
                i
            );
        }
    }
}

#[test]
fn structured_ops_compress_to_constant_rows() {
    // The headline patterns: elementwise, aggregation, matmul lineage all
    // collapse to O(1) compressed rows regardless of size.
    let n = 32;
    let a = Array::from_fn(&[n], |idx| idx[0] as f64);

    let neg = dslog_array::apply("negative", &[&a], &OpArgs::none());
    let c = provrc::compress(&neg.lineage[0], &[n], &[n], Orientation::Backward);
    assert_eq!(c.n_rows(), 1, "negative");

    let sum = dslog_array::apply("sum", &[&a], &OpArgs::none());
    let c = provrc::compress(&sum.lineage[0], &[1], &[n], Orientation::Backward);
    assert_eq!(c.n_rows(), 1, "sum");

    let m = Array::from_fn(&[6, 5], |idx| (idx[0] + idx[1]) as f64);
    let v = Array::from_fn(&[5], |idx| idx[0] as f64);
    let mv = dslog_array::apply("matmul", &[&m, &v], &OpArgs::none());
    let c0 = provrc::compress(&mv.lineage[0], &[6], &[6, 5], Orientation::Backward);
    assert_eq!(c0.n_rows(), 1, "matvec A-side");
    let c1 = provrc::compress(&mv.lineage[1], &[6], &[5], Orientation::Backward);
    assert_eq!(c1.n_rows(), 1, "matvec v-side");
}
