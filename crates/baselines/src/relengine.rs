//! A miniature relational query engine — the DuckDB stand-in serving
//! baseline lineage queries (paper §VII.B/D).
//!
//! Two query strategies are provided:
//!
//! * [`hash_join_step`] / [`hash_join_chain`] — the join-based plan the
//!   columnar baselines use after decoding/decompressing their tables
//!   (`Q ⋈ R1 ⋈ … ⋈ Rn−1`, §V.A).
//! * [`array_query`] — the `Array` baseline's strategy: batched vectorized
//!   equality scans over the dense tuple array ("we evaluated the equality
//!   condition (==) … batched with a batch size of 1000").

use dslog::table::{LineageTable, Orientation};
use std::collections::{BTreeSet, HashSet};

/// One hash-join hop: build a hash set over the query cells, scan the
/// relation once, emit the matched other-side cells. `direction` is the
/// orientation whose primary side the query cells live on: `Backward`
/// maps output cells to input cells, `Forward` the reverse.
pub fn hash_join_step(
    cells: &BTreeSet<Vec<i64>>,
    table: &LineageTable,
    direction: Orientation,
) -> BTreeSet<Vec<i64>> {
    let probe: HashSet<&[i64]> = cells.iter().map(|c| c.as_slice()).collect();
    let out_arity = table.out_arity();
    let mut result = BTreeSet::new();
    for row in table.rows() {
        let (out_part, in_part) = row.split_at(out_arity);
        let (key, value) = match direction {
            Orientation::Backward => (out_part, in_part),
            Orientation::Forward => (in_part, out_part),
        };
        if probe.contains(key) {
            result.insert(value.to_vec());
        }
    }
    result
}

/// Chain hash-join hops left-to-right.
pub fn hash_join_chain(
    start: &BTreeSet<Vec<i64>>,
    hops: &[(&LineageTable, Orientation)],
) -> BTreeSet<Vec<i64>> {
    let mut cur = start.clone();
    for &(table, direction) in hops {
        if cur.is_empty() {
            break;
        }
        cur = hash_join_step(&cur, table, direction);
    }
    cur
}

/// The `Array` baseline's query: for each batch of query cells, perform a
/// full vectorized scan over the tuple array, OR-ing per-cell equality
/// masks. Cost is O(batches × rows), which is what makes this baseline
/// collapse on less selective queries (Fig. 8: "did not complete for less
/// selective queries").
pub fn array_query(
    cells: &BTreeSet<Vec<i64>>,
    table: &LineageTable,
    direction: Orientation,
    batch_size: usize,
) -> BTreeSet<Vec<i64>> {
    let out_arity = table.out_arity();
    let n = table.n_rows();
    let mut mask = vec![false; n];
    let all_cells: Vec<&Vec<i64>> = cells.iter().collect();
    for batch in all_cells.chunks(batch_size.max(1)) {
        for cell in batch {
            // Vectorized equality: one pass comparing each key column.
            for (i, row) in table.rows().enumerate() {
                if mask[i] {
                    continue;
                }
                let (out_part, in_part) = row.split_at(out_arity);
                let key = match direction {
                    Orientation::Backward => out_part,
                    Orientation::Forward => in_part,
                };
                if key == cell.as_slice() {
                    mask[i] = true;
                }
            }
        }
    }
    let mut result = BTreeSet::new();
    for (i, &hit) in mask.iter().enumerate() {
        if hit {
            let row = table.row(i);
            let (out_part, in_part) = row.split_at(out_arity);
            let value = match direction {
                Orientation::Backward => in_part,
                Orientation::Forward => out_part,
            };
            result.insert(value.to_vec());
        }
    }
    result
}

/// Chain array-scan hops.
pub fn array_query_chain(
    start: &BTreeSet<Vec<i64>>,
    hops: &[(&LineageTable, Orientation)],
    batch_size: usize,
) -> BTreeSet<Vec<i64>> {
    let mut cur = start.clone();
    for &(table, direction) in hops {
        if cur.is_empty() {
            break;
        }
        cur = array_query(&cur, table, direction, batch_size);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_table() -> LineageTable {
        let mut t = LineageTable::new(1, 2);
        for i in 0..4 {
            for j in 0..2 {
                t.push_row(&[i, i, j]);
            }
        }
        t
    }

    fn cells(v: &[&[i64]]) -> BTreeSet<Vec<i64>> {
        v.iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn hash_join_matches_reference() {
        let t = sum_table();
        let q = cells(&[&[1], &[3]]);
        let got = hash_join_step(&q, &t, Orientation::Backward);
        let expected = dslog_oracle::query::reference::step(&q, &t, Orientation::Backward);
        assert_eq!(got, expected);
    }

    #[test]
    fn array_query_matches_hash_join() {
        let t = sum_table();
        let q = cells(&[&[0], &[2]]);
        for direction in [Orientation::Backward, Orientation::Forward] {
            let q2 = if direction == Orientation::Forward {
                cells(&[&[0, 0], &[2, 1]])
            } else {
                q.clone()
            };
            assert_eq!(
                array_query(&q2, &t, direction, 1000),
                hash_join_step(&q2, &t, direction),
                "{direction:?}"
            );
        }
    }

    #[test]
    fn chains_compose() {
        let t = sum_table();
        let q = cells(&[&[2]]);
        let got = hash_join_chain(
            &q,
            &[(&t, Orientation::Backward), (&t, Orientation::Forward)],
        );
        assert!(got.contains(&vec![2]));
        let got2 = array_query_chain(
            &q,
            &[(&t, Orientation::Backward), (&t, Orientation::Forward)],
            1000,
        );
        assert_eq!(got, got2);
    }

    #[test]
    fn empty_query_short_circuits() {
        let t = sum_table();
        let empty = BTreeSet::new();
        assert!(hash_join_chain(&empty, &[(&t, Orientation::Backward)]).is_empty());
    }
}
