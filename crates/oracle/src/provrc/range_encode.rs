//! Step 1 of ProvRC: multi-attribute range encoding over the secondary
//! attributes (paper §IV.A, "Multi-Attribute Range Encoding over Inputs").
//!
//! For the target attribute `a_k`, rows that agree on **every** other
//! attribute and are contiguous on `a_k` collapse into a single row whose
//! `a_k` is the covering interval — an exact union-of-Cartesian-products
//! rewrite (§IV.B).

use super::relative::{WCell, WRow};

/// Merge contiguous runs on secondary attribute `k`.
///
/// Rows are re-sorted so candidate runs are adjacent: order is
/// (all primary attributes, all secondary attributes except `k`, then `k`).
pub(crate) fn secondary_pass(rows: &mut Vec<WRow>, k: usize) {
    if rows.len() <= 1 {
        return;
    }
    rows.sort_unstable_by(|x, y| {
        x.prim
            .cmp(&y.prim)
            .then_with(|| cmp_sec_except(&x.sec, &y.sec, k))
            .then_with(|| cell_key(&x.sec[k]).cmp(&cell_key(&y.sec[k])))
    });

    let mut out: Vec<WRow> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        if let Some(last) = out.last_mut() {
            if last.prim == row.prim
                && sec_equal_except(&last.sec, &row.sec, k)
                && cells_concat(&last.sec[k], &row.sec[k])
            {
                // Extend the interval on k.
                if let (WCell::Abs(a), WCell::Abs(b)) = (&mut last.sec[k], &row.sec[k]) {
                    a.hi = b.hi;
                }
                continue;
            }
        }
        out.push(row);
    }
    *rows = out;
}

/// Whether two cells on the target attribute concatenate exactly
/// (`[x, y]` followed by `[y+1, z]`), both absolute.
fn cells_concat(a: &WCell, b: &WCell) -> bool {
    match (a, b) {
        (WCell::Abs(x), WCell::Abs(y)) => x.hi + 1 == y.lo,
        _ => false,
    }
}

/// Total order key for a cell, for sorting. Abs cells sort before Rel cells.
fn cell_key(c: &WCell) -> (u8, i64, i64, i64) {
    match *c {
        WCell::Abs(ivl) => (0, ivl.lo, ivl.hi, 0),
        WCell::Rel { anchor, delta } => (1, i64::from(anchor), delta.lo, delta.hi),
    }
}

fn cmp_sec_except(x: &[WCell], y: &[WCell], k: usize) -> std::cmp::Ordering {
    for (i, (a, b)) in x.iter().zip(y.iter()).enumerate() {
        if i == k {
            continue;
        }
        match cell_key(a).cmp(&cell_key(b)) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

fn sec_equal_except(x: &[WCell], y: &[WCell], k: usize) -> bool {
    x.iter()
        .zip(y.iter())
        .enumerate()
        .all(|(i, (a, b))| i == k || a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslog::Interval;

    fn abs(lo: i64, hi: i64) -> WCell {
        WCell::Abs(Interval::new(lo, hi))
    }

    fn wrow(prim: &[i64], sec: &[(i64, i64)]) -> WRow {
        WRow {
            prim: prim.iter().map(|&v| Interval::point(v)).collect(),
            sec: sec.iter().map(|&(lo, hi)| abs(lo, hi)).collect(),
        }
    }

    #[test]
    fn merges_contiguous_run() {
        let mut rows = vec![
            wrow(&[1], &[(1, 1)]),
            wrow(&[1], &[(2, 2)]),
            wrow(&[1], &[(3, 3)]),
            wrow(&[2], &[(5, 5)]),
        ];
        secondary_pass(&mut rows, 0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].sec[0], abs(1, 3));
        assert_eq!(rows[1].sec[0], abs(5, 5));
    }

    #[test]
    fn gap_breaks_run() {
        let mut rows = vec![
            wrow(&[1], &[(1, 1)]),
            wrow(&[1], &[(2, 2)]),
            wrow(&[1], &[(4, 4)]),
        ];
        secondary_pass(&mut rows, 0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].sec[0], abs(1, 2));
        assert_eq!(rows[1].sec[0], abs(4, 4));
    }

    #[test]
    fn other_attribute_mismatch_blocks_merge() {
        let mut rows = vec![wrow(&[1], &[(7, 7), (1, 1)]), wrow(&[1], &[(8, 8), (2, 2)])];
        secondary_pass(&mut rows, 1);
        assert_eq!(rows.len(), 2, "different a1 must prevent merging a2");
    }

    #[test]
    fn paper_table_i_shape() {
        // Fig 1(B) relation → Table I after the a2 then a1 passes (1-based).
        let mut rows = vec![
            wrow(&[1], &[(1, 1), (1, 1)]),
            wrow(&[1], &[(1, 1), (2, 2)]),
            wrow(&[2], &[(2, 2), (1, 1)]),
            wrow(&[2], &[(2, 2), (2, 2)]),
            wrow(&[3], &[(3, 3), (1, 1)]),
            wrow(&[3], &[(3, 3), (2, 2)]),
        ];
        secondary_pass(&mut rows, 1);
        secondary_pass(&mut rows, 0);
        assert_eq!(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            let b = i as i64 + 1;
            assert_eq!(row.prim[0], Interval::point(b));
            assert_eq!(row.sec[0], abs(b, b));
            assert_eq!(row.sec[1], abs(1, 2));
        }
    }

    #[test]
    fn non_adjacent_candidates_found_by_resort() {
        // Rows interleaved so single-sort scanning would miss the merge on
        // attribute 0: (a1, a2) = (0,0), (0,2), (1,0), (1,2).
        let mut rows = vec![
            wrow(&[9], &[(0, 0), (0, 0)]),
            wrow(&[9], &[(0, 0), (2, 2)]),
            wrow(&[9], &[(1, 1), (0, 0)]),
            wrow(&[9], &[(1, 1), (2, 2)]),
        ];
        // Pass over a2 merges nothing (gap), but pass over a1 must pair
        // (0,0)+(1,0) and (0,2)+(1,2).
        secondary_pass(&mut rows, 1);
        assert_eq!(rows.len(), 4);
        secondary_pass(&mut rows, 0);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.sec[0] == abs(0, 1)));
    }
}
