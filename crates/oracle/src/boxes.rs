//! The row-reduction merge (§V.B.3) as `dslog` first shipped it: every
//! pass orders row indices with a comparator that walks the boxes'
//! intervals, every round runs all passes, and the loop ends one round
//! after the last merge. `BoxTable::merge` must return the same boxes in
//! the same order.

use dslog::{BoxTable, Interval};
use std::cmp::Ordering;

/// Merge `table` to its fixpoint: repeatedly unite boxes that are identical
/// on all attributes but one, where that one attribute's intervals overlap
/// or abut, running the last attribute first in every round.
pub fn merge_reference(table: &mut BoxTable) {
    loop {
        let before = table.n_boxes();
        if before <= 1 {
            return;
        }
        for target in (0..table.arity()).rev() {
            merge_pass(table, target);
        }
        if table.n_boxes() == before {
            break;
        }
    }
}

/// One pass over attribute `target`: visit the boxes in (other attrs,
/// target) order — as they lie, when that is their order — and fold each
/// into the last box written while they agree on the other attributes and
/// `target` is mergeable.
fn merge_pass(table: &mut BoxTable, target: usize) {
    let arity = table.arity();
    let n = table.n_boxes() as u32;
    if n <= 1 {
        return;
    }
    let row = |i: u32| table.row(i as usize);
    let key_cmp = |&x: &u32, &y: &u32| {
        let (bx, by) = (row(x), row(y));
        for k in (0..arity).filter(|&k| k != target) {
            match bx[k].cmp(&by[k]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        bx[target].cmp(&by[target])
    };
    let sorted = (1..n).all(|i| key_cmp(&(i - 1), &i).is_le());
    let mut order: Vec<u32> = Vec::new();
    if !sorted {
        order.extend(0..n);
        order.sort_unstable_by(key_cmp);
    }
    let mut out: Vec<Interval> = Vec::with_capacity(n as usize * arity);
    for i in 0..n {
        let b = row(if sorted { i } else { order[i as usize] });
        let last = out.len().saturating_sub(arity);
        let last = &mut out[last..];
        if !last.is_empty()
            && (0..arity).all(|k| k == target || last[k] == b[k])
            && last[target].mergeable(&b[target])
        {
            last[target] = last[target].merge(&b[target]);
        } else {
            out.extend_from_slice(b);
        }
    }
    let rows: Vec<&[Interval]> = out.chunks_exact(arity).collect();
    *table = BoxTable::from_boxes(arity, &rows);
}
