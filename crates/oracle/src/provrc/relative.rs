//! Step 2 of ProvRC: relative value transformation and range encoding over
//! the primary attributes (paper §IV.A step 2).
//!
//! When encoding primary attribute `b_j`, a run of rows may merge when all
//! other primary attributes agree, `b_j` is contiguous, and every secondary
//! attribute agrees under one of two readings:
//!
//! * **absolute** — the cell's interval is identical across the run, or
//! * **relative** — the delta `a_i − b_j` is identical across the run, in
//!   which case the merged cell becomes `Rel { anchor: j, delta }`
//!   (`a = b + δ`; the paper's in-text `δ = b_j − a_i` is a sign typo —
//!   its own Table II and `rel_back` pin the convention used here).
//!
//! Cells that already became relative in an earlier pass (anchored to some
//! `b_j'`) compare by their `(anchor, delta)` value: all other primary
//! attributes are fixed inside a run, so equal `(anchor, delta)` means equal
//! value sets, and the merge stays exact.
//!
//! The abs/rel choice per still-absolute secondary attribute is enumerated
//! as a bitmask (capped for very wide relations; see `masks_for`).

use dslog::Interval;

/// A secondary attribute cell during compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WCell {
    /// Absolute interval.
    Abs(Interval),
    /// Relative to primary attribute `anchor`: value set is `prim[anchor] + delta`.
    Rel { anchor: u8, delta: Interval },
}

/// A working row: primary intervals then secondary cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WRow {
    pub prim: Vec<Interval>,
    pub sec: Vec<WCell>,
}

/// The rel-choice bitmasks to try for `n_abs` absolute secondary
/// attributes. Full enumeration up to 2^6; beyond that, a heuristic subset
/// (all-rel, all-abs, single-attr masks and their complements) keeps the
/// pass count linear while covering the patterns arising in practice.
///
/// This is the reference's own statement of the pass order: the columnar
/// pipeline in `dslog` keeps a separate copy, so a change to either shows
/// up as a parity failure instead of moving both sides at once.
fn masks_for(n_abs: usize) -> Vec<u64> {
    // Masks are single `u64`s, so ≥ 64 still-absolute attributes clamp to
    // the widest representable heuristic list.
    let n_abs = n_abs.min(63);
    if n_abs == 0 {
        return vec![0];
    }
    if n_abs <= 6 {
        // Descending popcount: prefer turning attributes relative, which is
        // what one-to-one/convolution/matmul patterns need, then fall back.
        let mut masks: Vec<u64> = (0..(1u64 << n_abs)).collect();
        masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
        masks
    } else {
        let all = (1u64 << n_abs) - 1;
        let mut masks = vec![all];
        for i in 0..n_abs {
            masks.push(all & !(1 << i));
        }
        for i in 0..n_abs {
            masks.push(1 << i);
        }
        masks.push(0);
        masks
    }
}

/// Run all combo passes for primary attribute `j`.
pub(crate) fn primary_passes(rows: &mut Vec<WRow>, j: usize, sec_arity: usize) {
    for mask in masks_for(sec_arity) {
        primary_pass(rows, j, mask);
        if rows.len() <= 1 {
            break;
        }
    }
}

/// Per-cell sort/equality key under a given rel-mask for target attribute `j`.
///
/// Tag scheme (first element) keeps distinct representations from comparing
/// equal:
/// * 0 — absolute cell compared absolutely,
/// * 1 — absolute cell compared by delta to `b_j` (requires `b_j` singleton),
/// * 2 — absolute cell that the mask wanted relative but `b_j` is an
///   interval (compared absolutely; never converted),
/// * 3 — already-relative cell, compared by `(anchor, delta)`.
fn sec_key(cell: &WCell, want_rel: bool, prim_j: &Interval) -> (u8, i64, i64, i64) {
    match *cell {
        WCell::Abs(ivl) => {
            if want_rel {
                if prim_j.is_point() {
                    let d = ivl.sub_point(prim_j.lo);
                    (1, d.lo, d.hi, 0)
                } else {
                    (2, ivl.lo, ivl.hi, 0)
                }
            } else {
                (0, ivl.lo, ivl.hi, 0)
            }
        }
        WCell::Rel { anchor, delta } => (3, i64::from(anchor), delta.lo, delta.hi),
    }
}

fn primary_pass(rows: &mut Vec<WRow>, j: usize, mask: u64) {
    if rows.len() <= 1 {
        return;
    }

    let cmp_keys = |x: &WRow, y: &WRow| -> std::cmp::Ordering {
        // Other primary attributes first.
        for (k, (a, b)) in x.prim.iter().zip(y.prim.iter()).enumerate() {
            if k == j {
                continue;
            }
            match a.cmp(b) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        // Secondary attributes under the mask.
        for (i, (a, b)) in x.sec.iter().zip(y.sec.iter()).enumerate() {
            let want_rel = mask & (1 << i) != 0;
            let ka = sec_key(a, want_rel, &x.prim[j]);
            let kb = sec_key(b, want_rel, &y.prim[j]);
            match ka.cmp(&kb) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        // Finally the target attribute.
        x.prim[j].cmp(&y.prim[j])
    };
    rows.sort_unstable_by(cmp_keys);

    // An in-progress run: `first` is the run's first row (kept immutable so
    // delta keys stay comparable), `hi` the current end of the target
    // interval, `merged` whether ≥ 2 rows were absorbed.
    struct Run {
        first: WRow,
        hi: i64,
        merged: bool,
    }

    let flush = |run: Run, out: &mut Vec<WRow>| {
        let mut row = run.first;
        if run.merged {
            // Masked cells compared by delta (tag 1) only when the first
            // row's target attribute was a point; runs of interval rows
            // compared absolutely (tag 2) and must stay absolute.
            let first_was_point = row.prim[j].is_point();
            let anchor_point = row.prim[j].lo;
            row.prim[j].hi = run.hi;
            if first_was_point {
                // Convert masked absolute cells to relative anchored at j;
                // by run compatibility the delta is shared across the run.
                for (i, cell) in row.sec.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        if let WCell::Abs(ivl) = *cell {
                            *cell = WCell::Rel {
                                anchor: j as u8,
                                delta: ivl.sub_point(anchor_point),
                            };
                        }
                    }
                }
            }
        }
        out.push(row);
    };

    let compatible = |run: &Run, row: &WRow| -> bool {
        // Exact concatenation on the target attribute.
        if run.hi + 1 != row.prim[j].lo {
            return false;
        }
        for (k, (a, b)) in run.first.prim.iter().zip(row.prim.iter()).enumerate() {
            if k != j && a != b {
                return false;
            }
        }
        run.first
            .sec
            .iter()
            .zip(row.sec.iter())
            .enumerate()
            .all(|(i, (a, b))| {
                let want_rel = mask & (1 << i) != 0;
                sec_key(a, want_rel, &run.first.prim[j]) == sec_key(b, want_rel, &row.prim[j])
            })
    };

    let mut out: Vec<WRow> = Vec::with_capacity(rows.len());
    let mut run: Option<Run> = None;
    for row in rows.drain(..) {
        match run {
            Some(ref mut r) if compatible(r, &row) => {
                r.hi = row.prim[j].hi;
                r.merged = true;
            }
            _ => {
                if let Some(r) = run.take() {
                    flush(r, &mut out);
                }
                run = Some(Run {
                    hi: row.prim[j].hi,
                    first: row,
                    merged: false,
                });
            }
        }
    }
    if let Some(r) = run.take() {
        flush(r, &mut out);
    }
    *rows = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(v: i64) -> Interval {
        Interval::point(v)
    }

    fn abs(lo: i64, hi: i64) -> WCell {
        WCell::Abs(Interval::new(lo, hi))
    }

    #[test]
    fn masks_small_full_enumeration() {
        let masks = masks_for(2);
        assert_eq!(masks.len(), 4);
        assert_eq!(masks[0], 0b11, "all-rel first");
        assert_eq!(*masks.last().unwrap(), 0);
    }

    #[test]
    fn masks_capped_for_wide_relations() {
        let masks = masks_for(10);
        assert!(masks.len() <= 2 * 10 + 2);
        assert!(masks.contains(&0));
        assert!(masks.contains(&((1u64 << 10) - 1)));
    }

    #[test]
    fn one_to_one_becomes_relative() {
        let mut rows: Vec<WRow> = (0..5)
            .map(|i| WRow {
                prim: vec![pt(i)],
                sec: vec![WCell::Abs(pt(i))],
            })
            .collect();
        primary_passes(&mut rows, 0, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].prim[0], Interval::new(0, 4));
        assert_eq!(
            rows[0].sec[0],
            WCell::Rel {
                anchor: 0,
                delta: pt(0)
            }
        );
    }

    #[test]
    fn constant_input_stays_absolute() {
        // Aggregation pattern: every output reads the same input range.
        let mut rows: Vec<WRow> = (0..4)
            .map(|i| WRow {
                prim: vec![pt(i)],
                sec: vec![abs(0, 9)],
            })
            .collect();
        primary_passes(&mut rows, 0, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].prim[0], Interval::new(0, 3));
        assert_eq!(rows[0].sec[0], abs(0, 9));
    }

    #[test]
    fn mixed_abs_and_rel_attributes() {
        // Like the paper's sum example: a1 tracks b1, a2 is constant [1,2].
        let mut rows: Vec<WRow> = (1..=3)
            .map(|i| WRow {
                prim: vec![pt(i)],
                sec: vec![WCell::Abs(pt(i)), abs(1, 2)],
            })
            .collect();
        primary_passes(&mut rows, 0, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].prim[0], Interval::new(1, 3));
        assert_eq!(
            rows[0].sec[0],
            WCell::Rel {
                anchor: 0,
                delta: pt(0)
            }
        );
        assert_eq!(rows[0].sec[1], abs(1, 2));
    }

    #[test]
    fn shifted_window_relative_interval() {
        // Convolution-ish: input interval [i-1, i+1] per output i.
        let mut rows: Vec<WRow> = (1..9)
            .map(|i| WRow {
                prim: vec![pt(i)],
                sec: vec![abs(i - 1, i + 1)],
            })
            .collect();
        primary_passes(&mut rows, 0, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].sec[0],
            WCell::Rel {
                anchor: 0,
                delta: Interval::new(-1, 1)
            }
        );
    }

    #[test]
    fn incompatible_deltas_do_not_merge() {
        // Deltas differ: i vs 2i.
        let mut rows: Vec<WRow> = (0..5)
            .map(|i| WRow {
                prim: vec![pt(i)],
                sec: vec![WCell::Abs(pt(2 * i))],
            })
            .collect();
        primary_passes(&mut rows, 0, 1);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn existing_rel_cells_compare_by_anchor_and_delta() {
        // Rows already relative to attr 1 merge over attr 0 when equal.
        let mut rows: Vec<WRow> = (0..4)
            .map(|i| WRow {
                prim: vec![pt(i), Interval::new(0, 7)],
                sec: vec![WCell::Rel {
                    anchor: 1,
                    delta: pt(0),
                }],
            })
            .collect();
        primary_passes(&mut rows, 0, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].prim[0], Interval::new(0, 3));
    }
}
