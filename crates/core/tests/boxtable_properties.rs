//! Property tests for [`BoxTable`]'s merge and cell encoding: whatever order
//! the passes run in and however a pass finds its order, the cell set is
//! kept, the result is a fixpoint, the boxes and their order are the
//! reference merge's, and `from_cells` sees a set, not a list.

use dslog::table::BoxTable;
use dslog::Interval;
use dslog_oracle::boxes::merge_reference;
use proptest::prelude::*;

/// Coordinates are drawn from `0..DIM`, intervals are at most `SPAN` long:
/// small enough that random boxes overlap, abut, nest and repeat often.
const DIM: i64 = 8;
const SPAN: i64 = 4;

/// A table of 0–12 boxes of arity 1–3; every third box or so repeats an
/// earlier one outright, or on all attributes but one.
fn arb_boxes() -> impl Strategy<Value = BoxTable> {
    (1usize..=3).prop_flat_map(|arity| {
        let interval = (0..DIM, 0..SPAN).prop_map(|(lo, len)| Interval::new(lo, lo + len));
        let one_box = (
            prop::collection::vec(interval, arity),
            0usize..3,
            0usize..12,
            0usize..3,
        );
        prop::collection::vec(one_box, 0..12).prop_map(move |raw| {
            let mut boxes: Vec<Vec<Interval>> = Vec::new();
            for (fresh, kind, earlier, keep) in raw {
                let b = match (kind, boxes.get(earlier % boxes.len().max(1))) {
                    (0, Some(old)) => old.clone(),
                    (1, Some(old)) => {
                        let mut b = old.clone();
                        b[keep % arity] = fresh[keep % arity];
                        b
                    }
                    _ => fresh,
                };
                boxes.push(b);
            }
            let rows: Vec<&[Interval]> = boxes.iter().map(Vec::as_slice).collect();
            BoxTable::from_boxes(arity, &rows)
        })
    })
}

/// Far-apart points a wide table's coordinates sit just above: its keys
/// span more than 64 bits, so the merge takes its comparison sort, and the
/// top one lets intervals reach `i64::MAX`.
const ANCHORS: [i64; 5] = [i64::MIN, -(1 << 40), 0, 1 << 40, i64::MAX - 64];

/// A table of up to 600 boxes of arity 1–4, coordinates in `0..dim` above
/// one anchor (or, one table in three, above any of [`ANCHORS`]). Most boxes
/// derive from an earlier one: a duplicate, a copy with one attribute
/// redrawn, nested inside it on one attribute, or abutting it there. Small
/// `dim`s make merges cascade: a merge on one attribute lets two boxes
/// merge on another in the next round.
fn arb_many_boxes() -> impl Strategy<Value = BoxTable> {
    let dims = (0usize..4).prop_map(|i| [2i64, 3, 8, 64][i]);
    (1usize..=4, 0usize..3, dims).prop_flat_map(|(arity, spread, dim)| {
        let anchors: &'static [i64] = if spread == 0 {
            &ANCHORS
        } else {
            &ANCHORS[2..3]
        };
        let interval = (0..anchors.len(), 0..dim, 0..SPAN).prop_map(move |(a, off, len)| {
            let lo = anchors[a] + off;
            Interval::new(lo, lo.saturating_add(len))
        });
        let one_box = (
            prop::collection::vec(interval, arity),
            0usize..6,
            0usize..600,
            0usize..4,
            0..SPAN,
        );
        prop::collection::vec(one_box, 0..600).prop_map(move |raw| {
            let mut boxes: Vec<Vec<Interval>> = Vec::new();
            for (fresh, kind, earlier, keep, d) in raw {
                let k = keep % arity;
                let b = match (kind, boxes.get(earlier % boxes.len().max(1))) {
                    (0, Some(old)) => old.clone(),
                    (1, Some(old)) => {
                        let mut b = old.clone();
                        b[k] = fresh[k];
                        b
                    }
                    (2, Some(old)) => {
                        let mut b = old.clone();
                        b[k] = Interval::new(b[k].lo + d.min(b[k].hi - b[k].lo), b[k].hi);
                        b
                    }
                    (3, Some(old)) => {
                        let mut b = old.clone();
                        let lo = b[k].hi.saturating_add(1);
                        b[k] = Interval::new(lo, lo.saturating_add(d));
                        b
                    }
                    _ => fresh,
                };
                boxes.push(b);
            }
            let rows: Vec<&[Interval]> = boxes.iter().map(Vec::as_slice).collect();
            BoxTable::from_boxes(arity, &rows)
        })
    })
}

/// Whether two boxes agree on all attributes but one and are mergeable
/// there — the pair a merged table must not hold.
fn mergeable_pair(a: &[Interval], b: &[Interval]) -> bool {
    (0..a.len()).any(|t| a[t].mergeable(&b[t]) && (0..a.len()).all(|k| k == t || a[k] == b[k]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_keeps_the_cells_and_ends_at_a_fixpoint(table in arb_boxes()) {
        let mut merged = table.clone();
        merged.merge();
        prop_assert_eq!(merged.cell_set(), table.cell_set());
        prop_assert!(merged.n_boxes() <= table.n_boxes());

        let rows: Vec<&[Interval]> = merged.boxes().collect();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                prop_assert!(!mergeable_pair(a, b), "{:?} and {:?} survived", a, b);
            }
        }

        let mut again = merged.clone();
        again.merge();
        prop_assert_eq!(again, merged);
    }

    #[test]
    fn merge_equals_the_reference_box_for_box(table in arb_many_boxes()) {
        let mut merged = table.clone();
        merged.merge();
        let mut reference = table;
        merge_reference(&mut reference);
        prop_assert_eq!(merged, reference);
    }

    #[test]
    fn from_cells_sees_a_set(
        arity in 1usize..=3,
        raw in prop::collection::vec(prop::collection::vec(0i64..DIM, 3), 0..40),
        seed in 0usize..1000,
    ) {
        let mut sorted: Vec<Vec<i64>> = raw.into_iter().map(|c| c[..arity].to_vec()).collect();
        sorted.sort();
        sorted.dedup();
        // A deterministic shuffle, and a copy with every third cell doubled.
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (seed * 31 + i * 17) % (i + 1));
        }
        let doubled: Vec<Vec<i64>> = shuffled
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(c.clone(), 1 + usize::from(i % 3 == 0)))
            .collect();

        let expected: std::collections::BTreeSet<Vec<i64>> = sorted.iter().cloned().collect();
        let from_sorted = BoxTable::from_cells(arity, &sorted);
        prop_assert_eq!(from_sorted.cell_set(), expected.clone());
        prop_assert_eq!(BoxTable::from_cells(arity, &shuffled).cell_set(), expected.clone());
        prop_assert_eq!(BoxTable::from_cells(arity, &doubled).cell_set(), expected);
        // Already merged: a caller's second merge changes nothing.
        let mut again = from_sorted.clone();
        again.merge();
        prop_assert_eq!(again, from_sorted);
    }
}
