//! Property-based parity suite for hops in both directions over one stored
//! orientation: a table compressed in either orientation, queried along it
//! or against it (the reverse probe), must answer exactly the cells the
//! brute-force join over the raw rows answers
//! (`dslog_oracle::query::reference`).
//!
//! Tables come from random relations (absolute and relative cells), from
//! windowed relations (relative cells with wide deltas), and from
//! relations whose secondary cells share one anchor (the diagonal shape
//! the along-direction kernel has to split); each is also run through
//! `reshape::generalize` + `instantiate`, the path a reused (symbolic)
//! mapping takes before it is queried. A multi-hop case runs planned
//! forward queries over a store that holds only backward tables, past the
//! composite threshold, before and after the composite edge forms.

use dslog::api::{Dslog, TableCapture};
use dslog::provrc::{self, reshape};
use dslog::query::{Hop, PlanDecision, QueryExec};
use dslog::table::{BoxTable, CompressedTable, LineageTable, Orientation};
use dslog::{DslogError, Interval};
use dslog_oracle::query::reference;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Extent of every attribute (values are drawn from `0..DIM`).
const DIM: i64 = 6;

/// A relation over `DIM`-sized attributes, as `(table, out_shape, in_shape)`.
type Relation = (LineageTable, Vec<usize>, Vec<usize>);

fn relation(out_arity: usize, in_arity: usize, rows: &[Vec<i64>]) -> Relation {
    let mut t = LineageTable::new(out_arity, in_arity);
    for r in rows {
        t.push_row(r);
    }
    t.normalize();
    let shape = |n| vec![DIM as usize; n];
    (t, shape(out_arity), shape(in_arity))
}

/// Random rows: arities 1–2 × 1–2.
fn arb_random() -> impl Strategy<Value = Relation> {
    (1usize..=2, 1usize..=2).prop_flat_map(|(out_arity, in_arity)| {
        let row = prop::collection::vec(0i64..DIM, out_arity + in_arity);
        prop::collection::vec(row, 0..50).prop_map(move |rows| relation(out_arity, in_arity, &rows))
    })
}

/// `out[i]` reads `in[i + shift ..= i + shift + width]`: relative cells
/// whose deltas are wider than a point.
fn arb_window() -> impl Strategy<Value = Relation> {
    (-2i64..3, 0i64..3, 0i64..DIM).prop_map(|(shift, width, skip)| {
        let rows: Vec<Vec<i64>> = (0..DIM)
            .filter(|&i| i != skip)
            .flat_map(|i| (i + shift..=i + shift + width).map(move |a| vec![i, a]))
            .filter(|r| (0..DIM).contains(&r[1]))
            .collect();
        relation(1, 1, &rows)
    })
}

/// `out[i]` reads `in[i + s, i + t]` for a run of `i`, plus random noise
/// rows: two secondary cells anchored on one primary attribute.
fn arb_shared_anchor() -> impl Strategy<Value = Relation> {
    let noise = prop::collection::vec(prop::collection::vec(0i64..DIM, 3), 0..6);
    (0i64..2, 0i64..2, 1i64..DIM, noise).prop_map(|(s, t, len, noise)| {
        let mut rows: Vec<Vec<i64>> = (0..len)
            .map(|i| vec![i, i + s, i + t])
            .filter(|r| r.iter().all(|&v| v < DIM))
            .collect();
        rows.extend(noise);
        relation(1, 2, &rows)
    })
}

/// A relation of one output and one input attribute: random or windowed.
fn arb_one_to_one_arity() -> impl Strategy<Value = Relation> {
    let row = prop::collection::vec(0i64..DIM, 2);
    let random = prop::collection::vec(row, 0..30).prop_map(|rows| relation(1, 1, &rows));
    prop_oneof![random, arb_window()]
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    prop_oneof![arb_random(), arb_window(), arb_shared_anchor()]
}

/// Every cell of a `DIM`-sized space of `arity` attributes.
fn all_cells(arity: usize) -> Vec<Vec<i64>> {
    (0..DIM.pow(arity as u32))
        .map(|mut p| {
            let mut cell = vec![0; arity];
            for v in cell.iter_mut().rev() {
                *v = p % DIM;
                p /= DIM;
            }
            cell
        })
        .collect()
}

/// The query side of a hop in `direction` over `R(out, in)`.
fn query_arity(t: &LineageTable, direction: Orientation) -> usize {
    match direction {
        Orientation::Backward => t.out_arity(),
        Orientation::Forward => t.in_arity(),
    }
}

/// One hop over `table` in `direction`, for every single cell and for one
/// box of the query side, against the reference join over `t`.
fn assert_hops_match(
    table: &CompressedTable,
    t: &LineageTable,
    lo: i64,
    hi: i64,
) -> Result<(), TestCaseError> {
    let exec = QueryExec::default();
    for direction in [Orientation::Backward, Orientation::Forward] {
        let hop = Hop::new(table, direction);
        let arity = query_arity(t, direction);
        for cell in all_cells(arity) {
            let q = BoxTable::from_cells(arity, std::slice::from_ref(&cell));
            let (got, _) = exec.hop(&q, hop).unwrap();
            let want = reference::step(&[cell.clone()].into_iter().collect(), t, direction);
            prop_assert_eq!(
                got.cell_set(),
                want,
                "{:?} table, {:?} hop from {:?}",
                table.orientation(),
                direction,
                cell
            );
        }
        let bx = vec![Interval::new(lo, hi); arity];
        let q = BoxTable::from_boxes(arity, &[&bx]);
        let (got, _) = exec.hop(&q, hop).unwrap();
        let want = reference::step(&q.cell_set(), t, direction);
        prop_assert_eq!(got.cell_set(), want, "{:?} box hop", direction);
    }
    Ok(())
}

proptest! {
    /// A table stored in either orientation answers both hop directions
    /// as the raw relation does — and so does its generalized form once
    /// instantiated.
    #[test]
    fn both_directions_over_either_orientation(
        (t, out_shape, in_shape) in arb_relation(),
        (lo, width) in (0i64..DIM, 0i64..3),
    ) {
        let hi = (lo + width).min(DIM - 1);
        for stored in [Orientation::Backward, Orientation::Forward] {
            let table = provrc::compress(&t, &out_shape, &in_shape, stored);
            assert_hops_match(&table, &t, lo, hi)?;
            let generalized = reshape::generalize(&table);
            if generalized.is_generalized() {
                for direction in [Orientation::Backward, Orientation::Forward] {
                    let q = BoxTable::new(query_arity(&t, direction));
                    let err = QueryExec::default().hop(&q, Hop::new(&generalized, direction));
                    prop_assert_eq!(err.err(), Some(DslogError::NotInstantiated));
                }
            }
            let instantiated = reshape::instantiate(&generalized, &out_shape, &in_shape).unwrap();
            assert_hops_match(&instantiated, &t, lo, hi)?;
        }
    }

    /// Planned forward queries over a store of backward tables only: the
    /// first sightings run the path hop by hop through the reverse probe,
    /// the third materializes the composite edge, and every answer is the
    /// reference chain's.
    #[test]
    fn planned_forward_queries_on_a_backward_only_store(
        relations in prop::collection::vec(arb_one_to_one_arity(), 2..=4),
        start in 0i64..DIM,
    ) {
        let names: Vec<String> = (0..=relations.len()).map(|i| format!("S{i}")).collect();
        let mut db = Dslog::new();
        for name in &names {
            db.define_array(name, &[DIM as usize]).unwrap();
        }
        // Edge S_i -> S_{i+1}: the forward path S0, S1, … crosses each
        // against its stored (backward) orientation.
        for (i, (t, _, _)) in relations.iter().enumerate() {
            db.add_lineage(&names[i], &names[i + 1], &TableCapture::new(t.clone())).unwrap();
            let stored = db.storage().stored_table(&names[i], &names[i + 1]).unwrap();
            prop_assert_eq!(stored.orientation(), Orientation::Backward);
        }
        let path: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells = vec![vec![start], vec![(start + 2) % DIM]];
        let hops: Vec<(&LineageTable, Orientation)> =
            relations.iter().map(|(t, _, _)| (t, Orientation::Forward)).collect();
        let want = reference::chain(&cells.iter().cloned().collect(), &hops);
        let mut decisions = Vec::new();
        for _ in 0..5 {
            let r = db.prov_query(&path, &cells).unwrap();
            prop_assert_eq!(r.cells.cell_set(), want.clone());
            decisions.push(r.stats.plan.unwrap().decision);
        }
        prop_assert!(db.storage().has_composite(&path));
        prop_assert_eq!(&decisions[..2], &[PlanDecision::PathOrder, PlanDecision::PathOrder]);
        for d in &decisions[2..] {
            prop_assert!(matches!(d, PlanDecision::CompositeEdge { .. }), "{:?}", decisions);
        }
    }
}

/// The paper's Fig. 1(B) sum, stored backward: a forward query from an
/// input cell reaches the one output cell it was summed into, and a box
/// of input cells the union of theirs.
#[test]
fn forward_hop_over_the_paper_sum() {
    let mut t = LineageTable::new(1, 2);
    for i in 0..3 {
        for j in 0..2 {
            t.push_row(&[i, i, j]);
        }
    }
    let table = provrc::compress(&t, &[3], &[3, 2], Orientation::Backward);
    assert_eq!(table.n_rows(), 1);
    let hop = Hop::new(&table, Orientation::Forward);
    let q = BoxTable::from_cells(2, &[vec![1, 1]]);
    let (out, stats) = QueryExec::default().hop(&q, hop).unwrap();
    assert_eq!(out.cell_set(), BTreeSet::from([vec![1]]));
    assert_eq!((stats.rows_probed, stats.rows_matched), (1, 1));
    let q = BoxTable::from_boxes(2, &[&[Interval::new(0, 1), Interval::new(0, 1)]]);
    let (out, _) = QueryExec::default().hop(&q, hop).unwrap();
    assert_eq!(out.cell_set(), BTreeSet::from([vec![0], vec![1]]));
}
