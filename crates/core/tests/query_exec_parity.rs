//! Property-based parity suite for the indexed query engine: over
//! randomized compressed tables (both orientations, 1–3 hops, merge on and
//! off), [`QueryExec`] must agree exactly with the brute-force join over
//! the raw rows (`dslog_oracle::query::reference`).

use dslog::provrc;
use dslog::query::{QueryExec, QueryOptions};
use dslog::table::{BoxTable, CompressedTable, LineageTable, Orientation};
use dslog_oracle::query::reference;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Grid dimension for every attribute (values are drawn from `0..DIM`).
const DIM: i64 = 5;

/// One randomized query scenario: a path of 2–4 spaces, one relation per
/// hop, a per-hop direction, and a seed choosing the query cells.
#[derive(Debug, Clone)]
struct Case {
    /// Attribute count of each space along the path.
    arities: Vec<usize>,
    /// `true` = backward hop (space i is the relation's out side).
    backward: Vec<bool>,
    /// One relation per hop, rows already truncated to the hop's arity.
    relations: Vec<Vec<Vec<i64>>>,
    /// Selects which space-0 cells are queried.
    seed: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=3).prop_flat_map(|hops| {
        (
            prop::collection::vec(1usize..=2, hops + 1),
            prop::collection::vec(prop::bool::ANY, hops),
            // Rows are generated at the maximum arity (2 + 2) and truncated
            // per hop, so one homogeneous strategy serves every hop.
            prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0i64..DIM, 4), 0..40),
                hops,
            ),
            0usize..3,
        )
            .prop_map(|(arities, backward, raw_rows, seed)| {
                let relations = raw_rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, rows)| {
                        let (out_a, in_a) = hop_arities(&arities, &backward, i);
                        rows.into_iter()
                            .map(|r| r[..out_a + in_a].to_vec())
                            .collect()
                    })
                    .collect();
                Case {
                    arities,
                    backward,
                    relations,
                    seed,
                }
            })
    })
}

/// (out_arity, in_arity) of hop `i`'s relation. A backward hop stores
/// `R(space_i, space_{i+1})`; a forward hop stores `R(space_{i+1}, space_i)`.
fn hop_arities(arities: &[usize], backward: &[bool], i: usize) -> (usize, usize) {
    if backward[i] {
        (arities[i], arities[i + 1])
    } else {
        (arities[i + 1], arities[i])
    }
}

/// The orientation whose primary side is a hop's query side.
fn orientation(backward: bool) -> Orientation {
    if backward {
        Orientation::Backward
    } else {
        Orientation::Forward
    }
}

/// Build the uncompressed tables, the compressed tables (oriented so each
/// hop's primary side is its query side), and the reference hop list.
fn build(case: &Case) -> (Vec<LineageTable>, Vec<CompressedTable>) {
    let mut fulls = Vec::new();
    let mut compressed = Vec::new();
    for (i, rows) in case.relations.iter().enumerate() {
        let (out_a, in_a) = hop_arities(&case.arities, &case.backward, i);
        let mut t = LineageTable::new(out_a, in_a);
        for r in rows {
            t.push_row(r);
        }
        t.normalize();
        let c = provrc::compress(
            &t,
            &vec![DIM as usize; out_a],
            &vec![DIM as usize; in_a],
            orientation(case.backward[i]),
        );
        fulls.push(t);
        compressed.push(c);
    }
    (fulls, compressed)
}

/// Query cells: a deterministic subset of the space-0 cells that appear in
/// the first relation (so queries usually hit something).
fn query_cells(case: &Case, fulls: &[LineageTable]) -> Vec<Vec<i64>> {
    let t = &fulls[0];
    let side: BTreeSet<Vec<i64>> = t
        .rows()
        .map(|r| {
            if case.backward[0] {
                r[..t.out_arity()].to_vec()
            } else {
                r[t.out_arity()..].to_vec()
            }
        })
        .collect();
    side.into_iter()
        .enumerate()
        .filter(|(i, _)| (i + case.seed).is_multiple_of(3))
        .map(|(_, c)| c)
        .collect()
}

fn reference_result(case: &Case, fulls: &[LineageTable], cells: &[Vec<i64>]) -> BTreeSet<Vec<i64>> {
    let hops: Vec<(&LineageTable, Orientation)> = fulls
        .iter()
        .zip(&case.backward)
        .map(|(t, &b)| (t, orientation(b)))
        .collect();
    reference::chain(&cells.iter().cloned().collect(), &hops)
}

fn run_chain(opts: QueryOptions, q: &BoxTable, tables: &[CompressedTable]) -> BoxTable {
    let refs: Vec<&CompressedTable> = tables.iter().collect();
    QueryExec::new(opts).chain(q, &refs).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Indexed, merged execution equals the decompressed reference join.
    #[test]
    fn indexed_chain_matches_reference(case in arb_case()) {
        let (fulls, tables) = build(&case);
        let cells = query_cells(&case, &fulls);
        prop_assume!(!cells.is_empty());
        let q = BoxTable::from_cells(case.arities[0], &cells);
        let expected = reference_result(&case, &fulls, &cells);

        let got = run_chain(QueryOptions::default(), &q, &tables);
        prop_assert_eq!(got.cell_set(), expected);
    }

    /// The merge step is an optimization, not a semantics change: the
    /// indexed engine without inter-hop merging covers the same cell set.
    #[test]
    fn indexed_no_merge_matches_reference(case in arb_case()) {
        let (fulls, tables) = build(&case);
        let cells = query_cells(&case, &fulls);
        prop_assume!(!cells.is_empty());
        let q = BoxTable::from_cells(case.arities[0], &cells);
        let expected = reference_result(&case, &fulls, &cells);

        let got = run_chain(
            QueryOptions { merge: false, ..QueryOptions::default() },
            &q,
            &tables,
        );
        prop_assert_eq!(got.cell_set(), expected);
    }
}

#[test]
fn matches_reference_on_aggregate() {
    let mut t = LineageTable::new(1, 2);
    for b in 0..5 {
        for j in 0..3 {
            t.push_row(&[b, b, j]);
        }
    }
    let c = provrc::compress(&t, &[5], &[5, 3], Orientation::Backward);
    let cells = vec![vec![1i64], vec![3]];
    let q = BoxTable::from_cells(1, &cells);
    let (got, _) = QueryExec::default().hop(&q, &c).unwrap();
    let expected = reference::step(&cells.into_iter().collect(), &t, Orientation::Backward);
    assert_eq!(got.cell_set(), expected);
}

/// A poorly compressible table (the compressed form keeps about one row
/// per raw row): the hop answers what the raw relation answers, and the
/// index is selective.
#[test]
fn indexed_path_matches_reference_on_scatter() {
    let n = 200i64;
    let mut t = LineageTable::new(1, 1);
    for i in 0..n {
        t.push_row(&[i, (i * 48271) % n]);
    }
    let c = provrc::compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
    assert!(c.n_rows() > (n / 2) as usize, "scatter must stay scattered");
    let cells: Vec<Vec<i64>> = (0..n).step_by(3).map(|v| vec![v]).collect();
    let q = BoxTable::from_cells(1, &cells);

    let (result, stats) = QueryExec::default().hop(&q, &c).unwrap();
    assert!(
        stats.rows_probed < q.n_boxes() * c.n_rows(),
        "the index must not hand back every row for every box"
    );
    let expected = reference::step(&cells.into_iter().collect(), &t, Orientation::Backward);
    assert_eq!(result.cell_set(), expected);
}
