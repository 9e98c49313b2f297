//! Property-based parity suite for the indexed query engine: over
//! randomized compressed tables (both orientations, 1–3 hops, merge on and
//! off), [`QueryExec`] must agree exactly with the brute-force join over
//! the raw rows (`dslog_oracle::query::reference`). About half the hops
//! whose far side has two attributes also carry a `B[i] = A[i+d1, i+d2]`
//! diagonal — two relative cells on one anchor — and half the cases query
//! whole runs of cells, so the kernel's shared-anchor split is reached with
//! point and non-point boxes alike.

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
    /// Query every space-0 cell of the first relation (adjacent cells, so
    /// Q′ holds non-point boxes) instead of every third (point boxes).
    dense: bool,
}

/// A shared-anchor diagonal for one hop: for `i` in `start..start + len`,
/// query-side cell `(i)` — or `(i, 0)` and `(i, 1)` — is linked to far-side
/// cell `(i + d1, i + d2)`. Only used where the far side has two attributes.
type Diagonal = Option<(i64, i64, i64, i64)>;

fn arb_diagonal() -> impl Strategy<Value = Diagonal> {
    (prop::bool::ANY, 0i64..2, 2i64..=4, 0i64..2, 0i64..2)
        .prop_map(|(on, start, len, d1, d2)| on.then_some((start, len, d1, d2)))
}

/// The diagonal's raw rows (out attributes first) for hop `i`, or nothing
/// when the hop's far side is not two attributes wide.
fn diagonal_rows(arities: &[usize], backward: &[bool], i: usize, diag: Diagonal) -> Vec<Vec<i64>> {
    let Some((start, len, d1, d2)) = diag else {
        return Vec::new();
    };
    if arities[i + 1] != 2 {
        return Vec::new();
    }
    let mut rows = Vec::new();
    for v in start..(start + len).min(DIM - 1) {
        let far = vec![v + d1, v + d2];
        let near: Vec<Vec<i64>> = match arities[i] {
            1 => vec![vec![v]],
            _ => vec![vec![v, 0], vec![v, 1]],
        };
        for near in near {
            let (out, inp) = if backward[i] {
                (&near, &far)
            } else {
                (&far, &near)
            };
            rows.push(out.iter().chain(inp).copied().collect());
        }
    }
    rows
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
            prop::collection::vec(arb_diagonal(), hops),
            0usize..3,
            prop::bool::ANY,
        )
            .prop_map(|(arities, backward, raw_rows, diagonals, seed, dense)| {
                let relations = raw_rows
                    .into_iter()
                    .zip(diagonals)
                    .enumerate()
                    .map(|(i, (rows, diag))| {
                        let (out_a, in_a) = hop_arities(&arities, &backward, i);
                        rows.into_iter()
                            .map(|r| r[..out_a + in_a].to_vec())
                            .chain(diagonal_rows(&arities, &backward, i, diag))
                            .collect()
                    })
                    .collect();
                Case {
                    arities,
                    backward,
                    relations,
                    seed,
                    dense,
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
/// the first relation (so queries usually hit something) — all of them for
/// a dense case, every third otherwise.
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
        .filter(|(i, _)| case.dense || (i + case.seed).is_multiple_of(3))
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

/// `B[i] = A[i+1, i]` (primary arity 1) and `B[i, j] = A[i, i]` (primary
/// arity 2): each compresses to one row with two relative cells on one
/// anchor, so a non-point query box must take the kernel's split path — one
/// box per anchor value, more boxes than matched rows — and a point box
/// must not.
#[test]
fn shared_anchor_rows_split_only_on_non_point_boxes() {
    for primary in [1usize, 2] {
        let mut t = LineageTable::new(primary, 2);
        for i in 0..4i64 {
            match primary {
                1 => t.push_row(&[i, i + 1, i]),
                _ => (0..2).for_each(|j| t.push_row(&[i, j, i, i])),
            }
        }
        t.normalize();
        let out_shape = vec![DIM as usize; primary];
        let c = provrc::compress(&t, &out_shape, &[DIM as usize; 2], Orientation::Backward);
        assert_eq!(c.n_rows(), 1, "the diagonal compresses to one row");

        let point: Vec<Vec<i64>> = vec![[2, 1][..primary].to_vec()];
        let range: Vec<Vec<i64>> = (1..4).map(|i| [i, 1][..primary].to_vec()).collect();
        for (cells, splits) in [(point, false), (range, true)] {
            let q = BoxTable::from_cells(primary, &cells);
            assert_eq!(q.n_boxes(), 1);
            let (got, stats) = QueryExec::default().hop(&q, &c).unwrap();
            assert_eq!(stats.rows_matched, 1);
            assert_eq!(stats.boxes_emitted > 1, splits, "primary arity {primary}");
            let expected = reference::step(&cells.into_iter().collect(), &t, Orientation::Backward);
            assert_eq!(got.cell_set(), expected);
        }
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
