//! Property-based parity suite for the query planner: over randomized
//! multi-hop databases (1–5 hops, both hop orientations), the planner must
//! be a pure access-path change. Planned queries answer the cells the
//! brute-force join over the raw rows answers
//! (`dslog_oracle::query::reference`), before and after a composite edge
//! serves the path (three sightings materialize it); a planned query
//! either runs the path in order, hop for hop what [`QueryExec::chain`]
//! does over the path's tables, or is served by a composite; a batched
//! query answers cell-for-cell the same as a per-query loop; and ingest
//! between queries invalidates any composite built over the replaced edge.

use dslog::api::{Dslog, TableCapture};
use dslog::query::{QueryExec, QueryStats};
use dslog::table::{BoxTable, LineageTable, Orientation};
use dslog_oracle::query::reference;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Grid dimension for every attribute (values are drawn from `0..DIM`).
const DIM: i64 = 5;

/// One randomized database + query scenario: a path of 2–6 arrays, one
/// relation per hop, a per-hop direction, replacement rows for the
/// invalidation property, and a seed choosing query cells.
#[derive(Debug, Clone)]
struct Case {
    /// Attribute count of each array along the path.
    arities: Vec<usize>,
    /// `true` = backward hop (array i is the relation's out side).
    backward: Vec<bool>,
    /// One relation per hop, rows already truncated to the hop's arity.
    relations: Vec<Vec<Vec<i64>>>,
    /// Replacement rows for one hop (ingest-between-queries property).
    replacement: Vec<Vec<i64>>,
    /// Selects the queried array-0 cells and the replaced hop.
    seed: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=5).prop_flat_map(|hops| {
        (
            prop::collection::vec(1usize..=2, hops + 1),
            prop::collection::vec(prop::bool::ANY, hops),
            // Rows are generated at the maximum arity (2 + 2) and truncated
            // per hop, so one homogeneous strategy serves every hop.
            prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0i64..DIM, 4), 0..30),
                hops,
            ),
            prop::collection::vec(prop::collection::vec(0i64..DIM, 4), 0..30),
            0usize..16,
        )
            .prop_map(|(arities, backward, raw_rows, raw_repl, seed)| {
                let truncate = |rows: Vec<Vec<i64>>, i: usize| -> Vec<Vec<i64>> {
                    let (out_a, in_a) = hop_arities(&arities, &backward, i);
                    rows.into_iter()
                        .map(|r| r[..out_a + in_a].to_vec())
                        .collect()
                };
                let relations: Vec<_> = raw_rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, rows)| truncate(rows, i))
                    .collect();
                let replacement = truncate(raw_repl, seed % backward.len());
                Case {
                    arities,
                    backward,
                    relations,
                    replacement,
                    seed,
                }
            })
    })
}

/// (out_arity, in_arity) of hop `i`'s relation. A backward hop stores
/// `R(array_i, array_{i+1})`; a forward hop stores `R(array_{i+1}, array_i)`.
fn hop_arities(arities: &[usize], backward: &[bool], i: usize) -> (usize, usize) {
    if backward[i] {
        (arities[i], arities[i + 1])
    } else {
        (arities[i + 1], arities[i])
    }
}

fn array_names(case: &Case) -> Vec<String> {
    (0..case.arities.len()).map(|i| format!("S{i}")).collect()
}

fn lineage(rows: &[Vec<i64>], out_a: usize, in_a: usize) -> LineageTable {
    let mut t = LineageTable::new(out_a, in_a);
    for r in rows {
        t.push_row(r);
    }
    t.normalize();
    t
}

/// Ingest hop `i`'s relation: the hop's out side is the lineage edge's
/// out array, so querying along the path crosses it in the right
/// direction regardless of orientation.
fn ingest_hop(db: &mut Dslog, case: &Case, names: &[String], i: usize, rows: &[Vec<i64>]) {
    let (out_a, in_a) = hop_arities(&case.arities, &case.backward, i);
    let (in_arr, out_arr) = if case.backward[i] {
        (&names[i + 1], &names[i])
    } else {
        (&names[i], &names[i + 1])
    };
    db.add_lineage(
        in_arr,
        out_arr,
        &TableCapture::new(lineage(rows, out_a, in_a)),
    )
    .unwrap();
}

fn build_db(case: &Case) -> (Dslog, Vec<String>) {
    let names = array_names(case);
    let mut db = Dslog::new();
    for (name, &a) in names.iter().zip(&case.arities) {
        db.define_array(name, &vec![DIM as usize; a]).unwrap();
    }
    for (i, rows) in case.relations.iter().enumerate() {
        ingest_hop(&mut db, case, &names, i, rows);
    }
    (db, names)
}

/// Planned queries per property: the third sighting of a path
/// materializes its composite and serves from it, and the later ones are
/// served from it too.
const PLANNED_RUNS: usize = 5;

/// Query cells: a deterministic subset of the array-0 cells that appear
/// in the first relation (so queries usually hit something).
fn query_cells(case: &Case) -> Vec<Vec<i64>> {
    let a0 = case.arities[0];
    let (out_a, _) = hop_arities(&case.arities, &case.backward, 0);
    let side: BTreeSet<Vec<i64>> = case.relations[0]
        .iter()
        .map(|r| {
            if case.backward[0] {
                r[..a0].to_vec()
            } else {
                r[out_a..out_a + a0].to_vec()
            }
        })
        .collect();
    side.into_iter()
        .enumerate()
        .filter(|(i, _)| (i + case.seed).is_multiple_of(3))
        .map(|(_, c)| c)
        .collect()
}

/// The oracle's answer: the raw-row join along the path, over `relations`
/// (one per hop — `case.relations`, or that with one hop replaced).
fn reference_answer(
    case: &Case,
    relations: &[Vec<Vec<i64>>],
    cells: &[Vec<i64>],
) -> BTreeSet<Vec<i64>> {
    let tables: Vec<LineageTable> = relations
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            let (out_a, in_a) = hop_arities(&case.arities, &case.backward, i);
            lineage(rows, out_a, in_a)
        })
        .collect();
    let hops: Vec<(&LineageTable, Orientation)> = tables
        .iter()
        .zip(&case.backward)
        .map(|(t, &b)| {
            (
                t,
                if b {
                    Orientation::Backward
                } else {
                    Orientation::Forward
                },
            )
        })
        .collect();
    reference::chain(&cells.iter().cloned().collect(), &hops)
}

fn run(db: &Dslog, path: &[&str], cells: &[Vec<i64>]) -> BTreeSet<Vec<i64>> {
    db.prov_query(path, cells).unwrap().cells.cell_set()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planned queries equal the oracle, in path order and from a
    /// composite edge served after the hit threshold (the repeated
    /// queries cross the threshold, materialize, then serve).
    #[test]
    fn planner_and_composite_hits_match_reference(case in arb_case()) {
        let (db, names) = build_db(&case);
        let path: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells = query_cells(&case);
        prop_assume!(!cells.is_empty());

        let expected = reference_answer(&case, &case.relations, &cells);
        for _ in 0..PLANNED_RUNS {
            prop_assert_eq!(run(&db, &path, &cells), expected.clone());
        }
    }

    /// The planner's contract: every planned query either ran the path in
    /// order or was served by a composite edge, and a `path_order` plan
    /// probed, matched and emitted per hop exactly what
    /// [`QueryExec::chain`] does over the path's resolved tables.
    #[test]
    fn planned_queries_run_path_order_or_a_composite(case in arb_case()) {
        let (db, names) = build_db(&case);
        let path: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells = query_cells(&case);
        prop_assume!(!cells.is_empty());

        let per_hop = |stats: &QueryStats| -> Vec<(usize, usize, usize)> {
            stats
                .hops
                .iter()
                .map(|h| (h.rows_probed, h.rows_matched, h.boxes_emitted))
                .collect()
        };
        let tables: Vec<_> = path
            .windows(2)
            .map(|hop| db.storage().resolve_hop(hop[0], hop[1]).unwrap().0)
            .collect();
        let hops: Vec<_> = tables.iter().collect();
        let query = BoxTable::from_cells(case.arities[0], &cells);
        let (_, chained) = QueryExec::default().chain(&query, &hops).unwrap();
        prop_assert!(chained.plan.is_none());
        for _ in 0..PLANNED_RUNS {
            let on = db.prov_query(&path, &cells).unwrap().stats;
            let label = on.plan.as_ref().map(|p| p.decision.label());
            if label == Some("path_order") {
                prop_assert_eq!(per_hop(&on), per_hop(&chained));
            } else {
                prop_assert_eq!(label, Some("composite"));
            }
        }
    }

    /// A batched query answers cell-for-cell the same as a per-query
    /// loop.
    #[test]
    fn batch_matches_per_query_loop(case in arb_case()) {
        let (db, names) = build_db(&case);
        let path: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells = query_cells(&case);
        prop_assume!(!cells.is_empty());
        let chunk = cells.len().div_ceil(3).max(1);
        let queries: Vec<Vec<Vec<i64>>> = cells.chunks(chunk).map(<[_]>::to_vec).collect();

        let batch = db.prov_query_batch(&path, &queries).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for (result, query) in batch.iter().zip(&queries) {
            prop_assert_eq!(result.cells.cell_set(), run(&db, &path, query));
        }
    }

    /// Replacing one hop's edge between queries invalidates any composite
    /// built over it: answers match the oracle over the new relations,
    /// never the stale materialization.
    #[test]
    fn ingest_between_queries_invalidates_composites(case in arb_case()) {
        let (mut db, names) = build_db(&case);
        let path: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells = query_cells(&case);
        prop_assume!(!cells.is_empty());

        // Warm: the third sighting materializes a composite, the later
        // ones serve it.
        for _ in 0..PLANNED_RUNS {
            run(&db, &path, &cells);
        }
        let replaced = case.seed % case.backward.len();
        ingest_hop(&mut db, &case, &names, replaced, &case.replacement);
        let mut relations = case.relations.clone();
        relations[replaced] = case.replacement.clone();

        // The re-ingest restarts the sightings: these cross the threshold
        // again, and serve the composite built over the new edge.
        let expected = reference_answer(&case, &relations, &cells);
        for _ in 0..PLANNED_RUNS {
            prop_assert_eq!(run(&db, &path, &cells), expected.clone());
        }
    }
}
