//! Property-based integration tests over randomly generated relations and
//! pipelines: compression losslessness, query/reference equivalence, merge
//! invariance, and reshaping consistency under arbitrary inputs.

use dslog::api::{Dslog, TableCapture};
use dslog::provrc;
use dslog::query::QueryOptions;
use dslog::table::{LineageTable, Orientation};
use dslog_oracle::query::reference;
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random lineage relation with bounded arities and extents,
/// plus the (out, in) shapes that bound its indices.
fn arb_relation() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    (1usize..=2, 1usize..=2).prop_flat_map(|(out_arity, in_arity)| {
        let out_shape = proptest::collection::vec(1usize..=5, out_arity);
        let in_shape = proptest::collection::vec(1usize..=5, in_arity);
        (out_shape, in_shape).prop_flat_map(move |(os, is_)| {
            let max_rows = 60usize;
            let os2 = os.clone();
            let is2 = is_.clone();
            let row = (
                proptest::collection::vec(0i64..5, out_arity),
                proptest::collection::vec(0i64..5, in_arity),
            )
                .prop_map(move |(o, i)| {
                    let o: Vec<i64> = o
                        .iter()
                        .zip(os2.iter())
                        .map(|(&v, &d)| v.min(d as i64 - 1))
                        .collect();
                    let i: Vec<i64> = i
                        .iter()
                        .zip(is2.iter())
                        .map(|(&v, &d)| v.min(d as i64 - 1))
                        .collect();
                    (o, i)
                });
            proptest::collection::vec(row, 0..max_rows).prop_map(move |rows| {
                let mut t = LineageTable::new(os.len(), is_.len());
                for (o, i) in rows {
                    t.push_pair(&o, &i);
                }
                t.normalize();
                (t, os.clone(), is_.clone())
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ProvRC is lossless in both orientations on arbitrary relations.
    #[test]
    fn compression_lossless_both_orientations((t, os, is_) in arb_relation()) {
        for orientation in [Orientation::Backward, Orientation::Forward] {
            let c = provrc::compress(&t, &os, &is_, orientation);
            prop_assert_eq!(
                c.decompress().unwrap().row_set(),
                t.row_set(),
                "orientation {:?}", orientation
            );
        }
    }

    /// Single-hop in-situ queries equal the brute-force reference for
    /// arbitrary relations and arbitrary query subsets, both directions.
    #[test]
    fn in_situ_single_hop_equals_reference(
        (t, os, is_) in arb_relation(),
        pick in proptest::collection::vec(any::<bool>(), 25),
    ) {
        let mut db = Dslog::new();
        db.define_array("in", &is_).unwrap();
        db.define_array("out", &os).unwrap();
        db.add_lineage("in", "out", &TableCapture::new(t.clone())).unwrap();

        // Backward from a random subset of output cells.
        let out_cells: Vec<Vec<i64>> = enumerate(&os)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| pick[i % pick.len()])
            .map(|(_, c)| c)
            .collect();
        if !out_cells.is_empty() {
            let got = db.prov_query(&["out", "in"], &out_cells).unwrap();
            let want = reference::step(
                &out_cells.iter().cloned().collect::<BTreeSet<_>>(),
                &t,
                Orientation::Backward,
            );
            prop_assert_eq!(got.cells.cell_set(), want);
        }

        // Forward from a random subset of input cells.
        let in_cells: Vec<Vec<i64>> = enumerate(&is_)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !pick[i % pick.len()])
            .map(|(_, c)| c)
            .collect();
        if !in_cells.is_empty() {
            let got = db.prov_query(&["in", "out"], &in_cells).unwrap();
            let want = reference::step(
                &in_cells.iter().cloned().collect::<BTreeSet<_>>(),
                &t,
                Orientation::Forward,
            );
            prop_assert_eq!(got.cells.cell_set(), want);
        }
    }

    /// The merge optimization never changes the answer set.
    #[test]
    fn merge_is_answer_invariant((t, os, is_) in arb_relation()) {
        let mut db = Dslog::new();
        db.define_array("in", &is_).unwrap();
        db.define_array("out", &os).unwrap();
        db.add_lineage("in", "out", &TableCapture::new(t)).unwrap();
        let cells = enumerate(&os);
        let merged = db
            .prov_query_opts(&["out", "in"], &cells, QueryOptions { merge: true })
            .unwrap();
        let unmerged = db
            .prov_query_opts(&["out", "in"], &cells, QueryOptions { merge: false })
            .unwrap();
        prop_assert_eq!(merged.cells.cell_set(), unmerged.cells.cell_set());
        prop_assert!(merged.cells.n_boxes() <= unmerged.cells.n_boxes());
    }

    /// Random numpy pipelines: multi-hop forward queries equal the chained
    /// reference join for arbitrary seeds.
    #[test]
    fn random_pipeline_forward_equals_reference(seed in 0u64..500, n_ops in 3usize..7) {
        let p = generate(RandomPipelineSpec { seed, n_ops, initial_cells: 64 });
        let mut db = Dslog::new();
        p.register_into(&mut db).unwrap();

        let shape = p.shape_of("a0").to_vec();
        let cells: Vec<Vec<i64>> = vec![vec![0; shape.len()]];
        let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
        let got = db.prov_query(&path, &cells).unwrap();

        let tables = p.main_path_tables();
        let hops: Vec<(&LineageTable, Orientation)> =
            tables.iter().map(|t| (*t, Orientation::Forward)).collect();
        let want = reference::chain(&cells.into_iter().collect(), &hops);
        prop_assert_eq!(got.cells.cell_set(), want);
    }

    /// Two-hop out-and-back: backward to inputs and forward again always
    /// reaches at least the starting cell when it has lineage.
    #[test]
    fn out_and_back_contains_origin((t, os, is_) in arb_relation()) {
        prop_assume!(!t.is_empty());
        let mut db = Dslog::new();
        db.define_array("in", &is_).unwrap();
        db.define_array("out", &os).unwrap();
        db.add_lineage("in", "out", &TableCapture::new(t.clone())).unwrap();

        let origin = t.row(0)[..t.out_arity()].to_vec();
        let r = db.prov_query(&["out", "in", "out"], std::slice::from_ref(&origin)).unwrap();
        prop_assert!(r.cells.contains_cell(&origin));
    }
}

fn enumerate(shape: &[usize]) -> Vec<Vec<i64>> {
    let mut cells = vec![Vec::new()];
    for &d in shape {
        let mut next = Vec::with_capacity(cells.len() * d);
        for c in cells {
            for v in 0..d as i64 {
                let mut c2 = c.clone();
                c2.push(v);
                next.push(c2);
            }
        }
        cells = next;
    }
    cells
}
