//! End-to-end integration tests: real operations from the array engine are
//! captured, ingested through the public `Dslog` API, compressed with
//! ProvRC, and queried in situ — every answer is checked against the
//! brute-force reference over the *uncompressed* relation.

use dslog::api::{Dslog, TableCapture};
use dslog::query::QueryOptions;
use dslog::table::{LineageTable, Orientation};
use dslog_array::{apply, Array, OpArgs};
use dslog_oracle::query::reference;
use dslog_workloads::pipelines::random_array;
use std::collections::BTreeSet;

/// Register one op's lineage (input 0) under the array names `in`/`out`.
fn register(db: &mut Dslog, op: &str, a: &Array, args: &OpArgs) -> (LineageTable, Vec<usize>) {
    let r = apply(op, &[a], args);
    db.define_array("in", a.shape()).unwrap();
    db.define_array("out", r.output.shape()).unwrap();
    db.register_operation(
        op,
        &["in"],
        &["out"],
        vec![Box::new(TableCapture::new(r.lineage[0].clone()))],
        &[],
        false,
    )
    .unwrap();
    (r.lineage[0].clone(), r.output.shape().to_vec())
}

/// Every backward query over every output cell must match the reference.
fn check_all_backward(db: &Dslog, lineage: &LineageTable, out_shape: &[usize]) {
    for cell in enumerate_cells(out_shape) {
        let got = db
            .prov_query(&["out", "in"], std::slice::from_ref(&cell))
            .unwrap();
        let want = reference::step(
            &[cell.clone()].into_iter().collect(),
            lineage,
            Orientation::Backward,
        );
        assert_eq!(got.cells.cell_set(), want, "backward from {cell:?}");
    }
}

fn enumerate_cells(shape: &[usize]) -> Vec<Vec<i64>> {
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

#[test]
fn elementwise_negative_roundtrip() {
    let a = random_array(&[8, 6], 1);
    let mut db = Dslog::new();
    let (lineage, out_shape) = register(&mut db, "negative", &a, &OpArgs::none());
    check_all_backward(&db, &lineage, &out_shape);
}

#[test]
fn axis_aggregation_roundtrip() {
    let a = random_array(&[7, 5], 2);
    let mut db = Dslog::new();
    let (lineage, out_shape) = register(&mut db, "sum", &a, &OpArgs::ints(&[1]));
    check_all_backward(&db, &lineage, &out_shape);
}

#[test]
fn sort_worst_case_roundtrip() {
    // Sort has permutation lineage — ProvRC barely compresses it, but the
    // query path must stay exact.
    let a = random_array(&[40], 3);
    let mut db = Dslog::new();
    let (lineage, out_shape) = register(&mut db, "sort", &a, &OpArgs::none());
    check_all_backward(&db, &lineage, &out_shape);
}

#[test]
fn tile_repetition_roundtrip_forward() {
    let a = random_array(&[12], 4);
    let mut db = Dslog::new();
    let (lineage, _) = register(&mut db, "tile", &a, &OpArgs::ints(&[3]));
    // Forward from every input cell.
    for v in 0..12i64 {
        let got = db.prov_query(&["in", "out"], &[vec![v]]).unwrap();
        let want = reference::step(
            &[vec![v]].into_iter().collect(),
            &lineage,
            Orientation::Forward,
        );
        assert_eq!(got.cells.cell_set(), want, "forward from [{v}]");
    }
}

#[test]
fn multi_input_matmul_both_sides() {
    // C = A·B: lineage to each input is stored as a separate edge.
    let a = random_array(&[4, 3], 5);
    let b = random_array(&[3, 5], 6);
    let r = apply("matmul", &[&a, &b], &OpArgs::none());
    let mut db = Dslog::new();
    db.define_array("A", a.shape()).unwrap();
    db.define_array("B", b.shape()).unwrap();
    db.define_array("C", r.output.shape()).unwrap();
    db.register_operation(
        "matmul",
        &["A", "B"],
        &["C"],
        vec![
            Box::new(TableCapture::new(r.lineage[0].clone())),
            Box::new(TableCapture::new(r.lineage[1].clone())),
        ],
        &[],
        false,
    )
    .unwrap();

    // C[i,j] depends on row i of A and column j of B.
    let got_a = db.prov_query(&["C", "A"], &[vec![2, 4]]).unwrap();
    let want_a: BTreeSet<Vec<i64>> = (0..3).map(|k| vec![2, k]).collect();
    assert_eq!(got_a.cells.cell_set(), want_a);

    let got_b = db.prov_query(&["C", "B"], &[vec![2, 4]]).unwrap();
    let want_b: BTreeSet<Vec<i64>> = (0..3).map(|k| vec![k, 4]).collect();
    assert_eq!(got_b.cells.cell_set(), want_b);

    // Forward: A[1, 0] influences the whole row 1 of C.
    let fwd = db.prov_query(&["A", "C"], &[vec![1, 0]]).unwrap();
    let want_fwd: BTreeSet<Vec<i64>> = (0..5).map(|j| vec![1, j]).collect();
    assert_eq!(fwd.cells.cell_set(), want_fwd);
}

#[test]
fn both_directions_answer_from_the_stored_table() {
    // An edge stores one (backward) table; backward and forward queries
    // over it — the forward one reading that table in reverse — must both
    // match the reference over the raw relation (§IV.C, §V).
    let a = random_array(&[9, 4], 7);
    let r = apply("cumsum", &[&a], &OpArgs::none());
    let lineage = &r.lineage[0];
    let mut db = Dslog::new();
    db.define_array("in", a.shape()).unwrap();
    db.define_array("out", r.output.shape()).unwrap();
    db.register_operation(
        "cumsum",
        &["in"],
        &["out"],
        vec![Box::new(TableCapture::new(lineage.clone()))],
        &[],
        false,
    )
    .unwrap();
    let stored = db.storage().stored_table("in", "out").unwrap();
    assert_eq!(stored.orientation(), Orientation::Backward);
    // cumsum without an axis flattens: out is 1-D over 36 cells.
    for (path, cell, direction) in [
        (["out", "in"], vec![11], Orientation::Backward),
        (["in", "out"], vec![2, 3], Orientation::Forward),
    ] {
        let got = db.prov_query(&path, std::slice::from_ref(&cell)).unwrap();
        let want = reference::step(&[cell].into_iter().collect(), lineage, direction);
        assert_eq!(got.cells.cell_set(), want, "{path:?}");
    }
}

#[test]
fn merge_ablation_preserves_answers() {
    // DSLog-NoMerge must return the same *set* of cells, just in more boxes.
    let a = random_array(&[64], 8);
    let r = apply("gradient", &[&a], &OpArgs::none());
    let mut db = Dslog::new();
    db.define_array("in", a.shape()).unwrap();
    db.define_array("out", r.output.shape()).unwrap();
    db.add_lineage("in", "out", &TableCapture::new(r.lineage[0].clone()))
        .unwrap();

    let q: Vec<Vec<i64>> = (5..25).map(|v| vec![v]).collect();
    let merged = db
        .prov_query_opts(
            &["out", "in"],
            &q,
            QueryOptions {
                merge: true,
                ..QueryOptions::default()
            },
        )
        .unwrap();
    let unmerged = db
        .prov_query_opts(
            &["out", "in"],
            &q,
            QueryOptions {
                merge: false,
                ..QueryOptions::default()
            },
        )
        .unwrap();
    assert_eq!(merged.cells.cell_set(), unmerged.cells.cell_set());
    assert!(merged.cells.n_boxes() <= unmerged.cells.n_boxes());
}

#[test]
fn stored_tables_decompress_losslessly() {
    // The compressed table stored for each op must decompress to exactly
    // the captured relation — spanning the whole ingest path.
    for (op, shape, args) in [
        ("negative", vec![10usize, 3], OpArgs::none()),
        ("sum", vec![6, 6], OpArgs::ints(&[0])),
        ("transpose", vec![5, 7], OpArgs::none()),
        ("sort", vec![30], OpArgs::none()),
        ("flip", vec![16], OpArgs::none()),
    ] {
        let a = random_array(&shape, 11);
        let r = apply(op, &[&a], &args);
        let mut db = Dslog::new();
        db.define_array("in", a.shape()).unwrap();
        db.define_array("out", r.output.shape()).unwrap();
        db.add_lineage("in", "out", &TableCapture::new(r.lineage[0].clone()))
            .unwrap();
        let stored = db.storage().stored_table("in", "out").unwrap();
        assert_eq!(
            stored.decompress().unwrap().row_set(),
            r.lineage[0].normalized().row_set(),
            "op {op}"
        );
    }
}

#[test]
fn serialization_roundtrips_through_disk_format() {
    use dslog::storage::format;
    let a = random_array(&[25, 4], 13);
    for op in ["negative", "cumsum", "sort", "tril"] {
        let r = apply(op, &[&a], &OpArgs::none());
        let c = dslog::provrc::compress(
            &r.lineage[0],
            r.output.shape(),
            a.shape(),
            Orientation::Backward,
        );
        let bytes = format::serialize(&c);
        let back = format::deserialize(&bytes).unwrap();
        assert_eq!(back, c, "plain roundtrip for {op}");
        let gz = format::serialize_gzip(&c);
        let back_gz = format::deserialize_gzip(&gz).unwrap();
        assert_eq!(back_gz, c, "gzip roundtrip for {op}");
    }
}

#[test]
fn queries_after_reuse_hit_match_fresh_capture() {
    // A gen_sig-reused edge must answer queries exactly like the capture
    // it replaced would have. `negative` is elementwise, so its lineage
    // generalizes over shapes (unlike e.g. cumsum's triangular pattern,
    // which the predictor correctly rejects).
    let mut db = Dslog::new();
    for (run, n) in [6usize, 9, 14].iter().enumerate() {
        let a = random_array(&[*n], 17 + run as u64);
        let r = apply("negative", &[&a], &OpArgs::none());
        let in_name = format!("x{run}");
        let out_name = format!("y{run}");
        db.define_array(&in_name, a.shape()).unwrap();
        db.define_array(&out_name, r.output.shape()).unwrap();
        db.register_operation(
            "negative",
            &[&in_name],
            &[&out_name],
            vec![Box::new(TableCapture::new(r.lineage[0].clone()))],
            &[],
            true,
        )
        .unwrap();
        // Whether captured or reused, answers must match the reference.
        for v in 0..*n as i64 {
            let got = db.prov_query(&[&out_name, &in_name], &[vec![v]]).unwrap();
            let want = reference::step(
                &[vec![v]].into_iter().collect(),
                &r.lineage[0],
                Orientation::Backward,
            );
            assert_eq!(got.cells.cell_set(), want, "run {run}, cell {v}");
        }
    }
    assert!(db.reuse_stats().gen_hits >= 1, "third call should reuse");
}
