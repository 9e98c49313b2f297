//! Multi-hop query integration tests: forward and backward `prov_query`
//! calls across the paper's workflows (image, relational, ResNet) and
//! random numpy pipelines, validated cell-for-cell against a brute-force
//! natural-join reference over the uncompressed relations.

use dslog::api::Dslog;
use dslog::table::{LineageTable, Orientation};
use dslog_oracle::query::reference;
use dslog_workloads::pipelines::{image_workflow, relational_workflow, resnet_workflow, Pipeline};
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use std::collections::BTreeSet;

/// Forward-query the main path from `cells` and compare with the reference.
fn check_forward(db: &Dslog, p: &Pipeline, cells: &[Vec<i64>]) {
    let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
    let got = db.prov_query(&path, cells).unwrap();

    let tables: Vec<&LineageTable> = p.main_path_tables();
    let hops: Vec<(&LineageTable, Orientation)> =
        tables.iter().map(|t| (*t, Orientation::Forward)).collect();
    let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
    let want = reference::chain(&start, &hops);
    assert_eq!(
        got.cells.cell_set(),
        want,
        "forward through {:?} from {cells:?}",
        p.main_path
    );
}

/// Backward-query the reversed main path and compare with the reference.
fn check_backward(db: &Dslog, p: &Pipeline, cells: &[Vec<i64>]) {
    let path: Vec<&str> = p.main_path.iter().rev().map(String::as_str).collect();
    let got = db.prov_query(&path, cells).unwrap();

    let tables: Vec<&LineageTable> = p.main_path_tables();
    let hops: Vec<(&LineageTable, Orientation)> = tables
        .iter()
        .rev()
        .map(|t| (*t, Orientation::Backward))
        .collect();
    let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
    let want = reference::chain(&start, &hops);
    assert_eq!(
        got.cells.cell_set(),
        want,
        "backward through {:?} from {cells:?}",
        p.main_path
    );
}

fn register(p: &Pipeline) -> Dslog {
    let mut db = Dslog::new();
    p.register_into(&mut db).unwrap();
    db
}

#[test]
fn image_workflow_forward_patches() {
    let p = image_workflow(16, 0xA);
    let db = register(&p);
    // Several patches across the frame, including edges.
    let shape = p.shape_of("frame").to_vec();
    let (h, w) = (shape[0] as i64, shape[1] as i64);
    for corner in [(0, 0), (h - 3, 0), (0, w - 3), (h / 2, w / 2)] {
        let cells: Vec<Vec<i64>> = (0..3)
            .flat_map(|i| (0..3).map(move |j| vec![corner.0 + i, corner.1 + j]))
            .collect();
        check_forward(&db, &p, &cells);
    }
}

#[test]
fn image_workflow_backward_detection_cells() {
    let p = image_workflow(16, 0xB);
    let db = register(&p);
    let det = p.shape_of("detection")[0] as i64;
    for v in 0..det {
        check_backward(&db, &p, &[vec![v]]);
    }
}

#[test]
fn relational_workflow_forward_rows() {
    let p = relational_workflow(80, 0xC);
    let db = register(&p);
    let n_cols = p.shape_of("basics")[1] as i64;
    for row in [0i64, 7, 40] {
        let cells: Vec<Vec<i64>> = (0..n_cols).map(|c| vec![row, c]).collect();
        check_forward(&db, &p, &cells);
    }
}

#[test]
fn relational_workflow_backward_output_cells() {
    let p = relational_workflow(80, 0xD);
    let db = register(&p);
    let out_shape = p.shape_of(p.main_path.last().unwrap()).to_vec();
    let (r, c) = (out_shape[0] as i64, out_shape[1] as i64);
    for cell in [vec![0, 0], vec![r - 1, c - 1], vec![r / 2, c / 2]] {
        check_backward(&db, &p, &[cell]);
    }
}

#[test]
fn relational_workflow_episode_branch() {
    // The inner join has two parents; the off-main-path branch must be
    // queryable too (backward from the final array into `episode`).
    let p = relational_workflow(60, 0xE);
    let db = register(&p);
    let mut path: Vec<&str> = p.main_path.iter().rev().map(String::as_str).collect();
    *path.last_mut().unwrap() = "episode"; // … → joined → episode

    let out_shape = p.shape_of(p.main_path.last().unwrap()).to_vec();
    let cell = vec![out_shape[0] as i64 / 2, 1];
    let got = db.prov_query(&path, std::slice::from_ref(&cell)).unwrap();

    // Reference: backward along main hops until `joined`, then one hop
    // through the episode-side table.
    let tables = p.main_path_tables();
    let mut hops: Vec<(&LineageTable, Orientation)> = tables
        .iter()
        .rev()
        .take(tables.len() - 1) // stop at `joined`
        .map(|t| (*t, Orientation::Backward))
        .collect();
    let episode_hop = p
        .hops
        .iter()
        .find(|h| h.in_array == "episode")
        .expect("episode hop");
    hops.push((&episode_hop.lineage, Orientation::Backward));
    let want = reference::chain(&[cell].into_iter().collect(), &hops);
    assert_eq!(got.cells.cell_set(), want);
}

#[test]
fn resnet_workflow_roundtrip() {
    let p = resnet_workflow(8, 0xF);
    let db = register(&p);
    check_forward(&db, &p, &[vec![3, 3], vec![3, 4]]);
    check_backward(&db, &p, &[vec![4, 4]]);
}

#[test]
fn random_pipelines_five_ops_match_reference() {
    for seed in 0..6u64 {
        let p = generate(RandomPipelineSpec {
            seed,
            n_ops: 5,
            initial_cells: 144,
        });
        let db = register(&p);
        let shape = p.shape_of("a0").to_vec();
        let cells: Vec<Vec<i64>> = vec![
            vec![0; shape.len()],
            shape.iter().map(|&d| d as i64 - 1).collect(),
        ];
        check_forward(&db, &p, &cells);
    }
}

#[test]
fn random_pipelines_ten_ops_match_reference() {
    for seed in 20..23u64 {
        let p = generate(RandomPipelineSpec {
            seed,
            n_ops: 10,
            initial_cells: 100,
        });
        let db = register(&p);
        let shape = p.shape_of("a0").to_vec();
        let cells: Vec<Vec<i64>> = (0..3)
            .map(|k| shape.iter().map(|&d| (k % d as i64).max(0)).collect())
            .collect();
        check_forward(&db, &p, &cells);

        // And a backward pass from the pipeline's final array.
        let last = p.main_path.last().unwrap().clone();
        let out_shape = p.shape_of(&last).to_vec();
        check_backward(&db, &p, &[vec![0; out_shape.len()]]);
    }
}

#[test]
fn roundtrip_forward_then_backward_contains_origin() {
    // Forward then backward must return a superset containing the origin
    // cell whenever the origin has any lineage at all.
    let p = image_workflow(8, 0x10);
    let db = register(&p);
    let fwd_path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
    let bwd_path: Vec<&str> = p.main_path.iter().rev().map(String::as_str).collect();

    let origin = vec![2i64, 2];
    let fwd = db
        .prov_query(&fwd_path, std::slice::from_ref(&origin))
        .unwrap();
    if !fwd.cells.is_empty() {
        let reached: Vec<Vec<i64>> = fwd.cells.cell_set().into_iter().collect();
        let back = db.prov_query(&bwd_path, &reached).unwrap();
        assert!(
            back.cells.contains_cell(&origin),
            "origin {origin:?} lost on the way back"
        );
    }
}

#[test]
fn query_count_matches_path_length() {
    let p = resnet_workflow(6, 0x11);
    let db = register(&p);
    let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
    let r = db.prov_query(&path, &[vec![0, 0]]).unwrap();
    assert_eq!(r.hops, p.main_path.len() - 1);
}

// ---------------------------------------------------------------------------
// Compressed (in-situ) vs decompressed parity
//
// The checks above validate `prov_query` against the *originally captured*
// relations. The tests below close the remaining gap: they pull each hop's
// table back out of storage in its ProvRC-compressed form, `decompress()`
// it, and run the brute-force reference over those decompressed tables.
// In-situ results over the compressed form must match cell-for-cell in both
// directions — i.e. neither compression, storage, nor lazy orientation
// derivation may alter query semantics.
// ---------------------------------------------------------------------------

/// Decompress every stored hop table along the main path, in path order.
fn decompressed_main_path_tables(db: &Dslog, p: &Pipeline) -> Vec<LineageTable> {
    p.main_path
        .windows(2)
        .map(|w| {
            db.storage()
                .stored_table(&w[0], &w[1])
                .expect("stored edge on main path")
                .decompress()
                .expect("stored table decompresses")
        })
        .collect()
}

/// Assert in-situ forward parity against the decompressed reference path.
fn check_forward_decompressed(db: &Dslog, p: &Pipeline, cells: &[Vec<i64>]) {
    let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
    let got = db.prov_query(&path, cells).unwrap();

    let stored = decompressed_main_path_tables(db, p);
    let hops: Vec<(&LineageTable, Orientation)> =
        stored.iter().map(|t| (t, Orientation::Forward)).collect();
    let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
    let want = reference::chain(&start, &hops);
    assert_eq!(
        got.cells.cell_set(),
        want,
        "in-situ forward diverges from decompressed reference through {:?} from {cells:?}",
        p.main_path
    );
}

/// Assert in-situ backward parity against the decompressed reference path.
fn check_backward_decompressed(db: &Dslog, p: &Pipeline, cells: &[Vec<i64>]) {
    let path: Vec<&str> = p.main_path.iter().rev().map(String::as_str).collect();
    let got = db.prov_query(&path, cells).unwrap();

    let stored = decompressed_main_path_tables(db, p);
    let hops: Vec<(&LineageTable, Orientation)> = stored
        .iter()
        .rev()
        .map(|t| (t, Orientation::Backward))
        .collect();
    let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
    let want = reference::chain(&start, &hops);
    assert_eq!(
        got.cells.cell_set(),
        want,
        "in-situ backward diverges from decompressed reference through {:?} from {cells:?}",
        p.main_path
    );
}

#[test]
fn stored_roundtrip_matches_captured_lineage() {
    // Decompressing what storage holds recovers exactly the captured
    // relation of every main-path hop (as a row set — ProvRC deduplicates).
    let p = relational_workflow(60, 0x20);
    let db = register(&p);
    for w in p.main_path.windows(2) {
        let stored = db
            .storage()
            .stored_table(&w[0], &w[1])
            .unwrap()
            .decompress()
            .unwrap();
        let captured = p
            .hops
            .iter()
            .find(|h| h.in_array == w[0] && h.out_array == w[1])
            .expect("captured hop");
        assert_eq!(
            stored.row_set(),
            captured.lineage.row_set(),
            "storage roundtrip altered hop {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn image_workflow_parity_decompressed_both_directions() {
    let p = image_workflow(12, 0x21);
    let db = register(&p);
    let shape = p.shape_of("frame").to_vec();
    let (h, w) = (shape[0] as i64, shape[1] as i64);
    let patch: Vec<Vec<i64>> = (0..2)
        .flat_map(|i| (0..2).map(move |j| vec![h / 2 + i, w / 2 + j]))
        .collect();
    check_forward_decompressed(&db, &p, &patch);

    let det = p.shape_of("detection")[0] as i64;
    for v in 0..det {
        check_backward_decompressed(&db, &p, &[vec![v]]);
    }
}

#[test]
fn relational_workflow_parity_decompressed_both_directions() {
    let p = relational_workflow(70, 0x22);
    let db = register(&p);
    let n_cols = p.shape_of("basics")[1] as i64;
    let row_cells: Vec<Vec<i64>> = (0..n_cols).map(|c| vec![11, c]).collect();
    check_forward_decompressed(&db, &p, &row_cells);

    let out_shape = p.shape_of(p.main_path.last().unwrap()).to_vec();
    let (r, c) = (out_shape[0] as i64, out_shape[1] as i64);
    for cell in [vec![0, 0], vec![r - 1, c - 1], vec![r / 3, c / 2]] {
        check_backward_decompressed(&db, &p, &[cell]);
    }
}

#[test]
fn resnet_workflow_parity_decompressed_both_directions() {
    let p = resnet_workflow(8, 0x23);
    let db = register(&p);
    check_forward_decompressed(&db, &p, &[vec![2, 5], vec![6, 1]]);
    check_backward_decompressed(&db, &p, &[vec![3, 3], vec![0, 7]]);
}

#[test]
fn random_pipelines_parity_decompressed_both_directions() {
    for seed in 40..44u64 {
        let p = generate(RandomPipelineSpec {
            seed,
            n_ops: 7,
            initial_cells: 121,
        });
        let db = register(&p);

        let shape = p.shape_of("a0").to_vec();
        let cells: Vec<Vec<i64>> = vec![
            vec![0; shape.len()],
            shape.iter().map(|&d| d as i64 / 2).collect(),
        ];
        check_forward_decompressed(&db, &p, &cells);

        let last = p.main_path.last().unwrap().clone();
        let out_shape = p.shape_of(&last).to_vec();
        let origins: Vec<Vec<i64>> = vec![
            vec![0; out_shape.len()],
            out_shape.iter().map(|&d| d as i64 - 1).collect(),
        ];
        for origin in origins {
            check_backward_decompressed(&db, &p, &[origin]);
        }
    }
}
