//! Baseline-format parity tests: every storage format must roundtrip the
//! same relations DSLog compresses, and every query strategy (hash join
//! over decoded tables, vectorized array scan, in-situ θ-joins) must return
//! identical answers.

use dslog::api::{Dslog, TableCapture};
use dslog::table::{LineageTable, Orientation};
use dslog_array::{apply, OpArgs};
use dslog_baselines::{all_formats, relengine};
use dslog_oracle::query::reference;
use dslog_workloads::pipelines::{image_workflow, random_array};
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use std::collections::BTreeSet;

/// Lineages of a representative op mix (structured, windowed, permutation,
/// value-dependent), as (name, relation) pairs.
fn op_lineages() -> Vec<(&'static str, LineageTable)> {
    let ops: &[(&str, Vec<usize>, OpArgs)] = &[
        ("negative", vec![30, 4], OpArgs::none()),
        ("sum", vec![9, 9], OpArgs::ints(&[1])),
        ("tile", vec![15], OpArgs::ints(&[2])),
        ("gradient", vec![50], OpArgs::none()),
        ("sort", vec![60], OpArgs::none()),
        ("argsort", vec![25], OpArgs::none()),
        ("matmul", vec![5, 4], OpArgs::none()),
    ];
    ops.iter()
        .map(|(name, shape, args)| {
            let a = random_array(shape, 0xBEEF);
            let r = if *name == "matmul" {
                let b = random_array(&[4, 6], 0xCAFE);
                apply(name, &[&a, &b], args)
            } else {
                apply(name, &[&a], args)
            };
            (*name, r.lineage[0].normalized())
        })
        .collect()
}

#[test]
fn every_format_roundtrips_every_op_lineage() {
    for (op, lineage) in op_lineages() {
        for format in all_formats() {
            let bytes = format.encode(&lineage);
            let back = format.decode(&bytes);
            assert_eq!(
                back.row_set(),
                lineage.row_set(),
                "format {} on op {op}",
                format.name()
            );
            assert_eq!(
                back.out_arity(),
                lineage.out_arity(),
                "{} / {op}",
                format.name()
            );
            assert_eq!(
                back.in_arity(),
                lineage.in_arity(),
                "{} / {op}",
                format.name()
            );
        }
    }
}

#[test]
fn formats_roundtrip_edge_relations() {
    // Empty relation, single row, negative-friendly wide values.
    let empty = LineageTable::new(1, 1);
    let mut single = LineageTable::new(2, 1);
    single.push_row(&[3, 1, 4]);
    let mut wide = LineageTable::new(1, 3);
    for i in 0..50 {
        wide.push_row(&[i, i * 1_000_003 % 97, i * 31 % 13, i]);
    }
    wide.normalize();
    for table in [&empty, &single, &wide] {
        for format in all_formats() {
            let back = format.decode(&format.encode(table));
            assert_eq!(back.row_set(), table.row_set(), "format {}", format.name());
        }
    }
}

#[test]
fn hash_join_and_array_scan_agree_with_reference() {
    for (op, lineage) in op_lineages() {
        // Query one-third of the output cells.
        let out_cells: BTreeSet<Vec<i64>> = lineage
            .rows()
            .map(|r| r[..lineage.out_arity()].to_vec())
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, c)| c)
            .collect();
        let want = reference::step(&out_cells, &lineage, Orientation::Backward);
        let hash = relengine::hash_join_step(&out_cells, &lineage, Orientation::Backward);
        let scan = relengine::array_query(&out_cells, &lineage, Orientation::Backward, 1000);
        assert_eq!(hash, want, "hash join on {op}");
        assert_eq!(scan, want, "array scan on {op}");
    }
}

#[test]
fn in_situ_chain_matches_baseline_chain_on_workflows() {
    // The image workflow queried three ways: DSLog in-situ, hash joins over
    // raw tables, and the brute-force reference.
    let p = image_workflow(12, 0x7777);
    let mut db = Dslog::new();
    p.register_into(&mut db).unwrap();

    let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
    let cells: Vec<Vec<i64>> = (0..6)
        .flat_map(|i| (0..6).map(move |j| vec![i, j]))
        .collect();
    let in_situ = db.prov_query(&path, &cells).unwrap().cells.cell_set();

    let tables = p.main_path_tables();
    let hops: Vec<(&LineageTable, Orientation)> =
        tables.iter().map(|t| (*t, Orientation::Forward)).collect();
    let start: BTreeSet<Vec<i64>> = cells.into_iter().collect();
    let joined = relengine::hash_join_chain(&start, &hops);
    let referenced = reference::chain(&start, &hops);

    assert_eq!(in_situ, referenced, "in-situ vs reference");
    assert_eq!(joined, referenced, "hash joins vs reference");
}

#[test]
fn in_situ_matches_baselines_on_random_pipelines() {
    for seed in [3u64, 11, 42] {
        let p = generate(RandomPipelineSpec {
            seed,
            n_ops: 5,
            initial_cells: 120,
        });
        let mut db = Dslog::new();
        p.register_into(&mut db).unwrap();

        let shape = p.shape_of("a0").to_vec();
        let cells: Vec<Vec<i64>> = (0..shape[0].min(4) as i64)
            .map(|i| {
                let mut c = vec![i];
                c.extend(std::iter::repeat_n(0, shape.len() - 1));
                c
            })
            .collect();
        let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
        let in_situ = db.prov_query(&path, &cells).unwrap().cells.cell_set();

        let tables = p.main_path_tables();
        let hops: Vec<(&LineageTable, Orientation)> =
            tables.iter().map(|t| (*t, Orientation::Forward)).collect();
        let start: BTreeSet<Vec<i64>> = cells.into_iter().collect();
        assert_eq!(
            in_situ,
            relengine::hash_join_chain(&start, &hops),
            "seed {seed}"
        );
    }
}

#[test]
fn compression_ranking_holds_on_structured_lineage() {
    // Table VII's headline: on spatially-regular lineage, ProvRC beats
    // every columnar baseline by orders of magnitude.
    use dslog::provrc;
    use dslog::storage::format as provrc_format;

    let a = random_array(&[300, 4], 0x51);
    let r = apply("negative", &[&a], &OpArgs::none());
    let lineage = r.lineage[0].normalized();

    let provrc_bytes = provrc_format::serialize(&provrc::compress(
        &lineage,
        r.output.shape(),
        a.shape(),
        Orientation::Backward,
    ))
    .len();

    for format in all_formats() {
        let baseline_bytes = format.encode(&lineage).len();
        assert!(
            provrc_bytes * 10 <= baseline_bytes,
            "ProvRC ({provrc_bytes} B) should be >=10x under {} ({baseline_bytes} B)",
            format.name()
        );
    }
}

#[test]
fn baselines_must_decompress_but_dslog_does_not() {
    // Sanity check of the asymmetry the latency experiments measure: the
    // query result from DSLog's compressed table equals the baseline's
    // decode-then-join result.
    let a = random_array(&[80], 0x99);
    let r = apply("cumsum", &[&a], &OpArgs::none());
    let lineage = r.lineage[0].normalized();

    let mut db = Dslog::new();
    db.define_array("in", a.shape()).unwrap();
    db.define_array("out", r.output.shape()).unwrap();
    db.add_lineage("in", "out", &TableCapture::new(lineage.clone()))
        .unwrap();

    let q: Vec<Vec<i64>> = (10..20).map(|v| vec![v]).collect();
    let in_situ = db.prov_query(&["out", "in"], &q).unwrap().cells.cell_set();

    for format in all_formats() {
        let decoded = format.decode(&format.encode(&lineage));
        let start: BTreeSet<Vec<i64>> = q.iter().cloned().collect();
        let joined = relengine::hash_join_step(&start, &decoded, Orientation::Backward);
        assert_eq!(in_situ, joined, "format {}", format.name());
    }
}
