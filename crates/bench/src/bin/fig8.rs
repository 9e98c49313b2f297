//! Figure 8: query latency vs selectivity on the (A) image, (B) relational
//! and (C) ResNet workflows (paper §VII.D, workflows of Table VIII).
//!
//! For each selectivity (fraction of the source array's cells), a random
//! contiguous cell range is queried forward through the full pipeline.
//! Systems: DSLog (in-situ over ProvRC), Raw / Parquet / Parquet-GZip /
//! Turbo-RC (decode + hash-join chain), Array (batched vectorized scans).
//!
//! Run: `cargo run -p dslog-bench --release --bin fig8 [--scale f]`

use dslog::api::Dslog;
use dslog::table::Orientation;
use dslog_baselines::all_formats;
use dslog_baselines::relengine::{array_query_chain, hash_join_chain};
use dslog_bench::{cli_scale_seed, secs, timed, TextTable};
use dslog_workloads::pipelines::{self, Pipeline};
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Query cells: a random contiguous linear range covering `selectivity` of
/// the source array ("Each query_cells value is a randomly selected
/// fixed-sized cell range").
fn query_cells(p: &Pipeline, selectivity: f64, rng: &mut impl Rng) -> Vec<Vec<i64>> {
    let shape = p.shape_of(&p.main_path[0]).to_vec();
    let cells: usize = shape.iter().product();
    let count = ((cells as f64 * selectivity) as usize).max(1).min(cells);
    let start = rng.gen_range(0..=cells - count);
    (start..start + count)
        .map(|linear| {
            let mut idx = vec![0i64; shape.len()];
            let mut rem = linear;
            for k in (0..shape.len()).rev() {
                idx[k] = (rem % shape[k]) as i64;
                rem /= shape[k];
            }
            idx
        })
        .collect()
}

fn run_workflow(name: &str, p: &Pipeline, seed: u64) {
    println!("\n(Fig 8) {name} workflow — forward query latency");
    let mut db = Dslog::new();
    p.register_into(&mut db).unwrap();
    let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();

    // Baseline stored files along the main path.
    let formats = all_formats();
    let hop_tables = p.main_path_tables();
    let stored: Vec<Vec<Vec<u8>>> = formats
        .iter()
        .map(|f| hop_tables.iter().map(|t| f.encode(t)).collect())
        .collect();

    let selectivities = [0.0001, 0.001, 0.01, 0.1];
    let mut header = vec![
        "selectivity".to_string(),
        "cells".to_string(),
        "DSLog".to_string(),
    ];
    header.extend(formats.iter().map(|f| f.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);

    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    for &sel in &selectivities {
        let cells = query_cells(p, sel, &mut rng);
        let mut row = vec![format!("{sel}"), cells.len().to_string()];

        // DSLog in-situ.
        let (r, t) = timed(|| db.prov_query(&path, &cells).unwrap());
        row.push(secs(t));
        let dslog_cells = r.cells.cell_set();

        // Baselines: decode + chained join per query (the paper's DuckDB
        // plans scan the stored files per query).
        let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
        for (fi, f) in formats.iter().enumerate() {
            let (result, t) = timed(|| {
                let decoded: Vec<_> = stored[fi].iter().map(|b| f.decode(b)).collect();
                let hops: Vec<_> = decoded.iter().map(|t| (t, Orientation::Forward)).collect();
                if f.name() == "Array" {
                    array_query_chain(&start, &hops, 1000)
                } else {
                    hash_join_chain(&start, &hops)
                }
            });
            row.push(secs(t));
            assert_eq!(
                result,
                dslog_cells,
                "{name}: {} disagrees with DSLog at sel {sel}",
                f.name()
            );
        }
        table.row(&row);
    }
    println!("{}", table.render());
}

fn main() {
    let (scale, seed) = cli_scale_seed();
    println!("Figure 8 — query latency on hand-built workflows (scale {scale}, seed {seed})");
    println!("(Table VIII defines the image and relational pipelines)");

    let img_side = ((48.0 * scale) as usize).max(12);
    run_workflow(
        "image (A)",
        &pipelines::image_workflow(img_side, seed),
        seed,
    );

    let rel_rows = ((2000.0 * scale) as usize).max(100);
    run_workflow(
        "relational (B)",
        &pipelines::relational_workflow(rel_rows, seed),
        seed,
    );

    let fm_side = ((40.0 * scale) as usize).max(8);
    run_workflow(
        "ResNet (C)",
        &pipelines::resnet_workflow(fm_side, seed),
        seed,
    );
}
