//! Durable lineage databases: capture once, save to disk, reopen later.
//!
//! The paper measures "the file size of the database files that were
//! ultimately served to DuckDB" — DSLog-rs makes that durable form a
//! first-class API: `Dslog::save` writes a directory of ProvRC-compressed
//! table files plus a catalog, `Dslog::options().open(dir)` maps it back,
//! and queries run in situ on the reopened database without recompression.
//!
//! Run with: `cargo run --release --example save_and_reopen`

use dslog::api::Dslog;
use dslog_workloads::pipelines::resnet_workflow;
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join(format!("dslog-example-db-{}", std::process::id()));

    // ------------------------------------------------------------------
    // Session 1: capture a seven-step ResNet block and persist it.
    // ------------------------------------------------------------------
    let pipeline = resnet_workflow(32, 0xE5);
    let mut db = Dslog::new();
    pipeline.register_into(&mut db).unwrap();
    println!(
        "session 1: captured {} hops, {} B compressed in memory",
        pipeline.hops.len(),
        db.storage().storage_bytes()
    );

    let t0 = Instant::now();
    db.save(&dir, /* gzip: */ true).unwrap();
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    println!(
        "           saved to {} in {:?} ({disk_bytes} B on disk, ProvRC-GZip)",
        dir.display(),
        t0.elapsed()
    );
    drop(db);

    // ------------------------------------------------------------------
    // Session 2: a different process/day — reopen and query immediately.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let db = Dslog::options().open(&dir).unwrap();
    println!("\nsession 2: reopened in {:?}", t0.elapsed());
    println!("           arrays: {:?}", db.storage().array_names());

    // Backward: which input pixels shaped output[10, 10]?
    let back_path: Vec<&str> = pipeline
        .main_path
        .iter()
        .rev()
        .map(String::as_str)
        .collect();
    let t0 = Instant::now();
    let back = db.prov_query(&back_path, &[vec![10, 10]]).unwrap();
    println!(
        "           backward output[10,10] -> input: {} pixel(s) in {} box(es), {:?}",
        back.cells.volume(),
        back.cells.n_boxes(),
        t0.elapsed()
    );

    // Forward: the receptive fan-out of one input pixel.
    let fwd_path: Vec<&str> = pipeline.main_path.iter().map(String::as_str).collect();
    let fwd = db.prov_query(&fwd_path, &[vec![10, 10]]).unwrap();
    println!(
        "           forward input[10,10] -> output: {} cell(s) in {} box(es)",
        fwd.cells.volume(),
        fwd.cells.n_boxes()
    );

    // The residual (skip-connection) hop is preserved across save/open too.
    let skip = db
        .prov_query(&["residual", "input"], &[vec![16, 16]])
        .unwrap();
    assert!(
        skip.cells.contains_cell(&[16, 16]),
        "skip connection must link residual[16,16] to input[16,16]"
    );
    println!("           residual skip-connection lineage intact after reopen");

    std::fs::remove_dir_all(&dir).unwrap();
    println!("\nok: lineage database saved, reopened, and queried in situ");
}
