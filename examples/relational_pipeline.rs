//! Relational data pre-processing lineage (paper Table VIII B / Fig. 8 B).
//!
//! Builds the paper's five-step relational workflow over synthetic
//! IMDB-like tables — inner join on `tconst` → drop NaN columns → add two
//! columns → one-hot encode `genres` → add a constant — representing each
//! table as a 2-D array (rows × attributes). Then answers the questions a
//! data engineer actually asks: "which source rows fed this suspicious
//! output value?" and "what does this source cell touch downstream?".
//!
//! Run with: `cargo run --release --example relational_pipeline`

use dslog::api::Dslog;
use dslog::storage::format;
use dslog_workloads::pipelines::relational_workflow;
use std::time::Instant;

fn main() {
    let n_rows = 2_000; // paper uses the full IMDB tables; shape-free ratios
    let seed = 0x1_3D8;

    println!("building relational workflow (join->dropnan->add->onehot->addconst), {n_rows} rows");
    let t0 = Instant::now();
    let pipeline = relational_workflow(n_rows, seed);
    println!(
        "captured {} hops; main path {:?} in {:?}",
        pipeline.hops.len(),
        pipeline.main_path,
        t0.elapsed()
    );

    let mut db = Dslog::new();
    let t0 = Instant::now();
    pipeline.register_into(&mut db).unwrap();
    println!("ingest + ProvRC compression took {:?}", t0.elapsed());

    println!("\nper-step storage:");
    for hop in &pipeline.hops {
        let stored = db
            .storage()
            .stored_table(&hop.in_array, &hop.out_array)
            .unwrap();
        println!(
            "  {:>8} -> {:<8} {:>8} rows -> {:>5} rows  ({:>9} B -> {:>6} B)",
            hop.in_array,
            hop.out_array,
            hop.lineage.n_rows(),
            stored.n_rows(),
            hop.lineage.nbytes(),
            format::serialize(&stored).len(),
        );
    }

    // ------------------------------------------------------------------
    // Backward: a QA check flagged final[5, 1] (row 5, second column).
    // Which cells of the joined source tables does it derive from?
    // ------------------------------------------------------------------
    let back_path: Vec<&str> = pipeline
        .main_path
        .iter()
        .rev()
        .map(String::as_str)
        .collect();
    let t0 = Instant::now();
    let back = db.prov_query(&back_path, &[vec![5, 1]]).unwrap();
    println!(
        "\nbackward query final[5,1] -> basics: {} cell(s) in {} box(es), {:?}",
        back.cells.volume(),
        back.cells.n_boxes(),
        t0.elapsed()
    );
    for b in back.cells.boxes().take(5) {
        println!(
            "  basics rows [{},{}], cols [{},{}]",
            b[0].lo, b[0].hi, b[1].lo, b[1].hi
        );
    }

    // The join has two parents; the episode side is queryable too.
    let episode_path = ["final", "onehot", "summed", "filtered", "joined", "episode"];
    let ep = db.prov_query(&episode_path, &[vec![5, 1]]).unwrap();
    println!(
        "backward query final[5,1] -> episode: {} cell(s) in {} box(es)",
        ep.cells.volume(),
        ep.cells.n_boxes()
    );

    // ------------------------------------------------------------------
    // Forward: GDPR-style impact analysis — everything row 0 of basics
    // touches in the final output.
    // ------------------------------------------------------------------
    let fwd_path: Vec<&str> = pipeline.main_path.iter().map(String::as_str).collect();
    let n_cols = pipeline.shape_of("basics")[1] as i64;
    let row0: Vec<Vec<i64>> = (0..n_cols).map(|c| vec![0, c]).collect();
    let t0 = Instant::now();
    let fwd = db.prov_query(&fwd_path, &row0).unwrap();
    println!(
        "\nforward query basics[0, *] -> final: {} cell(s) in {} box(es), {:?} ({} hops)",
        fwd.cells.volume(),
        fwd.cells.n_boxes(),
        t0.elapsed(),
        fwd.hops
    );

    println!("\nok: relational workflow traced forward and backward");
}
