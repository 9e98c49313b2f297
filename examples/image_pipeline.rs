//! Computer-vision model debugging with fine-grained lineage (paper
//! Table VIII A / Fig. 8 A).
//!
//! Builds the paper's five-step image workflow — resize → luminosity →
//! rotate 90° → horizontal flip → LIME saliency over a detector — on a
//! synthetic surveillance frame, registers every step's cell-level lineage
//! into DSLog, and then debugs the detection: which original frame pixels
//! influenced it (backward), and which detection cells a given pixel
//! patch reaches (forward)?
//!
//! Run with: `cargo run --release --example image_pipeline`

use dslog::api::Dslog;
use dslog::storage::format;
use dslog_workloads::pipelines::image_workflow;
use std::time::Instant;

fn main() {
    let side = 64; // paper uses 416×416; ratios are scale-free
    let seed = 0x000D_5106;

    println!("building image workflow (resize->luminosity->rotate->flip->LIME), side={side}");
    let t0 = Instant::now();
    let pipeline = image_workflow(side, seed);
    println!(
        "captured {} lineage hops over arrays {:?} in {:?}",
        pipeline.hops.len(),
        pipeline.main_path,
        t0.elapsed()
    );

    // Register into DSLog: every hop is ProvRC-compressed at ingest.
    let mut db = Dslog::new();
    let t0 = Instant::now();
    pipeline.register_into(&mut db).unwrap();
    println!("ingest + compression took {:?}", t0.elapsed());

    // Storage accounting per hop: raw relation vs ProvRC.
    println!("\nper-step storage (raw rows -> compressed rows, bytes):");
    let mut raw_total = 0usize;
    let mut comp_total = 0usize;
    for hop in &pipeline.hops {
        let stored = db
            .storage()
            .stored_table(&hop.in_array, &hop.out_array)
            .unwrap();
        let raw = hop.lineage.nbytes();
        let comp = format::serialize(&stored).len();
        raw_total += raw;
        comp_total += comp;
        println!(
            "  {:>9} -> {:<9} {:>9} rows -> {:>5} rows   {:>10} B -> {:>7} B ({:.3}%)",
            hop.in_array,
            hop.out_array,
            hop.lineage.n_rows(),
            stored.n_rows(),
            raw,
            comp,
            100.0 * comp as f64 / raw as f64
        );
    }
    println!(
        "  total: {raw_total} B raw -> {comp_total} B ProvRC ({:.3}%)",
        100.0 * comp_total as f64 / raw_total as f64
    );

    // ------------------------------------------------------------------
    // Forward debugging query: does the top-left 4×4 patch of the frame
    // influence the detection? (Five θ-joins over compressed tables.)
    // ------------------------------------------------------------------
    let path: Vec<&str> = pipeline.main_path.iter().map(String::as_str).collect();
    let patch: Vec<Vec<i64>> = (0..4)
        .flat_map(|i| (0..4).map(move |j| vec![i, j]))
        .collect();
    let t0 = Instant::now();
    let fwd = db.prov_query(&path, &patch).unwrap();
    println!(
        "\nforward query: frame[0..4, 0..4] -> detection: {} cell(s) in {} box(es), {:?} ({} hops)",
        fwd.cells.volume(),
        fwd.cells.n_boxes(),
        t0.elapsed(),
        fwd.hops
    );

    // ------------------------------------------------------------------
    // Backward debugging query: which frame pixels explain detection
    // cell 0? This is the "why did the model see a car here" question.
    // ------------------------------------------------------------------
    let back_path: Vec<&str> = pipeline
        .main_path
        .iter()
        .rev()
        .map(String::as_str)
        .collect();
    let t0 = Instant::now();
    let back = db.prov_query(&back_path, &[vec![0]]).unwrap();
    println!(
        "backward query: detection[0] -> frame: {} pixel(s) in {} box(es), {:?}",
        back.cells.volume(),
        back.cells.n_boxes(),
        t0.elapsed()
    );
    let frame_shape = pipeline.shape_of("frame");
    println!(
        "  ({}x{} frame; saliency kept the pixels LIME scored above threshold)",
        frame_shape[0], frame_shape[1]
    );

    assert!(
        !back.cells.is_empty(),
        "detection must have some provenance"
    );
    println!(
        "\nok: image pipeline debugged through {} compressed hops",
        fwd.hops
    );
}
