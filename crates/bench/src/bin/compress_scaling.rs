//! Compression-pipeline scaling bench: rows vs p50 compress latency, the
//! shipped columnar pipeline vs the row-of-structs reference in
//! `dslog-oracle` (the "ablation" series), across the three
//! canonical edge regimes (one-to-one, convolution window, incompressible
//! scatter — `dslog_workloads::edges`). Tracks the perf trajectory of the
//! capture path; the acceptance bar is fast ≥ 5× ablation at 100k rows on
//! at least one workload, with identical output on every edge.
//!
//! Rows arriving in ascending order are compressed in place; any other
//! order builds the columnar arena first. `one_to_one_shuffled` is the
//! one-to-one relation with its rows in a fixed-seed shuffled order, so
//! the file carries both sides of that input-order choice. `identity_2d` is
//! the elementwise map on a square 2-D array, rows in order as
//! `dslog_benchmark`'s numpy edges bring them: its step-2 passes on the
//! last output axis under masks `11` and `01` find the rows out of their
//! order and are proven no-ops without a sort.
//!
//! Emits an aligned table on stdout and machine-readable
//! `BENCH_compress.json` in the working directory. Every measured pair is
//! asserted bit-identical (fast ≡ ablation), so running this binary at any
//! scale doubles as a parity smoke gate (CI runs `--scale 0.01`).
//!
//! Run: `cargo run -p dslog-bench --release --bin compress_scaling [--scale f]`

use dslog::provrc;
use dslog::storage::format;
use dslog::table::{CompressedTable, LineageTable, Orientation};
use dslog_bench::{cli_scale_seed, p50, secs, timed, TextTable};
use dslog_oracle::provrc::compress_reference;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

struct Point {
    edge: &'static str,
    rows: usize,
    compressed_rows: usize,
    fast_p50: f64,
    ablation_p50: f64,
    /// Serialized ProvRC bytes as a percentage of raw bytes.
    ratio_pct: f64,
    /// Fast-pipeline ingest throughput.
    rows_per_s: f64,
    mb_per_s: f64,
}

fn measure(
    edge: &'static str,
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    reps: usize,
) -> Point {
    let run_fast = || provrc::compress(table, out_shape, in_shape, Orientation::Backward);
    let run_ablation = || compress_reference(table, out_shape, in_shape, Orientation::Backward);

    // Parity check before timing: the pipelines must agree bit-for-bit.
    let fast = run_fast();
    let ablation = run_ablation();
    assert_eq!(
        fast.n_rows(),
        ablation.n_rows(),
        "fast/ablation row-count disagreement on {edge}"
    );
    assert_eq!(fast, ablation, "fast/ablation disagreement on {edge}");

    let p50_of = |run: &dyn Fn() -> CompressedTable| {
        let mut samples: Vec<f64> = (0..reps).map(|_| timed(run).1).collect();
        p50(&mut samples)
    };
    let fast_p50 = p50_of(&run_fast);
    let ablation_p50 = p50_of(&run_ablation);
    let raw_bytes = table.nbytes();
    let compressed_bytes = format::serialize(&fast).len();
    Point {
        edge,
        rows: table.n_rows(),
        compressed_rows: fast.n_rows(),
        fast_p50,
        ablation_p50,
        ratio_pct: 100.0 * compressed_bytes as f64 / raw_bytes.max(1) as f64,
        rows_per_s: table.n_rows() as f64 / fast_p50.max(1e-12),
        mb_per_s: raw_bytes as f64 / 1_048_576.0 / fast_p50.max(1e-12),
    }
}

/// `table`'s rows in a fixed-seed Fisher–Yates order.
fn shuffled(table: &LineageTable) -> LineageTable {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed);
    let mut order: Vec<usize> = (0..table.n_rows()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut out = LineageTable::with_capacity(table.out_arity(), table.in_arity(), order.len());
    for r in order {
        out.push_row(table.row(r));
    }
    out
}

fn main() {
    let (scale, _seed) = cli_scale_seed();
    println!(
        "compress_scaling — ProvRC columnar pipeline vs row-of-structs reference (scale {scale})"
    );

    let sizes = [1_000usize, 10_000, 100_000];
    let mut table = TextTable::new(&[
        "edge",
        "rows",
        "compressed",
        "fast p50",
        "ablation p50",
        "speedup",
        "ratio %",
        "rows/s",
        "MB/s raw",
    ]);
    let mut json_rows = String::new();
    let mut reps_used = 0usize;
    for &base in &sizes {
        let rows = ((base as f64 * scale) as usize).max(100);
        // Fewer reps at the largest scale keeps the ablation side bounded.
        let reps = if rows >= 100_000 { 5 } else { 9 };
        reps_used = reps;
        let mut edges = dslog_workloads::edges::all(rows);
        let (_, one_to_one, out_shape, in_shape) = &edges[0];
        let one_to_one_shuffled = (
            "one_to_one_shuffled",
            shuffled(one_to_one),
            out_shape.clone(),
            in_shape.clone(),
        );
        edges.insert(1, one_to_one_shuffled);
        let (identity, out_shape, in_shape) = dslog_workloads::edges::identity_2d(rows);
        edges.push(("identity_2d", identity, out_shape, in_shape));
        for (edge, lineage, out_shape, in_shape) in edges {
            let pt = measure(edge, &lineage, &out_shape, &in_shape, reps);
            let speedup = pt.ablation_p50 / pt.fast_p50.max(1e-12);
            table.row(&[
                pt.edge.to_string(),
                pt.rows.to_string(),
                pt.compressed_rows.to_string(),
                secs(pt.fast_p50),
                secs(pt.ablation_p50),
                format!("{speedup:.1}x"),
                format!("{:.4}", pt.ratio_pct),
                format!("{:.2e}", pt.rows_per_s),
                format!("{:.1}", pt.mb_per_s),
            ]);
            if !json_rows.is_empty() {
                json_rows.push(',');
            }
            write!(
                json_rows,
                "{{\"edge\":\"{}\",\"rows\":{},\"compressed_rows\":{},\"fast_p50_s\":{:.9},\
                 \"ablation_p50_s\":{:.9},\"speedup\":{:.2},\"ratio_pct\":{:.4},\
                 \"rows_per_s\":{:.0},\"mb_per_s_raw\":{:.2}}}",
                pt.edge,
                pt.rows,
                pt.compressed_rows,
                pt.fast_p50,
                pt.ablation_p50,
                speedup,
                pt.ratio_pct,
                pt.rows_per_s,
                pt.mb_per_s
            )
            .unwrap();
        }
    }
    println!("{}", table.render());

    let json = format!(
        "{{\"bench\":\"compress_scaling\",\"scale\":{scale},\"reps\":{reps_used},\
         \"orientation\":\"backward\",\"series\":[{json_rows}]}}\n"
    );
    std::fs::write("BENCH_compress.json", &json).expect("write BENCH_compress.json");
    println!("wrote BENCH_compress.json");
}
