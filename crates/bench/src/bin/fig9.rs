//! Figure 9: average (min, max) query latency over randomly generated
//! numpy workflows with (A) five and (B) ten operations (paper §VII.D).
//!
//! Twenty seeded pipelines per experiment, drawn from the 76-op
//! pipeline-safe subset, over a 100,000-cell initial array (scaled). The
//! five-op experiment additionally includes the paper's two extra
//! baselines: Raw and DSLog-NoMerge (the merge-step ablation).
//!
//! Run: `cargo run -p dslog-bench --release --bin fig9 [--scale f]`

use dslog::api::Dslog;
use dslog::query::QueryOptions;
use dslog::table::Orientation;
use dslog_baselines::all_formats;
use dslog_baselines::relengine::{array_query_chain, hash_join_chain};
use dslog_bench::{cli_scale_seed, secs, timed, TextTable};
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

struct Stats {
    sum: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl Stats {
    fn new() -> Self {
        Self {
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
            n: 0,
        }
    }
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.n += 1;
    }
    fn render(&self) -> String {
        if self.n == 0 {
            return "-".into();
        }
        format!(
            "{} ({}, {})",
            secs(self.sum / self.n as f64),
            secs(self.min),
            secs(self.max)
        )
    }
}

fn run_experiment(
    n_ops: usize,
    n_pipelines: usize,
    initial_cells: usize,
    seed: u64,
    with_extras: bool,
) {
    println!("\n(Fig 9) {n_ops}-op random numpy workflows, {n_pipelines} pipelines, {initial_cells} initial cells");
    let selectivity = 0.01;
    let formats = all_formats();

    let mut sys_names: Vec<String> = vec!["DSLog".into()];
    if with_extras {
        sys_names.push("DSLog-NoMerge".into());
    }
    sys_names.extend(formats.iter().map(|f| f.name().to_string()));
    let mut stats: Vec<Stats> = sys_names.iter().map(|_| Stats::new()).collect();

    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xf19);
    for pi in 0..n_pipelines {
        let p = generate(RandomPipelineSpec {
            seed: seed.wrapping_add(pi as u64 * 7919),
            n_ops,
            initial_cells,
        });
        let mut db = Dslog::new();
        p.register_into(&mut db).unwrap();
        let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();

        // Query cells: contiguous range at the chosen selectivity.
        let shape = p.shape_of(&p.main_path[0]).to_vec();
        let cells_total: usize = shape.iter().product();
        let count = ((cells_total as f64 * selectivity) as usize).max(1);
        let start_at = rng.gen_range(0..=cells_total - count);
        let cells: Vec<Vec<i64>> = (start_at..start_at + count)
            .map(|linear| {
                let mut idx = vec![0i64; shape.len()];
                let mut rem = linear;
                for k in (0..shape.len()).rev() {
                    idx[k] = (rem % shape[k]) as i64;
                    rem /= shape[k];
                }
                idx
            })
            .collect();

        let mut col = 0usize;
        // DSLog.
        let (r, t) = timed(|| db.prov_query(&path, &cells).unwrap());
        let truth = r.cells.cell_set();
        stats[col].push(t);
        col += 1;
        // DSLog-NoMerge.
        if with_extras {
            let (r2, t2) = timed(|| {
                db.prov_query_opts(
                    &path,
                    &cells,
                    QueryOptions {
                        merge: false,
                        ..QueryOptions::default()
                    },
                )
                .unwrap()
            });
            assert_eq!(r2.cells.cell_set(), truth, "no-merge must agree");
            stats[col].push(t2);
            col += 1;
        }
        // Format baselines.
        let hop_tables = p.main_path_tables();
        let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
        for f in &formats {
            let encoded: Vec<Vec<u8>> = hop_tables.iter().map(|t| f.encode(t)).collect();
            let (result, t) = timed(|| {
                let decoded: Vec<_> = encoded.iter().map(|b| f.decode(b)).collect();
                let hops: Vec<_> = decoded.iter().map(|t| (t, Orientation::Forward)).collect();
                if f.name() == "Array" {
                    array_query_chain(&start, &hops, 1000)
                } else {
                    hash_join_chain(&start, &hops)
                }
            });
            assert_eq!(result, truth, "{} disagrees on pipeline {pi}", f.name());
            stats[col].push(t);
            col += 1;
        }
        eprint!("\r  pipeline {}/{n_pipelines} done", pi + 1);
    }
    eprintln!();

    let mut table = TextTable::new(&["system", "avg (min, max)"]);
    for (name, s) in sys_names.iter().zip(stats.iter()) {
        table.row(&[name.clone(), s.render()]);
    }
    println!("{}", table.render());
}

fn main() {
    let (scale, seed) = cli_scale_seed();
    println!("Figure 9 — random numpy workflow query latency (scale {scale}, seed {seed})");
    let initial_cells = ((100_000.0 * scale) as usize).max(400);
    let n_pipelines = 20;
    run_experiment(5, n_pipelines, initial_cells, seed, true);
    run_experiment(10, n_pipelines, initial_cells, seed ^ 0xbeef, false);
}
