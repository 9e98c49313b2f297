//! Criterion companion to Figs. 8–9: query latency of DSLog's in-situ
//! θ-join chain versus the baselines' decode-then-hash-join plan and the
//! Array baseline's vectorized scan, on a five-op random numpy pipeline at
//! three query selectivities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dslog::api::Dslog;
use dslog::table::{LineageTable, Orientation};
use dslog_baselines::relengine;
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use std::collections::BTreeSet;

struct Setup {
    db: Dslog,
    path: Vec<String>,
    tables: Vec<LineageTable>,
    source_shape: Vec<usize>,
}

fn setup() -> Setup {
    let p = generate(RandomPipelineSpec {
        seed: 7,
        n_ops: 5,
        initial_cells: 10_000,
    });
    let mut db = Dslog::new();
    p.register_into(&mut db).unwrap();
    let tables = p.main_path_tables().into_iter().cloned().collect();
    Setup {
        db,
        path: p.main_path.clone(),
        source_shape: p.shape_of("a0").to_vec(),
        tables,
    }
}

/// The first `k` cells of the source array in row-major order.
fn query_cells(shape: &[usize], k: usize) -> Vec<Vec<i64>> {
    let cols = shape.get(1).copied().unwrap_or(1) as i64;
    (0..k as i64)
        .map(|linear| {
            if shape.len() == 1 {
                vec![linear]
            } else {
                vec![linear / cols, linear % cols]
            }
        })
        .collect()
}

fn query_latency(c: &mut Criterion) {
    let s = setup();
    let total: usize = s.source_shape.iter().product();
    let mut group = c.benchmark_group("fig8_query_latency");
    group.sample_size(10);

    for selectivity in [0.001f64, 0.01, 0.1] {
        let k = ((total as f64 * selectivity) as usize).max(1);
        let cells = query_cells(&s.source_shape, k);
        let path: Vec<&str> = s.path.iter().map(String::as_str).collect();

        group.bench_with_input(
            BenchmarkId::new("DSLog_in_situ", format!("{selectivity}")),
            &cells,
            |b, cells| b.iter(|| s.db.prov_query(&path, cells).unwrap()),
        );

        let start: BTreeSet<Vec<i64>> = cells.iter().cloned().collect();
        let hops: Vec<(&LineageTable, Orientation)> =
            s.tables.iter().map(|t| (t, Orientation::Forward)).collect();
        group.bench_with_input(
            BenchmarkId::new("hash_join_raw", format!("{selectivity}")),
            &start,
            |b, start| b.iter(|| relengine::hash_join_chain(start, &hops)),
        );

        // The Array baseline's scan is quadratic-ish; keep it to the two
        // most selective points so the bench finishes (the paper's Array
        // baseline also "did not complete for less selective queries").
        if selectivity <= 0.01 {
            group.bench_with_input(
                BenchmarkId::new("array_scan", format!("{selectivity}")),
                &start,
                |b, start| b.iter(|| relengine::array_query_chain(start, &hops, 1000)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = query_latency
}
criterion_main!(benches);
