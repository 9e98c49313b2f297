//! Ablation benches for the design choices DESIGN.md §7 calls out:
//!
//! * the per-hop **merge** step on and off (the paper's DSLog-NoMerge),
//! * **parallel vs serial** batch compression (the paper expects
//!   "significant performance gains from a multi-threaded implementation"),
//! * **gzip-on-top** cost for structured vs unstructured lineage,
//! * eager **both-orientations** materialization vs deriving forward
//!   lazily on the first forward query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dslog::api::{Dslog, TableCapture};
use dslog::provrc::{self, CompressJob};
use dslog::query::QueryOptions;
use dslog::storage::format;
use dslog::table::{LineageTable, Orientation};
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};

fn merge_ablation(c: &mut Criterion) {
    // A 10-op pipeline where intermediate results fragment into many boxes
    // unless merged between hops.
    let p = generate(RandomPipelineSpec {
        seed: 23,
        n_ops: 10,
        initial_cells: 4_096,
    });
    let mut db = Dslog::new();
    p.register_into(&mut db).unwrap();
    let path: Vec<&str> = p.main_path.iter().map(String::as_str).collect();
    let shape = p.shape_of("a0").to_vec();
    let cols = shape.get(1).copied().unwrap_or(1) as i64;
    let cells: Vec<Vec<i64>> = (0..256).map(|i| vec![i / cols, i % cols]).collect();

    let mut group = c.benchmark_group("ablation_merge");
    group.sample_size(10);
    group.bench_function("DSLog", |b| {
        b.iter(|| {
            db.prov_query_opts(&path, &cells, QueryOptions { merge: true })
                .unwrap()
        })
    });
    group.bench_function("DSLog-NoMerge", |b| {
        b.iter(|| {
            db.prov_query_opts(&path, &cells, QueryOptions { merge: false })
                .unwrap()
        })
    });
    group.finish();
}

fn parallel_compression_ablation(c: &mut Criterion) {
    // Eight medium relations — the granularity a register_operation batch
    // produces.
    let tables: Vec<LineageTable> = (0..8)
        .map(|k| {
            let mut t = LineageTable::new(1, 1);
            for i in 0..20_000i64 {
                t.push_row(&[i, (i + k) % 20_000]);
            }
            t
        })
        .collect();
    let shape = [20_000usize];
    let jobs: Vec<CompressJob<'_>> = tables.iter().map(|t| (t, &shape[..], &shape[..])).collect();

    let mut group = c.benchmark_group("ablation_parallel_compress");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            jobs.iter()
                .map(|(t, o, i)| provrc::compress(t, o, i, Orientation::Backward))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| provrc::compress_batch_parallel(&jobs, Orientation::Backward))
    });
    group.finish();
}

fn gzip_ablation(c: &mut Criterion) {
    let mut structured = LineageTable::new(1, 1);
    for i in 0..50_000i64 {
        structured.push_row(&[i, i]);
    }
    let mut unstructured = LineageTable::new(1, 1);
    for i in 0..50_000i64 {
        unstructured.push_row(&[i, (i * 48271 + 7) % 50_000]);
    }
    let shape = [50_000usize];

    let mut group = c.benchmark_group("ablation_gzip");
    group.sample_size(10);
    for (name, table) in [("structured", &structured), ("unstructured", &unstructured)] {
        let compressed = provrc::compress(table, &shape, &shape, Orientation::Backward);
        group.bench_with_input(BenchmarkId::new("plain", name), &compressed, |b, t| {
            b.iter(|| format::serialize(t))
        });
        group.bench_with_input(BenchmarkId::new("gzip", name), &compressed, |b, t| {
            b.iter(|| format::serialize_gzip(t))
        });
    }
    group.finish();
}

fn orientation_ablation(c: &mut Criterion) {
    // Cost of the first query over a freshly ingested edge in each
    // direction: backward probes the stored table along its orientation,
    // forward reads the same table in reverse (and builds its secondary
    // index on the way).
    let mut lineage = LineageTable::new(1, 1);
    for i in 0..20_000i64 {
        lineage.push_row(&[i, (i + 17) % 20_000]);
    }

    let mut group = c.benchmark_group("ablation_orientation");
    group.sample_size(10);
    for (name, path) in [
        ("backward", ["out", "in"]),
        ("forward_reverse_probe", ["in", "out"]),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut db = Dslog::new();
                    db.define_array("in", &[20_000]).unwrap();
                    db.define_array("out", &[20_000]).unwrap();
                    db.add_lineage("in", "out", &TableCapture::new(lineage.clone()))
                        .unwrap();
                    db
                },
                |db| db.prov_query(&path, &[vec![7]]).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = merge_ablation,parallel_compression_ablation,gzip_ablation,orientation_ablation
}
criterion_main!(benches);
