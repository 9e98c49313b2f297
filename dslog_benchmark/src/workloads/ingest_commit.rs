//! `ingest_commit`: the write path. One closed-loop writer defines a batch's
//! arrays, ingests four raw edges in one `ingest_batch`, and commits, against
//! a `DslogService` bound to a fresh directory. Afterwards the directory is
//! reopened and every acknowledged commit must still be there.

use crate::common::{
    dir_usage, ns_to_us, p50_ms, p50_us, peak_rss_mb, timed_setups, Ctx, Failures, Metrics,
    Outcome, Phases,
};
use crate::gen::{self, EdgeKind, Query, RawEdge};
use crate::json::Value;
use crate::layers;
use crate::oracle::Oracle;
use crate::rng::Rng;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use dslog::provrc::{compress_both_opts, CompressOptions};
use dslog::service::{AutoCommitPolicy, DslogService, IngestJob};
use dslog::Dslog;
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Sizes {
    regular_cells: usize,
    scatter_rows: usize,
    numpy_cells: usize,
    /// One acknowledged batch in this many is re-checked after the reopen.
    verify_every: usize,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Self {
        if ctx.check {
            Self {
                regular_cells: 2000,
                scatter_rows: 500,
                numpy_cells: 400,
                verify_every: 2,
            }
        } else {
            Self {
                regular_cells: 100_000,
                scatter_rows: 10_000,
                numpy_cells: 40_000,
                verify_every: 10,
            }
        }
    }
}

/// The four raw edges every batch ingests, under template array names
/// `t0 … t7`; batch `k` renames them `b{k}_t0 …`. Two regular edges that
/// compress to about one row, one incompressible scatter edge, and the
/// lineage of one random-numpy operation.
fn templates(ctx: &Ctx, sizes: &Sizes) -> Vec<RawEdge> {
    let n = sizes.regular_cells;
    let s = sizes.scatter_rows;
    let mut rng = Rng::stream(ctx.seed, "ingest-scatter");
    let pipeline = generate(RandomPipelineSpec {
        seed: 0x00f1_6009,
        n_ops: 5,
        initial_cells: sizes.numpy_cells,
    });
    let hop = &pipeline.hops[0];
    let edge = |kind, i: usize, in_shape: Vec<usize>, out_shape: Vec<usize>, table| RawEdge {
        kind,
        in_name: format!("t{}", 2 * i),
        out_name: format!("t{}", 2 * i + 1),
        in_shape,
        out_shape,
        table,
    };
    vec![
        edge(EdgeKind::Regular, 0, vec![n], vec![n], gen::one_to_one(n)),
        edge(
            EdgeKind::Regular,
            1,
            vec![n / 3],
            vec![n / 3],
            gen::convolution(n / 3),
        ),
        edge(
            EdgeKind::Scatter,
            2,
            vec![s],
            vec![s],
            gen::scatter(s, s, &mut rng),
        ),
        edge(
            EdgeKind::Numpy,
            3,
            pipeline.shape_of(&hop.in_array).to_vec(),
            pipeline.shape_of(&hop.out_array).to_vec(),
            hop.lineage.clone(),
        ),
    ]
}

fn batch_name(k: usize, template: &str) -> String {
    format!("b{k}_{template}")
}

struct Live {
    service: DslogService,
    dir: PathBuf,
}

/// Batches a set-up runs before the clock starts, under names of their own.
const WARMUP_BATCHES: usize = 8;
const WARMUP_BASE: usize = 1_000_000;
/// Set-ups per run: this one is short and fsync-bound, so it takes more of
/// them for a steady median.
const SETUPS: usize = 7;

fn setup(ctx: &Ctx, templates: &[RawEdge]) -> Live {
    let dir = ctx.fresh_dir("ingest-db");
    let db = Dslog::options().create(&dir).expect("create database");
    let service = DslogService::new(db, AutoCommitPolicy::manual());
    for k in 0..WARMUP_BATCHES {
        cycle(&service, templates, WARMUP_BASE + k, None).expect("warm-up batch");
    }
    Live { service, dir }
}

fn teardown(live: Live) -> PathBuf {
    let (_, final_commit) = live.service.shutdown().expect("no snapshot readers remain");
    final_commit.expect("final commit");
    live.dir
}

/// Durations of one define + ingest + commit cycle, in nanoseconds, and
/// what its commit wrote.
struct Cycle {
    total: u64,
    ingest: u64,
    commit: u64,
    commit_bytes: u64,
    commit_files: usize,
}

/// Run one step of a cycle, inside a span when the run is traced; returns
/// the step's duration in nanoseconds.
fn step(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<u32>,
    request: u64,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<u64, String> {
    match tracer {
        Some(t) => {
            let (r, _, ns) = t.span(name, parent, request, f);
            r.map(|()| ns)
        }
        None => {
            let t0 = Instant::now();
            f().map(|()| t0.elapsed().as_nanos() as u64)
        }
    }
}

/// One cycle of the writer, spans included when `tracer` is given. Returns
/// the durations, or what failed.
fn cycle(
    service: &DslogService,
    templates: &[RawEdge],
    k: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Cycle, String> {
    let request = k as u64;
    // The batch's raw tables are cloned before the clock starts: a real
    // producer hands over tables it already owns.
    let jobs: Vec<IngestJob> = templates
        .iter()
        .map(|e| {
            IngestJob::new(
                batch_name(k, &e.in_name),
                batch_name(k, &e.out_name),
                e.table.clone(),
            )
        })
        .collect();
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .and_then(|t| t.open("ingest.cycle", None, request));
    step(&mut tracer, "service.define", root, request, || {
        for e in templates {
            service
                .define_array(&batch_name(k, &e.in_name), &e.in_shape)
                .and_then(|()| service.define_array(&batch_name(k, &e.out_name), &e.out_shape))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let ingest = step(&mut tracer, "service.ingest_batch", root, request, || {
        let report = service.ingest_batch(jobs).map_err(|e| e.to_string())?;
        if report.edges == templates.len() {
            Ok(())
        } else {
            Err(format!("batch installed {} edges", report.edges))
        }
    })?;
    let (mut commit_bytes, mut commit_files) = (0, 0);
    let commit = step(&mut tracer, "service.commit", root, request, || {
        let report = service.commit().map_err(|e| e.to_string())?;
        (commit_bytes, commit_files) = (report.bytes_written, report.files_written);
        Ok(())
    })?;
    let total = start.elapsed().as_nanos() as u64;
    if let Some(t) = tracer {
        t.close(root);
    }
    Ok(Cycle {
        total,
        ingest,
        commit,
        commit_bytes,
        commit_files,
    })
}

/// After shutdown: reopen the directory; every acknowledged batch's edges
/// must be present, and a sample must answer queries as the oracle does.
fn verify_durable(
    dir: &Path,
    templates: &[RawEdge],
    acked: usize,
    every: usize,
    failures: &mut Failures,
) -> u64 {
    let db = match Dslog::options().open(dir) {
        Ok(db) => db,
        Err(e) => {
            failures.fail(format!("reopen failed: {e}"));
            return 0;
        }
    };
    let oracle = Oracle::new(templates);
    let mut checked = 0;
    for k in 0..acked {
        for e in templates {
            let (in_name, out_name) = (batch_name(k, &e.in_name), batch_name(k, &e.out_name));
            if !db.storage().has_directed_edge(&in_name, &out_name) {
                failures.fail(format!("acknowledged edge {in_name}->{out_name} is gone"));
                continue;
            }
            if k % every != 0 {
                continue;
            }
            // Backward from the middle output cell and forward from the
            // middle input cell.
            let mid = |shape: &[usize]| gen::cell_at(shape, shape.iter().product::<usize>() / 2);
            for (from, to, t_from, t_to, cell) in [
                (
                    &out_name,
                    &in_name,
                    &e.out_name,
                    &e.in_name,
                    mid(&e.out_shape),
                ),
                (
                    &in_name,
                    &out_name,
                    &e.in_name,
                    &e.out_name,
                    mid(&e.in_shape),
                ),
            ] {
                checked += 1;
                let cells = [cell];
                let got = db.prov_query(&[from.as_str(), to.as_str()], &cells);
                let want = oracle.query(&[t_from.as_str(), t_to.as_str()], &cells);
                match (got, want) {
                    (Ok(got), Ok(want)) if got.cells.cell_set() == want => {}
                    (Ok(_), Ok(_)) => {
                        failures.fail(format!("{from}->{to} answers wrongly after reopen"))
                    }
                    (Err(e), _) => failures.fail(format!("{from}->{to} after reopen: {e}")),
                    (_, Err(e)) => failures.fail(e),
                }
            }
        }
    }
    checked
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sizes = Sizes::of(ctx);
    let mut phases = Phases::start();
    let templates = templates(ctx, &sizes);
    phases.end("generate");
    let (live, setup_s) = timed_setups(
        ctx,
        SETUPS,
        || setup(ctx, &templates),
        |live| {
            teardown(live);
        },
    );
    phases.end("setup");
    let config = format!("{:?}", live.service.stats().config);
    let rows_per_batch: u64 = templates.iter().map(|e| e.rows() as u64).sum();
    let raw_per_batch: u64 = templates.iter().map(RawEdge::raw_bytes).sum();

    let mut failures = Failures::default();
    let mut metrics = Metrics::new(if ctx.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    });
    let mut tracer = ctx.trace.then(Tracer::new);
    // Each completed cycle, with whether it was traced.
    let mut cycles: Vec<(bool, Cycle)> = Vec::new();
    let mut done_ns = Vec::new();
    let mut compress_ns = Vec::new();
    // A fixed count of batches: every batch costs more than the one before
    // (the operation log embeds a catalog per commit), so a run that stopped
    // at a time would give a faster writer more and dearer batches.
    let batches = ctx.timed_ops() as usize;
    let start = Instant::now();
    let cut_off = ctx.cut_off(start);
    let mut k = 0;
    while k < batches && Instant::now() < cut_off {
        // A traced run traces every other cycle, and the untraced ones in
        // between give the overhead. (Not the first ones against the last:
        // a cycle costs more as the directory grows.)
        let mut tracer = tracer.as_mut().filter(|_| k % 2 == 1);
        if let Some(t) = tracer.as_deref_mut() {
            // The compression the ingest is about to do, on its own: the
            // share of `service.ingest_batch` that is ProvRC.
            let (_, _, ns) = t.span("provrc.compress", None, k as u64, || {
                for e in &templates {
                    black_box(compress_both_opts(
                        &e.table,
                        &e.out_shape,
                        &e.in_shape,
                        CompressOptions::default(),
                    ));
                }
            });
            compress_ns.push(ns);
        }
        match cycle(&live.service, &templates, k, tracer) {
            Ok(c) => {
                cycles.push((k % 2 == 1, c));
                done_ns.push(start.elapsed().as_nanos() as u64);
            }
            Err(e) => {
                failures.fail(format!("batch {k}: {e}"));
                // A failed batch may have left its arrays defined; the next
                // batch uses fresh names either way.
            }
        }
        k += 1;
    }
    failures.cut_short(k as u64, batches as u64);
    phases.end("timed");
    let acked = cycles.len();
    let (stored_bytes, rss) = (dir_usage(&live.dir).0, peak_rss_mb());
    failures.add(live.service.stats().failed_commits, "commit failed");
    let service_stats = live.service.stats();

    let dir = teardown(live);
    let checked = verify_durable(&dir, &templates, acked, sizes.verify_every, &mut failures);
    phases.end("verify");
    let attempted = batches as u64 + checked;

    let total_ns: Vec<u64> = cycles.iter().map(|(_, c)| c.total).collect();
    let ingest_ns: Vec<u64> = cycles.iter().map(|(_, c)| c.ingest).collect();
    let commit_ns: Vec<u64> = cycles.iter().map(|(_, c)| c.commit).collect();
    if ctx.trace {
        metrics.set("service.ingest_batch_p50_ms", p50_ms(&ingest_ns));
        metrics.set("service.ingest_ack_p50_ms", p50_ms(&ingest_ns));
        metrics.set("service.commit_p50_ms", p50_ms(&commit_ns));
        metrics.set("service.epochs", service_stats.epoch as f64);
        metrics.set("service.auto_commits", service_stats.auto_commits as f64);
        metrics.set("service.compactions", service_stats.compactions as f64);
        metrics.set(
            "service.failed_commits",
            service_stats.failed_commits as f64,
        );
        let tracer = tracer.expect("traced run");
        // The compression replay runs outside the cycle, so the cycle
        // itself pays only for the span bookkeeping.
        let of = |traced: bool| -> Vec<u64> {
            cycles
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, c)| c.total)
                .collect()
        };
        metrics.set_trace_overhead(p50_us(&of(true)), p50_us(&of(false)));
        tracer.write(ctx, &mut failures);
        phases.end("trace_report");
        let edges: Vec<&RawEdge> = templates.iter().collect();
        let probe_query = Query {
            path: vec![batch_name(0, "t1"), batch_name(0, "t0")].into(),
            cells: vec![vec![(sizes.regular_cells / 2) as i64]],
        };
        if let Err(e) = layers::probe_all(ctx, &edges, Some(&dir), &probe_query, &mut metrics) {
            failures.fail(format!("layer probe: {e}"));
        }
        // The workload's own commits are the commit numbers that matter
        // here: one per cycle, four edge files each.
        metrics.set("storage.commit_s", p50_ms(&commit_ns) / 1e3);
        if let Some((_, last)) = cycles.last() {
            metrics.set("storage.commit_bytes_written", last.commit_bytes as f64);
            metrics.set("storage.commit_files_written", last.commit_files as f64);
        }
        metrics.set("provrc.compress_s", p50_ms(&compress_ns) / 1e3);
        phases.end("layer_probes");
    } else {
        if total_ns.is_empty() {
            failures.fail("no batch completed");
        } else {
            metrics.set(
                "op_p50_us",
                ns_to_us(stats::sliced_percentile(&total_ns, 50.0)),
            );
            metrics.set(
                "op_tail_us",
                ns_to_us(stats::sliced_percentile(&total_ns, 90.0)),
            );
            metrics.set("ops_per_s", stats::sliced_rate(&done_ns));
        }
        // aux: the commit alone; aux2: the ingest alone.
        metrics.set("aux_p50_us", p50_us(&commit_ns));
        metrics.set("aux2_p50_us", p50_us(&ingest_ns));
        metrics.set(
            "stored_bytes_per_raw_byte",
            stored_bytes as f64 / (raw_per_batch * (acked + WARMUP_BATCHES) as u64) as f64,
        );
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", rss);
    }

    Outcome {
        attempted,
        failures,
        metrics,
        sizes: Value::obj(vec![
            ("edges_per_batch", Value::count(templates.len() as u64)),
            ("raw_rows_per_batch", Value::count(rows_per_batch)),
            ("raw_bytes_per_batch", Value::count(raw_per_batch)),
            ("batches_acked", Value::count(acked as u64)),
            ("durability_queries", Value::count(checked)),
            ("writer_threads", Value::count(1)),
        ]),
        config,
        phases: phases.done,
        steal_s: 0.0,
    }
}
