//! Per-layer probes of the traced run: the benchmark times calls into each
//! layer's public functions on the workload's own data (its raw edges and
//! its database directory), so a change to one layer has a number of its own
//! to move before any end-to-end metric does.

use crate::common::{copy_dir, dir_usage, Ctx, Metrics};
use crate::gen::{EdgeKind, Query, RawEdge};
use crate::rng::Rng;
use crate::stats;
use dslog::api::TableCapture;
use dslog::provrc::{compress_both_opts, CompressOptions};
use dslog::storage::wal::OpKind;
use dslog::storage::{format, persist};
use dslog::table::{CompressedTable, TableIndex};
use dslog::{Dslog, Interval};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Raw rows the compression probe takes per run; past it, edges are skipped
/// so a traced run stays inside its time limit.
const MAX_PROBE_ROWS: usize = 1_500_000;
/// Bytes the gzip probe compresses (the vendored deflate is slow).
const MAX_GZIP_BYTES: usize = 2 << 20;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / 1e6 / seconds
    } else {
        0.0
    }
}

/// Repeat `f` until it has run for 30 ms, and return seconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed().as_millis() < 30 {
        f();
        calls += 1;
    }
    secs(start) / f64::from(calls)
}

/// `provrc.*`: compress each sampled raw edge in both orientations with the
/// default options, as ingest does. Returns the backward tables.
pub fn probe_provrc(edges: &[&RawEdge], m: &mut Metrics) -> Vec<CompressedTable> {
    let (mut rows_in, mut rows_out, mut total_s) = (0usize, 0usize, 0.0);
    // (seconds, rows) for regular and scatter edges.
    let mut by_kind = [(0.0f64, 0usize); 2];
    let mut tables = Vec::new();
    for e in edges {
        if rows_in + e.rows() > MAX_PROBE_ROWS && !tables.is_empty() {
            continue;
        }
        let start = Instant::now();
        let (backward, forward) = compress_both_opts(
            &e.table,
            &e.out_shape,
            &e.in_shape,
            CompressOptions::default(),
        );
        let dt = secs(start);
        black_box(&forward);
        total_s += dt;
        rows_in += e.rows();
        rows_out += backward.n_rows();
        let slot = match e.kind {
            EdgeKind::Regular => Some(0),
            EdgeKind::Scatter => Some(1),
            EdgeKind::Numpy => None,
        };
        if let Some(i) = slot {
            by_kind[i].0 += dt;
            by_kind[i].1 += e.rows();
        }
        tables.push(backward);
    }
    m.set("provrc.compress_s", total_s);
    m.set("provrc.rows_in", rows_in as f64);
    m.set("provrc.rows_out", rows_out as f64);
    for (name, (s, rows)) in ["provrc.ns_per_row.regular", "provrc.ns_per_row.scatter"]
        .iter()
        .zip(by_kind)
    {
        if rows > 0 {
            m.set(name, s * 1e9 / rows as f64);
        }
    }
    tables
}

/// `table.index_build_ns_per_row`, and `table.probe_ns` with random point
/// boxes when the workload's own queries have not measured it.
pub fn probe_table(tables: &[CompressedTable], seed: u64, m: &mut Metrics) {
    let (mut build_s, mut rows) = (0.0, 0usize);
    for t in tables
        .iter()
        .filter(|t| !t.is_generalized() && t.n_rows() > 0)
    {
        build_s += per_call(|| {
            black_box(TableIndex::build(black_box(t)));
        });
        rows += t.n_rows();
    }
    if rows > 0 {
        m.set("table.index_build_ns_per_row", build_s * 1e9 / rows as f64);
    }
    if m.get("table.probe_ns") > 0.0 {
        return;
    }
    let mut rng = Rng::stream(seed, "table-probe");
    let (mut probe_s, mut probes) = (0.0, 0u64);
    for t in tables {
        let Some(index) = t.index() else { continue };
        let extents = t.extents();
        let boxes: Vec<Vec<Interval>> = (0..4096)
            .map(|_| {
                (0..t.primary_arity())
                    .map(|k| Interval::point(rng.below(extents[k].max(1) as u64) as i64))
                    .collect()
            })
            .collect();
        let start = Instant::now();
        for qbox in &boxes {
            black_box(index.probe(black_box(qbox)));
        }
        probe_s += secs(start);
        probes += boxes.len() as u64;
    }
    if probes > 0 {
        m.set("table.probe_ns", probe_s * 1e9 / probes as f64);
    }
}

/// `storage.serialize_mb_s` / `deserialize_mb_s` over the sampled tables,
/// and the `codecs.*` floor over the same serialized bytes.
pub fn probe_format_and_codecs(tables: &[CompressedTable], edges: &[&RawEdge], m: &mut Metrics) {
    let start = Instant::now();
    let files: Vec<Vec<u8>> = tables.iter().map(format::serialize).collect();
    let serialize_s = secs(start);
    let total: usize = files.iter().map(Vec::len).sum();
    m.set("storage.serialize_mb_s", mb_per_s(total, serialize_s));
    let start = Instant::now();
    for bytes in &files {
        black_box(format::deserialize(black_box(bytes)).is_ok());
    }
    m.set("storage.deserialize_mb_s", mb_per_s(total, secs(start)));

    let blob: Vec<u8> = files.concat();
    if blob.is_empty() {
        return;
    }
    let crc_s = per_call(|| {
        black_box(dslog_codecs::crc32::crc32(black_box(&blob)));
    });
    m.set("codecs.crc32_mb_s", mb_per_s(blob.len(), crc_s));

    // Varint decode over the raw rows re-encoded as signed varints: the
    // integer stream a table file would hold with no structure found in it.
    let mut varints = Vec::new();
    'fill: for e in edges {
        for &v in e.table.raw() {
            dslog_codecs::varint::write_ivarint(&mut varints, v);
            if varints.len() >= 4 << 20 {
                break 'fill;
            }
        }
    }
    let varint_s = per_call(|| {
        let mut pos = 0;
        let mut sum = 0i64;
        while pos < varints.len() {
            match dslog_codecs::varint::read_ivarint(&varints, &mut pos) {
                Ok(v) => sum = sum.wrapping_add(v),
                Err(_) => break,
            }
        }
        black_box(sum);
    });
    m.set(
        "codecs.varint_decode_mb_s",
        mb_per_s(varints.len(), varint_s),
    );

    let plain = &blob[..blob.len().min(MAX_GZIP_BYTES)];
    let start = Instant::now();
    let packed = dslog_codecs::gzip::compress(plain);
    m.set("codecs.gzip_mb_s", mb_per_s(plain.len(), secs(start)));
    let start = Instant::now();
    let unpacked = dslog_codecs::gzip::decompress(&packed);
    let gunzip_s = secs(start);
    if unpacked.is_ok_and(|u| u == plain) {
        m.set("codecs.gunzip_mb_s", mb_per_s(plain.len(), gunzip_s));
    }
}

/// A database directory holding the sampled edges, for workloads that keep
/// theirs in memory. Also fills `storage.commit_*` from its one commit.
pub fn build_probe_dir(ctx: &Ctx, edges: &[&RawEdge], m: &mut Metrics) -> Result<PathBuf, String> {
    let dir = ctx.fresh_dir("probe-db");
    let mut db = Dslog::options().create(&dir).map_err(|e| e.to_string())?;
    for e in edges {
        db.define_array(&e.in_name, &e.in_shape)
            .map_err(|e| e.to_string())?;
        db.define_array(&e.out_name, &e.out_shape)
            .map_err(|e| e.to_string())?;
        db.add_lineage(&e.in_name, &e.out_name, &TableCapture::new(e.table.clone()))
            .map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    let report = db.commit().map_err(|e| e.to_string())?;
    m.set("storage.commit_s", secs(start));
    m.set("storage.commit_bytes_written", report.bytes_written as f64);
    m.set("storage.commit_files_written", report.files_written as f64);
    Ok(dir)
}

fn median_ms(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        f()?;
        times.push(secs(start) * 1e3);
    }
    Ok(stats::median_f64(&times))
}

/// `storage.*` sizes and open / verify / compact timings of a database
/// directory nobody else has open. `query` must be answerable from it.
pub fn probe_dir(ctx: &Ctx, dir: &Path, query: &Query, m: &mut Metrics) -> Result<(), String> {
    let err = |e: dslog::DslogError| e.to_string();
    let (dir_bytes, dir_files) = dir_usage(dir);
    let wal_bytes =
        std::fs::metadata(dir.join(dslog::storage::wal::OPS_LOG_FILE)).map_or(0, |meta| meta.len());
    m.set("storage.dir_bytes", dir_bytes as f64);
    m.set("storage.dir_files", dir_files as f64);
    m.set("storage.wal_bytes", wal_bytes as f64);

    // Bytes the directory's history wrote: every ingested edge file, every
    // compaction's segments, and the log itself, over the bytes now live.
    let history = dslog::storage::wal::history(dir).map_err(err)?;
    let (mut ingest_bytes, mut compact_bytes) = (0u64, 0u64);
    for record in &history {
        match &record.kind {
            OpKind::IngestEdge { bytes, .. } => ingest_bytes += bytes,
            OpKind::Compact { bytes, .. } => compact_bytes += bytes,
            _ => {}
        }
    }
    let live = dir_bytes.saturating_sub(wal_bytes).max(1);
    m.set(
        "storage.write_amp",
        (ingest_bytes + compact_bytes + wal_bytes) as f64 / live as f64,
    );

    let path = query.path_refs();
    m.set(
        "storage.open_eager_ms",
        median_ms(|| Dslog::options().open(dir).map(drop).map_err(err))?,
    );
    m.set(
        "storage.open_lazy_ms",
        median_ms(|| Dslog::options().lazy(true).open(dir).map(drop).map_err(err))?,
    );
    let lazy = Dslog::options().lazy(true).open(dir).map_err(err)?;
    let start = Instant::now();
    lazy.prov_query(&path, &query.cells).map_err(err)?;
    m.set("storage.first_query_ms", secs(start) * 1e3);
    let generation = lazy.bound_database().map_or(0, |(_, _, g)| g);
    drop(lazy);
    m.set(
        "storage.open_as_of_ms",
        median_ms(|| {
            Dslog::options()
                .as_of(generation)
                .open(dir)
                .map(drop)
                .map_err(err)
        })?,
    );
    let start = Instant::now();
    persist::verify(dir).map_err(err)?;
    m.set("storage.verify_s", secs(start));

    // Compaction runs on a copy, so the workload's directory stays as the
    // workload left it.
    let copy = ctx.tmp.join("probe-compact");
    copy_dir(dir, &copy).map_err(|e| e.to_string())?;
    let db = Dslog::options().open(&copy).map_err(err)?;
    let start = Instant::now();
    let report = db.compact().map_err(err)?;
    m.set("storage.compact_s", secs(start));
    m.set(
        "storage.compact_bytes_rewritten",
        compact_bytes as f64 + report.bytes_written as f64,
    );
    drop(db);
    m.set(
        "storage.open_compacted_ms",
        median_ms(|| Dslog::options().open(&copy).map(drop).map_err(err))?,
    );
    let _ = std::fs::remove_dir_all(&copy);
    Ok(())
}

/// Every probe that needs only raw edges and a directory, in one call.
/// `dir` is the workload's own database directory when it has one.
pub fn probe_all(
    ctx: &Ctx,
    edges: &[&RawEdge],
    dir: Option<&Path>,
    query: &Query,
    m: &mut Metrics,
) -> Result<(), String> {
    let tables = probe_provrc(edges, m);
    probe_table(&tables, ctx.seed, m);
    probe_format_and_codecs(&tables, edges, m);
    drop(tables);
    let built;
    let dir = match dir {
        Some(dir) => dir,
        None => {
            built = build_probe_dir(ctx, edges, m)?;
            &built
        }
    };
    probe_dir(ctx, dir, query, m)
}
