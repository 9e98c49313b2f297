//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the same
//! names (with bounds and reasons); `--check` fails when the two disagree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Length of a run, as `run_seconds` in `BENCHMARK.json`. On the reference
/// box the operation counts below keep a timed phase near it.
pub const RUN_SECONDS: f64 = 10.0;

/// A workload and the size of its timed phase. The phase runs a fixed count
/// of operations, never until a time: a system that got faster must not be
/// given more work (on `ingest_commit` each batch costs more than the one
/// before, because the directory grows), and both sides of a comparison must
/// answer the same requests.
pub struct Workload {
    pub name: &'static str,
    /// Operations of the timed phase of a run of [`RUN_SECONDS`]. The
    /// workload's `why` in `BENCHMARK.json` names the same count.
    pub ops: u64,
    /// The same for a traced run, whose operations are replayed layer by
    /// layer and cost more.
    pub traced_ops: u64,
    /// What one operation is.
    pub op: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_point",
        ops: 600_000,
        // A traced request is a blocking round trip, which on the reference
        // box costs 20 or 75 us depending on the hour.
        traced_ops: 60_000,
        op: "TCP query request",
    },
    Workload {
        name: "pipeline_query",
        ops: 100_800,
        traced_ops: 36_000,
        op: "prov_query call",
    },
    Workload {
        name: "ingest_commit",
        ops: 240,
        traced_ops: 240,
        op: "batch of 4 edges: define + ingest_batch + commit",
    },
    // The writer's schedule fixes the phase: one ingest every 20 ms. The
    // reader reads for as long as the schedule lasts.
    Workload {
        name: "mixed_serve",
        ops: 500,
        traced_ops: 500,
        op: "scheduled ingest request",
    },
    Workload {
        name: "reopen",
        ops: 360,
        traced_ops: 360,
        op: "round of three opens: eager, lazy, compacted",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Reported by every workload with `--trace 0`. What `op`, `aux` and `aux2`
/// stand for on each workload is in [`meaning`].
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_p50_us", "us"),
    m("op_tail_us", "us"),
    m("ops_per_s", "1/s"),
    m("aux_p50_us", "us"),
    m("aux2_p50_us", "us"),
    m("stored_bytes_per_raw_byte", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// What an end-to-end metric measures on a workload, led by the name the
/// issue that defined the benchmark gave that quantity, where it gave one.
/// (Every workload must report every end-to-end metric, so quantities that
/// exist on one workload only share the `op` / `aux` / `aux2` slots.)
pub fn meaning(workload: &str, metric: &str) -> &'static str {
    match (metric, workload) {
        ("setup_s", _) => "setup_s: median time to build the database and warm up",
        ("stored_bytes_per_raw_byte", _) => {
            "stored_bytes_per_raw_byte: directory bytes / (rows x arity x 8)"
        }
        ("peak_rss_mb", _) => "peak_rss_mb: VmHWM at the end of the timed phase",

        ("op_p50_us", "serve_point") => "query_p50_us: TCP query, 4 in flight",
        ("op_tail_us", "serve_point") => "query_p99_us, sliced",
        ("ops_per_s", "serve_point") => "queries_per_s",
        ("aux_p50_us", "serve_point") => "p50 of the 3-hop (composite-served) queries",
        ("aux2_p50_us", "serve_point") => "p50 of the 1-hop queries",

        ("op_p50_us", "pipeline_query") => "query_p50_us: Dslog::prov_query, whole mix",
        ("op_tail_us", "pipeline_query") => "query_p99_us, sliced",
        ("ops_per_s", "pipeline_query") => "queries_per_s",
        ("aux_p50_us", "pipeline_query") => "p50 of the forward queries",
        ("aux2_p50_us", "pipeline_query") => "p50 of the backward queries",

        ("op_p50_us", "ingest_commit") => "p50 of a define + ingest_batch + commit cycle",
        ("op_tail_us", "ingest_commit") => "p90 of the cycle (holds commit_p90_ms)",
        ("ops_per_s", "ingest_commit") => "ingest_rows_per_s / 249 997 rows per batch",
        ("aux_p50_us", "ingest_commit") => "commit_p50_ms x 1000",
        ("aux2_p50_us", "ingest_commit") => "p50 of ingest_batch alone (ProvRC + install)",

        ("op_p50_us", "mixed_serve") => "query_p50_us: reader's DslogService::query",
        ("op_tail_us", "mixed_serve") => "query_p99_us, sliced",
        ("ops_per_s", "mixed_serve") => "queries_per_s",
        ("aux_p50_us", "mixed_serve") => "p50 of the reader's 3-hop (composite-served) queries",
        ("aux2_p50_us", "mixed_serve") => "p50 of the reader's 1-hop queries",

        ("op_p50_us", "reopen") => "open_first_query_p50_ms x 1000: eager open + query + drop",
        ("op_tail_us", "reopen") => "p75 of the same",
        ("ops_per_s", "reopen") => "opens of all three kinds per second",
        ("aux_p50_us", "reopen") => "open_lazy_first_query_p50_ms x 1000",
        ("aux2_p50_us", "reopen") => "open_compacted_first_query_p50_ms x 1000",
        _ => "",
    }
}

/// Reported by every workload with `--trace 1`; 0 where a layer does no work.
pub const PER_LAYER: &[MetricDef] = &[
    m("net.query_p50_us", "us"),
    m("net.self_us", "us"),
    m("net.stats_roundtrip_p50_us", "us"),
    m("net.request_bytes_per_op", "B"),
    m("net.response_bytes_per_op", "B"),
    m("net.requests", "count"),
    m("net.rejected_busy", "count"),
    m("net.oversized_frames", "count"),
    m("service.query_p50_us", "us"),
    m("service.query_self_us", "us"),
    m("service.ingest_batch_p50_ms", "ms"),
    m("service.ingest_ack_p50_ms", "ms"),
    m("service.commit_p50_ms", "ms"),
    m("service.epochs", "count"),
    m("service.auto_commits", "count"),
    m("service.compactions", "count"),
    m("service.failed_commits", "count"),
    m("query.api_p50_us", "us"),
    m("query.hop_p50_us", "us"),
    m("query.batch_p50_us", "us"),
    m("query.hops_per_query", "count"),
    m("query.rows_probed_per_query", "count"),
    m("query.rows_matched_per_query", "count"),
    m("query.match_ratio", "ratio"),
    m("query.boxes_emitted_per_query", "count"),
    m("query.plan_share.path_order", "ratio"),
    m("query.plan_share.selective_first", "ratio"),
    m("query.plan_share.composite", "ratio"),
    m("query.plan_share.empty_edge", "ratio"),
    m("table.probe_ns", "ns"),
    m("table.index_build_ns_per_row", "ns"),
    m("reuse.composite_hit_ratio", "ratio"),
    m("reuse.composites_stored", "count"),
    m("provrc.compress_s", "s"),
    m("provrc.rows_in", "count"),
    m("provrc.rows_out", "count"),
    m("provrc.ns_per_row.regular", "ns"),
    m("provrc.ns_per_row.scatter", "ns"),
    m("storage.serialize_mb_s", "MB/s"),
    m("storage.deserialize_mb_s", "MB/s"),
    m("storage.commit_s", "s"),
    m("storage.commit_bytes_written", "B"),
    m("storage.commit_files_written", "count"),
    m("storage.wal_bytes", "B"),
    m("storage.dir_bytes", "B"),
    m("storage.dir_files", "count"),
    m("storage.write_amp", "ratio"),
    m("storage.open_eager_ms", "ms"),
    m("storage.open_lazy_ms", "ms"),
    m("storage.first_query_ms", "ms"),
    m("storage.open_as_of_ms", "ms"),
    m("storage.open_compacted_ms", "ms"),
    m("storage.verify_s", "s"),
    m("storage.compact_s", "s"),
    m("storage.compact_bytes_rewritten", "B"),
    m("codecs.crc32_mb_s", "MB/s"),
    m("codecs.varint_decode_mb_s", "MB/s"),
    m("codecs.gzip_mb_s", "MB/s"),
    m("codecs.gunzip_mb_s", "MB/s"),
    m("gen.late_p99_ms", "ms"),
    m("gen.trace_overhead_pct", "%"),
    m("gen.failed_share", "ratio"),
];
