//! The read path, layer by layer: one query replayed at each public entry
//! point below the one the workload uses, with a span per replay and the
//! counters the query layer reports about itself.

use crate::common::{p50_us, Metrics};
use crate::gen::Query;
use crate::trace::Tracer;
use dslog::query::QueryExec;
use dslog::table::BoxTable;
use dslog::Dslog;
use std::hint::black_box;

/// Sums over the traced queries of one run.
#[derive(Debug, Default)]
pub struct QueryAgg {
    pub net_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    pub api_ns: Vec<u64>,
    pub hop_ns: Vec<u64>,
    pub probe_ns: u64,
    pub probes: u64,
    pub queries: u64,
    pub hops: u64,
    pub rows_probed: u64,
    pub rows_matched: u64,
    pub boxes_emitted: u64,
    /// Planner decisions: path_order, selective_first, composite, empty_edge.
    pub plans: [u64; 4],
    /// Queries over paths of three hops or more, and how many of those a
    /// composite edge served.
    pub long_paths: u64,
    pub composite_hits: u64,
}

const PLAN_LABELS: [&str; 4] = ["path_order", "selective_first", "composite", "empty_edge"];

/// Replay `q` against `db`: once through `Dslog::prov_query` (span
/// `query.api`), then hop by hop in path order through `QueryExec::hop`
/// (spans `query.hop`), probing each hop's index with the frontier's boxes
/// (spans `table.probe`).
///
/// The hop replay always walks the path in order, so for a query the planner
/// served from a composite edge the hops can add up to more than
/// `query.api`; self time is floored at 0 there.
pub fn trace_db_query(
    tracer: &mut Tracer,
    parent: Option<u32>,
    request: u64,
    db: &Dslog,
    q: &Query,
    agg: &mut QueryAgg,
) -> Result<(), String> {
    let path = q.path_refs();
    let (result, api_span, api_ns) = tracer.span("query.api", parent, request, || {
        db.prov_query(&path, &q.cells)
    });
    let result = result.map_err(|e| e.to_string())?;
    agg.api_ns.push(api_ns);
    agg.queries += 1;
    agg.hops += result.hops as u64;
    agg.rows_probed += result.stats.rows_probed() as u64;
    agg.rows_matched += result.stats.rows_matched() as u64;
    agg.boxes_emitted += result
        .stats
        .hops
        .iter()
        .map(|h| h.boxes_emitted as u64)
        .sum::<u64>();
    let label = result.stats.plan.as_ref().map(|p| p.decision.label());
    if let Some(i) = label.and_then(|l| PLAN_LABELS.iter().position(|&p| p == l)) {
        agg.plans[i] += 1;
    }
    if q.hops() >= 3 {
        agg.long_paths += 1;
        if label == Some("composite") {
            agg.composite_hits += 1;
        }
    }

    let arity = q.cells.first().map_or(0, Vec::len);
    let mut frontier = BoxTable::from_cells(arity, &q.cells);
    frontier.merge();
    let exec = QueryExec::new(db.query_options());
    for hop in path.windows(2) {
        if frontier.is_empty() {
            break;
        }
        let (table, _) = db
            .storage()
            .resolve_hop(hop[0], hop[1])
            .map_err(|e| e.to_string())?;
        let (out, hop_span, hop_ns) = tracer.span("query.hop", api_span, request, || {
            exec.hop(&frontier, &table)
        });
        let (mut out, _) = out.map_err(|e| e.to_string())?;
        agg.hop_ns.push(hop_ns);
        if let Some(index) = table.index() {
            let (_, _, probe_ns) = tracer.span("table.probe", hop_span, request, || {
                for qbox in frontier.boxes() {
                    black_box(index.probe(black_box(qbox)));
                }
            });
            agg.probe_ns += probe_ns;
            agg.probes += frontier.n_boxes() as u64;
        }
        out.merge();
        frontier = out;
    }
    Ok(())
}

impl QueryAgg {
    /// Fill the `net.*` timing, `service.query*`, `query.*`, `table.probe_ns`
    /// and `reuse.composite_hit_ratio` metrics.
    pub fn report(&self, m: &mut Metrics) {
        let per_query = |v: u64| {
            if self.queries == 0 {
                0.0
            } else {
                v as f64 / self.queries as f64
            }
        };
        let (net, service, api) = (
            p50_us(&self.net_ns),
            p50_us(&self.service_ns),
            p50_us(&self.api_ns),
        );
        m.set("net.query_p50_us", net);
        m.set("service.query_p50_us", service);
        m.set("query.api_p50_us", api);
        m.set("query.hop_p50_us", p50_us(&self.hop_ns));
        if !self.net_ns.is_empty() {
            m.set("net.self_us", (net - service).max(0.0));
        }
        if !self.service_ns.is_empty() {
            m.set("service.query_self_us", (service - api).max(0.0));
        }
        m.set("query.hops_per_query", per_query(self.hops));
        m.set("query.rows_probed_per_query", per_query(self.rows_probed));
        m.set("query.rows_matched_per_query", per_query(self.rows_matched));
        m.set(
            "query.boxes_emitted_per_query",
            per_query(self.boxes_emitted),
        );
        if self.rows_probed > 0 {
            m.set(
                "query.match_ratio",
                self.rows_matched as f64 / self.rows_probed as f64,
            );
        }
        for (label, &n) in PLAN_LABELS.iter().zip(&self.plans) {
            m.set(&format!("query.plan_share.{label}"), per_query(n));
        }
        if self.probes > 0 {
            m.set("table.probe_ns", self.probe_ns as f64 / self.probes as f64);
        }
        if self.long_paths > 0 {
            m.set(
                "reuse.composite_hit_ratio",
                self.composite_hits as f64 / self.long_paths as f64,
            );
        }
    }
}

/// `query.batch_p50_us`: 64 single-cell queries over one path in one
/// `prov_query_batch` call, repeated; the median per call.
pub fn batch_p50_us(db: &Dslog, path: &[&str], cells: &[Vec<i64>], repeats: usize) -> f64 {
    let mut times = Vec::with_capacity(repeats);
    for r in 0..repeats {
        let queries: Vec<Vec<Vec<i64>>> = (0..64)
            .map(|i| vec![cells[(r * 64 + i) % cells.len()].clone()])
            .collect();
        let start = std::time::Instant::now();
        let ok = black_box(db.prov_query_batch(path, &queries)).is_ok();
        if ok {
            times.push(start.elapsed().as_nanos() as u64);
        }
    }
    p50_us(&times)
}
