//! Multi-hop query planning (and the batched executor).
//!
//! The paper executes `prov_query` hops strictly in path order (§V.B.3),
//! and so does every planned query that no composite edge serves. Around
//! that chain the planner adds:
//!
//! * **Resolution** — a query runs from its path's entry in the storage
//!   manager's per-path registry (`ResolvedPath`, found from the borrowed
//!   names under a read lock): every hop already bound to its edge and
//!   orientation, so neither planning nor execution looks an array or an
//!   edge up by name.
//!
//! * **Composite edges** ([`PlanDecision::CompositeEdge`]) — a θ-join of
//!   edges is itself an edge. When the planner keeps seeing the same
//!   multi-hop path (three sightings), the joined relation is compressed
//!   once into a real `CompressedTable`, registered in the path's registry
//!   entry, and later queries run it as a *single* probe. Ingest into any member edge drops the entry, and
//!   the composite with it (see `ResolvedPath::observe_composite`); size
//!   caps mark oversized paths unmaterializable instead.
//!
//! Every decision is surfaced in [`QueryStats::plan`] as a [`PlanReport`].
//! The whole module sits behind [`QueryOptions::use_planner`]; with it
//! off, `path_order` reproduces the paper's strict left-to-right chain
//! and no composite is sighted, built or served.
//!
//! `execute_batch` is the planner's vectorized entry point: many queries
//! sharing one path are deduplicated into a single set of unique frontier
//! boxes with per-query owner bitsets, each hop resolves its table once
//! and probes each unique box once — through the same row kernel a single
//! query's hop runs — and results are demultiplexed per query at the end:
//! one index pass instead of Q passes.

use crate::error::Result;
use crate::interval::Interval;
use crate::query::exec::{query_support, Hop, HopJoin, HopStats, QueryExec, QueryStats};
use crate::query::QueryOptions;
use crate::reuse::{COMPOSITE_MAX_ROWS, COMPOSITE_MAX_SUPPORT_CELLS};
use crate::storage::{CompositeProbe, ResolvedPath, StorageManager};
use crate::table::{BoxTable, CompressedTable, LineageTable, Orientation};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the planner decided to do with one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDecision {
    /// Hops ran strictly in path order.
    PathOrder,
    /// A materialized composite edge served the whole path as one probe.
    CompositeEdge {
        /// Number of path hops the single probe replaced.
        hops_folded: usize,
    },
}

/// The plan one query ran with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// What the planner chose.
    pub decision: PlanDecision,
}

impl PlanDecision {
    /// Short stable label, used by the CLI and the net protocol's stats
    /// rendering.
    pub fn label(&self) -> &'static str {
        match self {
            PlanDecision::PathOrder => "path_order",
            PlanDecision::CompositeEdge { .. } => "composite",
        }
    }
}

/// The paper's strict left-to-right chain: resolve each hop, join, merge
/// per [`QueryOptions::merge`], stop early on an empty frontier (the
/// result then carries the *last* array's arity). This is both the
/// `use_planner = false` ablation and what a planned query runs when no
/// composite edge serves its path.
///
/// `resolved` is `path`'s registry entry (as in every function below); the
/// names are only read to report a pair no edge connects.
pub(crate) fn path_order(
    path: &[&str],
    resolved: &ResolvedPath,
    mut cur: BoxTable,
    opts: QueryOptions,
) -> Result<(BoxTable, QueryStats)> {
    let exec = QueryExec::new(opts);
    let mut stats = QueryStats {
        hops: Vec::with_capacity(resolved.n_hops()),
        plan: None,
    };
    for k in 0..resolved.n_hops() {
        let table = resolved.resolve_hop(k, path)?;
        let (mut next, hop_stats) = exec.hop(&cur, &table)?;
        stats.hops.push(hop_stats);
        if opts.merge {
            next.merge();
        }
        cur = next;
        if cur.is_empty() {
            return Ok((BoxTable::new(resolved.last.ndim()), stats));
        }
    }
    Ok((cur, stats))
}

/// Plan and execute one query (the `use_planner = true` path). Returns
/// exactly the cells [`path_order`] would, with [`QueryStats::plan`] set.
pub(crate) fn execute(
    storage: &StorageManager,
    path: &[&str],
    resolved: &ResolvedPath,
    cur: BoxTable,
    opts: QueryOptions,
) -> Result<(BoxTable, QueryStats)> {
    if let Some(table) = composite_for(storage, path, resolved) {
        return composite_serve(resolved.n_hops(), cur, opts, &table);
    }
    let (out, mut stats) = path_order(path, resolved, cur, opts)?;
    stats.plan = Some(PlanReport {
        decision: PlanDecision::PathOrder,
    });
    Ok((out, stats))
}

/// Record one sighting of `path` and return the composite table to serve
/// it from: the registered one, or one materialized now that the path is
/// hot. `None` runs the path in order.
fn composite_for(
    storage: &StorageManager,
    path: &[&str],
    resolved: &ResolvedPath,
) -> Option<Arc<CompressedTable>> {
    match resolved.observe_composite() {
        CompositeProbe::Serve(table) => Some(table),
        CompositeProbe::Materialize => try_materialize(storage, path, resolved),
        CompositeProbe::Pass => None,
    }
}

/// One probe against a materialized composite table covering the path.
fn composite_serve(
    hops_folded: usize,
    cur: BoxTable,
    opts: QueryOptions,
    table: &CompressedTable,
) -> Result<(BoxTable, QueryStats)> {
    let exec = QueryExec::new(opts);
    let (mut out, hop) = exec.hop(&cur, table)?;
    if opts.merge {
        out.merge();
    }
    let stats = QueryStats {
        hops: vec![hop],
        plan: Some(PlanReport {
            decision: PlanDecision::CompositeEdge { hops_folded },
        }),
    };
    Ok((out, stats))
}

/// Materialize the composite edge for `path`: join the whole chain over
/// the first hop's query-side support, compress the result as a real
/// backward table (primary side = first array), and register it. Returns
/// `None` without installing while a member table cannot be read (a lazy
/// load failed; path order reports it) or is generalized; installs an
/// *unmaterializable* marker when a size cap is exceeded (never retried
/// until an ingest drops the entry).
fn try_materialize(
    storage: &StorageManager,
    path: &[&str],
    resolved: &ResolvedPath,
) -> Option<Arc<CompressedTable>> {
    let mut tables = Vec::with_capacity(resolved.n_hops());
    for k in 0..resolved.n_hops() {
        let table = resolved.resolve_hop(k, path).ok()?;
        if table.table().is_generalized() {
            return None;
        }
        tables.push(table);
    }
    let mut support = query_support(tables[0].hop()).ok()?;
    support.merge();
    if support.volume() > COMPOSITE_MAX_SUPPORT_CELLS {
        storage.install_composite(path, resolved, None);
        return None;
    }
    let (first_shape, last_shape) = (&resolved.first.shape, &resolved.last.shape);
    let exec = QueryExec::default();
    let hops: Vec<Hop<'_>> = tables.iter().map(|t| t.hop()).collect();
    let mut lineage = LineageTable::new(first_shape.len(), last_shape.len());
    // One query table, point box and row buffer serve every support cell.
    let mut q = BoxTable::new(first_shape.len());
    let mut point = Vec::with_capacity(first_shape.len());
    let mut row = Vec::with_capacity(first_shape.len() + last_shape.len());
    for source in support.cell_set() {
        point.clear();
        point.extend(source.iter().map(|&v| Interval::point(v)));
        q.clear();
        q.push_box(&point);
        let (out, _) = exec.chain(&q, &hops).ok()?;
        for target in out.cell_set() {
            if lineage.n_rows() >= COMPOSITE_MAX_ROWS {
                storage.install_composite(path, resolved, None);
                return None;
            }
            row.clear();
            row.extend_from_slice(&source);
            row.extend_from_slice(&target);
            lineage.push_row(&row);
        }
    }
    let table = crate::provrc::compress(&lineage, first_shape, last_shape, Orientation::Backward);
    let table = Arc::new(table);
    if !table.is_generalized() {
        table.ensure_index();
    }
    storage.install_composite(path, resolved, Some(Arc::clone(&table)));
    Some(table)
}

/// Vectorized execution of many queries sharing one path: deduplicate the
/// union of all frontiers into unique boxes with per-query owner bitsets,
/// resolve each hop's table once, probe each unique box once, propagate
/// owner sets to the output boxes, and demultiplex at the end. Returns
/// one result frontier per input query (cells of the path's last array)
/// plus the batch-wide aggregated stats.
///
/// Batch planning is limited to composite-edge serving (one sighting per
/// batch call); per-query frontiers are not merged between hops — owners
/// differ per box, so only the final demultiplexed results merge.
pub(crate) fn execute_batch(
    storage: &StorageManager,
    path: &[&str],
    resolved: &ResolvedPath,
    frontiers: &[BoxTable],
    opts: QueryOptions,
) -> Result<(Vec<BoxTable>, QueryStats)> {
    let n_hops = resolved.n_hops();
    let last_ndim = resolved.last.ndim();
    let nq = frontiers.len();
    let words = nq.div_ceil(64);

    // Seed the unique-box set from every query's frontier.
    let mut uniq: Vec<OwnedBox> = Vec::new();
    let mut slots: HashMap<Vec<Interval>, usize> = HashMap::new();
    for (q, frontier) in frontiers.iter().enumerate() {
        for b in frontier.boxes() {
            let slot = *slots.entry(b.to_vec()).or_insert_with(|| {
                uniq.push((b.to_vec(), vec![0u64; words]));
                uniq.len() - 1
            });
            uniq[slot].1[q / 64] |= 1 << (q % 64);
        }
    }

    let mut stats = QueryStats::default();

    // Composite serving (the only batch-level plan beyond path order).
    let composite = if opts.use_planner {
        composite_for(storage, path, resolved)
    } else {
        None
    };

    let decision = if let Some(table) = composite {
        if !uniq.is_empty() {
            let (next, hop) = batch_hop(&uniq, table.as_ref().into(), words)?;
            stats.hops.push(hop);
            uniq = next;
        }
        PlanDecision::CompositeEdge {
            hops_folded: n_hops,
        }
    } else {
        for k in 0..n_hops {
            if uniq.is_empty() {
                break;
            }
            let table = resolved.resolve_hop(k, path)?;
            let (next, hop_stats) = batch_hop(&uniq, table.hop(), words)?;
            stats.hops.push(hop_stats);
            uniq = next;
        }
        PlanDecision::PathOrder
    };
    if opts.use_planner {
        stats.plan = Some(PlanReport { decision });
    }

    // Demultiplex: each query collects the unique boxes it owns.
    let mut results = Vec::with_capacity(nq);
    for q in 0..nq {
        let mut out = BoxTable::new(last_ndim);
        for (bx, owners) in &uniq {
            if owners[q / 64] >> (q % 64) & 1 == 1 {
                out.push_box(bx);
            }
        }
        if opts.merge {
            out.merge();
        }
        results.push(out);
    }
    Ok((results, stats))
}

/// A deduplicated frontier box plus the bitset of queries that own it.
type OwnedBox = (Vec<Interval>, Vec<u64>);

/// One batched hop: probe every unique box through `hop` with the hop's
/// row kernel, union owner bitsets onto the (deduplicated) output boxes,
/// aggregate the stats (`wall` sums the probes, as a hop's does). Called
/// only with boxes to probe.
fn batch_hop(uniq: &[OwnedBox], hop: Hop<'_>, words: usize) -> Result<(Vec<OwnedBox>, HopStats)> {
    let mut join = HopJoin::new(uniq[0].0.len(), hop)?;
    let mut wall = Duration::ZERO;
    let mut next: Vec<OwnedBox> = Vec::new();
    let mut slots: HashMap<Vec<Interval>, usize> = HashMap::new();
    for (bx, owners) in uniq {
        join.out.clear();
        let start = Instant::now();
        join.probe(bx)?;
        wall += start.elapsed();
        for ob in join.out.boxes() {
            let slot = *slots.entry(ob.to_vec()).or_insert_with(|| {
                next.push((ob.to_vec(), vec![0u64; words]));
                next.len() - 1
            });
            for (dst, src) in next[slot].1.iter_mut().zip(owners) {
                *dst |= src;
            }
        }
    }
    let stats = join.stats(next.len(), wall);
    Ok((next, stats))
}
