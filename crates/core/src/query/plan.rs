//! Cost-based multi-hop query planning (and the batched executor).
//!
//! The paper executes `prov_query` hops strictly in path order (§V.B.3).
//! That is optimal when every hop filters well, but a chain pays full
//! candidate-window cost on every early hop even when a *later* hop is
//! 1000× more selective. This module plans each query from statistics the
//! storage layer already has, at strictly-bounded extra cost:
//!
//! * **Resolution** — a query runs from its path's entry in the storage
//!   manager's per-path registry ([`ResolvedPath`], found from the borrowed
//!   names under a read lock): every hop already bound to its edge and
//!   orientation, so neither planning nor execution looks an array or an
//!   edge up by name.
//!
//! * **Estimation** — per hop, [`crate::table::TableIndex`] samples a few
//!   dozen strided point probes and reports the average candidate-window
//!   width in parts per million of the table's rows
//!   (`estimate_point_selectivity_ppm`). Two binary searches per sample;
//!   no rows are touched, and the table memoises the answer, so it is
//!   computed once per table, when a path through it is first planned.
//!   Estimation uses `ResolvedPath::peek_hop`, which never derives
//!   orientations or bumps the §IV.C hit counters — a planned query leaves
//!   storage in exactly the state an unplanned one would.
//!
//! * **Empty-edge pruning** ([`PlanDecision::EmptyEdge`]) — if some hop's
//!   relation is known to hold zero rows, and every hop up to it is
//!   present and instantiated (so path-order execution could not have
//!   errored first), the result is provably empty and no hop runs.
//!
//! * **Selective-first reordering** ([`PlanDecision::SelectiveFirst`]) —
//!   when one hop is estimated far more selective than everything before
//!   it, the planner enumerates that hop's primary support, maps it back
//!   to the first array through the already-materialized *reverse*
//!   orientations (a semi-join backpass), intersects the query frontier
//!   with the backimage, and only then runs the normal path-order chain
//!   on the reduced frontier. The backimage is a superset of every
//!   contributing source cell, so results are identical; direction safety
//!   is enforced by requiring each reverse table to be materialized and
//!   instantiated (the backpass must not trigger derivations the
//!   unplanned query wouldn't). Any cap breach (support too wide,
//!   frontier exploding) abandons the reordering and falls back to path
//!   order.
//!
//! * **Composite edges** ([`PlanDecision::CompositeEdge`]) — a θ-join of
//!   edges is itself an edge. When the planner keeps seeing the same
//!   multi-hop path (`CompositePolicy::hit_threshold` sightings), the
//!   joined relation is compressed once into a real `CompressedTable`,
//!   registered in the path's registry entry, and later queries run it as
//!   a *single* probe. Ingest into any member edge drops the entry, and
//!   the composite with it (see `ResolvedPath::observe_composite`); policy
//!   caps mark oversized paths unmaterializable instead.
//!
//! Every decision is surfaced in [`QueryStats::plan`] as a [`PlanReport`]
//! (estimates vs. what actually ran). The whole module sits behind
//! [`QueryOptions::use_planner`]; with it off, `path_order` reproduces
//! the paper's strict left-to-right chain exactly.
//!
//! `execute_batch` is the planner's vectorized entry point: many queries
//! sharing one path are deduplicated into a single set of unique frontier
//! boxes with per-query owner bitsets, each hop resolves its table once
//! and probes each unique box once — through the same row kernel a single
//! query's hop runs — and results are demultiplexed per query at the end:
//! one index pass instead of Q passes.

use crate::error::Result;
use crate::interval::Interval;
use crate::query::exec::{HopJoin, HopStats, QueryExec, QueryStats};
use crate::query::QueryOptions;
use crate::storage::{CompositeProbe, HopPeek, ResolvedPath, StorageManager};
use crate::table::{BoxTable, Cell, CompressedTable, LineageTable, Orientation};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Expected candidate rows per point probe, in millionths (the ppm
/// estimate times the table's rows). A pivot above this (≥ 0.5 expected
/// candidates per probe) is not selective enough to justify a reordering.
const SELECTIVE_MAX_HITS_MICRO: u64 = 500_000;
/// A pivot hop must beat every earlier hop's estimate by this factor.
const SELECTIVE_ADVANTAGE: u64 = 4;
/// Pivot tables with more rows than this are too big to enumerate.
const MAX_PIVOT_ROWS: usize = 1 << 16;
/// Merged pivot-support unions wider than this abandon the reordering.
const MAX_SUPPORT_BOXES: usize = 4096;
/// Backpass frontiers wider than this abandon the reordering.
const MAX_BACKPASS_BOXES: usize = 1 << 16;

/// What the planner decided to do with one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDecision {
    /// Hops ran strictly in path order (estimates uninformative, caps
    /// breached, or nothing better to do).
    PathOrder,
    /// Hop `hop`'s relation is empty: the result is provably empty and no
    /// hop was executed.
    EmptyEdge {
        /// Zero-based index of the empty hop.
        hop: usize,
    },
    /// A semi-join backpass from the most selective hop reduced the
    /// frontier before the path-order chain ran.
    SelectiveFirst {
        /// Zero-based index of the selective hop driving the backpass.
        pivot: usize,
    },
    /// A materialized composite edge served the whole path as one probe.
    CompositeEdge {
        /// Number of path hops the single probe replaced.
        hops_folded: usize,
    },
}

/// The planner's cheap per-hop estimate, kept for est-vs-actual reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HopEstimate {
    /// Compressed rows in the hop's stored table (`None` when the needed
    /// orientation is not materialized).
    pub n_rows: Option<usize>,
    /// Estimated candidate rows per point probe, in parts per million of
    /// the table's rows (`None` when no index is available).
    pub est_hits_ppm: Option<u64>,
}

/// The plan one query ran with: the decision plus the estimates (in path
/// order) it was based on. Compare against [`QueryStats::hops`] for
/// est-vs-actual accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// What the planner chose.
    pub decision: PlanDecision,
    /// Per-hop estimates, in path order. Empty for composite-edge serves
    /// (no per-hop estimation happens).
    pub estimates: Vec<HopEstimate>,
}

impl PlanDecision {
    /// Short stable label, used by the CLI and the net protocol's stats
    /// rendering.
    pub fn label(&self) -> &'static str {
        match self {
            PlanDecision::PathOrder => "path_order",
            PlanDecision::EmptyEdge { .. } => "empty_edge",
            PlanDecision::SelectiveFirst { .. } => "selective_first",
            PlanDecision::CompositeEdge { .. } => "composite",
        }
    }
}

/// The paper's strict left-to-right chain: resolve each hop, join, merge
/// per [`QueryOptions::merge`], stop early on an empty frontier (the
/// result then carries the *last* array's arity). This is both the
/// `use_planner = false` ablation and the execution engine the planner
/// itself delegates to once it has (possibly) reduced the frontier.
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
        let (table, _direction) = resolved.resolve_hop(k, path)?;
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
    let n_hops = resolved.n_hops();

    // Composite edges first: a materialized path is a single probe.
    match resolved.observe_composite(storage.composite_policy) {
        CompositeProbe::Serve(table) => return composite_serve(n_hops, cur, opts, &table),
        CompositeProbe::Materialize => {
            if let Some(table) = try_materialize(storage, path, resolved) {
                return composite_serve(n_hops, cur, opts, &table);
            }
        }
        CompositeProbe::Pass => {}
    }

    let peeks: Vec<Option<HopPeek>> = (0..n_hops).map(|k| resolved.peek_hop(k, false)).collect();
    let estimates: Vec<HopEstimate> = peeks.iter().map(estimate).collect();

    // Empty-edge pruning. Scanning stops at the first hop whose behavior
    // under path order we can't predict (no edge, generalized table, or
    // nothing materialized): path order must surface its own
    // error/derivation there, not be skipped over.
    for (k, p) in peeks.iter().enumerate() {
        let Some(peek) = p else { break };
        if peek.generalized {
            break;
        }
        if peek.known_empty {
            let stats = QueryStats {
                hops: Vec::new(),
                plan: Some(PlanReport {
                    decision: PlanDecision::EmptyEdge { hop: k },
                    estimates,
                }),
            };
            return Ok((BoxTable::new(resolved.last.ndim()), stats));
        }
        if peek.table.is_none() {
            break;
        }
    }

    if let Some(pivot) = choose_pivot(resolved, &peeks, &estimates) {
        if let Some(reduced) = backpass(resolved, &cur, pivot, &peeks, opts) {
            let (out, mut stats) = path_order(path, resolved, reduced, opts)?;
            stats.plan = Some(PlanReport {
                decision: PlanDecision::SelectiveFirst { pivot },
                estimates,
            });
            return Ok((out, stats));
        }
    }

    let (out, mut stats) = path_order(path, resolved, cur, opts)?;
    stats.plan = Some(PlanReport {
        decision: PlanDecision::PathOrder,
        estimates,
    });
    Ok((out, stats))
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
            estimates: Vec::new(),
        }),
    };
    Ok((out, stats))
}

/// Cheap per-hop estimate from a peek (no side effects; the selectivity is
/// the table's memoised one).
fn estimate(peek: &Option<HopPeek>) -> HopEstimate {
    let table = peek.as_ref().and_then(|p| p.table.as_ref());
    HopEstimate {
        n_rows: table.map(|t| t.n_rows()),
        est_hits_ppm: table
            .filter(|t| !t.is_generalized())
            .and_then(|t| t.point_selectivity_ppm()),
    }
}

/// Expected candidate rows per point probe against this hop, in
/// millionths: the per-row ppm estimate scaled back up by the table's row
/// count. This is the quantity that drives frontier growth — a near-empty
/// hop scores near 0 (it annihilates the frontier), a permutation scores
/// ~1 000 000 (one candidate per probe), a fan-out hop scores higher.
fn hits_micro(e: &HopEstimate) -> Option<u64> {
    Some(e.est_hits_ppm?.saturating_mul(e.n_rows? as u64))
}

/// Pick the hop to drive a selective-first backpass, if any: the hop with
/// the fewest expected candidate rows per probe among hops `1..`,
/// provided it is genuinely selective, beats every earlier hop by
/// [`SELECTIVE_ADVANTAGE`], is small enough to enumerate, and every hop
/// before it has a materialized, instantiated *reverse* orientation for
/// the backpass to ride (so the plan never derives anything path order
/// wouldn't).
fn choose_pivot(
    resolved: &ResolvedPath,
    peeks: &[Option<HopPeek>],
    estimates: &[HopEstimate],
) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (k, e) in estimates.iter().enumerate().skip(1) {
        let Some(score) = hits_micro(e) else { continue };
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((k, score));
        }
    }
    let (pivot, score) = best?;
    if score >= SELECTIVE_MAX_HITS_MICRO {
        return None;
    }
    let mut min_before = u64::MAX;
    for e in &estimates[..pivot] {
        min_before = min_before.min(hits_micro(e)?);
    }
    if score.saturating_mul(SELECTIVE_ADVANTAGE) > min_before {
        return None;
    }
    let pivot_table = peeks[pivot].as_ref()?.table.as_ref()?;
    if pivot_table.n_rows() == 0 || pivot_table.n_rows() > MAX_PIVOT_ROWS {
        return None;
    }
    for j in 0..pivot {
        let table = resolved.peek_hop(j, true)?.table?;
        if table.is_generalized() {
            return None;
        }
    }
    Some(pivot)
}

/// Semi-join backpass: enumerate the pivot table's primary support, map
/// it back to the first array through the reverse orientations, and
/// intersect the query frontier with the backimage. Returns `None` to
/// abandon (cap breached or anything unexpected) — the caller then runs
/// plain path order, so abandoning is always safe.
fn backpass(
    resolved: &ResolvedPath,
    cur: &BoxTable,
    pivot: usize,
    peeks: &[Option<HopPeek>],
    opts: QueryOptions,
) -> Option<BoxTable> {
    let pivot_table = peeks[pivot].as_ref()?.table.as_ref()?;
    let mut frontier = primary_support(pivot_table)?;
    frontier.merge();
    if frontier.n_boxes() > MAX_SUPPORT_BOXES {
        return None;
    }
    // The backpass always merges between hops — it only controls frontier
    // size, never the result's representation.
    let exec = QueryExec::new(QueryOptions {
        merge: true,
        ..opts
    });
    for j in (0..pivot).rev() {
        let table = resolved.peek_hop(j, true)?.table?;
        let (mut next, _) = exec.hop(&frontier, &table).ok()?;
        next.merge();
        if next.n_boxes() > MAX_BACKPASS_BOXES {
            return None;
        }
        frontier = next;
        if frontier.is_empty() {
            // Empty backimage: nothing in the frontier can reach the
            // pivot, so the reduced frontier is empty in `cur`'s space.
            return Some(BoxTable::new(cur.arity()));
        }
    }
    let mut reduced = cur.intersect(&frontier);
    if opts.merge {
        reduced.merge();
    }
    Some(reduced)
}

/// The union of a table's primary-side boxes (the cells it stores any
/// lineage for). `None` if any primary cell is not an absolute interval.
fn primary_support(table: &CompressedTable) -> Option<BoxTable> {
    let pa = table.primary_arity();
    let mut support = BoxTable::new(pa);
    let mut bx = Vec::with_capacity(pa);
    for row in 0..table.n_rows() {
        bx.clear();
        for k in 0..pa {
            match table.cell(row, k) {
                Cell::Abs(ivl) => bx.push(ivl),
                _ => return None,
            }
        }
        support.push_box(&bx);
    }
    Some(support)
}

/// Materialize the composite edge for `path`: join the whole chain over
/// the first table's support, compress the result as a real backward
/// table (primary side = first array), and register it. Returns `None`
/// without installing when the member tables aren't all resident yet
/// (retried on the next sighting); installs an *unmaterializable* marker
/// when a policy cap is exceeded (never retried until an ingest drops
/// the entry).
fn try_materialize(
    storage: &StorageManager,
    path: &[&str],
    resolved: &ResolvedPath,
) -> Option<Arc<CompressedTable>> {
    let policy = storage.composite_policy;
    let mut tables: Vec<Arc<CompressedTable>> = Vec::with_capacity(resolved.n_hops());
    for k in 0..resolved.n_hops() {
        let table = resolved.peek_hop(k, false)?.table?;
        if table.is_generalized() {
            return None;
        }
        tables.push(table);
    }
    let mut support = primary_support(&tables[0])?;
    support.merge();
    if support.volume() > u128::from(policy.max_support_cells) {
        storage.install_composite(path, resolved, None);
        return None;
    }
    let (first_shape, last_shape) = (&resolved.first.shape, &resolved.last.shape);
    let exec = QueryExec::default();
    let refs: Vec<&CompressedTable> = tables.iter().map(|t| t.as_ref()).collect();
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
        let (out, _) = exec.chain(&q, &refs).ok()?;
        for target in out.cell_set() {
            if lineage.n_rows() >= policy.max_rows {
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
    let mut composite: Option<Arc<CompressedTable>> = None;
    if opts.use_planner {
        match resolved.observe_composite(storage.composite_policy) {
            CompositeProbe::Serve(table) => composite = Some(table),
            CompositeProbe::Materialize => composite = try_materialize(storage, path, resolved),
            CompositeProbe::Pass => {}
        }
    }

    let decision = if let Some(table) = composite {
        if !uniq.is_empty() {
            let (next, hop) = batch_hop(&uniq, &table, words)?;
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
            let (table, _direction) = resolved.resolve_hop(k, path)?;
            let (next, hop_stats) = batch_hop(&uniq, &table, words)?;
            stats.hops.push(hop_stats);
            uniq = next;
        }
        PlanDecision::PathOrder
    };
    if opts.use_planner {
        stats.plan = Some(PlanReport {
            decision,
            estimates: Vec::new(),
        });
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

/// One batched hop: probe every unique box against `table` with the hop's
/// row kernel, union owner bitsets onto the (deduplicated) output boxes,
/// aggregate the stats (`wall` sums the probes, as a hop's does).
fn batch_hop(
    uniq: &[OwnedBox],
    table: &CompressedTable,
    words: usize,
) -> Result<(Vec<OwnedBox>, HopStats)> {
    let arity = uniq
        .first()
        .map_or(table.primary_arity(), |(bx, _)| bx.len());
    let mut join = HopJoin::new(arity, table)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Dslog, TableCapture};
    use crate::reuse::CompositePolicy;
    use crate::storage::Materialize;

    /// `hops` scatter-permutation hops over `[n]` arrays S0..S`hops`, with
    /// reverse orientations materialized so the backpass is available.
    fn chain(hops: usize, n: usize) -> Dslog {
        let mut db = Dslog::options()
            .materialize(Materialize::Both)
            .composite_policy(CompositePolicy {
                enabled: false,
                ..CompositePolicy::default()
            })
            .build()
            .unwrap();
        for i in 0..=hops {
            db.define_array(&format!("S{i}"), &[n]).unwrap();
        }
        for i in 0..hops {
            let mut t = LineageTable::new(1, 1);
            for v in 0..n as i64 {
                t.push_row(&[v, (v * 37 + 11) % n as i64]);
            }
            db.add_lineage(
                &format!("S{}", i + 1),
                &format!("S{i}"),
                &TableCapture::new(t),
            )
            .unwrap();
        }
        db
    }

    /// Replace hop `i`'s edge with a sparse relation linking only
    /// `support` cells.
    fn sparsify_hop(db: &mut Dslog, i: usize, n: usize, support: usize) {
        let mut t = LineageTable::new(1, 1);
        for s in 0..support as i64 {
            let v = (s * 977 + 3) % n as i64;
            t.push_row(&[v, (v * 37 + 11) % n as i64]);
        }
        db.add_lineage(
            &format!("S{}", i + 1),
            &format!("S{i}"),
            &TableCapture::new(t),
        )
        .unwrap();
    }

    fn path(hops: usize) -> Vec<String> {
        (0..=hops).map(|i| format!("S{i}")).collect()
    }

    #[test]
    fn skewed_chain_picks_selective_first_and_agrees_with_path_order() {
        let n = 256;
        let mut db = chain(4, n);
        sparsify_hop(&mut db, 3, n, 5);
        let names = path(4);
        let p: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells: Vec<Vec<i64>> = (0..64).map(|v| vec![v]).collect();

        let on = db
            .prov_query_opts(&p, &cells, QueryOptions::default())
            .unwrap();
        assert_eq!(
            on.stats.plan.as_ref().unwrap().decision,
            PlanDecision::SelectiveFirst { pivot: 3 },
            "estimates: {:?}",
            on.stats.plan.as_ref().unwrap().estimates
        );
        let off = db
            .prov_query_opts(
                &p,
                &cells,
                QueryOptions {
                    use_planner: false,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(on.cells.cell_set(), off.cells.cell_set());
        // The backpass reduced the frontier before hop 0: far fewer rows
        // probed than the unplanned chain.
        let probed =
            |s: &QueryStats| -> usize { s.hops.iter().map(|h| h.rows_probed).sum::<usize>() };
        assert!(
            probed(&on.stats) < probed(&off.stats) / 2,
            "planner probed {} vs {}",
            probed(&on.stats),
            probed(&off.stats)
        );
    }

    #[test]
    fn empty_hop_prunes_without_executing() {
        let n = 64;
        let mut db = chain(3, n);
        db.add_lineage("S2", "S1", &TableCapture::new(LineageTable::new(1, 1)))
            .unwrap();
        let names = path(3);
        let p: Vec<&str> = names.iter().map(String::as_str).collect();
        let result = db
            .prov_query_opts(&p, &[vec![0], vec![1]], QueryOptions::default())
            .unwrap();
        assert!(result.cells.is_empty());
        assert_eq!(result.hops, 0, "no hop may execute");
        assert_eq!(
            result.stats.plan.as_ref().unwrap().decision,
            PlanDecision::EmptyEdge { hop: 1 }
        );
    }
}
