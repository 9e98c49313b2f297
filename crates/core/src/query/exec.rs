//! The in-situ query executor: indexed θ-joins (paper §V.B).
//!
//! A hop reads one stored table either along its orientation (the query
//! lives on the table's primary side, the result on its secondary side) or
//! against it (query on the secondary side, result on the primary side).
//! An edge stores one orientation, and both directions are answered from
//! it: nothing is decompressed or re-derived (see [`Hop`]).
//!
//! **Along — step 1, range join**: each query box is intersected with each
//! candidate compressed row's primary intervals; rows with any empty
//! intersection are dropped. Candidates come from the table's cached
//! [`crate::table::TableIndex`] (binary search on sorted-by-lo
//! runs with max-hi fencing); no path scans every row.
//!
//! **Along — step 2, de-relativize**: relative cells are turned back into
//! absolute intervals with `rel_back(x, δ) = [x.lo + δ.lo, x.hi + δ.hi]`
//! over the *intersected* anchor interval (Fig. 5). When two or more
//! relative cells share one anchor (e.g. the lineage of `B[i] = A[i,i]`),
//! de-relativizing each independently and taking the product would
//! over-approximate the true cell set; we split the shared anchor interval
//! into unit points in exactly that case, which keeps the result exact
//! (DESIGN.md §3.3).
//!
//! **Against — the reverse step**: a row with primaries `p_j ∈ [a_j, b_j]`
//! is kept for a query box `I` over the secondary side when every absolute
//! secondary `[c, d]` meets `I_k`, and it emits the box
//! `p_j ∈ [a_j, b_j] ∩ ⋂ [I_k.lo − δ_k.hi, I_k.hi − δ_k.lo]` over the
//! relative cells `Rel(j, δ_k)` anchored at `j` (dropped when any of those
//! is empty). Each secondary constrains its own anchor only, so that box
//! is exact and no shared-anchor split is needed. Candidates come from a
//! second cached index over the secondary columns' absolute extents.
//!
//! Both directions are one row kernel (`HopJoin::probe`) that allocates
//! for its output only: the intersection scratch lives with the hop, a
//! matched row is written straight into the output [`BoxTable`], and only
//! the shared-anchor split — the cold path — builds temporaries.
//! [`QueryExec::hop`] drives the kernel box by box; the planner's batched
//! hop drives the same kernel over its unique boxes.
//!
//! A hop runs on the calling thread, box by box: fanning one hop out across
//! threads was measured slower up to 4 096 query boxes (the benchmark's
//! largest hop has 256) and removed. Every hop reports a [`HopStats`].

use crate::error::{DslogError, Result};
use crate::interval::Interval;
use crate::query::QueryOptions;
use crate::table::{BoxTable, Cell, CompressedTable, Orientation, TableIndex};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution statistics for one θ-join hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopStats {
    /// Compressed rows whose primary intervals were intersected (the
    /// index's candidate rows, summed over query boxes).
    pub rows_probed: usize,
    /// Rows that survived every primary intersection and were emitted.
    pub rows_matched: usize,
    /// Result boxes produced before the inter-hop merge.
    pub boxes_emitted: usize,
    /// Wall time of the hop (join only, excluding the merge).
    pub wall: Duration,
}

/// Accumulated per-hop statistics for one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// One entry per executed hop, in path order.
    pub hops: Vec<HopStats>,
    /// The planner's decision, when the planner ran
    /// ([`crate::query::QueryOptions::use_planner`]); `None` under the
    /// path-order ablation and for direct [`QueryExec`] use.
    pub plan: Option<crate::query::plan::PlanReport>,
}

impl QueryStats {
    /// Total rows probed across hops.
    pub fn rows_probed(&self) -> usize {
        self.hops.iter().map(|h| h.rows_probed).sum()
    }

    /// Total rows matched across hops.
    pub fn rows_matched(&self) -> usize {
        self.hops.iter().map(|h| h.rows_matched).sum()
    }

    /// Total join wall time across hops.
    pub fn total_wall(&self) -> Duration {
        self.hops.iter().map(|h| h.wall).sum()
    }
}

/// One stored table as a hop reads it: along its orientation, or against
/// it (see the module docs). A `&CompressedTable` converts to the hop
/// along it; a path's hops come from [`HopTable`].
#[derive(Debug, Clone, Copy)]
pub struct Hop<'t> {
    table: &'t CompressedTable,
    reverse: bool,
}

impl<'t> Hop<'t> {
    /// Read `table` in `orientation`: along the table when that is its
    /// stored orientation, against it otherwise.
    pub fn new(table: &'t CompressedTable, orientation: Orientation) -> Self {
        let reverse = orientation != table.orientation();
        Self { table, reverse }
    }

    /// The index this hop probes: over the primary columns along the
    /// table, over the secondary columns' extents against it. `None` for a
    /// generalized table.
    pub(crate) fn index(&self) -> Option<&'t TableIndex> {
        if self.reverse {
            self.table.secondary_index()
        } else {
            self.table.index()
        }
    }

    /// The table's attributes (primary-then-secondary order) on the hop's
    /// query side: the primaries along the table, the secondaries against
    /// it. The other side's are the result's.
    pub(crate) fn query_attrs(&self) -> Range<usize> {
        let (pa, arity) = (self.table.primary_arity(), self.table.arity());
        if self.reverse {
            pa..arity
        } else {
            0..pa
        }
    }
}

impl<'t> From<&'t CompressedTable> for Hop<'t> {
    fn from(table: &'t CompressedTable) -> Self {
        Self {
            table,
            reverse: false,
        }
    }
}

/// A hop as a path resolves it: the edge's one stored table and the
/// orientation the hop reads it in
/// ([`crate::storage::StorageManager::resolve_hop`]).
#[derive(Debug, Clone)]
pub struct HopTable {
    table: Arc<CompressedTable>,
    orientation: Orientation,
}

impl HopTable {
    /// Read `table` in `orientation` (see [`Hop::new`]).
    pub(crate) fn new(table: Arc<CompressedTable>, orientation: Orientation) -> Self {
        Self { table, orientation }
    }

    /// The hop this handle describes.
    pub(crate) fn hop(&self) -> Hop<'_> {
        Hop::new(&self.table, self.orientation)
    }

    /// The stored table.
    pub(crate) fn table(&self) -> &Arc<CompressedTable> {
        &self.table
    }

    /// The orientation the hop reads the table in.
    pub(crate) fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// The index the hop probes: over the table's primary columns along
    /// it, over its secondary columns' extents against it. `None` for a
    /// generalized table.
    pub fn index(&self) -> Option<&TableIndex> {
        self.hop().index()
    }
}

impl<'t> From<&'t HopTable> for Hop<'t> {
    fn from(table: &'t HopTable) -> Self {
        table.hop()
    }
}

/// The join of one hop in progress: the table and the index it probes,
/// the output boxes, the counters, and the intersection scratch —
/// everything a matched row needs, so probing a box allocates nothing but
/// output growth. [`QueryExec::hop`] and the planner's batched hop both
/// drive it.
#[derive(Debug)]
pub(crate) struct HopJoin<'t> {
    table: &'t CompressedTable,
    reverse: bool,
    index: &'t TableIndex,
    /// One interval per primary attribute.
    isect: Vec<Interval>,
    pub(crate) out: BoxTable,
    rows_probed: usize,
    rows_matched: usize,
}

impl<'t> HopJoin<'t> {
    /// Start a hop of `query_arity`-attribute boxes through `hop`.
    pub(crate) fn new(query_arity: usize, hop: Hop<'t>) -> Result<Self> {
        let table = hop.table;
        let expected = hop.query_attrs().len();
        if query_arity != expected {
            return Err(DslogError::QueryArityMismatch {
                expected,
                got: query_arity,
            });
        }
        if table.is_generalized() {
            return Err(DslogError::NotInstantiated);
        }
        // `None` only for symbolic cells, rejected just above.
        let Some(index) = hop.index() else {
            return Err(DslogError::NotInstantiated);
        };
        Ok(Self {
            table,
            reverse: hop.reverse,
            index,
            isect: vec![Interval::point(0); table.primary_arity()],
            out: BoxTable::new(table.arity() - expected),
            rows_probed: 0,
            rows_matched: 0,
        })
    }

    /// Join one query box: along the table, intersect it with each
    /// candidate row's primary intervals and emit the de-relativized
    /// secondary side of every row that survives; against it, run the
    /// reverse step.
    #[inline]
    pub(crate) fn probe(&mut self, q: &[Interval]) -> Result<()> {
        if self.reverse {
            return self.probe_reverse(q);
        }
        let table = self.table;
        'rows: for &row in self.index.probe(q) {
            let row = row as usize;
            self.rows_probed += 1;
            for (k, isect) in self.isect.iter_mut().enumerate() {
                let Cell::Abs(p) = table.cell(row, k) else {
                    return Err(DslogError::NotInstantiated);
                };
                match p.intersect(&q[k]) {
                    Some(i) => *isect = i,
                    None => continue 'rows,
                }
            }
            self.rows_matched += 1;
            emit_derelativized(&self.isect, row, table, &mut self.out)?;
        }
        Ok(())
    }

    /// The reverse step for one box `q` over the secondary side: narrow
    /// each candidate row's primary intervals by the relative cells
    /// anchored on them, and emit the narrowed box of every row whose
    /// absolute secondaries all meet `q`.
    fn probe_reverse(&mut self, q: &[Interval]) -> Result<()> {
        let table = self.table;
        let pa = self.isect.len();
        'rows: for &row in self.index.probe(q) {
            let row = row as usize;
            self.rows_probed += 1;
            for (j, isect) in self.isect.iter_mut().enumerate() {
                let Cell::Abs(p) = table.cell(row, j) else {
                    return Err(DslogError::NotInstantiated);
                };
                *isect = p;
            }
            for (k, qk) in q.iter().enumerate() {
                match table.cell(row, pa + k) {
                    Cell::Abs(ivl) if ivl.overlaps(qk) => {}
                    Cell::Abs(_) => continue 'rows,
                    Cell::Rel { anchor, delta } => {
                        let anchor = &mut self.isect[anchor as usize];
                        match anchor.intersect(&qk.anchors_meeting(&delta)) {
                            Some(i) => *anchor = i,
                            None => continue 'rows,
                        }
                    }
                    Cell::Sym { .. } => return Err(DslogError::NotInstantiated),
                }
            }
            self.rows_matched += 1;
            self.out.push_box(&self.isect);
        }
        Ok(())
    }

    /// The hop's statistics so far, with `wall` as measured by the caller.
    pub(crate) fn stats(&self, boxes_emitted: usize, wall: Duration) -> HopStats {
        HopStats {
            rows_probed: self.rows_probed,
            rows_matched: self.rows_matched,
            boxes_emitted,
            wall,
        }
    }
}

/// The in-situ query executor. Holds the tuning knobs; all methods are
/// `&self` and thread-safe.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryExec {
    opts: QueryOptions,
}

impl QueryExec {
    /// Executor with explicit options.
    pub fn new(opts: QueryOptions) -> Self {
        Self { opts }
    }

    /// The options this executor runs with.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// One θ-join hop: join `query` (boxes over the hop's query side —
    /// the table's primary attributes along it, secondary against it)
    /// through `hop`, returning the covered cells of the other side and the
    /// hop's execution statistics.
    pub fn hop<'t>(
        &self,
        query: &BoxTable,
        hop: impl Into<Hop<'t>>,
    ) -> Result<(BoxTable, HopStats)> {
        let mut join = HopJoin::new(query.arity(), hop.into())?;
        // Timed after the index lookup: a cold cache pays the one-time
        // build there, and `wall` documents the join alone.
        let start = Instant::now();
        for q in query.boxes() {
            join.probe(q)?;
        }
        let stats = join.stats(join.out.n_boxes(), start.elapsed());
        Ok((join.out, stats))
    }

    /// Execute a chain of θ-joins left-to-right (§V.B.3's query plan),
    /// merging between hops per [`QueryOptions::merge`] and short-circuiting
    /// once the frontier is empty.
    ///
    /// `hops[i]`'s query side must be the space the query currently lives
    /// in; its result side becomes the next space.
    pub fn chain<'t, H: Into<Hop<'t>> + Copy>(
        &self,
        query: &BoxTable,
        hops: &[H],
    ) -> Result<(BoxTable, QueryStats)> {
        // The query is borrowed until a hop (or its own merge) replaces it.
        let mut cur: Option<BoxTable> = (self.opts.merge && query.n_boxes() > 1).then(|| {
            let mut merged = query.clone();
            merged.merge();
            merged
        });
        let mut stats = QueryStats::default();
        for &hop in hops {
            let (mut next, hop) = self.hop(cur.as_ref().unwrap_or(query), hop)?;
            stats.hops.push(hop);
            if self.opts.merge {
                next.merge();
            }
            let done = next.is_empty();
            cur = Some(next);
            if done {
                break;
            }
        }
        Ok((cur.unwrap_or_else(|| query.clone()), stats))
    }
}

/// De-relativize row `row`'s secondary cells over the intersected primary
/// intervals `isect` and append the resulting box(es) to `out`. The common
/// case writes one box straight into `out`; only a row with two or more
/// relative cells on one non-point anchor takes the splitting path.
#[inline]
fn emit_derelativized(
    isect: &[Interval],
    row: usize,
    table: &CompressedTable,
    out: &mut BoxTable,
) -> Result<()> {
    let sec = || (isect.len()..table.arity()).map(|k| table.cell(row, k));
    // The anchor a cell hangs on, when that anchor's interval is not a point.
    let wide_anchor = |cell: Cell| match cell {
        Cell::Rel { anchor, .. } if !isect[anchor as usize].is_point() => Some(anchor),
        _ => None,
    };
    // Two cells share an anchor only if the row has two secondaries.
    let shared = table.secondary_arity() > 1
        && sec().enumerate().any(|(i, cell)| {
            wide_anchor(cell).is_some_and(|a| sec().take(i).any(|c| wide_anchor(c) == Some(a)))
        });
    if shared {
        return emit_split(isect, &sec().collect::<Vec<_>>(), out);
    }
    out.try_push_box(sec().map(|cell| match cell {
        Cell::Abs(ivl) => Ok(ivl),
        Cell::Rel { anchor, delta } => Ok(isect[anchor as usize].minkowski_sum(&delta)),
        Cell::Sym { .. } => Err(DslogError::NotInstantiated),
    }))
}

/// The shared-anchor case of [`emit_derelativized`]: anchors with ≥ 2
/// dependents over a non-point intersected interval are split into unit
/// points, one output box per assignment, which keeps the result exact
/// where the product of independent de-relativizations would not be.
#[cold]
fn emit_split(isect: &[Interval], sec: &[Cell], out: &mut BoxTable) -> Result<()> {
    let mut dependents = vec![0u32; isect.len()];
    for cell in sec {
        if let Cell::Rel { anchor, .. } = cell {
            dependents[*anchor as usize] += 1;
        }
    }
    let split: Vec<usize> = (0..isect.len())
        .filter(|&j| dependents[j] >= 2 && !isect[j].is_point())
        .collect();

    // Enumerate unit assignments for the split anchors.
    let mut values: Vec<i64> = split.iter().map(|&j| isect[j].lo).collect();
    loop {
        out.try_push_box(sec.iter().map(|cell| match *cell {
            Cell::Abs(ivl) => Ok(ivl),
            Cell::Rel { anchor, delta } => {
                let j = anchor as usize;
                Ok(match split.iter().position(|&s| s == j) {
                    Some(si) => Interval::point(values[si]).minkowski_sum(&delta),
                    None => isect[j].minkowski_sum(&delta),
                })
            }
            Cell::Sym { .. } => Err(DslogError::NotInstantiated),
        }))?;

        // Advance the odometer over the split anchors.
        let mut advanced = false;
        for k in (0..split.len()).rev() {
            if values[k] < isect[split[k]].hi {
                values[k] += 1;
                for i in k + 1..split.len() {
                    values[i] = isect[split[i]].lo;
                }
                advanced = true;
                break;
            }
            values[k] = isect[split[k]].lo;
        }
        if !advanced {
            return Ok(());
        }
    }
}

/// Every cell on `hop`'s query side that its table links to anything:
/// along the table, the union of the rows' primary boxes; against it, each
/// row's secondary image of its own primary box, shared anchors split as a
/// hop splits them — exact either way.
pub(crate) fn query_support(hop: Hop<'_>) -> Result<BoxTable> {
    let table = hop.table;
    let pa = table.primary_arity();
    let mut support = BoxTable::new(hop.query_attrs().len());
    let mut primary = Vec::with_capacity(pa);
    for row in 0..table.n_rows() {
        primary.clear();
        for k in 0..pa {
            let Cell::Abs(p) = table.cell(row, k) else {
                return Err(DslogError::NotInstantiated);
            };
            primary.push(p);
        }
        if hop.reverse {
            emit_derelativized(&primary, row, table, &mut support)?;
        } else {
            support.push_box(&primary);
        }
    }
    Ok(support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provrc::compress;
    use crate::table::{LineageTable, Orientation};

    fn ivl(lo: i64, hi: i64) -> Interval {
        Interval::new(lo, hi)
    }

    /// Paper running example: Table II stored, query Table IV (b1 ∈ [1,2]),
    /// expected result Table VI: a1 = [1,2], a2 = [1,2].
    #[test]
    fn paper_tables_iv_to_vi() {
        let mut t = LineageTable::new(1, 2);
        for b in 1..=3 {
            for a2 in 1..=2 {
                t.push_row(&[b, b, a2]);
            }
        }
        let compressed = compress(&t, &[4], &[4, 3], Orientation::Backward);
        assert_eq!(compressed.n_rows(), 1);

        let q = BoxTable::from_boxes(1, &[&[ivl(1, 2)]]);
        let mut result = QueryExec::default().hop(&q, &compressed).unwrap().0;
        result.merge();
        assert_eq!(result.n_boxes(), 1);
        assert_eq!(result.row(0), &[ivl(1, 2), ivl(1, 2)]);
    }

    /// Fig. 5: one-to-one lineage [0,1]→[1,3]-style relative interval; the
    /// de-relativized result must track the intersected anchor.
    #[test]
    fn relative_derelativization_tracks_intersection() {
        let n = 10;
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[i, i]);
        }
        let compressed = compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
        let q = BoxTable::from_boxes(1, &[&[ivl(3, 5)]]);
        let result = QueryExec::default().hop(&q, &compressed).unwrap().0;
        assert_eq!(result.n_boxes(), 1);
        assert_eq!(result.row(0), &[ivl(3, 5)]);
    }

    #[test]
    fn disjoint_query_returns_empty() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..4 {
            t.push_row(&[i, i]);
        }
        let compressed = compress(&t, &[4], &[4], Orientation::Backward);
        let q = BoxTable::from_boxes(1, &[&[ivl(7, 9)]]);
        let (result, _) = QueryExec::default().hop(&q, &compressed).unwrap();
        assert!(result.is_empty());
    }

    /// The shared-anchor case: B[i] = A[i,i]. Product de-relativization
    /// would return a square; the correct answer is the diagonal.
    #[test]
    fn shared_anchor_splits_exactly() {
        let n = 8i64;
        let mut t = LineageTable::new(1, 2);
        for i in 0..n {
            t.push_row(&[i, i, i]);
        }
        let compressed = compress(
            &t,
            &[n as usize],
            &[n as usize, n as usize],
            Orientation::Backward,
        );
        assert_eq!(compressed.n_rows(), 1, "diag compresses to one row");

        let q = BoxTable::from_boxes(1, &[&[ivl(2, 4)]]);
        let result = QueryExec::default().hop(&q, &compressed).unwrap().0;
        let cells = result.cell_set();
        let expected: std::collections::BTreeSet<Vec<i64>> = (2..=4).map(|i| vec![i, i]).collect();
        assert_eq!(cells, expected, "must be the diagonal, not the square");
    }

    #[test]
    fn multiple_query_boxes_union() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..10 {
            t.push_row(&[i, 9 - i]);
        }
        let compressed = compress(&t, &[10], &[10], Orientation::Backward);
        let q = BoxTable::from_boxes(1, &[&[ivl(0, 0)], &[ivl(9, 9)]]);
        let result = QueryExec::default().hop(&q, &compressed).unwrap().0;
        let cells = result.cell_set();
        assert!(cells.contains(&vec![9]));
        assert!(cells.contains(&vec![0]));
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn arity_mismatch_is_an_error_not_a_panic() {
        let mut t = LineageTable::new(1, 1);
        t.push_row(&[0, 0]);
        let compressed = compress(&t, &[1], &[1], Orientation::Backward);
        let q = BoxTable::from_boxes(2, &[&[ivl(0, 0), ivl(0, 0)]]);
        assert!(matches!(
            QueryExec::default().hop(&q, &compressed).map(drop),
            Err(DslogError::QueryArityMismatch {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn generalized_table_is_an_error_not_a_panic() {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![4, 4]);
        t.push_row(&[Cell::Sym { attr: 0 }, Cell::point(0)]);
        let q = BoxTable::from_boxes(1, &[&[ivl(0, 3)]]);
        assert!(matches!(
            QueryExec::default().hop(&q, &t).map(drop),
            Err(DslogError::NotInstantiated)
        ));
    }

    #[test]
    fn chain_short_circuits_and_reports_stats() {
        let mut t = LineageTable::new(1, 1);
        t.push_row(&[0, 0]); // only cell 0 linked
        let c = compress(&t, &[4], &[4], Orientation::Backward);
        let q = BoxTable::from_boxes(1, &[&[ivl(3, 3)]]);
        let exec = QueryExec::default();
        let (out, stats) = exec.chain(&q, &[&c, &c, &c]).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.hops.len(), 1, "empty frontier must short-circuit");
        assert_eq!(stats.hops[0].rows_matched, 0);
    }
}
