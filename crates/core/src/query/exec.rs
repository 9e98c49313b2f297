//! The in-situ query executor: indexed θ-joins (paper §V.B).
//!
//! Each hop is the θ-join of §V.B — a range join on the absolute attributes
//! followed by de-relativization of the relative attributes:
//!
//! **Step 1 — range join**: each query box is intersected with each
//! candidate compressed row's primary intervals; rows with any empty
//! intersection are dropped. Candidates come from the table's cached
//! [`crate::table::TableIndex`] (binary search on sorted-by-lo
//! runs with max-hi fencing); no path scans every row.
//!
//! **Step 2 — de-relativize**: relative cells are turned back into absolute
//! intervals with `rel_back(x, δ) = [x.lo + δ.lo, x.hi + δ.hi]` over the
//! *intersected* anchor interval (Fig. 5). When two or more relative cells
//! share one anchor (e.g. the lineage of `B[i] = A[i,i]`), de-relativizing
//! each independently and taking the product would over-approximate the true
//! cell set; we split the shared anchor interval into unit points in exactly
//! that case, which keeps the result exact (DESIGN.md §3.3).
//!
//! Both steps are one row kernel (`HopJoin::probe`) that allocates for its
//! output only: the intersection scratch lives with the hop, a matched row
//! is de-relativized straight into the output [`BoxTable`], and only the
//! shared-anchor split — the cold path — builds temporaries.
//! [`QueryExec::hop`] drives the kernel box by box; the planner's batched
//! hop drives the same kernel over its unique boxes.
//!
//! A hop runs on the calling thread, box by box: fanning one hop out across
//! threads was measured slower up to 4 096 query boxes (the benchmark's
//! largest hop has 256) and removed. Every hop reports a [`HopStats`].

use crate::error::{DslogError, Result};
use crate::interval::Interval;
use crate::query::QueryOptions;
use crate::table::{BoxTable, Cell, CompressedTable, TableIndex};
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

/// The join of one hop in progress: the table and its index, the output
/// boxes, the counters, and the intersection scratch — everything a matched
/// row needs, so probing a box allocates nothing but output growth.
/// [`QueryExec::hop`] and the planner's batched hop both drive it.
#[derive(Debug)]
pub(crate) struct HopJoin<'t> {
    table: &'t CompressedTable,
    index: &'t TableIndex,
    isect: Vec<Interval>,
    pub(crate) out: BoxTable,
    rows_probed: usize,
    rows_matched: usize,
}

impl<'t> HopJoin<'t> {
    /// Start a hop of `query_arity`-attribute boxes against `table`.
    pub(crate) fn new(query_arity: usize, table: &'t CompressedTable) -> Result<Self> {
        if query_arity != table.primary_arity() {
            return Err(DslogError::QueryArityMismatch {
                expected: table.primary_arity(),
                got: query_arity,
            });
        }
        if table.is_generalized() {
            return Err(DslogError::NotInstantiated);
        }
        // `None` only for symbolic primary cells, rejected just above.
        let Some(index) = table.index() else {
            return Err(DslogError::NotInstantiated);
        };
        Ok(Self {
            table,
            index,
            isect: vec![Interval::point(0); table.primary_arity()],
            out: BoxTable::new(table.secondary_arity()),
            rows_probed: 0,
            rows_matched: 0,
        })
    }

    /// Join one query box: intersect it with each candidate row's primary
    /// intervals and emit the de-relativized secondary side of every row
    /// that survives.
    #[inline]
    pub(crate) fn probe(&mut self, q: &[Interval]) -> Result<()> {
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

    /// One θ-join hop: join `query` (boxes over the table's primary
    /// attributes) against `table`, returning covered secondary-side cells
    /// and the hop's execution statistics.
    pub fn hop(&self, query: &BoxTable, table: &CompressedTable) -> Result<(BoxTable, HopStats)> {
        let mut join = HopJoin::new(query.arity(), table)?;
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
    /// `tables[i]`'s primary side must be the space the query currently
    /// lives in; its secondary side becomes the next space.
    pub fn chain(
        &self,
        query: &BoxTable,
        tables: &[&CompressedTable],
    ) -> Result<(BoxTable, QueryStats)> {
        // The query is borrowed until a hop (or its own merge) replaces it.
        let mut cur: Option<BoxTable> = (self.opts.merge && query.n_boxes() > 1).then(|| {
            let mut merged = query.clone();
            merged.merge();
            merged
        });
        let mut stats = QueryStats::default();
        for table in tables {
            let (mut next, hop) = self.hop(cur.as_ref().unwrap_or(query), table)?;
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
    let shared = sec().enumerate().any(|(i, cell)| {
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

/// Join a query box table against a compressed lineage table with default
/// options (merge handling left to the caller). The
/// historical free-function entry point, now a thin [`QueryExec`] wrapper.
pub fn theta_join(query: &BoxTable, table: &CompressedTable) -> Result<BoxTable> {
    QueryExec::default().hop(query, table).map(|(out, _)| out)
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
        let mut result = theta_join(&q, &compressed).unwrap();
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
        let result = theta_join(&q, &compressed).unwrap();
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
        assert!(theta_join(&q, &compressed).unwrap().is_empty());
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
        let result = theta_join(&q, &compressed).unwrap();
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
        let result = theta_join(&q, &compressed).unwrap();
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
            theta_join(&q, &compressed),
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
            theta_join(&q, &t),
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
