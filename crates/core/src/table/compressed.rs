//! The ProvRC-compressed lineage relation (paper §IV).
//!
//! A compressed table keeps one side of the relation **absolute** (the
//! *primary* side — output attributes for the backward orientation stored by
//! default, input attributes for the forward orientation of Table III) and
//! allows the other side (*secondary*) to be either absolute intervals or
//! **relative** intervals anchored to a primary attribute.
//!
//! Additionally, for lineage reuse (§VI.B), an absolute interval that spans
//! the full extent of its attribute may be replaced by the *symbolic* cell
//! [`Cell::Sym`]; such a table is *generalized* and must be instantiated with
//! concrete shapes before queries.
//!
//! ## Layout
//!
//! Storage is **columnar** (struct-of-arrays): one `Vec<Cell>` per
//! attribute. The query engine probes whole primary columns (and the
//! serializer writes column-major streams), so keeping each attribute
//! contiguous is the cache-friendly layout; row views are materialized on
//! demand. Each table also lazily builds and caches a [`TableIndex`] over
//! its primary columns — see [`CompressedTable::index`].

use crate::error::{DslogError, Result};
use crate::interval::Interval;
use crate::table::index::TableIndex;
use crate::table::lineage::LineageTable;
use std::sync::OnceLock;

/// Which side of the relation is kept absolute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Output attributes absolute; input attributes may be relative.
    /// This is the version materialized for backward queries (paper default).
    Backward,
    /// Input attributes absolute; output attributes may be relative
    /// (paper Table III), used for forward queries.
    Forward,
}

impl Orientation {
    /// The opposite orientation.
    pub fn flip(self) -> Orientation {
        match self {
            Orientation::Backward => Orientation::Forward,
            Orientation::Forward => Orientation::Backward,
        }
    }
}

/// One attribute's value inside a compressed row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// An absolute interval of indices.
    Abs(Interval),
    /// A relative interval: the value set is `primary[anchor] + delta`
    /// (all-to-all in the relative space, §V.B.1).
    Rel {
        /// Index of the primary attribute this cell is anchored to.
        anchor: u8,
        /// Delta interval (`value − anchor`).
        delta: Interval,
    },
    /// Symbolic full extent `[0, D_attr − 1]` of attribute `attr`
    /// (index reshaping, §VI.B / Fig. 6).
    Sym {
        /// Index of the attribute (in primary-then-secondary order) whose
        /// dimension defines this interval.
        attr: u8,
    },
}

impl Cell {
    /// Shorthand absolute point.
    pub fn point(v: i64) -> Cell {
        Cell::Abs(Interval::point(v))
    }

    /// Shorthand absolute interval.
    pub fn abs(lo: i64, hi: i64) -> Cell {
        Cell::Abs(Interval::new(lo, hi))
    }

    /// Whether this cell is symbolic.
    pub fn is_sym(&self) -> bool {
        matches!(self, Cell::Sym { .. })
    }
}

/// A ProvRC-compressed lineage relation.
///
/// Attribute order within a row is primary attributes first, then secondary
/// attributes; `attr` indices in [`Cell::Rel`]/[`Cell::Sym`] use this order.
#[derive(Debug)]
pub struct CompressedTable {
    orientation: Orientation,
    primary_arity: usize,
    secondary_arity: usize,
    /// Extent (dimension size) of each attribute, primary-then-secondary
    /// order. Needed for reshaping and bounds reasoning.
    extents: Vec<i64>,
    /// Columnar cell storage: `columns[k][i]` is row `i`'s attribute `k`.
    columns: Vec<Vec<Cell>>,
    /// Number of symbolic cells, maintained incrementally so
    /// [`is_generalized`](Self::is_generalized) is O(1) on the query path.
    sym_count: usize,
    /// Lazily built primary-column index; `None` inside means the table is
    /// generalized and cannot be indexed. Reset by any mutation.
    index: OnceLock<Option<TableIndex>>,
}

impl Clone for CompressedTable {
    fn clone(&self) -> Self {
        // The index cache is intentionally not cloned: clones are usually
        // mutated (reshaping), which would invalidate it anyway.
        Self {
            orientation: self.orientation,
            primary_arity: self.primary_arity,
            secondary_arity: self.secondary_arity,
            extents: self.extents.clone(),
            columns: self.columns.clone(),
            sym_count: self.sym_count,
            index: OnceLock::new(),
        }
    }
}

impl PartialEq for CompressedTable {
    fn eq(&self, other: &Self) -> bool {
        // Equality is logical (same relation); the index cache is derived
        // state and excluded.
        self.orientation == other.orientation
            && self.primary_arity == other.primary_arity
            && self.secondary_arity == other.secondary_arity
            && self.extents == other.extents
            && self.columns == other.columns
    }
}

impl Eq for CompressedTable {}

impl CompressedTable {
    /// Create an empty compressed table.
    pub fn new(
        orientation: Orientation,
        primary_arity: usize,
        secondary_arity: usize,
        extents: Vec<i64>,
    ) -> Self {
        assert!(primary_arity > 0 && secondary_arity > 0);
        assert_eq!(extents.len(), primary_arity + secondary_arity);
        Self {
            orientation,
            primary_arity,
            secondary_arity,
            extents,
            columns: vec![Vec::new(); primary_arity + secondary_arity],
            sym_count: 0,
            index: OnceLock::new(),
        }
    }

    /// Assemble a table directly from columnar cell storage — the fast path
    /// shared by the deserializer and the columnar compression pipeline,
    /// both of which already hold whole columns (no per-row `Vec<Cell>`
    /// temporaries). All columns must have equal length, and `sym_count`
    /// must be the number of [`Cell::Sym`] cells among them: both callers
    /// know it from building the columns (the compressor emits none), so it
    /// is not re-counted over 24 bytes per cell here.
    pub(crate) fn from_columns(
        orientation: Orientation,
        primary_arity: usize,
        secondary_arity: usize,
        extents: Vec<i64>,
        columns: Vec<Vec<Cell>>,
        sym_count: usize,
    ) -> Self {
        assert!(primary_arity > 0 && secondary_arity > 0);
        assert_eq!(extents.len(), primary_arity + secondary_arity);
        assert_eq!(columns.len(), primary_arity + secondary_arity);
        debug_assert!(columns.iter().all(|c| c.len() == columns[0].len()));
        debug_assert_eq!(
            sym_count,
            columns.iter().flatten().filter(|c| c.is_sym()).count()
        );
        Self {
            orientation,
            primary_arity,
            secondary_arity,
            extents,
            columns,
            sym_count,
            index: OnceLock::new(),
        }
    }

    /// The stored orientation.
    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// Arity of the absolute (query-side) attributes.
    pub fn primary_arity(&self) -> usize {
        self.primary_arity
    }

    /// Arity of the possibly-relative attributes.
    pub fn secondary_arity(&self) -> usize {
        self.secondary_arity
    }

    /// Total attribute count.
    pub fn arity(&self) -> usize {
        self.primary_arity + self.secondary_arity
    }

    /// Attribute extents (primary-then-secondary).
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Mutable access for reshaping.
    pub(crate) fn extents_mut(&mut self) -> &mut Vec<i64> {
        self.index = OnceLock::new();
        &mut self.extents
    }

    /// Number of compressed rows.
    pub fn n_rows(&self) -> usize {
        self.columns[0].len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.columns[0].is_empty()
    }

    /// Append a row of cells (primary attributes first).
    pub fn push_row(&mut self, row: &[Cell]) {
        debug_assert_eq!(row.len(), self.arity());
        for (column, &cell) in self.columns.iter_mut().zip(row) {
            column.push(cell);
        }
        self.sym_count += row.iter().filter(|c| c.is_sym()).count();
        self.index = OnceLock::new();
    }

    /// Attribute `k`'s cell of row `i`.
    #[inline]
    pub fn cell(&self, i: usize, k: usize) -> Cell {
        self.columns[k][i]
    }

    /// Attribute `k`'s full column, one cell per row.
    #[inline]
    pub fn column(&self, k: usize) -> &[Cell] {
        &self.columns[k]
    }

    /// Row `i` materialized as an owned cell vector (primary first).
    pub fn row(&self, i: usize) -> Vec<Cell> {
        self.columns.iter().map(|col| col[i]).collect()
    }

    /// Iterate rows as owned cell vectors. Hot paths should prefer
    /// [`column`](Self::column) / [`cell`](Self::cell) access.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Cell>> + '_ {
        (0..self.n_rows()).map(|i| self.row(i))
    }

    /// Apply `f` to every cell of attribute `k` (used by reshaping).
    /// Maintains the symbolic-cell count and invalidates the index cache.
    pub(crate) fn map_column(&mut self, k: usize, mut f: impl FnMut(&mut Cell)) {
        for cell in &mut self.columns[k] {
            self.sym_count -= usize::from(cell.is_sym());
            f(cell);
            self.sym_count += usize::from(cell.is_sym());
        }
        self.index = OnceLock::new();
    }

    /// Whether any cell is symbolic (table is generalized, not queryable).
    /// O(1): the count is maintained on mutation.
    pub fn is_generalized(&self) -> bool {
        self.sym_count > 0
    }

    /// The sorted interval index over the primary columns, built on first
    /// use and cached until the table is mutated. `None` for generalized
    /// tables (symbolic cells cannot be ordered).
    pub fn index(&self) -> Option<&TableIndex> {
        self.index.get_or_init(|| TableIndex::build(self)).as_ref()
    }

    /// Force the index to be built now (storage layer: build alongside each
    /// materialized orientation so the first query doesn't pay for it).
    pub fn ensure_index(&self) {
        let _ = self.index();
    }

    /// Whether the index cache is already populated (observability: lets the
    /// storage layer's tests assert a table was published index-first).
    pub fn has_cached_index(&self) -> bool {
        matches!(self.index.get(), Some(Some(_)))
    }

    /// Resolve a cell to a concrete absolute interval given concrete values
    /// of the primary attributes. `Rel` cells need `primary_values`; `Sym`
    /// cells resolve against the stored extents.
    pub fn resolve_cell(&self, cell: &Cell, primary_values: &[i64]) -> Interval {
        match *cell {
            Cell::Abs(ivl) => ivl,
            Cell::Rel { anchor, delta } => {
                Interval::point(primary_values[anchor as usize]).minkowski_sum(&delta)
            }
            Cell::Sym { attr } => Interval::new(0, self.extents[attr as usize] - 1),
        }
    }

    /// Decompress to the uncompressed relation, in *output-attributes-first*
    /// attribute order regardless of orientation (so both orientations of
    /// the same lineage decompress to identical relations).
    pub fn decompress(&self) -> Result<LineageTable> {
        if self.is_generalized() {
            return Err(DslogError::NotInstantiated);
        }
        let (out_arity, in_arity) = match self.orientation {
            Orientation::Backward => (self.primary_arity, self.secondary_arity),
            Orientation::Forward => (self.secondary_arity, self.primary_arity),
        };
        let mut table = LineageTable::new(out_arity, in_arity);
        let pa = self.primary_arity;
        let sa = self.secondary_arity;
        let mut primary_vals = vec![0i64; pa];
        let mut row_buf = vec![0i64; pa + sa];
        for i in 0..self.n_rows() {
            // Enumerate the Cartesian product of primary intervals.
            let prim_ivls: Vec<Interval> = (0..pa)
                .map(|k| match self.columns[k][i] {
                    Cell::Abs(ivl) => ivl,
                    _ => unreachable!("primary cells are absolute in instantiated tables"),
                })
                .collect();
            let sec: Vec<Cell> = (pa..pa + sa).map(|k| self.columns[k][i]).collect();
            for p in prim_ivls.iter().zip(primary_vals.iter_mut()) {
                *p.1 = p.0.lo;
            }
            'prim: loop {
                // Enumerate the secondary product for this primary point.
                let sec_ivls: Vec<Interval> = sec
                    .iter()
                    .map(|c| self.resolve_cell(c, &primary_vals))
                    .collect();
                let mut sec_vals: Vec<i64> = sec_ivls.iter().map(|ivl| ivl.lo).collect();
                'sec: loop {
                    // Emit row in out-attrs-first order.
                    match self.orientation {
                        Orientation::Backward => {
                            row_buf[..pa].copy_from_slice(&primary_vals);
                            row_buf[pa..].copy_from_slice(&sec_vals);
                        }
                        Orientation::Forward => {
                            row_buf[..sa].copy_from_slice(&sec_vals);
                            row_buf[sa..].copy_from_slice(&primary_vals);
                        }
                    }
                    table.push_row(&row_buf);
                    for k in (0..sa).rev() {
                        if sec_vals[k] < sec_ivls[k].hi {
                            sec_vals[k] += 1;
                            for (j, v) in sec_vals.iter_mut().enumerate().skip(k + 1) {
                                *v = sec_ivls[j].lo;
                            }
                            continue 'sec;
                        }
                    }
                    break;
                }
                for k in (0..pa).rev() {
                    if primary_vals[k] < prim_ivls[k].hi {
                        primary_vals[k] += 1;
                        for (j, v) in primary_vals.iter_mut().enumerate().skip(k + 1) {
                            *v = prim_ivls[j].lo;
                        }
                        continue 'prim;
                    }
                }
                break;
            }
        }
        table.normalize();
        Ok(table)
    }

    /// Approximate in-memory footprint in bytes (reporting only; the
    /// measured storage number comes from the serialized format).
    pub fn nbytes_in_memory(&self) -> usize {
        self.columns
            .iter()
            .map(|col| col.len() * std::mem::size_of::<Cell>())
            .sum()
    }
}

impl std::fmt::Display for CompressedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "CompressedTable({:?}, {} primary + {} secondary, {} rows)",
            self.orientation,
            self.primary_arity,
            self.secondary_arity,
            self.n_rows()
        )?;
        for row in self.rows() {
            let parts: Vec<String> = row
                .iter()
                .map(|c| match c {
                    Cell::Abs(ivl) => format!("{ivl}"),
                    Cell::Rel { anchor, delta } => {
                        if delta.is_point() {
                            format!("@{anchor}{:+}", delta.lo)
                        } else {
                            format!("@{anchor}+[{}, {}]", delta.lo, delta.hi)
                        }
                    }
                    Cell::Sym { attr } => format!("[0, D{attr})"),
                })
                .collect();
            writeln!(f, "  {}", parts.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built compressed form of the paper's running example (Table II,
    /// 1-based): single row `b1=[1,3], a1=Rel(b1, 0), a2=[1,2]`.
    fn paper_table_ii() -> CompressedTable {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 2, vec![3, 3, 2]);
        t.push_row(&[
            Cell::abs(1, 3),
            Cell::Rel {
                anchor: 0,
                delta: Interval::point(0),
            },
            Cell::abs(1, 2),
        ]);
        t
    }

    #[test]
    fn decompress_paper_running_example() {
        let t = paper_table_ii();
        let full = t.decompress().unwrap();
        let expected = LineageTable::from_rows(
            1,
            2,
            &[
                &[1, 1, 1],
                &[1, 1, 2],
                &[2, 2, 1],
                &[2, 2, 2],
                &[3, 3, 1],
                &[3, 3, 2],
            ],
        );
        assert_eq!(full.row_set(), expected.row_set());
    }

    #[test]
    fn forward_orientation_decompresses_to_same_relation() {
        // Paper Table III: a1=[1,3], a2=[1,2], b1=Rel(a1, 0).
        let mut t = CompressedTable::new(Orientation::Forward, 2, 1, vec![3, 2, 3]);
        t.push_row(&[
            Cell::abs(1, 3),
            Cell::abs(1, 2),
            Cell::Rel {
                anchor: 0,
                delta: Interval::point(0),
            },
        ]);
        let full = t.decompress().unwrap();
        assert_eq!(full.out_arity(), 1);
        assert_eq!(full.in_arity(), 2);
        assert_eq!(
            full.row_set(),
            paper_table_ii().decompress().unwrap().row_set()
        );
    }

    #[test]
    fn generalized_table_refuses_decompression() {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![1, 4]);
        t.push_row(&[Cell::point(0), Cell::Sym { attr: 1 }]);
        assert_eq!(t.decompress(), Err(DslogError::NotInstantiated));
    }

    #[test]
    fn resolve_sym_uses_extent() {
        let t = CompressedTable::new(Orientation::Backward, 1, 1, vec![1, 4]);
        let ivl = t.resolve_cell(&Cell::Sym { attr: 1 }, &[0]);
        assert_eq!(ivl, Interval::new(0, 3));
    }

    #[test]
    fn rel_cell_resolution() {
        let t = paper_table_ii();
        let rel = Cell::Rel {
            anchor: 0,
            delta: Interval::new(-1, 1),
        };
        assert_eq!(t.resolve_cell(&rel, &[5]), Interval::new(4, 6));
    }

    #[test]
    fn columnar_access_matches_rows() {
        let t = paper_table_ii();
        assert_eq!(t.column(0), &[Cell::abs(1, 3)]);
        assert_eq!(t.cell(0, 2), Cell::abs(1, 2));
        assert_eq!(t.row(0).len(), 3);
    }

    #[test]
    fn sym_count_tracks_mutation() {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![4, 4]);
        t.push_row(&[Cell::point(0), Cell::abs(0, 3)]);
        assert!(!t.is_generalized());
        t.map_column(1, |c| *c = Cell::Sym { attr: 1 });
        assert!(t.is_generalized());
        t.map_column(1, |c| *c = Cell::abs(0, 3));
        assert!(!t.is_generalized());
    }

    #[test]
    fn index_cache_resets_on_mutation() {
        let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![10, 10]);
        t.push_row(&[Cell::point(0), Cell::point(0)]);
        assert!(t.index().is_some());
        t.push_row(&[Cell::point(5), Cell::point(5)]);
        // Rebuilt index must see the new row.
        let idx = t.index().unwrap();
        assert_eq!(idx.probe(&[Interval::point(5)]), &[1]);
    }
}
