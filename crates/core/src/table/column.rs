//! One attribute's cells of a compressed table, held as narrow as they are.
//!
//! ProvRC's output is mostly absolute: a primary column is absolute by
//! definition, and the secondary columns of scatter-like lineage are too,
//! save the odd row a pass merged. A [`Column`] keeps a column whose cells
//! are nearly all absolute points as one `i64` per row — 8 bytes, not a
//! 24-byte [`Cell`] — with the few other cells beside it; a column of
//! absolute intervals as 16 bytes per row; and only a column with many
//! relative or symbolic cells as `Cell`s. The form is a function of the
//! cells alone, so two columns holding the same cells are `==` however
//! they were built, and a reader sees cells either way: [`Column::get`]
//! returns one by value.

use crate::interval::Interval;
use crate::table::compressed::Cell;

/// A compressed table's column. With `others` the number of its cells that
/// are not absolute points and `n` its length, the form is:
/// [`Points`](Column::Points) when `4 * others <= n` (so an empty column
/// too); else [`Intervals`](Column::Intervals) when every cell is
/// absolute; else [`Cells`](Column::Cells). Each form is at most as wide
/// as the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Column {
    /// `values[i]` is row `i`'s point, except for the rows `others` lists
    /// (ascending): row `others[j].0`'s cell is `others[j].1`, and its
    /// slot in `values` holds [`slot(j)`](slot).
    Points {
        values: Vec<i64>,
        others: Vec<(u32, Cell)>,
    },
    /// Every cell absolute; `wide` of them are not points.
    Intervals { ivls: Vec<Interval>, wide: usize },
    /// `others` cells are not absolute points, and one is not absolute.
    Cells { cells: Vec<Cell>, others: usize },
}

impl Default for Column {
    fn default() -> Self {
        Column::Points {
            values: Vec::new(),
            others: Vec::new(),
        }
    }
}

/// The value a [`Column::Points`] slot holds for its `j`-th other cell. A
/// real point may hold the same value: the row check in [`Column::get`]
/// tells them apart.
pub(crate) fn slot(j: usize) -> i64 {
    i64::MIN + j as i64
}

/// Row `i`'s cell in a [`Column::Points`] whose slot holds `v`, a value
/// below `slot(others.len())`: out of line, so that the points' path
/// stays short where hop loops inline it.
#[cold]
#[inline(never)]
fn other(others: &[(u32, Cell)], i: usize, v: i64) -> Cell {
    match others.get(v.abs_diff(i64::MIN) as usize) {
        Some(&(row, cell)) if row as usize == i => cell,
        _ => Cell::point(v),
    }
}

fn is_point(cell: &Cell) -> bool {
    matches!(cell, Cell::Abs(ivl) if ivl.is_point())
}

impl Column {
    /// The column of `cells`, in its form. `cells` is walked up to three
    /// times; a column's bytes are allocated once.
    pub(crate) fn collect(cells: impl Iterator<Item = Cell> + Clone) -> Column {
        let n = cells.clone().count();
        let others = cells.clone().filter(|c| !is_point(c)).count();
        if 4 * others <= n {
            let mut list = Vec::with_capacity(others);
            let mut values = Vec::with_capacity(n);
            for (row, cell) in cells.enumerate() {
                values.push(match cell {
                    Cell::Abs(ivl) if ivl.is_point() => ivl.lo,
                    _ => {
                        list.push((row as u32, cell));
                        slot(list.len() - 1)
                    }
                });
            }
            Column::Points {
                values,
                others: list,
            }
        } else if cells.clone().all(|c| matches!(c, Cell::Abs(_))) {
            let mut ivls = Vec::with_capacity(n);
            ivls.extend(cells.filter_map(|c| match c {
                Cell::Abs(ivl) => Some(ivl),
                _ => None,
            }));
            Column::Intervals { ivls, wide: others }
        } else {
            let mut list = Vec::with_capacity(n);
            list.extend(cells);
            Column::Cells {
                cells: list,
                others,
            }
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Points { values, .. } => values.len(),
            Column::Intervals { ivls, .. } => ivls.len(),
            Column::Cells { cells, .. } => cells.len(),
        }
    }

    /// Cell `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Cell {
        match self {
            Column::Points { values, others } => {
                let v = values[i];
                if v < slot(others.len()) {
                    return other(others, i, v);
                }
                Cell::point(v)
            }
            Column::Intervals { ivls, .. } => Cell::Abs(ivls[i]),
            Column::Cells { cells, .. } => cells[i],
        }
    }

    /// Every cell, in row order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = Cell> + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append `cell`; a column whose form changes with it is rebuilt.
    pub(crate) fn push(&mut self, cell: Cell) {
        let n = self.len() + 1;
        let other = !is_point(&cell);
        match (&mut *self, cell) {
            (Column::Points { values, .. }, Cell::Abs(ivl)) if !other => values.push(ivl.lo),
            (Column::Points { values, others }, _) if 4 * (others.len() + 1) <= n => {
                values.push(slot(others.len()));
                others.push((n as u32 - 1, cell));
            }
            (Column::Intervals { ivls, wide }, Cell::Abs(ivl)) if other || 4 * *wide > n => {
                ivls.push(ivl);
                *wide += usize::from(other);
            }
            (Column::Cells { cells, others }, _) if other || 4 * *others > n => {
                cells.push(cell);
                *others += usize::from(other);
            }
            _ => *self = Column::collect(self.iter().chain([cell])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provrc::{self, reshape};
    use crate::storage::format::{deserialize, serialize};
    use crate::table::{CompressedTable, LineageTable, Orientation};
    use dslog_codecs::crc32::crc32;
    use dslog_codecs::varint::{write_ivarint, write_uvarint};
    use proptest::prelude::*;

    fn rel(lo: i64) -> Cell {
        Cell::Rel {
            anchor: 0,
            delta: Interval::point(lo),
        }
    }

    fn form(col: &Column) -> &'static str {
        match col {
            Column::Points { .. } => "points",
            Column::Intervals { .. } => "intervals",
            Column::Cells { .. } => "cells",
        }
    }

    #[test]
    fn push_keeps_the_form_its_cells_give() {
        let mut col = Column::default();
        let mut cells = Vec::new();
        let script = [
            Cell::abs(4, 6),
            Cell::point(3),
            Cell::point(9),
            Cell::point(1),
            Cell::point(2),
            rel(-1),
            Cell::Sym { attr: 0 },
            Cell::point(slot(0)),
            Cell::point(slot(1)),
            Cell::point(7),
            Cell::abs(0, 1),
            rel(2),
            Cell::abs(0, 1),
        ];
        for cell in script {
            col.push(cell);
            cells.push(cell);
            assert_eq!(col, Column::collect(cells.iter().copied()), "{cells:?}");
            assert_eq!(col.iter().collect::<Vec<_>>(), cells);
        }
    }

    #[test]
    fn collect_picks_the_narrowest_form() {
        let points = |n: i64| (0..n).map(Cell::point);
        for (cells, want) in [
            (vec![], "points"),
            (vec![Cell::point(-2), Cell::point(i64::MIN)], "points"),
            (vec![Cell::abs(1, 2)], "intervals"),
            (vec![rel(3)], "cells"),
            (points(3).chain([Cell::abs(1, 2)]).collect(), "points"),
            (points(3).chain([rel(1)]).collect(), "points"),
            (points(2).chain([Cell::abs(1, 2)]).collect(), "intervals"),
            (points(2).chain([rel(1)]).collect(), "cells"),
        ] {
            let col = Column::collect(cells.iter().copied());
            assert_eq!(form(&col), want, "{cells:?}");
            assert_eq!(col.iter().collect::<Vec<_>>(), cells);
        }
    }

    /// The form the rule in [`Column`]'s doc gives `cells`, worked out
    /// apart from [`Column::collect`].
    fn narrowest(cells: &[Cell]) -> &'static str {
        let others = cells.iter().filter(|c| !is_point(c)).count();
        match () {
            _ if 4 * others <= cells.len() => "points",
            _ if cells.iter().all(|c| matches!(c, Cell::Abs(_))) => "intervals",
            _ => "cells",
        }
    }

    /// The table's cells, column by column.
    fn cells_of(t: &CompressedTable) -> Vec<Vec<Cell>> {
        (0..t.arity()).map(|k| t.column(k).collect()).collect()
    }

    /// The table format written from plain `Cell` columns, as it was
    /// written before columns had forms.
    fn reference_serialize(t: &CompressedTable) -> Vec<u8> {
        let mut out = b"DSPC".to_vec();
        out.push(2);
        out.push(u8::from(t.orientation() == Orientation::Forward));
        write_uvarint(&mut out, t.primary_arity() as u64);
        write_uvarint(&mut out, t.secondary_arity() as u64);
        for &e in t.extents() {
            write_ivarint(&mut out, e);
        }
        write_uvarint(&mut out, t.n_rows() as u64);
        let tag = |c: &Cell| match c {
            Cell::Abs(i) if i.is_point() => 0u8,
            Cell::Abs(_) => 1,
            Cell::Rel { delta, .. } if delta.is_point() => 2,
            Cell::Rel { .. } => 3,
            Cell::Sym { .. } => 4,
        };
        for column in cells_of(t) {
            let mut runs: Vec<(u8, u64)> = Vec::new();
            for c in &column {
                match runs.last_mut() {
                    Some((last, len)) if *last == tag(c) => *len += 1,
                    _ => runs.push((tag(c), 1)),
                }
            }
            for &(tag, len) in &runs {
                out.push(tag);
                write_uvarint(&mut out, len);
            }
            if column.is_empty() {
                out.push(0xff);
            }
            let (mut prev_abs, mut prev_rel) = (0i64, 0i64);
            for c in &column {
                match *c {
                    Cell::Abs(i) => {
                        write_ivarint(&mut out, i.lo - prev_abs);
                        prev_abs = i.lo;
                        if !i.is_point() {
                            write_uvarint(&mut out, (i.hi - i.lo) as u64);
                        }
                    }
                    Cell::Rel { anchor, delta } => {
                        write_uvarint(&mut out, u64::from(anchor));
                        write_ivarint(&mut out, delta.lo - prev_rel);
                        prev_rel = delta.lo;
                        if !delta.is_point() {
                            write_uvarint(&mut out, (delta.hi - delta.lo) as u64);
                        }
                    }
                    Cell::Sym { attr } => write_uvarint(&mut out, u64::from(attr)),
                }
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Every way a table is held is invisible: its cells read back as
    /// `cells`, each column has the form its cells give, a table with the
    /// same cells built by `push_row` is `==`, and its bytes are the
    /// reference encoder's and decode to an equal table.
    fn check_invisible(t: &CompressedTable, cells: &[Vec<Cell>]) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.columns().len(), cells.len());
        for (k, (col, want)) in t.columns().iter().zip(cells).enumerate() {
            prop_assert_eq!(form(col), narrowest(want), "column {}: {:?}", k, want);
            for (i, &cell) in want.iter().enumerate() {
                prop_assert_eq!(t.cell(i, k), cell);
            }
        }
        let mut pushed = CompressedTable::new(
            t.orientation(),
            t.primary_arity(),
            t.secondary_arity(),
            t.extents().to_vec(),
        );
        for i in 0..t.n_rows() {
            let row: Vec<Cell> = cells.iter().map(|col| col[i]).collect();
            pushed.push_row(&row);
        }
        prop_assert_eq!(&pushed, t);
        let bytes = serialize(t);
        prop_assert_eq!(&bytes, &reference_serialize(t));
        prop_assert_eq!(&deserialize(&bytes).unwrap(), t);
        Ok(())
    }

    /// A table of up to 60 rows, one or two attributes a side, extents 8.
    /// Each column draws its cells with its own share of non-points (none,
    /// one in sixteen, a quarter, most), which are absolute intervals,
    /// relative cells in a secondary column, or now and then symbolic.
    fn arb_cells() -> impl Strategy<Value = (usize, Vec<Vec<Cell>>)> {
        (1usize..=2, 1usize..=2, 0usize..60).prop_flat_map(|(pa, sa, n)| {
            let arity = pa + sa;
            let shares = prop::collection::vec(0usize..4, arity);
            let draws = prop::collection::vec((0u32..64, 0i64..8, 0i64..3, 0u32..24), n * arity);
            (shares, draws).prop_map(move |(shares, draws)| {
                let columns = (0..arity)
                    .map(|k| {
                        let share = [0, 4, 16, 48][shares[k]];
                        (draws[k * n..(k + 1) * n].iter())
                            .map(|&(roll, v, w, pick)| match (roll < share, pick % 8) {
                                (false, _) => Cell::point(v),
                                (true, 0) => Cell::Sym {
                                    attr: (pick as usize % arity) as u8,
                                },
                                (true, p) if k >= pa && p % 2 == 1 => Cell::Rel {
                                    anchor: (pick as usize % pa) as u8,
                                    delta: Interval::new(v - 4, v - 4 + w),
                                },
                                (true, _) => Cell::abs(v, (v + w + 1).min(7)),
                            })
                            .collect()
                    })
                    .collect();
                (pa, columns)
            })
        })
    }

    /// A `B[i] <- A[j]` relation over up to 80 output cells: runs of
    /// one-to-one, shifted and constant rows between scattered ones, so
    /// ProvRC's output mixes points, intervals and relative cells.
    fn arb_lineage() -> impl Strategy<Value = LineageTable> {
        prop::collection::vec((0u32..4, 0i64..24, 1usize..12), 0..12).prop_map(|runs| {
            let mut t = LineageTable::new(1, 1);
            let mut i = 0i64;
            for (kind, j, len) in runs {
                for r in 0..len as i64 {
                    let a = match kind {
                        0 => i % 24,
                        1 => (j + r) % 24,
                        2 => j,
                        _ => (j * 7 + r * 5) % 24,
                    };
                    t.push_row(&[i, a]);
                    i += 1;
                }
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_tables_columns_are_invisible((pa, cells) in arb_cells()) {
            let arity = cells.len();
            let mut t = CompressedTable::new(Orientation::Backward, pa, arity - pa, vec![8; arity]);
            for i in 0..cells[0].len() {
                let row: Vec<Cell> = cells.iter().map(|col| col[i]).collect();
                t.push_row(&row);
            }
            check_invisible(&t, &cells)?;

            // Reshaping maps every column and narrows it again: there and
            // back is the table it started from, once its symbolic cells
            // are instantiated.
            let shape = |attrs: std::ops::Range<usize>| vec![8usize; attrs.len()];
            let (out_shape, in_shape) = (shape(0..pa), shape(pa..arity));
            let concrete = reshape::instantiate(&t, &out_shape, &in_shape).unwrap();
            check_invisible(&concrete, &cells_of(&concrete))?;
            let general = reshape::generalize(&concrete);
            check_invisible(&general, &cells_of(&general))?;
            let back = reshape::instantiate(&general, &out_shape, &in_shape).unwrap();
            prop_assert_eq!(&back, &concrete);
            check_invisible(&back, &cells_of(&concrete))?;
        }

        #[test]
        fn compressed_columns_are_invisible(lineage in arb_lineage()) {
            let n = lineage.n_rows().max(1);
            for orientation in [Orientation::Backward, Orientation::Forward] {
                let t = provrc::compress(&lineage, &[n], &[24], orientation);
                check_invisible(&t, &cells_of(&t))?;
            }
        }
    }
}
