//! Binary serialization of compressed lineage tables.
//!
//! This is the on-disk ProvRC format whose byte size Table VII measures.
//! Layout (version 2; all integers varint/zig-zag unless noted):
//!
//! ```text
//! magic "DSPC" | version u8 | orientation u8
//! prim_arity | sec_arity | extents[arity] | n_rows
//! per attribute column (primary first):
//!   tag RLE stream: (tag u8, count) pairs summing to n_rows
//!   payload, row order, per tag:
//!     0 Abs point     : Δlo            (delta vs previous Abs lo in column)
//!     1 Abs interval  : Δlo, width
//!     2 Rel point     : anchor, Δdelta (delta vs previous Rel delta.lo)
//!     3 Rel interval  : anchor, Δdelta, width
//!     4 Sym           : attr
//! crc32 u32 LE        (over every preceding byte)
//! ```
//!
//! Any other version byte — including 1, the same body without the
//! checksum trailer, which nothing has written for many releases — is
//! rejected as unsupported.
//!
//! The decoder is hostile-input proof: the checksum is verified before the
//! body is parsed, every wire-supplied count is validated against the
//! remaining byte budget before allocation (a cell costs at least one
//! payload byte, so `n_rows * arity` may never exceed the bytes left), and
//! columns are built directly in the table's columnar layout.
//!
//! ## Run by run
//!
//! Both directions work on a column's tag stream as `(tag, count)` runs,
//! not on a tag per cell. The reader keeps the runs it has validated (each
//! cost at least two input bytes, so the list is bounded by the input),
//! settles per column what an anchor may be — nothing, in a primary column
//! — and then runs one loop per run, the one- and two-byte varints that
//! make up point runs read from a single bounds-checked pair, `Sym` cells
//! counted by the run. The runs
//! also give, before anything is allocated, the form the table holds the
//! column in (see `CompressedTable`): the cells outside absolute-point runs
//! count the column's non-points, so a column with at most a quarter of
//! them decodes to 8 bytes per row and the list of the others, one whose
//! runs are all absolute to 16, and any other to a 24-byte [`Cell`] per
//! row. Writing those bytes is the floor a decode that keeps its tables
//! cannot go under.
//!
//! ## Verify once
//!
//! [`deserialize`] is self-verifying: it computes the crc32 of the body
//! and holds it against the trailer. The table loader
//! (`persist::load_table_file`) has to hold the same body crc against the
//! record that installed the table anyway, so it computes it once and
//! enters through `deserialize_checksummed`, which compares the body crc
//! it is handed and computes nothing. Every other check, and the order they fire
//! in, is the same on both entries.
//!
//! Column-major layout plus per-column delta coding keeps the incompressible
//! worst case (e.g. `Sort`) a few bytes per row, mirroring the paper's
//! ProvRC-vs-Raw ratio there, while structured lineage is dominated by the
//! constant header.

use crate::error::{DslogError, Result};
use crate::interval::Interval;
use crate::table::column::{self, Column};
use crate::table::{Cell, CompressedTable, Orientation};
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_ivarint, read_uvarint, unzigzag, write_ivarint, write_uvarint};

const MAGIC: &[u8; 4] = b"DSPC";
const VERSION: u8 = 2;
/// Bytes of the crc32 trailer that ends every table.
pub(crate) const TRAILER_LEN: usize = 4;

const TAG_ABS_POINT: u8 = 0;
const TAG_ABS_IVL: u8 = 1;
const TAG_REL_POINT: u8 = 2;
const TAG_REL_IVL: u8 = 3;
const TAG_SYM: u8 = 4;

fn cell_tag(cell: &Cell) -> u8 {
    match cell {
        Cell::Abs(ivl) if ivl.is_point() => TAG_ABS_POINT,
        Cell::Abs(_) => TAG_ABS_IVL,
        Cell::Rel { delta, .. } if delta.is_point() => TAG_REL_POINT,
        Cell::Rel { .. } => TAG_REL_IVL,
        Cell::Sym { .. } => TAG_SYM,
    }
}

/// One entry of a column's tag stream: `len` consecutive cells of kind `tag`.
type TagRun = (u8, usize);

/// Serialize a compressed table (version 2, with crc32 trailer).
pub fn serialize(table: &CompressedTable) -> Vec<u8> {
    let n = table.n_rows();
    let arity = table.arity();
    // A cell is at least one payload byte and rarely more than two.
    let mut out = Vec::with_capacity(64 + 2 * n * arity);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(match table.orientation() {
        Orientation::Backward => 0,
        Orientation::Forward => 1,
    });
    write_uvarint(&mut out, table.primary_arity() as u64);
    write_uvarint(&mut out, table.secondary_arity() as u64);
    for &e in table.extents() {
        write_ivarint(&mut out, e);
    }
    write_uvarint(&mut out, n as u64);

    let mut runs: Vec<TagRun> = Vec::new();
    for k in 0..arity {
        // One scan classifies every cell; the tag stream and the payload
        // are both written from its runs, as the reader consumes them.
        runs.clear();
        for cell in table.column(k) {
            let tag = cell_tag(&cell);
            match runs.last_mut() {
                Some((last, len)) if *last == tag => *len += 1,
                _ => runs.push((tag, 1)),
            }
        }
        for &(tag, len) in &runs {
            out.push(tag);
            write_uvarint(&mut out, len as u64);
        }
        if n == 0 {
            // Explicit empty marker keeps the decoder simple.
            out.push(0xff);
        }
        // Payload stream with per-column delta coding.
        let mut prev_abs = 0i64;
        let mut prev_rel = 0i64;
        let mut cells = table.column(k);
        for &(tag, len) in &runs {
            let wide = tag == TAG_ABS_IVL || tag == TAG_REL_IVL;
            for cell in cells.by_ref().take(len) {
                match cell {
                    Cell::Abs(ivl) => {
                        write_ivarint(&mut out, ivl.lo - prev_abs);
                        prev_abs = ivl.lo;
                        if wide {
                            write_uvarint(&mut out, (ivl.hi - ivl.lo) as u64);
                        }
                    }
                    Cell::Rel { anchor, delta } => {
                        write_uvarint(&mut out, u64::from(anchor));
                        write_ivarint(&mut out, delta.lo - prev_rel);
                        prev_rel = delta.lo;
                        if wide {
                            write_uvarint(&mut out, (delta.hi - delta.lo) as u64);
                        }
                    }
                    Cell::Sym { attr } => {
                        write_uvarint(&mut out, u64::from(attr));
                    }
                }
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialize a table produced by [`serialize`]. The checksum is verified
/// before any parsing; all counts are validated against the remaining
/// input before allocation, so hostile bytes can never demand more than a
/// small constant factor of the input length in memory.
pub fn deserialize(data: &[u8]) -> Result<CompressedTable> {
    decode(data, None)
}

/// [`deserialize`] for a caller that has already run the crc32 over
/// everything before the 4-byte trailer (`body_crc`) — the table loader,
/// whose one pass over the file yields this and the catalog's file crc.
/// Every other check is [`deserialize`]'s, in the same order.
pub(crate) fn deserialize_checksummed(data: &[u8], body_crc: u32) -> Result<CompressedTable> {
    decode(data, Some(body_crc))
}

/// Read one varint, with the one- and two-byte encodings — nearly every
/// cell of a point run — decoded from a single bounds-checked pair. Longer
/// ones (and the last byte of the body) take the general reader, out of
/// line and by value so that `pos` stays in a register in the run loops.
#[inline(always)]
fn read_short_uvarint(body: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(&[b0, b1]) = body.get(*pos..).and_then(|rest| rest.first_chunk::<2>()) {
        if b0 < 0x80 {
            *pos += 1;
            return Ok(u64::from(b0));
        }
        if b1 < 0x80 {
            *pos += 2;
            return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
        }
    }
    let (value, next) = read_long_uvarint(body, *pos)?;
    *pos = next;
    Ok(value)
}

#[cold]
#[inline(never)]
fn read_long_uvarint(body: &[u8], mut pos: usize) -> Result<(u64, usize)> {
    let value = read_uvarint(body, &mut pos)?;
    Ok((value, pos))
}

#[inline(always)]
fn read_delta(body: &[u8], pos: &mut usize, prev: &mut i64) -> Result<i64> {
    let Some(lo) = prev.checked_add(unzigzag(read_short_uvarint(body, pos)?)) else {
        return Err(DslogError::Corrupt("delta overflow"));
    };
    *prev = lo;
    Ok(lo)
}

#[inline(always)]
fn read_interval(body: &[u8], pos: &mut usize, prev: &mut i64) -> Result<Interval> {
    let lo = read_delta(body, pos, prev)?;
    let width = read_short_uvarint(body, pos)? as i64;
    if width < 0 || lo.checked_add(width).is_none() {
        return Err(DslogError::Corrupt("interval width overflow"));
    }
    Ok(Interval::new(lo, lo + width))
}

/// Read a one-byte index (`Rel` anchor, `Sym` attribute) that must lie
/// below `limit`; wire values past `u8::MAX` are out of range, not wrapped.
#[inline(always)]
fn read_index(body: &[u8], pos: &mut usize, limit: usize, what: &'static str) -> Result<u8> {
    match u8::try_from(read_short_uvarint(body, pos)?) {
        Ok(index) if usize::from(index) < limit => Ok(index),
        _ => Err(DslogError::Corrupt(what)),
    }
}

/// One column's payload: where it is read from, and the delta state its
/// cells carry from one to the next.
struct Payload<'a> {
    body: &'a [u8],
    pos: usize,
    prev_abs: i64,
    prev_rel: i64,
    /// `Rel` anchors must lie below this: none may in a primary column.
    anchors: usize,
    arity: usize,
    /// Absolute intervals read with width 0.
    zero_width: usize,
}

impl<'a> Payload<'a> {
    fn new(body: &'a [u8], pos: usize, anchors: usize, arity: usize) -> Self {
        Self {
            body,
            pos,
            prev_abs: 0,
            prev_rel: 0,
            anchors,
            arity,
            zero_width: 0,
        }
    }

    #[inline(always)]
    fn point(&mut self) -> Result<i64> {
        read_delta(self.body, &mut self.pos, &mut self.prev_abs)
    }

    #[inline(always)]
    fn interval(&mut self) -> Result<Interval> {
        let ivl = read_interval(self.body, &mut self.pos, &mut self.prev_abs)?;
        self.zero_width += usize::from(ivl.is_point());
        Ok(ivl)
    }

    /// The `run` cells of a run tagged `tag`, onto `cells`.
    #[inline(always)]
    fn run(&mut self, tag: u8, run: usize, cells: &mut Vec<Cell>) -> Result<()> {
        for _ in 0..run {
            cells.push(self.cell(tag)?);
        }
        Ok(())
    }

    /// One cell of a run tagged `tag` (a tag the tag stream admitted).
    #[inline(always)]
    fn cell(&mut self, tag: u8) -> Result<Cell> {
        const BAD_ANCHOR: &str = "rel anchor out of range";
        let (body, pos) = (self.body, &mut self.pos);
        Ok(match tag {
            TAG_ABS_POINT => Cell::point(self.point()?),
            TAG_ABS_IVL => Cell::Abs(self.interval()?),
            TAG_REL_POINT => {
                let anchor = read_index(body, pos, self.anchors, BAD_ANCHOR)?;
                let delta = Interval::point(read_delta(body, pos, &mut self.prev_rel)?);
                Cell::Rel { anchor, delta }
            }
            TAG_REL_IVL => {
                let anchor = read_index(body, pos, self.anchors, BAD_ANCHOR)?;
                let delta = read_interval(body, pos, &mut self.prev_rel)?;
                Cell::Rel { anchor, delta }
            }
            // TAG_SYM: the tag stream admits nothing above it.
            _ => Cell::Sym {
                attr: read_index(body, pos, self.arity, "sym attr out of range")?,
            },
        })
    }
}

fn decode(data: &[u8], body_crc: Option<u32>) -> Result<CompressedTable> {
    if data.len() < 6 || &data[..4] != MAGIC {
        return Err(DslogError::Corrupt("bad magic"));
    }
    if data[4] != VERSION {
        return Err(DslogError::Corrupt("unsupported version"));
    }
    // Trailer: 4-byte little-endian crc32 over everything before it.
    let Some((body, trailer)) = data
        .split_last_chunk::<TRAILER_LEN>()
        .filter(|_| data.len() >= 10)
    else {
        return Err(DslogError::Corrupt("truncated table"));
    };
    if body_crc.unwrap_or_else(|| crc32(body)) != u32::from_le_bytes(*trailer) {
        return Err(DslogError::Corrupt("table checksum mismatch"));
    }
    let orientation = match body[5] {
        0 => Orientation::Backward,
        1 => Orientation::Forward,
        _ => return Err(DslogError::Corrupt("bad orientation")),
    };
    let mut pos = 6;
    let prim_arity = read_uvarint(body, &mut pos)? as usize;
    let sec_arity = read_uvarint(body, &mut pos)? as usize;
    if prim_arity == 0 || sec_arity == 0 || prim_arity + sec_arity > super::MAX_EDGE_ARITY {
        return Err(DslogError::Corrupt("bad arity"));
    }
    let arity = prim_arity + sec_arity;
    let mut extents = Vec::with_capacity(arity);
    for _ in 0..arity {
        let e = read_ivarint(body, &mut pos)?;
        if e < 0 {
            return Err(DslogError::Corrupt("negative extent"));
        }
        extents.push(e);
    }
    let n = read_uvarint(body, &mut pos)? as usize;
    // Byte-budget validation before any size-`n` allocation: every cell
    // encodes to at least one payload byte, so a file claiming more cells
    // than it has bytes left is corrupt no matter what follows.
    let remaining = body.len() - pos;
    match n.checked_mul(arity) {
        Some(cells) if cells <= remaining => {}
        _ => return Err(DslogError::Corrupt("row count exceeds input size")),
    }

    // Columns are decoded straight into the table's columnar layout, one
    // tight loop per tag run. The run list grows by one entry per
    // (tag, count) pair read, each at least two input bytes, so it is
    // bounded by the remaining input (lint:checked-alloc — no wire count
    // sizes it).
    let mut runs: Vec<TagRun> = Vec::new();
    let mut columns: Vec<Column> = Vec::with_capacity(arity);
    let mut sym_count = 0usize;
    for k in 0..arity {
        runs.clear();
        if n == 0 {
            let &marker = body.get(pos).ok_or(DslogError::Corrupt("truncated"))?;
            if marker != 0xff {
                return Err(DslogError::Corrupt("missing empty-column marker"));
            }
            pos += 1;
        }
        let mut tagged = 0usize;
        while tagged < n {
            let &tag = body.get(pos).ok_or(DslogError::Corrupt("truncated tags"))?;
            pos += 1;
            if tag > TAG_SYM {
                return Err(DslogError::Corrupt("bad cell tag"));
            }
            let run = read_uvarint(body, &mut pos)? as usize;
            if run == 0 || run > n - tagged {
                return Err(DslogError::Corrupt("tag run overflow"));
            }
            tagged += run;
            runs.push((tag, run));
        }
        // A `Rel` cell is legal only in a secondary column, anchored to a
        // primary attribute: in a primary column no anchor is in range.
        let anchors = if k < prim_arity { 0 } else { prim_arity };
        let mut payload = Payload::new(body, pos, anchors, arity);
        // The runs settle the column's form before it is allocated: how
        // many cells are not absolute points, and whether all are absolute.
        let others: usize = (runs.iter())
            .filter(|&&(tag, _)| tag != TAG_ABS_POINT)
            .map(|&(_, run)| run)
            .sum();
        // `n` (and `others`, at most `n`) is bounded by the byte-budget
        // check above (lint:checked-alloc).
        let column = if 4 * others <= n {
            let (mut values, mut list) = (Vec::with_capacity(n), Vec::with_capacity(others));
            for &(tag, run) in &runs {
                if tag == TAG_ABS_POINT {
                    for _ in 0..run {
                        values.push(payload.point()?);
                    }
                } else {
                    for _ in 0..run {
                        list.push((values.len() as u32, payload.cell(tag)?));
                        values.push(column::slot(list.len() - 1));
                    }
                }
            }
            Column::Points {
                values,
                others: list,
            }
        } else if runs.iter().all(|&(tag, _)| tag <= TAG_ABS_IVL) {
            let mut ivls = Vec::with_capacity(n);
            for &(tag, run) in &runs {
                if tag == TAG_ABS_POINT {
                    for _ in 0..run {
                        ivls.push(Interval::point(payload.point()?));
                    }
                } else {
                    for _ in 0..run {
                        ivls.push(payload.interval()?);
                    }
                }
            }
            Column::Intervals { ivls, wide: others }
        } else {
            let mut cells = Vec::with_capacity(n);
            for &(tag, run) in &runs {
                // One copy of the loop per tag, each with its tag constant.
                match tag {
                    TAG_ABS_POINT => payload.run(TAG_ABS_POINT, run, &mut cells)?,
                    TAG_ABS_IVL => payload.run(TAG_ABS_IVL, run, &mut cells)?,
                    TAG_REL_POINT => payload.run(TAG_REL_POINT, run, &mut cells)?,
                    TAG_REL_IVL => payload.run(TAG_REL_IVL, run, &mut cells)?,
                    _ => payload.run(TAG_SYM, run, &mut cells)?,
                }
            }
            Column::Cells { cells, others }
        };
        pos = payload.pos;
        sym_count += (runs.iter())
            .filter(|&&(tag, _)| tag == TAG_SYM)
            .map(|&(_, run)| run)
            .sum::<usize>();
        // A file may spell a point as a zero-width interval, which no
        // writer does; the runs then over-count the column's other cells,
        // so its form is taken again from the cells themselves.
        columns.push(match payload.zero_width {
            0 => column,
            _ => Column::collect(column.iter()),
        });
    }

    Ok(CompressedTable::from_columns(
        orientation,
        prim_arity,
        sec_arity,
        extents,
        columns,
        sym_count,
    ))
}

/// Serialize with the gzip stage on top (the paper's ProvRC-GZip).
pub fn serialize_gzip(table: &CompressedTable) -> Vec<u8> {
    dslog_codecs::gzip::compress(&serialize(table))
}

/// Inverse of [`serialize_gzip`].
pub fn deserialize_gzip(data: &[u8]) -> Result<CompressedTable> {
    deserialize(&dslog_codecs::gzip::decompress(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provrc::compress;
    use crate::table::LineageTable;

    fn roundtrip(t: &CompressedTable) {
        let bytes = serialize(t);
        let back = deserialize(&bytes).unwrap();
        assert_eq!(&back, t);
        let gz = serialize_gzip(t);
        assert_eq!(&deserialize_gzip(&gz).unwrap(), t);
    }

    #[test]
    fn roundtrip_structured() {
        let mut t = LineageTable::new(1, 2);
        for b in 0..50 {
            for a2 in 0..4 {
                t.push_row(&[b, b, a2]);
            }
        }
        let c = compress(&t, &[50], &[50, 4], Orientation::Backward);
        roundtrip(&c);
    }

    #[test]
    fn roundtrip_unstructured() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..200i64 {
            t.push_row(&[i, (i * 131 + 7) % 200]);
        }
        let c = compress(&t, &[200], &[200], Orientation::Backward);
        roundtrip(&c);
    }

    #[test]
    fn roundtrip_generalized() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..8 {
            t.push_row(&[0, i]);
        }
        let c = compress(&t, &[1], &[8], Orientation::Backward);
        let g = crate::provrc::reshape::generalize(&c);
        assert!(g.is_generalized());
        roundtrip(&g);
    }

    #[test]
    fn roundtrip_empty() {
        let c = CompressedTable::new(Orientation::Forward, 2, 1, vec![3, 4, 5]);
        roundtrip(&c);
    }

    #[test]
    fn structured_lineage_serializes_tiny() {
        // One-to-one over 1M cells → constant-size file.
        let n = 100_000i64;
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[i, i]);
        }
        let c = compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
        let bytes = serialize(&c);
        assert!(
            bytes.len() < 64,
            "one-to-one lineage must be ~header-sized, got {}",
            bytes.len()
        );
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(deserialize(b"nope").is_err());
        let mut t = LineageTable::new(1, 1);
        t.push_row(&[0, 0]);
        let c = compress(&t, &[1], &[1], Orientation::Backward);
        let mut bytes = serialize(&c);
        bytes[0] = b'X';
        assert!(deserialize(&bytes).is_err());
        let bytes2 = serialize(&c);
        assert!(deserialize(&bytes2[..bytes2.len() - 1]).is_err());
    }

    #[test]
    fn v2_checksum_detects_payload_flip() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..40i64 {
            t.push_row(&[i, (i * 17 + 3) % 40]);
        }
        let c = compress(&t, &[40], &[40], Orientation::Backward);
        let clean = serialize(&c);
        // Flip one bit in every position: the crc32 trailer must reject all.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(deserialize(&bytes).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn hostile_row_count_rejected_without_allocation() {
        // Hand-build a header that claims ~u62 rows with a 2-attribute
        // schema: the byte-budget check must reject it up front instead of
        // attempting a multi-GiB allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.push(0); // backward
        write_uvarint(&mut bytes, 1); // prim arity
        write_uvarint(&mut bytes, 1); // sec arity
        write_ivarint(&mut bytes, 4); // extents
        write_ivarint(&mut bytes, 4);
        write_uvarint(&mut bytes, u64::MAX >> 2); // hostile n_rows
        bytes.push(0); // a little trailing garbage
        let forged = crc32(&bytes); // a valid trailer: exercises raw validation
        bytes.extend_from_slice(&forged.to_le_bytes());
        assert!(matches!(
            deserialize(&bytes),
            Err(DslogError::Corrupt("row count exceeds input size"))
        ));
    }

    #[test]
    fn hostile_arity_times_rows_overflow_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        write_uvarint(&mut bytes, 128); // prim arity
        write_uvarint(&mut bytes, 128); // sec arity → arity 256
        for _ in 0..256 {
            write_ivarint(&mut bytes, 2);
        }
        write_uvarint(&mut bytes, u64::MAX >> 1); // n * arity overflows
        let forged = crc32(&bytes);
        bytes.extend_from_slice(&forged.to_le_bytes());
        assert!(matches!(
            deserialize(&bytes),
            Err(DslogError::Corrupt("row count exceeds input size"))
        ));
    }
}
