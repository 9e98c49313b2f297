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
//! Column-major layout plus per-column delta coding keeps the incompressible
//! worst case (e.g. `Sort`) a few bytes per row, mirroring the paper's
//! ProvRC-vs-Raw ratio there, while structured lineage is dominated by the
//! constant header.

use crate::error::{DslogError, Result};
use crate::interval::Interval;
use crate::table::{Cell, CompressedTable, Orientation};
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};

const MAGIC: &[u8; 4] = b"DSPC";
const VERSION: u8 = 2;

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

/// Serialize a compressed table (version 2, with crc32 trailer).
pub fn serialize(table: &CompressedTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + table.n_rows() * 2);
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
    let n = table.n_rows();
    write_uvarint(&mut out, n as u64);

    let arity = table.arity();
    for k in 0..arity {
        let column = table.column(k);
        // Tag RLE stream.
        let mut i = 0;
        while i < n {
            let tag = cell_tag(&column[i]);
            let mut run = 1;
            while i + run < n && cell_tag(&column[i + run]) == tag {
                run += 1;
            }
            out.push(tag);
            write_uvarint(&mut out, run as u64);
            i += run;
        }
        if n == 0 {
            // Explicit empty marker keeps the decoder simple.
            out.push(0xff);
        }
        // Payload stream with per-column delta coding.
        let mut prev_abs = 0i64;
        let mut prev_rel = 0i64;
        for &cell in column {
            match cell {
                Cell::Abs(ivl) => {
                    write_ivarint(&mut out, ivl.lo - prev_abs);
                    prev_abs = ivl.lo;
                    if !ivl.is_point() {
                        write_uvarint(&mut out, (ivl.hi - ivl.lo) as u64);
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
                Cell::Sym { attr } => {
                    write_uvarint(&mut out, u64::from(attr));
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
    if data.len() < 6 || &data[..4] != MAGIC {
        return Err(DslogError::Corrupt("bad magic"));
    }
    if data[4] != VERSION {
        return Err(DslogError::Corrupt("unsupported version"));
    }
    // Trailer: 4-byte little-endian crc32 over everything before it.
    let Some((body, trailer)) = data.split_last_chunk::<4>().filter(|_| data.len() >= 10) else {
        return Err(DslogError::Corrupt("truncated table"));
    };
    if crc32(body) != u32::from_le_bytes(*trailer) {
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
    if prim_arity == 0 || sec_arity == 0 || prim_arity + sec_arity > 256 {
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

    // Read per-column directly into the table's columnar layout. `n` is
    // bounded by the byte-budget check above (lint:checked-alloc).
    let mut columns: Vec<Vec<Cell>> = (0..arity).map(|_| Vec::with_capacity(n)).collect();
    for (k, column) in columns.iter_mut().enumerate() {
        // Tags. Same byte-budget bound on `n` (lint:checked-alloc).
        let mut tags = Vec::with_capacity(n);
        if n == 0 {
            let &marker = body.get(pos).ok_or(DslogError::Corrupt("truncated"))?;
            if marker != 0xff {
                return Err(DslogError::Corrupt("missing empty-column marker"));
            }
            pos += 1;
        }
        while tags.len() < n {
            let &tag = body.get(pos).ok_or(DslogError::Corrupt("truncated tags"))?;
            pos += 1;
            if tag > TAG_SYM {
                return Err(DslogError::Corrupt("bad cell tag"));
            }
            let run = read_uvarint(body, &mut pos)? as usize;
            if run == 0 || tags.len().checked_add(run).is_none_or(|t| t > n) {
                return Err(DslogError::Corrupt("tag run overflow"));
            }
            tags.extend(std::iter::repeat_n(tag, run));
        }
        // Payloads.
        let mut prev_abs = 0i64;
        let mut prev_rel = 0i64;
        for &tag in &tags {
            let cell = match tag {
                TAG_ABS_POINT => {
                    let lo = prev_abs
                        .checked_add(read_ivarint(body, &mut pos)?)
                        .ok_or(DslogError::Corrupt("delta overflow"))?;
                    prev_abs = lo;
                    Cell::Abs(Interval::point(lo))
                }
                TAG_ABS_IVL => {
                    let lo = prev_abs
                        .checked_add(read_ivarint(body, &mut pos)?)
                        .ok_or(DslogError::Corrupt("delta overflow"))?;
                    prev_abs = lo;
                    let width = read_uvarint(body, &mut pos)? as i64;
                    if width < 0 || lo.checked_add(width).is_none() {
                        return Err(DslogError::Corrupt("interval width overflow"));
                    }
                    Cell::Abs(Interval::new(lo, lo + width))
                }
                TAG_REL_POINT => {
                    let anchor = read_uvarint(body, &mut pos)? as u8;
                    if usize::from(anchor) >= prim_arity || k < prim_arity {
                        return Err(DslogError::Corrupt("rel anchor out of range"));
                    }
                    let lo = prev_rel
                        .checked_add(read_ivarint(body, &mut pos)?)
                        .ok_or(DslogError::Corrupt("delta overflow"))?;
                    prev_rel = lo;
                    Cell::Rel {
                        anchor,
                        delta: Interval::point(lo),
                    }
                }
                TAG_REL_IVL => {
                    let anchor = read_uvarint(body, &mut pos)? as u8;
                    if usize::from(anchor) >= prim_arity || k < prim_arity {
                        return Err(DslogError::Corrupt("rel anchor out of range"));
                    }
                    let lo = prev_rel
                        .checked_add(read_ivarint(body, &mut pos)?)
                        .ok_or(DslogError::Corrupt("delta overflow"))?;
                    prev_rel = lo;
                    let width = read_uvarint(body, &mut pos)? as i64;
                    if width < 0 || lo.checked_add(width).is_none() {
                        return Err(DslogError::Corrupt("interval width overflow"));
                    }
                    Cell::Rel {
                        anchor,
                        delta: Interval::new(lo, lo + width),
                    }
                }
                TAG_SYM => {
                    let attr = read_uvarint(body, &mut pos)? as u8;
                    if usize::from(attr) >= arity {
                        return Err(DslogError::Corrupt("sym attr out of range"));
                    }
                    Cell::Sym { attr }
                }
                _ => unreachable!(),
            };
            column.push(cell);
        }
    }

    Ok(CompressedTable::from_columns(
        orientation,
        prim_arity,
        sec_arity,
        extents,
        columns,
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
