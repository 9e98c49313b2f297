//! Parquet-style RLE / bit-packing hybrid encoding.
//!
//! The encoder alternates between two kinds of groups, mirroring the format
//! Apache Parquet uses for definition levels and dictionary indices:
//!
//! * **RLE group** — header varint `run_len << 1`, followed by the repeated
//!   value in `ceil(width/8)` little-endian bytes.
//! * **Bit-packed group** — header varint `(groups << 1) | 1`, followed by
//!   `groups * 8` values packed at `width` bits each.
//!
//! Runs of ≥ 8 identical values become RLE groups; everything else is
//! bit-packed in multiples of 8 (the tail is padded with zeros).

use dslog_codecs::bitio::{BitReader, BitWriter};
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use dslog_codecs::{CodecError, Result};

const MIN_RLE_RUN: usize = 8;

/// Encode `values` at the given bit `width` (all values must fit in `width`).
pub fn encode(values: &[u32], width: u32) -> Vec<u8> {
    debug_assert!(width <= 32);
    debug_assert!(values
        .iter()
        .all(|&v| width == 32 || u64::from(v) < (1u64 << width)));
    let mut out = Vec::new();
    write_uvarint(&mut out, values.len() as u64);
    out.push(width as u8);
    if values.is_empty() {
        return out;
    }

    let value_bytes = (width as usize).div_ceil(8).max(1);
    let mut i = 0;
    // Pending values that will go into a bit-packed group.
    let mut pending: Vec<u32> = Vec::new();

    let flush_pending = |pending: &mut Vec<u32>, out: &mut Vec<u8>| {
        if pending.is_empty() {
            return;
        }
        let groups = pending.len().div_ceil(8);
        // Header stores the real value count; padding slots are implied.
        write_uvarint(out, ((pending.len() as u64) << 1) | 1);
        let mut w = BitWriter::with_capacity(groups * width.max(1) as usize);
        for idx in 0..groups * 8 {
            let v = pending.get(idx).copied().unwrap_or(0);
            w.write_bits(u64::from(v), width.max(1));
        }
        out.extend_from_slice(&w.finish());
        pending.clear();
    };

    while i < values.len() {
        // Measure the run starting at i.
        let v = values[i];
        let mut run = 1;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        if run >= MIN_RLE_RUN {
            flush_pending(&mut pending, &mut out);
            write_uvarint(&mut out, (run as u64) << 1);
            out.extend_from_slice(&v.to_le_bytes()[..value_bytes]);
        } else {
            pending.extend(std::iter::repeat_n(v, run));
        }
        i += run;
    }
    flush_pending(&mut pending, &mut out);
    out
}

/// Decode a buffer produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u32>> {
    let mut pos = 0;
    let count = read_uvarint(data, &mut pos)? as usize;
    let width = u32::from(*data.get(pos).ok_or(CodecError::UnexpectedEof)?);
    pos += 1;
    if width > 32 {
        return Err(CodecError::InvalidFormat("hybrid width > 32"));
    }
    let value_bytes = (width as usize).div_ceil(8).max(1);
    // RLE lets a tiny input legitimately expand, so `count` alone cannot be
    // trusted to size the upfront allocation; reserve a capped amount and
    // let the vector grow as decoded groups actually arrive.
    let reserve = count.min(1 << 16);
    let mut out: Vec<u32> = Vec::with_capacity(reserve);
    while out.len() < count {
        let header = read_uvarint(data, &mut pos)?;
        if header & 1 == 0 {
            // RLE group.
            let run = (header >> 1) as usize;
            let end = pos + value_bytes;
            if end > data.len() {
                return Err(CodecError::UnexpectedEof);
            }
            let mut le = [0u8; 4];
            le[..value_bytes].copy_from_slice(&data[pos..end]);
            pos = end;
            let v = u32::from_le_bytes(le);
            out.resize(out.len() + run, v);
        } else {
            // Bit-packed group(s): header carries the real value count;
            // the payload is padded to whole groups of 8.
            let real = (header >> 1) as usize;
            let total = real.div_ceil(8) * 8;
            let nbytes = (total * width.max(1) as usize).div_ceil(8);
            let end = pos + nbytes;
            if end > data.len() {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[pos..end]);
            pos = end;
            for i in 0..total {
                let v = r.read_bits(width.max(1))? as u32;
                if i < real {
                    out.push(v);
                }
            }
        }
    }
    if out.len() != count {
        return Err(CodecError::InvalidFormat("hybrid count mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], width: u32) {
        let enc = encode(values, width);
        assert_eq!(decode(&enc).unwrap(), values, "width {width}");
    }

    #[test]
    fn empty() {
        roundtrip(&[], 4);
    }

    #[test]
    fn all_same_uses_rle() {
        let values = vec![9u32; 100_000];
        let enc = encode(&values, 4);
        assert!(
            enc.len() < 16,
            "long run should encode tiny, got {}",
            enc.len()
        );
        roundtrip(&values, 4);
    }

    #[test]
    fn incrementing_values_bitpack() {
        let values: Vec<u32> = (0..1000).collect();
        roundtrip(&values, 10);
    }

    #[test]
    fn mixed_runs_and_noise() {
        let mut values = Vec::new();
        for block in 0..50u32 {
            values.extend(std::iter::repeat_n(block, 20)); // RLE-able
            values.extend((0..5).map(|i| (block * 7 + i) % 64)); // packed
        }
        roundtrip(&values, 6);
    }

    #[test]
    fn width_zero_all_zero() {
        let values = vec![0u32; 333];
        roundtrip(&values, 0);
    }

    #[test]
    fn short_tail_not_multiple_of_eight() {
        let values: Vec<u32> = (0..13).collect();
        roundtrip(&values, 4);
    }

    #[test]
    fn max_width() {
        let values = vec![u32::MAX, 0, u32::MAX, 1, 2, 3, u32::MAX - 1];
        roundtrip(&values, 32);
    }
}
