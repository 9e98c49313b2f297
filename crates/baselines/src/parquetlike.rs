//! The `Parquet` and `Parquet-GZip` baselines: a columnar file format with
//! row groups and per-column-chunk encodings, mirroring Apache Parquet's
//! default integer path (dictionary + RLE/bit-packing hybrid, plain
//! fallback) and its optional per-chunk compression codec (paper §VII.B:
//! "default encoding and row-group partitioning settings", GZip "as
//! suggested by industry practice").
//!
//! Layout:
//!
//! ```text
//! magic "DSPQ" | codec u8 | out_arity u32 | in_arity u32 | n_rows u64 |
//! row_group_size u64 | per row group { per column chunk {
//!     encoding u8 (0 plain, 1 dict) | payload_len varint | payload } }
//! ```

use crate::{bitpack, dict, hybrid, LineageFormat};
use dslog::table::LineageTable;
use dslog_codecs::gzip;
use dslog_codecs::varint::{read_uvarint, write_uvarint};

const MAGIC: &[u8; 4] = b"DSPQ";
/// Parquet's default row group is large; ours is sized for the scaled-down
/// workloads while preserving the chunked structure.
pub const ROW_GROUP_SIZE: usize = 64 * 1024;

const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;

const CODEC_NONE: u8 = 0;
const CODEC_GZIP: u8 = 1;

/// The Parquet-like columnar format; `codec` selects per-chunk compression.
pub struct ParquetLike {
    codec: u8,
}

impl ParquetLike {
    /// No chunk compression (the paper's `Parquet`).
    pub fn plain() -> Self {
        Self { codec: CODEC_NONE }
    }

    /// DEFLATE per chunk (the paper's `Parquet-GZip`).
    pub fn gzip() -> Self {
        Self { codec: CODEC_GZIP }
    }
}

fn encode_chunk(values: &[i64]) -> (u8, Vec<u8>) {
    // Plain: raw little-endian i64s.
    let plain_len = values.len() * 8;
    // Dictionary: delta-varint dictionary + hybrid-encoded codes.
    if let Some(encoded) = dict::encode(values) {
        let mut payload = Vec::new();
        write_uvarint(&mut payload, encoded.dict.len() as u64);
        let mut prev = 0i64;
        for &v in &encoded.dict {
            dslog_codecs::varint::write_ivarint(&mut payload, v - prev);
            prev = v;
        }
        let width = bitpack::bits_needed(encoded.dict.len().saturating_sub(1) as u64);
        let codes = hybrid::encode(&encoded.codes, width);
        payload.extend_from_slice(&codes);
        if payload.len() < plain_len {
            return (ENC_DICT, payload);
        }
    }
    let mut payload = Vec::with_capacity(plain_len);
    for &v in values {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    (ENC_PLAIN, payload)
}

fn decode_chunk(encoding: u8, payload: &[u8], n: usize) -> Vec<i64> {
    match encoding {
        ENC_PLAIN => payload
            .chunks_exact(8)
            .take(n)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect(),
        ENC_DICT => {
            let mut pos = 0;
            let dict_len = read_uvarint(payload, &mut pos).expect("dict len") as usize;
            let mut d = Vec::with_capacity(dict_len);
            let mut prev = 0i64;
            for _ in 0..dict_len {
                prev += dslog_codecs::varint::read_ivarint(payload, &mut pos).expect("dict value");
                d.push(prev);
            }
            let codes = hybrid::decode(&payload[pos..]).expect("hybrid codes");
            codes.iter().map(|&c| d[c as usize]).collect()
        }
        other => panic!("unknown chunk encoding {other}"),
    }
}

impl LineageFormat for ParquetLike {
    fn name(&self) -> &'static str {
        if self.codec == CODEC_GZIP {
            "Parquet-GZip"
        } else {
            "Parquet"
        }
    }

    fn encode(&self, table: &LineageTable) -> Vec<u8> {
        let arity = table.arity();
        let n_rows = table.n_rows();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(self.codec);
        out.extend_from_slice(&(table.out_arity() as u32).to_le_bytes());
        out.extend_from_slice(&(table.in_arity() as u32).to_le_bytes());
        out.extend_from_slice(&(n_rows as u64).to_le_bytes());
        out.extend_from_slice(&(ROW_GROUP_SIZE as u64).to_le_bytes());

        let mut col_buf: Vec<i64> = Vec::with_capacity(ROW_GROUP_SIZE);
        let mut group_start = 0usize;
        while group_start < n_rows || (n_rows == 0 && group_start == 0) {
            let group_end = (group_start + ROW_GROUP_SIZE).min(n_rows);
            for k in 0..arity {
                col_buf.clear();
                for i in group_start..group_end {
                    col_buf.push(table.row(i)[k]);
                }
                let (enc, mut payload) = encode_chunk(&col_buf);
                if self.codec == CODEC_GZIP {
                    payload = gzip::compress(&payload);
                }
                out.push(enc);
                write_uvarint(&mut out, payload.len() as u64);
                out.extend_from_slice(&payload);
            }
            group_start = group_end;
            if n_rows == 0 {
                break;
            }
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> LineageTable {
        assert_eq!(&bytes[..4], MAGIC, "bad ParquetLike magic");
        let codec = bytes[4];
        let out_arity = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let in_arity = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
        let n_rows = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
        let group_size = u64::from_le_bytes(bytes[21..29].try_into().unwrap()) as usize;
        let arity = out_arity + in_arity;

        let mut table = LineageTable::with_capacity(out_arity, in_arity, n_rows);
        let mut pos = 29usize;
        let mut remaining = n_rows;
        let mut columns: Vec<Vec<i64>> = vec![Vec::new(); arity];
        while remaining > 0 {
            let rows_here = remaining.min(group_size);
            for col in columns.iter_mut() {
                let enc = bytes[pos];
                pos += 1;
                let plen = read_uvarint(bytes, &mut pos).expect("payload len") as usize;
                let mut payload = &bytes[pos..pos + plen];
                pos += plen;
                let decompressed;
                if codec == CODEC_GZIP {
                    decompressed = gzip::decompress(payload).expect("chunk gunzip");
                    payload = &decompressed;
                }
                *col = decode_chunk(enc, payload, rows_here);
            }
            let mut row = vec![0i64; arity];
            for i in 0..rows_here {
                for (k, col) in columns.iter().enumerate() {
                    row[k] = col[i];
                }
                table.push_row(&row);
            }
            remaining -= rows_here;
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aggregate_table(n: i64) -> LineageTable {
        // Lineage of a full aggregation: massively repetitive first column.
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[0, i]);
        }
        t
    }

    #[test]
    fn dictionary_compresses_aggregation() {
        let t = aggregate_table(10_000);
        let plain = ParquetLike::plain().encode(&t);
        let raw_size = t.nbytes();
        assert!(
            plain.len() < raw_size / 4,
            "parquet-like should shine on aggregation lineage: {} vs {}",
            plain.len(),
            raw_size
        );
        assert_eq!(ParquetLike::plain().decode(&plain).row_set(), t.row_set());
    }

    #[test]
    fn gzip_variant_smaller_on_structured() {
        let t = aggregate_table(10_000);
        let plain = ParquetLike::plain().encode(&t);
        let gz = ParquetLike::gzip().encode(&t);
        assert!(gz.len() <= plain.len());
        assert_eq!(ParquetLike::gzip().decode(&gz).row_set(), t.row_set());
    }

    #[test]
    fn random_permutation_roundtrip() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..5000i64 {
            t.push_row(&[i, (i * 2654435761i64) % 5000]);
        }
        t.normalize();
        for f in [ParquetLike::plain(), ParquetLike::gzip()] {
            let bytes = f.encode(&t);
            assert_eq!(f.decode(&bytes).row_set(), t.row_set(), "{}", f.name());
        }
    }

    #[test]
    fn multiple_row_groups() {
        let mut t = LineageTable::new(1, 1);
        let n = (ROW_GROUP_SIZE + 100) as i64;
        for i in 0..n {
            t.push_row(&[i / 2, i]);
        }
        let f = ParquetLike::plain();
        let bytes = f.encode(&t);
        let back = f.decode(&bytes);
        assert_eq!(back.n_rows(), n as usize);
        assert_eq!(back.row_set(), t.row_set());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = LineageTable::new(1, 1);
        let f = ParquetLike::plain();
        assert!(f.decode(&f.encode(&t)).is_empty());
    }
}
