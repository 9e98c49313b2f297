//! The `Turbo-RC` baseline: a custom columnar format applying
//! "state-of-the-art integer compression over each column … run-length
//! encoding combined with integer entropy coding" (paper §VII.B).
//!
//! Each column is RLE-encoded, then the RLE byte stream is entropy-coded
//! with a canonical Huffman stage. Queries must fully decompress first —
//! the decompression overhead is exactly what makes Turbo-RC "highly
//! unsuitable for more selective queries" in the paper's Fig. 8.

use crate::{rle, LineageFormat};
use dslog::table::LineageTable;
use dslog_codecs::huffman;
use dslog_codecs::varint::{read_uvarint, write_uvarint};

const MAGIC: &[u8; 4] = b"DSTR";

/// Per-column RLE + Huffman entropy coding.
pub struct TurboRc;

impl LineageFormat for TurboRc {
    fn name(&self) -> &'static str {
        "Turbo-RC"
    }

    fn encode(&self, table: &LineageTable) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(table.out_arity() as u32).to_le_bytes());
        out.extend_from_slice(&(table.in_arity() as u32).to_le_bytes());
        out.extend_from_slice(&(table.n_rows() as u64).to_le_bytes());
        for k in 0..table.arity() {
            let column = table.column(k);
            let rle_bytes = rle::encode(&column);
            let entropy = huffman::compress_bytes(&rle_bytes);
            write_uvarint(&mut out, entropy.len() as u64);
            out.extend_from_slice(&entropy);
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> LineageTable {
        assert_eq!(&bytes[..4], MAGIC, "bad TurboRc magic");
        let out_arity = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let in_arity = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let n_rows = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let arity = out_arity + in_arity;
        let mut pos = 20usize;
        let mut columns: Vec<Vec<i64>> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let len = read_uvarint(bytes, &mut pos).expect("column len") as usize;
            let entropy = &bytes[pos..pos + len];
            pos += len;
            let rle_bytes = huffman::decompress_bytes(entropy).expect("entropy stage");
            let column = rle::decode(&rle_bytes).expect("rle stage");
            assert_eq!(column.len(), n_rows, "column length mismatch");
            columns.push(column);
        }
        let mut table = LineageTable::with_capacity(out_arity, in_arity, n_rows);
        let mut row = vec![0i64; arity];
        for i in 0..n_rows {
            for (k, col) in columns.iter().enumerate() {
                row[k] = col[i];
            }
            table.push_row(&row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_structured() {
        let mut t = LineageTable::new(1, 2);
        for b in 0..1000 {
            for a2 in 0..2 {
                t.push_row(&[b, b, a2]);
            }
        }
        let bytes = TurboRc.encode(&t);
        assert!(bytes.len() < t.nbytes(), "RLE must help on sorted columns");
        assert_eq!(TurboRc.decode(&bytes).row_set(), t.row_set());
    }

    #[test]
    fn roundtrip_unstructured() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..2000i64 {
            t.push_row(&[i, (i * 48271) % 2000]);
        }
        t.normalize();
        let bytes = TurboRc.encode(&t);
        assert_eq!(TurboRc.decode(&bytes).row_set(), t.row_set());
    }

    #[test]
    fn consistent_on_empty() {
        let t = LineageTable::new(1, 1);
        assert!(TurboRc.decode(&TurboRc.encode(&t)).is_empty());
    }
}
