//! # dslog-baselines — alternative lineage storage formats and a mini
//! relational query engine
//!
//! Implements the paper's §VII.B baseline suite ("DPSM Baselines"):
//!
//! | Paper baseline | Module | Notes |
//! |---|---|---|
//! | Raw          | [`raw`]         | row-oriented, uncompressed |
//! | Array        | [`array_store`] | dense numpy-like buffer |
//! | Parquet      | [`parquetlike`] | row groups, dictionary + RLE/bit-pack hybrid |
//! | Parquet-GZip | [`parquetlike`] | same, with per-chunk DEFLATE |
//! | Turbo-RC     | [`turborc`]     | per-column RLE + Huffman entropy stage |
//!
//! The paper serves baseline queries from DuckDB; [`relengine`] is our
//! stand-in: an in-memory columnar table with multi-key hash joins for the
//! chained lineage queries, plus the batched "vectorized equality" scan
//! used by the Array baseline (§VII.D).
//!
//! The column encodings the Parquet and Turbo-RC formats are built from
//! live here too; DSLog's own format needs none of them:
//!
//! * [`bitpack`] — fixed-width bit packing of integer slices.
//! * [`rle`] — plain run-length encoding of `i64` columns.
//! * [`hybrid`] — Parquet-style RLE / bit-packing hybrid encoding.
//! * [`dict`] — dictionary encoding of integer columns.

#![forbid(unsafe_code)]

pub mod array_store;
pub mod bitpack;
pub mod dict;
pub mod hybrid;
pub mod parquetlike;
pub mod raw;
pub mod relengine;
pub mod rle;
pub mod turborc;

use dslog::table::LineageTable;

/// A baseline storage format for uncompressed lineage relations.
pub trait LineageFormat {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;
    /// Serialize a lineage relation.
    fn encode(&self, table: &LineageTable) -> Vec<u8>;
    /// Deserialize back to the relation (queries decompress first).
    fn decode(&self, bytes: &[u8]) -> LineageTable;
}

/// All baseline formats in the paper's Table VII column order.
pub fn all_formats() -> Vec<Box<dyn LineageFormat>> {
    vec![
        Box::new(raw::Raw),
        Box::new(array_store::ArrayStore),
        Box::new(parquetlike::ParquetLike::plain()),
        Box::new(parquetlike::ParquetLike::gzip()),
        Box::new(turborc::TurboRc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_format_roundtrips() {
        let mut t = LineageTable::new(1, 2);
        for b in 0..40 {
            for a2 in 0..3 {
                t.push_row(&[b, b, a2]);
            }
        }
        t.normalize();
        for f in all_formats() {
            let bytes = f.encode(&t);
            let back = f.decode(&bytes);
            assert_eq!(back.row_set(), t.row_set(), "format {}", f.name());
            assert_eq!(back.out_arity(), 1, "format {}", f.name());
            assert_eq!(back.in_arity(), 2, "format {}", f.name());
        }
    }
}
