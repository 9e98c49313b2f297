//! Property-based roundtrip tests for every codec in `dslog-codecs`.
//!
//! Runs are reproducible: the vendored proptest runner pins a fixed RNG
//! seed (`proptest::test_runner::DEFAULT_RNG_SEED`; override with the
//! `PROPTEST_RNG_SEED` env var when hunting for new counterexamples) and a
//! failing case's seed is appended under this crate's
//! `proptest-regressions/` directory (commit that file!) and replayed
//! before fresh cases on every subsequent run.

use dslog_codecs::{deflate, gzip, huffman, varint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn uvarint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_uvarint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_uvarint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarint_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::write_ivarint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_ivarint(&buf, &mut pos).unwrap(), v);
    }

    #[test]
    fn zigzag_involution(v in any::<i64>()) {
        prop_assert_eq!(varint::unzigzag(varint::zigzag(v)), v);
    }

    #[test]
    fn huffman_bytes_roundtrip(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let comp = huffman::compress_bytes(&data);
        prop_assert_eq!(huffman::decompress_bytes(&comp).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip(data in prop::collection::vec(any::<u8>(), 0..3000)) {
        let comp = deflate::compress(&data);
        prop_assert_eq!(deflate::decompress(&comp).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_structured(
        runs in prop::collection::vec((any::<u8>(), 1usize..60), 0..60)
    ) {
        let data: Vec<u8> = runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let comp = deflate::compress(&data);
        prop_assert_eq!(deflate::decompress(&comp).unwrap(), data);
    }

    #[test]
    fn gzip_roundtrip(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let comp = gzip::compress(&data);
        prop_assert_eq!(gzip::decompress(&comp).unwrap(), data);
    }
}
