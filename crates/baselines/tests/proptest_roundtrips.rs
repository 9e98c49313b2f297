//! Property-based roundtrip tests for the column encodings the baseline
//! formats are built from (`bitpack`, `rle`, `hybrid`, `dict`).
//!
//! Runs are reproducible: the vendored proptest runner pins a fixed RNG
//! seed (`proptest::test_runner::DEFAULT_RNG_SEED`; override with the
//! `PROPTEST_RNG_SEED` env var when hunting for new counterexamples) and a
//! failing case's seed is appended under this crate's
//! `proptest-regressions/` directory (commit that file!) and replayed
//! before fresh cases on every subsequent run.

use dslog_baselines::{bitpack, dict, hybrid, rle};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rle_roundtrip(values in prop::collection::vec(-100i64..100, 0..500)) {
        prop_assert_eq!(rle::decode(&rle::encode(&values)).unwrap(), values);
    }

    #[test]
    fn rle_roundtrip_wide(values in prop::collection::vec(any::<i64>(), 0..100)) {
        prop_assert_eq!(rle::decode(&rle::encode(&values)).unwrap(), values);
    }

    #[test]
    fn bitpack_roundtrip(width in 1u32..33, values in prop::collection::vec(any::<u64>(), 0..200)) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let values: Vec<u64> = values.into_iter().map(|v| v & mask).collect();
        let packed = bitpack::pack(&values, width);
        prop_assert_eq!(bitpack::unpack(&packed, width, values.len()).unwrap(), values);
    }

    #[test]
    fn hybrid_roundtrip(values in prop::collection::vec(0u32..4096, 0..400)) {
        let width = bitpack::width_for(&values.iter().map(|&v| u64::from(v)).collect::<Vec<_>>());
        let enc = hybrid::encode(&values, width);
        prop_assert_eq!(hybrid::decode(&enc).unwrap(), values);
    }

    #[test]
    fn hybrid_roundtrip_runny(
        runs in prop::collection::vec((0u32..16, 1usize..40), 0..40)
    ) {
        let values: Vec<u32> = runs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let enc = hybrid::encode(&values, 4);
        prop_assert_eq!(hybrid::decode(&enc).unwrap(), values);
    }

    #[test]
    fn dict_roundtrip(values in prop::collection::vec(any::<i64>(), 0..300)) {
        let enc = dict::encode(&values).unwrap();
        prop_assert_eq!(dict::decode(&enc), values);
    }
}
