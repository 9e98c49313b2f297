//! Failure-injection and robustness properties of the on-disk formats:
//! arbitrary compressed tables roundtrip exactly, and corrupted or
//! truncated bytes must produce an error — never a panic, never a
//! silently-wrong table that decompresses to different lineage.

use dslog::interval::Interval;
use dslog::provrc;
use dslog::storage::format;
use dslog::table::{Cell, CompressedTable, LineageTable, Orientation};
use proptest::prelude::*;

/// Strategy: an arbitrary *valid* compressed table, built by compressing a
/// random relation (so every invariant the compressor guarantees holds).
fn arb_compressed() -> impl Strategy<Value = CompressedTable> {
    (
        1usize..=2,
        1usize..=2,
        proptest::collection::vec((0i64..6, 0i64..6, 0i64..6, 0i64..6), 0..50),
        prop_oneof![Just(Orientation::Backward), Just(Orientation::Forward)],
    )
        .prop_map(|(out_arity, in_arity, raw_rows, orientation)| {
            let mut t = LineageTable::new(out_arity, in_arity);
            for (a, b, c, d) in raw_rows {
                let row: Vec<i64> = [a, b, c, d][..out_arity + in_arity].to_vec();
                t.push_row(&row);
            }
            t.normalize();
            provrc::compress(&t, &vec![6; out_arity], &vec![6; in_arity], orientation)
        })
}

/// A hand-built symbolic (generalized) table — `Sym` cells never come out
/// of `compress` directly, so cover them separately.
fn symbolic_table() -> CompressedTable {
    let mut t = CompressedTable::new(Orientation::Backward, 1, 1, vec![4, 4]);
    t.push_row(&[Cell::Abs(Interval::new(0, 3)), Cell::Sym { attr: 1 }]);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Plain and gzip serialization roundtrip exactly.
    #[test]
    fn roundtrip_exact(table in arb_compressed()) {
        let bytes = format::serialize(&table);
        prop_assert_eq!(&format::deserialize(&bytes).unwrap(), &table);
        let gz = format::serialize_gzip(&table);
        prop_assert_eq!(&format::deserialize_gzip(&gz).unwrap(), &table);
    }

    /// Truncation at any point errors, never panics.
    #[test]
    fn truncation_errors(table in arb_compressed(), frac in 0.0f64..1.0) {
        let bytes = format::serialize(&table);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(format::deserialize(&bytes[..cut]).is_err());
        }
    }

    /// A single flipped bit anywhere in a table file is ALWAYS rejected —
    /// the crc32 trailer detects every single-bit error by construction,
    /// and a flip that lands in the version byte (turning it into 0, 3, 6…)
    /// takes the unsupported-version arm — and rejection must be an `Err`,
    /// never a panic.
    #[test]
    fn v2_bitflip_always_rejected(table in arb_compressed(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = format::serialize(&table);
        if bytes.is_empty() {
            return Ok(());
        }
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        prop_assert!(format::deserialize(&bytes).is_err(), "flip at {i} accepted");
    }

    /// Gzip container corruption is detected (CRC32 + structure checks).
    #[test]
    fn gzip_corruption_detected(table in arb_compressed(), pos in any::<prop::sample::Index>()) {
        let mut gz = format::serialize_gzip(&table);
        if gz.len() < 2 {
            return Ok(());
        }
        let i = pos.index(gz.len());
        gz[i] ^= 0xFF;
        match format::deserialize_gzip(&gz) {
            // Either the container/CRC rejects it...
            Err(_) => {}
            // ...or (vanishingly rare) the flip cancels out structurally;
            // the parsed table must then still be self-consistent.
            Ok(parsed) => {
                prop_assert_eq!(parsed.arity(), parsed.primary_arity() + parsed.secondary_arity());
            }
        }
    }

    /// Serialized size is monotone-ish sane: never zero, never wildly
    /// larger than the uncompressed relation it encodes.
    #[test]
    fn size_bounds(table in arb_compressed()) {
        let bytes = format::serialize(&table);
        prop_assert!(!bytes.is_empty());
        // 9 i64s per cell is a generous upper bound for varint + tags.
        let bound = 64 + table.n_rows() * table.arity() * 72;
        prop_assert!(bytes.len() <= bound, "{} > {}", bytes.len(), bound);
    }
}

#[test]
fn symbolic_tables_roundtrip() {
    let t = symbolic_table();
    let bytes = format::serialize(&t);
    let back = format::deserialize(&bytes).unwrap();
    assert_eq!(back, t);
    assert!(back.is_generalized());
}

#[test]
fn empty_input_rejected() {
    assert!(format::deserialize(&[]).is_err());
    assert!(format::deserialize_gzip(&[]).is_err());
}

#[test]
fn wrong_magic_rejected() {
    let t = symbolic_table();
    let mut bytes = format::serialize(&t);
    bytes[0] = b'X';
    assert!(format::deserialize(&bytes).is_err());
}

#[test]
fn wrong_version_rejected() {
    let t = symbolic_table();
    let mut bytes = format::serialize(&t);
    // The version byte: 1 (the retired trailer-less format) is as
    // unsupported as a version never assigned.
    for version in [1, 250] {
        bytes[4] = version;
        assert_eq!(
            format::deserialize(&bytes).unwrap_err(),
            dslog::DslogError::Corrupt("unsupported version")
        );
    }
}

#[test]
fn plain_bytes_are_not_gzip() {
    let t = symbolic_table();
    let bytes = format::serialize(&t);
    assert!(format::deserialize_gzip(&bytes).is_err());
}

#[test]
fn gzip_bytes_are_not_plain() {
    let t = symbolic_table();
    let gz = format::serialize_gzip(&t);
    assert!(format::deserialize(&gz).is_err());
}
