//! Failure-injection and robustness properties of the on-disk formats:
//! arbitrary compressed tables roundtrip exactly, and corrupted or
//! truncated bytes must produce an error — never a panic, never a
//! silently-wrong table that decompresses to different lineage.

use dslog::interval::Interval;
use dslog::provrc;
use dslog::storage::format;
use dslog::table::{Cell, CompressedTable, LineageTable, Orientation};
use dslog::DslogError;
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{write_ivarint, write_uvarint};
use dslog_codecs::CodecError;
use proptest::prelude::*;

/// Strategy: an arbitrary *valid* compressed table — half of them built by
/// compressing a random relation (so every invariant the compressor
/// guarantees holds), half hand-mixed from tag runs the compressor would
/// never emit side by side ([`arb_mixed`]).
fn arb_compressed() -> impl Strategy<Value = CompressedTable> {
    prop_oneof![arb_from_relation(), arb_mixed()]
}

fn arb_orientation() -> impl Strategy<Value = Orientation> {
    prop_oneof![Just(Orientation::Backward), Just(Orientation::Forward)]
}

fn arb_from_relation() -> impl Strategy<Value = CompressedTable> {
    (
        1usize..=2,
        1usize..=2,
        proptest::collection::vec((0i64..6, 0i64..6, 0i64..6, 0i64..6), 0..50),
        arb_orientation(),
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

/// Columns assembled from runs of all five cell kinds, run lengths from 1
/// up to the whole column, values stepping within a run so the per-column
/// delta coding sees both signs and one- to three-byte varints. `Rel` only
/// appears where it is legal (a secondary column, anchored to a primary
/// attribute); in a primary column its slot becomes the `Abs` kind of the
/// same width.
fn arb_mixed() -> impl Strategy<Value = CompressedTable> {
    // (kind, run length, first value, step, width, anchor/attr pick)
    let run = (
        0u8..5,
        1usize..30,
        -70_000i64..70_000,
        -90i64..90,
        1i64..200,
        0usize..4,
    );
    (
        1usize..=2,
        1usize..=2,
        arb_orientation(),
        0usize..=24,
        proptest::collection::vec(proptest::collection::vec(run, 1..5), 4usize),
    )
        .prop_map(|(prim, sec, orientation, n, columns)| {
            let arity = prim + sec;
            let column = |k: usize| -> Vec<Cell> {
                let runs = columns[k].iter().cycle();
                let cells = runs.flat_map(|&(kind, len, first, step, width, pick)| {
                    (0..len as i64).map(move |j| {
                        let lo = first + j * step;
                        let ivl = if kind % 2 == 1 {
                            Interval::new(lo, lo + width)
                        } else {
                            Interval::point(lo)
                        };
                        match kind {
                            4 => Cell::Sym {
                                attr: (pick % arity) as u8,
                            },
                            2 | 3 if k >= prim => Cell::Rel {
                                anchor: (pick % prim) as u8,
                                delta: ivl,
                            },
                            _ => Cell::Abs(ivl),
                        }
                    })
                });
                cells.take(n).collect()
            };
            let columns: Vec<Vec<Cell>> = (0..arity).map(column).collect();
            let mut t = CompressedTable::new(orientation, prim, sec, vec![9; arity]);
            for i in 0..n {
                let row: Vec<Cell> = columns.iter().map(|c| c[i]).collect();
                t.push_row(&row);
            }
            t
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

// ---------------------------------------------------------------------------
// The byte format is frozen: golden files and hand-forged bodies
// ---------------------------------------------------------------------------

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// `B[i] = sum_j A[i, j]` over a 12x4 input: one row of ranges and a
/// relative cell.
fn golden_structured() -> CompressedTable {
    let mut t = LineageTable::new(1, 2);
    for b in 0..12 {
        for a2 in 0..4 {
            t.push_row(&[b, b, a2]);
        }
    }
    provrc::compress(&t, &[12], &[12, 4], Orientation::Backward)
}

/// A 40-cell permutation, forward: nothing for ProvRC to merge.
fn golden_scatter() -> CompressedTable {
    let mut t = LineageTable::new(1, 1);
    for i in 0..40i64 {
        t.push_row(&[i, (i * 17 + 3) % 40]);
    }
    provrc::compress(&t, &[40], &[40], Orientation::Forward)
}

/// All five cell kinds, in runs of one and two, in primary and secondary
/// columns, with one-, two- and three-byte varints of both signs.
fn golden_mixed() -> CompressedTable {
    let rel = |anchor, lo, hi| Cell::Rel {
        anchor,
        delta: Interval::new(lo, hi),
    };
    let sym = |attr| Cell::Sym { attr };
    let rows = [
        [Cell::point(0), Cell::abs(0, 8), rel(0, -1, -1), sym(3)],
        [Cell::point(1), Cell::abs(0, 8), rel(0, -1, -1), sym(3)],
        [
            Cell::point(200),
            Cell::point(4),
            rel(1, -2, 2),
            Cell::point(7),
        ],
        [
            Cell::abs(201, 260),
            Cell::point(5),
            rel(1, 0, 130),
            Cell::abs(2, 3),
        ],
        [
            Cell::abs(261, 299),
            Cell::point(5),
            Cell::abs(10, 299),
            Cell::abs(0, 8),
        ],
        [
            Cell::point(299),
            Cell::point(8),
            Cell::point(150),
            rel(1, 0, 0),
        ],
        [Cell::point(299), sym(1), sym(2), rel(0, -290, -290)],
    ];
    let mut t = CompressedTable::new(Orientation::Backward, 2, 2, vec![300, 9, 300, 9]);
    for row in &rows {
        t.push_row(row);
    }
    t
}

fn golden_empty() -> CompressedTable {
    CompressedTable::new(Orientation::Forward, 2, 1, vec![3, 4, 5])
}

/// Files written by the release before the run-wise codec (captured at
/// 4aae2c1) decode to the same tables, and those tables serialize to the
/// same bytes: old directories open, and new ones open under old binaries.
#[test]
fn golden_files_decode_equal_and_reserialize_identically() {
    let golden = [
        (
            golden_structured(),
            "4453504302000102181808010101000b02010000010100034c96eb6f",
        ),
        (
            golden_scatter(),
            "445350430201010150502800280622222d222d222d22222d222d222d22222d222d222d22222d222d\
             22222d222d222d22222d222d2200280002020202020202020202020202020202020202020202020202\
             0202020202020202020202020202c82fafd8",
        ),
        (
            golden_mixed(),
            "4453504302000202d80412d804120700030102000200028e03023b78264c00010200040401000800\
             08080200060102020302010100010401000100000101040104820114a10298020204020001010202\
             0203030e09010308010000c304302a547a",
        ),
        (golden_empty(), "445350430201020106080a00ffffffcdd23612"),
    ];
    for (table, hex) in golden {
        let bytes = unhex(hex);
        assert_eq!(format::deserialize(&bytes).unwrap(), table);
        assert_eq!(format::serialize(&table), bytes);
    }
}

/// A table body for hand-forged columns: backward, every extent 300.
fn forged_header(prim: u64, sec: u64, n_rows: u64) -> Vec<u8> {
    let mut body = b"DSPC\x02\x00".to_vec();
    write_uvarint(&mut body, prim);
    write_uvarint(&mut body, sec);
    for _ in 0..prim + sec {
        write_ivarint(&mut body, 300);
    }
    write_uvarint(&mut body, n_rows);
    body
}

/// Seal a forged body with a valid trailer, so the decoder's structural
/// validation — not the checksum — is what has to reject it.
fn forge(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

fn forged(header: Vec<u8>, columns: &[&[u8]]) -> Result<CompressedTable, DslogError> {
    format::deserialize(&forge([&header[..], &columns.concat()].concat()))
}

/// Two abs points `0, 0`: a well-formed column to sit beside a hostile one.
const TWO_POINTS: &[u8] = &[0, 2, 0, 0];

#[test]
fn hostile_tag_runs_keep_their_errors() {
    let two_rows = || forged_header(1, 1, 2);
    let overflow = Err(DslogError::Corrupt("tag run overflow"));
    // A zero-length run.
    assert_eq!(
        forged(two_rows(), &[&[0, 0, 0, 2, 0, 0], TWO_POINTS]),
        overflow
    );
    // A first run longer than the column, and a second run past its end.
    assert_eq!(
        forged(two_rows(), &[&[0, 3, 0, 0, 0], TWO_POINTS]),
        overflow
    );
    assert_eq!(
        forged(two_rows(), &[&[0, 1, 1, 2, 0, 0, 0], TWO_POINTS]),
        overflow
    );
    // A tag past `Sym`.
    assert_eq!(
        forged(two_rows(), &[&[5, 2, 0, 0], TWO_POINTS]),
        Err(DslogError::Corrupt("bad cell tag"))
    );
    // The tag stream stops before the column is covered.
    assert_eq!(
        forged(two_rows(), &[TWO_POINTS, &[0, 1]]),
        Err(DslogError::Corrupt("truncated tags"))
    );
}

#[test]
fn rel_cells_are_rejected_in_a_primary_column() {
    let anchor = Err(DslogError::Corrupt("rel anchor out of range"));
    // A whole column of rel points, and a rel interval behind an abs point.
    assert_eq!(
        forged(forged_header(1, 1, 2), &[&[2, 2, 0, 0, 0, 0], TWO_POINTS]),
        anchor
    );
    assert_eq!(
        forged(
            forged_header(1, 1, 2),
            &[&[0, 1, 3, 1, 0, 0, 0, 0], TWO_POINTS]
        ),
        anchor
    );
    // The same bytes as the secondary column are a legal table.
    assert!(forged(forged_header(1, 1, 2), &[TWO_POINTS, &[2, 2, 0, 0, 0, 0]]).is_ok());
}

/// `n` runs of one cell each — what a writer that never merged runs would
/// emit — decode to the table the canonical encoding gives; cut short of
/// their payload they fail in the payload reader, not in an allocation.
#[test]
fn one_cell_runs_decode_like_merged_runs() {
    let split = forged(
        forged_header(1, 1, 3),
        &[
            &[0, 1, 0, 1, 0, 1, 0, 2, 2],
            &[2, 1, 2, 1, 2, 1, 0, 1, 0, 0, 0, 0],
        ],
    )
    .unwrap();
    let merged = forged(
        forged_header(1, 1, 3),
        &[&[0, 3, 0, 2, 2], &[2, 3, 0, 1, 0, 0, 0, 0]],
    )
    .unwrap();
    assert_eq!(split, merged);
    assert_eq!(
        split.column(0).collect::<Vec<_>>(),
        [Cell::point(0), Cell::point(1), Cell::point(2)]
    );
    assert_eq!(
        forged(forged_header(1, 1, 3), &[&[0, 1, 0, 1, 0, 1]]),
        Err(DslogError::Codec(CodecError::UnexpectedEof))
    );
}

/// An anchor or attribute index is one byte in memory but a varint on the
/// wire: 259 must be out of range, not wrapped to 3.
#[test]
fn wide_anchor_and_attr_are_out_of_range_not_wrapped() {
    let abs_columns = |n: usize| [0u8, 1, 0].repeat(n);
    for (index, legal) in [(259u64, false), (256, false), (3, true)] {
        let mut rel = vec![2, 1];
        write_uvarint(&mut rel, index);
        rel.push(0);
        let got = forged(forged_header(4, 1, 1), &[&abs_columns(4), &rel]);
        match legal {
            true => assert_eq!(
                got.unwrap().cell(0, 4),
                Cell::Rel {
                    anchor: 3,
                    delta: Interval::point(0)
                }
            ),
            false => assert_eq!(got, Err(DslogError::Corrupt("rel anchor out of range"))),
        }

        let mut sym = vec![4, 1];
        write_uvarint(&mut sym, index);
        let got = forged(forged_header(2, 2, 1), &[&abs_columns(3), &sym]);
        match legal {
            true => assert_eq!(got.unwrap().cell(0, 3), Cell::Sym { attr: 3 }),
            false => assert_eq!(got, Err(DslogError::Corrupt("sym attr out of range"))),
        }
    }
}
