//! Hostile-input and crash-safety properties of the persistence layer.
//!
//! The contract under test: **no byte sequence** fed to
//! `format::deserialize`, `format::deserialize_gzip`, or an open
//! may panic or allocate more than a small constant factor of the input
//! length — corrupt input always surfaces as `Err`. And a save that dies
//! anywhere before the catalog rename leaves the previous snapshot fully
//! openable.

use dslog::api::{Dslog, TableCapture};
use dslog::storage::format;
use dslog::storage::persist;
use dslog::table::LineageTable;
use dslog::DslogError;
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::read_uvarint;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dslog-persist-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_db() -> Dslog {
    let mut db = Dslog::new();
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    let mut t = LineageTable::new(1, 2);
    for i in 0..6 {
        for j in 0..2 {
            t.push_row(&[i, i, j]);
        }
    }
    db.add_lineage("A", "B", &TableCapture::new(t)).unwrap();
    db
}

/// A saved database directory's files, as (name, bytes) pairs.
fn dir_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Entirely random bytes never panic the table decoders. A random
    /// buffer passing 4-byte magic + checksum validation is beyond
    /// vanishing, so an `Err` is also asserted outright.
    #[test]
    fn random_bytes_into_deserialize(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(format::deserialize(&bytes).is_err());
        prop_assert!(format::deserialize_gzip(&bytes).is_err());
    }

    /// Random bytes with a valid magic prefix stapled on still never
    /// panic (this drives execution past the cheap header checks into the
    /// count/budget validation paths).
    #[test]
    fn magic_prefixed_garbage_never_panics(
        version in prop_oneof![Just(1u8), Just(2u8), any::<u8>()],
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut data = b"DSPC".to_vec();
        data.push(version);
        data.extend_from_slice(&bytes);
        let _ = format::deserialize(&data); // must return, not panic
        let mut gz = b"DSGZ".to_vec();
        gz.extend_from_slice(&bytes);
        let _ = format::deserialize_gzip(&gz);
    }

    /// Truncating a valid v2 file anywhere is always rejected.
    #[test]
    fn truncated_table_rejected(cut_frac in 0.0f64..1.0) {
        let db = sample_db();
        let table = db
            .storage()
            .stored_table("A", "B", dslog::table::Orientation::Backward)
            .unwrap();
        let bytes = format::serialize(&table);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(format::deserialize(&bytes[..cut]).is_err());
        }
        let gz = format::serialize_gzip(&table);
        let cut = ((gz.len() as f64) * cut_frac) as usize;
        if cut < gz.len() {
            prop_assert!(format::deserialize_gzip(&gz[..cut]).is_err());
        }
    }

    /// Flipping any single bit of any file in a saved database directory
    /// must make `open` fail — both catalog and table files carry crc32s,
    /// and a lazy open must fail no later than first touch. The one
    /// deliberate exception is the operation log: its per-record crc32s
    /// detect the damage, recovery truncates from the damaged record on,
    /// and the database must open cleanly (the catalog, not the log, is
    /// the durable truth).
    #[test]
    fn any_bitflip_in_database_dir_fails_open(
        file_pick in any::<prop::sample::Index>(),
        byte_pick in any::<prop::sample::Index>(),
        bit in 0u8..8,
        gzip in any::<bool>(),
    ) {
        let dir = temp_dir(if gzip { "flip-gz" } else { "flip" });
        sample_db().save(&dir, gzip).unwrap();
        let files = dir_files(&dir);
        let (name, bytes) = &files[file_pick.index(files.len())];
        let mut corrupted = bytes.clone();
        let i = byte_pick.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        std::fs::write(dir.join(name), &corrupted).unwrap();

        if name == "ops.log" {
            // Damage is confined to the log: open must succeed, truncate
            // the damaged tail, and leave a verify-clean store behind.
            let db = Dslog::options().open(&dir).unwrap();
            let r = db.prov_query(&["B", "A"], &[vec![1]]).unwrap();
            prop_assert!(r.cells.contains_cell(&[1, 0]));
            prop_assert!(persist::verify(&dir).is_ok(), "{name} byte {i} broke verify");
        } else {
            prop_assert!(Dslog::options().open(&dir).is_err(), "{name} byte {i} accepted");
            let lazily = Dslog::options().lazy(true).open(&dir)
                .and_then(|db| db.prov_query(&["B", "A"], &[vec![1]]).map(drop));
            prop_assert!(lazily.is_err(), "{name} byte {i} accepted lazily");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Crash-mid-save: starting from a committed snapshot, overlay any
    /// prefix of a later (different) save's file writes WITHOUT the catalog
    /// commit — the old snapshot must still open and answer queries.
    #[test]
    fn crash_before_catalog_commit_preserves_old_snapshot(keep_frac in 0.0f64..1.0) {
        let dir = temp_dir("crashprop");
        let db = sample_db();
        db.save(&dir, false).unwrap();
        let committed = dir_files(&dir);

        // Produce the would-be next snapshot in a scratch dir (an extra
        // edge, so the segments differ) at the generation a commit on top
        // of the live one would take — the scratch dir is taken through
        // the live generation first — then replay a prefix of its writes
        // into the live dir as an aborted save would have left them.
        let scratch = temp_dir("crashprop-scratch");
        db.save(&scratch, false).unwrap();
        let mut bigger = sample_db();
        bigger.define_array("C", &[6]).unwrap();
        let mut t = LineageTable::new(1, 1);
        for i in 0..6 {
            t.push_row(&[i, 5 - i]);
        }
        bigger.add_lineage("B", "C", &TableCapture::new(t)).unwrap();
        bigger.save(&scratch, true).unwrap();
        // In the order a commit writes them: the segment, then the catalog
        // — which an aborted save never renamed, so it exists only as the
        // temp sibling. (Log tails are `wal_robustness`'s subject.)
        let mut next_files = dir_files(&scratch);
        next_files.retain(|(name, _)| name != "ops.log");
        next_files.sort_by_key(|(name, _)| name == "catalog.dsl");
        prop_assert_eq!(next_files.len(), 2);
        prop_assert!(committed.iter().all(|(name, _)| *name != next_files[0].0));

        let keep = (((next_files.len() + 1) as f64) * keep_frac) as usize;
        for (name, bytes) in next_files.iter().take(keep) {
            let name = name.replace("catalog.dsl", "catalog.dsl.tmp");
            std::fs::write(dir.join(name), bytes).unwrap();
        }

        // Old snapshot intact: catalog untouched, every referenced file
        // untouched (generation naming ⇒ no collisions with the overlay).
        for (name, bytes) in &committed {
            prop_assert_eq!(&std::fs::read(dir.join(name)).unwrap(), bytes, "{} clobbered", name);
        }
        let reopened = Dslog::options().open(&dir).unwrap();
        let r = reopened.prov_query(&["B", "A"], &[vec![1]]).unwrap();
        prop_assert!(r.cells.contains_cell(&[1, 0]));
        prop_assert!(r.cells.contains_cell(&[1, 1]));
        prop_assert!(persist::verify(&dir).is_ok());

        // And a subsequent successful save sweeps the debris.
        reopened.save(&dir, false).unwrap();
        prop_assert!(persist::verify(&dir).unwrap().stale_files.is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}

#[test]
fn open_on_random_catalog_bytes_errors() {
    let dir = temp_dir("randcat");
    std::fs::create_dir_all(&dir).unwrap();
    // A few adversarial catalogs: random, huge claimed counts behind a valid magic.
    for bytes in [
        b"totally not a catalog".to_vec(),
        {
            let mut b = b"DSLGDB2\0".to_vec();
            b.push(0);
            b.extend_from_slice(&[0xff; 64]); // huge varints everywhere
            b
        },
        Vec::new(),
    ] {
        std::fs::write(dir.join("catalog.dsl"), &bytes).unwrap();
        assert!(Dslog::options().open(&dir).is_err());
        assert!(Dslog::options().lazy(true).open(&dir).is_err());
        assert!(persist::verify(&dir).is_err());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_passes_on_fresh_saves_in_both_modes() {
    for (tag, gzip) in [("vplain", false), ("vgz", true)] {
        let dir = temp_dir(tag);
        let db = sample_db();
        db.save(&dir, gzip).unwrap();
        let report = persist::verify(&dir).unwrap();
        assert_eq!(report.catalog_version, 3);
        assert_eq!(report.gzip, gzip);
        assert_eq!(report.n_edges, 1);
        assert!(report.stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A version-1 table as the first releases wrote it: the version-2 body
/// with version byte 1 and no checksum trailer. One backward row `0 <- 0`
/// over two 1-d arrays of 3 cells.
const V1_TABLE: &[u8] = b"DSPC\x01\x00\x01\x01\x06\x06\x01\x00\x01\x00\x00\x01\x00";

/// The version-1 catalog naming it: magic `DSLGDB1`, no generation, no
/// per-file records (the table is `edge-0-b.tbl` by position), no trailer.
const V1_CATALOG: &[u8] = b"DSLGDB1\0\x00\x02\x01A\x01\x03\x01B\x01\x03\x01\x01A\x01B\x01";

/// Version-1 directories and tables are no longer read: every entry point
/// rejects them with a typed error and leaves the files alone.
#[test]
fn v1_directory_and_table_are_rejected() {
    let dir = temp_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("catalog.dsl"), V1_CATALOG).unwrap();
    std::fs::write(dir.join("edge-0-b.tbl"), V1_TABLE).unwrap();
    let unsupported = dslog::DslogError::Corrupt("unsupported catalog version");
    for result in [
        Dslog::options().open(&dir).map(drop),
        Dslog::options().lazy(true).open(&dir).map(drop),
        persist::verify(&dir).map(drop),
    ] {
        assert_eq!(result.unwrap_err(), unsupported);
    }
    assert_eq!(
        format::deserialize(V1_TABLE).unwrap_err(),
        dslog::DslogError::Corrupt("unsupported version")
    );
    assert_eq!(std::fs::read(dir.join("edge-0-b.tbl")).unwrap(), V1_TABLE);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// [`sample_db`] with an edge that sorts before `A -> B`, so that table's
/// range does not start its segment.
fn two_edge_db() -> Dslog {
    let mut db = sample_db();
    db.define_array("0", &[6]).unwrap();
    let mut t = LineageTable::new(1, 1);
    for i in 0..6 {
        t.push_row(&[i, i]);
    }
    db.add_lineage("0", "B", &TableCapture::new(t)).unwrap();
    db
}

/// Where the catalog of a saved [`two_edge_db`] says the `A -> B` table
/// lies — its segment, byte offset and length — and the position of the
/// record's crc32 in the catalog bytes.
fn table_range(dir: &Path) -> (PathBuf, usize, usize, usize) {
    let catalog = std::fs::read(dir.join("catalog.dsl")).unwrap();
    let name = b"segment-0.g1.seg";
    // A record is: name, byte length (uvarint), crc32 (4 bytes LE), plain
    // length (uvarint), offset (uvarint). `A -> B` is the second edge.
    let mut at = catalog.windows(name.len()).enumerate();
    let second = at.by_ref().filter(|(_, w)| w == name).nth(1);
    let mut pos = second.expect("catalog names the segment twice").0 + name.len();
    let len = read_uvarint(&catalog, &mut pos).unwrap() as usize;
    let crc_pos = pos;
    pos += 4;
    read_uvarint(&catalog, &mut pos).unwrap();
    let offset = read_uvarint(&catalog, &mut pos).unwrap() as usize;
    assert!(offset > 0);
    (dir.join("segment-0.g1.seg"), offset, len, crc_pos)
}

/// Make the catalog record `crc` for the `A -> B` table, and re-seal the
/// catalog so that it is the record, not the catalog's own trailer, that
/// is wrong.
fn set_catalog_crc(dir: &Path, crc: u32) {
    let pos = table_range(dir).3;
    let path = dir.join("catalog.dsl");
    let mut catalog = std::fs::read(&path).unwrap();
    catalog[pos..pos + 4].copy_from_slice(&crc.to_le_bytes());
    let body = catalog.len() - 4;
    let seal = crc32(&catalog[..body]);
    catalog[body..].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(path, catalog).unwrap();
}

/// What the three routes into `load_table_file` say about `dir`: an eager
/// open, the first touch after a lazy open, and `verify`.
fn load_errors(dir: &Path) -> [DslogError; 3] {
    let lazily = Dslog::options()
        .lazy(true)
        .open(dir)
        .and_then(|db| db.prov_query(&["B", "A"], &[vec![1]]).map(drop));
    [
        Dslog::options().open(dir).map(drop).unwrap_err(),
        lazily.unwrap_err(),
        persist::verify(dir).map(drop).unwrap_err(),
    ]
}

/// A table load checksums the range once and holds the result against both
/// the catalog record and the table's own trailer. Each comparison must
/// still fire on its own, with the error the two-pass loader gave, on
/// every route — for a range in the middle of a segment.
#[test]
fn one_checksum_pass_still_answers_to_catalog_and_trailer() {
    let file_mismatch = DslogError::Corrupt("edge file checksum mismatch");
    for gzip in [false, true] {
        // Right trailer, wrong catalog crc.
        let dir = temp_dir(if gzip { "crc-cat-gz" } else { "crc-cat" });
        two_edge_db().save(&dir, gzip).unwrap();
        let (segment, offset, len, _) = table_range(&dir);
        let mut bytes = std::fs::read(&segment).unwrap();
        let recorded = crc32(&bytes[offset..offset + len]);
        if !gzip {
            // A plain table ends in the crc32 of everything before it, so
            // its whole crc32 is the CRC-32 residue whatever it holds.
            assert_eq!(recorded, 0x2144_df1c);
        }
        set_catalog_crc(&dir, recorded ^ 1);
        assert_eq!(load_errors(&dir), [(); 3].map(|_| file_mismatch.clone()));
        set_catalog_crc(&dir, recorded);
        assert!(persist::verify(&dir).is_ok());

        // A flipped body byte under an honest catalog.
        bytes[offset + len / 2] ^= 0x40;
        std::fs::write(&segment, &bytes).unwrap();
        assert_eq!(load_errors(&dir), [(); 3].map(|_| file_mismatch.clone()));

        if !gzip {
            // The same damaged table under a catalog that vouches for it:
            // the range crc now passes, and the trailer comparison — fed by
            // the same pass — is what catches it.
            set_catalog_crc(&dir, crc32(&bytes[offset..offset + len]));
            let trailer_mismatch = DslogError::Corrupt("table checksum mismatch");
            assert_eq!(load_errors(&dir), [(); 3].map(|_| trailer_mismatch.clone()));
        }

        // A segment cut short of the range: every route says so before it
        // reads a byte.
        std::fs::write(&segment, &bytes[..offset + len - 1]).unwrap();
        let too_short = DslogError::Corrupt("edge file length mismatch");
        assert_eq!(load_errors(&dir), [(); 3].map(|_| too_short.clone()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An edge of 300 attributes is more than a table file holds (the
/// decoder's bound is 256). Every ingest entry refuses it with a typed
/// error before it compresses or logs anything, so the bound
/// directory still reopens and verifies; an array with no axis is refused
/// the same way.
#[test]
fn over_wide_edge_is_refused_before_it_is_logged() {
    use dslog::service::{AutoCommitPolicy, DslogService, IngestJob};
    use dslog::storage::wal::OpKind;

    let dir = temp_dir("over-wide");
    let mut db = Dslog::new();
    db.define_array("A", &[2; 200]).unwrap();
    db.define_array("B", &[2; 100]).unwrap();
    db.save(&dir, false).unwrap();
    let logged = db.history().unwrap().len();

    let too_wide = DslogError::UnsupportedArity {
        got: 300,
        min: 2,
        max: 256,
    };
    let row = [0i64; 300];
    let t = LineageTable::from_rows(100, 200, &[&row]);
    assert_eq!(
        db.add_lineage("A", "B", &TableCapture::new(t.clone())),
        Err(too_wide.clone())
    );
    let captures: Vec<Box<dyn dslog::api::Capture>> = vec![Box::new(TableCapture::new(t.clone()))];
    assert_eq!(
        db.register_operation("op", &["A"], &["B"], captures, &[], false)
            .map(|_| ()),
        Err(too_wide.clone())
    );
    let storage = db.storage_mut();
    assert_eq!(storage.ingest_lineage("A", "B", &t), Err(too_wide.clone()));
    assert_eq!(
        db.define_array("E", &[]),
        Err(DslogError::UnsupportedArity {
            got: 0,
            min: 1,
            max: 255
        })
    );

    let service = DslogService::new(db, AutoCommitPolicy::manual());
    assert_eq!(
        service
            .ingest_batch(vec![IngestJob::new("A", "B", t)])
            .map(|_| ()),
        Err(too_wide)
    );
    service.commit().unwrap();
    let history = service.history().unwrap();
    assert!(
        history[logged..]
            .iter()
            .all(|r| matches!(r.kind, OpKind::Commit { .. })),
        "refused requests logged {:?}",
        &history[logged..]
    );
    drop(service);

    let reopened = Dslog::options().open(&dir).unwrap();
    assert_eq!(reopened.storage().array_names(), ["A", "B"]);
    assert_eq!(persist::verify(&dir).unwrap().n_edges, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
