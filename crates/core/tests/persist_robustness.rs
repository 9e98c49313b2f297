//! Hostile-input and crash-safety properties of the persistence layer.
//!
//! The contract under test: **no byte sequence** fed to
//! `format::deserialize`, `format::deserialize_gzip`, or an open
//! may panic or allocate more than a small constant factor of the input
//! length — corrupt input always surfaces as `Err`. And a save that dies
//! anywhere before its fresh log's rename leaves the previous snapshot
//! fully openable.

use dslog::api::{Dslog, TableCapture};
use dslog::storage::format;
use dslog::storage::persist;
use dslog::storage::wal::{IoFault, IoPolicy};
use dslog::table::{LineageTable, Orientation};
use dslog::DslogError;
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use dslog_oracle::query::reference;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A saved database directory's files, as (name, bytes) pairs (the writer
/// lock included: it holds no data).
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
            .stored_table("A", "B")
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
    /// must make `open` fail — the log's frames and the tables carry
    /// crc32s, and a lazy open must fail no later than first touch. The
    /// log is the database: a flip anywhere in it hides the checkpoint or
    /// the commit that vouches for it. (The writer lock holds no byte.)
    #[test]
    fn any_bitflip_in_database_dir_fails_open(
        file_pick in any::<prop::sample::Index>(),
        byte_pick in any::<prop::sample::Index>(),
        bit in 0u8..8,
        gzip in any::<bool>(),
    ) {
        let dir = temp_dir(if gzip { "flip-gz" } else { "flip" });
        sample_db().save(&dir, gzip).unwrap();
        let mut files = dir_files(&dir);
        files.retain(|(name, _)| name != persist::LOCK_FILE);
        let (name, bytes) = &files[file_pick.index(files.len())];
        let mut corrupted = bytes.clone();
        let i = byte_pick.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        std::fs::write(dir.join(name), &corrupted).unwrap();

        prop_assert!(Dslog::options().open(&dir).is_err(), "{name} byte {i} accepted");
        let lazily = Dslog::options().lazy(true).open(&dir)
            .and_then(|db| db.prov_query(&["B", "A"], &[vec![1]]).map(drop));
        prop_assert!(lazily.is_err(), "{name} byte {i} accepted lazily");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Crash-mid-save: starting from a committed snapshot, overlay any
    /// prefix of a later (different) save's file writes WITHOUT the rename
    /// of its fresh log — the old snapshot must still open and answer
    /// queries.
    #[test]
    fn crash_before_catalog_commit_preserves_old_snapshot(keep_frac in 0.0f64..1.0) {
        let dir = temp_dir("crashprop");
        sample_db().save(&dir, false).unwrap();
        let committed = dir_files(&dir);

        // Produce the would-be next snapshot in a scratch dir (an extra
        // edge, so the segments differ) at the generation a commit on top
        // of the live one would take — the scratch dir is taken through
        // the live generation first — then replay a prefix of its writes
        // into the live dir as an aborted save would have left them.
        let scratch = temp_dir("crashprop-scratch");
        sample_db().save(&scratch, false).unwrap();
        let mut bigger = sample_db();
        bigger.define_array("C", &[6]).unwrap();
        let mut t = LineageTable::new(1, 1);
        for i in 0..6 {
            t.push_row(&[i, 5 - i]);
        }
        bigger.add_lineage("B", "C", &TableCapture::new(t)).unwrap();
        bigger.save(&scratch, true).unwrap();
        // In the order a commit writes them: the segment, then the fresh
        // log — which an aborted save never renamed, so it exists only as
        // the temp sibling.
        let mut next_files = dir_files(&scratch);
        next_files.retain(|(name, _)| name != persist::LOCK_FILE);
        next_files.sort_by_key(|(name, _)| name == "ops.log");
        prop_assert_eq!(next_files.len(), 2);
        prop_assert!(committed.iter().all(|(name, _)| *name != next_files[0].0));

        let keep = (((next_files.len() + 1) as f64) * keep_frac) as usize;
        for (name, bytes) in next_files.iter().take(keep) {
            let name = name.replace("ops.log", "ops.log.tmp");
            std::fs::write(dir.join(name), bytes).unwrap();
        }

        // Old snapshot intact: its log untouched, every referenced file
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

/// One log frame: record version 1, `op_id`, timestamp 0, actor `cli`,
/// the two generations, `kind` and its `payload`; and the body alone.
fn frame(op_id: u64, gens: (u64, u64), kind: u8, payload: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut body = vec![1u8];
    write_uvarint(&mut body, op_id);
    write_uvarint(&mut body, 0);
    body.extend_from_slice(b"\x03cli");
    write_uvarint(&mut body, gens.0);
    write_uvarint(&mut body, gens.1);
    body.push(kind);
    body.extend_from_slice(payload);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    (frame, body)
}

/// The commit record that closes a checkpoint transaction of generation
/// `generation`: no segment, no tables.
fn checkpoint_commit(op_id: u64, generation: u64) -> Vec<u8> {
    let mut payload = vec![0u8]; // no segment
    write_uvarint(&mut payload, generation); // retained_from
    payload.push(0); // no tables
    frame(op_id, (0, generation), 8, &payload).0
}

/// The checkpoint is the catalog: random bytes and an empty file in place
/// of the log are refused on every route, and so is a log whose checkpoint
/// record claims huge counts behind correct frame crcs — the field bounds,
/// not the checksum, refuse those, and the log reads as one that does not
/// start with a checkpoint.
#[test]
fn open_on_random_catalog_bytes_errors() {
    let dir = temp_dir("randcat");
    std::fs::create_dir_all(&dir).unwrap();
    let routes = |dir: &Path| {
        [
            Dslog::options().open(dir).map(drop),
            Dslog::options().lazy(true).open(dir).map(drop),
            persist::verify(dir).map(drop),
        ]
    };
    for bytes in [b"totally not a log".to_vec(), Vec::new()] {
        std::fs::write(dir.join("ops.log"), &bytes).unwrap();
        assert!(routes(&dir).iter().all(|r| r.is_err()));
    }
    let header = |generation: &[u8]| [[0].as_slice(), generation].concat();
    let huge = [0xff, 0xff, 0xff, 0x7f];
    for (payload, expected) in [
        (
            [header(&[]), vec![0xff; 64]].concat(),
            DslogError::Codec(dslog_codecs::CodecError::VarintOverflow),
        ),
        (
            [header(&[1]), vec![1, 1, b'A'], huge.to_vec()].concat(),
            DslogError::Corrupt("array rank exceeds catalog size"),
        ),
        (
            [header(&[1]), vec![1], huge.to_vec(), vec![b'A']].concat(),
            DslogError::Corrupt("string runs past end of input"),
        ),
    ] {
        let (checkpoint, body) = frame(1, (0, 0), 9, &payload);
        assert_eq!(dslog::storage::wal::decode_body(&body), Err(expected));
        let log = [checkpoint, checkpoint_commit(2, 1)].concat();
        std::fs::write(dir.join("ops.log"), log).unwrap();
        let headless = DslogError::Corrupt("log does not start with a checkpoint");
        for result in routes(&dir) {
            assert_eq!(result, Err(headless.clone()));
        }
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
/// rejects them with a typed error — the directory has no log — and leaves
/// the files alone.
#[test]
fn v1_directory_and_table_are_rejected() {
    let dir = temp_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("catalog.dsl"), V1_CATALOG).unwrap();
    std::fs::write(dir.join("edge-0-b.tbl"), V1_TABLE).unwrap();
    let unsupported = dslog::DslogError::Corrupt("database files without an ops.log");
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

/// Where the checkpoint of a saved [`two_edge_db`] says the `A -> B` table
/// lies — its segment, byte offset and length — and the position of the
/// record's crc32 in the log's bytes.
fn table_range(dir: &Path) -> (PathBuf, usize, usize, usize) {
    let log = std::fs::read(dir.join("ops.log")).unwrap();
    let name = b"segment-0.g1.seg";
    // A record is: name, byte length (uvarint), crc32 (4 bytes LE), plain
    // length (uvarint), offset (uvarint). `A -> B` is the second edge.
    let mut at = log.windows(name.len()).enumerate();
    let second = at.by_ref().filter(|(_, w)| w == name).nth(1);
    let mut pos = second.expect("checkpoint names the segment twice").0 + name.len();
    let len = read_uvarint(&log, &mut pos).unwrap() as usize;
    let crc_pos = pos;
    pos += 4;
    read_uvarint(&log, &mut pos).unwrap();
    let offset = read_uvarint(&log, &mut pos).unwrap() as usize;
    assert!(offset > 0);
    (dir.join("segment-0.g1.seg"), offset, len, crc_pos)
}

/// Make the checkpoint record `crc` for the `A -> B` table, and re-seal
/// the checkpoint's frame so that it is the record, not the frame's crc,
/// that is wrong.
fn set_catalog_crc(dir: &Path, crc: u32) {
    let pos = table_range(dir).3;
    let path = dir.join("ops.log");
    let mut log = std::fs::read(&path).unwrap();
    log[pos..pos + 4].copy_from_slice(&crc.to_le_bytes());
    let end = 4 + u32::from_le_bytes(log[..4].try_into().unwrap()) as usize;
    let seal = crc32(&log[4..end]);
    log[end..end + 4].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(path, log).unwrap();
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
        let range = &bytes[offset..offset + len];
        // A plain table's record holds its body crc, the trailer its bytes
        // end in; a gzip table's, its container's crc32.
        let recorded = if gzip {
            crc32(range)
        } else {
            u32::from_le_bytes(range[len - 4..].try_into().unwrap())
        };
        set_catalog_crc(&dir, recorded ^ 1);
        assert_eq!(load_errors(&dir), [(); 3].map(|_| file_mismatch.clone()));
        if !gzip {
            // The crc32 of the whole range — the CRC-32 residue for bytes
            // that end in their own crc32, which catalogs of earlier builds
            // recorded — is not the body crc.
            assert_eq!(crc32(range), 0x2144_df1c);
            set_catalog_crc(&dir, 0x2144_df1c);
            assert_eq!(load_errors(&dir), [(); 3].map(|_| file_mismatch.clone()));
        }
        set_catalog_crc(&dir, recorded);
        assert!(persist::verify(&dir).is_ok());

        // A flipped body byte under an honest catalog.
        bytes[offset + len / 2] ^= 0x40;
        std::fs::write(&segment, &bytes).unwrap();
        assert_eq!(load_errors(&dir), [(); 3].map(|_| file_mismatch.clone()));

        if !gzip {
            // The same damaged table under a catalog that vouches for it:
            // the body crc now passes, and the trailer comparison — fed by
            // the same pass — is what catches it.
            set_catalog_crc(&dir, crc32(&bytes[offset..offset + len - 4]));
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

/// A database bound to `dir` with three edges `S → T0`, `S → T1`, `S → T2`
/// committed into one segment, and each edge's raw relation. Every commit
/// of the handle is gated by `policy`.
fn three_edges_in_one_segment(dir: &Path, policy: &Arc<IoPolicy>) -> (Dslog, Vec<LineageTable>) {
    let mut db = Dslog::options()
        .io_policy(policy.clone())
        .create(dir)
        .unwrap();
    db.define_array("S", &[8]).unwrap();
    let mut tables = Vec::new();
    for k in 0..3i64 {
        let out = format!("T{k}");
        db.define_array(&out, &[8]).unwrap();
        let mut t = LineageTable::new(1, 1);
        (0..8).for_each(|v| t.push_row(&[v, (v * (2 * k + 3) + k) % 8]));
        db.add_lineage("S", &out, &TableCapture::new(t.clone()))
            .unwrap();
        tables.push(t);
    }
    let report = db.commit().unwrap();
    assert_eq!((report.files_written, report.files_reused), (3, 0));
    let again = db.commit().unwrap();
    assert_eq!((again.files_written, again.files_reused), (0, 3));
    (db, tables)
}

/// The one segment file of `dir`.
fn only_segment(dir: &Path) -> PathBuf {
    let segments: Vec<PathBuf> = (std::fs::read_dir(dir).unwrap().flatten())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("segment-")
        })
        .collect();
    assert_eq!(segments.len(), 1, "{segments:?}");
    segments.into_iter().next().unwrap()
}

/// `dir` verifies, and a reopened database answers every cell of every
/// `T{k}` backward as the raw relations do, eager and lazy.
fn assert_reopens_as_the_oracle(dir: &Path, tables: &[LineageTable]) {
    persist::verify(dir).unwrap();
    for lazy in [false, true] {
        let db = Dslog::options().lazy(lazy).open(dir).unwrap();
        for (k, t) in tables.iter().enumerate() {
            let out = format!("T{k}");
            for v in 0..8 {
                let got = db.prov_query(&[&out, "S"], &[vec![v]]).unwrap();
                let cells = [vec![v]].into_iter().collect();
                let want = reference::step(&cells, t, Orientation::Backward);
                assert_eq!(got.cells.cell_set(), want, "lazy {lazy}, {out} cell {v}");
            }
        }
    }
}

/// A policy that only counts gated IOs until it is re-armed.
fn idle_policy() -> Arc<IoPolicy> {
    IoPolicy::fail_at(IoFault::WriteError, u64::MAX)
}

/// Cut one byte off `segment`.
fn truncate_by_one(segment: &Path) {
    let len = std::fs::metadata(segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(segment)
        .unwrap();
    file.set_len(len - 1).unwrap();
}

/// Fail the next commit of `db` at its first gated IO — the log append of
/// a commit with nothing to write, so nothing reaches the directory — and
/// lift the fault. The handle no longer trusts the tail it remembers: its
/// next commit rebuilds the tail from the directory.
fn fail_one_commit(db: &Dslog, policy: &IoPolicy) {
    policy.rearm(1);
    assert!(db.commit().is_err());
    policy.rearm(u64::MAX);
}

/// A commit that cannot trust its remembered tail (here: the one after a
/// failed commit) writes a checkpoint, `stat`s each referenced segment once
/// and holds every clean range against that length: cut one byte off a
/// segment of three ranges and only its last range stops fitting — that
/// edge, and only it, is rewritten from memory.
#[test]
fn commit_rewrites_only_the_range_a_truncated_segment_lost() {
    let dir = temp_dir("rebuilt-truncate");
    let policy = idle_policy();
    let (db, tables) = three_edges_in_one_segment(&dir, &policy);
    truncate_by_one(&only_segment(&dir));
    fail_one_commit(&db, &policy);
    let report = db.commit().unwrap();
    assert_eq!((report.files_written, report.files_reused), (1, 2));
    drop(db);
    assert_reopens_as_the_oracle(&dir, &tables);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A deleted segment fails the guard for every range it held: the commit
/// on a rebuilt tail rewrites all of them.
#[test]
fn commit_rewrites_every_range_of_a_deleted_segment() {
    let dir = temp_dir("rebuilt-delete");
    let policy = idle_policy();
    let (db, tables) = three_edges_in_one_segment(&dir, &policy);
    std::fs::remove_file(only_segment(&dir)).unwrap();
    fail_one_commit(&db, &policy);
    let report = db.commit().unwrap();
    assert_eq!((report.files_written, report.files_reused), (3, 0));
    drop(db);
    assert_reopens_as_the_oracle(&dir, &tables);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A commit on the tail it trusts reads nothing back: it visits the edges
/// it changes and `stat`s no clean segment, so a segment cut short or
/// deleted behind the handle's back is what `verify` and the next open
/// report — and the handle's compaction, which rewrites every table from
/// memory, makes the directory whole again.
#[test]
fn compaction_rewrites_the_ranges_lost_behind_the_handle() {
    for damage in ["truncate", "delete"] {
        let dir = temp_dir(&format!("seg-{damage}"));
        let (db, tables) = three_edges_in_one_segment(&dir, &idle_policy());
        let segment = only_segment(&dir);
        if damage == "truncate" {
            truncate_by_one(&segment);
        } else {
            std::fs::remove_file(&segment).unwrap();
        }
        let report = db.commit().unwrap();
        assert_eq!((report.files_written, report.files_reused), (0, 3));
        assert!(persist::verify(&dir).is_err(), "{damage}");
        let report = db.compact().unwrap();
        assert_eq!((report.files_written, report.files_reused), (3, 0));
        drop(db);
        assert_reopens_as_the_oracle(&dir, &tables);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Complete `DSLGDB3` catalog bytes as the build before logs were the
/// database wrote them: arrays `P` and `Q` of 6 cells, generation 1, and
/// the edge `P -> Q`'s backward table at the start of `segment-0.g1.seg`.
fn head_catalog(table: &[u8]) -> Vec<u8> {
    let mut catalog = b"DSLGDB3\0".to_vec();
    catalog.extend_from_slice(b"\x00\x01\x02\x01P\x01\x06\x01Q\x01\x06\x01\x01P\x01Q\x01");
    catalog.push(16);
    catalog.extend_from_slice(b"segment-0.g1.seg");
    write_uvarint(&mut catalog, table.len() as u64);
    catalog.extend_from_slice(&body_crc(table).to_le_bytes());
    write_uvarint(&mut catalog, table.len() as u64);
    write_uvarint(&mut catalog, 0);
    let crc = crc32(&catalog);
    catalog.extend_from_slice(&crc.to_le_bytes());
    catalog
}

/// The crc this build records for a plain table: its body crc, the trailer
/// its bytes end in.
fn body_crc(table: &[u8]) -> u32 {
    u32::from_le_bytes(table[table.len() - 4..].try_into().unwrap())
}

/// The relation `P -> Q` (`i <- (i + 1) % 6`) and its table stored in
/// `orientation`, serialized.
fn one_edge_table(orientation: Orientation) -> (LineageTable, Vec<u8>) {
    let mut t = LineageTable::new(1, 1);
    (0..6).for_each(|i| t.push_row(&[i, (i + 1) % 6]));
    let table = dslog::provrc::compress(&t, &[6], &[6], orientation);
    (t, format::serialize(&table))
}

/// A database at `dir` with one table `P -> Q` at the start of
/// `segment-0.g1.seg`, generation 1, as this build writes it: a log whose
/// checkpoint records the table, stored in `orientation`, with the crc
/// `crc` gives its bytes, closed by its commit. Returns the relation.
fn one_edge_directory(dir: &Path, crc: fn(&[u8]) -> u32, orientation: Orientation) -> LineageTable {
    let (t, bytes) = one_edge_table(orientation);
    let mut checkpoint = b"\x00\x01\x02\x01P\x01\x06\x01Q\x01\x06\x01\x01P\x01Q".to_vec();
    checkpoint.push(16);
    checkpoint.extend_from_slice(b"segment-0.g1.seg");
    write_uvarint(&mut checkpoint, bytes.len() as u64);
    checkpoint.extend_from_slice(&crc(&bytes).to_le_bytes());
    write_uvarint(&mut checkpoint, bytes.len() as u64);
    write_uvarint(&mut checkpoint, 0);
    let log = [frame(1, (0, 0), 9, &checkpoint).0, checkpoint_commit(2, 1)];
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("segment-0.g1.seg"), &bytes).unwrap();
    std::fs::write(dir.join("ops.log"), log.concat()).unwrap();
    t
}

/// The same database as an earlier build wrote it: the `DSLGDB3` catalog
/// beside a log of the records that built it, closed by a commit record of
/// kind `kind` naming the catalog by length and crc trailer — 6 as builds
/// whose every commit rewrote the catalog logged it, 7 as the build before
/// logs were the database did. Returns the relation.
fn older_directory(dir: &Path, kind: u8) -> LineageTable {
    use dslog::storage::wal::{self, OpKind, OpRecord};
    let (t, bytes) = one_edge_table(Orientation::Backward);
    let catalog = head_catalog(&bytes);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("segment-0.g1.seg"), &bytes).unwrap();
    std::fs::write(dir.join("catalog.dsl"), &catalog).unwrap();
    let record = |op_id: u64, kind: OpKind| {
        wal::encode_record(&OpRecord {
            op_id,
            timestamp_ms: 1_700_000_000_000,
            actor: "cli".into(),
            gen_before: 0,
            gen_after: 0,
            kind,
        })
    };
    let define = |name: &str| OpKind::DefineArray {
        name: name.into(),
        shape: vec![6],
    };
    let ingest = OpKind::IngestEdge {
        in_array: "P".into(),
        out_array: "Q".into(),
        bytes: bytes.len() as u64,
        digest: body_crc(&bytes),
    };
    let mut commit = Vec::new();
    write_uvarint(&mut commit, catalog.len() as u64);
    commit.extend_from_slice(&catalog[catalog.len() - 4..]);
    if kind == 7 {
        commit.extend_from_slice(&[0, 1, 0]); // no segment, retained from 1, no tables
    }
    let log = [
        record(1, define("P")),
        record(2, define("Q")),
        record(3, ingest),
        frame(4, (0, 1), kind, &commit).0,
    ];
    std::fs::write(dir.join(wal::OPS_LOG_FILE), log.concat()).unwrap();
    t
}

/// A directory in a form only earlier builds wrote is refused with a typed
/// `Corrupt` by an eager, a lazy (on its first query, for a form only
/// reading a table shows) and an `as_of` open and by `verify`, and is left
/// byte for byte as it was — by a lazy open on its own too, which refuses
/// every form but the ones its first query shows. The forms: a log holding
/// a kind-6 commit record; the layout of the build before logs were the
/// database (a `DSLGDB3` checkpoint file, its log's kind-7 commit naming
/// it); a checkpoint naming a table stored forward; and a plain table
/// recorded with the crc32 of its whole range. Each directory built the
/// way this build writes opens and answers instead. (`dslog ingest` and
/// `serve` refuse the same forms: see the CLI's
/// `directory_of_an_older_shape_is_refused_and_left_alone`.)
#[test]
fn a_directory_of_a_retired_dialect_is_refused_and_left_alone() {
    type Build = fn(&Path, bool) -> LineageTable;
    let forms: [(&str, Build, &str); 4] = [
        (
            "kind-6",
            |dir, retired| match retired {
                true => older_directory(dir, 6),
                false => one_edge_directory(dir, body_crc, Orientation::Backward),
            },
            "retired log record kind",
        ),
        (
            "head",
            |dir, retired| match retired {
                true => older_directory(dir, 7),
                false => one_edge_directory(dir, body_crc, Orientation::Backward),
            },
            "retired log record kind",
        ),
        (
            "forward-table",
            |dir, retired| {
                let kept = if retired {
                    Orientation::Forward
                } else {
                    Orientation::Backward
                };
                one_edge_directory(dir, body_crc, kept)
            },
            "edge file orientation mismatch",
        ),
        (
            "residue",
            |dir, retired| {
                one_edge_directory(
                    dir,
                    if retired { crc32 } else { body_crc },
                    Orientation::Backward,
                )
            },
            "edge file checksum mismatch",
        ),
    ];
    let path = ["Q", "P"];
    for (tag, build, refusal) in forms {
        let routes = |dir: &Path, cell: &[i64]| {
            let first_query = |db: Dslog| db.prov_query(&path, &[cell.to_vec()]).map(drop);
            [
                Dslog::options().open(dir).map(drop),
                Dslog::options().lazy(true).open(dir).and_then(first_query),
                Dslog::options().as_of(1).open(dir).map(drop),
                persist::verify(dir).map(drop),
            ]
        };
        let dir = temp_dir(&format!("retired-{tag}"));
        let t = build(&dir, true);
        let cell = vec![1; t.out_arity()];
        let before = dir_files(&dir);
        let lazy_alone = Dslog::options().lazy(true).open(&dir).map(drop);
        let shown_by_query = tag == "residue" || tag == "forward-table";
        assert_eq!(lazy_alone.is_ok(), shown_by_query, "{tag}: {lazy_alone:?}");
        assert_eq!(dir_files(&dir), before, "{tag}: a lazy open changed it");
        for result in routes(&dir, &cell) {
            assert_eq!(result, Err(DslogError::Corrupt(refusal)), "{tag}");
        }
        assert_eq!(dir_files(&dir), before, "{tag}: the directory changed");
        std::fs::remove_dir_all(&dir).unwrap();

        build(&dir, false);
        for result in routes(&dir, &cell) {
            assert_eq!(result, Ok(()), "{tag}, as this build writes it");
        }
        let db = Dslog::options().open(&dir).unwrap();
        let got = db.prov_query(&path, std::slice::from_ref(&cell)).unwrap();
        let want = reference::step(&[cell].into_iter().collect(), &t, Orientation::Backward);
        assert_eq!(got.cells.cell_set(), want, "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
