//! Generation compaction: fold cold generations into consolidated
//! segments.
//!
//! The incremental commit model accretes one generation-named file per
//! dirty edge forever; [`compact`] is the LSM-style maintenance pass that
//! folds them back down. It rewrites *every* stored slot into a small
//! number of consolidated segment files (sharded by edge-id hash), writes
//! a crc32-trailed **manifest** recording the live range of each edge
//! inside those segments, commits a v3 catalog whose references are
//! `(segment, offset, len)` ranges, and then sweeps the superseded
//! generation files — subject to the WAL time-travel retention window, so
//! `as_of` opens keep working for retained generations.
//!
//! ## Durability
//!
//! Compaction mirrors [`super::persist::commit`]'s ordering exactly:
//! segments and manifest are written atomically (temp + fdatasync +
//! rename) and made durable with a directory sync *before* the operation
//! log records the pass, the log is fdatasynced *before* the catalog
//! rename, and the catalog rename remains the single commit point. A
//! crash at any earlier step leaves the previous snapshot fully intact;
//! a crash after the rename but before the sweep leaves only spared-or-
//! stale debris that the next open/commit sweeps with the same shared
//! sparing rule (`persist::is_spared`) — never a file the live
//! catalog or the retained time-travel window still references. Every
//! write and sync of the pass goes through the same `wal::IoPolicy` gates
//! as a commit's, so the fault sweeps (in-process, and
//! `scripts/crash_consistency.sh` with `--crash-at-io`) kill it at each
//! one.
//!
//! Slot bytes are gathered without decoding: clean lazily opened slots
//! stream their verified on-disk bytes straight into a segment, so
//! compacting a lazily opened database never pays a decompress+recompress
//! of tables no query touched.

use super::persist::{
    self, edge_shard, manifest_file_name, segment_file_name, write_atomic, Catalog, CommitSession,
    PlannedEdge, WrittenSlot,
};
use super::wal;
use super::wire::{read_string, read_u32_le, write_string};
use super::{FileRecord, StorageManager, TableSource};
use crate::error::{DslogError, Result};
use crate::table::Orientation;
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use std::collections::HashSet;
use std::path::Path;

const MANIFEST_MAGIC: &[u8; 8] = b"DSLGMF1\0";

/// Cap on segment files per compaction pass. Small consolidated files are
/// the whole point; the shard count only needs to be large enough that
/// parallel open can spread range reads across files.
const MAX_SEGMENTS: usize = 8;

/// What one [`compact`] pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Generation of the newly committed (compacted) catalog.
    pub generation: u64,
    /// Consolidated segment files written.
    pub segments_written: usize,
    /// Distinct files the previous catalog referenced — the ones this
    /// pass folded (they stay on disk while retained by the WAL window).
    pub files_folded: usize,
    /// Live ranges recorded in the manifest (one per stored slot).
    pub ranges: usize,
    /// Total segment bytes written (excludes manifest and catalog).
    pub bytes_written: u64,
}

/// One live range recorded by the manifest.
struct ManifestEntry {
    in_name: String,
    out_name: String,
    orientation: Orientation,
    /// Index into the manifest's segment list.
    segment: usize,
    offset: u64,
    len: u64,
    crc: u32,
    raw_len: u64,
}

/// Serialize the manifest: segment list (name, byte length, crc32 of the
/// whole file), then one entry per live range, with a crc32 trailer.
fn build_manifest_bytes(
    gen: u64,
    segments: &[(String, Vec<u8>)],
    entries: &[ManifestEntry],
) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MANIFEST_MAGIC);
    write_uvarint(&mut buf, gen);
    write_uvarint(&mut buf, segments.len() as u64);
    for (name, bytes) in segments {
        write_string(&mut buf, name);
        write_uvarint(&mut buf, bytes.len() as u64);
        buf.extend_from_slice(&crc32(bytes).to_le_bytes());
    }
    write_uvarint(&mut buf, entries.len() as u64);
    for e in entries {
        write_string(&mut buf, &e.in_name);
        write_string(&mut buf, &e.out_name);
        buf.push(match e.orientation {
            Orientation::Backward => 0,
            Orientation::Forward => 1,
        });
        write_uvarint(&mut buf, e.segment as u64);
        write_uvarint(&mut buf, e.offset);
        write_uvarint(&mut buf, e.len);
        buf.extend_from_slice(&e.crc.to_le_bytes());
        write_uvarint(&mut buf, e.raw_len);
    }
    let trailer = crc32(&buf);
    buf.extend_from_slice(&trailer.to_le_bytes());
    buf
}

/// A parsed compaction manifest.
struct Manifest {
    generation: u64,
    /// `(segment file name, byte length, crc32)`.
    segments: Vec<(String, u64, u32)>,
    entries: Vec<ManifestEntry>,
}

/// Decode and structurally validate manifest bytes (untrusted input: crc
/// trailer first, then every count bounded by the bytes actually left).
fn parse_manifest(data: &[u8]) -> Result<Manifest> {
    let Some((body, trailer)) = data.split_last_chunk::<4>().filter(|_| data.len() >= 13) else {
        return Err(DslogError::Corrupt("manifest too short"));
    };
    if crc32(body) != u32::from_le_bytes(*trailer) {
        return Err(DslogError::Corrupt("manifest checksum mismatch"));
    }
    if &body[..8] != MANIFEST_MAGIC {
        return Err(DslogError::Corrupt("bad manifest magic"));
    }
    let mut pos = 8usize;
    let generation = read_uvarint(body, &mut pos)?;
    let n_segments = read_uvarint(body, &mut pos)? as usize;
    // Each segment record needs at least 6 bytes; bound the pre-allocation
    // by what the input could possibly still encode.
    if n_segments > body.len() - pos {
        return Err(DslogError::Corrupt("manifest segment count exceeds size"));
    }
    let mut segments = Vec::with_capacity(n_segments);
    for _ in 0..n_segments {
        let name = read_string(body, &mut pos)?;
        if !name.starts_with("segment-")
            || name.contains('/')
            || name.contains('\\')
            || name.ends_with(".tmp")
        {
            return Err(DslogError::Corrupt(
                "manifest references an illegal segment name",
            ));
        }
        let len = read_uvarint(body, &mut pos)?;
        let crc = read_u32_le(body, &mut pos)?;
        segments.push((name, len, crc));
    }
    let n_entries = read_uvarint(body, &mut pos)? as usize;
    if n_entries > body.len() - pos {
        return Err(DslogError::Corrupt("manifest entry count exceeds size"));
    }
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let in_name = read_string(body, &mut pos)?;
        let out_name = read_string(body, &mut pos)?;
        let orientation = match body.get(pos) {
            Some(0) => Orientation::Backward,
            Some(1) => Orientation::Forward,
            _ => return Err(DslogError::Corrupt("bad manifest orientation")),
        };
        pos += 1;
        let segment = read_uvarint(body, &mut pos)? as usize;
        if segment >= segments.len() {
            return Err(DslogError::Corrupt("manifest entry names no segment"));
        }
        let offset = read_uvarint(body, &mut pos)?;
        let len = read_uvarint(body, &mut pos)?;
        let crc = read_u32_le(body, &mut pos)?;
        let raw_len = read_uvarint(body, &mut pos)?;
        entries.push(ManifestEntry {
            in_name,
            out_name,
            orientation,
            segment,
            offset,
            len,
            crc,
            raw_len,
        });
    }
    if pos != body.len() {
        return Err(DslogError::Corrupt("manifest has trailing bytes"));
    }
    Ok(Manifest {
        generation,
        segments,
        entries,
    })
}

/// Verify the manifest of compaction generation `gen` against the live
/// catalog: the manifest decodes (crc-trailed), every segment file it
/// names exists with its recorded length and crc32, and every segment
/// range the catalog references is recorded as a live range with
/// identical `(offset, len, crc, raw_len)`. Used by `persist::verify`.
pub(crate) fn verify_manifest(dir: &Path, gen: u64, catalog: &Catalog) -> Result<()> {
    let path = dir.join(manifest_file_name(gen));
    let bytes = std::fs::read(&path).map_err(|e| DslogError::io("read compaction manifest", e))?;
    let manifest = parse_manifest(&bytes)?;
    if manifest.generation != gen {
        return Err(DslogError::Corrupt("manifest generation mismatch"));
    }
    for (name, len, crc) in &manifest.segments {
        let seg =
            std::fs::read(dir.join(name)).map_err(|e| DslogError::io("read segment file", e))?;
        if seg.len() as u64 != *len {
            return Err(DslogError::Corrupt("segment file length mismatch"));
        }
        if crc32(&seg) != *crc {
            return Err(DslogError::Corrupt("segment file checksum mismatch"));
        }
    }
    // Index the manifest's ranges, then require every catalog segment ref
    // of this generation to match one exactly. (The manifest may record
    // ranges that are no longer live — edges re-ingested since the pass —
    // which is fine: dead ranges are just unreclaimed space.)
    let ranges: HashSet<(&str, Orientation, u64, u64, u32, u64)> = manifest
        .entries
        .iter()
        .map(|e| {
            let seg_name = manifest.segments[e.segment].0.as_str();
            (seg_name, e.orientation, e.offset, e.len, e.crc, e.raw_len)
        })
        .collect();
    for entry in &catalog.edges {
        for fref in &entry.files {
            let record = &fref.record;
            let Some(offset) = record.offset else {
                continue;
            };
            if persist::parse_generation(&record.name) != Some(gen) {
                continue;
            }
            let range = (
                record.name.as_str(),
                fref.orientation,
                offset,
                record.len,
                record.crc,
                record.raw_len,
            );
            if !ranges.contains(&range) {
                return Err(DslogError::Corrupt(
                    "catalog segment range not recorded by the manifest",
                ));
            }
        }
    }
    Ok(())
}

/// Fold every stored slot of `storage` into consolidated segment files at
/// a fresh generation, write the manifest, commit a v3 catalog, and sweep
/// superseded generation files subject to the WAL retention window.
///
/// The manager must be *bound* to `dir` with the same `gzip` mode (opened
/// from it, or last committed into it) — compaction is in-place
/// maintenance of a live database, not a save-elsewhere. Buffered
/// operation-log records are flushed with the pass (like any commit),
/// followed by a `compact` annotation record and the commit record.
///
/// Logical state is untouched: queries against the compacted database
/// return exactly what they did before (pinned by the proptest parity
/// suite), and `as_of` opens keep resolving every generation the
/// retention window spares.
pub fn compact(storage: &StorageManager, dir: &Path, gzip: bool) -> Result<CompactReport> {
    compact_as(storage, dir, gzip, None)
}

/// [`compact`], its records logged under `actor` (`None`: the manager's
/// configured one).
pub(crate) fn compact_as(
    storage: &StorageManager,
    dir: &Path,
    gzip: bool,
    actor: Option<&str>,
) -> Result<CompactReport> {
    let dir = dir
        .canonicalize()
        .map_err(|e| DslogError::io("canonicalize database dir", e))?;
    // Same session as `commit`: compaction is a commit, under the same
    // lock and rank, ending in the same log append and catalog rename.
    let session = CommitSession::begin(storage, dir, gzip, actor);
    if !session.incremental {
        return Err(DslogError::NotBound);
    }
    let gen = session.gen;
    // What the previous catalog referenced = what this pass folds.
    let files_folded = session.live_files();

    // Gather every slot's bytes (sorted keys for deterministic layout)
    // and append each blob to its hash-assigned segment. Blobs are
    // compressed individually, so a range decompresses independently of
    // its neighbors — the same bytes a standalone edge file would hold.
    let mut keys: Vec<&(String, String)> = storage.edges.keys().collect();
    keys.sort();
    let n_slots_max = keys.len() * 2;
    let shards = (n_slots_max / 16 + 1).clamp(1, MAX_SEGMENTS);
    let mut segment_bufs: Vec<Vec<u8>> = (0..shards).map(|_| Vec::new()).collect();
    let mut entries: Vec<ManifestEntry> = Vec::new();
    let mut planned: Vec<PlannedEdge<'_>> = Vec::with_capacity(keys.len());
    let mut written: Vec<WrittenSlot<'_>> = Vec::new();
    for key in &keys {
        let edge = &storage.edges[*key];
        let shard = edge_shard(&key.0, &key.1, shards);
        let mut mask = 0u8;
        let mut records = Vec::with_capacity(2);
        for (bit, orientation) in [(1u8, Orientation::Backward), (2u8, Orientation::Forward)] {
            let (source, _persisted) = edge.snapshot(orientation);
            let Some(source) = source else { continue };
            // No decode: loaded tables serialize, lazy slots stream their
            // verified bytes (whole file or live range) straight through.
            let plain = match source {
                TableSource::Loaded(t) => super::format::serialize(&t),
                TableSource::OnDisk(d) => d.read_plain_bytes()?,
            };
            let raw_len = plain.len() as u64;
            let blob = if gzip {
                dslog_codecs::gzip::compress(&plain)
            } else {
                plain
            };
            let buf = &mut segment_bufs[shard];
            let offset = buf.len() as u64;
            buf.extend_from_slice(&blob);
            let record = FileRecord {
                name: segment_file_name(shard, gen),
                len: blob.len() as u64,
                crc: crc32(&blob),
                raw_len,
                offset: Some(offset),
            };
            entries.push(ManifestEntry {
                in_name: key.0.clone(),
                out_name: key.1.clone(),
                orientation,
                segment: shard,
                offset,
                len: record.len,
                crc: record.crc,
                raw_len,
            });
            mask |= bit;
            written.push((*key, orientation, record.clone()));
            records.push(record);
        }
        if mask == 0 {
            return Err(DslogError::Corrupt("edge with no stored orientation"));
        }
        planned.push((*key, mask, records));
    }

    // Drop empty shards from the manifest (renumbering would break the
    // hash assignment, so keep names; just skip writing nothing).
    let segments: Vec<(String, Vec<u8>)> = segment_bufs
        .into_iter()
        .enumerate()
        .filter(|(_, buf)| !buf.is_empty())
        .map(|(shard, buf)| (segment_file_name(shard, gen), buf))
        .collect();
    // Remap entry segment indexes to the compacted list.
    let index_of: std::collections::HashMap<&str, usize> = segments
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), i))
        .collect();
    for e in &mut entries {
        let name = segment_file_name(e.segment, gen);
        e.segment = *index_of
            .get(name.as_str())
            .ok_or(DslogError::Corrupt("manifest entry names no segment"))?;
    }

    // Write segments, then the manifest, each an atomic temp+sync+rename.
    let mut bytes_written = 0u64;
    for (name, bytes) in &segments {
        write_atomic(
            &session.dir.join(name),
            bytes,
            "write segment file",
            storage.io_policy.as_deref(),
        )?;
        bytes_written += bytes.len() as u64;
    }
    let manifest = build_manifest_bytes(gen, &segments, &entries);
    write_atomic(
        &session.dir.join(manifest_file_name(gen)),
        &manifest,
        "write compaction manifest",
        storage.io_policy.as_deref(),
    )?;

    // The shared commit tail: directory sync, buffered log records + this
    // annotation + the commit record, catalog rename (the commit point),
    // directory sync, and the sweep of superseded generations with the
    // shared sparing rule — the new segments/manifest stay, plus
    // everything the retention window still names for `as_of` opens.
    let annotation = wal::OpKind::Compact {
        segments: segments.len() as u64,
        folded: files_folded as u64,
        bytes: bytes_written,
    };
    session.finish(&planned, written, Some(annotation))?;

    Ok(CompactReport {
        generation: gen,
        segments_written: segments.len(),
        files_folded,
        ranges: entries.len(),
        bytes_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::persist::OpenMode;
    use crate::table::LineageTable;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dslog-compact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn add_edge(s: &mut StorageManager, tag: usize) {
        let x = format!("X{tag}");
        let y = format!("Y{tag}");
        s.define_array(&x, &[4]).unwrap();
        s.define_array(&y, &[4]).unwrap();
        let mut t = LineageTable::new(1, 1);
        for i in 0..4 {
            t.push_row(&[i, (i + tag as i64) % 4]);
        }
        s.ingest_lineage(&x, &y, &t).unwrap();
    }

    fn files_with_prefix(dir: &Path, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .filter(|n| n.starts_with(prefix))
            .collect();
        names.sort();
        names
    }

    /// Serialized bytes of every stored slot, keyed for comparison across
    /// save/compact/reopen cycles.
    fn slot_bytes(s: &StorageManager) -> Vec<((String, String), u8, Vec<u8>)> {
        let mut keys: Vec<&(String, String)> = s.edges.keys().collect();
        keys.sort();
        let mut out = Vec::new();
        for key in keys {
            for (tag, orientation) in [(0u8, Orientation::Backward), (1u8, Orientation::Forward)] {
                if let Some(t) = s.edges[key].stored(orientation, false).unwrap() {
                    out.push((key.clone(), tag, crate::storage::format::serialize(&t)));
                }
            }
        }
        out
    }

    /// Three edges across three committed generations, bound to `dir`.
    fn multi_generation_db(dir: &Path) -> StorageManager {
        let mut s = StorageManager::new();
        for tag in 0..3 {
            add_edge(&mut s, tag);
            persist::commit(&s, dir, false).unwrap();
        }
        s
    }

    #[test]
    fn compact_folds_generations_and_preserves_content() {
        let dir = temp_dir("fold");
        let s = multi_generation_db(&dir);
        let before = slot_bytes(&s);
        assert_eq!(files_with_prefix(&dir, "edge-").len(), 3);

        let report = compact(&s, &dir, false).unwrap();
        assert_eq!(report.ranges, 3);
        assert_eq!(report.files_folded, 3);
        assert!(report.segments_written >= 1);

        // Default retention keeps nothing: the folded generation files are
        // gone, replaced by segments and a manifest.
        assert_eq!(files_with_prefix(&dir, "edge-"), Vec::<String>::new());
        assert_eq!(
            files_with_prefix(&dir, "segment-").len(),
            report.segments_written
        );
        assert_eq!(files_with_prefix(&dir, "manifest.").len(), 1);

        // Eager and lazy reopens both decode identical slot content out of
        // the segment ranges.
        for mode in [OpenMode::Eager, OpenMode::Lazy] {
            let reopened = persist::open(&dir, mode, None).unwrap();
            assert_eq!(slot_bytes(&reopened), before);
        }

        let v = persist::verify(&dir).unwrap();
        assert_eq!(v.catalog_version, 3);
        assert_eq!(v.files_verified, 3);
        assert_eq!(v.manifests_verified, 1);
        assert!(v.stale_files.is_empty());
    }

    #[test]
    fn incremental_commit_after_compact_reuses_segment_ranges() {
        let dir = temp_dir("reuse");
        let mut s = multi_generation_db(&dir);
        compact(&s, &dir, false).unwrap();

        add_edge(&mut s, 7);
        let report = persist::commit(&s, &dir, false).unwrap();
        assert!(report.incremental);
        assert_eq!((report.files_written, report.files_reused), (1, 3));

        // The new edge landed as a whole file next to the live segments,
        // and the mixed catalog still opens and verifies.
        assert_eq!(files_with_prefix(&dir, "edge-").len(), 1);
        let v = persist::verify(&dir).unwrap();
        assert_eq!(v.catalog_version, 3);
        assert_eq!(v.files_verified, 4);
        let reopened = persist::open(&dir, OpenMode::Eager, None).unwrap();
        assert_eq!(slot_bytes(&reopened), slot_bytes(&s));
    }

    #[test]
    fn compacting_twice_folds_segments_into_fresh_ones() {
        let dir = temp_dir("twice");
        let mut s = multi_generation_db(&dir);
        let first = compact(&s, &dir, false).unwrap();
        add_edge(&mut s, 9);
        persist::commit(&s, &dir, false).unwrap();
        let second = compact(&s, &dir, false).unwrap();
        assert!(second.generation > first.generation);
        assert_eq!(second.ranges, 4);
        // Old segments + the interleaved edge file are folded and swept.
        for name in files_with_prefix(&dir, "segment-") {
            assert_eq!(
                persist::parse_generation(&name),
                Some(second.generation),
                "stale segment survived: {name}"
            );
        }
        assert_eq!(files_with_prefix(&dir, "edge-"), Vec::<String>::new());
        assert_eq!(files_with_prefix(&dir, "manifest.").len(), 1);
        persist::verify(&dir).unwrap();
    }

    #[test]
    fn retention_window_survives_compaction_for_as_of() {
        let dir = temp_dir("retain");
        let mut s = StorageManager::new();
        s.retain = 8;
        for tag in 0..3 {
            add_edge(&mut s, tag);
            persist::commit(&s, &dir, false).unwrap();
        }
        let committed = s.persist_binding().unwrap().2;
        compact(&s, &dir, false).unwrap();

        // Retained prior generations still resolve, with their content.
        let old = persist::open(&dir, OpenMode::AsOf(committed), None).unwrap();
        assert_eq!(old.edges.len(), 3);
        let older = persist::open(&dir, OpenMode::AsOf(committed - 1), None).unwrap();
        assert_eq!(older.edges.len(), 2);
        // And verify classifies their files as retained, not stale.
        let v = persist::verify(&dir).unwrap();
        assert!(v.stale_files.is_empty());
        assert!(v.retained_files >= 3);
    }

    #[test]
    fn unretained_generation_is_reclaimed_by_compaction() {
        let dir = temp_dir("reclaim");
        let s = multi_generation_db(&dir);
        let committed = s.persist_binding().unwrap().2;
        compact(&s, &dir, false).unwrap();
        // Default retention = 0: the pre-compaction generation's files are
        // gone, so time travel to it reports GenerationNotRetained.
        match persist::open(&dir, OpenMode::AsOf(committed), None) {
            Err(DslogError::GenerationNotRetained(g)) => assert_eq!(g, committed),
            other => panic!("expected GenerationNotRetained, got {other:?}"),
        }
    }

    #[test]
    fn compact_requires_a_bound_manager() {
        let dir = temp_dir("unbound");
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = StorageManager::new();
        add_edge(&mut s, 0);
        match compact(&s, &dir, false) {
            Err(DslogError::NotBound) => {}
            other => panic!("expected NotBound, got {other:?}"),
        }
    }

    #[test]
    fn compact_flushes_pending_log_records_and_annotates() {
        let dir = temp_dir("log");
        let s = multi_generation_db(&dir);
        let report = compact(&s, &dir, false).unwrap();
        let records = wal::history(&dir).unwrap();
        let compact_rec = records
            .iter()
            .find(|r| matches!(r.kind, wal::OpKind::Compact { .. }))
            .expect("compaction should be logged");
        match &compact_rec.kind {
            wal::OpKind::Compact {
                segments, folded, ..
            } => {
                assert_eq!(*segments, report.segments_written as u64);
                assert_eq!(*folded, report.files_folded as u64);
            }
            _ => unreachable!(),
        }
        // The paired commit record follows it in the same append.
        let last = records.last().unwrap();
        assert!(matches!(last.kind, wal::OpKind::Commit { .. }));
        assert_eq!(last.gen_after, report.generation);
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let segments = vec![("segment-0.g4.seg".to_string(), vec![1u8, 2, 3, 4, 5])];
        let entries = vec![ManifestEntry {
            in_name: "A".into(),
            out_name: "B".into(),
            orientation: Orientation::Backward,
            segment: 0,
            offset: 0,
            len: 5,
            crc: crc32(&[1, 2, 3, 4, 5]),
            raw_len: 5,
        }];
        let bytes = build_manifest_bytes(4, &segments, &entries);
        let parsed = parse_manifest(&bytes).unwrap();
        assert_eq!(parsed.generation, 4);
        assert_eq!(parsed.segments.len(), 1);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].len, 5);

        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(parse_manifest(&bad).is_err(), "corruption at {i} accepted");
        }
        assert!(parse_manifest(&bytes[..bytes.len() - 1]).is_err());
    }
}
