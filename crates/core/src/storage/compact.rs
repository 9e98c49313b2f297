//! Generation compaction: a commit that reuses nothing.
//!
//! The incremental commit model accretes one segment per generation that
//! wrote tables, and a segment stays on disk — with whatever superseded
//! tables it holds — while any live or retained range in it does.
//! [`compact`] is the maintenance pass that folds them back down: the same
//! generation writer as [`persist::commit`], with reuse switched off, so
//! *every* stored table is written into the new generation's one segment,
//! the new checkpoint references nothing older, and the sweep that follows
//! every commit deletes the superseded segments — subject to the retention
//! window, so `as_of` opens keep working for retained generations. What it
//! buys is file count (one open per table read, one directory entry per
//! generation) and the dead bytes [`persist::VerifyReport::dead_bytes`]
//! counts; it costs a rewrite of the whole database.
//!
//! It replaces every range the directory's generation names, so it is a
//! checkpoint commit: segment + fdatasync, a fresh log (the checkpoint, a
//! `compact` record, the commit record) + fdatasync, the live log retired,
//! directory sync, the fresh log's rename as its one commit point,
//! directory sync, delete. It passes the same `wal::IoPolicy` gates as
//! every commit (so the fault sweeps, in-process and
//! `scripts/crash_consistency.sh` with `--crash-at-io`, kill it at each
//! one), and streams clean lazily opened slots as verified bytes without
//! decoding them.

use super::persist::{self, CommitReport};
use super::StorageManager;
use crate::error::Result;
use std::path::Path;

/// Rewrite every stored slot of `storage` into one segment at a fresh
/// generation and sweep the superseded generations' files, subject to the
/// retention window.
///
/// The manager must be *bound* to `dir` with the same `gzip` mode (opened
/// from it, or last committed into it) — compaction is in-place
/// maintenance of a live database, not a save-elsewhere. Buffered
/// operation-log records are flushed with the pass (like any commit),
/// after the new checkpoint at the head of a fresh log, followed by a
/// `compact` annotation record and the commit record.
///
/// Logical state is untouched: queries against the compacted database
/// return exactly what they did before (pinned by the proptest parity
/// suite), and `as_of` opens keep resolving every generation the
/// retention window spares.
pub fn compact(storage: &StorageManager, dir: &Path, gzip: bool) -> Result<CommitReport> {
    persist::commit_generation(storage, dir, gzip, None, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DslogError;
    use crate::storage::persist::OpenMode;
    use crate::storage::wal;
    use crate::storage::{Edge, EdgeName};
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

    /// Serialized bytes of every stored table, keyed for comparison across
    /// save/compact/reopen cycles.
    fn slot_bytes(s: &StorageManager) -> Vec<(EdgeName, Vec<u8>)> {
        let bytes = |edge: &Edge| crate::storage::format::serialize(&edge.table().unwrap());
        (s.sorted_edges().into_iter())
            .map(|(key, edge)| (key.clone(), bytes(edge)))
            .collect()
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
        assert_eq!(files_with_prefix(&dir, "segment-").len(), 3);

        let report = compact(&s, &dir, false).unwrap();
        assert_eq!((report.files_written, report.files_reused), (3, 0));

        // Default retention keeps nothing: the folded generations'
        // segments are gone, replaced by the one this pass wrote.
        assert_eq!(
            files_with_prefix(&dir, "segment-"),
            [format!("segment-0.g{}.seg", report.generation)]
        );
        let segment = dir.join(format!("segment-0.g{}.seg", report.generation));
        assert_eq!(
            std::fs::metadata(segment).unwrap().len(),
            report.bytes_written
        );

        // Eager and lazy reopens both decode identical slot content out of
        // the segment ranges.
        for mode in [OpenMode::Eager, OpenMode::Lazy] {
            let reopened = persist::open(&dir, mode).unwrap();
            assert_eq!(slot_bytes(&reopened), before);
        }

        let v = persist::verify(&dir).unwrap();
        assert_eq!(v.files_verified, 3);
        assert_eq!(v.dead_bytes, 0);
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

        // The new edge landed in a segment of its own next to the
        // compacted one, and the catalog over both opens and verifies.
        assert_eq!(files_with_prefix(&dir, "segment-").len(), 2);
        let v = persist::verify(&dir).unwrap();
        assert_eq!(v.files_verified, 4);
        let reopened = persist::open(&dir, OpenMode::Eager).unwrap();
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
        assert_eq!(second.files_written, 4);
        // The first pass's segment and the interleaved commit's are folded
        // and swept.
        assert_eq!(
            files_with_prefix(&dir, "segment-"),
            [format!("segment-0.g{}.seg", second.generation)]
        );
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
        let old = persist::open(&dir, OpenMode::AsOf(committed)).unwrap();
        assert_eq!(old.edges.len(), 3);
        let older = persist::open(&dir, OpenMode::AsOf(committed - 1)).unwrap();
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
        match persist::open(&dir, OpenMode::AsOf(committed)) {
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
        // One segment written, the three generations' segments folded.
        assert_eq!(
            compact_rec.kind,
            wal::OpKind::Compact {
                segments: 1,
                folded: 3,
                bytes: report.bytes_written
            }
        );
        // The paired commit record follows it in the same append.
        let last = records.last().unwrap();
        assert!(matches!(last.kind, wal::OpKind::Commit { .. }));
        assert_eq!(last.gen_after, report.generation);
    }
}
