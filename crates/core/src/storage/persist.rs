//! Directory-backed persistence for the storage manager.
//!
//! The paper serves its compressed lineage tables from files on disk
//! ("We measured the file size of the database files that were ultimately
//! served to DuckDB", §VII.C); this module gives DSLog the same durable
//! form. A database directory holds one catalog file plus one segment
//! file per generation that wrote tables:
//!
//! ```text
//! <dir>/
//!   catalog.dsl         catalog: arrays + edges + per edge its table's
//!                       orientation and range (segment name, byte offset,
//!                       byte length), its crc32 and plain serialized
//!                       length, with its own crc32 trailer (hand-rolled
//!                       binary, magic `DSLGDB3`)
//!   segment-0.g<g>.seg  the tables generation g wrote, back to back
//!   ops.log             the operation log (see [`super::wal`])
//!   catalog.g<g>.dsl    the catalog generation g was live as, kept (a
//!                       hard link made by the commit that superseded it)
//!                       while the retention window keeps g
//! ```
//!
//! That is the one shape read as well as written. A catalog of any other
//! version is refused with `Corrupt("unsupported catalog version")`, and
//! one naming any file but a `segment-*` with
//! `Corrupt("catalog references an illegal file name")`; either refusal
//! comes before anything in the directory is touched.
//!
//! ## Atomicity
//!
//! [`commit`] (and its thin wrapper [`save`]) is crash-safe: every file is
//! written to a `.tmp` sibling, fsynced, and `rename`d into place, a
//! segment carries a fresh generation number so it never overwrites a file
//! the live catalog references, and the catalog rename is the single
//! commit point. The ordering is segment → directory sync → log append +
//! fdatasync → catalog rename → directory sync → delete (the directory is
//! synced before the commit so the segment rename cannot reorder after it,
//! and again after it before old files go) — a crash at any earlier step
//! leaves the previous snapshot fully intact (plus harmless debris that
//! the next [`open`] sweeps). After the commit, every file
//! that only a generation leaving the retention window named is deleted,
//! so shrinking the edge set or flipping the `gzip` flag cannot leave
//! stale tables for a later `open` to trip over. Every write
//! and sync on the way passes the manager's [`wal::IoPolicy`] (the one
//! fault injector), if one was installed.
//!
//! ## The remembered tail
//!
//! A commit into the bound directory reads back nothing this manager
//! wrote itself. The binding carries a `wal::LogTail` — the log's clean
//! length and last op id, the generation the next commit takes, the live
//! catalog's byte length, and the file sets of the live and retained
//! generations — shared by every epoch clone, built once by
//! [`open`] (or the first commit) through `load_tail`, and
//! advanced by every successful [`commit`] and
//! [`compact`](super::compact::compact). So a commit appends to the log
//! without scanning it, takes its generation without listing the
//! directory, and deletes exactly the files the generation leaving the
//! window pinned, decided by the one sparing rule, `is_spared`. The tail
//! is taken at the start of a commit and put back only on success, and it
//! is believed only while `ops.log`'s on-disk length and the live
//! catalog's header (generation) and length are what it remembers;
//! otherwise — an unbound or foreign target, a failed commit, a directory
//! changed from outside — the commit runs `load_tail` again, exactly as an
//! open would, and sweeps by listing the directory when it is done. There
//! is one commit path: "tail missing or stale" only decides where the
//! tail comes from.
//!
//! ## Incremental commits
//!
//! Committing into the directory the manager is *bound* to (the one it was
//! opened from, or last committed into, with the same `gzip` mode) is
//! incremental: only slots whose content changed since the last commit —
//! freshly ingested edges — are serialized, and they are appended to the
//! one segment the commit writes (a commit with nothing dirty writes no
//! segment). Clean slots'
//! bytes are left in place and the new catalog re-references them by their
//! recorded range and crc32 (older generations' segment names stay valid
//! precisely because names are generation-qualified and the catalog stores
//! them verbatim). The tamper guard on those ranges is one `stat` per
//! referenced segment per commit: each clean record is held against its
//! segment's length in memory, so a segment truncated or deleted from
//! outside gets exactly its lost ranges rewritten from the slots. The
//! catalog itself — O(edges), tiny — is always rewritten, and its rename
//! remains the single commit point, so appending
//! one edge to a 100k-edge-row database costs O(new edge), not
//! O(database) — nor, with the remembered tail, O(history). A commit into
//! any *other* directory (or with a flipped `gzip` flag) is a full save
//! that then re-binds the manager to that target.
//! [`compact`](super::compact::compact) is this same commit with reuse
//! switched off: every stored table goes into the new generation's
//! segment.
//!
//! A segment is deleted whole, when the last live or retained range in it
//! dies. So the bytes of a table that a later commit superseded (an edge
//! re-ingested through the capture path) stay on disk, unreferenced, while
//! a neighbour in the same segment is still live — until the next
//! compaction, which is what reclaims them. [`verify`] reports that space
//! as [`VerifyReport::dead_bytes`]. (The service path rejects a duplicate
//! edge, so a served database never grows dead bytes; what its
//! maintenance policy counts is live segments.)
//!
//! Concurrent commits on one manager serialize on its commit lock.
//! Across *processes*, a database directory supports one live process at
//! a time: [`open`] sweeps unreferenced data and `*.tmp`
//! files (crashed-process debris), so an open racing another process's
//! in-flight commit could delete files that commit is about to
//! reference, and the remembered tail likewise assumes no other live
//! writer (it notices one only by the log's length or the catalog's
//! generation having moved). Concurrent ingest/query/commit within one process is the
//! supported mode — see [`crate::service`].
//!
//! ## Verify once
//!
//! Reading a table back — eager open, a lazy slot's first touch, an
//! `AsOf` open, [`verify`] — goes through `load_table_file`, which
//! checksums a plain table's range in a single pass: the crc32 of
//! everything before the 4-byte trailer must be what the trailer holds,
//! and the same running state carried on over the trailer must be what the
//! catalog recorded for the range. Both comparisons are made, range
//! against catalog first; neither costs a second read of the bytes, and
//! the decoder is handed the body crc instead of recomputing it.
//! (`read_verified_bytes`, the path a commit streams a lazy slot through
//! without decoding it, keeps its own whole-range check; a gzip table
//! keeps three checks — catalog crc over the container, the container's
//! crc, the table trailer — because they cover different bytes.)
//!
//! For a plain table the two values are not independent: bytes that end
//! in the crc32 of their own body have, as a whole, the CRC-32 residue
//! `0x2144df1c` as their crc32, whatever they hold. So the catalog's
//! `FileRecord::crc` of a plain table is that constant for every edge — it
//! proves the range is self-consistent and the length matches, not that it
//! is the table that was committed. Telling one well-formed table from
//! another is the job of a content digest: the operation log's
//! `IngestEdge.digest` is the body crc the table's trailer holds, and
//! holding each live table against it in [`verify`] is ROADMAP item 6's.
//!
//! ## What is persisted
//!
//! Each edge's one table, in the orientation it was stored in (backward
//! for every edge this build ingests); a forward query reads that same
//! table in reverse, so there is no second orientation to write. The
//! catalog's per-edge mask can still name both orientations, or only the
//! forward one: an edge of such a catalog keeps one table — the backward
//! one when both are named — and the next commit names only that. The
//! reuse predictor's signature tables are deliberately not persisted —
//! they are a cache whose correctness is re-validated per process anyway
//! (§VI.C re-confirms mappings after `m` calls).

use super::wal::{self, Generation, IoPolicy, LogTail};
use super::wire::{read_string, read_u32_le, write_string};
use super::{
    format, ArrayMeta, DiskTable, Edge, EdgeName, FileRecord, Slot, StorageManager, TableSource,
};
use crate::error::{DslogError, Result};
use crate::par;
use crate::table::Orientation;
use dslog_codecs::crc32::{crc32, Crc32};
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CATALOG_MAGIC_V3: &[u8; 8] = b"DSLGDB3\0";
pub(crate) const CATALOG_FILE: &str = "catalog.dsl";

/// The segment generation `gen` writes its tables into. The generation
/// makes the name unique per commit, so a commit in progress can never
/// clobber a file the committed catalog still references.
fn segment_file_name(gen: u64) -> String {
    format!("segment-0.g{gen}.seg")
}

/// The catalog of generation `gen`, kept under this name from the commit
/// that superseded it for as long as the retention window keeps `gen`.
pub(crate) fn retained_catalog_name(gen: u64) -> String {
    format!("catalog.g{gen}.dsl")
}

/// Extract the generation from a generation-qualified data file name —
/// `segment-<k>.g<gen>.seg` or `catalog.g<gen>.dsl` (also matches
/// leftover `.tmp` siblings). `None` for any other name and the live
/// catalog.
fn parse_generation(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("segment-")
        .or_else(|| name.strip_prefix("catalog"))?;
    let gpos = rest.find(".g")?;
    let tail = &rest[gpos + 2..];
    let digits = &tail[..tail.find('.').unwrap_or(tail.len())];
    digits.parse().ok()
}

/// File names present in `dir` (none if it cannot be listed).
pub(crate) fn list_dir(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The live catalog's generation and byte length from its header alone —
/// an O(1) read, whatever the catalog's size (`None` for a missing or
/// unrecognizable catalog).
fn peek_catalog(dir: &Path) -> Option<(u64, u64)> {
    use std::io::Read as _;
    let f = std::fs::File::open(dir.join(CATALOG_FILE)).ok()?;
    let len = f.metadata().ok()?.len();
    // magic (8), gzip flag (1), generation uvarint (at most 10).
    let mut head = Vec::with_capacity(19);
    f.take(19).read_to_end(&mut head).ok()?;
    if !head.starts_with(CATALOG_MAGIC_V3) {
        return None;
    }
    let mut pos = 9usize;
    let generation = read_uvarint(&head, &mut pos).ok()?;
    Some((generation, len))
}

/// The catalogs of the retained generations of `dir`, oldest first: every
/// `catalog.g<gen>.dsl` among `names` that is older than the `live`
/// generation, parses, and records the generation its name claims.
fn retained_catalogs(dir: &Path, names: &[String], live: u64) -> Vec<Catalog> {
    let mut kept: Vec<Catalog> = names
        .iter()
        .filter_map(|name| {
            let generation = parse_generation(name).filter(|g| *g < live)?;
            if *name != retained_catalog_name(generation) {
                return None;
            }
            let old = parse_catalog(&std::fs::read(dir.join(name)).ok()?).ok()?;
            (old.generation == generation).then_some(old)
        })
        .collect();
    kept.sort_by_key(|catalog| catalog.generation);
    kept
}

/// A catalog's entry in the retention window: its generation and the data
/// files it references.
fn generation_of(catalog: &Catalog) -> Generation {
    let files = catalog.edges.iter().flat_map(|e| &e.files);
    let names = files.map(|f| f.record.name.clone()).collect();
    (catalog.generation, names)
}

/// Rebuild what a manager remembers of `dir` ([`wal::LogTail`]) from the
/// directory itself — the one routine behind [`open`] and behind a commit
/// whose remembered tail is missing or stale. `live` is the parsed live
/// catalog, `names` the directory listing. Reconciles the log with the
/// catalog (truncating a torn or unvouched tail), and keeps every
/// generation whose catalog is still on disk in the window: the next
/// commit applies the retention policy and trims it.
///
/// The generation the next commit must use is one past anything present —
/// both the catalog's recorded generation and every generation visible in
/// file names (leftover higher-generation debris from a crashed save must
/// not be reused while a concurrent reader might still stat it).
pub(crate) fn load_tail(dir: &Path, live: Option<&Catalog>, names: &[String]) -> LogTail {
    let committed = live.map_or(0, |c| c.generation);
    let recovery = wal::recover(dir, committed);
    let retained = retained_catalogs(dir, names, committed);
    let window = retained.iter().chain(live).map(generation_of).collect();
    let max_gen = names
        .iter()
        .filter_map(|n| parse_generation(n))
        .fold(committed, u64::max);
    LogTail {
        clean_len: recovery.clean_len,
        last_op_id: recovery.last_op_id,
        next_gen: max_gen.saturating_add(1),
        catalog_len: live.map_or(0, |c| c.byte_len),
        window,
    }
}

/// Flush directory metadata so preceding renames/unlinks in `dir` are
/// durable. Without this, a power loss can persist the catalog rename but
/// not the segment rename it depends on. No-op error-wise on platforms
/// where directories cannot be opened for sync.
pub(crate) fn sync_dir(dir: &Path, policy: Option<&IoPolicy>) -> Result<()> {
    let _io = dslog_sync::io_guard("persist::sync_dir");
    #[cfg(unix)]
    {
        let d = std::fs::File::open(dir).map_err(|e| DslogError::io("open database dir", e))?;
        wal::policy_sync(&d, "sync database dir", policy)?;
    }
    #[cfg(not(unix))]
    let _ = (dir, policy);
    Ok(())
}

/// Write `bytes` to `<path>.tmp`, flush, then rename over `path`. Every
/// write and sync is gated by the fault-injection `policy` (if any).
fn write_atomic(
    path: &Path,
    bytes: &[u8],
    what: &'static str,
    policy: Option<&IoPolicy>,
) -> Result<()> {
    let _io = dslog_sync::io_guard("persist::write_atomic");
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| DslogError::io(what, e))?;
        wal::policy_write(&mut f, bytes, what, policy)?;
        // fdatasync, not fsync: for a freshly created temp file the data
        // and size are what crash recovery needs; the rename only becomes
        // durable at the later directory sync either way. Saves one
        // metadata journal flush per file on the commit hot path.
        wal::policy_sync(&f, what, policy)?;
    }
    std::fs::rename(&tmp, path).map_err(|e| DslogError::io(what, e))
}

/// What one [`commit`] — or one [`compact`](super::compact::compact), which
/// is a commit — did: generation it committed, and how much of the
/// database it actually had to rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReport {
    /// Generation of the newly committed catalog.
    pub generation: u64,
    /// Whether the target was the bound directory in its bound `gzip`
    /// mode (`false` for a full save into an unbound directory or with a
    /// flipped `gzip` mode).
    pub incremental: bool,
    /// Tables (one per edge) serialized and written into this
    /// generation's segment.
    pub files_written: usize,
    /// Tables re-referenced where earlier generations wrote them (clean
    /// slots); always 0 for a compaction.
    pub files_reused: usize,
    /// Byte length of the segment written (excludes the catalog).
    pub bytes_written: u64,
}

/// Whether a directory entry is one of ours and subject to sweeping:
/// segments and retained generations' catalogs (never the live
/// `catalog.dsl`).
fn is_data_file(name: &str) -> bool {
    name.starts_with("segment-") || name.starts_with("catalog.g")
}

/// Delete, among the listed `names`, every data file (see
/// [`is_data_file`]) that `window` does not spare, plus any `*.tmp`
/// debris. Deletion failures are ignored (opening a read-only snapshot
/// must stay possible).
pub(crate) fn sweep_stale_files(dir: &Path, names: &[String], window: &[Generation]) {
    for name in names {
        if name.ends_with(".tmp") || (is_data_file(name) && !is_spared(window, name)) {
            let _ = std::fs::remove_file(dir.join(name));
        }
    }
}

/// The single source of truth for what a sweep must leave alone — shared
/// by [`CommitSession::finish`] (so by [`commit`] and
/// [`super::compact::compact`]), [`open`] and [`verify`], so
/// no caller can invent its own (weaker) sparing rule and delete a file
/// the live catalog or the retained time-travel window still references.
///
/// Spared: everything a generation of `window` references (the live
/// catalog and the retained ones before it) and each such generation's
/// kept catalog. A segment therefore outlives the commit that wrote it for
/// as long as any generation of the window references a range in it.
pub(crate) fn is_spared(window: &[Generation], name: &str) -> bool {
    window.iter().any(|(generation, files)| {
        files.contains(name) || name == retained_catalog_name(*generation)
    })
}

/// How the commit planner decided to handle one edge's slot.
enum SlotPlan {
    /// Clean slot whose committed range is still on disk: the new catalog
    /// re-references it verbatim; nothing is rewritten.
    Reuse(FileRecord),
    /// Dirty (or force-rewritten) slot: these plain serialized bytes get
    /// appended to the new generation's segment.
    Write(Vec<u8>),
}

/// The byte length of each segment a commit's clean slots reference,
/// `stat`ed on first ask (`None`: the file is gone), so a commit makes one
/// `stat` per referenced segment, however many ranges it holds.
struct SegmentLens<'d> {
    dir: &'d Path,
    lens: HashMap<String, Option<u64>>,
}

impl SegmentLens<'_> {
    /// Whether `record`'s file still exists and holds its range.
    fn hold(&mut self, record: &FileRecord) -> bool {
        let len = match self.lens.get(&record.name) {
            Some(&len) => len,
            None => {
                let meta = std::fs::metadata(self.dir.join(&record.name));
                let len = meta.ok().map(|m| m.len());
                self.lens.insert(record.name.clone(), len);
                len
            }
        };
        len.is_some_and(|len| record.fits(len))
    }
}

/// Decide whether one slot can reuse its committed range. Runs file IO, so
/// it takes a lock-free snapshot of the slot, never the slot lock itself.
fn plan_slot(
    source: TableSource,
    persisted: Option<FileRecord>,
    segments: Option<&mut SegmentLens<'_>>,
) -> Result<SlotPlan> {
    if let Some((record, segments)) = persisted.zip(segments) {
        // Tamper guard, one `stat` per referenced segment per commit: the
        // recorded file must still exist and hold this range. Anything
        // else (externally deleted or truncated) falls through to a
        // rewrite from the slot.
        if segments.hold(&record) {
            return Ok(SlotPlan::Reuse(record));
        }
    }
    // Serialize loaded slots; stream lazily opened (OnDisk) slots as
    // verified bytes — a commit must not silently drop an edge no query
    // touched, but it also must not decode and pin a whole lazily opened
    // database just to re-write it.
    let plain = match source {
        TableSource::Loaded(t) => format::serialize(&t),
        TableSource::OnDisk(d) => d.read_plain_bytes()?,
    };
    Ok(SlotPlan::Write(plain))
}

/// Assemble complete catalog bytes (magic through crc trailer) for the
/// given per-edge plans.
fn build_catalog_bytes(
    storage: &StorageManager,
    gzip: bool,
    gen: u64,
    planned: &[PlannedEdge<'_>],
) -> Vec<u8> {
    let mut catalog = Vec::new();
    catalog.extend_from_slice(CATALOG_MAGIC_V3);
    catalog.push(gzip as u8);
    write_uvarint(&mut catalog, gen);

    // Arrays, sorted for deterministic bytes.
    let mut arrays: Vec<(&Arc<str>, &Arc<ArrayMeta>)> = storage.arrays.iter().collect();
    arrays.sort_unstable_by_key(|(name, _)| *name);
    write_uvarint(&mut catalog, arrays.len() as u64);
    for (name, meta) in arrays {
        write_string(&mut catalog, name);
        write_uvarint(&mut catalog, meta.shape.len() as u64);
        for &d in &meta.shape {
            write_uvarint(&mut catalog, d as u64);
        }
    }
    write_uvarint(&mut catalog, planned.len() as u64);
    for (key, orientation, record) in planned {
        write_string(&mut catalog, key.input());
        write_string(&mut catalog, key.output());
        catalog.push(orientation_bit(*orientation));
        write_string(&mut catalog, &record.name);
        write_uvarint(&mut catalog, record.len);
        catalog.extend_from_slice(&record.crc.to_le_bytes());
        write_uvarint(&mut catalog, record.raw_len);
        write_uvarint(&mut catalog, record.offset);
    }

    // Self-checksum so catalog corruption is always detected at open.
    let catalog_crc = crc32(&catalog);
    catalog.extend_from_slice(&catalog_crc.to_le_bytes());
    catalog
}

/// The catalog's edge-mask bit of a table stored in `orientation`; a mask
/// may name both (see the module docs).
fn orientation_bit(orientation: Orientation) -> u8 {
    match orientation {
        Orientation::Backward => 1,
        Orientation::Forward => 2,
    }
}

/// One edge of a commit plan: its key, and its table's orientation and
/// catalog record.
type PlannedEdge<'a> = (&'a EdgeName, Orientation, FileRecord);

/// A slot a commit wrote, to be marked clean once the catalog rename lands.
type WrittenSlot<'a> = (&'a Edge, FileRecord);

/// A commit in flight: what `commit_generation` does around the segment it
/// writes. [`begin`](Self::begin) takes the manager's commit lock and
/// the remembered log tail (rebuilding it from the directory when it
/// cannot be trusted) and fixes the generation; [`finish`](Self::finish)
/// is the one place that appends to `ops.log`, renames the catalog,
/// sweeps, publishes clean slots and re-binds the manager.
struct CommitSession<'a> {
    storage: &'a StorageManager,
    // Held for the whole commit: serializes concurrent commits on this
    // manager (two interleaved writers would race the generation counter
    // and each other's sweeps). The binding mutex itself is taken only
    // briefly, so binding readers (service stats) never wait on IO.
    _serialize: dslog_sync::MutexGuard<'a, ()>,
    dir: PathBuf,
    gzip: bool,
    /// The target is the bound directory in its bound gzip mode: clean
    /// slots' ranges can be reused.
    incremental: bool,
    /// Same directory, flipped gzip mode: an in-place conversion of the
    /// bound database, not a replacement — its operation log carries over
    /// (with a conversion record).
    conversion: bool,
    /// The buffered operations this commit flushes (operations arriving
    /// concurrently from other epochs stay buffered for the next commit).
    pending: Vec<wal::PendingOp>,
    actor: String,
    tail: LogTail,
    /// The tail was rebuilt from the directory for this commit, which may
    /// therefore hold files the tail knows nothing about (a failed
    /// commit's debris, the database a full save replaces): sweep by
    /// listing instead of deleting the known-unreferenced files.
    rebuilt: bool,
    prior_gen: u64,
    /// Generation this commit writes.
    gen: u64,
}

impl<'a> CommitSession<'a> {
    /// `dir` must be canonical (so `open("./db")` then `commit("db")`
    /// still matches the binding). The records this commit itself logs
    /// name `actor`, or the manager's configured one for `None`.
    fn begin(storage: &'a StorageManager, dir: PathBuf, gzip: bool, actor: Option<&str>) -> Self {
        let serialize = storage.commit_lock.lock();
        let (bound, tail) = {
            let mut binding = storage.binding.lock();
            let mut bound = binding.as_mut().filter(|b| b.dir == dir);
            let tail = bound.as_mut().and_then(|b| b.tail.take());
            (bound.map(|b| (b.gzip, b.generation)), tail)
        };
        let pending = storage.wal.lock().clone();
        // The remembered tail stands while the directory still looks the
        // way the tail left it: the log ends where it did, and the live
        // catalog is the one this manager committed or opened.
        let trusted = bound.zip(tail).filter(|((_, generation), tail)| {
            let log_len =
                std::fs::metadata(dir.join(wal::OPS_LOG_FILE)).map_or(0, |meta| meta.len());
            log_len == tail.clean_len && peek_catalog(&dir) == Some((*generation, tail.catalog_len))
        });
        let (tail, prior_gen, rebuilt) = match trusted {
            Some(((_, generation), tail)) => (tail, generation, false),
            None => {
                let live = read_catalog(&dir).ok();
                let mut tail = load_tail(&dir, live.as_ref(), &list_dir(&dir));
                if bound.is_none() {
                    // An unbound or foreign target starts a fresh log and
                    // retains nothing: whatever history the directory
                    // holds describes the database being replaced, not
                    // this manager.
                    tail = LogTail {
                        next_gen: tail.next_gen,
                        ..LogTail::default()
                    };
                }
                (tail, live.map_or(0, |c| c.generation), true)
            }
        };
        CommitSession {
            storage,
            _serialize: serialize,
            incremental: matches!(bound, Some((g, _)) if g == gzip),
            conversion: matches!(bound, Some((g, _)) if g != gzip),
            dir,
            gzip,
            pending,
            actor: actor.unwrap_or(&storage.actor).to_string(),
            gen: tail.next_gen,
            tail,
            rebuilt,
            prior_gen,
        }
    }

    /// Commit `planned` — whose segment is already written and renamed
    /// into place — as generation `self.gen`: directory sync, log append +
    /// fdatasync, catalog rename (the commit point), directory sync,
    /// delete. `annotation` is logged just before the commit record.
    fn finish(
        mut self,
        planned: &[PlannedEdge<'_>],
        written: Vec<WrittenSlot<'_>>,
        annotation: Option<wal::OpKind>,
    ) -> Result<()> {
        let (storage, gzip, gen, prior_gen) = (self.storage, self.gzip, self.gen, self.prior_gen);
        let (policy, retain) = (storage.io_policy.as_deref(), storage.retain as usize);
        let dir = self.dir.as_path();
        let catalog = build_catalog_bytes(storage, gzip, gen, planned);

        // The live generation is about to become a retained one: keep its
        // catalog under its generation-qualified name — a hard link, so
        // the bytes are the ones already fsynced as `catalog.dsl` (where
        // links are unsupported, a copy; should a crash tear it, that
        // generation merely reads as not retained).
        if let Some((live, _)) = self.tail.window.last().filter(|_| retain > 0) {
            let (from, to) = (
                dir.join(CATALOG_FILE),
                dir.join(retained_catalog_name(*live)),
            );
            let _ = std::fs::remove_file(&to);
            std::fs::hard_link(&from, &to)
                .or_else(|_| std::fs::copy(&from, &to).map(drop))
                .map_err(|e| DslogError::io("retain superseded catalog", e))?;
        }

        // Make the segment rename (and that link) durable BEFORE the
        // catalog can commit: directory entries have no ordering guarantee
        // on power loss otherwise.
        sync_dir(dir, policy)?;

        // Flush the operation log — buffered mutations, the conversion
        // marker if the gzip mode flipped in place, the caller's
        // annotation, then a commit record naming the catalog about to be
        // renamed live — and fdatasync it BEFORE the catalog rename, so
        // the log is always at least as new as the catalog. Op ids
        // continue past the remembered tail, and the append truncates
        // whatever lies beyond it.
        let mut op_id = self.tail.last_op_id;
        let mut record = |timestamp_ms, actor: &str, gen_after, kind| {
            op_id += 1;
            wal::OpRecord {
                op_id,
                timestamp_ms,
                actor: actor.to_string(),
                gen_before: prior_gen,
                gen_after,
                kind,
            }
        };
        let mut records: Vec<wal::OpRecord> = self
            .pending
            .iter()
            .map(|p| record(p.timestamp_ms, &p.actor, prior_gen, p.kind.clone()))
            .collect();
        let conversion = self.conversion.then_some(wal::OpKind::ConvertGzip { gzip });
        for kind in conversion.into_iter().chain(annotation) {
            records.push(record(wal::now_ms(), &self.actor, prior_gen, kind));
        }
        records.push(record(
            wal::now_ms(),
            &self.actor,
            gen,
            wal::commit_of(&catalog),
        ));
        self.tail.clean_len = wal::append(dir, self.tail.clean_len, &records, policy)?;
        self.tail.last_op_id = op_id;

        // Commit point: once this rename lands, the new snapshot is live
        // and vouches for the records just logged, so they leave the
        // buffer here — should the directory sync below fail, a retry must
        // not log them a second time. On any earlier error they stay
        // pending and the tail stays dropped: the next attempt reconciles
        // the log with the catalog first and truncates whatever the failed
        // append managed to write, so nothing is lost or double-counted.
        write_atomic(&dir.join(CATALOG_FILE), &catalog, "write catalog", policy)?;
        storage.wal.lock().drain(..self.pending.len());

        // And make the commit itself durable before destroying old state.
        sync_dir(dir, policy)?;

        // The new generation enters the window; generations beyond the
        // retention policy leave it, and what only they pinned goes:
        // previous generations' files, and after a full save or a gzip
        // flip the replaced database's. The sparing rule is the shared
        // [`is_spared`], identical to the one open uses.
        self.tail.catalog_len = catalog.len() as u64;
        self.tail.next_gen = gen.saturating_add(1);
        let referenced: HashSet<&str> = planned.iter().map(|(_, _, r)| &r.name[..]).collect();
        let referenced = referenced.into_iter().map(str::to_string).collect();
        self.tail.window.push((gen, referenced));
        let evict = self.tail.window.len().saturating_sub(retain + 1);
        let evicted: Vec<Generation> = self.tail.window.drain(..evict).collect();
        let names: Vec<String> = if self.rebuilt {
            list_dir(dir)
        } else {
            // `*.tmp` and orphan debris cannot appear behind a trusted
            // tail (the open-time sweep deals with a crashed process's):
            // only what an evicted generation pinned can have gone stale.
            let pinned = |(generation, files): Generation| {
                files.into_iter().chain([retained_catalog_name(generation)])
            };
            evicted.into_iter().flat_map(pinned).collect()
        };
        sweep_stale_files(dir, &names, &self.tail.window);

        // Publish: mark the written slots clean (repointing lazy sources
        // at their new ranges) and re-bind the manager with the advanced
        // tail, so the next commit into this directory rewrites none of
        // them and reads back nothing of this one.
        for (edge, record) in written {
            edge.publish_committed(record, dir, gzip);
        }
        *storage.binding.lock() = Some(super::PersistBinding {
            dir: self.dir,
            gzip,
            generation: gen,
            tail: Some(self.tail),
        });
        Ok(())
    }
}

/// Commit a storage manager into `dir` (created if missing). With `gzip`
/// the tables use the ProvRC-GZip disk format — the configuration the
/// paper recommends for long-term storage.
///
/// When `dir` (+ `gzip` mode) matches the manager's binding — the
/// directory it was opened from or last committed into — the commit is
/// *incremental*: only dirty slots are serialized and written, clean
/// slots' ranges are re-referenced by the new catalog, and the cost is
/// O(changed edges) + O(catalog). Any other target gets a full save and
/// re-binds the manager to it.
///
/// The write is atomic either way (see the module docs): temp-file +
/// rename for every file, catalog last as the single commit point, stale
/// files swept afterwards. Committing into a directory that holds an
/// older snapshot — even one with a different edge set or `gzip` flag — is
/// safe and replaces it completely.
pub fn commit(storage: &StorageManager, dir: &Path, gzip: bool) -> Result<CommitReport> {
    commit_generation(storage, dir, gzip, None, false)
}

/// Write one generation — the one routine behind [`commit`], [`save`] and
/// [`compact`](super::compact::compact) — its records logged under `actor`
/// (`None`: the manager's configured one). With `fold` no clean slot is
/// reused: every stored table goes into the new segment, the manager must
/// already be bound to `dir` in this `gzip` mode
/// ([`DslogError::NotBound`] otherwise), and the pass is logged as a
/// compaction.
pub(crate) fn commit_generation(
    storage: &StorageManager,
    dir: &Path,
    gzip: bool,
    actor: Option<&str>,
    fold: bool,
) -> Result<CommitReport> {
    if !fold {
        std::fs::create_dir_all(dir).map_err(|e| DslogError::io("create database dir", e))?;
    }
    let dir = dir
        .canonicalize()
        .map_err(|e| DslogError::io("canonicalize database dir", e))?;
    let session = CommitSession::begin(storage, dir, gzip, actor);
    if fold && !session.incremental {
        return Err(DslogError::NotBound);
    }
    let (incremental, gen) = (session.incremental, session.gen);
    let reuse = incremental && !fold;
    let folded = session.tail.live_files();

    // Plan pass: edges sorted by (in, out) for determinism. Each dirty
    // slot's bytes are appended to the segment as the slot is planned (so
    // at most one table is held beside it), each compressed on its own —
    // a range decompresses independently of its neighbours.
    let edges = storage.sorted_edges();
    let mut segments = reuse.then(|| SegmentLens {
        dir: &session.dir,
        lens: HashMap::new(),
    });
    let name = segment_file_name(gen);
    let mut segment: Vec<u8> = Vec::new();
    let mut files_reused = 0usize;
    // Slots marked clean only AFTER the catalog rename lands: a crashed
    // commit must leave every dirty slot dirty.
    let mut written: Vec<WrittenSlot<'_>> = Vec::new();
    let mut planned: Vec<PlannedEdge<'_>> = Vec::with_capacity(edges.len());
    for (key, edge) in edges {
        let (source, persisted) = edge.snapshot();
        let orientation = source.orientation();
        let record = match plan_slot(source, persisted, segments.as_mut())? {
            SlotPlan::Reuse(record) => {
                files_reused += 1;
                record
            }
            SlotPlan::Write(plain) => {
                let raw_len = plain.len() as u64;
                let bytes = if gzip {
                    dslog_codecs::gzip::compress(&plain)
                } else {
                    plain
                };
                let record = FileRecord {
                    name: name.clone(),
                    len: bytes.len() as u64,
                    crc: crc32(&bytes),
                    raw_len,
                    offset: segment.len() as u64,
                };
                segment.extend_from_slice(&bytes);
                written.push((edge, record.clone()));
                record
            }
        };
        planned.push((key, orientation, record));
    }

    // The one table write of the storage layer; a generation that changed
    // no table writes no segment.
    if !segment.is_empty() {
        let policy = storage.io_policy.as_deref();
        write_atomic(&session.dir.join(&name), &segment, "write segment", policy)?;
    }
    let report = CommitReport {
        generation: gen,
        incremental,
        files_written: written.len(),
        files_reused,
        bytes_written: segment.len() as u64,
    };
    let annotation = fold.then_some(wal::OpKind::Compact {
        segments: u64::from(!segment.is_empty()),
        folded: folded as u64,
        bytes: report.bytes_written,
    });
    session.finish(&planned, written, annotation)?;
    Ok(report)
}

/// Persist a storage manager into `dir`: [`commit`] with the report
/// dropped. Kept as the stable entry point; like `commit`, a save into
/// the bound directory is incremental.
pub fn save(storage: &StorageManager, dir: &Path, gzip: bool) -> Result<()> {
    commit(storage, dir, gzip).map(drop)
}

/// One table reference of a parsed catalog.
pub(crate) struct FileRef {
    pub(crate) orientation: Orientation,
    pub(crate) record: FileRecord,
}

/// One edge entry of a parsed catalog.
pub(crate) struct CatalogEdge {
    pub(crate) in_name: String,
    pub(crate) out_name: String,
    /// One table per orientation the edge mask names, backward first.
    pub(crate) files: Vec<FileRef>,
}

impl CatalogEdge {
    /// The table an opened edge keeps: the backward one when the catalog
    /// names both orientations (the parser guarantees at least one).
    fn kept(&self) -> &FileRef {
        &self.files[0]
    }
}

/// A parsed (and structurally validated) catalog.
pub(crate) struct Catalog {
    /// Byte length of the catalog file this was parsed from.
    pub(crate) byte_len: u64,
    pub(crate) gzip: bool,
    /// Snapshot generation; the next save uses a strictly larger one.
    pub(crate) generation: u64,
    pub(crate) arrays: HashMap<String, ArrayMeta>,
    pub(crate) edges: Vec<CatalogEdge>,
}

pub(crate) fn parse_catalog(data: &[u8]) -> Result<Catalog> {
    let byte_len = data.len() as u64;
    if data.len() < 13 {
        return Err(DslogError::Corrupt("catalog too short"));
    }
    match &data[..8] {
        m if m == CATALOG_MAGIC_V3 => {}
        // Another generation of this format (v1 and v2 are no longer read).
        m if m.starts_with(b"DSLGDB") => {
            return Err(DslogError::Corrupt("unsupported catalog version"))
        }
        _ => return Err(DslogError::Corrupt("bad catalog magic")),
    }
    // The catalog ends in a crc32 trailer over everything before it;
    // verify before parsing so any corruption is caught up front.
    let (data, trailer) = data
        .split_last_chunk::<4>()
        .ok_or(DslogError::Corrupt("catalog too short"))?;
    if crc32(data) != u32::from_le_bytes(*trailer) {
        return Err(DslogError::Corrupt("catalog checksum mismatch"));
    }
    let gzip = data[8] != 0;
    let mut pos = 9usize;
    let generation = read_uvarint(data, &mut pos)?;

    let mut arrays = HashMap::new();
    let n_arrays = read_uvarint(data, &mut pos)? as usize;
    for _ in 0..n_arrays {
        let name = read_string(data, &mut pos)?;
        let ndim = read_uvarint(data, &mut pos)? as usize;
        // Each dimension needs at least one byte; bound the pre-allocation
        // by what the input could possibly still encode.
        if ndim > data.len() - pos {
            return Err(DslogError::Corrupt("array rank exceeds catalog size"));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(read_uvarint(data, &mut pos)? as usize);
        }
        arrays.insert(name, ArrayMeta { shape });
    }

    let mut edges = Vec::new();
    let n_edges = read_uvarint(data, &mut pos)? as usize;
    for _ in 0..n_edges {
        let in_name = read_string(data, &mut pos)?;
        let out_name = read_string(data, &mut pos)?;
        if !arrays.contains_key(&out_name) {
            return Err(DslogError::Corrupt("edge references unknown output array"));
        }
        if !arrays.contains_key(&in_name) {
            return Err(DslogError::Corrupt("edge references unknown input array"));
        }
        let &mask = data
            .get(pos)
            .ok_or(DslogError::Corrupt("catalog truncated at edge mask"))?;
        pos += 1;
        if mask == 0 || mask > 3 {
            return Err(DslogError::Corrupt("bad edge orientation mask"));
        }
        let mut files = Vec::new();
        for orientation in [Orientation::Backward, Orientation::Forward] {
            if mask & orientation_bit(orientation) == 0 {
                continue;
            }
            let name = read_string(data, &mut pos)?;
            // Catalogs are untrusted input: a table reference must be a
            // bare `segment-*` file name inside the database directory (no
            // separators, so it can never escape it), and not a `.tmp` name
            // the sweep would reclaim.
            let bare = !name.contains(['/', '\\']) && !name.ends_with(".tmp");
            if !(name.starts_with("segment-") && bare) {
                return Err(DslogError::Corrupt(
                    "catalog references an illegal file name",
                ));
            }
            let len = read_uvarint(data, &mut pos)?;
            let crc = read_u32_le(data, &mut pos)?;
            let raw_len = read_uvarint(data, &mut pos)?;
            let offset = read_uvarint(data, &mut pos)?;
            files.push(FileRef {
                orientation,
                record: FileRecord {
                    name,
                    len,
                    crc,
                    raw_len,
                    offset,
                },
            });
        }
        edges.push(CatalogEdge {
            in_name,
            out_name,
            files,
        });
    }
    Ok(Catalog {
        byte_len,
        gzip,
        generation,
        arrays,
        edges,
    })
}

/// Read the bytes of one table's range, exactly as long as the catalog
/// records. The file is held against the range first
/// ([`FileRecord::fits`]), which also bounds the allocation by what is
/// actually on disk.
fn read_record_bytes(dir: &Path, record: &FileRecord) -> Result<Vec<u8>> {
    use std::io::{Read as _, Seek as _};
    let mut f = std::fs::File::open(dir.join(&record.name))
        .map_err(|e| DslogError::io("open table file", e))?;
    let file_len = f
        .metadata()
        .map_err(|e| DslogError::io("stat table file", e))?
        .len();
    if !record.fits(file_len) {
        return Err(DslogError::Corrupt("edge file length mismatch"));
    }
    f.seek(std::io::SeekFrom::Start(record.offset))
        .map_err(|e| DslogError::io("seek table file", e))?;
    // Bounded: the range was just held against the file's length.
    let mut buf = vec![0u8; record.len as usize];
    f.read_exact(&mut buf)
        .map_err(|e| DslogError::io("read table range", e))?;
    Ok(buf)
}

/// Read one table (see [`read_record_bytes`]) and verify it against its
/// catalog record: byte length, crc32, and — for gzip — the container's
/// claimed uncompressed size vs the recorded plain length (so a later
/// decompress is bounded by the catalog, not by whatever the file body
/// claims). Returns the raw table bytes, undecoded — what a commit streams
/// from a lazy slot it rewrites.
pub(crate) fn read_verified_bytes(dir: &Path, gzip: bool, record: &FileRecord) -> Result<Vec<u8>> {
    let bytes = read_record_bytes(dir, record)?;
    if crc32(&bytes) != record.crc {
        return Err(DslogError::Corrupt("edge file checksum mismatch"));
    }
    if gzip && dslog_codecs::gzip::declared_len(&bytes)? != record.raw_len {
        return Err(DslogError::Corrupt("edge file declared size mismatch"));
    }
    Ok(bytes)
}

/// Read + fully validate one table (length/crc, then structural
/// decode, then orientation agreement with the catalog). Eager open, the
/// lazy `DiskTable::load` path, `AsOf` opens and [`verify`] all go through
/// here, so verification can never diverge between them.
///
/// A plain table is checksummed once (see the module docs): the crc32 over
/// everything before its trailer is the value the trailer must hold, and
/// the same state run on over the trailer is the value the catalog must
/// hold. A gzip table keeps its three separate checks — catalog crc over
/// the container, the container's own crc, the table trailer — because
/// each covers different bytes.
pub(crate) fn load_table_file(
    dir: &Path,
    gzip: bool,
    orientation: Orientation,
    record: &FileRecord,
) -> Result<crate::table::CompressedTable> {
    let table = if gzip {
        format::deserialize_gzip(&read_verified_bytes(dir, gzip, record)?)?
    } else {
        let bytes = read_record_bytes(dir, record)?;
        let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(format::TRAILER_LEN));
        let mut crc = Crc32::new();
        crc.update(body);
        let body_crc = crc.finalize();
        crc.update(trailer);
        if crc.finalize() != record.crc {
            return Err(DslogError::Corrupt("edge file checksum mismatch"));
        }
        format::deserialize_checksummed(&bytes, body_crc)?
    };
    if table.orientation() != orientation {
        return Err(DslogError::Corrupt("edge file orientation mismatch"));
    }
    Ok(table)
}

/// Each catalog edge's loaded (or lazily referenced) table, in catalog
/// order.
type EdgeMap = Vec<Arc<Edge>>;

/// Plain table bytes (the catalog's `raw_len`s) per worker below which a
/// load decodes on the calling thread. Measured on 2 vCPUs over the
/// benchmark's 96-edge `reopen` shape, two threads ÷ one: 0.9–1.2 at
/// 0.95–1.5 MB, 0.72–1.08 from 2.4 to 7.2 MB depending on the run, and
/// 0.54–0.87 from 9.8 MB. When the two vCPUs share a core the pool is 1.8×
/// slower up to 2.4 MB and still ahead (0.80) from 9.8 MB, so two workers
/// start at 8 MiB (README, "Where DSLog uses threads").
const DECODE_GRAIN: usize = 4 << 20;

/// Workers for decoding `jobs`: one per [`DECODE_GRAIN`] of table bytes.
fn decode_workers(jobs: &[(usize, &FileRef)]) -> usize {
    let bytes: u64 = jobs.iter().map(|(_, fref)| fref.record.raw_len).sum();
    par::workers_for(usize::try_from(bytes).unwrap_or(usize::MAX), DECODE_GRAIN)
}

/// Read, verify and decode catalog file references on `workers` threads
/// (decode + crc dominates open time, and tables are independent). Returns
/// each table keyed by its edge index. Any decode error — or a panic while
/// decoding — fails the whole load.
fn load_tables(
    dir: &Path,
    catalog: &Catalog,
    jobs: &[(usize, &FileRef)],
    workers: usize,
) -> Result<HashMap<usize, crate::table::CompressedTable>> {
    let decode_all = || {
        par::map(jobs.len(), workers, |i| {
            let (idx, fref) = jobs[i];
            load_table_file(dir, catalog.gzip, fref.orientation, &fref.record).map(|t| (idx, t))
        })
    };
    // Hostile bytes must come back as an error, whichever thread met them.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode_all))
        .map_err(|_| DslogError::Corrupt("edge decode worker panicked"))?
        .into_iter()
        .collect()
}

/// Load (or lazily reference) the table each edge of a parsed catalog
/// keeps ([`CatalogEdge::kept`]).
fn load_catalog_edges(dir: &Path, catalog: &Catalog, lazy: bool) -> Result<EdgeMap> {
    // Everything to be decoded eagerly goes through `load_tables`; lazily
    // referenced files are only stat'd (O(1) each) inline below.
    let eager_jobs: Vec<(usize, &FileRef)> = (catalog.edges.iter().enumerate())
        .map(|(idx, entry)| (idx, entry.kept()))
        .filter(|_| !lazy)
        .collect();
    let mut loaded = load_tables(dir, catalog, &eager_jobs, decode_workers(&eager_jobs))?;

    let mut edges = Vec::with_capacity(catalog.edges.len());
    for (idx, entry) in catalog.edges.iter().enumerate() {
        let fref = entry.kept();
        let source = match loaded.remove(&idx) {
            Some(table) => TableSource::Loaded(Arc::new(table)),
            None => {
                // Lazy reference: the catalog-recorded checksum defers
                // verification to first use. The O(1) existence + length
                // check here catches missing or truncated files at open
                // time.
                let meta = std::fs::metadata(dir.join(&fref.record.name))
                    .map_err(|e| DslogError::io("stat edge table", e))?;
                if !fref.record.fits(meta.len()) {
                    return Err(DslogError::Corrupt("edge file length mismatch"));
                }
                TableSource::OnDisk(DiskTable {
                    dir: dir.to_path_buf(),
                    gzip: catalog.gzip,
                    orientation: fref.orientation,
                    record: fref.record.clone(),
                })
            }
        };
        // The on-disk bytes already hold exactly this slot's content: the
        // slot opens *clean*, so a later incremental commit reuses the
        // range untouched.
        let slot = Slot {
            source,
            persisted: Some(fref.record.clone()),
        };
        edges.push(Arc::new(Edge::new(slot)));
    }
    Ok(edges)
}

/// How [`open`] reads a database directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Decode every table now, verifying each against its catalog
    /// checksum.
    Eager,
    /// O(catalog): each table's file is only stat'd (existence + length)
    /// now and read, checksum-verified, and decoded on the first `resolve_hop`
    /// that needs them.
    Lazy,
    /// The database as it was at this generation, read eagerly from the
    /// `catalog.g<generation>.dsl` the retention policy kept
    /// ([`DslogError::GenerationNotRetained`] if it, or a file it names, is
    /// gone). The manager is *unbound*: a commit from it is a full save
    /// into a fresh target, never a rewrite of history. The directory's
    /// current generation opens as [`Eager`](Self::Eager) does.
    AsOf(u64),
}

/// Read and parse the live catalog of `dir`.
fn read_catalog(dir: &Path) -> Result<Catalog> {
    let bytes =
        std::fs::read(dir.join(CATALOG_FILE)).map_err(|e| DslogError::io("read catalog", e))?;
    parse_catalog(&bytes)
}

/// A freshly built manager around a parsed catalog's arrays and edges;
/// everything else (configuration, log buffer) starts at its defaults.
fn manager_from_parts(
    catalog: Catalog,
    edges: EdgeMap,
    binding: Option<super::PersistBinding>,
) -> Result<StorageManager> {
    let mut storage = StorageManager {
        binding: Arc::new(dslog_sync::Mutex::new(
            &dslog_sync::ranks::STORAGE_BINDING,
            binding,
        )),
        ..StorageManager::default()
    };
    for (name, meta) in catalog.arrays {
        storage.arrays.insert(Arc::from(name), Arc::new(meta));
    }
    for (entry, edge) in catalog.edges.iter().zip(edges) {
        let name = storage.edge_name(&entry.in_name, &entry.out_name)?;
        storage.edges.insert(name, edge);
    }
    Ok(storage)
}

/// Open a database directory written by [`save`] — the one storage-level
/// entry; [`crate::api::OpenOptions::open`] is its public face.
pub fn open(dir: &Path, mode: OpenMode) -> Result<StorageManager> {
    let live = read_catalog(dir)?;
    if let OpenMode::AsOf(generation) = mode {
        if generation != live.generation {
            return open_retained(dir, generation);
        }
    }

    // Rebuild the remembered tail: reconcile the operation log with the
    // committed catalog — scan it, truncate any torn tail and any record
    // past the last commit this catalog vouches for (a crash between the
    // log fdatasync and the catalog rename leaves such a dangling tail) —
    // and collect the retained generations. Best-effort — a missing or
    // pre-log directory yields an empty log tail.
    let names = list_dir(dir);
    let tail = load_tail(dir, Some(&live), &names);

    let edges = load_catalog_edges(dir, &live, mode == OpenMode::Lazy)?;

    // A crashed process can leave `.tmp`/orphaned debris that a later
    // generation could collide with; opening a snapshot sweeps it
    // (best-effort — a read-only directory still opens fine). The sparing
    // rule is the shared [`is_spared`]: whatever a generation whose
    // catalog is still kept names, an `AsOf` open can resolve, so an open
    // spares them all and the next commit applies the retention policy
    // and trims them.
    sweep_stale_files(dir, &names, &tail.window);

    // Bind the manager to this directory so the next commit into it is
    // incremental.
    let binding = super::PersistBinding {
        dir: dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf()),
        gzip: live.gzip,
        generation: live.generation,
        tail: Some(tail),
    };
    manager_from_parts(live, edges, Some(binding))
}

/// The [`OpenMode::AsOf`] open of a superseded generation.
fn open_retained(dir: &Path, generation: u64) -> Result<StorageManager> {
    let catalog = match std::fs::read(dir.join(retained_catalog_name(generation))) {
        Ok(old) => parse_catalog(&old)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(DslogError::GenerationNotRetained(generation));
        }
        Err(e) => return Err(DslogError::io("read retained catalog", e)),
    };
    if catalog.generation != generation {
        return Err(DslogError::Corrupt(
            "retained catalog records another generation than its name",
        ));
    }
    // Fail up front (and precisely) if the sweep already reclaimed any of
    // the generation's files, instead of erroring mid-load.
    for entry in &catalog.edges {
        for fref in &entry.files {
            if !dir.join(&fref.record.name).is_file() {
                return Err(DslogError::GenerationNotRetained(generation));
            }
        }
    }
    // Eager load: historical snapshots are for inspection, and eager
    // verification means a reclaimed-then-recreated name cannot bite
    // later. No sweep, no binding — opening history must never mutate
    // the live database.
    let edges = load_catalog_edges(dir, &catalog, false)?;
    manager_from_parts(catalog, edges, None)
}

/// What [`verify`] found in a healthy database directory. The catalog is
/// always the one format this build reads and writes (`DSLGDB3`); any
/// other is an error, not a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Whether tables use the gzip disk format.
    pub gzip: bool,
    /// Arrays declared by the catalog.
    pub n_arrays: usize,
    /// Edges declared by the catalog.
    pub n_edges: usize,
    /// Tables read, checksum-verified, and structurally decoded.
    pub files_verified: usize,
    /// Data files (`segment-*`, `catalog.g*`) and `*.tmp` files present
    /// but referenced by no kept catalog (debris from a crashed save —
    /// harmless, swept by the next open).
    pub stale_files: Vec<String>,
    /// Cleanly framed records in the operation log (0 for a directory
    /// without one).
    pub log_records: usize,
    /// Data files on disk that the current catalog does not reference but
    /// a retained generation does (its kept `catalog.g<gen>.dsl`
    /// included) — history an `as_of` open can resolve, not debris.
    pub retained_files: usize,
    /// Bytes of the referenced data files that no range of the live or a
    /// retained catalog covers: superseded tables whose segment a live
    /// neighbour still pins. The next compaction reclaims them.
    pub dead_bytes: u64,
}

/// Walk a database directory and validate everything the catalog claims:
/// every referenced table's range exists, matches its recorded byte length
/// and crc32, decodes structurally, and stores the orientation the catalog
/// says — decoded by the same workers as an eager [`open`]. That is
/// every byte a reader can be handed; dead space inside a segment is
/// counted, not checked. Returns a report on success; any damage is an
/// `Err`. Unreferenced data/`*.tmp` debris is reported, not treated as
/// damage.
pub fn verify(dir: &Path) -> Result<VerifyReport> {
    let catalog = read_catalog(dir)?;

    let jobs: Vec<(usize, &FileRef)> = catalog
        .edges
        .iter()
        .enumerate()
        .flat_map(|(idx, entry)| entry.files.iter().map(move |fref| (idx, fref)))
        .collect();
    let files_verified = jobs.len();
    load_tables(dir, &catalog, &jobs, decode_workers(&jobs))?;

    // Retained generations' catalogs and the files they name are history,
    // not debris (the classification rule is the same [`is_spared`] the
    // sweeps use). The log read is torn-tail tolerant and side-effect
    // free.
    let log_records = wal::history(dir).unwrap_or_default();
    let names = list_dir(dir);
    let retained = retained_catalogs(dir, &names, catalog.generation);
    let (_, referenced) = generation_of(&catalog);
    let window: Vec<Generation> = retained.iter().map(generation_of).collect();

    let mut stale_files = Vec::new();
    let mut retained_files = 0usize;
    for name in names {
        if name.ends_with(".tmp") {
            stale_files.push(name);
        } else if is_data_file(&name) && !referenced.contains(&name) {
            if is_spared(&window, &name) {
                retained_files += 1;
            } else {
                stale_files.push(name);
            }
        }
    }
    stale_files.sort();

    // Dead space: what the files named by the live and retained catalogs
    // hold beyond the distinct ranges those catalogs reference (a table
    // re-referenced across generations counts once).
    let ranges: HashSet<(&str, u64, u64)> = std::iter::once(&catalog)
        .chain(&retained)
        .flat_map(|c| c.edges.iter().flat_map(|e| &e.files))
        .map(|f| (f.record.name.as_str(), f.record.offset, f.record.len))
        .collect();
    let files: HashSet<&str> = ranges.iter().map(|(name, _, _)| *name).collect();
    let file_bytes: u64 = files
        .iter()
        .map(|name| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len()))
        .sum();
    let range_bytes: u64 = ranges.iter().map(|(_, _, len)| len).sum();

    Ok(VerifyReport {
        gzip: catalog.gzip,
        n_arrays: catalog.arrays.len(),
        n_edges: catalog.edges.len(),
        files_verified,
        stale_files,
        log_records: log_records.len(),
        retained_files,
        dead_bytes: file_bytes.saturating_sub(range_bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::LineageTable;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dslog-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> Result<StorageManager> {
        super::open(dir, OpenMode::Eager)
    }

    fn open_lazy(dir: &Path) -> Result<StorageManager> {
        super::open(dir, OpenMode::Lazy)
    }

    fn sample_manager() -> StorageManager {
        let mut s = StorageManager::new();
        s.define_array("A", &[3, 2]).unwrap();
        s.define_array("B", &[3]).unwrap();
        s.define_array("C", &[3]).unwrap();
        let mut sum = LineageTable::new(1, 2);
        for i in 0..3 {
            for j in 0..2 {
                sum.push_row(&[i, i, j]);
            }
        }
        s.ingest_lineage("A", "B", &sum).unwrap();
        let mut id = LineageTable::new(1, 1);
        for i in 0..3 {
            id.push_row(&[i, i]);
        }
        s.ingest_lineage("B", "C", &id).unwrap();
        s
    }

    /// The live catalog's table records, in catalog order.
    fn live_records(dir: &Path) -> Vec<FileRecord> {
        let catalog = read_catalog(dir).unwrap();
        let files = catalog.edges.into_iter().flat_map(|e| e.files);
        files.map(|f| f.record).collect()
    }

    /// Damage a committed table where it lies: `edit` gets the bytes of
    /// its range inside the segment.
    fn edit_range(dir: &Path, record: &FileRecord, edit: impl FnOnce(&mut [u8])) {
        let path = dir.join(&record.name);
        let mut bytes = std::fs::read(&path).unwrap();
        let start = record.offset as usize;
        edit(&mut bytes[start..start + record.len as usize]);
        std::fs::write(&path, &bytes).unwrap();
    }

    /// The data files (everything but the live catalog and the log) in
    /// `dir`, sorted.
    fn data_files(dir: &Path) -> Vec<String> {
        let mut names = list_dir(dir);
        names.retain(|n| n != CATALOG_FILE && n != wal::OPS_LOG_FILE);
        names.sort();
        names
    }

    #[test]
    fn save_open_roundtrip_plain_and_gzip() {
        for gzip in [false, true] {
            let dir = temp_dir(if gzip { "gz" } else { "plain" });
            let original = sample_manager();
            save(&original, &dir, gzip).unwrap();
            let reopened = open(&dir).unwrap();

            assert_eq!(reopened.array_names(), original.array_names());
            assert_eq!(reopened.n_edges(), 2);
            for (a, b) in [("A", "B"), ("B", "C")] {
                let t1 = original.stored_table(a, b).unwrap();
                let t2 = reopened.stored_table(a, b).unwrap();
                assert_eq!(*t1, *t2, "edge {a}->{b}, gzip={gzip}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn decode_on_three_workers_is_bit_identical() {
        for gzip in [false, true] {
            let dir = temp_dir(if gzip { "par-gz" } else { "par" });
            save(&sample_manager(), &dir, gzip).unwrap();
            let catalog = read_catalog(&dir).unwrap();
            let frefs = catalog.edges.iter().enumerate();
            let jobs: Vec<(usize, &FileRef)> = frefs.map(|(i, e)| (i, &e.files[0])).collect();
            assert_eq!(decode_workers(&jobs), 1, "a few hundred bytes stay inline");
            let inline = load_tables(&dir, &catalog, &jobs, 1).unwrap();
            assert_eq!(inline.len(), 2);
            assert_eq!(load_tables(&dir, &catalog, &jobs, 3).unwrap(), inline);

            // An error on any worker fails the load, as it does inline.
            edit_range(&dir, &jobs[1].1.record, |bytes| bytes[0] ^= 0x5a);
            for workers in [1, 3] {
                let loaded = load_tables(&dir, &catalog, &jobs, workers);
                assert!(matches!(loaded, Err(DslogError::Corrupt(_))));
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn decode_workers_follow_the_measured_crossover() {
        // `jobs` over `n` tables of `raw_len` bytes each.
        let workers_for_tables = |n: usize, raw_len: u64| {
            let frefs: Vec<FileRef> = (0..n)
                .map(|_| FileRef {
                    orientation: Orientation::Backward,
                    record: FileRecord {
                        name: "segment-0.g1.seg".to_string(),
                        len: raw_len,
                        crc: 0,
                        raw_len,
                        offset: 0,
                    },
                })
                .collect();
            let jobs: Vec<(usize, &FileRef)> = frefs.iter().enumerate().collect();
            decode_workers(&jobs)
        };
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        // The benchmark's `reopen` database: 96 tables, 954 027 bytes.
        assert_eq!(workers_for_tables(96, 954_027 / 96), 1);
        assert_eq!(workers_for_tables(96, 4_758_827 / 96), 1);
        // 10.6 MB: past the 8 MiB from which the pool won in every run.
        assert_eq!(workers_for_tables(96, 10_600_000 / 96), hw.min(2));
        assert_eq!(workers_for_tables(0, 0), 1);
    }

    #[test]
    fn lazy_open_matches_eager_open() {
        for gzip in [false, true] {
            let dir = temp_dir(if gzip { "lazy-gz" } else { "lazy" });
            let original = sample_manager();
            save(&original, &dir, gzip).unwrap();
            let lazy = open_lazy(&dir).unwrap();
            let eager = open(&dir).unwrap();
            assert_eq!(lazy.array_names(), eager.array_names());
            // Reported storage size must not depend on open mode (the
            // catalog records the plain serialized length for this).
            assert_eq!(lazy.storage_bytes(), eager.storage_bytes(), "gzip={gzip}");
            // First touch loads + verifies; result identical to eager.
            for (a, b) in [("A", "B"), ("B", "C")] {
                let t1 = lazy.stored_table(a, b).unwrap();
                let t2 = eager.stored_table(a, b).unwrap();
                assert_eq!(*t1, *t2, "edge {a}->{b}, gzip={gzip}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn lazy_open_detects_corruption_on_first_touch() {
        let dir = temp_dir("lazy-corrupt");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();
        // Flip a payload byte of the A->B table without changing any
        // length: the O(catalog) open succeeds, the first resolve must fail.
        let record = live_records(&dir).remove(0);
        edit_range(&dir, &record, |range| range[range.len() / 2] ^= 0xAA);

        let lazy = open_lazy(&dir).unwrap();
        assert!(matches!(
            lazy.resolve_hop("B", "A"),
            Err(DslogError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_open_rejects_truncated_file_up_front() {
        let dir = temp_dir("lazy-trunc");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();
        let path = dir.join(&live_records(&dir)[0].name);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        // The segment no longer holds its last range: even the lazy open
        // refuses immediately, and an eager one says the same.
        for result in [open_lazy(&dir), open(&dir)] {
            assert_eq!(
                result.map(drop).unwrap_err(),
                DslogError::Corrupt("edge file length mismatch")
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_is_io_error() {
        let err = open(Path::new("/nonexistent/dslog-db")).unwrap_err();
        assert!(matches!(err, DslogError::Io(_)));
    }

    #[test]
    fn corrupt_catalog_is_rejected() {
        let dir = temp_dir("corrupt");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();

        // Truncate the catalog.
        let path = dir.join(CATALOG_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(open(&dir).is_err());
        assert!(verify(&dir).is_err());

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(open(&dir), Err(DslogError::Corrupt(_))));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_edge_file_is_rejected() {
        let dir = temp_dir("edgecorrupt");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();
        // Flip bytes at the head of the second table's range (so in the
        // middle of the segment).
        let record = live_records(&dir).remove(1);
        assert!(record.offset > 0);
        edit_range(&dir, &record, |range| {
            range.iter_mut().take(8).for_each(|b| *b ^= 0xAA)
        });
        let damaged = DslogError::Corrupt("edge file checksum mismatch");
        assert_eq!(open(&dir).map(drop).unwrap_err(), damaged);
        assert_eq!(verify(&dir).map(drop).unwrap_err(), damaged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_edge_file_is_io_error() {
        let dir = temp_dir("missingedge");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();
        std::fs::remove_file(dir.join(&live_records(&dir)[0].name)).unwrap();
        assert!(matches!(open(&dir), Err(DslogError::Io(_))));
        assert!(verify(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resave_sweeps_stale_edge_files() {
        let dir = temp_dir("sweep");
        // Snapshot 1: two edges.
        let s = sample_manager();
        save(&s, &dir, false).unwrap();
        let before = data_files(&dir);
        assert_eq!(before.len(), 1);

        // Snapshot 2 into the same directory: ONE edge, different key — the
        // old segment must be gone afterwards and open must see only the
        // new edge set.
        let mut small = StorageManager::new();
        small.define_array("X", &[2]).unwrap();
        small.define_array("Y", &[2]).unwrap();
        let mut t = LineageTable::new(1, 1);
        t.push_row(&[0, 1]);
        t.push_row(&[1, 0]);
        small.ingest_lineage("X", "Y", &t).unwrap();
        save(&small, &dir, false).unwrap();

        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.n_edges(), 1);
        assert!(reopened.has_directed_edge("X", "Y"));
        assert!(!reopened.has_directed_edge("A", "B"));
        for old in &before {
            assert!(!dir.join(old).exists(), "stale file {old} survived");
        }
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gzip_plain_transitions_leave_no_leftovers() {
        let dir = temp_dir("gzflip");
        let s = sample_manager();
        for gzip in [true, false, true] {
            save(&s, &dir, gzip).unwrap();
            let report = verify(&dir).unwrap();
            assert_eq!(report.gzip, gzip);
            assert!(report.stale_files.is_empty(), "{:?}", report.stale_files);
            let reopened = open(&dir).unwrap();
            assert_eq!(reopened.n_edges(), 2);
            // Only the segment of the mode just written is left.
            assert_eq!(data_files(&dir).len(), 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_edge_write_and_catalog_commit_keeps_old_snapshot() {
        let dir = temp_dir("crash");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();

        // Simulate saves that died after writing a new-generation segment
        // (or its temp file) and a catalog temp file, but before the
        // catalog rename (the commit point): the debris must not affect
        // the live snapshot.
        std::fs::write(dir.join("segment-0.g99.seg"), b"partial garbage").unwrap();
        std::fs::write(dir.join("segment-0.g98.seg.tmp"), b"more garbage").unwrap();
        std::fs::write(dir.join("catalog.dsl.tmp"), b"uncommitted catalog").unwrap();

        // `verify` (read-only) reports the debris without touching it.
        let report = verify(&dir).unwrap();
        assert_eq!(report.files_verified, 2);
        assert!(!report.stale_files.is_empty());

        // Opening the snapshot sweeps the debris — a crashed process must
        // never leave junk a later generation can collide with.
        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.n_edges(), 2);
        let (t, _) = reopened.resolve_hop("B", "A").unwrap();
        assert_eq!(t.orientation(), Orientation::Backward);
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        assert_eq!(data_files(&dir).len(), 1);

        // Debris planted behind a live manager's back is not a commit's
        // business — it deletes exactly the files it un-referenced, never
        // by listing the directory; the next open reclaims it.
        std::fs::write(dir.join("segment-0.g77.seg"), b"junk again").unwrap();
        save(&s, &dir, false).unwrap();
        assert_eq!(verify(&dir).unwrap().stale_files, ["segment-0.g77.seg"]);
        open(&dir).unwrap();
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_with_path_escaping_file_name_rejected() {
        let dir = temp_dir("escape");
        std::fs::create_dir_all(&dir).unwrap();
        // Plant a perfectly decodable table file OUTSIDE the database dir.
        let s = sample_manager();
        let table = s.stored_table("A", "B").unwrap();
        let bytes = format::serialize(&table);
        let outside = std::env::temp_dir().join(format!("dslog-escape-{}.tbl", std::process::id()));
        std::fs::write(&outside, &bytes).unwrap();

        // With a `segment-x` directory in the database, the second name
        // passes the prefix check and resolves to the planted file.
        std::fs::create_dir_all(dir.join("segment-x")).unwrap();
        let outside_name = outside.file_name().unwrap().to_str().unwrap();
        for evil in [
            format!("../{outside_name}"),
            format!("segment-x/../../{outside_name}"),
        ] {
            // Hand-build an otherwise-valid catalog (correct crc trailer)
            // whose table reference tries to traverse out of the dir.
            let mut catalog = Vec::new();
            catalog.extend_from_slice(CATALOG_MAGIC_V3);
            catalog.push(0); // plain
            write_uvarint(&mut catalog, 1); // generation
            write_uvarint(&mut catalog, 2); // arrays
            for (name, shape) in [("A", vec![3usize, 2]), ("B", vec![3])] {
                write_string(&mut catalog, name);
                write_uvarint(&mut catalog, shape.len() as u64);
                for d in shape {
                    write_uvarint(&mut catalog, d as u64);
                }
            }
            write_uvarint(&mut catalog, 1); // one edge
            write_string(&mut catalog, "A");
            write_string(&mut catalog, "B");
            catalog.push(1); // backward only
            write_string(&mut catalog, &evil);
            write_uvarint(&mut catalog, bytes.len() as u64);
            catalog.extend_from_slice(&crc32(&bytes).to_le_bytes());
            write_uvarint(&mut catalog, bytes.len() as u64);
            write_uvarint(&mut catalog, 0); // offset
            let trailer = crc32(&catalog);
            catalog.extend_from_slice(&trailer.to_le_bytes());
            std::fs::write(dir.join(CATALOG_FILE), &catalog).unwrap();

            for result in [
                open(&dir).map(drop),
                open_lazy(&dir).map(drop),
                verify(&dir).map(drop),
            ] {
                assert_eq!(
                    result.unwrap_err(),
                    DslogError::Corrupt("catalog references an illegal file name"),
                    "{evil}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_file(&outside).unwrap();
    }

    #[test]
    fn saving_a_lazily_opened_database_streams_bytes() {
        for (save_gzip, resave_gzip) in [(false, false), (false, true), (true, false)] {
            let dir = temp_dir(&format!("lazysave-{save_gzip}-{resave_gzip}"));
            let dir2 = temp_dir(&format!("lazysave2-{save_gzip}-{resave_gzip}"));
            save(&sample_manager(), &dir, save_gzip).unwrap();

            // Re-save a lazily opened database without touching any edge:
            // contents must roundtrip bit-exactly at the table level, in
            // both same-compression and flipped-compression modes.
            let lazy = open_lazy(&dir).unwrap();
            save(&lazy, &dir2, resave_gzip).unwrap();
            assert!(verify(&dir2).unwrap().stale_files.is_empty());
            let reopened = open(&dir2).unwrap();
            let original = open(&dir).unwrap();
            for (a, b) in [("A", "B"), ("B", "C")] {
                assert_eq!(
                    *original.stored_table(a, b).unwrap(),
                    *reopened.stored_table(a, b).unwrap(),
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&dir2).unwrap();
        }
    }

    /// Ingest one extra tiny edge into a manager (fresh arrays each call).
    fn add_small_edge(s: &mut StorageManager, tag: usize) {
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

    #[test]
    fn commit_into_bound_dir_is_incremental() {
        let dir = temp_dir("incremental");
        let mut s = sample_manager();
        // First commit into an unbound manager: full save, 2 tables.
        let first = commit(&s, &dir, false).unwrap();
        assert!(!first.incremental);
        assert_eq!((first.files_written, first.files_reused), (2, 0));

        // Append one edge and re-commit: only the new edge is written,
        // both old tables are reused, generation bumps.
        let before = live_records(&dir);
        add_small_edge(&mut s, 0);
        let second = commit(&s, &dir, false).unwrap();
        assert!(second.incremental);
        assert_eq!((second.files_written, second.files_reused), (1, 2));
        assert_eq!(second.generation, first.generation + 1);
        // The reused tables are the same physical ranges, and the new one
        // went into the second generation's segment.
        let after = live_records(&dir);
        assert!(
            before.iter().all(|r| after.contains(r)),
            "{before:?} {after:?}"
        );
        assert_eq!(after.len(), 3);
        assert_eq!(after[2].name, segment_file_name(second.generation));

        // Nothing dirty: a no-op commit writes no table and no segment.
        let third = commit(&s, &dir, false).unwrap();
        assert_eq!((third.files_written, third.files_reused), (0, 3));
        assert_eq!(third.bytes_written, 0);
        assert_eq!(data_files(&dir).len(), 2);

        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.n_edges(), 3);
        assert_eq!(
            *reopened.stored_table("X0", "Y0").unwrap(),
            *s.stored_table("X0", "Y0").unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forward_query_leaves_commit_nothing_to_write() {
        let dir = temp_dir("inc-forward");
        let s = sample_manager();
        commit(&s, &dir, false).unwrap();
        // A forward hop reads the stored backward table in reverse: it
        // dirties nothing, so the next commit reuses both tables.
        let reopened = open(&dir).unwrap();
        let (hop, _) = reopened.resolve_hop("A", "B").unwrap();
        assert_eq!(hop.table().orientation(), Orientation::Backward);
        let report = commit(&reopened, &dir, false).unwrap();
        assert!(report.incremental);
        assert_eq!((report.files_written, report.files_reused), (0, 2));
        assert_eq!(verify(&dir).unwrap().files_verified, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_survives_externally_deleted_clean_file() {
        let dir = temp_dir("inc-tamper");
        let mut s = sample_manager();
        commit(&s, &dir, false).unwrap();
        // Delete the committed segment behind the manager's back: the next
        // incremental commit must notice (O(1) stat) and rewrite its
        // tables from the in-memory slots instead of committing dangling
        // references.
        std::fs::remove_file(dir.join(&live_records(&dir)[0].name)).unwrap();
        add_small_edge(&mut s, 0);
        let report = commit(&s, &dir, false).unwrap();
        assert!(report.incremental);
        // The new edge + the two tables the victim held.
        assert_eq!((report.files_written, report.files_reused), (3, 0));
        verify(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_sources_follow_a_same_dir_rewrite() {
        // A full rewrite into the same directory (gzip conversion of a
        // lazily opened database) sweeps the old files; the lazy OnDisk
        // slots must be repointed at the new files or every later load
        // would hit a missing path.
        let dir = temp_dir("lazy-rewrite");
        save(&sample_manager(), &dir, false).unwrap();
        let lazy = open_lazy(&dir).unwrap();
        let report = commit(&lazy, &dir, true).unwrap();
        assert!(!report.incremental);
        assert_eq!(report.files_written, 2);
        let (t, _) = lazy.resolve_hop("B", "A").unwrap();
        assert_eq!(t.orientation(), Orientation::Backward);
        // And the rewrite round-trips: the re-read gzip content matches.
        assert_eq!(
            *lazy.stored_table("B", "C").unwrap(),
            *open(&dir).unwrap().stored_table("B", "C").unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gzip_flip_forces_full_rewrite() {
        let dir = temp_dir("inc-gzflip");
        let s = sample_manager();
        commit(&s, &dir, false).unwrap();
        // Same dir, flipped gzip: records are for plain files, so the
        // commit must rewrite everything in the new format.
        let report = commit(&s, &dir, true).unwrap();
        assert!(!report.incremental);
        assert_eq!((report.files_written, report.files_reused), (2, 0));
        // …and having re-bound as gzip, the next commit is incremental.
        let report = commit(&s, &dir, true).unwrap();
        assert!(report.incremental);
        assert_eq!((report.files_written, report.files_reused), (0, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_passes_across_three_generations() {
        for gzip in [false, true] {
            let dir = temp_dir(if gzip { "gens-gz" } else { "gens" });
            let mut s = sample_manager();
            let mut last_gen = 0;
            for step in 0..3 {
                if step > 0 {
                    add_small_edge(&mut s, step);
                }
                let report = commit(&s, &dir, gzip).unwrap();
                assert!(report.generation > last_gen);
                last_gen = report.generation;
                let v = verify(&dir).unwrap();
                assert_eq!(v.n_edges, 2 + step);
                assert!(v.stale_files.is_empty(), "{:?}", v.stale_files);
                assert_eq!(v.gzip, gzip);
            }
            // Mixed-generation snapshot reopens identically, eager + lazy.
            for reopened in [open(&dir).unwrap(), open_lazy(&dir).unwrap()] {
                assert_eq!(reopened.n_edges(), 4);
                for (a, b) in [("A", "B"), ("X1", "Y1"), ("X2", "Y2")] {
                    assert_eq!(
                        *reopened.stored_table(a, b).unwrap(),
                        *s.stored_table(a, b).unwrap(),
                        "edge {a}->{b}, gzip={gzip}"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Every edge's decompressed backward relation (rendered), for
    /// comparing a generation's content across commits and `AsOf` opens.
    fn contents(s: &StorageManager) -> String {
        let rows = |key: &EdgeName| {
            let table = s.stored_table(key.input(), key.output()).unwrap();
            table.decompress().unwrap().row_set()
        };
        let edges: Vec<_> = (s.sorted_edges().into_iter())
            .map(|(k, _)| (k, rows(k)))
            .collect();
        format!("{edges:?}")
    }

    #[test]
    fn segment_lives_until_its_last_live_or_retained_range_dies() {
        let dir = temp_dir("seglife");
        let mut s = sample_manager();
        s.retain = 1;
        // What each generation held when it was live; checked again through
        // `AsOf` for as long as the window keeps it.
        let mut seen: Vec<(u64, String)> = Vec::new();
        let mut commit_and_check = |s: &StorageManager| {
            let report = commit(s, &dir, false).unwrap();
            seen.push((report.generation, contents(s)));
            let kept = seen.len().saturating_sub(2);
            for (generation, held) in &seen[kept..] {
                let old = super::open(&dir, OpenMode::AsOf(*generation)).unwrap();
                assert_eq!(&contents(&old), held, "as of {generation}");
            }
            if let Some((generation, _)) = kept.checked_sub(1).map(|i| &seen[i]) {
                let gone = super::open(&dir, OpenMode::AsOf(*generation));
                assert!(matches!(gone, Err(DslogError::GenerationNotRetained(_))));
            }
            let v = verify(&dir).unwrap();
            assert!(v.stale_files.is_empty(), "{:?}", v.stale_files);
            (report, v.dead_bytes)
        };
        let reverse = |s: &mut StorageManager, a: &str, b: &str| {
            let in_arity = s.array(a).unwrap().ndim();
            let mut t = LineageTable::new(1, in_arity);
            for i in 0..3 {
                let mut row = vec![0; 1 + in_arity];
                (row[0], row[1]) = (i, 2 - i);
                t.push_row(&row);
            }
            s.ingest_lineage(a, b, &t).unwrap();
        };

        // A->B and B->C go into one segment.
        let (first, dead) = commit_and_check(&s);
        assert_eq!((first.files_written, dead), (2, 0));
        let segment = dir.join(segment_file_name(first.generation));
        let old_ab = live_records(&dir).remove(0);

        // Replace A->B: its old range is still the retained generation's,
        // and B->C is live in the same segment.
        reverse(&mut s, "A", "B");
        let (second, dead) = commit_and_check(&s);
        assert_eq!((second.files_written, second.files_reused), (1, 1));
        assert_eq!((segment.exists(), dead), (true, 0));

        // The first generation leaves the window: nothing names A->B's old
        // range any more, but live B->C pins the segment it lies in.
        let (_, dead) = commit_and_check(&s);
        assert_eq!((segment.exists(), dead), (true, old_ab.len));

        // Replace B->C too. The segment goes with the last generation that
        // names a range in it — not before, and without a compaction.
        reverse(&mut s, "B", "C");
        let (_, dead) = commit_and_check(&s);
        assert_eq!((segment.exists(), dead), (true, old_ab.len));
        let (_, dead) = commit_and_check(&s);
        assert_eq!((segment.exists(), dead), (false, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_crash_debris() {
        for lazy in [false, true] {
            let dir = temp_dir(if lazy { "osweep-lazy" } else { "osweep" });
            let s = sample_manager();
            save(&s, &dir, false).unwrap();
            // An orphan segment, an orphan retained catalog, temp files.
            let debris = [
                "segment-0.g42.seg",
                "segment-0.g43.seg.tmp",
                "catalog.g41.dsl",
                "catalog.dsl.tmp",
            ];
            for name in debris {
                std::fs::write(dir.join(name), b"junk").unwrap();
            }
            let opened = if lazy {
                open_lazy(&dir).unwrap()
            } else {
                open(&dir).unwrap()
            };
            assert_eq!(opened.n_edges(), 2);
            assert_eq!(data_files(&dir).len(), 1);
            assert!(verify(&dir).unwrap().stale_files.is_empty());
            // The lazily opened manager still loads its (referenced,
            // unswept) tables fine after the sweep.
            opened.resolve_hop("B", "A").unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn verify_reports_healthy_database() {
        let dir = temp_dir("verify");
        let s = sample_manager();
        s.resolve_hop("A", "B").unwrap(); // a forward hop stores nothing
        save(&s, &dir, true).unwrap();
        let report = verify(&dir).unwrap();
        assert!(report.gzip);
        assert_eq!(report.n_arrays, 3);
        assert_eq!(report.n_edges, 2);
        assert_eq!(report.files_verified, 2); // one table per edge
        assert!(report.stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
