//! Directory-backed persistence for the storage manager.
//!
//! The paper serves its compressed lineage tables from files on disk
//! ("We measured the file size of the database files that were ultimately
//! served to DuckDB", §VII.C); this module gives DSLog the same durable
//! form:
//!
//! ```text
//! <dir>/
//!   segment-0.g<g>.seg  the tables generation g wrote, back to back
//!   ops.log             the live operation log (see [`super::wal`]): a
//!                       checkpoint record — arrays, and per edge its
//!                       backward table's range — then the commits since
//!   ops.g<s>.log        a retired log, whose checkpoint holds generation
//!                       s: the audit trail, and what `as_of` replays
//!   writer.lock         the lock every writer holds (see below)
//! ```
//!
//! The log is the database. Open replays the live log alone: its first
//! transaction is a checkpoint, and every later one an incremental commit.
//! An `as_of` open, and the retention window's walk, replay the retired
//! log that holds the generation asked for and the logs after it. A live
//! log missing beside the database's files, or one that does not start
//! with a checkpoint, is `Corrupt`, and so is a directory in a form only
//! earlier builds wrote (a log holding a record of a retired kind); nothing
//! in it is truncated or swept.
//!
//! ## Atomicity
//!
//! A commit on a remembered tail (see below) has one commit point, the
//! fdatasync of its log record: segment (written and fdatasynced under a
//! generation-qualified name no record names yet) → directory sync → log
//! append + fdatasync. Three syncs; a commit that wrote no segment skips
//! the first two. A crash before the log fdatasync leaves the previous
//! generation (the segment is debris the next commit deletes), from it on
//! the new one.
//!
//! A checkpoint commit starts a fresh log instead: a full save, a gzip
//! conversion, a compaction, a commit whose tail had to be rebuilt, and
//! one that makes a checkpoint due — once the tables committed since the
//! live checkpoint would reach its edge count, amortized O(1) per table,
//! so a replay never applies more tables than the checkpoint holds. It
//! writes segment + fdatasync → `ops.log.tmp` (the checkpoint record, the
//! flushed operations, the commit record) + fdatasync → the live log kept
//! as `ops.g<s>.log` (a hard link) → directory sync → rename → directory
//! sync; the rename is its commit point. After any commit, the segments
//! only generations leaving the retention window needed are deleted; the
//! retired logs are kept. Every write and sync passes the manager's
//! [`wal::IoPolicy`] (the one fault injector), if one was installed.
//!
//! What fails after the commit point only costs what the manager
//! remembers: the manager forgets its tail, so the next commit rebuilds it
//! and writes a checkpoint. Since the log is the only copy of what was
//! committed after its checkpoint, damage to it that hides such a commit,
//! or a commit record that cannot be applied, makes [`open`], `as_of` and
//! [`verify`] fail with [`DslogError::Corrupt`], touching nothing (see
//! [`super::wal`]).
//!
//! ## One writer
//!
//! A handle's first commit into a directory takes an exclusive lock on
//! `writer.lock` ([`std::fs::File::try_lock`]) and the binding holds it for
//! the handle's life, shared by its epoch clones; a second writer — another
//! handle in this process or another process — gets
//! [`DslogError::DirectoryLocked`] and writes nothing. The lock dies with
//! its process, so crash recovery does not change. Readers take no lock and
//! write nothing: a reader racing a commit sees the writer's in-flight log
//! append as a torn tail, the end of its log. A handle that takes the lock
//! and finds a generation newer than the one it opened or last committed
//! (another writer committed in between) is refused with
//! [`DslogError::StaleGeneration`] and writes nothing: it is never rebuilt
//! into a checkpoint of state that would revert that commit.
//!
//! ## The remembered tail
//!
//! The binding carries a `LogTail` — where the live log ends and which file
//! it is, the generation the next commit takes, the committed generation
//! (every edge's range), the live checkpoint's generation and size, the
//! retention window and the segments it needs — shared by every epoch
//! clone, built by [`open`] through `load_tail` and advanced by each commit
//! the way a replay of its records would be. So a commit into the bound
//! directory reads back nothing this manager wrote. The tail is believed
//! only while `ops.log` is the file, and the length, it remembers (one
//! `metadata`); otherwise — an unbound or foreign target, a failed commit,
//! a log an open found longer than its vouched prefix — the commit runs
//! `load_tail` again (for the bound directory, a damaged log fails the
//! commit) and writes a checkpoint (holding each clean range against its
//! segment's length first, one `stat` per segment, and rewriting what does
//! not fit from the slots). The fresh log leaves the torn or unvouched
//! tail in the retired one, where every reader ignores it.
//!
//! `load_tail` is the one place that lists the directory: the tail carries
//! the files the listing found that no generation of the window needs
//! (crashed-commit debris, `*.tmp` leftovers, and a retired log named for
//! the live log's own checkpoint, which a commit that died before its
//! rename left), which [`verify`] reports and the next commit deletes with
//! the files it stopped referencing. So only a commit writes a database
//! directory: [`open`] (eager, lazy or `as_of`), [`verify`] and
//! [`wal::history`] read it and change nothing.
//!
//! ## Incremental commits
//!
//! A commit into the *bound* directory (opened from or last committed into,
//! same `gzip` mode) visits only the edges its buffered `IngestEdge`
//! records name and appends the bytes each dirty slot kept since ingest
//! serialized its table, so appending one edge costs O(new edge), not
//! O(database) — nor O(history). A commit into any other directory (or
//! with a flipped `gzip` flag) is a full save that re-binds the manager;
//! [`compact`](super::compact::compact) is a checkpoint commit that
//! reuses nothing. A segment is deleted whole, when the last live or
//! retained range in it dies; until then a superseded table in it is
//! [`VerifyReport::dead_bytes`]. A commit beside an [`open`] may delete a
//! segment the open's replay has just named; the open then finds `ops.log`
//! longer, or another file, than it read and reads the directory again (a
//! bounded number of times, then the `Io` error stands). A lazily opened
//! handle has no such second read: once a later commit deletes a segment
//! its generation names, its first touch of that table fails with `Io`.
//!
//! ## Verify once
//!
//! Every read of a table — eager open, a lazy slot's first touch, an
//! `AsOf` open, [`verify`] — goes through `load_table_file`, which
//! checksums a plain table's range in one pass: the trailer must hold the
//! body's crc32, and so must the record that installed the range (a commit
//! record's table or a checkpoint's edge), so a well-formed table that is
//! not the one committed fails too. A gzip table's record holds its
//! container's crc32.
//!
//! Each edge persists its one table, the backward one; a table that loads
//! in the other orientation is `Corrupt`. The reuse predictor's tables are
//! not persisted (§VI.C).

use super::catalog::{Catalog, Log, Replay};
use super::wal::{self, Checkpoint, IoPolicy, OpKind, OpRecord};
use super::{format, DiskTable, Edge, FileRecord, Slot, StorageManager, Stored, TableSource};
use crate::error::{DslogError, Result};
use crate::par;
use crate::table::Orientation;
use dslog_codecs::crc32::crc32;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The lock file a writer of a database directory holds (see the module
/// docs); it holds no data.
pub const LOCK_FILE: &str = "writer.lock";

/// The segment generation `gen` writes its tables into. The generation
/// makes the name unique per commit, so a commit in progress can never
/// clobber a file a committed generation still references.
fn segment_file_name(gen: u64) -> String {
    format!("segment-0.g{gen}.seg")
}

/// Extract the generation from a generation-qualified file name —
/// `segment-<k>.g<gen>.seg` or a retired log `ops.g<gen>.log` (also
/// matches leftover `.tmp` siblings). `None` for any other name.
fn parse_generation(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("segment-")
        .or_else(|| name.strip_prefix("ops"))?;
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

/// Flush directory metadata so preceding creates/renames/unlinks in `dir`
/// are durable. Without this, a power loss can persist a log record or a
/// log rename but not the segment it depends on. No-op error-wise on
/// platforms where directories cannot be opened for sync.
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

/// Create (or truncate) `path`, write `bytes` and fdatasync — for a file no
/// committed generation names yet. Every write and sync is gated by the
/// fault-injection `policy` (if any).
fn write_synced(
    path: &Path,
    bytes: &[u8],
    what: &'static str,
    policy: Option<&IoPolicy>,
) -> Result<()> {
    let _io = dslog_sync::io_guard("persist::write_synced");
    let mut f = std::fs::File::create(path).map_err(|e| DslogError::io(what, e))?;
    wal::policy_write(&mut f, bytes, what, policy)?;
    // fdatasync, not fsync: for a fresh file the data and size are what
    // crash recovery needs; its directory entry becomes durable at the
    // next directory sync either way.
    wal::policy_sync(&f, what, policy)
}

/// Take `dir`'s writer lock ([`LOCK_FILE`]), creating the file if needed;
/// [`DslogError::DirectoryLocked`] while another handle holds it.
fn lock_dir(dir: &Path) -> Result<Arc<std::fs::File>> {
    let _io = dslog_sync::io_guard("persist::lock_dir");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(dir.join(LOCK_FILE))
        .map_err(|e| DslogError::io("open writer lock", e))?;
    match file.try_lock() {
        Ok(()) => Ok(Arc::new(file)),
        Err(std::fs::TryLockError::WouldBlock) => Err(DslogError::DirectoryLocked),
        Err(std::fs::TryLockError::Error(e)) => Err(DslogError::io("take writer lock", e)),
    }
}

/// What one [`commit`] — or one [`compact`](super::compact::compact), which
/// is a commit — did: generation it committed, and how much of the
/// database it actually had to rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReport {
    /// Generation committed.
    pub generation: u64,
    /// Whether the target was the bound directory in its bound `gzip`
    /// mode (`false` for a full save into an unbound directory or with a
    /// flipped `gzip` mode).
    pub incremental: bool,
    /// Tables (one per edge) serialized and written into this
    /// generation's segment.
    pub files_written: usize,
    /// Tables left where earlier generations wrote them (clean slots);
    /// always 0 for a compaction.
    pub files_reused: usize,
    /// Byte length of the segment written (excludes the log).
    pub bytes_written: u64,
}

/// Whether a directory entry is one of ours and subject to sweeping:
/// segments and retired logs (never the live `ops.log`).
fn is_data_file(name: &str) -> bool {
    name.starts_with("segment-") || name.starts_with("ops.g")
}

/// The byte length of each segment a rebuilt commit's clean slots
/// reference, `stat`ed on first ask (`None`: the file is gone): the tamper
/// guard of a commit that could not trust its tail, one `stat` per
/// referenced segment.
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

/// Append one table's plain serialized bytes (gzipped first in `gzip`
/// mode) to `segment`, the generation file `name`, and return the record
/// of the range it now occupies. A plain table's crc is its body crc — the
/// trailer its bytes end in, no second pass over them.
fn append_table(segment: &mut Vec<u8>, name: &str, gzip: bool, plain: &[u8]) -> FileRecord {
    let offset = segment.len() as u64;
    let crc = if gzip {
        let packed = dslog_codecs::gzip::compress(plain);
        segment.extend_from_slice(&packed);
        crc32(&packed)
    } else {
        segment.extend_from_slice(plain);
        wal::trailer_crc(plain)
    };
    FileRecord {
        name: name.to_string(),
        len: segment.len() as u64 - offset,
        crc,
        raw_len: plain.len() as u64,
        offset,
    }
}

/// What a manager remembers about the directory it is bound to, so a
/// commit reads back nothing it wrote itself: where the live log ends, the
/// committed database, and what the generations it must spare need. Lives
/// in the persistence binding (shared by epoch clones); built from the
/// directory by `load_tail`, advanced by every successful commit, and
/// dropped — hence rebuilt by the next commit — whenever a commit fails or
/// the directory no longer looks the way the tail left it.
#[derive(Debug, Default)]
pub(crate) struct LogTail {
    /// Byte length of the live log's vouched prefix: the append position.
    clean_len: u64,
    /// The live log's identity (see [`wal::file_id`]).
    log_id: u64,
    /// Highest op id in that prefix (0 for no log).
    last_op_id: u64,
    /// Generation the next commit uses: one past every generation the
    /// directory's file names and log carried when the tail was built or
    /// advanced.
    next_gen: u64,
    /// The live log's checkpoint: its generation and edge count.
    checkpoint: (u64, usize),
    /// Tables committed by records since that checkpoint.
    since_checkpoint: usize,
    /// The start generations of this database's retired logs, oldest
    /// through newest. A retired log outside them (one a commit that died
    /// before its rename left, or any of a database this one replaced) is
    /// stale.
    history: std::ops::Range<u64>,
    /// The committed database and the segments it and the window use.
    replay: Replay,
    /// The committed generations the retention window keeps, oldest first;
    /// the last is the live one.
    window: VecDeque<u64>,
    /// The files the listing this tail was built from held and the tail
    /// condemns, sorted: what [`verify`] reports as stale and the next
    /// commit deletes.
    stale: Vec<String>,
}

impl LogTail {
    /// How many distinct segment files the live generation references.
    pub(crate) fn live_files(&self) -> usize {
        self.replay.live.len()
    }

    /// The oldest generation the window keeps once a commit of `gen` under
    /// a `retain`-generation policy enters it.
    fn retained_from(&self, gen: u64, retain: usize) -> u64 {
        match retain.min(self.window.len()) {
            0 => gen,
            older => self.window[self.window.len() - older],
        }
    }

    /// The single source of truth for what a sweep must leave alone —
    /// shared by every commit and [`verify`], so no caller can invent its
    /// own (weaker) sparing rule and delete a file the live generation or
    /// the retention window still needs: every segment the live generation
    /// references or a window generation did, and every retired log of
    /// this database's history.
    fn spares(&self, name: &str) -> bool {
        let w0 = self.window.front().copied().unwrap_or(0);
        self.replay.live.contains_key(name)
            || (self.replay.dead.iter()).any(|(last, n)| n == name && *last >= w0)
            || wal::retired_start(name).is_some_and(|s| self.history.contains(&s))
    }

    /// Whether a sweep deletes `name`: `*.tmp` debris, or a data file (see
    /// [`is_data_file`]) the tail does not spare.
    fn condemns(&self, name: &str) -> bool {
        name.ends_with(".tmp") || (is_data_file(name) && !self.spares(name))
    }

    /// Note, among the listed `names`, the files the tail condemns, sorted.
    fn classify(mut self, names: &[String]) -> Self {
        self.stale = (names.iter())
            .filter(|n| self.condemns(n))
            .cloned()
            .collect();
        self.stale.sort();
        self
    }

    /// Enter committed generation `gen` into the window, trim the window
    /// to `retain` older generations, and return the segments only the
    /// generations that left needed.
    fn enter(&mut self, gen: u64, retain: usize) -> Vec<String> {
        self.window.push_back(gen);
        while self.window.len() > retain + 1 {
            self.window.pop_front();
        }
        let w0 = self.window.front().copied().unwrap_or(gen);
        let mut gone: Vec<String> = Vec::new();
        let live = &self.replay.live;
        self.replay.dead.retain(|(last, name)| {
            let keep = *last >= w0;
            if !keep && !live.contains_key(name) {
                gone.push(name.clone());
            }
            keep
        });
        gone
    }
}

/// Replay `dir`'s logs from the one holding generation `from` through
/// generation `until`: the newest retired log (among the listed `names`)
/// starting at or before `from` — the oldest one, if none does — every
/// later one, then the `live` log. Calls `visit` with every generation it
/// reached.
fn walk(
    dir: &Path,
    names: &[String],
    live: &Log,
    (from, until): (u64, u64),
    mut visit: impl FnMut(&Catalog),
) -> Result<Replay> {
    let retired = wal::retired_starts(names, live.checkpoint.0);
    let first = match from < live.checkpoint.0 {
        true => retired.iter().rposition(|&s| s <= from).unwrap_or(0),
        false => retired.len(),
    };
    let mut replay = Replay::default();
    for &s in retired[first..].iter().filter(|&&s| s <= until) {
        replay.run(&Log::retired(dir, s)?, until, &mut visit)?;
    }
    replay.run(live, until, &mut visit)?;
    Ok(replay)
}

/// Rebuild what a manager remembers of `dir` ([`LogTail`]) from the
/// directory itself — the one routine behind [`open`], `as_of`, [`verify`]
/// and a commit whose remembered tail is missing or stale. Replays the live
/// `log` (one transaction it cannot apply is `Corrupt`, see
/// [`Replay::run`], and so is damage that hides one), rebuilds the
/// retention window the last commit recorded — walking the retired logs
/// if the window reaches back past the live checkpoint — and classifies
/// the directory's listed `names` against it. Reads only.
///
/// The generation the next commit must use is one past anything present —
/// every generation the log or a file name carries (leftover
/// higher-generation debris from a crashed commit must not be reused while
/// a concurrent reader might still stat it).
fn load_tail(dir: &Path, names: &[String], log: &Log) -> Result<LogTail> {
    let mut gens = Vec::new();
    let mut replay = Replay::default();
    let since_checkpoint = replay.run(log, u64::MAX, |s| gens.push(s.generation))?;
    // Damage to the log hides the commits past it: refused unless the
    // records before it already hold them.
    if log.beyond_damage > Some(replay.state.generation) {
        return Err(DslogError::Corrupt("log damaged before committed records"));
    }
    let last_commit = *log.commits.last().unwrap_or(&0);
    let start = log.checkpoint.0;
    let retained_from = match &log.records[last_commit].kind {
        OpKind::Commit { retained_from, .. } => *retained_from,
        _ => start,
    };
    if retained_from < start {
        // History only: a walk that cannot reach the live generation leaves
        // the window to what the live log replays.
        let mut window_gens = Vec::new();
        let range = (retained_from, u64::MAX);
        match walk(dir, names, log, range, |s| window_gens.push(s.generation)) {
            Ok(walked) if walked.state.generation == replay.state.generation => {
                (replay, gens) = (walked, window_gens)
            }
            _ => {}
        }
    }
    let w0 = retained_from.max(gens[0]);
    let retired = wal::retired_starts(names, start);
    let tail = LogTail {
        clean_len: log.ends[last_commit] as u64,
        log_id: log.id.1,
        last_op_id: log.records[last_commit].op_id,
        next_gen: next_generation(names, log, replay.state.generation),
        checkpoint: log.checkpoint,
        since_checkpoint,
        history: match (retired.first(), retired.last()) {
            (Some(&oldest), Some(&newest)) => oldest..newest + 1,
            _ => 0..0,
        },
        replay,
        window: gens.into_iter().filter(|&g| g >= w0).collect(),
        stale: Vec::new(),
    };
    Ok(tail.classify(names))
}

/// A slot a commit wrote, to be marked clean once the commit point passed.
type WrittenSlot = (Arc<Edge>, FileRecord);

/// A table a record commit writes: the index of the `IngestEdge` record
/// naming its edge, the edge, and the bytes its slot kept.
type DirtyTable<'a> = (usize, &'a Arc<Edge>, Arc<Vec<u8>>);

/// One past every generation the directory carries: in the log, in a file
/// name, or `committed`.
fn next_generation(names: &[String], log: &Log, committed: u64) -> u64 {
    (log.records.iter().map(|r| r.gen_after))
        .chain(names.iter().filter_map(|n| parse_generation(n)))
        .fold(committed, u64::max)
        .saturating_add(1)
}

/// A commit in flight. [`begin`](Self::begin) takes the manager's commit
/// lock, the directory's writer lock and the remembered log tail
/// (rebuilding it from the directory when it cannot be trusted) and fixes
/// the generation; [`commit_records`](Self::commit_records) and
/// [`commit_checkpoint`](Self::commit_checkpoint) are the two protocols,
/// and [`finish`](Self::finish) what both do once their commit point
/// passed.
struct CommitSession<'a> {
    storage: &'a StorageManager,
    // Held for the whole commit: serializes concurrent commits on this
    // manager (two interleaved writers would race the generation counter
    // and each other's sweeps). The binding mutex itself is taken only
    // briefly, so binding readers (service stats) never wait on IO.
    _serialize: dslog_sync::MutexGuard<'a, ()>,
    /// The directory's writer lock, kept by the binding once it commits.
    lock: Arc<std::fs::File>,
    dir: PathBuf,
    gzip: bool,
    /// The target is the bound directory in its bound gzip mode.
    incremental: bool,
    /// Same directory, flipped gzip mode: an in-place conversion of the
    /// bound database, not a replacement — its operation log carries over
    /// (with a conversion record).
    conversion: bool,
    /// The buffered operations this commit flushes: the prefix whose
    /// effects this snapshot holds (operations arriving concurrently for a
    /// newer epoch stay buffered for the next commit).
    pending: Vec<wal::PendingOp>,
    actor: String,
    tail: LogTail,
    /// The tail was rebuilt from the directory for this commit, which may
    /// therefore differ from what the manager holds (a failed commit, the
    /// database a full save replaces, a log longer than its vouched
    /// prefix): the commit writes a checkpoint.
    rebuilt: bool,
    /// Generation this commit writes.
    gen: u64,
    /// The oldest generation the window keeps once `gen` enters it.
    retained_from: u64,
}

impl<'a> CommitSession<'a> {
    /// `dir` must be canonical (so `open("./db")` then `commit("db")`
    /// still matches the binding). The records this commit itself logs
    /// name `actor`, or the manager's configured one for `None`.
    fn begin(
        storage: &'a StorageManager,
        dir: PathBuf,
        gzip: bool,
        actor: Option<&str>,
    ) -> Result<Self> {
        let serialize = storage.commit_lock.lock();
        let (bound, held, tail) = {
            let mut binding = storage.binding.lock();
            let mut bound = binding.as_mut().filter(|b| b.dir == dir);
            let tail = bound.as_mut().and_then(|b| b.tail.take());
            let held = bound.as_ref().and_then(|b| b.lock.clone());
            (bound.map(|b| (b.gzip, b.generation)), held, tail)
        };
        let lock = match &held {
            Some(lock) => Arc::clone(lock),
            None => lock_dir(&dir)?,
        };
        // The remembered tail stands while the live log is still the file,
        // and the length, the tail left it at.
        let trusted = tail.filter(|tail| wal::log_id(&dir) == Some((tail.clean_len, tail.log_id)));
        let rebuilt = trusted.is_none();
        let tail = match (trusted, bound) {
            (Some(tail), _) => tail,
            // The bound database's log holds the generations committed
            // since its checkpoint: damage to it errs, and the directory
            // stays as it is.
            (None, Some(_)) => {
                let names = list_dir(&dir);
                load_tail(&dir, &names, &Log::live(&dir, &names)?)?
            }
            // An unbound or foreign target starts a fresh log and retains
            // nothing: whatever the directory holds describes the database
            // being replaced, not this manager — its data files and logs
            // are all stale. Its generations stay below the new one all the
            // same.
            (None, None) => {
                let names = list_dir(&dir);
                let log = Log::live(&dir, &names).unwrap_or_default();
                let tail = LogTail {
                    next_gen: next_generation(&names, &log, 0),
                    ..LogTail::default()
                };
                tail.classify(&names)
            }
        };
        // A handle that takes the lock only now must not commit over a
        // generation another writer committed since it last saw the
        // directory; with the lock held, every newer one is its own.
        if let Some((_, seen)) = bound.filter(|_| held.is_none()) {
            let committed = tail.replay.state.generation;
            if committed > seen {
                return Err(DslogError::StaleGeneration {
                    bound: seen,
                    committed,
                });
            }
            if let Some(binding) = storage.binding.lock().as_mut() {
                binding.lock = Some(Arc::clone(&lock));
            }
        }
        let visible = |op: &wal::PendingOp| match &op.kind {
            OpKind::DefineArray { name, .. } => storage.array(name).is_ok(),
            OpKind::IngestEdge {
                in_array,
                out_array,
                ..
            } => storage.has_directed_edge(in_array, out_array),
            _ => true,
        };
        let mut pending = storage.wal.lock().clone();
        pending.truncate(
            pending
                .iter()
                .position(|op| !visible(op))
                .unwrap_or(pending.len()),
        );
        let gen = tail.next_gen;
        Ok(CommitSession {
            storage,
            _serialize: serialize,
            lock,
            incremental: bound.map(|b| b.0) == Some(gzip),
            conversion: bound.is_some_and(|b| b.0 != gzip),
            dir,
            gzip,
            pending,
            actor: actor.unwrap_or(&storage.actor).to_string(),
            gen,
            retained_from: tail.retained_from(gen, storage.retain as usize),
            tail,
            rebuilt,
        })
    }

    /// The records this commit logs: a checkpoint commit's `checkpoint`
    /// first, then the flushed operations, the conversion marker if the
    /// gzip mode flipped in place, the caller's annotation, then the commit
    /// record `commit`. Op ids continue past the tail.
    fn records(
        &self,
        checkpoint: Option<Catalog>,
        annotation: Option<OpKind>,
        commit: OpKind,
    ) -> Vec<OpRecord> {
        let prior = self.tail.replay.state.generation;
        let mut op_id = self.tail.last_op_id;
        let mut record = |timestamp_ms, actor: &str, gen_after, kind| {
            op_id += 1;
            OpRecord {
                op_id,
                timestamp_ms,
                actor: actor.to_string(),
                gen_before: prior,
                gen_after,
                kind,
            }
        };
        let head = checkpoint.map(|c| OpKind::Checkpoint(Checkpoint(c)));
        let mut records: Vec<OpRecord> = (head.into_iter())
            .map(|kind| record(wal::now_ms(), &self.actor, prior, kind))
            .collect();
        for p in &self.pending {
            records.push(record(p.timestamp_ms, &p.actor, prior, p.kind.clone()));
        }
        let conversion = self
            .conversion
            .then_some(OpKind::ConvertGzip { gzip: self.gzip });
        for kind in conversion.into_iter().chain(annotation) {
            records.push(record(wal::now_ms(), &self.actor, prior, kind));
        }
        records.push(record(wal::now_ms(), &self.actor, self.gen, commit));
        records
    }

    /// Mark the slots this commit wrote clean and drop the flushed
    /// operations from the buffer, once its commit point passed (repointing
    /// lazy sources at their new ranges), so a retry after a later failure
    /// neither writes nor logs them a second time.
    fn publish(&self, written: Vec<WrittenSlot>) {
        self.storage.wal.lock().drain(..self.pending.len());
        for (edge, record) in written {
            edge.publish_committed(record, &self.dir, self.gzip);
        }
    }

    /// The tables a record commit writes: per edge the flushed `IngestEdge`
    /// records name — each once, and only while its slot is dirty — the
    /// index of that record and the bytes the slot kept.
    fn dirty_named(&self) -> Vec<DirtyTable<'a>> {
        let mut seen = HashSet::new();
        let mut dirty = Vec::new();
        for (ingest, op) in self.pending.iter().enumerate() {
            let OpKind::IngestEdge {
                in_array,
                out_array,
                ..
            } = &op.kind
            else {
                continue;
            };
            if !seen.insert((in_array, out_array)) {
                continue;
            }
            let edge = self.storage.edge(in_array, out_array);
            if let Some((edge, bytes)) = edge.and_then(|e| Some((e, e.dirty_bytes()?))) {
                dirty.push((ingest, edge, bytes));
            }
        }
        dirty
    }

    /// The incremental commit, O(changed): the `dirty` tables go into one
    /// segment with the bytes their slots kept; the log record naming them
    /// is the commit point.
    fn commit_records(mut self, dirty: Vec<DirtyTable>) -> Result<CommitReport> {
        let (storage, gzip, gen) = (self.storage, self.gzip, self.gen);
        let policy = storage.io_policy.as_deref();
        let name = segment_file_name(gen);
        let mut segment = Vec::new();
        let mut tables = Vec::new();
        let mut written: Vec<WrittenSlot> = Vec::new();
        for (ingest, edge, bytes) in dirty {
            let r = append_table(&mut segment, &name, gzip, &bytes);
            tables.push((ingest as u64, r.offset, r.len, r.crc, r.raw_len));
            written.push((Arc::clone(edge), r));
        }
        if !segment.is_empty() {
            write_synced(&self.dir.join(&name), &segment, "write segment", policy)?;
            // The segment's directory entry must be durable before a
            // record names it: entries have no ordering guarantee on power
            // loss otherwise.
            sync_dir(&self.dir, policy)?;
        }
        let commit = OpKind::Commit {
            segment: if segment.is_empty() {
                String::new()
            } else {
                name
            },
            tables,
            retained_from: self.retained_from,
        };
        let records = self.records(None, None, commit);
        self.tail.clean_len = wal::append(&self.dir, self.tail.clean_len, &records, policy)?;
        let files_written = written.len();
        self.publish(written);

        // Past the commit point: the generation is durable, whatever
        // follows. A failure to advance the tail only leaves it unknown
        // (see `forget`).
        let edges = match self.advance(&records) {
            Ok(()) => {
                let edges = self.tail.replay.state.edges.len();
                self.finish();
                edges
            }
            Err(_) => {
                self.forget();
                storage.n_edges()
            }
        };
        Ok(CommitReport {
            generation: gen,
            incremental: true,
            files_written,
            files_reused: edges.saturating_sub(files_written),
            bytes_written: segment.len() as u64,
        })
    }

    /// Advance the tail past this commit's `records`, logged, the way a
    /// replay of them does.
    fn advance(&mut self, records: &[OpRecord]) -> Result<()> {
        let tables = self.tail.replay.step(records)?;
        self.tail.last_op_id = records.last().map_or(self.tail.last_op_id, |r| r.op_id);
        self.tail.since_checkpoint += tables;
        Ok(())
    }

    /// The checkpoint commit: every edge planned — clean slots reused
    /// unless `fold` (a compaction) or the target is another database,
    /// held against their segments when the tail was rebuilt — and a fresh
    /// log holding the checkpoint, the flushed operations and the commit
    /// record renamed into place as the commit point (see [`rotate`](Self::rotate)).
    fn commit_checkpoint(mut self, fold: bool) -> Result<CommitReport> {
        let (storage, gzip, gen) = (self.storage, self.gzip, self.gen);
        let policy = storage.io_policy.as_deref();
        let trusted = !self.rebuilt;
        let mut segments = (self.incremental && !fold).then(|| SegmentLens {
            dir: &self.dir,
            lens: HashMap::new(),
        });
        let name = segment_file_name(gen);
        let mut segment: Vec<u8> = Vec::new();
        let mut files_reused = 0usize;
        // Slots marked clean only once the commit point passed: a crashed
        // commit must leave every dirty slot dirty.
        let mut written: Vec<WrittenSlot> = Vec::new();
        let mut catalog = Catalog {
            gzip,
            generation: gen,
            ..Catalog::default()
        };
        for (key, meta) in storage.arrays.iter() {
            catalog.arrays.insert(key.to_string(), (**meta).clone());
        }
        // Edges sorted by (in, out) for determinism. Each table's bytes are
        // appended as its slot is planned, so at most one rewritten table is
        // held beside the segment, each compressed on its own — a range
        // decompresses independently of its neighbours.
        // (File IO: each slot is snapshotted, its lock never held.)
        for (key, edge) in storage.sorted_edges() {
            let (source, stored) = edge.snapshot();
            let record = match stored {
                // Tamper guard of a rebuilt tail, one `stat` per referenced
                // segment: the recorded file must still exist and hold this
                // range; anything else is rewritten from the slot.
                Stored::Committed(record)
                    if segments
                        .as_mut()
                        .is_some_and(|s| trusted || s.hold(&record)) =>
                {
                    files_reused += 1;
                    record
                }
                // Lazily opened slots stream as verified bytes: a commit
                // must not drop an edge no query touched, nor decode a
                // whole lazy database to rewrite it.
                stored => {
                    let plain = match (stored, source) {
                        (Stored::Dirty(Some(bytes)), _) => bytes,
                        (_, TableSource::Loaded(t)) => Arc::new(format::serialize(&t)),
                        (_, TableSource::OnDisk(d)) => Arc::new(d.read_plain_bytes()?),
                    };
                    let record = append_table(&mut segment, &name, gzip, &plain);
                    written.push((Arc::clone(edge), record.clone()));
                    record
                }
            };
            let edge = (key.input().to_string(), key.output().to_string());
            catalog.edges.insert(edge, record);
        }
        if !segment.is_empty() {
            write_synced(&self.dir.join(&name), &segment, "write segment", policy)?;
        }
        let report = CommitReport {
            generation: gen,
            incremental: self.incremental,
            files_written: written.len(),
            files_reused,
            bytes_written: segment.len() as u64,
        };
        let annotation = fold.then_some(OpKind::Compact {
            segments: u64::from(!segment.is_empty()),
            folded: self.tail.live_files() as u64,
            bytes: report.bytes_written,
        });
        let commit = OpKind::Commit {
            segment: String::new(),
            tables: Vec::new(),
            retained_from: self.retained_from,
        };
        let edges = catalog.edges.len();
        let records = self.records(Some(catalog), annotation, commit);
        self.rotate(&records, edges)?;
        self.publish(written);
        // Past the commit point: the rename stands. Its directory sync
        // makes it durable; if that fails, the commit reports the error
        // and the manager forgets its tail.
        let synced = sync_dir(&self.dir, policy);
        match synced.clone().and_then(|()| self.advance(&records)) {
            Ok(()) => self.finish(),
            Err(_) => self.forget(),
        }
        synced.map(|()| report)
    }

    /// Write `records` — a checkpoint transaction — as a fresh log and
    /// rename it over `ops.log`, the commit point: temp file + fdatasync,
    /// the live log kept as `ops.g<s>.log` under the generation its
    /// checkpoint holds (a hard link, so the bytes are the ones already
    /// synced; where links are unsupported, a copy), directory sync,
    /// rename. A directory another database wrote keeps none of its logs.
    fn rotate(&mut self, records: &[OpRecord], edges: usize) -> Result<()> {
        let policy = self.storage.io_policy.as_deref();
        let dir = self.dir.as_path();
        let bytes = records
            .iter()
            .map(wal::encode_record)
            .collect::<Vec<_>>()
            .concat();
        let tmp = dir.join(format!("{}.tmp", wal::OPS_LOG_FILE));
        write_synced(&tmp, &bytes, "write ops.log", policy)?;
        if self.tail.clean_len > 0 {
            let start = self.tail.checkpoint.0;
            let from = dir.join(wal::OPS_LOG_FILE);
            let to = dir.join(wal::retired_name(start));
            let _ = std::fs::remove_file(&to);
            std::fs::hard_link(&from, &to)
                .or_else(|_| std::fs::copy(&from, &to).map(drop))
                .map_err(|e| DslogError::io("retire ops.log", e))?;
            let oldest = match self.tail.history.is_empty() {
                true => start,
                false => self.tail.history.start,
            };
            self.tail.history = oldest..start + 1;
        }
        sync_dir(dir, policy)?;
        std::fs::rename(&tmp, dir.join(wal::OPS_LOG_FILE))
            .map_err(|e| DslogError::io("rename ops.log", e))?;
        // Unknown (0), the identity makes the next commit rebuild its tail.
        self.tail.log_id = wal::log_id(dir).map_or(0, |(_, id)| id);
        self.tail.clean_len = bytes.len() as u64;
        self.tail.checkpoint = (self.gen, edges);
        self.tail.since_checkpoint = 0;
        Ok(())
    }

    /// After the commit point: enter the generation into the window,
    /// delete what only the generations leaving it needed and the stale
    /// files the tail's listing found — never listing the directory — and
    /// re-bind the manager with the advanced tail, so the next commit into
    /// this directory rewrites and reads back nothing of this one.
    fn finish(mut self) {
        let gen = self.gen;
        self.tail.next_gen = gen.saturating_add(1);
        let mut names = self.tail.enter(gen, self.storage.retain as usize);
        names.append(&mut self.tail.stale);
        for name in names.iter().filter(|name| self.tail.condemns(name)) {
            // Past the commit point, a file left behind is only debris.
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        let tail = std::mem::take(&mut self.tail);
        self.bind(Some(tail));
    }

    /// After the commit point, a step that only keeps the tail failed (it
    /// could not be advanced, or the rename's directory sync failed): the
    /// generation stands. The manager stays bound but forgets the tail, so
    /// the next commit rebuilds it from the directory, writes a checkpoint
    /// and deletes what this one left.
    fn forget(self) {
        self.bind(None);
    }

    fn bind(self, tail: Option<LogTail>) {
        *self.storage.binding.lock() = Some(super::PersistBinding {
            dir: self.dir,
            gzip: self.gzip,
            generation: self.gen,
            tail,
            lock: Some(self.lock),
        });
    }
}

/// Commit a storage manager into `dir` (created if missing). With `gzip`
/// the tables use the ProvRC-GZip disk format — the configuration the
/// paper recommends for long-term storage.
///
/// When `dir` (+ `gzip` mode) matches the manager's binding — the
/// directory it was opened from or last committed into — the commit is
/// *incremental*: only the edges ingested since the last commit are
/// written, and the cost is O(changed edges), plus a checkpoint amortized
/// over as many edges. Any other target gets a full save and re-binds the
/// manager to it.
///
/// The write is atomic either way (see the module docs): one commit point
/// — the log record, or the fresh log's rename — and stale files swept
/// afterwards. Committing into a directory that holds an older snapshot —
/// even one with a different edge set or `gzip` flag — is safe and
/// replaces it completely. A directory another handle writes to is
/// refused ([`DslogError::DirectoryLocked`]).
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
    let session = CommitSession::begin(storage, dir, gzip, actor)?;
    if fold && !session.incremental {
        return Err(DslogError::NotBound);
    }
    if session.incremental && !session.rebuilt && !fold {
        let dirty = session.dirty_named();
        let tail = &session.tail;
        if tail.since_checkpoint + dirty.len() < tail.checkpoint.1.max(1) {
            return session.commit_records(dirty);
        }
    }
    session.commit_checkpoint(fold)
}

/// Persist a storage manager into `dir`: [`commit`] with the report
/// dropped. Kept as the stable entry point; like `commit`, a save into
/// the bound directory is incremental.
pub fn save(storage: &StorageManager, dir: &Path, gzip: bool) -> Result<()> {
    commit(storage, dir, gzip).map(drop)
}

/// Read the bytes of one table's range, exactly as long as its record
/// says. The file is held against the range first ([`FileRecord::fits`]),
/// which also bounds the allocation by what is actually on disk.
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

/// Hold a plain table's range against the crc its record vouches for, in
/// one pass: its body crc, what its trailer must hold. Returns it, for the
/// decoder's trailer check.
fn check_plain(bytes: &[u8], record: &FileRecord) -> Result<u32> {
    let body_crc = crc32(&bytes[..bytes.len().saturating_sub(format::TRAILER_LEN)]);
    if body_crc != record.crc {
        return Err(DslogError::Corrupt("edge file checksum mismatch"));
    }
    Ok(body_crc)
}

/// Read one table (see [`read_record_bytes`]) and verify it against its
/// record: byte length, crc, and — for gzip — the container's crc32 and
/// claimed uncompressed size vs the recorded plain length (so a later
/// decompress is bounded by the record, not by whatever the file body
/// claims). Returns the raw table bytes, undecoded — what a commit streams
/// from a lazy slot it rewrites.
pub(crate) fn read_verified_bytes(dir: &Path, gzip: bool, record: &FileRecord) -> Result<Vec<u8>> {
    let bytes = read_record_bytes(dir, record)?;
    if !gzip {
        check_plain(&bytes, record)?;
        return Ok(bytes);
    }
    if crc32(&bytes) != record.crc {
        return Err(DslogError::Corrupt("edge file checksum mismatch"));
    }
    if dslog_codecs::gzip::declared_len(&bytes)? != record.raw_len {
        return Err(DslogError::Corrupt("edge file declared size mismatch"));
    }
    Ok(bytes)
}

/// Read + fully validate one table (length/crc, then structural
/// decode, then the backward orientation every edge stores). Eager open, the
/// lazy `DiskTable::load` path, `AsOf` opens and [`verify`] all go through
/// here, so verification can never diverge between them.
///
/// A plain table is checksummed once (see the module docs): the body crc
/// is held against the record and handed to the decoder for the trailer.
/// A gzip table keeps its three separate checks — record crc over the
/// container, the container's own crc, the table trailer — because each
/// covers different bytes.
pub(crate) fn load_table_file(
    dir: &Path,
    gzip: bool,
    record: &FileRecord,
) -> Result<crate::table::CompressedTable> {
    let table = if gzip {
        format::deserialize_gzip(&read_verified_bytes(dir, gzip, record)?)?
    } else {
        let bytes = read_record_bytes(dir, record)?;
        let body_crc = check_plain(&bytes, record)?;
        format::deserialize_checksummed(&bytes, body_crc)?
    };
    if table.orientation() != Orientation::Backward {
        return Err(DslogError::Corrupt("edge file orientation mismatch"));
    }
    Ok(table)
}

/// Each edge's loaded (or lazily referenced) table, in edge order.
type EdgeMap = Vec<Arc<Edge>>;

/// Plain table bytes (the records' `raw_len`s) per worker below which a
/// load decodes on the calling thread. Measured on 2 vCPUs over the
/// benchmark's 96-edge `reopen` shape, two threads ÷ one: 0.9–1.2 at
/// 0.95–1.5 MB, 0.72–1.08 from 2.4 to 7.2 MB depending on the run, and
/// 0.54–0.87 from 9.8 MB. When the two vCPUs share a core the pool is 1.8×
/// slower up to 2.4 MB and still ahead (0.80) from 9.8 MB, so two workers
/// start at 8 MiB (README, "Where DSLog uses threads").
const DECODE_GRAIN: usize = 4 << 20;

/// Workers for decoding `jobs`: one per [`DECODE_GRAIN`] of table bytes.
fn decode_workers(jobs: &[(usize, &FileRecord)]) -> usize {
    let bytes: u64 = jobs.iter().map(|(_, record)| record.raw_len).sum();
    par::workers_for(usize::try_from(bytes).unwrap_or(usize::MAX), DECODE_GRAIN)
}

/// Read, verify and decode table records on `workers` threads
/// (decode + crc dominates open time, and tables are independent). Returns
/// each table keyed by its edge index. Any decode error — or a panic while
/// decoding — fails the whole load.
fn load_tables(
    dir: &Path,
    gzip: bool,
    jobs: &[(usize, &FileRecord)],
    workers: usize,
) -> Result<HashMap<usize, crate::table::CompressedTable>> {
    let decode_all = || {
        par::map(jobs.len(), workers, |i| {
            let (idx, record) = jobs[i];
            load_table_file(dir, gzip, record).map(|t| (idx, t))
        })
    };
    // Hostile bytes must come back as an error, whichever thread met them.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode_all))
        .map_err(|_| DslogError::Corrupt("edge decode worker panicked"))?
        .into_iter()
        .collect()
}

/// Load (or lazily reference) the table of each edge of a committed
/// generation.
fn load_catalog_edges(dir: &Path, catalog: &Catalog, lazy: bool) -> Result<EdgeMap> {
    // Everything to be decoded eagerly goes through `load_tables`; lazily
    // referenced files are only stat'd (O(1) each) inline below.
    let eager_jobs: Vec<(usize, &FileRecord)> = (catalog.edges.values().enumerate())
        .filter(|_| !lazy)
        .collect();
    let mut loaded = load_tables(dir, catalog.gzip, &eager_jobs, decode_workers(&eager_jobs))?;

    let mut edges = Vec::with_capacity(catalog.edges.len());
    for (idx, record) in catalog.edges.values().enumerate() {
        let source = match loaded.remove(&idx) {
            Some(table) => TableSource::Loaded(Arc::new(table)),
            None => {
                // Lazy reference: the recorded checksum defers
                // verification to first use. The O(1) existence + length
                // check here catches missing or truncated files at open
                // time.
                let meta = std::fs::metadata(dir.join(&record.name))
                    .map_err(|e| DslogError::io("stat edge table", e))?;
                if !record.fits(meta.len()) {
                    return Err(DslogError::Corrupt("edge file length mismatch"));
                }
                TableSource::OnDisk(DiskTable {
                    dir: dir.to_path_buf(),
                    gzip: catalog.gzip,
                    record: record.clone(),
                })
            }
        };
        // The on-disk bytes already hold exactly this slot's content: the
        // slot opens *clean*, so a later commit leaves the range untouched.
        let slot = Slot {
            source,
            stored: Stored::Committed(record.clone()),
        };
        edges.push(Arc::new(Edge::new(slot)));
    }
    Ok(edges)
}

/// How [`open`] reads a database directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Decode every table now, verifying each against its recorded
    /// checksum.
    Eager,
    /// O(catalog): each table's file is only stat'd (existence + length)
    /// now and read, checksum-verified, and decoded on the first `resolve_hop`
    /// that needs them.
    Lazy,
    /// The database as it was at this generation, read eagerly: the newest
    /// checkpoint at or before it, and the commits the log records up to
    /// it ([`DslogError::GenerationNotRetained`] if the generation is
    /// outside the retention window the last commit kept, or a file it
    /// needs is gone). The manager is *unbound*: a commit from it is a
    /// full save into a fresh target, never a rewrite of history. The
    /// directory's current generation opens as [`Eager`](Self::Eager)
    /// does.
    AsOf(u64),
}

/// A freshly built manager around a committed generation's arrays and
/// edges; everything else (configuration, log buffer, binding) starts at
/// its defaults.
fn manager_from_parts(catalog: &Catalog, edges: EdgeMap) -> Result<StorageManager> {
    let mut storage = StorageManager::default();
    for (name, meta) in &catalog.arrays {
        storage
            .arrays
            .insert(Arc::from(&name[..]), Arc::new(meta.clone()));
    }
    for ((in_name, out_name), edge) in catalog.edges.keys().zip(edges) {
        let name = storage.edge_name(in_name, out_name)?;
        storage.edges.insert(name, edge);
    }
    Ok(storage)
}

/// How many times [`open`] reads a directory whose log a commit beside it
/// keeps moving before it gives up with the error its last read met.
const OPEN_ATTEMPTS: usize = 32;

/// Open a database directory written by [`save`] — the one storage-level
/// entry; [`crate::api::OpenOptions::open`] is its public face.
pub fn open(dir: &Path, mode: OpenMode) -> Result<StorageManager> {
    let mut attempt = 1;
    loop {
        // Rebuild the remembered tail: the live log replayed, the retention
        // window.
        let names = list_dir(dir);
        let log = Log::live(dir, &names)?;
        let tail = load_tail(dir, &names, &log)?;
        if let OpenMode::AsOf(generation) = mode {
            if generation != tail.replay.state.generation {
                return open_retained(dir, &names, &log, &tail, generation);
            }
        }
        let read = log.id;
        drop(log);
        match load_catalog_edges(dir, &tail.replay.state, mode == OpenMode::Lazy) {
            Ok(edges) => return bind(dir, tail, edges),
            // A commit beside this open deleted a segment the replay had
            // just named: the log it appended to or rotated in has moved
            // on, so read again.
            Err(DslogError::Io(_)) if attempt < OPEN_ATTEMPTS && wal::log_id(dir) != Some(read) => {
                attempt += 1
            }
            Err(e) => return Err(e),
        }
    }
}

/// The manager an [`open`] of `dir` builds from its tail and loaded edges.
fn bind(dir: &Path, tail: LogTail, edges: EdgeMap) -> Result<StorageManager> {
    // Bind the manager to this directory so the next commit into it is
    // incremental. The open writes nothing and takes no lock: the log's
    // torn or unvouched tail makes that commit rebuild its tail and start a
    // fresh log; the stale files the tail carries go with that commit.
    let storage = manager_from_parts(&tail.replay.state, edges)?;
    *storage.binding.lock() = Some(super::PersistBinding {
        dir: dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf()),
        gzip: tail.replay.state.gzip,
        generation: tail.replay.state.generation,
        tail: Some(tail),
        lock: None,
    });
    Ok(storage)
}

/// The [`OpenMode::AsOf`] open of a superseded generation: replayed from
/// the log that holds it.
fn open_retained(
    dir: &Path,
    names: &[String],
    log: &Log,
    tail: &LogTail,
    generation: u64,
) -> Result<StorageManager> {
    let not_retained = || DslogError::GenerationNotRetained(generation);
    if !tail.window.contains(&generation) {
        return Err(not_retained());
    }
    let state = walk(dir, names, log, (generation, generation), |_| ())?.state;
    // Fail up front (and precisely) if a commit already reclaimed any of
    // the generation's files, instead of erroring mid-load.
    if state.generation != generation || state.edges.values().any(|f| !dir.join(&f.name).is_file())
    {
        return Err(not_retained());
    }
    // Eager load: historical snapshots are for inspection, and eager
    // verification means a reclaimed-then-recreated name cannot bite
    // later. No binding — a commit from history must never rewrite the
    // live database.
    let edges = load_catalog_edges(dir, &state, false)?;
    manager_from_parts(&state, edges)
}

/// What [`verify`] found in a healthy database directory. The log is
/// always the one format this build reads and writes; any other is an
/// error, not a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Whether tables use the gzip disk format.
    pub gzip: bool,
    /// Arrays the live generation declares.
    pub n_arrays: usize,
    /// Edges the live generation declares.
    pub n_edges: usize,
    /// Tables read, checksum-verified, and structurally decoded.
    pub files_verified: usize,
    /// Data files (`segment-*`, `ops.g*.log`) and `*.tmp` files present
    /// but needed by no generation of the retention window (debris from a
    /// crashed commit — harmless, deleted by the next commit), sorted.
    pub stale_files: Vec<String>,
    /// Cleanly framed records in the live operation log.
    pub log_records: usize,
    /// Segments on disk that the live generation does not reference but a
    /// retained generation needs — history an `as_of` open can resolve,
    /// not debris.
    pub retained_files: usize,
    /// Bytes of the segments the live and retained generations reference
    /// that none of their ranges covers: superseded tables whose segment a
    /// live neighbour still pins. The next compaction reclaims them.
    pub dead_bytes: u64,
}

/// Walk a database directory and validate everything its live generation
/// claims: every referenced table's range exists, matches its recorded
/// byte length and crc — the one the `Commit` record or checkpoint that
/// installed it holds — decodes structurally, and stores the orientation
/// recorded — decoded by the same workers as an eager [`open`]. That is
/// every byte a reader can be handed; dead space inside a segment is
/// counted, not checked. Returns a report on success; any damage is an
/// `Err`. Unreferenced data/`*.tmp` debris is reported, not treated as
/// damage. Reads only: the debris and the log's unvouched tail are left
/// for the next commit.
pub fn verify(dir: &Path) -> Result<VerifyReport> {
    let names = list_dir(dir);
    let log = Log::live(dir, &names)?;
    let tail = load_tail(dir, &names, &log)?;
    let live = &tail.replay.state;

    let jobs: Vec<(usize, &FileRecord)> = live.edges.values().enumerate().collect();
    let files_verified = jobs.len();
    load_tables(dir, live.gzip, &jobs, decode_workers(&jobs))?;

    // Files the retention window needs are history, not debris (the
    // classification is the tail's, the one a commit deletes by).
    let referenced: HashSet<&str> = live.edges.values().map(|f| &f.name[..]).collect();
    let retained_files = (names.iter())
        .filter(|n| n.starts_with("segment-") && tail.spares(n) && !referenced.contains(&n[..]))
        .count();

    // Dead space: what the segments of the window's generations hold
    // beyond the distinct ranges those generations reference (a table
    // re-referenced across generations counts once).
    let w0 = tail.window.front().copied().unwrap_or(live.generation);
    let mut ranges: HashSet<(String, u64, u64)> = HashSet::new();
    walk(dir, &names, &log, (w0, live.generation), |state| {
        if state.generation >= w0 {
            let live = state.edges.values();
            ranges.extend(live.map(|r| (r.name.clone(), r.offset, r.len)));
        }
    })?;
    let files: HashSet<&str> = ranges.iter().map(|(name, _, _)| &name[..]).collect();
    let file_bytes: u64 = files
        .iter()
        .map(|name| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len()))
        .sum();
    let range_bytes: u64 = ranges.iter().map(|(_, _, len)| len).sum();

    Ok(VerifyReport {
        gzip: live.gzip,
        n_arrays: live.arrays.len(),
        n_edges: live.edges.len(),
        files_verified,
        stale_files: tail.stale.clone(),
        log_records: log.records.len(),
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

    /// The live log.
    fn live_log(dir: &Path) -> Log {
        Log::live(dir, &list_dir(dir)).unwrap()
    }

    /// The live generation: the live log replayed.
    fn live_state(dir: &Path) -> Catalog {
        let tail = load_tail(dir, &list_dir(dir), &live_log(dir));
        tail.unwrap().replay.state
    }

    /// The live generation's table records, in edge order.
    fn live_records(dir: &Path) -> Vec<FileRecord> {
        live_state(dir).edges.values().cloned().collect()
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

    /// The data files (everything but the logs and the writer lock) in
    /// `dir`, sorted.
    fn data_files(dir: &Path) -> Vec<String> {
        let mut names = list_dir(dir);
        names.retain(|n| n != LOCK_FILE && !n.starts_with("ops.") || n.ends_with(".tmp"));
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
            let catalog = live_state(&dir);
            let jobs: Vec<(usize, &FileRecord)> = catalog.edges.values().enumerate().collect();
            assert_eq!(decode_workers(&jobs), 1, "a few hundred bytes stay inline");
            let inline = load_tables(&dir, gzip, &jobs, 1).unwrap();
            assert_eq!(inline.len(), 2);
            assert_eq!(load_tables(&dir, gzip, &jobs, 3).unwrap(), inline);

            // An error on any worker fails the load, as it does inline.
            edit_range(&dir, jobs[1].1, |bytes| bytes[0] ^= 0x5a);
            for workers in [1, 3] {
                let loaded = load_tables(&dir, gzip, &jobs, workers);
                assert!(matches!(loaded, Err(DslogError::Corrupt(_))));
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn decode_workers_follow_the_measured_crossover() {
        // `jobs` over `n` tables of `raw_len` bytes each.
        let workers_for_tables = |n: usize, raw_len: u64| {
            let records: Vec<FileRecord> = (0..n)
                .map(|_| FileRecord {
                    name: "segment-0.g1.seg".to_string(),
                    len: raw_len,
                    crc: 0,
                    raw_len,
                    offset: 0,
                })
                .collect();
            let jobs: Vec<(usize, &FileRecord)> = records.iter().enumerate().collect();
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

    /// The catalog is the checkpoint that opens the log: a log cut before
    /// that checkpoint's commit, or one whose checkpoint frame is damaged,
    /// has no committed state to open.
    #[test]
    fn corrupt_catalog_is_rejected() {
        let dir = temp_dir("corrupt");
        let s = sample_manager();
        save(&s, &dir, false).unwrap();
        let headless = DslogError::Corrupt("log does not start with a checkpoint");

        // Cut the log inside its first transaction.
        let path = dir.join(wal::OPS_LOG_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(open(&dir).map(drop).unwrap_err(), headless);
        assert_eq!(verify(&dir).map(drop).unwrap_err(), headless);

        // A damaged checkpoint frame.
        let mut bad = bytes.clone();
        bad[8] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(open(&dir).map(drop).unwrap_err(), headless);

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
        drop(s);
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
        save(&sample_manager(), &dir, false).unwrap();

        // Simulate saves that died after writing a new-generation segment
        // (or its temp file) and a fresh log's temp file, but before its
        // rename (the commit point): the debris must not affect the live
        // snapshot.
        std::fs::write(dir.join("segment-0.g99.seg"), b"partial garbage").unwrap();
        std::fs::write(dir.join("segment-0.g98.seg.tmp"), b"more garbage").unwrap();
        std::fs::write(dir.join("ops.log.tmp"), b"uncommitted log").unwrap();

        // `verify` (read-only) reports the debris without touching it.
        let report = verify(&dir).unwrap();
        assert_eq!(report.files_verified, 2);
        assert!(!report.stale_files.is_empty());

        // Opening the snapshot reads past the debris; the opened handle's
        // first commit deletes it — a crashed process must never leave junk
        // a later generation can collide with.
        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.n_edges(), 2);
        let (t, _) = reopened.resolve_hop("B", "A").unwrap();
        assert_eq!(t.orientation(), Orientation::Backward);
        commit(&reopened, &dir, false).unwrap();
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        assert_eq!(data_files(&dir).len(), 1);

        // Debris planted behind a live manager's back is not a commit's
        // business — it deletes exactly the files it un-referenced and the
        // ones its tail's listing found, never listing the directory; the
        // first commit of the next handle reclaims it.
        std::fs::write(dir.join("segment-0.g77.seg"), b"junk again").unwrap();
        commit(&reopened, &dir, false).unwrap();
        assert_eq!(verify(&dir).unwrap().stale_files, ["segment-0.g77.seg"]);
        drop(reopened);
        commit(&open(&dir).unwrap(), &dir, false).unwrap();
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
            // Hand-build an otherwise-valid log (correct frame crcs) whose
            // checkpoint's table reference tries to traverse out of the dir.
            let mut catalog = Catalog {
                generation: 1,
                ..Catalog::default()
            };
            for (name, shape) in [("A", vec![3usize, 2]), ("B", vec![3])] {
                catalog
                    .arrays
                    .insert(name.into(), super::super::ArrayMeta { shape });
            }
            let record = FileRecord {
                name: evil.clone(),
                len: bytes.len() as u64,
                crc: wal::trailer_crc(&bytes),
                raw_len: bytes.len() as u64,
                offset: 0,
            };
            catalog.edges.insert(("A".into(), "B".into()), record);
            let commit = OpKind::Commit {
                segment: String::new(),
                tables: Vec::new(),
                retained_from: 1,
            };
            let kinds = [OpKind::Checkpoint(Checkpoint(catalog)), commit];
            let log: Vec<u8> = (1..)
                .zip(kinds)
                .flat_map(|(op_id, kind)| {
                    wal::encode_record(&OpRecord {
                        op_id,
                        timestamp_ms: 0,
                        actor: "test".into(),
                        gen_before: 0,
                        gen_after: op_id - 1,
                        kind,
                    })
                })
                .collect();
            std::fs::write(dir.join(wal::OPS_LOG_FILE), &log).unwrap();

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
    fn a_checkpoint_follows_once_the_tables_since_reach_its_edges() {
        let dir = temp_dir("checkpoint-rule");
        let mut s = StorageManager::new();
        commit(&s, &dir, false).unwrap();
        let mut checkpoints = Vec::new();
        for tag in 0..9 {
            add_small_edge(&mut s, tag);
            let report = commit(&s, &dir, false).unwrap();
            let (start, edges) = live_log(&dir).checkpoint;
            if start == report.generation {
                checkpoints.push(edges);
            }
        }
        // Each checkpoint once the edges committed since the last reach
        // its edge count; the live generation replays the rest.
        assert_eq!(checkpoints, [1, 2, 4, 8]);
        assert_eq!(live_state(&dir).edges.len(), 9);
        assert_eq!(open(&dir).unwrap().n_edges(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The checkpoint that falls due is a commit of its own kind: its fresh
    /// log's rename is the commit point, and the directory sync after it
    /// the one step past that point. When that sync fails, the commit says
    /// so, but the generation stands; the handle forgets its tail, and its
    /// next commit rebuilds it and writes another checkpoint.
    #[test]
    fn a_checkpoint_that_fails_after_the_commit_point_costs_only_the_checkpoint() {
        let dir = temp_dir("checkpoint-fails");
        let mut s = StorageManager::new();
        commit(&s, &dir, false).unwrap();
        let policy = wal::IoPolicy::fail_at(wal::IoFault::SyncError, u64::MAX);
        s.io_policy = Some(Arc::clone(&policy));
        // The first edge makes a checkpoint due: segment write and sync, the
        // fresh log's write and sync, directory sync, rename — the commit
        // point — then the directory sync that fails.
        add_small_edge(&mut s, 0);
        policy.rearm(6);
        let err = commit(&s, &dir, false).unwrap_err();
        assert!(err.to_string().contains("sync database dir"), "{err}");
        assert_eq!(policy.ios_seen(), 6);
        let generation = live_log(&dir).checkpoint.0;
        let reopened = open(&dir).unwrap();
        assert_eq!(
            reopened.binding.lock().as_ref().unwrap().generation,
            generation
        );
        assert_eq!(reopened.n_edges(), 1);
        drop(reopened);

        add_small_edge(&mut s, 1);
        let next = commit(&s, &dir, false).unwrap();
        assert_eq!(live_log(&dir).checkpoint.0, next.generation);
        assert_eq!(open(&dir).unwrap().n_edges(), 2);
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The log is the database: one deleted beside the segments is not an
    /// empty history. Every reader refuses the directory and leaves it as
    /// it is, and so does the next commit of a handle bound to it.
    #[test]
    fn a_missing_log_beside_segments_is_corrupt() {
        let dir = temp_dir("log-missing");
        let s = sample_manager();
        commit(&s, &dir, false).unwrap();
        std::fs::remove_file(dir.join(wal::OPS_LOG_FILE)).unwrap();
        let before = data_files(&dir);
        let missing = DslogError::Corrupt("database files without an ops.log");
        let results = [
            open(&dir).map(drop),
            open_lazy(&dir).map(drop),
            super::open(&dir, OpenMode::AsOf(1)).map(drop),
            verify(&dir).map(drop),
            wal::history(&dir).map(drop),
            commit(&s, &dir, false).map(drop),
        ];
        for result in results {
            assert_eq!(result, Err(missing.clone()));
        }
        assert_eq!(data_files(&dir), before);
        // An empty directory holds no database at all.
        let empty = temp_dir("log-none");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(open(&empty), Err(DslogError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn forward_query_leaves_commit_nothing_to_write() {
        let dir = temp_dir("inc-forward");
        commit(&sample_manager(), &dir, false).unwrap();
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
    fn compaction_rewrites_a_segment_deleted_behind_the_handle() {
        let dir = temp_dir("inc-tamper");
        let mut s = sample_manager();
        commit(&s, &dir, false).unwrap();
        // Delete the committed segment behind the manager's back. A commit
        // reads nothing back — it visits the edges it changes, and `stat`s
        // no clean one — so it writes the new edge alone, and the loss is
        // what `verify` and an open report.
        std::fs::remove_file(dir.join(&live_records(&dir)[0].name)).unwrap();
        add_small_edge(&mut s, 0);
        let report = commit(&s, &dir, false).unwrap();
        assert!(report.incremental);
        assert_eq!((report.files_written, report.files_reused), (1, 2));
        assert!(matches!(verify(&dir), Err(DslogError::Io(_))));
        // A compaction rewrites every table from the in-memory slots: the
        // directory is whole again.
        let report = super::super::compact::compact(&s, &dir, false).unwrap();
        assert_eq!((report.files_written, report.files_reused), (3, 0));
        assert_eq!(verify(&dir).unwrap().files_verified, 3);
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
        let rows = |key: &super::super::EdgeName| {
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

    /// `as_of` replays a generation from the log that holds it, across the
    /// rotations after it: here three commits (two of them checkpoints),
    /// a compaction whose directory sync after its rename failed — the
    /// generation stands, though the compaction said it failed — and a
    /// commit of another handle on top.
    #[test]
    fn as_of_crosses_a_rotation_whose_last_sync_failed() {
        let dir = temp_dir("lost-sync");
        let mut s = StorageManager::new();
        s.retain = 8;
        let mut seen = Vec::new();
        for tag in 0..3 {
            add_small_edge(&mut s, tag);
            let generation = commit(&s, &dir, false).unwrap().generation;
            seen.push((generation, contents(&s)));
        }
        let policy = wal::IoPolicy::fail_at(wal::IoFault::SyncError, u64::MAX);
        s.io_policy = Some(Arc::clone(&policy));
        policy.rearm(6);
        assert!(super::super::compact::compact(&s, &dir, false).is_err());
        let compacted = live_log(&dir).checkpoint.0;
        assert!(compacted > seen[2].0, "{compacted}");
        seen.push((compacted, contents(&s)));
        drop(s);

        // A new handle commits on top: its record starts from the
        // compaction's generation.
        let mut s = open(&dir).unwrap();
        s.retain = 8;
        add_small_edge(&mut s, 3);
        let generation = commit(&s, &dir, false).unwrap().generation;
        seen.push((generation, contents(&s)));
        drop(s);
        for _ in 0..2 {
            open(&dir).unwrap();
            for (generation, held) in &seen {
                let old = super::open(&dir, OpenMode::AsOf(*generation)).unwrap();
                assert_eq!(&contents(&old), held, "as of {generation}");
            }
        }
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_first_commit_after_an_open_sweeps_crash_debris() {
        for lazy in [false, true] {
            let dir = temp_dir(if lazy { "osweep-lazy" } else { "osweep" });
            save(&sample_manager(), &dir, false).unwrap();
            // An orphan segment, a retired log named past the live one's
            // checkpoint, temp files.
            let mut debris = [
                "segment-0.g42.seg",
                "segment-0.g43.seg.tmp",
                "ops.g41.log",
                "ops.log.tmp",
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
            // The lazily opened manager loads its tables beside the debris,
            // which the open left where it was.
            opened.resolve_hop("B", "A").unwrap();
            debris.sort();
            assert_eq!(verify(&dir).unwrap().stale_files, debris);
            // The first commit, on the tail the open remembered, deletes
            // what that open's listing found.
            commit(&opened, &dir, false).unwrap();
            assert_eq!(data_files(&dir).len(), 1);
            assert!(verify(&dir).unwrap().stale_files.is_empty());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A commit that died between retiring the live log (its hard link)
    /// and renaming the fresh one into place leaves a retired log named for
    /// the live log's own checkpoint: debris, not history. The history
    /// skips it, `verify` reports it, and the next commit deletes it.
    #[test]
    fn a_retired_log_named_for_the_live_checkpoint_is_debris() {
        let dir = temp_dir("retired-debris");
        commit(&sample_manager(), &dir, false).unwrap();
        let live = live_log(&dir);
        let debris = wal::retired_name(live.checkpoint.0);
        std::fs::hard_link(dir.join(wal::OPS_LOG_FILE), dir.join(&debris)).unwrap();
        assert_eq!(wal::history(&dir).unwrap(), live.records);
        assert_eq!(
            verify(&dir).unwrap().stale_files,
            std::slice::from_ref(&debris)
        );
        commit(&open(&dir).unwrap(), &dir, false).unwrap();
        assert!(!dir.join(&debris).exists());
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
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
