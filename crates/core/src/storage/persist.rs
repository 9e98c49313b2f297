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
//!   ops.log             the operation log (see [`super::wal`]); a commit
//!                       record names its segment and, per table in it,
//!                       the edge, byte range and crc
//!   catalog.dsl         the checkpoint (see [`super::catalog`]): arrays,
//!                       and per edge its backward table's range
//!   catalog.g<g>.dsl    an older checkpoint, kept while a generation of
//!                       the retention window needs it
//! ```
//!
//! A generation is a checkpoint plus the commit records after it: open
//! reads `catalog.dsl` and replays the log past it, and an `as_of` open
//! replays from the newest checkpoint at or before the generation asked
//! for. A directory in a form only earlier builds wrote — a log holding a
//! commit record of a retired kind, a checkpoint naming a forward table —
//! is refused as `Corrupt`, and nothing in it is truncated or swept.
//!
//! ## Atomicity
//!
//! A commit on a remembered tail (see below) has one commit point, the
//! fdatasync of its log record: segment (written and fdatasynced under a
//! generation-qualified name no record names yet) → directory sync → log
//! append + fdatasync. Three syncs; a commit that wrote no segment skips
//! the first two. A crash before the log fdatasync leaves the previous
//! generation (the segment is debris the next commit deletes), from it on
//! the new one. Once the tables committed since the last checkpoint reach
//! that one's edge count, the commit writes a new one after its commit
//! point — amortized O(1) per table, and a replay never applies more tables
//! than the checkpoint holds. The append that starts a log over (its first,
//! or a full save's into another database's directory) also syncs the
//! directory, so the log's own entry is durable before a later commit point
//! lies in it.
//!
//! A full save, a gzip conversion, a compaction and a commit whose tail had
//! to be rebuilt replace what the directory holds, so their commit point
//! is their checkpoint's rename: segment → catalog temp file + fdatasync →
//! directory sync → rename → directory sync → log append + fdatasync, the
//! record naming the catalog it follows. After any commit, the files only
//! generations leaving the retention window needed are deleted. Every write
//! and sync passes the manager's [`wal::IoPolicy`] (the one fault
//! injector), if one was installed.
//!
//! What fails after the commit point — the checkpoint a record commit
//! writes, or the record a checkpoint commit logs after its rename — only
//! keeps replays long: the commit still reports success, and the manager
//! forgets its tail, so the next commit rebuilds it and writes the
//! checkpoint. Since the log is the only copy of what was committed after
//! the live checkpoint, damage to it that hides such a commit, or a commit
//! record that cannot be applied, makes [`open`], `as_of` and [`verify`]
//! fail with [`DslogError::Corrupt`], touching nothing (see
//! [`super::wal`]).
//!
//! ## The remembered tail
//!
//! The binding carries a `LogTail` — where the log ends, the generation the
//! next commit takes, the committed generation (every edge's range), the
//! live checkpoint's header, the retention window and the segments and
//! checkpoints it needs — shared by every epoch clone, built by [`open`]
//! through `load_tail` and advanced by each commit the way a replay of its
//! records would be. So a commit into the bound directory reads back
//! nothing this manager wrote. The tail is believed only while `ops.log`'s
//! length and the live catalog's generation and length are what it
//! remembers; otherwise — an unbound or foreign target, a failed commit, a
//! directory changed from outside, a log an open found longer than its
//! vouched prefix — the commit runs `load_tail` again (for the bound
//! directory, a damaged log fails the commit) and writes a checkpoint
//! (holding each clean range against its segment's length first, one
//! `stat` per segment, and rewriting what does not fit from the slots).
//! Its log append cuts the torn or unvouched tail the rebuilt tail ends
//! before.
//!
//! `load_tail` is the one place that lists the directory: the tail carries
//! the files the listing found that no generation of the window needs
//! (crashed-commit debris and `*.tmp` leftovers), which [`verify`] reports
//! and the next commit deletes with the files it stopped referencing. So
//! only a commit writes a database directory: [`open`] (eager, lazy or
//! `as_of`), [`verify`] and [`wal::history`] read it and change nothing.
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
//! [`VerifyReport::dead_bytes`]. Readers take no lock and write nothing: a
//! reader racing a commit sees the writer's in-flight log append as a torn
//! tail, the end of its log. A commit beside an [`open`] may delete a
//! segment the open's replay has just named; the open then finds `ops.log`
//! longer than it read it and reads the directory again (a bounded number
//! of times, then the `Io` error stands). A lazily opened handle has no
//! such second read: once a later commit deletes a segment its generation
//! names, its first touch of that table fails with `Io`. A second *writer*
//! on one directory is still unsupported.
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

use super::catalog::{checkpoint_at, checkpoint_name, parse_catalog, peek_catalog, read_catalog};
use super::catalog::{Catalog, Log, Replay, CATALOG_FILE};
use super::wal::{self, IoPolicy, OpKind, OpRecord};
use super::{format, DiskTable, Edge, FileRecord, Slot, StorageManager, Stored, TableSource};
use crate::error::{DslogError, Result};
use crate::par;
use crate::table::Orientation;
use dslog_codecs::crc32::crc32;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The segment generation `gen` writes its tables into. The generation
/// makes the name unique per commit, so a commit in progress can never
/// clobber a file a committed generation still references.
fn segment_file_name(gen: u64) -> String {
    format!("segment-0.g{gen}.seg")
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

/// Flush directory metadata so preceding creates/renames/unlinks in `dir`
/// are durable. Without this, a power loss can persist a log record or a
/// catalog rename but not the segment it depends on. No-op error-wise on
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
    /// Byte length of the segment written (excludes the catalog and the
    /// log).
    pub bytes_written: u64,
}

/// Whether a directory entry is one of ours and subject to sweeping:
/// segments and kept checkpoints (never the live `catalog.dsl`).
fn is_data_file(name: &str) -> bool {
    name.starts_with("segment-") || name.starts_with("catalog.g")
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
/// commit reads back nothing it wrote itself: where the log ends, the
/// committed database, and what the generations it must spare need. Lives
/// in the persistence binding (shared by epoch clones); built from the
/// directory by `load_tail`, advanced by every successful commit, and
/// dropped — hence rebuilt by the next commit — whenever a commit fails or
/// the directory no longer looks the way the tail left it.
#[derive(Debug, Default)]
pub(crate) struct LogTail {
    /// Byte length of the log's vouched prefix: the append position.
    clean_len: u64,
    /// Highest op id in that prefix (0 for an empty log).
    last_op_id: u64,
    /// Generation the next commit uses: one past every generation the
    /// directory's file names, catalog and log carried when the tail was
    /// built or advanced.
    next_gen: u64,
    /// The live checkpoint (`catalog.dsl`): generation, byte length, edges.
    checkpoint: (u64, u64, usize),
    /// Tables committed by records since that checkpoint.
    since_checkpoint: usize,
    /// The committed database and the segments it and the window use.
    replay: Replay,
    /// The committed generations the retention window keeps, oldest first;
    /// the last is the live one.
    window: VecDeque<u64>,
    /// Generations of the older checkpoints kept as `catalog.g<g>.dsl`,
    /// oldest first.
    kept: Vec<u64>,
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

    /// The newest checkpoint at or before generation `g`.
    fn base_for(&self, g: u64) -> Option<u64> {
        let all = self.kept.iter().chain([&self.checkpoint.0]);
        all.copied().filter(|&c| c <= g).max()
    }

    /// The single source of truth for what a sweep must leave alone —
    /// shared by every commit and [`verify`], so no caller can invent its
    /// own (weaker) sparing rule and delete a file the live generation or
    /// the retention window still needs: every segment the live generation
    /// references or a window generation did, and every kept checkpoint.
    fn spares(&self, name: &str) -> bool {
        let w0 = self.window.front().copied().unwrap_or(0);
        self.replay.live.contains_key(name)
            || (self.replay.dead.iter()).any(|(last, n)| n == name && *last >= w0)
            || parse_generation(name)
                .is_some_and(|g| name == checkpoint_name(g) && self.kept.contains(&g))
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
    /// to `retain` older generations, and return the files only the
    /// generations that left needed: segments that died before the oldest
    /// one kept, and checkpoints older than the one it replays from.
    fn enter(&mut self, gen: u64, retain: usize) -> Vec<String> {
        self.window.push_back(gen);
        while self.window.len() > retain + 1 {
            self.window.pop_front();
        }
        let w0 = self.window.front().copied().unwrap_or(gen);
        let base = self.base_for(w0).unwrap_or(self.checkpoint.0);
        let mut gone: Vec<String> = Vec::new();
        self.kept.retain(|&c| {
            let keep = c >= base;
            if !keep {
                gone.push(checkpoint_name(c));
            }
            keep
        });
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

/// Rebuild what a manager remembers of `dir` ([`LogTail`]) from the
/// directory itself — the one routine behind [`open`], `as_of`, [`verify`]
/// and a commit whose remembered tail is missing or stale. From the live
/// checkpoint (parsed, with its byte length), replays the log's commits
/// after it (one it cannot apply is `Corrupt`, see [`Replay::run`], and so
/// is damage that hides one), rebuilds the retention window the last
/// commit recorded — replaying from an older kept checkpoint if the window
/// reaches back past the live one — and classifies the directory's listed
/// `names` against it. Reads only.
///
/// The generation the next commit must use is one past anything present —
/// the catalog's, every generation the log or a file name carries
/// (leftover higher-generation debris from a crashed commit must not be
/// reused while a concurrent reader might still stat it).
fn load_tail(
    dir: &Path,
    names: &[String],
    log: &Log,
    (live, catalog_len): (Catalog, u64),
) -> Result<LogTail> {
    let checkpoint = (live.generation, catalog_len, live.edges.len());
    let mut gens = vec![live.generation];
    let mut replay = Replay::new(live);
    let (vouched, since_checkpoint) =
        replay.run(dir, log, u64::MAX, |s| gens.push(s.generation))?;
    // Damage to the log hides the commits past it: refused unless the
    // checkpoint and the records before it already hold them.
    if log.beyond_damage > Some(replay.state.generation) {
        return Err(DslogError::Corrupt("log damaged before committed records"));
    }
    let last_commit = vouched.checked_sub(1).map(|t| log.commits[t]);
    let retained_from = match last_commit.map(|c| &log.records[c].kind) {
        Some(OpKind::Commit { retained_from, .. }) => *retained_from,
        _ => checkpoint.0,
    };
    let mut kept = Vec::new();
    if retained_from < checkpoint.0 {
        // The window reaches back past the live checkpoint: replay it from
        // the newest kept one at or before its oldest generation (or the
        // oldest kept one), to learn what those generations reference.
        let mut older: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_generation(n).filter(|&g| *n == checkpoint_name(g)))
            .filter(|&g| g < checkpoint.0)
            .collect();
        older.sort_unstable();
        let start = older.iter().rev().find(|&&g| g <= retained_from);
        if let Some(base) = start.or(older.first()).and_then(|&g| checkpoint_at(dir, g)) {
            let mut window_gens = vec![base.generation];
            let mut window = Replay::new(base);
            // History only: a walk that cannot reach the live generation
            // leaves the window to what the live checkpoint replays.
            let walked = window.run(dir, log, replay.state.generation, |s| {
                window_gens.push(s.generation)
            });
            // A checkpoint commit whose record never reached the log ends
            // the walk one checkpoint short of the live one.
            if window.state.generation < checkpoint.0 {
                window.switch(checkpoint_at(dir, checkpoint.0).unwrap_or_default());
                window_gens.push(checkpoint.0);
            }
            if walked.is_ok() && window.state.generation == replay.state.generation {
                kept = older.into_iter().filter(|&g| g >= window_gens[0]).collect();
                (replay, gens) = (window, window_gens);
            }
        }
    }
    let w0 = retained_from.max(gens[0]);
    let tail = LogTail {
        clean_len: last_commit.map_or(0, |c| log.ends[c] as u64),
        last_op_id: last_commit.map_or(0, |c| log.records[c].op_id),
        next_gen: next_generation(names, log, replay.state.generation),
        checkpoint,
        since_checkpoint,
        replay,
        window: gens.into_iter().filter(|&g| g >= w0).collect(),
        kept,
        stale: Vec::new(),
    };
    Ok(tail.classify(names))
}

/// A slot a commit wrote, to be marked clean once the commit point passed.
type WrittenSlot = (Arc<Edge>, FileRecord);

/// One past every generation the directory carries: in the log, in a file
/// name, or `committed`.
fn next_generation(names: &[String], log: &Log, committed: u64) -> u64 {
    (log.records.iter().map(|r| r.gen_after))
        .chain(names.iter().filter_map(|n| parse_generation(n)))
        .fold(committed, u64::max)
        .saturating_add(1)
}

/// A commit in flight. [`begin`](Self::begin) takes the manager's commit
/// lock and the remembered log tail (rebuilding it from the directory when
/// it cannot be trusted) and fixes the generation;
/// [`commit_records`](Self::commit_records) and
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
    /// database a full save replaces, a change from outside, a log longer
    /// than its vouched prefix): the commit writes a checkpoint.
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
        let (bound, tail) = {
            let mut binding = storage.binding.lock();
            let mut bound = binding.as_mut().filter(|b| b.dir == dir);
            let tail = bound.as_mut().and_then(|b| b.tail.take());
            (bound.map(|b| b.gzip), tail)
        };
        // The remembered tail stands while the directory still looks the
        // way the tail left it: the log ends where it did, and the live
        // catalog is the checkpoint it remembers.
        let trusted = tail.filter(|tail| {
            let (generation, len, _) = tail.checkpoint;
            wal::log_len(&dir) == tail.clean_len && peek_catalog(&dir) == Some((generation, len))
        });
        let rebuilt = trusted.is_none();
        let tail = match trusted {
            Some(tail) => tail,
            None => {
                let names = list_dir(&dir);
                let log = Log::read(&dir);
                match (bound, read_catalog(&dir.join(CATALOG_FILE))) {
                    // The bound database's log holds the generations
                    // committed since its checkpoint: damage to it errs,
                    // and the directory stays as it is.
                    (Some(_), Ok(live)) => load_tail(&dir, &names, &log?, live)?,
                    // An unbound or foreign target (or one whose checkpoint
                    // is gone) starts a fresh log and retains nothing:
                    // whatever history the directory holds describes the
                    // database being replaced, not this manager — its data
                    // files are all stale. Its generations stay below the
                    // new one all the same.
                    _ => {
                        let log = log.unwrap_or_default();
                        let committed = peek_catalog(&dir).map_or(0, |c| c.0);
                        let tail = LogTail {
                            next_gen: next_generation(&names, &log, committed),
                            ..LogTail::default()
                        };
                        tail.classify(&names)
                    }
                }
            }
        };
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
            incremental: bound == Some(gzip),
            conversion: bound.is_some_and(|g| g != gzip),
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

    /// The records this commit appends: the flushed operations, the
    /// conversion marker if the gzip mode flipped in place, the caller's
    /// annotation, then the commit record `commit`. Op ids continue past
    /// the tail.
    fn records(&self, annotation: Option<OpKind>, commit: OpKind) -> Vec<OpRecord> {
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
        let mut records: Vec<OpRecord> = (self.pending.iter())
            .map(|p| record(p.timestamp_ms, &p.actor, prior, p.kind.clone()))
            .collect();
        let conversion = self
            .conversion
            .then_some(OpKind::ConvertGzip { gzip: self.gzip });
        for kind in conversion.into_iter().chain(annotation) {
            records.push(record(wal::now_ms(), &self.actor, prior, kind));
        }
        records.push(record(wal::now_ms(), &self.actor, self.gen, commit));
        records
    }

    /// Append `records` to the log and fdatasync it. The flushed
    /// operations leave the buffer once the append lands — should anything
    /// after fail, a retry must not log them a second time. A log started
    /// over (created, or cut to nothing under a full save) has its
    /// directory entry synced too: a later commit point lies in it.
    fn log(&mut self, records: &[OpRecord]) -> Result<()> {
        let policy = self.storage.io_policy.as_deref();
        let started = self.tail.clean_len == 0;
        self.tail.clean_len = wal::append(&self.dir, self.tail.clean_len, records, policy)?;
        self.tail.last_op_id = records.last().map_or(self.tail.last_op_id, |r| r.op_id);
        self.storage.wal.lock().drain(..self.pending.len());
        if started {
            sync_dir(&self.dir, policy)?;
        }
        Ok(())
    }

    /// Mark the slots this commit wrote clean, once its commit point
    /// passed (repointing lazy sources at their new ranges), so a retry
    /// after a later failure does not write them a second time.
    fn publish(&self, written: Vec<WrittenSlot>) {
        for (edge, record) in written {
            edge.publish_committed(record, &self.dir, self.gzip);
        }
    }

    /// The incremental commit, O(changed): the edges the flushed
    /// `IngestEdge` records name — each once, and only while dirty — go
    /// into one segment with the bytes their slots kept; the log record
    /// naming them is the commit point. A checkpoint follows once due.
    fn commit_records(mut self) -> Result<CommitReport> {
        let (storage, gzip, gen) = (self.storage, self.gzip, self.gen);
        let policy = storage.io_policy.as_deref();
        let name = segment_file_name(gen);
        let mut segment = Vec::new();
        let mut tables = Vec::new();
        let mut written: Vec<WrittenSlot> = Vec::new();
        let mut seen = HashSet::new();
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
            let Some(edge) = storage.edge(in_array, out_array) else {
                continue;
            };
            let Some(bytes) = edge.dirty_bytes() else {
                continue;
            };
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
            catalog_len: 0,
            catalog_crc: 0,
            segment: if segment.is_empty() {
                String::new()
            } else {
                name
            },
            tables,
            retained_from: self.retained_from,
        };
        let records = self.records(None, commit);
        self.log(&records)?;
        let files_written = written.len();
        self.publish(written);

        // Past the commit point: the generation is durable, whatever
        // follows. A failure to advance the tail or write the checkpoint
        // only leaves the tail unknown (see `forget`).
        let edges = match self.advance(&records) {
            Ok(edges) => {
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

    /// Advance the tail past a record commit the way a replay of its
    /// `records` does, and write a checkpoint once the tables committed
    /// since the last one reach its edge count. Returns the committed
    /// generation's edge count.
    fn advance(&mut self, records: &[OpRecord]) -> Result<usize> {
        let tables = self.tail.replay.step(records)?;
        self.tail.since_checkpoint = self.tail.since_checkpoint.saturating_add(tables);
        let edges = self.tail.replay.state.edges.len();
        if self.tail.since_checkpoint >= self.tail.checkpoint.2.max(1) {
            let bytes = self.tail.replay.state.to_bytes();
            self.write_checkpoint(&bytes, edges)?;
            self.tail.replay.switch(parse_catalog(&bytes)?);
        }
        Ok(edges)
    }

    /// The checkpoint commit: every edge planned — clean slots reused
    /// unless `fold` (a compaction) or the target is another database,
    /// held against their segments when the tail was rebuilt — the new
    /// catalog written and renamed into place as the commit point, then
    /// logged.
    fn commit_checkpoint(mut self, fold: bool) -> Result<CommitReport> {
        let (storage, gzip, gen) = (self.storage, self.gzip, self.gen);
        let policy = storage.io_policy.as_deref();
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
                // Tamper guard, one `stat` per referenced segment: the
                // recorded file must still exist and hold this range;
                // anything else is rewritten from the slot.
                Stored::Committed(record) if segments.as_mut().is_some_and(|s| s.hold(&record)) => {
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
        let bytes = catalog.to_bytes();
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
            catalog_len: bytes.len() as u64,
            catalog_crc: wal::trailer_crc(&bytes),
            segment: String::new(),
            tables: Vec::new(),
            retained_from: self.retained_from,
        };
        let records = self.records(annotation, commit);
        self.write_checkpoint(&bytes, catalog.edges.len())?;
        self.publish(written);
        self.tail.replay.switch(catalog);
        // Past the commit point. Without its record the generation still
        // stands: a replay reaches it through the checkpoint itself.
        match self.log(&records) {
            Ok(()) => self.finish(),
            Err(_) => self.forget(),
        }
        Ok(report)
    }

    /// Write `bytes` as the checkpoint of this commit's generation (`edges`
    /// edges): temp file + fdatasync, the old live checkpoint kept under its
    /// generation if the window still reaches back past the new one (a hard
    /// link, so the bytes are the ones already fdatasynced; where links are
    /// unsupported, a copy), directory sync, rename, directory sync. The
    /// rename is the commit point of a checkpoint commit.
    fn write_checkpoint(&mut self, bytes: &[u8], edges: usize) -> Result<()> {
        let policy = self.storage.io_policy.as_deref();
        let dir = self.dir.as_path();
        let tmp = dir.join(format!("{CATALOG_FILE}.tmp"));
        write_synced(&tmp, bytes, "write catalog", policy)?;
        let (live, live_len, _) = self.tail.checkpoint;
        if self.retained_from < self.gen && live_len > 0 {
            let (from, to) = (dir.join(CATALOG_FILE), dir.join(checkpoint_name(live)));
            let _ = std::fs::remove_file(&to);
            std::fs::hard_link(&from, &to)
                .or_else(|_| std::fs::copy(&from, &to).map(drop))
                .map_err(|e| DslogError::io("keep superseded catalog", e))?;
            self.tail.kept.push(live);
        }
        sync_dir(dir, policy)?;
        std::fs::rename(&tmp, dir.join(CATALOG_FILE))
            .map_err(|e| DslogError::io("write catalog", e))?;
        sync_dir(dir, policy)?;
        self.tail.checkpoint = (self.gen, bytes.len() as u64, edges);
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

    /// After the commit point, a step that only keeps replays short failed
    /// (a checkpoint write, or the record a checkpoint commit logs after
    /// its rename): the generation stands, and the commit reports success.
    /// The manager stays bound but forgets the tail, so the next commit
    /// rebuilds it from the directory, writes a checkpoint and deletes what
    /// this one left.
    fn forget(self) {
        self.bind(None);
    }

    fn bind(self, tail: Option<LogTail>) {
        *self.storage.binding.lock() = Some(super::PersistBinding {
            dir: self.dir,
            gzip: self.gzip,
            generation: self.gen,
            tail,
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
/// — the log record, or the checkpoint rename of a full save — and stale
/// files swept afterwards. Committing into a directory that holds an older
/// snapshot — even one with a different edge set or `gzip` flag — is safe
/// and replaces it completely.
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
        session.commit_records()
    } else {
        session.commit_checkpoint(fold)
    }
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
        // Rebuild the remembered tail: the live checkpoint, the log
        // replayed past it, the retention window. A missing log replays
        // nothing.
        let names = list_dir(dir);
        let log = Log::read(dir)?;
        let tail = load_tail(dir, &names, &log, read_catalog(&dir.join(CATALOG_FILE))?)?;
        if let OpenMode::AsOf(generation) = mode {
            if generation != tail.replay.state.generation {
                return open_retained(dir, &log, &tail, generation);
            }
        }
        let log_len = log.len;
        drop(log);
        match load_catalog_edges(dir, &tail.replay.state, mode == OpenMode::Lazy) {
            Ok(edges) => return bind(dir, tail, edges),
            // A commit beside this open deleted a segment the replay had
            // just named: the log it appended has moved on, so read again.
            Err(DslogError::Io(_)) if attempt < OPEN_ATTEMPTS && wal::log_len(dir) != log_len => {
                attempt += 1
            }
            Err(e) => return Err(e),
        }
    }
}

/// The manager an [`open`] of `dir` builds from its tail and loaded edges.
fn bind(dir: &Path, tail: LogTail, edges: EdgeMap) -> Result<StorageManager> {
    // Bind the manager to this directory so the next commit into it is
    // incremental. The open writes nothing: the log's torn or unvouched
    // tail makes that commit rebuild its tail, and its append cuts it; the
    // stale files the tail carries go with that commit.
    let storage = manager_from_parts(&tail.replay.state, edges)?;
    *storage.binding.lock() = Some(super::PersistBinding {
        dir: dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf()),
        gzip: tail.replay.state.gzip,
        generation: tail.replay.state.generation,
        tail: Some(tail),
    });
    Ok(storage)
}

/// The [`OpenMode::AsOf`] open of a superseded generation: replayed from
/// the newest checkpoint at or before it.
fn open_retained(dir: &Path, log: &Log, tail: &LogTail, generation: u64) -> Result<StorageManager> {
    let not_retained = || DslogError::GenerationNotRetained(generation);
    if !tail.window.contains(&generation) {
        return Err(not_retained());
    }
    let base = (tail.base_for(generation))
        .and_then(|c| checkpoint_at(dir, c))
        .ok_or_else(not_retained)?;
    let mut replay = Replay::new(base);
    replay.run(dir, log, generation, |_| ())?;
    let state = replay.state;
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

/// What [`verify`] found in a healthy database directory. The checkpoint
/// is always the one format this build reads and writes (`DSLGDB3`); any
/// other is an error, not a report.
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
    /// Data files (`segment-*`, `catalog.g*`) and `*.tmp` files present
    /// but needed by no generation of the retention window (debris from a
    /// crashed commit — harmless, deleted by the next commit), sorted.
    pub stale_files: Vec<String>,
    /// Cleanly framed records in the operation log (0 for a directory
    /// without one).
    pub log_records: usize,
    /// Data files on disk that the live generation does not reference but
    /// a retained generation needs (a kept `catalog.g<gen>.dsl` included)
    /// — history an `as_of` open can resolve, not debris.
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
    let log = Log::read(dir)?;
    let tail = load_tail(dir, &names, &log, read_catalog(&dir.join(CATALOG_FILE))?)?;
    let live = &tail.replay.state;

    let jobs: Vec<(usize, &FileRecord)> = live.edges.values().enumerate().collect();
    let files_verified = jobs.len();
    load_tables(dir, live.gzip, &jobs, decode_workers(&jobs))?;

    // Files the retention window needs are history, not debris (the
    // classification is the tail's, the one a commit deletes by).
    let referenced: HashSet<&str> = live.edges.values().map(|f| &f.name[..]).collect();
    let retained_files = (names.iter())
        .filter(|n| is_data_file(n) && tail.spares(n) && !referenced.contains(&n[..]))
        .count();

    // Dead space: what the segments of the window's generations hold
    // beyond the distinct ranges those generations reference (a table
    // re-referenced across generations counts once).
    let w0 = tail.window.front().copied().unwrap_or(live.generation);
    let mut ranges: HashSet<(String, u64, u64)> = HashSet::new();
    let add = |state: &Catalog, ranges: &mut HashSet<(String, u64, u64)>| {
        if state.generation >= w0 {
            ranges.extend(
                state
                    .edges
                    .values()
                    .map(|r| (r.name.clone(), r.offset, r.len)),
            );
        }
    };
    if let Some(base) = tail.base_for(w0).and_then(|c| checkpoint_at(dir, c)) {
        let mut replay = Replay::new(base);
        add(&replay.state, &mut ranges);
        replay.run(dir, &log, live.generation, |s| add(s, &mut ranges))?;
    }
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
    use super::super::catalog::CATALOG_MAGIC_V3;
    use super::super::wire::write_string;
    use super::*;
    use crate::table::LineageTable;
    use dslog_codecs::varint::write_uvarint;

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

    /// The live generation: the checkpoint and the log replayed past it.
    fn live_state(dir: &Path) -> Catalog {
        let log = Log::read(dir).unwrap();
        let live = read_catalog(&dir.join(CATALOG_FILE)).unwrap();
        load_tail(dir, &list_dir(dir), &log, live)
            .unwrap()
            .replay
            .state
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
    fn a_checkpoint_follows_once_the_tables_since_reach_its_edges() {
        let dir = temp_dir("checkpoint-rule");
        let mut s = StorageManager::new();
        commit(&s, &dir, false).unwrap();
        let mut checkpoints = Vec::new();
        for tag in 0..9 {
            add_small_edge(&mut s, tag);
            let report = commit(&s, &dir, false).unwrap();
            let (catalog, _) = read_catalog(&dir.join(CATALOG_FILE)).unwrap();
            if catalog.generation == report.generation {
                checkpoints.push(catalog.edges.len());
            }
        }
        // Each checkpoint once the edges committed since the last reach
        // its edge count; the live generation replays the rest.
        assert_eq!(checkpoints, [1, 2, 4, 8]);
        assert_eq!(live_state(&dir).edges.len(), 9);
        assert_eq!(open(&dir).unwrap().n_edges(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_that_fails_after_the_commit_point_costs_only_the_checkpoint() {
        let dir = temp_dir("checkpoint-fails");
        let mut s = StorageManager::new();
        commit(&s, &dir, false).unwrap();
        let policy = wal::IoPolicy::fail_at(wal::IoFault::DiskFull, u64::MAX);
        s.io_policy = Some(Arc::clone(&policy));
        // The first edge makes a checkpoint due. Segment write and sync,
        // directory sync, log append and sync — the commit point — then
        // the checkpoint's temp file, which fails.
        add_small_edge(&mut s, 0);
        policy.rearm(6);
        let report = commit(&s, &dir, false).unwrap();
        assert_eq!(policy.ios_seen(), 6);
        assert_eq!((report.files_written, report.files_reused), (1, 0));
        let live = |dir: &Path| read_catalog(&dir.join(CATALOG_FILE)).unwrap().0;
        assert!(live(&dir).generation < report.generation);
        let reopened = open(&dir).unwrap();
        assert_eq!(
            reopened.binding.lock().as_ref().unwrap().generation,
            report.generation
        );
        assert_eq!(reopened.n_edges(), 1);
        drop(reopened);

        // The handle forgot its tail: the next commit rebuilds it from the
        // directory and writes the checkpoint.
        add_small_edge(&mut s, 1);
        let next = commit(&s, &dir, false).unwrap();
        assert_eq!(live(&dir).generation, next.generation);
        assert_eq!(open(&dir).unwrap().n_edges(), 2);
        assert!(verify(&dir).unwrap().stale_files.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_commit_that_starts_the_log_syncs_its_directory_entry() {
        let dir = temp_dir("log-entry");
        commit(&sample_manager(), &dir, false).unwrap();
        std::fs::remove_file(dir.join(wal::OPS_LOG_FILE)).unwrap();
        let mut s = open(&dir).unwrap();
        let policy = wal::IoPolicy::fail_at(wal::IoFault::SyncError, u64::MAX);
        s.io_policy = Some(Arc::clone(&policy));
        // Segment write and sync, directory sync, log append and sync —
        // and the directory again, for the entry of the log the append
        // created: the commit point is not durable without it.
        add_small_edge(&mut s, 0);
        policy.rearm(6);
        let err = commit(&s, &dir, false).unwrap_err();
        assert!(err.to_string().contains("sync database dir"), "{err}");
        assert_eq!(policy.ios_seen(), 6);
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

    #[test]
    fn replay_crosses_a_checkpoint_whose_record_never_reached_the_log() {
        let dir = temp_dir("lost-record");
        let mut s = StorageManager::new();
        s.retain = 8;
        let mut seen = Vec::new();
        for tag in 0..3 {
            add_small_edge(&mut s, tag);
            let generation = commit(&s, &dir, false).unwrap().generation;
            seen.push((generation, contents(&s)));
        }
        // The compaction renames its checkpoint into place, then its log
        // append fails (as a crash there would leave it): the generation
        // is committed — the compaction says so — its record is not in
        // the log.
        let policy = wal::IoPolicy::fail_at(wal::IoFault::WriteError, u64::MAX);
        s.io_policy = Some(Arc::clone(&policy));
        policy.rearm(7);
        let compacted = super::super::compact::compact(&s, &dir, false).unwrap();
        let compacted = compacted.generation;
        assert_eq!(
            read_catalog(&dir.join(CATALOG_FILE)).unwrap().0.generation,
            compacted
        );
        let logged = wal::history(&dir).unwrap().last().unwrap().gen_after;
        assert!(logged < compacted, "{logged} {compacted}");
        seen.push((compacted, contents(&s)));
        drop(s);

        // A new handle commits on top: its record starts from the
        // compaction's generation, which a walk from an older checkpoint
        // must reach through that checkpoint, not the record before it.
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
            let s = sample_manager();
            save(&s, &dir, false).unwrap();
            // An orphan segment, an orphan retained catalog, temp files.
            let mut debris = [
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
