//! Append-only operation log (`ops.log`) with replay recovery and fault
//! injection.
//!
//! The lineage store records provenance for everyone else's data; this
//! module gives it provenance of its own. Every mutating operation —
//! `define`, `ingest`, composite materialization, gzip conversion, and the
//! commit that makes them durable — is appended to `<dir>/ops.log` as a
//! crc32-framed, length-prefixed record:
//!
//! ```text
//! [u32le body_len] [body] [u32le crc32(body)]
//!
//! body := version:u8  op_id:uvarint  timestamp_ms:uvarint  actor:string
//!         gen_before:uvarint  gen_after:uvarint  kind:u8  payload
//! ```
//!
//! The log is the database (see [`super::persist`]). Its first record is a
//! [`OpKind::Checkpoint`] — the gzip flag, the generation, the arrays, and
//! per edge its backward table's range and crc — and the transaction it
//! opens ends in that generation's `Commit`. Every later transaction is an
//! incremental commit, closed by a `Commit` record that names the segment
//! it wrote and, per table in it, the byte range, the crc and which
//! `IngestEdge` record of the same append names the edge; that record's
//! fdatasync is the commit point. A checkpoint commit renames a fresh log
//! into place instead and keeps the old one as `ops.g<s>.log`, `s` the
//! generation its checkpoint holds: the retired logs, in order, are the
//! audit trail [`history`] reads. `Catalog::apply` (`storage/catalog.rs`)
//! is the one reader that gives records their meaning. Records of the
//! kinds earlier formats wrote — 4 (an embedded catalog), 6 and 7 (a
//! commit naming a separate checkpoint file) — are refused as `Corrupt`.
//!
//! ## Recovery rules
//!
//! The log is scanned front to back; scanning stops at the first frame
//! that is truncated, fails its crc, fails to decode, or breaks op-id
//! monotonicity. If no clean frame starts anywhere after it, everything
//! from that point on is a torn tail: an append that never completed.
//! Records after the last clean `Commit` are the unvouched tail: work whose
//! commit point was never reached. Both are ignored by every reader and
//! never replayed (the next commit retires the log with them), so hostile
//! or partial bytes never panic and never resurrect an operation no commit
//! vouches for. A reader beside a live writer sees the writer's in-flight
//! append the same way: as a torn tail, the end of the log.
//!
//! A bad frame that a clean one follows is damage, not a torn append. The
//! log is the only copy of the generations committed since its checkpoint:
//! if a commit record past the damage is newer than what the records before
//! it replay to, open, `verify` and `as_of` refuse the directory as
//! `Corrupt` and leave it as it is; damage followed only by what the records
//! before it already hold costs history. A clean commit record that cannot
//! be applied is `Corrupt` too (see [`super::persist`]).
//!
//! ## Fault injection
//!
//! [`IoPolicy`] is the one fault injector: installed through
//! [`crate::api::OpenOptions::io_policy`], it trips exactly one gated IO
//! (write or sync) along the commit path with a chosen [`IoFault`].
//! [`IoFault::Crash`] exits the process (code 86) at that IO — after
//! writing half the bytes at a write gate, so recovery faces a torn frame
//! — which is what `scripts/crash_consistency.sh` sweeps across process
//! boundaries through the CLI's `--crash-at-io N`.

use super::catalog::Catalog;
use super::wire::{read_string, read_u32_le, write_string};
use crate::error::{DslogError, Result};
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the live operation log inside a database directory.
pub const OPS_LOG_FILE: &str = "ops.log";

/// The name a log takes once a checkpoint commit retires it: `start` is
/// the generation its checkpoint holds.
pub(crate) fn retired_name(start: u64) -> String {
    format!("ops.g{start}.log")
}

/// The start generation a retired log's name carries.
pub(crate) fn retired_start(name: &str) -> Option<u64> {
    name.strip_prefix("ops.g")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The start generations of the retired logs among `names` that lie below
/// `start` (the live log's), oldest first. One whose name carries the live
/// log's start or a later one is crash debris, not history.
pub(crate) fn retired_starts(names: &[String], start: u64) -> Vec<u64> {
    let mut starts: Vec<u64> = (names.iter())
        .filter_map(|n| retired_start(n).filter(|&s| s < start))
        .collect();
    starts.sort_unstable();
    starts
}

const RECORD_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Record model
// ---------------------------------------------------------------------------

/// One replayable mutation, as recorded in the operation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// `define_array`: a new array was registered with its shape.
    DefineArray {
        /// Array name.
        name: String,
        /// Array dimensions.
        shape: Vec<usize>,
    },
    /// An edge ingest (plain, batch, or pre-compressed): the lineage table
    /// between two arrays was installed or replaced.
    IngestEdge {
        /// Input (source) array of the edge.
        in_array: String,
        /// Output (derived) array of the edge.
        out_array: String,
        /// Serialized size of the ingested backward table.
        bytes: u64,
        /// crc32 of those serialized bytes — the per-edge digest.
        digest: u32,
    },
    /// A composite edge was materialized over a multi-hop query path
    /// (outermost array first, source array last).
    Composite {
        /// The query path the composite collapses.
        path: Vec<String>,
    },
    /// The directory's gzip mode flipped in place (conversion commit).
    ConvertGzip {
        /// New gzip mode.
        gzip: bool,
    },
    /// A commit made generation `gen_after` durable.
    Commit {
        /// The segment this commit wrote (`""`: none) — where the tables
        /// below lie.
        segment: String,
        /// Per table a record-committed commit wrote: the index, among the
        /// records its append logged, of the `IngestEdge` record that names
        /// the table's edge; the byte offset and length of its range in
        /// `segment`; its crc (a plain table's body crc, the one its trailer
        /// holds; a gzip table's container crc32); its plain serialized
        /// length.
        tables: Vec<(u64, u64, u64, u32, u64)>,
        /// The oldest generation the commit's retention window keeps
        /// (`gen_after` when it keeps none).
        retained_from: u64,
    },
    /// A compaction rewrote every stored table into a new generation's
    /// segment. Logical state is unchanged — the checkpoint that opens its
    /// transaction holds the new ranges — so replay treats this as an
    /// annotation.
    Compact {
        /// Number of segment files written (1; 0 for an empty database).
        segments: u64,
        /// Number of data files the superseded generation referenced.
        folded: u64,
        /// Bytes written into the segment (compressed sizes).
        bytes: u64,
    },
    /// The whole committed state of one generation: the first record of
    /// every log, written by a checkpoint commit (a full save, a gzip
    /// conversion, a compaction, a commit on a rebuilt tail, or one that
    /// made a checkpoint due).
    Checkpoint(Checkpoint),
}

/// The payload of [`OpKind::Checkpoint`]: a generation's gzip flag, arrays
/// and per-edge table ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint(pub(crate) Catalog);

impl OpKind {
    /// Short stable name of the variant, for history listings.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::DefineArray { .. } => "define",
            OpKind::IngestEdge { .. } => "ingest",
            OpKind::Composite { .. } => "composite",
            OpKind::ConvertGzip { .. } => "convert",
            OpKind::Commit { .. } => "commit",
            OpKind::Compact { .. } => "compact",
            OpKind::Checkpoint(_) => "checkpoint",
        }
    }

    /// One-line human-readable description, for `db history`.
    pub fn describe(&self) -> String {
        match self {
            OpKind::DefineArray { name, shape } => {
                let dims: Vec<String> = shape.iter().map(|d| d.to_string()).collect();
                format!("define {name}:{}", dims.join("x"))
            }
            OpKind::IngestEdge {
                in_array,
                out_array,
                bytes,
                digest,
            } => format!("ingest {in_array}->{out_array} ({bytes} bytes, crc {digest:08x})"),
            OpKind::Composite { path } => format!("composite {}", path.join(",")),
            OpKind::ConvertGzip { gzip } => {
                format!("convert to {}", if *gzip { "gzip" } else { "plain" })
            }
            OpKind::Commit { tables, .. } if tables.is_empty() => "commit (no tables)".to_string(),
            OpKind::Commit {
                segment, tables, ..
            } => format!("commit ({} tables into {segment})", tables.len()),
            OpKind::Compact {
                segments,
                folded,
                bytes,
            } => format!("compact ({segments} segments, {folded} files folded, {bytes} bytes)"),
            OpKind::Checkpoint(Checkpoint(c)) => format!(
                "checkpoint of generation {} ({} arrays, {} edges)",
                c.generation,
                c.arrays.len(),
                c.edges.len()
            ),
        }
    }
}

/// One framed entry of the operation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Monotonically increasing id, 1-based, unique within one log.
    pub op_id: u64,
    /// Wall-clock milliseconds since the Unix epoch when the operation was
    /// performed (not when it was flushed).
    pub timestamp_ms: u64,
    /// Who performed it: the handle's configured
    /// [`wal_actor`](crate::api::OpenOptions::wal_actor), a network peer
    /// address, `"auto-commit"` or `"maintenance"`.
    pub actor: String,
    /// Catalog generation the operation started from.
    pub gen_before: u64,
    /// Catalog generation after the operation (equals `gen_before` for
    /// everything except `Commit`).
    pub gen_after: u64,
    /// What happened.
    pub kind: OpKind,
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is before
/// the epoch — timestamps are informational, never load-bearing).
pub(crate) fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

/// The crc32 trailer a serialized table ends in: the checksum
/// of everything before it (0 for bytes too short to hold one).
pub(crate) fn trailer_crc(bytes: &[u8]) -> u32 {
    bytes
        .last_chunk::<4>()
        .map_or(0, |trailer| u32::from_le_bytes(*trailer))
}

/// What `decode_body` says of a cleanly framed record of a retired kind: the
/// log is from a format this build no longer reads.
const RETIRED_KIND: DslogError = DslogError::Corrupt("retired log record kind");

/// Encode one record as a complete frame (length prefix, body, crc32).
pub fn encode_record(rec: &OpRecord) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(RECORD_VERSION);
    write_uvarint(&mut body, rec.op_id);
    write_uvarint(&mut body, rec.timestamp_ms);
    write_string(&mut body, &rec.actor);
    write_uvarint(&mut body, rec.gen_before);
    write_uvarint(&mut body, rec.gen_after);
    match &rec.kind {
        OpKind::DefineArray { name, shape } => {
            body.push(0);
            write_string(&mut body, name);
            write_uvarint(&mut body, shape.len() as u64);
            for d in shape {
                write_uvarint(&mut body, *d as u64);
            }
        }
        OpKind::IngestEdge {
            in_array,
            out_array,
            bytes,
            digest,
        } => {
            body.push(1);
            write_string(&mut body, in_array);
            write_string(&mut body, out_array);
            write_uvarint(&mut body, *bytes);
            body.extend_from_slice(&digest.to_le_bytes());
        }
        OpKind::Composite { path } => {
            body.push(2);
            write_uvarint(&mut body, path.len() as u64);
            for p in path {
                write_string(&mut body, p);
            }
        }
        OpKind::ConvertGzip { gzip } => {
            body.push(3);
            body.push(u8::from(*gzip));
        }
        OpKind::Commit {
            segment,
            tables,
            retained_from,
        } => {
            // Kinds 4 (a whole embedded catalog), 6 (a catalog file's length
            // and crc) and 7 (those, beside the tables) are retired.
            body.push(8);
            write_string(&mut body, segment);
            write_uvarint(&mut body, *retained_from);
            write_uvarint(&mut body, tables.len() as u64);
            for (ingest, offset, len, crc, raw_len) in tables {
                write_uvarint(&mut body, *ingest);
                write_uvarint(&mut body, *offset);
                write_uvarint(&mut body, *len);
                body.extend_from_slice(&crc.to_le_bytes());
                write_uvarint(&mut body, *raw_len);
            }
        }
        OpKind::Compact {
            segments,
            folded,
            bytes,
        } => {
            body.push(5);
            write_uvarint(&mut body, *segments);
            write_uvarint(&mut body, *folded);
            write_uvarint(&mut body, *bytes);
        }
        OpKind::Checkpoint(Checkpoint(catalog)) => {
            body.push(9);
            catalog.write_body(&mut body);
        }
    }
    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame
}

/// Decode one record body (the bytes between the length prefix and the crc
/// trailer). Rejects unknown versions, unknown kinds, out-of-budget
/// lengths, and trailing garbage — a record either decodes exactly or Errs.
pub fn decode_body(data: &[u8]) -> Result<OpRecord> {
    let mut pos = 0usize;
    let version = *data
        .first()
        .ok_or(DslogError::Corrupt("empty log record"))?;
    if version != RECORD_VERSION {
        return Err(DslogError::Corrupt("unknown log record version"));
    }
    pos += 1;
    let op_id = read_uvarint(data, &mut pos)?;
    let timestamp_ms = read_uvarint(data, &mut pos)?;
    let actor = read_string(data, &mut pos)?;
    let gen_before = read_uvarint(data, &mut pos)?;
    let gen_after = read_uvarint(data, &mut pos)?;
    let tag = *data
        .get(pos)
        .ok_or(DslogError::Corrupt("log record truncated at kind"))?;
    pos += 1;
    let kind = match tag {
        0 => {
            let name = read_string(data, &mut pos)?;
            let ndim = read_uvarint(data, &mut pos)? as usize;
            if ndim > data.len() - pos {
                return Err(DslogError::Corrupt("log record shape runs past end"));
            }
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(read_uvarint(data, &mut pos)? as usize);
            }
            OpKind::DefineArray { name, shape }
        }
        1 => {
            let in_array = read_string(data, &mut pos)?;
            let out_array = read_string(data, &mut pos)?;
            let bytes = read_uvarint(data, &mut pos)?;
            let digest = read_u32_le(data, &mut pos)?;
            OpKind::IngestEdge {
                in_array,
                out_array,
                bytes,
                digest,
            }
        }
        2 => {
            let hops = read_uvarint(data, &mut pos)? as usize;
            if hops > data.len() - pos {
                return Err(DslogError::Corrupt("log record path runs past end"));
            }
            let mut path = Vec::with_capacity(hops);
            for _ in 0..hops {
                path.push(read_string(data, &mut pos)?);
            }
            OpKind::Composite { path }
        }
        3 => {
            let flag = *data
                .get(pos)
                .ok_or(DslogError::Corrupt("log record truncated at gzip flag"))?;
            pos += 1;
            OpKind::ConvertGzip { gzip: flag != 0 }
        }
        4 | 6 | 7 => return Err(RETIRED_KIND),
        5 => {
            let segments = read_uvarint(data, &mut pos)?;
            let folded = read_uvarint(data, &mut pos)?;
            let bytes = read_uvarint(data, &mut pos)?;
            OpKind::Compact {
                segments,
                folded,
                bytes,
            }
        }
        8 => {
            let segment = read_string(data, &mut pos)?;
            let retained_from = read_uvarint(data, &mut pos)?;
            let n = read_uvarint(data, &mut pos)? as usize;
            // Each table takes at least 8 bytes; bound the allocation by
            // what the input could still encode.
            if n > (data.len() - pos) / 8 {
                return Err(DslogError::Corrupt("log record tables run past end"));
            }
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                tables.push((
                    read_uvarint(data, &mut pos)?,
                    read_uvarint(data, &mut pos)?,
                    read_uvarint(data, &mut pos)?,
                    read_u32_le(data, &mut pos)?,
                    read_uvarint(data, &mut pos)?,
                ));
            }
            OpKind::Commit {
                segment,
                tables,
                retained_from,
            }
        }
        9 => OpKind::Checkpoint(Checkpoint(Catalog::read_body(data, &mut pos)?)),
        _ => return Err(DslogError::Corrupt("unknown log record kind")),
    };
    if pos != data.len() {
        return Err(DslogError::Corrupt("log record has trailing bytes"));
    }
    Ok(OpRecord {
        op_id,
        timestamp_ms,
        actor,
        gen_before,
        gen_after,
        kind,
    })
}

/// The frame starting at `pos`, if one lies complete there and passes its
/// crc: its body decoded (or why it does not decode), and the offset just
/// past it.
fn frame_at(data: &[u8], pos: usize) -> Option<(Result<OpRecord>, usize)> {
    let len_bytes = data.get(pos..pos.checked_add(4)?)?;
    // `body_len` came off the wire: bound it by the bytes actually present
    // before using it to slice.
    let body_len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let body_end = (pos + 4).checked_add(body_len)?;
    let crc = data.get(body_end..body_end.checked_add(4)?)?;
    let body = &data[pos + 4..body_end];
    (crc32(body) == u32::from_le_bytes(crc.try_into().ok()?))
        .then(|| (decode_body(body), body_end + 4))
}

/// The clean prefix of a log image — each cleanly framed record with the
/// byte offset just past its frame — and what lies past it.
#[derive(Default)]
pub(crate) struct Scan {
    pub(crate) frames: Vec<(OpRecord, usize)>,
    /// `None` if nothing past the prefix is a clean frame: a torn append.
    /// Otherwise the bytes where the scan stopped are damage, not a torn
    /// append, and this is the newest generation a commit record among the
    /// clean frames past them makes durable (0 for none).
    pub(crate) beyond_damage: Option<u64>,
    /// A cleanly framed record of a retired kind stopped the scan.
    retired: bool,
    /// Bytes the log held when it was read.
    pub(crate) len: u64,
    /// The identity of the file read (see [`file_id`]).
    pub(crate) id: u64,
}

/// Scan a log image front to back. Never panics: scanning stops at the
/// first truncated frame, crc mismatch, decode failure, or op-id that is
/// not strictly increasing. An append that never completed leaves its bad
/// bytes at the log's end; a clean frame anywhere after the stop (every
/// later offset is tried, for the damaged frame's length cannot be
/// trusted) means the log was damaged instead, and the commits past the
/// damage are reported ([`Scan::beyond_damage`]). A cleanly framed record
/// of a retired kind, before or past the damage, stops the scan too: a
/// reader of the directory must refuse the log.
fn scan_frames(data: &[u8]) -> Scan {
    let mut scan = Scan::default();
    let mut pos = 0usize;
    let mut last_id = 0u64;
    while let Some((rec, end)) = frame_at(data, pos) {
        match rec {
            Ok(rec) if rec.op_id > last_id => {
                last_id = rec.op_id;
                scan.frames.push((rec, end));
                pos = end;
            }
            Err(e) if e == RETIRED_KIND => {
                scan.retired = true;
                return scan;
            }
            _ => break,
        }
    }
    let mut q = pos + 1;
    while q < data.len() {
        let clean = (data.get(q + 4) == Some(&RECORD_VERSION))
            .then(|| frame_at(data, q))
            .flatten();
        match clean {
            Some((Ok(rec), end)) => {
                let gen = match rec.kind {
                    OpKind::Commit { .. } => rec.gen_after,
                    _ => 0,
                };
                scan.beyond_damage = Some(scan.beyond_damage.unwrap_or(0).max(gen));
                q = end;
            }
            Some((Err(e), _)) if e == RETIRED_KIND => {
                scan.retired = true;
                return scan;
            }
            _ => q += 1,
        }
    }
    scan
}

/// Parse a log image: the cleanly framed records and the byte length of
/// that clean prefix. Anything past the clean prefix is a torn tail.
pub fn read_log(data: &[u8]) -> (Vec<OpRecord>, usize) {
    let frames = scan_frames(data).frames;
    let clean_len = frames.last().map_or(0, |(_, end)| *end);
    (frames.into_iter().map(|(rec, _)| rec).collect(), clean_len)
}

// ---------------------------------------------------------------------------
// Log file IO
// ---------------------------------------------------------------------------

/// The scan of the log file at `path` (see [`Scan`]); a log holding a
/// record of a retired kind is `Corrupt`.
pub(crate) fn read_frames(path: &Path) -> Result<Scan> {
    use std::io::Read as _;
    let _io = dslog_sync::io_guard("wal::read_frames");
    let mut bytes = Vec::new();
    let opened = std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes).and_then(|_| f.metadata()));
    let meta = opened.map_err(|e| DslogError::io("read ops.log", e))?;
    let scan = Scan {
        id: file_id(&meta).1,
        len: bytes.len() as u64,
        ..scan_frames(&bytes)
    };
    if scan.retired {
        return Err(RETIRED_KIND);
    }
    Ok(scan)
}

/// The scan of `dir`'s live log; `names` is the directory's listing. The
/// log is the database: one missing beside any other file but the writer
/// lock is `Corrupt`, not an empty history.
pub(crate) fn read_live(dir: &Path, names: &[String]) -> Result<Scan> {
    let ours = |n: &String| n == OPS_LOG_FILE || n == super::persist::LOCK_FILE;
    if !names.iter().any(|n| n == OPS_LOG_FILE) && !names.iter().all(ours) {
        return Err(DslogError::Corrupt("database files without an ops.log"));
    }
    read_frames(&dir.join(OPS_LOG_FILE))
}

/// A log file's length and identity (its inode, 0 where the platform has
/// none): a log renamed into place differs from the one before it even at
/// the same length.
pub(crate) fn file_id(meta: &std::fs::Metadata) -> (u64, u64) {
    #[cfg(unix)]
    let id = std::os::unix::fs::MetadataExt::ino(meta);
    #[cfg(not(unix))]
    let id = 0;
    (meta.len(), id)
}

/// The length and identity of `<dir>/ops.log` now (`None`: missing).
pub(crate) fn log_id(dir: &Path) -> Option<(u64, u64)> {
    std::fs::metadata(dir.join(OPS_LOG_FILE))
        .ok()
        .map(|m| file_id(&m))
}

/// Read-only view of every operation `dir`'s logs record, oldest first:
/// each retired log's records up to its last commit (the records after it
/// were never committed), then every cleanly framed record of the live log
/// (including its unvouched tail — history shows what was attempted). Op
/// ids increase strictly across the logs, and each checkpoint is listed
/// once, at the head of its log.
pub fn history(dir: &Path) -> Result<Vec<OpRecord>> {
    let names = super::persist::list_dir(dir);
    let live = read_live(dir, &names)?.frames;
    let start = match live.first() {
        Some((
            OpRecord {
                kind: OpKind::Checkpoint(Checkpoint(c)),
                ..
            },
            _,
        )) => c.generation,
        _ => u64::MAX,
    };
    let mut records = Vec::new();
    for s in retired_starts(&names, start) {
        let mut frames = read_frames(&dir.join(retired_name(s)))?.frames;
        let commit = |(r, _): &(OpRecord, usize)| matches!(r.kind, OpKind::Commit { .. });
        frames.truncate(frames.iter().rposition(commit).map_or(0, |i| i + 1));
        records.extend(frames.into_iter().map(|(rec, _)| rec));
    }
    records.extend(live.into_iter().map(|(rec, _)| rec));
    Ok(records)
}

/// Append `records` at `clean_len` in one write, then fdatasync; returns
/// the log's new clean length. The file is first truncated to
/// `clean_len`, dropping the torn or unvouched tail a failed earlier
/// append or a crashed process left behind (the one place the log is
/// cut), and cut back to it again if the write or the sync fails, so a
/// retry never logs the same records twice.
pub(crate) fn append(
    dir: &Path,
    clean_len: u64,
    records: &[OpRecord],
    policy: Option<&IoPolicy>,
) -> Result<u64> {
    let _io = dslog_sync::io_guard("wal::append");
    let path = dir.join(OPS_LOG_FILE);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| DslogError::io("open ops.log", e))?;
    f.set_len(clean_len)
        .map_err(|e| DslogError::io("truncate ops.log", e))?;
    f.seek(SeekFrom::Start(clean_len))
        .map_err(|e| DslogError::io("seek ops.log", e))?;
    let frames = records
        .iter()
        .map(encode_record)
        .collect::<Vec<_>>()
        .concat();
    let written = policy_write(&mut f, &frames, "append ops.log records", policy)
        .and_then(|()| policy_sync(&f, "sync ops.log", policy));
    if written.is_err() {
        let _ = f.set_len(clean_len);
    }
    written.map(|()| clean_len + frames.len() as u64)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Which failure [`IoPolicy`] injects once its IO counter reaches the
/// configured position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The IO call fails outright (`EIO`-style); nothing reaches the file.
    WriteError,
    /// The IO call fails with "no space left on device" (`ENOSPC`-style).
    DiskFull,
    /// Half the bytes reach the file before the write fails — a detected
    /// torn write that leaves real partial bytes on disk. At a sync site
    /// this degenerates to a plain sync failure.
    ShortWrite,
    /// The fsync/fdatasync (or write) call fails without doing anything.
    SyncError,
    /// The process exits with code 86 — a simulated `kill -9` at an exact
    /// IO position. At a write gate half the bytes reach the file first,
    /// so what recovery finds there is torn.
    Crash,
}

/// The fault injector of the durability tests: trips exactly one gated IO
/// along the commit path (segment write, log appends, the fresh log's write,
/// file and directory syncs) with the configured [`IoFault`].
///
/// Installed once, through [`crate::api::OpenOptions::io_policy`]; it
/// gates every commit and compaction the handle (and its epoch clones)
/// runs. The counter is 1-based and trips once, so retrying the failed
/// commit under the same policy succeeds. A caller that wants the fault at
/// a later operation keeps its `Arc` and calls [`rearm`](Self::rearm).
/// Two policies are equal only if they are the same injector.
#[derive(Debug)]
pub struct IoPolicy {
    fault: IoFault,
    fail_at: AtomicU64,
    hits: AtomicU64,
}

impl PartialEq for IoPolicy {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for IoPolicy {}

impl IoPolicy {
    /// Inject `fault` at the `fail_at`-th gated IO (1-based) performed
    /// under this policy (`u64::MAX`: count IOs, never trip).
    pub fn fail_at(fault: IoFault, fail_at: u64) -> Arc<IoPolicy> {
        Arc::new(IoPolicy {
            fault,
            fail_at: AtomicU64::new(fail_at),
            hits: AtomicU64::new(0),
        })
    }

    /// Start counting again from zero and trip at the `fail_at`-th gated
    /// IO from here.
    pub fn rearm(&self, fail_at: u64) {
        self.fail_at.store(fail_at, Ordering::SeqCst);
        self.hits.store(0, Ordering::SeqCst);
    }

    /// How many gated IOs have run under this policy since it was made or
    /// last re-armed. When a whole commit finishes with `ios_seen() <
    /// fail_at`, the fault position was past the end of the sequence — a
    /// sweep can stop there.
    pub fn ios_seen(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }

    fn trip(&self) -> Option<IoFault> {
        let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
        (n == self.fail_at.load(Ordering::SeqCst)).then_some(self.fault)
    }
}

fn injected(what: &'static str, detail: &str) -> DslogError {
    DslogError::Io(format!("{what}: {detail}"))
}

/// Policy-gated `write_all`: on an injected fault the write fails (for
/// [`IoFault::ShortWrite`] and [`IoFault::Crash`], after half the bytes
/// really reached the file).
pub(crate) fn policy_write(
    f: &mut std::fs::File,
    bytes: &[u8],
    what: &'static str,
    policy: Option<&IoPolicy>,
) -> Result<()> {
    match policy.and_then(|p| p.trip()) {
        None => f.write_all(bytes).map_err(|e| DslogError::io(what, e)),
        Some(IoFault::ShortWrite) => {
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            Err(injected(what, "injected short write (EIO)"))
        }
        Some(IoFault::DiskFull) => Err(injected(what, "injected ENOSPC: no space left on device")),
        Some(IoFault::WriteError) | Some(IoFault::SyncError) => {
            Err(injected(what, "injected EIO on write"))
        }
        Some(IoFault::Crash) => {
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            std::process::exit(86)
        }
    }
}

/// Policy-gated `sync_data`: on an injected fault the sync fails without
/// syncing anything.
pub(crate) fn policy_sync(
    f: &std::fs::File,
    what: &'static str,
    policy: Option<&IoPolicy>,
) -> Result<()> {
    match policy.and_then(|p| p.trip()) {
        None => f.sync_data().map_err(|e| DslogError::io(what, e)),
        Some(IoFault::Crash) => std::process::exit(86),
        Some(_) => Err(injected(what, "injected fsync failure")),
    }
}

// ---------------------------------------------------------------------------
// Pending-operation buffer (the manager-side half of the log)
// ---------------------------------------------------------------------------

/// One not-yet-flushed operation, buffered on the manager until the next
/// commit drains it into `ops.log`. The actor and timestamp are captured
/// when the operation happens, not when it is flushed.
#[derive(Debug, Clone)]
pub(crate) struct PendingOp {
    pub(crate) kind: OpKind,
    pub(crate) actor: String,
    pub(crate) timestamp_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<OpRecord> {
        let mut checkpoint = Catalog {
            gzip: true,
            generation: 1,
            ..Catalog::default()
        };
        let shape = crate::storage::ArrayMeta { shape: vec![3, 2] };
        checkpoint.arrays.insert("A".into(), shape.clone());
        checkpoint.arrays.insert("B".into(), shape);
        let table = crate::storage::FileRecord {
            name: "segment-0.g1.seg".into(),
            len: 42,
            crc: 0xdead_beef,
            raw_len: 40,
            offset: 7,
        };
        checkpoint.edges.insert(("A".into(), "B".into()), table);
        vec![
            OpRecord {
                op_id: 1,
                timestamp_ms: 1_700_000_000_000,
                actor: "cli".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::Checkpoint(Checkpoint(checkpoint)),
            },
            OpRecord {
                op_id: 2,
                timestamp_ms: 1_700_000_000_000,
                actor: "cli".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::DefineArray {
                    name: "A".into(),
                    shape: vec![3, 2],
                },
            },
            OpRecord {
                op_id: 3,
                timestamp_ms: 1_700_000_000_001,
                actor: "cli".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::IngestEdge {
                    in_array: "A".into(),
                    out_array: "B".into(),
                    bytes: 42,
                    digest: 0xdead_beef,
                },
            },
            OpRecord {
                op_id: 4,
                timestamp_ms: 1_700_000_000_002,
                actor: "srv".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::Composite {
                    path: vec!["C".into(), "B".into(), "A".into()],
                },
            },
            OpRecord {
                op_id: 5,
                timestamp_ms: 1_700_000_000_003,
                actor: "srv".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::ConvertGzip { gzip: true },
            },
            OpRecord {
                op_id: 6,
                timestamp_ms: 1_700_000_000_004,
                actor: "srv".into(),
                gen_before: 0,
                gen_after: 1,
                kind: OpKind::Commit {
                    segment: "segment-0.g1.seg".into(),
                    tables: vec![(1, 0, 42, 0xdead_beef, 42)],
                    retained_from: 1,
                },
            },
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        for rec in sample_records() {
            let frame = encode_record(&rec);
            let body = &frame[4..frame.len() - 4];
            assert_eq!(decode_body(body).unwrap(), rec);
        }
    }

    #[test]
    fn read_log_parses_concatenated_frames() {
        let recs = sample_records();
        let mut image = Vec::new();
        for r in &recs {
            image.extend_from_slice(&encode_record(r));
        }
        let (parsed, clean) = read_log(&image);
        assert_eq!(parsed, recs);
        assert_eq!(clean, image.len());
    }

    #[test]
    fn torn_tail_is_dropped_never_resurrected() {
        let recs = sample_records();
        let mut image = Vec::new();
        for r in &recs {
            image.extend_from_slice(&encode_record(r));
        }
        let full = image.len();
        let last = encode_record(&recs[5]);
        // Every proper prefix of the last frame parses to exactly 5 records.
        let boundary = full - last.len();
        for cut in boundary..full {
            let (parsed, clean) = read_log(&image[..cut]);
            assert_eq!(parsed.len(), 5, "cut at {cut}");
            assert_eq!(clean, boundary, "cut at {cut}");
        }
    }

    #[test]
    fn non_monotonic_op_id_truncates() {
        let recs = sample_records();
        let mut image = Vec::new();
        image.extend_from_slice(&encode_record(&recs[0]));
        let mut repeat = recs[1].clone();
        repeat.op_id = 1; // not strictly increasing
        image.extend_from_slice(&encode_record(&repeat));
        let (parsed, clean) = read_log(&image);
        assert_eq!(parsed.len(), 1);
        assert_eq!(clean, encode_record(&recs[0]).len());
    }

    #[test]
    fn io_policy_trips_exactly_once() {
        let policy = IoPolicy::fail_at(IoFault::WriteError, 2);
        assert_eq!(policy.trip(), None);
        assert_eq!(policy.trip(), Some(IoFault::WriteError));
        assert_eq!(policy.trip(), None);
        assert_eq!(policy.ios_seen(), 3);
        // Re-arming counts from zero again.
        policy.rearm(1);
        assert_eq!(policy.trip(), Some(IoFault::WriteError));
        assert_eq!(policy.ios_seen(), 1);
    }
}
