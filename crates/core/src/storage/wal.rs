//! Append-only operation log (`ops.log`) with replay recovery and fault
//! injection.
//!
//! The lineage store records provenance for everyone else's data; this
//! module gives it provenance of its own. Every mutating operation —
//! `define`, `ingest`, composite materialization, gzip conversion, and the
//! commit that makes them durable — is appended to `<dir>/ops.log` as a
//! crc32-framed, length-prefixed record *before* the catalog rename, so
//! the log is always at least as new as the catalog:
//!
//! ```text
//! [u32le body_len] [body] [u32le crc32(body)]
//!
//! body := version:u8  op_id:uvarint  timestamp_ms:uvarint  actor:string
//!         gen_before:uvarint  gen_after:uvarint  kind:u8  payload
//! ```
//!
//! Every record is O(1) in the size of the database: the log is an audit
//! trail, not a copy of the data. A `Commit` record names the catalog it
//! renamed into place by byte length and crc32 trailer only; a generation
//! the retention window keeps has its catalog kept next to the log as
//! `catalog.g<gen>.dsl` (see [`super::persist`]), which is what an
//! `as_of` open and `verify` read. Logs written before this format embedded
//! the whole catalog in each commit record; such a record still scans as a
//! clean frame and decodes to the same variant — the length and crc
//! trailer of the embedded bytes — but is never written again.
//!
//! ## Recovery rules
//!
//! The log is scanned front to back; scanning stops at the first frame
//! that is truncated, fails its crc, fails to decode, or breaks op-id
//! monotonicity — everything from that point on is a torn tail and is
//! truncated, never replayed. Open-time recovery additionally drops any clean
//! records *after* the last `Commit` whose `gen_after` is at most the
//! catalog's generation: a crash between the log fdatasync and the
//! catalog rename leaves a dangling `Commit` record for a generation that
//! never committed, and the catalog — the single commit point — stays the
//! truth. Hostile or partial bytes therefore never panic and never
//! resurrect an operation the catalog does not vouch for.
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

use super::wire::{read_string, read_u32_le, write_string};
use crate::error::{DslogError, Result};
use dslog_codecs::crc32::crc32;
use dslog_codecs::varint::{read_uvarint, write_uvarint};
use std::collections::HashSet;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the operation log inside a database directory.
pub const OPS_LOG_FILE: &str = "ops.log";

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
        /// Serialized size of the ingested backward/forward table.
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
    /// A commit renamed a new catalog into place (`gen_after` is its
    /// generation).
    Commit {
        /// Byte length of the catalog file.
        catalog_len: u64,
        /// The catalog's crc32 trailer (the crc32 of everything before it).
        catalog_crc: u32,
    },
    /// A compaction rewrote every stored table into a new generation's
    /// segment. Logical state is unchanged — the paired `Commit` record
    /// carries the new catalog — so replay treats this as an annotation.
    Compact {
        /// Number of segment files written (1; 0 for an empty database).
        segments: u64,
        /// Number of data files the superseded catalog referenced.
        folded: u64,
        /// Bytes written into the segment (compressed sizes).
        bytes: u64,
    },
}

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
            OpKind::Commit {
                catalog_len,
                catalog_crc,
            } => format!("commit ({catalog_len} catalog bytes, crc {catalog_crc:08x})"),
            OpKind::Compact {
                segments,
                folded,
                bytes,
            } => format!("compact ({segments} segments, {folded} files folded, {bytes} bytes)"),
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

/// The crc32 trailer a serialized table or catalog ends in: the checksum
/// of everything before it (0 for bytes too short to hold one).
pub(crate) fn trailer_crc(bytes: &[u8]) -> u32 {
    bytes
        .last_chunk::<4>()
        .map_or(0, |trailer| u32::from_le_bytes(*trailer))
}

/// The `Commit` record naming `catalog` (complete catalog file bytes,
/// crc32 trailer included).
pub(crate) fn commit_of(catalog: &[u8]) -> OpKind {
    OpKind::Commit {
        catalog_len: catalog.len() as u64,
        catalog_crc: trailer_crc(catalog),
    }
}

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
            catalog_len,
            catalog_crc,
        } => {
            // Kind 4 is the retired commit record that embedded the whole
            // catalog; it is decoded, never written.
            body.push(6);
            write_uvarint(&mut body, *catalog_len);
            body.extend_from_slice(&catalog_crc.to_le_bytes());
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
        4 => {
            let len = read_uvarint(data, &mut pos)? as usize;
            if pos > data.len() || len > data.len() - pos {
                return Err(DslogError::Corrupt("log record catalog runs past end"));
            }
            let kind = commit_of(&data[pos..pos + len]);
            pos += len;
            kind
        }
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
        6 => {
            let catalog_len = read_uvarint(data, &mut pos)?;
            let catalog_crc = read_u32_le(data, &mut pos)?;
            OpKind::Commit {
                catalog_len,
                catalog_crc,
            }
        }
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

/// Scan a log image front to back. Returns each cleanly framed record with
/// the byte offset just past its frame. Never panics: scanning stops at the
/// first truncated frame, crc mismatch, decode failure, or op-id that is
/// not strictly increasing — the torn tail is simply not returned.
fn scan_frames(data: &[u8]) -> Vec<(OpRecord, usize)> {
    let mut out: Vec<(OpRecord, usize)> = Vec::new();
    let mut pos = 0usize;
    let mut last_id = 0u64;
    while pos < data.len() {
        let Some(len_bytes) = data.get(pos..pos + 4) else {
            break;
        };
        let mut lb = [0u8; 4];
        lb.copy_from_slice(len_bytes);
        let body_len = u32::from_le_bytes(lb) as usize;
        // `body_len` came off the wire: bound it by the bytes actually
        // present before using it to slice.
        let Some(frame_end) = pos
            .checked_add(4)
            .and_then(|p| p.checked_add(body_len))
            .and_then(|p| p.checked_add(4))
        else {
            break;
        };
        if frame_end > data.len() {
            break;
        }
        let body = &data[pos + 4..pos + 4 + body_len];
        let mut cb = [0u8; 4];
        cb.copy_from_slice(&data[pos + 4 + body_len..frame_end]);
        if crc32(body) != u32::from_le_bytes(cb) {
            break;
        }
        let Ok(rec) = decode_body(body) else {
            break;
        };
        if rec.op_id <= last_id {
            break;
        }
        last_id = rec.op_id;
        out.push((rec, frame_end));
        pos = frame_end;
    }
    out
}

/// Parse a log image: the cleanly framed records and the byte length of
/// that clean prefix. Anything past the clean prefix is a torn tail.
pub fn read_log(data: &[u8]) -> (Vec<OpRecord>, usize) {
    let frames = scan_frames(data);
    let clean_len = frames.last().map_or(0, |(_, end)| *end);
    (frames.into_iter().map(|(rec, _)| rec).collect(), clean_len)
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Logical database state derived by replaying log records in order: which
/// arrays and edges exist, the current generation and gzip mode, and how
/// many commits the log witnessed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayState {
    /// Array names, in first-definition order.
    pub arrays: Vec<String>,
    /// `(in_array, out_array)` edge keys, in first-ingest order.
    pub edges: Vec<(String, String)>,
    /// Generation of the last replayed commit (0 before any commit).
    pub generation: u64,
    /// gzip mode after the last conversion record.
    pub gzip: bool,
    /// Number of commit records replayed.
    pub commits: u64,
}

/// Apply one record to the replay state.
///
/// Every [`OpKind`] variant the producer can write must have its own arm
/// here — `cargo xtask lint` rejects a wildcard, so a new op type cannot
/// silently become unreplayable.
pub fn replay_op(state: &mut ReplayState, op: &OpRecord) {
    match &op.kind {
        OpKind::DefineArray { name, .. } => {
            if !state.arrays.contains(name) {
                state.arrays.push(name.clone());
            }
        }
        OpKind::IngestEdge {
            in_array,
            out_array,
            ..
        } => {
            let key = (in_array.clone(), out_array.clone());
            if !state.edges.contains(&key) {
                state.edges.push(key);
            }
        }
        OpKind::Composite { path } => {
            if path.len() >= 2 {
                // Path is outermost-first; the materialized edge runs from
                // the source array (last) to the outermost (first).
                let key = (path[path.len() - 1].clone(), path[0].clone());
                if !state.edges.contains(&key) {
                    state.edges.push(key);
                }
            }
        }
        OpKind::ConvertGzip { gzip } => {
            state.gzip = *gzip;
        }
        OpKind::Commit { .. } => {
            state.generation = op.gen_after;
            state.commits += 1;
        }
        OpKind::Compact { .. } => {
            // Compaction rewrites file layout, never logical state: the
            // arrays, edges, and generation it produced are carried by the
            // Commit record that follows it in the same append.
        }
    }
}

/// Replay a record sequence from the empty state.
pub fn replay(records: &[OpRecord]) -> ReplayState {
    let mut state = ReplayState::default();
    for rec in records {
        replay_op(&mut state, rec);
    }
    state
}

// ---------------------------------------------------------------------------
// Log file IO
// ---------------------------------------------------------------------------

/// Outcome of reconciling the on-disk log with the committed catalog.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Recovery {
    /// Byte length of the surviving prefix — clean frames up to and
    /// including the last commit the catalog vouches for: the append
    /// position.
    pub(crate) clean_len: u64,
    /// Highest surviving op id (0 for an empty log).
    pub(crate) last_op_id: u64,
}

/// Read and reconcile `<dir>/ops.log` against the committed catalog
/// generation, truncating the physical file down to the surviving prefix
/// (best effort — read-only snapshots stay openable).
///
/// A missing or unreadable log yields an empty recovery: pre-log
/// directories are valid, and a log that cannot be read must never block
/// an open.
pub(crate) fn recover(dir: &Path, catalog_generation: u64) -> Recovery {
    let _io = dslog_sync::io_guard("wal::recover");
    let path = dir.join(OPS_LOG_FILE);
    let Ok(bytes) = std::fs::read(&path) else {
        return Recovery::default();
    };
    let frames = scan_frames(&bytes);
    // Keep everything up to the last commit the catalog vouches for; later
    // records describe work whose commit point was never reached.
    let (last_op_id, cut) = frames
        .iter()
        .rfind(|(rec, _)| {
            matches!(rec.kind, OpKind::Commit { .. }) && rec.gen_after <= catalog_generation
        })
        .map_or((0, 0), |(rec, end)| (rec.op_id, *end));
    let clean_len = cut as u64;
    if bytes.len() as u64 > clean_len {
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = f.set_len(clean_len);
            let _ = f.sync_data();
        }
    }
    Recovery {
        clean_len,
        last_op_id,
    }
}

/// Read-only view of every cleanly framed record in `<dir>/ops.log`
/// (including records past the last catalog-vouched commit — history shows
/// what was attempted). A missing log is an empty history.
pub fn history(dir: &Path) -> Result<Vec<OpRecord>> {
    let _io = dslog_sync::io_guard("wal::history");
    match std::fs::read(dir.join(OPS_LOG_FILE)) {
        Ok(bytes) => Ok(read_log(&bytes).0),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(DslogError::io("read ops.log", e)),
    }
}

/// Append `records` at `clean_len`, then fdatasync; returns the log's new
/// clean length. The file is first truncated to `clean_len`, dropping any
/// torn tail a failed earlier append left behind. On error the log may
/// hold a new torn tail past `clean_len`; the next [`recover`] removes it.
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
    let mut end = clean_len;
    for frame in records.iter().map(encode_record) {
        policy_write(&mut f, &frame, "append ops.log record", policy)?;
        end += frame.len() as u64;
    }
    policy_sync(&f, "sync ops.log", policy)?;
    Ok(end)
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
/// along the commit path (segment write, log appends, catalog write,
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

/// One generation a sweep must spare: its number and the data files its
/// catalog references.
pub(crate) type Generation = (u64, HashSet<String>);

/// What a manager remembers about the directory it is bound to, so a
/// commit reads back nothing it wrote itself: where the log ends, and
/// which files the generations it must spare name. Lives in the
/// persistence binding (shared by epoch clones); built from the directory
/// by `persist::load_tail`, advanced by every successful commit, and
/// dropped — hence rebuilt by the next commit — whenever a commit fails or
/// the directory no longer looks the way the tail left it.
#[derive(Debug, Default)]
pub(crate) struct LogTail {
    /// Byte length of the log's clean prefix: the append position.
    pub(crate) clean_len: u64,
    /// Highest op id in that prefix (0 for an empty log).
    pub(crate) last_op_id: u64,
    /// Generation the next commit uses: one past every generation a file
    /// name in the directory carried when the tail was built or advanced.
    pub(crate) next_gen: u64,
    /// Byte length of the live catalog file.
    pub(crate) catalog_len: u64,
    /// Oldest first: the retained generations; the last entry is the
    /// live generation.
    pub(crate) window: Vec<Generation>,
}

impl LogTail {
    /// How many distinct data files the live catalog references.
    pub(crate) fn live_files(&self) -> usize {
        self.window.last().map_or(0, |(_, files)| files.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<OpRecord> {
        vec![
            OpRecord {
                op_id: 1,
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
                op_id: 2,
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
                op_id: 3,
                timestamp_ms: 1_700_000_000_002,
                actor: "srv".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::Composite {
                    path: vec!["C".into(), "B".into(), "A".into()],
                },
            },
            OpRecord {
                op_id: 4,
                timestamp_ms: 1_700_000_000_003,
                actor: "srv".into(),
                gen_before: 0,
                gen_after: 0,
                kind: OpKind::ConvertGzip { gzip: true },
            },
            OpRecord {
                op_id: 5,
                timestamp_ms: 1_700_000_000_004,
                actor: "srv".into(),
                gen_before: 0,
                gen_after: 1,
                kind: commit_of(&[1, 2, 3, 4, 5]),
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
        let last = encode_record(&recs[4]);
        // Every proper prefix of the last frame parses to exactly 4 records.
        let boundary = full - last.len();
        for cut in boundary..full {
            let (parsed, clean) = read_log(&image[..cut]);
            assert_eq!(parsed.len(), 4, "cut at {cut}");
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
    fn replay_covers_every_kind() {
        let state = replay(&sample_records());
        assert_eq!(state.arrays, vec!["A".to_string()]);
        assert_eq!(
            state.edges,
            vec![
                ("A".to_string(), "B".to_string()),
                ("A".to_string(), "C".to_string()),
            ]
        );
        assert!(state.gzip);
        assert_eq!(state.generation, 1);
        assert_eq!(state.commits, 1);
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
