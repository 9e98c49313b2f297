//! The storage manager: named arrays, lineage edges, and on-demand
//! orientation derivation (paper §III, §IV.C).
//!
//! Lineage for an operation `O = op(I)` is stored per `(I, O)` pair as a
//! ProvRC-compressed table. By default only the **backward** orientation is
//! materialized (matching the paper's storage experiments); the forward
//! orientation is derived lazily on the first forward query over that edge
//! and cached. A query path is resolved against the arrays and edges once
//! per snapshot, into the manager's per-path registry (`ResolvedPath`).
//!
//! Every relation becomes a stored edge the same way, whoever captured it
//! (`add_lineage`, `register_operation`, §VI reuse, the service's batched
//! ingest): `StorageManager::prepare` then `StorageManager::install`.
//! `prepare` owns every per-edge decision — the shape and arity checks,
//! which orientations the [`Materialize`] policy stores, ProvRC
//! compression, index building and the op-log record — and `install`
//! owns the duplicate rule (replace or reject) and the pointer work of
//! logging, storing and invalidating. A batch either installs whole or
//! not at all.

pub mod compact;
pub mod format;
pub mod persist;
pub mod wal;

/// The string and fixed-width integer codecs the catalog and log formats
/// share. Every length is bounded by the bytes actually left
/// before it is used, so hostile input errs and never panics.
pub(crate) mod wire {
    use crate::error::{DslogError, Result};
    use dslog_codecs::varint::{read_uvarint, write_uvarint};

    pub(crate) fn write_string(buf: &mut Vec<u8>, s: &str) {
        write_uvarint(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn read_string(data: &[u8], pos: &mut usize) -> Result<String> {
        let len = read_uvarint(data, pos)? as usize;
        // Compare against the bytes actually left (`*pos + len` could wrap
        // on a hostile varint; this form cannot overflow).
        if *pos > data.len() || len > data.len() - *pos {
            return Err(DslogError::Corrupt("string runs past end of input"));
        }
        let s = std::str::from_utf8(&data[*pos..*pos + len])
            .map_err(|_| DslogError::Corrupt("string is not UTF-8"))?
            .to_string();
        *pos += len;
        Ok(s)
    }

    pub(crate) fn read_u32_le(data: &[u8], pos: &mut usize) -> Result<u32> {
        let bytes = data
            .get(*pos..*pos + 4)
            .ok_or(DslogError::Corrupt("input truncated at a u32"))?;
        *pos += 4;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }
}

use crate::error::{DslogError, Result};
use crate::provrc::{self, CompressOptions};
use crate::reuse::CompositePolicy;
use crate::table::{CompressedTable, LineageTable, Orientation};
use dslog_sync::{ranks, Mutex, RwLock};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Most attributes (output plus input axes) one edge may have: what the
/// table decoder accepts, and what keeps a ProvRC anchor index in a `u8`.
pub(crate) const MAX_EDGE_ARITY: usize = 256;

/// [`DslogError::UnsupportedArity`] unless `min <= got <= max`.
fn check_arity(got: usize, min: usize, max: usize) -> Result<()> {
    if (min..=max).contains(&got) {
        Ok(())
    } else {
        Err(DslogError::UnsupportedArity { got, min, max })
    }
}

/// Metadata for a defined array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMeta {
    /// Shape (extent per axis).
    pub shape: Vec<usize>,
}

impl ArrayMeta {
    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }
}

/// Which orientations to materialize at ingest (paper §IV.C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Materialize {
    /// Store backward only; derive forward on demand (paper default).
    #[default]
    Backward,
    /// Store forward only; derive backward on demand.
    Forward,
    /// Store both eagerly.
    Both,
}

/// A not-yet-loaded table the catalog references: everything needed to
/// read, verify, and decode it on first use.
#[derive(Debug, Clone)]
pub(crate) struct DiskTable {
    /// The database directory holding the record's file.
    pub(crate) dir: PathBuf,
    /// Whether the table uses the ProvRC-GZip disk format.
    pub(crate) gzip: bool,
    /// Orientation the catalog says this table stores.
    pub(crate) orientation: Orientation,
    /// The catalog's record of the table (its `raw_len` lets
    /// `storage_bytes` report the same number for lazy and loaded slots).
    pub(crate) record: FileRecord,
}

impl DiskTable {
    /// Read the range, verify it against the catalog record, and decode it
    /// (same path as an eager open — see `persist::load_table_file`). Any
    /// mismatch is a hard error: a lazily opened database must fail
    /// exactly where an eager open would have.
    pub(crate) fn load(&self) -> Result<CompressedTable> {
        persist::load_table_file(&self.dir, self.gzip, self.orientation, &self.record)
    }

    /// Read + verify the range and return its plain (un-gzipped) serialized
    /// bytes without decoding a table — the save path re-writes tables
    /// verbatim this way instead of decode + re-encode.
    pub(crate) fn read_plain_bytes(&self) -> Result<Vec<u8>> {
        let bytes = persist::read_verified_bytes(&self.dir, self.gzip, &self.record)?;
        let plain = if self.gzip {
            dslog_codecs::gzip::decompress(&bytes)?
        } else {
            bytes
        };
        if plain.len() as u64 != self.record.raw_len {
            return Err(DslogError::Corrupt("edge file declared size mismatch"));
        }
        Ok(plain)
    }
}

/// Where one orientation of an edge currently lives: decoded in memory, or
/// still on disk (lazy open) with its catalog-recorded length + checksum.
#[derive(Debug, Clone)]
pub(crate) enum TableSource {
    /// Decoded and resident.
    Loaded(Arc<CompressedTable>),
    /// Referenced by the catalog but not yet read; swapped for `Loaded` on
    /// the first `resolve_hop` that needs it.
    OnDisk(DiskTable),
}

/// Catalog record of the committed bytes that hold one slot's table: a
/// range of a file in the bound database directory (see
/// [`PersistBinding`]): the part of the generation segment a commit
/// appended the table to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileRecord {
    /// Bare file name inside the database directory.
    pub(crate) name: String,
    /// Byte length of the range.
    pub(crate) len: u64,
    /// crc32 of the range's bytes.
    pub(crate) crc: u32,
    /// Byte length of the plain (un-gzipped) serialized table.
    pub(crate) raw_len: u64,
    /// Byte offset of the range in the file.
    pub(crate) offset: u64,
}

impl FileRecord {
    /// Whether a file of `file_len` bytes can hold the recorded range. The
    /// O(1) guard of lazy opens and incremental commits, and the bound on
    /// what a read may allocate.
    pub(crate) fn fits(&self, file_len: u64) -> bool {
        file_len >= self.offset.saturating_add(self.len)
    }
}

/// One orientation slot of an edge: the table (if stored) plus its
/// incremental-persistence state. `persisted` is `Some` exactly when the
/// bound database directory already holds a committed range with this
/// slot's content — such slots are *clean* and an incremental commit
/// reuses the recorded range instead of rewriting it. Anything that
/// changes the slot's content (fresh ingest, on-demand derivation,
/// rebalancing) clears the record, marking the slot *dirty*.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    pub(crate) source: Option<TableSource>,
    pub(crate) persisted: Option<FileRecord>,
}

impl Slot {
    fn dirty(source: Option<TableSource>) -> Self {
        Self {
            source,
            persisted: None,
        }
    }
}

/// The database directory the manager is bound to for incremental
/// commits: set by `persist::open` and by every successful
/// `persist::commit`. A commit into the bound directory with the same
/// `gzip` mode is incremental (clean slots reuse their committed ranges);
/// any other target gets a full save.
#[derive(Debug)]
pub(crate) struct PersistBinding {
    pub(crate) dir: PathBuf,
    pub(crate) gzip: bool,
    /// Generation of the last committed catalog.
    pub(crate) generation: u64,
    /// What the manager remembers of the directory's log and retained
    /// files (see [`wal::LogTail`]). A commit takes it and puts the
    /// advanced tail back on success, so `None` — after a failed commit —
    /// makes the next commit rebuild it from the directory.
    pub(crate) tail: Option<wal::LogTail>,
}

/// One stored lineage edge (input array → output array).
#[derive(Debug)]
struct Edge {
    backward: RwLock<Slot>,
    forward: RwLock<Slot>,
    out_shape: Vec<usize>,
    in_shape: Vec<usize>,
    /// Query-direction counters feeding the §IV.C materialization decision
    /// ("one version depending on the distribution of forward and reverse
    /// queries").
    backward_hits: AtomicU64,
    forward_hits: AtomicU64,
}

impl Edge {
    fn new(backward: Slot, forward: Slot, out_shape: Vec<usize>, in_shape: Vec<usize>) -> Self {
        Self {
            backward: RwLock::new(&ranks::STORAGE_SLOT, backward),
            forward: RwLock::new(&ranks::STORAGE_SLOT, forward),
            out_shape,
            in_shape,
            backward_hits: AtomicU64::new(0),
            forward_hits: AtomicU64::new(0),
        }
    }

    fn slot(&self, orientation: Orientation) -> &RwLock<Slot> {
        match orientation {
            Orientation::Backward => &self.backward,
            Orientation::Forward => &self.forward,
        }
    }

    /// The table stored for `orientation`, loading it from disk if the slot
    /// holds a lazy reference. Returns `Ok(None)` if the orientation is not
    /// stored at all (no derivation happens here). `warm_index` builds the
    /// query index under the slot lock before publishing — the query path
    /// wants that, but e.g. `persist::save` loads tables only to serialize
    /// them and skips the O(n log n) build.
    fn stored(
        &self,
        orientation: Orientation,
        warm_index: bool,
    ) -> Result<Option<Arc<CompressedTable>>> {
        let slot = self.slot(orientation);
        match &slot.read().source {
            Some(TableSource::Loaded(t)) => return Ok(Some(Arc::clone(t))),
            None => return Ok(None),
            Some(TableSource::OnDisk(_)) => {}
        }
        let mut slot_w = slot.write();
        match &slot_w.source {
            Some(TableSource::Loaded(t)) => Ok(Some(Arc::clone(t))),
            None => Ok(None),
            Some(TableSource::OnDisk(disk)) => {
                let table = Arc::new(disk.load()?);
                // On the query path, publish with a warm index like every
                // other slot fill.
                if warm_index && !table.is_generalized() {
                    table.ensure_index();
                }
                // Loading does not change content: the slot stays clean
                // (its `persisted` record remains valid).
                slot_w.source = Some(TableSource::Loaded(Arc::clone(&table)));
                Ok(Some(table))
            }
        }
    }
}

impl Edge {
    /// Clone one slot's state out of its lock, for the commit planner
    /// (file IO must never run under a slot lock).
    fn snapshot(&self, orientation: Orientation) -> (Option<TableSource>, Option<FileRecord>) {
        let slot = self.slot(orientation).read();
        (slot.source.clone(), slot.persisted.clone())
    }

    /// Mark a slot clean after a commit wrote it: record the committed
    /// range now holding its content, and — if the slot is still a lazy
    /// `OnDisk` reference — repoint it at that range. The old file may
    /// have just been swept (same-directory rewrite, e.g. a gzip
    /// conversion), so a stale source would make every later load fail.
    /// Called only after the catalog rename landed. Safe against
    /// concurrent readers: under `&StorageManager` a non-empty slot's
    /// content can only transition `OnDisk → Loaded` (identical bytes),
    /// so both the record and the repointed source still describe what
    /// the slot holds.
    fn publish_committed(
        &self,
        orientation: Orientation,
        record: FileRecord,
        dir: &std::path::Path,
        gzip: bool,
    ) {
        let mut slot = self.slot(orientation).write();
        if let Some(TableSource::OnDisk(disk)) = &mut slot.source {
            *disk = DiskTable {
                dir: dir.to_path_buf(),
                gzip,
                orientation,
                record: record.clone(),
            };
        }
        slot.persisted = Some(record);
    }
}

/// Per-edge query-direction statistics (§IV.C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeStats {
    /// Input array of the edge.
    pub in_array: String,
    /// Output array of the edge.
    pub out_array: String,
    /// Hops served in the backward direction (output → input).
    pub backward_hits: u64,
    /// Hops served in the forward direction (input → output).
    pub forward_hits: u64,
}

impl Edge {
    /// Fetch the requested orientation, deriving and caching it from the
    /// other one if missing (decompress → recompress; §IV.C).
    ///
    /// The derived table is published with its query index already built, so
    /// the first forward query after a backward-only ingest pays the
    /// derive-plus-index cost exactly once; every later call (and any call
    /// racing with the first — the derivation runs under the slot's write
    /// lock) gets the cached `Arc` with a warm index.
    fn repr(&self, orientation: Orientation) -> Result<Arc<CompressedTable>> {
        if let Some(t) = self.stored(orientation, true)? {
            return Ok(t);
        }
        // Resolve the source table before taking the target's write lock:
        // `stored` only ever holds one slot's lock at a time, so two threads
        // deriving opposite orientations cannot deadlock.
        let source = self
            .stored(orientation.flip(), true)?
            .ok_or(DslogError::Corrupt("edge with no stored orientation"))?;
        let slot = self.slot(orientation);
        let mut slot_w = slot.write();
        if let Some(TableSource::Loaded(t)) = slot_w.source.as_ref() {
            // Another thread derived while we waited for the lock.
            return Ok(Arc::clone(t));
        }
        let full = source.decompress()?;
        let derived = Arc::new(provrc::compress(
            &full,
            &self.out_shape,
            &self.in_shape,
            orientation,
        ));
        derived.ensure_index();
        // A derived orientation is new content: dirty until the next
        // commit writes it.
        *slot_w = Slot::dirty(Some(TableSource::Loaded(Arc::clone(&derived))));
        Ok(derived)
    }
}

/// One relation to ingest: `(input array, output array, lineage)`.
pub(crate) type EdgeJob<'a> = (&'a str, &'a str, &'a LineageTable);

/// What [`StorageManager::install`] does with a pair the store already
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnDuplicate {
    /// Capture path: a re-run operation's lineage supersedes the old edge.
    Replace,
    /// Service path: refuse the batch with [`DslogError::DuplicateEdge`],
    /// so the stored edge count and the ingest counters never drift apart.
    Reject,
}

/// An edge ready to store: checked against its arrays, its orientations
/// compressed and indexed, its log record computed. Only
/// [`StorageManager::prepare`] (and `prepare_reused`) make one.
#[derive(Debug)]
pub(crate) struct PreparedEdge {
    /// `(input array, output array)`.
    key: (String, String),
    edge: Edge,
    log: wal::OpKind,
}

impl PreparedEdge {
    /// Index each of the `[backward, forward]` tables, and take the log
    /// record from the stored one (backward if both are): its serialized
    /// length and, as the per-edge digest, the crc32 the table file's own
    /// trailer holds.
    fn new(
        key: (&str, &str),
        tables: [Option<CompressedTable>; 2],
        (out_shape, in_shape): (Vec<usize>, Vec<usize>),
    ) -> Result<Self> {
        let [backward, forward] = tables.map(|table| {
            let table = Arc::new(table?);
            if !table.is_generalized() {
                table.ensure_index();
            }
            Some(table)
        });
        let table = (backward.as_deref().or(forward.as_deref()))
            .ok_or(DslogError::Corrupt("edge with no stored orientation"))?;
        let bytes = format::serialize(table);
        let key = (key.0.to_string(), key.1.to_string());
        let log = wal::OpKind::IngestEdge {
            in_array: key.0.clone(),
            out_array: key.1.clone(),
            bytes: bytes.len() as u64,
            digest: wal::trailer_crc(&bytes),
        };
        // A fresh edge: both slots dirty (nothing committed yet).
        let [backward, forward] =
            [backward, forward].map(|t| Slot::dirty(t.map(TableSource::Loaded)));
        let edge = Edge::new(backward, forward, out_shape, in_shape);
        Ok(Self { key, edge, log })
    }
}

/// How a query hop traverses an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopDirection {
    /// Query moves output → input: needs the backward orientation.
    Backward,
    /// Query moves input → output: needs the forward orientation.
    Forward,
}

/// What the planner should do with a path, per its registry entry.
#[derive(Debug, Clone)]
pub(crate) enum CompositeProbe {
    /// A materialized composite covers the path: run it as one hop.
    Serve(Arc<CompressedTable>),
    /// The path is hot (hit threshold reached): materialize it now.
    Materialize,
    /// Execute normally.
    Pass,
}

/// A path as the registry keys it: hashed and compared name by name, so the
/// owned key and a query's borrowed `&[&str]` are one key and a lookup
/// builds nothing.
trait PathKey {
    fn name(&self, i: usize) -> Option<&str>;
}

impl<'k> dyn PathKey + 'k {
    fn names(&self) -> impl Iterator<Item = &str> {
        (0..).map_while(|i| self.name(i))
    }
}

impl PathKey for &[&str] {
    fn name(&self, i: usize) -> Option<&str> {
        self.get(i).copied()
    }
}

impl Hash for dyn PathKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.names().for_each(|n| n.hash(state));
    }
}

impl PartialEq for dyn PathKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.names().eq(other.names())
    }
}

impl Eq for dyn PathKey + '_ {}

/// The registry's owned key: the path's array names.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnedPath(Vec<String>);

impl PathKey for OwnedPath {
    fn name(&self, i: usize) -> Option<&str> {
        self.0.get(i).map(String::as_str)
    }
}

impl Hash for OwnedPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn PathKey).hash(state);
    }
}

impl<'a> Borrow<dyn PathKey + 'a> for OwnedPath {
    fn borrow(&self) -> &(dyn PathKey + 'a) {
        self
    }
}

/// One hop of a resolved path: the edge that connects the pair, and the
/// orientation whose primary side is the hop's `from` array.
#[derive(Debug, Clone)]
struct PathHop {
    edge: Arc<Edge>,
    orientation: Orientation,
}

/// One entry of the per-path registry ([`StorageManager::path`]): a query
/// path resolved against one snapshot — every array known to exist, every
/// hop bound to its edge and orientation — plus the path's composite-edge
/// state. Tables are *not* cached here: each hop still reads its edge's
/// slot, so lazy loads, derived orientations and rebalancing show at once.
#[derive(Debug)]
pub(crate) struct ResolvedPath {
    /// One per hop; `None` where no lineage edge connects the pair.
    hops: Vec<Option<PathHop>>,
    /// Metadata of the path's first array (the query's space).
    pub(crate) first: ArrayMeta,
    /// Metadata of the path's last array (the result's space).
    pub(crate) last: ArrayMeta,
    /// Planner sightings while the composite is undecided.
    sightings: AtomicU32,
    /// Unset while counting; then the materialized join of the whole path
    /// (served as a single probe), or `None` for a path found too large
    /// (policy caps) — never retried until an ingest drops the entry.
    composite: OnceLock<Option<Arc<CompressedTable>>>,
}

impl ResolvedPath {
    /// Number of hops (arrays on the path minus one).
    pub(crate) fn n_hops(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path's composite table is registered.
    fn is_materialized(&self) -> bool {
        matches!(self.composite.get(), Some(Some(_)))
    }

    /// Resolve hop `k` for execution: bump the edge's §IV.C hit counter and
    /// return the compressed table whose primary side is `path[k]`'s
    /// attribute space (derived and cached if that orientation is not
    /// stored). `path` names the arrays, for the error when no edge
    /// connects the pair.
    pub(crate) fn resolve_hop(&self, k: usize, path: &[&str]) -> Result<Arc<CompressedTable>> {
        let Some(hop) = &self.hops[k] else {
            return Err(DslogError::NoLineagePath {
                from: path[k].to_string(),
                to: path[k + 1].to_string(),
            });
        };
        let hits = match hop.orientation {
            Orientation::Backward => &hop.edge.backward_hits,
            Orientation::Forward => &hop.edge.forward_hits,
        };
        hits.fetch_add(1, Ordering::Relaxed);
        hop.edge.repr(hop.orientation)
    }

    /// The table hop `k` would run over, with **none** of
    /// [`resolve_hop`](Self::resolve_hop)'s side effects: hit counters do
    /// not move and a missing orientation is *not* derived. A lazy on-disk
    /// slot is loaded — execution would load it anyway. Returns `None`
    /// when no edge connects the pair, the orientation is not stored, or a
    /// lazy load fails (execution will surface that error itself).
    pub(crate) fn peek_hop(&self, k: usize) -> Option<Arc<CompressedTable>> {
        let hop = self.hops[k].as_ref()?;
        hop.edge.stored(hop.orientation, true).ok()?
    }

    /// Record one planner sighting and say what to do with the path: serve
    /// its composite, materialize a now-hot one, or pass. `Materialize`
    /// keeps being returned on later sightings until
    /// [`StorageManager::install_composite`] resolves the entry, so a
    /// skipped materialization (e.g. tables not resident) retries.
    pub(crate) fn observe_composite(&self, policy: CompositePolicy) -> CompositeProbe {
        if !policy.enabled || self.hops.len() < 2 {
            return CompositeProbe::Pass;
        }
        match self.composite.get() {
            Some(Some(table)) => CompositeProbe::Serve(Arc::clone(table)),
            Some(None) => CompositeProbe::Pass,
            None if self.sightings.fetch_add(1, Ordering::Relaxed) + 1 >= policy.hit_threshold => {
                CompositeProbe::Materialize
            }
            None => CompositeProbe::Pass,
        }
    }
}

/// The DSLog storage manager.
///
/// Edges are held as `Arc`s so an epoch clone (`clone_for_epoch`, used by
/// [`crate::api::Dslog`]'s own epoch clone) shares every stored table
/// with its parent: the service layer builds the next snapshot by cloning
/// the maps (pointer copies), mutating the clone, and publishing it — the
/// previous snapshot stays fully intact for in-flight readers.
///
/// Queries do not look arrays or edges up by name: `path`
/// keeps one `ResolvedPath` per queried path — validated, every hop bound
/// to its edge and orientation, with the path's composite-edge state — that
/// a warm query finds from its borrowed names under a read lock. Ingest
/// into a pair drops the entries through it; nothing else can stale one
/// (arrays are never removed or reshaped, and entries hold edges, not
/// tables).
#[derive(Debug)]
pub struct StorageManager {
    arrays: HashMap<String, ArrayMeta>,
    /// Keyed by (input array, output array).
    edges: HashMap<(String, String), Arc<Edge>>,
    // What the handle was configured with (see `api::OpenOptions`): plain
    // values, copied into every epoch clone, so nothing one snapshot's
    // user does can change what another logs or writes.
    pub(crate) materialize: Materialize,
    /// Compression options of `prepare` (whether the relations of one
    /// batch may compress on worker threads).
    pub(crate) compress: CompressOptions,
    pub(crate) composite_policy: CompositePolicy,
    /// Who operation-log records name when the operation brings no actor
    /// of its own.
    pub(crate) actor: String,
    /// Prior committed generations each commit keeps on disk (catalog and
    /// files) for `as_of` opens; 0 sweeps everything the new catalog does
    /// not reference.
    pub(crate) retain: u32,
    /// The fault injector gating this manager's commit IO, if any.
    pub(crate) io_policy: Option<Arc<wal::IoPolicy>>,
    /// Incremental-commit binding (directory, gzip mode, last committed
    /// generation). Behind a mutex so `persist::commit` — which takes
    /// `&StorageManager` and may run concurrently with queries — can
    /// update it. Held only for brief reads/publishes, so
    /// [`persist_binding`](Self::persist_binding) (service stats) never
    /// blocks behind commit IO. Shared (`Arc`) across epoch clones: a
    /// commit through any snapshot re-binds every snapshot of the same
    /// database. Rank `storage.binding` (50).
    binding: Arc<Mutex<Option<PersistBinding>>>,
    /// Held across each whole `persist::commit`: two concurrent commits
    /// on one manager serialize instead of racing for the same
    /// generation number and each other's sweeps. Shared across epoch
    /// clones for the same reason as `binding`. Rank `storage.commit`
    /// (40), flagged `io_safe` — serializing the commit's file IO is its
    /// entire job.
    commit_lock: Arc<Mutex<()>>,
    /// The per-path registry: every path a query has named, keyed by the
    /// full array path, resolved once against this snapshot's arrays and
    /// edges and carrying the path's composite-edge state. A warm query
    /// finds its entry under the *read* lock without building a key; the
    /// write lock is taken to insert a first sighting and by ingest
    /// invalidation. Rank `storage.composites` (60).
    paths: RwLock<HashMap<OwnedPath, Arc<ResolvedPath>>>,
    /// Mutations buffered since the last commit. Shared (`Arc`) across
    /// epoch clones like `binding`, so ops recorded on any snapshot drain
    /// into the same `ops.log` at the next commit. Rank `storage.wal`
    /// (45), `io_safe` — `persist::commit` briefly re-locks it around the
    /// log append it serializes.
    wal: Arc<Mutex<Vec<wal::PendingOp>>>,
}

impl Default for StorageManager {
    fn default() -> Self {
        Self {
            arrays: HashMap::new(),
            edges: HashMap::new(),
            materialize: Materialize::default(),
            compress: CompressOptions::default(),
            composite_policy: CompositePolicy::default(),
            actor: "local".to_string(),
            retain: 0,
            io_policy: None,
            binding: Arc::new(Mutex::new(&ranks::STORAGE_BINDING, None)),
            commit_lock: Arc::new(Mutex::new(&ranks::STORAGE_COMMIT, ())),
            paths: RwLock::new(&ranks::STORAGE_COMPOSITES, HashMap::new()),
            wal: Arc::new(Mutex::new(&ranks::STORAGE_WAL, Vec::new())),
        }
    }
}

impl StorageManager {
    /// Empty manager with the default materialization policy (backward).
    pub fn new() -> Self {
        Self::default()
    }

    /// Shallow clone for epoch-snapshot publication: shares every stored
    /// edge (`Arc`), the persistence binding, and the commit lock with
    /// `self`; the array and edge *maps* are fresh, so inserting into the
    /// clone never disturbs readers of the original. Slot-level state
    /// (lazy loads, derived orientations, clean/dirty marks) lives inside
    /// the shared `Arc<Edge>`s and stays coherent across all clones.
    pub(crate) fn clone_for_epoch(&self) -> Self {
        Self {
            arrays: self.arrays.clone(),
            edges: self.edges.clone(),
            materialize: self.materialize,
            compress: self.compress,
            composite_policy: self.composite_policy,
            actor: self.actor.clone(),
            retain: self.retain,
            io_policy: self.io_policy.clone(),
            binding: Arc::clone(&self.binding),
            commit_lock: Arc::clone(&self.commit_lock),
            // The registry is *content*-cloned (the map, not the lock):
            // the next epoch's ingest invalidations and first sightings
            // must never disturb readers of the published snapshot. The
            // entries themselves are shared like the edges they bind — an
            // entry both epochs hold resolves, counts and serves the same
            // for both.
            paths: RwLock::new(&ranks::STORAGE_COMPOSITES, self.paths.read().clone()),
            wal: Arc::clone(&self.wal),
        }
    }

    /// Buffer one operation-log record; it is framed and flushed to
    /// `ops.log` by the next commit. The timestamp is captured now; the
    /// record names `actor`, or the configured one when the operation
    /// brings none.
    fn wal_push(&self, kind: wal::OpKind, actor: Option<&str>) {
        self.wal.lock().push(wal::PendingOp {
            kind,
            actor: actor.unwrap_or(&self.actor).to_string(),
            timestamp_ms: wal::now_ms(),
        });
    }

    /// Define (or re-define identically) a named array.
    pub fn define_array(&mut self, name: &str, shape: &[usize]) -> Result<()> {
        self.define_array_as(name, shape, None)
    }

    /// [`define_array`](Self::define_array), logged under `actor`.
    pub(crate) fn define_array_as(
        &mut self,
        name: &str,
        shape: &[usize],
        actor: Option<&str>,
    ) -> Result<()> {
        // An array of more axes could never take part in a storable edge.
        check_arity(shape.len(), 1, MAX_EDGE_ARITY - 1)?;
        match self.arrays.get(name) {
            Some(meta) if meta.shape != shape => {
                Err(DslogError::ArrayShapeConflict(name.to_string()))
            }
            Some(_) => Ok(()),
            None => {
                self.arrays.insert(
                    name.to_string(),
                    ArrayMeta {
                        shape: shape.to_vec(),
                    },
                );
                let kind = wal::OpKind::DefineArray {
                    name: name.to_string(),
                    shape: shape.to_vec(),
                };
                self.wal_push(kind, actor);
                Ok(())
            }
        }
    }

    /// Metadata for `name`.
    pub fn array(&self, name: &str) -> Result<&ArrayMeta> {
        self.arrays
            .get(name)
            .ok_or_else(|| DslogError::UnknownArray(name.to_string()))
    }

    /// The `(out, in)` shapes of an edge `in_array → out_array` between
    /// defined arrays, checked to fit a table file: at most
    /// [`MAX_EDGE_ARITY`] attributes. [`prepare`](Self::prepare) asks
    /// this of every job before it compresses anything.
    pub(crate) fn edge_shapes(
        &self,
        in_array: &str,
        out_array: &str,
    ) -> Result<(Vec<usize>, Vec<usize>)> {
        let in_shape = self.array(in_array)?.shape.clone();
        let out_shape = self.array(out_array)?.shape.clone();
        check_arity(out_shape.len() + in_shape.len(), 2, MAX_EDGE_ARITY)?;
        Ok((out_shape, in_shape))
    }

    /// All defined array names (sorted, for deterministic iteration).
    pub fn array_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.arrays.keys().cloned().collect();
        names.sort();
        names
    }

    /// Ingest an uncompressed lineage relation for the edge
    /// `in_array → out_array`, compressing it with ProvRC: one edge
    /// through `prepare` and `install`.
    ///
    /// Re-ingesting an existing `(in, out)` pair *replaces* the stored
    /// edge (capture-path semantics: a re-run operation's lineage
    /// supersedes the old one); the service's batched ingest rejects it.
    pub fn ingest_lineage(
        &mut self,
        in_array: &str,
        out_array: &str,
        lineage: &LineageTable,
    ) -> Result<()> {
        let edges = self.prepare(&[(in_array, out_array, lineage)])?;
        self.install(edges, OnDuplicate::Replace, None)
    }

    /// Every per-edge step of ingest, for a batch of relations: check each
    /// job's arrays and arity, compress every orientation the
    /// [`Materialize`] policy stores (one batch per orientation, on worker
    /// threads when the batch is large enough), index each table and
    /// compute each edge's log record. Needs only `&self`, so the service
    /// runs it on a snapshot with no lock held; results keep job order.
    pub(crate) fn prepare(&self, jobs: &[EdgeJob<'_>]) -> Result<Vec<PreparedEdge>> {
        let mut shapes = Vec::with_capacity(jobs.len());
        for &(in_array, out_array, lineage) in jobs {
            let (out_shape, in_shape) = self.edge_shapes(in_array, out_array)?;
            if (lineage.out_arity(), lineage.in_arity()) != (out_shape.len(), in_shape.len()) {
                let (expected, got) = (out_shape.len() + in_shape.len(), lineage.arity());
                return Err(DslogError::ArityMismatch { expected, got });
            }
            shapes.push((out_shape, in_shape));
        }
        let compress_jobs: Vec<provrc::CompressJob<'_>> = (jobs.iter().zip(&shapes))
            .map(|(&(_, _, lineage), (out_shape, in_shape))| {
                (lineage, &out_shape[..], &in_shape[..])
            })
            .collect();
        let mut tables = [Orientation::Backward, Orientation::Forward].map(|orientation| {
            let stored = match self.materialize {
                Materialize::Backward => orientation == Orientation::Backward,
                Materialize::Forward => orientation == Orientation::Forward,
                Materialize::Both => true,
            };
            stored.then(|| {
                provrc::compress_batch_parallel_opts(&compress_jobs, orientation, self.compress)
                    .into_iter()
            })
        });
        (jobs.iter().zip(shapes))
            .map(|(&(in_array, out_array, _), shapes)| {
                let job_tables = tables.each_mut().map(|t| t.as_mut()?.next());
                PreparedEdge::new((in_array, out_array), job_tables, shapes)
            })
            .collect()
    }

    /// A reused table (§VI) as an edge for `install`. The reuse manager
    /// matched it on these arrays' shapes, so only the arrays are checked.
    pub(crate) fn prepare_reused(
        &self,
        in_array: &str,
        out_array: &str,
        table: CompressedTable,
    ) -> Result<PreparedEdge> {
        let shapes = self.edge_shapes(in_array, out_array)?;
        let tables = match table.orientation() {
            Orientation::Backward => [Some(table), None],
            Orientation::Forward => [None, Some(table)],
        };
        PreparedEdge::new((in_array, out_array), tables, shapes)
    }

    /// Store prepared edges: log each, replace whatever its pair held, and
    /// drop the registry entries through it. Pointer work only. With
    /// [`OnDuplicate::Reject`] a pair already stored or named twice fails
    /// the whole batch before anything is logged or stored.
    pub(crate) fn install(
        &mut self,
        edges: Vec<PreparedEdge>,
        dup: OnDuplicate,
        actor: Option<&str>,
    ) -> Result<()> {
        if dup == OnDuplicate::Reject {
            self.reject_duplicates(edges.iter().map(|e| (&e.key.0[..], &e.key.1[..])))?;
        }
        for PreparedEdge { key, edge, log } in edges {
            self.wal_push(log, actor);
            self.invalidate_paths(&key.0, &key.1);
            self.edges.insert(key, Arc::new(edge));
        }
        Ok(())
    }

    /// [`DslogError::DuplicateEdge`] for the first `(in, out)` pair the
    /// store already holds or `pairs` names twice: `install`'s
    /// [`OnDuplicate::Reject`] rule, also asked early by callers that
    /// would rather not compress a batch it refuses.
    pub(crate) fn reject_duplicates<'a>(
        &self,
        pairs: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<()> {
        let mut seen = HashSet::new();
        for (in_array, out_array) in pairs {
            if self.has_directed_edge(in_array, out_array) || !seen.insert((in_array, out_array)) {
                return Err(DslogError::DuplicateEdge {
                    in_array: in_array.to_string(),
                    out_array: out_array.to_string(),
                });
            }
        }
        Ok(())
    }

    /// The incremental-commit binding, if any: the database directory the
    /// manager was opened from or last committed to, its gzip mode, and
    /// the last committed generation.
    pub fn persist_binding(&self) -> Option<(PathBuf, bool, u64)> {
        self.binding
            .lock()
            .as_ref()
            .map(|b| (b.dir.clone(), b.gzip, b.generation))
    }

    /// The registry entry of `path`: found under the registry's read lock
    /// from the borrowed names, or — on a path's first sighting in this
    /// snapshot — compiled and inserted. A path shorter than two arrays is
    /// [`DslogError::PathTooShort`]; compiling checks that **every** array
    /// on it exists, including arrays after a hop that may empty the
    /// frontier (a misspelled late array must error, not vanish into an
    /// empty result), so holding an entry means the path is valid.
    pub(crate) fn path(&self, path: &[&str]) -> Result<Arc<ResolvedPath>> {
        if path.len() < 2 {
            return Err(DslogError::PathTooShort);
        }
        if let Some(resolved) = self.paths.read().get(&path as &dyn PathKey) {
            return Ok(Arc::clone(resolved));
        }
        let resolved = Arc::new(self.compile_path(path)?);
        let key = OwnedPath(path.iter().map(|s| s.to_string()).collect());
        // Two first sightings may race: both then run from the one kept.
        Ok(Arc::clone(
            self.paths.write().entry(key).or_insert(resolved),
        ))
    }

    /// Resolve `path` (two arrays or more) against the arrays and edges.
    fn compile_path(&self, path: &[&str]) -> Result<ResolvedPath> {
        for name in path {
            self.array(name)?;
        }
        let hop = |from: &str, to: &str| {
            // Edge stored as (input=to, output=from) ⇒ hop is backward;
            // as (input=from, output=to) ⇒ forward.
            let key = (to.to_string(), from.to_string());
            let (edge, orientation) = match self.edges.get(&key) {
                Some(edge) => (edge, Orientation::Backward),
                None => (self.edges.get(&(key.1, key.0))?, Orientation::Forward),
            };
            Some(PathHop {
                edge: Arc::clone(edge),
                orientation,
            })
        };
        Ok(ResolvedPath {
            hops: path.windows(2).map(|w| hop(w[0], w[1])).collect(),
            first: self.array(path[0])?.clone(),
            last: self.array(path[path.len() - 1])?.clone(),
            sightings: AtomicU32::new(0),
            composite: OnceLock::new(),
        })
    }

    /// Resolve one query hop `from → to`: returns the compressed table whose
    /// primary side is `from`'s attribute space, plus the hop direction.
    /// The two-array path's registry entry, resolved.
    pub fn resolve_hop(
        &self,
        from: &str,
        to: &str,
    ) -> Result<(Arc<CompressedTable>, HopDirection)> {
        let path = [from, to];
        let table = self.path(&path)?.resolve_hop(0, &path)?;
        let direction = match table.orientation() {
            Orientation::Backward => HopDirection::Backward,
            Orientation::Forward => HopDirection::Forward,
        };
        Ok((table, direction))
    }

    /// Resolve a `Materialize` outcome of `resolved` (the entry of `path`):
    /// register the compressed join of the path (`Some`), or mark the path
    /// unmaterializable (`None`, policy caps exceeded) so the planner stops
    /// retrying. Of two racing installs the first stands.
    pub(crate) fn install_composite(
        &self,
        path: &[&str],
        resolved: &ResolvedPath,
        table: Option<Arc<CompressedTable>>,
    ) {
        let materialized = table.is_some();
        if resolved.composite.set(table).is_ok() && materialized {
            let kind = wal::OpKind::Composite {
                path: path.iter().map(|s| s.to_string()).collect(),
            };
            self.wal_push(kind, None);
        }
    }

    /// Whether a materialized composite table is registered for `path`
    /// (introspection for tests and stats).
    pub fn has_composite(&self, path: &[&str]) -> bool {
        let paths = self.paths.read();
        let entry = paths.get(&path as &dyn PathKey);
        entry.is_some_and(|p| p.is_materialized())
    }

    /// Number of materialized composite edges.
    pub fn n_composites(&self) -> usize {
        let paths = self.paths.read();
        paths.values().filter(|p| p.is_materialized()).count()
    }

    /// Drop every registry entry whose path traverses the pair `{in, out}`
    /// (in either hop direction): ingest replaced — or created — that
    /// edge, so the entry's resolution and any join through it are stale.
    /// The sightings go too — the heat they measured was for the old
    /// content. Rebalancing does *not* invalidate (it changes
    /// representation, never content, and entries hold edges, not tables).
    fn invalidate_paths(&self, in_array: &str, out_array: &str) {
        self.paths.write().retain(|key, _| {
            !key.0.windows(2).any(|w| {
                (w[0] == in_array && w[1] == out_array) || (w[0] == out_array && w[1] == in_array)
            })
        });
    }

    /// Per-edge query-direction statistics, sorted by (input, output).
    pub fn edge_stats(&self) -> Vec<EdgeStats> {
        let mut stats: Vec<EdgeStats> = self
            .edges
            .iter()
            .map(|((in_array, out_array), edge)| EdgeStats {
                in_array: in_array.clone(),
                out_array: out_array.clone(),
                backward_hits: edge.backward_hits.load(Ordering::Relaxed),
                forward_hits: edge.forward_hits.load(Ordering::Relaxed),
            })
            .collect();
        stats.sort_by(|a, b| (&a.in_array, &a.out_array).cmp(&(&b.in_array, &b.out_array)));
        stats
    }

    /// Rebalance materialized orientations to the observed query mix
    /// (§IV.C: "either both versions can be stored or one version
    /// depending on the distribution of forward and reverse queries").
    ///
    /// Per edge: the majority direction's orientation is materialized
    /// (derived now if missing) and the minority one is dropped, freeing
    /// its memory/disk; ties and never-queried edges keep the paper's
    /// backward default. Queries after a rebalance stay correct — a
    /// dropped orientation is simply re-derived on demand.
    pub fn rebalance_materialization(&mut self) -> Result<()> {
        for edge in self.edges.values() {
            let bwd = edge.backward_hits.load(Ordering::Relaxed);
            let fwd = edge.forward_hits.load(Ordering::Relaxed);
            let keep = if fwd > bwd {
                Orientation::Forward
            } else {
                Orientation::Backward
            };
            // Materialize the kept orientation first (may derive), then
            // drop the other (content AND persistence record: the next
            // commit must stop referencing the dropped orientation's file).
            edge.repr(keep)?;
            *edge.slot(keep.flip()).write() = Slot::default();
        }
        Ok(())
    }

    /// Whether an edge exists between two arrays (either direction).
    pub fn has_edge(&self, a: &str, b: &str) -> bool {
        self.edges.contains_key(&(a.to_string(), b.to_string()))
            || self.edges.contains_key(&(b.to_string(), a.to_string()))
    }

    /// Whether an edge is stored for exactly this `(input, output)` pair
    /// — the key batched ingest deduplicates on (the reverse pair is a
    /// *different* edge).
    pub fn has_directed_edge(&self, in_array: &str, out_array: &str) -> bool {
        self.edges
            .contains_key(&(in_array.to_string(), out_array.to_string()))
    }

    /// The stored backward table for an edge (ingest order: in → out).
    pub fn stored_table(
        &self,
        in_array: &str,
        out_array: &str,
        orientation: Orientation,
    ) -> Result<Arc<CompressedTable>> {
        let edge = self
            .edges
            .get(&(in_array.to_string(), out_array.to_string()))
            .ok_or_else(|| DslogError::NoLineagePath {
                from: in_array.to_string(),
                to: out_array.to_string(),
            })?;
        edge.repr(orientation)
    }

    /// Serialized size in bytes of all stored tables (one orientation each),
    /// the quantity the paper's storage experiments measure. For tables a
    /// lazy open has not touched yet, the catalog-recorded plain serialized
    /// length is reported instead of re-serializing (no load is triggered,
    /// and the number matches what a loaded slot would report).
    pub fn storage_bytes(&self) -> usize {
        fn slot_bytes(slot: &RwLock<Slot>) -> Option<usize> {
            match &slot.read().source {
                Some(TableSource::Loaded(t)) => Some(format::serialize(t).len()),
                Some(TableSource::OnDisk(d)) => Some(d.record.raw_len as usize),
                None => None,
            }
        }
        self.edges
            .values()
            .filter_map(|e| slot_bytes(&e.backward).or_else(|| slot_bytes(&e.forward)))
            .sum()
    }

    /// Number of stored edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_lineage() -> LineageTable {
        let mut t = LineageTable::new(1, 2);
        for i in 0..3 {
            for j in 0..2 {
                t.push_row(&[i, i, j]);
            }
        }
        t
    }

    fn manager_with_edge() -> StorageManager {
        let mut s = StorageManager::new();
        s.define_array("A", &[3, 2]).unwrap();
        s.define_array("B", &[3]).unwrap();
        s.ingest_lineage("A", "B", &sum_lineage()).unwrap();
        s
    }

    #[test]
    fn define_and_conflict() {
        let mut s = StorageManager::new();
        s.define_array("A", &[2, 2]).unwrap();
        s.define_array("A", &[2, 2]).unwrap(); // idempotent
        assert!(matches!(
            s.define_array("A", &[3]),
            Err(DslogError::ArrayShapeConflict(_))
        ));
        assert!(matches!(s.array("Z"), Err(DslogError::UnknownArray(_))));
    }

    #[test]
    fn resolve_backward_hop() {
        let s = manager_with_edge();
        let (table, dir) = s.resolve_hop("B", "A").unwrap();
        assert_eq!(dir, HopDirection::Backward);
        assert_eq!(table.orientation(), Orientation::Backward);
        assert_eq!(table.primary_arity(), 1);
    }

    #[test]
    fn resolve_forward_hop_derives_orientation() {
        let s = manager_with_edge();
        // Only backward is materialized; the forward hop must derive it.
        let (table, dir) = s.resolve_hop("A", "B").unwrap();
        assert_eq!(dir, HopDirection::Forward);
        assert_eq!(table.orientation(), Orientation::Forward);
        assert_eq!(table.primary_arity(), 2);
        // Derived table decompresses to the same relation.
        assert_eq!(
            table.decompress().unwrap().row_set(),
            sum_lineage().row_set()
        );
        // Second resolution hits the cache (same Arc).
        let (again, _) = s.resolve_hop("A", "B").unwrap();
        assert!(Arc::ptr_eq(&table, &again));
    }

    #[test]
    fn derived_orientation_is_published_with_a_warm_index() {
        let s = manager_with_edge();
        // Backward was materialized at ingest: index built eagerly.
        let (bwd, _) = s.resolve_hop("B", "A").unwrap();
        assert!(bwd.has_cached_index());
        // The lazily derived forward table must come back with its index
        // already cached — table and index are published atomically, so no
        // later query rebuilds either.
        let (fwd, _) = s.resolve_hop("A", "B").unwrap();
        assert!(fwd.has_cached_index());
        let (again, _) = s.resolve_hop("A", "B").unwrap();
        assert!(Arc::ptr_eq(&fwd, &again));
    }

    #[test]
    fn missing_edge_is_error() {
        let s = manager_with_edge();
        assert!(matches!(
            s.resolve_hop("B", "Z"),
            Err(DslogError::UnknownArray(_)) | Err(DslogError::NoLineagePath { .. })
        ));
        let mut s2 = StorageManager::new();
        s2.define_array("X", &[1]).unwrap();
        s2.define_array("Y", &[1]).unwrap();
        assert!(matches!(
            s2.resolve_hop("X", "Y"),
            Err(DslogError::NoLineagePath { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut s = StorageManager::new();
        s.define_array("A", &[3]).unwrap(); // 1-D, but lineage says 2-D input
        s.define_array("B", &[3]).unwrap();
        assert!(matches!(
            s.ingest_lineage("A", "B", &sum_lineage()),
            Err(DslogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn storage_bytes_counts_one_orientation() {
        let s = manager_with_edge();
        let bytes = s.storage_bytes();
        assert!(bytes > 0 && bytes < 200, "got {bytes}");
    }

    #[test]
    fn edge_stats_count_directions() {
        let s = manager_with_edge();
        assert_eq!(s.edge_stats()[0].backward_hits, 0);
        s.resolve_hop("B", "A").unwrap();
        s.resolve_hop("B", "A").unwrap();
        s.resolve_hop("A", "B").unwrap();
        let stats = s.edge_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].in_array, "A");
        assert_eq!(stats[0].out_array, "B");
        assert_eq!(stats[0].backward_hits, 2);
        assert_eq!(stats[0].forward_hits, 1);
    }

    #[test]
    fn rebalance_keeps_majority_orientation() {
        let mut s = manager_with_edge();
        // Forward-heavy workload.
        for _ in 0..5 {
            s.resolve_hop("A", "B").unwrap();
        }
        s.resolve_hop("B", "A").unwrap();
        s.rebalance_materialization().unwrap();
        // Only forward is materialized now; backward queries re-derive and
        // stay correct.
        {
            let edge = s.edges.get(&("A".to_string(), "B".to_string())).unwrap();
            assert!(edge.forward.read().source.is_some());
            assert!(edge.backward.read().source.is_none());
        }
        let (t, dir) = s.resolve_hop("B", "A").unwrap();
        assert_eq!(dir, HopDirection::Backward);
        assert_eq!(t.decompress().unwrap().row_set(), sum_lineage().row_set());
    }

    #[test]
    fn rebalance_defaults_to_backward_on_tie() {
        let mut s = manager_with_edge();
        s.rebalance_materialization().unwrap();
        let edge = s.edges.get(&("A".to_string(), "B".to_string())).unwrap();
        assert!(edge.backward.read().source.is_some());
        assert!(edge.forward.read().source.is_none());
    }

    #[test]
    fn ablation_compress_options_produce_identical_storage() {
        // Threading is the remaining knob: off must store what the default
        // stores.
        let mut default = manager_with_edge();
        let mut ablated = StorageManager::new();
        ablated.compress = CompressOptions { parallel: false };
        ablated.define_array("A", &[3, 2]).unwrap();
        ablated.define_array("B", &[3]).unwrap();
        ablated.ingest_lineage("A", "B", &sum_lineage()).unwrap();
        // Stored and lazily derived orientations agree bit-for-bit.
        for orientation in [Orientation::Backward, Orientation::Forward] {
            let a = default.stored_table("A", "B", orientation).unwrap();
            let b = ablated.stored_table("A", "B", orientation).unwrap();
            assert_eq!(*a, *b);
        }
        assert_eq!(default.storage_bytes(), ablated.storage_bytes());
        ablated.rebalance_materialization().unwrap();
        default.rebalance_materialization().unwrap();
    }

    #[test]
    fn peek_hop_is_side_effect_free() {
        let mut s = manager_with_edge();
        s.define_array("Z", &[3]).unwrap();
        let path = s.path(&["Z", "B", "A"]).unwrap();
        assert!(path.peek_hop(1).is_some());
        // Peeking the underived forward orientation reports no table and
        // must not derive it.
        assert!(s.path(&["A", "B"]).unwrap().peek_hop(0).is_none());
        assert!(path.peek_hop(0).is_none(), "no edge connects Z and B");
        // No hit counters moved.
        let stats = s.edge_stats();
        assert_eq!(stats[0].backward_hits + stats[0].forward_hits, 0);
        // And the forward slot is still empty (no derivation happened).
        let edge = s.edges.get(&("A".to_string(), "B".to_string())).unwrap();
        assert!(edge.forward.read().source.is_none());
    }

    #[test]
    fn composite_lifecycle_and_ingest_invalidation() {
        let mut s = StorageManager::new();
        s.define_array("A", &[3, 2]).unwrap();
        s.define_array("B", &[3]).unwrap();
        s.define_array("C", &[3]).unwrap();
        s.ingest_lineage("A", "B", &sum_lineage()).unwrap();
        let path = ["C", "B", "A"];
        let policy = s.composite_policy;
        let observe = |s: &StorageManager| s.path(&path).unwrap().observe_composite(policy);
        // Threshold 3: two sightings pass, the third asks to materialize,
        // and so does the fourth (retry until installed).
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        assert!(matches!(observe(&s), CompositeProbe::Materialize));
        assert!(matches!(observe(&s), CompositeProbe::Materialize));
        let table = s.stored_table("A", "B", Orientation::Backward).unwrap();
        s.install_composite(&path, &s.path(&path).unwrap(), Some(table));
        assert!(s.has_composite(&path));
        assert_eq!(s.n_composites(), 1);
        assert!(matches!(observe(&s), CompositeProbe::Serve(_)));
        // Epoch clones carry the registry; mutating either side leaves the
        // other's registry intact.
        let clone = s.clone_for_epoch();
        assert!(clone.has_composite(&path));
        // Re-ingesting a member edge invalidates (hop B→A matches the
        // stored A→B edge in reverse): the entry is compiled afresh, bound
        // to the new edge, its sightings back at zero.
        let before = s.path(&path).unwrap();
        s.ingest_lineage("A", "B", &sum_lineage()).unwrap();
        assert!(!s.has_composite(&path));
        assert!(clone.has_composite(&path));
        assert!(!Arc::ptr_eq(&before, &s.path(&path).unwrap()));
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        // An unrelated edge does not invalidate.
        s.install_composite(&path, &s.path(&path).unwrap(), None);
        s.define_array("D", &[3]).unwrap();
        s.ingest_lineage("A", "D", &sum_lineage()).unwrap();
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        // Two-array paths are never composite candidates.
        for _ in 0..5 {
            let short = s.path(&["B", "A"]).unwrap();
            assert!(matches!(
                short.observe_composite(policy),
                CompositeProbe::Pass
            ));
        }
    }

    #[test]
    fn materialize_both_policy() {
        let mut s = StorageManager::new();
        s.materialize = Materialize::Both;
        s.define_array("A", &[3, 2]).unwrap();
        s.define_array("B", &[3]).unwrap();
        s.ingest_lineage("A", "B", &sum_lineage()).unwrap();
        // Both orientations resolvable without derivation.
        s.resolve_hop("B", "A").unwrap();
        s.resolve_hop("A", "B").unwrap();
    }
}
