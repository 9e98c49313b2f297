//! The storage manager: named arrays and lineage edges (paper §III,
//! §IV.C).
//!
//! Lineage for an operation `O = op(I)` is stored per `(I, O)` pair as one
//! ProvRC-compressed table, in the **backward** orientation (the paper's
//! storage experiments' form). A forward hop reads that same table against
//! its orientation (`query::exec`'s reverse step), so no edge ever holds,
//! derives or persists a second orientation. A query path is resolved
//! against the arrays and edges once per snapshot, into the manager's
//! per-path registry (`ResolvedPath`).
//!
//! Every relation becomes a stored edge the same way, whoever captured it
//! (`add_lineage`, `register_operation`, §VI reuse, the service's batched
//! ingest): `StorageManager::prepare` then `StorageManager::install`.
//! `prepare` owns every per-edge decision — the shape, arity and
//! coordinate checks, ProvRC compression, index building and the op-log
//! record — and `install` owns the duplicate rule (replace or reject) and
//! the pointer work of logging, storing and invalidating. A batch either
//! installs whole or not at all.

pub mod compact;
pub mod format;
pub mod persist;
mod shards;
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
use crate::provrc;
use crate::query::HopTable;
use crate::reuse::COMPOSITE_HIT_THRESHOLD;
use crate::table::{CompressedTable, LineageTable, Orientation};
use dslog_sync::{ranks, Mutex, RwLock};
use shards::ShardedMap;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
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

/// [`DslogError::CellOutOfBounds`] for the first row of `lineage` with a
/// coordinate outside `[0, dim)` of its array (`out_shape` then
/// `in_shape`: the row's column order). A negative coordinate is a huge
/// `u64`, so one unsigned compare checks both ends. The sweep ORs over
/// blocks of 16 rows against the shape repeated 16 times, a loop the
/// compiler vectorizes: on 250 k rows of 4 columns it measured 0.45 ms,
/// against 0.7 ms row by row and 1.2 ms one column at a time.
fn check_cells(lineage: &LineageTable, out_shape: &[usize], in_shape: &[usize]) -> Result<()> {
    let shape: Vec<usize> = out_shape.iter().chain(in_shape).copied().collect();
    let limits: Vec<u64> = shape
        .iter()
        .map(|&d| d as u64)
        .cycle()
        .take(16 * shape.len())
        .collect();
    let outside = |rows: &[i64]| {
        (rows.iter().zip(&limits)).fold(false, |out, (&v, &dim)| out | (v as u64 >= dim))
    };
    if !lineage.raw().chunks(limits.len()).any(outside) {
        return Ok(());
    }
    match lineage.rows().find(|row| outside(row)) {
        Some(row) => Err(DslogError::CellOutOfBounds {
            index: row.to_vec(),
            shape,
        }),
        None => Ok(()),
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

/// Where an edge's table currently lives: decoded in memory, or still on
/// disk (lazy open) with its catalog-recorded length + checksum.
#[derive(Debug, Clone)]
pub(crate) enum TableSource {
    /// Decoded and resident.
    Loaded(Arc<CompressedTable>),
    /// Referenced by the catalog but not yet read; swapped for `Loaded` on
    /// the first `resolve_hop` that needs it.
    OnDisk(DiskTable),
}

impl TableSource {
    /// The orientation the table is stored in, loaded or not.
    fn orientation(&self) -> Orientation {
        match self {
            TableSource::Loaded(t) => t.orientation(),
            TableSource::OnDisk(d) => d.orientation,
        }
    }
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
    /// guard of lazy opens and incremental commits, and the bound on what
    /// a read may allocate.
    pub(crate) fn fits(&self, file_len: u64) -> bool {
        file_len >= self.offset.saturating_add(self.len)
    }
}

/// An edge's one table plus its incremental-persistence state.
/// `persisted` is `Some` exactly when the bound database directory already
/// holds a committed range with this slot's content — such slots are
/// *clean* and an incremental commit reuses the recorded range instead of
/// rewriting it. A freshly ingested edge's slot is *dirty* (no record).
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) source: TableSource,
    pub(crate) persisted: Option<FileRecord>,
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

/// One stored lineage edge (input array → output array): its one table,
/// in the orientation it was stored in.
#[derive(Debug)]
struct Edge {
    slot: RwLock<Slot>,
}

impl Edge {
    fn new(slot: Slot) -> Self {
        Self {
            slot: RwLock::new(&ranks::STORAGE_SLOT, slot),
        }
    }

    /// The stored table, loading it from disk if the slot holds a lazy
    /// reference; a load builds the query index under the slot lock before
    /// publishing, like every other slot fill.
    fn table(&self) -> Result<Arc<CompressedTable>> {
        if let TableSource::Loaded(t) = &self.slot.read().source {
            return Ok(Arc::clone(t));
        }
        let mut slot = self.slot.write();
        let table = match &slot.source {
            TableSource::Loaded(t) => return Ok(Arc::clone(t)),
            TableSource::OnDisk(disk) => Arc::new(disk.load()?),
        };
        if !table.is_generalized() {
            table.ensure_index();
        }
        // Loading does not change content: the slot stays clean (its
        // `persisted` record remains valid).
        slot.source = TableSource::Loaded(Arc::clone(&table));
        Ok(table)
    }

    /// Clone the slot's state out of its lock, for the commit planner
    /// (file IO must never run under a slot lock).
    fn snapshot(&self) -> (TableSource, Option<FileRecord>) {
        let slot = self.slot.read();
        (slot.source.clone(), slot.persisted.clone())
    }

    /// Mark the slot clean after a commit wrote it: record the committed
    /// range now holding its content, and — if the slot is still a lazy
    /// `OnDisk` reference — repoint it at that range. The old file may
    /// have just been swept (same-directory rewrite, e.g. a gzip
    /// conversion), so a stale source would make every later load fail.
    /// Called only after the catalog rename landed. Safe against
    /// concurrent readers: under `&StorageManager` the slot's content can
    /// only transition `OnDisk → Loaded` (identical bytes), so both the
    /// record and the repointed source still describe what the slot holds.
    fn publish_committed(&self, record: FileRecord, dir: &std::path::Path, gzip: bool) {
        let mut slot = self.slot.write();
        if let TableSource::OnDisk(disk) = &mut slot.source {
            disk.dir = dir.to_path_buf();
            disk.gzip = gzip;
            disk.record = record.clone();
        }
        slot.persisted = Some(record);
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
    key: EdgeName,
    edge: Edge,
    log: wal::OpKind,
}

impl PreparedEdge {
    /// Index the table's primary side, and take the log record from it:
    /// its serialized length and, as the per-edge digest, the crc32 the
    /// table file's own trailer holds. The secondary side's index waits
    /// for the first forward hop: built here, it held 20 B per row of
    /// every table, queried forward or not (+25 % peak RSS on
    /// `ingest_commit`).
    fn new(key: EdgeName, table: CompressedTable) -> Self {
        let table = Arc::new(table);
        if !table.is_generalized() {
            table.ensure_index();
        }
        let bytes = format::serialize(&table);
        let log = wal::OpKind::IngestEdge {
            in_array: key.input().to_string(),
            out_array: key.output().to_string(),
            bytes: bytes.len() as u64,
            digest: wal::trailer_crc(&bytes),
        };
        // A fresh edge: dirty (nothing committed yet).
        let edge = Edge::new(Slot {
            source: TableSource::Loaded(table),
            persisted: None,
        });
        Self { key, edge, log }
    }
}

/// How a query hop traverses an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopDirection {
    /// Query moves output → input: reads the edge in the backward
    /// orientation.
    Backward,
    /// Query moves input → output: reads the edge in the forward
    /// orientation.
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

/// A path as the registry (and, for an edge's two arrays, the edge map)
/// keys it: hashed and compared name by name, so the owned key and a
/// borrowed `&[&str]` are one key and a lookup builds nothing.
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

/// The edge map's key: `(input array, output array)`, each name the arrays
/// map's own `Arc`. Keyed as the two-array path it is, so a lookup by
/// borrowed names builds nothing, as in the path registry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EdgeName(Arc<str>, Arc<str>);

impl EdgeName {
    /// Input array name.
    pub(crate) fn input(&self) -> &str {
        &self.0
    }

    /// Output array name.
    pub(crate) fn output(&self) -> &str {
        &self.1
    }
}

impl PathKey for EdgeName {
    fn name(&self, i: usize) -> Option<&str> {
        [self.input(), self.output()].get(i).copied()
    }
}

impl Hash for EdgeName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn PathKey).hash(state);
    }
}

impl<'a> Borrow<dyn PathKey + 'a> for EdgeName {
    fn borrow(&self) -> &(dyn PathKey + 'a) {
        self
    }
}

/// One hop of a resolved path: the edge that connects the pair, and the
/// orientation (primary side = the hop's `from` array) the hop reads its
/// table in.
#[derive(Debug, Clone)]
struct PathHop {
    edge: Arc<Edge>,
    orientation: Orientation,
}

/// One entry of the per-path registry ([`StorageManager::path`]): a query
/// path resolved against one snapshot — every array known to exist, every
/// hop bound to its edge and orientation — plus the path's composite-edge
/// state. Tables are *not* cached here: each hop still reads its edge's
/// slot, so lazy loads show at once.
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

    /// Resolve hop `k` for execution: its edge's stored table (loaded if
    /// a lazy open left it on disk), read in the orientation whose primary
    /// side is `path[k]`'s attribute space. `path` names the arrays, for
    /// the error when no edge connects the pair.
    pub(crate) fn resolve_hop(&self, k: usize, path: &[&str]) -> Result<HopTable> {
        let Some(hop) = &self.hops[k] else {
            return Err(DslogError::NoLineagePath {
                from: path[k].to_string(),
                to: path[k + 1].to_string(),
            });
        };
        Ok(HopTable::new(hop.edge.table()?, hop.orientation))
    }

    /// Record one planner sighting and say what to do with the path: serve
    /// its composite, materialize a now-hot one, or pass. `Materialize`
    /// keeps being returned on later sightings until
    /// [`StorageManager::install_composite`] resolves the entry, so a
    /// skipped materialization (e.g. tables not resident) retries.
    pub(crate) fn observe_composite(&self) -> CompositeProbe {
        if self.hops.len() < 2 {
            return CompositeProbe::Pass;
        }
        match self.composite.get() {
            Some(Some(table)) => CompositeProbe::Serve(Arc::clone(table)),
            Some(None) => CompositeProbe::Pass,
            None => {
                let sightings = self.sightings.fetch_add(1, Ordering::Relaxed) + 1;
                if sightings >= COMPOSITE_HIT_THRESHOLD {
                    CompositeProbe::Materialize
                } else {
                    CompositeProbe::Pass
                }
            }
        }
    }
}

/// The DSLog storage manager.
///
/// The array and edge maps are copy-on-write `ShardedMap`s of `Arc`s, so
/// an epoch clone (`clone_for_epoch`, used by [`crate::api::Dslog`]'s own
/// epoch clone) is O(1) and shares every name, shape and stored table with
/// its parent: the service layer builds the next snapshot by cloning the
/// manager, inserting into the clone (which copies the one shard each
/// insert touches), and publishing it — the previous snapshot stays fully
/// intact for in-flight readers.
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
    arrays: ShardedMap<Arc<str>, Arc<ArrayMeta>>,
    /// Keyed by (input array, output array).
    edges: ShardedMap<EdgeName, Arc<Edge>>,
    // What the handle was configured with (see `api::OpenOptions`): plain
    // values, copied into every epoch clone, so nothing one snapshot's
    // user does can change what another logs or writes.
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
            arrays: ShardedMap::default(),
            edges: ShardedMap::default(),
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
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shallow clone for epoch-snapshot publication: shares the array and
    /// edge maps (O(1); an insert into the clone copies the one shard it
    /// touches, so it never disturbs readers of the original), the
    /// persistence binding, and the commit lock with `self`. Slot-level
    /// state (lazy loads, clean/dirty marks) lives inside the shared
    /// `Arc<Edge>`s and stays coherent across all clones.
    pub(crate) fn clone_for_epoch(&self) -> Self {
        Self {
            arrays: self.arrays.clone(),
            edges: self.edges.clone(),
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
                let meta = ArrayMeta {
                    shape: shape.to_vec(),
                };
                self.arrays.insert(Arc::from(name), Arc::new(meta));
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
        self.array_entry(name).map(|(_, meta)| &**meta)
    }

    /// The edge map's key for `(input, output)`: both arrays named by the
    /// arrays map's own `Arc`s.
    fn edge_name(&self, in_array: &str, out_array: &str) -> Result<EdgeName> {
        let (input, _) = self.array_entry(in_array)?;
        let (output, _) = self.array_entry(out_array)?;
        Ok(EdgeName(Arc::clone(input), Arc::clone(output)))
    }

    /// The arrays map's entry for `name`: its shared name and metadata.
    fn array_entry(&self, name: &str) -> Result<(&Arc<str>, &Arc<ArrayMeta>)> {
        self.arrays
            .get_key_value(name)
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
        let mut names: Vec<String> = self.arrays.iter().map(|(k, _)| k.to_string()).collect();
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
    /// job's arrays, arity and coordinates (each in `[0, dim)` of its
    /// array, else [`DslogError::CellOutOfBounds`] refuses the whole
    /// batch), compress each in the backward orientation
    /// (one batch, on worker threads when it is large enough), index each
    /// table and compute each edge's log record. Needs only `&self`, so the service
    /// runs it on a snapshot with no lock held; results keep job order.
    pub(crate) fn prepare(&self, jobs: &[EdgeJob<'_>]) -> Result<Vec<PreparedEdge>> {
        let (mut names, mut shapes) = (Vec::new(), Vec::new());
        for &(in_array, out_array, lineage) in jobs {
            let (out_shape, in_shape) = self.edge_shapes(in_array, out_array)?;
            if (lineage.out_arity(), lineage.in_arity()) != (out_shape.len(), in_shape.len()) {
                let (expected, got) = (out_shape.len() + in_shape.len(), lineage.arity());
                return Err(DslogError::ArityMismatch { expected, got });
            }
            check_cells(lineage, &out_shape, &in_shape)?;
            names.push(self.edge_name(in_array, out_array)?);
            shapes.push((out_shape, in_shape));
        }
        let compress_jobs: Vec<provrc::CompressJob<'_>> = (jobs.iter().zip(&shapes))
            .map(|(&(_, _, lineage), (out_shape, in_shape))| {
                (lineage, &out_shape[..], &in_shape[..])
            })
            .collect();
        let tables = provrc::compress_batch_parallel(&compress_jobs, Orientation::Backward);
        Ok((names.into_iter().zip(tables))
            .map(|(name, table)| PreparedEdge::new(name, table))
            .collect())
    }

    /// A reused table (§VI) as an edge for `install`. The reuse manager
    /// matched it on these arrays' shapes, so only the arrays are checked.
    pub(crate) fn prepare_reused(
        &self,
        in_array: &str,
        out_array: &str,
        table: CompressedTable,
    ) -> Result<PreparedEdge> {
        self.edge_shapes(in_array, out_array)?;
        Ok(PreparedEdge::new(
            self.edge_name(in_array, out_array)?,
            table,
        ))
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
            self.reject_duplicates(edges.iter().map(|e| (e.key.input(), e.key.output())))?;
        }
        for PreparedEdge { key, edge, log } in edges {
            self.wal_push(log, actor);
            self.invalidate_paths(key.input(), key.output());
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

    /// How many segment files the bound directory's live catalog
    /// references, as the last commit or open left it (0 while unbound, or
    /// after a failed commit until the next one succeeds).
    pub(crate) fn live_segments(&self) -> usize {
        let binding = self.binding.lock();
        let tail = binding.as_ref().and_then(|b| b.tail.as_ref());
        tail.map_or(0, wal::LogTail::live_files)
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
            let (edge, orientation) = match self.edge(to, from) {
                Some(edge) => (edge, Orientation::Backward),
                None => (self.edge(from, to)?, Orientation::Forward),
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

    /// Resolve one query hop `from → to`: the edge's stored table, read in
    /// the orientation whose primary side is `from`'s attribute space,
    /// plus the hop direction. The two-array path's registry entry,
    /// resolved.
    pub fn resolve_hop(&self, from: &str, to: &str) -> Result<(HopTable, HopDirection)> {
        let path = [from, to];
        let hop = self.path(&path)?.resolve_hop(0, &path)?;
        let direction = match hop.orientation() {
            Orientation::Backward => HopDirection::Backward,
            Orientation::Forward => HopDirection::Forward,
        };
        Ok((hop, direction))
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
    /// content.
    fn invalidate_paths(&self, in_array: &str, out_array: &str) {
        self.paths.write().retain(|key, _| {
            !key.0.windows(2).any(|w| {
                (w[0] == in_array && w[1] == out_array) || (w[0] == out_array && w[1] == in_array)
            })
        });
    }

    /// Whether an edge is stored for exactly this `(input, output)` pair
    /// — the key batched ingest deduplicates on (the reverse pair is a
    /// *different* edge).
    pub fn has_directed_edge(&self, in_array: &str, out_array: &str) -> bool {
        self.edge(in_array, out_array).is_some()
    }

    /// The edge stored for `(input, output)`, looked up without a key.
    fn edge(&self, in_array: &str, out_array: &str) -> Option<&Arc<Edge>> {
        self.edges.get(&&[in_array, out_array][..] as &dyn PathKey)
    }

    /// Every stored edge, sorted by `(input, output)` name.
    fn sorted_edges(&self) -> Vec<(&EdgeName, &Arc<Edge>)> {
        let mut edges: Vec<_> = self.edges.iter().collect();
        edges.sort_unstable_by(|a, b| a.0.cmp(b.0));
        edges
    }

    /// The table stored for an edge (ingest order: in → out), in the
    /// orientation it was stored in — backward for every edge ingested.
    pub fn stored_table(&self, in_array: &str, out_array: &str) -> Result<Arc<CompressedTable>> {
        let edge = self
            .edge(in_array, out_array)
            .ok_or_else(|| DslogError::NoLineagePath {
                from: in_array.to_string(),
                to: out_array.to_string(),
            })?;
        edge.table()
    }

    /// Serialized size in bytes of all stored tables, the quantity the
    /// paper's storage experiments measure. For tables a
    /// lazy open has not touched yet, the catalog-recorded plain serialized
    /// length is reported instead of re-serializing (no load is triggered,
    /// and the number matches what a loaded slot would report).
    pub fn storage_bytes(&self) -> usize {
        let bytes = |edge: &Arc<Edge>| match &edge.slot.read().source {
            TableSource::Loaded(t) => format::serialize(t).len(),
            TableSource::OnDisk(d) => d.record.raw_len as usize,
        };
        self.edges.iter().map(|(_, edge)| bytes(edge)).sum()
    }

    /// Number of stored edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::query::QueryExec;
    use crate::table::BoxTable;

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
        let (hop, dir) = s.resolve_hop("B", "A").unwrap();
        assert_eq!(dir, HopDirection::Backward);
        assert_eq!(hop.orientation(), Orientation::Backward);
        assert_eq!(hop.table().orientation(), Orientation::Backward);
        assert_eq!(hop.table().primary_arity(), 1);
    }

    #[test]
    fn forward_hop_reads_the_stored_backward_table() {
        let s = manager_with_edge();
        let (fwd, dir) = s.resolve_hop("A", "B").unwrap();
        assert_eq!(dir, HopDirection::Forward);
        assert_eq!(fwd.orientation(), Orientation::Forward);
        // The very table the backward hop reads: nothing was derived.
        let (bwd, _) = s.resolve_hop("B", "A").unwrap();
        assert!(Arc::ptr_eq(fwd.table(), bwd.table()));
        assert_eq!(fwd.table().orientation(), Orientation::Backward);
        // The forward hop probes the index over the secondary (A) side.
        let index = fwd.index().unwrap();
        assert_eq!(
            index.probe(&[Interval::point(1), Interval::point(0)]).len(),
            1
        );
        let q = BoxTable::from_cells(2, &[vec![1, 0]]);
        let (out, _) = QueryExec::default().hop(&q, &fwd).unwrap();
        assert_eq!(out.cell_set(), [vec![1]].into_iter().collect());
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
    fn composite_lifecycle_and_ingest_invalidation() {
        let mut s = StorageManager::new();
        s.define_array("A", &[3, 2]).unwrap();
        s.define_array("B", &[3]).unwrap();
        s.define_array("C", &[3]).unwrap();
        s.ingest_lineage("A", "B", &sum_lineage()).unwrap();
        let path = ["C", "B", "A"];
        let observe = |s: &StorageManager| s.path(&path).unwrap().observe_composite();
        // Threshold 3: two sightings pass, the third asks to materialize,
        // and so does the fourth (retry until installed).
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        assert!(matches!(observe(&s), CompositeProbe::Pass));
        assert!(matches!(observe(&s), CompositeProbe::Materialize));
        assert!(matches!(observe(&s), CompositeProbe::Materialize));
        let table = s.stored_table("A", "B").unwrap();
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
            assert!(matches!(short.observe_composite(), CompositeProbe::Pass));
        }
    }
}
