//! The DSLog public API (paper §III.A): defining tracked arrays, capturing
//! lineage, registering operations, and issuing `prov_query` calls.

use crate::error::{DslogError, Result};
use crate::query::{QueryOptions, QueryStats};
use crate::reuse::{ArgValue, Mapping, ReuseHit, ReuseManager, ReuseStats};
use crate::service::MaintenancePolicy;
use crate::storage::persist::{self, OpenMode};
use crate::storage::wal::IoPolicy;
use crate::storage::{ArrayMeta, EdgeJob, OnDuplicate, StorageManager};
use crate::table::{BoxTable, LineageTable};
use std::sync::Arc;

/// A lineage capture method for one (input array, output array) pair.
///
/// The paper's capture object enumerates, per output cell, the contributing
/// input cells; any such enumeration materializes as a [`LineageTable`], so
/// the trait asks directly for the full relation. DSLog is agnostic to how
/// it was produced (§II.A).
pub trait Capture {
    /// Produce the lineage relation `R(out_attrs, in_attrs)` for the given
    /// array shapes.
    fn capture(&self, in_shape: &[usize], out_shape: &[usize]) -> LineageTable;
}

/// A capture backed by a precomputed table (e.g. from the array engine's
/// tracked-cell execution).
#[derive(Debug, Clone)]
pub struct TableCapture {
    table: LineageTable,
}

impl TableCapture {
    /// Wrap a precomputed lineage table.
    pub fn new(table: LineageTable) -> Self {
        Self { table }
    }
}

impl Capture for TableCapture {
    fn capture(&self, _in_shape: &[usize], _out_shape: &[usize]) -> LineageTable {
        self.table.clone()
    }
}

/// A capture backed by a closure over the shapes.
pub struct FnCapture<F>(pub F);

impl<F> Capture for FnCapture<F>
where
    F: Fn(&[usize], &[usize]) -> LineageTable,
{
    fn capture(&self, in_shape: &[usize], out_shape: &[usize]) -> LineageTable {
        (self.0)(in_shape, out_shape)
    }
}

/// How a `register_operation` call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistrationOutcome {
    /// Lineage was freshly captured and compressed.
    Captured,
    /// Lineage came from a stored signature without invoking capture.
    Reused(ReuseHit),
}

/// Result of a `prov_query`.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Cells of the last array on the path, as a union of interval boxes.
    pub cells: BoxTable,
    /// Number of θ-joins executed.
    pub hops: usize,
    /// Per-hop execution statistics (rows probed/matched, boxes emitted,
    /// wall time).
    pub stats: QueryStats,
}

/// The one way to configure a [`Dslog`] (start with [`Dslog::options`]):
/// every open-time decision and every runtime setting accumulates on the
/// builder, and the terminal methods ([`open`](Self::open),
/// [`create`](Self::create), [`build`](Self::build)) validate the
/// combination **before** any file IO, rejecting contradictions with
/// [`DslogError::InvalidOptions`]. A live handle reports what it runs
/// with through [`Dslog::config`]. Nothing else — no setter, no
/// environment variable — configures a database; what no caller needs to
/// set (ProvRC's batch threading, the composite-edge thresholds of
/// [`crate::query::plan`]) is fixed. There is no orientation setting: an
/// edge stores its backward table, and a forward query reads that same
/// table in reverse.
///
/// ```no_run
/// use dslog::api::Dslog;
///
/// let db = Dslog::options()
///     .lazy(true)
///     .wal_retention(8)
///     .wal_actor("ingest-worker")
///     .open("db-dir")?;
/// # Ok::<(), dslog::DslogError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    /// What the builder has accumulated; `gzip` is the *requested* format
    /// until a terminal method resolves it.
    config: DslogConfig,
}

impl OpenOptions {
    /// Defer table decode + checksum to first use: the open costs
    /// O(checkpoint), ideal when a large database serves queries that touch
    /// few edges. Conflicts with [`as_of`](Self::as_of) — time-travel
    /// snapshots are replayed from a checkpoint and always decode eagerly.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.config.lazy = lazy;
        self
    }

    /// Open the database as it was at `generation` — time travel, for as
    /// long as [`wal_retention`](Self::wal_retention) kept that
    /// generation's checkpoint and files
    /// ([`DslogError::GenerationNotRetained`] otherwise). The snapshot is
    /// unbound and read-only with respect to the source directory; it
    /// conflicts with [`lazy`](Self::lazy) and with a background
    /// [`maintenance`](Self::maintenance) policy.
    pub fn as_of(mut self, generation: u64) -> Self {
        self.config.as_of = Some(generation);
        self
    }

    /// On-disk format: `true` selects the ProvRC-GZip table format. For
    /// [`create`](Self::create) this is the format written; for
    /// [`open`](Self::open) it is validated against what the directory's
    /// checkpoint records (omit it to accept either).
    pub fn gzip(mut self, gzip: bool) -> Self {
        self.config.gzip = Some(gzip);
        self
    }

    /// Install a fault injector on every gated IO of the handle's commits
    /// and compactions — a test API, see [`IoPolicy`]. One is installed
    /// only here; keep the `Arc` to [`rearm`](IoPolicy::rearm) it later.
    pub fn io_policy(mut self, policy: Arc<IoPolicy>) -> Self {
        self.config.io_policy = Some(policy);
        self
    }

    /// Actor label of the operation-log records this handle's `define`,
    /// ingest and `commit` calls write (`"local"` by default).
    pub fn wal_actor(mut self, actor: impl Into<String>) -> Self {
        self.config.wal_actor = actor.into();
        self
    }

    /// Keep the segments (and the checkpoints they replay from) of up to
    /// this many prior commits on disk so [`as_of`](Self::as_of) opens can
    /// resolve them (default 0: a commit sweeps everything its generation
    /// does not reference).
    pub fn wal_retention(mut self, generations: u32) -> Self {
        self.config.wal_retention = generations;
        self
    }

    /// Background-compaction policy, honored by
    /// [`crate::service::DslogService`] after each successful commit.
    pub fn maintenance(mut self, policy: MaintenancePolicy) -> Self {
        self.config.maintenance = policy;
        self
    }

    /// Reject combinations that contradict each other and hand the bundle
    /// over. Shared by every terminal method so a bad one fails before
    /// any file IO; `existing` says the target is data already on disk.
    fn validated(self, existing: bool) -> Result<DslogConfig> {
        let c = self.config;
        if c.as_of.is_some() && c.lazy {
            return Err(DslogError::InvalidOptions(
                "`as_of` snapshots are replayed from a retained generation's checkpoint and \
                 always decode eagerly; combining `as_of` with `lazy` is a conflict",
            ));
        }
        if c.as_of.is_some() && c.maintenance.auto_compact_generations.is_some() {
            return Err(DslogError::InvalidOptions(
                "`as_of` snapshots are unbound and read-only; a background compaction \
                 policy cannot apply to them",
            ));
        }
        if !existing && (c.as_of.is_some() || c.lazy) {
            return Err(DslogError::InvalidOptions(
                "`as_of` and `lazy` select how existing data is read; they cannot apply \
                 to a freshly created or in-memory database",
            ));
        }
        Ok(c)
    }

    /// Open an existing database directory with this configuration:
    /// `lazy` and `as_of` select how it is read, everything else is
    /// applied to the handle before it is returned.
    pub fn open(self, dir: impl AsRef<std::path::Path>) -> Result<Dslog> {
        let config = self.validated(true)?;
        let mode = match config.as_of {
            Some(generation) => OpenMode::AsOf(generation),
            None if config.lazy => OpenMode::Lazy,
            None => OpenMode::Eager,
        };
        let mut db = Dslog {
            storage: persist::open(dir.as_ref(), mode)?,
            ..Dslog::default()
        };
        if let (Some(requested), Some((_, actual, _))) = (config.gzip, db.bound_database()) {
            if requested != actual {
                return Err(DslogError::InvalidOptions(
                    "the database directory was written with the other gzip mode; omit \
                     `gzip` to accept what the catalog records",
                ));
            }
        }
        db.apply(config);
        Ok(db)
    }

    /// Create a **new** database at `dir` with this configuration: an
    /// empty snapshot is saved immediately (in the [`gzip`](Self::gzip)
    /// format, plain by default), binding the handle for incremental
    /// [`commit`](Dslog::commit)s. Conflicts with [`as_of`](Self::as_of)
    /// and [`lazy`](Self::lazy), which describe *existing* data.
    pub fn create(self, dir: impl AsRef<std::path::Path>) -> Result<Dslog> {
        let config = self.validated(false)?;
        let gzip = config.gzip.unwrap_or(false);
        let mut db = Dslog::new();
        db.apply(config);
        db.save(dir, gzip)?;
        Ok(db)
    }

    /// Build an unbound in-memory database with this configuration.
    /// Settings that only mean something for a database directory
    /// (`lazy`, `as_of`, `gzip`) are rejected.
    pub fn build(self) -> Result<Dslog> {
        let config = self.validated(false)?;
        if config.gzip.is_some() {
            return Err(DslogError::InvalidOptions(
                "`gzip` describes a database directory; use open(dir)/create(dir), or \
                 drop it to build in memory",
            ));
        }
        let mut db = Dslog::new();
        db.apply(config);
        Ok(db)
    }
}

/// One snapshot of a [`Dslog`] handle's effective configuration
/// ([`Dslog::config`]) — one field per [`OpenOptions`] method. The service
/// layer reports it over the net protocol as the stats `"config"` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslogConfig {
    /// Whether the handle was opened lazily (tables decoded on first use).
    pub lazy: bool,
    /// The time-travel generation this handle was opened as of, if any.
    pub as_of: Option<u64>,
    /// The bound directory's on-disk format (`None` while unbound).
    pub gzip: Option<bool>,
    /// The fault injector gating the handle's commit IO, if any.
    pub io_policy: Option<Arc<IoPolicy>>,
    /// Actor label on the handle's operation-log records.
    pub wal_actor: String,
    /// Prior generations each commit keeps on disk for `as_of` opens.
    pub wal_retention: u32,
    /// Background-compaction policy.
    pub maintenance: MaintenancePolicy,
}

impl Default for DslogConfig {
    /// What a [`Dslog::new`] handle runs with.
    fn default() -> Self {
        Dslog::default().config()
    }
}

/// Top-level DSLog handle: storage manager + reuse manager + query planner.
#[derive(Debug, Default)]
pub struct Dslog {
    storage: StorageManager,
    /// Shared by epoch clones; only `register_operation` writes it, and
    /// copies it first if an epoch shares it.
    reuse: Arc<ReuseManager>,
    pub(crate) maintenance: MaintenancePolicy,
    lazy: bool,
    as_of: Option<u64>,
}

impl Dslog {
    /// A fresh DSLog instance with paper-default settings (backward tables
    /// stored, merge step enabled, reuse predictor with m = 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start an [`OpenOptions`] builder — the front door for opening,
    /// creating, or building a database with non-default configuration.
    pub fn options() -> OpenOptions {
        OpenOptions::default()
    }

    /// Snapshot the handle's effective configuration: open-time facts
    /// (`lazy`, `as_of`, `io_policy`, the binding's `gzip`
    /// mode) plus every runtime setting, in one [`DslogConfig`] value.
    pub fn config(&self) -> DslogConfig {
        let s = &self.storage;
        DslogConfig {
            lazy: self.lazy,
            as_of: self.as_of,
            gzip: self.storage.persist_binding().map(|(_, gzip, _)| gzip),
            io_policy: s.io_policy.clone(),
            wal_actor: s.actor.clone(),
            wal_retention: s.retain,
            maintenance: self.maintenance,
        }
    }

    /// Copy a validated configuration onto the handle (`gzip` is the
    /// binding's to keep).
    fn apply(&mut self, c: DslogConfig) {
        let s = &mut self.storage;
        (s.actor, s.retain, s.io_policy) = (c.wal_actor, c.wal_retention, c.io_policy);
        self.maintenance = c.maintenance;
        (self.lazy, self.as_of) = (c.lazy, c.as_of);
    }

    /// Compact the bound directory: a [`commit`](Self::commit) that reuses
    /// nothing (see [`crate::storage::compact`]). Every stored table is
    /// rewritten into the new generation's one segment, and the segments
    /// of superseded generations — with whatever dead bytes they held —
    /// are swept, except those the retention window (see
    /// [`OpenOptions::wal_retention`]) still vouches for, so time-travel
    /// opens inside the window keep working. The report is a commit's, with
    /// `files_reused == 0`. The new checkpoint's rename is the single commit
    /// point; a crash at any earlier step leaves the previous generation
    /// intact.
    pub fn compact(&self) -> Result<persist::CommitReport> {
        self.commit_as(None, true)
    }

    /// Clone this database for epoch-snapshot publication (the
    /// [`crate::service`] write path), in O(1): the array and edge maps,
    /// the persistence binding, the commit lock (see
    /// `StorageManager::clone_for_epoch`) and the reuse predictor state
    /// are *shared* with `self`; every setting is value-cloned. Mutating
    /// the clone's array/edge maps never disturbs readers of the original.
    pub(crate) fn clone_for_epoch(&self) -> Self {
        Self {
            storage: self.storage.clone_for_epoch(),
            reuse: Arc::clone(&self.reuse),
            ..*self
        }
    }

    /// The options `prov_query` runs with: always the defaults (per-call
    /// options go through [`prov_query_opts`](Self::prov_query_opts)).
    pub fn query_options(&self) -> QueryOptions {
        QueryOptions::default()
    }

    /// Access the underlying storage manager (benchmarking, inspection).
    pub fn storage(&self) -> &StorageManager {
        &self.storage
    }

    /// Mutable storage access (ingest paths used by the bench harness).
    pub fn storage_mut(&mut self) -> &mut StorageManager {
        &mut self.storage
    }

    /// Reuse statistics (Table IX harness).
    pub fn reuse_stats(&self) -> ReuseStats {
        self.reuse.stats()
    }

    /// Persist the stored arrays and compressed lineage tables into a
    /// database directory. With `gzip` the tables use the ProvRC-GZip
    /// disk format (the paper's recommended long-term configuration).
    ///
    /// The write is atomic: a full save's checkpoint rename is its commit
    /// point (an incremental one's is its log record, see
    /// [`commit`](Self::commit)), and files from older snapshots are swept
    /// afterwards — a crash mid-save leaves the previous snapshot intact,
    /// and re-saving over an existing directory (even with a different edge
    /// set or `gzip` flag) can never leave stale tables.
    ///
    /// Saving into the *bound* directory — the one this database was
    /// opened from or last saved into, with the same `gzip` mode — is
    /// **incremental**: only edges added since the last commit are
    /// written; everything else stays where it lies (see
    /// [`commit`](Self::commit) for the detailed report).
    ///
    /// Each edge's one stored table is written (a forward query reads it
    /// in reverse; no second orientation exists). The reuse predictor's
    /// tables are not persisted; they are re-learned per process (§VI.C
    /// re-validates mappings anyway).
    pub fn save(&self, dir: impl AsRef<std::path::Path>, gzip: bool) -> Result<()> {
        persist::save(&self.storage, dir.as_ref(), gzip)
    }

    /// Incrementally commit to the bound database directory: write only
    /// the edge tables added since the last commit — as one new segment
    /// file — leave every clean table where it lies, and bump the snapshot
    /// generation with one operation-log record, naming the new tables'
    /// ranges, whose fdatasync is the single atomic commit point. Appending
    /// one edge to a 100k-row database costs O(new edge), not O(database);
    /// a checkpoint, at the head of a fresh log, is written only once the
    /// edges committed since the last one reach its edge count. A
    /// directory has one writer: the first commit takes its lock
    /// ([`DslogError::DirectoryLocked`] while another handle holds it).
    ///
    /// The binding is established by [`save`](Self::save) or by opening a
    /// directory ([`OpenOptions::open`] / [`OpenOptions::create`]);
    /// calling `commit` on a never-persisted database returns
    /// [`DslogError::NotBound`]. Callers running commits concurrently
    /// with saves on the same handle should serialize them (the
    /// [`crate::service`] layer does).
    pub fn commit(&self) -> Result<persist::CommitReport> {
        self.commit_as(None, false)
    }

    /// [`commit`](Self::commit) — or, with `fold`, [`compact`](Self::compact)
    /// — its records logged under `actor`.
    pub(crate) fn commit_as(
        &self,
        actor: Option<&str>,
        fold: bool,
    ) -> Result<persist::CommitReport> {
        let (dir, gzip, _) = self.storage.persist_binding().ok_or(DslogError::NotBound)?;
        persist::commit_generation(&self.storage, &dir, gzip, actor, fold)
    }

    /// The database directory this handle is bound to for incremental
    /// commits, with its gzip mode and last committed generation —
    /// `None` until the first [`save`](Self::save)/open.
    pub fn bound_database(&self) -> Option<(std::path::PathBuf, bool, u64)> {
        self.storage.persist_binding()
    }

    /// Every cleanly framed record of the bound database's operation log,
    /// oldest first ([`DslogError::NotBound`] without a binding). The
    /// read is torn-tail tolerant and never mutates the log.
    pub fn history(&self) -> Result<Vec<crate::storage::wal::OpRecord>> {
        let (dir, _, _) = self.storage.persist_binding().ok_or(DslogError::NotBound)?;
        crate::storage::wal::history(&dir)
    }

    /// Define a named tracked array with a fixed shape (paper: `Array`).
    pub fn define_array(&mut self, name: &str, shape: &[usize]) -> Result<()> {
        self.storage.define_array(name, shape)
    }

    /// Capture and store lineage between two arrays (paper: `Lineage`).
    ///
    /// `in_array` is the source of contributions, `out_array` the result.
    pub fn add_lineage(
        &mut self,
        in_array: &str,
        out_array: &str,
        capture: &dyn Capture,
    ) -> Result<()> {
        let (out_shape, in_shape) = self.storage.edge_shapes(in_array, out_array)?;
        let table = capture.capture(&in_shape, &out_shape);
        self.storage.ingest_lineage(in_array, out_array, &table)
    }

    /// Register an executed operation (paper: `register_operation`).
    ///
    /// `captures` holds one capture per (input, output) pair in row-major
    /// pair order (`in_idx * out_arrs.len() + out_idx`). With `reuse`
    /// enabled, stored signatures may satisfy the call without invoking any
    /// capture; either way the automatic reuse predictor observes the call.
    pub fn register_operation(
        &mut self,
        op_name: &str,
        in_arrs: &[&str],
        out_arrs: &[&str],
        captures: Vec<Box<dyn Capture>>,
        op_args: &[ArgValue],
        reuse: bool,
    ) -> Result<RegistrationOutcome> {
        self.register_operation_full(op_name, in_arrs, out_arrs, captures, op_args, reuse, None)
    }

    /// Like [`register_operation`](Self::register_operation) but with
    /// content hashes of the input arrays, enabling `base_sig` reuse.
    #[allow(clippy::too_many_arguments)]
    pub fn register_operation_full(
        &mut self,
        op_name: &str,
        in_arrs: &[&str],
        out_arrs: &[&str],
        captures: Vec<Box<dyn Capture>>,
        op_args: &[ArgValue],
        reuse: bool,
        content_hashes: Option<&[u64]>,
    ) -> Result<RegistrationOutcome> {
        let n_out = out_arrs.len();
        if captures.len() != in_arrs.len() * n_out {
            let (expected, got) = (in_arrs.len() * n_out, captures.len());
            return Err(DslogError::ArityMismatch { expected, got });
        }
        let shapes = |arrs: &[&str]| -> Result<Vec<Vec<usize>>> {
            (arrs.iter())
                .map(|a| Ok(self.storage.array(a)?.shape.clone()))
                .collect()
        };
        let (in_shapes, out_shapes) = (shapes(in_arrs)?, shapes(out_arrs)?);
        let pairs: Vec<(&str, &str)> = (in_arrs.iter())
            .flat_map(|&in_arr| out_arrs.iter().map(move |&out_arr| (in_arr, out_arr)))
            .collect();

        if reuse {
            if let Some((hit, mapping)) = Arc::make_mut(&mut self.reuse).lookup(
                op_name,
                op_args,
                content_hashes,
                &in_shapes,
                &out_shapes,
            ) {
                let edges = (pairs.iter().zip(mapping.tables))
                    .map(|(&(i, o), table)| self.storage.prepare_reused(i, o, table))
                    .collect::<Result<_>>()?;
                self.storage.install(edges, OnDuplicate::Replace, None)?;
                return Ok(RegistrationOutcome::Reused(hit));
            }
        }

        // Fresh capture per pair, stored as one batch: every pair or none.
        let captured: Vec<LineageTable> = (captures.iter().enumerate())
            .map(|(k, capture)| capture.capture(&in_shapes[k / n_out], &out_shapes[k % n_out]))
            .collect();
        let jobs: Vec<EdgeJob<'_>> = (pairs.iter().zip(&captured))
            .map(|(&(i, o), table)| (i, o, table))
            .collect();
        let edges = self.storage.prepare(&jobs)?;
        self.storage.install(edges, OnDuplicate::Replace, None)?;

        // Feed the automatic reuse predictor (§VI.C).
        let tables = (pairs.iter())
            .map(|&(i, o)| Ok((*self.storage.stored_table(i, o)?).clone()))
            .collect::<Result<_>>()?;
        let mapping = Mapping {
            tables,
            in_shapes,
            out_shapes,
        };
        Arc::make_mut(&mut self.reuse).observe(op_name, op_args, content_hashes, &mapping);
        Ok(RegistrationOutcome::Captured)
    }

    /// Query lineage along a path of arrays (paper: `prov_query`).
    ///
    /// `path[0]` holds the `query_cells`; the result contains the linked
    /// cells of the last array. A path in operation direction is a forward
    /// query; against it, a backward query; mixed paths work hop by hop.
    pub fn prov_query(&self, path: &[&str], query_cells: &[Vec<i64>]) -> Result<QueryResult> {
        self.prov_query_opts(path, query_cells, QueryOptions::default())
    }

    /// `prov_query` with explicit options (used by the ablation benches).
    pub fn prov_query_opts(
        &self,
        path: &[&str],
        query_cells: &[Vec<i64>],
        opts: QueryOptions,
    ) -> Result<QueryResult> {
        let resolved = self.storage.path(path)?;
        let arity = Self::validate_query_cells(&resolved.first, query_cells)?;

        let query = BoxTable::from_cells(arity, query_cells);
        let (cells, stats) =
            crate::query::plan::execute(&self.storage, path, &resolved, &query, opts)?;
        let hops = stats.hops.len();
        Ok(QueryResult { cells, hops, stats })
    }

    /// Query lineage for many cell sets sharing one path in a single sweep
    /// (paper: `prov_query`, vectorized). Results come back in input
    /// order, cell-for-cell identical to a [`prov_query`](Self::prov_query)
    /// loop, but all frontiers are deduplicated into one set of unique
    /// boxes so each hop resolves its table and probes each distinct box
    /// exactly once — one index pass instead of `queries.len()` passes.
    ///
    /// Every returned result carries the *batch-wide* statistics (`hops`
    /// and `stats` are shared, not per-query).
    pub fn prov_query_batch(
        &self,
        path: &[&str],
        queries: &[Vec<Vec<i64>>],
    ) -> Result<Vec<QueryResult>> {
        self.prov_query_batch_opts(path, queries, QueryOptions::default())
    }

    /// [`prov_query_batch`](Self::prov_query_batch) with explicit options.
    pub fn prov_query_batch_opts(
        &self,
        path: &[&str],
        queries: &[Vec<Vec<i64>>],
        opts: QueryOptions,
    ) -> Result<Vec<QueryResult>> {
        let resolved = self.storage.path(path)?;
        let mut frontiers = Vec::with_capacity(queries.len());
        for query_cells in queries {
            let arity = Self::validate_query_cells(&resolved.first, query_cells)?;
            frontiers.push(BoxTable::from_cells(arity, query_cells));
        }
        let (outs, stats) =
            crate::query::plan::execute_batch(&self.storage, path, &resolved, &frontiers, opts)?;
        let hops = stats.hops.len();
        Ok(outs
            .into_iter()
            .map(|cells| QueryResult {
                cells,
                hops,
                stats: stats.clone(),
            })
            .collect())
    }

    /// Validate one query's cells against the path's first array; returns
    /// its arity. (The path itself — long enough, every array defined — is
    /// validated where it is resolved, `StorageManager::path`.)
    fn validate_query_cells(first: &ArrayMeta, query_cells: &[Vec<i64>]) -> Result<usize> {
        let arity = first.ndim();
        for cell in query_cells {
            if cell.len() != arity {
                return Err(DslogError::QueryArityMismatch {
                    expected: arity,
                    got: cell.len(),
                });
            }
            if cell
                .iter()
                .zip(first.shape.iter())
                .any(|(&v, &d)| v < 0 || v >= d as i64)
            {
                return Err(DslogError::CellOutOfBounds {
                    index: cell.clone(),
                    shape: first.shape.clone(),
                });
            }
        }
        Ok(arity)
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

    fn setup() -> Dslog {
        let mut db = Dslog::new();
        db.define_array("A", &[3, 2]).unwrap();
        db.define_array("B", &[3]).unwrap();
        db.add_lineage("A", "B", &TableCapture::new(sum_lineage()))
            .unwrap();
        db
    }

    #[test]
    fn backward_query() {
        let db = setup();
        let r = db.prov_query(&["B", "A"], &[vec![1]]).unwrap();
        assert!(r.cells.contains_cell(&[1, 0]));
        assert!(r.cells.contains_cell(&[1, 1]));
        assert!(!r.cells.contains_cell(&[0, 0]));
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn forward_query() {
        let db = setup();
        let r = db.prov_query(&["A", "B"], &[vec![2, 0]]).unwrap();
        assert!(r.cells.contains_cell(&[2]));
        assert!(!r.cells.contains_cell(&[1]));
    }

    #[test]
    fn two_hop_roundtrip() {
        let db = setup();
        let r = db.prov_query(&["B", "A", "B"], &[vec![0]]).unwrap();
        assert!(r.cells.contains_cell(&[0]));
        assert_eq!(r.hops, 2);
    }

    #[test]
    fn error_cases() {
        let db = setup();
        assert!(matches!(
            db.prov_query(&["B"], &[vec![0]]),
            Err(DslogError::PathTooShort)
        ));
        assert!(matches!(
            db.prov_query(&["B", "A"], &[vec![0, 0]]),
            Err(DslogError::QueryArityMismatch { .. })
        ));
        assert!(matches!(
            db.prov_query(&["B", "A"], &[vec![5]]),
            Err(DslogError::CellOutOfBounds { .. })
        ));
        assert!(matches!(
            db.prov_query(&["B", "Q"], &[vec![0]]),
            Err(DslogError::UnknownArray(_))
        ));
    }

    #[test]
    fn register_operation_and_reuse_flow() {
        let mut db = Dslog::new();
        for run in 0..3 {
            let a = format!("A{run}");
            let b = format!("B{run}");
            db.define_array(&a, &[3, 2]).unwrap();
            db.define_array(&b, &[3]).unwrap();
            let outcome = db
                .register_operation(
                    "sum_axis1",
                    &[&a],
                    &[&b],
                    vec![Box::new(TableCapture::new(sum_lineage()))],
                    &[ArgValue::Int(1)],
                    true,
                )
                .unwrap();
            match run {
                0 | 1 => assert_eq!(outcome, RegistrationOutcome::Captured),
                _ => assert!(matches!(outcome, RegistrationOutcome::Reused(_))),
            }
        }
        // Reused edge answers queries identically.
        let r = db.prov_query(&["B2", "A2"], &[vec![2]]).unwrap();
        assert!(r.cells.contains_cell(&[2, 0]));
        assert!(r.cells.contains_cell(&[2, 1]));
        assert_eq!(db.reuse_stats().captures, 2);
        assert!(db.reuse_stats().dim_hits + db.reuse_stats().gen_hits >= 1);
    }

    /// Regression: a failing pair used to leave the pairs captured before
    /// it installed and logged. The operation stores every pair or none.
    #[test]
    fn failed_register_operation_stores_and_logs_nothing() {
        use crate::storage::wal::OpKind;
        let dir = std::env::temp_dir().join(format!("dslog-api-atomic-op-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Dslog::options().create(&dir).unwrap();
        for name in ["A", "B", "C"] {
            db.define_array(name, &[3]).unwrap();
        }
        let capture = |t| Box::new(TableCapture::new(t)) as Box<dyn Capture>;
        let identity = LineageTable::from_rows(1, 1, &[&[0, 0], &[1, 1], &[2, 2]]);
        // A→C captures two output attributes where C has one axis.
        let wrong = LineageTable::from_rows(2, 1, &[&[0, 0, 0]]);
        let captures = vec![capture(identity.clone()), capture(wrong)];
        let err = |expected, got| Err(DslogError::ArityMismatch { expected, got });
        let op = db.register_operation("op", &["A"], &["B", "C"], captures, &[], true);
        assert_eq!(op, err(2, 3));
        assert_eq!(db.storage().n_edges(), 0);
        assert_eq!(db.reuse_stats().captures, 0);
        db.commit().unwrap();
        let history = db.history().unwrap();
        let logged = history
            .iter()
            .any(|r| matches!(r.kind, OpKind::IngestEdge { .. }));
        assert!(!logged, "{history:?}");
        // One capture short of the pairs is an error, not a panic.
        let captures = vec![capture(identity)];
        let op = db.register_operation("op", &["A"], &["B", "C"], captures, &[], true);
        assert_eq!(op, err(2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misspelled_late_array_errors_even_when_frontier_empties() {
        // Regression: the old loop validated path arrays hop by hop and
        // returned early once the frontier went empty, so a misspelled
        // array *after* the emptying hop silently produced Ok(empty).
        let mut db = Dslog::new();
        db.define_array("X", &[4]).unwrap();
        db.define_array("Y", &[4]).unwrap();
        let mut t = LineageTable::new(1, 1);
        t.push_row(&[0, 0]); // only Y[0] has lineage: Y[3] empties at hop 1
        db.add_lineage("X", "Y", &TableCapture::new(t)).unwrap();
        assert!(matches!(
            db.prov_query(&["Y", "X", "Zz"], &[vec![3]]),
            Err(DslogError::UnknownArray(_))
        ));
        assert!(matches!(
            db.prov_query_batch(&["Y", "X", "Zz"], &[vec![vec![3]]]),
            Err(DslogError::UnknownArray(_))
        ));
    }

    #[test]
    fn batch_matches_per_query_loop() {
        let db = setup();
        let queries: Vec<Vec<Vec<i64>>> = vec![vec![vec![0]], vec![vec![1], vec![2]], vec![]];
        let batch = db.prov_query_batch(&["B", "A"], &queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            let single = db.prov_query(&["B", "A"], q).unwrap();
            assert_eq!(r.cells.cell_set(), single.cells.cell_set());
        }
        assert!(batch[2].cells.is_empty());
        // Batch stats are shared across results.
        assert_eq!(batch[0].stats, batch[1].stats);
    }

    /// The per-path registry follows the edges: an ingest into a member
    /// edge between two queries of one path makes the next query resolve
    /// the path afresh — the new edge answers, the composite over the old
    /// edge is gone — while the snapshot the epoch was cloned from keeps
    /// answering from the old edge and its composite.
    #[test]
    fn ingest_between_queries_re_resolves_the_path() {
        let shifted = |shift: i64| {
            let mut t = LineageTable::new(1, 1);
            (0..4).for_each(|v| t.push_row(&[v, (v + shift) % 4]));
            TableCapture::new(t)
        };
        let mut db = Dslog::new();
        for name in ["X", "Y", "Z"] {
            db.define_array(name, &[4]).unwrap();
        }
        db.add_lineage("X", "Y", &shifted(1)).unwrap();
        db.add_lineage("Y", "Z", &shifted(1)).unwrap();
        let path = ["Z", "Y", "X"];
        let answer = |db: &Dslog| -> Vec<Vec<i64>> {
            db.prov_query(&path, &[vec![0]])
                .unwrap()
                .cells
                .enumerate_cells()
        };

        // The first two sightings run both hops, the third materializes.
        for _ in 0..2 {
            assert_eq!(answer(&db), vec![vec![2]]);
            assert!(!db.storage().has_composite(&path));
        }
        assert_eq!(answer(&db), vec![vec![2]]);
        assert!(db.storage().has_composite(&path));

        let mut next = db.clone_for_epoch();
        next.add_lineage("X", "Y", &shifted(2)).unwrap();
        assert!(!next.storage().has_composite(&path));
        assert_eq!(answer(&next), vec![vec![3]]);
        assert_eq!(answer(&next), vec![vec![3]]);
        assert!(!next.storage().has_composite(&path), "sightings restart");

        // The published snapshot is undisturbed: old edge, old composite.
        assert!(db.storage().has_composite(&path));
        assert_eq!(answer(&db), vec![vec![2]]);
    }

    #[test]
    fn open_options_rejects_conflicts_before_io() {
        // No such directory exists — validation must fire first.
        let missing = std::path::Path::new("/nonexistent/dslog-options-test");
        assert!(matches!(
            Dslog::options().as_of(3).lazy(true).open(missing),
            Err(DslogError::InvalidOptions(_))
        ));
        assert!(matches!(
            Dslog::options()
                .as_of(3)
                .maintenance(MaintenancePolicy::every_generations(4))
                .open(missing),
            Err(DslogError::InvalidOptions(_))
        ));
        assert!(matches!(
            Dslog::options().lazy(true).create(missing),
            Err(DslogError::InvalidOptions(_))
        ));
        assert!(matches!(
            Dslog::options().gzip(true).build(),
            Err(DslogError::InvalidOptions(_))
        ));
    }

    /// Every builder method lands in `config()`: each of the seven settable
    /// values is set away from its default and read back unchanged.
    #[test]
    fn open_options_create_open_and_config_roundtrip() {
        use crate::storage::wal::IoFault;
        let dir = std::env::temp_dir().join(format!("dslog-api-options-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Dslog::options().gzip(true).create(&dir).unwrap();
        db.define_array("A", &[3, 2]).unwrap();
        db.define_array("B", &[3]).unwrap();
        db.add_lineage("A", "B", &TableCapture::new(sum_lineage()))
            .unwrap();
        let generation = db.commit().unwrap().generation;
        assert_eq!(db.config().gzip, Some(true));

        // Requesting the wrong format at open time is a build-time error;
        // omitting gzip (or matching it) accepts the catalog's record.
        assert!(matches!(
            Dslog::options().gzip(false).open(&dir),
            Err(DslogError::InvalidOptions(_))
        ));

        let want = DslogConfig {
            lazy: true,
            as_of: None, // conflicts with `lazy`; covered below
            gzip: Some(true),
            io_policy: Some(IoPolicy::fail_at(IoFault::WriteError, u64::MAX)),
            wal_actor: "builder-test".to_string(),
            wal_retention: 5,
            maintenance: MaintenancePolicy::every_generations(4),
        };
        let db = Dslog::options()
            .lazy(want.lazy)
            .gzip(true)
            .io_policy(want.io_policy.clone().unwrap())
            .wal_actor("builder-test")
            .wal_retention(want.wal_retention)
            .maintenance(want.maintenance)
            .open(&dir)
            .unwrap();
        assert_eq!(db.config(), want);
        let default = DslogConfig::default();
        for (field, differs) in [
            ("lazy", want.lazy != default.lazy),
            ("gzip", want.gzip != default.gzip),
            ("io_policy", want.io_policy != default.io_policy),
            ("wal_actor", want.wal_actor != default.wal_actor),
            ("wal_retention", want.wal_retention != default.wal_retention),
            ("maintenance", want.maintenance != default.maintenance),
        ] {
            assert!(differs, "{field} was left at its default");
        }
        let r = db.prov_query(&["B", "A"], &[vec![1]]).unwrap();
        assert!(r.cells.contains_cell(&[1, 0]));

        let old = Dslog::options().as_of(generation).open(&dir).unwrap();
        assert_eq!(old.config().as_of, Some(generation));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_requires_binding_at_api_level() {
        let db = setup();
        assert!(matches!(db.compact(), Err(DslogError::NotBound)));
    }

    #[test]
    fn empty_query_result_short_circuits() {
        // Lineage that misses some output cells: query those.
        let mut db = Dslog::new();
        db.define_array("X", &[4]).unwrap();
        db.define_array("Y", &[4]).unwrap();
        let mut t = LineageTable::new(1, 1);
        t.push_row(&[0, 0]); // only Y[0] has lineage
        db.add_lineage("X", "Y", &TableCapture::new(t)).unwrap();
        let r = db.prov_query(&["Y", "X"], &[vec![3]]).unwrap();
        assert!(r.cells.is_empty());
    }
}
