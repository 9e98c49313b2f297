//! Concurrent ingest-while-query service layer, built on **epoch
//! snapshots**.
//!
//! The paper's workload is a long-lived pipeline: operations keep
//! registering lineage while analysts issue `prov_query` calls against
//! what is already stored. [`DslogService`] wraps a [`Dslog`] for exactly
//! that shape of traffic:
//!
//! - **Queries are wait-free with respect to writers.** The service
//!   publishes an immutable `Arc<Dslog>` snapshot; a query clones the
//!   `Arc` (a pointer copy under a momentary lock that writers also only
//!   hold for a pointer swap) and runs entirely against that snapshot.
//!   A query never waits on batch compression, on an install, or on
//!   commit file IO — there is no reader-blocks-behind-writer lock left
//!   in the serve path.
//! - **Writes build the next epoch on the side.** `define_array` and the
//!   install phase of [`ingest_batch`](DslogService::ingest_batch) clone
//!   the current snapshot — O(1): its array and edge maps are
//!   copy-on-write shards of shared `Arc` names, shapes and tables —
//!   insert into the clone, which is O(change): each insert copies the one
//!   shard it lands in, about 1/64 of the map, as reference-count bumps,
//!   and publish it with an O(1) pointer swap. A failed write publishes
//!   nothing: readers can never observe a partial batch, and the
//!   documented "all of a batch or none of it" guarantee holds
//!   structurally, not by careful ordering.
//! - **Ingest is two-phase.** [`ingest_batch`](DslogService::ingest_batch)
//!   prepares the batch against a snapshot *outside any lock* — the
//!   storage layer's one ingest path checks, compresses (via
//!   [`crate::provrc::compress_batch_parallel`]), indexes and
//!   computes the log records — and then installs it into the next epoch
//!   and swaps that in under the writer lock (O(1) clone, one shard copy
//!   per edge).
//! - **Commits run against a pinned snapshot.** [`commit`](DslogService::commit)
//!   pairs the pending-edge counter with a snapshot under the writer lock
//!   (a momentary critical section), then drives [`Dslog::commit`] with
//!   no service lock held — ingest keeps installing *and* queries keep
//!   serving while the snapshot is written. Edges installed mid-commit
//!   are simply not in the pinned snapshot and stay pending. An
//!   [`AutoCommitPolicy`] can trigger commits automatically after a
//!   threshold of ingested edges and/or on a periodic timer thread.
//!
//! The generation model gives each *committed* snapshot its identity on
//! disk; the service's monotonically increasing **epoch** counter gives
//! each *published* in-memory snapshot its identity (surfaced via
//! [`ServiceStats::epoch`]).
//!
//! For serving this over TCP to many concurrent clients, see
//! [`crate::net`].
//!
//! ```
//! use dslog::service::{AutoCommitPolicy, DslogService, IngestJob};
//! use dslog::table::LineageTable;
//!
//! let dir = std::env::temp_dir().join(format!("svc-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut db = dslog::api::Dslog::options().create(&dir).unwrap(); // bound for commits
//! db.define_array("A", &[2]).unwrap();
//! db.define_array("B", &[2]).unwrap();
//!
//! let service = DslogService::new(db, AutoCommitPolicy::every_edges(64));
//! let mut t = LineageTable::new(1, 1);
//! t.push_row(&[0, 1]);
//! t.push_row(&[1, 0]);
//! service
//!     .ingest_batch(vec![IngestJob::new("A", "B", t)])
//!     .unwrap();
//! let r = service.query(&["B", "A"], &[vec![0]]).unwrap();
//! assert!(r.cells.contains_cell(&[1]));
//! let (db, commit) = service.shutdown().expect("no refs remain"); // final commit, teardown
//! commit.unwrap();
//! assert_eq!(db.storage().n_edges(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::api::{Dslog, QueryResult};
use crate::error::{DslogError, Result};
use crate::storage::persist::CommitReport;
use crate::storage::{EdgeJob, OnDuplicate};
use crate::table::LineageTable;
use dslog_sync::{ranks, Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When the service commits on its own.
///
/// Both triggers may be combined; [`AutoCommitPolicy::manual`] disables
/// both (only explicit [`DslogService::commit`] calls persist anything).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoCommitPolicy {
    /// Commit as soon as at least this many edges were ingested since the
    /// last commit (checked after every batch).
    pub edge_threshold: Option<u64>,
    /// Commit on this period from a background timer thread, skipping
    /// ticks with nothing pending.
    pub interval: Option<Duration>,
}

impl AutoCommitPolicy {
    /// No automatic commits.
    pub fn manual() -> Self {
        Self::default()
    }

    /// Commit whenever `n` or more edges are pending.
    pub fn every_edges(n: u64) -> Self {
        Self {
            edge_threshold: Some(n),
            ..Self::default()
        }
    }

    /// Commit every `interval` (if anything is pending).
    pub fn every(interval: Duration) -> Self {
        Self {
            interval: Some(interval),
            ..Self::default()
        }
    }
}

/// When the service runs background **compaction** (see
/// [`crate::storage::compact`]) on the database it serves.
///
/// The policy travels with the database: set it at open time through
/// [`crate::api::OpenOptions::maintenance`], and the service checks it
/// after every successful commit against what is on disk — the segment
/// files the live catalog references — not against what this process
/// did, so a database served by many short-lived processes compacts too.
/// Compaction runs on the committing thread under the service commit lock
/// — queries and ingest installs are never blocked (they only touch the
/// epoch-snapshot locks), and the storage layer's own commit lock
/// serializes it against concurrent explicit commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenancePolicy {
    /// Compact once the live catalog references more than this many
    /// segment files (checked after each successful service commit; 0
    /// counts as 1). A commit that writes tables adds one segment, so this
    /// is the number of such generations since the last compaction; a
    /// commit that writes none never triggers one. `None` disables
    /// background compaction; explicit [`Dslog::compact`] calls always
    /// work.
    pub auto_compact_generations: Option<u64>,
}

impl MaintenancePolicy {
    /// No background compaction (the default).
    pub fn manual() -> Self {
        Self::default()
    }

    /// Compact once more than `n` segments are live: after every `n`
    /// generations that wrote tables (`n` is clamped to at least 1).
    pub fn every_generations(n: u64) -> Self {
        Self {
            auto_compact_generations: Some(n.max(1)),
        }
    }
}

/// One edge of an ingest batch: the uncompressed lineage relation for
/// `in_array → out_array` (both must already be defined).
#[derive(Debug, Clone)]
pub struct IngestJob {
    /// Input (source-of-contributions) array.
    pub in_array: String,
    /// Output (result) array.
    pub out_array: String,
    /// The raw lineage relation, output attributes first.
    pub lineage: LineageTable,
}

impl IngestJob {
    /// Convenience constructor.
    pub fn new(
        in_array: impl Into<String>,
        out_array: impl Into<String>,
        lineage: LineageTable,
    ) -> Self {
        Self {
            in_array: in_array.into(),
            out_array: out_array.into(),
            lineage,
        }
    }
}

/// What one [`DslogService::ingest_batch`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Edges installed by this batch.
    pub edges: usize,
    /// Raw lineage rows across the batch.
    pub rows: usize,
    /// Edges pending (ingested but not yet committed) after this batch.
    pub pending_edges: u64,
    /// Outcome of the auto-commit this batch triggered, if the edge
    /// threshold fired. `Some(Err(_))` means the batch installed fine but
    /// the commit failed (e.g. [`DslogError::NotBound`]); the edges stay
    /// pending for a later commit.
    pub auto_commit: Option<Result<CommitReport>>,
}

/// Monotonic service counters (see [`DslogService::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Arrays currently defined.
    pub arrays: usize,
    /// Edges currently stored.
    pub edges: usize,
    /// Edges ingested since the last commit.
    pub pending_edges: u64,
    /// Total edges ingested through the service.
    pub edges_ingested: u64,
    /// Queries served.
    pub queries: u64,
    /// Commits driven through the service (manual + automatic).
    pub commits: u64,
    /// Commits triggered by the auto-commit policy.
    pub auto_commits: u64,
    /// Commits that failed (manual + automatic). Monotonic, never reset.
    pub failed_commits: u64,
    /// Error text of the most recent failed commit. Cleared back to
    /// `None` by the next successful commit, so `Some(_)` means the
    /// service is *currently* unable to persist.
    pub last_commit_error: Option<String>,
    /// In-memory snapshot epoch: bumped by every published write
    /// (`define_array`, installed batch). Identifies which snapshot the
    /// other fields describe.
    pub epoch: u64,
    /// Last committed generation of the bound directory (`None` if the
    /// wrapped database is unbound).
    pub generation: Option<u64>,
    /// Background compactions driven by the [`MaintenancePolicy`].
    pub compactions: u64,
    /// The effective configuration of the served database (rendered as a
    /// `"config"` object over the net protocol).
    pub config: crate::api::DslogConfig,
}

struct Shared {
    /// The current epoch snapshot. Readers clone the `Arc` under the
    /// momentary read side; writers hold the write side only for the
    /// pointer swap in [`Shared::publish`], and free the superseded epoch
    /// after releasing it. The epoch itself is built beforehand, outside
    /// this lock: an O(1) clone of the current one plus an O(change)
    /// insert (the one map shard each define or edge lands in). Nothing
    /// slow ever runs under this lock. Rank `service.current` (30).
    current: RwLock<Arc<Dslog>>,
    /// Published-snapshot counter (see [`ServiceStats::epoch`]).
    epoch: AtomicU64,
    /// Serializes epoch *builders* (define, batch install) and the
    /// commit prologue's (snapshot, pending-counter) pairing. Never held
    /// across compression or file IO. Rank `service.writer` (20).
    writer: Mutex<()>,
    /// Serializes service-level commits so the pending-edge accounting
    /// stays exact (the storage layer would serialize the file writes
    /// anyway, on its binding lock). Rank `service.commit` (10), flagged
    /// `io_safe`: holding it across the commit's file IO is the point.
    commit_lock: Mutex<()>,
    policy: AutoCommitPolicy,
    pending_edges: AtomicU64,
    edges_ingested: AtomicU64,
    queries: AtomicU64,
    commits: AtomicU64,
    auto_commits: AtomicU64,
    /// Background compactions driven by the maintenance policy.
    compactions: AtomicU64,
    /// Total commit failures (manual + automatic), monotonic.
    failed_commits: AtomicU64,
    /// Commit failures since the last success; drives the ticker's
    /// capped exponential backoff and resets to 0 on any successful
    /// commit.
    consecutive_failures: AtomicU32,
    /// Error text of the most recent failed commit (`None` once a
    /// commit succeeds again). Rank `service.error` (9): below the
    /// commit lock, so it is only ever taken with no other service lock
    /// held.
    last_commit_error: Mutex<Option<String>>,
    /// Ticker shutdown flag + wakeup. Rank `service.stop` (8): below the
    /// commit lock, so the ticker could even commit while holding it
    /// (it drops the guard first anyway).
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

impl Shared {
    /// The current snapshot: a pointer clone under the momentary read
    /// side of the swap lock.
    fn snapshot(&self) -> Arc<Dslog> {
        Arc::clone(&self.current.read())
    }

    /// Swap in a new epoch. O(1) under the write side: the superseded
    /// epoch is dropped only after the guard is released, so freeing it
    /// never holds up a reader's `snapshot`. Callers hold the writer mutex
    /// so concurrent builders cannot leapfrog each other.
    fn publish(&self, db: Dslog) {
        let superseded = std::mem::replace(&mut *self.current.write(), Arc::new(db));
        self.epoch.fetch_add(1, Ordering::Release);
        drop(superseded);
    }

    /// Commit a pinned snapshot. The (snapshot, pending) pair is taken
    /// under the writer mutex — installs (which also hold it) are
    /// excluded for that instant, so `pending` counts exactly the
    /// uncommitted edges the pinned snapshot contains. The commit IO
    /// itself runs with no service lock held: queries AND ingest installs
    /// proceed while the snapshot is written; edges installed meanwhile
    /// are absent from the pinned snapshot and stay pending.
    ///
    /// The commit record names `actor` (`None`: the database's configured
    /// one) — or, for a commit the policy triggered (`auto`), the policy,
    /// not whichever client's batch happened to cross the threshold.
    fn commit(&self, auto: bool, actor: Option<&str>) -> Result<CommitReport> {
        let outcome = {
            let _serialize = self.commit_lock.lock();
            let (snapshot, pending) = {
                let _excl = self.writer.lock();
                (self.snapshot(), self.pending_edges.load(Ordering::Acquire))
            };
            let actor = if auto { Some("auto-commit") } else { actor };
            let outcome = snapshot.commit_as(actor, false);
            if outcome.is_ok() {
                self.pending_edges.fetch_sub(pending, Ordering::AcqRel);
                self.commits.fetch_add(1, Ordering::Relaxed);
                if auto {
                    self.auto_commits.fetch_add(1, Ordering::Relaxed);
                }
                // Maintenance rides the committing thread while the
                // service commit lock (rank 10, io_safe) is still held;
                // `compact` takes the storage commit lock (rank 40) —
                // a legal ascent, and queries never touch either.
                self.maybe_auto_compact(&snapshot);
            }
            drop(snapshot);
            outcome
        };
        // Failure bookkeeping runs with the commit lock released: the
        // error slot's rank (9) sits below `service.commit` (10), so it
        // must only ever be taken with no other service lock held.
        match &outcome {
            Ok(_) => {
                self.consecutive_failures.store(0, Ordering::Relaxed);
                *self.last_commit_error.lock() = None;
            }
            Err(e) => {
                self.failed_commits.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
                *self.last_commit_error.lock() = Some(e.to_string());
            }
        }
        outcome
    }

    /// Run background compaction if the served database's
    /// [`MaintenancePolicy`] says the live catalog references too many
    /// segments. Failures are swallowed: the next commit finds the same
    /// segments and retries.
    fn maybe_auto_compact(&self, db: &Dslog) {
        let Some(every) = db.maintenance.auto_compact_generations else {
            return;
        };
        let segments = db.storage().live_segments() as u64;
        if segments > every.max(1) && db.commit_as(Some("maintenance"), true).is_ok() {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A concurrency-safe DSLog server: wait-free snapshot queries, two-phase
/// batched ingest, incremental auto-commits. See the module docs for the
/// epoch-publication story. Cheap to share by reference across threads
/// (`&DslogService: Send + Sync`); every method takes `&self`.
pub struct DslogService {
    shared: Arc<Shared>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DslogService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DslogService")
            .field("policy", &self.shared.policy)
            .field("epoch", &self.shared.epoch.load(Ordering::Relaxed))
            .field(
                "pending_edges",
                &self.shared.pending_edges.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl DslogService {
    /// Wrap a database for concurrent serving. For the commit triggers of
    /// `policy` to work the database must be bound to a directory
    /// (saved/opened at least once); an unbound database still serves
    /// ingest + queries, but commits fail with [`DslogError::NotBound`]
    /// (auto-commit ticks drop the error and retry next time).
    pub fn new(db: Dslog, policy: AutoCommitPolicy) -> Self {
        let shared = Arc::new(Shared {
            current: RwLock::new(&ranks::SERVICE_CURRENT, Arc::new(db)),
            epoch: AtomicU64::new(0),
            writer: Mutex::new(&ranks::SERVICE_WRITER, ()),
            commit_lock: Mutex::new(&ranks::SERVICE_COMMIT, ()),
            policy,
            pending_edges: AtomicU64::new(0),
            edges_ingested: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            auto_commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failed_commits: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            last_commit_error: Mutex::new(&ranks::SERVICE_ERROR, None),
            stop: Mutex::new(&ranks::SERVICE_STOP, false),
            stop_cv: Condvar::new(),
        });
        let ticker = policy.interval.map(|interval| {
            let shared = Arc::clone(&shared);
            // Sanctioned detached thread (see lint-allow.txt): joined by
            // stop_ticker before the service is torn down.
            std::thread::spawn(move || {
                let mut wait = interval;
                loop {
                    let mut stop = shared.stop.lock();
                    if *stop {
                        break;
                    }
                    let (guard, _) = shared.stop_cv.wait_timeout(stop, wait);
                    stop = guard;
                    if *stop {
                        break;
                    }
                    drop(stop);
                    if shared.pending_edges.load(Ordering::Acquire) > 0 {
                        // Unbound databases (NotBound) and transient IO
                        // errors leave the edges pending for a later tick
                        // or an explicit commit; the failure is counted
                        // and its text surfaced through `stats`.
                        let _ = shared.commit(true, None);
                    }
                    // Capped exponential backoff: each consecutive commit
                    // failure doubles the next tick's wait, up to 16x the
                    // configured interval, so a persistently failing
                    // store is not hammered with retry IO. Any success
                    // (including a manual commit) snaps back to the base
                    // interval.
                    let consec = shared.consecutive_failures.load(Ordering::Relaxed);
                    wait = if consec == 0 {
                        interval
                    } else {
                        interval.saturating_mul(1u32 << consec.min(4))
                    };
                }
            })
        });
        Self { shared, ticker }
    }

    /// Define a named array, published as a new epoch. Re-defining an
    /// array with the shape it already has changes nothing and publishes
    /// nothing.
    pub fn define_array(&self, name: &str, shape: &[usize]) -> Result<()> {
        self.define_array_as(name, shape, None)
    }

    /// [`define_array`](Self::define_array), logged under `actor` (`None`:
    /// the database's configured one).
    pub(crate) fn define_array_as(
        &self,
        name: &str,
        shape: &[usize],
        actor: Option<&str>,
    ) -> Result<()> {
        let _excl = self.shared.writer.lock();
        let current = self.shared.snapshot();
        if matches!(current.storage().array(name), Ok(meta) if meta.shape == shape) {
            return Ok(());
        }
        let mut next = current.clone_for_epoch();
        next.storage_mut().define_array_as(name, shape, actor)?;
        self.shared.publish(next);
        Ok(())
    }

    /// Ingest a batch of edges.
    ///
    /// Phase 1 (a snapshot, no lock): reject duplicate `(in, out)` pairs —
    /// against the stored edge set *and* within the batch itself
    /// ([`DslogError::DuplicateEdge`]) — then check every job's arrays and
    /// arities (at most 256 attributes per edge,
    /// [`DslogError::UnsupportedArity`] beyond), ProvRC-compress the whole
    /// batch (on worker threads when it holds enough rows to pay for
    /// them), index each table and compute its log record.
    /// Phase 2 (writer lock): re-check duplicates against the *current*
    /// epoch (a racing batch may have installed one of our pairs while we
    /// compressed), build the next epoch by an O(1) clone, install every
    /// prepared edge (one map-shard copy each), and publish with one swap.
    ///
    /// Phase 2 cannot partially install: any error before the swap drops
    /// the unpublished epoch, so concurrent queries — and the service
    /// counters — see either none or all of the batch, exactly. If the
    /// auto-commit edge threshold fires, the triggered commit's report is
    /// returned in the [`BatchReport`].
    pub fn ingest_batch(&self, jobs: Vec<IngestJob>) -> Result<BatchReport> {
        self.ingest_batch_as(jobs, None)
    }

    /// [`ingest_batch`](Self::ingest_batch), its edges logged under
    /// `actor` (`None`: the database's configured one).
    pub(crate) fn ingest_batch_as(
        &self,
        jobs: Vec<IngestJob>,
        actor: Option<&str>,
    ) -> Result<BatchReport> {
        if jobs.is_empty() {
            return Ok(BatchReport {
                edges: 0,
                rows: 0,
                pending_edges: self.shared.pending_edges.load(Ordering::Acquire),
                auto_commit: None,
            });
        }
        // Phase 1. Duplicates go first, by `install`'s own rule, so a
        // refused batch is never compressed.
        let rows: usize = jobs.iter().map(|j| j.lineage.n_rows()).sum();
        let n_edges = jobs.len();
        let edges = {
            let db = self.shared.snapshot();
            let storage = db.storage();
            let pairs = jobs.iter().map(|j| (&j.in_array[..], &j.out_array[..]));
            storage.reject_duplicates(pairs)?;
            let edge_jobs: Vec<EdgeJob<'_>> = (jobs.iter())
                .map(|j| (&j.in_array[..], &j.out_array[..], &j.lineage))
                .collect();
            storage.prepare(&edge_jobs)?
        };

        // Phase 2. On any error `next` is dropped unpublished. Counters are
        // bumped while the lock is still held, so a commit — which pairs
        // its snapshot with the counter under the same lock — can never
        // see these edges without also counting them.
        let pending = {
            let _excl = self.shared.writer.lock();
            let mut next = self.shared.snapshot().clone_for_epoch();
            next.storage_mut()
                .install(edges, OnDuplicate::Reject, actor)?;
            self.shared.publish(next);
            self.shared
                .edges_ingested
                .fetch_add(n_edges as u64, Ordering::Relaxed);
            self.shared
                .pending_edges
                .fetch_add(n_edges as u64, Ordering::AcqRel)
                + n_edges as u64
        };

        // Edge-threshold auto-commit. The batch itself already succeeded:
        // a commit failure (unbound database, transient IO error) is
        // reported in the `auto_commit` field, not as the batch's result —
        // the edges stay installed and pending for a later commit.
        let auto_commit = match self.shared.policy.edge_threshold {
            Some(threshold) if pending >= threshold => Some(self.shared.commit(true, None)),
            _ => None,
        };
        Ok(BatchReport {
            edges: n_edges,
            rows,
            pending_edges: self.shared.pending_edges.load(Ordering::Acquire),
            auto_commit,
        })
    }

    /// Run a `prov_query` against the current snapshot. Wait-free with
    /// respect to writers: the snapshot `Arc` is cloned and the query
    /// runs entirely against it, concurrent with other queries, batch
    /// compression, installs, and commit IO.
    pub fn query(&self, path: &[&str], query_cells: &[Vec<i64>]) -> Result<QueryResult> {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.snapshot().prov_query(path, query_cells)
    }

    /// Run many `prov_query` calls sharing one path as a single batched
    /// sweep against the current snapshot (see
    /// [`Dslog::prov_query_batch`]): frontiers are deduplicated, each hop
    /// resolves once, and the whole batch sees one consistent epoch. The
    /// service query counter advances by the batch size.
    pub fn query_batch(
        &self,
        path: &[&str],
        queries: &[Vec<Vec<i64>>],
    ) -> Result<Vec<QueryResult>> {
        self.shared
            .queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.shared.snapshot().prov_query_batch(path, queries)
    }

    /// Commit pending work to the bound directory now (incremental:
    /// O(changed edges)). Queries and ingest installs keep being served
    /// while the pinned snapshot is written.
    pub fn commit(&self) -> Result<CommitReport> {
        self.commit_as(None)
    }

    /// [`commit`](Self::commit), its commit record logged under `actor`.
    pub(crate) fn commit_as(&self, actor: Option<&str>) -> Result<CommitReport> {
        self.shared.commit(false, actor)
    }

    /// Current counters and sizes, all describing one snapshot (whose
    /// identity is the `epoch` field).
    pub fn stats(&self) -> ServiceStats {
        let db = self.shared.snapshot();
        let generation = db.bound_database().map(|(_, _, generation)| generation);
        ServiceStats {
            arrays: db.storage().array_names().len(),
            edges: db.storage().n_edges(),
            pending_edges: self.shared.pending_edges.load(Ordering::Acquire),
            edges_ingested: self.shared.edges_ingested.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            commits: self.shared.commits.load(Ordering::Relaxed),
            auto_commits: self.shared.auto_commits.load(Ordering::Relaxed),
            failed_commits: self.shared.failed_commits.load(Ordering::Relaxed),
            last_commit_error: self.shared.last_commit_error.lock().clone(),
            epoch: self.shared.epoch.load(Ordering::Acquire),
            generation,
            compactions: self.shared.compactions.load(Ordering::Relaxed),
            config: db.config(),
        }
    }

    /// The bound directory's operation log, oldest record first (see
    /// [`Dslog::history`]). Fails with [`DslogError::NotBound`] on an
    /// unbound database.
    pub fn history(&self) -> Result<Vec<crate::storage::wal::OpRecord>> {
        self.shared.snapshot().history()
    }

    /// Run a closure against the current snapshot (inspection beyond what
    /// [`stats`](Self::stats) exposes). The whole closure sees ONE
    /// consistent epoch — a batch installed while it runs is either fully
    /// visible or fully absent.
    pub fn with_db<T>(&self, f: impl FnOnce(&Dslog) -> T) -> T {
        f(&self.shared.snapshot())
    }

    fn stop_ticker(&mut self) {
        if let Some(handle) = self.ticker.take() {
            *self.shared.stop.lock() = true;
            self.shared.stop_cv.notify_all();
            let _ = handle.join();
        }
    }

    /// Stop the timer thread, run a final commit if anything is pending
    /// (and the database is bound), and hand the database back.
    ///
    /// The database is returned **even when the final commit fails**
    /// (disk full, directory gone): the uncommitted edges are still in
    /// it, so the caller can retry `commit` or `save` elsewhere. The
    /// commit outcome rides alongside in the inner `Result`.
    ///
    /// Fails with [`DslogError::ServiceBusy`] if other live references to
    /// the service internals remain (a server thread still running, a
    /// leaked snapshot handle) — tearing down under a live reader would
    /// otherwise have to abort the process.
    pub fn shutdown(mut self) -> Result<(Dslog, Result<()>)> {
        self.stop_ticker();
        let final_commit = if self.shared.pending_edges.load(Ordering::Acquire) > 0
            && self.shared.snapshot().bound_database().is_some()
        {
            self.shared.commit(false, None).map(drop)
        } else {
            Ok(())
        };
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop sees ticker == None: nothing left to stop.
        let shared = Arc::try_unwrap(shared)
            .map_err(|_| DslogError::ServiceBusy("service references remain after ticker join"))?;
        let db = Arc::try_unwrap(shared.current.into_inner())
            .map_err(|_| DslogError::ServiceBusy("snapshot readers remain at teardown"))?;
        Ok((db, final_commit))
    }
}

impl Drop for DslogService {
    fn drop(&mut self) {
        self.stop_ticker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TableCapture;
    use crate::storage::wal::OpKind;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dslog-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_lineage(n: i64, shift: i64) -> LineageTable {
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[i, (i + shift) % n]);
        }
        t
    }

    fn bound_service(dir: &std::path::Path, policy: AutoCommitPolicy) -> DslogService {
        let mut db = Dslog::new();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        db.add_lineage("A", "B", &TableCapture::new(small_lineage(8, 0)))
            .unwrap();
        db.save(dir, false).unwrap();
        DslogService::new(db, policy)
    }

    #[test]
    fn batch_ingest_then_query_roundtrip() {
        let dir = temp_dir("batch");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        service.define_array("C", &[8]).unwrap();
        service.define_array("D", &[8]).unwrap();
        let report = service
            .ingest_batch(vec![
                IngestJob::new("B", "C", small_lineage(8, 1)),
                IngestJob::new("C", "D", small_lineage(8, 2)),
            ])
            .unwrap();
        assert_eq!(report.edges, 2);
        assert_eq!(report.pending_edges, 2);
        assert!(report.auto_commit.is_none());
        // Multi-hop query across pre-existing and batch-ingested edges.
        let r = service.query(&["D", "C", "B", "A"], &[vec![3]]).unwrap();
        assert_eq!(r.hops, 3);
        assert!(!r.cells.is_empty());
        // Nothing committed yet: reopening shows only the seeded edge.
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 1);
        let report = service.commit().unwrap();
        assert!(report.incremental);
        assert_eq!(report.files_written, 2);
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_batch_matches_loop_and_counts_queries() {
        let dir = temp_dir("qbatch");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        let queries: Vec<Vec<Vec<i64>>> = (0..4).map(|i| vec![vec![i]]).collect();
        let batch = service.query_batch(&["B", "A"], &queries).unwrap();
        assert_eq!(batch.len(), 4);
        for (q, r) in queries.iter().zip(&batch) {
            let single = service.query(&["B", "A"], q).unwrap();
            assert_eq!(r.cells.cell_set(), single.cells.cell_set());
        }
        // 4 batched + 4 singles.
        assert_eq!(service.stats().queries, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every ingest entry stores the same bytes and logs the same record.
    #[test]
    fn batch_ingest_matches_sequential_ingest() {
        use crate::storage::{format, wal::OpKind};
        let mut first = None;
        for entry in ["add_lineage", "register_operation", "ingest_batch"] {
            let dir = temp_dir(&format!("parity-{entry}"));
            let mut db = Dslog::options().create(&dir).unwrap();
            db.define_array("B", &[8]).unwrap();
            db.define_array("C", &[8]).unwrap();
            let capture = TableCapture::new(small_lineage(8, 3));
            match entry {
                "add_lineage" => db.add_lineage("B", "C", &capture).unwrap(),
                "register_operation" => {
                    let captures: Vec<Box<dyn crate::api::Capture>> = vec![Box::new(capture)];
                    db.register_operation("op", &["B"], &["C"], captures, &[], false)
                        .unwrap();
                }
                _ => {
                    let service = DslogService::new(db, AutoCommitPolicy::manual());
                    let job = IngestJob::new("B", "C", small_lineage(8, 3));
                    service.ingest_batch(vec![job]).unwrap();
                    db = service.shutdown().unwrap().0;
                }
            }
            db.commit().unwrap();
            let table = format::serialize(&db.storage().stored_table("B", "C").unwrap());
            let records: Vec<(u64, u32)> = (db.history().unwrap().into_iter())
                .filter_map(|r| match r.kind {
                    OpKind::IngestEdge { bytes, digest, .. } => Some((bytes, digest)),
                    _ => None,
                })
                .collect();
            assert_eq!(records.len(), 1, "{entry}");
            let first = first.get_or_insert_with(|| (table.clone(), records.clone()));
            assert_eq!(*first, (table, records), "{entry} differs");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn edge_threshold_auto_commits() {
        let dir = temp_dir("threshold");
        let service = bound_service(&dir, AutoCommitPolicy::every_edges(2));
        service.define_array("C", &[8]).unwrap();
        service.define_array("D", &[8]).unwrap();
        let r1 = service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap();
        assert!(r1.auto_commit.is_none());
        assert_eq!(r1.pending_edges, 1);
        let r2 = service
            .ingest_batch(vec![IngestJob::new("C", "D", small_lineage(8, 2))])
            .unwrap();
        let commit = r2.auto_commit.expect("threshold reached").unwrap();
        assert!(commit.incremental);
        assert_eq!(r2.pending_edges, 0);
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 3);
        let stats = service.stats();
        assert_eq!(stats.auto_commits, 1);
        assert_eq!(stats.commits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn maintenance_policy_compacts_after_enough_generations() {
        let dir = temp_dir("maint");
        let mut db = Dslog::options()
            .maintenance(MaintenancePolicy::every_generations(2))
            .create(&dir)
            .unwrap();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        db.add_lineage("A", "B", &TableCapture::new(small_lineage(8, 0)))
            .unwrap();
        db.commit().unwrap();
        // One segment is live: the first service commit makes two, which
        // is not more than the policy's two.
        let service = DslogService::new(db, AutoCommitPolicy::manual());
        service.define_array("C", &[8]).unwrap();
        service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap();
        service.commit().unwrap(); // 2 live segments: at the threshold
        assert_eq!(service.stats().compactions, 0);
        service.define_array("D", &[8]).unwrap();
        service
            .ingest_batch(vec![IngestJob::new("C", "D", small_lineage(8, 2))])
            .unwrap();
        service.commit().unwrap(); // 3 live segments: compaction fires
        let stats = service.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.config.maintenance.auto_compact_generations, Some(2));
        // The commits' segments were folded into the compaction's one.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let segments = names.iter().filter(|n| n.starts_with("segment-"));
        assert_eq!(segments.count(), 1, "{names:?}");
        // The service keeps serving multi-hop queries over the compacted
        // layout, and a cold reopen sees all edges.
        let r = service.query(&["D", "C", "B", "A"], &[vec![3]]).unwrap();
        assert_eq!(r.hops, 3);
        let (_db, commit) = service.shutdown().expect("no refs remain");
        commit.unwrap();
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn segments(dir: &std::path::Path) -> usize {
        let names = std::fs::read_dir(dir).unwrap();
        let names = names.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
        names.filter(|n| n.starts_with("segment-")).count()
    }

    /// Maintenance counts what is on disk, not what this process did: two
    /// services in turn, each committing fewer times than the policy's n,
    /// still end with one segment, and commits that write no table never
    /// rewrite an already compacted database.
    #[test]
    fn maintenance_counts_live_segments_across_services() {
        let dir = temp_dir("maint-restart");
        let options = || Dslog::options().maintenance(MaintenancePolicy::every_generations(3));
        let mut db = options().create(&dir).unwrap();
        db.define_array("A0", &[8]).unwrap();
        db.commit().unwrap();
        let mut k = 0;
        for commits in [2, 2] {
            let service = DslogService::new(db, AutoCommitPolicy::manual());
            for _ in 0..commits {
                let (from, to) = (format!("A{k}"), format!("A{}", k + 1));
                service.define_array(&to, &[8]).unwrap();
                let job = IngestJob::new(from, to, small_lineage(8, k));
                service.ingest_batch(vec![job]).unwrap();
                service.commit().unwrap();
                k += 1;
            }
            let after_second = k == 4;
            assert_eq!(service.stats().compactions, u64::from(after_second));
            let (_db, commit) = service.shutdown().unwrap();
            commit.unwrap();
            db = options().open(&dir).unwrap();
        }
        assert_eq!(segments(&dir), 1);

        // n commits with nothing pending write no segment: no compaction.
        let service = DslogService::new(db, AutoCommitPolicy::manual());
        for _ in 0..3 {
            assert_eq!(service.commit().unwrap().files_written, 0);
        }
        assert_eq!(service.stats().compactions, 0);
        assert_eq!(segments(&dir), 1);
        assert_eq!(service.with_db(|db| db.storage().n_edges()), 4);
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interval_policy_commits_in_background() {
        let dir = temp_dir("interval");
        let service = bound_service(&dir, AutoCommitPolicy::every(Duration::from_millis(25)));
        service.define_array("C", &[8]).unwrap();
        service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap();
        // The ticker must pick the pending edge up without any explicit
        // commit call. Poll the service, not the directory: an open sweeps
        // the files and truncates the log past the live catalog, so one
        // racing the ticker's commit (a second manager on a live
        // directory, which only tests do) could destroy that commit.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while service.stats().auto_commits == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "ticker never committed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Nothing is pending any more, so the ticker commits no further.
        let reopened = Dslog::options().open(&dir).unwrap();
        assert_eq!(reopened.storage().n_edges(), 2);
        drop(service); // joins the ticker without hanging
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_commits_pending_and_returns_db() {
        let dir = temp_dir("shutdown");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        service.define_array("C", &[8]).unwrap();
        service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 5))])
            .unwrap();
        let (db, commit) = service.shutdown().expect("shutdown");
        commit.unwrap();
        assert_eq!(db.storage().n_edges(), 2);
        // The final commit made it to disk.
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_with_live_service_reference_is_service_busy() {
        // Regression for the former `expect("ticker joined; ...")` abort:
        // a leaked reference to the service internals must surface as
        // DslogError::ServiceBusy, not a panic.
        let mut db = Dslog::new();
        db.define_array("A", &[4]).unwrap();
        let service = DslogService::new(db, AutoCommitPolicy::manual());
        let leaked = Arc::clone(&service.shared);
        let err = service.shutdown().unwrap_err();
        assert!(matches!(err, DslogError::ServiceBusy(_)), "{err}");
        drop(leaked);
    }

    #[test]
    fn identical_redefine_publishes_no_epoch() {
        let service = DslogService::new(Dslog::new(), AutoCommitPolicy::manual());
        service.define_array("A", &[4]).unwrap();
        let (epoch, snapshot) = (service.stats().epoch, service.shared.snapshot());
        service.define_array("A", &[4]).unwrap();
        assert_eq!(service.stats().epoch, epoch);
        assert!(Arc::ptr_eq(&snapshot, &service.shared.snapshot()));
        // A different shape is still a conflict, and a new name an epoch.
        assert!(matches!(
            service.define_array("A", &[5]),
            Err(DslogError::ArrayShapeConflict(_))
        ));
        service.define_array("B", &[4]).unwrap();
        assert_eq!(service.stats().epoch, epoch + 1);
    }

    #[test]
    fn shutdown_with_live_snapshot_reader_is_service_busy() {
        // Regression for the former "no snapshot readers remain" panic.
        let mut db = Dslog::new();
        db.define_array("A", &[4]).unwrap();
        let service = DslogService::new(db, AutoCommitPolicy::manual());
        let snapshot = service.shared.snapshot();
        let err = service.shutdown().unwrap_err();
        assert!(matches!(err, DslogError::ServiceBusy(_)), "{err}");
        assert_eq!(snapshot.storage().array_names().len(), 1);
    }

    #[test]
    fn unbound_service_serves_but_cannot_commit() {
        let mut db = Dslog::new();
        db.define_array("A", &[4]).unwrap();
        db.define_array("B", &[4]).unwrap();
        // Threshold policy on an unbound database: the batch must still
        // succeed, with the commit failure reported alongside it.
        let service = DslogService::new(db, AutoCommitPolicy::every_edges(1));
        let report = service
            .ingest_batch(vec![IngestJob::new("A", "B", small_lineage(4, 1))])
            .unwrap();
        assert!(matches!(
            report.auto_commit,
            Some(Err(DslogError::NotBound))
        ));
        assert_eq!(report.pending_edges, 1);
        assert!(service.query(&["B", "A"], &[vec![0]]).is_ok());
        assert!(matches!(service.commit(), Err(DslogError::NotBound)));
        // Both failures (the auto-commit and the manual one) are counted
        // and the latest error text is surfaced.
        let stats = service.stats();
        assert_eq!(stats.failed_commits, 2);
        let err = stats.last_commit_error.expect("error surfaced");
        assert!(err.contains("not bound"), "{err}");
        // Shutdown skips the final commit and still returns the database
        // — the ingested edge survives in memory for the caller to save.
        let (db, commit) = service.shutdown().expect("shutdown");
        commit.unwrap();
        assert_eq!(db.storage().n_edges(), 1);
        let dir = temp_dir("unbound-rescue");
        db.save(&dir, false).unwrap();
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_errors_are_atomic() {
        let dir = temp_dir("badbatch");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        // Unknown array: rejected in phase 1, nothing installed.
        let err = service
            .ingest_batch(vec![IngestJob::new("B", "NOPE", small_lineage(8, 1))])
            .unwrap_err();
        assert!(matches!(err, DslogError::UnknownArray(_)));
        assert_eq!(service.stats().edges, 1);
        assert_eq!(service.stats().pending_edges, 0);
        // Arity mismatch: also phase-1 rejected.
        service.define_array("C", &[4, 2]).unwrap();
        let err = service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap_err();
        assert!(matches!(err, DslogError::ArityMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (no ingest path checked lineage values, and a debug
    /// build panicked on `[1, i64::MIN]` inside ProvRC): a row with a
    /// coordinate outside its array's shape refuses the whole call with
    /// `CellOutOfBounds` before anything is compressed, stored or logged.
    #[test]
    fn out_of_shape_rows_are_refused_whole() {
        let mut db = Dslog::new();
        db.define_array("A", &[4]).unwrap();
        db.define_array("B", &[4]).unwrap();
        for row in [[1, i64::MIN], [1, 4], [-1, 0], [4, 0]] {
            let capture = TableCapture::new(LineageTable::from_rows(1, 1, &[&[0, 0], &row]));
            let err = db.add_lineage("A", "B", &capture).unwrap_err();
            assert!(
                matches!(&err, DslogError::CellOutOfBounds { index, shape }
                    if index[..] == row && shape[..] == [4, 4]),
                "{row:?}: {err:?}"
            );
        }
        assert_eq!(db.storage().n_edges(), 0);

        let dir = temp_dir("out-of-shape");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        let before = service.history().unwrap().len();
        service.define_array("C", &[8]).unwrap();
        let bad = LineageTable::from_rows(1, 1, &[&[0, 0], &[1, i64::MIN]]);
        let err = service
            .ingest_batch(vec![
                IngestJob::new("B", "C", small_lineage(8, 1)),
                IngestJob::new("A", "C", bad),
            ])
            .unwrap_err();
        assert!(matches!(err, DslogError::CellOutOfBounds { .. }), "{err:?}");
        let stats = service.stats();
        assert_eq!((stats.edges, stats.pending_edges), (1, 0));
        // The commit logs the define and nothing of the refused batch.
        service.commit().unwrap();
        let records = service.history().unwrap();
        assert_eq!(records.len(), before + 2, "{records:?}");
        assert!(!records.iter().any(|r| matches!(
            &r.kind,
            OpKind::IngestEdge { out_array, .. } if out_array == "C"
        )));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (batched ingest once silently overwrote duplicate edges
    /// via `edges.insert`, bumping every counter while `n_edges` stayed
    /// flat): a duplicate of an already-stored edge rejects the
    /// whole batch and leaves every counter exact.
    #[test]
    fn duplicate_of_stored_edge_rejected_with_exact_counters() {
        let dir = temp_dir("dup-stored");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        let seed_edges = service.stats().edges as u64; // the committed A->B
        service.define_array("C", &[8]).unwrap();
        service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap();

        // Re-ingesting A->B (stored) or B->C (pending) must fail whole.
        for dup in ["A", "B"] {
            let out = if dup == "A" { "B" } else { "C" };
            let err = service
                .ingest_batch(vec![IngestJob::new(dup, out, small_lineage(8, 7))])
                .unwrap_err();
            assert!(
                matches!(err, DslogError::DuplicateEdge { .. }),
                "got {err:?}"
            );
        }

        // Counter invariant: every ingested edge is a NEW edge.
        let stats = service.stats();
        assert_eq!(stats.edges_ingested, stats.edges as u64 - seed_edges);
        assert_eq!(stats.pending_edges, 1);
        // The stored B->C table is still the original (not overwritten).
        let r = service.query(&["C", "B"], &[vec![0]]).unwrap();
        assert!(r.cells.contains_cell(&[1]), "shift-1 relation replaced");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (the install phase once `?`-returned mid-loop, leaving
    /// earlier jobs of the batch installed and the skipped counter bumps out of
    /// sync): a batch that fails on its *second* job must install
    /// NOTHING — queries, `n_edges`, and all counters behave as if the
    /// call never happened.
    #[test]
    fn failing_batch_installs_nothing() {
        let dir = temp_dir("atomic-batch");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        service.define_array("C", &[8]).unwrap();
        service.define_array("D", &[8]).unwrap();
        let before = service.stats();

        // Job 1 is perfectly valid; job 2 duplicates the stored A->B.
        let err = service
            .ingest_batch(vec![
                IngestJob::new("C", "D", small_lineage(8, 2)),
                IngestJob::new("A", "B", small_lineage(8, 3)),
            ])
            .unwrap_err();
        assert!(matches!(err, DslogError::DuplicateEdge { .. }));

        // And a batch duplicating a pair *within itself*.
        let err = service
            .ingest_batch(vec![
                IngestJob::new("C", "D", small_lineage(8, 2)),
                IngestJob::new("C", "D", small_lineage(8, 4)),
            ])
            .unwrap_err();
        assert!(matches!(err, DslogError::DuplicateEdge { .. }));

        let after = service.stats();
        assert_eq!(after.edges, before.edges, "partial install leaked");
        assert_eq!(after.pending_edges, before.pending_edges);
        assert_eq!(after.edges_ingested, before.edges_ingested);
        // The valid first job must NOT have been installed.
        assert!(matches!(
            service.query(&["D", "C"], &[vec![0]]),
            Err(DslogError::NoLineagePath { .. })
        ));
        // A later clean batch with the same pair succeeds (no residue).
        service
            .ingest_batch(vec![IngestJob::new("C", "D", small_lineage(8, 2))])
            .unwrap();
        assert_eq!(service.stats().edges, before.edges + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Commit failures are counted and surfaced through stats, and the
    /// next successful commit clears the error state (the ticker used to
    /// drop these errors on the floor).
    #[test]
    fn commit_failure_surfaces_then_clears_on_success() {
        use crate::storage::wal::{IoFault, IoPolicy};
        let dir = temp_dir("failstats");
        let policy = IoPolicy::fail_at(IoFault::WriteError, u64::MAX);
        let db = Dslog::options()
            .io_policy(policy.clone())
            .create(&dir)
            .unwrap();
        let service = DslogService::new(db, AutoCommitPolicy::manual());
        service.define_array("B", &[8]).unwrap();
        service.define_array("C", &[8]).unwrap();
        service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap();
        // One-shot injected write failure: the first commit fails, the
        // edges stay pending, and the failure is surfaced.
        policy.rearm(1);
        assert!(service.commit().is_err());
        let stats = service.stats();
        assert_eq!(stats.failed_commits, 1);
        assert_eq!(stats.pending_edges, 1);
        assert!(stats.last_commit_error.is_some());
        // The policy trips exactly once: the retry succeeds and clears
        // the error state (failed_commits stays monotonic).
        service.commit().unwrap();
        let stats = service.stats();
        assert_eq!(stats.failed_commits, 1);
        assert_eq!(stats.pending_edges, 0);
        assert!(stats.last_commit_error.is_none());
        assert_eq!(Dslog::options().open(&dir).unwrap().storage().n_edges(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The interval ticker keeps counting failures (with backoff) instead
    /// of silently dropping them.
    #[test]
    fn ticker_surfaces_commit_failures() {
        let mut db = Dslog::new();
        db.define_array("A", &[4]).unwrap();
        db.define_array("B", &[4]).unwrap();
        let service = DslogService::new(db, AutoCommitPolicy::every(Duration::from_millis(5)));
        service
            .ingest_batch(vec![IngestJob::new("A", "B", small_lineage(4, 1))])
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while service.stats().failed_commits == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "ticker never reported a failure"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = service.stats().last_commit_error.expect("error surfaced");
        assert!(err.contains("not bound"), "{err}");
        assert_eq!(service.stats().pending_edges, 1);
    }

    /// Every published write advances the epoch; reads pin one snapshot.
    #[test]
    fn epochs_advance_and_snapshots_pin() {
        let dir = temp_dir("epochs");
        let service = bound_service(&dir, AutoCommitPolicy::manual());
        let e0 = service.stats().epoch;
        service.define_array("C", &[8]).unwrap();
        let e1 = service.stats().epoch;
        assert!(e1 > e0);
        // A snapshot taken now must not see a later batch.
        let pinned = service.with_db(|db| db.storage().n_edges());
        service
            .ingest_batch(vec![IngestJob::new("B", "C", small_lineage(8, 1))])
            .unwrap();
        assert!(service.stats().epoch > e1);
        assert_eq!(service.with_db(|db| db.storage().n_edges()), pinned + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
