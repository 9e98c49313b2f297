//! Instrumented synchronization primitives for the dslog workspace.
//!
//! Every lock in dslog is a [`Mutex`] or [`RwLock`] from this crate, created
//! with a [`LockMeta`] that gives it a stable name and a numeric **rank**.
//! The workspace-wide rule is simple: a thread may only acquire locks in
//! strictly increasing rank order. The canonical ranks live in [`ranks`] and
//! are documented there; `cargo xtask lint` forbids raw `parking_lot` /
//! `std::sync` lock types everywhere else in the tree so this layer cannot
//! be bypassed silently.
//!
//! # Runtime checking
//!
//! In debug builds (`cfg(debug_assertions)`), when checking is enabled, every
//! acquisition is recorded against a thread-local held-lock stack and a
//! global lock-order graph. Three violation kinds are detected:
//!
//! - **rank-inversion** — acquiring a lock whose rank is `<=` the rank of a
//!   lock already held by the same thread;
//! - **cycle** — the acquisition edge just recorded closes a cycle in the
//!   global lock-order graph (a potential deadlock even if each individual
//!   thread looked locally consistent);
//! - **held-across-io** — a lock not flagged [`LockMeta::io_safe`] is held
//!   while an [`io_guard`] section (file IO in `persist::commit` /
//!   `write_atomic`) runs, or is acquired inside one.
//!
//! Checking is off by default. It turns on when the environment variable
//! `DSLOG_SYNC_CHECK=1` is set (violations **panic**, so any test that
//! triggers one fails loudly), or inside [`capture`] (violations are
//! collected and returned, used by the detector's own tests).
//!
//! # Release builds
//!
//! With `debug_assertions` off, the wrappers compile to transparent newtypes
//! around the vendored `parking_lot` shim: no metadata field, no branch on
//! the hot path, no thread-local traffic. `lock()`/`read()`/`write()` are
//! direct passthroughs.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Static identity of a lock: a stable name, a rank in the global acquisition
/// order, and whether it is deliberately held across commit file IO.
pub struct LockMeta {
    /// Stable dotted name used in violation reports, e.g. `"storage.slot"`.
    pub name: &'static str,
    /// Position in the global acquisition order. Locks must be acquired in
    /// strictly increasing rank order within a thread.
    pub rank: u32,
    /// `true` for commit-serialization locks that are *by design* held while
    /// `persist::commit` does file IO. Only non-`io_safe` locks trigger the
    /// held-across-IO detector.
    pub io_safe: bool,
}

impl LockMeta {
    /// A lock that must never be held across file IO (the common case).
    pub const fn new(name: &'static str, rank: u32) -> Self {
        LockMeta {
            name,
            rank,
            io_safe: false,
        }
    }

    /// A commit-serialization lock that is deliberately held across the file
    /// IO it serializes.
    pub const fn io_safe(name: &'static str, rank: u32) -> Self {
        LockMeta {
            name,
            rank,
            io_safe: true,
        }
    }
}

/// The canonical lock ranks of the dslog workspace, lowest first.
///
/// A thread may acquire these in strictly increasing rank order only. The
/// ordering mirrors the epoch-snapshot design: coarse service-level
/// serialization locks rank below the epoch pointer, which ranks below
/// per-structure storage locks, which rank below per-edge slot locks.
///
/// | rank | lock | role |
/// |-----:|------|------|
/// | 5  | `net.queue` | TCP accept queue handoff (never co-held with service locks) |
/// | 8  | `service.stop` | ticker shutdown flag + condvar |
/// | 9  | `service.error` | last auto-commit error string (taken with nothing held) |
/// | 10 | `service.commit` | serializes service-level commits; **io_safe** |
/// | 20 | `service.writer` | serializes epoch builders (ingest/define) |
/// | 30 | `service.current` | the published `Arc<Dslog>` epoch pointer |
/// | 40 | `storage.commit` | serializes `persist::commit`; **io_safe** |
/// | 45 | `storage.wal` | pending operation-log records + actor/policy; **io_safe** |
/// | 50 | `storage.binding` | persistence binding (dir + generation state) |
/// | 60 | `storage.composites` | per-path registry map (resolved paths + composite state) |
/// | 70 | `storage.slot` | per-edge representation slot (many instances share this rank; never hold two) |
pub mod ranks {
    use super::LockMeta;

    pub static NET_QUEUE: LockMeta = LockMeta::new("net.queue", 5);
    pub static SERVICE_STOP: LockMeta = LockMeta::new("service.stop", 8);
    pub static SERVICE_ERROR: LockMeta = LockMeta::new("service.error", 9);
    pub static SERVICE_COMMIT: LockMeta = LockMeta::io_safe("service.commit", 10);
    pub static SERVICE_WRITER: LockMeta = LockMeta::new("service.writer", 20);
    pub static SERVICE_CURRENT: LockMeta = LockMeta::new("service.current", 30);
    pub static STORAGE_COMMIT: LockMeta = LockMeta::io_safe("storage.commit", 40);
    pub static STORAGE_WAL: LockMeta = LockMeta::io_safe("storage.wal", 45);
    pub static STORAGE_BINDING: LockMeta = LockMeta::new("storage.binding", 50);
    pub static STORAGE_COMPOSITES: LockMeta = LockMeta::new("storage.composites", 60);
    pub static STORAGE_SLOT: LockMeta = LockMeta::new("storage.slot", 70);
}

/// One detected violation of the concurrency invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// `"rank-inversion"`, `"cycle"`, or `"held-across-io"`.
    pub kind: &'static str,
    /// Human-readable report naming the locks involved.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// Counters maintained while checking is enabled (all zero in release
/// builds or with checking off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    pub acquisitions: u64,
    pub io_sections: u64,
    pub violations: u64,
}

#[cfg(debug_assertions)]
mod check {
    use super::{LockMeta, Stats, Violation};
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
    use std::sync::{Mutex, OnceLock};

    const MODE_UNINIT: u8 = 0xff;
    const MODE_OFF: u8 = 0;
    const MODE_PANIC: u8 = 1;
    const MODE_CAPTURE: u8 = 2;

    static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
    static IO_SECTIONS: AtomicU64 = AtomicU64::new(0);
    static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static HELD: RefCell<Vec<&'static LockMeta>> = const { RefCell::new(Vec::new()) };
        static IO_DEPTH: Cell<u32> = const { Cell::new(0) };
    }

    fn mode() -> u8 {
        let m = MODE.load(Ordering::Acquire);
        if m != MODE_UNINIT {
            return m;
        }
        let from_env = std::env::var("DSLOG_SYNC_CHECK")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        let init = if from_env { MODE_PANIC } else { MODE_OFF };
        let _ = MODE.compare_exchange(MODE_UNINIT, init, Ordering::AcqRel, Ordering::Acquire);
        MODE.load(Ordering::Acquire)
    }

    pub fn enabled() -> bool {
        mode() != MODE_OFF
    }

    /// Lock-order graph over `LockMeta` identities (static addresses).
    #[derive(Default)]
    struct Graph {
        edges: HashMap<usize, Vec<usize>>,
        names: HashMap<usize, &'static LockMeta>,
    }

    impl Graph {
        fn key(meta: &'static LockMeta) -> usize {
            meta as *const LockMeta as usize
        }

        fn add_edge(&mut self, from: &'static LockMeta, to: &'static LockMeta) {
            let (f, t) = (Self::key(from), Self::key(to));
            self.names.insert(f, from);
            self.names.insert(t, to);
            let succ = self.edges.entry(f).or_default();
            if !succ.contains(&t) {
                succ.push(t);
            }
        }

        /// Depth-first path from `from` to `to`, if one exists.
        fn find_path(
            &self,
            from: &'static LockMeta,
            to: &'static LockMeta,
        ) -> Option<Vec<&'static LockMeta>> {
            let target = Self::key(to);
            let mut stack = vec![(Self::key(from), vec![Self::key(from)])];
            let mut seen = vec![Self::key(from)];
            while let Some((node, path)) = stack.pop() {
                if let Some(succ) = self.edges.get(&node) {
                    for &next in succ {
                        if next == target {
                            let mut full = path.clone();
                            full.push(next);
                            return Some(
                                full.iter()
                                    .filter_map(|k| self.names.get(k).copied())
                                    .collect(),
                            );
                        }
                        if !seen.contains(&next) {
                            seen.push(next);
                            let mut p = path.clone();
                            p.push(next);
                            stack.push((next, p));
                        }
                    }
                }
            }
            None
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    fn captured() -> &'static Mutex<Vec<Violation>> {
        static CAPTURED: OnceLock<Mutex<Vec<Violation>>> = OnceLock::new();
        CAPTURED.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn report(violations: Vec<Violation>) {
        if violations.is_empty() {
            return;
        }
        VIOLATIONS.fetch_add(violations.len() as u64, Ordering::Relaxed);
        match mode() {
            MODE_CAPTURE => {
                let mut c = captured().lock().unwrap_or_else(|e| e.into_inner());
                c.extend(violations);
            }
            MODE_PANIC => {
                let text: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                panic!("dslog-sync violation: {}", text.join("; "));
            }
            _ => {}
        }
    }

    /// Record an acquisition of `meta`. Returns `true` if bookkeeping was
    /// active (the matching `release` must run on guard drop).
    pub fn acquire(meta: &'static LockMeta) -> bool {
        if !enabled() {
            return false;
        }
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        let mut violations: Vec<Violation> = Vec::new();
        if IO_DEPTH.with(|d| d.get()) > 0 && !meta.io_safe {
            violations.push(Violation {
                kind: "held-across-io",
                message: format!(
                    "acquiring {} (rank {}) inside a file-IO section",
                    meta.name, meta.rank
                ),
            });
        }
        HELD.with(|h| {
            let held = h.borrow();
            for &hm in held.iter() {
                if meta.rank <= hm.rank {
                    violations.push(Violation {
                        kind: "rank-inversion",
                        message: format!(
                            "acquiring {} (rank {}) while holding {} (rank {})",
                            meta.name, meta.rank, hm.name, hm.rank
                        ),
                    });
                }
            }
            if !held.is_empty() {
                let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
                for &hm in held.iter() {
                    g.add_edge(hm, meta);
                }
                for &hm in held.iter() {
                    if let Some(path) = g.find_path(meta, hm) {
                        let mut names: Vec<&str> = vec![hm.name];
                        names.extend(path.iter().map(|m| m.name));
                        violations.push(Violation {
                            kind: "cycle",
                            message: format!("lock-order cycle: {}", names.join(" -> ")),
                        });
                        break;
                    }
                }
            }
        });
        report(violations);
        HELD.with(|h| h.borrow_mut().push(meta));
        true
    }

    /// Undo one `acquire` (called from guard drop).
    pub fn release(meta: &'static LockMeta) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|m| std::ptr::eq(*m, meta)) {
                held.remove(pos);
            }
        });
    }

    /// Enter a file-IO section: no non-`io_safe` lock may be held now or
    /// acquired until the section ends. Returns `true` if bookkeeping was
    /// active.
    pub fn io_enter(what: &str) -> bool {
        if !enabled() {
            return false;
        }
        IO_SECTIONS.fetch_add(1, Ordering::Relaxed);
        let mut violations: Vec<Violation> = Vec::new();
        HELD.with(|h| {
            for &hm in h.borrow().iter() {
                if !hm.io_safe {
                    violations.push(Violation {
                        kind: "held-across-io",
                        message: format!(
                            "{} (rank {}) held across file IO ({what})",
                            hm.name, hm.rank
                        ),
                    });
                }
            }
        });
        report(violations);
        IO_DEPTH.with(|d| d.set(d.get() + 1));
        true
    }

    pub fn io_exit() {
        IO_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }

    pub fn stats() -> Stats {
        Stats {
            acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
            io_sections: IO_SECTIONS.load(Ordering::Relaxed),
            violations: VIOLATIONS.load(Ordering::Relaxed),
        }
    }

    /// Run `f` with violation capture on, returning its result plus every
    /// violation recorded anywhere in the process during the window.
    /// Sessions are serialized on a global mutex so concurrent tests do not
    /// steal each other's reports.
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
        static SESSION: Mutex<()> = Mutex::new(());
        let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        let prev = mode();
        captured().lock().unwrap_or_else(|e| e.into_inner()).clear();
        MODE.store(MODE_CAPTURE, Ordering::Release);
        let out = f();
        MODE.store(prev, Ordering::Release);
        let violations = std::mem::take(&mut *captured().lock().unwrap_or_else(|e| e.into_inner()));
        (out, violations)
    }
}

/// Whether runtime checking is currently active. Always `false` in release
/// builds.
pub fn checking_enabled() -> bool {
    #[cfg(debug_assertions)]
    {
        check::enabled()
    }
    #[cfg(not(debug_assertions))]
    {
        false
    }
}

/// Counters accumulated while checking was enabled (zeros otherwise).
pub fn stats() -> Stats {
    #[cfg(debug_assertions)]
    {
        check::stats()
    }
    #[cfg(not(debug_assertions))]
    {
        Stats::default()
    }
}

/// Run `f` with violation capture enabled and return the violations it
/// produced. In release builds checking is compiled out, so the violation
/// list is always empty; tests that assert on captured violations must be
/// gated on `cfg(debug_assertions)`.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    #[cfg(debug_assertions)]
    {
        check::capture(f)
    }
    #[cfg(not(debug_assertions))]
    {
        (f(), Vec::new())
    }
}

/// Guard token tracking one held lock (zero-sized in release builds).
struct HeldToken {
    #[cfg(debug_assertions)]
    active: bool,
    #[cfg(debug_assertions)]
    meta: &'static LockMeta,
}

#[cfg(debug_assertions)]
impl HeldToken {
    #[inline]
    fn acquire(meta: &'static LockMeta) -> Self {
        HeldToken {
            active: check::acquire(meta),
            meta,
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldToken {
    fn drop(&mut self) {
        if self.active {
            check::release(self.meta);
        }
    }
}

/// Marker for a file-IO section entered via [`io_guard`].
///
/// While alive (debug builds, checking on), acquiring any non-`io_safe` lock
/// on this thread is reported as a held-across-io violation.
pub struct IoSection {
    #[cfg(debug_assertions)]
    active: bool,
}

#[cfg(debug_assertions)]
impl Drop for IoSection {
    fn drop(&mut self) {
        if self.active {
            check::io_exit();
        }
    }
}

/// Assert that no instrumented non-`io_safe` lock is held while the returned
/// section token is alive. Call at the top of every function that performs
/// commit file IO (`persist::write_atomic`, `persist::sync_dir`, ...).
#[inline]
pub fn io_guard(what: &str) -> IoSection {
    #[cfg(not(debug_assertions))]
    let _ = what;
    IoSection {
        #[cfg(debug_assertions)]
        active: check::io_enter(what),
    }
}

/// A named, ranked mutual-exclusion lock (see crate docs).
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    meta: &'static LockMeta,
    inner: parking_lot::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Field order matters: the physical lock is released before the
    // held-stack bookkeeping pops.
    inner: parking_lot::MutexGuard<'a, T>,
    token: HeldToken,
}

impl<T> Mutex<T> {
    pub fn new(meta: &'static LockMeta, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = meta;
        Mutex {
            #[cfg(debug_assertions)]
            meta,
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.meta);
        #[cfg(not(debug_assertions))]
        let token = HeldToken {};
        MutexGuard {
            inner: self.inner.lock(),
            token,
        }
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.meta);
        #[cfg(not(debug_assertions))]
        let token = HeldToken {};
        Some(MutexGuard { inner, token })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A named, ranked reader-writer lock (see crate docs).
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    meta: &'static LockMeta,
    inner: parking_lot::RwLock<T>,
}

/// Shared-read RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    #[allow(dead_code)]
    token: HeldToken,
}

/// Exclusive-write RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    #[allow(dead_code)]
    token: HeldToken,
}

impl<T> RwLock<T> {
    pub fn new(meta: &'static LockMeta, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = meta;
        RwLock {
            #[cfg(debug_assertions)]
            meta,
            inner: parking_lot::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.meta);
        #[cfg(not(debug_assertions))]
        let token = HeldToken {};
        RwLockReadGuard {
            inner: self.inner.read(),
            token,
        }
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.meta);
        #[cfg(not(debug_assertions))]
        let token = HeldToken {};
        RwLockWriteGuard {
            inner: self.inner.write(),
            token,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with [`Mutex`].
///
/// The held-lock bookkeeping deliberately keeps the mutex on the held stack
/// while waiting: from the invariant's point of view the waiter still owns
/// the critical section it will resume.
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(parking_lot::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, token } = guard;
        MutexGuard {
            inner: self.0.wait(inner),
            token,
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let MutexGuard { inner, token } = guard;
        let (inner, timed_out) = self.0.wait_timeout(inner, dur);
        (MutexGuard { inner, token }, timed_out)
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    static LOCK_A: LockMeta = LockMeta::new("test.a", 100);
    static LOCK_B: LockMeta = LockMeta::new("test.b", 110);
    static LOCK_SAFE: LockMeta = LockMeta::io_safe("test.io_safe", 105);
    // The lock-order graph is global and outlives capture sessions, so the
    // clean-path test uses metas no other test pollutes with reverse edges.
    static LOCK_C: LockMeta = LockMeta::new("test.c", 120);
    static LOCK_D: LockMeta = LockMeta::new("test.d", 130);

    #[test]
    fn in_order_acquisition_is_clean() {
        let a = Mutex::new(&LOCK_C, 1);
        let b = Mutex::new(&LOCK_D, 2);
        let (_, violations) = capture(|| {
            let ga = a.lock();
            let gb = b.lock();
            *ga + *gb
        });
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn ab_ba_cycle_names_both_locks() {
        let a = Mutex::new(&LOCK_A, ());
        let b = Mutex::new(&LOCK_B, ());
        let (_, violations) = capture(|| {
            {
                let _ga = a.lock();
                let _gb = b.lock(); // edge a -> b, ranks increasing: fine
            }
            {
                let _gb = b.lock();
                let _ga = a.lock(); // edge b -> a: rank inversion AND cycle
            }
        });
        let inversion = violations.iter().find(|v| v.kind == "rank-inversion");
        assert!(
            inversion.is_some(),
            "expected rank inversion, got {violations:?}"
        );
        let cycle = violations
            .iter()
            .find(|v| v.kind == "cycle")
            .unwrap_or_else(|| panic!("expected a cycle report, got {violations:?}"));
        assert!(
            cycle.message.contains("test.a") && cycle.message.contains("test.b"),
            "cycle report must name both locks: {}",
            cycle.message
        );
    }

    #[test]
    fn io_guard_flags_held_lock() {
        let a = Mutex::new(&LOCK_A, ());
        let (_, violations) = capture(|| {
            let _ga = a.lock();
            let _io = io_guard("test-io");
        });
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind, "held-across-io");
        assert!(violations[0].message.contains("test.a"));
    }

    #[test]
    fn io_guard_allows_io_safe_locks() {
        let safe = Mutex::new(&LOCK_SAFE, ());
        let (_, violations) = capture(|| {
            let _g = safe.lock();
            let _io = io_guard("test-io");
        });
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn acquiring_inside_io_section_is_flagged() {
        let b = Mutex::new(&LOCK_B, ());
        let (_, violations) = capture(|| {
            let _io = io_guard("test-io");
            let _gb = b.lock();
        });
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind, "held-across-io");
    }

    #[test]
    fn rwlock_and_condvar_roundtrip() {
        let l = RwLock::new(&LOCK_A, vec![1, 2]);
        let (_, violations) = capture(|| {
            assert_eq!(l.read().len(), 2);
            l.write().push(3);
            assert_eq!(*l.read(), vec![1, 2, 3]);

            let m = Mutex::new(&LOCK_B, false);
            let cv = Condvar::new();
            let g = m.lock();
            let (g, timed_out) = cv.wait_timeout(g, std::time::Duration::from_millis(1));
            assert!(timed_out);
            drop(g);
        });
        assert_eq!(violations, Vec::new());
        assert!(stats().acquisitions > 0);
    }

    #[test]
    fn release_build_semantics_when_disabled() {
        // With checking off (the default when DSLOG_SYNC_CHECK is unset and
        // no capture session is active), out-of-order acquisition must not
        // panic: the wrappers are pure passthroughs.
        if checking_enabled() {
            return; // running under DSLOG_SYNC_CHECK=1; covered elsewhere
        }
        let a = Mutex::new(&LOCK_A, ());
        let b = Mutex::new(&LOCK_B, ());
        let _gb = b.lock();
        let _ga = a.lock();
    }
}
