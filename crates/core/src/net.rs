//! Dependency-free TCP serving of a [`DslogService`].
//!
//! [`NetServer::spawn`] binds a [`std::net::TcpListener`] and serves the
//! `serve` command set (`define` / `ingest` / `query` / `commit` /
//! `stats` / `history` / `quit`, plus `shutdown`) to many concurrent clients over a
//! line protocol: one request per line, one JSON object per response line
//! (the crates registry is unreachable in the target environment, so both
//! the protocol framing and the JSON emitter are vendored here — they are
//! a few dozen lines each). [`execute`] is the protocol's one interpreter:
//! `dslog serve --script FILE` (and its stdin mode) feeds it lines too.
//!
//! ## Protocol
//!
//! Requests are whitespace-separated words; responses are single-line
//! JSON, `{"ok":true,...}` on success and `{"ok":false,"error":"..."}` on
//! failure (a failed command leaves the session open — only transport
//! problems close it):
//!
//! | request                         | success payload |
//! |---------------------------------|-----------------|
//! | `define NAME:3x2`               | `{"ok":true,"defined":"NAME","shape":[3,2]}` |
//! | `ingest IN OUT 0,0;1,2`         | `{"ok":true,"edges":1,"rows":2,"pending_edges":n}` (+ `"auto_commit"`) |
//! | `query B,A 1;2`                 | `{"ok":true,"hops":1,"cells":n,"boxes":[[[lo,hi],...],...]}` |
//! | `query B,A 1;2 stats`           | same, plus a trailing `"stats"` object (see below) |
//! | `query_batch B,A 1;2\|3`        | `{"ok":true,"hops":1,"results":[{"cells":n,"boxes":[...]},...]}` |
//! | `query_batch B,A 1\|2 stats`    | same, plus a trailing `"stats"` object |
//! | `commit`                        | `{"ok":true,"generation":g,"incremental":b,"files_written":w,"files_reused":r,"bytes_written":n}` |
//! | `stats`                         | `{"ok":true,"arrays":..,"edges":..,"failed_commits":..,"epoch":..,...}` |
//! | `history`                       | `{"ok":true,"records":n,"log":[{"op":1,"actor":"...","kind":"...",...},...]}` |
//! | `quit`                          | `{"ok":true,"closing":"session"}`, then closes the connection |
//! | `shutdown`                      | `{"ok":true,"closing":"server"}`, then stops the whole server |
//!
//! `ingest` rows are inline (`;`-separated rows of `,`-separated indices,
//! output attributes first — the same row layout as the CSV format):
//! network clients must not depend on paths in the server's filesystem.
//! `query_batch` takes `|`-separated queries, each a `query` cell spec;
//! the whole batch runs as one deduplicated sweep against one snapshot
//! (see [`DslogService::query_batch`]), and `results` come back in
//! request order.
//!
//! The optional trailing `stats` word asks for per-query execution
//! statistics: `"stats":{"rows_probed":n,"rows_matched":n,"plan":"...",
//! "hops":[{"probed":n,"matched":n,"boxes":n},..]}`.
//! `plan` is the planner decision label: `path_order` or `composite`.
//! Responses without the `stats` word are byte-identical to the previous
//! protocol version.
//!
//! ## Admission control and backpressure
//!
//! The server runs a **bounded worker pool** ([`ServeOptions::workers`]
//! threads); each worker owns one session at a time. Accepted connections
//! beyond the pool wait in a **bounded queue**
//! ([`ServeOptions::queue_depth`]); past that, new connections are turned
//! away immediately with `{"ok":false,"error":"server busy..."}` instead
//! of piling up. Per-session limits keep one misbehaving client from
//! starving the rest:
//!
//! - request lines are capped at [`ServeOptions::max_line_bytes`] (the
//!   newline not counted) — an oversized frame gets one error response
//!   and the connection is closed (the byte-budget discipline of the
//!   persistence layer's hostile-input handling, applied to the wire);
//! - a response write may block for at most 10 s — a reader that stops
//!   draining its socket is disconnected, not buffered for;
//! - reads poll every 200 ms so sessions notice server shutdown
//!   promptly, idle or halfway through a frame. A session is never closed
//!   just for being idle.
//!
//! ## Framing and writes
//!
//! Each response line is rendered straight into one per-session buffer.
//! A session answers every complete request already in its read buffer,
//! then writes the answers with one `write_all`: one write per wake-up,
//! not one per request. **The session never blocks on a read while it
//! owes the client a response**, so a lone request is answered as soon
//! as it has run and a partly received frame never delays the answers
//! before it. The buffer is also written once it passes 64 KiB, and keeps
//! at most that capacity after a write. Every way a session ends (EOF,
//! server stop, `quit`, `shutdown`, a transport error, an oversized
//! frame, whose error line follows the answers before it) writes what it
//! owes first.
//!
//! Queries inherit the service's epoch-snapshot guarantee: N sessions
//! querying while others ingest and commit never block each other on the
//! storage layer (see [`crate::service`] module docs).
//!
//! ```no_run
//! use dslog::net::{NetServer, ServeOptions};
//! use dslog::service::{AutoCommitPolicy, DslogService};
//! use std::sync::Arc;
//!
//! let service = Arc::new(DslogService::new(
//!     dslog::api::Dslog::new(),
//!     AutoCommitPolicy::manual(),
//! ));
//! let server = NetServer::spawn(
//!     Arc::clone(&service),
//!     "127.0.0.1:0", // OS-assigned port; see `server.local_addr()`
//!     ServeOptions::default(),
//! )
//! .unwrap();
//! println!("listening on {}", server.local_addr());
//! server.join(); // blocks until a client sends `shutdown`
//! ```

use crate::api::QueryResult;
use crate::error::Result;
use crate::query::QueryStats;
use crate::service::{BatchReport, DslogService, IngestJob, ServiceStats};
use crate::storage::persist::CommitReport;
use crate::table::LineageTable;
use dslog_sync::{ranks, Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sizing and backpressure knobs for [`NetServer::spawn`]. The defaults
/// suit a small interactive deployment; benchmarks and tests scale
/// `workers` to the offered concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads == sessions served concurrently.
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker before new
    /// arrivals are rejected as busy. Total admitted connections are
    /// therefore bounded by `workers + queue_depth`.
    pub queue_depth: usize,
    /// Hard cap on one request line, its newline not counted: a line of
    /// exactly `max_line_bytes` bytes is served. Oversized frames get one
    /// error response and the connection is closed.
    pub max_line_bytes: usize,
}

/// How long a response write may block on a slow reader before the
/// session is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket read timeout: idle sessions wake this often to check for server
/// shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_depth: 16,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Counters for one server's lifetime, all monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections handed to a worker (served to completion or still live).
    pub accepted: u64,
    /// Connections turned away because `workers + queue_depth` were in use.
    pub rejected_busy: u64,
    /// Request lines that exceeded `max_line_bytes`.
    pub oversized_frames: u64,
    /// Requests answered (ok or error), across all sessions.
    pub requests: u64,
}

struct NetShared {
    service: Arc<DslogService>,
    opts: ServeOptions,
    /// Accepted-but-unclaimed sockets; bounded by `opts.queue_depth`
    /// (admission control happens in the acceptor, not here). Rank
    /// `net.queue` (5) — never co-held with any service lock: the guard
    /// is dropped before `serve_session` runs.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Sessions currently inside a worker. Written under `queue`'s lock
    /// (claim) so the acceptor's admission check sees a consistent
    /// queued+busy total; the end-of-session decrement is lock-free.
    busy: AtomicU64,
    stop: AtomicBool,
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    oversized_frames: AtomicU64,
    requests: AtomicU64,
}

impl NetShared {
    fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            oversized_frames: self.oversized_frames.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }
}

/// A running TCP front-end over a shared [`DslogService`]. Dropping the
/// handle (or calling [`join`](NetServer::join) after a client's
/// `shutdown`) stops the acceptor and all workers; the service itself is
/// NOT shut down — the owner decides when to run the final commit via
/// [`DslogService::shutdown`].
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7171"`, or port `0` for an
    /// OS-assigned port) and start the acceptor + worker pool.
    pub fn spawn(
        service: Arc<DslogService>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| crate::error::DslogError::io("bind listener", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| crate::error::DslogError::io("resolve bound address", e))?;
        let shared = Arc::new(NetShared {
            service,
            opts,
            queue: Mutex::new(&ranks::NET_QUEUE, VecDeque::new()),
            queue_cv: Condvar::new(),
            busy: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            oversized_frames: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        // Sanctioned worker pool (see lint-allow.txt): every handle is
        // joined by NetServer::join/Drop. A failed spawn (thread limit,
        // OOM) aborts startup cleanly — already-started workers see the
        // stop flag and exit.
        let mut workers = Vec::with_capacity(opts.workers.max(1));
        for i in 0..opts.workers.max(1) {
            let shared_for_worker = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("dslog-net-worker-{i}"))
                .spawn(move || worker_loop(&shared_for_worker));
            match handle {
                Ok(h) => workers.push(h),
                Err(e) => {
                    stop_workers(&shared, &mut workers);
                    return Err(crate::error::DslogError::io("spawn worker thread", e));
                }
            }
        }
        let acceptor = {
            let shared_for_acceptor = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("dslog-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared_for_acceptor));
            match handle {
                Ok(h) => h,
                Err(e) => {
                    stop_workers(&shared, &mut workers);
                    return Err(crate::error::DslogError::io("spawn acceptor thread", e));
                }
            }
        };
        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Ask the server to stop, without waiting for the threads.
    pub fn stop(&self) {
        request_stop(&self.shared, self.local_addr);
    }

    /// Block until the server stops — a client sends `shutdown`, or
    /// another thread calls [`stop`](NetServer::stop) — then join every
    /// thread and return the lifetime stats. Sessions already admitted
    /// are served to their next poll tick; queued-but-unclaimed sockets
    /// are closed unserved.
    pub fn join(mut self) -> NetStats {
        self.join_threads();
        self.shared.stats()
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
        self.join_threads();
    }
}

/// Abort a partially-started pool: flip the stop flag, wake everyone,
/// and join the workers that did start.
fn stop_workers(shared: &NetShared, workers: &mut Vec<std::thread::JoinHandle<()>>) {
    shared.stop.store(true, Ordering::Release);
    shared.queue_cv.notify_all();
    for worker in workers.drain(..) {
        let _ = worker.join();
    }
}

/// Flip the stop flag and unblock everyone: workers via the condvar,
/// the acceptor via a throwaway self-connection (blocking `accept` has
/// no portable cancellation — a dead-end connect is the std-only way to
/// wake it).
fn request_stop(shared: &NetShared, addr: SocketAddr) {
    if shared.stop.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.queue_cv.notify_all();
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn accept_loop(listener: &TcpListener, shared: &NetShared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stop.load(Ordering::Acquire) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::Acquire) {
            break; // the wake-up self-connection lands here
        }
        // Admission control: waiting + in-flight sessions together are
        // bounded by `workers + queue_depth`; everything past that is
        // turned away now rather than left to pile up.
        let cap = shared.opts.workers.max(1) + shared.opts.queue_depth;
        let mut queue = shared.queue.lock();
        if queue.len() as u64 + shared.busy.load(Ordering::Acquire) >= cap as u64 {
            drop(queue);
            shared.rejected_busy.fetch_add(1, Ordering::Relaxed);
            reject_busy(stream);
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.queue_cv.notify_one();
    }
    // Unserved queue entries are closed by the drop below.
    shared.queue.lock().clear();
    shared.queue_cv.notify_all();
}

/// Best-effort busy response on a connection that was never admitted.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(
        b"{\"ok\":false,\"error\":\"server busy: connection limit reached, retry later\"}\n",
    );
}

fn worker_loop(shared: &NetShared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(stream) = queue.pop_front() {
                    shared.busy.fetch_add(1, Ordering::Release);
                    break stream;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.queue_cv.wait(queue);
            }
        };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = serve_session(stream, shared);
        shared.busy.fetch_sub(1, Ordering::Release);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// What one request did, as [`execute`] tells its caller. The response
/// line it appended says the same thing to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered `{"ok":true,...}`.
    Done,
    /// Answered `{"ok":false,"error":...}`. A session goes on; a script
    /// stops here.
    Failed,
    /// `quit` / `exit`: answered, and the stream of requests ends.
    CloseSession,
    /// `shutdown`: answered, the stream ends, and a server stops.
    StopServer,
}

/// Response bytes a session holds before it writes them even with more
/// requests buffered, and the buffer capacity it keeps after a write.
///
/// One response is still rendered whole before any of it is written.
/// Streaming it through a `BufWriter` would bound that too, but every
/// renderer would then return socket errors to keep apart from service
/// errors, and `BufWriter`'s drop retries a write that timed out, holding
/// a stalled reader for a second [`WRITE_TIMEOUT`].
const FLUSH_BYTES: usize = 64 << 10;

/// Drive one client connection to completion: read request lines (capped,
/// polled), execute, answer one JSON line each. Returns on EOF, `quit`,
/// `shutdown`, transport errors, or server stop, each time after writing
/// the answers the session still owes.
fn serve_session(stream: TcpStream, shared: &NetShared) -> std::io::Result<()> {
    // Operation-log attribution for this session's mutating commands.
    let actor = stream
        .peer_addr()
        .map_or_else(|_| "net".to_string(), |a| format!("net:{a}"));
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // Nagle stays off: the session coalesces its answers itself, and Nagle
    // would hold each write back until the client acknowledged the last.
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let (mut line, mut out) = (Vec::new(), String::new());
    let ended = loop {
        // The session never blocks on a read while it owes the client a
        // response: unless a complete request is already buffered (so the
        // read below returns without waiting), the answers go out first.
        if !reader.buffer().contains(&b'\n') || out.len() >= FLUSH_BYTES {
            flush(&mut writer, &mut out)?;
        }
        match read_line_bounded(&mut reader, shared.opts.max_line_bytes, &mut line) {
            Ok(LineRead::Eof) => break Ok(Outcome::CloseSession),
            Ok(LineRead::TimedOut) if shared.stop.load(Ordering::Acquire) => {
                break Ok(Outcome::CloseSession)
            }
            // A poll tick, perhaps mid-frame: `line` keeps what has arrived.
            Ok(LineRead::TimedOut) => continue,
            Ok(LineRead::TooLong) => {
                shared.oversized_frames.fetch_add(1, Ordering::Relaxed);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let cap = shared.opts.max_line_bytes;
                let msg = format!("request line exceeds {cap} bytes; closing connection");
                json_err(&mut out, &msg);
                break Ok(Outcome::CloseSession); // cannot resync mid-frame
            }
            Ok(LineRead::Line) => {}
            Err(e) => break Err(e),
        }
        let outcome = match String::from_utf8_lossy(&line).trim() {
            text if text.is_empty() || text.starts_with('#') => Outcome::Done,
            text => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                execute(&shared.service, text, &actor, &mut out)
            }
        };
        line.clear();
        if let ended @ (Outcome::CloseSession | Outcome::StopServer) = outcome {
            break Ok(ended);
        }
    };
    let flushed = flush(&mut writer, &mut out);
    if let Ok(Outcome::StopServer) = ended {
        request_stop(shared, writer.local_addr()?);
    }
    flushed.and(ended.map(|_| ()))
}

/// Write all of `out` with one `write_all` and empty it, keeping at most
/// [`FLUSH_BYTES`] of capacity.
fn flush(writer: &mut TcpStream, out: &mut String) -> std::io::Result<()> {
    let written = writer.write_all(out.as_bytes());
    out.clear();
    out.shrink_to(FLUSH_BYTES);
    written
}

enum LineRead {
    Line,
    Eof,
    TooLong,
    TimedOut,
}

/// Read one `\n`-terminated line into `buf`, never retaining more than
/// `max` bytes (the newline not counted). A frame that hits the cap
/// reports [`LineRead::TooLong`] without waiting for its newline (the
/// overflow is left unread — the caller closes the connection). A read
/// timeout is a poll tick even mid-line: `buf` keeps the bytes read, so
/// the next call continues the line and the caller still sees stop.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(LineRead::TimedOut);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line // unterminated final line
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(LineRead::Line);
            }
            None => {
                let take = chunk.len();
                if buf.len() + take > max {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(chunk);
                reader.consume(take);
            }
        }
    }
}

/// The one interpreter of the command language: execute one request line
/// (see the module docs; no blank or `#` line) against the service and
/// append its response line (success or error JSON, `'\n'` included) to
/// `out`; a command appends nothing until it can no longer fail. A TCP
/// session and `dslog serve`'s script and stdin modes all answer through
/// here, so their replies are the same bytes. A mutating command is logged
/// under `actor` — this request's, whatever other sessions are doing
/// meanwhile.
pub fn execute(service: &DslogService, line: &str, actor: &str, out: &mut String) -> Outcome {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    let done = match (cmd, args.as_slice()) {
        ("define", [spec]) => cmd_define(out, service, spec, actor),
        ("ingest", [in_name, out_name, rows]) => {
            cmd_ingest(out, service, in_name, out_name, rows, actor)
        }
        ("query", [path, cells]) => cmd_query(out, service, path, cells, false),
        ("query", [path, cells, "stats"]) => cmd_query(out, service, path, cells, true),
        ("query_batch", [path, queries]) => cmd_query_batch(out, service, path, queries, false),
        ("query_batch", [path, queries, "stats"]) => {
            cmd_query_batch(out, service, path, queries, true)
        }
        ("commit", []) => service
            .commit_as(Some(actor))
            .map(|report| render_commit(out, &report))
            .map_err(|e| e.to_string()),
        ("stats", []) => {
            render_stats(out, &service.stats());
            Ok(())
        }
        ("history", []) => cmd_history(out, service),
        ("quit" | "exit", []) => {
            out.push_str("{\"ok\":true,\"closing\":\"session\"}\n");
            return Outcome::CloseSession;
        }
        ("shutdown", []) => {
            out.push_str("{\"ok\":true,\"closing\":\"server\"}\n");
            return Outcome::StopServer;
        }
        _ => Err(format!(
            "bad request `{line}`; expected define/ingest/query/query_batch/commit/stats/history/quit/shutdown"
        )),
    };
    let Err(e) = done else {
        out.push('\n');
        return Outcome::Done;
    };
    json_err(out, &e);
    Outcome::Failed
}

fn cmd_define(
    out: &mut String,
    service: &DslogService,
    spec: &str,
    actor: &str,
) -> std::result::Result<(), String> {
    let (name, shape) = parse_array_spec(spec)?;
    service
        .define_array_as(&name, &shape, Some(actor))
        .map_err(|e| e.to_string())?;
    let _ = write!(
        out,
        "{{\"ok\":true,\"defined\":{},\"shape\":",
        JsonStr(&name)
    );
    push_list(out, &shape, |out, d| {
        let _ = write!(out, "{d}");
    });
    out.push('}');
    Ok(())
}

fn cmd_ingest(
    out: &mut String,
    service: &DslogService,
    in_name: &str,
    out_name: &str,
    rows: &str,
    actor: &str,
) -> std::result::Result<(), String> {
    let (in_shape, out_shape) = service
        .with_db(|db| {
            Ok::<_, crate::error::DslogError>((
                db.storage().array(in_name)?.shape.clone(),
                db.storage().array(out_name)?.shape.clone(),
            ))
        })
        .map_err(|e| e.to_string())?;
    let table = parse_inline_rows(rows, out_shape.len(), in_shape.len())?;
    let report = service
        .ingest_batch_as(vec![IngestJob::new(in_name, out_name, table)], Some(actor))
        .map_err(|e| e.to_string())?;
    render_batch(out, &report);
    Ok(())
}

fn cmd_query(
    out: &mut String,
    service: &DslogService,
    path_spec: &str,
    cells_spec: &str,
    with_stats: bool,
) -> std::result::Result<(), String> {
    let path: Vec<&str> = path_spec.split(',').map(str::trim).collect();
    let cells = parse_cells(cells_spec)?;
    if cells.is_empty() {
        return Err("no query cells given".to_string());
    }
    let result = service.query(&path, &cells).map_err(|e| e.to_string())?;
    let _ = write!(
        out,
        "{{\"ok\":true,\"hops\":{},\"cells\":{},\"boxes\":",
        result.hops,
        result.cells.volume()
    );
    render_boxes(out, &result);
    if with_stats {
        out.push_str(",\"stats\":");
        render_query_stats(out, &result.stats);
    }
    out.push('}');
    Ok(())
}

fn cmd_query_batch(
    out: &mut String,
    service: &DslogService,
    path_spec: &str,
    queries_spec: &str,
    with_stats: bool,
) -> std::result::Result<(), String> {
    let path: Vec<&str> = path_spec.split(',').map(str::trim).collect();
    let mut queries = Vec::new();
    for spec in queries_spec.split('|') {
        let cells = parse_cells(spec)?;
        if cells.is_empty() {
            return Err("empty query in batch".to_string());
        }
        queries.push(cells);
    }
    if queries.is_empty() {
        return Err("no queries given".to_string());
    }
    let results = service
        .query_batch(&path, &queries)
        .map_err(|e| e.to_string())?;
    // All batch members share one sweep, so hops/stats are batch-wide.
    let hops = results.first().map_or(0, |r| r.hops);
    let _ = write!(out, "{{\"ok\":true,\"hops\":{hops},\"results\":");
    push_list(out, &results, |out, result| {
        let _ = write!(out, "{{\"cells\":{},\"boxes\":", result.cells.volume());
        render_boxes(out, result);
        out.push('}');
    });
    if with_stats {
        out.push_str(",\"stats\":");
        render_query_stats(
            out,
            results.first().map_or(&QueryStats::default(), |r| &r.stats),
        );
    }
    out.push('}');
    Ok(())
}

/// Append `[[[lo,hi],...],...]` for the result's box set.
fn render_boxes(out: &mut String, result: &QueryResult) {
    push_list(out, result.cells.boxes(), |out, b| {
        push_list(out, b, |out, ivl| {
            let _ = write!(out, "[{},{}]", ivl.lo, ivl.hi);
        });
    });
}

/// The `"stats"` object for `query ... stats` / `query_batch ... stats`.
fn render_query_stats(out: &mut String, stats: &QueryStats) {
    // Every query the service runs is planned; `null` marks stats that
    // were not.
    let plan = stats.plan.as_ref().map(|p| JsonStr(p.decision.label()));
    let _ = write!(
        out,
        "{{\"rows_probed\":{},\"rows_matched\":{},\"plan\":{},\"hops\":",
        stats.hops.iter().map(|h| h.rows_probed).sum::<usize>(),
        stats.hops.iter().map(|h| h.rows_matched).sum::<usize>(),
        or_null(&plan),
    );
    push_list(out, &stats.hops, |out, h| {
        let _ = write!(
            out,
            "{{\"probed\":{},\"matched\":{},\"boxes\":{}}}",
            h.rows_probed, h.rows_matched, h.boxes_emitted
        );
    });
    out.push('}');
}

/// The bound directory's operation log, oldest record first.
fn cmd_history(out: &mut String, service: &DslogService) -> std::result::Result<(), String> {
    let records = service.history().map_err(|e| e.to_string())?;
    let _ = write!(out, "{{\"ok\":true,\"records\":{},\"log\":", records.len());
    push_list(out, &records, |out, r| {
        let _ = write!(
            out,
            "{{\"op\":{},\"timestamp_ms\":{},\"actor\":{},\"kind\":{},\"detail\":{},\
             \"gen_before\":{},\"gen_after\":{}}}",
            r.op_id,
            r.timestamp_ms,
            JsonStr(&r.actor),
            JsonStr(r.kind.name()),
            JsonStr(&r.kind.describe()),
            r.gen_before,
            r.gen_after
        );
    });
    out.push('}');
    Ok(())
}

fn render_commit(out: &mut String, report: &CommitReport) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"generation\":{},\"incremental\":{},\"files_written\":{},\
         \"files_reused\":{},\"bytes_written\":{}}}",
        report.generation,
        report.incremental,
        report.files_written,
        report.files_reused,
        report.bytes_written
    );
}

fn render_batch(out: &mut String, report: &BatchReport) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"edges\":{},\"rows\":{},\"pending_edges\":{}",
        report.edges, report.rows, report.pending_edges
    );
    match &report.auto_commit {
        Some(Ok(commit)) => {
            out.push_str(",\"auto_commit\":");
            render_commit(out, commit);
        }
        Some(Err(e)) => {
            out.push_str(",\"auto_commit\":{\"ok\":false,\"error\":");
            let _ = write!(out, "{}}}", JsonStr(&e.to_string()));
        }
        None => {}
    }
    out.push('}');
}

fn render_stats(out: &mut String, s: &ServiceStats) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"arrays\":{},\"edges\":{},\"pending_edges\":{},\"edges_ingested\":{},\
         \"queries\":{},\"commits\":{},\"auto_commits\":{},\"failed_commits\":{},\
         \"last_commit_error\":{},\"epoch\":{},\"generation\":{},\"compactions\":{},\
         \"config\":",
        s.arrays,
        s.edges,
        s.pending_edges,
        s.edges_ingested,
        s.queries,
        s.commits,
        s.auto_commits,
        s.failed_commits,
        or_null(&s.last_commit_error.as_deref().map(JsonStr)),
        s.epoch,
        or_null(&s.generation),
        s.compactions,
    );
    render_config(out, &s.config);
    out.push('}');
}

/// The effective served-database configuration as a JSON object (the
/// `"config"` field of a `stats` response).
fn render_config(out: &mut String, c: &crate::api::DslogConfig) {
    let _ = write!(
        out,
        "{{\"lazy\":{},\"as_of\":{},\"gzip\":{},\
         \"wal_actor\":{},\"wal_retention\":{},\
         \"auto_compact_generations\":{}}}",
        c.lazy,
        or_null(&c.as_of),
        or_null(&c.gzip),
        JsonStr(&c.wal_actor),
        c.wal_retention,
        or_null(&c.maintenance.auto_compact_generations)
    );
}

/// Append `[a,b,...]`, each item rendered by `push`.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// `v` as a JSON value, `null` when absent.
fn or_null<T: std::fmt::Display>(v: &Option<T>) -> &dyn std::fmt::Display {
    match v {
        Some(v) => v,
        None => &"null",
    }
}

/// Append the `{"ok":false,"error":...}` response line, `'\n'` included,
/// with the message JSON-escaped.
fn json_err(out: &mut String, message: &str) {
    let _ = writeln!(out, "{{\"ok\":false,\"error\":{}}}", JsonStr(message));
}

/// Minimal JSON string encoder (quotes, backslash, control chars): writes
/// straight into whatever `write!` formats into.
struct JsonStr<'a>(&'a str);

impl std::fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// `NAME:3x2` → `("NAME", [3, 2])`. Scalar arrays use `NAME:1`. The one
/// array-spec parser: the wire protocol and the CLI's flags share it.
pub fn parse_array_spec(spec: &str) -> std::result::Result<(String, Vec<usize>), String> {
    let (name, dims) = spec
        .split_once(':')
        .ok_or_else(|| format!("array spec `{spec}` must be NAME:3x2"))?;
    if name.is_empty() {
        return Err(format!("array spec `{spec}` has an empty name"));
    }
    let shape = dims
        .split('x')
        .map(|d| {
            d.parse::<usize>()
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| format!("bad dimension `{d}` in array spec `{spec}`"))
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok((name.to_string(), shape))
}

/// `1;2,3` → `[[1], [2, 3]]` (rows of `,`-separated indices; arity is
/// checked by the query layer). Shared with the CLI like
/// [`parse_array_spec`].
pub fn parse_cells(spec: &str) -> std::result::Result<Vec<Vec<i64>>, String> {
    spec.split(';')
        .filter(|cell| !cell.trim().is_empty())
        .map(|cell| {
            cell.split(',')
                .map(|v| {
                    v.trim()
                        .parse::<i64>()
                        .map_err(|_| format!("bad index `{}` in `{spec}`", v.trim()))
                })
                .collect()
        })
        .collect()
}

/// Inline lineage rows: `;`-separated rows of `,`-separated indices,
/// output attributes first then input attributes (the CSV row layout).
fn parse_inline_rows(
    spec: &str,
    out_arity: usize,
    in_arity: usize,
) -> std::result::Result<LineageTable, String> {
    let rows = parse_cells(spec)?;
    if rows.is_empty() {
        return Err("ingest needs at least one row".to_string());
    }
    let mut table = LineageTable::new(out_arity, in_arity);
    for row in &rows {
        if row.len() != out_arity + in_arity {
            return Err(format!(
                "row has {} values; edge needs {} output + {} input indices",
                row.len(),
                out_arity,
                in_arity
            ));
        }
        table.push_row(row);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Dslog;
    use crate::service::AutoCommitPolicy;

    fn spawn_test_server(opts: ServeOptions) -> (Arc<DslogService>, NetServer) {
        let mut db = Dslog::new();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
        let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0", opts).unwrap();
        (service, server)
    }

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        (BufReader::new(stream), writer)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &str) -> String {
        // One write: a server that closes on an oversized frame must not
        // find its newline still unread (the close would be a reset).
        writer.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    #[test]
    fn session_roundtrip_and_shutdown() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        assert_eq!(
            roundtrip(&mut reader, &mut writer, "define C:8"),
            "{\"ok\":true,\"defined\":\"C\",\"shape\":[8]}"
        );
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2;2,3");
        assert!(
            resp.contains("\"ok\":true") && resp.contains("\"rows\":3"),
            "{resp}"
        );
        let resp = roundtrip(&mut reader, &mut writer, "query B,A 1");
        assert!(resp.contains("\"boxes\":[[[2,2]]]"), "{resp}");
        // Errors keep the session alive.
        let resp = roundtrip(&mut reader, &mut writer, "query NOPE,A 1");
        assert!(resp.starts_with("{\"ok\":false"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        assert!(resp.contains("\"edges\":1"), "{resp}");
        // The effective configuration rides along as a "config" object.
        assert!(
            resp.contains("\"config\":{\"lazy\":")
                && resp.contains("\"auto_compact_generations\":"),
            "{resp}"
        );
        assert_eq!(
            roundtrip(&mut reader, &mut writer, "shutdown"),
            "{\"ok\":true,\"closing\":\"server\"}"
        );
        let stats = server.join();
        assert_eq!(stats.accepted, 1);
        assert!(stats.requests >= 6);
    }

    /// A client's rows are checked against the arrays' shapes: an
    /// out-of-shape coordinate is an error reply, not a panic inside
    /// compression, and the session keeps serving.
    #[test]
    fn out_of_shape_ingest_is_an_error_reply() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        for rows in ["0,0;1,-9223372036854775808", "0,8", "-1,0"] {
            let resp = roundtrip(&mut reader, &mut writer, &format!("ingest A B {rows}"));
            assert!(
                resp.starts_with("{\"ok\":false") && resp.contains("out of bounds"),
                "{resp}"
            );
        }
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        assert!(resp.contains("\"edges\":1"), "{resp}");
        server.stop();
        server.join();
    }

    #[test]
    fn query_batch_and_stats_responses() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2;2,3");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // Batch results come back in request order, one entry per query.
        let resp = roundtrip(&mut reader, &mut writer, "query_batch B,A 1|2|7");
        assert!(
            resp.contains("\"results\":[{\"cells\":1,\"boxes\":[[[2,2]]]},{\"cells\":1,\"boxes\":[[[3,3]]]},{\"cells\":0,\"boxes\":[]}]"),
            "{resp}"
        );
        // The stats word appends a stats object with a planner label.
        let resp = roundtrip(&mut reader, &mut writer, "query B,A 1 stats");
        assert!(resp.contains("\"boxes\":[[[2,2]]]"), "{resp}");
        assert!(
            resp.contains("\"stats\":{\"rows_probed\":") && resp.contains("\"plan\":\""),
            "{resp}"
        );
        assert!(
            resp.contains("\"hops\":[{\"probed\":") && !resp.contains("\"indexed\""),
            "{resp}"
        );
        let resp = roundtrip(&mut reader, &mut writer, "query_batch B,A 1|2 stats");
        assert!(resp.contains("\"stats\":{"), "{resp}");
        // Malformed batches are rejected without killing the session.
        let resp = roundtrip(&mut reader, &mut writer, "query_batch B,A 1||2");
        assert!(resp.starts_with("{\"ok\":false"), "{resp}");
        // `config` reports no query options (a query's options are its
        // own, not the handle's) and no orientation setting.
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(!resp.contains("\"query\":{"), "{resp}");
        assert!(!resp.contains("materialize"), "{resp}");
        assert!(!resp.contains("threads"), "{resp}");
        server.stop();
        server.join();
    }

    /// The `stats` reply's `config` object carries exactly the settable
    /// configuration, key for key and in order: nothing fixed as a
    /// constant is reported as if it could be set.
    #[test]
    fn stats_config_keys_are_the_settable_values() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        let config = &resp[resp.find("\"config\":").expect("config object")..];
        assert_eq!(
            config,
            "\"config\":{\"lazy\":false,\"as_of\":null,\"gzip\":null,\
             \"wal_actor\":\"local\",\"wal_retention\":0,\
             \"auto_compact_generations\":null}}"
        );
        server.stop();
        server.join();
    }

    #[test]
    fn oversized_frame_rejected_and_connection_closed() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            max_line_bytes: 64,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        // The cap counts the line without its newline: 64 bytes are
        // served, 65 are not.
        let resp = roundtrip(&mut reader, &mut writer, &format!("{:<64}", "stats"));
        assert!(resp.starts_with("{\"ok\":true"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, &format!("{:<65}", "stats"));
        assert!(resp.contains("exceeds 64 bytes"), "{resp}");
        let mut end = String::new();
        assert_eq!(reader.read_line(&mut end).unwrap(), 0, "expected EOF");
        assert_eq!(server.stats().oversized_frames, 1);

        // A hostile frame with no newline at all is refused once it passes
        // the cap, without waiting for one, and the cap counts the bytes
        // kept across poll ticks: neither half alone exceeds it.
        let (mut reader, mut writer) = connect(server.local_addr());
        let half = format!("query B,A {}", "1;".repeat(15));
        writer.write_all(half.as_bytes()).unwrap();
        std::thread::sleep(POLL_INTERVAL * 2);
        writer.write_all(half.as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("exceeds 64 bytes"), "{resp}");
        let mut end = String::new();
        assert_eq!(reader.read_line(&mut end).unwrap(), 0, "expected EOF");
        assert_eq!(server.stats().oversized_frames, 2);
        server.stop();
        server.join();
    }

    #[test]
    fn half_sent_frame_does_not_block_shutdown() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        assert!(roundtrip(&mut reader, &mut writer, "stats").starts_with("{\"ok\":true"));
        writer.write_all(b"query B,A").unwrap(); // no newline, and the client stays
        let (joined, wait) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            joined.send(server.join()).unwrap();
        });
        let stats = wait.recv_timeout(Duration::from_secs(5));
        assert!(stats.is_ok(), "server still serving a half-sent frame");
        drop(writer);
    }

    #[test]
    fn pipelined_burst_matches_one_at_a_time() {
        let burst = [
            "define C:4",
            "ingest A B 0,1;1,2;2,3",
            "query B,A 1",
            "query B,A 1;2 stats",
            "query_batch B,A 1|2|7",
            "query_batch B,A 1|2 stats",
            "# a comment gets no response",
            "bogus request",
            "query NOPE,A 1",
            "stats",
            "history",
        ];
        let requests: Vec<&str> = burst
            .iter()
            .copied()
            .filter(|r| !r.starts_with('#'))
            .collect();
        let root = std::env::temp_dir().join(format!("dslog-net-burst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let serve = |name: &str| {
            let mut db = Dslog::options().create(root.join(name)).unwrap();
            db.define_array("A", &[8]).unwrap();
            db.define_array("B", &[8]).unwrap();
            let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
            let opts = ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            };
            NetServer::spawn(service, "127.0.0.1:0", opts).unwrap()
        };
        // A peer's port and a clock reading differ between the two
        // servers by nature; everything else must match byte for byte.
        let mask = |line: &str| {
            let mut out = line.to_string();
            for key in ["\"actor\":", "\"timestamp_ms\":"] {
                let mut from = 0;
                while let Some(at) = out[from..].find(key) {
                    let start = from + at + key.len();
                    let len = out[start..].find([',', '}']).unwrap();
                    out.replace_range(start..start + len, "_");
                    from = start;
                }
            }
            out
        };

        let piped = serve("piped");
        let (mut reader, mut writer) = connect(piped.local_addr());
        writer
            .write_all(format!("{}\n", burst.join("\n")).as_bytes())
            .unwrap();
        let mut answers = Vec::new();
        for _ in &requests {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            answers.push(mask(line.trim_end()));
        }

        let single = serve("single");
        let (mut reader, mut writer) = connect(single.local_addr());
        for (request, answer) in requests.iter().zip(&answers) {
            let expected = mask(&roundtrip(&mut reader, &mut writer, request));
            assert_eq!(answer, &expected, "answers to `{request}` differ");
        }
        assert!(answers.last().unwrap().contains("\"actor\":_"));
        drop((piped, single));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pipelined_burst_cut_short_delivers_what_came_before() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            max_line_bytes: 64,
            ..ServeOptions::default()
        });
        // Every answer line up to EOF.
        let burst = |text: String| -> Vec<String> {
            let (reader, mut writer) = connect(server.local_addr());
            writer.write_all(text.as_bytes()).unwrap();
            reader.lines().map(|line| line.unwrap()).collect()
        };
        let lines = burst("stats\nquit\nstats\n".to_string());
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"ok\":true,\"arrays\""), "{lines:?}");
        assert_eq!(lines[1], "{\"ok\":true,\"closing\":\"session\"}");

        let lines = burst(format!("stats\n{:<65}\n", "stats"));
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"ok\":true,\"arrays\""), "{lines:?}");
        assert!(lines[1].contains("exceeds 64 bytes"), "{lines:?}");

        let lines = burst("stats\nshutdown\n".to_string());
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("{\"ok\":true,\"arrays\""), "{lines:?}");
        assert_eq!(lines[1], "{\"ok\":true,\"closing\":\"server\"}");
        server.join();
    }

    #[test]
    fn history_and_failure_fields_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("dslog-net-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Dslog::options().create(&dir).unwrap();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
        let server = NetServer::spawn(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let (mut reader, mut writer) = connect(server.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "commit");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "history");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"kind\":\"ingest\""), "{resp}");
        assert!(resp.contains("\"kind\":\"commit\""), "{resp}");
        // The ingest came in over the wire, so its log record is
        // attributed to the network peer.
        assert!(resp.contains("\"actor\":\"net:"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        assert!(resp.contains("\"failed_commits\":0"), "{resp}");
        assert!(resp.contains("\"last_commit_error\":null"), "{resp}");
        server.stop();
        server.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn array_specs() {
        assert_eq!(
            parse_array_spec("A:3x2").unwrap(),
            ("A".to_string(), vec![3, 2])
        );
        assert_eq!(parse_array_spec("B:7").unwrap(), ("B".to_string(), vec![7]));
        for bad in ["A", ":3", "A:0x2", "A:3xZ", "A:"] {
            assert!(parse_array_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn cell_lists() {
        assert_eq!(
            parse_cells("1;2;0,1").unwrap(),
            vec![vec![1], vec![2], vec![0, 1]]
        );
        assert_eq!(parse_cells(" 3 , 4 ").unwrap(), vec![vec![3, 4]]);
        assert!(parse_cells("a").is_err());
        assert!(parse_cells("").unwrap().is_empty());
    }

    #[test]
    fn busy_rejection_past_admission_bound() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            queue_depth: 0,
            ..ServeOptions::default()
        });
        // Occupy the only worker with a live session.
        let (mut r1, mut w1) = connect(server.local_addr());
        assert!(roundtrip(&mut r1, &mut w1, "stats").contains("\"ok\":true"));
        // Next connection exceeds workers + queue_depth and is turned away.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let busy = loop {
            let (mut r2, _w2) = connect(server.local_addr());
            let mut line = String::new();
            r2.read_line(&mut line).unwrap();
            if line.contains("server busy") {
                break line;
            }
            // The first session may not have been claimed yet; retry.
            assert!(std::time::Instant::now() < deadline, "never saw busy");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(busy.contains("\"ok\":false"), "{busy}");
        assert!(server.stats().rejected_busy >= 1);
        // The admitted session still works.
        assert!(roundtrip(&mut r1, &mut w1, "stats").contains("\"ok\":true"));
        server.stop();
        server.join();
    }
}
