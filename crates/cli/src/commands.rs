//! CLI subcommand implementations. Each returns the text to print (and
//! `serve` writes each reply to the sink it is given as it is answered) so
//! the test suite can drive commands in-process.

use crate::csv;
use crate::opts::Opts;
use dslog::api::{Dslog, OpenOptions, TableCapture};
use dslog::net::{self, parse_array_spec, parse_cells, NetServer, Outcome, ServeOptions};
use dslog::provrc;
use dslog::service::{AutoCommitPolicy, DslogService, MaintenancePolicy};
use dslog::storage::format as provrc_format;
use dslog::storage::persist;
use dslog::storage::wal::{IoFault, IoPolicy};
use dslog::table::Orientation;
use dslog_baselines::all_formats;
use std::fmt::Write as _;
use std::io::Write;
use std::time::Duration;

/// `dslog help`
pub fn help() -> String {
    "\
dslog — fine-grained array lineage storage, compression, and querying

USAGE:
  dslog ingest    --db DIR --in NAME:3x2 --out NAME:3 --csv FILE [--gzip]
                  [--retain N]
  dslog stats     --db DIR [--lazy]
  dslog query     --db DIR --path B,A --cells \"1;2;0\" [--no-merge]
                  [--stats] [--lazy] [--as-of GEN]
  dslog export    --db DIR --edge IN,OUT [--csv FILE]
  dslog db verify DIR
  dslog db history DIR
  dslog db compact DIR [--retain N]
  dslog compress  --csv FILE --out-arity N
  dslog serve     --db DIR [--gzip] [--lazy] [--auto-commit-edges N]
                  [--auto-commit-ms MS] [--compact-every-gens N]
                  [--retain N] [--script FILE]
                  [--listen ADDR [--addr-file FILE] [--net-workers N]
                   [--net-queue-depth N] [--max-line-bytes N]]
  dslog client    --addr HOST:PORT [--script FILE] [--stats]
                  [--retries N] [--retry-ms MS]
  dslog help

A database is a directory of ProvRC-compressed lineage tables plus the
operation log that names them. CSV relations have one row per lineage pair: output-cell indices
first, then input-cell indices (Figure 1B of the DSLog paper).

Query cells are `;`-separated, each a `,`-separated index tuple of the
first array on --path. The answer lists interval boxes over the last
array's axes.

Saves are atomic and every table is crc32-checksummed. `db verify`
walks a database and exits non-zero on any damage. `--lazy` opens in
O(checkpoint), loading and verifying each edge table on first use.

Every mutating operation is appended to a crc-framed operation log
(`ops.log`). A commit's record is its commit point: it names the
segment the commit wrote and, per new table, its edge, byte range and
crc, so it costs what changed. The log opens with a checkpoint of the
whole state; a commit that makes the next one due (once the edges
committed since reach its edge count), a full save, a gzip conversion
and `db compact` start a fresh log with it, renamed into place as their
commit point, and keep the old one as ops.g<GEN>.log. One writer at a
time: a second one is refused while the first holds writer.lock. `db
history` prints the logs, oldest first (who did what, when, at which
generation). `query --as-of GEN` runs against a retained historical
generation, replayed from the log that holds it (by default only files the
current generation references survive a commit; `ingest`, `serve` and
`db compact` take --retain N to keep the last N prior generations
queryable — each commit applies the window it was given).

A commit writes the tables that changed as one segment file
(`segment-0.g<GEN>.seg`) and re-references every other table where an
earlier generation wrote it, so a database accretes one segment per
commit. `db compact` is a commit that re-references nothing: every
table is rewritten into one new segment and the superseded segments are
swept (honoring the retention window, so --as-of keeps working inside
it), which also reclaims the dead bytes `db verify` reports —
superseded tables whose segment a live neighbour still pinned. The
checkpoint's rename is its single commit point: a crash mid-compaction
leaves the previous generation intact. `serve --compact-every-gens N`
runs the same pass automatically after a commit once the live
generation references more than N segments (N commits that wrote tables since the
last pass, counted on disk across restarts).

`compress` reports per-format sizes plus ProvRC throughput (rows/s and
raw MB/s).

`serve` runs the concurrent ingest-while-query service on a command
stream (one command per line, from --script FILE or stdin). It speaks
the wire protocol of `serve --listen` and prints each command's JSON
reply line, the same bytes a TCP client gets:

  define NAME:3x2             define an array
  ingest IN OUT 0,0,0;1,1,0   compress + install one edge; rows inline,
                              `;`-separated, laid out as CSV rows
  query  B,A 1;2 [stats]      prov_query along a path
  query_batch B,A 1;2|0 [stats]
                              |-separated queries in one shared sweep
  commit                      incremental commit to the database dir
  stats                       service counters and configuration
  history                     the database's operation log
  quit                        stop (implied at end of stream)
  shutdown                    stop (stops a --listen server)

The stream stops at the first failed command, with an error naming its
line. CSV files are ingested with `dslog ingest --csv`.

`query` serves hot multi-hop paths from composite edges and runs every
other path in order; --no-merge skips the merge between hops, for
ablation. --stats prints the planner decision and per-hop probe counts.
Each edge stores one (backward) table; a forward hop reads that same
table in reverse.

Commits are incremental: only edges added since the last
commit are written; everything else is re-referenced by the new
generation. --auto-commit-edges N commits whenever N edges are
pending; --auto-commit-ms MS commits on a timer. Pending edges are
committed on shutdown even when a command fails. --gzip converts an
existing plain database to the gzip disk format on open.

With --listen ADDR (not with --script), `serve` instead runs a TCP
server speaking the same protocol to many clients at once. Queries run
against immutable epoch snapshots and never wait on ingest or commit
IO. --addr-file FILE writes the bound address (use
--listen 127.0.0.1:0 for an OS-assigned port); --net-workers,
--net-queue-depth, and --max-line-bytes bound concurrent sessions,
the admission queue, and request size. `client` connects to a serving
instance and forwards its command stream (--script FILE or stdin),
printing one response line per command; with --stats it upgrades
query/query_batch requests to their stats-carrying form so responses
include probe counts and the planner decision. A server at capacity
rejects new connections with `server busy`; --retries N retries such
rejections with jittered exponential backoff starting at --retry-ms
MS (default 100) before giving up.
"
    .to_string()
}

/// The flags [`open_db`] reads.
const READER_FLAGS: [&str; 3] = ["db", "lazy", "as-of"];

fn open_db(opts: &Opts) -> Result<Dslog, String> {
    let dir = opts.required("db")?;
    // One validated builder instead of picking a constructor per flag
    // combination: contradictions (e.g. --as-of with --lazy) surface as
    // one InvalidOptions error before any file IO.
    let mut options = Dslog::options().lazy(opts.switch("lazy"));
    if let Some(spec) = opts.optional("as-of") {
        let generation: u64 = spec
            .parse()
            .map_err(|_| "flag --as-of must be a generation number".to_string())?;
        options = options.as_of(generation);
    }
    options.open(dir).map_err(|e| format!("open {dir}: {e}"))
}

/// The builder of a command that commits: its operation-log actor,
/// `--retain N`, and the crash sweep's hidden `--crash-at-io N` (exit 86 at
/// the N-th gated IO; see `scripts/crash_consistency.sh`).
fn writer_options(opts: &Opts, actor: &str) -> Result<OpenOptions, String> {
    let mut options = Dslog::options().wal_actor(actor);
    if let Some(generations) = opts.optional_int("retain")? {
        options = options.wal_retention(generations);
    }
    if let Some(n) = opts.optional_int("crash-at-io")? {
        options = options.io_policy(IoPolicy::fail_at(IoFault::Crash, n));
    }
    Ok(options)
}

/// `dslog ingest`: add one CSV relation as an edge, creating or extending
/// the database directory.
pub fn ingest(args: &[String]) -> Result<String, String> {
    let known = ["db", "in", "out", "csv", "gzip", "retain", "crash-at-io"];
    let opts = Opts::parse("ingest", &known, args)?;
    let db_dir = opts.required("db")?;
    let (in_name, in_shape) = parse_array_spec(opts.required("in")?)?;
    let (out_name, out_shape) = parse_array_spec(opts.required("out")?)?;
    let csv_path = opts.required("csv")?;
    let gzip = opts.switch("gzip");

    let text = std::fs::read_to_string(csv_path).map_err(|e| format!("read {csv_path}: {e}"))?;
    let table = csv::parse(&text, out_shape.len(), in_shape.len())?;
    let n_rows = table.n_rows();
    let raw_bytes = table.nbytes();

    // Extend an existing database or start a fresh one. Fresh only when
    // the directory holds no database — an IO error on an existing one must
    // propagate, not be shadowed by a new empty database whose save would
    // sweep the old snapshot's edge files.
    let options = writer_options(&opts, "cli")?;
    let mut db = if database_exists(db_dir) {
        options.open(db_dir)
    } else {
        options.build()
    }
    .map_err(|e| format!("open {db_dir}: {e}"))?;
    db.define_array(&in_name, &in_shape)
        .map_err(|e| e.to_string())?;
    db.define_array(&out_name, &out_shape)
        .map_err(|e| e.to_string())?;
    db.add_lineage(&in_name, &out_name, &TableCapture::new(table))
        .map_err(|e| e.to_string())?;
    db.save(db_dir, gzip).map_err(|e| e.to_string())?;

    let stored = db
        .storage()
        .stored_table(&in_name, &out_name)
        .map_err(|e| e.to_string())?;
    let compressed_bytes = if gzip {
        provrc_format::serialize_gzip(&stored).len()
    } else {
        provrc_format::serialize(&stored).len()
    };
    Ok(format!(
        "ingested {n_rows} lineage rows as edge {in_name} -> {out_name}\n\
         compressed {} rows, {raw_bytes} B raw -> {compressed_bytes} B on disk ({:.3}%)\n",
        stored.n_rows(),
        100.0 * compressed_bytes as f64 / raw_bytes.max(1) as f64
    ))
}

/// `dslog stats`: what the database holds.
pub fn stats(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("stats", &READER_FLAGS, args)?;
    let db = open_db(&opts)?;
    let storage = db.storage();
    let mut out = String::new();
    let names = storage.array_names();
    writeln!(out, "{} array(s):", names.len()).unwrap();
    for name in &names {
        let meta = storage.array(name).map_err(|e| e.to_string())?;
        writeln!(out, "  {name}  shape {:?}", meta.shape).unwrap();
    }
    writeln!(
        out,
        "{} edge(s), {} B of compressed lineage on disk",
        storage.n_edges(),
        storage.storage_bytes()
    )
    .unwrap();
    Ok(out)
}

/// `dslog query`: forward/backward lineage along a path.
pub fn query(args: &[String]) -> Result<String, String> {
    let own = ["path", "cells", "no-merge", "stats"];
    let opts = Opts::parse("query", &[&READER_FLAGS[..], &own].concat(), args)?;
    let db = open_db(&opts)?;
    let path_spec = opts.required("path")?;
    let path: Vec<&str> = path_spec.split(',').map(str::trim).collect();
    let cells = parse_cells(opts.required("cells")?)?;
    if cells.is_empty() {
        return Err("no query cells given".to_string());
    }

    let result = db
        .prov_query_opts(
            &path,
            &cells,
            dslog::query::QueryOptions {
                merge: !opts.switch("no-merge"),
            },
        )
        .map_err(|e| e.to_string())?;

    let mut out = String::new();
    writeln!(
        out,
        "{} box(es), {} cell(s), {} hop(s):",
        result.cells.n_boxes(),
        result.cells.volume(),
        result.hops
    )
    .unwrap();
    if opts.switch("stats") {
        if let Some(plan) = &result.stats.plan {
            writeln!(out, "  plan: {}", plan.decision.label()).unwrap();
        }
        for (i, h) in result.stats.hops.iter().enumerate() {
            writeln!(
                out,
                "  hop {i}: {} probed, {} matched, {} boxes, {:.2?}",
                h.rows_probed, h.rows_matched, h.boxes_emitted, h.wall
            )
            .unwrap();
        }
    }
    render_boxes(&mut out, &result.cells);
    Ok(out)
}

/// Append one `  (a, [b, c])` line per interval box.
fn render_boxes(out: &mut String, cells: &dslog::table::BoxTable) {
    for b in cells.boxes() {
        let dims: Vec<String> = b
            .iter()
            .map(|ivl| {
                if ivl.is_point() {
                    format!("{}", ivl.lo)
                } else {
                    format!("[{}, {}]", ivl.lo, ivl.hi)
                }
            })
            .collect();
        writeln!(out, "  ({})", dims.join(", ")).unwrap();
    }
}

/// `dslog export`: decompress one edge back to CSV (stdout or --csv FILE).
pub fn export(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(
        "export",
        &[&READER_FLAGS[..], &["edge", "csv"]].concat(),
        args,
    )?;
    let db = open_db(&opts)?;
    let edge_spec = opts.required("edge")?;
    let (in_name, out_name) = edge_spec
        .split_once(',')
        .ok_or_else(|| format!("--edge `{edge_spec}` must be IN,OUT"))?;
    let stored = db
        .storage()
        .stored_table(in_name.trim(), out_name.trim())
        .map_err(|e| e.to_string())?;
    let table = stored.decompress().map_err(|e| e.to_string())?;
    let rendered = csv::render(&table);
    if let Some(path) = opts.optional("csv") {
        std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
        Ok(format!("wrote {} rows to {path}\n", table.n_rows()))
    } else {
        Ok(rendered)
    }
}

/// `dslog db <subcommand>`: database maintenance.
///
/// - `dslog db verify <dir>` — replay the live log, re-read every referenced
///   table, and check byte length, crc32, structural decode, and
///   orientation agreement. Errors (non-zero exit) on any damage.
/// - `dslog db history <dir>` — print the operation log: one line per
///   recorded operation (id, timestamp, actor, kind, generations), plus
///   the record and commit counts and the last commit's generation.
/// - `dslog db compact <dir> [--retain N]` — rewrite every table into one
///   new segment and sweep the generations it supersedes.
pub fn db(args: &[String]) -> Result<String, String> {
    let (Some(sub), Some(dir)) = (args.first(), args.get(1)) else {
        return Err("usage: dslog db <verify|history|compact> <dir>".to_string());
    };
    match sub.as_str() {
        "verify" | "history" if args.len() > 2 => {
            Err(format!("db {sub} takes exactly one directory"))
        }
        "verify" => {
            let report = dslog::storage::persist::verify(std::path::Path::new(dir))
                .map_err(|e| format!("verify {dir}: {e}"))?;
            let mut out = String::new();
            writeln!(
                out,
                "database OK: {} array(s), {} edge(s), {} table(s) verified \
                 ({}, {} log record(s))",
                report.n_arrays,
                report.n_edges,
                report.files_verified,
                if report.gzip { "gzip" } else { "plain" },
                report.log_records
            )
            .unwrap();
            if report.dead_bytes > 0 {
                writeln!(
                    out,
                    "{} dead byte(s) in live segments (the next `db compact` reclaims them)",
                    report.dead_bytes
                )
                .unwrap();
            }
            if report.retained_files > 0 {
                writeln!(
                    out,
                    "{} historical file(s) retained for time travel (--as-of)",
                    report.retained_files
                )
                .unwrap();
            }
            for name in &report.stale_files {
                writeln!(
                    out,
                    "warning: stale file {name} (crashed-commit debris; the next commit deletes it)"
                )
                .unwrap();
            }
            Ok(out)
        }
        "history" => {
            let path = std::path::Path::new(dir);
            if !path.is_dir() {
                return Err(format!("history {dir}: not a database directory"));
            }
            let records =
                dslog::storage::wal::history(path).map_err(|e| format!("history {dir}: {e}"))?;
            let mut out = String::new();
            for r in &records {
                writeln!(
                    out,
                    "#{} t={} {} {} gen {}->{}: {}",
                    r.op_id,
                    r.timestamp_ms,
                    r.actor,
                    r.kind.name(),
                    r.gen_before,
                    r.gen_after,
                    r.kind.describe()
                )
                .unwrap();
            }
            // The committed arrays and edges are `db verify`'s to report:
            // it replays the log the way open does.
            let commits: Vec<_> = (records.iter())
                .filter(|r| matches!(r.kind, dslog::storage::wal::OpKind::Commit { .. }))
                .collect();
            writeln!(
                out,
                "{} record(s), {} commit(s), the last to generation {}",
                records.len(),
                commits.len(),
                commits.last().map_or(0, |r| r.gen_after)
            )
            .unwrap();
            Ok(out)
        }
        "compact" => {
            let opts = Opts::parse("db compact", &["retain", "crash-at-io"], &args[2..])?;
            // A lazy open binds the manager in O(checkpoint) without decoding
            // any table: compaction streams clean slots byte-for-byte.
            let db = writer_options(&opts, "cli")?
                .lazy(true)
                .open(dir)
                .map_err(|e| format!("open {dir}: {e}"))?;
            let report = db.compact().map_err(|e| format!("compact {dir}: {e}"))?;
            Ok(format!(
                "compacted to generation {}: {} table(s) rewritten into one segment ({} B)\n",
                report.generation, report.files_written, report.bytes_written
            ))
        }
        other => Err(format!("unknown db subcommand `{other}`; see `dslog help`")),
    }
}

/// `dslog serve`: run the concurrent ingest-while-query service over a
/// command stream (one command per line; `--script FILE` or stdin),
/// writing one JSON reply line per command to `replies`. See [`help`] for
/// the command grammar, which is the wire protocol's. Ingest batches
/// compress with no lock held and publish as new epoch snapshots, queries
/// run wait-free against the current snapshot, and commits are incremental
/// against the database directory's current generation. With
/// `--listen ADDR` the same service is exposed over TCP instead (see
/// [`serve_listen`]).
pub fn serve(args: &[String], replies: &mut dyn Write) -> Result<String, String> {
    let known = [
        "db",
        "gzip",
        "lazy",
        "auto-commit-edges",
        "auto-commit-ms",
        "compact-every-gens",
        "retain",
        "crash-at-io",
        "script",
        "listen",
        "addr-file",
        "net-workers",
        "net-queue-depth",
        "max-line-bytes",
    ];
    let opts = Opts::parse("serve", &known, args)?;
    let db_dir = opts.required("db")?;
    let (listen, script) = (opts.optional("listen"), opts.optional("script"));
    if listen.is_some() && script.is_some() {
        return Err("serve takes --listen or --script, not both".to_string());
    }
    let gzip = opts.switch("gzip");
    let lazy = opts.switch("lazy");
    let policy = AutoCommitPolicy {
        edge_threshold: opts.optional_int("auto-commit-edges")?,
        interval: opts
            .optional_int("auto-commit-ms")?
            .map(Duration::from_millis),
    };
    let maintenance = MaintenancePolicy {
        auto_compact_generations: opts.optional_int("compact-every-gens")?,
    };
    // Operation-log attribution: TCP sessions log their commands under
    // their peer address; policy-triggered commits say "auto-commit".
    let actor = if script.is_some() { "script" } else { "cli" };
    let options = writer_options(&opts, actor)?.maintenance(maintenance);

    // Open an existing database, or initialize (and bind) an empty one so
    // commits have a target from the start. Fresh-init happens ONLY when
    // the directory holds no database: an IO error reading an existing one must
    // propagate, never be shadowed by an empty save (whose sweep would
    // delete the surviving edge files).
    let db = if database_exists(db_dir) {
        // --gzip is deliberately NOT passed to the builder here: for
        // `serve` it means "convert a plain database", not "insist the
        // database already is gzip" (which the builder would validate).
        let db = options
            .lazy(lazy)
            .open(db_dir)
            .map_err(|e| format!("open {db_dir}: {e}"))?;
        // An existing plain database with an explicit --gzip is converted
        // (full re-save in the gzip format) so later commits honor the
        // requested mode; without the flag the database's mode wins.
        if gzip
            && db
                .bound_database()
                .is_some_and(|(_, bound_gzip, _)| !bound_gzip)
        {
            db.save(db_dir, true)
                .map_err(|e| format!("convert {db_dir} to gzip: {e}"))?;
        }
        db
    } else {
        options
            .gzip(gzip)
            .create(db_dir)
            .map_err(|e| format!("initialize {db_dir}: {e}"))?
    };
    let service = DslogService::new(db, policy);
    if let Some(listen) = listen {
        return serve_listen(&opts, service, listen);
    }
    let stream_result = match script {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => drive_serve(
                &service,
                actor,
                text.lines().map(|l| Ok(l.to_string())),
                replies,
            ),
            Err(e) => Err(format!("read script {path}: {e}")),
        },
        // Commands run as each stdin line arrives: a long-lived pipe gets
        // its replies at once, the stream is not buffered to EOF first.
        None => {
            use std::io::BufRead as _;
            drive_serve(&service, actor, std::io::stdin().lock().lines(), replies)
        }
    };
    // Final commit of anything pending — even after a failed command, so
    // successfully ingested edges are never discarded — then report.
    let (db, final_commit) = service.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    stream_result?;
    final_commit.map_err(|e| format!("final commit: {e}"))?;
    let generation = db
        .bound_database()
        .map_or(0, |(_, _, generation)| generation);
    Ok(format!(
        "serve done: {} array(s), {} edge(s) at generation {generation}\n",
        db.storage().array_names().len(),
        db.storage().n_edges()
    ))
}

/// `dslog serve --listen`: run the TCP front-end until a client sends
/// `shutdown`, then final-commit and summarize. The bound address is
/// printed (and flushed) immediately — and optionally written to
/// `--addr-file` — so scripts binding port 0 can discover the real port.
fn serve_listen(opts: &Opts, service: DslogService, listen: &str) -> Result<String, String> {
    let defaults = ServeOptions::default();
    let net_opts = ServeOptions {
        workers: opts
            .optional_int("net-workers")?
            .unwrap_or(defaults.workers),
        queue_depth: opts
            .optional_int("net-queue-depth")?
            .unwrap_or(defaults.queue_depth),
        max_line_bytes: opts
            .optional_int("max-line-bytes")?
            .unwrap_or(defaults.max_line_bytes),
    };
    let service = std::sync::Arc::new(service);
    let server = NetServer::spawn(std::sync::Arc::clone(&service), listen, net_opts)
        .map_err(|e| format!("listen {listen}: {e}"))?;
    let addr = server.local_addr();
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    if let Some(path) = opts.optional("addr-file") {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    let net_stats = server.join();
    let service = std::sync::Arc::try_unwrap(service)
        .map_err(|_| "server threads still reference the service after join".to_string())?;
    let (db, final_commit) = service.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    final_commit.map_err(|e| format!("final commit: {e}"))?;
    let generation = db
        .bound_database()
        .map_or(0, |(_, _, generation)| generation);
    Ok(format!(
        "serve done: {} array(s), {} edge(s) at generation {generation} \
         ({} connection(s), {} request(s), {} busy-rejected)\n",
        db.storage().array_names().len(),
        db.storage().n_edges(),
        net_stats.accepted,
        net_stats.requests,
        net_stats.rejected_busy
    ))
}

/// Exponential backoff with jitter for busy-rejected connections:
/// `base * 2^(attempt-1)` capped at 32x, half of it fixed and half
/// clock-derived jitter (sub-millisecond clock noise; the offline
/// dependency set has no RNG, and this is plenty to de-synchronize a
/// herd of retrying clients).
fn retry_backoff(base_ms: u64, attempt: u64) -> Duration {
    let step = base_ms
        .max(1)
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(5));
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    Duration::from_millis(step / 2 + nanos % (step / 2).max(1))
}

/// `dslog client`: forward a command stream (one per line, from
/// `--script FILE` or stdin) to a serving instance and print each JSON
/// response line. Stops at end of stream or after `quit`/`shutdown`.
///
/// A server at capacity answers a new connection's first response with
/// `server busy ... retry later` and closes. With `--retries N` the
/// client retries such rejections up to N times with jittered
/// exponential backoff starting at `--retry-ms` (default 100).
/// Admission happens at most once per session: after any real response,
/// a transport error is fatal, never retried.
pub fn client(args: &[String]) -> Result<String, String> {
    use std::io::BufRead as _;
    let known = ["addr", "script", "stats", "retries", "retry-ms"];
    let opts = Opts::parse("client", &known, args)?;
    let addr = opts.required("addr")?;
    let retries: u64 = opts.optional_int("retries")?.unwrap_or(0);
    let retry_ms: u64 = opts.optional_int("retry-ms")?.unwrap_or(100);
    let want_stats = opts.switch("stats");

    type Conn = (std::io::BufReader<std::net::TcpStream>, std::net::TcpStream);
    let connect = || -> Result<Conn, String> {
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok((std::io::BufReader::new(stream), writer))
    };
    let (mut reader, mut writer) = connect()?;
    // A busy rejection is always a connection's FIRST response (the
    // server sends it at accept time and closes); afterwards the session
    // is admitted for good. `admitted` gates the retry loop accordingly.
    let mut admitted = false;
    let mut attempt: u64 = 0;

    let mut roundtrip = |line: &str, out: &mut String| -> Result<bool, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(true);
        }
        // --stats upgrades plain query/query_batch requests to their
        // stats-carrying protocol form.
        let line = if want_stats
            && (line.starts_with("query ") || line.starts_with("query_batch "))
            && !line.ends_with(" stats")
        {
            format!("{line} stats")
        } else {
            line.to_string()
        };
        let line = line.as_str();
        loop {
            let sent = writer
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("send to {addr}: {e}"));
            let response = sent.and_then(|()| {
                let mut response = String::new();
                let n = reader
                    .read_line(&mut response)
                    .map_err(|e| format!("read from {addr}: {e}"))?;
                if n == 0 {
                    return Err(format!("{addr} closed the connection"));
                }
                Ok(response)
            });
            // Unadmitted connections retry busy rejections AND transport
            // errors (a busy server may reset the socket before its
            // rejection line is readable).
            let busy = match &response {
                Ok(r) => r.contains("server busy"),
                Err(_) => true,
            };
            if !admitted && busy && attempt < retries {
                attempt += 1;
                std::thread::sleep(retry_backoff(retry_ms, attempt));
                let (r, w) = connect()?;
                reader = r;
                writer = w;
                continue;
            }
            let response = response?;
            admitted = true;
            out.push_str(&response);
            return Ok(!matches!(line, "quit" | "exit" | "shutdown"));
        }
    };

    let mut out = String::new();
    match opts.optional("script") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("read script {path}: {e}"))?;
            for line in text.lines() {
                if !roundtrip(line, &mut out)? {
                    break;
                }
            }
        }
        None => {
            // Live mode: print each response as it arrives.
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| format!("read stdin: {e}"))?;
                let mut response = String::new();
                let more = roundtrip(&line, &mut response)?;
                print!("{response}");
                let _ = std::io::stdout().flush();
                if !more {
                    break;
                }
            }
        }
    }
    Ok(out)
}

/// Whether `db_dir` holds a database to open (or to refuse), never one to
/// fresh-initialize over: anything but what a first commit killed before
/// its commit point leaves — the writer lock, `*.tmp` files and its
/// segment — which the fresh database's first commit sweeps instead. Used
/// to decide between opening and fresh-initializing.
fn database_exists(db_dir: &str) -> bool {
    let debris =
        |n: &str| n == persist::LOCK_FILE || n.ends_with(".tmp") || n.starts_with("segment-");
    let entries = std::fs::read_dir(db_dir).into_iter().flatten().flatten();
    entries
        .into_iter()
        .any(|e| !e.file_name().to_str().is_some_and(debris))
}

/// Feed a command stream to the service through the wire protocol's
/// interpreter ([`net::execute`]), one line at a time, and write each
/// reply line to `replies` as soon as it is answered. Mutations are logged
/// under `actor`. Stops after `quit`, `exit` or `shutdown`, and at the
/// first failed command, naming its line and its reply.
fn drive_serve(
    service: &DslogService,
    actor: &str,
    lines: impl Iterator<Item = std::io::Result<String>>,
    replies: &mut dyn Write,
) -> Result<(), String> {
    let mut reply = String::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(|e| format!("read command stream: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        reply.clear();
        let outcome = net::execute(service, line, actor, &mut reply);
        replies
            .write_all(reply.as_bytes())
            .and_then(|()| replies.flush())
            .map_err(|e| format!("write reply: {e}"))?;
        match outcome {
            Outcome::Done => {}
            Outcome::Failed => {
                return Err(format!("serve line {}: {}", lineno + 1, reply.trim_end()))
            }
            Outcome::CloseSession | Outcome::StopServer => break,
        }
    }
    Ok(())
}

/// `dslog compress`: compare every storage format on a CSV relation and
/// report ProvRC compression throughput.
pub fn compress(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("compress", &["csv", "out-arity"], args)?;
    let csv_path = opts.required("csv")?;
    let out_arity = opts.required_usize("out-arity")?;
    let text = std::fs::read_to_string(csv_path).map_err(|e| format!("read {csv_path}: {e}"))?;

    // Infer total arity from the first data row.
    let arity = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or("empty CSV")?
        .split(',')
        .count();
    if out_arity == 0 || out_arity >= arity {
        return Err(format!(
            "--out-arity {out_arity} impossible for {arity}-column rows"
        ));
    }
    let table = csv::parse(&text, out_arity, arity - out_arity)?;

    // Shapes for ProvRC: tight bounding extents of the observed indices.
    let mut extents = vec![1i64; arity];
    for row in table.rows() {
        for (e, &v) in extents.iter_mut().zip(row) {
            *e = (*e).max(v + 1);
        }
    }
    let out_shape: Vec<usize> = extents[..out_arity].iter().map(|&e| e as usize).collect();
    let in_shape: Vec<usize> = extents[out_arity..].iter().map(|&e| e as usize).collect();

    let raw_bytes = table.nbytes();
    let mut rows: Vec<(String, usize)> = all_formats()
        .iter()
        .map(|f| (f.name().to_string(), f.encode(&table).len()))
        .collect();
    let start = std::time::Instant::now();
    let provrc_table = provrc::compress(&table, &out_shape, &in_shape, Orientation::Backward);
    let compress_secs = start.elapsed().as_secs_f64().max(1e-9);
    rows.push((
        "ProvRC".to_string(),
        provrc_format::serialize(&provrc_table).len(),
    ));
    rows.push((
        "ProvRC-GZip".to_string(),
        provrc_format::serialize_gzip(&provrc_table).len(),
    ));

    let mut out = String::new();
    writeln!(
        out,
        "{} rows, {} output + {} input attributes, {raw_bytes} B raw",
        table.n_rows(),
        out_arity,
        arity - out_arity
    )
    .unwrap();
    writeln!(
        out,
        "ProvRC: {} -> {} rows in {:.3}ms ({:.3e} rows/s, {:.1} MB/s raw)\n",
        table.n_rows(),
        provrc_table.n_rows(),
        compress_secs * 1e3,
        table.n_rows() as f64 / compress_secs,
        raw_bytes as f64 / 1_048_576.0 / compress_secs,
    )
    .unwrap();
    writeln!(out, "{:<14} {:>12} {:>10}", "format", "bytes", "% of raw").unwrap();
    for (name, bytes) in rows {
        writeln!(
            out,
            "{name:<14} {bytes:>12} {:>10.4}",
            100.0 * bytes as f64 / raw_bytes.max(1) as f64
        )
        .unwrap();
    }
    Ok(out)
}
