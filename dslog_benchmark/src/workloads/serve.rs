//! `serve_point` and `mixed_serve`: a `NetServer` over the 8-array chain,
//! read by one closed-loop TCP client; `mixed_serve` binds the database to a
//! directory and adds one open-loop writer connection.

use crate::client::{is_ok, Client};
use crate::common::{
    dir_usage, ns_to_us, p50_ms, p50_us, peak_rss_mb, Ctx, Failures, Metrics, Outcome, Phases,
};
use crate::gen::{self, ChainTraffic, EdgeKind, Query, RawEdge};
use crate::json::{self, Value};
use crate::layers;
use crate::oracle::{cells_of_response, CellSet, Oracle};
use crate::qtrace::{self, QueryAgg};
use crate::rng::Rng;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use dslog::api::TableCapture;
use dslog::net::{NetServer, ServeOptions};
use dslog::service::{AutoCommitPolicy, DslogService};
use dslog::{Dslog, MaintenancePolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PREFIX: &str = "C";
const N_EDGES: usize = 7;
/// Server worker threads: one per connection the workloads open. Fixed, so
/// results do not depend on the core count of the box.
const WORKERS: usize = 2;
/// The writer's schedule: one ingest every 20 ms.
const WRITE_PERIOD: Duration = Duration::from_millis(20);
/// Auto-commit after this many ingested edges.
const COMMIT_EVERY_EDGES: u64 = 8;
/// Queries per hot path during set-up: past the composite policy's default
/// hit threshold of 3.
const HOT_PATH_SIGHTINGS: usize = 4;
/// Cells per set-up query, spread evenly over the first array of its path.
const SIGHTING_CELLS: usize = 64;
/// Compact after this many committed generations.
const COMPACT_EVERY_GENERATIONS: u64 = 16;
/// Seed of the chain's scatter edges. The chain is the benchmark's data set,
/// the same for every `--seed` (as `pipeline_query`'s pipelines are): joining
/// the hot paths takes the process to 46 MB on one draw of the scatter edges
/// and to 57 MB on another, and whether the allocator then keeps the
/// difference depends on the draw too. `--seed` draws the requests and what
/// the writer ingests.
const CHAIN_DATA_SEED: u64 = 0x00c4_a111;
/// Set-ups per run; one takes about half a second.
const SETUPS: usize = 5;

struct Sizes {
    /// Cells per chain array. Below the composite policy's default cap of
    /// 65 536 support cells, so the hot 3-hop paths can become composites.
    cells: usize,
    warmup_queries: usize,
    writer_rows: usize,
    /// One response in this many is kept for the oracle, after the first 200.
    sample_every: u64,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Self {
        if ctx.check {
            Self {
                cells: 2048,
                warmup_queries: 200,
                writer_rows: 256,
                sample_every: 20,
            }
        } else {
            Self {
                cells: 32_768,
                warmup_queries: 5000,
                writer_rows: 5000,
                sample_every: 1000,
            }
        }
    }
}

/// Everything generated from the seed before any set-up is timed.
struct Inputs {
    chain: Vec<RawEdge>,
    /// `mixed_serve` only: one edge per scheduled write, `W{k} -> W{k+1}`.
    writes: Vec<RawEdge>,
    write_lines: Vec<String>,
}

struct Live {
    server: NetServer,
    service: Arc<DslogService>,
    reader: Client,
    writer: Option<Client>,
    dir: Option<PathBuf>,
}

fn generate(ctx: &Ctx, sizes: &Sizes, mixed: bool) -> Inputs {
    let chain = gen::chain_edges(PREFIX, N_EDGES, sizes.cells, CHAIN_DATA_SEED);
    // mixed_serve's timed phase is its writer's schedule.
    let n_writes = if mixed { ctx.timed_ops() as usize } else { 0 };
    let writes: Vec<RawEdge> = (0..n_writes)
        .map(|k| {
            let mut rng = Rng::stream(ctx.seed, &format!("write-{k}"));
            RawEdge {
                kind: EdgeKind::Scatter,
                in_name: gen::chain_name("W", k),
                out_name: gen::chain_name("W", k + 1),
                in_shape: vec![sizes.writer_rows],
                out_shape: vec![sizes.writer_rows],
                table: gen::scatter(sizes.writer_rows, sizes.writer_rows, &mut rng),
            }
        })
        .collect();
    let write_lines = writes.iter().map(gen::ingest_wire).collect();
    Inputs {
        chain,
        writes,
        write_lines,
    }
}

/// Build the database, start the service and the server, connect, and warm
/// up until the hot paths are composites: everything a deployment does
/// before it is ready.
fn setup(ctx: &Ctx, sizes: &Sizes, inputs: &Inputs, mixed: bool) -> Live {
    let dir = mixed.then(|| ctx.fresh_dir("served-db"));
    let mut db = match &dir {
        Some(dir) => Dslog::options()
            .maintenance(MaintenancePolicy::every_generations(
                COMPACT_EVERY_GENERATIONS,
            ))
            .create(dir),
        None => Dslog::options().build(),
    }
    .expect("create database");
    for i in 0..=N_EDGES {
        db.define_array(&gen::chain_name(PREFIX, i), &[sizes.cells])
            .expect("define chain array");
    }
    for e in &inputs.chain {
        db.add_lineage(&e.in_name, &e.out_name, &TableCapture::new(e.table.clone()))
            .expect("register chain edge");
    }
    for k in 0..=inputs.writes.len() {
        db.define_array(&gen::chain_name("W", k), &[sizes.writer_rows])
            .expect("define writer array");
    }
    // See every path of the mix here and now, the hot ones often enough
    // that they are composite edges before the first client connects. (Left
    // to the warm-up traffic, a forward orientation would be derived and a
    // hot path joined on whichever server thread met it first, and the
    // process's peak memory would depend on which one that was.) The probe
    // cells are spread over the array: a query from one cell can die out at
    // a scatter edge, the later hops then stay unresolved, and the join is
    // put off.
    let warm = ChainTraffic::new(PREFIX, N_EDGES, sizes.cells, ctx.seed);
    let spread: Vec<Vec<i64>> = (0..SIGHTING_CELLS)
        .map(|i| vec![(i * sizes.cells / SIGHTING_CELLS) as i64])
        .collect();
    for path in warm.single_paths() {
        let path: Vec<&str> = path.iter().map(String::as_str).collect();
        db.prov_query(&path, &spread).expect("1-hop query");
    }
    for path in warm.hot_paths() {
        let path: Vec<&str> = path.iter().map(String::as_str).collect();
        for _ in 0..HOT_PATH_SIGHTINGS {
            db.prov_query(&path, &spread).expect("hot-path query");
        }
        assert!(
            db.storage().has_composite(&path),
            "hot path {path:?} is not a composite edge after set-up"
        );
    }
    let policy = if mixed {
        db.commit().expect("commit chain");
        AutoCommitPolicy::every_edges(COMMIT_EVERY_EDGES)
    } else {
        AutoCommitPolicy::manual()
    };
    let service = Arc::new(DslogService::new(db, policy));
    let server = NetServer::spawn(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        },
    )
    .expect("spawn server");
    let mut reader = Client::connect(server.local_addr()).expect("connect reader");
    let writer = mixed.then(|| Client::connect(server.local_addr()).expect("connect writer"));

    // Warm up over the path the workload reads by, with a request stream of
    // its own: the hot paths become composites, buffers reach their sizes.
    let mut warm = ChainTraffic::new(PREFIX, N_EDGES, sizes.cells, ctx.seed ^ 0x5eed);
    if mixed {
        for _ in 0..sizes.warmup_queries {
            let q = warm.next_query();
            service
                .query(&q.path_refs(), &q.cells)
                .expect("warm-up query");
        }
    } else {
        let mut left = sizes.warmup_queries;
        reader
            .run_window(
                WINDOW,
                Instant::now() + Duration::from_secs(60),
                || {
                    left = left.checked_sub(1)?;
                    Some(((), warm.next_query().wire()))
                },
                |(), response, _| assert!(is_ok(response), "warm-up answered {response}"),
            )
            .expect("warm-up requests");
    }
    Live {
        server,
        service,
        reader,
        writer,
        dir,
    }
}

/// Stop the server, shut the service down (which commits what is pending)
/// and hand the database back.
fn teardown(live: Live) -> (Dslog, Option<PathBuf>) {
    let Live {
        server,
        service,
        mut reader,
        mut writer,
        dir,
    } = live;
    let _ = reader.roundtrip("quit\n");
    if let Some(w) = writer.as_mut() {
        let _ = w.roundtrip("quit\n");
    }
    server.stop();
    server.join();
    let service = Arc::try_unwrap(service).expect("server threads joined");
    let (db, final_commit) = service.shutdown().expect("no snapshot readers remain");
    final_commit.expect("final commit");
    (db, dir)
}

/// What a kept request was answered with.
enum Answer {
    /// A response line of the wire protocol.
    Wire(String),
    /// The cells of a result the library returned.
    Cells(CellSet),
}

/// One answered request kept for the oracle.
struct Sample {
    query: Query,
    answer: Answer,
}

#[derive(Default)]
struct ReadLog {
    all_ns: Vec<u64>,
    /// Latencies of the 3-hop and of the 1-hop requests among them.
    three_hop_ns: Vec<u64>,
    one_hop_ns: Vec<u64>,
    /// When each request completed, since the loop began.
    done_ns: Vec<u64>,
    samples: Vec<Sample>,
}

impl ReadLog {
    /// Room for `requests` answers, so that the log never moves while it
    /// is filled.
    fn with_capacity(requests: usize) -> Self {
        Self {
            all_ns: Vec::with_capacity(requests),
            three_hop_ns: Vec::with_capacity(requests),
            one_hop_ns: Vec::with_capacity(requests),
            done_ns: Vec::with_capacity(requests),
            samples: Vec::new(),
        }
    }

    /// Whether request `i` of a loop is kept for the oracle: the first 200,
    /// then one in `sample_every`.
    fn keeps(i: u64, sample_every: u64) -> bool {
        i < 200 || i.is_multiple_of(sample_every)
    }
}

/// Requests `serve_point`'s reader keeps in flight on its one connection
/// (see [`Client::run_window`] for why it is more than one).
const WINDOW: usize = 4;

/// The closed loop over TCP: the reader keeps [`WINDOW`] requests in flight
/// and sends the next one when a response has arrived, `requests` in all.
fn tcp_loop(
    reader: &mut Client,
    traffic: &mut ChainTraffic,
    requests: u64,
    cut_off: Instant,
    sample_every: u64,
    mut log: ReadLog,
    failures: &mut Failures,
) -> ReadLog {
    let start = Instant::now();
    let mut i = 0u64;
    let mut unsent = requests;
    let outcome = reader.run_window(
        WINDOW,
        cut_off,
        || {
            unsent = unsent.checked_sub(1)?;
            let query = traffic.next_query();
            let line = query.wire();
            Some((query, line))
        },
        |query, response, ns| {
            if is_ok(response) {
                log.all_ns.push(ns);
                log.done_ns.push(start.elapsed().as_nanos() as u64);
                if query.hops() == 3 {
                    log.three_hop_ns.push(ns);
                } else {
                    log.one_hop_ns.push(ns);
                }
                if ReadLog::keeps(i, sample_every) {
                    log.samples.push(Sample {
                        answer: Answer::Wire(response.to_string()),
                        query,
                    });
                }
            } else {
                failures.fail(format!("{query:?} answered {response}"));
            }
            i += 1;
        },
    );
    if let Err(e) = outcome {
        failures.fail(format!("reader connection failed: {e}"));
    }
    failures.cut_short(i, requests);
    log
}

/// `mixed_serve`'s reader pauses this long after every [`READ_BURST`]
/// requests. A reader that never pauses takes a whole core; with the writer's
/// session and its compression threads that is more than the two cores of
/// the reference box, and the writer's numbers then measure the scheduler.
const READ_THINK: Duration = Duration::from_millis(1);
const READ_BURST: u64 = 100;

/// `mixed_serve`'s closed loop, in process: the request stream answered by
/// `DslogService::query` in this thread, one request at a time, pausing
/// [`READ_THINK`] after every [`READ_BURST`] requests. It reads for as long
/// as `more` says, which is while the writer's schedule lasts: the reader's
/// count follows from its speed, and it never reads without the writer
/// beside it.
fn embedded_loop(
    service: &DslogService,
    traffic: &mut ChainTraffic,
    more: impl Fn(Instant) -> bool,
    sample_every: u64,
    failures: &mut Failures,
) -> ReadLog {
    let mut log = ReadLog::default();
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let query = traffic.next_query();
        let path = query.path_refs();
        let t0 = Instant::now();
        let answer = service.query(&path, &query.cells);
        let t1 = Instant::now();
        match answer {
            Ok(result) => {
                let ns = (t1 - t0).as_nanos() as u64;
                log.all_ns.push(ns);
                log.done_ns.push((t1 - start).as_nanos() as u64);
                if query.hops() == 3 {
                    log.three_hop_ns.push(ns);
                } else {
                    log.one_hop_ns.push(ns);
                }
                if ReadLog::keeps(i, sample_every) {
                    log.samples.push(Sample {
                        answer: Answer::Cells(result.cells.cell_set()),
                        query,
                    });
                }
            }
            Err(e) => failures.fail(format!("{query:?}: {e}")),
        }
        i += 1;
        if !more(t1) {
            break;
        }
        if i.is_multiple_of(READ_BURST) {
            std::thread::sleep(READ_THINK);
        }
    }
    log
}

#[derive(Default)]
struct WriteLog {
    /// Response time of each ingest, measured from when it was due.
    ack_ns: Vec<u64>,
    /// The same, for the ingests whose response carried an auto-commit.
    ack_with_commit_ns: Vec<u64>,
    /// How late the generator itself ran: the time from when an ingest
    /// could first be sent (its due time, or the previous response if that
    /// came later) to when it was sent. A stall of the server delays later
    /// ingests too, but that wait is the server's and counts in `ack_ns`.
    late_ns: Vec<u64>,
    acked: usize,
    errors: Vec<String>,
}

/// The open loop: ingest `k` is due at `start + k × period` whether or not
/// earlier ones have been answered in time; a late one is sent at once and
/// its wait counts in its latency. Sets `done` when the schedule is through.
fn write_loop(
    writer: &mut Client,
    lines: &[String],
    start: Instant,
    cut_off: Instant,
    done: &AtomicBool,
) -> WriteLog {
    let mut log = WriteLog::default();
    let mut free_at = start;
    for (k, line) in lines.iter().enumerate() {
        if free_at >= cut_off {
            log.errors.push(format!(
                "{} scheduled ingests not sent: timed phase cut off",
                lines.len() - k
            ));
            break;
        }
        let due = start + WRITE_PERIOD * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.late_ns
            .push((Instant::now() - due.max(free_at)).as_nanos() as u64);
        let response = writer.roundtrip(line);
        free_at = Instant::now();
        match response {
            Ok(r) if is_ok(r) => {
                let ns = (free_at - due).as_nanos() as u64;
                log.ack_ns.push(ns);
                if r.contains("\"auto_commit\":{\"ok\":true") {
                    log.ack_with_commit_ns.push(ns);
                } else if r.contains("\"auto_commit\"") {
                    log.errors.push(format!("auto-commit failed: {r}"));
                }
                log.acked += 1;
            }
            Ok(r) => log.errors.push(format!("ingest {k} answered {r}")),
            Err(e) => {
                log.errors.push(format!("writer connection failed: {e}"));
                break;
            }
        }
    }
    // The reader loop ends on this flag and is joined before anything the
    // writer wrote is read.
    done.store(true, Ordering::SeqCst);
    log
}

/// Compare the kept answers with the oracle, cell set by cell set.
fn verify_reads(samples: &[Sample], oracle: &Oracle, failures: &mut Failures) {
    for s in samples {
        let got = match &s.answer {
            Answer::Wire(line) => json::parse(line).and_then(|v| cells_of_response(&v)),
            Answer::Cells(cells) => Ok(cells.clone()),
        };
        let want = oracle.query(&s.query.path_refs(), &s.query.cells);
        match (got, want) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(got), Ok(want)) => failures.fail(format!(
                "{:?}: {} cells answered, oracle has {}",
                s.query,
                got.len(),
                want.len()
            )),
            (Err(e), _) | (_, Err(e)) => failures.fail(format!("{:?}: {e}", s.query)),
        }
    }
}

/// A sample of the acknowledged writes must be queryable and right.
fn verify_writes(
    service: &DslogService,
    inputs: &Inputs,
    acked: usize,
    failures: &mut Failures,
) -> u64 {
    let oracle = Oracle::new(&inputs.writes);
    let mut checked = 0;
    for e in inputs.writes[..acked].iter().step_by(10) {
        let path = [e.out_name.as_str(), e.in_name.as_str()];
        let cells = [vec![(e.rows() / 2) as i64]];
        checked += 1;
        match (service.query(&path, &cells), oracle.query(&path, &cells)) {
            (Ok(got), Ok(want)) if got.cells.cell_set() == want => {}
            (Ok(_), Ok(_)) => failures.fail(format!("acknowledged edge {path:?} answers wrongly")),
            (Err(e), _) => failures.fail(format!("acknowledged edge {path:?}: {e}")),
            (_, Err(e)) => failures.fail(e),
        }
    }
    checked
}

fn raw_bytes<'a>(edges: impl IntoIterator<Item = &'a RawEdge>) -> u64 {
    edges.into_iter().map(RawEdge::raw_bytes).sum()
}

pub fn run(ctx: &Ctx, mixed: bool) -> Outcome {
    let sizes = Sizes::of(ctx);
    let mut phases = Phases::start();
    let inputs = generate(ctx, &sizes, mixed);
    phases.end("generate");
    // serve_point's log of its timed requests is allocated before the first
    // set-up (and touched only as it fills): allocated after them, it would
    // land in whatever they left free, or not, and the process's peak memory
    // would differ by the log's size from run to run.
    let read_log = ReadLog::with_capacity(if mixed || ctx.trace {
        0
    } else {
        ctx.timed_ops() as usize
    });
    // One set-up before the timed phase; the others that `setup_s` is the
    // median of follow it. Five set-ups in a row leave the allocator holding
    // anything up to 15 MB of freed memory, depending on thread timing, and
    // the peak would count it.
    let start = Instant::now();
    let mut live = setup(ctx, &sizes, &inputs, mixed);
    let first_setup_s = start.elapsed().as_secs_f64();
    phases.end("setup");
    let config = format!("{:?}", live.service.stats().config);

    let mut failures = Failures::default();
    let mut traffic = ChainTraffic::new(PREFIX, N_EDGES, sizes.cells, ctx.seed);
    let mut metrics;
    let attempted;
    let mut sizes_json = vec![
        ("chain_arrays", Value::count(N_EDGES as u64 + 1)),
        ("cells_per_array", Value::count(sizes.cells as u64)),
        (
            "chain_raw_rows",
            Value::count(inputs.chain.iter().map(|e| e.rows() as u64).sum()),
        ),
        ("server_workers", Value::count(WORKERS as u64)),
        (
            "reader",
            Value::str(if mixed {
                "in process, one request at a time, 1 ms pause per 100 requests"
            } else {
                "one TCP connection, 4 requests in flight"
            }),
        ),
        ("writer_connections", Value::count(u64::from(mixed))),
        ("scheduled_writes", Value::count(inputs.writes.len() as u64)),
        ("rows_per_write", Value::count(sizes.writer_rows as u64)),
    ];

    if ctx.trace {
        metrics = Metrics::new(spec::PER_LAYER);
        attempted = run_traced(
            ctx,
            &sizes,
            &inputs,
            &mut live,
            &mut traffic,
            &mut metrics,
            &mut failures,
            &mut phases,
        );
        let (_, dir) = teardown(live);
        let edges: Vec<&RawEdge> = inputs
            .chain
            .iter()
            .chain(inputs.writes.iter().take(8))
            .collect();
        let first_hot = Query {
            path: traffic.hot_paths()[0].clone(),
            cells: vec![vec![(sizes.cells / 2) as i64]],
        };
        if let Err(e) = layers::probe_all(ctx, &edges, dir.as_deref(), &first_hot, &mut metrics) {
            failures.fail(format!("layer probe: {e}"));
        }
        phases.end("layer_probes");
    } else {
        metrics = Metrics::new(spec::END_TO_END);
        let start = Instant::now();
        let cut_off = ctx.cut_off(start);
        let writer_done = AtomicBool::new(false);
        // serve_point reads over TCP; mixed_serve reads in process, beside
        // its writer.
        let Live {
            reader,
            writer,
            service,
            ..
        } = &mut live;
        let (reads, writes) = std::thread::scope(|scope| {
            let writing = writer.as_mut().map(|w| {
                scope.spawn(|| write_loop(w, &inputs.write_lines, start, cut_off, &writer_done))
            });
            let every = sizes.sample_every;
            let reads = if mixed {
                let more = |now| !writer_done.load(Ordering::SeqCst) && now < cut_off;
                embedded_loop(service, &mut traffic, more, every, &mut failures)
            } else {
                let requests = ctx.timed_ops();
                tcp_loop(
                    reader,
                    &mut traffic,
                    requests,
                    cut_off,
                    every,
                    read_log,
                    &mut failures,
                )
            };
            let writes = writing.map(|h| h.join().expect("writer thread"));
            (reads, writes)
        });
        phases.end("timed");
        let rss = peak_rss_mb();

        let writes = writes.unwrap_or_default();
        for e in &writes.errors {
            failures.fail(e.clone());
        }
        let net = live.server.stats();
        failures.add(net.rejected_busy, "connection refused as busy");
        failures.add(net.oversized_frames, "request refused as oversized");
        failures.add(live.service.stats().failed_commits, "commit failed");

        verify_reads(&reads.samples, &Oracle::new(&inputs.chain), &mut failures);
        let checked_writes = verify_writes(&live.service, &inputs, writes.acked, &mut failures);
        phases.end("verify");

        attempted = if mixed {
            reads.all_ns.len() as u64 + failures.count + inputs.writes.len() as u64
        } else {
            ctx.timed_ops()
        };
        sizes_json.push(("reads_timed", Value::count(reads.all_ns.len() as u64)));
        sizes_json.push(("reads_verified", Value::count(reads.samples.len() as u64)));
        sizes_json.push(("writes_acked", Value::count(writes.acked as u64)));
        sizes_json.push(("writes_verified", Value::count(checked_writes)));

        // Bytes on disk for the lineage now stored: the served directory, or
        // a save of the in-memory database.
        let (db, dir) = teardown(live);
        let dir = dir.unwrap_or_else(|| {
            let dir = ctx.fresh_dir("stored");
            db.save(&dir, false).expect("save database");
            dir
        });
        let raw = raw_bytes(inputs.chain.iter().chain(&inputs.writes[..writes.acked]));
        metrics.set(
            "stored_bytes_per_raw_byte",
            dir_usage(&dir).0 as f64 / raw as f64,
        );
        phases.end("store");

        if reads.all_ns.is_empty() {
            failures.fail("no read completed");
        } else {
            metrics.set(
                "op_p50_us",
                ns_to_us(stats::sliced_percentile(&reads.all_ns, 50.0)),
            );
            metrics.set(
                "op_tail_us",
                ns_to_us(stats::sliced_percentile(&reads.all_ns, 99.0)),
            );
            metrics.set("ops_per_s", stats::sliced_rate(&reads.done_ns));
        }
        // aux, aux2: the 3-hop requests of the mix, which composite edges
        // serve, and the 1-hop.
        metrics.set("aux_p50_us", p50_us(&reads.three_hop_ns));
        metrics.set("aux2_p50_us", p50_us(&reads.one_hop_ns));
        // mixed_serve's writer is not among the end-to-end numbers: its
        // median acknowledgement sat at 2.8 ms or at 4.2 ms, and that of the
        // acknowledgements that carried an auto-commit, each an fsync of the
        // sandbox's disk, at 15 ms or at 30 ms, for minutes at a time, which
        // no bound holds. The traced run reports both; this run's result
        // file keeps them beside its sizes.
        if mixed {
            sizes_json.push(("writer_ack_p50_us", Value::Num(p50_us(&writes.ack_ns))));
            sizes_json.push((
                "writer_ack_with_commit_p50_us",
                Value::Num(p50_us(&writes.ack_with_commit_ns)),
            ));
        }
        let mut setup_times = vec![first_setup_s];
        for _ in 1..SETUPS {
            let start = Instant::now();
            let live = setup(ctx, &sizes, &inputs, mixed);
            setup_times.push(start.elapsed().as_secs_f64());
            teardown(live);
        }
        metrics.set("setup_s", stats::median_f64(&setup_times));
        phases.end("more_setups");
        metrics.set("peak_rss_mb", rss);
    }

    Outcome {
        attempted,
        failures,
        metrics,
        sizes: Value::obj(sizes_json),
        config,
        phases: phases.done,
        steal_s: 0.0,
    }
}

/// The traced run: a short untraced loop for reference, then the same
/// request stream with every request replayed layer by layer, with the
/// writer (on `mixed_serve`) running beside it throughout.
///
/// The traced TCP request is a plain blocking round trip, one at a time, so
/// `net.self_us` includes what this box charges for waking the thread at
/// the other end; the untraced run hides that behind its window.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    ctx: &Ctx,
    sizes: &Sizes,
    inputs: &Inputs,
    live: &mut Live,
    traffic: &mut ChainTraffic,
    m: &mut Metrics,
    failures: &mut Failures,
    phases: &mut Phases,
) -> u64 {
    let mixed = live.writer.is_some();
    let start = Instant::now();
    let cut_off = ctx.cut_off(start);
    // serve_point: this many requests untraced, then as many traced.
    // mixed_serve: the reader reads untraced for the first three tenths of
    // the writer's schedule and traced for the rest of it.
    let requests = ctx.timed_ops();
    let reference_until = start + (WRITE_PERIOD * inputs.writes.len() as u32).mul_f64(0.3);
    let writer_done = AtomicBool::new(false);
    let more = |now: Instant| !writer_done.load(Ordering::SeqCst) && now < cut_off;
    let mut tracer = Tracer::new();
    let mut agg = QueryAgg::default();
    let Live {
        reader,
        writer,
        service,
        server,
        ..
    } = live;
    let service: &DslogService = service;

    let (reference_ns, writes) = std::thread::scope(|scope| {
        let writing = writer.as_mut().map(|w| {
            scope.spawn(|| write_loop(w, &inputs.write_lines, start, cut_off, &writer_done))
        });
        // The reference: the root span's call, untraced.
        let mut reference_ns = Vec::new();
        if mixed {
            let more = |now| more(now) && now < reference_until;
            reference_ns = embedded_loop(service, traffic, more, u64::MAX, failures).all_ns;
        } else {
            while (reference_ns.len() as u64) < requests && Instant::now() < cut_off {
                let line = traffic.next_query().wire();
                let t0 = Instant::now();
                let ok = reader.roundtrip(&line).map(is_ok).unwrap_or(false);
                reference_ns.push(t0.elapsed().as_nanos() as u64);
                if !ok {
                    failures.fail(format!("`{}` failed", line.trim_end()));
                }
            }
        }
        let mut request = 0u64;
        let keep_tracing = |request: u64, now: Instant| {
            if mixed {
                more(now)
            } else {
                request < requests && now < cut_off
            }
        };
        while keep_tracing(request, Instant::now()) {
            let q = traffic.next_query();
            let path = q.path_refs();
            let mut parent = None;
            if !mixed {
                let line = q.wire();
                let (ok, net_span, net_ns) = tracer.span("net.query", None, request, || {
                    reader.roundtrip(&line).map(is_ok).unwrap_or(false)
                });
                if !ok {
                    failures.fail(format!("traced `{}` failed", line.trim_end()));
                }
                agg.net_ns.push(net_ns);
                parent = net_span;
            }
            let (answer, service_span, service_ns) =
                tracer.span("service.query", parent, request, || {
                    service.query(&path, &q.cells)
                });
            if let Err(e) = answer {
                failures.fail(format!("service.query: {e}"));
            }
            agg.service_ns.push(service_ns);
            let traced = service.with_db(|db| {
                qtrace::trace_db_query(&mut tracer, service_span, request, db, &q, &mut agg)
            });
            if let Err(e) = traced {
                failures.fail(e);
            }
            request += 1;
        }
        if !mixed {
            failures.cut_short(request, requests);
        }
        (
            reference_ns,
            writing.map(|h| h.join().expect("writer thread")),
        )
    });
    phases.end("timed");

    agg.report(m);
    let root = if mixed {
        "service.query_p50_us"
    } else {
        "net.query_p50_us"
    };
    m.set_trace_overhead(m.get(root), p50_us(&reference_ns));
    let writes = writes.unwrap_or_default();
    for e in &writes.errors {
        failures.fail(e.clone());
    }
    if !writes.ack_ns.is_empty() {
        let plain = p50_ms(&writes.ack_ns);
        m.set("service.ingest_ack_p50_ms", plain);
        m.set("service.ingest_batch_p50_ms", plain);
        // An acknowledgement that carried an auto-commit waited for it too.
        if !writes.ack_with_commit_ns.is_empty() {
            m.set(
                "service.commit_p50_ms",
                (p50_ms(&writes.ack_with_commit_ns) - plain).max(0.0),
            );
        }
        m.set(
            "gen.late_p99_ms",
            stats::percentile(&writes.late_ns, 99.0) as f64 / 1e6,
        );
    }

    // The frame + syscall + encode floor: the cheapest request there is.
    let mut stats_ns = Vec::with_capacity(2000);
    for _ in 0..if ctx.check { 200 } else { 2000 } {
        let t0 = Instant::now();
        if matches!(reader.roundtrip("stats\n"), Ok(r) if is_ok(r)) {
            stats_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    m.set("net.stats_roundtrip_p50_us", p50_us(&stats_ns));
    let hot: Vec<&str> = traffic.hot_paths()[0].iter().map(String::as_str).collect();
    let cells: Vec<Vec<i64>> = (0..256)
        .map(|i| vec![(i * 97 % sizes.cells) as i64])
        .collect();
    m.set(
        "query.batch_p50_us",
        service.with_db(|db| qtrace::batch_p50_us(db, &hot, &cells, 30)),
    );

    // Bytes per request of whichever connection carried the workload's
    // traffic: the reader's queries, or the writer's ingests.
    let carrier: &Client = writer.as_ref().unwrap_or(reader);
    let requests = carrier.requests.max(1) as f64;
    m.set(
        "net.request_bytes_per_op",
        carrier.bytes_sent as f64 / requests,
    );
    m.set(
        "net.response_bytes_per_op",
        carrier.bytes_received as f64 / requests,
    );
    let net = server.stats();
    m.set("net.requests", net.requests as f64);
    m.set("net.rejected_busy", net.rejected_busy as f64);
    m.set("net.oversized_frames", net.oversized_frames as f64);
    let s = service.stats();
    m.set("service.epochs", s.epoch as f64);
    m.set("service.auto_commits", s.auto_commits as f64);
    m.set("service.compactions", s.compactions as f64);
    m.set("service.failed_commits", s.failed_commits as f64);
    m.set(
        "reuse.composites_stored",
        service.with_db(|db| db.storage().n_composites()) as f64,
    );

    let attempted =
        reference_ns.len() as u64 + agg.service_ns.len() as u64 + inputs.writes.len() as u64;
    tracer.write(ctx, failures);
    phases.end("trace_report");
    attempted
}
