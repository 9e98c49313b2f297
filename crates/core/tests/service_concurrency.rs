//! Concurrency suite for the ingest-while-query service layer.
//!
//! The contracts under test:
//!
//! - **Snapshot consistency**: a query always sees a consistent edge set —
//!   an already-committed edge answers identically no matter how many
//!   ingest batches and commits race with the query, and a racing query
//!   over a fresh edge either fails with `NoLineagePath` (not installed
//!   yet) or returns the fully correct answer, never something partial.
//! - **No deadlocks**: ingest threads, commit threads, and query threads
//!   (over both eager and lazy opens) make progress together.
//! - **Epoch atomicity** (linearizability-style): readers spinning on
//!   `with_db`/`stats`/`query` concurrent with multi-edge `ingest_batch`
//!   calls, commits, and epoch swaps never observe half of a batch, a
//!   backwards-moving edge count, or a `pending_edges` underflow.
//! - **Network serving**: N TCP clients against one in-process listener
//!   ingest and query concurrently; every session gets correct answers
//!   and the combined result commits cleanly.
//! - **Readers beside a writer**: opens of a directory looping beside a
//!   handle that commits into it write nothing, so every commit lands and
//!   no reader ever finds the directory `Corrupt`.
//! - **Interleaving equivalence** (proptest): any sequence of
//!   append/commit/reopen operations ends in a database byte-identical at
//!   the table level to appending the same edges once and saving once.

use dslog::api::{Dslog, TableCapture};
use dslog::error::DslogError;
use dslog::net::{NetServer, ServeOptions};
use dslog::service::{AutoCommitPolicy, DslogService, IngestJob};
use dslog::storage::persist;
use dslog::table::LineageTable;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Unique per call, so proptest cases and parallel tests never collide.
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dslog-svc-conc-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic 1→1 lineage: `out[i] -> in[(i + shift) % n]`.
fn shifted_lineage(n: i64, shift: i64) -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    for i in 0..n {
        t.push_row(&[i, (i + shift) % n]);
    }
    t
}

/// Service over a freshly committed database holding one stable edge
/// `S0 -> S1` (shift 3 over 16 cells).
fn serving_db(dir: &std::path::Path, lazy: bool) -> DslogService {
    let mut db = Dslog::new();
    db.define_array("S0", &[16]).unwrap();
    db.define_array("S1", &[16]).unwrap();
    db.add_lineage("S0", "S1", &TableCapture::new(shifted_lineage(16, 3)))
        .unwrap();
    db.save(dir, false).unwrap();
    let db = Dslog::options().lazy(lazy).open(dir).unwrap();
    DslogService::new(db, AutoCommitPolicy::manual())
}

/// Threads appending + committing while others query, against an eager
/// and a lazy open. The stable edge must answer identically on every
/// query; racing queries over fresh edges must be all-or-nothing.
#[test]
fn ingest_commit_query_race() {
    for lazy in [false, true] {
        let dir = temp_dir(if lazy { "race-lazy" } else { "race" });
        let service = serving_db(&dir, lazy);
        const WRITERS: usize = 2;
        const BATCHES: usize = 8;
        const QUERIES: usize = 60;

        // The stable edge's expected answer: S1[5] -> S0[(5+3)%16 = 8].
        let expected = service.query(&["S1", "S0"], &[vec![5]]).unwrap().cells;
        assert!(expected.contains_cell(&[8]));

        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let service = &service;
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        let x = format!("W{w}B{b}x");
                        let y = format!("W{w}B{b}y");
                        service.define_array(&x, &[8]).unwrap();
                        service.define_array(&y, &[8]).unwrap();
                        service
                            .ingest_batch(vec![IngestJob::new(
                                x,
                                y,
                                shifted_lineage(8, (w + b) as i64 % 8),
                            )])
                            .unwrap();
                    }
                });
            }
            {
                let service = &service;
                scope.spawn(move || {
                    for _ in 0..BATCHES {
                        service.commit().unwrap();
                        std::thread::yield_now();
                    }
                });
            }
            for _ in 0..2 {
                let service = &service;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..QUERIES {
                        let r = service.query(&["S1", "S0"], &[vec![5]]).unwrap();
                        assert_eq!(
                            r.cells.cell_set(),
                            expected.cell_set(),
                            "stable edge answered differently mid-race"
                        );
                    }
                });
            }
            {
                // Race queries against edges the writers may not have
                // installed yet: all-or-nothing.
                let service = &service;
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        let x = format!("W0B{b}x");
                        let y = format!("W0B{b}y");
                        match service.query(&[y.as_str(), x.as_str()], &[vec![0]]) {
                            Ok(r) => {
                                // Installed: the full relation must be
                                // there. out[0] -> in[(0 + shift) % 8].
                                let shift = b as i64 % 8;
                                assert!(
                                    r.cells.contains_cell(&[shift]),
                                    "partial edge visible (batch {b})"
                                );
                            }
                            Err(DslogError::UnknownArray(_) | DslogError::NoLineagePath { .. }) => {
                            } // not installed yet: fine
                            Err(e) => panic!("unexpected query error: {e}"),
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });

        // Everything lands after a final commit; the database verifies
        // and reopens with every edge present and correct.
        let (db, commit) = service.shutdown().expect("shutdown");
        commit.unwrap();
        assert_eq!(db.storage().n_edges(), 1 + WRITERS * BATCHES);
        let report = persist::verify(&dir).unwrap();
        assert_eq!(report.n_edges, 1 + WRITERS * BATCHES);
        assert!(report.stale_files.is_empty(), "{:?}", report.stale_files);
        let reopened = Dslog::options().open(&dir).unwrap();
        for w in 0..WRITERS {
            for b in 0..BATCHES {
                let x = format!("W{w}B{b}x");
                let y = format!("W{w}B{b}y");
                let got = reopened
                    .storage()
                    .stored_table(&x, &y)
                    .unwrap()
                    .decompress()
                    .unwrap()
                    .row_set();
                assert_eq!(
                    got,
                    shifted_lineage(8, (w + b) as i64 % 8).row_set(),
                    "edge {x}->{y} corrupted by the race"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Linearizability-style epoch check: every batch installs exactly TWO
/// edges, so any reader — `with_db`, `stats`, or a query — must see the
/// edge count grow in steps of two from the seed, never by one (a
/// half-installed batch), and never shrink (a stale epoch published over
/// a newer one). Counter invariants hold throughout: `pending_edges`
/// never underflows past `edges_ingested`, even while commits subtract
/// concurrently with installs.
#[test]
fn epoch_readers_never_observe_partial_batches() {
    let dir = temp_dir("epoch-lin");
    let service = serving_db(&dir, false);
    const BATCHES: usize = 16;
    // Arrays are pre-defined so the writer loop below races ONLY batch
    // installs and commits against the readers.
    for b in 0..BATCHES {
        for part in ["a", "b", "c"] {
            service.define_array(&format!("P{b}{part}"), &[8]).unwrap();
        }
    }
    let seed_edges = service.with_db(|db| db.storage().n_edges());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let service = &service;
        let stop = &stop;
        scope.spawn(move || {
            for b in 0..BATCHES {
                service
                    .ingest_batch(vec![
                        IngestJob::new(format!("P{b}a"), format!("P{b}b"), shifted_lineage(8, 1)),
                        IngestJob::new(format!("P{b}b"), format!("P{b}c"), shifted_lineage(8, 2)),
                    ])
                    .unwrap();
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
        scope.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                service.commit().unwrap();
                std::thread::yield_now();
            }
        });
        for _ in 0..2 {
            scope.spawn(move || {
                let mut last_edges = seed_edges;
                let mut last_epoch = 0;
                while !stop.load(Ordering::Acquire) {
                    let n = service.with_db(|db| db.storage().n_edges());
                    let epoch_now = service.stats().epoch;
                    assert_eq!(
                        (n - seed_edges) % 2,
                        0,
                        "reader saw half of a two-edge batch"
                    );
                    assert!(n >= last_edges, "edge count went backwards");
                    last_edges = n;
                    assert!(epoch_now >= last_epoch, "epoch went backwards");
                    last_epoch = epoch_now;

                    let s = service.stats();
                    assert!(
                        s.pending_edges <= s.edges_ingested,
                        "pending_edges underflowed: {} pending vs {} ingested",
                        s.pending_edges,
                        s.edges_ingested
                    );
                    assert_eq!(
                        (s.edges - seed_edges) % 2,
                        0,
                        "stats saw half of a two-edge batch"
                    );

                    // The committed seed edge answers identically on every
                    // epoch, including mid-commit ones.
                    let r = service.query(&["S1", "S0"], &[vec![5]]).unwrap();
                    assert!(r.cells.contains_cell(&[8]));
                }
            });
        }
    });

    let (db, commit) = service.shutdown().expect("shutdown");
    commit.unwrap();
    assert_eq!(db.storage().n_edges(), seed_edges + 2 * BATCHES);
    persist::verify(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// N TCP clients against one in-process listener (more clients than
/// worker threads, so the admission queue cycles). Each client defines
/// its own arrays, ingests an edge inline, and queries it back — all
/// over the wire, racing every other session's installs and epoch swaps.
#[test]
fn net_clients_ingest_and_query_concurrently() {
    let dir = temp_dir("net-clients");
    let service = Arc::new(serving_db(&dir, false));
    let server = NetServer::spawn(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeOptions {
            workers: 3,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    const CLIENTS: usize = 8;

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                use std::io::{BufRead as _, BufReader, Write as _};
                let stream = std::net::TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut send = |req: String| -> String {
                    writer.write_all(req.as_bytes()).unwrap();
                    writer.write_all(b"\n").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    line
                };
                let shift = (c % 7 + 1) as i64;
                let rows: Vec<String> =
                    (0..8).map(|i| format!("{i},{}", (i + shift) % 8)).collect();
                assert!(send(format!("define C{c}x:8")).contains("\"ok\":true"));
                assert!(send(format!("define C{c}y:8")).contains("\"ok\":true"));
                let resp = send(format!("ingest C{c}x C{c}y {}", rows.join(";")));
                assert!(
                    resp.contains("\"ok\":true") && resp.contains("\"rows\":8"),
                    "{resp}"
                );
                // Our own edge: y[0] <- x[shift].
                let resp = send(format!("query C{c}y,C{c}x 0"));
                assert!(
                    resp.contains(&format!("\"boxes\":[[[{shift},{shift}]]]")),
                    "client {c}: {resp}"
                );
                // The shared committed edge answers mid-race, every time.
                let resp = send("query S1,S0 5".to_string());
                assert!(resp.contains("\"boxes\":[[[8,8]]]"), "client {c}: {resp}");
                let resp = send("stats".to_string());
                assert!(resp.contains("\"ok\":true"), "{resp}");
                assert!(send("quit".to_string()).contains("\"closing\":\"session\""));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert!(stats.requests >= (CLIENTS * 7) as u64);
    server.stop();
    server.join();
    let service = Arc::try_unwrap(service).expect("server joined");
    let (db, commit) = service.shutdown().expect("shutdown");
    commit.unwrap();
    assert_eq!(db.storage().n_edges(), 1 + CLIENTS);
    let report = persist::verify(&dir).unwrap();
    assert_eq!(report.n_edges, 1 + CLIENTS);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Commits racing ingest batches with an auto-commit policy on top: the
/// ticker, the threshold trigger, and explicit commits all interleave
/// without losing an edge.
#[test]
fn auto_commit_under_concurrent_ingest() {
    let dir = temp_dir("auto-race");
    let mut db = Dslog::new();
    db.save(&dir, false).unwrap();
    let service = DslogService::new(
        {
            db = Dslog::options().open(&dir).unwrap();
            db
        },
        AutoCommitPolicy {
            edge_threshold: Some(3),
            interval: Some(std::time::Duration::from_millis(5)),
        },
    );
    const WRITERS: usize = 3;
    const EDGES: usize = 6;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let service = &service;
            scope.spawn(move || {
                for e in 0..EDGES {
                    let x = format!("A{w}x{e}");
                    let y = format!("A{w}y{e}");
                    service.define_array(&x, &[4]).unwrap();
                    service.define_array(&y, &[4]).unwrap();
                    service
                        .ingest_batch(vec![IngestJob::new(x, y, shifted_lineage(4, 1))])
                        .unwrap();
                }
            });
        }
    });
    let (db, commit) = service.shutdown().expect("shutdown");
    commit.unwrap();
    assert_eq!(db.storage().n_edges(), WRITERS * EDGES);
    assert_eq!(
        Dslog::options().open(&dir).unwrap().storage().n_edges(),
        WRITERS * EDGES
    );
    persist::verify(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A second thread opens a directory in a loop, eager and lazy in turn,
/// while one handle makes 500 one-edge replace commits into its 10 edges.
/// Opens write nothing, so every commit succeeds, and the last open lands
/// at the writer's last generation with every edge's last content. A
/// reader never finds the directory `Corrupt`: an in-flight log append
/// reads as the log's end, and the one error it may meet is `Io`, from a
/// segment the writer deleted between the reader's replay and its read.
#[test]
fn opens_beside_a_committing_handle_lose_no_commit() {
    const EDGES: usize = 10;
    const COMMITS: usize = 500;
    const CELLS: i64 = 16;
    let dir = temp_dir("opens-beside-commits");
    let mut db = Dslog::options().create(&dir).unwrap();
    let names = |k: usize| (format!("S{k}"), format!("T{k}"));
    for k in 0..EDGES {
        let (from, to) = names(k);
        db.define_array(&from, &[CELLS as usize]).unwrap();
        db.define_array(&to, &[CELLS as usize]).unwrap();
        db.add_lineage(&from, &to, &TableCapture::new(shifted_lineage(CELLS, 0)))
            .unwrap();
    }
    db.commit().unwrap();
    let mut shifts = vec![0i64; EDGES];

    let writing = AtomicBool::new(true);
    let (failed_commits, (opened, errors)) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut opened, mut errors) = (0usize, Vec::new());
            while writing.load(Ordering::Acquire) {
                let lazy = (opened + errors.len()) % 2 == 1;
                match Dslog::options().lazy(lazy).open(&dir) {
                    Ok(_) => opened += 1,
                    Err(e) => errors.push(e),
                }
            }
            (opened, errors)
        });
        let mut failed = Vec::new();
        for c in 0..COMMITS {
            let k = c % EDGES;
            let shift = (c as i64 + 1) % CELLS;
            let (from, to) = names(k);
            let capture = TableCapture::new(shifted_lineage(CELLS, shift));
            db.add_lineage(&from, &to, &capture).unwrap();
            match db.commit() {
                Ok(_) => shifts[k] = shift,
                Err(e) => failed.push(format!("commit {c}: {e}")),
            }
        }
        writing.store(false, Ordering::Release);
        (failed, reader.join().unwrap())
    });
    assert!(failed_commits.is_empty(), "{failed_commits:?}");
    let corrupt: Vec<&DslogError> = (errors.iter())
        .filter(|e| !matches!(e, DslogError::Io(_)))
        .collect();
    assert!(
        corrupt.is_empty(),
        "{} of {} reader error(s) not Io, first {:?}",
        corrupt.len(),
        errors.len(),
        corrupt.first()
    );
    assert!(opened > 0, "no open succeeded beside the writer");
    // An open whose replay names a segment a commit then deletes reads the
    // moved log again, so next to no open fails.
    let opens = opened + errors.len();
    assert!(
        errors.len() * 100 < opens,
        "{} of {opens} opens failed beside the writer, first {:?}",
        errors.len(),
        errors.first()
    );

    let last = db.bound_database().unwrap().2;
    let reopened = Dslog::options().open(&dir).unwrap();
    assert_eq!(reopened.bound_database().unwrap().2, last);
    for (k, shift) in shifts.into_iter().enumerate() {
        let (from, to) = names(k);
        for i in 0..CELLS {
            let r = reopened.prov_query(&[&to, &from], &[vec![i]]).unwrap();
            let want = [vec![(i + shift) % CELLS]].into_iter().collect();
            assert_eq!(r.cells.cell_set(), want, "edge {k}, cell {i}");
        }
    }
    persist::verify(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One step of the interleaving proptest.
#[derive(Debug, Clone)]
enum Op {
    /// Append one edge with this shift (size fixed at 6).
    Append(i64),
    /// Incremental commit.
    Commit,
    /// Commit, drop the handle, reopen from disk (lazily when the flag
    /// says so) — a clean process restart.
    Reopen(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is unweighted: list `Append` twice to
    // bias runs toward sequences with several edges.
    prop_oneof![
        (0..6i64).prop_map(Op::Append),
        (0..6i64).prop_map(Op::Append),
        Just(Op::Commit),
        any::<bool>().prop_map(Op::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An arbitrary interleaving of append/commit/reopen produces a
    /// database table-identical to committing the same edges once.
    #[test]
    fn interleaving_equals_committed_once(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        gzip in any::<bool>(),
    ) {
        let dir = temp_dir("interleave");
        let mut db = Dslog::new();
        db.save(&dir, gzip).unwrap();

        let mut appended: Vec<(String, String, i64)> = Vec::new();
        let mut last_gen = db.bound_database().unwrap().2;
        for op in &ops {
            match op {
                Op::Append(shift) => {
                    let i = appended.len();
                    let x = format!("E{i}x");
                    let y = format!("E{i}y");
                    db.define_array(&x, &[6]).unwrap();
                    db.define_array(&y, &[6]).unwrap();
                    db.add_lineage(&x, &y, &TableCapture::new(shifted_lineage(6, *shift)))
                        .unwrap();
                    appended.push((x, y, *shift));
                }
                Op::Commit => {
                    let report = db.commit().unwrap();
                    prop_assert!(report.generation > last_gen);
                    last_gen = report.generation;
                }
                Op::Reopen(lazy) => {
                    let report = db.commit().unwrap();
                    prop_assert!(report.generation > last_gen);
                    last_gen = report.generation;
                    db = Dslog::options().lazy(*lazy).open(&dir).unwrap();
                    prop_assert_eq!(db.bound_database().unwrap().2, last_gen);
                }
            }
        }
        db.commit().unwrap();
        let report = persist::verify(&dir).unwrap();
        prop_assert_eq!(report.n_edges, appended.len());
        prop_assert!(report.stale_files.is_empty());

        // Reference: the same edges appended once and saved once.
        let ref_dir = temp_dir("interleave-ref");
        let mut reference = Dslog::new();
        for (x, y, shift) in &appended {
            reference.define_array(x, &[6]).unwrap();
            reference.define_array(y, &[6]).unwrap();
            reference
                .add_lineage(x, y, &TableCapture::new(shifted_lineage(6, *shift)))
                .unwrap();
        }
        reference.save(&ref_dir, gzip).unwrap();

        let via_interleaving = Dslog::options().open(&dir).unwrap();
        let via_once = Dslog::options().open(&ref_dir).unwrap();
        prop_assert_eq!(
            via_interleaving.storage().n_edges(),
            via_once.storage().n_edges()
        );
        for (x, y, _) in &appended {
            let a = via_interleaving
                .storage()
                .stored_table(x, y)
                .unwrap();
            let b = via_once
                .storage()
                .stored_table(x, y)
                .unwrap();
            prop_assert_eq!(&*a, &*b, "edge {}->{} diverged", x, y);
        }
        prop_assert_eq!(
            via_interleaving.storage().storage_bytes(),
            via_once.storage().storage_bytes()
        );

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&ref_dir).unwrap();
    }
}
