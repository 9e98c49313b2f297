//! Fault-injected durability tests for the operation log.
//!
//! The contract under test: a commit killed at ANY gated IO — log append,
//! log fsync, segment write, a fresh log's write and sync, directory sync —
//! leaves the store openable and verify-clean, with the visible state
//! equal to exactly the pre-op or the post-op snapshot, never a torn
//! mixture. And an `as_of` open resolves every retained generation to the
//! same answers as a directory copy taken when that generation was
//! current.
//!
//! A manager that has committed before remembers where its log ends and
//! which files its retained generations name, instead of reading them back
//! on every commit. The sweeps therefore interrupt commits made *on top of
//! earlier commits by the same handle* and retry on that handle, and two
//! further tests pin that the remembered tail costs the same whatever the
//! history behind it and is rebuilt whenever the directory stops matching
//! it.

use dslog::api::{Dslog, TableCapture};
use dslog::service::{AutoCommitPolicy, DslogService, IngestJob, MaintenancePolicy};
use dslog::storage::wal::{self, IoFault, IoPolicy, OpKind, OpRecord};
use dslog::storage::{format, persist};
use dslog::table::LineageTable;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dslog-wal-rob-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Identity lineage over two 1-d arrays of 6 cells.
fn chain_table() -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    for i in 0..6 {
        t.push_row(&[i, i]);
    }
    t
}

/// A[6,2] → B[6] with rows (i) ← (i, j), the shared sample edge.
fn first_edge_table() -> LineageTable {
    let mut t = LineageTable::new(1, 2);
    for i in 0..6 {
        for j in 0..2 {
            t.push_row(&[i, i, j]);
        }
    }
    t
}

/// Generations the seeded store holds before the commit under test.
const SEED_GENERATIONS: u64 = 3;

/// A policy that only counts gated IOs until it is re-armed.
fn idle_policy(fault: IoFault) -> Arc<IoPolicy> {
    IoPolicy::fail_at(fault, u64::MAX)
}

/// Commit three generations from one handle — arrays A, B and the A→B
/// edge, then two unrelated links — so the commit under test runs on the
/// tail that handle remembers, not on one freshly read from disk. Every
/// commit of the handle is gated by `policy`.
fn seed_store(dir: &Path, gzip: bool, policy: &Arc<IoPolicy>) -> Dslog {
    let mut db = Dslog::options().io_policy(policy.clone()).build().unwrap();
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    db.add_lineage("A", "B", &TableCapture::new(first_edge_table()))
        .unwrap();
    db.save(dir, gzip).unwrap();
    for (from, to) in [("P", "Q"), ("Q", "R")] {
        db.define_array(from, &[6]).unwrap();
        db.define_array(to, &[6]).unwrap();
        db.add_lineage(from, to, &TableCapture::new(chain_table()))
            .unwrap();
        db.commit().unwrap();
    }
    assert_eq!(db.bound_database().unwrap().2, SEED_GENERATIONS);
    db
}

/// Stage the next generation in memory: array C and the B→C edge.
fn stage_second_edge(db: &mut Dslog) {
    db.define_array("C", &[6]).unwrap();
    db.add_lineage("B", "C", &TableCapture::new(chain_table()))
        .unwrap();
}

/// The log must hold exactly `expected` — every define and ingest once,
/// in order, under contiguous op ids from 1 — whatever failed and was
/// retried on the way.
fn assert_history_is_exactly(dir: &Path, expected: &[String], context: &str) {
    let records = wal::history(dir).unwrap();
    let ids: Vec<u64> = records.iter().map(|r| r.op_id).collect();
    assert_eq!(
        ids,
        (1..=records.len() as u64).collect::<Vec<_>>(),
        "{context}"
    );
    let ops: Vec<String> = records
        .iter()
        .filter_map(|r| match &r.kind {
            OpKind::DefineArray { name, .. } => Some(format!("define {name}")),
            OpKind::IngestEdge {
                in_array,
                out_array,
                ..
            } => Some(format!("ingest {in_array}->{out_array}")),
            _ => None,
        })
        .collect();
    assert_eq!(ops, expected, "{context}");
}

/// What the log of a seeded store holds once the staged edge is committed
/// (re-defining Q with the shape it has logs nothing).
fn seeded_history() -> Vec<String> {
    [
        "define A",
        "define B",
        "ingest A->B",
        "define P",
        "define Q",
        "ingest P->Q",
        "define R",
        "ingest Q->R",
        "define C",
        "ingest B->C",
    ]
    .map(String::from)
    .to_vec()
}

/// Copy a flat database directory (no subdirectories are ever written).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Kill a commit at every gated IO position, for every injectable fault,
/// in both storage formats. Each kill point gets a fresh three-generation
/// store; after the injected failure a copy of the directory must open,
/// verify clean, and read as exactly the pre-op or the post-op generation.
/// Then the SAME handle retries: the store must hold both edges, and the
/// log every operation exactly once.
#[test]
fn kill_point_sweep_leaves_store_openable() {
    for gzip in [false, true] {
        for fault in [
            IoFault::WriteError,
            IoFault::DiskFull,
            IoFault::ShortWrite,
            IoFault::SyncError,
        ] {
            // Measure the commit's gated-IO count with a tripwire placed
            // beyond any plausible position.
            let dir = temp_dir(&format!("probe-{gzip}-{fault:?}"));
            let probe = idle_policy(fault);
            let mut db = seed_store(&dir, gzip, &probe);
            stage_second_edge(&mut db);
            probe.rearm(1_000_000);
            db.commit().unwrap();
            let total = probe.ios_seen();
            assert!(total >= 3, "commit performed only {total} gated IOs");
            std::fs::remove_dir_all(&dir).unwrap();

            // Whether a fault at an earlier IO let the commit report
            // success: once past the commit point, every later one does.
            let mut past_commit_point = false;
            for n in 1..=total {
                let context = format!("{fault:?} at IO {n} (gzip={gzip})");
                let dir = temp_dir(&format!("kill-{gzip}-{fault:?}-{n}"));
                let policy = idle_policy(fault);
                let mut db = seed_store(&dir, gzip, &policy);
                stage_second_edge(&mut db);
                policy.rearm(n);
                // A fault after the commit point costs only the checkpoint
                // that follows it: the commit reports success, and the
                // store below must hold the new generation.
                let landed = db.commit().is_ok();
                assert!(landed || !past_commit_point, "{context} surfaced");
                assert!(!landed || n > 1, "{context} did not surface");
                past_commit_point = landed;

                // The wounded store — as a crash right here would leave it
                // — opens, verifies, and answers queries.
                let wounded = temp_dir(&format!("wounded-{gzip}-{fault:?}-{n}"));
                copy_dir(&dir, &wounded);
                let re = Dslog::options()
                    .open(&wounded)
                    .unwrap_or_else(|e| panic!("{context} broke open: {e}"));
                persist::verify(&wounded).unwrap_or_else(|e| panic!("{context} broke verify: {e}"));
                let generation = re.bound_database().unwrap().2;
                let pre = re.prov_query(&["B", "A"], &[vec![1]]).unwrap();
                assert!(pre.cells.contains_cell(&[1, 0]), "{context}");
                if generation == SEED_GENERATIONS {
                    assert!(!landed, "{context}: a reported commit is missing");
                    // Pre-op: the staged edge never became visible.
                    assert!(
                        re.prov_query(&["C", "B"], &[vec![1]]).is_err(),
                        "{context}: pre-op store answers a post-op query"
                    );
                } else {
                    // Post-op: the commit point was passed before the fault.
                    assert_eq!(generation, SEED_GENERATIONS + 1, "{context}: torn");
                    let post = re.prov_query(&["C", "B"], &[vec![1]]).unwrap();
                    assert!(post.cells.contains_cell(&[1]), "{context}");
                }
                // History stays readable whatever the kill point.
                wal::history(&wounded).unwrap_or_else(|e| panic!("{context} broke history: {e}"));
                std::fs::remove_dir_all(&wounded).unwrap();

                // The policy trips once: the same handle retries on a tail
                // it has to rebuild, and lands everything exactly once.
                db.commit()
                    .unwrap_or_else(|e| panic!("{context}: retry failed: {e}"));
                drop(db);
                let re = Dslog::options().open(&dir).unwrap();
                for path in [["C", "B"], ["R", "Q"]] {
                    let r = re.prov_query(&path, &[vec![1]]).unwrap();
                    assert!(r.cells.contains_cell(&[1]), "{context}: {path:?}");
                }
                persist::verify(&dir).unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_history_is_exactly(&dir, &seeded_history(), &context);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

/// After an injected failure the SAME handle retries and lands the
/// generation; the error does not poison the in-memory state.
#[test]
fn failed_commit_retries_cleanly() {
    for fault in [IoFault::WriteError, IoFault::SyncError] {
        let dir = temp_dir(&format!("retry-{fault:?}"));
        let policy = idle_policy(fault);
        let mut db = seed_store(&dir, false, &policy);
        stage_second_edge(&mut db);
        policy.rearm(1);
        assert!(db.commit().is_err());
        // The policy trips exactly once; the retry runs fault-free. The
        // retried commit may skip a generation number — file debris from
        // the failed attempt reserves it — so only monotonicity is pinned.
        db.commit().unwrap();
        let committed = db.bound_database().unwrap().2;
        assert!(
            committed > SEED_GENERATIONS,
            "retry landed at generation {committed}"
        );

        let re = Dslog::options().open(&dir).unwrap();
        let r = re.prov_query(&["C", "B"], &[vec![1]]).unwrap();
        assert!(r.cells.contains_cell(&[1]));
        persist::verify(&dir).unwrap();
        assert_eq!(re.bound_database().unwrap().2, committed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Arrays of the as-of chain: A[6,2] → B → C → D → E, one link a generation.
const CHAIN: [&str; 5] = ["A", "B", "C", "D", "E"];

/// Add link `k` of the chain (`k = 0` is the A→B edge) to `db`, uncommitted.
fn stage_chain_link(db: &mut Dslog, k: usize) {
    let table = if k == 0 {
        db.define_array("A", &[6, 2]).unwrap();
        first_edge_table()
    } else {
        chain_table()
    };
    db.define_array(CHAIN[k + 1], &[6]).unwrap();
    db.add_lineage(CHAIN[k], CHAIN[k + 1], &TableCapture::new(table))
        .unwrap();
}

/// One run of the as-of parity check. Three chain links are committed by
/// one handle, a directory copy taken while each generation is current;
/// then the operation under test — the commit of a fourth link, or with
/// `compacted` a compaction on top of it — runs with a short write (a
/// failed sync, at sync sites) injected at gated IO `fail_at`, is retried
/// on the same handle if it failed, and an `as_of` open must answer every
/// generation copied so far exactly as its copy does. Returns how many
/// gated IOs the operation under test performed.
fn as_of_parity_case(gzip: bool, compacted: bool, fail_at: Option<u64>) -> u64 {
    let context = format!("gzip={gzip} compacted={compacted} fail_at={fail_at:?}");
    let dir = temp_dir(&format!("asof-{gzip}-{compacted}-{}", fail_at.unwrap_or(0)));
    let snap_of = |generation: u64| {
        dir.with_file_name(format!(
            "{}-snap{generation}",
            dir.file_name().unwrap().to_string_lossy()
        ))
    };
    // (generation, chain links it holds), a directory copy of each.
    let mut generations: Vec<(u64, usize)> = Vec::new();
    let mut snapshot = |db: &Dslog, links: usize| {
        let generation = db.bound_database().unwrap().2;
        copy_dir(&dir, &snap_of(generation));
        generations.push((generation, links));
    };

    let policy = idle_policy(IoFault::ShortWrite);
    let mut db = Dslog::options()
        .wal_retention(8)
        .io_policy(policy.clone())
        .build()
        .unwrap();
    stage_chain_link(&mut db, 0);
    db.save(&dir, gzip).unwrap();
    snapshot(&db, 1);
    let committed_links = if compacted { 4 } else { 3 };
    for k in 1..committed_links {
        stage_chain_link(&mut db, k);
        db.commit().unwrap();
        snapshot(&db, k + 1);
    }

    policy.rearm(fail_at.unwrap_or(u64::MAX));
    if !compacted {
        stage_chain_link(&mut db, 3);
    }
    let run = |db: &Dslog| {
        if compacted {
            db.compact().map(drop)
        } else {
            db.commit().map(drop)
        }
    };
    let before = db.bound_database().unwrap().2;
    let first = run(&db);
    let ios = policy.ios_seen();
    if fail_at.is_some_and(|n| n <= ios) {
        match first {
            // Past the commit point a fault costs only what follows it
            // (a checkpoint, or a compaction's log record): the generation
            // stands.
            Ok(()) => assert!(db.bound_database().unwrap().2 > before, "{context}"),
            Err(_) => run(&db).unwrap_or_else(|e| panic!("{context}: retry failed: {e}")),
        }
    } else {
        first.unwrap_or_else(|e| panic!("{context}: {e}"));
    }
    snapshot(&db, 4);
    drop(db);

    for &(generation, links) in &generations {
        let asof = Dslog::options()
            .as_of(generation)
            .open(&dir)
            .unwrap_or_else(|e| panic!("{context}: as-of {generation} failed: {e}"));
        let snap = Dslog::options().open(snap_of(generation)).unwrap();
        for hops in 1..=links {
            let path: Vec<&str> = CHAIN[..=hops].iter().rev().copied().collect();
            for probe in [1i64, 3] {
                let a = asof.prov_query(&path, &[vec![probe]]).unwrap();
                let b = snap.prov_query(&path, &[vec![probe]]).unwrap();
                assert_eq!(
                    a.cells.cell_set(),
                    b.cells.cell_set(),
                    "{context}: as-of {generation} diverged from its copy on {path:?}"
                );
            }
        }
        // Arrays from later generations must not leak backwards.
        if links < 4 {
            let later: Vec<&str> = CHAIN[..=links + 1].iter().rev().copied().collect();
            assert!(asof.prov_query(&later, &[vec![1]]).is_err(), "{context}");
        }
    }
    assert!(Dslog::options().as_of(99).open(&dir).is_err());
    persist::verify(&dir).unwrap_or_else(|e| panic!("{context}: {e}"));
    let expected: Vec<String> = ["define A", "define B", "ingest A->B"]
        .into_iter()
        .map(String::from)
        .chain((1..4).flat_map(|k| {
            [
                format!("define {}", CHAIN[k + 1]),
                format!("ingest {}->{}", CHAIN[k], CHAIN[k + 1]),
            ]
        }))
        .collect();
    assert_history_is_exactly(&dir, &expected, &context);

    for (generation, _) in generations {
        std::fs::remove_dir_all(snap_of(generation)).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
    ios
}

/// An `as_of` open answers every retained generation exactly as a directory
/// copy taken while that generation was current — plain and gzip, through
/// a plain commit and through a compaction, and whichever gated IO of
/// that last operation failed first and had to be retried.
#[test]
fn as_of_parity_with_snapshot_copies() {
    for gzip in [false, true] {
        for compacted in [false, true] {
            let total = as_of_parity_case(gzip, compacted, None);
            assert!(total >= 3, "only {total} gated IOs");
            for n in 1..=total {
                as_of_parity_case(gzip, compacted, Some(n));
            }
        }
    }
}

/// The log records the whole session in order, with actor attribution, and
/// the reopened database is what it committed: a logged composite adds no
/// edge.
#[test]
fn history_replays_the_session() {
    let dir = temp_dir("history");
    let mut db = Dslog::options().wal_actor("suite").build().unwrap();
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    db.add_lineage("A", "B", &TableCapture::new(first_edge_table()))
        .unwrap();
    db.save(&dir, false).unwrap();
    db.define_array("C", &[6]).unwrap();
    db.add_lineage("B", "C", &TableCapture::new(chain_table()))
        .unwrap();
    // The third sighting of a two-hop path materializes its composite.
    for _ in 0..3 {
        db.prov_query(&["C", "B", "A"], &[vec![1]]).unwrap();
    }
    assert!(db.storage().has_composite(&["C", "B", "A"]));
    db.commit().unwrap();

    let records = wal::history(&dir).unwrap();
    let ids: Vec<u64> = records.iter().map(|r| r.op_id).collect();
    assert_eq!(ids, (1..=records.len() as u64).collect::<Vec<_>>());
    assert!(records.iter().all(|r| r.actor == "suite"));
    assert_eq!(
        records
            .iter()
            .filter(|r| matches!(r.kind, OpKind::Commit { .. }))
            .count(),
        2
    );

    // An ingest record's digest is the crc32 of the table's serialized
    // payload — the trailer its table file ends in — so it tells the two
    // edges apart (not the crc32 of bytes that end in their own crc32,
    // which is 0x2144df1c whatever the bytes).
    let mut digests = Vec::new();
    for record in &records {
        if let OpKind::IngestEdge {
            in_array,
            out_array,
            bytes,
            digest,
        } = &record.kind
        {
            let stored = db.storage().stored_table(in_array, out_array).unwrap();
            let file = format::serialize(&stored);
            assert_eq!(*bytes, file.len() as u64);
            assert_eq!(digest.to_le_bytes(), file[file.len() - 4..]);
            digests.push(*digest);
        }
    }
    assert_eq!(digests.len(), 2);
    assert_ne!(digests[0], digests[1]);
    assert!(!digests.contains(&0x2144_df1c));

    let composite = OpKind::Composite {
        path: vec!["C".into(), "B".into(), "A".into()],
    };
    assert!(records.iter().any(|r| r.kind == composite), "{records:?}");
    let reopened = Dslog::options().open(&dir).unwrap();
    assert_eq!(reopened.storage().array_names(), ["A", "B", "C"]);
    assert_eq!(reopened.storage().n_edges(), 2);
    assert!(reopened.storage().has_directed_edge("A", "B"));
    assert!(reopened.storage().has_directed_edge("B", "C"));
    assert_eq!(
        reopened.bound_database().unwrap().2,
        db.bound_database().unwrap().2
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The actor travels with the operation: a handle's defines, ingests and
/// explicit commits are logged under its configured actor however many
/// background commits and compactions ran in between, and those name the
/// policy that triggered them — for their own records only.
#[test]
fn actor_travels_with_the_operation() {
    let dir = temp_dir("actor");
    let db = Dslog::options()
        .wal_actor("alice")
        .maintenance(MaintenancePolicy::every_generations(1))
        .create(&dir)
        .unwrap();
    let service = DslogService::new(db, AutoCommitPolicy::every_edges(1));
    for name in ["A", "B", "C"] {
        service.define_array(name, &[6]).unwrap();
    }
    for (from, to) in [("A", "B"), ("B", "C")] {
        let report = service
            .ingest_batch(vec![IngestJob::new(from, to, chain_table())])
            .unwrap();
        report.auto_commit.expect("threshold reached").unwrap();
    }
    service.commit().unwrap();
    // Only the second threshold commit leaves more than one live segment;
    // the explicit commit writes none.
    assert_eq!(service.stats().compactions, 1);

    let records = wal::history(&dir).unwrap();
    // The create, two threshold commits, the explicit one, and the
    // compaction the second threshold commit made due.
    let mut own_commits = ["alice", "auto-commit", "auto-commit", "alice"].into_iter();
    let mut compacting = false;
    for (i, record) in records.iter().enumerate() {
        // A checkpoint is logged by whoever logs the commit that closes it.
        let closing = |r: &&OpRecord| matches!(r.kind, OpKind::Commit { .. });
        let closed_by = records[i..].iter().find(closing).unwrap();
        let expected = match &record.kind {
            OpKind::Checkpoint(_) => closed_by.actor.as_str(),
            OpKind::DefineArray { .. } | OpKind::IngestEdge { .. } => "alice",
            OpKind::Compact { .. } => "maintenance",
            OpKind::Commit { .. } if compacting => "maintenance",
            OpKind::Commit { .. } => own_commits.next().expect("more commits than made"),
            other => panic!("unexpected record {other:?}"),
        };
        compacting = matches!(record.kind, OpKind::Compact { .. });
        assert_eq!(
            record.actor,
            expected,
            "#{} {}",
            record.op_id,
            record.kind.describe()
        );
    }
    assert_eq!(own_commits.next(), None);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Garbage appended to the log is ignored by an open, which leaves it
/// where it is, and cut from the live log by the next commit, which has to
/// rebuild its tail and so starts a fresh log: the old one, torn bytes and
/// all, is retired, where every reader ignores them. The store keeps
/// committing cleanly afterwards.
#[test]
fn torn_log_tail_is_cut_by_the_next_commit() {
    let dir = temp_dir("torn");
    let mut db = seed_store(&dir, false, &idle_policy(IoFault::WriteError));
    stage_second_edge(&mut db);
    db.commit().unwrap();
    drop(db);

    let log_path = dir.join("ops.log");
    let clean = std::fs::read(&log_path).unwrap();
    let before = wal::history(&dir).unwrap();
    let mut torn = clean.clone();
    torn.extend_from_slice(&42u32.to_le_bytes());
    torn.extend_from_slice(b"half a frame");
    std::fs::write(&log_path, &torn).unwrap();

    // Open recovers: the tail is ignored, and left as it was.
    let mut re = Dslog::options().open(&dir).unwrap();
    assert_eq!(wal::history(&dir).unwrap(), before);
    assert_eq!(std::fs::read(&log_path).unwrap(), torn);
    persist::verify(&dir).unwrap();

    // The next commit starts a fresh log after the clean prefix's records:
    // its checkpoint, then the commit's own records.
    re.define_array("D", &[6]).unwrap();
    re.add_lineage("C", "D", &TableCapture::new(chain_table()))
        .unwrap();
    re.commit().unwrap();
    let log = std::fs::read(&log_path).unwrap();
    assert_eq!(wal::read_log(&log).1, log.len());
    let retired = dir.join(format!("ops.g{}.log", SEED_GENERATIONS + 1));
    assert_eq!(std::fs::read(retired).unwrap(), torn);
    let after = wal::history(&dir).unwrap();
    assert_eq!(&after[..before.len()], &before[..]);
    let kinds: Vec<&str> = after[before.len()..]
        .iter()
        .map(|r| r.kind.name())
        .collect();
    assert_eq!(kinds, ["checkpoint", "define", "ingest", "commit"]);
    drop(re);
    let reopened = Dslog::options().open(&dir).unwrap();
    assert_eq!(reopened.bound_database().unwrap().2, SEED_GENERATIONS + 2);
    assert!(reopened.storage().has_directed_edge("C", "D"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every reader leaves a directory a crashed process left dirty byte for
/// byte as it was — a torn log frame after an unvouched `IngestEdge`
/// record, an orphan segment and retired log, `*.tmp` files: an eager
/// open, a lazy open and its first query, `as_of` of the live and of a
/// retained generation, `verify` and the history. The first commit of a
/// handle opened on it then deletes the debris and starts a fresh log,
/// whose op ids follow the old log's last committed one; the old log is
/// retired as it was, and the history lists its committed records only.
#[test]
fn readers_leave_a_dirty_directory_alone() {
    let dir = temp_dir("dirty");
    let mut db = Dslog::options().wal_retention(2).create(&dir).unwrap();
    for k in 0..3 {
        commit_link(&mut db, k);
    }
    let live = db.bound_database().unwrap().2;
    drop(db);

    let log_path = dir.join(wal::OPS_LOG_FILE);
    let clean = std::fs::read(&log_path).unwrap();
    let committed = wal::history(&dir).unwrap();
    let record = |op_id, kind| OpRecord {
        op_id,
        timestamp_ms: 0,
        actor: "crashed".to_string(),
        gen_before: live,
        gen_after: live,
        kind,
    };
    let last_op = committed.last().unwrap().op_id;
    let unvouched = record(
        last_op + 1,
        OpKind::IngestEdge {
            in_array: "X000".to_string(),
            out_array: "Y000".to_string(),
            bytes: 42,
            digest: 0,
        },
    );
    let torn = wal::encode_record(&record(last_op + 2, OpKind::ConvertGzip { gzip: true }));
    let mut dirty = clean.clone();
    dirty.extend_from_slice(&wal::encode_record(&unvouched));
    dirty.extend_from_slice(&torn[..torn.len() / 2]);
    std::fs::write(&log_path, &dirty).unwrap();
    let mut debris = [
        "segment-0.g90.seg",
        "ops.g89.log",
        "segment-0.g91.seg.tmp",
        "ops.log.tmp",
    ];
    for name in debris {
        std::fs::write(dir.join(name), b"debris").unwrap();
    }
    debris.sort();
    let image = dir_image(&dir);

    let answers = |db: &Dslog| {
        let r = db.prov_query(&["Y000", "X000"], &[vec![1]]).unwrap();
        assert!(r.cells.contains_cell(&[1]));
    };
    let eager = Dslog::options().open(&dir).unwrap();
    answers(&eager);
    assert_eq!(dir_image(&dir), image, "eager open");
    let lazy = Dslog::options().lazy(true).open(&dir).unwrap();
    answers(&lazy);
    assert_eq!(dir_image(&dir), image, "lazy open and first query");
    for generation in [live, live - 1] {
        answers(&Dslog::options().as_of(generation).open(&dir).unwrap());
        assert_eq!(dir_image(&dir), image, "as_of({generation})");
    }
    let report = persist::verify(&dir).unwrap();
    assert_eq!(report.stale_files, debris);
    assert_eq!(dir_image(&dir), image, "verify");
    let mut history = committed.clone();
    history.push(unvouched);
    assert_eq!(wal::history(&dir).unwrap(), history);
    assert_eq!(dir_image(&dir), image, "history");

    let mut db = Dslog::options().wal_retention(2).open(&dir).unwrap();
    commit_link(&mut db, 3);
    let report = persist::verify(&dir).unwrap();
    assert!(report.stale_files.is_empty(), "{:?}", report.stale_files);
    for name in debris {
        assert!(!dir.join(name).exists(), "{name} survived the commit");
    }
    let log = std::fs::read(&log_path).unwrap();
    let (appended, appended_len) = wal::read_log(&log);
    assert_eq!(appended_len, log.len());
    let kinds: Vec<&str> = appended.iter().map(|r| r.kind.name()).collect();
    assert_eq!(
        kinds,
        ["checkpoint", "define", "define", "ingest", "commit"]
    );
    assert_eq!(appended[0].op_id, last_op + 1);
    let generation = db.bound_database().unwrap().2;
    assert_eq!(appended[4].gen_after, generation);
    let retired = (std::fs::read_dir(&dir).unwrap().flatten())
        .filter(|e| e.file_name().to_string_lossy().starts_with("ops.g"))
        .any(|e| std::fs::read(e.path()).unwrap() == dirty);
    assert!(retired, "the dirty log was not retired as it was");
    let mut history = committed.clone();
    history.extend(appended);
    assert_eq!(wal::history(&dir).unwrap(), history);
    drop(db);
    let reopened = Dslog::options().open(&dir).unwrap();
    assert_eq!(reopened.bound_database().unwrap().2, generation);
    for k in 0..4 {
        let path = [format!("Y{k:03}"), format!("X{k:03}")];
        let r = (reopened.prov_query(&[&path[0], &path[1]], &[vec![1]])).unwrap();
        assert!(r.cells.contains_cell(&[1]), "edge {k}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Commit one more identity link `X{k:03} → Y{k:03}` (fixed-width names,
/// so records differ in varint widths only).
fn commit_link(db: &mut Dslog, k: usize) {
    let (from, to) = (format!("X{k:03}"), format!("Y{k:03}"));
    db.define_array(&from, &[6]).unwrap();
    db.define_array(&to, &[6]).unwrap();
    db.add_lineage(&from, &to, &TableCapture::new(chain_table()))
        .unwrap();
    db.commit().unwrap();
}

fn log_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(wal::OPS_LOG_FILE))
        .unwrap()
        .len()
}

/// A commit costs what it changes, not what came before it: after 200
/// one-edge commits by one handle, the 200th performs the same gated IOs
/// and grows the log by the same bytes as the 3rd (neither is due for a
/// checkpoint: those come after 1, 2, 4, … 128 committed edges), and the
/// directory holds nothing but the live log, one retired log per
/// checkpoint before it, the writer lock and the live tables — with and
/// without retention.
#[test]
fn commit_cost_is_independent_of_history() {
    const COMMITS: usize = 200;
    for retain in [0u32, 3] {
        let dir = temp_dir(&format!("flat-{retain}"));
        let probe = idle_policy(IoFault::WriteError);
        let mut db = Dslog::options()
            .wal_retention(retain)
            .io_policy(probe.clone())
            .create(&dir)
            .unwrap();
        let mut cost = Vec::with_capacity(COMMITS);
        for k in 0..COMMITS {
            let before = (probe.ios_seen(), log_len(&dir));
            commit_link(&mut db, k);
            // A checkpoint commit starts the log over: its growth is not
            // counted.
            let grown = log_len(&dir).saturating_sub(before.1);
            cost.push((probe.ios_seen() - before.0, grown));
        }
        let ((ios_early, log_early), (ios_late, log_late)) = (cost[2], cost[COMMITS - 1]);
        assert_eq!(
            ios_late, ios_early,
            "gated IOs per commit (retain={retain})"
        );
        // Op ids, generations and the segment name outgrow one varint byte
        // or digit between the 3rd commit and the 200th; nothing else may.
        assert!(
            log_late.abs_diff(log_early) <= 16,
            "log bytes per commit went {log_early} -> {log_late} (retain={retain})"
        );

        let live = db.bound_database().unwrap().2;
        let report = persist::verify(&dir).unwrap();
        assert_eq!(report.files_verified, COMMITS);
        assert!(report.stale_files.is_empty(), "{:?}", report.stale_files);
        // One segment per commit (every one still holds a live table), the
        // logs and the lock.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let first = live + 1 - COMMITS as u64;
        // Each checkpoint's generation is its transaction's commit's.
        let mut checkpoints: Vec<u64> = Vec::new();
        let mut opened = false;
        for record in wal::history(&dir).unwrap() {
            match record.kind {
                OpKind::Checkpoint(_) => opened = true,
                OpKind::Commit { .. } if opened => {
                    checkpoints.push(record.gen_after);
                    opened = false;
                }
                _ => {}
            }
        }
        assert_eq!(checkpoints.len(), 9, "the create, then 1, 2, 4 … 128 edges");
        let retired = checkpoints[..8].iter().map(|g| format!("ops.g{g}.log"));
        let mut expected: Vec<String> = ((first..=live).map(|g| format!("segment-0.g{g}.seg")))
            .chain(retired)
            .chain([persist::LOCK_FILE, wal::OPS_LOG_FILE].map(String::from))
            .collect();
        expected.sort();
        assert_eq!(names, expected, "retain={retain}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The remembered tail cannot lie: when the log changes behind a handle's
/// back between two of its commits — cut mid-frame, or garbage appended —
/// the next commit notices, rebuilds the tail from the directory, and
/// carries on: the history stays one clean, monotonic sequence ending in
/// the commit after, and the store verifies with every edge of the handle
/// in it. A deleted log is no such case: the log is the database, so the
/// commit is refused as `Corrupt` and writes nothing. And another handle
/// cannot change the directory at all while this one holds its lock.
#[test]
fn tampered_directory_makes_the_next_commit_rebuild_its_tail() {
    for tamper in ["truncate", "garbage", "delete", "second-writer"] {
        let dir = temp_dir(&format!("lie-{tamper}"));
        let mut db = Dslog::options().wal_retention(2).create(&dir).unwrap();
        for k in 0..3 {
            commit_link(&mut db, k);
        }
        let before = db.bound_database().unwrap().2;

        let log_path = dir.join(wal::OPS_LOG_FILE);
        let log = std::fs::read(&log_path).unwrap();
        match tamper {
            // Mid-frame: the last commit record is cut in half.
            "truncate" => std::fs::write(&log_path, &log[..log.len() - 7]).unwrap(),
            "garbage" => {
                let mut longer = log.clone();
                longer.extend_from_slice(b"\x2a\0\0\0not a frame at all");
                std::fs::write(&log_path, longer).unwrap();
            }
            "delete" => {
                std::fs::remove_file(&log_path).unwrap();
                let image = dir_image(&dir);
                let err = db.commit().unwrap_err();
                assert_eq!(
                    err,
                    dslog::DslogError::Corrupt("database files without an ops.log")
                );
                assert_eq!(dir_image(&dir), image, "{tamper}");
                std::fs::remove_dir_all(&dir).unwrap();
                continue;
            }
            _ => {
                let other = Dslog::options().open(&dir).unwrap();
                let image = dir_image(&dir);
                for refused in [other.compact(), other.commit()] {
                    assert_eq!(refused, Err(dslog::DslogError::DirectoryLocked));
                }
                assert_eq!(dir_image(&dir), image, "{tamper}");
            }
        }

        commit_link(&mut db, 3);
        // …and the commit after that runs on the rebuilt tail.
        commit_link(&mut db, 4);
        let after = db.bound_database().unwrap().2;
        assert!(after >= before + 2, "{tamper}: {before} -> {after}");

        let records = wal::history(&dir).unwrap();
        assert!(
            records.windows(2).all(|w| w[0].op_id < w[1].op_id),
            "{tamper}"
        );
        let last = records.last().unwrap();
        assert!(matches!(last.kind, OpKind::Commit { .. }), "{tamper}");
        assert_eq!(last.gen_after, after, "{tamper}");
        let image = std::fs::read(&log_path).unwrap();
        assert_eq!(
            wal::read_log(&image).1,
            image.len(),
            "{tamper}: torn bytes left in the log"
        );
        // Both post-tamper commits are in it, whole.
        for k in [3, 4] {
            let ingest = format!("X{k:03}");
            assert!(
                records.iter().any(|r| matches!(&r.kind,
                    OpKind::IngestEdge { in_array, .. } if *in_array == ingest)),
                "{tamper}: ingest of {ingest} missing from the log"
            );
        }

        let report = persist::verify(&dir).unwrap_or_else(|e| panic!("{tamper}: {e}"));
        assert!(
            report.stale_files.is_empty(),
            "{tamper}: {:?}",
            report.stale_files
        );
        let re = Dslog::options().open(&dir).unwrap();
        for k in 0..5 {
            let path = [format!("Y{k:03}"), format!("X{k:03}")];
            let r = re
                .prov_query(&[path[0].as_str(), path[1].as_str()], &[vec![1]])
                .unwrap();
            assert!(r.cells.contains_cell(&[1]), "{tamper}: edge {k}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A log holding a record of the retired kind that embedded a whole
/// catalog in each commit is refused: open, a lazy open, `verify` and the
/// history all say `Corrupt`, and the log is left as it was.
#[test]
fn a_log_with_an_embedded_catalog_commit_is_refused() {
    let dir = temp_dir("kind4");
    let db = seed_store(&dir, false, &idle_policy(IoFault::WriteError));
    drop(db);
    let log_path = dir.join(wal::OPS_LOG_FILE);
    let mut log = std::fs::read(&log_path).unwrap();
    let last_op = wal::history(&dir).unwrap().last().unwrap().op_id;
    let catalog = b"DSLGDB3\0 an embedded catalog".to_vec();
    let mut body = vec![1u8]; // record version
    for v in [last_op + 1, 1_700_000_000_000] {
        dslog_codecs::varint::write_uvarint(&mut body, v);
    }
    body.extend_from_slice(&[3, b'o', b'l', b'd', 3, 4, 4]); // actor, generations, kind 4
    dslog_codecs::varint::write_uvarint(&mut body, catalog.len() as u64);
    body.extend_from_slice(&catalog);
    log.extend_from_slice(&(body.len() as u32).to_le_bytes());
    log.extend_from_slice(&body);
    log.extend_from_slice(&dslog_codecs::crc32::crc32(&body).to_le_bytes());
    std::fs::write(&log_path, &log).unwrap();

    let retired = dslog::DslogError::Corrupt("retired log record kind");
    for result in [
        Dslog::options().open(&dir).map(drop),
        Dslog::options().lazy(true).open(&dir).map(drop),
        persist::verify(&dir).map(drop),
        wal::history(&dir).map(drop),
    ] {
        assert_eq!(result.unwrap_err(), retired);
    }
    assert_eq!(std::fs::read(&log_path).unwrap(), log);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file of a flat directory with its bytes, sorted by name.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The log is the only copy of the generations committed since its
/// checkpoint, so damage that hides one is refused, not cut away as a torn
/// tail: one flipped byte in a record that clean records of a newer commit
/// follow, a clean commit record whose table names no `IngestEdge` record
/// of its append, and one that starts from another generation than the
/// records before it replay to. Open, a lazy open, `as_of` and `verify` all say `Corrupt`, and
/// so does the next commit of a handle bound to the directory once it has
/// to rebuild its tail; the log and every segment stay as they were.
#[test]
fn damage_to_committed_records_is_refused() {
    for damage in ["flip", "no-ingest", "no-checkpoint"] {
        let dir = temp_dir(&format!("damage-{damage}"));
        let policy = idle_policy(IoFault::WriteError);
        let mut db = Dslog::options()
            .io_policy(policy.clone())
            .create(&dir)
            .unwrap();
        // The first two links are checkpoint commits; the third is a record
        // commit after the live log's checkpoint.
        for k in 0..3 {
            commit_link(&mut db, k);
        }
        let generation = db.bound_database().unwrap().2;
        assert!(dslog::storage::persist::verify(&dir).is_ok());

        let log_path = dir.join(wal::OPS_LOG_FILE);
        let mut log = std::fs::read(&log_path).unwrap();
        let records = wal::read_log(&log).0;
        let last = records.last().unwrap();
        let commit = |gen_before: u64, tables: Vec<(u64, u64, u64, u32, u64)>| {
            wal::encode_record(&wal::OpRecord {
                op_id: last.op_id + 1,
                timestamp_ms: 0,
                actor: "test".into(),
                gen_before,
                gen_after: generation + 1,
                kind: OpKind::Commit {
                    segment: format!("segment-0.g{}.seg", generation + 1),
                    tables,
                    retained_from: generation + 1,
                },
            })
        };
        match damage {
            // A byte inside the frame of the third link's first record: the
            // rest of that link's append follows, clean.
            "flip" => {
                let first = (records.iter())
                    .position(
                        |r| matches!(&r.kind, OpKind::DefineArray { name, .. } if name == "X002"),
                    )
                    .unwrap();
                let offset: usize = (records[..first].iter())
                    .map(|r| wal::encode_record(r).len())
                    .sum();
                log[offset + 6] ^= 0x10;
            }
            "no-ingest" => log.extend_from_slice(&commit(generation, vec![(3, 0, 8, 0, 8)])),
            _ => log.extend_from_slice(&commit(generation + 5, Vec::new())),
        }
        std::fs::write(&log_path, &log).unwrap();
        let before = dir_image(&dir);

        for (how, result) in [
            ("open", Dslog::options().open(&dir).map(drop)),
            ("lazy", Dslog::options().lazy(true).open(&dir).map(drop)),
            (
                "as_of",
                Dslog::options().as_of(generation).open(&dir).map(drop),
            ),
            ("verify", persist::verify(&dir).map(drop)),
        ] {
            let err = result.expect_err(&format!("{damage}: {how} accepted the log"));
            assert!(
                matches!(err, dslog::DslogError::Corrupt(_)),
                "{damage}: {how}: {err}"
            );
        }
        // A failed commit (nothing to write: its log append fails and is
        // cut back) makes the handle distrust its tail.
        policy.rearm(1);
        assert!(db.commit().is_err());
        policy.rearm(u64::MAX);
        let err = db.commit().expect_err(&format!("{damage}: commit"));
        assert!(
            matches!(err, dslog::DslogError::Corrupt(_)),
            "{damage}: commit: {err}"
        );
        drop(db);
        assert_eq!(dir_image(&dir), before, "{damage}: the directory changed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One step of a random session on a bound database of four edges
/// `A{k} -> B{k}`: replace an edge with a shift, commit, compact, or
/// convert the directory to the other gzip mode (a full rewrite).
#[derive(Debug, Clone)]
enum Step {
    Ingest(usize, i64),
    Commit,
    Compact,
    Convert,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..4, 0i64..6).prop_map(|(k, shift)| Step::Ingest(k, shift)),
        Just(Step::Commit),
        Just(Step::Compact),
        Just(Step::Convert),
    ]
}

/// `B{k}` cell `i` derives from `A{k}` cell `(i + shift) % 6`.
fn shifted(shift: i64) -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    (0..6).for_each(|i| t.push_row(&[i, (i + shift) % 6]));
    t
}

/// Every edge's shift as `db` answers it (`None`: no such edge).
fn shifts(db: &Dslog) -> Vec<Option<i64>> {
    (0..4)
        .map(|k| {
            let path = [format!("B{k}"), format!("A{k}")];
            let got = db.prov_query(&[&path[0], &path[1]], &[vec![0]]).ok()?;
            got.cells.cell_set().into_iter().next().map(|cell| cell[0])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sessions of ingests, commits, compactions and gzip
    /// conversions, under a retention of 0–3 generations, rotate the log
    /// at least twice. An `as_of` open of every generation the window keeps
    /// answers what a replay of the session from genesis says that
    /// generation held, and every older one is not retained. The history
    /// across the retired logs and the live one lists every operation once
    /// and each log's checkpoint once, under strictly increasing op ids.
    #[test]
    fn as_of_across_rotations_equals_a_replay_from_genesis(
        retain in 0u32..4,
        steps in proptest::collection::vec(arb_step(), 4..24),
    ) {
        let dir = temp_dir(&format!("rotations-{retain}"));
        let mut db = Dslog::options().wal_retention(retain).create(&dir).unwrap();
        for k in 0..4 {
            db.define_array(&format!("A{k}"), &[6]).unwrap();
            db.define_array(&format!("B{k}"), &[6]).unwrap();
        }
        // The first edge makes a checkpoint due, and the session ends in a
        // compaction: two rotations at least.
        let session = [&[Step::Ingest(0, 1), Step::Commit][..], &steps, &[Step::Compact]].concat();
        let mut gzip = false;
        let mut held = vec![None; 4];
        let mut generations = vec![(db.bound_database().unwrap().2, held.clone())];
        let (mut ingests, mut commits, mut compactions, mut conversions) = (0, 1, 0, 0);
        for step in &session {
            let committed = match step {
                Step::Ingest(k, shift) => {
                    let capture = TableCapture::new(shifted(*shift));
                    db.add_lineage(&format!("A{k}"), &format!("B{k}"), &capture).unwrap();
                    held[*k] = Some(*shift);
                    ingests += 1;
                    continue;
                }
                Step::Commit => db.commit().map(|r| r.generation),
                Step::Compact => {
                    compactions += 1;
                    db.compact().map(|r| r.generation)
                }
                Step::Convert => {
                    gzip = !gzip;
                    conversions += 1;
                    db.save(&dir, gzip).map(|()| db.bound_database().unwrap().2)
                }
            };
            commits += 1;
            generations.push((committed.unwrap(), held.clone()));
        }
        let live = generations.last().unwrap().0;
        prop_assert_eq!(shifts(&Dslog::options().open(&dir).unwrap()), held.clone());
        drop(db);

        let kept = generations.len() - 1 - (retain as usize).min(generations.len() - 1);
        for (i, (generation, held)) in generations.iter().enumerate() {
            let as_of = Dslog::options().as_of(*generation).open(&dir);
            if i >= kept {
                prop_assert_eq!(&shifts(&as_of.unwrap()), held, "as of {}", generation);
            } else {
                prop_assert_eq!(as_of.map(drop), Err(dslog::DslogError::GenerationNotRetained(*generation)));
            }
        }

        let history = wal::history(&dir).unwrap();
        prop_assert!(history.windows(2).all(|w| w[0].op_id < w[1].op_id));
        let count = |name: &str| history.iter().filter(|r| r.kind.name() == name).count();
        let logs = std::fs::read_dir(&dir).unwrap().flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("ops."))
            .count();
        prop_assert!(logs >= 3, "{} logs", logs);
        prop_assert_eq!(count("checkpoint"), logs);
        prop_assert_eq!(count("define"), 8);
        prop_assert_eq!(count("ingest"), ingests);
        prop_assert_eq!(count("commit"), commits);
        prop_assert_eq!(count("compact"), compactions);
        prop_assert_eq!(count("convert"), conversions);
        prop_assert_eq!(history.last().unwrap().gen_after, live);
        persist::verify(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
