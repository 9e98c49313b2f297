//! Lock-discipline regression tests for the persistence hot path.
//!
//! `persist::commit` is the one place in the workspace that does file IO
//! while a lock is deliberately held — the `storage.commit` mutex, whose
//! whole job is serializing commits and which is therefore marked
//! `io_safe` in its [`dslog_sync::LockMeta`]. This test pins that down:
//! a full save + incremental commit, run under `dslog_sync::capture`,
//! must enter IO sections yet record **zero** violations — meaning no
//! non-`io_safe` instrumented lock (binding, composites, edge slots) is
//! ever held across `write_atomic`/`sync_dir`.
//!
//! The checker only exists in debug builds, so everything here is gated
//! on `debug_assertions` (release builds compile the wrappers down to
//! raw locks with no bookkeeping to observe).

#![cfg(debug_assertions)]

use dslog::api::{Dslog, TableCapture};
use dslog::table::LineageTable;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dslog-sync-guard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lineage(rows: i64) -> LineageTable {
    let mut t = LineageTable::new(1, 2);
    for i in 0..rows {
        for j in 0..2 {
            t.push_row(&[i, i, j]);
        }
    }
    t
}

#[test]
fn commit_io_runs_without_non_io_safe_locks_held() {
    let dir = temp_dir("commit");
    let mut db = Dslog::new();
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    db.add_lineage("A", "B", &TableCapture::new(lineage(6)))
        .unwrap();

    let before = dslog_sync::stats();
    let (report, violations) = dslog_sync::capture(|| {
        // Full save binds the directory; the commit after a mutation
        // exercises the incremental path (slot reuse + sweep) as well.
        db.save(&dir, false).expect("initial save");
        db.define_array("C", &[6]).expect("define C");
        db.commit().expect("incremental commit")
    });
    let after = dslog_sync::stats();

    assert!(
        violations.is_empty(),
        "persist::commit held a non-io_safe lock across file IO: {violations:?}"
    );
    assert!(
        after.io_sections > before.io_sections,
        "commit never entered an instrumented IO section — io_guard calls missing?"
    );
    assert!(after.acquisitions > before.acquisitions);
    assert!(
        report.generation >= 2,
        "second commit should advance the generation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_path_is_violation_free() {
    let dir = temp_dir("query");
    let mut db = Dslog::new();
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    db.add_lineage("A", "B", &TableCapture::new(lineage(6)))
        .unwrap();
    db.save(&dir, false).unwrap();

    let reopened = Dslog::options().open(&dir).unwrap();
    let ((), violations) = dslog_sync::capture(|| {
        let result = reopened
            .prov_query(&["B", "A"], &[vec![3]])
            .expect("backward query");
        assert!(!result.cells.is_empty());
    });
    assert!(
        violations.is_empty(),
        "query path tripped the lock checker: {violations:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
