//! One writer per database directory.
//!
//! A handle's first commit into a directory takes its writer lock and keeps
//! it for the handle's life; a second writer is refused with
//! `DirectoryLocked`, and a handle that takes the lock only after another
//! writer committed is refused with `StaleGeneration` — never rebuilt into
//! a checkpoint that reverts that commit. Both refusals leave the directory
//! byte for byte as it was. The contract these tests pin: every commit that
//! returned `Ok` survives, and a reopen lands at the last `Ok` generation.

use dslog::api::{Dslog, TableCapture};
use dslog::storage::persist;
use dslog::table::LineageTable;
use dslog::DslogError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dslog-one-writer-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const CELLS: i64 = 16;
const EDGES: usize = 4;

/// `B{k}` cell `i` derives from `A{k}` cell `(i + shift) % 16`.
fn shift_table(shift: i64) -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    (0..CELLS).for_each(|i| t.push_row(&[i, (i + shift) % CELLS]));
    t
}

/// Stage edge `k` of `db` as the shift `shift`, replacing what it held.
fn stage(db: &mut Dslog, k: usize, shift: i64) {
    let capture = TableCapture::new(shift_table(shift));
    db.add_lineage(&format!("A{k}"), &format!("B{k}"), &capture)
        .unwrap();
}

/// A database of four shift-0 edges at `dir`, committed and dropped.
fn four_edges(dir: &Path) {
    let mut db = Dslog::options().create(dir).unwrap();
    for k in 0..EDGES {
        db.define_array(&format!("A{k}"), &[CELLS as usize])
            .unwrap();
        db.define_array(&format!("B{k}"), &[CELLS as usize])
            .unwrap();
        stage(&mut db, k, 0);
    }
    db.commit().unwrap();
}

/// Every file of `dir` with its bytes, sorted by name.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = (std::fs::read_dir(dir).unwrap().flatten())
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// What the commits that returned `Ok` promised: per edge, the shift of
/// the newest one that replaced it, and the newest generation.
#[derive(Default)]
struct Promised {
    shifts: BTreeMap<usize, (u64, i64)>,
    generation: u64,
}

impl Promised {
    fn landed(&mut self, generation: u64, edges: &[(usize, i64)]) {
        for &(k, shift) in edges {
            let newest = self.shifts.entry(k).or_insert((0, 0));
            if generation > newest.0 {
                *newest = (generation, shift);
            }
        }
        self.generation = self.generation.max(generation);
    }

    /// A reopen of `dir` lands at the newest generation and every edge
    /// holds its newest shift; the directory verifies.
    fn hold(&self, dir: &Path) {
        persist::verify(dir).unwrap();
        let db = Dslog::options().open(dir).unwrap();
        assert_eq!(db.bound_database().unwrap().2, self.generation);
        for k in 0..EDGES {
            let shift = self.shifts.get(&k).map_or(0, |s| s.1);
            let path = [format!("B{k}"), format!("A{k}")];
            let got = db.prov_query(&[&path[0], &path[1]], &[vec![0]]).unwrap();
            assert_eq!(got.cells.cell_set(), [vec![shift]].into(), "edge {k}");
        }
    }
}

/// The probe, in turns on one thread: handles A and B open one directory;
/// A replaces edges 0 and 1, B edges 2 and 3, 200 commits in all. A's first
/// commit takes the lock, so each of B's is refused and changes nothing.
/// Once A is dropped, B — still bound to the generation it opened — is
/// refused as stale, and a fresh handle commits on top.
#[test]
fn handles_taking_turns_lose_no_commit() {
    let dir = temp_dir("turns");
    four_edges(&dir);
    let mut handles = [
        Dslog::options().open(&dir).unwrap(),
        Dslog::options().open(&dir).unwrap(),
    ];
    let mut promised = Promised {
        generation: handles[0].bound_database().unwrap().2,
        ..Promised::default()
    };
    let mut refused = 0;
    for turn in 0..200 {
        let who = turn % 2;
        let edges = [(2 * who, turn as i64 % CELLS), (2 * who + 1, 1)];
        for &(k, shift) in &edges {
            stage(&mut handles[who], k, shift);
        }
        let image = dir_image(&dir);
        match handles[who].commit() {
            Ok(report) => promised.landed(report.generation, &edges),
            Err(e) => {
                assert_eq!((who, e), (1, DslogError::DirectoryLocked));
                assert_eq!(dir_image(&dir), image, "turn {turn}");
                refused += 1;
            }
        }
    }
    assert_eq!(refused, 100);
    let [a, b] = handles;
    drop(a);
    promised.hold(&dir);

    let image = dir_image(&dir);
    let stale = b.commit().unwrap_err();
    let committed = promised.generation;
    assert!(matches!(stale, DslogError::StaleGeneration { committed: c, .. } if c == committed));
    assert_eq!(dir_image(&dir), image, "a stale commit wrote");
    drop(b);
    let mut fresh = Dslog::options().open(&dir).unwrap();
    stage(&mut fresh, 3, 7);
    let report = fresh.commit().unwrap();
    promised.landed(report.generation, &[(3, 7)]);
    drop(fresh);
    promised.hold(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The probe, concurrently: two threads of 200 commits each, each thread on
/// its own handle and its own two edges, dropping the handle (and so the
/// lock) every fifth commit and after every refusal. Refusals are the
/// lock's or the stale generation's, and change nothing; every commit that
/// returned `Ok` survives: the window keeps every generation, and each one
/// an `Ok` commit made holds, per edge, the newest `Ok` shift at or before
/// it — so no commit was ever reverted by another's, not only in the end.
#[test]
fn two_threads_committing_lose_no_commit() {
    let dir = temp_dir("threads");
    four_edges(&dir);
    let landed = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|who: usize| {
                let dir = &dir;
                scope.spawn(move || {
                    let mut landed = Vec::new();
                    let mut db = None;
                    for turn in 0..200i64 {
                        let handle = db.get_or_insert_with(|| {
                            Dslog::options().wal_retention(1000).open(dir).unwrap()
                        });
                        let edges = [(2 * who, turn % CELLS), (2 * who + 1, (turn + 3) % CELLS)];
                        for &(k, shift) in &edges {
                            stage(handle, k, shift);
                        }
                        match handle.commit() {
                            Ok(report) => {
                                landed.push((report.generation, edges));
                                if turn % 5 == 4 {
                                    db = None;
                                }
                            }
                            Err(
                                DslogError::DirectoryLocked | DslogError::StaleGeneration { .. },
                            ) => db = None,
                            Err(e) => panic!("thread {who}, turn {turn}: {e}"),
                        }
                    }
                    landed
                })
            })
            .collect();
        let landed: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        landed
    });
    let mut commits: Vec<_> = landed.iter().flatten().collect();
    assert!(
        landed.iter().all(|l| !l.is_empty()),
        "a thread never committed"
    );
    commits.sort_by_key(|(generation, _)| *generation);
    let mut promised = Promised::default();
    for (generation, edges) in commits {
        promised.landed(*generation, edges);
        let db = Dslog::options().as_of(*generation).open(&dir).unwrap();
        for (k, (_, shift)) in &promised.shifts {
            let path = [format!("B{k}"), format!("A{k}")];
            let got = db.prov_query(&[&path[0], &path[1]], &[vec![0]]).unwrap();
            assert_eq!(
                got.cells.cell_set(),
                [vec![*shift]].into(),
                "edge {k} as of {generation}"
            );
        }
    }
    promised.hold(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}
