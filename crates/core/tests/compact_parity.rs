//! Property-based parity suite for generation compaction: an arbitrary
//! interleaving of ingest / commit / compact / reopen (eager and lazy)
//! must leave the database answering queries exactly like a
//! never-compacted twin that committed at the same points, and time
//! travel (`as_of`) must keep resolving every generation the retention
//! window spares — with identical results in both databases, since
//! compaction and a plain commit consume one generation each.
//!
//! This is the executable form of compaction's core contract: folding
//! the physical layout into segments is invisible to every logical read.

use dslog::api::TableCapture;
use dslog::table::LineageTable;
use dslog::{Dslog, DslogError};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Longest array chain a case may build (L0 -> L1 -> ... -> L5).
const MAX_EDGES: usize = 6;
const DIM: usize = 4;
/// Generations of time travel both databases retain.
const RETAIN: u32 = 16;

#[derive(Debug, Clone)]
enum Op {
    /// Ingest edge `k % (chain len + 1)` with a table derived from `seed`
    /// (re-ingesting an existing edge replaces its lineage in both twins).
    Ingest {
        k: usize,
        seed: i64,
    },
    Commit,
    /// Real database compacts; the twin just commits. Both consume one
    /// generation, so `as_of` coordinates stay comparable.
    Compact,
    Reopen {
        lazy: bool,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted pick (the vendored proptest has no weighted prop_oneof):
    // ingests dominate so chains actually grow between maintenance ops.
    (0usize..9, 0usize..MAX_EDGES, 0i64..97, prop::bool::ANY).prop_map(|(w, k, seed, lazy)| match w
    {
        0..=3 => Op::Ingest { k, seed },
        4 | 5 => Op::Commit,
        6 | 7 => Op::Compact,
        _ => Op::Reopen { lazy },
    })
}

fn edge_table(seed: i64) -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    for i in 0..DIM as i64 {
        // Every output cell has a contributor, so chain queries never go
        // empty; the permutation varies with the seed.
        t.push_row(&[i, (i * 3 + seed).rem_euclid(DIM as i64)]);
    }
    t
}

/// Full-chain backward query over `n_edges` hops: cells of L0 reached
/// from cell `[1]` of the chain tip, as a canonical set.
fn chain_query(db: &Dslog, n_edges: usize) -> Option<BTreeSet<Vec<i64>>> {
    if n_edges == 0 {
        return None;
    }
    let names: Vec<String> = (0..=n_edges).rev().map(|i| format!("L{i}")).collect();
    let path: Vec<&str> = names.iter().map(String::as_str).collect();
    let result = db.prov_query(&path, &[vec![1]]).unwrap();
    Some(result.cells.cell_set())
}

fn fresh_dir(label: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dslog-parity-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One database under test: a directory, a live handle, and the op
/// replay that keeps it in lockstep with its twin.
struct Instance {
    dir: std::path::PathBuf,
    db: Dslog,
    /// Whether `Op::Compact` folds (real) or merely commits (twin).
    compacts: bool,
}

impl Instance {
    fn create(label: &str, compacts: bool) -> Self {
        let dir = fresh_dir(label);
        let db = Dslog::options().wal_retention(RETAIN).create(&dir).unwrap();
        Self { dir, db, compacts }
    }

    fn apply(&mut self, op: &Op, defined: usize) {
        match op {
            Op::Ingest { k, seed } => {
                let k = k % defined.clamp(1, MAX_EDGES);
                for name in [format!("L{k}"), format!("L{}", k + 1)] {
                    if self.db.storage().array(&name).is_err() {
                        self.db.define_array(&name, &[DIM]).unwrap();
                    }
                }
                self.db
                    .add_lineage(
                        &format!("L{k}"),
                        &format!("L{}", k + 1),
                        &TableCapture::new(edge_table(*seed)),
                    )
                    .unwrap();
            }
            Op::Commit => {
                self.db.commit().unwrap();
            }
            Op::Compact => {
                if self.compacts {
                    self.db.compact().unwrap();
                } else {
                    self.db.commit().unwrap();
                }
            }
            Op::Reopen { lazy } => {
                self.db = Dslog::options()
                    .lazy(*lazy)
                    .wal_retention(RETAIN)
                    .open(&self.dir)
                    .unwrap();
            }
        }
    }

    fn generation(&self) -> u64 {
        self.db.bound_database().unwrap().2
    }

    /// Whatever is in the directory besides the one on-disk shape: the
    /// writer lock, the retired logs, the live log, and one segment per
    /// generation.
    fn foreign_files(&self) -> Vec<String> {
        let of_a_generation = |name: &str, prefix: &str, suffix: &str| {
            let generation = name
                .strip_prefix(prefix)
                .and_then(|n| n.strip_suffix(suffix));
            generation.is_some_and(|g| !g.is_empty() && g.bytes().all(|b| b.is_ascii_digit()))
        };
        std::fs::read_dir(&self.dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| {
                n != "writer.lock"
                    && n != "ops.log"
                    && !of_a_generation(n, "ops.g", ".log")
                    && !of_a_generation(n, "segment-0.g", ".seg")
            })
            .collect()
    }
}

proptest! {
    // Each case performs real commits, compactions, and reopens on disk,
    // so the case count stays modest; the interleavings are what matter.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacted_database_is_indistinguishable_from_uncompacted_twin(
        ops in prop::collection::vec(arb_op(), 1..18)
    ) {
        let mut real = Instance::create("real", true);
        let mut twin = Instance::create("twin", false);
        // Live chain tip, and the tip as of the last commit: a reopen
        // discards uncommitted ingests (in both databases identically),
        // so the queryable path shrinks back to the committed one.
        let mut chain = 0usize;
        let mut chain_committed = 0usize;
        // (generation, chain length at that commit) for as-of replay.
        let mut committed: Vec<(u64, usize)> = Vec::new();

        for op in &ops {
            real.apply(op, chain + 1);
            twin.apply(op, chain + 1);
            match op {
                Op::Ingest { k, .. } => {
                    chain = chain.max((k % (chain + 1).min(MAX_EDGES)) + 1);
                }
                Op::Commit | Op::Compact => {
                    chain_committed = chain;
                    prop_assert_eq!(real.generation(), twin.generation());
                    committed.push((real.generation(), chain));
                }
                Op::Reopen { .. } => chain = chain_committed,
            }
            // Live parity after every single step, whatever the physical
            // layouts now look like — and they only ever look one way.
            prop_assert_eq!(chain_query(&real.db, chain), chain_query(&twin.db, chain));
            prop_assert_eq!(real.foreign_files(), Vec::<String>::new());
            prop_assert_eq!(twin.foreign_files(), Vec::<String>::new());
        }

        // Cold-open parity: eager and lazy reopens of both directories
        // agree with each other.
        chain = chain_committed;
        for lazy in [false, true] {
            let op = Op::Reopen { lazy };
            real.apply(&op, chain + 1);
            twin.apply(&op, chain + 1);
            prop_assert_eq!(chain_query(&real.db, chain), chain_query(&twin.db, chain));
        }

        // Time-travel parity: every generation inside the retention
        // window resolves in BOTH databases to the same answers the twin
        // gives, or is reported not-retained by both. Compaction swept
        // only what retention permitted it to sweep.
        for (generation, chain_then) in committed {
            let open_as_of = |dir: &std::path::Path| {
                Dslog::options().as_of(generation).open(dir)
            };
            match (open_as_of(&real.dir), open_as_of(&twin.dir)) {
                (Ok(r), Ok(t)) => {
                    prop_assert_eq!(
                        chain_query(&r, chain_then),
                        chain_query(&t, chain_then),
                        "as-of {} diverged", generation
                    );
                }
                (
                    Err(DslogError::GenerationNotRetained(a)),
                    Err(DslogError::GenerationNotRetained(b)),
                ) => {
                    prop_assert_eq!(a, generation);
                    prop_assert_eq!(b, generation);
                }
                (r, t) => {
                    return Err(TestCaseError::fail(format!(
                        "as-of {generation} disagreed: real={r:?} twin={t:?}"
                    )));
                }
            }
        }

        let _ = std::fs::remove_dir_all(&real.dir);
        let _ = std::fs::remove_dir_all(&twin.dir);
    }
}
