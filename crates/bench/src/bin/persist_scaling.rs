//! Persistence scaling bench: save / eager-open / lazy-open timings plus
//! the incremental-commit series (append one edge + commit vs full save)
//! on a database of incompressible (scatter) edges, plain vs gzip disk
//! format. The database is a 32-edge chain totalling `rows` lineage rows
//! — the paper's workload shape (many registered operations), and the
//! regime where full-save cost is O(edges), not one big file.
//!
//! Tracks the cost model of the durable layer: a full `save` pays
//! serialization + checksums + atomic renames for every table, eager
//! `open` pays read + crc verify + decode for every table, lazy `open`
//! pays O(catalog) up front and defers each table's read/verify/decode to
//! its first query hop (also timed). An **incremental commit** after
//! appending one tiny edge must pay only O(new edge), plus a checkpoint
//! amortized over as many edges — the
//! `commit_speedup` column tracks how much cheaper that is than a full
//! save of the same database. Scale-independent invariants are asserted
//! on every run: each commit reuses all clean files, `verify` passes on
//! the mixed-generation snapshot, and a reopen sees every appended edge.
//!
//! The **`commit_vs_history`** series holds the commit to "O(changed
//! edges)" against the history behind it: one handle commits one tiny edge
//! at a time, and at 10 / 100 / 1 000 committed edges the series records,
//! over the commits that wrote no checkpoint, the commit p50, the bytes a
//! commit writes (segment + `ops.log` growth), the log growth alone and
//! the gated IOs a commit makes (counted by an `IoPolicy` that never
//! trips); and separately the checkpoint commits so far — found by the
//! log's rotation: a commit whose edges since the last checkpoint reach its
//! edge count (after 1, 2, 4, … edges) starts a fresh `ops.log` headed by
//! the new checkpoint — with their p50 and the bytes of the last one.
//! The bin asserts a non-checkpoint commit at the last step writes at most
//! 2x the bytes it writes at the first step and that every non-checkpoint
//! commit makes the same number of gated IOs, and prints the numbers the
//! parent commit gave beside them. The commit p50 is reported, not gated:
//! on a shared box it swings several-fold between runs of the same code,
//! while the IO count and the bytes do not move.
//!
//! The **`open_vs_history`** series holds an open to O(one checkpoint)
//! against the history behind it: a fixed 10-edge database takes one
//! replace commit per step, and at 10 / 100 / 1 000 / 4 000 commits the
//! series records the `ops.log` bytes an open reads (and the most it read
//! after any commit so far; after every commit it is asserted to be at
//! most the log's checkpoint transaction plus one checkpoint's worth, 10,
//! of one-table transactions) and the eager and lazy open p50s, reported
//! beside the parent commit's (where every open decoded the whole log),
//! not gated.
//!
//! The **`cold_open`** object says where a cold start's time goes: the
//! crc32 rate over the bytes of the generations axis' accreted chain and
//! the rate of `format::deserialize` (checksum + decode) over them; then,
//! for the benchmark's `reopen` database shape at four sizes from its own
//! 0.94 MB to over 10 MB, the eager open and how many decode workers the
//! library gave it. Its `parent` block keeps the crossovers measured at
//! the parent commit — the last one whose knobs could force each fan-out
//! on and off — that the library's three grain constants come from.
//!
//! Emits an aligned table on stdout and machine-readable
//! `BENCH_persist.json` in the working directory.
//!
//! Run: `cargo run -p dslog-bench --release --bin persist_scaling [--scale f]`

use dslog::api::{Dslog, TableCapture};
use dslog::storage::format;
use dslog::storage::wal::{IoFault, IoPolicy};
use dslog::table::LineageTable;
use dslog_bench::{cli_scale_seed, p50, secs, timed, TextTable};
use dslog_workloads::edges;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;

struct Point {
    rows: usize,
    gzip: bool,
    db_bytes: u64,
    save_s: f64,
    open_eager_s: f64,
    open_lazy_s: f64,
    lazy_first_query_s: f64,
    append_p50_s: f64,
    commit_p50_s: f64,
    full_save_p50_s: f64,
}

impl Point {
    fn commit_speedup(&self) -> f64 {
        self.full_save_p50_s / self.commit_p50_s.max(1e-12)
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// A tiny (8-row) edge between two fresh arrays, the unit of "append".
fn small_edge(tag: usize) -> (String, String, LineageTable) {
    let mut t = LineageTable::new(1, 1);
    for i in 0..8 {
        t.push_row(&[i, (i + 1 + tag as i64) % 8]);
    }
    (format!("X{tag}"), format!("Y{tag}"), t)
}

/// Edges in the measured database chain.
const CHAIN_EDGES: usize = 32;

fn measure(rows: usize, gzip: bool, reps: usize) -> Point {
    let dir = std::env::temp_dir().join(format!(
        "dslog-persist-bench-{rows}-{gzip}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // A 32-edge chain N0 -> N1 -> … -> N32 of incompressible scatter
    // edges (`edges::scatter`): ProvRC finds no ranges to merge, so the
    // table files grow with the row count — the regime where persistence
    // costs dominate. `rows` is the database total.
    let per_edge = (rows / CHAIN_EDGES).max(64);
    let names: Vec<String> = (0..=CHAIN_EDGES).map(|i| format!("N{i}")).collect();
    let mut db = Dslog::new();
    for name in &names {
        db.define_array(name, &[per_edge]).unwrap();
    }
    for hop in 0..CHAIN_EDGES {
        let (lineage, _, _) = edges::scatter(per_edge);
        db.add_lineage(&names[hop], &names[hop + 1], &TableCapture::new(lineage))
            .unwrap();
    }

    let (_, save_s) = timed(|| db.save(&dir, gzip).unwrap());
    let db_bytes = dir_bytes(&dir);
    let (_, open_eager_s) = timed(|| Dslog::options().open(&dir).unwrap());
    let (lazy, open_lazy_s) = timed(|| Dslog::options().lazy(true).open(&dir).unwrap());
    // First hop through a lazily opened database: read + verify + decode +
    // index build for that one edge (of 32 — the rest stay on disk).
    let cell = vec![(per_edge / 2) as i64];
    let (_, lazy_first_query_s) = timed(|| lazy.prov_query(&["N1", "N0"], &[cell]).unwrap());

    // Incremental series: append one tiny edge, commit, repeat. Each
    // commit may rewrite only the new edge; every earlier file must be
    // reused (asserted — this is the O(changed edges) contract).
    let mut append_samples = Vec::with_capacity(reps);
    let mut commit_samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (x, y, t) = small_edge(rep);
        let (_, append_s) = timed(|| {
            db.define_array(&x, &[8]).unwrap();
            db.define_array(&y, &[8]).unwrap();
            db.add_lineage(&x, &y, &TableCapture::new(t)).unwrap();
        });
        let (report, commit_s) = timed(|| db.commit().unwrap());
        assert!(report.incremental, "commit into bound dir not incremental");
        assert_eq!(
            (report.files_written, report.files_reused),
            (1, CHAIN_EDGES + rep),
            "incremental commit rewrote clean files"
        );
        append_samples.push(append_s);
        commit_samples.push(commit_s);
    }
    // Invariants (scale-independent): the mixed-generation snapshot
    // verifies clean and a reopen sees every appended edge.
    let report = dslog::storage::persist::verify(&dir).unwrap();
    assert_eq!(report.n_edges, CHAIN_EDGES + reps, "edge count mismatch");
    assert!(report.stale_files.is_empty(), "{:?}", report.stale_files);
    assert_eq!(
        Dslog::options().open(&dir).unwrap().storage().n_edges(),
        CHAIN_EDGES + reps
    );

    // Full-save baseline on the SAME database state: save into a fresh
    // (unbound) directory, which rewrites every table.
    let mut full_samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let full_dir = dir.with_extension(format!("full{rep}"));
        let _ = std::fs::remove_dir_all(&full_dir);
        let (_, full_s) = timed(|| db.save(&full_dir, gzip).unwrap());
        full_samples.push(full_s);
        let _ = std::fs::remove_dir_all(&full_dir);
    }
    // The full saves re-bound the database elsewhere; no commits follow.

    let _ = std::fs::remove_dir_all(&dir);
    Point {
        // Actual total (per-edge row counts are floored at small scales).
        rows: per_edge * CHAIN_EDGES,
        gzip,
        db_bytes,
        save_s,
        open_eager_s,
        open_lazy_s,
        lazy_first_query_s,
        append_p50_s: p50(&mut append_samples),
        commit_p50_s: p50(&mut commit_samples),
        full_save_p50_s: p50(&mut full_samples),
    }
}

/// The generations axis: what `G` accreted commit generations cost at
/// open time, and what compaction buys back.
struct GenPoint {
    generations: usize,
    rows: usize,
    /// Open + first 1-hop query, p50 — same logical database three ways:
    /// freshly saved in one generation, accreted over `G` generations,
    /// and accreted-then-compacted.
    onegen_open_query_s: f64,
    multi_open_query_s: f64,
    compacted_open_query_s: f64,
    /// Bytes in the accreted chain's table files, and the p50 time to
    /// checksum them all and to `format::deserialize` them all.
    table_bytes: usize,
    crc32_s: f64,
    deserialize_s: f64,
}

impl GenPoint {
    /// Rate of a pass over the table files that took `secs`.
    fn mb_s(&self, secs: f64) -> f64 {
        self.table_bytes as f64 / 1e6 / secs.max(1e-12)
    }
}

/// Open eagerly and run one backward hop through the chain tip — the
/// "time to first answer" a cold reader pays.
fn open_and_first_query(dir: &std::path::Path, tip: usize, per_edge: usize) -> f64 {
    let names = [format!("N{tip}"), format!("N{}", tip - 1)];
    let path: Vec<&str> = names.iter().map(String::as_str).collect();
    let cell = vec![(per_edge / 2) as i64];
    let (_, s) = timed(|| {
        let db = Dslog::options().open(dir).unwrap();
        db.prov_query(&path, std::slice::from_ref(&cell)).unwrap();
    });
    s
}

fn measure_generations(scale: f64, reps: usize) -> GenPoint {
    // Enough generations that accretion visibly dominates at full scale,
    // few enough to stay cheap in the drift gate.
    let generations = if scale < 0.05 { 8 } else { 64 };
    // Enough rows per edge that decode + crc dominates the O(catalog + log)
    // bookkeeping of an open.
    let per_edge = ((1_000_000.0 * scale) as usize / generations).max(64);
    let dir = std::env::temp_dir().join(format!(
        "dslog-persist-gens-{generations}-{}",
        std::process::id()
    ));
    let onegen_dir = dir.with_extension("onegen");
    for d in [&dir, &onegen_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    // Accrete: one new chain edge per commit, `generations` commits, so
    // the catalog references one generation-named segment per edge.
    let mut db = Dslog::new();
    db.define_array("N0", &[per_edge]).unwrap();
    for hop in 0..generations {
        db.define_array(&format!("N{}", hop + 1), &[per_edge])
            .unwrap();
        let (lineage, _, _) = edges::scatter(per_edge);
        db.add_lineage(
            &format!("N{hop}"),
            &format!("N{}", hop + 1),
            &TableCapture::new(lineage),
        )
        .unwrap();
        if hop == 0 {
            db.save(&dir, false).unwrap();
        } else {
            db.commit().unwrap();
        }
    }
    // The same logical database written fresh: one generation.
    db.save(&onegen_dir, false).unwrap();

    let mut onegen = Vec::with_capacity(reps);
    let mut multi = Vec::with_capacity(reps);
    for _ in 0..reps {
        onegen.push(open_and_first_query(&onegen_dir, generations, per_edge));
        multi.push(open_and_first_query(&dir, generations, per_edge));
    }

    // Where an open's time goes: the codec floor over the same bytes. Each
    // commit of the chain wrote one table, so each segment is one table.
    let files: Vec<Vec<u8>> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
        .map(|e| std::fs::read(e.path()).unwrap())
        .collect();
    assert_eq!(files.len(), generations, "one segment per commit");
    let mut crc = Vec::with_capacity(reps);
    let mut decode = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (_, crc_s) = timed(|| {
            for bytes in &files {
                black_box(dslog_codecs::crc32::crc32(black_box(bytes)));
            }
        });
        crc.push(crc_s);
        let (_, decode_s) = timed(|| {
            for bytes in &files {
                black_box(format::deserialize(black_box(bytes)).unwrap());
            }
        });
        decode.push(decode_s);
    }

    // Fold the accreted chain: one segment per generation becomes one.
    let report = Dslog::options().open(&dir).unwrap().compact().unwrap();
    assert_eq!(
        (report.files_written, report.files_reused),
        (generations, 0),
        "compaction lost a live slot"
    );
    let mut compacted = Vec::with_capacity(reps);
    for _ in 0..reps {
        compacted.push(open_and_first_query(&dir, generations, per_edge));
    }
    let verify = dslog::storage::persist::verify(&dir).unwrap();
    assert_eq!(verify.dead_bytes, 0);
    assert!(verify.stale_files.is_empty(), "{:?}", verify.stale_files);

    for d in [&dir, &onegen_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    GenPoint {
        generations,
        rows: per_edge * generations,
        onegen_open_query_s: p50(&mut onegen),
        multi_open_query_s: p50(&mut multi),
        compacted_open_query_s: p50(&mut compacted),
        table_bytes: files.iter().map(Vec::len).sum(),
        crc32_s: p50(&mut crc),
        deserialize_s: p50(&mut decode),
    }
}

/// How much two busy loops gain from running side by side: ~2.0 when the
/// machine has two real cores for them, ~1.0 when its two vCPUs share one
/// — and then no number that involves a second thread means anything.
fn two_thread_scaling() -> f64 {
    fn spin() -> u64 {
        let mut x = 1u64;
        for i in 0..120_000_000u64 {
            x = black_box(x)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i);
        }
        black_box(x)
    }
    let (_, one) = timed(spin);
    let (_, two) = timed(|| {
        let other = std::thread::spawn(spin);
        spin();
        other.join().unwrap();
    });
    2.0 * one / two
}

/// One size of the `cold_open` series.
struct ColdPoint {
    /// Rows per scatter edge (and cells per array).
    cells: usize,
    /// Bytes in the database's table files.
    table_bytes: u64,
    /// Decode workers the library gives an eager open of this size here.
    workers: u64,
    /// Eager open, p50.
    open_eager_s: f64,
}

/// `dslog`'s crate-private `storage::persist::DECODE_GRAIN`: plain table
/// bytes per decode worker of an eager open. Repeated here only to report
/// the worker count each measured size gets on this machine.
const DECODE_GRAIN: u64 = 4 << 20;

/// Cells per array of the `cold_open` sizes at `--scale 1`: `reopen`'s own
/// 5 000 (0.94 MB of tables), two sizes under the decode crossover and one
/// over 10 MB.
const COLD_OPEN_CELLS: [usize; 4] = [5_000, 12_000, 22_000, 55_000];

/// Eager open of the benchmark's `reopen` database shape — a 96-edge chain
/// accreted over 32 commits, two scatter edges and one one-to-one edge per
/// commit — at each of [`COLD_OPEN_CELLS`].
fn measure_cold_open(scale: f64, reps: usize) -> Vec<ColdPoint> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let mut points = Vec::with_capacity(COLD_OPEN_CELLS.len());
    for base in COLD_OPEN_CELLS {
        let cells = ((base as f64 * scale) as usize).max(64);
        let dir =
            std::env::temp_dir().join(format!("dslog-persist-cold-{cells}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Dslog::options().create(&dir).unwrap();
        db.define_array("R0", &[cells]).unwrap();
        for k in 0..96 {
            db.define_array(&format!("R{}", k + 1), &[cells]).unwrap();
            let (lineage, _, _) = if k % 3 == 2 {
                edges::one_to_one(cells)
            } else {
                edges::scatter(cells)
            };
            db.add_lineage(
                &format!("R{k}"),
                &format!("R{}", k + 1),
                &TableCapture::new(lineage),
            )
            .unwrap();
            if k % 3 == 2 {
                db.commit().unwrap();
            }
        }
        drop(db);
        let table_bytes: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        let mut opens = Vec::with_capacity(reps);
        for _ in 0..reps {
            opens.push(timed(|| Dslog::options().open(&dir).unwrap()).1);
        }
        let _ = std::fs::remove_dir_all(&dir);
        points.push(ColdPoint {
            cells,
            table_bytes,
            workers: hw.min(table_bytes / DECODE_GRAIN).max(1),
            open_eager_s: p50(&mut opens),
        });
    }
    points
}

/// The crossovers behind the library's three grain constants, measured at
/// the parent commit (bf4b375) on the 2-vCPU reference box through the
/// knobs that commit still had: medians of alternating pairs, taken only in
/// rounds that began and ended with two busy loops scaling >= 1.7x.
///
/// Eager open of the `cold_open` shape, the builder's one-thread cap
/// against the default pool: `(table bytes, one thread ms, pool ms, lowest
/// and highest pool / one-thread ratio over the three runs taken)`.
const PARENT_OPEN: [(u64, f64, f64, f64, f64); 9] = [
    (954_027, 5.039, 4.438, 0.88, 1.20),
    (1_530_008, 8.290, 9.852, 1.13, 1.19),
    (2_375_715, 15.846, 13.043, 0.82, 0.89),
    (3_544_554, 26.023, 19.039, 0.73, 1.08),
    (4_758_827, 39.030, 28.391, 0.72, 0.73),
    (7_243_979, 39.781, 38.686, 0.88, 0.97),
    (9_761_673, 66.103, 49.428, 0.75, 0.87),
    (13_055_460, 97.301, 64.982, 0.67, 0.73),
    (19_421_536, 152.251, 82.583, 0.54, 0.64),
];
/// `compress_batch_parallel_opts` over 4 relations (2 scatter, 1
/// one-to-one, 1 convolution), `parallel: false` against the job fan-out
/// alone (in-pass threshold at `usize::MAX`): `(rows summed, serial ms,
/// fan-out ms)`.
const PARENT_BATCH: [(u64, f64, f64); 12] = [
    (168, 0.021, 0.232),
    (834, 0.084, 0.303),
    (1_668, 0.150, 0.376),
    (3_333, 0.272, 0.434),
    (5_001, 0.556, 0.817),
    (6_666, 0.889, 1.043),
    (8_334, 0.927, 1.094),
    (11_667, 1.327, 1.188),
    (16_668, 1.774, 1.954),
    (33_333, 2.268, 1.925),
    (83_334, 10.393, 7.816),
    (333_333, 54.814, 41.020),
];
/// `compress_both_opts` on one scatter / one one-to-one relation, the same
/// two settings: `(rows, scatter serial ms, scatter two-thread ms,
/// one-to-one serial ms, one-to-one two-thread ms)`.
const PARENT_BOTH: [(u64, f64, f64, f64, f64); 11] = [
    (1_000, 0.217, 0.362, 0.068, 0.229),
    (2_500, 0.610, 0.619, 0.137, 0.289),
    (5_000, 1.324, 1.101, 0.248, 0.362),
    (7_500, 1.572, 1.072, 0.366, 0.451),
    (10_000, 1.727, 1.446, 0.486, 0.607),
    (15_000, 3.922, 2.383, 0.774, 0.876),
    (20_000, 5.737, 3.344, 1.013, 1.048),
    (35_000, 7.370, 4.629, 2.315, 1.846),
    (50_000, 14.422, 10.497, 3.128, 2.384),
    (100_000, 52.923, 34.756, 10.887, 7.537),
    (200_000, 78.620, 53.883, 23.499, 16.541),
];

/// One step of the `commit_vs_history` series.
struct HistoryPoint {
    /// Edges committed so far, one per commit.
    edges: usize,
    /// p50 of the last [`HISTORY_WINDOW`] commits up to this step that
    /// wrote no checkpoint.
    commit_p50_s: f64,
    /// Mean bytes those commits wrote: segment and log growth.
    bytes_per_commit: u64,
    /// Size of `ops.log` at this step.
    log_bytes: u64,
    /// Mean growth of `ops.log` over those commits.
    log_bytes_per_commit: u64,
    /// Gated IOs each of those commits made (every one makes the same).
    ios_per_commit: u64,
    /// Commits up to this step that wrote a checkpoint.
    checkpoints: usize,
    /// p50 of those checkpoint commits.
    checkpoint_p50_s: f64,
    /// Bytes the last of them wrote: its segment and its fresh log.
    checkpoint_bytes: u64,
}

/// Commits each step of the history series is measured over.
const HISTORY_WINDOW: usize = 7;

/// The same series on the parent commit (0a97ec0, where every commit
/// rewrote the whole catalog and its record named it), `--scale 1` on the
/// 2-vCPU reference box, medians of three runs, every commit counted (each
/// wrote the catalog): `(edges, commit_p50_s, bytes_per_commit, log_bytes,
/// log_bytes_per_commit)`.
const PARENT_HISTORY: [(usize, f64, u64, u64, u64); 3] = [
    (10, 0.001_27, 458, 1_302, 127),
    (100, 0.001_19, 4_598, 13_370, 135),
    (1000, 0.003_46, 50_504, 146_128, 148),
];

/// The op id of the first record of `dir`'s live log: its checkpoint's,
/// which changes exactly when a commit rotates the log.
fn log_head(dir: &std::path::Path) -> u64 {
    let bytes = std::fs::read(dir.join(dslog::storage::wal::OPS_LOG_FILE)).unwrap();
    dslog::storage::wal::read_log(&bytes).0[0].op_id
}

fn measure_history(steps: &[usize]) -> Vec<HistoryPoint> {
    let dir = std::env::temp_dir().join(format!("dslog-persist-history-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = dir.join(dslog::storage::wal::OPS_LOG_FILE);
    let log_len = || std::fs::metadata(&log).map_or(0, |m| m.len());
    let ios = IoPolicy::fail_at(IoFault::WriteError, u64::MAX);
    let mut db = Dslog::options()
        .io_policy(Arc::clone(&ios))
        .create(&dir)
        .unwrap();
    let mut points = Vec::with_capacity(steps.len());
    // (seconds, bytes written, log growth, gated IOs) per commit, split by
    // whether it wrote a checkpoint.
    let mut plain: Vec<(f64, u64, u64, u64)> = Vec::new();
    let mut checkpoints = Vec::new();
    for edges in 1..=steps.last().copied().unwrap_or(0) {
        let (x, y, t) = small_edge(edges);
        db.define_array(&x, &[8]).unwrap();
        db.define_array(&y, &[8]).unwrap();
        db.add_lineage(&x, &y, &TableCapture::new(t)).unwrap();
        let (before, head) = (log_len(), log_head(&dir));
        let ios_before = ios.ios_seen();
        let (report, commit_s) = timed(|| db.commit().unwrap());
        let commit_ios = ios.ios_seen() - ios_before;
        assert_eq!(
            (report.files_written, report.files_reused),
            (1, edges - 1),
            "one-edge commit rewrote clean files"
        );
        // A checkpoint commit writes a whole fresh log.
        let rotated = log_head(&dir) != head;
        let grown = if rotated {
            log_len()
        } else {
            log_len() - before
        };
        let sample = (commit_s, report.bytes_written + grown, grown, commit_ios);
        if rotated {
            checkpoints.push((commit_s, sample.1, grown));
        } else {
            let first = plain.first().map_or(commit_ios, |c| c.3);
            assert_eq!(
                commit_ios, first,
                "the commit of edge {edges} made {commit_ios} gated IOs, the first \
                 non-checkpoint commit {first}"
            );
            plain.push(sample);
        }
        if steps.contains(&edges) {
            let recent = &plain[plain.len().saturating_sub(HISTORY_WINDOW)..];
            let mut times: Vec<f64> = recent.iter().map(|c| c.0).collect();
            let mut checkpoint_times: Vec<f64> = checkpoints.iter().map(|c| c.0).collect();
            points.push(HistoryPoint {
                edges,
                commit_p50_s: p50(&mut times),
                bytes_per_commit: recent.iter().map(|c| c.1).sum::<u64>() / recent.len() as u64,
                log_bytes: log_len(),
                log_bytes_per_commit: recent.iter().map(|c| c.2).sum::<u64>() / recent.len() as u64,
                ios_per_commit: recent[0].3,
                checkpoints: checkpoints.len(),
                checkpoint_p50_s: if checkpoint_times.is_empty() {
                    0.0
                } else {
                    p50(&mut checkpoint_times)
                },
                checkpoint_bytes: checkpoints.last().map_or(0, |c| c.1),
            });
        }
    }
    assert!(dslog::storage::persist::verify(&dir)
        .unwrap()
        .stale_files
        .is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    points
}

/// One step of the `open_vs_history` series.
struct OpenHistoryPoint {
    /// Replace commits made so far.
    commits: usize,
    /// Bytes of `ops.log`: what an open reads of the log.
    log_bytes: u64,
    /// The most bytes `ops.log` held after any commit so far, and what the
    /// bin asserted it stays within then: the log's checkpoint transaction
    /// plus [`OPEN_HISTORY_EDGES`] of its largest later transaction.
    most_log_bytes: (u64, u64),
    open_eager_s: f64,
    open_lazy_s: f64,
}

/// Edges of the `open_vs_history` database.
const OPEN_HISTORY_EDGES: usize = 10;

/// The same series at the parent commit (167b6c2), where every open
/// decoded the whole log, on the 2-vCPU reference box, medians of three
/// runs: `(commits, log_bytes, open_eager_s, open_lazy_s)`.
const PARENT_OPEN_HISTORY: [(usize, u64, f64, f64); 4] = [
    (10, 2_060, 0.000_145, 0.000_108),
    (100, 10_628, 0.000_126, 0.000_106),
    (1000, 102_303, 0.001_230, 0.001_244),
    (4000, 411_303, 0.004_565, 0.004_432),
];

fn measure_open_history(steps: &[usize], reps: usize) -> Vec<OpenHistoryPoint> {
    use dslog::storage::wal::{encode_record, read_log, OpKind, OPS_LOG_FILE};
    let dir = std::env::temp_dir().join(format!("dslog-persist-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Dslog::options().create(&dir).unwrap();
    for k in 0..OPEN_HISTORY_EDGES {
        let (x, y, t) = small_edge(k);
        db.define_array(&x, &[8]).unwrap();
        db.define_array(&y, &[8]).unwrap();
        db.add_lineage(&x, &y, &TableCapture::new(t)).unwrap();
    }
    db.commit().unwrap();
    let mut points = Vec::with_capacity(steps.len());
    // The longest log so far, with its bound.
    let mut most = (0, 0);
    for commits in 1..=steps.last().copied().unwrap_or(0) {
        let k = commits % OPEN_HISTORY_EDGES;
        let t = small_edge(commits).2;
        db.add_lineage(&format!("X{k}"), &format!("Y{k}"), &TableCapture::new(t))
            .unwrap();
        db.commit().unwrap();
        // Checked after every commit, not only at the reported steps: the
        // log is longest just before a commit rotates it.
        let log = std::fs::read(dir.join(OPS_LOG_FILE)).unwrap();
        let mut txns: Vec<u64> = vec![0];
        for record in &read_log(&log).0 {
            *txns.last_mut().unwrap() += encode_record(record).len() as u64;
            if matches!(record.kind, OpKind::Commit { .. }) {
                txns.push(0);
            }
        }
        let largest = txns[1..].iter().copied().max().unwrap_or(0);
        let bound_bytes = txns[0] + OPEN_HISTORY_EDGES as u64 * largest;
        let log_bytes = log.len() as u64;
        assert!(
            log_bytes <= bound_bytes,
            "after {commits} commits an open reads {log_bytes} log bytes, over the \
             checkpoint transaction ({}) and {OPEN_HISTORY_EDGES} more of {largest}",
            txns[0]
        );
        most = most.max((log_bytes, bound_bytes));
        if !steps.contains(&commits) {
            continue;
        }
        let mut eager = Vec::with_capacity(reps);
        let mut lazy = Vec::with_capacity(reps);
        for _ in 0..reps {
            eager.push(timed(|| Dslog::options().open(&dir).unwrap()).1);
            lazy.push(timed(|| Dslog::options().lazy(true).open(&dir).unwrap()).1);
        }
        points.push(OpenHistoryPoint {
            commits,
            log_bytes,
            most_log_bytes: most,
            open_eager_s: p50(&mut eager),
            open_lazy_s: p50(&mut lazy),
        });
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    points
}

fn main() {
    let (scale, _seed) = cli_scale_seed();
    println!("persist_scaling — save/open/commit costs on a scatter edge (scale {scale})");

    let sizes = [10_000usize, 100_000];
    let reps = 7;
    let mut table = TextTable::new(&[
        "rows",
        "format",
        "db bytes",
        "save",
        "open eager",
        "open lazy",
        "lazy 1st query",
        "append p50",
        "commit p50",
        "full save p50",
        "commit speedup",
    ]);
    let mut json_rows = String::new();
    for &base in &sizes {
        let rows = ((base as f64 * scale) as usize).max(100);
        for gzip in [false, true] {
            let pt = measure(rows, gzip, reps);
            table.row(&[
                pt.rows.to_string(),
                if pt.gzip { "gzip" } else { "plain" }.to_string(),
                pt.db_bytes.to_string(),
                secs(pt.save_s),
                secs(pt.open_eager_s),
                secs(pt.open_lazy_s),
                secs(pt.lazy_first_query_s),
                secs(pt.append_p50_s),
                secs(pt.commit_p50_s),
                secs(pt.full_save_p50_s),
                format!("{:.1}x", pt.commit_speedup()),
            ]);
            if !json_rows.is_empty() {
                json_rows.push(',');
            }
            write!(
                json_rows,
                "{{\"rows\":{},\"gzip\":{},\"db_bytes\":{},\"save_s\":{:.9},\
                 \"open_eager_s\":{:.9},\"open_lazy_s\":{:.9},\"lazy_first_query_s\":{:.9},\
                 \"append_p50_s\":{:.9},\"commit_p50_s\":{:.9},\"full_save_p50_s\":{:.9},\
                 \"commit_speedup\":{:.2}}}",
                pt.rows,
                pt.gzip,
                pt.db_bytes,
                pt.save_s,
                pt.open_eager_s,
                pt.open_lazy_s,
                pt.lazy_first_query_s,
                pt.append_p50_s,
                pt.commit_p50_s,
                pt.full_save_p50_s,
                pt.commit_speedup()
            )
            .unwrap();
        }
    }
    println!("{}", table.render());

    // Generations axis: accretion cost at open time and what compaction
    // buys back.
    let gp = measure_generations(scale, 5);
    let mut gen_table = TextTable::new(&[
        "generations",
        "rows",
        "open+query 1-gen",
        "open+query uncompacted",
        "open+query compacted",
    ]);
    gen_table.row(&[
        gp.generations.to_string(),
        gp.rows.to_string(),
        secs(gp.onegen_open_query_s),
        secs(gp.multi_open_query_s),
        secs(gp.compacted_open_query_s),
    ]);
    println!("{}", gen_table.render());
    if scale >= 1.0 {
        // The compaction contract, asserted where timings are stable: a
        // compacted 64-generation database opens and answers within 2x of
        // the same data written in a single generation.
        assert!(
            gp.compacted_open_query_s <= 2.0 * gp.onegen_open_query_s,
            "compacted open+query {:.6}s exceeds 2x the 1-gen baseline {:.6}s",
            gp.compacted_open_query_s,
            gp.onegen_open_query_s
        );
    }

    // Cold start: the codec floor under an open, then the open itself at
    // four database sizes with the worker count each one gets.
    println!(
        "cold open: crc32 {:.0} MB/s, deserialize {:.0} MB/s over {} table bytes",
        gp.mb_s(gp.crc32_s),
        gp.mb_s(gp.deserialize_s),
        gp.table_bytes
    );
    let scaling = two_thread_scaling();
    println!("two busy loops side by side: {scaling:.2}x one after the other");
    let cold = measure_cold_open(scale, 21);
    let mut cold_table = TextTable::new(&["cells", "table bytes", "workers", "open eager"]);
    for pt in &cold {
        cold_table.row(&[
            pt.cells.to_string(),
            pt.table_bytes.to_string(),
            pt.workers.to_string(),
            secs(pt.open_eager_s),
        ]);
    }
    println!("{}", cold_table.render());
    let joined = |items: Vec<String>| items.join(",");
    let cold_open_json = format!(
        "{{\"rows\":{},\"table_bytes\":{},\"crc32_mb_s\":{:.1},\"deserialize_mb_s\":{:.1},\
         \"hw_threads\":{},\"two_thread_scaling\":{scaling:.2},\"sizes\":[{}],\
         \"parent\":{{\"sha\":\"bf4b375\",\"scale\":1,\"hw_threads\":2,\
         \"open\":[{}],\"batch\":[{}],\"both\":[{}]}}}}",
        gp.rows,
        gp.table_bytes,
        gp.mb_s(gp.crc32_s),
        gp.mb_s(gp.deserialize_s),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        joined(
            cold.iter()
                .map(|pt| format!(
                    "{{\"cells\":{},\"table_bytes\":{},\"workers\":{},\"open_eager_ms\":{:.3}}}",
                    pt.cells,
                    pt.table_bytes,
                    pt.workers,
                    pt.open_eager_s * 1e3
                ))
                .collect()
        ),
        joined(
            PARENT_OPEN
                .iter()
                .map(|(bytes, one, pool, lo, hi)| format!(
                    "{{\"table_bytes\":{bytes},\"one_thread_ms\":{one:.3},\"pooled_ms\":{pool:.3},\
                 \"ratio_min\":{lo:.2},\"ratio_max\":{hi:.2}}}"
                ))
                .collect()
        ),
        joined(
            PARENT_BATCH
                .iter()
                .map(|(sum, serial, fan)| format!(
                    "{{\"rows\":{sum},\"serial_ms\":{serial:.3},\"fanout_ms\":{fan:.3}}}"
                ))
                .collect()
        ),
        joined(
            PARENT_BOTH
                .iter()
                .map(|(n, ss, sp, os, op)| format!(
                    "{{\"rows\":{n},\"scatter_serial_ms\":{ss:.3},\"scatter_pair_ms\":{sp:.3},\
                 \"one_to_one_serial_ms\":{os:.3},\"one_to_one_pair_ms\":{op:.3}}}"
                ))
                .collect()
        ),
    );

    // History axis: what a commit costs with 10 / 100 / 1 000 committed
    // edges behind it (fewer in the drift gate).
    let steps: &[usize] = if scale < 0.05 {
        &[10, 30, 100]
    } else {
        &[10, 100, 1000]
    };
    let history = measure_history(steps);
    let mut history_table = TextTable::new(&[
        "committed edges",
        "commit p50",
        "bytes/commit",
        "ops.log bytes",
        "log bytes/commit",
        "IOs/commit",
        "checkpoints",
        "checkpoint p50",
        "last checkpoint bytes",
    ]);
    for pt in &history {
        history_table.row(&[
            pt.edges.to_string(),
            secs(pt.commit_p50_s),
            pt.bytes_per_commit.to_string(),
            pt.log_bytes.to_string(),
            pt.log_bytes_per_commit.to_string(),
            pt.ios_per_commit.to_string(),
            pt.checkpoints.to_string(),
            secs(pt.checkpoint_p50_s),
            pt.checkpoint_bytes.to_string(),
        ]);
    }
    for (edges, commit_p50_s, bytes, log_bytes, per_commit) in PARENT_HISTORY {
        history_table.row(&[
            format!("{edges} (parent)"),
            secs(commit_p50_s),
            bytes.to_string(),
            log_bytes.to_string(),
            per_commit.to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    println!("{}", history_table.render());
    let (first, last) = (&history[0], &history[history.len() - 1]);
    assert!(
        last.bytes_per_commit <= 2 * first.bytes_per_commit,
        "a commit at {} edges writes {} bytes, over 2x the {} bytes at {} edges",
        last.edges,
        last.bytes_per_commit,
        first.bytes_per_commit,
        first.edges
    );
    println!(
        "commit p50 at {} edges / at {} edges: {:.2}x",
        last.edges,
        first.edges,
        last.commit_p50_s / first.commit_p50_s.max(1e-12)
    );
    let history_json = format!(
        "{{\"window\":{HISTORY_WINDOW},\"steps\":[{}],\"parent\":{{\"sha\":\"0a97ec0\",\"scale\":1,\"steps\":[{}]}}}}",
        history
            .iter()
            .map(|pt| format!(
                "{{\"edges\":{},\"commit_p50_s\":{:.9},\"bytes_per_commit\":{},\"log_bytes\":{},\"log_bytes_per_commit\":{},\"ios_per_commit\":{},\"checkpoints\":{},\"checkpoint_p50_s\":{:.9},\"checkpoint_bytes\":{}}}",
                pt.edges,
                pt.commit_p50_s,
                pt.bytes_per_commit,
                pt.log_bytes,
                pt.log_bytes_per_commit,
                pt.ios_per_commit,
                pt.checkpoints,
                pt.checkpoint_p50_s,
                pt.checkpoint_bytes
            ))
            .collect::<Vec<_>>()
            .join(","),
        PARENT_HISTORY
            .iter()
            .map(|(edges, commit_p50_s, bytes, log_bytes, per_commit)| format!(
                "{{\"edges\":{edges},\"commit_p50_s\":{commit_p50_s:.9},\"bytes_per_commit\":{bytes},\"log_bytes\":{log_bytes},\"log_bytes_per_commit\":{per_commit}}}"
            ))
            .collect::<Vec<_>>()
            .join(",")
    );

    // Open axis: what an open reads and costs with 10 … 4 000 commits of a
    // 10-edge database behind it (fewer in the drift gate).
    let open_steps: &[usize] = if scale < 0.05 {
        &[10, 100]
    } else {
        &[10, 100, 1000, 4000]
    };
    let opens = measure_open_history(open_steps, reps);
    let mut open_table = TextTable::new(&[
        "commits",
        "ops.log bytes",
        "most so far",
        "its bound",
        "open eager",
        "open lazy",
    ]);
    for pt in &opens {
        open_table.row(&[
            pt.commits.to_string(),
            pt.log_bytes.to_string(),
            pt.most_log_bytes.0.to_string(),
            pt.most_log_bytes.1.to_string(),
            secs(pt.open_eager_s),
            secs(pt.open_lazy_s),
        ]);
    }
    for (commits, log_bytes, eager, lazy) in PARENT_OPEN_HISTORY {
        open_table.row(&[
            format!("{commits} (parent)"),
            log_bytes.to_string(),
            String::new(),
            String::new(),
            secs(eager),
            secs(lazy),
        ]);
    }
    println!("{}", open_table.render());
    let open_json = format!(
        "{{\"edges\":{OPEN_HISTORY_EDGES},\"steps\":[{}],\"parent\":{{\"sha\":\"167b6c2\",\"scale\":1,\"steps\":[{}]}}}}",
        opens
            .iter()
            .map(|pt| format!(
                "{{\"commits\":{},\"log_bytes\":{},\"most_log_bytes\":{},\"most_bound_bytes\":{},\"open_eager_s\":{:.9},\"open_lazy_s\":{:.9}}}",
                pt.commits,
                pt.log_bytes,
                pt.most_log_bytes.0,
                pt.most_log_bytes.1,
                pt.open_eager_s,
                pt.open_lazy_s
            ))
            .collect::<Vec<_>>()
            .join(","),
        PARENT_OPEN_HISTORY
            .iter()
            .map(|(commits, log_bytes, eager, lazy)| format!(
                "{{\"commits\":{commits},\"log_bytes\":{log_bytes},\"open_eager_s\":{eager:.9},\"open_lazy_s\":{lazy:.9}}}"
            ))
            .collect::<Vec<_>>()
            .join(",")
    );

    let generations_json = format!(
        "{{\"g\":{},\"rows\":{},\"onegen_open_query_s\":{:.9},\
         \"multi_open_query_s\":{:.9},\"compacted_open_query_s\":{:.9}}}",
        gp.generations,
        gp.rows,
        gp.onegen_open_query_s,
        gp.multi_open_query_s,
        gp.compacted_open_query_s
    );
    let json = format!(
        "{{\"bench\":\"persist_scaling\",\"scale\":{scale},\"edge\":\"scatter\",\"commit_reps\":{reps},\"series\":[{json_rows}],\"generations\":{generations_json},\"cold_open\":{cold_open_json},\"commit_vs_history\":{history_json},\"open_vs_history\":{open_json}}}\n"
    );
    std::fs::write("BENCH_persist.json", &json).expect("write BENCH_persist.json");
    println!("wrote BENCH_persist.json");
}
