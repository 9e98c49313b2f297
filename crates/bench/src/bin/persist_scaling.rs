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
//! appending one tiny edge must pay only O(new edge) + O(catalog) — the
//! `commit_speedup` column tracks how much cheaper that is than a full
//! save of the same database. Scale-independent invariants are asserted
//! on every run: each commit reuses all clean files, `verify` passes on
//! the mixed-generation snapshot, and a reopen sees every appended edge.
//!
//! The **`commit_vs_history`** series holds the commit to "O(changed
//! edges)" against the history behind it: one handle commits one tiny edge
//! at a time, and at 10 / 100 / 1 000 committed edges the series records
//! the commit p50 and how many bytes a commit adds to `ops.log`. The bin
//! asserts the log bytes per commit at the last step are at most 2x the
//! first step's (a commit record names its catalog, it does not embed
//! it), and prints the numbers the parent commit gave beside them.
//!
//! The **`cold_open`** object says where a cold start's time goes, on the
//! accreted chain of the generations axis before it is compacted: the
//! crc32 rate over its tables' bytes, the rate of `format::deserialize`
//! (checksum + decode) over them, and the eager open with one thread and
//! with the pool — beside the numbers the parent commit gave, when a table
//! file was checksummed twice by a bytewise crc and decoded cell by cell.
//!
//! Emits an aligned table on stdout and machine-readable
//! `BENCH_persist.json` in the working directory.
//!
//! Run: `cargo run -p dslog-bench --release --bin persist_scaling [--scale f]`

use dslog::api::{Dslog, TableCapture};
use dslog::storage::format;
use dslog::table::LineageTable;
use dslog_bench::{cli_scale_seed, p50, secs, timed, TextTable};
use dslog_workloads::edges;
use std::fmt::Write as _;
use std::hint::black_box;

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
    /// Eager open of the accreted database, sharded vs forced serial
    /// (`open_threads(1)`), p50.
    open_parallel_s: f64,
    open_serial_s: f64,
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

/// `cold_open` on the parent commit (4aae2c1: bytewise crc32, every plain
/// table checksummed against the catalog and again against its trailer,
/// per-cell decode), `--scale 1` on the 2-vCPU reference box: `(crc32
/// MB/s, deserialize MB/s, open_threads(1) s, pooled open s)`.
const PARENT_COLD_OPEN: (f64, f64, f64, f64) = (404.6, 99.1, 0.050_220, 0.027_102);

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
    // Enough rows per edge that decode + crc (the work the sharded open
    // fans out) dominates the serial O(catalog + log) bookkeeping.
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
    let mut parallel = Vec::with_capacity(reps);
    let mut serial = Vec::with_capacity(reps);
    for _ in 0..reps {
        onegen.push(open_and_first_query(&onegen_dir, generations, per_edge));
        multi.push(open_and_first_query(&dir, generations, per_edge));
        let (_, par_s) = timed(|| Dslog::options().open(&dir).unwrap());
        parallel.push(par_s);
        let (_, ser_s) = timed(|| Dslog::options().open_threads(1).open(&dir).unwrap());
        serial.push(ser_s);
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
        open_parallel_s: p50(&mut parallel),
        open_serial_s: p50(&mut serial),
        table_bytes: files.iter().map(Vec::len).sum(),
        crc32_s: p50(&mut crc),
        deserialize_s: p50(&mut decode),
    }
}

/// One step of the `commit_vs_history` series.
struct HistoryPoint {
    /// Edges committed so far, one per commit.
    edges: usize,
    /// p50 of the last [`HISTORY_WINDOW`] commits up to this step.
    commit_p50_s: f64,
    /// Size of `ops.log` at this step.
    log_bytes: u64,
    /// Mean growth of `ops.log` over those commits.
    log_bytes_per_commit: u64,
}

/// Commits each step of the history series is measured over.
const HISTORY_WINDOW: usize = 7;

/// The same series on the parent commit (2be27d8, where a commit re-read
/// the whole log and its record embedded the whole catalog), `--scale 1`
/// on the 2-vCPU reference box: `(edges, commit_p50_s, log_bytes,
/// log_bytes_per_commit)`.
const PARENT_HISTORY: [(usize, f64, u64, u64); 3] = [
    (10, 0.001_66, 3_586, 413),
    (100, 0.003_57, 236_000, 4_452),
    (1000, 0.103_52, 24_976_393, 50_258),
];

fn measure_history(steps: &[usize]) -> Vec<HistoryPoint> {
    let dir = std::env::temp_dir().join(format!("dslog-persist-history-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = dir.join(dslog::storage::wal::OPS_LOG_FILE);
    let log_len = || std::fs::metadata(&log).map_or(0, |m| m.len());
    let mut db = Dslog::options().create(&dir).unwrap();
    let mut points = Vec::with_capacity(steps.len());
    let mut window: Vec<(f64, u64)> = Vec::new();
    for edges in 1..=steps.last().copied().unwrap_or(0) {
        let (x, y, t) = small_edge(edges);
        db.define_array(&x, &[8]).unwrap();
        db.define_array(&y, &[8]).unwrap();
        db.add_lineage(&x, &y, &TableCapture::new(t)).unwrap();
        let before = log_len();
        let (report, commit_s) = timed(|| db.commit().unwrap());
        assert_eq!(
            (report.files_written, report.files_reused),
            (1, edges - 1),
            "one-edge commit rewrote clean files"
        );
        window.push((commit_s, log_len() - before));
        if steps.contains(&edges) {
            let recent = &window[window.len().saturating_sub(HISTORY_WINDOW)..];
            let mut times: Vec<f64> = recent.iter().map(|(s, _)| *s).collect();
            points.push(HistoryPoint {
                edges,
                commit_p50_s: p50(&mut times),
                log_bytes: log_len(),
                log_bytes_per_commit: recent.iter().map(|(_, b)| b).sum::<u64>()
                    / recent.len() as u64,
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
    // buys back, plus sharded-vs-serial open on the accreted chain.
    let gp = measure_generations(scale, 5);
    let mut gen_table = TextTable::new(&[
        "generations",
        "rows",
        "open+query 1-gen",
        "open+query uncompacted",
        "open+query compacted",
        "open parallel",
        "open serial",
    ]);
    gen_table.row(&[
        gp.generations.to_string(),
        gp.rows.to_string(),
        secs(gp.onegen_open_query_s),
        secs(gp.multi_open_query_s),
        secs(gp.compacted_open_query_s),
        secs(gp.open_parallel_s),
        secs(gp.open_serial_s),
    ]);
    println!("{}", gen_table.render());
    if scale >= 1.0 {
        // The compaction contract, asserted where timings are stable: a
        // compacted 64-generation database opens and answers within 2x of
        // the same data written in a single generation, and the sharded
        // open beats a forced-serial one on the accreted chain.
        assert!(
            gp.compacted_open_query_s <= 2.0 * gp.onegen_open_query_s,
            "compacted open+query {:.6}s exceeds 2x the 1-gen baseline {:.6}s",
            gp.compacted_open_query_s,
            gp.onegen_open_query_s
        );
        // Only meaningful where a pool can actually exist: on a 1-core
        // runner the sharded open degenerates to the serial loop and the
        // comparison is pure noise.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            assert!(
                gp.open_parallel_s < gp.open_serial_s,
                "sharded open {:.6}s not faster than serial {:.6}s on {cores} cores",
                gp.open_parallel_s,
                gp.open_serial_s
            );
        }
    }

    // Cold start: where the open's time goes, beside the parent's numbers.
    let mut cold_table = TextTable::new(&[
        "cold open",
        "table bytes",
        "crc32",
        "deserialize",
        "open threads(1)",
        "open pooled",
    ]);
    cold_table.row(&[
        "this commit".to_string(),
        gp.table_bytes.to_string(),
        format!("{:.0} MB/s", gp.mb_s(gp.crc32_s)),
        format!("{:.0} MB/s", gp.mb_s(gp.deserialize_s)),
        secs(gp.open_serial_s),
        secs(gp.open_parallel_s),
    ]);
    let (parent_crc, parent_deserialize, parent_serial_s, parent_pooled_s) = PARENT_COLD_OPEN;
    cold_table.row(&[
        "parent (scale 1)".to_string(),
        "-".to_string(),
        format!("{parent_crc:.0} MB/s"),
        format!("{parent_deserialize:.0} MB/s"),
        secs(parent_serial_s),
        secs(parent_pooled_s),
    ]);
    println!("{}", cold_table.render());
    let cold_open_json = format!(
        "{{\"rows\":{},\"table_bytes\":{},\"crc32_mb_s\":{:.1},\"deserialize_mb_s\":{:.1},\
         \"open_threads1_ms\":{:.3},\"open_pooled_ms\":{:.3},\
         \"parent\":{{\"sha\":\"4aae2c1\",\"scale\":1,\"crc32_mb_s\":{parent_crc:.1},\
         \"deserialize_mb_s\":{parent_deserialize:.1},\"open_threads1_ms\":{:.3},\
         \"open_pooled_ms\":{:.3}}}}}",
        gp.rows,
        gp.table_bytes,
        gp.mb_s(gp.crc32_s),
        gp.mb_s(gp.deserialize_s),
        gp.open_serial_s * 1e3,
        gp.open_parallel_s * 1e3,
        parent_serial_s * 1e3,
        parent_pooled_s * 1e3,
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
        "ops.log bytes",
        "log bytes/commit",
    ]);
    for pt in &history {
        history_table.row(&[
            pt.edges.to_string(),
            secs(pt.commit_p50_s),
            pt.log_bytes.to_string(),
            pt.log_bytes_per_commit.to_string(),
        ]);
    }
    for (edges, commit_p50_s, log_bytes, per_commit) in PARENT_HISTORY {
        history_table.row(&[
            format!("{edges} (parent)"),
            secs(commit_p50_s),
            log_bytes.to_string(),
            per_commit.to_string(),
        ]);
    }
    println!("{}", history_table.render());
    let (first, last) = (&history[0], &history[history.len() - 1]);
    assert!(
        last.log_bytes_per_commit <= 2 * first.log_bytes_per_commit,
        "a commit at {} edges logs {} bytes, over 2x the {} bytes at {} edges",
        last.edges,
        last.log_bytes_per_commit,
        first.log_bytes_per_commit,
        first.edges
    );
    let history_json = format!(
        "{{\"window\":{HISTORY_WINDOW},\"steps\":[{}],\"parent\":{{\"sha\":\"2be27d8\",\"scale\":1,\"steps\":[{}]}}}}",
        history
            .iter()
            .map(|pt| format!(
                "{{\"edges\":{},\"commit_p50_s\":{:.9},\"log_bytes\":{},\"log_bytes_per_commit\":{}}}",
                pt.edges, pt.commit_p50_s, pt.log_bytes, pt.log_bytes_per_commit
            ))
            .collect::<Vec<_>>()
            .join(","),
        PARENT_HISTORY
            .iter()
            .map(|(edges, commit_p50_s, log_bytes, per_commit)| format!(
                "{{\"edges\":{edges},\"commit_p50_s\":{commit_p50_s:.9},\"log_bytes\":{log_bytes},\"log_bytes_per_commit\":{per_commit}}}"
            ))
            .collect::<Vec<_>>()
            .join(",")
    );

    let generations_json = format!(
        "{{\"g\":{},\"rows\":{},\"onegen_open_query_s\":{:.9},\
         \"multi_open_query_s\":{:.9},\"compacted_open_query_s\":{:.9},\
         \"open_parallel_s\":{:.9},\"open_serial_s\":{:.9}}}",
        gp.generations,
        gp.rows,
        gp.onegen_open_query_s,
        gp.multi_open_query_s,
        gp.compacted_open_query_s,
        gp.open_parallel_s,
        gp.open_serial_s
    );
    let json = format!(
        "{{\"bench\":\"persist_scaling\",\"scale\":{scale},\"edge\":\"scatter\",\"commit_reps\":{reps},\"series\":[{json_rows}],\"generations\":{generations_json},\"cold_open\":{cold_open_json},\"commit_vs_history\":{history_json}}}\n"
    );
    std::fs::write("BENCH_persist.json", &json).expect("write BENCH_persist.json");
    println!("wrote BENCH_persist.json");
}
