//! Query-engine scaling bench. Four experiments:
//!
//! 1. **Single-hop access path** — rows vs p50 latency of the indexed
//!    probe on a worst-case (incompressible scatter) edge; the answer is
//!    checked against `dslog-oracle`'s join over the raw rows.
//! 2. **Composite edges** — an 8-hop chain queried repeatedly: past the
//!    hit threshold the planner materializes the joined path as one
//!    compressed table, and a composite hit must beat re-executing the
//!    chain hop by hop through the public per-hop API (`resolve_hop`,
//!    `QueryExec::hop`, `BoxTable::merge`) ≥ 5× at full scale.
//! 3. **Batched queries** — 1000 queries sharing a 3-hop path with heavy
//!    cell overlap; the deduplicated batch sweep must beat a per-query
//!    loop ≥ 3× at full scale. Both sides take the planner's route, which
//!    the bench records (`path_order` at full scale, where the chain's
//!    support is past the composite cap; `composite` at small scales).
//! 4. **Where a query's time goes** — the benchmark's `pipeline_query` mix
//!    (its 12 random numpy pipelines, both directions, 1 / 16 / 256 start
//!    cells in rotation) replayed stage by stage: each stage is timed at
//!    the public entry point that *is* that stage (`StorageManager::array`
//!    per path name, `BoxTable::from_cells`, `has_composite` for the
//!    registry lookup, `resolve_hop` per hop, `BoxTable::merge` per hop
//!    output), the joins by the hop `wall` a query's own `QueryStats`
//!    reports, beside `prov_query`'s total. Which stages a warm
//!    `prov_query` pays per query is the tree's to say (README, "Where a
//!    query's time goes"); no gate. Every replayed merge's output must
//!    equal `dslog-oracle`'s reference merge of the same frontier, box for
//!    box and in order; the hops of composite-served queries are replayed
//!    untimed after the timed loop, so the check runs at any scale.
//!
//! Every timed comparison asserts cell-for-cell parity first. Emits an
//! aligned table on stdout and machine-readable `BENCH_query.json` in the
//! working directory.
//!
//! Run: `cargo run -p dslog-bench --release --bin query_scaling [--scale f]`

use dslog::api::{Dslog, QueryResult, TableCapture};
use dslog::query::QueryExec;
use dslog::table::{BoxTable, LineageTable, Orientation};
use dslog_bench::{cli_scale_seed, p50, secs, timed, TextTable};
use dslog_oracle::boxes::merge_reference;
use dslog_oracle::query::reference;
use dslog_workloads::edges;
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

struct Point {
    rows: usize,
    compressed_rows: usize,
    indexed_p50: f64,
}

fn measure(rows: usize, reps: usize) -> Point {
    let mut db = Dslog::new();
    db.define_array("A", &[rows]).unwrap();
    db.define_array("B", &[rows]).unwrap();
    // Incompressible scatter edge (`edges::scatter`): the compressed table
    // keeps ~n rows — the regime where the access path dominates query
    // latency.
    let (lineage, _, _) = edges::scatter(rows);
    db.add_lineage("A", "B", &TableCapture::new(lineage.clone()))
        .unwrap();
    let compressed_rows = db.storage().stored_table("A", "B").unwrap().n_rows();

    // Selective query: 8 consecutive output cells.
    let start = (rows / 3) as i64;
    let cells: Vec<Vec<i64>> = (start..start + 8).map(|v| vec![v]).collect();

    let query = || db.prov_query(&["B", "A"], &cells).unwrap();

    // Parity check before timing: the answer is the raw relation's.
    let expected = reference::step(
        &cells.iter().cloned().collect(),
        &lineage,
        Orientation::Backward,
    );
    assert_eq!(
        query().cells.cell_set(),
        expected,
        "index/oracle disagreement"
    );

    let mut samples: Vec<f64> = (0..reps).map(|_| timed(query).1).collect();
    Point {
        rows,
        compressed_rows,
        indexed_p50: p50(&mut samples),
    }
}

/// A sparse edge: only `support` out-cells (scattered over `[0, n)`) carry
/// lineage, each to one scattered in-cell.
fn sparse_edge(n: usize, support: usize) -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    for s in 0..support as i64 {
        let v = (s * 977 + 3) % n as i64;
        t.push_row(&[v, (v * 37 + 11) % n as i64]);
    }
    t
}

/// `hops` backward scatter hops S0←S1←…: querying `[S0, …, S{hops}]`
/// crosses each edge on its primary side.
fn scatter_chain(db: &mut Dslog, hops: usize, n: usize) {
    for i in 0..=hops {
        db.define_array(&format!("S{i}"), &[n]).unwrap();
    }
    for i in 0..hops {
        let (t, _, _) = edges::scatter(n);
        db.add_lineage(
            &format!("S{}", i + 1),
            &format!("S{i}"),
            &TableCapture::new(t),
        )
        .unwrap();
    }
}

fn chain_path(hops: usize) -> Vec<String> {
    (0..=hops).map(|i| format!("S{i}")).collect()
}

struct Versus {
    fast_p50: f64,
    slow_p50: f64,
    speedup: f64,
}

fn versus(reps: usize, mut fast: impl FnMut(), mut slow: impl FnMut()) -> Versus {
    let mut f: Vec<f64> = (0..reps).map(|_| timed(&mut fast).1).collect();
    let mut s: Vec<f64> = (0..reps).map(|_| timed(&mut slow).1).collect();
    let fast_p50 = p50(&mut f);
    let slow_p50 = p50(&mut s);
    Versus {
        fast_p50,
        slow_p50,
        speedup: slow_p50 / fast_p50.max(1e-12),
    }
}

/// `path` run in order through the public per-hop API, as
/// `dslog_benchmark`'s query trace runs it: resolve each hop, join, merge,
/// stop at an empty frontier.
fn reexecute(db: &Dslog, path: &[&str], cells: &[Vec<i64>]) -> BoxTable {
    let exec = QueryExec::default();
    let mut frontier = BoxTable::from_cells(cells[0].len(), cells);
    for hop in path.windows(2) {
        if frontier.is_empty() {
            break;
        }
        let (table, _) = db.storage().resolve_hop(hop[0], hop[1]).unwrap();
        let (mut out, _) = exec.hop(&frontier, &table).unwrap();
        out.merge();
        frontier = out;
    }
    frontier
}

/// The planner's route label of a query's stats.
fn route(result: &QueryResult) -> &'static str {
    result.stats.plan.as_ref().unwrap().decision.label()
}

/// Experiment 2: 8-hop chain whose first hop has a small support, queried
/// repeatedly. Composite hit vs re-executing the path hop by hop.
fn measure_composite(n: usize, reps: usize) -> (usize, Versus) {
    const HOPS: usize = 8;
    let mut db = Dslog::new();
    let support = 256.min(n / 4).max(8);
    for i in 0..=HOPS {
        db.define_array(&format!("S{i}"), &[n]).unwrap();
    }
    db.add_lineage("S1", "S0", &TableCapture::new(sparse_edge(n, support)))
        .unwrap();
    for i in 1..HOPS {
        let (t, _, _) = edges::scatter(n);
        db.add_lineage(
            &format!("S{}", i + 1),
            &format!("S{i}"),
            &TableCapture::new(t),
        )
        .unwrap();
    }

    let names = chain_path(HOPS);
    let path: Vec<&str> = names.iter().map(String::as_str).collect();
    // Query cells drawn from the sparse first hop's support.
    let cells: Vec<Vec<i64>> = (0..8i64).map(|s| vec![(s * 977 + 3) % n as i64]).collect();

    // Warm across the hit threshold: the third sighting materializes.
    for _ in 0..3 {
        db.prov_query(&path, &cells).unwrap();
    }
    assert!(
        db.storage().has_composite(&path),
        "composite never materialized"
    );
    let hit = db.prov_query(&path, &cells).unwrap();
    assert_eq!(route(&hit), "composite");
    assert_eq!(hit.hops, 1, "composite serve must be a single probe");
    assert_eq!(
        hit.cells.cell_set(),
        reexecute(&db, &path, &cells).cell_set(),
        "composite parity violation"
    );

    let v = versus(
        reps,
        || {
            db.prov_query(&path, &cells).unwrap();
        },
        || {
            reexecute(&db, &path, &cells);
        },
    );
    (support, v)
}

/// Experiment 3: 1000 queries over a 3-hop chain, 4 cells each drawn from
/// a 64-cell pool (heavy overlap). One batch sweep vs a per-query loop.
/// Both sides take the route the planner gives them; returns those routes
/// (batch, loop) as measured: the chain's support is its row count, so a
/// composite forms only below the cap (`n` ≤ 65 536).
fn measure_batch(n: usize, reps: usize) -> (usize, Versus, [&'static str; 2]) {
    const HOPS: usize = 3;
    const QUERIES: usize = 1000;
    let mut db = Dslog::new();
    scatter_chain(&mut db, HOPS, n);
    let names = chain_path(HOPS);
    let path: Vec<&str> = names.iter().map(String::as_str).collect();

    let pool: Vec<i64> = (0..64i64).map(|j| (j * 997 + 5) % n as i64).collect();
    let queries: Vec<Vec<Vec<i64>>> = (0..QUERIES)
        .map(|q| (0..4).map(|k| vec![pool[(q * 7 + k) % 64]]).collect())
        .collect();

    let batch = db.prov_query_batch(&path, &queries).unwrap();
    for (result, query) in batch.iter().zip(&queries) {
        let single = db.prov_query(&path, query).unwrap();
        assert_eq!(
            result.cells.cell_set(),
            single.cells.cell_set(),
            "batch parity violation"
        );
    }

    let routes = [
        route(&db.prov_query_batch(&path, &queries).unwrap()[0]),
        route(&db.prov_query(&path, &queries[0]).unwrap()),
    ];

    let v = versus(
        reps,
        || {
            db.prov_query_batch(&path, &queries).unwrap();
        },
        || {
            for query in &queries {
                db.prov_query(&path, query).unwrap();
            }
        },
    );
    (QUERIES, v, routes)
}

/// Experiment 4's stages, in the order a query meets them.
const STAGES: [&str; 7] = [
    "validate", "encode", "lookup", "resolve", "hop", "merge", "api",
];

/// Experiment 4: mean seconds per query of each of [`STAGES`] over
/// `rotations` rotations of pipeline × direction × support, after the
/// benchmark's own warm-up (4 queries per path and direction, past the
/// composite threshold). Returns the query count with the means.
fn measure_stages(initial_cells: usize, rotations: usize) -> (usize, [f64; 7]) {
    const PIPELINES: usize = 12;
    const SUPPORTS: [usize; 3] = [1, 16, 256];
    let pipes: Vec<(Dslog, [Vec<String>; 2])> = (0..PIPELINES)
        .map(|i| {
            // `pipeline_query`'s data set: the same seeds, 5 and 10 operations.
            let p = generate(RandomPipelineSpec {
                seed: 0x00f1_6009 + i as u64,
                n_ops: if i % 2 == 0 { 5 } else { 10 },
                initial_cells,
            });
            let mut db = Dslog::new();
            p.register_into(&mut db).unwrap();
            let backward = p.main_path.iter().rev().cloned().collect();
            (db, [backward, p.main_path])
        })
        .collect();

    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed);
    let mut sums = [0f64; 7];
    let mut queries = 0usize;
    let mut served = Vec::new();
    for i in 0..(4 + rotations) * PIPELINES * 2 * SUPPORTS.len() {
        let (db, paths) = &pipes[i % PIPELINES];
        let names = &paths[(i / PIPELINES) % 2];
        let support = SUPPORTS[(i / (PIPELINES * 2)) % SUPPORTS.len()];
        let path: Vec<&str> = names.iter().map(String::as_str).collect();
        let shape = db.storage().array(path[0]).unwrap().shape.clone();
        let total: usize = shape.iter().product();
        // `support` consecutive row-major cells from a random start.
        let start = rng.gen_range(0..=total - support.min(total));
        let positions = start..start + support.min(total);
        let cells = row_major_cells(&shape, positions.clone());

        let (result, api) = timed(|| db.prov_query(&path, &cells).unwrap());
        if i < 4 * PIPELINES * 2 * SUPPORTS.len() {
            continue; // warm-up
        }
        queries += 1;
        let mut add = |stage: &str, s: f64| {
            sums[STAGES.iter().position(|&n| n == stage).unwrap()] += s;
        };
        add("api", api);
        add("hop", result.stats.total_wall().as_secs_f64());
        add(
            "validate",
            timed(|| path.iter().all(|n| db.storage().array(n).is_ok())).1,
        );
        let (frontier, t) = timed(|| BoxTable::from_cells(shape.len(), &cells));
        add("encode", t);
        add("lookup", timed(|| db.storage().has_composite(&path)).1);
        // The per-hop stages, replayed in path order — unless a composite
        // edge served the query, whose one hop is all it ran. Its hops are
        // replayed after the timed loop, so their merges are checked (at
        // small scales every path is a composite) without disturbing the
        // caches the timed queries run in.
        let plan = result.stats.plan.as_ref().map(|p| p.decision.label());
        if plan == Some("composite") {
            served.push((i, positions, result.cells));
            continue;
        }
        let frontier = replay_hops(db, &path, frontier, &mut add);
        assert_eq!(
            frontier.cell_set(),
            result.cells.cell_set(),
            "stage replay disagrees with prov_query"
        );
    }
    for (i, positions, answer) in served {
        let (db, paths) = &pipes[i % PIPELINES];
        let path: Vec<&str> = paths[(i / PIPELINES) % 2]
            .iter()
            .map(String::as_str)
            .collect();
        let shape = &db.storage().array(path[0]).unwrap().shape;
        let frontier = BoxTable::from_cells(shape.len(), &row_major_cells(shape, positions));
        let frontier = replay_hops(db, &path, frontier, |_, _| {});
        assert_eq!(
            frontier.cell_set(),
            answer.cell_set(),
            "hop replay disagrees with the composite edge"
        );
    }
    (queries, sums.map(|s| s / queries as f64))
}

/// The cells at row-major positions `positions` of an array of `shape`.
fn row_major_cells(shape: &[usize], positions: std::ops::Range<usize>) -> Vec<Vec<i64>> {
    positions
        .map(|mut pos| {
            let mut cell = vec![0i64; shape.len()];
            for (slot, &dim) in cell.iter_mut().zip(shape).rev() {
                *slot = (pos % dim) as i64;
                pos /= dim;
            }
            cell
        })
        .collect()
}

/// Replay `path`'s hops in order from `frontier`, timing each `resolve_hop`
/// and merge into `add`, and holding every merge to `dslog-oracle`'s
/// reference merge, box for box and in order. Returns the last frontier.
fn replay_hops(
    db: &Dslog,
    path: &[&str],
    mut frontier: BoxTable,
    mut add: impl FnMut(&str, f64),
) -> BoxTable {
    let exec = QueryExec::new(db.query_options());
    for hop in path.windows(2) {
        let (table, t) = timed(|| db.storage().resolve_hop(hop[0], hop[1]).unwrap().0);
        add("resolve", t);
        if frontier.is_empty() {
            continue;
        }
        let (mut out, _) = exec.hop(&frontier, &table).unwrap();
        let mut reference = out.clone();
        add("merge", timed(|| out.merge()).1);
        merge_reference(&mut reference);
        assert_eq!(out, reference, "merge disagrees with the reference");
        frontier = out;
    }
    frontier
}

fn main() {
    let (scale, _seed) = cli_scale_seed();
    println!("query_scaling — single-hop selective query, indexed probe (scale {scale})");

    let sizes = [1_000usize, 10_000, 100_000];
    let reps = 15;
    let mut table = TextTable::new(&["rows", "compressed", "indexed p50"]);
    let mut json_rows = String::new();
    for &base in &sizes {
        let rows = ((base as f64 * scale) as usize).max(100);
        let pt = measure(rows, reps);
        table.row(&[
            pt.rows.to_string(),
            pt.compressed_rows.to_string(),
            secs(pt.indexed_p50),
        ]);
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        write!(
            json_rows,
            "{{\"rows\":{},\"compressed_rows\":{},\"indexed_p50_s\":{:.9}}}",
            pt.rows, pt.compressed_rows, pt.indexed_p50
        )
        .unwrap();
    }
    println!("{}", table.render());

    // The composite and batch experiments share a chain size scaled off
    // 100k rows per hop.
    let n = ((100_000f64 * scale) as usize).max(1_000);
    let full_scale = scale >= 1.0;

    let (co_support, co) = measure_composite(n, 9);
    let (ba_queries, ba, [ba_route, loop_route]) = measure_batch(n, 5);

    let mut t2 = TextTable::new(&["experiment", "fast p50", "baseline p50", "speedup"]);
    t2.row(&[
        format!("composite hit (n={n})"),
        secs(co.fast_p50),
        secs(co.slow_p50),
        format!("{:.1}x", co.speedup),
    ]);
    t2.row(&[
        format!("batch {ba_queries} vs loop (n={n}, {ba_route} vs {loop_route})"),
        secs(ba.fast_p50),
        secs(ba.slow_p50),
        format!("{:.1}x", ba.speedup),
    ]);
    println!("{}", t2.render());

    let stage_cells = ((70_000f64 * scale) as usize).max(1_024);
    let (st_queries, st) = measure_stages(stage_cells, ((100f64 * scale) as usize).max(2));
    let mut t3 = TextTable::new(&["stage", "mean per query"]);
    for (name, mean) in STAGES.iter().zip(st) {
        t3.row(&[name.to_string(), secs(mean)]);
    }
    println!(
        "stages of pipeline_query's mix ({st_queries} queries, {stage_cells} initial cells)\n{}",
        t3.render()
    );

    if full_scale {
        assert!(
            co.speedup >= 5.0,
            "composite-hit speedup {:.2}x below the 5x bar",
            co.speedup
        );
        assert!(
            ba.speedup >= 3.0,
            "batch speedup {:.2}x below the 3x bar",
            ba.speedup
        );
    }

    let json = format!(
        "{{\"bench\":\"query_scaling\",\"scale\":{scale},\"hop\":\"backward\",\"query_cells\":8,\"reps\":{reps},\"series\":[{json_rows}],\
         \"composite\":{{\"hops\":8,\"rows\":{n},\"support\":{co_support},\"hit_p50_s\":{:.9},\"reexec_p50_s\":{:.9},\"speedup\":{:.2}}},\
         \"batch\":{{\"queries\":{ba_queries},\"hops\":3,\"rows\":{n},\"batch_route\":\"{ba_route}\",\"loop_route\":\"{loop_route}\",\"batch_p50_s\":{:.9},\"loop_p50_s\":{:.9},\"speedup\":{:.2}}},\
         \"stages\":{{\"queries\":{st_queries},\"initial_cells\":{stage_cells},{}}}}}\n",
        co.fast_p50, co.slow_p50, co.speedup,
        ba.fast_p50, ba.slow_p50, ba.speedup,
        STAGES
            .iter()
            .zip(st)
            .map(|(name, mean)| format!("\"{name}_mean_s\":{mean:.9}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    std::fs::write("BENCH_query.json", &json).expect("write BENCH_query.json");
    println!("wrote BENCH_query.json");
}
