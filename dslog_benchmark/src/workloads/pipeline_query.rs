//! `pipeline_query`: in-process library use on random numpy pipelines, the
//! paper's Fig. 9 case. No server, no service, no disk.

use crate::common::{
    dir_usage, ns_to_us, p50_us, peak_rss_mb, timed_setups, Ctx, Failures, Metrics, Outcome, Phases,
};
use crate::gen::{self, EdgeKind, Query, RawEdge};
use crate::json::Value;
use crate::layers;
use crate::oracle::Oracle;
use crate::qtrace::{self, QueryAgg};
use crate::rng::Rng;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use dslog::api::TableCapture;
use dslog::Dslog;
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};
use dslog_workloads::Pipeline;
use std::sync::Arc;
use std::time::Instant;

/// Seed of pipeline `i`'s structure and data. Fixed: the pipelines are the
/// benchmark's data set, the same for every `--seed`, so that two seeds
/// measure the same mix of operations. `--seed` draws the queries.
const PIPELINE_SEED_BASE: u64 = 0x00f1_6009;
/// Queries per path and direction before the clock starts: past the
/// composite policy's hit threshold of 3.
const WARMUP_PER_PATH: usize = 4;
/// Cells a query starts from.
const SUPPORTS: [usize; 3] = [1, 16, 256];
/// Set-ups per run; one takes about 2 s.
const SETUPS: usize = 3;

struct Sizes {
    pipelines: usize,
    initial_cells: usize,
    sample_every: u64,
    first_samples: u64,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Self {
        if ctx.check {
            Self {
                pipelines: 4,
                initial_cells: 1024,
                sample_every: 50,
                first_samples: 40,
            }
        } else {
            Self {
                pipelines: 12,
                initial_cells: 70_000,
                sample_every: 500,
                first_samples: 200,
            }
        }
    }
}

/// One pipeline, its arrays renamed `p{i}_a{k}` so that names are unique
/// across pipelines (the layer probes put several into one directory).
struct Pipe {
    arrays: Vec<(String, Vec<usize>)>,
    /// Array names from the pipeline's source to its final output, and the
    /// same reversed: the forward and the backward query path.
    forward: Arc<[String]>,
    backward: Arc<[String]>,
    edges: Vec<RawEdge>,
}

impl Pipe {
    fn shape_of(&self, name: &str) -> &[usize] {
        &self
            .arrays
            .iter()
            .find(|(n, _)| n == name)
            .expect("array of the pipeline")
            .1
    }
}

struct Inputs {
    pipes: Vec<Pipe>,
}

fn generate_inputs(sizes: &Sizes) -> Inputs {
    let pipes = (0..sizes.pipelines)
        .map(|i| {
            let p: Pipeline = generate(RandomPipelineSpec {
                seed: PIPELINE_SEED_BASE + i as u64,
                // Half the pipelines chain 5 operations, half chain 10.
                n_ops: if i % 2 == 0 { 5 } else { 10 },
                initial_cells: sizes.initial_cells,
            });
            let rename = |name: &str| format!("p{i}_{name}");
            Pipe {
                arrays: p
                    .arrays
                    .iter()
                    .map(|(n, s)| (rename(n), s.clone()))
                    .collect(),
                forward: p.main_path.iter().map(|n| rename(n)).collect(),
                backward: p.main_path.iter().rev().map(|n| rename(n)).collect(),
                edges: p
                    .hops
                    .iter()
                    .map(|h| RawEdge {
                        kind: EdgeKind::Numpy,
                        in_name: rename(&h.in_array),
                        out_name: rename(&h.out_array),
                        in_shape: p.shape_of(&h.in_array).to_vec(),
                        out_shape: p.shape_of(&h.out_array).to_vec(),
                        table: h.lineage.clone(),
                    })
                    .collect(),
            }
        })
        .collect();
    Inputs { pipes }
}

/// The seeded query stream: pipelines, directions and support sizes rotate
/// in a fixed order so every run holds the same share of each; the seed
/// draws where in the array each query starts.
struct Traffic<'a> {
    rng: Rng,
    pipelines: &'a [Pipe],
    next: usize,
}

impl<'a> Traffic<'a> {
    fn new(pipelines: &'a [Pipe], seed: u64) -> Self {
        Self {
            rng: Rng::stream(seed, "pipeline-traffic"),
            pipelines,
            next: 0,
        }
    }

    /// Returns the pipeline's index with the query.
    fn next_query(&mut self) -> (usize, Query) {
        let i = self.next;
        self.next += 1;
        let which = i % self.pipelines.len();
        let backward = (i / self.pipelines.len()).is_multiple_of(2);
        let support = SUPPORTS[(i / (self.pipelines.len() * 2)) % SUPPORTS.len()];
        let p = &self.pipelines[which];
        let path = Arc::clone(if backward { &p.backward } else { &p.forward });
        let cells = gen::cell_range(p.shape_of(&path[0]), support, &mut self.rng);
        (which, Query { path, cells })
    }
}

fn setup(inputs: &Inputs) -> Vec<Dslog> {
    let dbs: Vec<Dslog> = inputs
        .pipes
        .iter()
        .map(|p| {
            let mut db = Dslog::options().build().expect("build database");
            for (name, shape) in &p.arrays {
                db.define_array(name, shape).expect("define array");
            }
            for e in &p.edges {
                db.add_lineage(&e.in_name, &e.out_name, &TableCapture::new(e.table.clone()))
                    .expect("register operation");
            }
            db
        })
        .collect();
    // Warm up: every path is seen often enough for the planner to have
    // decided whether it becomes a composite edge.
    let mut warm = Traffic::new(&inputs.pipes, 0x5eed);
    for _ in 0..WARMUP_PER_PATH * inputs.pipes.len() * 2 {
        let (which, q) = warm.next_query();
        dbs[which]
            .prov_query(&q.path_refs(), &q.cells)
            .expect("warm-up query");
    }
    dbs
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sizes = Sizes::of(ctx);
    let mut phases = Phases::start();
    let inputs = generate_inputs(&sizes);
    phases.end("generate");
    let (dbs, setup_s) = timed_setups(ctx, SETUPS, || setup(&inputs), drop);
    phases.end("setup");
    let config = format!("{:?}", dbs[0].config());

    let mut failures = Failures::default();
    let mut traffic = Traffic::new(&inputs.pipes, ctx.seed);
    // A fixed count of queries, so that both sides of a comparison answer
    // the same ones: whole rotations of pipeline x direction x support size.
    let queries = ctx.timed_ops();
    let start = Instant::now();
    let cut_off = ctx.cut_off(start);
    let mut metrics;
    let attempted;
    let raw_rows: u64 = inputs
        .pipes
        .iter()
        .flat_map(|p| &p.edges)
        .map(|e| e.rows() as u64)
        .sum();
    let mut sizes_json = vec![
        ("pipelines", Value::count(sizes.pipelines as u64)),
        ("initial_cells", Value::count(sizes.initial_cells as u64)),
        ("raw_rows", Value::count(raw_rows)),
        ("support_cells", Value::str("1/16/256 in rotation")),
        ("threads", Value::count(1)),
    ];

    if ctx.trace {
        metrics = Metrics::new(spec::PER_LAYER);
        // The same count untraced first, for the tracing overhead.
        let mut reference_ns = Vec::new();
        while (reference_ns.len() as u64) < queries && Instant::now() < cut_off {
            let (which, q) = traffic.next_query();
            let t0 = Instant::now();
            let ok = dbs[which].prov_query(&q.path_refs(), &q.cells).is_ok();
            reference_ns.push(t0.elapsed().as_nanos() as u64);
            if !ok {
                failures.fail(format!("{q:?} failed"));
            }
        }
        let mut tracer = Tracer::new();
        let mut agg = QueryAgg::default();
        let mut request = 0u64;
        while request < queries && Instant::now() < cut_off {
            let (which, q) = traffic.next_query();
            if let Err(e) =
                qtrace::trace_db_query(&mut tracer, None, request, &dbs[which], &q, &mut agg)
            {
                failures.fail(e);
            }
            request += 1;
        }
        failures.cut_short(request, queries);
        phases.end("timed");
        agg.report(&mut metrics);
        metrics.set_trace_overhead(metrics.get("query.api_p50_us"), p50_us(&reference_ns));
        let p0 = &inputs.pipes[0];
        let path: Vec<&str> = p0.backward.iter().map(String::as_str).collect();
        let shape = p0.shape_of(path[0]);
        let total: usize = shape.iter().product();
        let cells: Vec<Vec<i64>> = (0..256)
            .map(|i| gen::cell_at(shape, i * 97 % total))
            .collect();
        metrics.set(
            "query.batch_p50_us",
            qtrace::batch_p50_us(&dbs[0], &path, &cells, 30),
        );
        metrics.set(
            "reuse.composites_stored",
            dbs.iter()
                .map(|db| db.storage().n_composites())
                .sum::<usize>() as f64,
        );
        attempted = reference_ns.len() as u64 + queries;
        tracer.write(ctx, &mut failures);
        phases.end("trace_report");
        drop(dbs);
        // The layer probes take the hops of the first pipelines, up to a
        // row budget that keeps the traced run short.
        let mut budget = 1_500_000usize;
        let edges: Vec<&RawEdge> = inputs
            .pipes
            .iter()
            .take_while(|p| {
                let rows: usize = p.edges.iter().map(RawEdge::rows).sum();
                let fits = rows <= budget;
                budget = budget.saturating_sub(rows);
                fits
            })
            .flat_map(|p| &p.edges)
            .collect();
        let probe_query = Query {
            path: Arc::clone(&p0.backward),
            cells: vec![cells[0].clone()],
        };
        if let Err(e) = layers::probe_all(ctx, &edges, None, &probe_query, &mut metrics) {
            failures.fail(format!("layer probe: {e}"));
        }
        phases.end("layer_probes");
    } else {
        metrics = Metrics::new(spec::END_TO_END);
        let mut all_ns = Vec::new();
        let mut done_ns = Vec::new();
        let mut forward_ns = Vec::new();
        let mut backward_ns = Vec::new();
        let mut samples = Vec::new();
        let mut i = 0u64;
        while i < queries {
            let (which, q) = traffic.next_query();
            let path = q.path_refs();
            let t0 = Instant::now();
            let result = dbs[which].prov_query(&path, &q.cells);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            match result {
                Ok(r) => {
                    all_ns.push(ns);
                    done_ns.push((t1 - start).as_nanos() as u64);
                    if Arc::ptr_eq(&q.path, &inputs.pipes[which].forward) {
                        forward_ns.push(ns);
                    } else {
                        backward_ns.push(ns);
                    }
                    if i < sizes.first_samples || i.is_multiple_of(sizes.sample_every) {
                        samples.push((which, q, r.cells.cell_set()));
                    }
                }
                Err(e) => failures.fail(format!("{q:?}: {e}")),
            }
            i += 1;
            if t1 >= cut_off {
                break;
            }
        }
        failures.cut_short(i, queries);
        phases.end("timed");
        let rss = peak_rss_mb();

        let oracles: Vec<Oracle> = inputs.pipes.iter().map(|p| Oracle::new(&p.edges)).collect();
        for (which, q, got) in &samples {
            match oracles[*which].query(&q.path_refs(), &q.cells) {
                Ok(want) if &want == got => {}
                Ok(want) => failures.fail(format!(
                    "pipeline {which} {:?}: {} cells answered, oracle has {}",
                    q.path,
                    got.len(),
                    want.len()
                )),
                Err(e) => failures.fail(e),
            }
        }
        phases.end("verify");

        let mut stored = 0u64;
        for (k, db) in dbs.iter().enumerate() {
            let dir = ctx.fresh_dir(&format!("stored-{k}"));
            db.save(&dir, false).expect("save database");
            stored += dir_usage(&dir).0;
            let _ = std::fs::remove_dir_all(&dir);
        }
        let raw: u64 = inputs
            .pipes
            .iter()
            .flat_map(|p| &p.edges)
            .map(RawEdge::raw_bytes)
            .sum();
        metrics.set("stored_bytes_per_raw_byte", stored as f64 / raw as f64);
        phases.end("store");

        attempted = queries;
        sizes_json.push(("queries_timed", Value::count(all_ns.len() as u64)));
        sizes_json.push(("queries_verified", Value::count(samples.len() as u64)));
        if all_ns.is_empty() {
            failures.fail("no query completed");
        } else {
            metrics.set(
                "op_p50_us",
                ns_to_us(stats::sliced_percentile(&all_ns, 50.0)),
            );
            metrics.set(
                "op_tail_us",
                ns_to_us(stats::sliced_percentile(&all_ns, 99.0)),
            );
            metrics.set("ops_per_s", stats::sliced_rate(&done_ns));
        }
        // aux: the forward half of the mix (queries from input ranges);
        // aux2: the backward half.
        metrics.set("aux_p50_us", p50_us(&forward_ns));
        metrics.set("aux2_p50_us", p50_us(&backward_ns));
        metrics.set("setup_s", setup_s);
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
