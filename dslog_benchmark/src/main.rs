//! The DSLog benchmark.
//!
//! ```text
//! dslog_benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat N] [--out FILE]
//! dslog_benchmark --check
//! dslog_benchmark compare A.json B.json
//! ```
//!
//! One run of one workload prints every metric by name with its unit and,
//! as the last line of standard output, the result object `BENCHMARK.json`'s
//! contract asks for. A run's timed phase is a fixed count of operations
//! (`spec::WORKLOADS`). `--seconds` is there because the driver passes it:
//! it is `run_seconds` of `BENCHMARK.json`, the length the counts are chosen
//! for, and another value scales the counts in proportion. `--workload all` and `--repeat N` re-execute this
//! program once per run, so `peak_rss_mb` belongs to one workload, and
//! gather the runs into one result file. See the README beside this package.

#![forbid(unsafe_code)]

mod client;
mod common;
mod gen;
mod json;
mod layers;
mod oracle;
mod qtrace;
mod report;
mod rng;
mod spec;
mod stats;
mod trace;
mod workloads;

use common::{Ctx, Outcome};
use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 1;
const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dslog_benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N] [--out FILE]\n       dslog_benchmark --check\n       \
         dslog_benchmark compare A.json B.json",
        workload_names().join("|")
    );
    ExitCode::from(2)
}

fn workload_names() -> Vec<&'static str> {
    spec::WORKLOADS.iter().map(|w| w.name).collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
        check: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.to_string()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 || args.repeat > 1000 {
                    return Err("--repeat must be in 1..=1000".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--check" => args.check = true,
            "compare" => {
                let a = PathBuf::from(value("compare")?);
                let b = PathBuf::from(value("compare")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Result, span and scratch files go under the build's target directory,
/// never into the repository's own directories.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn context(workload: &str, args: &Args, check: bool, trace: bool) -> (Ctx, Scratch) {
    let out_dir = out_dir();
    let tmp = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace,
        check,
        // The smoke mode's span files are scratch too: they must not
        // replace those of a real run.
        out_dir: if check { tmp.clone() } else { out_dir },
        tmp: tmp.clone(),
    };
    (ctx, Scratch(tmp))
}

fn record_path(ctx: &Ctx) -> PathBuf {
    ctx.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ))
}

fn print_metrics(ctx: &Ctx, outcome: &Outcome) {
    println!(
        "# {} seed={} seconds={} timed_ops={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.timed_ops(),
        u8::from(ctx.trace)
    );
    for (def, value) in outcome.metrics.iter() {
        println!(
            "{:<34} {:>16.4} {:<6} {}",
            def.name,
            value,
            def.unit,
            spec::meaning(&ctx.workload, def.name)
        );
    }
    for (name, s) in &outcome.phases {
        println!("# phase {name}: {s:.3} s");
    }
    println!(
        "# cpu stolen by the hypervisor during the run: {:.2} s",
        outcome.steal_s
    );
    for example in &outcome.failures.examples {
        println!("# FAILED: {example}");
    }
}

/// One run of one workload in this process.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let (ctx, _scratch) = context(workload, args, false, args.trace);
    let Some(outcome) = workloads::run(&ctx) else {
        eprintln!("unknown workload `{workload}`");
        return usage();
    };
    let record = report::run_record(&ctx, &outcome, &report::environment());
    if let Err(e) = std::fs::write(record_path(&ctx), record.pretty()) {
        eprintln!("write {}: {e}", record_path(&ctx).display());
    }
    print_metrics(&ctx, &outcome);
    println!("{}", report::result_line(&outcome).compact());
    ExitCode::SUCCESS
}

/// `--workload all` and `--repeat N`: one child process per run, one after
/// the other; their records are gathered into one result file.
fn run_many(workloads: &[&str], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program to re-execute it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in workloads {
        for _ in 0..args.repeat {
            let status = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status();
            let (ctx, _scratch) = context(workload, args, false, args.trace);
            let record = std::fs::read_to_string(record_path(&ctx))
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text));
            match (status, record) {
                (Ok(s), Ok(record)) if s.success() => {
                    all_correct &= record.get("result").and_then(|r| r.get("correct"))
                        == Some(&Value::Bool(true));
                    runs.push(record);
                }
                (status, record) => {
                    let why = format!("run ended with {status:?}, record: {:?}", record.err());
                    eprintln!("run of {workload} failed: {why}");
                    runs.push(report::crashed_record(&ctx, &why));
                    all_correct = false;
                }
            }
        }
    }
    let file = Value::obj(vec![
        ("environment", report::environment()),
        ("runs", Value::Arr(runs)),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(format!(
            "results-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        ))
    });
    if let Err(e) = std::fs::write(&path, file.pretty()) {
        eprintln!("write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!();
    report::summarize(&file);
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let verdict = load(a).and_then(|a| {
        let contract = report::read_contract(Path::new(BENCHMARK_JSON))?;
        report::compare(&a, &load(b)?, &contract)
    });
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Names and units of a metric list of `BENCHMARK.json`.
fn listed(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The smoke mode: tiny inputs, every workload untraced and traced. Fails
/// when `BENCHMARK.json` and the benchmark name different metrics, when a
/// metric is missing or an end-to-end metric is 0, or when the oracle
/// disagrees with the system anywhere. Its numbers are never reported.
fn check() -> ExitCode {
    let started = std::time::Instant::now();
    let mut problems = Vec::new();
    match std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(doc) => {
            let names = |defs: &[spec::MetricDef]| -> Vec<(String, String)> {
                defs.iter()
                    .map(|d| (d.name.to_string(), d.unit.to_string()))
                    .collect()
            };
            if listed(&doc, "end_to_end") != names(spec::END_TO_END) {
                problems.push(
                    "BENCHMARK.json end_to_end differs from the benchmark's list".to_string(),
                );
            }
            if listed(&doc, "per_layer") != names(spec::PER_LAYER) {
                problems
                    .push("BENCHMARK.json per_layer differs from the benchmark's list".to_string());
            }
            let workloads: Vec<String> = listed(&doc, "workloads")
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            if workloads != workload_names() {
                problems
                    .push("BENCHMARK.json workloads differ from the benchmark's list".to_string());
            }
            // The run's length and each workload's operation count are
            // written there too, the counts in the `why` lines.
            if doc.get("run_seconds").and_then(Value::as_f64) != Some(spec::RUN_SECONDS) {
                problems
                    .push("BENCHMARK.json run_seconds differs from the benchmark's".to_string());
            }
            for (w, entry) in spec::WORKLOADS.iter().zip(
                doc.get("workloads")
                    .and_then(Value::as_arr)
                    .unwrap_or_default(),
            ) {
                let why = entry.get("why").and_then(Value::as_str).unwrap_or_default();
                if !why.contains(&w.ops.to_string()) {
                    problems.push(format!(
                        "BENCHMARK.json: the why of {} does not name its {} operations",
                        w.name, w.ops
                    ));
                }
            }
        }
        Err(e) => problems.push(format!("{BENCHMARK_JSON}: {e}")),
    }
    let args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        // A twenty-fifth of a run's operations, on inputs as much smaller.
        seconds: spec::RUN_SECONDS / 25.0,
        trace: false,
        repeat: 1,
        out: None,
        check: true,
        compare: None,
    };
    for workload in workload_names() {
        for trace in [false, true] {
            let (ctx, _scratch) = context(workload, &args, true, trace);
            let outcome = workloads::run(&ctx).expect("listed workload");
            let defs = if trace {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            let printed: Vec<&str> = outcome.metrics.iter().map(|(d, _)| d.name).collect();
            if printed != defs.iter().map(|d| d.name).collect::<Vec<_>>() {
                problems.push(format!("{workload} trace={trace}: metric list incomplete"));
            }
            for (def, value) in outcome.metrics.iter() {
                if !value.is_finite() || (!trace && value <= 0.0) {
                    problems.push(format!("{workload}: {} = {value} {}", def.name, def.unit));
                }
            }
            for example in &outcome.failures.examples {
                problems.push(format!("{workload} trace={trace}: {example}"));
            }
            println!(
                "check {workload:<15} trace={} attempted={} failed={}",
                u8::from(trace),
                outcome.attempted,
                outcome.failures.count
            );
        }
    }
    println!("check took {:.1} s", started.elapsed().as_secs_f64());
    if problems.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("check: {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if args.check {
        return check();
    }
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match args.workload.as_deref() {
        None => usage(),
        Some("all") => run_many(&workload_names(), &args),
        Some(w) if spec::workload(w).is_none() => {
            eprintln!("unknown workload `{w}`");
            usage()
        }
        Some(w) if args.repeat > 1 => run_many(&[w], &args),
        Some(w) => run_one(w, &args),
    }
}
