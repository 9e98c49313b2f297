//! Result files and their comparison.
//!
//! Every run writes one file under the output directory: a provenance header
//! followed by the metrics. `--repeat` and `--workload all` gather the runs
//! they made into one file; `compare` reads two such files and judges every
//! workload × end-to-end metric against the bound `BENCHMARK.json` fixes.

use crate::common::{Ctx, Outcome};
use crate::json::{self, Value};
use crate::spec;
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the machine and the build that a number means nothing
/// without. The checkout the driver runs in is not a git repository; the
/// sha is then `unknown`.
pub fn environment() -> Value {
    Value::obj(vec![
        (
            "git_sha",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "nproc",
            Value::count(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "build_profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
    ])
}

/// The result of one run, header first.
pub fn run_record(ctx: &Ctx, outcome: &Outcome, environment: &Value) -> Value {
    Value::obj(vec![
        ("workload", Value::str(&ctx.workload)),
        ("seed", Value::count(ctx.seed)),
        ("seconds", Value::Num(ctx.seconds)),
        ("timed_ops", Value::count(ctx.timed_ops())),
        (
            "timed_op",
            Value::str(spec::workload(&ctx.workload).map_or("", |w| w.op)),
        ),
        ("trace", Value::Bool(ctx.trace)),
        ("environment", environment.clone()),
        ("sizes", outcome.sizes.clone()),
        ("dslog_config", Value::str(&outcome.config)),
        (
            "flush_policy",
            Value::str("library default: every commit fsyncs (no IoPolicy installed)"),
        ),
        (
            "phase_wall_s",
            Value::Obj(
                outcome
                    .phases
                    .iter()
                    .map(|(name, s)| (name.to_string(), Value::Num(*s)))
                    .collect(),
            ),
        ),
        ("cpu_steal_s", Value::Num(outcome.steal_s)),
        ("result", result_line(outcome)),
        (
            "failure_examples",
            Value::Arr(outcome.failures.examples.iter().map(Value::str).collect()),
        ),
    ])
}

/// The record of a run that ended without one: it crashed, or was killed.
/// It keeps the run in the result file, as a failed one, so that `compare`
/// cannot mistake a workload that never finished for one that was not run.
pub fn crashed_record(ctx: &Ctx, why: &str) -> Value {
    Value::obj(vec![
        ("workload", Value::str(&ctx.workload)),
        ("seed", Value::count(ctx.seed)),
        ("seconds", Value::Num(ctx.seconds)),
        ("timed_ops", Value::count(ctx.timed_ops())),
        ("trace", Value::Bool(ctx.trace)),
        (
            "result",
            Value::obj(vec![
                ("correct", Value::Bool(false)),
                ("attempted", Value::count(1)),
                ("failed", Value::count(1)),
                ("metrics", Value::Obj(Vec::new())),
            ]),
        ),
        ("failure_examples", Value::Arr(vec![Value::str(why)])),
    ])
}

/// The object the driver reads from the last line of standard output.
pub fn result_line(outcome: &Outcome) -> Value {
    Value::obj(vec![
        ("correct", Value::Bool(outcome.failures.count == 0)),
        ("attempted", Value::count(outcome.attempted.max(1))),
        ("failed", Value::count(outcome.failures.count)),
        ("metrics", outcome.metrics.to_json()),
    ])
}

/// Per end-to-end metric of `BENCHMARK.json`: its bound and direction.
pub struct Bound {
    pub bound: f64,
    pub lower_is_better: bool,
}

/// What `compare` holds two result files against: the workloads and the
/// end-to-end metrics `BENCHMARK.json` names, in its order.
pub struct Contract {
    pub workloads: Vec<String>,
    pub metrics: Vec<(String, Bound)>,
}

pub fn read_contract(benchmark_json: &Path) -> Result<Contract, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    let doc = json::parse(&text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let name = |entry: &Value| {
        entry
            .get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or("BENCHMARK.json: entry without name")
    };
    let mut contract = Contract {
        workloads: Vec::new(),
        metrics: Vec::new(),
    };
    for workload in list("workloads")? {
        contract.workloads.push(name(workload)?);
    }
    for metric in list("end_to_end")? {
        let bound = Bound {
            bound: metric
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: end-to-end metric without bound")?,
            lower_is_better: metric.get("better").and_then(Value::as_str) != Some("higher"),
        };
        contract.metrics.push((name(metric)?, bound));
    }
    Ok(contract)
}

/// The untraced runs of one result file.
#[derive(Default)]
struct Side {
    /// workload -> metric -> the values of the runs that were correct.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> (runs, runs that were not correct, operations failed).
    runs: BTreeMap<String, (usize, usize, u64)>,
    /// workload -> the run lengths met, as `seconds/timed_ops`.
    lengths: BTreeMap<String, BTreeSet<String>>,
    seeds: BTreeSet<u64>,
    shas: BTreeSet<String>,
}

impl Side {
    fn of(file: &Value) -> Side {
        let mut side = Side::default();
        let single = [file.clone()];
        let runs = file.get("runs").and_then(Value::as_arr).unwrap_or(&single);
        for run in runs {
            let (Some(workload), Some(result)) = (
                run.get("workload").and_then(Value::as_str),
                run.get("result"),
            ) else {
                continue;
            };
            if run.get("trace") == Some(&Value::Bool(true)) {
                continue;
            }
            let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            side.lengths
                .entry(workload.to_string())
                .or_default()
                .insert(format!(
                    "{} s/{} ops",
                    number(run, "seconds"),
                    number(run, "timed_ops")
                ));
            side.seeds.insert(number(run, "seed") as u64);
            if let Some(sha) = run
                .get("environment")
                .and_then(|e| e.get("git_sha"))
                .and_then(Value::as_str)
            {
                side.shas.insert(sha.to_string());
            }
            let correct = result.get("correct") == Some(&Value::Bool(true));
            let count = side.runs.entry(workload.to_string()).or_default();
            count.0 += 1;
            count.1 += usize::from(!correct);
            count.2 += number(result, "failed") as u64;
            if !correct {
                continue;
            }
            for (name, m) in result
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap_or_default()
            {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    side.values
                        .entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
        side
    }

    fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }

    fn describe(&self, label: &str) {
        let join = |items: Vec<String>| items.join(",");
        println!(
            "{label}: git {}; seeds {}; runs per workload {}",
            join(self.shas.iter().cloned().collect()),
            join(self.seeds.iter().map(u64::to_string).collect()),
            join(
                self.runs
                    .iter()
                    .map(|(w, (n, _, _))| format!("{w}={n}"))
                    .collect()
            ),
        );
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// A side has no value of this metric on this workload.
    Missing,
    /// A run of this workload was not correct, or operations failed.
    Failed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
            Verdict::Failed => "FAILED",
        }
    }
}

/// `b` against the base `a`: worse when its median is worse than `a`'s by
/// more than the bound; unresolved when either side's inter-quartile spread
/// is wider than the bound, so the medians cannot be told apart.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, f64, f64, f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (0.0, 0.0, 0.0, 0.0, Verdict::Missing);
    }
    let (ma, mb) = (stats::median_f64(a), stats::median_f64(b));
    let spread = stats::spread(a).max(stats::spread(b));
    let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
    let worse_by = if bound.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let verdict = if worse_by > bound.bound {
        Verdict::Worse
    } else if spread > bound.bound && a.len() + b.len() > 2 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ma, mb, ratio, spread, verdict)
}

/// Print one row per workload × end-to-end metric of the contract, and one
/// per workload for failures; returns whether every row is `ok`. A workload
/// or metric that a side lacks is a row too, and not an `ok` one. Files whose
/// runs differ in length cannot be compared at all: that is an `Err`.
pub fn compare(a: &Value, b: &Value, contract: &Contract) -> Result<bool, String> {
    let (sa, sb) = (Side::of(a), Side::of(b));
    for workload in &contract.workloads {
        let lengths: BTreeSet<&String> = [&sa, &sb]
            .iter()
            .filter_map(|s| s.lengths.get(workload))
            .flatten()
            .collect();
        if lengths.len() > 1 {
            return Err(format!(
                "{workload}: runs of different lengths cannot be compared: {lengths:?}"
            ));
        }
    }
    sa.describe("A");
    sb.describe("B");
    let mut all_ok = true;
    println!(
        "{:<15} {:<26} {:>14} {:>14} {:>9} {:>8} {:>6}  {:<10} measures",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound", "verdict"
    );
    for workload in &contract.workloads {
        let (_, bad_a, failed_a) = sa.runs.get(workload).copied().unwrap_or_default();
        let (_, bad_b, failed_b) = sb.runs.get(workload).copied().unwrap_or_default();
        let verdict = if bad_a + bad_b > 0 || failed_a + failed_b > 0 {
            Verdict::Failed
        } else {
            Verdict::Ok
        };
        all_ok &= verdict == Verdict::Ok;
        println!(
            "{workload:<15} {:<26} {failed_a:>14} {failed_b:>14} {:>9} {:>8} {:>6}  {:<10} \
             operations failed (failed_share x attempted); {} runs not correct",
            "failed",
            "-",
            "-",
            "0",
            verdict.label(),
            bad_a + bad_b
        );
        for (name, bound) in &contract.metrics {
            let (ma, mb, ratio, spread, verdict) =
                judge(sa.values(workload, name), sb.values(workload, name), bound);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{workload:<15} {name:<26} {ma:>14.4} {mb:>14.4} {ratio:>9.4} {:>7.2}% {:>5.0}%  {:<10} {}",
                spread * 100.0,
                bound.bound * 100.0,
                verdict.label(),
                spec::meaning(workload, name)
            );
        }
    }
    Ok(all_ok)
}

/// Median and spread of every workload × metric of one result file.
pub fn summarize(file: &Value) {
    println!(
        "{:<15} {:<26} {:>5} {:>14} {:>8}",
        "workload", "metric", "runs", "median", "spread"
    );
    for (workload, metrics) in &Side::of(file).values {
        for (name, values) in metrics {
            println!(
                "{workload:<15} {name:<26} {:>5} {:>14.4} {:>7.2}%",
                values.len(),
                stats::median_f64(values),
                stats::spread(values) * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let lower = Bound {
            bound: 0.10,
            lower_is_better: true,
        };
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0, 104.0, 104.5], &lower).4,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.0, 120.5], &lower).4,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[80.0, 130.0, 100.0, 60.0, 140.0], &lower).4,
            Verdict::Unresolved
        );
        assert_eq!(judge(&a, &[], &lower).4, Verdict::Missing);
        let higher = Bound {
            bound: 0.10,
            lower_is_better: false,
        };
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0, 80.0, 80.5], &higher).4,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.0, 120.5], &higher).4,
            Verdict::Ok
        );
    }

    fn contract() -> Contract {
        Contract {
            workloads: vec!["w1".to_string(), "w2".to_string()],
            metrics: vec![(
                "op_p50_us".to_string(),
                Bound {
                    bound: 0.10,
                    lower_is_better: true,
                },
            )],
        }
    }

    fn run(workload: &str, seconds: f64, correct: bool, value: f64) -> Value {
        Value::obj(vec![
            ("workload", Value::str(workload)),
            ("seed", Value::count(1)),
            ("seconds", Value::Num(seconds)),
            ("timed_ops", Value::count(100)),
            ("trace", Value::Bool(false)),
            (
                "result",
                Value::obj(vec![
                    ("correct", Value::Bool(correct)),
                    ("attempted", Value::count(100)),
                    ("failed", Value::count(u64::from(!correct))),
                    (
                        "metrics",
                        Value::obj(vec![(
                            "op_p50_us",
                            Value::obj(vec![
                                ("value", Value::Num(value)),
                                ("unit", Value::str("us")),
                            ]),
                        )]),
                    ),
                ]),
            ),
        ])
    }

    fn file(runs: Vec<Value>) -> Value {
        Value::obj(vec![("runs", Value::Arr(runs))])
    }

    #[test]
    fn compare_passes_only_when_every_pair_is_there_and_clean() {
        let full = || file(vec![run("w1", 10.0, true, 5.0), run("w2", 10.0, true, 7.0)]);
        assert_eq!(compare(&full(), &full(), &contract()), Ok(true));
        // B lacks a workload, or is empty: not ok.
        let lacks = file(vec![run("w1", 10.0, true, 5.0)]);
        assert_eq!(compare(&full(), &lacks, &contract()), Ok(false));
        assert_eq!(compare(&full(), &file(vec![]), &contract()), Ok(false));
        // A run of B was not correct: not ok, whatever its numbers.
        let wrong = file(vec![
            run("w1", 10.0, true, 5.0),
            run("w2", 10.0, false, 7.0),
        ]);
        assert_eq!(compare(&full(), &wrong, &contract()), Ok(false));
        // Runs of different lengths are refused.
        let short = file(vec![run("w1", 5.0, true, 5.0), run("w2", 10.0, true, 7.0)]);
        assert!(compare(&full(), &short, &contract()).is_err());
    }
}
