//! What every workload shares: the run's context, the metric table, failure
//! accounting, set-up timing and a few file helpers.

use crate::json::Value;
use crate::spec;
use crate::spec::MetricDef;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// The run's nominal length, `--seconds`. It scales the operation count
    /// of the timed phase ([`Ctx::timed_ops`]); no loop runs until a time.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the smoke mode; its numbers are never reported.
    pub check: bool,
    /// Where result and span files go.
    pub out_dir: PathBuf,
    /// Scratch directory of this run, inside `out_dir`, removed at exit.
    pub tmp: PathBuf,
}

/// A timed phase that takes this many times its nominal length is cut off
/// and what it left undone counts as failed: a stalled machine (or a system
/// that many times slower) must fail the run, not hang it.
const CUT_OFF_FACTOR: f64 = 6.0;

impl Ctx {
    /// Operations of this run's timed phase: the workload's fixed count for
    /// a run of `spec::RUN_SECONDS`, in proportion to `--seconds` (which the
    /// driver always passes, and the smoke mode sets low).
    pub fn timed_ops(&self) -> u64 {
        let w = spec::workload(&self.workload).expect("listed workload");
        let ops = if self.trace { w.traced_ops } else { w.ops };
        ((ops as f64 * self.seconds / spec::RUN_SECONDS).round() as u64).max(1)
    }

    /// When a timed phase that began at `start` is cut off.
    pub fn cut_off(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds.max(1.0) * CUT_OFF_FACTOR)
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// Build the workload's live state `setups` times (once in a traced run,
/// which does not report `setup_s`), tearing down all but the last, and
/// return the last with the median build time in seconds. Measuring several
/// set-ups in one run keeps `setup_s` steady enough to bound, so that work
/// moved from the timed phase into set-up shows; a workload whose set-up is
/// short and fsync-bound repeats it more often.
pub fn timed_setups<T>(
    ctx: &Ctx,
    setups: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let count = if ctx.trace { 1 } else { setups };
    let mut times = Vec::with_capacity(count);
    let mut live = None;
    for _ in 0..count {
        if let Some(previous) = live.take() {
            teardown(previous);
        }
        let start = Instant::now();
        live = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        live.expect("at least one set-up"),
        stats::median_f64(&times),
    )
}

/// Values of one metric list, all starting at 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Set a metric by name. An unknown name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's lists"));
        self.values[i] = value;
    }

    /// `gen.trace_overhead_pct`: how much slower the traced root call ran
    /// than the same call untraced, as a share of the untraced median.
    pub fn set_trace_overhead(&mut self, traced_us: f64, untraced_us: f64) {
        if traced_us > 0.0 && untraced_us > 0.0 {
            self.set(
                "gen.trace_overhead_pct",
                (traced_us - untraced_us) / untraced_us * 100.0,
            );
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .map_or(0.0, |i| self.values[i])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` in list order.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Value::obj(vec![("value", Value::Num(v)), ("unit", Value::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// Operations that failed, were refused, or answered wrongly. All of them
/// count in the result line's `failed`; the first few are kept as text.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub examples: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.count += 1;
        if self.examples.len() < 8 {
            self.examples.push(what.into());
        }
    }

    /// Operations a timed phase left undone when it was cut off.
    pub fn cut_short(&mut self, done: u64, of: u64) {
        self.add(
            of.saturating_sub(done),
            "operation not run: timed phase cut off",
        );
    }

    pub fn add(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.count += n;
            if self.examples.len() < 8 {
                self.examples.push(format!("{n} × {what}"));
            }
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Metrics,
    /// Input sizes and operation counts beside [`Ctx::timed_ops`], for the
    /// result header.
    pub sizes: Value,
    /// The effective `DslogConfig` of the database under test.
    pub config: String,
    /// Wall time per phase, in seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// CPU seconds the hypervisor took from the machine during the run.
    pub steal_s: f64,
}

/// Collects per-phase wall times.
pub struct Phases {
    last: Instant,
    pub done: Vec<(&'static str, f64)>,
}

impl Phases {
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    /// Close the phase that ran since the previous call.
    pub fn end(&mut self, name: &'static str) {
        let now = Instant::now();
        self.done.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of CPU time the hypervisor has taken from this machine since boot
/// (the `steal` field of `/proc/stat`, all CPUs), in clock ticks of 10 ms.
/// A run during which it grew by much was measured on a disturbed machine.
pub fn cpu_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Bytes and count of the regular files directly inside `dir`.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for meta in entries.flatten().filter_map(|e| e.metadata().ok()) {
            if meta.is_file() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

/// Copy the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median of a latency sample in microseconds; 0 for an empty sample (a
/// layer that did no work).
pub fn p50_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        ns_to_us(stats::median(samples))
    }
}

pub fn p50_ms(samples: &[u64]) -> f64 {
    p50_us(samples) / 1e3
}
