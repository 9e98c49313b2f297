//! # dslog-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§VII):
//!
//! | Target | Regenerates | Run |
//! |---|---|---|
//! | `table7`  | Table VII — compression ratios, 12 ops × 7 formats | `cargo run -p dslog-bench --release --bin table7` |
//! | `fig7`    | Fig. 7 — compression latency vs input size | `… --bin fig7` |
//! | `fig8`    | Fig. 8 — query latency on image/relational/ResNet workflows | `… --bin fig8` |
//! | `fig9`    | Fig. 9 — query latency on random numpy pipelines | `… --bin fig9` |
//! | `table9`  | Table IX — numpy coverage of compression & reuse | `… --bin table9` |
//! | `table10` | Table X — Kaggle workflow compressibility study | `… --bin table10` |
//! | `query_scaling` | rows vs p50 latency, indexed vs scan (writes `BENCH_query.json`) | `… --bin query_scaling` |
//! | `persist_scaling` | save / eager-open / lazy-open timings, plain vs gzip (writes `BENCH_persist.json`) | `… --bin persist_scaling` |
//! | `compress_scaling` | rows vs p50 compress latency, fast columnar pipeline vs ablation (writes `BENCH_compress.json`; doubles as the fast ≡ ablation smoke gate) | `… --bin compress_scaling` |
//!
//! Criterion micro-benchmarks live under `benches/` (compression latency,
//! query latency, ProvRC internals, and the merge/parallel ablations).
//!
//! All binaries accept `--scale <f>` to shrink/grow workload sizes and
//! print machine-readable rows (aligned text) comparable against the
//! paper's published tables/figures (see the README's benchmarks section
//! for how to run and read them).

#![forbid(unsafe_code)]

use std::time::Instant;

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of a non-empty sample of seconds (sorts in place).
pub fn p50(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `q`-th percentile (0–100, nearest-rank) of a non-empty sample of
/// seconds (sorts in place).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&q), "percentile out of range");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = (q / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Format a byte count as MB with sensible precision.
pub fn mb(bytes: usize) -> String {
    let v = bytes as f64 / 1_048_576.0;
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a ratio (compressed / raw) as a percentage.
pub fn pct(compressed: usize, raw: usize) -> String {
    if raw == 0 {
        return "-".to_string();
    }
    let v = 100.0 * compressed as f64 / raw as f64;
    if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Format seconds with adaptive precision.
pub fn secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2}s")
    } else if v >= 1e-3 {
        format!("{:.2}ms", v * 1e3)
    } else {
        format!("{:.1}us", v * 1e6)
    }
}

/// A simple aligned-text table writer for experiment output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Parse `--scale <f>` (default 1.0) and `--seed <n>` (default 42) from argv.
pub fn cli_scale_seed() -> (f64, u64) {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(1.0);
                i += 1;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(42);
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    (scale, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(1_048_576), "1.00");
        assert_eq!(pct(50, 100), "50.0");
        assert_eq!(pct(1, 100_000), "1.00e-3");
        assert_eq!(pct(0, 0), "-");
        assert!(secs(0.5).ends_with("ms"));
        assert!(secs(2.0).ends_with('s'));
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".to_string(), "1".to_string()]);
        t.row(&["longer".to_string(), "22".to_string()]);
        let s = t.render();
        assert!(s.contains("longer"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut s, 50.0), 3.0);
        assert_eq!(percentile(&mut s, 99.0), 5.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 100.0), 5.0);
        assert_eq!(p50(&mut [7.0]), 7.0);
    }

    #[test]
    fn timed_measures() {
        let (v, t) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }
}
