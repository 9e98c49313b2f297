//! Estimators. Latencies are kept as nanoseconds in `u32`/`u64` vectors and
//! only turned into floating point when a metric is reported.

/// Nearest-rank percentile (`q` in 0..=100) of a non-empty sample.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

pub fn median(samples: &[u64]) -> u64 {
    percentile(samples, 50.0)
}

/// Number of slices of the sliced estimator.
pub const SLICES: usize = 10;

/// The tail estimator: cut the run into [`SLICES`] consecutive slices, take
/// the percentile of each, report the median of those. One scheduler stall
/// on a shared box then spoils one slice instead of the whole run.
///
/// A slice needs at least ten samples beyond the percentile. When the run is
/// too short for that, the percentile of the whole run is returned instead,
/// which is the best the sample supports.
pub fn sliced_percentile(samples: &[u64], q: f64) -> u64 {
    let per_slice = samples.len() / SLICES;
    let beyond = (per_slice as f64 * (1.0 - q / 100.0)).floor() as usize;
    if beyond < 10 {
        return percentile(samples, q);
    }
    let per: Vec<u64> = samples
        .chunks_exact(per_slice)
        .take(SLICES)
        .map(|slice| percentile(slice, q))
        .collect();
    median(&per)
}

/// The throughput estimator: operations per second in each of [`SLICES`]
/// consecutive slices of equal operation count, and the median of those.
/// `done_ns` holds each operation's completion time since the loop began.
/// A stall (a descheduled vCPU, a neighbour's burst) then lowers the rate
/// of the slices it hits instead of the whole run's.
pub fn sliced_rate(done_ns: &[u64]) -> f64 {
    let per_slice = done_ns.len() / SLICES;
    if per_slice < 2 {
        let wall = done_ns.last().copied().unwrap_or(0);
        return if wall == 0 {
            0.0
        } else {
            done_ns.len() as f64 / (wall as f64 / 1e9)
        };
    }
    let mut rates = Vec::with_capacity(SLICES);
    let mut slice_began = 0u64;
    for slice in done_ns.chunks_exact(per_slice).take(SLICES) {
        let ended = slice[per_slice - 1];
        rates.push(per_slice as f64 / ((ended - slice_began).max(1) as f64 / 1e9));
        slice_began = ended;
    }
    median_f64(&rates)
}

/// Median of floating-point values (mean of the middle pair when even).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `compare` and the driver agree.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale, interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median_f64(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn sliced_percentile_ignores_one_bad_slice() {
        // 10 slices of 2000 samples, all 100 ns, except that one slice holds a
        // stall: 5 % of its samples take 1 ms.
        let mut s = vec![100u64; 20_000];
        for v in s.iter_mut().skip(4000).take(100) {
            *v = 1_000_000;
        }
        assert_eq!(sliced_percentile(&s, 99.0), 100);
        // The plain p99 over the whole run sees the stall's edge.
        assert_eq!(percentile(&s, 99.6), 1_000_000);
    }

    #[test]
    fn sliced_percentile_falls_back_when_slices_are_thin() {
        // 500 samples: a slice of 50 has no ten samples beyond its p99.
        let s: Vec<u64> = (1..=500).collect();
        assert_eq!(sliced_percentile(&s, 99.0), percentile(&s, 99.0));
        // ... but it does beyond its p50.
        assert_eq!(sliced_percentile(&s, 50.0), 225);
    }

    #[test]
    fn sliced_rate_ignores_one_stalled_slice() {
        // 1000 operations, one every millisecond, with a 5 s stall after the
        // 250th: 1000 per second in nine slices out of ten.
        let done: Vec<u64> = (1..=1000u64)
            .map(|i| i * 1_000_000 + if i > 250 { 5_000_000_000 } else { 0 })
            .collect();
        assert!((sliced_rate(&done) - 1000.0).abs() < 1e-6);
        // The plain rate over the whole run is six times lower.
        assert!((1000.0 / 6.0 - 1000.0 / (done[999] as f64 / 1e9)).abs() < 1.0);
        assert_eq!(sliced_rate(&[]), 0.0);
        assert!((sliced_rate(&[500_000_000, 1_000_000_000]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
