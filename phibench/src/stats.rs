//! Order statistics shared by the run report and `compare`, and the
//! timing rules of the measured phases.

use std::time::Instant;

/// Whether the measured phase starts another operation: always the
/// first, then only while half a median operation still fits in the
/// measuring time, so that the phase ends at the operation boundary
/// nearest to it.
pub fn another_op(started: Instant, op_ms: &[f64], seconds: f64) -> bool {
    op_ms.is_empty() || started.elapsed().as_secs_f64() + median(op_ms) / 2e3 < seconds
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        // May be negative after the clamp, exactly as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The reported tail of a latency sample: the highest whole percentile,
/// at most the 99th, that leaves at least ten samples beyond it (rank by
/// the nearest-rank method). Returns `(percentile, value)`. With ten
/// samples or fewer no such percentile exists and the median is returned
/// as `(50, median)`.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let v = sorted(values);
    let n = v.len();
    if n <= 10 {
        return (50, median(&v));
    }
    let mut pct = (100 * (n - 10) / n).min(99) as u32;
    while pct > 0 && n - rank(pct, n) < 10 {
        pct -= 1;
    }
    (pct, v[rank(pct, n) - 1])
}

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 is the 990th value, with exactly 10 above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        // 26 samples: p61 ranks 16th, leaving 10 beyond; p62 would leave 9.
        let v: Vec<f64> = (1..=26).map(f64::from).collect();
        assert_eq!(tail(&v), (61, 16.0));
        for n in 11..300 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let (pct, value) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: p{pct} leaves {beyond} beyond");
            let next = rank(pct + 1, v.len());
            assert!(
                pct == 99 || v.len() - next < 10,
                "n={n}: p{} would also leave ten beyond",
                pct + 1
            );
        }
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50, 2.0));
    }

    #[test]
    fn operations_stop_at_the_nearest_boundary() {
        let started = Instant::now();
        assert!(another_op(started, &[], 0.0));
        // 10 s operations in a 1 s phase: one only.
        assert!(!another_op(started, &[10_000.0], 1.0));
        // 1 ms operations in a 60 s phase: keep going.
        assert!(another_op(started, &[1.0, 1.0], 60.0));
    }
}
