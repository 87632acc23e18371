//! Time-weighted statistics for utilization accounting.
//!
//! The paper's motivation section (§III) hinges on *time-integrated* core
//! utilization ("each coprocessor core was busy for only around half the
//! time"). [`TimeWeighted`] integrates a piecewise-constant signal over
//! simulation time so device models can report exactly that quantity.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Integrates a piecewise-constant, non-negative signal over simulation time.
///
/// Typical uses: number of busy hardware threads on a device, number of busy
/// cores, committed device memory.
///
/// ```
/// use phishare_sim::{TimeWeighted, SimTime};
///
/// let mut busy = TimeWeighted::new(SimTime::ZERO);
/// busy.set(SimTime::from_secs(0), 240.0); // all threads busy
/// busy.set(SimTime::from_secs(5), 0.0);   // device idle
/// assert_eq!(busy.time_average(SimTime::from_secs(10)), 120.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: SimTime,
    last_change: SimTime,
    value: f64,
    integral: f64, // value × seconds
}

impl TimeWeighted {
    /// Create an integrator starting at `start` with value 0.
    pub fn new(start: SimTime) -> Self {
        TimeWeighted {
            start,
            last_change: start,
            value: 0.0,
            integral: 0.0,
        }
    }

    /// The current value of the signal.
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Set the signal to `value` at time `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous change (causality violation) or
    /// if `value` is not finite.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(value.is_finite(), "TimeWeighted::set: non-finite value");
        self.accumulate_to(now);
        self.value = value;
    }

    fn accumulate_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_change);
        self.integral += self.value * dt.as_secs_f64();
        self.last_change = now;
    }

    /// The integral of the signal from the start instant through `end`,
    /// in value × seconds.
    pub fn integral(&self, end: SimTime) -> f64 {
        let tail = end.since(self.last_change).as_secs_f64() * self.value;
        self.integral + tail
    }

    /// The time-average of the signal over `[start, end]`. Returns 0 for an
    /// empty interval.
    pub fn time_average(&self, end: SimTime) -> f64 {
        let span = end.since(self.start).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.integral(end) / span
        }
    }
}

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Accumulates scalar samples and reports summary statistics.
///
/// Keeps every sample (experiments here are at most tens of thousands of
/// samples) so exact quantiles are available for EXPERIMENTS.md.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Record one sample.
    pub fn record(&mut self, sample: f64) {
        assert!(sample.is_finite(), "Summary::record: non-finite sample");
        self.samples.push(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Population standard deviation, or 0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }
}

/// A fixed-bin histogram over a closed range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples outside `[lo, hi]`.
    outliers: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "Histogram: lo must be below hi");
        assert!(bins > 0, "Histogram: need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Record one sample. Values exactly at `hi` land in the last bin.
    pub fn record(&mut self, sample: f64) {
        assert!(sample.is_finite(), "Histogram::record: non-finite sample");
        if sample < self.lo || sample > self.hi {
            self.outliers += 1;
            return;
        }
        let frac = (sample - self.lo) / (self.hi - self.lo);
        let bin = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[bin] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples that fell outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_piecewise_constant_signal() {
        let mut tw = TimeWeighted::new(SimTime::ZERO);
        tw.set(SimTime::from_secs(0), 10.0);
        tw.set(SimTime::from_secs(4), 20.0);
        tw.set(SimTime::from_secs(6), 0.0);
        // 10×4 + 20×2 + 0×4 = 80 over 10 s → average 8.
        assert_eq!(tw.integral(SimTime::from_secs(10)), 80.0);
        assert_eq!(tw.time_average(SimTime::from_secs(10)), 8.0);
    }

    #[test]
    fn integral_extends_past_last_change() {
        let mut tw = TimeWeighted::new(SimTime::ZERO);
        tw.set(SimTime::ZERO, 5.0);
        assert_eq!(tw.integral(SimTime::from_secs(3)), 15.0);
        // Querying does not mutate state.
        assert_eq!(tw.integral(SimTime::from_secs(3)), 15.0);
    }

    #[test]
    fn empty_interval_average_is_zero() {
        let tw = TimeWeighted::new(SimTime::from_secs(1));
        assert_eq!(tw.time_average(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn backwards_set_panics() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5));
        tw.set(SimTime::from_secs(3), 1.0);
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.incr();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.std_dev() - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 5.5, 9.9, 10.0, -1.0, 11.0] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 2]);
        assert_eq!(h.outliers(), 2);
    }

    #[test]
    #[should_panic(expected = "lo must be below hi")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }
}
