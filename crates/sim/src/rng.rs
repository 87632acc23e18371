//! Deterministic, splittable random number generation.
//!
//! Every stochastic component of the simulation (workload generation, random
//! job selection in the MCC baseline, memory-growth jitter) draws from a
//! [`DetRng`] derived from a single experiment seed plus a component label.
//! Splitting by label means adding a new consumer of randomness never
//! perturbs the streams of existing consumers, so experiment results stay
//! stable as the code evolves.
//!
//! The normal sampler is a Box–Muller implementation so the crate does not
//! need `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer — used to derive independent substream seeds from a
/// master seed and a label hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label string, for substream derivation.
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A seeded deterministic RNG with convenience samplers.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl DetRng {
    /// Create a generator from a raw 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(splitmix64(seed)),
            spare_normal: None,
        }
    }

    /// Derive an independent substream for `label` from a master `seed`.
    ///
    /// ```
    /// use phishare_sim::DetRng;
    /// let mut a = DetRng::substream(42, "workload");
    /// let mut b = DetRng::substream(42, "mcc-selection");
    /// // Streams are independent but each is individually reproducible.
    /// assert_eq!(
    ///     DetRng::substream(42, "workload").uniform_f64(),
    ///     a.uniform_f64(),
    /// );
    /// let _ = b.uniform_f64();
    /// ```
    pub fn substream(seed: u64, label: &str) -> Self {
        DetRng::from_seed(seed ^ label_hash(label))
    }

    /// Derive a numbered substream, e.g. one per job.
    pub fn substream_indexed(seed: u64, label: &str, index: u64) -> Self {
        DetRng::from_seed(seed ^ label_hash(label) ^ splitmix64(index))
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range: lo > hi");
        if lo == hi {
            lo
        } else {
            self.inner.random_range(lo..hi)
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: lo > hi");
        self.inner.random_range(lo..=hi)
    }

    /// Uniform index in `[0, len)`.
    ///
    /// # Panics
    /// Panics when `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index: empty range");
        self.inner.random_range(0..len)
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance: p out of [0,1]");
        self.uniform_f64() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub(crate) fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "normal: negative std_dev");
        mean + std_dev * self.standard_normal()
    }

    /// Normal sample rejected-and-resampled into `[lo, hi]`.
    ///
    /// Falls back to clamping after 64 rejections so pathological parameters
    /// (e.g. a mean far outside the interval) cannot loop forever.
    pub fn truncated_normal(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "truncated_normal: lo > hi");
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        mean.clamp(lo, hi)
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential: non-positive mean");
        let u = 1.0 - self.uniform_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.random_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::from_seed(7);
        let mut b = DetRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_f64(), b.uniform_f64());
        }
    }

    #[test]
    fn substreams_differ() {
        let mut a = DetRng::substream(7, "alpha");
        let mut b = DetRng::substream(7, "beta");
        let same = (0..32)
            .filter(|_| a.uniform_f64() == b.uniform_f64())
            .count();
        assert!(same < 4, "substreams look correlated");
    }

    #[test]
    fn indexed_substreams_differ() {
        let mut a = DetRng::substream_indexed(7, "job", 0);
        let mut b = DetRng::substream_indexed(7, "job", 1);
        assert_ne!(a.uniform_f64(), b.uniform_f64());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = DetRng::from_seed(1);
        for _ in 0..1000 {
            let x = r.uniform_range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let n = r.uniform_u64(5, 9);
            assert!((5..=9).contains(&n));
        }
        assert_eq!(r.uniform_range(4.0, 4.0), 4.0);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = DetRng::from_seed(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = DetRng::from_seed(3);
        for _ in 0..1000 {
            let x = r.truncated_normal(0.5, 1.0, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
        // Pathological mean: falls back to clamp, never loops forever.
        let x = r.truncated_normal(1e9, 1.0, 0.0, 1.0);
        assert_eq!(x, 1.0);
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut r = DetRng::from_seed(5);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::from_seed(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle left input untouched");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::from_seed(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
