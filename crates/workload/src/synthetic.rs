//! Synthetic job generation with the Fig. 7 resource distributions.
//!
//! The paper's sensitivity study (§V-B) uses four sets of 400 synthetic
//! offload jobs whose memory and thread requirements follow, respectively, a
//! uniform distribution, a normal distribution, and two skewed normals whose
//! means sit one standard deviation below/above the normal mean ("low
//! resource skew" / "high resource skew"). Memory and thread requirements
//! are correlated: "jobs with low Xeon Phi memory requirements also have low
//! thread requirements, and vice versa."
//!
//! We realize this with a latent *resource level* `x ∈ [0, 1]` drawn from the
//! chosen distribution; memory and threads are then affine in `x` with a
//! little decorrelating jitter on the thread side.

use crate::ids::JobId;
use crate::job::JobSpec;
use crate::table1::{build_profile, AppKind};
use phishare_sim::DetRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four Fig. 7 resource-requirement distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceDist {
    /// Jobs spread evenly across resource requirements.
    Uniform,
    /// Most jobs in the mid-resource range.
    Normal,
    /// Mean shifted one standard deviation towards *low* resources.
    LowSkew,
    /// Mean shifted one standard deviation towards *high* resources.
    HighSkew,
}

impl ResourceDist {
    /// All four distributions, in the paper's presentation order.
    pub const ALL: [ResourceDist; 4] = [
        ResourceDist::Uniform,
        ResourceDist::Normal,
        ResourceDist::LowSkew,
        ResourceDist::HighSkew,
    ];

    /// Standard deviation of the latent resource level for the normal-family
    /// distributions.
    const SIGMA: f64 = 0.18;

    /// Draw a latent resource level in `[0, 1]`.
    pub(crate) fn sample_level(self, rng: &mut DetRng) -> f64 {
        match self {
            ResourceDist::Uniform => rng.uniform_f64(),
            ResourceDist::Normal => rng.truncated_normal(0.5, Self::SIGMA, 0.0, 1.0),
            ResourceDist::LowSkew => rng.truncated_normal(0.5 - Self::SIGMA, Self::SIGMA, 0.0, 1.0),
            ResourceDist::HighSkew => {
                rng.truncated_normal(0.5 + Self::SIGMA, Self::SIGMA, 0.0, 1.0)
            }
        }
    }
}

impl fmt::Display for ResourceDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceDist::Uniform => "uniform",
            ResourceDist::Normal => "normal",
            ResourceDist::LowSkew => "low-skew",
            ResourceDist::HighSkew => "high-skew",
        };
        f.write_str(s)
    }
}

/// Tunable parameters for synthetic job generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticParams {
    /// Memory request range (MB) mapped linearly from the resource level.
    pub mem_mb: (u64, u64),
    /// Thread request range mapped linearly from the resource level and
    /// rounded to a multiple of 4 (one core's worth of hardware threads).
    pub threads: (u32, u32),
    /// Jitter applied to the thread-side resource level so memory and thread
    /// requirements are correlated but not identical.
    pub thread_jitter: f64,
    /// Offload duty-cycle range.
    pub duty_cycle: (f64, f64),
    /// Offload-count range per job.
    pub offloads: (u32, u32),
    /// Total nominal duration range in seconds.
    pub duration_secs: (f64, f64),
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            // Full usable range of an 8 GB card minus OS/daemon reserve, so
            // high-skew sets really do contain jobs that nearly fill a card.
            mem_mb: (256, 6400),
            threads: (32, 240),
            thread_jitter: 0.08,
            duty_cycle: (0.65, 0.9),
            offloads: (4, 12),
            duration_secs: (15.0, 45.0),
        }
    }
}

impl SyntheticParams {
    /// Generate one synthetic job whose resources follow `dist`.
    pub(crate) fn generate(&self, dist: ResourceDist, id: JobId, rng: &mut DetRng) -> JobSpec {
        let level = dist.sample_level(rng);
        let mem_req_mb = lerp_u64(self.mem_mb, level);
        let t_level =
            (level + rng.uniform_range(-self.thread_jitter, self.thread_jitter)).clamp(0.0, 1.0);
        let thread_req =
            round4(lerp_u64((self.threads.0 as u64, self.threads.1 as u64), t_level) as u32)
                .clamp(4, self.threads.1);

        let duty = rng.uniform_range(self.duty_cycle.0, self.duty_cycle.1);
        let total = rng.uniform_range(self.duration_secs.0, self.duration_secs.1);
        let n_off = rng.uniform_u64(self.offloads.0 as u64, self.offloads.1 as u64) as usize;
        let profile = build_profile(total, duty, n_off, thread_req, rng);
        let actual_peak_mem_mb =
            (((mem_req_mb as f64) * rng.uniform_range(0.75, 1.0)).round() as u64).max(1);
        JobSpec {
            id,
            name: format!("SYN{dist}-{}", id.raw()),
            app: AppKind::Synthetic,
            mem_req_mb,
            thread_req,
            actual_peak_mem_mb,
            profile,
        }
    }
}

fn lerp_u64(range: (u64, u64), level: f64) -> u64 {
    assert!(range.0 <= range.1);
    range.0 + ((range.1 - range.0) as f64 * level).round() as u64
}

fn round4(threads: u32) -> u32 {
    ((threads + 2) / 4).max(1) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_level(dist: ResourceDist, n: usize, seed: u64) -> f64 {
        let mut rng = DetRng::from_seed(seed);
        (0..n).map(|_| dist.sample_level(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn levels_stay_in_unit_interval() {
        let mut rng = DetRng::from_seed(2);
        for dist in ResourceDist::ALL {
            for _ in 0..2000 {
                let x = dist.sample_level(&mut rng);
                assert!((0.0..=1.0).contains(&x), "{dist}: {x}");
            }
        }
    }

    #[test]
    fn distribution_means_are_ordered() {
        let low = mean_level(ResourceDist::LowSkew, 4000, 1);
        let mid = mean_level(ResourceDist::Normal, 4000, 1);
        let uni = mean_level(ResourceDist::Uniform, 4000, 1);
        let high = mean_level(ResourceDist::HighSkew, 4000, 1);
        assert!(low < mid && mid < high, "means: {low} {mid} {high}");
        assert!((uni - 0.5).abs() < 0.03, "uniform mean {uni}");
        assert!((mid - 0.5).abs() < 0.03, "normal mean {mid}");
        // The skews sit roughly one sigma away from the normal mean.
        assert!(
            (mid - low - 0.18).abs() < 0.05,
            "low-skew offset {}",
            mid - low
        );
        assert!(
            (high - mid - 0.18).abs() < 0.05,
            "high-skew offset {}",
            high - mid
        );
    }

    #[test]
    fn generated_jobs_validate_and_correlate() {
        let params = SyntheticParams::default();
        let mut rng = DetRng::from_seed(9);
        let jobs: Vec<JobSpec> = (0..400)
            .map(|i| params.generate(ResourceDist::Uniform, JobId(i), &mut rng))
            .collect();
        for j in &jobs {
            j.validate().expect("synthetic job validates");
            assert!(j.thread_req % 4 == 0 && j.thread_req <= 240);
            assert!(j.mem_req_mb >= 256 && j.mem_req_mb <= 6400);
        }
        // Pearson correlation between memory and threads should be strongly
        // positive (the paper's correlated-resources assumption).
        let n = jobs.len() as f64;
        let mm = jobs.iter().map(|j| j.mem_req_mb as f64).sum::<f64>() / n;
        let tm = jobs.iter().map(|j| j.thread_req as f64).sum::<f64>() / n;
        let cov = jobs
            .iter()
            .map(|j| (j.mem_req_mb as f64 - mm) * (j.thread_req as f64 - tm))
            .sum::<f64>();
        let vm = jobs
            .iter()
            .map(|j| (j.mem_req_mb as f64 - mm).powi(2))
            .sum::<f64>();
        let vt = jobs
            .iter()
            .map(|j| (j.thread_req as f64 - tm).powi(2))
            .sum::<f64>();
        let r = cov / (vm.sqrt() * vt.sqrt());
        assert!(r > 0.8, "memory-thread correlation too weak: {r}");
    }

    #[test]
    fn skewed_sets_differ_in_resource_mass() {
        let params = SyntheticParams::default();
        let gen = |dist| {
            let mut rng = DetRng::from_seed(77);
            (0..400)
                .map(|i| params.generate(dist, JobId(i), &mut rng).mem_req_mb)
                .sum::<u64>() as f64
                / 400.0
        };
        let low = gen(ResourceDist::LowSkew);
        let high = gen(ResourceDist::HighSkew);
        assert!(
            high > low * 1.5,
            "high-skew mean memory ({high}) should dwarf low-skew ({low})"
        );
    }

    #[test]
    fn round4_behaviour() {
        assert_eq!(round4(1), 4);
        assert_eq!(round4(4), 4);
        assert_eq!(round4(6), 8);
        assert_eq!(round4(240), 240);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp_u64((100, 200), 0.0), 100);
        assert_eq!(lerp_u64((100, 200), 1.0), 200);
        assert_eq!(lerp_u64((100, 200), 0.5), 150);
    }

    #[test]
    fn display_names() {
        assert_eq!(ResourceDist::LowSkew.to_string(), "low-skew");
    }
}
