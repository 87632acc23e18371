//! The seven real Xeon Phi applications of the paper's Table I.
//!
//! | Name | Threads | Memory (MB) | Description |
//! |------|---------|-------------|-------------|
//! | KM | 60  | 300–1250 | K-means, Lloyd clustering |
//! | MC | 180 | 400–650  | Monte Carlo path simulation |
//! | MD | 180 | 300–750  | Molecular dynamics |
//! | SG | 60  | 500–3400 | Repeated SGEMM |
//! | BT | 240 | 300–1250 | NAS BT (block tri-diagonal CFD) |
//! | SP | 180 | 300–1850 | NAS SP (scalar penta-diagonal CFD) |
//! | LU | 180 | 400–1250 | NAS LU (lower-upper Gauss–Seidel CFD) |
//!
//! The paper measures exclusive-mode core utilization of ≈ 50 % on a 1000-job
//! mix of these (§III). Per-application offload duty cycles below are
//! calibrated so the same measurement on the simulated cluster lands in that
//! band: expected busy-core fraction per app is
//! `duty × ceil(threads/4)/60`, and the seven-app mean is ≈ 0.48.

use crate::ids::JobId;
use crate::job::{JobProfile, JobSpec, Segment};
use phishare_sim::{DetRng, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which application a job was generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppKind {
    /// K-means clustering (Lloyd).
    KM,
    /// Monte Carlo path simulation.
    MC,
    /// Molecular dynamics.
    MD,
    /// Repeated SGEMM matrix multiplications.
    SG,
    /// NAS BT block tri-diagonal CFD solver.
    BT,
    /// NAS SP scalar penta-diagonal CFD solver.
    SP,
    /// NAS LU Gauss–Seidel CFD solver.
    LU,
    /// Synthetically generated job (Fig. 7 distributions).
    Synthetic,
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppKind::KM => "KM",
            AppKind::MC => "MC",
            AppKind::MD => "MD",
            AppKind::SG => "SG",
            AppKind::BT => "BT",
            AppKind::SP => "SP",
            AppKind::LU => "LU",
            AppKind::Synthetic => "SYN",
        };
        f.write_str(s)
    }
}

impl AppKind {
    /// The seven real Table I applications (excludes `Synthetic`).
    pub const TABLE1: [AppKind; 7] = [
        AppKind::KM,
        AppKind::MC,
        AppKind::MD,
        AppKind::SG,
        AppKind::BT,
        AppKind::SP,
        AppKind::LU,
    ];
}

/// Generation parameters for one Table I application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct AppParams {
    /// Declared thread requirement (Table I "Threads" column).
    pub threads: u32,
    /// Declared memory request range in MB (Table I "Memory" column);
    /// individual instances draw uniformly from this range.
    pub mem_mb: (u64, u64),
    /// Fraction of nominal runtime spent offloaded to the coprocessor.
    pub duty_cycle: f64,
    /// Range of offload segments per job instance.
    pub offloads: (u32, u32),
    /// Range of total nominal job duration in seconds.
    pub duration_secs: (f64, f64),
}

impl AppKind {
    /// Table I parameters for this application.
    ///
    /// # Panics
    /// Panics for [`AppKind::Synthetic`]; synthetic jobs are parameterized by
    /// [`crate::synthetic::SyntheticParams`] instead.
    pub(crate) fn params(self) -> AppParams {
        match self {
            AppKind::KM => AppParams {
                threads: 60,
                mem_mb: (300, 1250),
                duty_cycle: 0.70,
                offloads: (6, 12),
                duration_secs: (15.0, 40.0),
            },
            AppKind::MC => AppParams {
                threads: 180,
                mem_mb: (400, 650),
                duty_cycle: 0.80,
                offloads: (4, 8),
                duration_secs: (15.0, 35.0),
            },
            AppKind::MD => AppParams {
                threads: 180,
                mem_mb: (300, 750),
                duty_cycle: 0.75,
                offloads: (4, 8),
                duration_secs: (20.0, 45.0),
            },
            AppKind::SG => AppParams {
                threads: 60,
                mem_mb: (500, 3400),
                duty_cycle: 0.85,
                offloads: (8, 12),
                duration_secs: (20.0, 45.0),
            },
            AppKind::BT => AppParams {
                threads: 240,
                mem_mb: (300, 1250),
                duty_cycle: 0.70,
                offloads: (8, 14),
                duration_secs: (20.0, 50.0),
            },
            AppKind::SP => AppParams {
                threads: 180,
                mem_mb: (300, 1850),
                duty_cycle: 0.75,
                offloads: (8, 14),
                duration_secs: (20.0, 50.0),
            },
            AppKind::LU => AppParams {
                threads: 180,
                mem_mb: (400, 1250),
                duty_cycle: 0.75,
                offloads: (6, 12),
                duration_secs: (20.0, 45.0),
            },
            AppKind::Synthetic => {
                panic!("AppKind::Synthetic has no Table I parameters")
            }
        }
    }

    /// Generate one job instance of this application.
    ///
    /// The generated profile alternates host and offload segments with the
    /// app's duty cycle; segment lengths are jittered; at least one offload
    /// uses the full declared thread count (the declaration is a *maximum*)
    /// while others may use fewer threads — the paper's footnote 1 notes many
    /// kernels saturate below 60 cores.
    pub(crate) fn generate(self, id: JobId, rng: &mut DetRng) -> JobSpec {
        let p = self.params();
        let mem_req_mb = rng.uniform_u64(p.mem_mb.0, p.mem_mb.1);
        let total_secs = rng.uniform_range(p.duration_secs.0, p.duration_secs.1);
        let n_offloads = rng.uniform_u64(p.offloads.0 as u64, p.offloads.1 as u64) as usize;
        let profile = build_profile(total_secs, p.duty_cycle, n_offloads, p.threads, rng);
        // Jobs typically commit less than their declared maximum; the
        // declared number is a safe upper bound supplied by the user.
        let actual_peak_mem_mb =
            ((mem_req_mb as f64) * rng.uniform_range(0.75, 1.0)).round() as u64;
        JobSpec {
            id,
            name: format!("{self}-{}", id.raw()),
            app: self,
            mem_req_mb,
            thread_req: p.threads,
            actual_peak_mem_mb: actual_peak_mem_mb.max(1),
            profile,
        }
    }
}

/// Split `total` seconds into `n` jittered positive parts.
fn split_jittered(total: f64, n: usize, rng: &mut DetRng) -> Vec<f64> {
    assert!(n > 0);
    let weights: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.5, 1.5)).collect();
    let sum: f64 = weights.iter().sum();
    weights.into_iter().map(|w| total * w / sum).collect()
}

/// Round `threads` down to a positive multiple of 4 (one Phi core's worth of
/// hardware threads).
fn round_threads(threads: f64) -> u32 {
    (((threads / 4.0).round() as u32).max(1)) * 4
}

/// Build an alternating host/offload profile.
///
/// Layout: `H O H O … O H` — jobs start and end with a (possibly short) host
/// phase (setup and teardown in the offload programming model).
pub(crate) fn build_profile(
    total_secs: f64,
    duty_cycle: f64,
    n_offloads: usize,
    max_threads: u32,
    rng: &mut DetRng,
) -> JobProfile {
    assert!(n_offloads > 0, "a Phi job must offload at least once");
    assert!((0.0..1.0).contains(&duty_cycle) || duty_cycle == 1.0);
    let offload_total = total_secs * duty_cycle;
    let host_total = total_secs - offload_total;
    let offload_parts = split_jittered(offload_total, n_offloads, rng);
    let host_parts = split_jittered(host_total.max(1e-3), n_offloads + 1, rng);

    // Pick per-offload thread counts: most use the full declared count, some
    // saturate lower. The largest-work offload is forced to the declared
    // maximum so the declaration really is the max.
    let mut threads: Vec<u32> = (0..n_offloads)
        .map(|_| {
            if rng.chance(0.7) {
                max_threads
            } else {
                round_threads(max_threads as f64 * rng.uniform_range(0.5, 1.0)).min(max_threads)
            }
        })
        .collect();
    let max_work_idx = offload_parts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite work"))
        .map(|(i, _)| i)
        .expect("non-empty offloads");
    threads[max_work_idx] = max_threads;

    let mut segments = Vec::with_capacity(2 * n_offloads + 1);
    for i in 0..n_offloads {
        segments.push(Segment::host(SimDuration::from_secs_f64(host_parts[i])));
        segments.push(Segment::offload(
            threads[i],
            SimDuration::from_secs_f64(offload_parts[i].max(1e-3)),
        ));
    }
    segments.push(Segment::host(SimDuration::from_secs_f64(
        host_parts[n_offloads],
    )));
    JobProfile::new(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_generate_valid_jobs() {
        let mut rng = DetRng::from_seed(1);
        for (i, app) in AppKind::TABLE1.iter().enumerate() {
            let job = app.generate(JobId(i as u64), &mut rng);
            job.validate().expect("generated job must validate");
            let p = app.params();
            assert_eq!(job.thread_req, p.threads);
            assert!(job.mem_req_mb >= p.mem_mb.0 && job.mem_req_mb <= p.mem_mb.1);
            assert!(job.well_behaved());
            assert_eq!(job.profile.max_threads(), p.threads);
        }
    }

    #[test]
    fn duty_cycle_is_respected() {
        let mut rng = DetRng::from_seed(7);
        for app in AppKind::TABLE1 {
            let job = app.generate(JobId(0), &mut rng);
            let duty = job.profile.offload_fraction();
            let expect = app.params().duty_cycle;
            assert!(
                (duty - expect).abs() < 0.02,
                "{app}: duty {duty} vs expected {expect}"
            );
        }
    }

    #[test]
    fn profile_alternates_and_is_bracketed_by_host() {
        let mut rng = DetRng::from_seed(3);
        let job = AppKind::BT.generate(JobId(5), &mut rng);
        let segs = &job.profile.segments;
        assert!(!segs[0].is_offload());
        assert!(!segs[segs.len() - 1].is_offload());
        for pair in segs.windows(2) {
            assert_ne!(pair[0].is_offload(), pair[1].is_offload());
        }
    }

    #[test]
    fn durations_fall_in_declared_range() {
        let mut rng = DetRng::from_seed(11);
        for _ in 0..50 {
            let job = AppKind::SP.generate(JobId(0), &mut rng);
            let d = job.nominal_duration().as_secs_f64();
            let (lo, hi) = AppKind::SP.params().duration_secs;
            assert!(d >= lo - 0.5 && d <= hi + 0.5, "duration {d}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = AppKind::LU.generate(JobId(9), &mut DetRng::from_seed(42));
        let b = AppKind::LU.generate(JobId(9), &mut DetRng::from_seed(42));
        assert_eq!(a, b);
    }

    #[test]
    fn split_jittered_sums_to_total() {
        let mut rng = DetRng::from_seed(5);
        let parts = split_jittered(10.0, 7, &mut rng);
        assert_eq!(parts.len(), 7);
        assert!((parts.iter().sum::<f64>() - 10.0).abs() < 1e-9);
        assert!(parts.iter().all(|p| *p > 0.0));
    }

    #[test]
    fn round_threads_snaps_to_cores() {
        assert_eq!(round_threads(1.0), 4);
        assert_eq!(round_threads(60.0), 60);
        assert_eq!(round_threads(119.0), 120);
    }

    #[test]
    #[should_panic(expected = "Synthetic")]
    fn synthetic_has_no_table1_params() {
        let _ = AppKind::Synthetic.params();
    }

    #[test]
    fn expected_core_utilization_is_near_half() {
        // The §III calibration: mean over apps of duty × ceil(t/4)/60.
        let mean: f64 = AppKind::TABLE1
            .iter()
            .map(|a| {
                let p = a.params();
                p.duty_cycle * (p.threads as f64 / 4.0).ceil() / 60.0
            })
            .sum::<f64>()
            / 7.0;
        assert!(
            (0.40..0.60).contains(&mean),
            "calibration drifted: expected ≈0.5, got {mean}"
        );
    }
}
