//! Workload assembly: job sets, arrival processes, (de)serialization.

use crate::ids::JobId;
use crate::io::MAX_DURATION_SECS;
use crate::job::{JobSpec, JobSpecError};
use crate::synthetic::{ResourceDist, SyntheticParams};
use crate::table1::AppKind;
use phishare_sim::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What family of jobs a workload draws from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// A uniform mix over the seven Table I applications (the paper's
    /// "1000 independent job instances from Table I").
    Table1Mix,
    /// One Table I application only.
    Table1Single(AppKind),
    /// Synthetic jobs following a Fig. 7 distribution.
    Synthetic(ResourceDist, SyntheticParams),
}

/// When jobs enter the queue.
///
/// The trace-replay families (`Diurnal`, `Bursty`, `FlashCrowd`) model the
/// arrival shapes a production scheduler actually sees; all of them draw
/// from the same `"workload-arrivals"` substream as `Poisson`, so a
/// workload is bit-reproducible from its seed regardless of family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// The whole job set is pending at time zero (the paper's static
    /// formulation, §IV-D "Limitations").
    AllAtZero,
    /// Poisson arrivals with the given mean inter-arrival gap (the paper's
    /// "dynamic context" future-work scenario).
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_gap: SimDuration,
    },
    /// Non-homogeneous Poisson whose intensity swings sinusoidally around
    /// the base rate — a compressed day/night load cycle.
    Diurnal {
        /// Mean gap at the baseline intensity.
        mean_gap: SimDuration,
        /// Length of one full intensity cycle.
        period: SimDuration,
        /// Swing around the baseline, in `[0, 1)`: intensity at time `t`
        /// is `1 + amplitude * sin(2πt / period)`.
        amplitude: f64,
    },
    /// Arrivals come in bursts: burst heads are Poisson with `mean_gap`,
    /// each head trailed by `burst_size - 1` followers separated by
    /// exponential gaps of mean `burst_gap`.
    Bursty {
        /// Mean gap between the end of one burst and the next head.
        mean_gap: SimDuration,
        /// Jobs per burst (1 degenerates to plain Poisson).
        burst_size: u32,
        /// Mean gap between jobs inside a burst.
        burst_gap: SimDuration,
    },
    /// Baseline Poisson with `mean_gap`, except `crowd_fraction` of the
    /// jobs all pile up at instant `at` (a flash crowd / thundering herd).
    FlashCrowd {
        /// Mean gap of the baseline arrivals.
        mean_gap: SimDuration,
        /// Instant the crowd lands.
        at: SimTime,
        /// Fraction of the job count in the crowd, in `[0, 1]`.
        crowd_fraction: f64,
    },
}

impl ArrivalProcess {
    /// Generate `count` non-decreasing arrival instants from `seed`.
    ///
    /// Every stochastic family draws from the `"workload-arrivals"`
    /// substream; `AllAtZero` draws nothing, so workloads that never asked
    /// for arrivals stay bit-identical to historical ones.
    pub fn generate(&self, seed: u64, count: usize) -> Vec<SimTime> {
        let mut arrivals = Vec::with_capacity(count);
        match *self {
            ArrivalProcess::AllAtZero => {
                arrivals.resize(count, SimTime::ZERO);
            }
            ArrivalProcess::Poisson { mean_gap } => {
                let mut rng = DetRng::substream(seed, "workload-arrivals");
                let mut t = SimTime::ZERO;
                for _ in 0..count {
                    t += SimDuration::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
                    arrivals.push(t);
                }
            }
            ArrivalProcess::Diurnal {
                mean_gap,
                period,
                amplitude,
            } => {
                debug_assert!((0.0..1.0).contains(&amplitude), "amplitude in [0, 1)");
                let mut rng = DetRng::substream(seed, "workload-arrivals");
                let mut t = SimTime::ZERO;
                let omega = std::f64::consts::TAU / period.as_secs_f64();
                for _ in 0..count {
                    let intensity = 1.0 + amplitude * (omega * t.as_secs_f64()).sin();
                    let gap = rng.exponential(mean_gap.as_secs_f64() / intensity);
                    t += SimDuration::from_secs_f64(gap);
                    arrivals.push(t);
                }
            }
            ArrivalProcess::Bursty {
                mean_gap,
                burst_size,
                burst_gap,
            } => {
                let mut rng = DetRng::substream(seed, "workload-arrivals");
                let mut t = SimTime::ZERO;
                let per_burst = burst_size.max(1) as usize;
                while arrivals.len() < count {
                    t += SimDuration::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
                    arrivals.push(t);
                    for _ in 1..per_burst {
                        if arrivals.len() == count {
                            break;
                        }
                        t += SimDuration::from_secs_f64(rng.exponential(burst_gap.as_secs_f64()));
                        arrivals.push(t);
                    }
                }
            }
            ArrivalProcess::FlashCrowd {
                mean_gap,
                at,
                crowd_fraction,
            } => {
                debug_assert!(
                    (0.0..=1.0).contains(&crowd_fraction),
                    "crowd_fraction in [0, 1]"
                );
                let mut rng = DetRng::substream(seed, "workload-arrivals");
                let mut t = SimTime::ZERO;
                for _ in 0..count {
                    t += SimDuration::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
                    arrivals.push(t);
                }
                // The crowd takes over the tail of the baseline sequence;
                // re-sorting restores arrival order (job specs are drawn
                // from per-job substreams, so reassigning instants to
                // indices is harmless).
                let crowd = ((count as f64) * crowd_fraction).ceil() as usize;
                let start = count.saturating_sub(crowd);
                for slot in arrivals[start..].iter_mut() {
                    *slot = at;
                }
                arrivals.sort_unstable();
            }
        }
        arrivals
    }
}

impl std::str::FromStr for ArrivalProcess {
    type Err = String;

    /// Parse CLI specs: `zero`, `poisson:GAP`, `diurnal:GAP:PERIOD:AMP`,
    /// `bursty:GAP:SIZE:BURST_GAP`, `flash:GAP:AT:FRACTION` (all times in
    /// seconds). Gaps and periods must round to at least one tick, and no
    /// time — a diurnal trough's mean gap `GAP / (1 - AMP)` included — may
    /// exceed [`MAX_DURATION_SECS`].
    fn from_str(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let nums = |want: usize| -> Result<Vec<f64>, String> {
            if parts.len() != want + 1 {
                return Err(format!(
                    "arrival spec `{s}`: expected {want} parameters after `{}`",
                    parts[0]
                ));
            }
            parts[1..]
                .iter()
                .map(|p| {
                    p.parse::<f64>()
                        .map_err(|e| format!("arrival spec `{s}`: bad number {p:?}: {e}"))
                })
                .collect()
        };
        let bounded = |name: &str, v: f64| -> Result<f64, String> {
            if v > MAX_DURATION_SECS {
                return Err(format!(
                    "arrival spec `{s}`: {name} exceeds {MAX_DURATION_SECS} s"
                ));
            }
            Ok(v)
        };
        let gap = |name: &str, v: f64| -> Result<SimDuration, String> {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("arrival spec `{s}`: {name} must be positive"));
            }
            let d = SimDuration::from_secs_f64(bounded(name, v)?);
            if d.is_zero() {
                return Err(format!(
                    "arrival spec `{s}`: {name} rounds to zero ticks (under 1 ms)"
                ));
            }
            Ok(d)
        };
        match parts[0] {
            "zero" => {
                nums(0)?;
                Ok(ArrivalProcess::AllAtZero)
            }
            "poisson" => {
                let v = nums(1)?;
                Ok(ArrivalProcess::Poisson {
                    mean_gap: gap("gap", v[0])?,
                })
            }
            "diurnal" => {
                let v = nums(3)?;
                if !(0.0..1.0).contains(&v[2]) {
                    return Err(format!("arrival spec `{s}`: amplitude must be in [0, 1)"));
                }
                let mean_gap = gap("gap", v[0])?;
                bounded("trough gap", v[0] / (1.0 - v[2]))?;
                Ok(ArrivalProcess::Diurnal {
                    mean_gap,
                    period: gap("period", v[1])?,
                    amplitude: v[2],
                })
            }
            "bursty" => {
                let v = nums(3)?;
                if v[1].fract() != 0.0 || !(1.0..=10_000.0).contains(&v[1]) {
                    return Err(format!(
                        "arrival spec `{s}`: burst size must be an integer >= 1"
                    ));
                }
                Ok(ArrivalProcess::Bursty {
                    mean_gap: gap("gap", v[0])?,
                    burst_size: v[1] as u32,
                    burst_gap: gap("burst gap", v[2])?,
                })
            }
            "flash" => {
                let v = nums(3)?;
                if !v[1].is_finite() || v[1] < 0.0 {
                    return Err(format!("arrival spec `{s}`: crowd instant must be >= 0"));
                }
                if !(0.0..=1.0).contains(&v[2]) {
                    return Err(format!(
                        "arrival spec `{s}`: crowd fraction must be in [0, 1]"
                    ));
                }
                Ok(ArrivalProcess::FlashCrowd {
                    mean_gap: gap("gap", v[0])?,
                    at: SimTime::ZERO + SimDuration::from_secs_f64(bounded("crowd instant", v[1])?),
                    crowd_fraction: v[2],
                })
            }
            other => Err(format!(
                "unknown arrival family `{other}` (want zero | poisson | diurnal | bursty | flash)"
            )),
        }
    }
}

/// A fully generated workload: jobs plus their arrival times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Descriptive label (used in experiment reports).
    pub label: String,
    /// The jobs, in arrival order.
    pub jobs: Vec<JobSpec>,
    /// Arrival instant of each job (parallel to `jobs`).
    pub arrivals: Vec<SimTime>,
    /// Seed the workload was generated from (for provenance).
    pub seed: u64,
}

impl Workload {
    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the workload has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Sum of declared memory over all jobs, in MB.
    pub fn total_declared_mem_mb(&self) -> u64 {
        self.jobs.iter().map(|j| j.mem_req_mb).sum()
    }

    /// Sum of nominal durations over all jobs.
    pub fn total_nominal(&self) -> SimDuration {
        self.jobs
            .iter()
            .fold(SimDuration::ZERO, |acc, j| acc + j.nominal_duration())
    }

    /// Validate every job in the workload, that each job has one arrival
    /// time no later than [`MAX_DURATION_SECS`], and that job ids are
    /// consecutive in arrival order — the first job's id, then one more
    /// per job — so a simulation can keep per-job state at each job's
    /// position. [`WorkloadBuilder`] and CSV import number jobs this way.
    /// A count mismatch names the first job id without a partner.
    pub fn validate(&self) -> Result<(), (JobId, JobSpecError)> {
        let first = self.jobs.first().map_or(0, |j| j.id.raw());
        let (jobs, arrivals) = (self.jobs.len(), self.arrivals.len());
        if jobs != arrivals {
            let unpaired = JobId(first.saturating_add(jobs.min(arrivals) as u64));
            return Err((unpaired, JobSpecError::ArrivalCount { jobs, arrivals }));
        }
        for (i, (j, &at)) in self.jobs.iter().zip(&self.arrivals).enumerate() {
            if j.id.raw().checked_sub(first) != Some(i as u64) {
                let expected = JobId(first.saturating_add(i as u64));
                return Err((j.id, JobSpecError::IdOutOfSequence { expected }));
            }
            if at.as_secs_f64() > MAX_DURATION_SECS {
                return Err((j.id, JobSpecError::ArrivalTooLate { at }));
            }
            j.validate().map_err(|e| (j.id, e))?;
        }
        Ok(())
    }

    /// Serialize to a JSON string (for caching generated workloads and for
    /// EXPERIMENTS.md provenance).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("workload serialization cannot fail")
    }

    /// Deserialize from the JSON produced by [`Workload::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Builder for reproducible workloads.
///
/// ```
/// use phishare_workload::{WorkloadBuilder, WorkloadKind};
///
/// let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
///     .count(100)
///     .seed(42)
///     .build();
/// assert_eq!(wl.len(), 100);
/// assert!(wl.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    kind: WorkloadKind,
    count: usize,
    seed: u64,
    arrivals: ArrivalProcess,
    /// Fraction of jobs whose actual peak memory exceeds their declaration
    /// (failure injection; exercises container kills / OOM paths).
    misbehaving_fraction: f64,
    /// Starting job id (lets several workloads coexist in one simulation).
    first_id: u64,
    /// Mid-run mix shift: jobs from this fraction point onward draw from
    /// the alternate kind instead (trace replay of a job-size-mix change).
    mix_shift: Option<(f64, WorkloadKind)>,
}

impl WorkloadBuilder {
    /// Start a builder for the given workload kind.
    pub fn new(kind: WorkloadKind) -> Self {
        WorkloadBuilder {
            kind,
            count: 100,
            seed: 0,
            arrivals: ArrivalProcess::AllAtZero,
            misbehaving_fraction: 0.0,
            first_id: 0,
            mix_shift: None,
        }
    }

    /// Set the number of jobs (paper: 1000 real, 400/1600 synthetic).
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Inject jobs that under-declare memory (actual peak 1.1–1.5× declared).
    pub fn misbehaving_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.misbehaving_fraction = fraction;
        self
    }

    /// Set the first job id.
    pub fn first_id(mut self, first: u64) -> Self {
        self.first_id = first;
        self
    }

    /// Switch the job mix at a fraction point: jobs with index
    /// `>= fraction * count` draw from `kind` instead of the primary kind.
    ///
    /// Per-job substreams are untouched, so the pre-shift prefix is
    /// bit-identical to the unshifted workload.
    pub fn mix_shift(mut self, fraction: f64, kind: WorkloadKind) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.mix_shift = Some((fraction, kind));
        self
    }

    /// Generate the workload.
    pub fn build(&self) -> Workload {
        let shift_at = self
            .mix_shift
            .as_ref()
            .map(|(fraction, _)| ((self.count as f64) * fraction).ceil() as usize);
        let mut jobs = Vec::with_capacity(self.count);
        for i in 0..self.count {
            let id = JobId(self.first_id + i as u64);
            // Per-job substream: adding/removing jobs never shifts the
            // randomness of other jobs.
            let mut rng = DetRng::substream_indexed(self.seed, "workload-job", id.raw());
            let kind = match (&self.mix_shift, shift_at) {
                (Some((_, shifted)), Some(at)) if i >= at => shifted,
                _ => &self.kind,
            };
            let mut job = match kind {
                WorkloadKind::Table1Mix => {
                    let app = *rng.choose(&AppKind::TABLE1);
                    app.generate(id, &mut rng)
                }
                WorkloadKind::Table1Single(app) => app.generate(id, &mut rng),
                WorkloadKind::Synthetic(dist, params) => params.generate(*dist, id, &mut rng),
            };
            if self.misbehaving_fraction > 0.0 && rng.chance(self.misbehaving_fraction) {
                job.actual_peak_mem_mb =
                    ((job.mem_req_mb as f64) * rng.uniform_range(1.1, 1.5)).round() as u64;
            }
            jobs.push(job);
        }

        let arrivals = self.arrivals.generate(self.seed, self.count);

        let kind_label = |kind: &WorkloadKind| match kind {
            WorkloadKind::Table1Mix => "table1-mix".to_string(),
            WorkloadKind::Table1Single(app) => format!("{app}"),
            WorkloadKind::Synthetic(dist, _) => format!("syn-{dist}"),
        };
        let mut label = format!("{}×{}", kind_label(&self.kind), self.count);
        if let Some((fraction, shifted)) = &self.mix_shift {
            label = format!("{label}→{}@{fraction}", kind_label(shifted));
        }
        Workload {
            label,
            jobs,
            arrivals,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mix_covers_all_apps() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(200)
            .seed(1)
            .build();
        wl.validate().unwrap();
        for app in AppKind::TABLE1 {
            assert!(
                wl.jobs.iter().any(|j| j.app == app),
                "app {app} missing from 200-job mix"
            );
        }
        assert!(wl.arrivals.iter().all(|t| *t == SimTime::ZERO));
    }

    #[test]
    fn builds_are_deterministic() {
        let b = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(50)
            .seed(9);
        assert_eq!(b.build(), b.build());
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(50)
            .seed(1)
            .build();
        let b = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(50)
            .seed(2)
            .build();
        assert_ne!(a, b);
    }

    #[test]
    fn growing_count_preserves_prefix() {
        // Per-job substreams: job i is identical whether we generate 10 or
        // 100 jobs.
        let small = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(10)
            .seed(5)
            .build();
        let large = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(100)
            .seed(5)
            .build();
        assert_eq!(&large.jobs[..10], &small.jobs[..]);
    }

    #[test]
    fn poisson_arrivals_are_increasing() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(100)
            .seed(3)
            .arrivals(ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs(2),
            })
            .build();
        for pair in wl.arrivals.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        let last = wl.arrivals.last().unwrap().as_secs_f64();
        // 100 gaps of mean 2 s ≈ 200 s; allow wide tolerance.
        assert!(last > 80.0 && last < 500.0, "last arrival {last}");
    }

    #[test]
    fn trace_replay_arrivals_are_increasing_and_deterministic() {
        let families = [
            ArrivalProcess::Diurnal {
                mean_gap: SimDuration::from_secs(2),
                period: SimDuration::from_secs(60),
                amplitude: 0.8,
            },
            ArrivalProcess::Bursty {
                mean_gap: SimDuration::from_secs(10),
                burst_size: 5,
                burst_gap: SimDuration::from_millis(200),
            },
            ArrivalProcess::FlashCrowd {
                mean_gap: SimDuration::from_secs(2),
                at: SimTime::from_secs(30),
                crowd_fraction: 0.3,
            },
        ];
        for family in families {
            let build = || {
                WorkloadBuilder::new(WorkloadKind::Table1Mix)
                    .count(100)
                    .seed(14)
                    .arrivals(family)
                    .build()
            };
            let wl = build();
            wl.validate().unwrap();
            assert_eq!(wl, build(), "{family:?} not deterministic");
            for pair in wl.arrivals.windows(2) {
                assert!(pair[0] <= pair[1], "{family:?} out of order");
            }
            assert!(
                *wl.arrivals.last().unwrap() > SimTime::ZERO,
                "{family:?} degenerate"
            );
        }
    }

    #[test]
    fn flash_crowd_piles_up_at_the_instant() {
        let at = SimTime::from_secs(30);
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(100)
            .seed(15)
            .arrivals(ArrivalProcess::FlashCrowd {
                mean_gap: SimDuration::from_secs(2),
                at,
                crowd_fraction: 0.4,
            })
            .build();
        let crowd = wl.arrivals.iter().filter(|t| **t == at).count();
        assert!(crowd >= 40, "only {crowd} jobs in the crowd");
    }

    #[test]
    fn bursty_arrivals_cluster() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(100)
            .seed(16)
            .arrivals(ArrivalProcess::Bursty {
                mean_gap: SimDuration::from_secs(60),
                burst_size: 10,
                burst_gap: SimDuration::from_millis(100),
            })
            .build();
        // Most consecutive gaps are intra-burst (~0.1 s), far below the
        // 60 s head gap.
        let small = wl
            .arrivals
            .windows(2)
            .filter(|p| (p[1] - p[0]).as_secs_f64() < 1.0)
            .count();
        assert!(small >= 80, "only {small} intra-burst gaps");
    }

    #[test]
    fn mix_shift_changes_the_tail_and_preserves_the_prefix() {
        let plain = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(40)
            .seed(17)
            .build();
        let shifted = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(40)
            .seed(17)
            .mix_shift(0.5, WorkloadKind::Table1Single(AppKind::TABLE1[0]))
            .build();
        shifted.validate().unwrap();
        assert_eq!(&shifted.jobs[..20], &plain.jobs[..20]);
        assert!(shifted.jobs[20..]
            .iter()
            .all(|j| j.app == AppKind::TABLE1[0]));
        assert!(shifted.label.contains('→'), "{}", shifted.label);
    }

    #[test]
    fn arrival_specs_parse() {
        use std::str::FromStr;
        assert_eq!(
            ArrivalProcess::from_str("zero").unwrap(),
            ArrivalProcess::AllAtZero
        );
        assert_eq!(
            ArrivalProcess::from_str("poisson:2.5").unwrap(),
            ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs_f64(2.5)
            }
        );
        assert_eq!(
            ArrivalProcess::from_str("diurnal:2:120:0.7").unwrap(),
            ArrivalProcess::Diurnal {
                mean_gap: SimDuration::from_secs(2),
                period: SimDuration::from_secs(120),
                amplitude: 0.7,
            }
        );
        assert_eq!(
            ArrivalProcess::from_str("bursty:30:8:0.2").unwrap(),
            ArrivalProcess::Bursty {
                mean_gap: SimDuration::from_secs(30),
                burst_size: 8,
                burst_gap: SimDuration::from_secs_f64(0.2),
            }
        );
        assert_eq!(
            ArrivalProcess::from_str("flash:2:45:0.3").unwrap(),
            ArrivalProcess::FlashCrowd {
                mean_gap: SimDuration::from_secs(2),
                at: SimTime::from_secs(45),
                crowd_fraction: 0.3,
            }
        );
        for bad in [
            "",
            "poisson",
            "poisson:0",
            "poisson:x",
            "diurnal:2:120:1.5",
            "bursty:30:0:0.2",
            "bursty:30:2.5:0.2",
            "flash:2:45:1.5",
            "flash:2:-1:0.3",
            "weibull:1",
            // Gaps that round to zero ticks, and times past the bound.
            "poisson:1e-300",
            "poisson:0.0004",
            "diurnal:1e-300:1:0.5",
            "diurnal:2:1e-9:0.5",
            "bursty:30:8:1e-9",
            "poisson:1e300",
            "poisson:10000001",
            "diurnal:9000000:120:0.5",
            "flash:1:1e12:0.5",
        ] {
            assert!(ArrivalProcess::from_str(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn misbehaving_jobs_overrun_their_declaration() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(300)
            .seed(4)
            .misbehaving_fraction(0.3)
            .build();
        let bad = wl.jobs.iter().filter(|j| !j.well_behaved()).count();
        assert!(
            (50..=130).contains(&bad),
            "expected ≈90 misbehaving jobs, got {bad}"
        );
    }

    #[test]
    fn synthetic_kind_builds() {
        let wl = WorkloadBuilder::new(WorkloadKind::Synthetic(
            ResourceDist::HighSkew,
            SyntheticParams::default(),
        ))
        .count(400)
        .seed(6)
        .build();
        wl.validate().unwrap();
        assert_eq!(wl.len(), 400);
        assert!(wl.label.contains("high-skew"));
    }

    #[test]
    fn json_round_trip() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(20)
            .seed(8)
            .build();
        let json = wl.to_json();
        let back = Workload::from_json(&json).unwrap();
        assert_eq!(wl, back);
    }

    #[test]
    fn first_id_offsets_ids() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(5)
            .first_id(100)
            .build();
        assert_eq!(wl.jobs[0].id, JobId(100));
        assert_eq!(wl.jobs[4].id, JobId(104));
        wl.validate().unwrap();
    }

    #[test]
    fn validate_requires_consecutive_ids() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(4)
            .first_id(10)
            .build();
        let out_of_sequence = |job: u64, expected: u64| {
            Err((
                JobId(job),
                JobSpecError::IdOutOfSequence {
                    expected: JobId(expected),
                },
            ))
        };
        let mut duplicate = wl.clone();
        duplicate.jobs[2].id = JobId(11);
        assert_eq!(duplicate.validate(), out_of_sequence(11, 12));
        let mut gapped = wl.clone();
        gapped.jobs[3].id = JobId(14);
        assert_eq!(gapped.validate(), out_of_sequence(14, 13));
        let mut descending = wl;
        descending.jobs[1].id = JobId(9);
        assert_eq!(descending.validate(), out_of_sequence(9, 11));
        let mut past_the_end = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(2)
            .build();
        past_the_end.jobs[0].id = JobId(u64::MAX);
        past_the_end.jobs[1].id = JobId(u64::MAX);
        assert!(past_the_end.validate().is_err());
    }

    #[test]
    fn validate_pairs_every_job_with_a_bounded_arrival() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(4)
            .first_id(10)
            .build();
        let count_mismatch = |job: u64, jobs: usize, arrivals: usize| {
            Err((JobId(job), JobSpecError::ArrivalCount { jobs, arrivals }))
        };
        let mut missing = wl.clone();
        missing.arrivals.pop();
        assert_eq!(missing.validate(), count_mismatch(13, 4, 3));
        let mut extra = wl.clone();
        extra.arrivals.push(SimTime::ZERO);
        assert_eq!(extra.validate(), count_mismatch(14, 4, 5));
        let mut no_jobs = wl.clone();
        no_jobs.jobs.clear();
        assert_eq!(no_jobs.validate(), count_mismatch(0, 0, 4));

        let limit = SimTime::from_secs(MAX_DURATION_SECS as u64);
        let mut at_limit = wl.clone();
        at_limit.arrivals[3] = limit;
        assert_eq!(at_limit.validate(), Ok(()));
        for (job, at) in [(12, limit.ticks() + 1), (10, 18_446_744_073_709_551_000)] {
            let mut late = wl.clone();
            let at = SimTime::from_ticks(at);
            late.arrivals[(job - 10) as usize] = at;
            assert_eq!(
                late.validate(),
                Err((JobId(job), JobSpecError::ArrivalTooLate { at }))
            );
        }
    }

    #[test]
    fn aggregates_are_positive() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(10)
            .seed(2)
            .build();
        assert!(wl.total_declared_mem_mb() > 0);
        assert!(wl.total_nominal() > SimDuration::ZERO);
        assert!(!wl.is_empty());
    }
}
