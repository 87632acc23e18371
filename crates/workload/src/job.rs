//! The job model: declared resource envelope + execution profile.

use crate::ids::JobId;
use crate::table1::AppKind;
use phishare_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One phase of a job's execution profile.
///
/// A Xeon Phi offload job alternates between running on the host processor
/// (leaving the coprocessor free) and offloading a kernel to the device
/// (paper §IV-A, Figs. 2–3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Time spent on the host; the coprocessor is idle for this job.
    Host {
        /// Wall-clock duration of the host phase (hosts are never contended
        /// in the paper's setup — 16 host cores vs ≤ a handful of jobs).
        duration: SimDuration,
    },
    /// A kernel offloaded to the coprocessor.
    Offload {
        /// Hardware threads the offload spawns on the device.
        threads: u32,
        /// Nominal duration of the offload when it runs uncontended at
        /// rate 1. Contention (oversubscription, affinity conflicts) scales
        /// the effective rate in `phishare-phi`.
        work: SimDuration,
    },
}

impl Segment {
    /// Convenience constructor for a host segment.
    pub fn host(duration: SimDuration) -> Self {
        Segment::Host { duration }
    }

    /// Convenience constructor for an offload segment.
    pub fn offload(threads: u32, work: SimDuration) -> Self {
        Segment::Offload { threads, work }
    }

    /// True if this is an offload segment.
    pub fn is_offload(&self) -> bool {
        matches!(self, Segment::Offload { .. })
    }

    /// The nominal duration of the segment (host duration or offload work).
    pub fn nominal(&self) -> SimDuration {
        match *self {
            Segment::Host { duration } => duration,
            Segment::Offload { work, .. } => work,
        }
    }
}

/// The ordered segments of a job.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobProfile {
    /// Segments in execution order.
    pub segments: Vec<Segment>,
}

impl JobProfile {
    /// Build a profile from segments.
    pub fn new(segments: Vec<Segment>) -> Self {
        JobProfile { segments }
    }

    /// Total nominal (uncontended) duration of the job.
    pub fn total_nominal(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.nominal())
    }

    /// Fraction of the nominal duration spent in offloads, in `[0, 1]`.
    pub fn offload_fraction(&self) -> f64 {
        let total = self.total_nominal();
        if total.is_zero() {
            return 0.0;
        }
        let off = self
            .segments
            .iter()
            .filter(|s| s.is_offload())
            .fold(SimDuration::ZERO, |acc, s| acc + s.nominal());
        off.as_secs_f64() / total.as_secs_f64()
    }

    /// Maximum thread count over all offload segments (0 if none).
    pub fn max_threads(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| match *s {
                Segment::Offload { threads, .. } => threads,
                Segment::Host { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of offload segments.
    pub fn offload_count(&self) -> usize {
        self.segments.iter().filter(|s| s.is_offload()).count()
    }
}

/// A schedulable job: identity, declared resource envelope and profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Cluster-wide unique id.
    pub id: JobId,
    /// Human-readable name, e.g. `KM-17`.
    pub name: String,
    /// Which application generated this job.
    pub app: AppKind,
    /// Declared maximum coprocessor memory (MB). This is what the user puts
    /// in the Condor submit file and what the knapsack uses as the item
    /// weight.
    pub mem_req_mb: u64,
    /// Declared maximum coprocessor threads. Drives the knapsack value
    /// `v = 1 - (t/T)^2` and the thread-sum feasibility constraint.
    pub thread_req: u32,
    /// Actual peak memory the job will commit while running (MB). Normally
    /// ≤ `mem_req_mb`; failure-injection workloads set it higher to exercise
    /// COSMIC's container kill vs the raw OOM killer.
    pub actual_peak_mem_mb: u64,
    /// The execution profile (hidden from the scheduler).
    pub profile: JobProfile,
}

/// Validation failures for a [`JobSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpecError {
    /// The profile contains no segments.
    EmptyProfile,
    /// An offload segment requests zero threads.
    ZeroThreadOffload,
    /// An offload requests more threads than the declared maximum.
    ThreadsExceedDeclared {
        /// Offending segment's thread count.
        threads: u32,
        /// Declared maximum.
        declared: u32,
    },
    /// The declared thread requirement is zero but the profile offloads.
    ZeroDeclaredThreads,
    /// The declared memory requirement is zero.
    ZeroDeclaredMemory,
    /// The segments' nominal durations sum past the simulated clock's range.
    DurationOverflow,
    /// A workload's job ids are not consecutive in arrival order.
    IdOutOfSequence {
        /// The id this job must carry: the first job's id plus its
        /// position.
        expected: JobId,
    },
    /// A workload's arrival times do not pair one-to-one with its jobs.
    ArrivalCount {
        /// Jobs in the workload.
        jobs: usize,
        /// Arrival times in the workload.
        arrivals: usize,
    },
    /// The job arrives past [`MAX_DURATION_SECS`](crate::MAX_DURATION_SECS).
    ArrivalTooLate {
        /// The job's arrival time.
        at: SimTime,
    },
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::EmptyProfile => write!(f, "job profile has no segments"),
            JobSpecError::ZeroThreadOffload => write!(f, "offload segment requests 0 threads"),
            JobSpecError::ThreadsExceedDeclared { threads, declared } => write!(
                f,
                "offload uses {threads} threads but job declares at most {declared}"
            ),
            JobSpecError::ZeroDeclaredThreads => {
                write!(f, "job offloads but declares 0 threads")
            }
            JobSpecError::ZeroDeclaredMemory => write!(f, "job declares 0 MB of device memory"),
            JobSpecError::DurationOverflow => write!(f, "job's total duration overflows"),
            JobSpecError::IdOutOfSequence { expected } => write!(
                f,
                "job id out of sequence: expected {expected} (ids must be consecutive \
                 in arrival order)"
            ),
            JobSpecError::ArrivalCount { jobs, arrivals } => {
                write!(f, "workload lists {arrivals} arrival times for {jobs} jobs")
            }
            JobSpecError::ArrivalTooLate { at } => write!(
                f,
                "job arrives at {at}, past the {} s limit",
                crate::MAX_DURATION_SECS
            ),
        }
    }
}

impl std::error::Error for JobSpecError {}

impl JobSpec {
    /// Check internal consistency: the declared envelope must cover the
    /// profile (the paper assumes users declare *maximums*, §IV-B).
    pub fn validate(&self) -> Result<(), JobSpecError> {
        if self.profile.segments.is_empty() {
            return Err(JobSpecError::EmptyProfile);
        }
        if self.mem_req_mb == 0 {
            return Err(JobSpecError::ZeroDeclaredMemory);
        }
        let offloads = self.profile.offload_count();
        if offloads > 0 && self.thread_req == 0 {
            return Err(JobSpecError::ZeroDeclaredThreads);
        }
        let segments = &self.profile.segments;
        let ticks = segments
            .iter()
            .try_fold(0u64, |t, s| t.checked_add(s.nominal().ticks()));
        if ticks.is_none() {
            return Err(JobSpecError::DurationOverflow);
        }
        for s in segments {
            if let Segment::Offload { threads, .. } = *s {
                if threads == 0 {
                    return Err(JobSpecError::ZeroThreadOffload);
                }
                if threads > self.thread_req {
                    return Err(JobSpecError::ThreadsExceedDeclared {
                        threads,
                        declared: self.thread_req,
                    });
                }
            }
        }
        Ok(())
    }

    /// Total nominal duration of the job's profile.
    pub fn nominal_duration(&self) -> SimDuration {
        self.profile.total_nominal()
    }

    /// True when the job's actual peak stays within its declared limit.
    pub fn well_behaved(&self) -> bool {
        self.actual_peak_mem_mb <= self.mem_req_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn job(profile: JobProfile, mem: u64, threads: u32) -> JobSpec {
        JobSpec {
            id: JobId(1),
            name: "test".into(),
            app: AppKind::KM,
            mem_req_mb: mem,
            thread_req: threads,
            actual_peak_mem_mb: mem,
            profile,
        }
    }

    #[test]
    fn profile_aggregates() {
        let p = JobProfile::new(vec![
            Segment::host(secs(2)),
            Segment::offload(120, secs(6)),
            Segment::host(secs(2)),
            Segment::offload(60, secs(2)),
        ]);
        assert_eq!(p.total_nominal(), secs(12));
        assert_eq!(p.offload_fraction(), 8.0 / 12.0);
        assert_eq!(p.max_threads(), 120);
        assert_eq!(p.offload_count(), 2);
    }

    #[test]
    fn empty_profile_fraction_is_zero() {
        assert_eq!(JobProfile::default().offload_fraction(), 0.0);
        assert_eq!(JobProfile::default().max_threads(), 0);
    }

    #[test]
    fn validation_accepts_consistent_job() {
        let p = JobProfile::new(vec![Segment::host(secs(1)), Segment::offload(60, secs(3))]);
        assert!(job(p, 500, 60).validate().is_ok());
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let p = JobProfile::new(vec![Segment::offload(120, secs(1))]);
        assert_eq!(
            job(p.clone(), 500, 60).validate(),
            Err(JobSpecError::ThreadsExceedDeclared {
                threads: 120,
                declared: 60
            })
        );
        assert_eq!(
            job(JobProfile::default(), 500, 60).validate(),
            Err(JobSpecError::EmptyProfile)
        );
        assert_eq!(
            job(p.clone(), 0, 120).validate(),
            Err(JobSpecError::ZeroDeclaredMemory)
        );
        assert_eq!(
            job(p, 500, 0).validate(),
            Err(JobSpecError::ZeroDeclaredThreads)
        );
        let zero_thread = JobProfile::new(vec![Segment::offload(0, secs(1))]);
        // Declared threads nonzero, but the segment itself is malformed.
        assert_eq!(
            job(zero_thread, 500, 60).validate(),
            Err(JobSpecError::ZeroThreadOffload)
        );
        let endless = JobProfile::new(vec![
            Segment::host(SimDuration::MAX),
            Segment::offload(60, secs(1)),
        ]);
        assert_eq!(
            job(endless, 500, 60).validate(),
            Err(JobSpecError::DurationOverflow)
        );
    }

    #[test]
    fn well_behaved_flags_overrun() {
        let p = JobProfile::new(vec![Segment::offload(60, secs(1))]);
        let mut j = job(p, 500, 60);
        assert!(j.well_behaved());
        j.actual_peak_mem_mb = 600;
        assert!(!j.well_behaved());
    }

    #[test]
    fn error_display_is_informative() {
        let e = JobSpecError::ThreadsExceedDeclared {
            threads: 240,
            declared: 60,
        };
        assert!(e.to_string().contains("240"));
        assert!(e.to_string().contains("60"));
    }
}
