//! Host-processor model.
//!
//! The paper's footprint argument explicitly assumes "there is no contention
//! for the host by reducing cluster size" (§V-A): jobs' host phases always
//! run at full speed. That holds on the testbed (two 8-core Xeons versus a
//! handful of co-resident jobs), but it stops holding exactly when sharing
//! packs many jobs per node — so we model it and measure the caveat
//! (`abl_host_contention`).
//!
//! Each node has `cores` host cores; every job in a host phase needs one.
//! When more jobs are in host phases than there are cores, all of them
//! proceed at the fair-share rate `cores / n_active` (a processor-sharing
//! queue — the right model for timeslice-scheduled CPU-bound phases).

use phishare_sim::{ceil_ticks, SimDuration, SimTime, TimeWeighted};
use phishare_workload::JobId;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct ActiveSegment {
    /// Nominal work remaining, in ticks at rate 1.
    remaining: f64,
}

/// The host CPUs of one node, executing jobs' host phases.
#[derive(Debug)]
pub(crate) struct HostCpu {
    cores: u32,
    active: BTreeMap<JobId, ActiveSegment>,
    rate: f64,
    last_update: SimTime,
    generation: u64,
    busy: TimeWeighted,
}

impl HostCpu {
    /// Create a host with `cores` cores at simulation time `start`.
    pub(crate) fn new(cores: u32, start: SimTime) -> Self {
        assert!(cores > 0, "a node needs at least one host core");
        HostCpu {
            cores,
            active: BTreeMap::new(),
            rate: 1.0,
            last_update: start,
            generation: 0,
            busy: TimeWeighted::new(start),
        }
    }

    /// Monotone counter bumped whenever rates change; completion events
    /// carrying an older generation are stale.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of host phases currently executing.
    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }

    /// True when `job` has an active host phase here.
    pub(crate) fn is_active(&self, job: JobId) -> bool {
        self.active.contains_key(&job)
    }

    /// Begin a host phase of nominal `duration` for `job`.
    ///
    /// # Panics
    /// Panics if the job already has an active host phase.
    pub(crate) fn start_segment(&mut self, now: SimTime, job: JobId, duration: SimDuration) {
        self.advance_to(now);
        let prior = self.active.insert(
            job,
            ActiveSegment {
                remaining: duration.ticks() as f64,
            },
        );
        assert!(prior.is_none(), "{job} already in a host phase");
        self.reschedule(now);
    }

    /// Complete a host phase whose completion event just fired.
    ///
    /// # Panics
    /// Panics (debug) if called with more than one tick of work left —
    /// the caller fired a stale event the generation guard should drop.
    pub(crate) fn finish_segment(&mut self, now: SimTime, job: JobId) {
        self.advance_to(now);
        let seg = self
            .active
            .remove(&job)
            .unwrap_or_else(|| panic!("{job} has no active host phase"));
        debug_assert!(
            seg.remaining <= self.rate + 1e-6,
            "finish_segment fired with {:.3} ticks left: stale event?",
            seg.remaining
        );
        self.reschedule(now);
    }

    /// Abort a host phase (job killed mid-phase). No-op if absent.
    pub(crate) fn abort(&mut self, now: SimTime, job: JobId) {
        self.advance_to(now);
        if self.active.remove(&job).is_some() {
            self.reschedule(now);
        }
    }

    /// Predicted completion instants under the current fair-share rate,
    /// valid for the current generation.
    pub(crate) fn completions(&self) -> Vec<(JobId, SimTime)> {
        self.active
            .iter()
            .map(|(job, seg)| {
                let dt = ceil_ticks(seg.remaining / self.rate);
                (*job, self.last_update + SimDuration::from_ticks(dt))
            })
            .collect()
    }

    /// Earliest predicted completion `(job, at)`, valid for the current
    /// generation, without allocating.
    ///
    /// Ties break to the lowest [`JobId`] — the order the per-phase events
    /// of [`HostCpu::completions`] would fire in (they are pushed in
    /// ascending-id order), so a single-event driver sees the same phase
    /// finish first as a per-phase one.
    pub(crate) fn next_completion(&self) -> Option<(JobId, SimTime)> {
        let mut best: Option<(JobId, SimTime)> = None;
        for (job, seg) in &self.active {
            let dt = ceil_ticks(seg.remaining / self.rate);
            let at = self.last_update + SimDuration::from_ticks(dt);
            if best.map(|(_, b)| at < b).unwrap_or(true) {
                best = Some((*job, at));
            }
        }
        best
    }

    /// Time-average number of busy host cores through `end`.
    pub(crate) fn busy_core_average(&self, end: SimTime) -> f64 {
        self.busy.time_average(end)
    }

    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            for seg in self.active.values_mut() {
                seg.remaining = (seg.remaining - self.rate * dt).max(0.0);
            }
            self.last_update = now;
        }
    }

    fn reschedule(&mut self, now: SimTime) {
        let n = self.active.len() as f64;
        self.rate = if n <= self.cores as f64 {
            1.0
        } else {
            self.cores as f64 / n
        };
        self.generation += 1;
        self.busy.set(now, n.min(self.cores as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn uncontended_phases_run_at_full_rate() {
        let mut h = HostCpu::new(4, SimTime::ZERO);
        for j in 0..4u64 {
            h.start_segment(t(0), JobId(j), d(10));
        }
        for (_, at) in h.completions() {
            assert_eq!(at, t(10));
        }
    }

    #[test]
    fn oversubscribed_phases_fair_share() {
        let mut h = HostCpu::new(2, SimTime::ZERO);
        for j in 0..4u64 {
            h.start_segment(t(0), JobId(j), d(10));
        }
        // 4 phases on 2 cores → rate 0.5 → 20 s.
        for (_, at) in h.completions() {
            assert_eq!(at, t(20));
        }
    }

    #[test]
    fn departure_speeds_up_the_rest() {
        let mut h = HostCpu::new(1, SimTime::ZERO);
        h.start_segment(t(0), JobId(1), d(10));
        h.start_segment(t(0), JobId(2), d(10));
        // Rate 0.5 each. At t=10, each has 5 s of work left; kill job 2.
        h.abort(t(10), JobId(2));
        let comps = h.completions();
        assert_eq!(comps, vec![(JobId(1), t(15))]); // 5 s at rate 1
        h.finish_segment(t(15), JobId(1));
        assert_eq!(h.active_count(), 0);
    }

    #[test]
    fn generation_tracks_rate_changes() {
        let mut h = HostCpu::new(2, SimTime::ZERO);
        let g0 = h.generation();
        h.start_segment(t(0), JobId(1), d(5));
        assert!(h.generation() > g0);
        let g1 = h.generation();
        h.abort(t(1), JobId(9)); // absent → no change
        assert_eq!(h.generation(), g1);
        h.abort(t(1), JobId(1));
        assert!(h.generation() > g1);
    }

    #[test]
    fn next_completion_is_first_min_of_completions() {
        let mut h = HostCpu::new(4, SimTime::ZERO);
        assert_eq!(h.next_completion(), None);
        h.start_segment(t(0), JobId(7), d(10));
        h.start_segment(t(0), JobId(2), d(10));
        h.start_segment(t(0), JobId(5), d(20));
        // Jobs 2 and 7 tie at t=10; the lower id wins, matching the order
        // per-phase events are pushed (and therefore fire) in.
        assert_eq!(h.next_completion(), Some((JobId(2), t(10))));
        let earliest = h
            .completions()
            .into_iter()
            .min_by_key(|&(j, at)| (at, j))
            .unwrap();
        assert_eq!(h.next_completion(), Some(earliest));
    }

    #[test]
    fn busy_core_accounting() {
        let mut h = HostCpu::new(4, SimTime::ZERO);
        h.start_segment(t(0), JobId(1), d(10));
        h.start_segment(t(0), JobId(2), d(10));
        h.finish_segment(t(10), JobId(1));
        h.finish_segment(t(10), JobId(2));
        // 2 busy cores for half a 20 s window → average 1.
        assert!((h.busy_core_average(t(20)) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already in a host phase")]
    fn double_start_panics() {
        let mut h = HostCpu::new(2, SimTime::ZERO);
        h.start_segment(t(0), JobId(1), d(5));
        h.start_segment(t(0), JobId(1), d(5));
    }
}
