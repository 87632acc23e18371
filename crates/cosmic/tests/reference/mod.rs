//! `ReferenceCosmic`: a test-only specification of COSMIC's admission
//! rules (§IV-D2), written against the crate's public API alone.
//!
//! Registrations and active offloads live in ordered maps keyed by
//! [`JobId`], and every aggregate is recomputed from them when asked. An
//! offload starts only while the active thread sum stays within the
//! hardware's threads and the core allocator has enough free cores; a
//! request that cannot start, or that would overtake a non-empty queue,
//! waits. A departure or completion admits waiters in queue order: FIFO
//! stops at the first that does not fit, backfill skips it.

use phishare_cosmic::{
    Admission, ContainerVerdict, CosmicConfig, CosmicSubstrate, OffloadGrant, OffloadPolicy,
};
use phishare_phi::{Affinity, CoreAllocator, CoreSet, PhiConfig};
use phishare_sim::{SimDuration, SimTime, Summary};
use phishare_workload::JobId;
use std::collections::{BTreeMap, VecDeque};

#[derive(Clone, Copy)]
struct Waiting {
    job: JobId,
    threads: u32,
    work: SimDuration,
    enqueued: SimTime,
}

/// COSMIC's per-card admission state as a plain specification.
pub struct ReferenceCosmic {
    cfg: CosmicConfig,
    phi: PhiConfig,
    allocator: CoreAllocator,
    /// Declared `(memory MB, threads)` per registered job.
    registered: BTreeMap<JobId, (u64, u32)>,
    /// Threads and cores per active offload.
    active: BTreeMap<JobId, (u32, CoreSet)>,
    waiting: VecDeque<Waiting>,
    /// Time each admitted offload waited, seconds.
    pub queue_wait: Summary,
    /// Offloads that had to wait.
    pub queued_total: u64,
}

impl ReferenceCosmic {
    /// Thread sum of the active offloads.
    pub fn active_threads(&self) -> u32 {
        self.active.values().map(|&(threads, _)| threads).sum()
    }

    /// Offloads waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Declared memory over registered jobs, MB.
    pub fn registered_declared_mb(&self) -> u64 {
        self.registered.values().map(|&(mb, _)| mb).sum()
    }

    /// Declared threads over registered jobs.
    pub fn registered_declared_threads(&self) -> u32 {
        self.registered.values().map(|&(_, threads)| threads).sum()
    }

    fn try_start(&mut self, now: SimTime, w: Waiting) -> Option<OffloadGrant> {
        if self.active_threads() + w.threads > self.phi.hw_threads() {
            return None;
        }
        let cores = self
            .allocator
            .allocate(w.threads.div_ceil(self.phi.threads_per_core))?;
        self.active.insert(w.job, (w.threads, cores));
        self.queue_wait.record(now.since(w.enqueued).as_secs_f64());
        Some(OffloadGrant {
            job: w.job,
            threads: w.threads,
            work: w.work,
            affinity: Affinity::Pinned(cores),
        })
    }

    fn admit_waiters(&mut self, now: SimTime, grants: &mut Vec<OffloadGrant>) {
        let mut i = 0;
        while i < self.waiting.len() {
            if let Some(grant) = self.try_start(now, self.waiting[i]) {
                self.waiting.remove(i);
                grants.push(grant);
            } else if self.cfg.policy == OffloadPolicy::Fifo {
                break;
            } else {
                i += 1;
            }
        }
    }
}

impl CosmicSubstrate for ReferenceCosmic {
    type Handle = JobId;

    fn create(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        ReferenceCosmic {
            cfg,
            phi: *phi,
            allocator: CoreAllocator::new(phi.cores),
            registered: BTreeMap::new(),
            active: BTreeMap::new(),
            waiting: VecDeque::new(),
            queue_wait: Summary::new(),
            queued_total: 0,
        }
    }

    fn register(&mut self, job: JobId, declared_mem_mb: u64, declared_threads: u32) -> JobId {
        let prior = self
            .registered
            .insert(job, (declared_mem_mb, declared_threads));
        assert!(prior.is_none(), "job {job} registered twice");
        job
    }

    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        self.waiting.retain(|w| w.job != job);
        if let Some((_, cores)) = self.active.remove(&job) {
            self.allocator.release(cores);
        }
        self.registered.remove(&job);
        self.admit_waiters(now, grants);
    }

    fn reset(&mut self) {
        for (_, (_, cores)) in std::mem::take(&mut self.active) {
            self.allocator.release(cores);
        }
        self.waiting.clear();
        self.registered.clear();
    }

    fn request_offload(
        &mut self,
        now: SimTime,
        job: JobId,
        threads: u32,
        work: SimDuration,
    ) -> Admission {
        assert!(
            self.registered.contains_key(&job),
            "{job} is not registered"
        );
        assert!(!self.active.contains_key(&job), "{job} is already active");
        let request = Waiting {
            job,
            threads: threads.min(self.phi.hw_threads()),
            work,
            enqueued: now,
        };
        if self.waiting.is_empty() {
            if let Some(grant) = self.try_start(now, request) {
                return Admission::Started(grant);
            }
        }
        self.waiting.push_back(request);
        self.queued_total += 1;
        Admission::Queued
    }

    fn complete_offload_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        let (_, cores) = self.active.remove(&job).expect("an active offload");
        self.allocator.release(cores);
        self.admit_waiters(now, grants);
    }

    fn on_commit(&self, job: JobId, committed_mb: u64) -> ContainerVerdict {
        let declared_mb = self.registered[&job].0;
        if self.cfg.enforce_containers && committed_mb > declared_mb {
            ContainerVerdict::KillExceededLimit {
                committed_mb,
                declared_mb,
            }
        } else {
            ContainerVerdict::Allowed
        }
    }

    fn registered_jobs(&self) -> usize {
        self.registered.len()
    }

    fn queue_wait_count(&self) -> usize {
        self.queue_wait.count()
    }

    fn queue_wait_mean(&self) -> f64 {
        self.queue_wait.mean()
    }
}
