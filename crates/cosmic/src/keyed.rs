//! The map-backed middleware substrate, retained as a differential oracle.
//!
//! [`KeyedCosmicDevice`] is the seed's `BTreeMap`-keyed implementation of
//! the COSMIC per-device state machine, preserved when the production
//! [`CosmicDevice`](crate::CosmicDevice) moved to generation-stamped slab
//! storage. The cluster runtime compiles against both
//! (`SubstrateMode::Keyed`), and differential proptests assert bit-identical
//! `ExperimentResult`s between them. Do not optimize this module — its cost
//! model is part of the keyed-substrate floor the `perf_e2e` gate measures
//! against.

use crate::middleware::{Admission, ContainerVerdict, CosmicConfig, OffloadGrant, OffloadPolicy};
use crate::substrate::CosmicSubstrate;
use phishare_phi::{Affinity, CoreAllocator, CoreSet, PhiConfig};
use phishare_sim::{SimDuration, SimTime, Summary};
use phishare_workload::JobId;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug, Clone)]
struct Registered {
    declared_mem_mb: u64,
    declared_threads: u32,
}

#[derive(Debug, Clone)]
struct ActiveOffload {
    threads: u32,
    cores: CoreSet,
}

#[derive(Debug, Clone)]
struct Waiting {
    job: JobId,
    threads: u32,
    work: SimDuration,
    enqueued: SimTime,
}

/// The seed's map-backed COSMIC state for one coprocessor (differential
/// oracle). Keyed by [`JobId`] throughout — its
/// [`CosmicSubstrate::Handle`] is the id itself — so every operation pays a
/// `BTreeMap` lookup, and the grant paths build a fresh `Vec` per call.
#[derive(Debug)]
pub struct KeyedCosmicDevice {
    cfg: CosmicConfig,
    hw_threads: u32,
    threads_per_core: u32,
    allocator: CoreAllocator,
    registered: BTreeMap<JobId, Registered>,
    active: BTreeMap<JobId, ActiveOffload>,
    waiting: VecDeque<Waiting>,
    /// Time each admitted offload spent waiting in the queue, seconds.
    pub queue_wait: Summary,
    /// Offloads that had to wait at least one admission round.
    pub queued_total: u64,
}

impl KeyedCosmicDevice {
    /// Create middleware state for a device with the given hardware shape.
    pub(crate) fn new(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        KeyedCosmicDevice {
            cfg,
            hw_threads: phi.hw_threads(),
            threads_per_core: phi.threads_per_core,
            allocator: CoreAllocator::new(phi.cores),
            registered: BTreeMap::new(),
            active: BTreeMap::new(),
            waiting: VecDeque::new(),
            queue_wait: Summary::new(),
            queued_total: 0,
        }
    }

    /// Thread sum of currently active offloads.
    pub fn active_threads(&self) -> u32 {
        self.active.values().map(|a| a.threads).sum()
    }

    /// Number of offloads waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Declared memory sum over registered jobs, MB.
    pub fn registered_declared_mb(&self) -> u64 {
        self.registered.values().map(|r| r.declared_mem_mb).sum()
    }

    /// Declared thread sum over registered jobs.
    pub fn registered_declared_threads(&self) -> u32 {
        self.registered.values().map(|r| r.declared_threads).sum()
    }

    fn try_start(
        &mut self,
        now: SimTime,
        job: JobId,
        threads: u32,
        work: SimDuration,
        enqueued: SimTime,
    ) -> Option<OffloadGrant> {
        if self.active_threads() + threads > self.hw_threads {
            return None;
        }
        let cores_needed = threads.div_ceil(self.threads_per_core);
        let cores = self.allocator.allocate(cores_needed)?;
        self.active.insert(job, ActiveOffload { threads, cores });
        self.queue_wait.record(now.since(enqueued).as_secs_f64());
        Some(OffloadGrant {
            job,
            threads,
            work,
            affinity: Affinity::Pinned(cores),
        })
    }

    /// Admit whatever now fits from the queue, as a fresh `Vec` (the seed's
    /// allocation).
    fn admit_waiters(&mut self, now: SimTime) -> Vec<OffloadGrant> {
        let mut granted = Vec::new();
        match self.cfg.policy {
            OffloadPolicy::Fifo => {
                while let Some(head) = self.waiting.front().cloned() {
                    match self.try_start(now, head.job, head.threads, head.work, head.enqueued) {
                        Some(grant) => {
                            self.waiting.pop_front();
                            granted.push(grant);
                        }
                        None => break,
                    }
                }
            }
            OffloadPolicy::Backfill => {
                let mut i = 0;
                while i < self.waiting.len() {
                    let w = self.waiting[i].clone();
                    match self.try_start(now, w.job, w.threads, w.work, w.enqueued) {
                        Some(grant) => {
                            self.waiting.remove(i);
                            granted.push(grant);
                        }
                        None => i += 1,
                    }
                }
            }
        }
        granted
    }
}

impl CosmicSubstrate for KeyedCosmicDevice {
    type Handle = JobId;

    fn create(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        KeyedCosmicDevice::new(cfg, phi)
    }

    fn register(&mut self, job: JobId, declared_mem_mb: u64, declared_threads: u32) -> JobId {
        let prior = self.registered.insert(
            job,
            Registered {
                declared_mem_mb,
                declared_threads,
            },
        );
        assert!(prior.is_none(), "job {job} registered twice");
        job
    }

    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        self.waiting.retain(|w| w.job != job);
        if let Some(active) = self.active.remove(&job) {
            self.allocator.release(active.cores);
        }
        self.registered.remove(&job);
        grants.extend(self.admit_waiters(now));
    }

    fn reset(&mut self) {
        for (_, active) in std::mem::take(&mut self.active) {
            self.allocator.release(active.cores);
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
        let threads = threads.min(self.hw_threads);
        assert!(
            self.registered.contains_key(&job),
            "offload request from unregistered job {job}"
        );
        assert!(
            !self.active.contains_key(&job),
            "job {job} already has an active offload"
        );
        // Strict FIFO: nobody overtakes an existing queue.
        if self.waiting.is_empty() {
            if let Some(grant) = self.try_start(now, job, threads, work, now) {
                return Admission::Started(grant);
            }
        }
        self.waiting.push_back(Waiting {
            job,
            threads,
            work,
            enqueued: now,
        });
        self.queued_total += 1;
        Admission::Queued
    }

    fn complete_offload_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        let active = self
            .active
            .remove(&job)
            .expect("complete_offload for a job with no active offload");
        self.allocator.release(active.cores);
        grants.extend(self.admit_waiters(now));
    }

    fn on_commit(&self, job: JobId, committed_mb: u64) -> ContainerVerdict {
        if !self.cfg.enforce_containers {
            return ContainerVerdict::Allowed;
        }
        let declared = self
            .registered
            .get(&job)
            .map(|r| r.declared_mem_mb)
            .unwrap_or(0);
        if committed_mb > declared {
            ContainerVerdict::KillExceededLimit {
                committed_mb,
                declared_mb: declared,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_middleware_basic_lifecycle() {
        let mut c = KeyedCosmicDevice::new(CosmicConfig::default(), &PhiConfig::default());
        let j1 = c.register(JobId(1), 1000, 240);
        let j2 = c.register(JobId(2), 1000, 240);
        assert!(matches!(
            c.request_offload(SimTime::ZERO, j1, 240, SimDuration::from_secs(10)),
            Admission::Started(_)
        ));
        assert_eq!(
            c.request_offload(SimTime::ZERO, j2, 240, SimDuration::from_secs(10)),
            Admission::Queued
        );
        let mut granted = Vec::new();
        c.complete_offload_into(SimTime::from_secs(10), j1, &mut granted);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].job, JobId(2));
    }

    #[test]
    #[should_panic(expected = "offload request from unregistered job")]
    fn offload_from_unregistered_job_panics() {
        let mut c = KeyedCosmicDevice::new(CosmicConfig::default(), &PhiConfig::default());
        c.request_offload(SimTime::ZERO, JobId(1), 60, SimDuration::from_secs(1));
    }
}
