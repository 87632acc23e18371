//! The per-device middleware state machine.
//!
//! ## Storage layout (the substrate fast path)
//!
//! Registered-job and active-offload state live in one generation-stamped
//! slab ([`phishare_sim::Slab`]): each registered job occupies a dense slot
//! holding its declared envelope and its (optional) active offload. A
//! [`JobSlot`] handle is resolved once at [`CosmicSubstrate::register`];
//! admission, completion and container checks are then array-indexed. A
//! small `JobId → JobSlot` index is maintained only at register/unregister
//! (departures and queued requests are id-keyed), and aggregate sums
//! (active threads, declared memory/threads) are kept incrementally —
//! integer-exact mirrors of what the reference specification
//! (`tests/reference/`) recomputes per call. Grants are
//! appended into a caller-recycled buffer, so the runtime's offload hot
//! loop completes/admits without allocating.

use crate::substrate::CosmicSubstrate;
use phishare_phi::{Affinity, CoreAllocator, CoreSet, PhiConfig};
use phishare_sim::{SimDuration, SimTime, Slab, Slot, Summary};
use phishare_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// How queued offloads are admitted when capacity frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OffloadPolicy {
    /// Strict FIFO: the queue head must fit before anything behind it runs.
    /// Starvation-free; can leave threads idle behind a wide offload.
    #[default]
    Fifo,
    /// Backfill: later offloads may jump a blocked head if they fit now.
    /// Higher utilization; a wide offload can starve behind small ones.
    Backfill,
}

/// Middleware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CosmicConfig {
    /// Kill jobs whose committed memory exceeds their declaration.
    pub enforce_containers: bool,
    /// Queue admission policy.
    pub policy: OffloadPolicy,
}

impl Default for CosmicConfig {
    fn default() -> Self {
        CosmicConfig {
            enforce_containers: true,
            policy: OffloadPolicy::Fifo,
        }
    }
}

/// Outcome of an offload request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The offload may start now with this affinity.
    Started(OffloadGrant),
    /// The offload is queued; a later completion or departure grants it
    /// ([`CosmicSubstrate::complete_offload_into`],
    /// [`CosmicSubstrate::unregister_into`]).
    Queued,
}

/// Permission to start one offload on the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadGrant {
    /// The job whose offload may start.
    pub job: JobId,
    /// Thread count of the offload.
    pub threads: u32,
    /// Nominal work of the offload.
    pub work: SimDuration,
    /// The core set COSMIC affinitized the offload to.
    pub affinity: Affinity,
}

/// Container (memory-limit) check outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerVerdict {
    /// The commit is within the job's declared limit (or enforcement is
    /// off).
    Allowed,
    /// The job exceeded its declared limit and must be killed.
    KillExceededLimit {
        /// What the job committed, MB.
        committed_mb: u64,
        /// What it declared, MB.
        declared_mb: u64,
    },
}

/// One registered job's slab entry: envelope plus optional active offload.
#[derive(Debug, Clone)]
struct JobEntry {
    id: JobId,
    declared_mem_mb: u64,
    declared_threads: u32,
    active: Option<ActiveOffload>,
}

#[derive(Debug, Clone)]
struct ActiveOffload {
    threads: u32,
    cores: CoreSet,
}

/// A queued offload request. Its job's slot stays live while the entry
/// exists: unregistering drops the job's entries before freeing the slot,
/// and a reset clears both.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    slot: JobSlot,
    threads: u32,
    work: SimDuration,
    enqueued: SimTime,
}

/// Handle to a registered job, resolved once at
/// [`CosmicSubstrate::register`] and valid until the job unregisters
/// or the device resets. Generation-stamped: a handle that outlives its
/// registration goes stale rather than aliasing the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSlot(Slot);

impl fmt::Display for JobSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// COSMIC's state for one coprocessor (slab-backed fast substrate), driven
/// through its [`CosmicSubstrate`] impl.
#[derive(Debug)]
pub struct CosmicDevice {
    cfg: CosmicConfig,
    hw_threads: u32,
    threads_per_core: u32,
    allocator: CoreAllocator,
    /// Dense per-job state; the only per-job storage.
    jobs: Slab<JobEntry>,
    /// `JobId → slot`, touched only at register/unregister/reset.
    index: BTreeMap<JobId, JobSlot>,
    waiting: VecDeque<Waiting>,
    // Incrementally-maintained aggregates (integer-exact mirrors of the
    // reference specification's per-call recomputations).
    active_threads_total: u32,
    declared_mb_total: u64,
    declared_threads_total: u32,
    /// Time each admitted offload spent waiting in the queue, seconds.
    pub queue_wait: Summary,
    /// Offloads that had to wait at least one admission round.
    pub queued_total: u64,
}

impl CosmicDevice {
    /// Create middleware state for a device with the given hardware shape.
    pub fn new(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        CosmicDevice {
            cfg,
            hw_threads: phi.hw_threads(),
            threads_per_core: phi.threads_per_core,
            allocator: CoreAllocator::new(phi.cores),
            jobs: Slab::with_capacity(8),
            index: BTreeMap::new(),
            waiting: VecDeque::new(),
            active_threads_total: 0,
            declared_mb_total: 0,
            declared_threads_total: 0,
            queue_wait: Summary::new(),
            queued_total: 0,
        }
    }

    /// Thread sum of currently active offloads.
    pub fn active_threads(&self) -> u32 {
        self.active_threads_total
    }

    /// Number of offloads waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Declared memory sum over registered jobs, MB (what the knapsack
    /// budgeted on this device).
    pub fn registered_declared_mb(&self) -> u64 {
        self.declared_mb_total
    }

    /// Declared thread sum over registered jobs — what the strict
    /// resident-thread budget (paper §IV-C, "all concurrent jobs") charges
    /// against.
    pub fn registered_declared_threads(&self) -> u32 {
        self.declared_threads_total
    }

    /// The live entry at `slot`, panicking on a stale handle.
    fn entry(&self, slot: JobSlot) -> &JobEntry {
        self.jobs
            .get(slot.0)
            .unwrap_or_else(|| panic!("middleware access through stale handle {slot}"))
    }

    fn try_start(
        &mut self,
        now: SimTime,
        slot: JobSlot,
        threads: u32,
        work: SimDuration,
        enqueued: SimTime,
    ) -> Option<OffloadGrant> {
        let cores_needed = threads.div_ceil(self.threads_per_core);
        let cores = self.allocator.allocate(cores_needed)?;
        let entry = self.jobs.get_mut(slot.0).expect("admitting a live job");
        let job = entry.id;
        entry.active = Some(ActiveOffload { threads, cores });
        self.active_threads_total += threads;
        // The paper's thread rule (at most 240 on a 60-core card) holds
        // because every active offload's threads fit its granted cores.
        debug_assert!(
            self.active_threads_total <= self.hw_threads,
            "{} active threads exceed the card's {}",
            self.active_threads_total,
            self.hw_threads
        );
        self.queue_wait.record(now.since(enqueued).as_secs_f64());
        Some(OffloadGrant {
            job,
            threads,
            work,
            affinity: Affinity::Pinned(cores),
        })
    }

    fn admit_waiters(&mut self, now: SimTime, granted: &mut Vec<OffloadGrant>) {
        match self.cfg.policy {
            OffloadPolicy::Fifo => {
                while let Some(&head) = self.waiting.front() {
                    match self.try_start(now, head.slot, head.threads, head.work, head.enqueued) {
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
                    let w = self.waiting[i];
                    match self.try_start(now, w.slot, w.threads, w.work, w.enqueued) {
                        Some(grant) => {
                            self.waiting.remove(i);
                            granted.push(grant);
                        }
                        None => i += 1,
                    }
                }
            }
        }
    }
}

impl CosmicSubstrate for CosmicDevice {
    type Handle = JobSlot;

    fn create(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        CosmicDevice::new(cfg, phi)
    }

    fn register(&mut self, job: JobId, declared_mem_mb: u64, declared_threads: u32) -> JobSlot {
        assert!(!self.index.contains_key(&job), "job {job} registered twice");
        let slot = JobSlot(self.jobs.insert(JobEntry {
            id: job,
            declared_mem_mb,
            declared_threads,
            active: None,
        }));
        self.index.insert(job, slot);
        self.declared_mb_total += declared_mem_mb;
        self.declared_threads_total += declared_threads;
        slot
    }

    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        if let Some(slot) = self.index.remove(&job) {
            // Only a registered job can have queued requests.
            self.waiting.retain(|w| w.slot != slot);
            let entry = self.jobs.remove(slot.0);
            self.declared_mb_total -= entry.declared_mem_mb;
            self.declared_threads_total -= entry.declared_threads;
            if let Some(active) = entry.active {
                self.active_threads_total -= active.threads;
                self.allocator.release(active.cores);
            }
        }
        self.admit_waiters(now, grants);
    }

    fn reset(&mut self) {
        for (_, entry) in self.jobs.iter_mut() {
            if let Some(active) = entry.active.take() {
                self.allocator.release(active.cores);
            }
        }
        self.jobs.clear();
        self.index.clear();
        self.waiting.clear();
        self.active_threads_total = 0;
        self.declared_mb_total = 0;
        self.declared_threads_total = 0;
    }

    fn request_offload(
        &mut self,
        now: SimTime,
        slot: JobSlot,
        threads: u32,
        work: SimDuration,
    ) -> Admission {
        let threads = threads.min(self.hw_threads);
        let entry = self.entry(slot);
        let job = entry.id;
        assert!(
            entry.active.is_none(),
            "job {job} already has an active offload"
        );
        // Strict FIFO: nobody overtakes an existing queue.
        if self.waiting.is_empty() {
            if let Some(grant) = self.try_start(now, slot, threads, work, now) {
                return Admission::Started(grant);
            }
        }
        self.waiting.push_back(Waiting {
            slot,
            threads,
            work,
            enqueued: now,
        });
        self.queued_total += 1;
        Admission::Queued
    }

    fn complete_offload_into(
        &mut self,
        now: SimTime,
        slot: JobSlot,
        grants: &mut Vec<OffloadGrant>,
    ) {
        let entry = self
            .jobs
            .get_mut(slot.0)
            .unwrap_or_else(|| panic!("complete_offload through stale handle {slot}"));
        let active = entry
            .active
            .take()
            .expect("complete_offload for a job with no active offload");
        self.active_threads_total -= active.threads;
        self.allocator.release(active.cores);
        self.admit_waiters(now, grants);
    }

    fn on_commit(&self, slot: JobSlot, committed_mb: u64) -> ContainerVerdict {
        if !self.cfg.enforce_containers {
            return ContainerVerdict::Allowed;
        }
        let declared_mb = self.entry(slot).declared_mem_mb;
        if committed_mb > declared_mb {
            ContainerVerdict::KillExceededLimit {
                committed_mb,
                declared_mb,
            }
        } else {
            ContainerVerdict::Allowed
        }
    }

    fn registered_jobs(&self) -> usize {
        self.jobs.len()
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

    fn cosmic(policy: OffloadPolicy) -> CosmicDevice {
        CosmicDevice::new(
            CosmicConfig {
                enforce_containers: true,
                policy,
            },
            &PhiConfig::default(),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn w(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    /// Register jobs `ids` with one envelope; their handles in order.
    fn register(
        c: &mut CosmicDevice,
        ids: impl IntoIterator<Item = u64>,
        mb: u64,
        threads: u32,
    ) -> Vec<JobSlot> {
        ids.into_iter()
            .map(|j| c.register(JobId(j), mb, threads))
            .collect()
    }

    fn complete(c: &mut CosmicDevice, now: SimTime, slot: JobSlot) -> Vec<OffloadGrant> {
        let mut grants = Vec::new();
        c.complete_offload_into(now, slot, &mut grants);
        grants
    }

    fn unregister(c: &mut CosmicDevice, now: SimTime, job: u64) -> Vec<OffloadGrant> {
        let mut grants = Vec::new();
        c.unregister_into(now, JobId(job), &mut grants);
        grants
    }

    fn started(a: Admission) -> OffloadGrant {
        match a {
            Admission::Started(grant) => grant,
            Admission::Queued => panic!("offload should start"),
        }
    }

    #[test]
    fn concurrent_offloads_within_limit_get_disjoint_cores() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 1..=2, 1000, 120);
        let ga = started(c.request_offload(t(0), s[0], 120, w(5)));
        let gb = started(c.request_offload(t(0), s[1], 120, w(5)));
        let (Affinity::Pinned(ca), Affinity::Pinned(cb)) = (ga.affinity, gb.affinity) else {
            panic!("COSMIC grants are always pinned");
        };
        assert!(ca.is_disjoint(cb));
        assert_eq!(ca.count(), 30);
        assert_eq!(c.active_threads(), 240);
    }

    #[test]
    fn reset_flushes_registrations_and_frees_cores() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 1..=2, 1000, 240);
        c.register(JobId(3), 1000, 120);
        started(c.request_offload(t(0), s[0], 240, w(10)));
        assert_eq!(c.request_offload(t(0), s[1], 240, w(10)), Admission::Queued);
        c.reset();
        assert_eq!(c.registered_jobs(), 0);
        assert_eq!(c.active_threads(), 0);
        assert_eq!(c.queue_len(), 0);
        // All cores came back: a re-registered full-width offload starts
        // immediately (registering a survivor would panic).
        let s1 = c.register(JobId(1), 1000, 240);
        started(c.request_offload(t(1), s1, 240, w(5)));
        // Admission statistics survived the reset.
        assert_eq!(c.queued_total, 1);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn pre_reset_handles_are_stale() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s1 = c.register(JobId(1), 1000, 240);
        c.reset();
        c.request_offload(t(1), s1, 240, w(5));
    }

    #[test]
    fn oversubscribing_offload_is_queued_then_admitted() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 1..=2, 1000, 240);
        started(c.request_offload(t(0), s[0], 240, w(10)));
        assert_eq!(c.request_offload(t(0), s[1], 240, w(10)), Admission::Queued);
        assert_eq!(c.queue_len(), 1);
        // Never exceeds hardware.
        assert!(c.active_threads() <= 240);
        let granted = complete(&mut c, t(10), s[0]);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].job, JobId(2));
        assert_eq!(c.queue_len(), 0);
        // Queue wait was recorded: 10 s.
        assert_eq!(c.queue_wait.max(), 10.0);
    }

    #[test]
    fn fifo_head_blocks_smaller_followers() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 1..=3, 500, 240);
        started(c.request_offload(t(0), s[0], 200, w(10)));
        // Head of queue needs 240; a 40-thread offload behind it must wait
        // under strict FIFO.
        assert_eq!(c.request_offload(t(1), s[1], 240, w(5)), Admission::Queued);
        assert_eq!(c.request_offload(t(2), s[2], 40, w(5)), Admission::Queued);
        assert_eq!(c.queue_len(), 2);
        let granted = complete(&mut c, t(10), s[0]);
        // 240-thread head admitted alone.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].job, JobId(2));
    }

    #[test]
    fn backfill_lets_small_offloads_jump() {
        let mut c = cosmic(OffloadPolicy::Backfill);
        let s = register(&mut c, 1..=3, 500, 240);
        started(c.request_offload(t(0), s[0], 200, w(10)));
        assert_eq!(c.request_offload(t(1), s[1], 240, w(5)), Admission::Queued);
        assert_eq!(c.request_offload(t(2), s[2], 40, w(5)), Admission::Queued);
        // Job 3 fits alongside job 1 (200 + 40 ≤ 240); backfill admits it
        // when we next touch the queue.
        let granted = complete(&mut c, t(3), s[0]);
        let jobs: Vec<JobId> = granted.iter().map(|g| g.job).collect();
        assert_eq!(jobs, vec![JobId(2)]);
        // After 2 finishes, 3 runs.
        let granted = complete(&mut c, t(8), s[1]);
        assert_eq!(granted[0].job, JobId(3));
    }

    #[test]
    fn unregister_drops_queued_offloads_and_frees_cores() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 1..=2, 500, 240);
        let s3 = c.register(JobId(3), 500, 120);
        started(c.request_offload(t(0), s[0], 240, w(10)));
        assert_eq!(c.request_offload(t(0), s[1], 240, w(5)), Admission::Queued);
        assert_eq!(c.request_offload(t(0), s3, 120, w(5)), Admission::Queued);
        // Job 2 is killed while queued; job 1 killed while active.
        assert!(unregister(&mut c, t(1), 2).is_empty());
        let g = unregister(&mut c, t(2), 1);
        // Queue head (job 3) admitted by the departure.
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].job, JobId(3));
        assert_eq!(c.registered_jobs(), 1);
        // Departing an unknown job is a no-op.
        assert!(unregister(&mut c, t(3), 42).is_empty());
    }

    #[test]
    fn container_kill_on_overrun() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s1 = c.register(JobId(1), 1000, 60);
        assert_eq!(c.on_commit(s1, 900), ContainerVerdict::Allowed);
        assert_eq!(
            c.on_commit(s1, 1100),
            ContainerVerdict::KillExceededLimit {
                committed_mb: 1100,
                declared_mb: 1000
            }
        );
    }

    #[test]
    fn container_enforcement_can_be_disabled() {
        let mut c = CosmicDevice::new(
            CosmicConfig {
                enforce_containers: false,
                policy: OffloadPolicy::Fifo,
            },
            &PhiConfig::default(),
        );
        let s1 = c.register(JobId(1), 1000, 60);
        assert_eq!(c.on_commit(s1, 5000), ContainerVerdict::Allowed);
    }

    #[test]
    fn core_fragmentation_blocks_admission() {
        // 1-thread offloads consume a whole core each: 60 offloads exhaust
        // cores while using only 60 of 240 threads.
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 0..61, 10, 1);
        for slot in &s[..60] {
            started(c.request_offload(t(0), *slot, 1, w(5)));
        }
        assert_eq!(c.request_offload(t(0), s[60], 1, w(5)), Admission::Queued);
        assert_eq!(c.active_threads(), 60);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        c.register(JobId(1), 100, 60);
        c.register(JobId(1), 100, 60);
    }

    #[test]
    #[should_panic(expected = "already has an active offload")]
    fn double_request_panics() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s1 = c.register(JobId(1), 100, 60);
        c.request_offload(t(0), s1, 60, w(1));
        c.request_offload(t(0), s1, 60, w(1));
    }

    #[test]
    fn overwide_offloads_are_clamped_to_hardware() {
        // A 57-core card has 228 hardware threads; a 240-thread offload
        // must still be admittable (clamped), not starved forever.
        let small = PhiConfig {
            cores: 57,
            ..PhiConfig::default()
        };
        let mut c = CosmicDevice::new(CosmicConfig::default(), &small);
        let s1 = c.register(JobId(1), 500, 240);
        assert_eq!(started(c.request_offload(t(0), s1, 240, w(5))).threads, 228);
        assert_eq!(c.active_threads(), 228);
    }

    #[test]
    fn declared_resource_accounting() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        c.register(JobId(1), 1000, 60);
        c.register(JobId(2), 2000, 180);
        assert_eq!(c.registered_declared_mb(), 3000);
        assert_eq!(c.registered_declared_threads(), 240);
        unregister(&mut c, t(0), 1);
        assert_eq!(c.registered_declared_mb(), 2000);
        assert_eq!(c.registered_declared_threads(), 180);
    }

    #[test]
    fn grants_append_to_a_recycled_buffer() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = register(&mut c, 1..=2, 1000, 240);
        started(c.request_offload(t(0), s[0], 240, w(10)));
        assert_eq!(c.request_offload(t(0), s[1], 240, w(10)), Admission::Queued);
        let mut grants = vec![OffloadGrant {
            job: JobId(99),
            threads: 1,
            work: w(1),
            affinity: Affinity::Unmanaged,
        }];
        // Completing job 1 hands job 2's grant into the buffer without
        // clearing it.
        c.complete_offload_into(t(10), s[0], &mut grants);
        let jobs: Vec<JobId> = grants.iter().map(|g| g.job).collect();
        assert_eq!(jobs, vec![JobId(99), JobId(2)]);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn stale_slot_panics_on_completion() {
        let mut c = cosmic(OffloadPolicy::Fifo);
        let s = c.register(JobId(1), 100, 60);
        unregister(&mut c, t(0), 1);
        complete(&mut c, t(1), s);
    }
}
