//! The COSMIC substrate seam: the one operation API both middleware
//! layouts implement.
//!
//! The cluster runtime drives each card's middleware through
//! [`CosmicSubstrate`] and is generic over it. The slab-backed
//! [`CosmicDevice`](crate::CosmicDevice) implements it, and the trait impl
//! is the only way to mutate it: a job's [`JobSlot`](crate::JobSlot) is
//! resolved once, at registration; admission, completion and container
//! checks are then array-indexed, and grants go into a caller-recycled
//! buffer.
//!
//! `cosmic/tests/prop_cosmic.rs` runs it in lockstep against
//! `ReferenceCosmic` (`cosmic/tests/reference/`), a test-only restatement
//! of the admission rules on plain maps, and both must agree bit-for-bit
//! on every admission decision and grant.

use crate::middleware::{Admission, ContainerVerdict, CosmicConfig, OffloadGrant};
use phishare_phi::PhiConfig;
use phishare_sim::{SimDuration, SimTime};
use phishare_workload::JobId;

/// One coprocessor's COSMIC admission state, as the runtime drives it.
///
/// Registration resolves a [`JobId`] to a `Handle` used on the per-offload
/// hot path (request, complete, container check). Departure goes through
/// the id — the OOM killer can remove a job whose handle the runtime must
/// then never touch again.
pub trait CosmicSubstrate {
    /// Per-registration handle resolved once at register time.
    type Handle: Copy + std::fmt::Debug;

    /// Fresh middleware state for a device with the given hardware shape.
    fn create(cfg: CosmicConfig, phi: &PhiConfig) -> Self;

    /// Register a placed job; panics if it is already registered — the
    /// cluster scheduler must not double-place a job.
    fn register(&mut self, job: JobId, declared_mem_mb: u64, declared_threads: u32)
        -> Self::Handle;

    /// Remove a job (completed or killed): drop any queued offload, free
    /// its cores if one was active, and append the grants the departure
    /// unblocked to `grants` (not cleared first). Safe for unknown jobs.
    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>);

    /// The card under this middleware instance reset (MPSS crash): every
    /// registration, active offload, and queued request is flushed and all
    /// pinned cores are released. Queue-wait statistics and the admission
    /// counter survive — they describe the run, not the card state. Jobs
    /// that want back in must re-register; handles from before the reset
    /// are all stale.
    fn reset(&mut self);

    /// A registered job with no active offload wants to start one.
    ///
    /// Requests for more threads than the hardware has are clamped to the
    /// device capacity (an OpenMP region asking for more threads than exist
    /// just timeshares; COSMIC caps the affinity mask instead) — otherwise a
    /// 240-thread job could never be admitted on a 228-thread card and
    /// would starve forever.
    fn request_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
    ) -> Admission;

    /// An active offload finished: free its cores and append the grants
    /// now admitted from the queue to `grants` (not cleared first).
    fn complete_offload_into(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        grants: &mut Vec<OffloadGrant>,
    );

    /// Container check on a memory commit.
    fn on_commit(&self, handle: Self::Handle, committed_mb: u64) -> ContainerVerdict;

    /// Number of registered jobs (drain/leak audits).
    fn registered_jobs(&self) -> usize;

    /// Queue-wait samples recorded so far.
    fn queue_wait_count(&self) -> usize;

    /// Mean queue wait, seconds.
    fn queue_wait_mean(&self) -> f64;
}
