//! Substrate abstraction: slab-indexed vs map-keyed per-device state.
//!
//! The runtime's per-offload hot path (admission, memory commits, rate
//! updates, completion scans) talks to two stateful substrates per
//! coprocessor: the device model ([`phishare_phi::PhiDevice`]) and the
//! COSMIC middleware ([`phishare_cosmic::CosmicDevice`]). Both exist in two
//! storage layouts:
//!
//! * **Fast (production)** — generation-stamped slab storage. The runtime
//!   resolves each job's `ProcId`/`JobId` to a small dense slot **once, at
//!   registration**, and every subsequent touch is an array index plus a
//!   stamp check. Grant collection goes through caller-recycled buffers, so
//!   steady-state offload traffic allocates nothing.
//! * **Keyed (oracle)** — the seed's `BTreeMap`-keyed implementations
//!   ([`phishare_phi::KeyedPhiDevice`], [`phishare_cosmic::KeyedCosmicDevice`]),
//!   retained verbatim. Every operation pays a map lookup, aggregates are
//!   recomputed by iteration, and grant paths allocate fresh `Vec`s — the
//!   honest pre-optimization cost model the `perf_e2e` gate measures
//!   against.
//!
//! [`DeviceSubstrate`] and [`CosmicSubstrate`] are the seams the generic
//! runtime ([`crate::runtime::Experiment`]) is instantiated over. Both
//! substrates must produce **bit-identical** [`crate::ExperimentResult`]s
//! and traces — the same differential-oracle discipline as
//! [`Experiment::per_offload_events`](crate::runtime::Experiment::per_offload_events)
//! (event schemes) and the planner's `NaiveSerial` mode. That contract is
//! enforced by the substrate-axis
//! proptests in `cluster/tests/prop_runtime_diff.rs` and re-asserted
//! pin-for-pin by the `perf_e2e` bench gate before it times anything.
//!
//! Trait methods panic (rather than returning `Result`) on contract
//! violations: the runtime guarantees it never operates on a departed
//! process, and the fast substrate's stale-stamp panics are exactly that
//! guarantee made loud.

use crate::config::DeviceSpec;
use phishare_cosmic::{
    Admission, ContainerVerdict, CosmicConfig, CosmicDevice, JobSlot, KeyedCosmicDevice,
    OffloadGrant,
};
use phishare_phi::{
    Affinity, CommitOutcome, DeviceUtilization, KeyedPhiDevice, PhiConfig, PhiDevice, ProcId,
    ProcSlot,
};
use phishare_sim::{DetRng, SimDuration, SimTime};
use phishare_workload::JobId;

/// One coprocessor's state store, as the runtime drives it.
///
/// `Handle` is the substrate's name for a resident process: a dense
/// [`ProcSlot`] on the fast substrate, the [`ProcId`] itself on the keyed
/// oracle. Handles are obtained from [`DeviceSubstrate::attach`] and stay
/// valid until the process departs (detach, OOM kill, or device reset);
/// using one after that is a runtime bug and may panic.
pub trait DeviceSubstrate {
    /// Per-resident handle resolved once at attach time.
    type Handle: Copy + std::fmt::Debug;

    /// Fresh device state for one card, built from the node's spec: the
    /// Phi substrates read `spec.phi` + `spec.perf`, the shared-throughput
    /// substrates read `spec.phi` + `spec.curve`.
    fn create(spec: &DeviceSpec, start: SimTime) -> Self;

    /// Monotone counter bumped whenever execution rates may have changed.
    fn generation(&self) -> u64;

    /// Attach a COI process with its declared envelope and initial commit.
    /// The returned handle is stale if the initial commit OOM-killed the
    /// attaching process itself (the runtime detects that case through the
    /// outcome's victim list, never through the handle).
    fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> (Self::Handle, CommitOutcome);

    /// Detach a resident process, releasing its declared envelope.
    fn detach(&mut self, now: SimTime, handle: Self::Handle);

    /// Set a resident process's committed memory, possibly invoking the
    /// OOM killer on physical oversubscription.
    fn commit(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome;

    /// Start an offload for a resident process with no active offload.
    fn start_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    );

    /// Retire the process's active offload at its predicted completion.
    fn finish_offload(&mut self, now: SimTime, handle: Self::Handle);

    /// MPSS crash: drop every resident and all active offloads.
    fn reset(&mut self, now: SimTime);

    /// Thermal derate: multiply every execution rate by `scale` (in
    /// `(0, 1]`; `1.0` restores nominal) from `now` on, bumping the
    /// generation. Survives [`DeviceSubstrate::reset`].
    fn set_rate_scale(&mut self, now: SimTime, scale: f64);

    /// Visit every predicted completion in ascending [`ProcId`] order —
    /// the order per-offload events must be scheduled in.
    fn for_each_completion(&self, f: impl FnMut(ProcId, SimTime));

    /// The earliest predicted completion, ties to the lowest [`ProcId`].
    fn next_completion(&self) -> Option<(ProcId, SimTime)>;

    /// Number of resident processes.
    fn resident_count(&self) -> usize;

    /// Declared memory still unbudgeted (MB).
    fn free_declared_mb(&self) -> u64;

    /// Sum of committed memory over residents (MB).
    fn committed_total_mb(&self) -> u64;

    /// Sum of declared threads over residents.
    fn declared_threads(&self) -> u32;

    /// Processes terminated by this device's OOM killer so far.
    fn oom_kill_count(&self) -> u64;

    /// Energy consumed through `end`, joules.
    fn energy_joules(&self, end: SimTime) -> f64;

    /// Time-integrated utilization through `end`.
    fn utilization(&self, end: SimTime) -> DeviceUtilization;
}

impl DeviceSubstrate for PhiDevice {
    type Handle = ProcSlot;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        PhiDevice::new(spec.phi, spec.perf, start)
    }

    fn generation(&self) -> u64 {
        self.generation()
    }

    fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> (Self::Handle, CommitOutcome) {
        self.attach_slot(
            now,
            proc,
            declared_mem_mb,
            declared_threads,
            initial_commit_mb,
            rng,
        )
        .expect("proc ids are unique per job")
    }

    fn detach(&mut self, now: SimTime, handle: Self::Handle) {
        self.detach_slot(now, handle);
    }

    fn commit(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        self.commit_memory_slot(now, handle, total_mb, rng)
    }

    fn start_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) {
        self.start_offload_slot(now, handle, threads, work, affinity)
            .expect("offload starts on an idle resident");
    }

    fn finish_offload(&mut self, now: SimTime, handle: Self::Handle) {
        self.finish_offload_slot(now, handle)
            .expect("generation-valid completion");
    }

    fn reset(&mut self, now: SimTime) {
        PhiDevice::reset(self, now);
    }

    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        PhiDevice::set_rate_scale(self, now, scale);
    }

    fn for_each_completion(&self, f: impl FnMut(ProcId, SimTime)) {
        PhiDevice::for_each_completion(self, f);
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        PhiDevice::next_completion(self)
    }

    fn resident_count(&self) -> usize {
        PhiDevice::resident_count(self)
    }

    fn free_declared_mb(&self) -> u64 {
        PhiDevice::free_declared_mb(self)
    }

    fn committed_total_mb(&self) -> u64 {
        PhiDevice::committed_total_mb(self)
    }

    fn declared_threads(&self) -> u32 {
        PhiDevice::declared_threads(self)
    }

    fn oom_kill_count(&self) -> u64 {
        self.oom_kills.get()
    }

    fn energy_joules(&self, end: SimTime) -> f64 {
        PhiDevice::energy_joules(self, end)
    }

    fn utilization(&self, end: SimTime) -> DeviceUtilization {
        PhiDevice::utilization(self, end)
    }
}

impl DeviceSubstrate for KeyedPhiDevice {
    /// The keyed oracle "resolves" a process to itself: every operation
    /// pays the map lookup the fast substrate resolved away.
    type Handle = ProcId;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        KeyedPhiDevice::new(spec.phi, spec.perf, start)
    }

    fn generation(&self) -> u64 {
        self.generation()
    }

    fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> (Self::Handle, CommitOutcome) {
        let outcome = KeyedPhiDevice::attach(
            self,
            now,
            proc,
            declared_mem_mb,
            declared_threads,
            initial_commit_mb,
            rng,
        )
        .expect("proc ids are unique per job");
        (proc, outcome)
    }

    fn detach(&mut self, now: SimTime, handle: Self::Handle) {
        KeyedPhiDevice::detach(self, now, handle).expect("departing job was attached");
    }

    fn commit(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        KeyedPhiDevice::commit_memory(self, now, handle, total_mb, rng)
            .expect("running job is attached")
    }

    fn start_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) {
        KeyedPhiDevice::start_offload(self, now, handle, threads, work, affinity)
            .expect("offload starts on an idle resident");
    }

    fn finish_offload(&mut self, now: SimTime, handle: Self::Handle) {
        KeyedPhiDevice::finish_offload(self, now, handle).expect("generation-valid completion");
    }

    fn reset(&mut self, now: SimTime) {
        KeyedPhiDevice::reset(self, now);
    }

    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        KeyedPhiDevice::set_rate_scale(self, now, scale);
    }

    fn for_each_completion(&self, mut f: impl FnMut(ProcId, SimTime)) {
        // The seed's allocation: one fresh Vec per membership change.
        for (proc, at) in self.completions() {
            f(proc, at);
        }
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        KeyedPhiDevice::next_completion(self)
    }

    fn resident_count(&self) -> usize {
        KeyedPhiDevice::resident_count(self)
    }

    fn free_declared_mb(&self) -> u64 {
        KeyedPhiDevice::free_declared_mb(self)
    }

    fn committed_total_mb(&self) -> u64 {
        KeyedPhiDevice::committed_total_mb(self)
    }

    fn declared_threads(&self) -> u32 {
        KeyedPhiDevice::declared_threads(self)
    }

    fn oom_kill_count(&self) -> u64 {
        self.oom_kills.get()
    }

    fn energy_joules(&self, end: SimTime) -> f64 {
        KeyedPhiDevice::energy_joules(self, end)
    }

    fn utilization(&self, end: SimTime) -> DeviceUtilization {
        KeyedPhiDevice::utilization(self, end)
    }
}

/// Both shared-throughput devices ([`phishare_phi::SharedThroughputDevice`]
/// heap-fast, [`phishare_phi::NaiveSharedDevice`] recompute-all oracle)
/// drive one generic impl:
/// every line of substrate glue is shared, so a behavioral divergence
/// between the two modes can only come from the engine itself — the
/// property the `perf_throughput` gate re-asserts before timing.
impl<E: phishare_throughput::SharingEngine> DeviceSubstrate for phishare_phi::SharedDevice<E> {
    /// Shared devices are keyed by id; the engine's position index makes
    /// the lookup O(log n) rather than a scan.
    type Handle = ProcId;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        phishare_phi::SharedDevice::new(spec.phi, spec.curve, start)
    }

    fn generation(&self) -> u64 {
        self.generation()
    }

    fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> (Self::Handle, CommitOutcome) {
        let outcome = phishare_phi::SharedDevice::attach(
            self,
            now,
            proc,
            declared_mem_mb,
            declared_threads,
            initial_commit_mb,
            rng,
        )
        .expect("proc ids are unique per job");
        (proc, outcome)
    }

    fn detach(&mut self, now: SimTime, handle: Self::Handle) {
        phishare_phi::SharedDevice::detach(self, now, handle).expect("departing job was attached");
    }

    fn commit(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        phishare_phi::SharedDevice::commit_memory(self, now, handle, total_mb, rng)
            .expect("running job is attached")
    }

    fn start_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) {
        phishare_phi::SharedDevice::start_offload(self, now, handle, threads, work, affinity)
            .expect("offload starts on an idle resident");
    }

    fn finish_offload(&mut self, now: SimTime, handle: Self::Handle) {
        phishare_phi::SharedDevice::finish_offload(self, now, handle)
            .expect("generation-valid completion");
    }

    fn reset(&mut self, now: SimTime) {
        phishare_phi::SharedDevice::reset(self, now);
    }

    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        phishare_phi::SharedDevice::set_rate_scale(self, now, scale);
    }

    fn for_each_completion(&self, f: impl FnMut(ProcId, SimTime)) {
        phishare_phi::SharedDevice::for_each_completion(self, f);
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        phishare_phi::SharedDevice::next_completion(self)
    }

    fn resident_count(&self) -> usize {
        phishare_phi::SharedDevice::resident_count(self)
    }

    fn free_declared_mb(&self) -> u64 {
        phishare_phi::SharedDevice::free_declared_mb(self)
    }

    fn committed_total_mb(&self) -> u64 {
        phishare_phi::SharedDevice::committed_total_mb(self)
    }

    fn declared_threads(&self) -> u32 {
        phishare_phi::SharedDevice::declared_threads(self)
    }

    fn oom_kill_count(&self) -> u64 {
        self.oom_kills.get()
    }

    fn energy_joules(&self, end: SimTime) -> f64 {
        phishare_phi::SharedDevice::energy_joules(self, end)
    }

    fn utilization(&self, end: SimTime) -> DeviceUtilization {
        phishare_phi::SharedDevice::utilization(self, end)
    }
}

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

    /// Register a placed job; panics if it is already registered.
    fn register(&mut self, job: JobId, declared_mem_mb: u64, declared_threads: u32)
        -> Self::Handle;

    /// Remove a job (completed or killed), appending any unblocked grants
    /// to `grants` (not cleared first). Safe for unknown jobs.
    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>);

    /// Card reset: flush registrations, actives and the wait queue.
    fn reset(&mut self);

    /// A registered job wants to start an offload.
    fn request_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
    ) -> Admission;

    /// An active offload finished; append unblocked grants to `grants`.
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

impl CosmicSubstrate for CosmicDevice {
    type Handle = JobSlot;

    fn create(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        CosmicDevice::new(cfg, phi)
    }

    fn register(
        &mut self,
        job: JobId,
        declared_mem_mb: u64,
        declared_threads: u32,
    ) -> Self::Handle {
        self.register_job_slot(job, declared_mem_mb, declared_threads)
    }

    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        self.unregister_job_into(now, job, grants);
    }

    fn reset(&mut self) {
        CosmicDevice::reset(self);
    }

    fn request_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
    ) -> Admission {
        self.request_offload_slot(now, handle, threads, work)
    }

    fn complete_offload_into(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        grants: &mut Vec<OffloadGrant>,
    ) {
        self.complete_offload_slot_into(now, handle, grants);
    }

    fn on_commit(&self, handle: Self::Handle, committed_mb: u64) -> ContainerVerdict {
        self.on_commit_slot(handle, committed_mb)
    }

    fn registered_jobs(&self) -> usize {
        CosmicDevice::registered_jobs(self)
    }

    fn queue_wait_count(&self) -> usize {
        self.queue_wait.count()
    }

    fn queue_wait_mean(&self) -> f64 {
        self.queue_wait.mean()
    }
}

impl CosmicSubstrate for KeyedCosmicDevice {
    type Handle = JobId;

    fn create(cfg: CosmicConfig, phi: &PhiConfig) -> Self {
        KeyedCosmicDevice::new(cfg, phi)
    }

    fn register(
        &mut self,
        job: JobId,
        declared_mem_mb: u64,
        declared_threads: u32,
    ) -> Self::Handle {
        self.register_job(job, declared_mem_mb, declared_threads);
        job
    }

    fn unregister_into(&mut self, now: SimTime, job: JobId, grants: &mut Vec<OffloadGrant>) {
        // The seed's allocation: unregister builds and returns a fresh Vec.
        grants.extend(self.unregister_job(now, job));
    }

    fn reset(&mut self) {
        KeyedCosmicDevice::reset(self);
    }

    fn request_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
    ) -> Admission {
        KeyedCosmicDevice::request_offload(self, now, handle, threads, work)
    }

    fn complete_offload_into(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        grants: &mut Vec<OffloadGrant>,
    ) {
        // The seed's allocation: complete builds and returns a fresh Vec.
        grants.extend(self.complete_offload(now, handle));
    }

    fn on_commit(&self, handle: Self::Handle, committed_mb: u64) -> ContainerVerdict {
        KeyedCosmicDevice::on_commit(self, handle, committed_mb)
    }

    fn registered_jobs(&self) -> usize {
        KeyedCosmicDevice::registered_jobs(self)
    }

    fn queue_wait_count(&self) -> usize {
        self.queue_wait.count()
    }

    fn queue_wait_mean(&self) -> f64 {
        self.queue_wait.mean()
    }
}
