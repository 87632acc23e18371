//! The device substrate seam: the one operation API every card model
//! implements.
//!
//! The cluster runtime drives each coprocessor through [`DeviceSubstrate`]
//! and is generic over it. One card model implements it, and the trait
//! impl is the only way to mutate it:
//!
//! * [`Card`](crate::Card) — the one card model, on generation-stamped slab
//!   storage: a job's [`ProcSlot`] is resolved once, at attach, and every
//!   later touch is an array index plus a stamp check. Its rate rule makes
//!   three substrates: [`PhiDevice`](crate::PhiDevice), the paper's
//!   two-rate affinity model, and
//!   [`SharedThroughputDevice`](crate::SharedThroughputDevice) /
//!   [`NaiveSharedDevice`](crate::NaiveSharedDevice), fair sharing under a
//!   [`SharingCurve`] over the heap engine and its recompute-all oracle.
//!
//! Each checked pair must produce **bit-identical** observables. The
//! lockstep differential in `phi/tests/prop_device.rs` drives both members
//! of a pair through one model-checked operation sequence: `PhiDevice`
//! against `ReferenceCard` (`phi/tests/reference/`), a test-only
//! specification that recomputes every offload's rate from the public
//! [`PerfModel`] fields at each step, and the heap shared device against
//! the naive one. The runtime-level proptests
//! (`cluster/tests/prop_runtime_diff.rs`, `tests/prop_chaos.rs`) assert
//! identical experiment results and traces for the shared pair.
//!
//! Trait methods panic, rather than return `Result`, on contract
//! violations: attaching a resident twice, acting on a departed process,
//! starting an offload while one is active, overlapping pinned cores, or
//! finishing with no offload active. The runtime guarantees none of these
//! happen, and each panic names the violation.

use crate::config::PhiConfig;
use crate::device::{Affinity, CommitOutcome, DeviceUtilization};
use crate::perf::PerfModel;
use crate::proc::ProcId;
use phishare_sim::{DetRng, SimDuration, SimTime};
use phishare_throughput::SharingCurve;
use serde::{Deserialize, Serialize};

#[cfg(doc)]
use crate::device::ProcSlot;

/// Everything a device substrate needs to materialize one card: hardware
/// shape, the per-offload performance model (Phi substrates) and the
/// fair-sharing degradation curve (shared-throughput substrates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Hardware shape (cores, threads, memory, power).
    pub phi: PhiConfig,
    /// Per-offload rate model used by the Phi device substrates.
    pub perf: PerfModel,
    /// Degradation curve used by the shared-throughput substrates.
    pub curve: SharingCurve,
}

impl DeviceSpec {
    /// Validate the spec.
    pub fn validate(&self) -> Result<(), String> {
        self.phi.validate()?;
        self.curve.validate()
    }
}

/// One coprocessor's state store, as the runtime drives it.
///
/// The device is a passive state machine: the owning event loop calls the
/// operations below and uses [`DeviceSubstrate::next_completion`] (or
/// [`DeviceSubstrate::for_each_completion`]) plus
/// [`DeviceSubstrate::generation`] to (re)schedule completion events. Any
/// mutation that changes execution rates bumps the generation; events
/// carrying a stale generation must be ignored by the caller.
///
/// `Handle` is the substrate's name for a resident process: a dense
/// [`ProcSlot`] on the slab card. Handles are obtained from
/// [`DeviceSubstrate::attach`] and stay valid until the process departs
/// (detach, OOM kill, or device reset); using one after that is a runtime
/// bug and panics.
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
    /// The initial commit may already trigger the OOM killer when the card
    /// is physically oversubscribed (raw-MPSS scenarios). The returned
    /// handle is stale if it OOM-killed the attaching process itself (the
    /// runtime detects that case through the outcome's victim list, never
    /// through the handle).
    fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> (Self::Handle, CommitOutcome);

    /// Detach a resident process, releasing its declared envelope and
    /// aborting any active offload.
    fn detach(&mut self, now: SimTime, handle: Self::Handle);

    /// Set a resident process's committed memory. Shrinking is allowed;
    /// growing past physical memory wakes the OOM killer, which terminates
    /// uniformly random residents (ascending-id draw) until the commit fits
    /// (§II-C). The committing process may itself be a victim.
    fn commit(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome;

    /// Start an offload of `work` nominal duration on `threads` hardware
    /// threads for a resident process with no active offload.
    fn start_offload(
        &mut self,
        now: SimTime,
        handle: Self::Handle,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    );

    /// Retire the process's active offload at its predicted completion.
    /// Debug builds panic if more than one tick of work is left — a stale
    /// event the generation guard should have dropped.
    fn finish_offload(&mut self, now: SimTime, handle: Self::Handle);

    /// MPSS crash: drop every resident and all active offloads. Utilization
    /// integrators and lifetime counters survive, and the generation bumps.
    fn reset(&mut self, now: SimTime);

    /// Thermal derate: multiply every execution rate by `scale` (in
    /// `(0, 1]`; `1.0` restores nominal) from `now` on, bumping the
    /// generation. Survives [`DeviceSubstrate::reset`].
    fn set_rate_scale(&mut self, now: SimTime, scale: f64);

    /// Visit every predicted completion in ascending [`ProcId`] order —
    /// the specification [`DeviceSubstrate::next_completion`] is checked
    /// against.
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

    /// Energy consumed through `end`, joules: idle draw for the whole
    /// interval plus the busy-core fraction scaled toward max draw.
    fn energy_joules(&self, end: SimTime) -> f64;

    /// Time-integrated utilization through `end`.
    fn utilization(&self, end: SimTime) -> DeviceUtilization;
}
