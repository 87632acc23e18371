//! The device model: resident processes, active offloads, rate-rescaled
//! execution, oversubscription effects and utilization accounting.
//!
//! ## Storage layout (the substrate fast path)
//!
//! Resident-process and active-offload state live in one generation-stamped
//! slab ([`phishare_sim::Slab`]): each resident occupies a dense slot
//! holding its envelope, its committed memory and its (optional) active
//! offload. A [`ProcSlot`] handle is resolved once at attach time; every
//! hot-path operation — admission, rate updates, completion scans — is then
//! an array index instead of a `BTreeMap` walk. A small `ProcId → ProcSlot`
//! index is maintained *only* at attach/detach so the device still answers
//! id-keyed queries (and so OOM victim selection sees residents in
//! ascending-id order, exactly like the keyed oracle).
//!
//! Aggregate signals the keyed substrate recomputed by iteration
//! (committed/declared totals, thread sums, busy-core estimate) are kept
//! incrementally; they are integer-valued, so the incremental values are
//! *identical* — not merely close — to the recomputed ones, which is what
//! lets the differential proptests demand bit-equal results against
//! [`KeyedPhiDevice`](crate::keyed::KeyedPhiDevice).

use crate::alloc::CoreSet;
use crate::config::PhiConfig;
use crate::perf::PerfModel;
use crate::proc::ProcId;
use phishare_sim::{Counter, DetRng, SimDuration, SimTime, Slab, Slot, TimeWeighted};
use std::collections::BTreeMap;
use std::fmt;

/// How an offload's threads are placed on cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Affinity {
    /// COSMIC pinned the offload to a private, disjoint core set; it never
    /// interferes with other pinned offloads.
    Pinned(CoreSet),
    /// Raw MPSS: threads scatter across the whole device and overlapping
    /// offloads interfere (§IV-D2).
    Unmanaged,
}

/// Result of a memory commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The commit fits in physical memory.
    Fits,
    /// Physical memory was oversubscribed; the OOM killer terminated these
    /// processes (their offloads were aborted and they are no longer
    /// resident).
    OomKilled(Vec<ProcId>),
}

/// Errors from device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The process is already resident.
    AlreadyResident(ProcId),
    /// The process is not resident on this device.
    NotResident(ProcId),
    /// The process already has an active offload (the offload model is
    /// synchronous per COI process).
    OffloadInProgress(ProcId),
    /// The process has no active offload.
    NoActiveOffload(ProcId),
    /// A pinned core set overlaps an already-pinned offload.
    CoreOverlap(ProcId),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::AlreadyResident(p) => write!(f, "{p} is already resident"),
            DeviceError::NotResident(p) => write!(f, "{p} is not resident"),
            DeviceError::OffloadInProgress(p) => write!(f, "{p} already has an active offload"),
            DeviceError::NoActiveOffload(p) => write!(f, "{p} has no active offload"),
            DeviceError::CoreOverlap(p) => {
                write!(f, "pinned cores for {p} overlap another offload")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// One active (currently executing) offload.
#[derive(Debug, Clone)]
struct ActiveOffload {
    threads: u32,
    /// Nominal work remaining, in ticks at rate 1.
    remaining: f64,
    /// Current execution rate (nominal ticks per wall tick).
    rate: f64,
    affinity: Affinity,
}

/// One resident process's slab entry: envelope, commit, optional offload.
#[derive(Debug, Clone)]
struct ProcEntry {
    id: ProcId,
    declared_mem_mb: u64,
    declared_threads: u32,
    committed_mem_mb: u64,
    active: Option<ActiveOffload>,
}

/// Handle to a resident process, resolved once at [`PhiDevice::attach_slot`]
/// and valid until the process detaches, is OOM-killed or the device resets.
///
/// Generation-stamped: a handle that outlives its process goes stale rather
/// than aliasing the slot's next tenant — reads return `None`/`false`,
/// destructive operations panic (see [`phishare_sim::Slab`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcSlot(Slot);

impl fmt::Display for ProcSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc-{}", self.0)
    }
}

/// Time-integrated utilization of one device over an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceUtilization {
    /// Average fraction of hardware threads busy, in `[0, 1]`.
    pub thread_util: f64,
    /// Average fraction of cores busy, in `[0, 1]` — the paper's §III metric.
    pub core_util: f64,
    /// Average fraction of usable memory committed, in `[0, 1]`.
    pub mem_util: f64,
    /// Fraction of time at least one offload was executing.
    pub busy_fraction: f64,
}

/// A simulated Xeon Phi card (slab-backed fast substrate).
///
/// The device is a passive state machine: the owning event loop calls
/// [`PhiDevice::start_offload`] / [`PhiDevice::finish_offload`] etc. and uses
/// [`PhiDevice::completions`] + [`PhiDevice::generation`] to (re)schedule
/// completion events. Any mutation that changes execution rates bumps the
/// generation; events carrying a stale generation must be ignored by the
/// caller.
///
/// Every id-keyed method has a `_slot` twin taking a [`ProcSlot`]; hot
/// loops resolve the handle once at registration and skip the map lookup
/// thereafter. The id-keyed forms remain for tests, examples and the
/// one-shot call sites where the lookup is not on the critical path.
#[derive(Debug)]
pub struct PhiDevice {
    cfg: PhiConfig,
    perf: PerfModel,
    /// Dense per-resident state; the only per-process storage.
    procs: Slab<ProcEntry>,
    /// `ProcId → slot`, touched only at attach/detach/OOM/reset. Keeps
    /// ascending-id iteration (OOM victim order, `resident_ids_iter`) and
    /// id-keyed convenience lookups.
    index: BTreeMap<ProcId, ProcSlot>,
    created: SimTime,
    last_update: SimTime,
    generation: u64,
    // Incrementally-maintained aggregates (integer-exact mirrors of the
    // keyed substrate's per-call recomputations).
    committed_total: u64,
    declared_total: u64,
    declared_threads_total: u32,
    active_threads_total: u32,
    n_active: usize,
    /// Union of all pinned active offloads' core sets. Pinned sets are
    /// pairwise disjoint (enforced at start), so removal can subtract a
    /// member's exact mask.
    pinned_union: CoreSet,
    /// Core estimate contributed by unmanaged active offloads.
    unmanaged_cores: u32,
    /// Environmental rate multiplier (thermal derate), applied to every
    /// execution rate after the sharing model. `1.0` = nominal. Survives
    /// [`PhiDevice::reset`]: throttling is ambient, not card state.
    rate_scale: f64,
    busy_threads: TimeWeighted,
    busy_cores: TimeWeighted,
    committed: TimeWeighted,
    busy_any: TimeWeighted,
    /// Processes killed by the OOM killer over the device's lifetime.
    pub oom_kills: Counter,
    /// Offloads that ran to completion.
    pub offloads_completed: Counter,
}

/// Tolerance (in nominal ticks) below which remaining work counts as done.
pub(crate) const WORK_EPSILON: f64 = 1e-6;

impl PhiDevice {
    /// Create a device at simulation time `start`.
    pub fn new(cfg: PhiConfig, perf: PerfModel, start: SimTime) -> Self {
        cfg.validate().expect("invalid device configuration");
        PhiDevice {
            cfg,
            perf,
            procs: Slab::with_capacity(8),
            index: BTreeMap::new(),
            created: start,
            last_update: start,
            generation: 0,
            committed_total: 0,
            declared_total: 0,
            declared_threads_total: 0,
            active_threads_total: 0,
            n_active: 0,
            pinned_union: CoreSet::EMPTY,
            unmanaged_cores: 0,
            rate_scale: 1.0,
            busy_threads: TimeWeighted::new(start),
            busy_cores: TimeWeighted::new(start),
            committed: TimeWeighted::new(start),
            busy_any: TimeWeighted::new(start),
            oom_kills: Counter::new(),
            offloads_completed: Counter::new(),
        }
    }

    /// The device's static configuration.
    pub fn config(&self) -> &PhiConfig {
        &self.cfg
    }

    /// Monotone counter bumped whenever execution rates may have changed.
    /// Completion events scheduled under an older generation are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The current environmental rate multiplier (thermal derate).
    pub fn rate_scale(&self) -> f64 {
        self.rate_scale
    }

    /// Thermal derate: integrate progress up to `now`, then multiply every
    /// execution rate by `scale` (in `(0, 1]`; `1.0` restores nominal)
    /// from `now` on, bumping the generation so every outstanding
    /// completion prediction goes stale. Survives [`PhiDevice::reset`].
    pub fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        debug_assert!(scale.is_finite() && scale > 0.0 && scale <= 1.0);
        self.rate_scale = scale;
        self.reschedule(now);
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Attach a COI process with its declared envelope and an initial memory
    /// commit. The initial commit may already trigger the OOM killer when
    /// the device is physically oversubscribed (raw-MPSS scenarios).
    pub fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> Result<CommitOutcome, DeviceError> {
        self.attach_slot(
            now,
            proc,
            declared_mem_mb,
            declared_threads,
            initial_commit_mb,
            rng,
        )
        .map(|(_, outcome)| outcome)
    }

    /// [`PhiDevice::attach`], additionally returning the resident's slot
    /// handle for later array-indexed access.
    ///
    /// When the returned outcome lists the *attached process itself* among
    /// the OOM victims, the handle is already stale and must be discarded.
    pub fn attach_slot(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> Result<(ProcSlot, CommitOutcome), DeviceError> {
        if self.index.contains_key(&proc) {
            return Err(DeviceError::AlreadyResident(proc));
        }
        let slot = ProcSlot(self.procs.insert(ProcEntry {
            id: proc,
            declared_mem_mb,
            declared_threads,
            committed_mem_mb: 0,
            active: None,
        }));
        self.index.insert(proc, slot);
        self.declared_total += declared_mem_mb;
        self.declared_threads_total += declared_threads;
        let outcome = self.commit_memory_slot(now, slot, initial_commit_mb, rng);
        // Residency changed either way (attach, possibly minus OOM
        // victims): rates must be refreshed even when the commit fit.
        self.reschedule(now);
        Ok((slot, outcome))
    }

    /// Detach a process, freeing its memory and aborting any active offload.
    pub fn detach(&mut self, now: SimTime, proc: ProcId) -> Result<(), DeviceError> {
        if !self.index.contains_key(&proc) {
            return Err(DeviceError::NotResident(proc));
        }
        self.remove_entry(proc);
        self.reschedule(now);
        Ok(())
    }

    /// [`PhiDevice::detach`] through a slot handle.
    ///
    /// # Panics
    /// Panics when the handle is stale.
    pub fn detach_slot(&mut self, now: SimTime, slot: ProcSlot) {
        let proc = self.entry(slot).id;
        self.remove_entry(proc);
        self.reschedule(now);
    }

    /// Set a process's committed memory to `total_mb`. Shrinking is allowed.
    /// Growing past physical memory triggers the OOM killer, which
    /// terminates uniformly random resident processes until the commit fits
    /// (§II-C: Linux's OOM killer "randomly terminates processes").
    pub fn commit_memory(
        &mut self,
        now: SimTime,
        proc: ProcId,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> Result<CommitOutcome, DeviceError> {
        let slot = *self
            .index
            .get(&proc)
            .ok_or(DeviceError::NotResident(proc))?;
        Ok(self.commit_memory_slot(now, slot, total_mb, rng))
    }

    /// [`PhiDevice::commit_memory`] through a slot handle. The committing
    /// process may itself be chosen as an OOM victim, in which case `slot`
    /// is stale on return.
    ///
    /// # Panics
    /// Panics when the handle is stale on entry.
    pub fn commit_memory_slot(
        &mut self,
        now: SimTime,
        slot: ProcSlot,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        {
            let committed_total = &mut self.committed_total;
            let entry = self
                .procs
                .get_mut(slot.0)
                .unwrap_or_else(|| panic!("commit_memory through stale handle {slot}"));
            *committed_total = *committed_total - entry.committed_mem_mb + total_mb;
            entry.committed_mem_mb = total_mb;
        }
        let mut killed = Vec::new();
        while self.committed_total > self.cfg.usable_mem_mb() {
            let n = self.index.len();
            debug_assert!(n > 0);
            // Uniform victim over residents in ascending-id order — the
            // exact index stream the keyed oracle draws.
            let victim = *self
                .index
                .keys()
                .nth(rng.index(n))
                .expect("resident set is non-empty");
            self.remove_entry(victim);
            self.oom_kills.incr();
            killed.push(victim);
        }
        if killed.is_empty() {
            // Execution rates depend only on membership (active offloads,
            // residents, thread sums), which an in-bounds commit leaves
            // untouched: pending completion predictions stay valid, so no
            // generation bump and no rate recompute — only the
            // committed-memory signal moved. (The advance re-anchors
            // `last_update`, so *recomputing* a prediction after it can
            // land a float-rounding tick away from the still-live issued
            // one — which is why the runtime never re-syncs within a
            // generation.)
            self.advance_to(now);
            self.record_utilization(now);
            CommitOutcome::Fits
        } else {
            self.reschedule(now);
            CommitOutcome::OomKilled(killed)
        }
    }

    /// Remove `proc` from the slab, the id index and every aggregate.
    /// Does *not* reschedule; callers decide when rates refresh.
    fn remove_entry(&mut self, proc: ProcId) {
        let slot = self.index.remove(&proc).expect("proc is indexed");
        let entry = self.procs.remove(slot.0);
        self.declared_total -= entry.declared_mem_mb;
        self.declared_threads_total -= entry.declared_threads;
        self.committed_total -= entry.committed_mem_mb;
        if let Some(off) = entry.active {
            self.retire_active(&off);
        }
    }

    /// Deduct one active offload from the incremental aggregates.
    fn retire_active(&mut self, off: &ActiveOffload) {
        self.n_active -= 1;
        self.active_threads_total -= off.threads;
        match off.affinity {
            // Pinned sets are pairwise disjoint, so clearing this member's
            // bits removes exactly its contribution to the union.
            Affinity::Pinned(set) => {
                self.pinned_union = CoreSet::from_mask(self.pinned_union.mask() & !set.mask());
            }
            Affinity::Unmanaged => {
                self.unmanaged_cores -= self.cfg.cores_for_threads(off.threads);
            }
        }
    }

    /// The live entry at `slot`, panicking on a stale handle.
    fn entry(&self, slot: ProcSlot) -> &ProcEntry {
        self.procs
            .get(slot.0)
            .unwrap_or_else(|| panic!("device access through stale handle {slot}"))
    }

    // ------------------------------------------------------------------
    // Offload lifecycle
    // ------------------------------------------------------------------

    /// Begin executing an offload of `work` nominal duration using `threads`
    /// hardware threads for process `proc`.
    pub fn start_offload(
        &mut self,
        now: SimTime,
        proc: ProcId,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) -> Result<(), DeviceError> {
        let slot = *self
            .index
            .get(&proc)
            .ok_or(DeviceError::NotResident(proc))?;
        self.start_offload_slot(now, slot, threads, work, affinity)
    }

    /// [`PhiDevice::start_offload`] through a slot handle.
    ///
    /// # Panics
    /// Panics when the handle is stale.
    pub fn start_offload_slot(
        &mut self,
        now: SimTime,
        slot: ProcSlot,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) -> Result<(), DeviceError> {
        let entry = self.entry(slot);
        let proc = entry.id;
        if entry.active.is_some() {
            return Err(DeviceError::OffloadInProgress(proc));
        }
        if let Affinity::Pinned(set) = affinity {
            // Active pinned sets are pairwise disjoint, so overlapping any
            // of them is overlapping their union: one mask test replaces
            // the keyed substrate's scan over every active offload.
            if !set.is_disjoint(self.pinned_union) {
                return Err(DeviceError::CoreOverlap(proc));
            }
            self.pinned_union = self.pinned_union.union(set);
        } else {
            self.unmanaged_cores += self.cfg.cores_for_threads(threads);
        }
        self.n_active += 1;
        self.active_threads_total += threads;
        self.procs
            .get_mut(slot.0)
            .expect("entry verified live above")
            .active = Some(ActiveOffload {
            threads,
            remaining: work.ticks() as f64,
            rate: 1.0,
            affinity,
        });
        self.reschedule(now);
        Ok(())
    }

    /// Complete an offload whose completion event just fired.
    ///
    /// # Panics
    /// Panics (in debug builds) if called while the offload still has more
    /// than one tick of work left — that means the caller fired a stale
    /// event the generation guard should have dropped.
    pub fn finish_offload(&mut self, now: SimTime, proc: ProcId) -> Result<(), DeviceError> {
        self.advance_to(now);
        let Some(&slot) = self.index.get(&proc) else {
            return Err(DeviceError::NoActiveOffload(proc));
        };
        self.finish_after_advance(now, slot)
    }

    /// [`PhiDevice::finish_offload`] through a slot handle.
    ///
    /// # Panics
    /// Panics when the handle is stale; debug-panics on premature finish.
    pub fn finish_offload_slot(&mut self, now: SimTime, slot: ProcSlot) -> Result<(), DeviceError> {
        self.advance_to(now);
        self.finish_after_advance(now, slot)
    }

    fn finish_after_advance(&mut self, now: SimTime, slot: ProcSlot) -> Result<(), DeviceError> {
        let entry = self.entry(slot);
        let Some(off) = &entry.active else {
            return Err(DeviceError::NoActiveOffload(entry.id));
        };
        debug_assert!(
            off.remaining <= off.rate + WORK_EPSILON,
            "finish_offload fired with {:.3} nominal ticks left (rate {:.4}): stale event?",
            off.remaining,
            off.rate
        );
        let off = self
            .procs
            .get_mut(slot.0)
            .expect("entry verified live above")
            .active
            .take()
            .expect("offload verified active above");
        self.retire_active(&off);
        self.offloads_completed.incr();
        self.reschedule(now);
        Ok(())
    }

    /// Abort an active offload (job killed or preempted mid-offload).
    pub fn abort_offload(&mut self, now: SimTime, proc: ProcId) -> Result<(), DeviceError> {
        let Some(&slot) = self.index.get(&proc) else {
            return Err(DeviceError::NoActiveOffload(proc));
        };
        self.abort_offload_slot(now, slot)
    }

    /// [`PhiDevice::abort_offload`] through a slot handle.
    ///
    /// # Panics
    /// Panics when the handle is stale.
    fn abort_offload_slot(&mut self, now: SimTime, slot: ProcSlot) -> Result<(), DeviceError> {
        let id = self.entry(slot).id;
        let Some(off) = self
            .procs
            .get_mut(slot.0)
            .expect("entry verified live above")
            .active
            .take()
        else {
            return Err(DeviceError::NoActiveOffload(id));
        };
        self.retire_active(&off);
        self.reschedule(now);
        Ok(())
    }

    /// MPSS crash/restart: every resident COI process is torn down and
    /// every active offload aborted in one stroke, releasing all committed
    /// memory. Utilization integrators and lifetime counters survive —
    /// the card is the same card after the reboot — and the generation
    /// bumps so every outstanding completion prediction goes stale.
    pub fn reset(&mut self, now: SimTime) {
        self.procs.clear();
        self.index.clear();
        self.committed_total = 0;
        self.declared_total = 0;
        self.declared_threads_total = 0;
        self.active_threads_total = 0;
        self.n_active = 0;
        self.pinned_union = CoreSet::EMPTY;
        self.unmanaged_cores = 0;
        self.reschedule(now);
    }

    /// Predicted completion instants for all active offloads under current
    /// rates, in ascending [`ProcId`] order.
    ///
    /// Allocates one `Vec` per call; hot loops should use
    /// [`PhiDevice::for_each_completion`] (same order, no allocation) or
    /// [`PhiDevice::next_completion`].
    pub fn completions(&self) -> Vec<(ProcId, SimTime)> {
        self.completions_iter().collect()
    }

    /// Allocation-free form of [`PhiDevice::completions`]: predicted
    /// completion instants in ascending [`ProcId`] order — the order
    /// per-offload completion events must be scheduled in to preserve
    /// same-tick tie-breaking.
    fn completions_iter(&self) -> impl Iterator<Item = (ProcId, SimTime)> + '_ {
        self.index.values().filter_map(|slot| {
            let entry = self.entry(*slot);
            entry.active.as_ref().map(|off| {
                let dt = (off.remaining / off.rate).ceil().max(0.0) as u64;
                (entry.id, self.last_update + SimDuration::from_ticks(dt))
            })
        })
    }

    /// Visit every predicted completion in ascending [`ProcId`] order
    /// without allocating.
    pub fn for_each_completion(&self, mut f: impl FnMut(ProcId, SimTime)) {
        for (proc, at) in self.completions_iter() {
            f(proc, at);
        }
    }

    /// The earliest predicted completion under current rates, without
    /// allocating: `(proc, instant)` of the next offload to finish, or
    /// `None` when the device is idle. Ties go to the lowest [`ProcId`] —
    /// the same order per-offload events fire in when scheduled from
    /// [`PhiDevice::completions`], so the two scheduling schemes stay
    /// step-for-step equivalent.
    ///
    /// Valid for the current [`PhiDevice::generation`]; any mutation that
    /// bumps the generation invalidates the prediction and the caller must
    /// re-query.
    pub fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        // Scans the dense slab (cache-friendly); min by (instant, id) is
        // iteration-order independent, so slot order here and ascending-id
        // order in the keyed oracle pick the same winner.
        let mut best: Option<(ProcId, SimTime)> = None;
        for (_, entry) in self.procs.iter() {
            if let Some(off) = &entry.active {
                let dt = (off.remaining / off.rate).ceil().max(0.0) as u64;
                let at = self.last_update + SimDuration::from_ticks(dt);
                if best
                    .map(|(bp, bt)| (at, entry.id) < (bt, bp))
                    .unwrap_or(true)
                {
                    best = Some((entry.id, at));
                }
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Execution integration
    // ------------------------------------------------------------------

    /// Integrate execution progress up to `now` and refresh all rates,
    /// bumping the generation.
    fn reschedule(&mut self, now: SimTime) {
        self.advance_to(now);
        let n_active = self.n_active;
        let n_resident = self.procs.len();
        let active_threads = self.active_threads_total;
        let hw = self.cfg.hw_threads();
        let perf = self.perf;
        perf.reshare_rates(
            n_active,
            n_resident,
            active_threads,
            hw,
            self.procs.iter_mut().filter_map(|(_, entry)| {
                entry
                    .active
                    .as_mut()
                    .map(|off| (matches!(off.affinity, Affinity::Pinned(_)), &mut off.rate))
            }),
        );
        if self.rate_scale != 1.0 {
            for (_, entry) in self.procs.iter_mut() {
                if let Some(off) = &mut entry.active {
                    off.rate *= self.rate_scale;
                }
            }
        }
        self.generation += 1;
        self.record_utilization(now);
    }

    /// Integrate remaining work at current rates from `last_update` to `now`.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            for (_, entry) in self.procs.iter_mut() {
                if let Some(off) = &mut entry.active {
                    off.remaining = (off.remaining - off.rate * dt).max(0.0);
                }
            }
            self.last_update = now;
        }
    }

    fn record_utilization(&mut self, now: SimTime) {
        // Each signal is piecewise constant, so re-setting an unchanged
        // value only restates the current segment — skip those updates.
        let hw = self.cfg.hw_threads();
        let threads = self.active_threads_total.min(hw) as f64;
        if threads != self.busy_threads.value() {
            self.busy_threads.set(now, threads);
        }
        let cores = self.busy_core_estimate() as f64;
        if cores != self.busy_cores.value() {
            self.busy_cores.set(now, cores);
        }
        let committed = self.committed_total as f64;
        if committed != self.committed.value() {
            self.committed.set(now, committed);
        }
        let busy = if self.n_active == 0 { 0.0 } else { 1.0 };
        if busy != self.busy_any.value() {
            self.busy_any.set(now, busy);
        }
    }

    /// Estimated number of busy cores: pinned offloads occupy exactly their
    /// core sets; unmanaged offloads spread over `ceil(threads/4)` cores.
    /// Capped at the core count. O(1) from the incremental aggregates.
    fn busy_core_estimate(&self) -> u32 {
        (self.pinned_union.count() + self.unmanaged_cores).min(self.cfg.cores)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Number of resident COI processes.
    pub fn resident_count(&self) -> usize {
        self.procs.len()
    }

    /// True when `proc` is resident.
    pub fn is_resident(&self, proc: ProcId) -> bool {
        self.index.contains_key(&proc)
    }

    /// The slot handle for a resident process, or `None` when not resident.
    pub fn slot_of(&self, proc: ProcId) -> Option<ProcSlot> {
        self.index.get(&proc).copied()
    }

    /// True when `slot` still names a live resident (its process has not
    /// detached, been OOM-killed or been swept by a reset).
    pub fn slot_is_live(&self, slot: ProcSlot) -> bool {
        self.procs.contains(slot.0)
    }

    /// True when `proc` has an active offload.
    pub fn has_active_offload(&self, proc: ProcId) -> bool {
        self.index
            .get(&proc)
            .is_some_and(|slot| self.entry(*slot).active.is_some())
    }

    /// Resident process ids in ascending order, without allocating.
    pub fn resident_ids_iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.index.keys().copied()
    }

    /// Sum of declared memory over resident processes (MB) — what schedulers
    /// budget against.
    pub fn declared_total_mb(&self) -> u64 {
        self.declared_total
    }

    /// Declared memory still unbudgeted (MB), i.e. usable minus declared.
    pub fn free_declared_mb(&self) -> u64 {
        self.cfg.usable_mem_mb().saturating_sub(self.declared_total)
    }

    /// Sum of committed memory over resident processes (MB) — the physical
    /// constraint.
    pub fn committed_total_mb(&self) -> u64 {
        self.committed_total
    }

    /// Sum of declared threads over resident processes.
    pub fn declared_threads(&self) -> u32 {
        self.declared_threads_total
    }

    /// Thread sum over *active* offloads.
    pub fn active_threads(&self) -> u32 {
        self.active_threads_total
    }

    /// Number of active offloads.
    pub fn active_offloads(&self) -> usize {
        self.n_active
    }

    /// Energy consumed by the card from creation through `end`, in joules:
    /// idle draw for the whole interval plus the busy-core fraction scaled
    /// between idle and max draw. Backs the paper's footprint argument —
    /// fewer cards at equal makespan means proportionally less energy.
    pub fn energy_joules(&self, end: SimTime) -> f64 {
        let elapsed = end.since(self.created).as_secs_f64();
        let busy_core_seconds = self.busy_cores.integral(end);
        self.cfg.idle_watts * elapsed
            + (self.cfg.max_watts - self.cfg.idle_watts) * busy_core_seconds / self.cfg.cores as f64
    }

    /// Time-integrated utilization from device creation through `end`.
    pub fn utilization(&self, end: SimTime) -> DeviceUtilization {
        let hw = self.cfg.hw_threads() as f64;
        let cores = self.cfg.cores as f64;
        let mem = self.cfg.usable_mem_mb() as f64;
        DeviceUtilization {
            thread_util: self.busy_threads.time_average(end) / hw,
            core_util: self.busy_cores.time_average(end) / cores,
            mem_util: self.committed.time_average(end) / mem,
            busy_fraction: self.busy_any.time_average(end),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> PhiDevice {
        PhiDevice::new(PhiConfig::default(), PerfModel::default(), SimTime::ZERO)
    }

    fn rng() -> DetRng {
        DetRng::from_seed(1)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn attach_commit_detach_accounting() {
        let mut d = dev();
        let mut r = rng();
        assert_eq!(
            d.attach(t(0), ProcId(1), 1000, 120, 400, &mut r).unwrap(),
            CommitOutcome::Fits
        );
        assert_eq!(d.declared_total_mb(), 1000);
        assert_eq!(d.committed_total_mb(), 400);
        assert_eq!(d.free_declared_mb(), 7680 - 1000);
        assert_eq!(d.declared_threads(), 120);
        d.detach(t(1), ProcId(1)).unwrap();
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.committed_total_mb(), 0);
    }

    #[test]
    fn double_attach_rejected() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 100, 60, 0, &mut r).unwrap();
        assert_eq!(
            d.attach(t(0), ProcId(1), 100, 60, 0, &mut r),
            Err(DeviceError::AlreadyResident(ProcId(1)))
        );
    }

    #[test]
    fn solo_offload_completes_at_nominal_time() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 1000, 240, 500, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            240,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        let comps = d.completions();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], (ProcId(1), t(10)));
        d.finish_offload(t(10), ProcId(1)).unwrap();
        assert_eq!(d.active_offloads(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }

    #[test]
    fn oversubscribed_offloads_slow_down_8x() {
        let mut d = dev();
        let mut r = rng();
        for p in 1..=2 {
            d.attach(t(0), ProcId(p), 1000, 240, 100, &mut r).unwrap();
            d.start_offload(
                t(0),
                ProcId(p),
                240,
                SimDuration::from_secs(10),
                Affinity::Unmanaged,
            )
            .unwrap();
        }
        // 480 threads on 240 hw → load 2 → rate 1/(8 oversub × 1.15
        // conflict); two residents sit below the sharing knee.
        let comps = d.completions();
        let expect_secs = 10.0 * 8.0 * 1.15;
        for (_, ct) in comps {
            assert!(
                (ct.as_secs_f64() - expect_secs).abs() < 0.01,
                "completion at {ct}, expected ≈{expect_secs}s"
            );
        }
    }

    #[test]
    fn pinned_offloads_overlap_at_full_rate_below_knee() {
        let mut d = dev();
        let mut r = rng();
        let a = CoreSet::contiguous(0, 30);
        let b = CoreSet::contiguous(30, 30);
        for (p, set) in [(1u64, a), (2u64, b)] {
            d.attach(t(0), ProcId(p), 1000, 120, 100, &mut r).unwrap();
            d.start_offload(
                t(0),
                ProcId(p),
                120,
                SimDuration::from_secs(10),
                Affinity::Pinned(set),
            )
            .unwrap();
        }
        // No core conflict, no oversubscription, residents below the knee:
        // both offloads run at full rate concurrently.
        for (_, ct) in d.completions() {
            assert_eq!(ct, t(10));
        }
    }

    #[test]
    fn solo_pinned_offload_runs_at_full_rate() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 1000, 120, 100, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            120,
            SimDuration::from_secs(10),
            Affinity::Pinned(CoreSet::contiguous(0, 30)),
        )
        .unwrap();
        assert_eq!(d.completions(), vec![(ProcId(1), t(10))]);
    }

    #[test]
    fn overlapping_pinned_sets_rejected() {
        let mut d = dev();
        let mut r = rng();
        let a = CoreSet::contiguous(0, 30);
        let overlapping = CoreSet::contiguous(20, 30);
        d.attach(t(0), ProcId(1), 1000, 120, 0, &mut r).unwrap();
        d.attach(t(0), ProcId(2), 1000, 120, 0, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            120,
            SimDuration::from_secs(5),
            Affinity::Pinned(a),
        )
        .unwrap();
        assert_eq!(
            d.start_offload(
                t(0),
                ProcId(2),
                120,
                SimDuration::from_secs(5),
                Affinity::Pinned(overlapping)
            ),
            Err(DeviceError::CoreOverlap(ProcId(2)))
        );
    }

    #[test]
    fn rate_change_mid_offload_integrates_progress() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 1000, 240, 0, &mut r).unwrap();
        d.attach(t(0), ProcId(2), 1000, 240, 0, &mut r).unwrap();
        // P1 runs alone for 5 s at full rate (two residents, below knee).
        d.start_offload(
            t(0),
            ProcId(1),
            240,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        // P2's offload joins at t=5: both now oversubscribed (load 2 → ×8)
        // and conflicting (×1.15).
        d.start_offload(
            t(5),
            ProcId(2),
            240,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        let comps = d.completions();
        let p1 = comps.iter().find(|(p, _)| *p == ProcId(1)).unwrap().1;
        // Remaining 5 s of nominal work at rate 1/9.2 → 46 s more.
        assert!(
            (p1.as_secs_f64() - (5.0 + 5.0 * 9.2)).abs() < 0.05,
            "P1 completion {p1}"
        );
    }

    #[test]
    fn generation_bumps_on_membership_changes() {
        let mut d = dev();
        let mut r = rng();
        let g0 = d.generation();
        d.attach(t(0), ProcId(1), 100, 60, 0, &mut r).unwrap();
        let g1 = d.generation();
        assert!(g1 > g0);
        d.start_offload(
            t(0),
            ProcId(1),
            60,
            SimDuration::from_secs(1),
            Affinity::Unmanaged,
        )
        .unwrap();
        assert!(d.generation() > g1);
    }

    #[test]
    fn next_completion_matches_earliest_prediction() {
        let mut d = dev();
        let mut r = rng();
        assert_eq!(d.next_completion(), None);
        for (p, secs) in [(1u64, 30), (2, 10), (3, 20)] {
            d.attach(t(0), ProcId(p), 500, 60, 100, &mut r).unwrap();
            d.start_offload(
                t(0),
                ProcId(p),
                60,
                SimDuration::from_secs(secs),
                Affinity::Unmanaged,
            )
            .unwrap();
        }
        let next = d.next_completion().unwrap();
        let earliest = d
            .completions()
            .into_iter()
            .min_by_key(|&(p, at)| (at, p))
            .unwrap();
        assert_eq!(next, earliest);
        assert_eq!(next.0, ProcId(2));
    }

    #[test]
    fn next_completion_ties_break_to_lowest_proc() {
        let mut d = dev();
        let mut r = rng();
        for p in [5u64, 2, 9] {
            d.attach(t(0), ProcId(p), 500, 60, 100, &mut r).unwrap();
            d.start_offload(
                t(0),
                ProcId(p),
                60,
                SimDuration::from_secs(10),
                Affinity::Unmanaged,
            )
            .unwrap();
        }
        // All three predictions coincide; the lowest ProcId wins — the
        // order per-offload events would fire in.
        assert_eq!(d.next_completion().unwrap().0, ProcId(2));
    }

    #[test]
    fn in_bounds_commit_preserves_generation_and_predictions() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 2000, 60, 100, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            60,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        let g = d.generation();
        let before = d.next_completion();
        // A commit that fits changes no execution rate: the pending
        // completion event must stay valid (no generation bump).
        assert_eq!(
            d.commit_memory(t(2), ProcId(1), 1500, &mut r).unwrap(),
            CommitOutcome::Fits
        );
        assert_eq!(d.generation(), g);
        assert_eq!(d.next_completion(), before);
        assert_eq!(d.committed_total_mb(), 1500);
    }

    #[test]
    fn completions_iter_matches_vec_variant() {
        let mut d = dev();
        let mut r = rng();
        for (p, secs) in [(4u64, 30), (1, 10), (3, 20)] {
            d.attach(t(0), ProcId(p), 500, 60, 100, &mut r).unwrap();
            d.start_offload(
                t(0),
                ProcId(p),
                60,
                SimDuration::from_secs(secs),
                Affinity::Unmanaged,
            )
            .unwrap();
        }
        let from_iter: Vec<_> = d.completions_iter().collect();
        assert_eq!(from_iter, d.completions());
        let procs: Vec<ProcId> = from_iter.iter().map(|&(p, _)| p).collect();
        assert_eq!(procs, vec![ProcId(1), ProcId(3), ProcId(4)]);
        let mut visited = Vec::new();
        d.for_each_completion(|p, at| visited.push((p, at)));
        assert_eq!(visited, from_iter);
    }

    #[test]
    fn oom_killer_terminates_random_victims_until_fit() {
        let mut d = dev();
        let mut r = rng();
        // Three processes each committing 3000 MB: 9000 > 7680 usable.
        d.attach(t(0), ProcId(1), 3000, 60, 3000, &mut r).unwrap();
        d.attach(t(0), ProcId(2), 3000, 60, 3000, &mut r).unwrap();
        let out = d.attach(t(0), ProcId(3), 3000, 60, 3000, &mut r).unwrap();
        match out {
            CommitOutcome::OomKilled(victims) => {
                assert_eq!(victims.len(), 1);
                assert_eq!(d.resident_count(), 2);
                assert!(d.committed_total_mb() <= d.config().usable_mem_mb());
                assert_eq!(d.oom_kills.get(), 1);
            }
            CommitOutcome::Fits => panic!("expected an OOM kill"),
        }
    }

    #[test]
    fn oom_victim_offload_is_aborted() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 7000, 240, 7000, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            240,
            SimDuration::from_secs(100),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.attach(t(1), ProcId(2), 7000, 240, 0, &mut r).unwrap();
        // P2 commits 7000 MB → 14000 > 7680 → someone dies.
        let out = d.commit_memory(t(1), ProcId(2), 7000, &mut r).unwrap();
        let CommitOutcome::OomKilled(victims) = out else {
            panic!("expected an OOM kill");
        };
        assert_eq!(victims.len(), 1);
        for v in &victims {
            assert!(!d.is_resident(*v));
            assert!(!d.has_active_offload(*v));
        }
        assert!(d.committed_total_mb() <= 7680);
    }

    #[test]
    fn oom_victim_slot_goes_stale() {
        let mut d = dev();
        let mut r = rng();
        let (s1, _) = d
            .attach_slot(t(0), ProcId(1), 7000, 60, 7000, &mut r)
            .unwrap();
        let (s2, out) = d
            .attach_slot(t(0), ProcId(2), 7000, 60, 7000, &mut r)
            .unwrap();
        let CommitOutcome::OomKilled(victims) = out else {
            panic!("expected an OOM kill");
        };
        assert_eq!(victims.len(), 1);
        let (dead, live) = if victims[0] == ProcId(1) {
            (s1, s2)
        } else {
            (s2, s1)
        };
        assert!(!d.slot_is_live(dead));
        assert!(d.slot_is_live(live));
        assert_eq!(d.slot_of(victims[0]), None);
        // The surviving slot still drives the full offload lifecycle.
        d.start_offload_slot(
            t(1),
            live,
            60,
            SimDuration::from_secs(5),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.finish_offload_slot(t(6), live).unwrap();
        d.detach_slot(t(6), live);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }

    #[test]
    fn slot_api_matches_id_api() {
        let mut d = dev();
        let mut r = rng();
        let (slot, out) = d
            .attach_slot(t(0), ProcId(7), 1000, 120, 400, &mut r)
            .unwrap();
        assert_eq!(out, CommitOutcome::Fits);
        assert_eq!(d.slot_of(ProcId(7)), Some(slot));
        assert!(d.slot_is_live(slot));
        assert_eq!(
            d.commit_memory_slot(t(1), slot, 900, &mut r),
            CommitOutcome::Fits
        );
        assert_eq!(d.committed_total_mb(), 900);
        d.start_offload_slot(
            t(1),
            slot,
            120,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        assert_eq!(
            d.start_offload_slot(
                t(1),
                slot,
                120,
                SimDuration::from_secs(10),
                Affinity::Unmanaged
            ),
            Err(DeviceError::OffloadInProgress(ProcId(7)))
        );
        d.abort_offload_slot(t(2), slot).unwrap();
        assert_eq!(
            d.abort_offload_slot(t(2), slot),
            Err(DeviceError::NoActiveOffload(ProcId(7)))
        );
        d.detach_slot(t(3), slot);
        assert!(!d.slot_is_live(slot));
        assert_eq!(d.slot_of(ProcId(7)), None);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn detached_slot_panics_on_destructive_use() {
        let mut d = dev();
        let mut r = rng();
        let (slot, _) = d.attach_slot(t(0), ProcId(1), 100, 60, 0, &mut r).unwrap();
        d.detach_slot(t(1), slot);
        d.detach_slot(t(2), slot);
    }

    #[test]
    fn utilization_tracks_busy_threads_and_cores() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 1000, 120, 600, &mut r).unwrap();
        // 120 threads (half the device) busy for 10 s of a 20 s window.
        d.start_offload(
            t(0),
            ProcId(1),
            120,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.finish_offload(t(10), ProcId(1)).unwrap();
        let u = d.utilization(t(20));
        assert!(
            (u.thread_util - 0.25).abs() < 1e-9,
            "thread_util {}",
            u.thread_util
        );
        // 120 threads → 30 of 60 cores for half the window → 0.25.
        assert!(
            (u.core_util - 0.25).abs() < 1e-9,
            "core_util {}",
            u.core_util
        );
        assert!((u.busy_fraction - 0.5).abs() < 1e-9);
        assert!(u.mem_util > 0.0);
    }

    #[test]
    fn energy_integrates_idle_plus_busy_cores() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 1000, 240, 0, &mut r).unwrap();
        // All 60 cores busy for 10 s of a 20 s window.
        d.start_offload(
            t(0),
            ProcId(1),
            240,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.finish_offload(t(10), ProcId(1)).unwrap();
        let e = d.energy_joules(t(20));
        // 100 W idle × 20 s + 125 W dynamic × 10 busy-seconds.
        let expect = 100.0 * 20.0 + 125.0 * 10.0;
        assert!((e - expect).abs() < 1e-6, "energy {e}, expected {expect}");
        // An idle device draws idle power only.
        let idle = PhiDevice::new(PhiConfig::default(), PerfModel::default(), SimTime::ZERO);
        assert!((idle.energy_joules(t(10)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn abort_offload_removes_without_completion() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 100, 60, 0, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            60,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.abort_offload(t(3), ProcId(1)).unwrap();
        assert_eq!(d.active_offloads(), 0);
        assert_eq!(d.offloads_completed.get(), 0);
        assert_eq!(
            d.abort_offload(t(3), ProcId(1)),
            Err(DeviceError::NoActiveOffload(ProcId(1)))
        );
    }

    #[test]
    fn reset_tears_down_everything_but_keeps_history() {
        let mut d = dev();
        let mut r = rng();
        let (s1, _) = d
            .attach_slot(t(0), ProcId(1), 1000, 120, 400, &mut r)
            .unwrap();
        d.attach(t(0), ProcId(2), 500, 60, 200, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            120,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.finish_offload(t(10), ProcId(1)).unwrap();
        d.start_offload(
            t(10),
            ProcId(2),
            60,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        let gen = d.generation();
        d.reset(t(15));
        // The card is empty: no residents, no commits, no active offloads,
        // no predicted completions.
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.committed_total_mb(), 0);
        assert_eq!(d.declared_total_mb(), 0);
        assert_eq!(d.active_offloads(), 0);
        assert!(d.next_completion().is_none());
        // Slot handles from before the reset are all stale.
        assert!(!d.slot_is_live(s1));
        // Predictions from before the reset are invalidated.
        assert!(d.generation() > gen);
        // History survives the reboot: the completed-offload counter keeps
        // its count and the card accepts new work immediately.
        assert_eq!(d.offloads_completed.get(), 1);
        d.attach(t(16), ProcId(3), 100, 60, 0, &mut r).unwrap();
        assert_eq!(d.resident_count(), 1);
    }

    #[test]
    fn detach_aborts_active_offload() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 100, 60, 50, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            60,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        d.detach(t(2), ProcId(1)).unwrap();
        assert_eq!(d.active_offloads(), 0);
        assert_eq!(d.resident_count(), 0);
    }

    #[test]
    fn errors_on_missing_process() {
        let mut d = dev();
        assert_eq!(
            d.start_offload(
                t(0),
                ProcId(9),
                60,
                SimDuration::from_secs(1),
                Affinity::Unmanaged
            ),
            Err(DeviceError::NotResident(ProcId(9)))
        );
        assert_eq!(
            d.detach(t(0), ProcId(9)),
            Err(DeviceError::NotResident(ProcId(9)))
        );
        assert_eq!(
            d.finish_offload(t(0), ProcId(9)),
            Err(DeviceError::NoActiveOffload(ProcId(9)))
        );
    }

    #[test]
    fn completion_prediction_is_stable_without_changes() {
        let mut d = dev();
        let mut r = rng();
        d.attach(t(0), ProcId(1), 100, 60, 0, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            60,
            SimDuration::from_secs(7),
            Affinity::Unmanaged,
        )
        .unwrap();
        let c1 = d.completions();
        let c2 = d.completions();
        assert_eq!(c1, c2);
    }

    #[test]
    fn pinned_accounting_survives_slot_reuse() {
        let mut d = dev();
        let mut r = rng();
        let a = CoreSet::contiguous(0, 30);
        let b = CoreSet::contiguous(30, 30);
        d.attach(t(0), ProcId(1), 100, 120, 0, &mut r).unwrap();
        d.attach(t(0), ProcId(2), 100, 120, 0, &mut r).unwrap();
        d.start_offload(
            t(0),
            ProcId(1),
            120,
            SimDuration::from_secs(5),
            Affinity::Pinned(a),
        )
        .unwrap();
        d.start_offload(
            t(0),
            ProcId(2),
            120,
            SimDuration::from_secs(5),
            Affinity::Pinned(b),
        )
        .unwrap();
        // Detach P1 (slot freed, pinned set released) and reuse the slot.
        d.detach(t(1), ProcId(1)).unwrap();
        d.attach(t(1), ProcId(3), 100, 120, 0, &mut r).unwrap();
        // P1's cores are free again; P2's are still held.
        d.start_offload(
            t(1),
            ProcId(3),
            120,
            SimDuration::from_secs(5),
            Affinity::Pinned(a),
        )
        .unwrap();
        assert_eq!(
            d.start_offload(
                t(1),
                ProcId(3),
                120,
                SimDuration::from_secs(5),
                Affinity::Pinned(b)
            ),
            Err(DeviceError::OffloadInProgress(ProcId(3)))
        );
    }
}
