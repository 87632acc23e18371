//! The shared-throughput device: fair sharing under a pluggable
//! degradation curve, generic over the completion-tracking engine.
//!
//! [`SharedDevice`] mirrors [`PhiDevice`](crate::device::PhiDevice)'s
//! resident/offload lifecycle — declared envelopes, memory commits with
//! the ascending-id uniform OOM killer, pinned-core disjointness,
//! time-weighted utilization and the energy model — but replaces the
//! per-offload rate vector with one *shared* rate from a
//! [`SharingCurve`]: every active offload runs at the same speed, so a
//! membership change re-warps the whole population at once instead of
//! rewriting per-offload state.
//!
//! The device is generic over [`SharingEngine`], which is the whole point:
//! [`SharedThroughputDevice`] (heap-scheduled, O(log n) churn) and
//! [`NaiveSharedDevice`] (recompute-all oracle) share every line of device
//! logic, so any observable divergence between them is the engine's fault
//! — exactly what the differential proptests and the `perf_throughput`
//! bench gate rely on.

use crate::alloc::CoreSet;
use crate::config::PhiConfig;
use crate::device::{Affinity, CommitOutcome, DeviceUtilization, UtilSignals, WORK_EPSILON};
use crate::proc::ProcId;
use crate::substrate::{DeviceSpec, DeviceSubstrate};
use phishare_sim::{Counter, DetRng, SimDuration, SimTime};
use phishare_throughput::{HeapEngine, NaiveEngine, SharingCurve, SharingEngine};
use std::collections::BTreeMap;

/// The production shared-throughput device: heap-scheduled engine,
/// O(log n) join/leave/next-completion.
pub type SharedThroughputDevice = SharedDevice<HeapEngine>;

/// The differential oracle: same device logic over the naive
/// recompute-all-residents engine.
pub type NaiveSharedDevice = SharedDevice<NaiveEngine>;

/// Non-work metadata of one active offload (the engine owns the work).
#[derive(Debug, Clone, Copy)]
struct ActiveMeta {
    threads: u32,
    affinity: Affinity,
}

/// One resident process.
#[derive(Debug, Clone)]
struct SharedEntry {
    declared_mem_mb: u64,
    declared_threads: u32,
    committed_mem_mb: u64,
    active: Option<ActiveMeta>,
}

/// A fair-shared accelerator card (Phi-curve or GPU-like), driven through
/// its [`DeviceSubstrate`] impl by the same passive event-loop protocol as
/// `PhiDevice`: mutations that can change the shared rate bump the
/// generation, and completion predictions are valid only for the
/// generation they were read under.
///
/// Its handle is the [`ProcId`] itself; the engine's position index makes
/// the lookup O(log n) rather than a scan.
#[derive(Debug)]
pub struct SharedDevice<E: SharingEngine> {
    cfg: PhiConfig,
    curve: SharingCurve,
    engine: E,
    procs: BTreeMap<ProcId, SharedEntry>,
    last_update: SimTime,
    generation: u64,
    committed_total: u64,
    declared_total: u64,
    declared_threads_total: u32,
    active_threads_total: u32,
    n_active: usize,
    pinned_union: CoreSet,
    unmanaged_cores: u32,
    /// Environmental rate multiplier (thermal derate), applied to the
    /// curve's shared rate. `1.0` = nominal. Survives resets.
    rate_scale: f64,
    signals: UtilSignals,
    /// Processes killed by the OOM killer over the device's lifetime.
    pub oom_kills: Counter,
    /// Offloads that ran to completion.
    pub offloads_completed: Counter,
}

impl<E: SharingEngine> SharedDevice<E> {
    /// Create a device at simulation time `start`.
    pub fn new(cfg: PhiConfig, curve: SharingCurve, start: SimTime) -> Self {
        cfg.validate().expect("invalid device configuration");
        curve.validate().expect("invalid sharing curve");
        SharedDevice {
            cfg,
            curve,
            engine: E::new(),
            procs: BTreeMap::new(),
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
            signals: UtilSignals::new(start),
            oom_kills: Counter::new(),
            offloads_completed: Counter::new(),
        }
    }

    /// Remove `proc` from the resident set, the engine and every
    /// aggregate. Does *not* reschedule; callers decide when the shared
    /// rate refreshes. Requires the engine already advanced to "now".
    fn remove_entry(&mut self, proc: ProcId) {
        let entry = self
            .procs
            .remove(&proc)
            .unwrap_or_else(|| panic!("{proc} is not resident"));
        self.declared_total -= entry.declared_mem_mb;
        self.declared_threads_total -= entry.declared_threads;
        self.committed_total -= entry.committed_mem_mb;
        if let Some(meta) = entry.active {
            self.engine.leave(proc.0);
            self.retire_active(meta);
        }
    }

    /// Deduct one active offload's metadata from the aggregates.
    fn retire_active(&mut self, meta: ActiveMeta) {
        self.n_active -= 1;
        self.active_threads_total -= meta.threads;
        match meta.affinity {
            Affinity::Pinned(set) => {
                self.pinned_union = CoreSet::from_mask(self.pinned_union.mask() & !set.mask());
            }
            Affinity::Unmanaged => {
                self.unmanaged_cores -= self.cfg.cores_for_threads(meta.threads);
            }
        }
    }

    /// Refresh the shared rate from the degradation curve and bump the
    /// generation. Callers must have advanced to `now` first.
    fn reschedule(&mut self, now: SimTime) {
        debug_assert_eq!(self.last_update, now);
        if self.n_active > 0 {
            let mut rate = self.curve.per_activity_rate(
                self.n_active,
                self.procs.len(),
                self.active_threads_total,
                self.cfg.hw_threads(),
            );
            if self.rate_scale != 1.0 {
                rate *= self.rate_scale;
            }
            self.engine.set_rate(rate);
        }
        self.generation += 1;
        self.record_utilization(now);
    }

    /// Integrate execution progress at the current shared rate from
    /// `last_update` to `now` — one O(1) virtual-clock update regardless
    /// of how many offloads are active.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            self.engine.advance(dt);
            self.last_update = now;
        }
    }

    fn record_utilization(&mut self, now: SimTime) {
        let threads = self.active_threads_total.min(self.cfg.hw_threads()) as f64;
        let cores = self.busy_core_estimate() as f64;
        let busy = if self.n_active == 0 { 0.0 } else { 1.0 };
        self.signals
            .record(now, threads, cores, self.committed_total as f64, busy);
    }

    /// Estimated busy cores: pinned offloads occupy exactly their sets,
    /// unmanaged offloads spread over `ceil(threads/threads_per_core)`.
    fn busy_core_estimate(&self) -> u32 {
        (self.pinned_union.count() + self.unmanaged_cores).min(self.cfg.cores)
    }

    /// True when `proc` is resident.
    fn is_resident(&self, proc: ProcId) -> bool {
        self.procs.contains_key(&proc)
    }

    /// Number of active offloads.
    #[cfg(test)]
    fn active_offloads(&self) -> usize {
        self.n_active
    }
}

/// Both engines drive this one impl: every line of device logic is shared,
/// so a behavioral divergence between [`SharedThroughputDevice`] and
/// [`NaiveSharedDevice`] can only come from the engine itself — the
/// property the `perf_throughput` gate re-asserts before timing.
impl<E: SharingEngine> DeviceSubstrate for SharedDevice<E> {
    type Handle = ProcId;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        SharedDevice::new(spec.phi, spec.curve, start)
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> (ProcId, CommitOutcome) {
        assert!(!self.is_resident(proc), "{proc} is already resident");
        self.advance_to(now);
        self.procs.insert(
            proc,
            SharedEntry {
                declared_mem_mb,
                declared_threads,
                committed_mem_mb: 0,
                active: None,
            },
        );
        self.declared_total += declared_mem_mb;
        self.declared_threads_total += declared_threads;
        let outcome = self.commit(now, proc, initial_commit_mb, rng);
        // Residency changed either way (attach, possibly minus OOM
        // victims): the shared rate must refresh even when the commit fit.
        self.reschedule(now);
        (proc, outcome)
    }

    fn detach(&mut self, now: SimTime, proc: ProcId) {
        self.advance_to(now);
        self.remove_entry(proc);
        self.reschedule(now);
    }

    fn commit(
        &mut self,
        now: SimTime,
        proc: ProcId,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        let entry = self
            .procs
            .get_mut(&proc)
            .unwrap_or_else(|| panic!("{proc} is not resident"));
        self.committed_total = self.committed_total - entry.committed_mem_mb + total_mb;
        entry.committed_mem_mb = total_mb;
        self.advance_to(now);
        let mut killed = Vec::new();
        while self.committed_total > self.cfg.usable_mem_mb() {
            let n = self.procs.len();
            debug_assert!(n > 0);
            let victim = *self
                .procs
                .keys()
                .nth(rng.index(n))
                .expect("resident set is non-empty");
            self.remove_entry(victim);
            self.oom_kills.incr();
            killed.push(victim);
        }
        if killed.is_empty() {
            // Membership did not change, so the shared rate (and every
            // outstanding completion prediction) stays valid: no
            // generation bump, only the committed-memory signal moved.
            self.record_utilization(now);
            CommitOutcome::Fits
        } else {
            self.reschedule(now);
            CommitOutcome::OomKilled(killed)
        }
    }

    fn start_offload(
        &mut self,
        now: SimTime,
        proc: ProcId,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) {
        let entry = self
            .procs
            .get(&proc)
            .unwrap_or_else(|| panic!("{proc} is not resident"));
        assert!(
            entry.active.is_none(),
            "{proc} already has an active offload"
        );
        if let Affinity::Pinned(set) = affinity {
            assert!(
                set.is_disjoint(self.pinned_union),
                "pinned cores for {proc} overlap another offload"
            );
            self.pinned_union = self.pinned_union.union(set);
        } else {
            self.unmanaged_cores += self.cfg.cores_for_threads(threads);
        }
        self.advance_to(now);
        self.n_active += 1;
        self.active_threads_total += threads;
        self.engine.join(proc.0, work.ticks() as f64);
        self.procs
            .get_mut(&proc)
            .expect("entry verified resident above")
            .active = Some(ActiveMeta { threads, affinity });
        self.reschedule(now);
    }

    fn finish_offload(&mut self, now: SimTime, proc: ProcId) {
        self.advance_to(now);
        let meta = self
            .procs
            .get_mut(&proc)
            .and_then(|entry| entry.active.take())
            .unwrap_or_else(|| panic!("{proc} has no active offload"));
        let remaining = self.engine.leave(proc.0);
        debug_assert!(
            remaining <= self.engine.rate() + WORK_EPSILON,
            "finish_offload fired with {:.3} nominal ticks left (rate {:.4}): stale event?",
            remaining,
            self.engine.rate()
        );
        self.retire_active(meta);
        self.offloads_completed.incr();
        self.reschedule(now);
    }

    /// MPSS crash/restart: every resident is torn down and every active
    /// offload aborted, releasing all committed memory. Integrators and
    /// lifetime counters survive; the generation bumps so outstanding
    /// predictions go stale. The engine keeps its virtual-time warp — the
    /// warp is a coordinate system, not device state.
    fn reset(&mut self, now: SimTime) {
        self.advance_to(now);
        self.procs.clear();
        self.engine.clear();
        self.committed_total = 0;
        self.declared_total = 0;
        self.declared_threads_total = 0;
        self.active_threads_total = 0;
        self.n_active = 0;
        self.pinned_union = CoreSet::EMPTY;
        self.unmanaged_cores = 0;
        self.reschedule(now);
    }

    /// Both engines share this code, so the heap/naive pair degrades
    /// identically.
    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        debug_assert!(scale.is_finite() && scale > 0.0 && scale <= 1.0);
        self.advance_to(now);
        self.rate_scale = scale;
        self.reschedule(now);
    }

    fn for_each_completion(&self, mut f: impl FnMut(ProcId, SimTime)) {
        let base = self.last_update;
        self.engine
            .for_each_completion(|id, ticks| f(ProcId(id), base + SimDuration::from_ticks(ticks)));
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        self.engine.next_completion().map(|(id, ticks)| {
            (
                ProcId(id),
                self.last_update + SimDuration::from_ticks(ticks),
            )
        })
    }

    fn resident_count(&self) -> usize {
        self.procs.len()
    }

    fn free_declared_mb(&self) -> u64 {
        self.cfg.usable_mem_mb().saturating_sub(self.declared_total)
    }

    fn committed_total_mb(&self) -> u64 {
        self.committed_total
    }

    fn declared_threads(&self) -> u32 {
        self.declared_threads_total
    }

    fn oom_kill_count(&self) -> u64 {
        self.oom_kills.get()
    }

    fn energy_joules(&self, end: SimTime) -> f64 {
        self.signals.energy_joules(&self.cfg, end)
    }

    fn utilization(&self, end: SimTime) -> DeviceUtilization {
        self.signals.utilization(&self.cfg, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::completions;

    fn device(cfg: PhiConfig, curve: SharingCurve) -> SharedThroughputDevice {
        SharedDevice::new(cfg, curve, SimTime::ZERO)
    }

    fn phi_device() -> SharedThroughputDevice {
        device(PhiConfig::default(), SharingCurve::phi())
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn solo_offload_completes_at_nominal_time() {
        let mut d = phi_device();
        let mut r = DetRng::from_seed(1);
        let (p1, _) = d.attach(t(0), ProcId(1), 1000, 240, 500, &mut r);
        d.start_offload(t(0), p1, 240, secs(10), Affinity::Unmanaged);
        assert_eq!(d.next_completion(), Some((ProcId(1), t(10))));
        d.finish_offload(t(10), p1);
        assert_eq!(d.active_offloads(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }

    #[test]
    fn oversubscribed_offloads_share_one_degraded_rate() {
        let mut d = phi_device();
        let mut r = DetRng::from_seed(1);
        for p in 1..=2 {
            let (h, _) = d.attach(t(0), ProcId(p), 1000, 240, 100, &mut r);
            d.start_offload(t(0), h, 240, secs(10), Affinity::Unmanaged);
        }
        // 480 threads on 240 hw threads → load 2 → rate 1/8: 10 s of
        // nominal work finishes at 80 s, both offloads alike.
        assert_eq!(
            completions(&d),
            vec![(ProcId(1), t(80)), (ProcId(2), t(80))]
        );
        assert_eq!(d.next_completion(), Some((ProcId(1), t(80))));
    }

    #[test]
    fn gpu_like_device_ignores_thread_oversubscription() {
        let mut d = device(PhiConfig::gpu_like(), SharingCurve::gpu_like());
        let mut r = DetRng::from_seed(1);
        // Two kernels whose thread sum would crush a Phi run at full rate
        // on the GPU-like card (32-kernel saturation point).
        for p in 1..=2 {
            let (h, _) = d.attach(t(0), ProcId(p), 1000, 2000, 100, &mut r);
            d.start_offload(t(0), h, 2000, secs(10), Affinity::Unmanaged);
        }
        assert_eq!(d.next_completion(), Some((ProcId(1), t(10))));
    }

    #[test]
    fn oom_killer_terminates_ascending_id_victims_until_fit() {
        let mut d = phi_device();
        let mut r = DetRng::from_seed(42);
        let usable = PhiConfig::default().usable_mem_mb();
        for p in 1..=4 {
            d.attach(t(0), ProcId(p), 100, 60, usable / 4, &mut r);
        }
        // Push proc 4 over the edge: someone must die.
        let out = d.commit(t(1), ProcId(4), usable, &mut r);
        let CommitOutcome::OomKilled(victims) = out else {
            panic!("expected an OOM kill");
        };
        assert!(!victims.is_empty());
        assert_eq!(d.oom_kills.get(), victims.len() as u64);
        assert!(d.committed_total_mb() <= usable);
        assert!(victims.iter().all(|v| !d.is_resident(*v)));
    }

    #[test]
    fn reset_aborts_everything_but_keeps_counters() {
        let mut d = phi_device();
        let mut r = DetRng::from_seed(3);
        for p in 1..=3 {
            let (h, _) = d.attach(t(0), ProcId(p), 500, 120, 200, &mut r);
            d.start_offload(t(0), h, 120, secs(30), Affinity::Unmanaged);
        }
        d.reset(t(5));
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.committed_total_mb(), 0);
        assert_eq!(d.next_completion(), None);
        // The card is usable again after the crash, and the virtual-time
        // warp carried across the reset does not skew new predictions.
        let (h, _) = d.attach(t(6), ProcId(9), 500, 120, 100, &mut r);
        d.start_offload(t(6), h, 120, secs(7), Affinity::Unmanaged);
        assert_eq!(d.next_completion(), Some((ProcId(9), t(13))));
    }

    #[test]
    fn disjoint_pinned_sets_coexist() {
        let mut d = phi_device();
        let mut r = DetRng::from_seed(1);
        let (p1, _) = d.attach(t(0), ProcId(1), 100, 40, 0, &mut r);
        let (p2, _) = d.attach(t(0), ProcId(2), 100, 40, 0, &mut r);
        let a = CoreSet::contiguous(0, 10);
        let c = CoreSet::contiguous(10, 10);
        d.start_offload(t(0), p1, 40, secs(5), Affinity::Pinned(a));
        d.start_offload(t(0), p2, 40, secs(5), Affinity::Pinned(c));
        assert_eq!(d.active_offloads(), 2);
    }

    #[test]
    #[should_panic(expected = "pinned cores for coi2 overlap another offload")]
    fn overlapping_pinned_sets_panic() {
        let mut d = phi_device();
        let mut r = DetRng::from_seed(1);
        let (p1, _) = d.attach(t(0), ProcId(1), 100, 40, 0, &mut r);
        let (p2, _) = d.attach(t(0), ProcId(2), 100, 40, 0, &mut r);
        let a = CoreSet::contiguous(0, 10);
        let b = CoreSet::contiguous(5, 10);
        d.start_offload(t(0), p1, 40, secs(5), Affinity::Pinned(a));
        d.start_offload(t(0), p2, 40, secs(5), Affinity::Pinned(b));
    }

    #[test]
    #[should_panic(expected = "coi5 has no active offload")]
    fn finish_without_active_offload_panics() {
        let mut d = phi_device();
        let (p5, _) = d.attach(t(0), ProcId(5), 100, 40, 0, &mut DetRng::from_seed(1));
        d.finish_offload(t(1), p5);
    }
}
