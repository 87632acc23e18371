//! The card model: resident processes, active offloads, rate-rescaled
//! execution, oversubscription effects and utilization accounting.
//!
//! One generic [`Card`] is every slab-backed card model. It owns what they
//! all share — residency and the declared/committed/thread totals, the OOM
//! killer's victim draw, pinned-union and unmanaged-core accounting, the
//! thermal derate, the generation counter, utilization and energy, and the
//! lifetime counters — and implements [`DeviceSubstrate`] once. The models
//! differ only in how the card's load becomes execution rates, a sealed
//! rate-model trait with two implementations: [`PerfRates`], the paper's
//! pinned/unmanaged rate pair kept once per card, with each class's active
//! offloads in one table sorted by remaining work ([`PhiDevice`]), and
//! [`crate::sharing`]'s one shared rate set on a throughput engine. Every
//! operation integrates execution up to `now`, then changes membership,
//! then reshares the rates.
//!
//! Per-resident state lives in one generation-stamped slab
//! ([`phishare_sim::Slab`]): a [`ProcSlot`] handle is resolved once at
//! [`DeviceSubstrate::attach`], and every later operation is an array index.
//! A small `ProcId → ProcSlot` index, touched only when membership changes,
//! gives OOM victim draws and completion visits ascending-id order. The
//! aggregates a map-backed card would recompute by iteration are kept
//! incrementally; they are integer-valued, so they are *identical* to the
//! recomputed ones, which is what lets the lockstep proptest demand
//! bit-equal results against `ReferenceCard` (`tests/reference/`), the
//! test-only specification that recomputes every offload's rate at each
//! step.

use crate::alloc::CoreSet;
use crate::config::PhiConfig;
use crate::perf::PerfRates;
use crate::proc::ProcId;
use crate::substrate::{DeviceSpec, DeviceSubstrate};
use phishare_sim::{Counter, DetRng, SimDuration, SimTime, Slab, Slot, TimeWeighted};
use std::collections::BTreeMap;
use std::fmt;

pub(crate) use rule::RateModel;

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

/// One active (currently executing) offload: its placement and whatever
/// the rate model tracks for it.
#[derive(Debug)]
struct ActiveOffload<W> {
    threads: u32,
    affinity: Affinity,
    work: W,
}

impl<W> ActiveOffload<W> {
    fn pinned(&self) -> bool {
        matches!(self.affinity, Affinity::Pinned(_))
    }
}

/// One resident process's slab entry: envelope, commit, optional offload.
#[derive(Debug)]
struct ProcEntry<W> {
    id: ProcId,
    declared_mem_mb: u64,
    declared_threads: u32,
    committed_mem_mb: u64,
    active: Option<ActiveOffload<W>>,
}

/// Handle to a resident process, resolved once at
/// [`DeviceSubstrate::attach`] and valid until the process detaches, is
/// OOM-killed or the device resets.
///
/// Generation-stamped: a handle that outlives its process goes stale rather
/// than aliasing the slot's next tenant, and every operation through it
/// panics (see [`phishare_sim::Slab`]).
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

/// The four piecewise-constant signals behind [`DeviceUtilization`] and the
/// energy model, shared by every card model so each one integrates them
/// with the same IEEE operations.
#[derive(Debug)]
pub(crate) struct UtilSignals {
    created: SimTime,
    busy_threads: TimeWeighted,
    busy_cores: TimeWeighted,
    committed: TimeWeighted,
    busy_any: TimeWeighted,
}

impl UtilSignals {
    pub(crate) fn new(start: SimTime) -> Self {
        UtilSignals {
            created: start,
            busy_threads: TimeWeighted::new(start),
            busy_cores: TimeWeighted::new(start),
            committed: TimeWeighted::new(start),
            busy_any: TimeWeighted::new(start),
        }
    }

    /// Restate the signals at `now`. Each is piecewise constant, so
    /// re-setting an unchanged value would only restate the current
    /// segment — those updates are skipped.
    pub(crate) fn record(
        &mut self,
        now: SimTime,
        threads: f64,
        cores: f64,
        committed: f64,
        busy: f64,
    ) {
        for (signal, value) in [
            (&mut self.busy_threads, threads),
            (&mut self.busy_cores, cores),
            (&mut self.committed, committed),
            (&mut self.busy_any, busy),
        ] {
            if value != signal.value() {
                signal.set(now, value);
            }
        }
    }

    /// Energy consumed by the card from creation through `end`, in joules:
    /// idle draw for the whole interval plus the busy-core fraction scaled
    /// between idle and max draw. Backs the paper's footprint argument —
    /// fewer cards at equal makespan means proportionally less energy.
    pub(crate) fn energy_joules(&self, cfg: &PhiConfig, end: SimTime) -> f64 {
        let elapsed = end.since(self.created).as_secs_f64();
        let busy_core_seconds = self.busy_cores.integral(end);
        cfg.idle_watts * elapsed
            + (cfg.max_watts - cfg.idle_watts) * busy_core_seconds / cfg.cores as f64
    }

    /// Time-integrated utilization from device creation through `end`.
    pub(crate) fn utilization(&self, cfg: &PhiConfig, end: SimTime) -> DeviceUtilization {
        let hw = cfg.hw_threads() as f64;
        let cores = cfg.cores as f64;
        let mem = cfg.usable_mem_mb() as f64;
        DeviceUtilization {
            thread_util: self.busy_threads.time_average(end) / hw,
            core_util: self.busy_cores.time_average(end) / cores,
            mem_util: self.committed.time_average(end) / mem,
            busy_fraction: self.busy_any.time_average(end),
        }
    }
}

/// Tolerance (in nominal ticks) below which remaining work counts as done.
pub(crate) const WORK_EPSILON: f64 = 1e-6;

/// A private module seals the trait: the crate can name it, no one else.
mod rule {
    use super::*;

    /// How a card's load becomes execution rates: the one thing the card
    /// models differ in. Its two implementations are [`PerfRates`], one
    /// pinned/unmanaged rate pair per card, and
    /// [`FairShare`](crate::FairShare)'s one shared rate.
    pub trait RateModel: fmt::Debug {
        /// What an active offload keeps in its slab entry.
        type Work: fmt::Debug + 'static;

        /// The rule `spec` asks for.
        fn from_spec(spec: &DeviceSpec) -> Self;

        /// Start tracking `proc`'s offload (pinned or not) of `work`
        /// nominal ticks.
        fn join(&mut self, proc: ProcId, pinned: bool, work: f64) -> Self::Work;

        /// Stop tracking `proc`'s offload (pinned or not); returns its
        /// remaining work and its rate.
        fn leave(&mut self, proc: ProcId, pinned: bool, work: Self::Work) -> (f64, f64);

        /// Drop every tracked offload (device reset).
        fn clear(&mut self) {}

        /// Integrate `dt` wall ticks of execution at the current rates.
        fn advance(&mut self, dt: f64);

        /// Recompute the rates for `(n_active, n_resident)` offloads and
        /// residents running `(active_threads, hw_threads)`, then derate
        /// them by `scale`.
        fn reshare(&mut self, load: (usize, usize), threads: (u32, u32), scale: f64);

        /// Visit every predicted completion, as ticks after the last
        /// update, in ascending proc order (`by_id` yields each active
        /// offload's proc, pinned flag and work in that order).
        fn for_each_completion<'a>(
            &self,
            by_id: impl Iterator<Item = (ProcId, bool, &'a Self::Work)>,
            f: impl FnMut(ProcId, u64),
        );

        /// The earliest predicted completion, ties to the lowest proc.
        fn next_completion(&self) -> Option<(ProcId, u64)>;
    }
}

/// The slab-backed Xeon Phi card under the paper's [`PerfModel`](crate::PerfModel).
pub type PhiDevice = Card<PerfRates>;

/// A simulated coprocessor card under rate model `R`, driven through its
/// [`DeviceSubstrate`] impl.
#[derive(Debug)]
pub struct Card<R: RateModel> {
    cfg: PhiConfig,
    rates: R,
    /// Dense per-resident state; the only per-process storage.
    procs: Slab<ProcEntry<R::Work>>,
    /// `ProcId → slot`, touched only at attach/detach/OOM/reset. Keeps
    /// ascending-id iteration (OOM victim order, completion visits).
    index: BTreeMap<ProcId, ProcSlot>,
    last_update: SimTime,
    generation: u64,
    // Incrementally-maintained aggregates (integer-exact mirrors of the
    // reference specification's per-call recomputations).
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
    /// execution rate after the rate model. `1.0` = nominal. Survives
    /// [`DeviceSubstrate::reset`]: throttling is ambient, not card state.
    rate_scale: f64,
    signals: UtilSignals,
    /// Processes killed by the OOM killer over the device's lifetime.
    pub oom_kills: Counter,
    /// Offloads that ran to completion.
    pub offloads_completed: Counter,
}

impl<R: RateModel> Card<R> {
    /// Create a device at simulation time `start`.
    pub fn new(cfg: PhiConfig, rates: impl Into<R>, start: SimTime) -> Self {
        cfg.validate().expect("invalid device configuration");
        Card {
            cfg,
            rates: rates.into(),
            procs: Slab::with_capacity(8),
            index: BTreeMap::new(),
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

    /// True when `proc` is resident.
    pub(crate) fn is_resident(&self, proc: ProcId) -> bool {
        self.index.contains_key(&proc)
    }

    /// Number of active offloads.
    pub fn active_offloads(&self) -> usize {
        self.n_active
    }

    /// Remove `proc` from the slab, the id index, the rate model and every
    /// aggregate. Does *not* reshare; callers decide when rates refresh.
    fn remove_entry(&mut self, proc: ProcId) {
        let slot = self.index.remove(&proc).expect("proc is indexed");
        let entry = self.procs.remove(slot.0);
        self.declared_total -= entry.declared_mem_mb;
        self.declared_threads_total -= entry.declared_threads;
        self.committed_total -= entry.committed_mem_mb;
        if let Some(off) = entry.active {
            self.retire_active(proc, off);
        }
    }

    /// Stop tracking one active offload and deduct it from the incremental
    /// aggregates; returns its remaining work and rate.
    fn retire_active(&mut self, proc: ProcId, off: ActiveOffload<R::Work>) -> (f64, f64) {
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
        self.rates.leave(proc, off.pinned(), off.work)
    }

    /// The live entry at `slot`, panicking on a stale handle.
    fn entry(&self, slot: ProcSlot) -> &ProcEntry<R::Work> {
        self.procs
            .get(slot.0)
            .unwrap_or_else(|| panic!("device access through stale handle {slot}"))
    }

    /// The live entry at `slot`, mutably, panicking on a stale handle.
    fn entry_mut(&mut self, slot: ProcSlot) -> &mut ProcEntry<R::Work> {
        self.procs
            .get_mut(slot.0)
            .unwrap_or_else(|| panic!("device access through stale handle {slot}"))
    }

    /// Integrate execution progress at the current rates from
    /// `last_update` to `now`.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            self.rates.advance(dt);
            self.last_update = now;
        }
    }

    /// Refresh every rate from the new membership and bump the
    /// generation. Callers must have advanced to `now` first.
    fn reschedule(&mut self, now: SimTime) {
        debug_assert_eq!(self.last_update, now);
        let load = (self.n_active, self.procs.len());
        let threads = (self.active_threads_total, self.cfg.hw_threads());
        self.rates.reshare(load, threads, self.rate_scale);
        self.generation += 1;
        self.record_utilization(now);
    }

    fn record_utilization(&mut self, now: SimTime) {
        let threads = self.active_threads_total.min(self.cfg.hw_threads()) as f64;
        // Pinned offloads occupy exactly their core sets; unmanaged ones
        // spread over `ceil(threads/4)` cores. Capped at the core count.
        let cores = (self.pinned_union.count() + self.unmanaged_cores).min(self.cfg.cores) as f64;
        let busy = if self.n_active == 0 { 0.0 } else { 1.0 };
        self.signals
            .record(now, threads, cores, self.committed_total as f64, busy);
    }
}

impl<R: RateModel> DeviceSubstrate for Card<R> {
    type Handle = ProcSlot;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        Card::new(spec.phi, R::from_spec(spec), start)
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
    ) -> (ProcSlot, CommitOutcome) {
        assert!(!self.is_resident(proc), "{proc} is already resident");
        self.advance_to(now);
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
        let outcome = self.commit(now, slot, initial_commit_mb, rng);
        // Residency changed either way (attach, possibly minus OOM
        // victims): rates must be refreshed even when the commit fit.
        self.reschedule(now);
        (slot, outcome)
    }

    fn detach(&mut self, now: SimTime, slot: ProcSlot) {
        self.advance_to(now);
        let proc = self.entry(slot).id;
        self.remove_entry(proc);
        self.reschedule(now);
    }

    fn commit(
        &mut self,
        now: SimTime,
        slot: ProcSlot,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        self.advance_to(now);
        let entry = self.entry_mut(slot);
        let prior = std::mem::replace(&mut entry.committed_mem_mb, total_mb);
        self.committed_total = self.committed_total - prior + total_mb;
        let mut killed = Vec::new();
        while self.committed_total > self.cfg.usable_mem_mb() {
            // Uniform victim over residents in ascending-id order — the
            // exact index stream the reference specification draws.
            let n = self.index.len();
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
            // Rates depend only on membership, which an in-bounds commit
            // leaves untouched: issued predictions stay valid, so no
            // generation bump. (The advance re-anchors `last_update`, so a
            // prediction *recomputed* now can land a rounding tick away from
            // the issued one — the runtime never re-syncs in a generation.)
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
        slot: ProcSlot,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) {
        let entry = self.entry(slot);
        let proc = entry.id;
        assert!(
            entry.active.is_none(),
            "{proc} already has an active offload"
        );
        if let Affinity::Pinned(set) = affinity {
            // Active pinned sets are pairwise disjoint, so overlapping any
            // of them is overlapping their union: one mask test replaces
            // a scan over every active offload.
            assert!(
                set.is_disjoint(self.pinned_union),
                "pinned cores for {proc} overlap another offload"
            );
            self.pinned_union = self.pinned_union.union(set);
        } else {
            self.unmanaged_cores += self.cfg.cores_for_threads(threads);
        }
        // Integrate first: the idle gap since the last update is not the
        // new offload's progress.
        self.advance_to(now);
        self.n_active += 1;
        self.active_threads_total += threads;
        let work = self
            .rates
            .join(proc, affinity != Affinity::Unmanaged, work.ticks() as f64);
        self.entry_mut(slot).active = Some(ActiveOffload {
            threads,
            affinity,
            work,
        });
        self.reschedule(now);
    }

    fn finish_offload(&mut self, now: SimTime, slot: ProcSlot) {
        self.advance_to(now);
        let entry = self.entry_mut(slot);
        let proc = entry.id;
        let off = entry
            .active
            .take()
            .unwrap_or_else(|| panic!("{proc} has no active offload"));
        let (remaining, rate) = self.retire_active(proc, off);
        debug_assert!(
            remaining <= rate + WORK_EPSILON,
            "finish_offload fired with {remaining:.3} nominal ticks left (rate {rate:.4}): stale event?"
        );
        self.offloads_completed.incr();
        self.reschedule(now);
    }

    /// MPSS crash/restart: every resident COI process is torn down and
    /// every active offload aborted in one stroke, releasing all committed
    /// memory. Utilization integrators and lifetime counters survive —
    /// the card is the same card after the reboot — and the generation
    /// bumps so every outstanding completion prediction goes stale.
    fn reset(&mut self, now: SimTime) {
        self.advance_to(now);
        self.procs.clear();
        self.index.clear();
        self.rates.clear();
        self.committed_total = 0;
        self.declared_total = 0;
        self.declared_threads_total = 0;
        self.active_threads_total = 0;
        self.n_active = 0;
        self.pinned_union = CoreSet::EMPTY;
        self.unmanaged_cores = 0;
        self.reschedule(now);
    }

    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        debug_assert!(scale.is_finite() && scale > 0.0 && scale <= 1.0);
        self.advance_to(now);
        self.rate_scale = scale;
        self.reschedule(now);
    }

    fn for_each_completion(&self, mut f: impl FnMut(ProcId, SimTime)) {
        let by_id = self.index.values().filter_map(|slot| {
            let entry = self.entry(*slot);
            let off = entry.active.as_ref()?;
            Some((entry.id, off.pinned(), &off.work))
        });
        self.rates.for_each_completion(by_id, |proc, ticks| {
            f(proc, self.last_update + SimDuration::from_ticks(ticks))
        });
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        self.rates
            .next_completion()
            .map(|(proc, ticks)| (proc, self.last_update + SimDuration::from_ticks(ticks)))
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

/// Every predicted completion, collected in visit order.
#[cfg(test)]
pub(crate) fn completions<D: DeviceSubstrate>(d: &D) -> Vec<(ProcId, SimTime)> {
    let mut v = Vec::new();
    d.for_each_completion(|p, at| v.push((p, at)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerfModel;

    fn dev() -> PhiDevice {
        PhiDevice::new(PhiConfig::default(), PerfModel::default(), SimTime::ZERO)
    }

    fn rng() -> DetRng {
        DetRng::from_seed(1)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// Attach `proc` at time zero with no initial commit.
    fn attach(d: &mut PhiDevice, proc: u64, mem_mb: u64, threads: u32) -> ProcSlot {
        let (slot, out) = d.attach(t(0), ProcId(proc), mem_mb, threads, 0, &mut rng());
        assert_eq!(out, CommitOutcome::Fits);
        slot
    }

    #[test]
    fn attach_commit_detach_accounting() {
        let mut d = dev();
        let mut r = rng();
        let (p1, out) = d.attach(t(0), ProcId(1), 1000, 120, 400, &mut r);
        assert_eq!(out, CommitOutcome::Fits);
        assert_eq!(d.committed_total_mb(), 400);
        assert_eq!(d.free_declared_mb(), 7680 - 1000);
        assert_eq!(d.declared_threads(), 120);
        d.detach(t(1), p1);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.committed_total_mb(), 0);
    }

    #[test]
    #[should_panic(expected = "coi1 is already resident")]
    fn double_attach_panics() {
        let mut d = dev();
        attach(&mut d, 1, 100, 60);
        attach(&mut d, 1, 100, 60);
    }

    #[test]
    fn solo_offload_completes_at_nominal_time() {
        let mut d = dev();
        let p1 = attach(&mut d, 1, 1000, 240);
        d.start_offload(t(0), p1, 240, secs(10), Affinity::Unmanaged);
        assert_eq!(completions(&d), vec![(ProcId(1), t(10))]);
        d.finish_offload(t(10), p1);
        assert_eq!(d.active_offloads(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }

    #[test]
    fn oversubscribed_offloads_slow_down_8x() {
        let mut d = dev();
        for p in 1..=2 {
            let slot = attach(&mut d, p, 1000, 240);
            d.start_offload(t(0), slot, 240, secs(10), Affinity::Unmanaged);
        }
        // 480 threads on 240 hw → load 2 → rate 1/(8 oversub × 1.15
        // conflict); two residents sit below the sharing knee.
        let expect_secs = 10.0 * 8.0 * 1.15;
        for (_, ct) in completions(&d) {
            assert!(
                (ct.as_secs_f64() - expect_secs).abs() < 0.01,
                "completion at {ct}, expected ≈{expect_secs}s"
            );
        }
    }

    #[test]
    fn pinned_offloads_overlap_at_full_rate_below_knee() {
        let mut d = dev();
        let a = CoreSet::contiguous(0, 30);
        let b = CoreSet::contiguous(30, 30);
        for (p, set) in [(1u64, a), (2u64, b)] {
            let slot = attach(&mut d, p, 1000, 120);
            d.start_offload(t(0), slot, 120, secs(10), Affinity::Pinned(set));
        }
        // No core conflict, no oversubscription, residents below the knee:
        // both offloads run at full rate concurrently.
        for (_, ct) in completions(&d) {
            assert_eq!(ct, t(10));
        }
    }

    #[test]
    fn solo_pinned_offload_runs_at_full_rate() {
        let mut d = dev();
        let p1 = attach(&mut d, 1, 1000, 120);
        let pinned = Affinity::Pinned(CoreSet::contiguous(0, 30));
        d.start_offload(t(0), p1, 120, secs(10), pinned);
        assert_eq!(completions(&d), vec![(ProcId(1), t(10))]);
    }

    #[test]
    #[should_panic(expected = "pinned cores for coi2 overlap another offload")]
    fn overlapping_pinned_sets_panic() {
        let mut d = dev();
        let p1 = attach(&mut d, 1, 1000, 120);
        let p2 = attach(&mut d, 2, 1000, 120);
        let a = CoreSet::contiguous(0, 30);
        let overlapping = CoreSet::contiguous(20, 30);
        d.start_offload(t(0), p1, 120, secs(5), Affinity::Pinned(a));
        d.start_offload(t(0), p2, 120, secs(5), Affinity::Pinned(overlapping));
    }

    #[test]
    #[should_panic(expected = "coi7 already has an active offload")]
    fn start_while_active_panics() {
        let mut d = dev();
        let p7 = attach(&mut d, 7, 1000, 120);
        d.start_offload(t(1), p7, 120, secs(10), Affinity::Unmanaged);
        d.start_offload(t(1), p7, 120, secs(10), Affinity::Unmanaged);
    }

    #[test]
    #[should_panic(expected = "coi9 has no active offload")]
    fn finish_without_active_offload_panics() {
        let mut d = dev();
        let p9 = attach(&mut d, 9, 100, 60);
        d.finish_offload(t(0), p9);
    }

    #[test]
    fn rate_change_mid_offload_integrates_progress() {
        let mut d = dev();
        let p1 = attach(&mut d, 1, 1000, 240);
        let p2 = attach(&mut d, 2, 1000, 240);
        // P1 runs alone for 5 s at full rate (two residents, below knee).
        d.start_offload(t(0), p1, 240, secs(10), Affinity::Unmanaged);
        // P2's offload joins at t=5: both now oversubscribed (load 2 → ×8)
        // and conflicting (×1.15).
        d.start_offload(t(5), p2, 240, secs(10), Affinity::Unmanaged);
        let p1_at = completions(&d)[0].1;
        // Remaining 5 s of nominal work at rate 1/9.2 → 46 s more.
        assert!(
            (p1_at.as_secs_f64() - (5.0 + 5.0 * 9.2)).abs() < 0.05,
            "P1 completion {p1_at}"
        );
    }

    #[test]
    fn generation_bumps_on_membership_changes() {
        let mut d = dev();
        let g0 = d.generation();
        let p1 = attach(&mut d, 1, 100, 60);
        let g1 = d.generation();
        assert!(g1 > g0);
        d.start_offload(t(0), p1, 60, secs(1), Affinity::Unmanaged);
        assert!(d.generation() > g1);
    }

    #[test]
    fn next_completion_matches_earliest_prediction() {
        let mut d = dev();
        assert_eq!(d.next_completion(), None);
        for (p, s) in [(1u64, 30), (2, 10), (3, 20)] {
            let slot = attach(&mut d, p, 500, 60);
            d.start_offload(t(0), slot, 60, secs(s), Affinity::Unmanaged);
        }
        let next = d.next_completion().unwrap();
        let earliest = completions(&d)
            .into_iter()
            .min_by_key(|&(p, at)| (at, p))
            .unwrap();
        assert_eq!(next, earliest);
        assert_eq!(next.0, ProcId(2));
    }

    #[test]
    fn next_completion_ties_break_to_lowest_proc() {
        let mut d = dev();
        for p in [5u64, 2, 9] {
            let slot = attach(&mut d, p, 500, 60);
            d.start_offload(t(0), slot, 60, secs(10), Affinity::Unmanaged);
        }
        // All three predictions coincide; the lowest ProcId wins — the
        // first minimum by (time, proc).
        assert_eq!(d.next_completion().unwrap().0, ProcId(2));
    }

    #[test]
    fn in_bounds_commit_preserves_generation_and_predictions() {
        let mut d = dev();
        let mut r = rng();
        let p1 = attach(&mut d, 1, 2000, 60);
        d.start_offload(t(0), p1, 60, secs(10), Affinity::Unmanaged);
        let g = d.generation();
        let before = d.next_completion();
        // A commit that fits changes no execution rate: the pending
        // completion event must stay valid (no generation bump).
        assert_eq!(d.commit(t(2), p1, 1500, &mut r), CommitOutcome::Fits);
        assert_eq!(d.generation(), g);
        assert_eq!(d.next_completion(), before);
        assert_eq!(d.committed_total_mb(), 1500);
    }

    #[test]
    fn completions_are_visited_in_ascending_proc_order() {
        let mut d = dev();
        for (p, s) in [(4u64, 30), (1, 10), (3, 20)] {
            let slot = attach(&mut d, p, 500, 60);
            d.start_offload(t(0), slot, 60, secs(s), Affinity::Unmanaged);
        }
        let procs: Vec<ProcId> = completions(&d).iter().map(|&(p, _)| p).collect();
        assert_eq!(procs, vec![ProcId(1), ProcId(3), ProcId(4)]);
    }

    #[test]
    fn oom_killer_terminates_random_victims_until_fit() {
        let mut d = dev();
        let mut r = rng();
        // Three processes each committing 3000 MB: 9000 > 7680 usable.
        d.attach(t(0), ProcId(1), 3000, 60, 3000, &mut r);
        d.attach(t(0), ProcId(2), 3000, 60, 3000, &mut r);
        let (_, out) = d.attach(t(0), ProcId(3), 3000, 60, 3000, &mut r);
        match out {
            CommitOutcome::OomKilled(victims) => {
                assert_eq!(victims.len(), 1);
                assert_eq!(d.resident_count(), 2);
                assert!(d.committed_total_mb() <= PhiConfig::default().usable_mem_mb());
                assert_eq!(d.oom_kills.get(), 1);
            }
            CommitOutcome::Fits => panic!("expected an OOM kill"),
        }
    }

    #[test]
    fn oom_victim_offload_is_aborted() {
        let mut d = dev();
        let mut r = rng();
        let (p1, _) = d.attach(t(0), ProcId(1), 7000, 240, 7000, &mut r);
        d.start_offload(t(0), p1, 240, secs(100), Affinity::Unmanaged);
        let (p2, _) = d.attach(t(1), ProcId(2), 7000, 240, 0, &mut r);
        // P2 commits 7000 MB → 14000 > 7680 → someone dies.
        let CommitOutcome::OomKilled(victims) = d.commit(t(1), p2, 7000, &mut r) else {
            panic!("expected an OOM kill");
        };
        assert_eq!(victims.len(), 1);
        assert!(!d.is_resident(victims[0]));
        if victims[0] == ProcId(1) {
            assert_eq!(d.active_offloads(), 0, "the victim's offload is aborted");
        }
        assert!(d.committed_total_mb() <= 7680);
    }

    #[test]
    fn oom_survivor_handle_drives_the_full_lifecycle() {
        let mut d = dev();
        let mut r = rng();
        let (s1, _) = d.attach(t(0), ProcId(1), 7000, 60, 7000, &mut r);
        let (s2, out) = d.attach(t(0), ProcId(2), 7000, 60, 7000, &mut r);
        let CommitOutcome::OomKilled(victims) = out else {
            panic!("expected an OOM kill");
        };
        assert_eq!(victims.len(), 1);
        assert!(!d.is_resident(victims[0]));
        let live = if victims[0] == ProcId(1) { s2 } else { s1 };
        d.start_offload(t(1), live, 60, secs(5), Affinity::Unmanaged);
        d.finish_offload(t(6), live);
        d.detach(t(6), live);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn detached_slot_panics_on_destructive_use() {
        let mut d = dev();
        let slot = attach(&mut d, 1, 100, 60);
        d.detach(t(1), slot);
        d.detach(t(2), slot);
    }

    #[test]
    fn utilization_tracks_busy_threads_and_cores() {
        let mut d = dev();
        let mut r = rng();
        let (p1, _) = d.attach(t(0), ProcId(1), 1000, 120, 600, &mut r);
        // 120 threads (half the device) busy for 10 s of a 20 s window.
        d.start_offload(t(0), p1, 120, secs(10), Affinity::Unmanaged);
        d.finish_offload(t(10), p1);
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
        let p1 = attach(&mut d, 1, 1000, 240);
        // All 60 cores busy for 10 s of a 20 s window.
        d.start_offload(t(0), p1, 240, secs(10), Affinity::Unmanaged);
        d.finish_offload(t(10), p1);
        let e = d.energy_joules(t(20));
        // 100 W idle × 20 s + 125 W dynamic × 10 busy-seconds.
        let expect = 100.0 * 20.0 + 125.0 * 10.0;
        assert!((e - expect).abs() < 1e-6, "energy {e}, expected {expect}");
        // An idle device draws idle power only.
        assert!((dev().energy_joules(t(10)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn reset_tears_down_everything_but_keeps_history() {
        let mut d = dev();
        let mut r = rng();
        let (p1, _) = d.attach(t(0), ProcId(1), 1000, 120, 400, &mut r);
        let (p2, _) = d.attach(t(0), ProcId(2), 500, 60, 200, &mut r);
        d.start_offload(t(0), p1, 120, secs(10), Affinity::Unmanaged);
        d.finish_offload(t(10), p1);
        d.start_offload(t(10), p2, 60, secs(10), Affinity::Unmanaged);
        let gen = d.generation();
        d.reset(t(15));
        // The card is empty: no residents, no commits, no active offloads,
        // no predicted completions.
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.committed_total_mb(), 0);
        assert_eq!(d.free_declared_mb(), 7680);
        assert_eq!(d.active_offloads(), 0);
        assert!(d.next_completion().is_none());
        assert!(!d.is_resident(ProcId(1)));
        // Predictions from before the reset are invalidated.
        assert!(d.generation() > gen);
        // History survives the reboot: the completed-offload counter keeps
        // its count and the card accepts new work immediately.
        assert_eq!(d.offloads_completed.get(), 1);
        d.attach(t(16), ProcId(3), 100, 60, 0, &mut r);
        assert_eq!(d.resident_count(), 1);
    }

    #[test]
    fn detach_aborts_active_offload() {
        let mut d = dev();
        let mut r = rng();
        let (p1, _) = d.attach(t(0), ProcId(1), 100, 60, 50, &mut r);
        d.start_offload(t(0), p1, 60, secs(10), Affinity::Unmanaged);
        d.detach(t(2), p1);
        assert_eq!(d.active_offloads(), 0);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.offloads_completed.get(), 0);
    }

    #[test]
    fn completion_prediction_is_stable_without_changes() {
        let mut d = dev();
        let p1 = attach(&mut d, 1, 100, 60);
        d.start_offload(t(0), p1, 60, secs(7), Affinity::Unmanaged);
        assert_eq!(completions(&d), completions(&d));
    }

    #[test]
    fn pinned_accounting_survives_slot_reuse() {
        let mut d = dev();
        let a = CoreSet::contiguous(0, 30);
        let b = CoreSet::contiguous(30, 30);
        let p1 = attach(&mut d, 1, 100, 120);
        let p2 = attach(&mut d, 2, 100, 120);
        d.start_offload(t(0), p1, 120, secs(5), Affinity::Pinned(a));
        d.start_offload(t(0), p2, 120, secs(5), Affinity::Pinned(b));
        // Detach P1 (slot freed, pinned set released) and reuse the slot:
        // P1's cores are free again (an overlap would panic), P2's are
        // still held.
        d.detach(t(1), p1);
        let (p3, _) = d.attach(t(1), ProcId(3), 100, 120, 0, &mut rng());
        d.start_offload(t(1), p3, 120, secs(5), Affinity::Pinned(a));
        assert_eq!(d.active_offloads(), 2);
    }
}
