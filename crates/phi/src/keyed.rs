//! The map-backed device substrate, retained as a differential oracle.
//!
//! [`KeyedPhiDevice`] is the seed's `BTreeMap`-keyed implementation of the
//! device model, preserved verbatim when the production
//! [`PhiDevice`](crate::PhiDevice) moved to generation-stamped slab storage.
//! It exists so the substrate fast path can never drift silently: the
//! cluster runtime compiles against both (`SubstrateMode::Keyed`), and the
//! differential proptests assert bit-identical `ExperimentResult`s and
//! traces between them — the same discipline as the per-offload event
//! oracle (`Experiment::per_offload_events`) and the naive serial planner.
//!
//! Do not optimize this module. Its cost model *is* the keyed-substrate
//! floor the `perf_e2e` bench gate measures against.

use crate::alloc::CoreSet;
use crate::config::PhiConfig;
use crate::device::{Affinity, CommitOutcome, DeviceUtilization, UtilSignals, WORK_EPSILON};
use crate::perf::PerfModel;
use crate::proc::{ProcId, Resident};
use crate::substrate::{DeviceSpec, DeviceSubstrate};
use phishare_sim::{Counter, DetRng, SimDuration, SimTime};
use std::collections::BTreeMap;

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

/// The seed's map-backed simulated Xeon Phi card (differential oracle).
///
/// Keyed by [`ProcId`] throughout — its [`DeviceSubstrate::Handle`] is the
/// id itself, so every operation pays the `BTreeMap` lookup the slab
/// device resolved away. See the module docs for why this is kept.
#[derive(Debug)]
pub struct KeyedPhiDevice {
    cfg: PhiConfig,
    perf: PerfModel,
    procs: BTreeMap<ProcId, Resident>,
    active: BTreeMap<ProcId, ActiveOffload>,
    last_update: SimTime,
    generation: u64,
    /// Environmental rate multiplier (thermal derate); `1.0` = nominal.
    rate_scale: f64,
    signals: UtilSignals,
    /// Processes killed by the OOM killer over the device's lifetime.
    pub oom_kills: Counter,
    /// Offloads that ran to completion.
    pub offloads_completed: Counter,
}

impl KeyedPhiDevice {
    /// Create a device at simulation time `start`.
    pub(crate) fn new(cfg: PhiConfig, perf: PerfModel, start: SimTime) -> Self {
        cfg.validate().expect("invalid device configuration");
        KeyedPhiDevice {
            cfg,
            perf,
            procs: BTreeMap::new(),
            active: BTreeMap::new(),
            last_update: start,
            generation: 0,
            rate_scale: 1.0,
            signals: UtilSignals::new(start),
            oom_kills: Counter::new(),
            offloads_completed: Counter::new(),
        }
    }

    /// Integrate execution progress up to `now` and refresh all rates,
    /// bumping the generation.
    fn reschedule(&mut self, now: SimTime) {
        self.advance_to(now);
        let n_active = self.active.len();
        let n_resident = self.procs.len();
        let active_threads = self.active_threads();
        let hw = self.cfg.hw_threads();
        let perf = self.perf;
        perf.reshare_rates(
            n_active,
            n_resident,
            active_threads,
            hw,
            self.active
                .values_mut()
                .map(|off| (matches!(off.affinity, Affinity::Pinned(_)), &mut off.rate)),
        );
        if self.rate_scale != 1.0 {
            for off in self.active.values_mut() {
                off.rate *= self.rate_scale;
            }
        }
        self.generation += 1;
        self.record_utilization(now);
    }

    /// Integrate remaining work at current rates from `last_update` to `now`.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            for off in self.active.values_mut() {
                off.remaining = (off.remaining - off.rate * dt).max(0.0);
            }
            self.last_update = now;
        }
    }

    fn record_utilization(&mut self, now: SimTime) {
        let threads = self.active_threads().min(self.cfg.hw_threads()) as f64;
        let cores = self.busy_core_estimate() as f64;
        let committed = self.committed_total_mb() as f64;
        let busy = if self.active.is_empty() { 0.0 } else { 1.0 };
        self.signals.record(now, threads, cores, committed, busy);
    }

    fn busy_core_estimate(&self) -> u32 {
        let mut pinned_union = CoreSet::EMPTY;
        let mut unmanaged_cores = 0u32;
        for off in self.active.values() {
            match off.affinity {
                Affinity::Pinned(set) => pinned_union = pinned_union.union(set),
                Affinity::Unmanaged => {
                    unmanaged_cores += self.cfg.cores_for_threads(off.threads);
                }
            }
        }
        (pinned_union.count() + unmanaged_cores).min(self.cfg.cores)
    }

    /// Resident process ids in ascending order, without allocating.
    fn resident_ids_iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.procs.keys().copied()
    }

    /// Sum of declared memory over resident processes (MB).
    fn declared_total_mb(&self) -> u64 {
        self.procs.values().map(|r| r.declared_mem_mb).sum()
    }

    /// Thread sum over *active* offloads.
    fn active_threads(&self) -> u32 {
        self.active.values().map(|o| o.threads).sum()
    }
}

impl DeviceSubstrate for KeyedPhiDevice {
    type Handle = ProcId;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        KeyedPhiDevice::new(spec.phi, spec.perf, start)
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
        assert!(
            !self.procs.contains_key(&proc),
            "{proc} is already resident"
        );
        self.procs.insert(
            proc,
            Resident {
                declared_mem_mb,
                declared_threads,
                committed_mem_mb: 0,
            },
        );
        let outcome = self.commit(now, proc, initial_commit_mb, rng);
        // Residency changed either way (attach, possibly minus OOM
        // victims): rates must be refreshed even when the commit fit.
        self.reschedule(now);
        (proc, outcome)
    }

    fn detach(&mut self, now: SimTime, proc: ProcId) {
        assert!(self.procs.contains_key(&proc), "{proc} is not resident");
        self.active.remove(&proc);
        self.procs.remove(&proc);
        self.reschedule(now);
    }

    fn commit(
        &mut self,
        now: SimTime,
        proc: ProcId,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        self.procs
            .get_mut(&proc)
            .unwrap_or_else(|| panic!("{proc} is not resident"))
            .committed_mem_mb = total_mb;
        let mut killed = Vec::new();
        while self.committed_total_mb() > self.cfg.usable_mem_mb() {
            let n = self.procs.len();
            debug_assert!(n > 0);
            // Uniform victim without materializing the id list (draws the
            // same index stream `choose` over a collected Vec would).
            let victim = self
                .resident_ids_iter()
                .nth(rng.index(n))
                .expect("resident set is non-empty");
            self.active.remove(&victim);
            self.procs.remove(&victim);
            self.oom_kills.incr();
            killed.push(victim);
        }
        if killed.is_empty() {
            // In-bounds commit: no rate change, no generation bump (see the
            // slab device's `commit` for the full contract).
            self.advance_to(now);
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
        assert!(self.procs.contains_key(&proc), "{proc} is not resident");
        assert!(
            !self.active.contains_key(&proc),
            "{proc} already has an active offload"
        );
        if let Affinity::Pinned(set) = affinity {
            for off in self.active.values() {
                if let Affinity::Pinned(existing) = off.affinity {
                    assert!(
                        set.is_disjoint(existing),
                        "pinned cores for {proc} overlap another offload"
                    );
                }
            }
        }
        // Integrate first: the idle gap since the last update is not the
        // new offload's progress.
        self.advance_to(now);
        self.active.insert(
            proc,
            ActiveOffload {
                threads,
                remaining: work.ticks() as f64,
                rate: 1.0,
                affinity,
            },
        );
        self.reschedule(now);
    }

    fn finish_offload(&mut self, now: SimTime, proc: ProcId) {
        self.advance_to(now);
        let off = self
            .active
            .get(&proc)
            .unwrap_or_else(|| panic!("{proc} has no active offload"));
        debug_assert!(
            off.remaining <= off.rate + WORK_EPSILON,
            "finish_offload fired with {:.3} nominal ticks left (rate {:.4}): stale event?",
            off.remaining,
            off.rate
        );
        self.active.remove(&proc);
        self.offloads_completed.incr();
        self.reschedule(now);
    }

    fn reset(&mut self, now: SimTime) {
        self.active.clear();
        self.procs.clear();
        self.reschedule(now);
    }

    /// Mirrors the slab device's derate (same IEEE operations, so
    /// timelines stay bit-identical).
    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        debug_assert!(scale.is_finite() && scale > 0.0 && scale <= 1.0);
        self.rate_scale = scale;
        self.reschedule(now);
    }

    fn for_each_completion(&self, mut f: impl FnMut(ProcId, SimTime)) {
        // The seed's per-offload scheduling API: one fresh Vec per call.
        let completions: Vec<(ProcId, SimTime)> = self
            .active
            .iter()
            .map(|(proc, off)| {
                let dt = (off.remaining / off.rate).ceil().max(0.0) as u64;
                (*proc, self.last_update + SimDuration::from_ticks(dt))
            })
            .collect();
        for (proc, at) in completions {
            f(proc, at);
        }
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        let mut best: Option<(ProcId, SimTime)> = None;
        for (proc, off) in &self.active {
            let dt = (off.remaining / off.rate).ceil().max(0.0) as u64;
            let at = self.last_update + SimDuration::from_ticks(dt);
            if best.map(|(_, b)| at < b).unwrap_or(true) {
                best = Some((*proc, at));
            }
        }
        best
    }

    fn resident_count(&self) -> usize {
        self.procs.len()
    }

    fn free_declared_mb(&self) -> u64 {
        self.cfg
            .usable_mem_mb()
            .saturating_sub(self.declared_total_mb())
    }

    fn committed_total_mb(&self) -> u64 {
        self.procs.values().map(|r| r.committed_mem_mb).sum()
    }

    fn declared_threads(&self) -> u32 {
        self.procs.values().map(|r| r.declared_threads).sum()
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

    #[test]
    fn keyed_device_basic_lifecycle() {
        let mut d = KeyedPhiDevice::new(PhiConfig::default(), PerfModel::default(), SimTime::ZERO);
        let mut r = DetRng::from_seed(1);
        let t0 = SimTime::ZERO;
        let (p1, out) = d.attach(t0, ProcId(1), 1000, 120, 400, &mut r);
        assert_eq!(out, CommitOutcome::Fits);
        d.start_offload(t0, p1, 120, SimDuration::from_secs(10), Affinity::Unmanaged);
        assert_eq!(d.next_completion().unwrap().0, ProcId(1));
        d.finish_offload(SimTime::from_secs(10), p1);
        d.detach(SimTime::from_secs(10), p1);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }

    #[test]
    #[should_panic(expected = "coi3 is not resident")]
    fn acting_on_a_non_resident_panics() {
        let mut d = KeyedPhiDevice::new(PhiConfig::default(), PerfModel::default(), SimTime::ZERO);
        d.detach(SimTime::ZERO, ProcId(3));
    }
}
