//! `ReferenceCard`: a test-only specification of the paper's per-offload
//! card model (§II-C), written against the crate's public API alone.
//!
//! Residents and active offloads live in ordered maps keyed by [`ProcId`].
//! Whenever execution is integrated or a completion predicted, every active
//! offload's rate is recomputed from [`PerfModel`]'s public fields: thread
//! oversubscription `load^κ`, the unmanaged conflict term, resident-knee
//! sharing, the `min_rate` floor, then the thermal derate. There is no
//! slab, no shared rate pair and no memo, so `PhiDevice`'s bookkeeping is
//! checked against the rule itself. Every operation integrates up to `now`
//! before it changes membership, so a rate recomputed during integration is
//! the rate that held since the last change.
//!
//! Two rules the crate keeps private, the utilization signals and the
//! finish tolerance, are restated here with the same IEEE operation order.

use phishare_phi::device::DeviceUtilization;
use phishare_phi::{
    Affinity, CommitOutcome, DeviceSpec, DeviceSubstrate, PerfModel, PhiConfig, ProcId,
};
use phishare_sim::{DetRng, SimDuration, SimTime, TimeWeighted};
use std::collections::BTreeMap;

/// Remaining work (nominal ticks) a finishing offload may still hold.
const WORK_EPSILON: f64 = 1e-6;

struct Resident {
    declared_mem_mb: u64,
    declared_threads: u32,
    committed_mem_mb: u64,
}

struct Offload {
    threads: u32,
    affinity: Affinity,
    /// Nominal work left, in ticks at rate 1.
    remaining: f64,
}

/// The per-offload card model as a plain specification.
pub struct ReferenceCard {
    cfg: PhiConfig,
    perf: PerfModel,
    residents: BTreeMap<ProcId, Resident>,
    active: BTreeMap<ProcId, Offload>,
    last_update: SimTime,
    generation: u64,
    /// Thermal derate; survives a reset.
    scale: f64,
    oom_kills: u64,
    created: SimTime,
    busy_threads: TimeWeighted,
    busy_cores: TimeWeighted,
    committed: TimeWeighted,
    busy_any: TimeWeighted,
}

impl ReferenceCard {
    fn active_threads(&self) -> u32 {
        self.active.values().map(|o| o.threads).sum()
    }

    /// The paper's rate of one active offload in the card's current state.
    fn rate(&self, off: &Offload) -> f64 {
        let p = &self.perf;
        let load = self.active_threads() as f64 / self.cfg.hw_threads() as f64;
        let oversub = if load <= 1.0 {
            1.0
        } else {
            load.powf(p.oversub_exponent)
        };
        let conflict = match off.affinity {
            Affinity::Pinned(_) => 1.0,
            Affinity::Unmanaged => 1.0 + p.conflict_penalty * (self.active.len() as f64 - 1.0),
        };
        let excess = self
            .residents
            .len()
            .saturating_sub(p.resident_knee as usize) as f64;
        let sharing = 1.0 + p.resident_penalty * excess * excess;
        (1.0 / (oversub * conflict * sharing)).max(p.min_rate) * self.scale
    }

    /// Run every active offload at its rate from the last update to `now`.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            let rates: Vec<f64> = self.active.values().map(|o| self.rate(o)).collect();
            for (off, rate) in self.active.values_mut().zip(rates) {
                off.remaining = (off.remaining - rate * dt).max(0.0);
            }
            self.last_update = now;
        }
    }

    /// Membership or the derate changed: predictions go stale.
    fn reschedule(&mut self, now: SimTime) {
        self.generation += 1;
        self.record(now);
    }

    /// Restate the four utilization signals, skipping unchanged values.
    fn record(&mut self, now: SimTime) {
        let threads = self.active_threads().min(self.cfg.hw_threads()) as f64;
        // Pinned sets are pairwise disjoint (the card refuses an overlap),
        // so their union's size is the sum of their sizes; unmanaged
        // threads spread over whole cores.
        let cores: u32 = self
            .active
            .values()
            .map(|o| match o.affinity {
                Affinity::Pinned(set) => set.count(),
                Affinity::Unmanaged => o.threads.div_ceil(self.cfg.threads_per_core),
            })
            .sum();
        let cores = cores.min(self.cfg.cores) as f64;
        let committed = self.committed_total_mb() as f64;
        let busy = if self.active.is_empty() { 0.0 } else { 1.0 };
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

    fn completion(&self, off: &Offload) -> SimTime {
        let ticks = (off.remaining / self.rate(off)).ceil().max(0.0) as u64;
        self.last_update + SimDuration::from_ticks(ticks)
    }
}

impl DeviceSubstrate for ReferenceCard {
    type Handle = ProcId;

    fn create(spec: &DeviceSpec, start: SimTime) -> Self {
        spec.phi.validate().expect("invalid device configuration");
        ReferenceCard {
            cfg: spec.phi,
            perf: spec.perf,
            residents: BTreeMap::new(),
            active: BTreeMap::new(),
            last_update: start,
            generation: 0,
            scale: 1.0,
            oom_kills: 0,
            created: start,
            busy_threads: TimeWeighted::new(start),
            busy_cores: TimeWeighted::new(start),
            committed: TimeWeighted::new(start),
            busy_any: TimeWeighted::new(start),
        }
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
        self.advance_to(now);
        let resident = Resident {
            declared_mem_mb,
            declared_threads,
            committed_mem_mb: 0,
        };
        assert!(self.residents.insert(proc, resident).is_none());
        let outcome = self.commit(now, proc, initial_commit_mb, rng);
        self.reschedule(now);
        (proc, outcome)
    }

    fn detach(&mut self, now: SimTime, proc: ProcId) {
        self.advance_to(now);
        self.residents.remove(&proc).expect("a resident");
        self.active.remove(&proc);
        self.reschedule(now);
    }

    /// Past physical memory, the OOM killer draws a uniform victim over the
    /// residents in ascending-id order until the commits fit.
    fn commit(
        &mut self,
        now: SimTime,
        proc: ProcId,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> CommitOutcome {
        self.advance_to(now);
        self.residents
            .get_mut(&proc)
            .expect("a resident")
            .committed_mem_mb = total_mb;
        let mut killed = Vec::new();
        while self.committed_total_mb() > self.cfg.usable_mem_mb() {
            let n = self.residents.len();
            let victim = *self.residents.keys().nth(rng.index(n)).expect("a resident");
            self.residents.remove(&victim);
            self.active.remove(&victim);
            self.oom_kills += 1;
            killed.push(victim);
        }
        if killed.is_empty() {
            // Membership is unchanged, so no rate moved.
            self.record(now);
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
        assert!(self.residents.contains_key(&proc));
        self.advance_to(now);
        let remaining = work.ticks() as f64;
        let offload = Offload {
            threads,
            affinity,
            remaining,
        };
        assert!(self.active.insert(proc, offload).is_none());
        self.reschedule(now);
    }

    fn finish_offload(&mut self, now: SimTime, proc: ProcId) {
        self.advance_to(now);
        let off = &self.active[&proc];
        assert!(
            off.remaining <= self.rate(off) + WORK_EPSILON,
            "{proc} is not done"
        );
        self.active.remove(&proc);
        self.reschedule(now);
    }

    fn reset(&mut self, now: SimTime) {
        self.advance_to(now);
        self.residents.clear();
        self.active.clear();
        self.reschedule(now);
    }

    fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        self.advance_to(now);
        self.scale = scale;
        self.reschedule(now);
    }

    fn for_each_completion(&self, mut f: impl FnMut(ProcId, SimTime)) {
        for (&proc, off) in &self.active {
            f(proc, self.completion(off));
        }
    }

    fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        self.active
            .iter()
            .map(|(&proc, off)| (self.completion(off), proc))
            .min()
            .map(|(at, proc)| (proc, at))
    }

    fn resident_count(&self) -> usize {
        self.residents.len()
    }

    fn free_declared_mb(&self) -> u64 {
        let declared: u64 = self.residents.values().map(|r| r.declared_mem_mb).sum();
        self.cfg.usable_mem_mb().saturating_sub(declared)
    }

    fn committed_total_mb(&self) -> u64 {
        self.residents.values().map(|r| r.committed_mem_mb).sum()
    }

    fn declared_threads(&self) -> u32 {
        self.residents.values().map(|r| r.declared_threads).sum()
    }

    fn oom_kill_count(&self) -> u64 {
        self.oom_kills
    }

    /// Idle draw for the card's lifetime plus the busy-core fraction scaled
    /// toward max draw.
    fn energy_joules(&self, end: SimTime) -> f64 {
        let c = &self.cfg;
        let elapsed = end.since(self.created).as_secs_f64();
        let busy_core_seconds = self.busy_cores.integral(end);
        c.idle_watts * elapsed + (c.max_watts - c.idle_watts) * busy_core_seconds / c.cores as f64
    }

    fn utilization(&self, end: SimTime) -> DeviceUtilization {
        let c = &self.cfg;
        DeviceUtilization {
            thread_util: self.busy_threads.time_average(end) / c.hw_threads() as f64,
            core_util: self.busy_cores.time_average(end) / c.cores as f64,
            mem_util: self.committed.time_average(end) / c.usable_mem_mb() as f64,
            busy_fraction: self.busy_any.time_average(end),
        }
    }
}
