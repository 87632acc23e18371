//! The fair-share rate rule: every active offload runs at one rate from a
//! pluggable degradation curve, so a membership change re-warps the whole
//! population at once instead of rewriting per-offload state. A
//! shared-throughput device is the one card model of [`crate::device`]
//! under [`FairShare`] instead of the per-offload
//! [`PerfModel`](crate::PerfModel).
//!
//! The rule is generic over [`SharingEngine`]: [`SharedThroughputDevice`]
//! (heap-scheduled, O(log n) churn) and [`NaiveSharedDevice`]
//! (recompute-all oracle) share every line of device logic, so any
//! observable divergence between them is the engine's fault — what the
//! differential proptests and the `perf_throughput` bench gate rely on.

use crate::device::{Card, RateModel};
use crate::proc::ProcId;
use crate::substrate::DeviceSpec;
use phishare_throughput::{HeapEngine, NaiveEngine, SharingCurve, SharingEngine};

/// The production shared-throughput device: heap-scheduled engine,
/// O(log n) join/leave/next-completion.
pub type SharedThroughputDevice = Card<FairShare<HeapEngine>>;

/// The differential oracle: same device logic over the naive
/// recompute-all-residents engine.
pub type NaiveSharedDevice = Card<FairShare<NaiveEngine>>;

/// Fair sharing under a [`SharingCurve`]: the engine tracks every active
/// offload's work against one shared rate, and an active offload keeps
/// only the engine handle its join issued in its slab entry.
#[derive(Debug)]
pub struct FairShare<E> {
    curve: SharingCurve,
    engine: E,
}

impl<E: SharingEngine> RateModel for FairShare<E> {
    type Work = E::Handle;

    fn from_spec(spec: &DeviceSpec) -> Self {
        spec.curve.validate().expect("invalid sharing curve");
        FairShare {
            curve: spec.curve,
            engine: E::new(),
        }
    }

    fn join(&mut self, proc: ProcId, _: bool, work: f64) -> E::Handle {
        self.engine.join(proc.0, work)
    }

    fn leave(&mut self, _: ProcId, _: bool, handle: E::Handle) -> (f64, f64) {
        (self.engine.leave(handle), self.engine.rate())
    }

    /// The engine keeps its virtual-time warp — the warp is a coordinate
    /// system, not device state.
    fn clear(&mut self) {
        self.engine.clear();
    }

    /// One O(1) virtual-clock update regardless of how many offloads are
    /// active.
    fn advance(&mut self, dt: f64) {
        self.engine.advance(dt);
    }

    fn reshare(
        &mut self,
        (n_active, n_resident): (usize, usize),
        (active_threads, hw_threads): (u32, u32),
        scale: f64,
    ) {
        if n_active > 0 {
            let mut rate =
                self.curve
                    .per_activity_rate(n_active, n_resident, active_threads, hw_threads);
            if scale != 1.0 {
                rate *= scale;
            }
            self.engine.set_rate(rate);
        }
    }

    fn for_each_completion<'a>(
        &self,
        by_id: impl Iterator<Item = (ProcId, bool, &'a E::Handle)>,
        mut f: impl FnMut(ProcId, u64),
    ) {
        for (proc, _, &handle) in by_id {
            f(proc, self.engine.completion_ticks(handle));
        }
    }

    fn next_completion(&self) -> Option<(ProcId, u64)> {
        self.engine
            .next_completion()
            .map(|(id, ticks)| (ProcId(id), ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{completions, Affinity, CommitOutcome};
    use crate::{CoreSet, DeviceSubstrate, PerfModel, PhiConfig};
    use phishare_sim::{DetRng, SimDuration, SimTime};

    fn device(phi: PhiConfig, curve: SharingCurve) -> SharedThroughputDevice {
        let perf = PerfModel::default();
        SharedThroughputDevice::create(&DeviceSpec { phi, perf, curve }, SimTime::ZERO)
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
        let mut last = None;
        for p in 1..=4 {
            last = Some(d.attach(t(0), ProcId(p), 100, 60, usable / 4, &mut r).0);
        }
        // Push proc 4 over the edge: someone must die.
        let out = d.commit(t(1), last.unwrap(), usable, &mut r);
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
