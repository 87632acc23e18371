//! The coprocessor performance model.
//!
//! Calibration targets come from the paper and its COSMIC reference \[6\]:
//!
//! * thread oversubscription on the Phi costs "as much as 800 %" — we model
//!   the slowdown as `(Σthreads / hw_threads)^κ` for loads above 1, with
//!   κ = 3 so a 2× oversubscribed device runs each offload 8× slower;
//! * overlapping offloads *without* affinitization lose performance even
//!   under the thread limit, "since two offloads with conflicting affinities
//!   may overlap and use the same cores leaving other cores idle" (§IV-D2) —
//!   modelled as a per-extra-offload conflict penalty;
//! * COSMIC-pinned offloads on disjoint cores run at full rate.

use crate::device::RateModel;
use crate::proc::ProcId;
use crate::substrate::DeviceSpec;
use phishare_sim::ceil_ticks;
use serde::{Deserialize, Serialize};

/// Tunable performance-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    /// Exponent κ of the oversubscription slowdown `load^κ` (load > 1).
    pub oversub_exponent: f64,
    /// Extra slowdown per additional concurrently-active unmanaged offload:
    /// an unmanaged offload sharing the device with `n-1` others runs at
    /// `1 / (1 + conflict_penalty × (n-1))` of its pinned rate.
    pub conflict_penalty: f64,
    /// Multiprocessing overhead from *resident* COI processes beyond the
    /// [`PerfModel::resident_knee`]: every active offload runs at
    /// `1 / (1 + resident_penalty × max(0, n_res − knee)²)` of its solo
    /// rate. Resident processes contend for PCIe/DMA bandwidth (host↔device
    /// transfers happen between offloads), device memory bandwidth and the
    /// ring interconnect, and run COI daemon threads. COSMIC \[6\] reports
    /// multiprocessing gains that flatten and reverse beyond a handful of
    /// co-resident processes — the knee models that sweet spot. The term
    /// applies to COSMIC-pinned offloads too: affinitization removes *core*
    /// conflicts, not bandwidth sharing.
    pub resident_penalty: f64,
    /// Resident-process count up to which sharing is free of bandwidth
    /// contention.
    pub resident_knee: u32,
    /// Floor on any offload's rate, so pathological configurations cannot
    /// stall the simulation entirely.
    pub min_rate: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            oversub_exponent: 3.0,
            conflict_penalty: 0.15,
            resident_penalty: 0.007,
            resident_knee: 4,
            min_rate: 1e-3,
        }
    }
}

impl PerfModel {
    /// Device-wide slowdown factor from thread oversubscription.
    ///
    /// `1.0` when the active thread sum fits in hardware; grows as
    /// `load^κ` beyond that.
    pub(crate) fn oversub_factor(&self, active_threads: u32, hw_threads: u32) -> f64 {
        debug_assert!(hw_threads > 0);
        let load = active_threads as f64 / hw_threads as f64;
        if load <= 1.0 {
            1.0
        } else {
            load.powf(self.oversub_exponent)
        }
    }

    /// Rate of one active offload given the device state.
    ///
    /// * `pinned` — whether COSMIC affinitized this offload to private cores;
    /// * `n_active` — number of offloads currently active on the device;
    /// * `n_resident` — number of COI processes resident on the device;
    /// * `active_threads` — the active offloads' thread sum.
    #[cfg(test)]
    pub(crate) fn offload_rate(
        &self,
        pinned: bool,
        n_active: usize,
        n_resident: usize,
        active_threads: u32,
        hw_threads: u32,
    ) -> f64 {
        debug_assert!(n_active >= 1);
        debug_assert!(n_resident >= n_active.min(1));
        let oversub = self.oversub_factor(active_threads, hw_threads);
        let conflict = if pinned {
            1.0
        } else {
            1.0 + self.conflict_penalty * (n_active as f64 - 1.0)
        };
        let excess = n_resident.saturating_sub(self.resident_knee as usize) as f64;
        let sharing = 1.0 + self.resident_penalty * excess * excess;
        (1.0 / (oversub * conflict * sharing)).max(self.min_rate)
    }

    /// Both rates a device state admits, as `(pinned, unmanaged)`.
    ///
    /// Every factor of the per-offload rate (the test-only
    /// `PerfModel::offload_rate`) depends only on device-wide aggregates,
    /// never on the individual offload — all active offloads share one of
    /// exactly two rates. A reschedule therefore needs two rate
    /// computations, not one per offload. Bit-identical to calling
    /// `offload_rate` twice (the factor products are evaluated in
    /// the same order).
    pub(crate) fn offload_rates(
        &self,
        n_active: usize,
        n_resident: usize,
        active_threads: u32,
        hw_threads: u32,
    ) -> (f64, f64) {
        debug_assert!(n_active >= 1);
        let oversub = self.oversub_factor(active_threads, hw_threads);
        let excess = n_resident.saturating_sub(self.resident_knee as usize) as f64;
        let sharing = 1.0 + self.resident_penalty * excess * excess;
        let conflict = 1.0 + self.conflict_penalty * (n_active as f64 - 1.0);
        let pinned = (1.0 / (oversub * 1.0 * sharing)).max(self.min_rate);
        let unmanaged = (1.0 / (oversub * conflict * sharing)).max(self.min_rate);
        (pinned, unmanaged)
    }
}

/// [`PhiDevice`](crate::PhiDevice)'s rate rule: the paper's two-rate
/// affinity model, with the two rates kept once per card.
///
/// Every factor of the per-offload rate (`PerfModel::offload_rate`)
/// depends only on card-wide aggregates, so all COSMIC-pinned offloads
/// share one rate and all unmanaged ones another. The card keeps that `(pinned, unmanaged)` pair,
/// already multiplied by the derate scale; an active offload keeps only its
/// remaining nominal work, and a reshare writes two numbers.
#[derive(Debug)]
pub struct PerfRates {
    model: PerfModel,
    pinned: f64,
    unmanaged: f64,
}

impl From<PerfModel> for PerfRates {
    fn from(model: PerfModel) -> Self {
        PerfRates {
            model,
            pinned: 1.0,
            unmanaged: 1.0,
        }
    }
}

impl PerfRates {
    /// The current rate of an offload in class `pinned`.
    #[inline]
    fn rate(&self, pinned: bool) -> f64 {
        if pinned {
            self.pinned
        } else {
            self.unmanaged
        }
    }

    /// Wall ticks until `remaining` nominal work completes in class `pinned`.
    #[inline]
    fn ticks_left(&self, pinned: bool, remaining: f64) -> u64 {
        ceil_ticks(remaining / self.rate(pinned))
    }
}

/// Remaining work above which an offload at `rate` needs more than `ticks`
/// wall ticks, so it can neither beat nor tie a best of `ticks`.
///
/// Let `T = max(ticks, 1)` and `X = fl(T·(1 + 10⁻¹²))·rate`, so the bound
/// is `fl(X)`. A float above `fl(X)` is above `X` itself: round-to-nearest
/// leaves `X` within half a step of `fl(X)`, subnormal or not. So
/// `remaining / rate > fl(T·(1 + 10⁻¹²))`, and as the cast, the constant,
/// the product and the quotient each round by at most a factor
/// `1 − 2⁻⁵³`, the quotient is above `T·(1 + 10⁻¹²)·(1 − 2⁻⁵³)⁴ > T`: more
/// than `T` ticks. The clamp to 1 keeps a tiny remainder at a rate above 1
/// from dividing to 0 ticks when the best is 0. A saturated best is tied
/// by every larger remainder, so its bound is `∞`.
#[inline]
fn work_bound(ticks: u64, rate: f64) -> f64 {
    if ticks == u64::MAX {
        return f64::INFINITY;
    }
    ticks.max(1) as f64 * (1.0 + 1e-12) * rate
}

/// Work is the offload's remaining nominal ticks; its rate is its class's.
impl RateModel for PerfRates {
    type Work = f64;

    fn from_spec(spec: &DeviceSpec) -> Self {
        spec.perf.into()
    }

    fn join(&mut self, _: ProcId, work: f64) -> f64 {
        work
    }

    fn leave(&mut self, _: ProcId, pinned: bool, remaining: f64) -> (f64, f64) {
        (remaining, self.rate(pinned))
    }

    fn advance<'a>(&mut self, dt: f64, active: impl Iterator<Item = (bool, &'a mut f64)>) {
        let (pinned, unmanaged) = (self.pinned * dt, self.unmanaged * dt);
        for (is_pinned, remaining) in active {
            let done = if is_pinned { pinned } else { unmanaged };
            *remaining = (*remaining - done).max(0.0);
        }
    }

    /// An idle card keeps its stale pair; it is rewritten before any
    /// offload runs on it.
    fn reshare(
        &mut self,
        (n_active, n_resident): (usize, usize),
        (active_threads, hw_threads): (u32, u32),
        scale: f64,
    ) {
        if n_active == 0 {
            return;
        }
        let (pinned, unmanaged) =
            self.model
                .offload_rates(n_active, n_resident, active_threads, hw_threads);
        self.pinned = pinned * scale;
        self.unmanaged = unmanaged * scale;
    }

    fn for_each_completion<'a>(
        &self,
        by_id: impl Iterator<Item = (ProcId, bool, &'a f64)>,
        mut f: impl FnMut(ProcId, u64),
    ) {
        for (proc, pinned, &remaining) in by_id {
            f(proc, self.ticks_left(pinned, remaining));
        }
    }

    /// Scans the dense slab (cache-friendly); min by (ticks, id) is
    /// iteration-order independent, so slot order here and the
    /// ascending-id order of the reference specification pick the same
    /// winner.
    ///
    /// Within one class the rate is shared and `⌈fl(x / rate)⌉` is
    /// monotone in `x`, so an offload whose remaining work exceeds its
    /// class's [`work_bound`] for the best so far would lose: it is
    /// skipped without a division. The result is exactly the exhaustive
    /// `min (ticks, proc)`, ties to the lowest proc included.
    fn next_completion<'a>(
        &self,
        active: impl Iterator<Item = (ProcId, bool, &'a f64)>,
    ) -> Option<(ProcId, u64)> {
        let mut best: Option<(u64, ProcId)> = None;
        // Indexed by the pinned flag.
        let mut bound = [f64::INFINITY; 2];
        for (proc, pinned, &remaining) in active {
            if remaining > bound[pinned as usize] {
                continue;
            }
            let candidate = (self.ticks_left(pinned, remaining), proc);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
                bound = [
                    work_bound(candidate.0, self.unmanaged),
                    work_bound(candidate.0, self.pinned),
                ];
            }
        }
        best.map(|(ticks, proc)| (proc, ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_oversubscription_runs_at_full_rate() {
        let m = PerfModel::default();
        assert_eq!(m.oversub_factor(240, 240), 1.0);
        assert_eq!(m.oversub_factor(0, 240), 1.0);
        assert_eq!(m.offload_rate(true, 1, 1, 240, 240), 1.0);
    }

    #[test]
    fn double_oversubscription_costs_8x() {
        let m = PerfModel::default();
        // The paper's [6] calibration point: ≈800 % at 2× thread load.
        // Two residents sit below the sharing knee, so the factor is pure
        // oversubscription.
        assert!((m.oversub_factor(480, 240) - 8.0).abs() < 1e-12);
        assert!((m.offload_rate(true, 2, 2, 480, 240) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_is_monotone() {
        let m = PerfModel::default();
        let mut last = 0.0;
        for t in (240..=960).step_by(60) {
            let f = m.oversub_factor(t, 240);
            assert!(f >= last);
            last = f;
        }
    }

    #[test]
    fn unmanaged_overlap_pays_conflict_penalty() {
        let m = PerfModel::default();
        let solo = m.offload_rate(false, 1, 1, 120, 240);
        let shared = m.offload_rate(false, 2, 2, 240, 240);
        assert_eq!(solo, 1.0);
        assert!((shared - 1.0 / 1.15).abs() < 1e-12);
    }

    #[test]
    fn pinned_offloads_do_not_conflict_on_cores() {
        let m = PerfModel::default();
        // Four pinned offloads from four residents: no core conflict, no
        // oversubscription, and four residents sit at the sharing knee —
        // full rate.
        assert_eq!(m.offload_rate(true, 4, 4, 240, 240), 1.0);
    }

    #[test]
    fn resident_processes_beyond_knee_contend_for_bandwidth() {
        let m = PerfModel::default();
        // One active offload, eight resident processes: the offload pays
        // for its neighbours' transfers and daemons, quadratically past
        // the knee (8 − 4 = 4 excess → 1 + γ·16).
        let expected = 1.0 / (1.0 + m.resident_penalty * 16.0);
        assert!((m.offload_rate(true, 1, 8, 120, 240) - expected).abs() < 1e-12);
        // The sweet spot is flat: 2 and 4 residents run equally fast.
        assert_eq!(m.offload_rate(true, 1, 2, 120, 240), 1.0);
        assert_eq!(m.offload_rate(true, 1, 4, 120, 240), 1.0);
    }

    #[test]
    fn memoized_rate_pair_is_bit_identical_to_per_offload_rates() {
        let m = PerfModel::default();
        for n_active in 1usize..=12 {
            for n_resident in n_active..=16 {
                for threads in [60u32, 240, 480, 960, 24_000] {
                    let (pinned, unmanaged) = m.offload_rates(n_active, n_resident, threads, 240);
                    assert_eq!(
                        pinned.to_bits(),
                        m.offload_rate(true, n_active, n_resident, threads, 240)
                            .to_bits(),
                        "pinned rate diverged at ({n_active}, {n_resident}, {threads})"
                    );
                    assert_eq!(
                        unmanaged.to_bits(),
                        m.offload_rate(false, n_active, n_resident, threads, 240)
                            .to_bits(),
                        "unmanaged rate diverged at ({n_active}, {n_resident}, {threads})"
                    );
                }
            }
        }
    }

    #[test]
    fn rate_never_drops_below_floor() {
        let m = PerfModel::default();
        let r = m.offload_rate(false, 100, 100, 24_000, 240);
        assert!(r >= m.min_rate);
    }

    /// How one offload's remaining work is drawn from its class's rate `r`
    /// and the case's base tick count `k`.
    #[derive(Debug, Clone, Copy)]
    enum Remaining {
        /// `fl((k + dk)·r)` moved by a few ulps: remainders that divide to
        /// a whole tick count or one ulp either side of it, clustered so
        /// that offloads of one class tie at the minimum.
        NearMultiple { dk: u64, ulps: i64 },
        /// Anywhere in `[0, 10⁷)` nominal ticks.
        Uniform(f64),
        /// Up to `f64::MAX`, mostly past the 2⁶⁴-tick saturation point.
        Huge(f64),
    }

    impl Remaining {
        fn value(self, k: f64, r: f64) -> f64 {
            match self {
                Remaining::NearMultiple { dk, ulps } => {
                    let x = (k + dk as f64) * r;
                    f64::from_bits((x.to_bits() as i64 + ulps).max(0) as u64)
                }
                Remaining::Uniform(frac) => frac * 1e7,
                Remaining::Huge(frac) => f64::MAX * frac,
            }
        }
    }

    fn arb_remaining() -> impl Strategy<Value = Remaining> {
        prop_oneof![
            6 => (0u64..2, -2i64..=2).prop_map(|(dk, ulps)| Remaining::NearMultiple { dk, ulps }),
            1 => (0.0..1.0f64).prop_map(Remaining::Uniform),
            1 => (0.0..=1.0f64).prop_map(Remaining::Huge),
        ]
    }

    /// The base tick count: small, a power of two (where a tick count's
    /// ulp is widest relative to it) or near the 2⁶⁴ saturation point.
    fn arb_base_ticks() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..64).prop_map(|k| k as f64),
            (0i32..=70).prop_map(|e| 2f64.powi(e)),
        ]
    }

    /// A card's rate pair after a reshare: the default model or a rate
    /// floor above 1, loads up to 100× oversubscription (rates at
    /// `min_rate`), and derate scales of 1, below 1 and subnormal.
    fn arb_rates() -> impl Strategy<Value = PerfRates> {
        (
            prop_oneof![Just(1e-3), Just(0.25), Just(3.0)],
            1usize..=12,
            0usize..=8,
            prop_oneof![Just(240u32), 1u32..=24_000],
            prop_oneof![
                Just(1.0),
                Just(0.4),
                1e-6..1.0f64,
                Just(1e-310),
                Just(1e-318)
            ],
        )
            .prop_map(|(min_rate, n_active, extra, threads, scale)| {
                let mut rates = PerfRates::from(PerfModel {
                    min_rate,
                    ..PerfModel::default()
                });
                rates.reshare((n_active, n_active + extra), (threads, 240), scale);
                rates
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16_384))]

        /// The bounded scan equals the exhaustive `min (⌈rem/rate⌉, proc)`
        /// with libm's ceil, and every visited completion is that
        /// offload's own tick count, whatever the slot order.
        #[test]
        fn bounded_scan_equals_exhaustive_min(
            rates in arb_rates(),
            k in arb_base_ticks(),
            offloads in prop::collection::vec((0u64..6, any::<bool>(), arb_remaining()), 1..12),
        ) {
            // Proc ids in random order relative to the visit order.
            let active: Vec<(ProcId, bool, f64)> = offloads
                .iter()
                .enumerate()
                .map(|(i, &(key, pinned, rem))| {
                    (ProcId(key << 8 | i as u64), pinned, rem.value(k, rates.rate(pinned)))
                })
                .collect();
            let ticks = |pinned: bool, rem: f64| (rem / rates.rate(pinned)).ceil().max(0.0) as u64;
            let exhaustive = active
                .iter()
                .map(|&(proc, pinned, rem)| (ticks(pinned, rem), proc))
                .min()
                .map(|(t, proc)| (proc, t));
            let iter = || active.iter().map(|(proc, pinned, rem)| (*proc, *pinned, rem));
            prop_assert_eq!(rates.next_completion(iter()), exhaustive);
            let mut visited = Vec::new();
            rates.for_each_completion(iter(), |proc, t| visited.push((proc, t)));
            let expected: Vec<_> = active.iter().map(|&(proc, pinned, rem)| (proc, ticks(pinned, rem))).collect();
            prop_assert_eq!(visited, expected);
        }
    }
}
