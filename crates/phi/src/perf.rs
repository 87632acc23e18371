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
/// share one rate and all unmanaged ones another. The card keeps that
/// `(pinned, unmanaged)` pair, already multiplied by the derate scale, and
/// each class's active offloads in one table sorted by remaining nominal
/// work; a reshare writes two numbers, and a slab entry keeps nothing for
/// the rule.
#[derive(Debug)]
pub struct PerfRates {
    model: PerfModel,
    pinned: f64,
    unmanaged: f64,
    /// One `(remaining, proc)` table per class, indexed by the pinned
    /// flag, each sorted ascending by remaining work.
    work: [Vec<(f64, ProcId)>; 2],
}

impl From<PerfModel> for PerfRates {
    fn from(model: PerfModel) -> Self {
        PerfRates {
            model,
            pinned: 1.0,
            unmanaged: 1.0,
            work: [Vec::new(), Vec::new()],
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

    /// Class `pinned`'s earliest completion as `(ticks, proc)`, ties to the
    /// lowest proc.
    ///
    /// The class shares one rate and `⌈fl(x / rate)⌉` is monotone in `x`,
    /// so tick counts never fall along the sorted table: the front's is the
    /// least, and the entries that tie it are the ones right behind it.
    /// The walk over them stops at the first entry above the front's
    /// [`work_bound`] (more ticks, known without a division) or at the
    /// first tick count above the front's.
    #[inline]
    fn earliest(&self, pinned: bool) -> Option<(u64, ProcId)> {
        let rate = self.rate(pinned);
        let (&(front, mut proc), rest) = self.work[pinned as usize].split_first()?;
        let ticks = ceil_ticks(front / rate);
        let bound = work_bound(ticks, rate);
        for &(remaining, other) in rest {
            if remaining > bound || ceil_ticks(remaining / rate) > ticks {
                break;
            }
            proc = proc.min(other);
        }
        Some((ticks, proc))
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

/// The rule keeps the work itself, in its class tables, so a slab entry
/// holds nothing.
impl RateModel for PerfRates {
    type Work = ();

    fn from_spec(spec: &DeviceSpec) -> Self {
        spec.perf.into()
    }

    fn join(&mut self, proc: ProcId, pinned: bool, work: f64) {
        let table = &mut self.work[pinned as usize];
        table.insert(table.partition_point(|&(w, _)| w <= work), (work, proc));
    }

    fn leave(&mut self, proc: ProcId, pinned: bool, _: ()) -> (f64, f64) {
        let table = &mut self.work[pinned as usize];
        let at = table
            .iter()
            .position(|&(_, p)| p == proc)
            .unwrap_or_else(|| panic!("{proc} has no tracked offload"));
        (table.remove(at).0, self.rate(pinned))
    }

    fn clear(&mut self) {
        self.work.iter_mut().for_each(Vec::clear);
    }

    /// Subtracts each class's `done = fl(rate·dt)` from every member,
    /// clamped at 0, and the tables stay sorted with no re-sort: for
    /// `a ≤ b`, `a − done ≤ b − done` exactly, round-to-nearest never
    /// swaps two ordered reals, and `max(·, 0)` is monotone too. Distinct
    /// remainders may become equal (a rounding or the clamp merges them);
    /// `earliest`'s tie walk needs no order among equals.
    fn advance(&mut self, dt: f64) {
        for (table, rate) in self.work.iter_mut().zip([self.unmanaged, self.pinned]) {
            let done = rate * dt;
            for (remaining, _) in table.iter_mut() {
                *remaining = (*remaining - done).max(0.0);
            }
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

    /// Finds each proc in its class table, a linear search per visit; only
    /// the examples and tests visit every completion.
    fn for_each_completion<'a>(
        &self,
        by_id: impl Iterator<Item = (ProcId, bool, &'a ())>,
        mut f: impl FnMut(ProcId, u64),
    ) {
        for (proc, pinned, _) in by_id {
            let &(remaining, _) = self.work[pinned as usize]
                .iter()
                .find(|&&(_, p)| p == proc)
                .unwrap_or_else(|| panic!("{proc} has no tracked offload"));
            f(proc, ceil_ticks(remaining / self.rate(pinned)));
        }
    }

    /// The smaller of the two classes' [`earliest`](PerfRates::earliest):
    /// exactly the exhaustive `min (ticks, proc)` over every active
    /// offload, ties to the lowest proc included.
    fn next_completion(&self) -> Option<(ProcId, u64)> {
        [false, true]
            .into_iter()
            .filter_map(|pinned| self.earliest(pinned))
            .min()
            .map(|(ticks, proc)| (proc, ticks))
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
        /// The smallest floats, 0 and the first subnormals: a rate above 2
        /// divides the first one to 0 ticks.
        Tiny(u64),
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
                Remaining::Tiny(bits) => f64::from_bits(bits),
                Remaining::Uniform(frac) => frac * 1e7,
                Remaining::Huge(frac) => f64::MAX * frac,
            }
        }
    }

    fn arb_remaining() -> impl Strategy<Value = Remaining> {
        prop_oneof![
            6 => (0u64..2, -2i64..=2).prop_map(|(dk, ulps)| Remaining::NearMultiple { dk, ulps }),
            1 => (0u64..3).prop_map(Remaining::Tiny),
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

    /// One step of a random workout of the class tables.
    #[derive(Debug, Clone)]
    enum Step {
        /// A new offload; `key` orders its proc id apart from join order.
        Join {
            key: u64,
            pinned: bool,
            work: Remaining,
        },
        /// Integrate whole wall ticks: a few, a power of two, or enough to
        /// clamp every remainder to 0.
        Advance(f64),
        /// A new rate pair: loads up to 100× oversubscription (rates at
        /// `min_rate`) and derate scales of 1, below 1 and subnormal.
        Reshare {
            n_active: usize,
            extra: usize,
            threads: u32,
            scale: f64,
        },
        /// The model's offload at this index (modulo its length) leaves.
        Leave(usize),
        /// Device reset.
        Clear,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (0u64..6, any::<bool>(), arb_remaining())
                .prop_map(|(key, pinned, work)| Step::Join { key, pinned, work }),
            3 => prop_oneof![
                (1u64..8).prop_map(|t| t as f64),
                (0i32..=64).prop_map(|e| 2f64.powi(e)),
            ]
            .prop_map(Step::Advance),
            2 => (
                1usize..=12,
                0usize..=8,
                prop_oneof![Just(240u32), 1u32..=24_000],
                prop_oneof![Just(1.0), Just(0.4), 1e-6..1.0f64, Just(1e-310), Just(1e-318)],
            )
                .prop_map(|(n_active, extra, threads, scale)| Step::Reshare {
                    n_active,
                    extra,
                    threads,
                    scale,
                }),
            2 => any::<usize>().prop_map(Step::Leave),
            1 => Just(Step::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_096))]

        /// The sorted class tables against a plain per-offload model: after
        /// every random join, advance, reshare, leave or clear, each
        /// remainder is bit-identical to the model's, each table is sorted,
        /// `next_completion` is the exhaustive `min (⌈rem/rate⌉, proc)` with
        /// libm's ceil, and `for_each_completion` visits each offload's own
        /// tick count in the order asked.
        #[test]
        fn class_tables_match_a_per_offload_model(
            min_rate in prop_oneof![Just(1e-3), Just(0.25), Just(3.0)],
            k in arb_base_ticks(),
            steps in prop::collection::vec(arb_step(), 1..48),
        ) {
            let mut rates = PerfRates::from(PerfModel { min_rate, ..PerfModel::default() });
            let mut model: Vec<(ProcId, bool, f64)> = Vec::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Join { key, pinned, work } => {
                        let proc = ProcId(key << 8 | i as u64);
                        let work = work.value(k, rates.rate(pinned));
                        rates.join(proc, pinned, work);
                        model.push((proc, pinned, work));
                    }
                    Step::Advance(dt) => {
                        rates.advance(dt);
                        for (_, pinned, rem) in &mut model {
                            *rem = (*rem - rates.rate(*pinned) * dt).max(0.0);
                        }
                    }
                    Step::Reshare { n_active, extra, threads, scale } => {
                        rates.reshare((n_active, n_active + extra), (threads, 240), scale);
                    }
                    Step::Leave(at) => {
                        if !model.is_empty() {
                            let (proc, pinned, rem) = model.remove(at % model.len());
                            let (left, rate) = rates.leave(proc, pinned, ());
                            prop_assert_eq!(left.to_bits(), rem.to_bits());
                            prop_assert_eq!(rate.to_bits(), rates.rate(pinned).to_bits());
                        }
                    }
                    Step::Clear => {
                        rates.clear();
                        model.clear();
                    }
                }

                prop_assert_eq!(rates.work[0].len() + rates.work[1].len(), model.len());
                for table in &rates.work {
                    prop_assert!(table.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted {:?}", table);
                }
                for &(proc, pinned, rem) in &model {
                    let held = rates.work[pinned as usize].iter().find(|e| e.1 == proc);
                    prop_assert_eq!(held.map(|e| e.0.to_bits()), Some(rem.to_bits()));
                }
                let ticks = |pinned: bool, rem: f64| (rem / rates.rate(pinned)).ceil().max(0.0) as u64;
                let exhaustive = model
                    .iter()
                    .map(|&(proc, pinned, rem)| (ticks(pinned, rem), proc))
                    .min()
                    .map(|(t, proc)| (proc, t));
                prop_assert_eq!(rates.next_completion(), exhaustive);
                let mut by_id = model.clone();
                by_id.sort_unstable_by_key(|e| e.0);
                let mut visited = Vec::new();
                rates.for_each_completion(
                    by_id.iter().map(|&(proc, pinned, _)| (proc, pinned, &())),
                    |proc, t| visited.push((proc, t)),
                );
                let expected: Vec<_> = by_id.iter().map(|&(proc, pinned, rem)| (proc, ticks(pinned, rem))).collect();
                prop_assert_eq!(visited, expected);
            }
        }
    }
}
