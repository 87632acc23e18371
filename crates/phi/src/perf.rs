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
    pub fn oversub_factor(&self, active_threads: u32, hw_threads: u32) -> f64 {
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
    pub fn offload_rate(
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
    /// Every factor of [`PerfModel::offload_rate`] depends only on
    /// device-wide aggregates, never on the individual offload — all active
    /// offloads share one of exactly two rates. A reschedule therefore
    /// needs two rate computations, not one per offload. Bit-identical to
    /// calling `offload_rate` twice (the factor products are evaluated in
    /// the same order).
    pub fn offload_rates(
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

    /// Rewrite every active offload's rate from device-wide aggregates —
    /// the shared reschedule body of both device implementations.
    ///
    /// `offloads` yields `(is_pinned, rate_slot)` per active offload; a
    /// no-op when `n_active == 0` (idle devices keep stale rates, exactly
    /// as the previous per-device copies did). This is the single entry
    /// point any degradation-function plumbing must go through.
    pub fn reshare_rates<'a>(
        &self,
        n_active: usize,
        n_resident: usize,
        active_threads: u32,
        hw_threads: u32,
        offloads: impl Iterator<Item = (bool, &'a mut f64)>,
    ) {
        if n_active == 0 {
            return;
        }
        let (rate_pinned, rate_unmanaged) =
            self.offload_rates(n_active, n_resident, active_threads, hw_threads);
        for (pinned, rate) in offloads {
            *rate = if pinned { rate_pinned } else { rate_unmanaged };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
