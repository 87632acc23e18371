//! Job value functions.
//!
//! The paper's Eq. (1): `v_i = 1 − (t_i / 240)²` — every job is worth close
//! to 1 (so the DP maximizes *count*), discounted quadratically by its
//! thread appetite (so low-thread jobs pack together and leave room). The
//! alternatives here feed the value-function ablation bench.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Selectable value functions for the knapsack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ValueFunction {
    /// The paper's Eq. (1): `1 − (t/T)²`.
    #[default]
    PaperQuadratic,
    /// Linear discount: `1 − t/(T+1)` (strictly positive so every job keeps
    /// nonzero value).
    Linear,
    /// Unit value: pure concurrency maximization, thread-blind.
    Unit,
    /// Inverse threads: `1/t` — aggressively prefers small jobs.
    InverseThreads,
}

impl ValueFunction {
    /// Floor applied to every job's value. Eq. (1) evaluates to exactly 0
    /// for a full-width (240-thread) job, and a zero-value item is *never*
    /// chosen by a value-maximizing DP — full-width jobs (e.g. the BT
    /// workload) would starve forever. The floor keeps the paper's ordering
    /// while guaranteeing every job is eventually packable.
    pub(crate) const FLOOR: f64 = 1e-3;

    /// The value of a job requesting `threads` on hardware with
    /// `thread_limit` total threads.
    pub fn value(&self, threads: u32, thread_limit: u32) -> f64 {
        debug_assert!(thread_limit > 0);
        let t = threads as f64;
        let cap = thread_limit as f64;
        let raw = match self {
            ValueFunction::PaperQuadratic => 1.0 - (t / cap) * (t / cap),
            ValueFunction::Linear => 1.0 - t / (cap + 1.0),
            ValueFunction::Unit => 1.0,
            ValueFunction::InverseThreads => 1.0 / t.max(1.0),
        };
        raw.max(Self::FLOOR)
    }

    /// All variants, for ablation sweeps.
    pub const ALL: [ValueFunction; 4] = [
        ValueFunction::PaperQuadratic,
        ValueFunction::Linear,
        ValueFunction::Unit,
        ValueFunction::InverseThreads,
    ];
}

impl fmt::Display for ValueFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueFunction::PaperQuadratic => "quadratic",
            ValueFunction::Linear => "linear",
            ValueFunction::Unit => "unit",
            ValueFunction::InverseThreads => "inverse",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_eq1() {
        let v = ValueFunction::PaperQuadratic;
        assert_eq!(v.value(0, 240), 1.0);
        // Eq. (1) gives 0 at full width; the starvation floor lifts it to ε.
        assert_eq!(v.value(240, 240), ValueFunction::FLOOR);
        assert!((v.value(120, 240) - 0.75).abs() < 1e-12);
        assert!((v.value(60, 240) - (1.0 - 0.0625)).abs() < 1e-12);
    }

    #[test]
    fn floor_keeps_every_job_packable() {
        for f in ValueFunction::ALL {
            assert!(f.value(240, 240) >= ValueFunction::FLOOR);
        }
    }

    #[test]
    fn quadratic_discount_favours_small_jobs_superlinearly() {
        let v = ValueFunction::PaperQuadratic;
        // Two 120-thread jobs are worth more than one 240-thread job — the
        // bias that makes concurrency win.
        assert!(2.0 * v.value(120, 240) > v.value(240, 240) + 1.0 - f64::EPSILON);
    }

    #[test]
    fn all_functions_are_positive_below_limit() {
        for f in ValueFunction::ALL {
            for t in [4, 60, 120, 180, 239] {
                assert!(f.value(t, 240) > 0.0, "{f} at {t} threads");
            }
        }
    }

    #[test]
    fn all_functions_are_monotone_nonincreasing_in_threads() {
        for f in ValueFunction::ALL {
            let mut last = f64::INFINITY;
            for t in (4..=240).step_by(4) {
                let v = f.value(t, 240);
                assert!(v <= last + 1e-12, "{f} not monotone at {t}");
                last = v;
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ValueFunction::PaperQuadratic.to_string(), "quadratic");
        assert_eq!(ValueFunction::default(), ValueFunction::PaperQuadratic);
    }
}
