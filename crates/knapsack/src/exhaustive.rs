//! Brute-force oracle for small instances.
//!
//! Enumerates all `2^n` subsets; used by the property tests to certify that
//! [`crate::dp::solve_2d`] is value-optimal under the discretization, and by
//! the paper's own framing ("the exhaustive approach would be prohibitively
//! time consuming", §IV-C) as the baseline the DP approximates in time.

use crate::item::{Capacity, PackItem, Packing};
use crate::value::ValueFunction;

/// Maximum instance size the oracle accepts (2^22 subsets ≈ 4 M).
pub(crate) const MAX_ITEMS: usize = 22;

/// Solve by exhaustive subset enumeration.
///
/// Feasibility uses the same discretized weights as the DP (`item_units`
/// summed against `units()`), so the two solvers optimize the identical
/// problem and their optimal values are directly comparable.
///
/// # Panics
/// Panics when `items.len() > MAX_ITEMS`.
pub fn solve_exhaustive(items: &[PackItem], cap: &Capacity, value_fn: ValueFunction) -> Packing {
    assert!(
        items.len() <= MAX_ITEMS,
        "exhaustive oracle limited to {MAX_ITEMS} items, got {}",
        items.len()
    );
    let w_max = cap.units();
    let units: Vec<usize> = items.iter().map(|it| cap.item_units(it.mem_mb)).collect();
    let values: Vec<f64> = items
        .iter()
        .map(|it| value_fn.value(it.threads, cap.value_threads()))
        .collect();

    let mut best_mask: u32 = 0;
    let mut best_value = 0.0f64;
    for mask in 0u32..(1u32 << items.len()) {
        let mut w = 0usize;
        let mut t = 0u64;
        let mut v = 0.0f64;
        let mut feasible = true;
        for (i, item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                w += units[i];
                t += item.threads as u64;
                if w > w_max || t > cap.thread_limit as u64 {
                    feasible = false;
                    break;
                }
                v += values[i];
            }
        }
        if feasible && v > best_value {
            best_value = v;
            best_mask = mask;
        }
    }

    let selected = items
        .iter()
        .enumerate()
        .filter(|(i, _)| best_mask & (1 << i) != 0)
        .map(|(_, it)| it.index)
        .collect();
    Packing::from_selection(items, selected, best_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::solve_2d;

    fn it(index: usize, mem_mb: u64, threads: u32) -> PackItem {
        PackItem {
            index,
            mem_mb,
            threads,
        }
    }

    #[test]
    fn oracle_finds_known_optimum() {
        let cap = Capacity::phi(1000);
        let items = [it(0, 600, 120), it(1, 500, 60), it(2, 400, 60)];
        // {1, 2} fits (18 of 20 units) and its two low-thread jobs beat any
        // pairing with the 120-thread job 0.
        let p = solve_exhaustive(&items, &cap, ValueFunction::PaperQuadratic);
        assert_eq!(p.selected, vec![1, 2]);
    }

    #[test]
    fn oracle_matches_dp_on_fixed_instances() {
        let cap = Capacity::phi(4000);
        let items = [
            it(0, 900, 240),
            it(1, 1200, 120),
            it(2, 700, 60),
            it(3, 1500, 180),
            it(4, 400, 16),
            it(5, 2100, 200),
            it(6, 350, 32),
        ];
        for vf in ValueFunction::ALL {
            let oracle = solve_exhaustive(&items, &cap, vf);
            let dp = solve_2d(&items, &cap, vf);
            assert!(
                (oracle.total_value - dp.total_value).abs() < 1e-9,
                "{vf}: oracle {} vs dp {}",
                oracle.total_value,
                dp.total_value
            );
            assert!(dp.is_feasible(&cap));
        }
    }

    #[test]
    fn empty_instance() {
        let p = solve_exhaustive(&[], &Capacity::phi(1000), ValueFunction::default());
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "exhaustive oracle limited")]
    fn rejects_large_instances() {
        let items: Vec<PackItem> = (0..23).map(|i| it(i, 10, 4)).collect();
        let _ = solve_exhaustive(&items, &Capacity::phi(1000), ValueFunction::default());
    }
}
