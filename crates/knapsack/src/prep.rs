//! Candidate preprocessing for the DP solvers: fit filtering and
//! multiplicity truncation.
//!
//! Table I workloads are duplication-heavy — many pending jobs share one
//! declared `(memory, threads)` envelope — and most candidates cannot fit a
//! nearly-full device at all. Preprocessing shrinks the DP's item dimension
//! on both counts **without changing the answer**:
//!
//! 1. **Fit filter** — drop items that cannot fit the residual capacity
//!    alone (exactly the filter the raw solvers apply inline).
//! 2. **Multiplicity truncation** — group items by their effective class
//!    `(w, threads)` (the thread-unit cost and the value both derive from
//!    `threads`) and keep only the first
//!    `m_max = min(⌊w_max/w⌋, ⌊t_max/t⌋)` copies (each bound applying only
//!    when its denominator is non-zero).
//!
//! In real arithmetic truncation is *exact*, not heuristic: processing copy
//! `j > m_max` of a class can never strictly improve any DP cell. A strict improvement at
//! cell `c` via copy `j` requires every optimum of `dp[c − (w,t)]` over the
//! already-processed prefix to use all `j−1` earlier copies (if some
//! optimum used fewer, an unused earlier copy could be added at `c`
//! without copy `j`, so `dp[c]` would already equal the candidate value —
//! the update is strict). That forces `j·(w,t) ≤ (w_max, t_max)`
//! component-wise, contradicting `j > m_max`. Hence truncated copies never
//! set a backtracking bit, the DP table evolves byte-identically, and
//! reconstruction — which walks layers in the same relative order — selects
//! the same set. The same argument holds in one dimension for the 1-D
//! variant (and its repair pass sees the identical chosen set, in the
//! identical order, so it drops the identical items).
//!
//! In `f64` the argument has a gap: "`dp[c]` would already equal the
//! candidate" compares sums of the same values added in different orders,
//! and `(1 + 1) + 1/92` and `(1 + 1/92) + 1` differ in the last bit. A
//! truncated copy can then win a one-ulp tie, and the raw and prepped
//! selections part. On random instances with shared factors and zero
//! weights (threads up to 512) this hits 19 of 80 000 instance ×
//! value-function pairs, 14 of them under
//! [`ValueFunction::InverseThreads`](crate::ValueFunction::InverseThreads)
//! and none under `Unit`. The scheduler's plan-cache counters are keyed on
//! prepped instances, so a fix moves them.
//!
//! Kept copies are the *earliest* occurrences in queue order, preserving
//! the documented FIFO tie-break: when the DP takes `k` copies of a class
//! it takes the first `k` in candidate order, exactly as the raw solver
//! does.

use crate::dp::THREADS_PER_UNIT;
use crate::item::{Capacity, PackItem};

/// One surviving item of a preprocessed instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepItem {
    /// Position in the original `items` slice handed to [`prep_2d`] /
    /// [`prep_1d`].
    pub pos: usize,
    /// Memory weight in units (already `item_units`-rounded).
    pub w: usize,
    /// Thread weight in units (`⌈threads / 4⌉`; unused by the 1-D DP).
    pub t: usize,
    /// Declared threads (drives the value function and the 1-D repair).
    pub threads: u32,
}

/// A fit-filtered, multiplicity-truncated DP instance. Everything a solve
/// depends on is in here — two `Prepped` instances with equal `w_max`,
/// `t_max`, `thread_limit`, `value_ref` and equal `(w, threads)` item
/// sequences produce bit-identical solutions, which is what makes the
/// scheduler's content-addressed solve cache sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepped {
    /// Surviving items, in original order.
    pub items: Vec<PrepItem>,
    /// Capacity in memory units.
    pub w_max: usize,
    /// Capacity in thread units (2-D DP only).
    pub t_max: usize,
    /// Raw thread budget (1-D repair limit; also the 2-D per-item filter).
    pub thread_limit: u32,
    /// Resolved reference `T` for the value function.
    pub value_ref: u32,
    /// Items dropped by multiplicity truncation (diagnostics; fit-filtered
    /// items are not counted).
    pub truncated: usize,
}

/// Per-class multiplicity cap: the largest copy count that can appear in
/// any feasible subset. Dimensions with zero weight impose no bound.
fn class_cap(w: usize, t: usize, w_max: usize, t_max: usize) -> usize {
    let mut cap = usize::MAX;
    if let Some(by_w) = w_max.checked_div(w) {
        cap = cap.min(by_w);
    }
    if let Some(by_t) = t_max.checked_div(t) {
        cap = cap.min(by_t);
    }
    cap
}

/// Multiplicity truncation of the fit-filtered `items` (in original
/// order): keep the first `cap(w, t)` copies of each `(w, threads)` class,
/// and return how many were dropped. The copy counts live in a sorted
/// vector searched by bisection: instances have few classes, so this beats
/// hashing every item.
fn truncate_classes(items: &mut Vec<PrepItem>, cap: impl Fn(usize, usize) -> usize) -> usize {
    let before = items.len();
    // Per class: how many more copies to keep.
    let mut left: Vec<((usize, u32), usize)> = Vec::new();
    items.retain(|it| {
        let class = (it.w, it.threads);
        let i = left
            .binary_search_by_key(&class, |&(c, _)| c)
            .unwrap_or_else(|i| {
                left.insert(i, (class, cap(it.w, it.t)));
                i
            });
        let n = &mut left[i].1;
        if *n == 0 {
            return false;
        }
        *n -= 1;
        true
    });
    before - items.len()
}

/// Preprocess for the 2-D solver ([`crate::solve_prepped_2d_with`]).
/// Applies exactly [`crate::solve_2d_with`]'s fit filter, then truncates
/// multiplicity classes.
pub fn prep_2d(items: &[PackItem], cap: &Capacity) -> Prepped {
    let w_max = cap.units();
    let t_max = (cap.thread_limit / THREADS_PER_UNIT) as usize;
    let mut pre = Prepped {
        items: Vec::new(),
        w_max,
        t_max,
        thread_limit: cap.thread_limit,
        value_ref: cap.value_threads(),
        truncated: 0,
    };
    if w_max == 0 || t_max == 0 {
        return pre;
    }
    for (pos, it) in items.iter().enumerate() {
        let w = cap.item_units(it.mem_mb);
        let t = it.threads.div_ceil(THREADS_PER_UNIT) as usize;
        if w <= w_max && t <= t_max && it.threads <= cap.thread_limit {
            pre.items.push(PrepItem {
                pos,
                w,
                t,
                threads: it.threads,
            });
        }
    }
    pre.truncated = truncate_classes(&mut pre.items, |w, t| class_cap(w, t, w_max, t_max));
    pre
}

/// Preprocess for the 1-D solver ([`crate::solve_prepped_1d_with`]).
/// Applies exactly [`crate::solve_1d_filtered_with`]'s fit filter (memory
/// and per-item thread limit, but no thread-unit dimension), then truncates
/// on the memory dimension only.
pub fn prep_1d(items: &[PackItem], cap: &Capacity) -> Prepped {
    let w_max = cap.units();
    let mut pre = Prepped {
        items: Vec::new(),
        w_max,
        t_max: 0,
        thread_limit: cap.thread_limit,
        value_ref: cap.value_threads(),
        truncated: 0,
    };
    if w_max == 0 {
        return pre;
    }
    for (pos, it) in items.iter().enumerate() {
        let w = cap.item_units(it.mem_mb);
        if w <= w_max && it.threads <= cap.thread_limit {
            pre.items.push(PrepItem {
                pos,
                w,
                t: it.threads.div_ceil(THREADS_PER_UNIT) as usize,
                threads: it.threads,
            });
        }
    }
    pre.truncated = truncate_classes(&mut pre.items, |w, _| class_cap(w, 0, w_max, 0));
    pre
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{solve_prepped_1d_with, solve_prepped_2d_with};
    use crate::{solve_1d_filtered, solve_2d, DpScratch, ValueFunction};

    fn it(index: usize, mem_mb: u64, threads: u32) -> PackItem {
        PackItem {
            index,
            mem_mb,
            threads,
        }
    }

    /// Map a prepped solve back to original item indices.
    fn prepped_selected_2d(items: &[PackItem], cap: &Capacity, vf: ValueFunction) -> Vec<usize> {
        let pre = prep_2d(items, cap);
        let (pos, _) = solve_prepped_2d_with(&pre, vf, &mut DpScratch::default());
        pos.into_iter()
            .map(|p| items[pre.items[p].pos].index)
            .collect()
    }

    fn prepped_selected_1d(items: &[PackItem], cap: &Capacity, vf: ValueFunction) -> Vec<usize> {
        let pre = prep_1d(items, cap);
        let (pos, _) = solve_prepped_1d_with(&pre, vf, &mut DpScratch::default());
        pos.into_iter()
            .map(|p| items[pre.items[p].pos].index)
            .collect()
    }

    #[test]
    fn all_identical_items_truncate_to_capacity_cap() {
        let cap = Capacity::phi(7680);
        // 100 identical items; at 1000 MB each only ⌊153/20⌋ = 7 can ever
        // fit by memory, and ⌊60/10⌋ = 6 by threads → keep 6.
        let items: Vec<PackItem> = (0..100).map(|i| it(i, 1000, 40)).collect();
        let pre = prep_2d(&items, &cap);
        assert_eq!(pre.items.len(), 6);
        assert_eq!(pre.truncated, 94);
        // Earliest copies survive (FIFO tie-break preserved).
        assert_eq!(
            pre.items.iter().map(|p| p.pos).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        // And the solve still matches the raw path exactly.
        let raw = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        assert_eq!(
            prepped_selected_2d(&items, &cap, ValueFunction::PaperQuadratic),
            raw.selected
        );
    }

    #[test]
    fn all_oversized_items_yield_empty_instance() {
        let cap = Capacity::phi(1000);
        let items = [it(0, 2000, 60), it(1, 9000, 60), it(2, 100, 900)];
        let pre = prep_2d(&items, &cap);
        assert!(pre.items.is_empty());
        assert_eq!(pre.truncated, 0, "fit-filtered items are not 'truncated'");
        assert!(prepped_selected_2d(&items, &cap, ValueFunction::default()).is_empty());
        assert!(solve_2d(&items, &cap, ValueFunction::default()).is_empty());
    }

    #[test]
    fn zero_capacity_yields_empty_instance() {
        let items = [it(0, 100, 4)];
        assert!(prep_2d(&items, &Capacity::phi(0)).items.is_empty());
        assert!(prep_1d(&items, &Capacity::phi(0)).items.is_empty());
        let zero_threads = Capacity {
            mem_mb: 1000,
            granularity_mb: 50,
            thread_limit: 0,
            value_ref_threads: 0,
        };
        assert!(prep_2d(&items, &zero_threads).items.is_empty());
    }

    #[test]
    fn one_d_prep_ignores_thread_units_but_respects_thread_limit() {
        let cap = Capacity::phi(7680);
        // 300-thread item: excluded from both (per-item limit), but an item
        // with threads == limit stays in 1-D even when its *unit* cost would
        // be 2-D borderline.
        let items = [it(0, 100, 300), it(1, 100, 240), it(2, 100, 240)];
        let p1 = prep_1d(&items, &cap);
        assert_eq!(p1.items.iter().map(|p| p.pos).collect::<Vec<_>>(), [1, 2]);
        let raw = solve_1d_filtered(&items, &cap, ValueFunction::PaperQuadratic);
        assert_eq!(
            prepped_selected_1d(&items, &cap, ValueFunction::PaperQuadratic),
            raw.selected
        );
    }

    #[test]
    fn multiplicity_expansion_matches_exhaustive_on_small_instances() {
        use crate::exhaustive::solve_exhaustive;
        // Heavy duplication in a small instance: DP (prepped and raw) and
        // the brute-force oracle must agree on the packed value, and
        // prepped/raw must agree on the exact selected set (value ties are
        // broken by the documented FIFO order in both DP paths).
        let cap = Capacity {
            mem_mb: 2000,
            granularity_mb: 50,
            thread_limit: 240,
            value_ref_threads: 240,
        };
        let mut items = Vec::new();
        for i in 0..6 {
            items.push(it(i, 600, 60)); // class A: ⌊40/12⌋ = 3 by memory cap
        }
        for i in 6..12 {
            items.push(it(i, 400, 80)); // class B
        }
        let pre = prep_2d(&items, &cap);
        assert!(pre.truncated > 0, "expected truncation to engage");
        let raw = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        let prepped = prepped_selected_2d(&items, &cap, ValueFunction::PaperQuadratic);
        assert_eq!(prepped, raw.selected);
        // Earliest copies of each class are the ones selected.
        let class_a: Vec<usize> = raw.selected.iter().copied().filter(|&i| i < 6).collect();
        assert_eq!(class_a, (0..class_a.len()).collect::<Vec<_>>());
        let ex = solve_exhaustive(&items, &cap, ValueFunction::PaperQuadratic);
        assert!((ex.total_value - raw.total_value).abs() < 1e-12);
        assert_eq!(ex.selected.len(), raw.selected.len());
    }

    #[test]
    fn prepped_solves_match_raw_on_randomized_instances() {
        // Deterministic pseudo-random sweep (no external RNG): mixed
        // duplication, sizes and capacities, both variants.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let n = (next() % 24) as usize + 1;
            let items: Vec<PackItem> = (0..n)
                .map(|i| {
                    let mem = 100 * (next() % 30 + 1); // 100..3000 MB
                    let threads = 4 * (next() % 70) as u32; // 0..276
                    it(i, mem, threads)
                })
                .collect();
            let cap = Capacity {
                mem_mb: 500 * (next() % 16), // 0..7500 MB
                granularity_mb: 50,
                thread_limit: 240,
                value_ref_threads: 240,
            };
            let raw2 = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
            let fast2 = prepped_selected_2d(&items, &cap, ValueFunction::PaperQuadratic);
            assert_eq!(fast2, raw2.selected, "2-D diverged on case {case}");
            let raw1 = solve_1d_filtered(&items, &cap, ValueFunction::PaperQuadratic);
            let fast1 = prepped_selected_1d(&items, &cap, ValueFunction::PaperQuadratic);
            assert_eq!(fast1, raw1.selected, "1-D diverged on case {case}");
        }
    }
}
