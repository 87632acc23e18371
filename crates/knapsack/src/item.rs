//! Items, capacities and packing results.

use serde::{Deserialize, Serialize};

/// One candidate job as the packer sees it: just its declared envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackItem {
    /// Caller-side index (e.g. position in the pending queue). The packer
    /// never interprets it; [`Packing::selected`] reports these back.
    pub index: usize,
    /// Declared device memory, MB (the knapsack weight).
    pub mem_mb: u64,
    /// Declared thread requirement (drives the value function and the
    /// thread-sum constraint).
    pub threads: u32,
}

/// The knapsack to fill: one device's free envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capacity {
    /// Free device memory, MB.
    pub mem_mb: u64,
    /// Memory discretization granularity, MB (paper §IV-C suggests 50 MB).
    pub granularity_mb: u64,
    /// Thread *budget* for this packing round — the value-zero rule caps the
    /// packed set's thread sum at this (240 on the Phi; less in the strict
    /// resident-thread ablation).
    pub thread_limit: u32,
    /// Reference `T` for the value function `1 − (t/T)²`. Usually the
    /// hardware thread count even when `thread_limit` is a reduced budget;
    /// `0` means "same as `thread_limit`".
    pub value_ref_threads: u32,
}

impl Capacity {
    /// A standard Xeon Phi knapsack with the given free memory.
    pub fn phi(mem_mb: u64) -> Self {
        Capacity {
            mem_mb,
            granularity_mb: 50,
            thread_limit: 240,
            value_ref_threads: 240,
        }
    }

    /// The thread count the value function normalizes by.
    pub fn value_threads(&self) -> u32 {
        if self.value_ref_threads == 0 {
            self.thread_limit
        } else {
            self.value_ref_threads
        }
    }

    /// Number of memory units at this granularity (rounded down: a partial
    /// trailing unit cannot hold a whole item unit).
    pub fn units(&self) -> usize {
        assert!(self.granularity_mb > 0, "granularity must be positive");
        (self.mem_mb / self.granularity_mb) as usize
    }

    /// An item's weight in units (rounded **up**, so discretization never
    /// lets a packing exceed the real capacity).
    pub fn item_units(&self, mem_mb: u64) -> usize {
        mem_mb.div_ceil(self.granularity_mb) as usize
    }
}

/// The result of packing one knapsack.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Packing {
    /// `index` fields of the selected items, ascending.
    pub selected: Vec<usize>,
    /// Sum of the selected items' values under the value function used.
    pub total_value: f64,
    /// Sum of the selected items' declared memory, MB.
    pub total_mem_mb: u64,
    /// Sum of the selected items' declared threads.
    pub total_threads: u32,
}

impl Packing {
    /// Build a packing from the selected subset of `items`.
    pub(crate) fn from_selection(
        items: &[PackItem],
        mut selected: Vec<usize>,
        total_value: f64,
    ) -> Self {
        selected.sort_unstable();
        let total_mem_mb = selected.iter().map(|&i| lookup(items, i).mem_mb).sum();
        let total_threads = selected.iter().map(|&i| lookup(items, i).threads).sum();
        Packing {
            selected,
            total_value,
            total_mem_mb,
            total_threads,
        }
    }
}

/// Assertion helpers of the solver tests.
#[cfg(test)]
impl Packing {
    /// Number of items packed — the paper's *job concurrency* objective.
    pub(crate) fn concurrency(&self) -> usize {
        self.selected.len()
    }

    /// True when the packing respects both the memory capacity and the
    /// thread limit.
    pub(crate) fn is_feasible(&self, cap: &Capacity) -> bool {
        self.total_mem_mb <= cap.mem_mb && self.total_threads <= cap.thread_limit
    }

    /// True when nothing was packed.
    pub(crate) fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

fn lookup(items: &[PackItem], index: usize) -> &PackItem {
    items
        .iter()
        .find(|it| it.index == index)
        .expect("selected index not present in item list")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_round_capacity_down_and_items_up() {
        let cap = Capacity {
            mem_mb: 7680,
            granularity_mb: 50,
            thread_limit: 240,
            value_ref_threads: 0,
        };
        assert_eq!(cap.units(), 153); // 7680/50 = 153.6 → 153
        assert_eq!(cap.item_units(50), 1);
        assert_eq!(cap.item_units(51), 2);
        assert_eq!(cap.item_units(0), 0);
    }

    #[test]
    fn phi_defaults() {
        let cap = Capacity::phi(7680);
        assert_eq!(cap.granularity_mb, 50);
        assert_eq!(cap.thread_limit, 240);
    }

    #[test]
    fn packing_aggregates_from_selection() {
        let items = [
            PackItem {
                index: 10,
                mem_mb: 100,
                threads: 60,
            },
            PackItem {
                index: 11,
                mem_mb: 200,
                threads: 120,
            },
            PackItem {
                index: 12,
                mem_mb: 400,
                threads: 240,
            },
        ];
        let p = Packing::from_selection(&items, vec![12, 10], 1.5);
        assert_eq!(p.selected, vec![10, 12]);
        assert_eq!(p.total_mem_mb, 500);
        assert_eq!(p.total_threads, 300);
        assert_eq!(p.concurrency(), 2);
        assert!(!p.is_feasible(&Capacity::phi(7680))); // 300 threads > 240
        assert!(p.is_feasible(&Capacity {
            mem_mb: 500,
            granularity_mb: 50,
            thread_limit: 300,
            value_ref_threads: 0,
        }));
    }

    #[test]
    fn empty_packing() {
        let p = Packing::default();
        assert!(p.is_empty());
        assert!(p.is_feasible(&Capacity::phi(0)));
    }
}
