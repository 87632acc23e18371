//! Core sets and the core allocator COSMIC uses for affinitization.
//!
//! The paper's node middleware "automatically affinitizes threads to cores
//! such that the jobs do not overlap and core utilization is maximized"
//! (§IV-D2). [`CoreAllocator`] hands out disjoint [`CoreSet`]s, preferring
//! contiguous runs (matching how `KMP_AFFINITY=compact` lays threads out on
//! the real card) and falling back to scattered cores under fragmentation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of cores on one device, as a 64-bit mask (real Phi generations have
/// at most 61 cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CoreSet(u64);

impl CoreSet {
    /// The empty set.
    pub(crate) const EMPTY: CoreSet = CoreSet(0);

    /// Build from a raw mask.
    #[inline]
    pub(crate) const fn from_mask(mask: u64) -> Self {
        CoreSet(mask)
    }

    /// The raw mask.
    #[inline]
    pub(crate) const fn mask(self) -> u64 {
        self.0
    }

    /// Number of cores in the set.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when the two sets share no core.
    #[inline]
    pub const fn is_disjoint(self, other: CoreSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Set union.
    #[inline]
    pub(crate) const fn union(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 | other.0)
    }

    /// A contiguous run of `n` cores starting at `start`.
    pub fn contiguous(start: u32, n: u32) -> CoreSet {
        assert!(start + n <= 64, "core range out of mask bounds");
        if n == 0 {
            CoreSet::EMPTY
        } else if n == 64 {
            CoreSet(u64::MAX)
        } else {
            CoreSet(((1u64 << n) - 1) << start)
        }
    }
}

/// Start of the lowest run of `n ≥ 1` consecutive set bits in `free`.
///
/// Bit `i` of `runs` is set while bits `i .. i + covered` of `free` all
/// are. ANDing `runs` with itself shifted right by `step ≤ covered` joins
/// the run at `i` to the one at `i + step`, extending `covered` by `step`;
/// doubling the step reaches `n` in ⌈log₂ n⌉ rounds. The shift fills with
/// zeros, so no run crosses the top of the mask.
fn first_run(free: u64, n: u32) -> Option<u32> {
    let mut runs = free;
    let mut covered = 1;
    while covered < n {
        let step = covered.min(n - covered);
        runs &= runs >> step;
        covered += step;
    }
    (runs != 0).then(|| runs.trailing_zeros())
}

/// The lowest `n` set bits of `free`, which must have at least `n`.
fn lowest_bits(mut free: u64, n: u32) -> CoreSet {
    let mut mask = 0;
    for _ in 0..n {
        debug_assert!(free != 0, "fewer than {n} free cores");
        let low = free & free.wrapping_neg();
        mask |= low;
        free ^= low;
    }
    CoreSet::from_mask(mask)
}

impl fmt::Display for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cores[{}]", self.count())
    }
}

/// Allocates disjoint core sets on one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreAllocator {
    total_cores: u32,
    used: CoreSet,
}

impl CoreAllocator {
    /// Create an allocator for a device with `total_cores` cores.
    pub fn new(total_cores: u32) -> Self {
        assert!(
            (1..=64).contains(&total_cores),
            "CoreAllocator supports 1..=64 cores"
        );
        CoreAllocator {
            total_cores,
            used: CoreSet::EMPTY,
        }
    }

    /// Cores currently free.
    pub(crate) fn free_cores(&self) -> u32 {
        self.total_cores - self.used.count()
    }

    /// Allocate `n` cores, preferring the lowest-indexed contiguous run and
    /// falling back to scattered free cores. Returns `None` when fewer than
    /// `n` cores are free.
    pub fn allocate(&mut self, n: u32) -> Option<CoreSet> {
        if n == 0 {
            return Some(CoreSet::EMPTY);
        }
        if n > self.free_cores() {
            return None;
        }
        let free = CoreSet::contiguous(0, self.total_cores).mask() & !self.used.mask();
        let set = match first_run(free, n) {
            // First fit: lowest contiguous run of n free cores.
            Some(start) => CoreSet::contiguous(start, n),
            // Fragmented: the lowest n free cores individually.
            None => lowest_bits(free, n),
        };
        self.used = self.used.union(set);
        Some(set)
    }

    /// Return a previously allocated set.
    ///
    /// # Panics
    /// Panics if any core in `set` is not currently allocated (double free).
    pub fn release(&mut self, set: CoreSet) {
        assert_eq!(
            self.used.mask() & set.mask(),
            set.mask(),
            "releasing cores that were not allocated"
        );
        self.used = CoreSet::from_mask(self.used.mask() & !set.mask());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan `allocate` replaced: every start position's mask in turn,
    /// then the lowest free cores one by one.
    fn allocate_by_scan(alloc: &mut CoreAllocator, n: u32) -> Option<CoreSet> {
        if n == 0 {
            return Some(CoreSet::EMPTY);
        }
        if n > alloc.free_cores() {
            return None;
        }
        for start in 0..=(alloc.total_cores - n) {
            let candidate = CoreSet::contiguous(start, n);
            if candidate.is_disjoint(alloc.used) {
                alloc.used = alloc.used.union(candidate);
                return Some(candidate);
            }
        }
        let mut mask = 0u64;
        let mut got = 0;
        for core in 0..alloc.total_cores {
            let bit = 1u64 << core;
            if alloc.used.mask() & bit == 0 {
                mask |= bit;
                got += 1;
                if got == n {
                    break;
                }
            }
        }
        let set = CoreSet::from_mask(mask);
        alloc.used = alloc.used.union(set);
        Some(set)
    }

    /// A used mask: uniform bits, sparse or dense bits, or every other
    /// core (free cores but no run longer than one).
    fn arb_used() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (any::<u64>(), any::<u64>()).prop_map(|(a, b)| a & b),
            (any::<u64>(), any::<u64>()).prop_map(|(a, b)| a | b),
            (0u32..2).prop_map(|phase| 0x5555_5555_5555_5555u64 << phase),
        ]
    }

    proptest! {
        #[test]
        fn run_mask_first_fit_equals_the_scan(
            total in 1u32..=64,
            used in arb_used(),
            n in 0u32..=64,
        ) {
            let used = CoreSet::from_mask(used & CoreSet::contiguous(0, total).mask());
            let mut fast = CoreAllocator { total_cores: total, used };
            let mut scan = fast.clone();
            prop_assert_eq!(fast.allocate(n), allocate_by_scan(&mut scan, n));
            prop_assert_eq!(fast.used, scan.used);
        }
    }

    #[test]
    fn run_mask_finds_runs_at_the_mask_edges() {
        assert_eq!(first_run(u64::MAX, 64), Some(0));
        assert_eq!(first_run(u64::MAX << 1, 64), None);
        assert_eq!(first_run(u64::MAX << 1, 63), Some(1));
        assert_eq!(first_run(0b1110_1101, 3), Some(5));
        assert_eq!(first_run(0b1110_1101, 4), None);
        assert_eq!(lowest_bits(0b1110_1101, 4), CoreSet::from_mask(0b0010_1101));
    }

    #[test]
    fn coreset_basics() {
        let a = CoreSet::contiguous(0, 4);
        let b = CoreSet::contiguous(4, 4);
        assert_eq!(a.count(), 4);
        assert!(a.is_disjoint(b));
        assert_eq!(a.union(b).count(), 8);
        assert_eq!(CoreSet::EMPTY.count(), 0);
        assert_eq!(CoreSet::contiguous(0, 64).count(), 64);
        assert_eq!(a.to_string(), "cores[4]");
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut alloc = CoreAllocator::new(60);
        let a = alloc.allocate(30).unwrap();
        let b = alloc.allocate(30).unwrap();
        assert!(a.is_disjoint(b));
        assert_eq!(alloc.free_cores(), 0);
        assert_eq!(alloc.allocate(1), None);
    }

    #[test]
    fn release_enables_reuse() {
        let mut alloc = CoreAllocator::new(60);
        let a = alloc.allocate(45).unwrap();
        assert!(alloc.allocate(30).is_none());
        alloc.release(a);
        assert_eq!(alloc.free_cores(), 60);
        assert!(alloc.allocate(60).is_some());
    }

    #[test]
    fn fragmented_allocation_scatters() {
        let mut alloc = CoreAllocator::new(8);
        let a = alloc.allocate(2).unwrap(); // cores 0-1
        let b = alloc.allocate(2).unwrap(); // cores 2-3
        let c = alloc.allocate(2).unwrap(); // cores 4-5
        alloc.release(b); // free 2-3: free set = {2,3,6,7}, fragmented
        let d = alloc.allocate(3).unwrap(); // no contiguous run of 3
        assert_eq!(d.count(), 3);
        assert!(d.is_disjoint(a));
        assert!(d.is_disjoint(c));
        assert_eq!(alloc.free_cores(), 1);
    }

    #[test]
    fn zero_allocation_is_empty() {
        let mut alloc = CoreAllocator::new(4);
        assert_eq!(alloc.allocate(0), Some(CoreSet::EMPTY));
        assert_eq!(alloc.free_cores(), 4);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut alloc = CoreAllocator::new(8);
        let a = alloc.allocate(2).unwrap();
        alloc.release(a);
        alloc.release(a);
    }

    #[test]
    fn prefers_contiguous_lowest() {
        let mut alloc = CoreAllocator::new(16);
        let a = alloc.allocate(4).unwrap();
        assert_eq!(a, CoreSet::contiguous(0, 4));
        let b = alloc.allocate(4).unwrap();
        assert_eq!(b, CoreSet::contiguous(4, 4));
    }
}
