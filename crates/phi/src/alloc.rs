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
    pub const EMPTY: CoreSet = CoreSet(0);

    /// Build from a raw mask.
    #[inline]
    pub const fn from_mask(mask: u64) -> Self {
        CoreSet(mask)
    }

    /// The raw mask.
    #[inline]
    pub const fn mask(self) -> u64 {
        self.0
    }

    /// Number of cores in the set.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no cores are in the set.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when the two sets share no core.
    #[inline]
    pub const fn is_disjoint(self, other: CoreSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: CoreSet) -> CoreSet {
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
    pub fn free_cores(&self) -> u32 {
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
        // First fit: lowest contiguous run of n free cores.
        for start in 0..=(self.total_cores - n) {
            let candidate = CoreSet::contiguous(start, n);
            if candidate.is_disjoint(self.used) {
                self.used = self.used.union(candidate);
                return Some(candidate);
            }
        }
        // Fragmented: gather the lowest n free cores individually.
        let mut mask = 0u64;
        let mut got = 0;
        for core in 0..self.total_cores {
            let bit = 1u64 << core;
            if self.used.mask() & bit == 0 {
                mask |= bit;
                got += 1;
                if got == n {
                    break;
                }
            }
        }
        debug_assert_eq!(got, n, "free_cores() said {n} cores were available");
        let set = CoreSet::from_mask(mask);
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

    #[test]
    fn coreset_basics() {
        let a = CoreSet::contiguous(0, 4);
        let b = CoreSet::contiguous(4, 4);
        assert_eq!(a.count(), 4);
        assert!(a.is_disjoint(b));
        assert_eq!(a.union(b).count(), 8);
        assert!(CoreSet::EMPTY.is_empty());
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
