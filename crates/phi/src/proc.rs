//! Coprocessor-side processes (COI processes).
//!
//! For every host job that offloads, the COI middleware creates one process
//! on the card (§II-B). The device model tracks these processes — their
//! declared envelope and their actually-committed memory — independently of
//! cluster-level job identity, so the device crate stays free of scheduling
//! concepts. The cluster layer maps `JobId ↔ ProcId`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a coprocessor-side (COI) process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u64);

impl ProcId {
    /// The raw integer id.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coi{}", self.0)
    }
}

/// A process resident on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Resident {
    /// Memory the job *declared* it may use at most (MB). Schedulers budget
    /// against this.
    pub declared_mem_mb: u64,
    /// Threads the job declared it may spawn at most.
    pub declared_threads: u32,
    /// Memory the process has actually committed so far (MB). Grows over the
    /// process lifetime (§II-C: stacks and commits grow late); the *physical*
    /// constraint applies to this.
    pub committed_mem_mb: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(ProcId(3).to_string(), "coi3");
        assert_eq!(ProcId(3).raw(), 3);
    }

    #[test]
    fn resident_is_plain_data() {
        let r = Resident {
            declared_mem_mb: 1000,
            declared_threads: 120,
            committed_mem_mb: 400,
        };
        assert!(r.committed_mem_mb <= r.declared_mem_mb);
    }
}
