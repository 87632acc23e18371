//! Device configuration.

use serde::{Deserialize, Serialize};

/// Static description of one Xeon Phi card.
///
/// Defaults follow the paper's evaluation cluster: 60 usable cores with 4
/// hardware threads each (240 threads), 8 GB of device RAM of which a slice
/// is reserved for the coprocessor's Linux, file system and daemons (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhiConfig {
    /// Number of usable compute cores.
    pub cores: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Total physical device memory in MB.
    pub memory_mb: u64,
    /// Memory reserved for the on-card OS, daemons and file system, in MB.
    pub os_reserved_mb: u64,
    /// Card power draw when idle, watts (PCIe Phi cards idle around
    /// 90–110 W).
    pub idle_watts: f64,
    /// Card power draw with every core busy, watts (the 5110P's TDP is
    /// 225 W; actively cooled SKUs reach 245 W).
    pub max_watts: f64,
}

impl Default for PhiConfig {
    fn default() -> Self {
        PhiConfig {
            cores: 60,
            threads_per_core: 4,
            memory_mb: 8192,
            os_reserved_mb: 512,
            idle_watts: 100.0,
            max_watts: 225.0,
        }
    }
}

impl PhiConfig {
    /// The 5110P SKU: 60 usable cores, 8 GB GDDR5, 225 W TDP — the paper's
    /// evaluation card (the default configuration).
    pub fn phi_5110p() -> Self {
        PhiConfig::default()
    }

    /// The 7120P SKU: 61 cores, 16 GB, 300 W TDP — the top of the paper's
    /// "8-16 GB" range (§II-A). Doubling the card memory doubles how many
    /// jobs a knapsack can hold (EXT-3 measures the effect).
    pub fn phi_7120p() -> Self {
        PhiConfig {
            cores: 61,
            threads_per_core: 4,
            memory_mb: 16 * 1024,
            os_reserved_mb: 512,
            idle_watts: 120.0,
            max_watts: 300.0,
        }
    }

    /// The 3120A SKU: 57 cores, 6 GB, 300 W TDP — the budget end.
    pub fn phi_3120a() -> Self {
        PhiConfig {
            cores: 57,
            threads_per_core: 4,
            memory_mb: 6 * 1024,
            os_reserved_mb: 512,
            idle_watts: 110.0,
            max_watts: 300.0,
        }
    }

    /// A GPU-like accelerator shape: 64 SM-like cores × 32 resident warps
    /// (2048 hardware threads — effectively no thread cap at Phi-scale
    /// offload sizes), 24 GB device memory, passively cooled datacenter
    /// power envelope. Pairs with `SharingCurve::gpu_like()`, whose
    /// degradation ignores the thread sum entirely.
    pub fn gpu_like() -> Self {
        PhiConfig {
            cores: 64,
            threads_per_core: 32,
            memory_mb: 24 * 1024,
            os_reserved_mb: 512,
            idle_watts: 60.0,
            max_watts: 350.0,
        }
    }

    /// Total hardware threads (`cores × threads_per_core`; 240 by default).
    #[inline]
    pub const fn hw_threads(&self) -> u32 {
        self.cores * self.threads_per_core
    }

    /// Device memory available to user processes, in MB.
    #[inline]
    pub const fn usable_mem_mb(&self) -> u64 {
        self.memory_mb - self.os_reserved_mb
    }

    /// Cores needed to host `threads` hardware threads (one core runs up to
    /// `threads_per_core`).
    #[inline]
    pub(crate) fn cores_for_threads(&self, threads: u32) -> u32 {
        threads.div_ceil(self.threads_per_core)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.threads_per_core == 0 {
            return Err("device must have at least one core and one thread per core".into());
        }
        if self.cores > 64 {
            // CoreSet is a 64-bit mask; real Phi generations top out at 61.
            return Err(format!("at most 64 cores supported, got {}", self.cores));
        }
        if self.os_reserved_mb >= self.memory_mb {
            return Err("OS reserve exceeds device memory".into());
        }
        if !(self.idle_watts.is_finite() && self.max_watts.is_finite())
            || self.idle_watts < 0.0
            || self.max_watts < self.idle_watts
        {
            return Err("power model requires 0 ≤ idle_watts ≤ max_watts".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_hardware() {
        let c = PhiConfig::default();
        assert_eq!(c.hw_threads(), 240);
        assert_eq!(c.usable_mem_mb(), 8192 - 512);
        c.validate().unwrap();
    }

    #[test]
    fn cores_for_threads_rounds_up() {
        let c = PhiConfig::default();
        assert_eq!(c.cores_for_threads(1), 1);
        assert_eq!(c.cores_for_threads(4), 1);
        assert_eq!(c.cores_for_threads(5), 2);
        assert_eq!(c.cores_for_threads(240), 60);
    }

    #[test]
    fn sku_presets_are_valid() {
        for sku in [
            PhiConfig::phi_5110p(),
            PhiConfig::phi_7120p(),
            PhiConfig::phi_3120a(),
        ] {
            sku.validate().unwrap();
            assert!(sku.hw_threads() >= 228);
        }
        assert_eq!(PhiConfig::phi_7120p().hw_threads(), 244);
        assert_eq!(PhiConfig::phi_7120p().usable_mem_mb(), 16 * 1024 - 512);
        let gpu = PhiConfig::gpu_like();
        gpu.validate().unwrap();
        assert_eq!(gpu.hw_threads(), 2048);
        assert_eq!(gpu.usable_mem_mb(), 24 * 1024 - 512);
    }

    #[test]
    fn power_model_validation() {
        let inverted = PhiConfig {
            max_watts: 50.0,
            ..PhiConfig::default()
        }; // below idle
        assert!(inverted.validate().is_err());
        let negative = PhiConfig {
            idle_watts: -1.0,
            ..PhiConfig::default()
        };
        assert!(negative.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let coreless = PhiConfig {
            cores: 0,
            ..PhiConfig::default()
        };
        assert!(coreless.validate().is_err());
        let oversized = PhiConfig {
            cores: 65,
            ..PhiConfig::default()
        };
        assert!(oversized.validate().is_err());
        let memoryless = PhiConfig {
            os_reserved_mb: PhiConfig::default().memory_mb,
            ..PhiConfig::default()
        };
        assert!(memoryless.validate().is_err());
    }
}
