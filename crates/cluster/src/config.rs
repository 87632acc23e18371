//! Cluster configuration.

use crate::fault::{FaultConfig, RecoveryConfig};
use crate::perturb::PerturbConfig;
use phishare_condor::MatchPath;
use phishare_core::{ClusterPolicy, KnapsackConfig};
use phishare_cosmic::CosmicConfig;
use phishare_phi::{DeviceSpec, PerfModel, PhiConfig, SharingCurve};
use phishare_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// A named accelerator SKU the pool can instantiate per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceSku {
    /// The paper's evaluation card (60 cores, 8 GB).
    Phi5110p,
    /// Top-end Phi generation (61 cores, 16 GB).
    Phi7120p,
    /// Budget Phi generation (57 cores, 6 GB).
    Phi3120a,
    /// GPU-shaped accelerator: 2048 hardware threads (no effective thread
    /// cap), 24 GB, kernel-saturation degradation curve.
    GpuLike,
}

impl DeviceSku {
    /// The full device spec for this SKU under the given perf model.
    pub(crate) fn spec(&self, perf: PerfModel) -> DeviceSpec {
        match self {
            DeviceSku::Phi5110p => DeviceSpec {
                phi: PhiConfig::phi_5110p(),
                perf,
                curve: SharingCurve::phi(),
            },
            DeviceSku::Phi7120p => DeviceSpec {
                phi: PhiConfig::phi_7120p(),
                perf,
                curve: SharingCurve::phi(),
            },
            DeviceSku::Phi3120a => DeviceSpec {
                phi: PhiConfig::phi_3120a(),
                perf,
                curve: SharingCurve::phi(),
            },
            DeviceSku::GpuLike => DeviceSpec {
                phi: PhiConfig::gpu_like(),
                perf,
                curve: SharingCurve::gpu_like(),
            },
        }
    }
}

/// Which cards the cluster's nodes carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DevicePool {
    /// Every node carries the card described by `ClusterConfig::{phi,
    /// perf, curve}` — the paper's homogeneous testbed.
    #[default]
    Uniform,
    /// Even-numbered nodes carry this SKU instead; odd-numbered nodes keep
    /// the uniform card. The smallest heterogeneous pool that still
    /// exercises every per-node capacity path.
    Alternate(DeviceSku),
}

impl FromStr for DevicePool {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(DevicePool::Uniform),
            "gpu-mix" => Ok(DevicePool::Alternate(DeviceSku::GpuLike)),
            "phi-mix" => Ok(DevicePool::Alternate(DeviceSku::Phi3120a)),
            "phi7120-mix" => Ok(DevicePool::Alternate(DeviceSku::Phi7120p)),
            other => Err(format!(
                "unknown device pool '{other}' (expected uniform, gpu-mix, phi-mix or phi7120-mix)"
            )),
        }
    }
}

/// Full description of one simulated cluster and its software stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of compute nodes.
    pub nodes: u32,
    /// Xeon Phi cards per node (1 in the paper's testbed).
    pub devices_per_node: u32,
    /// Condor slots per node (one per host core; the paper's nodes have two
    /// 8-core Xeons → 16).
    pub slots_per_node: u32,
    /// Host cores per node available to jobs' host phases. With the default
    /// (16, matching the slot count) hosts are never contended — the
    /// paper's §V-A assumption; lowering it makes jobs' host phases fair-
    /// share the cores, the caveat measured by `abl_host_contention`.
    pub host_cores_per_node: u32,
    /// Device hardware shape (the uniform card; see `pool`).
    pub phi: PhiConfig,
    /// Device performance model.
    pub perf: PerfModel,
    /// Fair-sharing degradation curve for the shared-throughput
    /// substrates (ignored by the per-offload Phi substrates).
    pub curve: SharingCurve,
    /// Which cards the nodes carry: `Uniform` reproduces the paper's
    /// homogeneous testbed, `Alternate(sku)` puts that SKU on
    /// even-numbered nodes.
    pub pool: DevicePool,
    /// Node middleware configuration (used by MCC / MCCK).
    pub cosmic: CosmicConfig,
    /// Which software stack runs the cluster.
    pub policy: ClusterPolicy,
    /// Gap between periodic Condor negotiation cycles.
    pub negotiation_interval: SimDuration,
    /// Which negotiation implementation cycles run. `Delta` (the default)
    /// does incremental delta-driven matchmaking; `Full` re-matches every
    /// pending job each cycle. Both are proptested bit-identical.
    pub negotiation: MatchPath,
    /// Latency of an *update-triggered* negotiation: when qedited job
    /// requirements reach the collector (e.g. after a completion-driven
    /// repack), Condor starts an extra cycle after this delay (§IV-D1:
    /// "triggered when the Condor collector obtains the changed job
    /// requirements"). This, plus `dispatch_delay`, is the integration
    /// overhead the paper attributes its high-skew degradation to.
    pub negotiation_trigger_delay: SimDuration,
    /// Shadow/starter latency between a match and the job actually starting
    /// on the node (file transfer + process spawn).
    pub dispatch_delay: SimDuration,
    /// MCCK scheduler configuration (ignored by MC / MCC).
    pub knapsack: KnapsackConfig,
    /// Fraction of a job's peak memory committed at attach time; the rest
    /// grows across its offloads (§II-C: commits and stacks grow late).
    pub initial_commit_fraction: f64,
    /// Failure-injection rates (all zero by default: nothing is injected
    /// and every timeline is untouched).
    pub faults: FaultConfig,
    /// What the stack does with jobs hit by an injected failure.
    pub recovery: RecoveryConfig,
    /// Chaos perturbation stack (all disabled by default: nothing is
    /// perturbed and every timeline is untouched).
    pub perturb: PerturbConfig,
    /// Collector partition count for partition-parallel matchmaking,
    /// clamped to `1..=16` (`0`, the default, means 1).
    /// Results are partition-count-invariant; only wall-clock changes.
    pub partitions: usize,
    /// Whether the runtime may skip provably quiescent negotiation cycles
    /// (on by default). Skipped cycles are counted in
    /// `ExperimentResult::cycles_skipped`; every other result field is
    /// bit-identical either way.
    pub skip_quiescent: bool,
    /// Master seed for all stochastic components of the *cluster* (workload
    /// seeds live in the workload itself).
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            devices_per_node: 1,
            slots_per_node: 16,
            host_cores_per_node: 16,
            phi: PhiConfig::default(),
            perf: PerfModel::default(),
            curve: SharingCurve::default(),
            pool: DevicePool::default(),
            cosmic: CosmicConfig::default(),
            policy: ClusterPolicy::Mcck,
            negotiation_interval: SimDuration::from_secs(10),
            negotiation: MatchPath::default(),
            negotiation_trigger_delay: SimDuration::from_secs(2),
            dispatch_delay: SimDuration::from_secs(1),
            knapsack: KnapsackConfig::default(),
            initial_commit_fraction: 0.3,
            faults: FaultConfig::default(),
            recovery: RecoveryConfig::default(),
            perturb: PerturbConfig::default(),
            partitions: 0,
            skip_quiescent: true,
            seed: 0,
        }
    }
}

impl ClusterConfig {
    /// The paper's 8-node evaluation cluster under the given policy.
    pub fn paper_cluster(policy: ClusterPolicy) -> Self {
        ClusterConfig {
            policy,
            ..ClusterConfig::default()
        }
    }

    /// Same stack, different node count (for footprint searches and the
    /// Fig. 9 size sweep).
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The device spec node `node` carries (nodes are numbered from 1).
    ///
    /// `Uniform` pools return the config's own `phi`/`perf`/`curve` for
    /// every node; `Alternate(sku)` pools swap that SKU in on
    /// even-numbered nodes, so any multi-node cluster mixes generations.
    pub fn spec_for_node(&self, node: u32) -> DeviceSpec {
        match self.pool {
            DevicePool::Uniform => DeviceSpec {
                phi: self.phi,
                perf: self.perf,
                curve: self.curve,
            },
            DevicePool::Alternate(sku) => {
                if node.is_multiple_of(2) {
                    sku.spec(self.perf)
                } else {
                    DeviceSpec {
                        phi: self.phi,
                        perf: self.perf,
                        curve: self.curve,
                    }
                }
            }
        }
    }

    /// Every card as `(node, device)`, node-major.
    pub(crate) fn cards(&self) -> impl Iterator<Item = (u32, u32)> {
        let devices = self.devices_per_node;
        (1..=self.nodes).flat_map(move |node| (0..devices).map(move |device| (node, device)))
    }

    /// The largest per-device usable memory any node offers — the up-front
    /// admission bound: a job is only hopeless when *no* card in the pool
    /// could ever hold it.
    pub(crate) fn max_usable_mem_mb(&self) -> u64 {
        (1..=self.nodes)
            .map(|node| self.spec_for_node(node).phi.usable_mem_mb())
            .max()
            .unwrap_or(0)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.devices_per_node == 0 {
            return Err("nodes need at least one Phi device".into());
        }
        if self.slots_per_node == 0 {
            return Err("nodes need at least one Condor slot".into());
        }
        if self.host_cores_per_node == 0 {
            return Err("nodes need at least one host core".into());
        }
        if !(0.0..=1.0).contains(&self.initial_commit_fraction) {
            return Err("initial_commit_fraction must be in [0, 1]".into());
        }
        self.phi.validate()?;
        self.curve.validate()?;
        if let DevicePool::Alternate(sku) = self.pool {
            sku.spec(self.perf).validate()?;
        }
        self.faults.validate()?;
        self.recovery.validate()?;
        self.perturb.validate()?;
        if self.negotiation_interval.is_zero() {
            return Err("negotiation interval must be positive".into());
        }
        if self.partitions > phishare_condor::collector::MAX_PARTITIONS {
            return Err(format!(
                "partitions must be <= {} (0 = resolve from env)",
                phishare_condor::collector::MAX_PARTITIONS
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.devices_per_node, 1);
        assert_eq!(c.slots_per_node, 16);
        c.validate().unwrap();
    }

    #[test]
    fn builders() {
        let c = ClusterConfig::paper_cluster(ClusterPolicy::Mc)
            .with_nodes(5)
            .with_seed(9);
        assert_eq!(c.policy, ClusterPolicy::Mc);
        assert_eq!(c.nodes, 5);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn uniform_pool_gives_every_node_the_config_card() {
        let c = ClusterConfig::default();
        for node in 1..=c.nodes {
            let spec = c.spec_for_node(node);
            assert_eq!(spec.phi, c.phi);
            assert_eq!(spec.curve, c.curve);
        }
        assert_eq!(c.max_usable_mem_mb(), c.phi.usable_mem_mb());
    }

    #[test]
    fn alternate_pool_swaps_even_nodes() {
        let c = ClusterConfig {
            pool: DevicePool::Alternate(DeviceSku::GpuLike),
            ..ClusterConfig::default()
        };
        c.validate().unwrap();
        assert_eq!(c.spec_for_node(1).phi, c.phi);
        assert_eq!(c.spec_for_node(2).phi, PhiConfig::gpu_like());
        assert_eq!(c.spec_for_node(2).curve, SharingCurve::gpu_like());
        assert_eq!(c.spec_for_node(3).phi, c.phi);
        // The GPU card's 24 GB dominates the admission bound.
        assert_eq!(c.max_usable_mem_mb(), PhiConfig::gpu_like().usable_mem_mb());
    }

    #[test]
    fn device_pool_parses_from_cli_names() {
        assert_eq!(
            "uniform".parse::<DevicePool>().unwrap(),
            DevicePool::Uniform
        );
        assert_eq!(
            "gpu-mix".parse::<DevicePool>().unwrap(),
            DevicePool::Alternate(DeviceSku::GpuLike)
        );
        assert_eq!(
            "phi-mix".parse::<DevicePool>().unwrap(),
            DevicePool::Alternate(DeviceSku::Phi3120a)
        );
        assert!("warp-drive".parse::<DevicePool>().is_err());
    }

    #[test]
    fn validation_rejects_degenerate_clusters() {
        for f in [
            |c: &mut ClusterConfig| c.nodes = 0,
            |c: &mut ClusterConfig| c.devices_per_node = 0,
            |c: &mut ClusterConfig| c.slots_per_node = 0,
            |c: &mut ClusterConfig| c.host_cores_per_node = 0,
            |c: &mut ClusterConfig| c.initial_commit_fraction = 1.5,
            |c: &mut ClusterConfig| c.negotiation_interval = SimDuration::ZERO,
            |c: &mut ClusterConfig| c.partitions = 1000,
            |c: &mut ClusterConfig| c.faults.device_mtbf_secs = f64::NAN,
            |c: &mut ClusterConfig| {
                c.faults.node_mtbf_secs = 100.0;
                c.faults.node_downtime_secs = 0.0;
            },
            |c: &mut ClusterConfig| c.recovery.retry_base = SimDuration::ZERO,
            |c: &mut ClusterConfig| c.recovery.host_fallback_slowdown = 0.0,
            |c: &mut ClusterConfig| c.perturb.jitter_max_secs = f64::NAN,
            |c: &mut ClusterConfig| {
                c.perturb.derate.mean_gap_secs = 100.0;
                c.perturb.derate.factor = 2.0;
            },
            |c: &mut ClusterConfig| {
                c.perturb.latency.mean_gap_secs = 100.0;
                c.perturb.latency.extra_secs = 0.0;
            },
        ] {
            let mut c = ClusterConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
