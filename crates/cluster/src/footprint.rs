//! Coprocessor-footprint search (Tables II and III).
//!
//! The paper's footprint metric: the smallest cluster (number of Xeon
//! Phi-equipped nodes) on which a configuration achieves the *same makespan*
//! the baseline achieved on the full 8-node cluster. Because the sharing
//! configurations finish the job set faster per node, they can match the
//! baseline with fewer coprocessors — a direct cluster-size reduction for
//! coprocessor-intensive workloads.

use crate::config::ClusterConfig;
use crate::runtime::Experiment;
use phishare_workload::Workload;
use serde::{Deserialize, Serialize};

/// Result of a footprint search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FootprintResult {
    /// The makespan to match, seconds.
    pub target_makespan_secs: f64,
    /// Smallest node count whose makespan ≤ target (within tolerance), or
    /// `None` if even `max_nodes` missed it.
    pub nodes_required: Option<u32>,
    /// Every `(nodes, makespan_secs)` pair measured along the way — the raw
    /// series behind Fig. 9.
    pub curve: Vec<(u32, f64)>,
}

impl FootprintResult {
    /// Footprint reduction (in %) relative to a reference cluster size.
    pub fn reduction_vs(&self, reference_nodes: u32) -> Option<f64> {
        self.nodes_required
            .map(|n| 100.0 * (1.0 - n as f64 / reference_nodes as f64))
    }
}

/// Find the smallest cluster that matches `target_makespan_secs`
/// (the Table II/III entry point).
///
/// Walks node counts upward from 1 to `max_nodes`, running the full
/// simulation of `base` (its `nodes` field overridden) at each size (the
/// paper does the same: "we measure makespan on clusters of progressively
/// increasing sizes", §V-B). `tolerance` is the fractional slack allowed
/// over the target (0.0 = strict).
pub fn footprint_search(
    base: &ClusterConfig,
    workload: &Workload,
    target_makespan_secs: f64,
    max_nodes: u32,
    tolerance: f64,
) -> Result<FootprintResult, String> {
    assert!(max_nodes >= 1);
    assert!(tolerance >= 0.0);
    let mut curve = Vec::new();
    let mut nodes_required = None;
    for nodes in 1..=max_nodes {
        let makespan_secs = Experiment::run(&base.with_nodes(nodes), workload)?.makespan_secs;
        curve.push((nodes, makespan_secs));
        if makespan_secs <= target_makespan_secs * (1.0 + tolerance) {
            nodes_required = Some(nodes);
            // Stopping at the first hit keeps Table II cheap. Fig. 9 uses
            // `sweep` directly for the full curve.
            break;
        }
    }
    Ok(FootprintResult {
        target_makespan_secs,
        nodes_required,
        curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_core::ClusterPolicy;
    use phishare_workload::{WorkloadBuilder, WorkloadKind};

    fn workload() -> Workload {
        WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(40)
            .seed(11)
            .build()
    }

    #[test]
    fn sharing_needs_fewer_nodes_than_exclusive() {
        let wl = workload();
        let mut mc_cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mc);
        mc_cfg.nodes = 4;
        mc_cfg.knapsack.window = 64;
        let mc = Experiment::run(&mc_cfg, &wl).unwrap();

        let mut mcck_cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);
        mcck_cfg.knapsack.window = 64;
        let fp = footprint_search(&mcck_cfg, &wl, mc.makespan_secs, 4, 0.0).unwrap();
        let needed = fp.nodes_required.expect("4 nodes must suffice");
        assert!(needed < 4, "MCCK needed {needed} nodes to match MC@4");
        assert!(fp.reduction_vs(4).unwrap() > 0.0);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let wl = workload();
        let mut cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mc);
        cfg.knapsack.window = 64;
        let fp = footprint_search(&cfg, &wl, 1.0, 2, 0.0).unwrap();
        assert_eq!(fp.nodes_required, None);
        assert_eq!(fp.curve.len(), 2);
    }

    #[test]
    fn curve_is_recorded_up_to_the_hit() {
        let wl = workload();
        let mut cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);
        cfg.knapsack.window = 64;
        // A very loose target: one node suffices.
        let fp = footprint_search(&cfg, &wl, 1e9, 8, 0.0).unwrap();
        assert_eq!(fp.nodes_required, Some(1));
        assert_eq!(fp.curve.len(), 1);
    }
}
