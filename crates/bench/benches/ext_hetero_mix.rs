//! EXT-7 — heterogeneous accelerator pools on the shared-throughput
//! substrate.
//!
//! The paper's cluster is all-5110P. This extension reruns the Fig. 7
//! synthetic distributions through the shared-throughput substrate twice:
//! once on the homogeneous Phi pool, once with every even-numbered node's
//! card swapped for a GPU-like accelerator (no hardware-thread cap, SM
//! saturation at 32 concurrent kernels). The GPU-like card absorbs
//! thread-heavy jobs that oversubscribe a Phi, so the mixed pool should
//! shorten makespans on thread-skewed distributions while the sharing
//! policies (MCC vs MCCK) keep their relative order.

use phishare_bench::{
    banner, persist_json, run_sweep_sharded_auto, synthetic_workload, EXPERIMENT_SEED,
};
use phishare_cluster::report::{pct, secs, table};
use phishare_cluster::sweep::SweepJob;
use phishare_cluster::{ClusterConfig, DevicePool, DeviceSku, SubstrateMode};
use phishare_core::ClusterPolicy;
use phishare_workload::ResourceDist;
use serde::Serialize;

const JOBS: usize = 200;
const NODES: u32 = 8;
const DISTS: [ResourceDist; 4] = [
    ResourceDist::Uniform,
    ResourceDist::Normal,
    ResourceDist::LowSkew,
    ResourceDist::HighSkew,
];
const POLICIES: [ClusterPolicy; 2] = [ClusterPolicy::Mcc, ClusterPolicy::Mcck];

#[derive(Serialize)]
struct Row {
    dist: String,
    policy: String,
    pool: String,
    makespan_secs: f64,
    completed: usize,
}

fn main() {
    banner(
        "EXT-7",
        "Fig. 7 distributions on a heterogeneous Phi + GPU-like pool",
        "mixed pool shortens thread-bound makespans; MCCK keeps its edge over MCC",
    );

    let pools: [(&str, DevicePool); 2] = [
        ("phi-only", DevicePool::Uniform),
        ("phi+gpu", DevicePool::Alternate(DeviceSku::GpuLike)),
    ];

    let mut grid = Vec::new();
    for dist in DISTS {
        let wl = synthetic_workload(dist, JOBS, EXPERIMENT_SEED);
        for policy in POLICIES {
            for (pool_name, pool) in &pools {
                let mut config = ClusterConfig::paper_cluster(policy).with_nodes(NODES);
                config.pool = *pool;
                grid.push(SweepJob {
                    label: format!("{dist}|{policy}|{pool_name}"),
                    config,
                    workload: wl.clone(),
                });
            }
        }
    }
    // Sharded across worker processes on the shared-throughput substrate —
    // the manifest round-trips the substrate spelling, and the merge is
    // bit-identical to the in-process `run_sweep`.
    let results = run_sweep_sharded_auto(
        grid,
        SubstrateMode::Shared,
        env!("CARGO_BIN_EXE_phishare-bench"),
    );

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let mut parts = label.split('|');
            let (dist, policy, pool) = (
                parts.next().unwrap(),
                parts.next().unwrap(),
                parts.next().unwrap(),
            );
            let r = res.as_ref().expect("cell runs");
            Row {
                dist: dist.into(),
                policy: policy.into(),
                pool: pool.into(),
                makespan_secs: r.makespan_secs,
                completed: r.completed,
            }
        })
        .collect();

    // Each chunk of 2 is (phi-only, phi+gpu) for one (dist, policy) cell.
    let mut printable = Vec::new();
    for pair in rows.chunks(2) {
        let (phi, mixed) = (&pair[0], &pair[1]);
        printable.push(vec![
            phi.dist.clone(),
            phi.policy.clone(),
            secs(phi.makespan_secs),
            secs(mixed.makespan_secs),
            pct(100.0 * (1.0 - mixed.makespan_secs / phi.makespan_secs)),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Distribution",
                "Policy",
                "Phi-only (s)",
                "Phi+GPU (s)",
                "Mixed vs Phi",
            ],
            &printable
        )
    );
    persist_json("ext_hetero_mix", &rows);
}
