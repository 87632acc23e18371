//! EXT-6 — graceful degradation under device failures.
//!
//! The paper evaluates a healthy cluster; real Phi deployments lose cards
//! to MPSS crashes. This extension sweeps the per-device MTBF and measures
//! how each policy's makespan and completion rate degrade, under both
//! recovery postures: `HostOnly` (victims finish on host cores at a
//! slowdown — nothing is lost, makespan stretches) and `Requeue` (victims
//! vacate and retry with exponential backoff — makespan stretches less per
//! victim, but jobs can exhaust their retry budget and end up held).
//!
//! The sweep covers both device pools: the paper's uniform 5110P cluster
//! and the heterogeneous `gpu-mix` pool, so degradation is measured on
//! mixed SKUs too.

use phishare_bench::{banner, persist_json, table1_workload};
use phishare_cluster::fault::FallbackPolicy;
use phishare_cluster::report::{pct, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::{ClusterConfig, DevicePool, SubstrateMode};
use phishare_core::ClusterPolicy;
use serde::Serialize;

const EXPERIMENT_SEED: u64 = 7;
const JOBS: usize = 300;
/// Per-device MTBF grid, seconds (0 = faults disabled).
const MTBFS: [f64; 4] = [0.0, 600.0, 300.0, 150.0];
/// Plan horizon: long enough to cover every run in the grid.
const HORIZON_SECS: f64 = 6000.0;
const POLICIES: [ClusterPolicy; 3] = [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck];
/// Device pools under test (parsed names keep labels grep-able).
const POOLS: [&str; 2] = ["uniform", "gpu-mix"];

#[derive(Serialize)]
struct Row {
    pool: String,
    policy: String,
    fallback: String,
    device_mtbf_secs: f64,
    makespan_secs: f64,
    completion_rate: f64,
    device_resets: u64,
    retries: u64,
    fallback_offloads: u64,
    held_after_retries: usize,
}

fn cfg(policy: ClusterPolicy, mtbf: f64, fallback: FallbackPolicy, pool: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster(policy);
    cfg.pool = pool.parse::<DevicePool>().expect("known pool name");
    cfg.faults.device_mtbf_secs = mtbf;
    cfg.faults.horizon_secs = if mtbf > 0.0 { HORIZON_SECS } else { 0.0 };
    cfg.recovery.fallback = fallback;
    cfg
}

fn main() {
    banner(
        "EXT-6",
        "makespan & completion-rate degradation vs device MTBF",
        "HostOnly: rate stays 1.0, makespan grows; Requeue: rate dips as retries exhaust",
    );

    let wl = table1_workload(JOBS, EXPERIMENT_SEED);
    let mut grid = Vec::new();
    for pool in POOLS {
        for fallback in [FallbackPolicy::HostOnly, FallbackPolicy::Requeue] {
            for policy in POLICIES {
                for mtbf in MTBFS {
                    grid.push(SweepJob {
                        label: format!("{pool}|{fallback:?}|{policy}|{mtbf}"),
                        config: cfg(policy, mtbf, fallback, pool),
                        workload: wl.clone(),
                    });
                }
            }
        }
    }
    let results = run_sweep(grid, default_threads(), SubstrateMode::Fast);

    let mut rows = Vec::new();
    let mut printable = Vec::new();
    for (label, result) in &results {
        let r = result.as_ref().expect("fault sweep runs");
        assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs,
            "{label}: job accounting leaked"
        );
        let mut parts = label.split('|');
        let pool = parts.next().expect("pool").to_string();
        let fallback = parts.next().expect("fallback").to_string();
        let policy = parts.next().expect("policy").to_string();
        let mtbf: f64 = parts.next().expect("mtbf").parse().expect("mtbf number");
        printable.push(vec![
            pool.clone(),
            fallback.clone(),
            policy.clone(),
            if mtbf > 0.0 {
                format!("{mtbf:.0}")
            } else {
                "off".into()
            },
            format!("{:.0}", r.makespan_secs),
            pct(100.0 * r.completion_rate()),
            r.device_resets.to_string(),
            r.retries.to_string(),
            r.fallback_offloads.to_string(),
            r.held_after_retries.to_string(),
        ]);
        rows.push(Row {
            pool,
            policy,
            fallback,
            device_mtbf_secs: mtbf,
            makespan_secs: r.makespan_secs,
            completion_rate: r.completion_rate(),
            device_resets: r.device_resets,
            retries: r.retries,
            fallback_offloads: r.fallback_offloads,
            held_after_retries: r.held_after_retries,
        });
    }
    println!(
        "{}",
        table(
            &[
                "Pool",
                "Fallback",
                "Policy",
                "MTBF s",
                "Makespan s",
                "Completed",
                "Resets",
                "Retries",
                "Host offl",
                "Held"
            ],
            &printable
        )
    );

    // Degradation sanity. Requeue always wastes completed work, so its
    // makespan must not beat the fault-free baseline. HostOnly makespan is
    // deliberately NOT asserted monotone: under MCC's random packing,
    // spilling offloads to otherwise-idle host cores acts as accidental
    // load-balancing and can *shorten* the run — a real finding, reported
    // in EXPERIMENTS.md rather than asserted away.
    for pool in POOLS {
        for policy in POLICIES {
            let find = |fb: &str, mtbf: f64| {
                rows.iter()
                    .find(|r| {
                        r.pool == pool
                            && r.policy == policy.to_string()
                            && r.fallback == fb
                            && r.device_mtbf_secs == mtbf
                    })
                    .expect("grid covers the point")
            };
            let clean = find("HostOnly", 0.0);
            let harsh_host = find("HostOnly", 150.0);
            let harsh_requeue = find("Requeue", 150.0);
            assert_eq!(
                clean.completion_rate, 1.0,
                "{pool}/{policy}: fault-free baseline must complete everything"
            );
            assert!(
                harsh_host.device_resets > 0 && harsh_host.fallback_offloads > 0,
                "{pool}/{policy}: harsh MTBF never struck a running job"
            );
            assert!(
                harsh_host.completion_rate >= 0.95,
                "{pool}/{policy}: HostOnly must keep nearly everything alive"
            );
            assert!(
                harsh_requeue.makespan_secs >= clean.makespan_secs * 0.98,
                "{pool}/{policy}: Requeue makespan beat the fault-free run ({} vs {})",
                harsh_requeue.makespan_secs,
                clean.makespan_secs
            );
        }
    }
    persist_json("ext_fault_mtbf", &rows);
}
