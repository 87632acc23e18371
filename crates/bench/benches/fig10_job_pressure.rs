//! EXP-F10 — Fig. 10: makespan at constant job pressure.
//!
//! Jobs scale with cluster size (200 per node: 400→1600 as nodes go 2→8),
//! normal distribution. Paper: at the 8-node / 1600-job point, MCCK
//! improves makespan ≈ 11 % over MCC and ≈ 40 % over MC — cluster-level
//! scheduling stays useful even at high pressure once there are enough
//! nodes to decide between.

use phishare_bench::{banner, persist_json, synthetic_workload, EXPERIMENT_SEED};
use phishare_cluster::report::{pct, secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::{ClusterConfig, SubstrateMode};
use phishare_core::ClusterPolicy;
use phishare_workload::ResourceDist;
use serde::Serialize;

const POINTS: [(u32, usize); 4] = [(2, 400), (4, 800), (6, 1200), (8, 1600)];

#[derive(Serialize)]
struct Row {
    nodes: u32,
    jobs: usize,
    policy: String,
    makespan_secs: f64,
}

fn main() {
    banner(
        "Fig. 10",
        "makespan with constant job pressure (paper §V-B)",
        "at 8 nodes / 1600 jobs: MCCK ≈ 11% better than MCC, ≈ 40% better than MC",
    );

    let mut grid = Vec::new();
    for (nodes, jobs) in POINTS {
        let wl = synthetic_workload(ResourceDist::Normal, jobs, EXPERIMENT_SEED);
        for policy in ClusterPolicy::ALL {
            grid.push(SweepJob {
                label: format!("{nodes}|{jobs}|{policy}"),
                config: ClusterConfig::paper_cluster(policy).with_nodes(nodes),
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads(), SubstrateMode::Fast);

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let r = res.as_ref().expect("cell runs");
            let mut parts = label.split('|');
            Row {
                nodes: parts.next().unwrap().parse().unwrap(),
                jobs: parts.next().unwrap().parse().unwrap(),
                policy: parts.next().unwrap().into(),
                makespan_secs: r.makespan_secs,
            }
        })
        .collect();

    let mut printable = Vec::new();
    for (nodes, jobs) in POINTS {
        let get = |p: &str| {
            rows.iter()
                .find(|r| r.nodes == nodes && r.policy == p)
                .map(|r| r.makespan_secs)
                .expect("cell present")
        };
        let (mc, mcc, mcck) = (get("MC"), get("MCC"), get("MCCK"));
        printable.push(vec![
            format!("{nodes} / {jobs}"),
            secs(mc),
            secs(mcc),
            secs(mcck),
            pct(100.0 * (1.0 - mcck / mcc)),
            pct(100.0 * (1.0 - mcck / mc)),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Nodes / jobs",
                "MC (s)",
                "MCC (s)",
                "MCCK (s)",
                "MCCK vs MCC",
                "MCCK vs MC",
            ],
            &printable
        )
    );
    persist_json("fig10", &rows);
}
