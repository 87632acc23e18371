//! ABL-1 — value-function ablation.
//!
//! The paper's Eq. (1) discounts jobs quadratically by thread appetite. How
//! much of MCCK's win comes from that specific choice? We swap in the
//! alternatives from `phishare-knapsack` on both the real mix and the
//! normal synthetic distribution.
//!
//! Finding this bench documents: on thread-memory-*correlated* synthetic
//! jobs, the quadratic discount defers large jobs into a memory-bound serial
//! tail, and pure concurrency maximization (`unit`) can edge it out; on the
//! real Table I mix the two are close.

use phishare_bench::{
    banner, persist_json, synthetic_workload, table1_workload, EXPERIMENT_SEED, SYNTHETIC_JOBS,
};
use phishare_cluster::report::{secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::{ClusterConfig, SubstrateMode};
use phishare_core::ClusterPolicy;
use phishare_knapsack::ValueFunction;
use phishare_workload::ResourceDist;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    value_fn: String,
    makespan_secs: f64,
}

fn main() {
    banner(
        "ABL-1",
        "knapsack value-function ablation (Eq. 1 vs alternatives)",
        "quadratic ≈ linear; unit can win on correlated synthetics; inverse over-defers",
    );

    let workloads = [
        ("table1-400", table1_workload(400, EXPERIMENT_SEED)),
        (
            "syn-normal-400",
            synthetic_workload(ResourceDist::Normal, SYNTHETIC_JOBS, EXPERIMENT_SEED),
        ),
    ];

    let mut grid = Vec::new();
    for (wl_name, wl) in &workloads {
        for vf in ValueFunction::ALL {
            let mut config = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);
            config.knapsack.value_fn = vf;
            grid.push(SweepJob {
                label: format!("{wl_name}|{vf}"),
                config,
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads(), SubstrateMode::Fast);

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let r = res.as_ref().expect("cell runs");
            let (workload, value_fn) = label.split_once('|').unwrap();
            Row {
                workload: workload.into(),
                value_fn: value_fn.into(),
                makespan_secs: r.makespan_secs,
            }
        })
        .collect();

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.value_fn.clone(),
                secs(r.makespan_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["Workload", "Value function", "MCCK makespan (s)"],
            &printable
        )
    );
    persist_json("abl_value_function", &rows);
}
