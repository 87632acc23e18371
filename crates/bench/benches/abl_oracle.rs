//! ABL-4 — the no-execution-times assumption.
//!
//! The paper argues concurrency maximization is a good *proxy* for makespan
//! because users "usually cannot specify [execution times] accurately"
//! (§IV-B). This ablation measures what that assumption costs: the ORACLE
//! configuration runs MCCK's exact stack but with a clairvoyant
//! longest-processing-time-first scheduler that knows every job's nominal
//! duration. If the paper's claim holds, MCCK should be close to the
//! oracle.

use phishare_bench::{
    banner, persist_json, synthetic_workload, table1_workload, EXPERIMENT_SEED, SYNTHETIC_JOBS,
};
use phishare_cluster::report::{pct, secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::{ClusterConfig, SubstrateMode};
use phishare_core::ClusterPolicy;
use phishare_workload::ResourceDist;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    policy: String,
    makespan_secs: f64,
}

fn main() {
    banner(
        "ABL-4",
        "the cost of not knowing execution times (§IV-B assumption)",
        "MCCK within a few percent of the clairvoyant LPT oracle",
    );

    let workloads = vec![
        (
            "table1-1000".to_string(),
            table1_workload(1000, EXPERIMENT_SEED),
        ),
        (
            "syn-normal-400".to_string(),
            synthetic_workload(ResourceDist::Normal, SYNTHETIC_JOBS, EXPERIMENT_SEED),
        ),
        (
            "syn-high-skew-400".to_string(),
            synthetic_workload(ResourceDist::HighSkew, SYNTHETIC_JOBS, EXPERIMENT_SEED),
        ),
    ];

    let mut grid = Vec::new();
    for (name, wl) in &workloads {
        for policy in [ClusterPolicy::Mcck, ClusterPolicy::Oracle] {
            grid.push(SweepJob {
                label: format!("{name}|{policy}"),
                config: ClusterConfig::paper_cluster(policy),
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads(), SubstrateMode::Fast);

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let (workload, policy) = label.split_once('|').unwrap();
            Row {
                workload: workload.into(),
                policy: policy.into(),
                makespan_secs: res.as_ref().expect("cell runs").makespan_secs,
            }
        })
        .collect();

    let mut printable = Vec::new();
    for pair in rows.chunks(2) {
        let (mcck, oracle) = (&pair[0], &pair[1]);
        printable.push(vec![
            mcck.workload.clone(),
            secs(mcck.makespan_secs),
            secs(oracle.makespan_secs),
            pct(100.0 * (mcck.makespan_secs / oracle.makespan_secs - 1.0)),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Workload",
                "MCCK (blind) makespan (s)",
                "Oracle (clairvoyant LPT) (s)",
                "MCCK overhead vs oracle",
            ],
            &printable
        )
    );
    persist_json("abl_oracle", &rows);
}
