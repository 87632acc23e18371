//! EXP-F8 — Fig. 8: makespan sensitivity to job resource distributions.
//!
//! 400 synthetic jobs per distribution on 8 nodes, MC vs MCC vs MCCK.
//! Paper shape: large improvements for uniform / normal / low-skew; much
//! smaller improvement for high-skew, where MCCK may even trail MCC
//! slightly (integration overhead); sharing always beats MC.

use phishare_bench::{banner, persist_json, synthetic_workload, EXPERIMENT_SEED, SYNTHETIC_JOBS};
use phishare_cluster::report::{bar_chart, pct, secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::{ClusterConfig, SubstrateMode};
use phishare_core::ClusterPolicy;
use phishare_workload::ResourceDist;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dist: String,
    policy: String,
    makespan_secs: f64,
    reduction_vs_mc_pct: f64,
}

fn main() {
    banner(
        "Fig. 8",
        "makespan reduction for different job distributions (paper §V-B)",
        "big wins on uniform/normal/low-skew; small win on high-skew (MCCK ≲ MCC allowed there)",
    );

    let mut grid = Vec::new();
    for dist in ResourceDist::ALL {
        let wl = synthetic_workload(dist, SYNTHETIC_JOBS, EXPERIMENT_SEED);
        for policy in ClusterPolicy::ALL {
            grid.push(SweepJob {
                label: format!("{dist}/{policy}"),
                config: ClusterConfig::paper_cluster(policy),
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads(), SubstrateMode::Fast);

    let mut rows: Vec<Row> = Vec::new();
    let mut printable = Vec::new();
    for chunk in results.chunks(3) {
        let mc = chunk[0].1.as_ref().expect("MC runs");
        for (label, res) in chunk {
            let r = res.as_ref().expect("cell runs");
            let (dist, policy) = label.split_once('/').expect("label format");
            rows.push(Row {
                dist: dist.into(),
                policy: policy.into(),
                makespan_secs: r.makespan_secs,
                reduction_vs_mc_pct: r.makespan_reduction_vs(mc),
            });
            printable.push(vec![
                dist.to_string(),
                policy.to_string(),
                secs(r.makespan_secs),
                pct(r.makespan_reduction_vs(mc)),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["Distribution", "Config", "Makespan (s)", "vs MC"],
            &printable
        )
    );

    for dist in ResourceDist::ALL {
        let series: Vec<(String, f64)> = rows
            .iter()
            .filter(|r| r.dist == dist.to_string())
            .map(|r| (r.policy.clone(), r.makespan_secs))
            .collect();
        println!("{}", bar_chart(&format!("makespan, {dist}"), &series, 48));
    }
    persist_json("fig8", &rows);
}
