//! ABL-2 — knapsack formulation ablation.
//!
//! * 2-D DP (thread-feasible by construction) vs the paper-literal 1-D DP
//!   with thread repair;
//! * memory granularity 25 / 50 / 100 / 200 MB (the paper's §IV-C
//!   complexity argument assumes 50 MB);
//! * strict resident-thread accounting vs lax (per-round only), and the
//!   thread-overcommit factor.

use phishare_bench::{banner, persist_json, table1_workload, EXPERIMENT_SEED};
use phishare_cluster::report::{secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::{ClusterConfig, SubstrateMode};
use phishare_core::{ClusterPolicy, KnapsackVariant};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    makespan_secs: f64,
}

fn main() {
    banner(
        "ABL-2",
        "knapsack formulation / granularity / thread-accounting ablation",
        "2-D ≈ 1-D+repair here (thread budget rarely binds inside one round); \
         coarse granularity wastes capacity; overcommit 1.0 strands threads",
    );

    let wl = table1_workload(400, EXPERIMENT_SEED);
    let base = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);

    let mut grid: Vec<SweepJob> = Vec::new();
    let mut push = |label: String, config: ClusterConfig| {
        grid.push(SweepJob {
            label,
            config,
            workload: wl.clone(),
        })
    };

    for variant in [KnapsackVariant::TwoD, KnapsackVariant::OneDFiltered] {
        let mut c = base;
        c.knapsack.variant = variant;
        push(format!("dp={variant:?}"), c);
    }
    for granularity in [25u64, 50, 100, 200, 400] {
        let mut c = base;
        c.knapsack.granularity_mb = granularity;
        push(format!("granularity={granularity}MB"), c);
    }
    for overcommit in [1.0, 1.25, 1.5, 1.75, 2.0] {
        let mut c = base;
        c.knapsack.thread_overcommit = overcommit;
        push(format!("overcommit={overcommit}"), c);
    }
    {
        let mut c = base;
        c.knapsack.count_resident_threads = false;
        push("thread-accounting=lax".into(), c);
    }
    for window in [16usize, 64, 256] {
        let mut c = base;
        c.knapsack.window = window;
        push(format!("window={window}"), c);
    }

    let results = run_sweep(grid, default_threads(), SubstrateMode::Fast);
    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| Row {
            variant: label.clone(),
            makespan_secs: res.as_ref().expect("cell runs").makespan_secs,
        })
        .collect();

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.variant.clone(), secs(r.makespan_secs)])
        .collect();
    println!(
        "{}",
        table(
            &["MCCK variant (table1-400, 8 nodes)", "Makespan (s)"],
            &printable
        )
    );
    persist_json("abl_knapsack_variants", &rows);
}
