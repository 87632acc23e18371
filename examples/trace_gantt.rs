//! Record a full lifecycle trace of a small MCCK run and render per-node
//! offload Gantt charts — watch the knapsack scheduler keep every device's
//! offload lanes occupied.
//!
//! ```sh
//! cargo run --release --example trace_gantt [-- <jobs> <nodes>]
//! ```

use phishare::cluster::{ClusterConfig, Experiment, TraceEvent};
use phishare::core::ClusterPolicy;
use phishare::workload::{WorkloadBuilder, WorkloadKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let nodes: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    let workload = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(jobs)
        .seed(17)
        .build();

    for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcck] {
        let config = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        let (result, trace) = Experiment::new(&config, &workload)
            .simulate_traced()
            .expect("runs");

        println!(
            "— {policy}: {} jobs on {nodes} nodes, makespan {:.0} s, core util {:.0}% —",
            jobs,
            result.makespan_secs,
            100.0 * result.core_utilization
        );
        println!("  (digits = concurrently executing offloads on the node's Phi, '.' = idle)");
        print!("{}", trace.node_gantt(96));

        let queued = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::OffloadQueued { .. }))
            .count();
        let spans = trace.offload_spans();
        println!(
            "  {} offloads executed, {} waited in COSMIC's admission queue\n",
            spans.len(),
            queued
        );
    }

    println!(
        "MC's lanes show at most one offload at a time per device; MCCK keeps\n\
         several concurrent — the utilization gap the paper's §III motivates."
    );
}
