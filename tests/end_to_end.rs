//! End-to-end integration tests across the whole stack: workload → Condor →
//! scheduler → COSMIC → device, on fixed seeds.

use phishare::cluster::{
    CellRecord, ClusterConfig, DevicePool, DeviceSku, Experiment, ExperimentResult, SubstrateMode,
};
use phishare::core::ClusterPolicy;
use phishare::workload::{Workload, WorkloadBuilder, WorkloadKind};

fn workload(n: usize, seed: u64) -> Workload {
    WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(n)
        .seed(seed)
        .build()
}

fn cfg(policy: ClusterPolicy, nodes: u32) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
    c.knapsack.window = 64; // keep debug-mode DP cost low
    c
}

#[test]
fn every_policy_completes_every_job() {
    let wl = workload(60, 1);
    for policy in ClusterPolicy::ALL {
        let r = Experiment::run(&cfg(policy, 4), &wl).unwrap();
        assert_eq!(r.completed, 60, "{policy}: {r:?}");
        assert_eq!(r.oom_kills, 0, "{policy} oversubscribed memory");
        assert_eq!(r.container_kills, 0, "{policy} killed well-behaved jobs");
    }
}

#[test]
fn paper_ordering_holds_on_the_real_mix() {
    // MCCK ≤ MCC ≤ MC on makespan for a Table I workload at paper-like
    // pressure (scaled down for debug-mode test speed).
    let wl = workload(120, 2);
    let mc = Experiment::run(&cfg(ClusterPolicy::Mc, 4), &wl).unwrap();
    let mcc = Experiment::run(&cfg(ClusterPolicy::Mcc, 4), &wl).unwrap();
    let mcck = Experiment::run(&cfg(ClusterPolicy::Mcck, 4), &wl).unwrap();
    assert!(
        mcck.makespan_secs < mc.makespan_secs,
        "MCCK {} !< MC {}",
        mcck.makespan_secs,
        mc.makespan_secs
    );
    assert!(
        mcc.makespan_secs < mc.makespan_secs,
        "MCC {} !< MC {}",
        mcc.makespan_secs,
        mc.makespan_secs
    );
    assert!(
        mcck.makespan_secs <= mcc.makespan_secs * 1.05,
        "MCCK {} should not trail MCC {} by more than noise",
        mcck.makespan_secs,
        mcc.makespan_secs
    );
    // Sharing at least 20 % better than exclusive at this pressure.
    assert!(mcck.makespan_reduction_vs(&mc) > 20.0);
}

#[test]
fn runs_are_bit_deterministic() {
    let wl = workload(50, 3);
    for policy in ClusterPolicy::ALL {
        let a = Experiment::run(&cfg(policy, 3), &wl).unwrap();
        let b = Experiment::run(&cfg(policy, 3), &wl).unwrap();
        assert_eq!(a, b, "{policy} not deterministic");
    }
}

#[test]
fn different_seeds_produce_different_workloads_same_invariants() {
    for seed in [10, 11, 12] {
        let wl = workload(40, seed);
        let r = Experiment::run(&cfg(ClusterPolicy::Mcck, 3), &wl).unwrap();
        assert_eq!(r.completed, 40);
        assert!(r.core_utilization > 0.0 && r.core_utilization <= 1.0);
    }
}

#[test]
fn exclusive_policy_reports_paper_like_idle_device() {
    // §III: the MC configuration leaves the manycore around half idle.
    let wl = workload(150, 4);
    let r = Experiment::run(&cfg(ClusterPolicy::Mc, 4), &wl).unwrap();
    assert!(
        (0.30..0.60).contains(&r.core_utilization),
        "MC core utilization {} outside the paper's idle band",
        r.core_utilization
    );
}

#[test]
fn mcck_pins_every_job_exactly_once() {
    let wl = workload(45, 5);
    let r = Experiment::run(&cfg(ClusterPolicy::Mcck, 3), &wl).unwrap();
    assert_eq!(r.pins_issued, 45);
}

#[test]
fn knapsack_never_overpacks_declared_memory() {
    // Indirect invariant: MCCK with well-behaved jobs can never trigger the
    // OOM killer, because Σ committed ≤ Σ declared ≤ usable per device.
    for seed in 0..5 {
        let wl = workload(80, 100 + seed);
        let r = Experiment::run(&cfg(ClusterPolicy::Mcck, 2), &wl).unwrap();
        assert_eq!(r.oom_kills, 0, "seed {seed}");
    }
}

#[test]
fn single_node_cluster_works() {
    let wl = workload(20, 6);
    for policy in ClusterPolicy::ALL {
        let r = Experiment::run(&cfg(policy, 1), &wl).unwrap();
        assert_eq!(r.completed, 20, "{policy}");
    }
}

#[test]
fn multi_device_nodes_work() {
    let wl = workload(40, 7);
    let mut c = cfg(ClusterPolicy::Mcck, 2);
    c.devices_per_node = 2;
    let r = Experiment::run(&c, &wl).unwrap();
    assert_eq!(r.completed, 40);
    // Roughly comparable to 4 single-device nodes.
    let r4 = Experiment::run(&cfg(ClusterPolicy::Mcck, 4), &wl).unwrap();
    assert!(r.makespan_secs < r4.makespan_secs * 1.6);
}

#[test]
fn empty_workload_is_a_noop() {
    let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(0)
        .build();
    let r = Experiment::run(&cfg(ClusterPolicy::Mcck, 2), &wl).unwrap();
    assert_eq!(r.completed, 0);
    assert_eq!(r.makespan_secs, 0.0);
}

/// Three two-card nodes under generated faults and the derate and latency
/// windows: the node-major card walk, per-card in-flight accounting and
/// per-card perturbation windows all show in the results.
fn multi_card_config(policy: ClusterPolicy) -> ClusterConfig {
    let mut c = cfg(policy, 3);
    c.devices_per_node = 2;
    c.slots_per_node = 16;
    c.host_cores_per_node = 32;
    c.faults.device_mtbf_secs = 300.0;
    c.faults.node_mtbf_secs = 900.0;
    c.faults.horizon_secs = 1500.0;
    c.perturb.derate.mean_gap_secs = 40.0;
    c.perturb.derate.duration_secs = 25.0;
    c.perturb.derate.factor = 0.4;
    c.perturb.latency.mean_gap_secs = 30.0;
    c.perturb.latency.duration_secs = 20.0;
    c.perturb.latency.extra_secs = 1.5;
    c.perturb.horizon_secs = 1500.0;
    c
}

#[test]
fn multi_card_results_match_golden() {
    // `plan_ms` is wall clock and excluded from equality; the golden
    // stores it as 0.
    let golden: Vec<ExperimentResult> =
        serde_json::from_str(include_str!("golden/multi_card.json")).unwrap();
    let wl = workload(120, 7);
    let policies = [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck];
    assert_eq!(golden.len(), policies.len());
    for (policy, want) in policies.into_iter().zip(&golden) {
        let r = Experiment::run(&multi_card_config(policy), &wl).unwrap();
        assert!(
            r.device_resets > 0 && r.node_churns > 0 && r.perturb_windows > 0,
            "{policy}: the scenario must exercise faults and windows: {r:?}"
        );
        assert_eq!(&r, want, "{policy}: multi-card result drifted");
    }
}

/// Run the paper's Table II cell for `policy` at full size (1000 jobs,
/// seed 7) and compare it with the benchmark's golden record `label`
/// (read-only here; `plan_ms` is excluded from equality).
fn assert_full_size_table2_cell(policy: ClusterPolicy, label: &str) {
    let golden: Vec<CellRecord> =
        serde_json::from_str(include_str!("../phibench/golden/table2.json")).unwrap();
    let want = golden
        .iter()
        .find(|cell| cell.label == label)
        .and_then(|cell| cell.ok.as_ref())
        .unwrap_or_else(|| panic!("table2 golden has a {label} result"));
    let config = ClusterConfig::paper_cluster(policy).with_seed(7);
    let r = Experiment::run(&config, &workload(1000, 7)).unwrap();
    assert_eq!(
        &r, want,
        "{label} Table II cell drifted from the benchmark golden"
    );
}

#[test]
fn full_size_mc_table2_cell_matches_benchmark_golden() {
    // 1000 exclusive jobs whose identical requirements form one
    // negotiation class.
    assert_full_size_table2_cell(ClusterPolicy::Mc, "MC/s7");
}

#[test]
fn full_size_mcc_table2_cell_matches_benchmark_golden() {
    assert_full_size_table2_cell(ClusterPolicy::Mcc, "MCC/s7");
}

#[test]
fn full_size_mcck_table2_cell_matches_benchmark_golden() {
    // Every packing round of the knapsack planner, at the default window.
    assert_full_size_table2_cell(ClusterPolicy::Mcck, "MCCK/s7");
}

#[test]
fn full_size_oracle_table2_cell_matches_benchmark_golden() {
    assert_full_size_table2_cell(ClusterPolicy::Oracle, "ORACLE/s7");
}

/// The multi-card scenario on the shared-throughput substrate, with GPU-like
/// cards on alternate nodes and misbehaving jobs: resets, churn and windows
/// run through the fair-shared card model, and MCC/MCCK's containers kill
/// the overrunning jobs.
fn shared_pool_results() -> Vec<ExperimentResult> {
    let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(120)
        .seed(7)
        .misbehaving_fraction(0.1)
        .build();
    [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck]
        .into_iter()
        .map(|policy| {
            let mut c = multi_card_config(policy);
            c.pool = DevicePool::Alternate(DeviceSku::GpuLike);
            let r = Experiment::new(&c, &wl)
                .substrate(SubstrateMode::Shared)
                .simulate()
                .unwrap();
            assert!(
                r.device_resets > 0 && r.node_churns > 0 && r.perturb_windows > 0,
                "{policy}: the scenario must exercise faults and windows: {r:?}"
            );
            r
        })
        .collect()
}

#[test]
fn shared_pool_results_match_golden() {
    // `plan_ms` is wall clock and excluded from equality; the golden
    // stores it as 0.
    let golden: Vec<ExperimentResult> =
        serde_json::from_str(include_str!("golden/shared_pool.json")).unwrap();
    assert_eq!(shared_pool_results(), golden, "shared-pool result drifted");
}
