//! PERF-4 — the simulation-core fast-path benchmark gate.
//!
//! Runs a full 8-node × 1600-job experiment end to end under both event
//! schemes: the next-completion fast path (`Experiment::run` — one
//! prediction per device per generation, replaced in place in the device's
//! event slot) against the retained per-offload scheme (`.per_offload_events()`
//! — one event per active offload per generation, the pre-optimization
//! cost model).
//!
//! The workload is built to exercise the regime the fast path targets:
//! small-footprint, offload-dominant jobs with many kernel launches each,
//! crammed ~20 deep per device under MCC. Every device membership change
//! then re-predicts for every co-resident offload — O(n²) event churn per
//! busy episode in the naive scheme, one prediction in the fast one. (The
//! Table I mix at this scale is negotiation-bound instead; that path has
//! its own gate in `perf_negotiation`.)
//!
//! Emits `BENCH_sim.json` (under `target/experiments/` and at the repo
//! root) and **fails** if the measured speedup drops below the 2×
//! acceptance floor — a regression gate, not just a report. Both runs must
//! return bit-identical results before timing means anything (the
//! randomized version of this assertion lives in
//! `cluster/tests/prop_runtime_diff.rs`).

use phishare_bench::{banner, best_of_ms, commit_gate, GateKnobs, EXPERIMENT_SEED};
use phishare_cluster::{ClusterConfig, Experiment};
use phishare_core::ClusterPolicy;
use phishare_sim::SimDuration;
use phishare_workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use serde::Serialize;

const NODES: u32 = 8;
const JOBS: usize = 1600;
const SPEEDUP_FLOOR: f64 = 2.0;

/// Offload-dense synthetic jobs: tiny memory footprints (so MCC's random
/// cramming stacks devices deep), 92–97% offload duty, and 48–96 kernel
/// launches per job — the event-churn regime described in the module docs.
fn gate_workload(count: usize, seed: u64) -> Workload {
    let params = SyntheticParams {
        mem_mb: (64, 160),
        threads: (4, 16),
        thread_jitter: 0.08,
        duty_cycle: (0.92, 0.97),
        offloads: (48, 96),
        duration_secs: (40.0, 100.0),
    };
    WorkloadBuilder::new(WorkloadKind::Synthetic(ResourceDist::Uniform, params))
        .count(count)
        .seed(seed)
        // Steady-state arrivals: the queue stays shallow, so wall time
        // measures the DES core rather than FIFO scans of a deep backlog.
        .arrivals(ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(800),
        })
        .build()
}

/// Paper cluster with wider nodes (24 host slots) so devices actually
/// reach ~20 co-resident offloads, and arrival-triggered negotiations
/// batched at 5 s so cycle count stays modest at 1600 jobs.
fn gate_config(policy: ClusterPolicy, nodes: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
    cfg.slots_per_node = 24;
    cfg.negotiation_trigger_delay = SimDuration::from_secs(5);
    cfg
}

#[derive(Serialize)]
struct SimBench {
    policy: String,
    nodes: u32,
    jobs: usize,
    naive_runs: usize,
    fast_runs: usize,
    /// Best-of-runs wall time of one per-offload-event experiment, ms
    /// ("before").
    naive_ms: f64,
    /// Best-of-runs wall time of one next-completion experiment, ms
    /// ("after").
    fast_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    completed: usize,
    makespan_secs: f64,
    live_events: u64,
    knobs: GateKnobs,
}

fn gate() -> SimBench {
    let policy = ClusterPolicy::Mcc;
    let wl = gate_workload(JOBS, EXPERIMENT_SEED);
    let cfg = gate_config(policy, NODES);

    // Sanity first: both schemes must agree before timing means anything.
    let fast = Experiment::run(&cfg, &wl).expect("fast-path experiment runs");
    let naive = Experiment::new(&cfg, &wl)
        .per_offload_events()
        .simulate()
        .expect("naive-event experiment runs");
    assert_eq!(fast, naive, "event schemes diverged on the gate workload");

    let naive_runs = 3;
    let fast_runs = 7;
    let naive_ms = best_of_ms(
        naive_runs,
        || (),
        |()| {
            Experiment::new(&cfg, &wl)
                .per_offload_events()
                .simulate()
                .expect("runs")
        },
    );
    let fast_ms = best_of_ms(
        fast_runs,
        || (),
        |()| Experiment::run(&cfg, &wl).expect("runs"),
    );

    SimBench {
        policy: policy.to_string(),
        nodes: NODES,
        jobs: JOBS,
        naive_runs,
        fast_runs,
        naive_ms,
        fast_ms,
        speedup: naive_ms / fast_ms,
        speedup_floor: SPEEDUP_FLOOR,
        completed: fast.completed,
        makespan_secs: fast.makespan_secs,
        live_events: fast.events_processed,
        knobs: GateKnobs::non_negotiation(1),
    }
}

fn main() {
    banner(
        "perf_sim",
        "the DES substrate behind every §V experiment",
        "next-completion event scheduling ≥ 2× faster than per-offload events, bit-identical results",
    );

    let result = gate();
    println!(
        "{} on {} nodes, {} jobs ({} completed, makespan {:.0} s, {} live events)",
        result.policy,
        result.nodes,
        result.jobs,
        result.completed,
        result.makespan_secs,
        result.live_events
    );
    println!(
        "naive (best of {}): {:.1} ms   fast (best of {}): {:.1} ms   speedup: {:.1}x",
        result.naive_runs, result.naive_ms, result.fast_runs, result.fast_ms, result.speedup
    );
    commit_gate("sim", &result, "simulation fast path regressed");
}
