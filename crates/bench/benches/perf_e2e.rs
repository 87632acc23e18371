//! PERF-6 — the end-to-end substrate benchmark gate.
//!
//! Runs a figure-scale sweep (3 policies × 3 synthetic distributions ×
//! 3 seeds, 8-node cells) through the parallel sweep harness on the
//! slab-indexed substrate with per-worker scratch recycling
//! (`SubstrateMode::Fast`) on one worker, and gates its **absolute**
//! throughput: profiled offloads per second of wall time must stay at or
//! above a fixed floor.
//!
//! The grid covers the three sharing-family policies (MCC, MCCK, and the
//! clairvoyant oracle) on offload-dense jobs crammed ~20 deep per device
//! — the regime the slab substrate targets, where per-offload state
//! access dominates wall time. MC is deliberately absent: exclusive mode
//! keeps one resident per device, so its cells measure matchmaking (gated
//! by `perf_negotiation`), not substrate state.
//!
//! The best of three sweeps counts. Emits `BENCH_e2e.json` (under `target/experiments/` and at the repo root) and
//! **fails** below the floor — a regression gate, not just a report. With
//! `--features alloc-count` the gate also reports heap allocations per
//! executed offload (counted by the `phishare_bench::alloc_count` global
//! allocator). The card itself is checked against a reference
//! specification in `phi/tests/prop_device.rs`.

use phishare_bench::{banner, commit_gate, GateKnobs, EXPERIMENT_SEED, SYNTHETIC_JOBS};
use phishare_cluster::{run_sweep, ClusterConfig, SubstrateMode, SweepJob};
use phishare_core::ClusterPolicy;
use phishare_sim::SimDuration;
use phishare_workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const NODES: u32 = 8;
const SEEDS: [u64; 3] = [EXPERIMENT_SEED, EXPERIMENT_SEED + 1, EXPERIMENT_SEED + 2];
const POLICIES: [ClusterPolicy; 3] = [
    ClusterPolicy::Mcc,
    ClusterPolicy::Mcck,
    ClusterPolicy::Oracle,
];
const DISTS: [ResourceDist; 3] = [
    ResourceDist::Uniform,
    ResourceDist::Normal,
    ResourceDist::HighSkew,
];
/// Sweep workers. The floor was measured with one, and a throughput
/// floor only means something at the worker count it was measured at.
const THREADS: usize = 1;
/// Sweeps timed; the best reading counts.
const RUNS: usize = 3;
/// Profiled offloads per second of wall time on [`THREADS`] workers. The
/// gate used to require 1.5× over a map-keyed copy of the substrate, whose
/// last committed ratio was 2.675×: the floor keeps that margin, 1.5 /
/// 2.675 of the 692 773 offloads/s measured (median of eight gate runs on
/// a 2-core x86-64 host) when the copy was retired.
const OFFLOADS_PER_S_FLOOR: f64 = 388_000.0;

/// Offload-dense synthetic jobs: small footprints so sharing policies
/// stack devices deep, 92–97% offload duty, and 256–512 kernel launches
/// per job. Per-offload substrate access (attach/commit/finish/complete)
/// then dominates each cell's wall time, which is exactly what this gate
/// measures. The resource distribution still shapes the mem/thread mix.
fn gate_workload(dist: ResourceDist, count: usize, seed: u64) -> Arc<Workload> {
    let params = SyntheticParams {
        mem_mb: (64, 160),
        threads: (4, 16),
        thread_jitter: 0.08,
        duty_cycle: (0.92, 0.97),
        offloads: (256, 512),
        duration_secs: (40.0, 100.0),
    };
    Arc::new(
        WorkloadBuilder::new(WorkloadKind::Synthetic(dist, params))
            .count(count)
            .seed(seed)
            // Brisk steady-state arrivals keep many jobs co-resident.
            .arrivals(ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(400),
            })
            .build(),
    )
}

/// Paper cluster with wider nodes (24 host slots) so devices actually run
/// deep, and arrival-triggered negotiations batched at 10 s so cycle
/// count stays a small share of the cell.
fn gate_config(policy: ClusterPolicy) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(NODES);
    cfg.slots_per_node = 24;
    cfg.negotiation_trigger_delay = SimDuration::from_secs(10);
    cfg
}

/// The 9 shared workloads (distribution × seed), built once.
fn workloads() -> Vec<(ResourceDist, u64, Arc<Workload>)> {
    DISTS
        .iter()
        .flat_map(|&dist| {
            SEEDS
                .iter()
                .map(move |&seed| (dist, seed, gate_workload(dist, SYNTHETIC_JOBS, seed)))
        })
        .collect()
}

/// One grid instance (cheap: workload `Arc`s are shared, configs copied).
fn grid(workloads: &[(ResourceDist, u64, Arc<Workload>)]) -> Vec<SweepJob> {
    POLICIES
        .iter()
        .flat_map(|&policy| {
            workloads.iter().map(move |(dist, seed, wl)| SweepJob {
                label: format!("{policy}/{dist}/s{seed}"),
                config: gate_config(policy),
                workload: Arc::clone(wl),
            })
        })
        .collect()
}

#[derive(Serialize)]
struct E2eBench {
    nodes: u32,
    cells: usize,
    jobs_per_cell: usize,
    threads: usize,
    fast_runs: usize,
    /// Best-of-runs wall time of one sweep, ms.
    fast_ms: f64,
    /// `total_offloads` per second of `fast_ms`.
    offloads_per_s: f64,
    offloads_per_s_floor: f64,
    completed_total: usize,
    /// Profiled offload segments across all cells (upper bound on executed
    /// offloads; kills and host fallback can only reduce it).
    total_offloads: usize,
    /// Heap allocation calls per profiled offload over one fast sweep —
    /// `null` unless built with `--features alloc-count`.
    allocs_per_offload: Option<f64>,
    /// Negotiation cycles skipped as quiescent across one fast sweep,
    /// summed over all cells (the runtime-layer work avoidance this gate
    /// now benefits from).
    cycles_skipped_total: u64,
    /// Negotiation cycles across one fast sweep, all cells.
    negotiation_cycles_total: u64,
    knobs: GateKnobs,
}

#[cfg(feature = "alloc-count")]
fn allocation_count() -> Option<u64> {
    Some(phishare_bench::alloc_count::allocations())
}

#[cfg(not(feature = "alloc-count"))]
fn allocation_count() -> Option<u64> {
    None
}

fn gate() -> E2eBench {
    let wls = workloads();
    // Every sweep is deterministic, so the last one's results stand for all.
    let (mut fast, mut fast_ms) = (Vec::new(), f64::INFINITY);
    for _ in 0..RUNS {
        let jobs = grid(&wls);
        let start = Instant::now();
        let results = run_sweep(jobs, THREADS, SubstrateMode::Fast);
        fast_ms = fast_ms.min(start.elapsed().as_secs_f64() * 1e3);
        fast = results;
    }

    let total_offloads: usize = POLICIES.len()
        * wls
            .iter()
            .map(|(_, _, wl)| {
                wl.jobs
                    .iter()
                    .map(|j| j.profile.offload_count())
                    .sum::<usize>()
            })
            .sum::<usize>();
    let completed_total: usize = fast
        .iter()
        .map(|(_, r)| r.as_ref().map(|r| r.completed).unwrap_or(0))
        .sum();
    let cycles_skipped_total: u64 = fast
        .iter()
        .map(|(_, r)| r.as_ref().map(|r| r.cycles_skipped).unwrap_or(0))
        .sum();
    let negotiation_cycles_total: u64 = fast
        .iter()
        .map(|(_, r)| r.as_ref().map(|r| r.negotiation_cycles).unwrap_or(0))
        .sum();

    // Allocation census over one fast sweep (feature-gated).
    let allocs_per_offload = allocation_count().map(|before| {
        run_sweep(grid(&wls), THREADS, SubstrateMode::Fast);
        let delta = allocation_count().expect("feature on") - before;
        delta as f64 / total_offloads as f64
    });

    E2eBench {
        nodes: NODES,
        cells: fast.len(),
        jobs_per_cell: SYNTHETIC_JOBS,
        threads: THREADS,
        fast_runs: RUNS,
        fast_ms,
        offloads_per_s: total_offloads as f64 / (fast_ms / 1e3),
        offloads_per_s_floor: OFFLOADS_PER_S_FLOOR,
        completed_total,
        total_offloads,
        allocs_per_offload,
        cycles_skipped_total,
        negotiation_cycles_total,
        knobs: GateKnobs {
            partitions: gate_config(ClusterPolicy::Mcck).partitions.max(1),
            threads: THREADS,
            skip_quiescent: gate_config(ClusterPolicy::Mcck).skip_quiescent,
            match_path: "delta".into(),
        },
    }
}

fn main() {
    banner(
        "perf_e2e",
        "the figure-scale sweeps behind §V (policies × distributions × seeds)",
        &format!(
            "the slab substrate sweeps at least {OFFLOADS_PER_S_FLOOR:.0} profiled \
             offloads/s on {THREADS} worker"
        ),
    );

    let result = gate();
    println!(
        "{} cells ({} nodes, {} jobs each) on {} workers, {} jobs completed",
        result.cells, result.nodes, result.jobs_per_cell, result.threads, result.completed_total
    );
    println!(
        "fast (best of {}): {:.1} ms, {:.0} offloads/s",
        result.fast_runs, result.fast_ms, result.offloads_per_s
    );
    if let Some(a) = result.allocs_per_offload {
        println!("allocations per profiled offload: {a:.2}");
    }
    println!(
        "quiescence: {} of {} negotiation cycles skipped across one fast sweep",
        result.cycles_skipped_total, result.negotiation_cycles_total
    );
    commit_gate("e2e", &result, "substrate fast path regressed");
}
