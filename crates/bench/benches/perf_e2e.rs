//! PERF-6 — the end-to-end substrate benchmark gate.
//!
//! Runs a figure-scale sweep (3 policies × 3 synthetic distributions ×
//! 3 seeds, 8-node cells) twice through the same parallel sweep harness:
//! once on the slab-indexed substrate fast path with per-worker scratch
//! recycling (`SubstrateMode::Fast`), once on the seed's map-keyed
//! substrate (`SubstrateMode::Keyed` — `BTreeMap` lookups per event, Vec-allocating
//! completion scans, aggregates recomputed by iteration). The keyed sweep
//! is the honest pre-optimization cost floor; the fast sweep must beat it
//! by ≥ 1.5× while staying **pin-for-pin identical** across every cell.
//!
//! The grid covers the three sharing-family policies (MCC, MCCK, and the
//! clairvoyant oracle) on offload-dense jobs crammed ~20 deep per device
//! — the regime the slab substrate targets, where per-offload state
//! access dominates wall time. MC is deliberately absent: exclusive mode
//! keeps one resident per device, so its cells measure matchmaking (gated
//! by `perf_negotiation`), not substrate state.
//!
//! Emits `BENCH_e2e.json` (under `target/experiments/` and at the repo
//! root) and **fails** below the floor — a regression gate, not just a
//! report. With `--features alloc-count` the gate also reports heap
//! allocations per executed offload for the fast sweep (counted by the
//! `phishare_bench::alloc_count` global allocator; the randomized
//! fast/keyed bit-identity lives in `cluster/tests/prop_runtime_diff.rs`).

use phishare_bench::{banner, best_of_ms, commit_gate, GateKnobs, EXPERIMENT_SEED, SYNTHETIC_JOBS};
use phishare_cluster::{default_threads, run_sweep, ClusterConfig, SubstrateMode, SweepJob};
use phishare_core::ClusterPolicy;
use phishare_sim::SimDuration;
use phishare_workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use serde::Serialize;
use std::sync::Arc;

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
const SPEEDUP_FLOOR: f64 = 1.5;

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
            // Brisk steady-state arrivals keep many jobs co-resident, so
            // keyed aggregate recomputation pays its full O(residents).
            .arrivals(ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(400),
            })
            .build(),
    )
}

/// Paper cluster with wider nodes (24 host slots) so devices actually run
/// deep, and arrival-triggered negotiations batched at 10 s so cycle
/// count — identical across substrates — stays a small share of the cell.
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
    keyed_runs: usize,
    fast_runs: usize,
    /// Best-of-runs wall time of one keyed-substrate sweep, ms ("before").
    keyed_ms: f64,
    /// Best-of-runs wall time of one fast-substrate sweep, ms ("after").
    fast_ms: f64,
    speedup: f64,
    speedup_floor: f64,
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
    let threads = default_threads();

    // Sanity first: every cell must agree pin-for-pin across substrates
    // before timing means anything.
    let fast = run_sweep(grid(&wls), threads, SubstrateMode::Fast);
    let keyed = run_sweep(grid(&wls), threads, SubstrateMode::Keyed);
    assert_eq!(fast.len(), keyed.len());
    for ((fl, fr), (kl, kr)) in fast.iter().zip(keyed.iter()) {
        assert_eq!(fl, kl, "cell order diverged");
        assert_eq!(fr, kr, "substrates diverged on {fl}");
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

    let keyed_runs = 2;
    let fast_runs = 3;
    let keyed_ms = best_of_ms(
        keyed_runs,
        || (),
        |()| run_sweep(grid(&wls), threads, SubstrateMode::Keyed),
    );
    let fast_ms = best_of_ms(
        fast_runs,
        || (),
        |()| run_sweep(grid(&wls), threads, SubstrateMode::Fast),
    );

    // Allocation census over one fast sweep (feature-gated).
    let allocs_per_offload = allocation_count().map(|before| {
        run_sweep(grid(&wls), threads, SubstrateMode::Fast);
        let delta = allocation_count().expect("feature on") - before;
        delta as f64 / total_offloads as f64
    });

    E2eBench {
        nodes: NODES,
        cells: fast.len(),
        jobs_per_cell: SYNTHETIC_JOBS,
        threads,
        keyed_runs,
        fast_runs,
        keyed_ms,
        fast_ms,
        speedup: keyed_ms / fast_ms,
        speedup_floor: SPEEDUP_FLOOR,
        completed_total,
        total_offloads,
        allocs_per_offload,
        cycles_skipped_total,
        negotiation_cycles_total,
        knobs: GateKnobs {
            partitions: gate_config(ClusterPolicy::Mcck).partitions.max(1),
            threads,
            skip_quiescent: gate_config(ClusterPolicy::Mcck).skip_quiescent,
            match_path: "delta".into(),
        },
    }
}

fn main() {
    banner(
        "perf_e2e",
        "the figure-scale sweeps behind §V (policies × distributions × seeds)",
        "slab substrate + scratch recycling ≥ 1.5× faster than the keyed substrate, \
         pin-for-pin identical sweeps",
    );

    let result = gate();
    println!(
        "{} cells ({} nodes, {} jobs each) on {} workers, {} jobs completed",
        result.cells, result.nodes, result.jobs_per_cell, result.threads, result.completed_total
    );
    println!(
        "keyed (best of {}): {:.1} ms   fast (best of {}): {:.1} ms   speedup: {:.2}x",
        result.keyed_runs, result.keyed_ms, result.fast_runs, result.fast_ms, result.speedup
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
