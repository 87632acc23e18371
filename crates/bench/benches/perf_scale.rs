//! PERF-9 — the weak-scaling gate for the process-sharded sweep engine.
//!
//! Weak scaling: the grid grows with the worker count (a fixed number of
//! cells per worker), so a perfectly scaling engine holds wall time flat
//! as workers are added — until it runs out of cores. The gate:
//!
//! 1. pins the sharded engine **bit-identical** to the in-process
//!    `run_sweep` on the largest grid (a differential-oracle check before
//!    any timing means anything), then
//! 2. times the sharded sweep at 1, 2, and 4 workers with 6 uniform-cost
//!    cells per worker, and
//! 3. fails if **core-normalized parallel efficiency** at 4 workers drops
//!    below 0.7.
//!
//! Core normalization keeps the gate honest on any machine: with P cores,
//! the ideal wall time for W workers over W×C cells is
//! `T1 × W ⁄ min(W, P)` (work grows ×W, usable parallelism caps at P), so
//!
//! ```text
//! efficiency(W) = T1 · (W / min(W, P)) / T(W)
//! ```
//!
//! On a ≥4-core CI runner this reduces to the classic weak-scaling
//! `T1/T(W)`; on a 1-core box it measures pure engine overhead (spawn,
//! manifest, lease churn, fsync, merge) against serial cell cost. Emits
//! `BENCH_scale.json` (repo root + `target/experiments/`), covered by the
//! committed-floor lint. Checkpoint dirs live under
//! `target/sweep-shards/` so a failed gate leaves them for CI artifact
//! upload; they are removed when the gate passes.

use phishare_bench::{
    banner, best_of_ms, commit_gate, experiments_dir, GateKnobs, EXPERIMENT_SEED,
};
use phishare_cluster::{run_sweep, ClusterConfig, ShardOptions, SubstrateMode, SweepJob};
use phishare_core::ClusterPolicy;
use phishare_workload::{WorkloadBuilder, WorkloadKind};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

const CELLS_PER_WORKER: usize = 6;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const JOBS_PER_CELL: usize = 150;
const NODES: u32 = 4;
const RUNS: usize = 2;
const EFFICIENCY_FLOOR: f64 = 0.7;

/// Uniform-cost cells: same policy, same node count, same job count —
/// only the seed varies — so weak scaling measures the engine, not a
/// lucky assignment of cheap cells to one worker.
fn scale_grid(cells: usize) -> Vec<SweepJob> {
    (0..cells)
        .map(|idx| {
            let seed = EXPERIMENT_SEED + idx as u64;
            let workload = Arc::new(
                WorkloadBuilder::new(WorkloadKind::Table1Mix)
                    .count(JOBS_PER_CELL)
                    .seed(seed)
                    .build(),
            );
            SweepJob {
                label: format!("MCCK/{NODES}n/s{seed}"),
                config: ClusterConfig::paper_cluster(ClusterPolicy::Mcck).with_nodes(NODES),
                workload,
            }
        })
        .collect()
}

/// `target/sweep-shards/` — kept on gate failure for CI artifact upload.
fn shard_root() -> PathBuf {
    experiments_dir()
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("sweep-shards")
}

fn shard_opts(workers: usize, dir: PathBuf) -> ShardOptions {
    ShardOptions {
        workers,
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_phishare-bench")),
        dir: Some(dir),
        resume: false,
        keep_dir: false,
        substrate: SubstrateMode::Fast,
    }
}

#[derive(Serialize)]
struct ScaleRow {
    workers: usize,
    cells: usize,
    /// Best-of-runs wall time of the whole sharded sweep, ms.
    ms: f64,
    /// Core-normalized parallel efficiency vs the 1-worker baseline.
    efficiency: f64,
}

#[derive(Serialize)]
struct ScaleBench {
    cores: usize,
    cells_per_worker: usize,
    jobs_per_cell: usize,
    nodes: u32,
    runs: usize,
    rows: Vec<ScaleRow>,
    /// Core-normalized parallel efficiency at the largest worker count —
    /// named `speedup` so the committed-floor lint covers this gate.
    speedup: f64,
    speedup_floor: f64,
    knobs: GateKnobs,
}

fn gate() -> ScaleBench {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let root = shard_root();
    let _ = std::fs::remove_dir_all(&root);

    // Differential oracle first: the sharded engine must reproduce the
    // in-process sweep bit-for-bit on the largest grid before its timing
    // is worth gating.
    let max_workers = *WORKER_COUNTS.iter().max().expect("non-empty");
    let oracle_cells = max_workers * CELLS_PER_WORKER;
    let sharded = phishare_cluster::run_sweep_sharded(
        scale_grid(oracle_cells),
        &shard_opts(max_workers, root.join("oracle")),
    )
    .expect("sharded sweep runs");
    let in_process = run_sweep(
        scale_grid(oracle_cells),
        max_workers.min(cores),
        SubstrateMode::Fast,
    );
    assert_eq!(
        sharded, in_process,
        "sharded sweep diverged from in-process run_sweep"
    );

    let mut rows: Vec<ScaleRow> = Vec::new();
    for &workers in &WORKER_COUNTS {
        let cells = workers * CELLS_PER_WORKER;
        let mut dirs = (0..RUNS).map(|run| root.join(format!("scale-w{workers}-r{run}")));
        let best = best_of_ms(
            RUNS,
            || dirs.next().expect("one checkpoint dir per run"),
            |dir| {
                let merged = phishare_cluster::run_sweep_sharded(
                    scale_grid(cells),
                    &shard_opts(workers, dir),
                )
                .expect("sharded sweep runs");
                assert_eq!(merged.len(), cells);
                merged
            },
        );
        let t1 = rows.first().map(|r| r.ms).unwrap_or(best);
        let ideal_stretch = workers as f64 / workers.min(cores) as f64;
        rows.push(ScaleRow {
            workers,
            cells,
            ms: best,
            efficiency: t1 * ideal_stretch / best,
        });
    }

    let speedup = rows.last().expect("rows non-empty").efficiency;
    ScaleBench {
        cores,
        cells_per_worker: CELLS_PER_WORKER,
        jobs_per_cell: JOBS_PER_CELL,
        nodes: NODES,
        runs: RUNS,
        rows,
        speedup,
        speedup_floor: EFFICIENCY_FLOOR,
        knobs: GateKnobs::non_negotiation(*WORKER_COUNTS.iter().max().expect("non-empty")),
    }
}

fn main() {
    banner(
        "perf_scale",
        "weak scaling of the process-sharded sweep engine (ROADMAP item 3)",
        "≥ 0.7 core-normalized parallel efficiency at 4 workers, sharded \
         sweeps bit-identical to run_sweep",
    );

    let result = gate();
    println!(
        "{} cores, {} cells/worker ({} Table-I jobs, {} nodes per cell), best of {}:",
        result.cores, result.cells_per_worker, result.jobs_per_cell, result.nodes, result.runs
    );
    for row in &result.rows {
        println!(
            "  {} worker(s) × {} cells: {:>8.1} ms   efficiency {:.2}",
            row.workers, row.cells, row.ms, row.efficiency
        );
    }
    commit_gate(
        "scale",
        &result,
        &format!(
            "sharded sweep engine regressed: efficiency at {} workers",
            result.rows.last().map(|r| r.workers).unwrap_or(0)
        ),
    );
    // The gate passed: checkpoint dirs have served their purpose (they are
    // kept on failure so CI can upload them).
    let _ = std::fs::remove_dir_all(shard_root());
    println!(
        "gate passed: efficiency {:.2} ≥ {:.1}",
        result.speedup, result.speedup_floor
    );
}
