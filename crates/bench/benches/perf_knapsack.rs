//! PERF-1 — best-of-N timing table of the knapsack solvers.
//!
//! The paper's §IV-C claims complexity `O(n·w)`, "nearly linear with the
//! number of jobs" at the 50 MB granularity (`w = 160` columns for 8 GB).
//! This bench times the 2-D DP, the 1-D+repair variant and, on the small
//! instances, branch-and-bound across job counts, then the 2-D DP across
//! weight granularities, so the scaling claim reads off one table. The
//! `solve_2d_table1` rows draw threads from Table I's classes {60, 180,
//! 240} instead of 60–240 by whole cores; their shared factor lets the DP
//! solve on a scaled thread grid. Each row is the best of [`RUNS`]
//! readings of a batch of solves; nothing is asserted. The rows also land
//! in `target/experiments/perf_knapsack.json`.

use phishare_bench::{banner, best_of_ms, persist_json};
use phishare_knapsack::{
    solve_1d_filtered, solve_2d, solve_branch_and_bound, Capacity, PackItem, Packing, ValueFunction,
};
use phishare_sim::DetRng;
use serde::Serialize;

/// Readings per row; the row reports the fastest.
const RUNS: usize = 5;
/// Items solved per reading: small instances are solved many times over,
/// so every reading spans enough work for the clock to resolve it.
const ITEMS_PER_READING: usize = 16_384;

/// `n` jobs with memory uniform in Table I's 300–3400 MB and threads from
/// `threads`.
fn items(n: usize, seed: u64, threads: fn(&mut DetRng) -> u32) -> Vec<PackItem> {
    let mut rng = DetRng::from_seed(seed);
    (0..n)
        .map(|index| PackItem {
            index,
            mem_mb: rng.uniform_u64(300, 3400),
            threads: threads(&mut rng),
        })
        .collect()
}

/// Threads uniform in 60–240 by whole cores: their thread units share no
/// factor, so the DP runs on the unit grid.
fn any_cores(rng: &mut DetRng) -> u32 {
    rng.uniform_u64(15, 60) as u32 * 4
}

/// Table I's thread classes: 15, 45 and 60 thread units share the factor
/// 15, so the DP runs on a scaled grid of at most 5 thread rows.
fn table1_threads(rng: &mut DetRng) -> u32 {
    *rng.choose(&[60, 180, 240])
}

#[derive(Serialize)]
struct Row {
    solver: &'static str,
    jobs: usize,
    granularity_mb: u64,
    /// Best-of-runs wall time of one solve, µs.
    us_per_solve: f64,
    /// `us_per_solve` per job, ns: flat across `jobs` when the cost is
    /// linear in `n`.
    ns_per_job: f64,
}

fn time_row(
    solver: &'static str,
    set: &[PackItem],
    cap: &Capacity,
    solve: fn(&[PackItem], &Capacity, ValueFunction) -> Packing,
) -> Row {
    let reps = (ITEMS_PER_READING / set.len()).max(1);
    let ms = best_of_ms(
        RUNS,
        || (),
        |()| {
            (0..reps)
                .map(|_| {
                    solve(set, cap, ValueFunction::PaperQuadratic)
                        .selected
                        .len()
                })
                .sum::<usize>()
        },
    );
    let us_per_solve = ms * 1e3 / reps as f64;
    let row = Row {
        solver,
        jobs: set.len(),
        granularity_mb: cap.granularity_mb,
        us_per_solve,
        ns_per_job: us_per_solve * 1e3 / set.len() as f64,
    };
    println!(
        "{:<18} {:>5} {:>6} {:>12.1} {:>10.1}",
        row.solver, row.jobs, row.granularity_mb, row.us_per_solve, row.ns_per_job
    );
    row
}

fn main() {
    banner(
        "perf_knapsack",
        "§IV-C knapsack complexity",
        "the 2-D DP's cost grows nearly linearly in the number of jobs at 50 MB granularity",
    );
    println!(
        "{:<18} {:>5} {:>6} {:>12} {:>10}",
        "solver", "jobs", "MB", "µs/solve", "ns/job"
    );

    let cap = Capacity::phi(7680);
    let mut rows = Vec::new();
    for n in [64usize, 256, 1024, 4096] {
        let set = items(n, 42, any_cores);
        rows.push(time_row("solve_2d", &set, &cap, solve_2d));
        let table1 = items(n, 42, table1_threads);
        rows.push(time_row("solve_2d_table1", &table1, &cap, solve_2d));
        rows.push(time_row("solve_1d_filtered", &set, &cap, solve_1d_filtered));
        if n <= 256 {
            // Exponential worst case: keep B&B to the small instances.
            rows.push(time_row(
                "branch_and_bound",
                &set,
                &cap,
                solve_branch_and_bound,
            ));
        }
    }

    let set = items(1024, 7, any_cores);
    for granularity_mb in [25u64, 50, 100, 200] {
        let cap = Capacity {
            mem_mb: 7680,
            granularity_mb,
            thread_limit: 240,
            value_ref_threads: 240,
        };
        rows.push(time_row("solve_2d", &set, &cap, solve_2d));
    }
    persist_json("perf_knapsack", &rows);
}
