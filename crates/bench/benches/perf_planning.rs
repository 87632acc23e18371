//! PERF-5 — the planning fast-path benchmark gate.
//!
//! Replays the same scripted multi-cycle scheduler lifetime — Fig. 9-scale:
//! 48 devices, 600 pending jobs drawn from a duplication-heavy class mix,
//! window 256 — through the MCCK planner twice: once in [`PlannerMode::Fast`]
//! (candidate preprocessing with multiplicity truncation, content-addressed
//! solve memo) and once in
//! [`PlannerMode::NaiveSerial`] (the seed's full per-device DP, retained as
//! the differential oracle). The two replays must emit **bit-identical pin
//! sequences**; only then is the timing comparison meaningful.
//!
//! Only the `plan()` calls are timed — the script around them (dispatches,
//! completions) is bookkeeping shared by both modes.
//!
//! Emits `BENCH_planning.json` (under `target/experiments/` and at the repo
//! root) and **fails** if the measured speedup drops below the 3× acceptance
//! floor, making this a regression gate, not just a report.

use criterion::{criterion_group, BenchmarkId, Criterion};
use phishare_bench::{persist_json, GateKnobs};
use phishare_core::{
    ClusterPolicy, ClusterScheduler, DeviceView, KnapsackConfig, PendingJob, Pin, PlanStats,
    PlannerMode,
};
use phishare_sim::DetRng;
use phishare_workload::JobId;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const DEVICES: u32 = 48;
const JOBS: usize = 600;
const WINDOW: usize = 256;
const CYCLES: usize = 8;
const FULL_MB: u64 = 7680;
const SEED: u64 = 9;
const SPEEDUP_FLOOR: f64 = 3.0;

/// Declared envelopes, Table I-style: a handful of classes repeated many
/// times. Duplication is what the fast path's multiplicity truncation and
/// cross-device memo sharing exploit; the naive DP pays for every copy.
const CLASSES: [(u64, u32); 6] = [
    (500, 40),
    (500, 40),
    (1000, 60),
    (2000, 120),
    (250, 16),
    (3000, 240),
];

struct Replay {
    /// Pin lists per cycle — the correctness artifact compared across modes.
    pins: Vec<Vec<Pin>>,
    /// Total wall time spent inside `plan()` across all cycles, ms.
    plan_ms: f64,
    stats: PlanStats,
}

/// A fresh MCCK scheduler planning in `mode` over the benchmark's window.
fn mcck(mode: PlannerMode) -> ClusterScheduler {
    let cfg = KnapsackConfig {
        planner: mode,
        window: WINDOW,
        ..KnapsackConfig::default()
    };
    ClusterScheduler::new(ClusterPolicy::Mcck, &cfg, 0).expect("MCCK has a scheduler")
}

/// Drive one scheduler through the scripted lifetime. The script is a pure
/// function of the seed and of the pins the planner emits, so two modes
/// producing identical pins see identical worlds at every cycle.
fn replay(mode: PlannerMode) -> Replay {
    let mut sched = mcck(mode);
    let mut rng = DetRng::substream(SEED, "perf-planning");
    let mut pending: Vec<PendingJob> = (0..JOBS)
        .map(|i| {
            let (mem_mb, threads) = CLASSES[i % CLASSES.len()];
            PendingJob {
                id: JobId(i as u64),
                mem_mb,
                threads,
                nominal_secs: 30.0,
            }
        })
        .collect();
    let mut devices: Vec<DeviceView> = (1..=DEVICES)
        .map(|node| DeviceView {
            node,
            device: 0,
            free_declared_mb: FULL_MB,
            resident_threads: 0,
        })
        .collect();
    // (mem_mb, threads, node, device) of each dispatched job.
    let mut residents: Vec<(u64, u32, u32, u32)> = Vec::new();

    let mut pins_per_cycle = Vec::with_capacity(CYCLES);
    let mut plan_secs = 0.0;
    for _ in 0..CYCLES {
        let start = Instant::now();
        let pins = sched.plan(&pending, &devices);
        plan_secs += start.elapsed().as_secs_f64();

        // Condor dispatches most pins before the next cycle; the rest stay
        // outstanding.
        for pin in &pins {
            if rng.chance(0.7) {
                sched.unpin(pin.job);
                let at = pending.iter().position(|j| j.id == pin.job).unwrap();
                let spec = pending.remove(at);
                let dev = devices
                    .iter_mut()
                    .find(|d| d.node == pin.node && d.device == pin.device)
                    .unwrap();
                dev.free_declared_mb = dev.free_declared_mb.saturating_sub(spec.mem_mb);
                dev.resident_threads += spec.threads;
                residents.push((spec.mem_mb, spec.threads, pin.node, pin.device));
            }
        }

        // Completions free capacity, steering devices back through
        // previously-seen states (the memo's cross-cycle win).
        let mut i = 0;
        while i < residents.len() {
            if rng.chance(0.4) {
                let (mem_mb, threads, node, device) = residents.swap_remove(i);
                let dev = devices
                    .iter_mut()
                    .find(|d| d.node == node && d.device == device)
                    .unwrap();
                dev.free_declared_mb += mem_mb;
                dev.resident_threads -= threads;
            } else {
                i += 1;
            }
        }

        pins_per_cycle.push(pins);
    }

    Replay {
        pins: pins_per_cycle,
        plan_ms: plan_secs * 1e3,
        stats: sched.plan_stats(),
    }
}

#[derive(Serialize)]
struct PlanningBench {
    devices: u32,
    jobs: usize,
    window: usize,
    cycles: usize,
    naive_runs: usize,
    fast_runs: usize,
    /// Best-of-runs total `plan()` wall time, naive serial planner, ms.
    naive_ms: f64,
    /// Best-of-runs total `plan()` wall time, fast planner, ms.
    fast_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    pins_issued: usize,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    knobs: GateKnobs,
}

fn gate() -> PlanningBench {
    // Correctness first: the two planners must agree pin-for-pin, cycle by
    // cycle, before the timing comparison means anything.
    let fast = replay(PlannerMode::Fast);
    let naive = replay(PlannerMode::NaiveSerial);
    assert_eq!(
        fast.pins, naive.pins,
        "fast and naive planners diverged on the scripted replay"
    );
    let pins_issued: usize = fast.pins.iter().map(Vec::len).sum();

    let naive_runs = 2;
    let fast_runs = 5;
    let mut naive_ms = naive.plan_ms;
    for _ in 1..naive_runs {
        naive_ms = naive_ms.min(replay(PlannerMode::NaiveSerial).plan_ms);
    }
    let mut fast_ms = fast.plan_ms;
    for _ in 1..fast_runs {
        fast_ms = fast_ms.min(replay(PlannerMode::Fast).plan_ms);
    }

    PlanningBench {
        devices: DEVICES,
        jobs: JOBS,
        window: WINDOW,
        cycles: CYCLES,
        naive_runs,
        fast_runs,
        naive_ms,
        fast_ms,
        speedup: naive_ms / fast_ms,
        speedup_floor: SPEEDUP_FLOOR,
        pins_issued,
        plan_cache_hits: fast.stats.cache_hits,
        plan_cache_misses: fast.stats.cache_misses,
        knobs: GateKnobs::non_negotiation(1),
    }
}

/// Criterion view of one cold planning cycle at a smaller size, so the
/// per-cycle numbers show up in the standard bench report.
fn bench_cycles(c: &mut Criterion) {
    let pending: Vec<PendingJob> = (0..120)
        .map(|i| {
            let (mem_mb, threads) = CLASSES[i % CLASSES.len()];
            PendingJob {
                id: JobId(i as u64),
                mem_mb,
                threads,
                nominal_secs: 30.0,
            }
        })
        .collect();
    let devices: Vec<DeviceView> = (1..=8u32)
        .map(|node| DeviceView {
            node,
            device: 0,
            free_declared_mb: FULL_MB,
            resident_threads: 0,
        })
        .collect();

    let mut group = c.benchmark_group("planning_cycle");
    group.sample_size(10);
    for (label, mode) in [
        ("naive", PlannerMode::NaiveSerial),
        ("fast", PlannerMode::Fast),
    ] {
        group.bench_with_input(
            BenchmarkId::new(label, "8dev/120jobs"),
            &mode,
            |b, &mode| b.iter(|| black_box(mcck(mode).plan(&pending, &devices))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cycles);

fn main() {
    phishare_bench::banner(
        "perf_planning",
        "§IV knapsack planning cost",
        "memoized+preprocessed planner ≥ 3× faster than the naive per-device DP",
    );

    let result = gate();
    println!(
        "{} devices, {} jobs, window {}, {} cycles ({} pins issued)",
        result.devices, result.jobs, result.window, result.cycles, result.pins_issued
    );
    println!(
        "naive (best of {}): {:.2} ms   fast (best of {}): {:.2} ms   speedup: {:.1}x",
        result.naive_runs, result.naive_ms, result.fast_runs, result.fast_ms, result.speedup
    );
    println!(
        "solve memo: {} hits / {} misses",
        result.plan_cache_hits, result.plan_cache_misses
    );
    persist_json("BENCH_planning", &result);
    // Also drop a copy at the repo root; the acceptance numbers are
    // committed alongside the code they measure.
    if let Ok(json) = serde_json::to_string_pretty(&result) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planning.json");
        if std::fs::write(path, json + "\n").is_ok() {
            println!("[saved {path}]");
        }
    }
    assert!(
        result.speedup >= result.speedup_floor,
        "planning fast path regressed: {:.1}x < {:.1}x floor",
        result.speedup,
        result.speedup_floor
    );

    benches();
}
