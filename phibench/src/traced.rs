//! The traced pass of the simulation workloads: the unit again, each cell
//! run untraced and then traced in this process, with spans around every
//! layer call, the audit, and the layer replays. For `chaos_sweep` the
//! unit also goes through one sharded sweep whose checkpoints are merged a
//! second time and whose manifest is written again on its own.

use crate::layers::{ratio, Engine, Layers};
use crate::replay;
use crate::report::Outcome;
use crate::sims::{self, check_cell, run_cell, unit, CellResult, Kind, Measured, Size};
use crate::spans::Tracer;
use crate::stats;
use phishare_cluster::shard::{build_manifest, merge_results, write_manifest};
use phishare_cluster::{
    audit, Experiment, ExperimentResult, FaultPlan, PerturbPlan, SubstrateMode, SweepJob,
    TraceEvent,
};
use phishare_cosmic::CosmicDevice;
use phishare_phi::{PhiDevice, SharedThroughputDevice};
use std::path::Path;
use std::time::Instant;

/// Totals over the traced cells.
#[derive(Default)]
struct Totals {
    /// Wall time of the untraced reference runs, for the tracing overhead.
    untraced_ms: f64,
    plan_ms: f64,
    hits: u64,
    misses: u64,
    pins: u64,
    events: u64,
    cycles: u64,
    skipped: u64,
    dispatches: u64,
    sim_ops: u64,
    sim_ns: u64,
    device_ops: u64,
    device_ns: u64,
    cosmic_ops: u64,
    cosmic_ns: u64,
    requests: u64,
    queued: u64,
    violations: u64,
}

/// One traced cell: the run, its audit and the layer replays. Returns the
/// result and every problem found.
fn trace_cell(
    kind: Kind,
    cell: &SweepJob,
    op: u64,
    tracer: &mut Tracer,
    t: &mut Totals,
) -> Result<(ExperimentResult, Vec<String>), String> {
    let (cfg, wl) = (&cell.config, &*cell.workload);
    let (result, trace) = tracer
        .span("runtime.run", op, || {
            Experiment::run_chaos_traced(
                cfg,
                wl,
                &FaultPlan::generate(cfg),
                &PerturbPlan::generate(cfg),
                kind.substrate(),
            )
        })
        .map_err(|e| format!("{}: traced run failed: {e}", cell.label))?;

    let violations = tracer.span("audit.check", op, || audit(cfg, wl, &result, &trace));
    t.violations += violations.len() as u64;
    let mut problems: Vec<String> = violations
        .iter()
        .map(|v| format!("{}: audit: {v}", cell.label))
        .collect();

    let (ops, ns) = tracer.span("sim.replay", op, || replay::time_event_queue(&trace));
    t.sim_ops += ops;
    t.sim_ns += ns;

    let replayed = tracer.span("device.replay", op, || match kind {
        Kind::Chaos => replay::replay::<SharedThroughputDevice>(cfg, wl, &trace),
        _ => replay::replay::<PhiDevice>(cfg, wl, &trace),
    });
    match replayed {
        Ok((logs, counts)) => {
            t.device_ops += counts.device_ops;
            t.cosmic_ops += counts.cosmic_ops;
            t.requests += counts.offload_requests;
            t.queued += counts.offload_queued;
            t.device_ns += match kind {
                Kind::Chaos => tracer.span("throughput.exec", op, || {
                    replay::time_devices::<SharedThroughputDevice>(&logs, cfg.seed)
                }),
                _ => tracer.span("phi.exec", op, || {
                    replay::time_devices::<PhiDevice>(&logs, cfg.seed)
                }),
            };
            t.cosmic_ns += tracer.span("cosmic.exec", op, || {
                replay::time_cosmic::<CosmicDevice>(&logs)
            });
        }
        Err(e) => problems.push(format!("{}: replay: {e}", cell.label)),
    }

    t.plan_ms += result.plan_ms;
    t.hits += result.plan_cache_hits;
    t.misses += result.plan_cache_misses;
    t.pins += result.pins_issued;
    t.events += result.events_processed;
    t.cycles += result.negotiation_cycles;
    t.skipped += result.cycles_skipped;
    t.dispatches += trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Dispatched { .. }))
        .count() as u64;
    Ok((result, problems))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The sharded part of the `chaos_sweep` traced pass: one sweep over
/// `jobs` with its checkpoints kept, a second merge of them, and the
/// manifest written again on its own, each as a span. Returns the sweep's
/// results.
fn trace_shards(
    jobs: &[SweepJob],
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<Vec<CellResult>, String> {
    let dir = sims::shard_dir("traced", 0);
    let swept = tracer.span("shard.sweep", 0, || {
        sims::sharded(jobs.to_vec(), dir.clone())
    });
    let checkpoints: u64 = (0..sims::CHAOS_WORKERS)
        .map(|w| std::fs::metadata(dir.join(format!("results-w{w}.jsonl"))).map_or(0, |m| m.len()))
        .sum();
    let merged = tracer.span("shard.merge", 0, || merge_results(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    let swept = swept?;
    let merged: Vec<CellResult> = merged?.into_iter().map(|(_, r)| r).collect();
    out.check(merged == swept, || {
        "merging the checkpoints again gave different results".into()
    });
    layers.shard_checkpoint_bytes = checkpoints as f64;

    let dir = sims::shard_dir("manifest", 0);
    let written = tracer.span("shard.manifest", 0, || {
        write_manifest(&dir, &build_manifest(jobs, SubstrateMode::Shared))
    });
    layers.shard_manifest_bytes = dir_bytes(&dir) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    written?;
    Ok(swept)
}

/// The traced pass of a simulation workload.
pub fn sims(
    kind: Kind,
    size: Size,
    seed: u64,
    measured: &Measured,
    out: &mut Outcome,
) -> Result<(Layers, Tracer), String> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let wall = Instant::now();
    let cells = tracer.span("workload.build", 0, || unit(kind, size, seed))?;
    let swept = match kind {
        Kind::Chaos => Some(trace_shards(&cells, &mut tracer, &mut layers, out)?),
        _ => None,
    };

    let mut t = Totals::default();
    for (idx, cell) in cells.iter().enumerate() {
        let op = idx as u64;
        let started = Instant::now();
        let reference = tracer.span("runtime.untraced", op, || run_cell(kind, cell));
        t.untraced_ms += started.elapsed().as_secs_f64() * 1e3;
        let mut problems = Vec::new();
        let mut expect_same = |what: &str, other: Option<&CellResult>| {
            if other.is_some_and(|o| *o != reference) {
                problems.push(format!(
                    "{}: {what} and in-process results differ",
                    cell.label
                ));
            }
        };
        expect_same("measured", measured.first.get(idx));
        expect_same("sharded", swept.as_ref().and_then(|s| s.get(idx)));
        match trace_cell(kind, cell, op, &mut tracer, &mut t) {
            Ok((result, p)) => {
                problems.extend(p);
                problems.extend(check_cell(&cell.label, &Ok(result.clone()), None));
                if reference != Ok(result) {
                    problems.push(format!(
                        "{}: traced and untraced results differ",
                        cell.label
                    ));
                }
            }
            Err(e) => problems.push(e),
        }
        out.op(problems);
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let runs = tracer.durations_ms("runtime.run");
    let run_ms: f64 = runs.iter().sum();
    layers.workload_build_ms = tracer.self_ms("workload.build");
    layers.trace_wall_ms = wall_ms;
    layers.trace_overhead_pct = 100.0 * (ratio(run_ms, t.untraced_ms) - 1.0);
    layers.trace_spans = tracer.spans().len() as f64;
    layers.core_plan_share = ratio(t.plan_ms, run_ms);
    layers.core_plan_hit_ratio = ratio(t.hits as f64, (t.hits + t.misses) as f64);
    layers.core_pins = t.pins as f64;
    layers.sim_events = t.events as f64;
    layers.sim_ops_per_us = ratio(t.sim_ops as f64 * 1e3, t.sim_ns as f64);
    let device = Engine::new(t.device_ops, t.device_ns, run_ms);
    match kind {
        Kind::Chaos => layers.throughput = device,
        _ => layers.phi = device,
    }
    layers.cosmic = Engine::new(t.cosmic_ops, t.cosmic_ns, run_ms);
    layers.cosmic_queued_ratio = ratio(t.queued as f64, t.requests as f64);
    layers.condor_cycles = t.cycles as f64;
    layers.condor_cycles_skipped = t.skipped as f64;
    layers.condor_matched = t.dispatches as f64;
    layers.condor_cycles_per_s = ratio(t.cycles as f64 * 1e3, run_ms);
    layers.runtime_runs = runs.len() as f64;
    layers.runtime_max_over_p50 = ratio(
        runs.iter().copied().fold(0.0, f64::max),
        stats::median(&runs),
    );
    // An estimate of what neither the planner nor the replayed layers
    // account for: the event loop's own work, negotiation, host phases and
    // the simulator's trace recording.
    let explained = t.plan_ms + (t.sim_ns + t.device_ns + t.cosmic_ns) as f64 / 1e6;
    layers.runtime_residual_share = ratio(run_ms - explained, run_ms);
    layers.shard_manifest_share = ratio(tracer.self_ms("shard.manifest"), wall_ms);
    layers.shard_merge_share = ratio(tracer.self_ms("shard.merge"), wall_ms);
    if kind == Kind::Chaos {
        // The part of the sweep's wall not spent running cells, assuming
        // the workers split the in-process cell time evenly.
        let sweep_ms = tracer.self_ms("shard.sweep");
        let per_worker = t.untraced_ms / sims::CHAOS_WORKERS as f64;
        layers.shard_overhead_share = ratio(sweep_ms - per_worker, sweep_ms);
    }
    layers.audit_share = ratio(tracer.self_ms("audit.check"), wall_ms);
    layers.audit_violations = t.violations as f64;
    Ok((layers, tracer))
}
