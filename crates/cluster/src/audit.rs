//! Post-run self-checking.
//!
//! [`audit`] replays a traced run against the system's safety and
//! consistency properties and returns every violation found. The test suite
//! runs it on every policy; the CLI prints its verdict after `--gantt`
//! runs. A reproduction whose numbers come from a simulator is only as
//! credible as the simulator's invariants — this makes them checkable on
//! any run, not just the ones the tests happen to cover.

use crate::config::ClusterConfig;
use crate::metrics::ExperimentResult;
use crate::trace::{Trace, TraceEvent};
use phishare_core::ClusterPolicy;
use phishare_workload::{JobId, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// Audit a traced run; returns human-readable violations (empty = clean).
pub fn audit(
    config: &ClusterConfig,
    workload: &Workload,
    result: &ExperimentResult,
    trace: &Trace,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut complain = |msg: String| violations.push(msg);

    // --- accounting ---
    // Every submitted job ends exactly one way: completed, killed by a
    // container or the OOM killer, or held after exhausting fault retries.
    let accounted =
        result.completed + result.container_kills + result.oom_kills + result.held_after_retries;
    if accounted != result.jobs {
        complain(format!(
            "job accounting leak: {} completed + {} container + {} oom + {} held ≠ {} submitted",
            result.completed,
            result.container_kills,
            result.oom_kills,
            result.held_after_retries,
            result.jobs
        ));
    }
    if result.jobs != workload.len() {
        complain(format!(
            "result covers {} jobs but the workload has {}",
            result.jobs,
            workload.len()
        ));
    }

    // --- trace/result agreement ---
    let completions = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Completed { .. }))
        .count();
    if completions != result.completed {
        complain(format!(
            "trace has {completions} completions, result reports {}",
            result.completed
        ));
    }
    // Makespan is the last job-lifecycle event; infrastructure events
    // (a recovery firing after the last completion) may legitimately trail.
    if let Some(last) = trace.events.iter().rfind(|e| e.job().is_some()) {
        let gap = (last.at().as_secs_f64() - result.makespan_secs).abs();
        if gap > 1e-6 {
            complain(format!(
                "makespan {} disagrees with the trace's last job event at {}",
                result.makespan_secs,
                last.at().as_secs_f64()
            ));
        }
    }

    // --- ordering within the trace ---
    let mut last_at = None;
    for ev in &trace.events {
        if let Some(prev) = last_at {
            if ev.at() < prev {
                complain(format!("trace out of order at {}", ev.at()));
                break;
            }
        }
        last_at = Some(ev.at());
    }

    // --- the COSMIC safety property ---
    // Heterogeneous pools give nodes different cards, so the thread bound
    // is per node, not cluster-wide.
    for node in trace.nodes() {
        let hw = config.spec_for_node(node).phi.hw_threads();
        let peak = trace.max_concurrent_threads(node);
        if peak > hw {
            complain(format!(
                "node {node} ran {peak} concurrent offload threads (> {hw} hardware)"
            ));
        }
    }

    // --- exclusive allocation really is exclusive ---
    if config.policy == ClusterPolicy::Mc && config.devices_per_node == 1 {
        let spans = trace.offload_spans();
        for node in trace.nodes() {
            let mut node_spans: Vec<_> = spans.iter().filter(|s| s.node == node).collect();
            node_spans.sort_by_key(|s| s.start);
            for pair in node_spans.windows(2) {
                if pair[1].start < pair[0].end && pair[0].job != pair[1].job {
                    complain(format!(
                        "MC overlap on node {node}: {} and {}",
                        pair[0].job, pair[1].job
                    ));
                }
            }
        }
    }

    // --- fault/recovery pairing & churn-time consistency ---
    // Every injected fault that struck must be matched by exactly one
    // recovery, targets never strike while already down, the trace counts
    // must agree with the result counters, and no job may dispatch to a
    // target that is down at that instant. The sweep keeps live down-state
    // while walking the (chronological) trace.
    let mut down_devs: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut down_nodes: BTreeSet<u32> = BTreeSet::new();
    let mut resets = 0u64;
    let mut churns = 0u64;
    let mut requeues = 0u64;
    let mut max_retry_holds = 0usize;
    for ev in &trace.events {
        match ev {
            TraceEvent::DeviceReset { node, device, at } => {
                resets += 1;
                if down_nodes.contains(node) || !down_devs.insert((*node, *device)) {
                    complain(format!(
                        "device ({node}, {device}) reset at {at} while already down"
                    ));
                }
            }
            TraceEvent::DeviceRecovered { node, device, at } => {
                let was_down = down_devs.remove(&(*node, *device));
                if !was_down {
                    complain(format!(
                        "device ({node}, {device}) recovered at {at} without a reset"
                    ));
                }
            }
            TraceEvent::NodeDown { node, at } => {
                churns += 1;
                if !down_nodes.insert(*node) {
                    complain(format!("node {node} went down at {at} while already down"));
                }
            }
            TraceEvent::NodeUp { node, at } => {
                let was_down = down_nodes.remove(node);
                if !was_down {
                    complain(format!("node {node} came up at {at} without going down"));
                }
            }
            TraceEvent::Dispatched {
                job,
                node,
                device,
                at,
            } if down_nodes.contains(node) || down_devs.contains(&(*node, *device)) => {
                complain(format!(
                    "{job} dispatched to down target ({node}, {device}) at {at}"
                ));
            }
            TraceEvent::Requeued { .. } => requeues += 1,
            TraceEvent::HeldMaxRetries { .. } => max_retry_holds += 1,
            _ => {}
        }
    }
    for (node, device) in &down_devs {
        complain(format!("device ({node}, {device}) never recovered"));
    }
    for node in &down_nodes {
        complain(format!("node {node} never came back up"));
    }
    for (what, traced, reported) in [
        ("device resets", resets, result.device_resets),
        ("node churns", churns, result.node_churns),
        ("retries", requeues, result.retries),
        (
            "max-retry holds",
            max_retry_holds as u64,
            result.held_after_retries as u64,
        ),
    ] {
        if traced != reported {
            complain(format!(
                "trace has {traced} {what}, result reports {reported}"
            ));
        }
    }

    // --- per-job lifecycle shape ---
    #[derive(Default)]
    struct Shape {
        dispatched: bool,
        open_offload: bool,
        terminal: bool,
    }
    let mut shapes: BTreeMap<JobId, Shape> = BTreeMap::new();
    for ev in &trace.events {
        let Some(job) = ev.job() else {
            continue; // infrastructure events have no lifecycle shape
        };
        let shape = shapes.entry(job).or_default();
        if shape.terminal {
            complain(format!("{job} has events after its terminal state"));
            break;
        }
        match ev {
            TraceEvent::Dispatched { .. } => shape.dispatched = true,
            TraceEvent::OffloadStarted { .. } => {
                if !shape.dispatched || shape.open_offload {
                    complain(format!("{job} started an offload out of order"));
                }
                shape.open_offload = true;
            }
            TraceEvent::OffloadFinished { .. } => {
                if !shape.open_offload {
                    complain(format!("{job} finished a phantom offload"));
                }
                shape.open_offload = false;
            }
            TraceEvent::Requeued { .. } => {
                // The fault aborted whatever was executing; the job starts
                // over from scratch if it is released again.
                shape.dispatched = false;
                shape.open_offload = false;
            }
            TraceEvent::FallbackStarted { .. } => {
                if !shape.dispatched {
                    complain(format!("{job} fell back to host without dispatching"));
                }
                // The reset aborted the in-flight offload (if any).
                shape.open_offload = false;
            }
            TraceEvent::Completed { .. } => {
                if shape.open_offload {
                    complain(format!("{job} completed mid-offload"));
                }
                shape.terminal = true;
            }
            TraceEvent::Killed { .. } | TraceEvent::HeldMaxRetries { .. } => shape.terminal = true,
            _ => {}
        }
    }

    // --- perturbation bookkeeping ---
    // A stale-ads window can only skip refreshes on cycles that actually
    // ran, and stale-match rejections only happen on stale ads.
    if result.stale_ad_skips > result.negotiation_cycles {
        complain(format!(
            "{} stale-ad skips exceed {} negotiation cycles",
            result.stale_ad_skips, result.negotiation_cycles
        ));
    }
    if result.stale_match_rejects > 0 && result.stale_ad_skips == 0 {
        complain(format!(
            "{} stale-match rejections without any stale-ad window",
            result.stale_match_rejects
        ));
    }
    if result.perturb_windows == 0 && (result.stale_ad_skips > 0 || result.inflated_offloads > 0) {
        complain("perturbation effects reported without any open window".to_string());
    }
    if !config.perturb.enabled() && result.perturb_windows > 0 {
        complain(format!(
            "{} perturbation windows opened with perturbations disabled",
            result.perturb_windows
        ));
    }

    // --- quiescence bookkeeping ---
    // Skipped cycles are a subset of negotiation cycles (the skip path
    // still counts the cycle), and skipping can only happen when enabled.
    if result.cycles_skipped > result.negotiation_cycles {
        complain(format!(
            "{} skipped cycles exceed {} negotiation cycles",
            result.cycles_skipped, result.negotiation_cycles
        ));
    }
    if !config.skip_quiescent && result.cycles_skipped > 0 {
        complain(format!(
            "{} cycles skipped with quiescence detection disabled",
            result.cycles_skipped
        ));
    }

    // --- metric ranges ---
    for (name, v) in [
        ("thread_utilization", result.thread_utilization),
        ("core_utilization", result.core_utilization),
        ("mem_utilization", result.mem_utilization),
        ("device_busy_fraction", result.device_busy_fraction),
        ("host_core_utilization", result.host_core_utilization),
    ] {
        if !(0.0..=1.0 + 1e-9).contains(&v) {
            complain(format!("{name} out of range: {v}"));
        }
    }
    if result.energy_kwh < 0.0 {
        complain(format!("negative energy: {}", result.energy_kwh));
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Experiment;
    use phishare_workload::{WorkloadBuilder, WorkloadKind};

    fn run(policy: ClusterPolicy, jobs: usize, seed: u64) -> Vec<String> {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(2);
        cfg.knapsack.window = 48;
        let (result, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        audit(&cfg, &wl, &result, &trace)
    }

    #[test]
    fn clean_runs_audit_clean() {
        for policy in ClusterPolicy::WITH_ORACLE {
            let violations = run(policy, 30, 61);
            assert!(violations.is_empty(), "{policy}: {violations:?}");
        }
    }

    #[test]
    fn runs_with_kills_audit_clean() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(30)
            .seed(62)
            .misbehaving_fraction(0.4)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mcck).with_nodes(2);
        cfg.knapsack.window = 48;
        let (result, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        let violations = audit(&cfg, &wl, &result, &trace);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(result.container_kills > 0);
    }

    #[test]
    fn audit_detects_planted_violations() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(10)
            .seed(63)
            .build();
        let cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mcck).with_nodes(2);
        let (mut result, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        // Corrupt the accounting.
        result.completed -= 1;
        let violations = audit(&cfg, &wl, &result, &trace);
        assert!(
            violations.iter().any(|v| v.contains("accounting")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("completions")),
            "{violations:?}"
        );
    }

    #[test]
    fn audit_detects_quiescence_corruption() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(10)
            .seed(64)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mc).with_nodes(2);
        let (mut result, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        result.cycles_skipped = result.negotiation_cycles + 1;
        let violations = audit(&cfg, &wl, &result, &trace);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("skipped cycles exceed")),
            "{violations:?}"
        );
        // A skip reported while the fast path was off is also a lie.
        cfg.skip_quiescent = false;
        result.cycles_skipped = 1;
        let violations = audit(&cfg, &wl, &result, &trace);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("quiescence detection disabled")),
            "{violations:?}"
        );
    }
}
