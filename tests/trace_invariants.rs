//! End-to-end safety invariants checked against full lifecycle traces:
//! exclusive allocation really is exclusive, COSMIC really never lets
//! concurrent offload threads exceed the hardware, and every lifecycle is
//! well-formed.

use phishare::cluster::{ClusterConfig, Experiment, TraceEvent};
use phishare::core::ClusterPolicy;
use phishare::workload::{JobId, WorkloadBuilder, WorkloadKind};
use std::collections::BTreeMap;

fn cfg(policy: ClusterPolicy, nodes: u32) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
    c.knapsack.window = 64;
    c
}

/// Sweep a node's offload spans and return the maximum concurrent thread
/// sum observed anywhere on it.
fn max_concurrent_threads(spans: &[phishare::cluster::trace::OffloadSpan], node: u32) -> u32 {
    // Event sweep: +threads at start, −threads at end.
    let mut deltas: Vec<(u64, i64)> = Vec::new();
    for s in spans.iter().filter(|s| s.node == node) {
        deltas.push((s.start.ticks(), s.threads as i64));
        deltas.push((s.end.ticks(), -(s.threads as i64)));
    }
    // Ends sort before starts at the same tick (an offload completing frees
    // its threads before the next one starts on that tick).
    deltas.sort_by_key(|(t, d)| (*t, *d));
    let mut current = 0i64;
    let mut peak = 0i64;
    for (_, d) in deltas {
        current += d;
        peak = peak.max(current);
    }
    peak as u32
}

#[test]
fn mc_never_overlaps_offloads_on_a_device() {
    let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(60)
        .seed(41)
        .build();
    let (_, trace) = Experiment::new(&cfg(ClusterPolicy::Mc, 3), &wl)
        .simulate_traced()
        .unwrap();
    let spans = trace.offload_spans();
    for node in 1..=3 {
        let node_spans: Vec<_> = spans.iter().filter(|s| s.node == node).collect();
        for (i, a) in node_spans.iter().enumerate() {
            for b in &node_spans[i + 1..] {
                let overlap = a.start < b.end && b.start < a.end;
                // Exclusive allocation: offloads of different jobs never
                // overlap (same-job offloads are sequential by the profile).
                assert!(
                    !overlap || a.job == b.job,
                    "MC overlapped {:?} and {:?} on node {node}",
                    a,
                    b
                );
            }
        }
    }
}

#[test]
fn cosmic_thread_cap_holds_under_all_sharing_policies() {
    let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(80)
        .seed(42)
        .build();
    for policy in [
        ClusterPolicy::Mcc,
        ClusterPolicy::Mcck,
        ClusterPolicy::Oracle,
    ] {
        let (_, trace) = Experiment::new(&cfg(policy, 2), &wl)
            .simulate_traced()
            .unwrap();
        let spans = trace.offload_spans();
        for node in 1..=2 {
            let peak = max_concurrent_threads(&spans, node);
            assert!(
                peak <= 240,
                "{policy}: node {node} ran {peak} concurrent offload threads"
            );
        }
    }
}

#[test]
fn lifecycles_are_well_formed() {
    let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(40)
        .seed(43)
        .build();
    let (result, trace) = Experiment::new(&cfg(ClusterPolicy::Mcck, 2), &wl)
        .simulate_traced()
        .unwrap();
    assert!(result.all_completed());

    // Per job: Submitted < Pinned ≤ Dispatched < Completed, offload
    // starts/finishes strictly alternate.
    #[derive(Default)]
    struct Life {
        submitted: Option<u64>,
        pinned: Option<u64>,
        dispatched: Option<u64>,
        completed: Option<u64>,
        open_offload: bool,
        offloads: usize,
    }
    let mut lives: BTreeMap<JobId, Life> = BTreeMap::new();
    for ev in &trace.events {
        let Some(job) = ev.job() else {
            continue; // infrastructure events (none in a fault-free run)
        };
        let life = lives.entry(job).or_default();
        let t = ev.at().ticks();
        match ev {
            TraceEvent::Submitted { .. } => life.submitted = Some(t),
            TraceEvent::Pinned { .. } => {
                assert!(life.submitted.is_some());
                life.pinned = Some(t);
            }
            TraceEvent::Dispatched { .. } => {
                assert!(life.pinned.unwrap() <= t);
                life.dispatched = Some(t);
            }
            TraceEvent::OffloadStarted { .. } => {
                assert!(life.dispatched.is_some());
                assert!(!life.open_offload, "{job} started two offloads");
                life.open_offload = true;
            }
            TraceEvent::OffloadFinished { .. } => {
                assert!(life.open_offload, "{job} finished a phantom offload");
                life.open_offload = false;
                life.offloads += 1;
            }
            TraceEvent::Completed { .. } => {
                assert!(!life.open_offload);
                life.completed = Some(t);
            }
            _ => {}
        }
    }
    assert_eq!(lives.len(), 40);
    for (job, life) in &lives {
        assert!(life.completed.is_some(), "{job} never completed");
        let spec = wl.jobs.iter().find(|j| j.id == *job).unwrap();
        assert_eq!(
            life.offloads,
            spec.profile.offload_count(),
            "{job} executed the wrong number of offloads"
        );
        assert!(life.submitted.unwrap() <= life.pinned.unwrap());
        assert!(life.dispatched.unwrap() < life.completed.unwrap());
    }
}

#[test]
fn mc_trace_has_no_queued_offloads() {
    // Without sharing there is nothing to queue behind.
    let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(30)
        .seed(44)
        .build();
    let (_, trace) = Experiment::new(&cfg(ClusterPolicy::Mc, 2), &wl)
        .simulate_traced()
        .unwrap();
    assert!(!trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::OffloadQueued { .. })));
}
