//! Experiment measurements.

use phishare_core::ClusterPolicy;
use serde::{Deserialize, Serialize};

/// Everything one simulation run reports — the quantities behind the paper's
/// tables and figures.
///
/// Equality is implemented manually: [`ExperimentResult::plan_ms`] is
/// wall-clock measurement, not simulation output, and
/// [`ExperimentResult::cycles_skipped`] only records how much work the
/// quiescence fast path avoided, so both are excluded — bit-identity
/// assertions across event modes, planner modes, partition counts, and
/// quiescence settings compare everything else.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Which stack ran.
    pub policy: ClusterPolicy,
    /// Cluster size (nodes).
    pub nodes: u32,
    /// Workload label.
    pub workload: String,
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Jobs that completed successfully.
    pub completed: usize,
    /// Jobs killed by COSMIC containers (declared-limit overrun).
    pub container_kills: usize,
    /// Jobs killed by the device OOM killer (physical oversubscription).
    pub oom_kills: usize,
    /// Time of the last job completion — the makespan, seconds.
    pub makespan_secs: f64,
    /// Mean fraction of hardware threads busy across all devices.
    pub thread_utilization: f64,
    /// Mean fraction of cores busy across all devices — the §III metric.
    pub core_utilization: f64,
    /// Mean fraction of usable device memory committed.
    pub mem_utilization: f64,
    /// Mean fraction of time each device had at least one active offload.
    pub device_busy_fraction: f64,
    /// Mean fraction of host cores busy with jobs' host phases.
    pub host_core_utilization: f64,
    /// Mean job wait (submission → dispatch), seconds.
    pub mean_wait_secs: f64,
    /// Mean job turnaround (submission → completion), seconds.
    pub mean_turnaround_secs: f64,
    /// Mean time offloads spent queued by COSMIC admission, seconds.
    pub mean_offload_queue_secs: f64,
    /// Negotiation cycles that ran.
    pub negotiation_cycles: u64,
    /// Negotiation cycles skipped by quiescence detection: the runtime
    /// proved the cycle a no-op (no world mutation since the last cycle,
    /// every idle certificate standing) and bumped only this counter.
    /// Included in `negotiation_cycles`. Excluded from equality — skipping
    /// is a wall-clock optimization whose on/off state must not make two
    /// otherwise-identical runs compare unequal.
    pub cycles_skipped: u64,
    /// Placement pins issued by the cluster scheduler (0 for MC).
    pub pins_issued: u64,
    /// Total coprocessor energy over the run, kWh (idle + dynamic draw of
    /// every card; the footprint argument in joules).
    pub energy_kwh: f64,
    /// Live discrete events handled (simulation cost, for the perf
    /// benches). Stale prediction deliveries are excluded, so the count is
    /// identical across event-scheduling modes.
    pub events_processed: u64,
    /// Injected MPSS/device resets that actually struck (strikes on an
    /// already-down target are absorbed and not counted).
    pub device_resets: u64,
    /// Injected node-churn events that actually struck.
    pub node_churns: u64,
    /// Fault-vacated jobs returned to the queue with a backoff delay.
    pub retries: u64,
    /// Offload segments that ran host-side under the fallback policy.
    pub fallback_offloads: u64,
    /// Chaos perturbation windows that opened during the run.
    pub perturb_windows: u64,
    /// Negotiation cycles that ran on stale collector ads (the refresh
    /// was skipped because a stale-ads window was open).
    pub stale_ad_skips: u64,
    /// Cycle requests whose trigger instant was delayed by injected
    /// jitter. Counts requests, not executions — a jittered request can
    /// still be superseded by an earlier one, so this may exceed
    /// `negotiation_cycles`.
    pub jittered_cycles: u64,
    /// Offload segments whose service demand was inflated by a latency
    /// spike window.
    pub inflated_offloads: u64,
    /// Matches gracefully undone because stale ads promised a device the
    /// node could no longer supply.
    pub stale_match_rejects: u64,
    /// Jobs held permanently after exhausting their retry budget.
    pub held_after_retries: usize,
    /// Planner solves answered from the solve memo (MCCK fast path; 0 for
    /// other policies and for the naive-serial planner).
    pub plan_cache_hits: u64,
    /// Planner solves that ran a DP serially.
    pub plan_cache_misses: u64,
    /// Wall-clock spent inside `ClusterScheduler::plan` over the whole run,
    /// milliseconds. Measurement only — excluded from equality.
    pub plan_ms: f64,
}

impl PartialEq for ExperimentResult {
    fn eq(&self, other: &Self) -> bool {
        // Destructured without `..`: a new field fails to compile until it
        // is compared below or ignored here. Ignored: `plan_ms`
        // (nondeterministic wall-clock) and `cycles_skipped`
        // (work-avoidance accounting; differs between skip-on and skip-off
        // twins whose results are otherwise equal).
        let Self {
            policy,
            nodes,
            workload,
            jobs,
            completed,
            container_kills,
            oom_kills,
            makespan_secs,
            thread_utilization,
            core_utilization,
            mem_utilization,
            device_busy_fraction,
            host_core_utilization,
            mean_wait_secs,
            mean_turnaround_secs,
            mean_offload_queue_secs,
            negotiation_cycles,
            cycles_skipped: _,
            pins_issued,
            energy_kwh,
            events_processed,
            device_resets,
            node_churns,
            retries,
            fallback_offloads,
            perturb_windows,
            stale_ad_skips,
            jittered_cycles,
            inflated_offloads,
            stale_match_rejects,
            held_after_retries,
            plan_cache_hits,
            plan_cache_misses,
            plan_ms: _,
        } = self;
        *policy == other.policy
            && *nodes == other.nodes
            && *workload == other.workload
            && *jobs == other.jobs
            && *completed == other.completed
            && *container_kills == other.container_kills
            && *oom_kills == other.oom_kills
            && *makespan_secs == other.makespan_secs
            && *thread_utilization == other.thread_utilization
            && *core_utilization == other.core_utilization
            && *mem_utilization == other.mem_utilization
            && *device_busy_fraction == other.device_busy_fraction
            && *host_core_utilization == other.host_core_utilization
            && *mean_wait_secs == other.mean_wait_secs
            && *mean_turnaround_secs == other.mean_turnaround_secs
            && *mean_offload_queue_secs == other.mean_offload_queue_secs
            && *negotiation_cycles == other.negotiation_cycles
            && *pins_issued == other.pins_issued
            && *energy_kwh == other.energy_kwh
            && *events_processed == other.events_processed
            && *device_resets == other.device_resets
            && *node_churns == other.node_churns
            && *retries == other.retries
            && *fallback_offloads == other.fallback_offloads
            && *perturb_windows == other.perturb_windows
            && *stale_ad_skips == other.stale_ad_skips
            && *jittered_cycles == other.jittered_cycles
            && *inflated_offloads == other.inflated_offloads
            && *stale_match_rejects == other.stale_match_rejects
            && *held_after_retries == other.held_after_retries
            && *plan_cache_hits == other.plan_cache_hits
            && *plan_cache_misses == other.plan_cache_misses
    }
}

impl ExperimentResult {
    /// Percentage reduction of this run's makespan relative to `baseline`.
    pub fn makespan_reduction_vs(&self, baseline: &ExperimentResult) -> f64 {
        if baseline.makespan_secs == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.makespan_secs / baseline.makespan_secs)
    }

    /// True when every submitted job completed (no kills, no leftovers).
    pub fn all_completed(&self) -> bool {
        self.completed == self.jobs
    }

    /// Fraction of submitted jobs that completed (degradation metric for
    /// the fault experiments).
    pub fn completion_rate(&self) -> f64 {
        if self.jobs == 0 {
            return 1.0;
        }
        self.completed as f64 / self.jobs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(makespan: f64) -> ExperimentResult {
        ExperimentResult {
            policy: ClusterPolicy::Mc,
            nodes: 8,
            workload: "test".into(),
            jobs: 10,
            completed: 10,
            container_kills: 0,
            oom_kills: 0,
            makespan_secs: makespan,
            thread_utilization: 0.5,
            core_utilization: 0.5,
            mem_utilization: 0.2,
            device_busy_fraction: 0.6,
            host_core_utilization: 0.1,
            mean_wait_secs: 1.0,
            mean_turnaround_secs: 2.0,
            mean_offload_queue_secs: 0.0,
            negotiation_cycles: 3,
            cycles_skipped: 0,
            pins_issued: 0,
            energy_kwh: 1.0,
            events_processed: 100,
            device_resets: 0,
            node_churns: 0,
            retries: 0,
            fallback_offloads: 0,
            perturb_windows: 0,
            stale_ad_skips: 0,
            jittered_cycles: 0,
            inflated_offloads: 0,
            stale_match_rejects: 0,
            held_after_retries: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_ms: 0.0,
        }
    }

    #[test]
    fn equality_ignores_plan_wall_clock_only() {
        let a = result(1.0);
        let mut b = result(1.0);
        b.plan_ms = 123.456;
        assert_eq!(a, b, "plan_ms is measurement, not simulation output");
        b.cycles_skipped = 2;
        assert_eq!(a, b, "cycles_skipped is work-avoidance accounting");
        b.plan_cache_hits = 1;
        assert_ne!(a, b, "cache counters are deterministic and must compare");
    }

    #[test]
    fn reduction_math() {
        let base = result(1000.0);
        let better = result(610.0);
        assert!((better.makespan_reduction_vs(&base) - 39.0).abs() < 1e-9);
        assert_eq!(base.makespan_reduction_vs(&base), 0.0);
    }

    #[test]
    fn completion_check() {
        let mut r = result(1.0);
        assert!(r.all_completed());
        assert_eq!(r.completion_rate(), 1.0);
        r.completed = 9;
        assert!(!r.all_completed());
        assert!((r.completion_rate() - 0.9).abs() < 1e-12);
    }
}
