//! Deterministic fault injection and recovery policy.
//!
//! The paper's deployment stack survives in production because each layer
//! has a recovery story: MPSS restarts a wedged Phi card (tearing down every
//! resident COI process), HTCondor's negotiator stops matching against a
//! startd whose ClassAd expired, and the schedd requeues vacated jobs with
//! an exponential-backoff release delay until `MaxRetries` turns them into
//! held jobs. This module models the *injection* side of that world: a
//! [`FaultPlan`] is a pre-materialized, seed-deterministic list of device
//! resets and node churn events that the runtime folds into its event queue.
//! Recovery behaviour is governed by [`RecoveryConfig`] and implemented in
//! `runtime.rs`; the invariants it must uphold are checked by
//! [`crate::audit()`].
//!
//! Determinism: the plan is drawn from [`DetRng::substream`] with the
//! dedicated `"fault-plan"` label, so enabling faults never perturbs any
//! other random stream (OOM victim selection, workload draws), and a
//! disabled [`FaultConfig`] produces an empty plan without touching any RNG
//! at all — the zero-fault timeline is bit-identical to a build without
//! this module.

use crate::config::ClusterConfig;
use phishare_sim::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What kind of failure strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// MPSS crash/restart of one card: every resident COI process is torn
    /// down, COSMIC registrations flush, and the card admits nothing until
    /// recovery. The node (and its startd) stays up.
    DeviceReset,
    /// The whole node vanishes (startd dies, machine reboots): its ClassAds
    /// are invalidated at the collector, running jobs are vacated, and every
    /// card on the node restarts with the node.
    NodeChurn,
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Failure kind.
    pub kind: FaultKind,
    /// Target node (1-based, as everywhere in the cluster crate).
    pub node: u32,
    /// Target device index on the node (ignored for [`FaultKind::NodeChurn`]).
    pub device: u32,
    /// When the failure strikes.
    pub at: SimTime,
    /// How long the target stays down before it recovers.
    pub downtime: SimDuration,
}

/// A deterministic, pre-materialized failure schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Failures ordered by (time, node, device, kind).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no failures. Running with this plan is bit-identical to
    /// running without fault support at all (asserted by
    /// `prop_runtime_diff`).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no failure is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Materialize the plan described by `config.faults`.
    ///
    /// Each target (node for churn, card for resets) fails as a renewal
    /// process: the gap between a recovery and the next failure of the same
    /// target is exponential with the configured MTBF, so a single target
    /// never has overlapping failures of the same kind. Draws come from the
    /// `"fault-plan"` substream of the cluster seed and stop at
    /// `horizon_secs`.
    pub fn generate(config: &ClusterConfig) -> Self {
        let f = config.faults;
        if !f.enabled() {
            return FaultPlan::empty();
        }
        let mut rng = DetRng::substream(config.seed, "fault-plan");
        let mut events = Vec::new();
        if f.node_mtbf_secs > 0.0 {
            for node in 1..=config.nodes {
                push_renewals(
                    &mut events,
                    &mut rng,
                    FaultKind::NodeChurn,
                    node,
                    0,
                    f.node_mtbf_secs,
                    f.node_downtime_secs,
                    f.horizon_secs,
                );
            }
        }
        if f.device_mtbf_secs > 0.0 {
            for node in 1..=config.nodes {
                for device in 0..config.devices_per_node {
                    push_renewals(
                        &mut events,
                        &mut rng,
                        FaultKind::DeviceReset,
                        node,
                        device,
                        f.device_mtbf_secs,
                        f.device_downtime_secs,
                        f.horizon_secs,
                    );
                }
            }
        }
        events.sort_by_key(|e| {
            (
                e.at,
                e.node,
                e.device,
                match e.kind {
                    FaultKind::DeviceReset => 0u8,
                    FaultKind::NodeChurn => 1u8,
                },
            )
        });
        FaultPlan { events }
    }

    /// Check the plan against a configuration: every event must target an
    /// existing node/device and carry a positive downtime.
    pub fn validate(&self, config: &ClusterConfig) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.node == 0 || e.node > config.nodes {
                return Err(format!(
                    "fault plan event {i} targets node {} of a {}-node cluster",
                    e.node, config.nodes
                ));
            }
            if e.kind == FaultKind::DeviceReset && e.device >= config.devices_per_node {
                return Err(format!(
                    "fault plan event {i} targets device {} but nodes have {}",
                    e.device, config.devices_per_node
                ));
            }
            if e.downtime.is_zero() {
                return Err(format!("fault plan event {i} has zero downtime"));
            }
        }
        Ok(())
    }

    /// Serialize to pretty JSON, the committed-artifact format used by the
    /// CLI's `--dump-fault-plan` and the chaos proptest's failure dumps.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plan serializes")
    }

    /// Parse a plan back from [`FaultPlan::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad fault plan JSON: {e}"))
    }
}

#[allow(clippy::too_many_arguments)]
fn push_renewals(
    events: &mut Vec<FaultEvent>,
    rng: &mut DetRng,
    kind: FaultKind,
    node: u32,
    device: u32,
    mtbf_secs: f64,
    downtime_secs: f64,
    horizon_secs: f64,
) {
    let downtime = SimDuration::from_secs_f64(downtime_secs);
    let mut t = rng.exponential(mtbf_secs);
    while t <= horizon_secs {
        events.push(FaultEvent {
            kind,
            node,
            device,
            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
            downtime,
        });
        t += downtime_secs + rng.exponential(mtbf_secs);
    }
}

/// Failure-rate knobs. All rates default to zero: the default configuration
/// injects nothing and leaves every timeline untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Mean time between MPSS crashes per card, in seconds. `0` disables
    /// device resets.
    pub device_mtbf_secs: f64,
    /// How long a crashed card stays down (MPSS restart + card reboot).
    pub device_downtime_secs: f64,
    /// Mean time between node failures per node, in seconds. `0` disables
    /// node churn.
    pub node_mtbf_secs: f64,
    /// How long a churned node stays gone before its startd re-advertises.
    pub node_downtime_secs: f64,
    /// Failures are only injected in `[0, horizon_secs]`; the tail of a long
    /// run drains fault-free. `0` disables injection entirely.
    pub horizon_secs: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            device_mtbf_secs: 0.0,
            device_downtime_secs: 30.0,
            node_mtbf_secs: 0.0,
            node_downtime_secs: 120.0,
            horizon_secs: 0.0,
        }
    }
}

impl FaultConfig {
    /// True when this configuration can inject at least one failure.
    pub fn enabled(&self) -> bool {
        self.horizon_secs > 0.0 && (self.device_mtbf_secs > 0.0 || self.node_mtbf_secs > 0.0)
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("device_mtbf_secs", self.device_mtbf_secs),
            ("device_downtime_secs", self.device_downtime_secs),
            ("node_mtbf_secs", self.node_mtbf_secs),
            ("node_downtime_secs", self.node_downtime_secs),
            ("horizon_secs", self.horizon_secs),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("fault config: {name} must be finite and >= 0"));
            }
        }
        if self.device_mtbf_secs > 0.0 && self.device_downtime_secs <= 0.0 {
            return Err("fault config: device resets need a positive downtime".into());
        }
        if self.node_mtbf_secs > 0.0 && self.node_downtime_secs <= 0.0 {
            return Err("fault config: node churn needs a positive downtime".into());
        }
        Ok(())
    }
}

/// What happens to jobs hit by a failure — HTCondor's schedd-side policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// How many times a job may be vacated-and-requeued before it is held
    /// for good (HTCondor's `MaxRetries` / `JobMaxVacateTime` regime).
    pub max_retries: u32,
    /// Base of the exponential release backoff: the k-th requeue releases
    /// after `retry_base · 2^k`.
    pub retry_base: SimDuration,
    /// Cap on the release backoff.
    pub retry_cap: SimDuration,
    /// What a running job does when its card resets under it while the node
    /// stays up.
    pub fallback: FallbackPolicy,
    /// Slowdown factor applied to an offload segment executed on host cores
    /// under [`FallbackPolicy::HostOnly`] — the `__MIC__`-absent compilation
    /// path runs the same kernel without the coprocessor.
    pub host_fallback_slowdown: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 3,
            retry_base: SimDuration::from_secs(10),
            retry_cap: SimDuration::from_secs(300),
            fallback: FallbackPolicy::HostOnly,
            host_fallback_slowdown: 3.0,
        }
    }
}

impl RecoveryConfig {
    /// Release delay after the k-th vacate: `min(base·2^k, cap)`.
    pub fn backoff(&self, prior_attempts: u32) -> SimDuration {
        let shift = prior_attempts.min(32);
        let ticks = self
            .retry_base
            .ticks()
            .saturating_mul(1u64 << shift)
            .min(self.retry_cap.ticks());
        SimDuration::from_ticks(ticks)
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.retry_base.is_zero() {
            return Err("recovery config: retry_base must be positive".into());
        }
        if self.retry_cap < self.retry_base {
            return Err("recovery config: retry_cap must be >= retry_base".into());
        }
        if !self.host_fallback_slowdown.is_finite() || self.host_fallback_slowdown < 1.0 {
            return Err("recovery config: host_fallback_slowdown must be >= 1".into());
        }
        Ok(())
    }
}

/// Fate of a job whose device resets while its node stays up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackPolicy {
    /// Degrade gracefully: the job keeps its slot and finishes on host
    /// cores, paying [`RecoveryConfig::host_fallback_slowdown`] on each
    /// remaining offload segment. It never returns to the card.
    HostOnly,
    /// Vacate and requeue the job with backoff, like a node failure would.
    Requeue,
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_core::ClusterPolicy;

    fn faulty_config() -> ClusterConfig {
        let mut c = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);
        c.faults.device_mtbf_secs = 400.0;
        c.faults.node_mtbf_secs = 900.0;
        c.faults.horizon_secs = 2000.0;
        c
    }

    #[test]
    fn disabled_config_generates_nothing_deterministically() {
        let c = ClusterConfig::default();
        assert!(!c.faults.enabled());
        assert!(FaultPlan::generate(&c).is_empty());
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let c = faulty_config();
        let a = FaultPlan::generate(&c);
        let b = FaultPlan::generate(&c);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let other = FaultPlan::generate(&faulty_config().with_seed(99));
        assert_ne!(a, other, "different seeds draw different plans");
    }

    #[test]
    fn plans_are_sorted_within_horizon_and_valid() {
        let c = faulty_config();
        let plan = FaultPlan::generate(&c);
        plan.validate(&c).unwrap();
        let horizon = SimTime::ZERO + SimDuration::from_secs_f64(c.faults.horizon_secs);
        for pair in plan.events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "plan out of order");
        }
        for e in &plan.events {
            assert!(e.at <= horizon);
            assert!(!e.downtime.is_zero());
        }
    }

    #[test]
    fn same_target_failures_never_overlap() {
        let c = faulty_config();
        let plan = FaultPlan::generate(&c);
        use std::collections::BTreeMap;
        let mut last_up: BTreeMap<(u8, u32, u32), SimTime> = BTreeMap::new();
        for e in &plan.events {
            let k = (
                match e.kind {
                    FaultKind::DeviceReset => 0u8,
                    FaultKind::NodeChurn => 1,
                },
                e.node,
                e.device,
            );
            if let Some(up) = last_up.get(&k) {
                assert!(e.at >= *up, "same target failed while still down");
            }
            last_up.insert(k, e.at + e.downtime);
        }
    }

    #[test]
    fn validation_catches_bad_targets() {
        let c = ClusterConfig::default().with_nodes(2);
        let mk = |node, device, downtime| FaultPlan {
            events: vec![FaultEvent {
                kind: FaultKind::DeviceReset,
                node,
                device,
                at: SimTime::ZERO,
                downtime: SimDuration::from_secs(downtime),
            }],
        };
        assert!(mk(3, 0, 10).validate(&c).is_err());
        assert!(mk(0, 0, 10).validate(&c).is_err());
        assert!(mk(1, 5, 10).validate(&c).is_err());
        assert!(mk(1, 0, 0).validate(&c).is_err());
        assert!(mk(2, 0, 10).validate(&c).is_ok());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let c = faulty_config();
        let plan = FaultPlan::generate(&c);
        assert!(!plan.is_empty());
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(
            FaultPlan::from_json(&FaultPlan::empty().to_json()).unwrap(),
            FaultPlan::empty()
        );
        assert!(FaultPlan::from_json("not json").is_err());
        assert!(FaultPlan::from_json("{\"events\": [{}]}").is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RecoveryConfig::default();
        assert_eq!(r.backoff(0), SimDuration::from_secs(10));
        assert_eq!(r.backoff(1), SimDuration::from_secs(20));
        assert_eq!(r.backoff(2), SimDuration::from_secs(40));
        assert_eq!(r.backoff(10), SimDuration::from_secs(300), "capped");
        assert_eq!(r.backoff(64), SimDuration::from_secs(300), "no overflow");
    }

    #[test]
    fn config_validation() {
        let mut f = FaultConfig::default();
        f.validate().unwrap();
        f.device_mtbf_secs = -1.0;
        assert!(f.validate().is_err());
        let f = FaultConfig {
            device_mtbf_secs: 100.0,
            device_downtime_secs: 0.0,
            ..Default::default()
        };
        assert!(f.validate().is_err());

        let mut r = RecoveryConfig::default();
        r.validate().unwrap();
        r.host_fallback_slowdown = 0.5;
        assert!(r.validate().is_err());
        let r = RecoveryConfig {
            retry_cap: SimDuration::from_secs(1),
            ..Default::default()
        };
        assert!(r.validate().is_err());
    }
}
