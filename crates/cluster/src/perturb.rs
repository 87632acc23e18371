//! Deterministic chaos perturbations layered on top of fault injection.
//!
//! [`crate::fault`] models the *hard* failures of the paper's deployment
//! stack (MPSS crashes, startd death). A production scheduler degrades long
//! before anything dies: cards throttle thermally, collector ads go stale,
//! offloads stall on a congested PCIe bus, and negotiation cycles jitter
//! under daemon load. This module models that *soft* degradation as a stack
//! of perturbation kinds ([`DerateSpec`], [`LatencySpec`], [`StaleAdsSpec`]),
//! materialized into a pre-computed, seed-deterministic [`PerturbPlan`] of
//! bounded windows that the runtime folds into its event queue exactly like
//! fault events.
//!
//! Determinism contract (mirrors the fault plan's):
//!
//! * every perturbation kind draws from its **own**
//!   [`DetRng::substream`] label (`"perturb-derate"`, `"perturb-latency"`,
//!   `"perturb-stale-ads"`; cycle jitter draws lazily from
//!   `"perturb-jitter"` indexed by cycle sequence number), so enabling one
//!   never shifts another's draws — or any pre-existing stream (OOM
//!   victims, workload, fault plan);
//! * a disabled spec touches no RNG at all, so the **empty stack is
//!   bit-identical** to a build without this module;
//! * windows are materialized up front as a renewal process per target
//!   (per card for derate/latency, global for stale ads): the gap between
//!   a window closing and the next opening on the same target is
//!   exponential with the configured mean, so same-target windows of one
//!   kind never overlap. Windows of *different* kinds may overlap freely;
//!   overlapping derates compose by folding their factors in ascending
//!   plan order, overlapping latency windows add their extra ticks.
//!
//! Cycle jitter is the one perturbation that cannot be pre-materialized —
//! negotiation cycles are scheduled on demand — so it is applied lazily in
//! `runtime.rs`: the offset of cycle `k` is a pure function of
//! `(seed, "perturb-jitter", k)` via [`DetRng::substream_indexed`], immune
//! to call-order drift between event modes and substrates.

use crate::config::ClusterConfig;
use crate::fault::{check_expected_events, check_times, push_renewals};
use phishare_sim::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Thermal throttling: while a window is open, every execution rate on the
/// struck card is multiplied by `factor` — after the per-offload
/// `PerfModel` rates on the Phi substrates and on the `SharingCurve` output
/// on the shared substrates, so both members of each oracle pair degrade
/// through identical IEEE operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerateSpec {
    /// Mean gap between windows per card, in seconds. `0` disables.
    pub mean_gap_secs: f64,
    /// How long each throttling window lasts.
    pub duration_secs: f64,
    /// Rate multiplier while throttled, in `(0, 1]`.
    pub factor: f64,
}

impl Default for DerateSpec {
    fn default() -> Self {
        DerateSpec {
            mean_gap_secs: 0.0,
            duration_secs: 60.0,
            factor: 0.5,
        }
    }
}

impl DerateSpec {
    /// True when throttling windows open at all (a positive mean gap). A
    /// disabled kind draws nothing from its substream.
    pub(crate) fn enabled(&self) -> bool {
        self.mean_gap_secs > 0.0
    }
}

/// Offload-latency spikes (congested PCIe bus / DMA stalls): offload
/// segments *starting* on the struck card while a window is open carry
/// `extra_secs` of additional nominal work. Applied at request time, so a
/// COSMIC-queued offload keeps the inflation it was admitted with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySpec {
    /// Mean gap between windows per card, in seconds. `0` disables.
    pub mean_gap_secs: f64,
    /// How long each spike window lasts.
    pub duration_secs: f64,
    /// Extra nominal seconds added to each offload started in a window.
    pub extra_secs: f64,
}

impl Default for LatencySpec {
    fn default() -> Self {
        LatencySpec {
            mean_gap_secs: 0.0,
            duration_secs: 30.0,
            extra_secs: 2.0,
        }
    }
}

impl LatencySpec {
    /// True when spike windows open at all (a positive mean gap). A
    /// disabled kind draws nothing from its substream.
    pub(crate) fn enabled(&self) -> bool {
        self.mean_gap_secs > 0.0
    }
}

/// Delayed collector updates: while a window is open the negotiator matches
/// against frozen machine ads (`refresh_ads` is skipped), so claims can be
/// granted on state that no longer exists — the runtime gracefully undoes
/// a match whose ground-truth device is gone instead of panicking.
/// Interacts with the delta negotiation path: stale windows freeze the
/// dirty-set clock along with the ads, so `MatchPath::Delta` and
/// `MatchPath::Full` stay bit-identical under staleness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaleAdsSpec {
    /// Mean gap between stale windows (cluster-global), in seconds.
    /// `0` disables.
    pub mean_gap_secs: f64,
    /// How long each stale window lasts.
    pub duration_secs: f64,
}

impl Default for StaleAdsSpec {
    fn default() -> Self {
        StaleAdsSpec {
            mean_gap_secs: 0.0,
            duration_secs: 45.0,
        }
    }
}

impl StaleAdsSpec {
    /// True when stale windows open at all (a positive mean gap). A
    /// disabled kind draws nothing from its substream.
    pub(crate) fn enabled(&self) -> bool {
        self.mean_gap_secs > 0.0
    }
}

/// What kind of soft degradation a window applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PerturbKind {
    /// Multiply every execution rate on the target card by `factor`.
    DeviceDerate {
        /// Rate multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Inflate offload segments started on the target card by `extra`.
    OffloadLatency {
        /// Extra nominal work per offload segment.
        extra: SimDuration,
    },
    /// Freeze collector machine ads cluster-wide.
    StaleAds,
}

impl PerturbKind {
    fn rank(&self) -> u8 {
        match self {
            PerturbKind::DeviceDerate { .. } => 0,
            PerturbKind::OffloadLatency { .. } => 1,
            PerturbKind::StaleAds => 2,
        }
    }
}

/// One scheduled perturbation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerturbEvent {
    /// What degradation applies while the window is open.
    pub kind: PerturbKind,
    /// Target node (1-based; `0` for cluster-global kinds).
    pub node: u32,
    /// Target device index on the node (ignored for global kinds).
    pub device: u32,
    /// When the window opens.
    pub at: SimTime,
    /// How long the window stays open.
    pub duration: SimDuration,
}

/// A deterministic, pre-materialized perturbation schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PerturbPlan {
    /// Windows ordered by (open time, node, device, kind).
    pub events: Vec<PerturbEvent>,
}

impl PerturbPlan {
    /// A plan with no windows. Running with this plan is bit-identical to
    /// running without perturbation support at all (asserted by
    /// `empty_perturb_plan_is_bit_identical_to_plain_run`).
    pub(crate) fn empty() -> Self {
        PerturbPlan::default()
    }

    /// Number of scheduled windows.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no window is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Materialize the stack described by `config.perturb`: one renewal
    /// process of windows per card for derates and latency spikes, one
    /// cluster-wide for stale ads. Each enabled kind draws from a fresh
    /// substream for its own label, so any sub-stack reproduces the exact
    /// windows it contributes to the full stack; a disabled kind draws
    /// nothing.
    pub fn generate(config: &ClusterConfig) -> Self {
        let p = config.perturb;
        if !p.enabled() {
            return PerturbPlan::empty();
        }
        let mut events = Vec::new();
        let window = |kind| {
            move |node, device, at, duration| PerturbEvent {
                kind,
                node,
                device,
                at,
                duration,
            }
        };
        let rng = |label| DetRng::substream(config.seed, label);
        if p.derate.enabled() {
            let kind = PerturbKind::DeviceDerate {
                factor: p.derate.factor,
            };
            push_renewals(
                &mut events,
                &mut rng("perturb-derate"),
                config.cards(),
                (
                    p.derate.mean_gap_secs,
                    p.derate.duration_secs,
                    p.horizon_secs,
                ),
                window(kind),
            );
        }
        if p.latency.enabled() {
            let kind = PerturbKind::OffloadLatency {
                extra: SimDuration::from_secs_f64(p.latency.extra_secs),
            };
            push_renewals(
                &mut events,
                &mut rng("perturb-latency"),
                config.cards(),
                (
                    p.latency.mean_gap_secs,
                    p.latency.duration_secs,
                    p.horizon_secs,
                ),
                window(kind),
            );
        }
        if p.stale_ads.enabled() {
            // The collector is cluster-global; stale windows target node 0
            // by convention (no real node is 0 — they are 1-based
            // everywhere).
            push_renewals(
                &mut events,
                &mut rng("perturb-stale-ads"),
                [(0, 0)],
                (
                    p.stale_ads.mean_gap_secs,
                    p.stale_ads.duration_secs,
                    p.horizon_secs,
                ),
                window(PerturbKind::StaleAds),
            );
        }
        events.sort_by_key(|e| (e.at, e.node, e.device, e.kind.rank()));
        PerturbPlan { events }
    }

    /// Check the plan against a configuration: every window must target an
    /// existing card (or node 0 for global kinds), stay open a positive
    /// duration, carry sane parameters, and keep its opening time,
    /// duration and latency extra within
    /// [`phishare_workload::MAX_DURATION_SECS`].
    pub fn validate(&self, config: &ClusterConfig) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            let mut extra_secs = 0.0;
            match e.kind {
                PerturbKind::StaleAds => {
                    if e.node != 0 || e.device != 0 {
                        return Err(format!(
                            "perturb plan event {i}: global kinds must target node 0"
                        ));
                    }
                }
                PerturbKind::DeviceDerate { factor } => {
                    check_card_target(config, i, e)?;
                    if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                        return Err(format!(
                            "perturb plan event {i}: derate factor {factor} not in (0, 1]"
                        ));
                    }
                }
                PerturbKind::OffloadLatency { extra } => {
                    check_card_target(config, i, e)?;
                    if extra.is_zero() {
                        return Err(format!("perturb plan event {i}: zero latency extra"));
                    }
                    extra_secs = extra.as_secs_f64();
                }
            }
            if e.duration.is_zero() {
                return Err(format!("perturb plan event {i}: zero duration"));
            }
            check_times(
                &format!("perturb plan event {i}"),
                &[
                    ("at", e.at.as_secs_f64()),
                    ("duration", e.duration.as_secs_f64()),
                    ("extra", extra_secs),
                ],
            )?;
        }
        Ok(())
    }

    /// Serialize to pretty JSON, the committed-artifact format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("perturb plan serializes")
    }

    /// Parse a plan back from [`PerturbPlan::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad perturb plan JSON: {e}"))
    }
}

fn check_card_target(config: &ClusterConfig, i: usize, e: &PerturbEvent) -> Result<(), String> {
    if e.node == 0 || e.node > config.nodes {
        return Err(format!(
            "perturb plan event {i} targets node {} of a {}-node cluster",
            e.node, config.nodes
        ));
    }
    if e.device >= config.devices_per_node {
        return Err(format!(
            "perturb plan event {i} targets device {} but nodes have {}",
            e.device, config.devices_per_node
        ));
    }
    Ok(())
}

/// Knobs for the whole perturbation stack. Everything defaults to
/// disabled: the default configuration perturbs nothing and leaves every
/// timeline untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerturbConfig {
    /// Thermal-throttling windows per card.
    pub derate: DerateSpec,
    /// Offload-latency spike windows per card.
    pub latency: LatencySpec,
    /// Cluster-global stale-ad windows.
    pub stale_ads: StaleAdsSpec,
    /// Maximum negotiation-cycle jitter, in seconds. Cycle `k` is delayed
    /// by `uniform(0, jitter_max_secs)` drawn from
    /// `substream_indexed(seed, "perturb-jitter", k)`. `0` disables (and
    /// draws nothing).
    pub jitter_max_secs: f64,
    /// Windows are only opened in `[0, horizon_secs]`; the tail of a long
    /// run drains perturbation-free. `0` disables window injection
    /// entirely (jitter is horizon-independent).
    pub horizon_secs: f64,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig {
            derate: DerateSpec::default(),
            latency: LatencySpec::default(),
            stale_ads: StaleAdsSpec::default(),
            jitter_max_secs: 0.0,
            horizon_secs: 0.0,
        }
    }
}

impl PerturbConfig {
    /// True when this configuration can open at least one window.
    pub(crate) fn enabled(&self) -> bool {
        self.horizon_secs > 0.0
            && (self.derate.enabled() || self.latency.enabled() || self.stale_ads.enabled())
    }

    /// True when negotiation cycles are jittered.
    pub(crate) fn jitter_enabled(&self) -> bool {
        self.jitter_max_secs > 0.0
    }

    /// Validate the knobs: every time bounded by
    /// [`phishare_workload::MAX_DURATION_SECS`], and at most
    /// [`crate::fault::MAX_EXPECTED_EVENTS`] windows of each kind expected
    /// per card (cluster-wide for stale ads) over the horizon.
    pub(crate) fn validate(&self) -> Result<(), String> {
        check_times(
            "perturb config",
            &[
                ("derate.mean_gap_secs", self.derate.mean_gap_secs),
                ("derate.duration_secs", self.derate.duration_secs),
                ("latency.mean_gap_secs", self.latency.mean_gap_secs),
                ("latency.duration_secs", self.latency.duration_secs),
                ("latency.extra_secs", self.latency.extra_secs),
                ("stale_ads.mean_gap_secs", self.stale_ads.mean_gap_secs),
                ("stale_ads.duration_secs", self.stale_ads.duration_secs),
                ("jitter_max_secs", self.jitter_max_secs),
                ("horizon_secs", self.horizon_secs),
            ],
        )?;
        if !self.derate.factor.is_finite() || self.derate.factor < 0.0 {
            return Err("perturb config: derate.factor must be finite and >= 0".into());
        }
        if self.derate.enabled() {
            if self.derate.duration_secs <= 0.0 {
                return Err("perturb config: derate windows need a positive duration".into());
            }
            if self.derate.factor <= 0.0 || self.derate.factor > 1.0 {
                return Err("perturb config: derate factor must be in (0, 1]".into());
            }
        }
        if self.latency.enabled() {
            if self.latency.duration_secs <= 0.0 {
                return Err("perturb config: latency windows need a positive duration".into());
            }
            if self.latency.extra_secs <= 0.0 {
                return Err("perturb config: latency spikes need a positive extra".into());
            }
        }
        if self.stale_ads.enabled() && self.stale_ads.duration_secs <= 0.0 {
            return Err("perturb config: stale-ad windows need a positive duration".into());
        }
        for (name, enabled, gap, duration) in [
            (
                "derate windows",
                self.derate.enabled(),
                self.derate.mean_gap_secs,
                self.derate.duration_secs,
            ),
            (
                "latency windows",
                self.latency.enabled(),
                self.latency.mean_gap_secs,
                self.latency.duration_secs,
            ),
            (
                "stale-ad windows",
                self.stale_ads.enabled(),
                self.stale_ads.mean_gap_secs,
                self.stale_ads.duration_secs,
            ),
        ] {
            if enabled {
                check_expected_events("perturb config", name, self.horizon_secs, gap + duration)?;
            }
        }
        Ok(())
    }

    /// Parse a stack spec like
    /// `derate:600:60:0.5,latency:300:30:2,stale-ads:400:45,jitter:3,horizon:3600`.
    /// Each comma-separated item enables one perturbation; `horizon`
    /// defaults to 3600 s when any window item is present without one.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut cfg = PerturbConfig::default();
        let mut horizon_set = false;
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = item.split(':').collect();
            let nums = |want: usize| -> Result<Vec<f64>, String> {
                if parts.len() != want + 1 {
                    return Err(format!(
                        "perturb spec item `{item}`: expected {want} parameters"
                    ));
                }
                parts[1..]
                    .iter()
                    .map(|p| {
                        p.parse::<f64>()
                            .map_err(|_| format!("perturb spec item `{item}`: bad number `{p}`"))
                    })
                    .collect()
            };
            match parts[0] {
                "derate" => {
                    let v = nums(3)?;
                    cfg.derate = DerateSpec {
                        mean_gap_secs: v[0],
                        duration_secs: v[1],
                        factor: v[2],
                    };
                }
                "latency" => {
                    let v = nums(3)?;
                    cfg.latency = LatencySpec {
                        mean_gap_secs: v[0],
                        duration_secs: v[1],
                        extra_secs: v[2],
                    };
                }
                "stale-ads" => {
                    let v = nums(2)?;
                    cfg.stale_ads = StaleAdsSpec {
                        mean_gap_secs: v[0],
                        duration_secs: v[1],
                    };
                }
                "jitter" => {
                    let v = nums(1)?;
                    cfg.jitter_max_secs = v[0];
                }
                "horizon" => {
                    let v = nums(1)?;
                    cfg.horizon_secs = v[0];
                    horizon_set = true;
                }
                other => {
                    return Err(format!(
                        "unknown perturbation `{other}` (want derate, latency, \
                         stale-ads, jitter or horizon)"
                    ));
                }
            }
        }
        if !horizon_set
            && (cfg.derate.enabled() || cfg.latency.enabled() || cfg.stale_ads.enabled())
        {
            cfg.horizon_secs = 3600.0;
        }
        cfg.validate()
            .map_err(|e| format!("perturb spec `{spec}`: {e}"))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_core::ClusterPolicy;

    fn perturbed_config() -> ClusterConfig {
        let mut c = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);
        c.perturb.derate.mean_gap_secs = 300.0;
        c.perturb.latency.mean_gap_secs = 400.0;
        c.perturb.stale_ads.mean_gap_secs = 500.0;
        c.perturb.jitter_max_secs = 2.0;
        c.perturb.horizon_secs = 2000.0;
        c
    }

    #[test]
    fn disabled_config_generates_nothing_deterministically() {
        let c = ClusterConfig::default();
        assert!(!c.perturb.enabled());
        assert!(PerturbPlan::generate(&c).is_empty());
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let c = perturbed_config();
        let a = PerturbPlan::generate(&c);
        let b = PerturbPlan::generate(&c);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let other = PerturbPlan::generate(&perturbed_config().with_seed(99));
        assert_ne!(a, other, "different seeds draw different plans");
    }

    #[test]
    fn each_kind_draws_its_own_substream() {
        // Disabling one kind must not move another kind's windows.
        let full = PerturbPlan::generate(&perturbed_config());
        let mut only_derate = perturbed_config();
        only_derate.perturb.latency.mean_gap_secs = 0.0;
        only_derate.perturb.stale_ads.mean_gap_secs = 0.0;
        let derate_alone = PerturbPlan::generate(&only_derate);
        assert!(!derate_alone.is_empty());
        let derate_in_full: Vec<_> = full
            .events
            .iter()
            .filter(|e| matches!(e.kind, PerturbKind::DeviceDerate { .. }))
            .copied()
            .collect();
        assert_eq!(derate_in_full, derate_alone.events);
    }

    #[test]
    fn plans_are_sorted_within_horizon_and_valid() {
        let c = perturbed_config();
        let plan = PerturbPlan::generate(&c);
        plan.validate(&c).unwrap();
        let horizon = SimTime::ZERO + SimDuration::from_secs_f64(c.perturb.horizon_secs);
        for pair in plan.events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "plan out of order");
        }
        for e in &plan.events {
            assert!(e.at <= horizon);
            assert!(!e.duration.is_zero());
        }
    }

    #[test]
    fn same_target_windows_never_overlap() {
        let c = perturbed_config();
        let plan = PerturbPlan::generate(&c);
        use std::collections::BTreeMap;
        let mut last_close: BTreeMap<(u8, u32, u32), SimTime> = BTreeMap::new();
        for e in &plan.events {
            let k = (e.kind.rank(), e.node, e.device);
            if let Some(close) = last_close.get(&k) {
                assert!(e.at >= *close, "same target window opened while open");
            }
            last_close.insert(k, e.at + e.duration);
        }
    }

    #[test]
    fn validation_catches_bad_targets() {
        let c = ClusterConfig::default().with_nodes(2);
        let mk = |kind, node, device, duration| PerturbPlan {
            events: vec![PerturbEvent {
                kind,
                node,
                device,
                at: SimTime::ZERO,
                duration: SimDuration::from_secs(duration),
            }],
        };
        let derate = PerturbKind::DeviceDerate { factor: 0.5 };
        assert!(mk(derate, 3, 0, 10).validate(&c).is_err());
        assert!(mk(derate, 0, 0, 10).validate(&c).is_err());
        assert!(mk(derate, 1, 5, 10).validate(&c).is_err());
        assert!(mk(derate, 1, 0, 0).validate(&c).is_err());
        assert!(mk(derate, 1, 0, 20_000_000).validate(&c).is_err());
        assert!(mk(derate, 2, 0, 10).validate(&c).is_ok());
        assert!(mk(PerturbKind::DeviceDerate { factor: 0.0 }, 1, 0, 10)
            .validate(&c)
            .is_err());
        assert!(mk(PerturbKind::DeviceDerate { factor: 1.5 }, 1, 0, 10)
            .validate(&c)
            .is_err());
        assert!(mk(PerturbKind::StaleAds, 1, 0, 10).validate(&c).is_err());
        assert!(mk(PerturbKind::StaleAds, 0, 0, 10).validate(&c).is_ok());
        assert!(mk(
            PerturbKind::OffloadLatency {
                extra: SimDuration::ZERO
            },
            1,
            0,
            10
        )
        .validate(&c)
        .is_err());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let c = perturbed_config();
        let plan = PerturbPlan::generate(&c);
        assert!(!plan.is_empty());
        let back = PerturbPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(
            PerturbPlan::from_json(&PerturbPlan::empty().to_json()).unwrap(),
            PerturbPlan::empty()
        );
        assert!(PerturbPlan::from_json("not json").is_err());
    }

    #[test]
    fn config_validation() {
        let mut p = PerturbConfig::default();
        p.validate().unwrap();
        p.derate.mean_gap_secs = -1.0;
        assert!(p.validate().is_err());
        let p = PerturbConfig {
            derate: DerateSpec {
                mean_gap_secs: 100.0,
                duration_secs: 10.0,
                factor: 1.5,
            },
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = PerturbConfig {
            latency: LatencySpec {
                mean_gap_secs: 100.0,
                duration_secs: 10.0,
                extra_secs: 0.0,
            },
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn spec_strings_parse() {
        let p = PerturbConfig::from_spec("derate:600:60:0.5,latency:300:30:2,stale-ads:400:45")
            .unwrap();
        assert!(p.derate.enabled() && p.latency.enabled() && p.stale_ads.enabled());
        assert_eq!(p.horizon_secs, 3600.0, "horizon defaults when omitted");
        assert_eq!(p.derate.factor, 0.5);

        let p = PerturbConfig::from_spec("jitter:3").unwrap();
        assert!(p.jitter_enabled() && !p.enabled());

        let p = PerturbConfig::from_spec("derate:600:60:0.5,horizon:1000").unwrap();
        assert_eq!(p.horizon_secs, 1000.0);

        assert!(PerturbConfig::from_spec("bogus:1").is_err());
        assert!(PerturbConfig::from_spec("derate:600").is_err());
        assert!(PerturbConfig::from_spec("derate:600:60:1.5").is_err());
    }

    #[test]
    fn hostile_specs_are_refused() {
        for bad in [
            // Times past the bound overflow the simulated clock.
            "latency:300:30:1e300",
            "jitter:1e300",
            "derate:600:60:0.5,horizon:1e12",
            // Billions of windows per card would exhaust memory.
            "derate:0.001:0.001:0.5,horizon:10000000",
            "stale-ads:0.01:0.01,horizon:3600",
        ] {
            assert!(PerturbConfig::from_spec(bad).is_err(), "{bad} parsed");
        }
        // The largest legitimate stacks still parse.
        PerturbConfig::from_spec("derate:1:1:0.5,horizon:20000").unwrap();
        PerturbConfig::from_spec("jitter:10000000,horizon:10000000").unwrap();
    }
}
