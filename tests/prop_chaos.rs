//! Chaos property tests: random fault plans, perturbation stacks, and
//! trace-replay arrival families over Table1Mix workloads.
//!
//! Whatever the injection schedule does — cards resetting mid-offload,
//! nodes vanishing with jobs on them, strikes landing during recovery,
//! thermal derates and latency spikes opening mid-burst — every run must
//! drain with conservative job accounting (completed + killed + held ==
//! submitted), leak no capacity (enforced inside the runtime's post-drain
//! checks), and pass the full trace audit.
//!
//! When a property fails, [`dump_artifact`] writes the shrunken
//! counterexample (seed, config knobs, plans) as JSON under
//! `target/chaos-artifacts/` so the failure can be replayed from a
//! committed file via `phishare run --fault-plan/--perturb-plan`.

use phishare::cluster::fault::{FaultEvent, FaultKind, FaultPlan};
use phishare::cluster::{audit, ClusterConfig, Experiment, PerturbConfig, PerturbPlan};
use phishare::core::ClusterPolicy;
use phishare::sim::{SimDuration, SimTime};
use phishare::workload::{ArrivalProcess, WorkloadBuilder, WorkloadKind};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ClusterPolicy> {
    prop::sample::select(vec![
        ClusterPolicy::Mc,
        ClusterPolicy::Mcc,
        ClusterPolicy::Mcck,
    ])
}

/// Random perturbation stacks: any subset of the four perturbation kinds,
/// with gaps/durations dense enough that short runs still hit windows.
fn arb_perturb() -> impl Strategy<Value = PerturbConfig> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (0.2f64..0.9, 10.0f64..120.0, 5.0f64..60.0, 0.5f64..4.0),
    )
        .prop_map(
            |((derate, latency, stale, jitter), (factor, gap, duration, extra))| {
                let mut p = PerturbConfig {
                    horizon_secs: 900.0,
                    ..PerturbConfig::default()
                };
                if derate {
                    p.derate.mean_gap_secs = gap;
                    p.derate.duration_secs = duration;
                    p.derate.factor = factor;
                }
                if latency {
                    p.latency.mean_gap_secs = gap;
                    p.latency.duration_secs = duration;
                    p.latency.extra_secs = extra;
                }
                if stale {
                    p.stale_ads.mean_gap_secs = gap;
                    p.stale_ads.duration_secs = duration;
                }
                if jitter {
                    p.jitter_max_secs = extra;
                }
                p
            },
        )
}

/// Random arrival families, including the trace-replay shapes.
fn arb_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        Just(ArrivalProcess::AllAtZero),
        (0.5f64..5.0).prop_map(|gap| ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_secs_f64(gap),
        }),
        (0.5f64..5.0, 30.0f64..300.0, 0.0f64..0.95).prop_map(|(gap, period, amp)| {
            ArrivalProcess::Diurnal {
                mean_gap: SimDuration::from_secs_f64(gap),
                period: SimDuration::from_secs_f64(period),
                amplitude: amp,
            }
        }),
        (2.0f64..30.0, 2u32..8, 0.05f64..1.0).prop_map(|(gap, size, bgap)| {
            ArrivalProcess::Bursty {
                mean_gap: SimDuration::from_secs_f64(gap),
                burst_size: size,
                burst_gap: SimDuration::from_secs_f64(bgap),
            }
        }),
        (0.5f64..5.0, 0.0f64..120.0, 0.0f64..1.0).prop_map(|(gap, at, frac)| {
            ArrivalProcess::FlashCrowd {
                mean_gap: SimDuration::from_secs_f64(gap),
                at: SimTime::ZERO + SimDuration::from_secs_f64(at),
                crowd_fraction: frac,
            }
        }),
    ]
}

/// Write a failing case's plans to `target/chaos-artifacts/` so CI can
/// upload them and a developer can replay the exact schedule with
/// `phishare run --fault-plan ... --perturb-plan ...`.
fn dump_artifact(name: &str, cfg: &ClusterConfig, faults: &FaultPlan, perturbs: &PerturbPlan) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos-artifacts");
    if std::fs::create_dir_all(&dir).is_err() {
        return; // best-effort: never mask the real assertion failure
    }
    let meta = format!(
        "{{\n  \"test\": \"{name}\",\n  \"policy\": \"{:?}\",\n  \"nodes\": {},\n  \"seed\": {}\n}}\n",
        cfg.policy, cfg.nodes, cfg.seed
    );
    let _ = std::fs::write(dir.join(format!("{name}.meta.json")), meta);
    let _ = std::fs::write(dir.join(format!("{name}.faults.json")), faults.to_json());
    let _ = std::fs::write(
        dir.join(format!("{name}.perturbs.json")),
        perturbs.to_json(),
    );
}

/// Hand-rolled fault events: unlike `FaultPlan::generate`, these may pile
/// several strikes onto one target (absorbed while it is already down) and
/// use pathological downtimes.
fn arb_fault(nodes: u32) -> impl Strategy<Value = FaultEvent> {
    (any::<bool>(), 1..=nodes, 0u64..600_000, 1u64..120_000).prop_map(
        |(reset, node, at_ms, down_ms)| FaultEvent {
            kind: if reset {
                FaultKind::DeviceReset
            } else {
                FaultKind::NodeChurn
            },
            node,
            device: 0,
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            downtime: SimDuration::from_millis(down_ms),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// ≥ 100 randomized seeds: conservation and audit invariants hold for
    /// every fault schedule.
    #[test]
    fn chaos_preserves_conservation_and_audit_invariants(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 6usize..=20,
        seed in 0u64..10_000,
        max_retries in 0u32..=3,
        requeue_fallback in any::<bool>(),
        faults in prop::collection::vec(arb_fault(4), 0..8),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;
        cfg.recovery.max_retries = max_retries;
        if requeue_fallback {
            cfg.recovery.fallback = phishare::cluster::fault::FallbackPolicy::Requeue;
        }

        let mut events: Vec<FaultEvent> = faults
            .into_iter()
            .filter(|f| f.node <= nodes)
            .collect();
        events.sort_by_key(|f| (f.at, f.node, f.device, f.kind as u8));
        let plan = FaultPlan { events };

        // The runtime's own post-drain checks already fail the run on any
        // capacity leak or live job, so an Ok here is itself an invariant.
        let (r, trace) = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .simulate_traced()
            .expect("chaos run must drain cleanly");

        // Conservation: every submitted job ends exactly one way.
        prop_assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs,
            "job accounting leaked: {:?}",
            r
        );
        // Every injected fault either struck (counted) or was absorbed by
        // an already-down target — never more strikes than injections.
        prop_assert!(r.device_resets + r.node_churns <= plan.len() as u64);
        // The trace-level invariants (fault/recovery pairing, no dispatch
        // to down targets, lifecycle shapes) all hold.
        let violations = audit(&cfg, &wl, &r, &trace);
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Delta-driven negotiation is observationally identical to the
    /// full-rematch oracle at the whole-experiment level, *including under
    /// fault injection*: device resets and node churn exercise the delta
    /// path's invalidation edges (collector invalidate on churn, requeue +
    /// re-release of victim jobs), and the end-to-end results — every
    /// metric except wall-clock planning time — must still agree exactly.
    #[test]
    fn delta_negotiation_is_oracle_identical_under_faults(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 6usize..=16,
        seed in 0u64..10_000,
        faults in prop::collection::vec(arb_fault(4), 0..6),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;

        let mut events: Vec<FaultEvent> = faults
            .into_iter()
            .filter(|f| f.node <= nodes)
            .collect();
        events.sort_by_key(|f| (f.at, f.node, f.device, f.kind as u8));
        let plan = FaultPlan { events };

        cfg.negotiation = phishare::condor::MatchPath::Delta;
        let (delta, _) = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .simulate_traced()
            .expect("delta run must drain cleanly");
        cfg.negotiation = phishare::condor::MatchPath::Full;
        let (full, _) = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .simulate_traced()
            .expect("full run must drain cleanly");

        prop_assert_eq!(delta, full, "delta and full experiments diverged");
    }

    /// Quiescence skipping is a pure wall-clock optimization: for every
    /// fault plan × perturbation stack × arrival family, a skip-enabled
    /// run is bit-identical to a never-skipping run — same metrics, same
    /// trace. Stale-ads windows are the sharp edge: a cycle running on
    /// stale ads must *not* report quiescent (it has bookkeeping to do),
    /// and because `stale_ad_skips` participates in result equality, any
    /// skipped-but-not-quiescent cycle would open daylight here. Debug
    /// builds additionally re-run every skipped cycle through the full
    /// oracle inside the runtime and assert it matches nothing.
    #[test]
    fn quiescence_skipping_is_invisible_under_chaos(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 6usize..=16,
        seed in 0u64..10_000,
        perturb in arb_perturb(),
        arrivals in arb_arrivals(),
        faults in prop::collection::vec(arb_fault(4), 0..5),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .arrivals(arrivals)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy)
            .with_nodes(nodes)
            .with_seed(seed);
        cfg.knapsack.window = 64;
        cfg.perturb = perturb;

        let mut events: Vec<FaultEvent> = faults
            .into_iter()
            .filter(|f| f.node <= nodes)
            .collect();
        events.sort_by_key(|f| (f.at, f.node, f.device, f.kind as u8));
        let fault_plan = FaultPlan { events };
        let perturb_plan = PerturbPlan::generate(&cfg);

        cfg.skip_quiescent = true;
        let (skip, skip_trace) = Experiment::new(&cfg, &wl)
            .faults(&fault_plan)
            .perturbs(&perturb_plan)
            .simulate_traced()
            .expect("skip-on chaos run must drain cleanly");
        cfg.skip_quiescent = false;
        let (full, full_trace) = Experiment::new(&cfg, &wl)
            .faults(&fault_plan)
            .perturbs(&perturb_plan)
            .simulate_traced()
            .expect("skip-off chaos run must drain cleanly");

        if skip != full || skip_trace.events != full_trace.events {
            dump_artifact("quiescence_bit_identity", &cfg, &fault_plan, &perturb_plan);
        }
        prop_assert_eq!(&skip, &full, "quiescence skipping changed the results");
        prop_assert_eq!(
            &skip_trace.events, &full_trace.events,
            "quiescence skipping changed the trace"
        );
        // Equality above already compares stale_ad_skips; spell the
        // stale-ads leg out so a regression names itself.
        prop_assert_eq!(
            skip.stale_ad_skips, full.stale_ad_skips,
            "a stale-ads cycle was skipped as quiescent"
        );
        prop_assert_eq!(full.cycles_skipped, 0, "skip-off run still skipped");
        cfg.skip_quiescent = true;
        let violations = audit(&cfg, &wl, &skip, &skip_trace);
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);
    }

    /// The heap-scheduled shared-throughput substrate is bit-identical to
    /// its naive recompute-all oracle for every fault schedule — device
    /// resets clear the engines mid-offload, node churn detaches whole
    /// resident sets — over homogeneous and heterogeneous pools alike.
    #[test]
    fn shared_heap_substrate_is_oracle_identical_under_faults(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 6usize..=16,
        seed in 0u64..10_000,
        gpu_mix in any::<bool>(),
        faults in prop::collection::vec(arb_fault(4), 0..6),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;
        if gpu_mix {
            cfg.pool = phishare::cluster::DevicePool::Alternate(
                phishare::cluster::DeviceSku::GpuLike,
            );
        }

        let mut events: Vec<FaultEvent> = faults
            .into_iter()
            .filter(|f| f.node <= nodes)
            .collect();
        events.sort_by_key(|f| (f.at, f.node, f.device, f.kind as u8));
        let plan = FaultPlan { events };

        let (heap, heap_trace) = Experiment::new(&cfg, &wl)
            .substrate(phishare::cluster::SubstrateMode::Shared)
            .faults(&plan)
            .simulate_traced()
            .expect("shared run must drain cleanly");
        let (naive, naive_trace) = Experiment::new(&cfg, &wl)
            .substrate(phishare::cluster::SubstrateMode::SharedNaive)
            .faults(&plan)
            .simulate_traced()
            .expect("naive shared run must drain cleanly");

        prop_assert_eq!(heap, naive, "shared engines diverged under faults");
        prop_assert_eq!(
            heap_trace.events, naive_trace.events,
            "shared traces diverged under faults"
        );
        let violations = audit(&cfg, &wl, &heap, &heap_trace);
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);
    }

    /// Perturbation stack × fault plan × trace-replay arrivals: for every
    /// random triple, the shared throughput engine stays bit-identical to
    /// its recompute-all oracle, and the surviving timelines on both the
    /// per-offload and the shared substrate still satisfy conservation and
    /// the full audit: chaos must never open daylight between an engine
    /// and its oracle.
    #[test]
    fn chaos_stacks_preserve_substrate_bit_identity(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 6usize..=16,
        seed in 0u64..10_000,
        perturb in arb_perturb(),
        arrivals in arb_arrivals(),
        faults in prop::collection::vec(arb_fault(4), 0..5),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .arrivals(arrivals)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy)
            .with_nodes(nodes)
            .with_seed(seed);
        cfg.knapsack.window = 64;
        cfg.perturb = perturb;

        let mut events: Vec<FaultEvent> = faults
            .into_iter()
            .filter(|f| f.node <= nodes)
            .collect();
        events.sort_by_key(|f| (f.at, f.node, f.device, f.kind as u8));
        let fault_plan = FaultPlan { events };
        let perturb_plan = PerturbPlan::generate(&cfg);

        let run = |mode| {
            Experiment::new(&cfg, &wl)
                .substrate(mode)
                .faults(&fault_plan)
                .perturbs(&perturb_plan)
                .simulate_traced()
                .expect("chaos run must drain cleanly")
        };
        let (fast, fast_trace) = run(phishare::cluster::SubstrateMode::Fast);
        let (shared, shared_trace) = run(phishare::cluster::SubstrateMode::Shared);
        let (naive, naive_trace) = run(phishare::cluster::SubstrateMode::SharedNaive);

        let pair_ok = shared == naive && shared_trace.events == naive_trace.events;
        let conservation_ok = fast.completed
            + fast.container_kills
            + fast.oom_kills
            + fast.held_after_retries
            == fast.jobs;
        let fast_violations = audit(&cfg, &wl, &fast, &fast_trace);
        let shared_violations = audit(&cfg, &wl, &shared, &shared_trace);
        if !pair_ok || !conservation_ok || !fast_violations.is_empty()
            || !shared_violations.is_empty()
        {
            dump_artifact("substrate_bit_identity", &cfg, &fault_plan, &perturb_plan);
        }
        prop_assert_eq!(shared, naive, "shared engines diverged under chaos");
        prop_assert_eq!(
            shared_trace.events, naive_trace.events,
            "shared traces diverged under chaos"
        );
        prop_assert!(conservation_ok, "job accounting leaked under chaos");
        prop_assert!(
            fast_violations.is_empty(),
            "fast audit violations: {:?}",
            fast_violations
        );
        prop_assert!(
            shared_violations.is_empty(),
            "shared audit violations: {:?}",
            shared_violations
        );
    }
}
