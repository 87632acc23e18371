//! Differential oracle for the simulation fast path.
//!
//! [`Experiment::run`] schedules one completion prediction event per device
//! (and host) per generation; [`Experiment::per_offload_events`] is the
//! seed's per-offload scheme. The two must be *bit-identical* — same
//! metrics, same trace, same audit — on arbitrary workloads, policies and
//! cluster sizes. Any divergence means the fast path changed simulation
//! semantics, not just simulation cost.

use phishare_cluster::{
    audit, ClusterConfig, Experiment, ExperimentScratch, FaultPlan, SubstrateMode,
};
use phishare_core::{ClusterPolicy, PlannerMode};
use phishare_sim::SimDuration;
use phishare_workload::{ArrivalProcess, WorkloadBuilder, WorkloadKind};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ClusterPolicy> {
    prop_oneof![
        Just(ClusterPolicy::Mc),
        Just(ClusterPolicy::Mcc),
        Just(ClusterPolicy::Mcck),
        Just(ClusterPolicy::Oracle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_and_naive_event_paths_are_bit_identical(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 8usize..=32,
        seed in 0u64..500,
        misbehaving in prop_oneof![Just(0.0f64), Just(0.3)],
        poisson in any::<bool>(),
    ) {
        let mut builder = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .misbehaving_fraction(misbehaving);
        if poisson {
            builder = builder.arrivals(ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs(3),
            });
        }
        let wl = builder.build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;

        let fast = Experiment::new(&cfg, &wl).simulate_traced();
        let naive = Experiment::new(&cfg, &wl).per_offload_events().simulate_traced();
        match (fast, naive) {
            (Ok((fast_result, fast_trace)), Ok((naive_result, naive_trace))) => {
                prop_assert_eq!(
                    &fast_result, &naive_result,
                    "metrics diverged across event modes"
                );
                prop_assert_eq!(
                    &fast_trace.events, &naive_trace.events,
                    "traces diverged across event modes"
                );
                let fast_audit = audit(&cfg, &wl, &fast_result, &fast_trace);
                let naive_audit = audit(&cfg, &wl, &naive_result, &naive_trace);
                prop_assert_eq!(fast_audit, naive_audit, "audits diverged across event modes");
            }
            (fast, naive) => {
                // Both paths must agree even on rejection (and the error
                // strings are part of the contract).
                prop_assert_eq!(fast.map(|(r, _)| r), naive.map(|(r, _)| r));
            }
        }
    }

    /// Running through the fault machinery with an *empty* plan must leave
    /// the timeline bit-identical to the plain entry point: the injection
    /// layer is free when unused.
    #[test]
    fn empty_fault_plan_leaves_runs_bit_identical(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 8usize..=32,
        seed in 0u64..500,
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;

        let plain = Experiment::new(&cfg, &wl).simulate_traced();
        let empty = Experiment::new(&cfg, &wl).faults(&FaultPlan::empty()).simulate_traced();
        match (plain, empty) {
            (Ok((pr, pt)), Ok((er, et))) => {
                prop_assert_eq!(&pr, &er, "empty plan perturbed the metrics");
                prop_assert_eq!(&pt.events, &et.events, "empty plan perturbed the trace");
            }
            (plain, empty) => {
                prop_assert_eq!(plain.map(|(r, _)| r), empty.map(|(r, _)| r));
            }
        }
    }

    /// The fast/naive bit-identity holds under fault injection too: fault,
    /// recovery and backoff events are handled by shared code, so churn
    /// must not open a gap between the event schemes.
    #[test]
    fn fault_injected_event_paths_are_bit_identical(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 8usize..=24,
        seed in 0u64..500,
        device_mtbf in 60.0f64..400.0,
        node_mtbf in prop_oneof![Just(0.0f64), 200.0f64..800.0],
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;
        cfg.faults.device_mtbf_secs = device_mtbf;
        cfg.faults.node_mtbf_secs = node_mtbf;
        cfg.faults.horizon_secs = 500.0;
        let plan = FaultPlan::generate(&cfg);

        let fast = Experiment::new(&cfg, &wl).faults(&plan).simulate_traced();
        let naive = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .per_offload_events()
            .simulate_traced();
        match (fast, naive) {
            (Ok((fr, ft)), Ok((nr, nt))) => {
                prop_assert_eq!(&fr, &nr, "fault metrics diverged across event modes");
                prop_assert_eq!(&ft.events, &nt.events, "fault traces diverged across event modes");
                let fa = audit(&cfg, &wl, &fr, &ft);
                prop_assert!(fa.is_empty(), "fault run failed its audit: {:?}", fa);
            }
            (fast, naive) => {
                prop_assert_eq!(fast.map(|(r, _)| r), naive.map(|(r, _)| r));
            }
        }
    }

    /// The *planner* fast path (preprocessed instances, solve memo,
    /// speculative parallel warm-up) must be bit-identical to the retained
    /// naive serial planner across whole simulations — including under
    /// fault injection, where device resets and job retries churn the
    /// scheduler's view. Cache counters legitimately differ between the
    /// modes (the naive planner never touches the memo), so they are
    /// normalized to zero before comparison; everything else must match.
    #[test]
    fn fast_and_naive_planners_are_bit_identical_end_to_end(
        policy in prop_oneof![Just(ClusterPolicy::Mcck), Just(ClusterPolicy::Oracle)],
        nodes in 2u32..=5,
        jobs in 8usize..=32,
        seed in 0u64..500,
        window in prop_oneof![Just(16usize), Just(64)],
        with_faults in any::<bool>(),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build();
        let mut fast_cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        fast_cfg.knapsack.window = window;
        fast_cfg.knapsack.planner = PlannerMode::Fast;
        let mut naive_cfg = fast_cfg;
        naive_cfg.knapsack.planner = PlannerMode::NaiveSerial;

        let plan = if with_faults {
            fast_cfg.faults.device_mtbf_secs = 120.0;
            fast_cfg.faults.node_mtbf_secs = 400.0;
            fast_cfg.faults.horizon_secs = 500.0;
            naive_cfg.faults = fast_cfg.faults;
            FaultPlan::generate(&fast_cfg)
        } else {
            FaultPlan::empty()
        };

        let fast = Experiment::new(&fast_cfg, &wl).faults(&plan).simulate_traced();
        let naive = Experiment::new(&naive_cfg, &wl).faults(&plan).simulate_traced();
        match (fast, naive) {
            (Ok((mut fr, ft)), Ok((mut nr, nt))) => {
                fr.plan_cache_hits = 0;
                fr.plan_cache_misses = 0;
                nr.plan_cache_hits = 0;
                nr.plan_cache_misses = 0;
                prop_assert_eq!(&fr, &nr, "metrics diverged across planner modes");
                prop_assert_eq!(
                    &ft.events, &nt.events,
                    "traces diverged across planner modes"
                );
                let fa = audit(&fast_cfg, &wl, &fr, &ft);
                prop_assert!(fa.is_empty(), "fast-planner run failed its audit: {:?}", fa);
            }
            (fast, naive) => {
                prop_assert_eq!(fast.map(|(r, _)| r), naive.map(|(r, _)| r));
            }
        }
    }

    /// The slab-backed state substrate (generation-stamped handles, dense
    /// slots) must be bit-identical to the seed's map-keyed substrate over
    /// whole simulations — metrics, traces and audits — including under
    /// fault injection, where device resets invalidate every handle on the
    /// card and OOM kills remove processes out from under the runtime.
    #[test]
    fn fast_and_keyed_substrates_are_bit_identical_end_to_end(
        policy in arb_policy(),
        nodes in 2u32..=4,
        jobs in 8usize..=24,
        seed in 0u64..500,
        misbehaving in prop_oneof![Just(0.0f64), Just(0.3)],
        with_faults in any::<bool>(),
    ) {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .misbehaving_fraction(misbehaving)
            .build();
        let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
        cfg.knapsack.window = 64;
        let plan = if with_faults {
            cfg.faults.device_mtbf_secs = 120.0;
            cfg.faults.node_mtbf_secs = 400.0;
            cfg.faults.horizon_secs = 500.0;
            FaultPlan::generate(&cfg)
        } else {
            FaultPlan::empty()
        };

        let run = |mode| Experiment::new(&cfg, &wl).substrate(mode).faults(&plan).simulate_traced();
        let fast = run(SubstrateMode::Fast);
        let keyed = run(SubstrateMode::Keyed);
        match (fast, keyed) {
            (Ok((fr, ft)), Ok((kr, kt))) => {
                prop_assert_eq!(&fr, &kr, "metrics diverged across substrates");
                prop_assert_eq!(&ft.events, &kt.events, "traces diverged across substrates");
                let fa = audit(&cfg, &wl, &fr, &ft);
                prop_assert!(fa.is_empty(), "fast-substrate run failed its audit: {:?}", fa);
            }
            (fast, keyed) => {
                prop_assert_eq!(fast.map(|(r, _)| r), keyed.map(|(r, _)| r));
            }
        }
    }

    /// Recycling one worker's scratch buffers across an arbitrary sequence
    /// of cells never perturbs any cell's result: each run through a dirty
    /// scratch equals a fresh run of the same cell.
    #[test]
    fn scratch_recycled_runs_are_bit_identical(
        cells in prop::collection::vec(
            (arb_policy(), 2u32..=3, 6usize..=16, 0u64..200),
            2..5,
        ),
    ) {
        let mut scratch = ExperimentScratch::new();
        for (policy, nodes, jobs, seed) in cells {
            let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
                .count(jobs)
                .seed(seed)
                .build();
            let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
            cfg.knapsack.window = 64;
            let fresh = Experiment::run(&cfg, &wl);
            let recycled = Experiment::new(&cfg, &wl).scratch(&mut scratch).simulate();
            prop_assert_eq!(fresh, recycled, "recycled scratch perturbed a cell");
        }
    }
}
