//! Differential oracle for the planning fast path (`prop_plan_cache`).
//!
//! MCCK's [`ClusterScheduler`] in [`PlannerMode::Fast`] (preprocessed
//! instances, content-addressed solve memo) must emit **bit-identical
//! pins** to [`PlannerMode::NaiveSerial`] (the seed's serial per-device DP)
//! on arbitrary multi-cycle scheduler lifetimes: plans, partial
//! dispatches, completions freeing capacity, jobs vanishing (`unpin`) and
//! device resets snapping views back — the PR 3 fault layer's footprint on
//! the scheduler interface.

use phishare_core::{
    ClusterPolicy, ClusterScheduler, DeviceView, KnapsackConfig, KnapsackVariant, PendingJob,
    PlannerMode,
};
use phishare_sim::DetRng;
use phishare_workload::JobId;
use proptest::prelude::*;

/// Declared envelopes drawn from a small class set — Table I-style heavy
/// duplication, which is what multiplicity truncation and cross-device
/// cache sharing feed on. A few odd sizes keep the heterogeneous paths hot.
const CLASSES: [(u64, u32); 7] = [
    (500, 40),
    (500, 40),
    (1000, 60),
    (2000, 120),
    (3000, 240),
    (250, 16),
    (1730, 92),
];

fn arb_variant() -> impl Strategy<Value = KnapsackVariant> {
    prop_oneof![
        Just(KnapsackVariant::TwoD),
        Just(KnapsackVariant::OneDFiltered),
    ]
}

/// One resident (dispatched) job's footprint on a device.
struct Resident {
    mem_mb: u64,
    threads: u32,
    node: u32,
    device: u32,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_plan_cache_fast_planner_is_bit_identical_to_naive(
        seed in 0u64..10_000,
        n_jobs in 8usize..80,
        n_devs in 1u32..6,
        window in prop_oneof![Just(8usize), Just(32), Just(256)],
        variant in arb_variant(),
        cycles in 4usize..14,
        overcommit in prop_oneof![Just(1.0f64), Just(1.5)],
    ) {
        let base = KnapsackConfig {
            variant,
            window,
            thread_overcommit: overcommit,
            ..KnapsackConfig::default()
        };
        let mcck = |cfg| ClusterScheduler::new(ClusterPolicy::Mcck, &cfg, 0).unwrap();
        let mut fast = mcck(base);
        let mut naive = mcck(KnapsackConfig {
            planner: PlannerMode::NaiveSerial,
            ..base
        });

        let mut rng = DetRng::substream(seed, "prop-plan-cache");
        let mut pending: Vec<PendingJob> = (0..n_jobs)
            .map(|i| {
                let (mem_mb, threads) = *rng.choose(&CLASSES);
                PendingJob {
                    id: JobId(i as u64),
                    mem_mb,
                    threads,
                    nominal_secs: 30.0,
                }
            })
            .collect();
        let full_mb = 7680u64;
        let mut devices: Vec<DeviceView> = (1..=n_devs)
            .map(|node| DeviceView {
                node,
                device: 0,
                free_declared_mb: full_mb,
                resident_threads: 0,
            })
            .collect();
        let mut residents: Vec<Resident> = Vec::new();

        for cycle in 0..cycles {
            let p_fast = fast.plan(&pending, &devices);
            let p_naive = naive.plan(&pending, &devices);
            prop_assert_eq!(&p_fast, &p_naive, "pins diverged at cycle {}", cycle);
            prop_assert_eq!(
                fast.outstanding_pins(),
                naive.outstanding_pins(),
                "outstanding accounting diverged at cycle {}",
                cycle
            );

            // Dispatch a random subset of this cycle's pins; the rest stay
            // outstanding (Condor hasn't matched them yet).
            for pin in &p_fast {
                if rng.chance(0.6) {
                    fast.unpin(pin.job);
                    naive.unpin(pin.job);
                    let at = pending.iter().position(|j| j.id == pin.job).unwrap();
                    let spec = pending.remove(at);
                    let dev = devices
                        .iter_mut()
                        .find(|d| d.node == pin.node && d.device == pin.device)
                        .unwrap();
                    dev.free_declared_mb = dev.free_declared_mb.saturating_sub(spec.mem_mb);
                    dev.resident_threads += spec.threads;
                    residents.push(Resident {
                        mem_mb: spec.mem_mb,
                        threads: spec.threads,
                        node: pin.node,
                        device: pin.device,
                    });
                }
            }

            // Random completions free capacity again.
            while !residents.is_empty() && rng.chance(0.5) {
                let r = residents.swap_remove(rng.index(residents.len()));
                let dev = devices
                    .iter_mut()
                    .find(|d| d.node == r.node && d.device == r.device)
                    .unwrap();
                dev.free_declared_mb += r.mem_mb;
                dev.resident_threads -= r.threads;
            }

            // Occasionally a job evaporates entirely (removal / retirement).
            if !pending.is_empty() && rng.chance(0.2) {
                let gone = pending.swap_remove(rng.index(pending.len()));
                fast.unpin(gone.id);
                naive.unpin(gone.id);
            }

            // Device reset (PR 3 fault layer): the card flushes — residents
            // die, the view snaps back to full, and the runtime pulls
            // not-yet-dispatched pins back via unpin.
            if rng.chance(0.15) {
                let victim = rng.index(devices.len());
                let (node, device) = (devices[victim].node, devices[victim].device);
                devices[victim].free_declared_mb = full_mb;
                devices[victim].resident_threads = 0;
                residents.retain(|r| !(r.node == node && r.device == device));
                for pin in p_fast.iter().filter(|p| p.node == node && p.device == device) {
                    fast.unpin(pin.job);
                    naive.unpin(pin.job);
                    if let Some(at) = pending.iter().position(|j| j.id == pin.job) {
                        pending.remove(at);
                    }
                }
            }
        }
    }
}
