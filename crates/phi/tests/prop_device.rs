//! Property tests for the card models, driven through their one operation
//! API, [`DeviceSubstrate`].
//!
//! The centrepiece is a lockstep differential: one generic harness drives
//! two substrates through the same model-checked random operation
//! sequence and demands that every trait observable agrees bit-for-bit
//! after every step, while also checking the physical invariants. It runs
//! the slab [`PhiDevice`] against [`ReferenceCard`], the specification in
//! `reference/`, and the heap-scheduled [`SharedThroughputDevice`] against
//! the recompute-all [`NaiveSharedDevice`].

mod reference;

use phishare_phi::{
    Affinity, CommitOutcome, CoreSet, DeviceSpec, DeviceSubstrate, NaiveSharedDevice, PerfModel,
    PhiConfig, PhiDevice, ProcId, SharedThroughputDevice, SharingCurve,
};
use phishare_sim::{DetRng, SimDuration, SimTime};
use proptest::prelude::*;
use reference::ReferenceCard;
use std::collections::{BTreeMap, BTreeSet};

/// Proc ids the random workouts draw from: a dozen, so a card's two rate
/// classes hold deep completion tables. Each id owns a private block of
/// five cores for its pinned offloads, so pinned sets never overlap.
const PROCS: u64 = 12;

/// One step of a random device workout. Steps that would break the
/// substrate contract (attaching a resident, acting on a departed process,
/// starting a second offload) are skipped by the model, never issued.
#[derive(Debug, Clone)]
enum Op {
    Attach {
        proc: u64,
        declared_mb: u64,
        threads: u32,
        commit_mb: u64,
    },
    Commit {
        proc: u64,
        total_mb: u64,
    },
    StartOffload {
        proc: u64,
        threads: u32,
        work_secs: u64,
        pinned: bool,
    },
    FinishEarliest,
    Detach {
        proc: u64,
    },
    Advance {
        secs: u64,
    },
    Derate {
        scale: f64,
    },
    Reset,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..PROCS, 100u64..4000, 1u32..=60, 0u64..4000).prop_map(
            |(proc, declared_mb, cores, commit_mb)| Op::Attach {
                proc,
                declared_mb,
                threads: cores * 4,
                commit_mb,
            }
        ),
        3 => (0..PROCS, 0u64..5000).prop_map(|(proc, total_mb)| Op::Commit { proc, total_mb }),
        4 => (0..PROCS, 1u32..=60, 1u64..30, any::<bool>()).prop_map(
            |(proc, cores, work_secs, pinned)| Op::StartOffload {
                proc,
                threads: cores * 4,
                work_secs,
                pinned,
            }
        ),
        4 => Just(Op::FinishEarliest),
        2 => (0..PROCS).prop_map(|proc| Op::Detach { proc }),
        2 => (1u64..20).prop_map(|secs| Op::Advance { secs }),
        1 => prop::sample::select(vec![0.25, 0.5, 0.8, 1.0]).prop_map(|scale| Op::Derate { scale }),
        1 => Just(Op::Reset),
    ]
}

/// A workout that first fills the card: every proc attaches small and
/// starts an offload, pinned or not, in a random order, so both rate
/// classes begin with deep completion tables (many of them tied, as work is
/// whole seconds, and not in proc order) that the random tail then drains,
/// churns and resets. Random workouts alone rarely hold more than three
/// offloads at once: the OOM killer, detaches and resets keep the card
/// shallow.
fn arb_filled_workout() -> impl Strategy<Value = Vec<Op>> {
    (
        prop::collection::vec(
            (any::<u64>(), 1u32..=60, 1u64..30, any::<bool>()),
            PROCS as usize,
        ),
        prop::collection::vec(arb_op(), 1..80),
    )
        .prop_map(|(starts, tail)| {
            let mut fill: Vec<_> = (0..PROCS).zip(starts).collect();
            fill.sort_unstable_by_key(|&(_, (order, ..))| order);
            fill.into_iter()
                .flat_map(|(proc, (_, cores, work_secs, pinned))| {
                    [
                        Op::Attach {
                            proc,
                            declared_mb: 500,
                            threads: cores * 4,
                            commit_mb: 200,
                        },
                        Op::StartOffload {
                            proc,
                            threads: cores * 4,
                            work_secs,
                            pinned,
                        },
                    ]
                })
                .chain(tail)
                .collect()
        })
}

/// Every predicted completion, in visit order.
fn completions<D: DeviceSubstrate>(d: &D) -> Vec<(ProcId, SimTime)> {
    let mut v = Vec::new();
    d.for_each_completion(|p, at| v.push((p, at)));
    v
}

/// What the harness knows about the residents: both substrates' handles
/// and whether an offload is running.
struct Model<A: DeviceSubstrate, B: DeviceSubstrate> {
    residents: BTreeMap<u64, (A::Handle, B::Handle)>,
    active: BTreeSet<u64>,
}

impl<A: DeviceSubstrate, B: DeviceSubstrate> Model<A, B> {
    /// Drop the OOM killer's victims (their handles are stale now).
    fn drop_victims(&mut self, outcome: &CommitOutcome) {
        if let CommitOutcome::OomKilled(victims) = outcome {
            for v in victims {
                self.residents.remove(&v.raw());
                self.active.remove(&v.raw());
            }
        }
    }
}

/// Drive `A` and `B`, built from one spec, through `ops` in lockstep with
/// identically seeded RNGs; every trait observable must agree bit-for-bit
/// after every step, and the physical invariants must hold.
fn lockstep<A: DeviceSubstrate, B: DeviceSubstrate>(
    spec: &DeviceSpec,
    ops: Vec<Op>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut a = A::create(spec, SimTime::ZERO);
    let mut b = B::create(spec, SimTime::ZERO);
    let mut rng_a = DetRng::from_seed(seed);
    let mut rng_b = DetRng::from_seed(seed);
    let mut model = Model::<A, B> {
        residents: BTreeMap::new(),
        active: BTreeSet::new(),
    };
    let mut now = SimTime::ZERO;
    let mut last_generation = a.generation();

    for op in ops {
        match op {
            Op::Attach {
                proc,
                declared_mb,
                threads,
                commit_mb,
            } => {
                if model.residents.contains_key(&proc) {
                    continue;
                }
                let id = ProcId(proc);
                let (ha, oa) = a.attach(now, id, declared_mb, threads, commit_mb, &mut rng_a);
                let (hb, ob) = b.attach(now, id, declared_mb, threads, commit_mb, &mut rng_b);
                prop_assert_eq!(&oa, &ob);
                model.residents.insert(proc, (ha, hb));
                model.drop_victims(&oa);
            }
            Op::Commit { proc, total_mb } => {
                let Some(&(ha, hb)) = model.residents.get(&proc) else {
                    continue;
                };
                let oa = a.commit(now, ha, total_mb, &mut rng_a);
                let ob = b.commit(now, hb, total_mb, &mut rng_b);
                prop_assert_eq!(&oa, &ob);
                model.drop_victims(&oa);
            }
            Op::StartOffload {
                proc,
                threads,
                work_secs,
                pinned,
            } => {
                let Some(&(ha, hb)) = model.residents.get(&proc) else {
                    continue;
                };
                if !model.active.insert(proc) {
                    continue;
                }
                let affinity = if pinned {
                    Affinity::Pinned(CoreSet::contiguous((proc * 5) as u32, 5))
                } else {
                    Affinity::Unmanaged
                };
                let work = SimDuration::from_secs(work_secs);
                a.start_offload(now, ha, threads, work, affinity);
                b.start_offload(now, hb, threads, work, affinity);
            }
            Op::FinishEarliest => {
                let next = a.next_completion();
                prop_assert_eq!(next, b.next_completion());
                if let Some((proc, at)) = next {
                    now = at.max(now);
                    let (ha, hb) = model.residents[&proc.raw()];
                    a.finish_offload(now, ha);
                    b.finish_offload(now, hb);
                    model.active.remove(&proc.raw());
                }
            }
            Op::Detach { proc } => {
                let Some((ha, hb)) = model.residents.remove(&proc) else {
                    continue;
                };
                a.detach(now, ha);
                b.detach(now, hb);
                model.active.remove(&proc);
            }
            Op::Advance { secs } => now += SimDuration::from_secs(secs),
            Op::Derate { scale } => {
                a.set_rate_scale(now, scale);
                b.set_rate_scale(now, scale);
            }
            Op::Reset => {
                a.reset(now);
                b.reset(now);
                model.residents.clear();
                model.active.clear();
            }
        }

        // --- every trait observable agrees, bit-for-bit ---
        prop_assert_eq!(a.generation(), b.generation());
        prop_assert_eq!(a.resident_count(), b.resident_count());
        prop_assert_eq!(a.free_declared_mb(), b.free_declared_mb());
        prop_assert_eq!(a.committed_total_mb(), b.committed_total_mb());
        prop_assert_eq!(a.declared_threads(), b.declared_threads());
        prop_assert_eq!(a.oom_kill_count(), b.oom_kill_count());
        let comps = completions(&a);
        prop_assert_eq!(&comps, &completions(&b));
        prop_assert_eq!(a.next_completion(), b.next_completion());
        let probe = now + SimDuration::from_secs(1);
        let (ua, ub) = (a.utilization(probe), b.utilization(probe));
        for (x, y) in [
            (ua.thread_util, ub.thread_util),
            (ua.core_util, ub.core_util),
            (ua.mem_util, ub.mem_util),
            (ua.busy_fraction, ub.busy_fraction),
            (a.energy_joules(probe), b.energy_joules(probe)),
        ] {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // --- the model and the physical invariants ---
        prop_assert_eq!(a.resident_count(), model.residents.len());
        let predicted: BTreeSet<u64> = comps.iter().map(|(p, _)| p.raw()).collect();
        prop_assert_eq!(
            &predicted,
            &model.active,
            "one prediction per active offload"
        );
        prop_assert!(
            comps.windows(2).all(|w| w[0].0 < w[1].0),
            "completions visited in ascending proc order"
        );
        // The single next-completion prediction is always the per-offload
        // scheme's earliest event: min by (time, proc), because per-offload
        // events are pushed in ascending-proc order and same-tick events
        // fire in push order.
        let earliest = comps.iter().copied().min_by_key(|&(p, at)| (at, p));
        prop_assert_eq!(a.next_completion(), earliest);
        prop_assert!(
            a.committed_total_mb() <= spec.phi.usable_mem_mb(),
            "physical memory oversubscribed: {}",
            a.committed_total_mb()
        );
        prop_assert!(
            a.generation() >= last_generation,
            "generation went backwards"
        );
        last_generation = a.generation();
        for x in [ua.thread_util, ua.core_util, ua.mem_util, ua.busy_fraction] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&x), "utilization {x}");
        }
    }
    Ok(())
}

fn phi_spec() -> DeviceSpec {
    DeviceSpec {
        phi: PhiConfig::default(),
        perf: PerfModel::default(),
        curve: SharingCurve::phi(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The slab-backed device and the reference specification agree on
    /// every outcome (OOM victim lists included), generation, prediction,
    /// aggregate, utilization integral and energy reading. Pinned
    /// affinities are mixed in so the incremental pinned-union bookkeeping
    /// is exercised across slot reuse; half the workouts start from a
    /// full card.
    #[test]
    fn phi_device_runs_in_lockstep_with_the_reference_card(
        ops in prop_oneof![prop::collection::vec(arb_op(), 1..80), arb_filled_workout()],
        seed in 0u64..1000,
    ) {
        lockstep::<PhiDevice, ReferenceCard>(&phi_spec(), ops, seed)?;
    }

    /// The heap-scheduled and the recompute-all shared-throughput devices
    /// share every line of device logic, so they may differ only through
    /// their engines — and must not, on the Phi curve or the GPU-like one.
    #[test]
    fn heap_and_naive_shared_devices_run_in_lockstep(
        ops in prop::collection::vec(arb_op(), 1..80),
        seed in 0u64..1000,
        gpu_like in any::<bool>(),
    ) {
        let spec = if gpu_like {
            DeviceSpec { phi: PhiConfig::gpu_like(), curve: SharingCurve::gpu_like(), ..phi_spec() }
        } else {
            phi_spec()
        };
        lockstep::<SharedThroughputDevice, NaiveSharedDevice>(&spec, ops, seed)?;
    }

    /// Driving the device solely through `next_completion()` — the fast
    /// path's contract — under random mid-offload detaches: a detached
    /// process's offload never surfaces as a live prediction, every
    /// survivor is delivered exactly once, and each delivery lands with its
    /// nominal work fully integrated (`finish_offload` debug-asserts the
    /// remaining work is below one tick's worth, so a prediction that lost
    /// progress would panic here).
    #[test]
    fn next_completion_drains_under_random_detaches(
        works in prop::collection::vec(1u64..50, 1..6),
        detach_mask in prop::collection::vec(any::<bool>(), 6),
        seed in 0u64..1000,
    ) {
        let cfg = PhiConfig::default();
        let mut device = PhiDevice::new(cfg, PerfModel::default(), SimTime::ZERO);
        let mut rng = DetRng::from_seed(seed);
        let n = works.len();
        let mut slots = Vec::new();
        for (i, w) in works.iter().enumerate() {
            let (slot, _) = device.attach(SimTime::ZERO, ProcId(i as u64), 200, 60, 50, &mut rng);
            device.start_offload(
                SimTime::ZERO,
                slot,
                60,
                SimDuration::from_secs(*w),
                Affinity::Unmanaged,
            );
            slots.push(slot);
        }

        // Detach the masked subset strictly before the earliest prediction.
        let first_at = device.next_completion().expect("offloads active").1;
        let mid = SimTime::from_ticks(first_at.ticks() / 2);
        let detached: Vec<bool> = detach_mask.into_iter().take(n).collect();
        for (i, &gone) in detached.iter().enumerate() {
            if gone {
                device.detach(mid, slots[i]);
                prop_assert!(
                    completions(&device).iter().all(|(p, _)| p.raw() != i as u64),
                    "detached process still predicted"
                );
            }
        }

        // Drain: deliver predictions one at a time, exactly as the
        // next-completion runtime does.
        let mut finished = 0usize;
        while let Some((proc, at)) = device.next_completion() {
            prop_assert!(
                !detached[proc.raw() as usize],
                "detached process surfaced as a live prediction"
            );
            device.finish_offload(at, slots[proc.raw() as usize]);
            finished += 1;
            prop_assert!(finished <= n, "an offload was delivered twice");
        }

        let survivors = detached.iter().filter(|d| !**d).count();
        prop_assert_eq!(finished, survivors);
        prop_assert_eq!(device.active_offloads(), 0);
        prop_assert_eq!(device.offloads_completed.get(), survivors as u64);
    }

    /// Work conservation for a solo offload on every card model: completion
    /// lands exactly the nominal work after the start, however long the
    /// card sat idle before it and whenever progress is sampled.
    #[test]
    fn solo_offload_conserves_work(
        work_secs in 1u64..100,
        idle_secs in 0u64..100,
        sample_points in prop::collection::vec(1u64..100, 0..5),
    ) {
        let spec = phi_spec();
        solo_offload::<PhiDevice>(&spec, work_secs, idle_secs, &sample_points)?;
        solo_offload::<ReferenceCard>(&spec, work_secs, idle_secs, &sample_points)?;
        solo_offload::<SharedThroughputDevice>(&spec, work_secs, idle_secs, &sample_points)?;
        solo_offload::<NaiveSharedDevice>(&spec, work_secs, idle_secs, &sample_points)?;
    }
}

/// One solo offload of `work_secs` started `idle_secs` after attach on a
/// fresh `D`; sampling (queries) before it completes must not move the
/// prediction.
fn solo_offload<D: DeviceSubstrate>(
    spec: &DeviceSpec,
    work_secs: u64,
    idle_secs: u64,
    sample_points: &[u64],
) -> Result<(), TestCaseError> {
    let mut device = D::create(spec, SimTime::ZERO);
    let mut rng = DetRng::from_seed(1);
    let (handle, _) = device.attach(SimTime::ZERO, ProcId(1), 500, 240, 100, &mut rng);
    let start = SimTime::from_secs(idle_secs);
    let done = start + SimDuration::from_secs(work_secs);
    device.start_offload(start, handle, 240, done.since(start), Affinity::Unmanaged);
    let mut sorted = sample_points.to_vec();
    sorted.sort_unstable();
    for s in sorted.iter().filter(|s| **s < work_secs) {
        let _ = device.utilization(start + SimDuration::from_secs(*s));
        prop_assert_eq!(completions(&device), vec![(ProcId(1), done)]);
    }
    prop_assert_eq!(device.next_completion(), Some((ProcId(1), done)));
    device.finish_offload(done, handle);
    prop_assert_eq!(device.next_completion(), None);
    prop_assert_eq!(device.resident_count(), 1);
    Ok(())
}
