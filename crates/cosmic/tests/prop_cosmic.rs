//! Property tests for COSMIC admission control: under arbitrary offload
//! request/complete/unregister sequences, the middleware never admits more
//! than the hardware's thread or core capacity, and (under FIFO) never
//! starves the queue head; and it agrees bit-for-bit with
//! [`ReferenceCosmic`], the specification in `reference/`.

mod reference;

use phishare_cosmic::{
    Admission, CosmicConfig, CosmicDevice, CosmicSubstrate, OffloadGrant, OffloadPolicy,
};
use phishare_phi::PhiConfig;
use phishare_sim::{SimDuration, SimTime};
use phishare_workload::JobId;
use proptest::prelude::*;
use reference::ReferenceCosmic;
use std::collections::BTreeSet;

/// Grants a departure unblocked.
fn unregister<C: CosmicSubstrate>(c: &mut C, now: SimTime, job: u64) -> Vec<OffloadGrant> {
    let mut grants = Vec::new();
    c.unregister_into(now, JobId(job), &mut grants);
    grants
}

/// Grants a completion unblocked.
fn complete<C: CosmicSubstrate>(c: &mut C, now: SimTime, handle: C::Handle) -> Vec<OffloadGrant> {
    let mut grants = Vec::new();
    c.complete_offload_into(now, handle, &mut grants);
    grants
}

#[derive(Debug, Clone)]
enum Op {
    Request {
        job: u64,
        cores: u32,
        work_secs: u64,
    },
    CompleteOne,
    Unregister {
        job: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..8, 1u32..=60, 1u64..20).prop_map(|(job, cores, work_secs)| Op::Request {
            job,
            cores,
            work_secs
        }),
        2 => Just(Op::CompleteOne),
        1 => (0u64..8).prop_map(|job| Op::Unregister { job }),
    ]
}

fn drive(ops: Vec<Op>, policy: OffloadPolicy) -> Result<(), TestCaseError> {
    let phi = PhiConfig::default();
    let mut cosmic = CosmicDevice::new(
        CosmicConfig {
            enforce_containers: true,
            policy,
        },
        &phi,
    );
    // Register the whole job universe up front.
    let handles: Vec<_> = (0..8u64)
        .map(|j| cosmic.register(JobId(j), 500, 240))
        .collect();
    let mut registered: BTreeSet<u64> = (0..8).collect();
    let mut active: BTreeSet<u64> = BTreeSet::new();
    let mut requested: BTreeSet<u64> = BTreeSet::new();
    let mut now = SimTime::ZERO;

    for op in ops {
        now += SimDuration::from_secs(1);
        match op {
            Op::Request {
                job,
                cores,
                work_secs,
            } => {
                if !registered.contains(&job) || requested.contains(&job) {
                    continue; // the runtime never double-requests
                }
                requested.insert(job);
                match cosmic.request_offload(
                    now,
                    handles[job as usize],
                    cores * 4,
                    SimDuration::from_secs(work_secs),
                ) {
                    Admission::Started(grant) => {
                        prop_assert_eq!(grant.job, JobId(job));
                        active.insert(job);
                    }
                    Admission::Queued => {}
                }
            }
            Op::CompleteOne => {
                if let Some(&job) = active.iter().next() {
                    active.remove(&job);
                    requested.remove(&job);
                    for grant in complete(&mut cosmic, now, handles[job as usize]) {
                        active.insert(grant.job.raw());
                    }
                }
            }
            Op::Unregister { job } => {
                if registered.remove(&job) {
                    for grant in unregister(&mut cosmic, now, job) {
                        active.insert(grant.job.raw());
                    }
                    active.remove(&job);
                    requested.remove(&job);
                }
            }
        }
        // --- invariants ---
        prop_assert!(
            cosmic.active_threads() <= phi.hw_threads(),
            "admitted {} threads over the {}-thread hardware",
            cosmic.active_threads(),
            phi.hw_threads()
        );
        prop_assert!(cosmic.queue_len() + active.len() <= 8);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fifo_never_oversubscribes(ops in prop::collection::vec(arb_op(), 1..80)) {
        drive(ops, OffloadPolicy::Fifo)?;
    }

    #[test]
    fn backfill_never_oversubscribes(ops in prop::collection::vec(arb_op(), 1..80)) {
        drive(ops, OffloadPolicy::Backfill)?;
    }

    /// FIFO liveness: if offloads keep completing, every queued offload is
    /// eventually granted (no starvation).
    #[test]
    fn fifo_drains_completely(requests in prop::collection::vec((0u64..16, 1u32..=60), 1..16)) {
        let phi = PhiConfig::default();
        let mut cosmic = CosmicDevice::new(CosmicConfig::default(), &phi);
        let mut seen = BTreeSet::new();
        let mut handles = std::collections::BTreeMap::new();
        let mut active: Vec<JobId> = Vec::new();
        let mut granted = 0usize;
        let mut issued = 0usize;
        let mut now = SimTime::ZERO;
        for (job, cores) in requests {
            if !seen.insert(job) {
                continue;
            }
            let handle = cosmic.register(JobId(job), 100, 240);
            handles.insert(JobId(job), handle);
            issued += 1;
            match cosmic.request_offload(now, handle, cores * 4, SimDuration::from_secs(1)) {
                Admission::Started(g) => {
                    granted += 1;
                    active.push(g.job);
                }
                Admission::Queued => {}
            }
        }
        // Drain: complete actives until nothing remains.
        let mut steps = 0;
        while let Some(job) = active.pop() {
            now += SimDuration::from_secs(1);
            for g in complete(&mut cosmic, now, handles[&job]) {
                granted += 1;
                active.push(g.job);
            }
            steps += 1;
            prop_assert!(steps < 1000, "drain did not terminate");
        }
        prop_assert_eq!(granted, issued, "some offload starved");
        prop_assert_eq!(cosmic.queue_len(), 0);
    }

    /// Differential check: the slab-backed middleware and the reference
    /// specification, driven through their one operation API by the
    /// identical operation sequence, must agree bit-for-bit on every
    /// admission decision, every unblocked grant (content *and* order —
    /// grant order decides which job starts first on the device), all
    /// aggregate accounting and the queue-wait statistics.
    #[test]
    fn middleware_matches_the_reference_specification(
        ops in prop::collection::vec(arb_op(), 1..100),
        backfill in any::<bool>(),
    ) {
        let cfg = CosmicConfig {
            enforce_containers: true,
            policy: if backfill { OffloadPolicy::Backfill } else { OffloadPolicy::Fifo },
        };
        lockstep(cfg, ops)?;
    }
}

/// Drive the middleware and the specification through `ops` in lockstep
/// via the trait; every observable must agree bit-for-bit after every
/// step.
fn lockstep(cfg: CosmicConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let phi = PhiConfig::default();
    let mut fast = CosmicDevice::create(cfg, &phi);
    let mut spec = ReferenceCosmic::create(cfg, &phi);
    let handles: Vec<_> = (0..8u64)
        .map(|j| {
            (
                fast.register(JobId(j), 500 + j, 240),
                spec.register(JobId(j), 500 + j, 240),
            )
        })
        .collect();
    let mut registered: BTreeSet<u64> = (0..8).collect();
    let mut active: BTreeSet<u64> = BTreeSet::new();
    let mut requested: BTreeSet<u64> = BTreeSet::new();
    let mut now = SimTime::ZERO;

    for op in ops {
        now += SimDuration::from_secs(1);
        match op {
            Op::Request {
                job,
                cores,
                work_secs,
            } => {
                if !registered.contains(&job) || requested.contains(&job) {
                    continue;
                }
                requested.insert(job);
                let (hf, hs) = handles[job as usize];
                let w = SimDuration::from_secs(work_secs);
                let f = fast.request_offload(now, hf, cores * 4, w);
                let r = spec.request_offload(now, hs, cores * 4, w);
                prop_assert_eq!(&f, &r);
                if matches!(f, Admission::Started(_)) {
                    active.insert(job);
                }
            }
            Op::CompleteOne => {
                if let Some(&job) = active.iter().next() {
                    active.remove(&job);
                    requested.remove(&job);
                    let (hf, hs) = handles[job as usize];
                    let fg = complete(&mut fast, now, hf);
                    prop_assert_eq!(&fg, &complete(&mut spec, now, hs));
                    for grant in fg {
                        active.insert(grant.job.raw());
                    }
                }
            }
            Op::Unregister { job } => {
                if registered.remove(&job) {
                    let fg = unregister(&mut fast, now, job);
                    prop_assert_eq!(&fg, &unregister(&mut spec, now, job));
                    for grant in fg {
                        active.insert(grant.job.raw());
                    }
                    active.remove(&job);
                    requested.remove(&job);
                }
            }
        }
        // --- every observable agrees, bit-for-bit ---
        prop_assert_eq!(fast.registered_jobs(), spec.registered_jobs());
        prop_assert_eq!(fast.registered_jobs(), registered.len());
        prop_assert_eq!(fast.active_threads(), spec.active_threads());
        prop_assert_eq!(fast.queue_len(), spec.queue_len());
        prop_assert_eq!(fast.registered_declared_mb(), spec.registered_declared_mb());
        prop_assert_eq!(
            fast.registered_declared_threads(),
            spec.registered_declared_threads()
        );
        prop_assert_eq!(fast.queued_total, spec.queued_total);
        prop_assert_eq!(fast.queue_wait_count(), spec.queue_wait_count());
        if fast.queue_wait_count() > 0 {
            prop_assert_eq!(
                fast.queue_wait_mean().to_bits(),
                spec.queue_wait_mean().to_bits()
            );
            prop_assert_eq!(
                fast.queue_wait.max().to_bits(),
                spec.queue_wait.max().to_bits()
            );
        }
        // Container verdicts agree for every registered job.
        for &j in &registered {
            let (hf, hs) = handles[j as usize];
            for mb in [505, 506, 507] {
                prop_assert_eq!(fast.on_commit(hf, mb), spec.on_commit(hs, mb));
            }
        }
    }

    // A reset leaves both equally empty with stats intact.
    fast.reset();
    spec.reset();
    prop_assert_eq!(fast.registered_jobs(), 0);
    prop_assert_eq!(spec.registered_jobs(), 0);
    prop_assert_eq!(fast.active_threads(), 0);
    prop_assert_eq!(spec.active_threads(), 0);
    prop_assert_eq!(fast.queued_total, spec.queued_total);
    prop_assert_eq!(fast.queue_wait_count(), spec.queue_wait_count());
    Ok(())
}
