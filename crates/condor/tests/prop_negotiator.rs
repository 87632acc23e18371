//! Differential property tests for the matchmaking paths.
//!
//! The negotiator has three implementations: the incremental delta path
//! (`negotiate_delta_with_stats`, the default), the compiled/indexed
//! full-rematch fast path (`negotiate_full_with_stats`), and the retained
//! naive reference that re-parses and re-evaluates every (job, slot) pair
//! (`negotiate_naive_with_stats`). These tests drive all of them over
//! randomized clusters, job mixes, and churn sequences and require
//! *identical* results: same matches in the same order, same cycle stats,
//! same final collector state (including the in-cycle resource decrements
//! and every index), and same queue state.
//!
//! Some generated nodes advertise a machine-side `Requirements` that reads
//! the job's ad, and some queues hold many copies of a few job kinds: the
//! delta path's job classes (one screen and one rejection per class of
//! identical requirements) must stay exact with and without such slots.
//! The delta path certifies a rejected class's members in runs; every
//! pending job's certificate and the queue's certificate floor must still
//! equal what the per-job paths record.

use phishare_classad::ad::{RANK, REQUIREMENTS};
use phishare_condor::attrs;
use phishare_condor::{Collector, JobQueue, Negotiator, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use proptest::prelude::*;

/// One node of the generated cluster.
#[derive(Debug, Clone)]
struct NodeDesc {
    slots: u32,
    free_mem: i64,
    devices_free: i64,
    /// Whether the node's slot ads carry [`MACHINE_REQUIREMENTS`].
    guarded: bool,
}

/// A machine-side `Requirements` that reads the job ad, so two jobs with
/// identical requirements but different requests can see different pools.
const MACHINE_REQUIREMENTS: &str = "TARGET.RequestPhiMemory <= 3000";

/// A slot ad of the generated cluster, with the machine-side
/// `Requirements` when `guarded`.
fn slot_ad(
    id: SlotId,
    free_mem: i64,
    devices_free: i64,
    guarded: bool,
) -> phishare_classad::ClassAd {
    let mut ad = attrs::machine_ad(
        &id.name(),
        &format!("node{}", id.node),
        1,
        8192,
        free_mem.max(0) as u64,
        devices_free.max(0) as u32,
    );
    if guarded {
        ad.insert_expr(REQUIREMENTS, MACHINE_REQUIREMENTS).unwrap();
    }
    ad
}

/// The matchmaking personality of one generated job.
#[derive(Debug, Clone)]
enum JobKind {
    /// `PhiDevices >= 1 && PhiFreeMemory >= MY.RequestPhiMemory`.
    Sharing { mem: i64 },
    /// `PhiDevicesFree >= 1`, exclusive flag set.
    Exclusive { mem: i64 },
    /// Pinned to one slot name (which may not exist).
    PinSlot { node: u32, slot: u32 },
    /// Pinned to one node name (which may not exist).
    PinNode { node: u32 },
    /// Constant-false requirements.
    Never,
    /// No requirements at all: matches any slot.
    Always,
    /// A disjunction the compiler cannot reduce to guards (residual path).
    ResidualOr { mem: i64 },
    /// Guard on an attribute machines do not advertise.
    MissingAttr,
    /// An upper bound on free memory: a same-cycle decrement can turn a
    /// rejecting slot into an admitting one.
    Capped,
}

fn arb_node() -> impl Strategy<Value = NodeDesc> {
    (
        1u32..=3,
        prop_oneof![Just(0i64), Just(512), Just(1024), Just(3000), Just(7680)],
        0i64..=2,
        prop_oneof![3 => Just(false), 1 => Just(true)],
    )
        .prop_map(|(slots, free_mem, devices_free, guarded)| NodeDesc {
            slots,
            free_mem,
            devices_free,
            guarded,
        })
}

fn arb_job_kind() -> impl Strategy<Value = JobKind> {
    let mem = prop_oneof![
        Just(100i64),
        Just(512),
        Just(1024),
        Just(3000),
        Just(6000),
        Just(9000)
    ];
    prop_oneof![
        mem.clone().prop_map(|mem| JobKind::Sharing { mem }),
        mem.clone().prop_map(|mem| JobKind::Exclusive { mem }),
        (1u32..=6, 1u32..=4).prop_map(|(node, slot)| JobKind::PinSlot { node, slot }),
        (1u32..=6).prop_map(|node| JobKind::PinNode { node }),
        Just(JobKind::Never),
        Just(JobKind::Always),
        mem.prop_map(|mem| JobKind::ResidualOr { mem }),
        Just(JobKind::MissingAttr),
        Just(JobKind::Capped),
    ]
}

fn job_ad(kind: &JobKind, ranked: bool) -> phishare_classad::ClassAd {
    let mut ad = phishare_classad::ClassAd::new();
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    match kind {
        JobKind::Sharing { mem } => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, *mem);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            )
            .unwrap();
        }
        JobKind::Exclusive { mem } => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, *mem);
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, true);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
                .unwrap();
        }
        JobKind::PinSlot { node, slot } => {
            ad.insert_expr(
                REQUIREMENTS,
                &attrs::pin_requirements(&format!("slot{slot}@node{node}")),
            )
            .unwrap();
        }
        JobKind::PinNode { node } => {
            ad.insert_expr(REQUIREMENTS, &attrs::pin_to_node(&format!("node{node}")))
                .unwrap();
        }
        JobKind::Never => {
            ad.insert_expr(REQUIREMENTS, "false").unwrap();
        }
        JobKind::Always => {}
        JobKind::ResidualOr { mem } => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, *mem);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiFreeMemory >= MY.RequestPhiMemory || TARGET.PhiDevicesFree >= 2",
            )
            .unwrap();
        }
        JobKind::MissingAttr => {
            ad.insert_expr(REQUIREMENTS, "TARGET.NoSuchAttribute >= 1")
                .unwrap();
        }
        JobKind::Capped => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 100i64);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiFreeMemory <= 5000")
                .unwrap();
        }
    }
    if ranked {
        ad.insert_expr(RANK, "TARGET.PhiFreeMemory").unwrap();
    }
    ad
}

/// A duplicate-heavy queue: 20–60 jobs drawn from at most three kinds,
/// each ranked or not. An exclusive job's memory request is drawn per job:
/// only the commit reads it, so such jobs still share one class.
fn arb_duplicate_jobs() -> impl Strategy<Value = Vec<(JobKind, bool)>> {
    (
        prop::collection::vec((arb_job_kind(), any::<bool>()), 1..=3),
        prop::collection::vec(
            (0usize..3, prop_oneof![Just(100i64), Just(3000), Just(6000)]),
            20..=60,
        ),
    )
        .prop_map(|(kinds, picks)| {
            picks
                .into_iter()
                .map(|(i, mem)| match kinds[i % kinds.len()].clone() {
                    (JobKind::Exclusive { .. }, ranked) => (JobKind::Exclusive { mem }, ranked),
                    other => other,
                })
                .collect()
        })
}

/// The pool's count of slots with machine-side `Requirements`, recounted
/// from the ads.
fn recount_guarded(collector: &Collector) -> usize {
    collector
        .slots()
        .filter(|(_, s)| s.meta().has_requirements())
        .count()
}

/// The queue's certificate state: the floor, and each pending job's
/// certificate in FIFO order. The delta path certifies whole classes in
/// runs; this must equal what the per-job paths record.
fn certs(queue: &JobQueue) -> (Option<u64>, Vec<(JobId, Option<u64>)>) {
    let pending = queue.pending();
    let each = pending.iter().map(|&id| (id, queue.eval_seq(id))).collect();
    (queue.idle_cert_floor(), each)
}

/// Build the identical (queue, collector) pair twice from the generated
/// scenario, so the fast and naive paths start from equal states.
fn build(nodes: &[NodeDesc], jobs: &[(JobKind, bool)], claims: &[bool]) -> (JobQueue, Collector) {
    build_parts(nodes, jobs, claims, 1)
}

/// [`build`] with an explicit collector partition count.
fn build_parts(
    nodes: &[NodeDesc],
    jobs: &[(JobKind, bool)],
    claims: &[bool],
    parts: usize,
) -> (JobQueue, Collector) {
    let mut collector = Collector::with_partitions(parts);
    let mut all_slots = Vec::new();
    for (n, node) in nodes.iter().enumerate() {
        let node_idx = n as u32 + 1;
        for s in 1..=node.slots {
            let id = SlotId {
                node: node_idx,
                slot: s,
            };
            collector.advertise(
                id,
                slot_ad(id, node.free_mem, node.devices_free, node.guarded),
            );
            all_slots.push(id);
        }
    }
    for (slot, claim) in all_slots.iter().zip(claims.iter()) {
        if *claim {
            collector.claim(*slot);
        }
    }
    let mut queue = JobQueue::new();
    for (i, (kind, ranked)) in jobs.iter().enumerate() {
        queue
            .submit(JobId(i as u64), job_ad(kind, *ranked), SimTime::ZERO)
            .unwrap();
    }
    (queue, collector)
}

/// One churn action applied identically to both twins between cycles.
/// Indices are taken modulo the live population at application time, so
/// every generated op is applicable and both twins see the same effect.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Release the i-th currently-claimed slot.
    Release(usize),
    /// Claim the i-th currently-unclaimed slot out from under the queue
    /// (an external schedd winning the slot).
    Claim(usize),
    /// Refresh a slot's Phi availability in place.
    Refresh { slot: usize, mem: i64, devs: i64 },
    /// Refresh a whole node's Phi availability with one node write, as a
    /// startd does; `devs: None` leaves `PhiDevicesFree` alone.
    RefreshNode {
        node: u32,
        mem: i64,
        devs: Option<i64>,
    },
    /// Node churn: every ad the node ever advertised is invalidated.
    InvalidateNode(u32),
    /// Node (re)join: advertise two fresh slots on the node.
    Advertise { node: u32, mem: i64 },
    /// Toggle a node with machine-side `Requirements`: invalidate the node
    /// when any of its slots carries them, else advertise two slots that
    /// do — so the pool's count of such slots goes to zero and back.
    ToggleGuarded { node: u32, mem: i64 },
    /// Rewrite a job's requested memory (folds into its compiled guards).
    QeditMem { job: usize, mem: i64 },
    /// An open-arrival submission mid-stream.
    Submit(JobKind),
}

fn arb_churn() -> impl Strategy<Value = ChurnOp> {
    let mem = prop_oneof![Just(0i64), Just(512), Just(3000), Just(7680)];
    prop_oneof![
        (0usize..16).prop_map(ChurnOp::Release),
        (0usize..16).prop_map(ChurnOp::Claim),
        (0usize..16, mem.clone(), 0i64..=2).prop_map(|(slot, mem, devs)| ChurnOp::Refresh {
            slot,
            mem,
            devs
        }),
        (
            1u32..=4,
            mem.clone(),
            prop_oneof![Just(None), (0i64..=2).prop_map(Some)]
        )
            .prop_map(|(node, mem, devs)| ChurnOp::RefreshNode { node, mem, devs }),
        (1u32..=4).prop_map(ChurnOp::InvalidateNode),
        (1u32..=4, mem.clone()).prop_map(|(node, mem)| ChurnOp::Advertise { node, mem }),
        (1u32..=4, mem.clone()).prop_map(|(node, mem)| ChurnOp::ToggleGuarded { node, mem }),
        (0usize..12, mem).prop_map(|(job, mem)| ChurnOp::QeditMem { job, mem }),
        arb_job_kind().prop_map(ChurnOp::Submit),
    ]
}

/// Apply one churn op to one (queue, collector) twin. `next_id` is the
/// twin's open-arrival id counter (kept in lockstep across twins).
fn apply_churn(op: &ChurnOp, queue: &mut JobQueue, collector: &mut Collector, next_id: &mut u64) {
    match op {
        ChurnOp::Release(i) => {
            let claimed: Vec<SlotId> = collector
                .slots()
                .filter(|(_, s)| s.claimed)
                .map(|(id, _)| *id)
                .collect();
            if !claimed.is_empty() {
                collector.release(claimed[i % claimed.len()]);
            }
        }
        ChurnOp::Claim(i) => {
            let unclaimed = collector.unclaimed();
            if !unclaimed.is_empty() {
                collector.claim(unclaimed[i % unclaimed.len()]);
            }
        }
        ChurnOp::Refresh { slot, mem, devs } => {
            let slots: Vec<SlotId> = collector.slots().map(|(id, _)| *id).collect();
            if !slots.is_empty() {
                collector.refresh_phi_availability(
                    slots[slot % slots.len()],
                    *mem as u64,
                    *devs as u32,
                );
            }
        }
        ChurnOp::RefreshNode { node, mem, devs } => {
            collector.update_node_phi(*node, |_| [Some(*mem), *devs]);
        }
        ChurnOp::InvalidateNode(node) => {
            collector.invalidate_node(*node);
        }
        ChurnOp::Advertise { node, mem } => {
            for s in 1..=2u32 {
                let id = SlotId {
                    node: *node,
                    slot: s,
                };
                collector.advertise(id, slot_ad(id, *mem, 1, false));
            }
        }
        ChurnOp::ToggleGuarded { node, mem } => {
            let guarded = collector.node_slots(*node).iter().any(|&id| {
                collector
                    .get(id)
                    .is_some_and(|s| s.meta().has_requirements())
            });
            if guarded {
                collector.invalidate_node(*node);
            } else {
                for s in 1..=2u32 {
                    let id = SlotId {
                        node: *node,
                        slot: s,
                    };
                    collector.advertise(id, slot_ad(id, *mem, 1, true));
                }
            }
        }
        ChurnOp::QeditMem { job, mem } => {
            let ids = queue.pending();
            if !ids.is_empty() {
                queue
                    .qedit_value(ids[job % ids.len()], attrs::REQUEST_PHI_MEMORY, *mem)
                    .unwrap();
            }
        }
        ChurnOp::Submit(kind) => {
            queue
                .submit(JobId(*next_id), job_ad(kind, false), SimTime::ZERO)
                .unwrap();
            *next_id += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Delta and full paths are result-identical to the naive evaluator:
    /// matches (content *and* order), cycle stats, final collector state
    /// (ads and claims — `Collector: PartialEq` covers the authoritative
    /// state), and the queue's pending set.
    #[test]
    fn all_paths_match_naive_evaluator(
        nodes in prop::collection::vec(arb_node(), 1..=5),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 1..=10),
        claims in prop::collection::vec(any::<bool>(), 0..=15),
    ) {
        let (mut q_delta, mut c_delta) = build(&nodes, &jobs, &claims);
        let (mut q_full, mut c_full) = build(&nodes, &jobs, &claims);
        let (mut q_naive, mut c_naive) = build(&nodes, &jobs, &claims);
        prop_assert_eq!(&c_delta, &c_naive, "builders must start equal");

        let negotiator = Negotiator::default();
        let delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);

        prop_assert_eq!(&delta, &full, "delta diverged from full oracle");
        prop_assert_eq!(&full, &naive, "full diverged from naive reference");
        prop_assert_eq!(&c_delta, &c_full, "collector states diverged");
        prop_assert_eq!(&c_full, &c_naive, "collector states diverged");
        prop_assert_eq!(q_delta.pending(), q_naive.pending());
        prop_assert_eq!(q_full.pending(), q_naive.pending());
        prop_assert_eq!(q_delta.active_counts(), q_naive.active_counts());
        prop_assert_eq!(certs(&q_delta), certs(&q_naive));
        prop_assert_eq!(certs(&q_full), certs(&q_naive));
    }

    /// Two consecutive cycles stay identical too — the second cycle starts
    /// from the first one's decremented ads, mutated indexes, and (for the
    /// delta path) unmatched certificates, which is where stale-index and
    /// stale-certificate bugs would surface.
    #[test]
    fn all_paths_match_naive_over_two_cycles(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 1..=8),
    ) {
        let (mut q_delta, mut c_delta) = build(&nodes, &jobs, &[]);
        let (mut q_full, mut c_full) = build(&nodes, &jobs, &[]);
        let (mut q_naive, mut c_naive) = build(&nodes, &jobs, &[]);
        let negotiator = Negotiator::default();

        let first_delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let first_full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let first_naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        prop_assert_eq!(&first_delta, &first_full);
        prop_assert_eq!(&first_full, &first_naive);

        // Release the first cycle's claims on all sides, as dispatch would.
        let claimed: Vec<SlotId> = c_naive
            .slots()
            .filter(|(_, s)| s.claimed)
            .map(|(id, _)| *id)
            .collect();
        for slot in claimed {
            c_delta.release(slot);
            c_full.release(slot);
            c_naive.release(slot);
        }

        let second_delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let second_full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let second_naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        prop_assert_eq!(&second_delta, &second_full);
        prop_assert_eq!(&second_full, &second_naive);
        prop_assert_eq!(&c_delta, &c_full);
        prop_assert_eq!(&c_full, &c_naive);
    }

    /// The core delta-exactness property: across an arbitrary multi-cycle
    /// history of churn — claims and releases out from under the queue, ad
    /// refreshes, node loss and rejoin, qedits, open-arrival submissions —
    /// the delta path stays bit-identical to the full-rematch oracle in
    /// every cycle.
    #[test]
    fn delta_matches_full_oracle_across_random_churn(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 0..=8),
        rounds in prop::collection::vec(prop::collection::vec(arb_churn(), 0..=5), 1..=5),
    ) {
        let (mut q_delta, mut c_delta) = build(&nodes, &jobs, &[]);
        let (mut q_full, mut c_full) = build(&nodes, &jobs, &[]);
        let negotiator = Negotiator::default();
        let mut next_delta = jobs.len() as u64;
        let mut next_full = jobs.len() as u64;

        for (r, ops) in rounds.iter().enumerate() {
            for op in ops {
                apply_churn(op, &mut q_delta, &mut c_delta, &mut next_delta);
                apply_churn(op, &mut q_full, &mut c_full, &mut next_full);
                prop_assert_eq!(c_delta.slots_with_requirements(), recount_guarded(&c_delta));
            }
            prop_assert_eq!(&c_delta, &c_full, "churn diverged before round {}", r);

            let delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
            let full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
            prop_assert_eq!(&delta, &full, "round {} matches diverged", r);
            prop_assert_eq!(&c_delta, &c_full, "round {} collectors diverged", r);
            prop_assert_eq!(q_delta.pending(), q_full.pending(), "round {} pending diverged", r);
            prop_assert_eq!(certs(&q_delta), certs(&q_full), "round {} certificates diverged", r);
        }
    }

    /// Partition-count invariance: the partitioned delta screen produces
    /// bit-identical matches, cycle stats, queue state, and collector state
    /// for every partition count across arbitrary churn histories. P = 1 is
    /// the unpartitioned layout (the bench baseline); 2, 3, and 8 exercise
    /// uneven node→partition maps, cross-partition winner merges, and
    /// per-partition dirty watermarks. `Collector: PartialEq` is itself
    /// partition-layout-blind, so the final-state comparisons are exact.
    #[test]
    fn partition_count_is_invisible_across_random_churn(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 0..=8),
        rounds in prop::collection::vec(prop::collection::vec(arb_churn(), 0..=5), 1..=4),
    ) {
        const PARTS: [usize; 4] = [1, 2, 3, 8];
        let negotiator = Negotiator::default();
        let mut twins: Vec<(JobQueue, Collector, u64)> = PARTS
            .iter()
            .map(|&p| {
                let (q, c) = build_parts(&nodes, &jobs, &[], p);
                (q, c, jobs.len() as u64)
            })
            .collect();

        for (r, ops) in rounds.iter().enumerate() {
            let mut outcomes = Vec::new();
            for (queue, collector, next_id) in twins.iter_mut() {
                for op in ops {
                    apply_churn(op, queue, collector, next_id);
                }
                outcomes.push(negotiator.negotiate_delta_with_stats(queue, collector));
            }
            for (i, outcome) in outcomes.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &outcomes[0], outcome,
                    "round {}: P={} matches diverged from P=1", r, PARTS[i]
                );
                prop_assert_eq!(
                    &twins[0].1, &twins[i].1,
                    "round {}: P={} collector diverged from P=1", r, PARTS[i]
                );
                prop_assert_eq!(
                    twins[0].0.pending(), twins[i].0.pending(),
                    "round {}: P={} pending diverged from P=1", r, PARTS[i]
                );
                prop_assert_eq!(
                    certs(&twins[0].0), certs(&twins[i].0),
                    "round {}: P={} certificates diverged from P=1", r, PARTS[i]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Duplicate-heavy queues, where the delta path screens and rejects
    /// once per class: across churn that includes nodes with machine-side
    /// `Requirements` coming and going, delta, full and naive stay
    /// identical in every cycle.
    #[test]
    fn duplicate_heavy_queues_match_naive_across_churn(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in arb_duplicate_jobs(),
        rounds in prop::collection::vec(prop::collection::vec(arb_churn(), 0..=4), 1..=4),
    ) {
        let mut twins: Vec<(JobQueue, Collector, u64)> = (0..3)
            .map(|_| {
                let (q, c) = build(&nodes, &jobs, &[]);
                (q, c, jobs.len() as u64)
            })
            .collect();
        let negotiator = Negotiator::default();
        for (r, ops) in rounds.iter().enumerate() {
            for (queue, collector, next_id) in twins.iter_mut() {
                for op in ops {
                    apply_churn(op, queue, collector, next_id);
                }
            }
            prop_assert_eq!(twins[0].1.slots_with_requirements(), recount_guarded(&twins[0].1));
            let [delta, full, naive] = &mut twins[..] else { unreachable!() };
            let d = negotiator.negotiate_delta_with_stats(&mut delta.0, &mut delta.1);
            let f = negotiator.negotiate_full_with_stats(&mut full.0, &mut full.1);
            let n = negotiator.negotiate_naive_with_stats(&mut naive.0, &mut naive.1);
            prop_assert_eq!(&d, &f, "round {}: delta diverged from full", r);
            prop_assert_eq!(&f, &n, "round {}: full diverged from naive", r);
            prop_assert_eq!(&delta.1, &naive.1, "round {} collectors diverged", r);
            prop_assert_eq!(&full.1, &naive.1, "round {} collectors diverged", r);
            prop_assert_eq!(delta.0.pending(), naive.0.pending(), "round {} pending diverged", r);
            prop_assert_eq!(delta.0.active_counts(), naive.0.active_counts());
            prop_assert_eq!(certs(&delta.0), certs(&full.0), "round {} certificates diverged", r);
            prop_assert_eq!(certs(&full.0), certs(&naive.0), "round {} certificates diverged", r);
        }
    }
}

/// Regression: a match's same-cycle `PhiFreeMemory` decrement must be
/// reflected in the collector's free-memory index immediately, so a later
/// job in the same cycle cannot match against stale capacity.
#[test]
fn same_cycle_decrement_is_visible_in_free_mem_index() {
    let mut collector = Collector::new();
    for s in 1..=2u32 {
        let id = SlotId { node: 1, slot: s };
        collector.advertise(id, attrs::machine_ad(&id.name(), "node1", 1, 8192, 7680, 1));
    }
    let mut queue = JobQueue::new();
    queue
        .submit(
            JobId(0),
            job_ad(&JobKind::Sharing { mem: 5000 }, false),
            SimTime::ZERO,
        )
        .unwrap();
    queue
        .submit(
            JobId(1),
            job_ad(&JobKind::Sharing { mem: 4000 }, false),
            SimTime::ZERO,
        )
        .unwrap();

    let (matches, stats) = Negotiator::default().negotiate_with_stats(&mut queue, &mut collector);

    // Job 0 takes 5000 of the node's 7680; job 1's 4000 no longer fits.
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].job, JobId(0));
    assert_eq!(stats.matched, 1);
    assert_eq!(stats.unmatched, 1);
    assert_eq!(queue.pending(), vec![JobId(1)]);

    // The index answers with the decremented value: nothing at >= 4000,
    // and the one unclaimed slot shows 2680 left.
    assert_eq!(
        collector.unclaimed_with_free_mem_at_least(4000.0).count(),
        0
    );
    let remaining: Vec<SlotId> = collector.unclaimed_with_free_mem_at_least(2680.0).collect();
    assert_eq!(remaining, vec![SlotId { node: 1, slot: 2 }]);
}

/// Generalization of the regression above to an *arbitrary* guard-indexed
/// attribute: the negotiation cycle registers an index for whatever numeric
/// guard the jobs carry (here a made-up `TapeDrives`), and mutations — a
/// claim taking the only qualifying slot, then a re-advertisement with
/// fewer drives — must be visible to later range scans in the same way
/// `PhiFreeMemory` decrements are. Delta and full paths must agree on all
/// of it.
#[test]
fn same_cycle_coherence_holds_for_arbitrary_guard_indexed_attrs() {
    let build = || {
        let mut collector = Collector::new();
        for (s, drives) in [(1u32, 3i64), (2, 1)] {
            let id = SlotId { node: 1, slot: s };
            let mut ad = attrs::machine_ad(&id.name(), "node1", 1, 8192, 7680, 1);
            ad.insert("TapeDrives", drives);
            collector.advertise(id, ad);
        }
        let mut queue = JobQueue::new();
        for i in 0..3u64 {
            let mut ad = phishare_classad::ClassAd::new();
            // Jobs 0 and 1 both need the 2-drive slot; only slot 1
            // qualifies, so job 0's claim must block job 1 *within the
            // cycle*. Job 2's weaker guard still fits slot 2.
            let bound = if i < 2 { 2 } else { 1 };
            ad.insert_expr(REQUIREMENTS, &format!("TARGET.TapeDrives >= {bound}"))
                .unwrap();
            queue.submit(JobId(i), ad, SimTime::ZERO).unwrap();
        }
        (queue, collector)
    };

    for path in [
        phishare_condor::MatchPath::Delta,
        phishare_condor::MatchPath::Full,
    ] {
        let (mut queue, mut collector) = build();
        let negotiator = Negotiator::default().with_path(path);
        let (matches, stats) = negotiator.negotiate_with_stats(&mut queue, &mut collector);
        assert_eq!(
            matches.iter().map(|m| (m.job, m.slot)).collect::<Vec<_>>(),
            vec![
                (JobId(0), SlotId { node: 1, slot: 1 }),
                (JobId(2), SlotId { node: 1, slot: 2 }),
            ],
            "{path:?}"
        );
        assert_eq!(stats.unmatched, 1, "{path:?}");
        assert_eq!(queue.pending(), vec![JobId(1)], "{path:?}");

        // The cycle registered the index; it answers range queries with
        // the claims applied, and re-advertisements keep it coherent.
        let idx = collector
            .attr_index("tapedrives")
            .expect("registered by the cycle");
        assert_eq!(collector.indexed_range_at_least(idx, 2.0).count(), 0);
        collector.release(SlotId { node: 1, slot: 1 });
        let id = SlotId { node: 1, slot: 1 };
        let mut ad = collector.get(id).expect("slot 1 exists").ad.clone();
        ad.insert("TapeDrives", 2i64);
        collector.advertise(id, ad);
        assert_eq!(
            collector
                .indexed_range_at_least(idx, 2.0)
                .collect::<Vec<_>>(),
            vec![SlotId { node: 1, slot: 1 }]
        );
        // And the freed slot satisfies the remaining job next cycle.
        let (matches, _) = negotiator.negotiate_with_stats(&mut queue, &mut collector);
        assert_eq!(
            matches.iter().map(|m| m.job).collect::<Vec<_>>(),
            vec![JobId(1)],
            "{path:?}"
        );
    }
}
