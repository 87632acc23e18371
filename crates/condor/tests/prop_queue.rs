//! Property tests for the schedd queue: the job state machine never enters
//! an inconsistent state under arbitrary operation sequences, FIFO order is
//! preserved through hold/release churn, and the autocluster table always
//! equals a rebuild from per-job state.

use phishare_classad::ClassAd;
use phishare_condor::{attrs, JobQueue, JobState, QueueTotals, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Submit { job: u64, held: bool },
    Hold { job: u64 },
    Release { job: u64 },
    Match { job: u64 },
    Run { job: u64 },
    Complete { job: u64 },
    Remove { job: u64 },
    Qedit { job: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let j = 0u64..8;
    prop_oneof![
        (j.clone(), any::<bool>()).prop_map(|(job, held)| Op::Submit { job, held }),
        j.clone().prop_map(|job| Op::Hold { job }),
        j.clone().prop_map(|job| Op::Release { job }),
        j.clone().prop_map(|job| Op::Match { job }),
        j.clone().prop_map(|job| Op::Run { job }),
        j.clone().prop_map(|job| Op::Complete { job }),
        j.clone().prop_map(|job| Op::Remove { job }),
        j.prop_map(|job| Op::Qedit { job }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary operation sequences: every op either succeeds with a legal
    /// transition or returns an error; totals always add up; terminal jobs
    /// never move again.
    #[test]
    fn queue_state_machine_is_sound(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut q = JobQueue::new();
        let slot = SlotId { node: 1, slot: 1 };
        let mut submitted = 0usize;

        for op in ops {
            let before: Vec<JobState> =
                q.job_ids().iter().map(|id| q.get(*id).unwrap().state).collect();
            let outcome = match op {
                Op::Submit { job, held } => {
                    let r = if held {
                        q.submit_held(JobId(job), ClassAd::new(), SimTime::ZERO)
                    } else {
                        q.submit(JobId(job), ClassAd::new(), SimTime::ZERO)
                    };
                    if r.is_ok() {
                        submitted += 1;
                    }
                    r
                }
                Op::Hold { job } => q.hold(JobId(job)),
                Op::Release { job } => q.release(JobId(job)),
                Op::Match { job } => q.set_matched(JobId(job), slot),
                Op::Run { job } => q.set_running(JobId(job)),
                Op::Complete { job } => q.set_completed(JobId(job)),
                Op::Remove { job } => q.set_removed(JobId(job)),
                Op::Qedit { job } => q.qedit_expr(JobId(job), "Requirements", "true"),
            };

            // A failed op must not have mutated any job state.
            if outcome.is_err() {
                let after: Vec<JobState> =
                    q.job_ids().iter().map(|id| q.get(*id).unwrap().state).collect();
                prop_assert_eq!(&before[..after.len().min(before.len())],
                                &after[..after.len().min(before.len())]);
            }

            // Totals always account for every submitted job.
            let t = QueueTotals::of(&q);
            prop_assert_eq!(t.total(), submitted);
            // pending ∪ held are disjoint subsets of non-terminal jobs.
            let pending = q.pending();
            let held = q.held();
            for id in &pending {
                prop_assert!(!held.contains(id));
                prop_assert!(q.get(*id).unwrap().state.is_idle());
            }
        }
    }

    /// Queue order under hold/release churn matches HTCondor's semantics:
    /// holding a job forfeits its place, and a released job re-enters
    /// negotiation order at the back (fresh tail), never mid-queue. Both
    /// the idle and held orders are tracked against a simple list oracle.
    #[test]
    fn hold_release_churn_is_fresh_tail_fifo(toggles in prop::collection::vec((0u64..10, any::<bool>()), 0..40)) {
        let mut q = JobQueue::new();
        let mut idle_oracle: Vec<JobId> = Vec::new();
        let mut held_oracle: Vec<JobId> = Vec::new();
        for i in 0..10u64 {
            q.submit(JobId(i), ClassAd::new(), SimTime::ZERO).unwrap();
            idle_oracle.push(JobId(i));
        }
        for (job, to_hold) in toggles {
            if to_hold {
                if q.hold(JobId(job)).is_ok() {
                    idle_oracle.retain(|&id| id != JobId(job));
                    held_oracle.push(JobId(job));
                }
            } else if q.release(JobId(job)).is_ok() {
                held_oracle.retain(|&id| id != JobId(job));
                idle_oracle.push(JobId(job));
            }
        }
        prop_assert_eq!(q.pending(), idle_oracle, "pending order diverged from the oracle");
        prop_assert_eq!(q.held(), held_oracle, "held order diverged from the oracle");
    }

    /// Random queue operations, including qedits that move jobs between
    /// classes: after each one, the class table's members, their FIFO
    /// order, every idle job's certificate and `idle_cert_floor` equal a
    /// rebuild from per-job state and a model of the certificate rules.
    #[test]
    fn class_table_matches_a_rebuild_from_per_job_state(
        ops in prop::collection::vec(arb_class_op(), 1..80),
    ) {
        let mut q = JobQueue::new();
        // The model: each idle job's certificate.
        let mut certs: BTreeMap<JobId, Option<u64>> = BTreeMap::new();
        for op in ops {
            let was_idle = |q: &JobQueue, id| q.get(id).is_some_and(|j| j.state.is_idle());
            match op {
                ClassOp::Submit { job, held, req, mem } => {
                    let ad = class_ad(req, mem);
                    let r = if held {
                        q.submit_held(JobId(job), ad, SimTime::ZERO)
                    } else {
                        q.submit(JobId(job), ad, SimTime::ZERO)
                    };
                    if r.is_ok() && !held {
                        certs.insert(JobId(job), None);
                    }
                }
                ClassOp::Hold { job } => {
                    let _ = q.hold(JobId(job));
                }
                ClassOp::Release { job } => {
                    if q.release(JobId(job)).is_ok() {
                        certs.insert(JobId(job), None);
                    }
                }
                ClassOp::Requeue { job } => {
                    let _ = q.requeue(JobId(job));
                }
                ClassOp::Match { job } => {
                    let _ = q.set_matched(JobId(job), SlotId { node: 1, slot: 1 });
                }
                ClassOp::Remove { job } => {
                    let _ = q.set_removed(JobId(job));
                }
                ClassOp::QeditExpr { job, edit } => {
                    let (attr, expr) = EDITS[edit];
                    if q.qedit_expr(JobId(job), attr, expr).is_ok() && was_idle(&q, JobId(job)) {
                        certs.insert(JobId(job), None);
                    }
                }
                ClassOp::QeditValue { job, mem } => {
                    if q.qedit_value(JobId(job), attrs::REQUEST_PHI_MEMORY, mem).is_ok()
                        && was_idle(&q, JobId(job))
                    {
                        certs.insert(JobId(job), None);
                    }
                }
                ClassOp::NoteUnmatched { job, seq } => {
                    q.note_unmatched(JobId(job), seq);
                    if was_idle(&q, JobId(job)) {
                        certs.insert(JobId(job), Some(seq));
                    }
                }
            }
            let pending = q.pending();
            certs.retain(|id, _| pending.contains(id));
            prop_assert_eq!(certs.len(), pending.len());

            // Rebuild the classes from each idle job's key and requirement,
            // in FIFO order.
            let mut rebuilt: Vec<(Option<u64>, Vec<JobId>)> = Vec::new();
            for &id in &pending {
                let job = q.get(id).unwrap();
                let class = job.class_key().and_then(|key| {
                    rebuilt.iter().position(|(k, members)| {
                        *k == Some(key) && q.get(members[0]).unwrap().compiled() == job.compiled()
                    })
                });
                match class {
                    Some(c) => rebuilt[c].1.push(id),
                    None => rebuilt.push((job.class_key(), vec![id])),
                }
            }
            let rebuilt: Vec<Vec<JobId>> = rebuilt.into_iter().map(|(_, m)| m).collect();
            prop_assert_eq!(q.autoclusters(), rebuilt);

            for (&id, &cert) in &certs {
                prop_assert_eq!(q.eval_seq(id), cert, "certificate of {}", id);
            }
            let floor = if certs.values().any(Option::is_none) {
                None
            } else {
                Some(certs.values().flatten().min().copied().unwrap_or(u64::MAX))
            };
            prop_assert_eq!(q.idle_cert_floor(), floor);
        }
    }
}

/// `(attribute, expression)` qedits: four requirements, two of them
/// sharing a key with a fresh ad's, one residual, and a `Rank`.
const EDITS: [(&str, &str); 5] = [
    ("Requirements", "TARGET.PhiDevicesFree >= 1"),
    (
        "Requirements",
        "TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
    ),
    (
        "Requirements",
        "TARGET.PhiFreeMemory >= 1 || TARGET.PhiDevicesFree >= 2",
    ),
    ("Requirements", "true"),
    ("Rank", "TARGET.PhiFreeMemory"),
];

/// A job ad with one of [`EDITS`] applied, or none (`edit` out of range),
/// and a memory request that folds into the second requirement.
fn class_ad(edit: usize, mem: i64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::REQUEST_PHI_MEMORY, mem);
    if let Some((attr, expr)) = EDITS.get(edit) {
        ad.insert_expr(attr, expr).unwrap();
    }
    ad
}

#[derive(Debug, Clone)]
enum ClassOp {
    Submit {
        job: u64,
        held: bool,
        req: usize,
        mem: i64,
    },
    Hold {
        job: u64,
    },
    Release {
        job: u64,
    },
    Requeue {
        job: u64,
    },
    Match {
        job: u64,
    },
    Remove {
        job: u64,
    },
    QeditExpr {
        job: u64,
        edit: usize,
    },
    QeditValue {
        job: u64,
        mem: i64,
    },
    NoteUnmatched {
        job: u64,
        seq: u64,
    },
}

fn arb_class_op() -> impl Strategy<Value = ClassOp> {
    let j = 0u64..10;
    let mem = prop_oneof![Just(100i64), Just(3000)];
    prop_oneof![
        3 => (j.clone(), any::<bool>(), 0usize..=EDITS.len(), mem.clone())
            .prop_map(|(job, held, req, mem)| ClassOp::Submit { job, held, req, mem }),
        1 => j.clone().prop_map(|job| ClassOp::Hold { job }),
        1 => j.clone().prop_map(|job| ClassOp::Release { job }),
        1 => j.clone().prop_map(|job| ClassOp::Requeue { job }),
        1 => j.clone().prop_map(|job| ClassOp::Match { job }),
        1 => j.clone().prop_map(|job| ClassOp::Remove { job }),
        2 => (j.clone(), 0usize..EDITS.len()).prop_map(|(job, edit)| ClassOp::QeditExpr { job, edit }),
        1 => (j.clone(), mem).prop_map(|(job, mem)| ClassOp::QeditValue { job, mem }),
        3 => (j, 0u64..6).prop_map(|(job, seq)| ClassOp::NoteUnmatched { job, seq }),
    ]
}
