//! The schedd's job queue.

use crate::collector::SlotId;
use phishare_classad::parser::ParseError;
use phishare_classad::{ClassAd, CompiledReq, Value};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use std::collections::{BTreeMap, BTreeSet};

/// Lifecycle of a queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted on hold: invisible to matchmaking until released. The
    /// external cluster schedulers submit jobs held and release them with
    /// their placement pin, making the scheduler the only placement
    /// authority (the paper's add-on owns all MCC/MCCK placements).
    Held,
    /// Waiting to be matched.
    Idle,
    /// Matched to a slot; the shadow/starter handshake is in flight.
    Matched(SlotId),
    /// Executing on a slot.
    Running(SlotId),
    /// Finished successfully.
    Completed,
    /// Removed (killed by middleware, OOM, or the user).
    Removed,
}

impl JobState {
    /// True for `Idle`.
    pub fn is_idle(self) -> bool {
        matches!(self, JobState::Idle)
    }

    /// True for terminal states.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Removed)
    }
}

/// One job as the schedd sees it.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The job's id.
    pub id: JobId,
    /// The job's ClassAd (resource requests + `Requirements`).
    pub ad: ClassAd,
    /// Current state.
    pub state: JobState,
    /// When the job was submitted.
    pub submitted: SimTime,
    /// `Requirements` compiled for the negotiator's fast path. Rebuilt on
    /// every qedit (expression *or* value — value edits change the MY-side
    /// constants folded into the compilation).
    compiled: CompiledReq,
    /// Queue position keying the per-state indexes. Assigned at submission
    /// and re-assigned fresh on every entry into `Idle`/`Held`: a released
    /// or requeued job goes to the back of the line, it does not retake its
    /// original submission slot.
    pos: usize,
    /// Delta-negotiation cache: the collector sequence number at which a
    /// negotiation cycle last evaluated this job against the *whole* pool
    /// and found no match ([`JobQueue::note_unmatched`]). `None` means the
    /// job has no such certificate and must be screened against every slot.
    /// Cleared whenever the certificate could be invalidated: any qedit
    /// (the job ad — and hence its compiled requirements — changed) and
    /// every entry into `Idle` (conservative; a fresh arrival in the pool
    /// has never been evaluated at all).
    eval_seq: Option<u64>,
}

impl QueuedJob {
    /// The job's compiled `Requirements`.
    pub fn compiled(&self) -> &CompiledReq {
        &self.compiled
    }

    /// The collector sequence at which this job was last certified
    /// unmatched, if that certificate is still standing (see the field
    /// docs — this is what the negotiator's delta path keys on).
    pub fn eval_seq(&self) -> Option<u64> {
        self.eval_seq
    }
}

/// The schedd queue: FIFO submit order with per-job state.
///
/// Negotiation cycles enumerate idle (and external schedulers held) jobs
/// every few simulated seconds; scanning the whole FIFO for them made the
/// scan O(all jobs ever submitted) per cycle. The queue therefore keeps
/// per-state indexes, ordered by queue position, that every state
/// transition maintains incrementally.
///
/// Position semantics: positions are allocated from a monotone counter.
/// First-time submissions take them in submission order, so an untouched
/// queue is plain FIFO; every later entry into `Idle` or `Held` (release,
/// hold, requeue) takes a *fresh tail position*. A job released after a
/// hold — or requeued after its startd died — waits behind jobs that were
/// already schedulable, matching HTCondor's behaviour where a vacated job
/// re-enters negotiation order at the back of its priority class.
#[derive(Debug, Default, Clone)]
pub struct JobQueue {
    jobs: BTreeMap<JobId, QueuedJob>,
    fifo: Vec<JobId>,
    /// Idle jobs as `(queue position, id)` — what matchmaking scans.
    idle: BTreeSet<(usize, JobId)>,
    /// Held jobs as `(queue position, id)` — what external schedulers plan
    /// over.
    held: BTreeSet<(usize, JobId)>,
    /// Standing unmatched certificates of *idle* jobs, as
    /// `(certified sequence, id)` — the quiescence check reads the minimum
    /// in O(log n). Maintained alongside `eval_seq` by every path that
    /// grants, renews or invalidates a certificate.
    certs: BTreeSet<(u64, JobId)>,
    /// Idle jobs with no standing certificate. Together with `certs` this
    /// partitions the idle pool: `idle.len() == idle_uncertified +
    /// certs.len()` always.
    idle_uncertified: usize,
    /// Next queue position to hand out (see the struct docs).
    next_pos: usize,
}

/// Errors from queue operations.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// The job id is already queued.
    Duplicate(JobId),
    /// The job id is not in the queue.
    Unknown(JobId),
    /// A qedit expression failed to parse.
    BadExpression(ParseError),
    /// An illegal state transition was attempted.
    BadTransition {
        /// Job involved.
        job: JobId,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Duplicate(j) => write!(f, "job {j} already queued"),
            QueueError::Unknown(j) => write!(f, "job {j} not in queue"),
            QueueError::BadExpression(e) => write!(f, "qedit failed: {e}"),
            QueueError::BadTransition { job, detail } => {
                write!(f, "illegal transition for {job}: {detail}")
            }
        }
    }
}

impl std::error::Error for QueueError {}

impl JobQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        JobQueue::default()
    }

    /// Submit a job. FIFO position is submission order.
    pub fn submit(&mut self, id: JobId, ad: ClassAd, now: SimTime) -> Result<(), QueueError> {
        self.submit_in_state(id, ad, now, JobState::Idle)
    }

    /// Submit a job on hold (`condor_submit -hold`): it keeps its FIFO
    /// position but matchmaking ignores it until [`JobQueue::release`].
    pub fn submit_held(&mut self, id: JobId, ad: ClassAd, now: SimTime) -> Result<(), QueueError> {
        self.submit_in_state(id, ad, now, JobState::Held)
    }

    fn submit_in_state(
        &mut self,
        id: JobId,
        ad: ClassAd,
        now: SimTime,
        state: JobState,
    ) -> Result<(), QueueError> {
        if self.jobs.contains_key(&id) {
            return Err(QueueError::Duplicate(id));
        }
        let compiled = CompiledReq::compile(&ad);
        let pos = self.next_pos;
        self.next_pos += 1;
        self.jobs.insert(
            id,
            QueuedJob {
                id,
                ad,
                state,
                submitted: now,
                compiled,
                pos,
                eval_seq: None,
            },
        );
        self.fifo.push(id);
        match state {
            JobState::Idle => {
                self.idle.insert((pos, id));
                self.idle_uncertified += 1;
            }
            JobState::Held => {
                self.held.insert((pos, id));
            }
            _ => {}
        }
        Ok(())
    }

    /// `condor_hold`: take an idle job out of matchmaking.
    pub fn hold(&mut self, id: JobId) -> Result<(), QueueError> {
        self.transition(id, |s| match s {
            JobState::Idle => Ok(JobState::Held),
            other => Err(format!("held from {other:?}")),
        })
    }

    /// `condor_release`: return a held job to the idle pool, at a fresh
    /// tail position (see the struct docs).
    pub fn release(&mut self, id: JobId) -> Result<(), QueueError> {
        self.transition(id, |s| match s {
            JobState::Held => Ok(JobState::Idle),
            other => Err(format!("released from {other:?}")),
        })
    }

    /// Vacate a matched or running job back to `Held` (fault recovery: the
    /// startd died or the card under the job reset). The claim is gone; the
    /// job re-enters the schedulable pool at a fresh tail position and
    /// waits for a [`JobQueue::release`].
    pub fn requeue(&mut self, id: JobId) -> Result<(), QueueError> {
        self.transition(id, |s| match s {
            JobState::Matched(_) | JobState::Running(_) => Ok(JobState::Held),
            other => Err(format!("requeued from {other:?}")),
        })
    }

    /// Held jobs in FIFO order — what an external scheduler plans over.
    /// O(held), not O(all jobs), via the incrementally maintained index.
    pub fn held(&self) -> Vec<JobId> {
        self.held.iter().map(|&(_, id)| id).collect()
    }

    /// `condor_qedit`: replace an expression attribute (e.g. `Requirements`)
    /// on a queued job. The paper's scheduler calls this in a batch for all
    /// pending jobs (§IV-D1).
    pub fn qedit_expr(&mut self, id: JobId, attr: &str, expr: &str) -> Result<(), QueueError> {
        let job = self.jobs.get_mut(&id).ok_or(QueueError::Unknown(id))?;
        job.ad
            .insert_expr(attr, expr)
            .map_err(QueueError::BadExpression)?;
        job.compiled = CompiledReq::compile(&job.ad);
        self.drop_certificate(id);
        Ok(())
    }

    /// `condor_qedit` for a plain value attribute.
    pub fn qedit_value(
        &mut self,
        id: JobId,
        attr: &str,
        value: impl Into<Value>,
    ) -> Result<(), QueueError> {
        let job = self.jobs.get_mut(&id).ok_or(QueueError::Unknown(id))?;
        job.ad.insert(attr, value);
        job.compiled = CompiledReq::compile(&job.ad);
        self.drop_certificate(id);
        Ok(())
    }

    /// Invalidate `id`'s unmatched certificate (after a qedit), keeping the
    /// certificate index in step when the job is idle.
    fn drop_certificate(&mut self, id: JobId) {
        let job = self.jobs.get_mut(&id).expect("caller looked the job up");
        if let Some(old) = job.eval_seq.take() {
            if job.state.is_idle() {
                self.certs.remove(&(old, id));
                self.idle_uncertified += 1;
            }
        }
    }

    /// Record that a negotiation cycle evaluated `id` against the whole
    /// pool at collector sequence `seq` and found no admitting slot. The
    /// delta path then only re-screens the job against slots dirtied after
    /// `seq`. No-op for unknown jobs.
    pub fn note_unmatched(&mut self, id: JobId, seq: u64) {
        if let Some(job) = self.jobs.get_mut(&id) {
            let old = job.eval_seq.replace(seq);
            if job.state.is_idle() {
                match old {
                    Some(s) => {
                        self.certs.remove(&(s, id));
                    }
                    None => self.idle_uncertified -= 1,
                }
                self.certs.insert((seq, id));
            }
        }
    }

    /// The oldest standing unmatched certificate across the idle pool, or
    /// `None` when any idle job lacks one (and must be screened against the
    /// whole pool). An empty idle pool reports `u64::MAX`: with nothing
    /// pending, no mutation can create a match. O(log n).
    ///
    /// This is the queue half of the quiescence predicate: when every idle
    /// job is certified unmatched at or after the collector's newest
    /// watermark, a negotiation cycle provably matches nothing.
    pub fn idle_cert_floor(&self) -> Option<u64> {
        debug_assert_eq!(self.idle.len(), self.idle_uncertified + self.certs.len());
        if self.idle_uncertified > 0 {
            return None;
        }
        Some(self.certs.first().map_or(u64::MAX, |&(s, _)| s))
    }

    /// Number of idle jobs — [`JobQueue::pending`] without the allocation.
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// Number of held jobs — [`JobQueue::held`] without the allocation.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Look up a job.
    pub fn get(&self, id: JobId) -> Option<&QueuedJob> {
        self.jobs.get(&id)
    }

    /// All job ids in FIFO submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.fifo.clone()
    }

    /// Idle jobs in FIFO order — what a negotiation cycle examines.
    /// O(idle), not O(all jobs), via the incrementally maintained index.
    pub fn pending(&self) -> Vec<JobId> {
        self.idle.iter().map(|&(_, id)| id).collect()
    }

    /// Number of jobs in each non-terminal state `(idle, matched, running)`.
    pub fn active_counts(&self) -> (usize, usize, usize) {
        let mut idle = 0;
        let mut matched = 0;
        let mut running = 0;
        for j in self.jobs.values() {
            match j.state {
                JobState::Held | JobState::Idle => idle += 1,
                JobState::Matched(_) => matched += 1,
                JobState::Running(_) => running += 1,
                _ => {}
            }
        }
        (idle, matched, running)
    }

    /// Mark a job matched to `slot` (negotiator).
    pub fn set_matched(&mut self, id: JobId, slot: SlotId) -> Result<(), QueueError> {
        self.transition(id, |s| match s {
            JobState::Idle => Ok(JobState::Matched(slot)),
            other => Err(format!("matched from {other:?}")),
        })
    }

    /// Mark a matched job running (starter spawned the user process).
    pub fn set_running(&mut self, id: JobId) -> Result<(), QueueError> {
        self.transition(id, |s| match s {
            JobState::Matched(slot) => Ok(JobState::Running(slot)),
            other => Err(format!("running from {other:?}")),
        })
    }

    /// Mark a running job completed.
    pub fn set_completed(&mut self, id: JobId) -> Result<(), QueueError> {
        self.transition(id, |s| match s {
            JobState::Running(_) => Ok(JobState::Completed),
            other => Err(format!("completed from {other:?}")),
        })
    }

    /// Remove a job (kill) from any non-terminal state.
    pub fn set_removed(&mut self, id: JobId) -> Result<(), QueueError> {
        self.transition(id, |s| {
            if s.is_terminal() {
                Err(format!("removed from terminal state {s:?}"))
            } else {
                Ok(JobState::Removed)
            }
        })
    }

    fn transition(
        &mut self,
        id: JobId,
        f: impl FnOnce(JobState) -> Result<JobState, String>,
    ) -> Result<(), QueueError> {
        let job = self.jobs.get(&id).ok_or(QueueError::Unknown(id))?;
        let (prev, old_pos) = (job.state, job.pos);
        match f(prev) {
            Ok(next) => {
                // Entering the schedulable pool always takes a fresh tail
                // position (see the struct docs).
                let pos = match next {
                    JobState::Idle | JobState::Held => {
                        let p = self.next_pos;
                        self.next_pos += 1;
                        p
                    }
                    _ => old_pos,
                };
                let job = self.jobs.get_mut(&id).expect("looked up above");
                let old_cert = job.eval_seq;
                job.state = next;
                job.pos = pos;
                // Re-entering the idle pool drops any unmatched
                // certificate: the job may have spent cycles invisible to
                // matchmaking, so its last full evaluation says nothing
                // about the pool it now faces.
                if next == JobState::Idle {
                    job.eval_seq = None;
                }
                match prev {
                    JobState::Idle => {
                        self.idle.remove(&(old_pos, id));
                        match old_cert {
                            Some(s) => {
                                self.certs.remove(&(s, id));
                            }
                            None => self.idle_uncertified -= 1,
                        }
                    }
                    JobState::Held => {
                        self.held.remove(&(old_pos, id));
                    }
                    _ => {}
                }
                match next {
                    JobState::Idle => {
                        self.idle.insert((pos, id));
                        self.idle_uncertified += 1;
                    }
                    JobState::Held => {
                        self.held.insert((pos, id));
                    }
                    _ => {}
                }
                Ok(())
            }
            Err(detail) => Err(QueueError::BadTransition { job: id, detail }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(n: u32, s: u32) -> SlotId {
        SlotId { node: n, slot: s }
    }

    fn queue_with(n: u64) -> JobQueue {
        let mut q = JobQueue::new();
        for i in 0..n {
            q.submit(JobId(i), ClassAd::new(), SimTime::ZERO).unwrap();
        }
        q
    }

    fn all_terminal(q: &JobQueue) -> bool {
        q.jobs.values().all(|j| j.state.is_terminal())
    }

    #[test]
    fn pending_is_fifo() {
        let q = queue_with(5);
        assert_eq!(q.pending(), (0..5).map(JobId).collect::<Vec<_>>());
    }

    #[test]
    fn state_indexes_track_every_transition() {
        let mut q = JobQueue::new();
        // Interleave held and idle submissions; FIFO order must hold
        // within each index regardless of id numbering.
        q.submit_held(JobId(7), ClassAd::new(), SimTime::ZERO)
            .unwrap();
        q.submit(JobId(3), ClassAd::new(), SimTime::ZERO).unwrap();
        q.submit_held(JobId(1), ClassAd::new(), SimTime::ZERO)
            .unwrap();
        assert_eq!(q.held(), vec![JobId(7), JobId(1)]);
        assert_eq!(q.pending(), vec![JobId(3)]);

        q.release(JobId(1)).unwrap();
        assert_eq!(q.held(), vec![JobId(7)]);
        // The released job takes a fresh tail position, behind the
        // already-idle JobId(3).
        assert_eq!(q.pending(), vec![JobId(3), JobId(1)]);

        q.hold(JobId(3)).unwrap();
        assert_eq!(q.held(), vec![JobId(7), JobId(3)]);
        assert_eq!(q.pending(), vec![JobId(1)]);

        q.set_matched(JobId(1), slot(1, 1)).unwrap();
        assert!(q.pending().is_empty());
        q.set_running(JobId(1)).unwrap();
        q.set_completed(JobId(1)).unwrap();
        q.release(JobId(3)).unwrap();
        q.set_removed(JobId(3)).unwrap();
        assert!(q.pending().is_empty());
        assert_eq!(q.held(), vec![JobId(7)]);
        q.set_removed(JobId(7)).unwrap();
        assert!(q.held().is_empty());
        assert!(all_terminal(&q));
    }

    #[test]
    fn duplicate_submit_rejected() {
        let mut q = queue_with(1);
        assert_eq!(
            q.submit(JobId(0), ClassAd::new(), SimTime::ZERO),
            Err(QueueError::Duplicate(JobId(0)))
        );
    }

    #[test]
    fn lifecycle_transitions() {
        let mut q = queue_with(1);
        q.set_matched(JobId(0), slot(1, 2)).unwrap();
        assert!(q.pending().is_empty());
        q.set_running(JobId(0)).unwrap();
        q.set_completed(JobId(0)).unwrap();
        assert!(all_terminal(&q));
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut q = queue_with(1);
        assert!(q.set_running(JobId(0)).is_err()); // idle → running skips match
        assert!(q.set_completed(JobId(0)).is_err());
        q.set_matched(JobId(0), slot(1, 1)).unwrap();
        assert!(q.set_matched(JobId(0), slot(1, 1)).is_err());
        q.set_running(JobId(0)).unwrap();
        q.set_completed(JobId(0)).unwrap();
        assert!(q.set_removed(JobId(0)).is_err()); // terminal
    }

    #[test]
    fn removal_from_running() {
        let mut q = queue_with(1);
        q.set_matched(JobId(0), slot(1, 1)).unwrap();
        q.set_running(JobId(0)).unwrap();
        q.set_removed(JobId(0)).unwrap();
        assert!(all_terminal(&q));
    }

    #[test]
    fn qedit_rewrites_requirements() {
        let mut q = queue_with(1);
        q.qedit_expr(JobId(0), "Requirements", "TARGET.Name == \"slot1@node1\"")
            .unwrap();
        assert!(q
            .get(JobId(0))
            .unwrap()
            .ad
            .get_expr("Requirements")
            .unwrap()
            .contains("slot1@node1"));
        assert!(q.qedit_expr(JobId(0), "Requirements", "1 +").is_err());
        assert!(q.qedit_expr(JobId(9), "Requirements", "true").is_err());
    }

    #[test]
    fn qedit_recompiles_requirements_cache() {
        let mut q = queue_with(1);
        assert!(q.get(JobId(0)).unwrap().compiled().fully_compiled());
        q.qedit_expr(JobId(0), "Requirements", "TARGET.Name == \"slot1@node1\"")
            .unwrap();
        assert_eq!(
            q.get(JobId(0)).unwrap().compiled().pin("Name"),
            Some("slot1@node1")
        );
        // Value edits also recompile: MY-side constants fold into guards.
        q.qedit_expr(
            JobId(0),
            "Requirements",
            "TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
        )
        .unwrap();
        q.qedit_value(JobId(0), "RequestPhiMemory", 2048u64)
            .unwrap();
        assert_eq!(
            q.get(JobId(0))
                .unwrap()
                .compiled()
                .lower_bound("PhiFreeMemory"),
            Some(2048.0)
        );
        // Failed qedits leave the previous compilation in place.
        assert!(q.qedit_expr(JobId(0), "Requirements", "1 +").is_err());
        assert_eq!(
            q.get(JobId(0))
                .unwrap()
                .compiled()
                .lower_bound("PhiFreeMemory"),
            Some(2048.0)
        );
    }

    #[test]
    fn held_jobs_are_invisible_until_released() {
        let mut q = JobQueue::new();
        q.submit_held(JobId(0), ClassAd::new(), SimTime::ZERO)
            .unwrap();
        q.submit(JobId(1), ClassAd::new(), SimTime::ZERO).unwrap();
        assert_eq!(q.pending(), vec![JobId(1)]);
        assert_eq!(q.held(), vec![JobId(0)]);
        q.release(JobId(0)).unwrap();
        // Release re-enters at a fresh tail position: JobId(0) now waits
        // behind JobId(1), which has been idle the whole time.
        assert_eq!(q.pending(), vec![JobId(1), JobId(0)]);
        assert!(q.held().is_empty());
    }

    #[test]
    fn release_lands_at_the_tail() {
        let mut q = queue_with(3);
        q.hold(JobId(0)).unwrap();
        assert_eq!(q.pending(), vec![JobId(1), JobId(2)]);
        q.release(JobId(0)).unwrap();
        // Hold + release loses the original front-of-queue slot.
        assert_eq!(q.pending(), vec![JobId(1), JobId(2), JobId(0)]);
    }

    #[test]
    fn requeue_vacates_to_held_at_the_tail() {
        let mut q = queue_with(3);
        q.hold(JobId(2)).unwrap();
        q.set_matched(JobId(0), slot(1, 1)).unwrap();
        q.set_running(JobId(0)).unwrap();
        q.set_matched(JobId(1), slot(1, 2)).unwrap();
        // A running and a matched job both vacate; both land behind the
        // held JobId(2).
        q.requeue(JobId(0)).unwrap();
        q.requeue(JobId(1)).unwrap();
        assert_eq!(q.held(), vec![JobId(2), JobId(0), JobId(1)]);
        assert!(q.pending().is_empty());
        // Only matched/running jobs can be requeued.
        assert!(q.requeue(JobId(2)).is_err());
        q.release(JobId(0)).unwrap();
        assert_eq!(q.pending(), vec![JobId(0)]);
        assert_eq!(q.get(JobId(0)).unwrap().state, JobState::Idle);
    }

    #[test]
    fn hold_and_release_transitions() {
        let mut q = queue_with(1);
        q.hold(JobId(0)).unwrap();
        assert!(q.pending().is_empty());
        assert!(q.hold(JobId(0)).is_err()); // already held
        q.release(JobId(0)).unwrap();
        assert!(q.release(JobId(0)).is_err()); // already idle
                                               // Held jobs can be removed (condor_rm works on held jobs).
        q.hold(JobId(0)).unwrap();
        q.set_removed(JobId(0)).unwrap();
        assert!(all_terminal(&q));
    }

    #[test]
    fn held_jobs_cannot_be_matched() {
        let mut q = queue_with(1);
        q.hold(JobId(0)).unwrap();
        assert!(q.set_matched(JobId(0), slot(1, 1)).is_err());
    }

    #[test]
    fn unmatched_certificates_follow_the_delta_invalidation_rules() {
        let mut q = queue_with(2);
        assert_eq!(q.get(JobId(0)).unwrap().eval_seq(), None);
        q.note_unmatched(JobId(0), 17);
        q.note_unmatched(JobId(1), 17);
        assert_eq!(q.get(JobId(0)).unwrap().eval_seq(), Some(17));
        // Unknown jobs are ignored.
        q.note_unmatched(JobId(9), 17);

        // Any qedit — expression or value — drops the certificate.
        q.qedit_expr(JobId(0), "Requirements", "TARGET.PhiDevices >= 1")
            .unwrap();
        assert_eq!(q.get(JobId(0)).unwrap().eval_seq(), None);
        q.note_unmatched(JobId(0), 18);
        q.qedit_value(JobId(0), "RequestPhiMemory", 512u64).unwrap();
        assert_eq!(q.get(JobId(0)).unwrap().eval_seq(), None);

        // Every entry into Idle drops it too (hold + release round trip)...
        q.hold(JobId(1)).unwrap();
        q.release(JobId(1)).unwrap();
        assert_eq!(q.get(JobId(1)).unwrap().eval_seq(), None);
        // ...while a job that simply stays idle keeps its certificate.
        q.note_unmatched(JobId(1), 19);
        q.hold(JobId(0)).unwrap();
        assert_eq!(q.get(JobId(1)).unwrap().eval_seq(), Some(19));
    }

    #[test]
    fn idle_cert_floor_tracks_the_oldest_certificate() {
        let mut q = JobQueue::new();
        // Empty idle pool: trivially quiescent.
        assert_eq!(q.idle_cert_floor(), Some(u64::MAX));
        q.submit(JobId(0), ClassAd::new(), SimTime::ZERO).unwrap();
        q.submit(JobId(1), ClassAd::new(), SimTime::ZERO).unwrap();
        assert_eq!(q.idle_count(), 2);
        // Fresh arrivals are uncertified: no floor.
        assert_eq!(q.idle_cert_floor(), None);
        q.note_unmatched(JobId(0), 10);
        assert_eq!(q.idle_cert_floor(), None); // JobId(1) still uncertified
        q.note_unmatched(JobId(1), 12);
        assert_eq!(q.idle_cert_floor(), Some(10));
        // Renewal moves the floor.
        q.note_unmatched(JobId(0), 15);
        assert_eq!(q.idle_cert_floor(), Some(12));

        // Qedits invalidate the certificate and the floor with it.
        q.qedit_value(JobId(1), "RequestPhiMemory", 512u64).unwrap();
        assert_eq!(q.idle_cert_floor(), None);
        q.note_unmatched(JobId(1), 16);
        assert_eq!(q.idle_cert_floor(), Some(15));

        // Leaving the idle pool removes the job from the floor entirely;
        // re-entering makes it uncertified again.
        q.hold(JobId(0)).unwrap();
        assert_eq!(q.idle_cert_floor(), Some(16));
        q.release(JobId(0)).unwrap();
        assert_eq!(q.idle_cert_floor(), None);
        q.note_unmatched(JobId(0), 20);
        assert_eq!(q.idle_cert_floor(), Some(16));

        // Matching consumes the idle entry; held jobs don't count.
        q.set_matched(JobId(1), slot(1, 1)).unwrap();
        assert_eq!(q.idle_cert_floor(), Some(20));
        q.set_matched(JobId(0), slot(1, 2)).unwrap();
        assert_eq!(q.idle_cert_floor(), Some(u64::MAX));
        assert_eq!(q.held_count(), 0);
    }

    #[test]
    fn counts_track_states() {
        let mut q = queue_with(3);
        q.set_matched(JobId(0), slot(1, 1)).unwrap();
        q.set_matched(JobId(1), slot(1, 2)).unwrap();
        q.set_running(JobId(1)).unwrap();
        assert_eq!(q.active_counts(), (1, 1, 1));
        assert!(!all_terminal(&q));
    }
}
