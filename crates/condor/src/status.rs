//! `condor_q`-style reporting over the queue — the operator's view of
//! the cluster.

use crate::queue::{JobQueue, JobState};
use std::fmt;

/// Snapshot of queue occupancy by state (what `condor_q -totals` prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueTotals {
    /// Jobs submitted on hold / held.
    pub held: usize,
    /// Idle jobs awaiting matchmaking.
    pub idle: usize,
    /// Matched jobs in the shadow/starter handshake.
    pub matched: usize,
    /// Running jobs.
    pub running: usize,
    /// Completed jobs.
    pub completed: usize,
    /// Removed jobs.
    pub removed: usize,
}

impl QueueTotals {
    /// Compute totals over a queue.
    pub fn of(queue: &JobQueue) -> Self {
        let mut t = QueueTotals::default();
        for id in queue.job_ids() {
            match queue.get(id).expect("listed job exists").state {
                JobState::Held => t.held += 1,
                JobState::Idle => t.idle += 1,
                JobState::Matched(_) => t.matched += 1,
                JobState::Running(_) => t.running += 1,
                JobState::Completed => t.completed += 1,
                JobState::Removed => t.removed += 1,
            }
        }
        t
    }

    /// Total jobs ever submitted.
    pub fn total(&self) -> usize {
        self.held + self.idle + self.matched + self.running + self.completed + self.removed
    }
}

impl fmt::Display for QueueTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs; {} held, {} idle, {} matched, {} running, {} completed, {} removed",
            self.total(),
            self.held,
            self.idle,
            self.matched,
            self.running,
            self.completed,
            self.removed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::SlotId;
    use phishare_classad::ClassAd;
    use phishare_sim::SimTime;
    use phishare_workload::JobId;

    #[test]
    fn queue_totals_track_every_state() {
        let mut q = JobQueue::new();
        for i in 0..6u64 {
            q.submit(JobId(i), ClassAd::new(), SimTime::ZERO).unwrap();
        }
        q.hold(JobId(0)).unwrap();
        q.set_matched(JobId(1), SlotId { node: 1, slot: 1 })
            .unwrap();
        q.set_matched(JobId(2), SlotId { node: 1, slot: 2 })
            .unwrap();
        q.set_running(JobId(2)).unwrap();
        q.set_matched(JobId(3), SlotId { node: 1, slot: 3 })
            .unwrap();
        q.set_running(JobId(3)).unwrap();
        q.set_completed(JobId(3)).unwrap();
        q.set_removed(JobId(4)).unwrap();
        let t = QueueTotals::of(&q);
        assert_eq!(
            t,
            QueueTotals {
                held: 1,
                idle: 1,
                matched: 1,
                running: 1,
                completed: 1,
                removed: 1,
            }
        );
        assert_eq!(t.total(), 6);
        assert!(t.to_string().contains("6 jobs"));
    }
}
