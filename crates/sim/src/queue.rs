//! Stable-priority event queue.
//!
//! Events are ordered by `(time, insertion sequence)`. The sequence number
//! breaks ties between events scheduled for the same tick in
//! first-scheduled-first-fired order, which makes every simulation run fully
//! deterministic for a given seed — a prerequisite for reproducing the
//! paper's tables exactly.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: the scheduled time, a tie-breaking sequence number
/// and the event payload.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// ```
/// use phishare_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "b");
/// q.push(SimTime::from_secs(1), "a");
/// q.push(SimTime::from_secs(2), "c"); // same tick as "b", inserted later
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "c")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// ## Stale entries
///
/// Rate-rescaling simulations cancel predictions by *abandoning* them: a
/// reschedule leaves the old completion event in the heap and relies on a
/// generation check to drop it when it surfaces. `EventQueue::pop_live`
/// supports that pattern directly — it drains abandoned entries lazily at
/// pop time (each costs one `O(log n)` pop, never a re-heapify) and counts
/// them in `EventQueue::stale_drained`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    stale_drained: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            stale_drained: 0,
        }
    }

    /// Create an empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            stale_drained: 0,
        }
    }

    /// Grow the backing storage for at least `additional` more events.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Events the queue can hold before reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedule `event` to fire at `time`. Events for equal times fire in
    /// insertion order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Remove and return the earliest event for which `is_live` holds,
    /// draining any stale entries encountered on the way without handing
    /// them to the caller. Drained entries are tallied in
    /// [`EventQueue::stale_drained`].
    pub(crate) fn pop_live(&mut self, mut is_live: impl FnMut(&E) -> bool) -> Option<(SimTime, E)> {
        while let Some(e) = self.heap.pop() {
            if is_live(&e.event) {
                return Some((e.time, e.event));
            }
            self.stale_drained += 1;
        }
        None
    }

    /// Total stale entries lazily drained by [`EventQueue::pop_live`].
    #[cfg(test)]
    pub(crate) fn stale_drained(&self) -> u64 {
        self.stale_drained
    }

    /// The time of the earliest pending event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Reset the queue to its freshly-constructed state — empty, sequence
    /// numbering restarted, stale counter zeroed — while keeping the heap's
    /// allocation. This is the cross-run recycling hook: a simulation built
    /// on a reset queue behaves bit-identically to one built on
    /// [`EventQueue::new`], but pays no growth reallocations.
    pub(crate) fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.stale_drained = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), 30);
        q.push(t(1), 10);
        q.push(t(2), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(5), "late");
        q.push(t(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(t(3), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(2), ());
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), ())));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_live_drains_stale_entries_lazily() {
        let mut q = EventQueue::new();
        q.push(t(1), -1);
        q.push(t(2), 20);
        q.push(t(3), -3);
        q.push(t(4), 40);
        // Negative payloads are stale; they are only discarded as they
        // surface, and never reach the caller.
        assert_eq!(q.pop_live(|e| *e >= 0), Some((t(2), 20)));
        assert_eq!(q.stale_drained(), 1);
        assert_eq!(q.pop_live(|e| *e >= 0), Some((t(4), 40)));
        assert_eq!(q.stale_drained(), 2);
        assert_eq!(q.pop_live(|e| *e >= 0), None);
        assert_eq!(q.stale_drained(), 2);
    }

    #[test]
    fn reserve_and_reset_keep_capacity() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..64 {
            q.push(t(i), i);
        }
        q.reset();
        // Resetting keeps the allocation: the next run on a recycled queue
        // costs no reallocation while it fills back up.
        assert_eq!(q.capacity(), cap);
        q.reserve(128);
        assert!(q.capacity() >= 128);
    }

    #[test]
    fn sub_tick_ordering_matches_schedule_order() {
        let mut q = EventQueue::new();
        let base = t(1);
        q.push(base + SimDuration::from_ticks(1), "b");
        q.push(base, "a");
        q.push(base + SimDuration::from_ticks(1), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }
}
