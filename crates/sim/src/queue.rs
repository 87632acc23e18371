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

/// `(time, seq)` packed into one integer that orders the same way, so one
/// comparison orders two entries.
fn order(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.ticks()) << 64) | u128::from(seq)
}

/// The heap key of a slot's pending entry.
#[derive(Debug, Clone, Copy)]
struct SlotKey {
    order: u128,
    slot: u32,
}

impl SlotKey {
    fn time(&self) -> SimTime {
        SimTime::from_ticks((self.order >> 64) as u64)
    }
}

/// One slot: its pending event, and where its key sits in the slot heap.
#[derive(Debug)]
struct SlotState<E> {
    /// Index in `EventQueue::slot_heap`; meaningless while `event` is
    /// `None`.
    pos: u32,
    event: Option<E>,
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
/// ## Slots
///
/// Rate-rescaling simulations re-predict a completion whenever the rates
/// change, and only the newest prediction of each predictor counts. Such
/// an event goes in a *slot* ([`EventQueue::set_slot`]): a dense id that
/// holds at most one pending entry, kept in an indexed binary min-heap
/// beside the plain one. Setting an occupied slot replaces its entry in
/// place (`O(log slots)`) and [`EventQueue::clear_slot`] withdraws it, so
/// a caller that supersedes an event withdraws it on the spot and the
/// queue holds only live entries: every pop is an event to handle. A slot
/// entry takes its sequence number from the same counter as
/// [`EventQueue::push`], and every pop takes the earlier `(time, seq)`
/// head of the two heaps, so slot and plain events interleave exactly as
/// if both had been pushed.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Indexed binary min-heap of the occupied slots' keys.
    slot_heap: Vec<SlotKey>,
    /// Slot id → its pending event and heap position.
    slots: Vec<SlotState<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` plain events before
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slot_heap: Vec::new(),
            slots: Vec::new(),
            next_seq: 0,
        }
    }

    /// Grow the backing storage for at least `additional` more plain events.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Size the slot table for slot ids `0..slots`. Out of line:
    /// [`EventQueue::set_slot`] calls it only to grow the table.
    #[inline(never)]
    pub(crate) fn reserve_slots(&mut self, slots: usize) {
        if self.slots.len() < slots {
            self.slots.resize_with(slots, || SlotState {
                pos: 0,
                event: None,
            });
        }
        self.slot_heap
            .reserve(slots.saturating_sub(self.slot_heap.len()));
    }

    /// Plain events the queue can hold before reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Slot entries the queue can hold before reallocating.
    #[cfg(test)]
    pub(crate) fn slot_capacity(&self) -> usize {
        self.slot_heap.capacity().min(self.slots.capacity())
    }

    /// Take the next sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` to fire at `time`. Events for equal times fire in
    /// insertion order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.heap.push(Entry { time, seq, event });
    }

    /// Make `event` at `time` the one pending entry of `slot`, replacing
    /// the slot's previous entry if it has one. The entry is ordered as if
    /// it were [`EventQueue::push`]ed now.
    ///
    /// # Panics
    /// Panics if `slot` does not fit in `u32`.
    pub fn set_slot(&mut self, slot: usize, time: SimTime, event: E) {
        let id = u32::try_from(slot).expect("slot id fits in u32");
        if slot >= self.slots.len() {
            self.reserve_slots(slot + 1);
        }
        let key = SlotKey {
            order: order(time, self.next_seq()),
            slot: id,
        };
        let state = &mut self.slots[slot];
        if state.event.replace(event).is_none() {
            self.slot_heap.push(key);
            self.sift_up(self.slot_heap.len() - 1, key);
        } else {
            let i = state.pos as usize;
            // The new key's seq is the largest yet, so it moves up only if
            // its time is strictly earlier.
            if key.order < self.slot_heap[i].order {
                self.sift_up(i, key);
            } else {
                self.sift_down(i, key);
            }
        }
    }

    /// Drop `slot`'s pending entry, if it has one.
    pub fn clear_slot(&mut self, slot: usize) {
        if let Some(state) = self.slots.get_mut(slot) {
            if state.event.take().is_some() {
                let pos = state.pos as usize;
                self.remove_slot_key(pos);
            }
        }
    }

    /// Remove the slot heap's key at index `i` (its slot's event must
    /// already be taken).
    fn remove_slot_key(&mut self, i: usize) {
        let last = self.slot_heap.pop().expect("an occupied slot has a key");
        if i < self.slot_heap.len() {
            // The transplanted last key may belong above or below `i`.
            if i > 0 && last.order < self.slot_heap[(i - 1) / 2].order {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
    }

    /// Put `key` in the slot heap's hole at `i`, moving it toward the
    /// root past every parent it precedes.
    fn sift_up(&mut self, mut i: usize, key: SlotKey) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.slot_heap[parent];
            if key.order >= above.order {
                break;
            }
            self.fill(i, above);
            i = parent;
        }
        self.fill(i, key);
    }

    /// Put `key` in the slot heap's hole at `i`, moving it toward the
    /// leaves past every child that precedes it.
    fn sift_down(&mut self, mut i: usize, key: SlotKey) {
        let len = self.slot_heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.slot_heap[right].order < self.slot_heap[left].order {
                right
            } else {
                left
            };
            let below = self.slot_heap[child];
            if below.order >= key.order {
                break;
            }
            self.fill(i, below);
            i = child;
        }
        self.fill(i, key);
    }

    /// Write `key` at slot-heap index `i` and record the position.
    fn fill(&mut self, i: usize, key: SlotKey) {
        self.slot_heap[i] = key;
        self.slots[key.slot as usize].pos = i as u32;
    }

    /// Whether the slot heap holds the earliest pending entry.
    fn slot_head_first(&self) -> bool {
        match (self.slot_heap.first(), self.heap.peek()) {
            (Some(s), Some(p)) => s.order < order(p.time, p.seq),
            (slot, _) => slot.is_some(),
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.slot_head_first() {
            let root = self.slot_heap[0];
            let event = self.slots[root.slot as usize]
                .event
                .take()
                .expect("a keyed slot holds an event");
            self.remove_slot_key(0);
            Some((root.time(), event))
        } else {
            self.heap.pop().map(|e| (e.time, e.event))
        }
    }

    /// Reset the queue to its freshly-constructed state — empty, every
    /// slot vacant, sequence numbering restarted — while keeping the
    /// heaps' and the slot table's allocations. This is the cross-run
    /// recycling hook: a simulation built on a reset queue behaves
    /// bit-identically to one built on [`EventQueue::new`], but pays no
    /// growth reallocations.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slot_heap.clear();
        self.slots.clear();
        self.next_seq = 0;
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

    /// Drain `q` into its payloads in pop order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn slot_entries_interleave_with_plain_ones_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(t(2), "plain-2a");
        q.set_slot(3, t(2), "slot-2");
        q.push(t(2), "plain-2b");
        q.set_slot(0, t(1), "slot-1");
        q.push(t(3), "plain-3");
        assert_eq!(
            drain(&mut q),
            vec!["slot-1", "plain-2a", "slot-2", "plain-2b", "plain-3"]
        );
    }

    #[test]
    fn replacing_with_an_earlier_entry_moves_it_forward() {
        let mut q = EventQueue::new();
        q.set_slot(0, t(5), "old");
        q.set_slot(1, t(3), "other");
        q.push(t(2), "plain");
        q.set_slot(0, t(1), "new");
        assert_eq!(drain(&mut q), vec!["new", "plain", "other"]);
    }

    #[test]
    fn replacing_with_a_later_entry_moves_it_back() {
        let mut q = EventQueue::new();
        q.set_slot(0, t(1), "old");
        q.set_slot(1, t(3), "other");
        q.push(t(4), "plain");
        q.set_slot(0, t(4), "new");
        // Same tick as "plain" but set after it, so it pops after it.
        assert_eq!(drain(&mut q), vec!["other", "plain", "new"]);
    }

    #[test]
    fn clearing_a_vacant_slot_is_a_no_op() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.clear_slot(7);
        q.reserve_slots(4);
        q.clear_slot(2);
        q.set_slot(2, t(1), "a");
        q.clear_slot(2);
        q.clear_slot(2);
        assert_eq!(q.pop(), None);
        q.set_slot(2, t(2), "b");
        assert_eq!(drain(&mut q), vec!["b"]);
    }

    #[test]
    fn clearing_an_inner_slot_can_move_the_last_entry_up() {
        // Set in this order, each slot lands at heap index = slot id.
        let times = [1, 10, 2, 11, 12, 3, 4, 13, 14, 15, 16, 5];
        let mut q = EventQueue::new();
        for (slot, &secs) in times.iter().enumerate() {
            q.set_slot(slot, t(secs), secs);
        }
        // Slot 11 (t = 5) fills slot 3's place under slot 1 (t = 10), so
        // it must move up past it.
        q.clear_slot(3);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4, 5, 10, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn reset_vacates_slots_and_keeps_their_capacity() {
        let mut q = EventQueue::new();
        q.reserve_slots(16);
        let cap = q.slot_capacity();
        assert!(cap >= 16);
        for slot in 0..16 {
            q.set_slot(slot, t(slot as u64), slot);
        }
        q.push(t(0), 99);
        q.reset();
        assert_eq!(q.slot_capacity(), cap);
        assert_eq!(q.pop(), None);
        // Sequence numbering restarted: a fresh queue gives the same order.
        q.set_slot(5, t(1), 1);
        q.push(t(1), 2);
        assert_eq!(drain(&mut q), vec![1, 2]);
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
