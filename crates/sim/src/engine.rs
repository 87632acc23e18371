//! The simulation driver.
//!
//! [`Sim`] owns the clock and the event queue. A simulation is advanced by
//! repeatedly popping the earliest event ([`Sim::step`], or
//! [`Sim::step_live`] to drain stale entries) and handling it in the
//! caller's loop, which may schedule further events. The world state lives in the caller (see
//! `phishare-cluster`); keeping it out of the engine avoids a tangle of
//! generic event traits across crates and keeps every model crate a pure,
//! unit-testable state machine.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event simulator.
///
/// ```
/// use phishare_sim::{Sim, SimDuration};
///
/// #[derive(Debug)]
/// enum Ev { Ping(u32) }
///
/// let mut sim = Sim::new();
/// sim.schedule_after(SimDuration::from_secs(1), Ev::Ping(0));
/// let mut fired = Vec::new();
/// while let Some(Ev::Ping(n)) = sim.step() {
///     fired.push((sim.now(), n));
///     if n < 2 {
///         sim.schedule_after(SimDuration::from_secs(1), Ev::Ping(n + 1));
///     }
/// }
/// assert_eq!(fired.len(), 3);
/// assert_eq!(fired[2].0.as_secs_f64(), 3.0);
/// ```
#[derive(Debug)]
pub struct Sim<E> {
    now: SimTime,
    queue: EventQueue<E>,
    events_processed: u64,
    /// Hard cap on processed events; guards against accidental event storms.
    event_budget: u64,
}

/// Default event budget: generous enough for the paper's largest experiment
/// (1600 jobs × tens of segments × repacking) with two orders of magnitude of
/// headroom.
const DEFAULT_EVENT_BUDGET: u64 = 500_000_000;

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Sim<E> {
    /// Create a simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            events_processed: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Create a simulator whose event queue is pre-sized for `cap` pending
    /// plain events. Workload-scale drivers know a good bound up front
    /// (the events they schedule ahead, such as arrivals), so pre-sizing
    /// avoids the heap's growth reallocations on large experiments.
    pub fn with_capacity(cap: usize) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(cap),
            events_processed: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Create a simulator on a recycled event queue: the queue is
    /// `EventQueue::reset` (dropping any leftovers, restarting sequence
    /// numbering, keeping the queue's allocations) and the clock starts at
    /// [`SimTime::ZERO`]. Behaviour is bit-identical to [`Sim::new`]; only
    /// the allocation is reused. The queue can be reclaimed afterwards with
    /// [`Sim::into_queue`].
    pub fn from_recycled(mut queue: EventQueue<E>) -> Self {
        queue.reset();
        Sim {
            now: SimTime::ZERO,
            queue,
            events_processed: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Tear the simulator down to its event queue so the heap allocation
    /// can be recycled into the next run via [`Sim::from_recycled`].
    pub fn into_queue(self) -> EventQueue<E> {
        self.queue
    }

    /// Grow the event queue for at least `additional` more pending plain
    /// events.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Size the event queue's slot table for slot ids `0..slots` (see
    /// [`Sim::schedule_slot`]).
    pub fn reserve_slots(&mut self, slots: usize) {
        self.queue.reserve_slots(slots);
    }

    /// Replace the runaway-guard event budget.
    #[cfg(test)]
    pub(crate) fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past; scheduling into the past is always a
    /// model bug and silently reordering it would corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "schedule_at: attempted to schedule at {at} but the clock is already at {}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Make `event` at the absolute instant `at` the one pending event of
    /// `slot`, replacing the slot's previous event if it has one (see
    /// [`EventQueue`]'s slots). It fires in the order a
    /// [`Sim::schedule_at`] made now would give it.
    ///
    /// # Panics
    /// Panics if `at` is in the past, as [`Sim::schedule_at`] does.
    pub fn schedule_slot(&mut self, slot: usize, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "schedule_slot: attempted to schedule at {at} but the clock is already at {}",
            self.now
        );
        self.queue.set_slot(slot, at, event);
    }

    /// Withdraw `slot`'s pending event, if it has one.
    pub fn clear_slot(&mut self, slot: usize) {
        self.queue.clear_slot(slot);
    }

    /// Schedule `event` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn step(&mut self) -> Option<E> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue produced a past event");
        self.now = time;
        self.events_processed += 1;
        Some(event)
    }

    /// Pop the earliest event for which `is_live` holds, lazily draining
    /// stale entries without dispatching them.
    ///
    /// Drained entries advance neither the clock nor the processed-event
    /// count — only the returned live event does. This is the fast-path
    /// driver for next-completion scheduling: the caller's staleness
    /// predicate replaces per-event generation checks in the handler.
    pub fn step_live(&mut self, is_live: impl FnMut(&E) -> bool) -> Option<E> {
        let (time, event) = self.queue.pop_live(is_live)?;
        debug_assert!(time >= self.now, "event queue produced a past event");
        self.now = time;
        self.events_processed += 1;
        Some(event)
    }

    /// Stale entries lazily discarded by [`Sim::step_live`].
    #[cfg(test)]
    pub(crate) fn stale_drained(&self) -> u64 {
        self.queue.stale_drained()
    }

    /// True once the runaway-guard event budget has been consumed.
    pub fn budget_exhausted(&self) -> bool {
        self.events_processed >= self.event_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(5));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        let mut seen = Vec::new();
        while let Some(ev) = sim.step() {
            seen.push((sim.now(), ev));
        }
        assert_eq!(
            seen,
            vec![
                (SimTime::from_secs(2), Ev::Tick(2)),
                (SimTime::from_secs(5), Ev::Tick(5)),
            ]
        );
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut sim = Sim::new();
        sim.schedule_after(SimDuration::from_secs(1), Ev::Tick(0));
        let mut count = 0;
        while let Some(Ev::Tick(n)) = sim.step() {
            count += 1;
            if n < 9 {
                sim.schedule_after(SimDuration::from_secs(1), Ev::Tick(n + 1));
            }
        }
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn event_budget_guards_runaway() {
        let mut sim = Sim::new().with_event_budget(100);
        sim.schedule_after(SimDuration::from_ticks(1), Ev::Tick(0));
        // An event storm that never terminates on its own.
        while !sim.budget_exhausted() {
            let Some(Ev::Tick(n)) = sim.step() else { break };
            sim.schedule_after(SimDuration::from_ticks(1), Ev::Tick(n));
        }
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    #[should_panic(expected = "schedule_at")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule_at(SimTime::from_secs(3), Ev::Tick(3));
        sim.step();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
    }

    #[test]
    #[should_panic(expected = "schedule_slot")]
    fn scheduling_a_slot_in_the_past_panics() {
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule_at(SimTime::from_secs(3), Ev::Tick(3));
        sim.step();
        sim.schedule_slot(0, SimTime::from_secs(1), Ev::Tick(1));
    }

    #[test]
    fn step_drives_slot_events_with_plain_ones() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        sim.schedule_slot(0, SimTime::from_secs(9), Ev::Tick(9));
        sim.schedule_slot(0, SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_slot(1, SimTime::from_secs(4), Ev::Tick(4));
        sim.clear_slot(1);
        let mut seen = Vec::new();
        while let Some(ev) = sim.step() {
            seen.push(ev);
        }
        assert_eq!(seen, vec![Ev::Tick(1), Ev::Tick(2)]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn step_live_skips_stale_without_processing_them() {
        let mut sim = Sim::with_capacity(8);
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(0)); // stale
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(7));
        sim.schedule_at(SimTime::from_secs(3), Ev::Tick(0)); // stale
        let live = sim.step_live(|Ev::Tick(n)| *n != 0);
        assert_eq!(live, Some(Ev::Tick(7)));
        // The clock lands on the live event; the drained entry counted
        // separately and not as a processed event.
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.stale_drained(), 1);
        assert_eq!(sim.step_live(|Ev::Tick(n)| *n != 0), None);
        assert_eq!(sim.stale_drained(), 2);
        assert!(!sim.budget_exhausted());
    }

    #[test]
    fn empty_queue_steps_to_none() {
        let mut sim: Sim<Ev> = Sim::new();
        assert_eq!(sim.step(), None);
    }
}
