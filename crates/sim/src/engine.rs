//! The simulation driver.
//!
//! [`Sim`] owns the clock and the event queue. A simulation is advanced by
//! repeatedly popping the earliest event and handing it, together with a
//! mutable reference to the `Sim` itself, to a caller-supplied handler that
//! may schedule further events. The world state lives in the caller (see
//! `phishare-cluster`); keeping it out of the engine avoids a tangle of
//! generic event traits across crates and keeps every model crate a pure,
//! unit-testable state machine.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Outcome of driving a simulation with `Sim::run_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway-simulation guard).
    EventBudgetExhausted,
}

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
/// sim.run(|sim, Ev::Ping(n)| {
///     fired.push((sim.now(), n));
///     if n < 2 {
///         sim.schedule_after(SimDuration::from_secs(1), Ev::Ping(n + 1));
///     }
/// });
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
    /// events. Workload-scale drivers know a good bound up front (events
    /// are dominated by jobs × lifecycle stages), so pre-sizing avoids the
    /// heap's growth reallocations on large experiments.
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
    /// numbering, keeping the heap allocation) and the clock starts at
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

    /// Grow the event queue for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
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

    /// Schedule `event` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty. Most callers should prefer
    /// [`Sim::run`] / `Sim::run_until`.
    pub fn step(&mut self) -> Option<E> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue produced a past event");
        self.now = time;
        self.events_processed += 1;
        Some(event)
    }

    /// Pop the earliest event for which `is_live` holds, lazily draining
    /// stale (abandoned-prediction) entries without dispatching them.
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

    /// Drive the simulation until the queue drains, passing each event to
    /// `handler`.
    pub fn run<F>(&mut self, mut handler: F) -> RunOutcome
    where
        F: FnMut(&mut Self, E),
    {
        self.run_until(SimTime::MAX, &mut handler)
    }

    /// Drive the simulation until the queue drains or the clock would pass
    /// `horizon` (events at exactly `horizon` still fire).
    pub(crate) fn run_until<F>(&mut self, horizon: SimTime, handler: &mut F) -> RunOutcome
    where
        F: FnMut(&mut Self, E),
    {
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::QueueEmpty,
                Some(t) if t > horizon => return RunOutcome::HorizonReached,
                Some(_) => {}
            }
            if self.events_processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            let event = self.step().expect("peeked event vanished");
            handler(self, event);
        }
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
        sim.run(|sim, ev| seen.push((sim.now(), ev)));
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
        sim.run(|sim, Ev::Tick(n)| {
            count += 1;
            if n < 9 {
                sim.schedule_after(SimDuration::from_secs(1), Ev::Tick(n + 1));
            }
        });
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Sim::new();
        for s in 1..=10 {
            sim.schedule_at(SimTime::from_secs(s), Ev::Tick(s as u32));
        }
        let mut count = 0;
        let outcome = sim.run_until(SimTime::from_secs(4), &mut |_, _| count += 1);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(count, 4); // events at exactly the horizon still fire
        assert_eq!(sim.now(), SimTime::from_secs(4));
        // The six later events are still queued.
        assert_eq!(sim.run(|_, _| count += 1), RunOutcome::QueueEmpty);
        assert_eq!(count, 10);
    }

    #[test]
    fn event_budget_guards_runaway() {
        let mut sim = Sim::new().with_event_budget(100);
        sim.schedule_after(SimDuration::from_ticks(1), Ev::Tick(0));
        let outcome = sim.run(|sim, Ev::Tick(n)| {
            // An event storm that never terminates on its own.
            sim.schedule_after(SimDuration::from_ticks(1), Ev::Tick(n));
        });
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
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
    fn empty_queue_returns_queue_empty() {
        let mut sim: Sim<Ev> = Sim::new();
        assert_eq!(sim.run(|_, _| ()), RunOutcome::QueueEmpty);
        assert_eq!(sim.step(), None);
    }
}
