//! Property tests for the simulation engine: causal ordering under
//! arbitrary schedules, slot entries against a single-heap specification,
//! and statistics consistency.

use phishare_sim::{DetRng, EventQueue, Sim, SimDuration, SimTime, Summary, TimeWeighted};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// One operation on an [`EventQueue`] in the two-queue order property.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Push(u64),
    SetSlot(usize, u64),
    ClearSlot(usize),
    Pop,
    Reset,
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    // Few ticks and few slots, so same-tick ties and replacements of an
    // occupied slot are common.
    prop_oneof![
        3 => (0u64..12).prop_map(QueueOp::Push),
        4 => (0usize..12, 0u64..12).prop_map(|(slot, t)| QueueOp::SetSlot(slot, t)),
        2 => (0usize..12).prop_map(QueueOp::ClearSlot),
        3 => Just(QueueOp::Pop),
        1 => Just(QueueOp::Reset),
    ]
}

/// The specification of a slotted queue: one plain heap on `(time, seq)`
/// in which setting a slot marks the slot's previous entry dead and pushes
/// a new one, and dead entries are skipped as they surface.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_seq: u64,
    /// The seq of each slot's pending entry.
    slots: Vec<Option<u64>>,
    dead: BTreeSet<u64>,
}

impl ReferenceQueue {
    fn push(&mut self, time: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, payload)));
        seq
    }

    fn clear_slot(&mut self, slot: usize) {
        if let Some(seq) = self.slots.get_mut(slot).and_then(Option::take) {
            self.dead.insert(seq);
        }
    }

    fn set_slot(&mut self, slot: usize, time: u64, payload: u64) {
        self.clear_slot(slot);
        let seq = self.push(time, payload);
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, None);
        }
        self.slots[slot] = Some(seq);
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        while let Some(Reverse((time, seq, payload))) = self.heap.pop() {
            if self.dead.remove(&seq) {
                continue;
            }
            for s in self.slots.iter_mut().filter(|s| **s == Some(seq)) {
                *s = None;
            }
            return Some((time, payload));
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in nondecreasing time order, and equal-time events pop in
    /// insertion order, for any push sequence.
    #[test]
    fn queue_is_a_stable_priority_queue(ticks in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (seq, t) in ticks.iter().enumerate() {
            q.push(SimTime::from_ticks(*t), seq);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(seq > lseq, "same-tick events out of insertion order");
                }
            }
            last = Some((t, seq));
        }
    }

    /// Plain and slot entries pop in one `(time, seq)` order, the order a
    /// single heap gives when a slot's replaced or cleared entry is merely
    /// marked dead — same-tick ties between slot and plain entries
    /// included — across arbitrary push/set/clear/pop/reset streams.
    #[test]
    fn slotted_queue_pops_in_single_heap_order(
        ops in prop::collection::vec(arb_queue_op(), 1..120),
    ) {
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let tick = SimTime::from_ticks;
        for (payload, op) in ops.iter().enumerate() {
            let payload = payload as u64;
            match *op {
                QueueOp::Push(t) => {
                    q.push(tick(t), payload);
                    reference.push(t, payload);
                }
                QueueOp::SetSlot(slot, t) => {
                    q.set_slot(slot, tick(t), payload);
                    reference.set_slot(slot, t, payload);
                }
                QueueOp::ClearSlot(slot) => {
                    q.clear_slot(slot);
                    reference.clear_slot(slot);
                }
                QueueOp::Pop => {
                    let expected = reference.pop().map(|(t, p)| (tick(t), p));
                    prop_assert_eq!(q.pop(), expected);
                }
                QueueOp::Reset => {
                    q.reset();
                    reference = ReferenceQueue::default();
                }
            }
        }
        // Whatever is left drains in the same order too.
        loop {
            let expected = reference.pop().map(|(t, p)| (tick(t), p));
            prop_assert_eq!(q.pop(), expected);
            if expected.is_none() {
                break;
            }
        }
    }

    /// A simulation that reschedules itself with arbitrary positive delays
    /// always keeps a monotone clock and processes every event exactly once.
    #[test]
    fn clock_is_monotone_under_self_scheduling(delays in prop::collection::vec(1u64..100, 1..100)) {
        let mut sim: Sim<usize> = Sim::new();
        sim.schedule_at(SimTime::ZERO, 0);
        let mut fired = 0usize;
        let mut last = SimTime::ZERO;
        let mut monotone = true;
        while let Some(idx) = sim.step() {
            fired += 1;
            monotone &= sim.now() >= last;
            last = sim.now();
            if idx < delays.len() {
                sim.schedule_after(SimDuration::from_ticks(delays[idx]), idx + 1);
            }
        }
        prop_assert!(monotone, "clock went backwards");
        prop_assert_eq!(fired, delays.len() + 1);
        let expected: u64 = delays.iter().sum();
        prop_assert_eq!(sim.now().ticks(), expected);
    }

    /// The time-weighted integral of any piecewise-constant signal equals
    /// the step-sum computed independently.
    #[test]
    fn time_weighted_matches_manual_integration(
        steps in prop::collection::vec((1u64..50, 0.0f64..100.0), 1..40)
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO);
        let mut manual = 0.0;
        let mut now = SimTime::ZERO;
        let mut value = 0.0;
        for (dt, v) in &steps {
            let next = now + SimDuration::from_ticks(*dt);
            manual += value * SimDuration::from_ticks(*dt).as_secs_f64();
            tw.set(next, *v);
            value = *v;
            now = next;
        }
        let end = now + SimDuration::from_secs(1);
        manual += value * 1.0;
        prop_assert!((tw.integral(end) - manual).abs() < 1e-9);
        // Average is integral over span.
        let span = end.as_secs_f64();
        prop_assert!((tw.time_average(end) - manual / span).abs() < 1e-9);
    }

    /// Summary quantiles are order statistics: the q-quantile is ≥ exactly
    /// ⌈q·n⌉ of the samples.
    #[test]
    fn summary_quantiles_are_order_statistics(
        samples in prop::collection::vec(-100.0f64..100.0, 1..60),
        q in 0.01f64..1.0,
    ) {
        let mut s = Summary::new();
        for v in &samples {
            s.record(*v);
        }
        let quant = s.quantile(q);
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let below = samples.iter().filter(|v| **v <= quant).count();
        prop_assert!(below >= rank, "quantile({q}) = {quant} covers {below} < rank {rank}");
        prop_assert!(s.min() <= quant && quant <= s.max());
    }

    /// Substream derivation: every (seed, label, index) triple yields a
    /// reproducible stream, and distinct indices yield distinct streams.
    #[test]
    fn rng_substreams_are_stable_and_distinct(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let mut x1 = DetRng::substream_indexed(seed, "t", a);
        let mut x2 = DetRng::substream_indexed(seed, "t", a);
        let mut y = DetRng::substream_indexed(seed, "t", b);
        let (s1, s2, s3) = (x1.uniform_f64(), x2.uniform_f64(), y.uniform_f64());
        prop_assert_eq!(s1, s2);
        prop_assert_ne!(s1, s3);
    }
}
