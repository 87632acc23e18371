//! The sharing engines: virtual-time activity sets with heap-scheduled
//! (fast) and recompute-all (oracle) completion tracking.
//!
//! Both engines share one representation — a global virtual clock `v`, a
//! common `rate`, and a fixed virtual finish mark `fin = v_join + work`
//! per activity — and one tick formula ([`ticks_until`]). They differ
//! *only* in bookkeeping:
//!
//! * [`HeapEngine`] keeps activities in a binary min-heap ordered by
//!   `(fin, id)`. `join` issues a [`HeapHandle`] from a free list; a dense
//!   handle → heap-position table, bounded by the peak live population
//!   rather than by id values, makes `leave` and per-activity lookups
//!   O(1) to locate. Sifts move a hole and write each moved entry's
//!   position once. `advance` is O(1) (the time warp), `join`/`leave` are
//!   O(log n), `next_completion` reads the root and resolves same-tick
//!   ties with a pruned DFS over the (downward-closed) tie region.
//! * [`NaiveEngine`] is keyed by the activity id itself and
//!   rematerializes every activity's predicted completion tick on **every
//!   mutation** — join, leave, rate change and advance all pay O(n),
//!   exactly the recompute-all-residents cost the fast algorithm removes.
//!   Do not optimize it: its cost model *is* the `perf_throughput` gate's
//!   floor.
//!
//! The identical-expression discipline makes the two engines
//! bit-identical, which the crate's differential proptests assert over
//! randomized churn.

use std::collections::BTreeMap;

/// Ticks until an activity with virtual finish mark `fin` completes, when
/// the virtual clock reads `v` and advances at `rate` per wall tick.
///
/// This is the **single** completion formula both engines evaluate; the
/// `max(0.0)` clamp keeps remaining work non-negative even after the
/// clock overshoots a finish mark (completion events fire on whole-tick
/// boundaries, so a small overshoot is normal).
#[inline]
pub fn ticks_until(fin: f64, v: f64, rate: f64) -> u64 {
    ((fin - v).max(0.0) / rate).ceil().max(0.0) as u64
}

/// A fair-shared activity set under a common, externally-set rate.
///
/// The owner (a shared device model) is responsible for ordering:
/// `advance` to the current instant *before* any `set_rate`, `join` or
/// `leave`, mirroring the device models' advance-then-reschedule
/// discipline. Activity ids must be unique while joined; they order the
/// completion ties. Each joined activity is addressed by the handle its
/// `join` returned, valid until it leaves or the engine is cleared.
pub trait SharingEngine: std::fmt::Debug {
    /// What `join` issues to address one activity afterwards.
    type Handle: Copy + std::fmt::Debug + 'static;

    /// Fresh, empty engine at virtual time zero with unit rate.
    fn new() -> Self;

    /// Advance the virtual clock by `dt` wall ticks at the current rate.
    fn advance(&mut self, dt: f64);

    /// Replace the shared per-activity rate (the degradation curve's
    /// output). Callers must have advanced to the current instant first.
    fn set_rate(&mut self, rate: f64);

    /// The current shared per-activity rate.
    fn rate(&self) -> f64;

    /// Add activity `id` with `work` nominal ticks of remaining work.
    fn join(&mut self, id: u64, work: f64) -> Self::Handle;

    /// Remove an activity, returning its remaining work (≥ 0).
    ///
    /// # Panics
    /// Panics if the handle addresses no joined activity.
    fn leave(&mut self, handle: Self::Handle) -> f64;

    /// Remaining work of a joined activity (≥ 0).
    fn remaining(&self, handle: Self::Handle) -> f64;

    /// Predicted ticks from now until a joined activity completes.
    fn completion_ticks(&self, handle: Self::Handle) -> u64;

    /// Number of joined activities.
    fn len(&self) -> usize;

    /// True when no activity is joined.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every activity (device reset), invalidating every handle. The
    /// virtual clock and rate are left untouched — the warp continues for
    /// future tenants.
    fn clear(&mut self);

    /// The earliest predicted completion as `(id, ticks-from-now)`; ties
    /// on the tick go to the smallest id. `None` when empty.
    fn next_completion(&self) -> Option<(u64, u64)>;
}

// ---------------------------------------------------------------------
// Naive oracle
// ---------------------------------------------------------------------

/// The recompute-all-residents oracle, addressed by activity id.
///
/// Every mutation rebuilds the full prediction table — the O(n) cost a
/// per-resident rate rewrite pays in a conventional sharing model. Kept
/// deliberately naive as the differential oracle and the
/// `perf_throughput` gate's cost floor (see module docs).
#[derive(Debug)]
pub struct NaiveEngine {
    v: f64,
    rate: f64,
    /// Activity id → virtual finish mark, ascending id.
    fins: BTreeMap<u64, f64>,
    /// Materialized predictions `(id, ticks)`, ascending id — rebuilt in
    /// full on every mutation.
    predicted: Vec<(u64, u64)>,
}

impl NaiveEngine {
    /// Rebuild the whole prediction table (the honest O(n) reshare).
    fn rematerialize(&mut self) {
        self.predicted.clear();
        for (&id, &fin) in &self.fins {
            self.predicted
                .push((id, ticks_until(fin, self.v, self.rate)));
        }
    }
}

impl SharingEngine for NaiveEngine {
    /// The activity id itself.
    type Handle = u64;

    fn new() -> Self {
        NaiveEngine {
            v: 0.0,
            rate: 1.0,
            fins: BTreeMap::new(),
            predicted: Vec::new(),
        }
    }

    fn advance(&mut self, dt: f64) {
        self.v += self.rate * dt;
        self.rematerialize();
    }

    fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
        self.rematerialize();
    }

    fn rate(&self) -> f64 {
        self.rate
    }

    fn join(&mut self, id: u64, work: f64) -> u64 {
        let fin = self.v + work;
        assert!(
            self.fins.insert(id, fin).is_none(),
            "activity {id} joined twice"
        );
        self.rematerialize();
        id
    }

    fn leave(&mut self, id: u64) -> f64 {
        let fin = self.fins.remove(&id).expect("leaving activity is joined");
        self.rematerialize();
        (fin - self.v).max(0.0)
    }

    fn remaining(&self, id: u64) -> f64 {
        (self.fins[&id] - self.v).max(0.0)
    }

    fn completion_ticks(&self, id: u64) -> u64 {
        let i = self
            .predicted
            .binary_search_by_key(&id, |&(id, _)| id)
            .expect("activity is joined");
        self.predicted[i].1
    }

    fn len(&self) -> usize {
        self.fins.len()
    }

    fn clear(&mut self) {
        self.fins.clear();
        self.predicted.clear();
    }

    fn next_completion(&self) -> Option<(u64, u64)> {
        // Linear min-scan over the materialized table; ascending-id
        // iteration makes "ties to the smallest id" a strict `<`.
        let mut best: Option<(u64, u64)> = None;
        for &(id, ticks) in &self.predicted {
            if best.map(|(_, bt)| ticks < bt).unwrap_or(true) {
                best = Some((id, ticks));
            }
        }
        best
    }
}

// ---------------------------------------------------------------------
// Heap-scheduled fast engine
// ---------------------------------------------------------------------

/// A [`HeapEngine`] activity: a slot of the engine's dense position
/// table. Issued by `join` from a free list, so a freed handle is reissued
/// to a later activity; it must not be used after its activity leaves or
/// the engine is cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapHandle(u32);

/// Position-table mark of a handle that addresses no activity.
const VACANT: u32 = u32::MAX;

/// One heap slot: an activity's fixed finish mark, id and handle.
#[derive(Debug, Clone, Copy)]
struct Entry {
    fin: f64,
    id: u64,
    handle: u32,
}

impl Entry {
    /// Strict heap order by `(fin, id)`. Total: ids are unique and fins
    /// are finite.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        self.fin < other.fin || (self.fin == other.fin && self.id < other.id)
    }
}

/// The heap-scheduled fast engine.
///
/// A binary min-heap over `(fin, id)` plus a dense handle → heap-position
/// table. Rescaling on membership change is the global time warp (`v`,
/// `rate`) — no per-activity state is ever rewritten after join.
#[derive(Debug)]
pub struct HeapEngine {
    v: f64,
    rate: f64,
    heap: Vec<Entry>,
    /// Handle → current heap index, [`VACANT`] for a free handle. One
    /// slot per handle ever issued since the last clear, so its length is
    /// the peak live population.
    pos: Vec<u32>,
    /// Vacant handles, reissued last-freed first.
    free: Vec<u32>,
}

impl HeapEngine {
    /// Heap index of the activity `handle` addresses.
    fn index(&self, HeapHandle(h): HeapHandle) -> usize {
        match self.pos.get(h as usize) {
            Some(&i) if i != VACANT => i as usize,
            _ => panic!("activity handle {h} is not joined"),
        }
    }

    /// Write `e` into heap slot `i` and record its position.
    #[inline]
    fn place(&mut self, i: usize, e: Entry) {
        self.pos[e.handle as usize] = i as u32;
        self.heap[i] = e;
    }

    /// Fill the hole at `hole` with `e`, moving the hole toward the root
    /// while `e` precedes its parent.
    fn sift_up(&mut self, mut hole: usize, e: Entry) {
        while hole > 0 {
            let parent = (hole - 1) / 2;
            let p = self.heap[parent];
            if !e.before(&p) {
                break;
            }
            self.place(hole, p);
            hole = parent;
        }
        self.place(hole, e);
    }

    /// Fill the hole at `hole` with `e`, moving the hole toward the
    /// leaves while a child precedes `e`.
    fn sift_down(&mut self, mut hole: usize, e: Entry) {
        let n = self.heap.len();
        loop {
            let left = 2 * hole + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !c.before(&e) {
                break;
            }
            self.place(hole, c);
            hole = child;
        }
        self.place(hole, e);
    }

    /// Lower `best` to the min id among `i`'s descendants in the
    /// same-tick tie region containing the root.
    ///
    /// `ticks_until` is monotone in `fin`, so the set of entries whose
    /// tick equals the root's is downward-closed toward the root: a DFS
    /// can prune every subtree whose head already ticks later. O(ties).
    fn tie_min_id(&self, i: usize, tick: u64, best: &mut u64) {
        for child in [2 * i + 1, 2 * i + 2] {
            let Some(e) = self.heap.get(child) else {
                break;
            };
            if ticks_until(e.fin, self.v, self.rate) > tick {
                continue;
            }
            *best = (*best).min(e.id);
            self.tie_min_id(child, tick, best);
        }
    }
}

impl SharingEngine for HeapEngine {
    type Handle = HeapHandle;

    fn new() -> Self {
        HeapEngine {
            v: 0.0,
            rate: 1.0,
            heap: Vec::new(),
            pos: Vec::new(),
            free: Vec::new(),
        }
    }

    fn advance(&mut self, dt: f64) {
        // The whole population progresses in one update: the time warp.
        self.v += self.rate * dt;
    }

    fn set_rate(&mut self, rate: f64) {
        // Heap order is by `fin`, which a rate change does not touch.
        self.rate = rate;
    }

    fn rate(&self) -> f64 {
        self.rate
    }

    fn join(&mut self, id: u64, work: f64) -> HeapHandle {
        let handle = self.free.pop().unwrap_or_else(|| {
            let h = u32::try_from(self.pos.len())
                .ok()
                .filter(|&h| h != VACANT)
                .expect("too many live activities for a u32 handle");
            self.pos.push(VACANT);
            h
        });
        let e = Entry {
            fin: self.v + work,
            id,
            handle,
        };
        self.heap.push(e);
        self.sift_up(self.heap.len() - 1, e);
        HeapHandle(handle)
    }

    fn leave(&mut self, handle: HeapHandle) -> f64 {
        let i = self.index(handle);
        let fin = self.heap[i].fin;
        self.pos[handle.0 as usize] = VACANT;
        self.free.push(handle.0);
        let last = self.heap.pop().expect("a joined activity is in the heap");
        if i < self.heap.len() {
            // The last entry fills the hole; it may belong either above
            // or below it.
            if i > 0 && last.before(&self.heap[(i - 1) / 2]) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        (fin - self.v).max(0.0)
    }

    fn remaining(&self, handle: HeapHandle) -> f64 {
        (self.heap[self.index(handle)].fin - self.v).max(0.0)
    }

    fn completion_ticks(&self, handle: HeapHandle) -> u64 {
        ticks_until(self.heap[self.index(handle)].fin, self.v, self.rate)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
        self.free.clear();
    }

    fn next_completion(&self) -> Option<(u64, u64)> {
        let root = self.heap.first()?;
        let tick = ticks_until(root.fin, self.v, self.rate);
        // Distinct fins can round to the same tick; resolve the tie to
        // the smallest id so both engines pick the same winner as the
        // first minimum of the completions by (tick, id). The root is the
        // first candidate, so the search starts from its children.
        let mut best = root.id;
        self.tie_min_id(0, tick, &mut best);
        Some((best, tick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both engines, with each live activity's id and its two handles.
    struct Pair {
        h: HeapEngine,
        n: NaiveEngine,
        live: BTreeMap<u64, HeapHandle>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                h: HeapEngine::new(),
                n: NaiveEngine::new(),
                live: BTreeMap::new(),
            }
        }

        fn join(&mut self, id: u64, work: f64) {
            let handle = self.h.join(id, work);
            self.n.join(id, work);
            self.live.insert(id, handle);
        }

        /// Leave on both engines, asserting equal residual bits.
        fn leave(&mut self, id: u64) -> f64 {
            let a = self.h.leave(self.live.remove(&id).unwrap());
            assert_eq!(a.to_bits(), self.n.leave(id).to_bits());
            a
        }

        fn advance(&mut self, dt: f64) {
            self.h.advance(dt);
            self.n.advance(dt);
        }

        fn set_rate(&mut self, rate: f64) {
            self.h.set_rate(rate);
            self.n.set_rate(rate);
        }

        fn clear(&mut self) {
            self.h.clear();
            self.n.clear();
            self.live.clear();
        }

        fn next_completion(&self) -> Option<(u64, u64)> {
            let next = self.h.next_completion();
            assert_eq!(next, self.n.next_completion());
            next
        }

        fn remaining(&self, id: u64) -> f64 {
            self.h.remaining(self.live[&id])
        }

        /// Assert the two engines agree bit-for-bit on every observable.
        fn assert_identical(&self) {
            assert_eq!(self.h.len(), self.n.len());
            self.next_completion();
            for (&id, &handle) in &self.live {
                assert_eq!(self.h.completion_ticks(handle), self.n.completion_ticks(id));
                assert_eq!(
                    self.h.remaining(handle).to_bits(),
                    self.n.remaining(id).to_bits()
                );
            }
        }
    }

    #[test]
    fn solo_activity_completes_at_nominal_ticks() {
        let mut p = Pair::new();
        p.join(7, 1000.0);
        assert_eq!(p.next_completion(), Some((7, 1000)));
        p.advance(1000.0);
        assert_eq!(p.leave(7).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn rate_change_warps_everyone_at_once() {
        let mut p = Pair::new();
        for id in 0..4u64 {
            p.join(id, 100.0 * (id + 1) as f64);
        }
        p.advance(50.0);
        p.set_rate(0.5);
        // Activity 0: 50 nominal ticks left at rate ½ → 100 wall ticks.
        assert_eq!(p.next_completion(), Some((0, 100)));
        p.assert_identical();
    }

    #[test]
    fn ties_resolve_to_smallest_id() {
        let mut p = Pair::new();
        // Joined in descending id order so heap structure can't cheat.
        for id in (0..8u64).rev() {
            p.join(id, 100.0);
        }
        assert_eq!(p.next_completion(), Some((0, 100)));
        // Distinct fins rounding to the same tick still tie on the tick.
        let mut p2 = Pair::new();
        p2.join(5, 99.2);
        p2.join(2, 99.7);
        // Both ceil to 100 ticks → id 2 wins.
        assert_eq!(p2.next_completion(), Some((2, 100)));
    }

    #[test]
    fn leave_from_the_middle_keeps_heap_coherent() {
        let mut p = Pair::new();
        let works = [500.0, 100.0, 300.0, 200.0, 400.0, 50.0, 250.0];
        for (id, &w) in works.iter().enumerate() {
            p.join(id as u64, w);
        }
        p.leave(2);
        p.assert_identical();
        p.advance(60.0);
        // 5 had 50 ticks of work; it is done (and clamped, not negative).
        assert_eq!(p.next_completion().unwrap().0, 5);
        assert_eq!(p.remaining(5), 0.0);
    }

    #[test]
    fn clear_drops_activities_but_keeps_the_warp() {
        let mut p = Pair::new();
        p.join(1, 100.0);
        p.advance(40.0);
        p.clear();
        assert!(p.h.is_empty() && p.n.is_empty());
        assert_eq!(p.next_completion(), None);
        p.join(2, 10.0);
        assert_eq!(p.next_completion(), Some((2, 10)));
        p.assert_identical();
    }

    #[test]
    fn freed_handles_are_reissued_and_the_table_stays_at_peak_population() {
        let mut h = HeapEngine::new();
        let mut live: Vec<HeapHandle> = (0..4).map(|id| h.join(id, 10.0 * id as f64)).collect();
        for id in 4..1_000u64 {
            // Leave one, join one: the population never exceeds 4.
            let gone = live.remove((id % 4) as usize);
            h.leave(gone);
            let handle = h.join(id, id as f64);
            assert_eq!(handle, gone, "the freed handle is reissued");
            live.push(handle);
            assert_eq!(h.pos.len(), 4);
        }
        h.clear();
        assert!(h.pos.is_empty() && h.free.is_empty());
        assert_eq!(h.join(5_000, 1.0), HeapHandle(0));
    }

    #[test]
    fn huge_ids_do_not_size_the_position_table() {
        let mut h = HeapEngine::new();
        let a = h.join(u64::MAX - 1, 5.0);
        let b = h.join(u64::MAX, 5.0);
        assert_eq!((a, b), (HeapHandle(0), HeapHandle(1)));
        assert_eq!(h.pos.len(), 2);
        assert!(h.pos.capacity() < 64);
        // Equal fins tie to the smaller id.
        assert_eq!(h.next_completion(), Some((u64::MAX - 1, 5)));
        assert_eq!(h.leave(a), 5.0);
        assert_eq!(h.next_completion(), Some((u64::MAX, 5)));
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn naive_double_join_panics() {
        let mut n = NaiveEngine::new();
        n.join(1, 10.0);
        n.join(1, 20.0);
    }

    #[test]
    #[should_panic(expected = "is not joined")]
    fn leaving_through_a_freed_handle_panics() {
        let mut h = HeapEngine::new();
        let a = h.join(1, 10.0);
        h.join(2, 10.0);
        h.leave(a);
        h.leave(a);
    }

    #[test]
    #[should_panic(expected = "is not joined")]
    fn handles_do_not_survive_clear() {
        let mut h = HeapEngine::new();
        let a = h.join(1, 10.0);
        h.clear();
        h.remaining(a);
    }

    #[test]
    fn remaining_is_never_negative_after_overshoot() {
        let mut p = Pair::new();
        p.join(3, 10.4);
        // Completion fires at ceil(10.4) = 11 ticks; the clock overshoots
        // the finish mark by 0.6 nominal ticks.
        p.advance(11.0);
        assert_eq!(p.remaining(3), 0.0);
        assert_eq!(p.n.remaining(3), 0.0);
        assert_eq!(p.leave(3), 0.0);
    }
}
