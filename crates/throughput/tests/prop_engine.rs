//! Differential proptests: the heap-scheduled fast engine against the
//! naive recompute-all oracle under randomized membership churn.
//!
//! Because both engines share the `(v, rate, fin)` representation and the
//! [`phishare_throughput::ticks_until`] formula, every observable —
//! next-completion `(id, tick)` pairs, the full per-activity prediction
//! table, remaining work down to the bit pattern — must be *exactly*
//! equal, not merely close. Any divergence means the heap's bookkeeping
//! (sift, transplant, tie scan, handle reissue) dropped, duplicated or
//! misaddressed an activity. The heap is driven through the handles its
//! `join` issues, as the shared devices drive it, and the churn frees and
//! reissues handles through both `leave` and `clear`.

use phishare_throughput::{HeapEngine, HeapHandle, NaiveEngine, SharingEngine};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One churn step against both engines.
#[derive(Debug, Clone)]
enum Op {
    /// Join a fresh activity with this many nominal ticks of work.
    Join(f64),
    /// Leave the k-th live activity (mod population), if any.
    Leave(usize),
    /// Replace the shared rate.
    SetRate(f64),
    /// Advance the wall clock.
    Advance(f64),
    /// Drop everything (device reset).
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1.0f64..50_000.0).prop_map(Op::Join),
        3 => (0usize..64).prop_map(Op::Leave),
        2 => (0.01f64..4.0).prop_map(Op::SetRate),
        3 => (0.0f64..10_000.0).prop_map(Op::Advance),
        1 => Just(Op::Clear),
    ]
}

/// Assert every observable agrees: population, next completion, and
/// each live activity's completion tick and remaining-work bits, visited
/// in ascending id as the shared devices visit them.
fn assert_identical(
    heap: &HeapEngine,
    naive: &NaiveEngine,
    live: &BTreeMap<u64, HeapHandle>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(heap.len(), naive.len());
    prop_assert_eq!(heap.len(), live.len());
    prop_assert_eq!(heap.next_completion(), naive.next_completion());
    for (&id, &handle) in live {
        prop_assert_eq!(heap.completion_ticks(handle), naive.completion_ticks(id));
        let a = heap.remaining(handle);
        prop_assert_eq!(a.to_bits(), naive.remaining(id).to_bits());
        prop_assert!(a >= 0.0, "remaining work went negative for {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Randomized join/leave/rate-change/advance/clear churn:
    /// bit-identical completion timelines and never-negative remaining
    /// work, with handles freed by `leave` and `clear` reissued to later
    /// joins.
    #[test]
    fn heap_engine_is_bit_identical_to_naive_oracle(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut heap = HeapEngine::new();
        let mut naive = NaiveEngine::new();
        let mut live: BTreeMap<u64, HeapHandle> = BTreeMap::new();
        let mut next_id = 0u64;

        for op in ops {
            match op {
                Op::Join(work) => {
                    let handle = heap.join(next_id, work);
                    prop_assert!(
                        live.values().all(|&h| h != handle),
                        "handle {:?} issued twice", handle
                    );
                    naive.join(next_id, work);
                    live.insert(next_id, handle);
                    next_id += 1;
                }
                Op::Leave(k) => {
                    let id = live.keys().nth(k % live.len().max(1)).copied();
                    if let Some(id) = id {
                        let a = heap.leave(live.remove(&id).unwrap());
                        let b = naive.leave(id);
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                        prop_assert!(a >= 0.0);
                    }
                }
                Op::SetRate(r) => {
                    heap.set_rate(r);
                    naive.set_rate(r);
                }
                Op::Advance(dt) => {
                    heap.advance(dt);
                    naive.advance(dt);
                }
                Op::Clear => {
                    heap.clear();
                    naive.clear();
                    live.clear();
                }
            }
            assert_identical(&heap, &naive, &live)?;
        }
    }

    /// Ids are arbitrary `u64`s (workload JSON may set any job id), so a
    /// stream of far-apart ids near `u64::MAX` behaves like dense ones.
    #[test]
    fn sparse_huge_ids_match_the_oracle(
        works in prop::collection::btree_map(
            u64::MAX - (1 << 40)..=u64::MAX,
            1.0f64..10_000.0,
            1..40,
        ),
        leave_every in 2usize..5,
    ) {
        let mut heap = HeapEngine::new();
        let mut naive = NaiveEngine::new();
        let mut live: BTreeMap<u64, HeapHandle> = BTreeMap::new();
        for (k, (&id, &work)) in works.iter().enumerate() {
            live.insert(id, heap.join(id, work));
            naive.join(id, work);
            heap.advance(7.0);
            naive.advance(7.0);
            if k % leave_every == 0 {
                let first = *live.keys().next().unwrap();
                let a = heap.leave(live.remove(&first).unwrap());
                prop_assert_eq!(a.to_bits(), naive.leave(first).to_bits());
            }
            assert_identical(&heap, &naive, &live)?;
        }
    }

    /// Draining by repeatedly advancing to the predicted next completion
    /// retires activities in the same order on both engines, and the
    /// retired activity always has zero remaining work. Leaves from the
    /// middle of the heap first (the k-th live id) make the last entry
    /// fill holes in other subtrees, where it may belong above the hole;
    /// an entry left out of place shows up as a wrong drain order.
    #[test]
    fn completion_order_matches_under_drain(
        works in prop::collection::vec(1.0f64..10_000.0, 1..48),
        rate in 0.05f64..4.0,
        kills in prop::collection::vec(0usize..64, 0..24),
    ) {
        let mut heap = HeapEngine::new();
        let mut naive = NaiveEngine::new();
        heap.set_rate(rate);
        naive.set_rate(rate);
        let mut live = BTreeMap::new();
        for (id, &w) in works.iter().enumerate() {
            live.insert(id as u64, heap.join(id as u64, w));
            naive.join(id as u64, w);
        }
        for k in kills {
            let id = *live.keys().nth(k % live.len()).unwrap();
            let a = heap.leave(live.remove(&id).unwrap());
            prop_assert_eq!(a.to_bits(), naive.leave(id).to_bits());
            if live.is_empty() {
                break;
            }
        }
        while let Some((id, ticks)) = heap.next_completion() {
            prop_assert_eq!(Some((id, ticks)), naive.next_completion());
            heap.advance(ticks as f64);
            naive.advance(ticks as f64);
            let handle = live.remove(&id).unwrap();
            prop_assert_eq!(heap.remaining(handle), 0.0);
            let a = heap.leave(handle);
            let b = naive.leave(id);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert!(naive.is_empty());
    }
}
