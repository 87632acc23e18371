//! PERF-8 — the throughput-sharing engine benchmark gate.
//!
//! Drives one deterministic churn script — ramp to ~10³ concurrent
//! activities, then a long steady state of join/leave/rate-change/advance
//! ops with a completion query after every step — through both
//! [`SharingEngine`] implementations: the O(log n) time-warp heap
//! ([`HeapEngine`]) and the recompute-all-residents oracle
//! ([`NaiveEngine`], which rematerializes its full prediction table on
//! every mutation — the honest pre-optimization cost model). The heap must
//! beat the oracle by ≥ 3× while staying **bit-identical**: the script is
//! first replayed through both engines with every intermediate
//! `next_completion` answer, final completion table, and residual-work
//! bit pattern compared exactly.
//!
//! The rate fed to both engines comes from the calibrated Phi
//! [`SharingCurve`] at the live population, exactly as the shared devices'
//! fair-share rate rule (`phi::FairShare`) sets it — so the script
//! measures the engine under the access pattern the substrate actually
//! generates: one `advance`, O(1) membership ops, one `set_rate`, one
//! completion query per device event. Like the shared devices, the replay
//! keeps each live activity's engine handle beside it and leaves through
//! that handle, so freed heap handles are reissued to later joins.
//!
//! Emits `BENCH_throughput.json` (under `target/experiments/` and at the
//! repo root) and **fails** below the floor — a regression gate, not just
//! a report.

use phishare_bench::{banner, best_of_ms, commit_gate, GateKnobs, EXPERIMENT_SEED};
use phishare_throughput::{HeapEngine, NaiveEngine, SharingCurve, SharingEngine};
use serde::Serialize;

/// Steady-state population the churn phase holds the engine at.
const ACTIVITIES: usize = 1_000;
/// Churn steps after the ramp (each: advance + leave + join + reshare).
const CHURN_STEPS: usize = 20_000;
const SPEEDUP_FLOOR: f64 = 3.0;

/// One scripted operation against an engine. Pre-generated so the timed
/// loops replay identical op streams with zero RNG or branch divergence.
#[derive(Clone, Copy)]
enum Op {
    /// Advance the shared clock by `dt` ticks' worth of progress.
    Advance(f64),
    /// Join activity `id` with `work` normalized units remaining; its
    /// handle goes to the end of the live list.
    Join(u64, f64),
    /// Remove the activity at this position of the live list, which then
    /// `swap_remove`s it (completion or kill — engines don't care).
    Leave(usize),
    /// Re-share: set the common rate for the current population.
    SetRate(f64),
}

/// Deterministic 64-bit xorshift*; the bench must not depend on `rand`
/// internals staying stable across versions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Build the full op script: ramp to [`ACTIVITIES`] members, then
/// [`CHURN_STEPS`] rounds of advance → leave-one → join-one → reshare.
/// Rates follow the Phi curve at the live population (threads ≈ 12 per
/// activity against a 240-thread card → deep oversubscription, so rates
/// move on every membership change and the warp actually rescales).
fn script(seed: u64) -> Vec<Op> {
    let curve = SharingCurve::phi();
    let mut rng = Rng(seed | 1);
    let mut ops = Vec::with_capacity(2 * ACTIVITIES + 4 * CHURN_STEPS);
    let mut live: Vec<u64> = Vec::with_capacity(ACTIVITIES + 1);
    let mut next_id = 0u64;
    let rate_at = |n: usize| curve.per_activity_rate(n, n, 12 * n as u32, 240);

    for _ in 0..ACTIVITIES {
        ops.push(Op::Join(next_id, rng.f64(1.0, 50_000.0)));
        live.push(next_id);
        next_id += 1;
        ops.push(Op::SetRate(rate_at(live.len())));
    }
    for _ in 0..CHURN_STEPS {
        ops.push(Op::Advance(rng.f64(0.0, 20.0)));
        let victim = rng.index(live.len());
        live.swap_remove(victim);
        ops.push(Op::Leave(victim));
        ops.push(Op::Join(next_id, rng.f64(1.0, 50_000.0)));
        live.push(next_id);
        next_id += 1;
        ops.push(Op::SetRate(rate_at(live.len())));
    }
    ops
}

/// Replay the script, querying the next completion after every op (the
/// substrate asks after each event to schedule its wake-up). Returns a
/// fold of the answers so the optimizer cannot elide the queries.
fn replay<E: SharingEngine>(ops: &[Op]) -> u64 {
    let mut e = E::new();
    let mut live = Vec::with_capacity(ACTIVITIES + 1);
    let mut acc = 0u64;
    for &op in ops {
        match op {
            Op::Advance(dt) => e.advance(dt),
            Op::Join(id, work) => live.push(e.join(id, work)),
            Op::Leave(k) => {
                e.leave(live.swap_remove(k));
            }
            Op::SetRate(r) => e.set_rate(r),
        }
        if let Some((id, ticks)) = e.next_completion() {
            acc = acc.wrapping_add(id ^ ticks);
        }
    }
    acc
}

#[derive(Serialize)]
struct ThroughputBench {
    activities: usize,
    churn_steps: usize,
    ops: usize,
    naive_runs: usize,
    heap_runs: usize,
    /// Best-of-runs wall time of one naive-oracle replay, ms ("before").
    naive_ms: f64,
    /// Best-of-runs wall time of one heap replay, ms ("after").
    heap_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    /// Live activities still resident at the end of the script.
    final_population: usize,
    knobs: GateKnobs,
}

/// Replay the script through both engines in lockstep, comparing every
/// observable after every op — timing means nothing if the fast engine
/// computes a different schedule.
fn assert_bit_identical(ops: &[Op]) -> usize {
    let mut h = HeapEngine::new();
    let mut n = NaiveEngine::new();
    // Each live activity's heap handle and naive handle (its id).
    let mut live = Vec::with_capacity(ACTIVITIES + 1);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Advance(dt) => {
                h.advance(dt);
                n.advance(dt);
            }
            Op::Join(id, work) => live.push((h.join(id, work), n.join(id, work))),
            Op::Leave(k) => {
                let (hh, nh) = live.swap_remove(k);
                let (hr, nr) = (h.leave(hh), n.leave(nh));
                assert_eq!(hr.to_bits(), nr.to_bits(), "residual diverged @ {step}");
            }
            Op::SetRate(r) => {
                h.set_rate(r);
                n.set_rate(r);
            }
        }
        assert_eq!(h.len(), n.len(), "population diverged @ {step}");
        assert_eq!(
            h.next_completion(),
            n.next_completion(),
            "next completion diverged @ {step}"
        );
    }
    // Full final tables: every activity, same tick, same residual bits.
    for &(hh, id) in &live {
        assert_eq!(
            h.completion_ticks(hh),
            n.completion_ticks(id),
            "final completion diverged for {id}"
        );
        let (hr, nr) = (h.remaining(hh), n.remaining(id));
        assert_eq!(hr.to_bits(), nr.to_bits(), "remaining diverged for {id}");
    }
    live.len()
}

fn gate() -> ThroughputBench {
    let ops = script(EXPERIMENT_SEED);
    let final_population = assert_bit_identical(&ops);
    assert_eq!(
        final_population, ACTIVITIES,
        "churn must preserve population"
    );

    // Warm both paths once so neither pays first-touch costs in timing.
    let heap_acc = replay::<HeapEngine>(&ops);
    let naive_acc = replay::<NaiveEngine>(&ops);
    assert_eq!(heap_acc, naive_acc, "completion query folds diverged");

    let naive_runs = 3;
    let heap_runs = 5;
    let naive_ms = best_of_ms(naive_runs, || &ops, |ops| replay::<NaiveEngine>(ops));
    let heap_ms = best_of_ms(heap_runs, || &ops, |ops| replay::<HeapEngine>(ops));

    ThroughputBench {
        activities: ACTIVITIES,
        churn_steps: CHURN_STEPS,
        ops: ops.len(),
        naive_runs,
        heap_runs,
        naive_ms,
        heap_ms,
        speedup: naive_ms / heap_ms,
        speedup_floor: SPEEDUP_FLOOR,
        final_population,
        knobs: GateKnobs::non_negotiation(1),
    }
}

fn main() {
    banner(
        "perf_throughput",
        "the shared-device completion schedule behind the §II-C sharing model",
        "time-warp heap ≥ 3× faster than the recompute-all oracle at ~10³ \
         concurrent activities under heavy churn, bit-identical schedules",
    );

    let result = gate();
    println!(
        "{} activities, {} churn steps ({} ops total)",
        result.activities, result.churn_steps, result.ops
    );
    println!(
        "naive (best of {}): {:.1} ms   heap (best of {}): {:.1} ms   speedup: {:.2}x",
        result.naive_runs, result.naive_ms, result.heap_runs, result.heap_ms, result.speedup
    );
    commit_gate("throughput", &result, "throughput engine regressed");
}
