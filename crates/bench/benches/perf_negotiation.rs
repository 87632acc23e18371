//! PERF-3 — the negotiation fast-path benchmark gate.
//!
//! Measures one negotiation cycle over a 64-node × 4-slot pool with 1600
//! pending jobs, comparing the compiled/indexed fast path
//! (`negotiate_with_stats`) against the retained naive evaluator
//! (`negotiate_naive_with_stats`, which re-parses every expression per
//! (job, slot) pair — the pre-optimization cost model). The workload is
//! match-heavy in the worst way: most jobs ask for more Phi memory than any
//! node has left after the first placements, so the naive path scans all
//! 256 slots per job while the fast path answers from the free-memory index.
//!
//! Emits `BENCH_negotiation.json` (under `target/experiments/` and at the
//! repo root) and **fails** if the measured speedup drops below the 3×
//! acceptance floor, making this a regression gate, not just a report.

use phishare_bench::{best_of_ms, commit_gate, GateKnobs};
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::ClassAd;
use phishare_condor::{attrs, Collector, JobQueue, Negotiator, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use serde::Serialize;

const NODES: u32 = 64;
const SLOTS_PER_NODE: u32 = 4;
const JOBS: u64 = 1600;
const SPEEDUP_FLOOR: f64 = 3.0;

/// Jobs per repeating pattern block: heavy sharing, modest sharing,
/// exclusive, slot-pinned, node-pinned.
fn job_ad(i: u64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, i);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    match i % 5 {
        // The bulk: asks for 6000 MB. One fits per 7680 MB node; after 64
        // placements every remaining job of this class matches nothing.
        0..=2 => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 6000i64);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            )
            .unwrap();
        }
        3 => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 1000i64);
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, true);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
                .unwrap();
        }
        _ => {
            let node = (i % NODES as u64) + 1;
            if i.is_multiple_of(2) {
                let slot = (i % SLOTS_PER_NODE as u64) + 1;
                ad.insert_expr(
                    REQUIREMENTS,
                    &attrs::pin_requirements(&format!("slot{slot}@node{node}")),
                )
                .unwrap();
            } else {
                ad.insert_expr(REQUIREMENTS, &attrs::pin_to_node(&format!("node{node}")))
                    .unwrap();
            }
        }
    }
    ad
}

fn build_pool(nodes: u32, slots_per_node: u32, jobs: u64) -> (JobQueue, Collector) {
    let mut collector = Collector::new();
    for n in 1..=nodes {
        for s in 1..=slots_per_node {
            let id = SlotId { node: n, slot: s };
            collector.advertise(
                id,
                attrs::machine_ad(&id.name(), &format!("node{n}"), 1, 8192, 7680, 1),
            );
        }
    }
    let mut queue = JobQueue::new();
    for i in 0..jobs {
        queue.submit(JobId(i), job_ad(i), SimTime::ZERO).unwrap();
    }
    (queue, collector)
}

#[derive(Serialize)]
struct NegotiationBench {
    nodes: u32,
    slots_per_node: u32,
    jobs: u64,
    naive_runs: usize,
    fast_runs: usize,
    /// Best-of-runs wall time of one naive cycle, ms ("before").
    naive_ms: f64,
    /// Best-of-runs wall time of one fast-path cycle, ms ("after").
    fast_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    matched: usize,
    considered: usize,
    knobs: GateKnobs,
}

fn gate() -> NegotiationBench {
    let negotiator = Negotiator::default();
    let base = build_pool(NODES, SLOTS_PER_NODE, JOBS);

    // Sanity first: all paths must agree before timing means anything.
    let (mut q_fast, mut c_fast) = base.clone();
    let (mut q_naive, mut c_naive) = base.clone();
    let (mut q_delta, mut c_delta) = base.clone();
    let fast = negotiator.negotiate_full_with_stats(&mut q_fast, &mut c_fast);
    let naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
    let delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
    assert_eq!(fast, naive, "fast and naive paths diverged");
    assert_eq!(delta, naive, "delta and naive paths diverged");
    assert_eq!(c_fast, c_naive, "collector states diverged");
    assert_eq!(c_delta, c_naive, "collector states diverged");
    let (matches, stats) = fast;

    // This gate pins the *full-rematch* fast path against the naive cost
    // model (PERF-3); the delta path has its own XL gate (PERF-7).
    let naive_runs = 3;
    let fast_runs = 15;
    // Each run negotiates a fresh clone of the pool; the clone is built
    // and dropped outside the clock.
    let naive_ms = best_of_ms(
        naive_runs,
        || base.clone(),
        |(mut q, mut c)| (negotiator.negotiate_naive_with_stats(&mut q, &mut c), q, c),
    );
    let fast_ms = best_of_ms(
        fast_runs,
        || base.clone(),
        |(mut q, mut c)| (negotiator.negotiate_full_with_stats(&mut q, &mut c), q, c),
    );

    NegotiationBench {
        nodes: NODES,
        slots_per_node: SLOTS_PER_NODE,
        jobs: JOBS,
        naive_runs,
        fast_runs,
        naive_ms,
        fast_ms,
        speedup: naive_ms / fast_ms,
        speedup_floor: SPEEDUP_FLOOR,
        matched: matches.len(),
        considered: stats.considered,
        // The measured side is the serial full-rematch fast path; no
        // partitioning, sharding, or quiescence is in play.
        knobs: GateKnobs {
            partitions: 1,
            threads: 1,
            skip_quiescent: false,
            match_path: "full".into(),
        },
    }
}

fn main() {
    phishare_bench::banner(
        "perf_negotiation",
        "§II-D negotiation cycle cost",
        "compiled+indexed matchmaking ≥ 3× faster than per-pair re-evaluation",
    );

    let result = gate();
    println!(
        "pool {}x{} slots, {} pending jobs ({} matched, {} considered)",
        result.nodes, result.slots_per_node, result.jobs, result.matched, result.considered
    );
    println!(
        "naive (best of {}): {:.2} ms   fast (best of {}): {:.2} ms   speedup: {:.1}x",
        result.naive_runs, result.naive_ms, result.fast_runs, result.fast_ms, result.speedup
    );
    commit_gate("negotiation", &result, "negotiation fast path regressed");
}
