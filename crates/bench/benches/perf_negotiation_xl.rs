//! PERF-7 — the web-scale delta-negotiation gate.
//!
//! Runs a sustained open-arrival streaming workload over a ≥10⁴-slot pool
//! (2500 nodes × 4 slots), driving two collector/queue twins in lockstep:
//! one negotiates with the incremental **delta** path, the other with the
//! PR 1 **full-rematch** fast path. Every cycle the twins receive identical
//! mutations — new job arrivals, completions releasing claims and
//! restoring node capacity — and must produce bit-identical matches,
//! stats, collector state, and pending sets; only the negotiate calls are
//! timed.
//!
//! The workload models steady state, not a fixed batch: a permanent
//! backlog of jobs whose requirements are an *unindexable residual
//! disjunction* (the full path must scan all 10⁴ slots for each, every
//! cycle — there is no guard to range-query) plus a per-cycle stream of
//! mostly-pinned arrivals and lifetime-based completions. The delta path
//! re-screens the backlog only against the slots dirtied since each job's
//! unmatched certificate, which is what keeps per-cycle work proportional
//! to churn instead of (backlog × pool).
//!
//! Each side's time is its fastest of three whole passes, every cycle of a
//! pass on fresh twins. Emits `BENCH_negotiation_xl.json` (under
//! `target/experiments/` and at the repo root) and **fails** below the 5×
//! acceptance floor.

use phishare_bench::{commit_gate, GateKnobs};
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::{ClassAd, Value};
use phishare_condor::{attrs, Collector, JobQueue, MatchPath, Negotiator, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use serde::Serialize;
use std::time::Instant;

const NODES: u32 = 2500;
const SLOTS_PER_NODE: u32 = 4;
/// Permanently-pending jobs with unindexable residual requirements — the
/// full path's per-cycle cost driver.
const BACKLOG: u64 = 150;
const CYCLES: u64 = 14;
const ARRIVALS_PER_CYCLE: u64 = 30;
/// Cycles a placed job holds its claim before completing.
const LIFETIME: u64 = 3;
/// Whole streaming passes per side; each side keeps its fastest.
const PASSES: usize = 3;
const SPEEDUP_FLOOR: f64 = 5.0;

/// A backlog job: the top-level `||` resists guard extraction, so the full
/// path can only scan every unclaimed slot — and neither arm is ever
/// satisfiable on this pool (no node has 50 GB free or two free cards).
fn backlog_ad(i: u64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, i);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    ad.insert(attrs::REQUEST_PHI_MEMORY, 50_000i64);
    ad.insert_expr(
        REQUIREMENTS,
        "TARGET.PhiFreeMemory >= MY.RequestPhiMemory || TARGET.PhiDevicesFree >= 2",
    )
    .unwrap();
    ad
}

/// Streaming arrivals: mostly placement-pinned (as the paper's scheduler
/// produces), with a tail of open sharing and exclusive requests.
fn arrival_ad(i: u64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, i);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    let node = 1 + (i.wrapping_mul(37) % NODES as u64);
    match i % 10 {
        0..=5 => {
            let slot = 1 + (i % SLOTS_PER_NODE as u64);
            ad.insert_expr(
                REQUIREMENTS,
                &attrs::pin_requirements(&format!("slot{slot}@node{node}")),
            )
            .unwrap();
        }
        6 | 7 => {
            ad.insert_expr(REQUIREMENTS, &attrs::pin_to_node(&format!("node{node}")))
                .unwrap();
        }
        8 => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 3000i64);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            )
            .unwrap();
        }
        _ => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 1000i64);
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, true);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
                .unwrap();
        }
    }
    ad
}

fn int_attr(ad: &ClassAd, name: &str) -> i64 {
    match ad.get(name) {
        Some(Value::Int(i)) => *i,
        _ => 0,
    }
}

/// Undo one placement on completion: release the claim and hand the job's
/// resources back to every slot ad of the node (the inverse of the
/// negotiator's same-cycle commit).
fn complete(collector: &mut Collector, slot: SlotId, ad: &ClassAd) {
    let mem = int_attr(ad, attrs::REQUEST_PHI_MEMORY);
    let exclusive = matches!(
        ad.get(attrs::REQUEST_EXCLUSIVE_PHI),
        Some(Value::Bool(true))
    );
    for s in collector.node_slots(slot.node) {
        let status = collector.get(s).expect("listed slot exists");
        let free = int_attr(&status.ad, attrs::PHI_FREE_MEMORY) + mem;
        let devs = int_attr(&status.ad, attrs::PHI_DEVICES_FREE) + i64::from(exclusive);
        collector.refresh_phi_availability(s, free.max(0) as u64, devs.max(0) as u32);
    }
    collector.release(slot);
}

struct Twin {
    queue: JobQueue,
    collector: Collector,
    negotiator: Negotiator,
    /// (completion cycle, matched slot, job id) of live placements.
    live: Vec<(u64, SlotId, JobId)>,
    /// Accumulated wall time of the negotiate calls only, ms.
    negotiate_ms: f64,
    matched: usize,
}

impl Twin {
    fn new(path: MatchPath) -> Twin {
        let mut collector = Collector::new();
        for n in 1..=NODES {
            for s in 1..=SLOTS_PER_NODE {
                let id = SlotId { node: n, slot: s };
                collector.advertise(
                    id,
                    attrs::machine_ad(&id.name(), &format!("node{n}"), 1, 8192, 7680, 1),
                );
            }
        }
        let mut queue = JobQueue::new();
        for i in 0..BACKLOG {
            queue
                .submit(JobId(i), backlog_ad(i), SimTime::ZERO)
                .unwrap();
        }
        Twin {
            queue,
            collector,
            negotiator: Negotiator::default().with_path(path),
            live: Vec::new(),
            negotiate_ms: 0.0,
            matched: 0,
        }
    }

    /// One streaming step: completions, arrivals, then a (timed) cycle.
    fn step(&mut self, cycle: u64) -> (Vec<phishare_condor::Match>, phishare_condor::CycleStats) {
        let mut still_live = Vec::new();
        for (done_at, slot, job) in std::mem::take(&mut self.live) {
            if done_at <= cycle {
                let ad = self.queue.get(job).expect("matched job exists").ad.clone();
                complete(&mut self.collector, slot, &ad);
            } else {
                still_live.push((done_at, slot, job));
            }
        }
        self.live = still_live;
        for k in 0..ARRIVALS_PER_CYCLE {
            let id = BACKLOG + cycle * ARRIVALS_PER_CYCLE + k;
            self.queue
                .submit(JobId(id), arrival_ad(id), SimTime::ZERO)
                .unwrap();
        }

        let start = Instant::now();
        let (matches, stats) = self
            .negotiator
            .negotiate_with_stats(&mut self.queue, &mut self.collector);
        self.negotiate_ms += start.elapsed().as_secs_f64() * 1e3;

        self.matched += matches.len();
        for m in &matches {
            self.live.push((cycle + LIFETIME, m.slot, m.job));
        }
        (matches, stats)
    }
}

#[derive(Serialize)]
struct XlBench {
    nodes: u32,
    slots_per_node: u32,
    slots: u32,
    backlog_jobs: u64,
    cycles: u64,
    arrivals_per_cycle: u64,
    lifetime_cycles: u64,
    passes: usize,
    /// Negotiate wall time summed over one pass's cycles, delta path, ms:
    /// the fastest of `passes` whole passes.
    delta_ms: f64,
    /// Negotiate wall time summed over one pass's cycles, full-rematch
    /// path, ms: the fastest of `passes` whole passes.
    full_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    matched: usize,
    knobs: GateKnobs,
}

/// One whole streaming pass on fresh twins, checked cycle by cycle.
fn pass() -> (Twin, Twin) {
    let mut delta = Twin::new(MatchPath::Delta);
    let mut full = Twin::new(MatchPath::Full);
    for cycle in 0..CYCLES {
        let d = delta.step(cycle);
        let f = full.step(cycle);
        // Bit-identity every cycle: the delta path must be indistinguishable
        // from the full-rematch oracle mid-stream, not just at the end.
        assert_eq!(d, f, "cycle {cycle}: matches/stats diverged");
        assert_eq!(
            delta.collector, full.collector,
            "cycle {cycle}: collector state diverged"
        );
        assert_eq!(
            delta.queue.pending(),
            full.queue.pending(),
            "cycle {cycle}: pending sets diverged"
        );
    }
    assert!(delta.matched > 0, "streaming workload must place jobs");
    assert!(
        delta.queue.pending().len() as u64 >= BACKLOG,
        "the residual backlog must persist (it is the full path's cost driver)"
    );
    (delta, full)
}

fn gate() -> XlBench {
    let slots = NODES * SLOTS_PER_NODE;
    assert!(slots >= 10_000, "XL gate must cover at least 10^4 slots");

    // One pass times each cycle once, so host noise during it can sink the
    // ratio; the fastest of several whole passes is slowed only by noise
    // that hits every pass. The last pass's twins report the placements
    // and knobs, which every pass repeats exactly.
    let (mut delta, full) = pass();
    let (mut delta_ms, mut full_ms) = (delta.negotiate_ms, full.negotiate_ms);
    for _ in 1..PASSES {
        let (d, f) = pass();
        delta_ms = delta_ms.min(d.negotiate_ms);
        full_ms = full_ms.min(f.negotiate_ms);
        delta = d;
    }

    XlBench {
        nodes: NODES,
        slots_per_node: SLOTS_PER_NODE,
        slots,
        backlog_jobs: BACKLOG,
        cycles: CYCLES,
        arrivals_per_cycle: ARRIVALS_PER_CYCLE,
        lifetime_cycles: LIFETIME,
        passes: PASSES,
        delta_ms,
        full_ms,
        speedup: full_ms / delta_ms,
        speedup_floor: SPEEDUP_FLOOR,
        matched: delta.matched,
        // The measured side is the unpartitioned delta screen: one
        // collector partition, its job-chunk fan-out pinned to one thread
        // by `main`. The streaming churn keeps every cycle non-quiescent,
        // but the detector is on (as it is in production).
        knobs: GateKnobs {
            partitions: delta.collector.partitions(),
            threads: delta.negotiator.shard_count(),
            skip_quiescent: true,
            match_path: "delta".into(),
        },
    }
}

fn main() {
    // Pin the delta screen's fan-out to one thread before any negotiator
    // reads the budget: `Negotiator::shard_count` otherwise follows the
    // host's core count, and the speedup moves with it.
    std::env::set_var("PHISHARE_PARTITION_THREADS", "1");
    phishare_bench::banner(
        "perf_negotiation_xl",
        "delta-driven matchmaking at 10^4 slots",
        "streaming steady state: delta path ≥ 5× over full rematch",
    );

    let result = gate();
    println!(
        "pool {}x{} = {} slots, {} residual backlog jobs, {} cycles x {} arrivals ({} matched)",
        result.nodes,
        result.slots_per_node,
        result.slots,
        result.backlog_jobs,
        result.cycles,
        result.arrivals_per_cycle,
        result.matched
    );
    println!(
        "best of {} passes — full rematch: {:.1} ms   delta: {:.1} ms   speedup: {:.1}x (floor {:.1}x)",
        result.passes, result.full_ms, result.delta_ms, result.speedup, result.speedup_floor
    );
    commit_gate("negotiation_xl", &result, "delta negotiation regressed");
}
