//! PERF-10 — the 10⁵-slot partitioned-matchmaking gate.
//!
//! Runs a long steady-state schedule over a 100 000-slot pool
//! (25 000 nodes × 4 slots): a permanent 2000-job backlog of distinct
//! job classes whose compiled guards (`PhiFreeMemory >= 50 GB + i MB`)
//! no node can ever satisfy, periodic arrival bursts whose placements
//! complete and wash out two cycles later, and then a long quiescent tail
//! in which nothing changes at all — the regime long `perf_e2e`-style
//! runs spend most of their cycles in.
//!
//! Three twins replay the identical schedule:
//!
//! * **measured** — the partitioned delta path (8 collector partitions)
//!   with quiescence detection on: burst/wash cycles screen per-partition
//!   and merge, quiescent cycles short-circuit in O(1).
//! * **baseline** — the unpartitioned delta path: one partition, its
//!   screen split into job chunks, quiescence off. Every quiescent cycle
//!   still walks every pending class — here one per backlog job — to
//!   rediscover that nothing changed.
//! * **oracle** — `MatchPath::Full`, which re-evaluates every pending job
//!   from scratch each cycle.
//!
//! The identity phase drives all three in lockstep over the full schedule
//! and asserts bit-identical matches, stats, collector state, and pending
//! sets every cycle — only then are fresh measured/baseline twins re-run
//! for timing. Emits `BENCH_negotiation_xxl.json` (under
//! `target/experiments/` and at the repo root) and **fails** below the 4×
//! acceptance floor. With `--features alloc-count` the gate additionally
//! asserts the quiescent fast path is allocation-free on average (< 1
//! heap allocation per skipped cycle).

use phishare_bench::{commit_gate, GateKnobs};
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::{ClassAd, Value};
use phishare_condor::{attrs, Collector, JobQueue, MatchPath, Negotiator, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use serde::Serialize;
use std::time::Instant;

const NODES: u32 = 25_000;
const SLOTS_PER_NODE: u32 = 4;
/// Collector partitions on the measured twin.
const PARTITIONS: usize = 8;
/// Permanently-pending jobs, each with its own never-satisfiable compiled
/// guard — the per-cycle cost the quiescence fast path deletes.
const BACKLOG: u64 = 2_000;
/// Arrival bursts land every `BURST_EVERY` cycles during the active phase.
const BURSTS: u64 = 8;
const BURST_EVERY: u64 = 4;
const ARRIVALS_PER_BURST: u64 = 50;
/// Cycles a placed job holds its claim before completing.
const LIFETIME: u64 = 2;
/// Cycles 0..ACTIVE see bursts, completions, and washes; everything after
/// is a pure quiescent tail.
const ACTIVE_CYCLES: u64 = (BURSTS - 1) * BURST_EVERY + LIFETIME + 2;
/// The quiescent tail dominates the schedule on purpose: at the paper's
/// 30 s negotiation interval, 3000 empty cycles is one idle day with a
/// standing backlog — the regime where skipless matchmaking burns cost
/// proportional to queue depth for literally nothing.
const CYCLES: u64 = ACTIVE_CYCLES + 3_000;
const SPEEDUP_FLOOR: f64 = 4.0;

/// A backlog job: a plain indexable guard asking for more card memory
/// than any node advertises. The guard prefilter answers it from an empty
/// index range — the cost driver is not evaluation but the *per-job walk*
/// every non-quiescent-aware cycle repeats. Each job asks for a different
/// amount, which folds into its guard's bound, so every backlog job is an
/// autocluster of its own and the skipless path cannot reject the backlog
/// as one class.
fn backlog_ad(i: u64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, i);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    ad.insert(attrs::REQUEST_PHI_MEMORY, 50_000 + i as i64);
    ad.insert_expr(
        REQUIREMENTS,
        "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
    )
    .unwrap();
    ad
}

/// Burst arrivals: placement-pinned, exactly as the paper's cluster
/// scheduler produces (the schedd pins each dispatch to the slot or node
/// the planner chose). Every arrival carries a real memory request, so its
/// commit decrements the node's advertised `PhiFreeMemory` and its
/// completion restores it — the dirt that drives wash cycles. Open
/// wide-guard arrivals (which cost an index-range scan per job regardless
/// of partitioning) are the XL gate's subject, not this one's.
fn arrival_ad(i: u64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, i);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    // 37 is coprime to NODES, so every arrival in the run pins a distinct
    // node and none collide.
    let node = 1 + (i.wrapping_mul(37) % NODES as u64);
    if i % 5 == 4 {
        ad.insert(attrs::REQUEST_PHI_MEMORY, 1000i64);
        ad.insert_expr(REQUIREMENTS, &attrs::pin_to_node(&format!("node{node}")))
            .unwrap();
    } else {
        let slot = 1 + (i % SLOTS_PER_NODE as u64);
        ad.insert(attrs::REQUEST_PHI_MEMORY, 3000i64);
        ad.insert_expr(
            REQUIREMENTS,
            &attrs::pin_requirements(&format!("slot{slot}@node{node}")),
        )
        .unwrap();
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
    collector.update_node_phi(slot.node, |[free, devs]| {
        [
            Some((free.unwrap_or(0) + mem).max(0)),
            Some((devs.unwrap_or(0) + i64::from(exclusive)).max(0)),
        ]
    });
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
    fn new(path: MatchPath, partitions: usize, quiescence: bool) -> Twin {
        let mut collector = Collector::with_partitions(partitions);
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
            negotiator: Negotiator::default()
                .with_path(path)
                .with_quiescence(quiescence),
            live: Vec::new(),
            negotiate_ms: 0.0,
            matched: 0,
        }
    }

    /// One schedule step: completions, burst arrivals (if due), then a
    /// (timed) negotiation cycle.
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
        if cycle.is_multiple_of(BURST_EVERY) && cycle < BURSTS * BURST_EVERY {
            let burst = cycle / BURST_EVERY;
            for k in 0..ARRIVALS_PER_BURST {
                let id = BACKLOG + burst * ARRIVALS_PER_BURST + k;
                self.queue
                    .submit(JobId(id), arrival_ad(id), SimTime::ZERO)
                    .unwrap();
            }
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
struct XxlBench {
    nodes: u32,
    slots_per_node: u32,
    slots: u32,
    backlog_jobs: u64,
    cycles: u64,
    active_cycles: u64,
    /// Cycles the measured twin observed as quiescent (identity phase).
    quiescent_cycles: u64,
    bursts: u64,
    arrivals_per_burst: u64,
    lifetime_cycles: u64,
    /// Total negotiate wall time, partitioned + quiescence-skipping, ms.
    partitioned_ms: f64,
    /// Total negotiate wall time, PR 6 single-partition delta path, ms.
    baseline_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    matched: usize,
    /// Heap allocations per quiescent negotiate call on the measured twin
    /// — `null` unless built with `--features alloc-count`.
    allocs_per_quiescent_cycle: Option<f64>,
    knobs: GateKnobs,
}

#[cfg(feature = "alloc-count")]
fn allocation_count() -> Option<u64> {
    Some(phishare_bench::alloc_count::allocations())
}

#[cfg(not(feature = "alloc-count"))]
fn allocation_count() -> Option<u64> {
    None
}

fn gate() -> XxlBench {
    let slots = NODES * SLOTS_PER_NODE;
    assert!(slots >= 100_000, "XXL gate must cover at least 10^5 slots");

    // --- identity phase -------------------------------------------------
    // All three twins replay the schedule in lockstep; every cycle must be
    // bit-identical before any timing means anything. The full-rematch
    // twin is the ground-truth oracle: it cannot skip, shard, or
    // partition anything.
    let mut measured = Twin::new(MatchPath::Delta, PARTITIONS, true);
    let mut baseline = Twin::new(MatchPath::Delta, 1, false);
    let mut oracle = Twin::new(MatchPath::Full, 1, false);
    let mut quiescent_cycles = 0u64;
    for cycle in 0..CYCLES {
        if Negotiator::cycle_is_quiescent(&measured.queue, &measured.collector) {
            quiescent_cycles += 1;
        }
        let m = measured.step(cycle);
        let b = baseline.step(cycle);
        let o = oracle.step(cycle);
        assert_eq!(m, b, "cycle {cycle}: measured diverged from baseline");
        assert_eq!(b, o, "cycle {cycle}: baseline diverged from full oracle");
        assert_eq!(
            measured.collector, oracle.collector,
            "cycle {cycle}: collector state diverged"
        );
        assert_eq!(
            measured.queue.pending(),
            oracle.queue.pending(),
            "cycle {cycle}: pending sets diverged"
        );
    }
    assert!(measured.matched > 0, "burst arrivals must place jobs");
    assert!(
        measured.queue.pending().len() as u64 >= BACKLOG,
        "the guarded backlog must persist (it is the skipless path's cost driver)"
    );
    assert!(
        quiescent_cycles >= CYCLES - ACTIVE_CYCLES,
        "the tail must actually be quiescent ({quiescent_cycles} of {CYCLES} cycles)"
    );

    // --- timing phase ---------------------------------------------------
    // Fresh twins, same schedule, no per-cycle assertions in the timed
    // region. Quiescent-tail allocations on the measured twin are counted
    // when the alloc-count feature is on.
    let mut measured = Twin::new(MatchPath::Delta, PARTITIONS, true);
    let mut baseline = Twin::new(MatchPath::Delta, 1, false);
    let mut tail_allocs = 0u64;
    for cycle in 0..CYCLES {
        let before = if cycle >= ACTIVE_CYCLES {
            allocation_count()
        } else {
            None
        };
        measured.step(cycle);
        if let Some(before) = before {
            tail_allocs += allocation_count().expect("feature on") - before;
        }
        baseline.step(cycle);
    }
    let allocs_per_quiescent_cycle = allocation_count().map(|_| {
        let per_cycle = tail_allocs as f64 / (CYCLES - ACTIVE_CYCLES) as f64;
        assert!(
            per_cycle < 1.0,
            "quiescent fast path must be allocation-free, measured {per_cycle:.2}/cycle"
        );
        per_cycle
    });

    XxlBench {
        nodes: NODES,
        slots_per_node: SLOTS_PER_NODE,
        slots,
        backlog_jobs: BACKLOG,
        cycles: CYCLES,
        active_cycles: ACTIVE_CYCLES,
        quiescent_cycles,
        bursts: BURSTS,
        arrivals_per_burst: ARRIVALS_PER_BURST,
        lifetime_cycles: LIFETIME,
        partitioned_ms: measured.negotiate_ms,
        baseline_ms: baseline.negotiate_ms,
        speedup: baseline.negotiate_ms / measured.negotiate_ms,
        speedup_floor: SPEEDUP_FLOOR,
        matched: measured.matched,
        allocs_per_quiescent_cycle,
        knobs: GateKnobs {
            partitions: PARTITIONS,
            threads: phishare_condor::collector::partition_threads(PARTITIONS),
            skip_quiescent: true,
            match_path: "delta".into(),
        },
    }
}

fn main() {
    phishare_bench::banner(
        "perf_negotiation_xxl",
        "partitioned matchmaking + quiescent-cycle skipping at 10^5 slots",
        "partitioned delta + quiescence ≥ 4× over the single-partition skipless delta path",
    );

    let result = gate();
    println!(
        "pool {}x{} = {} slots, {} guarded backlog jobs, {} cycles ({} active, {} quiescent), \
         {} bursts x {} arrivals ({} matched)",
        result.nodes,
        result.slots_per_node,
        result.slots,
        result.backlog_jobs,
        result.cycles,
        result.active_cycles,
        result.quiescent_cycles,
        result.bursts,
        result.arrivals_per_burst,
        result.matched
    );
    println!(
        "baseline delta: {:.1} ms   partitioned+quiescence: {:.1} ms   speedup: {:.1}x (floor {:.1}x)",
        result.baseline_ms, result.partitioned_ms, result.speedup, result.speedup_floor
    );
    if let Some(a) = result.allocs_per_quiescent_cycle {
        println!("allocations per quiescent cycle: {a:.3}");
    }
    commit_gate(
        "negotiation_xxl",
        &result,
        "partitioned matchmaking regressed",
    );
}
