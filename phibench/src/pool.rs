//! `pool_1e5`: the matchmaker alone, driven through `phishare_condor`'s
//! public API over 25 000 × 4 = 10⁵ slots in 8 collector partitions.
//!
//! One epoch is `active` cycles of traffic followed by a quiescent tail:
//!
//! * a standing backlog whose guard (`PhiFreeMemory >= 50 GB`) no slot
//!   can ever satisfy — the per-cycle cost quiescence skipping removes;
//! * every 4th cycle a burst of 50 jobs pinned to distinct slots (the
//!   scheduler's `condor_qedit` pins), and in every 4th burst one job with
//!   an open guard that only the 8 wide nodes can satisfy;
//! * every placement is completed 2–4 cycles later by writing its memory
//!   back to the node's slot ads and releasing the claim — collector
//!   writes beside the negotiator's reads;
//! * then `tail` cycles in which nothing changes.
//!
//! Epochs repeat until the epoch boundary nearest the measuring time, each
//! on a freshly set-up pool. Within an epoch a pinned node is reused only
//! after every other node has been.

use crate::host::Host;
use crate::layers::{ratio, EndToEnd, Layers};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats;
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::{ClassAd, Value};
use phishare_condor::{attrs, Collector, JobQueue, JobState, Negotiator, SlotId};
use phishare_sim::{DetRng, SimTime};
use phishare_workload::JobId;
use std::time::Instant;

/// Collector partitions (the knob `perf_negotiation_xxl` measures with).
pub const PARTITIONS: usize = 8;
const SLOTS_PER_NODE: u32 = 4;
/// Nodes with a 16 GB card: the only ones an open-guard job fits on, and
/// never the target of a pin, so an open job cannot take a pinned slot.
const WIDE_NODES: u32 = 8;
const BURST_EVERY: u64 = 4;
const ARRIVALS_PER_BURST: u64 = 50;
const OPEN_EVERY_BURSTS: u64 = 4;
const LIFETIME_MIN: u64 = 2;
const LIFETIME_MAX: u64 = 4;
const BACKLOG_MEM_MB: i64 = 50_000;
const OPEN_MEM_MB: i64 = 12_000;
/// Active cycles between two runs of the reference kernel: ten burst
/// periods. The quiescent tail runs as one block.
const BLOCK: u64 = 10 * BURST_EVERY;

/// Pool and schedule dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nodes: u32,
    pub backlog: u64,
    pub active: u64,
    pub tail: u64,
}

pub const FULL: Size = Size {
    nodes: 25_000,
    backlog: 2_000,
    active: 1_000,
    tail: 3_000,
};

/// One live placement.
struct Placement {
    release_at: u64,
    slot: SlotId,
    job: JobId,
    mem_mb: i64,
}

/// What one cycle did and how long its parts took.
#[derive(Debug, Default, Clone, Copy)]
struct Step {
    negotiate_ns: u64,
    matched: usize,
    considered: usize,
    quiescent: bool,
    writes: u64,
    write_ns: u64,
    submits: u64,
    submit_ns: u64,
}

/// The generated inputs: every slot ad and every backlog job ad.
struct Ads {
    slots: Vec<(SlotId, ClassAd)>,
    backlog: Vec<(JobId, ClassAd)>,
}

fn ads(size: Size) -> Ads {
    let mut slots = Vec::with_capacity((size.nodes * SLOTS_PER_NODE) as usize);
    for n in 1..=size.nodes {
        let (card, free) = if n <= WIDE_NODES {
            (16_384, 15_360)
        } else {
            (8_192, 7_680)
        };
        for s in 1..=SLOTS_PER_NODE {
            let id = SlotId { node: n, slot: s };
            let ad = attrs::machine_ad(&id.name(), &format!("node{n}"), 1, card, free, 1);
            slots.push((id, ad));
        }
    }
    let backlog = (0..size.backlog)
        .map(|i| (JobId(i), guarded_ad(i, BACKLOG_MEM_MB)))
        .collect();
    Ads { slots, backlog }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn int_attr(ad: &ClassAd, name: &str) -> i64 {
    match ad.get(name) {
        Some(Value::Int(i)) => *i,
        _ => 0,
    }
}

fn guarded_ad(id: u64, mem_mb: i64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, id);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    ad.insert(attrs::REQUEST_PHI_MEMORY, mem_mb);
    ad.insert_expr(
        REQUIREMENTS,
        "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
    )
    .expect("static requirements parse");
    ad
}

/// Open a span when tracing.
fn enter(tracer: &mut Option<&mut Tracer>, name: &'static str, op: u64) -> Option<usize> {
    tracer.as_deref_mut().map(|t| t.enter(name, op))
}

fn exit(tracer: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.exit(id);
    }
}

pub struct Pool {
    size: Size,
    queue: JobQueue,
    collector: Collector,
    negotiator: Negotiator,
    live: Vec<Placement>,
    next_job: u64,
    pinned_so_far: u64,
    stride: u64,
    offset: u64,
    rng: DetRng,
    /// Cycles stepped so far (span operation ids).
    cycles: u64,
}

impl Pool {
    /// Advertise every slot and submit the backlog: the set-up a pool
    /// pays once.
    fn new(size: Size, seed: u64, ads: Ads, tracer: &mut Option<&mut Tracer>) -> Pool {
        let id = enter(tracer, "condor.advertise", 0);
        let mut collector = Collector::with_partitions(PARTITIONS);
        for (slot, ad) in ads.slots {
            collector.advertise(slot, ad);
        }
        exit(tracer, id);
        let id = enter(tracer, "condor.submit", 0);
        let mut queue = JobQueue::new();
        for (job, ad) in ads.backlog {
            queue.submit(job, ad, SimTime::ZERO).expect("fresh job ids");
        }
        exit(tracer, id);
        let mut rng = DetRng::substream(seed, "pool-1e5");
        let pinnable = u64::from(size.nodes - WIDE_NODES);
        let stride = loop {
            let s = rng.uniform_u64(1, pinnable - 1);
            if gcd(s, pinnable) == 1 {
                break s;
            }
        };
        let offset = rng.uniform_u64(0, pinnable - 1);
        Pool {
            size,
            queue,
            collector,
            negotiator: Negotiator::default(),
            live: Vec::new(),
            next_job: size.backlog,
            pinned_so_far: 0,
            stride,
            offset,
            rng,
            cycles: 0,
        }
    }

    /// The slot the next pinned arrival is pinned to: consecutive
    /// arrivals walk a permutation of the narrow nodes.
    fn next_pin(&mut self) -> SlotId {
        let pinnable = u64::from(self.size.nodes - WIDE_NODES);
        let i = self.pinned_so_far;
        self.pinned_so_far += 1;
        let node = WIDE_NODES + 1 + ((self.offset + i * self.stride) % pinnable) as u32;
        let slot = 1 + self.rng.index(SLOTS_PER_NODE as usize) as u32;
        SlotId { node, slot }
    }

    /// Complete one placement: give its memory back to every slot ad of
    /// the node, release the claim, and retire the job. Returns the
    /// number of collector writes.
    fn complete(&mut self, p: &Placement) -> u64 {
        let mut writes = 0;
        for s in self.collector.node_slots(p.slot.node) {
            let ad = &self.collector.get(s).expect("listed slot exists").ad;
            let free = int_attr(ad, attrs::PHI_FREE_MEMORY) + p.mem_mb;
            let devs = int_attr(ad, attrs::PHI_DEVICES_FREE);
            self.collector
                .refresh_phi_availability(s, free as u64, devs as u32);
            writes += 1;
        }
        self.collector.release(p.slot);
        self.queue.set_running(p.job).expect("matched job starts");
        self.queue
            .set_completed(p.job)
            .expect("running job completes");
        writes + 1
    }

    /// Submit the burst due at `cycle`, if any; returns each arrival with
    /// the slot it is pinned to (`None` for the open-guard job).
    fn burst(&mut self, cycle: u64) -> Vec<(JobId, Option<SlotId>)> {
        let mut arrivals = Vec::new();
        // Bursts stop early enough that every placement is released
        // before the tail starts.
        let last = self.size.active.saturating_sub(LIFETIME_MAX + 1);
        if !cycle.is_multiple_of(BURST_EVERY) || cycle >= last {
            return arrivals;
        }
        for _ in 0..ARRIVALS_PER_BURST {
            let id = self.next_job;
            self.next_job += 1;
            let slot = self.next_pin();
            let mut ad = ClassAd::new();
            ad.insert(attrs::JOB_ID, id);
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
            ad.insert(
                attrs::REQUEST_PHI_MEMORY,
                if id % 5 == 4 { 1_000i64 } else { 3_000 },
            );
            ad.insert_expr(REQUIREMENTS, &attrs::pin_requirements(&slot.name()))
                .expect("pin requirements parse");
            self.queue
                .submit(JobId(id), ad, SimTime::ZERO)
                .expect("fresh job ids");
            arrivals.push((JobId(id), Some(slot)));
        }
        if (cycle / BURST_EVERY).is_multiple_of(OPEN_EVERY_BURSTS) {
            let id = self.next_job;
            self.next_job += 1;
            self.queue
                .submit(JobId(id), guarded_ad(id, OPEN_MEM_MB), SimTime::ZERO)
                .expect("fresh job ids");
            arrivals.push((JobId(id), None));
        }
        arrivals
    }

    /// One cycle at position `cycle` of its epoch: completions due, the
    /// burst if due, then one timed negotiation. Invariant violations are
    /// appended to `problems`.
    fn step(
        &mut self,
        cycle: u64,
        problems: &mut Vec<String>,
        mut tracer: Option<&mut Tracer>,
    ) -> Step {
        let op = self.cycles;
        self.cycles += 1;
        let mut step = Step::default();
        let span = enter(&mut tracer, "condor.cycle", op);

        let id = enter(&mut tracer, "condor.release", op);
        let t = Instant::now();
        let (due, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.live)
            .into_iter()
            .partition(|p| p.release_at <= cycle);
        self.live = keep;
        for p in &due {
            step.writes += self.complete(p);
        }
        step.write_ns = t.elapsed().as_nanos() as u64;
        exit(&mut tracer, id);

        let id = enter(&mut tracer, "condor.submit", op);
        let t = Instant::now();
        let expected = self.burst(cycle);
        step.submit_ns = t.elapsed().as_nanos() as u64;
        step.submits = expected.len() as u64;
        exit(&mut tracer, id);

        step.quiescent = Negotiator::cycle_is_quiescent(&self.queue, &self.collector);
        let id = enter(&mut tracer, "condor.negotiate", op);
        let t = Instant::now();
        let (matches, stats) = self
            .negotiator
            .negotiate_with_stats(&mut self.queue, &mut self.collector);
        step.negotiate_ns = t.elapsed().as_nanos() as u64;
        exit(&mut tracer, id);
        exit(&mut tracer, span);
        step.matched = stats.matched;
        step.considered = stats.considered;

        if cycle >= self.size.active && !(step.quiescent && matches.is_empty()) {
            problems.push(format!("tail cycle {cycle} was not quiescent"));
        }
        if matches.len() != expected.len() {
            problems.push(format!(
                "cycle {cycle}: {} arrivals but {} matches",
                expected.len(),
                matches.len()
            ));
        }
        for m in &matches {
            if m.job.raw() < self.size.backlog {
                problems.push(format!("backlog job {} matched {}", m.job.raw(), m.slot));
                continue;
            }
            let placed_right = match expected.iter().find(|(job, _)| *job == m.job) {
                Some((_, Some(pinned))) => m.slot == *pinned,
                Some((_, None)) => m.slot.node <= WIDE_NODES,
                None => false,
            };
            let job = self.queue.get(m.job).expect("matched job is queued");
            if !placed_right || job.state != JobState::Matched(m.slot) {
                problems.push(format!("job {} matched unexpected {}", m.job.raw(), m.slot));
                continue;
            }
            let mem_mb = int_attr(&job.ad, attrs::REQUEST_PHI_MEMORY);
            let lifetime = self.rng.uniform_u64(LIFETIME_MIN, LIFETIME_MAX);
            self.live.push(Placement {
                release_at: cycle + lifetime,
                slot: m.slot,
                job: m.job,
                mem_mb,
            });
        }
        step
    }

    /// One epoch; `on_step` sees every cycle with its position and the
    /// factor that reads its times at reference speed. With a `host`, a
    /// reading follows every block of cycles; without, the factor is 1.
    fn epoch(
        &mut self,
        mut host: Option<&mut Host>,
        tracer: &mut Option<&mut Tracer>,
        out: &mut Outcome,
        mut on_step: impl FnMut(u64, &Step, f64),
    ) {
        let end = self.size.active + self.size.tail;
        let mut start = 0;
        while start < end {
            let stop = if start < self.size.active {
                (start + BLOCK).min(self.size.active)
            } else {
                end
            };
            let mut block = |pool: &mut Pool| -> Vec<(Step, Vec<String>)> {
                (start..stop)
                    .map(|cycle| {
                        let mut problems = Vec::new();
                        let step = pool.step(cycle, &mut problems, tracer.as_deref_mut());
                        (step, problems)
                    })
                    .collect()
            };
            let (steps, scale) = match host.as_deref_mut() {
                Some(host) => {
                    let (steps, t) = host.time(|| block(self));
                    (steps, t.scale)
                }
                None => (block(self), 1.0),
            };
            for (cycle, (step, problems)) in (start..).zip(steps) {
                on_step(cycle, &step, scale);
                out.op(problems);
            }
            start = stop;
        }
    }
}

/// Set up a pool, timed at reference speed into `setup_s` (seconds): the
/// slot ads generated and advertised, and the backlog submitted.
fn set_up(host: &mut Host, size: Size, seed: u64, setup_s: &mut Vec<f64>) -> Pool {
    let (pool, t) = host.time(|| Pool::new(size, seed, ads(size), &mut None));
    setup_s.push(t.ms() / 1e3);
    pool
}

/// Warm-up: one untimed cycle. Its placements are released during the
/// first measured cycles, like any other.
fn warm_up(pool: &mut Pool, out: &mut Outcome) {
    let mut problems = Vec::new();
    pool.step(0, &mut problems, None);
    out.check(problems.is_empty(), || problems.join("; "));
}

/// One run of `pool_1e5`. Returns the span recorder when `traced`.
pub fn run(
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<Option<Tracer>, String> {
    let mut host = Host::new(1);
    // Set up at least 3 times, until 0.5 s is spent, for `setup_s`; every
    // epoch below sets up again.
    let mut setup_s = Vec::new();
    let started = Instant::now();
    while setup_s.len() < 3 || (setup_s.len() < 200 && started.elapsed().as_secs_f64() < 0.5) {
        drop(set_up(&mut host, size, seed, &mut setup_s));
    }

    // Per active cycle, the negotiation latency (at reference speed, and
    // as measured); per burst period of the active phase, the layers' time
    // (collector writes, submits and negotiation) and the jobs placed.
    let (mut active_ms, mut raw_active_ms) = (Vec::new(), Vec::new());
    let (mut period_ms, mut placed) = (Vec::new(), 0u64);
    let mut epoch_ms = Vec::new();
    let started = Instant::now();
    while stats::another_op(started, &epoch_ms, seconds) {
        let t = Instant::now();
        // A fresh pool per epoch, set up after the last one is dropped:
        // the queue keeps every job it has seen, so a pool that lived on
        // would grow, and peak memory would hang on the number of epochs.
        let mut pool = set_up(&mut host, size, seed, &mut setup_s);
        warm_up(&mut pool, out);
        pool.epoch(Some(&mut host), &mut None, out, |cycle, step, scale| {
            if cycle >= size.active {
                return;
            }
            let ms = step.negotiate_ns as f64 / 1e6;
            raw_active_ms.push(ms);
            active_ms.push(ms * scale);
            if cycle.is_multiple_of(BURST_EVERY) {
                period_ms.push(0.0);
            }
            if let Some(last) = period_ms.last_mut() {
                *last += (step.write_ns + step.submit_ns + step.negotiate_ns) as f64 / 1e6 * scale;
            }
            placed += step.matched as u64;
        });
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (tail_pct, _) = stats::tail(&active_ms);
    out.check(size.active < FULL.active || tail_pct == 99, || {
        format!(
            "{} active cycles leave fewer than 10 beyond p99",
            active_ms.len()
        )
    });
    if !traced {
        let per_period = placed as f64 / period_ms.len() as f64;
        EndToEnd {
            setup_s: stats::median(&setup_s),
            jobs_per_s: per_period * 1e3 / stats::median(&period_ms),
            latency_ms: stats::median(&active_ms),
        }
        .put(&mut out.metrics)?;
        return Ok(None);
    }

    // Traced pass: set up again and run one epoch, with spans.
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let wall = Instant::now();
    let inputs = tracer.span("workload.build", 0, || ads(size));
    let slots = inputs.slots.len() as f64;
    let mut pool = Pool::new(size, seed, inputs, &mut Some(&mut tracer));
    layers.workload_build_ms = tracer.self_ms("workload.build");
    layers.condor_advertised_per_ms = ratio(slots, tracer.self_ms("condor.advertise"));
    warm_up(&mut pool, out);

    let mut traced_active_ms = Vec::new();
    let (mut negotiate_ns, mut write_ns, mut submit_ns) = (0u64, 0u64, 0u64);
    let (mut submits, mut considered) = (0u64, 0u64);
    let loop_started = Instant::now();
    pool.epoch(None, &mut Some(&mut tracer), out, |cycle, step, _| {
        layers.condor_cycles += 1.0;
        layers.condor_cycles_skipped += f64::from(u8::from(step.quiescent));
        layers.condor_matched += step.matched as f64;
        considered += step.considered as u64;
        layers.condor_writes += step.writes as f64;
        negotiate_ns += step.negotiate_ns;
        write_ns += step.write_ns;
        submit_ns += step.submit_ns;
        submits += step.submits;
        if cycle < size.active {
            traced_active_ms.push(step.negotiate_ns as f64 / 1e6);
        }
    });
    let loop_ms = loop_started.elapsed().as_secs_f64() * 1e3;
    layers.condor_considered = considered as f64;
    layers.condor_match_ratio = ratio(layers.condor_matched, considered as f64);
    layers.condor_cycles_per_s = ratio(layers.condor_cycles * 1e3, loop_ms);
    layers.condor_negotiate_share = ratio(negotiate_ns as f64 / 1e6, loop_ms);
    layers.condor_writes_per_ms = ratio(layers.condor_writes * 1e6, write_ns as f64);
    layers.condor_submits_per_ms = ratio(submits as f64 * 1e6, submit_ns as f64);
    layers.trace_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    layers.trace_overhead_pct = 100.0
        * (ratio(
            stats::median(&traced_active_ms),
            stats::median(&raw_active_ms),
        ) - 1.0);
    layers.trace_spans = tracer.spans().len() as f64;
    layers.set_tail(&active_ms);
    layers.host_kernel_ms = host.kernel_ms();
    layers.put(&mut out.metrics);
    Ok(Some(tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 × 4 slots: pinned nodes are reused within an epoch, after
    /// their earlier placements were released.
    const SMALL: Size = Size {
        nodes: 200,
        backlog: 50,
        active: 80,
        tail: 20,
    };

    #[test]
    fn pool_smoke() {
        for traced in [false, true] {
            let mut out = Outcome::default();
            let tracer = run(SMALL, 3, 0.01, traced, &mut out).unwrap();
            assert!(out.correct(), "{:?}", out.problems);
            // The traced pass runs one more epoch.
            let epochs = 1 + u64::from(traced);
            assert_eq!(out.attempted, epochs * (SMALL.active + SMALL.tail));
            assert_eq!(tracer.is_some(), traced);
            if traced {
                let m = |name| out.metrics.get(name).unwrap();
                assert!(m("condor.matched") > 0.0);
                assert!(m("condor.cycles_skipped") >= SMALL.tail as f64);
                assert_eq!(m("sim.events"), 0.0);
            } else {
                assert!(out.metrics.get("jobs_per_s").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn a_misplaced_match_is_reported() {
        let mut pool = Pool::new(SMALL, 3, ads(SMALL), &mut None);
        let mut problems = Vec::new();
        // Cycle 0 brings a burst; pretend it was cycle 1, when none is due.
        let arrivals = pool.burst(0);
        assert!(!arrivals.is_empty());
        pool.step(1, &mut problems, None);
        assert!(
            problems.iter().any(|p| p.contains("0 arrivals")),
            "{problems:?}"
        );
    }
}
