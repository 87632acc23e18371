//! The cluster-level scheduler: one pin ledger and one device-round loop
//! shared by the three packing rules — MCC's random selection, MCCK's
//! knapsack (Fig. 4) and the clairvoyant LPT comparator.

use crate::policy::ClusterPolicy;
use phishare_knapsack::{
    prep_1d, prep_2d, solve_1d_filtered_with, solve_2d_with, solve_prepped_1d_with,
    solve_prepped_2d_with, Capacity, DpScratch, PackItem, ValueFunction,
};
use phishare_sim::DetRng;
use phishare_workload::JobId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// A pending job as the cluster scheduler sees it: only the declared
/// envelope (the paper's explicit assumption — no execution times, no
/// profiles, §IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingJob {
    /// The job.
    pub id: JobId,
    /// Declared device memory, MB.
    pub mem_mb: u64,
    /// Declared threads.
    pub threads: u32,
    /// Nominal execution time in seconds. The paper's schedulers must NOT
    /// rely on this ("users usually cannot specify them accurately",
    /// §IV-B) — it exists for the clairvoyant upper-bound comparator
    /// ([`ClusterPolicy::Oracle`]), which quantifies how much MCCK loses by
    /// not knowing it.
    pub nominal_secs: f64,
}

/// One coprocessor's free envelope as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceView {
    /// The node hosting the device.
    pub node: u32,
    /// Device index on the node.
    pub device: u32,
    /// Declared memory not yet allocated to resident jobs, MB.
    pub free_declared_mb: u64,
    /// Declared threads of currently resident jobs (used only by the strict
    /// `count_resident_threads` ablation).
    pub resident_threads: u32,
}

/// A placement decision: pin `job` to a specific device.
///
/// Condor-side the pin is expressed at node granularity (`Machine == …`),
/// but the packing is per *device* (each knapsack is one coprocessor,
/// §IV-C) — the runtime must honor the planned device, or an order-dependent
/// re-placement at match time can break a feasible multi-device plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The job to pin.
    pub job: JobId,
    /// The destination node.
    pub node: u32,
    /// The destination device on that node.
    pub device: u32,
}

/// Cumulative counters for the planning fast path, surfaced through
/// cluster reports so sweeps expose planner cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Per-device solves answered from the memo cache — no DP ran.
    pub cache_hits: u64,
    /// Per-device solves that ran the DP (and populated the cache).
    pub cache_misses: u64,
}

/// Which DP formulation MCCK uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KnapsackVariant {
    /// 2-D DP over (memory, threads) — thread-feasible by construction.
    #[default]
    TwoD,
    /// Paper-literal 1-D memory DP with thread repair (ablation).
    OneDFiltered,
}

/// Which planning implementation MCCK runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlannerMode {
    /// The planning fast path: fit-filtered, multiplicity-truncated
    /// instances solved through a content-addressed memo cache.
    /// Bit-identical to [`PlannerMode::NaiveSerial`] by construction (and
    /// by differential proptest), up to the one-ulp ties a truncated
    /// duplicate can win (`phishare_knapsack::prep`).
    #[default]
    Fast,
    /// The seed's serial per-device DP loop, retained as the differential
    /// oracle (the PR 1 / PR 2 pattern).
    NaiveSerial,
}

/// MCCK configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnapsackConfig {
    /// Job value function (paper Eq. 1 by default).
    pub value_fn: ValueFunction,
    /// Memory discretization, MB (paper §IV-C: 50 MB).
    pub granularity_mb: u64,
    /// Hardware thread limit per device.
    pub thread_limit: u32,
    /// DP formulation.
    pub variant: KnapsackVariant,
    /// At most this many FIFO-pending jobs are considered per packing round,
    /// bounding each DP at `O(window · W · T)`.
    pub window: usize,
    /// Subtract resident jobs' declared threads from the per-round thread
    /// budget. `true` (the default) matches the paper's constraint that
    /// "the number of threads of **all concurrent jobs** must not exceed
    /// the number of hardware threads" — it keeps every device's declared
    /// thread sum within hardware, which is exactly why the paper calls
    /// COSMIC "not absolutely necessary" under MCCK. `false` applies the
    /// value-zero rule only to each round's newly packed set, deferring
    /// thread excess to COSMIC's run-time serialization (ablation).
    pub count_resident_threads: bool,
    /// Factor applied to the device thread budget when
    /// `count_resident_threads` is on. Declared thread counts are
    /// *per-offload maxima*, not sustained usage — "for many jobs,
    /// performance saturates at a lower level of parallelization" (paper
    /// footnote 1), and jobs spend their host phases using zero device
    /// threads. Budgeting declarations at face value strands capacity;
    /// a modest overcommit recovers it, and COSMIC serializes the rare
    /// transient excess. 1.0 = strict.
    pub thread_overcommit: f64,
    /// Planning implementation ([`PlannerMode::Fast`] by default;
    /// [`PlannerMode::NaiveSerial`] is the differential oracle).
    pub planner: PlannerMode,
}

impl Default for KnapsackConfig {
    fn default() -> Self {
        KnapsackConfig {
            value_fn: ValueFunction::PaperQuadratic,
            granularity_mb: 50,
            thread_limit: 240,
            variant: KnapsackVariant::TwoD,
            window: 256,
            count_resident_threads: true,
            thread_overcommit: 1.5,
            planner: PlannerMode::Fast,
        }
    }
}

impl KnapsackConfig {
    /// The per-device thread budget of MCCK and the oracle, and so the most
    /// threads one of their jobs may declare. With `count_resident_threads`
    /// it is the overcommitted hardware limit, shared by resident jobs and
    /// outstanding pins; in the lax ablation it is the bare hardware limit,
    /// applied to each round's newly packed set alone.
    pub fn thread_budget(&self) -> u32 {
        if self.count_resident_threads {
            (self.thread_limit as f64 * self.thread_overcommit).round() as u32
        } else {
            self.thread_limit
        }
    }
}

/// Entries the solve cache holds before it is wholesale cleared. The cache
/// is a pure memo (values never depend on cache state), so eviction is
/// always safe — this only bounds memory on pathological workloads.
const PLAN_CACHE_CAP: usize = 4096;

/// Content-addressed identity of one device solve. Two solves with equal
/// keys see byte-identical DP inputs — same capacity in memory units, same
/// raw thread budget (which fixes both the thread-unit dimension and the
/// per-item thread filter), and the same ordered sequence of effective
/// `(memory units, declared threads)` items (thread units and item values
/// both derive from declared threads; the scheduler's remaining knobs are
/// fixed per instance) — so the full DP, including its FIFO tie-breaks,
/// is determined. Keys are compared in full on lookup, never by hash
/// alone, so collisions cannot smuggle in a wrong packing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SolveKey {
    w_max: usize,
    thread_budget: u32,
    items: Vec<(usize, u32)>,
}

/// The external cluster scheduler of MCC, MCCK and the oracle: it reads
/// the pending queue and the device views each negotiation cycle and
/// answers with device pins, keeping its own ledger of pins Condor has not
/// dispatched yet.
#[derive(Debug)]
pub struct ClusterScheduler {
    cfg: KnapsackConfig,
    ledger: Ledger,
    packer: Packer,
}

/// How each policy fills a device.
#[derive(Debug)]
enum Packer {
    /// MCC: arbitrary selection, constrained only by declared-memory fit;
    /// COSMIC cleans up the rest at the node level (§V: "jobs are packed
    /// arbitrarily to Xeon Phi coprocessors").
    Random(DetRng),
    /// MCCK: a 0-1 knapsack per device round (Fig. 4).
    Knapsack(Knapsack),
    /// The oracle: longest nominal time first, under MCCK's budgets — the
    /// execution-time knowledge the paper refuses to assume (§IV-B).
    Lpt,
}

/// MCCK's solver state.
#[derive(Debug, Default)]
struct Knapsack {
    /// DP buffers reused across packing rounds (one knapsack per device per
    /// round; the table shapes repeat, so reuse eliminates the allocations).
    scratch: DpScratch,
    /// Memo of solved instances: [`SolveKey`] → selected positions into the
    /// prepped item list. Content-addressed, so it never goes stale: every
    /// invalidation event (dispatch, completion, fault reset, node churn)
    /// reaches the scheduler as an `unpin` call or a changed device view,
    /// both of which change the key of any affected solve rather than
    /// requiring an eviction.
    cache: HashMap<SolveKey, Vec<usize>>,
    stats: PlanStats,
    /// The window as packing items, refilled by every `select`.
    items: Vec<PackItem>,
}

/// Jobs pinned but not yet dispatched, with their destination device and
/// declared envelope. They still look `Idle` in the queue and the device
/// views do not count them, so every round plans net of this ledger.
#[derive(Debug, Default)]
struct Ledger(BTreeMap<JobId, Booking>);

#[derive(Debug, Clone, Copy)]
struct Booking {
    node: u32,
    device: u32,
    mem_mb: u64,
    threads: u32,
}

impl ClusterScheduler {
    /// The scheduler `policy` runs, or `None` for MC, whose jobs claim
    /// whole cards through Condor matchmaking alone. MCC draws from the
    /// `seed`'s own substream; MCCK and the oracle pack under `cfg`.
    pub fn new(policy: ClusterPolicy, cfg: &KnapsackConfig, seed: u64) -> Option<Self> {
        let packer = match policy {
            ClusterPolicy::Mc => return None,
            ClusterPolicy::Mcc => Packer::Random(DetRng::substream(seed, "mcc-random-scheduler")),
            ClusterPolicy::Mcck => {
                assert!(cfg.window > 0, "candidate window must be positive");
                assert!(cfg.granularity_mb > 0, "granularity must be positive");
                Packer::Knapsack(Knapsack::default())
            }
            ClusterPolicy::Oracle => Packer::Lpt,
        };
        Some(ClusterScheduler {
            cfg: *cfg,
            ledger: Ledger::default(),
            packer,
        })
    }

    /// Compute placements for `pending` jobs (FIFO order) onto `devices`,
    /// net of the outstanding pins, and book them as outstanding.
    pub fn plan(&mut self, pending: &[PendingJob], devices: &[DeviceView]) -> Vec<Pin> {
        let (cfg, ledger) = (&self.cfg, &mut self.ledger);
        match &mut self.packer {
            Packer::Random(rng) => random_round(rng, ledger, pending, devices),
            Packer::Knapsack(k) => device_rounds(cfg, ledger, pending, devices, |jobs, cap| {
                k.select(cfg, jobs, cap)
            }),
            Packer::Lpt => device_rounds(cfg, ledger, pending, devices, lpt),
        }
    }

    /// Drop `job`'s outstanding pin: Condor dispatched it (its memory now
    /// shows up in the device view), or the job left the system or had its
    /// pin pulled back without dispatching.
    pub fn unpin(&mut self, job: JobId) {
        self.ledger.0.remove(&job);
    }

    /// Number of pins awaiting dispatch.
    pub fn outstanding_pins(&self) -> usize {
        self.ledger.0.len()
    }

    /// Planning-cache counters (all zero without MCCK's solve cache).
    pub fn plan_stats(&self) -> PlanStats {
        match &self.packer {
            Packer::Knapsack(k) => k.stats,
            _ => PlanStats::default(),
        }
    }
}

/// Outstanding `(memory, threads)` pinned to each device, keyed by
/// `(node, device)`.
type Booked = HashMap<(u32, u32), (u64, u32)>;

impl Ledger {
    fn holds(&self, job: JobId) -> bool {
        self.0.contains_key(&job)
    }

    /// Every device's outstanding pins, summed in one pass over the ledger.
    fn booked(&self) -> Booked {
        let mut booked = Booked::new();
        for b in self.0.values() {
            let (mem, threads) = booked.entry((b.node, b.device)).or_default();
            *mem += b.mem_mb;
            *threads += b.threads;
        }
        booked
    }

    fn book(&mut self, job: &PendingJob, device: &DeviceView) -> Pin {
        self.0.insert(
            job.id,
            Booking {
                node: device.node,
                device: device.device,
                mem_mb: job.mem_mb,
                threads: job.threads,
            },
        );
        Pin {
            job: job.id,
            node: device.node,
            device: device.device,
        }
    }
}

/// This round's knapsack on `device`, net of its outstanding pins
/// `(mem, threads)`; `None` when no memory is free.
fn capacity(
    cfg: &KnapsackConfig,
    device: &DeviceView,
    (mem, threads): (u64, u32),
) -> Option<Capacity> {
    let free = device.free_declared_mb.saturating_sub(mem);
    if free == 0 {
        return None;
    }
    let spoken_for = if cfg.count_resident_threads {
        device.resident_threads + threads
    } else {
        0
    };
    Some(Capacity {
        mem_mb: free,
        granularity_mb: cfg.granularity_mb,
        thread_limit: cfg.thread_budget().saturating_sub(spoken_for),
        // Eq. (1) always normalizes by the hardware thread count, even
        // when the strict ablation shrinks the packing budget.
        value_ref_threads: cfg.thread_limit,
    })
}

/// MCC's round: visit the pending jobs in random order, placing each on a
/// random device whose free memory, net of outstanding pins, still holds
/// it.
fn random_round(
    rng: &mut DetRng,
    ledger: &mut Ledger,
    pending: &[PendingJob],
    devices: &[DeviceView],
) -> Vec<Pin> {
    let booked = ledger.booked();
    let mut free: Vec<u64> = devices
        .iter()
        .map(|d| {
            let (mem, _) = booked.get(&(d.node, d.device)).copied().unwrap_or_default();
            d.free_declared_mb.saturating_sub(mem)
        })
        .collect();
    let mut order: Vec<usize> = (0..pending.len()).collect();
    rng.shuffle(&mut order);
    let mut pins = Vec::new();
    for job in order.into_iter().map(|i| &pending[i]) {
        if ledger.holds(job.id) {
            continue;
        }
        let fits: Vec<usize> = (0..free.len()).filter(|&d| free[d] >= job.mem_mb).collect();
        if fits.is_empty() {
            continue;
        }
        let pick = *rng.choose(&fits);
        free[pick] -= job.mem_mb;
        pins.push(ledger.book(job, &devices[pick]));
    }
    pins
}

/// Greedy at the cluster level: fill one device after another (Fig. 4).
/// Devices with more free memory are packed first so the fullest knapsacks
/// get the pick of the queue. Each device's round offers `select` the FIFO
/// window of jobs not pinned yet and the device's capacity net of every
/// pin so far; `select` answers with positions into that window, in pin
/// order. The unpinned jobs and every device's booked totals are taken
/// once per call and kept current as rounds book pins.
///
/// A device whose capacity is below the component-wise smallest
/// `(mem_mb, threads)` of the unpinned jobs is skipped: no window job fits
/// it alone, so its round would pack nothing (every packer drops such jobs
/// before it solves or consults the plan cache). Pinning only shrinks the
/// unpinned set, so the minimum taken once per call stays a lower bound.
fn device_rounds(
    cfg: &KnapsackConfig,
    ledger: &mut Ledger,
    pending: &[PendingJob],
    devices: &[DeviceView],
    mut select: impl FnMut(&[&PendingJob], &Capacity) -> Vec<usize>,
) -> Vec<Pin> {
    let mut unpinned: Vec<&PendingJob> = pending.iter().filter(|j| !ledger.holds(j.id)).collect();
    let Some((min_mem, min_threads)) = unpinned
        .iter()
        .map(|j| (j.mem_mb, j.threads))
        .reduce(|(m, t), (jm, jt)| (m.min(jm), t.min(jt)))
    else {
        return Vec::new();
    };
    let mut booked = ledger.booked();
    let mut order: Vec<&DeviceView> = devices.iter().collect();
    order.sort_by(|a, b| {
        b.free_declared_mb
            .cmp(&a.free_declared_mb)
            .then(a.node.cmp(&b.node))
            .then(a.device.cmp(&b.device))
    });
    let mut pins = Vec::new();
    for device in order {
        let on_device = booked.entry((device.node, device.device)).or_default();
        let Some(cap) = capacity(cfg, device, *on_device) else {
            continue;
        };
        if cap.mem_mb < min_mem || cap.thread_limit < min_threads {
            continue;
        }
        let window = &unpinned[..unpinned.len().min(cfg.window)];
        let mut picks = select(window, &cap);
        for &pos in &picks {
            let job = window[pos];
            on_device.0 += job.mem_mb;
            on_device.1 += job.threads;
            pins.push(ledger.book(job, device));
        }
        picks.sort_unstable();
        for pos in picks.into_iter().rev() {
            unpinned.remove(pos);
        }
        if unpinned.is_empty() {
            break;
        }
    }
    pins
}

/// The oracle's round: longest nominal time first (ties by id), each job
/// taken while the round's memory and thread budget still hold it. Jobs
/// that cannot fit alone are dropped before the sort, which orders by the
/// bits of the duration: non-negative finite `f64`s order like their bits.
fn lpt(window: &[&PendingJob], cap: &Capacity) -> Vec<usize> {
    let mut order: Vec<(Reverse<u64>, JobId, usize)> = window
        .iter()
        .enumerate()
        .filter(|(_, job)| {
            let secs = job.nominal_secs;
            assert!(secs.is_finite() && secs >= 0.0, "finite durations: {secs}");
            job.mem_mb <= cap.mem_mb && job.threads <= cap.thread_limit
        })
        // `abs` folds -0.0 into 0.0, which the value order ties.
        .map(|(pos, job)| (Reverse(job.nominal_secs.abs().to_bits()), job.id, pos))
        .collect();
    order.sort_unstable();
    let (mut mem, mut threads) = (cap.mem_mb, cap.thread_limit);
    order
        .into_iter()
        .filter_map(|(_, _, pos)| {
            let job = window[pos];
            let fits = job.mem_mb <= mem && job.threads <= threads;
            if fits {
                mem -= job.mem_mb;
                threads -= job.threads;
            }
            fits.then_some(pos)
        })
        .collect()
}

impl Knapsack {
    /// Pack one device's knapsack from the window: the "create knapsack:
    /// capacity = free memory in D" step of Fig. 4. [`PlannerMode::Fast`]
    /// preprocesses the instance and answers from the memo cache when it
    /// can; it is bit-identical to the naive solve because the prepped
    /// solvers share their DP cores with the raw ones and the
    /// [`SolveKey`] captures every input the solve depends on.
    fn select(
        &mut self,
        cfg: &KnapsackConfig,
        window: &[&PendingJob],
        cap: &Capacity,
    ) -> Vec<usize> {
        self.items.clear();
        self.items
            .extend(window.iter().enumerate().map(|(index, j)| PackItem {
                index,
                mem_mb: j.mem_mb,
                threads: j.threads,
            }));
        let items = &self.items[..];
        let (variant, value_fn) = (cfg.variant, cfg.value_fn);
        if cfg.planner == PlannerMode::NaiveSerial {
            let scratch = &mut self.scratch;
            let packing = match variant {
                KnapsackVariant::TwoD => solve_2d_with(items, cap, value_fn, scratch),
                KnapsackVariant::OneDFiltered => {
                    solve_1d_filtered_with(items, cap, value_fn, scratch)
                }
            };
            return packing.selected;
        }
        let pre = match variant {
            KnapsackVariant::TwoD => prep_2d(items, cap),
            KnapsackVariant::OneDFiltered => prep_1d(items, cap),
        };
        if pre.items.is_empty() {
            // The raw solver would return an empty packing; skip the cache.
            return Vec::new();
        }
        let key = SolveKey {
            w_max: pre.w_max,
            thread_budget: pre.thread_limit,
            items: pre.items.iter().map(|it| (it.w, it.threads)).collect(),
        };
        let positions = if let Some(hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            hit.clone()
        } else {
            self.stats.cache_misses += 1;
            let scratch = &mut self.scratch;
            let (positions, _) = match variant {
                KnapsackVariant::TwoD => solve_prepped_2d_with(&pre, value_fn, scratch),
                KnapsackVariant::OneDFiltered => solve_prepped_1d_with(&pre, value_fn, scratch),
            };
            if self.cache.len() >= PLAN_CACHE_CAP {
                // Pure memo: clearing can cost recomputation, never
                // correctness.
                self.cache.clear();
            }
            self.cache.insert(key, positions.clone());
            positions
        };
        positions.iter().map(|&p| pre.items[p].pos).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, mem_mb: u64, threads: u32) -> PendingJob {
        PendingJob {
            id: JobId(id),
            mem_mb,
            threads,
            nominal_secs: 30.0,
        }
    }

    fn timed_job(id: u64, mem_mb: u64, threads: u32, nominal_secs: f64) -> PendingJob {
        PendingJob {
            id: JobId(id),
            mem_mb,
            threads,
            nominal_secs,
        }
    }

    fn dev(node: u32, free: u64) -> DeviceView {
        DeviceView {
            node,
            device: 0,
            free_declared_mb: free,
            resident_threads: 0,
        }
    }

    fn mcck(cfg: KnapsackConfig) -> ClusterScheduler {
        ClusterScheduler::new(ClusterPolicy::Mcck, &cfg, 0).unwrap()
    }

    fn mcc(seed: u64) -> ClusterScheduler {
        ClusterScheduler::new(ClusterPolicy::Mcc, &KnapsackConfig::default(), seed).unwrap()
    }

    fn oracle() -> ClusterScheduler {
        ClusterScheduler::new(ClusterPolicy::Oracle, &KnapsackConfig::default(), 0).unwrap()
    }

    #[test]
    fn knapsack_packs_for_concurrency() {
        let mut s = mcck(KnapsackConfig::default());
        let pending = vec![
            job(0, 4000, 240),
            job(1, 2000, 80),
            job(2, 2000, 80),
            job(3, 3000, 80),
        ];
        let pins = s.plan(&pending, &[dev(1, 7680)]);
        let pinned: Vec<u64> = pins.iter().map(|p| p.job.raw()).collect();
        assert_eq!(pinned, vec![1, 2, 3]);
        assert!(pins.iter().all(|p| p.node == 1));
    }

    #[test]
    fn no_job_is_pinned_twice_across_devices() {
        let mut s = mcck(KnapsackConfig::default());
        let pending: Vec<PendingJob> = (0..6).map(|i| job(i, 3000, 60)).collect();
        let pins = s.plan(&pending, &[dev(1, 7680), dev(2, 7680)]);
        let mut ids: Vec<u64> = pins.iter().map(|p| p.job.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pins.len());
        // 2 jobs of 3000 MB per 7680 MB device → 4 total.
        assert_eq!(pins.len(), 4);
        assert_eq!(s.outstanding_pins(), 4);
    }

    #[test]
    fn outstanding_pins_shrink_capacity_until_dispatch() {
        let mut s = mcck(KnapsackConfig::default());
        let pending = vec![job(0, 4000, 60)];
        let pins = s.plan(&pending, &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
        // Same device view (dispatch hasn't happened): a second 4000 MB job
        // must NOT be placed — only 3680 MB is really free.
        let pending2 = vec![job(0, 4000, 60), job(1, 4000, 60)];
        let pins2 = s.plan(&pending2, &[dev(1, 7680)]);
        assert!(pins2.is_empty(), "overcommitted: {pins2:?}");
        // After dispatch the view itself accounts for job 0.
        s.unpin(JobId(0));
        let pins3 = s.plan(&[job(1, 4000, 60)], &[dev(1, 3680)]);
        assert!(pins3.is_empty()); // 4000 > 3680
        let pins4 = s.plan(&[job(1, 3000, 60)], &[dev(1, 3680)]);
        assert_eq!(pins4.len(), 1);
    }

    #[test]
    fn fullest_devices_pack_first() {
        let mut s = mcck(KnapsackConfig::default());
        let pending = vec![job(0, 5000, 60)];
        let pins = s.plan(&pending, &[dev(1, 2000), dev(2, 7680)]);
        assert_eq!(
            pins,
            vec![Pin {
                job: JobId(0),
                node: 2,
                device: 0
            }]
        );
    }

    #[test]
    fn window_bounds_candidates() {
        let cfg = KnapsackConfig {
            window: 2,
            ..KnapsackConfig::default()
        };
        let mut s = mcck(cfg);
        // Jobs beyond the window are invisible even though they'd fit.
        let pending: Vec<PendingJob> = (0..10).map(|i| job(i, 100, 4)).collect();
        let pins = s.plan(&pending, &[dev(1, 7680)]);
        assert_eq!(pins.len(), 2);
    }

    #[test]
    fn strict_mode_respects_resident_threads() {
        let cfg = KnapsackConfig {
            thread_overcommit: 1.0,
            ..KnapsackConfig::default()
        };
        let mut s = mcck(cfg);
        let view = DeviceView {
            node: 1,
            device: 0,
            free_declared_mb: 7000,
            resident_threads: 200,
        };
        // Only 40 threads of budget remain: the 60-thread job is refused,
        // a 40-thread job packs.
        assert!(s.plan(&[job(0, 1000, 60)], &[view]).is_empty());
        assert_eq!(s.plan(&[job(1, 1000, 40)], &[view]).len(), 1);
    }

    #[test]
    fn lax_mode_ignores_resident_threads() {
        let cfg = KnapsackConfig {
            count_resident_threads: false,
            ..KnapsackConfig::default()
        };
        let mut s = mcck(cfg);
        let view = DeviceView {
            node: 1,
            device: 0,
            free_declared_mb: 7000,
            resident_threads: 240,
        };
        // Ablation behaviour: freed memory is repacked regardless of
        // resident threads; COSMIC serializes at run time.
        assert_eq!(s.plan(&[job(0, 1000, 240)], &[view]).len(), 1);
    }

    #[test]
    fn job_gone_releases_outstanding_capacity() {
        let mut s = mcck(KnapsackConfig::default());
        s.plan(&[job(0, 7000, 60)], &[dev(1, 7680)]);
        assert_eq!(s.outstanding_pins(), 1);
        s.unpin(JobId(0));
        let pins = s.plan(&[job(1, 7000, 60)], &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
    }

    #[test]
    fn random_scheduler_respects_memory() {
        let mut s = mcc(42);
        let pending: Vec<PendingJob> = (0..20).map(|i| job(i, 3000, 240)).collect();
        let pins = s.plan(&pending, &[dev(1, 7680), dev(2, 7680)]);
        // 2 jobs of 3000 MB fit per device.
        assert_eq!(pins.len(), 4);
        for node in [1, 2] {
            let mem: u64 = pins.iter().filter(|p| p.node == node).map(|_| 3000).sum();
            assert!(mem <= 7680);
        }
    }

    #[test]
    fn random_scheduler_is_seed_deterministic_but_random() {
        let pending: Vec<PendingJob> = (0..30).map(|i| job(i, 2000, 120)).collect();
        let devs = [dev(1, 7680), dev(2, 7680)];
        let a = mcc(1).plan(&pending, &devs);
        let b = mcc(1).plan(&pending, &devs);
        assert_eq!(a, b);
        let c = mcc(2).plan(&pending, &devs);
        assert_ne!(a, c, "different seeds should pick different jobs");
    }

    #[test]
    fn clairvoyant_prefers_longest_jobs() {
        let mut s = oracle();
        let pending = vec![
            timed_job(0, 3000, 60, 10.0),
            timed_job(1, 3000, 60, 50.0),
            timed_job(2, 3000, 60, 30.0),
        ];
        // Only two fit in memory: the two longest are chosen.
        let pins = s.plan(&pending, &[dev(1, 7000)]);
        let ids: Vec<u64> = pins.iter().map(|p| p.job.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn clairvoyant_respects_budgets_and_outstanding() {
        let mut s = oracle();
        let pins = s.plan(&[timed_job(0, 7000, 240, 9.0)], &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
        // Capacity is spoken for until dispatch.
        let pins2 = s.plan(
            &[timed_job(0, 7000, 240, 9.0), timed_job(1, 7000, 60, 99.0)],
            &[dev(1, 7680)],
        );
        assert!(pins2.is_empty());
        s.unpin(JobId(0));
        assert_eq!(s.outstanding_pins(), 0);
    }

    #[test]
    fn devices_that_fit_no_unpinned_job_are_skipped() {
        let cfg = KnapsackConfig::default();
        let pending: Vec<PendingJob> = (0..6).map(|i| job(i, 3000, 60)).collect();
        // Below every job's memory, and below every job's threads (360 −
        // 320 = 40 < 60); the roomy card still packs in the same plan.
        let thread_starved = DeviceView {
            node: 3,
            device: 0,
            free_declared_mb: 7680,
            resident_threads: 320,
        };
        let devices = [dev(1, 7680), dev(2, 2999), thread_starved];
        let mut rounds = 0;
        device_rounds(&cfg, &mut Ledger::default(), &pending, &devices, |_, _| {
            rounds += 1;
            Vec::new()
        });
        assert_eq!(rounds, 1, "only the roomy card gets a round");

        let mut s = mcck(cfg);
        let pins = s.plan(&pending, &devices);
        assert_eq!(pins.len(), 2);
        assert!(pins.iter().all(|p| p.node == 1));
        assert_eq!(
            s.plan_stats(),
            PlanStats {
                cache_hits: 0,
                cache_misses: 1
            }
        );
    }

    /// The oracle's order as first written: a comparison sort on the
    /// durations, then the greedy fill.
    fn lpt_by_partial_cmp(window: &[&PendingJob], cap: &Capacity) -> Vec<usize> {
        let mut order: Vec<usize> = (0..window.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (window[a], window[b]);
            b.nominal_secs
                .partial_cmp(&a.nominal_secs)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        let (mut mem, mut threads) = (cap.mem_mb, cap.thread_limit);
        order.retain(|&pos| {
            let job = window[pos];
            let fits = job.mem_mb <= mem && job.threads <= threads;
            if fits {
                mem -= job.mem_mb;
                threads -= job.threads;
            }
            fits
        });
        order
    }

    #[test]
    fn lpt_orders_like_the_comparison_sort() {
        // Descending ids, repeated durations (ties go to the lower id), a
        // zero duration, and jobs too big for some capacities.
        let durations = [30.0, 12.5, 30.0, 0.0, 7.25, 12.5, 1e6, 30.0, 0.5, 7.25];
        let jobs: Vec<PendingJob> = durations
            .iter()
            .enumerate()
            .map(|(i, &secs)| {
                let i = i as u64;
                timed_job(
                    100 - i,
                    500 + 700 * (i % 4),
                    30 * (1 + (i % 5) as u32),
                    secs,
                )
            })
            .collect();
        let window: Vec<&PendingJob> = jobs.iter().collect();
        for (mem_mb, thread_limit) in [(7680, 360), (4000, 240), (2500, 90), (1800, 60), (400, 360)]
        {
            let cap = Capacity {
                mem_mb,
                thread_limit,
                ..Capacity::phi(0)
            };
            assert_eq!(
                lpt(&window, &cap),
                lpt_by_partial_cmp(&window, &cap),
                "{cap:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite durations")]
    fn lpt_refuses_nan_durations() {
        let mut s = oracle();
        let pending = [
            timed_job(0, 1000, 60, 10.0),
            timed_job(1, 1000, 60, f64::NAN),
        ];
        s.plan(&pending, &[dev(1, 7680)]);
    }

    #[test]
    fn identical_devices_and_recurring_states_hit_the_plan_cache() {
        let mut s = mcck(KnapsackConfig::default());
        // Duplication-heavy queue: all candidates share one class, so after
        // multiplicity truncation every fresh device solves the *same*
        // 3-copy instance (⌊153 units / 40 units⌋ = 3 by memory).
        let pending: Vec<PendingJob> = (0..40).map(|i| job(i, 2000, 60)).collect();
        let devs = [dev(1, 7680), dev(2, 7680), dev(3, 7680), dev(4, 7680)];
        let pins = s.plan(&pending, &devs);
        assert_eq!(pins.len(), 12, "3 jobs per device");
        assert_eq!(s.plan_stats().cache_misses, 1, "one DP serves all devices");
        assert_eq!(s.plan_stats().cache_hits, 3);

        // Unchanged state: anything that fit was already packed, so the
        // next cycle's instances prep to empty and cost no DP at all.
        let again = s.plan(&pending, &devs);
        assert!(again.is_empty(), "outstanding pins must not re-pin");
        assert_eq!(s.plan_stats().cache_misses, 1);

        // Dispatch everything and let it "complete": the views return to
        // their initial state, the shrunken queue preps to the same 3-copy
        // instance, and the whole cycle is answered from cache.
        for pin in &pins {
            s.unpin(pin.job);
        }
        let remaining: Vec<PendingJob> = pending
            .iter()
            .filter(|j| !pins.iter().any(|p| p.job == j.id))
            .copied()
            .collect();
        let pins2 = s.plan(&remaining, &devs);
        assert_eq!(pins2.len(), 12);
        assert_eq!(s.plan_stats().cache_misses, 1, "recurring state re-solved");
        assert_eq!(
            s.plan_stats(),
            PlanStats {
                cache_hits: 3 + 4,
                cache_misses: 1
            }
        );
    }

    #[test]
    fn fast_and_naive_planners_agree_across_a_scripted_run() {
        // A deterministic multi-cycle script: plan, dispatch some pins,
        // lose some jobs, shrink/grow device views. Both planners must
        // produce identical pins at every step.
        let naive_cfg = KnapsackConfig {
            planner: PlannerMode::NaiveSerial,
            ..KnapsackConfig::default()
        };
        let mut fast = mcck(KnapsackConfig::default());
        let mut naive = mcck(naive_cfg);
        let mut pending: Vec<PendingJob> = (0..60)
            .map(|i| job(i, 500 + 250 * (i % 12), 20 + 20 * (i % 6) as u32))
            .collect();
        let mut devs = vec![dev(1, 7680), dev(2, 7680), dev(3, 5000), dev(4, 2000)];
        for cycle in 0..12u64 {
            let p_fast = fast.plan(&pending, &devs);
            let p_naive = naive.plan(&pending, &devs);
            assert_eq!(p_fast, p_naive, "cycle {cycle} diverged");
            // Dispatch every other pin; the rest stay outstanding.
            for (i, pin) in p_fast.iter().enumerate() {
                if i % 2 == 0 {
                    fast.unpin(pin.job);
                    naive.unpin(pin.job);
                    let d = devs
                        .iter_mut()
                        .find(|d| d.node == pin.node && d.device == pin.device)
                        .unwrap();
                    let spec = pending.iter().find(|j| j.id == pin.job).unwrap();
                    d.free_declared_mb = d.free_declared_mb.saturating_sub(spec.mem_mb);
                    d.resident_threads += spec.threads;
                    let id = pin.job;
                    pending.retain(|j| j.id != id);
                }
            }
            // Device-reset-style churn: every third cycle one device's
            // capacity snaps back and a pinned job vanishes.
            if cycle % 3 == 2 {
                let reset_at = (cycle as usize / 3) % devs.len();
                devs[reset_at].free_declared_mb = 7680;
                if let Some(pin) = p_fast.get(1) {
                    fast.unpin(pin.job);
                    naive.unpin(pin.job);
                    let id = pin.job;
                    pending.retain(|j| j.id != id);
                }
            }
        }
        assert_eq!(fast.outstanding_pins(), naive.outstanding_pins());
    }

    #[test]
    fn one_d_variant_fast_path_matches_naive() {
        let base = KnapsackConfig {
            variant: KnapsackVariant::OneDFiltered,
            ..KnapsackConfig::default()
        };
        let mut fast = mcck(base);
        let mut naive = mcck(KnapsackConfig {
            planner: PlannerMode::NaiveSerial,
            ..base
        });
        let pending: Vec<PendingJob> = (0..30)
            .map(|i| job(i, 400 + 300 * (i % 7), 40 * (1 + (i % 5) as u32)))
            .collect();
        let devs = [dev(1, 7680), dev(2, 4000)];
        assert_eq!(fast.plan(&pending, &devs), naive.plan(&pending, &devs));
    }

    #[test]
    fn random_scheduler_tracks_outstanding() {
        let mut s = mcc(3);
        let pins = s.plan(&[job(0, 7000, 60)], &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
        // Without dispatch, capacity is spoken for.
        let pins2 = s.plan(&[job(0, 7000, 60), job(1, 7000, 60)], &[dev(1, 7680)]);
        assert!(pins2.is_empty());
    }

    #[test]
    fn mc_runs_without_a_scheduler() {
        assert!(ClusterScheduler::new(ClusterPolicy::Mc, &KnapsackConfig::default(), 0).is_none());
    }

    #[test]
    fn thread_budget_overcommits_only_when_resident_threads_count() {
        let strict = |thread_overcommit| KnapsackConfig {
            thread_overcommit,
            ..KnapsackConfig::default()
        };
        assert_eq!(strict(1.0).thread_budget(), 240);
        assert_eq!(strict(1.25).thread_budget(), 300);
        assert_eq!(KnapsackConfig::default().thread_budget(), 360);
        let lax = KnapsackConfig {
            count_resident_threads: false,
            ..strict(1.25)
        };
        assert_eq!(lax.thread_budget(), 240);
        // The oracle packs against the same budget: a 300-thread job fits
        // an empty card at 1.25 overcommit, a 301-thread one never does.
        let mut s = ClusterScheduler::new(ClusterPolicy::Oracle, &strict(1.25), 0).unwrap();
        assert!(s.plan(&[job(0, 1000, 301)], &[dev(1, 7680)]).is_empty());
        assert_eq!(s.plan(&[job(1, 1000, 300)], &[dev(1, 7680)]).len(), 1);
    }
}
