//! The discrete-event world: full job lifecycle on the simulated cluster.
//!
//! One [`Experiment`] simulates a complete workload under one cluster
//! configuration and returns the measurements the paper reports. The
//! builder picks the substrate, explicit fault/perturbation plans and
//! scratch recycling; every combination reaches the same event loop.
//!
//! The world keeps one record per card, node and job in dense tables: a
//! card holds its device, COSMIC state, in-flight reservations, down flag
//! and open perturbation windows; a node its startd and host CPUs; a job
//! its lifecycle stage, retry count and waited-once flag, at position
//! `id − first id` (ids are consecutive, see [`Workload::validate`]). The
//! run has drained when completed + killed + retired = jobs, an O(1) check.
//!
//! ## Lifecycle of a job
//!
//! 1. **Arrive** → submitted to the schedd queue. MC jobs carry
//!    exclusive-card requirements; jobs under an external scheduler are
//!    submitted *on hold* (`condor_submit -hold`) so the scheduler's
//!    release + requirement pin is the only path to placement.
//! 2. **Negotiation cycle** → the external scheduler (if any) packs pending
//!    jobs into device knapsacks and applies `condor_qedit` pins, then the
//!    negotiator matches pinned/eligible jobs to free slots in FIFO order.
//! 3. **Dispatch** (shadow/starter latency later) → a COI process attaches
//!    to the chosen device, memory is committed and the job begins its
//!    profile.
//! 4. Segments alternate **host** phases (timer) and **offloads** (COSMIC
//!    admission + device execution). Memory commits grow across offloads;
//!    overruns trigger COSMIC container kills, physical oversubscription
//!    triggers the OOM killer.
//! 5. **Complete** → the device frees capacity; completion-triggered
//!    negotiation (after the collector-update delay) lets the scheduler
//!    repack the freed knapsack — Fig. 4's "while jobs remaining" loop.
//!
//! ## Event scheduling
//!
//! Completion predictions are invalidated wholesale whenever a device's (or
//! host's) membership changes — the generation counter bumps and every
//! pending prediction event goes stale. Each device and host holds exactly
//! one prediction event per generation, chosen by the allocation-free
//! `next_completion()` and kept in the device's (or host's) event slot
//! ([`phishare_sim::Sim::schedule_slot`]): a new generation's prediction
//! replaces the stale one in place, so a card or host never has more than
//! one pending prediction. A prediction that goes stale while it waits (its
//! generation bumped with no re-sync before it surfaces) is drained at pop
//! time ([`phishare_sim::Sim::step_live`]), so every event the handlers see
//! is live; handling the winner bumps the generation and schedules the next
//! winner.
//!
//! That this delivers each offload's and host phase's completion at its
//! own predicted instant, in `(time, insertion order)`, rests on three
//! specifications checked at their own layers: a slot entry orders exactly
//! like a push (`phishare-sim`'s `prop_engine`); every device substrate's
//! `next_completion()` is the first minimum of its completions by
//! `(time, proc)` (`phishare-phi`'s `prop_device` lockstep); and the same
//! holds for the host CPUs (`cluster::host`).

use crate::config::ClusterConfig;
use crate::fault::{FallbackPolicy, FaultKind, FaultPlan};
use crate::host::HostCpu;
use crate::metrics::ExperimentResult;
use crate::perturb::{PerturbKind, PerturbPlan};
use crate::trace::{KillReason, Trace, TraceEvent};
use phishare_condor::attrs;
use phishare_condor::{Collector, JobQueue, Negotiator, SlotId, Startd};
use phishare_core::{ClusterPolicy, ClusterScheduler, DeviceView, PendingJob, Pin};
use phishare_cosmic::{Admission, ContainerVerdict, CosmicDevice, CosmicSubstrate, OffloadGrant};
use phishare_phi::{
    Affinity, CommitOutcome, DeviceSubstrate, NaiveSharedDevice, PhiDevice, ProcId,
    SharedThroughputDevice,
};
use phishare_sim::{DetRng, EventQueue, Sim, SimDuration, SimTime, Summary};
use phishare_workload::{JobId, JobSpec, Segment, Workload};
use std::collections::BTreeMap;

/// Key of one device: `(node, device-on-node)`.
type DevKey = (u32, u32);

/// Simulation events.
#[derive(Debug)]
enum Ev {
    /// Job `workload[idx]` arrives in the queue.
    Arrive(usize),
    /// A negotiation cycle with its sequence number (stale cycles are
    /// dropped so completion-triggered cycles can supersede periodic ones).
    Cycle(u64),
    /// Shadow/starter finished; the job starts on its matched slot.
    Dispatch(JobId),
    /// A node's host CPUs predict this job's host phase finishes now
    /// (valid for `generation`).
    HostDone {
        job: JobId,
        node: u32,
        generation: u64,
    },
    /// A device predicts this offload finishes now (valid for `generation`).
    OffloadComplete {
        job: JobId,
        key: DevKey,
        generation: u64,
    },
    /// Injected failure `plan[idx]` strikes.
    Fault(usize),
    /// The failure injected as `plan[idx]` heals (card back up / node
    /// rejoins).
    Recover(usize),
    /// Perturbation window `perturbs[idx]` opens.
    Perturb(usize),
    /// Perturbation window `perturbs[idx]` closes.
    PerturbEnd(usize),
    /// A vacated job's backoff expired; it may be scheduled again.
    Release(JobId),
}

/// Which per-device state store backs a run (see [`phishare_phi::substrate`]
/// and [`phishare_cosmic::substrate`]).
///
/// `Shared`/`SharedNaive` must produce bit-identical [`ExperimentResult`]s
/// and traces; the naive engine exists to prove that and to serve as the
/// cost floor of the `perf_throughput` gate. `Fast`'s card is checked
/// against a test-only reference specification at the device layer
/// (`phi/tests/prop_device.rs`). `Fast` and the shared pair model
/// *different physics* (two-rate affinity model vs one fair-shared curve
/// rate), so their results are not comparable with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateMode {
    /// Generation-stamped slab storage with handle-indexed hot paths
    /// (production).
    Fast,
    /// Fair-shared throughput devices on the heap-scheduled O(log n)
    /// engine, with the node pool's degradation curves (production for
    /// heterogeneous SKU runs).
    Shared,
    /// Fair-shared throughput devices on the naive recompute-all engine
    /// (differential oracle and `perf_throughput` cost floor).
    SharedNaive,
}

impl std::str::FromStr for SubstrateMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fast" => Ok(SubstrateMode::Fast),
            "shared" => Ok(SubstrateMode::Shared),
            "shared-naive" => Ok(SubstrateMode::SharedNaive),
            other => Err(format!(
                "unknown substrate '{other}' (expected fast, shared or shared-naive)"
            )),
        }
    }
}

impl std::fmt::Display for SubstrateMode {
    /// The CLI spelling; round-trips through [`str::parse`]
    /// (the sweep manifests of [`crate::shard`] persist this form).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubstrateMode::Fast => "fast",
            SubstrateMode::Shared => "shared",
            SubstrateMode::SharedNaive => "shared-naive",
        })
    }
}

/// Per-worker recycled buffers for back-to-back experiments.
///
/// A figure-scale sweep runs hundreds of independent simulations per
/// worker thread. Each run's event heap and grant buffers grow to a
/// steady-state size and are then thrown away; recycling them across cells
/// (the same discipline as the planner's `DpScratch`) makes the per-cell
/// allocation cost O(1) after warm-up. Recycling is invisible to results:
/// [`Experiment::scratch`] runs are asserted bit-identical to fresh ones by
/// the runtime tests and the substrate proptests.
#[derive(Debug)]
pub struct ExperimentScratch {
    /// Drained event queue from the previous cell (heap and slot-table
    /// capacity retained).
    events: EventQueue<Ev>,
    /// Grant-collection buffer (empty between uses, capacity retained).
    grants: Vec<OffloadGrant>,
}

impl ExperimentScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are retained
    /// across runs.
    pub fn new() -> Self {
        ExperimentScratch {
            events: EventQueue::new(),
            grants: Vec::new(),
        }
    }
}

impl Default for ExperimentScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Clone, Copy)]
struct RunningJob<DH, CH> {
    slot: SlotId,
    key: DevKey,
    /// Device-substrate handle, resolved once at attach time. Stale the
    /// instant the process departs (detach, OOM kill, device reset) — the
    /// runtime drops the `RunningJob` (or flips `fallback`) on every such
    /// path before the handle could be touched again.
    dslot: DH,
    /// COSMIC-substrate handle, resolved once at registration; `None` when
    /// the policy runs without COSMIC.
    cslot: Option<CH>,
    /// Index of the segment currently executing.
    seg: usize,
    /// Offload segments completed so far (drives the memory-growth model).
    offloads_done: usize,
    /// The job's offload segment count (at least 1), counted once at
    /// placement: the memory-growth model's denominator.
    offloads_total: usize,
    /// The job's card reset under it and [`FallbackPolicy::HostOnly`]
    /// applies: remaining offload segments run on host cores, the device
    /// and COSMIC are never touched again.
    fallback: bool,
}

/// Where one job is in its lifecycle.
#[derive(Debug)]
enum Stage<DH, CH> {
    Unarrived,
    /// Awaiting placement: held for the external scheduler's next plan,
    /// or idle for MC matchmaking.
    Queued,
    /// Pinned by the external scheduler, whose knapsacks are per card.
    Pinned(DevKey),
    /// Matched to this card and slot; consumed at dispatch.
    Matched(DevKey, SlotId),
    Running(RunningJob<DH, CH>),
    /// Vacated by a fault; held out of planning until its `Release`.
    Parked,
    /// Held for good after exhausting `recovery.max_retries`.
    Retired,
    /// Completed or killed.
    Done,
}

/// One job's record in [`World::jobs`].
#[derive(Debug)]
struct JobRecord<DH, CH> {
    stage: Stage<DH, CH>,
    /// Times the job has been vacated by a fault and requeued.
    attempts: u32,
    /// Its first dispatch recorded a queue-wait sample (re-dispatches
    /// after a fault must not re-count).
    waited: bool,
    /// The spec's nominal duration in seconds, computed once per run: the
    /// planner reads it for every held job on every executed cycle, and
    /// [`JobSpec::nominal_duration`] walks the whole segment list.
    nominal_secs: f64,
}

/// One experiment: a workload on a cluster, with the run options set by
/// the builder methods. [`Experiment::simulate`] and
/// [`Experiment::simulate_traced`] run it.
///
/// ```no_run
/// # use phishare_cluster::{ClusterConfig, Experiment, FaultPlan, SubstrateMode};
/// # use phishare_core::ClusterPolicy;
/// # use phishare_workload::{WorkloadBuilder, WorkloadKind};
/// let cfg = ClusterConfig::paper_cluster(ClusterPolicy::Mcck);
/// let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix).count(40).build();
/// let plan = FaultPlan::empty();
/// let (result, trace) = Experiment::new(&cfg, &wl)
///     .substrate(SubstrateMode::Shared)
///     .faults(&plan)
///     .simulate_traced()?;
/// # Ok::<(), String>(())
/// ```
pub struct Experiment<'a> {
    config: &'a ClusterConfig,
    workload: &'a Workload,
    substrate: SubstrateMode,
    faults: Option<&'a FaultPlan>,
    perturbs: Option<&'a PerturbPlan>,
    scratch: Option<&'a mut ExperimentScratch>,
}

impl<'a> Experiment<'a> {
    /// Simulate `workload` on the cluster described by `config`: the fast
    /// substrate and the fault and perturbation
    /// plans `config` generates, until a builder method says otherwise.
    pub fn new(config: &'a ClusterConfig, workload: &'a Workload) -> Self {
        Experiment {
            config,
            workload,
            substrate: SubstrateMode::Fast,
            faults: None,
            perturbs: None,
            scratch: None,
        }
    }

    /// Run on an explicitly chosen device substrate. The oracle pair
    /// `Shared`/`SharedNaive` is bit-identical.
    pub fn substrate(mut self, substrate: SubstrateMode) -> Self {
        self.substrate = substrate;
        self
    }

    /// Inject `plan` instead of the fault plan derived from
    /// `config.faults`. An empty plan leaves the timeline bit-identical to
    /// a run with faults disabled.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Apply `plan` instead of the perturbation plan derived from
    /// `config.perturb`. An empty plan (with `config.perturb` disabled) is
    /// bit-identical to a run without chaos.
    pub fn perturbs(mut self, plan: &'a PerturbPlan) -> Self {
        self.perturbs = Some(plan);
        self
    }

    /// Recycle `scratch`'s event heap and grant buffers, so back-to-back
    /// runs (sweep cells) allocate them once per worker. Bit-identical to
    /// a fresh run.
    pub fn scratch(mut self, scratch: &'a mut ExperimentScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Run the experiment.
    ///
    /// Fails fast (rather than deadlocking) when the configuration or a
    /// plan is invalid, or a job cannot fit on any device.
    pub fn simulate(self) -> Result<ExperimentResult, String> {
        self.launch(false).map(|(r, _)| r)
    }

    /// [`Experiment::simulate`], also recording the full lifecycle
    /// [`Trace`] (submission, pinning, dispatch, offloads, completion).
    /// Tracing never changes the result.
    pub fn simulate_traced(self) -> Result<(ExperimentResult, Trace), String> {
        self.launch(true)
            .map(|(r, t)| (r, t.expect("tracing was enabled")))
    }

    fn launch(self, traced: bool) -> Result<(ExperimentResult, Option<Trace>), String> {
        let Experiment {
            config,
            workload,
            substrate,
            faults,
            perturbs,
            scratch,
        } = self;
        let generated_faults;
        let plan = match faults {
            Some(plan) => plan,
            None => {
                generated_faults = FaultPlan::generate(config);
                &generated_faults
            }
        };
        let generated_perturbs;
        let perturbs = match perturbs {
            Some(plan) => plan,
            None => {
                generated_perturbs = PerturbPlan::generate(config);
                &generated_perturbs
            }
        };
        match substrate {
            SubstrateMode::Fast => Self::run_inner::<PhiDevice, CosmicDevice>(
                config, workload, plan, perturbs, traced, scratch,
            ),
            SubstrateMode::Shared => Self::run_inner::<SharedThroughputDevice, CosmicDevice>(
                config, workload, plan, perturbs, traced, scratch,
            ),
            SubstrateMode::SharedNaive => Self::run_inner::<NaiveSharedDevice, CosmicDevice>(
                config, workload, plan, perturbs, traced, scratch,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner<D: DeviceSubstrate, C: CosmicSubstrate>(
        config: &ClusterConfig,
        workload: &Workload,
        plan: &FaultPlan,
        perturbs: &PerturbPlan,
        traced: bool,
        mut scratch: Option<&mut ExperimentScratch>,
    ) -> Result<(ExperimentResult, Option<Trace>), String> {
        config.validate()?;
        plan.validate(config)?;
        perturbs.validate(config)?;
        workload
            .validate()
            .map_err(|(id, e)| format!("invalid job {id}: {e}"))?;
        // With a heterogeneous pool, a job is only hopeless when even the
        // *largest* card couldn't hold it (for Uniform pools this is the
        // same per-device bound as before).
        let usable = config.max_usable_mem_mb();
        // Under a knapsack-family scheduler, a job whose declared threads
        // exceed the per-device thread budget can never be packed — reject
        // it up front instead of letting it starve in the queue forever.
        let thread_cap = matches!(config.policy, ClusterPolicy::Mcck | ClusterPolicy::Oracle)
            .then(|| config.knapsack.thread_budget());
        for job in &workload.jobs {
            if job.mem_req_mb > usable {
                return Err(format!(
                    "job {} declares {} MB but devices only have {usable} MB usable",
                    job.id, job.mem_req_mb
                ));
            }
            if let Some(cap) = thread_cap {
                if job.thread_req > cap {
                    return Err(format!(
                        "job {} declares {} threads but the scheduler's per-device \
                         thread budget is {cap}; it could never be placed",
                        job.id, job.thread_req
                    ));
                }
            }
        }

        let mut world: World<'_, D, C> = World::new(config, workload, plan, perturbs);
        if traced {
            world.trace = Some(Trace::new());
        }
        // The plain heap holds what is scheduled up front (every arrival,
        // fault strike and perturbation window) plus a few cycles,
        // dispatches, recoveries and releases; next-completion predictions
        // live in one event slot per card and per host. Pre-size both so
        // large experiments never pay growth reallocations. With scratch,
        // the previous cell's (drained, capacity-retaining) queue and
        // grant buffer are recycled instead.
        let pending = workload.len() + plan.events.len() + perturbs.events.len() + 64;
        let mut sim: Sim<Ev> = if let Some(s) = scratch.as_deref_mut() {
            world.grants_buf = std::mem::take(&mut s.grants);
            let queue = std::mem::replace(&mut s.events, EventQueue::new());
            let mut sim = Sim::from_recycled(queue);
            sim.reserve(pending);
            sim
        } else {
            Sim::with_capacity(pending)
        };
        sim.reserve_slots(world.cards.len() + world.nodes.len());
        for (idx, at) in workload.arrivals.iter().enumerate() {
            sim.schedule_at(*at, Ev::Arrive(idx));
        }
        // The first cycle runs at t = 0 (right after same-tick arrivals,
        // which were scheduled first).
        world.cycle_seq += 1;
        let seq = world.cycle_seq;
        world.next_cycle = Some(SimTime::ZERO);
        sim.schedule_at(SimTime::ZERO, Ev::Cycle(seq));
        // Fault strikes are pre-scheduled from the (sorted) plan; same-tick
        // ties resolve by insertion order.
        for (idx, f) in plan.events.iter().enumerate() {
            sim.schedule_at(f.at, Ev::Fault(idx));
        }
        // Perturbation windows likewise; the close event is scheduled from
        // the open handler, mirroring the fault→recover pattern.
        for (idx, p) in perturbs.events.iter().enumerate() {
            sim.schedule_at(p.at, Ev::Perturb(idx));
        }

        // Stale predictions never reach the handler: the liveness predicate
        // drains them at pop time without advancing the clock or consuming
        // event budget.
        while !sim.budget_exhausted() {
            let Some(ev) = sim.step_live(|ev| world.event_is_live(ev)) else {
                break;
            };
            world.handle(&mut sim, ev);
        }

        // The loop also stops when its event budget runs out, say before a
        // far-off arrival: a partial run is an error, never a result.
        if !world.drained() {
            return Err(format!(
                "simulation stopped after {} events at {} with {} of {} jobs finished",
                sim.events_processed(),
                sim.now(),
                world.terminal(),
                workload.len()
            ));
        }
        // Jobs retired after exhausting their retry budget stay Held
        // forever (the operator must intervene); they are terminal for
        // drain purposes. Anything else still live is a scheduler bug.
        let (idle, matched, running) = world.queue.active_counts();
        let live_idle = idle - world.retired;
        if matched != 0 || running != 0 || live_idle != 0 || world.parked != 0 {
            return Err(format!(
                "simulation drained with live jobs: {live_idle} idle, {matched} matched, \
                 {running} running, {} awaiting release",
                world.parked
            ));
        }
        // Post-drain leak audit: every fault must have been matched by a
        // recovery path that returned its capacity.
        for Card {
            key,
            device,
            cosmic,
            ..
        } in &world.cards
        {
            if device.resident_count() != 0 || device.committed_total_mb() != 0 {
                return Err(format!(
                    "capacity leak: device ({}, {}) drained with {} residents, {} MB committed",
                    key.0,
                    key.1,
                    device.resident_count(),
                    device.committed_total_mb()
                ));
            }
            if let Some(cos) = cosmic.as_ref().filter(|c| c.registered_jobs() != 0) {
                return Err(format!(
                    "capacity leak: COSMIC on ({}, {}) drained with {} registered jobs",
                    key.0,
                    key.1,
                    cos.registered_jobs()
                ));
            }
        }
        for Node { startd, host, .. } in &world.nodes {
            if host.active_count() != 0 {
                return Err(format!(
                    "capacity leak: host {} drained with {} active segments",
                    startd.node,
                    host.active_count()
                ));
            }
        }
        let trace = world.trace.take();
        let events = sim.events_processed();
        // Hand the (drained) buffers back for the next cell. Error paths
        // above skip this: the caller's scratch simply starts fresh again.
        if let Some(s) = scratch {
            let mut grants = std::mem::take(&mut world.grants_buf);
            grants.clear();
            s.grants = grants;
            s.events = sim.into_queue();
        }
        Ok((world.into_result(config, workload, events), trace))
    }
}

/// Fixed-shape forms of the builder. The `phibench` benchmark links
/// against exactly these four; new code should use the builder.
impl Experiment<'_> {
    /// `Experiment::new(config, workload).simulate()`. Used by the benchmark.
    pub fn run(config: &ClusterConfig, workload: &Workload) -> Result<ExperimentResult, String> {
        Experiment::new(config, workload).simulate()
    }

    /// The builder with `.substrate(substrate)`. Used by the benchmark.
    pub fn run_with_substrate(
        config: &ClusterConfig,
        workload: &Workload,
        substrate: SubstrateMode,
    ) -> Result<ExperimentResult, String> {
        Experiment::new(config, workload)
            .substrate(substrate)
            .simulate()
    }

    /// The builder with `.substrate(substrate).scratch(scratch)`. Used by
    /// the benchmark.
    pub fn run_with_substrate_scratch(
        config: &ClusterConfig,
        workload: &Workload,
        substrate: SubstrateMode,
        scratch: &mut ExperimentScratch,
    ) -> Result<ExperimentResult, String> {
        Experiment::new(config, workload)
            .substrate(substrate)
            .scratch(scratch)
            .simulate()
    }

    /// The traced builder with explicit fault and perturbation plans on
    /// `substrate`. Used by the benchmark.
    pub fn run_chaos_traced(
        config: &ClusterConfig,
        workload: &Workload,
        plan: &FaultPlan,
        perturbs: &PerturbPlan,
        substrate: SubstrateMode,
    ) -> Result<(ExperimentResult, Trace), String> {
        Experiment::new(config, workload)
            .substrate(substrate)
            .faults(plan)
            .perturbs(perturbs)
            .simulate_traced()
    }
}

/// One coprocessor card and everything the runtime tracks about it.
struct Card<D, C> {
    key: DevKey,
    device: D,
    /// `None` when the policy runs without COSMIC.
    cosmic: Option<C>,
    /// Declared memory, count and threads of matched-but-not-yet-attached
    /// jobs.
    inflight_mem: u64,
    inflight_jobs: u32,
    inflight_threads: u32,
    /// Device generation a prediction event was last scheduled for:
    /// repeated syncs within one generation are no-ops, so each generation
    /// costs at most one slot update.
    synced_gen: Option<u64>,
    /// Mid-reset on an otherwise-live node.
    down: bool,
    /// Open derate windows, keyed by plan index. The effective scale is
    /// the product folded in ascending index order, so overlapping windows
    /// compose deterministically.
    derates: BTreeMap<usize, f64>,
    /// Open latency-spike windows, keyed by plan index; extras of
    /// overlapping windows add (integer ticks, order-independent).
    latencies: BTreeMap<usize, SimDuration>,
}

impl<D: DeviceSubstrate, C> Card<D, C> {
    /// Declared memory still free once every in-flight job attaches.
    fn free_mb(&self) -> u64 {
        let reserved = self.inflight_mem;
        self.device.free_declared_mb().saturating_sub(reserved)
    }

    /// No residents and nothing in flight: open to an exclusive claim.
    fn is_idle(&self) -> bool {
        self.device.resident_count() == 0 && self.inflight_jobs == 0
    }

    /// Count `job` as matched to this card but not yet attached.
    fn reserve(&mut self, job: &JobSpec) {
        self.inflight_mem += job.mem_req_mb;
        self.inflight_jobs += 1;
        self.inflight_threads += job.thread_req;
    }

    /// Undo [`Card::reserve`]: `job` attached or lost its match.
    fn unreserve(&mut self, job: &JobSpec) {
        self.inflight_mem -= job.mem_req_mb;
        self.inflight_jobs -= 1;
        self.inflight_threads -= job.thread_req;
    }
}

/// One node: its startd and host CPUs.
struct Node {
    startd: Startd,
    host: HostCpu,
    /// Host analog of [`Card::synced_gen`].
    synced_gen: Option<u64>,
    /// The startd vanished (churn): no ads, no dispatch, no hosts.
    down: bool,
}

struct World<'a, D: DeviceSubstrate, C: CosmicSubstrate> {
    cfg: &'a ClusterConfig,
    wl: &'a Workload,
    plan: &'a FaultPlan,
    perturbs: &'a PerturbPlan,
    queue: JobQueue,
    collector: Collector,
    negotiator: Negotiator,
    /// Every card, node-major: `(node - 1) * devices_per_node + dev`.
    cards: Vec<Card<D, C>>,
    /// Every node, at `node - 1`.
    nodes: Vec<Node>,
    scheduler: Option<ClusterScheduler>,
    /// Every job, at its workload position `id − first_id`.
    jobs: Vec<JobRecord<D::Handle, C::Handle>>,
    /// Id of the workload's first job.
    first_id: u64,
    /// How many jobs are [`Stage::Parked`] and [`Stage::Retired`].
    parked: usize,
    retired: usize,
    /// Reusable buffer for collecting COSMIC grants (completion, kill and
    /// unregister paths); taken/restored around each use so the hot loop
    /// never allocates. Recycled across runs via [`ExperimentScratch`].
    grants_buf: Vec<OffloadGrant>,
    /// Sequence number of the latest scheduled cycle; stale cycles no-op.
    cycle_seq: u64,
    /// When the next cycle is due (None once the cluster drained).
    next_cycle: Option<SimTime>,
    rng_oom: DetRng,
    /// Lifecycle trace (None unless the run is traced).
    trace: Option<Trace>,
    // --- perturbation state ---
    /// Nesting depth of open stale-ad windows; ads refresh only at 0.
    stale_ad_depth: u32,
    /// Whether any non-cycle event ran since the last *executed* cycle —
    /// arrivals, dispatches, completions, faults, perturbations all set
    /// it, as does an executed cycle that pinned, matched, or rejected
    /// anything. While false, device ground truth and the queue are
    /// exactly as the last cycle left them, so `refresh_ads` and the
    /// scheduler plan would both be no-ops — one leg of the quiescence
    /// predicate ([`World::cycle_is_quiescent`]).
    world_dirty: bool,
    // --- statistics ---
    waits: Summary,
    turnarounds: Summary,
    completed: usize,
    container_kills: usize,
    oom_kills: usize,
    negotiation_cycles: u64,
    cycles_skipped: u64,
    pins_issued: u64,
    device_resets: u64,
    node_churns: u64,
    retries: u64,
    fallback_offloads: u64,
    perturb_windows: u64,
    stale_ad_skips: u64,
    jittered_cycles: u64,
    inflated_offloads: u64,
    stale_match_rejects: u64,
    last_terminal: SimTime,
    /// Wall-clock nanoseconds spent inside `ClusterScheduler::plan` —
    /// planner cost measurement, never simulation state.
    plan_nanos: u64,
}

impl<'a, D: DeviceSubstrate, C: CosmicSubstrate> World<'a, D, C> {
    fn new(
        cfg: &'a ClusterConfig,
        wl: &'a Workload,
        plan: &'a FaultPlan,
        perturbs: &'a PerturbPlan,
    ) -> Self {
        let mut collector = Collector::with_partitions(cfg.partitions);
        let mut nodes = Vec::new();
        let mut cards = Vec::new();
        for node in 1..=cfg.nodes {
            let spec = cfg.spec_for_node(node);
            let startd = Startd::new(
                node,
                cfg.slots_per_node,
                cfg.devices_per_node,
                spec.phi.memory_mb,
            );
            startd.advertise(
                &mut collector,
                spec.phi.usable_mem_mb() * cfg.devices_per_node as u64,
                cfg.devices_per_node,
            );
            nodes.push(Node {
                startd,
                host: HostCpu::new(cfg.host_cores_per_node, SimTime::ZERO),
                synced_gen: None,
                down: false,
            });
            for dev in 0..cfg.devices_per_node {
                cards.push(Card {
                    key: (node, dev),
                    device: D::create(&spec, SimTime::ZERO),
                    cosmic: cfg
                        .policy
                        .uses_cosmic()
                        .then(|| C::create(cfg.cosmic, &spec.phi)),
                    inflight_mem: 0,
                    inflight_jobs: 0,
                    inflight_threads: 0,
                    synced_gen: None,
                    down: false,
                    derates: BTreeMap::new(),
                    latencies: BTreeMap::new(),
                });
            }
        }

        World {
            cfg,
            wl,
            plan,
            perturbs,
            queue: JobQueue::new(),
            collector,
            negotiator: Negotiator::new(cfg.negotiation_interval)
                .with_path(cfg.negotiation)
                .with_quiescence(cfg.skip_quiescent),
            cards,
            nodes,
            scheduler: ClusterScheduler::new(cfg.policy, &cfg.knapsack, cfg.seed),
            jobs: wl
                .jobs
                .iter()
                .map(|spec| JobRecord {
                    stage: Stage::Unarrived,
                    attempts: 0,
                    waited: false,
                    nominal_secs: spec.nominal_duration().as_secs_f64(),
                })
                .collect(),
            first_id: wl.jobs.first().map_or(0, |j| j.id.raw()),
            parked: 0,
            retired: 0,
            grants_buf: Vec::new(),
            cycle_seq: 0,
            next_cycle: None,
            rng_oom: DetRng::substream(cfg.seed, "oom-killer"),
            trace: None,
            stale_ad_depth: 0,
            world_dirty: true,
            waits: Summary::new(),
            turnarounds: Summary::new(),
            completed: 0,
            container_kills: 0,
            oom_kills: 0,
            negotiation_cycles: 0,
            cycles_skipped: 0,
            pins_issued: 0,
            device_resets: 0,
            node_churns: 0,
            retries: 0,
            fallback_offloads: 0,
            perturb_windows: 0,
            stale_ad_skips: 0,
            jittered_cycles: 0,
            inflated_offloads: 0,
            stale_match_rejects: 0,
            last_terminal: SimTime::ZERO,
            plan_nanos: 0,
        }
    }

    /// Position of card `(node, dev)` in [`World::cards`].
    fn card_index(&self, (node, dev): DevKey) -> usize {
        (node - 1) as usize * self.cfg.devices_per_node as usize + dev as usize
    }

    fn card(&self, key: DevKey) -> &Card<D, C> {
        &self.cards[self.card_index(key)]
    }

    fn card_mut(&mut self, key: DevKey) -> &mut Card<D, C> {
        let i = self.card_index(key);
        &mut self.cards[i]
    }

    /// The event-queue slot of `node`'s host prediction: slots
    /// `0..cards.len()` are the cards' (by [`World::card_index`]), the
    /// nodes' follow.
    fn host_slot(&self, node: u32) -> usize {
        self.cards.len() + (node - 1) as usize
    }

    fn node(&self, node: u32) -> &Node {
        &self.nodes[(node - 1) as usize]
    }

    fn node_mut(&mut self, node: u32) -> &mut Node {
        &mut self.nodes[(node - 1) as usize]
    }

    fn spec(&self, job: JobId) -> &'a JobSpec {
        &self.wl.jobs[(job.raw() - self.first_id) as usize]
    }

    fn job(&self, job: JobId) -> &JobRecord<D::Handle, C::Handle> {
        &self.jobs[(job.raw() - self.first_id) as usize]
    }

    fn job_mut(&mut self, job: JobId) -> &mut JobRecord<D::Handle, C::Handle> {
        &mut self.jobs[(job.raw() - self.first_id) as usize]
    }

    fn running(&self, job: JobId) -> Option<RunningJob<D::Handle, C::Handle>> {
        match self.job(job).stage {
            Stage::Running(run) => Some(run),
            _ => None,
        }
    }

    /// Ids of the jobs whose stage satisfies `pred`, in id order.
    fn jobs_where(&self, pred: impl Fn(&Stage<D::Handle, C::Handle>) -> bool) -> Vec<JobId> {
        (0..self.jobs.len())
            .filter(|&i| pred(&self.jobs[i].stage))
            .map(|i| JobId(self.first_id + i as u64))
            .collect()
    }

    /// Record a trace event (no-op, and no allocation, unless tracing).
    fn trace_ev(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(tr) = self.trace.as_mut() {
            tr.record(make());
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Whether `ev` is still current: the run loop's pop-time liveness
    /// predicate, so stale events never reach [`World::handle`].
    ///
    /// A matching generation implies the predicted entity is still active:
    /// every membership change (start, finish, abort, attach, detach) bumps
    /// the generation, so a generation-current prediction cannot name a
    /// departed job.
    fn event_is_live(&self, ev: &Ev) -> bool {
        match *ev {
            Ev::Arrive(_) | Ev::Dispatch(_) => true,
            // Fault, recovery, perturbation and backoff events carry their
            // own state.
            Ev::Fault(_) | Ev::Recover(_) | Ev::Perturb(_) | Ev::PerturbEnd(_) | Ev::Release(_) => {
                true
            }
            Ev::Cycle(seq) => seq == self.cycle_seq,
            Ev::HostDone {
                node, generation, ..
            } => self.node(node).host.generation() == generation,
            Ev::OffloadComplete {
                key, generation, ..
            } => self.card(key).device.generation() == generation,
        }
    }

    fn handle(&mut self, sim: &mut Sim<Ev>, ev: Ev) {
        debug_assert!(self.event_is_live(&ev), "stale event reached the handler");
        // Any non-cycle event can move device ground truth, the queue, or
        // the perturbation state — conservatively defeat quiescence.
        if !matches!(ev, Ev::Cycle(_)) {
            self.world_dirty = true;
        }
        match ev {
            Ev::Arrive(idx) => self.on_arrive(sim, idx),
            Ev::Cycle(_) => self.on_cycle(sim),
            Ev::Dispatch(job) => self.on_dispatch(sim, job),
            Ev::HostDone { job, node, .. } => self.on_host_done(sim, job, node),
            Ev::OffloadComplete { job, key, .. } => self.on_offload_complete(sim, job, key),
            Ev::Fault(idx) => self.on_fault(sim, idx),
            Ev::Recover(idx) => self.on_recover(sim, idx),
            Ev::Perturb(idx) => self.on_perturb(sim, idx),
            Ev::PerturbEnd(idx) => self.on_perturb_end(sim, idx),
            Ev::Release(job) => self.on_release(sim, job),
        }
    }

    fn on_arrive(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let spec = &self.wl.jobs[idx];
        let id = spec.id;
        // MC jobs go straight to matchmaking with exclusive-card
        // requirements; jobs under an external scheduler are submitted on
        // hold, so the scheduler's release+pin is the only way they ever
        // match (the paper's add-on owns all placements).
        match self.cfg.policy {
            ClusterPolicy::Mc => self
                .queue
                .submit(id, attrs::exclusive_job_ad(spec), sim.now())
                .expect("validated workload ids are unique"),
            ClusterPolicy::Mcc | ClusterPolicy::Mcck | ClusterPolicy::Oracle => self
                .queue
                .submit_held(id, attrs::sharing_job_ad(spec), sim.now())
                .expect("validated workload ids are unique"),
        }
        self.jobs[idx].stage = Stage::Queued;
        self.trace_ev(|| TraceEvent::Submitted {
            job: id,
            at: sim.now(),
        });
        // A fresh arrival can trigger negotiation (collector update).
        self.request_cycle(sim, sim.now() + self.cfg.negotiation_trigger_delay);
    }

    fn on_cycle(&mut self, sim: &mut Sim<Ev>) {
        self.next_cycle = None;
        self.negotiation_cycles += 1;
        let now = sim.now();

        // 0. Quiescence: when the cycle is provably a no-op — no event
        // since the last executed cycle, no stale-ad window, nothing for
        // the scheduler to plan, every idle certificate covering the
        // collector's newest watermark — skip all of it: the plan call,
        // the ad refresh, and the negotiation would each leave every piece
        // of state bit-identical. Only the skip counter records it; the
        // heartbeat re-arms exactly as the executed path would.
        if self.cfg.skip_quiescent && self.cycle_is_quiescent() {
            self.cycles_skipped += 1;
            #[cfg(debug_assertions)]
            self.audit_quiescent_skip();
            if !self.drained() {
                self.request_cycle(sim, now + self.cfg.negotiation_interval);
            }
            return;
        }
        // This cycle executes against current ground truth; from here on
        // only new events (or this cycle's own actions) can re-dirty it.
        self.world_dirty = false;

        // 1. External scheduler packs pending jobs and pins them.
        if self.scheduler.is_some() {
            let pending_jobs = self.pending_views();
            let device_views = self.device_views();
            let scheduler = self.scheduler.as_mut().expect("checked above");
            let plan_start = std::time::Instant::now();
            let pins = scheduler.plan(&pending_jobs, &device_views);
            self.plan_nanos += plan_start.elapsed().as_nanos() as u64;
            for Pin { job, node, device } in pins {
                self.world_dirty = true;
                let node_name = format!("node{node}");
                self.queue
                    .qedit_expr(job, "Requirements", &attrs::pin_to_node(&node_name))
                    .expect("pinned job is queued");
                self.queue.release(job).expect("pinned job was held");
                self.job_mut(job).stage = Stage::Pinned((node, device));
                self.pins_issued += 1;
                self.trace_ev(|| TraceEvent::Pinned { job, node, at: now });
            }
        }

        // 2. Refresh machine ads from ground truth — unless a stale-ad
        // window froze the collector (delayed updates): the negotiator then
        // matches against whatever the ads said when the window opened.
        if self.stale_ad_depth == 0 {
            self.refresh_ads();
        } else {
            self.stale_ad_skips += 1;
        }

        // 3. Matchmaking.
        let matches = self
            .negotiator
            .negotiate(&mut self.queue, &mut self.collector);
        for m in matches {
            self.world_dirty = true;
            let spec = self.spec(m.job);
            // Pinned jobs go to the device their packing round reserved;
            // unpinned (MC) jobs pick a free device now.
            let key = match self.job(m.job).stage {
                Stage::Pinned(key) => {
                    debug_assert_eq!(key.0, m.slot.node, "pin/match node mismatch");
                    key
                }
                _ => match self.choose_device(m.slot.node, spec.mem_req_mb) {
                    Some(key) => key,
                    None => {
                        // With fresh ads exclusive matchmaking guarantees a
                        // free device; under a stale-ad window the claim can
                        // name a node whose cards are gone or full. Undo the
                        // match like a schedd whose claim activation failed:
                        // release the slot, put the job back in the idle
                        // queue, let a later cycle retry.
                        debug_assert!(
                            self.stale_ad_depth > 0,
                            "matchmaking over-promised on fresh ads"
                        );
                        self.collector.release(m.slot);
                        self.queue
                            .requeue(m.job)
                            .expect("matched job can be vacated");
                        self.queue.release(m.job).expect("vacated job is held");
                        self.stale_match_rejects += 1;
                        continue;
                    }
                },
            };
            self.job_mut(m.job).stage = Stage::Matched(key, m.slot);
            self.card_mut(key).reserve(spec);
            if let Some(s) = self.scheduler.as_mut() {
                s.unpin(m.job);
            }
            sim.schedule_after(self.cfg.dispatch_delay, Ev::Dispatch(m.job));
        }

        // 4. Keep the periodic heartbeat alive while work remains.
        if !self.drained() {
            self.request_cycle(sim, now + self.cfg.negotiation_interval);
        }
    }

    fn on_dispatch(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        let now = sim.now();
        let spec = self.spec(job);
        // A fault between match and dispatch revokes the match and requeues
        // the job; the in-flight Dispatch then finds nothing to start. (If
        // the job was *re*-matched before the stale event fires, the stale
        // delivery consumes the fresh match a little early — deterministic
        // and harmless, like a starter racing the shadow.)
        let Stage::Matched(key, slot) = self.job(job).stage else {
            return;
        };
        let i = self.card_index(key);
        self.cards[i].unreserve(spec);

        self.queue.set_running(job).expect("matched job starts");
        let submitted = self.queue.get(job).expect("queued").submitted;
        if !std::mem::replace(&mut self.job_mut(job).waited, true) {
            self.waits.record(now.since(submitted).as_secs_f64());
        }

        self.trace_ev(|| TraceEvent::Dispatched {
            job,
            node: key.0,
            device: key.1,
            at: now,
        });
        // Attach the COI process and make the initial memory commit. The
        // substrate handles come back from registration/attach, so the job
        // becomes `Running` right after (attach never consults the job
        // table; a job OOM-killing *itself* on attach is handled below).
        let initial_commit =
            ((spec.actual_peak_mem_mb as f64) * self.cfg.initial_commit_fraction).round() as u64;
        let card = &mut self.cards[i];
        let cslot = card
            .cosmic
            .as_mut()
            .map(|cos| cos.register(job, spec.mem_req_mb, spec.thread_req));
        let (dslot, outcome) = card.device.attach(
            now,
            ProcId(job.raw()),
            spec.mem_req_mb,
            spec.thread_req,
            initial_commit,
            &mut self.rng_oom,
        );
        self.job_mut(job).stage = Stage::Running(RunningJob {
            slot,
            key,
            dslot,
            cslot,
            seg: 0,
            offloads_done: 0,
            offloads_total: spec.profile.offload_count().max(1),
            fallback: false,
        });
        self.handle_commit_outcome(sim, key, outcome);
        if self.running(job).is_none() {
            return; // the job itself was an OOM victim of its own attach
        }
        if self.container_check(sim, key, job, initial_commit) {
            return;
        }
        // Known defect: the attach bumped the card's generation, and when
        // the job starts with a host phase nothing re-syncs the card, so a
        // prediction pending for an offload already running here is stale;
        // that completion fires late, at the card's next sync. A
        // `sync_completions` here fixes it, but moves the committed
        // benchmark goldens, so it lands with them.
        self.advance_segment(sim, job);
    }

    fn on_host_done(&mut self, sim: &mut Sim<Ev>, job: JobId, node: u32) {
        let now = sim.now();
        debug_assert!(self.node(node).host.is_active(job));
        let Stage::Running(run) = &mut self.job_mut(job).stage else {
            return;
        };
        run.seg += 1;
        self.node_mut(node).host.finish_segment(now, job);
        self.sync_host(sim, node);
        self.advance_segment(sim, job);
    }

    fn on_offload_complete(&mut self, sim: &mut Sim<Ev>, job: JobId, key: DevKey) {
        let now = sim.now();
        let Stage::Running(run) = &mut self.job_mut(job).stage else {
            return;
        };
        let (dslot, cslot) = (run.dslot, run.cslot);
        run.seg += 1;
        run.offloads_done += 1;

        self.card_mut(key).device.finish_offload(now, dslot);
        self.trace_ev(|| TraceEvent::OffloadFinished { job, at: now });
        if let Some(cslot) = cslot {
            self.cosmic_grants(sim, key, |cos, grants| {
                cos.complete_offload_into(now, cslot, grants)
            });
        }
        self.sync_completions(sim, key);
        self.advance_segment(sim, job);
    }

    // ------------------------------------------------------------------
    // Job execution
    // ------------------------------------------------------------------

    /// Begin the job's current segment (or complete the job).
    fn advance_segment(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        let now = sim.now();
        let run = self.running(job).expect("advancing a live job");
        let key = run.key;
        let spec = self.spec(job);
        match spec.profile.segments.get(run.seg) {
            None => self.complete_job(sim, job),
            Some(Segment::Host { duration }) => {
                self.node_mut(key.0).host.start_segment(now, job, *duration);
                self.sync_host(sim, key.0);
            }
            Some(Segment::Offload { threads, work }) => {
                if run.fallback {
                    // Host-fallback: the card reset under this job, so the
                    // offload's work runs on host cores at the configured
                    // slowdown. No memory commit, no COSMIC admission — the
                    // kernel never leaves the host.
                    let _ = threads;
                    let slow = work.mul_f64(self.cfg.recovery.host_fallback_slowdown);
                    self.fallback_offloads += 1;
                    self.node_mut(key.0).host.start_segment(now, job, slow);
                    self.sync_host(sim, key.0);
                    return;
                }
                // Memory-growth model: commits approach the actual peak as
                // offloads execute.
                let initial = ((spec.actual_peak_mem_mb as f64) * self.cfg.initial_commit_fraction)
                    .round() as u64;
                let grown = initial
                    + ((spec.actual_peak_mem_mb - initial.min(spec.actual_peak_mem_mb)) as f64
                        * (run.offloads_done + 1) as f64
                        / run.offloads_total as f64)
                        .round() as u64;
                let i = self.card_index(key);
                let outcome = self.cards[i]
                    .device
                    .commit(now, run.dslot, grown, &mut self.rng_oom);
                self.handle_commit_outcome(sim, key, outcome);
                if self.running(job).is_none() {
                    return; // OOM-killed by its own growth
                }
                if self.container_check(sim, key, job, grown) {
                    return;
                }
                self.sync_completions(sim, key); // commit may have killed others

                let threads = *threads;
                let mut work = *work;
                // Latency spike: offloads *started* inside an open window
                // carry the window's extra nominal work. Applied at request
                // time (before COSMIC admission), so a queued offload keeps
                // the inflation it was admitted with — deterministic across
                // substrates.
                let card = &mut self.cards[i];
                let extra = card
                    .latencies
                    .values()
                    .fold(SimDuration::ZERO, |acc, &d| acc + d);
                if !extra.is_zero() {
                    work += extra;
                    self.inflated_offloads += 1;
                }
                if let (Some(cslot), Some(cos)) = (run.cslot, card.cosmic.as_mut()) {
                    match cos.request_offload(now, cslot, threads, work) {
                        Admission::Started(grant) => {
                            self.start_grants(sim, key, std::slice::from_ref(&grant));
                            self.sync_completions(sim, key);
                        }
                        Admission::Queued => {
                            // The job parks here; a future completion or
                            // departure grants the offload.
                            self.trace_ev(|| TraceEvent::OffloadQueued { job, at: now });
                        }
                    }
                } else {
                    card.device
                        .start_offload(now, run.dslot, threads, work, Affinity::Unmanaged);
                    self.trace_ev(|| TraceEvent::OffloadStarted {
                        job,
                        threads,
                        at: now,
                    });
                    self.sync_completions(sim, key);
                }
            }
        }
    }

    /// Start COSMIC-granted offloads on the device.
    ///
    /// Takes a slice (callers recycle [`World::grants_buf`]); a grant
    /// implies its job is running on this device, so its handle is live.
    fn start_grants(&mut self, sim: &mut Sim<Ev>, key: DevKey, grants: &[OffloadGrant]) {
        let now = sim.now();
        for grant in grants {
            let dslot = self.running(grant.job).expect("granted job runs").dslot;
            self.card_mut(key).device.start_offload(
                now,
                dslot,
                grant.threads,
                grant.work,
                grant.affinity,
            );
            self.trace_ev(|| TraceEvent::OffloadStarted {
                job: grant.job,
                threads: grant.threads,
                at: now,
            });
        }
        self.sync_completions(sim, key);
    }

    /// Collect COSMIC grants on `key` with `collect`, then start them.
    fn cosmic_grants(
        &mut self,
        sim: &mut Sim<Ev>,
        key: DevKey,
        collect: impl FnOnce(&mut C, &mut Vec<OffloadGrant>),
    ) {
        let mut grants = std::mem::take(&mut self.grants_buf);
        if let Some(cos) = self.card_mut(key).cosmic.as_mut() {
            collect(cos, &mut grants);
        }
        self.start_grants(sim, key, &grants);
        grants.clear();
        self.grants_buf = grants;
    }

    /// A job left its card: drop its COSMIC registration (starting any
    /// offloads that unblocks) and resync the card's predictions.
    fn unregister(&mut self, sim: &mut Sim<Ev>, run: RunningJob<D::Handle, C::Handle>, job: JobId) {
        if run.cslot.is_some() {
            let now = sim.now();
            self.cosmic_grants(sim, run.key, |cos, grants| {
                cos.unregister_into(now, job, grants)
            });
        }
        self.sync_completions(sim, run.key);
    }

    /// (Re)schedule the completion prediction of a node's host CPUs.
    ///
    /// Sets the node's event slot to the single earliest prediction, or
    /// clears it when no phase is active; the entry it replaces belongs to
    /// an older generation and is stale. It acts at most once per
    /// generation: an in-bounds memory commit re-anchors the progress
    /// integrator without bumping the generation, and a prediction
    /// *recomputed* from the new anchor can land a float-rounding tick away
    /// from the still-pending issued one — re-set, it would move that
    /// completion and change the run's results.
    fn sync_host(&mut self, sim: &mut Sim<Ev>, node: u32) {
        let n = self.node_mut(node);
        let generation = n.host.generation();
        if n.synced_gen.replace(generation) == Some(generation) {
            return; // this generation's prediction is already queued
        }
        let slot = self.host_slot(node);
        match self.node(node).host.next_completion() {
            Some((job, at)) => sim.schedule_slot(
                slot,
                at,
                Ev::HostDone {
                    job,
                    node,
                    generation,
                },
            ),
            None => sim.clear_slot(slot),
        }
    }

    /// (Re)schedule the completion prediction of a device (see
    /// [`World::sync_host`] for the once-per-generation contract).
    fn sync_completions(&mut self, sim: &mut Sim<Ev>, key: DevKey) {
        let card = self.card_mut(key);
        let generation = card.device.generation();
        if card.synced_gen.replace(generation) == Some(generation) {
            return; // this generation's prediction is already queued
        }
        let slot = self.card_index(key);
        match self.card(key).device.next_completion() {
            Some((proc, at)) => sim.schedule_slot(
                slot,
                at,
                Ev::OffloadComplete {
                    job: JobId(proc.raw()),
                    key,
                    generation,
                },
            ),
            None => sim.clear_slot(slot),
        }
    }

    fn complete_job(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        let now = sim.now();
        let run = self.running(job).expect("completing a live job");
        self.job_mut(job).stage = Stage::Done;
        if !run.fallback {
            self.card_mut(run.key).device.detach(now, run.dslot);
            self.unregister(sim, run, job);
        }

        self.queue
            .set_completed(job)
            .expect("running job completes");
        self.collector.release(run.slot);
        let submitted = self.queue.get(job).expect("queued").submitted;
        self.turnarounds.record(now.since(submitted).as_secs_f64());
        self.completed += 1;
        self.last_terminal = now;
        self.trace_ev(|| TraceEvent::Completed { job, at: now });

        // Completion-triggered negotiation (Fig. 4's while-loop): see
        // `completion_triggers_cycle` for which policies get it.
        if !self.drained() && self.completion_triggers_cycle() {
            self.request_cycle(sim, now + self.cfg.negotiation_trigger_delay);
        }
    }

    /// Whether a completion leads to a prompt negotiation, or only the
    /// periodic cycle will notice the freed capacity.
    ///
    /// * **MCCK** — yes: the scheduler's `condor_qedit` batch reaches the
    ///   collector and "a negotiation cycle ... is triggered when the Condor
    ///   collector obtains the changed job requirements" (§IV-D1).
    /// * **MC** — yes: exclusive claims with identical requirements are
    ///   reused by the schedd (Condor claim reuse), so the next queued job
    ///   backfills the freed card without a full negotiation.
    /// * **MCC** — no: sharing placements depend on the node's *remaining*
    ///   Phi memory, which is a node-level ad attribute, not part of claim
    ///   compatibility; a freed slice of device memory is only observable
    ///   at the next periodic negotiation cycle.
    fn completion_triggers_cycle(&self) -> bool {
        !matches!(self.cfg.policy, ClusterPolicy::Mcc)
    }

    /// Terminate a job early. `already_detached` is true when the device
    /// removed the process itself (OOM kill).
    fn kill_job(
        &mut self,
        sim: &mut Sim<Ev>,
        job: JobId,
        reason: KillReason,
        already_detached: bool,
    ) {
        let now = sim.now();
        let Some(run) = self.running(job) else {
            return;
        };
        self.job_mut(job).stage = Stage::Done;
        if !run.fallback && !already_detached {
            self.card_mut(run.key).device.detach(now, run.dslot);
        }
        // The victim may have been mid-host-phase (e.g. an OOM victim whose
        // offload had not started yet).
        self.node_mut(run.key.0).host.abort(now, job);
        self.sync_host(sim, run.key.0);
        if !run.fallback {
            self.unregister(sim, run, job);
        }

        self.queue.set_removed(job).expect("live job is removable");
        self.collector.release(run.slot);
        match reason {
            KillReason::Container => self.container_kills += 1,
            KillReason::Oom => self.oom_kills += 1,
        }
        self.trace_ev(|| TraceEvent::Killed {
            job,
            reason,
            at: now,
        });
        self.last_terminal = now;
        if !self.drained() && self.completion_triggers_cycle() {
            self.request_cycle(sim, now + self.cfg.negotiation_trigger_delay);
        }
    }

    /// Process OOM fallout from a memory commit.
    fn handle_commit_outcome(&mut self, sim: &mut Sim<Ev>, _key: DevKey, outcome: CommitOutcome) {
        if let CommitOutcome::OomKilled(victims) = outcome {
            for victim in victims {
                self.kill_job(sim, JobId(victim.raw()), KillReason::Oom, true);
            }
        }
    }

    /// COSMIC container enforcement; returns true when the job was killed.
    fn container_check(
        &mut self,
        sim: &mut Sim<Ev>,
        key: DevKey,
        job: JobId,
        committed: u64,
    ) -> bool {
        let cslot = self.running(job).expect("checking a live job").cslot;
        let (Some(cslot), Some(cos)) = (cslot, &self.card(key).cosmic) else {
            return false;
        };
        match cos.on_commit(cslot, committed) {
            ContainerVerdict::Allowed => false,
            ContainerVerdict::KillExceededLimit { .. } => {
                self.kill_job(sim, job, KillReason::Container, false);
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    fn on_fault(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        match f.kind {
            FaultKind::DeviceReset => self.on_device_reset(sim, idx),
            FaultKind::NodeChurn => self.on_node_churn(sim, idx),
        }
    }

    /// MPSS crash: the card reboots. Resident offloads abort, COSMIC
    /// registrations flush, and the device advertises zero capacity until
    /// its `Recover` event fires. Jobs caught on the card either degrade
    /// to host-only execution or vacate, per [`FallbackPolicy`].
    fn on_device_reset(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        let key = (f.node, f.device);
        if self.node(f.node).down || self.card(key).down {
            return; // target already down: the strike is absorbed silently
        }
        let now = sim.now();
        self.device_resets += 1;
        self.card_mut(key).down = true;
        self.trace_ev(|| TraceEvent::DeviceReset {
            node: f.node,
            device: f.device,
            at: now,
        });
        self.flush_device(sim, key);
        // Matched-but-undispatched jobs lose their reservation; their
        // pending Dispatch event no-ops once the match is gone.
        for job in self.jobs_where(|s| matches!(s, Stage::Matched(k, _) if *k == key)) {
            self.fault_requeue(sim, job);
        }
        // Idle jobs pinned to this card go back to Held for re-planning.
        self.pull_back_pins(|k| k == key);
        // Jobs executing on the card degrade or vacate.
        let on_card =
            |s: &Stage<_, _>| matches!(s, Stage::Running(r) if r.key == key && !r.fallback);
        for job in self.jobs_where(on_card) {
            match self.cfg.recovery.fallback {
                FallbackPolicy::HostOnly => {
                    if let Stage::Running(run) = &mut self.job_mut(job).stage {
                        run.fallback = true;
                    }
                    self.trace_ev(|| TraceEvent::FallbackStarted {
                        job,
                        node: f.node,
                        at: now,
                    });
                    // Mid-host-phase jobs keep running and fall back at
                    // their next offload; a job whose offload the reset
                    // aborted (active or COSMIC-queued) restarts the
                    // segment host-side now.
                    if !self.node(f.node).host.is_active(job) {
                        self.advance_segment(sim, job);
                    }
                }
                FallbackPolicy::Requeue => {
                    self.node_mut(f.node).host.abort(now, job);
                    self.sync_host(sim, f.node);
                    self.fault_requeue(sim, job);
                }
            }
        }
        sim.schedule_after(f.downtime, Ev::Recover(idx));
    }

    /// Startd vanishes: its ads are invalidated, every job on the node is
    /// killed and requeued, and the node's cards flush (MPSS restarts with
    /// the node). Nothing on the node matches until `Recover` re-advertises.
    fn on_node_churn(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        if self.node(f.node).down {
            return; // already down
        }
        let now = sim.now();
        self.node_churns += 1;
        self.node_mut(f.node).down = true;
        self.trace_ev(|| TraceEvent::NodeDown {
            node: f.node,
            at: now,
        });
        self.collector.invalidate_node(f.node);
        for dev in 0..self.cfg.devices_per_node {
            self.flush_device(sim, (f.node, dev));
        }
        for job in self.jobs_where(|s| matches!(s, Stage::Matched(k, _) if k.0 == f.node)) {
            self.fault_requeue(sim, job);
        }
        self.pull_back_pins(|k| k.0 == f.node);
        for job in self.jobs_where(|s| matches!(s, Stage::Running(r) if r.key.0 == f.node)) {
            self.node_mut(f.node).host.abort(now, job);
            self.fault_requeue(sim, job);
        }
        self.sync_host(sim, f.node);
        sim.schedule_after(f.downtime, Ev::Recover(idx));
    }

    fn on_recover(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        let now = sim.now();
        match f.kind {
            FaultKind::DeviceReset => {
                self.card_mut((f.node, f.device)).down = false;
                self.trace_ev(|| TraceEvent::DeviceRecovered {
                    node: f.node,
                    device: f.device,
                    at: now,
                });
            }
            FaultKind::NodeChurn => {
                self.node_mut(f.node).down = false;
                self.trace_ev(|| TraceEvent::NodeUp {
                    node: f.node,
                    at: now,
                });
                self.advertise_node(f.node);
            }
        }
        // Restored capacity can unblock queued work.
        if !self.drained() {
            self.request_cycle(sim, now + self.cfg.negotiation_trigger_delay);
        }
    }

    /// Backoff expiry: the vacated job becomes schedulable again.
    fn on_release(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        if !matches!(self.job(job).stage, Stage::Parked) {
            return;
        }
        self.job_mut(job).stage = Stage::Queued;
        self.parked -= 1;
        // MC jobs negotiate straight from Idle; scheduler-driven policies
        // leave the job Held so the next planning round re-pins it (it is
        // visible to `pending_views` again now that it is un-parked).
        if self.scheduler.is_none() {
            self.queue.release(job).expect("parked job is held");
        }
        self.request_cycle(sim, sim.now() + self.cfg.negotiation_trigger_delay);
    }

    // ------------------------------------------------------------------
    // Chaos perturbations
    // ------------------------------------------------------------------

    /// A perturbation window opens: record it and schedule its close.
    ///
    /// Unlike faults, perturbation windows are never absorbed by node
    /// churn — a derate on a down node is harmless (the device has no
    /// active offloads) and keeping the open/close pairing unconditional
    /// keeps the bookkeeping trivially balanced.
    fn on_perturb(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let p = self.perturbs.events[idx];
        self.perturb_windows += 1;
        match p.kind {
            PerturbKind::DeviceDerate { factor } => {
                let key = (p.node, p.device);
                self.card_mut(key).derates.insert(idx, factor);
                self.apply_derate(sim, key);
            }
            PerturbKind::OffloadLatency { extra } => {
                self.card_mut((p.node, p.device))
                    .latencies
                    .insert(idx, extra);
            }
            PerturbKind::StaleAds => self.stale_ad_depth += 1,
        }
        sim.schedule_after(p.duration, Ev::PerturbEnd(idx));
    }

    /// A perturbation window closes: undo exactly what `on_perturb` did.
    fn on_perturb_end(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let p = self.perturbs.events[idx];
        match p.kind {
            PerturbKind::DeviceDerate { .. } => {
                let key = (p.node, p.device);
                self.card_mut(key).derates.remove(&idx);
                self.apply_derate(sim, key);
            }
            PerturbKind::OffloadLatency { .. } => {
                self.card_mut((p.node, p.device)).latencies.remove(&idx);
            }
            PerturbKind::StaleAds => self.stale_ad_depth -= 1,
        }
    }

    /// Recompute the composite derate for one card and push it into the
    /// substrate.
    ///
    /// Overlapping windows multiply. The product folds over plan indices
    /// in ascending order (`BTreeMap` iteration), so every substrate
    /// performs the same IEEE operations in the same order.
    fn apply_derate(&mut self, sim: &mut Sim<Ev>, key: DevKey) {
        let card = self.card_mut(key);
        let scale = card.derates.values().product();
        card.device.set_rate_scale(sim.now(), scale);
        self.sync_completions(sim, key);
    }

    /// Reset one card and flush its COSMIC state.
    fn flush_device(&mut self, sim: &mut Sim<Ev>, key: DevKey) {
        let card = self.card_mut(key);
        card.device.reset(sim.now());
        if let Some(cos) = card.cosmic.as_mut() {
            cos.reset();
        }
        // Marks the bumped generation synced (nothing is resident, so no
        // prediction is pushed) and invalidates in-flight completions.
        self.sync_completions(sim, key);
    }

    /// Vacate a matched or running job: give back its card reservation
    /// (if matched) and its claimed slot (a no-op once its node churned
    /// away, as the ads are gone), then return it to the queue with
    /// exponential backoff, or hold it permanently once its retry budget
    /// is exhausted — HTCondor's periodic-release / `MaxRetries` policy.
    fn fault_requeue(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        let now = sim.now();
        let slot = match self.job(job).stage {
            Stage::Matched(key, slot) => {
                let spec = self.spec(job);
                self.card_mut(key).unreserve(spec);
                slot
            }
            Stage::Running(run) => run.slot,
            _ => unreachable!("vacating a job that is neither matched nor running"),
        };
        self.collector.release(slot);
        self.queue
            .requeue(job)
            .expect("vacated job was matched or running");
        if let Some(s) = self.scheduler.as_mut() {
            s.unpin(job);
        }
        let attempts = self.job(job).attempts;
        if attempts >= self.cfg.recovery.max_retries {
            self.job_mut(job).stage = Stage::Retired;
            self.retired += 1;
            self.trace_ev(|| TraceEvent::HeldMaxRetries { job, at: now });
            // Retirement is terminal: the run can end on it.
            self.last_terminal = now;
        } else {
            let rec = self.job_mut(job);
            (rec.stage, rec.attempts) = (Stage::Parked, attempts + 1);
            self.parked += 1;
            self.retries += 1;
            self.trace_ev(|| TraceEvent::Requeued {
                job,
                attempt: attempts + 1,
                at: now,
            });
            sim.schedule_after(self.cfg.recovery.backoff(attempts), Ev::Release(job));
        }
    }

    /// Jobs released+pinned but not yet matched whose target satisfies
    /// `pred` go back on hold; the scheduler re-plans them next cycle.
    fn pull_back_pins(&mut self, pred: impl Fn(DevKey) -> bool) {
        for job in self.jobs_where(|s| matches!(s, Stage::Pinned(k) if pred(*k))) {
            self.job_mut(job).stage = Stage::Queued;
            self.queue.hold(job).expect("pinned job is idle");
            if let Some(s) = self.scheduler.as_mut() {
                s.unpin(job);
            }
        }
    }

    /// Full re-advertise of a recovered node from ground truth (its ads
    /// were invalidated, so `refresh` has nothing to update).
    fn advertise_node(&mut self, node: u32) {
        let (free_mem, devices_free) = self.node_capacity(node);
        let startd = &self.nodes[(node - 1) as usize].startd;
        startd.advertise(&mut self.collector, free_mem, devices_free);
    }

    /// A node's advertised capacity: free declared memory summed over its
    /// up cards, and how many of those are idle. A card mid-reset
    /// contributes nothing.
    fn node_capacity(&self, node: u32) -> (u64, u32) {
        let first = self.card_index((node, 0));
        let cards = &self.cards[first..first + self.cfg.devices_per_node as usize];
        let up = cards.iter().filter(|c| !c.down);
        (
            up.clone().map(Card::free_mb).sum(),
            up.filter(|c| c.is_idle()).count() as u32,
        )
    }

    // ------------------------------------------------------------------
    // Scheduling support
    // ------------------------------------------------------------------

    /// Unplaced (held) jobs, in FIFO order, as the external scheduler sees
    /// them.
    fn pending_views(&self) -> Vec<PendingJob> {
        self.queue
            .held()
            .into_iter()
            // Parked (backing off) and retired jobs are held too, but the
            // scheduler must not plan them.
            .filter(|&id| matches!(self.job(id).stage, Stage::Queued))
            .map(|id| {
                let spec = self.spec(id);
                PendingJob {
                    id,
                    mem_mb: spec.mem_req_mb,
                    threads: spec.thread_req,
                    nominal_secs: self.job(id).nominal_secs,
                }
            })
            .collect()
    }

    /// Per-device free envelopes as the external scheduler sees them.
    fn device_views(&self) -> Vec<DeviceView> {
        self.cards
            .iter()
            .filter(|c| !c.down && !self.node(c.key.0).down)
            .map(|c| DeviceView {
                node: c.key.0,
                device: c.key.1,
                free_declared_mb: c.free_mb(),
                // Matched-but-undispatched jobs consume thread budget
                // too, or successive cycles would overfill a device.
                resident_threads: c.device.declared_threads() + c.inflight_threads,
            })
            .collect()
    }

    /// Refresh every node's slot ads from device ground truth.
    fn refresh_ads(&mut self) {
        for n in &self.nodes {
            if n.down {
                // A churned node has no ads to refresh; `refresh` would
                // fall back to a full advertise and resurrect the dead
                // startd. It re-advertises on recovery instead.
                continue;
            }
            let (free_mem, devices_free) = self.node_capacity(n.startd.node);
            n.startd
                .refresh(&mut self.collector, free_mem, devices_free);
        }
    }

    /// Pick the device on `node` with the most free declared memory that
    /// fits `mem_mb` (and, for the exclusive policy, is entirely free).
    fn choose_device(&self, node: u32, mem_mb: u64) -> Option<DevKey> {
        let mut best: Option<(u64, DevKey)> = None;
        if self.node(node).down {
            return None; // defensive: a churned node's ads are gone anyway
        }
        for dev in 0..self.cfg.devices_per_node {
            let card = self.card((node, dev));
            if card.down || (self.cfg.policy == ClusterPolicy::Mc && !card.is_idle()) {
                continue;
            }
            let free = card.free_mb();
            if free >= mem_mb && best.map(|(b, _)| free > b).unwrap_or(true) {
                best = Some((free, card.key));
            }
        }
        best.map(|(_, key)| key)
    }

    /// Schedule a negotiation cycle at `at` unless one is already due
    /// earlier.
    ///
    /// Under cycle jitter the scheduled instant slips late by
    /// `uniform(0, jitter_max_secs)`. The offset is a pure function of
    /// `(seed, cycle_seq)` via an indexed substream — not of how many
    /// times this method ran — so substrates that issue the same cycle
    /// sequence draw the same offsets.
    fn request_cycle(&mut self, sim: &mut Sim<Ev>, at: SimTime) {
        if let Some(due) = self.next_cycle {
            if due <= at {
                return;
            }
        }
        self.cycle_seq += 1;
        let at = if self.cfg.perturb.jitter_enabled() {
            let mut rng =
                DetRng::substream_indexed(self.cfg.seed, "perturb-jitter", self.cycle_seq);
            let offset = rng.uniform_range(0.0, self.cfg.perturb.jitter_max_secs);
            self.jittered_cycles += 1;
            at + SimDuration::from_secs_f64(offset)
        } else {
            at
        };
        self.next_cycle = Some(at);
        sim.schedule_at(at, Ev::Cycle(self.cycle_seq));
    }

    /// Whether the imminent cycle is provably a no-op. Exact, O(1):
    ///
    /// * `!world_dirty` — no event since the last executed cycle, so
    ///   device ground truth is unchanged and `refresh_ads` would rewrite
    ///   every ad to its current value (a clean no-op write);
    /// * no open stale-ad window — an executed cycle under one must still
    ///   advance `stale_ad_skips`, so it cannot be skipped;
    /// * nothing for the external scheduler to plan — every held job is
    ///   parked or retired, and `plan(&[], …)` is pure for every
    ///   scheduler (no RNG draws, no cache-counter movement);
    /// * every idle job's unmatched certificate covers the collector's
    ///   newest watermark — the negotiator-level quiescence predicate
    ///   ([`Negotiator::cycle_is_quiescent`]): each job would re-screen an
    ///   empty dirty set, match nothing, and re-certify at an unchanged
    ///   sequence.
    fn cycle_is_quiescent(&self) -> bool {
        !self.world_dirty
            && self.stale_ad_depth == 0
            && (self.scheduler.is_none() || self.queue.held_count() == self.parked + self.retired)
            && Negotiator::cycle_is_quiescent(&self.queue, &self.collector)
    }

    /// Debug-build proof obligation for a skipped cycle: replay full-oracle
    /// matchmaking on clones and assert it would have matched nothing. The
    /// proptests run debug builds, so every skip in every generated
    /// scenario re-proves itself against
    /// [`MatchPath::Full`](phishare_condor::MatchPath::Full).
    #[cfg(debug_assertions)]
    fn audit_quiescent_skip(&self) {
        let mut queue = self.queue.clone();
        let mut collector = self.collector.clone();
        let (matches, _) = self
            .negotiator
            .negotiate_full_with_stats(&mut queue, &mut collector);
        debug_assert!(
            matches.is_empty(),
            "quiescence skipped a cycle the full oracle would have matched {} job(s) in",
            matches.len()
        );
    }

    /// Jobs that completed, were killed, or retired (held after exhausting
    /// their retries). Parked jobs are not terminal — their pending
    /// `Release` will need a cycle.
    fn terminal(&self) -> usize {
        self.completed + self.container_kills + self.oom_kills + self.retired
    }

    /// True when no job will ever need another negotiation cycle: every
    /// job is [terminal](World::terminal). O(1); debug builds re-derive it
    /// from the queue.
    fn drained(&self) -> bool {
        let terminal = self.terminal();
        debug_assert_eq!(terminal == self.wl.len(), {
            // Parked and retired jobs are held, so they count as idle.
            let all_arrived = self.wl.jobs.iter().all(|j| self.queue.get(j.id).is_some());
            all_arrived && self.queue.active_counts() == (self.retired, 0, 0)
        });
        terminal == self.wl.len()
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    /// The run's measurements; `events` is how many live events the loop
    /// handled.
    fn into_result(self, cfg: &ClusterConfig, wl: &Workload, events: u64) -> ExperimentResult {
        let end = self.last_terminal;
        let n_dev = self.cards.len() as f64;
        let mut thread_util = 0.0;
        let mut core_util = 0.0;
        let mut mem_util = 0.0;
        let mut busy = 0.0;
        let mut energy_joules = 0.0;
        let mut oom_kills_devices = 0u64;
        for Card { device, .. } in &self.cards {
            let u = device.utilization(end);
            thread_util += u.thread_util;
            core_util += u.core_util;
            mem_util += u.mem_util;
            busy += u.busy_fraction;
            energy_joules += device.energy_joules(end);
            oom_kills_devices += device.oom_kill_count();
        }
        debug_assert_eq!(oom_kills_devices as usize, self.oom_kills);

        let mut host_util = 0.0;
        for n in &self.nodes {
            host_util += n.host.busy_core_average(end) / cfg.host_cores_per_node as f64;
        }
        host_util /= self.nodes.len() as f64;

        let plan_stats = self
            .scheduler
            .as_ref()
            .map(|s| s.plan_stats())
            .unwrap_or_default();

        let mut queue_waits = Summary::new();
        for cos in self.cards.iter().filter_map(|c| c.cosmic.as_ref()) {
            // Aggregate COSMIC queue waits across devices.
            if cos.queue_wait_count() > 0 {
                queue_waits.record(cos.queue_wait_mean());
            }
        }

        ExperimentResult {
            policy: cfg.policy,
            nodes: cfg.nodes,
            workload: wl.label.clone(),
            jobs: wl.len(),
            completed: self.completed,
            container_kills: self.container_kills,
            oom_kills: self.oom_kills,
            makespan_secs: end.as_secs_f64(),
            thread_utilization: thread_util / n_dev,
            core_utilization: core_util / n_dev,
            mem_utilization: mem_util / n_dev,
            device_busy_fraction: busy / n_dev,
            host_core_utilization: host_util,
            mean_wait_secs: self.waits.mean(),
            mean_turnaround_secs: self.turnarounds.mean(),
            mean_offload_queue_secs: queue_waits.mean(),
            negotiation_cycles: self.negotiation_cycles,
            cycles_skipped: self.cycles_skipped,
            pins_issued: self.pins_issued,
            energy_kwh: energy_joules / 3.6e6,
            events_processed: events,
            device_resets: self.device_resets,
            node_churns: self.node_churns,
            retries: self.retries,
            fallback_offloads: self.fallback_offloads,
            perturb_windows: self.perturb_windows,
            stale_ad_skips: self.stale_ad_skips,
            jittered_cycles: self.jittered_cycles,
            inflated_offloads: self.inflated_offloads,
            stale_match_rejects: self.stale_match_rejects,
            held_after_retries: self.retired,
            plan_cache_hits: plan_stats.cache_hits,
            plan_cache_misses: plan_stats.cache_misses,
            plan_ms: self.plan_nanos as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_sim::SimDuration;
    use phishare_workload::{WorkloadBuilder, WorkloadKind};

    fn small_workload(n: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(n)
            .seed(seed)
            .build()
    }

    fn fast_config(policy: ClusterPolicy) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_cluster(policy);
        cfg.nodes = 4;
        cfg.knapsack.window = 64;
        cfg
    }

    #[test]
    fn mc_runs_all_jobs_to_completion() {
        let wl = small_workload(40, 1);
        let r = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap();
        assert!(r.all_completed(), "{r:?}");
        assert_eq!(r.oom_kills, 0);
        assert_eq!(r.container_kills, 0);
        assert!(r.makespan_secs > 0.0);
        assert_eq!(r.pins_issued, 0);
    }

    #[test]
    fn mcc_and_mcck_run_all_jobs_to_completion() {
        let wl = small_workload(40, 2);
        for policy in [ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let r = Experiment::run(&fast_config(policy), &wl).unwrap();
            assert!(r.all_completed(), "{policy}: {r:?}");
            assert_eq!(r.oom_kills, 0, "{policy} must never oversubscribe");
            assert!(r.pins_issued >= 40, "{policy} pins every job");
        }
    }

    #[test]
    fn sharing_beats_exclusive_on_makespan() {
        let wl = small_workload(60, 3);
        let mc = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap();
        let mcck = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap();
        assert!(
            mcck.makespan_secs < mc.makespan_secs,
            "MCCK {} vs MC {}",
            mcck.makespan_secs,
            mc.makespan_secs
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let wl = small_workload(30, 4);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let a = Experiment::run(&cfg, &wl).unwrap();
        let b = Experiment::run(&cfg, &wl).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quiescence_skipping_is_bit_identical_and_actually_skips() {
        // Long single-offload jobs: while they run, whole heartbeat
        // windows pass with no event at all — exactly the cycles
        // quiescence is meant to skip. (Table1Mix jobs switch segments so
        // often that nearly every window sees an event.)
        let mut wl = small_workload(12, 21);
        for job in &mut wl.jobs {
            job.mem_req_mb = 3000;
            job.actual_peak_mem_mb = 3000;
            job.thread_req = 60;
            job.profile = phishare_workload::JobProfile::new(vec![Segment::offload(
                60,
                SimDuration::from_secs(50),
            )]);
        }
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let mut on = fast_config(policy);
            on.negotiation_interval = SimDuration::from_secs(2);
            let mut off = on;
            off.skip_quiescent = false;
            let (r_on, t_on) = Experiment::new(&on, &wl).simulate_traced().unwrap();
            let (r_off, t_off) = Experiment::new(&off, &wl).simulate_traced().unwrap();
            // `PartialEq` excludes `cycles_skipped`; everything else —
            // every counter, every utilization, the makespan — matches.
            assert_eq!(r_on, r_off, "{policy}: results diverged");
            assert_eq!(t_on.events, t_off.events, "{policy}: traces diverged");
            assert_eq!(r_off.cycles_skipped, 0, "{policy}: off means off");
            assert!(
                r_on.cycles_skipped > 0,
                "{policy}: long offloads leave quiet heartbeats to skip \
                 ({} cycles, 0 skipped)",
                r_on.negotiation_cycles
            );
            assert!(r_on.cycles_skipped < r_on.negotiation_cycles);
        }
    }

    #[test]
    fn partitioned_runs_are_bit_identical() {
        let wl = small_workload(40, 22);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcck] {
            let base = fast_config(policy);
            let r1 = Experiment::run(&base, &wl).unwrap();
            for parts in [2, 5] {
                let mut cfg = base;
                cfg.partitions = parts;
                let rp = Experiment::run(&cfg, &wl).unwrap();
                assert_eq!(r1, rp, "{policy}: partitions={parts} diverged");
            }
        }
    }

    #[test]
    fn misbehaving_jobs_are_container_killed_under_cosmic() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(30)
            .seed(5)
            .misbehaving_fraction(0.5)
            .build();
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap();
        assert!(r.container_kills > 0, "{r:?}");
        assert_eq!(r.oom_kills, 0, "containers must fire before physical OOM");
        assert_eq!(r.completed + r.container_kills, r.jobs);
    }

    #[test]
    fn thread_hog_is_rejected_up_front_under_mcck() {
        let hog = |threads: u32| {
            let mut wl = small_workload(3, 12);
            wl.jobs[1].thread_req = threads;
            // Keep the spec self-consistent (declared = profile max).
            if let Segment::Offload { threads: t, .. } = &mut wl.jobs[1].profile.segments[1] {
                *t = threads;
            }
            wl
        };
        let rejected = |cfg: &ClusterConfig, threads: u32, budget: u32| {
            let err = Experiment::run(cfg, &hog(threads)).unwrap_err();
            assert!(
                err.contains(&format!("per-device thread budget is {budget};")),
                "{err}"
            );
        };
        for policy in [ClusterPolicy::Mcck, ClusterPolicy::Oracle] {
            let mut cfg = fast_config(policy);
            rejected(&cfg, 500, 360);
            // The budget is exact: 240 × 1.25 = 300 threads fit, 301 never.
            cfg.knapsack.thread_overcommit = 1.25;
            assert_eq!(Experiment::run(&cfg, &hog(300)).unwrap().completed, 3);
            rejected(&cfg, 301, 300);
            // The lax ablation packs each round against the bare hardware
            // limit, so no planner could ever place a 300-thread job.
            cfg.knapsack.count_resident_threads = false;
            rejected(&cfg, 300, 240);
        }
        // MCC has no knapsack thread filter; COSMIC clamps at admission, so
        // the same workload completes there.
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcc), &hog(500)).unwrap();
        assert_eq!(r.completed, 3);
    }

    #[test]
    fn oversized_job_is_rejected_up_front() {
        let mut wl = small_workload(3, 6);
        wl.jobs[1].mem_req_mb = 100_000;
        let err = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap_err();
        assert!(err.contains("100000"), "{err}");
    }

    #[test]
    fn single_job_timeline_matches_profile() {
        // One job, exclusive cluster: makespan = arrival + first cycle (0)
        // + dispatch delay + nominal duration, within a tick.
        let wl = small_workload(1, 7);
        let mut cfg = fast_config(ClusterPolicy::Mc);
        cfg.nodes = 1;
        let r = Experiment::run(&cfg, &wl).unwrap();
        let expect = cfg.dispatch_delay.as_secs_f64() + wl.jobs[0].nominal_duration().as_secs_f64();
        assert!(
            (r.makespan_secs - expect).abs() < 0.01,
            "makespan {} vs expected {expect}",
            r.makespan_secs
        );
    }

    #[test]
    fn poisson_arrivals_complete() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(25)
            .seed(8)
            .arrivals(phishare_workload::ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs(2),
            })
            .build();
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap();
        assert!(r.all_completed(), "{r:?}");
    }

    #[test]
    fn mc_exclusive_uses_at_most_one_job_per_device() {
        // Indirect check: MC on 2 nodes with 10 jobs has mean wait far above
        // MCCK's (jobs serialize per device).
        let wl = small_workload(10, 9);
        let mut cfg = fast_config(ClusterPolicy::Mc);
        cfg.nodes = 2;
        let mc = Experiment::run(&cfg, &wl).unwrap();
        let mut cfg2 = fast_config(ClusterPolicy::Mcck);
        cfg2.nodes = 2;
        let mcck = Experiment::run(&cfg2, &wl).unwrap();
        assert!(mc.mean_wait_secs > mcck.mean_wait_secs);
    }

    #[test]
    fn traced_runs_match_untraced_results() {
        let wl = small_workload(25, 11);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let plain = Experiment::run(&cfg, &wl).unwrap();
        let (traced, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        // Every job leaves a complete lifecycle in the trace.
        use crate::trace::TraceEvent as TE;
        let count = |f: fn(&TE) -> bool| trace.events.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, TE::Submitted { .. })), 25);
        assert_eq!(count(|e| matches!(e, TE::Pinned { .. })), 25);
        assert_eq!(count(|e| matches!(e, TE::Dispatched { .. })), 25);
        assert_eq!(count(|e| matches!(e, TE::Completed { .. })), 25);
        let started = count(|e| matches!(e, TE::OffloadStarted { .. }));
        let finished = count(|e| matches!(e, TE::OffloadFinished { .. }));
        assert_eq!(started, finished);
        let total_offloads: usize = wl.jobs.iter().map(|j| j.profile.offload_count()).sum();
        assert_eq!(started, total_offloads);
        // Spans reconstruct one interval per offload.
        assert_eq!(trace.offload_spans().len(), total_offloads);
    }

    #[test]
    fn utilization_is_sane() {
        let wl = small_workload(40, 10);
        let r = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap();
        assert!(
            r.core_utilization > 0.1 && r.core_utilization < 1.0,
            "{r:?}"
        );
        assert!(r.thread_utilization > 0.1 && r.thread_utilization <= 1.0);
        assert!(r.device_busy_fraction > r.core_utilization - 1e-9);
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    use crate::audit::audit;
    use crate::fault::FaultEvent;
    use phishare_sim::SimTime;

    fn one_fault(
        kind: FaultKind,
        node: u32,
        device: u32,
        at_secs: u64,
        down_secs: u64,
    ) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                kind,
                node,
                device,
                at: SimTime::from_secs(at_secs),
                downtime: SimDuration::from_secs(down_secs),
            }],
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        let wl = small_workload(30, 21);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let plain = Experiment::run(&cfg, &wl).unwrap();
            let faulted = Experiment::new(&cfg, &wl)
                .faults(&FaultPlan::empty())
                .simulate()
                .unwrap();
            assert_eq!(plain, faulted, "{policy}: empty plan perturbed the run");
        }
    }

    #[test]
    fn device_reset_degrades_to_host_fallback_and_completes() {
        let wl = small_workload(20, 22);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let plan = one_fault(FaultKind::DeviceReset, 1, 0, 5, 30);
        let (r, trace) = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .simulate_traced()
            .unwrap();
        assert_eq!(r.device_resets, 1);
        assert_eq!(r.node_churns, 0);
        // HostOnly fallback: jobs caught on the card keep their slot and
        // finish host-side — nothing is lost, nothing retries.
        assert!(r.all_completed(), "{r:?}");
        assert!(
            r.fallback_offloads > 0,
            "a job caught mid-run should have fallen back: {r:?}"
        );
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn node_churn_vacates_retries_and_recovers() {
        let wl = small_workload(20, 23);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let plan = one_fault(FaultKind::NodeChurn, 1, 0, 5, 60);
        let (r, trace) = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .simulate_traced()
            .unwrap();
        assert_eq!(r.node_churns, 1);
        assert!(r.retries > 0, "churn should vacate running jobs: {r:?}");
        assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs
        );
        // Default budget (3 retries) absorbs a single churn.
        assert!(r.all_completed(), "{r:?}");
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn requeue_policy_with_no_retries_holds_victims() {
        let wl = small_workload(10, 24);
        let mut cfg = fast_config(ClusterPolicy::Mc);
        cfg.nodes = 1;
        cfg.recovery.fallback = FallbackPolicy::Requeue;
        cfg.recovery.max_retries = 0;
        let plan = one_fault(FaultKind::DeviceReset, 1, 0, 5, 30);
        let (r, trace) = Experiment::new(&cfg, &wl)
            .faults(&plan)
            .simulate_traced()
            .unwrap();
        assert_eq!(r.held_after_retries, 1, "{r:?}");
        assert_eq!(r.retries, 0, "a zero budget never grants a retry");
        assert_eq!(r.completed + r.held_after_retries, r.jobs);
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    // ------------------------------------------------------------------
    // Substrate differential & scratch recycling
    // ------------------------------------------------------------------

    #[test]
    fn shared_substrate_matches_naive_shared_oracle() {
        let wl = small_workload(40, 31);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let shared = Experiment::new(&cfg, &wl)
                .substrate(SubstrateMode::Shared)
                .simulate()
                .unwrap();
            let naive = Experiment::new(&cfg, &wl)
                .substrate(SubstrateMode::SharedNaive)
                .simulate()
                .unwrap();
            assert_eq!(shared, naive, "{policy}: shared engines diverged");
            assert!(shared.completed > 0, "{policy}: nothing ran end-to-end");
        }
    }

    #[test]
    fn heterogeneous_pools_run_end_to_end_on_shared_substrates() {
        let wl = small_workload(30, 35);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                kind: FaultKind::DeviceReset,
                node: 2,
                device: 0,
                at: SimTime::from_secs(5),
                downtime: SimDuration::from_secs(20),
            }],
        };
        for pool in [
            crate::config::DevicePool::Alternate(crate::config::DeviceSku::GpuLike),
            crate::config::DevicePool::Alternate(crate::config::DeviceSku::Phi3120a),
        ] {
            for policy in [ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
                let mut cfg = fast_config(policy);
                cfg.pool = pool;
                let (shared, shared_trace) = Experiment::new(&cfg, &wl)
                    .faults(&plan)
                    .substrate(SubstrateMode::Shared)
                    .simulate_traced()
                    .unwrap();
                let (naive, naive_trace) = Experiment::new(&cfg, &wl)
                    .faults(&plan)
                    .substrate(SubstrateMode::SharedNaive)
                    .simulate_traced()
                    .unwrap();
                assert_eq!(shared, naive, "{policy}/{pool:?}: shared engines diverged");
                assert_eq!(
                    shared_trace.events, naive_trace.events,
                    "{policy}/{pool:?}: traces diverged"
                );
                assert!(
                    shared.completed > 0,
                    "{policy}/{pool:?}: nothing ran end-to-end"
                );
                let violations = crate::audit(&cfg, &wl, &shared, &shared_trace);
                assert!(violations.is_empty(), "{policy}/{pool:?}: {violations:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let wl = small_workload(30, 32);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let fresh = Experiment::run(&cfg, &wl).unwrap();
        let mut scratch = ExperimentScratch::new();
        let first = Experiment::new(&cfg, &wl)
            .scratch(&mut scratch)
            .simulate()
            .unwrap();
        let second = Experiment::new(&cfg, &wl)
            .scratch(&mut scratch)
            .simulate()
            .unwrap();
        assert_eq!(fresh, first, "cold scratch perturbed the run");
        assert_eq!(fresh, second, "recycled scratch perturbed the run");
        // A different cell through the same (dirty) scratch is unaffected.
        let cfg2 = fast_config(ClusterPolicy::Mc);
        let fresh2 = Experiment::run(&cfg2, &wl).unwrap();
        let third = Experiment::new(&cfg2, &wl)
            .scratch(&mut scratch)
            .simulate()
            .unwrap();
        assert_eq!(fresh2, third, "scratch leaked state across cells");
    }

    #[test]
    fn generated_plans_run_and_audit_clean() {
        let wl = small_workload(25, 26);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.faults.device_mtbf_secs = 150.0;
        cfg.faults.node_mtbf_secs = 400.0;
        cfg.faults.horizon_secs = 600.0;
        let (r, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        assert!(
            r.device_resets + r.node_churns > 0,
            "an aggressive MTBF should strike at least once: {r:?}"
        );
        assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs
        );
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    // ------------------------------------------------------------------
    // Chaos perturbations
    // ------------------------------------------------------------------

    /// A config with the whole perturbation stack switched on.
    fn chaos_config(policy: ClusterPolicy) -> ClusterConfig {
        let mut cfg = fast_config(policy);
        cfg.perturb.derate.mean_gap_secs = 40.0;
        cfg.perturb.derate.duration_secs = 25.0;
        cfg.perturb.derate.factor = 0.4;
        cfg.perturb.latency.mean_gap_secs = 30.0;
        cfg.perturb.latency.duration_secs = 20.0;
        cfg.perturb.latency.extra_secs = 1.5;
        cfg.perturb.stale_ads.mean_gap_secs = 35.0;
        cfg.perturb.stale_ads.duration_secs = 25.0;
        cfg.perturb.jitter_max_secs = 2.0;
        cfg.perturb.horizon_secs = 600.0;
        cfg
    }

    #[test]
    fn empty_perturb_plan_is_bit_identical_to_plain_run() {
        let wl = small_workload(30, 41);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let plain = Experiment::run(&cfg, &wl).unwrap();
            let (chaos, _) = Experiment::new(&cfg, &wl)
                .faults(&FaultPlan::empty())
                .perturbs(&PerturbPlan::empty())
                .simulate_traced()
                .unwrap();
            assert_eq!(plain, chaos, "{policy}: empty stack perturbed the run");
        }
    }

    #[test]
    fn perturbed_runs_are_deterministic_and_audit_clean() {
        let wl = small_workload(30, 42);
        let cfg = chaos_config(ClusterPolicy::Mcck);
        let (a, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        let (b, _) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        assert_eq!(a, b);
        assert!(a.perturb_windows > 0, "stack never opened a window: {a:?}");
        assert!(a.jittered_cycles > 0, "jitter never fired: {a:?}");
        assert_eq!(
            a.completed + a.container_kills + a.oom_kills + a.held_after_retries,
            a.jobs
        );
        let violations = audit(&cfg, &wl, &a, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn derate_windows_stretch_the_makespan() {
        let wl = small_workload(40, 43);
        let plain_cfg = fast_config(ClusterPolicy::Mcck);
        let mut cfg = plain_cfg;
        // A near-continuous heavy derate on every card.
        cfg.perturb.derate.mean_gap_secs = 10.0;
        cfg.perturb.derate.duration_secs = 120.0;
        cfg.perturb.derate.factor = 0.25;
        cfg.perturb.horizon_secs = 3600.0;
        let plain = Experiment::run(&plain_cfg, &wl).unwrap();
        let derated = Experiment::run(&cfg, &wl).unwrap();
        assert!(derated.perturb_windows > 0, "{derated:?}");
        assert!(
            derated.makespan_secs > plain.makespan_secs,
            "derate {} vs plain {}",
            derated.makespan_secs,
            plain.makespan_secs
        );
    }

    #[test]
    fn latency_spikes_inflate_offloads() {
        let wl = small_workload(30, 44);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.perturb.latency.mean_gap_secs = 15.0;
        cfg.perturb.latency.duration_secs = 60.0;
        cfg.perturb.latency.extra_secs = 3.0;
        cfg.perturb.horizon_secs = 1800.0;
        let r = Experiment::run(&cfg, &wl).unwrap();
        assert!(r.inflated_offloads > 0, "{r:?}");
        assert!(r.all_completed(), "{r:?}");
    }

    #[test]
    fn stale_ads_skip_refreshes_but_jobs_still_complete() {
        let wl = small_workload(30, 45);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.perturb.stale_ads.mean_gap_secs = 10.0;
        cfg.perturb.stale_ads.duration_secs = 40.0;
        cfg.perturb.horizon_secs = 1800.0;
        let (r, trace) = Experiment::new(&cfg, &wl).simulate_traced().unwrap();
        assert!(r.stale_ad_skips > 0, "{r:?}");
        assert!(r.all_completed(), "{r:?}");
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn perturbed_runs_match_across_shared_engines() {
        let wl = small_workload(25, 47);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = chaos_config(policy);
            let faults = FaultPlan::generate(&cfg);
            let perturbs = PerturbPlan::generate(&cfg);
            let run = |mode| {
                Experiment::new(&cfg, &wl)
                    .substrate(mode)
                    .faults(&faults)
                    .perturbs(&perturbs)
                    .simulate_traced()
            };
            let (shared, shared_trace) = run(SubstrateMode::Shared).unwrap();
            let (naive, naive_trace) = run(SubstrateMode::SharedNaive).unwrap();
            assert_eq!(
                shared, naive,
                "{policy}: shared engines diverged under chaos"
            );
            assert_eq!(
                shared_trace.events, naive_trace.events,
                "{policy}: shared traces diverged under chaos"
            );
        }
    }
}
