//! The negotiator: periodic FIFO matchmaking cycles.
//!
//! "The central manager then initiates a negotiation cycle during which all
//! pending jobs are examined in FIFO order, and matched with machines.
//! Negotiation cycles are triggered periodically." (§II-D)
//!
//! The paper's scheduler interacts with this component only indirectly: it
//! qedits job `Requirements` and then *waits for the next cycle* — the
//! source of the integration overhead the paper observes on the high-skew
//! distribution (§V-B).
//!
//! # Match paths
//!
//! Three implementations produce bit-identical matches, stats, and
//! collector/queue effects; they differ only in how much work they avoid:
//!
//! * **Delta** ([`MatchPath::Delta`], the default) — incremental
//!   matchmaking. Jobs the previous cycle certified unmatched are only
//!   re-screened against slots *dirtied since* that certificate
//!   (`Collector::dirty_since`); per-cycle work tracks the mutation
//!   churn, not the (jobs × slots) cross product.
//! * **Full** ([`MatchPath::Full`]) — the compiled full-rematch fast path:
//!   every pending job re-screens the whole pool through the narrowest
//!   collector index its guards allow. Retained as the delta path's
//!   differential oracle.
//! * **Naive** ([`Negotiator::negotiate_naive_with_stats`]) — the original
//!   implementation, a full scan that re-parses `Requirements`/`Rank` for
//!   every (job, slot) pair. The benchmark baseline.
//!
//! # Why the delta path is exact
//!
//! The match predicate for a (job, slot) pair is a pure function of the job
//! ad, the slot ad, and the slot's claim flag — nothing else. Suppose a
//! cycle evaluated job J against the *entire* pool at collector sequence
//! `s` and found no admitting slot. At any later sequence, a slot can admit
//! J only if its ad changed after `s` — an unchanged unclaimed slot
//! re-evaluates to the same "reject", and claiming only removes candidates.
//! The collector stamps every ad mutation (including in-cycle resource
//! decrements — the predicate is not assumed monotone, a requirement may
//! want *less* of something) and slot release, so `dirty_since(s)` is a
//! superset of J's possible admitters. Screening just that set against the
//! full predicate is therefore exact, and when it finds nothing the cycle
//! re-certifies J at the current sequence ([`JobQueue::note_unmatched`]).
//!
//! A cohort (below) whose members hold no standing certificate (fresh
//! arrivals, qedited jobs, hold/release round trips) is screened against
//! the whole pool, exactly like the full path.
//!
//! The cycle runs in three phases over *cohorts*: a whole autocluster, or
//! one member of it when the cycle must work per job (see
//! "Autoclusters").
//!
//! 1. **index registration** (`&mut Collector`): each cohort's
//!    `>=`-shaped guards register their attribute with the collector's
//!    guard indexes (idempotent, capped), in the order of the cohorts'
//!    first members, so phases 2–3 are pure reads plus the serial commit.
//!    This also resolves the well-known attributes once per cycle instead
//!    of per (job, slot) evaluation.
//! 2. **screen** (read-only): each cohort's first member computes its best
//!    slot against the pre-cycle snapshot — over the dirt since the
//!    cohort's newest certificate, or over the indexed pool when it holds
//!    none. Screens are independent, so they fan out across scoped
//!    threads (see below).
//! 3. **commit** (serial): members claim in FIFO order, drawn from an
//!    ordered set of cursors that holds each awake cohort's next member by
//!    queue position. A member whose screened winner is still valid (not
//!    claimed, not dirtied since the snapshot) only re-ranks slots dirtied
//!    *during* the cycle by earlier commits and takes the better of the
//!    two — the winner rule is a total order, so this combination equals a
//!    full re-evaluation. If the screened winner was invalidated (claimed
//!    or re-advertised mid-cycle), the member falls back to a full indexed
//!    rescan; if the screen found nothing, only the in-cycle dirty set can
//!    admit it.
//!
//!    A class rejected at sequence `s` leaves the cursor set and sleeps:
//!    the rejected member and every later one become one certificate run
//!    at `s`, and no per-job state is touched. After each commit, each
//!    sleeping class re-ranks `dirty_since(s)` once, for its first member
//!    after the commit. An admitter wakes the class at that member, which
//!    re-ranks the dirt since `s` again when its turn comes. Otherwise the
//!    members from there on become a run at the current sequence — the
//!    certificate a per-job cycle would have given each of them.
//!
//! So a cycle does O(cohorts × (matches + 1)) visits, not O(pending jobs).
//! `considered` is the idle count, and `unmatched` is the idle count minus
//! `matched`.
//!
//! # Autoclusters
//!
//! HTCondor groups idle jobs with identical matchmaking attributes into
//! *autoclusters* and, once one member is rejected, skips the rest of its
//! autocluster for the cycle. The queue keeps such classes persistently
//! ([`JobQueue::autoclusters`]). Two idle jobs share a class when:
//!
//! * their compiled requirements are equal and fully compiled — guards and
//!   pins only (or `never`), no residual expression;
//! * neither ad has a `Rank`.
//!
//! Every other job is a class of one. [`QueuedJob::class_key`] hashes the
//! requirement when it is compiled; the table confirms membership with
//! `==` against the requirement the class stores, so a hash collision
//! only costs the sharing. The table changes on submission, both qedits,
//! and every transition into or out of `Idle`, and it keeps each member's
//! certificate in runs of queue positions.
//!
//! A cycle treats a class as one cohort when no slot in the pool carries a
//! machine-side `Requirements` ([`Collector::slots_with_requirements`] is
//! zero). Then the predicate and the winner rule read nothing of the job
//! ad: a compiled guard or pin tests only the slot ad, the rank is 0, and
//! no slot reads the job back. Which slot wins is therefore a function of
//! the requirement and the pool alone. `RequestPhiMemory` and the
//! exclusive flag are read only by the commit, so they may differ within a
//! class. Two consequences make the cycle exact:
//!
//! * any member's certificate covers the whole class. A slot unchanged
//!   since the certificate carries no machine-side `Requirements` now, so
//!   it had none then, and it rejected the member on the class's shared
//!   predicate. One screen with the class's newest certificate serves
//!   every member;
//! * a member rejected at sequence `s` certifies, for the whole class,
//!   that no slot admitted it at `s`. By the certificate argument above, a
//!   later member can only be admitted by a slot dirtied after `s`, and
//!   when the collector is still at `s` there is none.
//!
//! When some slot does carry a machine-side `Requirements`, it may read
//! the job ad, so every member is a cohort of its own: screened with its
//! own certificate and certified alone ([`JobQueue::note_unmatched`]),
//! runs of one member each. [`MatchPath::Full`] and the naive path always
//! work per job, and stay the oracles the class path is checked against.
//!
//! # The screen and its fan-out
//!
//! Every path screens through one pre-screen recipe: a job's requirement
//! compiles to a `ScreenPlan` (never → `Name` pin → `Machine` pin →
//! narrowest guard index → unclaimed scan) once per cycle, and one executor
//! runs that plan against either the whole pool or one collector partition
//! ([`Collector::with_partitions`]). The full path and the commit-phase
//! rescan execute plans against the whole pool. A delta certificate holder
//! re-ranks its dirt instead, unless its own plan is provably narrow (a
//! pin, an impossible requirement, or a guard range under the selectivity
//! probe); then that plan runs once against the whole pool.
//!
//! The remaining plans fan out over (partition × job-chunk) units: one
//! unit per partition when the collector is partitioned, and up to eight
//! chunks of a long cohort list when it is not. Units share `&JobQueue`
//! and `&Collector` (no interior mutability anywhere below them) and each
//! caches its partition's dirt since its oldest certificate as one
//! stamp-sorted vector, sliced per cohort by binary search. The
//! per-unit winners merge serially by the winner rule (highest rank, ties
//! to the lowest slot id) — a total order, so merging partition maxima
//! equals evaluating the union, and results are independent of both the
//! partition count and the thread count. Units run on scoped threads when
//! the thread budget allows (`PHISHARE_PARTITION_THREADS`, else the
//! machine's parallelism). All claims and resource decrements happen in
//! the serial phase 3, which remains the sole author of collector
//! mutations; match order is FIFO by construction.
//!
//! # Quiescent cycles
//!
//! A delta cycle whose every idle job holds a certificate at least as new
//! as the pool's newest dirtying mutation (`Collector::max_watermark`)
//! is provably a no-op: each job would re-screen an empty dirty set,
//! re-certify at an unchanged sequence, and match nothing. With
//! [`Negotiator::with_quiescence`] enabled (the default) the delta path
//! detects this in O(1) — [`JobQueue::idle_cert_floor`] against the
//! watermark — and returns the cycle's exact stats without touching the
//! queue, the collector, or the pending list. The fast path fires only
//! when the executed cycle would have been state-identical, so results
//! remain bit-for-bit equal to [`MatchPath::Full`]; the `Full` path never
//! short-circuits and stays the differential oracle.

use crate::attrs;
use crate::autocluster::ClassId;
use crate::collector::{Collector, SlotId};
use crate::queue::{JobQueue, QueuedJob};
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::compiled::GuardOp;
use phishare_classad::{eval, parse, ClassAd, CompiledReq, Value};
use phishare_sim::SimDuration;
use phishare_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Summary of one negotiation cycle (what the negotiator logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleStats {
    /// Pending jobs examined (FIFO order).
    pub considered: usize,
    /// Jobs matched to a slot this cycle.
    pub matched: usize,
    /// Jobs left pending: no unclaimed slot satisfied the two-sided match.
    pub unmatched: usize,
}

/// A successful match produced by one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// The matched job.
    pub job: JobId,
    /// The slot the job will run on.
    pub slot: SlotId,
}

/// Which negotiation implementation [`Negotiator::negotiate_with_stats`]
/// dispatches to. All paths produce identical results (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MatchPath {
    /// Incremental delta-driven matchmaking (the default).
    #[default]
    Delta,
    /// Full rematch of every pending job each cycle, through the compiled
    /// guard indexes. The delta path's differential oracle.
    Full,
}

impl std::str::FromStr for MatchPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "delta" => Ok(MatchPath::Delta),
            "full" => Ok(MatchPath::Full),
            other => Err(format!("unknown negotiation path '{other}' (delta|full)")),
        }
    }
}

/// Pending-job count below which an unpartitioned screen is not split into
/// job chunks — thread spawn overhead dwarfs the work saved on small queues.
const PAR_SCREEN_MIN: usize = 32;

/// Most job chunks an unpartitioned screen is split into.
const MAX_SCREEN_CHUNKS: usize = 8;

/// How many candidates the guard-index selectivity probe inspects per
/// index before choosing the narrowest (see [`pick_guard_index`]).
const SELECTIVITY_PROBE: usize = 33;

/// The matchmaking component of the central manager.
#[derive(Debug, Clone, Copy)]
pub struct Negotiator {
    /// Gap between negotiation cycles (HTCondor's `NEGOTIATOR_INTERVAL`,
    /// 60 s by default; the paper's overhead analysis hinges on this).
    pub interval: SimDuration,
    /// Which implementation [`Negotiator::negotiate_with_stats`] runs.
    pub path: MatchPath,
    /// Whether the delta path may skip provably no-op cycles (module
    /// docs). Unobservable in results; off only to measure the skip.
    quiescence: bool,
}

impl Default for Negotiator {
    fn default() -> Self {
        Negotiator {
            interval: SimDuration::from_secs(60),
            path: MatchPath::default(),
            quiescence: true,
        }
    }
}

impl Negotiator {
    /// Create a negotiator with the given cycle interval.
    pub fn new(interval: SimDuration) -> Self {
        Negotiator {
            interval,
            ..Negotiator::default()
        }
    }

    /// Select the negotiation implementation.
    pub fn with_path(self, path: MatchPath) -> Self {
        Negotiator { path, ..self }
    }

    /// Enable or disable the quiescent-cycle fast path (delta path only;
    /// on by default). Results are identical either way — disabling it
    /// exists so benchmarks can time the executed cycle.
    pub fn with_quiescence(self, quiescence: bool) -> Self {
        Negotiator { quiescence, ..self }
    }

    /// Whether a delta cycle right now would provably be a no-op: every
    /// idle job certified unmatched at or after the pool's newest dirtying
    /// mutation. O(1); exact (module docs).
    pub fn cycle_is_quiescent(queue: &JobQueue, collector: &Collector) -> bool {
        queue
            .idle_cert_floor()
            .is_some_and(|floor| collector.max_watermark() <= floor)
    }

    /// Job chunks an unpartitioned delta screen of a long queue fans out
    /// over. Benches and the benchmark record this in their knob blocks.
    pub fn shard_count(&self) -> usize {
        crate::collector::partition_threads(MAX_SCREEN_CHUNKS)
    }

    /// Run one negotiation cycle: examine pending jobs in FIFO order, match
    /// each against the unclaimed slots, claim matched slots and decrement
    /// the matched node's advertised Phi resources so the *same cycle*
    /// cannot overcommit them.
    pub fn negotiate(&self, queue: &mut JobQueue, collector: &mut Collector) -> Vec<Match> {
        self.negotiate_with_stats(queue, collector).0
    }

    /// [`Negotiator::negotiate`] plus the cycle's accounting, via the
    /// configured [`MatchPath`].
    pub fn negotiate_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        match self.path {
            MatchPath::Delta => self.negotiate_delta_with_stats(queue, collector),
            MatchPath::Full => self.negotiate_full_with_stats(queue, collector),
        }
    }

    /// The compiled full-rematch fast path (see module docs); it clones no
    /// ads and reuses one candidate buffer across all jobs of the cycle.
    pub fn negotiate_full_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        let pending = queue.pending();
        register_guard_indexes(queue, &pending, collector);
        run_cycle(queue, collector, &pending, |job, collector| {
            best_slot(job, collector).map(|(_, slot)| slot)
        })
    }

    /// The incremental delta path (see module docs for the phases and the
    /// exactness argument). It visits classes, not pending jobs: a class
    /// rejected at sequence `s` skips its remaining members in one
    /// certificate run, and wakes only when a later commit dirties a slot
    /// that admits it.
    pub fn negotiate_delta_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        let considered = queue.idle_count();
        // Quiescence fast path: when every idle certificate covers the
        // newest watermark, the executed cycle would re-screen empty dirty
        // sets, match nothing, and re-stamp each certificate at its
        // unchanged sequence — a pure no-op whose stats we can emit
        // directly.
        let matches = if self.quiescence && Self::cycle_is_quiescent(queue, collector) {
            Vec::new()
        } else {
            negotiate_cohorts(queue, collector)
        };
        let matched = matches.len();
        let stats = CycleStats {
            considered,
            matched,
            unmatched: considered - matched,
        };
        (matches, stats)
    }

    /// The pre-optimization negotiation cycle, kept verbatim as the
    /// reference implementation: scan every unclaimed slot for every job
    /// and re-parse each expression per evaluation. Differential tests
    /// hold the fast path to byte-identical matches and stats against
    /// this; the negotiation benchmark reports the speedup over it.
    pub fn negotiate_naive_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        let pending = queue.pending();
        run_cycle(queue, collector, &pending, |job, collector| {
            let mut best: Option<(f64, SlotId)> = None;
            for slot in collector.unclaimed() {
                let status = collector.get(slot).expect("listed slot exists");
                if naive_matches(&job.ad, &status.ad) {
                    let rank = naive_rank(&job.ad, &status.ad);
                    let better = match best {
                        None => true,
                        // Higher rank wins; ties go to the lowest slot id so
                        // cycles are deterministic.
                        Some((r, s)) => rank > r || (rank == r && slot < s),
                    };
                    if better {
                        best = Some((rank, slot));
                    }
                }
            }
            best.map(|(_, slot)| slot)
        })
    }
}

/// The shared per-job cycle loop of the full and naive paths: FIFO over
/// the pending list (built once, before any commit), delegating
/// *selection* to the path and certifying every job it leaves unmatched.
fn run_cycle(
    queue: &mut JobQueue,
    collector: &mut Collector,
    pending: &[JobId],
    mut select: impl FnMut(&QueuedJob, &Collector) -> Option<SlotId>,
) -> (Vec<Match>, CycleStats) {
    let mut matches = Vec::new();
    for &job_id in pending {
        let job = queue.get(job_id).expect("pending job exists");
        match select(job, collector) {
            Some(slot) => matches.push(commit(queue, collector, job_id, slot)),
            // The path just established that no slot in the current pool
            // admits this job — a whole-pool certificate the next delta
            // cycle builds on.
            None => queue.note_unmatched(job_id, collector.seq()),
        }
    }
    let stats = CycleStats {
        considered: pending.len(),
        matched: matches.len(),
        unmatched: pending.len() - matches.len(),
    };
    (matches, stats)
}

/// Commit one match — claim, state transition, same-cycle resource
/// decrement. Every path funnels through here, so commit semantics cannot
/// drift.
fn commit(queue: &mut JobQueue, collector: &mut Collector, job_id: JobId, slot: SlotId) -> Match {
    let job = queue.get(job_id).expect("matched job exists");
    let mem = int_attr(&job.ad, attrs::lc::REQUEST_PHI_MEMORY).unwrap_or(0);
    let exclusive = matches!(
        job.ad.get(attrs::lc::REQUEST_EXCLUSIVE_PHI),
        Some(Value::Bool(true))
    );
    let claimed = collector.claim(slot);
    debug_assert!(claimed, "selected slot failed to claim");
    queue
        .set_matched(job_id, slot)
        .expect("pending job transitions to matched");
    commit_phi_resources(collector, slot.node, mem, exclusive);
    Match { job: job_id, slot }
}

/// What a delta cycle knows about one cohort's admitters.
#[derive(Clone, Copy)]
enum Standing {
    /// Not rejected this cycle; the phase-2 screen against the snapshot.
    Screened(Screen),
    /// Rejected at this sequence: only slots dirtied since can admit.
    Rejected(u64),
}

/// One cohort of a delta cycle: a class, or one member of it when the
/// cycle must work per job (module docs, "Autoclusters").
struct Cohort {
    class: ClassId,
    /// Whether the cohort is the whole class rather than a single member.
    shared: bool,
    /// The cohort's first member `(position, id)`.
    head: (usize, JobId),
    /// The certificate the cohort is screened with.
    cert: Option<u64>,
}

#[cfg(test)]
thread_local! {
    /// Counts the delta cycle's member visits and class re-ranks.
    static VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn visit() {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + 1));
}

/// The executed delta cycle: phases 1–3 over the queue's cohorts (module
/// docs). Returns the matches in commit order.
fn negotiate_cohorts(queue: &mut JobQueue, collector: &mut Collector) -> Vec<Match> {
    let cohorts = cycle_cohorts(queue, collector);
    let reps: Vec<JobId> = cohorts.iter().map(|c| c.head.1).collect();
    // Phase 1: register guard indexes while we still hold `&mut`. Cohorts
    // come in order of their first member, so the capped registry sees
    // attributes in first-come FIFO order.
    register_guard_indexes(queue, &reps, collector);
    let s0 = collector.seq();
    // Phase 2: read-only screen against the pre-cycle snapshot.
    let screened: Vec<(JobId, Option<u64>)> = cohorts.iter().map(|c| (c.head.1, c.cert)).collect();
    let mut standing: Vec<Standing> = screen_pending(queue, &screened, collector)
        .into_iter()
        .map(Standing::Screened)
        .collect();
    // Phase 3: serial commit. `cursors` holds each awake cohort's next
    // member by queue position, so members are visited in FIFO order;
    // `sleeping` holds classes rejected at a sequence.
    let mut cursors: BTreeMap<usize, (usize, JobId)> = cohorts
        .iter()
        .enumerate()
        .map(|(c, cohort)| (cohort.head.0, (c, cohort.head.1)))
        .collect();
    let mut sleeping: Vec<(usize, u64)> = Vec::new();
    let mut matches = Vec::new();
    let in_cycle_dirt = ScreenPlan::Dirty(s0);
    while let Some((pos, (c, id))) = cursors.pop_first() {
        visit();
        let job = queue.get(id).expect("idle member exists");
        let choice = match standing[c] {
            // Rejected at `s`: by the certificate argument only slots
            // dirtied since can admit this member.
            Standing::Rejected(s) => execute(&ScreenPlan::Dirty(s), job, collector, Scope::Global),
            // Screened unmatched against the snapshot: only slots dirtied
            // by this cycle's earlier commits can admit.
            Standing::Screened(None) => execute(&in_cycle_dirt, job, collector, Scope::Global),
            Standing::Screened(Some(winner)) => {
                let valid = collector.get(winner.1).is_some_and(|s| !s.claimed)
                    && !collector.dirtied_after(winner.1, s0);
                if valid {
                    // The snapshot winner still stands; only in-cycle
                    // dirty slots could beat it.
                    merge(
                        Some(winner),
                        execute(&in_cycle_dirt, job, collector, Scope::Global),
                    )
                } else {
                    // Winner claimed or re-advertised mid-cycle; the
                    // snapshot's runner-up is unknown, so rescan.
                    best_slot(job, collector)
                }
            }
        };
        let cohort = &cohorts[c];
        let Some((_, slot)) = choice else {
            // No slot admits the cohort at `seq`: certify the member — and,
            // for a class, every later member in one run — and sleep.
            let seq = collector.seq();
            if cohort.shared {
                queue.certify_from(cohort.class, pos, seq);
                standing[c] = Standing::Rejected(seq);
                sleeping.push((c, seq));
            } else {
                queue.note_unmatched(id, seq);
            }
            continue;
        };
        matches.push(commit(queue, collector, id, slot));
        if cohort.shared {
            if let Some(next) = queue.classes().next_member(cohort.class, pos) {
                cursors.insert(next.0, (c, next.1));
            }
        }
        // The commit dirtied slots: each sleeping class re-ranks them once
        // for its next member. An admitter wakes the class there; else the
        // members from there on are certified at the new sequence.
        sleeping.retain_mut(|(v, s)| {
            let class = cohorts[*v].class;
            let Some((next, next_id)) = queue.classes().next_member(class, pos) else {
                return false;
            };
            visit();
            let rep = queue.get(next_id).expect("idle member exists");
            if execute(&ScreenPlan::Dirty(*s), rep, collector, Scope::Global).is_some() {
                standing[*v] = Standing::Rejected(*s);
                cursors.insert(next, (*v, next_id));
                return false;
            }
            let seq = collector.seq();
            if seq != *s {
                queue.certify_from(class, next, seq);
                *s = seq;
            }
            true
        });
    }
    matches
}

/// The cycle's cohorts in order of their first member. Each class is one
/// cohort screened with its newest certificate, unless a slot carries a
/// machine-side `Requirements`: then every member is a cohort of its own
/// with its own certificate (module docs, "Autoclusters").
fn cycle_cohorts(queue: &JobQueue, collector: &Collector) -> Vec<Cohort> {
    let table = queue.classes();
    let mut cohorts: Vec<Cohort> = if collector.slots_with_requirements() == 0 {
        table
            .heads()
            .map(|(class, pos, id)| Cohort {
                class,
                shared: true,
                head: (pos, id),
                cert: table.newest_cert(class),
            })
            .collect()
    } else {
        table
            .heads()
            .flat_map(|(class, _, _)| table.members(class).map(move |head| (class, head)))
            .map(|(class, head)| Cohort {
                class,
                shared: false,
                head,
                cert: table.cert(class, head.0),
            })
            .collect()
    };
    cohorts.sort_unstable_by_key(|c| c.head.0);
    cohorts
}

/// Ensure a guard index exists for every `>=`/`>`-shaped guard attribute of
/// the given jobs. Idempotent and capped (the collector refuses past
/// [`crate::collector::MAX_ATTR_INDEXES`]; those guards fall back to the
/// unclaimed scan); steady state is a handful of string compares per job.
fn register_guard_indexes(queue: &JobQueue, pending: &[JobId], collector: &mut Collector) {
    for &id in pending {
        let req = queue.get(id).expect("pending job exists").compiled();
        for g in req.guards() {
            if matches!(g.op, GuardOp::Ge | GuardOp::Gt) {
                collector.ensure_attr_index(&g.attr);
            }
        }
    }
}

/// One job's screen result: the best admitting slot and its rank.
type Screen = Option<(f64, SlotId)>;

/// One job's per-cycle screening recipe: the pre-screen narrowing (pin
/// resolution, guard-index selection and its selectivity probe) is
/// compiled once by [`plan_job`] and then executed by [`execute`] against
/// the whole pool or against each partition.
#[derive(Debug)]
enum ScreenPlan<'c> {
    /// Certificate holder: re-rank only slots dirtied after this sequence.
    Dirty(u64),
    /// No candidates anywhere: an impossible requirement, or a certificate
    /// no dirtying mutation has outrun.
    Never,
    /// Pinned to a slot name (resolved once; `None` = no such slot).
    Name(Option<SlotId>),
    /// Pinned to a machine; its slots, resolved once.
    Machine(&'c [SlotId]),
    /// Narrowest admitting guard index and bound, probed once; `narrow`
    /// when the probe proved the range holds fewer than
    /// [`SELECTIVITY_PROBE`] slots.
    Guard {
        idx: usize,
        bound: f64,
        narrow: bool,
    },
    /// No narrowing applies: unclaimed scan.
    Scan,
}

/// Compile a requirement's pre-screen — the one place its order is
/// written: never → `Name` pin → `Machine` pin → narrowest guard index →
/// unclaimed scan. Each source yields a superset of the job's true
/// matches among unclaimed slots (claimed slots are filtered in
/// [`best_among`]), so the full re-check keeps the result exact.
fn plan_job<'c>(req: &CompiledReq, collector: &'c Collector) -> ScreenPlan<'c> {
    if req.is_never() {
        ScreenPlan::Never
    } else if let Some(name) = req.pin(attrs::lc::NAME) {
        ScreenPlan::Name(collector.slot_by_name(name))
    } else if let Some(machine) = req.pin(attrs::lc::MACHINE) {
        ScreenPlan::Machine(collector.slots_on_machine(machine))
    } else if let Some((idx, bound, probe)) = pick_guard_index(req, collector) {
        ScreenPlan::Guard {
            idx,
            bound,
            narrow: probe < SELECTIVITY_PROBE,
        }
    } else {
        ScreenPlan::Scan
    }
}

/// Where [`execute`] draws a plan's candidates from.
#[derive(Clone, Copy)]
enum Scope<'d> {
    /// The whole pool, through the collector's merged indexes.
    Global,
    /// One partition's slots; certificate dirt comes from that partition's
    /// per-cycle cache (stamp-sorted, sliced per job by binary search).
    Partition(usize, &'d [(u64, SlotId)]),
}

/// Run one plan for `job` within `scope` and return the winner.
fn execute(plan: &ScreenPlan, job: &QueuedJob, collector: &Collector, scope: Scope) -> Screen {
    let (ad, req) = (&job.ad, job.compiled());
    let in_scope = |slot: &SlotId| match scope {
        Scope::Global => true,
        Scope::Partition(pi, _) => collector.part_of(slot.node) == pi,
    };
    match (plan, scope) {
        (ScreenPlan::Never, _) => None,
        (ScreenPlan::Name(slot), _) => best_among(ad, req, collector, slot.filter(in_scope)),
        (ScreenPlan::Machine(slots), _) => {
            best_among(ad, req, collector, slots.iter().copied().filter(in_scope))
        }
        // Nothing is stamped after the current sequence: O(1).
        (ScreenPlan::Dirty(seq), Scope::Global) if *seq >= collector.seq() => None,
        (ScreenPlan::Dirty(seq), Scope::Global) => {
            best_among(ad, req, collector, collector.dirty_since(*seq))
        }
        (ScreenPlan::Dirty(seq), Scope::Partition(_, dirt)) => {
            let start = dirt.partition_point(|&(stamp, _)| stamp <= *seq);
            best_among(ad, req, collector, dirt[start..].iter().map(|&(_, s)| s))
        }
        (ScreenPlan::Guard { idx, bound, .. }, Scope::Global) => best_among(
            ad,
            req,
            collector,
            collector.indexed_range_at_least(*idx, *bound),
        ),
        (ScreenPlan::Guard { idx, bound, .. }, Scope::Partition(pi, _)) => best_among(
            ad,
            req,
            collector,
            collector.partition_indexed_range_at_least(pi, *idx, *bound),
        ),
        (ScreenPlan::Scan, Scope::Global) => {
            best_among(ad, req, collector, collector.unclaimed_iter())
        }
        (ScreenPlan::Scan, Scope::Partition(pi, _)) => {
            best_among(ad, req, collector, collector.partition_unclaimed_iter(pi))
        }
    }
}

/// Find the best slot for one job over the whole pool.
fn best_slot(job: &QueuedJob, collector: &Collector) -> Screen {
    execute(
        &plan_job(job.compiled(), collector),
        job,
        collector,
        Scope::Global,
    )
}

/// Phase-2 screen of the given `(job, certificate)` pairs — one per
/// cohort — against the current (frozen) collector snapshot, one entry per
/// pair (module docs).
///
/// Each job's plan is compiled once. A certificate holder re-ranks only
/// the dirt since its certificate — unless its own prefilter is provably
/// narrow, in which case that plan runs here, once, against the global
/// indexes (the dirt and the prefilter both contain every admitter, and
/// [`best_among`] is enumeration-independent over supersets). The other
/// plans fan out over (partition × job-chunk) units; the per-unit winners
/// merge serially, in partition order, by the winner rule.
fn screen_pending(
    queue: &JobQueue,
    pending: &[(JobId, Option<u64>)],
    collector: &Collector,
) -> Vec<Screen> {
    let job = |id: JobId| queue.get(id).expect("pending job exists");
    let mut screens: Vec<Screen> = Vec::with_capacity(pending.len());
    let plans: Vec<ScreenPlan> = pending
        .iter()
        .map(|&(id, cert)| {
            let job = job(id);
            let (plan, seed) = match cert {
                // A certificate no dirt has outrun still covers the pool.
                Some(seq) if collector.max_watermark() <= seq => (ScreenPlan::Never, None),
                Some(seq) => match plan_job(job.compiled(), collector) {
                    ScreenPlan::Scan | ScreenPlan::Guard { narrow: false, .. } => {
                        (ScreenPlan::Dirty(seq), None)
                    }
                    narrow => (
                        ScreenPlan::Never,
                        execute(&narrow, job, collector, Scope::Global),
                    ),
                },
                None => (plan_job(job.compiled(), collector), None),
            };
            screens.push(seed);
            plan
        })
        .collect();

    // One partition splits a long queue into job chunks; several
    // partitions fan out one unit per partition. Both read one uncapped
    // thread budget.
    let parts = collector.partitions();
    let threads = crate::collector::partition_threads(usize::MAX);
    let chunks = if parts == 1 && pending.len() >= PAR_SCREEN_MIN {
        threads.min(MAX_SCREEN_CHUNKS)
    } else {
        1
    };
    let chunk_len = pending.len().div_ceil(chunks).max(1);
    // Rounding can leave fewer, fuller chunks than asked for.
    let chunks = pending.len().div_ceil(chunk_len);
    let screen_unit = |unit: usize| -> Vec<Screen> {
        let (pi, ci) = (unit / chunks, unit % chunks);
        let range = ci * chunk_len..pending.len().min((ci + 1) * chunk_len);
        let (ids, plans) = (&pending[range.clone()], &plans[range]);
        // Per-unit dirt cache: this partition's dirt since the chunk's
        // oldest certificate.
        let oldest_cert = plans
            .iter()
            .filter_map(|p| match p {
                ScreenPlan::Dirty(seq) => Some(*seq),
                _ => None,
            })
            .min();
        let dirt: Vec<(u64, SlotId)> = match oldest_cert {
            Some(seq) => collector.partition_dirty_entries_since(pi, seq).collect(),
            None => Vec::new(),
        };
        ids.iter()
            .zip(plans)
            .map(|(&(id, _), plan)| execute(plan, job(id), collector, Scope::Partition(pi, &dirt)))
            .collect()
    };
    let units = parts * chunks;
    let per_unit: Vec<Vec<Screen>> = if threads > 1 && units > 1 {
        let screen_unit = &screen_unit;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..units)
                .map(|unit| scope.spawn(move || screen_unit(unit)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("screen unit panicked"))
                .collect()
        })
    } else {
        (0..units).map(screen_unit).collect()
    };

    // Serial pre-commit merge, in partition order.
    for (unit, part) in per_unit.into_iter().enumerate() {
        let offset = (unit % chunks) * chunk_len;
        for (best, merged) in part.into_iter().zip(&mut screens[offset..]) {
            *merged = merge(*merged, best);
        }
    }
    screens
}

/// The winner rule over two screens: higher rank, ties to the lowest slot
/// id; `b` replaces `a` only when it is strictly better.
fn merge(a: Screen, b: Screen) -> Screen {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some((ra, sa)), Some((rb, sb))) => {
            if rb > ra || (rb == ra && sb < sa) {
                b
            } else {
                a
            }
        }
    }
}

/// The narrowest registered guard index covering one of the requirement's
/// `>=`/`>` guards, with its bound and probe count, or `None` when no
/// guard has an index.
///
/// Selectivity is estimated by walking at most [`SELECTIVITY_PROBE`]
/// candidates of each index's range — enough to tell "a handful" from
/// "basically everything" without paying O(pool) per job. Ties keep the
/// first guard in requirement order; an empty range short-circuits (the
/// guard alone proves no slot matches). Deterministic: depends only on
/// the requirement and the snapshot.
fn pick_guard_index(req: &CompiledReq, collector: &Collector) -> Option<(usize, f64, usize)> {
    let mut best: Option<(usize, f64, usize)> = None;
    let mut seen: Vec<&str> = Vec::new();
    for g in req.guards() {
        if !matches!(g.op, GuardOp::Ge | GuardOp::Gt) || seen.contains(&g.attr.as_str()) {
            continue;
        }
        seen.push(&g.attr);
        let Some(idx) = collector.attr_index(&g.attr) else {
            continue;
        };
        // The strongest bound over all of this attribute's guards.
        let bound = req.lower_bound(&g.attr).unwrap_or(g.bound);
        let probe = collector
            .indexed_range_at_least(idx, bound)
            .take(SELECTIVITY_PROBE)
            .count();
        if probe == 0 {
            return Some((idx, bound, 0));
        }
        if best.is_none_or(|(_, _, count)| probe < count) {
            best = Some((idx, bound, probe));
        }
    }
    best
}

/// Rank `candidates` against the full two-sided match predicate and return
/// the winner by [`merge`]'s rule: highest rank, ties to the lowest slot
/// id. The rule is a total order over admitted slots, so the result is
/// independent of the candidate enumeration order — any superset of the
/// true admitters yields the same winner.
fn best_among(
    job_ad: &ClassAd,
    req: &CompiledReq,
    collector: &Collector,
    candidates: impl IntoIterator<Item = SlotId>,
) -> Screen {
    if req.is_never() {
        return None;
    }
    let rank_expr = job_ad.parsed_expr(attrs::lc::RANK);
    let mut best: Screen = None;
    for slot in candidates {
        let status = collector.get(slot).expect("candidate slot exists");
        if status.claimed || !req.matches_target(job_ad, &status.ad) {
            continue;
        }
        // Machine-side half of the two-sided match. Most slot ads carry no
        // Requirements (the meta flag is precomputed), so this usually
        // costs nothing.
        if status.meta().has_requirements() && !status.ad.requirements_satisfied(job_ad) {
            continue;
        }
        let rank = match rank_expr {
            None => 0.0,
            Some(e) => eval(e, job_ad, Some(&status.ad)).as_f64().unwrap_or(0.0),
        };
        best = merge(best, Some((rank, slot)));
    }
    best
}

/// Decrement the node-level Phi attributes on every slot ad of `node` to
/// reflect a new placement for the remainder of this cycle. One node write
/// ([`Collector::update_node_phi`]) keeps the guard indexes coherent — a
/// later job in the *same cycle* sees the reduced capacity in its range
/// query — and stamps the changed slots dirty for the delta path. Each
/// slot is decremented from its own current value: nodes need not be
/// uniform (a slot refreshed on its own may differ from its siblings).
fn commit_phi_resources(collector: &mut Collector, node: u32, mem: i64, exclusive: bool) {
    collector.update_node_phi(node, |[free, devs]| {
        [
            free.map(|free| (free - mem).max(0)),
            devs.filter(|_| exclusive).map(|devs| (devs - 1).max(0)),
        ]
    });
}

fn int_attr(ad: &ClassAd, name: &str) -> Option<i64> {
    match ad.get(name) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

// --- Naive evaluation helpers -----------------------------------------
//
// These deliberately re-parse the stored expression source on every call,
// reproducing the pre-optimization cost model (the ClassAd layer itself now
// caches parsed ASTs, which would otherwise quietly speed up the baseline).

fn naive_requirements_satisfied(my: &ClassAd, target: &ClassAd) -> bool {
    match my.get_expr(REQUIREMENTS) {
        None => true,
        Some(src) => {
            let expr = parse(src).expect("stored expression parses");
            eval(&expr, my, Some(target)).is_true()
        }
    }
}

fn naive_matches(job: &ClassAd, machine: &ClassAd) -> bool {
    naive_requirements_satisfied(job, machine) && naive_requirements_satisfied(machine, job)
}

fn naive_rank(job: &ClassAd, machine: &ClassAd) -> f64 {
    match job.get_expr(attrs::lc::RANK) {
        None => 0.0,
        Some(src) => {
            let expr = parse(src).expect("stored expression parses");
            eval(&expr, job, Some(machine)).as_f64().unwrap_or(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{exclusive_job_ad, sharing_job_ad};
    use crate::startd::Startd;
    use phishare_sim::{SimDuration, SimTime};
    use phishare_workload::table1::AppKind;
    use phishare_workload::{JobProfile, JobSpec, Segment};

    fn spec(id: u64, mem: u64, threads: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("J{id}"),
            app: AppKind::KM,
            mem_req_mb: mem,
            thread_req: threads,
            actual_peak_mem_mb: mem,
            profile: JobProfile::new(vec![Segment::offload(threads, SimDuration::from_secs(1))]),
        }
    }

    fn cluster(nodes: u32, slots: u32) -> Collector {
        cluster_partitioned(nodes, slots, 1)
    }

    fn cluster_partitioned(nodes: u32, slots: u32, parts: usize) -> Collector {
        let mut c = Collector::with_partitions(parts);
        for n in 1..=nodes {
            Startd::new(n, slots, 1, 8192).advertise(&mut c, 7680, 1);
        }
        c
    }

    #[test]
    fn fifo_matching_fills_slots() {
        let mut q = JobQueue::new();
        for i in 0..3 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 1000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 2);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        // Two slots → two matches; job 2 stays pending.
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].job, JobId(0));
        assert_eq!(matches[1].job, JobId(1));
        assert_eq!(q.pending(), vec![JobId(2)]);
    }

    #[test]
    fn cycle_decrements_node_phi_memory() {
        let mut q = JobQueue::new();
        // Three 3000 MB jobs against one node with 7680 MB: only two fit in
        // one cycle even though the node has plenty of host slots.
        for i in 0..3 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 16);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 2);
        let remaining = c
            .get(SlotId { node: 1, slot: 3 })
            .unwrap()
            .ad
            .get(attrs::PHI_FREE_MEMORY)
            .cloned();
        assert_eq!(remaining, Some(Value::Int(7680 - 6000)));
    }

    #[test]
    fn exclusive_jobs_claim_whole_cards() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(
                JobId(i),
                exclusive_job_ad(&spec(i, 1000, 240)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let mut c = cluster(1, 16); // one node, one Phi card
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        // One card → one exclusive job per cycle, regardless of host slots.
        assert_eq!(matches.len(), 1);
        assert_eq!(q.pending(), vec![JobId(1)]);
    }

    #[test]
    fn matches_spread_across_nodes() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(
                JobId(i),
                exclusive_job_ad(&spec(i, 1000, 240)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let mut c = cluster(2, 1);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 2);
        assert_ne!(matches[0].slot.node, matches[1].slot.node);
    }

    #[test]
    fn pinned_job_goes_to_its_slot_only() {
        let mut q = JobQueue::new();
        q.submit(JobId(0), sharing_job_ad(&spec(0, 1000, 60)), SimTime::ZERO)
            .unwrap();
        q.qedit_expr(
            JobId(0),
            "Requirements",
            &attrs::pin_requirements("slot2@node3"),
        )
        .unwrap();
        let mut c = cluster(4, 4);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].slot, SlotId { node: 3, slot: 2 });
    }

    #[test]
    fn node_pinned_job_stays_on_its_node() {
        let mut q = JobQueue::new();
        q.submit(JobId(0), sharing_job_ad(&spec(0, 1000, 60)), SimTime::ZERO)
            .unwrap();
        q.qedit_expr(JobId(0), "Requirements", &attrs::pin_to_node("node2"))
            .unwrap();
        let mut c = cluster(4, 4);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].slot.node, 2);
    }

    #[test]
    fn no_candidates_leaves_job_pending() {
        let mut q = JobQueue::new();
        q.submit(JobId(0), sharing_job_ad(&spec(0, 9000, 60)), SimTime::ZERO)
            .unwrap(); // bigger than any card
        let mut c = cluster(2, 2);
        assert!(Negotiator::default().negotiate(&mut q, &mut c).is_empty());
        assert_eq!(q.pending(), vec![JobId(0)]);
    }

    #[test]
    fn cycle_stats_account_for_every_pending_job() {
        let mut q = JobQueue::new();
        for i in 0..5 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 1000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 3);
        let (matches, stats) = Negotiator::default().negotiate_with_stats(&mut q, &mut c);
        assert_eq!(stats.considered, 5);
        assert_eq!(stats.matched, matches.len());
        assert_eq!(stats.matched, 3); // three slots
        assert_eq!(stats.unmatched, 2);
        assert_eq!(stats.considered, stats.matched + stats.unmatched);
    }

    #[test]
    fn claimed_slots_are_skipped() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 100, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 1);
        let first = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(first.len(), 1);
        // Slot still claimed: second cycle matches nothing.
        let second = Negotiator::default().negotiate(&mut q, &mut c);
        assert!(second.is_empty());
        // Release → job 1 matches.
        c.release(first[0].slot);
        let third = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].job, JobId(1));
    }

    #[test]
    fn unmatched_jobs_gain_certificates_the_next_cycle_honors() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 1);
        let n = Negotiator::default();
        assert_eq!(n.negotiate(&mut q, &mut c).len(), 1);
        // Job 1 is certified unmatched at the post-cycle sequence.
        let seq = q.eval_seq(JobId(1)).unwrap();
        assert_eq!(seq, c.seq());
        // A no-churn cycle re-screens only the (empty) dirty set and keeps
        // the certificate standing.
        assert!(n.negotiate(&mut q, &mut c).is_empty());
        assert_eq!(q.eval_seq(JobId(1)), Some(seq));
        // A release dirties the slot; the next delta cycle sees it.
        c.release(SlotId { node: 1, slot: 1 });
        c.refresh_phi_availability(SlotId { node: 1, slot: 1 }, 7680, 1);
        let third = n.negotiate(&mut q, &mut c);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].job, JobId(1));
    }

    #[test]
    fn all_paths_agree_on_a_mixed_cycle() {
        let build = || {
            let mut q = JobQueue::new();
            q.submit(JobId(0), sharing_job_ad(&spec(0, 3000, 60)), SimTime::ZERO)
                .unwrap();
            q.submit(
                JobId(1),
                exclusive_job_ad(&spec(1, 1000, 240)),
                SimTime::ZERO,
            )
            .unwrap();
            q.submit(JobId(2), sharing_job_ad(&spec(2, 9000, 60)), SimTime::ZERO)
                .unwrap();
            q.submit(JobId(3), sharing_job_ad(&spec(3, 500, 60)), SimTime::ZERO)
                .unwrap();
            q.qedit_expr(
                JobId(3),
                "Requirements",
                &attrs::pin_requirements("slot1@node2"),
            )
            .unwrap();
            (q, cluster(3, 2))
        };
        let (mut q_delta, mut c_delta) = build();
        let (mut q_full, mut c_full) = build();
        let (mut q_naive, mut c_naive) = build();
        let n = Negotiator::default();
        let delta = n.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let full = n.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let naive = n.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        assert_eq!(delta, full);
        assert_eq!(full, naive);
        assert_eq!(c_delta, c_full);
        assert_eq!(c_full, c_naive);
        assert_eq!(q_delta.pending(), q_naive.pending());
    }

    #[test]
    fn delta_tracks_full_across_churny_cycles() {
        let n = Negotiator::default();
        let mut q_delta = JobQueue::new();
        let mut q_full = JobQueue::new();
        for (i, mem) in [(0u64, 3000u64), (1, 3000), (2, 3000), (3, 9000)] {
            q_delta
                .submit(JobId(i), sharing_job_ad(&spec(i, mem, 60)), SimTime::ZERO)
                .unwrap();
            q_full
                .submit(JobId(i), sharing_job_ad(&spec(i, mem, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c_delta = cluster(2, 2);
        let mut c_full = cluster(2, 2);
        for round in 0..6 {
            // Churn between cycles, applied identically to both twins:
            // releases, refreshes, node loss and rejoin.
            for c in [&mut c_delta, &mut c_full] {
                match round {
                    1 => {
                        for slot in c.node_slots(1) {
                            c.release(slot);
                            c.refresh_phi_availability(slot, 7680, 1);
                        }
                    }
                    2 => {
                        c.invalidate_node(2);
                    }
                    3 => {
                        Startd::new(2, 2, 1, 8192).advertise(c, 7680, 1);
                    }
                    4 => {
                        for slot in c.node_slots(2) {
                            c.refresh_phi_availability(slot, 9001, 1);
                        }
                    }
                    _ => {}
                }
            }
            if round == 4 {
                // A qedit drops the certificate on both sides.
                for q in [&mut q_delta, &mut q_full] {
                    q.qedit_value(JobId(3), attrs::REQUEST_PHI_MEMORY, 8500u64)
                        .unwrap();
                }
            }
            let delta = n.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
            let full = n.negotiate_full_with_stats(&mut q_full, &mut c_full);
            assert_eq!(delta, full, "round {round}");
            assert_eq!(c_delta, c_full, "round {round}");
            assert_eq!(q_delta.pending(), q_full.pending(), "round {round}");
        }
        // The churn actually exercised the interesting rounds: the widened
        // node-2 capacity admitted the qedited big job.
        assert!(q_delta.pending().is_empty());
    }

    /// Everything observable from a churny run: per-cycle (matches,
    /// stats), the final collector, and the final pending set.
    type ChurnyRun = (Vec<(Vec<Match>, CycleStats)>, Collector, Vec<JobId>);

    /// Build the same mixed workload (pins, exclusives, never-matchers,
    /// certificate holders) against a `parts`-partitioned pool and run it
    /// through several churny cycles, returning everything observable.
    fn churny_run(parts: usize) -> ChurnyRun {
        let mut q = JobQueue::new();
        for i in 0..12 {
            let ad = match i % 4 {
                0 => exclusive_job_ad(&spec(i, 1000, 240)),
                1 => sharing_job_ad(&spec(i, 9000, 60)), // never fits
                _ => sharing_job_ad(&spec(i, 2000 + (i % 3) * 1500, 60)),
            };
            q.submit(JobId(i), ad, SimTime::ZERO).unwrap();
        }
        q.qedit_expr(JobId(6), "Requirements", &attrs::pin_to_node("node3"))
            .unwrap();
        q.qedit_expr(
            JobId(10),
            "Requirements",
            &attrs::pin_requirements("slot1@node5"),
        )
        .unwrap();
        let mut c = cluster_partitioned(6, 2, parts);
        let n = Negotiator::default();
        let mut cycles = Vec::new();
        for round in 0..5 {
            match round {
                1 => {
                    for slot in c.node_slots(2) {
                        c.release(slot);
                        c.refresh_phi_availability(slot, 7680, 1);
                    }
                }
                2 => {
                    c.invalidate_node(4);
                }
                3 => {
                    Startd::new(4, 2, 1, 8192).advertise(&mut c, 7680, 1);
                    q.qedit_value(JobId(1), attrs::REQUEST_PHI_MEMORY, 500u64)
                        .unwrap();
                }
                _ => {}
            }
            cycles.push(n.negotiate_delta_with_stats(&mut q, &mut c));
        }
        (cycles, c, q.pending())
    }

    #[test]
    fn partition_count_cannot_change_results() {
        let baseline = churny_run(1);
        for parts in [2, 3, 8] {
            let run = churny_run(parts);
            assert_eq!(run.0, baseline.0, "partitions={parts}");
            assert_eq!(run.1, baseline.1, "partitions={parts}");
            assert_eq!(run.2, baseline.2, "partitions={parts}");
        }
    }

    /// One delta cycle over 64 mixed jobs — long enough that a single
    /// partition splits the queue into job chunks.
    fn wide_cycle(parts: usize) -> ChurnyRun {
        let mut q = JobQueue::new();
        for i in 0..64 {
            let ad = if i % 3 == 0 {
                exclusive_job_ad(&spec(i, 1000, 240))
            } else {
                sharing_job_ad(&spec(i, 500 + (i % 7) * 900, 60))
            };
            q.submit(JobId(i), ad, SimTime::ZERO).unwrap();
        }
        let mut c = cluster_partitioned(6, 3, parts);
        let cycle = Negotiator::default().negotiate_delta_with_stats(&mut q, &mut c);
        (vec![cycle], c, q.pending())
    }

    #[test]
    fn partitioned_screen_on_forced_threads_matches_serial() {
        // Force the threaded fan-out (job chunks at P = 1, partitions at
        // P = 4) even on a single-core machine. This is the only writer of
        // PHISHARE_PARTITION_THREADS in this test process; the screen's
        // results do not depend on the thread count other tests read.
        let runs = |threads: &str| {
            std::env::set_var("PHISHARE_PARTITION_THREADS", threads);
            [1, 4].map(|parts| [churny_run(parts), wide_cycle(parts)])
        };
        let threaded = runs("4");
        let serial = runs("1");
        std::env::remove_var("PHISHARE_PARTITION_THREADS");
        for (threaded, serial) in threaded.iter().flatten().zip(serial.iter().flatten()) {
            assert_eq!(threaded.0, serial.0);
            assert_eq!(threaded.1, serial.1);
            assert_eq!(threaded.2, serial.2);
        }
    }

    #[test]
    fn quiescent_cycles_short_circuit_to_identical_results() {
        let build = || {
            let mut q = JobQueue::new();
            for i in 0..4 {
                q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                    .unwrap();
            }
            (q, cluster(1, 2))
        };
        let (mut q_fast, mut c_fast) = build();
        let (mut q_slow, mut c_slow) = build();
        let fast = Negotiator::default(); // quiescence on by default
        let slow = Negotiator::default().with_quiescence(false);

        // Cycle 1 matches two jobs and certifies the rest — not quiescent.
        assert!(!Negotiator::cycle_is_quiescent(&q_fast, &c_fast));
        let first_fast = fast.negotiate_delta_with_stats(&mut q_fast, &mut c_fast);
        let first_slow = slow.negotiate_delta_with_stats(&mut q_slow, &mut c_slow);
        assert_eq!(first_fast, first_slow);
        assert_eq!(first_fast.0.len(), 2);

        // No churn since: provably quiescent, and the skipped cycle is
        // bit-identical to the executed one — stats, certificates, pool.
        assert!(Negotiator::cycle_is_quiescent(&q_fast, &c_fast));
        let second_fast = fast.negotiate_delta_with_stats(&mut q_fast, &mut c_fast);
        let second_slow = slow.negotiate_delta_with_stats(&mut q_slow, &mut c_slow);
        assert_eq!(second_fast, second_slow);
        assert_eq!(second_fast.1.considered, 2);
        assert_eq!(second_fast.1.unmatched, 2);
        assert_eq!(c_fast, c_slow);
        for i in [2u64, 3] {
            assert_eq!(q_fast.eval_seq(JobId(i)), q_slow.eval_seq(JobId(i)));
        }

        // A release dirties the pool: no longer quiescent, and both twins
        // pick up the freed slot in lockstep.
        for (q, c) in [(&mut q_fast, &mut c_fast), (&mut q_slow, &mut c_slow)] {
            let slot = first_fast.0[0].slot;
            c.release(slot);
            c.refresh_phi_availability(slot, 7680, 1);
            assert!(!Negotiator::cycle_is_quiescent(q, c));
        }
        let third_fast = fast.negotiate_delta_with_stats(&mut q_fast, &mut c_fast);
        let third_slow = slow.negotiate_delta_with_stats(&mut q_slow, &mut c_slow);
        assert_eq!(third_fast, third_slow);
        assert_eq!(third_fast.0.len(), 1);
        assert_eq!(c_fast, c_slow);
    }

    #[test]
    fn fresh_arrivals_defeat_quiescence() {
        let mut q = JobQueue::new();
        let mut c = cluster(1, 1);
        // Empty idle queue is trivially quiescent.
        assert!(Negotiator::cycle_is_quiescent(&q, &c));
        q.submit(JobId(0), sharing_job_ad(&spec(0, 9000, 60)), SimTime::ZERO)
            .unwrap();
        // An uncertified arrival must force an executed cycle.
        assert!(!Negotiator::cycle_is_quiescent(&q, &c));
        let n = Negotiator::default();
        let (matches, stats) = n.negotiate_delta_with_stats(&mut q, &mut c);
        assert!(matches.is_empty());
        assert_eq!(stats.considered, 1);
        // Now certified against a still pool: quiescent until churn.
        assert!(Negotiator::cycle_is_quiescent(&q, &c));
        // A qedit drops the certificate and defeats quiescence again.
        q.qedit_value(JobId(0), attrs::REQUEST_PHI_MEMORY, 100u64)
            .unwrap();
        assert!(!Negotiator::cycle_is_quiescent(&q, &c));
    }

    /// A sharing job whose `Requirements` is replaced by `req`.
    fn job_with_req(q: &mut JobQueue, id: u64, mem: u64, req: &str) {
        q.submit(JobId(id), sharing_job_ad(&spec(id, mem, 60)), SimTime::ZERO)
            .unwrap();
        q.qedit_expr(JobId(id), "Requirements", req).unwrap();
    }

    #[test]
    fn classes_group_identical_requirements_only() {
        let mut q = JobQueue::new();
        let free = "TARGET.PhiDevicesFree >= 1";
        // 0, 1: one class although their memory requests differ.
        for (i, mem) in [(0, 1000), (1, 3000)] {
            q.submit(
                JobId(i),
                exclusive_job_ad(&spec(i, mem, 240)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        // 2: same requirements, but ranked. 3: a residual. 4: a bound
        // folded from its own ad. 5: a classmate of 0 again.
        job_with_req(&mut q, 2, 1000, free);
        q.qedit_expr(JobId(2), "Rank", "TARGET.PhiFreeMemory")
            .unwrap();
        job_with_req(&mut q, 3, 1000, "TARGET.PhiDevicesFree >= 1 || false");
        let folded = "TARGET.PhiFreeMemory >= MY.RequestPhiMemory";
        job_with_req(&mut q, 4, 1000, folded);
        job_with_req(&mut q, 5, 1000, free);
        let ids = |q: &JobQueue| -> Vec<Vec<u64>> {
            q.autoclusters()
                .into_iter()
                .map(|class| class.into_iter().map(|id| id.0).collect())
                .collect()
        };
        assert_eq!(ids(&q), [vec![0, 1, 5], vec![2], vec![3], vec![4]]);

        // Two qedits move job 1 into job 4's class at its old position;
        // a hold takes job 0 out.
        q.qedit_expr(JobId(1), "Requirements", folded).unwrap();
        assert_eq!(ids(&q), [vec![0, 5], vec![1], vec![2], vec![3], vec![4]]);
        q.qedit_value(JobId(1), attrs::REQUEST_PHI_MEMORY, 1000u64)
            .unwrap();
        assert_eq!(ids(&q), [vec![0, 5], vec![1, 4], vec![2], vec![3]]);
        q.hold(JobId(0)).unwrap();
        assert_eq!(ids(&q), [vec![1, 4], vec![2], vec![3], vec![5]]);
    }

    /// Both twins hold the same idle jobs with the same certificates.
    fn assert_same_certs(delta: &JobQueue, full: &JobQueue) {
        assert_eq!(delta.pending(), full.pending());
        assert_eq!(delta.idle_cert_floor(), full.idle_cert_floor());
        for id in delta.pending() {
            assert_eq!(delta.eval_seq(id), full.eval_seq(id), "{id}");
        }
    }

    /// Run one cycle on each twin: `MatchPath::Delta` on the first,
    /// `MatchPath::Full` on the second. Results, pools and certificates
    /// must agree.
    fn lockstep(
        delta: &mut (JobQueue, Collector),
        full: &mut (JobQueue, Collector),
    ) -> (Vec<Match>, CycleStats) {
        let n = Negotiator::default();
        let d = n.negotiate_delta_with_stats(&mut delta.0, &mut delta.1);
        let f = n.negotiate_full_with_stats(&mut full.0, &mut full.1);
        assert_eq!(d, f);
        assert_eq!(delta.1, full.1);
        assert_same_certs(&delta.0, &full.0);
        d
    }

    #[test]
    fn a_fresh_classmate_leaves_the_floor_uncertified() {
        let build = || {
            let mut q = JobQueue::new();
            for i in 0..3 {
                q.submit(
                    JobId(i),
                    exclusive_job_ad(&spec(i, 1000, 240)),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            (q, cluster(1, 1))
        };
        let (mut delta, mut full) = (build(), build());
        // One card: job 0 matches, jobs 1 and 2 share one certificate run.
        assert_eq!(lockstep(&mut delta, &mut full).0.len(), 1);
        let seq = delta.1.seq();
        assert_eq!(delta.0.idle_cert_floor(), Some(seq));
        for twin in [&mut delta, &mut full] {
            twin.0
                .submit(
                    JobId(3),
                    exclusive_job_ad(&spec(3, 1000, 240)),
                    SimTime::ZERO,
                )
                .unwrap();
        }
        // The arrival joins the certified class but not its certificate.
        assert_eq!(delta.0.autoclusters(), [[JobId(1), JobId(2), JobId(3)]]);
        assert_eq!(delta.0.eval_seq(JobId(3)), None);
        assert_eq!(delta.0.eval_seq(JobId(2)), Some(seq));
        assert_same_certs(&delta.0, &full.0);
        assert_eq!(delta.0.idle_cert_floor(), None);
        assert!(!Negotiator::cycle_is_quiescent(&delta.0, &delta.1));
        assert!(lockstep(&mut delta, &mut full).0.is_empty());
        assert_eq!(delta.0.idle_cert_floor(), Some(seq));
    }

    #[test]
    fn a_class_certified_in_two_runs_floors_at_the_survivor() {
        // Class A (`PhiFreeMemory <= 5000`) is rejected at `s` by the
        // node's 7680 MB. Job 2's commit brings the node under the cap,
        // which wakes A at job 3; job 3 takes the last slot and job 4 is
        // rejected at `s'`.
        let build = || {
            let mut q = JobQueue::new();
            let capped = "TARGET.PhiFreeMemory <= 5000";
            job_with_req(&mut q, 0, 100, capped);
            job_with_req(&mut q, 1, 100, capped);
            q.submit(JobId(2), sharing_job_ad(&spec(2, 3000, 60)), SimTime::ZERO)
                .unwrap();
            job_with_req(&mut q, 3, 100, capped);
            job_with_req(&mut q, 4, 100, capped);
            (q, cluster(1, 2))
        };
        let (mut delta, mut full) = (build(), build());
        let s = delta.1.seq();
        let matches = lockstep(&mut delta, &mut full).0;
        let matched: Vec<JobId> = matches.iter().map(|m| m.job).collect();
        assert_eq!(matched, [JobId(2), JobId(3)]);
        let s_prime = delta.1.seq();
        assert!(s < s_prime);
        assert_eq!(delta.0.eval_seq(JobId(0)), Some(s));
        assert_eq!(delta.0.eval_seq(JobId(1)), Some(s));
        assert_eq!(delta.0.eval_seq(JobId(4)), Some(s_prime));
        assert_eq!(delta.0.idle_cert_floor(), Some(s));
        // Retire the older run member by member: the floor holds at `s`
        // until its last member leaves, then is exactly `s'`.
        for twin in [&mut delta, &mut full] {
            twin.0.hold(JobId(0)).unwrap();
        }
        assert_same_certs(&delta.0, &full.0);
        assert_eq!(delta.0.idle_cert_floor(), Some(s));
        for twin in [&mut delta, &mut full] {
            twin.0.set_removed(JobId(1)).unwrap();
        }
        assert_same_certs(&delta.0, &full.0);
        assert_eq!(delta.0.idle_cert_floor(), Some(s_prime));
        assert!(Negotiator::cycle_is_quiescent(&delta.0, &delta.1));
    }

    #[test]
    fn a_machine_requirements_slot_degrades_one_cycle_to_single_members() {
        // Nodes 1-2 have no free card. Node 3's one slot admits jobs that
        // ask for at most 3000 MB, so the class's members differ there.
        let build = || {
            let mut c = Collector::new();
            for n in 1..=2 {
                Startd::new(n, 2, 1, 8192).advertise(&mut c, 7680, 0);
            }
            let mut ad = attrs::machine_ad("slot1@node3", "node3", 1, 8192, 7680, 1);
            ad.insert_expr("Requirements", "TARGET.RequestPhiMemory <= 3000")
                .unwrap();
            c.advertise(SlotId { node: 3, slot: 1 }, ad);
            let mut q = JobQueue::new();
            for (i, mem) in [(0, 6000), (1, 6000), (2, 1000), (3, 6000)] {
                q.submit(
                    JobId(i),
                    exclusive_job_ad(&spec(i, mem, 240)),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            (q, c)
        };
        let (mut delta, mut full) = (build(), build());
        // Job 2 matches behind its rejected classmates.
        let matches = lockstep(&mut delta, &mut full).0;
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].job, JobId(2));
        assert_eq!(delta.0.autoclusters(), [[JobId(0), JobId(1), JobId(3)]]);
        // Between cycles the guarded node leaves and a plain one joins:
        // the class shares certificates again.
        for twin in [&mut delta, &mut full] {
            twin.1.invalidate_node(3);
            Startd::new(4, 1, 1, 8192).advertise(&mut twin.1, 7680, 1);
            assert_eq!(twin.1.slots_with_requirements(), 0);
        }
        let matches = lockstep(&mut delta, &mut full).0;
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].job, JobId(0));
        assert!(lockstep(&mut delta, &mut full).0.is_empty());
        assert!(Negotiator::cycle_is_quiescent(&delta.0, &delta.1));
    }

    #[test]
    fn a_rejected_class_costs_visits_per_match_not_per_job() {
        // 10 000 capped jobs no slot admits, and one job of another class
        // halfway down the queue whose commit brings the node under the
        // cap: the class wakes once and fills the node's other slots.
        const JOBS: u64 = 10_000;
        let build = || {
            let mut q = JobQueue::new();
            for i in 0..=JOBS {
                if i == JOBS / 2 {
                    q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                        .unwrap();
                } else {
                    job_with_req(&mut q, i, 100, "TARGET.PhiFreeMemory <= 5000");
                }
            }
            (q, cluster(1, 4))
        };
        let (mut delta, mut full) = (build(), build());
        let classes = delta.0.autoclusters().len();
        assert_eq!(classes, 2);
        VISITS.with(|v| v.set(0));
        let (matches, stats) = lockstep(&mut delta, &mut full);
        let visits = VISITS.with(|v| v.get());
        assert_eq!(stats.considered, JOBS as usize + 1);
        assert_eq!(matches.len(), 4);
        assert_eq!(matches[1].job, JobId(JOBS / 2 + 1));
        assert!(
            visits <= 2 * classes * (matches.len() + 1),
            "{visits} visits for {classes} classes and {} matches",
            matches.len()
        );
    }

    #[test]
    fn a_ranked_job_never_inherits_a_classmates_screen() {
        // Job 1 (unranked) screens slot1@node2 but takes slot2@node1, which
        // job 0's commit brought under the `<=` bound; slot1@node2 stays
        // valid. Job 2 has the same requirements but ranks by free memory:
        // its best slot is on node3, not job 1's screened winner.
        let build = || {
            let mut c = Collector::new();
            for (n, mem) in [(1, 7680), (2, 3000), (3, 4000)] {
                Startd::new(n, 2, 1, 8192).advertise(&mut c, mem, 1);
            }
            let mut q = JobQueue::new();
            job_with_req(&mut q, 0, 3000, &attrs::pin_requirements("slot1@node1"));
            let capped = "TARGET.PhiFreeMemory <= 5000";
            job_with_req(&mut q, 1, 100, capped);
            job_with_req(&mut q, 2, 100, capped);
            q.qedit_expr(JobId(2), "Rank", "TARGET.PhiFreeMemory")
                .unwrap();
            (q, c)
        };
        let n = Negotiator::default();
        let (mut q_delta, mut c_delta) = build();
        let (mut q_naive, mut c_naive) = build();
        let delta = n.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let naive = n.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        assert_eq!(delta, naive);
        assert_eq!(c_delta, c_naive);
        let slots: Vec<SlotId> = delta.0.iter().map(|m| m.slot).collect();
        assert_eq!(
            slots,
            [(1, 1), (1, 2), (3, 1)].map(|(node, slot)| SlotId { node, slot })
        );
    }

    #[test]
    fn match_path_parses_from_cli_spelling() {
        assert_eq!("delta".parse::<MatchPath>().unwrap(), MatchPath::Delta);
        assert_eq!("Full".parse::<MatchPath>().unwrap(), MatchPath::Full);
        assert!("eager".parse::<MatchPath>().is_err());
        assert_eq!(MatchPath::default(), MatchPath::Delta);
    }
}
