//! The collector: the central manager's view of every slot.
//!
//! Besides the authoritative `SlotId → SlotStatus` map, the collector
//! maintains secondary indexes that the negotiator's fast path uses to
//! pre-screen candidates without walking every slot ad:
//!
//! * **name index** — advertised `Name` (lower-cased) → slot, for jobs
//!   pinned to a single slot;
//! * **machine index** — advertised `Machine` (lower-cased) → slots on that
//!   node, for jobs pinned to a node;
//! * **guard indexes** — one ordered index per *registered attribute*
//!   (see `Collector::ensure_attr_index`): unclaimed slots ordered by the
//!   attribute's advertised numeric value, so any compiled
//!   `TARGET.attr >= c` guard becomes a range query instead of a scan.
//!   `PhiFreeMemory` and `PhiDevicesFree` are pre-registered; the
//!   negotiator registers further attributes on demand from the guards it
//!   sees, up to a fixed cap.
//!
//! Indexes are over-approximate by design: a candidate pulled from an index
//! is always re-checked against the full match predicate, so the indexes
//! only need to never *miss* a true match. They are kept coherent by every
//! mutation (`advertise`, `claim`, `release`, the node write
//! `update_node_phi`) — same-cycle resource decrements are visible to the
//! next range query immediately.
//!
//! # Partitions
//!
//! Slot state is split across `P` partitions, assigned deterministically by
//! node id (`node % P`). Each partition owns its *own* slot table, guard
//! indexes, dirty log, and watermark, so the negotiator's delta cycles can
//! register, screen, and pre-commit per partition in parallel — partitions
//! never share mutable state. The global name and machine indexes stay
//! unpartitioned (they answer point queries, not scans), as does the
//! monotone sequence counter, which keeps dirty stamps totally ordered
//! *across* partitions. Every public accessor merges partitions back into
//! the exact enumeration order a single-map collector would produce, so
//! observable behaviour — including [`PartialEq`] — is partition-count
//! invariant. `P = 1` (the default) is the unpartitioned layout.
//!
//! A partition stores its slots densely: one `Vec` holding each node's
//! slots as a run of consecutive entries in slot order, the runs in node
//! order, and a node → run table. A new slot is inserted in place, so the
//! slots after it shift; a pool advertises its nodes in order, so in
//! practice every insert lands at the tail. An invalidated node keeps its
//! run, vacant, until it advertises again, so no invalidation shifts other
//! slots.
//!
//! # Dirty tracking
//!
//! The collector also stamps every *match-relevant* mutation with a
//! monotone sequence number (`Collector::seq`) and remembers, per slot,
//! the latest stamp (`Collector::dirty_since`). This is what the
//! negotiator's delta path builds on: a job certified unmatched against the
//! pool at sequence `s` can only have gained a match through a slot dirtied
//! *after* `s`, because the match predicate depends on nothing but the job
//! ad, the slot ad, and the claim flag. Two deliberate asymmetries keep the
//! set small and exact:
//!
//! * **claims do not mark dirty** — turning `claimed` on only ever removes
//!   a candidate (the negotiator filters claimed slots before the
//!   predicate), so it cannot turn an unmatched job matchable;
//! * **removals clear their stamps** — [`Collector::invalidate_node`]
//!   zeroes the slots' stamps, so their log entries stop counting, since a
//!   vanished slot cannot create a match either (the partition watermark
//!   still advances, so post-fault cycles are never quiescence-skipped).
//!
//! Everything else — ad refreshes, in-cycle decrements, releases,
//! re-advertisements — marks the slot dirty, *including* decrements: the
//! predicate is arbitrary (a requirement may test `TARGET.attr < c` or hide
//! inverted logic in a residual expression), so no monotonicity is assumed.
//!
//! A node's Phi availability (`PhiFreeMemory`, `PhiDevicesFree`) is repeated
//! on every slot ad of the node, so it is written node-granularly:
//! [`Collector::update_node_phi`] walks the node's slots once, compares
//! each slot's two current values against the cached guard-index keys (no
//! ad lookup when those are exact), rewrites only the attributes that
//! change and stamps each changed slot dirty **once**, however many of its
//! attributes changed. Stamps are only ever compared with each other, and
//! every slot's final stamp keeps its order relative to all other
//! mutations, so certificates and watermarks decide exactly as they would
//! under one stamp per attribute write.
//!
//! The stamps live in the slot table, one per entry. Each partition also
//! keeps an append-only log of `(stamp, position)` pairs in stamp order: a
//! restamp is two stores and a push, and the entry it supersedes stays in
//! the log, *stale*. Reads find the first entry after a sequence number by
//! bisection and drop each stale entry by comparing its stamp with its
//! slot's current one — stamps are unique, so only a slot's latest entry
//! matches, and each dirty slot is read once, at its latest stamp. The log
//! is compacted to its live entries once it outgrows the partition's slot
//! count by a fixed fraction, so it stays within a constant factor of the
//! pool size.
//!
//! Each partition additionally tracks a **watermark**: the sequence number
//! of its latest dirtying mutation (including invalidations). A cycle is
//! provably match-free when every idle job holds an unmatched certificate
//! at least as new as `Collector::max_watermark` — the O(1) quiescence
//! check the negotiator and runtime build on.
//!
//! Equality ([`PartialEq`]) deliberately compares only the authoritative
//! state — each slot's ad and claim flag, in slot order. Which guard
//! indexes happen to be registered, how often the pool was mutated, and how
//! many partitions hold the slots are operational details that differ
//! between equivalent collectors (e.g. the delta and full negotiation
//! paths), not observable matchmaking state.

use crate::attrs;
use phishare_classad::{ClassAd, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::iter::Peekable;
use std::ops::{Bound, Range};
use std::sync::OnceLock;

/// Identifies one execution slot: `slot<slot>@node<node>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotId {
    /// Node index within the cluster.
    pub node: u32,
    /// Slot index within the node (1-based, Condor style).
    pub slot: u32,
}

impl SlotId {
    /// The Condor-style slot name, e.g. `slot1@node3`.
    pub fn name(&self) -> String {
        format!("slot{}@node{}", self.slot, self.node)
    }

    /// The smallest possible slot id — the origin of index range scans.
    pub(crate) const MIN: SlotId = SlotId { node: 0, slot: 0 };
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}@node{}", self.slot, self.node)
    }
}

/// Most guard indexes a collector will register. The negotiator registers
/// attributes lazily from job guards; a hostile mix of requirements must
/// not grow an index per distinct attribute name, so registration beyond
/// the cap is refused and those guards fall back to the unclaimed scan.
pub(crate) const MAX_ATTR_INDEXES: usize = 12;

/// Most partitions a collector will split into. Partitions beyond the host's
/// core count only add merge overhead, and a small fixed cap keeps the merge
/// iterators' per-item cost bounded.
pub const MAX_PARTITIONS: usize = 16;

/// Position of the pre-registered `PhiFreeMemory` guard index.
const FREE_MEM_IDX: usize = Collector::FREE_MEM_INDEX;

/// The node-level Phi availability attributes, canonical, at their
/// pre-registered guard-index positions ([`Collector::FREE_MEM_INDEX`],
/// [`Collector::DEVICES_FREE_INDEX`]).
const PHI_ATTRS: [&str; 2] = [attrs::lc::PHI_FREE_MEMORY, attrs::lc::PHI_DEVICES_FREE];

/// The host's available parallelism, at least 1. Read once per process:
/// `std::thread::available_parallelism` re-reads the cgroup quota files on
/// every call, and the negotiator asks once per cycle.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parse a `PHISHARE_PARTITION_THREADS`-style override for the number of
/// worker threads partition-parallel phases may use.
pub(crate) fn partition_threads_override(raw: Option<&str>, parts: usize) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(host_parallelism)
        .min(parts)
}

/// Worker threads partition-parallel phases and the negotiator's screen
/// should use: the host's parallelism (overridable via
/// `PHISHARE_PARTITION_THREADS`, mostly so tests can force the threaded
/// path on single-core machines), capped at `parts` units of work. A
/// result of 1 means "stay serial". The variable is read on every call, so
/// setting it at run time takes effect; the host's parallelism is cached
/// ([`host_parallelism`]). Public so benches can record the fan-out they
/// actually measured.
pub fn partition_threads(parts: usize) -> usize {
    partition_threads_override(
        std::env::var("PHISHARE_PARTITION_THREADS").ok().as_deref(),
        parts,
    )
}

/// Frequently-consulted facts extracted from a slot ad once per
/// advertisement, so the matchmaking inner loop never does attribute map
/// lookups (each of which lower-cases the key) for them.
#[derive(Debug, Clone, Default)]
pub struct SlotMeta {
    /// Advertised `Name`, lower-cased; `None` when absent or non-string.
    name_lc: Option<String>,
    /// Advertised `Machine`, lower-cased; `None` when absent or non-string.
    machine_lc: Option<String>,
    /// The slot's numeric value for each registered guard attribute,
    /// parallel to the collector's registration order; `None` when absent
    /// or non-numeric.
    indexed_vals: Vec<Option<f64>>,
    /// Whether the slot ad carries a machine-side `Requirements` expression
    /// (most machine ads do not, letting the negotiator skip that half of
    /// the two-sided match entirely).
    has_requirements: bool,
    /// Per [`PHI_ATTRS`] entry: whether `indexed_vals` at that position
    /// decodes to the ad's `Int` value exactly, so the node write can read
    /// it without an ad lookup. False for `Float` or absent values and for
    /// integers an f64 does not round-trip. Fits in the padding after
    /// `has_requirements`, so `SlotStatus` does not grow.
    phi_exact: [bool; 2],
}

impl SlotMeta {
    fn from_ad(ad: &ClassAd, indexed_attrs: &[String]) -> Self {
        let str_attr = |name: &str| match ad.get(name) {
            Some(Value::Str(s)) => Some(s.to_ascii_lowercase()),
            _ => None,
        };
        // The Phi attributes are the first two registered, so their flags
        // come from the same lookups as their guard-index keys.
        let mut phi_exact = [false; 2];
        let indexed_vals = indexed_attrs
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let val = ad.get(a);
                if let (Some(flag), Some(Value::Int(v))) = (phi_exact.get_mut(i), val) {
                    *flag = int_key(*v).1;
                }
                val.and_then(Value::as_f64).filter(|v| !v.is_nan())
            })
            .collect();
        SlotMeta {
            name_lc: str_attr(attrs::lc::NAME),
            machine_lc: str_attr(attrs::lc::MACHINE),
            indexed_vals,
            has_requirements: ad.get_expr(attrs::lc::REQUIREMENTS).is_some(),
            phi_exact,
        }
    }

    /// Whether the slot advertises a machine-side `Requirements`.
    pub fn has_requirements(&self) -> bool {
        self.has_requirements
    }
}

fn numeric_attr(ad: &ClassAd, attr: &str) -> Option<f64> {
    ad.get(attr).and_then(Value::as_f64).filter(|v| !v.is_nan())
}

/// The guard-index key of integer `v`, and whether it decodes back to
/// exactly `v` (false for integers beyond f64's 53-bit mantissa).
fn int_key(v: i64) -> (f64, bool) {
    let key = v as f64;
    (key, key as i64 == v)
}

/// A slot's entry in the collector.
#[derive(Debug, Clone)]
pub struct SlotStatus {
    /// The slot's current ClassAd.
    pub ad: ClassAd,
    /// Whether a job currently holds a claim on the slot.
    pub claimed: bool,
    meta: SlotMeta,
}

impl SlotStatus {
    /// Cached facts about the slot ad.
    pub fn meta(&self) -> &SlotMeta {
        &self.meta
    }

    /// The ad's `Int` value of [`PHI_ATTRS`]`[i]`: the cached guard-index
    /// key when it is exact, else an ad lookup.
    fn phi_int(&self, i: usize) -> Option<i64> {
        if self.meta.phi_exact[i] {
            self.meta.indexed_vals[i].map(|v| v as i64)
        } else {
            match self.ad.get(PHI_ATTRS[i]) {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            }
        }
    }

    /// Write `value` as integer attribute `attr` (guard index `idx`, if
    /// registered), keeping the cached meta and the owning partition's
    /// guard index `by_attr` coherent. The caller has established that the
    /// value changes, and stamps the slot.
    fn store_int(
        &mut self,
        id: SlotId,
        by_attr: &mut [GuardIndex],
        attr: &str,
        idx: Option<usize>,
        value: i64,
    ) {
        self.ad.insert(attr, value);
        let Some(i) = idx else {
            return;
        };
        let (key, exact) = int_key(value);
        let old = self.meta.indexed_vals[i].replace(key);
        if let Some(flag) = self.meta.phi_exact.get_mut(i) {
            *flag = exact;
        }
        if !self.claimed {
            if let Some(v) = old {
                by_attr[i].remove(&(ord_f64(v), id));
            }
            by_attr[i].insert((ord_f64(key), id));
        }
    }
}

/// Equality is the authoritative state only: the ad and the claim flag.
/// The cached meta derives from the ad *plus* whichever guard attributes
/// the owning collector has registered, so two observably identical slots
/// may carry different-length `indexed_vals`.
impl PartialEq for SlotStatus {
    fn eq(&self, other: &Self) -> bool {
        self.ad == other.ad && self.claimed == other.claimed
    }
}

/// One guard index: unclaimed slots keyed by an attribute's ord-encoded
/// numeric value ([`ord_f64`]).
type GuardIndex = BTreeSet<(u64, SlotId)>;

/// Order-preserving encoding of a non-NaN f64 into u64, so numeric bounds
/// can key a `BTreeSet`.
fn ord_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// K-way ordered merge over per-partition iterators, keyed by `key`. The
/// single-partition case bypasses the merge entirely so `P = 1` pays
/// nothing over the unpartitioned layout; the multi-partition case scans
/// the (≤ [`MAX_PARTITIONS`]) heads per item, which beats a heap at these
/// widths.
enum Merged<I: Iterator, F> {
    One(I),
    Many(Vec<Peekable<I>>, F),
}

impl<I, K, F> Iterator for Merged<I, F>
where
    I: Iterator,
    K: Ord,
    F: Fn(&I::Item) -> K,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        match self {
            Merged::One(it) => it.next(),
            Merged::Many(heads, key) => {
                let mut best: Option<(K, usize)> = None;
                for (i, head) in heads.iter_mut().enumerate() {
                    if let Some(item) = head.peek() {
                        let k = key(item);
                        if best.as_ref().is_none_or(|(bk, _)| k < *bk) {
                            best = Some((k, i));
                        }
                    }
                }
                best.map(|(_, i)| heads[i].next().expect("peeked head is non-empty"))
            }
        }
    }
}

/// One shard of the collector's slot state. Partitions are fully disjoint —
/// a slot lives in exactly one (by node id), and every mutable field here is
/// touched only through its owning partition — which is what lets delta
/// cycles work partitions in parallel without synchronization.
#[derive(Debug, Clone, Default)]
struct Partition {
    /// The slot table: each node's slots as one run of consecutive
    /// entries, in (node, slot) order. A slot's position is its dense
    /// index, by which the dirty log names it; it shifts only when a slot
    /// is inserted before it.
    slots: Vec<Entry>,
    /// Node → its run in `slots`, in node order. An invalidated node keeps
    /// its run, vacant, for its return.
    nodes: BTreeMap<u32, Run>,
    /// Advertised slots: the entries holding a status.
    live: usize,
    /// One ordered index per registered attribute: unclaimed slots keyed by
    /// the attribute's advertised numeric value (ord-encoded). Parallel to
    /// the collector-wide `indexed_attrs` registration order.
    by_attr: Vec<GuardIndex>,
    /// `(stamp, position)` of every restamp, in strictly ascending stamp
    /// order, append-only between compactions. A restamp supersedes the
    /// slot's previous entry, which stays behind *stale*: an entry is live
    /// only while the slot at its position still carries its stamp (stamps
    /// are unique), so every stamped slot has exactly one live entry and
    /// reads skip the rest. Compacted once it outgrows
    /// [`Partition::log_bound`].
    log: Vec<(u64, u32)>,
    /// Sequence number of this partition's latest dirtying mutation
    /// (including node invalidations, which leave no dirty entry). Zero
    /// until something dirties the partition.
    watermark: u64,
}

/// One position of a partition's slot table.
#[derive(Debug, Clone)]
struct Entry {
    id: SlotId,
    /// The slot's latest dirty stamp; 0, below every stamp, while the
    /// entry holds no status.
    stamp: u64,
    /// `None` while the slot's node is invalidated.
    status: Option<SlotStatus>,
}

/// A node's run of consecutive positions in its partition's slot table.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A position as the dirty log and the runs store it.
fn pos32(p: usize) -> u32 {
    u32::try_from(p).expect("fewer than 2^32 slots per partition")
}

/// A partition's dirty log outgrows its live slot count by at most
/// `1 / SLACK` of it (plus one) before it is compacted: compaction then
/// costs at most `SLACK + 1` entry visits per restamp, amortised.
const SLACK: usize = 4;

impl Partition {
    /// The table position of `slot`, advertised or vacant.
    fn position(&self, slot: SlotId) -> Option<usize> {
        let run = self.nodes.get(&slot.node)?.range();
        let start = run.start;
        self.slots[run]
            .binary_search_by_key(&slot.slot, |e| e.id.slot)
            .ok()
            .map(|i| start + i)
    }

    fn get(&self, slot: SlotId) -> Option<&SlotStatus> {
        self.slots[self.position(slot)?].status.as_ref()
    }

    /// An advertised slot's position and status, with the guard indexes
    /// that must follow its changes.
    fn get_mut(&mut self, slot: SlotId) -> Option<(usize, &mut SlotStatus, &mut [GuardIndex])> {
        let p = self.position(slot)?;
        let status = self.slots[p].status.as_mut()?;
        Some((p, status, &mut self.by_attr))
    }

    /// The positions of `node`'s run; empty when it has none.
    fn run(&self, node: u32) -> Range<usize> {
        self.nodes.get(&node).map_or(0..0, |r| r.range())
    }

    /// The advertised slots, in (node, slot) order.
    fn iter(&self) -> impl Iterator<Item = (&SlotId, &SlotStatus)> {
        self.nodes
            .values()
            .flat_map(|r| &self.slots[r.range()])
            .filter_map(|e| Some((&e.id, e.status.as_ref()?)))
    }

    /// Add a vacant entry for `slot`, which has none, at its place in
    /// (node, slot) order and return its position. Every later run starts
    /// one position further on, and the slots that shift take their live
    /// log entries along. A pool advertises its nodes in order, so a new
    /// entry lands at the tail and nothing shifts; an insert elsewhere
    /// costs O(partition).
    fn insert(&mut self, slot: SlotId) -> usize {
        let later = (Bound::Excluded(slot.node), Bound::Unbounded);
        let at = match self.nodes.get(&slot.node) {
            Some(run) => {
                run.start as usize
                    + self.slots[run.range()].partition_point(|e| e.id.slot < slot.slot)
            }
            None => self
                .nodes
                .range(later)
                .next()
                .map_or(self.slots.len(), |(_, run)| run.start as usize),
        };
        self.slots.insert(
            at,
            Entry {
                id: slot,
                stamp: 0,
                status: None,
            },
        );
        self.nodes
            .entry(slot.node)
            .or_insert(Run {
                start: pos32(at),
                len: 0,
            })
            .len += 1;
        // No run is empty, so only an insert before the tail shifts one.
        if at + 1 < self.slots.len() {
            for (_, run) in self.nodes.range_mut(later) {
                run.start += 1;
            }
            for p in at + 1..self.slots.len() {
                self.repoint(p);
            }
        }
        at
    }

    /// Point the live log entry of the slot now at `p` to `p`.
    fn repoint(&mut self, p: usize) {
        let stamp = self.slots[p].stamp;
        if stamp != 0 {
            let i = self
                .log
                .binary_search_by_key(&stamp, |&(s, _)| s)
                .expect("a stamped slot has a live log entry");
            self.log[i].1 = pos32(p);
        }
    }

    /// Stamp the slot at `p` dirty at `seq`, newer than every stamp in the
    /// log.
    fn restamp(&mut self, p: usize, seq: u64) {
        self.slots[p].stamp = seq;
        self.log.push((seq, pos32(p)));
        self.watermark = seq;
        self.compact_log_if_over();
    }

    /// Most entries the log holds after any mutation: the live slot count
    /// plus `1 / SLACK` of it, plus one.
    fn log_bound(&self) -> usize {
        self.live + self.live / SLACK + 1
    }

    /// Drop the stale entries once the log is over [`Partition::log_bound`];
    /// what stays is one entry per stamped slot.
    fn compact_log_if_over(&mut self) {
        if self.log.len() > self.log_bound() {
            let slots = &self.slots;
            self.log.retain(|&(s, p)| slots[p as usize].stamp == s);
        }
    }

    /// The slots stamped strictly after `seq`, with their stamps, in stamp
    /// order.
    fn since(&self, seq: u64) -> impl Iterator<Item = (u64, SlotId)> + '_ {
        let start = self.log.partition_point(|&(s, _)| s <= seq);
        self.log[start..].iter().filter_map(|&(s, p)| {
            let e = &self.slots[p as usize];
            (e.stamp == s).then_some((s, e.id))
        })
    }

    fn unindex_attrs(&mut self, slot: SlotId, status: &SlotStatus) {
        for (i, val) in status.meta.indexed_vals.iter().enumerate() {
            if let Some(v) = val {
                self.by_attr[i].remove(&(ord_f64(*v), slot));
            }
        }
    }

    fn index_attrs(&mut self, slot: SlotId, status: &SlotStatus) {
        if !status.claimed {
            for (i, val) in status.meta.indexed_vals.iter().enumerate() {
                if let Some(v) = val {
                    self.by_attr[i].insert((ord_f64(*v), slot));
                }
            }
        }
    }

    /// Extend this partition with the index for a newly registered
    /// attribute: every slot's meta gains the attribute's value, and the
    /// unclaimed numeric ones enter the new ordered index.
    fn register_attr(&mut self, canon: &str) {
        let mut index = BTreeSet::new();
        for entry in self.slots.iter_mut() {
            let Some(status) = entry.status.as_mut() else {
                continue;
            };
            let val = numeric_attr(&status.ad, canon);
            status.meta.indexed_vals.push(val);
            if !status.claimed {
                if let Some(v) = val {
                    index.insert((ord_f64(v), entry.id));
                }
            }
        }
        self.by_attr.push(index);
    }
}

/// The collector: slot name → latest advertisement, plus matchmaking
/// indexes, dirty tracking and partitions (see module docs).
#[derive(Debug, Clone)]
pub struct Collector {
    /// Disjoint slot shards; a slot with node `n` lives in
    /// `parts[n % parts.len()]`. Never empty.
    parts: Vec<Partition>,
    /// Advertised `Name` (lower-cased) → slot.
    by_name: BTreeMap<String, SlotId>,
    /// Advertised `Machine` (lower-cased) → slots, in SlotId order.
    by_machine: BTreeMap<String, Vec<SlotId>>,
    /// Registered guard-index attributes, lower-cased; position is the
    /// index id used by [`Collector::indexed_range_at_least`]. Shared by
    /// all partitions, so index ids mean the same thing everywhere.
    indexed_attrs: Vec<String>,
    /// How many slots advertise a machine-side `Requirements`; kept by
    /// `index`/`unindex`. While it is zero, a job's slot choice cannot
    /// depend on its own ad beyond its compiled requirements.
    with_requirements: usize,
    /// Monotone mutation sequence; bumped by every match-relevant change.
    /// Global across partitions, so dirty stamps are totally ordered.
    seq: u64,
}

/// Equality is the authoritative state only — per-slot ads and claims, in
/// slot order. See the module docs for why registered indexes, sequence
/// counters and partition counts are excluded.
impl PartialEq for Collector {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.slots().eq(other.slots())
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Position of the pre-registered `PhiFreeMemory` guard index.
    pub(crate) const FREE_MEM_INDEX: usize = 0;
    /// Position of the pre-registered `PhiDevicesFree` guard index.
    pub(crate) const DEVICES_FREE_INDEX: usize = 1;

    /// Create an empty unpartitioned collector (`P = 1`) with the two
    /// standard Phi guard indexes pre-registered.
    pub fn new() -> Self {
        Collector::with_partitions(1)
    }

    /// Create an empty collector with `parts` partitions (clamped to
    /// `1..=`[`MAX_PARTITIONS`]) and the two standard Phi guard indexes
    /// pre-registered.
    pub fn with_partitions(parts: usize) -> Self {
        let parts = parts.clamp(1, MAX_PARTITIONS);
        let mut c = Collector {
            parts: vec![Partition::default(); parts],
            by_name: BTreeMap::new(),
            by_machine: BTreeMap::new(),
            indexed_attrs: Vec::new(),
            with_requirements: 0,
            seq: 0,
        };
        let fm = c.ensure_attr_index(attrs::lc::PHI_FREE_MEMORY);
        debug_assert_eq!(fm, Some(Self::FREE_MEM_INDEX));
        let df = c.ensure_attr_index(attrs::lc::PHI_DEVICES_FREE);
        debug_assert_eq!(df, Some(Self::DEVICES_FREE_INDEX));
        c
    }

    /// How many partitions the slot state is split across.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The partition that owns slots of `node`.
    pub(crate) fn part_of(&self, node: u32) -> usize {
        node as usize % self.parts.len()
    }

    /// Stamp the slot at position `p` of partition `pi` as changed at a
    /// fresh sequence number.
    fn mark_dirty(&mut self, pi: usize, p: usize) {
        self.seq += 1;
        self.parts[pi].restamp(p, self.seq);
    }

    /// The current mutation sequence number. A later call never returns a
    /// smaller value; every match-relevant mutation strictly increases it.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// The newest watermark across all partitions: the sequence number of
    /// the latest dirtying mutation anywhere in the pool. A job certified
    /// unmatched at sequence `s >= max_watermark()` provably still has no
    /// match — the O(1) quiescence predicate.
    pub(crate) fn max_watermark(&self) -> u64 {
        self.parts.iter().map(|p| p.watermark).max().unwrap_or(0)
    }

    /// Slots dirtied strictly after `seq`, in stamp order, across all
    /// partitions. Together with the claim-flag check this is exactly the
    /// candidate set a job certified unmatched at `seq` needs to re-examine
    /// (module docs).
    pub(crate) fn dirty_since(&self, seq: u64) -> impl Iterator<Item = SlotId> + '_ {
        let mut ranges = self.parts.iter().map(|p| p.since(seq)).collect::<Vec<_>>();
        let merged = if ranges.len() == 1 {
            Merged::One(ranges.pop().expect("one range"))
        } else {
            Merged::Many(
                ranges.into_iter().map(Iterator::peekable).collect(),
                |item: &(u64, SlotId)| item.0,
            )
        };
        merged.map(|(_, slot)| slot)
    }

    /// [`Collector::dirty_since`] restricted to partition `pi`, with
    /// stamps, in stamp order. The negotiator's screen hoists this into one
    /// per-cycle cache per screen unit and slices it per job by certificate
    /// with a binary search, instead of re-walking the dirty log once per
    /// (job, partition) pair.
    pub(crate) fn partition_dirty_entries_since(
        &self,
        pi: usize,
        seq: u64,
    ) -> impl Iterator<Item = (u64, SlotId)> + '_ {
        self.parts[pi].since(seq)
    }

    /// Whether `slot` was dirtied strictly after `seq`.
    pub(crate) fn dirtied_after(&self, slot: SlotId, seq: u64) -> bool {
        let part = &self.parts[slot.node as usize % self.parts.len()];
        part.position(slot)
            .is_some_and(|p| part.slots[p].stamp > seq)
    }

    /// The guard-index position of `attr`, if registered.
    pub fn attr_index(&self, attr: &str) -> Option<usize> {
        self.indexed_attrs
            .iter()
            .position(|a| attr.eq_ignore_ascii_case(a))
    }

    /// Register a guard index over `attr` (idempotent), returning its
    /// position — or `None` when the [`MAX_ATTR_INDEXES`] cap is reached.
    /// Registration walks every slot once (partitions in parallel when the
    /// host has the cores for it); steady state is a lookup.
    ///
    /// An attribute no slot advertises yields an *empty* index, which is
    /// still exact as a pre-screen: a numeric guard rejects every slot
    /// missing the attribute, so the guard's true matches are empty too.
    pub(crate) fn ensure_attr_index(&mut self, attr: &str) -> Option<usize> {
        if let Some(idx) = self.attr_index(attr) {
            return Some(idx);
        }
        if self.indexed_attrs.len() >= MAX_ATTR_INDEXES {
            return None;
        }
        let canon = attr.to_ascii_lowercase();
        if self.parts.len() > 1 && partition_threads(self.parts.len()) > 1 {
            std::thread::scope(|scope| {
                for part in self.parts.iter_mut() {
                    let canon = canon.as_str();
                    scope.spawn(move || part.register_attr(canon));
                }
            });
        } else {
            for part in self.parts.iter_mut() {
                part.register_attr(&canon);
            }
        }
        self.indexed_attrs.push(canon);
        Some(self.indexed_attrs.len() - 1)
    }

    fn unindex(&mut self, slot: SlotId, status: &SlotStatus) {
        if let Some(name) = &status.meta.name_lc {
            self.by_name.remove(name);
        }
        if let Some(machine) = &status.meta.machine_lc {
            if let Some(ids) = self.by_machine.get_mut(machine) {
                ids.retain(|s| *s != slot);
                if ids.is_empty() {
                    self.by_machine.remove(machine);
                }
            }
        }
        self.with_requirements -= usize::from(status.meta.has_requirements);
        let pi = self.part_of(slot.node);
        self.parts[pi].unindex_attrs(slot, status);
    }

    fn index(&mut self, slot: SlotId, status: &SlotStatus) {
        if let Some(name) = &status.meta.name_lc {
            self.by_name.insert(name.clone(), slot);
        }
        if let Some(machine) = &status.meta.machine_lc {
            let ids = self.by_machine.entry(machine.clone()).or_default();
            let pos = ids.partition_point(|s| *s < slot);
            if ids.get(pos) != Some(&slot) {
                ids.insert(pos, slot);
            }
        }
        self.with_requirements += usize::from(status.meta.has_requirements);
        let pi = self.part_of(slot.node);
        self.parts[pi].index_attrs(slot, status);
    }

    /// Insert or refresh a slot's advertisement. Claim state is preserved on
    /// refresh, all indexes are rebuilt for the slot, and the slot is marked
    /// dirty.
    pub fn advertise(&mut self, slot: SlotId, ad: ClassAd) {
        let pi = self.part_of(slot.node);
        let part = &mut self.parts[pi];
        let p = part.position(slot).unwrap_or_else(|| part.insert(slot));
        let claimed = match part.slots[p].status.take() {
            Some(old) => {
                self.unindex(slot, &old);
                old.claimed
            }
            None => {
                part.live += 1;
                false
            }
        };
        let status = SlotStatus {
            meta: SlotMeta::from_ad(&ad, &self.indexed_attrs),
            ad,
            claimed,
        };
        self.index(slot, &status);
        self.parts[pi].slots[p].status = Some(status);
        self.mark_dirty(pi, p);
    }

    /// How many slots advertise a machine-side `Requirements`. O(1).
    pub fn slots_with_requirements(&self) -> usize {
        self.with_requirements
    }

    /// Look up a slot.
    pub fn get(&self, slot: SlotId) -> Option<&SlotStatus> {
        self.parts[slot.node as usize % self.parts.len()].get(slot)
    }

    /// Overwrite one integer attribute of a slot's ad, keeping the cached
    /// meta and every guard index coherent and marking the slot dirty.
    /// Writes that change nothing are skipped entirely — the slot stays
    /// clean. The per-slot specification of [`Collector::update_node_phi`].
    #[cfg(test)]
    pub(crate) fn set_int_attr(&mut self, slot: SlotId, attr: &str, value: i64) {
        let idx = self.attr_index(attr);
        let pi = self.part_of(slot.node);
        let Some((p, status, by_attr)) = self.parts[pi].get_mut(slot) else {
            return;
        };
        if status.ad.get(attr) == Some(&Value::Int(value)) {
            return;
        }
        status.store_int(slot, by_attr, attr, idx, value);
        self.mark_dirty(pi, p);
    }

    /// Rewrite the node-level Phi availability (`PhiFreeMemory`,
    /// `PhiDevicesFree`) on every slot ad of `node` in one pass — startd
    /// refreshes, the negotiator's in-cycle decrements, and the benches'
    /// completions. `f` maps each slot's current `Int` values (`None` when
    /// a value is absent or not an `Int`) to the values to write; `None`
    /// leaves a value alone. Only values that change are rewritten, with
    /// their guard indexes, and each changed slot is stamped dirty once
    /// (module docs, "Dirty tracking"). Equivalent, slot by slot, to
    /// writing each attribute on its own and skipping values it already
    /// holds. Returns how many slots the node has; 0 means it must publish
    /// full ads first.
    pub fn update_node_phi(
        &mut self,
        node: u32,
        f: impl FnMut([Option<i64>; 2]) -> [Option<i64>; 2],
    ) -> usize {
        let pi = self.part_of(node);
        let run = self.parts[pi].run(node);
        self.update_phi(pi, run, f)
    }

    /// [`Collector::update_node_phi`] over the advertised slots at
    /// `positions` of partition `pi`, all of which lie on one node.
    fn update_phi(
        &mut self,
        pi: usize,
        positions: Range<usize>,
        mut f: impl FnMut([Option<i64>; 2]) -> [Option<i64>; 2],
    ) -> usize {
        let part = &mut self.parts[pi];
        let mut visited = 0;
        for p in positions {
            let Entry { id, status, .. } = &mut part.slots[p];
            let Some(status) = status else {
                continue;
            };
            visited += 1;
            let current = [status.phi_int(0), status.phi_int(1)];
            let mut changed = false;
            for (i, new) in f(current).into_iter().enumerate() {
                if let Some(v) = new.filter(|&v| current[i] != Some(v)) {
                    status.store_int(*id, &mut part.by_attr, PHI_ATTRS[i], Some(i), v);
                    changed = true;
                }
            }
            if changed {
                self.seq += 1;
                part.restamp(p, self.seq);
            }
        }
        visited
    }

    /// Refresh the node-level Phi availability attributes of one existing
    /// slot ad in place (`PhiFreeMemory`, `PhiDevicesFree`): the
    /// single-slot [`Collector::update_node_phi`]. Equivalent to
    /// re-advertising the same machine ad with new availability numbers,
    /// but skips rebuilding the ad's fixed attributes — and skips the
    /// write (and the dirty mark) entirely for values that already match.
    /// Returns `false` when the slot has never been advertised (the caller
    /// must publish a full ad first).
    pub fn refresh_phi_availability(
        &mut self,
        slot: SlotId,
        free_mem_mb: u64,
        devices_free: u32,
    ) -> bool {
        let values = [Some(free_mem_mb as i64), Some(i64::from(devices_free))];
        let pi = self.part_of(slot.node);
        self.parts[pi]
            .position(slot)
            .is_some_and(|p| self.update_phi(pi, p..p + 1, |_| values) > 0)
    }

    /// Mark a slot claimed. Returns false if it was already claimed.
    ///
    /// Claiming removes the slot from every guard index but does *not*
    /// mark it dirty: a claim can only remove a candidate, never create a
    /// match (module docs), and keeping claims out of the dirty set is what
    /// makes the delta path's per-cycle candidate sets small.
    pub fn claim(&mut self, slot: SlotId) -> bool {
        let pi = self.part_of(slot.node);
        match self.parts[pi].get_mut(slot) {
            Some((_, s, by_attr)) if !s.claimed => {
                s.claimed = true;
                for (i, val) in s.meta.indexed_vals.iter().enumerate() {
                    if let Some(v) = val {
                        by_attr[i].remove(&(ord_f64(*v), slot));
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Release a slot's claim, re-inserting it into the guard indexes and
    /// marking it dirty (an unclaimed slot is new matching capacity).
    pub fn release(&mut self, slot: SlotId) {
        let pi = self.part_of(slot.node);
        let Some((p, s, by_attr)) = self.parts[pi].get_mut(slot) else {
            return;
        };
        if !s.claimed {
            return;
        }
        s.claimed = false;
        for (i, val) in s.meta.indexed_vals.iter().enumerate() {
            if let Some(v) = val {
                by_attr[i].insert((ord_f64(*v), slot));
            }
        }
        self.mark_dirty(pi, p);
    }

    /// All slots in deterministic (node, slot) order, merged across
    /// partitions.
    pub fn slots(&self) -> impl Iterator<Item = (&SlotId, &SlotStatus)> {
        let mut iters = self.parts.iter().map(Partition::iter).collect::<Vec<_>>();
        if iters.len() == 1 {
            Merged::One(iters.pop().expect("one partition"))
        } else {
            Merged::Many(
                iters.into_iter().map(Iterator::peekable).collect(),
                |item: &(&SlotId, &SlotStatus)| *item.0,
            )
        }
    }

    /// Unclaimed slots in deterministic order.
    pub fn unclaimed(&self) -> Vec<SlotId> {
        self.unclaimed_iter().collect()
    }

    /// [`Collector::unclaimed`] without the allocation.
    pub(crate) fn unclaimed_iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots().filter(|(_, s)| !s.claimed).map(|(id, _)| *id)
    }

    /// Unclaimed slots owned by partition `pi`, in slot order — the
    /// partition-parallel screen's shard of a full scan.
    pub(crate) fn partition_unclaimed_iter(&self, pi: usize) -> impl Iterator<Item = SlotId> + '_ {
        self.parts[pi]
            .iter()
            .filter(|(_, s)| !s.claimed)
            .map(|(id, _)| *id)
    }

    /// The slot advertising `Name == name` (case-insensitive), if any.
    pub(crate) fn slot_by_name(&self, name: &str) -> Option<SlotId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Slots advertising `Machine == machine` (case-insensitive), in
    /// SlotId order.
    pub(crate) fn slots_on_machine(&self, machine: &str) -> &[SlotId] {
        self.by_machine
            .get(&machine.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Unclaimed slots whose registered attribute `idx` is numeric and
    /// `>= bound`, in ascending value order, merged across partitions.
    /// Slots without a numeric value for the attribute are absent — exactly
    /// the slots a numeric guard would reject anyway.
    pub fn indexed_range_at_least(
        &self,
        idx: usize,
        bound: f64,
    ) -> impl Iterator<Item = SlotId> + '_ {
        let start = Bound::Included((ord_f64(bound), SlotId::MIN));
        let mut ranges = self
            .parts
            .iter()
            .map(|p| p.by_attr[idx].range((start, Bound::Unbounded)).copied())
            .collect::<Vec<_>>();
        let merged = if ranges.len() == 1 {
            Merged::One(ranges.pop().expect("one range"))
        } else {
            Merged::Many(
                ranges.into_iter().map(Iterator::peekable).collect(),
                |item: &(u64, SlotId)| *item,
            )
        };
        merged.map(|(_, slot)| slot)
    }

    /// [`Collector::indexed_range_at_least`] restricted to partition `pi`.
    pub(crate) fn partition_indexed_range_at_least(
        &self,
        pi: usize,
        idx: usize,
        bound: f64,
    ) -> impl Iterator<Item = SlotId> + '_ {
        let start = Bound::Included((ord_f64(bound), SlotId::MIN));
        self.parts[pi].by_attr[idx]
            .range((start, Bound::Unbounded))
            .map(|(_, slot)| *slot)
    }

    /// [`Collector::indexed_range_at_least`] over the pre-registered
    /// `PhiFreeMemory` index.
    pub fn unclaimed_with_free_mem_at_least(
        &self,
        bound: f64,
    ) -> impl Iterator<Item = SlotId> + '_ {
        self.indexed_range_at_least(FREE_MEM_IDX, bound)
    }

    /// Invalidate every ClassAd `node` has ever advertised (`condor_off`
    /// semantics / ad expiry after a missed update deadline): the slots —
    /// claimed or not — vanish from the collector and all its indexes, and
    /// their stamps are cleared, so they leave the dirty set (a removed slot
    /// cannot create a match); a dead startd stops matching immediately. The
    /// node's run stays in the slot table, vacant, so no other slot moves.
    /// The owning partition's watermark still advances — conservatively, so
    /// a cycle right after a fault is never quiescence-skipped. Returns how
    /// many slots were dropped. A later [`Startd::advertise`](crate::Startd)
    /// re-registers the node from scratch, into its old run.
    pub fn invalidate_node(&mut self, node: u32) -> usize {
        let pi = self.part_of(node);
        let mut dropped = 0;
        for p in self.parts[pi].run(node) {
            let entry = &mut self.parts[pi].slots[p];
            let Some(status) = entry.status.take() else {
                continue;
            };
            entry.stamp = 0;
            let id = entry.id;
            self.unindex(id, &status);
            dropped += 1;
        }
        if dropped > 0 {
            self.seq += 1;
            let part = &mut self.parts[pi];
            part.live -= dropped;
            part.watermark = self.seq;
            part.compact_log_if_over();
        }
        dropped
    }

    /// Slots belonging to `node`.
    pub fn node_slots(&self, node: u32) -> Vec<SlotId> {
        let part = &self.parts[self.part_of(node)];
        part.slots[part.run(node)]
            .iter()
            .filter(|e| e.status.is_some())
            .map(|e| e.id)
            .collect()
    }

    /// Number of registered slots.
    pub(crate) fn len(&self) -> usize {
        self.parts.iter().map(|p| p.live).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(n: u32, s: u32) -> SlotId {
        SlotId { node: n, slot: s }
    }

    fn slot_ad(id: SlotId, free_mem: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert(attrs::NAME, id.name());
        ad.insert(attrs::MACHINE, format!("node{}", id.node));
        ad.insert(attrs::PHI_FREE_MEMORY, free_mem);
        ad
    }

    #[test]
    fn slot_names_match_condor_convention() {
        assert_eq!(slot(3, 1).name(), "slot1@node3");
        assert_eq!(slot(3, 1).to_string(), "slot1@node3");
    }

    #[test]
    fn advertise_and_claim() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), ClassAd::new());
        c.advertise(slot(1, 2), ClassAd::new());
        assert_eq!(c.len(), 2);
        assert!(c.claim(slot(1, 1)));
        assert!(!c.claim(slot(1, 1))); // double claim fails
        assert_eq!(c.unclaimed(), vec![slot(1, 2)]);
        c.release(slot(1, 1));
        assert_eq!(c.unclaimed().len(), 2);
    }

    #[test]
    fn refresh_preserves_claim_state() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), ClassAd::new());
        c.claim(slot(1, 1));
        let mut ad = ClassAd::new();
        ad.insert("PhiFreeMemory", 4096u64);
        c.advertise(slot(1, 1), ad);
        assert!(c.get(slot(1, 1)).unwrap().claimed);
        assert!(c.get(slot(1, 1)).unwrap().ad.get("PhiFreeMemory").is_some());
    }

    #[test]
    fn node_slots_filters_by_node() {
        let mut c = Collector::new();
        for n in 1..=2 {
            for s in 1..=3 {
                c.advertise(slot(n, s), ClassAd::new());
            }
        }
        assert_eq!(c.node_slots(2), vec![slot(2, 1), slot(2, 2), slot(2, 3)]);
    }

    #[test]
    fn invalidate_node_drops_slots_and_indexes() {
        let mut c = Collector::new();
        for n in 1..=2 {
            for s in 1..=2 {
                c.advertise(slot(n, s), slot_ad(slot(n, s), 4096));
            }
        }
        c.claim(slot(1, 1)); // claimed slots vanish too
        assert_eq!(c.invalidate_node(1), 2);
        assert!(c.node_slots(1).is_empty());
        assert_eq!(c.len(), 2);
        // Every index forgot the node: name, machine, and free-memory scans
        // only see the survivor.
        assert_eq!(c.slot_by_name("slot1@node1"), None);
        assert!(c.slots_on_machine("node1").is_empty());
        assert!(c.unclaimed_with_free_mem_at_least(0.0).all(|s| s.node == 2));
        // Idempotent, and releasing a vanished claim is a no-op.
        assert_eq!(c.invalidate_node(1), 0);
        c.release(slot(1, 1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut c = Collector::new();
        c.advertise(slot(2, 1), ClassAd::new());
        c.advertise(slot(1, 2), ClassAd::new());
        c.advertise(slot(1, 1), ClassAd::new());
        let order: Vec<SlotId> = c.slots().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![slot(1, 1), slot(1, 2), slot(2, 1)]);
    }

    #[test]
    fn name_index_finds_slots_case_insensitively() {
        let mut c = Collector::new();
        c.advertise(slot(3, 2), slot_ad(slot(3, 2), 7680));
        assert_eq!(c.slot_by_name("SLOT2@NODE3"), Some(slot(3, 2)));
        assert_eq!(c.slot_by_name("slot9@node9"), None);
    }

    #[test]
    fn machine_index_lists_node_slots_in_order() {
        let mut c = Collector::new();
        for s in [2, 1, 3] {
            c.advertise(slot(4, s), slot_ad(slot(4, s), 1000));
        }
        assert_eq!(
            c.slots_on_machine("Node4"),
            &[slot(4, 1), slot(4, 2), slot(4, 3)]
        );
        assert!(c.slots_on_machine("node9").is_empty());
    }

    #[test]
    fn free_mem_index_answers_range_queries() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 512));
        c.advertise(slot(1, 2), slot_ad(slot(1, 2), 3000));
        c.advertise(slot(2, 1), slot_ad(slot(2, 1), 7680));
        // A slot without numeric free memory never appears in the index.
        c.advertise(slot(2, 2), ClassAd::new());

        let at_least = |b: f64| -> Vec<SlotId> { c.unclaimed_with_free_mem_at_least(b).collect() };
        assert_eq!(at_least(0.0).len(), 3);
        assert_eq!(at_least(1000.0), vec![slot(1, 2), slot(2, 1)]);
        assert_eq!(at_least(3000.0), vec![slot(1, 2), slot(2, 1)]); // inclusive
        assert_eq!(at_least(8000.0), Vec::<SlotId>::new());
    }

    #[test]
    fn claim_and_release_maintain_free_mem_index() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 7680));
        c.claim(slot(1, 1));
        assert_eq!(c.unclaimed_with_free_mem_at_least(0.0).count(), 0);
        c.release(slot(1, 1));
        assert_eq!(c.unclaimed_with_free_mem_at_least(0.0).count(), 1);
    }

    #[test]
    fn set_int_attr_updates_ad_meta_and_index() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 7680));
        c.set_int_attr(slot(1, 1), attrs::PHI_FREE_MEMORY, 4000);
        assert_eq!(
            c.get(slot(1, 1)).unwrap().ad.get(attrs::PHI_FREE_MEMORY),
            Some(&phishare_classad::Value::Int(4000))
        );
        assert_eq!(c.unclaimed_with_free_mem_at_least(5000.0).count(), 0);
        assert_eq!(
            c.unclaimed_with_free_mem_at_least(4000.0)
                .collect::<Vec<_>>(),
            vec![slot(1, 1)]
        );
        // Attributes without a registered index leave it untouched.
        c.set_int_attr(slot(1, 1), "SomeOtherAttr", 1);
        assert_eq!(c.unclaimed_with_free_mem_at_least(4000.0).count(), 1);
    }

    #[test]
    fn re_advertise_rebuilds_indexes() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 512));
        // Refresh with different name and more memory.
        let mut ad = ClassAd::new();
        ad.insert(attrs::NAME, "renamed@node1");
        ad.insert(attrs::PHI_FREE_MEMORY, 6000i64);
        c.advertise(slot(1, 1), ad);
        assert_eq!(c.slot_by_name("slot1@node1"), None);
        assert_eq!(c.slot_by_name("renamed@node1"), Some(slot(1, 1)));
        assert_eq!(
            c.unclaimed_with_free_mem_at_least(1000.0)
                .collect::<Vec<_>>(),
            vec![slot(1, 1)]
        );
    }

    #[test]
    fn generic_guard_indexes_register_and_answer_range_queries() {
        let mut c = Collector::new();
        for (i, gpus) in [(1, 0i64), (2, 2), (3, 4)] {
            let mut ad = slot_ad(slot(i, 1), 1000);
            ad.insert("GpuCount", gpus);
            c.advertise(slot(i, 1), ad);
        }
        // Registration after the fact walks existing slots.
        let idx = c.ensure_attr_index("GpuCount").unwrap();
        assert_eq!(c.attr_index("gpucount"), Some(idx));
        // Idempotent.
        assert_eq!(c.ensure_attr_index("GPUCOUNT"), Some(idx));
        let at_least =
            |c: &Collector, b: f64| -> Vec<SlotId> { c.indexed_range_at_least(idx, b).collect() };
        assert_eq!(at_least(&c, 1.0), vec![slot(2, 1), slot(3, 1)]);

        // Claims, releases, decrements, and re-advertisements all maintain
        // the registered index.
        c.claim(slot(3, 1));
        assert_eq!(at_least(&c, 1.0), vec![slot(2, 1)]);
        c.release(slot(3, 1));
        c.set_int_attr(slot(3, 1), "gpucount", 1);
        assert_eq!(at_least(&c, 2.0), vec![slot(2, 1)]);
        c.advertise(slot(2, 1), slot_ad(slot(2, 1), 1000)); // drops GpuCount
        assert_eq!(at_least(&c, 0.0), vec![slot(1, 1), slot(3, 1)]);
    }

    #[test]
    fn absent_attribute_yields_an_empty_index() {
        let mut c = Collector::new();
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 1000));
        let idx = c.ensure_attr_index("NoSuchAttribute").unwrap();
        assert_eq!(c.indexed_range_at_least(idx, f64::MIN).count(), 0);
    }

    #[test]
    fn index_registration_is_capped() {
        let mut c = Collector::new();
        let mut registered = 2; // the two pre-registered Phi indexes
        for i in 0.. {
            match c.ensure_attr_index(&format!("attr{i}")) {
                Some(_) => registered += 1,
                None => break,
            }
        }
        assert_eq!(registered, MAX_ATTR_INDEXES);
        // Refused attributes stay unregistered; known ones still resolve.
        assert_eq!(c.attr_index("attr999"), None);
        assert_eq!(c.attr_index(attrs::PHI_FREE_MEMORY), Some(0));
    }

    #[test]
    fn equality_ignores_index_registration_and_mutation_counters() {
        let mut a = Collector::new();
        let mut b = Collector::new();
        a.advertise(slot(1, 1), slot_ad(slot(1, 1), 1000));
        // b reaches the same observable state along a noisier path.
        b.advertise(slot(1, 1), slot_ad(slot(1, 1), 512));
        b.ensure_attr_index("SomethingElse").unwrap();
        b.set_int_attr(slot(1, 1), attrs::PHI_FREE_MEMORY, 1000);
        assert_eq!(a, b);
        b.claim(slot(1, 1));
        assert_ne!(a, b);
    }

    #[test]
    fn dirty_stamps_track_match_relevant_mutations_only() {
        let mut c = Collector::new();
        let s0 = c.seq();
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 7680));
        c.advertise(slot(1, 2), slot_ad(slot(1, 2), 7680));
        assert_eq!(c.dirty_since(s0).count(), 2);

        // Claims are not dirtying (they only remove candidates)...
        let s1 = c.seq();
        assert!(c.claim(slot(1, 1)));
        assert_eq!(c.dirty_since(s1).count(), 0);
        assert!(!c.dirtied_after(slot(1, 1), s1));
        // ...but releases are.
        c.release(slot(1, 1));
        assert_eq!(c.dirty_since(s1).collect::<Vec<_>>(), vec![slot(1, 1)]);

        // In-place decrements dirty the slot; no-op writes do not.
        let s2 = c.seq();
        c.set_int_attr(slot(1, 2), attrs::PHI_FREE_MEMORY, 4000);
        c.set_int_attr(slot(1, 2), attrs::PHI_FREE_MEMORY, 4000);
        c.refresh_phi_availability(slot(1, 1), 7680, 1); // mem unchanged, devices new
        assert_eq!(
            c.dirty_since(s2).collect::<Vec<_>>(),
            vec![slot(1, 2), slot(1, 1)]
        );

        // Each slot appears once, at its latest stamp.
        c.set_int_attr(slot(1, 2), attrs::PHI_FREE_MEMORY, 3000);
        assert_eq!(c.dirty_since(s0).count(), 2);
        assert_eq!(c.dirty_since(s2).last(), Some(slot(1, 2)));

        // Invalidation clears the node's dirty entries outright.
        c.invalidate_node(1);
        assert_eq!(c.dirty_since(s0).count(), 0);
    }

    #[test]
    fn machine_requirements_are_counted_through_every_mutation() {
        let mut c = Collector::with_partitions(2);
        let guarded = |id: SlotId| {
            let mut ad = slot_ad(id, 4096);
            ad.insert_expr("Requirements", "TARGET.RequestPhiMemory <= 3000")
                .unwrap();
            ad
        };
        c.advertise(slot(1, 1), guarded(slot(1, 1)));
        c.advertise(slot(1, 2), guarded(slot(1, 2)));
        c.advertise(slot(2, 1), slot_ad(slot(2, 1), 4096));
        assert_eq!(c.slots_with_requirements(), 2);
        // Claims, releases and attribute writes leave the count alone.
        c.claim(slot(1, 1));
        c.release(slot(1, 1));
        c.set_int_attr(slot(1, 2), attrs::PHI_FREE_MEMORY, 100);
        assert_eq!(c.slots_with_requirements(), 2);
        // Re-advertising replaces the old ad's contribution.
        c.advertise(slot(1, 2), slot_ad(slot(1, 2), 4096));
        c.advertise(slot(2, 1), guarded(slot(2, 1)));
        assert_eq!(c.slots_with_requirements(), 2);
        c.invalidate_node(1);
        assert_eq!(c.slots_with_requirements(), 1);
        c.invalidate_node(2);
        assert_eq!(c.slots_with_requirements(), 0);
    }

    #[test]
    fn refresh_equals_full_readvertise_under_generic_indexes() {
        let mut c = Collector::new();
        assert!(!c.refresh_phi_availability(slot(1, 1), 100, 1));
        c.advertise(
            slot(1, 1),
            crate::attrs::machine_ad("slot1@node1", "node1", 1, 8192, 7680, 1),
        );
        assert!(c.refresh_phi_availability(slot(1, 1), 512, 0));
        let mut full = Collector::new();
        full.advertise(
            slot(1, 1),
            crate::attrs::machine_ad("slot1@node1", "node1", 1, 8192, 512, 0),
        );
        assert_eq!(c, full);
        // The PhiDevicesFree index reflects the refresh too.
        let idx = c.attr_index(attrs::PHI_DEVICES_FREE).unwrap();
        assert_eq!(c.indexed_range_at_least(idx, 1.0).count(), 0);
        assert_eq!(c.indexed_range_at_least(idx, 0.0).count(), 1);
    }

    // --- partition-specific behaviour ---

    /// A pool spread over several nodes so every partition of a P-way
    /// collector owns some slots.
    fn spread_pool(c: &mut Collector) {
        for n in 1..=7 {
            for s in 1..=2 {
                c.advertise(slot(n, s), slot_ad(slot(n, s), (n * 1000 + s) as i64));
            }
        }
    }

    #[test]
    fn partition_count_is_clamped_and_reported() {
        assert_eq!(Collector::new().partitions(), 1);
        assert_eq!(Collector::with_partitions(0).partitions(), 1);
        assert_eq!(Collector::with_partitions(3).partitions(), 3);
        assert_eq!(Collector::with_partitions(999).partitions(), MAX_PARTITIONS);
    }

    #[test]
    fn partitioned_enumeration_matches_unpartitioned() {
        let mut one = Collector::new();
        let mut many = Collector::with_partitions(3);
        spread_pool(&mut one);
        spread_pool(&mut many);
        // Same slot enumeration, unclaimed scan, and range-query order.
        assert_eq!(one, many);
        assert_eq!(one.unclaimed(), many.unclaimed());
        assert_eq!(
            one.unclaimed_with_free_mem_at_least(3000.0)
                .collect::<Vec<_>>(),
            many.unclaimed_with_free_mem_at_least(3000.0)
                .collect::<Vec<_>>(),
        );
        // Claims and point lookups route to the right partition.
        assert!(many.claim(slot(5, 1)));
        assert!(many.get(slot(5, 1)).unwrap().claimed);
        one.claim(slot(5, 1));
        assert_eq!(one, many);
        assert_eq!(one.node_slots(5), many.node_slots(5));
        assert_eq!(one.len(), many.len());
    }

    #[test]
    fn partitioned_dirty_order_is_global_stamp_order() {
        let mut c = Collector::with_partitions(4);
        spread_pool(&mut c);
        let s0 = c.seq();
        // Dirty slots across partitions in an interleaved order; the merged
        // view must replay exactly that order.
        let touched = [slot(3, 1), slot(1, 2), slot(6, 1), slot(2, 2), slot(3, 2)];
        for (i, id) in touched.iter().enumerate() {
            c.set_int_attr(*id, attrs::PHI_FREE_MEMORY, 100 + i as i64);
        }
        assert_eq!(c.dirty_since(s0).collect::<Vec<_>>(), touched);
        // Per-partition views shard the same set disjointly.
        let mut sharded: Vec<SlotId> = (0..c.partitions())
            .flat_map(|pi| {
                c.partition_dirty_entries_since(pi, s0)
                    .map(|(_, slot)| slot)
            })
            .collect();
        sharded.sort();
        let mut all: Vec<SlotId> = c.dirty_since(s0).collect();
        all.sort();
        assert_eq!(sharded, all);
    }

    #[test]
    fn watermarks_advance_on_dirt_and_invalidation_only() {
        let mut c = Collector::with_partitions(2);
        assert_eq!(c.max_watermark(), 0);
        c.advertise(slot(1, 1), slot_ad(slot(1, 1), 4096));
        assert_eq!(c.max_watermark(), c.seq());
        // Claims are not dirtying, so the watermark holds still...
        let w = c.max_watermark();
        assert!(c.claim(slot(1, 1)));
        assert_eq!(c.max_watermark(), w);
        // ...while releases and decrements advance it.
        c.release(slot(1, 1));
        assert!(c.max_watermark() > w);
        // Invalidation leaves no dirty entry but still advances the
        // watermark: post-fault cycles must never look quiescent.
        let w = c.max_watermark();
        assert_eq!(c.invalidate_node(1), 1);
        assert_eq!(c.dirty_since(0).count(), 0);
        assert!(c.max_watermark() > w);
        // Invalidating an empty node is a true no-op.
        let w = c.max_watermark();
        assert_eq!(c.invalidate_node(1), 0);
        assert_eq!(c.max_watermark(), w);
    }

    #[test]
    fn partition_range_queries_shard_the_global_range() {
        let mut c = Collector::with_partitions(3);
        spread_pool(&mut c);
        let mut sharded: Vec<SlotId> = (0..c.partitions())
            .flat_map(|pi| {
                c.partition_indexed_range_at_least(pi, FREE_MEM_IDX, 3000.0)
                    .collect::<Vec<_>>()
            })
            .collect();
        sharded.sort();
        let mut all: Vec<SlotId> = c.unclaimed_with_free_mem_at_least(3000.0).collect();
        all.sort();
        assert_eq!(sharded, all);
        // Unclaimed scans shard likewise.
        let sharded: usize = (0..c.partitions())
            .map(|pi| c.partition_unclaimed_iter(pi).count())
            .sum();
        assert_eq!(sharded, c.unclaimed_iter().count());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn slot_status_does_not_grow() {
        // The 10^5-slot pool holds one per slot; the Phi exactness flags
        // live in existing padding.
        assert!(std::mem::size_of::<SlotStatus>() <= 136);
    }

    #[test]
    fn node_write_stamps_each_changed_slot_once() {
        let mut c = Collector::with_partitions(2);
        for s in 1..=3 {
            c.advertise(
                slot(1, s),
                attrs::machine_ad(&slot(1, s).name(), "node1", 1, 8192, 7680, 1),
            );
        }
        c.advertise(slot(2, 1), slot_ad(slot(2, 1), 7680));
        c.set_int_attr(slot(1, 2), attrs::PHI_FREE_MEMORY, 512);
        // Slot 2 already holds 512, so only slots 1 and 3 change — each in
        // both attributes, each stamped once.
        let s0 = c.seq();
        let mut seen = Vec::new();
        let n = c.update_node_phi(1, |cur| {
            seen.push(cur);
            [Some(512), cur[1].map(|d| d - 1)]
        });
        assert_eq!(n, 3);
        assert_eq!(
            seen,
            [
                [Some(7680), Some(1)],
                [Some(512), Some(1)],
                [Some(7680), Some(1)]
            ]
        );
        assert_eq!(c.seq(), s0 + 3);
        assert_eq!(
            c.dirty_since(s0).collect::<Vec<_>>(),
            [slot(1, 1), slot(1, 2), slot(1, 3)]
        );
        assert_eq!(c.max_watermark(), c.seq());
        // A write that changes nothing is no write at all.
        let s1 = c.seq();
        assert_eq!(c.update_node_phi(1, |_| [Some(512), None]), 3);
        assert_eq!(c.seq(), s1);
        // A node without slots reports none.
        assert_eq!(c.update_node_phi(9, |_| [Some(1), Some(1)]), 0);
        assert_eq!(c.seq(), s1);
    }

    #[test]
    fn node_write_reads_non_int_and_huge_values_exactly() {
        let huge = (1i64 << 53) + 1;
        let mut c = Collector::new();
        let mut real = ClassAd::new();
        real.insert(attrs::PHI_FREE_MEMORY, 512.0);
        c.advertise(slot(1, 1), real);
        c.advertise(slot(1, 2), ClassAd::new());
        c.advertise(slot(1, 3), slot_ad(slot(1, 3), huge));
        let mut seen = Vec::new();
        c.update_node_phi(1, |cur| {
            seen.push(cur[0]);
            [cur[0].map(|v| v - 1), None]
        });
        assert_eq!(seen, [None, None, Some(huge)]);
        let ad = |s| &c.get(slot(1, s)).unwrap().ad;
        assert_eq!(
            ad(1).get(attrs::PHI_FREE_MEMORY),
            Some(&Value::Float(512.0))
        );
        assert_eq!(ad(2).get(attrs::PHI_FREE_MEMORY), None);
        assert_eq!(
            ad(3).get(attrs::PHI_FREE_MEMORY),
            Some(&Value::Int(huge - 1))
        );
        // The written value's f64 key is inexact too; the next read still
        // sees the ad's integer.
        let mut after = Vec::new();
        c.update_node_phi(1, |cur| {
            after.push(cur[0]);
            [None, None]
        });
        assert_eq!(after[2], Some(huge - 1));
    }

    /// The node write against its specification: a plain per-slot loop
    /// with [`Collector::set_int_attr`]'s semantics, one write per
    /// attribute, reading each slot's current values from the ad. The
    /// spec's write re-advertises the edited ad, so its meta and guard
    /// indexes are rebuilt from scratch rather than by the code under test.
    mod node_write_spec {
        use super::*;
        use proptest::prelude::*;

        /// A Phi attribute value as advertised: small or huge `Int`s,
        /// `Float`s, or absent.
        fn arb_value() -> impl Strategy<Value = Option<Value>> {
            prop_oneof![
                4 => prop::sample::select(vec![0i64, 1, 2, 512, 3000, 7680])
                    .prop_map(|v| Some(Value::Int(v))),
                1 => prop::sample::select(vec![
                    (1i64 << 53) + 1,
                    (1 << 60) + 3,
                    -(1 << 53) - 1,
                    i64::MAX,
                ])
                .prop_map(|v| Some(Value::Int(v))),
                1 => prop::sample::select(vec![512.0, 0.5, -3.0, 1e300])
                    .prop_map(|v| Some(Value::Float(v))),
                1 => Just(None),
            ]
        }

        fn arb_written() -> impl Strategy<Value = Option<i64>> {
            prop_oneof![
                3 => prop::sample::select(vec![0i64, 1, 512, 3000, 7680]).prop_map(Some),
                1 => prop::sample::select(vec![(1i64 << 53) + 1, (1 << 60) + 3, i64::MAX])
                    .prop_map(Some),
                1 => Just(None),
            ]
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// A startd refresh: absolute values (`None` leaves one alone).
            Set {
                node: u32,
                values: [Option<i64>; 2],
            },
            /// The negotiator's commit: decrement by `mem`, and a device
            /// when `exclusive`.
            Commit {
                node: u32,
                mem: i64,
                exclusive: bool,
            },
            /// A completion handing resources back.
            Give {
                node: u32,
                mem: i64,
                exclusive: bool,
            },
            /// One slot refreshed on its own (non-uniform nodes).
            RefreshSlot {
                node: u32,
                slot: u32,
                mem: u64,
                devs: u32,
            },
            Claim {
                node: u32,
                slot: u32,
            },
            Release {
                node: u32,
                slot: u32,
            },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let node = 1u32..=6;
            let mem = prop::sample::select(vec![0i64, 512, 3000]);
            prop_oneof![
                (node.clone(), arb_written(), arb_written()).prop_map(|(node, a, b)| Op::Set {
                    node,
                    values: [a, b]
                }),
                (node.clone(), mem.clone(), any::<bool>()).prop_map(|(node, mem, exclusive)| {
                    Op::Commit {
                        node,
                        mem,
                        exclusive,
                    }
                }),
                (node.clone(), mem, any::<bool>()).prop_map(|(node, mem, exclusive)| Op::Give {
                    node,
                    mem,
                    exclusive
                }),
                (
                    node.clone(),
                    1u32..=4,
                    prop::sample::select(vec![0u64, 512, 7680]),
                    0u32..=2
                )
                    .prop_map(|(node, slot, mem, devs)| Op::RefreshSlot {
                        node,
                        slot,
                        mem,
                        devs
                    }),
                (node.clone(), 1u32..=4).prop_map(|(node, slot)| Op::Claim { node, slot }),
                (node, 1u32..=4).prop_map(|(node, slot)| Op::Release { node, slot }),
            ]
        }

        /// The `f` each node-write op applies to a slot's current values.
        fn op_values(op: &Op, cur: [Option<i64>; 2]) -> [Option<i64>; 2] {
            match *op {
                Op::Set { values, .. } => values,
                Op::Commit { mem, exclusive, .. } => [
                    cur[0].map(|v| (v - mem).max(0)),
                    cur[1].filter(|_| exclusive).map(|v| (v - 1).max(0)),
                ],
                Op::Give { mem, exclusive, .. } => [
                    Some(cur[0].unwrap_or(0).saturating_add(mem).max(0)),
                    Some(cur[1].unwrap_or(0).saturating_add(i64::from(exclusive))),
                ],
                _ => unreachable!("not a node write"),
            }
        }

        fn ad_int(ad: &ClassAd, name: &str) -> Option<i64> {
            match ad.get(name) {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            }
        }

        /// [`Collector::set_int_attr`] by re-advertisement: a no-op when
        /// the ad already holds `Int(value)`, else one dirty stamp.
        fn spec_set(spec: &mut Collector, id: SlotId, name: &str, value: i64) {
            let Some(status) = spec.get(id) else {
                return;
            };
            if status.ad.get(name) == Some(&Value::Int(value)) {
                return;
            }
            let mut ad = status.ad.clone();
            ad.insert(name, value);
            spec.advertise(id, ad);
        }

        /// Apply `op` to the pair: `fast` through the node write, `spec`
        /// through per-slot [`spec_set`] calls.
        fn apply(op: &Op, fast: &mut Collector, spec: &mut Collector) {
            match *op {
                Op::Set { node, .. } | Op::Commit { node, .. } | Op::Give { node, .. } => {
                    let visited = fast.update_node_phi(node, |cur| op_values(op, cur));
                    let ids = spec.node_slots(node);
                    assert_eq!(visited, ids.len());
                    for id in ids {
                        let ad = &spec.get(id).expect("listed slot").ad;
                        let cur = [
                            ad_int(ad, attrs::PHI_FREE_MEMORY),
                            ad_int(ad, attrs::PHI_DEVICES_FREE),
                        ];
                        let names = [attrs::PHI_FREE_MEMORY, attrs::PHI_DEVICES_FREE];
                        for (name, new) in names.into_iter().zip(op_values(op, cur)) {
                            if let Some(v) = new {
                                spec_set(spec, id, name, v);
                            }
                        }
                    }
                }
                Op::RefreshSlot {
                    node,
                    slot: s,
                    mem,
                    devs,
                } => {
                    let id = slot(node, s);
                    let known = fast.refresh_phi_availability(id, mem, devs);
                    assert_eq!(known, spec.get(id).is_some());
                    spec_set(spec, id, attrs::PHI_FREE_MEMORY, mem as i64);
                    spec_set(spec, id, attrs::PHI_DEVICES_FREE, i64::from(devs));
                }
                Op::Claim { node, slot: s } => {
                    assert_eq!(fast.claim(slot(node, s)), spec.claim(slot(node, s)));
                }
                Op::Release { node, slot: s } => {
                    fast.release(slot(node, s));
                    spec.release(slot(node, s));
                }
            }
        }

        /// Everything observable about the pair agrees, and every
        /// certificate taken so far (`certs`, one sequence number per
        /// collector) decides the same way on both.
        fn assert_agree(fast: &Collector, spec: &Collector, certs: &[(u64, u64)]) {
            assert!(fast == spec, "authoritative state differs");
            assert_eq!(fast.indexed_attrs, spec.indexed_attrs);
            for (pf, ps) in fast.parts.iter().zip(&spec.parts) {
                assert_eq!(pf.by_attr, ps.by_attr, "guard indexes differ");
            }
            for (id, status) in fast.slots() {
                let fresh = SlotMeta::from_ad(&status.ad, &fast.indexed_attrs);
                assert_eq!(status.meta.indexed_vals, fresh.indexed_vals, "{id}");
                assert_eq!(status.meta.phi_exact, fresh.phi_exact, "{id}");
            }
            let order = |c: &Collector| c.dirty_since(0).collect::<Vec<_>>();
            assert_eq!(order(fast), order(spec), "dirty order differs");
            for &(cf, cs) in certs {
                assert_eq!(cf >= fast.seq(), cs >= spec.seq());
                assert_eq!(fast.max_watermark() <= cf, spec.max_watermark() <= cs);
                assert_eq!(
                    fast.dirty_since(cf).collect::<Vec<_>>(),
                    spec.dirty_since(cs).collect::<Vec<_>>()
                );
                for (pi, (pf, ps)) in fast.parts.iter().zip(&spec.parts).enumerate() {
                    assert_eq!(pf.watermark <= cf, ps.watermark <= cs, "partition {pi}");
                    assert_eq!(
                        fast.partition_dirty_entries_since(pi, cf)
                            .map(|(_, id)| id)
                            .collect::<Vec<_>>(),
                        spec.partition_dirty_entries_since(pi, cs)
                            .map(|(_, id)| id)
                            .collect::<Vec<_>>()
                    );
                }
                for (id, _) in fast.slots() {
                    assert_eq!(fast.dirtied_after(*id, cf), spec.dirtied_after(*id, cs));
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn node_write_equals_per_slot_reference(
                parts in 1usize..=4,
                nodes in prop::collection::vec(
                    prop::collection::vec(
                        (arb_value(), arb_value(), 0i64..4, any::<bool>()),
                        1..=4,
                    ),
                    1..=6,
                ),
                extra_indexes in prop::sample::select(vec![0usize, 1, 2]),
                ops in prop::collection::vec(arb_op(), 1..=24),
            ) {
                let build = || {
                    let mut c = Collector::with_partitions(parts);
                    for (n, slots) in nodes.iter().enumerate() {
                        let n = n as u32 + 1;
                        // Per slot: its two Phi values, an extra
                        // guard-indexed attribute, and whether it starts
                        // claimed.
                        for (s, (mem, devs, drives, claimed)) in slots.iter().enumerate() {
                            let id = slot(n, s as u32 + 1);
                            let mut ad = ClassAd::new();
                            ad.insert(attrs::NAME, id.name());
                            ad.insert(attrs::MACHINE, format!("node{n}"));
                            ad.insert("TapeDrives", *drives);
                            for (name, v) in [(attrs::PHI_FREE_MEMORY, mem), (attrs::PHI_DEVICES_FREE, devs)] {
                                if let Some(v) = v {
                                    ad.insert(name, v.clone());
                                }
                            }
                            c.advertise(id, ad);
                            if *claimed {
                                c.claim(id);
                            }
                        }
                    }
                    // Guards registered over the Phi values' neighbours
                    // (and one no slot advertises) shift nothing.
                    for attr in ["TapeDrives", "NoSuchAttribute"].iter().take(extra_indexes) {
                        c.ensure_attr_index(attr).expect("below the cap");
                    }
                    c
                };
                let (mut fast, mut spec) = (build(), build());
                let mut certs = vec![(fast.seq(), spec.seq())];
                for op in &ops {
                    apply(op, &mut fast, &mut spec);
                    assert_agree(&fast, &spec, &certs);
                    certs.push((fast.seq(), spec.seq()));
                }
            }
        }
    }

    #[test]
    fn slot_table_serves_sparse_uneven_and_out_of_order_nodes() {
        let mut c = Collector::with_partitions(2);
        // Sparse node ids, one to three slots each, advertised out of
        // order: node 7's run grows after node 9's, so node 9's shifts.
        let order = [
            slot(9, 2),
            slot(7, 3),
            slot(u32::MAX, 1),
            slot(9, 1),
            slot(7, 1),
            slot(1_000_001, 5),
            slot(7, 2),
        ];
        for (i, id) in order.iter().enumerate() {
            c.advertise(*id, slot_ad(*id, 100 * i as i64));
        }
        let mut sorted = order;
        sorted.sort();
        assert_eq!(c.slots().map(|(id, _)| *id).collect::<Vec<_>>(), sorted);
        assert_eq!(c.node_slots(7), [slot(7, 1), slot(7, 2), slot(7, 3)]);
        assert_eq!(c.node_slots(u32::MAX), [slot(u32::MAX, 1)]);
        for (i, id) in order.iter().enumerate() {
            assert_eq!(
                c.get(*id).unwrap().meta.indexed_vals[0],
                Some(100.0 * i as f64)
            );
        }
        assert!(c.get(slot(7, 4)).is_none());
        assert!(c.get(slot(8, 1)).is_none());
        assert_eq!(c.update_node_phi(7, |_| [Some(1), None]), 3);
        assert_eq!(c.dirty_since(0).count(), order.len());
    }

    #[test]
    fn invalidation_shifts_no_slot_and_re_advertising_refills_the_run() {
        let mut c = Collector::with_partitions(2);
        for n in 1..=6 {
            for s in 1..=n {
                c.advertise(slot(n, s), slot_ad(slot(n, s), 7680));
            }
        }
        let positions = |c: &Collector| -> Vec<(SlotId, Option<usize>)> {
            (1..=6)
                .flat_map(|n| (1..=n).map(move |s| slot(n, s)))
                .map(|id| (id, c.parts[c.part_of(id.node)].position(id)))
                .collect()
        };
        let before = positions(&c);
        let s0 = c.seq();
        assert_eq!(c.invalidate_node(3), 3);
        // Every slot keeps its position; node 3's are vacant.
        assert_eq!(positions(&c), before);
        assert!(c.node_slots(3).is_empty());
        assert!(c.get(slot(3, 2)).is_none());
        assert!(!c.dirtied_after(slot(3, 2), 0));
        assert_eq!(c.update_node_phi(3, |_| [Some(1), Some(1)]), 0);
        // The node comes back into the same run.
        for s in 1..=3 {
            c.advertise(slot(3, s), slot_ad(slot(3, s), 512));
        }
        assert_eq!(positions(&c), before);
        assert_eq!(c.node_slots(3), [slot(3, 1), slot(3, 2), slot(3, 3)]);
        assert_eq!(
            c.dirty_since(s0).collect::<Vec<_>>(),
            [slot(3, 1), slot(3, 2), slot(3, 3)]
        );
        assert_eq!(c.len(), 21);
    }

    #[test]
    fn churned_slot_keeps_the_log_bounded() {
        let mut c = Collector::with_partitions(2);
        spread_pool(&mut c);
        let churned = slot(3, 2);
        let pi = c.part_of(churned.node);
        let s0 = c.seq();
        for i in 0..10_000 {
            c.refresh_phi_availability(churned, 100 + i % 2, 1);
            let part = &c.parts[pi];
            assert!(part.log.len() <= part.log_bound(), "after write {i}");
        }
        // The slot appears once, at its latest stamp.
        assert_eq!(c.dirty_since(s0).collect::<Vec<_>>(), [churned]);
        assert_eq!(
            c.partition_dirty_entries_since(pi, s0).collect::<Vec<_>>(),
            [(c.seq(), churned)]
        );
        assert!(c.dirtied_after(churned, c.seq() - 1));
        assert!(!c.dirtied_after(churned, c.seq()));
    }

    /// Dirty tracking against an independent model: plain maps holding
    /// each live slot's latest stamp, deduplicated, with the collector's
    /// sequence and watermark rules restated. The model never reads the
    /// collector's stamps or log, so a fault in them — a compaction that
    /// drops or keeps the wrong entry, a freed index that keeps its old
    /// stamp, an off-by-one read — shows as a difference.
    mod dirt_spec {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Advertise a slot afresh or again (a claim survives).
            Advertise {
                node: u32,
                slot: u32,
                mem: i64,
            },
            /// A node write of absolute values.
            Set {
                node: u32,
                mem: i64,
                devs: i64,
            },
            /// A node write that takes `mem` off every slot, floored at 0.
            Take {
                node: u32,
                mem: i64,
            },
            /// `rounds` node writes alternating two values: enough restamps
            /// on one node to force compactions.
            Churn {
                node: u32,
                rounds: u32,
            },
            Claim {
                node: u32,
                slot: u32,
            },
            Release {
                node: u32,
                slot: u32,
            },
            Invalidate {
                node: u32,
            },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let node = 1u32..=7;
            let slot = 1u32..=4;
            let mem = prop::sample::select(vec![0i64, 512, 3000, 7680]);
            prop_oneof![
                3 => (node.clone(), slot.clone(), mem.clone())
                    .prop_map(|(node, slot, mem)| Op::Advertise { node, slot, mem }),
                2 => (node.clone(), mem.clone(), 0i64..=2)
                    .prop_map(|(node, mem, devs)| Op::Set { node, mem, devs }),
                2 => (node.clone(), mem).prop_map(|(node, mem)| Op::Take { node, mem }),
                1 => (node.clone(), 1u32..=40).prop_map(|(node, rounds)| Op::Churn { node, rounds }),
                1 => (node.clone(), slot.clone()).prop_map(|(node, slot)| Op::Claim { node, slot }),
                1 => (node.clone(), slot).prop_map(|(node, slot)| Op::Release { node, slot }),
                1 => node.prop_map(|node| Op::Invalidate { node }),
            ]
        }

        #[derive(Debug, Clone, Copy)]
        struct ModelSlot {
            mem: i64,
            devs: i64,
            claimed: bool,
            stamp: u64,
        }

        /// The model: the pool's slots with their Phi values, claim flags
        /// and latest stamps, the sequence counter, one watermark per
        /// partition, and the length each partition's log must have under
        /// the compaction rule ([`Partition::log_bound`]).
        struct Model {
            slots: BTreeMap<SlotId, ModelSlot>,
            seq: u64,
            watermark: Vec<u64>,
            log_len: Vec<usize>,
        }

        impl Model {
            fn new(parts: usize) -> Self {
                Model {
                    slots: BTreeMap::new(),
                    seq: 0,
                    watermark: vec![0; parts],
                    log_len: vec![0; parts],
                }
            }

            fn part(&self, node: u32) -> usize {
                node as usize % self.watermark.len()
            }

            /// Compact partition `pi`'s log when it is over its bound: one
            /// entry per live slot remains (every live slot is stamped).
            fn settle(&mut self, pi: usize) {
                let live = self
                    .slots
                    .keys()
                    .filter(|id| self.part(id.node) == pi)
                    .count();
                if self.log_len[pi] > live + live / SLACK + 1 {
                    self.log_len[pi] = live;
                }
            }

            fn stamp(&mut self, id: SlotId) {
                self.seq += 1;
                let pi = self.part(id.node);
                self.slots.get_mut(&id).expect("live slot").stamp = self.seq;
                self.watermark[pi] = self.seq;
                self.log_len[pi] += 1;
                self.settle(pi);
            }

            /// A node write: `f` maps a slot's values to new ones; each slot
            /// whose values change is stamped once, in slot order.
            fn node_write(&mut self, node: u32, f: impl Fn(i64, i64) -> (i64, i64)) {
                let ids: Vec<SlotId> = self.node_slots(node);
                for id in ids {
                    let s = self.slots[&id];
                    let (mem, devs) = f(s.mem, s.devs);
                    if (mem, devs) != (s.mem, s.devs) {
                        let s = self.slots.get_mut(&id).expect("live slot");
                        (s.mem, s.devs) = (mem, devs);
                        self.stamp(id);
                    }
                }
            }

            fn node_slots(&self, node: u32) -> Vec<SlotId> {
                self.slots
                    .keys()
                    .filter(|id| id.node == node)
                    .copied()
                    .collect()
            }

            fn dirty_since(&self, seq: u64) -> Vec<(u64, SlotId)> {
                let mut dirt: Vec<(u64, SlotId)> = self
                    .slots
                    .iter()
                    .filter(|(_, s)| s.stamp > seq)
                    .map(|(id, s)| (s.stamp, *id))
                    .collect();
                dirt.sort();
                dirt
            }
        }

        fn ad(id: SlotId, mem: i64, devs: i64) -> ClassAd {
            let mut ad = slot_ad(id, mem);
            ad.insert(attrs::PHI_DEVICES_FREE, devs);
            ad
        }

        fn apply(op: &Op, c: &mut Collector, m: &mut Model) {
            match *op {
                Op::Advertise { node, slot: s, mem } => {
                    let id = slot(node, s);
                    let devs = 1;
                    c.advertise(id, ad(id, mem, devs));
                    let claimed = m.slots.get(&id).is_some_and(|s| s.claimed);
                    m.slots.insert(
                        id,
                        ModelSlot {
                            mem,
                            devs,
                            claimed,
                            stamp: 0,
                        },
                    );
                    m.stamp(id);
                }
                Op::Set { node, mem, devs } => {
                    c.update_node_phi(node, |_| [Some(mem), Some(devs)]);
                    m.node_write(node, |_, _| (mem, devs));
                }
                Op::Take { node, mem } => {
                    c.update_node_phi(node, |cur| [cur[0].map(|v| (v - mem).max(0)), None]);
                    m.node_write(node, |v, d| ((v - mem).max(0), d));
                }
                Op::Churn { node, rounds } => {
                    for r in 0..rounds {
                        let mem = 100 + i64::from(r % 2);
                        c.update_node_phi(node, |_| [Some(mem), None]);
                        m.node_write(node, |_, d| (mem, d));
                    }
                }
                Op::Claim { node, slot: s } => {
                    let id = slot(node, s);
                    let free = m.slots.get_mut(&id).filter(|s| !s.claimed);
                    let expect = free.is_some();
                    if let Some(s) = free {
                        s.claimed = true;
                    }
                    assert_eq!(c.claim(id), expect);
                }
                Op::Release { node, slot: s } => {
                    let id = slot(node, s);
                    c.release(id);
                    if let Some(s) = m.slots.get_mut(&id).filter(|s| s.claimed) {
                        s.claimed = false;
                        m.stamp(id);
                    }
                }
                Op::Invalidate { node } => {
                    let ids = m.node_slots(node);
                    assert_eq!(c.invalidate_node(node), ids.len());
                    for id in &ids {
                        m.slots.remove(id);
                    }
                    let pi = m.part(node);
                    if !ids.is_empty() {
                        m.seq += 1;
                        m.watermark[pi] = m.seq;
                    }
                    m.settle(pi);
                }
            }
        }

        /// The slot table lists the model's slots, and every read of the
        /// dirty state agrees with the model at every certificate taken so
        /// far, and for every slot ever advertised.
        fn assert_agree(c: &Collector, m: &Model, certs: &[u64], seen: &BTreeSet<SlotId>) {
            let int = |s: &SlotStatus, name| match s.ad.get(name) {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            };
            let listed: Vec<_> = c
                .slots()
                .map(|(id, s)| {
                    let phi = [attrs::PHI_FREE_MEMORY, attrs::PHI_DEVICES_FREE].map(|a| int(s, a));
                    (*id, s.claimed, phi)
                })
                .collect();
            let want: Vec<_> = m
                .slots
                .iter()
                .map(|(id, s)| (*id, s.claimed, [Some(s.mem), Some(s.devs)]))
                .collect();
            assert_eq!(listed, want, "slot table");
            assert_eq!(c.len(), m.slots.len());
            for node in 1..=7 {
                assert_eq!(c.node_slots(node), m.node_slots(node), "node {node}");
            }
            for id in seen {
                assert_eq!(c.get(*id).is_some(), m.slots.contains_key(id), "{id}");
            }
            assert_eq!(c.seq(), m.seq, "sequence");
            assert_eq!(
                c.max_watermark(),
                m.watermark.iter().copied().max().unwrap_or(0)
            );
            for (pi, part) in c.parts.iter().enumerate() {
                assert_eq!(part.watermark, m.watermark[pi], "watermark of {pi}");
                assert_eq!(part.log.len(), m.log_len[pi], "log length of {pi}");
            }
            for &s in certs {
                let want = m.dirty_since(s);
                let slots = |d: &[(u64, SlotId)]| d.iter().map(|&(_, id)| id).collect::<Vec<_>>();
                assert_eq!(
                    c.dirty_since(s).collect::<Vec<_>>(),
                    slots(&want),
                    "since {s}"
                );
                for pi in 0..c.partitions() {
                    let part: Vec<(u64, SlotId)> = want
                        .iter()
                        .filter(|(_, id)| m.part(id.node) == pi)
                        .copied()
                        .collect();
                    assert_eq!(
                        c.partition_dirty_entries_since(pi, s).collect::<Vec<_>>(),
                        part,
                        "partition {pi} since {s}"
                    );
                }
                for id in seen {
                    let want = m.slots.get(id).is_some_and(|x| x.stamp > s);
                    assert_eq!(c.dirtied_after(*id, s), want, "{id} after {s}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn dirty_tracking_matches_plain_map_model(
                parts in 1usize..=4,
                ops in prop::collection::vec(arb_op(), 1..=48),
            ) {
                let mut c = Collector::with_partitions(parts);
                let mut m = Model::new(c.partitions());
                let mut certs = vec![0];
                let mut seen = BTreeSet::new();
                for op in &ops {
                    apply(op, &mut c, &mut m);
                    seen.extend(m.slots.keys().copied());
                    assert_agree(&c, &m, &certs, &seen);
                    certs.push(c.seq());
                }
            }
        }
    }

    #[test]
    fn partition_threads_override_caps_at_partitions() {
        assert_eq!(partition_threads_override(Some("4"), 8), 4);
        assert_eq!(partition_threads_override(Some("16"), 8), 8);
        // Zero and garbage fall back to host parallelism, still capped.
        let fallback = partition_threads_override(Some("0"), 8);
        assert!((1..=8).contains(&fallback));
        assert!(partition_threads_override(None, 2) <= 2);
        // Unset, the fallback is the cached host parallelism.
        let host = host_parallelism();
        assert!(host >= 1);
        assert_eq!(partition_threads_override(None, usize::MAX), host);
        assert_eq!(host_parallelism(), host);
    }
}
