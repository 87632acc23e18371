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
//!   (see [`Collector::ensure_attr_index`]): unclaimed slots ordered by the
//!   attribute's advertised numeric value, so any compiled
//!   `TARGET.attr >= c` guard becomes a range query instead of a scan.
//!   `PhiFreeMemory` and `PhiDevicesFree` are pre-registered; the
//!   negotiator registers further attributes on demand from the guards it
//!   sees, up to a fixed cap.
//!
//! Indexes are over-approximate by design: a candidate pulled from an index
//! is always re-checked against the full match predicate, so the indexes
//! only need to never *miss* a true match. They are kept coherent by every
//! mutation (`advertise`, `claim`, `release`, `set_int_attr`) — same-cycle
//! resource decrements are visible to the next range query immediately.
//!
//! # Partitions
//!
//! Slot state is split across `P` partitions, assigned deterministically by
//! node id (`node % P`). Each partition owns its *own* slot map, guard
//! indexes, dirty set, and watermark, so the negotiator's delta cycles can
//! register, screen, and pre-commit per partition in parallel — partitions
//! never share mutable state. The global name and machine indexes stay
//! unpartitioned (they answer point queries, not scans), as does the
//! monotone sequence counter, which keeps dirty stamps totally ordered
//! *across* partitions. Every public accessor merges partitions back into
//! the exact enumeration order a single-map collector would produce, so
//! observable behaviour — including [`PartialEq`] — is partition-count
//! invariant. `P = 1` (the default) is the unpartitioned layout.
//!
//! # Dirty tracking
//!
//! The collector also stamps every *match-relevant* mutation with a
//! monotone sequence number ([`Collector::seq`]) and remembers, per slot,
//! the latest stamp ([`Collector::dirty_since`]). This is what the
//! negotiator's delta path builds on: a job certified unmatched against the
//! pool at sequence `s` can only have gained a match through a slot dirtied
//! *after* `s`, because the match predicate depends on nothing but the job
//! ad, the slot ad, and the claim flag. Two deliberate asymmetries keep the
//! set small and exact:
//!
//! * **claims do not mark dirty** — turning `claimed` on only ever removes
//!   a candidate (the negotiator filters claimed slots before the
//!   predicate), so it cannot turn an unmatched job matchable;
//! * **removals clear their entries** — [`Collector::invalidate_node`]
//!   deletes the slots' dirty stamps outright, since a vanished slot cannot
//!   create a match either (the partition watermark still advances, so
//!   post-fault cycles are never quiescence-skipped).
//!
//! Everything else — ad refreshes, in-cycle decrements, releases,
//! re-advertisements — marks the slot dirty, *including* decrements: the
//! predicate is arbitrary (a requirement may test `TARGET.attr < c` or hide
//! inverted logic in a residual expression), so no monotonicity is assumed.
//!
//! Each partition additionally tracks a **watermark**: the sequence number
//! of its latest dirtying mutation (including invalidations). A cycle is
//! provably match-free when every idle job holds an unmatched certificate
//! at least as new as [`Collector::max_watermark`] — the O(1) quiescence
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
use std::ops::Bound;

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
    pub const MIN: SlotId = SlotId { node: 0, slot: 0 };
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
pub const MAX_ATTR_INDEXES: usize = 12;

/// Most partitions a collector will split into. Partitions beyond the host's
/// core count only add merge overhead, and a small fixed cap keeps the merge
/// iterators' per-item cost bounded.
pub const MAX_PARTITIONS: usize = 16;

/// Position of the pre-registered `PhiFreeMemory` guard index.
const FREE_MEM_IDX: usize = Collector::FREE_MEM_INDEX;

/// Parse a `PHISHARE_COLLECTOR_PARTITIONS`-style override. Non-numeric or
/// zero values are ignored; values above [`MAX_PARTITIONS`] are clamped.
pub fn partitions_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_PARTITIONS))
}

/// Partition count used when the configuration does not pin one: the
/// `PHISHARE_COLLECTOR_PARTITIONS` environment override, else 1 (the
/// unpartitioned layout).
pub fn default_partitions() -> usize {
    partitions_override(
        std::env::var("PHISHARE_COLLECTOR_PARTITIONS")
            .ok()
            .as_deref(),
    )
    .unwrap_or(1)
}

/// Parse a `PHISHARE_PARTITION_THREADS`-style override for the number of
/// worker threads partition-parallel phases may use.
pub(crate) fn partition_threads_override(raw: Option<&str>, parts: usize) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(parts)
}

/// Worker threads partition-parallel phases and the negotiator's screen
/// should use: the host's parallelism (overridable via
/// `PHISHARE_PARTITION_THREADS`, mostly so tests can force the threaded
/// path on single-core machines), capped at `parts` units of work. A
/// result of 1 means "stay serial". Public so benches can record the
/// fan-out they actually measured.
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
}

impl SlotMeta {
    fn from_ad(ad: &ClassAd, indexed_attrs: &[String]) -> Self {
        let str_attr = |name: &str| match ad.get(name) {
            Some(Value::Str(s)) => Some(s.to_ascii_lowercase()),
            _ => None,
        };
        SlotMeta {
            name_lc: str_attr(attrs::lc::NAME),
            machine_lc: str_attr(attrs::lc::MACHINE),
            indexed_vals: indexed_attrs.iter().map(|a| numeric_attr(ad, a)).collect(),
            has_requirements: ad.get_expr(attrs::lc::REQUIREMENTS).is_some(),
        }
    }

    /// Whether the slot advertises a machine-side `Requirements`.
    pub fn has_requirements(&self) -> bool {
        self.has_requirements
    }

    /// The slot's advertised free Phi memory, if numeric.
    pub fn free_phi_mem(&self) -> Option<f64> {
        self.indexed_vals.get(FREE_MEM_IDX).copied().flatten()
    }
}

fn numeric_attr(ad: &ClassAd, attr: &str) -> Option<f64> {
    ad.get(attr).and_then(Value::as_f64).filter(|v| !v.is_nan())
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
    slots: BTreeMap<SlotId, SlotStatus>,
    /// One ordered index per registered attribute: unclaimed slots keyed by
    /// the attribute's advertised numeric value (ord-encoded). Parallel to
    /// the collector-wide `indexed_attrs` registration order.
    by_attr: Vec<BTreeSet<(u64, SlotId)>>,
    /// Per-slot latest dirty stamp.
    stamp: BTreeMap<SlotId, u64>,
    /// stamp → slot, deduplicated: each slot appears once, at its latest
    /// stamp, so `|dirty| <= |slots|` and no garbage collection is needed.
    dirty: BTreeMap<u64, SlotId>,
    /// Sequence number of this partition's latest dirtying mutation
    /// (including node invalidations, which leave no dirty entry). Zero
    /// until something dirties the partition.
    watermark: u64,
}

impl Partition {
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
        for (id, status) in self.slots.iter_mut() {
            let val = numeric_attr(&status.ad, canon);
            status.meta.indexed_vals.push(val);
            if !status.claimed {
                if let Some(v) = val {
                    index.insert((ord_f64(v), *id));
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
    pub const FREE_MEM_INDEX: usize = 0;
    /// Position of the pre-registered `PhiDevicesFree` guard index.
    pub const DEVICES_FREE_INDEX: usize = 1;

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
    pub fn part_of(&self, node: u32) -> usize {
        node as usize % self.parts.len()
    }

    /// Stamp `slot` as changed at a fresh sequence number.
    fn mark_dirty(&mut self, slot: SlotId) {
        self.seq += 1;
        let seq = self.seq;
        let pi = self.part_of(slot.node);
        let part = &mut self.parts[pi];
        if let Some(old) = part.stamp.insert(slot, seq) {
            part.dirty.remove(&old);
        }
        part.dirty.insert(seq, slot);
        part.watermark = seq;
    }

    /// The current mutation sequence number. A later call never returns a
    /// smaller value; every match-relevant mutation strictly increases it.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The newest watermark across all partitions: the sequence number of
    /// the latest dirtying mutation anywhere in the pool. A job certified
    /// unmatched at sequence `s >= max_watermark()` provably still has no
    /// match — the O(1) quiescence predicate.
    pub fn max_watermark(&self) -> u64 {
        self.parts.iter().map(|p| p.watermark).max().unwrap_or(0)
    }

    /// Slots dirtied strictly after `seq`, in stamp order, across all
    /// partitions. Together with the claim-flag check this is exactly the
    /// candidate set a job certified unmatched at `seq` needs to re-examine
    /// (module docs).
    pub fn dirty_since(&self, seq: u64) -> impl Iterator<Item = SlotId> + '_ {
        let mut ranges = self
            .parts
            .iter()
            .map(|p| {
                p.dirty
                    .range((Bound::Excluded(seq), Bound::Unbounded))
                    .map(|(s, slot)| (*s, *slot))
            })
            .collect::<Vec<_>>();
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
    /// with a binary search, instead of re-walking the dirty map once per
    /// (job, partition) pair.
    pub fn partition_dirty_entries_since(
        &self,
        pi: usize,
        seq: u64,
    ) -> impl Iterator<Item = (u64, SlotId)> + '_ {
        self.parts[pi]
            .dirty
            .range((Bound::Excluded(seq), Bound::Unbounded))
            .map(|(s, slot)| (*s, *slot))
    }

    /// Whether `slot` was dirtied strictly after `seq`.
    pub fn dirtied_after(&self, slot: SlotId, seq: u64) -> bool {
        self.parts[slot.node as usize % self.parts.len()]
            .stamp
            .get(&slot)
            .is_some_and(|&s| s > seq)
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
    pub fn ensure_attr_index(&mut self, attr: &str) -> Option<usize> {
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
        let pi = self.part_of(slot.node);
        self.parts[pi].index_attrs(slot, status);
    }

    /// Insert or refresh a slot's advertisement. Claim state is preserved on
    /// refresh, all indexes are rebuilt for the slot, and the slot is marked
    /// dirty.
    pub fn advertise(&mut self, slot: SlotId, ad: ClassAd) {
        let pi = self.part_of(slot.node);
        let claimed = match self.parts[pi].slots.remove(&slot) {
            Some(old) => {
                self.unindex(slot, &old);
                old.claimed
            }
            None => false,
        };
        let status = SlotStatus {
            meta: SlotMeta::from_ad(&ad, &self.indexed_attrs),
            ad,
            claimed,
        };
        self.index(slot, &status);
        self.parts[pi].slots.insert(slot, status);
        self.mark_dirty(slot);
    }

    /// Look up a slot.
    pub fn get(&self, slot: SlotId) -> Option<&SlotStatus> {
        self.parts[slot.node as usize % self.parts.len()]
            .slots
            .get(&slot)
    }

    /// Overwrite one integer attribute of a slot's ad (the negotiator's
    /// in-cycle resource decrements), keeping the cached meta and every
    /// guard index coherent and marking the slot dirty. Writes that change
    /// nothing are skipped entirely — the slot stays clean.
    pub fn set_int_attr(&mut self, slot: SlotId, attr: &str, value: i64) {
        let idx = self.attr_index(attr);
        self.set_int_attr_inner(slot, attr, idx, value);
    }

    /// [`Collector::set_int_attr`] for an attribute whose guard-index
    /// position is already known (e.g. [`Collector::FREE_MEM_INDEX`]) —
    /// the commit path's hoisted handle, skipping the per-write scan of
    /// the registered-attribute table.
    pub fn set_int_attr_at(&mut self, slot: SlotId, idx: usize, attr: &str, value: i64) {
        debug_assert_eq!(
            self.attr_index(attr),
            Some(idx),
            "hoisted attr handle out of date"
        );
        self.set_int_attr_inner(slot, attr, Some(idx), value);
    }

    fn set_int_attr_inner(&mut self, slot: SlotId, attr: &str, idx: Option<usize>, value: i64) {
        let pi = self.part_of(slot.node);
        let part = &mut self.parts[pi];
        let Some(status) = part.slots.get_mut(&slot) else {
            return;
        };
        if status.ad.get(attr) == Some(&Value::Int(value)) {
            return;
        }
        status.ad.insert(attr, value);
        if let Some(i) = idx {
            let old = status.meta.indexed_vals[i];
            let new = value as f64;
            status.meta.indexed_vals[i] = Some(new);
            if !status.claimed {
                if let Some(v) = old {
                    part.by_attr[i].remove(&(ord_f64(v), slot));
                }
                part.by_attr[i].insert((ord_f64(new), slot));
            }
        }
        self.mark_dirty(slot);
    }

    /// Refresh the node-level Phi availability attributes of an existing
    /// slot ad in place (`PhiFreeMemory`, `PhiDevicesFree`). Equivalent to
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
        if self.get(slot).is_none() {
            return false;
        }
        self.set_int_attr_at(
            slot,
            Self::FREE_MEM_INDEX,
            attrs::lc::PHI_FREE_MEMORY,
            free_mem_mb as i64,
        );
        self.set_int_attr_at(
            slot,
            Self::DEVICES_FREE_INDEX,
            attrs::lc::PHI_DEVICES_FREE,
            devices_free as i64,
        );
        true
    }

    /// Mark a slot claimed. Returns false if it was already claimed.
    ///
    /// Claiming removes the slot from every guard index but does *not*
    /// mark it dirty: a claim can only remove a candidate, never create a
    /// match (module docs), and keeping claims out of the dirty set is what
    /// makes the delta path's per-cycle candidate sets small.
    pub fn claim(&mut self, slot: SlotId) -> bool {
        let pi = self.part_of(slot.node);
        let part = &mut self.parts[pi];
        match part.slots.get_mut(&slot) {
            Some(s) if !s.claimed => {
                s.claimed = true;
                for (i, val) in s.meta.indexed_vals.iter().enumerate() {
                    if let Some(v) = val {
                        part.by_attr[i].remove(&(ord_f64(*v), slot));
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
        let part = &mut self.parts[pi];
        let Some(s) = part.slots.get_mut(&slot) else {
            return;
        };
        if !s.claimed {
            return;
        }
        s.claimed = false;
        for (i, val) in s.meta.indexed_vals.iter().enumerate() {
            if let Some(v) = val {
                part.by_attr[i].insert((ord_f64(*v), slot));
            }
        }
        self.mark_dirty(slot);
    }

    /// All slots in deterministic (node, slot) order, merged across
    /// partitions.
    pub fn slots(&self) -> impl Iterator<Item = (&SlotId, &SlotStatus)> {
        let mut iters = self
            .parts
            .iter()
            .map(|p| p.slots.iter())
            .collect::<Vec<_>>();
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
    pub fn unclaimed_iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots().filter(|(_, s)| !s.claimed).map(|(id, _)| *id)
    }

    /// Unclaimed slots owned by partition `pi`, in slot order — the
    /// partition-parallel screen's shard of a full scan.
    pub fn partition_unclaimed_iter(&self, pi: usize) -> impl Iterator<Item = SlotId> + '_ {
        self.parts[pi]
            .slots
            .iter()
            .filter(|(_, s)| !s.claimed)
            .map(|(id, _)| *id)
    }

    /// The slot advertising `Name == name` (case-insensitive), if any.
    pub fn slot_by_name(&self, name: &str) -> Option<SlotId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Slots advertising `Machine == machine` (case-insensitive), in
    /// SlotId order.
    pub fn slots_on_machine(&self, machine: &str) -> &[SlotId] {
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
    pub fn partition_indexed_range_at_least(
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
    /// claimed or not — vanish from the collector, all its indexes, and the
    /// dirty set (a removed slot cannot create a match), so a dead startd
    /// stops matching immediately. The owning partition's watermark still
    /// advances — conservatively, so a cycle right after a fault is never
    /// quiescence-skipped. Returns how many slots were dropped. A later
    /// [`Startd::advertise`](crate::Startd) re-registers the node from
    /// scratch.
    pub fn invalidate_node(&mut self, node: u32) -> usize {
        let ids = self.node_slots(node);
        let pi = self.part_of(node);
        for slot in &ids {
            if let Some(status) = self.parts[pi].slots.remove(slot) {
                self.unindex(*slot, &status);
            }
            let part = &mut self.parts[pi];
            if let Some(stamp) = part.stamp.remove(slot) {
                part.dirty.remove(&stamp);
            }
        }
        if !ids.is_empty() {
            self.seq += 1;
            self.parts[pi].watermark = self.seq;
        }
        ids.len()
    }

    /// Slots belonging to `node`.
    pub fn node_slots(&self, node: u32) -> Vec<SlotId> {
        self.parts[self.part_of(node)]
            .slots
            .range(SlotId { node, slot: 0 }..)
            .take_while(|(id, _)| id.node == node)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of registered slots.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.slots.len()).sum()
    }

    /// True when no slots are registered.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.slots.is_empty())
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
        assert_eq!(
            c.get(slot(1, 1)).unwrap().meta().free_phi_mem(),
            Some(4000.0)
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
    fn indexed_attr_writes_match_the_scanning_path() {
        let mut a = Collector::new();
        let mut b = Collector::new();
        for c in [&mut a, &mut b] {
            c.advertise(slot(1, 1), slot_ad(slot(1, 1), 7680));
        }
        a.set_int_attr(slot(1, 1), attrs::lc::PHI_FREE_MEMORY, 1234);
        b.set_int_attr_at(
            slot(1, 1),
            Collector::FREE_MEM_INDEX,
            attrs::lc::PHI_FREE_MEMORY,
            1234,
        );
        assert_eq!(a, b);
        assert_eq!(
            a.unclaimed_with_free_mem_at_least(1234.0)
                .collect::<Vec<_>>(),
            b.unclaimed_with_free_mem_at_least(1234.0)
                .collect::<Vec<_>>(),
        );
        // The indexed write is still a no-op (and stays clean) for
        // unchanged values.
        let s = b.seq();
        b.set_int_attr_at(
            slot(1, 1),
            Collector::FREE_MEM_INDEX,
            attrs::lc::PHI_FREE_MEMORY,
            1234,
        );
        assert_eq!(b.seq(), s);
    }

    #[test]
    fn partitions_override_parses_and_clamps() {
        assert_eq!(partitions_override(None), None);
        assert_eq!(partitions_override(Some("")), None);
        assert_eq!(partitions_override(Some("0")), None);
        assert_eq!(partitions_override(Some("nope")), None);
        assert_eq!(partitions_override(Some("4")), Some(4));
        assert_eq!(partitions_override(Some(" 8 ")), Some(8));
        assert_eq!(partitions_override(Some("999")), Some(MAX_PARTITIONS));
    }

    #[test]
    fn partition_threads_override_caps_at_partitions() {
        assert_eq!(partition_threads_override(Some("4"), 8), 4);
        assert_eq!(partition_threads_override(Some("16"), 8), 8);
        // Zero and garbage fall back to host parallelism, still capped.
        let fallback = partition_threads_override(Some("0"), 8);
        assert!((1..=8).contains(&fallback));
        assert!(partition_threads_override(None, 2) <= 2);
    }

    #[test]
    fn partitions_env_override_is_honored() {
        // The one test that really reads the variable, through the shared
        // test-util env helper (set + restore under the process lock).
        use phishare_test_util::with_env_var;
        let var = "PHISHARE_COLLECTOR_PARTITIONS";
        assert_eq!(with_env_var(var, "6", default_partitions), 6);
        assert_eq!(with_env_var(var, "999", default_partitions), MAX_PARTITIONS);
        assert_eq!(with_env_var(var, "junk", default_partitions), 1);
    }
}
