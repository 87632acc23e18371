//! The schedd's persistent autoclusters: the class table [`JobQueue`]
//! keeps over its idle jobs.
//!
//! A class holds the idle jobs whose compiled `Requirements` are equal and
//! fully compiled and whose ads carry no `Rank` ([`QueuedJob::class_key`]);
//! a job with no key is a class of one. Each class stores its
//! [`CompiledReq`] once, its members by queue position, and their unmatched
//! certificates as *runs*: a run starts at a member's position and covers
//! every member up to the next run's start, so a negotiation cycle that
//! rejects a class certifies all of its remaining members with one insert.
//!
//! Invariant: every run starts at a member's position, so no run is empty
//! and the oldest certificate over all runs is the oldest over all idle
//! jobs. The table counts its runs by certificate, which makes
//! [`ClassTable::floor`] O(log n).
//!
//! [`JobQueue`]: crate::JobQueue
//! [`QueuedJob::class_key`]: crate::queue::QueuedJob::class_key

use phishare_classad::CompiledReq;
use phishare_workload::JobId;
use std::collections::{BTreeMap, HashMap};

/// A class's index in the table. Stable while the class has members; an
/// emptied class's index is reused.
pub(crate) type ClassId = usize;

/// One autocluster (module docs).
#[derive(Debug, Clone)]
struct Class {
    req: CompiledReq,
    key: Option<u64>,
    /// Idle members by queue position.
    members: BTreeMap<usize, JobId>,
    /// Certificate runs by first position; `None` is uncertified.
    runs: BTreeMap<usize, Option<u64>>,
}

/// Every class's runs, counted by certificate.
#[derive(Debug, Clone, Default)]
struct RunCounts {
    certified: BTreeMap<u64, usize>,
    uncertified: usize,
}

impl RunCounts {
    fn add(&mut self, cert: Option<u64>) {
        match cert {
            None => self.uncertified += 1,
            Some(seq) => *self.certified.entry(seq).or_default() += 1,
        }
    }

    fn sub(&mut self, cert: Option<u64>) {
        match cert {
            None => self.uncertified -= 1,
            Some(seq) => {
                let n = self.certified.get_mut(&seq).expect("counted run");
                *n -= 1;
                if *n == 0 {
                    self.certified.remove(&seq);
                }
            }
        }
    }
}

impl Class {
    /// The first member after `pos`.
    fn next_member(&self, pos: usize) -> Option<(usize, JobId)> {
        self.members
            .range(pos + 1..)
            .next()
            .map(|(&p, &id)| (p, id))
    }

    /// The certificate of the run covering `pos`, if a run does.
    fn cert_at(&self, pos: usize) -> Option<Option<u64>> {
        self.runs.range(..=pos).next_back().map(|(_, &cert)| cert)
    }

    fn set_run(&mut self, start: usize, cert: Option<u64>, counts: &mut RunCounts) {
        if let Some(old) = self.runs.insert(start, cert) {
            counts.sub(old);
        }
        counts.add(cert);
    }

    /// Fold the run at `start` into its predecessor when both carry the
    /// same certificate.
    fn coalesce(&mut self, start: usize, counts: &mut RunCounts) {
        let Some(&cert) = self.runs.get(&start) else {
            return;
        };
        if self
            .runs
            .range(..start)
            .next_back()
            .is_some_and(|(_, &prev)| prev == cert)
        {
            self.runs.remove(&start);
            counts.sub(cert);
        }
    }

    /// Give the member at `pos` certificate `cert` and leave every other
    /// member's certificate as it was.
    fn set_cert(&mut self, pos: usize, cert: Option<u64>, counts: &mut RunCounts) {
        let old = self.cert_at(pos);
        if old == Some(cert) {
            return;
        }
        let next = self.next_member(pos).map(|(p, _)| p);
        // The members after `pos` keep the old run's certificate.
        if let (Some(next), Some(old)) = (next, old) {
            if !self.runs.contains_key(&next) {
                self.set_run(next, old, counts);
            }
        }
        self.set_run(pos, cert, counts);
        if let Some(next) = next {
            self.coalesce(next, counts);
        }
        self.coalesce(pos, counts);
    }

    /// Certify the member at `pos` and every later member at `seq`.
    fn certify_from(&mut self, pos: usize, seq: u64, counts: &mut RunCounts) {
        for (_, old) in self.runs.split_off(&pos) {
            counts.sub(old);
        }
        self.set_run(pos, Some(seq), counts);
        self.coalesce(pos, counts);
    }

    fn remove(&mut self, pos: usize, counts: &mut RunCounts) {
        self.members.remove(&pos);
        let Some(cert) = self.runs.remove(&pos) else {
            return;
        };
        // A run that started at `pos` moves to its next member, or ends.
        match self.members.range(pos..).next().map(|(&p, _)| p) {
            Some(next) if !self.runs.contains_key(&next) => {
                self.runs.insert(next, cert);
            }
            next => {
                counts.sub(cert);
                if let Some(next) = next {
                    self.coalesce(next, counts);
                }
            }
        }
    }
}

/// The class table (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassTable {
    /// Slab of classes; an empty class is free for reuse.
    classes: Vec<Class>,
    free: Vec<ClassId>,
    by_key: HashMap<u64, ClassId>,
    counts: RunCounts,
}

impl ClassTable {
    /// Add the idle job `id` at queue position `pos`, uncertified, to the
    /// class of `req`, and return that class. A job with no key, or whose
    /// key collides with an unequal requirement, gets a class of its own.
    pub(crate) fn join(
        &mut self,
        key: Option<u64>,
        req: &CompiledReq,
        pos: usize,
        id: JobId,
    ) -> ClassId {
        let mapped = key.and_then(|k| self.by_key.get(&k).copied());
        let class = match mapped {
            Some(c) if self.classes[c].req == *req => c,
            _ => {
                let c = self.alloc(key, req);
                if let (Some(k), None) = (key, mapped) {
                    self.by_key.insert(k, c);
                }
                c
            }
        };
        let c = &mut self.classes[class];
        c.members.insert(pos, id);
        c.set_cert(pos, None, &mut self.counts);
        class
    }

    fn alloc(&mut self, key: Option<u64>, req: &CompiledReq) -> ClassId {
        let class = Class {
            req: req.clone(),
            key,
            members: BTreeMap::new(),
            runs: BTreeMap::new(),
        };
        match self.free.pop() {
            Some(c) => {
                self.classes[c] = class;
                c
            }
            None => {
                self.classes.push(class);
                self.classes.len() - 1
            }
        }
    }

    /// Remove the member at `pos` from `class`, freeing the class when it
    /// empties.
    pub(crate) fn leave(&mut self, class: ClassId, pos: usize) {
        let c = &mut self.classes[class];
        c.remove(pos, &mut self.counts);
        if c.members.is_empty() {
            debug_assert!(c.runs.is_empty(), "an empty class keeps no runs");
            if let Some(k) = c.key {
                if self.by_key.get(&k) == Some(&class) {
                    self.by_key.remove(&k);
                }
            }
            self.free.push(class);
        }
    }

    /// Certify the one member at `pos` at `seq`.
    pub(crate) fn certify(&mut self, class: ClassId, pos: usize, seq: u64) {
        self.classes[class].set_cert(pos, Some(seq), &mut self.counts);
    }

    /// Certify the member at `pos` and every later member of `class` at
    /// `seq`: one run, whatever the member count.
    pub(crate) fn certify_from(&mut self, class: ClassId, pos: usize, seq: u64) {
        self.classes[class].certify_from(pos, seq, &mut self.counts);
    }

    /// The certificate of the member at `pos`.
    pub(crate) fn cert(&self, class: ClassId, pos: usize) -> Option<u64> {
        self.classes[class].cert_at(pos).flatten()
    }

    /// The newest certificate any member of `class` holds. All members
    /// share one requirement, so when the class may share certificates
    /// this one covers every member (negotiator module docs).
    pub(crate) fn newest_cert(&self, class: ClassId) -> Option<u64> {
        self.classes[class].runs.values().flatten().max().copied()
    }

    /// The oldest certificate over every idle job, `None` when any idle
    /// job is uncertified, and `u64::MAX` with no idle jobs. O(log n).
    pub(crate) fn floor(&self) -> Option<u64> {
        if self.counts.uncertified > 0 {
            return None;
        }
        Some(
            self.counts
                .certified
                .first_key_value()
                .map_or(u64::MAX, |(&seq, _)| seq),
        )
    }

    /// The first member of `class` after position `pos`.
    pub(crate) fn next_member(&self, class: ClassId, pos: usize) -> Option<(usize, JobId)> {
        self.classes[class].next_member(pos)
    }

    /// Every class with members, as `(class, first position, first
    /// member)`, in no particular order.
    pub(crate) fn heads(&self) -> impl Iterator<Item = (ClassId, usize, JobId)> + '_ {
        self.classes.iter().enumerate().filter_map(|(c, class)| {
            class
                .members
                .first_key_value()
                .map(|(&pos, &id)| (c, pos, id))
        })
    }

    /// The members of `class` as `(position, id)`, in queue order.
    pub(crate) fn members(&self, class: ClassId) -> impl Iterator<Item = (usize, JobId)> + '_ {
        self.classes[class]
            .members
            .iter()
            .map(|(&pos, &id)| (pos, id))
    }
}
