//! # phishare-condor — a miniature HTCondor
//!
//! The paper integrates its scheduler as a *transparent add-on* to HTCondor
//! 7.8.7 (§IV-D1): machines advertise Xeon Phi devices and memory in their
//! ClassAds, jobs request Phi resources in their submit files, the central
//! manager's **negotiator** matches pending jobs to slots in FIFO order at
//! periodic *negotiation cycles*, and the sharing-aware scheduler steers the
//! whole thing purely by editing job `Requirements` with `condor_qedit`.
//!
//! This crate rebuilds the moving parts that behaviour depends on:
//!
//! * [`attrs`] — the ClassAd attribute conventions (machine-side
//!   `PhiFreeMemory`, `PhiDevicesFree`, job-side `RequestPhiMemory`, …) and
//!   ad builders for machines and jobs;
//! * [`queue`] — the schedd's job queue: FIFO submit order, job state
//!   machine, and `qedit` (the integration hook the paper uses);
//! * [`collector`] — the central manager's view of every slot's ad and claim
//!   state;
//! * [`startd`] — per-node slot advertisement;
//! * [`negotiator`] — the periodic FIFO matchmaking cycle, including
//!   single-cycle resource decrements so one cycle cannot overcommit a
//!   node's coprocessor memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
mod autocluster;
pub mod collector;
pub mod negotiator;
pub mod queue;
pub mod startd;
pub mod status;

pub use collector::{Collector, SlotId};
pub use negotiator::{CycleStats, Match, MatchPath, Negotiator};
pub use queue::{JobQueue, JobState};
pub use startd::Startd;
pub use status::QueueTotals;
