//! # phishare-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the substrate every other `phishare` crate runs on:
//!
//! * [`time`] — a millisecond-resolution simulation clock ([`SimTime`]) and
//!   duration type ([`SimDuration`]) with explicit, overflow-checked
//!   arithmetic;
//! * [`queue`] — a stable-priority event queue ([`EventQueue`]) ordered by
//!   `(time, insertion sequence)`, so two runs with the same seed produce
//!   byte-identical traces, with slots that hold one in-place entry each
//!   for predictions that supersede one another;
//! * [`engine`] — a minimal driver ([`Sim`]) that owns the clock and the
//!   queue and hands events to a caller-supplied handler;
//! * [`stats`] — time-weighted integrators used for utilization accounting
//!   (the paper's §III core-utilization measurements), counters and simple
//!   distribution summaries;
//! * [`slab`] — generation-stamped dense slot storage ([`Slab`]) backing
//!   the substrate fast path's per-process and per-job state;
//! * [`rng`] — seeded, splittable deterministic random number generation,
//!   including a Box–Muller normal sampler so we do not need `rand_distr`.
//!
//! The engine is intentionally single-threaded: determinism is a hard
//! requirement for reproducing the paper's experiments, and the experiment
//! *sweeps* (many independent simulations) are parallelized one level up in
//! `phishare-cluster` instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use engine::Sim;
pub use queue::EventQueue;
pub use rng::DetRng;
pub use slab::{Slab, Slot};
pub use stats::{Counter, Histogram, Summary, TimeWeighted};
pub use time::{ceil_ticks, SimDuration, SimTime};
