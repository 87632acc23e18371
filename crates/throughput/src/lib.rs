//! # phishare-throughput — generic throughput-sharing engine
//!
//! A resource executes a set of *activities* concurrently; every activity
//! receives the same share of the resource's total throughput, and the
//! total throughput is a pluggable *degradation curve* of the resident
//! count / thread load (dslab's throughput-sharing model — SNIPPETS.md
//! snippets 1–3). Membership churn (join/leave) recomputes the shared
//! rate, so the naive implementation touches every activity on every
//! change: O(n) per join/leave and O(n) per next-completion query.
//!
//! The fast algorithm removes both costs with a **virtual-time warp**:
//!
//! * a global virtual clock `v` advances as `v += rate × dt` — one f64
//!   fused-multiply-free update regardless of population;
//! * an activity joining with `work` nominal ticks is assigned the fixed
//!   virtual finish mark `fin = v + work`; its remaining work at any later
//!   instant is `fin − v`, so a rate change *re-warps every activity at
//!   once* without rewriting any per-activity state;
//! * a binary min-heap ordered by `(fin, id)` yields the next completion
//!   from the root; `join` issues a handle whose dense position-table
//!   slot locates the activity for O(log n) removal. Join, leave and
//!   next-completion are all O(log n).
//!
//! [`NaiveEngine`] is the retained differential oracle: it stores the
//! *same* `(v, rate, fin)` representation and evaluates the *same*
//! arithmetic expressions, but rematerializes every activity's predicted
//! completion tick on every mutation — the honest recompute-all-residents
//! cost model the `perf_throughput` bench gate measures against. Because
//! both engines evaluate identical f64 expressions in identical order,
//! their timelines are **bit-identical**, which is what lets the
//! differential proptests (here and end-to-end under fault injection in
//! `tests/prop_chaos.rs`) demand exact equality rather than tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod engine;

pub use curve::SharingCurve;
pub use engine::{ticks_until, HeapEngine, HeapHandle, NaiveEngine, SharingEngine};
