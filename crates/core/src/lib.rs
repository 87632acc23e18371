//! # phishare-core — the sharing-aware cluster scheduler
//!
//! The paper's contribution (§IV): a cluster-level scheduler that packs as
//! many jobs as possible onto each Xeon Phi, subject to the device's memory
//! and thread limits, using a greedy sequence of per-device 0-1 knapsacks
//! (Fig. 4):
//!
//! ```text
//! for each Xeon Phi device D in cluster do
//!     pack jobs in D using knapsack algorithm
//! end for
//! while jobs remaining do
//!     for each Xeon Phi D with free memory do
//!         create knapsack: capacity = free memory in D
//!         pack jobs in D using knapsack algorithm
//!     end for
//! end while
//! ```
//!
//! The scheduler is deliberately *external* to Condor: it reads the pending
//! queue, computes a job → node mapping, and applies it purely through
//! `condor_qedit`-style requirement pinning; the dispatch itself still rides
//! Condor's next negotiation cycle (§IV-D1). That integration style — and
//! its cost, one negotiation latency — is preserved by `phishare-cluster`.
//!
//! Three cluster configurations from the evaluation (§V):
//!
//! * **MC** — exclusive device allocation (no external scheduler; jobs claim
//!   whole cards through Condor matchmaking);
//! * **MCC** — COSMIC sharing with *random* job selection at the cluster
//!   level;
//! * **MCCK** — COSMIC sharing driven by the knapsack packer.
//!
//! One [`ClusterScheduler`] serves MCC, MCCK and the clairvoyant LPT
//! comparator ([`ClusterPolicy::Oracle`]): the policies differ only in how
//! a device is filled, so they share one ledger of outstanding pins, one
//! device order, one FIFO candidate window and one thread budget
//! ([`KnapsackConfig::thread_budget`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod scheduler;

pub use policy::ClusterPolicy;
pub use scheduler::{
    ClusterScheduler, DeviceView, KnapsackConfig, KnapsackVariant, PendingJob, Pin, PlanStats,
    PlannerMode,
};
