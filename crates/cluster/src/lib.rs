//! # phishare-cluster — end-to-end cluster simulation
//!
//! Assembles the full stack the paper evaluates (§V):
//!
//! ```text
//!            ┌──────────────────────────────────┐
//!            │ sharing-aware scheduler (MCCK)   │  phishare-core
//!            │   or random selection (MCC)      │
//!            └────────────┬─────────────────────┘
//!                         │ condor_qedit pinning
//!            ┌────────────▼─────────────────────┐
//!            │ mini-HTCondor: queue, collector, │  phishare-condor
//!            │ negotiator (periodic cycles)     │
//!            └────────────┬─────────────────────┘
//!                         │ dispatch
//!   per node  ┌───────────▼──────────────────────┐
//!            │ COSMIC middleware (admission,     │  phishare-cosmic
//!            │ affinity, containers)             │
//!            └────────────┬──────────────────────┘
//!                         │ offloads
//!            ┌────────────▼──────────────────────┐
//!            │ Xeon Phi device model             │  phishare-phi
//!            └───────────────────────────────────┘
//! ```
//!
//! driven by the deterministic event engine of `phishare-sim`. The runtime
//! is generic over the per-card seams [`DeviceSubstrate`] (from
//! `phishare-phi`) and [`CosmicSubstrate`] (from `phishare-cosmic`),
//! re-exported here with [`DeviceSpec`].
//!
//! * [`config`] — cluster shape and software-stack configuration;
//! * [`fault`] — deterministic fault injection (device resets, node churn)
//!   and the recovery knobs (retry backoff, host fallback);
//! * [`perturb`] — deterministic chaos perturbations (thermal derates,
//!   offload-latency spikes, stale collector ads, negotiation jitter);
//! * [`runtime`] — the discrete-event world: job lifecycle, negotiation
//!   cycles, offload execution, failures;
//! * [`metrics`] — the measurements the paper reports (makespan, core
//!   utilization, waits, crashes);
//! * [`footprint`] — "smallest cluster that matches a target makespan"
//!   search (Tables II and III);
//! * [`sweep`] — a parallel parameter-sweep harness for the figure-scale
//!   experiments (many independent simulations across worker threads);
//! * [`shard`] — the process-sharded sweep engine: manifest + lease-claimed
//!   worker processes + fsync'd JSONL checkpoints with `--resume`, merged
//!   bit-identical to [`sweep::run_sweep`];
//! * [`report`] — plain-text table formatting for the bench harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod fault;
pub mod footprint;
pub mod host;
pub mod metrics;
pub mod perturb;
pub mod report;
pub mod runtime;
pub mod shard;
pub mod sweep;
pub mod trace;

pub use audit::audit;
pub use config::{ClusterConfig, DevicePool, DeviceSku};
pub use fault::{FallbackPolicy, FaultEvent, FaultKind, FaultPlan};
pub use footprint::footprint_search;
pub use metrics::ExperimentResult;
pub use perturb::{PerturbConfig, PerturbPlan};
pub use phishare_cosmic::CosmicSubstrate;
pub use phishare_phi::{DeviceSpec, DeviceSubstrate};
pub use runtime::{Experiment, ExperimentScratch, SubstrateMode};
pub use shard::{run_sweep_sharded, worker_main, CellRecord, ShardOptions};
pub use sweep::{default_threads, run_sweep, SweepJob, SweepOutcome};
pub use trace::{Trace, TraceEvent};
