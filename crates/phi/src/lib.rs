//! # phishare-phi — the Xeon Phi coprocessor model
//!
//! A discrete-event model of one Intel Xeon Phi card as the paper describes
//! it (§II): ~60 in-order cores × 4 hardware threads, 8 GB of device memory
//! shared by user processes, the embedded Linux and its daemons, and a COI
//! process per offloading host job.
//!
//! The model reproduces the *phenomena the paper's scheduler exists to
//! manage*:
//!
//! * **Intermittent offloads** — a job's offloads run at an effective rate
//!   that the device recomputes whenever its active set changes
//!   (rate-rescaling discrete-event execution);
//! * **Thread oversubscription** (§II-C) — when the active offloads' thread
//!   sum exceeds the hardware's 240, every offload slows superlinearly
//!   (context-switch cost of the huge vector state; \[6\] reports up to 800 %);
//! * **Affinity conflicts** — unmanaged (raw-MPSS) offloads that overlap
//!   interfere even without oversubscription, because their thread
//!   placements collide; COSMIC-pinned offloads run on disjoint cores and do
//!   not;
//! * **Memory oversubscription** (§II-C) — commits beyond physical memory
//!   wake an OOM killer that terminates a random resident process;
//! * **Utilization accounting** — time-integrated busy-thread and busy-core
//!   signals, the measurement behind the paper's "only 38–50 % of cores are
//!   busy" motivation (§III).
//!
//! There is one card model, the generic [`Card`]: residency, memory
//! commits and the OOM killer, pinned-core accounting, the thermal derate,
//! utilization and energy are written once, and only the rate rule differs.
//! [`PhiDevice`] runs the paper's two-rate [`PerfModel`] ([`PerfRates`](perf::PerfRates));
//! [`SharedThroughputDevice`] and [`NaiveSharedDevice`] run one fair-shared
//! [`SharingCurve`] rate ([`FairShare`]) on the heap engine and on its
//! recompute-all oracle. [`KeyedPhiDevice`] is an independent map-backed
//! specification of the per-offload model, kept as a differential oracle.
//! Every model is driven through one operation API, the
//! [`DeviceSubstrate`] trait in [`substrate`], which the cluster runtime is
//! generic over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod config;
pub mod device;
pub mod keyed;
pub mod perf;
pub mod proc;
pub mod sharing;
pub mod substrate;

pub use alloc::{CoreAllocator, CoreSet};
pub use config::PhiConfig;
pub use device::{Affinity, Card, CommitOutcome, PhiDevice, ProcSlot};
pub use keyed::KeyedPhiDevice;
pub use perf::PerfModel;
pub use phishare_throughput::SharingCurve;
pub use proc::ProcId;
pub use sharing::{FairShare, NaiveSharedDevice, SharedThroughputDevice};
pub use substrate::{DeviceSpec, DeviceSubstrate};
