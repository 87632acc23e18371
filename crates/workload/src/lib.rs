//! # phishare-workload — jobs and workload generators
//!
//! The paper schedules *Xeon Phi offload jobs*: host processes that
//! intermittently offload parallel kernels to the coprocessor. A job is
//! described by
//!
//! * a **declared resource envelope** — the maximum device memory and thread
//!   count the user promises the job will use (the only information the
//!   paper's scheduler relies on, §IV-B), and
//! * an **execution profile** — an alternating sequence of host segments and
//!   offload segments (Figs. 2–3), which the *simulation* uses to execute the
//!   job but which is **never shown to the scheduler**.
//!
//! Two generator families reproduce the paper's workloads:
//!
//! * [`table1`] — the seven real applications of Table I (KM, MC, MD, SG,
//!   BT, SP, LU) with their published thread counts and memory ranges;
//! * [`synthetic`] — the four resource distributions of Fig. 7 (uniform,
//!   normal, low-resource skew, high-resource skew) with correlated memory
//!   and thread requirements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod ids;
pub mod io;
pub mod job;
pub mod synthetic;
pub mod table1;

pub use builder::{ArrivalProcess, Workload, WorkloadBuilder, WorkloadKind};
pub use ids::JobId;
pub use io::{workload_from_csv, workload_to_csv, MAX_DURATION_SECS};
pub use job::{JobProfile, JobSpec, Segment};
pub use synthetic::{ResourceDist, SyntheticParams};
pub use table1::AppKind;
