//! # phishare-cosmic — the node-level coprocessor middleware
//!
//! A reimplementation of the three COSMIC behaviours the paper relies on
//! (§IV-D2), built from COSMIC's published description (HPDC'13 \[6\]):
//!
//! 1. **Offload scheduling** — offloads from co-resident jobs are admitted
//!    only while the active thread sum stays within the hardware's 240
//!    threads; excess offloads wait in a queue. This is what makes
//!    coprocessor *sharing* safe even when the cluster scheduler co-locates
//!    jobs whose combined declared threads exceed the hardware (Fig. 2).
//! 2. **Thread-to-core affinitization** — admitted offloads get disjoint
//!    core sets, so concurrent offloads do not interfere (Fig. 3's full-rate
//!    overlap).
//! 3. **Memory-limit containers** — a job whose committed device memory
//!    exceeds its declared maximum is killed, protecting co-resident jobs
//!    from a neighbour's under-declaration.
//!
//! The middleware is a pure control plane: it decides *when* an offload may
//! start and *where* its threads go; the owning runtime applies those
//! decisions to the [`phishare_phi::PhiDevice`].
//!
//! Both middleware layouts — the slab-backed [`CosmicDevice`] and its keyed
//! oracle [`KeyedCosmicDevice`] — are driven through one operation API, the
//! [`CosmicSubstrate`] trait in [`substrate`], which the cluster runtime is
//! generic over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keyed;
pub mod middleware;
pub mod substrate;

pub use keyed::KeyedCosmicDevice;
pub use middleware::{
    Admission, ContainerVerdict, CosmicConfig, CosmicDevice, JobSlot, OffloadGrant, OffloadPolicy,
};
pub use substrate::CosmicSubstrate;
