//! ClassAd attribute conventions and ad builders.
//!
//! These mirror the paper's setup: "Each compute node obtains the number of
//! Xeon Phi cards available as well as the card memory through the Xeon
//! Phi's micinfo utility, and advertises this in its ClassAd. Each job
//! specifies its preferences for the number of Xeon Phi devices and memory
//! in its job script." (§IV-D1)

use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::ClassAd;
use phishare_workload::JobSpec;

/// Machine ad: slot name, e.g. `"slot2@node3"`.
pub(crate) const NAME: &str = "Name";
/// Machine ad: node name, e.g. `"node3"` (shared by all its slots).
pub(crate) const MACHINE: &str = "Machine";
/// Machine ad: number of Xeon Phi cards on the node.
pub(crate) const PHI_DEVICES: &str = "PhiDevices";
/// Machine ad: unallocated (declared) Phi memory on the node, MB.
pub const PHI_FREE_MEMORY: &str = "PhiFreeMemory";
/// Machine ad: Phi cards not exclusively claimed (used by the MC policy).
pub const PHI_DEVICES_FREE: &str = "PhiDevicesFree";
/// Machine ad: total Phi memory per card, MB.
pub(crate) const PHI_CARD_MEMORY: &str = "PhiCardMemory";

/// Job ad: requested Phi memory, MB.
pub const REQUEST_PHI_MEMORY: &str = "RequestPhiMemory";
/// Job ad: requested Phi threads.
pub(crate) const REQUEST_PHI_THREADS: &str = "RequestPhiThreads";
/// Job ad: set when the job demands a whole card for its lifetime (the
/// exclusive-allocation policy of stock deployments).
pub const REQUEST_EXCLUSIVE_PHI: &str = "RequestExclusivePhi";
/// Job ad: the job's cluster-wide id.
pub const JOB_ID: &str = "ClusterId";

/// Lower-cased (canonical) attribute handles for hot-path lookups.
///
/// `ClassAd` stores attribute names lower-cased; looking one up through a
/// mixed-case name allocates a lowered copy of the key on every call. The
/// negotiation inner loop resolves its well-known attributes through these
/// handles instead, which hit the map's no-alloc fast path. A unit test
/// pins each handle to the lowercase of its display-cased sibling.
pub mod lc {
    /// [`super::NAME`], canonical.
    pub(crate) const NAME: &str = "name";
    /// [`super::MACHINE`], canonical.
    pub(crate) const MACHINE: &str = "machine";
    /// [`super::PHI_FREE_MEMORY`], canonical.
    pub(crate) const PHI_FREE_MEMORY: &str = "phifreememory";
    /// [`super::PHI_DEVICES_FREE`], canonical.
    pub(crate) const PHI_DEVICES_FREE: &str = "phidevicesfree";
    /// [`super::REQUEST_PHI_MEMORY`], canonical.
    pub(crate) const REQUEST_PHI_MEMORY: &str = "requestphimemory";
    /// [`super::REQUEST_EXCLUSIVE_PHI`], canonical.
    pub(crate) const REQUEST_EXCLUSIVE_PHI: &str = "requestexclusivephi";
    /// [`phishare_classad::ad::RANK`], canonical.
    pub(crate) const RANK: &str = "rank";
    /// [`phishare_classad::ad::REQUIREMENTS`], canonical.
    pub(crate) const REQUIREMENTS: &str = "requirements";
}

/// Build a machine ad for one slot.
///
/// `phi_free_memory_mb` is the node-level declared-free Phi memory; the
/// cluster runtime refreshes it as jobs are placed and complete.
pub fn machine_ad(
    slot_name: &str,
    node_name: &str,
    phi_devices: u32,
    phi_card_memory_mb: u64,
    phi_free_memory_mb: u64,
    phi_devices_free: u32,
) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(NAME, slot_name);
    ad.insert(MACHINE, node_name);
    ad.insert(PHI_DEVICES, phi_devices);
    ad.insert(PHI_CARD_MEMORY, phi_card_memory_mb);
    ad.insert(PHI_FREE_MEMORY, phi_free_memory_mb);
    ad.insert(PHI_DEVICES_FREE, phi_devices_free);
    ad
}

/// Build the job ad a submit file produces under the **sharing** policies
/// (MCC / MCCK): the job requires a node with enough unallocated Phi memory.
pub fn sharing_job_ad(spec: &JobSpec) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(JOB_ID, spec.id.raw());
    ad.insert(REQUEST_PHI_MEMORY, spec.mem_req_mb);
    ad.insert(REQUEST_PHI_THREADS, spec.thread_req);
    ad.insert(REQUEST_EXCLUSIVE_PHI, false);
    ad.insert_expr(
        REQUIREMENTS,
        "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
    )
    .expect("static requirements expression parses");
    ad
}

/// Build the job ad under the **exclusive** policy (MC): the job claims a
/// whole card.
pub fn exclusive_job_ad(spec: &JobSpec) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(JOB_ID, spec.id.raw());
    ad.insert(REQUEST_PHI_MEMORY, spec.mem_req_mb);
    ad.insert(REQUEST_PHI_THREADS, spec.thread_req);
    ad.insert(REQUEST_EXCLUSIVE_PHI, true);
    ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
        .expect("static requirements expression parses");
    ad
}

/// The `condor_qedit` the paper's scheduler performs: pin a job to exactly
/// one slot by rewriting its `Requirements` to `Name == "<slot>@<node>"`
/// (§IV-D1).
pub fn pin_requirements(slot_name: &str) -> String {
    format!("TARGET.Name == \"{slot_name}\"")
}

/// Node-level pin: any slot of the chosen node may run the job. The paper
/// pins to a specific slot id; pinning to the node is equivalent for
/// homogeneous slots and lets Condor pick whichever slot is free.
pub fn pin_to_node(node_name: &str) -> String {
    format!("TARGET.Machine == \"{node_name}\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_sim::SimDuration;
    use phishare_workload::table1::AppKind;
    use phishare_workload::{JobId, JobProfile, Segment};

    fn spec() -> JobSpec {
        JobSpec {
            id: JobId(7),
            name: "KM-7".into(),
            app: AppKind::KM,
            mem_req_mb: 1024,
            thread_req: 60,
            actual_peak_mem_mb: 900,
            profile: JobProfile::new(vec![Segment::offload(60, SimDuration::from_secs(1))]),
        }
    }

    #[test]
    fn lc_handles_are_the_lowercase_of_their_siblings() {
        for (lc, display) in [
            (lc::NAME, NAME),
            (lc::MACHINE, MACHINE),
            (lc::PHI_FREE_MEMORY, PHI_FREE_MEMORY),
            (lc::PHI_DEVICES_FREE, PHI_DEVICES_FREE),
            (lc::REQUEST_PHI_MEMORY, REQUEST_PHI_MEMORY),
            (lc::REQUEST_EXCLUSIVE_PHI, REQUEST_EXCLUSIVE_PHI),
            (lc::RANK, phishare_classad::ad::RANK),
            (lc::REQUIREMENTS, REQUIREMENTS),
        ] {
            assert_eq!(lc, display.to_ascii_lowercase(), "handle for {display}");
        }
    }

    #[test]
    fn sharing_job_matches_machine_with_room() {
        let job = sharing_job_ad(&spec());
        let machine = machine_ad("slot1@node1", "node1", 1, 8192, 7680, 1);
        assert!(job.matches(&machine));
    }

    #[test]
    fn sharing_job_rejects_full_machine() {
        let job = sharing_job_ad(&spec());
        let machine = machine_ad("slot1@node1", "node1", 1, 8192, 512, 1);
        assert!(!job.matches(&machine)); // 512 < 1024 requested
    }

    #[test]
    fn exclusive_job_needs_a_free_card() {
        let job = exclusive_job_ad(&spec());
        let free = machine_ad("slot1@node1", "node1", 1, 8192, 7680, 1);
        let taken = machine_ad("slot2@node1", "node1", 1, 8192, 7680, 0);
        assert!(job.matches(&free));
        assert!(!job.matches(&taken));
    }

    #[test]
    fn job_without_phi_never_matches_philess_node() {
        let job = sharing_job_ad(&spec());
        let machine = machine_ad("slot1@node9", "node9", 0, 0, 0, 0);
        assert!(!job.matches(&machine));
    }

    #[test]
    fn pin_requirements_pin_to_one_slot() {
        let mut job = sharing_job_ad(&spec());
        job.insert_expr(REQUIREMENTS, &pin_requirements("slot3@node2"))
            .unwrap();
        let right = machine_ad("slot3@node2", "node2", 1, 8192, 100, 1);
        let wrong = machine_ad("slot3@node4", "node4", 1, 8192, 7680, 1);
        assert!(job.matches(&right)); // pin overrides the memory check
        assert!(!job.matches(&wrong));
    }
}
