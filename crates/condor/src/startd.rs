//! Per-node slot advertisement (the startd's role).

use crate::attrs;
use crate::collector::{Collector, SlotId};

/// The startd of one compute node: owns the node's slot layout and publishes
/// slot ads reflecting current Phi availability.
///
/// The paper's nodes have two 8-core Xeons; Condor's default is one slot per
/// host core, so 16 slots per node. Each slot runs at most one job; Phi
/// resources are node-level attributes repeated in every slot ad (§IV-D1).
#[derive(Debug, Clone)]
pub struct Startd {
    /// Node index.
    pub node: u32,
    /// Number of host slots.
    pub slots: u32,
    /// Number of Phi cards.
    pub phi_devices: u32,
    /// Per-card device memory, MB.
    pub phi_card_memory_mb: u64,
}

impl Startd {
    /// Create a startd for `node`.
    pub fn new(node: u32, slots: u32, phi_devices: u32, phi_card_memory_mb: u64) -> Self {
        assert!(slots > 0, "a node needs at least one slot");
        Startd {
            node,
            slots,
            phi_devices,
            phi_card_memory_mb,
        }
    }

    /// The node's Condor name, e.g. `node3`.
    pub(crate) fn node_name(&self) -> String {
        format!("node{}", self.node)
    }

    /// Refresh this node's slot ads in place with current Phi availability.
    ///
    /// A slot ad is a fixed machine description plus two mutable
    /// availability numbers; rebuilding the whole ad for every slot on
    /// every negotiation cycle dominated experiment wall time, so this is
    /// one node write of the two numbers ([`Collector::update_node_phi`]),
    /// falling back to [`Startd::advertise`] when the node has no slots
    /// yet (a node's slots are published and invalidated together). The
    /// resulting collector state is identical to a full
    /// [`Startd::advertise`].
    pub fn refresh(
        &self,
        collector: &mut Collector,
        phi_free_memory_mb: u64,
        phi_devices_free: u32,
    ) {
        let values = [
            Some(phi_free_memory_mb as i64),
            Some(i64::from(phi_devices_free)),
        ];
        if collector.update_node_phi(self.node, |_| values) == 0 {
            self.advertise(collector, phi_free_memory_mb, phi_devices_free);
        }
    }

    /// Publish (or refresh) all this node's slot ads with the given current
    /// Phi availability.
    pub fn advertise(
        &self,
        collector: &mut Collector,
        phi_free_memory_mb: u64,
        phi_devices_free: u32,
    ) {
        let node_name = self.node_name();
        for slot in (1..=self.slots).map(|slot| SlotId {
            node: self.node,
            slot,
        }) {
            let ad = attrs::machine_ad(
                &slot.name(),
                &node_name,
                self.phi_devices,
                self.phi_card_memory_mb,
                phi_free_memory_mb,
                phi_devices_free,
            );
            collector.advertise(slot, ad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_classad::Value;

    #[test]
    fn advertises_all_slots_with_node_attrs() {
        let startd = Startd::new(3, 16, 1, 8192);
        let mut c = Collector::new();
        startd.advertise(&mut c, 7680, 1);
        assert_eq!(c.len(), 16);
        let s = c.get(SlotId { node: 3, slot: 5 }).unwrap();
        assert_eq!(
            s.ad.get(attrs::NAME),
            Some(&Value::Str("slot5@node3".into()))
        );
        assert_eq!(s.ad.get(attrs::MACHINE), Some(&Value::Str("node3".into())));
        assert_eq!(s.ad.get(attrs::PHI_FREE_MEMORY), Some(&Value::Int(7680)));
    }

    #[test]
    fn refresh_updates_phi_availability() {
        let startd = Startd::new(1, 4, 1, 8192);
        let mut c = Collector::new();
        startd.advertise(&mut c, 7680, 1);
        startd.advertise(&mut c, 1024, 0);
        let s = c.get(SlotId { node: 1, slot: 1 }).unwrap();
        assert_eq!(s.ad.get(attrs::PHI_FREE_MEMORY), Some(&Value::Int(1024)));
        assert_eq!(s.ad.get(attrs::PHI_DEVICES_FREE), Some(&Value::Int(0)));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = Startd::new(1, 0, 1, 8192);
    }

    #[test]
    fn refresh_is_equivalent_to_full_advertise() {
        let startd = Startd::new(2, 4, 2, 8192);
        let mut advertised = Collector::new();
        let mut refreshed = Collector::new();

        // First publication: refresh falls back to full ads.
        startd.advertise(&mut advertised, 7680, 2);
        startd.refresh(&mut refreshed, 7680, 2);
        assert_eq!(advertised, refreshed);

        // Claims must survive either update path.
        assert!(advertised.claim(SlotId { node: 2, slot: 1 }));
        assert!(refreshed.claim(SlotId { node: 2, slot: 1 }));

        startd.advertise(&mut advertised, 512, 0);
        startd.refresh(&mut refreshed, 512, 0);
        assert_eq!(advertised, refreshed);

        // Unchanged values: the in-place path skips the writes but the
        // observable state still matches a full re-advertise.
        startd.advertise(&mut advertised, 512, 0);
        startd.refresh(&mut refreshed, 512, 0);
        assert_eq!(advertised, refreshed);
    }
}
