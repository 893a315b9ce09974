//! Packets and their in-flight state.

use gcube_routing::Route;
use gcube_topology::NodeId;

/// A unicast packet with its precomputed (source-routed) trajectory.
///
/// The paper's algorithms compute the whole plan at the source (message
/// overhead `O(n)`), so source routing is the faithful simulation model;
/// fault detours are already baked into the route by FTGCR. Under dynamic
/// faults the plan can become invalid mid-flight: the engine then rewrites
/// `route` from the current node (a local re-route), so `hops_taken` and
/// `planned_hops` diverge and their difference is the detour cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Unique id (injection order).
    pub id: u64,
    /// Injection cycle.
    pub injected_at: u64,
    /// Position within the route: index of the node currently holding the
    /// packet.
    pub hop_idx: usize,
    /// The current trajectory from its planning point to the destination.
    pub route: Route,
    /// Links actually traversed so far (spans re-routes; bounded by the
    /// TTL).
    pub hops_taken: u64,
    /// Hop count of the route planned at injection.
    pub planned_hops: u64,
    /// Local re-routes performed so far (bounded by the re-route budget).
    pub reroutes: u32,
}

impl Packet {
    /// A freshly injected packet at the start of `route`.
    pub fn new(id: u64, injected_at: u64, route: Route) -> Packet {
        let planned_hops = route.hops() as u64;
        Packet {
            id,
            injected_at,
            hop_idx: 0,
            route,
            hops_taken: 0,
            planned_hops,
            reroutes: 0,
        }
    }

    /// Replace the remaining trajectory (local recovery after discovering
    /// a fault); the packet restarts at the head of the new route.
    pub fn replan(&mut self, route: Route) {
        self.route = route;
        self.hop_idx = 0;
        self.reroutes += 1;
    }

    /// Extra links traversed beyond the injection-time plan.
    #[inline]
    pub fn detour_hops(&self) -> u64 {
        self.hops_taken.saturating_sub(self.planned_hops)
    }

    /// The node currently buffering the packet.
    #[inline]
    pub fn current(&self) -> NodeId {
        self.route.nodes()[self.hop_idx]
    }

    /// The next node on the trajectory, or `None` if at the destination.
    #[inline]
    pub fn next_hop(&self) -> Option<NodeId> {
        self.route.nodes().get(self.hop_idx + 1).copied()
    }

    /// Whether the packet has reached its destination.
    #[inline]
    pub fn arrived(&self) -> bool {
        self.hop_idx + 1 == self.route.nodes().len()
    }

    /// The final destination — stable across replans: a recovery route is
    /// always planned to the same endpoint.
    #[inline]
    pub fn dest(&self) -> NodeId {
        *self
            .route
            .nodes()
            .last()
            .expect("routes hold at least the source")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_progression() {
        let route = Route::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        let mut p = Packet::new(0, 5, route);
        assert_eq!(p.current(), NodeId(0));
        assert_eq!(p.next_hop(), Some(NodeId(1)));
        assert!(!p.arrived());
        assert_eq!(p.planned_hops, 2);
        p.hop_idx = 2;
        assert_eq!(p.current(), NodeId(3));
        assert_eq!(p.next_hop(), None);
        assert!(p.arrived());
    }

    #[test]
    fn zero_hop_packet_is_arrived() {
        let route = Route::new(vec![NodeId(7)]);
        let p = Packet::new(1, 0, route);
        assert!(p.arrived());
    }

    #[test]
    fn replan_tracks_detour_cost() {
        let mut p = Packet::new(0, 0, Route::new(vec![NodeId(0), NodeId(1), NodeId(3)]));
        p.hop_idx = 1;
        p.hops_taken = 1;
        // Fault discovered at NodeId(1): take the long way round.
        p.replan(Route::new(vec![NodeId(1), NodeId(5), NodeId(7), NodeId(3)]));
        assert_eq!(p.current(), NodeId(1));
        assert_eq!(p.reroutes, 1);
        p.hop_idx = 3;
        p.hops_taken = 4;
        assert!(p.arrived());
        assert_eq!(p.detour_hops(), 2, "4 links walked vs 2 planned");
    }
}
