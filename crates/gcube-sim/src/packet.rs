//! Packets and their in-flight state.

use gcube_routing::{Trajectory, WalkRule};
use gcube_topology::NodeId;

/// A unicast packet with its precomputed (source-routed) trajectory.
///
/// The paper's algorithms compute the whole plan at the source (message
/// overhead `O(n)`), so source routing is the faithful simulation model;
/// fault detours are already baked into the route by FTGCR. Under dynamic
/// faults the plan can become invalid mid-flight: the engine then rewrites
/// `path` from the current node (a local re-route), so `hops_taken` and
/// `planned_hops` diverge and their difference is the detour cost.
///
/// The trajectory is an explicit node sequence, or an FFGCR route in walk
/// form: its endpoints plus the packed tree edges, which the packet
/// consumes as it crosses them (`edges`), so a cached FFGCR packet never
/// holds or chases a node vector. `cur` is the holding node in both
/// forms.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Unique id (injection order).
    pub id: u64,
    /// Injection cycle.
    pub injected_at: u64,
    /// Links taken on the current trajectory: the holding node's index in
    /// its node sequence.
    pub hop_idx: usize,
    /// The current trajectory from its planning point to the destination.
    pub path: Trajectory,
    /// The node currently buffering the packet.
    pub cur: NodeId,
    /// Walk form: the tree edges not yet crossed, the next in the low two
    /// bits ([`WalkRule::next_hop`]). Unused by explicit routes.
    pub edges: u64,
    /// Links actually traversed so far (spans re-routes; bounded by the
    /// TTL).
    pub hops_taken: u64,
    /// Hop count of the route planned at injection.
    pub planned_hops: u64,
    /// Local re-routes performed so far (bounded by the re-route budget).
    pub reroutes: u32,
}

impl Packet {
    /// A freshly injected packet at the start of `path`.
    pub fn new(id: u64, injected_at: u64, path: Trajectory) -> Packet {
        let planned_hops = path.hops() as u64;
        let (cur, edges) = start(&path);
        Packet {
            id,
            injected_at,
            hop_idx: 0,
            path,
            cur,
            edges,
            hops_taken: 0,
            planned_hops,
            reroutes: 0,
        }
    }

    /// Replace the remaining trajectory (local recovery after discovering
    /// a fault); the packet restarts at the head of the new path.
    pub fn replan(&mut self, path: Trajectory) {
        (self.cur, self.edges) = start(&path);
        self.path = path;
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
        self.cur
    }

    /// The next node on the trajectory, or `None` at the destination.
    /// `rule` walks walk-form paths (it is the cube's [`WalkRule`]).
    #[inline]
    pub fn next_hop(&self, rule: &WalkRule) -> Option<NodeId> {
        match &self.path {
            Trajectory::Route(r) => r.nodes().get(self.hop_idx + 1).copied(),
            Trajectory::Walk(w) => rule.next_hop(self.cur, w.dest(), self.edges),
        }
    }

    /// Whether the packet has reached its destination.
    #[inline]
    pub fn arrived(&self) -> bool {
        match &self.path {
            Trajectory::Route(r) => self.hop_idx + 1 == r.nodes().len(),
            Trajectory::Walk(w) => self.cur == w.dest(),
        }
    }

    /// Take the hop to `to`, the node [`Packet::next_hop`] returned.
    #[inline]
    pub fn advance(&mut self, rule: &WalkRule, to: NodeId) {
        self.edges = rule.edges_after(self.cur, to, self.edges);
        self.cur = to;
        self.hop_idx += 1;
        self.hops_taken += 1;
    }

    /// The final destination — stable across replans: a recovery route is
    /// always planned to the same endpoint.
    #[inline]
    pub fn dest(&self) -> NodeId {
        self.path.dest()
    }

    /// This packet with an explicit route: a walk-form path becomes its
    /// node sequence, replayed from where it was planned, so `hop_idx`
    /// still indexes the holding node.
    pub fn into_explicit(mut self, rule: &WalkRule) -> Packet {
        if let Trajectory::Walk(w) = &self.path {
            let route = gcube_routing::Route::new(rule.nodes(w));
            debug_assert_eq!(route.nodes()[self.hop_idx], self.cur);
            self.path = Trajectory::Route(route);
            self.edges = 0;
        }
        self
    }
}

/// Where a packet starts on `path`: its source, with every tree edge of a
/// walk still to cross.
#[inline]
pub(crate) fn start(path: &Trajectory) -> (NodeId, u64) {
    match path {
        Trajectory::Route(r) => (r.source(), 0),
        Trajectory::Walk(w) => (w.source(), w.edges()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_routing::{PlanCache, Route};
    use gcube_topology::GaussianCube;

    fn explicit(nodes: &[u64]) -> Trajectory {
        Trajectory::Route(Route::new(nodes.iter().map(|&v| NodeId(v)).collect()))
    }

    #[test]
    fn packet_progression() {
        let rule = WalkRule::default();
        let mut p = Packet::new(0, 5, explicit(&[0, 1, 3]));
        assert_eq!(p.current(), NodeId(0));
        assert_eq!(p.next_hop(&rule), Some(NodeId(1)));
        assert!(!p.arrived());
        assert_eq!(p.planned_hops, 2);
        p.advance(&rule, NodeId(1));
        p.advance(&rule, NodeId(3));
        assert_eq!(p.current(), NodeId(3));
        assert_eq!(p.next_hop(&rule), None);
        assert!(p.arrived());
    }

    #[test]
    fn zero_hop_packet_is_arrived() {
        let p = Packet::new(1, 0, explicit(&[7]));
        assert!(p.arrived());
    }

    #[test]
    fn replan_tracks_detour_cost() {
        let rule = WalkRule::default();
        let mut p = Packet::new(0, 0, explicit(&[0, 1, 3]));
        p.advance(&rule, NodeId(1));
        // Fault discovered at NodeId(1): take the long way round.
        p.replan(explicit(&[1, 5, 7, 3]));
        assert_eq!(p.current(), NodeId(1));
        assert_eq!(p.reroutes, 1);
        for v in [5, 7, 3] {
            p.advance(&rule, NodeId(v));
        }
        assert!(p.arrived());
        assert_eq!(p.detour_hops(), 2, "4 links walked vs 2 planned");
    }

    #[test]
    fn walk_packets_follow_and_materialise_their_route() {
        let gc = GaussianCube::new(8, 4).unwrap();
        let cache = PlanCache::new(&gc);
        let rule = *cache.rule().unwrap();
        let (s, d) = (NodeId(0b0110_1001), NodeId(0b1001_0110));
        let route = cache.route(&gc, s, d).unwrap();
        let mut p = Packet::new(3, 0, cache.plan(&gc, s, d).unwrap());
        assert!(matches!(p.path, Trajectory::Walk(_)));
        assert_eq!(p.planned_hops as usize, route.hops());
        for (i, &v) in route.nodes().iter().enumerate().skip(1) {
            let halfway = p.clone().into_explicit(&rule);
            assert_eq!(halfway.path, Trajectory::Route(route.clone()));
            assert_eq!(halfway.current(), p.current());
            assert_eq!(halfway.next_hop(&rule), p.next_hop(&rule));
            assert_eq!(p.next_hop(&rule), Some(v), "hop {i}");
            p.advance(&rule, v);
        }
        assert!(p.arrived());
        assert_eq!(p.next_hop(&rule), None);
    }
}
