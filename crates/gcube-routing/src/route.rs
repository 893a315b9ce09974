//! The [`Route`] type, the [`Trajectory`] a planner hands the simulator,
//! and routing errors.
//!
//! A route is the full node sequence a packet traverses, source and
//! destination inclusive. Routes produced by the paper's algorithms are
//! validated against the topology (every hop must be a real, non-faulty
//! link) by [`Route::validate`].

use std::fmt;

use gcube_topology::{GaussianCube, LinkId, LinkMask, NodeId, Topology};

use crate::plan_cache::{WalkRoute, WalkRule};

/// A planned trajectory: an explicit node sequence, or an FFGCR shortest
/// path in walk form, which the simulator forwards hop by hop with
/// [`WalkRule`] and never materialises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trajectory {
    /// Every node, source first.
    Route(Route),
    /// A cached FFGCR route at α ≤ 3.
    Walk(WalkRoute),
}

impl Trajectory {
    /// Links on the trajectory.
    #[inline]
    pub fn hops(&self) -> usize {
        match self {
            Trajectory::Route(r) => r.hops(),
            Trajectory::Walk(w) => w.hops(),
        }
    }

    /// The node where the trajectory ends.
    #[inline]
    pub fn dest(&self) -> NodeId {
        match self {
            Trajectory::Route(r) => r.dest(),
            Trajectory::Walk(w) => w.dest(),
        }
    }

    /// The explicit route, walking a walk-form trajectory on `gc`.
    pub fn into_route(self, gc: &GaussianCube) -> Route {
        match self {
            Trajectory::Route(r) => r,
            Trajectory::Walk(w) => {
                let rule = WalkRule::new(gc.n(), gc.alpha()).expect("walks exist only at α ≤ 3");
                Route::new(rule.nodes(&w))
            }
        }
    }
}

/// A packet's full node trajectory, endpoints inclusive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    nodes: Vec<NodeId>,
}

impl Route {
    /// Wrap a node sequence. Must be non-empty.
    pub fn new(nodes: Vec<NodeId>) -> Route {
        assert!(!nodes.is_empty(), "a route has at least its source");
        Route { nodes }
    }

    /// The source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    #[inline]
    pub fn dest(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// Number of hops (links traversed).
    #[inline]
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The links traversed, in order (one per hop).
    pub fn links(&self) -> Vec<LinkId> {
        self.nodes
            .windows(2)
            .map(|w| {
                let dims = w[0].differing_dims(w[1]);
                debug_assert_eq!(dims.len(), 1, "hops flip exactly one bit");
                LinkId::new(w[0], dims[0])
            })
            .collect()
    }

    /// Whether the route never revisits a node (true for optimal fault-free
    /// routes; fault detours may legitimately revisit).
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|n| seen.insert(*n))
    }

    /// Check that every hop is a real link of `topo`, healthy under `mask`,
    /// with all intermediate nodes healthy.
    pub fn validate<T, M>(&self, topo: &T, mask: &M) -> Result<(), RoutingError>
    where
        T: Topology + ?Sized,
        M: LinkMask + ?Sized,
    {
        for n in &self.nodes {
            if !topo.contains(*n) {
                return Err(RoutingError::InvalidHop { from: *n, to: *n });
            }
            if !mask.node_ok(*n) {
                return Err(RoutingError::FaultyNodeOnRoute { node: *n });
            }
        }
        for w in self.nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            let dims = a.differing_dims(b);
            if dims.len() != 1 || !topo.has_link(a, dims[0]) {
                return Err(RoutingError::InvalidHop { from: a, to: b });
            }
            if !mask.link_ok(LinkId::new(a, dims[0])) {
                return Err(RoutingError::FaultyLinkOnRoute {
                    link: LinkId::new(a, dims[0]),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, " -> ")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Errors produced by the routing algorithms and route validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// Source node is faulty (assumption 1 of §6 forbids this).
    SourceFaulty(NodeId),
    /// Destination node is faulty.
    DestFaulty(NodeId),
    /// Source or destination label out of range for the topology.
    OutOfRange(NodeId),
    /// No healthy route exists (fault preconditions violated badly enough to
    /// disconnect the pair).
    Unreachable {
        /// Source.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// The algorithm exceeded its internal detour budget — the fault
    /// distribution violates the theorem preconditions.
    DetourBudgetExceeded {
        /// Where the packet was abandoned.
        stuck_at: NodeId,
    },
    /// A collective primitive found the (fault-screened) cube disconnected:
    /// some healthy nodes cannot be reached from the root.
    Disconnected {
        /// How many healthy nodes are unreachable.
        unreachable: u64,
    },
    /// Validation: a hop that is not a link of the topology.
    InvalidHop {
        /// Hop origin.
        from: NodeId,
        /// Hop target.
        to: NodeId,
    },
    /// Validation: the route crosses a faulty node.
    FaultyNodeOnRoute {
        /// The faulty node.
        node: NodeId,
    },
    /// Validation: the route uses a faulty link.
    FaultyLinkOnRoute {
        /// The faulty link.
        link: LinkId,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::SourceFaulty(n) => write!(f, "source node {n} is faulty"),
            RoutingError::DestFaulty(n) => write!(f, "destination node {n} is faulty"),
            RoutingError::OutOfRange(n) => write!(f, "node {n} is out of range"),
            RoutingError::Unreachable { from, to } => {
                write!(f, "no healthy route from {from} to {to}")
            }
            RoutingError::DetourBudgetExceeded { stuck_at } => {
                write!(
                    f,
                    "detour budget exceeded at {stuck_at} (preconditions violated)"
                )
            }
            RoutingError::Disconnected { unreachable } => {
                write!(
                    f,
                    "cube is disconnected: {unreachable} healthy nodes unreachable"
                )
            }
            RoutingError::InvalidHop { from, to } => {
                write!(f, "hop {from} -> {to} is not a link of the topology")
            }
            RoutingError::FaultyNodeOnRoute { node } => {
                write!(f, "route passes through faulty node {node}")
            }
            RoutingError::FaultyLinkOnRoute { link } => {
                write!(f, "route uses faulty link {link}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_topology::{Hypercube, NoFaults};

    #[test]
    fn route_accessors() {
        let r = Route::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(r.source(), NodeId(0));
        assert_eq!(r.dest(), NodeId(3));
        assert_eq!(r.hops(), 2);
        assert!(r.is_simple());
        assert_eq!(
            r.links(),
            vec![LinkId::new(NodeId(0), 0), LinkId::new(NodeId(1), 1)]
        );
    }

    #[test]
    fn zero_hop_route() {
        let r = Route::new(vec![NodeId(5)]);
        assert_eq!(r.hops(), 0);
        assert_eq!(r.source(), r.dest());
        assert!(r.links().is_empty());
        let q = Hypercube::new(3).unwrap();
        assert!(r.validate(&q, &NoFaults).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least its source")]
    fn empty_route_panics() {
        let _ = Route::new(vec![]);
    }

    #[test]
    fn validate_rejects_non_links() {
        let q = Hypercube::new(2).unwrap();
        // 0 -> 3 flips two bits at once.
        let r = Route::new(vec![NodeId(0), NodeId(3)]);
        assert!(matches!(
            r.validate(&q, &NoFaults),
            Err(RoutingError::InvalidHop { .. })
        ));
        // Out of range node.
        let r = Route::new(vec![NodeId(0), NodeId(8)]);
        assert!(r.validate(&q, &NoFaults).is_err());
    }

    #[test]
    fn validate_respects_mask() {
        struct Fault;
        impl LinkMask for Fault {
            fn node_ok(&self, n: NodeId) -> bool {
                n != NodeId(1)
            }
            fn link_ok(&self, l: LinkId) -> bool {
                l != LinkId::new(NodeId(2), 0)
            }
        }
        let q = Hypercube::new(2).unwrap();
        let through_faulty_node = Route::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert!(matches!(
            through_faulty_node.validate(&q, &Fault),
            Err(RoutingError::FaultyNodeOnRoute { .. })
        ));
        let over_faulty_link = Route::new(vec![NodeId(2), NodeId(3)]);
        assert!(matches!(
            over_faulty_link.validate(&q, &Fault),
            Err(RoutingError::FaultyLinkOnRoute { .. })
        ));
        let healthy = Route::new(vec![NodeId(0), NodeId(2)]);
        assert!(healthy.validate(&q, &Fault).is_ok());
    }

    #[test]
    fn non_simple_route_detected() {
        let r = Route::new(vec![NodeId(0), NodeId(1), NodeId(0)]);
        assert!(!r.is_simple());
    }

    #[test]
    fn display_formats() {
        let r = Route::new(vec![NodeId(0), NodeId(1)]);
        assert_eq!(r.to_string(), "0 -> 1");
        assert!(RoutingError::SourceFaulty(NodeId(7))
            .to_string()
            .contains('7'));
    }
}
