//! The collective traffic class: periodic broadcast / multicast / gather
//! operations planned over fault-screened, regraft-repaired broadcast
//! trees and executed as deterministic multi-unicast.
//!
//! Every `collective_interval` cycles one operation launches. Its root
//! class rotates through the ending classes (Theorem 2 makes the class
//! the natural cache key); the concrete root is the first view-healthy
//! node of that class. The routing layer supplies the tree — cached per
//! class in a [`PlanCache`], re-grafted in place when the fault
//! generation moved, rebuilt only when the root itself died — and this
//! module flattens it into per-target source-routed packets:
//!
//! * **broadcast / multicast**: one packet per covered target, injected
//!   at the root with the root-to-target tree path as its route;
//! * **gather**: one packet per covered target, injected *at* the target
//!   with its tree path to the root as the route.
//!
//! The packets then flow through the ordinary store-and-forward engine —
//! same queues, same recovery, same TTL — distinguished only by the
//! [`COLLECTIVE_BIT`] in their packet id, which routes their accounting
//! into the collective ledger instead of the measured unicast counters.
//!
//! Everything here is deterministic and RNG-free: the launch schedule is
//! a pure function of the cycle, the multicast membership a hash of
//! `(seed, op, node)`, and the plan a pure function of the replicated
//! routing view — which is what lets every shard of the parallel engine
//! re-derive the identical plan without communicating.

use std::collections::HashMap;
use std::sync::Arc;

use gcube_routing::plan_cache::PlanCache;
use gcube_routing::{BroadcastTree, FaultSet, RepairOutcome, Route};
use gcube_topology::{GaussianCube, LinkMask, NodeId, Topology};

use crate::config::CollectiveOp;
use crate::metrics::OpStat;

/// High bit of a packet id: set on every collective packet. Unicast ids
/// count up from zero and a run would need ~9.2e18 injections to collide.
pub const COLLECTIVE_BIT: u64 = 1 << 63;

/// Bit position of the operation index inside a collective packet id.
const OP_SHIFT: u32 = 40;

/// Whether a packet id belongs to the collective traffic class.
#[inline]
pub fn is_collective(id: u64) -> bool {
    id & COLLECTIVE_BIT != 0
}

/// The operation index encoded in a collective packet id.
#[inline]
pub fn op_of(id: u64) -> u64 {
    (id & !COLLECTIVE_BIT) >> OP_SHIFT
}

/// Pack `(op, rank)` into a collective packet id. `rank` is the target's
/// BFS position in the tree (root = 0, so real targets start at 1): it
/// doubles as the deterministic tie-breaker that keeps the per-cycle
/// event merge in launch order.
#[inline]
fn encode(op: u64, rank: u32) -> u64 {
    debug_assert!(op < 1 << (63 - OP_SHIFT), "op index overflows the id");
    COLLECTIVE_BIT | (op << OP_SHIFT) | u64::from(rank)
}

/// SplitMix64 finaliser — the multicast membership hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether node `v` is a destination of multicast operation `op`: a
/// deterministic pseudo-random half of the covered nodes, stable across
/// engines and thread counts.
fn multicast_member(seed: u64, op: u64, v: NodeId) -> bool {
    splitmix64(splitmix64(seed ^ op) ^ v.0) & 1 == 0
}

/// One per-target packet of a planned collective operation, ready for
/// injection.
pub(crate) struct LaunchPacket {
    /// Node the packet enters the network at (the root for broadcast and
    /// multicast, the target itself for gather).
    pub src: NodeId,
    /// The target's BFS rank in the tree (≥ 1; the trace-merge key).
    pub rank: u32,
    /// Collective packet id ([`encode`]d op and rank).
    pub id: u64,
    /// Full source route along the repaired tree.
    pub route: Route,
}

/// A fully planned collective operation: the repaired tree's metadata
/// plus the packets to inject, in rank order.
pub(crate) struct LaunchPlan {
    /// Operation index in the launch schedule.
    pub op: u64,
    /// Concrete root the operation runs from.
    pub root: NodeId,
    /// The root's ending class (the tree-cache key).
    pub class: u64,
    /// Fault generation the tree was screened against.
    pub generation: u64,
    /// What the cache did to produce the tree (hit / regraft / rebuild).
    pub repair: RepairOutcome,
    /// Per-target packets, ascending by rank.
    pub packets: Vec<LaunchPacket>,
}

/// The per-shard collective planner. Holds the shared tree cache; on
/// several shards every shard owns a planner wrapping the *same*
/// `Arc<PlanCache>`, so the screened tree is built once and shared.
pub(crate) struct CollectivePlanner {
    op: CollectiveOp,
    interval: u64,
    seed: u64,
    cache: Arc<PlanCache>,
}

impl CollectivePlanner {
    pub fn new(op: CollectiveOp, interval: u64, seed: u64, cache: Arc<PlanCache>) -> Self {
        CollectivePlanner {
            op,
            interval: interval.max(1),
            seed,
            cache,
        }
    }

    /// The planner's tree cache — checkpointing captures its stateful
    /// broadcast-tree entries (regraft history shapes future trees).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The operation index due at `cycle`, if the schedule fires: one
    /// launch every `interval` cycles while injection is open.
    pub fn due(&self, cycle: u64, inject_cycles: u64) -> Option<u64> {
        (cycle < inject_cycles && cycle.is_multiple_of(self.interval))
            .then(|| cycle / self.interval)
    }

    /// Plan operation `op_index` against the routing `view` at fault
    /// `generation` (the view's change stamp — the tree-cache
    /// invalidation key), filtering sources through the ground `truth`:
    /// a node that is actually dead cannot transmit, whatever the view
    /// believes.
    ///
    /// Returns `None` — a *skipped* operation — when every candidate
    /// root of the scheduled class is dead in the view, or when source
    /// filtering leaves no packet to inject (e.g. a broadcast whose
    /// view-healthy root is truth-dead).
    pub fn plan<M: LinkMask + ?Sized>(
        &self,
        gc: &GaussianCube,
        view: &M,
        generation: u64,
        truth: &FaultSet,
        op_index: u64,
    ) -> Option<LaunchPlan> {
        let classes = 1u64 << gc.alpha();
        let class = op_index % classes;
        let n_nodes = gc.num_nodes();
        // The first view-healthy node of the class is the root; node ids
        // with ending class c are exactly {c, c + 2^α, c + 2·2^α, …}.
        let root = (class..n_nodes)
            .step_by(classes as usize)
            .map(NodeId)
            .find(|&v| view.node_ok(v))?;
        let (tree, repair) = self.cache.broadcast_tree_for(gc, view, root, generation);
        let packets = self.flatten(&tree, op_index, truth);
        if packets.is_empty() {
            return None;
        }
        Some(LaunchPlan {
            op: op_index,
            root,
            class,
            generation,
            repair,
            packets,
        })
    }

    /// Flatten the tree into rank-ordered per-target packets.
    fn flatten(&self, tree: &BroadcastTree, op_index: u64, truth: &FaultSet) -> Vec<LaunchPacket> {
        let root = tree.root;
        let mut packets = Vec::new();
        for (rank, &v) in tree.order.iter().enumerate() {
            if rank == 0 {
                continue; // the root is not a target of its own operation
            }
            if self.op == CollectiveOp::Multicast && !multicast_member(self.seed, op_index, v) {
                continue;
            }
            let rank = rank as u32;
            let id = encode(op_index, rank);
            let (src, route) = match self.op {
                CollectiveOp::Broadcast | CollectiveOp::Multicast => {
                    let mut path = tree.path_to_root(v);
                    path.reverse(); // root first, target last
                    (root, Route::new(path))
                }
                CollectiveOp::Gather => (v, Route::new(tree.path_to_root(v))),
            };
            if truth.is_node_faulty(src) {
                continue;
            }
            packets.push(LaunchPacket {
                src,
                rank,
                id,
                route,
            });
        }
        packets
    }
}

/// Per-engine (or per-shard) collective completion records: one
/// [`OpStat`] per launched operation, updated as the operation's packets
/// resolve. Shards each track their own copy — identical metadata,
/// disjoint outcome counts — and the coordinator merges them
/// positionally with [`crate::metrics::merge_ops`].
#[derive(Default)]
pub(crate) struct OpTracker {
    ops: Vec<OpStat>,
    pos: HashMap<u64, usize>,
}

impl OpTracker {
    pub fn new() -> Self {
        OpTracker::default()
    }

    /// Register a launched operation.
    pub fn begin(&mut self, plan: &LaunchPlan, cycle: u64) {
        self.pos.insert(plan.op, self.ops.len());
        self.ops.push(OpStat {
            op: plan.op,
            root: plan.root.0,
            started: cycle,
            expected: plan.packets.len() as u64,
            ..OpStat::default()
        });
    }

    /// Record one collective delivery.
    pub fn deliver(&mut self, id: u64, cycle: u64) {
        if let Some(&i) = self.pos.get(&op_of(id)) {
            let o = &mut self.ops[i];
            o.delivered += 1;
            o.last_delivery = o.last_delivery.max(cycle);
        }
    }

    /// Record one collective drop.
    pub fn dropped(&mut self, id: u64) {
        if let Some(&i) = self.pos.get(&op_of(id)) {
            self.ops[i].dropped += 1;
        }
    }

    /// Checkpoint view of the per-operation records.
    pub fn ops(&self) -> &[OpStat] {
        &self.ops
    }

    /// Rebuild a tracker from checkpointed records; the position index is
    /// derived (it is a pure function of the record list).
    pub fn from_ops(ops: Vec<OpStat>) -> Self {
        let pos = ops.iter().enumerate().map(|(i, o)| (o.op, i)).collect();
        OpTracker { ops, pos }
    }
}

/// Coordinator-side repair accounting: decides, per root class, whether
/// a [`LaunchPlan`]'s repair outcome describes a *new* tree transition
/// that must be counted and traced — exactly once, however many shards
/// re-derived the same plan.
#[derive(Default)]
pub(crate) struct RepairLedger {
    /// Per class: the `(root, generation)` last accounted.
    last: Vec<Option<(NodeId, u64)>>,
}

impl RepairLedger {
    pub fn new(classes: usize) -> Self {
        RepairLedger {
            last: vec![None; classes],
        }
    }

    /// Checkpoint view of the per-class `(root, generation)` memory.
    pub fn last(&self) -> &[Option<(NodeId, u64)>] {
        &self.last
    }

    /// Rebuild a ledger from its checkpointed per-class memory.
    pub fn from_last(last: Vec<Option<(NodeId, u64)>>) -> Self {
        RepairLedger { last }
    }

    /// Note a launch. Returns `Some(repair)` when the tree changed shape
    /// since the class's last accounted launch (regraft or rebuild);
    /// `None` for a pure cache hit or the class's very first build.
    pub fn note(&mut self, plan: &LaunchPlan) -> Option<RepairOutcome> {
        let slot = &mut self.last[plan.class as usize];
        let cur = (plan.root, plan.generation);
        match *slot {
            Some(prev) if prev == cur => None,
            Some(_) => {
                *slot = Some(cur);
                Some(plan.repair)
            }
            None => {
                *slot = Some(cur);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(op: CollectiveOp, gc: &GaussianCube) -> CollectivePlanner {
        CollectivePlanner::new(op, 10, 42, Arc::new(PlanCache::new(gc)))
    }

    #[test]
    fn id_encoding_round_trips() {
        let id = encode(5, 17);
        assert!(is_collective(id));
        assert_eq!(op_of(id), 5);
        assert_eq!(id & 0xff_ffff_ffff, 17);
        assert!(!is_collective(12345), "unicast ids stay unicast");
    }

    #[test]
    fn schedule_fires_on_interval_while_injecting() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let p = planner(CollectiveOp::Broadcast, &gc);
        assert_eq!(p.due(0, 100), Some(0));
        assert_eq!(p.due(10, 100), Some(1));
        assert_eq!(p.due(11, 100), None);
        assert_eq!(p.due(100, 100), None, "no launches after injection stops");
    }

    #[test]
    fn broadcast_plan_covers_all_healthy_nodes() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let p = planner(CollectiveOp::Broadcast, &gc);
        let view = FaultSet::new();
        let plan = p.plan(&gc, &view, 0, &view, 0).expect("fault-free plan");
        assert_eq!(plan.root, NodeId(0));
        assert_eq!(plan.class, 0);
        assert_eq!(plan.packets.len() as u64, gc.num_nodes() - 1);
        for pkt in &plan.packets {
            assert!(is_collective(pkt.id));
            assert_eq!(op_of(pkt.id), 0);
            assert_eq!(pkt.route.source(), plan.root, "broadcast injects at root");
            assert!(pkt.route.hops() >= 1);
        }
        // Rank order is strictly ascending (the trace-merge key).
        assert!(plan.packets.windows(2).all(|w| w[0].rank < w[1].rank));
    }

    #[test]
    fn gather_plan_injects_at_targets() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let p = planner(CollectiveOp::Gather, &gc);
        let view = FaultSet::new();
        let plan = p.plan(&gc, &view, 0, &view, 1).expect("fault-free plan");
        assert_eq!(plan.class, 1, "op 1 roots in ending class 1");
        assert_eq!(plan.root, NodeId(1));
        for pkt in &plan.packets {
            assert_eq!(pkt.route.dest(), plan.root, "gather converges on root");
            assert_eq!(pkt.route.source(), pkt.src);
        }
    }

    #[test]
    fn multicast_selects_a_deterministic_subset() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let p = planner(CollectiveOp::Multicast, &gc);
        let view = FaultSet::new();
        let a = p.plan(&gc, &view, 0, &view, 0).unwrap();
        let b = p.plan(&gc, &view, 0, &view, 0).unwrap();
        assert_eq!(a.packets.len(), b.packets.len(), "same op, same subset");
        assert!(
            (a.packets.len() as u64) < gc.num_nodes() - 1,
            "a strict subset"
        );
        assert!(!a.packets.is_empty(), "but not empty");
        // A different seed flips membership.
        let p2 = CollectivePlanner::new(
            CollectiveOp::Multicast,
            10,
            43,
            Arc::new(PlanCache::new(&gc)),
        );
        let c = p2.plan(&gc, &view, 0, &view, 0).unwrap();
        let ids = |pl: &LaunchPlan| pl.packets.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_ne!(ids(&a), ids(&c), "membership depends on the seed");
    }

    #[test]
    fn faulty_root_candidates_are_skipped_along_the_class() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let classes = 1u64 << gc.alpha();
        let mut view = FaultSet::new();
        view.add_node(NodeId(0)); // first candidate of class 0
        let p = planner(CollectiveOp::Broadcast, &gc);
        let healthy = FaultSet::new();
        let plan = p.plan(&gc, &view, 0, &healthy, 0).expect("fallback root");
        assert_eq!(plan.root, NodeId(classes), "next node of the class");
        // Kill the whole class: the operation is skipped.
        let mut all_dead = FaultSet::new();
        for v in (0..gc.num_nodes()).step_by(classes as usize) {
            all_dead.add_node(NodeId(v));
        }
        assert!(p
            .plan(&gc, &all_dead, all_dead.generation(), &healthy, 0)
            .is_none());
    }

    #[test]
    fn truth_dead_sources_never_inject() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let view = FaultSet::new(); // stale: believes everything healthy
        let p = planner(CollectiveOp::Broadcast, &gc);
        let dead = |v| FaultSet::from_parts([NodeId(v)], [], 1);
        // The root is truth-dead: the whole broadcast fizzles.
        assert!(p.plan(&gc, &view, 0, &dead(0), 0).is_none());
        // Gather: only the dead source's packet is filtered.
        let g = planner(CollectiveOp::Gather, &gc);
        let full = g.plan(&gc, &view, 0, &view, 0).unwrap();
        let filtered = g.plan(&gc, &view, 0, &dead(3), 0).unwrap();
        assert_eq!(filtered.packets.len(), full.packets.len() - 1);
        assert!(filtered.packets.iter().all(|p| p.src != NodeId(3)));
    }

    #[test]
    fn repair_ledger_accounts_transitions_once() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let p = planner(CollectiveOp::Broadcast, &gc);
        let view = FaultSet::new();
        let plan = p.plan(&gc, &view, 0, &view, 0).unwrap();
        let mut ledger = RepairLedger::new(1 << gc.alpha());
        assert!(ledger.note(&plan).is_none(), "first build is not a repair");
        assert!(ledger.note(&plan).is_none(), "same generation is a hit");
        // Bump the generation: the next launch accounts one repair.
        let mut view2 = FaultSet::new();
        view2.add_node(NodeId(5));
        let plan2 = p.plan(&gc, &view2, view2.generation(), &view, 0).unwrap();
        assert_ne!(plan2.generation, plan.generation);
        assert!(ledger.note(&plan2).is_some(), "generation change accounts");
        assert!(ledger.note(&plan2).is_none(), "but only once");
    }
}
