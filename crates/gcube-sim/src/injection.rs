//! Dynamic fault injection: timed fault *events* that mutate the network
//! while packets are in flight.
//!
//! The seed simulator froze its [`FaultSet`] at construction, so the
//! fault-tolerant strategies were never exercised against a failure they
//! had not already been told about. This module produces a deterministic,
//! seeded stream of fault events — permanent, transient (auto-repair after
//! a fixed number of cycles) and intermittent (periodic down/up) node and
//! link faults — either from per-cycle Bernoulli arrivals or an explicit
//! scripted timeline. Placement can target the paper's A/B/C fault
//! taxonomy via [`CategoryMix`], using
//! [`gcube_routing::faults::link_category`] /
//! [`gcube_routing::faults::node_category`].
//!
//! Determinism: the injector owns its own RNG (independent of the traffic
//! stream), pending events are kept in a `BTreeMap` keyed by cycle, and
//! the applied-event trace is recorded in order — the same seed and
//! schedule always reproduce the same trace bit for bit.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gcube_routing::FaultSet;
use gcube_topology::{GaussianCube, LinkId, NodeId, Topology};

use crate::error::SimError;

/// The component a fault event acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// A node (all incident links die with it — assumption 3).
    Node(NodeId),
    /// A single link.
    Link(LinkId),
}

impl FaultTarget {
    /// The link `v:dim` as read from input. A dimension past the label
    /// width keeps `v` as written, since a `u64` has no such bit to clear,
    /// so the target reaches [`FaultTarget::check`] instead of overflowing
    /// a shift.
    pub fn link(v: NodeId, dim: u32) -> FaultTarget {
        FaultTarget::Link(if dim < 64 {
            LinkId::new(v, dim)
        } else {
            LinkId { lo: v, dim }
        })
    }

    /// Refuse a target that is not a node or link of `gc` (for a link, a
    /// dimension below `n` is not enough: Theorem 1). `Simulator::try_new`,
    /// `gcube route` and checkpoint restore apply it.
    pub fn check(self, gc: &GaussianCube) -> Result<(), SimError> {
        let inside = match self {
            FaultTarget::Node(v) => gc.contains(v),
            FaultTarget::Link(l) => gc.contains(l.lo) && gc.has_link(l.lo, l.dim),
        };
        if inside {
            Ok(())
        } else {
            Err(SimError::InvalidFaultTarget {
                target: self,
                n: gc.n(),
            })
        }
    }
}

/// Fail or repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The component goes down.
    Fail,
    /// The component comes back up.
    Repair,
}

/// One applied fault event, as recorded in the run's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the event took effect.
    pub cycle: u64,
    /// What happened.
    pub action: FaultAction,
    /// To which component.
    pub target: FaultTarget,
}

/// Persistence class of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Down forever.
    Permanent,
    /// Auto-repairs `repair_after` cycles after failing.
    Transient {
        /// Cycles between the failure and its repair.
        repair_after: u64,
    },
    /// Repeats: down for `down_for` cycles, then healthy until the next
    /// period boundary, forever.
    Intermittent {
        /// Cycles spent down each period.
        down_for: u64,
        /// Cycles from one failure to the next (must exceed `down_for`).
        period: u64,
    },
}

/// Relative weights for placing random faults across the paper's A/B/C
/// categories (Definitions 3–5). Weights are normalised over the
/// categories that actually have candidates in the topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CategoryMix {
    /// A-category: link faults in dimensions `≥ α`.
    pub a: f64,
    /// B-category: link faults in dimensions `< α`, or node faults with no
    /// high-dimension link.
    pub b: f64,
    /// C-category: node faults breaking links on both sides of `α`.
    pub c: f64,
}

impl Default for CategoryMix {
    fn default() -> CategoryMix {
        CategoryMix {
            a: 1.0,
            b: 1.0,
            c: 1.0,
        }
    }
}

/// One scripted fault: a component that fails at a given cycle with a
/// given persistence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedFault {
    /// Failure cycle.
    pub cycle: u64,
    /// Component to fail.
    pub target: FaultTarget,
    /// Persistence (drives any auto-repair / re-failure events).
    pub kind: FaultKind,
}

/// Where the fault events of a run come from.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum FaultSchedule {
    /// No dynamic faults — the seed engine's behaviour.
    #[default]
    None,
    /// An explicit timeline of failures.
    Scripted(Vec<TimedFault>),
    /// Per-cycle Bernoulli arrivals: each cycle one new fault arrives with
    /// probability `rate`, placed by category mix, affecting a node with
    /// probability `node_fraction` (otherwise a link).
    Bernoulli {
        /// Per-cycle arrival probability of one new fault.
        rate: f64,
        /// Persistence of the arriving faults.
        kind: FaultKind,
        /// A/B/C placement weights.
        mix: CategoryMix,
        /// Probability an arrival hits a node rather than a link.
        node_fraction: f64,
    },
}

impl FaultSchedule {
    /// Whether the schedule can emit any event at all.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSchedule::None)
            || matches!(self, FaultSchedule::Scripted(v) if v.is_empty())
    }
}

/// Pending operation: what to do to a target when its cycle comes up.
/// `pub(crate)` so the checkpoint codec can serialize the injector's
/// future exactly (auto-repairs and re-failures already scheduled).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingOp {
    pub(crate) action: FaultAction,
    pub(crate) target: FaultTarget,
    pub(crate) kind: FaultKind,
}

/// Deterministic engine-side driver of a [`FaultSchedule`].
///
/// Call [`FaultInjector::step`] once per cycle *before* routing; it
/// mutates the ground-truth [`FaultSet`] and returns the events applied
/// this cycle (also appended to [`FaultInjector::trace`]).
pub struct FaultInjector {
    rng: StdRng,
    schedule: FaultSchedule,
    pending: BTreeMap<u64, Vec<PendingOp>>,
    trace: Vec<FaultEvent>,
    // Candidate pools for category-aware random placement; built only
    // for Bernoulli schedules, the only ones that draw targets.
    links_a: Vec<LinkId>,
    links_b: Vec<LinkId>,
    nodes_b: Vec<NodeId>,
    nodes_c: Vec<NodeId>,
    /// Nodes in the cube.
    nodes: u64,
    /// Never fail a node if it would leave fewer than this many healthy.
    min_healthy_nodes: u64,
}

impl FaultInjector {
    /// Build an injector for one cube. `seed` controls only the Bernoulli
    /// placement stream; scripted schedules are RNG-free.
    pub fn new(gc: &GaussianCube, schedule: FaultSchedule, seed: u64) -> FaultInjector {
        let mut pending: BTreeMap<u64, Vec<PendingOp>> = BTreeMap::new();
        if let FaultSchedule::Scripted(faults) = &schedule {
            for f in faults {
                pending.entry(f.cycle).or_default().push(PendingOp {
                    action: FaultAction::Fail,
                    target: f.target,
                    kind: f.kind,
                });
            }
        }
        let (links_a, links_b, nodes_b, nodes_c) =
            if matches!(schedule, FaultSchedule::Bernoulli { .. }) {
                candidate_pools(gc)
            } else {
                Default::default()
            };
        FaultInjector {
            rng: StdRng::seed_from_u64(seed ^ 0xc4u64.rotate_left(56)),
            schedule,
            pending,
            trace: Vec::new(),
            links_a,
            links_b,
            nodes_b,
            nodes_c,
            nodes: gc.num_nodes(),
            min_healthy_nodes: 2,
        }
    }

    /// The events applied so far, in application order.
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Checkpoint view: the raw RNG state of the Bernoulli stream.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Checkpoint view: every scheduled-but-unapplied operation, keyed by
    /// its due cycle.
    pub(crate) fn pending(&self) -> &BTreeMap<u64, Vec<PendingOp>> {
        &self.pending
    }

    /// Overwrite the injector's mutable state from a checkpoint. The
    /// candidate pools and the schedule are derived from the cube and
    /// config (rebuilt by [`FaultInjector::new`]); only the stream
    /// position, the scheduled future, and the applied history move.
    pub(crate) fn restore(
        &mut self,
        rng: [u64; 4],
        pending: BTreeMap<u64, Vec<PendingOp>>,
        trace: Vec<FaultEvent>,
    ) {
        self.rng = StdRng::from_state(rng);
        self.pending = pending;
        self.trace = trace;
    }

    /// Advance to `cycle`: draw any Bernoulli arrival, apply every due
    /// pending operation to `truth`, and return how many events changed
    /// the fault set this cycle.
    pub fn step(&mut self, cycle: u64, truth: &mut FaultSet) -> usize {
        if let FaultSchedule::Bernoulli {
            rate,
            kind,
            mix,
            node_fraction,
        } = self.schedule
        {
            if self.rng.gen_bool(rate.clamp(0.0, 1.0)) {
                if let Some(target) = self.draw_target(mix, node_fraction, truth) {
                    self.pending.entry(cycle).or_default().push(PendingOp {
                        action: FaultAction::Fail,
                        target,
                        kind,
                    });
                }
            }
        }
        let Some(ops) = self.pending.remove(&cycle) else {
            return 0;
        };
        let mut applied = 0;
        for op in ops {
            if self.apply(cycle, op, truth) {
                applied += 1;
            }
        }
        applied
    }

    /// Apply one operation; returns whether the fault set changed.
    fn apply(&mut self, cycle: u64, op: PendingOp, truth: &mut FaultSet) -> bool {
        let changed = match (op.action, op.target) {
            (FaultAction::Fail, FaultTarget::Node(v)) => {
                if truth.is_node_faulty(v) || !self.node_budget_ok(truth) {
                    false
                } else {
                    truth.add_node(v);
                    true
                }
            }
            (FaultAction::Fail, FaultTarget::Link(l)) => {
                if truth.is_link_faulty(l) {
                    false
                } else {
                    truth.add_link(l);
                    true
                }
            }
            (FaultAction::Repair, FaultTarget::Node(v)) => truth.remove_node(v),
            (FaultAction::Repair, FaultTarget::Link(l)) => truth.remove_link(l),
        };
        if !changed {
            return false;
        }
        self.trace.push(FaultEvent {
            cycle,
            action: op.action,
            target: op.target,
        });
        // Schedule the follow-up the persistence class implies.
        match (op.action, op.kind) {
            (FaultAction::Fail, FaultKind::Transient { repair_after }) => {
                self.schedule_op(
                    cycle + repair_after.max(1),
                    PendingOp {
                        action: FaultAction::Repair,
                        ..op
                    },
                );
            }
            (FaultAction::Fail, FaultKind::Intermittent { down_for, period }) => {
                let down = down_for.max(1);
                self.schedule_op(
                    cycle + down,
                    PendingOp {
                        action: FaultAction::Repair,
                        ..op
                    },
                );
                self.schedule_op(
                    cycle + period.max(down + 1),
                    PendingOp {
                        action: FaultAction::Fail,
                        ..op
                    },
                );
            }
            _ => {}
        }
        true
    }

    fn schedule_op(&mut self, cycle: u64, op: PendingOp) {
        self.pending.entry(cycle).or_default().push(op);
    }

    /// Whether another node may fail without dropping below the healthy
    /// floor (the simulator needs at least a source/destination pair).
    fn node_budget_ok(&self, truth: &FaultSet) -> bool {
        self.nodes - truth.faulty_nodes().count() as u64 > self.min_healthy_nodes
    }

    /// Draw a currently-healthy target according to the category mix.
    fn draw_target(
        &mut self,
        mix: CategoryMix,
        node_fraction: f64,
        truth: &FaultSet,
    ) -> Option<FaultTarget> {
        // Split B weight across its node and link candidates using the
        // caller's node fraction; A is links-only, C nodes-only.
        let nf = node_fraction.clamp(0.0, 1.0);
        let pools: [(f64, PoolId); 4] = [
            (mix.a.max(0.0) * (1.0 - nf).max(0.05), PoolId::LinksA),
            (mix.b.max(0.0) * (1.0 - nf).max(0.05), PoolId::LinksB),
            (mix.b.max(0.0) * nf.max(0.05), PoolId::NodesB),
            (mix.c.max(0.0) * nf.max(0.05), PoolId::NodesC),
        ];
        let usable: Vec<(f64, PoolId)> = pools
            .into_iter()
            .filter(|&(w, p)| w > 0.0 && !self.pool_is_empty(p))
            .collect();
        let total: f64 = usable.iter().map(|(w, _)| w).sum();
        if total <= 0.0 {
            return None;
        }
        let mut pick = self.rng.gen_range(0.0..total);
        let mut chosen = usable.last()?.1;
        for (w, p) in &usable {
            if pick < *w {
                chosen = *p;
                break;
            }
            pick -= w;
        }
        self.draw_from_pool(chosen, truth)
    }

    fn pool_is_empty(&self, p: PoolId) -> bool {
        match p {
            PoolId::LinksA => self.links_a.is_empty(),
            PoolId::LinksB => self.links_b.is_empty(),
            PoolId::NodesB => self.nodes_b.is_empty(),
            PoolId::NodesC => self.nodes_c.is_empty(),
        }
    }

    /// Uniform draw of a healthy candidate from one pool: bounded random
    /// probes, then a seeded-offset scan (no low-index bias).
    fn draw_from_pool(&mut self, p: PoolId, truth: &FaultSet) -> Option<FaultTarget> {
        let healthy_node = |v: &NodeId, t: &FaultSet| !t.is_node_faulty(*v);
        let healthy_link = |l: &LinkId, t: &FaultSet| !t.is_link_faulty(*l);
        match p {
            PoolId::NodesB | PoolId::NodesC => {
                if !self.node_budget_ok(truth) {
                    return None;
                }
                let pool: &[NodeId] = if p == PoolId::NodesB {
                    &self.nodes_b
                } else {
                    &self.nodes_c
                };
                pick_healthy(&mut self.rng, pool, truth, healthy_node).map(FaultTarget::Node)
            }
            PoolId::LinksA | PoolId::LinksB => {
                let pool: &[LinkId] = if p == PoolId::LinksA {
                    &self.links_a
                } else {
                    &self.links_b
                };
                pick_healthy(&mut self.rng, pool, truth, healthy_link).map(FaultTarget::Link)
            }
        }
    }
}

/// The candidate pools `(links_a, links_b, nodes_b, nodes_c)` in one
/// pass over the nodes, each in `gc.links()` / node order: a link is
/// A-category iff its dimension is `>= α` (`link_category`), and a node
/// is C-category iff it owns such a link (`node_category`).
fn candidate_pools(gc: &GaussianCube) -> (Vec<LinkId>, Vec<LinkId>, Vec<NodeId>, Vec<NodeId>) {
    let alpha = gc.alpha();
    let (mut links_a, mut links_b) = (Vec::new(), Vec::new());
    let (mut nodes_b, mut nodes_c) = (Vec::new(), Vec::new());
    for v in 0..gc.num_nodes() {
        let node = NodeId(v);
        let mut owns_high = false;
        for c in (0..gc.n()).filter(|&c| gc.has_link(node, c)) {
            owns_high |= c >= alpha;
            if !node.bit(c) {
                let pool = if c >= alpha {
                    &mut links_a
                } else {
                    &mut links_b
                };
                pool.push(LinkId::new(node, c));
            }
        }
        if owns_high {
            nodes_c.push(node);
        } else {
            nodes_b.push(node);
        }
    }
    (links_a, links_b, nodes_b, nodes_c)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PoolId {
    LinksA,
    LinksB,
    NodesB,
    NodesC,
}

/// Uniform pick of an element satisfying `ok`: up to 32 random probes,
/// then a scan from a random offset so dense fault sets carry no
/// positional bias.
fn pick_healthy<T: Copy>(
    rng: &mut StdRng,
    pool: &[T],
    truth: &FaultSet,
    ok: impl Fn(&T, &FaultSet) -> bool,
) -> Option<T> {
    if pool.is_empty() {
        return None;
    }
    for _ in 0..32 {
        let cand = pool[rng.gen_range(0..pool.len())];
        if ok(&cand, truth) {
            return Some(cand);
        }
    }
    let start = rng.gen_range(0..pool.len());
    (0..pool.len())
        .map(|i| pool[(start + i) % pool.len()])
        .find(|cand| ok(cand, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_routing::faults::{link_category, node_category, FaultCategory};

    /// The fused one-pass pool construction equals the category
    /// functions applied to `links()` and the node range, order included.
    #[test]
    fn candidate_pools_match_the_category_functions() {
        for (n, m) in [(6u32, 2u64), (8, 4), (7, 8)] {
            let g = GaussianCube::new(n, m).unwrap();
            let schedule = FaultSchedule::Bernoulli {
                rate: 0.1,
                kind: FaultKind::Permanent,
                mix: CategoryMix::default(),
                node_fraction: 0.5,
            };
            let inj = FaultInjector::new(&g, schedule, 1);
            let is_a = |l: &LinkId| link_category(&g, *l) == FaultCategory::A;
            let is_c = |v: &NodeId| node_category(&g, *v) == FaultCategory::C;
            let (a, b): (Vec<LinkId>, Vec<LinkId>) = g.links().into_iter().partition(is_a);
            let (c, nb): (Vec<NodeId>, Vec<NodeId>) =
                (0..g.num_nodes()).map(NodeId).partition(is_c);
            assert_eq!((inj.links_a, inj.links_b), (a, b), "GC({n},{m}) links");
            assert_eq!((inj.nodes_c, inj.nodes_b), (c, nb), "GC({n},{m}) nodes");
        }
    }

    /// Only Bernoulli placement reads the pools, so the other schedules
    /// build none; the healthy-node floor still holds for scripted node
    /// faults, which take the node total from the cube.
    #[test]
    fn only_bernoulli_schedules_build_pools() {
        let g = GaussianCube::new(4, 2).unwrap();
        let every_node = FaultSchedule::Scripted(
            (0..g.num_nodes())
                .map(|v| TimedFault {
                    cycle: v,
                    target: FaultTarget::Node(NodeId(v)),
                    kind: FaultKind::Permanent,
                })
                .collect(),
        );
        for schedule in [FaultSchedule::None, every_node.clone()] {
            let inj = FaultInjector::new(&g, schedule, 1);
            assert!(inj.links_a.is_empty() && inj.links_b.is_empty());
            assert!(inj.nodes_b.is_empty() && inj.nodes_c.is_empty());
        }
        let mut inj = FaultInjector::new(&g, every_node, 1);
        let mut truth = FaultSet::new();
        for c in 0..g.num_nodes() {
            inj.step(c, &mut truth);
        }
        let healthy = g.num_nodes() - truth.faulty_nodes().count() as u64;
        assert_eq!(
            healthy, 2,
            "the floor stops the script at two healthy nodes"
        );
    }

    fn gc() -> GaussianCube {
        GaussianCube::new(8, 4).unwrap()
    }

    fn run_trace(schedule: FaultSchedule, seed: u64, cycles: u64) -> (Vec<FaultEvent>, FaultSet) {
        let g = gc();
        let mut inj = FaultInjector::new(&g, schedule, seed);
        let mut truth = FaultSet::new();
        for c in 0..cycles {
            inj.step(c, &mut truth);
        }
        (inj.trace().to_vec(), truth)
    }

    #[test]
    fn scripted_timeline_applies_in_order() {
        let v = NodeId(5);
        let l = LinkId::new(NodeId(0), 4);
        let schedule = FaultSchedule::Scripted(vec![
            TimedFault {
                cycle: 10,
                target: FaultTarget::Node(v),
                kind: FaultKind::Permanent,
            },
            TimedFault {
                cycle: 20,
                target: FaultTarget::Link(l),
                kind: FaultKind::Transient { repair_after: 5 },
            },
        ]);
        let (trace, truth) = run_trace(schedule, 0, 100);
        assert_eq!(
            trace,
            vec![
                FaultEvent {
                    cycle: 10,
                    action: FaultAction::Fail,
                    target: FaultTarget::Node(v)
                },
                FaultEvent {
                    cycle: 20,
                    action: FaultAction::Fail,
                    target: FaultTarget::Link(l)
                },
                FaultEvent {
                    cycle: 25,
                    action: FaultAction::Repair,
                    target: FaultTarget::Link(l)
                },
            ]
        );
        assert!(truth.is_node_faulty(v), "permanent fault persists");
        assert!(!truth.is_link_faulty(l), "transient fault repaired");
    }

    #[test]
    fn intermittent_fault_cycles_down_and_up() {
        let l = LinkId::new(NodeId(0), 4);
        let schedule = FaultSchedule::Scripted(vec![TimedFault {
            cycle: 0,
            target: FaultTarget::Link(l),
            kind: FaultKind::Intermittent {
                down_for: 3,
                period: 10,
            },
        }]);
        let (trace, _) = run_trace(schedule, 0, 35);
        let fails: Vec<u64> = trace
            .iter()
            .filter(|e| e.action == FaultAction::Fail)
            .map(|e| e.cycle)
            .collect();
        let repairs: Vec<u64> = trace
            .iter()
            .filter(|e| e.action == FaultAction::Repair)
            .map(|e| e.cycle)
            .collect();
        assert_eq!(fails, vec![0, 10, 20, 30]);
        assert_eq!(repairs, vec![3, 13, 23, 33]);
    }

    #[test]
    fn bernoulli_trace_is_deterministic_in_seed() {
        let schedule = FaultSchedule::Bernoulli {
            rate: 0.05,
            kind: FaultKind::Transient { repair_after: 40 },
            mix: CategoryMix::default(),
            node_fraction: 0.5,
        };
        let (t1, f1) = run_trace(schedule.clone(), 7, 2_000);
        let (t2, f2) = run_trace(schedule.clone(), 7, 2_000);
        let (t3, _) = run_trace(schedule, 8, 2_000);
        assert!(!t1.is_empty(), "rate 0.05 over 2000 cycles must fire");
        assert_eq!(t1, t2, "same seed ⇒ identical event trace");
        assert_eq!(f1, f2, "same seed ⇒ identical final fault set");
        assert_ne!(t1, t3, "different seed ⇒ different trace");
    }

    #[test]
    fn category_mix_respects_pure_a() {
        let g = gc();
        let schedule = FaultSchedule::Bernoulli {
            rate: 0.2,
            kind: FaultKind::Permanent,
            mix: CategoryMix {
                a: 1.0,
                b: 0.0,
                c: 0.0,
            },
            node_fraction: 0.0,
        };
        let (trace, _) = run_trace(schedule, 3, 500);
        assert!(!trace.is_empty());
        for e in &trace {
            match e.target {
                FaultTarget::Link(l) => {
                    assert_eq!(
                        link_category(&g, l),
                        FaultCategory::A,
                        "pure-A mix placed {l}"
                    );
                }
                FaultTarget::Node(v) => panic!("pure-A link mix placed a node fault at {v}"),
            }
        }
    }

    #[test]
    fn node_floor_is_respected_under_saturation() {
        let schedule = FaultSchedule::Bernoulli {
            rate: 1.0,
            kind: FaultKind::Permanent,
            mix: CategoryMix {
                a: 0.0,
                b: 1.0,
                c: 1.0,
            },
            node_fraction: 1.0,
        };
        let (_, truth) = run_trace(schedule, 1, 5_000);
        let g = gc();
        let healthy = g.num_nodes() - truth.faulty_nodes().count() as u64;
        assert!(
            healthy >= 2,
            "at least a source/destination pair must survive"
        );
    }
}
