//! The full fault-tolerant Gaussian Cube routing strategy (paper §5,
//! Theorem 5) — the headline contribution.
//!
//! FTGCR executes FFGCR's source-computed plan (tree walk + per-class
//! dimension flips), absorbing faults with the two substrates:
//!
//! * **A-category faults** (links in dimensions `≥ α`) perturb the flip
//!   stages inside a `GEEC(α,k,t)` subcube; adaptive fault-tolerant
//!   hypercube routing ([`crate::hypercube_ft`]) routes around them
//!   (Theorem 3).
//! * **B/C-category faults** can block a Gaussian-tree edge crossing; the
//!   crossing neighbourhood is an exchanged hypercube
//!   (`EH(|Dim(p)|, |Dim(q)|)`), so the FREH mechanics
//!   ([`crate::freh::route_crossing`]) cross at a spare column and bounce to
//!   restore perturbed coordinates (Theorems 4 and 5).
//!
//! **Flip scheduling (our addition).** The paper's proof sketch walks the
//! packet through exact intermediate corners (the node of class `k` whose
//! `Dim(k)` bits are already final); it does not address the case where such
//! a corner is itself a faulty *node*. We narrow that gap at plan time: the
//! source simulates the corner sequence and, if a corner is faulty, searches
//! for a schedule with healthy corners by moving flips between visits of a
//! class, adding spare flip pairs, or inserting two-hop bounces (32 attempts,
//! at most 4 bounces). The search can miss a schedule that exists — node 3
//! faulty in `GC(8, 4)` meets the Theorem-5 precondition yet strands 0 → 2,
//! which BFS connects in 11 hops — and a repair may cost more than two hops
//! per faulty corner; ROADMAP.md's first item replaces it with a complete
//! search. This uses exactly the fault knowledge the paper grants a source
//! (assumption 4 of §6: status of B/C faults for same-ending nodes).
//!
//! **Fault-free fast path.** Theorem 5 keeps fault handling local, so most
//! plans under sparse faults meet none, and for those the repair search and
//! the crossings are skipped: the FFGCR realisation is returned with one
//! crossing counted per tree edge. Corner `i` is the node after the crossing
//! into walk position `i` and that position's flips. The *region* of
//! position `i` is the class subcube `Dim(α, walk[i])` through corner `i`
//! when the position flips anything (position 0 included), and corner `i`
//! alone otherwise. The fast path runs when no faulty node and no endpoint
//! of a faulty link lies in any position's region; every other plan takes
//! the slow path unchanged. A crossing link needs no test of its own: its
//! endpoints, corner `i − 1` and the landing, lie in the regions of
//! positions `i − 1` and `i`. The result is exactly the slow path's:
//!
//! 1. `repair_exec_plan` returns the default schedule unchanged, because
//!    every corner lies in a region and so is healthy.
//! 2. At position 0, `route_adaptive` on a fault-free subcube sees equal
//!    safety levels everywhere and flips the pending dimensions in
//!    ascending order, which is FFGCR's order.
//! 3. A crossing `p → q` starts at corner `i − 1` with `ideal == cur`,
//!    since a crossing flips only `q`'s dimensions. `best_usable_column`
//!    ranks that column first, with key `(0, 0, 0, 0, ·)`, whenever its
//!    exchange link, its landing and its exit corner (corner `i`) are
//!    healthy, so faults elsewhere in `p`'s subcube cannot change the
//!    choice.
//! 4. After landing, `route_adaptive` runs inside `q`'s subcube at the
//!    landing and flips in ascending order when that subcube is fault-free.
//!    When position `i` has no flips it is never called.
//!
//! With α = 0 the whole cube is one subcube and the adaptive route is taken
//! directly. The guard is not "the FFGCR route's own nodes and links are
//! healthy": a fault beside the route inside a flip subcube changes the
//! safety levels `route_adaptive` steers by, and with them the order of
//! the flips.

use std::collections::{BTreeSet, HashSet};

use gcube_topology::classes::dims;
use gcube_topology::{GaussianCube, GaussianTree, NodeId, Topology};

use crate::faults::FaultSet;
use crate::ffgcr;
use crate::freh::{route_crossing, CrossingStats};
use crate::hypercube_ft::{route_adaptive, to_host_path, VirtualCube};
use crate::plan_cache::{PlanCache, WalkPosition, WalkRoute};
use crate::route::{Route, RoutingError, Trajectory};

/// Statistics aggregated over a full FTGCR route.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtgcrStats {
    /// Exchange-link traversals (≥ walk length − 1; extras are fault
    /// bounces).
    pub crossings: u32,
    /// Crossing columns masked due to faults.
    pub masked_columns: u32,
    /// Whether any crossing needed the whole-block BFS fallback (never,
    /// under the Theorem-5 preconditions).
    pub bfs_fallback: bool,
    /// Plan repairs: flip moves between visits due to faulty corners.
    pub flip_moves: u32,
    /// Plan repairs: two-hop bounces inserted to create extra visits.
    pub bounces_inserted: u32,
}

impl FtgcrStats {
    fn absorb(&mut self, cs: &CrossingStats) {
        self.crossings += cs.crossings;
        self.masked_columns += cs.masked_columns;
        self.bfs_fallback |= cs.bfs_fallback;
    }
}

/// An executable plan: tree walk plus a flip mask per walk position.
#[derive(Clone, Debug)]
struct ExecPlan {
    walk: Vec<u64>,
    flips_at: Vec<u64>,
}

impl ExecPlan {
    /// The schedule of a default replay's steps (see [`region_clear`]).
    fn from_steps(steps: impl Iterator<Item = (Option<u32>, u64, u64)>) -> ExecPlan {
        let (walk, flips_at) = steps.map(|(_, k, flips)| (k, flips)).unzip();
        ExecPlan { walk, flips_at }
    }

    /// The corner the packet occupies after the crossing into walk position
    /// `i` and that position's flips.
    fn corners(&self, gc: &GaussianCube, s: NodeId) -> Vec<NodeId> {
        let tree = GaussianTree::new(gc.alpha()).expect("alpha within cap");
        let mut state = s.0;
        let mut out = Vec::with_capacity(self.walk.len());
        for (i, &k) in self.walk.iter().enumerate() {
            if i > 0 {
                let c0 = tree
                    .edge_dim(NodeId(self.walk[i - 1]), NodeId(k))
                    .expect("walk follows tree edges");
                state ^= 1u64 << c0;
            }
            state ^= self.flips_at[i];
            out.push(NodeId(state));
        }
        out
    }
}

/// Build the default schedule (all flips at the first visit of each class)
/// from the FFGCR plan.
fn default_exec_plan(plan: &ffgcr::Plan) -> ExecPlan {
    let walk: Vec<u64> = plan.tree_walk.iter().map(|n| n.0).collect();
    let mut flips_at = vec![0u64; walk.len()];
    let mut seen: HashSet<u64> = HashSet::new();
    for (i, &k) in walk.iter().enumerate() {
        if seen.insert(k) {
            if let Some(ds) = plan.flips.get(&k) {
                flips_at[i] = ds.iter().fold(0u64, |m, &c| m | (1u64 << c));
            }
        }
    }
    ExecPlan { walk, flips_at }
}

/// Repair the schedule so every corner is a healthy node: move single flips
/// between visits of the same class, inserting a bounce (q → r → q) when a
/// class needs a second visit. Returns the repaired plan and repair counts,
/// or `None` when no healthy schedule was found within the search budget.
fn repair_exec_plan(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    mut ep: ExecPlan,
    stats: &mut FtgcrStats,
) -> Option<ExecPlan> {
    let tree = GaussianTree::new(gc.alpha()).expect("alpha within cap");
    let mut bounces = 0;
    'outer: for _attempt in 0..32 {
        let corners = ep.corners(gc, s);
        let bad_i = match corners.iter().position(|&c| faults.is_node_faulty(c)) {
            None => return Some(ep),
            Some(i) => i,
        };
        let q = ep.walk[bad_i];
        // Candidate moves: shift one dim of class kk between two of its
        // visits a ≤ bad_i < b; this toggles that bit in corners[a..b].
        let visit_indices = |kk: u64, ep: &ExecPlan| -> Vec<usize> {
            ep.walk
                .iter()
                .enumerate()
                .filter(|(_, &w)| w == kk)
                .map(|(i, _)| i)
                .collect()
        };
        // Deterministic candidate order: HashSet iteration order varies
        // per instance, which would make repeated calls repair the same
        // plan differently.
        let classes: BTreeSet<u64> = ep.walk.iter().copied().collect();
        for &kk in &classes {
            let vis = visit_indices(kk, &ep);
            for &a in &vis {
                for &b in &vis {
                    if a >= b || b <= bad_i || a > bad_i {
                        continue;
                    }
                    // Try moving each dim currently at `a` to `b`, and each
                    // dim at `b` to `a`.
                    for (from, to) in [(a, b), (b, a)] {
                        let mut mask = ep.flips_at[from];
                        while mask != 0 {
                            let c = mask.trailing_zeros();
                            mask &= mask - 1;
                            let mut cand = ep.clone();
                            cand.flips_at[from] &= !(1u64 << c);
                            cand.flips_at[to] |= 1u64 << c;
                            let ok = cand
                                .corners(gc, s)
                                .iter()
                                .all(|&x| !faults.is_node_faulty(x));
                            if ok {
                                stats.flip_moves += 1;
                                ep = cand;
                                continue 'outer;
                            }
                        }
                    }
                }
            }
        }
        // Spare pairs: temporarily flip an *extra* dimension `c ∈ Dim(kk)`
        // at one visit of `kk` and undo it at a later visit — toggling bit
        // `c` in every corner between. This is the only device that can
        // clear a *forced* corner (e.g. the pre-final corner `d ⊕ 2^c₀`
        // when that node is the faulty one); cost: 2 extra hops.
        for &kk in &classes {
            let vis = visit_indices(kk, &ep);
            for &a in &vis {
                for &b in &vis {
                    if a > bad_i || b <= bad_i {
                        continue;
                    }
                    for c in dims(gc.n(), gc.alpha(), kk) {
                        let bit = 1u64 << c;
                        if ep.flips_at[a] & bit != 0 || ep.flips_at[b] & bit != 0 {
                            continue; // not a spare at these visits
                        }
                        let mut cand = ep.clone();
                        cand.flips_at[a] |= bit;
                        cand.flips_at[b] |= bit;
                        let ok = cand
                            .corners(gc, s)
                            .iter()
                            .all(|&x| !faults.is_node_faulty(x));
                        if ok {
                            stats.flip_moves += 1;
                            ep = cand;
                            continue 'outer;
                        }
                    }
                }
            }
        }
        // No single move fixes everything at once: take any move that fixes
        // THIS corner (progress), or insert a bounce to create a later visit
        // for q.
        for &kk in &classes {
            let vis = visit_indices(kk, &ep);
            for &a in &vis {
                for &b in &vis {
                    if a > bad_i || b <= bad_i {
                        continue;
                    }
                    let mut mask = ep.flips_at[a];
                    while mask != 0 {
                        let c = mask.trailing_zeros();
                        mask &= mask - 1;
                        let mut cand = ep.clone();
                        cand.flips_at[a] &= !(1u64 << c);
                        cand.flips_at[b] |= 1u64 << c;
                        let fixed = !faults.is_node_faulty(cand.corners(gc, s)[bad_i]);
                        if fixed {
                            stats.flip_moves += 1;
                            ep = cand;
                            continue 'outer;
                        }
                    }
                }
            }
        }
        // Insert a bounce after bad_i: … q r q … (r = any tree neighbour).
        if bounces >= 4 {
            return None;
        }
        let qn = NodeId(q);
        let neighbour = tree
            .neighbors(qn)
            .into_iter()
            .next()
            .expect("every tree node has a neighbour for α ≥ 1");
        ep.walk.insert(bad_i + 1, q);
        ep.walk.insert(bad_i + 1, neighbour.0);
        ep.flips_at.insert(bad_i + 1, 0);
        ep.flips_at.insert(bad_i + 1, 0);
        bounces += 1;
        stats.bounces_inserted += 1;
    }
    None
}

/// Route from `s` to `d` in `GC(n, 2^α)` under the fault set.
///
/// Returns the route and detour statistics. With an empty fault set this
/// degenerates to FFGCR (optimal). Under faults the route is livelock-free
/// (masked spare columns and dimensions), but delivery is not guaranteed
/// even under the Theorem-3/5 preconditions: the corner repair is a
/// bounded search that can miss a healthy schedule (see the module doc),
/// and then this returns an error for a connected pair.
pub fn route(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
) -> Result<(Route, FtgcrStats), RoutingError> {
    route_impl(gc, faults, s, d, None)
}

/// FTGCR with the plan stage served from a [`PlanCache`]: identical output
/// to [`route`] (property-tested), with the tree walk memoised instead of
/// recomputed per packet. The fault-free fast path (module doc) tests the
/// cached walk against the fault set and, when no fault lies in its
/// region, replays it straight into the route, so such a plan allocates
/// only the route. Other plans build the schedule and run fault repair and
/// crossing detours per packet. The cache is keyed purely by topology, so
/// fault events never invalidate it.
pub fn route_cached(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
    cache: &PlanCache,
) -> Result<(Route, FtgcrStats), RoutingError> {
    route_impl(gc, faults, s, d, Some(cache))
}

/// [`route_cached`] in the form the simulator forwards: at 1 ≤ α ≤ 3 a
/// plan that takes the fast path is its FFGCR route in walk form, so it
/// allocates nothing. Every other plan is [`route_cached`]'s explicit
/// route; either way the hops are the same.
pub fn plan_cached(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
    cache: &PlanCache,
) -> Result<Trajectory, RoutingError> {
    check_endpoints(gc, faults, s, d)?;
    if gc.alpha() > 0 && cache.matches(gc) {
        if let Some(guarded) = guard_walk(cache, faults, s, d) {
            return match guarded {
                Ok(w) => Ok(Trajectory::Walk(w)),
                Err((ep, hops)) => {
                    execute_plan(gc, faults, s, d, ep, hops).map(|(r, _)| Trajectory::Route(r))
                }
            };
        }
    }
    route_impl(gc, faults, s, d, Some(cache)).map(|(r, _)| Trajectory::Route(r))
}

fn route_impl(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
    cache: Option<&PlanCache>,
) -> Result<(Route, FtgcrStats), RoutingError> {
    check_endpoints(gc, faults, s, d)?;
    let (n, alpha) = (gc.n(), gc.alpha());

    // α = 0: GC(n,1) is the binary hypercube; route adaptively in one cube.
    if alpha == 0 {
        let all_dims: Vec<u32> = (0..n).collect();
        let vc = VirtualCube::from_host(gc, faults, s, &all_dims);
        let (coords, _) = route_adaptive(&vc, vc.coord(s), vc.coord(d))
            .ok_or(RoutingError::Unreachable { from: s, to: d })?;
        return Ok((
            Route::new(to_host_path(&vc, &coords)),
            FtgcrStats::default(),
        ));
    }

    // The default schedule flips each class's pending dimensions at its
    // first visit, whether replayed from the cache or rebuilt from scratch
    // — both paths produce the identical ExecPlan. A plan whose region
    // holds no fault is replayed before any repair or crossing runs.
    let (ep, plan_hops) = match cache.filter(|c| c.is_active() && c.matches(gc)) {
        Some(c) => match guard_walk(c, faults, s, d) {
            Some(Ok(w)) => {
                let rule = c.rule().expect("walk routes come with their rule");
                let high = rule.high_flips(s, d);
                let steps = default_steps(rule.positions(&w), high, |k| rule.class_dims(k));
                return Ok(replay(s, w.hops(), steps));
            }
            Some(Err(slow)) => slow,
            None => {
                let (walk, high) = c.walk_and_flips(gc, s, d);
                let steps = default_steps(walk.positions(), high, |k| c.class_dims(k));
                let hops = walk.tree_hops() + high.count_ones() as usize;
                if region_clear(faults, s, steps.clone(), |k| c.class_dims(k)) {
                    return Ok(replay(s, hops, steps));
                }
                (ExecPlan::from_steps(steps), hops)
            }
        },
        None => {
            let plan = ffgcr::plan(gc, s, d);
            let hops = plan.hops();
            let ep = default_exec_plan(&plan);
            if let Some(fast) = fast_uncached(gc, &ep, hops, faults, s) {
                return Ok(fast);
            }
            (ep, hops)
        }
    };
    execute_plan(gc, faults, s, d, ep, plan_hops)
}

/// The errors every FTGCR route reports before planning: an endpoint
/// outside the cube, or a faulty endpoint.
fn check_endpoints(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
) -> Result<(), RoutingError> {
    if !gc.contains(s) {
        return Err(RoutingError::OutOfRange(s));
    }
    if !gc.contains(d) {
        return Err(RoutingError::OutOfRange(d));
    }
    if faults.is_node_faulty(s) {
        return Err(RoutingError::SourceFaulty(s));
    }
    if faults.is_node_faulty(d) {
        return Err(RoutingError::DestFaulty(d));
    }
    Ok(())
}

/// A cached walk's default schedule: per position, the crossing into
/// it, its class, and the flips FFGCR makes there — the class's pending
/// dimensions of `high` at its first visit.
fn default_steps(
    positions: impl Iterator<Item = WalkPosition> + Clone,
    high: u64,
    class_dims: impl Fn(u64) -> u64 + Clone,
) -> impl Iterator<Item = (Option<u32>, u64, u64)> + Clone {
    positions.map(move |(cross, k, first)| {
        let flips = if first { class_dims(k) & high } else { 0 };
        (cross, k, flips)
    })
}

/// A default schedule bound for the slow path, with its planned hops.
type SlowPlan = (ExecPlan, usize);

/// The fast-path guard over the walk-form plan `s → d` (α ≤ 3; `None`
/// otherwise), after one counted cache lookup: the walk when no fault
/// lies in its region, else the default schedule for the slow path.
fn guard_walk(
    c: &PlanCache,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
) -> Option<Result<WalkRoute, SlowPlan>> {
    let rule = c.rule()?;
    let w = c.walk_route(s, d)?;
    let high = rule.high_flips(s, d);
    let steps = default_steps(rule.positions(&w), high, |k| rule.class_dims(k));
    let clear = region_clear(faults, s, steps.clone(), |k| rule.class_dims(k));
    Some(if clear {
        Ok(w)
    } else {
        Err((ExecPlan::from_steps(steps), w.hops()))
    })
}

/// The fast path over an uncached default schedule.
fn fast_uncached(
    gc: &GaussianCube,
    ep: &ExecPlan,
    hops: usize,
    faults: &FaultSet,
    s: NodeId,
) -> Option<(Route, FtgcrStats)> {
    let (n, alpha) = (gc.n(), gc.alpha());
    let tree = GaussianTree::new(alpha).expect("alpha within cap");
    let steps = ep.walk.iter().enumerate().map(|(i, &k)| {
        let cross = i.checked_sub(1).map(|j| {
            tree.edge_dim(NodeId(ep.walk[j]), NodeId(k))
                .expect("plan walk follows tree edges")
        });
        (cross, k, ep.flips_at[i])
    });
    let class_dims = |k| dims(n, alpha, k).iter().fold(0u64, |m, &c| m | (1u64 << c));
    region_clear(faults, s, steps.clone(), class_dims).then(|| replay(s, hops, steps))
}

/// Whether no fault lies in the region the slow path consults for a
/// default schedule (module doc, "Fault-free fast path").
///
/// `steps` yields, per walk position, the crossing dimension into it (none
/// at position 0), its class and the dimensions it flips; `class_dims(k)`
/// is `Dim(α, k)` as a mask.
fn region_clear(
    faults: &FaultSet,
    s: NodeId,
    steps: impl Iterator<Item = (Option<u32>, u64, u64)>,
    class_dims: impl Fn(u64) -> u64,
) -> bool {
    let mut cur = s;
    for (cross, k, flips) in steps {
        if let Some(c0) = cross {
            cur = cur.flip(c0);
        }
        let free = if flips != 0 { class_dims(k) } else { 0 };
        if region_has_fault(faults, cur, free) {
            return false;
        }
        cur = NodeId(cur.0 ^ flips);
    }
    true
}

/// Replay a default schedule from `s`, its flips in ascending order. The
/// stats count the one crossing per tree edge the slow path counts on a
/// fault-free plan.
fn replay(
    s: NodeId,
    hops: usize,
    steps: impl Iterator<Item = (Option<u32>, u64, u64)>,
) -> (Route, FtgcrStats) {
    let mut stats = FtgcrStats::default();
    let mut nodes = Vec::with_capacity(hops + 1);
    let mut cur = s;
    nodes.push(cur);
    for (cross, _, mut flips) in steps {
        if let Some(c0) = cross {
            cur = cur.flip(c0);
            nodes.push(cur);
            stats.crossings += 1;
        }
        while flips != 0 {
            cur = cur.flip(flips.trailing_zeros());
            flips &= flips - 1;
            nodes.push(cur);
        }
    }
    (Route::new(nodes), stats)
}

/// Whether a faulty node, or an endpoint of a faulty link, lies in the
/// subcube through `anchor` spanned by the dimensions in `free`.
fn region_has_fault(faults: &FaultSet, anchor: NodeId, free: u64) -> bool {
    let inside = |v: NodeId| (v.0 ^ anchor.0) & !free == 0;
    faults.faulty_nodes().any(inside)
        || faults.faulty_links().any(|l| {
            let (a, b) = l.endpoints();
            inside(a) || inside(b)
        })
}

/// The slow path: repair the schedule's corners, then run every flip
/// stage and every crossing through the fault-tolerant substrates.
fn execute_plan(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
    ep: ExecPlan,
    plan_hops: usize,
) -> Result<(Route, FtgcrStats), RoutingError> {
    let mut stats = FtgcrStats::default();
    let (n, alpha) = (gc.n(), gc.alpha());
    let ep = repair_exec_plan(gc, faults, s, ep, &mut stats)
        .ok_or(RoutingError::Unreachable { from: s, to: d })?;
    let corners = ep.corners(gc, s);
    debug_assert_eq!(*corners.last().unwrap(), d, "schedule must end at d");

    let tree = GaussianTree::new(alpha).expect("alpha within cap");
    let mut nodes = vec![s];
    let mut cur = s;

    // Per-crossing hop budget: plan size + generous fault allowance.
    let budget = (plan_hops + 2 * faults.len() + 8) * 4 + 16;

    for (i, &k) in ep.walk.iter().enumerate() {
        let target = corners[i];
        if i == 0 {
            if target != cur {
                // Flips at the source's own class, via adaptive subcube
                // routing (A faults tolerated).
                let dim_set = dims(n, alpha, k);
                let vc = VirtualCube::from_host(gc, faults, cur, &dim_set);
                let (coords, _) = route_adaptive(&vc, vc.coord(cur), vc.coord(target))
                    .ok_or(RoutingError::Unreachable { from: s, to: d })?;
                let seg = to_host_path(&vc, &coords);
                nodes.extend_from_slice(&seg[1..]);
                cur = target;
            }
            continue;
        }
        let p = ep.walk[i - 1];
        let c0 = tree
            .edge_dim(NodeId(p), NodeId(k))
            .expect("plan walk follows tree edges");
        let dims_p = dims(n, alpha, p);
        let dims_q = dims(n, alpha, k);
        // `route_crossing` keys the sides off bit c₀ of the node.
        let (dims0, dims1) = if NodeId(p).bit(c0) {
            (dims_q, dims_p)
        } else {
            (dims_p, dims_q)
        };
        let (seg, cs) = route_crossing(gc, faults, &dims0, &dims1, c0, cur, target, budget)
            .ok_or(RoutingError::Unreachable { from: s, to: d })?;
        stats.absorb(&cs);
        nodes.extend_from_slice(&seg[1..]);
        cur = target;
    }

    debug_assert_eq!(cur, d, "plan execution must land on the destination");
    if cur != d {
        return Err(RoutingError::DetourBudgetExceeded { stuck_at: cur });
    }
    Ok((Route::new(nodes), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{theorem3_precondition_guaranteed, theorem5_precondition};
    use gcube_topology::search;
    use gcube_topology::{LinkId, NoFaults};

    /// Deterministic xorshift for reproducible fault sampling.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn fault_free_ftgcr_equals_ffgcr() {
        for (n, m) in [(6u32, 2u64), (7, 4), (6, 8), (8, 2)] {
            let gc = GaussianCube::new(n, m).unwrap();
            let f = FaultSet::new();
            for s in (0..gc.num_nodes()).step_by(5) {
                for d in (0..gc.num_nodes()).step_by(7) {
                    let (r, stats) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                    r.validate(&gc, &f).unwrap();
                    let ff = ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap();
                    assert_eq!(r.hops(), ff.hops(), "GC({n},{m}) {s}->{d}");
                    assert!(!stats.bfs_fallback);
                    assert_eq!(stats.masked_columns, 0);
                    assert_eq!(stats.flip_moves, 0);
                }
            }
        }
    }

    #[test]
    fn alpha_zero_is_adaptive_hypercube() {
        let gc = GaussianCube::new(6, 1).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(7));
        f.add_link(LinkId::new(NodeId(0), 3));
        for s in 0..64u64 {
            if f.is_node_faulty(NodeId(s)) {
                continue;
            }
            for d in (0..64u64).step_by(3) {
                if f.is_node_faulty(NodeId(d)) {
                    continue;
                }
                let (r, _) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                r.validate(&gc, &f).unwrap();
            }
        }
    }

    #[test]
    fn theorem3_regime_delivery_and_detour_bound() {
        // Only A-category link faults, below the guaranteed per-GEEC bound:
        // delivery for every healthy pair with bounded detours and no BFS
        // fallback. Detour accounting: each fault can force one spare
        // (2 hops) in each leg that meets it; legs per class ≤ 2, so the
        // conservative bound is 4 hops per fault.
        let gc = GaussianCube::new(9, 2).unwrap();
        let mut rng = Rng(0xabcdef1234567890);
        let mut tested = 0;
        let mut worst_extra = 0usize;
        for _trial in 0..60 {
            let mut f = FaultSet::new();
            for _ in 0..1 + (rng.next() % 3) {
                let v = NodeId(rng.next() % gc.num_nodes());
                let high: Vec<u32> = gc.link_dims(v).into_iter().filter(|&c| c >= 1).collect();
                if high.is_empty() {
                    continue;
                }
                let dim = high[(rng.next() % high.len() as u64) as usize];
                f.add_link(LinkId::new(v, dim));
            }
            if !theorem3_precondition_guaranteed(&gc, &f) {
                continue;
            }
            tested += 1;
            let fcount = f.len();
            for s in (0..gc.num_nodes()).step_by(11) {
                for d in (0..gc.num_nodes()).step_by(13) {
                    let (r, stats) = route(&gc, &f, NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("{s}->{d}: {e} with {f:?}"));
                    r.validate(&gc, &f).unwrap();
                    let opt = ffgcr::route_len(&gc, NodeId(s), NodeId(d)) as usize;
                    worst_extra = worst_extra.max(r.hops() - opt.min(r.hops()));
                    assert!(
                        r.hops() <= opt + 4 * fcount,
                        "detour bound: {s}->{d} hops={} opt={opt} F={fcount}",
                        r.hops()
                    );
                    assert!(!stats.bfs_fallback, "fallback fired in Theorem-3 regime");
                }
            }
        }
        assert!(
            tested >= 20,
            "sampler produced too few valid fault sets ({tested})"
        );
    }

    #[test]
    fn theorem5_regime_mixed_faults() {
        // Mixed node + link faults satisfying the Theorem-5 crossing
        // precondition: delivery for every healthy pair with bounded
        // detours.
        let gc = GaussianCube::new(10, 2).unwrap();
        let mut rng = Rng(0x1234567890abcdef);
        let mut tested = 0;
        for _trial in 0..70 {
            let mut f = FaultSet::new();
            f.add_node(NodeId(rng.next() % gc.num_nodes()));
            for _ in 0..rng.next() % 3 {
                let v = NodeId(rng.next() % gc.num_nodes());
                let ds = gc.link_dims(v);
                f.add_link(LinkId::new(v, ds[(rng.next() % ds.len() as u64) as usize]));
            }
            if !theorem5_precondition(&gc, &f) {
                continue;
            }
            tested += 1;
            let fcount = f.len();
            for s in (0..gc.num_nodes()).step_by(37) {
                if f.is_node_faulty(NodeId(s)) {
                    continue;
                }
                for d in (0..gc.num_nodes()).step_by(41) {
                    if f.is_node_faulty(NodeId(d)) {
                        continue;
                    }
                    let (r, _stats) = route(&gc, &f, NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("{s}->{d}: {e} with {f:?}"));
                    r.validate(&gc, &f).unwrap();
                    let opt = ffgcr::route_len(&gc, NodeId(s), NodeId(d)) as usize;
                    assert!(
                        r.hops() <= opt + 6 * fcount + 6,
                        "detour bound: {s}->{d} hops={} opt={opt} F={fcount}",
                        r.hops()
                    );
                }
            }
        }
        assert!(
            tested >= 15,
            "sampler produced too few valid fault sets ({tested})"
        );
    }

    #[test]
    fn single_faulty_node_everywhere() {
        // The simulation scenario of Figures 7/8: exactly one faulty node.
        // Every healthy pair must remain routable whenever the precondition
        // holds.
        let gc = GaussianCube::new(7, 2).unwrap();
        for fv in (0..gc.num_nodes()).step_by(17) {
            let mut f = FaultSet::new();
            f.add_node(NodeId(fv));
            if !theorem5_precondition(&gc, &f) {
                continue;
            }
            for s in 0..gc.num_nodes() {
                if s == fv {
                    continue;
                }
                for d in (0..gc.num_nodes()).step_by(5) {
                    if d == fv {
                        continue;
                    }
                    let (r, _) = route(&gc, &f, NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("fault {fv}: {s}->{d}: {e}"));
                    r.validate(&gc, &f).unwrap();
                }
            }
        }
    }

    #[test]
    fn routes_avoid_faults_entirely() {
        let gc = GaussianCube::new(8, 4).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(0b0110));
        f.add_link(LinkId::new(NodeId(0b10), 2));
        if theorem5_precondition(&gc, &f) {
            let (r, _) = route(&gc, &f, NodeId(0), NodeId(255)).unwrap();
            r.validate(&gc, &f).unwrap();
            assert!(r.nodes().iter().all(|&v| v != NodeId(0b0110)));
        }
    }

    #[test]
    fn cached_ftgcr_equals_uncached_under_faults() {
        use crate::plan_cache::PlanCache;
        let gc = GaussianCube::new(8, 4).unwrap();
        let cache = PlanCache::new(&gc);
        let mut rng = Rng(0xfeedface12345678);
        for _trial in 0..40 {
            let mut f = FaultSet::new();
            for _ in 0..rng.next() % 3 {
                f.add_node(NodeId(rng.next() % gc.num_nodes()));
            }
            for _ in 0..rng.next() % 3 {
                let v = NodeId(rng.next() % gc.num_nodes());
                let ds = gc.link_dims(v);
                f.add_link(LinkId::new(v, ds[(rng.next() % ds.len() as u64) as usize]));
            }
            for s in (0..gc.num_nodes()).step_by(23) {
                for d in (0..gc.num_nodes()).step_by(31) {
                    let plain = route(&gc, &f, NodeId(s), NodeId(d));
                    let cached = route_cached(&gc, &f, NodeId(s), NodeId(d), &cache);
                    match (plain, cached) {
                        (Ok((r1, st1)), Ok((r2, st2))) => {
                            assert_eq!(r1.nodes(), r2.nodes(), "{s}->{d} with {f:?}");
                            assert_eq!(st1, st2);
                        }
                        (Err(e1), Err(e2)) => assert_eq!(
                            format!("{e1}"),
                            format!("{e2}"),
                            "{s}->{d}: error paths must agree"
                        ),
                        (a, b) => panic!("{s}->{d}: cached/uncached diverge: {a:?} vs {b:?}"),
                    }
                }
            }
        }
        let st = cache.stats();
        assert!(st.hits > 0, "repeat keys must hit the cache: {st:?}");
    }

    /// The slow path alone: the entry checks, then the default schedule
    /// through corner repair and every flip stage and crossing.
    fn slow_route(
        gc: &GaussianCube,
        f: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<(Route, FtgcrStats), RoutingError> {
        check_endpoints(gc, f, s, d)?;
        let plan = ffgcr::plan(gc, s, d);
        execute_plan(gc, f, s, d, default_exec_plan(&plan), plan.hops())
    }

    /// Whether the fast path's guard passes for this plan.
    fn guard_passes(gc: &GaussianCube, f: &FaultSet, s: NodeId, d: NodeId) -> bool {
        let plan = ffgcr::plan(gc, s, d);
        fast_uncached(gc, &default_exec_plan(&plan), plan.hops(), f, s).is_some()
    }

    /// `route` and `route_cached` both return exactly what the slow path
    /// returns: nodes, stats and errors, and so does `plan_cached`, as
    /// nodes or the same error. Returns whether `plan_cached` answered in
    /// walk form.
    fn assert_matches_slow(
        gc: &GaussianCube,
        f: &FaultSet,
        s: NodeId,
        d: NodeId,
        c: &PlanCache,
    ) -> bool {
        let slow = slow_route(gc, f, s, d);
        let ctx = || {
            format!(
                "GC({}, {}) {s} -> {d} with {f:?}",
                gc.n(),
                1u64 << gc.alpha()
            )
        };
        for got in [route(gc, f, s, d), route_cached(gc, f, s, d, c)] {
            match (&slow, &got) {
                (Ok((r1, st1)), Ok((r2, st2))) => {
                    assert_eq!(r1.nodes(), r2.nodes(), "{}", ctx());
                    assert_eq!(st1, st2, "{}", ctx());
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{}", ctx()),
                (a, b) => panic!("{}: slow {a:?}, fast {b:?}", ctx()),
            }
        }
        let planned = plan_cached(gc, f, s, d, c);
        let walk = matches!(planned, Ok(Trajectory::Walk(_)));
        match (&slow, planned.map(|t| t.into_route(gc))) {
            (Ok((r1, _)), Ok(r2)) => assert_eq!(r1.nodes(), r2.nodes(), "{}", ctx()),
            (Err(e1), Err(e2)) => assert_eq!(*e1, e2, "{}", ctx()),
            (a, b) => panic!("{}: slow {a:?}, planned {b:?}", ctx()),
        }
        walk
    }

    #[test]
    fn fast_path_equals_slow_path() {
        // Random shapes GC(n, 2^α) with α in 1..=4 and n ≤ 12, and 0–8
        // faults, each with even odds placed within two bit flips of a
        // node of the FFGCR route or anywhere in the cube.
        let mut rng = Rng(0x5eed_fa57_1234_abcd);
        let (mut fast, mut slow, mut walks) = (0, 0, 0);
        for _shape in 0..100 {
            let alpha = 1 + (rng.next() % 4) as u32;
            let n = alpha + 1 + (rng.next() % u64::from(12 - alpha)) as u32;
            let gc = GaussianCube::from_alpha(n, alpha).unwrap();
            let cache = PlanCache::new(&gc);
            for _plan in 0..50 {
                let s = NodeId(rng.next() % gc.num_nodes());
                let d = NodeId(rng.next() % gc.num_nodes());
                let path = ffgcr::route(&gc, s, d).unwrap();
                let mut f = FaultSet::new();
                for _ in 0..rng.next() % 9 {
                    let v = if rng.next().is_multiple_of(2) {
                        let on = path.nodes()[(rng.next() % path.nodes().len() as u64) as usize];
                        (0..rng.next() % 3)
                            .fold(on, |v, _| v.flip((rng.next() % u64::from(n)) as u32))
                    } else {
                        NodeId(rng.next() % gc.num_nodes())
                    };
                    if rng.next().is_multiple_of(2) {
                        f.add_node(v);
                    } else {
                        let ds = gc.link_dims(v);
                        f.add_link(LinkId::new(v, ds[(rng.next() % ds.len() as u64) as usize]));
                    }
                }
                let walk = assert_matches_slow(&gc, &f, s, d, &cache);
                if check_endpoints(&gc, &f, s, d).is_ok() {
                    let passes = guard_passes(&gc, &f, s, d);
                    // The walk form is exactly the fast path at α ≤ 3.
                    assert_eq!(walk, passes && alpha <= 3, "GC({n}) {s} -> {d} with {f:?}");
                    walks += u32::from(walk);
                    if passes {
                        fast += 1;
                    } else {
                        slow += 1;
                    }
                } else {
                    assert!(!walk);
                }
            }
        }
        assert!(fast >= 1000 && slow >= 1000, "fast {fast}, slow {slow}");
        assert!(walks >= 500, "walk-form answers: {walks}");
    }

    #[test]
    fn guard_passes_just_outside_and_refuses_just_inside() {
        // GC(8,4), 0 -> 196: walk 0 1 3 2 3 1 0 with flips only at the
        // first visits of class 3 (dimension 7) and class 2 (dimensions 2
        // and 6). The region is the class-3 subcube {3, 7} through the
        // landing 00000011, the class-2 subcube {2, 6} through the landing
        // 10000010, and the bare corners 0, 1, 199, 197 and 196.
        let gc = GaussianCube::new(8, 4).unwrap();
        let cache = PlanCache::new(&gc);
        let (s, d) = (NodeId(0), NodeId(196));
        let ff = ffgcr::route(&gc, s, d).unwrap();

        // Node 00000010 neighbours s and the route node 00000011 but lies
        // in no subcube of the region: the guard passes.
        let mut outside = FaultSet::new();
        outside.add_node(NodeId(0b0000_0010));
        assert!(guard_passes(&gc, &outside, s, d));
        assert_eq!(route(&gc, &outside, s, d).unwrap().0.nodes(), ff.nodes());
        assert_matches_slow(&gc, &outside, s, d, &cache);

        // Node 00001011 is off the route but inside the class-3 subcube
        // the slow path's flip stage consults: the guard refuses.
        let mut inside = FaultSet::new();
        inside.add_node(NodeId(0b0000_1011));
        assert!(!guard_passes(&gc, &inside, s, d));
        assert_matches_slow(&gc, &inside, s, d, &cache);
    }

    #[test]
    fn rejects_faulty_endpoints() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(9));
        assert!(matches!(
            route(&gc, &f, NodeId(9), NodeId(0)),
            Err(RoutingError::SourceFaulty(_))
        ));
        assert!(matches!(
            route(&gc, &f, NodeId(0), NodeId(9)),
            Err(RoutingError::DestFaulty(_))
        ));
    }

    #[test]
    fn hops_never_below_bfs_distance() {
        // Sanity: the masked BFS distance is a lower bound for any valid
        // route through healthy components.
        let gc = GaussianCube::new(8, 2).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(100));
        for (s, d) in [(0u64, 255u64), (3, 200), (17, 18)] {
            let (r, _) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
            let lower = search::distance(&gc, NodeId(s), NodeId(d), &f).unwrap();
            assert!(r.hops() as u32 >= lower);
            let ff = search::distance(&gc, NodeId(s), NodeId(d), &NoFaults).unwrap();
            assert!(r.hops() as u32 >= ff);
        }
    }
}

/// Ignored diagnostic: sweeps single A-category faults over GC(9,2) and
/// reports the worst detour overhead with its trace. Run with
/// `cargo test -p gcube-routing ftgcr::diagnostics -- --ignored --nocapture`.
#[cfg(test)]
mod diagnostics {
    use super::*;
    use gcube_topology::LinkId;

    #[test]
    #[ignore]
    fn scan_single_a_fault_extras() {
        let gc = GaussianCube::new(9, 2).unwrap();
        let mut worst = 0usize;
        let mut worst_case = None;
        for v in (0..gc.num_nodes()).step_by(13) {
            let high: Vec<u32> = gc
                .link_dims(NodeId(v))
                .into_iter()
                .filter(|&c| c >= 1)
                .collect();
            if high.is_empty() {
                continue;
            }
            for &dim in &high {
                let mut f = FaultSet::new();
                f.add_link(LinkId::new(NodeId(v), dim));
                for s in (0..gc.num_nodes()).step_by(11) {
                    for d in (0..gc.num_nodes()).step_by(13) {
                        let (r, stats) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                        let opt = ffgcr::route_len(&gc, NodeId(s), NodeId(d)) as usize;
                        let extra = r.hops() - opt.min(r.hops());
                        if extra > worst {
                            worst = extra;
                            worst_case = Some((v, dim, s, d, r.hops(), opt, stats));
                        }
                    }
                }
            }
        }
        println!("worst extra = {worst}, case = {worst_case:?}");
        if let Some((v, dim, s, d, _, _, _)) = worst_case {
            let mut f = FaultSet::new();
            f.add_link(LinkId::new(NodeId(v), dim));
            let (r, _) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
            println!("route: {r}");
            let plan = ffgcr::plan(&gc, NodeId(s), NodeId(d));
            println!("plan walk: {:?}, flips: {:?}", plan.tree_walk, plan.flips);
        }
    }
}
