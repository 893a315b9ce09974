//! Property-based tests for the routing crate.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;

use gcube_routing::collective::{
    binomial_broadcast_schedule_masked, broadcast_tree, gather_schedule_masked, multicast_walk,
};
use gcube_routing::ct::{ct_walk, steiner_edges};
use gcube_routing::faults::{link_category, node_category, FaultCategory, FaultSet};
use gcube_routing::multitree::{validate_independence, MultiTreeAtlas, MultiTreeError};
use gcube_routing::pc::pc_path;
use gcube_routing::verify::{assign_virtual_channels, ChannelDependencyGraph};
use gcube_routing::{ffgcr, ftgcr, PlanCache, Route, RoutingError, Trajectory, WalkRule};
use gcube_topology::{
    search, GaussianCube, GaussianTree, LinkId, LinkMask, NoFaults, NodeId, Topology,
};

fn arb_tree() -> impl Strategy<Value = GaussianTree> {
    (1u32..=10).prop_map(|m| GaussianTree::new(m).unwrap())
}

fn arb_gc() -> impl Strategy<Value = GaussianCube> {
    (3u32..=12).prop_flat_map(|n| {
        (Just(n), 0u32..=4.min(n)).prop_map(|(n, a)| GaussianCube::from_alpha(n, a).unwrap())
    })
}

/// Fault ids for the churn model: the first words, the last words below
/// 2^16 (so repeats are common at both ends), and anywhere in between.
fn fault_id() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..130, (1u64 << 16) - 130..1u64 << 16, 0u64..1 << 16]
}

/// Every probe of `set` at each `(node, dim)` of `probes` answers as the
/// model of faulty `nodes` and `links` does.
fn probes_agree(
    set: &FaultSet,
    nodes: &BTreeSet<NodeId>,
    links: &BTreeSet<LinkId>,
    probes: impl Iterator<Item = (u64, u32)>,
) -> Result<(), TestCaseError> {
    for (u, d) in probes {
        let (u, l) = (NodeId(u), LinkId::new(NodeId(u), d));
        let (a, b) = l.endpoints();
        prop_assert_eq!(set.is_node_faulty(u), nodes.contains(&u), "node {:?}", u);
        prop_assert_eq!(set.node_ok(u), !nodes.contains(&u));
        prop_assert_eq!(set.is_link_faulty(l), links.contains(&l), "link {:?}", l);
        prop_assert_eq!(set.link_ok(l), !links.contains(&l));
        prop_assert_eq!(
            set.is_link_usable(l),
            !links.contains(&l) && !nodes.contains(&a) && !nodes.contains(&b)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// PC produces the unique tree path: valid, simple, BFS-length.
    #[test]
    fn pc_is_the_tree_path((tree, s, d) in arb_tree().prop_flat_map(|t| {
        let n = t.num_nodes();
        (Just(t), 0..n, 0..n)
    })) {
        let p = pc_path(&tree, NodeId(s), NodeId(d));
        prop_assert_eq!(p[0], NodeId(s));
        prop_assert_eq!(*p.last().unwrap(), NodeId(d));
        let unique: HashSet<_> = p.iter().collect();
        prop_assert_eq!(unique.len(), p.len(), "simple path");
        for w in p.windows(2) {
            prop_assert!(tree.edge_dim(w[0], w[1]).is_some());
        }
        let bfs = search::distance(&tree, NodeId(s), NodeId(d), &NoFaults).unwrap();
        prop_assert_eq!((p.len() - 1) as u32, bfs);
    }

    /// CT closed walks are optimal: 2 × Steiner edges, covering everything.
    #[test]
    fn ct_walk_is_optimal((tree, r, dests) in arb_tree().prop_flat_map(|t| {
        let n = t.num_nodes();
        (Just(t), 0..n, proptest::collection::btree_set(0..n, 0..6))
    })) {
        let dests: BTreeSet<NodeId> = dests.into_iter().map(NodeId).collect();
        let walk = ct_walk(&tree, NodeId(r), &dests);
        prop_assert_eq!(walk[0], NodeId(r));
        prop_assert_eq!(*walk.last().unwrap(), NodeId(r));
        let visited: HashSet<NodeId> = walk.iter().copied().collect();
        for d in &dests {
            prop_assert!(visited.contains(d));
        }
        let steiner = steiner_edges(&tree, NodeId(r), &dests);
        prop_assert_eq!(walk.len() - 1, 2 * steiner.len());
    }

    /// Fault taxonomy is a partition: links are A xor B, nodes are B xor C,
    /// and the split matches the α boundary.
    #[test]
    fn categories_partition((gc, v, c) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        let w = gc.n();
        (Just(gc), 0..n, 0..w)
    })) {
        let l = LinkId::new(NodeId(v), c);
        let lc = link_category(&gc, l);
        prop_assert_eq!(lc == FaultCategory::A, c >= gc.alpha());
        let nc = node_category(&gc, NodeId(v));
        prop_assert!(nc == FaultCategory::B || nc == FaultCategory::C);
        let has_high = (gc.alpha()..gc.n()).any(|cc| gc.has_link(NodeId(v), cc));
        prop_assert_eq!(nc == FaultCategory::C, has_high);
    }

    /// Multicast walks cover their destinations and sit between the two
    /// bounds (farthest destination ≤ walk ≤ 2 × independent sum, by the
    /// triangle inequality on the greedy legs).
    #[test]
    fn multicast_bounds((gc, dests) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        (Just(gc), proptest::collection::btree_set(0..n, 1..5))
    })) {
        let dests: BTreeSet<NodeId> = dests.into_iter().map(NodeId).collect();
        let walk = multicast_walk(&gc, NodeId(0), &dests).unwrap();
        walk.validate(&gc, &NoFaults).unwrap();
        let visited: HashSet<NodeId> = walk.nodes().iter().copied().collect();
        for d in &dests {
            prop_assert!(visited.contains(d));
        }
        let far = dests.iter().map(|&d| ffgcr::route_len(&gc, NodeId(0), d)).max().unwrap();
        let sum: u64 = dests.iter().map(|&d| u64::from(ffgcr::route_len(&gc, NodeId(0), d))).sum();
        prop_assert!(walk.hops() as u32 >= far);
        prop_assert!(walk.hops() as u64 <= 2 * sum.max(1));
    }

    /// Broadcast trees are spanning, valid, depth-optimal.
    #[test]
    fn broadcast_tree_properties((gc, root) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        (Just(gc), 0..n)
    })) {
        let t = broadcast_tree(&gc, NodeId(root)).unwrap();
        t.validate(&gc).unwrap();
        prop_assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
        let ecc = search::eccentricity(&gc, NodeId(root), &NoFaults).unwrap();
        prop_assert_eq!(t.max_depth(), ecc);
    }

    /// VC assignment on random route sets: monotone per route, per-VC CDG
    /// acyclic (checked by fragment re-split).
    #[test]
    fn vc_assignment_valid((gc, pairs) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        (Just(gc), proptest::collection::vec((0..n, 0..n), 1..12))
    })) {
        let routes: Vec<Route> = pairs
            .into_iter()
            .map(|(s, d)| ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap())
            .collect();
        let a = assign_virtual_channels(&routes);
        prop_assert!(a.num_vcs >= 1);
        let mut per_vc: Vec<Vec<Route>> = vec![Vec::new(); a.num_vcs as usize];
        for (route, vcs) in routes.iter().zip(&a.vcs) {
            prop_assert_eq!(vcs.len(), route.hops());
            for w in vcs.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            let nodes = route.nodes();
            let mut start = 0usize;
            for j in 1..=vcs.len() {
                if j == vcs.len() || vcs[j] != vcs[start] {
                    per_vc[vcs[start] as usize].push(Route::new(nodes[start..=j].to_vec()));
                    start = j;
                }
            }
        }
        for frags in &per_vc {
            let cdg = ChannelDependencyGraph::from_routes(frags.iter());
            prop_assert!(cdg.is_acyclic());
        }
    }

    /// Fault-set link usability composes node and link health.
    #[test]
    fn link_usability((v, c, fv) in (0u64..256, 0u32..8, 0u64..256)) {
        let mut f = FaultSet::new();
        f.add_node(NodeId(fv));
        let l = LinkId::new(NodeId(v), c);
        let (a, b) = l.endpoints();
        prop_assert_eq!(
            f.is_link_usable(l),
            a != NodeId(fv) && b != NodeId(fv)
        );
    }

    /// Model-based add/repair round-trips: after every operation in an
    /// arbitrary interleaving, `FaultSet` agrees with a reference model on
    /// every probe around the target (its neighbours and the same bit one
    /// word either side, in every dimension) and at every earlier target,
    /// iterates the model in ascending order, and equals both a stale set
    /// synced onto it and a set rebuilt from the model. Node ids span
    /// 1,024 bitset words and links 17 dimensions. Once repaired, the set
    /// equals a fresh one however far its indexes grew, and a stale set
    /// synced onto a smaller regrowth keeps none of its old bits.
    #[test]
    fn fault_set_matches_model_under_churn(ops in proptest::collection::vec(
        (0u8..4, fault_id(), 0u32..=16, any::<bool>()),
        1..40,
    )) {
        let mut f = FaultSet::new();
        let mut stale = FaultSet::new();
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        let mut links: BTreeSet<LinkId> = BTreeSet::new();
        let mut touched: BTreeSet<(u64, u32)> = BTreeSet::new();
        for (kind, v, c, sync) in ops {
            let node = NodeId(v);
            let link = LinkId::new(node, c);
            match kind {
                0 => { f.add_node(node); nodes.insert(node); }
                1 => { prop_assert_eq!(f.remove_node(node), nodes.remove(&node)); }
                2 => { f.add_link(link); links.insert(link); }
                _ => { prop_assert_eq!(f.remove_link(link), links.remove(&link)); }
            }
            touched.insert((v, c));
            prop_assert_eq!(f.len(), nodes.len() + links.len());
            prop_assert_eq!(f.is_empty(), nodes.is_empty() && links.is_empty());
            prop_assert!(f.faulty_nodes().eq(nodes.iter().copied()));
            prop_assert!(f.faulty_links().eq(links.iter().copied()));
            let rebuilt = FaultSet::from_parts(nodes.clone(), links.clone(), f.generation());
            prop_assert_eq!(&rebuilt, &f);
            if sync {
                stale.sync_from(&f);
                prop_assert_eq!(&stale, &f);
                prop_assert_eq!(stale.generation(), f.generation());
            }
            let sets: &[&FaultSet] = if sync { &[&f, &rebuilt, &stale] } else { &[&f, &rebuilt] };
            let window = (v.saturating_sub(2)..=v + 2).chain([v.wrapping_sub(64), v + 64]);
            for set in sets {
                let probes = window.clone().flat_map(|u| (0..=16).map(move |d| (u, d)));
                probes_agree(set, &nodes, &links, probes.chain(touched.iter().copied()))?;
            }
        }
        for n in std::mem::take(&mut nodes) {
            prop_assert!(f.remove_node(n));
        }
        for l in std::mem::take(&mut links) {
            prop_assert!(f.remove_link(l));
        }
        prop_assert_eq!(&f, &FaultSet::new());
        f.add_node(NodeId(0));
        nodes.insert(NodeId(0));
        stale.sync_from(&f);
        prop_assert_eq!(&stale, &f);
        probes_agree(&stale, &nodes, &links, touched.into_iter())?;
    }

    /// ISSUE acceptance: plan-cached FFGCR is *route-identical* to the
    /// uncached algorithm for arbitrary cubes and pairs — the cache is an
    /// optimisation, never a behaviour change.
    #[test]
    fn cached_ffgcr_equals_uncached((gc, s, d) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        (Just(gc), 0..n, 0..n)
    })) {
        let cache = PlanCache::new(&gc);
        let plain = ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap();
        let cached = ffgcr::route_cached(&gc, NodeId(s), NodeId(d), &cache).unwrap();
        prop_assert_eq!(plain.nodes(), cached.nodes());
        // And again, so the second call is served from the cache.
        let hit = ffgcr::route_cached(&gc, NodeId(s), NodeId(d), &cache).unwrap();
        prop_assert_eq!(plain.nodes(), hit.nodes());
    }

    /// The walk form the simulator forwards: on random shapes up to
    /// `n = 32`, a cached FFGCR plan at α ≤ 3 is a walk whose hops, taken
    /// one at a time by the walk rule, are `PlanCache::route`'s and
    /// `ffgcr::route`'s node for node. Wider spines plan explicit routes.
    #[test]
    fn walk_form_hops_equal_ffgcr((gc, pairs) in (1u32..=32).prop_flat_map(|n| {
        (Just(n), 0u32..=5.min(n))
    }).prop_flat_map(|(n, a)| {
        let gc = GaussianCube::from_alpha(n, a).unwrap();
        let nodes = gc.num_nodes();
        (Just(gc), proptest::collection::vec((0..nodes, 0..nodes), 8))
    })) {
        let cache = PlanCache::new(&gc);
        let rule = WalkRule::new(gc.n(), gc.alpha());
        for (s, d) in pairs {
            let (s, d) = (NodeId(s), NodeId(d));
            let plain = ffgcr::route(&gc, s, d).unwrap();
            prop_assert_eq!(cache.route(&gc, s, d).unwrap().nodes(), plain.nodes());
            match cache.plan(&gc, s, d).unwrap() {
                Trajectory::Walk(w) => {
                    let rule = rule.expect("walks only at α ≤ 3");
                    prop_assert_eq!((w.source(), w.dest(), w.hops()), (s, d, plain.hops()));
                    let (mut cur, mut edges) = (s, w.edges());
                    let mut hops = vec![cur];
                    while let Some(next) = rule.next_hop(cur, d, edges) {
                        prop_assert!(hops.len() <= plain.hops(), "walk overruns at {:?}", hops);
                        edges = rule.edges_after(cur, next, edges);
                        cur = next;
                        hops.push(cur);
                    }
                    prop_assert_eq!(&hops[..], plain.nodes());
                    prop_assert_eq!(rule.nodes(&w), hops);
                }
                Trajectory::Route(r) => {
                    prop_assert!(gc.alpha() > 3, "α ≤ 3 plans take the walk form");
                    prop_assert_eq!(r.nodes(), plain.nodes());
                }
            }
        }
    }

    /// ISSUE acceptance: plan-cached FTGCR matches the uncached strategy
    /// under arbitrary fault sets — identical route or identical error.
    #[test]
    fn cached_ftgcr_equals_uncached((gc, s, d, fault_nodes, fault_links) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        let w = gc.n();
        (
            Just(gc),
            0..n,
            0..n,
            proptest::collection::vec(0..n, 0..4),
            proptest::collection::vec((0..n, 0..w), 0..4),
        )
    })) {
        let (s, d) = (NodeId(s), NodeId(d));
        let mut faults = FaultSet::new();
        for v in fault_nodes {
            let v = NodeId(v);
            if v != s && v != d {
                faults.add_node(v);
            }
        }
        for (v, c) in fault_links {
            faults.add_link(LinkId::new(NodeId(v), c));
        }
        let cache = PlanCache::new(&gc);
        let plain = ftgcr::route(&gc, &faults, s, d);
        let cached = ftgcr::route_cached(&gc, &faults, s, d, &cache);
        match (plain, cached) {
            (Ok((r1, st1)), Ok((r2, st2))) => {
                prop_assert_eq!(r1.nodes(), r2.nodes());
                prop_assert_eq!(st1, st2);
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1.to_string(), e2.to_string()),
            (p, c) => prop_assert!(false, "divergence: plain={p:?} cached={c:?}"),
        }
    }

    /// ISSUE acceptance: over random cube shapes, every bundle's spanning
    /// trees are pairwise independent (internally node- and edge-disjoint
    /// root paths), and fault-free atlas routes are valid first-choice
    /// plans — no switch, no fallback.
    #[test]
    fn multitree_trees_are_independent((gc, s, d) in arb_gc().prop_flat_map(|gc| {
        let n = gc.num_nodes();
        (Just(gc), 0..n, 0..n)
    })) {
        match MultiTreeAtlas::build(&gc, 2) {
            Ok(atlas) => {
                if let Err(why) = validate_independence(&gc, &atlas) {
                    prop_assert!(false, "independence violated: {}", why);
                }
                let (s, d) = (NodeId(s), NodeId(d));
                let (route, choice) =
                    atlas.route(&gc, &FaultSet::new(), s, d, None).unwrap();
                route.validate(&gc, &NoFaults).unwrap();
                prop_assert!(!choice.exhausted, "no faults means no fallback");
                prop_assert_eq!(choice.switches, 0, "no faults means first choice");
                prop_assert!((choice.tree as usize) < atlas.k());
            }
            Err(MultiTreeError::NotBiconnected { .. }) => {
                // Degenerate shapes legitimately lack an independent tree
                // pair; the builder must refuse them, not mis-build.
            }
            Err(other) => prop_assert!(false, "unexpected build failure: {}", other),
        }
    }

    /// Failing then repairing the same components restores the empty set,
    /// and usability of every incident link returns with it.
    #[test]
    fn repair_round_trip_restores_usability((v, c) in (0u64..256, 0u32..8)) {
        let node = NodeId(v);
        let link = LinkId::new(node, c);
        let mut f = FaultSet::new();
        f.add_node(node);
        f.add_link(link);
        prop_assert!(!f.is_link_usable(link));
        // Repairing the link alone is not enough while the endpoint is dead.
        prop_assert!(f.remove_link(link));
        prop_assert!(!f.is_link_usable(link), "faulty endpoint still kills the link");
        prop_assert!(f.remove_node(node));
        prop_assert!(f.is_link_usable(link));
        prop_assert!(f.is_empty());
        prop_assert_eq!(&f, &FaultSet::new());
        // Double repair reports nothing to remove.
        prop_assert!(!f.remove_node(node));
        prop_assert!(!f.remove_link(link));
    }

    /// Masked broadcast schedules under random fault sets: every
    /// forwarding pair crosses a usable cube link, each round obeys the
    /// single-port discipline (one send and one reception per node),
    /// senders are already informed, and the schedule covers exactly the
    /// healthy nodes reachable from the root — with a typed
    /// [`RoutingError::Disconnected`] carrying the exact unreachable
    /// count whenever faults cut healthy nodes off.
    #[test]
    fn masked_broadcast_schedule_is_single_port_and_covering(
        (gc, root, fault_nodes, fault_links) in arb_gc().prop_flat_map(|gc| {
            let n = gc.num_nodes();
            let w = gc.n();
            (
                Just(gc),
                0..n,
                proptest::collection::vec(0..n, 0..5),
                proptest::collection::vec((0..n, 0..w), 0..8),
            )
        })
    ) {
        let root = NodeId(root);
        let mut faults = FaultSet::new();
        for v in fault_nodes {
            let v = NodeId(v);
            if v != root {
                faults.add_node(v);
            }
        }
        for (v, c) in fault_links {
            faults.add_link(LinkId::new(NodeId(v), c));
        }
        let reachable = masked_reachable(&gc, &faults, root);
        let healthy = (0..gc.num_nodes()).filter(|&v| !faults.is_node_faulty(NodeId(v))).count();
        match binomial_broadcast_schedule_masked(&gc, &faults, root) {
            Ok(rounds) => {
                prop_assert_eq!(reachable.len(), healthy, "Ok means every healthy node is covered");
                let mut informed: HashSet<NodeId> = [root].into_iter().collect();
                for round in &rounds {
                    let mut senders = HashSet::new();
                    let mut receivers = HashSet::new();
                    for &(u, v) in round {
                        prop_assert!(informed.contains(&u), "sender {u} must be informed");
                        prop_assert!(!informed.contains(&v), "receiver {v} informed twice");
                        prop_assert!(senders.insert(u), "node {u} sent twice in one round");
                        prop_assert!(receivers.insert(v), "node {v} received twice in one round");
                        prop_assert!(usable_link(&gc, &faults, u, v), "unusable hop {u} -> {v}");
                    }
                    informed.extend(receivers);
                }
                prop_assert_eq!(&informed, &reachable, "schedule covers the reachable set");
            }
            Err(RoutingError::Disconnected { unreachable }) => {
                prop_assert_eq!(
                    unreachable as usize,
                    healthy - reachable.len(),
                    "typed error carries the exact cut-off count"
                );
                prop_assert!(unreachable > 0);
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }

    /// Masked gather schedules mirror the broadcast properties upward:
    /// every reachable non-root node reports exactly once over a usable
    /// link, each round delivers at most one report per parent (single
    /// aggregation port), a node reports only after all reports flowing
    /// *through* it have arrived, and disconnection is the same typed
    /// error.
    #[test]
    fn masked_gather_schedule_aggregates_single_port(
        (gc, root, fault_nodes, fault_links) in arb_gc().prop_flat_map(|gc| {
            let n = gc.num_nodes();
            let w = gc.n();
            (
                Just(gc),
                0..n,
                proptest::collection::vec(0..n, 0..5),
                proptest::collection::vec((0..n, 0..w), 0..8),
            )
        })
    ) {
        let root = NodeId(root);
        let mut faults = FaultSet::new();
        for v in fault_nodes {
            let v = NodeId(v);
            if v != root {
                faults.add_node(v);
            }
        }
        for (v, c) in fault_links {
            faults.add_link(LinkId::new(NodeId(v), c));
        }
        let reachable = masked_reachable(&gc, &faults, root);
        let healthy = (0..gc.num_nodes()).filter(|&v| !faults.is_node_faulty(NodeId(v))).count();
        match gather_schedule_masked(&gc, &faults, root) {
            Ok(rounds) => {
                prop_assert_eq!(reachable.len(), healthy);
                let mut sent: HashSet<NodeId> = HashSet::new();
                for round in &rounds {
                    let mut receivers = HashSet::new();
                    for &(v, p) in round {
                        prop_assert!(v != root, "the root never reports");
                        prop_assert!(sent.insert(v), "node {v} reported twice");
                        prop_assert!(receivers.insert(p), "parent {p} received twice in one round");
                        prop_assert!(usable_link(&gc, &faults, v, p), "unusable hop {v} -> {p}");
                    }
                }
                prop_assert_eq!(sent.len(), reachable.len() - 1, "everyone but the root reports");
                // Causality: when v reports, every reachable node below it
                // has already reported — equivalently, each sender's own
                // children all sent in strictly earlier rounds. Recover
                // child links from the pairs themselves.
                let mut round_of: std::collections::HashMap<NodeId, usize> =
                    std::collections::HashMap::new();
                for (i, round) in rounds.iter().enumerate() {
                    for &(v, _) in round {
                        round_of.insert(v, i);
                    }
                }
                for (i, round) in rounds.iter().enumerate() {
                    for &(_, p) in round {
                        if p != root {
                            let pr = round_of[&p];
                            prop_assert!(i < pr, "{p} received a report at round {i} after sending at {pr}");
                        }
                    }
                }
            }
            Err(RoutingError::Disconnected { unreachable }) => {
                prop_assert_eq!(unreachable as usize, healthy - reachable.len());
                prop_assert!(unreachable > 0);
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}

/// Reference reachability: BFS from `root` over links usable under the
/// fault set (link healthy and both endpoints healthy), independent of
/// the tree builders under test.
fn masked_reachable(gc: &GaussianCube, faults: &FaultSet, root: NodeId) -> HashSet<NodeId> {
    let mut seen: HashSet<NodeId> = [root].into_iter().collect();
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for c in gc.link_dims(u) {
            let v = u.flip(c);
            if !seen.contains(&v) && usable_link(gc, faults, u, v) {
                seen.insert(v);
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Whether `u -> v` is one usable cube hop under `faults`.
fn usable_link(gc: &GaussianCube, faults: &FaultSet, u: NodeId, v: NodeId) -> bool {
    let diff = u.0 ^ v.0;
    if diff == 0 || !diff.is_power_of_two() {
        return false;
    }
    let c = diff.trailing_zeros();
    gc.has_link(u, c) && faults.is_link_usable(LinkId::new(u, c))
}
