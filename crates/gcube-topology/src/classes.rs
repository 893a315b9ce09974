//! k-ending classes and equivalent-class subcubes (paper Definitions 2 and 6).
//!
//! For `GC(n, 2^α)`:
//!
//! * `EC(α, k)` — the *k-ending class*: all nodes whose low `α` bits equal
//!   `k`. Ending classes are the fibres of the projection onto the Gaussian
//!   Tree `T_α`: class `k` *is* tree node `k`.
//! * `Dim(α, k) = { c ∈ [α, n-1] : c ≡ k (mod 2^α) }` — the high dimensions
//!   in which members of `EC(α, k)` have links (Theorem 1).
//! * `EEC(α, k, t)` — the *k-ending-t-equivalent class*: the subset of
//!   `EC(α, k)` whose bits in dimensions outside `[0, α) ∪ Dim(α, k)` spell
//!   the value `t`. The induced subgraph `GEEC(α, k, t)` is a binary
//!   hypercube of dimension `|Dim(α, k)|` — the substrate on which
//!   fault-tolerant hypercube routing runs (Theorem 3).
//!
//! This module provides the coordinate maps between a GC node and its
//! `(k, t, coord)` triple, plus the tree-crossing helpers used by the
//! fault-tolerant strategy.

use crate::addr::NodeId;
use crate::gaussian_cube::GaussianCube;
use crate::gaussian_tree::GaussianTree;
use crate::topology::Topology;

/// The high dimensions `Dim(α, k)` available to ending class `k`, ascending.
pub fn dims(n: u32, alpha: u32, k: u64) -> Vec<u32> {
    debug_assert!(alpha < 64 && k < (1u64 << alpha).max(1));
    let period = 1u64 << alpha;
    (alpha..n).filter(|&c| u64::from(c) % period == k).collect()
}

/// `|Dim(α, k)|` without materialising the set.
pub fn dim_count(n: u32, alpha: u32, k: u64) -> u32 {
    let period = 1u64 << alpha;
    // Smallest c ≥ α with c ≡ k (mod 2^α).
    let start = if k >= u64::from(alpha) { k } else { k + period };
    if start >= u64::from(n) {
        0
    } else {
        (((u64::from(n) - 1 - start) / period) + 1) as u32
    }
}

/// The paper's closed form `N(α, k) = ⌈(n-k)/2^α⌉ + 1 - δ(k < α)`
/// (Theorem 3). Tested to equal `dim_count + 1` wherever both are positive.
pub fn n_bound_paper(n: u32, alpha: u32, k: u64) -> u32 {
    let period = 1u64 << alpha;
    let nn = u64::from(n);
    // ⌈(n-k)/2^α⌉, clipped at 0 for classes beyond the label width.
    let ceil = if k >= nn {
        0
    } else {
        (nn - k).div_ceil(period)
    };
    let delta = u64::from(k < u64::from(alpha));
    (ceil + 1).saturating_sub(delta) as u32
}

/// A node's position in the `GC(n, 2^α)` decomposition: which ending class,
/// which equivalent class within it, and which corner of the embedded
/// subcube.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubcubePos {
    /// Ending class `k` (the node's low `α` bits; also its tree node).
    pub k: u64,
    /// The equivalent-class selector `t`: bits in dimensions outside
    /// `[0, α) ∪ Dim(α, k)`, packed ascending.
    pub t: u64,
    /// Coordinates inside `GEEC(α, k, t)`: bits at the `Dim(α, k)` positions,
    /// packed ascending — a `|Dim(α,k)|`-bit hypercube label.
    pub coord: u64,
}

/// Decompose a node into its [`SubcubePos`].
pub fn subcube_pos(gc: &GaussianCube, p: NodeId) -> SubcubePos {
    let (n, alpha) = (gc.n(), gc.alpha());
    let k = p.low_bits(alpha);
    let dim_set = dims(n, alpha, k);
    let mut coord = 0u64;
    for (i, &c) in dim_set.iter().enumerate() {
        if p.bit(c) {
            coord |= 1 << i;
        }
    }
    let mut t = 0u64;
    let mut ti = 0;
    for c in alpha..n {
        if u64::from(c) % (1u64 << alpha) != k {
            if p.bit(c) {
                t |= 1 << ti;
            }
            ti += 1;
        }
    }
    SubcubePos { k, t, coord }
}

/// Reassemble a node from its [`SubcubePos`]. Inverse of [`subcube_pos`].
pub fn node_at(gc: &GaussianCube, pos: SubcubePos) -> NodeId {
    let (n, alpha) = (gc.n(), gc.alpha());
    let mut v = pos.k;
    let dim_set = dims(n, alpha, pos.k);
    for (i, &c) in dim_set.iter().enumerate() {
        if (pos.coord >> i) & 1 == 1 {
            v |= 1u64 << c;
        }
    }
    let mut ti = 0;
    for c in alpha..n {
        if u64::from(c) % (1u64 << alpha) != pos.k {
            if (pos.t >> ti) & 1 == 1 {
                v |= 1u64 << c;
            }
            ti += 1;
        }
    }
    NodeId(v)
}

/// All nodes of the ending class `EC(α, k)` (ascending).
pub fn ending_class_nodes(gc: &GaussianCube, k: u64) -> Vec<NodeId> {
    let alpha = gc.alpha();
    let step = 1u64 << alpha;
    (0..gc.num_nodes())
        .step_by(step as usize)
        .map(|base| NodeId(base | k))
        .collect()
}

/// All nodes of the equivalent class `EEC(α, k, t)` (ascending coordinate
/// order) — the vertex set of the embedded hypercube `GEEC(α, k, t)`.
pub fn equivalent_class_nodes(gc: &GaussianCube, k: u64, t: u64) -> Vec<NodeId> {
    let d = dim_count(gc.n(), gc.alpha(), k);
    (0..(1u64 << d))
        .map(|coord| node_at(gc, SubcubePos { k, t, coord }))
        .collect()
}

/// Number of distinct `t` values for class `k`, i.e. how many `GEEC(α,k,·)`
/// subcubes partition `EC(α, k)`.
pub fn equivalent_class_count(gc: &GaussianCube, k: u64) -> u64 {
    let free = gc.n() - gc.alpha() - dim_count(gc.n(), gc.alpha(), k);
    1u64 << free
}

/// The tree-walk projection: the Gaussian Tree `T_α` a cube decomposes onto.
pub fn projection_tree(gc: &GaussianCube) -> GaussianTree {
    GaussianTree::new(gc.alpha()).expect("alpha below width cap")
}

/// The set of tree nodes a route from `s` to `d` must visit (besides the
/// endpoints' own classes): one per differing dimension `≥ α`, namely class
/// `c mod 2^α` for each such dimension `c` (paper §4).
pub fn required_tree_nodes(gc: &GaussianCube, s: NodeId, d: NodeId) -> Vec<u64> {
    let alpha = gc.alpha();
    let period = 1u64 << alpha;
    let mut need: Vec<u64> = s
        .differing_dims(d)
        .into_iter()
        .filter(|&c| c >= alpha)
        .map(|c| u64::from(c) % period)
        .collect();
    need.sort_unstable();
    need.dedup();
    need
}

/// `Dim(α, k)` for every class at once, indexed by `k` — the precomputed
/// class table the routing plan cache replays flips from.
pub fn class_dim_lists(n: u32, alpha: u32) -> Vec<Vec<u32>> {
    (0..(1u64 << alpha)).map(|k| dims(n, alpha, k)).collect()
}

/// `Dim(α, k)` for every class as dimension bitmasks: entry `k` has bit `c`
/// set iff `c ∈ Dim(α, k)`. Intersecting entry `k` with `s ⊕ d` yields
/// exactly the flips class `k` owes a route, in ascending dimension order
/// under a trailing-zeros scan.
pub fn class_dim_masks(n: u32, alpha: u32) -> Vec<u64> {
    (0..(1u64 << alpha))
        .map(|k| {
            dims(n, alpha, k)
                .into_iter()
                .fold(0u64, |m, c| m | (1u64 << c))
        })
        .collect()
}

/// [`required_tree_nodes`] packed as a class bitmask: bit `k` is set iff
/// class `k` owns a differing dimension `≥ α` between `s` and `d`. Only
/// valid when `2^α ≤ 64` (`α ≤ 6`) — the plan-cache key regime.
pub fn required_class_mask(alpha: u32, s: NodeId, d: NodeId) -> u64 {
    debug_assert!(alpha <= 6, "packed class mask requires 2^α ≤ 64");
    let low = (1u64 << alpha) - 1;
    let mut rest = (s.0 ^ d.0) & !low;
    let mut mask = 0u64;
    while rest != 0 {
        let c = u64::from(rest.trailing_zeros());
        mask |= 1u64 << (c & low);
        rest &= rest - 1;
    }
    mask
}

/// The differing dimensions `≥ α` between `s` and `d`, grouped by the ending
/// class in which they must be flipped. Returns `(class, dims)` pairs with
/// ascending classes.
pub fn flips_by_class(gc: &GaussianCube, s: NodeId, d: NodeId) -> Vec<(u64, Vec<u32>)> {
    let alpha = gc.alpha();
    let period = 1u64 << alpha;
    let mut map: std::collections::BTreeMap<u64, Vec<u32>> = std::collections::BTreeMap::new();
    for c in s.differing_dims(d) {
        if c >= alpha {
            map.entry(u64::from(c) % period).or_default().push(c);
        }
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search;
    use crate::topology::NoFaults;

    #[test]
    fn dims_examples_from_analysis() {
        // n=8, α=2: Dim(0)={4}, Dim(1)={5}, Dim(2)={2,6}, Dim(3)={3,7}.
        assert_eq!(dims(8, 2, 0), vec![4]);
        assert_eq!(dims(8, 2, 1), vec![5]);
        assert_eq!(dims(8, 2, 2), vec![2, 6]);
        assert_eq!(dims(8, 2, 3), vec![3, 7]);
    }

    #[test]
    fn dim_count_matches_enumeration() {
        for n in 1..=20u32 {
            for alpha in 0..=4.min(n) {
                for k in 0..(1u64 << alpha) {
                    assert_eq!(
                        dim_count(n, alpha, k),
                        dims(n, alpha, k).len() as u32,
                        "n={n} α={alpha} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_n_bound_is_dim_count_plus_one() {
        // The identity DESIGN.md relies on: N(α,k) = |Dim(α,k)| + 1 whenever
        // the class has at least one high dimension reachable.
        for n in 2..=24u32 {
            for alpha in 1..=4.min(n - 1) {
                for k in 0..(1u64 << alpha) {
                    let d = dim_count(n, alpha, k);
                    let nb = n_bound_paper(n, alpha, k);
                    assert_eq!(nb, d + 1, "n={n} α={alpha} k={k}: N={nb}, |Dim|={d}");
                }
            }
        }
    }

    #[test]
    fn subcube_pos_round_trips() {
        let gc = GaussianCube::new(9, 4).unwrap();
        for v in 0..gc.num_nodes() {
            let pos = subcube_pos(&gc, NodeId(v));
            assert_eq!(node_at(&gc, pos), NodeId(v));
            assert_eq!(pos.k, NodeId(v).low_bits(2));
        }
    }

    #[test]
    fn ending_classes_partition_the_cube() {
        let gc = GaussianCube::new(8, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in 0..4u64 {
            let nodes = ending_class_nodes(&gc, k);
            assert_eq!(nodes.len() as u64, gc.num_nodes() / 4);
            for p in nodes {
                assert_eq!(gc.ending_class(p), k);
                assert!(seen.insert(p));
            }
        }
        assert_eq!(seen.len() as u64, gc.num_nodes());
    }

    #[test]
    fn equivalent_classes_partition_each_ending_class() {
        let gc = GaussianCube::new(9, 4).unwrap();
        for k in 0..4u64 {
            let mut seen = std::collections::HashSet::new();
            for t in 0..equivalent_class_count(&gc, k) {
                for p in equivalent_class_nodes(&gc, k, t) {
                    assert_eq!(gc.ending_class(p), k);
                    assert!(seen.insert(p), "EEC overlap at k={k} t={t} p={p}");
                }
            }
            assert_eq!(seen.len(), ending_class_nodes(&gc, k).len());
        }
    }

    #[test]
    fn geec_subcubes_are_hypercubes() {
        // Theorem 3's premise: GEEC(α,k,t) is a |Dim(α,k)|-dimensional binary
        // hypercube embedded in GC — adjacent coordinates differ in exactly
        // one Dim position and the GC link exists.
        let gc = GaussianCube::new(10, 4).unwrap();
        for k in 0..4u64 {
            let dim_set = dims(10, 2, k);
            for t in 0..equivalent_class_count(&gc, k).min(4) {
                let nodes = equivalent_class_nodes(&gc, k, t);
                for (coord, &p) in nodes.iter().enumerate() {
                    for (i, &c) in dim_set.iter().enumerate() {
                        let q = nodes[coord ^ (1 << i)];
                        assert_eq!(q, p.flip(c));
                        assert!(gc.has_link(p, c), "missing GC link at {p} dim {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn high_dim_links_stay_inside_equivalent_class() {
        // Links in dimensions ≥ α never leave the node's EEC; links in
        // dimensions < α never leave its t/coord (they move along the tree).
        let gc = GaussianCube::new(9, 4).unwrap();
        for v in 0..gc.num_nodes() {
            let p = NodeId(v);
            let pos = subcube_pos(&gc, p);
            for c in gc.link_dims(p) {
                let q = p.flip(c);
                let qpos = subcube_pos(&gc, q);
                if c >= gc.alpha() {
                    assert_eq!(pos.k, qpos.k);
                    assert_eq!(pos.t, qpos.t);
                    assert_eq!((pos.coord ^ qpos.coord).count_ones(), 1);
                }
            }
        }
    }

    #[test]
    fn tree_edges_are_realised_by_every_class_member() {
        // DESIGN.md key fact: for a tree edge (p, q) across dimension c < α,
        // every member of EC(p) owns the GC link in dimension c.
        let gc = GaussianCube::new(8, 8).unwrap();
        let tree = projection_tree(&gc);
        for l in tree.links() {
            let (p, _q) = l.endpoints();
            for node in ending_class_nodes(&gc, p.0) {
                assert!(
                    gc.has_link(node, l.dim),
                    "node {node} of EC({}) lacks tree-edge link in dim {}",
                    p.0,
                    l.dim
                );
            }
        }
    }

    #[test]
    fn class_tables_match_per_class_dims() {
        for n in 1..=16u32 {
            for alpha in 0..=4.min(n) {
                let lists = class_dim_lists(n, alpha);
                let masks = class_dim_masks(n, alpha);
                assert_eq!(lists.len(), 1 << alpha);
                assert_eq!(masks.len(), 1 << alpha);
                for k in 0..(1u64 << alpha) {
                    assert_eq!(lists[k as usize], dims(n, alpha, k));
                    let want = dims(n, alpha, k)
                        .into_iter()
                        .fold(0u64, |m, c| m | (1u64 << c));
                    assert_eq!(masks[k as usize], want, "n={n} α={alpha} k={k}");
                }
            }
        }
    }

    #[test]
    fn required_class_mask_matches_required_tree_nodes() {
        for (n, m) in [(6u32, 1u64), (7, 2), (8, 4), (9, 8), (10, 16)] {
            let gc = GaussianCube::new(n, m).unwrap();
            for s in (0..gc.num_nodes()).step_by(7) {
                for d in (0..gc.num_nodes()).step_by(11) {
                    let mask = required_class_mask(gc.alpha(), NodeId(s), NodeId(d));
                    let want = required_tree_nodes(&gc, NodeId(s), NodeId(d))
                        .into_iter()
                        .fold(0u64, |acc, k| acc | (1u64 << k));
                    assert_eq!(mask, want, "GC({n},{m}) {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn required_tree_nodes_and_flips() {
        let gc = GaussianCube::new(8, 4).unwrap();
        // s and d differ in dims {2, 5, 6}: classes 2%4=2, 5%4=1, 6%4=2.
        let s = NodeId(0);
        let d = NodeId((1 << 2) | (1 << 5) | (1 << 6));
        assert_eq!(required_tree_nodes(&gc, s, d), vec![1, 2]);
        let flips = flips_by_class(&gc, s, d);
        assert_eq!(flips, vec![(1, vec![5]), (2, vec![2, 6])]);
    }

    #[test]
    fn projection_preserves_reachability() {
        // Every GC hop projects to either a tree self-loop (dim ≥ α) or a
        // tree edge (dim < α) — the projection lemma FFGCR's optimality rests
        // on.
        let gc = GaussianCube::new(7, 4).unwrap();
        let tree = projection_tree(&gc);
        for v in 0..gc.num_nodes() {
            let p = NodeId(v);
            for c in gc.link_dims(p) {
                let q = p.flip(c);
                let (kp, kq) = (gc.ending_class(p), gc.ending_class(q));
                if c < gc.alpha() {
                    assert_eq!(
                        tree.edge_dim(NodeId(kp), NodeId(kq)),
                        Some(c),
                        "GC dim-{c} link must project onto a T_α edge"
                    );
                } else {
                    assert_eq!(kp, kq);
                }
            }
        }
        // Sanity: the tree really is the quotient graph.
        assert!(search::is_connected(&tree, &NoFaults));
    }
}
