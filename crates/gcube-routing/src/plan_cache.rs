//! The ending-class plan cache — the perf layer over Algorithms 1/3.
//!
//! Theorem 2's projection argument says an FFGCR plan is determined by the
//! route's *tree-level* data alone: the endpoint ending classes `EC(s)`,
//! `EC(d)` and the set of classes that own a pending high-dimension flip
//! (`{c mod 2^α : c ≥ α, bit c of s ⊕ d set}`). Nothing else about the
//! concrete pair enters the walk construction — `2^n` node pairs collapse
//! onto at most `2^α · 2^α · 2^{2^α}` distinct planning problems, and in
//! practice onto the handful of keys live traffic actually exercises.
//!
//! [`PlanCache`] memoises the tree walk (PC trunk + CT side trips) under
//! the key `(EC(s), EC(d), required-class mask)`. Realising a concrete
//! route then reduces to an XOR replay: walk the cached class sequence,
//! flipping each class's pending dimensions (`Dim(α,k) ∩ (s ⊕ d)`,
//! ascending) at its first visit. No sets, no maps, no tree search.
//!
//! **The walk form (α ≤ 3).** A walk has at most `2·(2^α − 1) = 14` tree
//! edges at α = 3, each a dimension `< α`, so it packs into one word: two
//! bits per edge plus the count. The packed walks sit in a dense table of
//! `2^α · 2^α · 2^{2^α}` atomic words (256 at α = 2, 16,384 at α = 3),
//! allocated zeroed by the first lookup and filled on first use by
//! compare-and-swap, so a lookup takes no lock and clones nothing. The
//! pair plus its packed walk is a [`WalkRoute`], and [`WalkRule`] walks
//! it hop by hop: at node `cur`, flip the lowest pending dimension of
//! `cur`'s class, else cross the next tree edge, until `cur` is the
//! destination. The simulator forwards packets by that rule, so a cached
//! FFGCR plan allocates nothing; [`PlanCache::route`] still materialises
//! the node sequence for callers that want it. Wider spines (3 < α ≤ 6)
//! keep their walks, preprocessed into [`CachedWalk`]s, in a locked map
//! and plan explicit routes.
//!
//! The packed key needs `2^α ≤ 64`; wider spines (α > 6, rare — the paper
//! evaluates α ≤ 4) transparently fall back to the uncached planner. The
//! cache is keyed purely by topology, so fault events never invalidate it:
//! fault handling stays per-packet, downstream of the cached walk. FTGCR
//! tests each cached walk against the current fault set and replays it
//! directly when no fault lies in the subcubes it flips through; only the
//! other plans run plan repair and crossing detours. See DESIGN.md §8.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use gcube_topology::classes::{class_dim_masks, required_class_mask};
use gcube_topology::{GaussianCube, GaussianTree, LinkMask, NodeId, Topology};

use crate::collective::{self, BroadcastTree, RepairOutcome};
use crate::ffgcr;
use crate::route::{Route, RoutingError, Trajectory};

/// Largest `α` the packed cache key supports: the required-class set must
/// fit a 64-bit mask, so `2^α ≤ 64`.
pub const MAX_CACHED_ALPHA: u32 = 6;

/// Largest `α` whose walks pack into one word and sit in the dense,
/// lock-free table, and whose FFGCR plans take the walk form.
pub const MAX_WALK_ALPHA: u32 = 3;

/// The edge count's bits at the bottom of a [`PackedWalk`].
const EDGE_SHIFT: u32 = 4;

/// Marks a filled table slot; no packed walk reaches it (4 + 2·14 bits).
const FILLED: u64 = 1 << 63;

/// One position of a tree walk: the dimension crossed into it (none at
/// position 0), its class, and whether this is the walk's first visit of
/// that class — where FFGCR schedules the class's dimension flips.
pub type WalkPosition = (Option<u32>, u64, bool);

/// A Gaussian-tree walk packed into one word (α ≤ 3): the edge count in
/// bits 0..4, then edge `i`'s dimension in bits `4 + 2i .. 6 + 2i`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct PackedWalk(u64);

impl PackedWalk {
    fn pack(dims: &[u32]) -> PackedWalk {
        assert!(
            dims.len() <= 14 && dims.iter().all(|&c| c < 4),
            "a walk at α ≤ 3 fits a word"
        );
        let edges = dims.iter().rev().fold(0u64, |e, &c| e << 2 | u64::from(c));
        PackedWalk(edges << EDGE_SHIFT | dims.len() as u64)
    }

    fn len(self) -> usize {
        (self.0 & ((1 << EDGE_SHIFT) - 1)) as usize
    }

    fn edges(self) -> u64 {
        self.0 >> EDGE_SHIFT
    }

    /// The walk's positions, from class `ks`.
    fn positions(self, ks: u64) -> impl Iterator<Item = WalkPosition> + Clone {
        let (mut k, mut edges, mut seen) = (ks, self.edges(), 0u64);
        (0..=self.len()).map(move |i| {
            let cross = (i > 0).then(|| {
                let c = (edges & 3) as u32;
                edges >>= 2;
                k ^= 1 << c;
                c
            });
            let first = seen >> k & 1 == 0;
            seen |= 1 << k;
            (cross, k, first)
        })
    }

    /// The walk from class `ks`, unpacked.
    fn decode(self, ks: u64) -> CachedWalk {
        let mut walk = CachedWalk {
            classes: Vec::with_capacity(self.len() + 1),
            edge_dims: Vec::with_capacity(self.len()),
            first_visit: Vec::with_capacity(self.len() + 1),
        };
        for (cross, k, first) in self.positions(ks) {
            walk.edge_dims.extend(cross);
            walk.classes.push(k);
            walk.first_visit.push(first);
        }
        walk
    }
}

/// An FFGCR route in walk form (α ≤ 3): its endpoints and the packed
/// Gaussian-tree walk between their ending classes. [`WalkRule`] turns
/// it into hops; [`PlanCache::walk_route`] builds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkRoute {
    source: NodeId,
    dest: NodeId,
    walk: PackedWalk,
    hops: u32,
}

impl WalkRoute {
    /// The node where the route starts.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The node where the route ends.
    #[inline]
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Links on the route: one per tree edge plus one per differing
    /// dimension `≥ α`.
    #[inline]
    pub fn hops(&self) -> usize {
        self.hops as usize
    }

    /// The tree edges' dimensions, two bits each, the first in the low
    /// bits: the cursor a packet starts from ([`WalkRule::next_hop`]).
    #[inline]
    pub fn edges(&self) -> u64 {
        self.walk.edges()
    }
}

/// The next-hop rule of walk-form routes on one cube shape (α ≤ 3):
/// `Dim(α, k)` as a dimension mask for every class, indexed by a node's
/// low three bits.
///
/// Theorem 2 makes an FFGCR route a tree walk plus in-class flips, each
/// class's flips made in ascending order at its first visit. At node
/// `cur`, its class still owes the flips `(cur ⊕ d) ∩ Dim(α, EC(cur))`,
/// so the rule flips the lowest of them, else crosses the next tree edge.
/// On a later visit of a class that mask is already empty, so the rule
/// needs no first-visit flags. An FFGCR route is a shortest path and
/// never revisits a node, so it has arrived exactly when `cur == d`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkRule {
    dims: [u64; 8],
    low: u64,
}

impl WalkRule {
    /// The rule for `GC(n, 2^α)`; `None` when `α > 3`, whose plans stay
    /// explicit.
    pub fn new(n: u32, alpha: u32) -> Option<WalkRule> {
        if alpha > MAX_WALK_ALPHA {
            return None;
        }
        let low = (1u64 << alpha) - 1;
        let mut dims = [0u64; 8];
        for (i, mask) in dims.iter_mut().enumerate() {
            let k = i as u64 & low;
            *mask = (alpha..n)
                .filter(|&c| u64::from(c) & low == k)
                .fold(0, |m, c| m | 1 << c);
        }
        Some(WalkRule { dims, low })
    }

    /// `Dim(α, k)` as a dimension mask.
    #[inline]
    pub fn class_dims(&self, k: u64) -> u64 {
        self.dims[(k & 7) as usize]
    }

    /// `(s ⊕ d)` restricted to the dimensions `≥ α`: the pair's flips.
    #[inline]
    pub fn high_flips(&self, s: NodeId, d: NodeId) -> u64 {
        (s.0 ^ d.0) & !self.low
    }

    /// The hop after `cur` on a walk-form route to `dest` whose uncrossed
    /// tree edges are `edges`; `None` at the destination.
    #[inline]
    pub fn next_hop(&self, cur: NodeId, dest: NodeId, edges: u64) -> Option<NodeId> {
        if cur == dest {
            return None;
        }
        let pending = (cur.0 ^ dest.0) & self.class_dims(cur.0);
        let bit = if pending != 0 {
            pending & pending.wrapping_neg()
        } else {
            1 << (edges & 3)
        };
        Some(NodeId(cur.0 ^ bit))
    }

    /// The uncrossed tree edges after the hop `from → to`: the next edge
    /// is gone when the hop crossed it.
    #[inline]
    pub fn edges_after(&self, from: NodeId, to: NodeId, edges: u64) -> u64 {
        if (from.0 ^ to.0) & self.low != 0 {
            edges >> 2
        } else {
            edges
        }
    }

    /// The route's node sequence, source first, replayed by the rule.
    pub fn nodes(&self, route: &WalkRoute) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(route.hops() + 1);
        let (mut cur, mut edges) = (route.source, route.edges());
        nodes.push(cur);
        while let Some(next) = self.next_hop(cur, route.dest, edges) {
            edges = self.edges_after(cur, next, edges);
            cur = next;
            nodes.push(cur);
        }
        nodes
    }

    /// The walk's positions, from the source's class.
    pub fn positions(&self, route: &WalkRoute) -> impl Iterator<Item = WalkPosition> + Clone {
        route.walk.positions(route.source.0 & self.low)
    }
}

/// One memoised tree walk, preprocessed for allocation-free replay.
#[derive(Clone, Debug)]
pub struct CachedWalk {
    /// The ending-class sequence (PC trunk plus CT side trips).
    pub classes: Vec<u64>,
    /// `edge_dims[i]` is the dimension (`< α`) crossing
    /// `classes[i] → classes[i+1]`; length `classes.len() - 1`.
    pub edge_dims: Vec<u32>,
    /// Whether position `i` is the walk's first visit of `classes[i]` —
    /// where FFGCR schedules that class's dimension flips.
    pub first_visit: Vec<bool>,
}

impl CachedWalk {
    /// Tree hops of the walk (excludes intra-class flips).
    #[inline]
    pub fn tree_hops(&self) -> usize {
        self.edge_dims.len()
    }

    /// The walk's positions, in order.
    pub fn positions(&self) -> impl Iterator<Item = WalkPosition> + Clone + '_ {
        self.classes.iter().enumerate().map(|(i, &k)| {
            let cross = i.checked_sub(1).map(|j| self.edge_dims[j]);
            (cross, k, self.first_visit[i])
        })
    }
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a memoised walk.
    pub hits: u64,
    /// Lookups that had to build the walk.
    pub misses: u64,
    /// Distinct keys currently memoised.
    pub entries: u64,
}

impl CacheStats {
    /// Hits over total lookups (`1.0` for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot of the broadcast-tree cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeCacheStats {
    /// Lookups served from a cached tree at the current fault generation.
    pub hits: u64,
    /// Lookups that built, rebuilt or regrafted a tree.
    pub misses: u64,
    /// Misses resolved by a subtree regraft (same root, new generation).
    pub regrafts: u64,
    /// Misses resolved by a full rebuild (root replaced).
    pub rebuilds: u64,
}

/// An exported broadcast-tree cache entry: everything needed to re-seed
/// a fresh cache so that subsequent regrafts diff against the same
/// previous tree the original cache held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeSnapshot {
    /// Root ending class (the cache key).
    pub class: u64,
    /// Concrete root the cached tree runs from.
    pub root: NodeId,
    /// Fault generation the tree was screened/patched against.
    pub generation: u64,
    /// The recorded transition outcome to `generation`.
    pub repair: RepairOutcome,
    /// The cached tree itself.
    pub tree: BroadcastTree,
}

/// One cached fault-screened broadcast tree, keyed by root ending class.
#[derive(Debug)]
struct TreeEntry {
    root: NodeId,
    /// Fault generation the tree was screened/patched against.
    generation: u64,
    tree: Arc<BroadcastTree>,
    /// Outcome of the transition *to* `generation` (zeroed for a fresh
    /// build) — every caller at this generation observes the same value,
    /// so repair accounting is independent of which thread got there
    /// first.
    repair: RepairOutcome,
}

/// The walk counters, on a cache line of their own: every lookup bumps
/// one, and concurrently planning threads would otherwise invalidate the
/// line holding the table pointer on every plan.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A memoised planner for one cube shape `GC(n, 2^α)`.
///
/// Thread-safe, so one cache can serve a whole sweep: at α ≤ 3 a lookup
/// reads one atomic word of the dense table; wider spines take a short
/// lock on the walk map and share walks via `Arc`.
#[derive(Debug)]
pub struct PlanCache {
    n: u32,
    alpha: u32,
    tree: GaussianTree,
    /// `Dim(α, k)` per class as a dimension bitmask (empty when inactive).
    class_dim_mask: Vec<u64>,
    /// The walk form's next-hop rule (α ≤ 3).
    rule: Option<WalkRule>,
    /// α ≤ 3: the packed walk of key `(ks, kd, required)` at index
    /// `(ks·2^α + kd)·2^(2^α) + required`, tagged [`FILLED`]; zero until
    /// first use. Allocated, zeroed, by the first lookup, so a cache that
    /// only serves broadcast trees never sizes it.
    table: OnceLock<Box<[AtomicU64]>>,
    /// 3 < α ≤ 6: the walks by key.
    walks: Mutex<HashMap<(u64, u64, u64), Arc<CachedWalk>>>,
    counters: Counters,
    /// Fault-screened broadcast trees for the collective traffic class,
    /// keyed by root ending class and invalidated by fault-generation
    /// bumps (unlike `walks`, which is pure topology).
    trees: Mutex<HashMap<u64, TreeEntry>>,
    tree_hits: AtomicU64,
    tree_misses: AtomicU64,
    tree_regrafts: AtomicU64,
    tree_rebuilds: AtomicU64,
}

impl PlanCache {
    /// Build a cache for `gc`'s shape. Cheap: the walk map starts empty
    /// and fills on demand.
    pub fn new(gc: &GaussianCube) -> PlanCache {
        let (n, alpha) = (gc.n(), gc.alpha());
        let class_dim_mask = if alpha <= MAX_CACHED_ALPHA {
            class_dim_masks(n, alpha)
        } else {
            Vec::new()
        };
        PlanCache {
            n,
            alpha,
            tree: GaussianTree::new(alpha).expect("alpha within width cap"),
            class_dim_mask,
            rule: WalkRule::new(n, alpha),
            table: OnceLock::new(),
            walks: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            trees: Mutex::new(HashMap::new()),
            tree_hits: AtomicU64::new(0),
            tree_misses: AtomicU64::new(0),
            tree_regrafts: AtomicU64::new(0),
            tree_rebuilds: AtomicU64::new(0),
        }
    }

    /// Whether this cache was built for `gc`'s shape.
    #[inline]
    pub fn matches(&self, gc: &GaussianCube) -> bool {
        self.n == gc.n() && self.alpha == gc.alpha()
    }

    /// Whether the packed key applies (`α ≤ 6`). When `false`, [`route`]
    /// transparently delegates to the uncached planner.
    ///
    /// [`route`]: PlanCache::route
    #[inline]
    pub fn is_active(&self) -> bool {
        self.alpha <= MAX_CACHED_ALPHA
    }

    /// `Dim(α, k)` as a dimension bitmask. Panics when inactive.
    #[inline]
    pub fn class_dims(&self, k: u64) -> u64 {
        self.class_dim_mask[k as usize]
    }

    /// The walk-form rule for this shape (`None` when α > 3).
    #[inline]
    pub fn rule(&self) -> Option<&WalkRule> {
        self.rule.as_ref()
    }

    fn count(&self, hit: bool) {
        let c = &self.counters;
        if hit { &c.hits } else { &c.misses }.fetch_add(1, Ordering::Relaxed);
    }

    /// The memoised walk from class `ks` to `kd` covering the classes in
    /// `required` (a class bitmask), built on first use.
    pub fn walk(&self, ks: u64, kd: u64, required: u64) -> Arc<CachedWalk> {
        if self.rule.is_some() {
            return Arc::new(self.packed(ks, kd, required).decode(ks));
        }
        let key = (ks, kd, required);
        if let Some(w) = self.walks.lock().get(&key) {
            self.count(true);
            return Arc::clone(w);
        }
        // Built outside the lock: a racing builder produces the identical
        // walk. The hit/miss split is decided at insert time so each key
        // counts exactly one miss under any interleaving — a racing
        // builder that loses the insert counts a hit, keeping the
        // counters independent of thread count.
        let built = Arc::new(self.build_walk(ks, kd, required));
        match self.walks.lock().entry(key) {
            Entry::Occupied(e) => {
                self.count(true);
                Arc::clone(e.get())
            }
            Entry::Vacant(e) => {
                self.count(false);
                Arc::clone(e.insert(built))
            }
        }
    }

    /// The packed walk of key `(ks, kd, required)` (α ≤ 3), built on first
    /// use. Counted like the map: a filled slot is a hit; an empty one is
    /// built and offered by compare-and-swap, and only the swap that fills
    /// it counts the key's one miss. A racing builder that loses the swap
    /// built the identical walk and counts a hit. `Relaxed` suffices: the
    /// word is the whole walk, so it publishes no other data.
    fn packed(&self, ks: u64, kd: u64, required: u64) -> PackedWalk {
        let index = (((ks << self.alpha) | kd) << (1u32 << self.alpha)) | required;
        let table = self.table.get_or_init(|| {
            let slots = 1usize << (2 * self.alpha + (1 << self.alpha));
            (0..slots).map(|_| AtomicU64::new(0)).collect()
        });
        let slot = &table[index as usize];
        let word = slot.load(Ordering::Relaxed);
        if word != 0 {
            self.count(true);
            return PackedWalk(word & !FILLED);
        }
        let built = PackedWalk::pack(&self.build_walk(ks, kd, required).edge_dims);
        let won = slot
            .compare_exchange(0, built.0 | FILLED, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        self.count(!won);
        built
    }

    /// The walk-form FFGCR route `s → d` (α ≤ 3; `None` otherwise), after
    /// one counted lookup. Both nodes must lie in the cube.
    #[inline]
    pub fn walk_route(&self, s: NodeId, d: NodeId) -> Option<WalkRoute> {
        let rule = self.rule.as_ref()?;
        let (ks, kd) = (s.0 & rule.low, d.0 & rule.low);
        let walk = self.packed(ks, kd, required_class_mask(self.alpha, s, d));
        Some(WalkRoute {
            source: s,
            dest: d,
            walk,
            hops: walk.len() as u32 + rule.high_flips(s, d).count_ones(),
        })
    }

    /// FFGCR through the cache in the form the simulator forwards: a
    /// [`WalkRoute`] at α ≤ 3, allocating nothing, else [`route`]'s
    /// explicit node sequence.
    ///
    /// [`route`]: PlanCache::route
    pub fn plan(
        &self,
        gc: &GaussianCube,
        s: NodeId,
        d: NodeId,
    ) -> Result<Trajectory, RoutingError> {
        if !gc.contains(s) {
            return Err(RoutingError::OutOfRange(s));
        }
        if !gc.contains(d) {
            return Err(RoutingError::OutOfRange(d));
        }
        match self.walk_route(s, d) {
            Some(w) => Ok(Trajectory::Walk(w)),
            None => self.route(gc, s, d).map(Trajectory::Route),
        }
    }

    fn build_walk(&self, ks: u64, kd: u64, required: u64) -> CachedWalk {
        let req: BTreeSet<NodeId> = (0..64u64)
            .filter(|&k| required >> k & 1 == 1)
            .map(NodeId)
            .collect();
        let walk = ffgcr::tree_walk_covering(&self.tree, NodeId(ks), NodeId(kd), &req);
        let edge_dims = walk
            .windows(2)
            .map(|w| {
                self.tree
                    .edge_dim(w[0], w[1])
                    .expect("walk follows tree edges")
            })
            .collect();
        let mut seen = 0u64;
        let first_visit = walk
            .iter()
            .map(|k| {
                let bit = 1u64 << k.0;
                let first = seen & bit == 0;
                seen |= bit;
                first
            })
            .collect();
        CachedWalk {
            classes: walk.into_iter().map(|k| k.0).collect(),
            edge_dims,
            first_visit,
        }
    }

    /// The cached walk plus the high-dimension flip mask
    /// (`(s ⊕ d)` restricted to dimensions `≥ α`) for a concrete pair —
    /// the two ingredients FTGCR's executor builds its schedule from.
    pub fn walk_and_flips(
        &self,
        gc: &GaussianCube,
        s: NodeId,
        d: NodeId,
    ) -> (Arc<CachedWalk>, u64) {
        debug_assert!(self.is_active() && self.matches(gc));
        let high = (s.0 ^ d.0) >> self.alpha << self.alpha;
        let required = required_class_mask(self.alpha, s, d);
        (
            self.walk(gc.ending_class(s), gc.ending_class(d), required),
            high,
        )
    }

    /// FFGCR through the cache: the node sequence is identical to
    /// [`ffgcr::route`]'s (property-tested), at cache-lookup + XOR-replay
    /// cost. The output route is the only allocation.
    pub fn route(&self, gc: &GaussianCube, s: NodeId, d: NodeId) -> Result<Route, RoutingError> {
        if !gc.contains(s) {
            return Err(RoutingError::OutOfRange(s));
        }
        if !gc.contains(d) {
            return Err(RoutingError::OutOfRange(d));
        }
        if !self.is_active() {
            return ffgcr::route(gc, s, d);
        }
        let high = (s.0 ^ d.0) >> self.alpha << self.alpha;
        let nodes = match (&self.rule, self.walk_route(s, d)) {
            (Some(rule), Some(w)) => self.replay(s, high, w.hops(), rule.positions(&w)),
            _ => {
                let (walk, _) = self.walk_and_flips(gc, s, d);
                let hops = walk.tree_hops() + high.count_ones() as usize;
                self.replay(s, high, hops, walk.positions())
            }
        };
        let cur = *nodes.last().expect("a replay holds the source");
        debug_assert_eq!(cur, d, "cached realisation must land on the destination");
        if cur != d {
            return Err(RoutingError::Unreachable { from: s, to: d });
        }
        Ok(Route::new(nodes))
    }

    /// Realise a walk from `s`: cross into each position, then flip its
    /// class's pending dimensions at the first visit, ascending — the
    /// same order `ffgcr::realize` uses.
    fn replay(
        &self,
        s: NodeId,
        high: u64,
        hops: usize,
        positions: impl Iterator<Item = WalkPosition>,
    ) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(hops + 1);
        let mut cur = s;
        nodes.push(cur);
        for (cross, k, first) in positions {
            if let Some(c) = cross {
                cur = cur.flip(c);
                nodes.push(cur);
            }
            if first {
                let mut pending = self.class_dim_mask[k as usize] & high;
                while pending != 0 {
                    cur = cur.flip(pending.trailing_zeros());
                    pending &= pending - 1;
                    nodes.push(cur);
                }
            }
        }
        nodes
    }

    /// The fault-screened broadcast tree rooted at `root` for the fault
    /// set `mask` at change stamp `generation`, cached by root ending
    /// class.
    ///
    /// * Same root, same generation → pure hit (shared `Arc`).
    /// * Same root, new generation → **regraft repair** of the cached tree
    ///   (subtree reattachment, no full rebuild).
    /// * Different root (the old one died) → full screened rebuild,
    ///   flagged `rebuilt` in the outcome.
    ///
    /// The returned [`RepairOutcome`] is the one recorded for the entry's
    /// *current* generation: a racing builder that loses the insert adopts
    /// the winner's identical result, so outcome and counters are the same
    /// for every caller regardless of thread interleaving. Callers that
    /// account repairs (the simulator's coordinator) diff the generation
    /// themselves to account each transition exactly once.
    pub fn broadcast_tree_for<M: LinkMask + ?Sized>(
        &self,
        gc: &GaussianCube,
        mask: &M,
        root: NodeId,
        generation: u64,
    ) -> (Arc<BroadcastTree>, RepairOutcome) {
        debug_assert!(self.matches(gc), "cache must be built for this cube");
        let class = gc.ending_class(root);
        let prev: Option<(NodeId, Arc<BroadcastTree>)> = {
            let map = self.trees.lock();
            match map.get(&class) {
                Some(e) if e.root == root && e.generation == generation => {
                    self.tree_hits.fetch_add(1, Ordering::Relaxed);
                    return (Arc::clone(&e.tree), e.repair);
                }
                Some(e) => Some((e.root, Arc::clone(&e.tree))),
                None => None,
            }
        };
        // Build or patch outside the lock: the result is a pure function
        // of (old tree, mask), so racing builders agree.
        let (tree, repair) = match prev {
            Some((old_root, old_tree)) if old_root == root => {
                let mut patched = (*old_tree).clone();
                let outcome = patched.regraft(gc, mask);
                (patched, outcome)
            }
            was_cached => {
                let built = collective::screened_broadcast_tree(gc, mask, root)
                    .expect("collective roots are validated in-range and healthy");
                let outcome = RepairOutcome {
                    rebuilt: was_cached.is_some(),
                    ..RepairOutcome::default()
                };
                (built, outcome)
            }
        };
        let mut map = self.trees.lock();
        match map.entry(class) {
            Entry::Occupied(mut e) => {
                let cur = e.get();
                if cur.root == root && cur.generation == generation {
                    // A racing builder won the insert: adopt its result.
                    self.tree_hits.fetch_add(1, Ordering::Relaxed);
                    return (Arc::clone(&cur.tree), cur.repair);
                }
                self.tree_misses.fetch_add(1, Ordering::Relaxed);
                if repair.rebuilt {
                    self.tree_rebuilds.fetch_add(1, Ordering::Relaxed);
                } else if cur.root == root {
                    self.tree_regrafts.fetch_add(1, Ordering::Relaxed);
                }
                let entry = TreeEntry {
                    root,
                    generation,
                    tree: Arc::new(tree),
                    repair,
                };
                let shared = Arc::clone(&entry.tree);
                e.insert(entry);
                (shared, repair)
            }
            Entry::Vacant(e) => {
                self.tree_misses.fetch_add(1, Ordering::Relaxed);
                let entry = TreeEntry {
                    root,
                    generation,
                    tree: Arc::new(tree),
                    repair,
                };
                let shared = Arc::clone(&entry.tree);
                e.insert(entry);
                (shared, repair)
            }
        }
    }

    /// Snapshot the broadcast-tree cache contents (sorted by class) —
    /// the *stateful* part of the cache. Unlike the walk map, which is a
    /// pure function of topology, a cached broadcast tree carries repair
    /// history: regrafting patches the previous tree, so the current
    /// shape depends on the sequence of fault generations it lived
    /// through. A checkpointed engine must carry these entries to resume
    /// bitwise; see [`PlanCache::restore_tree`].
    pub fn tree_snapshots(&self) -> Vec<TreeSnapshot> {
        let map = self.trees.lock();
        let mut out: Vec<TreeSnapshot> = map
            .iter()
            .map(|(&class, e)| TreeSnapshot {
                class,
                root: e.root,
                generation: e.generation,
                repair: e.repair,
                tree: (*e.tree).clone(),
            })
            .collect();
        out.sort_unstable_by_key(|s| s.class);
        out
    }

    /// Seed the broadcast-tree cache with a snapshotted entry (inverse of
    /// [`PlanCache::tree_snapshots`]; counters are not restored — they
    /// are reporting, not behavior).
    pub fn restore_tree(&self, snap: TreeSnapshot) {
        self.trees.lock().insert(
            snap.class,
            TreeEntry {
                root: snap.root,
                generation: snap.generation,
                tree: Arc::new(snap.tree),
                repair: snap.repair,
            },
        );
    }

    /// Snapshot the broadcast-tree cache counters.
    pub fn tree_stats(&self) -> TreeCacheStats {
        TreeCacheStats {
            hits: self.tree_hits.load(Ordering::Relaxed),
            misses: self.tree_misses.load(Ordering::Relaxed),
            regrafts: self.tree_regrafts.load(Ordering::Relaxed),
            rebuilds: self.tree_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the hit/miss counters and entry count.
    pub fn stats(&self) -> CacheStats {
        let misses = self.counters.misses.load(Ordering::Relaxed);
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses,
            // Each filled slot counted the one miss of its key.
            entries: if self.rule.is_some() {
                misses
            } else {
                self.walks.lock().len() as u64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_topology::NoFaults;

    #[test]
    fn cached_routes_equal_uncached_exhaustively() {
        for (n, m) in [(6u32, 1u64), (6, 2), (6, 4), (7, 8), (5, 16)] {
            let gc = GaussianCube::new(n, m).unwrap();
            let cache = PlanCache::new(&gc);
            for s in 0..gc.num_nodes() {
                for d in 0..gc.num_nodes() {
                    let cached = cache.route(&gc, NodeId(s), NodeId(d)).unwrap();
                    let plain = ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap();
                    assert_eq!(
                        cached.nodes(),
                        plain.nodes(),
                        "GC({n},{m}) {s}->{d}: cached route must be identical"
                    );
                    cached.validate(&gc, &NoFaults).unwrap();
                }
            }
        }
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let gc = GaussianCube::new(8, 4).unwrap();
        let cache = PlanCache::new(&gc);
        assert_eq!(cache.stats(), CacheStats::default());
        cache.route(&gc, NodeId(0), NodeId(255)).unwrap();
        let after_first = cache.stats();
        assert_eq!(after_first.hits, 0);
        assert!(after_first.misses >= 1 && after_first.entries >= 1);
        // Same pair again: pure hit.
        cache.route(&gc, NodeId(0), NodeId(255)).unwrap();
        let after_second = cache.stats();
        assert_eq!(after_second.hits, after_first.hits + 1);
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hit_rate() > 0.0);
        // A pair with the same classes and required set shares the entry.
        let (s2, d2) = (NodeId(0b0100), NodeId(0b0100 ^ 255));
        assert_eq!(gc.ending_class(s2), gc.ending_class(NodeId(0)));
        cache.route(&gc, s2, d2).unwrap();
        assert_eq!(cache.stats().hits, after_second.hits + 1);
    }

    /// Two threads planning one key stream (claimed off a shared cursor)
    /// end with the counters one thread gets: a lookup per plan, and one
    /// miss and one entry per distinct key, on the dense table (α = 2,
    /// 3) and on the map (α = 4).
    #[test]
    fn counters_do_not_depend_on_the_thread_count() {
        use std::sync::atomic::AtomicUsize;
        for (n, m) in [(10u32, 4u64), (11, 8), (10, 16)] {
            let gc = GaussianCube::new(n, m).unwrap();
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(n);
            let stream: Vec<(NodeId, NodeId)> = (0..4000)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (
                        NodeId((x >> 20) % gc.num_nodes()),
                        NodeId((x >> 40) % gc.num_nodes()),
                    )
                })
                .collect();
            let plan_all = |threads: usize| {
                let cache = PlanCache::new(&gc);
                let cursor = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| {
                            let next = || stream.get(cursor.fetch_add(1, Ordering::Relaxed));
                            while let Some(&(s, d)) = next() {
                                cache.plan(&gc, s, d).unwrap();
                            }
                        });
                    }
                });
                cache.stats()
            };
            let one = plan_all(1);
            assert_eq!(one.hits + one.misses, stream.len() as u64);
            assert_eq!(one.entries, one.misses);
            for _ in 0..5 {
                assert_eq!(plan_all(2), one, "GC({n},{m})");
            }
        }
    }

    /// Every key's packed walk decodes to the walk it was packed from.
    #[test]
    fn packed_walks_decode_to_the_built_walk() {
        for (n, m) in [(5u32, 1u64), (6, 2), (8, 4), (11, 8)] {
            let gc = GaussianCube::new(n, m).unwrap();
            let cache = PlanCache::new(&gc);
            let classes = m;
            for ks in 0..classes {
                for kd in 0..classes {
                    for required in 0..1u64 << classes {
                        let built = cache.build_walk(ks, kd, required);
                        let got = cache.walk(ks, kd, required);
                        assert_eq!(got.classes, built.classes);
                        assert_eq!(got.edge_dims, built.edge_dims);
                        assert_eq!(got.first_visit, built.first_visit);
                    }
                }
            }
            let keys = (classes * classes) << classes;
            assert_eq!(cache.stats().misses, keys, "one miss per key");
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let gc = GaussianCube::new(4, 2).unwrap();
        let cache = PlanCache::new(&gc);
        assert!(cache.route(&gc, NodeId(16), NodeId(0)).is_err());
        assert!(cache.route(&gc, NodeId(0), NodeId(99)).is_err());
    }

    #[test]
    fn wide_spine_falls_back_to_uncached() {
        // α = 7 > MAX_CACHED_ALPHA: the cache must stay correct by
        // delegating to the plain planner.
        let gc = GaussianCube::new(8, 128).unwrap();
        let cache = PlanCache::new(&gc);
        assert!(!cache.is_active());
        for (s, d) in [(0u64, 255u64), (17, 200), (99, 99)] {
            let cached = cache.route(&gc, NodeId(s), NodeId(d)).unwrap();
            let plain = ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap();
            assert_eq!(cached.nodes(), plain.nodes());
        }
        assert_eq!(cache.stats().entries, 0, "fallback must not populate");
    }

    #[test]
    fn tree_cache_hits_regrafts_and_rebuilds() {
        use crate::faults::FaultSet;
        use gcube_topology::LinkId;

        let gc = GaussianCube::new(7, 2).unwrap();
        let cache = PlanCache::new(&gc);
        let mut faults = FaultSet::new();
        assert_eq!(cache.tree_stats(), TreeCacheStats::default());

        // Fresh build: miss, not a rebuild.
        let (t1, o1) = cache.broadcast_tree_for(&gc, &faults, NodeId(0), faults.generation());
        assert!(!o1.rebuilt);
        assert_eq!(t1.covered_count(), gc.num_nodes());
        let s = cache.tree_stats();
        assert_eq!((s.hits, s.misses, s.regrafts, s.rebuilds), (0, 1, 0, 0));

        // Same root + generation: pure hit on the shared Arc.
        let (t2, o2) = cache.broadcast_tree_for(&gc, &faults, NodeId(0), faults.generation());
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(o2, o1);
        assert_eq!(cache.tree_stats().hits, 1);

        // Fault on a tree edge, new generation: regraft, full coverage kept.
        let child = t1.children()[&NodeId(0)][0];
        faults.add_link(LinkId::new(child, child.differing_dims(NodeId(0))[0]));
        let (t3, o3) = cache.broadcast_tree_for(&gc, &faults, NodeId(0), faults.generation());
        assert!(!o3.rebuilt);
        assert!(o3.regrafted_subtrees >= 1);
        assert_eq!(t3.covered_count(), gc.num_nodes());
        t3.validate_masked(&gc, &faults).unwrap();
        let s = cache.tree_stats();
        assert_eq!((s.misses, s.regrafts, s.rebuilds), (2, 1, 0));
        // Re-query at the repaired generation re-observes the outcome.
        let (_, o3b) = cache.broadcast_tree_for(&gc, &faults, NodeId(0), faults.generation());
        assert_eq!(o3b, o3);

        // Root replacement: full rebuild flagged.
        faults.add_node(NodeId(0));
        let (t4, o4) = cache.broadcast_tree_for(&gc, &faults, NodeId(4), faults.generation());
        assert!(o4.rebuilt);
        assert_eq!(t4.root, NodeId(4));
        assert_eq!(cache.tree_stats().rebuilds, 1);
    }

    #[test]
    fn alpha_zero_degenerates_to_hamming_replay() {
        let gc = GaussianCube::new(10, 1).unwrap();
        let cache = PlanCache::new(&gc);
        assert!(cache.is_active());
        for (s, d) in [(0u64, 1023u64), (37, 512), (123, 321)] {
            let cached = cache.route(&gc, NodeId(s), NodeId(d)).unwrap();
            let plain = ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap();
            assert_eq!(cached.nodes(), plain.nodes());
            assert_eq!(cached.hops() as u32, NodeId(s).hamming(NodeId(d)));
        }
    }
}
