//! Routing strategies pluggable into the simulator.

use std::sync::{Arc, OnceLock};

use gcube_routing::{
    ffgcr, ftgcr, CacheStats, FaultSet, PlanCache, Route, RoutingError, Trajectory,
};
use gcube_topology::{GaussianCube, NodeId};
use parking_lot::RwLock;

pub use gcube_routing::multitree::{MultiTreeAtlas, TreeChoice, TreeHealth};

/// A planned trajectory plus, for multipath strategies, which spanning
/// tree carried it and how many tree switches finding it cost. The engine
/// feeds the tree data into the `tree_*` metric counters and the
/// `tree_switch` trace event; `tree: None` (every single-path strategy)
/// leaves those untouched.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedRoute {
    /// The packet trajectory: an explicit route, or (cached FFGCR, and
    /// cached FTGCR's fast path, at α ≤ 3) an FFGCR route in walk form.
    pub path: Trajectory,
    /// Tree bookkeeping, when the strategy routes over a tree bundle.
    pub tree: Option<TreeChoice>,
}

/// A routing algorithm the simulator can drive.
///
/// # Concurrency contract
///
/// The shard engine calls [`plan_route`](Self::plan_route) from
/// **every** worker thread concurrently: each shard plans the injections
/// of the ending classes it owns, and the coordinator alone replans
/// blocked packets while the workers wait. The engine guarantees
/// bitwise-identical output for any thread count. Implementations must
/// therefore make any interior mutability *interleaving-independent*:
/// concurrent planning may not change what any call returns, and
/// observable side counters (e.g. [`cache_stats`](Self::cache_stats))
/// must converge to the same totals regardless of which thread planned
/// what. `gcube_routing::PlanCache` is the model: its key space
/// partitions by source ending class, and each key accounts exactly one
/// miss under any interleaving.
pub trait RoutingAlgorithm: Sync {
    /// Short name used in result tables.
    fn name(&self) -> &'static str;

    /// Compute the full trajectory for a packet.
    fn compute_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError>;

    /// Compute a trajectory with multipath bookkeeping. The engine calls
    /// this at every planning site; the default delegates to
    /// [`compute_route`](Self::compute_route) with no tree data.
    fn plan_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlannedRoute, RoutingError> {
        self.compute_route(gc, faults, s, d)
            .map(|route| PlannedRoute {
                path: Trajectory::Route(route),
                tree: None,
            })
    }

    /// Plan-cache counters, for strategies backed by a
    /// [`PlanCache`] (`None` for uncached strategies, or before first
    /// use). Not free — the counters are shared atomics, and at α > 3
    /// snapshotting takes the walk map's lock — so callers poll it at
    /// sample boundaries, not per packet.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Whether the strategy keeps delivering past the Theorem-3 fault
    /// budget. The health monitor downgrades `BoundExceeded` to
    /// `Degraded` for such strategies — the bound signals FTGCR's proof
    /// obligations are void, not that this router is about to strand
    /// packets.
    fn survives_bound_exceeded(&self) -> bool {
        false
    }

    /// Per-tree health against `faults`, for multipath strategies
    /// (`None` otherwise). Drives the `--health-report` tree block.
    fn tree_health(&self, gc: &GaussianCube, faults: &FaultSet) -> Option<Vec<TreeHealth>> {
        let _ = (gc, faults);
        None
    }

    /// Stable wire identity `(name, trees)` for strategies that
    /// [`build_strategy`] can reconstruct — what a checkpoint records so
    /// a restored run replans with equivalent routing. `None` marks a
    /// strategy that cannot be checkpointed (e.g. the e-cube baseline).
    ///
    /// Cached and uncached variants share a wire name on purpose: they
    /// produce identical routes (the cache only amortises planning), so a
    /// restore may substitute one for the other bitwise-safely.
    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        None
    }
}

/// FFGCR (Algorithm 3): optimal, fault-oblivious. Used for the fault-free
/// sweeps of Figures 5 and 6.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultFreeGcr;

impl RoutingAlgorithm for FaultFreeGcr {
    fn name(&self) -> &'static str {
        "FFGCR"
    }
    fn compute_route(
        &self,
        gc: &GaussianCube,
        _faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        ffgcr::route(gc, s, d)
    }
    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        Some(("ffgcr", 0))
    }
}

/// FTGCR (Theorem 5): the fault-tolerant strategy. Used for Figures 7/8.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultTolerantGcr;

impl RoutingAlgorithm for FaultTolerantGcr {
    fn name(&self) -> &'static str {
        "FTGCR"
    }
    fn compute_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        ftgcr::route(gc, faults, s, d).map(|(r, _)| r)
    }
    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        Some(("ftgcr", 0))
    }
}

/// Lazily builds the [`PlanCache`] shared by the cached strategies. The
/// cache of the first cube shape planned on is set once and read with no
/// lock and no `Arc` clone, so concurrent planners never serialise on
/// it. Any other shape (a sweep over several cubes) takes a read lock on
/// a second slot, which is rebuilt whenever that shape changes.
#[derive(Debug, Default)]
struct SharedCache {
    first: OnceLock<PlanCache>,
    other: RwLock<Option<Arc<PlanCache>>>,
}

impl SharedCache {
    #[inline]
    fn with<R>(&self, gc: &GaussianCube, plan: impl FnOnce(&PlanCache) -> R) -> R {
        let first = self.first.get_or_init(|| PlanCache::new(gc));
        if first.matches(gc) {
            return plan(first);
        }
        plan(&self.other_for(gc))
    }

    #[cold]
    fn other_for(&self, gc: &GaussianCube) -> Arc<PlanCache> {
        if let Some(c) = self.other.read().as_ref().filter(|c| c.matches(gc)) {
            return Arc::clone(c);
        }
        let mut guard = self.other.write();
        if let Some(c) = guard.as_ref().filter(|c| c.matches(gc)) {
            return Arc::clone(c);
        }
        let built = Arc::new(PlanCache::new(gc));
        *guard = Some(Arc::clone(&built));
        built
    }

    /// The first shape's counters: the cube a run plans on.
    fn stats(&self) -> Option<CacheStats> {
        self.first.get().map(PlanCache::stats)
    }
}

/// FFGCR served from a [`PlanCache`]: identical routes to [`FaultFreeGcr`]
/// (property-tested), with the tree walk memoised per ending-class pair.
#[derive(Debug, Default)]
pub struct CachedFfgcr {
    shared: SharedCache,
}

impl CachedFfgcr {
    /// Create a strategy with an empty cache; it fills on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit/miss counters of the underlying cache (`None` before first use).
    pub fn stats(&self) -> Option<CacheStats> {
        self.shared.stats()
    }
}

impl RoutingAlgorithm for CachedFfgcr {
    fn name(&self) -> &'static str {
        "FFGCR+cache"
    }
    fn compute_route(
        &self,
        gc: &GaussianCube,
        _faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        self.shared.with(gc, |c| c.route(gc, s, d))
    }
    fn plan_route(
        &self,
        gc: &GaussianCube,
        _faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlannedRoute, RoutingError> {
        let path = self.shared.with(gc, |c| c.plan(gc, s, d))?;
        Ok(PlannedRoute { path, tree: None })
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.stats()
    }
    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        Some(("ffgcr", 0))
    }
}

/// FTGCR with the fault-free planning stage served from a [`PlanCache`].
/// A plan whose flip subcubes and corners hold no fault is replayed from
/// the cached walk; every other plan runs fault repair per packet. Either
/// way the routes are identical to [`FaultTolerantGcr`]'s
/// (property-tested).
#[derive(Debug, Default)]
pub struct CachedFtgcr {
    shared: SharedCache,
}

impl CachedFtgcr {
    /// Create a strategy with an empty cache; it fills on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit/miss counters of the underlying cache (`None` before first use).
    pub fn stats(&self) -> Option<CacheStats> {
        self.shared.stats()
    }
}

impl RoutingAlgorithm for CachedFtgcr {
    fn name(&self) -> &'static str {
        "FTGCR+cache"
    }
    fn compute_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        self.shared
            .with(gc, |c| ftgcr::route_cached(gc, faults, s, d, c))
            .map(|(r, _)| r)
    }
    fn plan_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlannedRoute, RoutingError> {
        let path = self
            .shared
            .with(gc, |c| ftgcr::plan_cached(gc, faults, s, d, c))?;
        Ok(PlannedRoute { path, tree: None })
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.stats()
    }
    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        Some(("ftgcr", 0))
    }
}

/// Dimension-ordered e-cube on the binary hypercube (`M = 1` only):
/// the classic baseline the paper's family generalises.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcubeBaseline;

impl RoutingAlgorithm for EcubeBaseline {
    fn name(&self) -> &'static str {
        "e-cube"
    }
    fn compute_route(
        &self,
        gc: &GaussianCube,
        _faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        assert!(gc.is_hypercube(), "e-cube baseline requires M = 1");
        let mut nodes = vec![s];
        let mut cur = s;
        for c in 0..gc.n() {
            if cur.bit(c) != d.bit(c) {
                cur = cur.flip(c);
                nodes.push(cur);
            }
        }
        Ok(Route::new(nodes))
    }
}

/// The lazily-built multitree atlas, or the reason it cannot exist for
/// the current cube shape.
#[derive(Debug)]
enum AtlasSlot {
    Empty,
    Ready(Arc<MultiTreeAtlas>),
    /// Construction failed (shape not biconnected) — remembered so the
    /// fallback path does not retry the build per packet.
    Unsupported {
        n: u32,
        modulus: u64,
    },
}

/// Multipath routing over independent spanning trees
/// ([`gcube_routing::multitree`]): route along one of `k` trees chosen by
/// flow hash, switch trees on faults, fall back to cached FTGCR when the
/// bundle is exhausted. Keeps delivering on fault sets past the Theorem-3
/// budget, where plain FTGCR starts refusing connected pairs.
#[derive(Debug)]
pub struct MultiTreeStrategy {
    trees: usize,
    atlas: RwLock<AtlasSlot>,
    shared: SharedCache,
}

impl MultiTreeStrategy {
    /// Strategy with `trees` spanning trees per ending class
    /// (`1..=`[`gcube_routing::multitree::MAX_TREES`]; the atlas build
    /// rejects anything else on first use).
    pub fn new(trees: usize) -> Self {
        MultiTreeStrategy {
            trees,
            atlas: RwLock::new(AtlasSlot::Empty),
            shared: SharedCache::default(),
        }
    }

    /// Number of trees requested per bundle.
    pub fn trees(&self) -> usize {
        self.trees
    }

    /// The atlas for `gc`, building it on first use. `None` when the
    /// shape does not admit independent spanning trees (not biconnected)
    /// — the strategy then degenerates to cached FTGCR.
    ///
    /// # Panics
    /// On an invalid tree count (caller error, not a shape property).
    pub fn atlas_for(&self, gc: &GaussianCube) -> Option<Arc<MultiTreeAtlas>> {
        {
            let guard = self.atlas.read();
            match &*guard {
                AtlasSlot::Ready(a) if a.matches(gc) => return Some(Arc::clone(a)),
                AtlasSlot::Unsupported { n, modulus }
                    if *n == gc.n() && *modulus == gc.modulus() =>
                {
                    return None;
                }
                _ => {}
            }
        }
        let mut guard = self.atlas.write();
        match &*guard {
            AtlasSlot::Ready(a) if a.matches(gc) => return Some(Arc::clone(a)),
            AtlasSlot::Unsupported { n, modulus } if *n == gc.n() && *modulus == gc.modulus() => {
                return None;
            }
            _ => {}
        }
        match MultiTreeAtlas::build(gc, self.trees) {
            Ok(atlas) => {
                let atlas = Arc::new(atlas);
                *guard = AtlasSlot::Ready(Arc::clone(&atlas));
                Some(atlas)
            }
            Err(gcube_routing::MultiTreeError::BadTreeCount(k)) => {
                panic!("invalid multitree tree count {k}");
            }
            Err(gcube_routing::MultiTreeError::NotBiconnected { .. }) => {
                *guard = AtlasSlot::Unsupported {
                    n: gc.n(),
                    modulus: gc.modulus(),
                };
                None
            }
        }
    }
}

impl RoutingAlgorithm for MultiTreeStrategy {
    fn name(&self) -> &'static str {
        "multitree"
    }
    fn compute_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        self.plan_route(gc, faults, s, d)
            .map(|p| p.path.into_route(gc))
    }
    fn plan_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlannedRoute, RoutingError> {
        let atlas = self.atlas_for(gc);
        let (route, tree) = self.shared.with(gc, |cache| match atlas {
            Some(atlas) => atlas.route(gc, faults, s, d, Some(cache)),
            // Shape without independent trees: pure cached FTGCR, every
            // plan reported as an exhausted bundle of zero trees.
            None => ftgcr::route_cached(gc, faults, s, d, cache).map(|(route, _)| {
                let exhausted = TreeChoice {
                    tree: 0,
                    switches: 0,
                    exhausted: true,
                };
                (route, exhausted)
            }),
        })?;
        Ok(PlannedRoute {
            path: Trajectory::Route(route),
            tree: Some(tree),
        })
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.stats()
    }
    fn survives_bound_exceeded(&self) -> bool {
        true
    }
    fn tree_health(&self, gc: &GaussianCube, faults: &FaultSet) -> Option<Vec<TreeHealth>> {
        self.atlas_for(gc).map(|atlas| atlas.tree_health(faults))
    }
    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        Some(("multitree", self.trees))
    }
}

/// Build an owned strategy from its wire name — the inverse of
/// [`RoutingAlgorithm::wire_spec`], shared by the daemon's `open` request
/// and checkpoint restore. `trees` only matters for `"multitree"`.
///
/// `"auto"` is rejected here on purpose: it resolves against a concrete
/// config (fault count and schedule), so callers must resolve it before a
/// strategy name goes on the wire or into a checkpoint.
pub fn build_strategy(
    name: &str,
    trees: usize,
) -> Result<Box<dyn RoutingAlgorithm + Send + Sync>, String> {
    match name {
        "ffgcr" => Ok(Box::new(CachedFfgcr::new())),
        "ftgcr" => Ok(Box::new(CachedFtgcr::new())),
        "multitree" => Ok(Box::new(MultiTreeStrategy::new(trees))),
        other => Err(format!(
            "unknown strategy {other:?} (expected ffgcr, ftgcr, or multitree)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_topology::NoFaults;

    #[test]
    fn strategies_produce_valid_routes() {
        let gc = GaussianCube::new(7, 4).unwrap();
        let f = FaultSet::new();
        for s in (0..128u64).step_by(17) {
            for d in (0..128u64).step_by(13) {
                let r1 = FaultFreeGcr
                    .compute_route(&gc, &f, NodeId(s), NodeId(d))
                    .unwrap();
                r1.validate(&gc, &NoFaults).unwrap();
                let r2 = FaultTolerantGcr
                    .compute_route(&gc, &f, NodeId(s), NodeId(d))
                    .unwrap();
                r2.validate(&gc, &NoFaults).unwrap();
                assert_eq!(r1.hops(), r2.hops(), "fault-free FTGCR must stay optimal");
            }
        }
    }

    #[test]
    fn ecube_on_hypercube() {
        let gc = GaussianCube::new(6, 1).unwrap();
        let r = EcubeBaseline
            .compute_route(&gc, &FaultSet::new(), NodeId(0), NodeId(0b101101))
            .unwrap();
        r.validate(&gc, &NoFaults).unwrap();
        assert_eq!(r.hops() as u32, NodeId(0).hamming(NodeId(0b101101)));
    }

    #[test]
    #[should_panic(expected = "requires M = 1")]
    fn ecube_rejects_diluted_cubes() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let _ = EcubeBaseline.compute_route(&gc, &FaultSet::new(), NodeId(0), NodeId(1));
    }

    #[test]
    fn cache_stats_exposed_through_the_trait() {
        let gc = GaussianCube::new(7, 4).unwrap();
        let f = FaultSet::new();
        // Uncached strategies report nothing.
        assert_eq!(RoutingAlgorithm::cache_stats(&FaultFreeGcr), None);
        assert_eq!(RoutingAlgorithm::cache_stats(&FaultTolerantGcr), None);
        // Cached strategies report None before first use, counters after.
        let cached = CachedFfgcr::new();
        assert_eq!(RoutingAlgorithm::cache_stats(&cached), None);
        cached
            .compute_route(&gc, &f, NodeId(0), NodeId(99))
            .unwrap();
        let stats = RoutingAlgorithm::cache_stats(&cached).expect("stats after use");
        assert!(stats.misses >= 1 && stats.entries >= 1);
    }

    #[test]
    fn names() {
        assert_eq!(FaultFreeGcr.name(), "FFGCR");
        assert_eq!(FaultTolerantGcr.name(), "FTGCR");
        assert_eq!(EcubeBaseline.name(), "e-cube");
        assert_eq!(MultiTreeStrategy::new(2).name(), "multitree");
    }

    #[test]
    fn default_plan_route_carries_no_tree_data() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let f = FaultSet::new();
        let p = FaultTolerantGcr
            .plan_route(&gc, &f, NodeId(3), NodeId(40))
            .unwrap();
        assert!(p.tree.is_none());
        assert!(!FaultTolerantGcr.survives_bound_exceeded());
        assert!(FaultTolerantGcr.tree_health(&gc, &f).is_none());
    }

    #[test]
    fn multitree_plans_valid_routes_with_tree_data() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let f = FaultSet::new();
        let strat = MultiTreeStrategy::new(2);
        assert!(strat.survives_bound_exceeded());
        for s in (0..64u64).step_by(5) {
            for d in (0..64u64).step_by(7) {
                let p = strat.plan_route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                p.path.into_route(&gc).validate(&gc, &NoFaults).unwrap();
                let tc = p.tree.expect("multitree always reports a tree");
                assert!(!tc.exhausted);
                assert_eq!(tc.switches, 0);
                assert!(tc.tree < 2);
            }
        }
        let health = strat.tree_health(&gc, &f).expect("atlas built");
        assert_eq!(health.len(), 2);
        assert!(health.iter().all(|h| h.clean));
        // The FTGCR fallback cache is shared and reported through the trait.
        assert!(RoutingAlgorithm::cache_stats(&strat).is_some());
    }
}
