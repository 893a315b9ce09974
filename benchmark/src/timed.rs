//! `Timed<A>`: a routing strategy that times every `plan_route` call.
//!
//! The per-packet planning calls are far too many for spans, so they go
//! into counters and a lock-free log-linear histogram. The wrapper is
//! safe under the shard engine's concurrent planning: every field is an
//! atomic, and it changes no route, so the run stays bitwise identical.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use gcube_routing::{CacheStats, FaultSet, Route, RoutingError};
use gcube_sim::{PlannedRoute, RoutingAlgorithm, TreeHealth};
use gcube_topology::{GaussianCube, NodeId};

/// Sub-buckets per power of two: values are kept to within 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are their own bucket.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// A concurrent histogram of nanosecond durations with 1/32 resolution.
pub struct LogHist {
    buckets: Vec<AtomicU64>,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros()); // >= SUB_BITS + 1
    let sub = (v >> (exp - u64::from(SUB_BITS))) & (SUB - 1);
    (EXACT + (exp - u64::from(SUB_BITS) - 1) * SUB + sub) as usize
}

/// The half-open value range `[lo, hi)` bucket `b` covers.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < EXACT {
        return (b as f64, (b + 1) as f64);
    }
    let exp = (b - EXACT) / SUB + u64::from(SUB_BITS) + 1;
    let sub = (b - EXACT) % SUB;
    let width = 1u64 << (exp - u64::from(SUB_BITS));
    // In f64: the top bucket's upper edge is 2^64.
    let lo = (1u64 << exp) as f64 + (sub * width) as f64;
    (lo, lo + width as f64)
}

impl LogHist {
    /// Count one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Add every count of `other` into `self`.
    pub fn merge(&self, other: &LogHist) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Relaxed), Relaxed);
        }
    }

    /// The `p`-th percentile, interpolated linearly by rank inside its
    /// bucket (`NaN` when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * total as f64;
        let mut below = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, hi) = bucket_range(b);
                let into = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * into;
            }
            below += c;
        }
        bucket_range(BUCKETS - 1).1
    }
}

/// Planning counters of one [`Timed`] strategy.
#[derive(Default)]
pub struct PlanStats {
    /// `plan_route` calls.
    pub calls: AtomicU64,
    /// Calls that returned an error.
    pub failures: AtomicU64,
    /// Nanoseconds spent inside `plan_route`, summed over threads.
    pub busy_ns: AtomicU64,
    /// Distribution of per-call nanoseconds.
    pub hist: LogHist,
}

/// A strategy that delegates every method to `A`, timing `plan_route`.
/// `A` may be a trait object, so the daemon's boxed strategies wrap too.
pub struct Timed<A: ?Sized> {
    /// What the timing recorded so far.
    pub stats: PlanStats,
    inner: Box<A>,
}

impl<A: RoutingAlgorithm + ?Sized> Timed<A> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: Box<A>) -> Timed<A> {
        Timed {
            stats: PlanStats::default(),
            inner,
        }
    }

    /// Nanoseconds spent planning so far (for attributing a step's
    /// planning share on a single thread).
    pub fn busy_ns(&self) -> u64 {
        self.stats.busy_ns.load(Relaxed)
    }
}

impl<A: RoutingAlgorithm + ?Sized> RoutingAlgorithm for Timed<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compute_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        self.inner.compute_route(gc, faults, s, d)
    }

    fn plan_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlannedRoute, RoutingError> {
        let t = Instant::now();
        let planned = self.inner.plan_route(gc, faults, s, d);
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.calls.fetch_add(1, Relaxed);
        if planned.is_err() {
            self.stats.failures.fetch_add(1, Relaxed);
        }
        self.stats.busy_ns.fetch_add(ns, Relaxed);
        self.stats.hist.record(ns);
        planned
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn survives_bound_exceeded(&self) -> bool {
        self.inner.survives_bound_exceeded()
    }

    fn tree_health(&self, gc: &GaussianCube, faults: &FaultSet) -> Option<Vec<TreeHealth>> {
        self.inner.tree_health(gc, faults)
    }

    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        self.inner.wire_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_sim::{CachedFfgcr, CachedFtgcr, EcubeBaseline, MultiTreeStrategy};

    fn same_surface<A: RoutingAlgorithm>(make: impl Fn() -> A) {
        let gc = GaussianCube::new(6, 2).unwrap();
        let faults = FaultSet::new();
        let (plain, timed) = (make(), Timed::new(Box::new(make())));
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.wire_spec(), plain.wire_spec());
        assert_eq!(
            timed.survives_bound_exceeded(),
            plain.survives_bound_exceeded()
        );
        assert_eq!(timed.cache_stats(), plain.cache_stats(), "before first use");
        for (s, d) in [(0, 9), (3, 40), (17, 62), (0, 9)] {
            assert_eq!(
                timed.plan_route(&gc, &faults, NodeId(s), NodeId(d)),
                plain.plan_route(&gc, &faults, NodeId(s), NodeId(d))
            );
        }
        assert_eq!(timed.cache_stats(), plain.cache_stats(), "after use");
        assert_eq!(
            timed.tree_health(&gc, &faults).map(|h| h.len()),
            plain.tree_health(&gc, &faults).map(|h| h.len())
        );
        assert_eq!(timed.stats.calls.load(Relaxed), 4);
    }

    #[test]
    fn timed_delegates_the_whole_trait_unchanged() {
        same_surface(CachedFfgcr::new);
        same_surface(CachedFtgcr::new);
        same_surface(|| MultiTreeStrategy::new(2));
        // No wire identity stays no wire identity.
        assert_eq!(Timed::new(Box::new(EcubeBaseline)).wire_spec(), None);
        // Boxed trait objects, as the daemon builds them, wrap too.
        let boxed = Timed::new(gcube_sim::build_strategy("multitree", 2).unwrap());
        assert_eq!(boxed.wire_spec(), Some(("multitree", 2)));
        assert!(boxed.survives_bound_exceeded());
    }

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for v in (0..5000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "{v} -> {b}");
            let (lo, hi) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < hi || v > 1 << 52,
                "{v} in [{lo},{hi})"
            );
            last = b;
        }
    }

    #[test]
    fn histogram_percentiles_stay_within_resolution() {
        let h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        for (p, exact) in [(50.0, 50_000.0), (99.0, 99_000.0)] {
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 1.0 / 32.0, "p{p}: {got}");
        }
        let other = LogHist::default();
        for _ in 0..20_000 {
            other.record(7);
        }
        h.merge(&other);
        assert!(
            (h.percentile(50.0) - 7.5).abs() <= 0.5,
            "merged counts move the median"
        );
        assert!(LogHist::default().percentile(50.0).is_nan());
    }
}
