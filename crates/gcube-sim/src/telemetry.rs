//! Live network telemetry: per-cycle time series, the Theorem-3
//! fault-budget monitor, and phase profiling.
//!
//! The flight recorder ([`crate::trace`]) narrates individual packets;
//! this module watches the *network*: which dimensions carry the traffic,
//! which ending classes congest, how the plan cache behaves, and — the
//! paper's own health signal — how close the live fault set stands to the
//! Theorem 3 tolerance bounds `N(α,k)` / `T(GC)`.
//!
//! # Architecture
//!
//! The engine is generic over a [`TelemetrySink`], exactly like its
//! [`TraceSink`](crate::trace::TraceSink): [`NullTelemetry`] reports
//! `enabled() == false` as a compile-time-foldable constant, so the
//! telemetry-off engine monomorphisation contains no telemetry code at
//! all (the benchmark's observer-free workloads time that path, and
//! `observers.overhead_ratio` the observed one). [`TelemetryCollector`] is
//! the real sink: it accumulates counters per sampling window
//! ([`crate::config::SimConfig::telemetry_interval`] cycles) into a
//! bounded ring of [`TelemetrySample`]s, exportable as CSV
//! ([`TelemetryCollector::to_csv`]) or JSONL
//! ([`TelemetryCollector::to_jsonl`]) and summarised by
//! [`TelemetryCollector::health_report`].
//!
//! # The fault-budget monitor
//!
//! [`FaultBudgetMonitor`] classifies the ground-truth fault set after
//! every fault event with [`health_state`]: `Healthy` (no faults),
//! `Degraded` (faults within the Theorem 3 precondition), or
//! `BoundExceeded` (precondition violated — routing guarantees void). The
//! *engine* owns the monitor, not the collector: state transitions are
//! emitted as first-class [`TraceEventKind::Health`](crate::trace::TraceEventKind)
//! trace events and counted in
//! [`Metrics::health_transitions`](crate::metrics::Metrics), whether or
//! not telemetry is attached — so replay verification covers them too.
//!
//! # Determinism
//!
//! Everything exported by CSV/JSONL is a pure function of the
//! configuration and seed (CI diffs two identical runs). Phase timings
//! are wall-clock and therefore appear **only** in the human-readable
//! health report, never in the machine exports.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::mem;

use gcube_routing::faults::{health_state, FaultBudget, HealthState};
use gcube_routing::{CacheStats, FaultSet};
use gcube_topology::GaussianCube;

/// Number of [`Phase`] variants (size of per-phase accumulator arrays).
pub const NUM_PHASES: usize = 4;

/// One of the engine's per-cycle phases, for profiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Fault-event application, stranding, and knowledge reconvergence.
    Reconvergence = 0,
    /// Injection: destination choice and route planning.
    Planning = 1,
    /// Forwarding: link arbitration, recovery, movement, delivery.
    Forwarding = 2,
    /// Telemetry sampling itself (the observer's own cost).
    Telemetry = 3,
}

impl Phase {
    /// All phases, in accumulator order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Reconvergence,
        Phase::Planning,
        Phase::Forwarding,
        Phase::Telemetry,
    ];

    /// Stable lower-snake name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Reconvergence => "reconvergence",
            Phase::Planning => "planning",
            Phase::Forwarding => "forwarding",
            Phase::Telemetry => "telemetry",
        }
    }
}

/// The network state the engine exposes to the sink at the end of a cycle
/// (and once more at the end of the run).
pub struct CycleView<'a> {
    /// The cycle just completed (for [`TelemetrySink::finish`]: the cycle
    /// the run ended at).
    pub cycle: u64,
    /// Packets queued per ending class `EC(k)`, indexed by class. The
    /// engine maintains these incrementally on every queue push/pop, so
    /// exposing them is O(2^α) per sample — never a scan over the nodes.
    pub class_queued: &'a [u64],
    /// Nodes per ending class with a non-empty queue, indexed by class.
    pub class_occupied: &'a [u64],
    /// Packets currently in flight.
    pub in_flight: u64,
    /// The fault-budget monitor's current classification.
    pub health: HealthState,
    /// Live faulty components (nodes + links) in the ground truth.
    pub live_faults: u64,
    /// Plan-cache counters, fetched by the engine only when
    /// [`TelemetrySink::wants_sample`] said this cycle closes a window
    /// (snapshotting takes a lock — not a per-cycle cost).
    pub cache: Option<CacheStats>,
}

/// Consumer of the engine's per-cycle network state.
///
/// Mirrors [`crate::trace::TraceSink`]: the engine monomorphises over the
/// sink, every hook defaults to a no-op, and [`NullTelemetry`] reports
/// `enabled() == false` as a constant so the telemetry-off engine path
/// compiles to exactly the untelemetered engine.
pub trait TelemetrySink {
    /// Whether telemetry is collected at all. Return a constant `false`
    /// (like [`NullTelemetry`]) to compile every hook out.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Whether `cycle` closes a sampling window. The engine only fetches
    /// plan-cache statistics (which take a lock) when this returns true.
    #[inline]
    fn wants_sample(&self, _cycle: u64) -> bool {
        false
    }

    /// A cached broadcast tree was repaired against a new fault
    /// generation: regrafted in place, or — when `rebuilt` — rebuilt from
    /// scratch because no cached tree for the root existed. Called by the
    /// coordinator, exactly once per repair.
    #[inline]
    fn tree_repair(&mut self, _rebuilt: bool) {}

    /// A cycle passed with the routing view lagging the truth.
    #[inline]
    fn stale_cycle(&mut self) {}

    /// `applied` fault events (failures/repairs) hit the network.
    #[inline]
    fn fault_events(&mut self, _applied: u64) {}

    /// The routing view re-converged onto the ground truth.
    #[inline]
    fn reconvergence(&mut self) {}

    /// The fault-budget monitor changed state.
    #[inline]
    fn health_transition(&mut self, _cycle: u64, _from: HealthState, _to: HealthState) {}

    /// Wall-clock nanoseconds spent in `phase` this cycle. Never exported
    /// to the deterministic CSV/JSONL streams.
    #[inline]
    fn phase_time(&mut self, _phase: Phase, _nanos: u64) {}

    /// Fold in one shard's per-cycle delta. The coordinator absorbs every
    /// shard's delta before `end_cycle`, so window sums are the same for
    /// every thread count.
    #[inline]
    fn absorb_shard(&mut self, _delta: &ShardTelemetry) {}

    /// A cycle completed; `view` describes the network at its end.
    #[inline]
    fn end_cycle(&mut self, _view: CycleView<'_>) {}

    /// The run completed; close any partial sampling window.
    #[inline]
    fn finish(&mut self, _view: CycleView<'_>) {}
}

/// The telemetry-off sink: `enabled()` is a constant `false` and every
/// hook is a no-op, so the monomorphised engine contains no telemetry
/// code at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTelemetry;

impl TelemetrySink for NullTelemetry {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// One shard's telemetry counters for one cycle, folded into the sink via
/// [`TelemetrySink::absorb_shard`] before `end_cycle`. Carries every
/// per-packet counter; the network-global ones (fault events, health,
/// reconvergence, tree repairs) reach the sink through the hooks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Link traversals per dimension this cycle.
    pub dim_hops: Vec<u64>,
    /// Packets injected by this shard's nodes this cycle.
    pub injected: u64,
    /// Packets delivered to this shard's nodes this cycle.
    pub delivered: u64,
    /// Collective packets among `delivered` (broadcast/multicast/gather
    /// wave members sunk at this shard's nodes this cycle).
    pub collective_delivered: u64,
    /// Packets this shard dropped this cycle (stranding, TTL, and — for
    /// the coordinator, which resolves recovery — recovery drops).
    pub dropped: u64,
    /// Tree switches across this shard's plans this cycle (multitree
    /// strategies only).
    pub tree_switches: u64,
    /// Plans that exhausted every tree and fell back to FTGCR.
    pub tree_exhausted: u64,
    /// Packets re-planned in place this cycle (coordinator only).
    pub reroutes: u64,
    /// Planned hops that proved dead in the ground truth this cycle
    /// (coordinator only).
    pub stale_views: u64,
}

impl ShardTelemetry {
    /// A zeroed delta for an `n_dims`-dimensional cube.
    pub fn new(n_dims: usize) -> ShardTelemetry {
        ShardTelemetry {
            dim_hops: vec![0; n_dims],
            ..ShardTelemetry::default()
        }
    }

    /// Zero every counter for the next cycle.
    pub fn reset(&mut self) {
        let mut dim_hops = mem::take(&mut self.dim_hops);
        dim_hops.fill(0);
        *self = ShardTelemetry {
            dim_hops,
            ..ShardTelemetry::default()
        };
    }

    /// Copy `other`'s counters into this pre-sized delta without
    /// allocating (shards publish into reusable exchange cells; a `clone`
    /// per cycle would churn the `dim_hops` buffer).
    pub fn copy_from(&mut self, other: &ShardTelemetry) {
        let mut dim_hops = mem::take(&mut self.dim_hops);
        dim_hops.copy_from_slice(&other.dim_hops);
        *self = ShardTelemetry { dim_hops, ..*other };
    }
}

/// Forwarding impl so the engine internals can borrow a caller-owned sink
/// (`SimSession` holds `&mut` sinks across both schedules).
impl<T: TelemetrySink + ?Sized> TelemetrySink for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn wants_sample(&self, cycle: u64) -> bool {
        (**self).wants_sample(cycle)
    }
    #[inline]
    fn tree_repair(&mut self, rebuilt: bool) {
        (**self).tree_repair(rebuilt)
    }
    #[inline]
    fn stale_cycle(&mut self) {
        (**self).stale_cycle()
    }
    #[inline]
    fn fault_events(&mut self, applied: u64) {
        (**self).fault_events(applied)
    }
    #[inline]
    fn reconvergence(&mut self) {
        (**self).reconvergence()
    }
    #[inline]
    fn health_transition(&mut self, cycle: u64, from: HealthState, to: HealthState) {
        (**self).health_transition(cycle, from, to)
    }
    #[inline]
    fn phase_time(&mut self, phase: Phase, nanos: u64) {
        (**self).phase_time(phase, nanos)
    }
    #[inline]
    fn absorb_shard(&mut self, delta: &ShardTelemetry) {
        (**self).absorb_shard(delta)
    }
    #[inline]
    fn end_cycle(&mut self, view: CycleView<'_>) {
        (**self).end_cycle(view)
    }
    #[inline]
    fn finish(&mut self, view: CycleView<'_>) {
        (**self).finish(view)
    }
}

/// Tracks the network's [`HealthState`] and reports transitions.
///
/// Starts `Healthy` (the state of an empty fault set); the engine calls
/// [`FaultBudgetMonitor::update`] before the first cycle and after every
/// applied fault event, so a run that *starts* faulty reports its initial
/// classification as a transition at cycle zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultBudgetMonitor {
    state: HealthState,
    /// The routing strategy keeps working routes past the Theorem-3
    /// budget (multitree): `BoundExceeded` is downgraded to `Degraded`.
    survives_bound_exceeded: bool,
    /// Whether the *current* state is such a downgrade — the reason the
    /// health report shows `degraded` while the raw budget says exceeded.
    downgraded: bool,
}

impl FaultBudgetMonitor {
    /// A monitor in the `Healthy` state.
    pub fn new() -> FaultBudgetMonitor {
        FaultBudgetMonitor::default()
    }

    /// A monitor for a strategy that reports
    /// [`survives_bound_exceeded`](crate::strategy::RoutingAlgorithm::survives_bound_exceeded):
    /// when true, a raw `BoundExceeded` classification is downgraded to
    /// `Degraded` — the Theorem-3 precondition is void, but the strategy
    /// still has independent spanning trees (plus the FTGCR fallback) to
    /// route around the excess faults.
    pub fn for_strategy(survives_bound_exceeded: bool) -> FaultBudgetMonitor {
        FaultBudgetMonitor {
            survives_bound_exceeded,
            ..FaultBudgetMonitor::default()
        }
    }

    /// The current classification.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether the current state is a `BoundExceeded` downgraded to
    /// `Degraded` because the strategy survives past the budget.
    pub fn downgraded(&self) -> bool {
        self.downgraded
    }

    /// Rebuild a monitor from checkpointed state. `survives_bound_exceeded`
    /// comes from the strategy (it is configuration, not history); `state`
    /// and `downgraded` are the history.
    pub fn from_parts(
        state: HealthState,
        survives_bound_exceeded: bool,
        downgraded: bool,
    ) -> FaultBudgetMonitor {
        FaultBudgetMonitor {
            state,
            survives_bound_exceeded,
            downgraded,
        }
    }

    /// Re-classify `faults`; returns `Some((from, to))` when the state
    /// changed.
    pub fn update(
        &mut self,
        gc: &GaussianCube,
        faults: &FaultSet,
    ) -> Option<(HealthState, HealthState)> {
        let raw = health_state(gc, faults);
        let next = if raw == HealthState::BoundExceeded && self.survives_bound_exceeded {
            HealthState::Degraded
        } else {
            raw
        };
        self.downgraded = next != raw;
        if next != self.state {
            let prev = mem::replace(&mut self.state, next);
            Some((prev, next))
        } else {
            None
        }
    }
}

/// One recorded health-state transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthTransition {
    /// Cycle the transition took effect.
    pub cycle: u64,
    /// State left.
    pub from: HealthState,
    /// State entered.
    pub to: HealthState,
}

/// One sampling window of the time series.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// Last cycle of the window (exclusive).
    pub end: u64,
    /// Link traversals per dimension during the window (`dim_hops[d]`
    /// counts hops over dimension-`d` links).
    pub dim_hops: Vec<u64>,
    /// Packets queued per ending class `EC(k)` at the window's end.
    pub class_queued: Vec<u64>,
    /// Nodes per ending class with a non-empty queue at the window's end.
    pub class_occupied: Vec<u64>,
    /// Packets in flight at the window's end.
    pub in_flight: u64,
    /// Packets injected during the window.
    pub injected: u64,
    /// Packets delivered during the window.
    pub delivered: u64,
    /// Collective packets among `delivered` during the window.
    pub collective_delivered: u64,
    /// Packets dropped during the window.
    pub dropped: u64,
    /// Local re-plans during the window.
    pub reroutes: u64,
    /// Stale-view exposures (planned hop dead in the truth) during the
    /// window.
    pub stale_views: u64,
    /// Cycles of the window the view spent lagging the truth.
    pub stale_cycles: u64,
    /// Fault events (failures and repairs) applied during the window.
    pub fault_events: u64,
    /// View reconvergences during the window.
    pub reconvergences: u64,
    /// Multitree tree switches across plans made during the window (zero
    /// for single-tree strategies).
    pub tree_switches: u64,
    /// Plans during the window that exhausted every tree and fell back to
    /// FTGCR.
    pub tree_exhausted: u64,
    /// Broadcast-tree regrafts during the window (collective runs only).
    pub tree_regrafts: u64,
    /// Broadcast trees rebuilt from scratch during the window.
    pub tree_rebuilds: u64,
    /// Plan-cache counters: hits/misses are deltas over the window,
    /// entries is the absolute size at the window's end. `None` when the
    /// strategy has no cache (or it is still unused).
    pub cache: Option<CacheStats>,
    /// Health classification at the window's end.
    pub health: HealthState,
    /// Live faulty components at the window's end.
    pub live_faults: u64,
}

impl TelemetrySample {
    /// Total link traversals in the window (sum over dimensions).
    pub fn forwarded_hops(&self) -> u64 {
        self.dim_hops.iter().sum()
    }
}

/// Pending-window accumulators, zeroed at each window boundary.
#[derive(Clone, Debug, Default)]
struct WindowAcc {
    dim_hops: Vec<u64>,
    injected: u64,
    delivered: u64,
    collective_delivered: u64,
    dropped: u64,
    reroutes: u64,
    stale_views: u64,
    stale_cycles: u64,
    fault_events: u64,
    reconvergences: u64,
    tree_switches: u64,
    tree_exhausted: u64,
    tree_regrafts: u64,
    tree_rebuilds: u64,
}

impl WindowAcc {
    fn reset(&mut self) {
        self.dim_hops.iter_mut().for_each(|h| *h = 0);
        self.injected = 0;
        self.delivered = 0;
        self.collective_delivered = 0;
        self.dropped = 0;
        self.reroutes = 0;
        self.stale_views = 0;
        self.stale_cycles = 0;
        self.fault_events = 0;
        self.reconvergences = 0;
        self.tree_switches = 0;
        self.tree_exhausted = 0;
        self.tree_regrafts = 0;
        self.tree_rebuilds = 0;
    }
}

/// Default ring capacity: at most this many samples are retained; older
/// ones are evicted (and counted in [`TelemetryCollector::evicted`]).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The real telemetry sink: accumulates the per-cycle hooks into
/// fixed-width sampling windows held in a bounded ring, alongside
/// whole-run totals (which survive ring eviction, so reconciliation
/// against the [`Metrics`](crate::metrics::Metrics) ledger is exact
/// regardless of ring size).
#[derive(Clone, Debug)]
pub struct TelemetryCollector {
    n_dims: usize,
    num_classes: usize,
    interval: u64,
    capacity: usize,
    samples: VecDeque<TelemetrySample>,
    evicted: u64,
    window_start: u64,
    acc: WindowAcc,
    // Whole-run totals (never evicted).
    dim_hops_total: Vec<u64>,
    injected_total: u64,
    delivered_total: u64,
    collective_delivered_total: u64,
    dropped_total: u64,
    reroutes_total: u64,
    stale_views_total: u64,
    stale_cycles_total: u64,
    fault_events_total: u64,
    reconvergences_total: u64,
    tree_switches_total: u64,
    tree_exhausted_total: u64,
    tree_regrafts_total: u64,
    tree_rebuilds_total: u64,
    last_cache: CacheStats,
    transitions: Vec<HealthTransition>,
    phase_nanos: [u64; NUM_PHASES],
    ended_at: u64,
}

impl TelemetryCollector {
    /// A collector for `gc`'s shape sampling every `interval` cycles
    /// (clamped to ≥ 1), retaining at most [`DEFAULT_RING_CAPACITY`]
    /// windows.
    pub fn new(gc: &GaussianCube, interval: u64) -> TelemetryCollector {
        TelemetryCollector::with_capacity(gc, interval, DEFAULT_RING_CAPACITY)
    }

    /// As [`TelemetryCollector::new`] with an explicit ring capacity
    /// (clamped to ≥ 1).
    pub fn with_capacity(gc: &GaussianCube, interval: u64, capacity: usize) -> TelemetryCollector {
        let n_dims = gc.n() as usize;
        let num_classes = 1usize << gc.alpha();
        TelemetryCollector {
            n_dims,
            num_classes,
            interval: interval.max(1),
            capacity: capacity.max(1),
            samples: VecDeque::new(),
            evicted: 0,
            window_start: 0,
            acc: WindowAcc {
                dim_hops: vec![0; n_dims],
                ..WindowAcc::default()
            },
            dim_hops_total: vec![0; n_dims],
            injected_total: 0,
            delivered_total: 0,
            collective_delivered_total: 0,
            dropped_total: 0,
            reroutes_total: 0,
            stale_views_total: 0,
            stale_cycles_total: 0,
            fault_events_total: 0,
            reconvergences_total: 0,
            tree_switches_total: 0,
            tree_exhausted_total: 0,
            tree_regrafts_total: 0,
            tree_rebuilds_total: 0,
            last_cache: CacheStats::default(),
            transitions: Vec::new(),
            phase_nanos: [0; NUM_PHASES],
            ended_at: 0,
        }
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TelemetrySample> {
        self.samples.iter()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted from the ring (oldest-first) to stay within
    /// capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Whole-run link traversals per dimension (survives ring eviction).
    pub fn dim_hops_total(&self) -> &[u64] {
        &self.dim_hops_total
    }

    /// Whole-run link traversals, all dimensions.
    pub fn forwarded_hops_total(&self) -> u64 {
        self.dim_hops_total.iter().sum()
    }

    /// Whole-run totals `(injected, delivered, dropped)`.
    pub fn packet_totals(&self) -> (u64, u64, u64) {
        (
            self.injected_total,
            self.delivered_total,
            self.dropped_total,
        )
    }

    /// Whole-run totals `(reroutes, stale_views, stale_cycles,
    /// fault_events, reconvergences)`.
    pub fn churn_totals(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.reroutes_total,
            self.stale_views_total,
            self.stale_cycles_total,
            self.fault_events_total,
            self.reconvergences_total,
        )
    }

    /// Whole-run totals `(tree_switches, tree_exhausted)` — multitree
    /// strategies only; both zero otherwise.
    pub fn tree_totals(&self) -> (u64, u64) {
        (self.tree_switches_total, self.tree_exhausted_total)
    }

    /// Whole-run collective deliveries (zero for unicast-only runs).
    pub fn collective_delivered_total(&self) -> u64 {
        self.collective_delivered_total
    }

    /// Whole-run broadcast-tree repairs `(regrafts, rebuilds)` —
    /// collective runs only; both zero otherwise.
    pub fn tree_repair_totals(&self) -> (u64, u64) {
        (self.tree_regrafts_total, self.tree_rebuilds_total)
    }

    /// Recorded health transitions, in order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Wall-clock nanoseconds accumulated per phase (report-only; never
    /// exported to the deterministic streams).
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }

    fn close_window(&mut self, view: &CycleView<'_>, end: u64) {
        debug_assert_eq!(view.class_queued.len(), self.num_classes);
        let class_queued = view.class_queued.to_vec();
        let class_occupied = view.class_occupied.to_vec();
        let cache = view.cache.map(|now| {
            let delta = CacheStats {
                hits: now.hits - self.last_cache.hits,
                misses: now.misses - self.last_cache.misses,
                entries: now.entries,
            };
            self.last_cache = now;
            delta
        });
        let sample = TelemetrySample {
            start: self.window_start,
            end,
            dim_hops: self.acc.dim_hops.clone(),
            class_queued,
            class_occupied,
            in_flight: view.in_flight,
            injected: self.acc.injected,
            delivered: self.acc.delivered,
            collective_delivered: self.acc.collective_delivered,
            dropped: self.acc.dropped,
            reroutes: self.acc.reroutes,
            stale_views: self.acc.stale_views,
            stale_cycles: self.acc.stale_cycles,
            fault_events: self.acc.fault_events,
            reconvergences: self.acc.reconvergences,
            tree_switches: self.acc.tree_switches,
            tree_exhausted: self.acc.tree_exhausted,
            tree_regrafts: self.acc.tree_regrafts,
            tree_rebuilds: self.acc.tree_rebuilds,
            cache,
            health: view.health,
            live_faults: view.live_faults,
        };
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(sample);
        self.acc.reset();
        self.window_start = end;
    }

    /// CSV export: one header line, one row per retained sample. Pure
    /// function of config + seed (CI diffs two runs byte for byte); phase
    /// timings are deliberately absent.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "start,end,in_flight,injected,delivered,dropped,forwarded_hops,reroutes,\
             stale_views,stale_cycles,fault_events,reconvergences,tree_switches,\
             tree_exhausted,collective_delivered,tree_regrafts,tree_rebuilds,health,\
             live_faults,cache_hits,cache_misses,cache_entries",
        );
        for d in 0..self.n_dims {
            let _ = write!(out, ",dim{d}_hops");
        }
        for k in 0..self.num_classes {
            let _ = write!(out, ",class{k}_queued");
        }
        for k in 0..self.num_classes {
            let _ = write!(out, ",class{k}_occupied");
        }
        out.push('\n');
        for s in &self.samples {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                s.start,
                s.end,
                s.in_flight,
                s.injected,
                s.delivered,
                s.dropped,
                s.forwarded_hops(),
                s.reroutes,
                s.stale_views,
                s.stale_cycles,
                s.fault_events,
                s.reconvergences,
                s.tree_switches,
                s.tree_exhausted,
                s.collective_delivered,
                s.tree_regrafts,
                s.tree_rebuilds,
                s.health.as_str(),
                s.live_faults,
            );
            match s.cache {
                Some(c) => {
                    let _ = write!(out, ",{},{},{}", c.hits, c.misses, c.entries);
                }
                None => out.push_str(",,,"),
            }
            for h in &s.dim_hops {
                let _ = write!(out, ",{h}");
            }
            for q in &s.class_queued {
                let _ = write!(out, ",{q}");
            }
            for o in &s.class_occupied {
                let _ = write!(out, ",{o}");
            }
            out.push('\n');
        }
        out
    }

    /// JSONL export: one flat hand-rolled object per retained sample.
    /// Deterministic, like the CSV.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let _ = write!(
                out,
                "{{\"start\":{},\"end\":{},\"in_flight\":{},\"injected\":{},\
                 \"delivered\":{},\"dropped\":{},\"forwarded_hops\":{},\"reroutes\":{},\
                 \"stale_views\":{},\"stale_cycles\":{},\"fault_events\":{},\
                 \"reconvergences\":{},\"tree_switches\":{},\"tree_exhausted\":{},\
                 \"collective_delivered\":{},\"tree_regrafts\":{},\"tree_rebuilds\":{},\
                 \"health\":\"{}\",\"live_faults\":{}",
                s.start,
                s.end,
                s.in_flight,
                s.injected,
                s.delivered,
                s.dropped,
                s.forwarded_hops(),
                s.reroutes,
                s.stale_views,
                s.stale_cycles,
                s.fault_events,
                s.reconvergences,
                s.tree_switches,
                s.tree_exhausted,
                s.collective_delivered,
                s.tree_regrafts,
                s.tree_rebuilds,
                s.health.as_str(),
                s.live_faults,
            );
            match s.cache {
                Some(c) => {
                    let _ = write!(
                        out,
                        ",\"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{}",
                        c.hits, c.misses, c.entries
                    );
                }
                None => out
                    .push_str(",\"cache_hits\":null,\"cache_misses\":null,\"cache_entries\":null"),
            }
            let join = |vals: &[u64]| {
                vals.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = write!(
                out,
                ",\"dim_hops\":[{}],\"class_queued\":[{}],\"class_occupied\":[{}]}}",
                join(&s.dim_hops),
                join(&s.class_queued),
                join(&s.class_occupied)
            );
            out.push('\n');
        }
        out
    }

    /// Human-readable end-of-run health report: whole-run totals, the
    /// dimension utilization profile, health transitions, the Theorem 3
    /// budget standing, and the (wall-clock) phase profile.
    pub fn health_report(&self, budget: &FaultBudget) -> String {
        self.health_report_with_trees(budget, None)
    }

    /// As [`TelemetryCollector::health_report`], plus a spanning-tree
    /// survival section when the run used a multitree strategy: which
    /// trees are still intact against the final fault set, and — when the
    /// Theorem-3 precondition is void — why the monitor downgraded
    /// `bound-exceeded` to `degraded`.
    pub fn health_report_with_trees(
        &self,
        budget: &FaultBudget,
        trees: Option<&[gcube_routing::multitree::TreeHealth]>,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== network health report ===");
        let _ = writeln!(
            out,
            "run: {} cycles, {} sampling windows of {} cycles ({} evicted)",
            self.ended_at,
            self.samples.len() as u64 + self.evicted,
            self.interval,
            self.evicted
        );
        let _ = writeln!(
            out,
            "packets: injected {}, delivered {}, dropped {}",
            self.injected_total, self.delivered_total, self.dropped_total
        );
        let _ = writeln!(
            out,
            "churn: {} fault events, {} stale-view exposures over {} stale cycles, \
             {} reroutes, {} reconvergences",
            self.fault_events_total,
            self.stale_views_total,
            self.stale_cycles_total,
            self.reroutes_total,
            self.reconvergences_total
        );
        if self.collective_delivered_total + self.tree_regrafts_total + self.tree_rebuilds_total > 0
        {
            let _ = writeln!(
                out,
                "collectives: {} wave packets delivered, {} tree regrafts, {} rebuilds",
                self.collective_delivered_total, self.tree_regrafts_total, self.tree_rebuilds_total
            );
        }
        let total_hops = self.forwarded_hops_total();
        let _ = writeln!(out, "link utilization ({total_hops} hops total):");
        for (d, &h) in self.dim_hops_total.iter().enumerate() {
            let pct = if total_hops == 0 {
                0.0
            } else {
                100.0 * h as f64 / total_hops as f64
            };
            let _ = writeln!(out, "  dim {d:>2}: {h:>10} hops ({pct:5.1}%)");
        }
        if let Some(last) = self.samples.back() {
            if let Some(c) = last.cache {
                let _ = writeln!(
                    out,
                    "plan cache: {} entries (last window: {} hits, {} misses)",
                    c.entries, c.hits, c.misses
                );
            }
        }
        let _ = writeln!(out, "--- Theorem 3 fault budget ---");
        let _ = writeln!(
            out,
            "state: {} ({} live faults: {} A / {} B / {} C)",
            budget.state, budget.total, budget.counts.a, budget.counts.b, budget.counts.c
        );
        let _ = writeln!(
            out,
            "aggregate headroom: {} of T_paper = {}, {} of T_guaranteed = {}",
            budget.headroom_paper(),
            budget.t_paper,
            budget.headroom_guaranteed(),
            budget.t_guaranteed
        );
        let _ = writeln!(
            out,
            "precondition: paper {}, guaranteed {}",
            budget.precondition_paper, budget.precondition_guaranteed
        );
        if let Some(w) = budget.worst_subcube() {
            let _ = writeln!(
                out,
                "worst subcube: GEEC(k={}, t={}) with {} faults against N(α,k)={} \
                 (guaranteed bound {})",
                w.k, w.t, w.faults, w.bound_paper, w.bound_guaranteed
            );
        }
        if let Some(trees) = trees {
            let _ = writeln!(out, "--- spanning-tree survival (multitree) ---");
            let _ = writeln!(
                out,
                "plans: {} tree switches, {} tree-exhausted FTGCR fallbacks",
                self.tree_switches_total, self.tree_exhausted_total
            );
            for t in trees {
                if t.clean {
                    let _ = writeln!(out, "  tree {}: intact (no matching faults)", t.tree);
                } else {
                    let _ = writeln!(
                        out,
                        "  tree {}: threatened ({} matching fault links, {} fault nodes)",
                        t.tree, t.matching_fault_links, t.fault_nodes
                    );
                }
            }
            if !budget.precondition_paper {
                let intact = trees.iter().filter(|t| t.clean).count();
                let _ = writeln!(
                    out,
                    "Theorem-3 precondition void, but {intact} of {} trees intact and the \
                     FTGCR fallback remains: bound-exceeded downgraded to degraded",
                    trees.len()
                );
            }
        }
        if self.transitions.is_empty() {
            let _ = writeln!(out, "health transitions: none");
        } else {
            let _ = writeln!(out, "health transitions:");
            for t in &self.transitions {
                let _ = writeln!(
                    out,
                    "  cycle {:>8}: {} -> {}",
                    t.cycle,
                    t.from.as_str(),
                    t.to.as_str()
                );
            }
        }
        let _ = writeln!(out, "--- phase profile (wall clock, report-only) ---");
        let total_ns: u64 = self.phase_nanos.iter().sum();
        for p in Phase::ALL {
            let ns = self.phase_nanos[p as usize];
            let pct = if total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total_ns as f64
            };
            let _ = writeln!(out, "  {:<14} {:>12} ns ({pct:5.1}%)", p.as_str(), ns);
        }
        out
    }
}

impl TelemetrySink for TelemetryCollector {
    #[inline]
    fn wants_sample(&self, cycle: u64) -> bool {
        (cycle + 1).is_multiple_of(self.interval)
    }

    #[inline]
    fn tree_repair(&mut self, rebuilt: bool) {
        if rebuilt {
            self.acc.tree_rebuilds += 1;
            self.tree_rebuilds_total += 1;
        } else {
            self.acc.tree_regrafts += 1;
            self.tree_regrafts_total += 1;
        }
    }

    #[inline]
    fn stale_cycle(&mut self) {
        self.acc.stale_cycles += 1;
        self.stale_cycles_total += 1;
    }

    #[inline]
    fn fault_events(&mut self, applied: u64) {
        self.acc.fault_events += applied;
        self.fault_events_total += applied;
    }

    #[inline]
    fn reconvergence(&mut self) {
        self.acc.reconvergences += 1;
        self.reconvergences_total += 1;
    }

    fn health_transition(&mut self, cycle: u64, from: HealthState, to: HealthState) {
        self.transitions.push(HealthTransition { cycle, from, to });
    }

    #[inline]
    fn phase_time(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase as usize] += nanos;
    }

    fn absorb_shard(&mut self, delta: &ShardTelemetry) {
        for (d, &h) in delta.dim_hops.iter().enumerate() {
            self.acc.dim_hops[d] += h;
            self.dim_hops_total[d] += h;
        }
        self.acc.injected += delta.injected;
        self.injected_total += delta.injected;
        self.acc.delivered += delta.delivered;
        self.delivered_total += delta.delivered;
        self.acc.collective_delivered += delta.collective_delivered;
        self.collective_delivered_total += delta.collective_delivered;
        self.acc.dropped += delta.dropped;
        self.dropped_total += delta.dropped;
        self.acc.tree_switches += delta.tree_switches;
        self.tree_switches_total += delta.tree_switches;
        self.acc.tree_exhausted += delta.tree_exhausted;
        self.tree_exhausted_total += delta.tree_exhausted;
        self.acc.reroutes += delta.reroutes;
        self.reroutes_total += delta.reroutes;
        self.acc.stale_views += delta.stale_views;
        self.stale_views_total += delta.stale_views;
    }

    fn end_cycle(&mut self, view: CycleView<'_>) {
        if self.wants_sample(view.cycle) {
            self.close_window(&view, view.cycle + 1);
        }
    }

    fn finish(&mut self, view: CycleView<'_>) {
        self.ended_at = view.cycle;
        if view.cycle > self.window_start {
            // A partial window remains (the run ended mid-interval, or
            // drained early): close it so its counters are not lost.
            self.close_window(&view, view.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc() -> GaussianCube {
        GaussianCube::new(6, 4).unwrap() // α = 2: 4 ending classes
    }

    /// Feed one cycle's hops (one per listed dimension) and injections.
    fn feed(c: &mut TelemetryCollector, g: &GaussianCube, dims: &[u32], injected: u64) {
        let mut delta = ShardTelemetry::new(g.n() as usize);
        for &d in dims {
            delta.dim_hops[d as usize] += 1;
        }
        delta.injected = injected;
        c.absorb_shard(&delta);
    }

    /// Class-aggregate slices for a quiet network (all 4 classes empty).
    const IDLE: [u64; 4] = [0; 4];

    fn view<'a>(
        cycle: u64,
        class_queued: &'a [u64],
        class_occupied: &'a [u64],
        health: HealthState,
    ) -> CycleView<'a> {
        CycleView {
            cycle,
            class_queued,
            class_occupied,
            in_flight: class_queued.iter().sum(),
            health,
            live_faults: 0,
            cache: None,
        }
    }

    #[test]
    fn windows_close_on_interval_and_accumulate() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 10);
        for cycle in 0..25u64 {
            feed(&mut c, &g, &[0, 3], 1);
            assert_eq!(c.wants_sample(cycle), (cycle + 1) % 10 == 0);
            c.end_cycle(view(cycle, &IDLE, &IDLE, HealthState::Healthy));
        }
        // Two full windows closed; 5 cycles pending.
        assert_eq!(c.len(), 2);
        c.finish(view(25, &IDLE, &IDLE, HealthState::Healthy));
        assert_eq!(c.len(), 3, "finish must close the partial window");
        let s: Vec<&TelemetrySample> = c.samples().collect();
        assert_eq!((s[0].start, s[0].end), (0, 10));
        assert_eq!((s[1].start, s[1].end), (10, 20));
        assert_eq!((s[2].start, s[2].end), (20, 25));
        assert_eq!(s[0].injected, 10);
        assert_eq!(s[2].injected, 5);
        assert_eq!(s[0].dim_hops[0], 10);
        assert_eq!(s[0].dim_hops[3], 10);
        assert_eq!(s[0].forwarded_hops(), 20);
        // Totals reconcile with the per-window series.
        assert_eq!(c.forwarded_hops_total(), 50);
        assert_eq!(
            c.samples().map(|s| s.forwarded_hops()).sum::<u64>(),
            c.forwarded_hops_total()
        );
        assert_eq!(c.packet_totals(), (25, 0, 0));
    }

    #[test]
    fn finish_without_pending_cycles_adds_no_window() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 10);
        for cycle in 0..10u64 {
            c.end_cycle(view(cycle, &IDLE, &IDLE, HealthState::Healthy));
        }
        assert_eq!(c.len(), 1);
        c.finish(view(10, &IDLE, &IDLE, HealthState::Healthy));
        assert_eq!(c.len(), 1, "exactly one full window, no empty tail");
    }

    #[test]
    fn ring_evicts_oldest_but_totals_survive() {
        let g = gc();
        let mut c = TelemetryCollector::with_capacity(&g, 1, 4);
        for cycle in 0..10u64 {
            feed(&mut c, &g, &[1], 0);
            c.end_cycle(view(cycle, &IDLE, &IDLE, HealthState::Healthy));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evicted(), 6);
        assert_eq!(c.samples().next().unwrap().start, 6, "oldest retained");
        assert_eq!(c.forwarded_hops_total(), 10, "totals ignore eviction");
    }

    #[test]
    fn class_occupancy_snapshots_the_view() {
        let g = gc();
        // The engine's incremental aggregates for: nodes 1 and 5 (both
        // EC(1) under α = 2) holding 2 + 1 packets, node 6 (EC(2))
        // holding 1.
        let class_queued = [0u64, 3, 1, 0];
        let class_occupied = [0u64, 2, 1, 0];
        let mut c = TelemetryCollector::new(&g, 1);
        c.end_cycle(view(
            0,
            &class_queued,
            &class_occupied,
            HealthState::Healthy,
        ));
        let s = c.samples().next().unwrap();
        assert_eq!(s.class_queued, vec![0, 3, 1, 0]);
        assert_eq!(s.class_occupied, vec![0, 2, 1, 0]);
        assert_eq!(s.in_flight, 4);
    }

    #[test]
    fn absorbing_split_deltas_equals_one_delta() {
        let g = gc();
        let mut merged = TelemetryCollector::new(&g, 1);
        let mut split = TelemetryCollector::new(&g, 1);
        let mut delta = ShardTelemetry::new(g.n() as usize);
        delta.dim_hops[0] = 2;
        delta.dim_hops[4] = 1;
        delta.injected = 3;
        delta.delivered = 2;
        delta.dropped = 1;
        delta.reroutes = 1;
        delta.stale_views = 2;
        merged.absorb_shard(&delta);
        let mut first = ShardTelemetry::new(g.n() as usize);
        first.dim_hops[0] = 2;
        first.injected = 3;
        first.stale_views = 2;
        let mut second = ShardTelemetry::new(g.n() as usize);
        second.copy_from(&delta);
        second.dim_hops[0] = 0;
        second.injected = 0;
        second.stale_views = 0;
        split.absorb_shard(&first);
        split.absorb_shard(&second);
        for c in [&mut merged, &mut split] {
            c.end_cycle(view(0, &IDLE, &IDLE, HealthState::Healthy));
        }
        assert_eq!(
            merged.samples().next().unwrap(),
            split.samples().next().unwrap()
        );
        assert_eq!(merged.packet_totals(), (3, 2, 1));
        assert_eq!(merged.forwarded_hops_total(), 3);
        second.reset();
        assert_eq!(second, ShardTelemetry::new(g.n() as usize));
    }

    #[test]
    fn csv_and_jsonl_have_one_line_per_sample() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 5);
        for cycle in 0..20u64 {
            feed(&mut c, &g, &[(cycle % 6) as u32], 0);
            c.end_cycle(view(cycle, &IDLE, &IDLE, HealthState::Healthy));
        }
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + 4 windows");
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
        assert!(lines[0].contains("dim5_hops") && lines[0].contains("class3_occupied"));
        let jsonl = c.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"dim_hops\":["), "{line}");
        }
    }

    #[test]
    fn cache_deltas_are_per_window() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 1);
        let mk = |cycle: u64, cache: CacheStats| CycleView {
            cycle,
            class_queued: &IDLE,
            class_occupied: &IDLE,
            in_flight: 0,
            health: HealthState::Healthy,
            live_faults: 0,
            cache: Some(cache),
        };
        c.end_cycle(mk(
            0,
            CacheStats {
                hits: 10,
                misses: 4,
                entries: 4,
            },
        ));
        c.end_cycle(mk(
            1,
            CacheStats {
                hits: 25,
                misses: 5,
                entries: 5,
            },
        ));
        let s: Vec<&TelemetrySample> = c.samples().collect();
        assert_eq!(
            s[0].cache,
            Some(CacheStats {
                hits: 10,
                misses: 4,
                entries: 4
            })
        );
        assert_eq!(
            s[1].cache,
            Some(CacheStats {
                hits: 15,
                misses: 1,
                entries: 5
            }),
            "hits/misses are window deltas, entries absolute"
        );
    }

    #[test]
    fn monitor_reports_transitions_once() {
        use gcube_topology::{LinkId, NodeId};
        let g = gc();
        let mut m = FaultBudgetMonitor::new();
        let mut f = FaultSet::new();
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.update(&g, &f), None, "no transition while healthy");
        f.add_link(LinkId::new(NodeId(0), g.alpha())); // A-category
        assert_eq!(
            m.update(&g, &f),
            Some((HealthState::Healthy, HealthState::Degraded))
        );
        assert_eq!(m.update(&g, &f), None, "no repeat without change");
        f.add_node(NodeId(5)); // C-category: bound void
        assert_eq!(
            m.update(&g, &f),
            Some((HealthState::Degraded, HealthState::BoundExceeded))
        );
        let mut repaired = FaultSet::new();
        repaired.sync_from(&FaultSet::new());
        assert_eq!(
            m.update(&g, &repaired),
            Some((HealthState::BoundExceeded, HealthState::Healthy))
        );
    }

    #[test]
    fn null_telemetry_is_disabled() {
        let g = gc();
        assert!(!NullTelemetry.enabled());
        assert!(TelemetryCollector::new(&g, 1).enabled());
    }

    #[test]
    fn health_report_renders() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 10);
        for cycle in 0..30u64 {
            feed(&mut c, &g, &[2], 0);
            c.end_cycle(view(cycle, &IDLE, &IDLE, HealthState::Healthy));
        }
        c.health_transition(7, HealthState::Healthy, HealthState::Degraded);
        c.phase_time(Phase::Forwarding, 12_345);
        c.finish(view(30, &IDLE, &IDLE, HealthState::Degraded));
        let budget = gcube_routing::fault_budget(&g, &FaultSet::new());
        let report = c.health_report(&budget);
        assert!(report.contains("network health report"));
        assert!(report.contains("dim  2"));
        assert!(report.contains("healthy -> degraded"));
        assert!(report.contains("forwarding"));
        assert!(report.contains("T_paper"));
    }
}
