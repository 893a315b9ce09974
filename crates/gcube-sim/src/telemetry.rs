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
//! `observers.overhead_ratio` the observed one).
//!
//! Telemetry counts nothing itself. The engine's ledger is each shard's
//! [`Metrics`](crate::metrics::Metrics) plus the three counts `Metrics`
//! lacks (per-dimension hops, reroutes, stale views); once per cycle the
//! coordinator sums the shards' running totals and hands both observers
//! the difference from the previous cycle as a [`Tally`] inside the
//! [`CycleView`]. [`TelemetryCollector`] is the real sink: it adds each
//! cycle's difference into a window tally and a whole-run tally, closes a
//! window every [`crate::config::SimConfig::telemetry_interval`] cycles
//! into a bounded ring of [`TelemetrySample`]s, exportable as CSV
//! ([`TelemetryCollector::to_csv`]) or JSONL
//! ([`TelemetryCollector::to_jsonl`]) and summarised by
//! [`TelemetryCollector::health_report`]. Only a health transition (which
//! carries its from/to states) and a phase's wall-clock time reach the
//! sink through hooks of their own.
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

/// The counts telemetry reads from the engine's ledger: the
/// [`Metrics`](crate::metrics::Metrics) counters it exports, plus the
/// three each shard keeps beside them (per-dimension hops, reroutes,
/// stale views). One type serves as a cycle's network-wide difference in
/// a [`CycleView`], as a collector's window tally and as its whole-run
/// tally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Link traversals (`Metrics::forwarded_hops_total`).
    pub forwarded_hops: u64,
    /// Link traversals per dimension (`dim_hops[d]` counts hops over
    /// dimension-`d` links); sums to `forwarded_hops`.
    pub dim_hops: Vec<u64>,
    /// Packets injected, collective wave packets included
    /// (`Metrics::injected_total`).
    pub injected: u64,
    /// Packets delivered (`Metrics::delivered_total`).
    pub delivered: u64,
    /// Collective packets among `delivered`.
    pub collective_delivered: u64,
    /// Packets dropped, every cause (`Metrics::dropped_total`).
    pub dropped: u64,
    /// Packets re-planned in place.
    pub reroutes: u64,
    /// Stale-view exposures: planned hops that proved dead in the truth.
    pub stale_views: u64,
    /// Cycles the view spent lagging the truth.
    pub stale_cycles: u64,
    /// Fault events (failures and repairs) applied.
    pub fault_events: u64,
    /// View reconvergences.
    pub reconvergences: u64,
    /// Multitree tree switches across plans (zero for single-tree
    /// strategies).
    pub tree_switches: u64,
    /// Plans that exhausted every tree and fell back to FTGCR.
    pub tree_exhausted: u64,
    /// Broadcast-tree regrafts (collective runs only).
    pub tree_regrafts: u64,
    /// Broadcast trees rebuilt from scratch.
    pub tree_rebuilds: u64,
}

impl Tally {
    /// A zeroed tally for an `n_dims`-dimensional cube.
    pub fn new(n_dims: usize) -> Tally {
        Tally {
            dim_hops: vec![0; n_dims],
            ..Tally::default()
        }
    }

    /// Apply `op` to each of this tally's counts and `other`'s matching
    /// count.
    fn zip_with(&mut self, other: &Tally, op: impl Fn(&mut u64, u64)) {
        for (a, &b) in self.dim_hops.iter_mut().zip(&other.dim_hops) {
            op(a, b);
        }
        for (a, b) in [
            (&mut self.forwarded_hops, other.forwarded_hops),
            (&mut self.injected, other.injected),
            (&mut self.delivered, other.delivered),
            (&mut self.collective_delivered, other.collective_delivered),
            (&mut self.dropped, other.dropped),
            (&mut self.reroutes, other.reroutes),
            (&mut self.stale_views, other.stale_views),
            (&mut self.stale_cycles, other.stale_cycles),
            (&mut self.fault_events, other.fault_events),
            (&mut self.reconvergences, other.reconvergences),
            (&mut self.tree_switches, other.tree_switches),
            (&mut self.tree_exhausted, other.tree_exhausted),
            (&mut self.tree_regrafts, other.tree_regrafts),
            (&mut self.tree_rebuilds, other.tree_rebuilds),
        ] {
            op(a, b);
        }
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &Tally) {
        self.zip_with(other, |a, b| *a += b);
    }

    /// Subtract `other`'s counts from these: `other` is an earlier reading
    /// of the same ledger, so no count underflows.
    pub fn sub(&mut self, other: &Tally) {
        self.zip_with(other, |a, b| *a -= b);
    }

    /// Zero every count, keeping the dimension buffer.
    pub fn clear(&mut self) {
        let mut dim_hops = mem::take(&mut self.dim_hops);
        dim_hops.fill(0);
        *self = Tally {
            dim_hops,
            ..Tally::default()
        };
    }
}

/// The network state the engine hands both observers at the end of every
/// cycle ([`TelemetrySink::end_cycle`], [`ProfilerSink::cycle_sample`]),
/// and telemetry once more at the end of the run.
///
/// [`ProfilerSink::cycle_sample`]: crate::profiler::ProfilerSink::cycle_sample
pub struct CycleView<'a> {
    /// The cycle just completed (for [`TelemetrySink::finish`]: the cycle
    /// the run ended at).
    pub cycle: u64,
    /// Injection attempts drawn this cycle, network-wide. They are
    /// counted at packet-id assignment (suppressed draws get no id), so
    /// every shard draws the same count at any thread count.
    pub attempts: u64,
    /// The cycle's network-wide ledger difference: every shard's running
    /// totals summed, minus the same sum at the end of the previous
    /// observed cycle (or at the checkpoint the run was restored from).
    /// Empty in the view [`TelemetrySink::finish`] receives.
    pub ledger: &'a Tally,
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
    /// Plan-cache counters, fetched by the engine only on a cycle that
    /// closes an observer's window ([`TelemetrySink::wants_sample`],
    /// [`ProfilerSink::wants_cache`]); snapshotting takes a lock, so it is
    /// not a per-cycle cost. Each observer reads them only on its own
    /// window-closing cycles.
    ///
    /// [`ProfilerSink::wants_cache`]: crate::profiler::ProfilerSink::wants_cache
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

    /// The fault-budget monitor changed state.
    #[inline]
    fn health_transition(&mut self, _cycle: u64, _from: HealthState, _to: HealthState) {}

    /// Wall-clock nanoseconds spent in `phase` this cycle. Never exported
    /// to the deterministic CSV/JSONL streams.
    #[inline]
    fn phase_time(&mut self, _phase: Phase, _nanos: u64) {}

    /// A cycle completed; `view` describes the network at its end and
    /// carries the cycle's ledger difference.
    #[inline]
    fn end_cycle(&mut self, _view: &CycleView<'_>) {}

    /// The run completed; close any partial sampling window.
    #[inline]
    fn finish(&mut self, _view: &CycleView<'_>) {}
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
    fn health_transition(&mut self, cycle: u64, from: HealthState, to: HealthState) {
        (**self).health_transition(cycle, from, to)
    }
    #[inline]
    fn phase_time(&mut self, phase: Phase, nanos: u64) {
        (**self).phase_time(phase, nanos)
    }
    #[inline]
    fn end_cycle(&mut self, view: &CycleView<'_>) {
        (**self).end_cycle(view)
    }
    #[inline]
    fn finish(&mut self, view: &CycleView<'_>) {
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
    /// The ledger's counts over the window.
    pub counts: Tally,
    /// Packets queued per ending class `EC(k)` at the window's end.
    pub class_queued: Vec<u64>,
    /// Nodes per ending class with a non-empty queue at the window's end.
    pub class_occupied: Vec<u64>,
    /// Packets in flight at the window's end.
    pub in_flight: u64,
    /// Plan-cache counters: hits/misses are deltas over the window,
    /// entries is the absolute size at the window's end. `None` when the
    /// strategy has no cache (or it is still unused).
    pub cache: Option<CacheStats>,
    /// Health classification at the window's end.
    pub health: HealthState,
    /// Live faulty components at the window's end.
    pub live_faults: u64,
}

/// Default ring capacity: at most this many samples are retained; older
/// ones are evicted (and counted in [`TelemetryCollector::evicted`]).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The real telemetry sink: adds each cycle's ledger difference into
/// fixed-width sampling windows held in a bounded ring, and into a
/// whole-run tally that survives ring eviction, so reconciliation
/// against the [`Metrics`](crate::metrics::Metrics) ledger is exact
/// regardless of ring size.
#[derive(Clone, Debug)]
pub struct TelemetryCollector {
    num_classes: usize,
    interval: u64,
    capacity: usize,
    samples: VecDeque<TelemetrySample>,
    evicted: u64,
    /// First cycle of the open window; `None` until the first observed
    /// cycle, so a collector attached to a restored run starts its first
    /// window at the checkpoint.
    window_start: Option<u64>,
    window: Tally,
    total: Tally,
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
        TelemetryCollector {
            num_classes: 1usize << gc.alpha(),
            interval: interval.max(1),
            capacity: capacity.max(1),
            samples: VecDeque::new(),
            evicted: 0,
            window_start: None,
            window: Tally::new(n_dims),
            total: Tally::new(n_dims),
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

    /// The ledger's counts over every observed cycle (survives ring
    /// eviction).
    pub fn totals(&self) -> &Tally {
        &self.total
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
            start: self.window_start.replace(end).unwrap_or(end),
            end,
            counts: self.window.clone(),
            class_queued: view.class_queued.to_vec(),
            class_occupied: view.class_occupied.to_vec(),
            in_flight: view.in_flight,
            cache,
            health: view.health,
            live_faults: view.live_faults,
        };
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(sample);
        self.window.clear();
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
        for d in 0..self.total.dim_hops.len() {
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
            let c = &s.counts;
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                s.start,
                s.end,
                s.in_flight,
                c.injected,
                c.delivered,
                c.dropped,
                c.forwarded_hops,
                c.reroutes,
                c.stale_views,
                c.stale_cycles,
                c.fault_events,
                c.reconvergences,
                c.tree_switches,
                c.tree_exhausted,
                c.collective_delivered,
                c.tree_regrafts,
                c.tree_rebuilds,
                s.health.as_str(),
                s.live_faults,
            );
            match s.cache {
                Some(c) => {
                    let _ = write!(out, ",{},{},{}", c.hits, c.misses, c.entries);
                }
                None => out.push_str(",,,"),
            }
            for h in &c.dim_hops {
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
            let c = &s.counts;
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
                c.injected,
                c.delivered,
                c.dropped,
                c.forwarded_hops,
                c.reroutes,
                c.stale_views,
                c.stale_cycles,
                c.fault_events,
                c.reconvergences,
                c.tree_switches,
                c.tree_exhausted,
                c.collective_delivered,
                c.tree_regrafts,
                c.tree_rebuilds,
                s.health.as_str(),
                s.live_faults,
            );
            match s.cache {
                Some(cache) => {
                    let _ = write!(
                        out,
                        ",\"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{}",
                        cache.hits, cache.misses, cache.entries
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
                join(&c.dim_hops),
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
        let t = &self.total;
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
            t.injected, t.delivered, t.dropped
        );
        let _ = writeln!(
            out,
            "churn: {} fault events, {} stale-view exposures over {} stale cycles, \
             {} reroutes, {} reconvergences",
            t.fault_events, t.stale_views, t.stale_cycles, t.reroutes, t.reconvergences
        );
        if t.collective_delivered + t.tree_regrafts + t.tree_rebuilds > 0 {
            let _ = writeln!(
                out,
                "collectives: {} wave packets delivered, {} tree regrafts, {} rebuilds",
                t.collective_delivered, t.tree_regrafts, t.tree_rebuilds
            );
        }
        let total_hops = t.forwarded_hops;
        let _ = writeln!(out, "link utilization ({total_hops} hops total):");
        for (d, &h) in t.dim_hops.iter().enumerate() {
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
                t.tree_switches, t.tree_exhausted
            );
            for tree in trees {
                if tree.clean {
                    let _ = writeln!(out, "  tree {}: intact (no matching faults)", tree.tree);
                } else {
                    let _ = writeln!(
                        out,
                        "  tree {}: threatened ({} matching fault links, {} fault nodes)",
                        tree.tree, tree.matching_fault_links, tree.fault_nodes
                    );
                }
            }
            if !budget.precondition_paper {
                let intact = trees.iter().filter(|tree| tree.clean).count();
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
            for tr in &self.transitions {
                let _ = writeln!(
                    out,
                    "  cycle {:>8}: {} -> {}",
                    tr.cycle,
                    tr.from.as_str(),
                    tr.to.as_str()
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

    fn health_transition(&mut self, cycle: u64, from: HealthState, to: HealthState) {
        self.transitions.push(HealthTransition { cycle, from, to });
    }

    #[inline]
    fn phase_time(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase as usize] += nanos;
    }

    fn end_cycle(&mut self, view: &CycleView<'_>) {
        self.window_start.get_or_insert(view.cycle);
        self.window.add(view.ledger);
        self.total.add(view.ledger);
        if self.wants_sample(view.cycle) {
            self.close_window(view, view.cycle + 1);
        }
    }

    fn finish(&mut self, view: &CycleView<'_>) {
        self.ended_at = view.cycle;
        if self.window_start.is_some_and(|start| view.cycle > start) {
            // A partial window remains (the run ended mid-interval, or
            // drained early): close it so its counters are not lost.
            self.close_window(view, view.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc() -> GaussianCube {
        GaussianCube::new(6, 4).unwrap() // α = 2: 4 ending classes
    }

    /// One cycle's ledger difference: one hop per listed dimension, and
    /// `injected` injections.
    fn tally(g: &GaussianCube, dims: &[u32], injected: u64) -> Tally {
        let mut t = Tally::new(g.n() as usize);
        for &d in dims {
            t.dim_hops[d as usize] += 1;
            t.forwarded_hops += 1;
        }
        t.injected = injected;
        t
    }

    /// Class-aggregate slices for a quiet network (all 4 classes empty).
    const IDLE: [u64; 4] = [0; 4];

    fn view<'a>(
        cycle: u64,
        ledger: &'a Tally,
        class_queued: &'a [u64],
        class_occupied: &'a [u64],
        health: HealthState,
    ) -> CycleView<'a> {
        CycleView {
            cycle,
            attempts: ledger.injected,
            ledger,
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
        let t = tally(&g, &[0, 3], 1);
        for cycle in 0..25u64 {
            assert_eq!(c.wants_sample(cycle), (cycle + 1) % 10 == 0);
            c.end_cycle(&view(cycle, &t, &IDLE, &IDLE, HealthState::Healthy));
        }
        // Two full windows closed; 5 cycles pending.
        assert_eq!(c.len(), 2);
        let empty = Tally::new(g.n() as usize);
        c.finish(&view(25, &empty, &IDLE, &IDLE, HealthState::Healthy));
        assert_eq!(c.len(), 3, "finish must close the partial window");
        let s: Vec<&TelemetrySample> = c.samples().collect();
        assert_eq!((s[0].start, s[0].end), (0, 10));
        assert_eq!((s[1].start, s[1].end), (10, 20));
        assert_eq!((s[2].start, s[2].end), (20, 25));
        assert_eq!(s[0].counts.injected, 10);
        assert_eq!(s[2].counts.injected, 5);
        assert_eq!(s[0].counts.dim_hops[0], 10);
        assert_eq!(s[0].counts.dim_hops[3], 10);
        assert_eq!(s[0].counts.forwarded_hops, 20);
        // Totals reconcile with the per-window series.
        assert_eq!(c.totals().forwarded_hops, 50);
        assert_eq!(
            c.samples().map(|s| s.counts.forwarded_hops).sum::<u64>(),
            c.totals().forwarded_hops
        );
        assert_eq!(
            (
                c.totals().injected,
                c.totals().delivered,
                c.totals().dropped
            ),
            (25, 0, 0)
        );
    }

    #[test]
    fn finish_without_pending_cycles_adds_no_window() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 10);
        let empty = Tally::new(g.n() as usize);
        for cycle in 0..10u64 {
            c.end_cycle(&view(cycle, &empty, &IDLE, &IDLE, HealthState::Healthy));
        }
        assert_eq!(c.len(), 1);
        c.finish(&view(10, &empty, &IDLE, &IDLE, HealthState::Healthy));
        assert_eq!(c.len(), 1, "exactly one full window, no empty tail");
        // A collector that observed no cycle closes no window either.
        let mut idle = TelemetryCollector::new(&g, 10);
        idle.finish(&view(10, &empty, &IDLE, &IDLE, HealthState::Healthy));
        assert!(idle.is_empty());
    }

    /// A collector first attached at a later cycle (a restored run)
    /// starts its first window there, not at cycle 0.
    #[test]
    fn first_window_starts_at_the_first_observed_cycle() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 10);
        let t = tally(&g, &[1], 1);
        for cycle in 15..32u64 {
            c.end_cycle(&view(cycle, &t, &IDLE, &IDLE, HealthState::Healthy));
        }
        let empty = Tally::new(g.n() as usize);
        c.finish(&view(32, &empty, &IDLE, &IDLE, HealthState::Healthy));
        let bounds: Vec<(u64, u64, u64)> = c
            .samples()
            .map(|s| (s.start, s.end, s.counts.injected))
            .collect();
        assert_eq!(bounds, vec![(15, 20, 5), (20, 30, 10), (30, 32, 2)]);
    }

    #[test]
    fn ring_evicts_oldest_but_totals_survive() {
        let g = gc();
        let mut c = TelemetryCollector::with_capacity(&g, 1, 4);
        let t = tally(&g, &[1], 0);
        for cycle in 0..10u64 {
            c.end_cycle(&view(cycle, &t, &IDLE, &IDLE, HealthState::Healthy));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evicted(), 6);
        assert_eq!(c.samples().next().unwrap().start, 6, "oldest retained");
        assert_eq!(c.totals().forwarded_hops, 10, "totals ignore eviction");
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
        let empty = Tally::new(g.n() as usize);
        c.end_cycle(&view(
            0,
            &empty,
            &class_queued,
            &class_occupied,
            HealthState::Healthy,
        ));
        let s = c.samples().next().unwrap();
        assert_eq!(s.class_queued, vec![0, 3, 1, 0]);
        assert_eq!(s.class_occupied, vec![0, 2, 1, 0]);
        assert_eq!(s.in_flight, 4);
    }

    /// A cycle's difference read as one tally or as the sum of per-shard
    /// tallies closes the same window, and subtracting a reading undoes
    /// adding it.
    #[test]
    fn absorbing_split_deltas_equals_one_delta() {
        let g = gc();
        let mut delta = Tally::new(g.n() as usize);
        delta.dim_hops[0] = 2;
        delta.dim_hops[4] = 1;
        delta.forwarded_hops = 3;
        delta.injected = 3;
        delta.delivered = 2;
        delta.dropped = 1;
        delta.reroutes = 1;
        delta.stale_views = 2;
        delta.tree_rebuilds = 1;
        let mut first = Tally::new(g.n() as usize);
        first.dim_hops[0] = 2;
        first.forwarded_hops = 2;
        first.injected = 3;
        first.stale_views = 2;
        let mut second = delta.clone();
        second.sub(&first);
        assert_eq!(second.dim_hops[0], 0);
        assert_eq!((second.forwarded_hops, second.injected), (1, 0));
        let mut summed = Tally::new(g.n() as usize);
        summed.add(&first);
        summed.add(&second);
        assert_eq!(summed, delta);
        let mut merged = TelemetryCollector::new(&g, 1);
        let mut split = TelemetryCollector::new(&g, 1);
        merged.end_cycle(&view(0, &delta, &IDLE, &IDLE, HealthState::Healthy));
        split.end_cycle(&view(0, &summed, &IDLE, &IDLE, HealthState::Healthy));
        assert_eq!(
            merged.samples().next().unwrap(),
            split.samples().next().unwrap()
        );
        let t = merged.totals();
        assert_eq!((t.injected, t.delivered, t.dropped), (3, 2, 1));
        assert_eq!((t.forwarded_hops, t.tree_rebuilds), (3, 1));
        summed.clear();
        assert_eq!(summed, Tally::new(g.n() as usize));
    }

    #[test]
    fn csv_and_jsonl_have_one_line_per_sample() {
        let g = gc();
        let mut c = TelemetryCollector::new(&g, 5);
        for cycle in 0..20u64 {
            let t = tally(&g, &[(cycle % 6) as u32], 0);
            c.end_cycle(&view(cycle, &t, &IDLE, &IDLE, HealthState::Healthy));
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
        let empty = Tally::new(g.n() as usize);
        let mk = |cycle: u64, cache: CacheStats| CycleView {
            cache: Some(cache),
            ..view(cycle, &empty, &IDLE, &IDLE, HealthState::Healthy)
        };
        c.end_cycle(&mk(
            0,
            CacheStats {
                hits: 10,
                misses: 4,
                entries: 4,
            },
        ));
        c.end_cycle(&mk(
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
        let t = tally(&g, &[2], 0);
        for cycle in 0..30u64 {
            c.end_cycle(&view(cycle, &t, &IDLE, &IDLE, HealthState::Healthy));
        }
        c.health_transition(7, HealthState::Healthy, HealthState::Degraded);
        c.phase_time(Phase::Forwarding, 12_345);
        let empty = Tally::new(g.n() as usize);
        c.finish(&view(30, &empty, &IDLE, &IDLE, HealthState::Degraded));
        let budget = gcube_routing::fault_budget(&g, &FaultSet::new());
        let report = c.health_report(&budget);
        assert!(report.contains("network health report"));
        assert!(report.contains("dim  2"));
        assert!(report.contains("healthy -> degraded"));
        assert!(report.contains("forwarding"));
        assert!(report.contains("T_paper"));
    }
}
