//! Per-shard performance profiler: the third zero-cost-when-off sink
//! family next to [`crate::trace::TraceSink`] and
//! [`crate::telemetry::TelemetrySink`].
//!
//! A [`ProfilerSink`] reads the same end-of-cycle
//! [`CycleView`] as telemetry: the injection attempts the cycle drew, its
//! ledger difference (whose `forwarded_hops` is the cycle's moved
//! packets), the per-ending-class queue snapshot and the plan-cache
//! counters. On top of that it receives what only the profiler wants:
//! wall-clock phase times, and per shard the barrier wait, the class
//! units and requests it planned, and how many packets and events it
//! sent through the exchange mailboxes. The engine monomorphises over the
//! sink type so the [`NullProfiler`] path folds to dead code exactly like
//! the other two sink families.
//!
//! # Deterministic vs report-only: the strict split
//!
//! Profiler output is split into two classes and the split is part of
//! the API contract:
//!
//! * **Deterministic counters** — per-cycle injection requests, moved
//!   packets (forwarded hops), in-flight population, per-ending-class
//!   queue depth/occupancy and the derived load-imbalance factor, and
//!   plan-cache hit/miss deltas. These are pure functions of the
//!   [`SimConfig`](crate::config::SimConfig) and routing algorithm:
//!   bitwise identical at *any* thread count, and therefore replay-comparable
//!   (the `analyze` run-diff mode and the CI 1-vs-4-thread gate diff
//!   exactly these fields).
//! * **Report-only fields** — wall-clock phase times, per-shard
//!   barrier-wait versus work time, per-shard planning splits (class
//!   units and requests, in the `steal_units` and `planned_reqs`
//!   columns) and exchange mailbox volumes. Wall clock is obviously
//!   non-deterministic; the planning splits and mailbox volumes are
//!   deterministic for a fixed shard count but depend on it, because
//!   each shard plans only its own classes. They appear only in the
//!   human report and in JSONL lines tagged `"report_only":true`, never
//!   in the deterministic stream.
//!
//! The aggregate *totals* of class units, planned requests and exchange
//! volumes are thread-invariant (every class and every attempt has
//! exactly one owner, every non-arriving advance crosses a mailbox
//! exactly once), but a 1-thread run has no per-shard breakdown or
//! mailboxes at all, so those totals still cannot live in the
//! deterministic stream.

use std::collections::VecDeque;
use std::fmt::Write as _;

use gcube_routing::CacheStats;

use crate::metrics::Histogram;
use crate::telemetry::{CycleView, Phase, NUM_PHASES};

/// Ring capacity for retained per-window samples (matches the
/// telemetry collector).
pub const DEFAULT_PROFILE_RING: usize = 4096;

/// Whole-run, per-shard counters published by each worker (and the
/// coordinator, shard 0) when it exits. **Report-only**: the nano fields
/// are wall clock, so the whole record stays off the deterministic
/// stream, although the counts are deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Cycles this shard executed.
    pub cycles: u64,
    /// Class units this shard planned: one per owned ending class per
    /// injecting cycle. The name predates the replicated draw, when
    /// threads stole units off a shared cursor.
    pub steal_units: u64,
    /// Injection attempts this shard planned, those whose source it owns.
    pub planned_reqs: u64,
    /// Moved packets published to this shard's own mailbox.
    pub moves_self: u64,
    /// Moved packets published to other shards' mailboxes.
    pub moves_out: u64,
    /// Trace events appended to the exchange.
    pub events_out: u64,
    /// Wall-clock nanoseconds spent inside [`SpinBarrier::wait`]
    /// (coordination overhead; the complement of work time).
    ///
    /// [`SpinBarrier::wait`]: crate::shard
    pub barrier_nanos: u64,
    /// Wall-clock nanoseconds for the shard's whole run loop.
    pub run_nanos: u64,
}

impl ShardProfile {
    /// Barrier share of the run loop, `0.0..=1.0` (`0.0` when the run
    /// time was not measured).
    pub fn barrier_fraction(&self) -> f64 {
        if self.run_nanos == 0 {
            0.0
        } else {
            self.barrier_nanos as f64 / self.run_nanos as f64
        }
    }
}

/// Observer interface for engine performance counters.
///
/// The engine monomorphises over `P: ProfilerSink`, so with
/// [`NullProfiler`] (whose [`enabled`](ProfilerSink::enabled) is a
/// constant `false`) every guarded hook folds to dead code — the off
/// path stays allocation-free and branch-free like the trace and
/// telemetry sinks.
pub trait ProfilerSink {
    /// Fast guard the engine checks before assembling samples.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this sink wants plan-cache counters fetched for `cycle`.
    /// Cache stats cost a lock acquisition, so they are sampled, not
    /// fetched every cycle.
    #[inline]
    fn wants_cache(&self, _cycle: u64) -> bool {
        false
    }

    /// End-of-cycle deterministic counters, from the view telemetry
    /// receives too.
    fn cycle_sample(&mut self, _view: &CycleView<'_>) {}

    /// Wall-clock time spent in `phase` (report-only).
    fn phase_time(&mut self, _phase: Phase, _nanos: u64) {}

    /// Whole-run counters for one shard (report-only). The one-shard
    /// schedule emits none; the multi-shard schedule emits one per shard.
    fn shard_profile(&mut self, _shard: usize, _profile: &ShardProfile) {}

    /// The run ended; it ran on `shards` shards.
    fn finish_run(&mut self, _shards: usize) {}
}

/// Disabled profiler: all hooks compile away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProfiler;

impl ProfilerSink for NullProfiler {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

impl<P: ProfilerSink + ?Sized> ProfilerSink for &mut P {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn wants_cache(&self, cycle: u64) -> bool {
        (**self).wants_cache(cycle)
    }
    fn cycle_sample(&mut self, view: &CycleView<'_>) {
        (**self).cycle_sample(view)
    }
    fn phase_time(&mut self, phase: Phase, nanos: u64) {
        (**self).phase_time(phase, nanos)
    }
    fn shard_profile(&mut self, shard: usize, profile: &ShardProfile) {
        (**self).shard_profile(shard, profile)
    }
    fn finish_run(&mut self, shards: usize) {
        (**self).finish_run(shards)
    }
}

/// One retained per-window deterministic sample row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileSample {
    /// Cycle that closed the window (0-based).
    pub cycle: u64,
    /// Injection requests planned during the window.
    pub injected: u64,
    /// Forwarded hops during the window.
    pub moved: u64,
    /// In-flight packets at the window end.
    pub in_flight: u64,
    /// Total queued packets across ending classes at the window end.
    pub queued_total: u64,
    /// Deepest ending-class queue at the window end.
    pub queued_max: u64,
    /// Nodes with non-empty queues at the window end.
    pub occupied_total: u64,
    /// Load-imbalance factor in milli-units: `1000` = perfectly
    /// balanced, `classes * 1000` = everything in one class (and, by
    /// convention, `1000` when nothing is queued).
    pub imbalance_milli: u64,
    /// Plan-cache hits during the window (0 when the strategy caches
    /// nothing).
    pub cache_hits: u64,
    /// Plan-cache misses during the window.
    pub cache_misses: u64,
    /// Plan-cache resident entries at the window end.
    pub cache_entries: u64,
}

/// `floor(log2(v)) + 1` bucketing for the streaming histograms: bucket
/// 0 holds zeros, bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
#[inline]
fn log2_bucket(v: u64) -> u64 {
    (u64::BITS - v.leading_zeros()) as u64
}

/// In-memory [`ProfilerSink`]: streams per-cycle counters into log2
/// histograms and running totals, retains per-window sample rows in a
/// bounded ring, and keeps wall-clock fields strictly apart from the
/// deterministic stream.
#[derive(Clone, Debug)]
pub struct ProfileCollector {
    interval: u64,
    classes: usize,
    ring_capacity: usize,
    samples: VecDeque<ProfileSample>,
    dropped_samples: u64,
    // Window accumulators (deterministic).
    win_injected: u64,
    win_moved: u64,
    last_cache: CacheStats,
    // Whole-run deterministic aggregates.
    cycles: u64,
    injected_total: u64,
    moved_total: u64,
    max_in_flight: u64,
    imb_sum_milli: u128,
    imb_max_milli: u64,
    moved_hist: Histogram,
    in_flight_hist: Histogram,
    // Report-only.
    phase_nanos: [u64; NUM_PHASES],
    shards: usize,
    shard_profiles: Vec<(usize, ShardProfile)>,
}

impl ProfileCollector {
    /// A collector for a cube with `classes` ending classes, closing a
    /// sample window every `interval` cycles (`interval` is clamped to
    /// at least 1).
    pub fn new(classes: usize, interval: u64) -> ProfileCollector {
        ProfileCollector {
            interval: interval.max(1),
            classes: classes.max(1),
            ring_capacity: DEFAULT_PROFILE_RING,
            samples: VecDeque::new(),
            dropped_samples: 0,
            win_injected: 0,
            win_moved: 0,
            last_cache: CacheStats::default(),
            cycles: 0,
            injected_total: 0,
            moved_total: 0,
            max_in_flight: 0,
            imb_sum_milli: 0,
            imb_max_milli: 0,
            moved_hist: Histogram::new(),
            in_flight_hist: Histogram::new(),
            phase_nanos: [0; NUM_PHASES],
            shards: 1,
            shard_profiles: Vec::new(),
        }
    }

    /// Retained sample rows, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &ProfileSample> {
        self.samples.iter()
    }

    /// Windows evicted because the ring was full.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_samples
    }

    /// Cycles observed (a profiler attached to a restored run observes
    /// only the cycles after the checkpoint).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total injection requests observed.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Total forwarded hops observed.
    pub fn moved_total(&self) -> u64 {
        self.moved_total
    }

    /// Largest end-of-cycle in-flight population.
    pub fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    /// Mean per-cycle load-imbalance factor over the observed cycles, in
    /// milli-units (1000 = perfectly balanced, and never less).
    pub fn imbalance_avg_milli(&self) -> u64 {
        if self.cycles == 0 {
            1000
        } else {
            (self.imb_sum_milli / self.cycles as u128) as u64
        }
    }

    /// Worst per-cycle load-imbalance factor in milli-units.
    pub fn imbalance_max_milli(&self) -> u64 {
        self.imb_max_milli
    }

    /// Streaming log2 histogram of per-cycle forwarded hops.
    pub fn moved_hist(&self) -> &Histogram {
        &self.moved_hist
    }

    /// Streaming log2 histogram of end-of-cycle in-flight population.
    pub fn in_flight_hist(&self) -> &Histogram {
        &self.in_flight_hist
    }

    /// Per-shard whole-run profiles, in shard order (report-only;
    /// empty after a sequential run).
    pub fn shard_profiles(&self) -> &[(usize, ShardProfile)] {
        &self.shard_profiles
    }

    /// Accumulated wall-clock nanoseconds per phase (report-only).
    pub fn phase_nanos(&self) -> &[u64; NUM_PHASES] {
        &self.phase_nanos
    }

    fn imbalance_milli(&self, queued_total: u64, queued_max: u64) -> u64 {
        (queued_max * self.classes as u64 * 1000)
            .checked_div(queued_total)
            .unwrap_or(1000)
    }

    /// Deterministic JSONL export: one line per retained window plus a
    /// trailing summary line. Bitwise identical for the same config and
    /// algorithm at any thread count.
    pub fn deterministic_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{{\"cycle\":{},\"injected\":{},\"moved\":{},\"in_flight\":{},\
                 \"queued_total\":{},\"queued_max\":{},\"occupied_total\":{},\
                 \"imbalance_milli\":{},\"cache_hits\":{},\"cache_misses\":{},\
                 \"cache_entries\":{}}}",
                s.cycle,
                s.injected,
                s.moved,
                s.in_flight,
                s.queued_total,
                s.queued_max,
                s.occupied_total,
                s.imbalance_milli,
                s.cache_hits,
                s.cache_misses,
                s.cache_entries,
            );
        }
        let _ = writeln!(
            out,
            "{{\"summary\":true,\"cycles\":{},\"injected\":{},\"moved\":{},\
             \"max_in_flight\":{},\"imbalance_avg_milli\":{},\"imbalance_max_milli\":{},\
             \"dropped_samples\":{},\"moved_log2\":{},\"in_flight_log2\":{}}}",
            self.cycles,
            self.injected_total,
            self.moved_total,
            self.max_in_flight,
            self.imbalance_avg_milli(),
            self.imbalance_max_milli(),
            self.dropped_samples,
            hist_json(&self.moved_hist),
            hist_json(&self.in_flight_hist),
        );
        out
    }

    /// Full JSONL export: the deterministic stream followed by
    /// report-only lines, each tagged `"report_only":true` so consumers
    /// (and the CI determinism diff) can strip them mechanically.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.deterministic_jsonl();
        for phase in Phase::ALL {
            let _ = writeln!(
                out,
                "{{\"report_only\":true,\"phase\":\"{}\",\"nanos\":{}}}",
                phase.as_str(),
                self.phase_nanos[phase as usize],
            );
        }
        for (shard, p) in &self.shard_profiles {
            let _ = writeln!(
                out,
                "{{\"report_only\":true,\"shard\":{},\"cycles\":{},\"steal_units\":{},\
                 \"planned_reqs\":{},\"moves_self\":{},\"moves_out\":{},\"events_out\":{},\
                 \"barrier_nanos\":{},\"run_nanos\":{}}}",
                shard,
                p.cycles,
                p.steal_units,
                p.planned_reqs,
                p.moves_self,
                p.moves_out,
                p.events_out,
                p.barrier_nanos,
                p.run_nanos,
            );
        }
        out
    }

    /// Human-readable performance report: deterministic aggregates
    /// first, wall-clock sections clearly marked report-only.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== profile ({} cycles, {} shards) ===",
            self.cycles, self.shards
        );
        let _ = writeln!(
            out,
            "injected {}  moved {}  max in-flight {}",
            self.injected_total, self.moved_total, self.max_in_flight
        );
        let _ = writeln!(
            out,
            "load imbalance: avg {:.3}x  worst {:.3}x  (1.000x = ending classes evenly loaded)",
            self.imbalance_avg_milli() as f64 / 1000.0,
            self.imb_max_milli as f64 / 1000.0,
        );
        let _ = writeln!(
            out,
            "moved/cycle: p50 {}  p95 {}  max {}   in-flight: p50 {}  p95 {}  max {}",
            exp2_label(self.moved_hist.p50()),
            exp2_label(self.moved_hist.p95()),
            exp2_label(Some(self.moved_hist.max())),
            exp2_label(self.in_flight_hist.p50()),
            exp2_label(self.in_flight_hist.p95()),
            exp2_label(Some(self.in_flight_hist.max())),
        );
        let total_phase: u64 = self.phase_nanos.iter().sum();
        if total_phase > 0 {
            let _ = writeln!(out, "--- phase split (wall clock, report-only) ---");
            for phase in Phase::ALL {
                let ns = self.phase_nanos[phase as usize];
                let _ = writeln!(
                    out,
                    "  {:<14} {:>10.3} ms  {:>5.1}%",
                    phase.as_str(),
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / total_phase as f64,
                );
            }
        }
        if self.shard_profiles.is_empty() {
            let _ = writeln!(out, "sequential run: no per-shard breakdown");
        } else {
            let _ = writeln!(out, "--- per-shard split (report-only) ---");
            let _ = writeln!(
                out,
                "  shard  steal_units  planned  moves_self  moves_out  events   barrier%"
            );
            for (shard, p) in &self.shard_profiles {
                let _ = writeln!(
                    out,
                    "  {:>5}  {:>11}  {:>7}  {:>10}  {:>9}  {:>6}  {:>8.1}%",
                    shard,
                    p.steal_units,
                    p.planned_reqs,
                    p.moves_self,
                    p.moves_out,
                    p.events_out,
                    100.0 * p.barrier_fraction(),
                );
            }
        }
        out
    }
}

impl ProfilerSink for ProfileCollector {
    #[inline]
    fn wants_cache(&self, cycle: u64) -> bool {
        (cycle + 1).is_multiple_of(self.interval)
    }

    fn cycle_sample(&mut self, view: &CycleView<'_>) {
        let moved = view.ledger.forwarded_hops;
        self.cycles += 1;
        self.win_injected += view.attempts;
        self.win_moved += moved;
        self.injected_total += view.attempts;
        self.moved_total += moved;
        self.max_in_flight = self.max_in_flight.max(view.in_flight);
        self.moved_hist.record(log2_bucket(moved));
        self.in_flight_hist.record(log2_bucket(view.in_flight));
        let queued_total: u64 = view.class_queued.iter().sum();
        let queued_max = view.class_queued.iter().copied().max().unwrap_or(0);
        let imb = self.imbalance_milli(queued_total, queued_max);
        self.imb_sum_milli += imb as u128;
        self.imb_max_milli = self.imb_max_milli.max(imb);
        if (view.cycle + 1).is_multiple_of(self.interval) {
            let cache = view.cache.unwrap_or(self.last_cache);
            let row = ProfileSample {
                cycle: view.cycle,
                injected: self.win_injected,
                moved: self.win_moved,
                in_flight: view.in_flight,
                queued_total,
                queued_max,
                occupied_total: view.class_occupied.iter().sum(),
                imbalance_milli: imb,
                cache_hits: cache.hits - self.last_cache.hits,
                cache_misses: cache.misses - self.last_cache.misses,
                cache_entries: cache.entries,
            };
            self.last_cache = cache;
            self.win_injected = 0;
            self.win_moved = 0;
            if self.samples.len() == self.ring_capacity {
                self.samples.pop_front();
                self.dropped_samples += 1;
            }
            self.samples.push_back(row);
        }
    }

    fn phase_time(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase as usize] += nanos;
    }

    fn shard_profile(&mut self, shard: usize, profile: &ShardProfile) {
        self.shard_profiles.push((shard, *profile));
    }

    fn finish_run(&mut self, shards: usize) {
        self.shards = shards;
        self.shard_profiles.sort_by_key(|(s, _)| *s);
    }
}

/// Render a log2 histogram's non-empty prefix as a JSON array of bucket
/// counts (trailing zeros trimmed, `[]` when empty).
fn hist_json(h: &Histogram) -> String {
    let buckets = h.buckets();
    let last = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    let mut out = String::from("[");
    for (i, b) in buckets[..last].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
    out
}

/// Label a log2-bucket percentile as the bucket's value range lower
/// bound (`0` stays `0`; bucket `i >= 1` is `2^(i-1)`).
fn exp2_label(p: Option<u64>) -> u64 {
    match p {
        None | Some(0) => 0,
        Some(i) => 1u64 << (i - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::telemetry::Tally;
    use gcube_routing::HealthState;

    /// Feed one cycle: `injected` attempts, `moved` forwarded hops.
    #[allow(clippy::too_many_arguments)]
    fn feed(
        c: &mut ProfileCollector,
        cycle: u64,
        injected: u64,
        moved: u64,
        in_flight: u64,
        cq: &[u64],
        co: &[u64],
        cache: Option<CacheStats>,
    ) {
        let ledger = Tally {
            forwarded_hops: moved,
            ..Tally::default()
        };
        c.cycle_sample(&CycleView {
            cycle,
            attempts: injected,
            ledger: &ledger,
            class_queued: cq,
            class_occupied: co,
            in_flight,
            health: HealthState::Healthy,
            live_faults: 0,
            cache,
        });
    }

    #[test]
    fn null_profiler_is_disabled() {
        assert!(!NullProfiler.enabled());
        assert!(!NullProfiler.wants_cache(0));
        // The forwarding impl preserves the guard.
        let mut null = NullProfiler;
        let fwd: &mut NullProfiler = &mut null;
        assert!(!fwd.enabled());
    }

    #[test]
    fn log2_buckets_partition_powers_of_two() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn windows_accumulate_and_close_on_interval() {
        let mut c = ProfileCollector::new(4, 2);
        let cq = [3, 1, 0, 0];
        let co = [2, 1, 0, 0];
        assert!(!c.wants_cache(0));
        assert!(c.wants_cache(1));
        feed(&mut c, 0, 5, 2, 5, &cq, &co, None);
        assert_eq!(c.samples().count(), 0, "window still open");
        let cache = CacheStats {
            hits: 7,
            misses: 3,
            entries: 2,
        };
        feed(&mut c, 1, 1, 4, 6, &cq, &co, Some(cache));
        let rows: Vec<_> = c.samples().copied().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cycle, 1);
        assert_eq!(rows[0].injected, 6);
        assert_eq!(rows[0].moved, 6);
        assert_eq!(rows[0].in_flight, 6);
        assert_eq!(rows[0].queued_total, 4);
        assert_eq!(rows[0].queued_max, 3);
        assert_eq!(rows[0].occupied_total, 3);
        // 3 * 4 classes * 1000 / 4 queued = 3000 milli.
        assert_eq!(rows[0].imbalance_milli, 3000);
        assert_eq!(rows[0].cache_hits, 7);
        assert_eq!(rows[0].cache_misses, 3);
        assert_eq!(rows[0].cache_entries, 2);
        assert_eq!(c.injected_total(), 6);
        assert_eq!(c.moved_total(), 6);
        assert_eq!(c.max_in_flight(), 6);
    }

    #[test]
    fn empty_network_counts_as_balanced() {
        let mut c = ProfileCollector::new(8, 1);
        let cq = [0u64; 8];
        feed(&mut c, 0, 0, 0, 0, &cq, &cq, None);
        assert_eq!(c.imbalance_avg_milli(), 1000);
        assert_eq!(c.imbalance_max_milli(), 1000);
    }

    #[test]
    fn ring_bounds_memory() {
        let mut c = ProfileCollector::new(2, 1);
        c.ring_capacity = 3;
        let cq = [1, 0];
        for cycle in 0..5 {
            feed(&mut c, cycle, 1, 1, 1, &cq, &cq, None);
        }
        assert_eq!(c.samples().count(), 3);
        assert_eq!(c.dropped_samples(), 2);
        assert_eq!(c.samples().next().unwrap().cycle, 2, "oldest evicted first");
    }

    #[test]
    fn deterministic_jsonl_excludes_wall_clock() {
        let mut c = ProfileCollector::new(2, 1);
        let cq = [2, 2];
        feed(&mut c, 0, 4, 3, 4, &cq, &cq, None);
        c.phase_time(Phase::Forwarding, 123_456);
        c.shard_profile(
            1,
            &ShardProfile {
                cycles: 1,
                barrier_nanos: 999,
                run_nanos: 1000,
                ..ShardProfile::default()
            },
        );
        let det = c.deterministic_jsonl();
        assert!(
            !det.contains("nanos"),
            "deterministic stream leaked wall clock: {det}"
        );
        assert!(!det.contains("report_only"));
        let full = c.to_jsonl();
        assert!(
            full.starts_with(&det),
            "full export must prefix the deterministic stream"
        );
        assert!(full.contains("\"report_only\":true,\"phase\":\"forwarding\",\"nanos\":123456"));
        assert!(full.contains("\"report_only\":true,\"shard\":1"));
    }

    #[test]
    fn report_renders_shard_table_and_phase_split() {
        let mut c = ProfileCollector::new(2, 1);
        let cq = [1, 1];
        feed(&mut c, 0, 2, 2, 2, &cq, &cq, None);
        c.phase_time(Phase::Planning, 1_000_000);
        c.shard_profile(
            0,
            &ShardProfile {
                cycles: 1,
                steal_units: 4,
                planned_reqs: 9,
                barrier_nanos: 250,
                run_nanos: 1000,
                ..ShardProfile::default()
            },
        );
        c.finish_run(2);
        let report = c.report();
        assert!(report.contains("phase split (wall clock, report-only)"));
        assert!(report.contains("per-shard split (report-only)"));
        assert!(
            report.contains("25.0%"),
            "barrier fraction rendered: {report}"
        );
        let seq = ProfileCollector::new(2, 1);
        assert!(seq
            .report()
            .contains("sequential run: no per-shard breakdown"));
    }

    #[test]
    fn shard_profiles_sorted_on_finish() {
        let mut c = ProfileCollector::new(2, 1);
        c.shard_profile(2, &ShardProfile::default());
        c.shard_profile(0, &ShardProfile::default());
        c.shard_profile(1, &ShardProfile::default());
        c.finish_run(3);
        let order: Vec<usize> = c.shard_profiles().iter().map(|(s, _)| *s).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(c.cycles(), 0, "finishing observes no cycle");
    }

    /// A profiler attached mid-run (a restored run) counts and averages
    /// only the cycles it observed.
    #[test]
    fn cycles_and_imbalance_cover_only_observed_cycles() {
        let mut c = ProfileCollector::new(2, 10);
        let cq = [1, 1];
        for cycle in 175..180 {
            feed(&mut c, cycle, 1, 1, 2, &cq, &cq, None);
        }
        c.finish_run(1);
        assert_eq!(c.cycles(), 5);
        assert_eq!(c.imbalance_avg_milli(), 1000);
    }
}
