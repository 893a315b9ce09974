//! Performance trajectory of the routing hot path, written to
//! `BENCH_routing.json` (workspace root, `GCUBE_RESULTS_DIR`-aware).
//!
//! Measures with plain wall-clock timers (no Criterion harness) so it can
//! run in CI and leave a machine-readable record:
//!
//! * route-planning throughput at `n = 12`, uncached vs plan-cached FFGCR
//!   (the ISSUE's ≥2x criterion) and FTGCR under a small fault set;
//! * the plan-cache hit rate over the measured pair stream;
//! * full-engine cycles per second at `n ∈ {10, 12, 14}` with the cached
//!   strategy;
//! * the million-node `GC(20, 4)` run: set-up and stepping timed apart,
//!   plus the injection scan's nanoseconds per node (median and IQR).

use std::fmt::Write as _;
use std::time::Instant;

use gcube_bench::{
    collective_churn_sweep, collective_scenario_config, quick, results_dir, survival_churn_sweep,
    survival_head_to_head, survival_rates, survival_ratio, COLLECTIVE_FAULT_CYCLE,
    SURVIVAL_CLUSTER_FAULTS,
};
use gcube_routing::{ffgcr, ftgcr, FaultSet, PlanCache};
use gcube_sim::{
    CachedFfgcr, CachedFtgcr, FaultTolerantGcr, MemorySink, MultiTreeStrategy, ProfileCollector,
    SimConfig, Simulator, TelemetryCollector,
};
use gcube_topology::{GaussianCube, LinkId, NodeId};

/// Deterministic pair stream covering many ending-class combinations.
fn pair(n: u32, i: u64) -> (NodeId, NodeId) {
    let mask = (1u64 << n) - 1;
    let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (NodeId(x & mask), NodeId((x >> 21) & mask))
}

struct RoutePlanning {
    pairs: u64,
    uncached_per_sec: f64,
    cached_per_sec: f64,
    speedup: f64,
    cache_hit_rate: f64,
}

fn measure_route_planning(n: u32, pairs: u64, faulty: bool) -> RoutePlanning {
    let gc = GaussianCube::new(n, 4).unwrap();
    let mut faults = FaultSet::new();
    if faulty {
        faults.add_node(NodeId(77));
        faults.add_link(LinkId::new(NodeId(1 << (n - 1)), 0));
    }

    let t0 = Instant::now();
    for i in 0..pairs {
        let (s, d) = pair(n, i + 1);
        if faulty {
            let _ = std::hint::black_box(ftgcr::route(&gc, &faults, s, d));
        } else {
            std::hint::black_box(ffgcr::route(&gc, s, d).unwrap());
        }
    }
    let uncached = t0.elapsed().as_secs_f64();

    let cache = PlanCache::new(&gc);
    let t1 = Instant::now();
    for i in 0..pairs {
        let (s, d) = pair(n, i + 1);
        if faulty {
            let _ = std::hint::black_box(ftgcr::route_cached(&gc, &faults, s, d, &cache));
        } else {
            std::hint::black_box(ffgcr::route_cached(&gc, s, d, &cache).unwrap());
        }
    }
    let cached = t1.elapsed().as_secs_f64();

    let stats = cache.stats();
    RoutePlanning {
        pairs,
        uncached_per_sec: pairs as f64 / uncached,
        cached_per_sec: pairs as f64 / cached,
        speedup: uncached / cached,
        cache_hit_rate: stats.hit_rate(),
    }
}

struct EnginePoint {
    n: u32,
    cycles: u64,
    cycles_per_sec: f64,
}

fn measure_engine(n: u32, inject: u64) -> EnginePoint {
    let algo = CachedFfgcr::new();
    let cfg = SimConfig::new(n, 4)
        .with_cycles(inject, inject * 10, 0)
        .with_rate(0.005);
    let t0 = Instant::now();
    let m = Simulator::new(cfg, &algo).session().run().metrics;
    let elapsed = t0.elapsed().as_secs_f64();
    EnginePoint {
        n,
        cycles: m.cycles,
        cycles_per_sec: m.cycles as f64 / elapsed,
    }
}

/// First quartile, median and third quartile of a handful of timings;
/// the median is robust against one stray scheduler hiccup where a mean
/// is not.
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(xs: &mut [f64]) -> Quartiles {
        xs.sort_by(f64::total_cmp);
        let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Measure two modes of the same workload fairly: warm both once
/// (unmeasured), then alternate A,B,A,B,… and take each mode's median.
/// The previous run-all-A-then-all-B order systematically credited B
/// with warmer caches and a trained branch predictor — it once reported
/// telemetry *on* as faster than off (`overhead_ratio` 0.863).
fn interleaved_secs(reps: usize, mut run_a: impl FnMut(), mut run_b: impl FnMut()) -> (f64, f64) {
    run_a();
    run_b();
    let mut a = Vec::with_capacity(reps);
    let mut b = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        run_a();
        a.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run_b();
        b.push(t.elapsed().as_secs_f64());
    }
    (Quartiles::of(&mut a).median, Quartiles::of(&mut b).median)
}

struct TracingCost {
    n: u32,
    untraced_cycles_per_sec: f64,
    traced_cycles_per_sec: f64,
    events: u64,
    overhead_ratio: f64,
}

/// Cost of the flight recorder: the same workload through the zero-cost
/// no-sink session and through a recording `MemorySink`, interleaved.
/// The untraced figure is the one that must stay within noise of the
/// committed `BENCH_routing.json` engine numbers.
fn measure_tracing(n: u32, inject: u64, reps: usize) -> TracingCost {
    let algo = CachedFfgcr::new();
    let cfg = || {
        SimConfig::new(n, 4)
            .with_cycles(inject, inject * 10, 0)
            .with_rate(0.005)
    };
    let mut cycles = 0u64;
    let mut events = 0u64;
    let (untraced, traced) = interleaved_secs(
        reps,
        || {
            cycles = Simulator::new(cfg(), &algo).session().run().metrics.cycles;
        },
        || {
            let mut sink = MemorySink::new();
            Simulator::new(cfg(), &algo)
                .session()
                .trace(&mut sink)
                .run();
            events = sink.events().len() as u64;
        },
    );

    TracingCost {
        n,
        untraced_cycles_per_sec: cycles as f64 / untraced,
        traced_cycles_per_sec: cycles as f64 / traced,
        events,
        overhead_ratio: traced / untraced,
    }
}

struct TelemetryCost {
    n: u32,
    off_cycles_per_sec: f64,
    on_cycles_per_sec: f64,
    samples: u64,
    overhead_ratio: f64,
}

/// Cost of the telemetry collector: the same workload through the bare
/// session and with a live collector attached sampling every 50 cycles,
/// interleaved. The off figure shares the engine numbers' noise budget;
/// the on figure is what `--telemetry` costs.
fn measure_telemetry(n: u32, inject: u64, reps: usize) -> TelemetryCost {
    let algo = CachedFfgcr::new();
    let cfg = || {
        SimConfig::new(n, 4)
            .with_cycles(inject, inject * 10, 0)
            .with_rate(0.005)
            .with_telemetry_interval(50)
    };
    let mut cycles = 0u64;
    let mut samples = 0u64;
    let (off, on) = interleaved_secs(
        reps,
        || {
            cycles = Simulator::new(cfg(), &algo).session().run().metrics.cycles;
        },
        || {
            let sim = Simulator::new(cfg(), &algo);
            let mut telem = TelemetryCollector::new(sim.cube(), 50);
            sim.session().telemetry(&mut telem).run();
            samples = telem.samples().count() as u64;
        },
    );

    TelemetryCost {
        n,
        off_cycles_per_sec: cycles as f64 / off,
        on_cycles_per_sec: cycles as f64 / on,
        samples,
        overhead_ratio: on / off,
    }
}

struct ProfilerCost {
    n: u32,
    off_cycles_per_sec: f64,
    on_cycles_per_sec: f64,
    samples: u64,
    overhead_ratio: f64,
}

/// Cost of the profiler: the same workload through the bare session
/// (the `NullProfiler` monomorphisation — the off path that must stay
/// free) and with a `ProfileCollector` attached sampling every 50
/// cycles, interleaved. The profiler turns the phase timers on, so the
/// on figure bounds what `--profile` costs.
fn measure_profiler(n: u32, inject: u64, reps: usize) -> ProfilerCost {
    let algo = CachedFfgcr::new();
    let cfg = || {
        SimConfig::new(n, 4)
            .with_cycles(inject, inject * 10, 0)
            .with_rate(0.005)
            .with_telemetry_interval(50)
    };
    let mut cycles = 0u64;
    let mut samples = 0u64;
    let (off, on) = interleaved_secs(
        reps,
        || {
            cycles = Simulator::new(cfg(), &algo).session().run().metrics.cycles;
        },
        || {
            let sim = Simulator::new(cfg(), &algo);
            let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), 50);
            sim.session().profile(&mut prof).run();
            samples = prof.samples().count() as u64;
        },
    );

    ProfilerCost {
        n,
        off_cycles_per_sec: cycles as f64 / off,
        on_cycles_per_sec: cycles as f64 / on,
        samples,
        overhead_ratio: on / off,
    }
}

const PARALLEL_THREADS: [usize; 3] = [1, 2, 4];

struct ParallelSpeedup {
    cycles: u64,
    /// Raw wall seconds per thread count — the primary record; ratios
    /// are derived, so a suspicious speedup can be audited from the raw
    /// clock readings.
    wall_secs: [f64; 3],
    /// `cycles/sec` at 1, 2 and 4 threads (same config, same seed — the
    /// shard engine's results are bitwise identical, only the clock moves).
    cycles_per_sec: [f64; 3],
    /// Cores the host actually grants; wall-clock speedup is bounded by it.
    host_cores: usize,
}

impl ParallelSpeedup {
    fn speedup(&self, i: usize) -> f64 {
        self.cycles_per_sec[i] / self.cycles_per_sec[0]
    }

    fn speedup_4x(&self) -> f64 {
        self.speedup(2)
    }
}

/// Shard-engine scaling on `GC(10, 4)`: a planning-heavy workload —
/// uncached FTGCR under static faults at high load — run at 1, 2 and 4
/// threads, best-of-`reps` per thread count with a warmup pass first.
/// Planning is stolen across all threads at ending-class granularity,
/// so the dominant cost parallelises up to the 4 ending classes.
fn measure_parallel(inject: u64, reps: usize) -> ParallelSpeedup {
    let algo = FaultTolerantGcr;
    let cfg = SimConfig::new(10, 4)
        .with_cycles(inject, inject * 10, 0)
        .with_rate(0.3)
        .with_faults(2)
        .with_seed(0xbe9c);
    let mut cycles = 0;
    let mut wall_secs = [0.0f64; 3];
    // Warmup: page in the code and the allocator before any clock runs.
    Simulator::new(cfg.clone(), &algo).session().run();
    for (i, threads) in PARALLEL_THREADS.into_iter().enumerate() {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let sim = Simulator::new(cfg.clone(), &algo);
            let t0 = Instant::now();
            let m = sim.session().threads(threads).run().metrics;
            best = best.min(t0.elapsed().as_secs_f64());
            cycles = m.cycles;
        }
        wall_secs[i] = best;
    }
    let mut cycles_per_sec = [0.0f64; 3];
    for i in 0..3 {
        cycles_per_sec[i] = cycles as f64 / wall_secs[i];
    }
    ParallelSpeedup {
        cycles,
        wall_secs,
        cycles_per_sec,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

struct MillionNode {
    n: u32,
    nodes: u64,
    cycles: u64,
    injected: u64,
    delivered: u64,
    /// `Simulator::new` plus `stepper()`: the cycle-0 state.
    setup_secs: f64,
    /// Stepping to completion plus `finish`.
    wall_secs: f64,
    /// Cycles over `wall_secs`, so set-up does not fold into the rate.
    cycles_per_sec: f64,
    /// One rate-0 cycle's step time per node, over `scan_samples` cycles.
    scan: Quartiles,
    scan_samples: usize,
}

/// A completed million-node run: `GC(20, 4)` end to end through the
/// engine. The `GaussianCube` handle is two integers, the SoA queues are
/// bitsets plus flat arrays, and the occupancy scan touches only words
/// with live packets — so a 2^20-node network is a routine workload, not
/// a stress test. Trickle injection keeps the packet population small
/// while every hop still crosses the full 20-dimension address space.
///
/// Set-up and stepping are timed apart. The injection scan is measured
/// on its own by a rate-0 run of the same cube: with no packets, a cycle
/// is one Bernoulli draw per node and nothing else.
fn measure_million_node(inject: u64, scan_samples: usize) -> MillionNode {
    let algo = CachedFfgcr::new();
    let cfg = SimConfig::new(20, 4)
        .with_cycles(inject, inject * 10, 0)
        .with_rate(0.0002);
    let t0 = Instant::now();
    let sim = Simulator::new(cfg, &algo);
    let mut stepper = sim.session().stepper();
    let setup_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    while !stepper.step() {}
    let m = stepper.finish().metrics;
    let wall_secs = t1.elapsed().as_secs_f64();

    let idle = SimConfig::new(20, 4)
        .with_cycles(scan_samples as u64 + 1, 0, 0)
        .with_rate(0.0);
    let sim = Simulator::new(idle, &algo);
    let mut stepper = sim.session().stepper();
    stepper.step(); // Warm-up: page in the bitsets.
    let mut per_node: Vec<f64> = (0..scan_samples)
        .map(|_| {
            let t = Instant::now();
            stepper.step();
            t.elapsed().as_nanos() as f64 / m.nodes as f64
        })
        .collect();
    MillionNode {
        n: 20,
        nodes: m.nodes,
        cycles: m.cycles,
        injected: m.injected_total,
        delivered: m.delivered_total,
        setup_secs,
        wall_secs,
        cycles_per_sec: m.cycles as f64 / wall_secs,
        scan: Quartiles::of(&mut per_node),
        scan_samples,
    }
}

struct Survival {
    clustered_faults: usize,
    ftgcr_clustered: f64,
    multitree_clustered: f64,
    tree_switches: u64,
    tree_exhausted: u64,
    rates: [f64; 3],
    ftgcr_drop: [f64; 3],
    multitree_drop: [f64; 3],
}

/// The ISSUE's survival record: delivery past the Theorem-3 budget on the
/// canonical clustered scenario, plus drop ratio vs fault-arrival rate
/// for both strategies (identical configs and seeds, so the curves
/// differ only by the router).
fn measure_survival() -> Survival {
    let h = survival_head_to_head();
    let drop_of = |p: &gcube_sim::ChurnPoint| 1.0 - survival_ratio(&p.report.metrics);
    let ftgcr_runs = survival_churn_sweep(&CachedFtgcr::new());
    let multitree_runs = survival_churn_sweep(&MultiTreeStrategy::new(2));
    let mut ftgcr_drop = [0.0f64; 3];
    let mut multitree_drop = [0.0f64; 3];
    for i in 0..3 {
        ftgcr_drop[i] = drop_of(&ftgcr_runs[i]);
        multitree_drop[i] = drop_of(&multitree_runs[i]);
    }
    Survival {
        clustered_faults: h.faults,
        ftgcr_clustered: survival_ratio(&h.ftgcr.report.metrics),
        multitree_clustered: survival_ratio(&h.multitree.report.metrics),
        tree_switches: h.multitree.report.metrics.tree_switches,
        tree_exhausted: h.multitree.report.metrics.tree_exhausted,
        rates: survival_rates(),
        ftgcr_drop,
        multitree_drop,
    }
}

struct CollectiveCoverage {
    ops: u64,
    injected: u64,
    delivered: u64,
    coverage: f64,
    /// Aggregate coverage of operations launched *after* the clustered
    /// burst — the number the re-graft has to defend. (Waves already in
    /// flight when the burst lands are beyond any tree repair; they dent
    /// the overall figure only.)
    post_fault_coverage: f64,
    /// Worst single post-fault operation.
    post_fault_min_coverage: f64,
    regrafts: u64,
    rebuilds: u64,
    lost_nodes: u64,
    rates: [f64; 3],
    churn_coverage: [f64; 3],
}

/// The collective acceptance scenario: broadcast over the repaired tree
/// on the canonical clustered fault set, plus coverage vs fault-arrival
/// rate under transient churn.
fn measure_collective() -> CollectiveCoverage {
    let run = gcube_sim::run_churn_sweep(&[collective_scenario_config()], &CachedFtgcr::new(), 1)
        .remove(0);
    let m = run.report.metrics;
    let post_fault: Vec<_> = run
        .report
        .collectives
        .iter()
        .filter(|s| s.started >= COLLECTIVE_FAULT_CYCLE)
        .collect();
    let (exp, dlv) = post_fault
        .iter()
        .fold((0u64, 0u64), |(e, d), s| (e + s.expected, d + s.delivered));
    let post_fault_coverage = if exp == 0 {
        1.0
    } else {
        dlv as f64 / exp as f64
    };
    let post_fault_min_coverage = post_fault
        .iter()
        .map(|s| s.coverage())
        .fold(1.0f64, f64::min);
    let churn = collective_churn_sweep(&CachedFtgcr::new());
    let mut churn_coverage = [0.0f64; 3];
    for i in 0..3 {
        churn_coverage[i] = churn[i].report.metrics.collective_coverage();
    }
    CollectiveCoverage {
        ops: m.collective_ops,
        injected: m.collective_injected,
        delivered: m.collective_delivered,
        coverage: m.collective_coverage(),
        post_fault_coverage,
        post_fault_min_coverage,
        regrafts: m.tree_regrafts,
        rebuilds: m.tree_rebuilds,
        lost_nodes: m.tree_lost_nodes,
        rates: survival_rates(),
        churn_coverage,
    }
}

fn json_route(out: &mut String, key: &str, r: &RoutePlanning) {
    let _ = write!(
        out,
        "  \"{key}\": {{\n    \"pairs\": {},\n    \"uncached_routes_per_sec\": {:.0},\n    \"cached_routes_per_sec\": {:.0},\n    \"speedup\": {:.2},\n    \"cache_hit_rate\": {:.4}\n  }}",
        r.pairs, r.uncached_per_sec, r.cached_per_sec, r.speedup, r.cache_hit_rate
    );
}

fn main() {
    let pairs: u64 = if quick() { 20_000 } else { 100_000 };
    let n = 12u32;

    println!("route planning on GC({n}, 4), {pairs} pairs per mode\n");
    let ff = measure_route_planning(n, pairs, false);
    println!(
        "  FFGCR  uncached {:>10.0}/s  cached {:>10.0}/s  speedup {:.2}x  hit rate {:.2}%",
        ff.uncached_per_sec,
        ff.cached_per_sec,
        ff.speedup,
        100.0 * ff.cache_hit_rate
    );
    let ft = measure_route_planning(n, pairs, true);
    println!(
        "  FTGCR  uncached {:>10.0}/s  cached {:>10.0}/s  speedup {:.2}x  hit rate {:.2}%",
        ft.uncached_per_sec,
        ft.cached_per_sec,
        ft.speedup,
        100.0 * ft.cache_hit_rate
    );

    let inject = if quick() { 30 } else { 100 };
    println!("\nfull engine, cached FFGCR, {inject} inject cycles");
    let engine: Vec<EnginePoint> = [10u32, 12, 14]
        .iter()
        .map(|&n| {
            let p = measure_engine(n, inject);
            println!(
                "  n={:<2}  {:>6} cycles  {:>10.0} cycles/s",
                p.n, p.cycles, p.cycles_per_sec
            );
            p
        })
        .collect();

    let reps = if quick() { 2 } else { 3 };
    let tracing = measure_tracing(12, inject, reps);
    println!(
        "\ntracing cost, n=12: off {:>10.0} cycles/s  on {:>10.0} cycles/s  \
         ({} events, {:.2}x, median of {reps} interleaved)",
        tracing.untraced_cycles_per_sec,
        tracing.traced_cycles_per_sec,
        tracing.events,
        tracing.overhead_ratio
    );

    let telemetry = measure_telemetry(12, inject, reps);
    println!(
        "telemetry cost, n=12: off {:>10.0} cycles/s  on {:>10.0} cycles/s  \
         ({} samples, {:.2}x, median of {reps} interleaved)",
        telemetry.off_cycles_per_sec,
        telemetry.on_cycles_per_sec,
        telemetry.samples,
        telemetry.overhead_ratio
    );

    let profiler = measure_profiler(12, inject, reps);
    println!(
        "profiler cost, n=12: off {:>10.0} cycles/s  on {:>10.0} cycles/s  \
         ({} windows, {:.2}x, median of {reps} interleaved)",
        profiler.off_cycles_per_sec,
        profiler.on_cycles_per_sec,
        profiler.samples,
        profiler.overhead_ratio
    );

    let parallel = measure_parallel(if quick() { 40 } else { 120 }, reps);
    println!(
        "\nshard engine, GC(10, 4), uncached FTGCR under faults ({} cycles):",
        parallel.cycles
    );
    for (i, threads) in PARALLEL_THREADS.into_iter().enumerate() {
        println!(
            "  threads={threads}  {:>8.4}s wall  {:>10.0} cycles/s{}",
            parallel.wall_secs[i],
            parallel.cycles_per_sec[i],
            if i == 0 {
                String::new()
            } else {
                format!("  ({:.2}x)", parallel.speedup(i))
            }
        );
    }
    // A parallel run slower than sequential is a defect on every host —
    // even one core should only cost barrier overhead, not a slowdown.
    // Warn loudly always; the hard assert below fires where 4 threads
    // can genuinely run in parallel.
    for (i, threads) in PARALLEL_THREADS.into_iter().enumerate().skip(1) {
        if parallel.speedup(i) < 1.0 {
            eprintln!(
                "WARNING: shard engine SLOWDOWN at {threads} threads: {:.2}x \
                 ({:.4}s vs {:.4}s sequential) on a {}-core host",
                parallel.speedup(i),
                parallel.wall_secs[i],
                parallel.wall_secs[0],
                parallel.host_cores
            );
        }
    }

    let million =
        measure_million_node(if quick() { 10 } else { 25 }, if quick() { 20 } else { 60 });
    println!(
        "\nmillion-node run, GC(20, 4) ({} nodes), cached FFGCR trickle:",
        million.nodes
    );
    println!(
        "  set-up {:.3}s, then {} cycles in {:.2}s  ({:.0} cycles/s, {} injected, {} delivered)",
        million.setup_secs,
        million.cycles,
        million.wall_secs,
        million.cycles_per_sec,
        million.injected,
        million.delivered
    );
    println!(
        "  injection scan {:.3} ns/node (IQR {:.3}, {} rate-0 cycles)",
        million.scan.median,
        million.scan.iqr(),
        million.scan_samples
    );

    let survival = measure_survival();
    println!(
        "\nsurvival past the Theorem-3 budget, GC(8, 2), {} clustered faults:",
        survival.clustered_faults
    );
    println!(
        "  clustered  ftgcr {:.4}  multitree {:.4}  ({} switches, {} fallbacks)",
        survival.ftgcr_clustered,
        survival.multitree_clustered,
        survival.tree_switches,
        survival.tree_exhausted
    );
    for (i, p) in survival.rates.iter().enumerate() {
        println!(
            "  churn p={:.2}  drop ratio  ftgcr {:.4}  multitree {:.4}",
            p, survival.ftgcr_drop[i], survival.multitree_drop[i]
        );
    }

    let coll = measure_collective();
    println!(
        "\ncollective broadcast, GC(8, 2), {SURVIVAL_CLUSTER_FAULTS} clustered A-links at cycle {COLLECTIVE_FAULT_CYCLE}:"
    );
    println!(
        "  {} ops  {}/{} wave packets delivered  coverage {:.4} \
         (post-fault {:.4}, min {:.4})",
        coll.ops,
        coll.delivered,
        coll.injected,
        coll.coverage,
        coll.post_fault_coverage,
        coll.post_fault_min_coverage
    );
    println!(
        "  repairs: {} re-grafts, {} rebuilds, {} nodes lost",
        coll.regrafts, coll.rebuilds, coll.lost_nodes
    );
    for (i, p) in coll.rates.iter().enumerate() {
        println!(
            "  churn p={:.2}  broadcast coverage {:.4}",
            p, coll.churn_coverage[i]
        );
    }

    // Hand-rolled JSON: the workspace has no serde, and the schema is flat.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"bench_trajectory\",");
    let _ = writeln!(out, "  \"cube\": \"GC({n}, 4)\",");
    let _ = writeln!(out, "  \"quick\": {},", quick());
    let _ = writeln!(out, "  \"host_cores\": {},", parallel.host_cores);
    json_route(&mut out, "ffgcr", &ff);
    out.push_str(",\n");
    json_route(&mut out, "ftgcr_two_faults", &ft);
    out.push_str(",\n  \"engine_cached_ffgcr\": [\n");
    for (i, p) in engine.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"n\": {}, \"cycles\": {}, \"cycles_per_sec\": {:.0}}}{}",
            p.n,
            p.cycles,
            p.cycles_per_sec,
            if i + 1 < engine.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = write!(
        out,
        "  \"tracing\": {{\n    \"n\": {},\n    \"untraced_cycles_per_sec\": {:.0},\n    \"traced_cycles_per_sec\": {:.0},\n    \"events\": {},\n    \"overhead_ratio\": {:.3}\n  }},\n",
        tracing.n,
        tracing.untraced_cycles_per_sec,
        tracing.traced_cycles_per_sec,
        tracing.events,
        tracing.overhead_ratio
    );
    let _ = write!(
        out,
        "  \"telemetry\": {{\n    \"n\": {},\n    \"off_cycles_per_sec\": {:.0},\n    \"on_cycles_per_sec\": {:.0},\n    \"samples\": {},\n    \"overhead_ratio\": {:.3}\n  }},\n",
        telemetry.n,
        telemetry.off_cycles_per_sec,
        telemetry.on_cycles_per_sec,
        telemetry.samples,
        telemetry.overhead_ratio
    );
    let _ = write!(
        out,
        "  \"profile_overhead\": {{\n    \"n\": {},\n    \"off_cycles_per_sec\": {:.0},\n    \"on_cycles_per_sec\": {:.0},\n    \"samples\": {},\n    \"overhead_ratio\": {:.3}\n  }},\n",
        profiler.n,
        profiler.off_cycles_per_sec,
        profiler.on_cycles_per_sec,
        profiler.samples,
        profiler.overhead_ratio
    );
    let _ = write!(
        out,
        "  \"parallel_speedup\": {{\n    \"cube\": \"GC(10, 4)\",\n    \"workload\": \"uncached FTGCR, 2 static faults, rate 0.3\",\n    \"cycles\": {},\n    \"host_cores\": {},\n    \"wall_secs_1_thread\": {:.4},\n    \"wall_secs_2_threads\": {:.4},\n    \"wall_secs_4_threads\": {:.4},\n    \"cycles_per_sec_1_thread\": {:.0},\n    \"cycles_per_sec_2_threads\": {:.0},\n    \"cycles_per_sec_4_threads\": {:.0},\n    \"speedup_2x\": {:.2},\n    \"speedup_4x\": {:.2}\n  }},\n",
        parallel.cycles,
        parallel.host_cores,
        parallel.wall_secs[0],
        parallel.wall_secs[1],
        parallel.wall_secs[2],
        parallel.cycles_per_sec[0],
        parallel.cycles_per_sec[1],
        parallel.cycles_per_sec[2],
        parallel.speedup(1),
        parallel.speedup_4x()
    );
    let _ = write!(
        out,
        "  \"million_node\": {{\n    \"cube\": \"GC({}, 4)\",\n    \"nodes\": {},\n    \"cycles\": {},\n    \"injected\": {},\n    \"delivered\": {},\n    \"setup_secs\": {:.4},\n    \"wall_secs\": {:.3},\n    \"cycles_per_sec\": {:.0},\n    \"scan_ns_per_node\": {{\"samples\": {}, \"median\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}, \"iqr\": {:.3}}}\n  }},\n",
        million.n,
        million.nodes,
        million.cycles,
        million.injected,
        million.delivered,
        million.setup_secs,
        million.wall_secs,
        million.cycles_per_sec,
        million.scan_samples,
        million.scan.median,
        million.scan.q1,
        million.scan.q3,
        million.scan.iqr()
    );
    let _ = write!(
        out,
        "  \"multitree_survival\": {{\n    \"cube\": \"GC(8, 2)\",\n    \"clustered_faults\": {},\n    \"ftgcr_survival_ratio\": {:.4},\n    \"multitree_survival_ratio\": {:.4},\n    \"tree_switches\": {},\n    \"tree_exhausted\": {},\n    \"churn\": [\n",
        survival.clustered_faults,
        survival.ftgcr_clustered,
        survival.multitree_clustered,
        survival.tree_switches,
        survival.tree_exhausted
    );
    for (i, p) in survival.rates.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"fault_rate\": {:.2}, \"ftgcr_drop_ratio\": {:.4}, \"multitree_drop_ratio\": {:.4}}}{}",
            p,
            survival.ftgcr_drop[i],
            survival.multitree_drop[i],
            if i + 1 < survival.rates.len() { "," } else { "" }
        );
    }
    out.push_str("    ]\n  },\n");
    let _ = write!(
        out,
        "  \"collective_coverage\": {{\n    \"cube\": \"GC(8, 2)\",\n    \"op\": \"broadcast\",\n    \"clustered_faults\": {},\n    \"fault_cycle\": {},\n    \"ops\": {},\n    \"injected\": {},\n    \"delivered\": {},\n    \"coverage\": {:.4},\n    \"post_fault_coverage\": {:.4},\n    \"post_fault_min_coverage\": {:.4},\n    \"tree_regrafts\": {},\n    \"tree_rebuilds\": {},\n    \"tree_lost_nodes\": {},\n    \"churn\": [\n",
        SURVIVAL_CLUSTER_FAULTS,
        COLLECTIVE_FAULT_CYCLE,
        coll.ops,
        coll.injected,
        coll.delivered,
        coll.coverage,
        coll.post_fault_coverage,
        coll.post_fault_min_coverage,
        coll.regrafts,
        coll.rebuilds,
        coll.lost_nodes
    );
    for (i, p) in coll.rates.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"fault_rate\": {:.2}, \"coverage\": {:.4}}}{}",
            p,
            coll.churn_coverage[i],
            if i + 1 < coll.rates.len() { "," } else { "" }
        );
    }
    out.push_str("    ]\n  }\n}\n");

    let dir = results_dir();
    let path = dir
        .parent()
        .map(|ws| ws.join("BENCH_routing.json"))
        .unwrap_or_else(|| dir.join("BENCH_routing.json"));
    std::fs::write(&path, &out).expect("write BENCH_routing.json");
    println!("\nwrote {}", path.display());

    assert!(
        survival.multitree_clustered > survival.ftgcr_clustered,
        "ISSUE acceptance: multitree must deliver strictly more than FTGCR on the \
         canonical over-budget clustered scenario, got {:.4} vs {:.4}",
        survival.multitree_clustered,
        survival.ftgcr_clustered
    );
    assert!(
        ff.speedup >= 2.0,
        "ISSUE acceptance: cached FFGCR planning must be >= 2x at n = 12, got {:.2}x",
        ff.speedup
    );
    assert!(
        coll.post_fault_coverage >= 0.99 && coll.post_fault_min_coverage >= 0.99,
        "ISSUE acceptance: re-rooting repair must restore >= 99% broadcast coverage \
         on the clustered scenario, got {:.4} post-fault ({:.4} worst op)",
        coll.post_fault_coverage,
        coll.post_fault_min_coverage
    );
    assert!(
        coll.regrafts > 0 && coll.rebuilds == 0,
        "ISSUE acceptance: the clustered link burst must be repaired by re-grafting, \
         not full rebuilds, got {} re-grafts / {} rebuilds",
        coll.regrafts,
        coll.rebuilds
    );
    assert!(
        million.delivered > 0 && million.nodes == 1 << 20,
        "ISSUE acceptance: the GC(20, 4) run must complete with deliveries, got {} \
         deliveries over {} nodes",
        million.delivered,
        million.nodes
    );
    // Wall-clock *scaling* is bounded by the cores the host grants; the
    // ratio targets are only enforceable where 4 threads can actually run
    // in parallel (the recorded host_cores field says which case this
    // was). A slowdown, however, is never acceptable: on >= 4 cores the
    // run aborts, elsewhere the loud warning above already fired.
    if parallel.host_cores >= 4 {
        assert!(
            parallel.speedup_4x() >= 1.0,
            "shard engine REGRESSION: 4 threads slower than 1 ({:.2}x) on a \
             {}-core host",
            parallel.speedup_4x(),
            parallel.host_cores
        );
        if parallel.speedup_4x() >= 3.0 {
            println!(
                "parallel target met: {:.2}x at 4 threads (target 3.0x)",
                parallel.speedup_4x()
            );
        } else {
            eprintln!(
                "WARNING: shard engine below the 3.0x @ 4 threads target: {:.2}x \
                 on a {}-core host",
                parallel.speedup_4x(),
                parallel.host_cores
            );
        }
    } else {
        println!(
            "note: host grants {} core(s); the 3.0x @ 4 threads target is \
             enforced on hosts with >= 4 cores",
            parallel.host_cores
        );
    }
}
