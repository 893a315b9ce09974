//! The three timings `benchmark/` does not take, written to
//! `BENCH_routing.json` (workspace root, `GCUBE_RESULTS_DIR`-aware):
//!
//! * `plan_cache` — uncached over plan-cached planning time on
//!   `GC(12, 4)`, for FFGCR and for FTGCR under two faults, with the
//!   cache hit rate. Cached FFGCR must be at least 2x, or the binary
//!   aborts.
//! * `parallel_speedup` — the shard engine at 1, 2 and 4 threads on a
//!   planning-heavy `GC(10, 4)` run. On a host with 4 or more cores, 4
//!   threads slower than 1 aborts the binary.
//! * `scan_ns_per_node` — one rate-0 cycle of `GC(20, 4)` per node: the
//!   injection scan on its own.
//!
//! Each record is at least five samples with their median and quartiles.
//! Within a round every compared side runs once, and the side that goes
//! first rotates, so host drift falls on all of them. The file carries the
//! host fields `benchmark/` records (`host_cores`, `cpu`, `rustc`).
//! End-to-end throughput, latency, absolute plan cost and observer
//! overhead are `benchmark/`'s to measure (see its README).

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use gcube_bench::results_dir;
use gcube_routing::{ffgcr, ftgcr, FaultSet, PlanCache};
use gcube_sim::proto::quote;
use gcube_sim::{CachedFfgcr, FaultTolerantGcr, SimConfig, Simulator};
use gcube_topology::{GaussianCube, LinkId, NodeId};

/// Timed rounds per record, after one unmeasured warm-up round.
const ROUNDS: usize = 5;

/// Planning cube and pairs per timed sample.
const PLAN_N: u32 = 12;
const PAIRS: u64 = 30_000;

const PARALLEL_THREADS: [usize; 3] = [1, 2, 4];

/// Rate-0 cycles timed for the scan record.
const SCAN_CYCLES: usize = 60;

/// Median and quartiles (nearest rank) of a sample set.
struct Quartiles {
    samples: usize,
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(mut xs: Vec<f64>) -> Quartiles {
        xs.sort_by(f64::total_cmp);
        let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
        Quartiles {
            samples: xs.len(),
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The JSON fields, without braces.
    fn fields(&self, digits: usize) -> String {
        format!(
            "\"samples\": {}, \"median\": {:.digits$}, \"q1\": {:.digits$}, \"q3\": {:.digits$}",
            self.samples, self.median, self.q1, self.q3
        )
    }

    fn json(&self, digits: usize) -> String {
        format!("{{{}}}", self.fields(digits))
    }

    fn show(&self, unit: &str) -> String {
        format!(
            "{:.3}{unit} (q1 {:.3}, q3 {:.3}, {} samples)",
            self.median, self.q1, self.q3, self.samples
        )
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Deterministic pair stream covering many ending-class combinations.
fn pair(n: u32, i: u64) -> (NodeId, NodeId) {
    let mask = (1u64 << n) - 1;
    let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (NodeId(x & mask), NodeId((x >> 21) & mask))
}

struct PlanRatio {
    cache_hit_rate: f64,
    /// Uncached over cached time, one sample per round.
    speedup: Quartiles,
}

/// Plan [`PAIRS`] pairs uncached and through a fresh [`PlanCache`] once
/// per round, alternating which goes first. A fresh cache per sample
/// keeps every sample the same work, misses included.
fn measure_plan_cache(faulty: bool) -> PlanRatio {
    let gc = GaussianCube::new(PLAN_N, 4).unwrap();
    let mut faults = FaultSet::new();
    if faulty {
        faults.add_node(NodeId(77));
        faults.add_link(LinkId::new(NodeId(1 << (PLAN_N - 1)), 0));
    }
    let uncached = || {
        for i in 1..=PAIRS {
            let (s, d) = pair(PLAN_N, i);
            if faulty {
                let _ = black_box(ftgcr::route(&gc, &faults, s, d));
            } else {
                black_box(ffgcr::route(&gc, s, d).unwrap());
            }
        }
    };
    let cached = |cache: &PlanCache| {
        for i in 1..=PAIRS {
            let (s, d) = pair(PLAN_N, i);
            if faulty {
                let _ = black_box(ftgcr::route_cached(&gc, &faults, s, d, cache));
            } else {
                black_box(ffgcr::route_cached(&gc, s, d, cache).unwrap());
            }
        }
    };
    let mut cache_hit_rate = 0.0;
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..=ROUNDS {
        let cache = PlanCache::new(&gc);
        let (u, c) = if round % 2 == 0 {
            let u = secs(uncached);
            (u, secs(|| cached(&cache)))
        } else {
            let c = secs(|| cached(&cache));
            (secs(uncached), c)
        };
        cache_hit_rate = cache.stats().hit_rate();
        if round > 0 {
            ratios.push(u / c);
        }
    }
    PlanRatio {
        cache_hit_rate,
        speedup: Quartiles::of(ratios),
    }
}

struct ParallelSpeedup {
    cycles: u64,
    /// Wall seconds of the 1-thread run, one sample per round.
    wall_1_thread: Quartiles,
    /// 1-thread over 2- and 4-thread wall time, paired within a round.
    speedup: [Quartiles; 2],
    host_cores: usize,
}

/// Shard-engine scaling on `GC(10, 4)`: uncached FTGCR under static
/// faults at high load, so planning (each shard plans the injections of
/// its own ending classes) dominates. Each round runs 1, 2 and 4
/// threads, starting one thread count later than the round before.
fn measure_parallel() -> ParallelSpeedup {
    let algo = FaultTolerantGcr;
    let cfg = SimConfig::new(10, 4)
        .with_cycles(120, 1_200, 0)
        .with_rate(0.3)
        .with_faults(2)
        .with_seed(0xbe9c);
    let mut cycles = 0;
    let mut run = |threads: usize| {
        let sim = Simulator::new(cfg.clone(), &algo);
        let t = Instant::now();
        cycles = sim.session().threads(threads).run().metrics.cycles;
        t.elapsed().as_secs_f64()
    };
    run(1);
    let mut walls: [Vec<f64>; 3] = Default::default();
    for round in 0..ROUNDS {
        for k in 0..3 {
            let i = (round + k) % 3;
            walls[i].push(run(PARALLEL_THREADS[i]));
        }
    }
    let speedup =
        |i: usize| Quartiles::of((0..ROUNDS).map(|r| walls[0][r] / walls[i][r]).collect());
    ParallelSpeedup {
        cycles,
        speedup: [speedup(1), speedup(2)],
        wall_1_thread: Quartiles::of(walls[0].clone()),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// One rate-0 cycle of `GC(20, 4)` per node: with no packets, a cycle is
/// one Bernoulli draw per node and nothing else.
fn measure_scan() -> Quartiles {
    let algo = CachedFfgcr::new();
    let idle = SimConfig::new(20, 4)
        .with_cycles(SCAN_CYCLES as u64 + 1, 0, 0)
        .with_rate(0.0);
    let sim = Simulator::new(idle, &algo);
    let nodes = (1u64 << sim.cube().n()) as f64;
    let mut stepper = sim.session().stepper();
    stepper.step(); // Warm-up: page in the bitsets.
    Quartiles::of(
        (0..SCAN_CYCLES)
            .map(|_| {
                secs(|| {
                    stepper.step();
                }) * 1e9
                    / nodes
            })
            .collect(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() {
    let started = Instant::now();
    println!("route planning on GC({PLAN_N}, 4), {PAIRS} pairs per sample, uncached / cached:");
    let ff = measure_plan_cache(false);
    let ft = measure_plan_cache(true);
    for (name, r) in [("FFGCR", &ff), ("FTGCR", &ft)] {
        println!(
            "  {name}  {}  hit rate {:.2}%",
            r.speedup.show("x"),
            100.0 * r.cache_hit_rate
        );
    }

    let par = measure_parallel();
    println!(
        "\nshard engine, GC(10, 4), uncached FTGCR under faults ({} cycles, {}-core host):",
        par.cycles, par.host_cores
    );
    println!("  1 thread   {}", par.wall_1_thread.show(" s"));
    for (t, q) in PARALLEL_THREADS[1..].iter().zip(&par.speedup) {
        println!("  {t} threads  {}", q.show("x"));
        // A parallel run slower than sequential is a defect on every
        // host; the hard check below fires only where 4 threads can run.
        if q.median < 1.0 {
            eprintln!("WARNING: shard engine slowdown at {t} threads");
        }
    }

    let scan = measure_scan();
    println!(
        "\ninjection scan, GC(20, 4) at rate 0: {}",
        scan.show(" ns/node")
    );

    let plan_json = |r: &PlanRatio| {
        format!(
            "{{\"cache_hit_rate\": {:.4}, \"speedup\": {}}}",
            r.cache_hit_rate,
            r.speedup.json(2)
        )
    };
    // Hand-rolled JSON: the workspace has no serde, and the schema is flat.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"bench_trajectory\",");
    let _ = writeln!(out, "  \"host_cores\": {},", par.host_cores);
    let _ = writeln!(out, "  \"cpu\": {},", quote(&cpu_model()));
    let _ = writeln!(out, "  \"rustc\": {},", quote(&rustc_version()));
    let _ = writeln!(
        out,
        "  \"plan_cache\": {{\n    \"cube\": \"GC({PLAN_N}, 4)\",\n    \"pairs\": {PAIRS},\n    \
         \"ffgcr\": {},\n    \"ftgcr_two_faults\": {}\n  }},",
        plan_json(&ff),
        plan_json(&ft)
    );
    let _ = writeln!(
        out,
        "  \"parallel_speedup\": {{\n    \"cube\": \"GC(10, 4)\",\n    \
         \"workload\": \"uncached FTGCR, 2 static faults, rate 0.3\",\n    \"cycles\": {},\n    \
         \"wall_s_1_thread\": {},\n    \"speedup_2_threads\": {},\n    \
         \"speedup_4_threads\": {}\n  }},",
        par.cycles,
        par.wall_1_thread.json(4),
        par.speedup[0].json(2),
        par.speedup[1].json(2)
    );
    let _ = writeln!(
        out,
        "  \"scan_ns_per_node\": {{\"cube\": \"GC(20, 4)\", {}}}\n}}",
        scan.fields(3)
    );

    let dir = results_dir();
    let path = dir
        .parent()
        .map(|ws| ws.join("BENCH_routing.json"))
        .unwrap_or_else(|| dir.join("BENCH_routing.json"));
    std::fs::write(&path, &out).expect("write BENCH_routing.json");
    println!(
        "\nwrote {} in {:.1} s",
        path.display(),
        started.elapsed().as_secs_f64()
    );

    assert!(
        ff.speedup.median >= 2.0,
        "cached FFGCR planning must be at least 2x uncached at n = {PLAN_N}, got {:.2}x",
        ff.speedup.median
    );
    // Wall-clock scaling is bounded by the cores the host grants, so the
    // slowdown check is enforced only where 4 threads can run at once.
    let four = par.speedup[1].median;
    if par.host_cores >= 4 {
        assert!(
            four >= 1.0,
            "shard engine regression: 4 threads slower than 1 ({four:.2}x) on a {}-core host",
            par.host_cores
        );
        if four < 3.0 {
            eprintln!("WARNING: shard engine below the 3.0x @ 4 threads target: {four:.2}x");
        }
    } else {
        println!(
            "note: host grants {} core(s); the 4-thread checks run on hosts with >= 4 cores",
            par.host_cores
        );
    }
}
