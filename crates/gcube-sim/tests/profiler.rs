//! The profiler's two contracts: the deterministic counter stream is
//! bitwise identical between the sequential and sharded engines for any
//! configuration, and an attached profiler never steers the run.
//! (`ProfileCollector`'s unit tests cover the aggregation mechanics;
//! these are the whole-engine properties.)

use proptest::prelude::*;

use gcube_sim::{
    CategoryMix, FaultKind, FaultSchedule, KnowledgeModel, ProfileCollector, SimConfig, Simulator,
    TelemetryCollector, TrafficPattern,
};

fn churn_config() -> SimConfig {
    SimConfig::new(6, 2)
        .with_cycles(300, 3_000, 40)
        .with_rate(0.08)
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_reroute_budget(2)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.02,
            kind: FaultKind::Transient { repair_after: 60 },
            mix: CategoryMix::default(),
            node_fraction: 0.7,
        })
}

/// `--profile` must work without `--telemetry`: a profiler alone turns
/// the phase timers on and produces samples, and the run's results are
/// untouched.
#[test]
fn profiling_alone_samples_and_does_not_perturb() {
    let alg = gcube_sim::CachedFtgcr::new();
    let sim = Simulator::new(churn_config(), &alg);
    let bare = sim.session().run();

    let alg2 = gcube_sim::CachedFtgcr::new();
    let sim2 = Simulator::new(churn_config(), &alg2);
    let mut prof = ProfileCollector::new(1 << sim2.cube().alpha(), 50);
    let profiled = sim2.session().profile(&mut prof).run();

    assert_eq!(bare, profiled, "a profiler must never steer the engine");
    assert!(prof.cycles() > 0);
    assert!(prof.samples().count() > 0, "windows must close");
    assert!(
        prof.phase_nanos().iter().sum::<u64>() > 0,
        "phase timers must run without telemetry attached"
    );
    assert!(
        prof.shard_profiles().is_empty(),
        "sequential runs have no per-shard breakdown"
    );
}

/// Sharded profiled runs populate the per-shard report-only table, one
/// entry per shard in shard order, without perturbing the report.
#[test]
fn sharded_profiling_reports_every_shard() {
    let alg = gcube_sim::CachedFtgcr::new();
    let sim = Simulator::new(churn_config(), &alg);
    let bare = sim.session().run();

    let alg2 = gcube_sim::CachedFtgcr::new();
    let sim2 = Simulator::new(churn_config(), &alg2);
    let mut prof = ProfileCollector::new(1 << sim2.cube().alpha(), 50);
    let profiled = sim2.session().threads(4).profile(&mut prof).run();

    assert_eq!(bare, profiled, "a profiler must never steer the engine");
    let expected = gcube_sim::effective_shards(sim2.cube(), 4);
    assert!(expected > 1, "the workload must actually shard");
    let shards: Vec<usize> = prof.shard_profiles().iter().map(|&(s, _)| s).collect();
    assert_eq!(shards, (0..expected).collect::<Vec<_>>());
    for (s, p) in prof.shard_profiles() {
        assert!(p.cycles > 0, "shard {s} must report its cycle count");
        assert!(p.run_nanos > 0, "shard {s} must report wall time");
    }
    // Each shard plans its own classes' attempts every injecting cycle,
    // so the per-shard planning split is deterministic and sums to the
    // global attempt count.
    let ranges = gcube_sim::class_ranges(1 << sim2.cube().alpha(), expected);
    let inject_cycles = sim2.config().inject_cycles;
    for (&(s, p), &(lo, hi)) in prof.shard_profiles().iter().zip(&ranges) {
        assert_eq!(
            p.steal_units,
            (hi - lo) as u64 * inject_cycles,
            "shard {s} plans one unit per owned class per injecting cycle"
        );
    }
    let planned: u64 = prof
        .shard_profiles()
        .iter()
        .map(|&(_, p)| p.planned_reqs)
        .sum();
    assert!(planned > 0, "the run must inject");
    assert_eq!(
        planned,
        prof.injected_total(),
        "every attempt is planned once, by its source's owner"
    );
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        5u32..=7,                         // n
        prop_oneof![Just(2u64), Just(4)], // modulus (>1 so sharding engages)
        0.005f64..0.08,                   // rate
        80u64..250,                       // inject cycles
        any::<u64>(),                     // seed
        prop_oneof![
            Just(FaultSchedule::None),
            (0.005f64..0.05).prop_map(|rate| FaultSchedule::Bernoulli {
                rate,
                kind: FaultKind::Transient { repair_after: 60 },
                mix: CategoryMix::default(),
                node_fraction: 0.7,
            }),
        ],
        prop_oneof![
            Just(TrafficPattern::Uniform),
            Just(TrafficPattern::Transpose),
        ],
        2u64..80, // profile interval
    )
        .prop_map(|(n, m, rate, inject, seed, schedule, pattern, interval)| {
            SimConfig::new(n, m)
                .with_cycles(inject, inject * 20, 0)
                .with_rate(rate)
                .with_seed(seed)
                .with_schedule(schedule)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_reroute_budget(2)
                .with_pattern(pattern)
                .with_telemetry_interval(interval)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: the profiler's deterministic export —
    /// per-window counters, imbalance, cache deltas, log2 histograms —
    /// is bitwise identical at every thread count. Wall-clock fields are
    /// excluded by construction (they live in `to_jsonl`'s
    /// `report_only` lines, not in `deterministic_jsonl`).
    #[test]
    fn profiler_deterministic_stream_is_bitwise_thread_invariant(cfg in arb_config()) {
        let interval = cfg.telemetry_interval;
        // One fresh algorithm per run: plan-cache counters are
        // cumulative over the cache's lifetime, so sharing an instance
        // would (correctly) change the cache-delta columns.
        let run_with = |threads: usize| {
            let alg = gcube_sim::CachedFtgcr::new();
            let sim = Simulator::new(cfg.clone(), &alg);
            let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), interval);
            let report = sim.session().threads(threads).profile(&mut prof).run();
            (report, prof.deterministic_jsonl())
        };
        let (seq, seq_stream) = run_with(1);
        for threads in [2usize, 4] {
            let (par, par_stream) = run_with(threads);
            prop_assert_eq!(&seq, &par, "ChurnReport diverged at threads={}", threads);
            prop_assert_eq!(
                &seq_stream,
                &par_stream,
                "profiler deterministic stream diverged at threads={}",
                threads
            );
        }
    }

    /// Attaching a telemetry collector alongside the profiler must not
    /// change the profiler's deterministic stream (the cache fetch is
    /// shared but filtered per consumer).
    #[test]
    fn telemetry_does_not_leak_into_the_profile(threads in prop_oneof![Just(1usize), Just(4)]) {
        let run_with = |with_telemetry: bool| {
            let alg = gcube_sim::CachedFtgcr::new();
            let sim = Simulator::new(churn_config(), &alg);
            let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), 50);
            if with_telemetry {
                let mut telem = TelemetryCollector::new(sim.cube(), 50);
                sim.session()
                    .threads(threads)
                    .telemetry(&mut telem)
                    .profile(&mut prof)
                    .run();
            } else {
                sim.session().threads(threads).profile(&mut prof).run();
            }
            prof.deterministic_jsonl()
        };
        prop_assert_eq!(run_with(false), run_with(true));
    }
}
