//! The `SimSession` front door: builder composition, thread resolution,
//! and — the headline guarantee — bitwise sequential/sharded equivalence
//! for arbitrary configurations and strategies (multitree included),
//! whether a run goes to the end in one call or a stepper advances it in
//! chunks.

use proptest::prelude::*;

use gcube_sim::{
    effective_shards, resolve_threads, CategoryMix, FaultKind, FaultSchedule, KnowledgeModel,
    MemorySink, SimConfig, SimError, Simulator, TelemetryCollector, TrafficPattern,
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

#[test]
fn builder_composes_every_observer_combination() {
    let sim = Simulator::new(churn_config(), &gcube_sim::FaultTolerantGcr);
    let bare = sim.session().run();

    let mut sink = MemorySink::new();
    let traced = sim.session().trace(&mut sink).run();
    assert_eq!(bare, traced, "a trace sink must never steer the engine");
    assert!(!sink.events().is_empty());

    let mut telem = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
    let mut sink2 = MemorySink::new();
    let instrumented = sim.session().trace(&mut sink2).telemetry(&mut telem).run();
    assert_eq!(bare, instrumented, "observers must never steer the engine");
    assert!(telem.samples().count() > 0);
    assert_eq!(sink.events(), sink2.events());
}

#[test]
fn multitree_shards_bitwise_under_churn() {
    // One fresh strategy per run: the shared FTGCR-fallback plan cache
    // and the atlas screen are cumulative, so reusing an instance would
    // (correctly) change telemetry cache counters between runs.
    let run_with = |threads: usize| {
        let alg = gcube_sim::MultiTreeStrategy::new(2);
        let sim = Simulator::new(churn_config(), &alg);
        let mut sink = MemorySink::new();
        let mut telem = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
        let report = sim
            .session()
            .threads(threads)
            .trace(&mut sink)
            .telemetry(&mut telem)
            .run();
        (report, sink, telem)
    };
    let (seq, seq_sink, seq_tel) = run_with(1);
    assert!(
        seq.metrics.tree_routes.iter().sum::<u64>() > 0,
        "multitree must carry traffic on trees"
    );
    assert!(seq.tree_health.is_some(), "report must carry tree health");
    for threads in [2, 4] {
        let (par, par_sink, par_tel) = run_with(threads);
        assert_eq!(seq, par, "report mismatch at threads={threads}");
        assert_eq!(
            seq_sink.events(),
            par_sink.events(),
            "trace mismatch at threads={threads}"
        );
        assert_eq!(
            seq_tel.to_csv(),
            par_tel.to_csv(),
            "telemetry mismatch at threads={threads}"
        );
    }
}

#[test]
fn threads_zero_resolves_to_available_parallelism() {
    assert!(resolve_threads(0) >= 1);
    assert_eq!(resolve_threads(3), 3);
    let sim = Simulator::new(
        SimConfig::new(6, 2)
            .with_cycles(100, 1_000, 0)
            .with_rate(0.03),
        &gcube_sim::FaultFreeGcr,
    );
    // Whatever 0 resolves to, the result is the sequential one.
    assert_eq!(sim.session().threads(0).run(), sim.session().run());
}

#[test]
fn effective_shards_cap_at_the_ending_classes() {
    let sim = Simulator::new(SimConfig::new(6, 4), &gcube_sim::FaultFreeGcr);
    assert_eq!(effective_shards(sim.cube(), 1), 1);
    assert_eq!(effective_shards(sim.cube(), 3), 3);
    assert_eq!(effective_shards(sim.cube(), 64), 4, "capped at 2^α");
    let flat = Simulator::new(SimConfig::new(6, 1), &gcube_sim::FaultFreeGcr);
    assert_eq!(
        effective_shards(flat.cube(), 8),
        1,
        "one ending class means the sequential engine"
    );
}

#[test]
fn finite_buffers_refuse_sharded_runs() {
    let cfg = SimConfig::new(6, 2)
        .with_cycles(100, 1_000, 0)
        .with_rate(0.02)
        .with_buffer_capacity(4);
    let sim = Simulator::new(cfg, &gcube_sim::FaultFreeGcr);
    match sim.session().threads(4).try_run() {
        Err(SimError::FiniteBuffersRequireSingleThread) => {}
        other => panic!("expected a finite-buffer refusal, got {other:?}"),
    }
    // Single-threaded finite buffers still run.
    assert!(sim.session().threads(1).try_run().is_ok());
    // Steppers and restores are refused the same way: a stepper panics
    // like `run`, a restore returns the error.
    let refusal = SimError::FiniteBuffersRequireSingleThread.to_string();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.session().threads(4).stepper();
    }))
    .expect_err("a sharded stepper with finite buffers must be refused");
    let message = panicked
        .downcast_ref::<String>()
        .expect("a formatted panic");
    assert_eq!(*message, format!("invalid simulation session: {refusal}"));
    let ck = sim.session().stepper().checkpoint(0).unwrap();
    match sim.session().threads(4).stepper_from(&ck) {
        Err(e) => assert_eq!(e, refusal),
        Ok(_) => panic!("a sharded restore with finite buffers must be refused"),
    }
}

/// A completed million-node run: `GC(20, 4)` end to end at a trickle
/// injection rate, sequential and 4-way sharded agreeing bitwise. The
/// SoA engine never materialises the node set — queues are flat arrays
/// plus occupancy bitsets — so 2^20 nodes is minutes of arithmetic, not
/// memory pressure. Ignored by default: run with
/// `cargo test --release -- --ignored million_node` (debug builds spend
/// most of their time in bounds checks).
#[test]
#[ignore = "release-scale: 1M-node engine run, use --release -- --ignored"]
fn million_node_run_completes_and_shards_bitwise() {
    let cfg = SimConfig::new(20, 4)
        .with_cycles(10, 100, 0)
        .with_rate(0.0002)
        .with_seed(0x6c0de);
    let run_with = |threads: usize| {
        let alg = gcube_sim::CachedFfgcr::new();
        let sim = Simulator::new(cfg.clone(), &alg);
        sim.session().threads(threads).run()
    };
    let seq = run_with(1);
    assert_eq!(seq.metrics.nodes, 1 << 20);
    assert!(seq.metrics.injected_total > 0, "trickle must inject");
    assert_eq!(
        seq.metrics.injected_total,
        seq.metrics.delivered_total + seq.metrics.dropped_total,
        "a drained fault-free run delivers everything it injected"
    );
    let par = run_with(4);
    assert_eq!(seq, par, "GC(20, 4) must shard bitwise");
}

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Permanent),
        (20u64..150).prop_map(|repair_after| FaultKind::Transient { repair_after }),
        (10u64..40, 60u64..150)
            .prop_map(|(down_for, period)| FaultKind::Intermittent { down_for, period }),
    ]
}

fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    prop_oneof![
        Just(FaultSchedule::None),
        (0.005f64..0.05, arb_kind(), 0.0f64..=1.0).prop_map(|(rate, kind, node_fraction)| {
            FaultSchedule::Bernoulli {
                rate,
                kind,
                mix: CategoryMix::default(),
                node_fraction,
            }
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        5u32..=7,                         // n
        prop_oneof![Just(2u64), Just(4)], // modulus (>1 so sharding engages)
        0.005f64..0.08,                   // rate
        80u64..250,                       // inject cycles
        0u64..60,                         // warmup
        any::<u64>(),                     // seed
        0usize..2,                        // static faults
        arb_schedule(),
        prop_oneof![
            Just(KnowledgeModel::Oracle),
            Just(KnowledgeModel::PaperDelay),
            Just(KnowledgeModel::Measured),
        ],
        prop_oneof![Just(None), (2u64..50).prop_map(Some)], // ttl
        0u32..5,                                            // reroute budget
        prop_oneof![
            Just(TrafficPattern::Uniform),
            Just(TrafficPattern::Transpose),
            Just(TrafficPattern::BitComplement),
        ],
    )
        .prop_map(
            |(
                n,
                m,
                rate,
                inject,
                warmup,
                seed,
                faults,
                schedule,
                knowledge,
                ttl,
                budget,
                pattern,
            )| {
                let mut cfg = SimConfig::new(n, m)
                    .with_cycles(inject, inject * 20, warmup)
                    .with_rate(rate)
                    .with_seed(seed)
                    .with_faults(faults)
                    .with_schedule(schedule)
                    .with_knowledge(knowledge)
                    .with_reroute_budget(budget)
                    .with_pattern(pattern)
                    .with_window(100)
                    .with_telemetry_interval(50);
                if let Some(t) = ttl {
                    cfg = cfg.with_ttl(t);
                }
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: for any shape, seed, and churn schedule,
    /// every thread count produces the identical `ChurnReport`, the
    /// identical trace stream, the identical telemetry exports, and a
    /// balanced conservation ledger — run to the end in one call, or
    /// stepped in chunks of random length (seeded by `chunks`).
    #[test]
    fn sharded_runs_are_bitwise_sequential(
        (cfg, multitree, chunks) in (arb_config(), any::<bool>(), any::<u64>())
    ) {
        let uses_ftgcr = cfg.faulty_nodes > 0 || !cfg.schedule.is_none();
        // One fresh algorithm instance per run: plan-cache hit/miss
        // counters are cumulative for the cache's lifetime, so a shared
        // warm cache would (correctly) report different telemetry for the
        // second run regardless of the engine used.
        let run_with = |threads: usize, stepped: bool| {
            let alg_mt = gcube_sim::MultiTreeStrategy::new(2);
            let alg_ft = gcube_sim::CachedFtgcr::new();
            let alg_ff = gcube_sim::CachedFfgcr::new();
            let alg: &dyn gcube_sim::RoutingAlgorithm = if multitree {
                &alg_mt
            } else if uses_ftgcr {
                &alg_ft
            } else {
                &alg_ff
            };
            let sim = Simulator::new(cfg.clone(), alg);
            let mut sink = MemorySink::new();
            let mut tel =
                TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
            let session = sim
                .session()
                .threads(threads)
                .trace(&mut sink)
                .telemetry(&mut tel);
            let report = if stepped {
                let mut stepper = session.stepper();
                let mut x = chunks | 1;
                loop {
                    // xorshift64: chunks of 1 to 64 cycles.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if stepper.step_many(1 + x % 64) {
                        break;
                    }
                }
                stepper.finish()
            } else {
                session.run()
            };
            (report, sink, tel)
        };

        let (seq, seq_sink, seq_tel) = run_with(1, false);

        let m = &seq.metrics;
        prop_assert_eq!(
            m.injected_total,
            m.delivered_total + m.dropped_total + m.in_flight_at_end,
            "sequential ledger must balance"
        );

        for (threads, stepped) in [(2usize, false), (4, false), (7, false), (2, true), (4, true)] {
            let (par, par_sink, par_tel) = run_with(threads, stepped);
            prop_assert_eq!(
                &seq,
                &par,
                "ChurnReport diverged at threads={} (stepped: {})",
                threads,
                stepped
            );
            prop_assert_eq!(
                seq_sink.events(),
                par_sink.events(),
                "trace stream diverged at threads={} (stepped: {})",
                threads,
                stepped
            );
            prop_assert_eq!(
                seq_tel.to_csv(),
                par_tel.to_csv(),
                "telemetry CSV diverged at threads={} (stepped: {})",
                threads,
                stepped
            );
            prop_assert_eq!(
                seq_tel.to_jsonl(),
                par_tel.to_jsonl(),
                "telemetry JSONL diverged at threads={} (stepped: {})",
                threads,
                stepped
            );
        }
    }
}
