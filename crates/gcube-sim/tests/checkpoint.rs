//! The snapshot/restore contract, held as a property: checkpoint a run
//! mid-flight at an arbitrary cycle, serialize through the text codec,
//! rebuild on a fresh simulator with a fresh strategy instance, finish —
//! and the final `ChurnReport` plus the composed trace stream (prefix
//! recorded before the pause + suffix recorded after the restore) must be
//! bitwise identical to the uninterrupted run, whichever of 1, 2 and 4
//! threads captured it and whichever of 1, 2, 3 and 4 restored it (3
//! splits four ending classes unevenly, so each shard's replica of the
//! traffic stream must restore on its own). The checkpoint text itself
//! must not depend on the capturing thread count.
//!
//! This is the engine-level guarantee `gcube serve` builds its
//! `snapshot`/`restore` requests on (DESIGN.md §16); the server's unit
//! tests pin the wire behaviour, this proptest pins the state capture
//! itself across random shapes, churn schedules, pause points, and the
//! collective traffic class (whose broadcast-tree cache is history, not
//! derivable state, and must ride the checkpoint).
#![recursion_limit = "1024"]

use proptest::prelude::*;

use gcube_sim::{
    CategoryMix, Checkpoint, ChurnReport, CollectiveOp, FaultKind, FaultSchedule, KnowledgeModel,
    MemorySink, RoutingAlgorithm, SimConfig, Simulator, TraceEvent,
};

fn build_algo(multitree: bool) -> Box<dyn RoutingAlgorithm> {
    // One fresh instance per run, like the daemon's `open`/`restore`: the
    // unicast plan cache is derivable state and deliberately not part of
    // a checkpoint, so sharing a warm instance across runs would not test
    // what restore actually rebuilds.
    if multitree {
        Box::new(gcube_sim::MultiTreeStrategy::new(2))
    } else {
        Box::new(gcube_sim::CachedFtgcr::new())
    }
}

fn run_uninterrupted(
    cfg: &SimConfig,
    multitree: bool,
    threads: usize,
) -> (ChurnReport, Vec<TraceEvent>) {
    let algo = build_algo(multitree);
    let sim = Simulator::new(cfg.clone(), &*algo);
    let mut sink = MemorySink::new();
    let report = sim.session().threads(threads).trace(&mut sink).run();
    (report, sink.events().to_vec())
}

/// Step to `pause` on `threads` threads and checkpoint there. Returns
/// the trace prefix recorded so far and the checkpoint text.
fn capture(
    cfg: &SimConfig,
    multitree: bool,
    pause: u64,
    threads: usize,
) -> (Vec<TraceEvent>, String) {
    let algo = build_algo(multitree);
    let sim = Simulator::new(cfg.clone(), &*algo);
    let mut sink = MemorySink::new();
    let text = {
        let mut stepper = sim.session().threads(threads).trace(&mut sink).stepper();
        stepper.step_many(pause);
        // The mark is bookkeeping for the daemon's rewind path (how much
        // trace prefix the holder retains); this test tracks the prefix
        // directly, so any value round-trips fine.
        stepper.checkpoint(0).expect("checkpoint mid-run").to_text()
    };
    (sink.events().to_vec(), text)
}

/// Parse checkpoint `text`, resume it on `threads` threads on a
/// completely fresh simulator and run to completion. Returns the report
/// and the `prefix` + suffix trace stream.
fn resume(
    cfg: &SimConfig,
    multitree: bool,
    text: &str,
    threads: usize,
    prefix: &[TraceEvent],
) -> (ChurnReport, Vec<TraceEvent>) {
    let ck = Checkpoint::from_text(text).expect("checkpoint text must round-trip");
    let algo2 = build_algo(multitree);
    let sim2 = Simulator::new(cfg.clone(), &*algo2);
    let mut suffix = MemorySink::new();
    let report = {
        let mut stepper = sim2
            .session()
            .threads(threads)
            .trace(&mut suffix)
            .stepper_from(&ck)
            .expect("restore onto a matching simulator");
        stepper.step_many(u64::MAX);
        stepper.finish()
    };
    let mut events = prefix.to_vec();
    events.extend_from_slice(suffix.events());
    (report, events)
}

fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    prop_oneof![
        Just(FaultSchedule::None),
        (0.005f64..0.04, 20u64..120, 0.0f64..=1.0).prop_map(|(rate, repair, node_fraction)| {
            FaultSchedule::Bernoulli {
                rate,
                kind: FaultKind::Transient {
                    repair_after: repair,
                },
                mix: CategoryMix::default(),
                node_fraction,
            }
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        5u32..=6,                         // n
        prop_oneof![Just(2u64), Just(4)], // modulus
        0.01f64..0.06,                    // rate
        60u64..150,                       // inject cycles
        any::<u64>(),                     // seed
        0usize..2,                        // static faults
        arb_schedule(),
        prop_oneof![
            Just(KnowledgeModel::Oracle),
            Just(KnowledgeModel::PaperDelay),
        ],
        prop_oneof![Just(None), Just(Some(CollectiveOp::Broadcast))],
    )
        .prop_map(
            |(n, m, rate, inject, seed, faults, schedule, knowledge, collective)| {
                let mut cfg = SimConfig::new(n, m)
                    .with_cycles(inject, inject * 20, inject / 10)
                    .with_rate(rate)
                    .with_seed(seed)
                    .with_faults(faults)
                    .with_schedule(schedule)
                    .with_knowledge(knowledge)
                    .with_window(100)
                    .with_telemetry_interval(50);
                if let Some(op) = collective {
                    cfg = cfg.with_collective(op).with_collective_interval(40);
                }
                cfg
            },
        )
}

fn check_round_trip(cfg: &SimConfig, multitree: bool, pause: u64) -> Result<(), TestCaseError> {
    let (seq_report, seq_events) = run_uninterrupted(cfg, multitree, 1);
    prop_assert!(
        !seq_events.is_empty(),
        "vacuous case: the baseline run recorded no trace events"
    );
    let (_, text_t1) = capture(cfg, multitree, pause, 1);
    for t1 in [1, 2, 4] {
        let (prefix, text) = capture(cfg, multitree, pause, t1);
        prop_assert_eq!(
            &text,
            &text_t1,
            "checkpoint text at {} threads differs from 1 thread (pause={})",
            t1,
            pause
        );
        for t2 in [1, 2, 3, 4] {
            let (resumed_report, resumed_events) = resume(cfg, multitree, &text, t2, &prefix);
            prop_assert_eq!(
                &seq_report,
                &resumed_report,
                "ChurnReport diverged: captured at {} threads, restored at {} (pause={})",
                t1,
                t2,
                pause
            );
            prop_assert_eq!(
                &seq_events,
                &resumed_events,
                "trace stream diverged: captured at {} threads, restored at {} (pause={})",
                t1,
                t2,
                pause
            );
        }
    }

    // The outputs are thread-invariant by the shard-equivalence
    // guarantee, so the uninterrupted 4-thread run must agree too.
    let (par_report, par_events) = run_uninterrupted(cfg, multitree, 4);
    prop_assert_eq!(&par_report, &seq_report, "4-thread baseline diverged");
    prop_assert_eq!(&par_events, &seq_events, "4-thread trace diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint at a random cycle, restore, finish: report and trace
    /// bitwise equal to the uninterrupted run for every capturing thread
    /// count in {1, 2, 4} and restoring thread count in {1, 2, 3, 4}, and
    /// one checkpoint text.
    #[test]
    fn checkpoint_round_trip_is_bitwise(
        (cfg, multitree, pause) in (arb_config(), any::<bool>(), 1u64..140)
    ) {
        check_round_trip(&cfg, multitree, pause)?;
    }
}
