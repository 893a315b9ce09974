//! Telemetry integration tests: the time series must reconcile exactly
//! with the metrics ledger, the fault-budget monitor must flag
//! `BoundExceeded` iff the Theorem 3 precondition fails, attaching a
//! collector must not perturb the simulation, and the exports must be
//! deterministic.

use gcube_routing::faults::{theorem3_precondition_paper, HealthState};
use gcube_sim::telemetry::TelemetryCollector;
use gcube_sim::{
    verify_replay, CachedFtgcr, CategoryMix, Checkpoint, FaultKind, FaultSchedule, FaultTarget,
    KnowledgeModel, MemorySink, ProfileCollector, SimConfig, Simulator, TimedFault, TraceEventKind,
};
use gcube_topology::{GaussianCube, LinkId, NodeId};

/// A seeded churn workload exercising every telemetry counter.
fn churn_config() -> SimConfig {
    SimConfig::new(6, 2)
        .with_cycles(400, 3_000, 50)
        .with_rate(0.1)
        .with_seed(0xf116)
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_reroute_budget(1)
        .with_ttl(25)
        .with_telemetry_interval(50)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.05,
            kind: FaultKind::Transient { repair_after: 80 },
            mix: CategoryMix::default(),
            node_fraction: 1.0,
        })
}

/// ISSUE acceptance: the per-dimension hop series reconciles *exactly*
/// with the Metrics ledger — per window and in total — and every other
/// telemetry counter matches its metrics twin.
#[test]
fn telemetry_reconciles_with_the_metrics_ledger() {
    let alg = CachedFtgcr::new();
    let sim = Simulator::new(churn_config(), &alg);
    let mut telem = TelemetryCollector::new(sim.cube(), 50);
    let report = sim.session().telemetry(&mut telem).run();
    let m = report.metrics;

    let t = telem.totals();
    assert!(m.forwarded_hops_total > 0, "workload must forward packets");
    assert_eq!(t.forwarded_hops, m.forwarded_hops_total);
    assert_eq!(t.dim_hops.iter().sum::<u64>(), m.forwarded_hops_total);
    // The window series sums to the same total (no eviction here).
    assert_eq!(telem.evicted(), 0);
    assert_eq!(
        telem
            .samples()
            .map(|s| s.counts.forwarded_hops)
            .sum::<u64>(),
        m.forwarded_hops_total
    );
    // Per-dimension totals sum across windows too.
    for (d, &total) in t.dim_hops.iter().enumerate() {
        assert_eq!(
            telem.samples().map(|s| s.counts.dim_hops[d]).sum::<u64>(),
            total,
            "dimension {d}"
        );
    }
    assert_eq!(
        (t.injected, t.delivered, t.dropped),
        (m.injected_total, m.delivered_total, m.dropped_total)
    );
    assert_eq!(t.stale_cycles, m.stale_cycles);
    assert_eq!(t.fault_events, m.fault_events);
    assert_eq!(t.reconvergences, m.reconvergences);
    assert!(
        t.stale_views >= t.reroutes,
        "every reroute follows an exposure"
    );
    assert!(
        t.reroutes > 0,
        "churn under PaperDelay must force re-routes"
    );
    // Health transitions recorded by the collector match the metric.
    assert_eq!(telem.transitions().len() as u64, m.health_transitions);
    // The last sample's in-flight count matches the end-of-run metric.
    let last = telem.samples().last().unwrap();
    assert_eq!(last.in_flight, m.in_flight_at_end);
}

/// Observers attached to a run restored from a checkpoint count only the
/// cycles they observe, at every restoring thread count: the first
/// telemetry window starts at the checkpoint, the telemetry totals are
/// the final ledger minus the captured one, and the profile's cycle
/// count and imbalance average cover the observed cycles alone.
#[test]
fn restored_run_observers_count_only_the_suffix() {
    let pause = 175;
    let cfg = SimConfig::new(8, 4)
        .with_cycles(300, 3_000, 30)
        .with_rate(0.05)
        .with_seed(7)
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_telemetry_interval(50)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.03,
            kind: FaultKind::Transient { repair_after: 60 },
            mix: CategoryMix::default(),
            node_fraction: 0.7,
        });
    let alg = CachedFtgcr::new();
    let sim = Simulator::new(cfg.clone(), &alg);
    let mut stepper = sim.session().stepper();
    stepper.step_many(pause);
    let text = stepper.checkpoint(0).expect("checkpoint mid-run").to_text();
    // Finishing the paused run reports the ledger the checkpoint holds.
    let captured = stepper.finish().metrics;
    let ck = Checkpoint::from_text(&text).expect("checkpoint text round-trips");
    let mut csv = None;
    for threads in [1, 2, 4] {
        let alg = CachedFtgcr::new();
        let sim = Simulator::new(cfg.clone(), &alg);
        let mut telem = TelemetryCollector::new(sim.cube(), 50);
        let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), 50);
        let report = {
            let mut stepper = sim
                .session()
                .threads(threads)
                .telemetry(&mut telem)
                .profile(&mut prof)
                .stepper_from(&ck)
                .expect("restore onto a matching simulator");
            stepper.step_many(u64::MAX);
            stepper.finish()
        };
        let m = report.metrics;
        assert!(m.fault_events > captured.fault_events, "churn must fire");
        let first = telem.samples().next().expect("windows close");
        assert_eq!((first.start, first.end), (pause, 200), "threads={threads}");
        let t = telem.totals();
        assert_eq!(
            (t.injected, t.delivered, t.dropped),
            (
                m.injected_total - captured.injected_total,
                m.delivered_total - captured.delivered_total,
                m.dropped_total - captured.dropped_total,
            ),
            "threads={threads}"
        );
        let hops = m.forwarded_hops_total - captured.forwarded_hops_total;
        assert_eq!(t.forwarded_hops, hops, "threads={threads}");
        assert_eq!(t.dim_hops.iter().sum::<u64>(), hops, "threads={threads}");
        assert_eq!(
            (t.fault_events, t.stale_cycles, t.reconvergences),
            (
                m.fault_events - captured.fault_events,
                m.stale_cycles - captured.stale_cycles,
                m.reconvergences - captured.reconvergences,
            ),
            "threads={threads}"
        );
        let ended_at = m.cycles + cfg.warmup_cycles;
        assert_eq!(prof.cycles(), ended_at - pause, "threads={threads}");
        assert_eq!(prof.moved_total(), hops, "threads={threads}");
        assert!(
            prof.imbalance_avg_milli() >= 1000,
            "threads={threads}: {} is below the balanced floor",
            prof.imbalance_avg_milli()
        );
        let this = telem.to_csv();
        assert_eq!(csv.get_or_insert_with(|| this.clone()), &this);
    }
}

/// Attaching a collector must not perturb the run: metrics, windows,
/// fault trace, and budget are bit-identical to the bare engine's.
#[test]
fn telemetry_does_not_perturb_the_run() {
    let alg = CachedFtgcr::new();
    let bare = Simulator::new(churn_config(), &alg).session().run();
    let sim = Simulator::new(churn_config(), &alg);
    let mut telem = TelemetryCollector::new(sim.cube(), 50);
    let observed = sim.session().telemetry(&mut telem).run();
    assert_eq!(bare, observed);
}

/// ISSUE acceptance: the monitor flags `BoundExceeded` iff the injected
/// fault set violates the Theorem 3 precondition checker.
#[test]
fn bound_exceeded_iff_theorem3_precondition_fails() {
    let gc = GaussianCube::new(6, 2).unwrap(); // α = 1
    let base = || {
        SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 0)
            .with_rate(0.02)
            .with_knowledge(KnowledgeModel::PaperDelay)
    };
    // One A-category fault (link in dim ≥ α): precondition holds, so the
    // run goes Degraded and never BoundExceeded.
    let a_link = LinkId::new(NodeId(0), gc.alpha() + 1);
    // One node fault: C-category, precondition void, BoundExceeded.
    let scenarios: [(FaultTarget, HealthState); 2] = [
        (FaultTarget::Link(a_link), HealthState::Degraded),
        (FaultTarget::Node(NodeId(9)), HealthState::BoundExceeded),
    ];
    for (target, expected) in scenarios {
        let cfg = base().with_schedule(FaultSchedule::Scripted(vec![TimedFault {
            cycle: 100,
            target,
            kind: FaultKind::Permanent,
        }]));
        let alg = CachedFtgcr::new();
        let mut sink = MemorySink::new();
        let report = Simulator::new(cfg, &alg).session().trace(&mut sink).run();
        // The iff, against the checker itself on the final fault set.
        assert_eq!(
            report.budget.state == HealthState::BoundExceeded,
            !report.budget.precondition_paper,
            "{target:?}"
        );
        assert_eq!(report.budget.state, expected, "{target:?}");
        // The transition is a first-class trace event.
        let health_events: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Health { state, faults } => Some((e.cycle, state, faults)),
                _ => None,
            })
            .collect();
        assert_eq!(health_events, vec![(100, expected, 1)], "{target:?}");
        assert_eq!(report.metrics.health_transitions, 1, "{target:?}");
    }
}

/// A run that *starts* faulty reports its classification at cycle 0, and
/// replay verification covers the health events.
#[test]
fn initial_faults_classify_at_cycle_zero_and_replay() {
    let cfg = || {
        SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 0)
            .with_rate(0.05)
            .with_faults(2)
    };
    let alg = CachedFtgcr::new();
    let mut sink = MemorySink::new();
    let report = Simulator::new(cfg(), &alg).session().trace(&mut sink).run();
    let first = sink.events().first().expect("events recorded");
    assert!(
        matches!(
            first.kind,
            TraceEventKind::Health {
                state: HealthState::BoundExceeded, // node faults are C-category
                faults: 2,
            }
        ),
        "first event must be the cycle-0 classification, got {first:?}"
    );
    assert_eq!(first.cycle, 0);
    assert_eq!(report.metrics.health_transitions, 1);
    // Health events replay like any other event.
    let events = sink.into_events();
    let n = verify_replay(cfg(), &CachedFtgcr::new(), &events).unwrap();
    assert_eq!(n, events.len());
}

/// Transient churn that fully repairs walks the monitor back to Healthy,
/// and the budget snapshot agrees with a fresh checker run.
#[test]
fn transient_fault_recovers_to_healthy() {
    let cfg = SimConfig::new(6, 2)
        .with_cycles(400, 3_000, 0)
        .with_rate(0.02)
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
            cycle: 100,
            target: FaultTarget::Node(NodeId(9)),
            kind: FaultKind::Transient { repair_after: 100 },
        }]));
    let alg = CachedFtgcr::new();
    let sim = Simulator::new(cfg, &alg);
    let mut telem = TelemetryCollector::new(sim.cube(), 100);
    let report = sim.session().telemetry(&mut telem).run();
    assert_eq!(report.budget.state, HealthState::Healthy);
    assert_eq!(report.budget.total, 0);
    let t = telem.transitions();
    assert_eq!(t.len(), 2, "down then up: {t:?}");
    assert_eq!((t[0].cycle, t[0].to), (100, HealthState::BoundExceeded));
    assert_eq!((t[1].cycle, t[1].to), (200, HealthState::Healthy));
    assert_eq!(report.metrics.health_transitions, 2);
    // The per-sample health column tracks the live state.
    let states: Vec<HealthState> = telem.samples().map(|s| s.health).collect();
    assert_eq!(states[0], HealthState::Healthy);
    assert_eq!(states[1], HealthState::BoundExceeded);
    assert_eq!(*states.last().unwrap(), HealthState::Healthy);
    assert!(theorem3_precondition_paper(sim.cube(), sim.faults()));
}

/// Same seed ⇒ byte-identical CSV and JSONL exports (what CI diffs).
#[test]
fn telemetry_exports_are_deterministic() {
    let run = || {
        let alg = CachedFtgcr::new();
        let sim = Simulator::new(churn_config(), &alg);
        let mut telem = TelemetryCollector::new(sim.cube(), 50);
        sim.session().telemetry(&mut telem).run();
        (telem.to_csv(), telem.to_jsonl())
    };
    let (csv_a, jsonl_a) = run();
    let (csv_b, jsonl_b) = run();
    assert_eq!(csv_a, csv_b);
    assert_eq!(jsonl_a, jsonl_b);
    assert!(csv_a.lines().count() > 2, "series must have rows");
}

/// The health report renders the budget standing of a real run.
#[test]
fn health_report_reflects_the_run() {
    let alg = CachedFtgcr::new();
    let sim = Simulator::new(churn_config(), &alg);
    let mut telem = TelemetryCollector::new(sim.cube(), 50);
    let report = sim.session().telemetry(&mut telem).run();
    let text = telem.health_report(&report.budget);
    assert!(text.contains("network health report"));
    assert!(text.contains(&format!("injected {}", report.metrics.injected_total)));
    assert!(text.contains(report.budget.state.as_str()));
    assert!(text.contains("phase profile"));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_workload() -> impl Strategy<Value = SimConfig> {
        (
            5u32..8,     // n
            0u32..3,     // α (modulus = 2^α)
            0u64..1_000, // seed
            1u32..8,     // rate, in percent
        )
            .prop_map(|(n, alpha_pow, seed, rate)| {
                SimConfig::new(n, 1u64 << alpha_pow)
                    .with_cycles(150, 1_500, 0)
                    .with_rate(f64::from(rate) * 0.01)
                    .with_seed(seed)
                    .with_knowledge(KnowledgeModel::PaperDelay)
                    .with_schedule(FaultSchedule::Bernoulli {
                        rate: 0.01,
                        kind: FaultKind::Transient { repair_after: 50 },
                        mix: CategoryMix::default(),
                        node_fraction: 0.5,
                    })
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite: per-dimension utilization counters sum to the total
        /// forwarded hops, across shapes, rates, and churn seeds.
        #[test]
        fn dim_hops_sum_to_total_forwarded(cfg in arb_workload()) {
            let alg = CachedFtgcr::new();
            let sim = Simulator::new(cfg, &alg);
            let mut telem = TelemetryCollector::new(sim.cube(), 40);
            let report = sim.session().telemetry(&mut telem).run();
            let per_dim: u64 = telem.totals().dim_hops.iter().sum();
            prop_assert_eq!(per_dim, telem.totals().forwarded_hops);
            prop_assert_eq!(per_dim, report.metrics.forwarded_hops_total);
            // And the iff holds on whatever fault set the churn left.
            prop_assert_eq!(
                report.budget.state == HealthState::BoundExceeded,
                !report.budget.precondition_paper
            );
        }
    }
}
