//! End-to-end oracle for the walk form. The cached strategies hand the
//! engine FFGCR plans as walks (α ≤ 3), which it forwards by the walk
//! rule; the uncached strategies plan the same routes as explicit node
//! sequences and share the cached ones' wire names. So on the same
//! config, reports, traces and checkpoint texts captured on the way must
//! be equal, at 1 and 2 threads.

use gcube_sim::{
    CachedFfgcr, CachedFtgcr, CategoryMix, ChurnReport, FaultFreeGcr, FaultKind, FaultSchedule,
    FaultTolerantGcr, KnowledgeModel, MemorySink, RoutingAlgorithm, SimConfig, Simulator,
    TraceEvent,
};

/// Cycles at which each run is checkpointed.
const PAUSES: [u64; 3] = [40, 150, 320];

/// Run `cfg` under `algo` on `threads` threads, checkpointing at every
/// pause: the report, the whole trace, and each checkpoint's text.
fn observe(
    cfg: &SimConfig,
    algo: &dyn RoutingAlgorithm,
    threads: usize,
) -> (ChurnReport, Vec<TraceEvent>, Vec<String>) {
    let sim = Simulator::new(cfg.clone(), algo);
    let mut sink = MemorySink::new();
    let mut texts = Vec::new();
    let report = {
        let mut stepper = sim.session().threads(threads).trace(&mut sink).stepper();
        for pause in PAUSES {
            stepper.step_many(pause - stepper.cycle());
            texts.push(stepper.checkpoint(0).expect("checkpoint").to_text());
        }
        stepper.step_many(u64::MAX);
        stepper.finish()
    };
    (report, sink.events().to_vec(), texts)
}

fn assert_same(cfg: &SimConfig, cached: &dyn RoutingAlgorithm, plain: &dyn RoutingAlgorithm) {
    let reference = observe(cfg, plain, 1);
    assert!(
        reference.0.metrics.delivered > 1_000,
        "the run carries traffic"
    );
    for threads in [1, 2] {
        let got = observe(cfg, cached, threads);
        assert_eq!(got.0, reference.0, "report, {threads} threads");
        assert_eq!(got.1, reference.1, "trace, {threads} threads");
        for (i, (a, b)) in got.2.iter().zip(&reference.2).enumerate() {
            assert_eq!(a, b, "checkpoint at cycle {}, {threads} threads", PAUSES[i]);
        }
        assert_eq!(observe(cfg, plain, threads), reference);
    }
}

#[test]
fn walk_form_ffgcr_equals_explicit_routes() {
    let cfg = SimConfig::new(10, 4)
        .with_rate(0.05)
        .with_cycles(400, 2_000, 40)
        .with_seed(5);
    assert_same(&cfg, &CachedFfgcr::new(), &FaultFreeGcr);
}

#[test]
fn walk_form_ftgcr_equals_explicit_routes_under_churn() {
    let cfg = SimConfig::new(10, 4)
        .with_rate(0.04)
        .with_cycles(400, 2_000, 40)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.05,
            kind: FaultKind::Transient { repair_after: 80 },
            mix: CategoryMix::default(),
            node_fraction: 0.3,
        })
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_seed(9);
    assert_same(&cfg, &CachedFtgcr::new(), &FaultTolerantGcr);
}
