//! Parameter sweeps, parallelised with scoped threads.
//!
//! The paper's figures sweep the network dimension for several moduli and
//! fault counts; each point is an independent simulation, so the sweep
//! parallelises embarrassingly across a `crossbeam` scope with results
//! gathered behind a `parking_lot` mutex.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::metrics::{ChurnReport, Metrics};
use crate::strategy::RoutingAlgorithm;

/// One point of a sweep: the configuration and its measured metrics.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Configuration simulated.
    pub config: SimConfig,
    /// Strategy name.
    pub algorithm: &'static str,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// Run every `(config, algorithm)` pair, `threads`-wide, preserving input
/// order in the output.
pub fn run_sweep(
    configs: &[SimConfig],
    algorithm: &dyn RoutingAlgorithm,
    threads: usize,
) -> Vec<SweepPoint> {
    sweep(configs, algorithm, threads, |sim| SweepPoint {
        config: sim.config().clone(),
        algorithm: algorithm.name(),
        metrics: sim.session().run().metrics,
    })
}

/// One point of a churn sweep: the configuration and its full report
/// (metrics plus the degradation time series).
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Configuration simulated.
    pub config: SimConfig,
    /// Strategy name.
    pub algorithm: &'static str,
    /// Full churn report.
    pub report: ChurnReport,
}

/// Like [`run_sweep`], but keeping each run's [`ChurnReport`] so callers
/// can plot degradation-under-churn curves. Input order is preserved.
pub fn run_churn_sweep(
    configs: &[SimConfig],
    algorithm: &dyn RoutingAlgorithm,
    threads: usize,
) -> Vec<ChurnPoint> {
    sweep(configs, algorithm, threads, |sim| ChurnPoint {
        config: sim.config().clone(),
        algorithm: algorithm.name(),
        report: sim.session().run(),
    })
}

/// The sweep loop: `threads` workers take configs off a shared cursor and
/// each result lands at its config's index.
fn sweep<R: Send>(
    configs: &[SimConfig],
    algorithm: &dyn RoutingAlgorithm,
    threads: usize,
    point: impl Fn(&Simulator) -> R + Sync,
) -> Vec<R> {
    let results: Mutex<Vec<Option<R>>> = Mutex::new(configs.iter().map(|_| None).collect());
    let next = AtomicUsize::new(0);
    crossbeam::scope(|s| {
        for _ in 0..threads.max(1).min(configs.len().max(1)) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let sim = Simulator::new(configs[i].clone(), algorithm);
                let p = point(&sim);
                results.lock()[i] = Some(p);
            });
        }
    })
    .expect("sweep worker panicked");
    results
        .into_inner()
        .into_iter()
        .map(|p| p.expect("every sweep point filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FaultFreeGcr;

    #[test]
    fn sweep_preserves_order_and_matches_serial() {
        let configs: Vec<SimConfig> = [5u32, 6, 7]
            .iter()
            .map(|&n| {
                SimConfig::new(n, 2)
                    .with_cycles(100, 1_000, 10)
                    .with_rate(0.01)
            })
            .collect();
        let parallel = run_sweep(&configs, &FaultFreeGcr, 4);
        assert_eq!(parallel.len(), 3);
        for (i, p) in parallel.iter().enumerate() {
            assert_eq!(p.config.n, configs[i].n);
            assert_eq!(p.algorithm, "FFGCR");
            // Each point must equal an independent serial run (determinism
            // across thread schedules).
            let serial = Simulator::new(configs[i].clone(), &FaultFreeGcr)
                .session()
                .run()
                .metrics;
            assert_eq!(p.metrics, serial);
        }
    }

    #[test]
    fn empty_sweep() {
        let out = run_sweep(&[], &FaultFreeGcr, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn churn_sweep_matches_serial_reports() {
        use crate::config::KnowledgeModel;
        use crate::injection::{CategoryMix, FaultKind, FaultSchedule};
        use crate::strategy::FaultTolerantGcr;
        let schedule = FaultSchedule::Bernoulli {
            rate: 0.02,
            kind: FaultKind::Transient { repair_after: 50 },
            mix: CategoryMix::default(),
            node_fraction: 0.5,
        };
        let configs: Vec<SimConfig> = [5u32, 6]
            .iter()
            .map(|&n| {
                SimConfig::new(n, 2)
                    .with_cycles(150, 1_500, 0)
                    .with_rate(0.02)
                    .with_schedule(schedule.clone())
                    .with_knowledge(KnowledgeModel::PaperDelay)
            })
            .collect();
        let parallel = run_churn_sweep(&configs, &FaultTolerantGcr, 4);
        assert_eq!(parallel.len(), 2);
        for (i, p) in parallel.iter().enumerate() {
            let serial = Simulator::new(configs[i].clone(), &FaultTolerantGcr)
                .session()
                .run();
            assert_eq!(p.report, serial, "thread schedule must not change results");
        }
    }
}
