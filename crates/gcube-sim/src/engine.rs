//! The simulator: one `GC(n, M)` instance, its configuration, and the
//! cycle model every run executes.
//!
//! Store-and-forward with FIFO queues: each cycle, every node may forward
//! the head of its queue onto the requested output link; each *directed*
//! link carries at most one packet per cycle; a packet reaching its
//! destination is sinked immediately (eager readership). Node service
//! order rotates each cycle so no node is systematically favoured.
//!
//! Buffers are unbounded by default — the paper's eager-readership model.
//! With [`crate::config::SimConfig::with_buffer_capacity`] the engine
//! switches to backpressure: packets move only into queues with room and
//! full sources refuse injections. That mode exists to *demonstrate* the
//! assumption's importance: tight buffers genuinely deadlock under load
//! (see `finite_buffers_apply_backpressure_and_can_deadlock`). It runs on
//! one shard only.
//!
//! # Dynamic faults and online recovery
//!
//! With a [`crate::injection::FaultSchedule`], the network changes
//! *while packets are in flight*. The engine then tracks two fault sets:
//!
//! - the **truth** — what is actually broken, mutated by the
//!   [`crate::injection::FaultInjector`] before each cycle;
//! - the **view** — what routing decisions see. Under
//!   [`KnowledgeModel::Oracle`] the two coincide; otherwise the view lags
//!   each fault event by the paper's claim-4 exchange bound
//!   (`⌈n/2^α⌉ + 1` cycles) or by the measured protocol rounds, and
//!   packets are planned against stale knowledge.
//!
//! A packet whose next hop is dead in the truth cannot move. Its holder
//! observes the failure (the component is added to the view immediately —
//! neighbours of a fault notice the silence first) and the engine replans
//! the packet locally from its current node with the session's routing
//! algorithm, burning one cycle and one unit of its re-route budget.
//! Packets are dropped — and counted — when the budget or the TTL is
//! exhausted, when no recovery route exists, or when the node buffering
//! them dies.
//!
//! # One kernel, two schedules
//!
//! The per-cycle phases are implemented once, over a node range of the
//! structure-of-arrays state ([`crate::shard`]). A run with one thread —
//! and every stepper, checkpoint, and daemon session — is the one-shard
//! schedule: no exchange, no barrier, no thread. `threads(n)` runs the
//! same kernel on up to `2^α` shards in barriered rounds, with bitwise
//! identical output.

use gcube_routing::knowledge::exchange_rounds;
use gcube_routing::FaultSet;
use gcube_topology::GaussianCube;

use crate::config::{KnowledgeModel, SimConfig};
use crate::error::SimError;
use crate::injection::FaultSchedule;
use crate::session::SimSession;
use crate::strategy::RoutingAlgorithm;
use crate::traffic::place_node_faults;

/// A deterministic cycle-driven simulator for one `GC(n, M)` instance.
pub struct Simulator<'a> {
    pub(crate) gc: GaussianCube,
    pub(crate) faults: FaultSet,
    pub(crate) config: SimConfig,
    pub(crate) algorithm: &'a dyn RoutingAlgorithm,
}

impl<'a> Simulator<'a> {
    /// Build a simulator; places `config.faulty_nodes` node faults.
    ///
    /// Panics on an invalid configuration (bad cube parameters, an
    /// out-of-range injection rate or a scripted fault outside the cube);
    /// use [`Simulator::try_new`] to handle those as errors.
    pub fn new(config: SimConfig, algorithm: &'a dyn RoutingAlgorithm) -> Simulator<'a> {
        match Self::try_new(config, algorithm) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// Fallible constructor: validates the configuration (including the
    /// injection rate, which used to be silently clamped) and every
    /// scripted fault target before building anything.
    pub fn try_new(
        config: SimConfig,
        algorithm: &'a dyn RoutingAlgorithm,
    ) -> Result<Simulator<'a>, SimError> {
        config.validate()?;
        let gc =
            GaussianCube::new(config.n, config.modulus).map_err(|e| SimError::InvalidTopology {
                n: config.n,
                modulus: config.modulus,
                reason: e.to_string(),
            })?;
        if let FaultSchedule::Scripted(events) = &config.schedule {
            events.iter().try_for_each(|e| e.target.check(&gc))?;
        }
        let faults = place_node_faults(&gc, config.faulty_nodes, config.seed);
        Ok(Simulator {
            gc,
            faults,
            config,
            algorithm,
        })
    }

    /// The fault set in effect at cycle zero (for inspection).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The simulated cube.
    pub fn cube(&self) -> &GaussianCube {
        &self.gc
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The routing algorithm this simulator plans with.
    pub fn algorithm(&self) -> &'a dyn RoutingAlgorithm {
        self.algorithm
    }

    /// The view's convergence lag after a fault event, in cycles.
    pub(crate) fn knowledge_delay(&self, truth: &FaultSet) -> u64 {
        match self.config.knowledge {
            KnowledgeModel::Oracle => 0,
            KnowledgeModel::PaperDelay => {
                // Claim 4: at most ⌈n/2^α⌉ + 1 exchange rounds.
                let d = 1u64 << self.gc.alpha();
                u64::from(self.gc.n()).div_ceil(d) + 1
            }
            KnowledgeModel::Measured => exchange_rounds(&self.gc, truth).rounds().max(1) as u64,
        }
    }

    /// Start building a run: the single composable front door.
    ///
    /// ```text
    /// sim.session().threads(4).trace(&mut sink).telemetry(&mut telem).run()
    /// ```
    ///
    /// Every combination the four legacy entry points used to cover — and
    /// the ones they could not, like "run sharded with these sinks" — is a
    /// chain of builder calls. See [`SimSession`].
    pub fn session(&self) -> SimSession<'_, 'a> {
        SimSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::{FaultKind, FaultTarget, TimedFault};
    use crate::strategy::{FaultFreeGcr, FaultTolerantGcr};
    use gcube_topology::NodeId;

    fn small_config() -> SimConfig {
        SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 20)
            .with_rate(0.02)
    }

    #[test]
    fn scripted_faults_outside_the_cube_are_typed_errors() {
        // `gcube run 6 2 --rate 0.05 --cycles 50 --fault-at 10:link:0:70`
        // and `--fault-at 10:node:999` used to panic when the fault applied.
        let scripted = |target| {
            SimConfig::new(6, 2)
                .with_rate(0.05)
                .with_cycles(50, 200, 0)
                .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                    cycle: 10,
                    target,
                    kind: FaultKind::Permanent,
                }]))
        };
        for target in [
            FaultTarget::link(NodeId(0), 70),
            FaultTarget::Node(NodeId(999)),
            FaultTarget::link(NodeId(0), 6),
            FaultTarget::link(NodeId(64), 0),
            // Dimension 5 is below n, but node 0 (ending class 0 of
            // GC(6,2)) has no dimension-5 link (Theorem 1).
            FaultTarget::link(NodeId(0), 5),
        ] {
            let e = Simulator::try_new(scripted(target), &FaultTolerantGcr)
                .err()
                .expect("a target outside GC(6,4) must be refused");
            assert_eq!(e, SimError::InvalidFaultTarget { target, n: 6 });
            assert_eq!(e.code(), "invalid_fault_target");
        }
        for target in [
            FaultTarget::Node(NodeId(63)),
            FaultTarget::link(NodeId(63), 5),
        ] {
            let r = Simulator::new(scripted(target), &FaultTolerantGcr)
                .session()
                .run();
            assert_eq!(r.metrics.fault_events, 1, "{target:?} applies");
        }
    }

    #[test]
    fn conservation_packets_in_equals_out() {
        let sim = Simulator::new(small_config(), &FaultFreeGcr);
        let m = sim.session().run().metrics;
        assert!(m.injected > 0, "workload must inject packets");
        assert_eq!(m.route_failures, 0);
        // Every measured packet is either delivered or still in flight.
        assert_eq!(m.in_flight_at_end, 0, "drain period must empty the network");
        assert_eq!(m.delivered, m.injected);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        let b = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert_eq!(a, b);
        let c = Simulator::new(small_config().with_seed(777), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert_ne!(a, c);
    }

    #[test]
    fn static_runs_report_no_churn_counters() {
        let r = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run();
        let m = r.metrics;
        assert_eq!(
            (
                m.dropped,
                m.ttl_expired,
                m.rerouted_packets,
                m.rerouted_hops
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(
            (m.fault_events, m.stale_cycles, m.reconvergences),
            (0, 0, 0)
        );
        assert!(r.trace.is_empty());
        assert!(!r.windows.is_empty());
        let resolved: u64 = r.windows.iter().map(|w| w.delivered).sum();
        assert!(resolved >= m.delivered, "windows count warm-up packets too");
    }

    #[test]
    fn latency_at_least_route_length() {
        // Latency per packet ≥ hops; with low load close to hops.
        let sim = Simulator::new(small_config().with_rate(0.001), &FaultFreeGcr);
        let m = sim.session().run().metrics;
        assert!(m.avg_latency() >= m.avg_hops());
        // Uncongested: latency within 1.5x of hop count.
        assert!(m.avg_latency() <= 1.5 * m.avg_hops() + 1.0);
    }

    #[test]
    fn faulty_network_still_delivers_with_ftgcr() {
        let cfg = small_config().with_faults(1);
        let sim = Simulator::new(cfg, &FaultTolerantGcr);
        assert_eq!(sim.faults().faulty_nodes().count(), 1);
        let m = sim.session().run().metrics;
        assert_eq!(m.delivered, m.injected, "FTGCR must deliver all packets");
        assert_eq!(m.route_failures, 0);
    }

    #[test]
    fn fault_raises_latency_on_average() {
        // The Figure 7 effect, in miniature: faults force detours, so mean
        // latency (averaged over seeds — a single seed is noisy because the
        // faulty node also stops injecting) must not drop.
        let mean = |faults: usize| -> f64 {
            let mut total = 0.0;
            for seed in 0..6u64 {
                let cfg = small_config().with_seed(1000 + seed).with_faults(faults);
                total += Simulator::new(cfg, &FaultTolerantGcr)
                    .session()
                    .run()
                    .metrics
                    .avg_latency();
            }
            total / 6.0
        };
        let base = mean(0);
        let faulty = mean(2);
        assert!(
            faulty >= base * 0.98,
            "mean latency should not drop with faults: base={base:.3} faulty={faulty:.3}"
        );
    }

    #[test]
    fn permutation_traffic_runs_and_drains() {
        use crate::traffic::TrafficPattern;
        for pat in [
            TrafficPattern::BitComplement,
            TrafficPattern::BitReversal,
            TrafficPattern::Transpose,
        ] {
            let cfg = small_config().with_pattern(pat);
            let m = Simulator::new(cfg, &FaultFreeGcr).session().run().metrics;
            assert!(m.injected > 0, "{pat:?} must inject");
            assert_eq!(m.delivered, m.injected, "{pat:?} must drain fully");
        }
    }

    #[test]
    fn bit_complement_has_longest_latency() {
        use crate::traffic::TrafficPattern;
        // Complement partners are at maximal distance: latency must exceed
        // the uniform workload's at equal rate.
        let uni = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        let comp = Simulator::new(
            small_config().with_pattern(TrafficPattern::BitComplement),
            &FaultFreeGcr,
        )
        .session()
        .run()
        .metrics;
        assert!(
            comp.avg_hops() > uni.avg_hops(),
            "complement hops {} must exceed uniform {}",
            comp.avg_hops(),
            uni.avg_hops()
        );
    }

    #[test]
    fn finite_buffers_apply_backpressure_and_can_deadlock() {
        // This test documents WHY the paper assumes eager readership
        // (assumption 2 of §6): with tight finite buffers and no consumption
        // guarantee, store-and-forward traffic deadlocks — head packets
        // point at each other's full queues and nothing ever moves again.
        // (warmup = 0 so the conservation ledger covers every packet.)
        let cfg = SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 0)
            .with_rate(0.2)
            .with_buffer_capacity(2);
        let m = Simulator::new(cfg, &FaultFreeGcr).session().run().metrics;
        assert!(
            m.blocked_injections > 0,
            "tight buffers must block injections"
        );
        assert_eq!(m.delivered + m.in_flight_at_end, m.injected, "conservation");
        assert!(
            m.in_flight_at_end > 0,
            "expected a buffer deadlock at this load; delivered={} injected={}",
            m.delivered,
            m.injected
        );
        // Unbounded buffers (the paper's model): same load, no blocking,
        // full drain.
        let m2 = Simulator::new(
            SimConfig::new(6, 2)
                .with_cycles(200, 2_000, 0)
                .with_rate(0.2),
            &FaultFreeGcr,
        )
        .session()
        .run()
        .metrics;
        assert_eq!(m2.blocked_injections, 0);
        assert_eq!(m2.in_flight_at_end, 0);
        assert_eq!(m2.delivered, m2.injected);
    }

    #[test]
    fn backpressure_conserves_packets_at_gentle_load() {
        // At loads where no deadlock forms, finite buffers still deliver
        // everything they accepted.
        for cap in [4usize, 8] {
            let cfg = SimConfig::new(6, 2)
                .with_cycles(200, 4_000, 0)
                .with_rate(0.005)
                .with_buffer_capacity(cap);
            let m = Simulator::new(cfg, &FaultFreeGcr).session().run().metrics;
            assert_eq!(m.delivered + m.in_flight_at_end, m.injected, "cap {cap}");
            assert_eq!(m.in_flight_at_end, 0, "cap {cap}: gentle load must drain");
        }
    }

    #[test]
    fn higher_load_does_not_lower_throughput() {
        let low = Simulator::new(small_config().with_rate(0.002), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        let high = Simulator::new(small_config().with_rate(0.02), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert!(high.throughput() > low.throughput());
    }

    // --- dynamic fault tests -------------------------------------------

    /// A scripted mid-run permanent node fault with a stale view: packets
    /// already in flight (or planned before the view converges) must be
    /// re-routed around it, and traffic keeps being delivered afterwards.
    #[test]
    fn midrun_node_fault_triggers_online_recovery() {
        use crate::injection::FaultSchedule;
        let victim = NodeId(9);
        let cfg = SimConfig::new(6, 2)
            .with_cycles(600, 4_000, 0)
            .with_rate(0.05)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(victim),
                kind: FaultKind::Permanent,
            }]));
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        let m = r.metrics;
        assert_eq!(r.trace.len(), 1, "exactly one event must apply");
        assert_eq!(m.fault_events, 1);
        assert!(m.stale_cycles > 0, "PaperDelay must expose a stale window");
        assert_eq!(m.reconvergences, 1);
        assert!(
            m.rerouted_packets > 0 || m.dropped > 0,
            "in-flight traffic must hit the dead node and recover or drop"
        );
        assert!(
            m.delivered + m.dropped + m.in_flight_at_end == m.injected,
            "conservation with drops: {} + {} + {} != {}",
            m.delivered,
            m.dropped,
            m.in_flight_at_end,
            m.injected
        );
        assert!(
            m.delivery_ratio() > 0.9,
            "one dead node must not collapse delivery: {}",
            m.delivery_ratio()
        );
        // After reconvergence the network routes around the fault: the
        // final window must be fully delivered again.
        let last = r.windows.last().unwrap();
        assert!(
            last.delivery_ratio() > 0.99,
            "delivery must recover after reconvergence: {:?}",
            last
        );
    }

    /// ISSUE acceptance: a transient link fault causes a delivery dip in
    /// its windows and full recovery after its repair.
    #[test]
    fn transient_fault_dips_then_recovers() {
        use crate::injection::FaultSchedule;
        let victim = NodeId(9);
        let cfg = SimConfig::new(6, 2)
            .with_cycles(900, 4_000, 0)
            .with_rate(0.05)
            .with_window(300)
            .with_reroute_budget(0) // no recovery: staleness shows as drops
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(victim),
                kind: FaultKind::Transient { repair_after: 150 },
            }]));
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        assert_eq!(r.trace.len(), 2, "failure and repair must both apply");
        let dip = &r.windows[1]; // cycles 300..600: the fault is live
        assert!(
            dip.dropped > 0 && dip.delivery_ratio() < 1.0,
            "the faulty window must show a dip: {dip:?}"
        );
        // All post-repair windows are clean again.
        for w in &r.windows[2..] {
            assert!(
                w.delivery_ratio() > 0.995,
                "delivery must fully recover after repair: {w:?}"
            );
        }
        assert_eq!(r.metrics.in_flight_at_end, 0);
    }

    /// Same seed and schedule ⇒ identical event trace, metrics, and
    /// windows, bit for bit (ISSUE acceptance).
    #[test]
    fn churn_runs_are_deterministic() {
        use crate::injection::{CategoryMix, FaultSchedule};
        let cfg = || {
            SimConfig::new(6, 2)
                .with_cycles(400, 4_000, 0)
                .with_rate(0.03)
                .with_knowledge(KnowledgeModel::Measured)
                .with_schedule(FaultSchedule::Bernoulli {
                    rate: 0.01,
                    kind: FaultKind::Transient { repair_after: 80 },
                    mix: CategoryMix::default(),
                    node_fraction: 0.5,
                })
        };
        let a = Simulator::new(cfg(), &FaultTolerantGcr).session().run();
        let b = Simulator::new(cfg(), &FaultTolerantGcr).session().run();
        assert!(!a.trace.is_empty(), "the Bernoulli schedule must fire");
        assert_eq!(a, b, "same seed + schedule must reproduce bit for bit");
        let c = Simulator::new(cfg().with_seed(99), &FaultTolerantGcr)
            .session()
            .run();
        assert_ne!(
            a.trace, c.trace,
            "a different seed must change the event trace"
        );
    }

    /// Empty schedule + oracle view must reproduce the static engine
    /// exactly — the dynamic loop is a strict superset, not a fork.
    #[test]
    fn empty_schedule_matches_static_run() {
        let static_cfg = small_config().with_faults(1);
        let m1 = Simulator::new(static_cfg.clone(), &FaultTolerantGcr)
            .session()
            .run()
            .metrics;
        let m2 = Simulator::new(
            static_cfg.with_knowledge(KnowledgeModel::Oracle),
            &FaultTolerantGcr,
        )
        .session()
        .run()
        .metrics;
        assert_eq!(m1, m2);
    }

    /// The TTL genuinely bounds packet lifetimes: with a hostile tiny TTL
    /// packets die instead of wandering forever.
    #[test]
    fn ttl_bounds_packet_lifetimes() {
        use crate::injection::FaultSchedule;
        let cfg = SimConfig::new(6, 2)
            .with_cycles(400, 2_000, 0)
            .with_rate(0.05)
            .with_ttl(2) // shorter than most routes
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 0,
                target: FaultTarget::Node(NodeId(9)),
                kind: FaultKind::Permanent,
            }]))
            .with_knowledge(KnowledgeModel::PaperDelay);
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        assert!(r.metrics.ttl_expired > 0, "a 2-hop TTL must expire packets");
        assert_eq!(
            r.metrics.delivered + r.metrics.dropped + r.metrics.in_flight_at_end,
            r.metrics.injected,
            "conservation with TTL drops"
        );
        assert_eq!(
            r.metrics.in_flight_at_end, 0,
            "expired packets must not linger"
        );
    }

    /// The TTL applies to *static* runs too: a hop budget shorter than the
    /// routes must expire packets even with no fault schedule (previously
    /// the check only ran in dynamic mode, silently ignoring the setting).
    #[test]
    fn static_ttl_is_enforced() {
        let cfg = SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 0)
            .with_rate(0.05)
            .with_ttl(2);
        let r = Simulator::new(cfg, &FaultFreeGcr).session().run();
        let m = r.metrics;
        assert!(
            m.ttl_expired > 0,
            "a 2-hop TTL must expire packets in a static run"
        );
        assert_eq!(m.dropped, m.ttl_expired, "TTL is the only drop cause here");
        assert_eq!(
            m.delivered + m.dropped + m.in_flight_at_end,
            m.injected,
            "conservation with static TTL drops"
        );
        // Short routes still make it through.
        assert!(m.delivered > 0, "routes within the TTL must still deliver");
    }

    /// The cached strategies are drop-in replacements: same seed and
    /// config must reproduce the uncached engine output bit for bit, both
    /// fault-free and under churn.
    #[test]
    fn cached_strategies_match_uncached_in_engine() {
        use crate::injection::FaultSchedule;
        use crate::strategy::{CachedFfgcr, CachedFtgcr};

        let a = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run();
        let b = Simulator::new(small_config(), &CachedFfgcr::new())
            .session()
            .run();
        assert_eq!(a, b, "cached FFGCR must match uncached in the engine");

        let churn_cfg = || {
            SimConfig::new(6, 2)
                .with_cycles(600, 4_000, 0)
                .with_rate(0.05)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                    cycle: 300,
                    target: FaultTarget::Node(NodeId(9)),
                    kind: FaultKind::Permanent,
                }]))
        };
        let c = Simulator::new(churn_cfg(), &FaultTolerantGcr)
            .session()
            .run();
        let cached = CachedFtgcr::new();
        let d = Simulator::new(churn_cfg(), &cached).session().run();
        assert_eq!(c, d, "cached FTGCR must match uncached under churn");
        let stats = cached.stats().expect("cache was used");
        assert!(stats.hits > 0, "repeat pairs must hit the cache");
    }

    /// The whole-run ledger balances exactly, warm-up included, and the
    /// window time series sums to the same totals.
    #[test]
    fn whole_run_ledger_balances() {
        use crate::injection::FaultSchedule;
        let cfg = SimConfig::new(6, 2)
            .with_cycles(600, 4_000, 100)
            .with_rate(0.05)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(NodeId(9)),
                kind: FaultKind::Permanent,
            }]));
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        let m = r.metrics;
        assert!(
            m.injected_total > m.injected,
            "warm-up packets must appear in the total but not the measured count"
        );
        assert_eq!(
            m.injected_total,
            m.delivered_total + m.dropped_total + m.in_flight_at_end,
            "whole-run conservation"
        );
        assert_eq!(
            r.windows.iter().map(|w| w.injected).sum::<u64>(),
            m.injected_total
        );
        assert_eq!(
            r.windows.iter().map(|w| w.delivered).sum::<u64>(),
            m.delivered_total
        );
        assert_eq!(
            r.windows.iter().map(|w| w.dropped).sum::<u64>(),
            m.dropped_total
        );
    }

    /// `rerouted_packets` counts each re-routed packet exactly once at its
    /// final resolution, so it can never exceed the resolved-packet count
    /// and never misses a packet that recovered while queued.
    #[test]
    fn rerouted_packets_counted_per_packet() {
        use crate::injection::FaultSchedule;
        // High rate so recovery often happens behind another queued packet
        // (the case the old queue-head heuristic missed).
        let cfg = SimConfig::new(6, 2)
            .with_cycles(600, 4_000, 0)
            .with_rate(0.2)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(NodeId(9)),
                kind: FaultKind::Permanent,
            }]));
        let m = Simulator::new(cfg, &FaultTolerantGcr)
            .session()
            .run()
            .metrics;
        assert!(m.rerouted_packets > 0, "the dead node must force re-routes");
        assert!(
            m.rerouted_packets <= m.delivered + m.dropped,
            "a packet resolves once: rerouted {} > resolved {}",
            m.rerouted_packets,
            m.delivered + m.dropped
        );
        // Every re-routed packet took at least one detour hop, so the hop
        // total must cover the packet count.
        assert!(m.rerouted_hops >= m.rerouted_packets);
    }

    /// A permutation source whose partner is faulty stays silent — that
    /// used to vanish without a trace; now it is counted.
    #[test]
    fn suppressed_injections_are_counted() {
        use crate::traffic::TrafficPattern;
        // Under BitComplement on GC(6,2), every node with a faulty
        // complement is silenced; four static faults guarantee silenced
        // sources that still fire at rate 1.
        let cfg = small_config()
            .with_rate(1.0)
            .with_pattern(TrafficPattern::BitComplement)
            .with_faults(4);
        let m = Simulator::new(cfg, &FaultTolerantGcr)
            .session()
            .run()
            .metrics;
        assert!(
            m.suppressed_injections_total > 0,
            "faulty complements must suppress injections"
        );
        assert!(m.suppressed_injections > 0, "some must land post-warm-up");
        assert!(m.suppressed_injections <= m.suppressed_injections_total);
        // Fault-free uniform traffic never suppresses.
        let clean = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert_eq!(clean.suppressed_injections_total, 0);
    }
}
