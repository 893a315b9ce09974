//! Shared plumbing for the figure-regeneration binaries (`src/bin/fig*.rs`).
//!
//! Every figure of the paper's evaluation maps to one binary:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig1_gaussian_graphs`  | Fig. 1 — topologies of `G_2, G_3, G_4` |
//! | `fig2_tree_diameter`    | Fig. 2 — `D(T_m)` vs `m` |
//! | `fig4_max_faults`       | Fig. 4 — `log2 T(GC(α,n))` vs `n` |
//! | `fig5_latency`          | Fig. 5 — avg latency vs `n`, `M ∈ {1,2,4}` |
//! | `fig6_throughput`       | Fig. 6 — log2 throughput vs `n` |
//! | `fig7_fault_latency`    | Fig. 7 — latency, no-fault vs one fault |
//! | `fig8_fault_throughput` | Fig. 8 — throughput, no-fault vs one fault |
//! | `churn_degradation`     | beyond the paper: delivery under fault churn |
//! | `all_figures`           | runs everything, writes `results/*.csv` |
//!
//! (Figure 3 is a worked example of the CT algorithm; it is reproduced by
//! `examples/topology_explorer.rs` rather than a measurement binary.)
//!
//! Each figure's CSV table is built by one function here (`fig1_table`
//! … `fig8_table`, `churn_table`), which both its binary and
//! `all_figures` call, so a CSV has the same columns whichever wrote it.

use std::collections::BTreeMap;
use std::path::PathBuf;

use gcube_analysis::tables::{num, Table};
use gcube_analysis::{diameter, tolerance};
use gcube_sim::{
    run_churn_sweep, run_sweep, CachedFtgcr, CategoryMix, ChurnPoint, CollectiveOp, FaultFreeGcr,
    FaultKind, FaultSchedule, FaultTarget, FaultTolerantGcr, KnowledgeModel, Metrics,
    MultiTreeStrategy, RoutingAlgorithm, SimConfig, SweepPoint, TimedFault,
};
use gcube_topology::classes::{n_bound_paper, subcube_pos};
use gcube_topology::{GaussianCube, GaussianTree, LinkId, NodeId, Topology};

/// Format an optional `log2` value for a table cell (`n/a` when the
/// underlying quantity was zero and the logarithm is undefined).
pub fn log2_cell(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |x| gcube_analysis::tables::num(x, 3))
}

/// Where the figure binaries drop their CSVs (`results/` at the workspace
/// root, overridable with `GCUBE_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("GCUBE_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the crate dir to the workspace root.
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    here.parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Number of sweep worker threads (respects `GCUBE_THREADS`).
pub fn threads() -> usize {
    std::env::var("GCUBE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
}

/// Simulation scale knob: `GCUBE_QUICK=1` shrinks cycle counts ~5x for CI.
pub fn quick() -> bool {
    std::env::var("GCUBE_QUICK").is_ok_and(|v| v == "1")
}

/// Figure 1: the edge lists of the Gaussian graphs `G_2`, `G_3`, `G_4`,
/// in link order (`fig1_gaussian_graphs.csv`).
pub fn fig1_table() -> Table {
    let mut table = Table::new(["m", "dim", "lo", "hi"]);
    for m in 2..=4u32 {
        let t = GaussianTree::new(m).expect("small m");
        for l in t.links() {
            let (a, b) = l.endpoints();
            table.row([
                m.to_string(),
                l.dim.to_string(),
                a.0.to_string(),
                b.0.to_string(),
            ]);
        }
    }
    table
}

/// Figure 2: the exact diameter of `T_m` for `m ≤ max_m`
/// (`fig2_tree_diameter.csv`).
pub fn fig2_table(max_m: u32) -> Table {
    let mut table = Table::new(["m", "nodes", "diameter"]);
    for p in diameter::series(max_m) {
        table.row([p.m.to_string(), p.nodes.to_string(), p.diameter.to_string()]);
    }
    table
}

/// Figure 4: the tolerable faulty links `T(GC(α, n))` for `n ≤ max_n`
/// (`fig4_max_faults.csv`).
pub fn fig4_table(max_n: u32) -> Table {
    let mut table = Table::new(["n", "alpha", "T_paper", "log2_T", "T_guaranteed"]);
    for p in tolerance::series(max_n) {
        table.row([
            p.n.to_string(),
            p.alpha.to_string(),
            p.t_paper.to_string(),
            num(p.log2_t_paper, 3),
            p.t_guaranteed.to_string(),
        ]);
    }
    table
}

/// Figure 5: average latency and hops over [`fault_free_sweep`]'s points
/// (`fig5_latency.csv`).
pub fn fig5_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new([
        "n",
        "M",
        "avg_latency_cycles",
        "avg_hops",
        "delivered",
        "injected",
    ]);
    for p in points {
        table.row([
            p.config.n.to_string(),
            p.config.modulus.to_string(),
            num(p.metrics.avg_latency(), 3),
            num(p.metrics.avg_hops(), 3),
            p.metrics.delivered.to_string(),
            p.metrics.injected.to_string(),
        ]);
    }
    table
}

/// Figure 6: throughput over [`fault_free_sweep`]'s points
/// (`fig6_throughput.csv`).
pub fn fig6_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new(["n", "M", "throughput_pkts_per_cycle", "log2_throughput"]);
    for p in points {
        table.row([
            p.config.n.to_string(),
            p.config.modulus.to_string(),
            num(p.metrics.throughput(), 4),
            log2_cell(p.metrics.log2_throughput()),
        ]);
    }
    table
}

/// Figure 7: average latency and hops with no fault and with one faulty
/// node, over [`fault_impact_sweep`]'s points (`fig7_fault_latency.csv`).
pub fn fig7_table(healthy: &[SweepPoint], faulty: &[SweepPoint]) -> Table {
    let mut table = Table::new([
        "n",
        "latency_no_fault",
        "latency_one_fault",
        "hops_no_fault",
        "hops_one_fault",
    ]);
    for (h, f) in healthy.iter().zip(faulty) {
        assert_eq!(h.config.n, f.config.n);
        table.row([
            h.config.n.to_string(),
            num(h.metrics.avg_latency(), 3),
            num(f.metrics.avg_latency(), 3),
            num(h.metrics.avg_hops(), 3),
            num(f.metrics.avg_hops(), 3),
        ]);
    }
    table
}

/// Figure 8: throughput with no fault and with one faulty node, over
/// [`fault_impact_sweep`]'s points (`fig8_fault_throughput.csv`).
pub fn fig8_table(healthy: &[SweepPoint], faulty: &[SweepPoint]) -> Table {
    let mut table = Table::new([
        "n",
        "log2_throughput_no_fault",
        "log2_throughput_one_fault",
        "throughput_no_fault",
        "throughput_one_fault",
    ]);
    for (h, f) in healthy.iter().zip(faulty) {
        assert_eq!(h.config.n, f.config.n);
        table.row([
            h.config.n.to_string(),
            log2_cell(h.metrics.log2_throughput()),
            log2_cell(f.metrics.log2_throughput()),
            num(h.metrics.throughput(), 4),
            num(f.metrics.throughput(), 4),
        ]);
    }
    table
}

/// The churn summary: one row per [`churn_rates`] rate of
/// [`churn_sweep`]'s points — delivery, drop breakdown, re-route volume,
/// detour cost, latency, stale-knowledge exposure and final health
/// (`churn_degradation.csv`).
pub fn churn_table(points: &[ChurnPoint]) -> Table {
    let rates = churn_rates();
    assert_eq!(points.len(), rates.len());
    let mut table = Table::new([
        "churn_rate",
        "fault_events",
        "delivery_ratio",
        "drop_ratio",
        "completion_ratio",
        "ttl_expired",
        "dropped_stranded",
        "dropped_unrecoverable",
        "suppressed_injections",
        "rerouted_packets",
        "detour_hops",
        "avg_latency",
        "latency_p50",
        "latency_p95",
        "latency_p99",
        "latency_max",
        "stale_cycles",
        "reconvergences",
        "health_transitions",
        "final_health",
        "final_faults",
        "thm3_headroom",
    ]);
    let pctl = |v: Option<u64>| v.map_or_else(|| "-".into(), |x| x.to_string());
    for (rate, p) in rates.iter().zip(points) {
        let m = p.report.metrics;
        table.row([
            num(*rate, 3),
            m.fault_events.to_string(),
            num(m.delivery_ratio(), 4),
            num(m.drop_ratio(), 4),
            num(m.completion_ratio(), 4),
            m.ttl_expired.to_string(),
            m.dropped_stranded.to_string(),
            m.dropped_unrecoverable.to_string(),
            m.suppressed_injections.to_string(),
            m.rerouted_packets.to_string(),
            m.rerouted_hops.to_string(),
            num(m.avg_latency(), 3),
            pctl(m.latency_hist.p50()),
            pctl(m.latency_hist.p95()),
            pctl(m.latency_hist.p99()),
            m.latency_hist.max().to_string(),
            m.stale_cycles.to_string(),
            m.reconvergences.to_string(),
            m.health_transitions.to_string(),
            p.report.budget.state.as_str().to_string(),
            p.report.budget.total.to_string(),
            p.report.budget.headroom_paper().to_string(),
        ]);
    }
    table
}

/// The Figure 5/6 sweep: fault-free `GC(n, M)`, `n ∈ [6, 14]`,
/// `M ∈ {1, 2, 4}`, FFGCR.
pub fn fault_free_sweep() -> Vec<SweepPoint> {
    let (inject, drain, warmup) = if quick() {
        (120, 2_000, 20)
    } else {
        (600, 10_000, 100)
    };
    let mut configs = Vec::new();
    for &m in &[1u64, 2, 4] {
        for n in 6..=14u32 {
            configs.push(
                SimConfig::new(n, m)
                    .with_cycles(inject, drain, warmup)
                    .with_rate(0.005)
                    .with_seed(0xf15_0000 + u64::from(n) * 16 + m),
            );
        }
    }
    run_sweep(&configs, &FaultFreeGcr, threads())
}

/// The Figure 7/8 sweep: `GC(n, 2)`, `n ∈ [5, 13]`, FTGCR, zero vs one
/// faulty node.
pub fn fault_impact_sweep() -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    let (inject, drain, warmup) = if quick() {
        (120, 2_000, 20)
    } else {
        (600, 10_000, 100)
    };
    let mk = |faults: usize| -> Vec<SimConfig> {
        (5..=13u32)
            .map(|n| {
                SimConfig::new(n, 2)
                    .with_cycles(inject, drain, warmup)
                    .with_rate(0.005)
                    .with_faults(faults)
                    .with_seed(0xf78_0000 + u64::from(n))
            })
            .collect()
    };
    let healthy = run_sweep(&mk(0), &FaultTolerantGcr, threads());
    let faulty = run_sweep(&mk(1), &FaultTolerantGcr, threads());
    (healthy, faulty)
}

/// The degradation-under-churn sweep: `GC(9, 2)`, FTGCR with online
/// recovery, transient faults arriving at increasing Bernoulli rates under
/// the paper-delay knowledge model. Returns one [`ChurnPoint`] per churn
/// rate, in increasing-rate order.
pub fn churn_sweep() -> Vec<ChurnPoint> {
    let (inject, drain) = if quick() {
        (400, 4_000)
    } else {
        (2_000, 10_000)
    };
    let configs: Vec<SimConfig> = churn_rates()
        .into_iter()
        .map(|churn| {
            SimConfig::new(9, 2)
                .with_cycles(inject, drain, 0)
                .with_rate(0.01)
                .with_seed(0xc09_0000)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_window(inject / 10)
                .with_schedule(if churn == 0.0 {
                    FaultSchedule::None
                } else {
                    FaultSchedule::Bernoulli {
                        rate: churn,
                        kind: FaultKind::Transient { repair_after: 200 },
                        mix: CategoryMix::default(),
                        node_fraction: 0.5,
                    }
                })
        })
        .collect();
    run_churn_sweep(&configs, &FaultTolerantGcr, threads())
}

/// The churn arrival rates used by [`churn_sweep`], aligned with its
/// output order.
pub fn churn_rates() -> [f64; 6] {
    [0.0, 0.002, 0.005, 0.01, 0.02, 0.05]
}

/// One load level of [`theorem3_budget_sweep`]: a scripted A-category
/// link-fault set injected at cycle 0, with the run it produced.
pub struct BudgetPoint {
    /// `"spread"` (≤ `N(α,k) − 1` faults per subcube, precondition holds)
    /// or `"clustered"` (one subcube overloaded past its allowance).
    pub placement: &'static str,
    /// Number of A-category link faults injected.
    pub faults: usize,
    /// The simulated run, including its final [`gcube_routing::faults::FaultBudget`].
    pub point: ChurnPoint,
}

/// Output of [`theorem3_budget_sweep`]: the Theorem 3 budget `T(GC)` and
/// the measured load levels.
pub struct BudgetCheck {
    /// The cube simulated.
    pub n: u32,
    /// Its modulus.
    pub modulus: u64,
    /// `T(GC) = Σ_k (N(α,k) − 1) · 2^(n−α−|Dim(α,k)|)`.
    pub t_paper: u64,
    /// One entry per load level, spread levels first.
    pub points: Vec<BudgetPoint>,
}

/// Every A-category link of `gc` (dimension ≥ α), grouped by the GEEC
/// subcube Theorem 3 charges it to, in deterministic order.
pub fn a_links_by_subcube(gc: &GaussianCube) -> BTreeMap<(u64, u64), Vec<LinkId>> {
    let mut by_subcube: BTreeMap<(u64, u64), Vec<LinkId>> = BTreeMap::new();
    for p in 0..gc.num_nodes() {
        let node = NodeId(p);
        for dim in gc.alpha()..gc.n() {
            // Count each link once, at its bit-clear endpoint. Flipping a
            // dimension in `Dim(α, k)` stays inside the subcube, so both
            // endpoints charge the same `(k, t)`.
            if !node.bit(dim) && gc.has_link(node, dim) {
                let pos = subcube_pos(gc, node);
                by_subcube
                    .entry((pos.k, pos.t))
                    .or_default()
                    .push(LinkId::new(node, dim));
            }
        }
    }
    by_subcube
}

/// The canonical *over-budget clustered* fault set: `count` A-category
/// links packed into the best-provisioned GEEC subcube of `gc`, clamped
/// so the subcube's Theorem-3 allowance `N(α,k) − 1` is always exceeded
/// (the precondition fails even though the total is far below `T(GC)`).
/// This is the placement where the budget monitor reports
/// `bound_exceeded` and plain FTGCR starts refusing connected pairs.
pub fn clustered_fault_links(gc: &GaussianCube, count: usize) -> Vec<LinkId> {
    let by_subcube = a_links_by_subcube(gc);
    let ((k, _t), cluster) = by_subcube
        .iter()
        .max_by_key(|(_, links)| links.len())
        .expect("cube has A-category links");
    let allowance = n_bound_paper(gc.n(), gc.alpha(), *k).saturating_sub(1) as usize;
    let take = count.clamp(allowance + 1, cluster.len());
    cluster[..take].to_vec()
}

/// Measure *observed* fault tolerance against the Theorem 3 budget on
/// `GC(8, 2)`.
///
/// Two placement disciplines, both injecting only A-category link faults
/// (the kind the theorem budgets) at cycle 0 under oracle knowledge:
///
/// - **spread** — faults are dealt round-robin across GEEC subcubes, never
///   exceeding the per-subcube allowance `N(α,k) − 1`, so the Theorem 3
///   precondition holds at every prefix. Levels at ¼, ½, ¾ and the full
///   budget `T(GC)`; FTGCR should deliver everything at all of them.
/// - **clustered** — the same *count* of faults as the smallest spread
///   level, but packed into a single subcube past its allowance. The
///   precondition fails (the monitor reports `bound_exceeded`) even though
///   the total is far below `T(GC)` — the bound is per-subcube, not global.
pub fn theorem3_budget_sweep() -> BudgetCheck {
    let (n, modulus) = (8u32, 2u64);
    let gc = GaussianCube::new(n, modulus).expect("valid shape");
    let alpha = gc.alpha();
    let by_subcube = a_links_by_subcube(&gc);

    // Deal links across subcubes layer by layer: after `l` complete layers
    // every subcube holds `min(l, N(α,k) − 1)` faults, so every prefix of
    // `spread` satisfies the precondition and the full list realises T(GC).
    let mut spread: Vec<LinkId> = Vec::new();
    let mut layer = 0usize;
    loop {
        let before = spread.len();
        for ((k, _t), links) in &by_subcube {
            let allowance = n_bound_paper(n, alpha, *k).saturating_sub(1) as usize;
            if layer < allowance {
                if let Some(l) = links.get(layer) {
                    spread.push(*l);
                }
            }
        }
        if spread.len() == before {
            break;
        }
        layer += 1;
    }
    let t_paper = gcube_routing::faults::max_tolerable_faults_paper(n, alpha);
    assert_eq!(
        spread.len() as u64,
        t_paper,
        "spread placement must realise the full Theorem 3 budget"
    );

    let quarter = (spread.len() / 4).max(1);
    let mut levels: Vec<(&'static str, Vec<LinkId>)> = [1, 2, 3, 4]
        .iter()
        .map(|q| ("spread", spread[..(quarter * q).min(spread.len())].to_vec()))
        .collect();

    // Clustered: overload the best-provisioned subcube with the same count
    // as the smallest spread level (its links alone exceed its allowance).
    levels.push(("clustered", clustered_fault_links(&gc, quarter)));

    let (inject, drain) = if quick() {
        (200, 2_000)
    } else {
        (1_000, 8_000)
    };
    let configs: Vec<SimConfig> = levels
        .iter()
        .map(|(_, links)| {
            SimConfig::new(n, modulus)
                .with_cycles(inject, drain, 0)
                .with_rate(0.01)
                .with_seed(0x7e3_0000)
                .with_schedule(FaultSchedule::Scripted(
                    links
                        .iter()
                        .map(|&l| TimedFault {
                            cycle: 0,
                            target: FaultTarget::Link(l),
                            kind: FaultKind::Permanent,
                        })
                        .collect(),
                ))
        })
        .collect();
    let runs = run_churn_sweep(&configs, &FaultTolerantGcr, threads());
    let points = levels
        .into_iter()
        .zip(runs)
        .map(|((placement, links), point)| BudgetPoint {
            placement,
            faults: links.len(),
            point,
        })
        .collect();
    BudgetCheck {
        n,
        modulus,
        t_paper,
        points,
    }
}

/// Fault count of the canonical over-budget clustered scenario on
/// `GC(8, 2)`: a quarter of `T(GC) = 80`, packed into one subcube — the
/// load level where the Theorem-3 monitor reports `bound_exceeded`.
pub const SURVIVAL_CLUSTER_FAULTS: usize = 20;

/// Delivery ratio counting *refused* packets against the router:
/// `delivered / (delivered + dropped + route_failures)`. The stock
/// [`Metrics::delivery_ratio`] excludes planning failures, which is
/// exactly where FTGCR loses packets past the Theorem-3 budget — this
/// survival metric charges them.
pub fn survival_ratio(m: &Metrics) -> f64 {
    let resolved = m.delivered + m.dropped + m.route_failures;
    if resolved == 0 {
        1.0
    } else {
        m.delivered as f64 / resolved as f64
    }
}

/// The canonical over-budget clustered scenario as a run config:
/// `GC(8, 2)` with [`SURVIVAL_CLUSTER_FAULTS`] clustered A-links failed
/// at cycle 0, oracle knowledge (the loss is structural, not staleness).
pub fn survival_scenario_config() -> SimConfig {
    let gc = GaussianCube::new(8, 2).expect("valid shape");
    let links = clustered_fault_links(&gc, SURVIVAL_CLUSTER_FAULTS);
    assert_eq!(links.len(), SURVIVAL_CLUSTER_FAULTS);
    let (inject, drain) = if quick() {
        (400, 4_000)
    } else {
        (1_500, 10_000)
    };
    SimConfig::new(8, 2)
        .with_cycles(inject, drain, 0)
        .with_rate(0.02)
        .with_seed(0x5a1_0000)
        .with_window(inject / 10)
        .with_schedule(FaultSchedule::Scripted(
            links
                .into_iter()
                .map(|l| TimedFault {
                    cycle: 0,
                    target: FaultTarget::Link(l),
                    kind: FaultKind::Permanent,
                })
                .collect(),
        ))
}

/// The canonical scenario, head to head: FTGCR vs multitree (k = 2) on
/// the identical config and seed. The acceptance claim is
/// `survival_ratio(multitree) > survival_ratio(ftgcr)` with the monitor
/// reporting `bound_exceeded` — multitree keeps delivering where FTGCR
/// refuses pairs.
pub struct SurvivalHeadToHead {
    /// Clustered faults injected ([`SURVIVAL_CLUSTER_FAULTS`]).
    pub faults: usize,
    /// The FTGCR run.
    pub ftgcr: ChurnPoint,
    /// The multitree (k = 2) run.
    pub multitree: ChurnPoint,
}

/// Run [`survival_scenario_config`] under both strategies.
pub fn survival_head_to_head() -> SurvivalHeadToHead {
    let cfg = [survival_scenario_config()];
    let ftgcr = run_churn_sweep(&cfg, &CachedFtgcr::new(), 1).remove(0);
    let multitree = run_churn_sweep(&cfg, &MultiTreeStrategy::new(2), 1).remove(0);
    SurvivalHeadToHead {
        faults: SURVIVAL_CLUSTER_FAULTS,
        ftgcr,
        multitree,
    }
}

/// Fault-arrival rates of the survival churn sweep, aligned with
/// [`survival_churn_sweep`]'s output order.
pub fn survival_rates() -> [f64; 3] {
    [0.02, 0.05, 0.10]
}

/// The churn configs on `GC(8, 2)`: transient Bernoulli churn at each
/// of [`survival_rates`] under paper-delay knowledge, one seed for all.
pub fn survival_churn_configs() -> Vec<SimConfig> {
    let (inject, drain) = if quick() {
        (300, 3_000)
    } else {
        (1_200, 8_000)
    };
    survival_rates()
        .into_iter()
        .map(|p| {
            SimConfig::new(8, 2)
                .with_cycles(inject, drain, 0)
                .with_rate(0.01)
                .with_seed(0x5a2_0000)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_window(inject / 10)
                .with_schedule(FaultSchedule::Bernoulli {
                    rate: p,
                    kind: FaultKind::Transient { repair_after: 150 },
                    mix: CategoryMix::default(),
                    node_fraction: 0.5,
                })
        })
        .collect()
}

/// Drop ratio vs fault rate: [`survival_churn_configs`] under one
/// strategy. Every call runs identical configs and seeds, so two
/// strategies' curves differ only by the router.
pub fn survival_churn_sweep(algorithm: &dyn RoutingAlgorithm) -> Vec<ChurnPoint> {
    run_churn_sweep(&survival_churn_configs(), algorithm, threads())
}

/// Cycles between collective operations in the canonical collective
/// scenario ([`collective_scenario_config`]).
pub const COLLECTIVE_INTERVAL: u64 = 50;

/// Cycle the clustered fault burst lands in [`collective_scenario_config`]:
/// late enough that both ending classes of `GC(8, 2)` have established
/// their broadcast trees (two operations each), so the burst forces a
/// *repair* of a cached tree rather than a cold build.
pub const COLLECTIVE_FAULT_CYCLE: u64 = 4 * COLLECTIVE_INTERVAL;

/// The canonical clustered scenario with the periodic broadcast
/// collective riding on top: every root class establishes its tree
/// first, then [`SURVIVAL_CLUSTER_FAULTS`] A-links fail at once inside
/// one GEEC subcube. Link faults never kill a root, so every subsequent
/// operation must recover by subtree re-grafting — a full rebuild here
/// is a repair-path regression, and lost coverage means the re-graft
/// failed to reattach reachable nodes.
pub fn collective_scenario_config() -> SimConfig {
    let gc = GaussianCube::new(8, 2).expect("valid shape");
    let links = clustered_fault_links(&gc, SURVIVAL_CLUSTER_FAULTS);
    assert_eq!(links.len(), SURVIVAL_CLUSTER_FAULTS);
    let (inject, drain) = if quick() {
        (600, 5_000)
    } else {
        (1_500, 10_000)
    };
    SimConfig::new(8, 2)
        .with_cycles(inject, drain, 0)
        .with_rate(0.01)
        .with_seed(0x5a3_0000)
        .with_window(inject / 10)
        .with_collective(CollectiveOp::Broadcast)
        .with_collective_interval(COLLECTIVE_INTERVAL)
        .with_schedule(FaultSchedule::Scripted(
            links
                .into_iter()
                .map(|l| TimedFault {
                    cycle: COLLECTIVE_FAULT_CYCLE,
                    target: FaultTarget::Link(l),
                    kind: FaultKind::Permanent,
                })
                .collect(),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_resolves() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn threads_positive() {
        assert!(threads() >= 1);
    }

    /// The clustered placement always busts its subcube's allowance, and
    /// the canonical count on `GC(8, 2)` is the PR-4 `bound_exceeded`
    /// level: 20 faults, a quarter of `T(GC) = 80`.
    #[test]
    fn clustered_links_exceed_their_allowance() {
        let gc = GaussianCube::new(8, 2).unwrap();
        let links = clustered_fault_links(&gc, SURVIVAL_CLUSTER_FAULTS);
        assert_eq!(links.len(), SURVIVAL_CLUSTER_FAULTS);
        let pos = subcube_pos(&gc, links[0].endpoints().0);
        for l in &links {
            let p = subcube_pos(&gc, l.endpoints().0);
            assert_eq!((p.k, p.t), (pos.k, pos.t), "all faults in one subcube");
        }
        let allowance = n_bound_paper(gc.n(), gc.alpha(), pos.k).saturating_sub(1) as usize;
        assert!(links.len() > allowance, "placement must be over budget");
    }

    /// ISSUE acceptance: on the canonical over-budget clustered scenario,
    /// multitree (k = 2) delivers strictly more than FTGCR, which is
    /// refusing connected pairs while the monitor reports bound_exceeded.
    #[test]
    fn multitree_survives_the_clustered_over_budget_scenario() {
        let h = survival_head_to_head();
        let ft = &h.ftgcr.report;
        let mt = &h.multitree.report;
        assert_eq!(
            ft.budget.state,
            gcube_routing::faults::HealthState::BoundExceeded,
            "the canonical scenario must bust the Theorem-3 budget"
        );
        assert!(
            ft.metrics.route_failures > 0,
            "FTGCR must be refusing pairs here"
        );
        let (ft_ratio, mt_ratio) = (survival_ratio(&ft.metrics), survival_ratio(&mt.metrics));
        assert!(
            mt_ratio > ft_ratio,
            "multitree must beat FTGCR past the budget: {mt_ratio:.4} vs {ft_ratio:.4}"
        );
        assert!(
            mt.metrics.tree_switches > 0,
            "survival must come from tree switching"
        );
        assert!(mt.tree_health.is_some(), "multitree reports tree health");
    }

    /// The collective acceptance scenario: after the clustered burst,
    /// cached FTGCR's broadcast keeps at least 99% coverage, repaired by
    /// re-grafting subtrees alone (link faults never kill a root).
    #[test]
    fn broadcast_regrafts_around_the_clustered_burst() {
        let run =
            run_churn_sweep(&[collective_scenario_config()], &CachedFtgcr::new(), 1).remove(0);
        let post_fault: Vec<_> = run
            .report
            .collectives
            .iter()
            .filter(|s| s.started >= COLLECTIVE_FAULT_CYCLE)
            .collect();
        assert!(!post_fault.is_empty(), "operations launch after the burst");
        let (expected, delivered) = post_fault
            .iter()
            .fold((0u64, 0u64), |(e, d), s| (e + s.expected, d + s.delivered));
        assert!(
            delivered as f64 >= 0.99 * expected as f64,
            "post-fault coverage {delivered}/{expected}"
        );
        for s in &post_fault {
            assert!(
                s.coverage() >= 0.99,
                "operation {} covered {:.4}",
                s.op,
                s.coverage()
            );
        }
        let m = &run.report.metrics;
        assert_eq!(
            (m.tree_regrafts, m.tree_rebuilds, m.tree_lost_nodes),
            (2, 0, 0),
            "re-grafts, rebuilds, lost nodes"
        );
    }

    /// Each GEEC subcube of `GC(n, 2^α)` is a `|Dim(α,k)|`-dimensional
    /// hypercube, so it holds `|Dim| · 2^(|Dim|−1)` A-category links —
    /// comfortably above the `N(α,k) − 1` allowance the spread placement
    /// draws from it.
    #[test]
    fn a_links_group_into_full_subcubes() {
        for n in 5..=8u32 {
            let gc = GaussianCube::new(n, 2).unwrap();
            for ((k, _t), links) in &a_links_by_subcube(&gc) {
                let d = gcube_topology::classes::dim_count(n, gc.alpha(), *k) as usize;
                assert!(d >= 1);
                assert_eq!(links.len(), d << (d - 1), "GC({n},2) subcube k={k}");
                assert!(links.len() >= n_bound_paper(n, gc.alpha(), *k) as usize);
            }
        }
    }
}
