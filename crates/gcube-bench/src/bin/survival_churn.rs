//! Survival past the Theorem-3 budget: FTGCR vs multitree, head to head.
//!
//! Three experiments, three CSVs:
//!
//! - `survival_clustered.csv` — the canonical over-budget clustered
//!   scenario (20 A-links packed into one `GC(8,2)` subcube, the PR-4
//!   `bound_exceeded` level) under both strategies. FTGCR refuses
//!   connected pairs here; multitree keeps delivering by switching trees.
//!   The binary *asserts* the strict multitree win, so running it is the
//!   survival-regression gate.
//! - `survival_churn.csv` — drop ratio vs fault-arrival rate
//!   `p ∈ {0.02, 0.05, 0.10}` (transient Bernoulli churn, paper-delay
//!   knowledge) for both strategies on identical seeds.
//! - `collective_churn.csv` — broadcast coverage vs the same fault
//!   rates under cached FTGCR: the churn sweep's configs and seeds with
//!   the periodic broadcast collective riding on top.
//!
//! The first two CSVs carry the tree-switch columns and the third the
//! tree-repair columns, so diffing two runs checks determinism of the
//! whole multitree and collective path.

use gcube_analysis::tables::{num, Table};
use gcube_bench::{
    results_dir, survival_churn_configs, survival_churn_sweep, survival_head_to_head,
    survival_rates, survival_ratio, threads, COLLECTIVE_INTERVAL,
};
use gcube_sim::{
    run_churn_sweep, CachedFtgcr, ChurnPoint, CollectiveOp, MultiTreeStrategy, SimConfig,
};

fn row(table: &mut Table, label: &str, rate: f64, p: &ChurnPoint) {
    let m = &p.report.metrics;
    let intact = p.report.tree_health.as_ref().map_or_else(
        || "-".to_string(),
        |ts| ts.iter().filter(|t| t.clean).count().to_string(),
    );
    table.row([
        label.to_string(),
        num(rate, 3),
        m.injected.to_string(),
        m.delivered.to_string(),
        m.dropped.to_string(),
        m.route_failures.to_string(),
        num(survival_ratio(m), 4),
        num(m.drop_ratio(), 4),
        m.tree_switches.to_string(),
        m.tree_exhausted.to_string(),
        intact,
        p.report.budget.state.as_str().to_string(),
    ]);
}

const COLUMNS: [&str; 12] = [
    "strategy",
    "fault_rate",
    "injected",
    "delivered",
    "dropped",
    "route_failures",
    "survival_ratio",
    "drop_ratio",
    "tree_switches",
    "tree_exhausted",
    "trees_intact",
    "budget_state",
];

fn main() {
    // Canonical clustered scenario: the survival-regression gate.
    let h = survival_head_to_head();
    let mut clustered = Table::new(COLUMNS);
    row(&mut clustered, h.ftgcr.algorithm, 0.0, &h.ftgcr);
    row(&mut clustered, h.multitree.algorithm, 0.0, &h.multitree);
    println!(
        "Canonical over-budget clustered scenario: {} faults in one GC(8,2) subcube\n",
        h.faults
    );
    print!("{}", clustered.render());
    let path = results_dir().join("survival_clustered.csv");
    clustered.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());

    let ft = survival_ratio(&h.ftgcr.report.metrics);
    let mt = survival_ratio(&h.multitree.report.metrics);
    assert_eq!(
        h.ftgcr.report.budget.state.as_str(),
        "bound_exceeded",
        "the canonical scenario must bust the Theorem-3 budget"
    );
    assert!(
        mt > ft,
        "survival regression: multitree must deliver strictly more than FTGCR \
         past the budget, got {mt:.4} vs {ft:.4}"
    );
    println!("\nsurvival: multitree {mt:.4} > ftgcr {ft:.4} under bound_exceeded — OK\n");

    // Drop ratio vs fault-arrival rate, both strategies, identical seeds.
    let ftgcr_runs = survival_churn_sweep(&CachedFtgcr::new());
    let multitree_runs = survival_churn_sweep(&MultiTreeStrategy::new(2));
    let mut churn = Table::new(COLUMNS);
    for (rate, p) in survival_rates().iter().zip(&ftgcr_runs) {
        row(&mut churn, p.algorithm, *rate, p);
    }
    for (rate, p) in survival_rates().iter().zip(&multitree_runs) {
        row(&mut churn, p.algorithm, *rate, p);
    }
    println!("Drop ratio vs fault rate (GC(8,2), transient churn, paper-delay knowledge)\n");
    print!("{}", churn.render());
    let path = results_dir().join("survival_churn.csv");
    churn.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());

    // Broadcast coverage vs fault-arrival rate, cached FTGCR.
    let mut coverage = Table::new([
        "fault_rate",
        "ops",
        "injected",
        "delivered",
        "dropped",
        "coverage",
        "tree_regrafts",
        "tree_rebuilds",
        "tree_lost_nodes",
    ]);
    for (rate, p) in survival_rates().iter().zip(collective_churn_sweep()) {
        let m = &p.report.metrics;
        coverage.row([
            num(*rate, 3),
            m.collective_ops.to_string(),
            m.collective_injected.to_string(),
            m.collective_delivered.to_string(),
            m.collective_dropped.to_string(),
            num(m.collective_coverage(), 4),
            m.tree_regrafts.to_string(),
            m.tree_rebuilds.to_string(),
            m.tree_lost_nodes.to_string(),
        ]);
    }
    println!("\nBroadcast coverage vs fault rate (GC(8,2), cached FTGCR, same churn)\n");
    print!("{}", coverage.render());
    let path = results_dir().join("collective_churn.csv");
    coverage.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}

/// The churn sweep's configs and seeds with a broadcast every
/// [`COLLECTIVE_INTERVAL`] cycles, so the coverage curve isolates what
/// churn costs the tree traffic.
fn collective_churn_sweep() -> Vec<ChurnPoint> {
    let configs: Vec<SimConfig> = survival_churn_configs()
        .into_iter()
        .map(|c| {
            c.with_collective(CollectiveOp::Broadcast)
                .with_collective_interval(COLLECTIVE_INTERVAL)
        })
        .collect();
    run_churn_sweep(&configs, &CachedFtgcr::new(), threads())
}
